//! Interned metric classes for the Gnutella layer, registered once per
//! process (see `pier_netsim::metric_classes!`). Wire-message classes are
//! resolved by [`crate::GnutellaMsg::class`]; the rest label
//! protocol-level counters and histograms.

#![expect(clippy::disallowed_methods, reason = "the crate's metric classes are registered here")]

pier_netsim::metric_classes! {
    // Wire messages.
    pub QUERY = "gnutella.query";
    pub QUERY_HIT = "gnutella.query_hit";
    pub CRAWL_PING = "gnutella.crawl_ping";
    pub CRAWL_PONG = "gnutella.crawl_pong";
    pub QRP = "gnutella.qrp";
    pub LEAF_QUERY = "gnutella.leaf_query";
    pub LEAF_RESULTS = "gnutella.leaf_results";
    pub LEAF_FORWARD = "gnutella.leaf_forward";
    pub LEAF_HITS = "gnutella.leaf_hits";
    pub BROWSE = "gnutella.browse";
    pub BROWSE_REPLY = "gnutella.browse_reply";

    // Protocol-level counters.
    pub QUERIES_STARTED = "gnutella.queries_started";
    pub QUERIES_FINISHED = "gnutella.queries_finished";
    pub DUPLICATE_QUERY = "gnutella.duplicate_query";
    pub LEAF_FORWARDS = "gnutella.leaf_forwards";
    pub LEAF_MATCHES = "gnutella.leaf_matches";
    pub ORPHAN_HITS = "gnutella.orphan_hits";
    pub LEAF_SEARCH_TIMEOUT = "gnutella.leaf_search_timeout";
    pub UNEXPECTED_MSG = "gnutella.unexpected_msg";

    // Histograms.
    pub FIRST_HIT_LATENCY_S = "gnutella.first_hit_latency_s";
    pub RESULTS_PER_QUERY = "gnutella.results_per_query";
    pub CRAWL_DURATION_S = "crawl.duration_s";
}
