//! Gnutella 0.6 wire protocol (the subset the paper's measurements use),
//! with wire sizes modelled on the real message formats.
//!
//! Keyword payloads are interned [`Terms`] (`Arc`-shared term-id lists):
//! flooding a query to N neighbors clones a pointer, not N strings, and
//! `wire_size()` stays faithful to the 0.6 framing because the term table
//! retains every term's byte length (a query's payload length equals the
//! length of the space-joined term text, exactly as before).

use crate::bloom::{QrpFilter, QrpView};
use crate::files::FileMeta;
use pier_netsim::{MetricClass, NodeId};
use pier_vocab::Terms;

/// Gnutella descriptor header: 16-byte GUID + type + TTL + hops + 4-byte
/// payload length.
pub const HEADER_BYTES: usize = 23;

/// Message GUID. 16 bytes on the wire; 64 bits of entropy suffice in
/// simulation (collisions are astronomically unlikely at our scales).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Guid(pub u64);

/// One search hit inside a QueryHit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hit {
    pub file: FileMeta,
    /// The node sharing the file (hits are grouped per responding host on
    /// the real network; we keep one host per hit for simplicity).
    pub host: NodeId,
}

impl pier_netsim::HeapSize for Guid {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// A hit's name is an `Arc<str>` clone of catalog-owned text; charging it
/// per hit would multiply the one real allocation across every hop's copy.
impl pier_netsim::HeapSize for Hit {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// All Gnutella messages.
#[derive(Clone, Debug)]
pub enum GnutellaMsg {
    /// Flooded keyword query.
    Query {
        guid: Guid,
        ttl: u8,
        hops: u8,
        terms: Terms,
    },
    /// Search results, routed back along the query's reverse path. `ttl`
    /// is the header's: every relay spends one, so a hit cannot circle a
    /// loop of reverse-path entries that stale repeats of its query laid.
    QueryHit {
        guid: Guid,
        ttl: u8,
        hits: Vec<Hit>,
    },
    /// Topology crawl request (the paper's crawler API call).
    CrawlPing,
    /// Crawl response: ultrapeer neighbors and leaf count.
    CrawlPong {
        neighbors: Vec<NodeId>,
        leaves: Vec<NodeId>,
    },
    /// Leaf → ultrapeer: its QRP table — a view of the leaf's share, which
    /// the receiver keeps as is: publishing to N home ultrapeers is 2N
    /// `Arc` bumps, not N table copies. On the wire it is the raw table.
    QrpUpdate {
        view: QrpView,
    },
    /// Leaf → ultrapeer: please run this search for me.
    LeafQuery {
        qid: u32,
        terms: Terms,
    },
    /// Ultrapeer → leaf: results for a LeafQuery (streaming).
    LeafResults {
        qid: u32,
        hits: Vec<Hit>,
        done: bool,
    },
    /// Ultrapeer → leaf: last-hop forwarded query (QRP hit).
    LeafForward {
        guid: Guid,
        terms: Terms,
    },
    /// Leaf → ultrapeer: matches for a forwarded query.
    LeafHits {
        guid: Guid,
        hits: Vec<Hit>,
    },
    /// Fetch a node's full shared-file list (LimeWire's BrowseHost).
    BrowseHost,
    BrowseHostReply {
        files: Vec<FileMeta>,
    },
}

impl GnutellaMsg {
    /// Approximate bytes on the wire, following the Gnutella 0.6 formats:
    /// Query = header + 2 (min speed) + terms + NUL; QueryHit = header +
    /// 11 + per-hit (8 + name + 2) + 16 (servent id); pong-style messages
    /// carry 6 bytes per packed address. Term-list bytes come from the
    /// interned lengths (Σ term bytes + separators — the joined text).
    pub fn wire_size(&self) -> usize {
        match self {
            GnutellaMsg::Query { terms, .. }
            | GnutellaMsg::LeafQuery { terms, .. }
            | GnutellaMsg::LeafForward { terms, .. } => HEADER_BYTES + 2 + terms.wire_len() + 1,
            GnutellaMsg::QueryHit { hits, .. } | GnutellaMsg::LeafResults { hits, .. } => {
                HEADER_BYTES + 11 + hit_bytes(hits) + 16
            }
            GnutellaMsg::LeafHits { hits, .. } => HEADER_BYTES + 11 + hit_bytes(hits),
            GnutellaMsg::CrawlPing => HEADER_BYTES,
            GnutellaMsg::CrawlPong { neighbors, leaves } => {
                HEADER_BYTES + 6 * (neighbors.len() + leaves.len())
            }
            // Real QRP sends a compressed patch; the raw table is a
            // conservative upper bound and what we account (the one place
            // the table's wire size is stated).
            GnutellaMsg::QrpUpdate { .. } => HEADER_BYTES + QrpFilter::DEFAULT_BITS as usize / 8,
            GnutellaMsg::BrowseHost => HEADER_BYTES,
            GnutellaMsg::BrowseHostReply { files } => {
                HEADER_BYTES + files.iter().map(|f| 10 + f.name.len()).sum::<usize>()
            }
        }
    }

    /// Interned metrics class for this message.
    pub fn class(&self) -> MetricClass {
        use crate::classes;
        match self {
            GnutellaMsg::Query { .. } => classes::QUERY.id(),
            GnutellaMsg::QueryHit { .. } => classes::QUERY_HIT.id(),
            GnutellaMsg::CrawlPing => classes::CRAWL_PING.id(),
            GnutellaMsg::CrawlPong { .. } => classes::CRAWL_PONG.id(),
            GnutellaMsg::QrpUpdate { .. } => classes::QRP.id(),
            GnutellaMsg::LeafQuery { .. } => classes::LEAF_QUERY.id(),
            GnutellaMsg::LeafResults { .. } => classes::LEAF_RESULTS.id(),
            GnutellaMsg::LeafForward { .. } => classes::LEAF_FORWARD.id(),
            GnutellaMsg::LeafHits { .. } => classes::LEAF_HITS.id(),
            GnutellaMsg::BrowseHost => classes::BROWSE.id(),
            GnutellaMsg::BrowseHostReply { .. } => classes::BROWSE_REPLY.id(),
        }
    }
}

/// Per-hit bytes of a result message: 8 (index + size) + name + 2 NULs.
fn hit_bytes(hits: &[Hit]) -> usize {
    hits.iter().map(|h| 8 + h.file.name.len() + 2).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_size_tracks_terms() {
        let q = GnutellaMsg::Query { guid: Guid(1), ttl: 3, hops: 0, terms: "led zep".into() };
        assert_eq!(q.wire_size(), 23 + 2 + 7 + 1);
    }

    #[test]
    fn query_hit_size_tracks_hits() {
        let hit = Hit { file: FileMeta::new("abcd.mp3", 9), host: NodeId::new(1) };
        let one = GnutellaMsg::QueryHit { guid: Guid(1), ttl: 7, hits: vec![hit.clone()] };
        let two = GnutellaMsg::QueryHit { guid: Guid(1), ttl: 7, hits: vec![hit.clone(), hit] };
        assert_eq!(two.wire_size() - one.wire_size(), 8 + 8 + 2);
    }

    #[test]
    fn qrp_update_carries_the_raw_default_table() {
        let store = crate::files::FileStore::new(vec![FileMeta::new("abcd.mp3", 9)]);
        let update = GnutellaMsg::QrpUpdate { view: store.qrp_view() };
        assert_eq!(update.wire_size(), 23 + 65_536 / 8);
    }

    #[test]
    fn classes_are_distinct() {
        let msgs = [
            GnutellaMsg::CrawlPing,
            GnutellaMsg::BrowseHost,
            GnutellaMsg::Query { guid: Guid(0), ttl: 1, hops: 0, terms: "".into() },
        ];
        let classes: std::collections::BTreeSet<_> = msgs.iter().map(|m| m.class()).collect();
        assert_eq!(classes.len(), msgs.len());
    }
}
