//! Interned metric classes for the hybrid deployment layer.
#![expect(clippy::disallowed_methods, reason = "the crate's metric classes are registered here")]

pier_netsim::metric_classes! {
    /// DHT traffic misdelivered to a node that only speaks Gnutella.
    pub DHT_MSG_TO_PLAIN_NODE = "hybrid.dht_msg_to_plain_node";
    /// A query still in flight when its hybrid ultrapeer went down.
    pub QUERY_ABANDONED = "hybrid.query_abandoned";
}
