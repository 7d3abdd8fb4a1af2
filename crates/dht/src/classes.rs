//! Interned metric classes for the DHT layer, registered once per process
//! (see `pier_netsim::metric_classes!`). Wire-message classes are resolved
//! by [`crate::DhtMsg::class`]; the rest label protocol-level counters and
//! histograms.

#![expect(clippy::disallowed_methods, reason = "the crate's metric classes are registered here")]

pier_netsim::metric_classes! {
    // Wire messages.
    pub REQ_PING = "dht.req.ping";
    pub REQ_FIND_NODE = "dht.req.find_node";
    pub REQ_STORE = "dht.req.store";
    pub REQ_FIND_VALUE = "dht.req.find_value";
    pub RESP_PONG = "dht.resp.pong";
    pub RESP_NODES = "dht.resp.nodes";
    pub RESP_STORE_ACK = "dht.resp.store_ack";
    pub RESP_VALUES = "dht.resp.values";
    pub ROUTE = "dht.route";
    pub ROUTE_STORE = "dht.route_store";
    pub APP_DIRECT = "dht.app_direct";

    // Protocol-level counters.
    pub ROUTE_HOP_LIMIT_DROP = "dht.route.hop_limit_drop";
    pub STALE_RESPONSE = "dht.stale_response";
    pub RPC_TIMEOUT = "dht.rpc_timeout";
    pub BUCKET_REFRESH = "dht.bucket_refresh";
    pub REVIVE_REJOIN = "dht.revive_rejoin";
    pub REVIVE_ISOLATED = "dht.revive_isolated";

    // Histograms.
    pub ROUTE_HOPS = "dht.route.hops";
    pub ROUTE_STORE_HOPS = "dht.route_store.hops";
    pub LOOKUP_QUERIES = "dht.lookup.queries";
}
