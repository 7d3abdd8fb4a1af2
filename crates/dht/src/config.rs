//! DHT tuning parameters. The routed-message hop limit and the per-message
//! header bytes are fixed `const`s in `core.rs`, beside the code that
//! reads them.

use pier_netsim::SimDuration;

/// Kademlia-style overlay parameters. Defaults follow the original paper's
/// recommendations (k = 20, α = 3) scaled for simulation.
#[derive(Clone, Debug)]
pub struct DhtConfig {
    /// Bucket capacity and the size of lookup result sets.
    pub k: usize,
    /// Lookup parallelism (in-flight FIND_NODE RPCs per lookup).
    pub alpha: usize,
    /// How many of the closest nodes receive a copy of each stored value.
    pub replication: usize,
    /// Round-trip timeout for one RPC before it counts as failed.
    pub rpc_timeout: SimDuration,
    /// Default lifetime of stored values. The core never re-pushes a
    /// value: keeping one alive is the publisher's job (PIERSearch's
    /// `Publisher::refresh_interval`, which only the churn experiment sets).
    pub value_ttl: SimDuration,
    /// Interval of the periodic maintenance tick (RPC timeout sweep,
    /// bucket refresh, value expiry).
    pub tick: SimDuration,
    /// Refresh a bucket if it has not seen traffic for this long.
    pub bucket_refresh: SimDuration,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            k: 20,
            alpha: 3,
            replication: 1,
            rpc_timeout: SimDuration::from_secs(2),
            value_ttl: SimDuration::from_secs(3600),
            tick: SimDuration::from_millis(500),
            bucket_refresh: SimDuration::from_secs(600),
        }
    }
}

impl DhtConfig {
    /// A configuration suited to small unit-test networks: tighter timers,
    /// small buckets, so convergence happens within a short virtual time.
    pub fn test() -> Self {
        DhtConfig {
            k: 8,
            alpha: 3,
            replication: 2,
            rpc_timeout: SimDuration::from_millis(800),
            value_ttl: SimDuration::from_secs(120),
            tick: SimDuration::from_millis(200),
            bucket_refresh: SimDuration::from_secs(30),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = DhtConfig::default();
        assert!(c.alpha <= c.k);
        assert!(c.replication <= c.k);
        assert!(c.tick < c.rpc_timeout);
        assert!(c.rpc_timeout < c.value_ttl);
    }

    #[test]
    fn test_profile_sane() {
        let c = DhtConfig::test();
        assert!(c.alpha <= c.k);
        assert!(c.replication <= c.k);
    }
}
