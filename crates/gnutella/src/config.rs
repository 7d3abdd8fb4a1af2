//! Per-ultrapeer parameters: the degree profile that tells the crawl's two
//! LimeWire generations apart, and the few limits the tests turn down to
//! reach hit chunking, early finish and lazy expiry at small sizes.
//! LimeWire's fixed dynamic-querying constants (probe and deep TTLs, probe
//! pacing, the maintenance tick) are `const`s beside the code that reads
//! them, in `ultrapeer.rs` and `node.rs`.

use pier_netsim::SimDuration;

/// Ultrapeer behaviour knobs. Defaults follow the crawl findings in §4.1 of
/// the paper (newer LimeWire ultrapeers: 30 leaves, 32 ultrapeer
/// neighbors) and LimeWire's dynamic-querying constants.
#[derive(Clone, Debug)]
pub struct UltrapeerConfig {
    /// Maximum leaf connections.
    pub max_leaves: usize,
    /// Target ultrapeer degree.
    pub up_neighbors: usize,
    /// How many neighbors receive the initial probe. The rest are reached
    /// one at a time by deeper probes; a probed neighbor has already seen
    /// the GUID and never relays, so probing everyone up front would
    /// blind the deep phase.
    pub probe_neighbors: usize,
    /// Stop a dynamic query once this many results arrived.
    pub target_results: usize,
    /// Seen-GUID table entries expire after this long. Expiry is exact
    /// below 2³² µs (≈ 71.6 min), the span of the table's `u32` stamps.
    pub seen_ttl: SimDuration,
    /// Cap on hits per QueryHit message (the protocol's 255 limit, lowered
    /// keeps messages realistic).
    pub max_hits_per_msg: usize,
}

impl Default for UltrapeerConfig {
    fn default() -> Self {
        UltrapeerConfig {
            max_leaves: 30,
            up_neighbors: 32,
            probe_neighbors: 10,
            target_results: 150,
            seen_ttl: SimDuration::from_secs(120),
            max_hits_per_msg: 64,
        }
    }
}

impl UltrapeerConfig {
    /// The older LimeWire profile the crawl also observed: 75 leaves,
    /// 6 ultrapeer neighbors.
    pub fn old_style() -> Self {
        UltrapeerConfig { max_leaves: 75, up_neighbors: 6, ..Default::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ultrapeer::PROBE_INTERVAL;

    #[test]
    fn defaults_match_crawl_findings() {
        let c = UltrapeerConfig::default();
        assert_eq!(c.max_leaves, 30);
        assert_eq!(c.up_neighbors, 32);
        let old = UltrapeerConfig::old_style();
        assert_eq!(old.max_leaves, 75);
        assert_eq!(old.up_neighbors, 6);
    }

    #[test]
    fn pacing_dominates_latency_budget() {
        // 32 neighbors at 2.4 s pacing ≈ 77 s worst case — the order of the
        // paper's 73 s single-result latency.
        let c = UltrapeerConfig::default();
        let worst = PROBE_INTERVAL.as_secs_f64() * c.up_neighbors as f64;
        assert!((60.0..100.0).contains(&worst));
    }
}
