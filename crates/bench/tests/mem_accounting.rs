//! The per-subsystem `HeapSize` accounting behind the benchmark's
//! `netsim.heap_bytes_per_node` row is wired through a built lab,
//! multihomed leaves share one interned QRP filter, and an interned filter
//! costs what its positions cost plus a small fixed header.

use pier_bench::lab::{Lab, LabConfig, Scale, DEFAULT_SEED};
use pier_gnutella::UltrapeerNode;

#[test]
fn built_lab_accounts_every_node_and_interns_leaf_filters() {
    let cfg = LabConfig::at_seeded(Scale::MetroLite, DEFAULT_SEED);
    let (ultrapeers, leaves) = (cfg.ultrapeers, cfg.leaves);
    let lab = Lab::build_with(cfg, &Default::default());

    let stats = lab.sim.mem_stats();
    assert_eq!(stats.nodes, ultrapeers + leaves);
    assert!(stats.subsystems.get("leaf.share") > 0, "leaves report their share views");
    assert!(stats.subsystems.get("up.qrp") > 0, "ultrapeers report their QRP entries");

    // metro-lite leaves are 2-homed: both ultrapeers hold the same `Arc`.
    let qrp_refs: usize =
        lab.handles.ups.iter().map(|&id| lab.sim.actor::<UltrapeerNode>(id).core.qrp_refs()).sum();
    let catalog = pier_gnutella::qrp_catalog::stats();
    let unique = catalog.unique;
    assert!(unique > 0, "QRP propagation ran during the build");
    assert!(qrp_refs > unique, "{qrp_refs} ultrapeer entries over {unique} distinct filters");

    // Measured 159 B per filter here (default seed): a 32-byte
    // `QrpFilter`, the `Arc`'s two counts, and ~55 two-byte positions.
    // The ceiling leaves ~18% headroom for share-view drift; four-byte
    // positions (~270 B) would fail it.
    const BYTES_PER_FILTER_MAX: usize = 190;
    let per_filter = catalog.bytes / unique;
    assert!(
        per_filter <= BYTES_PER_FILTER_MAX,
        "{per_filter} B per interned filter (ceiling {BYTES_PER_FILTER_MAX} B)"
    );
}
