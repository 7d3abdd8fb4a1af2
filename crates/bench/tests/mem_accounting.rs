//! The per-subsystem `HeapSize` accounting behind the benchmark's
//! `netsim.heap_bytes_per_node` row is wired through a built lab, every
//! home ultrapeer's QRP table is a view of its leaf's own id list, and the
//! share catalog stores each distinct file's QRP positions in a few bytes.

use pier_bench::lab::{Lab, LabConfig, Scale, DEFAULT_SEED};
use pier_gnutella::{LeafNode, UltrapeerNode};

#[test]
fn built_lab_accounts_every_node_and_interns_leaf_filters() {
    let cfg = LabConfig::at_seeded(Scale::MetroLite, DEFAULT_SEED);
    let (ultrapeers, leaves) = (cfg.ultrapeers, cfg.leaves);
    let lab = Lab::build_with(cfg, &Default::default());

    let stats = lab.sim.mem_stats();
    assert_eq!(stats.nodes, ultrapeers + leaves);
    assert!(stats.subsystems.get("leaf.share") > 0, "leaves report their share views");
    assert!(stats.subsystems.get("up.qrp") > 0, "ultrapeers report their QRP entries");

    // metro-lite leaves are 2-homed: both ultrapeers view the leaf's own
    // id list, and no ultrapeer holds a table for anyone else.
    let mut views = 0;
    for &id in &lab.handles.leaves {
        let leaf = &lab.sim.actor::<LeafNode>(id).core;
        for &up in leaf.ultrapeers() {
            let up = &lab.sim.actor::<UltrapeerNode>(up).core;
            let view = up.qrp_view(id).expect("QRP propagation ran during the build");
            assert!(view.is_view_of(leaf.store()), "leaf {id:?}: a copy, not a view");
            views += 1;
        }
    }
    let qrp_refs: usize =
        lab.handles.ups.iter().map(|&id| lab.sim.actor::<UltrapeerNode>(id).core.qrp_refs()).sum();
    assert_eq!(qrp_refs, views);
    assert!(views > leaves, "{views} tables over {leaves} leaves");

    // Measured 25.7 B per distinct file here (default seed): ~11 two-byte
    // positions and a 4-byte offset. The ceiling leaves ~20% headroom for
    // catalog drift; four-byte positions (~47 B) would fail it.
    const QRP_BYTES_PER_FILE_MAX: usize = 31;
    let catalog = &lab.share_catalog;
    let per_file = catalog.qrp_heap_bytes() / catalog.len();
    assert!(
        per_file <= QRP_BYTES_PER_FILE_MAX,
        "{per_file} B of QRP positions per distinct file (ceiling {QRP_BYTES_PER_FILE_MAX} B)"
    );
}
