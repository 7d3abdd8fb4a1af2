//! Workspace determinism smoke test: two simulations built from the same
//! master seed must produce bit-identical metrics — the contract netsim
//! promises ("seeded deterministically, keeps whole-simulation runs
//! bit-reproducible") and every experiment in `pier-bench` relies on.
//!
//! This drives the *Gnutella* stack (topology generation, QRP propagation,
//! dynamic querying), complementing `integration.rs`'s DHT-side
//! determinism check, and compares the complete metrics counter map.

use pier_p2p::gnutella::{spawn, FileMeta, QueryOrigin, Topology, TopologyConfig, UltrapeerNode};
use pier_p2p::netsim::{Sim, SimConfig, SimDuration, UniformLatency};

/// Build a small Gnutella network, run queries, and return every metrics
/// counter the run produced: `(class, count, bytes)` in a canonical order.
fn run_and_snapshot(seed: u64) -> Vec<(&'static str, u64, u64)> {
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: 24,
        leaves: 240,
        old_style_fraction: 0.3,
        leaf_ups: 2,
        seed,
    });
    let leaf_files: Vec<Vec<FileMeta>> = (0..topo.leaf_count())
        .map(|j| {
            // A few deterministic shares per leaf; filenames overlap across
            // leaves so queries have replicated answers.
            (0..3)
                .map(|k| {
                    FileMeta::new(
                        &format!("shared track {:03}.mp3", (j + k * 7) % 40),
                        1_000 + j as u64,
                    )
                })
                .collect()
        })
        .collect();
    let cfg = SimConfig::with_seed(seed)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim = Sim::new(cfg);
    let handles = spawn(&mut sim, &topo, vec![Vec::new(); topo.ultrapeer_count()], leaf_files);
    sim.run_for(SimDuration::from_secs(3)); // QRP propagation

    for (i, &up) in handles.ups.iter().enumerate().take(8) {
        let terms = format!("shared track {:03}", (i * 5) % 40);
        sim.with_actor_ctx::<UltrapeerNode, _>(up, |node, ctx| {
            let mut net = pier_p2p::gnutella::CtxGnutellaNet { ctx };
            node.core.start_query(&mut net, &terms, QueryOrigin::Driver)
        });
        sim.run_for(SimDuration::from_secs(2));
    }
    sim.run_for(SimDuration::from_secs(60));

    let mut counters: Vec<(&'static str, u64, u64)> =
        sim.metrics().counters().map(|(class, c)| (class, c.count, c.bytes)).collect();
    counters.sort_unstable();
    assert!(!counters.is_empty(), "the run must produce traffic");
    counters
}

#[test]
fn same_master_seed_is_bit_reproducible() {
    let a = run_and_snapshot(0xD5_7E_11);
    let b = run_and_snapshot(0xD5_7E_11);
    assert_eq!(a, b, "identical seeds must reproduce every counter exactly");
}

/// Build the sparse lab preset and drive a short query workload through
/// it, returning the full metrics snapshot.
fn sparse_run_and_snapshot() -> Vec<(&'static str, u64, u64)> {
    use pier_bench::lab::{Lab, LabConfig, Scale};
    let mut lab = Lab::build_with(LabConfig::at(Scale::Sparse), &Default::default());
    let vantages = lab.vantages.clone();
    for (i, &v) in vantages.iter().enumerate().take(6) {
        let terms = lab.trace.queries[i].text();
        lab.sim.with_actor_ctx::<UltrapeerNode, _>(v, |node, ctx| {
            let mut net = pier_p2p::gnutella::CtxGnutellaNet { ctx };
            node.core.start_query(&mut net, &terms, QueryOrigin::Driver)
        });
        lab.sim.run_for(pier_p2p::netsim::SimDuration::from_secs(2));
    }
    lab.sim.run_for(pier_p2p::netsim::SimDuration::from_secs(60));

    let mut counters: Vec<(&'static str, u64, u64)> =
        lab.sim.metrics().counters().map(|(class, c)| (class, c.count, c.bytes)).collect();
    counters.sort_unstable();
    assert!(!counters.is_empty(), "the sparse run must produce traffic");
    counters
}

/// The interning refactor must not perturb RNG streams or event ordering:
/// two identically-seeded sparse-preset runs produce bit-identical
/// metrics snapshots.
#[test]
fn sparse_preset_is_bit_reproducible() {
    let a = sparse_run_and_snapshot();
    let b = sparse_run_and_snapshot();
    assert_eq!(a, b, "sparse preset must reproduce every counter exactly");
}

/// Golden pins for the figs4–7 quick-scale trial at the default seed,
/// captured from the pre-interning (string-keyed) implementation. The
/// term-interning refactor is a pure renaming (string ↔ id), so every
/// statistic — including total traffic accounting — must reproduce these
/// values bit-for-bit. A legitimate workload change must update the pins
/// and say why.
#[test]
fn figs4to7_quick_summary_matches_golden_values() {
    use pier_bench::experiments::figs4to7;
    use pier_bench::lab::DEFAULT_SEED;
    use pier_bench::Scale;

    let summary = figs4to7::trial(Scale::Quick, DEFAULT_SEED, 1);
    let golden: [(&str, f64); 8] = [
        ("le10_single_pct", 43.9375),
        ("zero_single", 13.6875),
        ("zero_union", 4.375),
        ("reduction_pct", 68.03652968036529),
        ("fig4_small_result_rep", 4.865089792923048),
        ("fig4_large_result_rep", 11.196654163094017),
        ("total_messages", 590_553.0),
        ("total_bytes", 78_668_586.0),
    ];
    for (key, want) in golden {
        let got = summary.get(key).unwrap_or_else(|| panic!("stat {key} missing"));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "stat {key} drifted from the pre-interning golden value: {got} != {want}"
        );
    }
}

/// Golden pins for the §7 deployment's quick-scale trial at the default
/// seed: the whole hybrid stack (hybrid ultrapeers, stock Gnutella
/// ultrapeers and leaves, DHT, PIER, PIERSearch) on one union network,
/// plus the two micro-cost DHTs. Pure refactors of any of those layers
/// must reproduce every statistic, and the kernel's event count, bit for
/// bit. A legitimate behaviour change must update the pins and say why.
#[test]
fn sec7_deploy_quick_summary_matches_golden_values() {
    use pier_bench::experiments::sec7_deploy;
    use pier_bench::lab::DEFAULT_SEED;
    use pier_bench::Scale;

    let summary = sec7_deploy::trial(Scale::Quick, DEFAULT_SEED, 1);
    let golden: [(&str, f64); 10] = [
        ("zero_result_reduction_pct", 4.761904761904762),
        ("avg_gnutella_first_s", 0.8689863535353539),
        ("avg_pier_exec_s", 0.407182),
        ("publish_bytes_plain", 1369.6833333333334),
        ("publish_bytes_cache", 1636.5333333333333),
        ("query_bytes_plain", 21449.04),
        ("query_bytes_cache", 327.88),
        ("files_published", 1406.0),
        ("pier_beats_gnutella_latency", 1.0),
        ("events_processed", 358_204.0),
    ];
    assert_eq!(summary.len(), golden.len(), "every trial statistic is pinned");
    for (key, want) in golden {
        let got = summary.get(key).unwrap_or_else(|| panic!("stat {key} missing"));
        assert_eq!(got.to_bits(), want.to_bits(), "stat {key} drifted: {got} != {want}");
    }
}

/// Golden pins for the ablations' quick-scale trial at the default seed:
/// the Gnutella-timeout sweep of hybrid deployments (BrowseHost indexing,
/// rate-limited publishing, PIER fallback) and the flat TTL flood against
/// dynamic querying. Every statistic must reproduce bit for bit.
#[test]
fn ablations_quick_summary_matches_golden_values() {
    use pier_bench::experiments::ablations;
    use pier_bench::lab::DEFAULT_SEED;
    use pier_bench::Scale;

    let summary = ablations::trial(Scale::Quick, DEFAULT_SEED, 1);
    let golden: [(&str, f64); 8] = [
        ("dht_pct_at_min_timeout", 11.666666666666666),
        ("dht_pct_at_max_timeout", 11.666666666666666),
        ("first_result_s_at_min_timeout", 0.39086477358490557),
        ("first_result_s_at_max_timeout", 2.211599654545454),
        ("found_pct_min", 88.33333333333333),
        ("flood_popular_msgs", 3089.0),
        ("dynamic_popular_msgs", 16.0),
        ("flood_over_dynamic_popular", 193.0625),
    ];
    assert_eq!(summary.len(), golden.len(), "every trial statistic is pinned");
    for (key, want) in golden {
        let got = summary.get(key).unwrap_or_else(|| panic!("stat {key} missing"));
        assert_eq!(got.to_bits(), want.to_bits(), "stat {key} drifted: {got} != {want}");
    }
}

/// Golden pins for the churn experiment's quick-scale trial at the default
/// seed: catalog generation, PIERSearch publishing and soft-state refresh,
/// PIER query timeouts and DHT wire accounting, all under node churn.
/// Every statistic, and the kernel's event count, must reproduce bit for
/// bit.
#[test]
fn churn_quick_summary_matches_golden_values() {
    use pier_bench::experiments::churn;
    use pier_bench::lab::DEFAULT_SEED;
    use pier_bench::Scale;

    let summary = churn::trial(Scale::Quick, DEFAULT_SEED, 1);
    let golden: [(&str, f64); 14] = [
        ("recall_static_end", 1.0),
        ("recall_norefresh_end", 0.19),
        ("recall_refresh_slow_end", 1.0),
        ("recall_refresh_fast_end", 1.0),
        ("norefresh_monotone", 1.0),
        ("refresh_fast_over_static", 1.0),
        ("fetch_recall_norefresh", 0.19),
        ("fetch_recall_refresh_fast", 1.0),
        ("publish_kib_node_min_norefresh", 0.0),
        ("publish_kib_node_min_refresh_slow", 4.3724295479910715),
        ("publish_kib_node_min_refresh_fast", 8.748517717633929),
        ("total_messages", 377_605.0),
        ("total_bytes", 49_427_921.0),
        ("events_processed", 646_560.0),
    ];
    assert_eq!(summary.len(), golden.len(), "every trial statistic is pinned");
    for (key, want) in golden {
        let got = summary.get(key).unwrap_or_else(|| panic!("stat {key} missing"));
        assert_eq!(got.to_bits(), want.to_bits(), "stat {key} drifted: {got} != {want}");
    }
}

#[test]
fn different_master_seed_diverges() {
    let a = run_and_snapshot(1);
    let b = run_and_snapshot(2);
    // Topology, latencies, and query GUIDs all differ; at least one
    // counter (message counts/bytes) must differ too.
    assert_ne!(a, b, "different seeds should not collide on every metric");
}
