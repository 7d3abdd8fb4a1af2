//! Observability neutrality + trace well-formedness over real experiments.
//!
//! The acceptance properties of `pier-trace`:
//!
//! 1. **Stat-neutrality**: every measured statistic is bit-identical with
//!    profiling, kernel telemetry, and query tracing all live vs. the
//!    unobserved run. The instruments never touch RNG streams or
//!    `Metrics`, and the traced replay injects the exact same events.
//! 2. **Well-formed traces**: every causal trace reconstructs as one
//!    complete flood tree — a single root, every relay hop attached to a
//!    node the query already reached, timestamps non-decreasing down
//!    every edge. Checked here at quick and sparse scales (the two lab
//!    rungs fast enough for the suite) and by a proptest over random
//!    seeds on a small lab.

use pier_bench::experiments::{figs4to7, horizon};
use pier_bench::lab::{LabConfig, DEFAULT_SEED};
use pier_bench::Scale;
use pier_trace::{check_traces, parse_jsonl, Obs, TraceCheck};
use proptest::prelude::*;

/// Round-trip the tracer's buffered events through the JSONL encoding —
/// exactly what `repro --trace-queries` writes and `trace_report` reads —
/// and run the reconstruction checks.
fn checks_of(obs: &Obs) -> Vec<TraceCheck> {
    let tracer = obs.tracer.as_ref().expect("tracing was requested");
    let (metas, events) = parse_jsonl(&tracer.to_jsonl()).expect("tracer emits parseable JSONL");
    check_traces(&metas, &events)
}

fn assert_complete_flood_trees(checks: &[TraceCheck], expect: usize, what: &str) {
    assert_eq!(checks.len(), expect, "{what}: one trace per sampled injection");
    for c in checks {
        assert!(
            c.well_formed(),
            "{what}: trace #{} ({:?}) malformed: roots={} orphan_hops={} time_violations={}",
            c.trace,
            c.terms,
            c.roots,
            c.orphan_hops,
            c.time_violations
        );
        assert!(c.events > 0, "{what}: trace #{} recorded no events", c.trace);
        assert!(c.reached >= 1, "{what}: trace #{} reached no nodes", c.trace);
    }
    // A flood at these scales always leaves the vantage: at least one
    // sampled query must show relays, or the hooks are dead.
    assert!(
        checks.iter().any(|c| c.relays > 0),
        "{what}: no sampled query relayed anywhere — flood hooks not firing"
    );
}

/// figs4–7 at quick scale: the full observability stack on (profiler +
/// kernel telemetry + 8 traced queries) must reproduce the unobserved
/// replay bit for bit — summary stats, fig4 shape, and raw traffic totals.
#[test]
fn quick_figs4to7_stats_are_bit_identical_with_observability_on() {
    let base = horizon::collect(Scale::Quick, DEFAULT_SEED, 1, &Obs::default());
    let obs = Obs::configure(true, 8, false);
    let observed = horizon::collect(Scale::Quick, DEFAULT_SEED, 1, &obs);

    let sb = figs4to7::summary_stats(&base);
    let so = figs4to7::summary_stats(&observed);
    for (name, b, o) in [
        ("le10_single_pct", sb.le10_single_pct, so.le10_single_pct),
        ("zero_single_pct", sb.zero_single_pct, so.zero_single_pct),
        ("zero_union_pct", sb.zero_union_pct, so.zero_union_pct),
        ("reduction_pct", sb.reduction_pct, so.reduction_pct),
    ] {
        assert_eq!(b.to_bits(), o.to_bits(), "{name} moved under observability: {b} vs {o}");
    }
    let (b_small, b_large) = figs4to7::fig4_shape(&figs4to7::fig4_points(&base));
    let (o_small, o_large) = figs4to7::fig4_shape(&figs4to7::fig4_points(&observed));
    assert_eq!(b_small.to_bits(), o_small.to_bits(), "fig4 small-result replication moved");
    assert_eq!(b_large.to_bits(), o_large.to_bits(), "fig4 large-result replication moved");
    assert_eq!(base.metrics.total_messages, observed.metrics.total_messages);
    assert_eq!(base.metrics.total_bytes, observed.metrics.total_bytes);
    assert_eq!(base.events.processed, observed.events.processed);

    // The same observed run must have produced 8 complete flood trees …
    assert_complete_flood_trees(&checks_of(&obs), 8, "quick figs4-7");

    // … and a phase profile whose scopes actually nested around the work.
    let profiler = obs.profiler.as_ref().expect("profiling was requested");
    let phases = profiler.snapshot();
    for needed in ["lab.build", "lab.replay"] {
        assert!(
            phases.iter().any(|(name, st)| name == needed && st.count > 0),
            "missing phase scope {needed:?} in {:?}",
            phases.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
        );
    }
}

/// The horizon experiment at sparse scale — old-style-heavy topology,
/// partial coverage from every vantage — still yields complete flood
/// trees, and its per-profile statistics are unmoved by tracing.
#[test]
fn sparse_horizon_traces_are_complete_flood_trees() {
    let base = horizon::trial(Scale::Sparse, DEFAULT_SEED, 1);
    let obs = Obs::configure(false, 6, false);
    let observed = horizon::summarize(&horizon::collect(Scale::Sparse, DEFAULT_SEED, 1, &obs));
    assert_eq!(base, observed, "sparse horizon summary moved under query tracing");
    assert_complete_flood_trees(&checks_of(&obs), 6, "sparse horizon");
}

/// A lab small enough to replay hundreds of times: the well-formedness
/// property must hold for *every* traced query on *any* seed, not just
/// the default one.
fn tiny_lab(seed: u64) -> LabConfig {
    LabConfig {
        ultrapeers: 24,
        leaves: 120,
        old_style_fraction: 0.5,
        leaf_ups: 2,
        distinct_files: 400,
        queries: 10,
        vantages: 3,
        mixed_profile_vantages: true,
        seed,
        shards: 1,
    }
}

proptest! {
    #[test]
    fn every_trace_is_a_well_formed_tree_on_any_seed(seed in any::<u64>()) {
        // Trace *every* injection (queries × vantages), not a sample: the
        // tree property has to survive overlapping floods and duplicate
        // drops, which dense tracing exercises hardest.
        let obs = Obs::configure(false, usize::MAX, false);
        let _ = horizon::collect_cfg(tiny_lab(seed), 2.0, &obs);
        let checks = checks_of(&obs);
        // One trace per (query, vantage) injection.
        prop_assert_eq!(checks.len(), 10 * 3);
        for c in &checks {
            prop_assert!(
                c.well_formed(),
                "seed {:#x}: trace #{} roots={} orphan_hops={} time_violations={}",
                seed, c.trace, c.roots, c.orphan_hops, c.time_violations
            );
        }
        prop_assert!(checks.iter().any(|c| c.relays > 0));
    }
}
