//! Shard-count determinism over *real* experiments: every trial result
//! must be a pure function of `(scale, seed)` — independent of how many
//! kernel shards the simulation ran on, and independent of how shards
//! compose with sweep `--jobs`. This is the acceptance property of the
//! sharded kernel: `--shards` is a wall-clock knob, never a semantics
//! knob.
//!
//! The mirror of `sweep_determinism.rs` one level down: that file pins
//! trial results against *trial-level* parallelism (worker threads
//! running whole trials); this one pins them against *kernel-level*
//! parallelism (shard workers inside one simulation).

use pier_bench::experiments::{churn, horizon, Experiment};
use pier_bench::lab::{LabConfig, DEFAULT_SEED};
use pier_bench::sweep::{run_sweep, SweepConfig};
use pier_bench::Scale;
use pier_trace::Obs;

/// The full Lab + replay path behind `horizon`: one-, two-, and four-shard
/// kernels must reproduce identical summaries, bit for bit — every
/// statistic, including total traffic and the kernel's own event count.
#[test]
fn horizon_trials_are_bit_identical_across_shard_counts() {
    let base = horizon::trial(Scale::Quick, DEFAULT_SEED, 1);
    for shards in [2usize, 4] {
        let sharded = horizon::trial(Scale::Quick, DEFAULT_SEED, shards);
        assert_eq!(base, sharded, "horizon trial diverged between 1 and {shards} kernel shards");
    }
    assert!(
        base.get("events_processed").expect("kernel accounting stat") > 0.0,
        "the replay must actually exercise the kernel"
    );
}

/// The metro-lite rung with the share-view QRP plane: every leaf's table
/// is a view into the one share catalog, probed from every shard's
/// last-hop loops, so this pins that the shared catalog stays invisible
/// to the schedule — summaries bit-identical across 1/2/4 kernel shards.
/// Lab builds need optimized code, so debug builds skip.
#[test]
fn metro_lite_horizon_is_bit_identical_across_shard_counts() {
    if cfg!(debug_assertions) {
        eprintln!("metro-lite determinism: skipped (needs --release; debug build is too slow)");
        return;
    }
    let summary = |shards: usize| {
        let cfg = LabConfig::at_sharded(Scale::MetroLite, DEFAULT_SEED, shards);
        horizon::summarize(&horizon::collect_cfg(cfg, 3.0, &Obs::default()))
    };
    let base = summary(1);
    for shards in [2usize, 4] {
        assert_eq!(
            base,
            summary(shards),
            "metro-lite horizon diverged between 1 and {shards} kernel shards"
        );
    }
    assert!(
        base.get("events_processed").expect("kernel accounting stat") > 0.0,
        "the replay must actually exercise the kernel"
    );
}

/// The churn experiment: four simulated arms plus the churn driver's
/// set_down/set_up injections per trial. Membership churn crosses shard
/// boundaries constantly, so this is the harshest in-repo workload for
/// the window barrier — results must still be bit-identical.
#[test]
fn churn_trials_are_bit_identical_across_shard_counts() {
    let base = churn::trial(Scale::Quick, DEFAULT_SEED, 1);
    for shards in [2usize, 4] {
        let sharded = churn::trial(Scale::Quick, DEFAULT_SEED, shards);
        assert_eq!(base, sharded, "churn trial diverged between 1 and {shards} kernel shards");
    }
    assert_eq!(base.get("norefresh_monotone"), Some(1.0));
}

/// Shards × jobs composition: a sweep running trials on parallel worker
/// threads, each trial on a multi-shard kernel, must equal the fully
/// sequential sweep (jobs=1, shards=1) — trials, aggregates, and all.
#[test]
fn sharded_parallel_sweep_matches_sequential_unsharded_sweep() {
    let horizon = Experiment::find("horizon").expect("registered");
    let sequential = run_sweep(horizon, &SweepConfig::new(Scale::Quick, 2, 1));
    let composed = run_sweep(horizon, &SweepConfig::new(Scale::Quick, 2, 2).shards(2));
    assert_eq!(
        sequential.trials, composed.trials,
        "jobs=2 × shards=2 must reproduce the jobs=1 × shards=1 sweep bit-for-bit"
    );
    for (s, c) in sequential.aggregates.iter().zip(&composed.aggregates) {
        assert_eq!(s, c, "aggregates must agree when every trial agrees");
    }
}
