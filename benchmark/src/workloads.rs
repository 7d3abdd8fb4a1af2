//! The five workloads: their names, their shipped sizes, the `--smoke`
//! sizes, and the one place a name is turned into a driver call.

use crate::drivers::{churn, flood, hybrid, model, Outcome};
use crate::json::{obj, Json};
use crate::spans::Spans;
use pier_bench::experiments::churn::ChurnConfig;
use pier_bench::lab::{LabConfig, Scale};
use pier_netsim::KernelProbe;
use std::sync::Arc;

/// The seed results are recorded at, and a second seed (`--seed held-out`)
/// no change may be tuned on: a claim made with this benchmark must hold on
/// both.
pub const DEFAULT_SEED: u64 = 0x6AB;
pub const HELD_OUT_SEED: u64 = 0x5EED_0B5E;

fn flood_params(seed: u64, shards: usize, smoke: bool) -> flood::FloodParams {
    let lab = if smoke {
        LabConfig::at_sharded(Scale::Quick, seed, shards)
    } else {
        LabConfig {
            ultrapeers: 8_000,
            leaves: 80_000,
            old_style_fraction: 0.6,
            leaf_ups: 2,
            distinct_files: 80_000,
            queries: 2_880,
            vantages: 2,
            mixed_profile_vantages: true,
            seed,
            shards,
        }
    };
    flood::FloodParams { lab, inject_rate_per_s: if smoke { 4.0 } else { 48.0 } }
}

pub fn hybrid_params(smoke: bool) -> hybrid::HybridParams {
    if smoke {
        // `sec7_deploy`'s quick arm.
        hybrid::HybridParams {
            ultrapeers: 100,
            hybrid_ups: 20,
            leaves: 2_000,
            distinct_files: 4_000,
            queries: 120,
        }
    } else {
        // `sec7_deploy`'s metro arm.
        hybrid::HybridParams {
            ultrapeers: 600,
            hybrid_ups: 100,
            leaves: 12_000,
            distinct_files: 24_000,
            queries: 600,
        }
    }
}

pub fn churn_params(smoke: bool) -> ChurnConfig {
    ChurnConfig::at(if smoke { Scale::Quick } else { Scale::Full })
}

pub fn model_params(smoke: bool) -> model::ModelParams {
    if smoke {
        model::ModelParams {
            hosts: 2_000,
            distinct_files: 5_000,
            max_replicas: 200,
            vocab: 1_500,
            phrases: 500,
            queries: 120,
        }
    } else {
        model::ModelParams::quick()
    }
}

/// The seed the drivers run with: the `--seed` itself, except that
/// `model_sweep` picks a steady trace among candidates derived from it
/// (see [`model::steady_seed`]). Generated inputs, not timed.
pub fn input_seed(name: &str, seed: u64, smoke: bool) -> u64 {
    if name == "model_sweep" && !smoke {
        model::steady_seed(&model_params(false), seed)
    } else {
        seed
    }
}

/// Run one repetition of `name` — or, with `setup_only`, just its set-up
/// phase, so cheap set-ups can be timed several times. `probe` is installed
/// on the kernel of the flood workloads (the only ones with a sharded arm
/// to observe).
pub fn run(
    name: &str,
    seed: u64,
    smoke: bool,
    setup_only: bool,
    sp: &mut Spans,
    probe: Option<Arc<dyn KernelProbe>>,
) -> Option<Outcome> {
    Some(match name {
        "flood_replay" => flood::run(&flood_params(seed, 1, smoke), setup_only, sp, probe),
        "flood_replay_s2" => flood::run(&flood_params(seed, 2, smoke), setup_only, sp, probe),
        "hybrid_deploy" => hybrid::run(&hybrid_params(smoke), seed, setup_only, sp),
        "churn_refresh" => churn::run(&churn_params(smoke), seed, setup_only, sp),
        "model_sweep" => model::run(&model_params(smoke), seed, setup_only, sp),
        _ => return None,
    })
}

/// The flood lab config, for the instrumented re-runs of `flood_replay`.
pub fn flood_lab(seed: u64, smoke: bool) -> (LabConfig, f64) {
    let p = flood_params(seed, 1, smoke);
    (p.lab, p.inject_rate_per_s)
}

/// The workload's parameters, for result manifests.
pub fn params_json(name: &str, smoke: bool) -> Json {
    match name {
        "flood_replay" | "flood_replay_s2" => {
            let p = flood_params(0, if name == "flood_replay" { 1 } else { 2 }, smoke);
            obj([
                ("ultrapeers", p.lab.ultrapeers.into()),
                ("leaves", p.lab.leaves.into()),
                ("old_style_fraction", p.lab.old_style_fraction.into()),
                ("leaf_ups", p.lab.leaf_ups.into()),
                ("distinct_files", p.lab.distinct_files.into()),
                ("queries", p.lab.queries.into()),
                ("vantages", p.lab.vantages.into()),
                ("shards", p.lab.shards.into()),
                ("inject_rate_per_s", p.inject_rate_per_s.into()),
            ])
        }
        "hybrid_deploy" => {
            let p = hybrid_params(smoke);
            obj([
                ("ultrapeers", p.ultrapeers.into()),
                ("hybrid_ups", p.hybrid_ups.into()),
                ("leaves", p.leaves.into()),
                ("distinct_files", p.distinct_files.into()),
                ("queries", p.queries.into()),
                ("scheme", "qrs(20)".into()),
            ])
        }
        "churn_refresh" => {
            let p = churn_params(smoke);
            obj([
                ("nodes", p.nodes.into()),
                ("publishers", p.publishers.into()),
                ("files", p.files.into()),
                ("churn_window_s", p.run.as_secs_f64().into()),
                ("refresh_slow_s", p.refresh_slow.as_secs_f64().into()),
                ("refresh_fast_s", p.refresh_fast.as_secs_f64().into()),
                ("arms", 4usize.into()),
            ])
        }
        "model_sweep" => {
            let p = model_params(smoke);
            obj([
                ("hosts", p.hosts.into()),
                ("distinct_files", p.distinct_files.into()),
                ("max_replicas", p.max_replicas.into()),
                ("vocab", p.vocab.into()),
                ("phrases", p.phrases.into()),
                ("queries", p.queries.into()),
            ])
        }
        _ => Json::Null,
    }
}
