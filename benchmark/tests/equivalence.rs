//! Each composed driver equals the experiment it mirrors, bit for bit, at
//! the same parameters and seed — so the benchmark cannot drift from what
//! `repro` runs. Run in release: `cargo test --release`.

use pier_bench::experiments::{churn, figs13to15, figs9to12, horizon, sec7_deploy};
use pier_bench::lab::{LabConfig, Scale};
use pier_bench::sweep::Summary;
use pier_benchmark::drivers::{self, Outcome};
use pier_benchmark::spans::Spans;
use pier_benchmark::workloads;

const SEED: u64 = 0xBEC4;

/// Every key of `trial` must be in the driver's summary with the same bits.
fn assert_same(trial: &Summary, out: &Outcome, keys: Option<&[&str]>) {
    let mine = |k: &str| {
        out.summary
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("driver summary lacks '{k}': {:?}", out.summary))
    };
    for (k, v) in trial.iter().filter(|(k, _)| keys.is_none_or(|ks| ks.contains(k))) {
        assert_eq!(v.to_bits(), mine(k).to_bits(), "'{k}': experiment {v} vs driver {}", mine(k));
    }
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.failed, 0);
}

#[test]
fn flood_driver_equals_the_horizon_experiment() {
    let trial = horizon::trial(Scale::Quick, SEED, 1);
    let params = drivers::flood::FloodParams {
        lab: LabConfig::at_seeded(Scale::Quick, SEED),
        inject_rate_per_s: 2.0,
    };
    // Spans on: recording must not change a single bit either.
    let out = drivers::flood::run(&params, false, &mut Spans::new(true), None);
    assert_same(&trial, &out, None);
    assert_eq!(out.summary.len(), trial.len());
}

#[test]
fn hybrid_driver_equals_sec7_deploy_at_its_metro_arm() {
    let trial = sec7_deploy::trial(Scale::MetroLite, SEED, 1);
    let out =
        drivers::hybrid::run(&workloads::hybrid_params(false), SEED, false, &mut Spans::new(false));
    assert_same(
        &trial,
        &out,
        Some(&[
            "events_processed",
            "files_published",
            "zero_result_reduction_pct",
            "avg_gnutella_first_s",
            "avg_pier_exec_s",
        ]),
    );
}

#[test]
fn churn_driver_equals_the_churn_experiment_at_full_scale() {
    let trial = churn::trial(Scale::Full, SEED, 1);
    let out =
        drivers::churn::run(&workloads::churn_params(false), SEED, false, &mut Spans::new(false));
    assert_same(&trial, &out, None);
    assert_eq!(out.summary.len(), trial.len());
}

#[test]
fn model_driver_equals_both_model_experiments_at_quick_scale() {
    let out =
        drivers::model::run(&workloads::model_params(false), SEED, false, &mut Spans::new(false));
    assert_same(&figs9to12::trial(Scale::Quick, SEED, 1), &out, None);
    assert_same(&figs13to15::trial(Scale::Quick, SEED, 1), &out, None);
}
