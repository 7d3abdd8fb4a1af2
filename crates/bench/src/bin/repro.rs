#![forbid(unsafe_code)]
//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all            # every row of the experiment table, in order
//! repro <id>           # one row, by name or alias: fig4 … fig15, crawl,
//!                      # sec5-posting, sec7-deploy, model-params,
//!                      # ablations, horizon, churn, …
//! repro sweep <id> [--trials N] [--jobs J] [--seed S]
//!                      # N seeded trials across J threads, aggregated
//!                      # (mean/stderr/min/max) into results/sweep_*.json
//! ```
//!
//! The experiments are not listed here: `pier_bench::experiments::EXPERIMENTS`
//! is the one table of names, aliases and entry points, and `repro <id>`,
//! `repro all`, `repro sweep` and the "known:" text below all read it.
//! Adding an experiment is one row there.
//!
//! `--scale quick|sparse|full|metro|metro-lite` (anywhere on the command
//! line) selects the workload scale; `--shards S` (also anywhere) runs each
//! simulation on an S-way sharded kernel — outputs are bit-identical for
//! any shard count, only wall-clock time changes, and it composes with
//! sweep `--jobs` (J trial threads × S shard workers each).
//! The scale flag: `metro` is the 1.1M-node single-network run (100k
//! ultrapeers carrying 1M leaves), `metro-lite` the same code path at a
//! CI-smoke size, `full` paper magnitudes, `sparse` the large sparse
//! topology where even new-style vantages see only part of the network;
//! `quick` is the default.
//!
//! Observability (all stat-neutral — pinned outputs are bit-identical with
//! these on or off):
//!
//! * `--profile` — wall-clock phase profile of the run: a self-time-sorted
//!   table on stderr plus `results/profile_<exp>_<scale>.json` (including
//!   per-shard kernel window counters). Each run is one `exp.<name>` phase;
//!   lab stages nest as `lab.*`, experiment stages as `exp.<name>.<stage>`.
//! * `--trace-queries N` — causally trace a deterministic evenly-spaced
//!   sample of N query injections (lab experiments: figs4-7, horizon);
//!   events land in `results/trace_<exp>_<scale>.jsonl`, readable by the
//!   `trace_report` bin.
//! * `--progress` — a ~2 s heartbeat on stderr (sim-time, events/s, ETA).

use pier_bench::experiments::{run_one, Experiment, EXPERIMENTS};
use pier_bench::output;
use pier_bench::sweep::{run_sweep, SweepConfig, DEFAULT_BASE_SEED};
use pier_bench::Scale;
use pier_trace::Obs;

/// Remove a boolean flag (e.g. `--profile`) from the argument list,
/// returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Remove `flag <value>` from the argument list (any position) and parse
/// the value. A flag without a value, or with one `parse` rejects, is a
/// hard error: silently falling back to a default would run something
/// other than what the user asked for.
fn take_value<T>(
    args: &mut Vec<String>,
    flag: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(v) = args.get(i + 1) else {
        eprintln!("{flag} needs a value ({expected})");
        std::process::exit(2);
    };
    let Some(parsed) = parse(v) else {
        eprintln!("bad value for {flag}: '{v}' (expected {expected})");
        std::process::exit(2);
    };
    args.drain(i..=i + 1);
    Some(parsed)
}

/// Decimal or `0x`-prefixed hex (seeds print as hex, so they must
/// round-trip).
fn number(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn positive(v: &str) -> Option<usize> {
    number(v).map(|n| n as usize).filter(|&n| n >= 1)
}

fn run_sweep_cmd(scale: Scale, shards: usize, mut args: Vec<String>) {
    let trials = take_value(&mut args, "--trials", "a positive integer", positive).unwrap_or(4);
    let jobs = take_value(&mut args, "--jobs", "a positive integer", positive)
        .or_else(|| std::thread::available_parallelism().ok().map(|p| p.get()))
        .unwrap_or(1);
    let base_seed = take_value(&mut args, "--seed", "a number, e.g. 4 or 0x5eed", number)
        .unwrap_or(DEFAULT_BASE_SEED);
    let sweepable = |e: &Experiment| e.trial.is_some();
    let Some(exp) = args.first().and_then(|id| Experiment::find(id)).filter(|e| sweepable(e))
    else {
        eprintln!(
            "usage: repro sweep <experiment> [--trials N] [--jobs J] [--seed S] [--shards K]"
        );
        eprintln!("known experiments: {}", Experiment::known(sweepable));
        std::process::exit(2);
    };
    println!(
        "sweep: {} × {trials} trials on {jobs} thread(s) × {shards} shard(s), \
base seed {base_seed:#x}",
        exp.name
    );
    let result = run_sweep(exp, &SweepConfig { scale, trials, jobs, base_seed, shards });
    for t in output::sweep_tables(&result) {
        t.print();
    }
    output::write_sweep_json(&result);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale =
        take_value(&mut args, "--scale", "quick, sparse, full, metro, or metro-lite", Scale::parse)
            .unwrap_or(Scale::Quick);
    let shards = take_value(&mut args, "--shards", "a positive integer", positive).unwrap_or(1);
    let profile = take_flag(&mut args, "--profile");
    let progress = take_flag(&mut args, "--progress");
    let trace_queries =
        take_value(&mut args, "--trace-queries", "a non-negative integer", |v| v.parse().ok())
            .unwrap_or(0);
    let obs = Obs::configure(profile, trace_queries, progress);
    let what = if args.is_empty() { "all".to_string() } else { args.remove(0) };
    println!(
        "repro: running '{what}' at {scale:?} scale, {shards} kernel shard(s) \
(--scale quick|sparse|full|metro|metro-lite, --shards N, --profile, \
--trace-queries N, --progress)"
    );

    let t0 = std::time::Instant::now();
    match (what.as_str(), Experiment::find(&what)) {
        ("all", _) => {
            for exp in &EXPERIMENTS {
                run_one(exp, scale, shards, &obs);
            }
        }
        ("sweep", _) => {
            // Trials run on worker threads, outside the profiler's
            // one-thread phase stack; one phase owns the whole fan-out.
            let _phase = obs.phase("exp.sweep");
            run_sweep_cmd(scale, shards, args);
        }
        (_, Some(exp)) => {
            run_one(exp, scale, shards, &obs);
        }
        (other, None) => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("known: {}, sweep, all", Experiment::known(|_| true));
            std::process::exit(2);
        }
    }
    output::print_profile(&obs);
    output::write_profile_json(&obs, &what, scale);
    if output::write_trace_jsonl(&obs, &what, scale).is_some() {
        println!("    (read with: cargo run -p pier-bench --bin trace_report -- <path>)");
    }
    // The interned-term gauge: the table is append-only and process-wide,
    // so this is the run's whole-vocabulary footprint (guarded against
    // per-token growth by `pier-workload`'s vocab_growth tests).
    println!(
        "\nrepro: done in {:.1}s ({} interned terms)",
        t0.elapsed().as_secs_f64(),
        pier_vocab::vocab_len()
    );
}
