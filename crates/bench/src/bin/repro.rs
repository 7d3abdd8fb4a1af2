#![forbid(unsafe_code)]
//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all            # everything
//! repro fig4 … fig15   # a single figure
//! repro sec5-posting   # §5 posting-list replay
//! repro sec7-deploy    # §7 deployment (micro costs + 50-node run)
//! repro crawl          # §4.1 crawl snapshot (also part of fig8)
//! repro model-params   # Tables 1 & 2 glossary
//! repro horizon        # per-vantage zero-result rates (horizon effect)
//! repro churn          # recall under churn (§5 soft-state tradeoff)
//! repro sweep <experiment> [--trials N] [--jobs J] [--seed S]
//!                      # N seeded trials across J threads, aggregated
//!                      # (mean/stderr/min/max) into results/sweep_*.json
//! ```
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
//!   per-shard kernel window counters).
//! * `--trace-queries N` — causally trace a deterministic evenly-spaced
//!   sample of N query injections (lab experiments: figs4-7, horizon);
//!   events land in `results/trace_<exp>_<scale>.jsonl`, readable by the
//!   `trace_report` bin.
//! * `--progress` — a ~2 s heartbeat on stderr (sim-time, events/s, ETA).

use pier_bench::experiments::{
    ablations, churn, fig8, figs13to15, figs4to7, figs9to12, horizon, model_params, sec5_posting,
    sec7_deploy,
};
use pier_bench::output::{self, emit};
use pier_bench::sweep::{run_sweep, Experiment, SweepConfig, DEFAULT_BASE_SEED};
use pier_bench::Scale;
use pier_trace::Obs;

/// Extract `--scale <name>` from the argument list (any position). A
/// present-but-unparseable value is a hard error, mirroring `parse_flag`.
fn parse_scale(args: &mut Vec<String>) -> Option<Scale> {
    let i = args.iter().position(|a| a == "--scale")?;
    let Some(v) = args.get(i + 1) else {
        eprintln!("--scale needs a value (quick|sparse|full|metro|metro-lite)");
        std::process::exit(2);
    };
    match Scale::parse(v) {
        Some(scale) => {
            args.drain(i..=i + 1);
            Some(scale)
        }
        None => {
            eprintln!(
                "bad value for --scale: '{v}' (expected quick, sparse, full, metro, or metro-lite)"
            );
            std::process::exit(2);
        }
    }
}

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

/// Extract `--trace-queries <n>` from the argument list (any position):
/// how many query injections to causally trace (0 = tracing off).
fn parse_trace_queries(args: &mut Vec<String>) -> Option<usize> {
    let i = args.iter().position(|a| a == "--trace-queries")?;
    let Some(v) = args.get(i + 1) else {
        eprintln!("--trace-queries needs a value (how many queries to trace)");
        std::process::exit(2);
    };
    match v.parse::<usize>() {
        Ok(n) => {
            args.drain(i..=i + 1);
            Some(n)
        }
        _ => {
            eprintln!("bad value for --trace-queries: '{v}' (expected a non-negative integer)");
            std::process::exit(2);
        }
    }
}

/// Extract `--shards <n>` from the argument list (any position): the
/// kernel shard count for every simulation this invocation runs. Outputs
/// are bit-identical for any value; this is purely a wall-clock knob.
fn parse_shards(args: &mut Vec<String>) -> Option<usize> {
    let i = args.iter().position(|a| a == "--shards")?;
    let Some(v) = args.get(i + 1) else {
        eprintln!("--shards needs a value (a positive shard count)");
        std::process::exit(2);
    };
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => {
            args.drain(i..=i + 1);
            Some(n)
        }
        _ => {
            eprintln!("bad value for --shards: '{v}' (expected a positive integer)");
            std::process::exit(2);
        }
    }
}

/// Value of `flag`, accepting decimal or `0x`-prefixed hex (seeds print
/// as hex, so they must round-trip). A present-but-unparseable value is a
/// hard error: silently falling back to a default would run a different
/// sweep than the user asked for.
fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(v) = args.get(i + 1) else {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    };
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    match parsed {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("bad value for {flag}: '{v}' (expected a number, e.g. 4 or 0x5eed)");
            std::process::exit(2);
        }
    }
}

fn run_sweep_cmd(scale: Scale, shards: usize, args: &[String]) {
    let Some(exp) = args.first().and_then(|name| Experiment::parse(name)) else {
        eprintln!(
            "usage: repro sweep <experiment> [--trials N] [--jobs J] [--seed S] [--shards K]"
        );
        let known: Vec<&str> = Experiment::ALL.iter().map(|e| e.name()).collect();
        eprintln!("known experiments: {}", known.join(", "));
        std::process::exit(2);
    };
    let trials = parse_flag(args, "--trials").unwrap_or(4) as usize;
    let jobs = parse_flag(args, "--jobs")
        .map(|j| j as usize)
        .or_else(|| std::thread::available_parallelism().ok().map(|p| p.get()))
        .unwrap_or(1);
    let base_seed = parse_flag(args, "--seed").unwrap_or(DEFAULT_BASE_SEED);
    if trials == 0 {
        eprintln!("--trials must be ≥ 1");
        std::process::exit(2);
    }
    println!(
        "sweep: {} × {trials} trials on {jobs} thread(s) × {shards} shard(s), \
base seed {base_seed:#x}",
        exp.name()
    );
    let result = run_sweep(exp, &SweepConfig { scale, trials, jobs, base_seed, shards });
    for t in output::sweep_tables(&result) {
        t.print();
    }
    match output::write_sweep_json(&result) {
        Ok(path) => println!("  → {}", path.display()),
        Err(e) => eprintln!("  (json write failed: {e})"),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = parse_scale(&mut args).unwrap_or(Scale::Quick);
    let shards = parse_shards(&mut args).unwrap_or(1);
    let profile = take_flag(&mut args, "--profile");
    let progress = take_flag(&mut args, "--progress");
    let trace_queries = parse_trace_queries(&mut args).unwrap_or(0);
    let obs = Obs::configure(profile, trace_queries, progress);
    let what = args.first().map(String::as_str).unwrap_or("all");
    println!(
        "repro: running '{what}' at {scale:?} scale, {shards} kernel shard(s) \
(--scale quick|sparse|full|metro|metro-lite, --shards N, --profile, \
--trace-queries N, --progress)"
    );

    let t0 = std::time::Instant::now();
    // One phase around the whole dispatch: with `--profile`, phase
    // self-times then account for (almost) every wall-clock second the
    // run spends, nested lab phases included.
    let dispatch_phase = obs.phase(&format!("exp.{what}"));
    match what {
        "fig4" | "fig5" | "fig6" | "fig7" | "figs4-7" => {
            emit(&figs4to7::run(scale, shards, &obs), "figs4to7");
        }
        "fig8" | "crawl" => {
            emit(&fig8::run(scale, shards).tables, "fig8");
        }
        "fig9" | "fig10" | "fig11" | "fig12" | "figs9-12" => {
            emit(&figs9to12::run(scale), "figs9to12");
        }
        "fig13" | "fig14" | "fig15" | "figs13-15" => {
            emit(&figs13to15::run(scale), "figs13to15");
        }
        "sec5-posting" => {
            emit(&sec5_posting::run(scale), "sec5_posting");
        }
        "sec7-deploy" => {
            emit(&sec7_deploy::run(scale, shards).tables, "sec7_deploy");
        }
        "model-params" | "table1" | "table2" => {
            emit(&model_params(), "model_params");
        }
        "ablations" | "ablation-timeout" => {
            emit(&ablations::run(scale, shards), "ablations");
        }
        "horizon" | "sparse" => {
            emit(&horizon::run(scale, shards, &obs), "horizon");
        }
        "churn" => {
            emit(&churn::run(scale, shards), "churn");
        }
        "sweep" => {
            run_sweep_cmd(scale, shards, &args[1..]);
        }
        "all" => {
            emit(&figs4to7::run(scale, shards, &obs), "figs4to7");
            emit(&fig8::run(scale, shards).tables, "fig8");
            emit(&figs9to12::run(scale), "figs9to12");
            emit(&figs13to15::run(scale), "figs13to15");
            emit(&sec5_posting::run(scale), "sec5_posting");
            emit(&sec7_deploy::run(scale, shards).tables, "sec7_deploy");
            emit(&model_params(), "model_params");
            emit(&ablations::run(scale, shards), "ablations");
            emit(&churn::run(scale, shards), "churn");
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "known: fig4..fig15, fig8, crawl, sec5-posting, sec7-deploy, model-params, \
                 ablations, horizon, churn, sweep, all"
            );
            std::process::exit(2);
        }
    }
    drop(dispatch_phase);
    output::print_profile(&obs);
    match output::write_profile_json(&obs, what, scale) {
        Ok(Some(path)) => println!("  → {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("  (profile json write failed: {e})"),
    }
    match output::write_trace_jsonl(&obs, what, scale) {
        Ok(Some(path)) => println!(
            "  → {} (read with: cargo run -p pier-bench --bin trace_report -- <path>)",
            path.display()
        ),
        Ok(None) => {}
        Err(e) => eprintln!("  (trace jsonl write failed: {e})"),
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
