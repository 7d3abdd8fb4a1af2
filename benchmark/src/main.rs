//! Command line of the benchmark. See `README.md`.

use pier_benchmark::rep::Instrument;
use pier_benchmark::run::{self, Options};
use pier_benchmark::spec::Spec;
use pier_benchmark::{compare, rep, workloads};
use std::process::ExitCode;

const USAGE: &str = "\
usage:
  pier-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
      one workload; the last line printed is the result as JSON
      (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
  pier-benchmark all [--seed N] [--seconds S] [--smoke]
      every workload, end to end and traced; prints every metric and
      writes benchmark/out/results_<seed>.json
      (--seed takes decimal, 0x-hex, or `held-out`)
  pier-benchmark compare <a.json> <b.json>
      apply BENCHMARK.json's bounds to two result files; exit 1 on any worse";

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    instrument: Option<Instrument>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        instrument: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                let parsed = match v.strip_prefix("0x") {
                    _ if v == "held-out" => Some(workloads::HELD_OUT_SEED),
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => v.parse().ok(),
                };
                args.seed = parsed.ok_or_else(|| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                args.seconds = Some(v.parse().map_err(|_| format!("bad --seconds '{v}'"))?);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace '{v}' (0 or 1)")),
                };
            }
            "--smoke" => args.smoke = true,
            "--instrument" => {
                let v = value("--instrument")?;
                args.instrument =
                    Some(Instrument::parse(&v).ok_or_else(|| format!("bad --instrument '{v}'"))?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ if args.command.is_none() => args.command = Some(a),
            _ => args.positional.push(a),
        }
    }
    Ok(args)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    // The child side: one repetition in this process.
    if args.command.as_deref() == Some("rep") {
        let workload = args.workload.as_deref().ok_or("rep needs --workload")?;
        match args.instrument {
            Some(i) => rep::run_instrumented(args.seed, args.smoke, i)?,
            None => rep::run(workload, args.seed, args.trace, args.smoke)?,
        }
        return Ok(true);
    }
    let spec = Spec::load()?;
    let opts = Options {
        seed: args.seed,
        // A smoke run is one repetition per workload unless told otherwise.
        seconds: args.seconds.unwrap_or(if args.smoke { 0.0 } else { spec.run_seconds }),
        smoke: args.smoke,
    };
    match (args.command.as_deref(), args.workload.as_deref()) {
        (Some("compare"), _) => match args.positional.as_slice() {
            [a, b] => compare::run(&spec, a, b),
            _ => Err("compare needs two result files".to_string()),
        },
        (Some("all"), _) => run::all(&spec, opts),
        (None, Some(workload)) => {
            if !spec.workloads.iter().any(|w| w == workload) {
                return Err(format!("unknown workload '{workload}' (known: {:?})", spec.workloads));
            }
            let result = if args.trace {
                run::per_layer_result(&spec, workload, opts)?
            } else {
                run::end_to_end_result(&spec, workload, opts)?
            };
            println!("{}", result.to_line());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
