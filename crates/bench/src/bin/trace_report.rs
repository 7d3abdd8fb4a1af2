//! `trace_report` — reconstruct and check the causal query traces written
//! by `repro --trace-queries N` (`results/trace_<exp>_<scale>.jsonl`).
//!
//! For each sampled query: the flood tree (ultrapeers reached, relay depth,
//! dup-drops), QRP screening totals, leaf matches and hit flow, and any
//! PIERSearch fallback with its DHT lookup hops. Exits non-zero when the
//! file is unparseable or any trace is malformed (multiple roots, orphan
//! hops, or a relay timestamped before its parent).

use pier_trace::{check_traces, parse_jsonl, render_report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_report <trace.jsonl>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_report: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let (metas, events) = match parse_jsonl(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("trace_report: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let checks = check_traces(&metas, &events);
    print!("{}", render_report(&checks));
    let malformed = checks.iter().filter(|c| !c.well_formed()).count();
    println!("{} traces, {} events, {} malformed", checks.len(), events.len(), malformed);
    if malformed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
