//! `repro all` is the experiment table, run row by row: every row gets
//! its own `exp.<name>` profile phase (so no wall-clock second of a
//! profiled run is filed under a catch-all), and nothing the table lists
//! is skipped — `horizon` once was, because `all` was a hand-kept list
//! beside the dispatch it was meant to mirror.

use pier_bench::experiments::{run_one, EXPERIMENTS};
use pier_bench::Scale;
use pier_trace::Obs;

#[test]
fn all_runs_every_row_inside_its_own_phase() {
    if cfg!(debug_assertions) {
        eprintln!("registry: skipped (needs --release; ten experiments in debug are too slow)");
        return;
    }
    let obs = Obs::configure(true, 0, false);
    // The loop `repro all` runs.
    let mut titles = Vec::new();
    for exp in &EXPERIMENTS {
        let report = run_one(exp, Scale::Quick, 1, &obs);
        assert!(!report.tables.is_empty(), "{} emitted no table", exp.name);
        titles.extend(report.tables.into_iter().map(|t| t.title));
    }
    assert!(
        titles.iter().any(|t| t.starts_with("Horizon:")),
        "`all` must include the horizon table: {titles:?}"
    );

    let profiler = obs.profiler.as_ref().expect("profiling was requested");
    let elapsed = profiler.elapsed_s();
    let phases = profiler.snapshot();
    for exp in &EXPERIMENTS {
        let name = format!("exp.{}", exp.name);
        let count = phases.iter().find(|(n, _)| *n == name).map(|(_, st)| st.count);
        assert_eq!(count, Some(1), "each row runs once inside its own phase {name:?}");
    }
    // Attribution: the experiment and lab phase families own the run.
    let owned: f64 = phases
        .iter()
        .filter(|(n, _)| n.starts_with("exp.") || n.starts_with("lab."))
        .map(|(_, st)| st.self_s)
        .sum();
    assert!(
        elapsed - owned <= 0.05 * elapsed,
        "only {owned:.2}s of {elapsed:.2}s is owned by an exp.* / lab.* phase"
    );
}
