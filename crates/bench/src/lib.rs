#![forbid(unsafe_code)]
//! # pier-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation. Run
//! everything with
//!
//! ```text
//! cargo run -p pier-bench --release --bin repro -- all
//! ```
//!
//! or a single experiment by id (`fig4` … `fig15`, `fig8`, `sec5-posting`,
//! `sec7-deploy`, `model-params`, `crawl`). Results print as tables and are
//! written as CSV under `results/`. Pass `--scale full` for
//! paper-magnitude runs (minutes); the default quick scale keeps
//! everything under a few minutes total.
//!
//! For multi-seed statistics (mean ± stderr error bars), every experiment
//! can run as a parallel sweep:
//!
//! ```text
//! cargo run -p pier-bench --release --bin repro -- sweep horizon --trials 4 --jobs 4
//! ```
//!
//! See [`sweep`] for the trial/aggregation machinery and [`output`] for
//! table/CSV/JSON emission.

pub mod experiments;
pub mod floodbench;
pub mod lab;
pub mod output;
pub mod sweep;

pub use lab::Scale;

/// Print one kernel-throughput line for an experiment `run()`: events
/// processed, wall time, events/sec, shard count. Only `run()` paths call
/// this — `trial()` must stay print-free so parallel sweep workers don't
/// interleave output.
pub fn report_kernel_rate(
    name: &str,
    events: pier_netsim::EventStats,
    shards: usize,
    elapsed: std::time::Duration,
) {
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "  {name}: {} kernel events in {secs:.2}s ({:.0} events/s, {shards} shard(s), \
peak {} pending)",
        events.processed,
        events.processed as f64 / secs,
        events.peak_pending,
    );
}
