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
//! or a single experiment by id. The ids, their aliases (`fig4` … `fig15`,
//! `crawl`, `table1`, …) and their entry points are written once, in the
//! table [`experiments::EXPERIMENTS`]: `repro <id>`, `repro all` and
//! `repro sweep` all read it, so adding an experiment is one row. Results
//! print as tables and are written as CSV under `results/`. Pass
//! `--scale full` for paper-magnitude runs (minutes); the default quick
//! scale keeps everything under a few minutes total.
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
