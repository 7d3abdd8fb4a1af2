#![forbid(unsafe_code)]
//! # pier-benchmark — one benchmark for the whole stack
//!
//! Five workloads, each composed from the layers' public functions and
//! measured from outside; end-to-end metrics from untraced repetitions in
//! fresh processes; a per-layer ledger (span self-times, public counters,
//! micro-probes) from one traced repetition. `BENCHMARK.json` at the
//! repository root names every metric; see `README.md` here for what each
//! means and which end-to-end metric each layer row should move.

pub mod compare;
pub mod drivers;
pub mod json;
pub mod manifest;
pub mod probes;
pub mod rep;
pub mod run;
pub mod spans;
pub mod spec;
pub mod workloads;
