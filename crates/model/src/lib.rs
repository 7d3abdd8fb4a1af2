//! # pier-model — the analytical model of §6
//!
//! Pure math, no I/O: Equation (2)'s hypergeometric find-probability for
//! flooding ([`pf_gnutella`]), the notation of Tables 1 and 2 ([`cost`]),
//! trace-driven average QR / QDR evaluation ([`TraceView`]),
//! the §6.2 replica-threshold sweeps behind Figures 9–12 ([`curves`]), and
//! the §6.3 trace-driven comparison of the rare-item publishing schemes —
//! Perfect, Random, TF, TPF, SAM — behind Figures 13–15 ([`schemes`]).
//!
//! Inputs are plain arrays (replica counts, per-query match lists, token
//! lists), so the crate composes with synthetic traces from
//! `pier-workload`, with live simulation output, or with hand-built
//! fixtures in tests.

pub mod cost;
pub mod curves;
mod gnutella_pf;
mod recall;
pub mod schemes;

pub use curves::{pf_threshold_curve, threshold_sweep, PfThresholdPoint, ThresholdSweepPoint};
pub use gnutella_pf::{expected_replica_fraction, pf_gnutella, pf_gnutella_frac};
pub use recall::{PublishedSet, TraceView};
pub use schemes::SchemeInput;
