//! # pier-trace — observability for the metro-scale lab
//!
//! Three instruments, all strictly read-only with respect to the simulation:
//!
//! * **Phase profiler** ([`Profiler`]/[`PhaseTimer`]): RAII wall-clock scopes
//!   around lab-build stages, surfaced as `repro --profile`.
//! * **Causal query tracing** ([`Tracer`]/[`TraceHandle`]): a deterministic
//!   sampled subset of queries emits sim-timestamped JSONL events from hooks
//!   in the protocol cores (`repro --trace-queries N`), reconstructed by the
//!   `trace_report` bin via [`report`].
//! * **Kernel telemetry + progress heartbeat** ([`KernelTelemetry`]):
//!   implements `pier_netsim::KernelProbe` to collect per-shard window
//!   counters and print `--progress` heartbeats from them, at every shard
//!   count (one shard reports as shard 0).
//!
//! Determinism: the tracer and reporter are clock-free; all wall-clock reads
//! live in [`profile`], the one module pier-lint's DET-CLOCK rule exempts.
//! No instrument touches RNG streams or `Metrics`, so every pinned statistic
//! is bit-identical with observability on or off.

#![forbid(unsafe_code)]

pub mod profile;
pub mod report;
pub mod trace;

pub use profile::{KernelTelemetry, PhaseStat, PhaseTimer, Profiler, ShardWindowStats};
pub use report::{check_traces, parse_jsonl, render_report, TraceCheck};
pub use trace::{TraceEvent, TraceHandle, TraceId, TraceKind, TraceMeta, Tracer};

use pier_netsim::KernelProbe;
use std::sync::Arc;

/// One run's observability configuration: which instruments are live.
/// `Obs::default()` is fully inert — every accessor is a no-op — so library
/// paths can take `&Obs` unconditionally.
#[derive(Clone, Default)]
pub struct Obs {
    pub profiler: Option<Arc<Profiler>>,
    pub kernel: Option<Arc<KernelTelemetry>>,
    pub tracer: Option<Arc<Tracer>>,
    /// How many queries to sample for tracing (0 = off); the driver picks an
    /// evenly-spaced subset of the replayed trace.
    pub trace_queries: usize,
}

impl Obs {
    /// Build from the `--profile` / `--trace-queries N` / `--progress`
    /// flags. Kernel telemetry is live when profiling (window counters feed
    /// the profile JSON) or when a heartbeat was requested.
    pub fn configure(profile: bool, trace_queries: usize, progress: bool) -> Obs {
        Obs {
            profiler: profile.then(|| Arc::new(Profiler::new())),
            kernel: (profile || progress).then(|| Arc::new(KernelTelemetry::new(progress))),
            tracer: (trace_queries > 0).then(|| Arc::new(Tracer::new())),
            trace_queries,
        }
    }

    /// Open a named phase scope (no-op without `--profile`). Hold the guard
    /// for the duration of the phase:
    /// `let _t = obs.phase("lab.topology");`
    pub fn phase(&self, name: &str) -> Option<PhaseTimer> {
        self.profiler.as_ref().map(|p| p.phase(name))
    }

    /// The kernel probe to install via `Sim::set_probe`, if any.
    pub fn probe(&self) -> Option<Arc<dyn KernelProbe>> {
        self.kernel.as_ref().map(|k| Arc::clone(k) as Arc<dyn KernelProbe>)
    }

    /// The handle protocol cores should hold (inert when tracing is off).
    pub fn trace_handle(&self) -> TraceHandle {
        match &self.tracer {
            Some(t) => TraceHandle::new(Arc::clone(t)),
            None => TraceHandle::default(),
        }
    }

    pub fn is_inert(&self) -> bool {
        self.profiler.is_none() && self.kernel.is_none() && self.tracer.is_none()
    }
}

/// Indices of the evenly-spaced sample of `k` items from `0..total` (all of
/// them when `k >= total`). Deterministic, RNG-free: sampling must not
/// perturb any seeded stream.
pub fn sample_indices(total: usize, k: usize) -> Vec<usize> {
    if k == 0 || total == 0 {
        return Vec::new();
    }
    if k >= total {
        return (0..total).collect();
    }
    // i * total / k for i in 0..k is strictly increasing since k < total.
    (0..k).map(|i| i * total / k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_is_inert() {
        let obs = Obs::default();
        assert!(obs.is_inert());
        assert!(obs.phase("x").is_none());
        assert!(obs.probe().is_none());
        assert!(!obs.trace_handle().is_active());
    }

    #[test]
    fn configure_wires_the_requested_instruments() {
        let obs = Obs::configure(true, 4, false);
        assert!(obs.profiler.is_some());
        assert!(obs.kernel.is_some(), "profiling implies kernel telemetry");
        assert!(obs.tracer.is_some());
        assert!(obs.trace_handle().is_active());
        assert!(obs.probe().is_some());

        let obs = Obs::configure(false, 0, true);
        assert!(obs.profiler.is_none());
        assert!(obs.kernel.is_some(), "progress implies kernel telemetry");
        assert!(obs.tracer.is_none());

        assert!(Obs::configure(false, 0, false).is_inert());
    }

    #[test]
    fn sample_indices_are_evenly_spaced_and_in_range() {
        assert_eq!(sample_indices(10, 0), Vec::<usize>::new());
        assert_eq!(sample_indices(0, 5), Vec::<usize>::new());
        assert_eq!(sample_indices(4, 10), vec![0, 1, 2, 3]);
        let s = sample_indices(100, 4);
        assert_eq!(s, vec![0, 25, 50, 75]);
        let s = sample_indices(7, 3);
        assert_eq!(s, vec![0, 2, 4]);
        // Strictly increasing, in range, exact count.
        let s = sample_indices(1000, 37);
        assert_eq!(s.len(), 37);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(*s.last().unwrap() < 1000);
    }
}
