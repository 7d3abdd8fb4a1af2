//! Kernel observation hooks.
//!
//! The sim kernel is strictly deterministic and wall-clock-free (pier-lint
//! DET-CLOCK), but observability wants wall-clock window telemetry. The
//! inversion: netsim defines this trait and calls it at well-defined kernel
//! points; the implementation (with its `Instant` reads) lives in
//! `pier-trace`'s profiling module, the one place the lint config grants a
//! clock. Probes are strictly read-only — they receive already-computed
//! counters and must not (and cannot, through this interface) feed anything
//! back into the simulation, so installing one cannot perturb any statistic.
//!
//! All methods have empty defaults; a probe implements only what it needs.

/// Observer for kernel execution. Installed with `Sim::set_probe`; called
/// by every shard at every shard count — shard 0 on the thread that called
/// `run_*`, shards `1..n` on scoped workers — so implementations must be
/// `Send + Sync` and should be cheap (a few calls per window, never per
/// event).
pub trait KernelProbe: Send + Sync {
    /// One shard finished draining one lockstep window. `now_us` is the
    /// shard's local clock after the window; `drained` / `cross_sends` are
    /// the events popped and cross-shard mails produced in this window.
    fn window_done(&self, shard: u32, now_us: u64, drained: u64, cross_sends: u64) {
        let _ = (shard, now_us, drained, cross_sends);
    }

    /// A shard is about to block on the window barrier…
    fn barrier_begin(&self, shard: u32) {
        let _ = shard;
    }

    /// …and has been released from it. The wall-clock between the two calls
    /// is time the shard spent waiting on its slowest peer (zero at one
    /// shard, which has no peer and skips the barrier).
    fn barrier_end(&self, shard: u32) {
        let _ = shard;
    }
}
