//! Phase profiling, kernel window telemetry, and the progress heartbeat.
//!
//! This is the **only** module in the workspace (outside `pier-bench`'s
//! harness) that may read the wall clock. Nothing here feeds back into the
//! simulation — profiling reads sim state but never touches RNG streams or
//! `Metrics`, so runs are bit-identical with profiling on or off.
#![expect(
    clippy::disallowed_methods,
    reason = "phase timers read the wall clock and feed nothing back into the run"
)]

use pier_netsim::KernelProbe;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Aggregated wall-clock for one named phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStat {
    /// Inclusive time (children counted).
    pub total_s: f64,
    /// Exclusive time (child phases subtracted).
    pub self_s: f64,
    pub count: u64,
}

struct Frame {
    name: String,
    start: Instant,
    child_s: f64,
}

#[derive(Default)]
struct ProfInner {
    stack: Vec<Frame>,
    phases: BTreeMap<String, PhaseStat>,
}

/// A nesting-aware wall-clock phase profiler. Phases are opened with
/// [`Profiler::phase`] and closed by dropping the returned [`PhaseTimer`];
/// self-time is inclusive time minus time spent in nested phases.
///
/// The frame stack assumes LIFO open/close **on one thread** (the lab
/// driver); kernel shards report through [`KernelTelemetry`]
/// instead, which keeps independent per-shard accumulators.
pub struct Profiler {
    t0: Instant,
    inner: Mutex<ProfInner>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler { t0: Instant::now(), inner: Mutex::default() }
    }
}

impl Profiler {
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Open a phase scope; it closes when the returned guard drops.
    pub fn phase(self: &Arc<Self>, name: &str) -> PhaseTimer {
        let mut g = self.inner.lock().expect("profiler poisoned");
        g.stack.push(Frame { name: name.to_string(), start: Instant::now(), child_s: 0.0 });
        PhaseTimer { prof: Arc::clone(self) }
    }

    fn end_phase(&self) {
        let mut g = self.inner.lock().expect("profiler poisoned");
        let Some(frame) = g.stack.pop() else { return };
        let elapsed = frame.start.elapsed().as_secs_f64();
        if let Some(parent) = g.stack.last_mut() {
            parent.child_s += elapsed;
        }
        let stat = g.phases.entry(frame.name).or_default();
        stat.total_s += elapsed;
        stat.self_s += (elapsed - frame.child_s).max(0.0);
        stat.count += 1;
    }

    /// Wall-clock seconds since the profiler was created.
    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// All phase stats, name-sorted.
    pub fn snapshot(&self) -> Vec<(String, PhaseStat)> {
        let g = self.inner.lock().expect("profiler poisoned");
        g.phases.iter().map(|(n, s)| (n.clone(), *s)).collect()
    }
}

/// RAII guard for one open phase. Must drop in LIFO order on the thread that
/// opened it.
pub struct PhaseTimer {
    prof: Arc<Profiler>,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        self.prof.end_phase();
    }
}

/// Per-shard kernel window counters (see [`KernelProbe`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardWindowStats {
    pub windows: u64,
    pub drained: u64,
    pub cross_sends: u64,
    pub barrier_wait_s: f64,
}

struct ShardSlot {
    stats: ShardWindowStats,
    barrier_since: Option<Instant>,
}

struct ProgressState {
    /// Sim-time target in µs, for the ETA estimate (0 = unknown).
    target_us: u64,
    started: Instant,
    last_print: Instant,
    /// Running totals fed by `window_done`, at every shard count.
    events: u64,
    sim_now_us: u64,
}

#[derive(Default)]
struct KtInner {
    shards: BTreeMap<u32, ShardSlot>,
    progress: Option<ProgressState>,
}

/// Receives [`KernelProbe`] callbacks from the sim kernel and accumulates
/// per-shard window telemetry plus the optional `--progress` heartbeat
/// (events/sec, sim-time, ETA on stderr, throttled to every ~2 s).
#[derive(Default)]
pub struct KernelTelemetry {
    inner: Mutex<KtInner>,
}

const HEARTBEAT_SECS: f64 = 2.0;

impl KernelTelemetry {
    pub fn new(progress: bool) -> Self {
        let kt = KernelTelemetry::default();
        if progress {
            let now = Instant::now();
            kt.inner.lock().expect("telemetry poisoned").progress = Some(ProgressState {
                target_us: 0,
                started: now,
                last_print: now,
                events: 0,
                sim_now_us: 0,
            });
        }
        kt
    }

    /// Announce the sim-time deadline of the upcoming run so the heartbeat
    /// can print an ETA.
    pub fn set_progress_target(&self, target_us: u64) {
        if let Some(p) = &mut self.inner.lock().expect("telemetry poisoned").progress {
            p.target_us = target_us;
        }
    }

    /// Per-shard counters, shard-id-sorted.
    pub fn shard_stats(&self) -> Vec<(u32, ShardWindowStats)> {
        let g = self.inner.lock().expect("telemetry poisoned");
        g.shards.iter().map(|(ix, s)| (*ix, s.stats)).collect()
    }

    fn heartbeat(p: &mut ProgressState, now_us: u64, events: u64) {
        p.sim_now_us = p.sim_now_us.max(now_us);
        p.events = p.events.max(events);
        if p.last_print.elapsed().as_secs_f64() < HEARTBEAT_SECS {
            return;
        }
        let wall = p.started.elapsed().as_secs_f64().max(1e-9);
        let rate = p.events as f64 / wall;
        let eta = if p.target_us > p.sim_now_us && p.sim_now_us > 0 {
            let sim_rate = p.sim_now_us as f64 / wall; // sim-µs per wall-second
            let rem = (p.target_us - p.sim_now_us) as f64 / sim_rate.max(1e-9);
            format!("  eta {rem:.0}s")
        } else {
            String::new()
        };
        eprintln!(
            "[progress] sim {:.1}s/{:.1}s  {:.2}M events  {:.2}M ev/s{}",
            p.sim_now_us as f64 / 1e6,
            p.target_us as f64 / 1e6,
            p.events as f64 / 1e6,
            rate / 1e6,
            eta
        );
        p.last_print = Instant::now();
    }
}

impl KernelProbe for KernelTelemetry {
    fn window_done(&self, shard: u32, now_us: u64, drained: u64, cross_sends: u64) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        let slot = g
            .shards
            .entry(shard)
            .or_insert(ShardSlot { stats: ShardWindowStats::default(), barrier_since: None });
        slot.stats.windows += 1;
        slot.stats.drained += drained;
        slot.stats.cross_sends += cross_sends;
        if g.progress.is_some() {
            let total: u64 = g.shards.values().map(|s| s.stats.drained).sum();
            if let Some(p) = &mut g.progress {
                Self::heartbeat(p, now_us, total);
            }
        }
    }

    fn barrier_begin(&self, shard: u32) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        let slot = g
            .shards
            .entry(shard)
            .or_insert(ShardSlot { stats: ShardWindowStats::default(), barrier_since: None });
        slot.barrier_since = Some(Instant::now());
    }

    fn barrier_end(&self, shard: u32) {
        let mut g = self.inner.lock().expect("telemetry poisoned");
        if let Some(slot) = g.shards.get_mut(&shard) {
            if let Some(since) = slot.barrier_since.take() {
                slot.stats.barrier_wait_s += since.elapsed().as_secs_f64();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_phases_split_self_and_total_time() {
        let prof = Arc::new(Profiler::new());
        {
            let _outer = prof.phase("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = prof.phase("inner");
                std::thread::sleep(std::time::Duration::from_millis(8));
            }
        }
        let snap: BTreeMap<String, PhaseStat> = prof.snapshot().into_iter().collect();
        let outer = snap["outer"];
        let inner = snap["inner"];
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_s >= inner.total_s, "outer includes inner");
        assert!(
            outer.self_s <= outer.total_s - inner.total_s + 1e-3,
            "inner time excluded from outer self"
        );
        assert!(inner.self_s > 0.0);
        // Self-times sum to ~the outer total: the coverage invariant the
        // `--profile` acceptance check relies on.
        let self_sum: f64 = snap.values().map(|s| s.self_s).sum();
        assert!(self_sum >= outer.total_s * 0.9);
    }

    #[test]
    fn repeated_phases_accumulate_counts() {
        let prof = Arc::new(Profiler::new());
        for _ in 0..3 {
            let _p = prof.phase("tick");
        }
        let snap = prof.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.count, 3);
    }

    #[test]
    fn kernel_telemetry_accumulates_per_shard() {
        let kt = KernelTelemetry::new(false);
        kt.barrier_begin(0);
        kt.barrier_end(0);
        kt.window_done(0, 1_000, 10, 2);
        kt.window_done(0, 2_000, 5, 1);
        kt.window_done(1, 2_000, 7, 0);
        let stats = kt.shard_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, 0);
        assert_eq!(stats[0].1.windows, 2);
        assert_eq!(stats[0].1.drained, 15);
        assert_eq!(stats[0].1.cross_sends, 3);
        assert!(stats[0].1.barrier_wait_s >= 0.0);
        assert_eq!(stats[1].1.drained, 7);
    }
}
