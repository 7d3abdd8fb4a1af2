//! Multi-trial sweeps: run N independent trials of an experiment — each
//! with a distinct master seed derived from a base seed — across J OS
//! threads, and aggregate every reported statistic across trials
//! (mean / stderr / min / max).
//!
//! The paper's claims are statistical, so a single run at a single seed
//! can neither carry error bars nor distinguish a real effect from seed
//! luck. Every experiment therefore exposes a `trial(scale, seed, shards)
//! -> Summary` entry point returning *structured* statistics (presentation
//! lives in [`crate::output`]); this module fans trials out with
//! `std::thread::scope` — each worker builds and runs its own `Lab`/`Sim`,
//! so nothing inside a simulation needs to be `Send` — and reduces the
//! per-trial summaries. Per-trial results depend only on `(scale, seed)`,
//! never on `--jobs` or scheduling, which the determinism tests pin down.

use crate::experiments::Experiment;
use crate::lab::Scale;
use pier_netsim::derive_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Ordered `name → value` statistics reported by one experiment trial.
/// Insertion order is preserved (it drives display and JSON order); keys
/// are unique. A statistic may be `NaN` when undefined for a trial (e.g.
/// "mean over old-style vantages" when a seed drew none); [`aggregate`]
/// skips non-finite values per key.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    stats: Vec<(String, f64)>,
}

/// Bitwise value equality, so `NaN == NaN` — determinism tests compare
/// summaries for *bit-identity*, where IEEE `NaN != NaN` would report a
/// spurious mismatch between two byte-identical runs.
impl PartialEq for Summary {
    fn eq(&self, other: &Summary) -> bool {
        self.stats.len() == other.stats.len()
            && self
                .stats
                .iter()
                .zip(&other.stats)
                .all(|((ka, va), (kb, vb))| ka == kb && va.to_bits() == vb.to_bits())
    }
}

impl Summary {
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Set `key` to `value`, replacing any previous value for the key.
    pub fn set(&mut self, key: &str, value: f64) {
        match self.stats.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.stats.push((key.to_string(), value)),
        }
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.stats.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        self.stats.iter().map(|(k, _)| k.as_str())
    }

    pub fn len(&self) -> usize {
        self.stats.len()
    }

    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }
}

/// One statistic aggregated across trials.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateStat {
    pub key: String,
    pub mean: f64,
    /// Standard error of the mean: sample stddev / √n (0 for one trial).
    pub stderr: f64,
    pub min: f64,
    pub max: f64,
    /// Trials with a finite value: the sample behind the other four.
    pub n: usize,
}

/// Aggregate per-key statistics across trials. Key order follows the
/// first trial's insertion order. Non-finite per-trial values (a stat
/// undefined for that seed) are skipped; a key with no finite value at
/// all aggregates to `NaN` everywhere (emitted as `null` in JSON).
///
/// # Panics
/// Panics if a later trial is missing a key the first trial reported —
/// trials of one experiment must report the same statistics.
pub fn aggregate(trials: &[Summary]) -> Vec<AggregateStat> {
    let Some(first) = trials.first() else {
        return Vec::new();
    };
    first
        .keys()
        .map(|key| {
            let values: Vec<f64> = trials
                .iter()
                .map(|t| t.get(key).unwrap_or_else(|| panic!("trial missing stat '{key}'")))
                .filter(|v| v.is_finite())
                .collect();
            if values.is_empty() {
                let nan = f64::NAN;
                return AggregateStat {
                    key: key.to_string(),
                    mean: nan,
                    stderr: nan,
                    min: nan,
                    max: nan,
                    n: 0,
                };
            }
            let n = values.len() as f64;
            let mean = values.iter().sum::<f64>() / n;
            let stderr = if values.len() > 1 {
                let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
                (var / n).sqrt()
            } else {
                0.0
            };
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            AggregateStat { key: key.to_string(), mean, stderr, min, max, n: values.len() }
        })
        .collect()
}

/// Sweep parameters.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    pub scale: Scale,
    pub trials: usize,
    /// Worker OS threads running whole trials; clamped to `1..=trials`.
    pub jobs: usize,
    pub base_seed: u64,
    /// Kernel shards *within* each trial's simulation; composes with
    /// `jobs` (total worker threads ≈ `jobs × shards`). Bit-identical
    /// results for any value.
    pub shards: usize,
}

impl SweepConfig {
    pub fn new(scale: Scale, trials: usize, jobs: usize) -> SweepConfig {
        SweepConfig { scale, trials, jobs, base_seed: DEFAULT_BASE_SEED, shards: 1 }
    }

    /// Set the per-trial kernel shard count (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> SweepConfig {
        self.shards = shards.max(1);
        self
    }
}

/// Base seed sweeps derive per-trial master seeds from unless overridden.
pub const DEFAULT_BASE_SEED: u64 = 0x5EED;

/// The master seed of trial `trial` in a sweep with `base_seed`: a
/// SplitMix64 derivation, so adjacent trials are decorrelated and trial
/// seeds never collide with the base seed itself.
pub fn trial_seed(base_seed: u64, trial: usize) -> u64 {
    derive_seed(base_seed, trial as u64)
}

/// One trial's result.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialResult {
    pub trial: usize,
    pub seed: u64,
    pub summary: Summary,
}

/// Wall-clock telemetry of one trial. Deliberately *not* part of
/// [`TrialResult`]: per-trial statistics are compared bit-for-bit by the
/// determinism tests, and wall-clock is the one thing two identical runs
/// never agree on.
#[derive(Clone, Copy, Debug)]
pub struct TrialTiming {
    pub trial: usize,
    pub wall_s: f64,
    /// Kernel events per wall-second, when the trial reports an
    /// `events_processed` statistic (`NaN` otherwise — analytic trials
    /// have no kernel).
    pub events_per_s: f64,
}

/// All trials (in trial order) plus cross-trial aggregates.
#[derive(Clone, Debug)]
pub struct SweepResult {
    pub experiment: String,
    pub scale: Scale,
    pub base_seed: u64,
    pub jobs: usize,
    pub trials: Vec<TrialResult>,
    /// Wall-clock per trial, index-aligned with `trials`.
    pub timings: Vec<TrialTiming>,
    pub aggregates: Vec<AggregateStat>,
}

/// Sweep a row of the experiment table: N trials across J threads (each
/// trial's kernel on `cfg.shards` more), aggregated.
///
/// # Panics
/// Panics if the row has no `trial` (only `model-params`, which has no
/// random component to sweep).
pub fn run_sweep(experiment: &Experiment, cfg: &SweepConfig) -> SweepResult {
    let trial = experiment.trial.expect("experiment has no seeded trial to sweep");
    let shards = cfg.shards.max(1);
    run_sweep_with(experiment.name, cfg, |scale, seed| trial(scale, seed, shards))
}

/// Generic sweep driver over any `(scale, seed) -> Summary` trial
/// function. Trials are handed to workers through a shared counter
/// (work-stealing by index), so stragglers do not serialize the sweep;
/// results are reassembled in trial order, making the output independent
/// of `jobs` and thread scheduling for any deterministic trial function.
#[expect(
    clippy::disallowed_methods,
    reason = "times each trial; the clock feeds back into nothing"
)]
pub fn run_sweep_with(
    name: &str,
    cfg: &SweepConfig,
    trial_fn: impl Fn(Scale, u64) -> Summary + Sync,
) -> SweepResult {
    assert!(cfg.trials > 0, "a sweep needs at least one trial");
    let jobs = cfg.jobs.clamp(1, cfg.trials);
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(TrialResult, TrialTiming)>> = Mutex::new(Vec::with_capacity(cfg.trials));
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let trial = next.fetch_add(1, Ordering::Relaxed);
                if trial >= cfg.trials {
                    break;
                }
                let seed = trial_seed(cfg.base_seed, trial);
                // Build and run entirely on this thread: each trial owns
                // its Lab/Sim, so `Sim` needs no `Send`. Timed around the
                // whole trial (lab build + replay + reduction); the clock
                // never feeds back into the summary.
                let t0 = std::time::Instant::now();
                let summary = trial_fn(cfg.scale, seed);
                let wall_s = t0.elapsed().as_secs_f64();
                let events_per_s =
                    summary.get("events_processed").map_or(f64::NAN, |ev| ev / wall_s.max(1e-9));
                done.lock().expect("sweep worker poisoned the result lock").push((
                    TrialResult { trial, seed, summary },
                    TrialTiming { trial, wall_s, events_per_s },
                ));
            });
        }
    });
    let mut results = done.into_inner().expect("sweep worker poisoned the result lock");
    results.sort_by_key(|(t, _)| t.trial);
    assert_eq!(results.len(), cfg.trials, "every trial must report");
    let (trials, timings): (Vec<TrialResult>, Vec<TrialTiming>) = results.into_iter().unzip();
    let aggregates = aggregate(&trials.iter().map(|t| t.summary.clone()).collect::<Vec<_>>());
    SweepResult {
        experiment: name.to_string(),
        scale: cfg.scale,
        base_seed: cfg.base_seed,
        jobs,
        trials,
        timings,
        aggregates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_netsim::stream_rng;
    use rand::Rng;

    #[test]
    fn summary_preserves_order_and_replaces() {
        let mut s = Summary::new();
        s.set("b", 1.0);
        s.set("a", 2.0);
        s.set("b", 3.0);
        assert_eq!(s.keys().collect::<Vec<_>>(), vec!["b", "a"]);
        assert_eq!(s.get("b"), Some(3.0));
        assert_eq!(s.get("missing"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn aggregate_mean_stderr_min_max() {
        let mk = |v: f64| {
            let mut s = Summary::new();
            s.set("x", v);
            s.set("y", 10.0 * v);
            s
        };
        let agg = aggregate(&[mk(1.0), mk(2.0), mk(3.0), mk(4.0)]);
        assert_eq!(agg.len(), 2);
        let x = &agg[0];
        assert_eq!(x.key, "x");
        assert!((x.mean - 2.5).abs() < 1e-12);
        // Sample stddev of 1,2,3,4 is sqrt(5/3); stderr divides by sqrt(4).
        let expect = (5.0f64 / 3.0).sqrt() / 2.0;
        assert!((x.stderr - expect).abs() < 1e-12, "stderr {} vs {expect}", x.stderr);
        assert_eq!((x.min, x.max), (1.0, 4.0));
        let y = &agg[1];
        assert!((y.mean - 25.0).abs() < 1e-12);
        assert!((y.stderr - 10.0 * expect).abs() < 1e-12);
    }

    #[test]
    fn aggregate_single_trial_degenerates_cleanly() {
        let mut s = Summary::new();
        s.set("only", 7.5);
        let agg = aggregate(&[s]);
        assert_eq!(agg.len(), 1);
        assert_eq!(agg[0].mean, 7.5);
        assert_eq!(agg[0].stderr, 0.0, "one trial has no spread");
        assert_eq!((agg[0].min, agg[0].max), (7.5, 7.5));
    }

    #[test]
    fn aggregate_empty_is_empty() {
        assert!(aggregate(&[]).is_empty());
    }

    #[test]
    fn aggregate_skips_non_finite_trial_values() {
        let mk = |v: f64| {
            let mut s = Summary::new();
            s.set("sometimes_undefined", v);
            s
        };
        // One seed drew no vantage of the measured profile: its stat is
        // NaN, and it must not poison the other trials' aggregate.
        let agg = aggregate(&[mk(1.0), mk(f64::NAN), mk(3.0)]);
        assert!((agg[0].mean - 2.0).abs() < 1e-12);
        assert_eq!((agg[0].min, agg[0].max), (1.0, 3.0));
        assert!(agg[0].stderr.is_finite());
        // A key undefined in every trial aggregates to NaN (JSON null).
        let all_nan = aggregate(&[mk(f64::NAN), mk(f64::NAN)]);
        assert!(all_nan[0].mean.is_nan());
        assert!(all_nan[0].min.is_nan());
        assert_eq!(all_nan[0].n, 0);
    }

    #[test]
    fn aggregate_counts_only_finite_samples() {
        let mk = |v: f64| {
            let mut s = Summary::new();
            s.set("avg_pier_exec_s", v);
            s
        };
        // A trial that rescued nothing has no PIER latency: it is not a 0.
        let agg = aggregate(&[mk(f64::NAN), mk(2.0)]);
        assert_eq!((agg[0].mean, agg[0].n), (2.0, 1));
        assert_eq!(aggregate(&[mk(1.0), mk(3.0)])[0].n, 2);
    }

    #[test]
    fn summary_equality_is_bitwise() {
        let mut a = Summary::new();
        a.set("x", f64::NAN);
        let mut b = Summary::new();
        b.set("x", f64::NAN);
        assert_eq!(a, b, "bit-identical NaNs must compare equal");
        b.set("x", 1.0);
        assert_ne!(a, b);
        let mut c = Summary::new();
        c.set("x", -0.0);
        let mut d = Summary::new();
        d.set("x", 0.0);
        assert_ne!(c, d, "-0.0 and 0.0 differ bitwise");
    }

    #[test]
    #[should_panic(expected = "trial missing stat")]
    fn aggregate_rejects_mismatched_keys() {
        let mut a = Summary::new();
        a.set("x", 1.0);
        let b = Summary::new();
        aggregate(&[a, b]);
    }

    #[test]
    fn trial_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for t in 0..1_000 {
            assert!(seen.insert(trial_seed(42, t)), "seed collision at trial {t}");
        }
        assert_ne!(trial_seed(1, 0), trial_seed(2, 0), "base seeds must fan out differently");
    }

    /// A deterministic but seed-sensitive synthetic trial: a few RNG draws
    /// keyed by the trial seed.
    fn synthetic(scale: Scale, seed: u64) -> Summary {
        let mut rng = stream_rng(seed, 0);
        let mut s = Summary::new();
        s.set("draw", rng.random::<f64>());
        s.set("scale_tag", matches!(scale, Scale::Quick) as u64 as f64);
        s
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let sequential =
            run_sweep_with("synthetic", &SweepConfig::new(Scale::Quick, 8, 1), synthetic);
        let parallel =
            run_sweep_with("synthetic", &SweepConfig::new(Scale::Quick, 8, 4), synthetic);
        assert_eq!(sequential.trials, parallel.trials, "per-trial results must not depend on jobs");
        assert_eq!(sequential.trials.len(), 8);
        for (i, t) in sequential.trials.iter().enumerate() {
            assert_eq!(t.trial, i, "trials come back in order");
            assert_eq!(t.seed, trial_seed(DEFAULT_BASE_SEED, i));
            // And each equals a direct invocation with the same seed.
            assert_eq!(t.summary, synthetic(Scale::Quick, t.seed));
        }
        // Different seeds actually produce different draws.
        let draws: std::collections::BTreeSet<u64> =
            sequential.trials.iter().map(|t| t.summary.get("draw").unwrap().to_bits()).collect();
        assert_eq!(draws.len(), 8);
    }

    #[test]
    fn jobs_clamped_to_trials() {
        let r = run_sweep_with("synthetic", &SweepConfig::new(Scale::Quick, 2, 64), synthetic);
        assert_eq!(r.jobs, 2);
        assert_eq!(r.trials.len(), 2);
    }

    /// Per-trial telemetry rides alongside the results without being part
    /// of them: one timing per trial, index-aligned, positive wall time,
    /// events/s derived from the trial's own `events_processed` (NaN when
    /// a trial doesn't report one — the JSON writer renders that as null).
    #[test]
    fn sweep_timings_are_index_aligned_telemetry() {
        let with_events = |scale: Scale, seed: u64| {
            let mut s = synthetic(scale, seed);
            s.set("events_processed", 1_000.0);
            s
        };
        let r = run_sweep_with("synthetic", &SweepConfig::new(Scale::Quick, 4, 2), with_events);
        assert_eq!(r.timings.len(), r.trials.len());
        for (i, t) in r.timings.iter().enumerate() {
            assert_eq!(t.trial, r.trials[i].trial, "timing {i} must describe trial {i}");
            assert!(t.wall_s > 0.0, "wall clock must have advanced");
            assert!(
                t.events_per_s.is_finite() && t.events_per_s > 0.0,
                "events/s must derive from the trial's events_processed"
            );
        }
        // And timings never leak into the bit-compared results.
        let bare = run_sweep_with("synthetic", &SweepConfig::new(Scale::Quick, 2, 1), synthetic);
        assert!(bare.timings.iter().all(|t| t.events_per_s.is_nan()));
        assert_eq!(bare.trials[0].summary, synthetic(Scale::Quick, bare.trials[0].seed));
    }
}
