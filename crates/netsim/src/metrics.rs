//! Simulation metrics: counters keyed by interned message class, and
//! bounded streaming histograms for latency/size distributions. These back
//! the quantile and overhead tables in the paper's evaluation.
//!
//! # Interned metric classes
//!
//! Every simulated message pays for metrics accounting, so the hot path
//! must not hash or compare strings. A class name is interned once into a
//! dense [`MetricClass`] id (process-wide registry, assigned in first-come
//! order) and counters live in a `Vec<Counter>` indexed by that id.
//! Call-sites resolve their names a single time through
//! [`LazyMetricClass`] statics (see the [`metric_classes!`](crate::metric_classes) macro); the
//! steady-state cost of [`Metrics::record_send`] is two array writes.
//!
//! The *read* side stays name-keyed ([`Metrics::counter`],
//! [`Metrics::counter_prefix_sum`], [`Metrics::counters`]) so experiment
//! drivers and snapshot/diff output are unaffected by registration order.

#![expect(
    clippy::disallowed_methods,
    reason = "the registry and metric_classes! are the sanctioned way to register a class"
)]

use crate::keyed::KeyedMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// A message/byte counter pair for one class of traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter {
    pub count: u64,
    pub bytes: u64,
}

impl Counter {
    pub fn add(&mut self, n: u64, bytes: u64) {
        self.count += n;
        self.bytes += bytes;
    }

    fn is_zero(&self) -> bool {
        self.count == 0 && self.bytes == 0
    }
}

// ---------------------------------------------------------------------------
// Class interning
// ---------------------------------------------------------------------------

/// An interned metric class id: a dense index into per-run metric storage.
/// Obtain one via [`MetricClass::register`] (or a [`LazyMetricClass`]
/// static, which caches the registration).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricClass(u32);

struct Registry {
    names: Vec<&'static str>,
    by_name: KeyedMap<&'static str, u32>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry { names: Vec::new(), by_name: KeyedMap::new() }))
}

impl MetricClass {
    /// Intern `name`, returning its dense id. Idempotent: the same name
    /// always maps to the same id for the lifetime of the process. Ids are
    /// assigned in first-registration order, which is why *read* APIs key
    /// by name — registration order may differ between runs.
    pub fn register(name: &'static str) -> MetricClass {
        let mut reg = registry().lock().expect("metric registry poisoned");
        if let Some(&id) = reg.by_name.get(name) {
            return MetricClass(id);
        }
        let id = u32::try_from(reg.names.len()).expect("metric class space exhausted");
        reg.names.push(name);
        reg.by_name.insert(name, id);
        MetricClass(id)
    }

    /// Look up an already-registered name.
    pub fn lookup(name: &str) -> Option<MetricClass> {
        let reg = registry().lock().expect("metric registry poisoned");
        reg.by_name.get(name).map(|&id| MetricClass(id))
    }

    /// The class name this id was registered under.
    pub fn name(self) -> &'static str {
        let reg = registry().lock().expect("metric registry poisoned");
        reg.names[self.0 as usize]
    }

    /// Dense index into per-run metric storage.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for MetricClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MetricClass({} = {:?})", self.0, self.name())
    }
}

/// Every `(name, Counter)` pair currently registered, in name order.
fn named_snapshot() -> Vec<(&'static str, u32)> {
    let reg = registry().lock().expect("metric registry poisoned");
    let mut v: Vec<(&'static str, u32)> =
        reg.names.iter().enumerate().map(|(i, &n)| (n, i as u32)).collect();
    v.sort_unstable_by_key(|(n, _)| *n);
    v
}

/// A call-site cache for a [`MetricClass`]: `const`-constructible, resolves
/// the name through the registry on first use, then answers from a relaxed
/// atomic load. Declare them once per crate with
/// [`metric_classes!`](crate::metric_classes).
pub struct LazyMetricClass {
    name: &'static str,
    id: AtomicU32,
}

const UNRESOLVED: u32 = u32::MAX;

impl LazyMetricClass {
    pub const fn new(name: &'static str) -> Self {
        LazyMetricClass { name, id: AtomicU32::new(UNRESOLVED) }
    }

    /// The interned id (registering on first call).
    #[inline]
    pub fn id(&self) -> MetricClass {
        let v = self.id.load(Ordering::Relaxed);
        if v != UNRESOLVED {
            return MetricClass(v);
        }
        self.resolve()
    }

    #[cold]
    fn resolve(&self) -> MetricClass {
        let class = MetricClass::register(self.name);
        self.id.store(class.0, Ordering::Relaxed);
        class
    }

    pub const fn name(&self) -> &'static str {
        self.name
    }
}

/// Declare a block of [`LazyMetricClass`] statics — one per metric class a
/// crate records — so every call-site resolves its id exactly once:
///
/// ```
/// pier_netsim::metric_classes! {
///     /// Flooded keyword queries.
///     pub QUERY = "example.query";
///     pub QUERY_HIT = "example.query_hit";
/// }
/// assert_eq!(QUERY.id(), QUERY.id());
/// assert_eq!(QUERY.name(), "example.query");
/// ```
#[macro_export]
macro_rules! metric_classes {
    ($($(#[$meta:meta])* $vis:vis $name:ident = $class:literal;)+) => {
        $(
            $(#[$meta])*
            $vis static $name: $crate::LazyMetricClass =
                $crate::LazyMetricClass::new($class);
        )+
    };
}

crate::metric_classes! {
    /// Deliveries dropped because the destination node was down.
    pub(crate) DROPPED_TO_DOWN = "sim.dropped_to_down_node";
}

// ---------------------------------------------------------------------------
// Streaming histogram
// ---------------------------------------------------------------------------

/// Log-spaced bins per power of two. Relative bin width is
/// `2^(1/8) − 1 ≈ 9.05%`, so any quantile is reproduced within one bin
/// width (≤ ~9% relative error) while min/max/mean/count stay exact.
const BINS_PER_DOUBLING: f64 = 8.0;

/// Smallest positive value with its own bin; anything at or below this
/// (including zero) lands in the dedicated low bin.
const MIN_TRACKED: f64 = 1e-9;

/// Hard cap on bin storage: 1024 log-spaced bins cover
/// `[1e-9, 1e-9 × 2^128)` — far beyond any simulated latency, hop count,
/// or result-set size. Larger samples clamp into the last bin (and are
/// still reported exactly through `max`).
const MAX_BINS: usize = 1024;

/// Growth factor between consecutive bin lower edges.
fn bin_growth() -> f64 {
    2f64.powf(1.0 / BINS_PER_DOUBLING)
}

/// A bounded streaming histogram over non-negative `f64` samples.
///
/// Unlike its exact-sample predecessor it never stores samples: memory is
/// bounded by `MAX_BINS` regardless of run length, `record` is O(1) with
/// no re-sorting, and `quantile` walks the (lazily grown) bin table.
/// `min`, `max`, `mean`, and `len` are exact; quantiles are accurate to
/// one log-spaced bin width.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples `<= MIN_TRACKED` (zeros, mostly).
    low: u64,
    /// `bins[i]` counts samples in `[MIN_TRACKED·g^i, MIN_TRACKED·g^(i+1))`;
    /// grown lazily to the highest index seen.
    bins: Vec<u64>,
}

/// Bin index for a positive sample above `MIN_TRACKED`.
fn bin_index(value: f64) -> usize {
    let idx = ((value / MIN_TRACKED).log2() * BINS_PER_DOUBLING).floor();
    (idx.max(0.0) as usize).min(MAX_BINS - 1)
}

/// Geometric midpoint of bin `i` (its representative value).
fn bin_mid(i: usize) -> f64 {
    MIN_TRACKED * bin_growth().powf(i as f64 + 0.5)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    pub fn record(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "histogram sample must be finite");
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if value <= MIN_TRACKED {
            self.low += 1;
        } else {
            let i = bin_index(value);
            if i >= self.bins.len() {
                self.bins.resize(i + 1, 0);
            }
            self.bins[i] += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.count as usize
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean. Returns 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum / self.count as f64
    }

    /// Exact minimum. Returns 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.min
    }

    /// Exact maximum. Returns 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.max
    }

    /// Quantile in `[0, 1]` by nearest-rank over the bins, accurate to one
    /// bin width (the representative is the bin's geometric midpoint,
    /// clamped into `[min, max]`). Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly; answer them exactly.
        if rank == 1 {
            return self.min;
        }
        if rank == self.count {
            return self.max;
        }
        let mut seen = self.low;
        if rank <= seen {
            // The low bin holds zeros (and sub-nanosecond values); its
            // samples are all ≤ MIN_TRACKED, so `min` is the honest answer.
            return self.min;
        }
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return bin_mid(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one. Exact for `count`, `low`,
    /// per-bin tallies, `min`, and `max`; the f64 `sum` (and therefore
    /// [`Histogram::mean`]) can differ from a single-stream accumulation in
    /// final ULPs because addition reassociates. The sharded kernel merges
    /// per-shard histograms with this.
    pub fn merge_from(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.low += other.low;
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (slot, &c) in self.bins.iter_mut().zip(other.bins.iter()) {
            *slot += c;
        }
    }

    /// Zero all state in place, keeping the bin allocation.
    fn reset(&mut self) {
        self.count = 0;
        self.sum = 0.0;
        self.min = 0.0;
        self.max = 0.0;
        self.low = 0;
        self.bins.iter_mut().for_each(|b| *b = 0);
    }
}

// ---------------------------------------------------------------------------
// Per-run metrics
// ---------------------------------------------------------------------------

/// All metrics for one simulation run. Mutation is id-keyed (hot path);
/// reads are name-keyed so output is independent of registration order.
#[derive(Default)]
pub struct Metrics {
    counters: Vec<Counter>,
    histograms: Vec<Histogram>,
    /// Total messages delivered (all classes).
    pub total_messages: u64,
    /// Total bytes delivered (all classes).
    pub total_bytes: u64,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    #[inline]
    fn counter_slot(&mut self, class: MetricClass) -> &mut Counter {
        let i = class.index();
        if i >= self.counters.len() {
            self.counters.resize(i + 1, Counter::default());
        }
        &mut self.counters[i]
    }

    /// Add `n` events and `bytes` bytes to `class` (protocol-level stats).
    #[inline]
    pub fn count(&mut self, class: MetricClass, n: u64, bytes: u64) {
        self.counter_slot(class).add(n, bytes);
    }

    /// Account one sent message of `bytes` bytes to `class`. This is the
    /// kernel's per-message hot path: two array writes in steady state.
    #[inline]
    pub fn record_send(&mut self, class: MetricClass, bytes: u64) {
        self.counter_slot(class).add(1, bytes);
        self.total_messages += 1;
        self.total_bytes += bytes;
    }

    /// Record a sample in the histogram for `class`.
    #[inline]
    pub fn observe(&mut self, class: MetricClass, value: f64) {
        self.histogram_mut(class).record(value);
    }

    /// The histogram for an interned class id (creating it if untouched).
    pub fn histogram_mut(&mut self, class: MetricClass) -> &mut Histogram {
        let i = class.index();
        if i >= self.histograms.len() {
            self.histograms.resize_with(i + 1, Histogram::default);
        }
        &mut self.histograms[i]
    }

    /// Name-keyed counter read (zero for classes this run never touched).
    pub fn counter(&self, class: &str) -> Counter {
        MetricClass::lookup(class)
            .and_then(|c| self.counters.get(c.index()).copied())
            .unwrap_or_default()
    }

    /// Name-keyed histogram access (registers the class on demand).
    pub fn histogram(&mut self, class: &'static str) -> &mut Histogram {
        self.histogram_mut(MetricClass::register(class))
    }

    /// Counters whose class name starts with `prefix`, summed.
    pub fn counter_prefix_sum(&self, prefix: &str) -> Counter {
        let mut total = Counter::default();
        for (name, id) in named_snapshot() {
            if name.starts_with(prefix) {
                if let Some(c) = self.counters.get(id as usize) {
                    total.add(c.count, c.bytes);
                }
            }
        }
        total
    }

    /// Iterate over all counters this run touched, in class-name order
    /// (untouched registered classes are skipped, so snapshots do not
    /// depend on what other code registered in the same process).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, Counter)> + '_ {
        named_snapshot()
            .into_iter()
            .filter_map(|(name, id)| {
                self.counters.get(id as usize).filter(|c| !c.is_zero()).map(|c| (name, *c))
            })
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// Zero every counter, histogram, and total in place, reusing the
    /// existing allocations. The sharded kernel rebuilds its merged
    /// cross-shard view with `reset` + [`Metrics::merge_from`] after every
    /// mutating call.
    pub fn reset(&mut self) {
        self.counters.iter_mut().for_each(|c| *c = Counter::default());
        self.histograms.iter_mut().for_each(Histogram::reset);
        self.total_messages = 0;
        self.total_bytes = 0;
    }

    /// Fold another live `Metrics` into this one, slot by slot. Both sides
    /// index by the same process-wide interned [`MetricClass`] ids, so this
    /// is a positional merge (unlike the name-keyed
    /// [`MetricsSnapshot::merge`], which survives cross-process id drift).
    /// Counters and totals merge exactly; histogram `sum`s reassociate (see
    /// [`Histogram::merge_from`]).
    pub fn merge_from(&mut self, other: &Metrics) {
        if other.counters.len() > self.counters.len() {
            self.counters.resize(other.counters.len(), Counter::default());
        }
        for (slot, c) in self.counters.iter_mut().zip(other.counters.iter()) {
            slot.add(c.count, c.bytes);
        }
        if other.histograms.len() > self.histograms.len() {
            self.histograms.resize_with(other.histograms.len(), Histogram::default);
        }
        for (slot, h) in self.histograms.iter_mut().zip(other.histograms.iter()) {
            slot.merge_from(h);
        }
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
    }

    /// Freeze every touched counter into an owned, name-keyed
    /// [`MetricsSnapshot`]. Snapshots are `Send`, so per-trial simulations
    /// running on worker threads can hand their traffic accounting back to
    /// a sweep driver, which merges them with [`MetricsSnapshot::merge`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters().collect(),
            total_messages: self.total_messages,
            total_bytes: self.total_bytes,
        }
    }
}

/// An owned, name-keyed snapshot of one run's counters — the cross-run
/// aggregation surface. Unlike [`Metrics`] it has no ties to the live
/// registry ids, so snapshots taken in different runs (even with different
/// registration orders) merge correctly by class name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(class name, counter)` in class-name order; untouched classes are
    /// skipped.
    counters: Vec<(&'static str, Counter)>,
    pub total_messages: u64,
    pub total_bytes: u64,
}

impl MetricsSnapshot {
    /// Name-keyed counter read (zero for classes the run never touched).
    pub fn counter(&self, class: &str) -> Counter {
        self.counters
            .binary_search_by_key(&class, |(n, _)| n)
            .map(|i| self.counters[i].1)
            .unwrap_or_default()
    }

    /// All `(class, counter)` pairs, in class-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, Counter)> + '_ {
        self.counters.iter().copied()
    }

    /// Merge `other` into `self`, summing counters class-by-class.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut merged = Vec::with_capacity(self.counters.len().max(other.counters.len()));
        let (mut a, mut b) = (self.counters.iter().peekable(), other.counters.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(na, ca)), Some(&&(nb, cb))) => match na.cmp(nb) {
                    std::cmp::Ordering::Less => {
                        merged.push((na, ca));
                        a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((nb, cb));
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((
                            na,
                            Counter { count: ca.count + cb.count, bytes: ca.bytes + cb.bytes },
                        ));
                        a.next();
                        b.next();
                    }
                },
                (Some(&&p), None) => {
                    merged.push(p);
                    a.next();
                }
                (None, Some(&&p)) => {
                    merged.push(p);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.counters = merged;
        self.total_messages += other.total_messages;
        self.total_bytes += other.total_bytes;
    }

    /// Name-keyed counter deltas since `baseline`: `self − baseline`,
    /// skipping classes whose delta is zero. The standard way to attribute
    /// traffic to one experiment window (snapshot before, run, snapshot
    /// after, diff) without hand-subtracting individual counters.
    ///
    /// Counters are monotone over a run, so `self` must be the *later*
    /// snapshot; a class that shrank (different run, wrong order) saturates
    /// to zero rather than wrapping.
    pub fn diff(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let deltas: Vec<(&'static str, Counter)> = self
            .counters
            .iter()
            .map(|&(name, c)| {
                let base = baseline.counter(name);
                (
                    name,
                    Counter {
                        count: c.count.saturating_sub(base.count),
                        bytes: c.bytes.saturating_sub(base.bytes),
                    },
                )
            })
            .filter(|(_, c)| !c.is_zero())
            .collect();
        MetricsSnapshot {
            counters: deltas,
            total_messages: self.total_messages.saturating_sub(baseline.total_messages),
            total_bytes: self.total_bytes.saturating_sub(baseline.total_bytes),
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<40} {:>12} {:>14}", "class", "messages", "bytes")?;
        for (class, c) in self.counters() {
            writeln!(f, "{:<40} {:>12} {:>14}", class, c.count, c.bytes)?;
        }
        writeln!(f, "{:<40} {:>12} {:>14}", "TOTAL", self.total_messages, self.total_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(name: &'static str) -> MetricClass {
        MetricClass::register(name)
    }

    #[test]
    fn interning_is_idempotent_and_name_keyed() {
        let a = class("intern.a");
        let b = class("intern.b");
        assert_eq!(a, class("intern.a"));
        assert_ne!(a, b);
        assert_eq!(a.name(), "intern.a");
        assert_eq!(MetricClass::lookup("intern.b"), Some(b));
        assert_eq!(MetricClass::lookup("intern.never-registered"), None);
    }

    #[test]
    fn lazy_class_resolves_once() {
        static LAZY: LazyMetricClass = LazyMetricClass::new("intern.lazy");
        let first = LAZY.id();
        assert_eq!(first, LAZY.id());
        assert_eq!(first, MetricClass::register("intern.lazy"));
        assert_eq!(LAZY.name(), "intern.lazy");
    }

    #[test]
    fn counter_accumulates() {
        let mut m = Metrics::new();
        m.record_send(class("a.x"), 100);
        m.record_send(class("a.x"), 50);
        m.record_send(class("a.y"), 10);
        assert_eq!(m.counter("a.x"), Counter { count: 2, bytes: 150 });
        assert_eq!(m.counter_prefix_sum("a."), Counter { count: 3, bytes: 160 });
        assert_eq!(m.total_messages, 3);
        assert_eq!(m.total_bytes, 160);
        assert_eq!(m.counter("missing"), Counter::default());
    }

    #[test]
    fn counters_iterate_in_name_order_skipping_untouched() {
        let mut m = Metrics::new();
        // Register in non-alphabetical order; touch only two of three.
        let z = class("order.z");
        let a = class("order.a");
        let _untouched = class("order.m");
        m.record_send(z, 1);
        m.record_send(a, 2);
        let named: Vec<&str> =
            m.counters().map(|(n, _)| n).filter(|n| n.starts_with("order.")).collect();
        assert_eq!(named, vec!["order.a", "order.z"]);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(0.0), 1.0);
        let mid = h.quantile(0.5);
        assert!((mid - 3.0).abs() <= 3.0 * (bin_growth() - 1.0), "p50 {mid} vs exact 3.0");
        assert_eq!(h.quantile(1.0), 5.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_min_max_empty_single_many() {
        let mut h = Histogram::new();
        // Empty.
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        // Single.
        h.record(7.25);
        assert_eq!(h.min(), 7.25);
        assert_eq!(h.max(), 7.25);
        assert_eq!(h.quantile(0.5), 7.25);
        // Many (including zero).
        h.record(0.0);
        h.record(123.0);
        h.record(0.5);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 123.0);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn histogram_empty_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_handles_zero_heavy_streams() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(0.0);
        }
        for _ in 0..10 {
            h.record(50.0);
        }
        assert_eq!(h.quantile(0.5), 0.0, "median of a zero-heavy stream is zero");
        let p95 = h.quantile(0.95);
        assert!((p95 - 50.0).abs() <= 50.0 * (bin_growth() - 1.0), "p95 {p95}");
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 50.0);
    }

    #[test]
    fn histogram_memory_is_bounded() {
        let mut h = Histogram::new();
        // A huge spread of magnitudes still uses at most MAX_BINS bins.
        let mut v = 1e-12;
        for _ in 0..2_000 {
            h.record(v);
            v *= 1.1;
        }
        assert!(h.bins.len() <= MAX_BINS);
        assert_eq!(h.len(), 2_000);
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn snapshot_reads_and_merges_by_name() {
        let mut m1 = Metrics::new();
        m1.record_send(class("snap.a"), 10);
        m1.record_send(class("snap.b"), 5);
        let mut m2 = Metrics::new();
        m2.record_send(class("snap.b"), 7);
        m2.record_send(class("snap.c"), 1);

        let s1 = m1.snapshot();
        assert_eq!(s1.counter("snap.a"), Counter { count: 1, bytes: 10 });
        assert_eq!(s1.counter("snap.never"), Counter::default());

        let mut merged = s1.clone();
        merged.merge(&m2.snapshot());
        assert_eq!(merged.counter("snap.a"), Counter { count: 1, bytes: 10 });
        assert_eq!(merged.counter("snap.b"), Counter { count: 2, bytes: 12 });
        assert_eq!(merged.counter("snap.c"), Counter { count: 1, bytes: 1 });
        assert_eq!(merged.total_messages, 4);
        assert_eq!(merged.total_bytes, 23);
        // Name order is preserved through the merge.
        let names: Vec<&str> =
            merged.counters().map(|(n, _)| n).filter(|n| n.starts_with("snap.")).collect();
        assert_eq!(names, vec!["snap.a", "snap.b", "snap.c"]);

        // Folding the parts into an empty snapshot equals merging pairwise.
        let mut all = MetricsSnapshot::default();
        for part in [&s1, &m2.snapshot()] {
            all.merge(part);
        }
        assert_eq!(all, merged);
        // Merging with an empty snapshot is the identity.
        let mut id = merged.clone();
        id.merge(&MetricsSnapshot::default());
        assert_eq!(id, merged);
    }

    #[test]
    fn snapshot_diff_yields_window_deltas_and_skips_zeros() {
        let mut m = Metrics::new();
        m.record_send(class("diff.a"), 10);
        m.record_send(class("diff.b"), 5);
        let before = m.snapshot();
        m.record_send(class("diff.b"), 7);
        m.record_send(class("diff.c"), 3);
        let after = m.snapshot();

        let d = after.diff(&before);
        // diff.a did not move in the window: skipped entirely.
        assert_eq!(d.counter("diff.a"), Counter::default());
        assert!(!d.counters().any(|(n, _)| n == "diff.a"));
        assert_eq!(d.counter("diff.b"), Counter { count: 1, bytes: 7 });
        assert_eq!(d.counter("diff.c"), Counter { count: 1, bytes: 3 });
        assert_eq!(d.total_messages, 2);
        assert_eq!(d.total_bytes, 10);

        // Diffing against itself is empty; wrong-order diff saturates.
        assert_eq!(after.diff(&after), MetricsSnapshot::default());
        assert_eq!(before.diff(&after).counter("diff.b"), Counter::default());

        // diff is the inverse of merge: (before ⊎ w).diff(before) == w.
        let mut w = Metrics::new();
        w.record_send(class("diff.b"), 7);
        w.record_send(class("diff.c"), 3);
        let mut rebuilt = before.clone();
        rebuilt.merge(&w.snapshot());
        assert_eq!(rebuilt.diff(&before), d);
    }

    /// Sharded-kernel merge surface: splitting one sample stream across
    /// several `Metrics` and folding them back with `merge_from` must
    /// reproduce every counter, total, and histogram shape statistic of the
    /// unsplit run (the f64 sum is allowed to reassociate).
    #[test]
    fn metrics_merge_from_matches_unsplit_run() {
        let ca = class("merge.a");
        let cb = class("merge.b");
        let hist = class("merge.h");
        let mut whole = Metrics::new();
        let mut parts = [Metrics::new(), Metrics::new(), Metrics::new()];
        for i in 0..300u64 {
            let target = &mut parts[(i % 3) as usize];
            for m in [&mut whole, target] {
                m.record_send(if i % 2 == 0 { ca } else { cb }, 10 + i);
                m.observe(hist, (i % 17) as f64 * 0.25);
            }
        }
        let mut merged = Metrics::new();
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged.counter("merge.a"), whole.counter("merge.a"));
        assert_eq!(merged.counter("merge.b"), whole.counter("merge.b"));
        assert_eq!(merged.total_messages, whole.total_messages);
        assert_eq!(merged.total_bytes, whole.total_bytes);
        let (hm, hw) = (merged.histogram_mut(hist).clone(), whole.histogram_mut(hist).clone());
        assert_eq!(hm.len(), hw.len());
        assert_eq!(hm.min().to_bits(), hw.min().to_bits());
        assert_eq!(hm.max().to_bits(), hw.max().to_bits());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(hm.quantile(q).to_bits(), hw.quantile(q).to_bits());
        }
    }

    /// `reset` + `merge_from` is idempotent: rebuilding the merged view
    /// twice gives identical state, and reset keeps allocations usable.
    #[test]
    fn metrics_reset_then_merge_rebuilds_cleanly() {
        let c = class("reset.a");
        let h = class("reset.h");
        let mut src = Metrics::new();
        src.record_send(c, 100);
        src.observe(h, 3.0);
        let mut view = Metrics::new();
        for _ in 0..3 {
            view.reset();
            view.merge_from(&src);
        }
        assert_eq!(view.counter("reset.a"), Counter { count: 1, bytes: 100 });
        assert_eq!(view.total_messages, 1);
        assert_eq!(view.histogram_mut(h).len(), 1);
        view.reset();
        assert_eq!(view.counter("reset.a"), Counter::default());
        assert_eq!(view.total_messages, 0);
        assert!(view.histogram_mut(h).is_empty());
    }

    #[test]
    fn metrics_display_contains_totals() {
        let mut m = Metrics::new();
        m.record_send(class("z"), 9);
        let s = format!("{m}");
        assert!(s.contains("TOTAL"));
        assert!(s.contains('z'));
    }
}
