//! The horizon experiment: per-vantage-profile zero-result rates.
//!
//! At quick scale a new-style (32-neighbor) vantage's dynamic query covers
//! essentially the whole network, so the paper's partial-coverage effect
//! (§4.4: many zero-result queries at one node that a Union-of-N would
//! resolve) only shows through old-style 6-neighbor vantages. The
//! [`Scale::Sparse`] preset — more ultrapeers, an old-style-heavy degree
//! mix, single-homed leaves — shrinks every vantage's horizon below the
//! network size, so `zero_single > zero_union` holds from new-style
//! vantages too. This is the figs4–7 apparatus, sliced per vantage.

use crate::experiments::Report;
use crate::lab::{union_results, Lab, LabConfig, Scale, VantageResult, DEFAULT_SEED};
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_netsim::MetricsSnapshot;
use pier_trace::Obs;

/// Everything the horizon tables need from one replay of the trace.
pub struct HorizonData {
    /// `per_query[q][v]`.
    pub per_query: Vec<Vec<VantageResult>>,
    /// `up_neighbors` degree target of each vantage's profile.
    pub vantage_degrees: Vec<usize>,
    /// Traffic accounting of the replay.
    pub metrics: MetricsSnapshot,
    /// Kernel event-queue accounting of the replay.
    pub events: pier_netsim::EventStats,
}

/// A vantage with ≥ this degree target is "new-style" (the 32-neighbor
/// LimeWire profile; old-style is 6).
pub const NEW_STYLE_DEGREE: usize = 32;

/// One full replay with every random choice derived from `seed`, on a
/// `shards`-way kernel, under an observability config (profiled phases,
/// progress heartbeat, sampled query tracing; `Obs::default()` is inert).
/// Results are bit-identical for any shard count and any `obs`.
pub fn collect(scale: Scale, seed: u64, shards: usize, obs: &Obs) -> HorizonData {
    collect_cfg(LabConfig::at_sharded(scale, seed, shards), scale.inject_rate_per_s(), obs)
}

/// One full replay of an explicit lab config (tests drive metro-lite at
/// a chosen shard count through this).
pub fn collect_cfg(cfg: LabConfig, inject_rate_per_s: f64, obs: &Obs) -> HorizonData {
    let mut lab = Lab::build_with(cfg, obs);
    let vantage_degrees = lab.vantage_profiles();
    let per_query = lab.replay_with(inject_rate_per_s, obs);
    HorizonData {
        per_query,
        vantage_degrees,
        metrics: lab.sim.metrics().snapshot(),
        events: lab.sim.event_stats(),
    }
}

/// Percentage of queries returning zero results from vantage `v`.
pub fn zero_single_rate(data: &HorizonData, v: usize) -> f64 {
    let zero = data.per_query.iter().filter(|pv| pv[v].results.is_empty()).count();
    100.0 * zero as f64 / data.per_query.len().max(1) as f64
}

/// Percentage of queries returning zero results in the Union-of-all.
pub fn zero_union_rate(data: &HorizonData) -> f64 {
    let n = data.vantage_degrees.len();
    let zero = data.per_query.iter().filter(|pv| union_results(pv, n).is_empty()).count();
    100.0 * zero as f64 / data.per_query.len().max(1) as f64
}

/// Does at least one new-style (32-neighbor) vantage see strictly more
/// zero-result queries than the Union-of-all — i.e. is the horizon effect
/// visible even from the best-connected vantage profile?
pub fn new_style_horizon_visible(data: &HorizonData) -> bool {
    let union = zero_union_rate(data);
    data.vantage_degrees
        .iter()
        .enumerate()
        .filter(|&(_, &degree)| degree >= NEW_STYLE_DEGREE)
        .any(|(v, _)| zero_single_rate(data, v) > union)
}

/// Per-vantage zero-result rates against the Union-of-all baseline.
pub fn table(data: &HorizonData) -> Table {
    let union = zero_union_rate(data);
    let mut t = Table::new(
        "Horizon: zero-result rate per vantage vs Union-of-all \
         (partial coverage ⇔ vantage rate above union rate)",
        &["vantage", "profile", "neighbors", "zero_single_pct", "zero_union_pct"],
    );
    for (v, &degree) in data.vantage_degrees.iter().enumerate() {
        let profile = if degree >= NEW_STYLE_DEGREE { "new" } else { "old" };
        t.row(vec![s(v), s(profile), s(degree), f(zero_single_rate(data, v), 1), f(union, 1)]);
    }
    t
}

/// Mean zero-result rate over the vantages selected by `wanted` (a
/// predicate on the vantage's profile degree), or `NaN` when none match.
pub fn mean_zero_single_rate(data: &HorizonData, wanted: impl Fn(usize) -> bool) -> f64 {
    let rates: Vec<f64> = data
        .vantage_degrees
        .iter()
        .enumerate()
        .filter(|&(_, &d)| wanted(d))
        .map(|(v, _)| zero_single_rate(data, v))
        .collect();
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// The single run: one replay at the default seed.
pub fn run(scale: Scale, shards: usize, obs: &Obs) -> Report {
    let data = collect(scale, DEFAULT_SEED, shards, obs);
    Report { tables: vec![table(&data)], events: Some(data.events) }
}

/// One sweep trial: the zero-result gap (the paper's §4.4 claim) from a
/// seeded replay. `zero_single` pools every vantage; the per-profile
/// splits show that the horizon effect survives even at the best-connected
/// (new-style) vantages.
pub fn trial(scale: Scale, seed: u64, shards: usize) -> Summary {
    summarize(&collect(scale, seed, shards, &Obs::default()))
}

/// The trial summary of an already-collected replay (shared by [`trial`]
/// and the explicit-config test paths).
pub fn summarize(data: &HorizonData) -> Summary {
    let zero_single = mean_zero_single_rate(data, |_| true);
    let zero_union = zero_union_rate(data);
    let mut out = Summary::new();
    out.set("zero_single", zero_single);
    out.set("zero_union", zero_union);
    out.set("zero_gap", zero_single - zero_union);
    out.set("zero_single_new_style", mean_zero_single_rate(data, |d| d >= NEW_STYLE_DEGREE));
    out.set("zero_single_old_style", mean_zero_single_rate(data, |d| d < NEW_STYLE_DEGREE));
    out.set("new_style_horizon_visible", new_style_horizon_visible(data) as u64 as f64);
    out.set("total_messages", data.metrics.total_messages as f64);
    out.set("total_bytes", data.metrics.total_bytes as f64);
    out.set("events_processed", data.events.processed as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance property of the sparse preset: the horizon effect
    /// shows through *new-style* vantages, not just old-style ones.
    #[test]
    fn sparse_scale_shows_horizon_from_new_style_vantages() {
        let data = collect(Scale::Sparse, DEFAULT_SEED, 1, &Obs::default());
        assert!(!data.per_query.is_empty());
        assert!(
            data.vantage_degrees.iter().any(|&d| d >= NEW_STYLE_DEGREE),
            "sparse vantage set must include a new-style ultrapeer: {:?}",
            data.vantage_degrees
        );
        assert!(
            data.vantage_degrees.iter().any(|&d| d < NEW_STYLE_DEGREE),
            "sparse vantage set must include an old-style ultrapeer: {:?}",
            data.vantage_degrees
        );
        let union = zero_union_rate(&data);
        let new_style_rates: Vec<f64> = data
            .vantage_degrees
            .iter()
            .enumerate()
            .filter(|(_, &d)| d >= NEW_STYLE_DEGREE)
            .map(|(v, _)| zero_single_rate(&data, v))
            .collect();
        assert!(
            new_style_horizon_visible(&data),
            "no new-style vantage shows partial coverage: \
             new-style zero_single {new_style_rates:?} vs zero_union {union:.1}"
        );
    }
}
