//! Figures 4–7: the Gnutella measurement study (§4.2) on the simulated
//! network — result sizes vs. replication, result-size CDFs (single vantage
//! vs. Union-of-N), and first-result latency vs. result size.

use crate::experiments::Report;
use crate::lab::{union_results, Lab, LabConfig, Scale, VantageResult, DEFAULT_SEED};
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_netsim::MetricsSnapshot;
use pier_trace::Obs;
use std::collections::HashMap;

/// Everything Figures 4–7 need from one replay of the trace.
pub struct MeasurementData {
    /// `per_query[q][v]`.
    pub per_query: Vec<Vec<VantageResult>>,
    pub vantage_count: usize,
    /// Traffic accounting of the replay (merged across sweep trials by
    /// the sweep runner).
    pub metrics: MetricsSnapshot,
    /// Kernel event-queue accounting of the replay.
    pub events: pier_netsim::EventStats,
}

/// One full replay with every random choice derived from `seed`, on a
/// `shards`-way kernel, under an observability config (profiled phases,
/// progress heartbeat, sampled query tracing; `Obs::default()` is inert).
/// Results are bit-identical for any shard count and any `obs`.
pub fn collect(scale: Scale, seed: u64, shards: usize, obs: &Obs) -> MeasurementData {
    let mut lab = Lab::build_with(LabConfig::at_sharded(scale, seed, shards), obs);
    let per_query = lab.replay_with(scale.inject_rate_per_s(), obs);
    MeasurementData {
        per_query,
        vantage_count: lab.vantages.len(),
        metrics: lab.sim.metrics().snapshot(),
        events: lab.sim.event_stats(),
    }
}

/// The Figure 4 scatter reduced to buckets: one
/// `(single-vantage result size, average replication factor,
/// observations)` triple per distinct size, sorted by size.
pub fn fig4_points(data: &MeasurementData) -> Vec<(usize, f64, usize)> {
    // Group queries by single-vantage result size; average the replication
    // factors measured from the Union-of-all results.
    let mut by_size: HashMap<usize, Vec<f64>> = HashMap::new();
    for per_vantage in &data.per_query {
        let union = union_results(per_vantage, data.vantage_count);
        // Replication factor per distinct filename = #hosts in the union.
        let mut hosts_per_name: HashMap<&str, usize> = HashMap::new();
        for (name, _) in &union {
            *hosts_per_name.entry(name).or_insert(0) += 1;
        }
        if hosts_per_name.is_empty() {
            continue;
        }
        let avg_rep: f64 =
            hosts_per_name.values().map(|&c| c as f64).sum::<f64>() / hosts_per_name.len() as f64;
        // One scatter point per (query, vantage) observation, like fig5/fig7
        // — a single fixed vantage would make the buckets hostage to that
        // vantage's ultrapeer profile.
        for v in per_vantage {
            let single = v.results.len();
            if single > 0 {
                by_size.entry(single).or_default().push(avg_rep);
            }
        }
    }
    let mut sizes: Vec<usize> = by_size.keys().copied().collect();
    sizes.sort_unstable();
    sizes
        .into_iter()
        .map(|size| {
            let reps = &by_size[&size];
            (size, reps.iter().sum::<f64>() / reps.len() as f64, reps.len())
        })
        .collect()
}

/// Figure 4: query result-set size vs. average replication factor.
pub fn fig4(data: &MeasurementData) -> Table {
    let mut t = Table::new(
        "Figure 4: Query results size vs average replication factor",
        &["results_size", "avg_replication_factor", "observations"],
    );
    for (size, avg, n) in fig4_points(data) {
        t.row(vec![s(size), f(avg, 2), s(n)]);
    }
    t
}

/// The Figure 4 trend, summarized robustly: the (observation-weighted) mean
/// replication factor of small-result queries vs. large-result queries,
/// where an observation is one (query, vantage) pair.
/// The paper's scatter is extremely noisy; its claim is that "queries with
/// small result sets return mostly rare items, while queries with large
/// result sets … bias towards popular items" — i.e. `large.1 > small.1`.
pub fn fig4_shape(points: &[(usize, f64, usize)]) -> (f64, f64) {
    let mut small = (0.0f64, 0.0f64); // (weight, weighted rep)
    let mut large = (0.0f64, 0.0f64);
    for &(size, rep, n) in points {
        let n = n as f64;
        if size <= 5 {
            small.0 += n;
            small.1 += n * rep;
        } else if size >= 50 {
            large.0 += n;
            large.1 += n * rep;
        }
    }
    (small.1 / small.0.max(1.0), large.1 / large.0.max(1.0))
}

/// Single-vantage result sizes, pooled over every (query, vantage) pair —
/// the same estimator fig7 uses. Sampling one fixed vantage instead would
/// make the whole table hostage to that vantage's profile (an old-style
/// 6-neighbor ultrapeer sees a sliver of the network; a new-style one at
/// quick scale sees essentially all of it).
fn pooled_singles(data: &MeasurementData) -> Vec<usize> {
    data.per_query.iter().flat_map(|pv| pv.iter().map(|v| v.results.len())).collect()
}

/// Figure 5: result-size CDF, single vantage vs. Union-of-all.
pub fn fig5(data: &MeasurementData) -> Table {
    let singles: Vec<usize> = pooled_singles(data);
    let unions: Vec<usize> =
        data.per_query.iter().map(|pv| union_results(pv, data.vantage_count).len()).collect();
    let mut t = Table::new(
        "Figure 5: Result size CDF (single node: % of query×vantage observations ≤ x; \
         union: % of queries ≤ x)",
        &["results_x", "single_node_pct", "union_pct"],
    );
    for x in [0usize, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 10000] {
        t.row(vec![s(x), f(pct_at_most(&singles, x), 1), f(pct_at_most(&unions, x), 1)]);
    }
    t
}

/// Figure 6: result-size CDF restricted to ≤ 20 results, for unions of
/// several vantage counts.
pub fn fig6(data: &MeasurementData) -> Table {
    let quarters = [
        1,
        data.vantage_count / 6,
        data.vantage_count / 2,
        data.vantage_count * 5 / 6,
        data.vantage_count,
    ];
    let mut t = Table::new(
        "Figure 6: Result size CDF for queries ≤ 20 results (unions)",
        &["results_x", "u1_pct", "u_sixth_pct", "u_half_pct", "u_most_pct", "u_all_pct"],
    );
    // Each vantage count's union sizes, computed once for all 21 rows.
    let counts: Vec<Vec<usize>> = quarters
        .iter()
        .map(|&n| data.per_query.iter().map(|pv| union_results(pv, n.max(1)).len()).collect())
        .collect();
    for x in 0..=20usize {
        let mut row = vec![s(x)];
        row.extend(counts.iter().map(|c| f(pct_at_most(c, x), 1)));
        t.row(row);
    }
    t
}

/// The §4.4 headline statistics of one replay, structured.
pub struct SummaryStats {
    /// % of (query, vantage) observations with ≤ 10 results.
    pub le10_single_pct: f64,
    /// % of (query, vantage) observations with zero results.
    pub zero_single_pct: f64,
    /// % of queries whose Union-of-all-vantages is empty.
    pub zero_union_pct: f64,
    /// % of single-node zero-result queries a Union-of-N would resolve.
    pub reduction_pct: f64,
}

pub fn summary_stats(data: &MeasurementData) -> SummaryStats {
    let singles: Vec<usize> = pooled_singles(data);
    let unions: Vec<usize> =
        data.per_query.iter().map(|pv| union_results(pv, data.vantage_count).len()).collect();
    let zero_single = pct_at_most(&singles, 0);
    let zero_union = pct_at_most(&unions, 0);
    let reduction =
        if zero_single > 0.0 { 100.0 * (zero_single - zero_union) / zero_single } else { 0.0 };
    SummaryStats {
        le10_single_pct: pct_at_most(&singles, 10),
        zero_single_pct: zero_single,
        zero_union_pct: zero_union,
        reduction_pct: reduction,
    }
}

/// §4.4 summary statistics extracted from the same replay.
pub fn summary(data: &MeasurementData) -> Table {
    let st = summary_stats(data);
    // "1 node" rows are rates over query×vantage observations — the expected
    // fraction seen at a random single vantage, the comparable to the
    // paper's one-node measurement.
    let mut t = Table::new(
        "Section 4.4 summary (paper: ≤10: 41%, zero: 18% → union 6%, reduction ≥66%)",
        &["metric", "measured_pct", "paper_pct"],
    );
    t.row(vec![s("queries with ≤10 results (1 node)"), f(st.le10_single_pct, 1), s(41)]);
    t.row(vec![s("queries with 0 results (1 node)"), f(st.zero_single_pct, 1), s(18)]);
    t.row(vec![s("queries with 0 results (union)"), f(st.zero_union_pct, 1), s(6)]);
    t.row(vec![s("possible zero-result reduction"), f(st.reduction_pct, 1), s(66)]);
    t
}

/// Figure 7: result-set size vs. average first-result latency.
pub fn fig7(data: &MeasurementData) -> Table {
    // Buckets of single-vantage result sizes (log-ish edges like the plot).
    let edges = [1usize, 2, 5, 10, 25, 50, 100, 150, 100_000];
    let mut sums = vec![(0.0f64, 0usize); edges.len()];
    for pv in &data.per_query {
        for v in pv {
            let n = v.results.len();
            if n == 0 {
                continue;
            }
            let Some(first) = v.first_hit else { continue };
            let b = edges.iter().position(|&e| n <= e).unwrap_or(edges.len() - 1);
            sums[b].0 += first.as_secs_f64();
            sums[b].1 += 1;
        }
    }
    let mut t = Table::new(
        "Figure 7: Result size vs average first-result latency (paper: 73s @1, ~6s @>150)",
        &["results_up_to", "avg_first_result_s", "queries"],
    );
    for (i, &e) in edges.iter().enumerate() {
        let (sum, n) = sums[i];
        if n > 0 {
            t.row(vec![s(e), f(sum / n as f64, 2), s(n)]);
        }
    }
    t
}

fn pct_at_most(values: &[usize], x: usize) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    100.0 * values.iter().filter(|v| **v <= x).count() as f64 / values.len() as f64
}

/// The single run: all four figures from one replay at the default seed.
pub fn run(scale: Scale, shards: usize, obs: &Obs) -> Report {
    let data = collect(scale, DEFAULT_SEED, shards, obs);
    Report {
        tables: vec![fig4(&data), fig5(&data), fig6(&data), summary(&data), fig7(&data)],
        events: Some(data.events),
    }
}

/// One sweep trial: a seeded replay reduced to its headline statistics.
pub fn trial(scale: Scale, seed: u64, shards: usize) -> Summary {
    let data = collect(scale, seed, shards, &Obs::default());
    let st = summary_stats(&data);
    let (small_rep, large_rep) = fig4_shape(&fig4_points(&data));
    let mut out = Summary::new();
    out.set("le10_single_pct", st.le10_single_pct);
    out.set("zero_single", st.zero_single_pct);
    out.set("zero_union", st.zero_union_pct);
    out.set("reduction_pct", st.reduction_pct);
    out.set("fig4_small_result_rep", small_rep);
    out.set("fig4_large_result_rep", large_rep);
    out.set("total_messages", data.metrics.total_messages as f64);
    out.set("total_bytes", data.metrics.total_bytes as f64);
    out.set("events_processed", data.events.processed as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_expected_shapes() {
        let data = collect(Scale::Quick, DEFAULT_SEED, 1, &Obs::default());
        assert!(!data.per_query.is_empty());

        // Fig 4: big-result queries return clearly more-replicated content.
        let points = fig4_points(&data);
        let t4 = fig4(&data);
        assert_eq!(t4.rows.len(), points.len());
        assert!(t4.rows.len() >= 3, "need several size buckets");
        let (small, large) = fig4_shape(&points);
        assert!(
            large > small * 1.5,
            "popular bias missing: small-result rep {small:.2} vs large-result rep {large:.2}"
        );

        // Fig 5: union-of-N dominates single node (fewer small result sets).
        let t5 = fig5(&data);
        for row in &t5.rows {
            let single: f64 = row[1].parse().unwrap();
            let union: f64 = row[2].parse().unwrap();
            assert!(union <= single + 1e-9, "union CDF must lie below single-node");
        }

        // Summary: a meaningful zero-result reduction opportunity exists.
        let ts = summary(&data);
        let zero_single: f64 = ts.rows[1][1].parse().unwrap();
        let zero_union: f64 = ts.rows[2][1].parse().unwrap();
        assert!(zero_single > zero_union, "union must resolve some zero-result queries");
        assert!(zero_single >= 5.0, "workload must contain zero-result queries");

        // Fig 7: rare-result queries slower than huge-result ones.
        let t7 = fig7(&data);
        assert!(t7.rows.len() >= 3);
        let first_bucket: f64 = t7.rows[0][1].parse().unwrap();
        let last_bucket: f64 = t7.rows.last().unwrap()[1].parse().unwrap();
        assert!(
            first_bucket > last_bucket * 1.5,
            "rare items must be slower: {first_bucket} vs {last_bucket}"
        );
    }
}
