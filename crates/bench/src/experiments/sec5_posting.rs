//! The §5 posting-list experiment: replay queries over the inverted index
//! with the SHJ algorithm (smaller posting lists first) and compare the
//! posting entries shipped by rare-item queries vs. the average.
//!
//! The paper replayed 70,000 queries over 700,000 files and found that
//! queries returning ≤ 10 results ship ~7× fewer posting entries than the
//! average query.

use crate::experiments::Report;
use crate::lab::Scale;
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_trace::Obs;
use pier_workload::{Catalog, CatalogConfig, Evaluator, Query, QueryConfig, QueryTrace};
use std::collections::HashMap;

/// Posting entries shipped for one query by the ordered SHJ chain:
/// |L(1)| + |L(1)∩L(2)| + … + |∩ all| — lists are instance-level (every
/// replica publishes its own fileID), intersected smallest-first. The
/// distinct-file lists are `eval`'s posting runs over `catalog`.
pub fn shipped_entries(catalog: &Catalog, eval: &Evaluator, q: &Query) -> u64 {
    if q.terms.is_empty() {
        return 0;
    }
    let weight = |files: &[u32]| -> u64 {
        files.iter().map(|&i| catalog.files[i as usize].replicas() as u64).sum()
    };
    // Distinct-file posting lists with instance weights.
    let mut lists: Vec<(u64, &[u32])> = Vec::with_capacity(q.terms.len());
    for &t in &q.terms {
        let Some(l) = eval.posting(t) else {
            // The first stage scans an empty list: one empty stream.
            return 0;
        };
        lists.push((weight(l), l));
    }
    // Order by instance-weighted size, smallest first (the paper's
    // optimization); the sort is stable, so equal weights keep query order.
    lists.sort_by_key(|&(w, _)| w);
    let (first_weight, first) = lists[0];
    let mut shipped = first_weight;
    let mut current = first.to_vec();
    for &(_, l) in &lists[1..] {
        current.retain(|x| l.binary_search(x).is_ok());
        shipped += weight(&current);
        if current.is_empty() {
            break;
        }
    }
    shipped
}

/// Headline statistics of one posting-list replay.
pub struct PostingStats {
    /// `avg_all / avg_small`: how much cheaper ≤10-result queries join.
    pub factor: f64,
    pub avg_entries_all: f64,
    pub avg_entries_small: f64,
}

pub fn run(scale: Scale, _shards: usize, obs: &Obs) -> Report {
    Report { tables: vec![replay_with_seeds(scale, 0x5EC5, 0x55EC, obs).0], events: None }
}

/// One sweep trial: the §5 cost factor from a seeded catalog + trace.
///
/// Analytic model — `_shards` is accepted for the uniform sweep interface,
/// but there is no simulation kernel here to shard.
pub fn trial(scale: Scale, seed: u64, _shards: usize) -> Summary {
    let (_t, st) = replay_with_seeds(
        scale,
        pier_netsim::derive_seed(seed, 0x5EC5),
        pier_netsim::derive_seed(seed, 0x55EC),
        &Obs::default(),
    );
    let mut s = Summary::new();
    s.set("factor_all_over_le10", st.factor);
    s.set("avg_entries_all", st.avg_entries_all);
    s.set("avg_entries_le10", st.avg_entries_small);
    s
}

fn replay_with_seeds(
    scale: Scale,
    catalog_seed: u64,
    trace_seed: u64,
    obs: &Obs,
) -> (Table, PostingStats) {
    let (files, queries) = match scale {
        Scale::Quick | Scale::Sparse => (40_000usize, 7_000usize),
        // The paper's 700k files / 70k queries.
        Scale::Full => (700_000, 70_000),
        // Twice the paper's corpus — the `Evaluator`'s CSR posting index
        // keeps this in memory comfortably.
        Scale::Metro | Scale::MetroLite => (1_400_000, 140_000),
    };
    let stage = obs.phase("exp.sec5-posting.catalog");
    let catalog = Catalog::generate(CatalogConfig {
        hosts: files / 3,
        distinct_files: files / 4, // ×4 average replication ⇒ ~`files` instances
        max_replicas: (files / 40).max(100),
        vocab: (files / 12).max(2_000),
        phrases: (files / 40).max(500),
        seed: catalog_seed,
    });
    drop(stage);
    let stage = obs.phase("exp.sec5-posting.trace");
    let trace = QueryTrace::generate(&catalog, QueryConfig { queries, seed: trace_seed });
    drop(stage);
    let _stage = obs.phase("exp.sec5-posting.replay");
    let eval = Evaluator::new(&catalog);

    let mut small_ship = 0u64;
    let mut small_n = 0u64;
    let mut all_ship = 0u64;
    let mut all_n = 0u64;
    let mut by_bucket: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for q in &trace.queries {
        let results = eval.eval(q).instances;
        let shipped = shipped_entries(&catalog, &eval, q);
        all_ship += shipped;
        all_n += 1;
        if results <= 10 {
            small_ship += shipped;
            small_n += 1;
        }
        let bucket = match results {
            0 => "0",
            1..=10 => "1-10",
            11..=100 => "11-100",
            101..=1000 => "101-1000",
            _ => ">1000",
        };
        let e = by_bucket.entry(bucket).or_insert((0, 0));
        e.0 += shipped;
        e.1 += 1;
    }

    let avg_small = small_ship as f64 / small_n.max(1) as f64;
    let avg_all = all_ship as f64 / all_n.max(1) as f64;
    let factor = avg_all / avg_small.max(1.0);

    let mut t = Table::new(
        "Section 5: posting entries shipped by the SHJ (paper: ≤10-result queries ship 7× fewer than average)",
        &["query_class", "queries", "avg_entries_shipped"],
    );
    for bucket in ["0", "1-10", "11-100", "101-1000", ">1000"] {
        if let Some((ship, n)) = by_bucket.get(bucket) {
            t.row(vec![s(bucket), s(*n), f(*ship as f64 / (*n).max(1) as f64, 1)]);
        }
    }
    t.row(vec![s("ALL"), s(all_n), f(avg_all, 1)]);
    t.row(vec![s("factor all/≤10"), s(""), f(factor, 2)]);
    (t, PostingStats { factor, avg_entries_all: avg_all, avg_entries_small: avg_small })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rare_queries_ship_far_fewer_entries() {
        let (_, stats) = replay_with_seeds(Scale::Quick, 0x5EC5, 0x55EC, &Obs::default());
        let factor = stats.factor;
        assert!(
            factor > 2.0,
            "rare queries must be much cheaper to join (paper: 7×), got {factor}×"
        );
    }

    #[test]
    fn shipped_entries_manual_example() {
        // Tiny catalog where the arithmetic is checkable by hand.
        let catalog = Catalog::generate(CatalogConfig {
            hosts: 100,
            distinct_files: 60,
            max_replicas: 30,
            vocab: 60,
            phrases: 15,
            seed: 1,
        });
        let eval = Evaluator::new(&catalog);
        // Single-term query: shipped = that term's instance-weighted list.
        let f0 = &catalog.files[0];
        let term = f0.tokens[0];
        let q = Query { terms: vec![term] };
        let manual: u64 = catalog
            .files
            .iter()
            .filter(|df| df.tokens.contains(&term))
            .map(|df| df.replicas() as u64)
            .sum();
        assert_eq!(shipped_entries(&catalog, &eval, &q), manual);
        // Nonexistent term ships nothing.
        let qz = Query { terms: vec![pier_vocab::intern("zzznothing")] };
        assert_eq!(shipped_entries(&catalog, &eval, &qz), 0);
    }
}
