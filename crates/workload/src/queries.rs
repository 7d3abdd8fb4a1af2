//! Query-trace generation and ground-truth evaluation.
//!
//! Queries are built from catalog filenames the way real users type them:
//! a contiguous window of a target file's tokens. The mix is tuned so that
//! a substantial fraction of queries target the long tail — the regime the
//! paper's measurements highlight (41% of queries returned ≤ 10 results).

use crate::catalog::Catalog;
use pier_netsim::stream_rng;
use pier_vocab::{intern, join_text, TermId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Probability a query targets a file drawn by *instance mass*
/// (popularity-biased, like download-driven queries); otherwise the target
/// is a uniformly random distinct file (tail-biased).
const POPULAR_BIAS: f64 = 0.35;
/// Probability of a typo/garbage query matching nothing.
const MISS_RATE: f64 = 0.06;
/// Window of tokens taken from the target filename: min..=max.
const TERMS_MIN: usize = 1;
const TERMS_MAX: usize = 3;

/// Query-trace generation parameters.
#[derive(Clone, Debug)]
pub struct QueryConfig {
    pub queries: usize,
    pub seed: u64,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig { queries: 700, seed: 0x9E3 }
    }
}

/// One query: a list of interned term ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    pub terms: Vec<TermId>,
}

impl Query {
    /// The space-joined query text (resolves through the term table).
    pub fn text(&self) -> String {
        join_text(&self.terms)
    }
}

/// A generated query trace.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    pub config: QueryConfig,
    pub queries: Vec<Query>,
}

impl QueryTrace {
    pub fn generate(catalog: &Catalog, config: QueryConfig) -> QueryTrace {
        let mut rng = stream_rng(config.seed, 2);
        // Instance-mass-weighted sampling: repeat each file index by a
        // coarse weight. (Exact weighting is unnecessary; the head is what
        // matters.) Build a cumulative table instead for exactness.
        let mut cum: Vec<u64> = Vec::with_capacity(catalog.files.len());
        let mut acc = 0u64;
        for f in &catalog.files {
            acc += f.replicas() as u64;
            cum.push(acc);
        }

        let mut queries = Vec::with_capacity(config.queries);
        while queries.len() < config.queries {
            if rng.random_bool(MISS_RATE) {
                // A query nothing matches (typos, unshared content).
                queries.push(Query {
                    terms: vec![intern(&format!(
                        "zxq{}nomatch",
                        rng.random_range(0..1_000_000u32)
                    ))],
                });
                continue;
            }
            let target = if rng.random_bool(POPULAR_BIAS) {
                let u = rng.random_range(0..acc);
                cum.partition_point(|c| *c <= u)
            } else {
                rng.random_range(0..catalog.files.len())
            };
            let tokens = &catalog.files[target].tokens;
            // Skip the extension token (last) when windowing; users do not
            // type ".mp3".
            let usable = tokens.len().saturating_sub(1).max(1);
            let want = rng.random_range(TERMS_MIN..=TERMS_MAX).min(usable);
            let start = rng.random_range(0..=usable - want);
            let terms: Vec<TermId> = tokens[start..start + want].to_vec();
            if terms.is_empty() {
                continue;
            }
            queries.push(Query { terms });
        }
        QueryTrace { config, queries }
    }

    pub fn len(&self) -> usize {
        self.queries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Ground truth for one query against a catalog.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GroundTruth {
    /// Distinct matching files (catalog indices).
    pub files: Vec<u32>,
    /// Total matching instances (sum of replica counts).
    pub instances: u64,
}

/// Fast ground-truth evaluator: term-id → files index with smallest-list
/// intersection (the same trick PIERSearch's optimizer uses).
///
/// The index is CSR-shaped: one sorted term column, one offset column, and
/// one concatenated posting arena (ascending file indices per term). Built
/// in two passes over the catalog; lookups are a binary search returning a
/// borrowed slice — no hashing, no per-term `Vec` headers.
pub struct Evaluator<'a> {
    catalog: &'a Catalog,
    /// Distinct indexed terms, ascending. Parallel with `starts`.
    terms: Box<[TermId]>,
    /// `starts[r]..starts[r + 1]` is term rank `r`'s run in `postings`.
    starts: Box<[u32]>,
    /// Concatenated posting runs: catalog file indices, ascending per run.
    postings: Box<[u32]>,
}

/// Is `tokens[j]` the first occurrence of its term within `tokens`?
/// (Names repeat tokens; each file posts at most once per term.)
fn first_occurrence(tokens: &[TermId], j: usize) -> bool {
    !tokens[..j].contains(&tokens[j])
}

impl<'a> Evaluator<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        // Pass 1: one entry per (file, distinct term); sorted runs give
        // the term column and each run's posting count.
        let mut occ: Vec<TermId> = Vec::new();
        for f in &catalog.files {
            for j in 0..f.tokens.len() {
                if first_occurrence(&f.tokens, j) {
                    occ.push(f.tokens[j]);
                }
            }
        }
        occ.sort_unstable();
        let mut terms: Vec<TermId> = Vec::new();
        let mut starts: Vec<u32> = vec![0];
        let mut i = 0;
        while i < occ.len() {
            let mut j = i;
            while j < occ.len() && occ[j] == occ[i] {
                j += 1;
            }
            terms.push(occ[i]);
            starts.push(*starts.last().unwrap() + (j - i) as u32);
            i = j;
        }
        // Pass 2: fill each term's run in file order (so runs ascend), in
        // `occ`'s buffer: the two are never needed at once, and the
        // evaluator is built where a flood replay's memory peaks.
        let mut cursors: Vec<u32> = starts[..terms.len()].to_vec();
        let mut postings: Vec<u32> = occ.into_iter().map(|_| 0).collect();
        for (i, f) in catalog.files.iter().enumerate() {
            for j in 0..f.tokens.len() {
                if first_occurrence(&f.tokens, j) {
                    let r = terms.binary_search(&f.tokens[j]).unwrap();
                    postings[cursors[r] as usize] = i as u32;
                    cursors[r] += 1;
                }
            }
        }
        Evaluator {
            catalog,
            terms: terms.into_boxed_slice(),
            starts: starts.into_boxed_slice(),
            postings: postings.into_boxed_slice(),
        }
    }

    /// The posting run for a term: ascending catalog file indices.
    /// Allocation-free (a borrowed slice into the arena).
    pub fn posting(&self, t: TermId) -> Option<&[u32]> {
        let r = self.terms.binary_search(&t).ok()?;
        Some(&self.postings[self.starts[r] as usize..self.starts[r + 1] as usize])
    }

    /// All files matching the query, with instance counts.
    pub fn eval(&self, query: &Query) -> GroundTruth {
        if query.terms.is_empty() {
            return GroundTruth::default();
        }
        // Seed candidates from the smallest posting run, then intersect
        // the others into it (runs are sorted, so by binary search). The
        // only allocation is the result buffer itself.
        let mut smallest: Option<&[u32]> = None;
        for t in &query.terms {
            match self.posting(*t) {
                Some(l) if smallest.is_none_or(|s: &[u32]| l.len() < s.len()) => smallest = Some(l),
                Some(_) => {}
                None => return GroundTruth::default(),
            }
        }
        let smallest = smallest.unwrap();
        let mut candidates: Vec<u32> = smallest.to_vec();
        for t in &query.terms {
            let l = self.posting(*t).unwrap();
            if std::ptr::eq(l.as_ptr(), smallest.as_ptr()) {
                continue;
            }
            candidates.retain(|c| l.binary_search(c).is_ok());
            if candidates.is_empty() {
                return GroundTruth::default();
            }
        }
        // Every candidate is in every query term's posting, so each query
        // term is one of its tokens: it matches as the network's matcher
        // would (`tests/proptests.rs` holds this against a brute-force
        // scan).
        let instances =
            candidates.iter().map(|&c| self.catalog.files[c as usize].replicas() as u64).sum();
        GroundTruth { files: candidates, instances }
    }
}

/// Pick `n` distinct vantage hosts (for Union-of-N experiments).
pub fn vantage_hosts(total_hosts: usize, n: usize, seed: u64) -> Vec<u32> {
    let mut rng = stream_rng(seed, 3);
    let mut all: Vec<u32> = (0..total_hosts as u32).collect();
    all.shuffle(&mut rng);
    all.truncate(n);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;

    fn setup() -> (Catalog, QueryTrace) {
        let catalog = Catalog::generate(CatalogConfig {
            hosts: 1_000,
            distinct_files: 3_000,
            max_replicas: 300,
            vocab: 1_500,
            phrases: 500,
            seed: 7,
        });
        let trace =
            QueryTrace::generate(&catalog, QueryConfig { queries: 500, ..Default::default() });
        (catalog, trace)
    }

    #[test]
    fn queries_generated_deterministically() {
        let (catalog, t1) = setup();
        let t2 = QueryTrace::generate(&catalog, QueryConfig { queries: 500, ..Default::default() });
        assert_eq!(t1.queries, t2.queries);
        assert_eq!(t1.len(), 500);
    }

    #[test]
    fn non_miss_queries_match_their_target() {
        let (catalog, trace) = setup();
        let eval = Evaluator::new(&catalog);
        let matched = trace.queries.iter().filter(|q| !eval.eval(q).files.is_empty()).count();
        let frac = matched as f64 / trace.len() as f64;
        // MISS_RATE 6%: ~94% of queries must match something.
        assert!((0.90..=0.97).contains(&frac), "matching fraction {frac} out of calibration");
    }

    #[test]
    fn result_size_distribution_is_long_tailed() {
        let (catalog, trace) = setup();
        let eval = Evaluator::new(&catalog);
        let sizes: Vec<u64> = trace.queries.iter().map(|q| eval.eval(q).instances).collect();
        let small = sizes.iter().filter(|s| **s <= 10).count() as f64 / sizes.len() as f64;
        let zero = sizes.iter().filter(|s| **s == 0).count() as f64 / sizes.len() as f64;
        let big = sizes.iter().filter(|s| **s > 100).count() as f64 / sizes.len() as f64;
        // The paper's workload shape: many rare-item queries (41% ≤ 10), a
        // nontrivial zero bucket, and a popular head.
        assert!((0.2..0.7).contains(&small), "≤10-result fraction {small}");
        assert!(zero >= 0.04, "zero-result fraction {zero}");
        assert!(big > 0.02, "large-result fraction {big}");
    }

    #[test]
    fn df_reflects_postings() {
        let (catalog, _) = setup();
        let eval = Evaluator::new(&catalog);
        let t = catalog.files[0].tokens[0];
        assert!(eval.posting(t).is_some_and(|p| p.contains(&0)));
        assert_eq!(pier_vocab::lookup("zzzznotaterm").and_then(|id| eval.posting(id)), None);
    }

    #[test]
    fn vantage_hosts_distinct() {
        let v = vantage_hosts(100, 30, 5);
        let set: std::collections::BTreeSet<_> = v.iter().collect();
        assert_eq!(set.len(), 30);
        assert_eq!(vantage_hosts(100, 30, 5), v, "deterministic");
    }
}
