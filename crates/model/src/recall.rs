//! Trace-driven recall evaluation (§6.2–§6.3): average QR and QDR of a
//! hybrid system given which replicas are published into the DHT.

use crate::gnutella_pf::pf_gnutella_frac;

/// A query trace reduced to what the model needs: per-file replica counts
/// and, per query, the matching file indices.
pub struct TraceView {
    /// Replica count per distinct file.
    pub replicas: Vec<u32>,
    /// Per query: indices into `replicas` of the matching distinct files.
    /// Queries with no matches are retained (they contribute to zero-result
    /// statistics but are skipped by recall averages, which are undefined
    /// on empty result sets).
    pub queries: Vec<Vec<u32>>,
    /// Network size (hosts) the horizon fraction refers to.
    pub hosts: u64,
}

/// How many replicas of each file are published into the DHT. Produced by
/// the publishing schemes in [`crate::schemes`].
pub struct PublishedSet {
    pub per_file: Vec<u32>,
}

impl PublishedSet {
    /// Nothing published (pure Gnutella).
    pub fn none(files: usize) -> Self {
        PublishedSet { per_file: vec![0; files] }
    }

    /// Fraction of all instances published — the x-axis ("publishing
    /// overhead / budget") of Figures 10 and 13–15.
    pub fn overhead(&self, replicas: &[u32]) -> f64 {
        let pub_count: u64 = self.per_file.iter().map(|&k| k as u64).sum();
        let total: u64 = replicas.iter().map(|&r| r as u64).sum();
        if total == 0 {
            0.0
        } else {
            pub_count as f64 / total as f64
        }
    }
}

/// Equation 2 at one network size and horizon, evaluated at most once per
/// distinct replica count: [`pf_gnutella_frac`] is an O(horizon) loop whose
/// value depends on nothing else, and a trace asks for the same few counts
/// once per (query, matching file).
struct PfByReplicas {
    hosts: u64,
    horizon_frac: f64,
    /// Indexed by replica count; NaN = not evaluated yet.
    pf: Vec<f64>,
}

impl PfByReplicas {
    fn new(hosts: u64, horizon_frac: f64) -> Self {
        PfByReplicas { hosts, horizon_frac, pf: Vec::new() }
    }

    fn get(&mut self, r: u32) -> f64 {
        // Equation 2 clamps `r` to the network size, so the table can too.
        let i = (r as u64).min(self.hosts) as usize;
        if i >= self.pf.len() {
            self.pf.resize(i + 1, f64::NAN);
        }
        if self.pf[i].is_nan() {
            self.pf[i] = pf_gnutella_frac(self.hosts, self.horizon_frac, r as u64);
        }
        self.pf[i]
    }
}

impl TraceView {
    /// Average Query Recall: per query, the expected fraction of matching
    /// *instances* returned by the hybrid system; averaged over queries
    /// with at least one match.
    ///
    /// A published replica is always found (the DHT index is exact); an
    /// unpublished replica is found iff its host falls inside the flooding
    /// horizon, i.e. with probability `horizon_frac`.
    pub fn avg_qr(&self, horizon_frac: f64, published: &PublishedSet) -> f64 {
        assert_eq!(published.per_file.len(), self.replicas.len());
        let mut sum = 0.0;
        let mut counted = 0usize;
        for q in &self.queries {
            let mut found = 0.0;
            let mut total = 0.0;
            for &fi in q {
                let r = self.replicas[fi as usize] as f64;
                let k = (published.per_file[fi as usize] as f64).min(r);
                found += k + (r - k) * horizon_frac;
                total += r;
            }
            if total > 0.0 {
                sum += found / total;
                counted += 1;
            }
        }
        if counted == 0 {
            0.0
        } else {
            sum / counted as f64
        }
    }

    /// Average Query Distinct Recall: per query, the expected fraction of
    /// matching *distinct files* found. A file with any published replica
    /// is found with certainty (Equation 1 with PF_DHT = 1); otherwise with
    /// the Equation-2 flooding probability.
    pub fn avg_qdr(&self, horizon_frac: f64, published: &PublishedSet) -> f64 {
        assert_eq!(published.per_file.len(), self.replicas.len());
        let mut pf = PfByReplicas::new(self.hosts, horizon_frac);
        let mut sum = 0.0;
        let mut counted = 0usize;
        for q in &self.queries {
            if q.is_empty() {
                continue;
            }
            let mut found = 0.0;
            for &fi in q {
                let r = self.replicas[fi as usize];
                found += if published.per_file[fi as usize] > 0 { 1.0 } else { pf.get(r) };
            }
            sum += found / q.len() as f64;
            counted += 1;
        }
        if counted == 0 {
            0.0
        } else {
            sum / counted as f64
        }
    }

    /// Fraction of queries expected to return nothing: no file matched, or
    /// every matching file was both unpublished and missed by the flood.
    pub fn zero_result_fraction(&self, horizon_frac: f64, published: &PublishedSet) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        let mut pf = PfByReplicas::new(self.hosts, horizon_frac);
        let mut zero = 0.0;
        for q in &self.queries {
            let mut p_all_missed = 1.0;
            for &fi in q {
                let r = self.replicas[fi as usize];
                let p_found = if published.per_file[fi as usize] > 0 { 1.0 } else { pf.get(r) };
                p_all_missed *= 1.0 - p_found;
            }
            zero += p_all_missed; // empty query: product over nothing = 1
        }
        zero / self.queries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 files: a singleton, a pair, a 10-replica, a 100-replica; three
    /// queries touching different mixes.
    fn view() -> TraceView {
        TraceView {
            replicas: vec![1, 2, 10, 100],
            queries: vec![
                vec![0],          // rare only
                vec![3],          // popular only
                vec![0, 1, 2, 3], // mixed
                vec![],           // no match
            ],
            hosts: 1_000,
        }
    }

    #[test]
    fn no_publishing_recall_equals_horizon() {
        let v = view();
        let none = PublishedSet::none(4);
        // "when no items are published ... the average query recall is
        // equal to the percentage of nodes in the search horizon."
        for h in [0.05, 0.15, 0.30] {
            let qr = v.avg_qr(h, &none);
            assert!((qr - h).abs() < 1e-12, "h={h} qr={qr}");
        }
    }

    #[test]
    fn full_publishing_gives_full_recall() {
        let v = view();
        let all = PublishedSet { per_file: v.replicas.clone() };
        assert!((v.avg_qr(0.05, &all) - 1.0).abs() < 1e-12);
        assert!((v.avg_qdr(0.05, &all) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn publishing_rare_items_lifts_rare_queries_most() {
        let v = view();
        let none = PublishedSet::none(4);
        // Publish only the singleton (replica threshold 1).
        let t1 = PublishedSet { per_file: vec![1, 0, 0, 0] };
        let h = 0.05;
        // Query 0 (rare only) jumps from h to 1.
        let q0_before = v.avg_qdr(h, &none);
        let q0_after = v.avg_qdr(h, &t1);
        assert!(q0_after > q0_before);
        // QR gain: query 0 contributes 1.0 instead of 0.05.
        let qr = v.avg_qr(h, &t1);
        assert!(qr > v.avg_qr(h, &none) + 0.25, "large jump expected, got {qr}");
    }

    #[test]
    fn qdr_at_least_qr_for_perfect_publishing() {
        // Publishing by threshold makes QDR ≥ QR (duplicates don't help
        // QDR, but finding *one* replica suffices).
        let v = view();
        for t in 0..=10u32 {
            let per_file: Vec<u32> =
                v.replicas.iter().map(|&r| if r <= t { r } else { 0 }).collect();
            let p = PublishedSet { per_file };
            let qr = v.avg_qr(0.15, &p);
            let qdr = v.avg_qdr(0.15, &p);
            assert!(qdr >= qr - 1e-9, "t={t}: QDR {qdr} < QR {qr}");
        }
    }

    #[test]
    fn overhead_is_instance_mass() {
        let v = view();
        let t2 = PublishedSet { per_file: vec![1, 2, 0, 0] };
        // 3 published of 113 instances.
        assert!((t2.overhead(&v.replicas) - 3.0 / 113.0).abs() < 1e-12);
        assert_eq!(PublishedSet::none(4).overhead(&v.replicas), 0.0);
    }

    #[test]
    fn zero_results_drop_when_rare_published() {
        let v = view();
        let none = PublishedSet::none(4);
        let t1 = PublishedSet { per_file: vec![1, 0, 0, 0] };
        let h = 0.05;
        let before = v.zero_result_fraction(h, &none);
        let after = v.zero_result_fraction(h, &t1);
        assert!(after < before);
        // The empty query contributes 1/4 forever (nothing to find).
        assert!(after >= 0.25);
    }

    /// Equation 2 evaluated afresh for every (query, matching file), as
    /// `avg_qdr` and `zero_result_fraction` are defined.
    fn direct(v: &TraceView, h: f64, p: &PublishedSet) -> (f64, f64) {
        let p_found = |fi: u32| {
            if p.per_file[fi as usize] > 0 {
                1.0
            } else {
                pf_gnutella_frac(v.hosts, h, v.replicas[fi as usize] as u64)
            }
        };
        let (mut qdr_sum, mut counted, mut zero) = (0.0, 0usize, 0.0);
        for q in &v.queries {
            let mut found = 0.0;
            let mut p_all_missed = 1.0;
            for &fi in q {
                found += p_found(fi);
                p_all_missed *= 1.0 - p_found(fi);
            }
            zero += p_all_missed;
            if !q.is_empty() {
                qdr_sum += found / q.len() as f64;
                counted += 1;
            }
        }
        (qdr_sum / counted as f64, zero / v.queries.len() as f64)
    }

    #[test]
    fn one_evaluation_per_replica_count_is_bit_equal_to_direct() {
        // Repeated counts, counts past the network size (clamped), zero,
        // and a file reached by several queries.
        let v = TraceView {
            replicas: vec![1, 2, 2, 7, 1, 40, 0, 250, 5_000, u32::MAX],
            queries: vec![
                vec![0, 1, 2, 3],
                vec![4, 5, 6],
                vec![],
                vec![7, 8, 9, 0],
                vec![2, 2, 1],
                vec![6],
            ],
            hosts: 300,
        };
        for h in [0.0, 0.05, 0.15, 0.5, 1.0] {
            for published in [
                PublishedSet::none(v.replicas.len()),
                PublishedSet { per_file: vec![1, 0, 2, 0, 0, 0, 0, 3, 0, 0] },
                PublishedSet { per_file: v.replicas.clone() },
            ] {
                let (qdr, zero) = direct(&v, h, &published);
                assert_eq!(v.avg_qdr(h, &published).to_bits(), qdr.to_bits(), "qdr h={h}");
                assert_eq!(
                    v.zero_result_fraction(h, &published).to_bits(),
                    zero.to_bits(),
                    "zero h={h}"
                );
            }
        }
    }

    #[test]
    fn recall_monotone_in_threshold() {
        let v = view();
        let mut prev_qr = 0.0;
        let mut prev_qdr = 0.0;
        for t in 0..=100u32 {
            let per_file: Vec<u32> =
                v.replicas.iter().map(|&r| if r <= t { r } else { 0 }).collect();
            let p = PublishedSet { per_file };
            let qr = v.avg_qr(0.05, &p);
            let qdr = v.avg_qdr(0.05, &p);
            assert!(qr >= prev_qr - 1e-12);
            assert!(qdr >= prev_qdr - 1e-12);
            prev_qr = qr;
            prev_qdr = qdr;
        }
        assert!((prev_qr - 1.0).abs() < 1e-9, "threshold ≥ max replicas ⇒ full recall");
    }
}
