//! Heavy-tailed samplers: Zipf ranks for term/phrase popularity and a
//! truncated discrete power law for file replication counts.
//!
//! Implemented in-repo (inverse-CDF over precomputed cumulative weights)
//! because no distribution crate is on the allowed dependency list; at the
//! dictionary sizes used here the tables are small and sampling is a
//! binary search.

use rand::Rng;

/// Zipf-distributed ranks in `0..n`: P(k) ∝ (k+1)^-s.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty support");
        assert!(s >= 0.0 && s.is_finite());
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Sample a rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }

    /// P(rank = k).
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// Truncated discrete power law on `1..=max`: P(r) ∝ r^-beta. Used for the
/// per-file replica counts whose long tail drives the whole paper.
#[derive(Clone, Debug)]
pub struct PowerLaw {
    cdf: Vec<f64>,
    beta: f64,
}

impl PowerLaw {
    pub fn new(max: usize, beta: f64) -> Self {
        assert!(max >= 1);
        assert!(beta.is_finite() && beta >= 0.0);
        let mut cdf = Vec::with_capacity(max);
        let mut acc = 0.0;
        for r in 1..=max {
            acc += (r as f64).powf(-beta);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        PowerLaw { cdf, beta }
    }

    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Sample a replica count in `1..=max`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.random();
        // Clamp to the end of the CDF (as `Zipf::sample` does): float
        // normalization can leave `cdf.last()` a hair below 1.0, and a draw
        // above it would otherwise step past the support to `max + 1`.
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1) + 1
    }

    /// P(R = r).
    pub fn pmf(&self, r: usize) -> f64 {
        assert!(r >= 1 && r <= self.cdf.len());
        if r == 1 {
            self.cdf[0]
        } else {
            self.cdf[r - 1] - self.cdf[r - 2]
        }
    }

    /// E\[R\].
    pub fn mean(&self) -> f64 {
        (1..=self.cdf.len()).map(|r| r as f64 * self.pmf(r)).sum()
    }

    /// Fraction of *instances* (replicas) that belong to files with exactly
    /// one replica: `P(1) / E[R]`. This is the quantity the paper pins at
    /// ≈23% (Fig. 10 at replica threshold 1).
    pub fn singleton_instance_mass(&self) -> f64 {
        self.pmf(1) / self.mean()
    }

    /// Fraction of instances belonging to files with `R ≤ t` — the Fig. 10
    /// publishing-overhead curve.
    pub fn instance_mass_at_most(&self, t: usize) -> f64 {
        let num: f64 = (1..=t.min(self.cdf.len())).map(|r| r as f64 * self.pmf(r)).sum();
        num / self.mean()
    }
}

/// Find `beta` such that the singleton instance mass matches `target`
/// (the paper's 23%). Monotone in beta, so bisection converges fast.
pub fn calibrate_beta(max: usize, target: f64) -> f64 {
    assert!((0.01..0.95).contains(&target));
    let (mut lo, mut hi) = (0.01f64, 6.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if PowerLaw::new(max, mid).singleton_instance_mass() < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_netsim::stream_rng;

    #[test]
    fn zipf_pmf_sums_to_one_and_is_decreasing() {
        let z = Zipf::new(100, 1.0);
        let total: f64 = (0..100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..100 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_sampling_tracks_pmf() {
        let z = Zipf::new(50, 1.2);
        let mut rng = stream_rng(10, 0);
        let mut counts = [0u32; 50];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 should appear ~pmf(0) of the time.
        let observed = counts[0] as f64 / n as f64;
        let expected = z.pmf(0);
        assert!((observed - expected).abs() < 0.01, "{observed} vs {expected}");
        // Monotone-ish head.
        assert!(counts[0] > counts[5]);
        assert!(counts[1] > counts[20]);
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn power_law_mass_functions() {
        let p = PowerLaw::new(1000, 2.0);
        let total: f64 = (1..=1000).map(|r| p.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(p.mean() > 1.0);
        let m1 = p.instance_mass_at_most(1);
        assert!((m1 - p.singleton_instance_mass()).abs() < 1e-12);
        assert!((p.instance_mass_at_most(1000) - 1.0).abs() < 1e-9);
        // Monotone in t.
        let mut prev = 0.0;
        for t in 1..=20 {
            let m = p.instance_mass_at_most(t);
            assert!(m >= prev);
            prev = m;
        }
    }

    #[test]
    fn calibration_hits_papers_23_percent() {
        let beta = calibrate_beta(1000, 0.23);
        let p = PowerLaw::new(1000, beta);
        let mass = p.singleton_instance_mass();
        assert!((mass - 0.23).abs() < 0.005, "calibrated mass {mass} (beta {beta})");
        // And the rest of the Fig. 10 shape: diminishing growth.
        let d1 = p.instance_mass_at_most(2) - p.instance_mass_at_most(1);
        let d10 = p.instance_mass_at_most(11) - p.instance_mass_at_most(10);
        assert!(d1 > d10, "increments must diminish");
    }

    #[test]
    fn power_law_sampling_matches_singleton_mass() {
        let beta = calibrate_beta(500, 0.23);
        let p = PowerLaw::new(500, beta);
        let mut rng = stream_rng(11, 0);
        let mut singles = 0u64;
        let mut instances = 0u64;
        for _ in 0..100_000 {
            let r = p.sample(&mut rng) as u64;
            instances += r;
            if r == 1 {
                singles += 1;
            }
        }
        let mass = singles as f64 / instances as f64;
        assert!((mass - 0.23).abs() < 0.02, "sampled singleton mass {mass}");
    }
}
