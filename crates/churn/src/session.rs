//! Session-lifetime and downtime sampler.
//!
//! Measurement studies of deployed Gnutella (Saroiu et al., Chu et al.)
//! consistently find heavy-tailed session lengths with median lifetimes of
//! minutes to tens of minutes: most sessions are short, a few last many
//! hours. The §5 publishing analysis keys off exactly this quantity — a
//! soft-state refresh interval only keeps postings alive if it undercuts
//! the median session. The sampler here is a log-normal parameterized by
//! its *median* (the robust statistic the measurement papers report) and
//! draws exclusively from the trial's seeded RNG stream, so a churn
//! schedule is a pure function of `(config, seed)`.

use pier_netsim::{SimDuration, SimRng};
use rand::Rng;

/// A log-normal duration distribution: the median is exactly `median_s`;
/// `sigma` widens the tail (σ ≈ 1 matches the order-of-magnitude spread
/// of measured Gnutella sessions, and σ = 0 draws the median every time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LifetimeDist {
    pub median_s: f64,
    pub sigma: f64,
}

impl LifetimeDist {
    /// Draw one duration (Box–Muller over the seeded stream: two uniforms
    /// → one standard normal). Samples are clamped to `[1 ms, 30 days]` —
    /// a support guard, not a statistical one: the clamp only triggers on
    /// the extreme tail of legal parameterizations.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        let z = (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let secs = self.median_s * (self.sigma * z).exp();
        SimDuration::from_secs_f64(secs.clamp(MIN_SAMPLE_S, MAX_SAMPLE_S))
    }
}

/// Clamp bounds of [`LifetimeDist::sample`], in seconds.
pub const MIN_SAMPLE_S: f64 = 0.001;
pub const MAX_SAMPLE_S: f64 = 30.0 * 24.0 * 3600.0;

/// One node population's session behaviour: how long it stays up and how
/// long it stays away.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionConfig {
    /// Up-time per session.
    pub lifetime: LifetimeDist,
    /// Down-time between sessions.
    pub downtime: LifetimeDist,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_netsim::stream_rng;

    fn draws(dist: LifetimeDist, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = stream_rng(seed, 0);
        (0..n).map(|_| dist.sample(&mut rng).as_secs_f64()).collect()
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let d = LifetimeDist { median_s: 120.0, sigma: 1.0 };
        assert_eq!(draws(d, 64, 7), draws(d, 64, 7));
        assert_ne!(draws(d, 64, 7), draws(d, 64, 8));
    }

    #[test]
    fn medians_match_analytic_values() {
        for d in [
            LifetimeDist { median_s: 300.0, sigma: 1.0 },
            LifetimeDist { median_s: 42.0, sigma: 0.0 },
        ] {
            let mut v = draws(d, 6_000, 11);
            v.sort_by(f64::total_cmp);
            let median = v[v.len() / 2];
            assert!(
                (median / d.median_s - 1.0).abs() < 0.1,
                "{d:?}: sample median {median} vs analytic {}",
                d.median_s
            );
        }
    }
}
