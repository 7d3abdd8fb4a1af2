//! Property tests for the session-lifetime sampler: clamped support
//! whatever the parameters, bit-determinism at a fixed seed, and sample
//! statistics that track the log-normal's analytic mean and median.

use pier_churn::session::{LifetimeDist, MAX_SAMPLE_S, MIN_SAMPLE_S};
use pier_netsim::stream_rng;
use proptest::prelude::*;

fn dist_from(a_milli: u32, b_milli: u32) -> LifetimeDist {
    // Parameters span degenerate-to-extreme shapes; built from integers
    // because the vendored proptest has integer strategies only.
    let a = a_milli as f64 / 1_000.0 + 0.001;
    let b = b_milli as f64 / 1_000.0 + 0.001;
    LifetimeDist { median_s: a * 300.0, sigma: b * 2.0 }
}

proptest! {
    #[test]
    fn samples_stay_in_clamped_support(
        a in 0u32..10_000,
        b in 0u32..10_000,
        seed in any::<u64>(),
    ) {
        let d = dist_from(a, b);
        let mut rng = stream_rng(seed, 0);
        for _ in 0..128 {
            let s = d.sample(&mut rng).as_secs_f64();
            prop_assert!(s.is_finite(), "{d:?} drew a non-finite sample");
            prop_assert!(
                (MIN_SAMPLE_S - 1e-9..=MAX_SAMPLE_S + 1e-6).contains(&s),
                "{d:?} drew {s} outside the clamp"
            );
        }
    }

    #[test]
    fn samples_are_deterministic_at_fixed_seed(
        a in 0u32..10_000,
        b in 0u32..10_000,
        seed in any::<u64>(),
    ) {
        let d = dist_from(a, b);
        let draw = |seed: u64| {
            let mut rng = stream_rng(seed, 1);
            (0..32).map(|_| d.sample(&mut rng)).collect::<Vec<_>>()
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }

    #[test]
    fn sample_mean_tracks_analytic_mean(
        // A moderate spread, so an 8k-draw mean converges.
        a in 100u32..3_000,
        seed in any::<u64>(),
    ) {
        let d = LifetimeDist { median_s: a as f64 / 10.0, sigma: 0.8 };
        let mean = d.median_s * (d.sigma * d.sigma / 2.0).exp();
        let mut rng = stream_rng(seed, 2);
        let n = 8_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng).as_secs_f64()).sum();
        let sample_mean = sum / n as f64;
        // Heavy-tailed: generous but meaningful tolerance.
        prop_assert!(
            (sample_mean / mean - 1.0).abs() < 0.25,
            "{d:?}: sample mean {sample_mean} vs analytic {mean}"
        );
    }

    #[test]
    fn sample_median_tracks_analytic_median(
        a in 100u32..3_000,
        b in 200u32..1_500,
        seed in any::<u64>(),
    ) {
        let d = LifetimeDist { median_s: a as f64 / 10.0, sigma: b as f64 / 1_000.0 };
        let mut rng = stream_rng(seed, 3);
        let mut v: Vec<f64> = (0..4_001).map(|_| d.sample(&mut rng).as_secs_f64()).collect();
        v.sort_by(f64::total_cmp);
        let median = v[v.len() / 2];
        prop_assert!(
            (median / d.median_s - 1.0).abs() < 0.15,
            "{d:?}: sample median {median} vs analytic {}",
            d.median_s
        );
    }
}
