//! Pluggable message-latency models.
//!
//! The paper's experiments ran on PlanetLab machines "on two continents";
//! every run here approximates those wide-area paths with
//! [`UniformLatency`] (the [`SimConfig`](crate::SimConfig) default draws
//! one-way delays uniformly from 20–80 ms), and unit tests that want hop
//! counts to map exactly onto time use [`ConstantLatency`].
//!
//! Every model must also report its [`LatencyModel::min_latency`]: the
//! sharded kernel advances shards in lockstep windows no wider than the
//! minimum cross-shard link latency, so a message sent in one window can
//! only arrive in a later one. A zero minimum would collapse the window to
//! nothing, so the kernel clamps both the window and every sampled delay
//! to `max(min_latency, 1µs)`.

use crate::actor::NodeId;
use crate::rng::SimRng;
use crate::time::SimDuration;
use rand::Rng;

/// Samples the one-way delivery latency for a message.
///
/// `Send + Sync` because the sharded kernel shares one model instance
/// across all shard worker threads (sampling takes `&self`; the RNG state
/// lives per node, not in the model).
pub trait LatencyModel: Send + Sync {
    /// One-way latency from `src` to `dst`.
    fn sample(&self, rng: &mut SimRng, src: NodeId, dst: NodeId) -> SimDuration;

    /// A lower bound on every value [`sample`](Self::sample) can return,
    /// over all `(src, dst)` pairs. This bounds the lockstep window of the
    /// sharded kernel, so it must be *strictly positive*; the kernel clamps
    /// it (and every sample) up to 1µs if a model under-reports.
    fn min_latency(&self) -> SimDuration;
}

/// Fixed latency for every message. Useful in unit tests where hop counts
/// should translate exactly into time.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLatency(pub SimDuration);

impl LatencyModel for ConstantLatency {
    fn sample(&self, _rng: &mut SimRng, _src: NodeId, _dst: NodeId) -> SimDuration {
        self.0
    }

    fn min_latency(&self) -> SimDuration {
        self.0
    }
}

/// Uniformly distributed latency in `[min, max]`.
#[derive(Clone, Copy, Debug)]
pub struct UniformLatency {
    pub min: SimDuration,
    pub max: SimDuration,
}

impl UniformLatency {
    pub fn new(min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "min must not exceed max");
        UniformLatency { min, max }
    }
}

impl LatencyModel for UniformLatency {
    fn sample(&self, rng: &mut SimRng, _src: NodeId, _dst: NodeId) -> SimDuration {
        let lo = self.min.as_micros();
        let hi = self.max.as_micros();
        SimDuration::from_micros(rng.random_range(lo..=hi))
    }

    fn min_latency(&self) -> SimDuration {
        self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    #[test]
    fn constant_is_constant() {
        let m = ConstantLatency(SimDuration::from_millis(5));
        let mut rng = stream_rng(0, 0);
        for _ in 0..10 {
            assert_eq!(
                m.sample(&mut rng, NodeId::new(0), NodeId::new(1)),
                SimDuration::from_millis(5)
            );
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let m = UniformLatency::new(SimDuration::from_millis(10), SimDuration::from_millis(20));
        let mut rng = stream_rng(1, 0);
        for _ in 0..1000 {
            let d = m.sample(&mut rng, NodeId::new(0), NodeId::new(1));
            assert!(d >= m.min && d <= m.max);
        }
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn uniform_rejects_inverted_bounds() {
        let _ = UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(10));
    }

    /// Every vendored model must declare a strictly positive `min_latency`
    /// in its documented configuration range, and no sample may ever fall
    /// below it — the sharded kernel's window safety argument rests on both.
    #[test]
    fn min_latency_is_positive_and_respected_by_samples() {
        let models: Vec<Box<dyn LatencyModel>> = vec![
            Box::new(ConstantLatency(SimDuration::from_millis(15))),
            Box::new(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(90),
            )),
        ];
        for (k, m) in models.iter().enumerate() {
            let floor = m.min_latency();
            assert!(
                floor > SimDuration::ZERO,
                "model #{k} reports a zero min_latency; the lockstep window would collapse"
            );
            let mut rng = stream_rng(7, k as u64);
            for i in 0..2000u32 {
                let d = m.sample(&mut rng, NodeId::new(i % 13), NodeId::new(i));
                assert!(d >= floor, "model #{k} sampled {d:?} below its declared floor {floor:?}");
            }
        }
    }
}
