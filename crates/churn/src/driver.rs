//! The churn driver: a deterministic join/leave schedule applied over the
//! simulation clock.
//!
//! The schedule is computed up front — per node, alternating lifetime and
//! downtime draws from an independent seeded stream — and then *applied*
//! by interleaving [`pier_netsim::Sim::run_until`] with
//! [`set_down`](pier_netsim::Sim::set_down) /
//! [`set_up`](pier_netsim::Sim::set_up) calls, so whole churned runs stay
//! bit-reproducible: the event list is a pure function of `(plan, seed)`,
//! and each event fires at an exact virtual time regardless of what the
//! simulated protocols are doing. After every membership change the
//! caller's [`ChurnHooks`] run with the simulation borrowed mutably.

use crate::session::SessionConfig;
use pier_netsim::{stream_rng, NodeId, Sim, SimDuration, SimTime};

/// One scheduled membership change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnEvent {
    pub at: SimTime,
    pub node: NodeId,
    /// `true` = the node rejoins, `false` = it leaves.
    pub up: bool,
}

/// Parameters of a churn schedule.
#[derive(Clone, Copy, Debug)]
pub struct ChurnPlan {
    pub session: SessionConfig,
    /// First virtual time at which anyone may leave (lets the experiment
    /// settle QRP / routing tables first).
    pub start: SimTime,
    /// No events are scheduled at or after `start + horizon`.
    pub horizon: SimDuration,
    /// Seed of the schedule; each node draws from its own derived stream,
    /// so adding or removing one churned node never perturbs another's
    /// session times.
    pub seed: u64,
}

/// Membership callbacks, run after each applied event. The node is
/// already down (`on_leave`) or back up (`on_join`) when the hook runs.
/// Implement on `()` for hook-free churn.
pub trait ChurnHooks<M> {
    fn on_leave(&mut self, _sim: &mut Sim<M>, _node: NodeId) {}
    fn on_join(&mut self, _sim: &mut Sim<M>, _node: NodeId) {}
}

impl<M> ChurnHooks<M> for () {}

/// A precomputed, time-ordered schedule of join/leave events plus a cursor
/// over how much of it has been applied.
pub struct ChurnDriver {
    events: Vec<ChurnEvent>,
    cursor: usize,
}

impl ChurnDriver {
    /// Plan sessions for `nodes`. Every node starts up; its first
    /// departure is drawn as `lifetime · U(0,1)` past `start` — sampling
    /// the node at a uniformly random point of an in-progress session, so
    /// the run starts in steady state instead of with a synchronized mass
    /// departure one full lifetime in. Down/up phases then alternate until
    /// the horizon.
    pub fn plan(nodes: &[NodeId], plan: &ChurnPlan) -> ChurnDriver {
        let end = plan.start + plan.horizon;
        let mut events = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let mut rng = stream_rng(plan.seed, i as u64);
            let first = plan.session.lifetime.sample(&mut rng);
            let phase: f64 = rand::Rng::random(&mut rng);
            let mut t = plan.start + SimDuration::from_secs_f64(first.as_secs_f64() * phase);
            let mut up = false; // first event is a departure
            while t < end {
                events.push(ChurnEvent { at: t, node, up });
                let dwell = if up {
                    plan.session.lifetime.sample(&mut rng)
                } else {
                    plan.session.downtime.sample(&mut rng)
                };
                t += dwell;
                up = !up;
            }
        }
        // Order by (time, node, direction): ties across nodes resolve by
        // id, making the applied sequence independent of input order.
        events.sort_by_key(|e| (e.at, e.node, e.up));
        ChurnDriver { events, cursor: 0 }
    }

    /// The full schedule (tests, diagnostics).
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Events not yet applied.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Apply all events with `at ≤ until`, advancing the simulation to
    /// each event time in order, then run the simulation to `until`.
    pub fn advance<M: Send + 'static>(
        &mut self,
        sim: &mut Sim<M>,
        until: SimTime,
        hooks: &mut impl ChurnHooks<M>,
    ) {
        while self.cursor < self.events.len() && self.events[self.cursor].at <= until {
            let ev = self.events[self.cursor];
            self.cursor += 1;
            sim.run_until(ev.at);
            if ev.up {
                sim.set_up(ev.node);
                hooks.on_join(sim, ev.node);
            } else {
                sim.set_down(ev.node);
                hooks.on_leave(sim, ev.node);
            }
        }
        sim.run_until(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::LifetimeDist;
    use pier_netsim::{Actor, Ctx, SimConfig};

    struct Idle;
    impl Actor<()> for Idle {
        fn on_message(&mut self, _: &mut dyn Ctx<()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, _: &mut dyn Ctx<()>, _: pier_netsim::TimerToken) {}
    }

    /// Sessions of exactly 10 s up and 5 s down: a log-normal with σ = 0
    /// draws its median every time.
    fn fixed_plan(seed: u64) -> ChurnPlan {
        ChurnPlan {
            session: SessionConfig {
                lifetime: LifetimeDist { median_s: 10.0, sigma: 0.0 },
                downtime: LifetimeDist { median_s: 5.0, sigma: 0.0 },
            },
            start: SimTime::from_micros(1_000_000),
            horizon: SimDuration::from_secs(40),
            seed,
        }
    }

    fn events_of(d: &ChurnDriver, node: NodeId) -> Vec<ChurnEvent> {
        d.events().iter().copied().filter(|e| e.node == node).collect()
    }

    #[test]
    fn schedule_alternates_and_respects_horizon() {
        let plan = fixed_plan(1);
        let end = plan.start + plan.horizon;
        let nodes = [NodeId::new(0), NodeId::new(1)];
        let d = ChurnDriver::plan(&nodes, &plan);
        for node in nodes {
            let ev = events_of(&d, node);
            // The first departure is staggered into the first 10 s session.
            assert!(ev[0].at >= plan.start && ev[0].at < plan.start + SimDuration::from_secs(10));
            // Then 5 s down, 10 s up, alternating, and nothing at or past
            // the horizon — but the next transition would be.
            for (k, e) in ev.iter().enumerate() {
                assert_eq!(e.up, k % 2 == 1, "{node:?} event {k}");
                if k > 0 {
                    let dwell = if e.up { 5 } else { 10 };
                    assert_eq!(e.at - ev[k - 1].at, SimDuration::from_secs(dwell));
                }
            }
            let last = ev[ev.len() - 1];
            assert!(last.at < end);
            assert!(last.at + SimDuration::from_secs(if last.up { 10 } else { 5 }) >= end);
        }
    }

    #[test]
    fn planning_is_deterministic_and_per_node_stable() {
        let nodes: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let plan = ChurnPlan {
            session: SessionConfig {
                lifetime: LifetimeDist { median_s: 120.0, sigma: 1.0 },
                downtime: LifetimeDist { median_s: 60.0, sigma: 0.75 },
            },
            start: SimTime::ZERO,
            horizon: SimDuration::from_secs(600),
            seed: 42,
        };
        let a = ChurnDriver::plan(&nodes, &plan);
        let b = ChurnDriver::plan(&nodes, &plan);
        assert_eq!(a.events(), b.events());
        // Dropping the last node leaves every other node's events intact.
        let c = ChurnDriver::plan(&nodes[..7], &plan);
        let a_without_7: Vec<&ChurnEvent> =
            a.events().iter().filter(|e| e.node != NodeId::new(7)).collect();
        let c_all: Vec<&ChurnEvent> = c.events().iter().collect();
        assert_eq!(a_without_7, c_all);
    }

    #[test]
    fn advance_applies_liveness_in_order() {
        let mut sim: Sim<()> = Sim::new(SimConfig::with_seed(5));
        let ids: Vec<NodeId> = (0..2).map(|_| sim.add_node(Idle)).collect();
        let mut d = ChurnDriver::plan(&ids, &fixed_plan(9));
        let schedule = d.events().to_vec();
        for e in &schedule[..4] {
            d.advance(&mut sim, e.at, &mut ());
            assert_eq!(sim.is_up(e.node), e.up, "{e:?}");
            assert_eq!(sim.now(), e.at);
            assert_eq!(d.remaining(), schedule.iter().filter(|l| l.at > e.at).count());
        }
        // The first departure of node 0 was followed by its revival 5 s on.
        let n0 = events_of(&d, ids[0]);
        d.advance(&mut sim, n0[1].at, &mut ());
        assert!(sim.is_up(ids[0]), "revived 5 s after leaving");
    }

    #[test]
    fn hooks_fire_after_the_membership_change() {
        struct Recorder {
            log: Vec<(NodeId, bool, bool)>, // (node, joined, observed_up)
        }
        impl ChurnHooks<()> for Recorder {
            fn on_leave(&mut self, sim: &mut Sim<()>, node: NodeId) {
                self.log.push((node, false, sim.is_up(node)));
            }
            fn on_join(&mut self, sim: &mut Sim<()>, node: NodeId) {
                self.log.push((node, true, sim.is_up(node)));
            }
        }
        let mut sim: Sim<()> = Sim::new(SimConfig::with_seed(5));
        let ids: Vec<NodeId> = (0..1).map(|_| sim.add_node(Idle)).collect();
        let mut d = ChurnDriver::plan(&ids, &fixed_plan(2));
        let rejoin = events_of(&d, ids[0])[1].at;
        let mut rec = Recorder { log: Vec::new() };
        d.advance(&mut sim, rejoin, &mut rec);
        assert_eq!(rec.log, vec![(ids[0], false, false), (ids[0], true, true)]);
    }
}
