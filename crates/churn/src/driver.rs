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
use pier_netsim::{stream_rng, NodeId, Sim, SimTime};

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
    pub horizon: pier_netsim::SimDuration,
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
    /// departure lands in `[start, start + lifetime)` (staggered) or at
    /// `start + lifetime` (unstaggered), and down/up phases alternate
    /// until the horizon.
    pub fn plan(nodes: &[NodeId], plan: &ChurnPlan) -> ChurnDriver {
        let end = plan.start + plan.horizon;
        let mut events = Vec::new();
        for (i, &node) in nodes.iter().enumerate() {
            let mut rng = stream_rng(plan.seed, i as u64);
            let first = plan.session.lifetime.sample(&mut rng);
            let mut t = plan.start
                + if plan.session.stagger_first_session {
                    let phase: f64 = rand::Rng::random(&mut rng);
                    pier_netsim::SimDuration::from_secs_f64(first.as_secs_f64() * phase)
                } else {
                    first
                };
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
    use pier_netsim::{Actor, Ctx, SimConfig, SimDuration};

    struct Idle;
    impl Actor<()> for Idle {
        fn on_message(&mut self, _: &mut dyn Ctx<()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, _: &mut dyn Ctx<()>, _: pier_netsim::TimerToken) {}
    }

    fn fixed_plan(seed: u64) -> ChurnPlan {
        ChurnPlan {
            session: SessionConfig {
                lifetime: LifetimeDist::Fixed { secs: 10.0 },
                downtime: LifetimeDist::Fixed { secs: 5.0 },
                stagger_first_session: false,
            },
            start: SimTime::from_micros(1_000_000),
            horizon: SimDuration::from_secs(40),
            seed,
        }
    }

    #[test]
    fn schedule_alternates_and_respects_horizon() {
        let nodes = [NodeId::new(0), NodeId::new(1)];
        let d = ChurnDriver::plan(&nodes, &fixed_plan(1));
        // Per node: down at 11s, up at 16s, down at 26s, up at 31s (41s is
        // past the 1s+40s horizon).
        assert_eq!(d.events().len(), 8);
        let n0: Vec<&ChurnEvent> = d.events().iter().filter(|e| e.node == NodeId::new(0)).collect();
        assert_eq!(n0.len(), 4);
        assert!(!n0[0].up && n0[1].up && !n0[2].up && n0[3].up);
        assert_eq!(n0[0].at, SimTime::from_micros(11_000_000));
        assert_eq!(n0[3].at, SimTime::from_micros(31_000_000));
        let end = fixed_plan(1).start + fixed_plan(1).horizon;
        assert!(d.events().iter().all(|e| e.at < end));
    }

    #[test]
    fn planning_is_deterministic_and_per_node_stable() {
        let nodes: Vec<NodeId> = (0..8).map(NodeId::new).collect();
        let plan = ChurnPlan {
            session: SessionConfig::gnutella_median(SimDuration::from_secs(120)),
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
        d.advance(&mut sim, SimTime::from_micros(12_000_000), &mut ());
        assert!(!sim.is_up(ids[0]), "down at 11s");
        assert!(!sim.is_up(ids[1]));
        assert_eq!(sim.now(), SimTime::from_micros(12_000_000));
        d.advance(&mut sim, SimTime::from_micros(20_000_000), &mut ());
        assert!(sim.is_up(ids[0]), "revived at 16s");
        assert_eq!(d.remaining(), 4);
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
        let mut rec = Recorder { log: Vec::new() };
        d.advance(&mut sim, SimTime::from_micros(17_000_000), &mut rec);
        assert_eq!(rec.log, vec![(ids[0], false, false), (ids[0], true, true)]);
    }
}
