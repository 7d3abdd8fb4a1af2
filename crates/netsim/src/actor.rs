//! The actor abstraction: simulated processes and their interface to the
//! simulation kernel.

use crate::metrics::MetricClass;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// Identifies a node (actor) in the simulation. Dense indices, assigned in
/// `add_node` order. Plays the role of an (IP address, port) pair.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Construct from a dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw u32 form (for hashing into DHT identifier space).
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An opaque timer handle chosen by the actor when arming a timer; it is
/// returned verbatim in [`Actor::on_timer`] so the actor can demultiplex.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerToken(pub u64);

/// The kernel services available to an actor while it is handling an event.
///
/// Protocol state machines in the higher crates are written against this
/// trait (not against [`crate::Sim`] directly), which lets several protocol
/// cores be composed inside one actor — exactly how the paper's hybrid
/// ultrapeer runs LimeWire and PIER side by side in one process.
pub trait Ctx<M> {
    /// Current virtual time.
    fn now(&self) -> SimTime;

    /// The id of the node whose handler is running.
    fn self_id(&self) -> NodeId;

    /// Send `msg` to `dst`. `wire_bytes` is the size accounted to the
    /// network (application-level bytes including protocol headers);
    /// `class` labels the message for metrics — an interned
    /// [`MetricClass`] id, resolved once per call-site (see
    /// [`crate::LazyMetricClass`] and the `metric_classes!` macro).
    ///
    /// Delivery latency is drawn from the simulation's latency model.
    /// Messages to nodes that are down are silently dropped, as on a real
    /// network.
    fn send(&mut self, dst: NodeId, msg: M, wire_bytes: usize, class: MetricClass);

    /// Arm a one-shot timer that fires after `delay` with the given token.
    fn set_timer(&mut self, delay: SimDuration, token: TimerToken);

    /// This node's deterministic RNG stream.
    fn rng(&mut self) -> &mut SimRng;

    /// Increment a metric counter by `n` (for protocol-level stats that
    /// are not message sends).
    fn count(&mut self, class: MetricClass, n: u64);

    /// Record a sample in a histogram metric.
    fn observe(&mut self, class: MetricClass, value: f64);
}

/// A simulated process. `M` is the simulation-wide message type; higher
/// crates define union enums when one actor speaks several protocols.
pub trait Actor<M> {
    /// Called once when the node first starts.
    fn on_start(&mut self, _ctx: &mut dyn Ctx<M>) {}

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, ctx: &mut dyn Ctx<M>, from: NodeId, msg: M);

    /// Called when a timer armed by this node fires. Timers armed before a
    /// node goes down are cancelled.
    fn on_timer(&mut self, ctx: &mut dyn Ctx<M>, token: TimerToken);

    /// Called when the node is taken down by the churn model. Default: no-op.
    /// Session-scoped protocol state (a DHT replica store, in-flight RPCs,
    /// reverse-path tables) should be dropped here: a leaving peer takes its
    /// soft state with it, and `on_down` is the only signal it gets.
    fn on_down(&mut self, _ctx: &mut dyn Ctx<M>) {}

    /// Called when the node is revived after churn ([`crate::Sim::set_up`]).
    ///
    /// Going down cancels every pending timer (epoch bump), so a revived
    /// node that does not re-arm its maintenance timers here silently loses
    /// its refresh/repair loops for the rest of the run. The default
    /// delegates to [`Actor::on_start`], which is the correct re-arm for
    /// actors whose startup is idempotent; override it when revival must
    /// differ from a cold start (e.g. re-joining an overlay through an
    /// already-warm routing table instead of a bootstrap contact).
    fn on_revive(&mut self, ctx: &mut dyn Ctx<M>) {
        self.on_start(ctx);
    }

    /// Report this node's heap footprint into the per-subsystem accumulator
    /// (see [`crate::Sim::mem_stats`] and [`crate::HeapSize`]). Default:
    /// reports nothing — actors opt in subsystem by subsystem.
    fn mem_stats(&self, _acc: &mut crate::heap::MemAcc) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.raw(), 17);
        assert_eq!(format!("{id}"), "n17");
        assert_eq!(format!("{id:?}"), "n17");
    }

    #[test]
    fn node_id_ordering_is_index_order() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
