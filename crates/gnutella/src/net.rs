//! The network interface Gnutella cores are written against, mirroring
//! `pier_dht::DhtNet` so both protocol stacks can share one actor, and the
//! one adapter from a simulator context to it. The adapter and the stock
//! actors also run on a union message type (the hybrid network's) that
//! implements [`GnutellaCarrier`].

use crate::msg::GnutellaMsg;
use pier_netsim::{Ctx, MetricClass, NodeId, SimRng, SimTime};

/// How Gnutella protocol cores reach the network.
pub trait GnutellaNet {
    fn now(&self) -> SimTime;
    fn self_node(&self) -> NodeId;
    fn rng(&mut self) -> &mut SimRng;
    /// Send a protocol message; implementations account `msg.wire_size()`.
    fn send(&mut self, dst: NodeId, msg: GnutellaMsg);
    fn count(&mut self, class: MetricClass, n: u64);
    fn observe(&mut self, class: MetricClass, value: f64);
}

/// A simulation message type that carries Gnutella traffic, possibly beside
/// other protocols'. The stock [`crate::UltrapeerNode`] and
/// [`crate::LeafNode`] run on any carrier.
pub trait GnutellaCarrier: From<GnutellaMsg> {
    /// The Gnutella message inside, or the metric class under which a
    /// Gnutella-only node counts (and then drops) another protocol's
    /// message.
    fn into_gnutella(self) -> Result<GnutellaMsg, MetricClass>;
}

impl GnutellaCarrier for GnutellaMsg {
    fn into_gnutella(self) -> Result<GnutellaMsg, MetricClass> {
        Ok(self)
    }
}

/// Adapter from a `Ctx<M>` to [`GnutellaNet`], for any message type `M`
/// that can wrap a [`GnutellaMsg`].
pub struct CtxGnutellaNet<'a, M = GnutellaMsg> {
    pub ctx: &'a mut dyn Ctx<M>,
}

impl<M: From<GnutellaMsg>> GnutellaNet for CtxGnutellaNet<'_, M> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn self_node(&self) -> NodeId {
        self.ctx.self_id()
    }
    fn rng(&mut self) -> &mut SimRng {
        self.ctx.rng()
    }
    fn send(&mut self, dst: NodeId, msg: GnutellaMsg) {
        let size = msg.wire_size();
        let class = msg.class();
        self.ctx.send(dst, M::from(msg), size, class);
    }
    fn count(&mut self, class: MetricClass, n: u64) {
        self.ctx.count(class, n);
    }
    fn observe(&mut self, class: MetricClass, value: f64) {
        self.ctx.observe(class, value);
    }
}
