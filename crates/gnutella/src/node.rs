//! Simulator actors wrapping the protocol cores. Both run on any
//! [`GnutellaCarrier`] message type: on a plain Gnutella simulation, and as
//! the stock installed base of a network that also carries other protocols.

use crate::leaf::{LeafCore, LEAF_SEARCH_DEADLINE};
use crate::net::{CtxGnutellaNet, GnutellaCarrier};
use crate::ultrapeer::UltrapeerCore;
use pier_netsim::{Actor, Ctx, NodeId, SimDuration, TimerToken};

/// Timer token for the ultrapeer maintenance tick.
pub const UP_TICK: TimerToken = TimerToken(0x6E55);

/// Period of the ultrapeer maintenance tick.
pub const UP_TICK_INTERVAL: SimDuration = SimDuration::from_millis(400);

/// Timer token for a leaf search's one-shot deadline.
pub const LEAF_DEADLINE: TimerToken = TimerToken(0x1EAF);

/// An ultrapeer actor.
pub struct UltrapeerNode {
    pub core: UltrapeerCore,
}

impl UltrapeerNode {
    pub fn new(core: UltrapeerCore) -> Self {
        UltrapeerNode { core }
    }
}

impl<M: GnutellaCarrier> Actor<M> for UltrapeerNode {
    fn on_start(&mut self, ctx: &mut dyn Ctx<M>) {
        ctx.set_timer(UP_TICK_INTERVAL, UP_TICK);
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<M>, from: NodeId, msg: M) {
        match msg.into_gnutella() {
            Ok(msg) => self.core.on_message(&mut CtxGnutellaNet { ctx }, from, msg),
            Err(class) => ctx.count(class, 1),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<M>, token: TimerToken) {
        if token == UP_TICK {
            ctx.set_timer(UP_TICK_INTERVAL, UP_TICK);
            let mut net = CtxGnutellaNet { ctx };
            self.core.tick(&mut net);
        }
    }

    fn on_down(&mut self, _ctx: &mut dyn Ctx<M>) {
        self.core.end_session();
    }

    fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        self.core.mem_stats(acc);
    }
}

/// A leaf actor. Publishes its QRP filter on startup; arms a timer per search.
pub struct LeafNode {
    pub core: LeafCore,
}

impl LeafNode {
    pub fn new(core: LeafCore) -> Self {
        LeafNode { core }
    }

    /// [`LeafCore::start_search`], arming the search's one deadline timer.
    pub fn start_search<M: GnutellaCarrier>(
        &mut self,
        ctx: &mut dyn Ctx<M>,
        terms: impl Into<crate::Terms>,
    ) -> u32 {
        ctx.set_timer(LEAF_SEARCH_DEADLINE, LEAF_DEADLINE);
        self.core.start_search(&mut CtxGnutellaNet { ctx }, terms)
    }
}

impl<M: GnutellaCarrier> Actor<M> for LeafNode {
    fn on_start(&mut self, ctx: &mut dyn Ctx<M>) {
        let mut net = CtxGnutellaNet { ctx };
        self.core.publish_qrp(&mut net);
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<M>, from: NodeId, msg: M) {
        match msg.into_gnutella() {
            Ok(msg) => self.core.on_message(&mut CtxGnutellaNet { ctx }, from, msg),
            Err(class) => ctx.count(class, 1),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<M>, token: TimerToken) {
        if token == LEAF_DEADLINE {
            self.core.expire(&mut CtxGnutellaNet { ctx }, false);
        }
    }

    fn on_down(&mut self, ctx: &mut dyn Ctx<M>) {
        self.core.expire(&mut CtxGnutellaNet { ctx }, true);
    }

    fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        self.core.mem_stats(acc);
    }
}
