//! `DhtNode`: a ready-made simulator actor wrapping [`DhtCore`] plus a
//! pluggable application.

use crate::contact::Contact;
use crate::core::{DhtCore, DhtEvent, DhtNet};
use crate::msg::DhtMsg;
use pier_netsim::{Actor, Ctx, MetricClass, NodeId, SimRng, SimTime, TimerToken};

/// Token used for the periodic maintenance tick.
pub const TICK_TOKEN: TimerToken = TimerToken(0xD417);

/// Application layered on a DHT node: receives events and may issue new
/// operations through the core.
pub trait DhtApp {
    /// Handle one DHT event. `dht` allows local reads and follow-up
    /// operations; `net` reaches the network.
    fn on_event(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, event: DhtEvent);

    /// Called on every maintenance tick after core maintenance. Default:
    /// nothing.
    fn on_tick(&mut self, _dht: &mut DhtCore, _net: &mut dyn DhtNet) {}

    /// Called once when the node starts (before joining). Default: nothing.
    fn on_start(&mut self, _dht: &mut DhtCore, _net: &mut dyn DhtNet) {}

    /// Report this app's heap use by subsystem. Default: nothing.
    fn mem_stats(&self, _acc: &mut pier_netsim::MemAcc) {}
}

/// A no-op application: the node is a pure storage/routing participant.
pub struct NullApp;

impl DhtApp for NullApp {
    fn on_event(&mut self, _dht: &mut DhtCore, _net: &mut dyn DhtNet, _event: DhtEvent) {}
}

/// Adapter from a `Ctx<M>` to [`DhtNet`], for any message type `M` that can
/// wrap a [`DhtMsg`]: a plain DHT simulation, or a union network where DHT
/// traffic travels beside other protocols'.
pub struct CtxNet<'a, M = DhtMsg> {
    pub ctx: &'a mut dyn Ctx<M>,
}

impl<M: From<DhtMsg>> DhtNet for CtxNet<'_, M> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }
    fn self_node(&self) -> NodeId {
        self.ctx.self_id()
    }
    fn rng(&mut self) -> &mut SimRng {
        self.ctx.rng()
    }
    fn send_dht(&mut self, dst: NodeId, msg: DhtMsg, wire_bytes: usize, class: MetricClass) {
        self.ctx.send(dst, M::from(msg), wire_bytes, class);
    }
    fn count(&mut self, class: MetricClass, n: u64) {
        self.ctx.count(class, n);
    }
    fn observe(&mut self, class: MetricClass, value: f64) {
        self.ctx.observe(class, value);
    }
}

/// A simulator actor hosting one DHT node and its application.
pub struct DhtNode<A> {
    pub core: DhtCore,
    pub app: A,
    bootstrap: Option<Contact>,
}

impl<A: DhtApp> DhtNode<A> {
    /// `bootstrap = None` makes this the first node of the overlay.
    pub fn new(core: DhtCore, app: A, bootstrap: Option<Contact>) -> Self {
        DhtNode { core, app, bootstrap }
    }

    /// Handle one incoming DHT message, then run the events it raised
    /// through the app.
    pub fn deliver(&mut self, net: &mut dyn DhtNet, msg: DhtMsg) {
        self.core.on_message(net, msg);
        self.drain_events(net);
    }

    /// One maintenance tick: core maintenance, then the app's tick, then
    /// the events both raised. The host re-arms the timer.
    pub fn tick(&mut self, net: &mut dyn DhtNet) {
        self.core.tick(net);
        self.app.on_tick(&mut self.core, net);
        self.drain_events(net);
    }

    /// Re-prime the routing table after a revival (see
    /// [`DhtCore::revive`]). The host re-arms the timer.
    pub fn revive(&mut self, net: &mut dyn DhtNet) {
        self.core.revive(net);
        self.drain_events(net);
    }

    fn drain_events(&mut self, net: &mut dyn DhtNet) {
        // Events may cascade: an app handler can trigger operations that
        // complete synchronously (e.g. lookups on empty tables).
        loop {
            let events = self.core.take_events();
            if events.is_empty() {
                break;
            }
            for ev in events {
                self.app.on_event(&mut self.core, net, ev);
            }
        }
    }
}

/// The stand-alone actor. Another actor can host a `DhtNode` instead (the
/// hybrid ultrapeer does): it arms [`TICK_TOKEN`] itself and calls
/// [`DhtNode::deliver`], [`DhtNode::tick`] and [`DhtNode::revive`].
impl<A: DhtApp + 'static> Actor<DhtMsg> for DhtNode<A> {
    fn on_start(&mut self, ctx: &mut dyn Ctx<DhtMsg>) {
        let tick = self.core.config().tick;
        ctx.set_timer(tick, TICK_TOKEN);
        let mut net = CtxNet { ctx };
        if let Some(bootstrap) = self.bootstrap {
            self.core.join(&mut net, bootstrap);
        }
        self.app.on_start(&mut self.core, &mut net);
        self.drain_events(&mut net);
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<DhtMsg>, _from: NodeId, msg: DhtMsg) {
        self.deliver(&mut CtxNet { ctx }, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<DhtMsg>, token: TimerToken) {
        if token != TICK_TOKEN {
            return;
        }
        let tick = self.core.config().tick;
        ctx.set_timer(tick, TICK_TOKEN);
        self.tick(&mut CtxNet { ctx });
    }

    /// Leaving the overlay drops this node's replicas and in-flight
    /// operations; only the app's soft-state refresh (PIERSearch's
    /// `Publisher`) can restore the lost values elsewhere.
    fn on_down(&mut self, _ctx: &mut dyn Ctx<DhtMsg>) {
        self.core.end_session();
    }

    fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        self.core.mem_stats(acc);
        self.app.mem_stats(acc);
    }

    /// Revival re-arms the maintenance tick (cancelled by going down) and
    /// re-primes the routing table from its surviving contacts instead of
    /// the original bootstrap contact, which may itself be long gone.
    fn on_revive(&mut self, ctx: &mut dyn Ctx<DhtMsg>) {
        let tick = self.core.config().tick;
        ctx.set_timer(tick, TICK_TOKEN);
        self.revive(&mut CtxNet { ctx });
    }
}
