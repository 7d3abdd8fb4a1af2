//! The simulation kernel: a sharded, deterministic discrete-event engine.
//!
//! Nodes partition across `S` shards by a fixed hash of their [`NodeId`].
//! Each shard owns its own event queue, metrics, and struct-of-arrays node
//! state (one packed liveness/epoch/sequence slot word plus an RNG stream
//! per node). Shards advance in lockstep windows no wider than the minimum
//! link latency ([`LatencyModel::min_latency`]): a message sent inside a
//! window can only arrive in a later window, so shards exchange cross-shard
//! sends at window barriers without ever seeing an event "from the past".
//!
//! Determinism does not come from the barriers — it comes from the event
//! ordering key. Every event is keyed by `(arrival, send time, scheduling
//! node, per-node sequence)` ([`crate::event::EventKey`]), which is
//! intrinsic to the workload: each node therefore observes the exact same
//! event sequence (and draws from its private RNG stream in the same
//! order) no matter how many shards execute the run. Counters and
//! histograms merge commutatively, so **every statistic is bit-identical
//! for any shard count, including `S = 1`** (`Histogram` means can differ
//! in final ULPs across shard counts because f64 sums reassociate; counts,
//! bins, min/max, and quantiles are exact).

use crate::actor::{Actor, Ctx, NodeId, TimerToken};
use crate::event::{EventKey, EventKind, EventQueue};
use crate::latency::{LatencyModel, UniformLatency};
use crate::metrics::{MetricClass, Metrics, DROPPED_TO_DOWN};
use crate::probe::KernelProbe;
use crate::rng::{split_mix64, stream_rng, SimRng};
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier, Mutex};

/// Simulation-wide configuration.
pub struct SimConfig {
    /// Master seed; every random choice in the run derives from it.
    pub seed: u64,
    /// One-way message latency model.
    pub latency: Box<dyn LatencyModel>,
    /// Number of kernel shards. Any value produces bit-identical results.
    /// During `run_*` shard 0 runs on the caller's thread and each further
    /// shard on a scoped worker, so `n` shards spawn `n - 1` threads.
    pub shards: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        let latency =
            UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80));
        SimConfig { seed: 0xC0FFEE, latency: Box::new(latency), shards: 1 }
    }
}

impl SimConfig {
    /// Config with a specific seed and the default latency model,
    /// uniform one-way delays in `[20 ms, 80 ms]`.
    pub fn with_seed(seed: u64) -> Self {
        SimConfig { seed, ..Default::default() }
    }

    /// Replace the latency model.
    pub fn latency(mut self, model: impl LatencyModel + 'static) -> Self {
        self.latency = Box::new(model);
        self
    }

    /// Set the shard count (clamped to `1..=MAX_SHARDS`; every value is
    /// bit-identical, so the clamp only caps worker threads).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.clamp(1, MAX_SHARDS);
        self
    }
}

/// Object-safe actor bound that also supports downcasting, so heterogeneous
/// actor types can live in one simulation and still be inspected by tests
/// and experiment drivers. `Send` because shards run on worker threads.
trait AnyActor<M>: Actor<M> + Send {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<M, T: Actor<M> + Any + Send> AnyActor<M> for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Where a node lives, packed into one word: bits 31..24 the owning shard,
/// bits 23..0 the dense index within it. The limits this encodes — at most
/// [`MAX_SHARDS`] shards and 2²⁴ (≈16.7M) nodes per shard — are asserted at
/// registration; within them the locate table costs half the bytes of the
/// old two-`u32` layout, which matters at millions of nodes.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Loc(u32);

/// Upper bound on the kernel shard count (`Loc` packs the shard into
/// 8 bits). `SimConfig::shards` is clamped here — far above any useful
/// worker-thread count, and results are bit-identical for every value.
pub const MAX_SHARDS: usize = 256;

impl Loc {
    const LOCAL_BITS: u32 = 24;
    const LOCAL_MASK: u32 = (1 << Self::LOCAL_BITS) - 1;

    #[inline]
    fn new(shard: u32, local: usize) -> Loc {
        debug_assert!((shard as usize) < MAX_SHARDS);
        assert!(local < (1 << Self::LOCAL_BITS) as usize, "shard full: 2^24 nodes");
        Loc(shard << Self::LOCAL_BITS | local as u32)
    }

    #[inline]
    fn shard(self) -> u32 {
        self.0 >> Self::LOCAL_BITS
    }

    #[inline]
    fn local(self) -> usize {
        (self.0 & Self::LOCAL_MASK) as usize
    }
}

/// Struct-of-arrays per-shard node state. The kernel bookkeeping that used
/// to be a liveness bitset plus two parallel `u32` arrays is packed into
/// one `u64` slot per node — bit 63 liveness, bits 62..32 the 31-bit timer
/// epoch, bits 31..0 the schedule sequence counter — so per-node slot state
/// is a single word next to the RNG stream.
struct NodeTable {
    /// Packed per-node slot: `up:1 | epoch:31 | seq:32`. The epoch is
    /// bumped whenever the node goes down or comes back up (timers armed in
    /// an older epoch are dropped instead of fired); the sequence counter
    /// is monotone over scheduled events (sends and timers) and is the
    /// final component of the event ordering key. Both wrap far beyond any
    /// realizable run length (2³¹ churn flips, 2³² events per node).
    slot: Vec<u64>,
    /// Per-node RNG streams, derived from the master seed and the *global*
    /// node id, so streams do not depend on the shard layout.
    rng: Vec<SimRng>,
}

impl NodeTable {
    const UP_BIT: u64 = 1 << 63;
    const EPOCH_SHIFT: u32 = 32;
    const EPOCH_MASK: u64 = 0x7FFF_FFFF;
    const SEQ_MASK: u64 = 0xFFFF_FFFF;

    fn new() -> Self {
        NodeTable { slot: Vec::new(), rng: Vec::new() }
    }

    fn push(&mut self, rng: SimRng) -> usize {
        let i = self.slot.len();
        self.slot.push(Self::UP_BIT);
        self.rng.push(rng);
        i
    }

    #[inline]
    fn is_up(&self, i: usize) -> bool {
        self.slot[i] & Self::UP_BIT != 0
    }

    #[inline]
    fn set_up(&mut self, i: usize, v: bool) {
        if v {
            self.slot[i] |= Self::UP_BIT;
        } else {
            self.slot[i] &= !Self::UP_BIT;
        }
    }

    /// The node's current timer epoch (31 bits).
    #[inline]
    fn epoch(&self, i: usize) -> u32 {
        (self.slot[i] >> Self::EPOCH_SHIFT & Self::EPOCH_MASK) as u32
    }

    /// Advance the timer epoch (wrapping in its 31-bit field), cancelling
    /// every timer armed under the old epoch.
    #[inline]
    fn bump_epoch(&mut self, i: usize) {
        let next = (self.epoch(i) as u64 + 1) & Self::EPOCH_MASK;
        self.slot[i] =
            (self.slot[i] & !(Self::EPOCH_MASK << Self::EPOCH_SHIFT)) | next << Self::EPOCH_SHIFT;
    }

    /// Take the node's next schedule sequence number.
    #[inline]
    fn next_seq(&mut self, i: usize) -> u32 {
        let s = self.slot[i] & Self::SEQ_MASK;
        self.slot[i] = (self.slot[i] & !Self::SEQ_MASK) | (s + 1) & Self::SEQ_MASK;
        s as u32
    }
}

/// Read-only state shared by every shard worker during a run.
struct Router {
    /// Global `NodeId` → owning shard and local index.
    locate: Vec<Loc>,
    latency: Box<dyn LatencyModel>,
    /// Lockstep window width: `max(latency.min_latency(), 1µs)`. Sampled
    /// delays are clamped up to this, which also repairs models that
    /// under-report their floor.
    window: SimDuration,
}

/// A cross-shard event in flight: pushed into the destination shard's
/// mailbox during a window, drained into its queue at the next barrier. The
/// intrinsic key travels with it, so no re-sequencing is needed on arrival.
struct Mail<M> {
    key: EventKey,
    kind: EventKind<M>,
}

/// Kernel state of one shard that must stay borrowable while an actor
/// handler runs (the actors themselves live alongside in [`Shard`]).
struct ShardCore<M> {
    ix: u32,
    now: SimTime,
    queue: EventQueue<M>,
    metrics: Metrics,
    nodes: NodeTable,
    /// Lifetime count of sends routed to another shard's mailbox; window
    /// deltas of this feed [`KernelProbe::window_done`].
    cross_sends: u64,
}

struct Shard<M> {
    core: ShardCore<M>,
    actors: Vec<Box<dyn AnyActor<M>>>,
    /// Reused drain buffer for mailbox exchanges (keeps its capacity across
    /// windows).
    scratch: Vec<Mail<M>>,
}

impl<M: Send + 'static> Shard<M> {
    fn new(ix: u32) -> Self {
        Shard {
            core: ShardCore {
                ix,
                now: SimTime::ZERO,
                queue: EventQueue::new(),
                metrics: Metrics::new(),
                nodes: NodeTable::new(),
                cross_sends: 0,
            },
            actors: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Pop-and-run one event that has already been popped from this shard's
    /// queue.
    fn dispatch(
        &mut self,
        router: &Router,
        mailboxes: &[Mutex<Vec<Mail<M>>>],
        key: EventKey,
        kind: EventKind<M>,
    ) {
        debug_assert!(key.time >= self.core.now, "time must not run backwards");
        self.core.now = key.time;
        match kind {
            EventKind::Deliver { from, dst, msg } => {
                let local = router.locate[dst.index()].local();
                if !self.core.nodes.is_up(local) {
                    self.core.metrics.count(DROPPED_TO_DOWN.id(), 1, 0);
                    return;
                }
                let mut ctx = CtxImpl {
                    core: &mut self.core,
                    router,
                    mailboxes,
                    self_id: dst,
                    self_local: local,
                };
                self.actors[local].on_message(&mut ctx, from, msg);
            }
            EventKind::Timer { dst, token, epoch } => {
                let local = router.locate[dst.index()].local();
                if !self.core.nodes.is_up(local) || self.core.nodes.epoch(local) != epoch {
                    return;
                }
                let mut ctx = CtxImpl {
                    core: &mut self.core,
                    router,
                    mailboxes,
                    self_id: dst,
                    self_local: local,
                };
                if token == START_TOKEN {
                    self.actors[local].on_start(&mut ctx);
                } else {
                    self.actors[local].on_timer(&mut ctx, token);
                }
            }
        }
    }

    /// Process every queued event with `time < lim` (microseconds).
    fn run_window(&mut self, lim: u64, router: &Router, mailboxes: &[Mutex<Vec<Mail<M>>>]) {
        while self.core.queue.peek_key().is_some_and(|k| k.time.as_micros() < lim) {
            let (key, kind) = self.core.queue.pop().expect("peeked event vanished");
            self.dispatch(router, mailboxes, key, kind);
        }
    }

    /// Move everything from this shard's mailbox into its queue.
    fn drain_mailbox(&mut self, mailbox: &Mutex<Vec<Mail<M>>>) {
        {
            let mut inbox = mailbox.lock().expect("mailbox poisoned");
            std::mem::swap(&mut *inbox, &mut self.scratch);
        }
        for mail in self.scratch.drain(..) {
            self.core.queue.push(mail.key, mail.kind);
        }
    }
}

struct CtxImpl<'a, M> {
    core: &'a mut ShardCore<M>,
    router: &'a Router,
    mailboxes: &'a [Mutex<Vec<Mail<M>>>],
    self_id: NodeId,
    self_local: usize,
}

impl<M> Ctx<M> for CtxImpl<'_, M> {
    fn now(&self) -> SimTime {
        self.core.now
    }

    fn self_id(&self) -> NodeId {
        self.self_id
    }

    fn send(&mut self, dst: NodeId, msg: M, wire_bytes: usize, class: MetricClass) {
        self.core.metrics.record_send(class, wire_bytes as u64);
        let delay = {
            let rng = &mut self.core.nodes.rng[self.self_local];
            self.router.latency.sample(rng, self.self_id, dst)
        };
        // Clamp to the lockstep window so a model that under-reports its
        // floor cannot schedule a cross-shard arrival inside the current
        // window. Honest models are unaffected (window == their floor).
        let at = self.core.now + delay.max(self.router.window);
        let key = EventKey {
            time: at,
            sent: self.core.now,
            src: self.self_id,
            seq: self.core.nodes.next_seq(self.self_local),
        };
        let kind = EventKind::Deliver { from: self.self_id, dst, msg };
        let loc = self.router.locate[dst.index()];
        if loc.shard() == self.core.ix {
            self.core.queue.push(key, kind);
        } else {
            self.core.cross_sends += 1;
            self.mailboxes[loc.shard() as usize]
                .lock()
                .expect("mailbox poisoned")
                .push(Mail { key, kind });
        }
    }

    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        let epoch = self.core.nodes.epoch(self.self_local);
        let key = EventKey {
            time: self.core.now + delay,
            sent: self.core.now,
            src: self.self_id,
            seq: self.core.nodes.next_seq(self.self_local),
        };
        self.core.queue.push(key, EventKind::Timer { dst: self.self_id, token, epoch });
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.core.nodes.rng[self.self_local]
    }

    fn count(&mut self, class: MetricClass, n: u64) {
        self.core.metrics.count(class, n, 0);
    }

    fn observe(&mut self, class: MetricClass, value: f64) {
        self.core.metrics.observe(class, value);
    }
}

/// Event-queue accounting across all shards (see [`Sim::event_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Events currently queued.
    pub pending: usize,
    /// Sum of each shard's high-water mark of queued events. (Shard peaks
    /// need not coincide in time, so this upper-bounds the true global
    /// peak.)
    pub peak_pending: usize,
    /// Events processed over the simulation's lifetime.
    pub processed: u64,
}

/// A deterministic discrete-event simulation over message type `M`.
///
/// With `SimConfig::shards > 1` the run loop executes shards `1..n` on
/// scoped worker threads beside the caller's; results are bit-identical to
/// a one-shard run.
pub struct Sim<M> {
    shards: Vec<Shard<M>>,
    mailboxes: Vec<Mutex<Vec<Mail<M>>>>,
    router: Router,
    seed: u64,
    clock: SimTime,
    /// Cross-shard merged metrics view, refreshed after every mutating
    /// call; unused (empty) when `shards == 1`.
    merged: Metrics,
    /// Optional read-only observer of kernel execution (see
    /// [`crate::probe`]). `None` keeps the hot paths hook-free.
    probe: Option<Arc<dyn KernelProbe>>,
}

impl<M: Send + 'static> Sim<M> {
    pub fn new(config: SimConfig) -> Self {
        let nshards = config.shards.clamp(1, MAX_SHARDS);
        let window = SimDuration::from_micros(config.latency.min_latency().as_micros().max(1));
        Sim {
            shards: (0..nshards).map(|ix| Shard::new(ix as u32)).collect(),
            mailboxes: (0..nshards).map(|_| Mutex::new(Vec::new())).collect(),
            router: Router { locate: Vec::new(), latency: config.latency, window },
            seed: config.seed,
            clock: SimTime::ZERO,
            merged: Metrics::new(),
            probe: None,
        }
    }

    /// Install a kernel probe (see [`KernelProbe`]). Probes are strictly
    /// read-only observers: installing one cannot change any simulated
    /// outcome, only expose window telemetry about it.
    pub fn set_probe(&mut self, probe: Arc<dyn KernelProbe>) {
        self.probe = Some(probe);
    }

    /// The shard a node would be (or was) assigned to: a fixed hash of the
    /// id, independent of everything else in the run.
    fn shard_of(&self, id: NodeId) -> u32 {
        let mut state = u64::from(id.raw());
        (split_mix64(&mut state) % self.shards.len() as u64) as u32
    }

    /// Register a node. Its `on_start` runs the first time the simulation
    /// advances (it is queued at the current virtual time).
    pub fn add_node(&mut self, actor: impl Actor<M> + Any + Send) -> NodeId {
        let id = NodeId::new(self.router.locate.len() as u32);
        let six = self.shard_of(id);
        let shard = &mut self.shards[six as usize];
        let local = shard.actors.len();
        shard.actors.push(Box::new(actor));
        let slot = shard.core.nodes.push(stream_rng(self.seed, u64::from(id.raw()) + 1));
        debug_assert_eq!(slot, local);
        self.router.locate.push(Loc::new(six, local));
        // A zero-delay timer with a reserved token drives on_start so that
        // startup interleaves deterministically with other events. Its key
        // is the node's own first scheduled event, so registration order ==
        // id order == pop order among same-time starts, for any shard count.
        let key = EventKey {
            time: shard.core.now,
            sent: shard.core.now,
            src: id,
            seq: shard.core.nodes.next_seq(local),
        };
        shard.core.queue.push(key, EventKind::Timer { dst: id, token: START_TOKEN, epoch: 0 });
        id
    }

    /// Number of registered nodes (up or down).
    pub fn len(&self) -> usize {
        self.router.locate.len()
    }

    pub fn is_empty(&self) -> bool {
        self.router.locate.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Whether a node is currently up.
    pub fn is_up(&self, id: NodeId) -> bool {
        let loc = self.router.locate[id.index()];
        self.shards[loc.shard() as usize].core.nodes.is_up(loc.local())
    }

    /// Borrow an actor, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node id is out of range or the type does not match.
    pub fn actor<T: Actor<M> + Any>(&self, id: NodeId) -> &T {
        let loc = self.router.locate[id.index()];
        self.shards[loc.shard() as usize].actors[loc.local()]
            .as_any()
            .downcast_ref::<T>()
            .expect("actor type mismatch")
    }

    /// Mutable variant of [`Sim::actor`].
    pub fn actor_mut<T: Actor<M> + Any>(&mut self, id: NodeId) -> &mut T {
        let loc = self.router.locate[id.index()];
        self.shards[loc.shard() as usize].actors[loc.local()]
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("actor type mismatch")
    }

    /// Run an actor handler "from outside" (experiment drivers use this to
    /// issue queries on behalf of a node at the current virtual time).
    ///
    /// The node must be up: event dispatch gates deliveries and timers on
    /// liveness, so injecting work into a crashed node would let a driver
    /// observe behavior the simulated network can never produce (e.g. a
    /// query issued from a down vantage). Check [`Sim::is_up`] first when
    /// the target may have churned out.
    ///
    /// # Panics
    /// Panics if the node id is out of range, the type does not match, or
    /// the node is currently down.
    pub fn with_actor_ctx<T: Actor<M> + Any, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut dyn Ctx<M>) -> R,
    ) -> R {
        self.drive(id, |actor, ctx| {
            assert!(
                ctx.core.nodes.is_up(ctx.self_local),
                "with_actor_ctx on down node {id:?}: handlers only run on live nodes"
            );
            f(actor.as_any_mut().downcast_mut::<T>().expect("actor type mismatch"), ctx)
        })
    }

    /// Run `f` on node `id`'s actor and a context at the current virtual
    /// time, outside the run loop; then deliver the cross-shard sends it
    /// made and refresh the merged metrics view.
    fn drive<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut dyn AnyActor<M>, &mut CtxImpl<'_, M>) -> R,
    ) -> R {
        let loc = self.router.locate[id.index()];
        let shard = &mut self.shards[loc.shard() as usize];
        let mut ctx = CtxImpl {
            core: &mut shard.core,
            router: &self.router,
            mailboxes: &self.mailboxes,
            self_id: id,
            self_local: loc.local(),
        };
        let out = f(&mut *shard.actors[loc.local()], &mut ctx);
        self.drain_all_mailboxes();
        self.refresh_merged();
        out
    }

    /// All metrics recorded so far. With more than one shard this is the
    /// merged cross-shard view (counters, totals, and histogram bins merge
    /// exactly; histogram f64 *sums* may differ from a one-shard run in
    /// final ULPs because addition reassociates).
    pub fn metrics(&self) -> &Metrics {
        if self.shards.len() == 1 {
            &self.shards[0].core.metrics
        } else {
            &self.merged
        }
    }

    /// Mutable access (experiment drivers pull histograms out this way).
    /// With more than one shard this borrows the merged view; mutations to
    /// it are overwritten by the next refresh, so treat it as read/drain
    /// access to histogram state.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        if self.shards.len() == 1 {
            &mut self.shards[0].core.metrics
        } else {
            &mut self.merged
        }
    }

    /// Take a node down: pending timers are cancelled, queued deliveries to
    /// it will be dropped, and `on_down` runs immediately.
    pub fn set_down(&mut self, id: NodeId) {
        if self.is_up(id) {
            self.drive(id, |actor, ctx| {
                ctx.core.nodes.set_up(ctx.self_local, false);
                ctx.core.nodes.bump_epoch(ctx.self_local);
                actor.on_down(ctx);
            });
        }
    }

    /// Bring a node back up; `on_revive` runs immediately (its default
    /// delegates to `on_start`). Timers the actor arms from the hook carry
    /// the new epoch, so the maintenance loops cancelled by [`Sim::set_down`]
    /// resume instead of being silently lost.
    pub fn set_up(&mut self, id: NodeId) {
        if !self.is_up(id) {
            self.drive(id, |actor, ctx| {
                ctx.core.nodes.set_up(ctx.self_local, true);
                ctx.core.nodes.bump_epoch(ctx.self_local);
                actor.on_revive(ctx);
            });
        }
    }

    /// Process the single globally-earliest event. Returns `false` when no
    /// events remain. Works for any shard count, sequentially and without
    /// windows: it is the independent global-order executor the tests hold
    /// the windowed run loop against, which is why it stays beside it.
    pub fn step(&mut self) -> bool {
        let mut best: Option<(usize, EventKey)> = None;
        for (ix, shard) in self.shards.iter_mut().enumerate() {
            if let Some(k) = shard.core.queue.peek_key() {
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((ix, k));
                }
            }
        }
        let Some((ix, key)) = best else {
            return false;
        };
        let (key, kind) = {
            let shard = &mut self.shards[ix];
            let popped = shard.core.queue.pop().expect("peeked event vanished");
            debug_assert_eq!(popped.0, key);
            popped
        };
        let t = key.time;
        {
            let (router, mailboxes) = (&self.router, &self.mailboxes[..]);
            self.shards[ix].dispatch(router, mailboxes, key, kind);
        }
        self.drain_all_mailboxes();
        for shard in &mut self.shards {
            if shard.core.now < t {
                shard.core.now = t;
            }
        }
        self.clock = self.clock.max(t);
        self.refresh_merged();
        true
    }

    /// Run until the event queue drains.
    pub fn run_until_quiescent(&mut self) {
        self.run_loop(None);
        let end = self.shards.iter().map(|s| s.core.now).max().unwrap_or(self.clock);
        self.finish_run(end.max(self.clock));
    }

    /// Run until the clock reaches `deadline` (events at exactly `deadline`
    /// are processed). The clock is advanced to `deadline` even if the queue
    /// drains earlier.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_loop(Some(deadline));
        self.finish_run(self.clock.max(deadline));
    }

    /// Run for a span of virtual time from now.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.clock + d;
        self.run_until(deadline);
    }

    /// Event-queue accounting summed across shards: pending events, peak
    /// queue occupancy, and total events processed. `repro` divides
    /// `processed` by wall time to report events/sec per experiment.
    pub fn event_stats(&self) -> EventStats {
        let mut stats = EventStats::default();
        for shard in &self.shards {
            stats.pending += shard.core.queue.len();
            stats.peak_pending += shard.core.queue.peak();
            stats.processed += shard.core.queue.processed();
        }
        stats
    }

    /// Heap accounting: per-subsystem node-state bytes (every actor's
    /// [`Actor::mem_stats`] contribution) plus the kernel's own footprint
    /// (event queues, node tables, mailboxes, the locate table). Read-only;
    /// callable at any quiescent point of a run.
    pub fn mem_stats(&self) -> crate::heap::MemStats {
        let mut subsystems = crate::heap::MemAcc::new();
        let mut kernel = 0usize;
        let mut nodes = 0usize;
        for shard in &self.shards {
            nodes += shard.actors.len();
            for actor in &shard.actors {
                actor.mem_stats(&mut subsystems);
            }
            kernel += shard.core.queue.heap_bytes();
            let nt = &shard.core.nodes;
            kernel +=
                nt.slot.capacity() * size_of::<u64>() + nt.rng.capacity() * size_of::<SimRng>();
            kernel += shard.actors.capacity() * size_of::<Box<dyn AnyActor<M>>>();
            kernel += shard.scratch.capacity() * size_of::<Mail<M>>();
        }
        for mailbox in &self.mailboxes {
            kernel += mailbox.lock().expect("mailbox poisoned").capacity() * size_of::<Mail<M>>();
        }
        kernel += self.router.locate.capacity() * size_of::<Loc>();
        crate::heap::MemStats { nodes, subsystems, kernel_bytes: kernel as u64 }
    }

    /// Dispatch every event up to `deadline` (all of them for `None`) in
    /// conservative lockstep windows, at every shard count.
    ///
    /// Per iteration each shard: drains its mailbox, publishes its next
    /// event time, meets its peers, computes the global minimum `gmin`
    /// (identically, so the break decision is consensus without
    /// communication), processes its events in `[gmin, gmin + window)`
    /// (capped at `deadline + 1`), and meets its peers again. Messages
    /// sent inside a window are clamped to arrive at least one full window
    /// later, so mailbox drains at the loop top see everything that can
    /// affect the coming window. Shard 0 runs on the caller's thread and
    /// shards `1..n` on scoped workers; one shard has no peer, so its
    /// meetings return at once instead of paying for a barrier wake.
    fn run_loop(&mut self, deadline: Option<SimTime>) {
        let n = self.shards.len();
        let window = self.router.window.as_micros();
        let dl = deadline.map(SimTime::as_micros);
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let barrier = Barrier::new(n);
        let (router, mailboxes, probe) = (&self.router, &self.mailboxes[..], self.probe.as_deref());
        let run_shard = |shard: &mut Shard<M>| {
            let ix = shard.core.ix;
            let meet = || {
                if n == 1 {
                    return;
                }
                if let Some(p) = probe {
                    p.barrier_begin(ix);
                }
                barrier.wait();
                if let Some(p) = probe {
                    p.barrier_end(ix);
                }
            };
            loop {
                shard.drain_mailbox(&mailboxes[ix as usize]);
                let next = shard.core.queue.peek_key().map_or(u64::MAX, |k| k.time.as_micros());
                slots[ix as usize].store(next, Relaxed);
                meet();
                let gmin = slots.iter().map(|s| s.load(Relaxed)).min().expect("n >= 1");
                if dl.map_or(gmin == u64::MAX, |d| gmin > d) {
                    break;
                }
                let lim =
                    gmin.saturating_add(window).min(dl.map_or(u64::MAX, |d| d.saturating_add(1)));
                let before = probe.map(|_| (shard.core.queue.processed(), shard.core.cross_sends));
                shard.run_window(lim, router, mailboxes);
                if let (Some(p), Some((drained0, cross0))) = (probe, before) {
                    p.window_done(
                        ix,
                        shard.core.now.as_micros(),
                        shard.core.queue.processed() - drained0,
                        shard.core.cross_sends - cross0,
                    );
                }
                meet();
            }
        };
        let run_shard = &run_shard;
        let (first, rest) = self.shards.split_first_mut().expect("n >= 1");
        std::thread::scope(|scope| {
            for shard in rest {
                scope.spawn(move || run_shard(shard));
            }
            run_shard(first);
        });
    }

    /// Epilogue for the run loop: align every shard clock (and the global
    /// one) to `end`, and refresh the merged metrics view. Keeping all
    /// shard clocks equal between public calls is what makes driver
    /// injections (`with_actor_ctx`, churn transitions) stamp identical
    /// event keys regardless of shard count.
    fn finish_run(&mut self, end: SimTime) {
        for shard in &mut self.shards {
            if shard.core.now < end {
                shard.core.now = end;
            }
        }
        self.clock = end;
        self.refresh_merged();
    }

    /// Move queued cross-shard sends into their destination queues. Called
    /// after sequential (driver-side) handler runs; the run loop drains
    /// per shard instead.
    fn drain_all_mailboxes(&mut self) {
        for (ix, shard) in self.shards.iter_mut().enumerate() {
            shard.drain_mailbox(&self.mailboxes[ix]);
        }
    }

    fn refresh_merged(&mut self) {
        if self.shards.len() == 1 {
            return;
        }
        self.merged.reset();
        for shard in &self.shards {
            self.merged.merge_from(&shard.core.metrics);
        }
    }
}

/// Reserved token that drives `on_start`; actor tokens must not collide.
const START_TOKEN: TimerToken = TimerToken(u64::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{ConstantLatency, UniformLatency};

    use classes::{PING, PONG};

    mod classes {
        #![expect(clippy::disallowed_methods, reason = "the test's metric classes")]
        crate::metric_classes! {
            pub(super) PING = "test.ping";
            pub(super) PONG = "test.pong";
        }
    }

    /// Echoes every ping; counts pongs; optionally re-arms a periodic timer.
    struct Echo {
        peer: Option<NodeId>,
        pings_sent: u32,
        pongs_got: u32,
        timer_fires: u32,
        last_pong_at: SimTime,
    }

    #[derive(Debug)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Actor<Msg> for Echo {
        fn on_start(&mut self, ctx: &mut dyn Ctx<Msg>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, Msg::Ping, 23, PING.id());
                self.pings_sent += 1;
                ctx.set_timer(SimDuration::from_secs(1), TimerToken(7));
            }
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong, 23, PONG.id()),
                Msg::Pong => {
                    self.pongs_got += 1;
                    self.last_pong_at = ctx.now();
                }
            }
        }
        fn on_timer(&mut self, _ctx: &mut dyn Ctx<Msg>, token: TimerToken) {
            assert_eq!(token, TimerToken(7));
            self.timer_fires += 1;
        }
    }

    fn echo_pair() -> (Sim<Msg>, NodeId, NodeId) {
        let cfg = SimConfig::with_seed(1).latency(ConstantLatency(SimDuration::from_millis(10)));
        let mut sim = Sim::new(cfg);
        let b_id = NodeId::new(1);
        let a = sim.add_node(Echo {
            peer: Some(b_id),
            pings_sent: 0,
            pongs_got: 0,
            timer_fires: 0,
            last_pong_at: SimTime::ZERO,
        });
        let b = sim.add_node(Echo {
            peer: None,
            pings_sent: 0,
            pongs_got: 0,
            timer_fires: 0,
            last_pong_at: SimTime::ZERO,
        });
        (sim, a, b)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, a, _b) = echo_pair();
        sim.run_until_quiescent();
        let echo = sim.actor::<Echo>(a);
        assert_eq!(echo.pongs_got, 1);
        assert_eq!(echo.timer_fires, 1);
        // 2 hops at 10ms each; pong arrives at t=20ms; timer at 1s is last.
        assert_eq!(sim.now(), SimTime::from_micros(1_000_000));
        assert_eq!(sim.metrics().counter("test.ping").count, 1);
        assert_eq!(sim.metrics().counter("test.pong").bytes, 23);
    }

    #[test]
    fn messages_to_down_nodes_drop() {
        let (mut sim, _a, b) = echo_pair();
        sim.set_down(b);
        sim.run_until_quiescent();
        assert_eq!(sim.metrics().counter("sim.dropped_to_down_node").count, 1);
    }

    #[test]
    fn timers_cancelled_on_churn() {
        let (mut sim, a, _b) = echo_pair();
        // Run just past message delivery but before the 1s timer.
        sim.run_until(SimTime::from_micros(100_000));
        sim.set_down(a);
        sim.set_up(a); // epoch bumped twice; old timer must not fire
        sim.run_until_quiescent();
        // on_start re-ran on set_up, sending a second ping and arming a new
        // timer; only the new timer fires.
        let echo = sim.actor::<Echo>(a);
        assert_eq!(echo.pings_sent, 2);
        assert_eq!(echo.timer_fires, 1);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let cfg = SimConfig::with_seed(seed).latency(UniformLatency::new(
                SimDuration::from_millis(5),
                SimDuration::from_millis(50),
            ));
            let mut sim = Sim::new(cfg);
            let b_id = NodeId::new(1);
            let a = sim.add_node(Echo {
                peer: Some(b_id),
                pings_sent: 0,
                pongs_got: 0,
                timer_fires: 0,
                last_pong_at: SimTime::ZERO,
            });
            sim.add_node(Echo {
                peer: None,
                pings_sent: 0,
                pongs_got: 0,
                timer_fires: 0,
                last_pong_at: SimTime::ZERO,
            });
            sim.run_until_quiescent();
            (sim.actor::<Echo>(a).last_pong_at, sim.metrics().total_bytes)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds draw different latencies");
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, a, _b) = echo_pair();
        sim.run_until(SimTime::from_micros(15_000));
        // Ping delivered at 10ms; pong (20ms) and timer (1s) still pending.
        assert_eq!(sim.now(), SimTime::from_micros(15_000));
        assert_eq!(sim.actor::<Echo>(a).pongs_got, 0);
        assert!(sim.event_stats().pending >= 2);
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.actor::<Echo>(a).pongs_got, 1);
    }

    #[test]
    fn with_actor_ctx_injects_work() {
        let (mut sim, a, b) = echo_pair();
        sim.run_until_quiescent();
        sim.with_actor_ctx::<Echo, _>(a, |echo, ctx| {
            ctx.send(b, Msg::Ping, 23, PING.id());
            echo.pings_sent += 1;
        });
        sim.run_until_quiescent();
        assert_eq!(sim.actor::<Echo>(a).pongs_got, 2);
    }

    #[test]
    #[should_panic(expected = "with_actor_ctx on down node")]
    fn with_actor_ctx_rejects_down_nodes() {
        let (mut sim, a, b) = echo_pair();
        sim.run_until_quiescent();
        sim.set_down(a);
        // Event dispatch drops any delivery/timer for a down node; injecting
        // a handler run from the driver must be refused the same way.
        sim.with_actor_ctx::<Echo, _>(a, |echo, ctx| {
            ctx.send(b, Msg::Ping, 23, PING.id());
            echo.pings_sent += 1;
        });
    }

    #[test]
    fn with_actor_ctx_allowed_again_after_revival() {
        let (mut sim, a, b) = echo_pair();
        sim.run_until_quiescent();
        sim.set_down(a);
        sim.set_up(a);
        sim.with_actor_ctx::<Echo, _>(a, |_, ctx| ctx.send(b, Msg::Ping, 23, PING.id()));
        sim.run_until_quiescent();
        assert!(sim.actor::<Echo>(a).pongs_got >= 2);
    }

    /// A node that keeps a periodic maintenance loop alive by re-arming its
    /// timer from `on_timer`, the pattern every protocol tick uses.
    struct Maintainer {
        ticks: u32,
        revivals: u32,
    }

    impl Actor<Msg> for Maintainer {
        fn on_start(&mut self, ctx: &mut dyn Ctx<Msg>) {
            ctx.set_timer(SimDuration::from_secs(1), TimerToken(1));
        }
        fn on_message(&mut self, _: &mut dyn Ctx<Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, ctx: &mut dyn Ctx<Msg>, _: TimerToken) {
            self.ticks += 1;
            ctx.set_timer(SimDuration::from_secs(1), TimerToken(1));
        }
        fn on_revive(&mut self, ctx: &mut dyn Ctx<Msg>) {
            self.revivals += 1;
            self.on_start(ctx);
        }
    }

    /// Regression: `set_down` cancels pending timers; revival must re-arm
    /// the maintenance loop (epoch-checked), or a revived node silently
    /// stops ticking for the rest of the run.
    #[test]
    fn maintenance_loop_survives_revival() {
        let mut sim = Sim::new(SimConfig::with_seed(3));
        let a = sim.add_node(Maintainer { ticks: 0, revivals: 0 });
        sim.run_until(SimTime::from_micros(5_500_000));
        assert_eq!(sim.actor::<Maintainer>(a).ticks, 5);
        sim.set_down(a);
        // Two tick periods pass while down: nothing fires.
        sim.run_until(SimTime::from_micros(7_500_000));
        assert_eq!(sim.actor::<Maintainer>(a).ticks, 5);
        sim.set_up(a);
        assert_eq!(sim.actor::<Maintainer>(a).revivals, 1, "revival hook must run");
        // The loop resumes from the revival time and keeps re-arming.
        sim.run_until(SimTime::from_micros(10_600_000));
        assert_eq!(sim.actor::<Maintainer>(a).ticks, 8, "ticks at 8.5s, 9.5s, 10.5s");
    }

    /// The default `on_revive` delegates to `on_start`, so actors that do
    /// not override it behave exactly as before.
    #[test]
    fn default_revive_reruns_on_start() {
        let (mut sim, a, _b) = echo_pair();
        sim.run_until_quiescent();
        sim.set_down(a);
        sim.set_up(a);
        sim.run_until_quiescent();
        // on_start re-ran: a second ping went out and was answered.
        assert_eq!(sim.actor::<Echo>(a).pings_sent, 2);
        assert_eq!(sim.actor::<Echo>(a).pongs_got, 2);
    }

    #[test]
    #[should_panic(expected = "actor type mismatch")]
    fn downcast_mismatch_panics() {
        struct Other;
        impl Actor<Msg> for Other {
            fn on_message(&mut self, _: &mut dyn Ctx<Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _: &mut dyn Ctx<Msg>, _: TimerToken) {}
        }
        let (sim, a, _b) = echo_pair();
        let _ = sim.actor::<Other>(a);
    }

    // ------------------------------------------------------------------
    // Sharded-kernel coverage.
    // ------------------------------------------------------------------

    /// A relay mesh that exercises cross-node traffic, per-node randomness,
    /// timers, and driver injections — the full surface the sharding
    /// refactor must keep bit-stable.
    struct Relay {
        n: u32,
        forwards: u32,
        received: u64,
    }

    #[derive(Debug)]
    struct Hop(u32);

    impl Actor<Hop> for Relay {
        fn on_start(&mut self, ctx: &mut dyn Ctx<Hop>) {
            let me = ctx.self_id().raw();
            ctx.send(NodeId::new((me * 7 + 1) % self.n), Hop(6), 40, PING.id());
            ctx.set_timer(SimDuration::from_millis(250), TimerToken(9));
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<Hop>, _from: NodeId, Hop(ttl): Hop) {
            self.received += 1;
            if ttl > 0 {
                use rand::Rng;
                let next = ctx.rng().random_range(0..self.n);
                ctx.send(NodeId::new(next), Hop(ttl - 1), 40, PONG.id());
                self.forwards += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn Ctx<Hop>, _t: TimerToken) {
            let me = ctx.self_id().raw();
            ctx.send(NodeId::new((me + 3) % self.n), Hop(2), 24, PING.id());
        }
    }

    /// Everything observable from one relay-mesh run: per-class counters,
    /// total messages/bytes, the final clock, and the hop census.
    type RelayRun = (Vec<(&'static str, u64, u64)>, u64, u64, SimTime, u64);

    /// Drive the relay mesh (including churn and a driver injection) and
    /// snapshot everything observable.
    fn relay_run(shards: usize) -> RelayRun {
        const N: u32 = 23;
        let cfg = SimConfig::with_seed(0xFEED)
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(80),
            ))
            .shards(shards);
        let mut sim = Sim::new(cfg);
        for _ in 0..N {
            sim.add_node(Relay { n: N, forwards: 0, received: 0 });
        }
        sim.run_for(SimDuration::from_millis(400));
        sim.set_down(NodeId::new(4));
        sim.set_down(NodeId::new(17));
        sim.run_for(SimDuration::from_millis(300));
        sim.set_up(NodeId::new(4));
        sim.with_actor_ctx::<Relay, _>(NodeId::new(2), |_, ctx| {
            ctx.send(NodeId::new(11), Hop(6), 40, PING.id())
        });
        sim.run_until_quiescent();
        let mut counters: Vec<(&'static str, u64, u64)> =
            sim.metrics().counters().map(|(c, v)| (c, v.count, v.bytes)).collect();
        counters.sort_unstable();
        let received: u64 = (0..N).map(|i| sim.actor::<Relay>(NodeId::new(i)).received).sum();
        (counters, sim.metrics().total_messages, sim.metrics().total_bytes, sim.now(), received)
    }

    /// The tentpole contract: every observable — counters, totals, final
    /// clock, per-actor state — is bit-identical across shard counts.
    #[test]
    fn shard_counts_are_bit_identical() {
        let base = relay_run(1);
        assert!(base.1 > 100, "workload must generate real traffic");
        for shards in [2, 3, 4] {
            assert_eq!(relay_run(shards), base, "shards={shards} diverged from shards=1");
        }
    }

    /// `step()` executes in global key order for any shard count, so a
    /// step-driven multi-shard run must match the windowed parallel run.
    #[test]
    fn stepped_multishard_matches_windowed() {
        let windowed = relay_run(2);
        const N: u32 = 23;
        let cfg = SimConfig::with_seed(0xFEED)
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(80),
            ))
            .shards(2);
        let mut sim = Sim::new(cfg);
        for _ in 0..N {
            sim.add_node(Relay { n: N, forwards: 0, received: 0 });
        }
        sim.run_for(SimDuration::from_millis(400));
        sim.set_down(NodeId::new(4));
        sim.set_down(NodeId::new(17));
        sim.run_for(SimDuration::from_millis(300));
        sim.set_up(NodeId::new(4));
        sim.with_actor_ctx::<Relay, _>(NodeId::new(2), |_, ctx| {
            ctx.send(NodeId::new(11), Hop(6), 40, PING.id())
        });
        while sim.step() {}
        let mut counters: Vec<(&'static str, u64, u64)> =
            sim.metrics().counters().map(|(c, v)| (c, v.count, v.bytes)).collect();
        counters.sort_unstable();
        assert_eq!(counters, windowed.0);
        assert_eq!(sim.metrics().total_messages, windowed.1);
    }

    /// A relay node whose timers reach past the event queue's ≈ 1.05 s
    /// ring: a 3 s tick that fires three times, a one-shot 45 s timer, and,
    /// from the first 3 s tick on, eight 400 ms ticks that keep the ring
    /// busy while the next 3 s tick moves in from beyond it. It counts
    /// events dispatched to it out of time order, which a misfiled queue
    /// entry would produce.
    struct Sleeper {
        n: u32,
        received: u64,
        ticks: u32,
        chats: u32,
        fired: u32,
        last: SimTime,
        backwards: u32,
    }

    impl Sleeper {
        fn new(n: u32) -> Self {
            Sleeper {
                n,
                received: 0,
                ticks: 0,
                chats: 0,
                fired: 0,
                last: SimTime::ZERO,
                backwards: 0,
            }
        }

        fn saw(&mut self, now: SimTime) {
            self.backwards += u32::from(now < self.last);
            self.last = now;
        }
    }

    impl Actor<Hop> for Sleeper {
        fn on_start(&mut self, ctx: &mut dyn Ctx<Hop>) {
            self.saw(ctx.now());
            let me = ctx.self_id().raw();
            ctx.send(NodeId::new((me * 5 + 2) % self.n), Hop(3), 40, PING.id());
            ctx.set_timer(SimDuration::from_secs(3), TimerToken(3));
            ctx.set_timer(SimDuration::from_secs(45), TimerToken(45));
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<Hop>, _from: NodeId, Hop(ttl): Hop) {
            self.saw(ctx.now());
            self.received += 1;
            if ttl > 0 {
                use rand::Rng;
                let next = ctx.rng().random_range(0..self.n);
                ctx.send(NodeId::new(next), Hop(ttl - 1), 40, PONG.id());
            }
        }
        fn on_timer(&mut self, ctx: &mut dyn Ctx<Hop>, token: TimerToken) {
            self.saw(ctx.now());
            self.fired += 1;
            let me = ctx.self_id().raw();
            ctx.send(NodeId::new((me + 3) % self.n), Hop(2), 24, PING.id());
            let chat = SimDuration::from_millis(400);
            match token {
                TimerToken(3) => {
                    self.ticks += 1;
                    if self.ticks == 1 {
                        ctx.set_timer(chat, TimerToken(4));
                    }
                    if self.ticks < 3 {
                        ctx.set_timer(SimDuration::from_secs(3), TimerToken(3));
                    }
                }
                TimerToken(4) => {
                    self.chats += 1;
                    if self.chats < 8 {
                        ctx.set_timer(chat, TimerToken(4));
                    }
                }
                _ => {}
            }
        }
    }

    /// The sleeper mesh: the opening flurry is over by ≈ 0.4 s, so the
    /// `run_until` deadline at 1.5 s sits in an idle stretch whose far side
    /// (the 3 s ticks) the deadline's peek has already carried every
    /// shard's queue to; the injection from there lands behind that cursor.
    /// The 6 s ticks join the ring while the 400 ms ticks keep it busy. A
    /// node misses all of it while down and re-arms on revival, and the
    /// 45 s timers end the run. Finishes by `step()` when `stepped`.
    /// Returns the relay observables plus total timer fires and the
    /// out-of-order dispatch count.
    fn sleeper_run(shards: usize, stepped: bool) -> (RelayRun, u32, u32) {
        const N: u32 = 19;
        let cfg = SimConfig::with_seed(0xBEEF)
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(80),
            ))
            .shards(shards);
        let mut sim = Sim::new(cfg);
        for _ in 0..N {
            sim.add_node(Sleeper::new(N));
        }
        sim.run_until(SimTime::from_micros(1_500_000));
        sim.with_actor_ctx::<Sleeper, _>(NodeId::new(2), |_, ctx| {
            ctx.send(NodeId::new(11), Hop(6), 40, PING.id())
        });
        sim.set_down(NodeId::new(5));
        sim.run_until(SimTime::from_micros(20_000_000));
        sim.set_up(NodeId::new(5));
        if stepped {
            while sim.step() {}
        } else {
            sim.run_until_quiescent();
        }
        let mut counters: Vec<(&'static str, u64, u64)> =
            sim.metrics().counters().map(|(c, v)| (c, v.count, v.bytes)).collect();
        counters.sort_unstable();
        let nodes: Vec<&Sleeper> = (0..N).map(|i| sim.actor::<Sleeper>(NodeId::new(i))).collect();
        let received = nodes.iter().map(|s| s.received).sum();
        let run = (
            counters,
            sim.metrics().total_messages,
            sim.metrics().total_bytes,
            sim.now(),
            received,
        );
        (run, nodes.iter().map(|s| s.fired).sum(), nodes.iter().map(|s| s.backwards).sum())
    }

    /// Timers past the queue's horizon, a deadline inside an idle stretch
    /// and an injection behind the queue's cursor: bit-identical at 1, 2
    /// and 3 shards and under `step()`, every node fires all its timers
    /// (node 5's re-armed on revival), and no node sees time run backwards.
    ///
    /// Planted bugs it catches: skipping the migration of heap events into
    /// the ring, filing a push at or behind the cursor into the ring, an
    /// occupancy bit left set on an opened bucket, and a heap top left
    /// behind the run's front.
    #[test]
    fn timers_past_the_queue_horizon_are_shard_and_step_identical() {
        let (base, fired, backwards) = sleeper_run(1, false);
        assert!(base.1 > 200, "workload must generate real traffic");
        assert_eq!(fired, 19 * 12, "per node: three 3 s, eight 400 ms and one 45 s timer");
        assert_eq!(backwards, 0, "a node saw time run backwards");
        assert!(base.3 > SimTime::from_micros(65_000_000), "node 5's revived 45 s timer ran");
        for (shards, stepped) in [(2, false), (3, false), (1, true), (3, true)] {
            assert_eq!(
                sleeper_run(shards, stepped),
                (base.clone(), fired, 0),
                "shards={shards} stepped={stepped} diverged from shards=1"
            );
        }
    }

    /// Cross-shard sends from a driver injection land and complete.
    #[test]
    fn with_actor_ctx_crosses_shards() {
        let cfg = SimConfig::with_seed(5)
            .latency(ConstantLatency(SimDuration::from_millis(10)))
            .shards(4);
        let mut sim = Sim::new(cfg);
        let mut ids = Vec::new();
        for _ in 0..8 {
            ids.push(sim.add_node(Echo {
                peer: None,
                pings_sent: 0,
                pongs_got: 0,
                timer_fires: 0,
                last_pong_at: SimTime::ZERO,
            }));
        }
        sim.run_until_quiescent();
        for i in 0..8 {
            let dst = ids[(i + 3) % 8];
            sim.with_actor_ctx::<Echo, _>(ids[i], |_, ctx| ctx.send(dst, Msg::Ping, 23, PING.id()));
        }
        sim.run_until_quiescent();
        let pongs: u32 = ids.iter().map(|&id| sim.actor::<Echo>(id).pongs_got).sum();
        assert_eq!(pongs, 8, "every cross-shard ping must be echoed back");
        assert_eq!(sim.metrics().counter("test.ping").count, 8);
    }

    /// `event_stats` tracks processed and pending work across shards.
    #[test]
    fn event_stats_accounts_processed_and_pending() {
        let (mut sim, _a, _b) = echo_pair();
        assert_eq!(sim.event_stats().processed, 0);
        assert_eq!(sim.event_stats().pending, 2, "two start events queued");
        sim.run_until_quiescent();
        let stats = sim.event_stats();
        assert_eq!(stats.pending, 0);
        // 2 starts + ping + pong + timer.
        assert_eq!(stats.processed, 5);
        assert!(stats.peak_pending >= 2);
    }

    /// The kernel slot diet pin: per-node bookkeeping is one packed word
    /// (`up:1 | epoch:31 | seq:32`) plus a 4-byte packed locate entry, and
    /// the fields never clobber each other.
    #[test]
    fn per_node_kernel_slot_is_packed() {
        assert_eq!(size_of::<Loc>(), 4);
        let loc = Loc::new(255, (1 << 24) - 1);
        assert_eq!(loc.shard(), 255);
        assert_eq!(loc.local(), (1 << 24) - 1);

        let mut nt = NodeTable::new();
        let a = nt.push(stream_rng(1, 1));
        let b = nt.push(stream_rng(1, 2));
        assert_eq!(size_of_val(&nt.slot[a]), 8);
        assert!(nt.is_up(a) && nt.is_up(b));
        // Sequence numbers advance per node, independently.
        assert_eq!(nt.next_seq(a), 0);
        assert_eq!(nt.next_seq(a), 1);
        assert_eq!(nt.next_seq(b), 0);
        // Epoch bumps don't disturb liveness or the sequence counter.
        nt.set_up(a, false);
        nt.bump_epoch(a);
        assert!(!nt.is_up(a));
        assert_eq!(nt.epoch(a), 1);
        assert_eq!(nt.next_seq(a), 2);
        nt.set_up(a, true);
        nt.bump_epoch(a);
        assert!(nt.is_up(a));
        assert_eq!(nt.epoch(a), 2);
        assert_eq!(nt.epoch(b), 0, "epochs are per-node");
        // The 31-bit epoch wraps in-field instead of bleeding into the
        // liveness bit (seed the field at its max directly — 2^31 bumps
        // would take most of a minute).
        nt.slot[b] = (nt.slot[b] & !(NodeTable::EPOCH_MASK << NodeTable::EPOCH_SHIFT))
            | NodeTable::EPOCH_MASK << NodeTable::EPOCH_SHIFT;
        assert_eq!(nt.epoch(b), NodeTable::EPOCH_MASK as u32);
        nt.bump_epoch(b);
        assert_eq!(nt.epoch(b), 0, "wraps at 2^31");
        assert!(nt.is_up(b), "wrap must not flip liveness");
        assert_eq!(nt.next_seq(b), 1, "wrap must not disturb the sequence field");
    }

    /// `mem_stats` kernel accounting tracks the dieted tables: growing the
    /// node count by N adds ~one slot word + RNG + locate entry per node.
    #[test]
    fn mem_stats_audits_packed_node_state() {
        struct Idle;
        impl Actor<Msg> for Idle {
            fn on_message(&mut self, _: &mut dyn Ctx<Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _: &mut dyn Ctx<Msg>, _: TimerToken) {}
        }
        let per_node =
            size_of::<u64>() + size_of::<SimRng>() + size_of::<Loc>() + size_of::<usize>();
        let mut sim: Sim<Msg> = Sim::new(SimConfig::with_seed(7));
        for _ in 0..1024 {
            sim.add_node(Idle);
        }
        sim.run_until_quiescent();
        let before = sim.mem_stats().kernel_bytes;
        for _ in 0..1024 {
            sim.add_node(Idle);
        }
        sim.run_until_quiescent();
        let grown = sim.mem_stats().kernel_bytes - before;
        // Vec growth doubles capacities, so the marginal cost per node is
        // bounded by 2× the packed layout (plus slack for the event queue's
        // run buffer, whose size the first batch's starts already set).
        let bound = (2 * per_node * 1024 + 4096) as u64;
        assert!(grown <= bound, "kernel grew {grown} B for 1024 nodes (bound {bound})");
    }

    /// Tallies probe callbacks without ever touching the sim.
    #[derive(Default)]
    struct CountingProbe {
        windows: AtomicU64,
        drained: AtomicU64,
        cross: AtomicU64,
        barriers: AtomicU64,
    }

    impl KernelProbe for CountingProbe {
        fn window_done(&self, _shard: u32, _now_us: u64, drained: u64, cross_sends: u64) {
            self.windows.fetch_add(1, Relaxed);
            self.drained.fetch_add(drained, Relaxed);
            self.cross.fetch_add(cross_sends, Relaxed);
        }
        fn barrier_begin(&self, _shard: u32) {
            self.barriers.fetch_add(1, Relaxed);
        }
    }

    /// Installing a probe observes window telemetry but perturbs nothing:
    /// every run observable stays bit-identical to the probe-free runs.
    #[test]
    fn kernel_probe_observes_without_perturbing() {
        let baseline = relay_run(1);
        const N: u32 = 23;
        let run_probed = |shards: usize, probe: Arc<CountingProbe>| -> RelayRun {
            let cfg = SimConfig::with_seed(0xFEED)
                .latency(UniformLatency::new(
                    SimDuration::from_millis(20),
                    SimDuration::from_millis(80),
                ))
                .shards(shards);
            let mut sim = Sim::new(cfg);
            sim.set_probe(probe);
            for _ in 0..N {
                sim.add_node(Relay { n: N, forwards: 0, received: 0 });
            }
            sim.run_for(SimDuration::from_millis(400));
            sim.set_down(NodeId::new(4));
            sim.set_down(NodeId::new(17));
            sim.run_for(SimDuration::from_millis(300));
            sim.set_up(NodeId::new(4));
            sim.with_actor_ctx::<Relay, _>(NodeId::new(2), |_, ctx| {
                ctx.send(NodeId::new(11), Hop(6), 40, PING.id())
            });
            sim.run_until_quiescent();
            let mut counters: Vec<(&'static str, u64, u64)> =
                sim.metrics().counters().map(|(c, v)| (c, v.count, v.bytes)).collect();
            counters.sort_unstable();
            let received: u64 = (0..N).map(|i| sim.actor::<Relay>(NodeId::new(i)).received).sum();
            (counters, sim.metrics().total_messages, sim.metrics().total_bytes, sim.now(), received)
        };

        // At one and two shards alike, window telemetry fires and the
        // drained census covers every processed event; only two shards
        // have a peer to meet at a barrier.
        for shards in [1, 2] {
            let probe = Arc::new(CountingProbe::default());
            assert_eq!(
                run_probed(shards, Arc::clone(&probe)),
                baseline,
                "probe must be stat-neutral at shards={shards}"
            );
            assert!(probe.windows.load(Relaxed) > 0, "windows must be observed at shards={shards}");
            assert_eq!(
                probe.drained.load(Relaxed),
                baseline.1 + 2 * u64::from(N) + 1, // deliveries + starts/timers… == processed
                "window drains must census exactly the processed events at shards={shards}"
            );
            assert_eq!(probe.barriers.load(Relaxed) > 0, shards > 1);
        }
    }

    /// Records the thread every handler of its node ran on.
    struct ThreadTap {
        inner: Relay,
        threads: Vec<std::thread::ThreadId>,
    }

    impl Actor<Hop> for ThreadTap {
        fn on_start(&mut self, ctx: &mut dyn Ctx<Hop>) {
            self.threads.push(std::thread::current().id());
            self.inner.on_start(ctx);
        }
        fn on_message(&mut self, ctx: &mut dyn Ctx<Hop>, from: NodeId, msg: Hop) {
            self.threads.push(std::thread::current().id());
            self.inner.on_message(ctx, from, msg);
        }
        fn on_timer(&mut self, ctx: &mut dyn Ctx<Hop>, token: TimerToken) {
            self.threads.push(std::thread::current().id());
            self.inner.on_timer(ctx, token);
        }
    }

    /// Shard 0 runs on the caller's thread at every shard count: one shard
    /// spawns no worker, and two shards spawn one, for shard 1.
    #[test]
    fn shard_zero_runs_on_the_callers_thread() {
        const N: u32 = 23;
        let me = std::thread::current().id();
        for shards in [1, 2] {
            let cfg = SimConfig::with_seed(0xFEED)
                .latency(ConstantLatency(SimDuration::from_millis(20)))
                .shards(shards);
            let mut sim = Sim::new(cfg);
            for _ in 0..N {
                let inner = Relay { n: N, forwards: 0, received: 0 };
                sim.add_node(ThreadTap { inner, threads: Vec::new() });
            }
            sim.run_until_quiescent();
            for i in 0..N {
                let id = NodeId::new(i);
                let tap = sim.actor::<ThreadTap>(id);
                assert!(!tap.threads.is_empty(), "node {i} never ran");
                if sim.shard_of(id) == 0 {
                    assert!(
                        tap.threads.iter().all(|&t| t == me),
                        "shards={shards}: node {i} of shard 0 ran off the caller's thread"
                    );
                } else {
                    assert!(tap.threads.iter().all(|&t| t != me), "node {i} ran on shard 0");
                }
            }
        }
    }

    /// Nodes spread across shards under the fixed hash (no shard starves).
    #[test]
    fn shard_assignment_spreads_nodes() {
        let cfg = SimConfig::with_seed(1).shards(4);
        let mut sim: Sim<Msg> = Sim::new(cfg);
        for _ in 0..256 {
            sim.add_node(Maintainer { ticks: 0, revivals: 0 });
        }
        let mut by_shard = [0usize; 4];
        for i in 0..256 {
            by_shard[sim.shard_of(NodeId::new(i)) as usize] += 1;
        }
        assert_eq!(by_shard.iter().sum::<usize>(), 256);
        for (ix, &c) in by_shard.iter().enumerate() {
            assert!(c > 32, "shard {ix} got only {c}/256 nodes");
        }
    }
}
