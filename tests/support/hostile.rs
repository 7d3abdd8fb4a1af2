//! The hostile-network test bed the four `hostile_network` harnesses
//! include: one fate table, one in-flight queue and one recording net, a
//! `Ctx<M>` that DHT and Gnutella cores reach through their crates' own
//! `CtxNet` / `CtxGnutellaNet`, as in the simulator. Each harness keeps its
//! world, its dispatch and its numbered invariants. DESIGN.md ("The
//! hostile-network test bed") states the verdict kinds, the delay ranges,
//! the polite transform and each harness's hold.

use pier_dht::{bootstrap, Contact, DhtConfig, DhtCore};
use pier_netsim::{
    stream_rng, Ctx, LazyMetricClass, MetricClass, NodeId, SimDuration, SimRng, SimTime, TimerToken,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::RangeInclusive;

/// One fate: a verdict kind and two delay seeds.
pub type Entry = (u8, u16, u16);

/// A schedule of 1–47 entries with kinds below `kinds`.
pub fn schedule(kinds: u8) -> impl Strategy<Value = Vec<Entry>> {
    prop::collection::vec((0..kinds, any::<u16>(), any::<u16>()), 1..48)
}

/// The delay range, in ms, of every harness but PIER's.
pub const SOON: RangeInclusive<u64> = 10..=90;

/// Seed `x` drawn into `ms`, a range of milliseconds.
pub fn within(ms: RangeInclusive<u64>, x: u16) -> SimDuration {
    SimDuration::from_millis(ms.start() + u64::from(x) % (ms.end() - ms.start() + 1))
}

/// The polite network's one-way latency.
pub const LATENCY: SimDuration = SimDuration::from_millis(10);

/// When a sent message arrives: once per delay, after it; no delay drops
/// it. A fate may rewrite the message first, every copy of it.
pub type Fate<M> = Box<dyn FnMut(&mut M) -> Vec<SimDuration>>;

/// Every message once, after `LATENCY`.
pub fn polite<M>() -> Fate<M> {
    scripted(|_| None)
}

/// Every message once after `LATENCY`, except those `pick` chooses, which
/// arrive after each of the delays it gives.
pub fn scripted<M>(pick: impl Fn(&M) -> Option<Vec<SimDuration>> + 'static) -> Fate<M> {
    Box::new(move |msg| pick(msg).unwrap_or_else(|| vec![LATENCY]))
}

/// `nodes` DHT cores under `cfg`, each with every other in its table.
pub fn meshed(cfg: &DhtConfig, nodes: u32) -> Vec<DhtCore> {
    let contacts: Vec<Contact> = (0..nodes).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let core = |c: &Contact| {
        let mut dht = DhtCore::new(cfg.clone(), *c);
        bootstrap::fill_table(dht.table_mut(), &contacts, nodes as usize);
        assert_eq!(dht.table().len(), nodes as usize - 1, "a full table");
        dht
    };
    contacts.iter().map(core).collect()
}

/// The fate table: a schedule read in send order, under one verdict rule.
pub struct Table {
    schedule: Vec<Entry>,
    sent: usize,
    polite: bool,
    soon: RangeInclusive<u64>,
}

impl Table {
    /// `schedule`, with delays drawn from `soon` (ms). A polite table
    /// turns drops and holds into repeats.
    pub fn new(schedule: Vec<Entry>, polite: bool, soon: RangeInclusive<u64>) -> Table {
        Table { schedule, sent: 0, polite, soon }
    }

    /// The next message's kind and delays. Kinds 0–3 deliver once after
    /// `soon(a)`, 4 twice after `soon(a)` and `soon(b)`, 5 drops and 6
    /// holds for `held(a)`; a polite table repeats 5 and 6 as it does 4.
    /// Kinds from 7 up are a harness's own: they deliver once, and the
    /// harness rewrites the message.
    pub fn next(&mut self, held: impl FnOnce(u16) -> SimDuration) -> (u8, Vec<SimDuration>) {
        let (kind, a, b) = self.schedule[self.sent % self.schedule.len()];
        self.sent += 1;
        let soon = |x| within(self.soon.clone(), x);
        let delays = match (kind, self.polite) {
            (4, _) | (5 | 6, true) => vec![soon(a), soon(b)],
            (5, false) => vec![],
            (6, false) => vec![held(a)],
            _ => vec![soon(a)],
        };
        (kind, delays)
    }

    /// The table as a fate that holds `msg` for `held(msg, a)`.
    pub fn fate<M>(mut self, held: impl Fn(&M, u16) -> SimDuration + 'static) -> Fate<M> {
        Box::new(move |msg| self.next(|a| held(msg, a)).1)
    }
}

/// What reaches a node: a message or one of its own timers.
pub enum Event<M> {
    Msg(M),
    Timer(TimerToken),
}

/// The most message copies a run may post: far above any harness's
/// traffic, far below what would exhaust memory. A run past it has a loop
/// that feeds itself.
pub const MAX_SENDS: u64 = 50_000;

/// What is in flight, by (arrival, posting order), so same-instant
/// arrivals pop in send order; each entry is `(from, to, event)`.
pub struct Wire<M> {
    queue: BTreeMap<(SimTime, u64), (NodeId, NodeId, Event<M>)>,
    posted: u64,
    /// Message copies posted, and those not yet delivered.
    sends: u64,
    in_flight: u64,
    /// When a flush last sent anything, and a message was last delivered.
    pub last_send: SimTime,
    pub last_delivery: SimTime,
    pub fate: Fate<M>,
}

impl<M: Clone> Wire<M> {
    pub fn new(fate: Fate<M>) -> Wire<M> {
        Wire {
            queue: BTreeMap::new(),
            posted: 0,
            sends: 0,
            in_flight: 0,
            last_send: SimTime::ZERO,
            last_delivery: SimTime::ZERO,
            fate,
        }
    }

    fn push(&mut self, at: SimTime, from: NodeId, to: NodeId, ev: Event<M>) {
        self.queue.insert((at, self.posted), (from, to, ev));
        self.posted += 1;
    }

    /// One copy of `msg`, from `from`, arriving at `to` at `at`.
    pub fn post(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        self.sends += 1;
        self.in_flight += 1;
        self.push(at, from, to, Event::Msg(msg));
    }

    /// `node`'s timer `token`, firing at `at`.
    pub fn arm(&mut self, at: SimTime, node: NodeId, token: TimerToken) {
        self.push(at, node, node, Event::Timer(token));
    }

    /// The first event due by `by`, as `(at, from, to, event)`.
    pub fn pop_due(&mut self, by: SimTime) -> Option<(SimTime, NodeId, NodeId, Event<M>)> {
        let due = self.queue.first_entry().filter(|e| e.key().0 <= by)?;
        let ((at, _), (from, to, ev)) = due.remove_entry();
        if let Event::Msg(_) = ev {
            self.in_flight -= 1;
            self.last_delivery = at;
        }
        Some((at, from, to, ev))
    }

    /// Whether no message is in flight; armed timers do not count.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Post what `net`'s node sent, each through the fate, and arm the
    /// timers it set. Returns what it sent.
    pub fn flush(&mut self, net: &mut Net<M>) -> Vec<(NodeId, M)> {
        let (from, now) = (net.node, net.now);
        for (delay, token) in std::mem::take(&mut net.timers) {
            self.arm(now + delay, from, token);
        }
        let sent = std::mem::take(&mut net.outbox);
        if !sent.is_empty() {
            self.last_send = now;
        }
        for (to, msg) in &sent {
            let mut msg = msg.clone();
            for delay in (self.fate)(&mut msg) {
                self.post(now + delay, from, *to, msg.clone());
            }
        }
        sent
    }
}

/// A harness's world, as `run` drives it.
pub trait World<M: Clone> {
    fn bed(&mut self) -> (&mut Net<M>, &mut Wire<M>);
    /// Hand `msg`, sent by `from`, to node `to`.
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: M);
    /// Fire `node`'s timer `token`.
    fn fire(&mut self, _node: NodeId, _token: TimerToken) {
        unreachable!("this world arms no timers")
    }
    /// Tick every node.
    fn tick(&mut self) {}
    /// When the run may end, once no message is in flight.
    fn quiet(&self) -> SimTime;
}

/// Deliver every event in order, and tick every node at `first` and each
/// `period` after when `ticks` is `Some((first, period))`, until no
/// message is in flight and the clock has reached `quiet()`. Panics past
/// `MAX_SENDS`.
pub fn run<M: Clone>(w: &mut impl World<M>, mut ticks: Option<(SimTime, SimDuration)>) {
    loop {
        let (net, wire) = w.bed();
        assert!(wire.sends <= MAX_SENDS, "{} sends: a message storm", wire.sends);
        let (idle, now) = (wire.is_empty(), net.now);
        if idle && now >= w.quiet() {
            return;
        }
        let by = ticks.map_or(SimTime::from_micros(u64::MAX), |(at, _)| at);
        if step(w, by) {
            continue;
        }
        let Some((at, period)) = ticks else { return };
        w.bed().0.now = at;
        w.tick();
        ticks = Some((at + period, period));
    }
}

/// Deliver or fire the first event due by `by`; false if there is none.
pub fn step<M: Clone>(w: &mut impl World<M>, by: SimTime) -> bool {
    let (net, wire) = w.bed();
    let Some((at, from, to, ev)) = wire.pop_due(by) else { return false };
    net.now = at;
    match ev {
        Event::Msg(msg) => w.deliver(from, to, msg),
        Event::Timer(token) => w.fire(to, token),
    }
    true
}

/// The ends-once ledger: each request, by key, as first seen ended. A
/// request ends by its deadline at the latest and changes no more after.
pub struct Ends<K, V>(pub BTreeMap<K, V>);

impl<K: Ord, V: PartialEq + Debug> Ends<K, V> {
    /// Request `key` at `now`, due by `deadline`: ended at `at` as `v`
    /// (`Some((at, v))`, with `v` all that may not change after), or open.
    /// How it broke the ledger, if it did.
    pub fn check(
        &mut self,
        key: K,
        now: SimTime,
        deadline: SimTime,
        end: Option<(SimTime, V)>,
    ) -> Option<String> {
        match (self.0.get(&key), end) {
            (Some(was), end) => {
                let is = end.map(|(_, v)| v);
                (Some(was) != is.as_ref())
                    .then(|| format!("changed after its end: {was:?} → {is:?}"))
            }
            (None, Some((at, v))) => {
                let late = (at > deadline).then(|| format!("ended at {at:?}, past its deadline"));
                self.0.insert(key, v);
                late
            }
            (None, None) => (now > deadline).then(|| format!("open at {now:?}")),
        }
    }
}

/// `f`'s value, or what it panicked with.
pub fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|panic| {
        let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
        format!("panicked: {:?}", panic.downcast_ref::<String>().cloned().or(text))
    })
}

/// What a node sees of the network: the clock, its own RNG stream, an
/// outbox, the timers it set, and the counters the invariants read, per
/// node.
pub struct Net<M> {
    pub now: SimTime,
    pub node: NodeId,
    rngs: Vec<SimRng>,
    pub outbox: Vec<(NodeId, M)>,
    pub timers: Vec<(SimDuration, TimerToken)>,
    pub counts: BTreeMap<(NodeId, MetricClass), u64>,
}

impl<M> Net<M> {
    /// The net of `nodes` nodes; node `n` draws from stream `n` of `seed`.
    pub fn new(seed: u64, nodes: u32) -> Net<M> {
        Net {
            now: SimTime::ZERO,
            node: NodeId::new(0),
            rngs: (0..u64::from(nodes)).map(|n| stream_rng(seed, n)).collect(),
            outbox: Vec::new(),
            timers: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// What `node` counted in `class`.
    pub fn at(&self, node: NodeId, class: &LazyMetricClass) -> u64 {
        self.counts.get(&(node, class.id())).copied().unwrap_or(0)
    }

    /// What every node counted in `class`.
    pub fn total(&self, class: &LazyMetricClass) -> u64 {
        let class = class.id();
        self.counts.iter().filter(|((_, c), _)| *c == class).map(|(_, n)| n).sum()
    }
}

impl<M> Ctx<M> for Net<M> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn self_id(&self) -> NodeId {
        self.node
    }
    fn send(&mut self, dst: NodeId, msg: M, _bytes: usize, _class: MetricClass) {
        self.outbox.push((dst, msg));
    }
    fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.timers.push((delay, token));
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rngs[self.node.index()]
    }
    fn count(&mut self, class: MetricClass, n: u64) {
        *self.counts.entry((self.node, class)).or_default() += n;
    }
    fn observe(&mut self, _class: MetricClass, _value: f64) {}
}

/// The verdict rule, kind by kind, polite and not: the delays stay in the
/// table's range, and only kind 6 reads the hold.
#[test]
fn the_verdict_rule_reads_one_table() {
    let held = SimDuration::from_secs(7);
    let ms = SimDuration::from_millis;
    for (kind, polite, want) in [
        (0, false, vec![ms(15)]),
        (3, true, vec![ms(15)]),
        (4, false, vec![ms(15), ms(11)]),
        (4, true, vec![ms(15), ms(11)]),
        (5, false, vec![]),
        (5, true, vec![ms(15), ms(11)]),
        (6, false, vec![held]),
        (6, true, vec![ms(15), ms(11)]),
        (7, false, vec![ms(15)]),
    ] {
        // 86 and 82 wrap past the 81 values of 10–90 ms.
        let mut table = Table::new(vec![(kind, 86, 82)], polite, SOON);
        assert_eq!(table.next(|_| held), (kind, want), "kind {kind}");
    }
    assert_eq!([within(SOON, 80), within(1..=3000, 3000)], [ms(90), ms(1)]);
}

/// Arrivals at one instant pop in the order they were posted, timers
/// among them, and nothing pops before it is due.
#[test]
fn same_instant_arrivals_pop_in_send_order() {
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let at = SimTime::from_micros(5);
    let mut wire = Wire::new(polite());
    wire.post(at, a, b, 'x');
    wire.arm(at, b, TimerToken(9));
    wire.post(at, b, a, 'y');
    wire.post(SimTime::ZERO, a, b, 'z');
    assert!(wire.pop_due(SimTime::ZERO).is_some_and(|(_, _, _, ev)| matches!(ev, Event::Msg('z'))));
    assert!(wire.pop_due(SimTime::ZERO).is_none());
    let order: Vec<_> = std::iter::from_fn(|| wire.pop_due(at))
        .map(|(_, from, to, ev)| (from, to, if let Event::Msg(m) = ev { m } else { 't' }))
        .collect();
    assert_eq!(order, [(a, b, 'x'), (b, b, 't'), (b, a, 'y')]);
    assert!(wire.is_empty());
}
