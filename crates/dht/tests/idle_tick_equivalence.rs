//! The idle DHT node: a maintenance tick that only pays for what is due
//! must do exactly what the tick that walked everything did.
//!
//! Three shortcuts, each resting on one invariant (DESIGN.md, "The idle DHT
//! node"), each held here against a reference that does the full work:
//!
//! * `Storage::expire` returns early below a *lower bound* on the earliest
//!   expiry — against an eager model that filters every chain every time;
//! * `RoutingTable::stale_refresh_targets` scans `buckets[..depth]` —
//!   against all 160 buckets, rebuilt from the `observe` calls alone;
//! * `DhtCore::sweep_timeouts` pops the expired *prefix* of the id-ordered
//!   pending map — against the kernel's own ledger of requests dropped at
//!   dead nodes, and against a scripted network with a zero RPC timeout.

use pier_dht::{
    bootstrap, classes, Contact, DhtApp, DhtConfig, DhtCore, DhtEvent, DhtMsg, DhtNet, DhtNode,
    Key, RoutingTable, Storage, KEY_BITS,
};
use pier_netsim::{
    stream_rng, MetricClass, NodeId, Sim, SimConfig, SimDuration, SimRng, SimTime, UniformLatency,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// (a) Storage::expire against an eager model
// ---------------------------------------------------------------------------

/// The reference store: insertion-ordered chains, and an `expire` that
/// looks at every value every time. Like `Storage`, it keeps an expired
/// value until a sweep (`expire`, or `fetch` on its key) meets it.
#[derive(Default)]
struct EagerStore {
    chains: BTreeMap<Key, Vec<(Vec<u8>, u64)>>,
}

impl EagerStore {
    fn insert(&mut self, key: Key, value: Vec<u8>, expires: u64) -> bool {
        let chain = self.chains.entry(key).or_default();
        match chain.iter_mut().find(|(v, _)| *v == value) {
            Some((_, e)) => {
                *e = (*e).max(expires);
                false
            }
            None => {
                chain.push((value, expires));
                true
            }
        }
    }

    fn get(&self, key: &Key, now: u64) -> Vec<&[u8]> {
        let chain = self.chains.get(key).map_or(&[][..], Vec::as_slice);
        chain.iter().filter(|(_, e)| *e > now).map(|(v, _)| v.as_slice()).collect()
    }

    fn fetch(&mut self, key: &Key, now: u64) -> Vec<Vec<u8>> {
        let Some(chain) = self.chains.get_mut(key) else { return Vec::new() };
        chain.retain(|(_, e)| *e > now);
        let live = chain.iter().map(|(v, _)| v.clone()).collect();
        self.chains.retain(|_, c| !c.is_empty());
        live
    }

    fn expire(&mut self, now: u64) -> usize {
        let mut dropped = 0;
        for chain in self.chains.values_mut() {
            let before = chain.len();
            chain.retain(|(_, e)| *e > now);
            dropped += before - chain.len();
        }
        self.chains.retain(|_, c| !c.is_empty());
        dropped
    }

    /// The value that will expire first (the one the bound rests on).
    fn earliest(&self) -> Option<(Key, Vec<u8>, u64)> {
        self.chains
            .iter()
            .flat_map(|(k, c)| c.iter().map(move |(v, e)| (*k, v.clone(), *e)))
            .min_by_key(|(_, _, e)| *e)
    }

    fn total_bytes(&self) -> usize {
        self.chains.values().flatten().map(|(v, _)| v.len()).sum()
    }
}

const STORE_KEYS: u8 = 5;

fn at(units: u64) -> SimTime {
    SimTime::from_micros(units)
}

proptest! {
    /// Random inserts (new values; the same bytes re-inserted with a later
    /// and with an earlier expiry, the current earliest value included),
    /// sweeping reads, expiry passes at arbitrary instants and one short
    /// of / onto / one past the earliest expiry, and `clear`-then-reuse:
    /// after every step the store and the eager model agree on what
    /// `expire` dropped, on every key's live values, and on the totals.
    #[test]
    fn expire_below_the_bound_matches_an_eager_sweep(
        ops in prop::collection::vec(
            (0u8..12, 0u8..STORE_KEYS, 0u8..4, 0u64..40, 0u64..3),
            1..250,
        )
    ) {
        let mut store = Storage::new();
        let mut model = EagerStore::default();
        for (step, (kind, k, v, time, off)) in ops.into_iter().enumerate() {
            let key = Key([k; 20]);
            let value = vec![v; v as usize + 1];
            let mut now = time;
            match kind {
                0..=3 => {
                    let fresh = store.insert(key, value.clone(), at(time));
                    prop_assert_eq!(fresh, model.insert(key, value, time), "step {}", step);
                }
                // Extend (or try to shorten) the value holding the minimum.
                4 => {
                    if let Some((ek, ev, _)) = model.earliest() {
                        prop_assert!(!store.insert(ek, ev.clone(), at(time)), "step {}", step);
                        model.insert(ek, ev, time);
                    }
                }
                5 | 6 => {
                    let got: Vec<Vec<u8>> =
                        store.fetch(&key, at(time)).into_iter().map(<[u8]>::to_vec).collect();
                    prop_assert_eq!(got, model.fetch(&key, time), "step {}", step);
                }
                7 | 8 => {
                    prop_assert_eq!(store.expire(at(time)), model.expire(time), "step {}", step);
                }
                9 | 10 => {
                    let earliest = model.earliest().map_or(time, |(_, _, e)| e);
                    now = (earliest + off).saturating_sub(1);
                    prop_assert_eq!(store.expire(at(now)), model.expire(now), "step {}", step);
                }
                _ => {
                    if off == 0 {
                        store.clear();
                        model = EagerStore::default();
                    }
                }
            }
            for k in 0..STORE_KEYS {
                let key = Key([k; 20]);
                prop_assert_eq!(store.get(&key, at(now)), model.get(&key, now), "step {}", step);
            }
            prop_assert_eq!(store.key_count(), model.chains.len(), "step {}", step);
            prop_assert_eq!(store.total_bytes(), model.total_bytes(), "step {}", step);
        }
    }
}

// ---------------------------------------------------------------------------
// (b) stale_refresh_targets against all 160 buckets
// ---------------------------------------------------------------------------

/// What the table returned before the scan stopped at `depth`: every one
/// of the 160 buckets, occupancy read off the contact list and touch times
/// taken from the `observe` calls the test made.
fn full_scan_targets(
    table: &RoutingTable,
    touched: &[SimTime; KEY_BITS],
    cutoff: SimTime,
) -> Vec<Key> {
    let local = table.local().key;
    let mut occupied = [false; KEY_BITS];
    for c in table.contacts() {
        occupied[local.bucket_index(&c.key).expect("the local key is never stored")] = true;
    }
    (0..KEY_BITS)
        .filter(|&i| occupied[i] && touched[i] < cutoff)
        .map(|i| local.with_flipped_bit(i))
        .collect()
}

proptest! {
    /// Random tables: observes at random times into buckets `raw % span`
    /// (a small `span` overflows shallow buckets, a large one leaves single
    /// contacts that a `remove` empties) and into the deepest few buckets,
    /// removes, and a stale query after every step with a cutoff drawn from
    /// the same range as the touch times.
    #[test]
    fn stale_targets_match_a_full_bucket_scan(
        local in any::<u64>(),
        k in 1usize..=4,
        span in 1usize..=KEY_BITS,
        ops in prop::collection::vec(
            (0u8..8, 0usize..KEY_BITS, 0usize..KEY_BITS, 0u64..50),
            1..120,
        ),
    ) {
        let local = Key::hash(&local.to_le_bytes());
        let mut table = RoutingTable::new(Contact::new(local, NodeId::new(0)), k);
        let mut touched = [SimTime::ZERO; KEY_BITS];
        prop_assert_eq!(table.stale_refresh_targets(at(50)).count(), 0);
        for (step, (kind, raw, low, time)) in ops.into_iter().enumerate() {
            match kind {
                0..=4 => {
                    let bucket = if kind == 4 { KEY_BITS - 1 - raw % 4 } else { raw % span };
                    // In `bucket`, and one of up to 160 - bucket keys there.
                    let mut key = local.with_flipped_bit(bucket);
                    if low > bucket {
                        key = key.with_flipped_bit(low);
                    }
                    table.observe(Contact::new(key, NodeId::new(step as u32 + 1)), at(time));
                    touched[bucket] = at(time);
                }
                5 | 6 => {
                    let victim = table.contacts().nth(raw % table.len().max(1));
                    if let Some(c) = victim {
                        table.remove(&c.key);
                    }
                }
                _ => {}
            }
            let got: Vec<Key> = table.stale_refresh_targets(at(time)).collect();
            prop_assert_eq!(got, full_scan_targets(&table, &touched, at(time)), "step {}", step);
        }
    }
}

// ---------------------------------------------------------------------------
// (c) sweep_timeouts: every request to a dead node times out once, on time
// ---------------------------------------------------------------------------

/// Test app that records every event it sees.
#[derive(Default)]
struct Recorder {
    events: Vec<DhtEvent>,
}

impl DhtApp for Recorder {
    fn on_event(&mut self, _dht: &mut DhtCore, _net: &mut dyn DhtNet, event: DhtEvent) {
        self.events.push(event);
    }
}

type Node = DhtNode<Recorder>;

const OVERLAY_NODES: usize = 45;
const MAX_LATENCY: SimDuration = SimDuration::from_millis(50);

proptest! {
    /// A warm overlay with a third of its nodes down before any traffic
    /// (so only requests, never responses, are addressed to a dead node),
    /// `put`s and `get`s from the live ones, the kernel advanced one tick
    /// at a time. The kernel counts each request it drops at a dead node;
    /// the RPC layer must count exactly those as timed out — none early,
    /// none more than a tick late, none twice, none never — and every
    /// operation must report back.
    ///
    /// The run ends before `bucket_refresh` makes the first bucket stale,
    /// so the drain really drains.
    #[test]
    fn requests_to_dead_nodes_time_out_once_and_on_time(
        seed in any::<u64>(),
        schedule in prop::collection::vec((0usize..OVERLAY_NODES, any::<bool>(), 0u8..6), 10..40),
    ) {
        let cfg = DhtConfig::test();
        let (tick, rpc_timeout) = (cfg.tick, cfg.rpc_timeout);
        let latency = UniformLatency::new(SimDuration::from_millis(10), MAX_LATENCY);
        let mut sim: Sim<DhtMsg> = Sim::new(SimConfig::with_seed(seed).latency(latency));
        let contacts: Vec<Contact> =
            (0..OVERLAY_NODES as u32).map(|i| Contact::for_node(NodeId::new(i))).collect();
        let mut ids = Vec::new();
        for c in &contacts {
            let mut core = DhtCore::new(cfg.clone(), *c);
            bootstrap::fill_table(core.table_mut(), &contacts, 4);
            ids.push(sim.add_node(DhtNode::new(core, Recorder::default(), None)));
        }
        let (dead, live): (Vec<NodeId>, Vec<NodeId>) =
            ids.iter().partition(|id| id.index() % 3 == 0);
        for &id in &dead {
            sim.set_down(id);
        }

        let steps = (SimDuration::from_secs(25).as_micros() / tick.as_micros()) as usize;
        prop_assert!(SimDuration::from_secs(25) < cfg.bucket_refresh);
        let mut issued: BTreeMap<NodeId, (usize, usize)> = BTreeMap::new();
        // Index j: the counters once every event up to j * tick has run.
        let mut drops = vec![0u64];
        let mut timeouts = vec![0u64];
        for j in 0..steps {
            if let Some(&(node, is_put, k)) = schedule.get(j) {
                let src = live[node % live.len()];
                let key = Key::hash(&[k]);
                sim.with_actor_ctx::<Node, _>(src, |n, ctx| {
                    let mut net = pier_dht::CtxNet { ctx };
                    if is_put {
                        n.core.put(&mut net, key, vec![k, j as u8]);
                    } else {
                        n.core.get(&mut net, key);
                    }
                });
                let (puts, gets) = issued.entry(src).or_default();
                *(if is_put { puts } else { gets }) += 1;
            }
            sim.run_for(tick);
            drops.push(sim.metrics().counter("sim.dropped_to_down_node").count);
            timeouts.push(sim.metrics().counter("dht.rpc_timeout").count);
        }

        // A request dropped by T - rpc_timeout - tick was sent no later, so
        // its deadline passed by T - tick and a tick has run since. One
        // timed out by T was sent by T - rpc_timeout and dropped at most a
        // latency later; `early` rounds that instant up to a step boundary.
        let late = (rpc_timeout.as_micros() + tick.as_micros()).div_ceil(tick.as_micros()) as usize;
        let early = ((rpc_timeout.as_micros() - MAX_LATENCY.as_micros()) / tick.as_micros()) as usize;
        for j in 0..=steps {
            prop_assert!(timeouts[j] >= drops[j.saturating_sub(late)], "late at step {}", j);
            prop_assert!(timeouts[j] <= drops[j.saturating_sub(early)], "early at step {}", j);
        }

        let m = sim.metrics();
        let dropped = m.counter("sim.dropped_to_down_node").count;
        prop_assert!(dropped > 0, "the dead third must have been asked something");
        prop_assert_eq!(
            m.counter_prefix_sum("dht.req.").count,
            m.counter_prefix_sum("dht.resp.").count + dropped
        );
        prop_assert_eq!(
            m.counter("dht.rpc_timeout").count,
            dropped + m.counter("dht.stale_response").count
        );
        for (&id, &(puts, gets)) in &issued {
            let events = &sim.actor::<Node>(id).app.events;
            let done = |f: fn(&DhtEvent) -> bool| events.iter().filter(|e| f(e)).count();
            prop_assert_eq!(done(|e| matches!(e, DhtEvent::PutDone { .. })), puts, "{:?}", id);
            prop_assert_eq!(done(|e| matches!(e, DhtEvent::GetDone { .. })), gets, "{:?}", id);
        }
    }
}

/// A network nobody answers on; it only counts.
struct SilentNet {
    now: SimTime,
    rng: SimRng,
    requests: u64,
    timeouts: u64,
}

impl DhtNet for SilentNet {
    fn now(&self) -> SimTime {
        self.now
    }
    fn self_node(&self) -> NodeId {
        NodeId::new(0)
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn send_dht(&mut self, _dst: NodeId, msg: DhtMsg) {
        self.requests += u64::from(matches!(msg, DhtMsg::Request { .. }));
    }
    fn count(&mut self, class: MetricClass, n: u64) {
        if class == classes::RPC_TIMEOUT.id() {
            self.timeouts += n;
        }
    }
    fn observe(&mut self, _class: MetricClass, _value: f64) {}
}

/// With `rpc_timeout = 0` the replacement RPCs a sweep sends are already
/// "due" the instant they leave. The sweep must still stop at the RPCs that
/// were in flight when it began: each tick fails exactly those, the lookup
/// walks its shortlist one round per tick, and it ends in one `LookupDone`.
#[test]
fn a_sweep_never_times_out_the_rpcs_it_sends() {
    let cfg = DhtConfig { rpc_timeout: SimDuration::ZERO, ..DhtConfig::test() };
    let contacts: Vec<Contact> = (0..40).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let mut core = DhtCore::new(cfg.clone(), contacts[0]);
    bootstrap::fill_table(core.table_mut(), &contacts, 4);
    let mut net = SilentNet { now: SimTime::ZERO, rng: stream_rng(0, 0), requests: 0, timeouts: 0 };

    let op = core.iterative_find_node(&mut net, Key::hash(b"nobody answers"));
    assert_eq!(net.requests, cfg.alpha as u64);
    let mut rounds = 0;
    while net.timeouts < net.requests {
        let sent_before = net.requests;
        net.now += cfg.tick;
        core.tick(&mut net);
        assert_eq!(net.timeouts, sent_before, "round {rounds} swept an RPC it sent itself");
        rounds += 1;
    }
    assert!(rounds > 1, "the shortlist outlasts one round of alpha");
    let events = core.take_events();
    assert!(
        matches!(&events[..], [DhtEvent::LookupDone { op: done, closest }] if *done == op && closest.is_empty()),
        "{events:?}"
    );
}
