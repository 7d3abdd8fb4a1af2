//! Property tests pinning the ultrapeer's two O(1)-when-idle mechanisms to
//! the plain code they replaced.
//!
//! [`UltrapeerCore`] expires seen-GUID entries by moving a horizon at each
//! tick (sweeping the table only when an insert would grow it), stamps
//! them as `u32` offsets from a base it moves forward every 2³² µs or so,
//! and matches a query against a leaf's QRP table — a view of the leaf's
//! share — only when the leaf's 128-bit block screen admits it.
//! [`EagerCore`] below is the reference: the same protocol with
//! `seen.retain(..)` on every tick and a brute-force loop over every leaf
//! that builds a `QrpFilter` from the leaf's share and asks `matches_all`.
//! Driven by the same operations
//! through two identically seeded [`FakeNet`]s, the two must agree on every
//! send, every counter and every query record — neither mechanism may be
//! observable. The reference keeps a query's record and its pacing in two
//! tables, and states the protocol's rules plainly: a leaf's query is
//! dropped in the tick that finishes it and sends its `done`, only a
//! connected leaf's `QrpUpdate` is adopted, and a hit is relayed only while
//! it has TTL to spend.

use pier_gnutella::{
    classes, FileMeta, FileStore, GnutellaMsg, GnutellaNet, Guid, Hit, QrpFilter, QueryOrigin,
    QueryRecord, Terms, UltrapeerConfig, UltrapeerCore, DYN_TTL, HIT_TTL, PROBE_INTERVAL,
    PROBE_TTL, UP_TICK_INTERVAL,
};
use pier_netsim::{stream_rng, MemAcc, MetricClass, NodeId, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Captures everything a core does to its network, in order.
struct FakeNet {
    now: SimTime,
    rng: SimRng,
    log: Vec<String>,
}

const ME: NodeId = NodeId::new(0);

impl FakeNet {
    fn new() -> Self {
        FakeNet { now: SimTime::ZERO, rng: stream_rng(1, 0), log: Vec::new() }
    }
}

impl GnutellaNet for FakeNet {
    fn now(&self) -> SimTime {
        self.now
    }
    fn self_node(&self) -> NodeId {
        ME
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn send(&mut self, dst: NodeId, msg: GnutellaMsg) {
        self.log.push(format!("send {dst:?} {msg:?}"));
    }
    fn count(&mut self, class: MetricClass, n: u64) {
        self.log.push(format!("count {class:?} {n}"));
    }
    fn observe(&mut self, class: MetricClass, value: f64) {
        self.log.push(format!("observe {class:?} {value}"));
    }
}

/// The ultrapeer as it was before the horizon and the leaf screens: every
/// tick walks `seen`, every first-seen query asks a filter of every leaf's
/// share.
struct EagerCore {
    cfg: UltrapeerConfig,
    neighbors: Vec<NodeId>,
    /// Each connected leaf's share, once it has published its table.
    leaves: BTreeMap<NodeId, Option<FileStore>>,
    store: FileStore,
    seen: BTreeMap<Guid, (NodeId, SimTime)>,
    queries: BTreeMap<Guid, QueryRecord>,
    /// GUID → (unprobed neighbors, next probe time).
    dyn_state: BTreeMap<Guid, (Vec<NodeId>, SimTime)>,
}

impl EagerCore {
    fn own_hits(&self, terms: &Terms) -> Vec<Hit> {
        self.store.matching(terms).into_iter().map(|f| Hit { file: f.clone(), host: ME }).collect()
    }

    fn forward_to_leaves(&self, net: &mut FakeNet, guid: Guid, terms: &Terms) -> u64 {
        let mut forwards = 0;
        for (&leaf, share) in &self.leaves {
            if share.as_ref().is_some_and(|s| filter_of(s).matches_all(terms)) {
                net.send(leaf, GnutellaMsg::LeafForward { guid, terms: terms.clone() });
                forwards += 1;
            }
        }
        forwards
    }

    fn start_query(&mut self, net: &mut FakeNet, terms: Terms, origin: QueryOrigin) {
        let guid = Guid(net.rng().random());
        self.seen.insert(guid, (ME, net.now));
        let mut record = QueryRecord {
            terms: terms.clone(),
            origin,
            issued_at: net.now,
            first_hit_at: None,
            hits: self.own_hits(&terms),
            probes_sent: 0,
            finished: false,
        };
        if !record.hits.is_empty() {
            record.first_hit_at = Some(net.now);
            if let QueryOrigin::Leaf { leaf, qid } = origin {
                let hits = record.hits.clone();
                net.send(leaf, GnutellaMsg::LeafResults { qid, hits, done: false });
            }
        }
        self.forward_to_leaves(net, guid, &terms);
        let mut order = self.neighbors.clone();
        order.shuffle(net.rng());
        let probe_count = order.len().min(self.cfg.probe_neighbors);
        let unprobed = order.split_off(probe_count);
        for &n in &order {
            let (ttl, terms) = (PROBE_TTL, terms.clone());
            net.send(n, GnutellaMsg::Query { guid, ttl, hops: 0, terms });
        }
        record.probes_sent = probe_count as u32;
        net.count(classes::QUERIES_STARTED.id(), 1);
        self.dyn_state.insert(guid, (unprobed, net.now + PROBE_INTERVAL));
        self.queries.insert(guid, record);
    }

    fn on_message(&mut self, net: &mut FakeNet, from: NodeId, msg: GnutellaMsg) {
        match msg {
            GnutellaMsg::Query { guid, ttl, hops, terms } => {
                if self.seen.contains_key(&guid) {
                    return net.count(classes::DUPLICATE_QUERY.id(), 1);
                }
                self.seen.insert(guid, (from, net.now));
                for chunk in self.own_hits(&terms).chunks(self.cfg.max_hits_per_msg) {
                    let (ttl, hits) = (HIT_TTL, chunk.to_vec());
                    net.send(from, GnutellaMsg::QueryHit { guid, ttl, hits });
                }
                let forwards = self.forward_to_leaves(net, guid, &terms);
                net.count(classes::LEAF_FORWARDS.id(), forwards);
                if ttl > 1 {
                    for &n in self.neighbors.iter().filter(|&&n| n != from) {
                        let (ttl, hops, terms) = (ttl - 1, hops + 1, terms.clone());
                        net.send(n, GnutellaMsg::Query { guid, ttl, hops, terms });
                    }
                }
            }
            GnutellaMsg::QueryHit { guid, ttl, hits } => self.on_hits(net, guid, ttl, hits),
            GnutellaMsg::LeafHits { guid, hits } => self.on_hits(net, guid, HIT_TTL, hits),
            GnutellaMsg::LeafQuery { qid, terms } => {
                self.start_query(net, terms, QueryOrigin::Leaf { leaf: from, qid });
            }
            other => panic!("the op generator never sends {other:?}"),
        }
    }

    fn on_hits(&mut self, net: &mut FakeNet, guid: Guid, ttl: u8, hits: Vec<Hit>) {
        if let Some(record) = self.queries.get_mut(&guid) {
            if record.first_hit_at.is_none() && !hits.is_empty() {
                record.first_hit_at = Some(net.now);
                let waited = (net.now - record.issued_at).as_secs_f64();
                net.observe(classes::FIRST_HIT_LATENCY_S.id(), waited);
            }
            record.hits.extend(hits.iter().cloned());
            if let QueryOrigin::Leaf { leaf, qid } = record.origin {
                net.send(leaf, GnutellaMsg::LeafResults { qid, hits, done: false });
            }
            return;
        }
        match self.seen.get(&guid) {
            Some(&(dst, _)) if dst != ME && ttl > 1 => {
                for chunk in hits.chunks(self.cfg.max_hits_per_msg) {
                    let (ttl, hits) = (ttl - 1, chunk.to_vec());
                    net.send(dst, GnutellaMsg::QueryHit { guid, ttl, hits });
                }
            }
            _ => net.count(classes::ORPHAN_HITS.id(), 1),
        }
    }

    fn tick(&mut self, net: &mut FakeNet) {
        let now = net.now;
        let guids: Vec<Guid> = self.dyn_state.keys().copied().collect();
        for guid in guids {
            let record = self.queries.get_mut(&guid).expect("dyn state implies record");
            let (unprobed, next_probe_at) = self.dyn_state.get_mut(&guid).expect("live key");
            let exhausted = unprobed.is_empty() && now >= *next_probe_at + PROBE_INTERVAL;
            if record.hits.len() >= self.cfg.target_results || exhausted {
                record.finished = true;
                net.count(classes::QUERIES_FINISHED.id(), 1);
                net.observe(classes::RESULTS_PER_QUERY.id(), record.hits.len() as f64);
                if let QueryOrigin::Leaf { leaf, qid } = record.origin {
                    net.send(leaf, GnutellaMsg::LeafResults { qid, hits: Vec::new(), done: true });
                }
                self.dyn_state.remove(&guid);
            } else if now >= *next_probe_at {
                if let Some(neighbor) = unprobed.pop() {
                    let (ttl, terms) = (DYN_TTL, record.terms.clone());
                    net.send(neighbor, GnutellaMsg::Query { guid, ttl, hops: 0, terms });
                    record.probes_sent += 1;
                    *next_probe_at = now + PROBE_INTERVAL;
                }
            }
        }
        let ttl = self.cfg.seen_ttl;
        self.queries.retain(|_, r| !(r.finished && matches!(r.origin, QueryOrigin::Leaf { .. })));
        self.seen.retain(|_, &mut (_, at)| at + ttl > now);
    }

    fn end_session(&mut self) {
        self.seen.clear();
        self.dyn_state.clear();
        self.queries.retain(|_, r| r.origin == QueryOrigin::Driver);
    }
}

// ----------------------------------------------------------------------
// Operations
// ----------------------------------------------------------------------

const NEIGHBORS: u32 = 5;
const LEAVES: u32 = 6;
const WORDS: [&str; 8] = ["led", "zeppelin", "pink", "floyd", "live", "remix", "07", "flac"];
const SEEN_TTL: SimDuration = SimDuration::from_secs(2);

fn neighbor(i: u8) -> NodeId {
    NodeId::new(1 + i as u32 % NEIGHBORS)
}

fn leaf(i: u8) -> NodeId {
    NodeId::new(100 + i as u32 % LEAVES)
}

/// A query or filter vocabulary subset: bit `i` of `mask` selects
/// `WORDS[i]`. Mask 0 is the empty query, which routes nowhere.
fn words(mask: u8) -> Vec<&'static str> {
    WORDS.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, w)| *w).collect()
}

fn terms(mask: u8) -> Terms {
    Terms::from_text(&words(mask).join(" "))
}

/// How a leaf's words are spread over its files.
#[derive(Clone, Debug)]
enum Shape {
    /// Every word in one file name.
    OneFile,
    /// One file per word, the first listed twice.
    FilePerWord,
}

#[derive(Clone, Debug)]
enum Op {
    /// A flooded query from a neighbor. GUIDs come from a small space so
    /// duplicates, and re-arrivals after expiry, are common.
    Query {
        from: u8,
        guid: u8,
        ttl: u8,
        words: u8,
    },
    /// Hits for the `target`-th GUID this run has used (relayed or own).
    Hits {
        target: u8,
        n: u8,
    },
    Start {
        leaf_origin: Option<u8>,
        words: u8,
    },
    QrpUpdate {
        leaf: u8,
        words: u8,
        shape: Shape,
    },
    Tick,
    /// Advance the clock by this many microseconds.
    Advance(u64),
    EndSession,
}

// The proptest stand-in's `prop_oneof!` has no weights: an arm listed
// twice is drawn twice as often.
fn relay_op() -> impl Strategy<Value = Op> {
    let ttl_us = SEEN_TTL.as_micros();
    prop_oneof![
        (any::<u8>(), 0u8..12, 1u8..4, any::<u8>())
            .prop_map(|(from, guid, ttl, words)| Op::Query { from, guid, ttl, words }),
        (any::<u8>(), 0u8..12, 1u8..4, any::<u8>())
            .prop_map(|(from, guid, ttl, words)| Op::Query { from, guid, ttl, words }),
        (any::<u8>(), 0u8..10).prop_map(|(target, n)| Op::Hits { target, n }),
        (any::<u8>(), any::<bool>(), any::<u8>()).prop_map(|(l, from_leaf, words)| Op::Start {
            leaf_origin: from_leaf.then_some(l),
            words
        }),
        Just(Op::Tick),
        Just(Op::Tick),
        // The expiry boundary to the microsecond, a tick period, and
        // anything in between; then the seen table's `u32` offset range.
        // After a rebase at `t` (base `t − seen_ttl`) the first lands on
        // the last offset that fits, from base 0 the second does, and
        // 2³² µs is past it from either.
        prop_oneof![
            Just(ttl_us),
            Just(ttl_us - 1),
            Just(1u64),
            Just(400_000u64),
            0u64..3_000_000,
            Just(u32::MAX as u64 - ttl_us),
            Just(u32::MAX as u64),
            Just(1u64 << 32)
        ]
        .prop_map(Op::Advance),
        Just(Op::EndSession),
    ]
}

fn leaf_op() -> impl Strategy<Value = Op> {
    let shape = prop_oneof![Just(Shape::OneFile), Just(Shape::FilePerWord)];
    (any::<u8>(), any::<u8>(), shape).prop_map(|(leaf, words, shape)| Op::QrpUpdate {
        leaf,
        words,
        shape,
    })
}

/// A leaf's share of the words in `mask` (mask 0: an empty share).
fn share_of(mask: u8, shape: &Shape) -> FileStore {
    let words = words(mask);
    let names = match shape {
        Shape::OneFile if words.is_empty() => vec![],
        Shape::OneFile => vec![words.join("_")],
        Shape::FilePerWord => words.iter().chain(words.first()).map(|w| w.to_string()).collect(),
    };
    FileStore::new(names.iter().map(|n| FileMeta::new(n, 1)).collect())
}

/// The QRP filter of a share: the oracle a leaf's view must equal.
fn filter_of(share: &FileStore) -> QrpFilter {
    let mut f = QrpFilter::with_defaults();
    f.insert_ids(&share.token_union());
    f
}

/// A leaf's `QrpUpdate` for a share.
fn update(share: &FileStore) -> GnutellaMsg {
    GnutellaMsg::QrpUpdate { view: share.qrp_view() }
}

fn config() -> UltrapeerConfig {
    UltrapeerConfig {
        seen_ttl: SEEN_TTL,
        max_hits_per_msg: 4,
        target_results: 12,
        probe_neighbors: 3,
        ..UltrapeerConfig::default()
    }
}

fn share() -> Vec<FileMeta> {
    ["led_zeppelin_live.flac", "pink_floyd_07.flac", "led_remix.mp3"]
        .iter()
        .map(|n| FileMeta::new(n, 1))
        .collect()
}

fn hits(n: u8) -> Vec<Hit> {
    (0..n)
        .map(|i| Hit { file: FileMeta::new(&format!("hit{i}.mp3"), i as u64), host: leaf(i) })
        .collect()
}

/// Apply `ops` to the real core and the eager reference, comparing after
/// every operation.
fn check_against_reference(ops: &[Op]) -> Result<(), TestCaseError> {
    let neighbors: Vec<NodeId> = (0..NEIGHBORS as u8).map(neighbor).collect();
    let mut core = UltrapeerCore::new(config(), FileStore::new(share()));
    core.set_neighbors(neighbors.clone());
    let mut reference = EagerCore {
        cfg: config(),
        neighbors,
        leaves: BTreeMap::new(),
        store: FileStore::new(share()),
        seen: BTreeMap::new(),
        queries: BTreeMap::new(),
        dyn_state: BTreeMap::new(),
    };
    // Every leaf but the last is connected from the start, with no filter
    // until a `QrpUpdate` names it. The last is never connected: its
    // updates are counted, not adopted.
    for l in 0..LEAVES as u8 - 1 {
        core.add_leaf(leaf(l));
        reference.leaves.insert(leaf(l), None);
    }
    let (mut net, mut ref_net) = (FakeNet::new(), FakeNet::new());
    // Every GUID used so far, for `Op::Hits` to aim at.
    let mut guids: Vec<Guid> = Vec::new();

    for (step, op) in ops.iter().enumerate() {
        let msg = match op {
            Op::Query { from, guid, ttl, words } => {
                let guid = Guid(*guid as u64);
                guids.push(guid);
                let msg = GnutellaMsg::Query { guid, ttl: *ttl, hops: 0, terms: terms(*words) };
                Some((neighbor(*from), msg))
            }
            Op::Hits { target, n } => guids.get(*target as usize % guids.len().max(1)).map(|&g| {
                // Hits reach an ultrapeer from a neighbor or from a leaf.
                // A `QueryHit`'s TTL runs 0..=4: some have no relay left.
                let msg = match n % 2 {
                    0 => GnutellaMsg::QueryHit { guid: g, ttl: n / 2, hits: hits(*n) },
                    _ => GnutellaMsg::LeafHits { guid: g, hits: hits(*n) },
                };
                (neighbor(*target), msg)
            }),
            Op::Start { leaf_origin: Some(l), words } => {
                Some((leaf(*l), GnutellaMsg::LeafQuery { qid: *l as u32, terms: terms(*words) }))
            }
            Op::QrpUpdate { leaf: l, words, shape } => {
                let share = share_of(*words, shape);
                match reference.leaves.get_mut(&leaf(*l)) {
                    Some(slot) => *slot = Some(share.clone()),
                    None => ref_net.count(classes::UNEXPECTED_MSG.id(), 1),
                }
                core.on_message(&mut net, leaf(*l), update(&share));
                None
            }
            Op::Start { leaf_origin: None, words } => {
                core.start_query(&mut net, terms(*words), QueryOrigin::Driver);
                reference.start_query(&mut ref_net, terms(*words), QueryOrigin::Driver);
                None
            }
            Op::Tick => {
                core.tick(&mut net);
                reference.tick(&mut ref_net);
                None
            }
            Op::Advance(us) => {
                net.now += SimDuration::from_micros(*us);
                ref_net.now = net.now;
                None
            }
            Op::EndSession => {
                core.end_session();
                reference.end_session();
                None
            }
        };
        if let Some((from, msg)) = msg {
            core.on_message(&mut net, from, msg.clone());
            reference.on_message(&mut ref_net, from, msg);
        }
        prop_assert!(
            net.log == ref_net.log,
            "step {step} ({op:?}) diverged\n  core: {:?}\n   ref: {:?}",
            net.log,
            ref_net.log
        );
        net.log.clear();
        ref_net.log.clear();
        // Started queries draw their GUIDs from the (identical) RNGs.
        guids.extend(reference.queries.keys().filter(|g| g.0 >= 12).copied());
        guids.sort_unstable();
        guids.dedup();
    }
    let records: Vec<String> = core.queries().map(|(g, r)| format!("{g:?} {r:?}")).collect();
    let expected: Vec<String> =
        reference.queries.iter().map(|(g, r)| format!("{g:?} {r:?}")).collect();
    prop_assert_eq!(records, expected);
    Ok(())
}

proptest! {
    /// (a) The horizon is not observable: relay, hit routing, own queries,
    /// ticks, clock jumps and session resets behave as with eager expiry —
    /// including a GUID re-arriving on the tick that expires it, and every
    /// tick before the first `seen_ttl` has passed.
    #[test]
    fn horizon_expiry_equals_eager_retain(
        ops in proptest::collection::vec(prop_oneof![relay_op(), relay_op(), leaf_op()], 1..120),
    ) {
        check_against_reference(&ops)?;
    }

    /// (b) The leaf screens and share views are not observable: over
    /// random leaf sets — leaves with no table yet, empty shares, words in
    /// one file or spread over several, replaced tables, a leaf never
    /// connected (whose updates are not adopted), the empty query — a query
    /// is forwarded to exactly the leaves whose shares' filters match it.
    #[test]
    fn union_screen_equals_brute_force(
        setup in proptest::collection::vec(leaf_op(), 0..12),
        replace in proptest::collection::vec(leaf_op(), 0..6),
    ) {
        let mut core = UltrapeerCore::new(config(), FileStore::default());
        let mut filters: BTreeMap<NodeId, Option<QrpFilter>> = BTreeMap::new();
        for l in 0..LEAVES as u8 - 1 {
            core.add_leaf(leaf(l));
            filters.insert(leaf(l), None);
        }
        let mut net = FakeNet::new();
        for (round, ops) in [setup, replace].iter().enumerate() {
            for op in ops {
                let Op::QrpUpdate { leaf: l, words, shape } = op else {
                    unreachable!("leaf_op generated {op:?}")
                };
                let share = share_of(*words, shape);
                if let Some(slot) = filters.get_mut(&leaf(*l)) {
                    *slot = Some(filter_of(&share));
                }
                core.on_message(&mut net, leaf(*l), update(&share));
            }
            // Every vocabulary subset as a fresh-GUID query, before and
            // after tables are replaced.
            for words in 0..=255u8 {
                let guid = 1_000 * (round as u64 + 1) + words as u64;
                let q = terms(words);
                net.log.clear();
                let msg = GnutellaMsg::Query { guid: Guid(guid), ttl: 1, hops: 0, terms: q.clone() };
                core.on_message(&mut net, neighbor(0), msg);
                let expected: Vec<String> = filters
                    .iter()
                    .filter(|(_, f)| f.as_ref().is_some_and(|f| f.matches_all(&q)))
                    .map(|(&l, _)| {
                        let fwd = GnutellaMsg::LeafForward { guid: Guid(guid), terms: q.clone() };
                        format!("send {l:?} {fwd:?}")
                    })
                    .collect();
                let forwards: Vec<String> =
                    net.log.iter().filter(|l| l.contains("LeafForward")).cloned().collect();
                prop_assert!(forwards == expected, "{q:?}: {forwards:?} != {expected:?}");
            }
        }
    }
}

/// The boundary case of (a), spelled out: an entry made at `t` is still a
/// duplicate for a query processed at `t + seen_ttl` *before* that
/// instant's tick, and gone for one processed after it.
#[test]
fn guid_rearriving_on_its_expiry_tick() {
    let query = |guid| Op::Query { from: 0, guid, ttl: 2, words: 1 };
    let ops = [
        Op::Advance(700_000),
        query(7),
        Op::Tick,
        Op::Advance(SEEN_TTL.as_micros()),
        query(7), // same instant as the expiring tick, ahead of it: duplicate
        Op::Tick,
        query(7), // after it: first-seen again
        Op::Hits { target: 0, n: 3 },
    ];
    check_against_reference(&ops).expect("boundary sequence");
}

/// (c) Lazy expiry must not leak: at a steady arrival rate the table stops
/// growing once it holds a `seen_ttl`'s worth of GUIDs, because expired
/// entries are swept before the table would double. `up.relay` charges
/// `seen` by capacity (unswept buckets included) at no more than 20 bytes
/// per slot — a 16-byte entry and its control byte at 7/8 load.
#[test]
fn seen_table_capacity_is_bounded_at_steady_state() {
    const PER_TICK: u64 = 100;
    const SLOT_BYTES: u64 = 20;
    let cfg = UltrapeerConfig { seen_ttl: SimDuration::from_secs(10), ..Default::default() };
    let live = PER_TICK * cfg.seen_ttl.as_micros() / UP_TICK_INTERVAL.as_micros();
    let mut core = UltrapeerCore::new(cfg.clone(), FileStore::default());
    let mut net = FakeNet::new();
    let mut peak = 0;
    for guid in 0..100_000u64 {
        let msg = GnutellaMsg::Query { guid: Guid(guid), ttl: 1, hops: 0, terms: terms(1) };
        core.on_message(&mut net, neighbor(0), msg);
        if guid % PER_TICK == PER_TICK - 1 {
            net.now += UP_TICK_INTERVAL;
            core.tick(&mut net);
            net.log.clear();
            let mut acc = MemAcc::new();
            core.mem_stats(&mut acc);
            peak = peak.max(acc.get("up.relay"));
        }
    }
    assert!(live == 2_500 && 100_000 > 30 * live, "many table lifetimes of traffic");
    assert!(
        peak <= 4 * live * SLOT_BYTES,
        "seen table peaked at {peak} B for {live} live GUIDs (bound {})",
        4 * live * SLOT_BYTES
    );
}
