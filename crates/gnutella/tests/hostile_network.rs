//! `UltrapeerCore` under a hostile network. Every message a search sends
//! may be dropped, repeated, reordered, held until its GUID's `seen`
//! entries have expired, or delivered with a hop count of 255.
//!
//! Eight ultrapeers and sixteen leaves are driven directly rather than
//! through the simulator: the shared test bed's net records every send,
//! and its fate table decides when, and how many times, each one arrives. Leaves
//! publish their QRP filters fault-free, so every run screens queries
//! against the same filters. Each run then issues two dynamic queries, one
//! flat flood and one leaf search, ticks every ultrapeer and expires every
//! leaf's searches each `UP_TICK_INTERVAL`, and runs past the leaf's
//! `LEAF_SEARCH_DEADLINE`.
//!
//! The invariants:
//! 1. nothing panics;
//! 2. a relayed `Query` carries `ttl − 1 ≥ 1`, never goes back to its
//!    sender, and a node relays a GUID at most once per `seen_ttl`; a
//!    repeat that arrives while the GUID is surely still seen is counted
//!    in `gnutella.duplicate_query`, one that arrives surely after it
//!    expired is not;
//! 3. a relayed hit goes only to the node its GUID's live entry came from;
//! 4. every hit in a query record or leaf search is a real `(file, host)`
//!    whose file matches the terms;
//! 5. `queries_started == queries_finished`, and each dynamic query
//!    finishes within `(neighbors − probe_neighbors + 2) × PROBE_INTERVAL`
//!    plus one tick of its start, whatever was lost;
//! 6. a `seen_ttl` and a tick after the last send or delivery, with the
//!    driver's records taken, every ultrapeer is idle;
//! 7. a run sends at most the shared bed's `MAX_SENDS` messages: no loop
//!    feeds itself;
//! 8. every leaf search ends exactly once, by its ultrapeer's `done` or by
//!    `issued_at + LEAF_SEARCH_DEADLINE` at the latest, takes no hit after
//!    it ends, and `gnutella.leaf_search_timeout` counts the searches that
//!    ended by deadline; on a polite schedule every one ends by `done`.

use pier_gnutella::{
    classes, CtxGnutellaNet, FileMeta, FileStore, GnutellaMsg, GnutellaNet, Guid, Hit, LeafCore,
    QueryOrigin, QueryRecord, Terms, UltrapeerConfig, UltrapeerCore, HIT_TTL, LEAF_SEARCH_DEADLINE,
    PROBE_INTERVAL, UP_TICK_INTERVAL,
};
use pier_netsim::{NodeId, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[allow(dead_code, reason = "each harness uses part of the shared test bed")]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;
use hostile::{within, Ends, Entry, Fate, Net, Table, Wire, SOON};

const UPS: u32 = 8;
const LEAVES: u32 = 16;
/// Every ultrapeer's neighbors: the two on either side of it on a ring.
const DEGREE: u64 = 4;
const PROBE_NEIGHBORS: u64 = 2;
/// Shorter than a dynamic query runs, so a query outlives its own claim.
const SEEN_TTL: SimDuration = SimDuration::from_secs(5);
/// When the searches start (the QRP exchange is long over). On the tick
/// clock, so the leaf's deadline falls on a tick.
const ISSUE_AT: SimTime = SimTime::from_micros(1_200_000);
const WORDS: [&str; 6] = ["led", "zeppelin", "pink", "floyd", "live", "remix"];
/// Two dynamic queries (one popular enough to reach `target_results`),
/// the flat flood's terms, and the leaf search's.
const TERMS: [&str; 4] = ["led", "pink live", "zeppelin", "floyd"];

fn config() -> UltrapeerConfig {
    UltrapeerConfig {
        probe_neighbors: PROBE_NEIGHBORS as usize,
        target_results: 6,
        seen_ttl: SEEN_TTL,
        max_hits_per_msg: 1,
        ..UltrapeerConfig::default()
    }
}

/// The latest a dynamic query may finish after its start: its first deep
/// probe waits for a tick, the rest follow one `PROBE_INTERVAL` apart, and
/// the exhausted horizon waits one more interval for stragglers.
fn finish_bound() -> SimDuration {
    let intervals = DEGREE - PROBE_NEIGHBORS + 2;
    SimDuration::from_micros(intervals * PROBE_INTERVAL.as_micros()) + UP_TICK_INTERVAL
}

/// Node `n`'s share: two files whose names mix the vocabulary.
fn share(n: u32) -> Vec<FileMeta> {
    let n = n as usize;
    let (a, b, c) = (WORDS[n % 3], WORDS[3 + n / 3 % 3], WORDS[n % 6]);
    vec![FileMeta::new(&format!("{a}_{b}_{n}.mp3"), 1), FileMeta::new(&format!("{c}_{n}.flac"), 2)]
}

fn up_id(i: u32) -> NodeId {
    NodeId::new(i % UPS)
}

fn leaf_id(j: u32) -> NodeId {
    NodeId::new(UPS + j)
}

/// A leaf's two home ultrapeers; the first is its query path.
fn homes(j: u32) -> Vec<NodeId> {
    vec![up_id(j), up_id(j + 3)]
}

/// Fates follow the shared table, with delays of 10–90 ms. Kind 6 holds
/// the message until the `seen` entries it would meet have expired, 7
/// delivers a `Query` as if it had travelled 255 hops.
fn scheduled(schedule: Vec<Entry>) -> Fate<GnutellaMsg> {
    let mut table = Table::new(schedule, false, SOON);
    Box::new(move |msg| {
        let (kind, delays) = table.next(|a| SEEN_TTL + UP_TICK_INTERVAL + within(SOON, a));
        if let (7, GnutellaMsg::Query { hops, .. }) = (kind, msg) {
            *hops = u8::MAX;
        }
        delays
    })
}

/// Every message once, after a delay that cycles through 10–90 ms.
fn polite() -> Fate<GnutellaMsg> {
    scheduled((1..=81).map(|k| (0, 7 * k, 0)).collect())
}

type Sent = Vec<(NodeId, GnutellaMsg)>;

struct World {
    ups: Vec<UltrapeerCore>,
    leaves: Vec<LeafCore>,
    net: Net<GnutellaMsg>,
    wire: Wire<GnutellaMsg>,
    /// The test's own reverse-path table: where each ultrapeer last
    /// first-saw each GUID (itself, for a GUID it originated), and when.
    seen: BTreeMap<(NodeId, Guid), (NodeId, SimTime)>,
    /// When each ultrapeer last relayed each GUID.
    relayed: BTreeMap<(NodeId, Guid), SimTime>,
    /// The flat flood's GUID: the one query with no pacing to bound.
    flood: Option<Guid>,
    /// The driver's records, taken at the end of the run.
    taken: Vec<QueryRecord>,
    /// Each ended leaf search, by `(leaf, qid)`: whether `done` ended it,
    /// when, and its hit count, as first seen ended.
    ended: Ends<(u32, u32), (bool, SimTime, usize)>,
    /// Every invariant that broke, in the order it broke.
    broken: Vec<String>,
}

impl World {
    /// The network with every leaf connected and its filter published.
    fn connected() -> World {
        let mut ups: Vec<UltrapeerCore> =
            (0..UPS).map(|i| UltrapeerCore::new(config(), FileStore::new(share(i)))).collect();
        for (i, up) in (0..UPS).zip(&mut ups) {
            up.set_neighbors([1, UPS - 1, 2, UPS - 2].map(|d| up_id(i + d)).to_vec());
        }
        let mut leaves = Vec::new();
        for j in 0..LEAVES {
            let mut leaf = LeafCore::new(FileStore::new(share(UPS + j)));
            leaf.set_ultrapeers(homes(j));
            for up in homes(j) {
                ups[up.index()].add_leaf(leaf_id(j));
            }
            leaves.push(leaf);
        }
        let mut w = World {
            ups,
            leaves,
            net: Net::new(7, UPS + LEAVES),
            wire: Wire::new(polite()),
            seen: BTreeMap::new(),
            relayed: BTreeMap::new(),
            flood: None,
            taken: Vec::new(),
            ended: Ends(BTreeMap::new()),
            broken: Vec::new(),
        };
        for j in 0..LEAVES {
            w.at_leaf(j, |leaf, net| leaf.publish_qrp(net));
        }
        hostile::run(&mut w, None);
        w
    }

    /// Run `f` at ultrapeer `i`, send what it sent, and return both. A
    /// query `f` originated claims its GUID in the test's table.
    fn at_up<R>(
        &mut self,
        i: usize,
        f: impl FnOnce(&mut UltrapeerCore, &mut dyn GnutellaNet) -> R,
    ) -> (R, Sent) {
        let me = NodeId::new(i as u32);
        self.net.node = me;
        let r = f(&mut self.ups[i], &mut CtxGnutellaNet { ctx: &mut self.net });
        for (guid, record) in self.ups[i].queries() {
            self.seen.entry((me, guid)).or_insert((me, record.issued_at));
        }
        (r, self.wire.flush(&mut self.net))
    }

    fn at_leaf<R>(
        &mut self,
        j: u32,
        f: impl FnOnce(&mut LeafCore, &mut dyn GnutellaNet) -> R,
    ) -> R {
        self.net.node = leaf_id(j);
        let r = f(&mut self.leaves[j as usize], &mut CtxGnutellaNet { ctx: &mut self.net });
        self.wire.flush(&mut self.net);
        self.check_searches(j);
        r
    }

    /// Invariant 8 at leaf `j`: a search ends once, by its deadline at the
    /// latest, and takes no hit after.
    fn check_searches(&mut self, j: u32) {
        for (qid, s) in self.leaves[j as usize].searches() {
            let end = s.ended_at.map(|at| (at, (s.done, at, s.hits.len())));
            let deadline = s.issued_at + LEAF_SEARCH_DEADLINE;
            if let Some(why) = self.ended.check((j, qid), self.net.now, deadline, end) {
                self.broken.push(format!("leaf {j} search {qid} {why}: {s:?}"));
            }
        }
    }

    /// A `Query` for `guid` reached `node`, which counted it a duplicate or
    /// not: surely wrong if the test's table says otherwise outside the
    /// one tick in which the entry may or may not have expired yet.
    fn check_seen(&mut self, node: NodeId, guid: Guid, dup: bool) {
        let now = self.net.now;
        let live = match self.seen.get(&(node, guid)) {
            None => Some(false),
            Some(&(_, at)) if now < at + SEEN_TTL => Some(true),
            Some(&(_, at)) if now >= at + SEEN_TTL + UP_TICK_INTERVAL => Some(false),
            Some(_) => None,
        };
        if live.is_some_and(|live| live != dup) {
            self.broken
                .push(format!("{node:?} saw {guid:?} again: duplicate {dup}, live {live:?}"));
        }
    }

    /// Every `QueryHit` in `sent` goes to `back` with `ttl ≥ 1` to spend.
    fn check_hits(&mut self, node: NodeId, sent: &Sent, back: Option<NodeId>, ttl: u8) {
        for (dst, m) in sent {
            match m {
                GnutellaMsg::QueryHit { ttl: out, .. } if Some(*dst) != back || *out != ttl => {
                    let want = format!("to {back:?} at ttl {ttl}");
                    self.broken.push(format!("{node:?} sent hits to {dst:?} at ttl {out}, {want}"))
                }
                GnutellaMsg::QueryHit { ttl: 0, .. } => {
                    self.broken.push(format!("{node:?} sent hits to {dst:?} with no ttl"))
                }
                _ => {}
            }
        }
    }

    /// Whether `hit` names a file its host shares, and the file matches.
    fn is_real(&self, hit: &Hit, terms: &Terms) -> bool {
        let host = hit.host.index();
        let store = match host.checked_sub(UPS as usize) {
            None => self.ups[host].store(),
            Some(j) if j < LEAVES as usize => self.leaves[j].store(),
            Some(_) => return false,
        };
        store.matching(terms).contains(&&hit.file)
    }
}

/// Every `UP_TICK_INTERVAL` on the tick clock, the ultrapeers' ticks and
/// the leaves' expiry; the run ends a tick a `seen_ttl` after the last
/// send or delivery and the leaf's deadline, which outlasts the driver's
/// queries' bound.
impl hostile::World<GnutellaMsg> for World {
    fn bed(&mut self) -> (&mut Net<GnutellaMsg>, &mut Wire<GnutellaMsg>) {
        (&mut self.net, &mut self.wire)
    }
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: GnutellaMsg) {
        let now = self.net.now;
        if to.index() >= UPS as usize {
            let j = (to.index() - UPS as usize) as u32;
            return self.at_leaf(j, |leaf, net| leaf.on_message(net, from, msg));
        }
        let dups = self.net.at(to, &classes::DUPLICATE_QUERY);
        let (query, hits_for) = match &msg {
            GnutellaMsg::Query { guid, ttl, .. } => (Some((*guid, *ttl)), None),
            GnutellaMsg::QueryHit { guid, ttl, .. } => (None, Some((*guid, *ttl))),
            GnutellaMsg::LeafHits { guid, .. } => (None, Some((*guid, HIT_TTL))),
            _ => (None, None),
        };
        let ((), sent) = self.at_up(to.index(), |up, net| up.on_message(net, from, msg));
        if let Some((guid, ttl)) = query {
            let dup = self.net.at(to, &classes::DUPLICATE_QUERY) > dups;
            self.check_seen(to, guid, dup);
            let relays = sent.iter().filter(|(_, m)| matches!(m, GnutellaMsg::Query { .. }));
            if relays.clone().next().is_some() {
                if let Some(&last) = self.relayed.get(&(to, guid)) {
                    if now < last + SEEN_TTL {
                        self.broken.push(format!("{to:?} relayed {guid:?} twice within seen_ttl"));
                    }
                }
                self.relayed.insert((to, guid), now);
            }
            for (dst, m) in relays {
                let GnutellaMsg::Query { ttl: out, .. } = m else { unreachable!() };
                if dup || Some(*out) != ttl.checked_sub(1) || *out < 1 || *dst == from {
                    let what = format!("ttl {ttl} from {from:?}: ttl {out} to {dst:?}");
                    self.broken.push(format!("{to:?} relayed {guid:?} ({what}, dup {dup})"));
                }
            }
            if !dup {
                self.seen.insert((to, guid), (from, now));
            }
            // The node's own matches go back the way the query came.
            self.check_hits(to, &sent, Some(from), HIT_TTL);
        }
        if let Some((guid, ttl)) = hits_for {
            let back = self.seen.get(&(to, guid)).map(|&(prev, _)| prev).filter(|&p| p != to);
            self.check_hits(to, &sent, back, ttl.saturating_sub(1));
        }
    }

    /// Tick every ultrapeer, holding each dynamic query that was running
    /// to its finish bound, then expire every leaf's searches.
    fn tick(&mut self) {
        let now = self.net.now;
        for i in 0..UPS as usize {
            let running: Vec<(Guid, SimTime)> = self.ups[i]
                .queries()
                .filter(|&(g, r)| !r.finished && Some(g) != self.flood)
                .map(|(g, r)| (g, r.issued_at))
                .collect();
            self.at_up(i, |up, net| up.tick(net));
            for (guid, issued_at) in running {
                let done = self.ups[i].query_record(guid).is_none_or(|r| r.finished);
                if now >= issued_at + finish_bound() && !done {
                    self.broken.push(format!("up {i}: {guid:?} unfinished at {now:?}"));
                }
            }
        }
        for j in 0..LEAVES {
            self.at_leaf(j, |leaf, net| leaf.expire(net, false));
        }
    }

    fn quiet(&self) -> SimTime {
        let last = self.wire.last_send.max(self.wire.last_delivery);
        last.max(ISSUE_AT + LEAF_SEARCH_DEADLINE) + SEEN_TTL + UP_TICK_INTERVAL
    }
}

/// Where a run issues its searches from: the two dynamic queries' and the
/// flood's ultrapeers, and the searching leaf.
type Origins = (u32, u32, u32, u32);

/// Issue the four searches under `fate`, run to quiet, take the driver's
/// records, and check what is left. A panic is reported as an `Err`.
fn searches(origins: Origins, fate: Fate<GnutellaMsg>) -> Result<World, String> {
    let (mut w, driver) = hostile::caught(|| {
        let mut w = World::connected();
        w.wire.fate = fate;
        w.net.now = ISSUE_AT;
        let mut driver = Vec::new();
        for (up, terms) in [(origins.0, TERMS[0]), (origins.1, TERMS[1])] {
            let (guid, _) =
                w.at_up(up as usize, |up, net| up.start_query(net, terms, QueryOrigin::Driver));
            driver.push((up_id(up), guid));
        }
        let (flood, _) = w.at_up(origins.2 as usize, |up, net| up.start_flood_query(net, TERMS[2]));
        driver.push((up_id(origins.2), flood));
        w.flood = Some(flood);
        w.at_leaf(origins.3, |leaf, net| leaf.start_search(net, TERMS[3]));
        assert!(finish_bound() < LEAF_SEARCH_DEADLINE);
        let first = ISSUE_AT + UP_TICK_INTERVAL;
        hostile::run(&mut w, Some((first, UP_TICK_INTERVAL)));
        (w, driver)
    })?;
    let started = w.net.total(&classes::QUERIES_STARTED);
    let finished = w.net.total(&classes::QUERIES_FINISHED);
    if started != finished {
        w.broken.push(format!("{started} queries started, {finished} finished"));
    }
    for (up, guid) in driver {
        let record = w.ups[up.index()].take_query(guid).expect("driver records wait to be taken");
        if let Some(hit) = record.hits.iter().find(|h| !w.is_real(h, &record.terms)) {
            w.broken.push(format!("{guid:?} holds a hit no host shares: {hit:?}"));
        }
        w.taken.push(record);
    }
    for (j, leaf) in w.leaves.iter().enumerate() {
        for (qid, s) in leaf.searches() {
            if let Some(hit) = s.hits.iter().find(|h| !w.is_real(h, &s.terms)) {
                w.broken.push(format!("leaf {j} search {qid} holds a hit no host shares: {hit:?}"));
            }
        }
    }
    // The run outlasts every deadline, so the ledger holds every search.
    let timed_out = w.ended.0.values().filter(|(done, ..)| !done).count() as u64;
    let counted = w.net.total(&classes::LEAF_SEARCH_TIMEOUT);
    if counted != timed_out {
        w.broken.push(format!("{timed_out} leaf searches timed out, {counted} counted"));
    }
    for (i, up) in w.ups.iter().enumerate() {
        if !up.is_idle() {
            let held: Vec<Guid> = up.queries().map(|(g, _)| g).collect();
            w.broken
                .push(format!("up {i} is not idle a seen_ttl after the last activity: {held:?}"));
        }
    }
    Ok(w)
}

proptest! {
    #[test]
    fn searches_end_and_route_correctly_under_any_schedule(
        origins in (0..UPS, 0..UPS, 0..UPS, 0..LEAVES),
        schedule in hostile::schedule(8),
    ) {
        let broken = searches(origins, scheduled(schedule)).map(|w| w.broken);
        prop_assert!(broken.as_ref().is_ok_and(|b| b.is_empty()), "{:?}", broken);
    }
}

/// Delivered once each, in 10–90 ms, every search completes: each driver
/// query and the leaf's search found hits, and the leaf's search ended by
/// `done`, none by its deadline.
#[test]
fn a_polite_network_completes_every_search() {
    let w = searches((0, 5, 3, 9), polite()).expect("no panic");
    assert_eq!(w.broken, Vec::<String>::new());
    assert!(w.taken.iter().all(|r| !r.hits.is_empty()), "{:?}", w.taken);
    let search = w.leaves[9].search(1).expect("issued");
    assert!(search.done && !search.hits.is_empty(), "{search:?}");
    assert_eq!(w.net.total(&classes::LEAF_SEARCH_TIMEOUT), 0);
}

/// With every message dropped, the leaf's `LeafQuery` never reaches its
/// ultrapeer: the search ends once, exactly at its deadline, and is
/// counted once.
#[test]
fn a_silent_network_ends_the_leaf_search_at_its_deadline() {
    let w = searches((0, 5, 3, 9), scheduled(vec![(5, 0, 0)])).expect("no panic");
    assert_eq!(w.broken, Vec::<String>::new());
    let search = w.leaves[9].search(1).expect("issued");
    assert_eq!((search.done, search.ended_at), (false, Some(ISSUE_AT + LEAF_SEARCH_DEADLINE)));
    assert!(search.hits.is_empty());
    assert_eq!(w.net.total(&classes::LEAF_SEARCH_TIMEOUT), 1);
}
