//! `HybridUp` under a hostile network. Every message a query sends, on
//! Gnutella or the DHT, may be dropped, repeated, reordered, or held past
//! the hybrid's fallback timeout (Gnutella) or the DHT's `rpc_timeout`.
//!
//! Four fully meshed hybrid ultrapeers with two leaves each are driven
//! directly rather than through the simulator: the shared test bed's net,
//! a `Ctx<HybridMsg>`, records every send and every timer, and its fate
//! table decides when, and how many times, each message arrives. Timers
//! fire on time. The
//! set-up runs fault-free: the QRP exchange, then one file that no leaf
//! shares published through a hybrid's `Publisher`. Each run then starts
//! two driver queries and two leaf searches (through `LeafNode`, so each
//! arms its deadline timer), each from its own ultrapeer:
//! the DHT-only query on both paths, one with no answer anywhere, and one
//! Gnutella answers. Every ultrapeer's DHT table is full and `rpc_timeout`
//! outlasts a search's routed traffic, so no polite run evicts a contact.
//!
//! The invariants:
//! 1. nothing panics;
//! 2. every driver row is `done` within `done_bound` of its issue, and
//!    nothing in it changes afterwards;
//! 3. every leaf search whose `LeafQuery` reached its ultrapeer is sent a
//!    `done: true`; no `LeafResults` follows it unless a repeated
//!    `LeafQuery` arrived after it; and no `done` is sent while the
//!    ultrapeer's PIER search runs or its Gnutella query still probes;
//! 4. every reported hit is real: a Gnutella hit names a host that shares
//!    a matching file, and a PIER item is the published record;
//! 5. on a polite schedule the DHT-only query is rescued on both paths,
//!    the unanswered one ends empty, and the Gnutella-answered leaf search
//!    hears the hits relayed from other leaves and never falls back;
//! 6. `EXEC_TTL` (which outlasts `seen_ttl`) plus one tick of each timer
//!    after the last delivery, every ultrapeer is idle — `HybridUp`, its
//!    `UltrapeerCore`, `DhtCore`, `PierCore` and `SearchEngine` — and
//!    holds one stats row per driver query it started;
//! 7. a run sends at most the shared bed's `MAX_SENDS` messages;
//! 8. every leaf search ends exactly once, by its ultrapeer's `done` or by
//!    `issued_at + LEAF_SEARCH_DEADLINE` at the latest (the leaf's own
//!    timer), takes no hit after it ends, and each leaf's
//!    `gnutella.leaf_search_timeout` counts its searches that ended by
//!    deadline; on a polite schedule every one ends by `done`.

use pier_dht::{Contact, CtxNet, DhtConfig, DhtCore};
use pier_gnutella::{
    FileMeta, FileStore, GnutellaMsg, Hit, LeafCore, LeafNode, Terms, UltrapeerConfig,
    UltrapeerCore, LEAF_SEARCH_DEADLINE,
};
use pier_hybrid::{classes, HybridConfig, HybridMsg, HybridQueryStats, HybridUp, RareScheme};
use pier_netsim::{Actor, NodeId, SimDuration, SimTime, TimerToken};
use pier_qp::EXEC_TTL;
use piersearch::ItemRecord;
use proptest::prelude::*;
use std::collections::BTreeMap;

// Each harness uses part of the shared test bed.
#[allow(dead_code)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;
use hostile::{Ends, Entry, Fate, Net, Table, Wire, LATENCY};

const UPS: u32 = 4;
const LEAVES: u32 = 2 * UPS;
/// Shorter than a query runs, so a query outlives its own `seen` claim.
const SEEN_TTL: SimDuration = SimDuration::from_secs(4);
/// The hybrid's Gnutella-to-PIERSearch fallback timeout: shorter than a
/// dynamic query over three neighbours probes, so a rescued query's PIER
/// search can end before its Gnutella record finishes.
const TIMEOUT: SimDuration = SimDuration::from_secs(5);
const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// When the record is published, the QRP exchange long over.
const PUBLISH_AT: SimTime = SimTime::from_micros(1_000_000);
/// When the queries start, the publish long stored.
const ISSUE_AT: SimTime = SimTime::from_micros(5_000_000);

/// Every leaf and ultrapeer shares a match; nothing else matches the other
/// two but the published record, and nothing matches the last.
const ANSWERED: &str = "popular anthem";
const DHT_ONLY: &str = "ghost release promo";
const UNANSWERED: &str = "quartz zephyr";

fn up_id(i: usize) -> NodeId {
    NodeId::new(i as u32)
}

fn leaf_id(j: usize) -> NodeId {
    NodeId::new(UPS + j as u32)
}

/// Leaf `j`'s one ultrapeer: each has two leaves.
fn home(j: usize) -> usize {
    j / 2
}

/// The one file in the DHT, with a host that does not share it.
fn published() -> ItemRecord {
    ItemRecord::new("ghost_release_promo.mp3", 42, leaf_id(0), 6346)
}

/// The published record as a leaf hears it.
fn published_hit() -> Hit {
    let r = published();
    Hit { file: FileMeta::new(&r.filename, r.filesize), host: r.host }
}

fn dht_config() -> DhtConfig {
    DhtConfig {
        rpc_timeout: RPC_TIMEOUT,
        value_ttl: SimDuration::from_secs(3600),
        // No DHT traffic of its own: lookups come from the engine.
        bucket_refresh: SimDuration::ZERO,
        ..DhtConfig::test()
    }
}

/// Fates follow the shared table, with delays of 10–90 ms; a held Gnutella
/// message arrives up to 3 s past `TIMEOUT` (and so past `SEEN_TTL`), a
/// held DHT message as long past `RPC_TIMEOUT`.
fn scheduled(schedule: Vec<Entry>, polite: bool) -> Fate<HybridMsg> {
    Table::new(schedule, polite, hostile::SOON).fate(|msg, a| {
        let late = hostile::within(1..=3000, a);
        match msg {
            HybridMsg::G(_) => TIMEOUT + late,
            HybridMsg::D(_) => RPC_TIMEOUT + late,
        }
    })
}

/// What a leaf's ultrapeer heard from it, or said to it.
#[derive(Debug)]
enum Said {
    Asked,
    Results { done: bool },
}

/// What of a driver row may not change once it is `done`.
type Row = (Option<SimTime>, usize, Option<SimTime>, Option<SimTime>, Vec<ItemRecord>, bool);

fn row(s: &HybridQueryStats) -> Row {
    (
        s.gnutella_first,
        s.gnutella_hits,
        s.pier_issued_at,
        s.pier_first,
        s.pier_items.clone(),
        s.done,
    )
}

struct World {
    ups: Vec<HybridUp>,
    leaves: Vec<LeafNode>,
    net: Net<HybridMsg>,
    wire: Wire<HybridMsg>,
    /// One tick of each of a hybrid ultrapeer's timers, summed.
    ticks: SimDuration,
    /// Every `LeafQuery` that reached an ultrapeer and every `LeafResults`
    /// one sent, by `(leaf, qid)`, in order.
    leaf_log: Vec<((NodeId, u32), Said)>,
    /// Each driver row as it stood when first seen `done`.
    rows_done: Ends<(usize, usize), Row>,
    /// Each ended leaf search, by `(leaf, qid)`: whether `done` ended it,
    /// when, and its hit count, as first seen ended.
    ended: Ends<(usize, u32), (bool, SimTime, usize)>,
    /// Driver queries started, per ultrapeer.
    drivers: [usize; UPS as usize],
    broken: Vec<String>,
}

impl World {
    /// The network with every leaf's filter at its ultrapeer and the
    /// record stored in the DHT, at `ISSUE_AT`.
    fn deployed() -> World {
        let ups = hostile::meshed(&dht_config(), UPS)
            .into_iter()
            .enumerate()
            .map(|(i, dht)| {
                let cfg = UltrapeerConfig {
                    probe_neighbors: 1,
                    seen_ttl: SEEN_TTL,
                    ..UltrapeerConfig::default()
                };
                let share = vec![FileMeta::new(&format!("popular_anthem_up{i}.mp3"), 7)];
                let mut core = UltrapeerCore::new(cfg, FileStore::new(share));
                core.set_neighbors((0..UPS as usize).filter(|&n| n != i).map(up_id).collect());
                for j in (0..LEAVES as usize).filter(|&j| home(j) == i) {
                    core.add_leaf(leaf_id(j));
                }
                let cfg =
                    HybridConfig { timeout: TIMEOUT, browse_leaves: false, ..Default::default() };
                // TF with a zero threshold calls nothing rare: the published
                // record is the DHT's only file.
                HybridUp::new(cfg, core, dht, RareScheme::tf(0))
            })
            .collect();
        let leaves = (0..LEAVES as usize)
            .map(|j| {
                let share = vec![
                    FileMeta::new(&format!("popular_anthem_{j}.mp3"), 1),
                    FileMeta::new(&format!("filler_{j}.bin"), 2),
                ];
                let mut core = LeafCore::new(FileStore::new(share));
                core.set_ultrapeers(vec![up_id(home(j))]);
                LeafNode::new(core)
            })
            .collect();
        let mut w = World {
            ups,
            leaves,
            net: Net::new(35, UPS + LEAVES),
            wire: Wire::new(hostile::polite()),
            ticks: SimDuration::ZERO,
            leaf_log: Vec::new(),
            rows_done: Ends(BTreeMap::new()),
            ended: Ends(BTreeMap::new()),
            drivers: [0; UPS as usize],
            broken: Vec::new(),
        };
        for i in 0..UPS as usize {
            w.ticks = w.at_up(i, |up, net| {
                up.on_start(net);
                ticks(net)
            });
        }
        for j in 0..LEAVES as usize {
            w.at_leaf(j, |leaf, net| leaf.on_start(net));
        }
        w.run_until(PUBLISH_AT);
        w.at_up(0, |up, net| {
            let node = &mut up.search;
            let r = published();
            let shipped = node.app.publisher.publish_file(
                &mut node.app.pier,
                &mut node.core,
                &mut CtxNet { ctx: net },
                &r.filename,
                r.filesize,
                r.host,
                r.port,
            );
            assert!(shipped.is_some(), "indexable");
        });
        w.run_until(ISSUE_AT);
        w
    }

    /// Run `f` at ultrapeer `i`, schedule what it sent and armed, and check
    /// what invariants 2–4 read there.
    fn at_up<R>(&mut self, i: usize, f: impl FnOnce(&mut HybridUp, &mut Net<HybridMsg>) -> R) -> R {
        self.net.node = up_id(i);
        let up = &self.ups[i];
        // One query per ultrapeer at a time: whatever probes or searches
        // here is the ask's own.
        let busy =
            up.gnutella.queries().any(|(_, r)| !r.finished) || !up.search.app.engine.is_idle();
        let r = f(&mut self.ups[i], &mut self.net);
        for (dst, msg) in self.wire.flush(&mut self.net) {
            let HybridMsg::G(GnutellaMsg::LeafResults { qid, hits, done }) = msg else {
                continue;
            };
            let now = self.net.now;
            if done && busy {
                self.broken
                    .push(format!("up {i} sent {dst:?} done for {qid} while busy at {now:?}"));
            }
            let j = dst.index() - UPS as usize;
            let terms = self.leaves[j].core.search(qid).map(|s| s.terms.clone());
            let unreal: Vec<&Hit> = hits
                .iter()
                .filter(|h| !terms.as_ref().is_some_and(|t| self.is_real(h, t)))
                .collect();
            for hit in unreal {
                self.broken
                    .push(format!("up {i} sent {dst:?} for {qid} a hit no host shares: {hit:?}"));
            }
            self.leaf_log.push(((dst, qid), Said::Results { done }));
        }
        self.check_rows(i);
        r
    }

    fn at_leaf<R>(
        &mut self,
        j: usize,
        f: impl FnOnce(&mut LeafNode, &mut Net<HybridMsg>) -> R,
    ) -> R {
        self.net.node = leaf_id(j);
        let r = f(&mut self.leaves[j], &mut self.net);
        self.wire.flush(&mut self.net);
        self.check_searches(j);
        r
    }

    /// Invariant 8 at leaf `j`: a search ends once, by its deadline at the
    /// latest, and takes no hit after.
    fn check_searches(&mut self, j: usize) {
        for (qid, s) in self.leaves[j].core.searches() {
            let end = s.ended_at.map(|at| (at, (s.done, at, s.hits.len())));
            let deadline = s.issued_at + LEAF_SEARCH_DEADLINE;
            if let Some(why) = self.ended.check((j, qid), self.net.now, deadline, end) {
                self.broken.push(format!("leaf {j} search {qid} {why}: {s:?}"));
            }
        }
    }

    /// Invariants 2 and 4 on ultrapeer `i`'s driver rows and held records.
    fn check_rows(&mut self, i: usize) {
        let (now, bound) = (self.net.now, done_bound(self.ticks));
        let up = &self.ups[i];
        let mut broken = Vec::new();
        for (r, s) in up.stats.iter().enumerate() {
            let end = s.done.then(|| (now, row(s)));
            if let Some(why) = self.rows_done.check((i, r), now, s.issued_at + bound, end) {
                broken.push(format!("up {i} row {r} {why}"));
            }
            if s.pier_items.iter().any(|item| *item != published()) {
                broken.push(format!("up {i} row {r} holds an item never published: {s:?}"));
            }
        }
        for (guid, rec) in up.gnutella.queries() {
            if let Some(hit) = rec.hits.iter().find(|h| !self.is_real(h, &rec.terms)) {
                broken.push(format!("up {i} {guid:?} holds a hit no host shares: {hit:?}"));
            }
        }
        self.broken.append(&mut broken);
    }

    /// Deliver and fire timers until `end`.
    fn run_until(&mut self, end: SimTime) {
        while hostile::step(self, end) {}
        self.net.now = end;
    }

    /// Whether `hit` names a file its host shares and the file matches, or
    /// is the published record.
    fn is_real(&self, hit: &Hit, terms: &Terms) -> bool {
        let host = hit.host.index();
        let store = match host.checked_sub(UPS as usize) {
            None => self.ups[host].gnutella.store(),
            Some(j) if j < LEAVES as usize => self.leaves[j].core.store(),
            Some(_) => return false,
        };
        store.matching(terms).contains(&&hit.file) || *hit == published_hit()
    }
}

/// Timers fire on time; the run ends once nothing is in flight and
/// `EXEC_TTL` plus a tick of each timer has passed since the last delivery
/// and since every query's bound and the leaf's deadline.
impl hostile::World<HybridMsg> for World {
    fn bed(&mut self) -> (&mut Net<HybridMsg>, &mut Wire<HybridMsg>) {
        (&mut self.net, &mut self.wire)
    }
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: HybridMsg) {
        let Some(j) = to.index().checked_sub(UPS as usize) else {
            if let HybridMsg::G(GnutellaMsg::LeafQuery { qid, .. }) = &msg {
                self.leaf_log.push(((from, *qid), Said::Asked));
            }
            return self.at_up(to.index(), |up, net| up.on_message(net, from, msg));
        };
        self.at_leaf(j, |leaf, net| leaf.on_message(net, from, msg))
    }
    fn fire(&mut self, node: NodeId, token: TimerToken) {
        match node.index().checked_sub(UPS as usize) {
            None => self.at_up(node.index(), |up, net| up.on_timer(net, token)),
            Some(j) => self.at_leaf(j, |leaf, net| leaf.on_timer(net, token)),
        }
    }
    fn quiet(&self) -> SimTime {
        let quiet_after = ISSUE_AT + done_bound(self.ticks).max(LEAF_SEARCH_DEADLINE);
        self.wire.last_delivery.max(quiet_after) + EXEC_TTL + self.ticks
    }
}

/// One tick of each timer a hybrid ultrapeer's `on_start` set on `net`,
/// summed.
fn ticks(net: &Net<HybridMsg>) -> SimDuration {
    net.timers.iter().fold(SimDuration::ZERO, |sum, &(delay, _)| sum + delay)
}

/// The latest a driver row may turn `done` after its issue: the fallback
/// starts at the first hybrid tick past `TIMEOUT`, the engine ends its
/// search by `SEARCH_TIMEOUT` at a DHT tick, and the next hybrid tick
/// collects it.
fn done_bound(ticks: SimDuration) -> SimDuration {
    TIMEOUT + piersearch::SEARCH_TIMEOUT + ticks + ticks
}

/// The `n`th of the 24 orders of the four ultrapeers.
fn permutation(mut n: usize) -> [usize; 4] {
    let mut pool = vec![0, 1, 2, 3];
    [4, 3, 2, 1].map(|k| {
        let i = n % k;
        n /= k;
        pool.remove(i)
    })
}

/// The two searching leaves of a run whose searches start at
/// `origins[2]` and `origins[3]`, in that order.
fn searchers(origins: [usize; 4]) -> [usize; 2] {
    [2 * origins[2], 2 * origins[3] + 1]
}

/// Start the four queries under `fate`, run to quiet, and check what is
/// left. A panic is reported as an `Err`.
fn scenario(origins: [usize; 4], fate: Fate<HybridMsg>) -> Result<World, String> {
    let mut w = hostile::caught(|| {
        let mut w = World::deployed();
        w.wire.fate = fate;
        for (up, terms) in [(origins[0], DHT_ONLY), (origins[1], UNANSWERED)] {
            w.at_up(up, |up, net| up.start_hybrid_query(net, terms));
            w.drivers[up] += 1;
        }
        for (j, terms) in searchers(origins).into_iter().zip([DHT_ONLY, ANSWERED]) {
            w.at_leaf(j, |leaf, net| leaf.start_search(net, terms));
        }
        hostile::run(&mut w, None);
        w
    })?;
    let mut open: BTreeMap<(NodeId, u32), bool> = BTreeMap::new();
    for (key, said) in &w.leaf_log {
        let is_open = open.entry(*key).or_default();
        match said {
            Said::Asked => *is_open = true,
            Said::Results { done } if *is_open => *is_open = !done,
            Said::Results { done } => {
                w.broken.push(format!("{key:?} sent results (done {done}) with no ask open"))
            }
        }
    }
    for (key, _) in open.into_iter().filter(|&(_, is_open)| is_open) {
        w.broken.push(format!("{key:?} reached its ultrapeer and was never sent done"));
    }
    for (j, leaf) in w.leaves.iter().enumerate() {
        let mut timed_out = 0;
        for (qid, s) in leaf.core.searches() {
            match (s.done, s.ended_at) {
                (_, None) => w.broken.push(format!("leaf {j} search {qid} never ended: {s:?}")),
                (false, Some(_)) => timed_out += 1,
                (true, Some(_)) => {}
            }
        }
        let counted = w.net.at(leaf_id(j), &pier_gnutella::classes::LEAF_SEARCH_TIMEOUT);
        if counted != timed_out {
            w.broken.push(format!("leaf {j}: {timed_out} searches timed out, {counted} counted"));
        }
    }
    for (i, up) in w.ups.iter().enumerate() {
        for (r, s) in up.stats.iter().enumerate().filter(|(_, s)| !s.done) {
            w.broken.push(format!("up {i} row {r} never done: {s:?}"));
        }
        let idle = [
            up.is_idle(),
            up.gnutella.is_idle(),
            up.search.core.is_idle(),
            up.search.app.pier.is_idle(),
            up.search.app.engine.is_idle(),
        ];
        if idle != [true; 5] {
            w.broken.push(format!("up {i}: hybrid, Gnutella, DHT, PIER, engine idle = {idle:?}"));
        }
        if up.stats.len() != w.drivers[i] {
            let (rows, started) = (up.stats.len(), w.drivers[i]);
            w.broken.push(format!("up {i} holds {rows} rows for {started} driver queries"));
        }
    }
    Ok(w)
}

/// Invariant 5: what a polite run of `origins` must have found.
fn unrescued(w: &World, origins: [usize; 4]) -> Vec<String> {
    let mut broken = Vec::new();
    let rescued = &w.ups[origins[0]].stats[0];
    let mut items = rescued.pier_items.clone();
    items.dedup();
    if rescued.gnutella_hits != 0 || rescued.pier_issued_at.is_none() || items != [published()] {
        broken.push(format!("the DHT-only driver query was not rescued: {rescued:?}"));
    }
    let empty = &w.ups[origins[1]].stats[0];
    if empty.gnutella_hits != 0 || !empty.pier_items.is_empty() {
        broken.push(format!("the unanswered driver query found something: {empty:?}"));
    }
    let [asker, answered] = searchers(origins).map(|j| w.leaves[j].core.search(1).expect("issued"));
    let mut hits = asker.hits.clone();
    hits.dedup();
    if !asker.done || hits != [published_hit()] {
        broken.push(format!("the DHT-only leaf search was not rescued: {asker:?}"));
    }
    let searches = w.net.at(up_id(origins[3]), &piersearch::classes::SEARCHES);
    let relayed = answered.hits.iter().any(|h| h.host.index() >= UPS as usize);
    if !answered.done || !relayed || searches != 0 {
        let why = format!("{searches} fallbacks, hits relayed {relayed}");
        broken.push(format!("the answered leaf search ({why}): {answered:?}"));
    }
    broken
}

proptest! {
    /// The four ultrapeers' roles are one of their 24 orders; fates cycle
    /// through `schedule` in send order (see `scheduled`).
    #[test]
    fn every_query_ends_once_and_visibly_under_any_schedule(
        order in 0..24usize,
        polite in any::<bool>(),
        schedule in hostile::schedule(7),
    ) {
        let origins = permutation(order);
        let broken = scenario(origins, scheduled(schedule, polite)).map(|w| {
            let mut broken = w.broken.clone();
            if polite {
                broken.extend(unrescued(&w, origins));
            }
            broken
        });
        prop_assert!(broken.as_ref().is_ok_and(|b| b.is_empty()), "{:?}", broken);
    }
}

/// Delivered once each after 10 ms, every query ends as the reference
/// says, each leaf hears exactly one `done`, and nothing is abandoned.
#[test]
fn a_polite_network_rescues_the_dht_only_query_on_both_paths() {
    let origins = [0, 1, 2, 3];
    let w = scenario(origins, hostile::polite()).expect("no panic");
    assert_eq!(w.broken, Vec::<String>::new());
    assert_eq!(unrescued(&w, origins), Vec::<String>::new());
    let dones =
        w.leaf_log.iter().filter(|(_, s)| matches!(s, Said::Results { done: true })).count();
    assert_eq!(dones, 2, "{:?}", w.leaf_log);
    let abandoned: u64 =
        (0..UPS as usize).map(|i| w.net.at(up_id(i), &classes::QUERY_ABANDONED)).sum();
    assert_eq!(abandoned, 0);
    let timeout = &pier_gnutella::classes::LEAF_SEARCH_TIMEOUT;
    let timed_out: u64 = (0..LEAVES as usize).map(|j| w.net.at(leaf_id(j), timeout)).sum();
    assert_eq!(timed_out, 0);
}

/// A repeated `LeafQuery` for a search in flight is counted, not tracked
/// twice: the leaf still hears one `done`.
#[test]
fn a_repeated_leaf_query_is_counted_not_tracked_twice() {
    let origins = [0, 1, 2, 3];
    let fate = hostile::scripted(|m| {
        matches!(m, HybridMsg::G(GnutellaMsg::LeafQuery { .. }))
            .then(|| vec![LATENCY, LATENCY + LATENCY])
    });
    let w = scenario(origins, fate).expect("no panic");
    assert_eq!(w.broken, Vec::<String>::new());
    let unexpected = &pier_gnutella::classes::UNEXPECTED_MSG;
    for j in searchers(origins) {
        assert_eq!(w.net.at(up_id(home(j)), unexpected), 1, "leaf {j}'s repeat");
        let dones = w
            .leaf_log
            .iter()
            .filter(|(k, s)| k.0 == leaf_id(j) && matches!(s, Said::Results { done: true }))
            .count();
        assert_eq!(dones, 1, "leaf {j}");
    }
}

/// A dropped `LeafQuery` never reaches its ultrapeer: the leaf's own timer
/// ends the search once, exactly at its deadline, and counts it once.
#[test]
fn a_dropped_leaf_query_ends_at_the_leafs_deadline() {
    let origins = [0, 1, 2, 3];
    let fate = hostile::scripted(|m| {
        matches!(m, HybridMsg::G(GnutellaMsg::LeafQuery { .. })).then(Vec::new)
    });
    let w = scenario(origins, fate).expect("no panic");
    assert_eq!(w.broken, Vec::<String>::new());
    let timeout = &pier_gnutella::classes::LEAF_SEARCH_TIMEOUT;
    for j in searchers(origins) {
        let search = w.leaves[j].core.search(1).expect("issued");
        assert_eq!((search.done, search.ended_at), (false, Some(ISSUE_AT + LEAF_SEARCH_DEADLINE)));
        assert_eq!(w.net.at(leaf_id(j), timeout), 1, "leaf {j}");
    }
}

/// At the defaults, a leaf's fallback ends inside the leaf's deadline: the
/// Gnutella `timeout`, the engine's `SEARCH_TIMEOUT`, and a tick of each
/// of the hybrid's timers twice (as in `done_bound`), read from the timers
/// `on_start` arms.
#[test]
fn the_leaf_deadline_outlasts_the_default_fallback() {
    let core = UltrapeerCore::new(UltrapeerConfig::default(), FileStore::default());
    let dht = DhtCore::new(DhtConfig::default(), Contact::for_node(up_id(0)));
    let mut up = HybridUp::new(HybridConfig::default(), core, dht, RareScheme::tf(0));
    let mut net = Net::new(36, 1);
    up.on_start(&mut net);
    assert_eq!(net.timers.len(), 3, "{:?}", net.timers);
    let ticks = ticks(&net);
    let fallback = HybridConfig::default().timeout + piersearch::SEARCH_TIMEOUT + ticks + ticks;
    assert!(fallback < LEAF_SEARCH_DEADLINE, "{fallback:?}");
}
