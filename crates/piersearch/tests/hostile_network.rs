//! PIERSearch under a hostile network. The search engine's item fetches
//! (DHT `get` lookups) and the publisher's soft-state refresh (`put`
//! lookups plus replicated Store RPCs) run while every message may be
//! dropped, repeated, reordered, or held late.
//!
//! The nodes are `(DhtCore, PierSearchApp)` pairs on full routing tables
//! with bucket refresh off, driven directly rather than through the
//! simulator: the shared test bed's net records every outbound `DhtMsg`,
//! and its fate table decides when, and how many times, each one arrives.
//! The first publish runs fault-free with `refresh_interval` set, so every
//! run starts from the same stored corpus. Then four searches start from
//! distinct nodes, and the first refresh round fires one tick later; both
//! run under the fates.
//!
//! A DHT RPC is held past `rpc_timeout`, a PIER message past the query
//! deadline. `rpc_timeout` (2 s) outlasts a search's routed PIER traffic,
//! so no timed-out RPC evicts a contact before a live plan has reached its
//! sites. A plan routed over a table that a timeout thinned can reach the
//! wrong site and end short with nothing counted: ROADMAP F5's route gap,
//! which this harness reproduces when `scenario` runs the refresh round to
//! quiet before the searches start.
//!
//! The invariants:
//! 1. nothing panics;
//! 2. each node reports each `GetDone` / `PutDone` op at most once, with
//!    `acks ≤ replication`;
//! 3. each search reports exactly one `Done`, and nothing about it changes
//!    afterwards;
//! 4. every item is a published record that answers the query;
//! 5. a polite schedule returns exactly the reference items, with no
//!    timeout or miss counted;
//! 6. a search that ends short of the reference has `pier.query_timeout`,
//!    `piersearch.search_timeout` or `piersearch.unresolved_match` counted
//!    at its node; and its items plus `unresolved_match` are the distinct
//!    matches: the reference's size, unless its plan timed out;
//! 7. at the end, every node's `DhtCore`, `PierCore` and `SearchEngine` is
//!    idle.

use pier_dht::{CtxNet, DhtApp, DhtConfig, DhtCore, DhtEvent, DhtMsg, DhtNet, OpId, Response};
use pier_netsim::{LazyMetricClass, NodeId, SimDuration, SimTime};
use pier_qp::{QueryId, EXEC_TTL, QUERY_TIMEOUT};
use piersearch::tokenize::keywords;
use piersearch::{classes, IndexMode, ItemRecord, PierSearchApp, SearchEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[allow(dead_code, reason = "each harness uses part of the shared test bed")]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;
use hostile::{Fate, Net, Table, Wire};

const NODES: u32 = 12;
/// Files in the corpus, two per node.
const FILES: usize = 24;
/// Every node's maintenance tick.
const TICK: SimDuration = SimDuration::from_secs(1);
/// The soft-state interval. The hostile phase starts here, so the first
/// refresh round fires at its first tick.
const REFRESH: SimDuration = SimDuration::from_secs(5);
/// The four searches every run starts: one, two and three keywords (24,
/// 12 and 4 items), and a keyword nothing has.
const QUERIES: [&str; 4] = ["alpha", "alpha bravo", "bravo charlie alpha", "charlie zulu"];

fn config() -> DhtConfig {
    DhtConfig {
        rpc_timeout: SimDuration::from_secs(2),
        value_ttl: SimDuration::from_secs(3600),
        // No DHT traffic of its own: lookups come from fetches and puts.
        bucket_refresh: SimDuration::ZERO,
        ..DhtConfig::test()
    }
}

/// File `i`: always `alpha`, `bravo` on even `i`, `charlie` on multiples
/// of three, shared by node `i % NODES`.
fn record(i: usize) -> ItemRecord {
    let mut words = vec!["alpha"];
    if i.is_multiple_of(2) {
        words.push("bravo");
    }
    if i.is_multiple_of(3) {
        words.push("charlie");
    }
    let name = format!("{}_take{i:02}.mp3", words.join("_"));
    ItemRecord::new(&name, 1000 + i as u64, NodeId::new(i as u32 % NODES), 6346)
}

/// The published records that answer `query`, sorted by name.
fn reference(query: &str) -> Vec<ItemRecord> {
    let terms = keywords(query);
    let mut want: Vec<ItemRecord> = (0..FILES)
        .map(record)
        .filter(|r| {
            let have = keywords(&r.filename);
            terms.iter().all(|t| have.contains(t))
        })
        .collect();
    want.sort_by(|a, b| a.filename.cmp(&b.filename));
    want
}

struct Node {
    dht: DhtCore,
    app: PierSearchApp,
}

/// A search as its `Done` left it.
#[derive(Clone, Debug, PartialEq)]
struct Finished {
    items: Vec<ItemRecord>,
    first_result_at: Option<SimTime>,
}

struct World {
    nodes: Vec<Node>,
    net: Net<DhtMsg>,
    wire: Wire<DhtMsg>,
    /// Every `GetDone` (`None`) and `PutDone` (`Some(acks)`) reported, by
    /// node and op.
    ops: Vec<((usize, OpId), Option<usize>)>,
    /// Every search `Done`, with the search as it stood then.
    dones: Vec<((usize, QueryId), Finished)>,
    /// When the searches started.
    started: SimTime,
}

impl World {
    /// `NODES` nodes that each know every other, with the corpus published
    /// politely under a soft-state interval.
    fn published() -> World {
        let nodes = hostile::meshed(&config(), NODES)
            .into_iter()
            .map(|dht| {
                let mut app = PierSearchApp::new(IndexMode::Inverted);
                app.publisher.refresh_interval = Some(REFRESH);
                Node { dht, app }
            })
            .collect();
        let (net, wire) = (Net::new(0, NODES), Wire::new(hostile::polite()));
        let mut w =
            World { nodes, net, wire, ops: Vec::new(), dones: Vec::new(), started: SimTime::ZERO };
        for i in 0..FILES {
            let r = record(i);
            w.at(r.host.index(), |dht, app, net| {
                let shipped = app.publisher.publish_file(
                    &mut app.pier,
                    dht,
                    net,
                    &r.filename,
                    r.filesize,
                    r.host,
                    r.port,
                );
                assert!(shipped.is_some(), "indexable");
            });
        }
        hostile::run(&mut w, None);
        w.net.counts.clear();
        w.net.now = SimTime::ZERO + REFRESH;
        w
    }

    /// Run `f` at node `i`, hand the DHT's events to the app, record what
    /// the invariants read, and send what it sent.
    fn at(&mut self, i: usize, f: impl FnOnce(&mut DhtCore, &mut PierSearchApp, &mut dyn DhtNet)) {
        let World { nodes, net, ops, dones, .. } = self;
        net.node = NodeId::new(i as u32);
        let net = &mut CtxNet { ctx: net };
        let Node { dht, app } = &mut nodes[i];
        f(dht, app, net);
        loop {
            let events = dht.take_events();
            if events.is_empty() {
                break;
            }
            for ev in events {
                match ev {
                    DhtEvent::GetDone { op, .. } => ops.push(((i, op), None)),
                    DhtEvent::PutDone { op, acks, .. } => ops.push(((i, op), Some(acks))),
                    _ => {}
                }
                app.on_event(dht, net, ev);
            }
        }
        for SearchEvent::Done(qid) in app.engine.take_events() {
            let s = app.engine.search(qid).expect("a finished search is kept");
            let finished = Finished { items: s.items.clone(), first_result_at: s.first_result_at };
            dones.push(((i, qid), finished));
        }
        self.wire.flush(&mut self.net);
    }

    /// Start the four searches, search `q` at node `origins[q]`.
    fn search(&mut self, origins: [usize; 4]) -> Vec<(usize, QueryId)> {
        self.started = self.net.now;
        let mut searches = Vec::new();
        for (query, origin) in QUERIES.into_iter().zip(origins) {
            self.at(origin, |dht, app, net| {
                let qid = app.engine.start_search(&mut app.pier, dht, net, query);
                searches.push((origin, qid.expect("searchable")));
            });
        }
        searches
    }

    fn count(&self, node: usize, class: &LazyMetricClass) -> u64 {
        self.net.at(NodeId::new(node as u32), class)
    }
}

/// Every tick, each node's DHT, then its app; the refresh loop stops after
/// its first round. The run ends a tick `EXEC_TTL` after the last delivery
/// and the searches' start.
impl hostile::World<DhtMsg> for World {
    fn bed(&mut self) -> (&mut Net<DhtMsg>, &mut Wire<DhtMsg>) {
        (&mut self.net, &mut self.wire)
    }
    fn deliver(&mut self, _from: NodeId, to: NodeId, msg: DhtMsg) {
        self.at(to.index(), |dht, _, net| dht.on_message(net, msg));
    }
    fn tick(&mut self) {
        for i in 0..NODES as usize {
            self.at(i, |dht, app, net| {
                dht.tick(net);
                app.on_tick(dht, net);
            });
            self.nodes[i].app.publisher.refresh_interval = None;
        }
    }
    fn quiet(&self) -> SimTime {
        self.wire.last_delivery.max(self.started) + EXEC_TTL
    }
}

/// Publish, then search from `origins` and refresh under `fate`, and run to
/// the end.
fn scenario(origins: [usize; 4], fate: Fate<DhtMsg>) -> (World, Vec<(usize, QueryId)>) {
    let mut w = World::published();
    w.wire.fate = fate;
    let searches = w.search(origins);
    let first = w.net.now + TICK;
    hostile::run(&mut w, Some((first, TICK)));
    (w, searches)
}

/// The counters that make a short search visible.
const SHORTFALL: [&LazyMetricClass; 3] =
    [&pier_qp::classes::QUERY_TIMEOUT, &classes::SEARCH_TIMEOUT, &classes::UNRESOLVED_MATCH];

/// Invariants 2–7 of a finished scenario, as a list of what broke.
fn broken((w, searches): &(World, Vec<(usize, QueryId)>), polite: bool) -> Vec<String> {
    let mut broken = Vec::new();
    let replication = config().replication;
    let mut reported: BTreeMap<(usize, OpId), usize> = BTreeMap::new();
    for (key, acks) in &w.ops {
        *reported.entry(*key).or_default() += 1;
        if acks.is_some_and(|a| a > replication) {
            broken.push(format!("node {} op {}: {acks:?} acks", key.0, key.1));
        }
    }
    for (key, n) in reported.into_iter().filter(|&(_, n)| n > 1) {
        broken.push(format!("node {} reported op {} {n} times", key.0, key.1));
    }
    for (query, &(node, qid)) in QUERIES.iter().zip(searches) {
        let s = w.nodes[node].app.engine.search(qid).expect("kept");
        let now = Finished { items: s.items.clone(), first_result_at: s.first_result_at };
        let dones: Vec<&Finished> =
            w.dones.iter().filter(|(k, _)| *k == (node, qid)).map(|(_, f)| f).collect();
        if dones != [&now] || !s.done {
            broken.push(format!("{query:?}: Done as {dones:?}, now {now:?}"));
        }
        let want = reference(query);
        let mut items = s.items.clone();
        items.sort_by(|a, b| a.filename.cmp(&b.filename));
        if items.iter().any(|i| !want.contains(i)) || items.windows(2).any(|p| p[0] == p[1]) {
            broken.push(format!("{query:?}: items {items:?} outside the reference"));
        }
        if polite && items != want {
            broken.push(format!("{query:?}: polite run found {items:?}, not {want:?}"));
        }
        let counted = SHORTFALL.map(|c| w.count(node, c));
        if items.len() < want.len() && counted == [0, 0, 0] {
            broken.push(format!(
                "{query:?}: {} of {} items at node {node}, and no shortfall counted",
                items.len(),
                want.len()
            ));
        }
        // Each node runs one search, so its misses are that search's.
        let [plan_timeouts, _, misses] = counted;
        let ended = items.len() as u64 + misses;
        if ended > want.len() as u64 || (plan_timeouts == 0 && ended != want.len() as u64) {
            broken.push(format!(
                "{query:?}: {} items + {misses} misses against {} matches",
                items.len(),
                want.len()
            ));
        }
    }
    let counted = SHORTFALL.map(|c| w.net.total(c));
    if polite && counted != [0, 0, 0] {
        broken.push(format!("polite run counted {counted:?} timeouts and misses"));
    }
    for (i, n) in w.nodes.iter().enumerate() {
        let idle = [n.dht.is_idle(), n.app.pier.is_idle(), n.app.engine.is_idle()];
        if idle != [true; 3] {
            broken.push(format!("node {i}: DHT, PIER, engine idle = {idle:?} at the end"));
        }
    }
    broken
}

/// Where the scripted tests search from.
const ORIGINS: [usize; 4] = [0, 5, 7, 11];

proptest! {
    /// Fates follow the shared table, with delays of 10–90 ms; a held
    /// DHT RPC arrives up to 3 s past `rpc_timeout`, a held PIER message
    /// as long past the query deadline. A polite schedule turns drops and
    /// holds into repeats, so it must find every reference item with
    /// nothing counted.
    #[test]
    fn searches_and_refreshes_end_once_and_visibly_under_any_schedule(
        first in 0..NODES as usize,
        stride in 1..4usize,
        polite in any::<bool>(),
        schedule in hostile::schedule(7),
    ) {
        let origins = [0, 1, 2, 3].map(|k| (first + k * stride) % NODES as usize);
        let rpc_timeout = config().rpc_timeout;
        let fate = Table::new(schedule, polite, hostile::SOON).fate(move |msg, a| {
            let late = hostile::within(1..=3000, a);
            match msg {
                DhtMsg::Request { .. } | DhtMsg::Response { .. } => rpc_timeout + late,
                _ => QUERY_TIMEOUT + late,
            }
        });
        let broken = broken(&scenario(origins, fate), polite);
        prop_assert!(broken.is_empty(), "{:?}", broken);
    }
}

/// The polite run finds every reference item, and the refresh round ships
/// every file through the replicated put (whose `PutDone`s only this
/// harness reads).
#[test]
fn the_polite_run_finds_the_reference() {
    let run = scenario(ORIGINS, hostile::polite());
    let broken = broken(&run, true);
    assert!(broken.is_empty(), "{broken:?}");
    let w = &run.0;
    assert_eq!(w.net.total(&classes::SOFT_REFRESH_FILES), FILES as u64);
    let puts = w.ops.iter().filter(|(_, acks)| acks.is_some()).count();
    assert!(puts >= FILES * 3, "one put per refreshed tuple, saw {puts}");
}

/// Every matched file ends as an item or a counted miss. With every
/// FindValue reply lost, an item resolves only from the searcher's own
/// replica; each other match is counted once in
/// `piersearch.unresolved_match` at its node (invariant 6).
#[test]
fn a_lost_find_value_reply_is_a_counted_miss() {
    let run = scenario(
        ORIGINS,
        hostile::scripted(|m| {
            matches!(m, DhtMsg::Response { body: Response::Values { .. }, .. }).then(Vec::new)
        }),
    );
    let broken = broken(&run, false);
    assert!(broken.is_empty(), "{broken:?}");
    assert_eq!(run.0.net.total(&pier_qp::classes::QUERY_TIMEOUT), 0, "every plan completes");
    assert!(run.0.net.total(&classes::UNRESOLVED_MATCH) > 0, "some item lives off its searcher");
}
