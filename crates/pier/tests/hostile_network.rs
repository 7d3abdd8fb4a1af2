//! `PierCore` under a hostile network. Every message a query sends may be
//! dropped, repeated, reordered, or held until after the client's
//! deadline; each run is held against the same world delivered once, in
//! send order.
//!
//! The nodes are `(DhtCore, PierCore)` pairs on full routing tables, driven
//! directly rather than through the simulator: the shared test bed's net
//! records every outbound `DhtMsg`, and its fate table decides when, and
//! how many times, each one arrives. Publishing always runs fault-free, so
//! every run scans the same stored relation.
//!
//! The invariants:
//! 1. nothing panics;
//! 2. every issued query reports exactly one `Done`;
//! 3. `Complete` means the result multiset equals the reference's;
//! 4. a schedule that drops nothing and delays nothing past `rpc_timeout`
//!    ends every query `Complete`;
//! 5. every other query ends `TimedOut` and is counted in
//!    `pier.query_timeout`;
//! 6. every node, its DHT included, is idle `EXEC_TTL` after the last
//!    delivery.

use pier_dht::{Contact, CtxNet, DhtConfig, DhtCore, DhtEvent, DhtMsg, DhtNet, Key};
use pier_netsim::{NodeId, SimDuration, SimTime};
use pier_qp::{
    classes, Catalog, Field, FieldType, JoinChainBuilder, JoinCols, PierCore, PierEvent, PierMsg,
    QueryId, QueryOutcome, QueryPlan, Schema, TableDef, Tuple, Value, EXEC_TTL, QUERY_TIMEOUT,
};
use proptest::prelude::*;

// Each harness uses part of the shared test bed.
#[allow(dead_code)]
#[path = "../../../tests/support/hostile.rs"]
mod hostile;
use hostile::{Fate, Net, Table, Wire, LATENCY};

const NODES: u32 = 12;
/// Files in the published relation: 150 posting lists' worth of `a`, so
/// the larger streams span several 64-tuple batches.
const FILES: usize = 150;
/// Every node's maintenance tick.
const TICK: SimDuration = SimDuration::from_secs(1);
/// The four keyword queries every run issues: one stage, two and three
/// stages, and an empty join (150, 75, 25 and 0 results).
const QUERIES: [&[&str]; 4] = [&["a"], &["a", "b"], &["b", "c", "a"], &["c", "zzz"]];

fn inverted() -> TableDef {
    TableDef::new(
        "inverted",
        Schema::new(vec![
            Field::new("keyword", FieldType::Str),
            Field::new("fileID", FieldType::Key),
        ]),
        0,
    )
}

fn keywords(file: usize) -> impl Iterator<Item = &'static str> {
    [("a", 1), ("b", 2), ("c", 3)]
        .into_iter()
        .filter(move |(_, m)| file.is_multiple_of(*m))
        .map(|(k, _)| k)
}

fn keyword_plan(qid: QueryId, collector: Contact, terms: &[&str]) -> QueryPlan {
    let inv = inverted();
    let mut b = JoinChainBuilder::new(qid, collector).scan(&inv, &terms[0].into(), None, vec![1]);
    for t in &terms[1..] {
        b = b.join(&inv, &(*t).into(), JoinCols { incoming: 0, scanned: 1 }, None, vec![0]);
    }
    b.build()
}

/// The PIER message a DHT message carries, if any.
fn pier_msg(msg: &DhtMsg) -> Option<PierMsg> {
    match msg {
        DhtMsg::Route { payload, .. } | DhtMsg::AppDirect { payload, .. } => {
            PierMsg::decode(payload).ok()
        }
        _ => None,
    }
}

struct Node {
    dht: DhtCore,
    pier: PierCore,
}

struct World {
    nodes: Vec<Node>,
    net: Net<DhtMsg>,
    wire: Wire<DhtMsg>,
    /// Every client event of every node, in emission order.
    events: Vec<PierEvent>,
}

impl World {
    /// `NODES` nodes that each know every other, with the relation
    /// published and stored.
    fn published() -> World {
        let cfg = DhtConfig {
            k: NODES as usize,
            value_ttl: SimDuration::from_secs(3600),
            // No DHT traffic of its own: the overlay only routes PIER's.
            bucket_refresh: SimDuration::ZERO,
            ..DhtConfig::test()
        };
        let mut catalog = Catalog::new();
        catalog.register(inverted());
        let nodes = hostile::meshed(&cfg, NODES)
            .into_iter()
            .map(|dht| Node { dht, pier: PierCore::new(catalog.clone()) })
            .collect();
        let (net, wire) = (Net::new(0, NODES), Wire::new(hostile::polite()));
        let mut w = World { nodes, net, wire, events: Vec::new() };
        for file in 0..FILES {
            let id = Key::hash(format!("file{file}").as_bytes());
            for kw in keywords(file) {
                let t = Tuple::new(vec![Value::Str(kw.into()), Value::Key(id)]);
                w.at(file % NODES as usize, |dht, pier, net| {
                    pier.publish(dht, net, "inverted", &t, false).expect("conforms");
                });
            }
        }
        hostile::run(&mut w, None);
        w
    }

    /// Run `f` at node `i`, hand the DHT's deliveries to its engine, and
    /// send what it sent.
    fn at(&mut self, i: usize, f: impl FnOnce(&mut DhtCore, &mut PierCore, &mut dyn DhtNet)) {
        self.net.node = NodeId::new(i as u32);
        let net = &mut CtxNet { ctx: &mut self.net };
        let Node { dht, pier } = &mut self.nodes[i];
        f(dht, pier, net);
        loop {
            let delivered = dht.take_events();
            if delivered.is_empty() {
                break;
            }
            for ev in &delivered {
                pier.on_dht_event(dht, net, ev);
            }
        }
        self.events.extend(pier.take_events());
        self.wire.flush(&mut self.net);
    }

    /// Issue the four keyword queries, query `q` from node `origins[q]`.
    fn issue(&mut self, origins: [usize; 4]) -> Vec<QueryId> {
        let mut qids = Vec::new();
        for (terms, origin) in QUERIES.iter().zip(origins) {
            self.at(origin, |dht, pier, net| {
                let qid = pier.next_query_id(dht);
                pier.issue(dht, net, keyword_plan(qid, dht.local(), terms));
                qids.push(qid);
            });
        }
        qids
    }

    /// Query `qid`'s results, sorted, and every `Done` it reported.
    fn outcome(&self, qid: QueryId) -> (Vec<Vec<Value>>, Vec<(QueryOutcome, usize)>) {
        let mut results = Vec::new();
        let mut dones = Vec::new();
        for ev in &self.events {
            match ev {
                PierEvent::Results { qid: q, tuples } if *q == qid => {
                    results.extend(tuples.iter().map(|t| t.0.clone()))
                }
                PierEvent::Done { qid: q, outcome, total } if *q == qid => {
                    dones.push((*outcome, *total))
                }
                _ => {}
            }
        }
        results.sort();
        (results, dones)
    }
}

/// Every tick, each node's DHT, then its engine; the run ends a tick
/// `EXEC_TTL` after the last delivery.
impl hostile::World<DhtMsg> for World {
    fn bed(&mut self) -> (&mut Net<DhtMsg>, &mut Wire<DhtMsg>) {
        (&mut self.net, &mut self.wire)
    }
    fn deliver(&mut self, _from: NodeId, to: NodeId, msg: DhtMsg) {
        self.at(to.index(), |dht, _, net| dht.on_message(net, msg));
    }
    fn tick(&mut self) {
        for i in 0..NODES as usize {
            self.at(i, |dht, pier, net| {
                dht.tick(net);
                pier.tick(dht, net);
            });
        }
    }
    fn quiet(&self) -> SimTime {
        self.wire.last_delivery + EXEC_TTL
    }
}

/// Publish, then issue the four queries under `fate` and run to the end.
fn scenario(origins: [usize; 4], fate: Fate<DhtMsg>) -> (World, Vec<QueryId>) {
    let mut w = World::published();
    w.wire.fate = fate;
    let qids = w.issue(origins);
    let first = w.net.now + TICK;
    hostile::run(&mut w, Some((first, TICK)));
    (w, qids)
}

/// Invariants 2–6 of `hostile` against `reference` (same origins, polite
/// fate), as a list of what broke.
fn broken(
    hostile: &(World, Vec<QueryId>),
    reference: &(World, Vec<QueryId>),
    polite: bool,
) -> Vec<String> {
    let (h, qids) = hostile;
    let mut broken = Vec::new();
    let mut timed_out = 0;
    for (q, (&qid, &rqid)) in qids.iter().zip(&reference.1).enumerate() {
        let (results, dones) = h.outcome(qid);
        let (want, _) = reference.0.outcome(rqid);
        timed_out += dones.iter().filter(|(o, _)| *o == QueryOutcome::TimedOut).count() as u64;
        let holds = match dones[..] {
            [(QueryOutcome::Complete, total)] => results == want && total == want.len(),
            [(QueryOutcome::TimedOut, _)] => !polite,
            _ => false,
        };
        if !holds {
            broken.push(format!(
                "query {q}: Done {dones:?} with {} results, the reference has {}",
                results.len(),
                want.len()
            ));
        }
    }
    if h.net.total(&classes::QUERY_TIMEOUT) != timed_out {
        broken.push(format!(
            "{timed_out} queries timed out, pier.query_timeout counted {}",
            h.net.total(&classes::QUERY_TIMEOUT)
        ));
    }
    for (i, n) in h.nodes.iter().enumerate() {
        if !n.pier.is_idle() {
            broken.push(format!("node {i} holds state EXEC_TTL after the last delivery"));
        }
        if !n.dht.is_idle() {
            broken.push(format!("node {i}'s DHT holds a request EXEC_TTL after the last delivery"));
        }
    }
    broken
}

/// The reference run for `origins`; every query in it completes.
fn reference(origins: [usize; 4]) -> (World, Vec<QueryId>) {
    let r = scenario(origins, hostile::polite());
    let broken = broken(&r, &r, true);
    assert!(broken.is_empty(), "the reference run itself: {broken:?}");
    r
}

/// A fate that delivers every message once, except those `pick` chooses,
/// which arrive after each of the given delays.
fn scripted(pick: impl Fn(&PierMsg) -> Option<Vec<SimDuration>> + 'static) -> Fate<DhtMsg> {
    hostile::scripted(move |msg| pier_msg(msg).and_then(|m| pick(&m)))
}

/// Where the scripted tests issue their queries from.
const ORIGINS: [usize; 4] = [0, 5, 7, 11];

proptest! {
    /// Fates follow the shared table, with delays of 1 ms to `rpc_timeout`
    /// and holds up to 30 s past `QUERY_TIMEOUT`. A polite schedule turns
    /// drops and holds into repeats, so it must end every query `Complete`.
    #[test]
    fn queries_end_once_and_correctly_under_any_schedule(
        origins in (0..NODES as usize, 0..NODES as usize, 0..NODES as usize, 0..NODES as usize),
        polite in any::<bool>(),
        schedule in hostile::schedule(7),
    ) {
        let origins = [origins.0, origins.1, origins.2, origins.3];
        let rpc_ms = DhtConfig::test().rpc_timeout.as_micros() / 1000;
        let fate = Table::new(schedule, polite, 1..=rpc_ms)
            .fate(|_, a| QUERY_TIMEOUT + hostile::within(0..=29_999, a));
        let broken = broken(&scenario(origins, fate), &reference(origins), polite);
        prop_assert!(broken.is_empty(), "{:?}", broken);
    }
}

fn assert_all_complete(fate: Fate<DhtMsg>) -> World {
    let hostile = scenario(ORIGINS, fate);
    let broken = broken(&hostile, &reference(ORIGINS), true);
    assert!(broken.is_empty(), "{broken:?}");
    hostile.0
}

/// A result batch delivered twice before `ResultsEof` is counted once: the
/// query still ends `Complete` with the reference total.
#[test]
fn a_repeated_result_batch_is_counted_once() {
    assert_all_complete(scripted(|m| {
        matches!(m, PierMsg::Results { seq: 0, .. }).then(|| vec![LATENCY, LATENCY])
    }));
}

/// A repeat never stands in for a batch still on its way: with batch 0
/// delivered twice and batch 2 late, the EOF finds two of three distinct
/// batches and the query waits for the third.
#[test]
fn a_repeat_never_stands_in_for_a_missing_batch() {
    assert_all_complete(scripted(|m| match m {
        PierMsg::Results { seq: 0, .. } => Some(vec![LATENCY, LATENCY]),
        PierMsg::Results { seq: 2, .. } => Some(vec![SimDuration::from_secs(5)]),
        _ => None,
    }));
}

/// An inter-stage batch delivered twice is probed once, including while
/// its stage still waits for a late `Install`.
#[test]
fn a_repeated_inter_stage_batch_is_probed_once() {
    assert_all_complete(scripted(|m| match m {
        PierMsg::Batch { seq: 0, .. } => Some(vec![LATENCY, LATENCY]),
        PierMsg::Install { stage: 1.., .. } => Some(vec![SimDuration::from_secs(2)]),
        _ => None,
    }));
}

/// A client forgets its query when it reports `Done`: an EOF repeated
/// after that counts as an orphan result, once per query.
#[test]
fn results_after_done_count_as_orphans() {
    let w = assert_all_complete(scripted(|m| {
        matches!(m, PierMsg::ResultsEof { .. }).then(|| vec![LATENCY, SimDuration::from_secs(5)])
    }));
    assert_eq!(w.net.total(&classes::ORPHAN_RESULTS), QUERIES.len() as u64);
}

/// Messages no valid plan sends are dropped and counted, never panicked on:
/// a plan that fails validation against the local catalog, one naming a
/// table the node does not know, a stage index past the plan, and a batch
/// sent to a source stage.
#[test]
fn protocol_violations_are_counted_not_panicked_on() {
    let mut w = World::published();
    let site = inverted().publish_key_for(&"a".into());
    let owner = (0..NODES as usize)
        .find(|&i| !w.nodes[i].dht.local_values(&site, w.net.now).is_empty())
        .expect("someone stores the a postings");
    let qid = QueryId { origin: 0, seq: 1 };
    let plan = keyword_plan(qid, Contact::for_node(NodeId::new(0)), &["a"]);
    let mut bad_column = plan.clone();
    bad_column.stages[0].project = vec![7];
    let mut unknown_table = plan.clone();
    unknown_table.stages[0].scan.table = "nowhere".into();
    let inject = [
        PierMsg::Install { plan: bad_column, stage: 0 },
        PierMsg::Install { plan: unknown_table, stage: 0 },
        PierMsg::Install { plan: plan.clone(), stage: 7 },
        PierMsg::Install { plan, stage: 0 },
        PierMsg::Batch { qid, stage: 0, seq: 0, tuples: vec![Tuple::new(vec![Value::Int(1)])] },
    ];
    for msg in inject {
        let ev = DhtEvent::AppMessage {
            payload: msg.encode(),
            origin: Contact::for_node(NodeId::new(0)),
        };
        w.at(owner, |dht, pier, net| assert!(pier.on_dht_event(dht, net, &ev)));
    }
    assert_eq!(w.net.total(&classes::PROTOCOL_VIOLATION), 4);
    // The valid install still ran and shipped every `a` posting.
    assert_eq!(w.net.total(&classes::RESULT_TUPLES), FILES as u64);
}
