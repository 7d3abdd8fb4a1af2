//! End-to-end PIERSearch: publish a corpus into a simulated overlay, then
//! run keyword searches in both index modes and check exact results.

use pier_dht::{bootstrap, Contact, DhtConfig, DhtCore, DhtMsg, DhtNode};
use pier_netsim::{ConstantLatency, NodeId, Sim, SimConfig, SimDuration};
use pier_qp::QueryId;
use piersearch::{IndexMode, ItemRecord, PierSearchApp, PierSearchNode};

fn build(n: u32, seed: u64, mode: IndexMode) -> (Sim<DhtMsg>, Vec<NodeId>) {
    let cfg = SimConfig::with_seed(seed).latency(ConstantLatency(SimDuration::from_millis(15)));
    let mut sim = Sim::new(cfg);
    let contacts: Vec<Contact> = (0..n).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let mut ids = Vec::new();
    for c in &contacts {
        let mut core = DhtCore::new(DhtConfig::test(), *c);
        bootstrap::fill_table(core.table_mut(), &contacts, 4);
        ids.push(sim.add_node(DhtNode::new(core, PierSearchApp::new(mode), None)));
    }
    (sim, ids)
}

fn publish(sim: &mut Sim<DhtMsg>, from: NodeId, name: &str, size: u64) {
    sim.with_actor_ctx::<PierSearchNode, _>(from, |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        let host = net.ctx.self_id();
        node.app
            .publisher
            .publish_file(&mut node.app.pier, &mut node.core, &mut net, name, size, host, 6346)
            .expect("indexable filename");
    });
}

fn search(sim: &mut Sim<DhtMsg>, from: NodeId, query: &str) -> QueryId {
    sim.with_actor_ctx::<PierSearchNode, _>(from, |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.app
            .engine
            .start_search(&mut node.app.pier, &mut node.core, &mut net, query)
            .expect("searchable query")
    })
}

fn corpus() -> Vec<(&'static str, u64)> {
    vec![
        ("Led_Zeppelin-Stairway_To_Heaven.mp3", 9_000_001),
        ("Led_Zeppelin-Kashmir.mp3", 8_000_002),
        ("Pink_Floyd-Wish_You_Were_Here.mp3", 7_000_003),
        ("Led_Astray-Documentary.avi", 700_000_004),
        ("Stairway_Covers_Collection.zip", 5_000_005),
    ]
}

fn run_mode(mode: IndexMode, seed: u64) {
    let (mut sim, ids) = build(50, seed, mode);
    for (i, (name, size)) in corpus().into_iter().enumerate() {
        publish(&mut sim, ids[i * 7 % 50], name, size);
    }
    sim.run_for(SimDuration::from_secs(20));

    // Two-term conjunction.
    let sid = search(&mut sim, ids[44], "led zeppelin");
    // Single term.
    let sid2 = search(&mut sim, ids[45], "stairway");
    // No match.
    let sid3 = search(&mut sim, ids[46], "nonexistent keyword");
    sim.run_for(SimDuration::from_secs(30));

    let names = |sim: &Sim<DhtMsg>, node: NodeId, sid: QueryId| -> Vec<String> {
        let s = sim.actor::<PierSearchNode>(node).app.engine.search(sid).unwrap();
        assert!(s.done, "search must finish");
        let mut v: Vec<String> = s.items.iter().map(|i| i.filename.clone()).collect();
        v.sort();
        v
    };

    assert_eq!(
        names(&sim, ids[44], sid),
        vec!["Led_Zeppelin-Kashmir.mp3", "Led_Zeppelin-Stairway_To_Heaven.mp3"],
        "mode {mode:?}"
    );
    assert_eq!(
        names(&sim, ids[45], sid2),
        vec!["Led_Zeppelin-Stairway_To_Heaven.mp3", "Stairway_Covers_Collection.zip"],
        "mode {mode:?}"
    );
    assert_eq!(names(&sim, ids[46], sid3), Vec::<String>::new(), "mode {mode:?}");

    // Item metadata survives the round trip.
    let s = sim.actor::<PierSearchNode>(ids[44]).app.engine.search(sid).unwrap();
    for item in &s.items {
        let expect = corpus().into_iter().find(|(n, _)| *n == item.filename).expect("known file");
        assert_eq!(item.filesize, expect.1);
        assert_eq!(item.port, 6346);
        let rec = ItemRecord::new(&item.filename, item.filesize, item.host, item.port);
        assert_eq!(rec.file_id, item.file_id, "fileID must be the canonical hash");
    }
}

#[test]
fn shj_mode_end_to_end() {
    run_mode(IndexMode::Inverted, 61);
}

#[test]
fn inverted_cache_mode_end_to_end() {
    run_mode(IndexMode::InvertedCache, 62);
}

#[test]
fn stop_word_only_query_rejected() {
    let (mut sim, ids) = build(20, 63, IndexMode::Inverted);
    sim.run_for(SimDuration::from_secs(2));
    let none = sim.with_actor_ctx::<PierSearchNode, _>(ids[3], |node, ctx| {
        let mut net = pier_dht::CtxNet { ctx };
        node.app.engine.start_search(&mut node.app.pier, &mut node.core, &mut net, "the of mp3")
    });
    assert!(none.is_none());
}

#[test]
fn inverted_cache_ships_fewer_bytes_per_query() {
    // The paper's §7 comparison: ~850 B per InvertedCache query vs ~20 KB
    // with the distributed join (for popular keywords). Reproduce the
    // direction: query the same corpus in both modes and compare the
    // engine-traffic bytes (installs + batches), excluding publishing.
    // Pick a popular keyword pair whose posting-list sites live on
    // *different* nodes ("britney"/"spears" happen to share their first six
    // key bits and colocate at this network size, which would degenerate
    // the distributed join into a local one).
    let contacts: Vec<Contact> = (0..60).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let owner = |term: &str| {
        let key =
            piersearch::inverted_table().publish_key_for(&pier_qp::Value::Str(term.to_string()));
        contacts.iter().min_by_key(|c| c.key.distance(&key)).unwrap().node
    };
    let (t1, t2) = [("britney", "spears"), ("madonna", "vogue"), ("metallica", "unforgiven")]
        .into_iter()
        .find(|(a, b)| owner(a) != owner(b))
        .expect("some pair must split across nodes");

    let mut per_mode = Vec::new();
    for (mode, seed) in [(IndexMode::Inverted, 71), (IndexMode::InvertedCache, 72)] {
        let (mut sim, ids) = build(60, seed, mode);
        // A popular keyword pair: many files share both terms.
        for i in 0..120 {
            publish(
                &mut sim,
                ids[i % 40],
                &format!("{t1}_{t2}_track_{i:03}.mp3"),
                1_000 + i as u64,
            );
        }
        sim.run_for(SimDuration::from_secs(30));
        let before = sim.metrics().counter_prefix_sum("dht.route").bytes
            + sim.metrics().counter_prefix_sum("dht.app_direct").bytes;
        let sid = search(&mut sim, ids[55], &format!("{t1} {t2}"));
        sim.run_for(SimDuration::from_secs(30));
        let after = sim.metrics().counter_prefix_sum("dht.route").bytes
            + sim.metrics().counter_prefix_sum("dht.app_direct").bytes;
        let s = sim.actor::<PierSearchNode>(ids[55]).app.engine.search(sid).unwrap();
        assert_eq!(s.items.len(), 120, "mode {mode:?} must find all tracks");
        per_mode.push(after - before);
    }
    let (shj, cache) = (per_mode[0], per_mode[1]);
    assert!(cache < shj, "InvertedCache must ship fewer engine bytes: cache={cache} shj={shj}");
}

/// A search started inside a DHT trace scope keeps that attribution: the
/// item fetches it issues once matches stream back, long after the caller
/// closed the scope, are value-kind lookups charged to the same trace.
#[test]
fn traced_search_attributes_its_item_fetches() {
    use pier_trace::{TraceHandle, TraceKind, Tracer};
    use std::sync::Arc;

    let (mut sim, ids) = build(30, 64, IndexMode::InvertedCache);
    publish(&mut sim, ids[2], "Traced_Rarity_Live.mp3", 4242);
    sim.run_for(SimDuration::from_secs(20));

    let searcher = ids[17];
    let tracer = Arc::new(Tracer::default());
    let t = tracer.register(0xFE7C, searcher.index() as u64, 0, 0, "traced rarity");
    let sid = sim.with_actor_ctx::<PierSearchNode, _>(searcher, |node, ctx| {
        node.core.set_trace(TraceHandle::new(Arc::clone(&tracer)));
        let mut net = pier_dht::CtxNet { ctx };
        node.core.trace_scope(t);
        let sid = node.app.engine.start_search(
            &mut node.app.pier,
            &mut node.core,
            &mut net,
            "traced rarity",
        );
        node.core.clear_trace_scope();
        sid.expect("searchable query")
    });
    sim.run_for(SimDuration::from_secs(30));
    let s = sim.actor::<PierSearchNode>(searcher).app.engine.search(sid).unwrap();
    assert_eq!(s.items.len(), 1, "the search finds the file");

    let me = searcher.index() as u64;
    let events: Vec<_> = tracer.sorted_events().into_iter().filter(|e| e.node == me).collect();
    let of_t = |k: TraceKind| events.iter().filter(move |e| e.trace == t && e.kind == k);
    let done: Vec<u64> = of_t(TraceKind::DhtLookupDone).map(|e| e.m).collect();
    let starts: Vec<_> = of_t(TraceKind::DhtLookupStart).collect();
    assert!(!starts.is_empty(), "item fetches attributed to the search's trace");
    for s in starts {
        assert_eq!(s.m, 0, "value-kind lookup");
        assert!(done.contains(&s.n), "op {} completes", s.n);
    }
}

/// The §5 soft-state loop: with a `refresh_interval`, the Publisher
/// re-ships every published file's tuple set from the node's maintenance
/// tick — counted by `piersearch.soft_refresh_files` — and the refreshed
/// postings stay searchable. Revival re-arms the tick, so the loop also
/// survives the publisher churning out and back.
#[test]
fn soft_state_refresh_loop_republishes() {
    let (mut sim, ids) = build(30, 91, IndexMode::Inverted);
    let publisher = ids[3];
    sim.with_actor_ctx::<PierSearchNode, _>(publisher, |node, _| {
        node.app.publisher.refresh_interval = Some(SimDuration::from_secs(10));
    });
    publish(&mut sim, publisher, "Rare_Soft_State_Bootleg.mp3", 1987);
    assert_eq!(sim.actor::<PierSearchNode>(publisher).app.publisher.soft_state_len(), 1);

    sim.run_for(SimDuration::from_secs(35));
    let refreshed = sim.metrics().counter("piersearch.soft_refresh_files").count;
    assert!((3..=4).contains(&refreshed), "3 intervals elapsed, saw {refreshed} refreshes");

    // Churn the publisher across one interval: the loop resumes on revival.
    sim.set_down(publisher);
    sim.run_for(SimDuration::from_secs(30));
    let while_down = sim.metrics().counter("piersearch.soft_refresh_files").count;
    assert_eq!(while_down, refreshed, "no refreshes while the publisher is down");
    sim.set_up(publisher);
    sim.run_for(SimDuration::from_secs(25));
    let after = sim.metrics().counter("piersearch.soft_refresh_files").count;
    assert!(after > while_down, "revival must re-arm the refresh loop");

    // And the posting is searchable end-to-end.
    let sid = search(&mut sim, ids[20], "rare bootleg");
    sim.run_for(SimDuration::from_secs(30));
    let s = sim.actor::<PierSearchNode>(ids[20]).app.engine.search(sid).unwrap();
    assert_eq!(s.items.len(), 1);
    assert_eq!(s.items[0].filename, "Rare_Soft_State_Bootleg.mp3");
}
