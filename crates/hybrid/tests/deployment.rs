//! End-to-end hybrid deployment: rare items that Gnutella misses are found
//! through the PIERSearch fallback — the paper's headline §7 result.

use pier_dht::DhtConfig;
use pier_gnutella::{FileMeta, Topology, TopologyConfig};
use pier_hybrid::{deploy, HybridConfig, HybridMsg, HybridUp, RareScheme};
use pier_netsim::{Sim, SimConfig, SimDuration, UniformLatency};

struct TestNet {
    sim: Sim<HybridMsg>,
    deployment: deploy::Deployment,
}

/// A network with a handful of hybrid ultrapeers. One rare file lives on a
/// single leaf; filler and popular files provide background traffic.
fn build(seed: u64, fallback_timeout_s: u64) -> TestNet {
    let cfg = SimConfig::with_seed(seed)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim = Sim::new(cfg);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: 80,
        leaves: 800,
        old_style_fraction: 0.25,
        leaf_ups: 2,
        seed,
    });
    let mut leaf_files: Vec<Vec<FileMeta>> = (0..800)
        .map(|j| {
            let mut v = vec![FileMeta::new(&format!("filler_item_{j}.bin"), 5)];
            if j % 4 == 0 {
                v.push(FileMeta::new("popular_anthem.mp3", 777));
            }
            v
        })
        .collect();
    leaf_files[799].push(FileMeta::new("unicorn_bootleg_1987.mp3", 1987));

    let dcfg = deploy::DeploymentConfig {
        hybrid_ups: 12,
        hybrid: HybridConfig {
            timeout: SimDuration::from_secs(fallback_timeout_s),
            publish_interval: SimDuration::from_millis(500),
            ..Default::default()
        },
        dht: DhtConfig::test(),
    };
    // SAM with a traffic-estimate threshold: publish items seen ≤ 3 times.
    let deployment = deploy::spawn(&mut sim, &topo, leaf_files, &dcfg, |_| RareScheme::sam(3));
    TestNet { sim, deployment }
}

#[test]
fn browse_host_feeds_publisher() {
    let mut net = build(81, 30);
    // BrowseHost replies arrive quickly; publishing is rate-limited at
    // 0.5 s per file, so give it a while.
    net.sim.run_for(SimDuration::from_secs(120));
    let published: u64 = net
        .deployment
        .hybrid_ups
        .iter()
        .map(|&id| net.sim.actor::<HybridUp>(id).files_published)
        .sum();
    assert!(published > 50, "hybrid ultrapeers must publish leaf files, got {published}");
    // Publishing consumed DHT bandwidth (recursive Bamboo-style stores).
    let store = net.sim.metrics().counter("dht.route_store");
    assert!(store.count > 0, "recursive stores must have been routed");
}

#[test]
fn rare_query_falls_through_to_piersearch() {
    let mut net = build(82, 20);
    // Let BrowseHost + publishing index the rare item (on leaf 799, whose
    // ultrapeers may or may not be hybrid — rely on snooping too).
    net.sim.run_for(SimDuration::from_secs(180));

    // Ensure the rare item is somewhere in the DHT: at least one hybrid UP
    // must have published it (leaf 799's BrowseHost or traffic snooping).
    // If not, publish-by-hand through the first hybrid UP's publisher, so
    // the query-path test below stays meaningful.
    let rare_name = "unicorn_bootleg_1987.mp3";
    let rare_leaf = net.deployment.leaves[799];
    let indexed = net.sim.metrics().counter("piersearch.files_published").count > 0;
    if !indexed {
        let up0 = net.deployment.hybrid_ups[0];
        net.sim.with_actor_ctx::<HybridUp, _>(up0, |up, ctx| {
            let mut dnet = pier_dht::CtxNet { ctx };
            let node = &mut up.search;
            node.app.publisher.publish_file(
                &mut node.app.pier,
                &mut node.core,
                &mut dnet,
                rare_name,
                1987,
                rare_leaf,
                6346,
            );
        });
        net.sim.run_for(SimDuration::from_secs(30));
    } else {
        // Make sure the rare item itself got in (BrowseHost covers all
        // leaves of hybrid UPs; leaf 799 might be attached to plain UPs).
        let up0 = net.deployment.hybrid_ups[0];
        net.sim.with_actor_ctx::<HybridUp, _>(up0, |up, ctx| {
            let mut dnet = pier_dht::CtxNet { ctx };
            let node = &mut up.search;
            node.app.publisher.publish_file(
                &mut node.app.pier,
                &mut node.core,
                &mut dnet,
                rare_name,
                1987,
                rare_leaf,
                6346,
            );
        });
        net.sim.run_for(SimDuration::from_secs(30));
    }

    // Issue the hybrid query from a hybrid UP far from the rare leaf.
    let vantage = net.deployment.hybrid_ups[5];
    let qidx = net.sim.with_actor_ctx::<HybridUp, _>(vantage, |up, ctx| {
        up.start_hybrid_query(ctx, "unicorn bootleg 1987")
    });
    net.sim.run_for(SimDuration::from_secs(120));

    let stats = net.sim.actor::<HybridUp>(vantage).stats[qidx].clone();
    assert!(stats.done, "hybrid query must finish");
    if stats.gnutella_hits == 0 {
        // Gnutella missed it → PIERSearch must have been invoked and found it.
        assert!(stats.pier_issued_at.is_some(), "fallback must fire on zero results");
        assert_eq!(stats.pier_items.len(), 1, "PIERSearch must find the rare item");
        assert_eq!(stats.pier_items[0].filename, rare_name);
        assert_eq!(stats.pier_items[0].host, rare_leaf);
        let latency = (stats.pier_first.unwrap() - stats.issued_at).as_secs_f64();
        // Timeout (20s) + DHT query time: an order of magnitude better
        // than never.
        assert!((20.0..60.0).contains(&latency), "fallback latency {latency}");
    } else {
        // Gnutella got lucky (vantage near the rare leaf): fallback must
        // NOT fire.
        assert!(stats.pier_issued_at.is_none());
    }
}

#[test]
fn popular_query_never_needs_the_dht() {
    let mut net = build(83, 10);
    net.sim.run_for(SimDuration::from_secs(30));
    let vantage = net.deployment.hybrid_ups[3];
    let qidx = net.sim.with_actor_ctx::<HybridUp, _>(vantage, |up, ctx| {
        up.start_hybrid_query(ctx, "popular anthem")
    });
    net.sim.run_for(SimDuration::from_secs(60));
    let stats = net.sim.actor::<HybridUp>(vantage).stats[qidx].clone();
    assert!(stats.gnutella_hits > 0, "popular content must be found by flooding");
    assert!(stats.pier_issued_at.is_none(), "hybrid must not waste DHT queries on popular content");
    let first = stats.gnutella_first.expect("has hits");
    assert!((first - stats.issued_at).as_secs_f64() < 5.0);
}

#[test]
fn leaf_queries_get_hybrid_treatment() {
    let mut net = build(84, 10);
    net.sim.run_for(SimDuration::from_secs(60));
    // A leaf attached to a hybrid ultrapeer asks for something nonexistent
    // on Gnutella paths but published in the DHT.
    // The leaf must *query via* the hybrid ultrapeer: its first ultrapeer
    // (the one it sends LeafQuery to) has to be up0, not merely any UP
    // that knows it.
    let up0 = net.deployment.hybrid_ups[0];
    let probe_leaf = *net
        .deployment
        .leaves
        .iter()
        .find(|&&leaf| {
            net.sim.actor::<pier_gnutella::LeafNode>(leaf).core.ultrapeers().first() == Some(&up0)
        })
        .expect("some leaf has the hybrid UP as its primary");
    net.sim.with_actor_ctx::<HybridUp, _>(up0, |up, ctx| {
        let mut dnet = pier_dht::CtxNet { ctx };
        let node = &mut up.search;
        node.app.publisher.publish_file(
            &mut node.app.pier,
            &mut node.core,
            &mut dnet,
            "ghost_release_promo.mp3",
            42,
            probe_leaf,
            6346,
        );
    });
    net.sim.run_for(SimDuration::from_secs(10));

    let qid = net.sim.with_actor_ctx::<pier_gnutella::LeafNode, _>(probe_leaf, |leaf, ctx| {
        let mut gnet = pier_gnutella::CtxGnutellaNet { ctx };
        leaf.core.start_search(&mut gnet, "ghost release promo")
    });
    net.sim.run_for(SimDuration::from_secs(90));

    let leaf = net.sim.actor::<pier_gnutella::LeafNode>(probe_leaf);
    let search = leaf.core.search(qid).expect("registered");
    assert!(search.done, "leaf must hear completion");
    assert_eq!(search.hits.len(), 1, "the DHT-indexed item must reach the leaf");
    assert_eq!(&*search.hits[0].file.name, "ghost_release_promo.mp3");
}

#[test]
fn traced_fallback_emits_pier_and_dht_events() {
    use pier_trace::{TraceHandle, TraceKind, Tracer};
    use std::sync::Arc;

    let mut net = build(85, 10);
    net.sim.run_for(SimDuration::from_secs(60));

    // Index an item that exists nowhere on Gnutella paths, so the traced
    // query is guaranteed to fall through to PIERSearch.
    let up0 = net.deployment.hybrid_ups[0];
    let phantom_host = net.deployment.leaves[3];
    net.sim.with_actor_ctx::<HybridUp, _>(up0, |up, ctx| {
        let mut dnet = pier_dht::CtxNet { ctx };
        let node = &mut up.search;
        node.app.publisher.publish_file(
            &mut node.app.pier,
            &mut node.core,
            &mut dnet,
            "phantom_track.mp3",
            7,
            phantom_host,
            6346,
        );
    });
    net.sim.run_for(SimDuration::from_secs(10));

    let tracer = Arc::new(Tracer::default());
    let vantage = net.deployment.hybrid_ups[7];
    let (qidx, t) = net.sim.with_actor_ctx::<HybridUp, _>(vantage, |up, ctx| {
        up.set_trace(TraceHandle::new(Arc::clone(&tracer)));
        let idx = up.start_hybrid_query(ctx, "phantom track");
        let (guid, rec) = up.gnutella.queries().next().expect("query registered");
        let t = tracer.register(
            guid.0,
            ctx.self_id().index() as u64,
            ctx.now().as_micros(),
            u64::from(pier_gnutella::PROBE_TTL),
            &rec.terms.text(),
        );
        (idx, t)
    });
    net.sim.run_for(SimDuration::from_secs(90));

    let stats = net.sim.actor::<HybridUp>(vantage).stats[qidx].clone();
    assert_eq!(stats.gnutella_hits, 0, "phantom item must miss on Gnutella");
    assert!(stats.pier_issued_at.is_some(), "fallback must fire");

    let events = tracer.sorted_events();
    let count = |k: TraceKind| events.iter().filter(|e| e.kind == k).count();
    assert_eq!(count(TraceKind::PierFallback), 1);
    assert_eq!(count(TraceKind::PierDone), 1);
    assert!(count(TraceKind::DhtLookupStart) >= 1, "fallback lookups attributed");
    assert!(count(TraceKind::DhtHop) >= 1);
    // The fallback's trace scope was cleared afterwards: every DHT event
    // happened on the vantage node (no maintenance bleed-through).
    let me = vantage.index() as u64;
    assert!(events
        .iter()
        .filter(|e| matches!(
            e.kind,
            TraceKind::DhtLookupStart | TraceKind::DhtHop | TraceKind::DhtLookupDone
        ))
        .all(|e| e.node == me));
    // The lookups attributed to the query are the fallback's item fetches:
    // value-kind, and each one completes.
    let of_t = |k: TraceKind| events.iter().filter(move |e| e.trace == t && e.kind == k);
    let done: Vec<u64> = of_t(TraceKind::DhtLookupDone).map(|e| e.m).collect();
    let starts: Vec<_> = of_t(TraceKind::DhtLookupStart).collect();
    assert!(!starts.is_empty(), "item fetches attributed to the query");
    for s in starts {
        assert_eq!(s.m, 0, "value-kind lookup");
        assert!(done.contains(&s.n), "op {} completes", s.n);
    }
    // (Flood-relay legs appear only on nodes carrying a handle — the lab
    // attaches one everywhere; here only the vantage is instrumented.)
    let done_at = events.iter().find(|e| e.kind == TraceKind::PierDone).unwrap().at_us;
    let fb_at = events.iter().find(|e| e.kind == TraceKind::PierFallback).unwrap().at_us;
    assert!(fb_at < done_at, "fallback precedes completion");
}

/// The installed base is Gnutella's own actors. DHT traffic that reaches a
/// stock ultrapeer or leaf is counted under `hybrid.dht_msg_to_plain_node`
/// and dropped: no reply, no other counter. The same deployment's heap
/// accounting covers every node, the stock ones included.
#[test]
fn stock_nodes_count_dht_traffic_and_report_their_heap() {
    use pier_dht::{Contact, CtxNet, DhtMsg, DhtNet, Request};
    use pier_gnutella::{LeafNode, UltrapeerNode};
    use pier_netsim::{Actor, MemAcc, NodeId};

    // One hybrid ultrapeer that neither browses its leaves nor queries:
    // once the leaves' QRP tables are in, nothing else is sent.
    let cfg = SimConfig::with_seed(86)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim = Sim::new(cfg);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: 6,
        leaves: 30,
        old_style_fraction: 0.25,
        leaf_ups: 2,
        seed: 86,
    });
    let leaf_files = (0..30).map(|j| vec![FileMeta::new(&format!("track_{j}.mp3"), 9)]).collect();
    let dcfg = deploy::DeploymentConfig {
        hybrid_ups: 1,
        hybrid: HybridConfig { browse_leaves: false, ..Default::default() },
        dht: DhtConfig::test(),
    };
    let deployment = deploy::spawn(&mut sim, &topo, leaf_files, &dcfg, |_| RareScheme::sam(3));
    sim.run_for(SimDuration::from_secs(5));

    let hybrid = deployment.hybrid_ups[0];
    let ping = DhtMsg::Request { id: 1, from: Contact::for_node(hybrid), body: Request::Ping };
    let send_ping = |sim: &mut Sim<HybridMsg>, dst: NodeId| {
        let before = sim.metrics().snapshot();
        sim.with_actor_ctx::<HybridUp, _>(hybrid, |_, ctx| {
            CtxNet { ctx }.send_dht(dst, ping.clone());
        });
        sim.run_for(SimDuration::from_millis(100));
        sim.metrics().snapshot().diff(&before).counters().collect::<Vec<_>>()
    };
    for dst in [deployment.plain_ups[0], deployment.leaves[0]] {
        let delta = send_ping(&mut sim, dst);
        let names: Vec<(&str, u64)> = delta.iter().map(|(n, c)| (*n, c.count)).collect();
        assert_eq!(
            names,
            [("dht.req.ping", 1), ("hybrid.dht_msg_to_plain_node", 1)],
            "a DHT message to stock node {dst} is its one send and one drop count"
        );
    }

    // `Sim::mem_stats` is the sum of every node's own accounting.
    let mut want = MemAcc::new();
    Actor::<HybridMsg>::mem_stats(sim.actor::<HybridUp>(hybrid), &mut want);
    for &up in &deployment.plain_ups {
        sim.actor::<UltrapeerNode>(up).core.mem_stats(&mut want);
    }
    for &leaf in &deployment.leaves {
        sim.actor::<LeafNode>(leaf).core.mem_stats(&mut want);
    }
    let got = sim.mem_stats().subsystems;
    assert!(want.get("leaf.share") > 0 && want.get("up.topology") > 0);
    assert_eq!(got.iter().collect::<Vec<_>>(), want.iter().collect::<Vec<_>>());
}
