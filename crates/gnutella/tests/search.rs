//! End-to-end search behaviour in a spawned Gnutella network: the
//! popular-fast / rare-slow asymmetry that motivates the whole paper.

use pier_gnutella::{
    spawn, FileMeta, FileStore, GnutellaMsg, LeafCore, LeafNode, QueryOrigin, Topology,
    TopologyConfig, UltrapeerConfig, UltrapeerCore, UltrapeerNode, LEAF_SEARCH_DEADLINE,
};
use pier_netsim::{Actor, Ctx, NodeId, Sim, SimConfig, SimDuration, TimerToken, UniformLatency};

/// A network where `popular.mp3` has one replica per 3 leaves and
/// `rare_gem.mp3` exactly one replica placed far from the querier.
fn build_network(
    seed: u64,
    ups: usize,
    leaves: usize,
) -> (Sim<GnutellaMsg>, pier_gnutella::GnutellaHandles) {
    let cfg = SimConfig::with_seed(seed)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim = Sim::new(cfg);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: ups,
        leaves,
        old_style_fraction: 0.25,
        leaf_ups: 2,
        seed,
    });
    let up_files = vec![Vec::new(); ups];
    let mut leaf_files: Vec<Vec<FileMeta>> = (0..leaves)
        .map(|j| {
            let mut files = vec![FileMeta::new(&format!("filler_{j}.bin"), 10)];
            if j % 3 == 0 {
                files.push(FileMeta::new("popular_hit_song.mp3", 4000));
            }
            files
        })
        .collect();
    // One rare replica, on the very last leaf.
    leaf_files[leaves - 1].push(FileMeta::new("rare_gem_recording.mp3", 999));
    let handles = spawn(&mut sim, &topo, up_files, leaf_files);
    (sim, handles)
}

#[test]
fn popular_query_reaches_target_fast() {
    let (mut sim, handles) = build_network(31, 40, 800);
    sim.run_for(SimDuration::from_secs(2)); // QRP propagation

    let vantage = handles.ups[7];
    let guid = sim.with_actor_ctx::<UltrapeerNode, _>(vantage, |up, ctx| {
        let mut net = pier_gnutella::CtxGnutellaNet { ctx };
        up.core.start_query(&mut net, "popular hit song", QueryOrigin::Driver)
    });
    sim.run_for(SimDuration::from_secs(120));

    let record = sim.actor::<UltrapeerNode>(vantage).core.query_record(guid).unwrap().clone();
    assert!(record.finished);
    assert!(
        record.hits.len() >= record.probes_sent as usize || record.hits.len() >= 150,
        "popular content must return plenty of results, got {}",
        record.hits.len()
    );
    let first = record.first_hit_at.expect("popular query gets hits");
    let latency = (first - record.issued_at).as_secs_f64();
    assert!(latency < 5.0, "popular first hit should be fast, took {latency}s");
    // Every hit really matches.
    for h in &record.hits {
        assert_eq!(&*h.file.name, "popular_hit_song.mp3");
    }
}

#[test]
fn rare_query_finds_single_replica_slowly_or_never() {
    // Large enough that the TTL-1 probe covers ~10% of ultrapeers: rare
    // items must usually wait for paced deep probes (or be missed).
    let (mut sim, handles) = build_network(32, 120, 1500);
    sim.run_for(SimDuration::from_secs(2));

    // Query from every 15th ultrapeer; compute how long rare lookups take.
    let mut latencies = Vec::new();
    let mut misses = 0;
    let vantages: Vec<NodeId> = handles.ups.iter().copied().step_by(15).collect();
    let mut guids = Vec::new();
    for &v in &vantages {
        let guid = sim.with_actor_ctx::<UltrapeerNode, _>(v, |up, ctx| {
            let mut net = pier_gnutella::CtxGnutellaNet { ctx };
            up.core.start_query(&mut net, "rare gem recording", QueryOrigin::Driver)
        });
        guids.push((v, guid));
    }
    sim.run_for(SimDuration::from_secs(240));

    for (v, guid) in guids {
        let record = sim.actor::<UltrapeerNode>(v).core.query_record(guid).unwrap().clone();
        assert!(record.finished, "dynamic query must terminate");
        match record.first_hit_at {
            Some(t) => {
                // Replicas are unique: at most one distinct host.
                let hosts: std::collections::HashSet<_> =
                    record.hits.iter().map(|h| h.host).collect();
                assert_eq!(hosts.len(), 1);
                latencies.push((t - record.issued_at).as_secs_f64());
            }
            None => misses += 1,
        }
    }
    // The whole point of the paper: rare items are slow and/or missed.
    let found = latencies.len();
    assert!(found + misses == vantages.len());
    if !latencies.is_empty() {
        let avg = latencies.iter().sum::<f64>() / latencies.len() as f64;
        assert!(
            avg > 1.0 || misses > 0,
            "rare lookups should be slow or lossy (avg {avg}s, misses {misses})"
        );
    }
}

#[test]
fn leaf_issued_search_streams_results() {
    let (mut sim, handles) = build_network(33, 30, 600);
    sim.run_for(SimDuration::from_secs(2));

    let leaf = handles.leaves[5];
    let qid = sim.with_actor_ctx::<LeafNode, _>(leaf, |node, ctx| {
        node.start_search(ctx, "popular hit song")
    });
    // Past the search's deadline: the leaf's timer fires on an ended search.
    sim.run_for(SimDuration::from_secs(150));

    let node = sim.actor::<LeafNode>(leaf);
    let s = node.core.search(qid).unwrap();
    assert!(s.done, "ultrapeer must report completion to the leaf");
    assert!(s.ended_at.is_some_and(|at| at < s.issued_at + LEAF_SEARCH_DEADLINE), "{s:?}");
    assert!(!s.hits.is_empty(), "popular content must be found");
    assert!(s.first_hit_at.is_some());
    assert_eq!(sim.metrics().counter("gnutella.leaf_search_timeout").count, 0);
}

/// A leaf without the deadline's code paths: no timer handler and no
/// teardown.
struct PlainLeaf(LeafCore);

impl Actor<GnutellaMsg> for PlainLeaf {
    fn on_start(&mut self, ctx: &mut dyn Ctx<GnutellaMsg>) {
        self.0.publish_qrp(&mut pier_gnutella::CtxGnutellaNet { ctx });
    }
    fn on_message(&mut self, ctx: &mut dyn Ctx<GnutellaMsg>, from: NodeId, msg: GnutellaMsg) {
        self.0.on_message(&mut pier_gnutella::CtxGnutellaNet { ctx }, from, msg);
    }
    fn on_timer(&mut self, _ctx: &mut dyn Ctx<GnutellaMsg>, _token: TimerToken) {}
}

/// Two ultrapeers with three leaves each; one driver query that reaches
/// the leaves, and every leaf taken down and revived mid-run. The leaves
/// never search, so they arm no timer and write no metric of their own:
/// the run's metrics and event counts are those of leaves without the
/// deadline's code paths.
#[test]
fn a_leaf_that_never_searches_arms_no_timer_and_moves_no_metric() {
    fn run<L: Actor<GnutellaMsg> + Send + 'static>(
        leaf: impl Fn(LeafCore) -> L,
    ) -> (pier_netsim::MetricsSnapshot, pier_netsim::EventStats) {
        let cfg = SimConfig::with_seed(36).latency(UniformLatency::new(
            SimDuration::from_millis(20),
            SimDuration::from_millis(80),
        ));
        let mut sim = Sim::new(cfg);
        let (ups, leaves): (Vec<NodeId>, Vec<NodeId>) =
            ((0..2).map(NodeId::new).collect(), (2..8).map(NodeId::new).collect());
        for (i, &up) in ups.iter().enumerate() {
            let mut core = UltrapeerCore::new(UltrapeerConfig::default(), FileStore::default());
            core.set_neighbors(vec![ups[1 - i]]);
            for &l in leaves.iter().filter(|l| l.index() % 2 == i) {
                core.add_leaf(l);
            }
            assert_eq!(sim.add_node(UltrapeerNode::new(core)), up);
        }
        for &l in &leaves {
            let share = FileStore::new(vec![FileMeta::new(&format!("shared_song_{l:?}.mp3"), 3)]);
            let mut core = LeafCore::new(share);
            core.set_ultrapeers(vec![ups[l.index() % 2]]);
            assert_eq!(sim.add_node(leaf(core)), l);
        }
        sim.run_for(SimDuration::from_secs(2));
        sim.with_actor_ctx::<UltrapeerNode, _>(ups[0], |up, ctx| {
            let mut net = pier_gnutella::CtxGnutellaNet { ctx };
            up.core.start_query(&mut net, "shared song", QueryOrigin::Driver)
        });
        sim.run_for(SimDuration::from_secs(10));
        for &l in &leaves {
            sim.set_down(l);
        }
        sim.run_for(SimDuration::from_secs(5));
        for &l in &leaves {
            sim.set_up(l);
        }
        sim.run_for(LEAF_SEARCH_DEADLINE + LEAF_SEARCH_DEADLINE);
        (sim.metrics().snapshot(), sim.event_stats())
    }
    let (stock, stock_events) = run(LeafNode::new);
    let (plain, plain_events) = run(PlainLeaf);
    assert!(stock.counter("gnutella.leaf_matches").count > 0, "the query reached the leaves");
    assert_eq!(stock, plain);
    assert_eq!(stock_events, plain_events);
    assert_eq!(stock.counter("gnutella.leaf_search_timeout").count, 0);
}

/// Links stay as wired through a crash: a leaf whose only home ultrapeer
/// goes down cannot be found until that ultrapeer revives, and is found
/// again after, with nothing rewired in between (`end_session` on the way
/// down, `on_revive` re-arming the tick on the way up).
#[test]
fn a_revived_home_ultrapeer_relays_to_its_leaves_again() {
    let cfg = SimConfig::with_seed(37)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim = Sim::new(cfg);
    let (ups, leaves) = (8, 40);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: ups,
        leaves,
        old_style_fraction: 0.25,
        leaf_ups: 1,
        seed: 37,
    });
    let mut leaf_files: Vec<Vec<FileMeta>> =
        (0..leaves).map(|j| vec![FileMeta::new(&format!("filler_{j}.bin"), 10)]).collect();
    leaf_files[leaves - 1].push(FileMeta::new("lone_bootleg_take.mp3", 7));
    let handles = spawn(&mut sim, &topo, vec![Vec::new(); ups], leaf_files);
    let holder = handles.leaves[leaves - 1];
    let &[home] = sim.actor::<LeafNode>(holder).core.ultrapeers() else {
        panic!("one home per leaf")
    };
    let querier = sim.actor::<UltrapeerNode>(home).core.neighbors()[0];
    sim.run_for(SimDuration::from_secs(2)); // QRP propagation

    let finds = |sim: &mut Sim<GnutellaMsg>| {
        let guid = sim.with_actor_ctx::<UltrapeerNode, _>(querier, |up, ctx| {
            let mut net = pier_gnutella::CtxGnutellaNet { ctx };
            up.core.start_query(&mut net, "lone bootleg take", QueryOrigin::Driver)
        });
        sim.run_for(SimDuration::from_secs(120));
        let record = sim.actor::<UltrapeerNode>(querier).core.query_record(guid).unwrap();
        assert!(record.finished);
        record.hits.iter().any(|h| h.host == holder)
    };
    assert!(finds(&mut sim), "found before the crash");
    sim.set_down(home);
    assert!(!finds(&mut sim), "unreachable while its only home is down");
    sim.set_up(home);
    assert!(finds(&mut sim), "found again after revival");
    assert_eq!(sim.actor::<LeafNode>(holder).core.ultrapeers(), [home]);
    assert!(sim.actor::<UltrapeerNode>(home).core.leaves().any(|l| l == holder));
}

#[test]
fn flood_message_budget_is_bounded_by_duplicate_suppression() {
    let (mut sim, handles) = build_network(34, 40, 400);
    sim.run_for(SimDuration::from_secs(2));
    let before = sim.metrics().counter("gnutella.query").count;

    sim.with_actor_ctx::<UltrapeerNode, _>(handles.ups[0], |up, ctx| {
        let mut net = pier_gnutella::CtxGnutellaNet { ctx };
        up.core.start_query(&mut net, "no such thing anywhere", QueryOrigin::Driver)
    });
    sim.run_for(SimDuration::from_secs(200));

    let sent = sim.metrics().counter("gnutella.query").count - before;
    let dupes = sim.metrics().counter("gnutella.duplicate_query").count;
    // With 40 ultrapeers, total query transmissions are bounded by
    // (probes + relays); each node relays a GUID at most once, so sends are
    // at most N * max_degree + probe volume.
    assert!(sent > 40, "the query must actually flood, sent {sent}");
    assert!(sent < 40 * 40, "duplicate suppression must bound the flood, sent {sent}");
    assert!(dupes > 0, "redundant paths must produce (suppressed) duplicates");
}
