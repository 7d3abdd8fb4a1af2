//! Workspace-level integration tests across the facade crate: cross-crate
//! flows and whole-simulation determinism.

use pier_p2p::dht::{bootstrap, Contact, CtxNet, DhtConfig, DhtCore, DhtMsg, DhtNode};
use pier_p2p::gnutella::{FileMeta, Topology, TopologyConfig};
use pier_p2p::hybrid::{deploy, HybridConfig, HybridUp, RareScheme};
use pier_p2p::netsim::{NodeId, Sim, SimConfig, SimDuration, UniformLatency};
use pier_p2p::piersearch::{IndexMode, PierSearchApp, PierSearchNode};

fn piersearch_net(seed: u64) -> (Sim<DhtMsg>, Vec<NodeId>) {
    let cfg = SimConfig::with_seed(seed)
        .latency(UniformLatency::new(SimDuration::from_millis(15), SimDuration::from_millis(60)));
    let mut sim = Sim::new(cfg);
    let contacts: Vec<Contact> = (0..40).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let ids = contacts
        .iter()
        .map(|c| {
            let mut core = DhtCore::new(DhtConfig::test(), *c);
            bootstrap::fill_table(core.table_mut(), &contacts, 4);
            sim.add_node(DhtNode::new(core, PierSearchApp::new(IndexMode::Inverted), None))
        })
        .collect();
    (sim, ids)
}

/// The facade exposes a full publish→search flow.
#[test]
fn facade_publish_and_search() {
    let (mut sim, ids) = piersearch_net(5);
    sim.with_actor_ctx::<PierSearchNode, _>(ids[3], |node, ctx| {
        let mut net = CtxNet { ctx };
        let host = net.ctx.self_id();
        node.app
            .publisher
            .publish_file(
                &mut node.app.pier,
                &mut node.core,
                &mut net,
                "integration_test_track.mp3",
                123,
                host,
                6346,
            )
            .unwrap();
    });
    sim.run_for(SimDuration::from_secs(15));
    let sid = sim.with_actor_ctx::<PierSearchNode, _>(ids[30], |node, ctx| {
        let mut net = CtxNet { ctx };
        node.app
            .engine
            .start_search(&mut node.app.pier, &mut node.core, &mut net, "integration track")
            .unwrap()
    });
    sim.run_for(SimDuration::from_secs(15));
    let s = sim.actor::<PierSearchNode>(ids[30]).app.engine.search(sid);
    let s = s.expect("the search finished");
    assert_eq!(s.items.len(), 1);
    assert_eq!(s.items[0].filename, "integration_test_track.mp3");
}

/// Bit-level determinism: the same seed must produce identical traffic
/// totals and results; a different seed must not.
#[test]
fn whole_simulation_determinism() {
    let run = |seed: u64| -> (u64, u64, usize) {
        let (mut sim, ids) = piersearch_net(seed);
        for i in 0..10u64 {
            sim.with_actor_ctx::<PierSearchNode, _>(ids[(i as usize) % 40], |node, ctx| {
                let mut net = CtxNet { ctx };
                let host = net.ctx.self_id();
                node.app
                    .publisher
                    .publish_file(
                        &mut node.app.pier,
                        &mut node.core,
                        &mut net,
                        &format!("determinism_check_{i}.mp3"),
                        i,
                        host,
                        6346,
                    )
                    .unwrap();
            });
        }
        sim.run_for(SimDuration::from_secs(20));
        let sid = sim.with_actor_ctx::<PierSearchNode, _>(ids[39], |node, ctx| {
            let mut net = CtxNet { ctx };
            node.app
                .engine
                .start_search(&mut node.app.pier, &mut node.core, &mut net, "determinism check")
                .unwrap()
        });
        sim.run_for(SimDuration::from_secs(20));
        let items =
            sim.actor::<PierSearchNode>(ids[39]).app.engine.search(sid).unwrap().items.len();
        (sim.metrics().total_messages, sim.metrics().total_bytes, items)
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a, b, "same seed ⇒ identical run");
    assert_eq!(a.2, 10, "all ten files found");
    let c = run(5678);
    assert_ne!((a.0, a.1), (c.0, c.1), "different seed ⇒ different traffic");
}

/// Hybrid deployment through the facade: the full §7 stack boots and
/// publishes.
#[test]
fn facade_hybrid_deployment_boots() {
    let cfg = SimConfig::with_seed(99)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(70)));
    let mut sim = Sim::new(cfg);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: 40,
        leaves: 400,
        old_style_fraction: 0.3,
        leaf_ups: 2,
        seed: 99,
    });
    let leaf_files: Vec<Vec<FileMeta>> =
        (0..400).map(|j| vec![FileMeta::new(&format!("share_{j}.mp3"), j as u64)]).collect();
    let deployment = deploy::spawn(
        &mut sim,
        &topo,
        leaf_files,
        &deploy::DeploymentConfig {
            hybrid_ups: 8,
            hybrid: HybridConfig {
                publish_interval: SimDuration::from_millis(300),
                ..Default::default()
            },
            dht: DhtConfig::test(),
        },
        |_| RareScheme::sam(2),
    );
    sim.run_for(SimDuration::from_secs(120));
    let published: u64 =
        deployment.hybrid_ups.iter().map(|&id| sim.actor::<HybridUp>(id).files_published).sum();
    assert!(published > 20, "BrowseHost → scheme → publisher pipeline must flow: {published}");
    // Rate limiting held: no node published faster than one file per 300ms.
    for &id in &deployment.hybrid_ups {
        let n = sim.actor::<HybridUp>(id).files_published;
        assert!(n <= 120_000 / 300 + 1, "rate limit violated: {n}");
    }
}
