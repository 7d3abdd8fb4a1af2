//! Quickstart: a 60-node PIERSearch overlay — publish files, run keyword
//! searches in both index modes, inspect the results and the traffic.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pier_p2p::dht::{bootstrap, Contact, CtxNet, DhtConfig, DhtCore, DhtMsg, DhtNode};
use pier_p2p::netsim::{NodeId, Sim, SimConfig, SimDuration, UniformLatency};
use pier_p2p::piersearch::{IndexMode, PierSearchApp, PierSearchNode};

fn build(mode: IndexMode) -> (Sim<DhtMsg>, Vec<NodeId>) {
    let cfg = SimConfig::with_seed(42)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim = Sim::new(cfg);
    // Warm-started overlay: 60 nodes with filled routing tables (a
    // long-running DHT, like the paper's Bamboo deployment).
    let contacts: Vec<Contact> = (0..60).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let ids = contacts
        .iter()
        .map(|c| {
            let mut core = DhtCore::new(DhtConfig::test(), *c);
            bootstrap::fill_table(core.table_mut(), &contacts, 4);
            sim.add_node(DhtNode::new(core, PierSearchApp::new(mode), None))
        })
        .collect();
    (sim, ids)
}

fn main() {
    let mode = IndexMode::Inverted; // try IndexMode::InvertedCache too
    let (mut sim, ids) = build(mode);

    // Publish a few files from scattered nodes. Each file becomes an Item
    // tuple plus one Inverted(keyword, fileID) posting per keyword.
    let library = [
        ("Led_Zeppelin-Stairway_To_Heaven.mp3", 9_400_000u64),
        ("Led_Zeppelin-Kashmir_live_1975.mp3", 11_000_000),
        ("Miles_Davis-So_What.mp3", 8_100_000),
        ("Rare_Basement_Tapes_Bootleg.mp3", 3_333_333),
    ];
    for (i, (name, size)) in library.iter().enumerate() {
        let publisher = ids[7 * (i + 1)];
        sim.with_actor_ctx::<PierSearchNode, _>(publisher, |node, ctx| {
            let mut net = CtxNet { ctx };
            let host = net.ctx.self_id();
            let stats = node
                .app
                .publisher
                .publish_file(&mut node.app.pier, &mut node.core, &mut net, name, *size, host, 6346)
                .expect("indexable");
            println!(
                "published {name} from {host}: {} tuples, {} keywords, {} value bytes",
                stats.tuples, stats.keywords, stats.value_bytes
            );
        });
    }
    sim.run_for(SimDuration::from_secs(20));

    // Search from an unrelated node: a two-term conjunction compiles to a
    // distributed symmetric-hash-join chain across the keyword sites.
    let searcher = ids[55];
    let sid = sim.with_actor_ctx::<PierSearchNode, _>(searcher, |node, ctx| {
        let mut net = CtxNet { ctx };
        node.app
            .engine
            .start_search(&mut node.app.pier, &mut node.core, &mut net, "led zeppelin")
            .expect("searchable")
    });
    sim.run_for(SimDuration::from_secs(20));

    let node = sim.actor::<PierSearchNode>(searcher);
    let search = node.app.engine.search(sid);
    println!("\nsearch 'led zeppelin' from {searcher}: done={}", search.is_some());
    let search = search.expect("finished");
    for item in &search.items {
        println!(
            "  {} ({} bytes) shared by {} port {}",
            item.filename, item.filesize, item.host, item.port
        );
    }
    assert_eq!(search.items.len(), 2);

    println!("\ntraffic summary:\n{}", sim.metrics());
}
