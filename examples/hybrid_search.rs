//! Hybrid search in action: a Gnutella network with a handful of upgraded
//! hybrid ultrapeers. A popular query resolves by flooding; a rare query
//! misses on Gnutella, falls through to PIERSearch after the timeout, and
//! comes back from the DHT index — the paper's §7 story end to end.
//!
//! ```text
//! cargo run --release --example hybrid_search
//! ```

use pier_p2p::dht::DhtConfig;
use pier_p2p::gnutella::{FileMeta, Topology, TopologyConfig};
use pier_p2p::hybrid::{deploy, HybridConfig, HybridUp, RareScheme};
use pier_p2p::netsim::{Sim, SimConfig, SimDuration, UniformLatency};

fn main() {
    let cfg = SimConfig::with_seed(7)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim = Sim::new(cfg);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: 240,
        leaves: 2_400,
        old_style_fraction: 0.25,
        leaf_ups: 2,
        seed: 7,
    });

    // Shares: popular_anthem on a quarter of the leaves; one unicorn.
    let mut leaf_files: Vec<Vec<FileMeta>> = (0..2_400)
        .map(|j| {
            let mut v = vec![FileMeta::new(&format!("background_{j}.bin"), 1)];
            if j % 4 == 0 {
                v.push(FileMeta::new("popular_anthem.mp3", 777));
            }
            v
        })
        .collect();
    leaf_files[2_399].push(FileMeta::new("unicorn_demo_recording_1987.mp3", 1987));

    let deployment = deploy::spawn(
        &mut sim,
        &topo,
        leaf_files,
        &deploy::DeploymentConfig {
            hybrid_ups: 15,
            hybrid: HybridConfig {
                timeout: SimDuration::from_secs(10),
                publish_interval: SimDuration::from_millis(500),
                ..Default::default()
            },
            dht: DhtConfig::test(),
        },
        // SAM: publish items seen at most 3 times in observed traffic.
        |_| RareScheme::sam(3),
    );

    // Let BrowseHost gather leaf shares and the publisher index rare items.
    println!("indexing phase (BrowseHost + rate-limited publishing)...");
    sim.run_for(SimDuration::from_secs(180));
    let published: u64 =
        deployment.hybrid_ups.iter().map(|&id| sim.actor::<HybridUp>(id).files_published).sum();
    println!("  hybrid ultrapeers published {published} rare files into the DHT");

    // The unicorn lives on a leaf served by plain ultrapeers; pretend a
    // far-away hybrid ultrapeer snooped it in earlier traffic and indexed
    // it (the paper's QRS path).
    let rare_leaf = deployment.leaves[2_399];
    sim.with_actor_ctx::<HybridUp, _>(deployment.hybrid_ups[0], |up, ctx| {
        let mut dnet = pier_p2p::dht::CtxNet { ctx };
        let node = &mut up.search;
        node.app.publisher.publish_file(
            &mut node.app.pier,
            &mut node.core,
            &mut dnet,
            "unicorn_demo_recording_1987.mp3",
            1987,
            rare_leaf,
            6346,
        );
    });
    sim.run_for(SimDuration::from_secs(10));

    // A popular query: flooding answers it, the DHT is never consulted.
    let vantage = deployment.hybrid_ups[4];
    let q_pop = sim.with_actor_ctx::<HybridUp, _>(vantage, |up, ctx| {
        up.start_hybrid_query(ctx, "popular anthem")
    });
    // A rare query: one replica in a 10,000-node network.
    let q_rare = sim.with_actor_ctx::<HybridUp, _>(vantage, |up, ctx| {
        up.start_hybrid_query(ctx, "unicorn demo recording")
    });
    sim.run_for(SimDuration::from_secs(90));

    let up = sim.actor::<HybridUp>(vantage);
    let pop = &up.stats[q_pop];
    let rare = &up.stats[q_rare];

    println!(
        "\npopular query: {} Gnutella hits, PIER used: {}",
        pop.gnutella_hits,
        pop.pier_issued_at.is_some()
    );
    if let Some(t) = pop.gnutella_first {
        println!("  first result after {:.1}s (flooding)", (t - pop.issued_at).as_secs_f64());
    }

    println!("\nrare query: {} Gnutella hits", rare.gnutella_hits);
    if rare.gnutella_hits == 0 {
        println!("  Gnutella found nothing; fell through to PIERSearch");
        for item in &rare.pier_items {
            println!("  DHT index answered: {} shared by {}", item.filename, item.host);
        }
        if let Some(t) = rare.pier_first {
            println!(
                "  total latency {:.1}s (timeout {:.0}s + DHT query)",
                (t - rare.issued_at).as_secs_f64(),
                10.0
            );
        }
    } else {
        println!("  (flooding got lucky this time — rerun with another seed)");
    }
}
