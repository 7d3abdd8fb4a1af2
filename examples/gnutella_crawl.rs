//! Crawl a simulated Gnutella network and analyze its flooding overhead —
//! the §4.1 measurement study in miniature.
//!
//! ```text
//! cargo run --release --example gnutella_crawl
//! ```

use pier_p2p::gnutella::floodstats::{average_flood_curve, marginal_cost};
use pier_p2p::gnutella::{spawn, Crawler, Topology, TopologyConfig};
use pier_p2p::netsim::{Sim, SimConfig, SimDuration, UniformLatency};

fn main() {
    let ups = 600;
    let leaves = 9_000;
    let cfg = SimConfig::with_seed(11)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(90)));
    let mut sim = Sim::new(cfg);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: ups,
        leaves,
        old_style_fraction: 0.3,
        leaf_ups: 2,
        seed: 11,
    });
    let handles = spawn(&mut sim, &topo, vec![Vec::new(); ups], vec![Vec::new(); leaves]);

    // Parallel BFS crawl from 20 seed ultrapeers.
    let seeds: Vec<_> = handles.ups.iter().copied().step_by(ups / 20).collect();
    let crawler = sim.add_node(Crawler::new(seeds, 100));
    sim.run_for(SimDuration::from_secs(300));

    let c = sim.actor::<Crawler>(crawler);
    assert!(c.done());
    println!(
        "crawled {} ultrapeers / {} total nodes in {:.1}s (virtual)",
        c.graph.ultrapeer_count(),
        c.graph.network_size(),
        c.finished_at.map(|t| (t - c.started_at).as_secs_f64()).unwrap_or(0.0)
    );

    let degrees = c.graph.degree_counts();
    println!("\nultrapeer degree profile (old-style ≈6, new-style ≈32):");
    for (d, n) in degrees.iter().filter(|(_, n)| **n >= 5) {
        println!("  degree {d:>3}: {n:>4} ultrapeers  {}", "#".repeat(n / 5));
    }

    // The ten lowest crawled ids start the curve.
    let starts: Vec<_> = c.graph.adj.keys().copied().take(10).collect();
    let curve = average_flood_curve(&c.graph, &starts, 7);
    let mc = marginal_cost(&curve);
    println!("\nflooding overhead (Figure 8): messages vs ultrapeers visited");
    println!("{:>4} {:>12} {:>12} {:>16}", "TTL", "messages", "ups", "msgs/new-up");
    for (i, p) in curve.iter().enumerate() {
        let m = if i == 0 { f64::NAN } else { mc[i - 1] };
        println!("{:>4} {:>12} {:>12} {:>16.1}", p.ttl, p.messages, p.ups_reached, m);
    }
    println!("\n→ diminishing returns: each additional ultrapeer costs more messages.");
}
