//! Figure 8 (and the §4.1 crawl): crawl the ultrapeer topology, then
//! compute the flooding-overhead curve — ultrapeers visited vs. query
//! messages, with its diminishing returns.

use crate::experiments::Report;
use crate::lab::Scale;
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_gnutella::floodstats::{average_flood_curve, marginal_cost};
use pier_gnutella::{spawn, Crawler, FileMeta, Topology, TopologyConfig};
use pier_netsim::{Sim, SimConfig, SimDuration, UniformLatency};
use pier_trace::Obs;

/// The master seed single runs use (sweeps pass per-trial seeds).
const CRAWL_SEED: u64 = 0xC4A5;

pub struct CrawlOutcome {
    pub tables: Vec<Table>,
    pub marginal_rising: bool,
    pub ups_crawled: usize,
    pub network_size: usize,
    pub crawl_duration_s: f64,
    /// Marginal messages per newly-visited ultrapeer at the first and last
    /// TTL step with a finite value — the diminishing-returns endpoints.
    pub marginal_first: f64,
    pub marginal_last: f64,
    /// Kernel event-queue accounting of the crawl simulation.
    pub events: pier_netsim::EventStats,
}

/// The single run: the crawl at `CRAWL_SEED`.
pub fn run(scale: Scale, shards: usize, _obs: &Obs) -> Report {
    let out = run_seeded(scale, CRAWL_SEED, shards);
    Report { tables: out.tables, events: Some(out.events) }
}

pub fn run_seeded(scale: Scale, seed: u64, shards: usize) -> CrawlOutcome {
    let (ups, leaves) = match scale {
        Scale::Quick | Scale::Sparse => (400usize, 4_000usize),
        Scale::Full => (3_333, 96_000),
        // Double the paper's crawl: the shared-catalog layout makes the
        // actor population cheap; messages dominate.
        Scale::Metro | Scale::MetroLite => (6_666, 192_000),
    };
    let cfg = SimConfig::with_seed(seed)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(90)))
        .shards(shards);
    let mut sim = Sim::new(cfg);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: ups,
        leaves,
        old_style_fraction: 0.3,
        leaf_ups: 2,
        seed,
    });
    let handles =
        spawn(&mut sim, &topo, vec![Vec::new(); ups], vec![Vec::<FileMeta>::new(); leaves]);
    // Parallel crawl from 30 seeds, like the paper's 30 PlanetLab crawlers.
    let seeds: Vec<_> = handles.ups.iter().copied().step_by((ups / 30).max(1)).collect();
    let crawler = sim.add_node(Crawler::new(seeds, 200));
    sim.run_for(SimDuration::from_secs(600));
    let c = sim.actor::<Crawler>(crawler);
    assert!(c.done(), "crawl did not finish");
    let graph = c.graph.clone();
    let duration = c.finished_at.map(|t| (t - c.started_at).as_secs_f64()).unwrap_or_default();

    // §4.1 table: the crawl snapshot (paper: ~100k nodes in 45 minutes).
    let mut t_crawl = Table::new(
        "Section 4.1: topology crawl (paper: ~100,000 nodes in 45 min)",
        &["metric", "measured", "paper"],
    );
    t_crawl.row(vec![s("ultrapeers crawled"), s(graph.ultrapeer_count()), s(3333)]);
    t_crawl.row(vec![s("network size (nodes)"), s(graph.network_size()), s(100_000)]);
    t_crawl.row(vec![s("crawl duration (s)"), f(duration, 0), s(2700)]);
    let degrees = graph.degree_counts();
    let low = degrees.iter().filter(|(d, _)| **d <= 10).map(|(_, c)| c).sum::<usize>();
    let high = degrees.iter().filter(|(d, _)| **d > 20).map(|(_, c)| c).sum::<usize>();
    t_crawl.row(vec![s("old-style UPs (degree ≤10)"), s(low), s("~30%")]);
    t_crawl.row(vec![s("new-style UPs (degree >20)"), s(high), s("~70%")]);

    // Figure 8: ultrapeers visited vs messages, averaged over vantages.
    // Every 17th crawled id in id order: the vantage sample.
    let starts: Vec<_> = graph.adj.keys().copied().step_by(17).take(20).collect();
    let curve = average_flood_curve(&graph, &starts, 8);
    let mut t8 = Table::new(
        "Figure 8: ultrapeers visited vs query messages (diminishing returns)",
        &["ttl", "messages", "ups_visited", "marginal_msgs_per_up"],
    );
    let mc = marginal_cost(&curve);
    for (i, p) in curve.iter().enumerate() {
        let m = if i == 0 { p.messages as f64 / p.ups_reached.max(1) as f64 } else { mc[i - 1] };
        let m_str = if m.is_finite() { f(m, 1) } else { s("-") };
        t8.row(vec![s(p.ttl), s(p.messages), s(p.ups_reached), m_str]);
    }

    // Shape check: cost per newly-visited UP grows with TTL.
    let finite: Vec<f64> = mc.iter().copied().filter(|v| v.is_finite()).collect();
    let marginal_rising = finite.len() >= 2 && finite.last().unwrap() > finite.first().unwrap();

    CrawlOutcome {
        tables: vec![t_crawl, t8],
        events: sim.event_stats(),
        marginal_rising,
        ups_crawled: graph.ultrapeer_count(),
        network_size: graph.network_size(),
        crawl_duration_s: duration,
        marginal_first: finite.first().copied().unwrap_or(f64::NAN),
        marginal_last: finite.last().copied().unwrap_or(f64::NAN),
    }
}

/// One sweep trial: crawl coverage and the flooding-cost endpoints.
pub fn trial(scale: Scale, seed: u64, shards: usize) -> Summary {
    let out = run_seeded(scale, seed, shards);
    let mut s = Summary::new();
    s.set("ups_crawled", out.ups_crawled as f64);
    s.set("network_size", out.network_size as f64);
    s.set("crawl_duration_s", out.crawl_duration_s);
    s.set("marginal_msgs_per_up_first", out.marginal_first);
    s.set("marginal_msgs_per_up_last", out.marginal_last);
    s.set("marginal_rising", out.marginal_rising as u64 as f64);
    s.set("events_processed", out.events.processed as f64);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_crawl_reproduces_diminishing_returns() {
        let out = run_seeded(Scale::Quick, CRAWL_SEED, 1);
        assert!(out.marginal_rising, "Figure 8's diminishing returns must appear");
        // Crawl found the whole ultrapeer tier.
        let crawled: usize = out.tables[0].rows[0][1].parse().unwrap();
        assert_eq!(crawled, 400);
        let size: usize = out.tables[0].rows[1][1].parse().unwrap();
        assert_eq!(size, 4_400);
    }
}
