//! Ablations beyond the paper's figures.
//!
//! 1. **Timeout sweep** — §7 closes with "we plan to study the tradeoffs
//!    between the timeout and query workload": a shorter Gnutella timeout
//!    improves rare-item latency but re-issues more queries into the DHT.
//!    This experiment is that study, on the simulated deployment.
//! 2. **Flat flooding vs. dynamic querying** — the §4 design choice: the
//!    pre-2003 flat flood burns messages on popular queries; dynamic
//!    querying saves them at the price of rare-item latency.

use crate::experiments::Report;
use crate::lab::Scale;
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_dht::DhtConfig;
use pier_gnutella::{spawn, FileMeta, QueryOrigin, Topology, TopologyConfig, UltrapeerNode};
use pier_hybrid::{deploy, HybridConfig, HybridUp, RareScheme};
use pier_netsim::{Sim, SimConfig, SimDuration, UniformLatency};
use pier_trace::Obs;
use pier_workload::{Catalog, CatalogConfig, QueryConfig, QueryTrace};

/// Master seeds the single-run entry points use (sweeps pass per-trial
/// seeds). Sub-seeds derive from the master so the default run reproduces
/// the historical numbers bit-for-bit.
const TIMEOUT_SEED: u64 = 0xAB1A;
const FLOOD_SEED: u64 = 0xF100D;

/// One timeout setting's measurements.
pub struct TimeoutPoint {
    pub timeout_s: u64,
    pub avg_first_result_s: f64,
    pub pct_queries_to_dht: f64,
    pub found_pct: f64,
}

/// Render the timeout sweep as a table.
pub fn timeout_table(points: &[TimeoutPoint]) -> Table {
    let mut t = Table::new(
        "Ablation: hybrid timeout vs rare-item latency and DHT load (the paper's stated future work)",
        &["timeout_s", "avg_first_result_s", "pct_queries_to_dht", "found_pct"],
    );
    for p in points {
        t.row(vec![
            s(p.timeout_s),
            f(p.avg_first_result_s, 2),
            f(p.pct_queries_to_dht, 1),
            f(p.found_pct, 1),
        ]);
    }
    t
}

/// The timeout sweep proper, seeded: sweep the hybrid Gnutella-timeout and
/// measure, per setting, average time-to-first-result over rare queries
/// and the fraction of queries re-issued into the DHT (the extra load the
/// timeout gates). `obs` only times the arms (`exp.ablations.timeout_<s>s`).
pub fn timeout_points(scale: Scale, seed: u64, shards: usize, obs: &Obs) -> Vec<TimeoutPoint> {
    let (ups, hybrid_ups, leaves, distinct, queries) = match scale {
        Scale::Quick | Scale::Sparse => (80usize, 16usize, 1_600usize, 3_200usize, 60usize),
        Scale::Full => (240, 48, 4_800, 9_600, 200),
        Scale::Metro | Scale::MetroLite => (480, 96, 9_600, 19_200, 300),
    };
    let timeouts_s = [5u64, 10, 20, 30, 45];
    let mut out = Vec::with_capacity(timeouts_s.len());
    for &timeout in &timeouts_s {
        let _arm = obs.phase(&format!("exp.ablations.timeout_{timeout}s"));
        let cfg = SimConfig::with_seed(seed + timeout)
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(80),
            ))
            .shards(shards);
        let mut sim = Sim::new(cfg);
        let topo = Topology::generate(&TopologyConfig {
            ultrapeers: ups,
            leaves,
            old_style_fraction: 0.3,
            leaf_ups: 2,
            seed,
        });
        let catalog = Catalog::generate(CatalogConfig {
            hosts: leaves,
            distinct_files: distinct,
            max_replicas: (leaves / 10).max(50),
            vocab: (distinct / 3).max(400),
            phrases: (distinct / 8).max(120),
            seed: seed ^ 1,
        });
        let trace = QueryTrace::generate(&catalog, QueryConfig { queries, seed: seed ^ 6 });
        let leaf_files: Vec<Vec<FileMeta>> = catalog
            .host_files
            .iter()
            .map(|fs| {
                fs.iter()
                    .map(|&fi| FileMeta::new(&catalog.files[fi as usize].name, fi as u64))
                    .collect()
            })
            .collect();
        let deployment = deploy::spawn(
            &mut sim,
            &topo,
            leaf_files,
            &deploy::DeploymentConfig {
                hybrid_ups,
                hybrid: HybridConfig {
                    timeout: SimDuration::from_secs(timeout),
                    publish_interval: SimDuration::from_millis(500),
                    browse_leaves: true,
                },
                dht: DhtConfig::test(),
            },
            |_| RareScheme::sam(3),
        );
        // Index via BrowseHost, then query from hybrid vantages.
        sim.run_for(SimDuration::from_secs(200));
        let mut tracked = Vec::new();
        for (i, q) in trace.queries.iter().enumerate() {
            let v = deployment.hybrid_ups[i % deployment.hybrid_ups.len()];
            let terms = pier_gnutella::Terms::from_ids(q.terms.clone());
            let idx = sim.with_actor_ctx::<HybridUp, _>(v, |up, ctx| {
                up.start_hybrid_query(ctx, terms.clone())
            });
            tracked.push((v, idx));
            sim.run_for(SimDuration::from_millis(800));
        }
        sim.run_for(SimDuration::from_secs(timeout + 120));

        let mut first = Vec::new();
        let mut to_dht = 0u64;
        let mut found = 0u64;
        for (v, idx) in &tracked {
            let st = sim.actor::<HybridUp>(*v).stats[*idx].clone();
            if st.pier_issued_at.is_some() {
                to_dht += 1;
            }
            let earliest = match (st.gnutella_first, st.pier_first) {
                (Some(g), Some(p)) => Some(g.min(p)),
                (a, b) => a.or(b),
            };
            if let Some(e) = earliest {
                found += 1;
                first.push((e - st.issued_at).as_secs_f64());
            }
        }
        let n = tracked.len() as f64;
        out.push(TimeoutPoint {
            timeout_s: timeout,
            avg_first_result_s: first.iter().sum::<f64>() / first.len().max(1) as f64,
            pct_queries_to_dht: 100.0 * to_dht as f64 / n,
            found_pct: 100.0 * found as f64 / n,
        });
    }
    out
}

/// One (strategy, query) measurement from the flood-vs-dynamic ablation.
pub struct StrategyPoint {
    pub dynamic: bool,
    /// "popular" or "rare".
    pub query: &'static str,
    pub messages: u64,
    pub results: usize,
    pub first_result_s: Option<f64>,
}

/// Render the flood-vs-dynamic ablation as a table.
pub fn flood_table(points: &[StrategyPoint]) -> Table {
    let mut t = Table::new(
        "Ablation: flat flooding vs dynamic querying (messages / results / first-result latency)",
        &["strategy", "query", "messages", "results", "first_result_s"],
    );
    for p in points {
        t.row(vec![
            s(if p.dynamic { "dynamic" } else { "flood-ttl4" }),
            s(p.query),
            s(p.messages),
            s(p.results),
            p.first_result_s.map(|v| f(v, 2)).unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// The flood-vs-dynamic measurements, seeded: flat TTL-4 flooding vs.
/// dynamic querying — message cost and recall for a popular and a rare
/// query, from the same vantage.
pub fn flood_points(scale: Scale, seed: u64, shards: usize) -> Vec<StrategyPoint> {
    let (ups, leaves) = match scale {
        Scale::Quick | Scale::Sparse => (150usize, 3_000usize),
        Scale::Full => (333, 10_000),
        Scale::Metro | Scale::MetroLite => (666, 20_000),
    };
    let mut out = Vec::with_capacity(4);
    for dynamic in [false, true] {
        let cfg = SimConfig::with_seed(seed)
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(80),
            ))
            .shards(shards);
        let mut sim = Sim::new(cfg);
        let topo = Topology::generate(&TopologyConfig {
            ultrapeers: ups,
            leaves,
            old_style_fraction: 0.3,
            leaf_ups: 2,
            seed,
        });
        let mut leaf_files: Vec<Vec<FileMeta>> = (0..leaves)
            .map(|j| {
                if j % 5 == 0 {
                    vec![FileMeta::new("popular_evergreen.mp3", 1)]
                } else {
                    vec![FileMeta::new(&format!("filler_{j}.bin"), 1)]
                }
            })
            .collect();
        leaf_files[leaves - 1].push(FileMeta::new("rare_single_copy.mp3", 2));
        let handles = spawn(&mut sim, &topo, vec![Vec::new(); ups], leaf_files);
        sim.run_for(SimDuration::from_secs(3));

        for (label, terms) in [("popular", "popular evergreen"), ("rare", "rare single copy")] {
            let baseline = sim.metrics().snapshot();
            let vantage = handles.ups[7];
            let issued = sim.now();
            let guid = sim.with_actor_ctx::<UltrapeerNode, _>(vantage, |up, ctx| {
                let mut net = pier_gnutella::CtxGnutellaNet { ctx };
                if dynamic {
                    up.core.start_query(&mut net, terms, QueryOrigin::Driver)
                } else {
                    up.core.start_flood_query(&mut net, terms)
                }
            });
            sim.run_for(SimDuration::from_secs(120));
            let msgs = sim.metrics().snapshot().diff(&baseline).counter("gnutella.query").count;
            let rec =
                sim.actor_mut::<UltrapeerNode>(vantage).core.take_query(guid).expect("registered");
            out.push(StrategyPoint {
                dynamic,
                query: label,
                messages: msgs,
                results: rec.hits.len(),
                first_result_s: rec.first_hit_at.map(|tm| (tm - issued).as_secs_f64()),
            });
        }
    }
    out
}

pub fn run(scale: Scale, shards: usize, obs: &Obs) -> Report {
    let timeouts = timeout_points(scale, TIMEOUT_SEED, shards, obs);
    let floods = {
        let _flood = obs.phase("exp.ablations.flood");
        flood_points(scale, FLOOD_SEED, shards)
    };
    Report { tables: vec![timeout_table(&timeouts), flood_table(&floods)], events: None }
}

/// One sweep trial: the timeout tradeoff endpoints and the flood/dynamic
/// message ratio, from seeded topologies and workloads.
pub fn trial(scale: Scale, seed: u64, shards: usize) -> Summary {
    let timeouts = timeout_points(scale, seed, shards, &Obs::default());
    let floods = flood_points(scale, pier_netsim::derive_seed(seed, 1), shards);
    let first = timeouts.first().expect("timeout sweep is non-empty");
    let last = timeouts.last().expect("timeout sweep is non-empty");
    let pick = |dynamic: bool, query: &str| {
        floods
            .iter()
            .find(|p| p.dynamic == dynamic && p.query == query)
            .expect("all four strategy points measured")
    };
    let mut s = Summary::new();
    s.set("dht_pct_at_min_timeout", first.pct_queries_to_dht);
    s.set("dht_pct_at_max_timeout", last.pct_queries_to_dht);
    s.set("first_result_s_at_min_timeout", first.avg_first_result_s);
    s.set("first_result_s_at_max_timeout", last.avg_first_result_s);
    s.set("found_pct_min", timeouts.iter().map(|p| p.found_pct).fold(f64::INFINITY, f64::min));
    s.set("flood_popular_msgs", pick(false, "popular").messages as f64);
    s.set("dynamic_popular_msgs", pick(true, "popular").messages as f64);
    s.set(
        "flood_over_dynamic_popular",
        pick(false, "popular").messages as f64 / pick(true, "popular").messages.max(1) as f64,
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_tradeoff_shape() {
        let t = timeout_table(&timeout_points(Scale::Quick, TIMEOUT_SEED, 1, &Obs::default()));
        assert_eq!(t.rows.len(), 5);
        // Longer timeouts must not send MORE queries to the DHT (more time
        // for Gnutella to produce a first hit).
        let dht_frac: Vec<f64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        assert!(
            *dht_frac.last().unwrap() <= dht_frac.first().unwrap() + 1e-9,
            "DHT load must not grow with the timeout: {dht_frac:?}"
        );
        // Everything is eventually found at every setting (hybrid's point).
        for r in &t.rows {
            let found: f64 = r[3].parse().unwrap();
            assert!(found > 80.0, "found% too low: {found}");
        }
    }

    #[test]
    fn flood_burns_more_messages_on_popular_queries() {
        let t = flood_table(&flood_points(Scale::Quick, FLOOD_SEED, 1));
        let get = |strategy: &str, query: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == strategy && r[1] == query).unwrap()[col].parse().unwrap()
        };
        // Popular query: the flat flood sends many times the messages of a
        // dynamic query that stops at its result target.
        let flood_msgs = get("flood-ttl4", "popular", 2);
        let dyn_msgs = get("dynamic", "popular", 2);
        assert!(
            flood_msgs > dyn_msgs * 2.0,
            "flood {flood_msgs} should dwarf dynamic {dyn_msgs} for popular content"
        );
        // Both find plenty of popular results.
        assert!(get("dynamic", "popular", 3) > 10.0);
        assert!(get("flood-ttl4", "popular", 3) > 10.0);
    }
}
