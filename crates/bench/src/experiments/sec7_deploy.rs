//! §7: the live deployment experiment. Three parts:
//!
//! 1. micro-measured publishing cost per file (paper: 3.5 KB, 4 KB with
//!    InvertedCache);
//! 2. micro-measured per-query bandwidth (paper: ~850 B InvertedCache vs
//!    ~20 KB distributed join);
//! 3. the 50-hybrid-ultrapeer deployment: QRS publishing from snooped
//!    traffic, 30 s Gnutella timeout, PIERSearch fallback — first-result
//!    latency and the reduction in zero-result queries.

use crate::experiments::Report;
use crate::lab::Scale;
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_dht::{bootstrap, Contact, DhtConfig, DhtCore, DhtMsg, DhtNode};
use pier_gnutella::{FileMeta, Topology, TopologyConfig};
use pier_hybrid::{deploy, HybridConfig, HybridQueryStats, HybridUp, RareScheme};
use pier_netsim::{EventStats, NodeId, Sim, SimConfig, SimDuration, UniformLatency};
use pier_trace::Obs;
use pier_workload::{Catalog, CatalogConfig, QueryConfig, QueryTrace};
use piersearch::{IndexMode, PierSearchApp, PierSearchNode};

/// The master seed single runs use; sweeps pass per-trial seeds. Sub-seeds
/// are `master + 1 ..= master + 5`, so the default run reproduces the
/// historical numbers bit-for-bit.
const DEPLOY_SEED: u64 = 0x7000;

/// The isolated warm-started PIERSearch DHT both micro costs run on.
fn micro_dht(mode: IndexMode, seed: u64) -> (Sim<DhtMsg>, Vec<NodeId>) {
    let cfg = SimConfig::with_seed(seed)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim = Sim::new(cfg);
    let n = 50u32; // the paper's deployment size
    let contacts: Vec<Contact> = (0..n).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let mut ids = Vec::new();
    for c in &contacts {
        let mut core = DhtCore::new(DhtConfig::test(), *c);
        bootstrap::fill_table(core.table_mut(), &contacts, 4);
        ids.push(sim.add_node(DhtNode::new(core, PierSearchApp::new(mode), None)));
    }
    (sim, ids)
}

/// Publish `files` filenames into an isolated DHT and measure total DHT
/// bytes per file.
pub fn micro_publish_cost(mode: IndexMode, files: usize, seed: u64) -> f64 {
    let (mut sim, ids) = micro_dht(mode, seed);
    sim.run_for(SimDuration::from_secs(2));
    // Publish-attributable traffic only: the recursive store path (the
    // maintenance chatter of a live DHT is excluded, as in the paper's
    // per-file accounting).
    let baseline = sim.metrics().snapshot();
    for i in 0..files {
        let name = format!("artist_{:02}_album_{:02}_track_title_{i:04}.mp3", i % 40, i % 13);
        let from = ids[i % ids.len()];
        sim.with_actor_ctx::<PierSearchNode, _>(from, |node, ctx| {
            let mut net = pier_dht::CtxNet { ctx };
            let host = net.ctx.self_id();
            node.app.publisher.publish_file(
                &mut node.app.pier,
                &mut node.core,
                &mut net,
                &name,
                4_000_000 + i as u64,
                host,
                6346,
            );
        });
        sim.run_for(SimDuration::from_millis(2_500)); // the deployment's rate
    }
    sim.run_for(SimDuration::from_secs(10));
    let delta = sim.metrics().snapshot().diff(&baseline);
    delta.counter("dht.route_store").bytes as f64 / files as f64
}

/// Publish a shared-keyword corpus and measure engine bytes per query.
pub fn micro_query_cost(mode: IndexMode, corpus: usize, queries: usize, seed: u64) -> (f64, f64) {
    let (mut sim, ids) = micro_dht(mode, seed);
    // A popular two-keyword corpus (the "Britney Spears" case: both posting
    // lists long).
    for i in 0..corpus {
        let name = format!("madonna_vogue_remix_{i:04}.mp3");
        let from = ids[i % ids.len()];
        sim.with_actor_ctx::<PierSearchNode, _>(from, |node, ctx| {
            let mut net = pier_dht::CtxNet { ctx };
            let host = net.ctx.self_id();
            node.app
                .publisher
                .publish_file(
                    &mut node.app.pier,
                    &mut node.core,
                    &mut net,
                    &name,
                    1_000,
                    host,
                    6346,
                )
                .unwrap();
        });
    }
    sim.run_for(SimDuration::from_secs(60));

    // The paper's per-query bandwidth counts the traffic needed to
    // *resolve the matching fileIDs* (plan shipping + posting-list
    // shipping), not the result stream common to both modes: that is the
    // recursively routed engine traffic.
    let engine_baseline = sim.metrics().snapshot();
    let mut sids = Vec::new();
    for qi in 0..queries {
        let from = ids[(7 * qi + 3) % ids.len()];
        let sid = sim.with_actor_ctx::<PierSearchNode, _>(from, |node, ctx| {
            let mut net = pier_dht::CtxNet { ctx };
            node.app
                .engine
                .start_search(&mut node.app.pier, &mut node.core, &mut net, "madonna vogue")
                .unwrap()
        });
        sids.push((from, sid));
        sim.run_for(SimDuration::from_secs(2));
    }
    sim.run_for(SimDuration::from_secs(60));
    let engine_delta = sim.metrics().snapshot().diff(&engine_baseline);
    let bytes_per_query = engine_delta.counter("dht.route").bytes as f64 / queries as f64;
    // Average first-result latency of the searches.
    let mut lat = 0.0;
    let mut lat_n = 0;
    for (node, sid) in sids {
        let st = sim.actor::<PierSearchNode>(node).app.engine.search(sid);
        let st = st.expect("micro query must complete");
        if let Some(first) = st.first_result_at {
            lat += (first - st.issued_at).as_secs_f64();
            lat_n += 1;
        }
    }
    (bytes_per_query, lat / lat_n.max(1) as f64)
}

/// The deployment proper.
pub struct DeployOutcome {
    pub tables: Vec<Table>,
    pub zero_result_reduction_pct: f64,
    pub pier_beats_gnutella_latency: bool,
    pub publish_bytes_plain: f64,
    pub publish_bytes_cache: f64,
    pub query_bytes_plain: f64,
    pub query_bytes_cache: f64,
    pub avg_gnutella_first_s: f64,
    pub avg_pier_exec_s: f64,
    pub files_published: u64,
    /// Kernel event-queue accounting of the deployment replay (part 3).
    /// The part-1/2 micro-cost sims are tiny and always single-shard, so
    /// they are excluded here.
    pub events: EventStats,
}

/// The single run: all three parts at `DEPLOY_SEED`.
pub fn run(scale: Scale, shards: usize, obs: &Obs) -> Report {
    let out = run_seeded(scale, DEPLOY_SEED, shards, obs);
    Report { tables: out.tables, events: Some(out.events) }
}

/// `shards` applies to the part-3 deployment replay (the only simulation
/// here big enough to matter); the micro-cost sims stay single-shard.
/// `obs` only times the stages (`exp.sec7-deploy.*`).
pub fn run_seeded(scale: Scale, master: u64, shards: usize, obs: &Obs) -> DeployOutcome {
    // Parts 1 & 2: micro costs.
    let stage = obs.phase("exp.sec7-deploy.micro_costs");
    let files = match scale {
        Scale::Quick | Scale::Sparse => 60,
        Scale::Full => 200,
        Scale::Metro | Scale::MetroLite => 300,
    };
    let pub_plain = micro_publish_cost(IndexMode::Inverted, files, master + 1);
    let pub_cache = micro_publish_cost(IndexMode::InvertedCache, files, master + 1);
    let (q_cache, lat_cache) = micro_query_cost(IndexMode::InvertedCache, 300, 25, master + 2);
    let (q_plain, lat_plain) = micro_query_cost(IndexMode::Inverted, 300, 25, master + 2);
    drop(stage);

    let mut t_cost = Table::new(
        "Section 7: PIERSearch costs (paper: publish 3.5/4.0 KB per file; query 20 KB SHJ vs 0.85 KB InvertedCache)",
        &["metric", "Inverted(SHJ)", "InvertedCache", "paper_shj", "paper_cache"],
    );
    t_cost.row(vec![s("publish bytes/file"), f(pub_plain, 0), f(pub_cache, 0), s(3_500), s(4_000)]);
    t_cost.row(vec![s("query engine bytes"), f(q_plain, 0), f(q_cache, 0), s(20_000), s(850)]);
    t_cost.row(vec![s("PIER first result (s)"), f(lat_plain, 1), f(lat_cache, 1), s(12), s(10)]);

    // Part 3: the deployment.
    let (ups, hybrid_ups, leaves, distinct, queries) = match scale {
        Scale::Quick | Scale::Sparse => (100usize, 20usize, 2_000usize, 4_000usize, 120usize),
        Scale::Full => (300, 50, 6_000, 12_000, 400),
        Scale::Metro | Scale::MetroLite => (600, 100, 12_000, 24_000, 600),
    };
    let cfg = SimConfig::with_seed(master + 3)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)))
        .shards(shards);
    let mut sim = Sim::new(cfg);
    let topo = Topology::generate(&TopologyConfig {
        ultrapeers: ups,
        leaves,
        old_style_fraction: 0.3,
        leaf_ups: 2,
        seed: master + 3,
    });
    let catalog = Catalog::generate(CatalogConfig {
        hosts: leaves,
        distinct_files: distinct,
        max_replicas: (leaves / 10).max(50),
        vocab: (distinct / 3).max(500),
        phrases: (distinct / 8).max(200),
        seed: master + 4,
    });
    let trace = QueryTrace::generate(&catalog, QueryConfig { queries, seed: master + 5 });
    let leaf_files: Vec<Vec<FileMeta>> = catalog
        .host_files
        .iter()
        .map(|fs| {
            fs.iter()
                .map(|&fi| FileMeta::new(&catalog.files[fi as usize].name, 1_000 + fi as u64))
                .collect()
        })
        .collect();
    let dcfg = deploy::DeploymentConfig {
        hybrid_ups,
        hybrid: HybridConfig {
            timeout: SimDuration::from_secs(30),
            publish_interval: SimDuration::from_millis(2_500),
            browse_leaves: false, // QRS-only, as deployed in the paper
        },
        dht: DhtConfig::test(),
    };
    // The paper's QRS threshold: queries with < 20 results are rare.
    let deployment = deploy::spawn(&mut sim, &topo, leaf_files, &dcfg, |_| RareScheme::qrs(20));
    sim.run_for(SimDuration::from_secs(5));

    // Round 1: seed QRS by replaying the trace from half the hybrid UPs.
    let stage = obs.phase("exp.sec7-deploy.round1");
    let round1_vantages: Vec<NodeId> =
        deployment.hybrid_ups.iter().copied().take(hybrid_ups / 2).collect();
    for (i, q) in trace.queries.iter().enumerate() {
        let v = round1_vantages[i % round1_vantages.len()];
        let terms = pier_gnutella::Terms::from_ids(q.terms.clone());
        sim.with_actor_ctx::<HybridUp, _>(v, |up, ctx| up.start_hybrid_query(ctx, terms));
        sim.run_for(SimDuration::from_millis(700));
    }
    drop(stage);
    // Drain round 1 + let QRS windows close and publishing proceed.
    let stage = obs.phase("exp.sec7-deploy.publish_drain");
    sim.run_for(SimDuration::from_secs(300));
    drop(stage);

    let published: u64 =
        deployment.hybrid_ups.iter().map(|&id| sim.actor::<HybridUp>(id).files_published).sum();

    // Round 2: measure from the *other* hybrid UPs.
    let stage = obs.phase("exp.sec7-deploy.round2");
    let round2_vantages: Vec<NodeId> =
        deployment.hybrid_ups.iter().copied().skip(hybrid_ups / 2).collect();
    let mut tracked: Vec<(NodeId, usize)> = Vec::new();
    for (i, q) in trace.queries.iter().enumerate() {
        let v = round2_vantages[i % round2_vantages.len()];
        let terms = pier_gnutella::Terms::from_ids(q.terms.clone());
        let idx = sim.with_actor_ctx::<HybridUp, _>(v, |up, ctx| up.start_hybrid_query(ctx, terms));
        tracked.push((v, idx));
        sim.run_for(SimDuration::from_millis(700));
    }
    sim.run_for(SimDuration::from_secs(150));
    drop(stage);

    let stats = tracked.iter().map(|&(v, idx)| &sim.actor::<HybridUp>(v).stats[idx]);
    let (zero_gnutella, saved_by_pier, gnutella_first, pier_exec) = round2(stats);
    let reduction = 100.0 * saved_by_pier as f64 / zero_gnutella.max(1) as f64;
    let cell = |v: f64| if v.is_finite() { f(v, 1) } else { s("-") };

    let mut t_dep = Table::new(
        "Section 7: partial deployment (paper: 18% zero-result reduction; PIER answers in 10-12s)",
        &["metric", "measured", "paper"],
    );
    t_dep.row(vec![s("hybrid ultrapeers"), s(hybrid_ups), s(50)]);
    t_dep.row(vec![s("files published via QRS"), s(published), s("~1 per 2-3s/node")]);
    t_dep.row(vec![s("round-2 zero-result queries (gnutella)"), s(zero_gnutella), s("-")]);
    t_dep.row(vec![s("...rescued by PIERSearch (%)"), f(reduction, 1), s(18)]);
    t_dep.row(vec![s("avg gnutella first result (s)"), cell(mean(&gnutella_first)), s(65)]);
    t_dep.row(vec![s("avg PIER exec after timeout (s)"), cell(mean(&pier_exec)), s("10-12")]);

    let pier_ok = pier_exec.is_empty() || mean(&pier_exec) < mean(&gnutella_first).max(20.0) + 40.0;
    DeployOutcome {
        tables: vec![t_cost, t_dep],
        events: sim.event_stats(),
        zero_result_reduction_pct: reduction,
        pier_beats_gnutella_latency: pier_ok,
        publish_bytes_plain: pub_plain,
        publish_bytes_cache: pub_cache,
        query_bytes_plain: q_plain,
        query_bytes_cache: q_cache,
        avg_gnutella_first_s: mean(&gnutella_first),
        avg_pier_exec_s: mean(&pier_exec),
        files_published: published,
    }
}

/// Round 2's zero-result and rescued counts, and its latency samples (s):
/// Gnutella first results, PIER execution of the rescued queries.
fn round2<'a>(stats: impl Iterator<Item = &'a HybridQueryStats>) -> (u64, u64, Vec<f64>, Vec<f64>) {
    let (mut zero_gnutella, mut saved_by_pier) = (0u64, 0u64);
    let (mut gnutella_first, mut pier_exec) = (Vec::new(), Vec::new());
    for st in stats {
        if let Some(t) = st.gnutella_first {
            gnutella_first.push((t - st.issued_at).as_secs_f64());
        }
        if st.gnutella_hits == 0 {
            zero_gnutella += 1;
            if !st.pier_items.is_empty() {
                saved_by_pier += 1;
                if let (Some(first), Some(issued)) = (st.pier_first, st.pier_issued_at) {
                    pier_exec.push((first - issued).as_secs_f64());
                }
            }
        }
    }
    (zero_gnutella, saved_by_pier, gnutella_first, pier_exec)
}

/// A sample's mean; NaN (0/0) for an empty sample, which sweeps skip and
/// the table prints as `-`.
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// One sweep trial: the deployment headline numbers from seeded
/// topologies, catalogs, and traces.
pub fn trial(scale: Scale, seed: u64, shards: usize) -> Summary {
    let out = run_seeded(scale, seed, shards, &Obs::default());
    let mut s = Summary::new();
    s.set("zero_result_reduction_pct", out.zero_result_reduction_pct);
    s.set("avg_gnutella_first_s", out.avg_gnutella_first_s);
    s.set("avg_pier_exec_s", out.avg_pier_exec_s);
    s.set("publish_bytes_plain", out.publish_bytes_plain);
    s.set("publish_bytes_cache", out.publish_bytes_cache);
    s.set("query_bytes_plain", out.query_bytes_plain);
    s.set("query_bytes_cache", out.query_bytes_cache);
    s.set("files_published", out.files_published as f64);
    s.set("pier_beats_gnutella_latency", out.pier_beats_gnutella_latency as u64 as f64);
    s.set("events_processed", out.events.processed as f64);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_netsim::SimTime;

    #[test]
    fn micro_costs_have_paper_shape() {
        let pub_plain = micro_publish_cost(IndexMode::Inverted, 25, DEPLOY_SEED + 1);
        let pub_cache = micro_publish_cost(IndexMode::InvertedCache, 25, DEPLOY_SEED + 1);
        // Direction: InvertedCache publishing costs more (paper 4 vs 3.5 KB).
        assert!(pub_cache > pub_plain, "cache {pub_cache} vs plain {pub_plain}");
        // Magnitude: hundreds of bytes to a few KB per file.
        assert!(pub_plain > 200.0 && pub_plain < 20_000.0, "{pub_plain}");

        let (q_cache, _) = micro_query_cost(IndexMode::InvertedCache, 150, 10, DEPLOY_SEED + 2);
        let (q_plain, _) = micro_query_cost(IndexMode::Inverted, 150, 10, DEPLOY_SEED + 2);
        // Direction: the distributed join ships far more (paper 20 KB vs 850 B).
        assert!(
            q_plain > q_cache * 1.2,
            "SHJ must cost more for popular keywords: {q_plain} vs {q_cache}"
        );
    }

    #[test]
    fn a_round_that_rescues_nothing_reports_nan_not_zero() {
        let query = |hits: usize| HybridQueryStats {
            terms: pier_gnutella::Terms::from_text("rare item"),
            issued_at: SimTime::ZERO,
            gnutella_first: (hits > 0).then(|| SimTime::ZERO + SimDuration::from_secs(2)),
            gnutella_hits: hits,
            pier_issued_at: (hits == 0).then(|| SimTime::ZERO + SimDuration::from_secs(30)),
            pier_first: None,
            pier_items: Vec::new(),
            done: true,
        };
        let stats = [query(3), query(0)];
        let (zero, rescued, gnutella_first, pier_exec) = round2(stats.iter());
        assert_eq!((zero, rescued), (1, 0));
        assert_eq!(mean(&gnutella_first), 2.0);
        assert!(mean(&pier_exec).is_nan(), "no rescued query: no PIER latency, not 0 s");
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
