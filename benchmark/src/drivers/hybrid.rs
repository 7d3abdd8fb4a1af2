//! `hybrid_deploy`: the §7 partial deployment — part 3 of
//! `sec7_deploy::run_seeded`, composed from the same public pieces.

use super::{ratio, Ledger, Outcome, Replicas};
use crate::spans::{Spans, NO_OP};
use pier_dht::DhtConfig;
use pier_gnutella::{FileMeta, Terms, Topology, TopologyConfig};
use pier_hybrid::{deploy, HybridConfig, HybridMsg, HybridQueryStats, HybridUp, RareScheme};
use pier_netsim::{NodeId, Sim, SimConfig, SimDuration, UniformLatency};
use pier_workload::{Catalog, CatalogConfig, Evaluator, Query, QueryConfig, QueryTrace};
use std::time::Instant;

pub struct HybridParams {
    pub ultrapeers: usize,
    pub hybrid_ups: usize,
    pub leaves: usize,
    pub distinct_files: usize,
    pub queries: usize,
}

pub fn run(p: &HybridParams, master: u64, setup_only: bool, sp: &mut Spans) -> Outcome {
    let t0 = Instant::now();
    let mut out = Outcome::default();

    // ---- set-up ------------------------------------------------------------
    let setup = sp.enter("bench.setup", NO_OP);
    let cfg = SimConfig::with_seed(master + 3)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim: Sim<HybridMsg> = Sim::new(cfg);
    let topo = sp.span("gnutella.topology", NO_OP, || {
        Topology::generate(&TopologyConfig {
            ultrapeers: p.ultrapeers,
            leaves: p.leaves,
            old_style_fraction: 0.3,
            leaf_ups: 2,
            seed: master + 3,
        })
    });
    let catalog = sp.span("workload.catalog", NO_OP, || {
        Catalog::generate(CatalogConfig {
            hosts: p.leaves,
            distinct_files: p.distinct_files,
            max_replicas: (p.leaves / 10).max(50),
            vocab: (p.distinct_files / 3).max(500),
            phrases: (p.distinct_files / 8).max(200),
            seed: master + 4,
            ..Default::default()
        })
    });
    let trace = sp.span("workload.query_trace", NO_OP, || {
        QueryTrace::generate(
            &catalog,
            QueryConfig { queries: p.queries, seed: master + 5, ..Default::default() },
        )
    });
    let leaf_files: Vec<Vec<FileMeta>> = sp.span("gnutella.stores", NO_OP, || {
        catalog
            .host_files
            .iter()
            .map(|fs| {
                fs.iter()
                    .map(|&fi| FileMeta::new(&catalog.files[fi as usize].name, 1_000 + fi as u64))
                    .collect()
            })
            .collect()
    });
    let dcfg = deploy::DeploymentConfig {
        hybrid_ups: p.hybrid_ups,
        hybrid: HybridConfig {
            timeout: SimDuration::from_secs(30),
            publish_interval: SimDuration::from_millis(2_500),
            browse_leaves: false, // QRS-only, as deployed in the paper
            ..Default::default()
        },
        dht: DhtConfig::test(),
    };
    // The paper's QRS threshold: queries with < 20 results are rare.
    let deployment = sp.span("hybrid.spawn", NO_OP, || {
        deploy::spawn(&mut sim, &topo, leaf_files, &dcfg, |_| RareScheme::qrs(20))
    });
    sp.span("gnutella.qrp_warmup", NO_OP, || sim.run_for(SimDuration::from_secs(5)));
    sp.exit(setup);
    out.setup_s = t0.elapsed().as_secs_f64();
    if setup_only {
        return out;
    }
    let baseline = sim.metrics().snapshot();
    let events_at_setup = sim.event_stats().processed;

    // ---- run: round 1 seeds QRS, the drain publishes, round 2 measures ------
    let round1: Vec<NodeId> =
        deployment.hybrid_ups.iter().copied().take(p.hybrid_ups / 2).collect();
    let round2: Vec<NodeId> =
        deployment.hybrid_ups.iter().copied().skip(p.hybrid_ups / 2).collect();
    let mut op = 0u64;
    let mut issue = |sim: &mut Sim<HybridMsg>, sp: &mut Spans, vantages: &[NodeId]| {
        let phase = sp.enter("bench.replay_inject", NO_OP);
        let mut tracked: Vec<(NodeId, usize)> = Vec::with_capacity(trace.queries.len());
        for (i, q) in trace.queries.iter().enumerate() {
            let v = vantages[i % vantages.len()];
            let terms = Terms::from_ids(q.terms.clone());
            let idx = sp.span("hybrid.start_query", op, || {
                sim.with_actor_ctx::<HybridUp, _>(v, |up, ctx| up.start_hybrid_query(ctx, terms))
            });
            op += 1;
            tracked.push((v, idx));
            sp.span("netsim.run", NO_OP, || sim.run_for(SimDuration::from_millis(700)));
        }
        sp.exit(phase);
        tracked
    };
    let drain = |sim: &mut Sim<HybridMsg>, sp: &mut Spans, secs: u64| {
        let phase = sp.enter("bench.replay_drain", NO_OP);
        sp.span("netsim.run", NO_OP, || sim.run_for(SimDuration::from_secs(secs)));
        sp.exit(phase);
    };
    let tracked1 = issue(&mut sim, sp, &round1);
    // Drain round 1 + let QRS windows close and publishing proceed.
    drain(&mut sim, sp, 300);
    let published: u64 =
        deployment.hybrid_ups.iter().map(|&id| sim.actor::<HybridUp>(id).files_published).sum();
    let tracked2 = issue(&mut sim, sp, &round2);
    drain(&mut sim, sp, 150);

    // ---- collect -------------------------------------------------------------
    let collect = sp.enter("bench.replay_collect", NO_OP);
    let stats_of = |tracked: &[(NodeId, usize)]| -> Vec<_> {
        tracked.iter().map(|&(v, idx)| sim.actor::<HybridUp>(v).stats[idx].clone()).collect()
    };
    let stats1 = stats_of(&tracked1);
    let stats2 = stats_of(&tracked2);
    sp.exit(collect);

    // ---- analysis --------------------------------------------------------------
    let analysis = sp.enter("bench.analysis", NO_OP);
    let eval = sp.span("workload.evaluator_build", NO_OP, || Evaluator::new(&catalog));
    let replicas = Replicas::new(&catalog, deployment.leaves[0]);
    let mut failed = 0u64;
    let mut false_matches = 0u64;
    let mut check_round = |sp: &mut Spans, queries: &[Query], stats: &[HybridQueryStats]| {
        for (qi, (q, st)) in queries.iter().zip(stats).enumerate() {
            let truth = sp.span("workload.eval", qi as u64, || eval.eval(q));
            let words: Vec<_> = q.terms.iter().map(|&t| pier_vocab::text(t)).collect();
            let mut items_true = true;
            for item in &st.pier_items {
                // A PIER item must be a real replica: that host shares that
                // file.
                let file = replicas.replica(&item.filename, item.host);
                let is_replica = file.is_some();
                // …and must answer the query by the index's own rule: the
                // InvertedCache plan filters the cached filename by
                // *substring*, which is looser than Gnutella's token match.
                let answers = words.iter().all(|w| item.filename.contains(&**w));
                items_true &= is_replica && answers;
                // What the looser rule lets through is counted, not failed.
                let token_match = file.is_some_and(|fi| truth.files.binary_search(&fi).is_ok());
                false_matches += u64::from(is_replica && answers && !token_match);
            }
            if !st.done || !items_true {
                failed += 1;
            }
        }
    };
    check_round(sp, &trace.queries, &stats1);
    check_round(sp, &trace.queries, &stats2);
    out.attempted = (stats1.len() + stats2.len()) as u64;
    out.failed = failed;

    let mut zero_gnutella = 0u64;
    let mut saved_by_pier = 0u64;
    let mut answered = 0u64;
    let mut fell_back = 0u64;
    let mut gnutella_first: Vec<f64> = Vec::new();
    let mut pier_exec: Vec<f64> = Vec::new();
    for st in &stats2 {
        if let Some(t) = st.gnutella_first {
            gnutella_first.push((t - st.issued_at).as_secs_f64());
        }
        fell_back += u64::from(st.pier_issued_at.is_some());
        if st.gnutella_hits == 0 {
            zero_gnutella += 1;
            if !st.pier_items.is_empty() {
                saved_by_pier += 1;
                if let (Some(first), Some(issued)) = (st.pier_first, st.pier_issued_at) {
                    pier_exec.push((first - issued).as_secs_f64());
                }
            }
        }
        let first = match (st.gnutella_first, st.pier_first) {
            (Some(g), Some(p)) => Some(g.min(p)),
            (g, p) => g.or(p),
        };
        if st.gnutella_hits > 0 || !st.pier_items.is_empty() {
            answered += 1;
            if let Some(t) = first {
                out.first_result_s.push((t - st.issued_at).as_secs_f64());
            }
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let events = sim.event_stats();
    out.summary = vec![
        (
            "zero_result_reduction_pct".into(),
            100.0 * saved_by_pier as f64 / zero_gnutella.max(1) as f64,
        ),
        ("avg_gnutella_first_s".into(), avg(&gnutella_first)),
        ("avg_pier_exec_s".into(), avg(&pier_exec)),
        ("files_published".into(), published as f64),
        ("events_processed".into(), events.processed as f64),
    ];
    let recall = ratio(answered as f64, stats2.len() as f64);
    out.sim_recall = recall;
    out.check((0.0..=1.0).contains(&recall), || format!("recall {recall} outside [0,1]"));
    out.work = events.processed - events_at_setup;
    let run = sim.metrics().snapshot().diff(&baseline);
    out.sim_msgs = run.total_messages;
    out.sim_bytes = run.total_bytes;

    let mem = sim.mem_stats();
    let mut ledger = Ledger::default();
    ledger.absorb(sim.metrics_mut(), &baseline, events, &mem);
    let ops = out.attempted;
    ledger.rows(ops, &mut out);
    out.count("hybrid.files_published", published as f64);
    out.count("hybrid.pier_fallback_share", ratio(fell_back as f64, stats2.len() as f64));
    out.count("hybrid.rescued_share", ratio(saved_by_pier as f64, zero_gnutella as f64));
    out.count("hybrid.pier_false_matches", false_matches as f64);
    out.count("vocab.terms", pier_vocab::vocab_len() as f64);
    sp.exit(analysis);
    sp.span("bench.teardown", NO_OP, || drop(sim));
    out
}
