//! `flood_replay` / `flood_replay_s2`: the Gnutella measurement lab —
//! `Lab::build` + `Lab::replay` + `horizon::summarize`, composed from the
//! same public pieces so every call into a layer can carry a span.

use super::{Ledger, Outcome, Replicas};
use crate::spans::{Spans, NO_OP};
use pier_bench::experiments::horizon::{self, HorizonData};
use pier_bench::lab::{LabConfig, VantageResult};
use pier_gnutella::{
    spawn_stores, CtxGnutellaNet, FileMeta, FileStore, GnutellaHandles, GnutellaMsg, Guid,
    QueryOrigin, ShareCatalog, Terms, Topology, TopologyConfig, UltrapeerNode,
};
use pier_netsim::{KernelProbe, NodeId, Sim, SimConfig, SimDuration, SimTime, UniformLatency};
use pier_workload::{Catalog, CatalogConfig, Evaluator, QueryConfig, QueryTrace};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

pub struct FloodParams {
    pub lab: LabConfig,
    /// Queries injected per simulated second.
    pub inject_rate_per_s: f64,
}

/// One full build + replay, or (`setup_only`) just the build, for timing
/// set-up alone. `probe` (traced runs only) is installed on the kernel
/// before the first event runs.
pub fn run(
    p: &FloodParams,
    setup_only: bool,
    sp: &mut Spans,
    probe: Option<Arc<dyn KernelProbe>>,
) -> Outcome {
    let t0 = Instant::now();
    let cfg = &p.lab;
    let mut out = Outcome::default();

    // ---- set-up: what `Lab::build` does ---------------------------------
    let setup = sp.enter("bench.setup", NO_OP);
    let topo = sp.span("gnutella.topology", NO_OP, || {
        Topology::generate(&TopologyConfig {
            ultrapeers: cfg.ultrapeers,
            leaves: cfg.leaves,
            old_style_fraction: cfg.old_style_fraction,
            leaf_ups: cfg.leaf_ups,
            seed: cfg.seed,
        })
    });
    let catalog = sp.span("workload.catalog", NO_OP, || {
        Catalog::generate(CatalogConfig {
            hosts: cfg.leaves,
            distinct_files: cfg.distinct_files,
            max_replicas: (cfg.leaves / 10).max(50),
            vocab: (cfg.distinct_files / 3).max(500),
            phrases: (cfg.distinct_files / 8).max(200),
            seed: cfg.seed ^ 0xCAFE,
            ..Default::default()
        })
    });
    let trace = sp.span("workload.query_trace", NO_OP, || {
        QueryTrace::generate(
            &catalog,
            QueryConfig { queries: cfg.queries, seed: cfg.seed ^ 0xBEEF, ..Default::default() },
        )
    });
    let (up_stores, leaf_stores) = sp.span("gnutella.stores", NO_OP, || {
        let share_catalog = Arc::new(ShareCatalog::build(
            catalog
                .files
                .iter()
                .enumerate()
                .map(|(fi, f)| FileMeta::new(&f.name, 1_000_000 + fi as u64)),
        ));
        let leaf_stores: Vec<FileStore> = catalog
            .host_files
            .iter()
            .map(|files| {
                FileStore::shared(Arc::clone(&share_catalog), files.clone().into_boxed_slice())
            })
            .collect();
        let up_stores: Vec<FileStore> = (0..cfg.ultrapeers).map(|_| FileStore::default()).collect();
        (up_stores, leaf_stores)
    });
    let sim_cfg = SimConfig::with_seed(cfg.seed)
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(90)))
        .shards(cfg.shards);
    let mut sim: Sim<GnutellaMsg> = Sim::new(sim_cfg);
    let handles =
        sp.span("gnutella.spawn", NO_OP, || spawn_stores(&mut sim, &topo, up_stores, leaf_stores));
    if let Some(probe) = probe {
        sim.set_probe(probe);
    }
    // QRP propagation.
    sp.span("gnutella.qrp_warmup", NO_OP, || sim.run_for(SimDuration::from_secs(3)));
    let vantages = pick_vantages(cfg, &handles, &topo);
    let vantage_degrees: Vec<usize> =
        vantages.iter().map(|&v| topo.up_profiles[up_index(&handles, v)].up_neighbors).collect();
    sp.exit(setup);
    out.setup_s = t0.elapsed().as_secs_f64();
    if setup_only {
        return out;
    }
    let baseline = sim.metrics().snapshot();
    let events_at_setup = sim.event_stats().processed;

    // ---- run: what `Lab::replay` does -----------------------------------
    let gap = SimDuration::from_secs_f64(1.0 / p.inject_rate_per_s);
    let drain = SimDuration::from_secs(120);
    let inject = sp.enter("bench.replay_inject", NO_OP);
    let mut guids: Vec<Vec<(NodeId, Guid, SimTime)>> = Vec::with_capacity(trace.queries.len());
    let mut op = 0u64;
    for q in &trace.queries {
        let terms = Terms::from_ids(q.terms.clone());
        let mut per_vantage = Vec::with_capacity(vantages.len());
        for &v in &vantages {
            let issued = sim.now();
            let guid = sp.span("gnutella.start_query", op, || {
                sim.with_actor_ctx::<UltrapeerNode, _>(v, |up, ctx| {
                    let mut net = CtxGnutellaNet { ctx };
                    up.core.start_query(&mut net, terms.clone(), QueryOrigin::Driver)
                })
            });
            per_vantage.push((v, guid, issued));
            op += 1;
        }
        guids.push(per_vantage);
        sp.span("netsim.run", NO_OP, || sim.run_for(gap));
    }
    sp.exit(inject);
    let drain_phase = sp.enter("bench.replay_drain", NO_OP);
    sp.span("netsim.run", NO_OP, || sim.run_for(drain));
    sp.exit(drain_phase);

    let collect = sp.enter("bench.replay_collect", NO_OP);
    let mut op = 0u64;
    let mut per_query: Vec<Vec<VantageResult>> = Vec::with_capacity(guids.len());
    for per_vantage in guids {
        let mut row = Vec::with_capacity(per_vantage.len());
        for (v, guid, issued) in per_vantage {
            out.attempted += 1;
            let rec = sp.span("gnutella.take_query", op, || {
                sim.actor_mut::<UltrapeerNode>(v).core.take_query(guid)
            });
            op += 1;
            let Some(rec) = rec else {
                out.failed += 1;
                row.push(VantageResult { results: Vec::new(), first_hit: None });
                continue;
            };
            let mut seen = HashSet::new();
            let results: Vec<(Arc<str>, NodeId)> = rec
                .hits
                .iter()
                .filter(|h| seen.insert((h.file.name.clone(), h.host)))
                .map(|h| (h.file.name.clone(), h.host))
                .collect();
            row.push(VantageResult { results, first_hit: rec.first_hit_at.map(|t| t - issued) });
        }
        per_query.push(row);
    }
    sp.exit(collect);
    out.collected_s = t0.elapsed().as_secs_f64();

    // ---- analysis: ground truth, summary, counters ------------------------
    let analysis = sp.enter("bench.analysis", NO_OP);
    let eval = sp.span("workload.evaluator_build", NO_OP, || Evaluator::new(&catalog));
    let replicas = Replicas::new(&catalog, handles.leaves[0]);
    for (qi, (q, row)) in trace.queries.iter().zip(&per_query).enumerate() {
        let truth = sp.span("workload.eval", qi as u64, || eval.eval(q));
        for v in row {
            // A returned (file, host) is true iff that host really holds a
            // replica of the file and the file matches the query.
            let all_true = v.results.iter().all(|(name, host)| {
                replicas
                    .replica(name, *host)
                    .is_some_and(|fi| truth.files.binary_search(&fi).is_ok())
            });
            if !all_true {
                out.failed += 1;
            }
            if let Some(d) = v.first_hit {
                out.first_result_s.push(d.as_secs_f64());
            }
        }
    }
    let events = sim.event_stats();
    let data =
        HorizonData { per_query, vantage_degrees, metrics: sim.metrics().snapshot(), events };
    let summary = horizon::summarize(&data);
    out.summary = summary.iter().map(|(k, v)| (k.to_string(), v)).collect();
    let zero_union = summary.get("zero_union").expect("summarize reports zero_union");
    let recall = 1.0 - zero_union / 100.0;
    out.sim_recall = recall;
    out.check((0.0..=1.0).contains(&recall), || format!("recall {recall} outside [0,1]"));
    out.work = events.processed - events_at_setup;
    let run = data.metrics.diff(&baseline);
    out.sim_msgs = run.total_messages;
    out.sim_bytes = run.total_bytes;

    let mem = sim.mem_stats();
    let mut ledger = Ledger::default();
    ledger.absorb(sim.metrics_mut(), &baseline, events, &mem);
    let ops = out.attempted;
    ledger.rows(ops, &mut out);
    out.count("vocab.terms", pier_vocab::vocab_len() as f64);
    sp.exit(analysis);
    // Freeing 88k boxed actors is part of the wall; give it a name.
    sp.span("bench.teardown", NO_OP, || drop(sim));
    out
}

/// `Lab::build`'s vantage choice: evenly stepped ultrapeers, with one
/// new-style and one old-style profile forced in when asked.
fn pick_vantages(cfg: &LabConfig, handles: &GnutellaHandles, topo: &Topology) -> Vec<NodeId> {
    let mut vantages: Vec<NodeId> = handles
        .ups
        .iter()
        .copied()
        .step_by(cfg.ultrapeers / cfg.vantages)
        .take(cfg.vantages)
        .collect();
    if cfg.mixed_profile_vantages {
        ensure_profile(&mut vantages, handles, topo, |n| n >= 32, 0);
        ensure_profile(&mut vantages, handles, topo, |n| n < 32, 1);
    }
    vantages
}

fn up_index(handles: &GnutellaHandles, v: NodeId) -> usize {
    handles.ups.iter().position(|u| *u == v).expect("vantage is an ultrapeer")
}

fn ensure_profile(
    vantages: &mut [NodeId],
    handles: &GnutellaHandles,
    topo: &Topology,
    wanted: impl Fn(usize) -> bool,
    slot: usize,
) {
    let degree_of = |v: NodeId| topo.up_profiles[up_index(handles, v)].up_neighbors;
    if vantages.iter().any(|&v| wanted(degree_of(v))) {
        return;
    }
    let replacement =
        handles.ups.iter().copied().find(|&u| wanted(degree_of(u)) && !vantages.contains(&u));
    if let Some(candidate) = replacement {
        let idx = vantages.len() - 1 - slot;
        vantages[idx] = candidate;
    }
}
