//! `churn_refresh`: the four arms of the `churn` experiment (static,
//! churn without refresh, churn with soft-state refresh at two intervals),
//! composed from the DHT / PIERSearch / churn-driver public pieces.

use super::{Ledger, Outcome};
use crate::spans::{Spans, NO_OP};
use pier_bench::experiments::churn::{is_monotone_decay, ChurnConfig};
use pier_churn::{ChurnDriver, ChurnPlan};
use pier_dht::{
    bootstrap, Contact, CtxNet, DhtApp, DhtConfig, DhtCore, DhtEvent, DhtMsg, DhtNet, DhtNode, Key,
    OpId,
};
use pier_netsim::{derive_seed, NodeId, Sim, SimConfig, SimDuration, SimTime, UniformLatency};
use pier_qp::Value;
use pier_workload::{Catalog, CatalogConfig};
use piersearch::{item_table, IndexMode, PierSearchApp, PierSearchNode};
use std::collections::HashMap;
use std::time::Instant;

/// One arm's maintenance policy, in the experiment's order (the position
/// feeds the arm's derived simulation seed).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arm {
    Static,
    NoRefresh,
    RefreshSlow,
    RefreshFast,
}

const ARMS: [Arm; 4] = [Arm::Static, Arm::NoRefresh, Arm::RefreshSlow, Arm::RefreshFast];

impl Arm {
    fn refresh(self, cfg: &ChurnConfig) -> Option<SimDuration> {
        match self {
            Arm::Static | Arm::NoRefresh => None,
            Arm::RefreshSlow => Some(cfg.refresh_slow),
            Arm::RefreshFast => Some(cfg.refresh_fast),
        }
    }
}

/// The measurement probe: a plain DHT participant that keeps every `get`
/// completion with the simulated time it arrived.
#[derive(Default)]
struct Probe {
    done: Vec<(OpId, SimTime, bool)>,
}

impl DhtApp for Probe {
    fn on_event(&mut self, _dht: &mut DhtCore, net: &mut dyn DhtNet, event: DhtEvent) {
        if let DhtEvent::GetDone { op, values, .. } = event {
            self.done.push((op, net.now(), !values.is_empty()));
        }
    }
}

struct ArmResult {
    checkpoints: Vec<f64>,
    fetch_recall: f64,
    publish_kib_node_min: f64,
}

pub fn run(cfg: &ChurnConfig, master: u64, setup_only: bool, sp: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    // Every arm runs (a set-up-only pass sets up all four) before any
    // `None` is looked at.
    let arms: Vec<Option<ArmResult>> = ARMS
        .iter()
        .map(|&arm| run_arm(cfg, master, arm, setup_only, sp, &mut out, &mut ledger))
        .collect();
    let Some(arms) = arms.into_iter().collect::<Option<Vec<ArmResult>>>() else {
        return out;
    };

    let analysis = sp.enter("bench.analysis", NO_OP);
    let end = |arm: Arm| *arms[arm as usize].checkpoints.last().expect("checkpoint 0 exists");
    let fast = &arms[Arm::RefreshFast as usize];
    let none = &arms[Arm::NoRefresh as usize];
    // The same keys, in the same order, as `churn::trial`.
    out.summary = vec![
        ("recall_static_end".into(), end(Arm::Static)),
        ("recall_norefresh_end".into(), end(Arm::NoRefresh)),
        ("recall_refresh_slow_end".into(), end(Arm::RefreshSlow)),
        ("recall_refresh_fast_end".into(), end(Arm::RefreshFast)),
        ("norefresh_monotone".into(), is_monotone_decay(&none.checkpoints) as u64 as f64),
        ("refresh_fast_over_static".into(), end(Arm::RefreshFast) / end(Arm::Static).max(1e-9)),
        ("fetch_recall_norefresh".into(), none.fetch_recall),
        ("fetch_recall_refresh_fast".into(), fast.fetch_recall),
        ("publish_kib_node_min_norefresh".into(), none.publish_kib_node_min),
        (
            "publish_kib_node_min_refresh_slow".into(),
            arms[Arm::RefreshSlow as usize].publish_kib_node_min,
        ),
        ("publish_kib_node_min_refresh_fast".into(), fast.publish_kib_node_min),
        ("total_messages".into(), ledger.total.total_messages as f64),
        ("total_bytes".into(), ledger.total.total_bytes as f64),
        ("events_processed".into(), ledger.events as f64),
    ];
    out.sim_recall = fast.fetch_recall;
    for a in &arms {
        let series_ok = a.checkpoints.iter().all(|r| (0.0..=1.0).contains(r));
        out.check(series_ok && (0.0..=1.0).contains(&a.fetch_recall), || {
            format!("recall outside [0,1]: {:?} / {}", a.checkpoints, a.fetch_recall)
        });
    }
    out.sim_msgs = ledger.run.total_messages;
    out.sim_bytes = ledger.run.total_bytes;
    let ops = out.attempted;
    ledger.rows(ops, &mut out);
    out.count("vocab.terms", pier_vocab::vocab_len() as f64);
    sp.exit(analysis);
    out
}

/// One arm (`None` when only its set-up was asked for). Everything derives
/// from `(cfg, master, arm)`; the churn schedule seed is shared by all
/// churned arms so they face identical membership dynamics.
fn run_arm(
    cfg: &ChurnConfig,
    master: u64,
    arm: Arm,
    setup_only: bool,
    sp: &mut Spans,
    out: &mut Outcome,
    ledger: &mut Ledger,
) -> Option<ArmResult> {
    // ---- set-up: overlay, warm-up, corpus --------------------------------
    let t0 = Instant::now();
    let setup = sp.enter("bench.setup", NO_OP);
    let sim_cfg = SimConfig::with_seed(derive_seed(master, 0x0A + arm as u64))
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)));
    let mut sim: Sim<DhtMsg> = Sim::new(sim_cfg);
    let dht_cfg = DhtConfig {
        k: 8,
        alpha: 3,
        replication: 2,
        rpc_timeout: SimDuration::from_millis(900),
        value_ttl: cfg.value_ttl,
        tick: SimDuration::from_millis(250),
        bucket_refresh: SimDuration::from_secs(30),
        ..DhtConfig::default()
    };
    // Warm-start overlay: N PIERSearch nodes + the probe.
    let total = cfg.nodes + 1;
    let contacts: Vec<Contact> =
        (0..total as u32).map(|i| Contact::for_node(NodeId::new(i))).collect();
    let boot = sp.enter("dht.bootstrap", NO_OP);
    let mut ids = Vec::with_capacity(cfg.nodes);
    for c in &contacts[..cfg.nodes] {
        let mut core = DhtCore::new(dht_cfg.clone(), *c);
        bootstrap::fill_table(core.table_mut(), &contacts, 4);
        let mut app = PierSearchApp::new(IndexMode::Inverted);
        app.publisher.refresh_interval = arm.refresh(cfg);
        ids.push(sim.add_node(DhtNode::new(core, app, None)));
    }
    let probe = {
        let mut core = DhtCore::new(dht_cfg.clone(), contacts[cfg.nodes]);
        bootstrap::fill_table(core.table_mut(), &contacts, 4);
        sim.add_node(DhtNode::new(core, Probe::default(), None))
    };
    sp.exit(boot);
    sp.span("netsim.run", NO_OP, || sim.run_for(SimDuration::from_secs(5)));
    // The corpus: seeded catalog filenames, published from the stable set.
    let catalog = sp.span("workload.catalog", NO_OP, || {
        Catalog::generate(CatalogConfig {
            hosts: cfg.files,
            distinct_files: cfg.files,
            max_replicas: 4,
            vocab: (cfg.files / 2).max(120),
            phrases: (cfg.files / 4).max(40),
            seed: derive_seed(master, 0xCA7),
            ..Default::default()
        })
    });
    sp.exit(setup);
    out.setup_s += t0.elapsed().as_secs_f64();
    if setup_only {
        return None;
    }
    let baseline = sim.metrics().snapshot();
    let events_at_setup = sim.event_stats().processed;

    // ---- publish ----------------------------------------------------------
    let inject = sp.enter("bench.replay_inject", NO_OP);
    let mut item_keys = Vec::with_capacity(cfg.files);
    let item = item_table();
    for i in 0..cfg.files {
        let name = catalog.files[i].name.as_str();
        let size = 1_000_000 + i as u64;
        let publisher = ids[i % cfg.publishers];
        let shipped = sp.span("piersearch.publish_call", i as u64, || {
            sim.with_actor_ctx::<PierSearchNode, _>(publisher, |node, ctx| {
                let mut net = CtxNet { ctx };
                let host = net.ctx.self_id();
                node.app.publisher.publish_file(
                    &mut node.app.pier,
                    &mut node.core,
                    &mut net,
                    name,
                    size,
                    host,
                    6346,
                )
            })
        });
        out.attempted += 1;
        out.failed += u64::from(shipped.is_none());
        item_keys.push(
            item.publish_key_for(&Value::Key(piersearch::file_id(name, size, publisher, 6346))),
        );
        sp.span("netsim.run", NO_OP, || sim.run_for(SimDuration::from_millis(80)));
    }
    sp.exit(inject);
    let drain = sp.enter("bench.replay_drain", NO_OP);
    sp.span("netsim.run", NO_OP, || sim.run_for(SimDuration::from_secs(10)));

    // Storage-level recall: a file counts while any live node holds its
    // Item tuple (the always-up probe is an owner candidate too).
    let storage_recall = |sim: &Sim<DhtMsg>| -> f64 {
        let now = sim.now();
        let held = item_keys
            .iter()
            .filter(|key| {
                ids.iter().any(|&id| {
                    sim.is_up(id)
                        && !sim.actor::<PierSearchNode>(id).core.storage().get(key, now).is_empty()
                }) || !sim.actor::<DhtNode<Probe>>(probe).core.storage().get(key, now).is_empty()
            })
            .count();
        held as f64 / item_keys.len() as f64
    };

    // ---- the churn window ---------------------------------------------------
    let churned: Vec<NodeId> = ids[cfg.publishers..].to_vec();
    let mut driver = (arm != Arm::Static).then(|| {
        sp.span("churn.plan", NO_OP, || {
            ChurnDriver::plan(
                &churned,
                &ChurnPlan {
                    session: cfg.session,
                    start: sim.now(),
                    horizon: cfg.run,
                    seed: derive_seed(master, 0xC0FF),
                },
            )
        })
    });
    let scheduled = driver.as_ref().map_or(0, |d| d.remaining());
    let window_start = sim.now();
    let publish_baseline = sim.metrics().snapshot();
    let mut checkpoints = vec![sp.span("dht.storage_scan", NO_OP, || storage_recall(&sim))];
    let steps = (cfg.run.as_micros() / cfg.checkpoint.as_micros()).max(1);
    for k in 1..=steps {
        let t = window_start + SimDuration::from_micros(cfg.checkpoint.as_micros() * k);
        match &mut driver {
            // `advance` runs the kernel itself between membership flips;
            // from outside the two cannot be told apart.
            Some(d) => sp.span("churn.advance", NO_OP, || d.advance(&mut sim, t, &mut ())),
            None => sp.span("netsim.run", NO_OP, || sim.run_until(t)),
        }
        checkpoints.push(sp.span("dht.storage_scan", NO_OP, || storage_recall(&sim)));
    }
    let applied = scheduled - driver.as_ref().map_or(0, |d| d.remaining());
    out.count("churn.transitions", applied as f64);
    let publish_delta = sim.metrics().snapshot().diff(&publish_baseline);
    let publish_bytes: u64 = ["dht.route_store", "dht.req.store", "dht.resp.store_ack"]
        .iter()
        .map(|c| publish_delta.counter(c).bytes)
        .sum();
    let publish_kib_node_min =
        publish_bytes as f64 / 1024.0 / cfg.nodes as f64 / (cfg.run.as_secs_f64() / 60.0);
    sp.exit(drain);

    // ---- end-of-run lookup recall through the probe ----------------------------
    let inject = sp.enter("bench.replay_inject", NO_OP);
    let mut issued: HashMap<OpId, (usize, SimTime)> = HashMap::with_capacity(item_keys.len());
    for (i, key) in item_keys.iter().enumerate() {
        let key: Key = *key;
        let at = sim.now();
        let op = sp.span("dht.get_call", (cfg.files + i) as u64, || {
            sim.with_actor_ctx::<DhtNode<Probe>, _>(probe, |node, ctx| {
                let mut net = CtxNet { ctx };
                node.core.get(&mut net, key)
            })
        });
        issued.insert(op, (i, at));
        sp.span("netsim.run", NO_OP, || sim.run_for(SimDuration::from_millis(60)));
    }
    sp.exit(inject);
    let drain = sp.enter("bench.replay_drain", NO_OP);
    sp.span("netsim.run", NO_OP, || sim.run_for(SimDuration::from_secs(45)));
    sp.exit(drain);

    let collect = sp.enter("bench.replay_collect", NO_OP);
    let mut completed = vec![false; item_keys.len()];
    let mut found = vec![false; item_keys.len()];
    for &(op, at, has_values) in &sim.actor::<DhtNode<Probe>>(probe).app.done {
        let Some(&(i, issued_at)) = issued.get(&op) else { continue };
        completed[i] = true;
        if has_values {
            found[i] = true;
            out.first_result_s.push((at - issued_at).as_secs_f64());
        }
    }
    out.attempted += item_keys.len() as u64;
    for i in 0..item_keys.len() {
        // A `get` must complete; on the static overlay it must also find.
        if !completed[i] || (arm == Arm::Static && !found[i]) {
            out.failed += 1;
        }
    }
    let fetch_recall = found.iter().filter(|f| **f).count() as f64 / item_keys.len() as f64;
    sp.exit(collect);

    let events = sim.event_stats();
    out.work += events.processed - events_at_setup;
    let mem = sim.mem_stats();
    ledger.absorb(sim.metrics_mut(), &baseline, events, &mem);
    Some(ArmResult { checkpoints, fetch_recall, publish_kib_node_min })
}
