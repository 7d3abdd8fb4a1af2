//! `repro churn` — recall under churn: the §5 soft-state tradeoff.
//!
//! §5 of the paper argues that DHT publishing of rare items only works if
//! its soft state survives Gnutella-scale membership churn: postings carry
//! a TTL and must be refreshed at an interval that undercuts the median
//! session lifetime, and every refresh costs publish bandwidth. This
//! experiment reproduces that tradeoff end-to-end on the simulated
//! overlay:
//!
//! * a PIERSearch overlay of N nodes; a small stable publisher set pushes
//!   a seeded catalog of files (Item + posting tuples) into the DHT;
//! * the storage fabric churns under heavy-tailed median-minutes sessions
//!   ([`pier_churn::ChurnDriver`]); a leaving node takes its replicas
//!   with it ([`pier_dht` session semantics]);
//! * four arms per trial: a static-topology baseline, churn without
//!   refresh, and churn with the Publisher's soft-state loop at two
//!   refresh intervals — all sharing one churn schedule, catalog, and
//!   per-arm derived seeds, so the *only* difference is the maintenance
//!   policy.
//!
//! The §5 signature, asserted by this module's tests: without refresh,
//! recall decays monotonically as holders depart; with a refresh interval
//! at or below the median session lifetime, end-of-run recall stays
//! within 10% of the static baseline — at the cost of a multiplied
//! per-node publish bandwidth.

use crate::experiments::Report;
use crate::lab::{Scale, DEFAULT_SEED};
use crate::output::{f, s, Table};
use crate::sweep::Summary;
use pier_churn::{ChurnDriver, ChurnPlan, LifetimeDist, SessionConfig};
use pier_dht::{
    bootstrap, Contact, DhtApp, DhtConfig, DhtCore, DhtEvent, DhtMsg, DhtNet, DhtNode, Key,
};
use pier_netsim::{
    derive_seed, EventStats, MetricsSnapshot, NodeId, Sim, SimConfig, SimDuration, UniformLatency,
};
use pier_qp::Value;
use pier_trace::Obs;
use pier_workload::{Catalog, CatalogConfig};
use piersearch::{item_table, IndexMode, PierSearchApp, PierSearchNode};
use std::collections::HashSet;

/// Per-scale knobs. Sessions and intervals are held constant across
/// scales (the churn *rate* is a property of the population, not of its
/// size); scale grows the overlay and corpus.
pub struct ChurnConfig {
    /// Overlay size, excluding the measurement probe.
    pub nodes: usize,
    /// Stable publisher nodes (the paper's always-on hybrid-ultrapeer
    /// role); the rest of the overlay churns.
    pub publishers: usize,
    /// Files published (one Item + one posting per keyword each).
    pub files: usize,
    /// Churn window length.
    pub run: SimDuration,
    /// Recall checkpoint spacing.
    pub checkpoint: SimDuration,
    /// Session profile of the churned storage fabric.
    pub session: SessionConfig,
    /// Value TTL (the soft-state bound; outlives `run` so the static arm
    /// is flat and decay under churn is attributable to departures).
    pub value_ttl: SimDuration,
    /// The two refresh intervals measured against the no-refresh arm.
    pub refresh_slow: SimDuration,
    pub refresh_fast: SimDuration,
}

impl ChurnConfig {
    pub fn at(scale: Scale) -> ChurnConfig {
        let (nodes, publishers, files) = match scale {
            Scale::Quick => (40, 6, 100),
            Scale::Sparse => (72, 8, 200),
            Scale::Full => (144, 12, 400),
            Scale::Metro | Scale::MetroLite => (288, 16, 800),
        };
        ChurnConfig {
            nodes,
            publishers,
            files,
            run: SimDuration::from_secs(420),
            checkpoint: SimDuration::from_secs(60),
            // Median-minutes Gnutella sessions: 150 s median lifetime
            // (heavy-tailed, σ = 1), 60 s median downtime.
            session: SessionConfig {
                lifetime: LifetimeDist { median_s: 150.0, sigma: 1.0 },
                downtime: LifetimeDist { median_s: 60.0, sigma: 0.75 },
            },
            value_ttl: SimDuration::from_secs(900),
            refresh_slow: SimDuration::from_secs(60),
            refresh_fast: SimDuration::from_secs(30),
        }
    }
}

/// One arm's maintenance policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arm {
    Static,
    NoRefresh,
    RefreshSlow,
    RefreshFast,
}

impl Arm {
    const ALL: [Arm; 4] = [Arm::Static, Arm::NoRefresh, Arm::RefreshSlow, Arm::RefreshFast];

    fn label(self) -> &'static str {
        match self {
            Arm::Static => "static",
            Arm::NoRefresh => "churn_norefresh",
            Arm::RefreshSlow => "churn_refresh_slow",
            Arm::RefreshFast => "churn_refresh_fast",
        }
    }

    fn churns(self) -> bool {
        self != Arm::Static
    }

    fn refresh(self, cfg: &ChurnConfig) -> Option<SimDuration> {
        match self {
            Arm::Static | Arm::NoRefresh => None,
            Arm::RefreshSlow => Some(cfg.refresh_slow),
            Arm::RefreshFast => Some(cfg.refresh_fast),
        }
    }
}

/// The measurement probe: a plain DHT participant that records raw events
/// (end-of-run `get`s resolve through it).
#[derive(Default)]
struct Probe {
    events: Vec<DhtEvent>,
}

impl DhtApp for Probe {
    fn on_event(&mut self, _dht: &mut DhtCore, _net: &mut dyn DhtNet, event: DhtEvent) {
        self.events.push(event);
    }
}

/// One arm's measurements.
struct ArmResult {
    /// Fraction of files whose Item tuple is held by ≥ 1 live node, per
    /// checkpoint (index 0 is the pre-churn state).
    checkpoints: Vec<f64>,
    /// End-of-run lookup recall: fraction of files a live probe's `get`
    /// actually retrieves through the (possibly churn-damaged) overlay.
    fetch_recall: f64,
    /// Publish-path bandwidth (`dht.route_store`) per node per minute of
    /// the churn window, in KiB.
    publish_kib_node_min: f64,
    metrics: MetricsSnapshot,
    events: EventStats,
}

/// Run one arm. Everything derives from `(cfg, master, arm)`; the churn
/// schedule seed is shared by all churned arms so they face identical
/// membership dynamics.
fn run_arm(cfg: &ChurnConfig, master: u64, arm: Arm, shards: usize) -> ArmResult {
    let sim_cfg = SimConfig::with_seed(derive_seed(master, 0x0A + arm as u64))
        .latency(UniformLatency::new(SimDuration::from_millis(20), SimDuration::from_millis(80)))
        .shards(shards);
    let mut sim: Sim<DhtMsg> = Sim::new(sim_cfg);

    let dht_cfg = DhtConfig {
        k: 8,
        alpha: 3,
        replication: 2,
        rpc_timeout: SimDuration::from_millis(900),
        value_ttl: cfg.value_ttl,
        tick: SimDuration::from_millis(250),
        bucket_refresh: SimDuration::from_secs(30),
    };

    // Warm-start overlay: N PIERSearch nodes + the probe.
    let total = cfg.nodes + 1;
    let contacts: Vec<Contact> =
        (0..total as u32).map(|i| Contact::for_node(NodeId::new(i))).collect();
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
    sim.run_for(SimDuration::from_secs(5));

    // The corpus: seeded catalog filenames, published from the stable set.
    let catalog = Catalog::generate(CatalogConfig {
        hosts: cfg.files,
        distinct_files: cfg.files,
        max_replicas: 4,
        vocab: (cfg.files / 2).max(120),
        phrases: (cfg.files / 4).max(40),
        seed: derive_seed(master, 0xCA7),
    });
    let mut item_keys = Vec::with_capacity(cfg.files);
    let item = item_table();
    for i in 0..cfg.files {
        let name = catalog.files[i].name.clone();
        let size = 1_000_000 + i as u64;
        let publisher = ids[i % cfg.publishers];
        sim.with_actor_ctx::<PierSearchNode, _>(publisher, |node, ctx| {
            let mut net = pier_dht::CtxNet { ctx };
            let host = net.ctx.self_id();
            node.app.publisher.publish_file(
                &mut node.app.pier,
                &mut node.core,
                &mut net,
                &name,
                size,
                host,
                6346,
            );
        });
        item_keys.push(
            item.publish_key_for(&Value::Key(piersearch::file_id(&name, size, publisher, 6346))),
        );
        sim.run_for(SimDuration::from_millis(80));
    }
    sim.run_for(SimDuration::from_secs(10));

    // Storage-level recall: a file counts while any live node holds its
    // Item tuple (the always-up probe is an owner candidate too). Copies
    // only disappear under churn-without-refresh (leaving holders drop
    // them), so this measure is exactly monotone.
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

    // The churn window: the storage fabric (everything but publishers)
    // cycles sessions; the schedule seed is arm-independent.
    let churned: Vec<NodeId> = ids[cfg.publishers..].to_vec();
    let mut driver = arm.churns().then(|| {
        ChurnDriver::plan(
            &churned,
            &ChurnPlan {
                session: cfg.session,
                start: sim.now(),
                horizon: cfg.run,
                seed: derive_seed(master, 0xC0FF),
            },
        )
    });

    let window_start = sim.now();
    // Publish-path traffic: the recursive store (first publish) plus the
    // store-carrying RPCs of the replicated refresh put. The refresh
    // lookup's FIND_NODE share is indistinguishable from bucket refreshes
    // and deliberately excluded.
    let publish_baseline = sim.metrics().snapshot();

    let mut checkpoints = vec![storage_recall(&sim)];
    let steps = (cfg.run.as_micros() / cfg.checkpoint.as_micros()).max(1);
    for k in 1..=steps {
        let t = window_start + SimDuration::from_micros(cfg.checkpoint.as_micros() * k);
        match &mut driver {
            Some(d) => d.advance(&mut sim, t, &mut ()),
            None => sim.run_until(t),
        }
        checkpoints.push(storage_recall(&sim));
    }
    let publish_delta = sim.metrics().snapshot().diff(&publish_baseline);
    let publish_bytes: u64 = ["dht.route_store", "dht.req.store", "dht.resp.store_ack"]
        .iter()
        .map(|c| publish_delta.counter(c).bytes)
        .sum();
    let publish_kib_node_min =
        publish_bytes as f64 / 1024.0 / cfg.nodes as f64 / (cfg.run.as_secs_f64() / 60.0);

    // End-of-run lookup recall through the probe.
    for key in &item_keys {
        let key = *key;
        sim.with_actor_ctx::<DhtNode<Probe>, _>(probe, |node, ctx| {
            let mut net = pier_dht::CtxNet { ctx };
            node.core.get(&mut net, key);
        });
        sim.run_for(SimDuration::from_millis(60));
    }
    sim.run_for(SimDuration::from_secs(45));
    let found: HashSet<Key> = sim
        .actor::<DhtNode<Probe>>(probe)
        .app
        .events
        .iter()
        .filter_map(|e| match e {
            DhtEvent::GetDone { key, values, .. } if !values.is_empty() => Some(*key),
            _ => None,
        })
        .collect();
    let fetch_recall =
        item_keys.iter().filter(|k| found.contains(k)).count() as f64 / item_keys.len() as f64;

    ArmResult {
        checkpoints,
        fetch_recall,
        publish_kib_node_min,
        metrics: sim.metrics().snapshot(),
        events: sim.event_stats(),
    }
}

/// All four arms of one trial.
pub struct ChurnData {
    pub cfg: ChurnConfig,
    arms: Vec<(Arm, ArmResult)>,
}

impl ChurnData {
    fn arm(&self, arm: Arm) -> &ArmResult {
        &self.arms.iter().find(|(a, _)| *a == arm).expect("all arms run").1
    }

    /// Kernel accounting summed over all four arms' simulations.
    pub fn events(&self) -> EventStats {
        let mut total = EventStats::default();
        for (_, r) in &self.arms {
            total.pending += r.events.pending;
            total.peak_pending += r.events.peak_pending;
            total.processed += r.events.processed;
        }
        total
    }
}

/// All four arms with every random choice derived from `master`, each on a
/// `shards`-way kernel. Results are bit-identical for any shard count.
pub fn collect(scale: Scale, master: u64, shards: usize) -> ChurnData {
    let cfg = ChurnConfig::at(scale);
    let arms = Arm::ALL.iter().map(|&a| (a, run_arm(&cfg, master, a, shards))).collect();
    ChurnData { cfg, arms }
}

/// Is a checkpoint series monotone non-increasing?
pub fn is_monotone_decay(series: &[f64]) -> bool {
    series.windows(2).all(|w| w[1] <= w[0] + 1e-12)
}

pub fn run(scale: Scale, shards: usize, _obs: &Obs) -> Report {
    let data = collect(scale, DEFAULT_SEED, shards);
    let mut curve = Table::new(
        "Churn: DHT recall over time (fraction of published files held by a live node)",
        &["t_s", "static", "no_refresh", "refresh_60s", "refresh_30s"],
    );
    let n = data.arm(Arm::Static).checkpoints.len();
    for k in 0..n {
        curve.row(vec![
            s(k as u64 * data.cfg.checkpoint.as_micros() / 1_000_000),
            f(data.arm(Arm::Static).checkpoints[k], 3),
            f(data.arm(Arm::NoRefresh).checkpoints[k], 3),
            f(data.arm(Arm::RefreshSlow).checkpoints[k], 3),
            f(data.arm(Arm::RefreshFast).checkpoints[k], 3),
        ]);
    }

    let mut cost = Table::new(
        "Churn: the §5 tradeoff — refresh holds recall, at publish-bandwidth cost",
        &["arm", "end_recall", "fetch_recall", "publish_KiB/node/min"],
    );
    for &arm in &Arm::ALL {
        let r = data.arm(arm);
        cost.row(vec![
            s(arm.label()),
            f(*r.checkpoints.last().unwrap(), 3),
            f(r.fetch_recall, 3),
            f(r.publish_kib_node_min, 2),
        ]);
    }
    // The interned-term gauge is printed by `repro`'s footer (the table
    // stays numeric for CSV consumers).
    Report { tables: vec![curve, cost], events: Some(data.events()) }
}

/// One sweep trial: end-of-run recall and bandwidth per arm, plus the §5
/// signature flags. Deterministic in `(scale, seed)` — the vocab size is
/// deliberately *not* reported here, because the interning table is
/// process-global and parallel sweep trials would race on it.
pub fn trial(scale: Scale, seed: u64, shards: usize) -> Summary {
    let data = collect(scale, seed, shards);
    let end = |arm: Arm| *data.arm(arm).checkpoints.last().unwrap();
    let mut out = Summary::new();
    out.set("recall_static_end", end(Arm::Static));
    out.set("recall_norefresh_end", end(Arm::NoRefresh));
    out.set("recall_refresh_slow_end", end(Arm::RefreshSlow));
    out.set("recall_refresh_fast_end", end(Arm::RefreshFast));
    out.set(
        "norefresh_monotone",
        is_monotone_decay(&data.arm(Arm::NoRefresh).checkpoints) as u64 as f64,
    );
    out.set("refresh_fast_over_static", end(Arm::RefreshFast) / end(Arm::Static).max(1e-9));
    out.set("fetch_recall_norefresh", data.arm(Arm::NoRefresh).fetch_recall);
    out.set("fetch_recall_refresh_fast", data.arm(Arm::RefreshFast).fetch_recall);
    out.set("publish_kib_node_min_norefresh", data.arm(Arm::NoRefresh).publish_kib_node_min);
    out.set("publish_kib_node_min_refresh_slow", data.arm(Arm::RefreshSlow).publish_kib_node_min);
    out.set("publish_kib_node_min_refresh_fast", data.arm(Arm::RefreshFast).publish_kib_node_min);
    let mut traffic = MetricsSnapshot::default();
    for (_, r) in &data.arms {
        traffic.merge(&r.metrics);
    }
    out.set("total_messages", traffic.total_messages as f64);
    out.set("total_bytes", traffic.total_bytes as f64);
    out.set("events_processed", data.events().processed as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance signature (§5): no-refresh recall decays
    /// monotonically under churn; refresh at ≤ the median session
    /// lifetime holds end-of-run recall within 10% of the static
    /// baseline; and refreshing costs strictly more publish bandwidth.
    #[test]
    fn quick_scale_shows_sec5_signature() {
        let data = collect(Scale::Quick, DEFAULT_SEED, 1);
        let st = data.arm(Arm::Static);
        let none = data.arm(Arm::NoRefresh);
        let fast = data.arm(Arm::RefreshFast);
        let slow = data.arm(Arm::RefreshSlow);

        assert!(
            is_monotone_decay(&none.checkpoints),
            "no-refresh recall must decay monotonically: {:?}",
            none.checkpoints
        );
        let static_end = *st.checkpoints.last().unwrap();
        let none_end = *none.checkpoints.last().unwrap();
        let fast_end = *fast.checkpoints.last().unwrap();
        assert!(static_end > 0.95, "static baseline must hold: {static_end}");
        assert!(
            none_end < 0.8 * static_end,
            "churn without refresh must lose substantial recall: {none_end} vs {static_end}"
        );
        assert!(
            fast_end >= 0.9 * static_end,
            "refresh ≤ median session must hold recall within 10% of static: \
             {fast_end} vs {static_end}"
        );
        assert!(
            fast.publish_kib_node_min > slow.publish_kib_node_min
                && slow.publish_kib_node_min > none.publish_kib_node_min,
            "the tradeoff's cost side: faster refresh ⇒ more publish bandwidth \
             ({} > {} > {})",
            fast.publish_kib_node_min,
            slow.publish_kib_node_min,
            none.publish_kib_node_min
        );
        // Lookup-path recall agrees with the storage-level measure.
        assert!(fast.fetch_recall > none.fetch_recall);
    }

    /// The acceptance criterion runs at sparse scale: same signature on
    /// the bigger overlay, where the fabric-to-stable ratio is harsher.
    #[test]
    fn sparse_scale_shows_sec5_signature() {
        let t = trial(Scale::Sparse, DEFAULT_SEED, 1);
        assert_eq!(t.get("norefresh_monotone"), Some(1.0));
        let static_end = t.get("recall_static_end").unwrap();
        let none_end = t.get("recall_norefresh_end").unwrap();
        let fast_end = t.get("recall_refresh_fast_end").unwrap();
        assert!(static_end > 0.95, "static baseline must hold: {static_end}");
        assert!(none_end < 0.5 * static_end, "no-refresh must decay hard: {none_end}");
        assert!(
            fast_end >= 0.9 * static_end,
            "refresh ≤ median session must stay within 10% of static: {fast_end}"
        );
        assert!(
            t.get("publish_kib_node_min_refresh_fast").unwrap()
                > t.get("publish_kib_node_min_refresh_slow").unwrap()
        );
    }

    #[test]
    fn monotone_helper() {
        assert!(is_monotone_decay(&[1.0, 0.8, 0.8, 0.3]));
        assert!(!is_monotone_decay(&[1.0, 0.8, 0.9]));
        assert!(is_monotone_decay(&[]));
    }
}
