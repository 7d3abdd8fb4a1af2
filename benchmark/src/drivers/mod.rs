//! The composed drivers: each workload built from the layers' public
//! functions exactly as the experiment it mirrors builds it
//! (`tests/equivalence.rs` pins that), with a span around every call into a
//! layer and counter snapshots read at the same boundaries.

pub mod churn;
pub mod flood;
pub mod hybrid;
pub mod model;

use pier_netsim::{EventStats, MemStats, Metrics, MetricsSnapshot, NodeId};
use pier_workload::Catalog;
use std::collections::{BTreeMap, HashMap};

/// What one repetition of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Host seconds from driver start to the first operation issued.
    pub setup_s: f64,
    /// Host seconds from driver start to the last result read back out of
    /// the program, before any checking — what `Lab::build` + `Lab::replay`
    /// cover. Only the flood driver reports it (the instrumented re-runs of
    /// `flood_replay` are set against it).
    pub collected_s: f64,
    /// Operations attempted / failed (see the README for each workload's
    /// definition of an operation and of failure).
    pub attempted: u64,
    pub failed: u64,
    /// Work done in the run phase: kernel events for the simulator
    /// workloads, published-set evaluations for `model_sweep`.
    pub work: u64,
    /// Simulated traffic of the run phase.
    pub sim_msgs: u64,
    pub sim_bytes: u64,
    pub sim_recall: f64,
    /// Simulated seconds to the first result, one per answered operation.
    pub first_result_s: Vec<f64>,
    /// The experiment summary the digest is taken over, in a fixed order.
    pub summary: Vec<(String, f64)>,
    /// Correctness checks that did not hold (empty = correct).
    pub violations: Vec<String>,
    /// Per-layer counts read from the program's public counters.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// FNV-1a over the summary values' bit patterns: equal digests mean
    /// bit-identical simulated results.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (_, v) in &self.summary {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(what());
        }
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }
}

/// Ground truth about replicas in a network whose leaf `j` (node id
/// `first_leaf + j`) shares what catalog host `j` holds.
pub struct Replicas<'a> {
    catalog: &'a Catalog,
    by_name: HashMap<&'a str, u32>,
    first_leaf: usize,
}

impl<'a> Replicas<'a> {
    pub fn new(catalog: &'a Catalog, first_leaf: NodeId) -> Self {
        let by_name =
            catalog.files.iter().enumerate().map(|(i, f)| (f.name.as_str(), i as u32)).collect();
        Replicas { catalog, by_name, first_leaf: first_leaf.index() }
    }

    /// The catalog index of the file called `name`, if `host` really holds
    /// a replica of it.
    pub fn replica(&self, name: &str, host: NodeId) -> Option<u32> {
        let fi = *self.by_name.get(name)?;
        let leaf = host.index().checked_sub(self.first_leaf)? as u32;
        self.catalog.files[fi as usize].hosts.contains(&leaf).then_some(fi)
    }
}

/// Counter totals of one simulation (or several merged), from which the
/// per-layer count rows are derived. Histograms are kept as (Σ, n) so
/// several simulations' means combine exactly.
#[derive(Default)]
pub struct Ledger {
    pub total: MetricsSnapshot,
    /// Traffic of the run phase only (after set-up).
    pub run: MetricsSnapshot,
    pub events: u64,
    pub peak_pending: u64,
    pub nodes: u64,
    pub heap_bytes: u64,
    hist: BTreeMap<&'static str, (f64, u64)>,
    /// Median of `piersearch.first_result_latency_s` (one simulation only).
    pub piersearch_first_result_s: f64,
}

const MEAN_HISTOGRAMS: [&str; 3] = ["dht.lookup.queries", "dht.route.hops", "dht.route_store.hops"];

impl Ledger {
    /// Fold one finished simulation in. `baseline` is the snapshot taken
    /// when set-up ended.
    pub fn absorb(
        &mut self,
        metrics: &mut Metrics,
        baseline: &MetricsSnapshot,
        events: EventStats,
        mem: &MemStats,
    ) {
        let total = metrics.snapshot();
        self.run.merge(&total.diff(baseline));
        self.total.merge(&total);
        self.events += events.processed;
        self.peak_pending += events.peak_pending as u64;
        self.nodes += mem.nodes as u64;
        self.heap_bytes += mem.total_bytes();
        for name in MEAN_HISTOGRAMS {
            let h = metrics.histogram(name);
            let e = self.hist.entry(name).or_insert((0.0, 0));
            e.0 += h.mean() * h.len() as f64;
            e.1 += h.len() as u64;
        }
        let first = metrics.histogram("piersearch.first_result_latency_s");
        if !first.is_empty() {
            self.piersearch_first_result_s = first.quantile(0.5);
        }
    }

    fn hist_mean(&self, name: &str) -> f64 {
        self.hist.get(name).map_or(0.0, |&(sum, n)| ratio(sum, n as f64))
    }

    /// The count rows every simulator workload reports, derived from
    /// whatever classes its simulations touched (absent classes read 0).
    pub fn rows(&self, ops: u64, out: &mut Outcome) {
        let n = |class: &str| self.total.counter(class).count as f64;
        let run_n = |class: &str| self.run.counter(class).count as f64;
        let bytes = |class: &str| self.total.counter(class).bytes as f64;
        let ops = ops as f64;

        out.count("netsim.events", self.events as f64);
        out.count("netsim.peak_pending", self.peak_pending as f64);
        out.count("netsim.msgs", self.total.total_messages as f64);
        out.count("netsim.bytes", self.total.total_bytes as f64);
        out.count("netsim.heap_bytes_per_node", ratio(self.heap_bytes as f64, self.nodes as f64));

        out.count("gnutella.qrp_msgs", n("gnutella.qrp"));
        out.count("gnutella.query_msgs_per_op", ratio(run_n("gnutella.query"), ops));
        out.count("gnutella.hit_msgs_per_op", ratio(run_n("gnutella.query_hit"), ops));
        out.count(
            "gnutella.duplicate_share",
            ratio(n("gnutella.duplicate_query"), n("gnutella.query")),
        );
        out.count(
            "gnutella.leaf_matches_per_forward",
            ratio(n("gnutella.leaf_matches"), n("gnutella.leaf_forwards")),
        );
        out.count("gnutella.orphan_hits", n("gnutella.orphan_hits"));

        out.count("dht.lookup_msgs_per_op", self.hist_mean("dht.lookup.queries"));
        let (hops, routed) = ["dht.route.hops", "dht.route_store.hops"]
            .iter()
            .filter_map(|h| self.hist.get(h))
            .fold((0.0, 0u64), |acc, &(sum, n)| (acc.0 + sum, acc.1 + n));
        out.count("dht.route_hops_mean", ratio(hops, routed as f64));
        let published = n("piersearch.files_published");
        out.count(
            "dht.store_bytes_per_publish",
            ratio(bytes("dht.route_store") + bytes("dht.req.store"), published),
        );
        let requests: f64 = ["ping", "find_node", "store", "find_value"]
            .iter()
            .map(|r| n(&format!("dht.req.{r}")))
            .sum();
        out.count("dht.rpc_timeout_share", ratio(n("dht.rpc_timeout"), requests));
        out.count("dht.hop_limit_drops", n("dht.route.hop_limit_drop"));
        out.count("dht.stale_responses", n("dht.stale_response"));

        let queries = n("pier.queries_issued");
        out.count("pier.scanned_tuples_per_query", ratio(n("pier.scanned_tuples"), queries));
        out.count("pier.shipped_tuples_per_query", ratio(n("pier.shipped_tuples"), queries));
        out.count("pier.query_timeouts", n("pier.query_timeout"));

        out.count(
            "piersearch.publish_bytes_per_file",
            ratio(n("piersearch.publish_value_bytes"), published),
        );
        out.count("piersearch.soft_refresh_files", n("piersearch.soft_refresh_files"));
        out.count("piersearch.search_timeouts", n("piersearch.search_timeout"));
        out.count("piersearch.first_result_sim_s", self.piersearch_first_result_s);
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}
