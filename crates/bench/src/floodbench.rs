//! The query-flood hot-path fixture behind the benchmark's
//! `gnutella.relay_hop_ns` probe.
//!
//! One "hop" is the per-ultrapeer unit of work a flooded query pays at
//! every relay: duplicate-GUID check, local-share matching, last-hop QRP
//! checks over the leaves, relaying to the other neighbors, and the
//! matching work at each QRP-admitted leaf. The workload is drawn from the
//! sparse-preset catalog/trace (`Scale::Sparse` magnitudes: an old-style
//! 6-neighbor ultrapeer with its 4 single-homed leaves, queries from a
//! calibrated trace). Simulated time advances one second per hop and the
//! maintenance tick runs periodically: the tick only moves the seen-GUID
//! expiry horizon, and the hop's own insert sweeps expired entries when the
//! table would otherwise grow, so the table holds a bounded multiple of one
//! `seen_ttl` of GUIDs as in a live network (the sweep is part of the hop).
//!
//! The hop runs through the real cores: [`Terms`] payloads (`Arc` clone per
//! relay), sorted-`TermId`-slice matching, QRP checks on hashes cached in
//! the payload.
#![expect(clippy::disallowed_methods, reason = "times the hop; the clock feeds back into nothing")]

use pier_gnutella::{
    FileMeta, FileStore, GnutellaMsg, GnutellaNet, Guid, LeafCore, Terms, UltrapeerConfig,
    UltrapeerCore,
};
use pier_netsim::{stream_rng, MetricClass, NodeId, SimDuration, SimRng, SimTime};
use pier_workload::{Catalog, CatalogConfig, QueryConfig, QueryTrace};
use std::hint::black_box;
use std::time::Instant;

/// Sparse-preset magnitudes: 2,560 single-homed leaves over 640 ultrapeers
/// (4 leaves each), 85% old-style (6-neighbor) profiles.
const NEIGHBORS: usize = 6;
const LEAVES: usize = 4;
const QUERIES: usize = 512;

/// Run the maintenance tick (seen-table expiry horizon) every this many hops.
const TICK_EVERY: u64 = 256;

const UP_ID: u32 = 1_000;
const NEIGHBOR_BASE: u32 = 2_000;
const LEAF_BASE: u32 = 3_000;

/// The benchmark workload: sparse-scale leaf shares and trace queries.
pub struct FloodWorkload {
    pub leaf_shares: Vec<Vec<FileMeta>>,
    pub queries_terms: Vec<Terms>,
}

/// Generate the workload from the sparse-preset catalog parameters (the
/// same derivation `Lab::build_with` applies to `LabConfig::at(Sparse)`).
pub fn sparse_workload() -> FloodWorkload {
    let leaves = 2_560usize;
    let distinct_files = 8_000usize;
    let catalog = Catalog::generate(CatalogConfig {
        hosts: leaves,
        distinct_files,
        max_replicas: leaves / 10,
        vocab: distinct_files / 3,
        phrases: distinct_files / 8,
        seed: 0xF10D ^ 0xCAFE,
    });
    let trace =
        QueryTrace::generate(&catalog, QueryConfig { queries: QUERIES, seed: 0xF10D ^ 0xBEEF });
    let leaf_shares: Vec<Vec<FileMeta>> = (0..LEAVES)
        .map(|h| {
            catalog.host_files[h]
                .iter()
                .map(|&fi| FileMeta::new(&catalog.files[fi as usize].name, 1_000_000 + fi as u64))
                .collect()
        })
        .collect();
    let queries_terms: Vec<Terms> =
        trace.queries.iter().map(|q| Terms::from_ids(q.terms.clone())).collect();
    FloodWorkload { leaf_shares, queries_terms }
}

/// Median-of-5 ns/op; each round runs on a freshly built fixture (`op`
/// includes the build, amortized over `iters` hops).
fn measure(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        op(iters);
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[2]
}

/// A sink network: collects sends and accounts wire sizes exactly like the
/// simulator's `CtxGnutellaNet` shim (one `wire_size()` + `class()` call
/// per message — part of the hot path being measured).
struct SinkNet {
    now: SimTime,
    me: NodeId,
    rng: SimRng,
    sent: Vec<(NodeId, GnutellaMsg)>,
    bytes: u64,
    /// Set when a `LeafForward` was sent, so the driver only pays the
    /// delivery scan on admitted hops (mirroring the simulator, which
    /// routes by destination and never scans).
    forwarded: bool,
}

impl SinkNet {
    fn new(me: u32) -> Self {
        SinkNet {
            now: SimTime::ZERO,
            me: NodeId::new(me),
            rng: stream_rng(7, me as u64),
            sent: Vec::new(),
            bytes: 0,
            forwarded: false,
        }
    }
}

impl GnutellaNet for SinkNet {
    fn now(&self) -> SimTime {
        self.now
    }
    fn self_node(&self) -> NodeId {
        self.me
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn send(&mut self, dst: NodeId, msg: GnutellaMsg) {
        self.bytes += msg.wire_size() as u64;
        let _ = msg.class();
        self.forwarded |= matches!(msg, GnutellaMsg::LeafForward { .. });
        self.sent.push((dst, msg));
    }
    fn count(&mut self, _class: MetricClass, _n: u64) {}
    fn observe(&mut self, _class: MetricClass, _value: f64) {}
}

struct HopFixture {
    up: UltrapeerCore,
    /// Each leaf with its own network shim, so `Hit::host` is the real
    /// leaf id and the leaves don't share the ultrapeer's RNG stream.
    leaves: Vec<(NodeId, LeafCore, SinkNet)>,
}

fn build_hop_fixture(w: &FloodWorkload) -> HopFixture {
    let mut up = UltrapeerCore::new(UltrapeerConfig::old_style(), FileStore::default());
    up.set_neighbors((0..NEIGHBORS as u32).map(|i| NodeId::new(NEIGHBOR_BASE + i)).collect());
    let mut net = SinkNet::new(UP_ID);
    let mut leaves = Vec::new();
    for (i, share) in w.leaf_shares.iter().enumerate() {
        let leaf_id = NodeId::new(LEAF_BASE + i as u32);
        up.add_leaf(leaf_id);
        let leaf = LeafCore::new(FileStore::new(share.clone()));
        up.on_message(&mut net, leaf_id, GnutellaMsg::QrpUpdate { view: leaf.store().qrp_view() });
        leaves.push((leaf_id, leaf, SinkNet::new(LEAF_BASE + i as u32)));
    }
    HopFixture { up, leaves }
}

/// ns per hop through the real cores.
pub fn bench_interned(w: &FloodWorkload, iters: u64) -> f64 {
    measure(iters, |n| {
        let mut fix = build_hop_fixture(w);
        let mut net = SinkNet::new(UP_ID);
        let mut guid = 0x1_0000_0000u64;
        let mut forwards: Vec<(NodeId, GnutellaMsg)> = Vec::new();
        for i in 0..n {
            guid += 1;
            net.now += SimDuration::from_secs(1);
            let q = w.queries_terms[(i % QUERIES as u64) as usize].clone();
            let from = NodeId::new(NEIGHBOR_BASE);
            fix.up.on_message(
                &mut net,
                from,
                GnutellaMsg::Query { guid: Guid(guid), ttl: 2, hops: 1, terms: q },
            );
            // Deliver last-hop forwards to the admitted leaves (rare).
            if net.forwarded {
                net.forwarded = false;
                for (dst, msg) in net.sent.drain(..) {
                    if matches!(msg, GnutellaMsg::LeafForward { .. }) {
                        forwards.push((dst, msg));
                    }
                }
                for (dst, msg) in forwards.drain(..) {
                    let (_, leaf, leaf_net) =
                        fix.leaves.iter_mut().find(|(id, _, _)| *id == dst).expect("known leaf");
                    leaf.on_message(leaf_net, NodeId::new(UP_ID), msg);
                    leaf_net.sent.clear();
                }
            }
            net.sent.clear();
            // Steady-state maintenance: expire old seen-GUID entries.
            if i % TICK_EVERY == 0 {
                fix.up.tick(&mut net);
                net.sent.clear();
            }
        }
        let leaf_bytes: u64 = fix.leaves.iter().map(|(_, _, n)| n.bytes).sum();
        black_box(net.bytes + leaf_bytes);
    })
}
