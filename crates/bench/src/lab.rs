//! The "Gnutella measurement lab": a simulated network carrying a
//! calibrated synthetic corpus, with query injection from vantage
//! ultrapeers — the apparatus behind Figures 4–7.

use pier_gnutella::LeafNode;
use pier_gnutella::{
    spawn_stores, FileMeta, FileStore, GnutellaHandles, GnutellaMsg, Guid, QueryOrigin,
    ShareCatalog, Terms, Topology, TopologyConfig, UltrapeerNode, PROBE_TTL,
};
use pier_netsim::keyed::KeyedSet;
use pier_netsim::{NodeId, Sim, SimConfig, SimDuration, SimTime, UniformLatency};
use pier_trace::Obs;
use pier_workload::{Catalog, CatalogConfig, Query, QueryConfig, QueryTrace};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Experiment scale. `Quick` keeps `repro all` under a few minutes;
/// `Sparse` is a larger, sparsely-connected topology where even a
/// 32-neighbor vantage's dynamic query covers only part of the network
/// (the paper's horizon effect); `Full` approaches the paper's magnitudes
/// (thousands of ultrapeers, tens of thousands of leaves) — minutes of CPU
/// per trial, which is what the parallel sweep runner
/// (`repro sweep --jobs J`) exists to amortize; `Metro` is the true metro
/// rung (100k ultrapeers / 1M leaves, the network the paper's §4.1 crawl
/// sampled, as a *single* simulated network) and is only feasible because
/// per-node protocol state shares one columnar catalog copy, a leaf's QRP
/// table is a view of its share through positions that catalog stores once
/// per distinct file, and kernel slot state is packed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Quick,
    Sparse,
    Full,
    Metro,
    /// The metro preset's CI-smoke sibling — same code path (shared
    /// catalogs, mixed profiles, metro experiment arms) at a size that
    /// builds in under a second.
    MetroLite,
}

impl Scale {
    /// Parse a scale name (the `--scale` flag's values).
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::Quick),
            "sparse" => Some(Scale::Sparse),
            "full" => Some(Scale::Full),
            "metro" => Some(Scale::Metro),
            "metro-lite" => Some(Scale::MetroLite),
            _ => None,
        }
    }

    /// Lower-case name, as accepted by `--scale` and emitted in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Sparse => "sparse",
            Scale::Full => "full",
            Scale::Metro => "metro",
            Scale::MetroLite => "metro-lite",
        }
    }

    /// Query injections per simulated second in a lab replay: the large
    /// rungs carry more queries and inject them faster.
    pub fn inject_rate_per_s(self) -> f64 {
        match self {
            Scale::Full | Scale::Metro | Scale::MetroLite => 3.0,
            Scale::Quick | Scale::Sparse => 2.0,
        }
    }
}

/// The master seed every single-run experiment uses unless a sweep hands
/// it a derived per-trial seed.
pub const DEFAULT_SEED: u64 = 0x6AB;

/// Lab parameters per scale.
pub struct LabConfig {
    pub ultrapeers: usize,
    pub leaves: usize,
    /// Fraction of ultrapeers with the old 6-neighbor LimeWire profile.
    pub old_style_fraction: f64,
    /// Ultrapeer connections per leaf.
    pub leaf_ups: usize,
    pub distinct_files: usize,
    pub queries: usize,
    pub vantages: usize,
    /// Force the vantage set to include at least one new-style
    /// (32-neighbor) and one old-style ultrapeer when the topology has
    /// both. The sparse preset needs this: with 85% old-style ultrapeers,
    /// evenly-stepped sampling could miss the new-style profile entirely.
    pub mixed_profile_vantages: bool,
    pub seed: u64,
    /// Kernel shards for the lab simulation (see `SimConfig::shards`).
    /// Results are bit-identical for any value; `n` runs the kernel on the
    /// calling thread plus `n - 1` workers.
    pub shards: usize,
}

impl LabConfig {
    pub fn at(scale: Scale) -> LabConfig {
        LabConfig::at_seeded(scale, DEFAULT_SEED)
    }

    /// The preset with a sharded simulation kernel (`repro --shards`).
    pub fn at_sharded(scale: Scale, seed: u64, shards: usize) -> LabConfig {
        let mut cfg = LabConfig::at_seeded(scale, seed);
        cfg.shards = shards.max(1);
        cfg
    }

    /// The preset for `scale`, with every random choice derived from
    /// `seed` — the sweep runner derives one distinct master seed per
    /// trial and builds each trial's lab through this.
    pub fn at_seeded(scale: Scale, seed: u64) -> LabConfig {
        match scale {
            Scale::Quick => LabConfig {
                ultrapeers: 120,
                leaves: 2_400,
                old_style_fraction: 0.3,
                leaf_ups: 2,
                distinct_files: 5_000,
                queries: 160,
                vantages: 10,
                mixed_profile_vantages: false,
                seed,
                shards: 1,
            },
            // ≥ 5× more ultrapeers than Quick, heavily old-style (sparse
            // degree mix) and with single-homed leaves: a new-style
            // vantage's dynamic query now reaches only a fraction of the
            // network, so partial coverage shows from *every* vantage
            // profile rather than only the 6-neighbor one.
            Scale::Sparse => LabConfig {
                ultrapeers: 640,
                leaves: 2_560,
                old_style_fraction: 0.85,
                leaf_ups: 1,
                distinct_files: 8_000,
                queries: 140,
                vantages: 12,
                mixed_profile_vantages: true,
                seed,
                shards: 1,
            },
            // The genuinely large preset: an order of magnitude past
            // Sparse and within sight of the paper's §4.1 crawl (~3,333
            // ultrapeers / ~100k nodes), with a mixed old/new degree
            // profile. One trial is minutes of CPU; multi-seed statistics
            // come from `repro sweep … --jobs J`, which runs trials on
            // parallel OS threads.
            Scale::Full => LabConfig {
                ultrapeers: 2_000,
                leaves: 20_000,
                old_style_fraction: 0.6,
                leaf_ups: 2,
                distinct_files: 30_000,
                queries: 220,
                vantages: 20,
                mixed_profile_vantages: true,
                seed,
                shards: 1,
            },
            // The true metro rung: 100k ultrapeers carrying 1M leaves —
            // the network the paper's §4.1 crawl sampled, as *one*
            // simulated network of 1.1M nodes. Feasible in-memory because
            // every leaf's share is an `Arc<[FileId]>` view into one shared
            // columnar catalog, its QRP table is a view of that share
            // (each distinct file's positions stored once, in the catalog),
            // and the kernel's per-node slot state is one packed word.
            Scale::Metro => LabConfig {
                ultrapeers: 100_000,
                leaves: 1_000_000,
                old_style_fraction: 0.6,
                leaf_ups: 2,
                distinct_files: 150_000,
                queries: 240,
                vantages: 24,
                mixed_profile_vantages: true,
                seed,
                shards: 1,
            },
            // The CI-sized metro variant: same code path — shared
            // catalogs, mixed profiles, metro experiment arms — at a size
            // a release test can build in seconds.
            Scale::MetroLite => LabConfig {
                ultrapeers: 300,
                leaves: 3_000,
                old_style_fraction: 0.6,
                leaf_ups: 2,
                distinct_files: 6_000,
                queries: 40,
                vantages: 6,
                mixed_profile_vantages: true,
                seed,
                shards: 1,
            },
        }
    }
}

/// Results of one query from one vantage.
#[derive(Clone, Debug)]
pub struct VantageResult {
    /// Distinct (filename, host) replica pairs returned. Names share the
    /// hits' `Arc<str>` payloads — collecting a replay clones pointers.
    pub results: Vec<(Arc<str>, NodeId)>,
    pub first_hit: Option<SimDuration>,
}

/// The lab: simulation + ground truth.
pub struct Lab {
    pub sim: Sim<GnutellaMsg>,
    pub handles: GnutellaHandles,
    pub catalog: Catalog,
    pub trace: QueryTrace,
    pub vantages: Vec<NodeId>,
    /// The generated topology (profiles, edges, leaf homes) — kept so
    /// experiments can relate per-vantage results to ultrapeer profiles.
    pub topo: Topology,
    /// The one process-wide copy of every shared file's metadata and token
    /// set and QRP positions; every leaf's `FileStore` is an
    /// `Arc<[FileId]>` view into it.
    pub share_catalog: Arc<ShareCatalog>,
}

impl Lab {
    /// Build the network, place the catalog on the leaves, pick vantage
    /// ultrapeers. Every stage runs under a named phase scope, the kernel
    /// probe is installed when requested, and (when tracing) every protocol
    /// core gets a handle to the shared tracer. With an inert `Obs`
    /// (`Obs::default()`) every hook is a no-op.
    pub fn build_with(cfg: LabConfig, obs: &Obs) -> Lab {
        let _build = obs.phase("lab.build");
        let topo = {
            let _p = obs.phase("lab.build.topology");
            Topology::generate(&TopologyConfig {
                ultrapeers: cfg.ultrapeers,
                leaves: cfg.leaves,
                old_style_fraction: cfg.old_style_fraction,
                leaf_ups: cfg.leaf_ups,
                seed: cfg.seed,
            })
        };
        let catalog = {
            let _p = obs.phase("lab.build.catalog");
            Catalog::generate(CatalogConfig {
                hosts: cfg.leaves,
                distinct_files: cfg.distinct_files,
                max_replicas: (cfg.leaves / 10).max(50),
                vocab: (cfg.distinct_files / 3).max(500),
                phrases: (cfg.distinct_files / 8).max(200),
                seed: cfg.seed ^ 0xCAFE,
            })
        };
        let trace = {
            let _p = obs.phase("lab.build.query_trace");
            QueryTrace::generate(
                &catalog,
                QueryConfig { queries: cfg.queries, seed: cfg.seed ^ 0xBEEF },
            )
        };
        // One columnar copy of every distinct file (names scanned once);
        // `catalog.host_files` entries are already indices into it, so each
        // leaf's store is just that index list boxed. This is the layout
        // that makes `Metro` feasible: share state no longer scales with
        // replicas × (name + token) bytes.
        let _stores = obs.phase("lab.build.stores");
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
        drop(_stores);

        let sim_cfg = SimConfig::with_seed(cfg.seed)
            .latency(UniformLatency::new(
                SimDuration::from_millis(20),
                SimDuration::from_millis(90),
            ))
            .shards(cfg.shards);
        let mut sim = Sim::new(sim_cfg);
        let handles = {
            let _p = obs.phase("lab.build.spawn");
            spawn_stores(&mut sim, &topo, up_stores, leaf_stores)
        };
        if let Some(probe) = obs.probe() {
            sim.set_probe(probe);
        }
        {
            // QRP propagation.
            let _p = obs.phase("lab.build.qrp_warmup");
            sim.run_for(SimDuration::from_secs(3));
        }

        let _vp = obs.phase("lab.build.vantages");
        let mut vantages: Vec<NodeId> = handles
            .ups
            .iter()
            .copied()
            .step_by(cfg.ultrapeers / cfg.vantages)
            .take(cfg.vantages)
            .collect();
        if cfg.mixed_profile_vantages {
            ensure_profile(&mut vantages, &handles, &topo, |n| n >= 32, 0);
            ensure_profile(&mut vantages, &handles, &topo, |n| n < 32, 1);
        }
        drop(_vp);

        // Hand every core a tracer handle so relays, QRP screens, and leaf
        // matches are observable wherever a sampled query travels. Inert
        // handles are skipped entirely: the default lab carries no hooks.
        let handle = obs.trace_handle();
        if handle.is_active() {
            let _p = obs.phase("lab.build.trace_attach");
            for &id in &handles.ups {
                sim.actor_mut::<UltrapeerNode>(id).core.set_trace(handle.clone());
            }
            for &id in &handles.leaves {
                sim.actor_mut::<LeafNode>(id).core.set_trace(handle.clone());
            }
        }
        Lab { sim, handles, catalog, trace, vantages, topo, share_catalog }
    }

    /// The `up_neighbors` degree target of each vantage's profile (32 for
    /// new-style LimeWire ultrapeers, 6 for old-style ones).
    pub fn vantage_profiles(&self) -> Vec<usize> {
        self.vantages
            .iter()
            .map(|v| {
                let i =
                    self.handles.ups.iter().position(|u| u == v).expect("vantages are ultrapeers");
                self.topo.up_profiles[i].up_neighbors
            })
            .collect()
    }

    /// Replay the whole trace from every vantage, staggering injections so
    /// queries overlap realistically. Returns, per query, the per-vantage
    /// results (`out[q][v]`). Injection / drain / collection run under
    /// phase scopes, the heartbeat gets a progress target, and — when
    /// tracing — an evenly-spaced sample of `obs.trace_queries` injections
    /// is registered with the tracer. Registration happens *after*
    /// `start_query` returns and reads only the returned guid, so the
    /// simulation is bit-identical with tracing on or off.
    pub fn replay_with(&mut self, inject_rate_per_s: f64, obs: &Obs) -> Vec<Vec<VantageResult>> {
        let _replay = obs.phase("lab.replay");
        let queries: Vec<Query> = self.trace.queries.clone();
        let vantages = self.vantages.clone();
        let gap = SimDuration::from_secs_f64(1.0 / inject_rate_per_s);
        // Drain: longest dynamic query ≈ neighbors × `PROBE_INTERVAL` + grace.
        let drain = SimDuration::from_secs(120);
        if let Some(kernel) = &obs.kernel {
            let run_us = gap.as_micros() * queries.len() as u64 + drain.as_micros();
            kernel.set_progress_target(self.sim.now().as_micros() + run_us);
        }
        // The traced injections: an evenly-spaced sample of the flat
        // (query-major, vantage-minor) injection sequence.
        let sampled = pier_trace::sample_indices(queries.len() * vantages.len(), obs.trace_queries);
        let mut next_sample = sampled.iter().copied().peekable();
        let mut inject_ix = 0usize;

        let _inject = obs.phase("lab.replay.inject");
        let mut guids: Vec<Vec<(NodeId, Guid, SimTime)>> = Vec::with_capacity(queries.len());
        for q in &queries {
            // The trace already carries interned ids; one shared payload
            // serves every vantage (and every relay hop inside the sim).
            let terms = Terms::from_ids(q.terms.clone());
            let mut per_vantage = Vec::with_capacity(vantages.len());
            for &v in &vantages {
                let issued = self.sim.now();
                let guid = self.sim.with_actor_ctx::<UltrapeerNode, _>(v, |up, ctx| {
                    let mut net = pier_gnutella::CtxGnutellaNet { ctx };
                    up.core.start_query(&mut net, terms.clone(), QueryOrigin::Driver)
                });
                if let Some(tracer) = &obs.tracer {
                    if next_sample.peek() == Some(&inject_ix) {
                        next_sample.next();
                        tracer.register(
                            guid.0,
                            v.index() as u64,
                            issued.as_micros(),
                            u64::from(PROBE_TTL),
                            &terms.text(),
                        );
                    }
                }
                inject_ix += 1;
                per_vantage.push((v, guid, issued));
            }
            guids.push(per_vantage);
            self.sim.run_for(gap);
        }
        drop(_inject);
        {
            let _p = obs.phase("lab.replay.drain");
            self.sim.run_for(drain);
        }

        let _collect = obs.phase("lab.replay.collect");
        guids
            .into_iter()
            .map(|per_vantage| {
                per_vantage
                    .into_iter()
                    .map(|(v, guid, issued)| {
                        let rec = self
                            .sim
                            .actor_mut::<UltrapeerNode>(v)
                            .core
                            .take_query(guid)
                            .expect("query registered");
                        let mut seen = KeyedSet::new();
                        let results: Vec<(Arc<str>, NodeId)> = rec
                            .hits
                            .iter()
                            .filter(|h| seen.insert((h.file.name.clone(), h.host)))
                            .map(|h| (h.file.name.clone(), h.host))
                            .collect();
                        VantageResult { results, first_hit: rec.first_hit_at.map(|t| t - issued) }
                    })
                    .collect()
            })
            .collect()
    }
}

/// If no chosen vantage satisfies `wanted` (a predicate on the profile's
/// `up_neighbors` degree), swap in the first matching ultrapeer, replacing
/// the vantage `slot` positions from the end. No-op when a matching
/// vantage is already present or the topology has none.
fn ensure_profile(
    vantages: &mut [NodeId],
    handles: &GnutellaHandles,
    topo: &Topology,
    wanted: impl Fn(usize) -> bool,
    slot: usize,
) {
    let degree_of = |v: NodeId| {
        let i = handles.ups.iter().position(|u| *u == v).expect("vantage is an ultrapeer");
        topo.up_profiles[i].up_neighbors
    };
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

/// Union of replica results across the first `n` vantages of a query.
pub fn union_results(per_vantage: &[VantageResult], n: usize) -> BTreeSet<(Arc<str>, NodeId)> {
    let mut u = BTreeSet::new();
    for v in per_vantage.iter().take(n) {
        u.extend(v.results.iter().cloned());
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: `Full` once had *fewer* ultrapeers (333) than `Sparse`
    /// (640), contradicting its doc comment. The preset ladder must be
    /// strictly increasing, and `Full` must be genuinely large with a
    /// mixed old/new ultrapeer profile.
    #[test]
    fn scale_presets_form_an_increasing_ladder() {
        let quick = LabConfig::at(Scale::Quick);
        let sparse = LabConfig::at(Scale::Sparse);
        let full = LabConfig::at(Scale::Full);
        let metro = LabConfig::at(Scale::Metro);
        assert!(quick.ultrapeers < sparse.ultrapeers);
        assert!(sparse.ultrapeers < full.ultrapeers);
        assert!(quick.leaves < full.leaves);
        assert!(sparse.leaves < full.leaves);
        assert!(full.ultrapeers >= 2_000, "Full must reach paper-scale ultrapeer counts");
        assert!(full.leaves >= 20_000, "Full must reach paper-scale leaf counts");
        assert!(
            full.old_style_fraction > 0.0 && full.old_style_fraction < 1.0,
            "Full runs a mixed ultrapeer profile"
        );
        assert!(full.mixed_profile_vantages, "Full vantage sets must span both profiles");
        assert!(metro.ultrapeers >= 10 * full.ultrapeers, "Metro is an order past Full");
        assert!(metro.leaves >= 10 * full.leaves, "Metro is an order past Full");
        assert!(metro.mixed_profile_vantages);
        // metro-lite is the metro code path shrunk to CI size: smaller than
        // Full, same mixed-profile shape as Metro.
        let lite = LabConfig::at(Scale::MetroLite);
        assert!(lite.ultrapeers < full.ultrapeers);
        assert!(lite.leaves < full.leaves);
        assert!(lite.mixed_profile_vantages, "metro-lite keeps the metro vantage shape");
    }

    #[test]
    fn seeded_config_overrides_only_the_seed() {
        let a = LabConfig::at(Scale::Sparse);
        let b = LabConfig::at_seeded(Scale::Sparse, 999);
        assert_eq!(a.seed, DEFAULT_SEED);
        assert_eq!(b.seed, 999);
        assert_eq!(a.ultrapeers, b.ultrapeers);
        assert_eq!(a.leaves, b.leaves);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn scale_names_round_trip_through_parse() {
        for s in [Scale::Quick, Scale::Sparse, Scale::Full, Scale::Metro, Scale::MetroLite] {
            assert!(!s.name().is_empty());
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::Full.name(), "full");
        assert_eq!(Scale::Metro.name(), "metro");
        assert_eq!(Scale::MetroLite.name(), "metro-lite");
    }
}
