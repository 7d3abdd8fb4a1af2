//! Two-tier topology generation (ultrapeers + leaves) and spawning a whole
//! Gnutella network into a simulation.
//!
//! A node's links are set once, by [`wire`] (which [`spawn`] and
//! [`spawn_stores`] call): an ultrapeer's neighbours and leaves, a leaf's
//! home ultrapeers. Nothing rewrites them afterwards. A node that goes down
//! stays in its neighbours' lists and its leaves' homes, messages to it are
//! dropped while it is down, and it resumes on the same links when it
//! revives.

use crate::config::UltrapeerConfig;
use crate::files::{FileMeta, FileStore};
use crate::leaf::LeafCore;
use crate::msg::GnutellaMsg;
use crate::net::GnutellaCarrier;
use crate::node::{LeafNode, UltrapeerNode};
use crate::ultrapeer::UltrapeerCore;
use pier_netsim::{stream_rng, NodeId, Sim};
use rand::seq::SliceRandom;
use rand::Rng;

/// Parameters of a generated network.
#[derive(Clone, Debug)]
pub struct TopologyConfig {
    pub ultrapeers: usize,
    pub leaves: usize,
    /// Fraction of ultrapeers with the old LimeWire profile (75 leaves,
    /// 6 neighbors); the rest use the new profile (30 leaves, 32 neighbors).
    pub old_style_fraction: f64,
    /// Ultrapeer connections per leaf.
    pub leaf_ups: usize,
    pub seed: u64,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            ultrapeers: 300,
            leaves: 9_000,
            old_style_fraction: 0.3,
            leaf_ups: 3,
            seed: 0x6E75,
        }
    }
}

/// A generated (but not yet spawned) topology. Ultrapeer indices are
/// `0..ultrapeers`, leaf indices `0..leaves`.
#[derive(Clone, Debug)]
pub struct Topology {
    pub up_profiles: Vec<UltrapeerConfig>,
    /// Undirected ultrapeer edges (deduplicated, no self-loops).
    pub up_edges: Vec<(usize, usize)>,
    /// Every leaf's ultrapeers, `homes_per_leaf` each, leaf after leaf (see
    /// [`Topology::leaf_homes`]).
    homes: Vec<u32>,
    homes_per_leaf: usize,
}

/// The inverse of [`Topology::leaf_homes`]: each ultrapeer's leaves, in one
/// flat array with per-ultrapeer offsets.
pub struct UpLeaves {
    /// `leaves[offsets[i]..offsets[i + 1]]` are ultrapeer `i`'s leaves.
    offsets: Vec<u32>,
    leaves: Vec<u32>,
}

impl UpLeaves {
    /// The leaves attached to ultrapeer `up`, ascending.
    pub fn of(&self, up: usize) -> &[u32] {
        &self.leaves[self.offsets[up] as usize..self.offsets[up + 1] as usize]
    }
}

impl Topology {
    /// Generate a random topology with configuration-model wiring among
    /// ultrapeers (degree targets from their profiles).
    pub fn generate(cfg: &TopologyConfig) -> Topology {
        assert!(cfg.ultrapeers >= 2, "need at least two ultrapeers");
        assert!(cfg.leaf_ups >= 1);
        let mut rng = stream_rng(cfg.seed, 0);

        let up_profiles: Vec<UltrapeerConfig> = (0..cfg.ultrapeers)
            .map(|_| {
                if rng.random_bool(cfg.old_style_fraction.clamp(0.0, 1.0)) {
                    UltrapeerConfig::old_style()
                } else {
                    UltrapeerConfig::default()
                }
            })
            .collect();

        // Configuration model: one stub per unit of desired degree, shuffle,
        // pair; drop self-loops and duplicates.
        let mut stubs: Vec<usize> = Vec::new();
        for (i, p) in up_profiles.iter().enumerate() {
            // Degree targets are capped by network size.
            let degree = p.up_neighbors.min(cfg.ultrapeers - 1);
            stubs.extend(std::iter::repeat_n(i, degree));
        }
        stubs.shuffle(&mut rng);
        let mut edge_set = std::collections::HashSet::new();
        for pair in stubs.chunks_exact(2) {
            let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
            if a != b {
                edge_set.insert((a, b));
            }
        }
        // Guarantee connectivity: chain any isolated ultrapeers in.
        let mut degree = vec![0usize; cfg.ultrapeers];
        for (a, b) in &edge_set {
            degree[*a] += 1;
            degree[*b] += 1;
        }
        for i in 0..cfg.ultrapeers {
            if degree[i] == 0 {
                let j = (i + 1) % cfg.ultrapeers;
                edge_set.insert((i.min(j), i.max(j)));
                degree[i] += 1;
                degree[j] += 1;
            }
        }
        let up_edges: Vec<(usize, usize)> = {
            let mut v: Vec<_> = edge_set.into_iter().collect();
            v.sort_unstable();
            v
        };

        // Assign leaves to ultrapeers with capacity, round-robin over a
        // shuffled order; extra connections go to random other ultrapeers.
        let mut capacity: Vec<usize> = up_profiles.iter().map(|p| p.max_leaves).collect();
        let mut order: Vec<usize> = (0..cfg.ultrapeers).collect();
        order.shuffle(&mut rng);
        let homes_per_leaf = cfg.leaf_ups.min(cfg.ultrapeers);
        let mut homes = Vec::with_capacity(cfg.leaves * homes_per_leaf);
        let mut cursor = 0usize;
        for _ in 0..cfg.leaves {
            // Find the next ultrapeer with spare capacity (wrapping).
            let mut tries = 0;
            let home = loop {
                let cand = order[cursor % cfg.ultrapeers];
                cursor += 1;
                tries += 1;
                if capacity[cand] > 0 {
                    capacity[cand] -= 1;
                    break Some(cand);
                }
                if tries > cfg.ultrapeers {
                    break None; // network full: leaf attaches anyway (over capacity)
                }
            }
            .unwrap_or_else(|| rng.random_range(0..cfg.ultrapeers));
            let first = homes.len();
            homes.push(home as u32);
            while homes.len() - first < homes_per_leaf {
                let extra = rng.random_range(0..cfg.ultrapeers) as u32;
                if !homes[first..].contains(&extra) {
                    homes.push(extra);
                }
            }
        }

        Topology { up_profiles, up_edges, homes, homes_per_leaf }
    }

    pub fn ultrapeer_count(&self) -> usize {
        self.up_profiles.len()
    }

    pub fn leaf_count(&self) -> usize {
        self.homes.len() / self.homes_per_leaf
    }

    /// Leaf `j`'s ultrapeers (first entry = the one it queries via).
    pub fn leaf_homes(&self, j: usize) -> &[u32] {
        &self.homes[j * self.homes_per_leaf..(j + 1) * self.homes_per_leaf]
    }

    /// Invert the leaf homes in one pass over the leaves (a counting sort
    /// by ultrapeer), so spawning costs O(leaves) instead of a scan of every
    /// leaf's homes per ultrapeer.
    pub fn up_leaves(&self) -> UpLeaves {
        let mut offsets = vec![0u32; self.ultrapeer_count() + 1];
        for &up in &self.homes {
            offsets[up as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut leaves = vec![0u32; offsets[self.ultrapeer_count()] as usize];
        for (j, homes) in self.homes.chunks_exact(self.homes_per_leaf).enumerate() {
            for &up in homes {
                leaves[next[up as usize] as usize] = j as u32;
                next[up as usize] += 1;
            }
        }
        UpLeaves { offsets, leaves }
    }

    /// Adjacency lists of the ultrapeer graph.
    pub fn up_adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.up_profiles.len()];
        for &(a, b) in &self.up_edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        adj
    }
}

/// Node ids of a spawned network.
pub struct GnutellaHandles {
    pub ups: Vec<NodeId>,
    pub leaves: Vec<NodeId>,
}

/// Spawn the topology into a simulation. `up_files[i]` / `leaf_files[j]`
/// are the shares of ultrapeer `i` / leaf `j` (commonly empty for
/// ultrapeers), interned into one catalog by [`FileStore::shared_all`].
pub fn spawn(
    sim: &mut Sim<GnutellaMsg>,
    topo: &Topology,
    up_files: Vec<Vec<FileMeta>>,
    leaf_files: Vec<Vec<FileMeta>>,
) -> GnutellaHandles {
    let ups = up_files.len();
    let mut up_stores = FileStore::shared_all(up_files.into_iter().chain(leaf_files));
    let leaf_stores = up_stores.split_off(ups);
    spawn_stores(sim, topo, up_stores, leaf_stores)
}

/// Spawn the topology with pre-built [`FileStore`]s — the shared-catalog
/// path: one `Arc<ShareCatalog>` process-wide, a `Box<[FileId]>` per node.
pub fn spawn_stores(
    sim: &mut Sim<GnutellaMsg>,
    topo: &Topology,
    up_stores: Vec<FileStore>,
    leaf_stores: Vec<FileStore>,
) -> GnutellaHandles {
    wire(sim, topo, up_stores.into_iter(), leaf_stores.into_iter(), |sim, _, core| {
        sim.add_node(UltrapeerNode::new(core))
    })
}

/// Wire the topology into `sim`, ultrapeers first and then leaves, with
/// ids numbered on from `sim.len()`. Ultrapeer `i`'s core, its neighbours
/// and leaves already set, goes to `host_up(sim, i, core)`, which adds the
/// actor hosting it and returns the new id; every leaf is a stock
/// [`LeafNode`]. Stores are taken one node at a time, in id order.
pub fn wire<M: GnutellaCarrier + Send + 'static>(
    sim: &mut Sim<M>,
    topo: &Topology,
    up_stores: impl ExactSizeIterator<Item = FileStore>,
    leaf_stores: impl ExactSizeIterator<Item = FileStore>,
    mut host_up: impl FnMut(&mut Sim<M>, usize, UltrapeerCore) -> NodeId,
) -> GnutellaHandles {
    assert_eq!(up_stores.len(), topo.ultrapeer_count());
    assert_eq!(leaf_stores.len(), topo.leaf_count());
    let base = sim.len() as u32;
    let up_id = |i: usize| NodeId::new(base + i as u32);
    let leaf_id = |j: usize| NodeId::new(base + topo.ultrapeer_count() as u32 + j as u32);

    let adj = topo.up_adjacency();
    let up_leaves = topo.up_leaves();
    let mut ups = Vec::with_capacity(topo.ultrapeer_count());
    for (i, store) in up_stores.enumerate() {
        let mut core = UltrapeerCore::new(topo.up_profiles[i].clone(), store);
        core.set_neighbors(adj[i].iter().map(|&n| up_id(n)).collect());
        core.add_leaves(up_leaves.of(i).iter().map(|&j| leaf_id(j as usize)));
        let id = host_up(sim, i, core);
        debug_assert_eq!(id, up_id(i));
        ups.push(id);
    }
    let mut leaves = Vec::with_capacity(topo.leaf_count());
    for (j, store) in leaf_stores.enumerate() {
        let mut core = LeafCore::new(store);
        core.set_ultrapeers(topo.leaf_homes(j).iter().map(|&u| up_id(u as usize)).collect());
        let id = sim.add_node(LeafNode::new(core));
        debug_assert_eq!(id, leaf_id(j));
        leaves.push(id);
    }
    GnutellaHandles { ups, leaves }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TopologyConfig {
        TopologyConfig {
            ultrapeers: 40,
            leaves: 400,
            old_style_fraction: 0.25,
            leaf_ups: 3,
            seed: 5,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Topology::generate(&small_cfg());
        let b = Topology::generate(&small_cfg());
        assert_eq!(a.up_edges, b.up_edges);
        assert_eq!(a.homes, b.homes);
    }

    #[test]
    fn degrees_near_profile_targets() {
        let topo = Topology::generate(&small_cfg());
        let adj = topo.up_adjacency();
        for (i, profile) in topo.up_profiles.iter().enumerate() {
            let target = profile.up_neighbors.min(39);
            assert!(!adj[i].is_empty(), "ultrapeer {i} isolated");
            // Configuration model loses some stubs to dedup; allow slack.
            assert!(adj[i].len() <= target + 1, "ultrapeer {i}: {} > {}", adj[i].len(), target);
        }
    }

    #[test]
    fn no_self_loops_or_duplicate_edges() {
        let topo = Topology::generate(&small_cfg());
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &topo.up_edges {
            assert_ne!(a, b);
            assert!(a < b, "edges normalized");
            assert!(seen.insert((a, b)), "duplicate edge");
        }
    }

    #[test]
    fn every_leaf_has_distinct_homes() {
        let topo = Topology::generate(&small_cfg());
        assert_eq!(topo.leaf_count(), 400);
        for homes in (0..topo.leaf_count()).map(|j| topo.leaf_homes(j)) {
            assert_eq!(homes.len(), 3);
            let set: std::collections::HashSet<_> = homes.iter().collect();
            assert_eq!(set.len(), 3, "homes must be distinct");
        }
    }

    #[test]
    fn up_leaves_inverts_leaf_homes() {
        let mut topo = Topology::generate(&small_cfg());
        // An ultrapeer no leaf homes on.
        topo.up_profiles.push(UltrapeerConfig::default());
        let inverted = topo.up_leaves();
        for i in 0..topo.ultrapeer_count() {
            // The scan `spawn_stores` used to run per ultrapeer.
            let scanned: Vec<u32> = (0..topo.leaf_count() as u32)
                .filter(|&j| topo.leaf_homes(j as usize).contains(&(i as u32)))
                .collect();
            assert_eq!(inverted.of(i), scanned, "ultrapeer {i}");
        }
        assert!(inverted.of(topo.ultrapeer_count() - 1).is_empty());
    }

    #[test]
    fn leaf_load_respects_capacity_mostly() {
        let topo = Topology::generate(&small_cfg());
        let mut primary_load = vec![0usize; topo.ultrapeer_count()];
        for j in 0..topo.leaf_count() {
            primary_load[topo.leaf_homes(j)[0] as usize] += 1;
        }
        for (i, profile) in topo.up_profiles.iter().enumerate() {
            assert!(
                primary_load[i] <= profile.max_leaves,
                "ultrapeer {i} over capacity: {} > {}",
                primary_load[i],
                profile.max_leaves
            );
        }
    }

    #[test]
    fn up_graph_is_connected() {
        let topo = Topology::generate(&small_cfg());
        let adj = topo.up_adjacency();
        let mut visited = vec![false; adj.len()];
        let mut stack = vec![0usize];
        visited[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !visited[w] {
                    visited[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        assert_eq!(count, adj.len(), "ultrapeer graph must be connected");
    }
}
