//! Deployment builder: a Gnutella network in which the first `hybrid_ups`
//! ultrapeers are upgraded to hybrid clients that additionally form a DHT
//! overlay among themselves — the paper's fifty-node PlanetLab deployment
//! (§7), backward-compatible with the plain installed base: every other
//! node is a stock `UltrapeerNode` / `LeafNode`.

use crate::msg::HybridMsg;
use crate::rare::RareScheme;
use crate::ultrapeer::{HybridConfig, HybridUp};
use pier_dht::{bootstrap, Contact, DhtConfig, DhtCore};
use pier_gnutella::{
    FileMeta, FileStore, LeafCore, LeafNode, Topology, UltrapeerCore, UltrapeerNode,
};
use pier_netsim::{NodeId, Sim};

/// What to build.
pub struct DeploymentConfig {
    /// How many ultrapeers (taken from the front of the topology) run the
    /// hybrid client.
    pub hybrid_ups: usize,
    pub hybrid: HybridConfig,
    pub dht: DhtConfig,
}

/// Node handles of a spawned deployment.
pub struct Deployment {
    /// Hybrid ultrapeers (the upgraded subset).
    pub hybrid_ups: Vec<NodeId>,
    /// Stock ultrapeers.
    pub plain_ups: Vec<NodeId>,
    pub leaves: Vec<NodeId>,
}

/// Build the network into `sim`. `scheme_for(i)` supplies each hybrid
/// ultrapeer's rare-item scheme (usually identical). Leaf `j` shares
/// `leaf_files[j]`.
pub fn spawn(
    sim: &mut Sim<HybridMsg>,
    topo: &Topology,
    leaf_files: Vec<Vec<FileMeta>>,
    cfg: &DeploymentConfig,
    mut scheme_for: impl FnMut(usize) -> RareScheme,
) -> Deployment {
    assert!(cfg.hybrid_ups <= topo.ultrapeer_count());
    assert_eq!(leaf_files.len(), topo.leaf_count());
    let base = sim.len() as u32;
    let up_id = |i: usize| NodeId::new(base + i as u32);
    let leaf_id = |j: usize| NodeId::new(base + topo.ultrapeer_count() as u32 + j as u32);

    // The hybrid subset forms its own DHT overlay (warm tables: the Bamboo
    // ring on PlanetLab was long-running).
    let dht_contacts: Vec<Contact> =
        (0..cfg.hybrid_ups).map(|i| Contact::for_node(up_id(i))).collect();

    let adj = topo.up_adjacency();
    let up_leaves = topo.up_leaves();
    let mut hybrid_ups = Vec::with_capacity(cfg.hybrid_ups);
    let mut plain_ups = Vec::new();
    for (i, profile) in topo.up_profiles.iter().enumerate() {
        let mut core = UltrapeerCore::new(profile.clone(), FileStore::default());
        core.set_neighbors(adj[i].iter().map(|&n| up_id(n)).collect());
        for &j in up_leaves.of(i) {
            core.add_leaf(leaf_id(j as usize));
        }
        if i < cfg.hybrid_ups {
            let mut dht = DhtCore::new(cfg.dht.clone(), Contact::for_node(up_id(i)));
            bootstrap::fill_table(dht.table_mut(), &dht_contacts, 4);
            let node = HybridUp::new(cfg.hybrid.clone(), core, dht, scheme_for(i));
            let id = sim.add_node(node);
            debug_assert_eq!(id, up_id(i));
            hybrid_ups.push(id);
        } else {
            let id = sim.add_node(UltrapeerNode::new(core));
            debug_assert_eq!(id, up_id(i));
            plain_ups.push(id);
        }
    }

    let mut leaves = Vec::with_capacity(topo.leaf_count());
    for (j, files) in leaf_files.into_iter().enumerate() {
        let mut core = LeafCore::new(FileStore::new(files));
        core.set_ultrapeers(topo.leaf_homes[j].iter().map(|&u| up_id(u)).collect());
        let id = sim.add_node(LeafNode::new(core));
        debug_assert_eq!(id, leaf_id(j));
        leaves.push(id);
    }

    Deployment { hybrid_ups, plain_ups, leaves }
}
