//! Deployment builder: a Gnutella network in which the first `hybrid_ups`
//! ultrapeers are upgraded to hybrid clients that additionally form a DHT
//! overlay among themselves — the paper's fifty-node PlanetLab deployment
//! (§7), backward-compatible with the plain installed base: every other
//! node is a stock `UltrapeerNode` / `LeafNode`.

use crate::msg::HybridMsg;
use crate::rare::RareScheme;
use crate::ultrapeer::{HybridConfig, HybridUp};
use pier_dht::{bootstrap, Contact, DhtConfig, DhtCore};
use pier_gnutella::{wire, FileMeta, FileStore, Topology, UltrapeerNode};
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
    let base = sim.len() as u32;
    let contact = |i: usize| Contact::for_node(NodeId::new(base + i as u32));

    // The hybrid subset forms its own DHT overlay (warm tables: the Bamboo
    // ring on PlanetLab was long-running).
    let dht_contacts: Vec<Contact> = (0..cfg.hybrid_ups).map(contact).collect();

    let up_stores = (0..topo.ultrapeer_count()).map(|_| FileStore::default());
    let leaf_stores = leaf_files.into_iter().map(FileStore::new);
    let handles = wire(sim, topo, up_stores, leaf_stores, |sim, i, core| {
        if i < cfg.hybrid_ups {
            let mut dht = DhtCore::new(cfg.dht.clone(), contact(i));
            bootstrap::fill_table(dht.table_mut(), &dht_contacts, 4);
            sim.add_node(HybridUp::new(cfg.hybrid.clone(), core, dht, scheme_for(i)))
        } else {
            sim.add_node(UltrapeerNode::new(core))
        }
    });
    let mut ups = handles.ups;
    let plain_ups = ups.split_off(cfg.hybrid_ups);
    Deployment { hybrid_ups: ups, plain_ups, leaves: handles.leaves }
}
