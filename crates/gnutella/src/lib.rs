#![forbid(unsafe_code)]
//! # pier-gnutella — the unstructured filesharing network
//!
//! A faithful simulation of the Gnutella 0.6 network as the paper measured
//! it (§4): two-tier topology (LimeWire-style ultrapeers with 30 leaves /
//! 32 ultrapeer neighbors, or the older 75 / 6 profile), TTL-scoped query
//! flooding with GUID-based duplicate suppression and reverse-path
//! QueryHit routing, QRP Bloom-filter last-hop leaf forwarding, and
//! **dynamic querying** — the paced per-neighbor re-probing whose
//! multi-second intervals produce the paper's 73-second first-result
//! latency for rare items (Fig. 7).
//!
//! The crate also ships the measurement apparatus the paper built:
//! a parallel topology [`Crawler`] (§4.1) and the flood-overhead analysis
//! of Figure 8 ([`floodstats`]).
//!
//! Protocol logic lives in I/O-free cores ([`UltrapeerCore`], [`LeafCore`])
//! driven through [`GnutellaNet`], so the hybrid crate can embed a Gnutella
//! ultrapeer and a DHT/PIER stack in one node — the paper's hybrid
//! ultrapeer (§7). The stock actors ([`UltrapeerNode`], [`LeafNode`]) are
//! that network's installed base too (see [`GnutellaCarrier`]).

mod bloom;
pub mod classes;
mod config;
pub mod crawl;
mod files;
pub mod floodstats;
mod leaf;
mod msg;
mod net;
mod node;
pub mod topology;
mod ultrapeer;

pub use bloom::{QrpFilter, QrpProbe, QrpScreen, QrpView};
pub use config::UltrapeerConfig;
pub use crawl::{CrawlGraph, Crawler};
pub use files::{FileId, FileMeta, FileStore, ShareCatalog};
pub use leaf::{LeafCore, LeafSearch, LEAF_SEARCH_DEADLINE};
pub use msg::{GnutellaMsg, Guid, Hit, HEADER_BYTES};
pub use net::{CtxGnutellaNet, GnutellaCarrier, GnutellaNet};
pub use node::{LeafNode, UltrapeerNode, LEAF_DEADLINE, UP_TICK, UP_TICK_INTERVAL};
pub use pier_vocab::{TermId, Terms};
pub use topology::{
    spawn, spawn_stores, wire, GnutellaHandles, Topology, TopologyConfig, UpLeaves,
};
pub use ultrapeer::{
    QueryOrigin, QueryRecord, UltrapeerCore, DYN_TTL, HIT_TTL, PROBE_INTERVAL, PROBE_TTL,
};
