//! # pier-p2p — facade crate
//!
//! A from-scratch Rust reproduction of *"Enhancing P2P File-Sharing with an
//! Internet-Scale Query Processor"* (Loo, Hellerstein, Huebsch, Shenker,
//! Stoica — VLDB 2004).
//!
//! This crate re-exports the public API of every subsystem in the workspace
//! so examples and downstream users have a single dependency:
//!
//! * [`netsim`] — deterministic discrete-event network simulator (the
//!   PlanetLab / wide-area substrate).
//! * [`vocab`] — the process-wide interned term vocabulary (`TermId` /
//!   `Terms`) every keyword path runs on.
//! * [`codec`] — the compact binary wire format (`Wire`) behind wire-size
//!   accounting.
//! * [`dht`] — Kademlia-style structured overlay (the Bamboo substitute).
//! * [`pier`] — the PIER relational query processor over the DHT.
//! * [`piersearch`] — keyword search (Publisher + Search Engine) on PIER.
//! * [`gnutella`] — the unstructured Gnutella network (LimeWire-style
//!   ultrapeers, flooding, dynamic querying, QRP).
//! * [`hybrid`] — the paper's hybrid search infrastructure plus the
//!   rare-item identification schemes (QRS/TF/TPF/SAM/Perfect/Random).
//! * [`churn`] — session-lifetime samplers and the deterministic churn
//!   driver (the §5 dynamic-membership story).
//! * [`model`] — the analytical model of §6 (equations 1–5).
//! * [`workload`] — synthetic Gnutella-like workloads calibrated to the
//!   paper's published trace statistics.
//!
//! See `README.md` for a tour and `DESIGN.md` for the architecture and the
//! per-experiment index.

pub use pier_churn as churn;
pub use pier_codec as codec;
pub use pier_dht as dht;
pub use pier_gnutella as gnutella;
pub use pier_hybrid as hybrid;
pub use pier_model as model;
pub use pier_netsim as netsim;
pub use pier_qp as pier;
pub use pier_vocab as vocab;
pub use pier_workload as workload;
pub use piersearch;
