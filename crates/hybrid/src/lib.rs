//! # pier-hybrid — the hybrid search infrastructure
//!
//! The paper's proposal (§5, §7): keep Gnutella flooding for popular
//! content and use PIERSearch as a partial index over **rare items only**.
//!
//! * [`HybridUp`] is the hybrid ultrapeer of Fig. 17 — one actor hosting
//!   a LimeWire ultrapeer core and a stock `PierSearchNode` (DHT, PIER
//!   engine, publisher, search engine). Leaf queries run through normal
//!   dynamic querying; those that return nothing within the timeout
//!   (30 s in the deployment) are re-issued via PIERSearch.
//! * [`RareScheme`] provides the §5 rare-item identification schemes in
//!   online form (QRS, TF, TPF, SAM), fed by snooped result
//!   traffic and leaf BrowseHost listings; publishing is rate-limited as
//!   the paper observed (~one file per 2–3 s).
//! * [`deploy::spawn`] assembles the §7 partial deployment: a handful of
//!   hybrid ultrapeers inside a stock Gnutella network, with the hybrid
//!   subset forming its own DHT overlay.
//!
//! [`HybridMsg`] wraps both protocols' messages, so [`HybridUp`] drives
//! both stacks through the stock adapters (`CtxGnutellaNet`, `CtxNet`) and
//! timer tokens, and the installed base is Gnutella's own
//! `UltrapeerNode` / `LeafNode`.

pub mod classes;
pub mod deploy;
mod msg;
pub mod rare;
mod ultrapeer;

pub use msg::HybridMsg;
pub use rare::{ObservedItem, RareScheme};
pub use ultrapeer::{HybridConfig, HybridQueryStats, HybridUp};
