#![forbid(unsafe_code)]
//! # pier-workload — synthetic Gnutella-like workloads
//!
//! The paper's evaluation is driven by live traces of the 2003 Gnutella
//! network that no longer exist. This crate generates synthetic stand-ins
//! **calibrated to the statistics the paper publishes**:
//!
//! * heavy-tailed per-file replica counts with the fraction of singleton
//!   instances pinned to ≈23% ([`zipf::calibrate_beta`] — the Fig. 10
//!   anchor at replica threshold 1);
//! * Zipf-popular terms composed into phrase-structured filenames (so
//!   term and adjacent-term-pair statistics have realistic shape for the
//!   TF/TPF rare-item schemes; the paper observed 38,900 terms and
//!   193,104 pairs);
//! * query traces windowed out of target filenames with a popularity mix
//!   producing the long-tailed result-size distribution of Fig. 5/6
//!   (≈41% of queries with ≤10 results, ≈18% with none at one vantage).
//!
//! The calibration itself — the 23% singleton mass, the Zipf skew, the
//! popular/tail query mix, the miss rate and the 1–3-term query window —
//! is fixed by the trace, so it lives in `const`s beside the generators;
//! [`CatalogConfig`] and [`QueryConfig`] set only sizes and seeds.
//!
//! [`Evaluator`] computes exact ground truth (which files match a query)
//! with the same token-matching semantics as the simulated Gnutella
//! clients, so recall metrics (QR / QDR) are well defined. Catalogs and
//! traces are regenerated from their seeds; nothing saves them.

mod catalog;
mod queries;
pub mod words;
pub mod zipf;

pub use catalog::{Catalog, CatalogConfig, DistinctFile};
pub use queries::{vantage_hosts, Evaluator, GroundTruth, Query, QueryConfig, QueryTrace};
pub use zipf::{calibrate_beta, PowerLaw, Zipf};
