#![forbid(unsafe_code)]
//! # pier-qp — the PIER relational query processor over a DHT
//!
//! A from-scratch reproduction of the query engine the paper builds
//! PIERSearch on (Huebsch et al., "Querying the Internet with PIER",
//! VLDB 2003; used here exactly as §2–§3 of the reproduced paper describe):
//!
//! * tuples are published into the DHT under a per-table **index key**
//!   ([`TableDef::publish_key`]);
//! * query plans ([`QueryPlan`]) are chains of stages routed via the DHT to
//!   the nodes owning their site keys;
//! * stages scan their local fragment, **join the incoming tuple stream**
//!   against it (the distributed symmetric-hash-join of Fig. 2), and ship
//!   projected outputs downstream in batches;
//! * final results stream **directly** back to the query node — the one
//!   exception the paper makes to DHT routing.
//!
//! Routing may repeat or reorder messages, so every stream ends one way:
//! it is complete when it holds every distinct batch `seq` below its EOF's
//! `total`, and a repeated batch is ignored. Results that arrive after their
//! query reported `Done` count as `pier.orphan_results`; a plan that fails
//! [`QueryPlan::validate`] against the local catalog, a stage index past
//! its plan and a batch sent to a source stage are dropped and counted as
//! `pier.protocol_violation`.
//!
//! The engine ([`PierCore`]) is I/O-free and composes with [`pier_dht`]'s
//! `DhtCore` inside any actor; [`PierNode`] is the ready-made standalone
//! actor. Its batch size (64 tuples), client deadline ([`QUERY_TIMEOUT`],
//! 30 s) and stage garbage-collection delay ([`EXEC_TTL`], 120 s) are
//! fixed constants in `core.rs`, so
//! [`PierCore::new`] takes only the catalog. [`ops`] holds the symmetric
//! hash join as a stand-alone operator; the engine joins inline and does
//! not call it.

mod catalog;
pub mod classes;
mod core;
pub mod expr;
mod msg;
mod node;
pub mod ops;
mod plan;
mod schema;
mod value;

pub use catalog::Catalog;
pub use core::{PierCore, PierEvent, PublishError, QueryOutcome, EXEC_TTL, QUERY_TIMEOUT};
pub use expr::{Expr, ExprError};
pub use msg::PierMsg;
pub use node::{PierApp, PierNode};
pub use plan::{JoinChainBuilder, JoinCols, PlanError, QueryId, QueryPlan, ScanSpec, Stage};
pub use schema::{Field, FieldType, Schema, SchemaError, TableDef};
pub use value::{Tuple, Value};
