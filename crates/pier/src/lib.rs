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
//! The engine ([`PierCore`]) is I/O-free and composes with [`pier_dht`]'s
//! `DhtCore` inside any actor; [`PierNode`] is the ready-made standalone
//! actor. Its batch size (64 tuples), client deadline (30 s) and executor
//! garbage-collection delay (120 s) are fixed constants in `core.rs`, so
//! [`PierCore::new`] takes only the catalog. Reference local operators
//! (selection, projection, hash joins, aggregation) live in [`ops`]; the
//! engine does not call them.

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
pub use core::{PierCore, PierEvent, PublishError, QueryOutcome};
pub use expr::{CmpOp, Expr, ExprError};
pub use msg::PierMsg;
pub use node::{PierApp, PierNode};
pub use plan::{JoinChainBuilder, JoinCols, PlanError, QueryId, QueryPlan, ScanSpec, Stage};
pub use schema::{Field, FieldType, Schema, SchemaError, TableDef};
pub use value::{Tuple, Value};
