#![forbid(unsafe_code)]
//! # pier-dht — Kademlia-style structured overlay
//!
//! The structured-overlay substrate of the reproduction: the role the Bamboo
//! DHT plays under PIER in the paper. It provides exactly the interface the
//! paper's architecture needs (§2–§3):
//!
//! * **content-based routing** — [`DhtCore::route`] delivers a payload to
//!   the node currently responsible for a key in O(log N) hops (PIER sends
//!   query plans this way);
//! * **put/get** — [`DhtCore::put`] / [`DhtCore::get`] with replication
//!   and TTLs (PIERSearch publishes `Item` and `Inverted` tuples this way,
//!   and keeps them alive by putting them again: stored values are soft
//!   state, the core itself re-pushes nothing);
//! * **churn handling** — k-bucket tables with liveness-checked eviction,
//!   RPC timeouts, bucket refresh, and the join protocol.
//!
//! Identifiers are 160-bit SHA-1 keys ([`Key`]) with the XOR metric. Routing
//! state lives in k-buckets ([`RoutingTable`]); lookups are iterative and
//! α-parallel ([`lookup::Lookup`]). For large background overlays,
//! [`bootstrap::warm_tables`] primes routing tables directly instead of
//! replaying thousands of joins (see DESIGN.md §4).
//!
//! ## Layering
//!
//! [`DhtCore`] is an I/O-free state machine driven through the [`DhtNet`]
//! trait and drained of [`DhtEvent`]s; [`DhtNode`] packages it as a
//! simulator actor, or as a part another actor hosts. Applications (PIER, and transitively PIERSearch and the
//! hybrid ultrapeer) implement [`DhtApp`].

pub mod bootstrap;
pub mod classes;
mod config;
mod contact;
mod core;
mod key;
pub mod lookup;
mod msg;
mod node;
mod routing;
pub mod sha1;
mod storage;

pub use config::DhtConfig;
pub use contact::Contact;
pub use core::{DhtCore, DhtEvent, DhtNet, OpId};
pub use key::{Distance, Key, KEY_BITS};
pub use msg::{DhtMsg, Request, Response, RpcId};
pub use node::{CtxNet, DhtApp, DhtNode, NullApp, TICK_TOKEN};
pub use routing::{InsertOutcome, RoutingTable};
pub use storage::Storage;
