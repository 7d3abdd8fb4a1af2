#![forbid(unsafe_code)]
//! # pier-churn — the churn & maintenance subsystem
//!
//! The paper's hybrid design stands or falls on whether DHT publishing of
//! rare items survives Gnutella-scale churn: §5's publishing-cost analysis
//! is driven entirely by *session lifetimes* (measured in minutes at the
//! median) and *soft-state refresh intervals*. This crate supplies the
//! dynamic-membership machinery the static topologies lacked:
//!
//! * [`session`] — the heavy-tailed session lifetime / downtime sampler
//!   ([`LifetimeDist`], a log-normal set by its median and σ, with clamped
//!   support), so experiments can dial a "median-minutes" Gnutella
//!   session profile per scale.
//! * [`driver`] — the [`ChurnDriver`]: a deterministic, pre-computed
//!   schedule of join/leave events over the simulation clock, derived
//!   from the trial's seeded RNG. Events apply [`pier_netsim::Sim::set_down`]
//!   / [`set_up`](pier_netsim::Sim::set_up) (which cancel and re-arm
//!   timers through the netsim revival hook) and then run the caller's
//!   [`ChurnHooks`].
//!
//! Gnutella links are never repaired: a node's neighbours and homes are set
//! once at wiring (see `pier_gnutella::topology`), so a departed peer stays
//! listed where it was and a revived one resumes on the same links.
//! DHT-side repair needs no hooks: `pier-dht` evicts contacts whose RPCs
//! time out, refreshes stale buckets, and re-primes the routing table via
//! a self-lookup on revival; `piersearch`'s Publisher runs the §5
//! soft-state republish loop so postings lost with departed holders
//! reappear on live nodes.

pub mod driver;
pub mod session;

pub use driver::{ChurnDriver, ChurnEvent, ChurnHooks, ChurnPlan};
pub use session::{LifetimeDist, SessionConfig};
