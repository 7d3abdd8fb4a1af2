#![forbid(unsafe_code)]
//! # pier-churn — the churn & maintenance subsystem
//!
//! The paper's hybrid design stands or falls on whether DHT publishing of
//! rare items survives Gnutella-scale churn: §5's publishing-cost analysis
//! is driven entirely by *session lifetimes* (measured in minutes at the
//! median) and *soft-state refresh intervals*. This crate supplies the
//! dynamic-membership machinery the static topologies lacked:
//!
//! * [`session`] — heavy-tailed session lifetime / downtime samplers
//!   ([`LifetimeDist`]: Pareto, log-normal, exponential, fixed), with
//!   clamped support and analytic medians, so experiments can dial a
//!   "median-minutes" Gnutella session profile per scale.
//! * [`driver`] — the [`ChurnDriver`]: a deterministic, pre-computed
//!   schedule of join/leave events over the simulation clock, derived
//!   from the trial's seeded RNG. Events apply [`pier_netsim::Sim::set_down`]
//!   / [`set_up`](pier_netsim::Sim::set_up) (which cancel and re-arm
//!   timers through the netsim revival hook) and then run the caller's
//!   [`ChurnHooks`] for membership-aware repair.
//! * [`gnutella`] — ready-made [`GnutellaRepair`]
//!   hooks for two-tier Gnutella networks: orphaned leaves reattach to
//!   live ultrapeers (with a QRP re-push), ultrapeers refill neighbor
//!   slots lost to peer death, and revived nodes re-wire themselves. The
//!   driver plays the role of LimeWire's host caches — the out-of-band
//!   membership knowledge real clients use to find replacement peers.
//!
//! DHT-side repair needs no hooks: `pier-dht` evicts contacts whose RPCs
//! time out, refreshes stale buckets, and re-primes the routing table via
//! a self-lookup on revival; `piersearch`'s Publisher runs the §5
//! soft-state republish loop so postings lost with departed holders
//! reappear on live nodes.

pub mod driver;
pub mod gnutella;
pub mod session;

pub use driver::{ChurnDriver, ChurnEvent, ChurnHooks, ChurnPlan};
pub use gnutella::GnutellaRepair;
pub use session::{LifetimeDist, SessionConfig};
