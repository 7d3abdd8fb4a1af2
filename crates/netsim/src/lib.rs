#![forbid(unsafe_code)]
//! Deterministic discrete-event network simulator.
//!
//! This crate is the substrate on which every overlay in this workspace runs
//! (the Kademlia-style DHT, the Gnutella network, and the hybrid ultrapeers).
//! It plays the role that PlanetLab and the live Internet played in the
//! paper: it delivers messages between nodes with configurable wide-area
//! latencies, fires timers, and accounts for every message and byte sent.
//!
//! # Design
//!
//! * **Virtual time.** A 64-bit microsecond clock ([`SimTime`]). Events are
//!   ordered by `(arrival time, send time, scheduling node, per-node
//!   sequence)` — a key intrinsic to the workload — so execution is
//!   bit-reproducible for a fixed master seed, for any shard count.
//! * **Sharding.** With `SimConfig::shards > 1` nodes partition across
//!   shards (fixed hash of [`NodeId`]) that advance in lockstep windows
//!   bounded by [`LatencyModel::min_latency`], exchanging cross-shard
//!   sends at window barriers. Results are bit-identical to a one-shard
//!   run; only wall-clock time changes.
//! * **Actors.** Each simulated process implements [`Actor`] and interacts
//!   with the world only through [`Ctx`] (send a message, set a timer, read
//!   the clock, draw randomness). Protocol logic in the higher crates is
//!   written against `Ctx`, which keeps it composable: the hybrid ultrapeer
//!   of the paper embeds a Gnutella core *and* a DHT/PIER core in one actor.
//! * **Latency models.** Pluggable [`LatencyModel`]s: a constant delay
//!   for unit tests and [`UniformLatency`], the wide-area default
//!   (20–80 ms one-way) that every experiment names.
//! * **Metrics.** Global and per-class counters for messages and bytes, and
//!   bounded streaming histograms whose quantiles feed the paper's latency
//!   figures. Classes are interned [`MetricClass`] ids resolved once per
//!   call-site (declare them with [`metric_classes!`]), so the per-message
//!   hot path never hashes or compares strings.
//!
//! # Example
//!
//! ```
//! use pier_netsim::{Actor, Ctx, NodeId, Sim, SimConfig, SimDuration, TimerToken};
//!
//! pier_netsim::metric_classes! {
//!     PING = "ping";
//!     PONG = "pong";
//! }
//!
//! struct Pinger { peer: NodeId, got: u32 }
//! enum Msg { Ping, Pong }
//!
//! impl Actor<Msg> for Pinger {
//!     fn on_start(&mut self, ctx: &mut dyn Ctx<Msg>) {
//!         if ctx.self_id().index() == 0 {
//!             ctx.send(self.peer, Msg::Ping, 23, PING.id());
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut dyn Ctx<Msg>, from: NodeId, msg: Msg) {
//!         match msg {
//!             Msg::Ping => ctx.send(from, Msg::Pong, 23, PONG.id()),
//!             Msg::Pong => self.got += 1,
//!         }
//!     }
//!     fn on_timer(&mut self, _: &mut dyn Ctx<Msg>, _: TimerToken) {}
//! }
//!
//! let mut sim = Sim::new(SimConfig::default());
//! let a = sim.add_node(Pinger { peer: NodeId::new(1), got: 0 });
//! let b = sim.add_node(Pinger { peer: NodeId::new(0), got: 0 });
//! assert_eq!((a.index(), b.index()), (0, 1));
//! sim.run_until_quiescent();
//! assert_eq!(sim.actor::<Pinger>(a).got, 1);
//! ```

mod actor;
mod event;
pub mod heap;
mod latency;
pub mod metrics;
mod probe;
mod rng;
mod sim;
mod time;

pub use actor::{Actor, Ctx, NodeId, TimerToken};
pub use heap::{HeapSize, MemAcc, MemStats};
pub use latency::{ConstantLatency, LatencyModel, UniformLatency};
pub use metrics::{Counter, Histogram, LazyMetricClass, MetricClass, Metrics, MetricsSnapshot};
pub use probe::KernelProbe;
pub use rng::{derive_seed, split_mix64, stream_rng, SimRng};
pub use sim::{EventStats, Sim, SimConfig, MAX_SHARDS};
pub use time::{SimDuration, SimTime};
