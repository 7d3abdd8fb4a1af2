//! `DhtCore`: the per-node DHT protocol state machine.
//!
//! The core is I/O-free: it talks to the network through the [`DhtNet`]
//! trait and reports asynchronous completions as [`DhtEvent`]s drained by
//! the embedding actor. This is what lets the hybrid ultrapeer of §7 run a
//! DHT node, a Gnutella ultrapeer, and the PIER engine inside one process.

use crate::config::DhtConfig;
use crate::contact::Contact;
use crate::key::Key;
use crate::lookup::{Lookup, LookupKind};
use crate::msg::{DhtMsg, Request, Response, RpcId};
use crate::routing::{InsertOutcome, RoutingTable};
use crate::storage::Storage;
use pier_netsim::keyed::{KeyedMap, KeyedSet};
use pier_netsim::{Deadlines, MetricClass, NodeId, SimRng, SimTime};
use pier_trace::{TraceHandle, TraceId, TraceKind};
use std::collections::{hash_map, BTreeMap, VecDeque};

/// Maximum hops for recursively routed messages (loop guard; log2 of any
/// realistic network size leaves wide margin).
const MAX_ROUTE_HOPS: u32 = 64;

/// Handle for correlating asynchronous DHT operations with their events.
pub type OpId = u64;

/// How the core reaches the network. Implemented over `pier_netsim::Ctx`
/// by [`crate::node::CtxNet`], for `DhtMsg` itself or any union message
/// type that wraps it (the hybrid network's).
pub trait DhtNet {
    fn now(&self) -> SimTime;
    fn self_node(&self) -> NodeId;
    fn rng(&mut self) -> &mut SimRng;
    /// Send a protocol message; implementations account `msg.wire_size()`
    /// under `msg.class()`.
    fn send_dht(&mut self, dst: NodeId, msg: DhtMsg);
    fn count(&mut self, class: MetricClass, n: u64);
    fn observe(&mut self, class: MetricClass, value: f64);
}

/// Asynchronous completions and application deliveries.
#[derive(Debug, Clone)]
pub enum DhtEvent {
    /// The join lookup finished; the routing table is primed.
    Joined { contacts: usize },
    /// An `iterative_find_node` finished.
    LookupDone { op: OpId, closest: Vec<Contact> },
    /// A `put` finished: the value was stored on `acks` replicas.
    PutDone { op: OpId, key: Key, acks: usize },
    /// A `get` finished with all values found.
    GetDone { op: OpId, key: Key, values: Vec<Vec<u8>>, holders: usize },
    /// A recursively-routed payload arrived at this node (we own `key`).
    RouteDelivered { key: Key, payload: Vec<u8>, origin: Contact, hops: u32 },
    /// A direct application payload arrived.
    AppMessage { payload: Vec<u8>, origin: Contact },
}

enum RpcPurpose {
    /// Response feeds the lookup with this op id.
    Lookup(OpId),
    /// A STORE for the put operation with this op id.
    Store(OpId),
    /// Liveness probe of a full bucket's least-recently-seen contact, the
    /// RPC's own `dst`: its timeout evicts it like any other silent contact.
    EvictPing,
}

impl pier_netsim::HeapSize for PendingRpc {
    fn heap_bytes(&self) -> usize {
        0
    }
}

struct PendingRpc {
    dst: Contact,
    purpose: RpcPurpose,
}

impl pier_netsim::HeapSize for PutProgress {
    fn heap_bytes(&self) -> usize {
        0
    }
}

struct PutProgress {
    key: Key,
    acks: usize,
    pending: usize,
}

/// The DHT node state machine.
pub struct DhtCore {
    cfg: DhtConfig,
    table: RoutingTable,
    storage: Storage,
    next_rpc: RpcId,
    next_op: OpId,
    pending: Deadlines<RpcId, PendingRpc>,
    lookups: KeyedMap<OpId, Lookup>,
    puts: KeyedMap<OpId, PutProgress>,
    evict_in_flight: KeyedSet<Key>,
    join_op: Option<OpId>,
    events: VecDeque<DhtEvent>,
    /// Causal query tracing (inert unless the driver sampled queries).
    trace: TraceHandle,
    /// While set, lookups started by API calls are attributed to this
    /// trace (the hybrid ultrapeer brackets `start_search` with it; the
    /// search engine re-opens it around that search's item fetches).
    trace_scope: Option<TraceId>,
    /// Lookup ops carrying a trace tag (only sampled queries appear here).
    op_traces: BTreeMap<OpId, TraceId>,
}

impl DhtCore {
    pub fn new(cfg: DhtConfig, local: Contact) -> Self {
        DhtCore {
            table: RoutingTable::new(local, cfg.k),
            cfg,
            storage: Storage::new(),
            next_rpc: 1,
            next_op: 1,
            pending: Deadlines::default(),
            lookups: KeyedMap::new(),
            puts: KeyedMap::new(),
            evict_in_flight: KeyedSet::new(),
            join_op: None,
            events: VecDeque::new(),
            trace: TraceHandle::default(),
            trace_scope: None,
            op_traces: BTreeMap::new(),
        }
    }

    /// Attach the run's tracer (driver API; the default handle is inert).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Attribute lookups started until [`DhtCore::clear_trace_scope`] to
    /// `t`. The caller brackets the API call that issues them: the driver
    /// or embedding actor around a search, the search engine around the
    /// later fetches that search issues.
    pub fn trace_scope(&mut self, t: TraceId) {
        if self.trace.is_active() {
            self.trace_scope = Some(t);
        }
    }

    pub fn clear_trace_scope(&mut self) {
        self.trace_scope = None;
    }

    /// The trace scope open now, if any.
    pub fn current_trace_scope(&self) -> Option<TraceId> {
        self.trace_scope
    }

    fn trace_emit(&self, net: &mut dyn DhtNet, t: TraceId, kind: TraceKind, n: u64, m: u64) {
        let node = net.self_node().index() as u64;
        self.trace.emit(t, net.now().as_micros(), node, kind, None, n, m);
    }

    /// The local contact (identity).
    pub fn local(&self) -> Contact {
        self.table.local()
    }

    pub fn config(&self) -> &DhtConfig {
        &self.cfg
    }

    /// Drain pending events (the embedding actor forwards them to the app).
    pub fn take_events(&mut self) -> Vec<DhtEvent> {
        self.events.drain(..).collect()
    }

    /// Direct read access to locally stored values (PIER index scans run at
    /// the owner and read its replica directly).
    pub fn local_values(&self, key: &Key, now: SimTime) -> Vec<Vec<u8>> {
        self.storage.get(key, now).into_iter().map(|v| v.to_vec()).collect()
    }

    /// Direct access to the routing table (diagnostics, warm start).
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    pub fn table_mut(&mut self) -> &mut RoutingTable {
        &mut self.table
    }

    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Heap accounting by subsystem (see `pier_netsim::Sim::mem_stats`):
    /// the value store, the routing table, and the in-flight operations.
    /// A swept value's heap is freed at once, so the store's row is all
    /// held bytes.
    pub fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        use pier_netsim::HeapSize;
        acc.add("dht.storage", self.storage.heap_bytes());
        acc.add("dht.routing", self.table.heap_bytes());
        let ops = self.pending.heap_bytes()
            + self.lookups.heap_bytes()
            + self.puts.heap_bytes()
            + self.evict_in_flight.heap_bytes()
            + self.events.capacity() * size_of::<DhtEvent>();
        acc.add("dht.ops", ops);
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Join the overlay via a bootstrap contact: a self-lookup primes the
    /// routing table; [`DhtEvent::Joined`] fires when it settles.
    pub fn join(&mut self, net: &mut dyn DhtNet, bootstrap: Contact) {
        self.observe_contact(net, bootstrap);
        let op = self.start_lookup(net, self.local().key, LookupKind::Node);
        self.join_op = Some(op);
    }

    /// Find the k closest nodes to `target`.
    pub fn iterative_find_node(&mut self, net: &mut dyn DhtNet, target: Key) -> OpId {
        self.start_lookup(net, target, LookupKind::Node)
    }

    /// Store `value` under `key` on the replica set. The copies are soft
    /// state: they expire after `cfg.value_ttl` and leave with their
    /// holders, so a publisher that wants durability `put`s again (as
    /// PIERSearch's `Publisher::refresh_interval` loop does).
    pub fn put(&mut self, net: &mut dyn DhtNet, key: Key, value: Vec<u8>) -> OpId {
        let ttl_us = self.cfg.value_ttl.as_micros();
        self.start_lookup(net, key, LookupKind::Publish { value, ttl_us })
    }

    /// Store `value` under `key` via recursive greedy routing — the
    /// Bamboo-style publish PIER uses. One message path of O(log N) hops,
    /// a single stored copy, no ack; durability is the publisher's job (the
    /// replicated `put` of PIERSearch's soft-state refresh loop).
    pub fn put_routed(&mut self, net: &mut dyn DhtNet, key: Key, value: Vec<u8>) {
        let ttl_us = self.cfg.value_ttl.as_micros();
        let origin = self.local();
        self.route_store_step(net, key, value, ttl_us, 0, origin);
    }

    fn route_store_step(
        &mut self,
        net: &mut dyn DhtNet,
        key: Key,
        value: Vec<u8>,
        ttl_us: u64,
        hops: u32,
        origin: Contact,
    ) {
        if hops >= MAX_ROUTE_HOPS {
            net.count(crate::classes::ROUTE_HOP_LIMIT_DROP.id(), 1);
            return;
        }
        match self.table.next_hop(&key) {
            None => {
                let expires = net.now() + pier_netsim::SimDuration::from_micros(ttl_us);
                self.storage.insert(key, value, expires);
                net.observe(crate::classes::ROUTE_STORE_HOPS.id(), hops as f64);
            }
            Some(hop) => {
                let msg = DhtMsg::RouteStore { key, value, ttl_us, hops: hops + 1, origin };
                net.send_dht(hop.node, msg);
            }
        }
    }

    /// Retrieve all values stored under `key`.
    pub fn get(&mut self, net: &mut dyn DhtNet, key: Key) -> OpId {
        self.start_lookup(net, key, LookupKind::Value)
    }

    /// Route an opaque application payload to the owner of `key`
    /// (multi-hop greedy forwarding, O(log N) hops).
    pub fn route(&mut self, net: &mut dyn DhtNet, key: Key, payload: Vec<u8>) {
        let origin = self.local();
        self.route_step(net, key, payload, 0, origin);
    }

    /// Send an application payload directly to a known node (used for query
    /// answers, which the paper exempts from DHT routing).
    pub fn send_direct(&mut self, net: &mut dyn DhtNet, dst: NodeId, payload: Vec<u8>) {
        let msg = DhtMsg::AppDirect { payload, origin: self.local() };
        net.send_dht(dst, msg);
    }

    /// Session teardown (the node left the overlay): stored replicas
    /// vanish with the process and every in-flight operation dies. The
    /// routing table survives — on rejoin most contacts are still valid
    /// and [`DhtCore::revive`]'s self-lookup plus the per-RPC failure
    /// eviction weed out the stale ones. What the node itself published
    /// is not tracked here: re-pushing it is the application's soft-state
    /// loop (the paper's §5 publishing model).
    pub fn end_session(&mut self) {
        self.storage.clear();
        self.pending.clear();
        self.lookups.clear();
        self.puts.clear();
        self.evict_in_flight.clear();
        self.join_op = None;
        self.events.clear();
        self.trace_scope = None;
        self.op_traces.clear();
    }

    /// No RPC awaiting its reply and no lookup, store or eviction ping in
    /// progress (a test observer, like `PierCore::is_idle`).
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.lookups.is_empty()
            && self.puts.is_empty()
            && self.evict_in_flight.is_empty()
    }

    /// Revival repair: re-prime the routing table with a self-lookup (the
    /// join walk, but seeded from the surviving table instead of a
    /// bootstrap contact). A node whose table emptied has no one to ask:
    /// it stays isolated, counted in `dht.revive_isolated`.
    pub fn revive(&mut self, net: &mut dyn DhtNet) {
        if self.table.is_empty() {
            return net.count(crate::classes::REVIVE_ISOLATED.id(), 1);
        }
        net.count(crate::classes::REVIVE_REJOIN.id(), 1);
        let op = self.start_lookup(net, self.local().key, LookupKind::Node);
        self.join_op = Some(op);
    }

    /// Periodic maintenance: RPC timeouts, value expiry, bucket refresh.
    /// The embedding actor calls this on its tick timer.
    pub fn tick(&mut self, net: &mut dyn DhtNet) {
        let now = net.now();
        self.sweep_timeouts(net, now);
        self.storage.expire(now);
        self.refresh_stale_buckets(net, now);
    }

    /// Handle an incoming DHT message.
    pub fn on_message(&mut self, net: &mut dyn DhtNet, msg: DhtMsg) {
        match msg {
            DhtMsg::Request { id, from, body } => {
                self.observe_contact(net, from);
                let resp = self.handle_request(net, body);
                let reply = DhtMsg::Response { id, from: self.local(), body: resp };
                net.send_dht(from.node, reply);
            }
            DhtMsg::Response { id, from, body } => {
                self.observe_contact(net, from);
                self.handle_response(net, id, body);
            }
            DhtMsg::Route { key, payload, hops, origin } => {
                self.observe_contact(net, origin);
                self.route_step(net, key, payload, hops, origin);
            }
            DhtMsg::RouteStore { key, value, ttl_us, hops, origin } => {
                self.observe_contact(net, origin);
                self.route_store_step(net, key, value, ttl_us, hops, origin);
            }
            DhtMsg::AppDirect { payload, origin } => {
                self.observe_contact(net, origin);
                self.events.push_back(DhtEvent::AppMessage { payload, origin });
            }
        }
    }

    // ------------------------------------------------------------------
    // Request handling (server side)
    // ------------------------------------------------------------------

    fn handle_request(&mut self, net: &mut dyn DhtNet, body: Request) -> Response {
        match body {
            Request::Ping => Response::Pong,
            Request::FindNode { target } => {
                Response::Nodes { contacts: self.table.closest(&target, self.cfg.k) }
            }
            Request::Store { key, value, ttl_us } => {
                let expires = net.now() + pier_netsim::SimDuration::from_micros(ttl_us);
                self.storage.insert(key, value, expires);
                Response::StoreAck
            }
            Request::FindValue { key } => {
                // `fetch` sweeps expired values while it reads, so quiet
                // keys reclaim storage without waiting for the expiry tick.
                let values: Vec<Vec<u8>> =
                    self.storage.fetch(&key, net.now()).into_iter().map(|v| v.to_vec()).collect();
                let closer = self.table.closest(&key, self.cfg.k);
                Response::Values { values, closer }
            }
        }
    }

    // ------------------------------------------------------------------
    // Response handling (client side)
    // ------------------------------------------------------------------

    fn handle_response(&mut self, net: &mut dyn DhtNet, id: RpcId, body: Response) {
        let Some(pending) = self.pending.close(&id) else {
            net.count(crate::classes::STALE_RESPONSE.id(), 1);
            return;
        };
        match pending.purpose {
            RpcPurpose::Lookup(op) => {
                let self_key = self.local().key;
                let Some(lookup) = self.lookups.get_mut(&op) else {
                    return;
                };
                // The reply answers the contact the RPC went to, whatever
                // the responder calls itself: that entry is the one in
                // flight.
                let to = &pending.dst.key;
                match body {
                    Response::Nodes { contacts } => {
                        lookup.add_candidates(&contacts, self_key);
                        lookup.on_response(to);
                    }
                    Response::Values { values, closer } => {
                        lookup.add_candidates(&closer, self_key);
                        lookup.on_values(to, values);
                    }
                    _ => lookup.on_response(to),
                }
                self.drive_lookup(net, op);
            }
            RpcPurpose::Store(op) => {
                if let Some(put) = self.puts.get_mut(&op) {
                    put.pending -= 1;
                    if matches!(body, Response::StoreAck) {
                        put.acks += 1;
                    }
                    self.maybe_finish_put(op);
                }
            }
            RpcPurpose::EvictPing => {
                // The candidate answered: it stays; drop the pending entry.
                self.evict_in_flight.remove(&pending.dst.key);
            }
        }
    }

    // ------------------------------------------------------------------
    // Lookup driving
    // ------------------------------------------------------------------

    fn start_lookup(&mut self, net: &mut dyn DhtNet, target: Key, kind: LookupKind) -> OpId {
        let op = self.next_op;
        self.next_op += 1;
        if let Some(t) = self.trace_scope {
            self.op_traces.insert(op, t);
            let kind_code = match kind {
                LookupKind::Value => 0,
                LookupKind::Node => 1,
                LookupKind::Publish { .. } => 2,
            };
            self.trace_emit(net, t, TraceKind::DhtLookupStart, op, kind_code);
        }
        let seeds = self.table.closest(&target, self.cfg.k);
        let lookup = Lookup::new(target, kind, self.cfg.k, self.cfg.alpha, self.local().key, seeds);
        self.lookups.insert(op, lookup);
        self.drive_lookup(net, op);
        op
    }

    fn drive_lookup(&mut self, net: &mut dyn DhtNet, op: OpId) {
        let Some(lookup) = self.lookups.get_mut(&op) else {
            return;
        };
        let target = lookup.target;
        let is_value = matches!(lookup.kind, LookupKind::Value);
        let batch = lookup.next_batch();
        // Sending requests never touches the lookup, so it is complete now
        // exactly when it would be after the sends.
        let finished = lookup.is_complete().then(|| self.lookups.remove(&op)).flatten();
        if !batch.is_empty() {
            if let Some(&t) = self.op_traces.get(&op) {
                self.trace_emit(net, t, TraceKind::DhtHop, batch.len() as u64, op);
            }
        }
        for contact in batch {
            let body = if is_value {
                Request::FindValue { key: target }
            } else {
                Request::FindNode { target }
            };
            self.send_request(net, contact, body, RpcPurpose::Lookup(op));
        }
        if let Some(lookup) = finished {
            self.finish_lookup(net, op, lookup);
        }
    }

    fn finish_lookup(&mut self, net: &mut dyn DhtNet, op: OpId, lookup: Lookup) {
        net.observe(crate::classes::LOOKUP_QUERIES.id(), lookup.queries_sent as f64);
        if let Some(t) = self.op_traces.remove(&op) {
            self.trace_emit(net, t, TraceKind::DhtLookupDone, lookup.queries_sent as u64, op);
        }
        let responders = lookup.closest_responded(self.cfg.k);
        match lookup.kind {
            LookupKind::Node => {
                let closest = responders;
                if self.join_op == Some(op) {
                    self.join_op = None;
                    self.events.push_back(DhtEvent::Joined { contacts: self.table.len() });
                } else {
                    self.events.push_back(DhtEvent::LookupDone { op, closest });
                }
            }
            LookupKind::Value => {
                let mut values = lookup.values;
                let mut holders = lookup.value_holders;
                // Merge our own replica: the local node may be in the set.
                let local = self.local_values(&lookup.target, net.now());
                if !local.is_empty() {
                    holders += 1;
                    for v in local {
                        if !values.contains(&v) {
                            values.push(v);
                        }
                    }
                }
                self.events.push_back(DhtEvent::GetDone {
                    op,
                    key: lookup.target,
                    values,
                    holders,
                });
            }
            LookupKind::Publish { value, ttl_us } => {
                let mut replica_set = responders;
                replica_set.truncate(self.cfg.replication);
                self.finish_publish(net, op, lookup.target, value, ttl_us, replica_set);
            }
        }
    }

    fn finish_publish(
        &mut self,
        net: &mut dyn DhtNet,
        op: OpId,
        key: Key,
        value: Vec<u8>,
        ttl_us: u64,
        responders: Vec<Contact>,
    ) {
        // Replica set: the r closest responders, with the local node
        // competing for a slot by distance.
        let own_distance = self.local().key.distance(&key);
        let mut stored_locally = false;
        let mut remote: Vec<Contact> = Vec::new();
        let mut slots = self.cfg.replication;
        for c in responders {
            if slots == 0 {
                break;
            }
            if !stored_locally && own_distance < c.key.distance(&key) {
                stored_locally = true;
                slots -= 1;
                if slots == 0 {
                    break;
                }
            }
            remote.push(c);
            slots -= 1;
        }
        if slots > 0 && !stored_locally {
            stored_locally = true;
        }
        let mut acks = 0;
        if stored_locally {
            let expires = net.now() + pier_netsim::SimDuration::from_micros(ttl_us);
            self.storage.insert(key, value.clone(), expires);
            acks += 1;
        }
        self.puts.insert(op, PutProgress { key, acks, pending: remote.len() });
        for c in remote {
            self.send_request(
                net,
                c,
                Request::Store { key, value: value.clone(), ttl_us },
                RpcPurpose::Store(op),
            );
        }
        self.maybe_finish_put(op);
    }

    fn maybe_finish_put(&mut self, op: OpId) {
        if let hash_map::Entry::Occupied(put) = self.puts.entry(op) {
            if put.get().pending == 0 {
                let put = put.remove();
                self.events.push_back(DhtEvent::PutDone { op, key: put.key, acks: put.acks });
            }
        }
    }

    // ------------------------------------------------------------------
    // Recursive routing
    // ------------------------------------------------------------------

    fn route_step(
        &mut self,
        net: &mut dyn DhtNet,
        key: Key,
        payload: Vec<u8>,
        hops: u32,
        origin: Contact,
    ) {
        if hops >= MAX_ROUTE_HOPS {
            net.count(crate::classes::ROUTE_HOP_LIMIT_DROP.id(), 1);
            return;
        }
        match self.table.next_hop(&key) {
            None => {
                net.observe(crate::classes::ROUTE_HOPS.id(), hops as f64);
                self.events.push_back(DhtEvent::RouteDelivered { key, payload, origin, hops });
            }
            Some(hop) => {
                let msg = DhtMsg::Route { key, payload, hops: hops + 1, origin };
                net.send_dht(hop.node, msg);
            }
        }
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Time out every RPC whose deadline has passed, oldest first. No RPC
    /// is due in the instant it is sent (see [`Self::send_request`]), so the
    /// ones the handlers below send wait for the next tick.
    fn sweep_timeouts(&mut self, net: &mut dyn DhtNet, now: SimTime) {
        while let Some((_, p)) = self.pending.pop_due(now) {
            net.count(crate::classes::RPC_TIMEOUT.id(), 1);
            self.table.remove(&p.dst.key);
            match p.purpose {
                RpcPurpose::Lookup(op) => {
                    if let Some(&t) = self.op_traces.get(&op) {
                        self.trace_emit(net, t, TraceKind::DhtTimeout, 1, op);
                    }
                    if let Some(lookup) = self.lookups.get_mut(&op) {
                        lookup.on_failure(&p.dst.key);
                        self.drive_lookup(net, op);
                    }
                }
                RpcPurpose::Store(op) => {
                    if let Some(put) = self.puts.get_mut(&op) {
                        put.pending -= 1;
                        self.maybe_finish_put(op);
                    }
                }
                RpcPurpose::EvictPing => {
                    self.evict_in_flight.remove(&p.dst.key);
                }
            }
        }
    }

    fn refresh_stale_buckets(&mut self, net: &mut dyn DhtNet, now: SimTime) {
        if self.cfg.bucket_refresh == pier_netsim::SimDuration::ZERO {
            return;
        }
        let cutoff = SimTime::from_micros(
            now.as_micros().saturating_sub(self.cfg.bucket_refresh.as_micros()),
        );
        // At most two refreshes per tick to avoid synchronized bursts.
        let targets = {
            let mut stale = self.table.stale_refresh_targets(cutoff);
            [stale.next(), stale.next()]
        };
        for t in targets.into_iter().flatten() {
            net.count(crate::classes::BUCKET_REFRESH.id(), 1);
            self.start_lookup(net, t, LookupKind::Node);
        }
    }

    // ------------------------------------------------------------------
    // Plumbing
    // ------------------------------------------------------------------

    /// Ids are issued in send order and every deadline is the send time
    /// plus the one `cfg.rpc_timeout` (at least 1 µs, so a zero timeout
    /// still leaves the RPC to the next sweep): the order [`Deadlines`]
    /// keeps.
    fn send_request(
        &mut self,
        net: &mut dyn DhtNet,
        dst: Contact,
        body: Request,
        purpose: RpcPurpose,
    ) {
        let id = self.next_rpc;
        self.next_rpc += 1;
        let due = net.now() + self.cfg.rpc_timeout.max(pier_netsim::SimDuration::from_micros(1));
        self.pending.open(id, due, PendingRpc { dst, purpose });
        let msg = DhtMsg::Request { id, from: self.local(), body };
        net.send_dht(dst.node, msg);
    }

    fn observe_contact(&mut self, net: &mut dyn DhtNet, contact: Contact) {
        match self.table.observe(contact, net.now()) {
            InsertOutcome::Full { evict_candidate } => {
                if self.evict_in_flight.insert(evict_candidate.key) {
                    self.send_request(net, evict_candidate, Request::Ping, RpcPurpose::EvictPing);
                }
            }
            InsertOutcome::Stored | InsertOutcome::SelfEntry => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_netsim::{stream_rng, SimDuration};

    /// A net that records what the core sends and counts.
    struct Outbox {
        now: SimTime,
        rng: SimRng,
        sent: Vec<(NodeId, DhtMsg)>,
        counted: Vec<MetricClass>,
    }

    impl DhtNet for Outbox {
        fn now(&self) -> SimTime {
            self.now
        }
        fn self_node(&self) -> NodeId {
            NodeId::new(0)
        }
        fn rng(&mut self) -> &mut SimRng {
            &mut self.rng
        }
        fn send_dht(&mut self, dst: NodeId, msg: DhtMsg) {
            self.sent.push((dst, msg));
        }
        fn count(&mut self, class: MetricClass, n: u64) {
            self.counted.extend(std::iter::repeat_n(class, n as usize));
        }
        fn observe(&mut self, _class: MetricClass, _value: f64) {}
    }

    fn outbox() -> Outbox {
        Outbox { now: SimTime::ZERO, rng: stream_rng(0, 0), sent: Vec::new(), counted: Vec::new() }
    }

    /// A lookup reply is credited to the contact the RPC went to. Here the
    /// only contact answers a `get` under another node's name; the `get`
    /// still ends with its value, and once the RPC's timeout has passed
    /// nothing is left in flight.
    #[test]
    fn a_reply_is_credited_to_the_peer_it_was_sent_to() {
        let contact = |i: u32| Contact::for_node(NodeId::new(i));
        let mut core = DhtCore::new(DhtConfig::test(), contact(0));
        core.table_mut().observe(contact(1), SimTime::ZERO);
        let mut net = outbox();
        let key = Key::hash(b"item");
        let op = core.get(&mut net, key);
        let Some((dst, DhtMsg::Request { id, .. })) = net.sent.pop() else {
            panic!("the get sends one FindValue: {:?}", net.sent);
        };
        assert_eq!(dst, NodeId::new(1));
        let body = Response::Values { values: vec![b"v".to_vec()], closer: Vec::new() };
        core.on_message(&mut net, DhtMsg::Response { id, from: contact(9), body });
        net.now += core.config().rpc_timeout + SimDuration::from_secs(1);
        core.tick(&mut net);
        let done: Vec<_> = core
            .take_events()
            .into_iter()
            .filter_map(|e| match e {
                DhtEvent::GetDone { op, values, .. } => Some((op, values)),
                _ => None,
            })
            .collect();
        assert_eq!(done, vec![(op, vec![b"v".to_vec()])]);
        assert!(core.is_idle());
    }

    /// A node whose only contact timed out and was evicted has no one to
    /// rejoin through: its revival sends nothing and is counted as
    /// isolated, not as a rejoin.
    #[test]
    fn a_revival_with_an_empty_table_is_counted_isolated() {
        let mut core = DhtCore::new(DhtConfig::test(), Contact::for_node(NodeId::new(0)));
        core.table_mut().observe(Contact::for_node(NodeId::new(1)), SimTime::ZERO);
        let mut net = outbox();
        core.get(&mut net, Key::hash(b"item"));
        net.now += core.config().rpc_timeout + SimDuration::from_secs(1);
        core.tick(&mut net);
        assert!(core.table().is_empty(), "the silent contact is evicted");
        core.end_session();
        net.sent.clear();
        net.counted.clear();
        core.revive(&mut net);
        assert!(net.sent.is_empty(), "{:?}", net.sent);
        assert_eq!(net.counted, [crate::classes::REVIVE_ISOLATED.id()]);
    }
}
