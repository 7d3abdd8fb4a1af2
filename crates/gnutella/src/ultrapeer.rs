//! The ultrapeer: floods queries, routes hits along reverse paths, performs
//! last-hop QRP filtering for its leaves, and runs LimeWire-style *dynamic
//! querying* for searches it originates.

use crate::bloom::{QrpProbe, QrpScreen, QrpView};
use crate::config::UltrapeerConfig;
use crate::files::FileStore;
use crate::msg::{GnutellaMsg, Guid, Hit};
use crate::net::GnutellaNet;
use pier_netsim::{split_mix64, NodeId, SimDuration, SimTime};
use pier_trace::{TraceHandle, TraceKind};
use pier_vocab::Terms;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// TTL for classic (non-dynamic) flooded queries.
const FLOOD_TTL: u8 = 4;
/// TTL used for the cheap first probe of a dynamic query.
pub const PROBE_TTL: u8 = 1;
/// TTL used for per-neighbor dynamic-query iterations.
pub const DYN_TTL: u8 = 2;
/// TTL a hit leaves its responder with: Gnutella's seven-hop maximum, more
/// relays than any reverse path a `FLOOD_TTL` query lays.
pub const HIT_TTL: u8 = 7;
/// Pause between dynamic-query probes to successive neighbors. This
/// pacing is what makes rare-item queries slow on Gnutella (the 73 s
/// first-result latency of Fig. 7).
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(2400);

/// Who asked for a query this ultrapeer originated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryOrigin {
    /// An experiment driver (results are read from [`QueryRecord`]).
    Driver,
    /// One of our leaves; results stream back as `LeafResults`.
    Leaf { leaf: NodeId, qid: u32 },
}

/// Live + historical state of one originated query.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    pub terms: Terms,
    pub origin: QueryOrigin,
    pub issued_at: SimTime,
    pub first_hit_at: Option<SimTime>,
    pub hits: Vec<Hit>,
    pub probes_sent: u32,
    pub finished: bool,
}

/// One originated query: its public record and, while a dynamic query is
/// still probing, its pacing. [`Originated::pace`] drops the pacing in the
/// step that sets `record.finished`, so a query is paced while it runs.
struct Originated {
    record: QueryRecord,
    pacing: Option<Pacing>,
}

/// Dynamic-query pacing: the neighbors left for the deep phase and when
/// the next one is probed.
struct Pacing {
    unprobed: Vec<NodeId>,
    next_probe_at: SimTime,
}

/// A seen-table value: the GUID's previous hop and when it was seen, as
/// microseconds after the owning core's `seen_base` — 8 bytes, so a
/// `(Guid, SeenEntry)` slot is 16 where a full `SimTime` made it 24.
struct SeenEntry {
    from: NodeId,
    off: u32,
}

impl SeenEntry {
    /// When the entry was seen (or its clamped stand-in; see
    /// `UltrapeerCore::rebase_seen`).
    fn at(&self, base: SimTime) -> SimTime {
        base + SimDuration::from_micros(self.off as u64)
    }
}

impl pier_netsim::HeapSize for SeenEntry {
    fn heap_bytes(&self) -> usize {
        0
    }
}

impl pier_netsim::HeapSize for Originated {
    fn heap_bytes(&self) -> usize {
        self.record.hits.heap_bytes() + self.pacing.as_ref().map_or(0, |p| p.unprobed.heap_bytes())
    }
}

/// Hasher for the seen-GUID table: GUIDs are uniform 64-bit randoms, so
/// one SplitMix64 round replaces SipHash on the per-relay duplicate check
/// — the hottest lookup on the flood path. (Only `get`/`insert`/`retain`/
/// `clear` run against this map, so iteration order never leaks into
/// behavior.)
#[derive(Default)]
struct GuidHasher(u64);

impl Hasher for GuidHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }
    fn write_u64(&mut self, v: u64) {
        let mut state = v;
        self.0 = split_mix64(&mut state);
    }
}

type SeenMap = HashMap<Guid, SeenEntry, BuildHasherDefault<GuidHasher>>;

/// An ultrapeer's connected leaves, struct-of-arrays in ascending id
/// order: the last-hop loop scans the 16-byte screens and reads a leaf's
/// view only where its screen admits the probe.
#[derive(Default)]
struct LeafTable {
    ids: Vec<NodeId>,
    /// Each leaf's view's screen; zero until its first `QrpUpdate`, so a
    /// leaf without a table admits no query.
    screens: Vec<QrpScreen>,
    views: Vec<Option<QrpView>>,
}

impl LeafTable {
    fn reserve_exact(&mut self, n: usize) {
        self.ids.reserve_exact(n);
        self.screens.reserve_exact(n);
        self.views.reserve_exact(n);
    }

    fn insert(&mut self, leaf: NodeId) {
        if let Err(at) = self.ids.binary_search(&leaf) {
            self.ids.insert(at, leaf);
            self.screens.insert(at, [0; 2]);
            self.views.insert(at, None);
        }
    }

    /// Adopt a connected leaf's table (replacing any earlier one); `false`
    /// if `leaf` is not connected.
    fn set_view(&mut self, leaf: NodeId, view: QrpView) -> bool {
        let Ok(at) = self.ids.binary_search(&leaf) else { return false };
        self.screens[at] = view.screen();
        self.views[at] = Some(view);
        true
    }
}

impl pier_netsim::HeapSize for LeafTable {
    /// The arrays only: a view's id list is the leaf's, charged there.
    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * size_of::<NodeId>()
            + self.screens.capacity() * size_of::<QrpScreen>()
            + self.views.capacity() * size_of::<Option<QrpView>>()
    }
}

/// The ultrapeer protocol state machine. The neighbor list is a
/// `Box<[NodeId]>`: set once at wiring and never rewritten, so no spare
/// `Vec` capacity is carried per node.
pub struct UltrapeerCore {
    pub cfg: UltrapeerConfig,
    neighbors: Box<[NodeId]>,
    /// Connected leaves and their QRP tables for last-hop forwarding. A
    /// table is a view of the leaf's own share (its id list and the
    /// network's catalog), so an entry costs no copy of anything.
    leaves: LeafTable,
    store: FileStore,
    /// GUID → where the query came from (reverse-path routing table).
    /// An entry seen at `at` stores `off = at − seen_base` in a `u32`.
    /// Read only through [`UltrapeerCore::seen_from`] and written only
    /// through [`UltrapeerCore::mark_seen`], which between them make an
    /// entry at or before `seen_horizon` indistinguishable from a removed
    /// one.
    seen: SeenMap,
    /// Origin of every `seen` offset; moved forward only by
    /// [`UltrapeerCore::rebase_seen`], once `now − seen_base` outgrows a
    /// `u32` (≈ 71.6 simulated minutes).
    seen_base: SimTime,
    /// Expiry horizon, moved by every tick to `now − seen_ttl` (`None`
    /// while `now < seen_ttl`): a `seen` entry with `seen_base + off ≤
    /// horizon` is expired. It may still sit in the table — it is swept
    /// when an insert would otherwise grow the table — but no read can see
    /// it, so an entry dies at the first tick with `at + seen_ttl ≤ now`
    /// exactly as if the tick had walked the table, and an idle tick costs
    /// one store.
    seen_horizon: Option<SimTime>,
    /// Queries this node originated, one entry each, held as long as
    /// [`UltrapeerCore::queries`] says.
    queries: BTreeMap<Guid, Originated>,
    /// When true, every hit batch that reaches this ultrapeer is logged for
    /// the embedding actor to drain (hybrid proxy mode: result traffic
    /// feeds the rare-item schemes).
    pub snoop: bool,
    snoop_log: Vec<(Guid, Vec<Hit>)>,
    /// Causal query tracing (inert unless the driver sampled queries for
    /// this run). Consulted only per-GUID: an untraced query costs one
    /// `Option` check on the relay path.
    trace: TraceHandle,
}

impl UltrapeerCore {
    pub fn new(cfg: UltrapeerConfig, store: FileStore) -> Self {
        UltrapeerCore {
            cfg,
            neighbors: Box::default(),
            leaves: LeafTable::default(),
            store,
            seen: SeenMap::default(),
            seen_base: SimTime::ZERO,
            seen_horizon: None,
            queries: BTreeMap::new(),
            snoop: false,
            snoop_log: Vec::new(),
            trace: TraceHandle::default(),
        }
    }

    /// Attach the run's tracer (driver API; the default handle is inert).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Drain the snooped hit batches, each with its GUID (empty unless
    /// `snoop` is set).
    pub fn take_snooped(&mut self) -> Vec<(Guid, Vec<Hit>)> {
        std::mem::take(&mut self.snoop_log)
    }

    pub fn set_neighbors(&mut self, neighbors: Vec<NodeId>) {
        self.neighbors = neighbors.into_boxed_slice();
    }

    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    pub fn add_leaf(&mut self, leaf: NodeId) {
        self.leaves.insert(leaf);
    }

    /// Connect `leaves` (topology wiring), reserving exactly the room they
    /// take.
    pub fn add_leaves(&mut self, leaves: impl ExactSizeIterator<Item = NodeId>) {
        self.leaves.reserve_exact(leaves.len());
        leaves.for_each(|leaf| self.leaves.insert(leaf));
    }

    /// Session teardown (the node left the network): transient relay state
    /// — the reverse-path GUID table, every query's dynamic-query pacing,
    /// the queries its leaves asked for, the snoop backlog — dies with the
    /// process. `Driver` query records stay readable by the experiment
    /// driver (a query cut off mid-probe stays unfinished), and topology
    /// links stay as wired: a revived node resumes on them, and its peers
    /// keep listing it while it is down.
    pub fn end_session(&mut self) {
        self.seen.clear();
        self.seen_horizon = None;
        self.queries.retain(|_, q| {
            q.pacing = None;
            q.record.origin == QueryOrigin::Driver
        });
        self.snoop_log.clear();
    }

    /// No originated query held, no live reverse-path entry and no snoop
    /// backlog: what a quiet network leaves behind once `Driver` records
    /// are taken and a `seen_ttl` has passed (a test observer).
    pub fn is_idle(&self) -> bool {
        self.queries.is_empty()
            && self.snoop_log.is_empty()
            && self.seen.values().all(|e| !self.is_live(e))
    }

    /// Leaves in ascending `NodeId` order, so callers that send or sample
    /// from this iterator (QRP broadcast, crawl pongs) see the same
    /// sequence on every run and shard layout.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaves.ids.iter().copied()
    }

    pub fn store(&self) -> &FileStore {
        &self.store
    }

    /// Heap accounting by subsystem (see `pier_netsim::Sim::mem_stats`).
    /// Shared payloads (catalog, `Terms`, hit names) are not re-charged.
    pub fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        use pier_netsim::HeapSize;
        acc.add("up.share", self.store.own_heap_bytes());
        acc.add("up.topology", self.neighbors.heap_bytes());
        acc.add("up.qrp", self.leaves.heap_bytes());
        // `seen` is charged by capacity, so expired-but-unswept entries
        // stay on the bill until their buckets are reused.
        acc.add("up.relay", self.seen.heap_bytes() + self.snoop_log.heap_bytes());
        acc.add("up.queries", self.queries.heap_bytes());
    }

    /// Number of leaves that have published a QRP table here.
    pub fn qrp_refs(&self) -> usize {
        self.leaves.views.iter().filter(|v| v.is_some()).count()
    }

    /// The QRP table `leaf` published here, if it is connected and has.
    pub fn qrp_view(&self, leaf: NodeId) -> Option<&QrpView> {
        let at = self.leaves.ids.binary_search(&leaf).ok()?;
        self.leaves.views[at].as_ref()
    }

    /// Inspect an originated query (driver API).
    pub fn query_record(&self, guid: Guid) -> Option<&QueryRecord> {
        self.queries.get(&guid).map(|q| &q.record)
    }

    /// Remove and return a finished (or abandoned) query record; an
    /// unfinished dynamic query stops probing.
    pub fn take_query(&mut self, guid: Guid) -> Option<QueryRecord> {
        self.queries.remove(&guid).map(|q| q.record)
    }

    /// Every originated query still held, in ascending GUID order: a
    /// `Driver` record until taken, a `Leaf` record until the tick that
    /// finishes it and sends the leaf its `done`.
    pub fn queries(&self) -> impl Iterator<Item = (Guid, &QueryRecord)> {
        self.queries.iter().map(|(g, q)| (*g, &q.record))
    }

    /// Draw a fresh GUID, claim it in `seen` so our own flood cannot route
    /// its hits elsewhere, and build its empty record.
    fn originate(
        &mut self,
        net: &mut dyn GnutellaNet,
        terms: &Terms,
        origin: QueryOrigin,
    ) -> (Guid, QueryRecord) {
        let guid = Guid(net.rng().random());
        let (me, now) = (net.self_node(), net.now());
        self.mark_seen(guid, me, now);
        let record = QueryRecord {
            terms: terms.clone(),
            origin,
            issued_at: now,
            first_hit_at: None,
            hits: Vec::new(),
            probes_sent: 0,
            finished: false,
        };
        (guid, record)
    }

    /// This node's own share's matches for `terms`, as hits.
    fn own_hits(&self, terms: &Terms, me: NodeId) -> Vec<Hit> {
        self.store.matching(terms).into_iter().map(|f| Hit { file: f.clone(), host: me }).collect()
    }

    // ------------------------------------------------------------------
    // Query origination: dynamic querying
    // ------------------------------------------------------------------

    /// Originate a search. A cheap TTL-1 probe goes to every neighbor now;
    /// deeper per-neighbor probes follow at [`PROBE_INTERVAL`] pacing until
    /// `target_results` accumulate or neighbors are exhausted.
    pub fn start_query(
        &mut self,
        net: &mut dyn GnutellaNet,
        terms: impl Into<Terms>,
        origin: QueryOrigin,
    ) -> Guid {
        let terms: Terms = terms.into();
        let (guid, mut record) = self.originate(net, &terms, origin);

        // Local content answers instantly: own share (streamed at once to
        // an asking leaf)...
        record.hits = self.own_hits(&terms, net.self_node());
        if !record.hits.is_empty() {
            record.first_hit_at = Some(record.issued_at);
            if let QueryOrigin::Leaf { leaf, qid } = origin {
                let hits = record.hits.clone();
                net.send(leaf, GnutellaMsg::LeafResults { qid, hits, done: false });
            }
        }
        // ...and matching leaves.
        self.forward_to_leaves(net, guid, &terms);

        // Probe phase: a cheap TTL-1 query to a handful of neighbors. The
        // remaining neighbors are kept for the paced deep phase — a probed
        // neighbor has already seen the GUID and would drop a deep re-probe.
        let mut order = self.neighbors.to_vec();
        order.shuffle(net.rng());
        let probe_count = order.len().min(self.cfg.probe_neighbors);
        let unprobed: Vec<NodeId> = order.split_off(probe_count);
        for &n in &order {
            net.send(n, GnutellaMsg::Query { guid, ttl: PROBE_TTL, hops: 0, terms: terms.clone() });
        }
        record.probes_sent = probe_count as u32;
        net.count(crate::classes::QUERIES_STARTED.id(), 1);

        let pacing = Some(Pacing { unprobed, next_probe_at: net.now() + PROBE_INTERVAL });
        self.queries.insert(guid, Originated { record, pacing });
        guid
    }

    /// Originate a classic pre-dynamic-querying flood: one burst to every
    /// neighbor at `ttl`, no pacing, no target. Used by ablation
    /// experiments comparing flat flooding with dynamic querying.
    pub fn start_flood_query(
        &mut self,
        net: &mut dyn GnutellaNet,
        terms: impl Into<Terms>,
    ) -> Guid {
        let terms: Terms = terms.into();
        let (guid, mut record) = self.originate(net, &terms, QueryOrigin::Driver);
        record.probes_sent = self.neighbors.len() as u32;
        for &n in &self.neighbors {
            net.send(n, GnutellaMsg::Query { guid, ttl: FLOOD_TTL, hops: 0, terms: terms.clone() });
        }
        // No pacing: the flood completes on its own; the record keeps
        // accumulating whatever returns.
        self.queries.insert(guid, Originated { record, pacing: None });
        guid
    }

    // ------------------------------------------------------------------
    // Message handling
    // ------------------------------------------------------------------

    pub fn on_message(&mut self, net: &mut dyn GnutellaNet, from: NodeId, msg: GnutellaMsg) {
        match msg {
            GnutellaMsg::Query { guid, ttl, hops, terms } => {
                self.handle_query(net, from, guid, ttl, hops, terms)
            }
            GnutellaMsg::QueryHit { guid, ttl, hits } => self.handle_hits(net, guid, ttl, hits),
            GnutellaMsg::LeafHits { guid, hits } => self.handle_hits(net, guid, HIT_TTL, hits),
            GnutellaMsg::LeafQuery { qid, terms } => {
                self.start_query(net, &terms, QueryOrigin::Leaf { leaf: from, qid });
            }
            // Only a connected leaf's table is adopted; an update from
            // anyone else is unexpected.
            GnutellaMsg::QrpUpdate { view } => {
                if !self.leaves.set_view(from, view) {
                    net.count(crate::classes::UNEXPECTED_MSG.id(), 1);
                }
            }
            GnutellaMsg::CrawlPing => {
                let reply = GnutellaMsg::CrawlPong {
                    neighbors: self.neighbors.to_vec(),
                    leaves: self.leaves.ids.clone(),
                };
                net.send(from, reply);
            }
            GnutellaMsg::BrowseHost => {
                let reply = GnutellaMsg::BrowseHostReply { files: self.store.metas() };
                net.send(from, reply);
            }
            // Leaf-only or reply messages; an ultrapeer ignores them.
            _ => net.count(crate::classes::UNEXPECTED_MSG.id(), 1),
        }
    }

    /// Whether `entry` is newer than the expiry horizon.
    fn is_live(&self, entry: &SeenEntry) -> bool {
        self.seen_horizon.is_none_or(|h| entry.at(self.seen_base) > h)
    }

    /// Where the live `seen` entry for `guid` came from, if there is one.
    fn seen_from(&self, guid: Guid) -> Option<NodeId> {
        self.seen.get(&guid).filter(|e| self.is_live(e)).map(|e| e.from)
    }

    /// Record `guid` as seen from `from` at `now`, overwriting an expired
    /// entry for the same GUID. Expired entries are swept here and only
    /// here, when the table is full and the insert would otherwise grow
    /// it. After a sweep the map doubles only if more than half of it is
    /// still live, and otherwise has at least half its capacity free until
    /// the next one — so sweeping costs amortized O(1) per insert and
    /// capacity stays within 4× the live set (lazy expiry cannot leak).
    fn mark_seen(&mut self, guid: Guid, from: NodeId, now: SimTime) {
        if now.as_micros() - self.seen_base.as_micros() > u32::MAX as u64 {
            // The rebase walk sweeps as well.
            self.rebase_seen(now);
        } else if self.seen.len() == self.seen.capacity() {
            if let Some(h) = self.seen_horizon {
                let base = self.seen_base;
                self.seen.retain(|_, e| e.at(base) > h);
            }
        }
        let off = (now.as_micros() - self.seen_base.as_micros()) as u32;
        self.seen.insert(guid, SeenEntry { from, off });
    }

    /// Move `seen_base` forward to `now − seen_ttl` in one walk that drops
    /// expired entries and shifts the live ones. A live entry older than
    /// the new base (a core that went a whole `seen_ttl` without a tick) is
    /// clamped to it: live until the next tick, whose horizon kills it as
    /// it would the true stamp, so the clamp is unobservable. Exact while
    /// `seen_ttl < 2³² µs` (DESIGN.md, "The idle ultrapeer").
    fn rebase_seen(&mut self, now: SimTime) {
        let span = self.cfg.seen_ttl.as_micros().min(u32::MAX as u64);
        let base = SimTime::from_micros(now.as_micros() - span);
        let (old, horizon) = (self.seen_base, self.seen_horizon);
        self.seen.retain(|_, e| {
            let at = e.at(old);
            e.off = at.as_micros().saturating_sub(base.as_micros()) as u32;
            horizon.is_none_or(|h| at > h)
        });
        self.seen_base = base;
    }

    /// Last-hop leaf forwarding via QRP (cached hashes: no re-hashing; one
    /// probe's positions shared across every leaf, whose view is read only
    /// when its screen holds every block of the probe). Returns the number
    /// of leaves forwarded to, in ascending `NodeId` order.
    fn forward_to_leaves(&self, net: &mut dyn GnutellaNet, guid: Guid, terms: &Terms) -> u64 {
        let probe = QrpProbe::with_defaults(terms);
        let need = probe.screen();
        let t = &self.leaves;
        let mut forwards = 0;
        for (at, s) in t.screens.iter().enumerate() {
            let screened_out = need[0] & !s[0] | need[1] & !s[1] != 0;
            if !screened_out && t.views[at].as_ref().is_some_and(|v| v.matches(&probe)) {
                net.send(t.ids[at], GnutellaMsg::LeafForward { guid, terms: terms.clone() });
                forwards += 1;
            }
        }
        forwards
    }

    /// Send `hits` to `dst` in `QueryHit`s of at most `max_hits_per_msg`;
    /// a batch that fits one message is moved into it, not copied.
    fn send_hits(
        &self,
        net: &mut dyn GnutellaNet,
        dst: NodeId,
        guid: Guid,
        ttl: u8,
        hits: Vec<Hit>,
    ) {
        if hits.len() > self.cfg.max_hits_per_msg {
            for chunk in hits.chunks(self.cfg.max_hits_per_msg) {
                net.send(dst, GnutellaMsg::QueryHit { guid, ttl, hits: chunk.to_vec() });
            }
        } else if !hits.is_empty() {
            net.send(dst, GnutellaMsg::QueryHit { guid, ttl, hits });
        }
    }

    fn handle_query(
        &mut self,
        net: &mut dyn GnutellaNet,
        from: NodeId,
        guid: Guid,
        ttl: u8,
        hops: u8,
        terms: Terms,
    ) {
        let (me, now) = (net.self_node(), net.now());
        let (t, h) = (ttl as u64, hops as u64);
        if self.seen_from(guid).is_some() {
            net.count(crate::classes::DUPLICATE_QUERY.id(), 1);
            self.trace.emit_guid(guid.0, now, me, TraceKind::DupDrop, Some(from), t, h);
            return;
        }
        self.mark_seen(guid, from, now);
        self.trace.emit_guid(guid.0, now, me, TraceKind::RelayRecv, Some(from), t, h);

        // Local matches return along the path we got the query from.
        self.send_hits(net, from, guid, HIT_TTL, self.own_hits(&terms, me));

        let forwards = self.forward_to_leaves(net, guid, &terms);
        net.count(crate::classes::LEAF_FORWARDS.id(), forwards);
        let screened = self.leaves.ids.len() as u64 - forwards;
        self.trace.emit_guid(guid.0, now, me, TraceKind::QrpScreen, None, forwards, screened);

        // Relay deeper. `hops` is the sender's word: it saturates.
        if ttl > 1 {
            for &n in self.neighbors.iter().filter(|&&n| n != from) {
                let (ttl, hops, terms) = (ttl - 1, hops.saturating_add(1), terms.clone());
                net.send(n, GnutellaMsg::Query { guid, ttl, hops, terms });
            }
        }
    }

    fn handle_hits(&mut self, net: &mut dyn GnutellaNet, guid: Guid, ttl: u8, hits: Vec<Hit>) {
        if self.snoop && !hits.is_empty() {
            self.snoop_log.push((guid, hits.clone()));
        }
        let n = hits.len() as u64;
        if let Some(Originated { record, .. }) = self.queries.get_mut(&guid) {
            // Ours: record and stream onward to the asking leaf.
            if record.first_hit_at.is_none() && n > 0 {
                record.first_hit_at = Some(net.now());
                let waited = (net.now() - record.issued_at).as_secs_f64();
                net.observe(crate::classes::FIRST_HIT_LATENCY_S.id(), waited);
            }
            // Copy the hits only when they are also owed to a leaf.
            match record.origin {
                QueryOrigin::Leaf { leaf, qid } => {
                    record.hits.extend(hits.iter().cloned());
                    net.send(leaf, GnutellaMsg::LeafResults { qid, hits, done: false });
                }
                QueryOrigin::Driver => record.hits.extend(hits),
            }
            if n > 0 {
                let total = record.hits.len() as u64;
                let (now, me) = (net.now(), net.self_node());
                self.trace.emit_guid(guid.0, now, me, TraceKind::HitArrive, None, n, total);
            }
            return;
        }
        match self.seen_from(guid) {
            Some(dst) if dst != net.self_node() && ttl > 1 => {
                // Reverse-path forwarding.
                self.send_hits(net, dst, guid, ttl - 1, hits);
                if n > 0 {
                    let (now, me) = (net.now(), net.self_node());
                    self.trace.emit_guid(guid.0, now, me, TraceKind::HitRelay, Some(dst), n, 0);
                }
            }
            // No live reverse path, or no hop left to take it.
            _ => net.count(crate::classes::ORPHAN_HITS.id(), 1),
        }
    }

    // ------------------------------------------------------------------
    // Maintenance tick: dynamic-query pacing + seen-table expiry
    // ------------------------------------------------------------------

    pub fn tick(&mut self, net: &mut dyn GnutellaNet) {
        let now = net.now();
        let (target, seen_ttl) = (self.cfg.target_results, self.cfg.seen_ttl);
        // One walk in ascending GUID order (so the probes it sends do not
        // depend on insertion history; the golden pins rely on it): pace
        // each query, and let a leaf's go in the step that sends its `done`
        // — nothing follows it, and a later hit is an orphan.
        self.queries.retain(|&guid, q| {
            q.pace(guid, now, target, net);
            !(q.record.finished && matches!(q.record.origin, QueryOrigin::Leaf { .. }))
        });
        // Expire reverse-path entries: every entry with `at + seen_ttl ≤
        // now` is dead from here on (see `seen_horizon`).
        self.seen_horizon =
            now.as_micros().checked_sub(seen_ttl.as_micros()).map(SimTime::from_micros);
    }
}

impl Originated {
    /// One tick of dynamic querying: a deep probe to the next unprobed
    /// neighbor every [`PROBE_INTERVAL`], until `target` results arrive or,
    /// one more interval after the horizon is exhausted (a grace period
    /// for stragglers), the query finishes.
    fn pace(&mut self, guid: Guid, now: SimTime, target: usize, net: &mut dyn GnutellaNet) {
        let Some(p) = &mut self.pacing else { return };
        let record = &mut self.record;
        if record.hits.len() < target {
            if now < p.next_probe_at {
                return;
            }
            if let Some(neighbor) = p.unprobed.pop() {
                let terms = record.terms.clone();
                net.send(neighbor, GnutellaMsg::Query { guid, ttl: DYN_TTL, hops: 0, terms });
                record.probes_sent += 1;
                p.next_probe_at = now + PROBE_INTERVAL;
                return;
            }
            if now < p.next_probe_at + PROBE_INTERVAL {
                return;
            }
        }
        self.pacing = None;
        record.finished = true;
        net.count(crate::classes::QUERIES_FINISHED.id(), 1);
        net.observe(crate::classes::RESULTS_PER_QUERY.id(), record.hits.len() as f64);
        if let QueryOrigin::Leaf { leaf, qid } = record.origin {
            net.send(leaf, GnutellaMsg::LeafResults { qid, hits: Vec::new(), done: true });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileMeta;
    use pier_netsim::{stream_rng, MetricClass, SimDuration, SimRng};

    /// A fake network capturing sends and counters for unit-level protocol
    /// tests.
    struct FakeNet {
        now: SimTime,
        me: NodeId,
        rng: SimRng,
        sent: Vec<(NodeId, GnutellaMsg)>,
        counts: BTreeMap<MetricClass, u64>,
    }

    impl FakeNet {
        fn new(me: u32) -> Self {
            FakeNet {
                now: SimTime::ZERO,
                me: NodeId::new(me),
                rng: stream_rng(1, me as u64),
                sent: Vec::new(),
                counts: BTreeMap::new(),
            }
        }
        fn advance(&mut self, d: SimDuration) {
            self.now += d;
        }
        fn drain(&mut self) -> Vec<(NodeId, GnutellaMsg)> {
            std::mem::take(&mut self.sent)
        }
        fn counted(&self, class: MetricClass) -> u64 {
            self.counts.get(&class).copied().unwrap_or(0)
        }
    }

    impl GnutellaNet for FakeNet {
        fn now(&self) -> SimTime {
            self.now
        }
        fn self_node(&self) -> NodeId {
            self.me
        }
        fn rng(&mut self) -> &mut SimRng {
            &mut self.rng
        }
        fn send(&mut self, dst: NodeId, msg: GnutellaMsg) {
            self.sent.push((dst, msg));
        }
        fn count(&mut self, class: MetricClass, n: u64) {
            *self.counts.entry(class).or_default() += n;
        }
        fn observe(&mut self, _class: MetricClass, _value: f64) {}
    }

    /// A leaf's `QrpUpdate` for a share of these file names.
    fn qrp_update(names: &[&str]) -> GnutellaMsg {
        let store = FileStore::new(names.iter().map(|n| FileMeta::new(n, 1)).collect());
        GnutellaMsg::QrpUpdate { view: store.qrp_view() }
    }

    fn up_with_neighbors(n: usize) -> (UltrapeerCore, FakeNet) {
        let mut core = UltrapeerCore::new(UltrapeerConfig::default(), FileStore::default());
        core.set_neighbors((1..=n as u32).map(NodeId::new).collect());
        (core, FakeNet::new(0))
    }

    #[test]
    fn small_neighborhoods_probed_fully_at_ttl1() {
        let (mut core, mut net) = up_with_neighbors(5);
        core.start_query(&mut net, "rare song", QueryOrigin::Driver);
        let sent = net.drain();
        let queries: Vec<_> = sent
            .iter()
            .filter_map(|(dst, m)| match m {
                GnutellaMsg::Query { ttl, .. } => Some((*dst, *ttl)),
                _ => None,
            })
            .collect();
        assert_eq!(queries.len(), 5, "fewer neighbors than probe_neighbors: all probed");
        assert!(queries.iter().all(|(_, ttl)| *ttl == 1));
    }

    #[test]
    fn probe_subset_leaves_rest_for_deep_phase() {
        let (mut core, mut net) = up_with_neighbors(14);
        core.start_query(&mut net, "x", QueryOrigin::Driver);
        let probed: std::collections::HashSet<NodeId> = net
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, GnutellaMsg::Query { .. }))
            .map(|(dst, _)| dst)
            .collect();
        assert_eq!(probed.len(), 10, "probe_neighbors=10 of 14");
        // The deep phase covers exactly the remaining four.
        let mut deep = std::collections::HashSet::new();
        for _ in 0..6 {
            net.advance(SimDuration::from_millis(2500));
            core.tick(&mut net);
            for (dst, m) in net.drain() {
                if matches!(m, GnutellaMsg::Query { .. }) {
                    deep.insert(dst);
                }
            }
        }
        assert_eq!(deep.len(), 4);
        assert!(deep.is_disjoint(&probed));
    }

    #[test]
    fn dynamic_probes_are_paced() {
        let (mut core, mut net) = up_with_neighbors(14);
        let guid = core.start_query(&mut net, "x", QueryOrigin::Driver);
        net.drain();
        // Immediately after start: no new probes before the interval.
        core.tick(&mut net);
        assert!(net.drain().is_empty());
        // After the interval: exactly one deeper probe.
        net.advance(SimDuration::from_millis(2500));
        core.tick(&mut net);
        let sent = net.drain();
        let deep: Vec<_> = sent
            .iter()
            .filter_map(|(_, m)| match m {
                GnutellaMsg::Query { ttl, .. } => Some(*ttl),
                _ => None,
            })
            .collect();
        assert_eq!(deep, vec![2]);
        // Again, one more; pacing persists.
        core.tick(&mut net);
        assert!(net.drain().is_empty());
        net.advance(SimDuration::from_millis(2500));
        core.tick(&mut net);
        assert_eq!(net.drain().len(), 1);
        assert_eq!(core.query_record(guid).unwrap().probes_sent, 12);
    }

    #[test]
    fn classic_flood_bursts_all_neighbors() {
        let (mut core, mut net) = up_with_neighbors(14);
        core.start_flood_query(&mut net, "x");
        let sent = net.drain();
        let ttls: Vec<u8> = sent
            .iter()
            .filter_map(|(_, m)| match m {
                GnutellaMsg::Query { ttl, .. } => Some(*ttl),
                _ => None,
            })
            .collect();
        assert_eq!(ttls.len(), 14);
        assert!(ttls.iter().all(|t| *t == 4));
        // No dynamic pacing afterwards.
        net.advance(SimDuration::from_secs(10));
        core.tick(&mut net);
        assert!(net.drain().is_empty());
    }

    #[test]
    fn target_results_stop_probing() {
        let (mut core, mut net) = up_with_neighbors(4);
        let guid = core.start_query(&mut net, "pop", QueryOrigin::Driver);
        net.drain();
        // Deliver ≥ target hits.
        let hits: Vec<Hit> = (0..core.cfg.target_results + 5)
            .map(|i| Hit { file: FileMeta::new(&format!("pop{i}.mp3"), 1), host: NodeId::new(99) })
            .collect();
        core.handle_hits(&mut net, guid, HIT_TTL, hits);
        net.advance(SimDuration::from_secs(10));
        core.tick(&mut net);
        assert!(core.query_record(guid).unwrap().finished);
        assert!(net.drain().iter().all(|(_, m)| !matches!(m, GnutellaMsg::Query { .. })));
    }

    #[test]
    fn duplicate_queries_dropped_and_not_reforwarded() {
        let (mut core, mut net) = up_with_neighbors(3);
        let guid = Guid(42);
        core.handle_query(&mut net, NodeId::new(1), guid, 3, 0, "a".into());
        let first = net.drain();
        // Forwarded to the other two neighbors.
        assert_eq!(first.iter().filter(|(_, m)| matches!(m, GnutellaMsg::Query { .. })).count(), 2);
        core.handle_query(&mut net, NodeId::new(2), guid, 3, 0, "a".into());
        assert!(net.drain().is_empty(), "duplicate must be suppressed");
    }

    #[test]
    fn ttl_one_is_not_forwarded() {
        let (mut core, mut net) = up_with_neighbors(3);
        core.handle_query(&mut net, NodeId::new(1), Guid(7), 1, 2, "a".into());
        assert!(net.drain().iter().all(|(_, m)| !matches!(m, GnutellaMsg::Query { .. })));
    }

    #[test]
    fn hits_route_back_along_reverse_path() {
        let (mut core, mut net) = up_with_neighbors(3);
        let guid = Guid(9);
        core.handle_query(&mut net, NodeId::new(2), guid, 2, 0, "a".into());
        net.drain();
        let hit = Hit { file: FileMeta::new("a.mp3", 1), host: NodeId::new(50) };
        core.handle_hits(&mut net, guid, HIT_TTL, vec![hit]);
        let sent = net.drain();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, NodeId::new(2), "hit must go back where the query came from");
        assert!(matches!(sent[0].1, GnutellaMsg::QueryHit { .. }));
    }

    #[test]
    fn local_files_answer_queries() {
        let store = FileStore::new(vec![FileMeta::new("led_zeppelin_iv.mp3", 1)]);
        let mut core = UltrapeerCore::new(UltrapeerConfig::default(), store);
        core.set_neighbors(vec![NodeId::new(1)]);
        let mut net = FakeNet::new(0);
        core.handle_query(&mut net, NodeId::new(1), Guid(1), 1, 0, "led zeppelin".into());
        let sent = net.drain();
        let hits: Vec<_> =
            sent.iter().filter(|(_, m)| matches!(m, GnutellaMsg::QueryHit { .. })).collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, NodeId::new(1));
    }

    #[test]
    fn qrp_gates_leaf_forwarding() {
        let (mut core, mut net) = up_with_neighbors(1);
        let leaf_yes = NodeId::new(10);
        let leaf_no = NodeId::new(11);
        core.add_leaf(leaf_yes);
        core.add_leaf(leaf_no);
        core.on_message(&mut net, leaf_yes, qrp_update(&["led_zeppelin.mp3"]));
        core.on_message(&mut net, leaf_no, qrp_update(&["floyd.mp3"]));
        net.drain();

        core.handle_query(&mut net, NodeId::new(1), Guid(2), 1, 0, "led zeppelin".into());
        let forwards: Vec<_> = net
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, GnutellaMsg::LeafForward { .. }))
            .collect();
        assert_eq!(forwards.len(), 1);
        assert_eq!(forwards[0].0, leaf_yes);
        // A leaf with no filter yet receives nothing.
    }

    #[test]
    fn crawl_pong_reports_topology() {
        let (mut core, mut net) = up_with_neighbors(4);
        core.add_leaf(NodeId::new(20));
        core.on_message(&mut net, NodeId::new(99), GnutellaMsg::CrawlPing);
        let sent = net.drain();
        match &sent[0].1 {
            GnutellaMsg::CrawlPong { neighbors, leaves } => {
                assert_eq!(neighbors.len(), 4);
                assert_eq!(leaves, &vec![NodeId::new(20)]);
            }
            other => panic!("expected CrawlPong, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_horizon_finishes_query() {
        let (mut core, mut net) = up_with_neighbors(1);
        let guid = core.start_query(&mut net, "nothing matches", QueryOrigin::Driver);
        net.drain();
        // Drain the single deep probe, then the grace period.
        for _ in 0..5 {
            net.advance(SimDuration::from_secs(3));
            core.tick(&mut net);
        }
        let rec = core.query_record(guid).unwrap();
        assert!(rec.finished);
        assert!(rec.hits.is_empty());
        assert!(rec.first_hit_at.is_none());
    }

    #[test]
    fn traced_guid_emits_relay_dup_and_screen_events() {
        use pier_trace::Tracer;
        let (mut core, mut net) = up_with_neighbors(3);
        core.add_leaf(NodeId::new(10)); // no filter: screened
        let tracer = std::sync::Arc::new(Tracer::default());
        let guid = Guid(77);
        let t = tracer.register(guid.0, 99, 0, 3, "a");
        core.set_trace(TraceHandle::new(std::sync::Arc::clone(&tracer)));

        core.handle_query(&mut net, NodeId::new(1), guid, 3, 0, "a".into());
        core.handle_query(&mut net, NodeId::new(2), guid, 3, 1, "a".into());
        // Untraced queries add nothing.
        core.handle_query(&mut net, NodeId::new(1), Guid(78), 3, 0, "a".into());

        let events = tracer.sorted_events();
        let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
        // All at t=0: same-time events order by node, so the root's
        // QueryStart (node 99) sorts after this ultrapeer's (node 0).
        assert_eq!(
            kinds,
            vec![
                TraceKind::RelayRecv,
                TraceKind::QrpScreen,
                TraceKind::DupDrop,
                TraceKind::QueryStart
            ]
        );
        assert!(events.iter().all(|e| e.trace == t));
        let relay = &events[0];
        assert_eq!(relay.from, Some(1));
        assert_eq!((relay.n, relay.m), (3, 0), "ttl/hops as received");
        let screen = &events[1];
        assert_eq!((screen.n, screen.m), (0, 1), "one filterless leaf screened");
        let dup = &events[2];
        assert_eq!(dup.from, Some(2));
    }

    #[test]
    fn traced_hits_emit_arrive_and_relay_events() {
        use pier_trace::Tracer;
        let (mut core, mut net) = up_with_neighbors(3);
        let tracer = std::sync::Arc::new(Tracer::default());
        core.set_trace(TraceHandle::new(std::sync::Arc::clone(&tracer)));

        // Relay leg: query came from node 2, hits flow back there.
        let relayed = Guid(5);
        tracer.register(relayed.0, 99, 0, 3, "a");
        core.handle_query(&mut net, NodeId::new(2), relayed, 2, 0, "a".into());
        let hit = Hit { file: FileMeta::new("a.mp3", 1), host: NodeId::new(50) };
        core.handle_hits(&mut net, relayed, HIT_TTL, vec![hit.clone()]);

        // Origin leg: our own query records an arrival.
        let own = core.start_query(&mut net, "a", QueryOrigin::Driver);
        tracer.register(own.0, 0, 0, 3, "a");
        core.handle_hits(&mut net, own, HIT_TTL, vec![hit]);

        let kinds: Vec<TraceKind> = tracer.sorted_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::HitRelay));
        assert!(kinds.contains(&TraceKind::HitArrive));
    }

    /// `t − d` (the clock has no such operator).
    fn before(t: SimTime, d: SimDuration) -> SimTime {
        SimTime::from_micros(t.as_micros() - d.as_micros())
    }

    #[test]
    fn leaf_slot_is_44_bytes() {
        // Every leaf of every ultrapeer holds one id, one screen and one
        // view: the view is two `Arc`s, never a copy of the share.
        let slot = size_of::<NodeId>() + size_of::<QrpScreen>() + size_of::<Option<QrpView>>();
        assert_eq!(slot, 44);
    }

    #[test]
    fn seen_slot_is_16_bytes() {
        // Every relayed GUID holds one slot for `seen_ttl`: a `SimTime`
        // stamp here would make it 24.
        assert_eq!(size_of::<(Guid, SeenEntry)>(), 16);
    }

    #[test]
    fn guid_seen_just_before_a_rebase_routes_hits_and_expires_on_time() {
        let (mut core, mut net) = up_with_neighbors(3);
        let ttl = core.cfg.seen_ttl;
        let hit = Hit { file: FileMeta::new("a.mp3", 1), host: NodeId::new(50) };
        let route = |core: &mut UltrapeerCore, net: &mut FakeNet| {
            core.handle_hits(net, Guid(1), HIT_TTL, vec![hit.clone()]);
            net.drain().into_iter().map(|(dst, _)| dst).collect::<Vec<_>>()
        };
        // The last offset that fits a `u32` from the initial base, after
        // a tick has set a horizon.
        let at = SimTime::from_micros(u32::MAX as u64);
        net.now = at;
        core.tick(&mut net);
        core.handle_query(&mut net, NodeId::new(2), Guid(1), 1, 0, "a".into());
        assert_eq!(core.seen_base, SimTime::ZERO);
        // One microsecond later the next GUID does not fit: rebase.
        net.advance(SimDuration::from_micros(1));
        core.handle_query(&mut net, NodeId::new(3), Guid(2), 1, 0, "a".into());
        assert_eq!(core.seen_base, before(net.now, ttl), "the base moved to now − seen_ttl");
        net.drain();
        assert_eq!(route(&mut core, &mut net), vec![NodeId::new(2)], "routes after the rebase");
        // Alive at the last tick with `at + seen_ttl > now`...
        net.now = before(at + ttl, SimDuration::from_micros(1));
        core.tick(&mut net);
        assert_eq!(route(&mut core, &mut net), vec![NodeId::new(2)]);
        // ...and dead at the first with `at + seen_ttl ≤ now`.
        net.now = at + ttl;
        core.tick(&mut net);
        assert!(route(&mut core, &mut net).is_empty(), "expired: the hit is an orphan");
    }

    /// A core that never ticks never expires anything, so a GUID seen
    /// several offset ranges ago must still be a duplicate and still route
    /// hits: rebasing clamps its stamp to the new base rather than drop it
    /// or panic. The first tick then expires it, as it would the true
    /// stamp.
    #[test]
    fn core_that_never_ticks_keeps_every_guid_across_rebases() {
        let (mut core, mut net) = up_with_neighbors(3);
        core.handle_query(&mut net, NodeId::new(2), Guid(1), 1, 0, "a".into());
        for guid in 2..5 {
            net.advance(SimDuration::from_micros(1 << 32));
            core.handle_query(&mut net, NodeId::new(3), Guid(guid), 1, 0, "a".into());
            assert_eq!(core.seen_base, before(net.now, core.cfg.seen_ttl), "rebased");
        }
        net.drain();
        core.handle_query(&mut net, NodeId::new(3), Guid(1), 1, 0, "a".into());
        assert!(net.drain().is_empty(), "still a duplicate");
        let hit = Hit { file: FileMeta::new("a.mp3", 1), host: NodeId::new(50) };
        core.handle_hits(&mut net, Guid(1), HIT_TTL, vec![hit.clone()]);
        assert_eq!(net.drain()[0].0, NodeId::new(2), "still routes hits");

        net.advance(SimDuration::from_micros(1));
        core.tick(&mut net);
        core.handle_hits(&mut net, Guid(1), HIT_TTL, vec![hit.clone()]);
        assert!(net.drain().is_empty(), "the first tick expires the clamped entry");
        core.handle_hits(&mut net, Guid(4), HIT_TTL, vec![hit]);
        assert_eq!(net.drain()[0].0, NodeId::new(3), "and keeps the one inside seen_ttl");
    }

    #[test]
    fn seen_table_expires() {
        let (mut core, mut net) = up_with_neighbors(2);
        core.handle_query(&mut net, NodeId::new(1), Guid(5), 2, 0, "a".into());
        net.drain();
        net.advance(SimDuration::from_secs(200));
        core.tick(&mut net);
        // After expiry the hit can no longer be routed.
        core.handle_hits(&mut net, Guid(5), HIT_TTL, vec![]);
        assert!(net.drain().is_empty());
    }

    #[test]
    fn leaf_query_record_leaves_with_its_done() {
        let (mut core, mut net) = up_with_neighbors(1);
        let leaf = NodeId::new(10);
        core.add_leaf(leaf);
        core.on_message(&mut net, leaf, GnutellaMsg::LeafQuery { qid: 3, terms: "a".into() });
        let guid = core.queries().next().expect("registered").0;
        net.drain();
        // Its one neighbour was probed at once: the first tick after the
        // grace interval finishes it, sends the leaf its `done` and lets
        // the record go, while its own `seen` claim still stands.
        net.now = SimTime::ZERO + PROBE_INTERVAL + PROBE_INTERVAL;
        assert!(net.now < SimTime::ZERO + core.cfg.seen_ttl);
        core.tick(&mut net);
        let sent: Vec<(NodeId, GnutellaMsg)> = net.drain();
        assert!(
            matches!(sent[..], [(to, GnutellaMsg::LeafResults { qid: 3, done: true, .. })] if to == leaf),
            "{sent:?}"
        );
        assert!(core.query_record(guid).is_none());
        assert!(!core.is_idle(), "the claim is still live");
        // A late hit is an orphan: nothing follows the `done`.
        let hit = Hit { file: FileMeta::new("a.mp3", 1), host: NodeId::new(50) };
        core.on_message(
            &mut net,
            NodeId::new(1),
            GnutellaMsg::QueryHit { guid, ttl: HIT_TTL, hits: vec![hit] },
        );
        assert!(net.drain().is_empty(), "a late hit is an orphan");
        assert_eq!(net.counted(crate::classes::ORPHAN_HITS.id()), 1);
        net.now = SimTime::ZERO + core.cfg.seen_ttl;
        core.tick(&mut net);
        assert!(core.is_idle());
    }

    #[test]
    fn a_leaf_query_streams_the_ultrapeers_own_share_hits_at_once() {
        let store = FileStore::new(vec![FileMeta::new("led_zeppelin_iv.mp3", 1)]);
        let mut core = UltrapeerCore::new(UltrapeerConfig::default(), store);
        core.set_neighbors(vec![NodeId::new(1)]);
        let leaf = NodeId::new(10);
        core.add_leaf(leaf);
        let mut net = FakeNet::new(0);
        let ask = GnutellaMsg::LeafQuery { qid: 4, terms: "led zeppelin".into() };
        core.on_message(&mut net, leaf, ask);
        let results: Vec<(NodeId, u32, usize, bool)> = net
            .drain()
            .into_iter()
            .filter_map(|(dst, m)| match m {
                GnutellaMsg::LeafResults { qid, hits, done } => Some((dst, qid, hits.len(), done)),
                _ => None,
            })
            .collect();
        assert_eq!(results, vec![(leaf, 4, 1, false)], "the own-share hit, before any probe");
    }

    #[test]
    fn end_session_leaves_no_pacing_and_no_leaf_records() {
        let (mut core, mut net) = up_with_neighbors(14);
        let leaf = NodeId::new(20);
        core.add_leaf(leaf);
        let driver = core.start_query(&mut net, "x", QueryOrigin::Driver);
        core.on_message(&mut net, leaf, GnutellaMsg::LeafQuery { qid: 1, terms: "y".into() });
        assert_eq!(core.queries().count(), 2);
        net.drain();
        core.end_session();
        let held: Vec<Guid> = core.queries().map(|(g, _)| g).collect();
        assert_eq!(held, vec![driver], "only the driver's record survives");
        // No pacing survives either: ticks probe nothing and finish nothing.
        for _ in 0..20 {
            net.advance(PROBE_INTERVAL);
            core.tick(&mut net);
        }
        assert!(net.drain().is_empty());
        assert!(!core.query_record(driver).expect("kept").finished);
        core.take_query(driver);
        assert!(core.is_idle());
    }

    #[test]
    fn hostile_hops_do_not_panic() {
        let (mut core, mut net) = up_with_neighbors(3);
        core.handle_query(&mut net, NodeId::new(1), Guid(3), 2, u8::MAX, "a".into());
        let hops: Vec<u8> = net
            .drain()
            .into_iter()
            .filter_map(|(_, m)| match m {
                GnutellaMsg::Query { hops, .. } => Some(hops),
                _ => None,
            })
            .collect();
        assert_eq!(hops, vec![u8::MAX; 2], "the hop count saturates");
    }

    #[test]
    fn qrp_update_from_an_unconnected_node_is_counted_not_adopted() {
        let (mut core, mut net) = up_with_neighbors(1);
        let (leaf, stranger) = (NodeId::new(10), NodeId::new(11));
        core.add_leaf(leaf);
        let update = qrp_update(&["led.mp3"]);
        let unexpected = crate::classes::UNEXPECTED_MSG.id();
        core.on_message(&mut net, stranger, update.clone());
        assert_eq!(net.counted(unexpected), 1);
        assert_eq!(core.leaves().collect::<Vec<_>>(), vec![leaf]);
        assert_eq!(core.qrp_refs(), 0);
        core.on_message(&mut net, leaf, update);
        assert_eq!(core.qrp_refs(), 1);
    }

    #[test]
    fn hits_are_relayed_only_while_they_have_ttl() {
        let (mut core, mut net) = up_with_neighbors(3);
        core.handle_query(&mut net, NodeId::new(2), Guid(9), 2, 0, "a".into());
        net.drain();
        let hit = Hit { file: FileMeta::new("a.mp3", 1), host: NodeId::new(50) };
        let relay = |core: &mut UltrapeerCore, net: &mut FakeNet, ttl| {
            core.on_message(
                net,
                NodeId::new(3),
                GnutellaMsg::QueryHit { guid: Guid(9), ttl, hits: vec![hit.clone()] },
            );
            net.drain()
                .into_iter()
                .map(|(dst, m)| match m {
                    GnutellaMsg::QueryHit { ttl, .. } => (dst, ttl),
                    other => panic!("expected QueryHit, got {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(relay(&mut core, &mut net, 2), vec![(NodeId::new(2), 1)], "one hop spent");
        assert!(relay(&mut core, &mut net, 1).is_empty(), "no hop left");
        assert_eq!(net.counted(crate::classes::ORPHAN_HITS.id()), 1);
        // A leaf's hits start a fresh budget, and the origin keeps a hit
        // whatever its TTL.
        core.on_message(
            &mut net,
            NodeId::new(10),
            GnutellaMsg::LeafHits { guid: Guid(9), hits: vec![hit.clone()] },
        );
        assert!(
            matches!(net.drain()[..], [(_, GnutellaMsg::QueryHit { ttl, .. })] if ttl == HIT_TTL - 1)
        );
        let own = core.start_query(&mut net, "a", QueryOrigin::Driver);
        core.on_message(
            &mut net,
            NodeId::new(3),
            GnutellaMsg::QueryHit { guid: own, ttl: 0, hits: vec![hit] },
        );
        assert_eq!(core.query_record(own).expect("ours").hits.len(), 1);
    }
}
