//! The PIER engine: distributed execution of [`QueryPlan`]s over the DHT.
//!
//! One `PierCore` lives at every participating node and plays three roles at
//! once, exactly as in the paper:
//!
//! 1. **Client** — [`PierCore::issue`] disseminates a plan to all stage
//!    sites via DHT routing and collects the result stream.
//! 2. **Stage executor** — when an `Install` is delivered for a site key
//!    this node owns, the core scans its local fragment and joins the
//!    incoming tuple stream against it, shipping outputs downstream.
//! 3. **Publisher** — [`PierCore::publish`] validates tuples against the
//!    catalog and puts them into the DHT under their index key.
//!
//! Each request lives in one table per role (`clients` by query, `stages`
//! by query and stage) and ends by the crate doc's one stream rule.

use crate::catalog::Catalog;
use crate::msg::PierMsg;

use crate::plan::{JoinCols, QueryId, QueryPlan};
use crate::value::{Tuple, Value};
use pier_dht::{DhtCore, DhtEvent, DhtNet, Key};
use pier_netsim::{NodeId, SimDuration, SimTime};
use std::collections::{btree_map, BTreeMap, BTreeSet, HashMap, VecDeque};

/// Tuples per inter-stage / result batch.
const BATCH_SIZE: usize = 64;
/// Client-side deadline: a query with no EOF by then is reported as timed
/// out.
pub const QUERY_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Stage state (running or still waiting for its `Install`) is garbage
/// collected this long after its last message.
pub const EXEC_TTL: SimDuration = SimDuration::from_secs(120);

/// Why a query finished.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryOutcome {
    /// All result batches arrived.
    Complete,
    /// The limit was reached before EOF.
    LimitReached,
    /// The deadline passed first (partial results were still delivered).
    TimedOut,
}

/// Client-side events, drained by the application layer.
#[derive(Clone, Debug)]
pub enum PierEvent {
    /// A chunk of results for a query issued from this node.
    Results { qid: QueryId, tuples: Vec<Tuple> },
    /// The query finished.
    Done { qid: QueryId, outcome: QueryOutcome, total: usize },
}

/// One stream of numbered batches. The sender numbers them `0..total` and
/// then sends the EOF with `total`; the stream is complete when it holds
/// `total` distinct `seq`s, so a repeated batch is never counted twice.
#[derive(Default)]
struct Stream {
    seen: BTreeSet<u32>,
    total: Option<u32>,
}

impl Stream {
    /// Record batch `seq`; `false` if it already arrived.
    fn accept(&mut self, seq: u32) -> bool {
        self.seen.insert(seq)
    }

    fn is_complete(&self) -> bool {
        self.total.is_some_and(|t| t as usize == self.seen.len())
    }
}

struct ClientQuery {
    deadline: SimTime,
    limit: Option<u32>,
    results: usize,
    stream: Stream,
}

/// A stage at its site, from its first message until garbage collection.
struct StageSlot {
    input: Stream,
    last_activity: SimTime,
    state: StageState,
}

enum StageState {
    /// Accepted batches that arrived before the `Install` (DHT routing can
    /// reorder).
    Waiting(Vec<Vec<Tuple>>),
    Running(StageExec),
}

/// Stage executor state at a site.
struct StageExec {
    qid: QueryId,
    stage: u32,
    /// `None` for the source stage, which has no input stream.
    join: Option<JoinCols>,
    project: Vec<usize>,
    /// Where output goes: the next stage's site, or the collector after
    /// the last stage.
    next_site: Option<Key>,
    collector: NodeId,
    /// Build side: scanned (and filtered) local tuples hashed on the join
    /// column. The source stage never builds.
    build: HashMap<Value, Vec<Tuple>>,
    /// Output batching.
    out_buf: Vec<Tuple>,
    out_seq: u32,
    finished: bool,
    /// Tuples that arrived and were probed (stats).
    probed: u64,
}

/// The per-node engine.
pub struct PierCore {
    pub catalog: Catalog,
    next_seq: u32,
    clients: BTreeMap<QueryId, ClientQuery>,
    stages: HashMap<(QueryId, u32), StageSlot>,
    events: VecDeque<PierEvent>,
}

impl PierCore {
    pub fn new(catalog: Catalog) -> Self {
        PierCore {
            catalog,
            next_seq: 1,
            clients: BTreeMap::new(),
            stages: HashMap::new(),
            events: VecDeque::new(),
        }
    }

    pub fn take_events(&mut self) -> Vec<PierEvent> {
        self.events.drain(..).collect()
    }

    /// No open query and no stage state at this node.
    pub fn is_idle(&self) -> bool {
        self.clients.is_empty() && self.stages.is_empty()
    }

    /// Allocate a fresh query id for this node.
    pub fn next_query_id(&mut self, dht: &DhtCore) -> QueryId {
        let seq = self.next_seq;
        self.next_seq += 1;
        QueryId { origin: dht.local().node.raw(), seq }
    }

    // ------------------------------------------------------------------
    // Publishing
    // ------------------------------------------------------------------

    /// Validate `tuple` against the catalog and publish it into the DHT
    /// under its index key. Returns the encoded value size (the §7
    /// publishing-cost statistic).
    ///
    /// By default the tuple goes by Bamboo-style recursive routing: one
    /// O(log N)-hop message path, how PIER publishes. `replicated` sends it
    /// through the iterative put (a lookup finds the placement, then STORE
    /// RPCs to every replica) instead. That costs more per tuple, but every
    /// timed-out RPC evicts a dead contact; no caller reads the acks. It is
    /// the tier soft-state refresh uses under churn, where a fire-and-forget
    /// RouteStore would silently die on any stale next-hop.
    pub fn publish(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        table: &str,
        tuple: &Tuple,
        replicated: bool,
    ) -> Result<usize, PublishError> {
        let def = self.catalog.get(table).ok_or(PublishError::NoSuchTable)?;
        def.schema.check(tuple).map_err(PublishError::Schema)?;
        let key = def.publish_key(tuple);
        let bytes = tuple.encode();
        let size = bytes.len();
        if replicated {
            dht.put(net, key, bytes);
        } else {
            dht.put_routed(net, key, bytes);
        }
        net.count(crate::classes::PUBLISHED_TUPLES.id(), 1);
        net.count(crate::classes::PUBLISHED_BYTES.id(), size as u64);
        Ok(size)
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    /// Disseminate `plan` and start collecting results. The collector must
    /// be this node.
    pub fn issue(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, plan: QueryPlan) {
        debug_assert_eq!(plan.collector.node, dht.local().node, "collector must be the issuer");
        self.clients.insert(
            plan.id,
            ClientQuery {
                deadline: net.now() + QUERY_TIMEOUT,
                limit: plan.limit,
                results: 0,
                stream: Stream::default(),
            },
        );
        net.count(crate::classes::QUERIES_ISSUED.id(), 1);
        // Route the plan to every stage site ("PIER routes the query plan
        // via the DHT to all sites that host a keyword in the query").
        for (i, stage) in plan.stages.iter().enumerate() {
            let msg = PierMsg::Install { plan: plan.clone(), stage: i as u32 };
            net.count(crate::classes::INSTALL_SENT.id(), 1);
            dht.route(net, stage.site, msg.encode());
        }
    }

    // ------------------------------------------------------------------
    // Event plumbing
    // ------------------------------------------------------------------

    /// Feed a DHT event. Returns `true` if PIER consumed it.
    pub fn on_dht_event(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        event: &DhtEvent,
    ) -> bool {
        let (DhtEvent::RouteDelivered { payload, .. } | DhtEvent::AppMessage { payload, .. }) =
            event
        else {
            return false;
        };
        let Ok(msg) = PierMsg::decode(payload) else {
            return false;
        };
        self.on_engine_msg(dht, net, msg);
        true
    }

    /// Deadline sweeps; call from the node's maintenance tick.
    pub fn tick(&mut self, _dht: &mut DhtCore, net: &mut dyn DhtNet) {
        // The idle engine: `retain` walks a table's capacity, not its length.
        if self.is_idle() {
            return;
        }
        let now = net.now();
        let events = &mut self.events;
        self.clients.retain(|&qid, c| {
            if c.deadline > now {
                return true;
            }
            let total = c.results;
            events.push_back(PierEvent::Done { qid, outcome: QueryOutcome::TimedOut, total });
            net.count(crate::classes::QUERY_TIMEOUT.id(), 1);
            false
        });
        self.stages.retain(|_, s| s.last_activity + EXEC_TTL > now);
    }

    fn on_engine_msg(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, msg: PierMsg) {
        match msg {
            PierMsg::Install { plan, stage } => self.install_stage(dht, net, plan, stage),
            PierMsg::Batch { qid, stage, seq, tuples } => {
                let slot = self.slot(net.now(), (qid, stage));
                if !slot.input.accept(seq) {
                    return; // a repeat: probed (or buffered) once already
                }
                match &mut slot.state {
                    StageState::Waiting(buffered) => buffered.push(tuples),
                    StageState::Running(exec) => {
                        exec.probe(dht, net, tuples);
                        exec.finish_if_complete(dht, net, &slot.input);
                    }
                }
            }
            PierMsg::BatchEof { qid, stage, total } => {
                let slot = self.slot(net.now(), (qid, stage));
                slot.input.total = Some(total);
                if let StageState::Running(exec) = &mut slot.state {
                    exec.finish_if_complete(dht, net, &slot.input);
                }
            }
            PierMsg::Results { qid, seq, tuples } => self.on_results(net, qid, seq, tuples),
            PierMsg::ResultsEof { qid, total } => {
                let Some(c) = self.clients.get_mut(&qid) else {
                    net.count(crate::classes::ORPHAN_RESULTS.id(), 1);
                    return;
                };
                c.stream.total = Some(total);
                self.maybe_done(qid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Stage execution
    // ------------------------------------------------------------------

    /// The slot for `key`, waiting for its `Install` if this is the first
    /// message about it.
    fn slot(&mut self, now: SimTime, key: (QueryId, u32)) -> &mut StageSlot {
        let slot = self.stages.entry(key).or_insert_with(|| StageSlot {
            input: Stream::default(),
            last_activity: now,
            state: StageState::Waiting(Vec::new()),
        });
        slot.last_activity = now;
        slot
    }

    fn install_stage(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        plan: QueryPlan,
        stage_idx: u32,
    ) {
        // The plan must check out against this node's catalog before any
        // of its column numbers index a tuple.
        let widths: Option<Vec<usize>> = plan
            .stages
            .iter()
            .map(|s| Some(self.catalog.get(&s.scan.table)?.schema.arity()))
            .collect();
        let valid = widths.is_some_and(|w| plan.validate(&w).is_ok());
        let Some(stage) = plan.stages.get(stage_idx as usize).filter(|_| valid) else {
            net.count(crate::classes::PROTOCOL_VIOLATION.id(), 1);
            return;
        };
        let now = net.now();
        let slot = self.slot(now, (plan.id, stage_idx));
        let StageState::Waiting(buffered) = &mut slot.state else {
            return; // duplicate install
        };
        let buffered = std::mem::take(buffered);

        // Scan the local fragment: every tuple of `table` published under
        // the scan key lives in this node's DHT storage.
        let raw = dht.local_values(&stage.scan.key, now);
        let mut scanned: Vec<Tuple> = Vec::with_capacity(raw.len());
        for bytes in raw {
            match Tuple::decode(&bytes) {
                Ok(t) => scanned.push(t),
                Err(_) => net.count(crate::classes::SCAN_DECODE_ERROR.id(), 1),
            }
        }
        net.count(crate::classes::SCANNED_TUPLES.id(), scanned.len() as u64);
        if let Some(f) = &stage.filter {
            scanned.retain(|t| f.eval_bool(t).unwrap_or(false));
        }

        let mut exec = StageExec {
            qid: plan.id,
            stage: stage_idx,
            join: stage.join,
            project: stage.project.clone(),
            next_site: plan.stages.get(stage_idx as usize + 1).map(|s| s.site),
            collector: plan.collector.node,
            build: HashMap::new(),
            out_buf: Vec::new(),
            out_seq: 0,
            finished: false,
            probed: 0,
        };
        match stage.join {
            None => {
                // Source stage: emit the scanned relation immediately.
                for t in scanned {
                    exec.out_buf.push(t.project(&exec.project));
                    exec.flush(dht, net, false);
                }
                exec.flush(dht, net, true);
                exec.finished = true;
            }
            Some(jc) => {
                for t in scanned {
                    let Some(k) = t.get(jc.scanned).cloned() else { continue };
                    if k != Value::Null {
                        exec.build.entry(k).or_default().push(t);
                    }
                }
            }
        }
        // Replay the batches that arrived before the install.
        for tuples in buffered {
            exec.probe(dht, net, tuples);
        }
        exec.finish_if_complete(dht, net, &slot.input);
        slot.state = StageState::Running(exec);
    }

    // ------------------------------------------------------------------
    // Collector side
    // ------------------------------------------------------------------

    fn on_results(&mut self, net: &mut dyn DhtNet, qid: QueryId, seq: u32, mut tuples: Vec<Tuple>) {
        let Some(c) = self.clients.get_mut(&qid) else {
            net.count(crate::classes::ORPHAN_RESULTS.id(), 1);
            return;
        };
        if !c.stream.accept(seq) {
            return; // a repeat: delivered once already
        }
        if let Some(limit) = c.limit {
            let room = (limit as usize).saturating_sub(c.results);
            tuples.truncate(room);
        }
        c.results += tuples.len();
        if !tuples.is_empty() {
            self.events.push_back(PierEvent::Results { qid, tuples });
        }
        self.maybe_done(qid);
    }

    /// Report `qid` done once it reached its limit or holds its whole
    /// result stream, and forget it: whatever arrives for it later is an
    /// orphan.
    fn maybe_done(&mut self, qid: QueryId) {
        let btree_map::Entry::Occupied(entry) = self.clients.entry(qid) else {
            return;
        };
        let c = entry.get();
        let outcome = if c.limit.is_some_and(|l| c.results >= l as usize) {
            QueryOutcome::LimitReached
        } else if c.stream.is_complete() {
            QueryOutcome::Complete
        } else {
            return;
        };
        let total = entry.remove().results;
        self.events.push_back(PierEvent::Done { qid, outcome, total });
    }
}

impl StageExec {
    /// Join one input batch against the build side and ship full output
    /// batches downstream.
    fn probe(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, tuples: Vec<Tuple>) {
        let Some(jc) = self.join else {
            // The source stage has no upstream.
            net.count(crate::classes::PROTOCOL_VIOLATION.id(), 1);
            return;
        };
        net.count(crate::classes::PROBE_TUPLES.id(), tuples.len() as u64);
        for incoming in tuples {
            self.probed += 1;
            let Some(matches) = incoming.get(jc.incoming).and_then(|k| self.build.get(k)) else {
                continue;
            };
            for m in matches {
                self.out_buf.push(incoming.concat(m).project(&self.project));
            }
        }
        self.flush(dht, net, false);
    }

    /// Close the stage once its input stream is complete: ship what is
    /// left, then the end-of-stream marker.
    fn finish_if_complete(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, input: &Stream) {
        if !self.finished && input.is_complete() {
            self.flush(dht, net, true);
            self.finished = true;
            net.observe(crate::classes::STAGE_PROBED.id(), self.probed as f64);
        }
    }

    /// Ship buffered output downstream (or to the collector for the last
    /// stage); `eof` additionally sends the end-of-stream marker.
    fn flush(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, eof: bool) {
        let (qid, stage) = (self.qid, self.stage + 1);
        // Without EOF only ship full batches; with EOF drain everything.
        while self.out_buf.len() >= BATCH_SIZE || (eof && !self.out_buf.is_empty()) {
            let take = self.out_buf.len().min(BATCH_SIZE);
            let tuples: Vec<Tuple> = self.out_buf.drain(..take).collect();
            let emit_count = tuples.len() as u64;
            let seq = self.out_seq;
            self.out_seq += 1;
            let msg = if self.next_site.is_some() {
                net.count(crate::classes::SHIPPED_TUPLES.id(), emit_count);
                PierMsg::Batch { qid, stage, seq, tuples }
            } else {
                net.count(crate::classes::RESULT_TUPLES.id(), emit_count);
                PierMsg::Results { qid, seq, tuples }
            };
            self.send(dht, net, msg);
        }
        if eof {
            let total = self.out_seq;
            let msg = if self.next_site.is_some() {
                PierMsg::BatchEof { qid, stage, total }
            } else {
                PierMsg::ResultsEof { qid, total }
            };
            self.send(dht, net, msg);
        }
    }

    /// Inter-stage traffic is routed by site key; results go straight to
    /// the collector.
    fn send(&self, dht: &mut DhtCore, net: &mut dyn DhtNet, msg: PierMsg) {
        match self.next_site {
            Some(site) => dht.route(net, site, msg.encode()),
            None => dht.send_direct(net, self.collector, msg.encode()),
        }
    }
}

/// Publishing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    NoSuchTable,
    Schema(crate::schema::SchemaError),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::NoSuchTable => write!(f, "table not in catalog"),
            PublishError::Schema(e) => write!(f, "schema violation: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}
