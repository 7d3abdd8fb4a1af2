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

use crate::catalog::Catalog;
use crate::msg::PierMsg;

use crate::plan::{QueryId, QueryPlan};
use crate::value::Tuple;
use pier_dht::{DhtCore, DhtEvent, DhtNet};
use pier_netsim::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Tuples per inter-stage / result batch.
const BATCH_SIZE: usize = 64;
/// Client-side deadline: a query with no EOF by then is reported as timed
/// out.
const QUERY_TIMEOUT: SimDuration = SimDuration::from_secs(30);
/// Stage-executor state (and orphan buffers) are garbage collected this
/// long after last activity.
const EXEC_TTL: SimDuration = SimDuration::from_secs(120);

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

struct ClientQuery {
    deadline: SimTime,
    limit: Option<u32>,
    batches_seen: u32,
    total_batches: Option<u32>,
    results: usize,
    done: bool,
}

/// Stage executor state at a site.
struct StageExec {
    plan: QueryPlan,
    stage: u32,
    /// Build side: scanned (and filtered) local tuples hashed on the join
    /// column. Stage 0 never builds.
    build: HashMap<crate::value::Value, Vec<Tuple>>,
    /// Output batching.
    out_buf: Vec<Tuple>,
    out_seq: u32,
    /// Upstream stream accounting.
    in_batches: u32,
    in_total: Option<u32>,
    finished: bool,
    last_activity: SimTime,
    /// Tuples that arrived and produced joins (stats).
    probed: u64,
}

/// Batches that arrived before their `Install` (DHT routing can reorder).
struct Orphans {
    batches: Vec<(u32, Vec<Tuple>)>,
    total: Option<u32>,
    since: SimTime,
}

/// The per-node engine.
pub struct PierCore {
    pub catalog: Catalog,
    next_seq: u32,
    clients: BTreeMap<QueryId, ClientQuery>,
    execs: HashMap<(QueryId, u32), StageExec>,
    orphans: HashMap<(QueryId, u32), Orphans>,
    events: VecDeque<PierEvent>,
}

impl PierCore {
    pub fn new(catalog: Catalog) -> Self {
        PierCore {
            catalog,
            next_seq: 1,
            clients: BTreeMap::new(),
            execs: HashMap::new(),
            orphans: HashMap::new(),
            events: VecDeque::new(),
        }
    }

    pub fn take_events(&mut self) -> Vec<PierEvent> {
        self.events.drain(..).collect()
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
    /// under its index key, via Bamboo-style recursive routing (one
    /// O(log N)-hop message path — how PIER publishes). Returns the encoded
    /// value size (the §7 publishing-cost statistic).
    pub fn publish(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        table: &str,
        tuple: &Tuple,
    ) -> Result<usize, PublishError> {
        let def = self.catalog.get(table).ok_or(PublishError::NoSuchTable)?;
        def.schema.check(tuple).map_err(PublishError::Schema)?;
        let key = def.publish_key(tuple);
        let bytes = tuple.encode();
        let size = bytes.len();
        dht.put_routed(net, key, bytes);
        net.count(crate::classes::PUBLISHED_TUPLES.id(), 1);
        net.count(crate::classes::PUBLISHED_BYTES.id(), size as u64);
        Ok(size)
    }

    /// Like [`PierCore::publish`], but through the ack-checked iterative
    /// put (lookup + replicated STORE RPCs) instead of the one-way
    /// recursive route. Costlier per tuple, but every hop is confirmed and
    /// every timed-out RPC evicts a dead contact — the durability tier
    /// soft-state *refresh* uses under churn, where a fire-and-forget
    /// RouteStore would silently die on any stale next-hop.
    pub fn publish_replicated(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        table: &str,
        tuple: &Tuple,
    ) -> Result<usize, PublishError> {
        let def = self.catalog.get(table).ok_or(PublishError::NoSuchTable)?;
        def.schema.check(tuple).map_err(PublishError::Schema)?;
        let key = def.publish_key(tuple);
        let bytes = tuple.encode();
        let size = bytes.len();
        dht.put(net, key, bytes);
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
                batches_seen: 0,
                total_batches: None,
                results: 0,
                done: false,
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
        match event {
            DhtEvent::RouteDelivered { payload, .. } => match PierMsg::decode(payload) {
                Ok(msg) => {
                    self.on_engine_msg(dht, net, msg);
                    true
                }
                Err(_) => false,
            },
            DhtEvent::AppMessage { payload, .. } => match PierMsg::decode(payload) {
                Ok(msg) => {
                    self.on_engine_msg(dht, net, msg);
                    true
                }
                Err(_) => false,
            },
            _ => false,
        }
    }

    /// Deadline sweeps; call from the node's maintenance tick.
    pub fn tick(&mut self, _dht: &mut DhtCore, net: &mut dyn DhtNet) {
        // The idle engine: `retain` walks a table's capacity, not its length.
        if self.clients.is_empty() && self.execs.is_empty() && self.orphans.is_empty() {
            return;
        }
        let now = net.now();
        // Client deadlines.
        let timed_out: Vec<QueryId> = self
            .clients
            .iter()
            .filter(|(_, c)| !c.done && c.deadline <= now)
            .map(|(q, _)| *q)
            .collect();
        for qid in timed_out {
            let c = self.clients.get_mut(&qid).expect("listed above");
            c.done = true;
            let total = c.results;
            self.events.push_back(PierEvent::Done { qid, outcome: QueryOutcome::TimedOut, total });
            net.count(crate::classes::QUERY_TIMEOUT.id(), 1);
        }
        self.clients.retain(|_, c| !(c.done && c.deadline <= now));
        // Executor / orphan GC.
        self.execs.retain(|_, e| e.last_activity + EXEC_TTL > now);
        self.orphans.retain(|_, o| o.since + EXEC_TTL > now);
    }

    fn on_engine_msg(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, msg: PierMsg) {
        match msg {
            PierMsg::Install { plan, stage } => self.install_stage(dht, net, plan, stage),
            PierMsg::Batch { qid, stage, seq, tuples } => {
                self.on_batch(dht, net, qid, stage, seq, tuples)
            }
            PierMsg::BatchEof { qid, stage, total } => {
                self.on_batch_eof(dht, net, qid, stage, total)
            }
            PierMsg::Results { qid, tuples, .. } => self.on_results(net, qid, tuples),
            PierMsg::ResultsEof { qid, total } => self.on_results_eof(net, qid, total),
        }
    }

    // ------------------------------------------------------------------
    // Stage execution
    // ------------------------------------------------------------------

    fn install_stage(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        plan: QueryPlan,
        stage_idx: u32,
    ) {
        let key = (plan.id, stage_idx);
        if self.execs.contains_key(&key) {
            return; // duplicate install
        }
        let stage = &plan.stages[stage_idx as usize];
        // Scan the local fragment: every tuple of `table` published under
        // the scan key lives in this node's DHT storage.
        let raw = dht.local_values(&stage.scan.key, net.now());
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
            stage: stage_idx,
            build: HashMap::new(),
            out_buf: Vec::new(),
            out_seq: 0,
            in_batches: 0,
            in_total: None,
            finished: false,
            last_activity: net.now(),
            probed: 0,
            plan,
        };

        match exec.plan.stages[stage_idx as usize].join {
            None => {
                // Source stage: emit the scanned relation immediately.
                let project = exec.plan.stages[stage_idx as usize].project.clone();
                for t in scanned {
                    let out = t.project(&project);
                    exec.out_buf.push(out);
                    if exec.out_buf.len() >= BATCH_SIZE {
                        Self::flush(&mut exec, dht, net, false);
                    }
                }
                Self::flush(&mut exec, dht, net, true);
                exec.finished = true;
            }
            Some(jc) => {
                for t in scanned {
                    let k = t.0[jc.scanned].clone();
                    if k != crate::value::Value::Null {
                        exec.build.entry(k).or_default().push(t);
                    }
                }
            }
        }
        self.execs.insert(key, exec);
        // Replay any batches that arrived before the install.
        if let Some(orphans) = self.orphans.remove(&key) {
            for (seq, tuples) in orphans.batches {
                self.on_batch(dht, net, key.0, key.1, seq, tuples);
            }
            if let Some(total) = orphans.total {
                self.on_batch_eof(dht, net, key.0, key.1, total);
            }
        }
    }

    fn on_batch(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        qid: QueryId,
        stage: u32,
        seq: u32,
        tuples: Vec<Tuple>,
    ) {
        let key = (qid, stage);
        let Some(exec) = self.execs.get_mut(&key) else {
            self.orphans
                .entry(key)
                .or_insert_with(|| Orphans { batches: Vec::new(), total: None, since: net.now() })
                .batches
                .push((seq, tuples));
            return;
        };
        exec.last_activity = net.now();
        exec.in_batches += 1;
        let jc = exec.plan.stages[stage as usize]
            .join
            .expect("joined stages are the only batch receivers");
        let project = exec.plan.stages[stage as usize].project.clone();
        net.count(crate::classes::PROBE_TUPLES.id(), tuples.len() as u64);
        for incoming in tuples {
            exec.probed += 1;
            let Some(matches) = exec.build.get(&incoming.0[jc.incoming]) else {
                continue;
            };
            for m in matches {
                let joined = incoming.concat(m);
                exec.out_buf.push(joined.project(&project));
            }
        }
        // Flush full batches downstream.
        Self::flush(exec, dht, net, false);
        self.check_stage_complete(dht, net, key);
    }

    fn on_batch_eof(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        qid: QueryId,
        stage: u32,
        total: u32,
    ) {
        let key = (qid, stage);
        let Some(exec) = self.execs.get_mut(&key) else {
            self.orphans
                .entry(key)
                .or_insert_with(|| Orphans { batches: Vec::new(), total: None, since: net.now() })
                .total = Some(total);
            return;
        };
        exec.last_activity = net.now();
        exec.in_total = Some(total);
        self.check_stage_complete(dht, net, key);
    }

    fn check_stage_complete(
        &mut self,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        key: (QueryId, u32),
    ) {
        let Some(exec) = self.execs.get_mut(&key) else {
            return;
        };
        if exec.finished {
            return;
        }
        if exec.in_total == Some(exec.in_batches) {
            Self::flush(exec, dht, net, true);
            exec.finished = true;
            net.observe(crate::classes::STAGE_PROBED.id(), exec.probed as f64);
        }
    }

    /// Ship buffered output downstream (or to the collector for the last
    /// stage); `eof` additionally sends the end-of-stream marker.
    fn flush(exec: &mut StageExec, dht: &mut DhtCore, net: &mut dyn DhtNet, eof: bool) {
        let stage_idx = exec.stage as usize;
        let is_last = stage_idx + 1 == exec.plan.stages.len();
        // Without EOF only ship full batches; with EOF drain everything.
        while exec.out_buf.len() >= BATCH_SIZE || (eof && !exec.out_buf.is_empty()) {
            let take = exec.out_buf.len().min(BATCH_SIZE);
            let tuples: Vec<Tuple> = exec.out_buf.drain(..take).collect();
            let emit_count = tuples.len() as u64;
            let seq = exec.out_seq;
            exec.out_seq += 1;
            if is_last {
                let msg = PierMsg::Results { qid: exec.plan.id, seq, tuples };
                net.count(crate::classes::RESULT_TUPLES.id(), emit_count);
                dht.send_direct(net, exec.plan.collector.node, msg.encode());
            } else {
                let next = &exec.plan.stages[stage_idx + 1];
                let msg = PierMsg::Batch { qid: exec.plan.id, stage: exec.stage + 1, seq, tuples };
                net.count(crate::classes::SHIPPED_TUPLES.id(), emit_count);
                dht.route(net, next.site, msg.encode());
            }
        }
        if eof {
            let total = exec.out_seq;
            if is_last {
                let msg = PierMsg::ResultsEof { qid: exec.plan.id, total };
                dht.send_direct(net, exec.plan.collector.node, msg.encode());
            } else {
                let next = &exec.plan.stages[stage_idx + 1];
                let msg = PierMsg::BatchEof { qid: exec.plan.id, stage: exec.stage + 1, total };
                dht.route(net, next.site, msg.encode());
            }
        }
    }

    // ------------------------------------------------------------------
    // Collector side
    // ------------------------------------------------------------------

    fn on_results(&mut self, net: &mut dyn DhtNet, qid: QueryId, tuples: Vec<Tuple>) {
        let Some(c) = self.clients.get_mut(&qid) else {
            net.count(crate::classes::ORPHAN_RESULTS.id(), 1);
            return;
        };
        if c.done {
            return;
        }
        c.batches_seen += 1;
        let mut tuples = tuples;
        if let Some(limit) = c.limit {
            let room = (limit as usize).saturating_sub(c.results);
            tuples.truncate(room);
        }
        c.results += tuples.len();
        let reached_limit = c.limit.is_some_and(|l| c.results >= l as usize);
        let total = c.results;
        if !tuples.is_empty() {
            self.events.push_back(PierEvent::Results { qid, tuples });
        }
        if reached_limit {
            let c = self.clients.get_mut(&qid).expect("present");
            c.done = true;
            self.events.push_back(PierEvent::Done {
                qid,
                outcome: QueryOutcome::LimitReached,
                total,
            });
        } else {
            self.maybe_complete(qid);
        }
    }

    fn on_results_eof(&mut self, net: &mut dyn DhtNet, qid: QueryId, total: u32) {
        let Some(c) = self.clients.get_mut(&qid) else {
            net.count(crate::classes::ORPHAN_RESULTS.id(), 1);
            return;
        };
        c.total_batches = Some(total);
        self.maybe_complete(qid);
    }

    fn maybe_complete(&mut self, qid: QueryId) {
        let Some(c) = self.clients.get_mut(&qid) else {
            return;
        };
        if !c.done && c.total_batches == Some(c.batches_seen) {
            c.done = true;
            let total = c.results;
            self.events.push_back(PierEvent::Done { qid, outcome: QueryOutcome::Complete, total });
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
