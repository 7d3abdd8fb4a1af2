//! The hybrid ultrapeer (Fig. 17 of the paper): one process running a
//! LimeWire ultrapeer, the Gnutella proxy, and a stock PIERSearch node over
//! the DHT overlay.
//!
//! Query flow (§7): driver and leaf queries run through normal Gnutella
//! dynamic querying; if nothing returns within the timeout, the query is
//! re-issued through PIERSearch. File info is gathered from leaf BrowseHosts
//! and snooped result traffic; the configured rare-item scheme decides what
//! the Publisher pushes into the DHT (rate-limited, as deployed).

use crate::msg::HybridMsg;
use crate::rare::{ObservedItem, RareScheme};
use pier_dht::{CtxNet, DhtCore, DhtNode, Key, TICK_TOKEN};
use pier_gnutella::{
    CtxGnutellaNet, FileMeta, GnutellaMsg, GnutellaNet, Guid, Hit, QueryOrigin, UltrapeerCore,
    UP_TICK, UP_TICK_INTERVAL,
};
use pier_netsim::{Actor, Ctx, NodeId, SimDuration, SimTime, TimerToken};
use pier_qp::QueryId;
use pier_trace::{TraceHandle, TraceKind};
use pier_vocab::Terms;
use piersearch::{file_id, IndexMode, ItemRecord, PierSearchApp, PierSearchNode, SearchEvent};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// The hybrid bookkeeping tick and its timer token. The Gnutella and DHT
/// halves arm their stock tokens, [`UP_TICK`] and [`TICK_TOKEN`].
const TICK: SimDuration = SimDuration::from_millis(500);
const H_TICK: TimerToken = TimerToken(0x33);

/// How long the QRS window waits before judging a snooped query's result
/// count final.
const QRS_WINDOW: SimDuration = SimDuration::from_secs(15);

/// Hybrid-specific behaviour knobs.
#[derive(Clone, Debug)]
pub struct HybridConfig {
    /// Re-issue via PIERSearch if Gnutella returned nothing by then (the
    /// deployment used 30 s).
    pub timeout: SimDuration,
    /// Publishing rate limit (the deployment observed one file per 2–3 s).
    pub publish_interval: SimDuration,
    /// Pull leaf file lists via BrowseHost on startup.
    pub browse_leaves: bool,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            timeout: SimDuration::from_secs(30),
            publish_interval: SimDuration::from_millis(2500),
            browse_leaves: true,
        }
    }
}

/// Outcome record of one driver query.
#[derive(Clone, Debug)]
pub struct HybridQueryStats {
    pub terms: Terms,
    pub issued_at: SimTime,
    /// First Gnutella hit, if any.
    pub gnutella_first: Option<SimTime>,
    pub gnutella_hits: usize,
    /// When (if) the query fell through to PIERSearch.
    pub pier_issued_at: Option<SimTime>,
    /// First PIERSearch result, if any.
    pub pier_first: Option<SimTime>,
    pub pier_items: Vec<ItemRecord>,
    pub done: bool,
}

/// Who asked: the driver (its row in [`HybridUp::stats`]) or a leaf.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Asker {
    Driver(usize),
    Leaf { leaf: NodeId, qid: u32 },
}

/// A query in flight. It ends once, at the first hybrid tick at which it
/// waits for neither Gnutella nor PIER and its Gnutella record is finished.
struct Live {
    guid: Guid,
    asker: Asker,
    /// When Gnutella's time is up; `None` once the hybrid has looked.
    deadline: Option<SimTime>,
    /// The PIERSearch search re-issuing the query, until its `Done`.
    search: Option<QueryId>,
}

struct QrsWindow {
    first_seen: SimTime,
    items: Vec<ObservedItem>,
}

/// The hybrid ultrapeer actor.
pub struct HybridUp {
    pub cfg: HybridConfig,
    pub gnutella: UltrapeerCore,
    /// The stock PIERSearch stack (DHT, PIER, Publisher, Search Engine),
    /// hosted rather than spawned: this actor forwards its DHT traffic and
    /// tick.
    pub search: PierSearchNode,
    pub scheme: RareScheme,
    /// Every query in flight, driver and leaf alike, in issue order.
    live: Vec<Live>,
    /// One row per driver query, at the index `start_hybrid_query` returned.
    pub stats: Vec<HybridQueryStats>,
    publish_queue: VecDeque<ObservedItem>,
    published: HashSet<Key>,
    next_publish_at: SimTime,
    qrs_windows: BTreeMap<Guid, QrsWindow>,
    /// Total files pushed to the DHT (deployment statistic).
    pub files_published: u64,
    /// Causal query tracing (inert unless the driver sampled queries).
    trace: TraceHandle,
}

impl HybridUp {
    pub fn new(
        cfg: HybridConfig,
        mut gnutella: UltrapeerCore,
        dht: DhtCore,
        scheme: RareScheme,
    ) -> Self {
        gnutella.snoop = true;
        HybridUp {
            cfg,
            gnutella,
            search: DhtNode::new(dht, PierSearchApp::new(IndexMode::InvertedCache), None),
            scheme,
            live: Vec::new(),
            stats: Vec::new(),
            publish_queue: VecDeque::new(),
            published: HashSet::new(),
            next_publish_at: SimTime::ZERO,
            qrs_windows: BTreeMap::new(),
            files_published: 0,
            trace: TraceHandle::default(),
        }
    }

    /// Attach the run's tracer to all three subsystems of this actor
    /// (driver API; the default handle is inert).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.gnutella.set_trace(trace.clone());
        self.search.core.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Issue a hybrid query from the experiment driver. Returns the index
    /// into [`HybridUp::stats`].
    pub fn start_hybrid_query(
        &mut self,
        ctx: &mut dyn Ctx<HybridMsg>,
        terms: impl Into<Terms>,
    ) -> usize {
        let terms: Terms = terms.into();
        let row = self.stats.len();
        self.start(ctx, terms.clone(), Asker::Driver(row));
        self.stats.push(HybridQueryStats {
            terms,
            issued_at: ctx.now(),
            gnutella_first: None,
            gnutella_hits: 0,
            pier_issued_at: None,
            pier_first: None,
            pier_items: Vec::new(),
            done: false,
        });
        row
    }

    /// Start `asker`'s query as a core `Driver` query: this actor owns it.
    fn start(&mut self, ctx: &mut dyn Ctx<HybridMsg>, terms: Terms, asker: Asker) -> Guid {
        let mut gnet = CtxGnutellaNet { ctx };
        let guid = self.gnutella.start_query(&mut gnet, terms, QueryOrigin::Driver);
        let deadline = Some(ctx.now() + self.cfg.timeout);
        self.live.push(Live { guid, asker, deadline, search: None });
        guid
    }

    /// No query in flight, no QRS window open and no publish queued (a
    /// test observer).
    pub fn is_idle(&self) -> bool {
        self.live.is_empty() && self.qrs_windows.is_empty() && self.publish_queue.is_empty()
    }

    /// Queue an observed item for (rate-limited) publishing if it has not
    /// been published already.
    fn enqueue_publish(&mut self, item: ObservedItem) {
        let fid = file_id(&item.name, item.size, item.host, 6346);
        if self.published.insert(fid) {
            self.publish_queue.push_back(item);
        }
    }

    /// Feed snooped hit batches to the rare-item scheme, and relay each
    /// batch for a leaf's query in flight to that leaf.
    fn drain_snooped(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        let now = ctx.now();
        for (guid, hits) in self.gnutella.take_snooped() {
            let asker = self.live.iter().find(|q| q.guid == guid).map(|q| q.asker);
            if let Some(Asker::Leaf { leaf, qid }) = asker {
                let msg = GnutellaMsg::LeafResults { qid, hits: hits.clone(), done: false };
                CtxGnutellaNet { ctx }.send(leaf, msg);
            }
            for h in &hits {
                self.scheme.observe(&h.file.name);
            }
            match self.scheme.qrs_threshold() {
                Some(_) => {
                    // QRS: accumulate per-query windows; decide later.
                    let w = self
                        .qrs_windows
                        .entry(guid)
                        .or_insert_with(|| QrsWindow { first_seen: now, items: vec![] });
                    w.items.extend(hits.iter().map(ObservedItem::from_hit));
                }
                None => {
                    for h in &hits {
                        if self.scheme.is_rare(&h.file.name) == Some(true) {
                            self.enqueue_publish(ObservedItem::from_hit(h));
                        }
                    }
                }
            }
        }
    }

    fn hybrid_tick(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        let now = ctx.now();

        // QRS window decisions: due windows close in ascending GUID order;
        // those with few results publish their items.
        if let Some(threshold) = self.scheme.qrs_threshold() {
            let mut rare = Vec::new();
            self.qrs_windows.retain(|_, w| {
                let open = now < w.first_seen + QRS_WINDOW;
                if !open && w.items.len() < threshold {
                    rare.append(&mut w.items);
                }
                open
            });
            for item in rare {
                self.enqueue_publish(item);
            }
        }

        // Rate-limited publishing.
        if now >= self.next_publish_at {
            if let Some(item) = self.publish_queue.pop_front() {
                let PierSearchNode { core, app, .. } = &mut self.search;
                let dnet = &mut CtxNet { ctx };
                let (name, size, host) = (&item.name, item.size, item.host);
                app.publisher.publish_file(&mut app.pier, core, dnet, name, size, host, 6346);
                self.files_published += 1;
                self.next_publish_at = now + self.cfg.publish_interval;
            }
        }

        let mut live = std::mem::take(&mut self.live);
        live.retain_mut(|q| !self.step(ctx, q));
        self.live = live;
        // Each query took its own done search above; one that `on_down`
        // abandoned is dropped here. (No search reports `Done` inside
        // `start_search`, so none started in this walk is dropped.)
        for SearchEvent::Done(sid) in self.search.app.engine.take_events() {
            self.search.app.engine.take_search(sid);
        }
    }

    /// One hybrid tick of a query in flight: collect its done PIER search,
    /// mirror Gnutella progress into a driver row until the row is done,
    /// fall back at the deadline, and end it once its outcome is final and
    /// its Gnutella record finished. Returns whether it ended.
    fn step(&mut self, ctx: &mut dyn Ctx<HybridMsg>, q: &mut Live) -> bool {
        let (now, me) = (ctx.now(), ctx.self_id());
        let mut leaf_hits = Vec::new();
        let engine = &mut self.search.app.engine;
        let done = q.search.filter(|&sid| engine.search(sid).is_some_and(|s| s.done));
        if let Some(state) = done.and_then(|sid| engine.take_search(sid)) {
            q.search = None;
            let n = state.items.len() as u64;
            self.trace.emit_guid(q.guid.0, now, me, TraceKind::PierDone, None, n, 0);
            match q.asker {
                Asker::Driver(row) => {
                    let s = &mut self.stats[row];
                    (s.pier_first, s.pier_items, s.done) =
                        (state.first_result_at, state.items, true);
                }
                Asker::Leaf { .. } => {
                    leaf_hits = (state.items.iter())
                        .map(|i| Hit { file: FileMeta::new(&i.filename, i.filesize), host: i.host })
                        .collect();
                }
            }
        }

        let record = self.gnutella.query_record(q.guid);
        let finished = record.is_none_or(|r| r.finished);
        if let (Asker::Driver(row), Some(rec)) = (q.asker, record) {
            let s = &mut self.stats[row];
            if !s.done {
                (s.gnutella_hits, s.gnutella_first) = (rec.hits.len(), rec.first_hit_at);
            }
        }
        if q.deadline.is_some_and(|d| now >= d) {
            q.deadline = None;
            // "Leaf queries that return no results within 30 seconds via
            // Gnutella ... are re-queried by PIERSearch."
            if let Some(terms) = record.filter(|r| r.hits.is_empty()).map(|r| r.terms.clone()) {
                if let Asker::Driver(row) = q.asker {
                    self.stats[row].pier_issued_at = Some(now);
                }
                self.trace.emit_guid(q.guid.0, now, me, TraceKind::PierFallback, None, 0, 0);
                // A traced search attributes its DHT lookups, the later item
                // fetches included, to the query.
                let traced = self.trace.lookup(q.guid.0);
                let PierSearchNode { core, app, .. } = &mut self.search;
                if let Some(t) = traced {
                    core.trace_scope(t);
                }
                q.search = app.engine.start_search(&mut app.pier, core, &mut CtxNet { ctx }, terms);
                core.clear_trace_scope();
            }
            if let (None, Asker::Driver(row)) = (q.search, q.asker) {
                self.stats[row].done = true;
            }
        }

        let ended = q.deadline.is_none() && q.search.is_none() && finished;
        if ended {
            self.gnutella.take_query(q.guid);
        }
        if let Asker::Leaf { leaf, qid } = q.asker {
            if ended || !leaf_hits.is_empty() {
                let msg = GnutellaMsg::LeafResults { qid, hits: leaf_hits, done: ended };
                CtxGnutellaNet { ctx }.send(leaf, msg);
            }
        }
        ended
    }
}

impl Actor<HybridMsg> for HybridUp {
    fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        use pier_netsim::HeapSize;
        self.gnutella.mem_stats(acc);
        self.search.mem_stats(acc);
        acc.add("hybrid.scheme", self.scheme.heap_bytes());
        acc.add(
            "hybrid.proxy",
            self.publish_queue.capacity() * size_of::<ObservedItem>() + self.published.heap_bytes(),
        );
    }

    fn on_start(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        ctx.set_timer(UP_TICK_INTERVAL, UP_TICK);
        ctx.set_timer(self.search.core.config().tick, TICK_TOKEN);
        ctx.set_timer(TICK, H_TICK);
        if self.cfg.browse_leaves {
            let mut gnet = CtxGnutellaNet { ctx };
            for leaf in self.gnutella.leaves() {
                gnet.send(leaf, GnutellaMsg::BrowseHost);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<HybridMsg>, from: NodeId, msg: HybridMsg) {
        match msg {
            HybridMsg::G(GnutellaMsg::BrowseHostReply { files }) => {
                // Proxy file-info source: leaf share lists.
                for f in files {
                    self.scheme.observe(&f.name);
                    if self.scheme.is_rare(&f.name) == Some(true) {
                        self.enqueue_publish(ObservedItem {
                            name: f.name,
                            size: f.size,
                            host: from,
                        });
                    }
                }
            }
            HybridMsg::G(GnutellaMsg::LeafQuery { qid, terms }) => {
                let asker = Asker::Leaf { leaf: from, qid };
                if self.live.iter().any(|q| q.asker == asker) {
                    // A repeat of an ask in flight.
                    return ctx.count(pier_gnutella::classes::UNEXPECTED_MSG.id(), 1);
                }
                // This node's own-share matches answer at once.
                let guid = self.start(ctx, terms, asker);
                let own = self.gnutella.query_record(guid).map(|r| r.hits.clone());
                if let Some(hits) = own.filter(|h| !h.is_empty()) {
                    let msg = GnutellaMsg::LeafResults { qid, hits, done: false };
                    CtxGnutellaNet { ctx }.send(from, msg);
                }
            }
            HybridMsg::G(g) => {
                self.gnutella.on_message(&mut CtxGnutellaNet { ctx }, from, g);
                self.drain_snooped(ctx);
            }
            HybridMsg::D(d) => self.search.deliver(&mut CtxNet { ctx }, d),
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<HybridMsg>, token: TimerToken) {
        match token {
            UP_TICK => {
                ctx.set_timer(UP_TICK_INTERVAL, UP_TICK);
                self.gnutella.tick(&mut CtxGnutellaNet { ctx });
            }
            TICK_TOKEN => {
                ctx.set_timer(self.search.core.config().tick, TICK_TOKEN);
                self.search.tick(&mut CtxNet { ctx });
            }
            H_TICK => {
                ctx.set_timer(TICK, H_TICK);
                self.hybrid_tick(ctx);
            }
            _ => {}
        }
    }

    /// Churn teardown: every query in flight is abandoned (a driver row
    /// stays not `done`), counted, and its record taken, since
    /// `end_session` drops the pacing it needs to finish. Both protocol
    /// halves lose their session state (the
    /// Gnutella relay tables and the DHT replicas/in-flight ops die with
    /// the process); the rare-scheme statistics and publish dedup survive,
    /// as an operator's restarted proxy would reload them.
    fn on_down(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        for q in std::mem::take(&mut self.live) {
            ctx.count(crate::classes::QUERY_ABANDONED.id(), 1);
            self.gnutella.take_query(q.guid);
        }
        self.gnutella.end_session();
        self.search.core.end_session();
    }

    /// Revival re-arms all three maintenance timers and re-primes the DHT
    /// routing table; `on_start`'s optional leaf browse also re-runs,
    /// mirroring a reconnecting proxy re-pulling its leaves' shares.
    fn on_revive(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        self.on_start(ctx);
        self.search.revive(&mut CtxNet { ctx });
    }
}
