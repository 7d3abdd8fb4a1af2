//! The hybrid ultrapeer (Fig. 17 of the paper): one process running a
//! LimeWire ultrapeer, the Gnutella proxy, and a stock PIERSearch node over
//! the DHT overlay.
//!
//! Query flow (§7): leaf queries run through normal Gnutella dynamic
//! querying; if nothing returns within the timeout, the query is re-issued
//! through PIERSearch. File info is gathered from leaf BrowseHosts and
//! snooped result traffic; the configured rare-item scheme decides what the
//! Publisher pushes into the DHT (rate-limited, as deployed).

use crate::msg::HybridMsg;
use crate::rare::{ObservedItem, RareScheme};
use pier_dht::{CtxNet, DhtCore, DhtNode, Key, TICK_TOKEN};
use pier_gnutella::{
    CtxGnutellaNet, FileMeta, GnutellaMsg, GnutellaNet, Guid, Hit, QueryOrigin, SnoopEvent,
    UltrapeerCore, UP_TICK, UP_TICK_INTERVAL,
};
use pier_netsim::{Actor, Ctx, NodeId, SimDuration, SimTime, TimerToken};
use pier_qp::QueryId;
use pier_trace::{TraceHandle, TraceKind};
use pier_vocab::Terms;
use piersearch::{file_id, IndexMode, ItemRecord, PierSearchApp, PierSearchNode};
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

/// Outcome record of one hybrid-tracked query (driver-visible).
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

struct HybridQuery {
    guid: Guid,
    deadline: SimTime,
    search_id: Option<QueryId>,
    stats: usize,
    leaf: Option<(NodeId, u32)>,
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
    queries: Vec<HybridQuery>,
    /// Index into `stats` by search id, for completion routing.
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
            queries: Vec::new(),
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
        let mut gnet = CtxGnutellaNet { ctx };
        let guid = self.gnutella.start_query(&mut gnet, terms.clone(), QueryOrigin::Driver);
        self.track(guid, terms, ctx.now(), None)
    }

    fn track(
        &mut self,
        guid: Guid,
        terms: Terms,
        now: SimTime,
        leaf: Option<(NodeId, u32)>,
    ) -> usize {
        let idx = self.stats.len();
        self.stats.push(HybridQueryStats {
            terms,
            issued_at: now,
            gnutella_first: None,
            gnutella_hits: 0,
            pier_issued_at: None,
            pier_first: None,
            pier_items: Vec::new(),
            done: false,
        });
        self.queries.push(HybridQuery {
            guid,
            deadline: now + self.cfg.timeout,
            search_id: None,
            stats: idx,
            leaf,
        });
        idx
    }

    /// Queue an observed item for (rate-limited) publishing if it has not
    /// been published already.
    fn enqueue_publish(&mut self, item: ObservedItem) {
        let fid = file_id(&item.name, item.size, item.host, 6346);
        if self.published.insert(fid) {
            self.publish_queue.push_back(item);
        }
    }

    fn drain_snooped(&mut self, now: SimTime) {
        for ev in self.gnutella.take_snooped() {
            match ev {
                SnoopEvent::Query { .. } => {}
                SnoopEvent::Hits { guid, hits } => {
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
        }
    }

    fn hybrid_tick(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        let now = ctx.now();
        self.drain_snooped(now);

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

        // Gnutella-timeout fallback to PIERSearch.
        for qi in 0..self.queries.len() {
            let (guid, deadline, search_id, stats_idx) = {
                let q = &self.queries[qi];
                (q.guid, q.deadline, q.search_id, q.stats)
            };
            // Mirror Gnutella progress into the stats record.
            if let Some(rec) = self.gnutella.query_record(guid) {
                let s = &mut self.stats[stats_idx];
                s.gnutella_hits = rec.hits.len();
                s.gnutella_first = rec.first_hit_at;
            }
            if search_id.is_none() && now >= deadline {
                let s = &mut self.stats[stats_idx];
                if s.gnutella_hits == 0 {
                    // "Leaf queries that return no results within 30 seconds
                    // via Gnutella ... are re-queried by PIERSearch."
                    let terms = s.terms.clone();
                    let g_hits = s.gnutella_hits as u64;
                    s.pier_issued_at = Some(now);
                    let me = ctx.self_id();
                    self.trace.emit_guid(guid.0, now, me, TraceKind::PierFallback, None, g_hits, 0);
                    // A traced search attributes its DHT lookups, the later
                    // item fetches included, to the query.
                    let traced = self.trace.lookup(guid.0);
                    let PierSearchNode { core, app, .. } = &mut self.search;
                    if let Some(t) = traced {
                        core.trace_scope(t);
                    }
                    let sid =
                        app.engine.start_search(&mut app.pier, core, &mut CtxNet { ctx }, terms);
                    core.clear_trace_scope();
                    self.queries[qi].search_id = sid;
                    if sid.is_none() {
                        self.stats[stats_idx].done = true;
                    }
                } else {
                    self.stats[stats_idx].done = true;
                }
            }
        }
        let stats = &self.stats;
        self.queries.retain(|q| !stats[q.stats].done);
    }

    /// Route finished PIERSearch searches back to their hybrid queries.
    fn drain_engine(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        for ev in self.search.app.engine.take_events() {
            let piersearch::SearchEvent::Done(sid) = ev;
            let Some(pos) = self.queries.iter().position(|q| q.search_id == Some(sid)) else {
                continue;
            };
            let HybridQuery { guid, stats: stats_idx, leaf, .. } = self.queries.remove(pos);
            if let Some(state) = self.search.app.engine.take_search(sid) {
                let (at, me, n) = (ctx.now(), ctx.self_id(), state.items.len() as u64);
                self.trace.emit_guid(guid.0, at, me, TraceKind::PierDone, None, n, 0);
                let s = &mut self.stats[stats_idx];
                s.pier_first = state.first_result_at;
                s.pier_items = state.items.clone();
                s.done = true;
                // Stream the late results back to the asking leaf.
                if let Some((leaf, qid)) = leaf {
                    let hits: Vec<Hit> = state
                        .items
                        .iter()
                        .map(|i| Hit { file: FileMeta::new(&i.filename, i.filesize), host: i.host })
                        .collect();
                    let mut gnet = CtxGnutellaNet { ctx };
                    gnet.send(leaf, GnutellaMsg::LeafResults { qid, hits, done: true });
                }
            }
        }
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
                // Start the Gnutella search *and* hybrid tracking.
                let now = ctx.now();
                let mut gnet = CtxGnutellaNet { ctx };
                let guid = self.gnutella.start_query(
                    &mut gnet,
                    terms.clone(),
                    QueryOrigin::Leaf { leaf: from, qid },
                );
                self.track(guid, terms, now, Some((from, qid)));
            }
            HybridMsg::G(g) => {
                self.gnutella.on_message(&mut CtxGnutellaNet { ctx }, from, g);
                self.drain_snooped(ctx.now());
            }
            HybridMsg::D(d) => {
                self.search.deliver(&mut CtxNet { ctx }, d);
                self.drain_engine(ctx);
            }
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
                self.drain_engine(ctx);
            }
            H_TICK => {
                ctx.set_timer(TICK, H_TICK);
                self.hybrid_tick(ctx);
            }
            _ => {}
        }
    }

    /// Churn teardown: both protocol halves lose their session state (the
    /// Gnutella relay tables and the DHT replicas/in-flight ops die with
    /// the process); the rare-scheme statistics and publish dedup survive,
    /// as an operator's restarted proxy would reload them.
    fn on_down(&mut self, _ctx: &mut dyn Ctx<HybridMsg>) {
        self.gnutella.end_session();
        self.search.core.end_session();
    }

    /// Revival re-arms all three maintenance timers and re-primes the DHT
    /// routing table; `on_start`'s optional leaf browse also re-runs,
    /// mirroring a reconnecting proxy re-pulling its leaves' shares.
    fn on_revive(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        self.on_start(ctx);
        self.search.revive(&mut CtxNet { ctx });
        self.drain_engine(ctx);
    }
}
