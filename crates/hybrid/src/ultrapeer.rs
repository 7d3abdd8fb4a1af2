//! The hybrid ultrapeer (Fig. 17 of the paper): one process running a
//! LimeWire ultrapeer, the Gnutella proxy, and the PIERSearch client over
//! the DHT overlay.
//!
//! Query flow (§7): leaf queries run through normal Gnutella dynamic
//! querying; if nothing returns within the timeout, the query is re-issued
//! through PIERSearch. File info is gathered from leaf BrowseHosts and
//! snooped result traffic; the configured rare-item scheme decides what the
//! Publisher pushes into the DHT (rate-limited, as deployed).

use crate::msg::HybridMsg;
use crate::rare::{ObservedItem, RareScheme};
use pier_dht::{CtxNet, DhtCore, Key};
use pier_gnutella::{
    CtxGnutellaNet, FileMeta, GnutellaMsg, GnutellaNet, Guid, Hit, QueryOrigin, SnoopEvent,
    UltrapeerCore,
};
use pier_netsim::{Actor, Ctx, NodeId, SimDuration, SimTime, TimerToken};
use pier_qp::{PierConfig, PierCore, PierEvent, QueryId};
use pier_trace::{TraceHandle, TraceId, TraceKind};
use pier_vocab::Terms;
use piersearch::{file_id, IndexMode, ItemRecord, Publisher, SearchConfig, SearchEngine};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Timer tokens of the three subsystems sharing this actor.
pub const G_TICK: TimerToken = TimerToken(0x11);
pub const D_TICK: TimerToken = TimerToken(0x22);
pub const H_TICK: TimerToken = TimerToken(0x33);

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
    /// Index layout to publish and query.
    pub index_mode: IndexMode,
    /// How long the QRS window waits before judging a snooped query's
    /// result count final.
    pub qrs_window: SimDuration,
    /// Hybrid bookkeeping tick.
    pub tick: SimDuration,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            timeout: SimDuration::from_secs(30),
            publish_interval: SimDuration::from_millis(2500),
            browse_leaves: true,
            index_mode: IndexMode::InvertedCache,
            qrs_window: SimDuration::from_secs(15),
            tick: SimDuration::from_millis(500),
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
    search_id: Option<u32>,
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
    pub dht: DhtCore,
    pub pier: PierCore,
    pub engine: SearchEngine,
    pub publisher: Publisher,
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
    /// PIER query ids of in-flight *traced* fallback searches: their
    /// result-driven item fetches (`dht.get`) get the same attribution as
    /// the lookup that `start_search` issued.
    traced_qids: BTreeMap<QueryId, TraceId>,
}

impl HybridUp {
    pub fn new(
        cfg: HybridConfig,
        mut gnutella: UltrapeerCore,
        dht: DhtCore,
        scheme: RareScheme,
    ) -> Self {
        gnutella.snoop = true;
        let engine = SearchEngine::new(SearchConfig {
            mode: cfg.index_mode,
            timeout: SimDuration::from_secs(60),
            limit: None,
        });
        HybridUp {
            publisher: Publisher::new(cfg.index_mode),
            pier: PierCore::new(PierConfig::default(), piersearch::catalog()),
            engine,
            cfg,
            gnutella,
            dht,
            scheme,
            queries: Vec::new(),
            stats: Vec::new(),
            publish_queue: VecDeque::new(),
            published: HashSet::new(),
            next_publish_at: SimTime::ZERO,
            qrs_windows: BTreeMap::new(),
            files_published: 0,
            trace: TraceHandle::default(),
            traced_qids: BTreeMap::new(),
        }
    }

    /// Attach the run's tracer to all three subsystems of this actor
    /// (driver API; the default handle is inert).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.gnutella.set_trace(trace.clone());
        self.dht.set_trace(trace.clone());
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

        // QRS window decisions.
        if let Some(threshold) = self.scheme.qrs_threshold() {
            let due: Vec<Guid> = self
                .qrs_windows
                .iter()
                .filter(|(_, w)| w.first_seen + self.cfg.qrs_window <= now)
                .map(|(g, _)| *g)
                .collect();
            for g in due {
                let w = self.qrs_windows.remove(&g).expect("listed");
                if w.items.len() < threshold {
                    for item in w.items {
                        self.enqueue_publish(item);
                    }
                }
            }
        }

        // Rate-limited publishing.
        if now >= self.next_publish_at {
            if let Some(item) = self.publish_queue.pop_front() {
                let mut dnet = CtxNet { ctx };
                self.publisher.publish_file(
                    &mut self.pier,
                    &mut self.dht,
                    &mut dnet,
                    &item.name,
                    item.size,
                    item.host,
                    6346,
                );
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
                    let traced = self.trace.lookup(guid.0);
                    if let Some(t) = traced {
                        // Attribute the fallback's DHT lookups to the query.
                        self.dht.trace_scope(t);
                    }
                    let mut dnet = CtxNet { ctx };
                    let sid =
                        self.engine.start_search(&mut self.pier, &mut self.dht, &mut dnet, terms);
                    if let Some(t) = traced {
                        self.dht.clear_trace_scope();
                        if let Some(state) = sid.and_then(|s| self.engine.search(s)) {
                            self.traced_qids.insert(state.qid, t);
                        }
                    }
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

    fn drain_engine(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        for ev in self.engine.take_events() {
            let piersearch::SearchEvent::Done(sid) = ev;
            let Some(pos) = self.queries.iter().position(|q| q.search_id == Some(sid)) else {
                continue;
            };
            let q = &self.queries[pos];
            let guid = q.guid;
            let stats_idx = q.stats;
            let leaf = q.leaf;
            if let Some(state) = self.engine.take_search(sid) {
                self.traced_qids.remove(&state.qid);
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
            self.queries.remove(pos);
        }
    }

    /// Forward PIER client events into the search engine. Result batches
    /// for a *traced* search trigger item fetches (`dht.get`); those
    /// lookups get the same trace attribution as the original search.
    fn pump_pier_events(&mut self, dnet: &mut CtxNet<HybridMsg>) {
        for pe in self.pier.take_events() {
            let qid = match &pe {
                PierEvent::Results { qid, .. } | PierEvent::Done { qid, .. } => *qid,
            };
            let scoped = self.traced_qids.get(&qid).copied();
            if let Some(t) = scoped {
                self.dht.trace_scope(t);
            }
            self.engine.on_pier_event(&mut self.dht, dnet, &pe);
            if scoped.is_some() {
                self.dht.clear_trace_scope();
            }
        }
    }

    fn drain_dht_events(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        loop {
            let events = self.dht.take_events();
            if events.is_empty() {
                break;
            }
            for ev in events {
                let mut dnet = CtxNet { ctx };
                let consumed = self.pier.on_dht_event(&mut self.dht, &mut dnet, &ev);
                self.pump_pier_events(&mut dnet);
                if !consumed {
                    self.engine.on_dht_event(&mut self.dht, &mut dnet, &ev);
                }
            }
        }
        self.drain_engine(ctx);
    }
}

impl Actor<HybridMsg> for HybridUp {
    fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        use pier_netsim::HeapSize;
        self.gnutella.mem_stats(acc);
        self.dht.mem_stats(acc);
        acc.add("hybrid.scheme", self.scheme.heap_bytes());
        acc.add("pier.term_stats", self.engine.term_stats.heap_bytes());
        acc.add(
            "hybrid.proxy",
            self.publish_queue.capacity() * size_of::<ObservedItem>() + self.published.heap_bytes(),
        );
    }

    fn on_start(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        ctx.set_timer(self.gnutella.cfg.tick, G_TICK);
        ctx.set_timer(self.dht.config().tick, D_TICK);
        ctx.set_timer(self.cfg.tick, H_TICK);
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
                self.dht.on_message(&mut CtxNet { ctx }, d);
                self.drain_dht_events(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<HybridMsg>, token: TimerToken) {
        match token {
            G_TICK => {
                ctx.set_timer(self.gnutella.cfg.tick, G_TICK);
                self.gnutella.tick(&mut CtxGnutellaNet { ctx });
            }
            D_TICK => {
                ctx.set_timer(self.dht.config().tick, D_TICK);
                let mut dnet = CtxNet { ctx };
                self.dht.tick(&mut dnet);
                self.pier.tick(&mut self.dht, &mut dnet);
                self.publisher.tick(&mut self.pier, &mut self.dht, &mut dnet);
                self.pump_pier_events(&mut dnet);
                self.engine.tick(&mut dnet);
                self.drain_dht_events(ctx);
            }
            H_TICK => {
                ctx.set_timer(self.cfg.tick, H_TICK);
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
        self.dht.end_session();
    }

    /// Revival re-arms all three maintenance timers and re-primes the DHT
    /// routing table; `on_start`'s optional leaf browse also re-runs,
    /// mirroring a reconnecting proxy re-pulling its leaves' shares.
    fn on_revive(&mut self, ctx: &mut dyn Ctx<HybridMsg>) {
        self.on_start(ctx);
        self.dht.revive(&mut CtxNet { ctx });
        self.drain_dht_events(ctx);
    }
}
