//! The Search Engine (§3.2): compiles keyword queries into PIER plans,
//! collects the matching fileIDs, and fetches the Item tuples from the DHT.

use crate::publisher::IndexMode;
use crate::schema::{inverted_cache_table, inverted_table, item_table, ItemRecord};
use pier_dht::{DhtCore, DhtEvent, DhtNet, Key, OpId};
use pier_netsim::{SimDuration, SimTime};
use pier_qp::{
    Expr, JoinChainBuilder, JoinCols, PierCore, PierEvent, QueryId, QueryOutcome, Tuple, Value,
};
use pier_vocab::{policy, text, IdCounter, TermId, Terms};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Hard deadline for a search (covers plan execution + item fetches).
const SEARCH_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// State of one search.
#[derive(Debug)]
pub struct SearchState {
    pub terms: Vec<TermId>,
    pub qid: QueryId,
    pub issued_at: SimTime,
    /// When the first complete result (Item tuple) arrived.
    pub first_result_at: Option<SimTime>,
    pub items: Vec<ItemRecord>,
    pub done: bool,
    pub outcome: Option<QueryOutcome>,
    deadline: SimTime,
    file_ids_seen: HashSet<Key>,
    pending_fetches: HashMap<OpId, Key>,
    pier_done: bool,
    /// The `DhtCore` trace scope (a `pier_trace::TraceId`) open when the
    /// search started; its item fetches are attributed to it as well.
    trace: Option<u32>,
}

impl SearchState {
    /// Fetch the Item tuples of newly matched fileIDs ("the query node...
    /// fetches the Item tuples from the DHT based on the incoming
    /// fileIDs").
    fn fetch_items(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, tuples: &[Tuple]) {
        if let Some(scope) = self.trace {
            dht.trace_scope(scope);
        }
        let item = item_table();
        for t in tuples {
            let Some(file_id) = t.get(0).and_then(|v| v.as_key()) else {
                net.count(crate::classes::MALFORMED_MATCH.id(), 1);
                continue;
            };
            if !self.file_ids_seen.insert(file_id) {
                continue; // duplicate match (replica or rehash overlap)
            }
            let key = item.publish_key_for(&Value::Key(file_id));
            let op = dht.get(net, key);
            self.pending_fetches.insert(op, file_id);
        }
        if self.trace.is_some() {
            dht.clear_trace_scope();
        }
    }

    /// Mark the search done once PIER has finished and every fetch has
    /// returned; true on that transition.
    fn finish(&mut self, net: &mut dyn DhtNet) -> bool {
        if self.done || !self.pier_done || !self.pending_fetches.is_empty() {
            return false;
        }
        self.done = true;
        net.observe(crate::classes::RESULTS_PER_SEARCH.id(), self.items.len() as f64);
        true
    }
}

/// Search lifecycle notifications.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchEvent {
    /// The search with this id finished (inspect via [`SearchEngine::search`]).
    Done(u32),
}

/// The per-node search engine.
pub struct SearchEngine {
    /// Which index the node's publishers populate, and hence which plan
    /// shape to use (Fig. 2 join chain vs. Fig. 3 single-site filter).
    mode: IndexMode,
    /// Optional keyword document frequencies for join ordering ("optimized
    /// to compute smaller posting lists first", §5). Nodes learn these from
    /// observed traffic — the same statistics the TF scheme gathers.
    /// Keyed by the term's dense index (an open-addressed flat map: half
    /// the memory of a `HashMap<TermId, u64>` and exact accounting).
    pub term_stats: IdCounter,
    searches: BTreeMap<u32, SearchState>,
    by_qid: HashMap<QueryId, u32>,
    next_id: u32,
    events: VecDeque<SearchEvent>,
}

impl SearchEngine {
    pub fn new(mode: IndexMode) -> Self {
        SearchEngine {
            mode,
            term_stats: IdCounter::new(),
            searches: BTreeMap::new(),
            by_qid: HashMap::new(),
            next_id: 1,
            events: VecDeque::new(),
        }
    }

    pub fn take_events(&mut self) -> Vec<SearchEvent> {
        self.events.drain(..).collect()
    }

    pub fn search(&self, id: u32) -> Option<&SearchState> {
        self.searches.get(&id)
    }

    pub fn searches(&self) -> impl Iterator<Item = (u32, &SearchState)> {
        self.searches.iter().map(|(i, s)| (*i, s))
    }

    /// Remove a finished search and return its state.
    pub fn take_search(&mut self, id: u32) -> Option<SearchState> {
        let s = self.searches.remove(&id)?;
        self.by_qid.remove(&s.qid);
        Some(s)
    }

    /// Order terms by ascending observed document frequency; unknown terms
    /// sort first (assumed rare).
    fn order_terms(&self, mut terms: Vec<TermId>) -> Vec<TermId> {
        terms.sort_by_key(|t| self.term_stats.get(t.index() as u64).unwrap_or(0));
        terms
    }

    /// Start a keyword search. The raw scanned query passes through the
    /// indexing policy (stop-words out, dedup) before planning. Returns
    /// `None` when no indexable terms remain.
    pub fn start_search(
        &mut self,
        pier: &mut PierCore,
        dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        query: impl Into<Terms>,
    ) -> Option<u32> {
        let query: Terms = query.into();
        let terms = self.order_terms(policy::filter_indexable(query.ids()));
        if terms.is_empty() {
            net.count(crate::classes::UNSEARCHABLE_QUERY.id(), 1);
            return None;
        }
        let qid = pier.next_query_id(dht);
        let collector = dht.local();
        let plan = match self.mode {
            IndexMode::Inverted => {
                let inv = inverted_table();
                let mut b = JoinChainBuilder::new(qid, collector).scan(
                    &inv,
                    &Value::Str(text(terms[0]).to_string()),
                    None,
                    vec![1],
                );
                for t in &terms[1..] {
                    b = b.join(
                        &inv,
                        &Value::Str(text(*t).to_string()),
                        JoinCols { incoming: 0, scanned: 1 },
                        None,
                        vec![0],
                    );
                }
                b.build()
            }
            IndexMode::InvertedCache => {
                let cache = inverted_cache_table();
                // All remaining terms filter the cached fulltext locally.
                let filter = if terms.len() > 1 {
                    Some(Expr::And(
                        terms[1..].iter().map(|t| Expr::contains(2, &text(*t))).collect(),
                    ))
                } else {
                    None
                };
                // Matching fileIDs are fully resolved at the single site;
                // only they stream back (the cached fulltext stays put).
                JoinChainBuilder::new(qid, collector)
                    .scan(&cache, &Value::Str(text(terms[0]).to_string()), filter, vec![1])
                    .build()
            }
        };
        net.count(crate::classes::SEARCHES.id(), 1);
        pier.issue(dht, net, plan);

        let id = self.next_id;
        self.next_id += 1;
        self.searches.insert(
            id,
            SearchState {
                terms,
                qid,
                issued_at: net.now(),
                first_result_at: None,
                items: Vec::new(),
                done: false,
                outcome: None,
                deadline: net.now() + SEARCH_TIMEOUT,
                file_ids_seen: HashSet::new(),
                pending_fetches: HashMap::new(),
                pier_done: false,
                trace: dht.current_trace_scope(),
            },
        );
        self.by_qid.insert(qid, id);
        Some(id)
    }

    /// Feed PIER client events (result stream + completion).
    pub fn on_pier_event(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, event: &PierEvent) {
        let (PierEvent::Results { qid, .. } | PierEvent::Done { qid, .. }) = event;
        let Some((id, s)) =
            self.by_qid.get(qid).and_then(|&id| Some((id, self.searches.get_mut(&id)?)))
        else {
            return;
        };
        match event {
            PierEvent::Results { tuples, .. } => s.fetch_items(dht, net, tuples),
            PierEvent::Done { outcome, .. } => {
                s.pier_done = true;
                s.outcome = Some(*outcome);
                if s.finish(net) {
                    self.events.push_back(SearchEvent::Done(id));
                }
            }
        }
    }

    /// Feed DHT events; returns true if this engine consumed the event.
    pub fn on_dht_event(
        &mut self,
        _dht: &mut DhtCore,
        net: &mut dyn DhtNet,
        event: &DhtEvent,
    ) -> bool {
        let DhtEvent::GetDone { op, values, .. } = event else {
            return false;
        };
        // Find which search issued this fetch, and retire the fetch.
        let Some((id, s, want)) = self.searches.iter_mut().find_map(|(&id, s)| {
            let want = s.pending_fetches.remove(op)?;
            Some((id, s, want))
        }) else {
            return false;
        };
        for bytes in values {
            let Ok(t) = Tuple::decode(bytes) else {
                net.count(crate::classes::MALFORMED_ITEM.id(), 1);
                continue;
            };
            let Some(rec) = ItemRecord::from_tuple(&t) else {
                net.count(crate::classes::MALFORMED_ITEM.id(), 1);
                continue;
            };
            if rec.file_id == want && !s.items.contains(&rec) {
                if s.first_result_at.is_none() {
                    s.first_result_at = Some(net.now());
                    net.observe(
                        crate::classes::FIRST_RESULT_LATENCY_S.id(),
                        (net.now() - s.issued_at).as_secs_f64(),
                    );
                }
                s.items.push(rec);
            }
        }
        if s.finish(net) {
            self.events.push_back(SearchEvent::Done(id));
        }
        true
    }

    /// Deadline sweep; call from the node tick.
    pub fn tick(&mut self, net: &mut dyn DhtNet) {
        let now = net.now();
        for (&id, s) in self.searches.iter_mut().filter(|(_, s)| !s.done && s.deadline <= now) {
            s.done = true;
            s.outcome.get_or_insert(QueryOutcome::TimedOut);
            net.count(crate::classes::SEARCH_TIMEOUT.id(), 1);
            self.events.push_back(SearchEvent::Done(id));
        }
    }
}
