//! The Search Engine (§3.2): compiles keyword queries into PIER plans,
//! collects the matching fileIDs, and fetches the Item tuples from the DHT.
//!
//! A search is keyed by its PIER [`QueryId`], and every item fetch in
//! flight lives in one engine-wide table. Each matched fileID ends once:
//! as an item, or counted in `piersearch.unresolved_match` (its fetch
//! found no Item, or the search timed out first). A search's one
//! [`SearchEvent::Done`] freezes it.

use crate::publisher::IndexMode;
use crate::schema::{inverted_cache_table, inverted_table, item_table, ItemRecord};
use pier_dht::{DhtCore, DhtEvent, DhtNet, Key, OpId};
use pier_netsim::keyed::KeyedSet;
use pier_netsim::{SimDuration, SimTime};
use pier_qp::{Expr, JoinChainBuilder, JoinCols, PierCore, PierEvent, QueryId, Tuple, Value};
use pier_vocab::{policy, text, Terms};
use std::collections::{BTreeMap, VecDeque};

/// Hard deadline for a search (covers plan execution + item fetches).
pub const SEARCH_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// State of one search.
#[derive(Debug)]
pub struct SearchState {
    pub issued_at: SimTime,
    /// When the first complete result (Item tuple) arrived.
    pub first_result_at: Option<SimTime>,
    pub items: Vec<ItemRecord>,
    /// Set by the search's one `Done`; nothing changes the search after.
    pub done: bool,
    deadline: SimTime,
    /// Every distinct fileID the plan matched.
    matched: KeyedSet<Key>,
    /// What the search still waits for: PIER's `Done`, counted as one, and
    /// one per item fetch in flight.
    waiting: usize,
    /// The `DhtCore` trace scope (a `pier_trace::TraceId`) open when the
    /// search started; its item fetches are attributed to it as well.
    trace: Option<u32>,
}

/// Search lifecycle notifications.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchEvent {
    /// The search with this id finished (inspect via [`SearchEngine::search`]).
    Done(QueryId),
}

/// The per-node search engine.
pub struct SearchEngine {
    /// Which index the node's publishers populate, and hence which plan
    /// shape to use (Fig. 2 join chain vs. Fig. 3 single-site filter).
    mode: IndexMode,
    searches: BTreeMap<QueryId, SearchState>,
    /// Item fetches in flight: the search that issued each, and the fileID
    /// it resolves.
    fetches: BTreeMap<OpId, (QueryId, Key)>,
    events: VecDeque<SearchEvent>,
}

impl SearchEngine {
    pub fn new(mode: IndexMode) -> Self {
        SearchEngine {
            mode,
            searches: BTreeMap::new(),
            fetches: BTreeMap::new(),
            events: VecDeque::new(),
        }
    }

    pub fn take_events(&mut self) -> Vec<SearchEvent> {
        self.events.drain(..).collect()
    }

    pub fn search(&self, id: QueryId) -> Option<&SearchState> {
        self.searches.get(&id)
    }

    /// Remove a finished search and return its state.
    pub fn take_search(&mut self, id: QueryId) -> Option<SearchState> {
        self.searches.remove(&id)
    }

    /// No item fetch in flight and every search done (a test observer, like
    /// `PierCore::is_idle`).
    pub fn is_idle(&self) -> bool {
        self.fetches.is_empty() && self.searches.values().all(|s| s.done)
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
    ) -> Option<QueryId> {
        let query: Terms = query.into();
        let terms = policy::filter_indexable(query.ids());
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
        self.searches.insert(
            qid,
            SearchState {
                issued_at: net.now(),
                first_result_at: None,
                items: Vec::new(),
                done: false,
                deadline: net.now() + SEARCH_TIMEOUT,
                matched: KeyedSet::new(),
                waiting: 1,
                trace: dht.current_trace_scope(),
            },
        );
        Some(qid)
    }

    /// Feed PIER client events: each result batch fetches the Item tuples
    /// of its newly matched fileIDs ("the query node... fetches the Item
    /// tuples from the DHT based on the incoming fileIDs"); `Done` ends the
    /// plan.
    pub fn on_pier_event(&mut self, dht: &mut DhtCore, net: &mut dyn DhtNet, event: &PierEvent) {
        let (PierEvent::Results { qid, .. } | PierEvent::Done { qid, .. }) = *event;
        let Some(s) = self.searches.get_mut(&qid).filter(|s| !s.done) else {
            return;
        };
        let PierEvent::Results { tuples, .. } = event else {
            s.waiting -= 1;
            return self.finish(net, qid);
        };
        if let Some(scope) = s.trace {
            dht.trace_scope(scope);
        }
        let item = item_table();
        for t in tuples {
            let Some(file_id) = t.get(0).and_then(|v| v.as_key()) else {
                net.count(crate::classes::MALFORMED_MATCH.id(), 1);
                continue;
            };
            if s.matched.insert(file_id) {
                let op = dht.get(net, item.publish_key_for(&Value::Key(file_id)));
                self.fetches.insert(op, (qid, file_id));
                s.waiting += 1;
            } // else a duplicate match (replica or rehash overlap)
        }
        if s.trace.is_some() {
            dht.clear_trace_scope();
        }
    }

    /// Feed DHT events: a `GetDone` ends one item fetch, with the item or
    /// as an unresolved match.
    pub fn on_dht_event(&mut self, net: &mut dyn DhtNet, event: &DhtEvent) {
        let DhtEvent::GetDone { op, values, .. } = event else {
            return;
        };
        // A fetch leaves the table when it ends or its search times out, so
        // one found here belongs to a live search.
        let Some((qid, want)) = self.fetches.remove(op) else {
            return;
        };
        let Some(s) = self.searches.get_mut(&qid) else {
            return; // taken before it finished
        };
        let mut item = None;
        for bytes in values {
            match Tuple::decode(bytes).ok().and_then(|t| ItemRecord::from_tuple(&t)) {
                Some(rec) if rec.file_id == want => item = item.or(Some(rec)),
                Some(_) => {}
                None => net.count(crate::classes::MALFORMED_ITEM.id(), 1),
            }
        }
        match item {
            Some(rec) => {
                if s.first_result_at.is_none() {
                    s.first_result_at = Some(net.now());
                    let latency = (net.now() - s.issued_at).as_secs_f64();
                    net.observe(crate::classes::FIRST_RESULT_LATENCY_S.id(), latency);
                }
                s.items.push(rec);
            }
            None => net.count(crate::classes::UNRESOLVED_MATCH.id(), 1),
        }
        s.waiting -= 1;
        self.finish(net, qid);
    }

    /// Report `qid` done once PIER has finished and every fetch has
    /// returned.
    fn finish(&mut self, net: &mut dyn DhtNet, qid: QueryId) {
        let Some(s) = self.searches.get_mut(&qid).filter(|s| s.waiting == 0) else {
            return;
        };
        s.done = true;
        net.observe(crate::classes::RESULTS_PER_SEARCH.id(), s.items.len() as f64);
        self.events.push_back(SearchEvent::Done(qid));
    }

    /// Deadline sweep; call from the node tick. A search that times out
    /// drops its fetches in flight, each counted as an unresolved match.
    pub fn tick(&mut self, net: &mut dyn DhtNet) {
        let now = net.now();
        let mut timed_out = Vec::new();
        for (&qid, s) in self.searches.iter_mut().filter(|(_, s)| !s.done && s.deadline <= now) {
            s.done = true;
            net.count(crate::classes::SEARCH_TIMEOUT.id(), 1);
            self.events.push_back(SearchEvent::Done(qid));
            timed_out.push(qid);
        }
        if !timed_out.is_empty() {
            let before = self.fetches.len();
            self.fetches.retain(|_, (qid, _)| !timed_out.contains(qid));
            net.count(crate::classes::UNRESOLVED_MATCH.id(), (before - self.fetches.len()) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_dht::{Contact, DhtConfig, DhtMsg};
    use pier_netsim::{stream_rng, MetricClass, NodeId, SimRng};
    use std::collections::BTreeMap;

    /// A net that swallows what is sent and keeps the counters.
    struct CountingNet {
        now: SimTime,
        rng: SimRng,
        counts: BTreeMap<MetricClass, u64>,
    }

    impl DhtNet for CountingNet {
        fn now(&self) -> SimTime {
            self.now
        }
        fn self_node(&self) -> NodeId {
            NodeId::new(0)
        }
        fn rng(&mut self) -> &mut SimRng {
            &mut self.rng
        }
        fn send_dht(&mut self, _dst: NodeId, _msg: DhtMsg) {}
        fn count(&mut self, class: MetricClass, n: u64) {
            *self.counts.entry(class).or_default() += n;
        }
        fn observe(&mut self, _class: MetricClass, _value: f64) {}
    }

    /// A search's `Done` freezes it: an item fetch answered after the
    /// search timed out adds no item and no first result, its match is
    /// counted unresolved once (at the timeout), and no second `Done`
    /// follows. A late PIER batch issues no fetch either.
    #[test]
    fn a_fetch_answered_after_the_timeout_changes_nothing() {
        let mut dht = DhtCore::new(DhtConfig::test(), Contact::for_node(NodeId::new(0)));
        dht.table_mut().observe(Contact::for_node(NodeId::new(1)), SimTime::ZERO);
        let mut pier = PierCore::new(crate::schema::catalog());
        let mut engine = SearchEngine::new(IndexMode::Inverted);
        let mut net =
            CountingNet { now: SimTime::ZERO, rng: stream_rng(0, 0), counts: BTreeMap::new() };
        let qid = engine.start_search(&mut pier, &mut dht, &mut net, "rare bootleg").unwrap();
        let rec = ItemRecord::new("rare_bootleg.mp3", 1, NodeId::new(1), 6346);
        let matched = |f: Key| vec![Tuple::new(vec![Value::Key(f)])];
        let results = PierEvent::Results { qid, tuples: matched(rec.file_id) };
        engine.on_pier_event(&mut dht, &mut net, &results);
        let (&op, _) = engine.fetches.first_key_value().expect("the item fetch is in flight");

        net.now += SEARCH_TIMEOUT;
        engine.tick(&mut net);
        assert_eq!(engine.take_events(), vec![SearchEvent::Done(qid)]);
        assert!(engine.is_idle(), "the timeout drops the fetch");

        let key = item_table().publish_key_for(&Value::Key(rec.file_id));
        let late = DhtEvent::GetDone { op, key, values: vec![rec.to_tuple().encode()], holders: 1 };
        engine.on_dht_event(&mut net, &late);
        let other = ItemRecord::new("rare_bootleg_live.mp3", 2, NodeId::new(1), 6346);
        let results = PierEvent::Results { qid, tuples: matched(other.file_id) };
        engine.on_pier_event(&mut dht, &mut net, &results);

        let s = engine.search(qid).unwrap();
        assert!(s.done && s.items.is_empty() && s.first_result_at.is_none());
        assert!(engine.take_events().is_empty(), "one Done per search");
        assert!(engine.is_idle(), "a late batch issues no fetch");
        let count = |c: &pier_netsim::LazyMetricClass| net.counts.get(&c.id()).copied();
        assert_eq!(count(&crate::classes::SEARCH_TIMEOUT), Some(1));
        assert_eq!(count(&crate::classes::UNRESOLVED_MATCH), Some(1));
    }
}
