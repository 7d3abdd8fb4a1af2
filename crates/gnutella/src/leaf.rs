//! The leaf node: shares files, publishes its QRP filter to its ultrapeers,
//! answers last-hop forwarded queries, and issues its own searches through
//! an ultrapeer.

use crate::files::FileStore;
use crate::msg::{GnutellaMsg, Hit};
use crate::net::GnutellaNet;
use pier_netsim::{NodeId, SimDuration, SimTime};
use pier_trace::{TraceHandle, TraceKind};
use pier_vocab::Terms;
use std::collections::BTreeMap;

/// How long a leaf waits for its ultrapeer's `done` before it ends a search
/// itself: longer than the stock dynamic query at the default degree,
/// (32 − 10 + 2) × `PROBE_INTERVAL` + a 0.4 s tick ≈ 58 s, and the hybrid's
/// fallback, its 30 s `timeout` + the engine's 60 s + ticks ≈ 92 s (unit
/// tests in both crates pin the margin).
pub const LEAF_SEARCH_DEADLINE: SimDuration = SimDuration::from_secs(120);

/// Results of one leaf-issued search.
#[derive(Clone, Debug)]
pub struct LeafSearch {
    pub terms: Terms,
    pub issued_at: SimTime,
    pub first_hit_at: Option<SimTime>,
    pub hits: Vec<Hit>,
    /// Whether the ultrapeer's `done` ended the search.
    pub done: bool,
    /// When the search ended, by `done` or by its deadline: set once, and
    /// nothing is merged after it.
    pub ended_at: Option<SimTime>,
}

impl pier_netsim::HeapSize for LeafSearch {
    fn heap_bytes(&self) -> usize {
        // `terms` is an `Arc`-shared payload, charged at its origin.
        self.hits.heap_bytes()
    }
}

/// The leaf protocol state machine. The home-ultrapeer list is a
/// `Box<[NodeId]>`: it is set once at wiring and never rewritten, so the
/// slimmer no-spare-capacity representation wins at hundreds of thousands
/// of leaves.
pub struct LeafCore {
    ultrapeers: Box<[NodeId]>,
    /// The share; its QRP table is a view of it ([`FileStore::qrp_view`]),
    /// so every connect, revival included, advertises the same table.
    store: FileStore,
    next_qid: u32,
    /// Keyed by the densely-allocated qid; a `BTreeMap` so the
    /// `searches()` driver API iterates in issue order.
    searches: BTreeMap<u32, LeafSearch>,
    /// Causal query tracing (inert unless the driver sampled queries).
    trace: TraceHandle,
}

impl LeafCore {
    pub fn new(store: FileStore) -> Self {
        LeafCore {
            ultrapeers: Box::default(),
            store,
            next_qid: 1,
            searches: BTreeMap::new(),
            trace: TraceHandle::default(),
        }
    }

    /// Attach the run's tracer (driver API; the default handle is inert).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    pub fn set_ultrapeers(&mut self, ups: Vec<NodeId>) {
        self.ultrapeers = ups.into_boxed_slice();
    }

    pub fn ultrapeers(&self) -> &[NodeId] {
        &self.ultrapeers
    }

    pub fn store(&self) -> &FileStore {
        &self.store
    }

    /// Publish the QRP table of our share to every ultrapeer (done on
    /// connect; the paper's leaves "publish \[their\] file list to those
    /// ultrapeers").
    pub fn publish_qrp(&self, net: &mut dyn GnutellaNet) {
        for &up in &self.ultrapeers {
            net.send(up, GnutellaMsg::QrpUpdate { view: self.store.qrp_view() });
        }
    }

    /// Issue a search via our first ultrapeer. Returns the local query id.
    pub fn start_search(&mut self, net: &mut dyn GnutellaNet, terms: impl Into<Terms>) -> u32 {
        let terms: Terms = terms.into();
        let qid = self.next_qid;
        self.next_qid += 1;
        self.searches.insert(
            qid,
            LeafSearch {
                terms: terms.clone(),
                issued_at: net.now(),
                first_hit_at: None,
                hits: Vec::new(),
                done: false,
                ended_at: None,
            },
        );
        if let Some(&up) = self.ultrapeers.first() {
            net.send(up, GnutellaMsg::LeafQuery { qid, terms });
        }
        qid
    }

    /// End every open search whose [`LEAF_SEARCH_DEADLINE`] has passed — or
    /// every open one, when the leaf goes `down` and its deadline timers
    /// with it — each counted once; a leaf with none writes no metric.
    pub fn expire(&mut self, net: &mut dyn GnutellaNet, down: bool) {
        let now = net.now();
        let mut ended = 0;
        for s in self.searches.values_mut().filter(|s| s.ended_at.is_none()) {
            if down || s.issued_at + LEAF_SEARCH_DEADLINE <= now {
                s.ended_at = Some(now);
                ended += 1;
            }
        }
        if ended > 0 {
            net.count(crate::classes::LEAF_SEARCH_TIMEOUT.id(), ended);
        }
    }

    pub fn search(&self, qid: u32) -> Option<&LeafSearch> {
        self.searches.get(&qid)
    }

    pub fn searches(&self) -> impl Iterator<Item = (u32, &LeafSearch)> {
        self.searches.iter().map(|(q, s)| (*q, s))
    }

    /// Heap accounting by subsystem (see `pier_netsim::Sim::mem_stats`).
    /// The shared catalog behind the store is *not* charged here; the id
    /// list is, once, though the leaf's ultrapeers' views share it.
    pub fn mem_stats(&self, acc: &mut pier_netsim::MemAcc) {
        use pier_netsim::HeapSize;
        acc.add("leaf.share", self.store.own_heap_bytes());
        acc.add("leaf.topology", self.ultrapeers.heap_bytes());
        acc.add("leaf.searches", self.searches.heap_bytes());
    }

    pub fn on_message(&mut self, net: &mut dyn GnutellaNet, from: NodeId, msg: GnutellaMsg) {
        match msg {
            GnutellaMsg::LeafForward { guid, terms } => {
                let hits: Vec<Hit> = self
                    .store
                    .matching(&terms)
                    .into_iter()
                    .map(|f| Hit { file: f.clone(), host: net.self_node() })
                    .collect();
                net.count(crate::classes::LEAF_MATCHES.id(), hits.len() as u64);
                self.trace.emit_guid(
                    guid.0,
                    net.now(),
                    net.self_node(),
                    TraceKind::LeafMatch,
                    Some(from),
                    hits.len() as u64,
                    0,
                );
                if !hits.is_empty() {
                    net.send(from, GnutellaMsg::LeafHits { guid, hits });
                }
            }
            // Results for a search never issued, or ended, are unexpected.
            GnutellaMsg::LeafResults { qid, hits, done } => match self.searches.get_mut(&qid) {
                Some(s) if s.ended_at.is_none() => {
                    if s.first_hit_at.is_none() && !hits.is_empty() {
                        s.first_hit_at = Some(net.now());
                    }
                    s.hits.extend(hits);
                    (s.done, s.ended_at) = (done, done.then(|| net.now()));
                }
                _ => net.count(crate::classes::UNEXPECTED_MSG.id(), 1),
            },
            GnutellaMsg::BrowseHost => {
                net.send(from, GnutellaMsg::BrowseHostReply { files: self.store.metas() });
            }
            _ => net.count(crate::classes::UNEXPECTED_MSG.id(), 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::QrpProbe;
    use crate::files::FileMeta;
    use crate::msg::Guid;
    use pier_netsim::{stream_rng, SimRng};

    struct FakeNet {
        now: SimTime,
        me: NodeId,
        rng: SimRng,
        sent: Vec<(NodeId, GnutellaMsg)>,
        unexpected: u64,
        timeouts: u64,
    }

    impl FakeNet {
        fn new(me: u32) -> Self {
            let (now, me, rng) = (SimTime::ZERO, NodeId::new(me), stream_rng(2, 0));
            FakeNet { now, me, rng, sent: vec![], unexpected: 0, timeouts: 0 }
        }
        fn drain(&mut self) -> Vec<(NodeId, GnutellaMsg)> {
            std::mem::take(&mut self.sent)
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
        fn count(&mut self, class: pier_netsim::MetricClass, n: u64) {
            if class == crate::classes::UNEXPECTED_MSG.id() {
                self.unexpected += n;
            } else if class == crate::classes::LEAF_SEARCH_TIMEOUT.id() {
                self.timeouts += n;
            }
        }
        fn observe(&mut self, _class: pier_netsim::MetricClass, _value: f64) {}
    }

    fn leaf_with_files() -> (LeafCore, FakeNet) {
        let store = FileStore::new(vec![
            FileMeta::new("led_zeppelin_iv.mp3", 1),
            FileMeta::new("cat_video.avi", 2),
        ]);
        let mut core = LeafCore::new(store);
        core.set_ultrapeers(vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
        (core, FakeNet::new(100))
    }

    #[test]
    fn qrp_published_to_all_ultrapeers() {
        let (core, mut net) = leaf_with_files();
        core.publish_qrp(&mut net);
        let sent = net.drain();
        assert_eq!(sent.len(), 3);
        let routes =
            |view: &crate::QrpView, q: &str| view.matches(&QrpProbe::with_defaults(&q.into()));
        for (_, m) in &sent {
            match m {
                GnutellaMsg::QrpUpdate { view } => {
                    assert!(routes(view, "zeppelin"));
                    assert!(routes(view, "cat"));
                    assert!(!routes(view, "floyd"));
                    assert!(view.is_view_of(core.store()), "a view, not a copy");
                }
                other => panic!("expected QrpUpdate, got {other:?}"),
            }
        }
    }

    #[test]
    fn forwarded_query_answered_with_matches() {
        let (mut core, mut net) = leaf_with_files();
        core.on_message(
            &mut net,
            NodeId::new(1),
            GnutellaMsg::LeafForward { guid: Guid(5), terms: "led zeppelin".into() },
        );
        let sent = net.drain();
        assert_eq!(sent.len(), 1);
        match &sent[0].1 {
            GnutellaMsg::LeafHits { guid, hits } => {
                assert_eq!(*guid, Guid(5));
                assert_eq!(hits.len(), 1);
                assert_eq!(hits[0].host, NodeId::new(100));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Non-matching forward: silence (no empty messages).
        core.on_message(
            &mut net,
            NodeId::new(1),
            GnutellaMsg::LeafForward { guid: Guid(6), terms: "floyd".into() },
        );
        assert!(net.drain().is_empty());
    }

    #[test]
    fn search_lifecycle() {
        let (mut core, mut net) = leaf_with_files();
        let qid = core.start_search(&mut net, "some song");
        let sent = net.drain();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].0, NodeId::new(1), "search goes to the first ultrapeer");
        // Streaming results arrive.
        let hit = Hit { file: FileMeta::new("some_song.mp3", 1), host: NodeId::new(7) };
        core.on_message(
            &mut net,
            NodeId::new(1),
            GnutellaMsg::LeafResults { qid, hits: vec![hit], done: false },
        );
        core.on_message(
            &mut net,
            NodeId::new(1),
            GnutellaMsg::LeafResults { qid, hits: vec![], done: true },
        );
        let s = core.search(qid).unwrap();
        assert_eq!(s.hits.len(), 1);
        assert!(s.done);
        assert_eq!(s.ended_at, Some(SimTime::ZERO));
        assert!(s.first_hit_at.is_some());
        // Its deadline passes it by.
        net.now = SimTime::ZERO + LEAF_SEARCH_DEADLINE;
        core.expire(&mut net, false);
        assert_eq!(core.search(qid).unwrap().ended_at, Some(SimTime::ZERO));
        assert_eq!(net.timeouts, 0);
    }

    fn results(qid: u32, done: bool) -> GnutellaMsg {
        let hit = Hit { file: FileMeta::new("some_song.mp3", 1), host: NodeId::new(7) };
        GnutellaMsg::LeafResults { qid, hits: vec![hit], done }
    }

    #[test]
    fn an_unanswered_search_ends_once_at_its_deadline() {
        let (mut core, mut net) = leaf_with_files();
        net.now = SimTime::from_micros(5);
        let qid = core.start_search(&mut net, "some song");
        let deadline = net.now + LEAF_SEARCH_DEADLINE;
        net.now = SimTime::from_micros(deadline.as_micros() - 1);
        core.expire(&mut net, false);
        assert_eq!(core.search(qid).unwrap().ended_at, None, "open until its deadline");
        net.now = deadline;
        core.expire(&mut net, false);
        let s = core.search(qid).unwrap();
        assert_eq!((s.done, s.ended_at), (false, Some(deadline)));
        net.now = deadline + LEAF_SEARCH_DEADLINE;
        core.expire(&mut net, false);
        core.expire(&mut net, true);
        assert_eq!(core.search(qid).unwrap().ended_at, Some(deadline));
        assert_eq!(net.timeouts, 1, "counted once");
    }

    #[test]
    fn results_for_an_ended_search_are_counted_not_merged() {
        let (mut core, mut net) = leaf_with_files();
        let answered = core.start_search(&mut net, "some song");
        let unanswered = core.start_search(&mut net, "some song");
        core.on_message(&mut net, NodeId::new(1), results(answered, true));
        net.now = SimTime::ZERO + LEAF_SEARCH_DEADLINE;
        core.expire(&mut net, false);
        for qid in [answered, unanswered] {
            core.on_message(&mut net, NodeId::new(1), results(qid, false));
            core.on_message(&mut net, NodeId::new(1), results(qid, true));
        }
        assert_eq!(net.unexpected, 4);
        let ends: Vec<_> =
            core.searches().map(|(_, s)| (s.hits.len(), s.done, s.ended_at)).collect();
        let deadline = Some(net.now);
        assert_eq!(ends, vec![(1, true, Some(SimTime::ZERO)), (0, false, deadline)]);
        assert_eq!(net.timeouts, 1);
    }

    #[test]
    fn going_down_ends_every_open_search() {
        let (mut core, mut net) = leaf_with_files();
        core.expire(&mut net, true);
        assert_eq!(net.timeouts, 0, "a leaf that never searched counts nothing");
        let answered = core.start_search(&mut net, "some song");
        core.on_message(&mut net, NodeId::new(1), results(answered, true));
        core.start_search(&mut net, "other song");
        core.start_search(&mut net, "third song");
        net.now = SimTime::from_micros(7);
        core.expire(&mut net, true);
        let ends: Vec<_> = core.searches().map(|(_, s)| (s.done, s.ended_at)).collect();
        let down = (false, Some(net.now));
        assert_eq!(ends, vec![(true, Some(SimTime::ZERO)), down, down]);
        assert_eq!(net.timeouts, 2);
    }

    /// The stock ultrapeer's dynamic query at the default degree finishes
    /// inside the leaf's deadline: its unprobed neighbours one
    /// `PROBE_INTERVAL` apart, two intervals of grace, and the tick that
    /// sees it.
    #[test]
    fn the_deadline_outlasts_the_stock_conversation() {
        let c = crate::UltrapeerConfig::default();
        let intervals = (c.up_neighbors - c.probe_neighbors + 2) as u64;
        let conversation = SimDuration::from_micros(
            intervals * crate::PROBE_INTERVAL.as_micros() + crate::UP_TICK_INTERVAL.as_micros(),
        );
        assert!(conversation < LEAF_SEARCH_DEADLINE, "{conversation:?}");
    }

    #[test]
    fn browse_host_returns_share() {
        let (mut core, mut net) = leaf_with_files();
        core.on_message(&mut net, NodeId::new(9), GnutellaMsg::BrowseHost);
        match &net.drain()[0].1 {
            GnutellaMsg::BrowseHostReply { files } => assert_eq!(files.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn results_for_a_search_never_issued_are_counted() {
        let (mut core, mut net) = leaf_with_files();
        let hit = Hit { file: FileMeta::new("some_song.mp3", 1), host: NodeId::new(7) };
        let stray = GnutellaMsg::LeafResults { qid: 9, hits: vec![hit], done: true };
        core.on_message(&mut net, NodeId::new(1), stray);
        assert_eq!(net.unexpected, 1);
        assert_eq!(core.searches().count(), 0);
    }
}
