//! The leaf node: shares files, publishes its QRP filter to its ultrapeers,
//! answers last-hop forwarded queries, and issues its own searches through
//! an ultrapeer.

use crate::bloom::QrpFilter;
use crate::files::FileStore;
use crate::msg::{GnutellaMsg, Hit};
use crate::net::GnutellaNet;
use pier_netsim::{NodeId, SimTime};
use pier_trace::{TraceHandle, TraceKind};
use pier_vocab::Terms;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Results of one leaf-issued search.
#[derive(Clone, Debug)]
pub struct LeafSearch {
    pub terms: Terms,
    pub issued_at: SimTime,
    pub first_hit_at: Option<SimTime>,
    pub hits: Vec<Hit>,
    pub done: bool,
}

impl pier_netsim::HeapSize for LeafSearch {
    fn heap_bytes(&self) -> usize {
        // `terms` is an `Arc`-shared payload, charged at its origin.
        self.hits.heap_bytes()
    }
}

/// The leaf protocol state machine. The home-ultrapeer list is a
/// `Box<[NodeId]>`: it is set once at spawn and only rebuilt on (rare)
/// churn repair, so the slimmer no-spare-capacity representation wins at
/// hundreds of thousands of leaves.
pub struct LeafCore {
    ultrapeers: Box<[NodeId]>,
    store: FileStore,
    /// The share's QRP filter, built lazily on first publish and interned
    /// in the process-wide [`crate::qrp_catalog`]. The share is immutable,
    /// so connect and churn re-attachment advertise one canonical copy.
    qrp: Option<Arc<QrpFilter>>,
    next_qid: u32,
    /// Keyed by the densely-allocated qid; a `BTreeMap` so the
    /// `searches()` driver API iterates in issue order, never in
    /// hasher order (pier-lint DET-ITER).
    searches: BTreeMap<u32, LeafSearch>,
    /// Causal query tracing (inert unless the driver sampled queries).
    trace: TraceHandle,
}

impl LeafCore {
    pub fn new(store: FileStore) -> Self {
        LeafCore {
            ultrapeers: Box::default(),
            store,
            qrp: None,
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

    /// Topology repair: swap a dead home ultrapeer for a live replacement,
    /// keeping slot order (slot 0 is the query path). Returns whether the
    /// dead ultrapeer was actually a home.
    pub fn replace_ultrapeer(&mut self, dead: NodeId, replacement: NodeId) -> bool {
        if self.ultrapeers.contains(&replacement) {
            // Already connected: just drop the dead entry.
            let before = self.ultrapeers.len();
            self.ultrapeers = self.ultrapeers.iter().copied().filter(|&u| u != dead).collect();
            return self.ultrapeers.len() != before;
        }
        match self.ultrapeers.iter_mut().find(|u| **u == dead) {
            Some(slot) => {
                *slot = replacement;
                true
            }
            None => false,
        }
    }

    /// Push the share's QRP filter to one ultrapeer (re-attachment path;
    /// the full-broadcast [`LeafCore::publish_qrp`] runs on connect).
    pub fn publish_qrp_to(&mut self, net: &mut dyn GnutellaNet, up: NodeId) {
        let filter = Arc::clone(self.qrp_filter());
        net.send(up, GnutellaMsg::QrpUpdate { filter });
    }

    pub fn store(&self) -> &FileStore {
        &self.store
    }

    /// The share's QRP filter (one builder for connect and re-attachment,
    /// so the two paths can never advertise different filters), resolved
    /// through the process-wide catalog and cached.
    fn qrp_filter(&mut self) -> &Arc<QrpFilter> {
        if self.qrp.is_none() {
            let mut filter = QrpFilter::with_defaults();
            filter.insert_ids(self.store.all_tokens());
            self.qrp = Some(crate::qrp_catalog::intern(filter));
        }
        self.qrp.as_ref().expect("just built")
    }

    /// Publish the QRP filter of our share to every ultrapeer (done on
    /// connect; the paper's leaves "publish \[their\] file list to those
    /// ultrapeers").
    pub fn publish_qrp(&mut self, net: &mut dyn GnutellaNet) {
        let shared = Arc::clone(self.qrp_filter());
        for &up in &self.ultrapeers {
            net.send(up, GnutellaMsg::QrpUpdate { filter: Arc::clone(&shared) });
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
            },
        );
        if let Some(&up) = self.ultrapeers.first() {
            net.send(up, GnutellaMsg::LeafQuery { qid, terms });
        }
        qid
    }

    pub fn search(&self, qid: u32) -> Option<&LeafSearch> {
        self.searches.get(&qid)
    }

    pub fn searches(&self) -> impl Iterator<Item = (u32, &LeafSearch)> {
        self.searches.iter().map(|(q, s)| (*q, s))
    }

    /// Heap accounting by subsystem (see `pier_netsim::Sim::mem_stats`).
    /// The shared catalog behind the store is *not* charged here, and
    /// neither is the cached `qrp` filter — it is interned in the
    /// process-wide `qrp_catalog`, which charges each distinct filter once.
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
            GnutellaMsg::LeafResults { qid, hits, done } => {
                if let Some(s) = self.searches.get_mut(&qid) {
                    if s.first_hit_at.is_none() && !hits.is_empty() {
                        s.first_hit_at = Some(net.now());
                    }
                    s.hits.extend(hits);
                    s.done |= done;
                }
            }
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
    use crate::files::FileMeta;
    use crate::msg::Guid;
    use pier_netsim::{stream_rng, SimRng};

    struct FakeNet {
        now: SimTime,
        me: NodeId,
        rng: SimRng,
        sent: Vec<(NodeId, GnutellaMsg)>,
    }

    impl FakeNet {
        fn new(me: u32) -> Self {
            FakeNet { now: SimTime::ZERO, me: NodeId::new(me), rng: stream_rng(2, 0), sent: vec![] }
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
        fn count(&mut self, _class: pier_netsim::MetricClass, _n: u64) {}
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
        let (mut core, mut net) = leaf_with_files();
        core.publish_qrp(&mut net);
        let sent = net.drain();
        assert_eq!(sent.len(), 3);
        for (_, m) in &sent {
            match m {
                GnutellaMsg::QrpUpdate { filter } => {
                    assert!(filter.contains("zeppelin"));
                    assert!(filter.contains("cat"));
                    assert!(!filter.contains("floyd"));
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
        assert!(s.first_hit_at.is_some());
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
}
