//! The topology crawler: a parallel BFS over ultrapeer neighbor lists, the
//! counterpart of the paper's 45-minute, 100,000-node crawl (§4.1).

use crate::msg::GnutellaMsg;
use pier_netsim::{Actor, Ctx, NodeId, SimDuration, SimTime, TimerToken};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

const CRAWL_TICK: TimerToken = TimerToken(0xC4A1);

/// The crawled snapshot.
#[derive(Clone, Debug, Default)]
pub struct CrawlGraph {
    /// Ultrapeer → its ultrapeer neighbors.
    pub adj: BTreeMap<NodeId, Vec<NodeId>>,
    /// Ultrapeer → its leaves.
    pub leaves: BTreeMap<NodeId, Vec<NodeId>>,
}

impl CrawlGraph {
    pub fn ultrapeer_count(&self) -> usize {
        self.adj.len()
    }

    pub fn leaf_count(&self) -> usize {
        let distinct: BTreeSet<NodeId> = self.leaves.values().flatten().copied().collect();
        distinct.len()
    }

    /// Total network size estimate (ultrapeers + distinct leaves).
    pub fn network_size(&self) -> usize {
        self.ultrapeer_count() + self.leaf_count()
    }

    /// Degree histogram of the ultrapeer graph.
    pub fn degree_counts(&self) -> BTreeMap<usize, usize> {
        let mut h = BTreeMap::new();
        for neighbors in self.adj.values() {
            *h.entry(neighbors.len()).or_insert(0) += 1;
        }
        h
    }
}

/// A crawler actor: seed it with known ultrapeers, run the simulation until
/// [`Crawler::done`], read [`Crawler::graph`].
pub struct Crawler {
    seeds: Vec<NodeId>,
    max_inflight: usize,
    rpc_timeout: SimDuration,
    queue: VecDeque<NodeId>,
    pending: BTreeMap<NodeId, SimTime>,
    visited: BTreeSet<NodeId>,
    pub graph: CrawlGraph,
    pub started_at: SimTime,
    pub finished_at: Option<SimTime>,
}

impl Crawler {
    pub fn new(seeds: Vec<NodeId>, max_inflight: usize) -> Self {
        Crawler {
            seeds,
            max_inflight,
            rpc_timeout: SimDuration::from_secs(5),
            queue: VecDeque::new(),
            pending: BTreeMap::new(),
            visited: BTreeSet::new(),
            graph: CrawlGraph::default(),
            started_at: SimTime::ZERO,
            finished_at: None,
        }
    }

    pub fn done(&self) -> bool {
        self.finished_at.is_some()
    }

    fn pump(&mut self, ctx: &mut dyn Ctx<GnutellaMsg>) {
        while self.pending.len() < self.max_inflight {
            let Some(next) = self.queue.pop_front() else {
                break;
            };
            self.pending.insert(next, ctx.now() + self.rpc_timeout);
            let msg = GnutellaMsg::CrawlPing;
            let size = msg.wire_size();
            ctx.send(next, msg, size, crate::classes::CRAWL_PING.id());
        }
        if self.pending.is_empty() && self.queue.is_empty() && self.finished_at.is_none() {
            self.finished_at = Some(ctx.now());
            ctx.observe(
                crate::classes::CRAWL_DURATION_S.id(),
                (ctx.now() - self.started_at).as_secs_f64(),
            );
        }
    }
}

impl Actor<GnutellaMsg> for Crawler {
    fn on_start(&mut self, ctx: &mut dyn Ctx<GnutellaMsg>) {
        self.started_at = ctx.now();
        let seeds = self.seeds.clone();
        for s in seeds {
            if self.visited.insert(s) {
                self.queue.push_back(s);
            }
        }
        ctx.set_timer(SimDuration::from_millis(500), CRAWL_TICK);
        self.pump(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Ctx<GnutellaMsg>, from: NodeId, msg: GnutellaMsg) {
        if let GnutellaMsg::CrawlPong { neighbors, leaves } = msg {
            self.pending.remove(&from);
            for n in &neighbors {
                if self.visited.insert(*n) {
                    self.queue.push_back(*n);
                }
            }
            self.graph.adj.insert(from, neighbors);
            self.graph.leaves.insert(from, leaves);
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx<GnutellaMsg>, token: TimerToken) {
        if token != CRAWL_TICK {
            return;
        }
        // Expire unresponsive nodes (down ultrapeers) so the crawl finishes.
        let now = ctx.now();
        self.pending.retain(|_, deadline| *deadline > now);
        self.pump(ctx);
        if self.finished_at.is_none() {
            ctx.set_timer(SimDuration::from_millis(500), CRAWL_TICK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::files::FileMeta;
    use crate::topology::{spawn, Topology, TopologyConfig};
    use pier_netsim::{ConstantLatency, Sim, SimConfig};

    fn crawl_network(ups: usize, leaves: usize) -> (Sim<GnutellaMsg>, NodeId, usize) {
        let cfg = SimConfig::with_seed(77).latency(ConstantLatency(SimDuration::from_millis(30)));
        let mut sim = Sim::new(cfg);
        let topo = Topology::generate(&TopologyConfig {
            ultrapeers: ups,
            leaves,
            old_style_fraction: 0.3,
            leaf_ups: 2,
            seed: 9,
        });
        let up_files = vec![Vec::<FileMeta>::new(); ups];
        let leaf_files = vec![Vec::<FileMeta>::new(); leaves];
        let handles = spawn(&mut sim, &topo, up_files, leaf_files);
        let crawler = sim.add_node(Crawler::new(vec![handles.ups[0]], 50));
        (sim, crawler, ups)
    }

    #[test]
    fn crawl_discovers_whole_network() {
        let (mut sim, crawler, ups) = crawl_network(60, 600);
        sim.run_for(SimDuration::from_secs(60));
        let c = sim.actor::<Crawler>(crawler);
        assert!(c.done(), "crawl must finish");
        assert_eq!(c.graph.ultrapeer_count(), ups);
        assert_eq!(c.graph.leaf_count(), 600);
        assert_eq!(c.graph.network_size(), 660);
    }

    #[test]
    fn crawl_survives_down_ultrapeers() {
        let (mut sim, crawler, ups) = crawl_network(60, 300);
        // Take down a few ultrapeers before the crawl reaches them.
        sim.set_down(NodeId::new(5));
        sim.set_down(NodeId::new(17));
        sim.run_for(SimDuration::from_secs(120));
        let c = sim.actor::<Crawler>(crawler);
        assert!(c.done(), "crawl must finish despite dead nodes");
        // The dead nodes appear as neighbors but answer nothing.
        assert!(c.graph.ultrapeer_count() >= ups - 2 - 5);
        assert!(c.graph.ultrapeer_count() <= ups - 2);
    }

    #[test]
    fn degree_counts_reflect_profiles() {
        let (mut sim, crawler, _) = crawl_network(80, 200);
        sim.run_for(SimDuration::from_secs(60));
        let c = sim.actor::<Crawler>(crawler);
        let degrees = c.graph.degree_counts();
        // Old-style ultrapeers have ~6 neighbors, new-style ~32; the
        // histogram must be bimodal-ish: some low-degree, some high-degree.
        let low: usize = degrees.iter().filter(|(d, _)| **d <= 10).map(|(_, c)| c).sum();
        let high: usize = degrees.iter().filter(|(d, _)| **d > 20).map(|(_, c)| c).sum();
        assert!(low > 0, "expected old-style low-degree ultrapeers");
        assert!(high > 0, "expected new-style high-degree ultrapeers");
    }
}
