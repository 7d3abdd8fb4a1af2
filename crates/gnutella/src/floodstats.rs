//! Flood-overhead analysis over a crawled topology — the computation behind
//! Figure 8 of the paper (ultrapeers visited vs. query messages, showing the
//! diminishing returns of increasing the search horizon).
//!
//! The analysis mirrors the paper's: flooding with duplicate *processing*
//! suppressed, but every transmitted message counted — a node that already
//! saw the query still receives (and pays for) copies arriving over
//! redundant paths.

use crate::crawl::CrawlGraph;
use pier_netsim::NodeId;
use std::collections::{btree_map, BTreeMap};

/// One point per TTL on the Figure-8 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FloodPoint {
    pub ttl: u32,
    /// Cumulative query messages transmitted up to this TTL.
    pub messages: u64,
    /// Distinct ultrapeers that have received the query.
    pub ups_reached: u64,
}

/// Flood-cost curve from one starting ultrapeer.
///
/// BFS by hop count: a node first reached at depth `d` forwards to all
/// neighbors except the link it came from, provided `d < ttl`. Messages are
/// counted per transmission (duplicates included); nodes process a query
/// only once.
pub fn flood_curve(graph: &CrawlGraph, start: NodeId, max_ttl: u32) -> Vec<FloodPoint> {
    let mut depth: BTreeMap<NodeId, u32> = BTreeMap::new();
    depth.insert(start, 0);
    let mut frontier = vec![start];
    let mut points = Vec::with_capacity(max_ttl as usize);
    let mut messages = 0u64;

    for ttl in 1..=max_ttl {
        let mut next = Vec::new();
        for &node in &frontier {
            let Some(neighbors) = graph.adj.get(&node) else {
                continue;
            };
            // The origin sends to all neighbors; relays send degree-1
            // copies (not back where it came from).
            let sends =
                if node == start { neighbors.len() } else { neighbors.len().saturating_sub(1) };
            messages += sends as u64;
            for &n in neighbors {
                if let btree_map::Entry::Vacant(e) = depth.entry(n) {
                    e.insert(ttl);
                    next.push(n);
                }
            }
        }
        points.push(FloodPoint { ttl, messages, ups_reached: depth.len() as u64 });
        frontier = next;
        if frontier.is_empty() {
            // Network exhausted: remaining TTLs add nothing.
            for t in (ttl + 1)..=max_ttl {
                points.push(FloodPoint { ttl: t, messages, ups_reached: depth.len() as u64 });
            }
            break;
        }
    }
    points
}

/// Average the curves from several starting points (the paper averages over
/// query injections from its vantage ultrapeers).
pub fn average_flood_curve(graph: &CrawlGraph, starts: &[NodeId], max_ttl: u32) -> Vec<FloodPoint> {
    assert!(!starts.is_empty());
    let curves: Vec<Vec<FloodPoint>> =
        starts.iter().map(|s| flood_curve(graph, *s, max_ttl)).collect();
    (0..max_ttl as usize)
        .map(|i| {
            let (mut msg_sum, mut up_sum) = (0u64, 0u64);
            for c in &curves {
                msg_sum += c[i].messages;
                up_sum += c[i].ups_reached;
            }
            FloodPoint {
                ttl: (i + 1) as u32,
                messages: msg_sum / curves.len() as u64,
                ups_reached: up_sum / curves.len() as u64,
            }
        })
        .collect()
}

/// Marginal cost per additional ultrapeer between consecutive TTLs —
/// the "diminishing returns" series quoted in §4.3 (48K messages for the
/// first 9,000 ultrapeers, 94K more for the next 9,000).
pub fn marginal_cost(curve: &[FloodPoint]) -> Vec<f64> {
    curve
        .windows(2)
        .map(|w| {
            let dm = (w[1].messages - w[0].messages) as f64;
            let du = (w[1].ups_reached - w[0].ups_reached) as f64;
            if du > 0.0 {
                dm / du
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small graph with redundant paths: a 4-cycle with a chord plus a
    /// tail. Redundancy is what produces duplicate messages.
    fn diamond_graph() -> CrawlGraph {
        let n = NodeId::new;
        let mut g = CrawlGraph::default();
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (3, 4)];
        let mut adj: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for (a, b) in edges {
            adj.entry(n(a)).or_default().push(n(b));
            adj.entry(n(b)).or_default().push(n(a));
        }
        g.adj = adj;
        g
    }

    #[test]
    fn curve_counts_duplicates_but_reaches_everyone() {
        let g = diamond_graph();
        let curve = flood_curve(&g, NodeId::new(0), 4);
        // TTL1: origin sends deg(0)=2 messages, reaches {0,1,2}.
        assert_eq!(curve[0], FloodPoint { ttl: 1, messages: 2, ups_reached: 3 });
        // TTL2: nodes 1 and 2 each send deg-1 = 2 messages (to each other —
        // duplicates — and to 3): +4 messages, reach {0,1,2,3}.
        assert_eq!(curve[1].messages, 6);
        assert_eq!(curve[1].ups_reached, 4);
        // TTL3: node 3 relays to 1,2 (dups) and 4: +... deg(3)=3, minus
        // arrival link = 2 sends... node 3 has neighbors {1,2,4}: sends 2.
        assert_eq!(curve[2].ups_reached, 5, "tail node reached at TTL 3");
        // Monotonicity.
        for w in curve.windows(2) {
            assert!(w[1].messages >= w[0].messages);
            assert!(w[1].ups_reached >= w[0].ups_reached);
        }
    }

    #[test]
    fn exhausted_network_plateaus() {
        let g = diamond_graph();
        let curve = flood_curve(&g, NodeId::new(0), 10);
        assert_eq!(curve.len(), 10);
        assert_eq!(curve[9].ups_reached, 5);
        assert_eq!(curve[4].messages, curve[9].messages, "no messages after exhaustion");
    }

    #[test]
    fn marginal_cost_rises_with_ttl_on_realistic_topology() {
        // Diminishing returns needs real path redundancy: use a generated
        // ultrapeer graph (mixed 32/6-degree profiles) like the crawled one.
        let topo = crate::topology::Topology::generate(&crate::topology::TopologyConfig {
            ultrapeers: 400,
            leaves: 0,
            old_style_fraction: 0.3,
            leaf_ups: 1,
            seed: 4,
        });
        let mut g = CrawlGraph::default();
        for (i, neighbors) in topo.up_adjacency().into_iter().enumerate() {
            g.adj.insert(
                NodeId::new(i as u32),
                neighbors.into_iter().map(|n| NodeId::new(n as u32)).collect(),
            );
        }
        let curve = flood_curve(&g, NodeId::new(0), 6);
        let mc = marginal_cost(&curve);
        let finite: Vec<f64> = mc.into_iter().filter(|c| c.is_finite()).collect();
        assert!(finite.len() >= 2, "need at least two expansion steps");
        assert!(
            finite.last().unwrap() > finite.first().unwrap(),
            "cost per newly reached ultrapeer must grow: {finite:?}"
        );
    }

    #[test]
    fn average_is_between_extremes() {
        let g = diamond_graph();
        let c0 = flood_curve(&g, NodeId::new(0), 3);
        let c4 = flood_curve(&g, NodeId::new(4), 3);
        let avg = average_flood_curve(&g, &[NodeId::new(0), NodeId::new(4)], 3);
        for i in 0..3 {
            let lo = c0[i].messages.min(c4[i].messages);
            let hi = c0[i].messages.max(c4[i].messages);
            assert!(avg[i].messages >= lo && avg[i].messages <= hi);
        }
    }
}
