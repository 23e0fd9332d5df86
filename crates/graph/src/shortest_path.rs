//! Weighted shortest paths (Dijkstra).
//!
//! Edge weights in coauthorship graphs measure *strength* (joint
//! publications), so for routing-style queries the cost of an edge is taken
//! as `1 / weight` scaled to integers — strong ties are cheap to traverse.
//! A general Dijkstra over per-edge costs is provided; the trust-distance
//! convenience wrapper implements the inverse-strength convention.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{Graph, NodeId};

/// Dijkstra with a per-edge cost function. Returns `(dist, parent)`:
/// `dist[v]` is `None` for unreachable nodes, `parent[v]` reconstructs one
/// shortest path tree.
///
/// `cost(a, b, w)` must be non-negative.
pub fn dijkstra<F>(g: &Graph, src: NodeId, mut cost: F) -> (Vec<Option<u64>>, Vec<Option<NodeId>>)
where
    F: FnMut(NodeId, NodeId, u32) -> u64,
{
    let n = g.node_count();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    if src.index() >= n {
        return (dist, parent);
    }
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[src.index()] = Some(0);
    heap.push(Reverse((0, src.0)));
    while let Some(Reverse((d, v))) = heap.pop() {
        let v = NodeId(v);
        if dist[v.index()] != Some(d) {
            continue; // stale entry
        }
        for e in g.neighbors(v) {
            let c = cost(v, e.to, e.weight);
            let nd = d.saturating_add(c);
            if dist[e.to.index()].map(|old| nd < old).unwrap_or(true) {
                dist[e.to.index()] = Some(nd);
                parent[e.to.index()] = Some(v);
                heap.push(Reverse((nd, e.to.0)));
            }
        }
    }
    (dist, parent)
}

/// Reconstruct the path `src → dst` from a parent table. Returns `None` if
/// `dst` is unreachable.
pub fn reconstruct_path(
    parent: &[Option<NodeId>],
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<NodeId>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = parent.get(cur.index()).copied().flatten() {
        path.push(p);
        if p == src {
            path.reverse();
            return Some(path);
        }
        cur = p;
    }
    None
}

/// Trust-distance Dijkstra: edge cost `SCALE / weight` so repeat
/// collaborations are cheaper to traverse. Stronger ties → shorter trust
/// distance.
pub fn trust_distances(g: &Graph, src: NodeId) -> Vec<Option<u64>> {
    const SCALE: u64 = 1000;
    dijkstra(g, src, |_, _, w| SCALE / u64::from(w.max(1))).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn unit_cost(_: NodeId, _: NodeId, _: u32) -> u64 {
        1
    }

    #[test]
    fn matches_bfs_on_unit_costs() {
        let g = crate::generators::erdos_renyi(40, 0.1, 5);
        let (d, _) = dijkstra(&g, NodeId(0), unit_cost);
        let bfs = crate::traversal::bfs_distances(&crate::CsrGraph::from(&g), NodeId(0));
        for (a, b) in d.iter().zip(&bfs) {
            assert_eq!(a.map(|x| x as u32), *b);
        }
    }

    #[test]
    fn prefers_cheap_detour() {
        // 0-1 weight 1 (cost 1000); 0-2-1 with strong ties (cost 500+500).
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(2), 2);
        g.add_edge(NodeId(2), NodeId(1), 2);
        let d = trust_distances(&g, NodeId(0));
        assert_eq!(d[1], Some(1000)); // direct equals detour 500+500
        let mut g2 = Graph::new(3);
        g2.add_edge(NodeId(0), NodeId(1), 1);
        g2.add_edge(NodeId(0), NodeId(2), 4);
        g2.add_edge(NodeId(2), NodeId(1), 4);
        let d2 = trust_distances(&g2, NodeId(0));
        assert_eq!(d2[1], Some(500)); // detour 250+250 beats direct 1000
    }

    #[test]
    fn path_reconstruction() {
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let (_, parent) = dijkstra(&g, NodeId(0), unit_cost);
        let path = reconstruct_path(&parent, NodeId(0), NodeId(3)).expect("reachable");
        assert_eq!(path, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(
            reconstruct_path(&parent, NodeId(0), NodeId(0)),
            Some(vec![NodeId(0)])
        );
    }

    #[test]
    fn unreachable_is_none() {
        let g = Graph::from_edges(3, [(0, 1, 1)]);
        let (d, parent) = dijkstra(&g, NodeId(0), unit_cost);
        assert_eq!(d[2], None);
        assert_eq!(reconstruct_path(&parent, NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn out_of_range_source() {
        let g = Graph::new(2);
        let (d, _) = dijkstra(&g, NodeId(9), unit_cost);
        assert!(d.iter().all(Option::is_none));
    }
}
