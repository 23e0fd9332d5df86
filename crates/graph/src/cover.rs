//! Covering heuristics for availability-aware replica selection.
//!
//! Section V-D describes the My3-inspired scheme: build a graph whose edges
//! connect nodes with overlapping availability windows, weight edges by
//! transfer "distance", and pick a subset of nodes that covers the whole
//! graph with the lowest-cost edges. Dominating set is NP-hard, so we use
//! the greedy approximation that scores candidates by
//! (new coverage) / (node cost); with unit costs it is the standard greedy
//! ln(n)-approximation.

use crate::graph::{Graph, NodeId};

/// Cost-aware greedy dominating set: maximize (newly covered) / cost(v).
/// `cost[v]` might be the inverse availability or expected transfer latency
/// of hosting a replica on `v`. Costs must be positive.
pub fn greedy_weighted_dominating_set(g: &Graph, cost: &[f64]) -> Vec<NodeId> {
    assert_eq!(cost.len(), g.node_count(), "cost length mismatch");
    assert!(
        cost.iter().all(|&c| c > 0.0 && c.is_finite()),
        "costs must be positive and finite"
    );
    let n = g.node_count();
    let mut covered = vec![false; n];
    let mut chosen = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let mut best: Option<(f64, NodeId)> = None;
        for v in g.nodes() {
            let mut gain = usize::from(!covered[v.index()]);
            for e in g.neighbors(v) {
                gain += usize::from(!covered[e.to.index()]);
            }
            if gain == 0 {
                continue;
            }
            let score = gain as f64 / cost[v.index()];
            match best {
                Some((bs, bv)) if bs > score || (bs == score && bv <= v) => {}
                _ => best = Some((score, v)),
            }
        }
        let (_, v) = best.expect("uncovered nodes must have a coverer");
        chosen.push(v);
        if !covered[v.index()] {
            covered[v.index()] = true;
            remaining -= 1;
        }
        for e in g.neighbors(v) {
            if !covered[e.to.index()] {
                covered[e.to.index()] = true;
                remaining -= 1;
            }
        }
    }
    chosen
}

/// Check whether `set` dominates the graph (every node is in the set or
/// adjacent to a member).
pub fn is_dominating_set(g: &Graph, set: &[NodeId]) -> bool {
    let mut covered = vec![false; g.node_count()];
    for &v in set {
        covered[v.index()] = true;
        for e in g.neighbors(v) {
            covered[e.to.index()] = true;
        }
    }
    covered.into_iter().all(|c| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi;
    use crate::graph::Graph;

    /// The cover with every cost 1: the unweighted greedy.
    fn unit_cover(g: &Graph) -> Vec<NodeId> {
        greedy_weighted_dominating_set(g, &vec![1.0; g.node_count()])
    }

    #[test]
    fn star_dominated_by_center() {
        let g = Graph::from_edges(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)]);
        let ds = unit_cover(&g);
        assert_eq!(ds, vec![NodeId(0)]);
        assert!(is_dominating_set(&g, &ds));
    }

    #[test]
    fn isolated_nodes_must_self_cover() {
        let g = Graph::from_edges(3, [(0, 1, 1)]); // node 2 isolated
        let ds = unit_cover(&g);
        assert!(ds.contains(&NodeId(2)));
        assert!(is_dominating_set(&g, &ds));
    }

    #[test]
    fn dominating_set_on_random_graphs() {
        for seed in 0..5 {
            let g = erdos_renyi(60, 0.08, seed);
            let ds = unit_cover(&g);
            assert!(is_dominating_set(&g, &ds));
            assert!(ds.len() <= g.node_count());
        }
    }

    #[test]
    fn weighted_prefers_cheap_nodes() {
        // Two centers both dominate everything; costs should pick node 0.
        let g = Graph::from_edges(4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (0, 1, 1)]);
        let cheap0 = greedy_weighted_dominating_set(&g, &[0.5, 5.0, 5.0, 5.0]);
        assert_eq!(cheap0[0], NodeId(0));
        assert!(is_dominating_set(&g, &cheap0));
    }

    #[test]
    fn empty_graph_covers() {
        let g = Graph::new(0);
        assert!(unit_cover(&g).is_empty());
        assert!(is_dominating_set(&g, &[]));
    }
}
