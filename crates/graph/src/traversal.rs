//! Breadth-first traversal primitives: hop distances, ego networks,
//! eccentricity, and the "maximum span" statistic the paper reports for its
//! trust subgraphs (6 hops in all three).

use std::collections::VecDeque;

use crate::csr::{CsrGraph, TraversalScratch, UNVISITED};
use crate::graph::{Graph, NodeId};

/// Hop distance from `src` to every node; `None` for unreachable nodes.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    if src.index() >= g.node_count() {
        return dist;
    }
    let mut q = VecDeque::with_capacity(64);
    dist[src.index()] = Some(0);
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        let dv = dist[v.index()].expect("queued nodes have distances");
        for e in g.neighbors(v) {
            if dist[e.to.index()].is_none() {
                dist[e.to.index()] = Some(dv + 1);
                q.push_back(e.to);
            }
        }
    }
    dist
}

/// Multi-source BFS: hop distance from the *nearest* of `sources`.
///
/// This is how the case study scores hits: an author is a hit if its
/// distance to the nearest replica is ≤ 1.
pub fn multi_source_bfs(g: &Graph, sources: &[NodeId]) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    let mut q = VecDeque::with_capacity(sources.len().max(16));
    for &s in sources {
        if s.index() < g.node_count() && dist[s.index()].is_none() {
            dist[s.index()] = Some(0);
            q.push_back(s);
        }
    }
    while let Some(v) = q.pop_front() {
        let dv = dist[v.index()].expect("queued nodes have distances");
        for e in g.neighbors(v) {
            if dist[e.to.index()].is_none() {
                dist[e.to.index()] = Some(dv + 1);
                q.push_back(e.to);
            }
        }
    }
    dist
}

/// [`bfs_distances`] on a frozen [`CsrGraph`]. Bit-identical output; use
/// [`TraversalScratch::bfs`] directly to also skip the output allocation.
pub fn bfs_distances_csr(g: &CsrGraph, src: NodeId) -> Vec<Option<u32>> {
    let mut scratch = TraversalScratch::new();
    scratch.bfs(g, &[src]);
    collect_distances(g, &scratch)
}

/// [`multi_source_bfs`] on a frozen [`CsrGraph`]. Bit-identical output.
pub fn multi_source_bfs_csr(g: &CsrGraph, sources: &[NodeId]) -> Vec<Option<u32>> {
    let mut scratch = TraversalScratch::new();
    scratch.bfs(g, sources);
    collect_distances(g, &scratch)
}

/// Hop distances from `src` to each of `targets` (in input order) via the
/// bounded multi-target meet-in-the-middle search. `None` marks targets
/// that are unreachable or farther than `max_hops`; with
/// `max_hops == u32::MAX` that verdict matches a full [`bfs_distances`].
///
/// This is the allocation-free replica-resolution kernel — callers on the
/// hot path should hold a [`TraversalScratch`] and use
/// [`TraversalScratch::bfs_to_targets`] directly to also skip the output
/// allocation.
pub fn bounded_hops_csr(
    g: &CsrGraph,
    src: NodeId,
    targets: &[NodeId],
    max_hops: u32,
) -> Vec<Option<u32>> {
    let mut scratch = TraversalScratch::new();
    scratch.bfs_to_targets(g, src, targets, max_hops);
    targets.iter().map(|&t| scratch.target_hops(t)).collect()
}

fn collect_distances(g: &CsrGraph, scratch: &TraversalScratch) -> Vec<Option<u32>> {
    scratch.distances()[..g.node_count()]
        .iter()
        .map(|&d| if d == UNVISITED { None } else { Some(d) })
        .collect()
}

/// Nodes within `radius` hops of `seed` (the seed itself included).
///
/// This implements the paper's "explode his authorship network to a maximum
/// social distance of 3 hops".
pub fn ego_nodes(g: &Graph, seed: NodeId, radius: u32) -> Vec<NodeId> {
    let dist = bfs_distances(g, seed);
    dist.iter()
        .enumerate()
        .filter_map(|(i, d)| match d {
            Some(d) if *d <= radius => Some(NodeId(i as u32)),
            _ => None,
        })
        .collect()
}

/// Node-induced ego network of `seed` with the given hop `radius`.
///
/// Returns the subgraph and the `new_id -> old_id` mapping.
pub fn ego_network(g: &Graph, seed: NodeId, radius: u32) -> (Graph, Vec<NodeId>) {
    let dist = bfs_distances(g, seed);
    let keep: Vec<bool> = dist
        .iter()
        .map(|d| matches!(d, Some(d) if *d <= radius))
        .collect();
    g.induced_subgraph(&keep)
}

/// Eccentricity of `v`: greatest hop distance to any node reachable from it.
/// Returns 0 for isolated nodes.
pub fn eccentricity(g: &Graph, v: NodeId) -> u32 {
    bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0)
}

/// Maximum span (diameter of the largest connected part, ignoring
/// unreachable pairs): the largest eccentricity over all nodes.
///
/// The paper notes all three trust subgraphs keep a maximum span of 6 hops.
/// Exact over all nodes — `O(n (n + m))`; fine at case-study scale
/// (thousands of nodes).
pub fn max_span(g: &Graph) -> u32 {
    g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// Cheap lower-bound estimate of [`max_span`] by a double BFS sweep from
/// `start` (pick a far node, then measure from it). Exact on trees.
pub fn span_estimate(g: &Graph, start: NodeId) -> u32 {
    let d1 = bfs_distances(g, start);
    let far = d1
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|d| (i, d)))
        .max_by_key(|&(_, d)| d)
        .map(|(i, _)| NodeId(i as u32));
    match far {
        Some(f) => eccentricity(g, f),
        None => 0,
    }
}

/// Depth-first preorder from `src` (iterative; neighbor order = id order).
pub fn dfs_preorder(g: &Graph, src: NodeId) -> Vec<NodeId> {
    let mut seen = vec![false; g.node_count()];
    let mut out = Vec::new();
    let mut stack = vec![src];
    while let Some(v) = stack.pop() {
        if seen[v.index()] {
            continue;
        }
        seen[v.index()] = true;
        out.push(v);
        // Push in reverse so the smallest-id neighbor is visited first.
        for e in g.neighbors(v).iter().rev() {
            if !seen[e.to.index()] {
                stack.push(e.to);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path4();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1, 1)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = path4();
        let d = multi_source_bfs(&g, &[NodeId(0), NodeId(3)]);
        assert_eq!(d, vec![Some(0), Some(1), Some(1), Some(0)]);
    }

    #[test]
    fn multi_source_empty_sources() {
        let g = path4();
        let d = multi_source_bfs(&g, &[]);
        assert!(d.iter().all(Option::is_none));
    }

    #[test]
    fn ego_radius_clips() {
        let g = path4();
        assert_eq!(ego_nodes(&g, NodeId(0), 0), vec![NodeId(0)]);
        assert_eq!(ego_nodes(&g, NodeId(0), 2).len(), 3);
        let (sub, map) = ego_network(&g, NodeId(0), 1);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn eccentricity_and_span() {
        let g = path4();
        assert_eq!(eccentricity(&g, NodeId(0)), 3);
        assert_eq!(eccentricity(&g, NodeId(1)), 2);
        assert_eq!(max_span(&g), 3);
        assert_eq!(span_estimate(&g, NodeId(1)), 3);
    }

    #[test]
    fn span_ignores_disconnection() {
        // Two disjoint paths: span is that of the longer one.
        let g = Graph::from_edges(7, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1)]);
        assert_eq!(max_span(&g), 3);
    }

    #[test]
    fn csr_bfs_matches_adjacency() {
        let g = crate::generators::barabasi_albert(150, 3, 5);
        let c = CsrGraph::from(&g);
        assert_eq!(
            bfs_distances(&g, NodeId(7)),
            bfs_distances_csr(&c, NodeId(7))
        );
        let sources = [NodeId(0), NodeId(50), NodeId(149)];
        assert_eq!(
            multi_source_bfs(&g, &sources),
            multi_source_bfs_csr(&c, &sources)
        );
        assert!(multi_source_bfs_csr(&c, &[]).iter().all(Option::is_none));
    }

    #[test]
    fn bounded_hops_match_full_bfs() {
        let g = crate::generators::barabasi_albert(120, 3, 9);
        let c = CsrGraph::from(&g);
        let full = bfs_distances(&g, NodeId(4));
        let targets = [NodeId(0), NodeId(60), NodeId(119), NodeId(4)];
        let bounded = bounded_hops_csr(&c, NodeId(4), &targets, u32::MAX);
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(bounded[i], full[t.index()], "target {t:?}");
        }
    }

    #[test]
    fn bounded_hops_respect_budget() {
        let g = path4();
        let c = CsrGraph::from(&g);
        let targets = [NodeId(1), NodeId(3)];
        assert_eq!(
            bounded_hops_csr(&c, NodeId(0), &targets, 1),
            vec![Some(1), None]
        );
        assert_eq!(
            bounded_hops_csr(&c, NodeId(0), &targets, 3),
            vec![Some(1), Some(3)]
        );
        // Out-of-range source and targets are ignored, not panicked on.
        assert_eq!(
            bounded_hops_csr(&c, NodeId(99), &targets, 3),
            vec![None, None]
        );
        assert_eq!(
            bounded_hops_csr(&c, NodeId(0), &[NodeId(42)], 3),
            vec![None]
        );
    }

    #[test]
    fn bounded_bfs_epoch_reuse_is_clean() {
        let g = crate::generators::barabasi_albert(90, 2, 2);
        let c = CsrGraph::from(&g);
        let mut scratch = TraversalScratch::new();
        // Interleave bounded calls with full-kernel calls on the same
        // scratch: neither may corrupt the other.
        for src in [0u32, 17, 89, 3] {
            scratch.bfs(&c, &[NodeId(src)]);
            let full = bfs_distances(&g, NodeId(src));
            let targets: Vec<NodeId> = [1u32, 40, 88].map(NodeId).to_vec();
            scratch.bfs_to_targets(&c, NodeId(src), &targets, u32::MAX);
            for &t in &targets {
                assert_eq!(scratch.target_hops(t), full[t.index()], "src {src} t {t:?}");
            }
        }
    }

    #[test]
    fn dfs_visits_component() {
        let g = path4();
        let order = dfs_preorder(&g, NodeId(0));
        assert_eq!(order, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }
}
