//! Breadth-first traversal primitives on a frozen [`CsrGraph`]: hop
//! distances, eccentricity, and the "maximum span" statistic the paper
//! reports for its trust subgraphs (6 hops in all three), plus the ego
//! network extraction that builds those subgraphs.
//!
//! A caller that holds a mutable [`Graph`] freezes it once with
//! [`CsrGraph::from`] and queries the frozen view.

use crate::csr::{CsrGraph, TraversalScratch, UNVISITED};
use crate::graph::{Graph, NodeId};

/// Hop distance from `src` to every node; `None` for unreachable nodes.
/// Use [`TraversalScratch::bfs`] directly to skip the output allocation.
pub fn bfs_distances(g: &CsrGraph, src: NodeId) -> Vec<Option<u32>> {
    multi_source_bfs(g, &[src])
}

/// Multi-source BFS: hop distance from the *nearest* of `sources`.
///
/// This is how the case study scores hits: an author is a hit if its
/// distance to the nearest replica is ≤ 1.
pub fn multi_source_bfs(g: &CsrGraph, sources: &[NodeId]) -> Vec<Option<u32>> {
    let mut scratch = TraversalScratch::new();
    scratch.bfs(g, sources);
    scratch.distances()[..g.node_count()]
        .iter()
        .map(|&d| if d == UNVISITED { None } else { Some(d) })
        .collect()
}

/// Node-induced ego network of `seed` with the given hop `radius`.
///
/// This implements the paper's "explode his authorship network to a maximum
/// social distance of 3 hops". Returns the subgraph and the
/// `new_id -> old_id` mapping.
pub fn ego_network(g: &Graph, seed: NodeId, radius: u32) -> (Graph, Vec<NodeId>) {
    let csr = CsrGraph::from(g);
    let mut scratch = TraversalScratch::new();
    scratch.bfs_bounded(&csr, &[seed], radius);
    let keep: Vec<bool> = g.nodes().map(|v| scratch.distance(v).is_some()).collect();
    g.induced_subgraph(&keep)
}

/// Eccentricity of `v`: greatest hop distance to any node reachable from it.
/// Returns 0 for isolated (and out-of-range) nodes.
pub fn eccentricity(g: &CsrGraph, v: NodeId, scratch: &mut TraversalScratch) -> u32 {
    scratch.bfs(g, &[v]);
    // Visit order is distance order, so the last node is a farthest one.
    scratch
        .visited()
        .last()
        .and_then(|&far| scratch.distance(NodeId(far)))
        .unwrap_or(0)
}

/// Maximum span (diameter of the largest connected part, ignoring
/// unreachable pairs): the largest eccentricity over all nodes.
///
/// The paper notes all three trust subgraphs keep a maximum span of 6 hops.
/// Exact over all nodes — `O(n (n + m))`; fine at case-study scale
/// (thousands of nodes).
pub fn max_span(g: &CsrGraph) -> u32 {
    let mut scratch = TraversalScratch::new();
    g.nodes()
        .map(|v| eccentricity(g, v, &mut scratch))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_graphs::{arb_graph, bfs_reference, frozen};
    use proptest::prelude::*;

    fn path4() -> CsrGraph {
        frozen(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    }

    proptest! {
        #[test]
        fn bfs_matches_reference(g in arb_graph(40, 120), s in 0u32..40) {
            let c = CsrGraph::from(&g);
            let s = NodeId(s.min(g.node_count() as u32 - 1));
            prop_assert_eq!(bfs_reference(&g, &[s]), bfs_distances(&c, s));
            let sources = [NodeId(0), s];
            prop_assert_eq!(bfs_reference(&g, &sources), multi_source_bfs(&c, &sources));
        }
    }

    #[test]
    fn bfs_on_path() {
        let d = bfs_distances(&path4(), NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = frozen(4, [(0, 1, 1)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
        // An out-of-range source reaches nothing.
        assert!(bfs_distances(&g, NodeId(9)).iter().all(Option::is_none));
    }

    #[test]
    fn multi_source_takes_nearest() {
        let d = multi_source_bfs(&path4(), &[NodeId(0), NodeId(3)]);
        assert_eq!(d, vec![Some(0), Some(1), Some(1), Some(0)]);
    }

    #[test]
    fn multi_source_empty_sources() {
        let d = multi_source_bfs(&path4(), &[]);
        assert!(d.iter().all(Option::is_none));
    }

    #[test]
    fn ego_radius_clips() {
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let (sub, map) = ego_network(&g, NodeId(0), 1);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map, vec![NodeId(0), NodeId(1)]);
        assert_eq!(ego_network(&g, NodeId(0), 0).1, vec![NodeId(0)]);
        assert_eq!(ego_network(&g, NodeId(0), 2).0.node_count(), 3);
    }

    #[test]
    fn eccentricity_and_span() {
        let g = path4();
        let mut scratch = TraversalScratch::new();
        assert_eq!(eccentricity(&g, NodeId(0), &mut scratch), 3);
        assert_eq!(eccentricity(&g, NodeId(1), &mut scratch), 2);
        assert_eq!(max_span(&g), 3);
    }

    #[test]
    fn span_ignores_disconnection() {
        // Two disjoint paths: span is that of the longer one.
        let g = frozen(7, [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1)]);
        assert_eq!(max_span(&g), 3);
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
            let full = bfs_reference(&g, &[NodeId(src)]);
            let targets: Vec<NodeId> = [1u32, 40, 88].map(NodeId).to_vec();
            scratch.bfs_to_targets(&c, NodeId(src), &targets, u32::MAX);
            // The nearest target and every target at its distance are
            // settled exactly; the rest lie beyond it.
            let nearest = targets.iter().filter_map(|t| full[t.index()]).min();
            for &t in &targets {
                match scratch.target_hops(t) {
                    Some(d) => assert_eq!(Some(d), full[t.index()], "src {src} t {t:?}"),
                    None => assert!(full[t.index()] > nearest, "src {src} t {t:?}"),
                }
            }
            assert!(
                nearest.is_some_and(|d| targets.iter().any(|&t| scratch.target_hops(t) == Some(d)))
            );
        }
    }
}
