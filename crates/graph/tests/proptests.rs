//! Property-based tests for the graph substrate invariants.

use proptest::prelude::*;
use scdn_graph::centrality::betweenness;
use scdn_graph::components::connected_components;
use scdn_graph::cover::{greedy_dominating_set, is_dominating_set};
use scdn_graph::metrics::{all_clustering_coefficients, global_clustering_coefficient};
use scdn_graph::traversal::{bfs_distances, ego_network, max_span, multi_source_bfs};
use scdn_graph::{CsrGraph, Graph, NodeId, UnionFind};

/// Strategy: a random simple graph with up to `n` nodes and `m` edges.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..5), 0..max_m)
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

proptest! {
    #[test]
    fn edge_count_matches_iteration(g in arb_graph(40, 120)) {
        prop_assert_eq!(g.edge_count(), g.edges().count());
    }

    #[test]
    fn degree_sum_is_twice_edges(g in arb_graph(40, 120)) {
        let sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(sum, 2 * g.edge_count());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph(30, 90)) {
        for (a, b, w) in g.edges() {
            prop_assert_eq!(g.edge_weight(b, a), Some(w));
        }
    }

    #[test]
    fn bfs_distance_triangle_inequality_on_edges(g in arb_graph(30, 80)) {
        // Adjacent nodes differ by at most 1 in BFS distance.
        let d = bfs_distances(&CsrGraph::from(&g), NodeId(0));
        for (a, b, _) in g.edges() {
            if let (Some(da), Some(db)) = (d[a.index()], d[b.index()]) {
                prop_assert!(da.abs_diff(db) <= 1);
            } else {
                // If one endpoint is reachable the other must be too.
                prop_assert!(d[a.index()].is_none() && d[b.index()].is_none());
            }
        }
    }

    #[test]
    fn components_agree_with_union_find(g in arb_graph(40, 100)) {
        let comps = connected_components(&g);
        let mut uf = UnionFind::new(g.node_count());
        for (a, b, _) in g.edges() {
            uf.union(a.index(), b.index());
        }
        prop_assert_eq!(comps.count, uf.component_count());
        for a in 0..g.node_count() {
            for b in (a + 1)..g.node_count() {
                prop_assert_eq!(
                    comps.labels[a] == comps.labels[b],
                    uf.connected(a, b)
                );
            }
        }
    }

    #[test]
    fn clustering_coefficients_in_unit_interval(g in arb_graph(25, 80)) {
        let csr = CsrGraph::from(&g);
        for c in all_clustering_coefficients(&csr) {
            prop_assert!((0.0..=1.0).contains(&c));
        }
        let gc = global_clustering_coefficient(&csr);
        prop_assert!((0.0..=1.0).contains(&gc));
    }

    #[test]
    fn ego_network_monotone_in_radius(g in arb_graph(30, 80), r in 0u32..4) {
        let (_, inner) = ego_network(&g, NodeId(0), r);
        let (_, outer) = ego_network(&g, NodeId(0), r + 1);
        prop_assert!(inner.len() <= outer.len());
        for v in &inner {
            prop_assert!(outer.contains(v));
        }
    }

    #[test]
    fn multi_source_bfs_is_min_of_singles(g in arb_graph(20, 50)) {
        let sources = [NodeId(0), NodeId(1)];
        let csr = CsrGraph::from(&g);
        let multi = multi_source_bfs(&csr, &sources);
        let d0 = bfs_distances(&csr, NodeId(0));
        let d1 = bfs_distances(&csr, NodeId(1));
        for i in 0..g.node_count() {
            let expect = match (d0[i], d1[i]) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (Some(a), None) => Some(a),
                (None, Some(b)) => Some(b),
                (None, None) => None,
            };
            prop_assert_eq!(multi[i], expect);
        }
    }

    #[test]
    fn betweenness_nonnegative_and_parallel_matches(g in arb_graph(20, 50)) {
        for b in betweenness(&CsrGraph::from(&g)) {
            prop_assert!(b >= -1e-9);
        }
    }

    #[test]
    fn dominating_set_always_dominates(g in arb_graph(30, 70)) {
        let ds = greedy_dominating_set(&g);
        prop_assert!(is_dominating_set(&g, &ds));
    }

    #[test]
    fn span_bounded_by_node_count(g in arb_graph(25, 60)) {
        prop_assert!((max_span(&CsrGraph::from(&g)) as usize) < g.node_count().max(1));
    }

    #[test]
    fn induced_subgraph_preserves_edges(g in arb_graph(25, 60), mask_seed in 0u64..1000) {
        // Deterministic pseudo-mask from the seed.
        let keep: Vec<bool> = (0..g.node_count())
            .map(|i| (mask_seed >> (i % 48)) & 1 == 1)
            .collect();
        let (sub, map) = g.induced_subgraph(&keep);
        // Every subgraph edge must exist in the parent with equal weight.
        for (a, b, w) in sub.edges() {
            prop_assert_eq!(g.edge_weight(map[a.index()], map[b.index()]), Some(w));
        }
        // Count parent edges with both endpoints kept — must match.
        let expected = g
            .edges()
            .filter(|(a, b, _)| keep[a.index()] && keep[b.index()])
            .count();
        prop_assert_eq!(sub.edge_count(), expected);
    }
}
