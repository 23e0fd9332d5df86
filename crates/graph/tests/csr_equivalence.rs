//! Property test: freezing a [`Graph`] preserves everything the
//! algorithms read — node and edge counts, degrees, strengths, neighbor
//! order and weights. Every read-only algorithm exists once, on
//! [`CsrGraph`]; where its body differs from the adjacency-list kernel it
//! replaced, that kernel survives as a `#[cfg(test)]` `*_reference` beside
//! it (`traversal.rs`, `centrality.rs`, `pagerank.rs`, `metrics.rs`) and is
//! property-tested bit-identical there. Algorithms whose adjacency twin
//! was the same text (degree centrality) need no reference: this test
//! pins their only input.

use proptest::prelude::*;
use scdn_graph::{CsrGraph, Graph};

/// Strategy: a random simple graph with up to `n` nodes and `m` edges.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..5), 0..max_m)
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

proptest! {
    #[test]
    fn csr_freeze_preserves_structure(g in arb_graph(40, 120)) {
        let c = CsrGraph::from(&g);
        prop_assert_eq!(c.node_count(), g.node_count());
        prop_assert_eq!(c.edge_count(), g.edge_count());
        for v in g.nodes() {
            prop_assert_eq!(c.degree(v), g.degree(v));
            prop_assert_eq!(c.strength(v), g.strength(v));
            let adj: Vec<u32> = g.neighbors(v).iter().map(|e| e.to.0).collect();
            prop_assert_eq!(c.neighbor_ids(v), &adj[..]);
            let weights: Vec<u32> = g.neighbors(v).iter().map(|e| e.weight).collect();
            prop_assert_eq!(c.neighbor_weights(v), &weights[..]);
        }
        for (a, b, w) in g.edges() {
            prop_assert_eq!(c.edge_weight(a, b), Some(w));
        }
    }
}
