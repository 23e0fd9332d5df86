//! # scdn-graph — graph substrate for the Social CDN
//!
//! This crate provides the graph machinery that every other S-CDN component
//! builds on, in two representations with one set of algorithms:
//!
//! * [`Graph`] — the adjacency-list graph you **build and mutate**
//!   (`add_edge`, `remove_edge`, [`GraphDelta`], `induced_subgraph`),
//!   together with the algorithms that only ever run on a graph under
//!   construction (components, community detection, the weighted
//!   dominating-set cover, generators);
//! * [`CsrGraph`] — the frozen, chunked copy-on-write view you **query**:
//!   BFS and eccentricity, centrality (Brandes betweenness included),
//!   PageRank and clustering each exist once, on this type, and each runs
//!   on one thread. `CsrGraph::from(&graph)` freezes; `apply_delta`
//!   follows churn without a rebuild.
//!
//! The S-CDN paper (Chard et al., SC 2012) uses coauthorship graphs as its
//! social fabric; those graphs are built by `scdn-social` on top of the
//! [`Graph`] type defined here.
//!
//! ## Quick example
//!
//! ```
//! use scdn_graph::{Graph, NodeId};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(NodeId(0), NodeId(1), 1);
//! g.add_edge(NodeId(1), NodeId(2), 2);
//! g.add_edge(NodeId(2), NodeId(3), 1);
//! assert_eq!(g.degree(NodeId(1)), 2);
//! // Build and mutate a `Graph`; freeze it once to query it.
//! let frozen = scdn_graph::CsrGraph::from(&g);
//! let dist = scdn_graph::traversal::bfs_distances(&frozen, NodeId(0));
//! assert_eq!(dist[3], Some(3));
//! ```

pub mod centrality;
pub mod community;
pub mod components;
pub mod cover;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod graph;
pub mod metrics;
pub mod pagerank;
pub mod parallel;
pub mod traversal;
pub mod union_find;

pub use csr::{CowStats, CsrGraph, TraversalScratch, DEFAULT_CHUNK_ROWS};
pub use delta::{DeltaOp, DeltaSummary, GraphDelta};
pub use graph::{EdgeRef, Graph, NodeId};
pub use union_find::UnionFind;

/// Convenience prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::centrality::{betweenness, closeness, degree_centrality};
    pub use crate::community::{label_propagation, modularity};
    pub use crate::components::{connected_components, largest_component, ComponentLabels};
    pub use crate::csr::{CsrGraph, TraversalScratch};
    pub use crate::graph::{Graph, NodeId};
    pub use crate::metrics::{global_clustering_coefficient, local_clustering_coefficient};
    pub use crate::traversal::{bfs_distances, ego_network, max_span};
}

/// Inputs and the one reference the in-crate tests share.
#[cfg(test)]
pub(crate) mod test_graphs {
    use crate::csr::CsrGraph;
    use crate::graph::{Graph, NodeId};
    use proptest::prelude::*;

    /// `Graph::from_edges`, frozen.
    pub(crate) fn frozen(n: usize, edges: impl IntoIterator<Item = (u32, u32, u32)>) -> CsrGraph {
        CsrGraph::from(&Graph::from_edges(n, edges))
    }

    /// Strategy: a random simple graph with up to `n` nodes and `m` edges.
    pub(crate) fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
        (2..max_n).prop_flat_map(move |n| {
            proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..5), 0..max_m)
                .prop_map(move |edges| Graph::from_edges(n, edges))
        })
    }

    /// The adjacency-list multi-source BFS the CSR kernel replaced: one
    /// `VecDeque` and one `Option` vector per call.
    pub(crate) fn bfs_reference(g: &Graph, sources: &[NodeId]) -> Vec<Option<u32>> {
        let mut dist = vec![None; g.node_count()];
        let mut q = std::collections::VecDeque::new();
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
}
