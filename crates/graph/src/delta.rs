//! Batched social-graph deltas.
//!
//! The S-CDN's social fabric is not static: collaborations form and lapse,
//! members join and leave. A [`GraphDelta`] captures one batch of such
//! changes as an *ordered* op list with exactly the semantics of the
//! mutable [`Graph`] API — [`Graph::add_edge`] accumulates weight on an
//! existing edge and ignores self-loops, [`Graph::remove_edge`] tolerates
//! absent edges — so the same delta can be replayed against the build
//! graph ([`GraphDelta::apply_to`]) and against the frozen CSR snapshot
//! ([`CsrGraph::apply_delta`](crate::csr::CsrGraph::apply_delta)) with
//! bit-identical outcomes.
//!
//! Applying a delta to a CSR also produces a [`DeltaSummary`]: the sorted
//! set of nodes whose adjacency rows were rebuilt. The runtime reports its
//! size; no cache reads it, since a new CSR generation flushes every graph
//! cache.

use crate::graph::{Graph, NodeId};

/// One primitive mutation inside a [`GraphDelta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add (or reinforce) the undirected edge `a — b`; mirrors
    /// [`Graph::add_edge`] including weight accumulation and self-loop
    /// rejection.
    AddEdge {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
        /// Weight added to the edge (accumulated if it already exists).
        weight: u32,
    },
    /// Remove the undirected edge `a — b` if present; mirrors
    /// [`Graph::remove_edge`] (no-op on absent or out-of-range edges).
    RemoveEdge {
        /// First endpoint.
        a: NodeId,
        /// Second endpoint.
        b: NodeId,
    },
    /// Activate `count` fresh isolated nodes (ids are appended densely);
    /// mirrors `count` calls to [`Graph::add_node`]. Later ops in the same
    /// delta may reference the new ids.
    AddNodes {
        /// How many nodes to append.
        count: u32,
    },
}

/// An ordered batch of graph mutations.
///
/// Build with the fluent methods, then apply to the mutable graph with
/// [`apply_to`](GraphDelta::apply_to) and to the frozen snapshot with
/// [`CsrGraph::apply_delta`](crate::csr::CsrGraph::apply_delta). Ops are
/// replayed strictly in insertion order, so e.g. an `add_edge` after
/// `add_nodes` may reference the newly activated ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    ops: Vec<DeltaOp>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Queue an edge addition / weight reinforcement.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, weight: u32) -> &mut Self {
        self.ops.push(DeltaOp::AddEdge { a, b, weight });
        self
    }

    /// Queue an edge removal.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.ops.push(DeltaOp::RemoveEdge { a, b });
        self
    }

    /// Queue activation of `count` fresh isolated nodes.
    pub fn add_nodes(&mut self, count: u32) -> &mut Self {
        self.ops.push(DeltaOp::AddNodes { count });
        self
    }

    /// The queued ops, in application order.
    #[inline]
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Number of queued ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no ops are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total nodes activated by the delta's `AddNodes` ops.
    pub fn nodes_added(&self) -> u32 {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::AddNodes { count } => *count,
                _ => 0,
            })
            .sum()
    }

    /// Every endpoint pair named by an edge op, in op order (duplicates
    /// preserved): what a caller vets before applying the delta.
    pub fn edge_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.ops.iter().filter_map(|op| match *op {
            DeltaOp::AddEdge { a, b, .. } => Some((a, b)),
            DeltaOp::RemoveEdge { a, b } => Some((a, b)),
            DeltaOp::AddNodes { .. } => None,
        })
    }

    /// Replay the delta against the mutable build graph, op by op.
    ///
    /// # Panics
    /// Panics exactly where the underlying [`Graph`] API panics: an
    /// `AddEdge` endpoint out of range at its point in the op sequence.
    pub fn apply_to(&self, g: &mut Graph) {
        for op in &self.ops {
            match *op {
                DeltaOp::AddEdge { a, b, weight } => g.add_edge(a, b, weight),
                DeltaOp::RemoveEdge { a, b } => {
                    g.remove_edge(a, b);
                }
                DeltaOp::AddNodes { count } => {
                    for _ in 0..count {
                        g.add_node();
                    }
                }
            }
        }
    }
}

/// What a delta application changed, as recorded on the resulting
/// [`CsrGraph`](crate::csr::CsrGraph).
///
/// `touched` over-approximates: a node appears if its adjacency row was
/// *rebuilt*, even when the rebuild reproduced the old row (e.g. a
/// `RemoveEdge` of an absent edge). That direction of error is safe for
/// any consumer that treats a touched row as possibly changed — extra
/// touched nodes can only cost extra work, never a stale answer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Nodes whose adjacency rows were rebuilt (sorted, deduplicated),
    /// including freshly activated nodes.
    pub touched: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_to_matches_direct_mutation() {
        let mut direct = Graph::from_edges(4, [(0, 1, 1), (1, 2, 2)]);
        let mut via_delta = direct.clone();

        let mut d = GraphDelta::new();
        d.add_edge(NodeId(2), NodeId(3), 5)
            .remove_edge(NodeId(0), NodeId(1))
            .add_edge(NodeId(1), NodeId(2), 1)
            .add_nodes(2)
            .add_edge(NodeId(4), NodeId(5), 7);

        direct.add_edge(NodeId(2), NodeId(3), 5);
        direct.remove_edge(NodeId(0), NodeId(1));
        direct.add_edge(NodeId(1), NodeId(2), 1);
        direct.add_node();
        direct.add_node();
        direct.add_edge(NodeId(4), NodeId(5), 7);

        d.apply_to(&mut via_delta);
        assert_eq!(via_delta.node_count(), direct.node_count());
        assert_eq!(via_delta.edge_count(), direct.edge_count());
        for v in direct.nodes() {
            assert_eq!(via_delta.neighbors(v), direct.neighbors(v));
        }
    }

    #[test]
    fn accessors_summarize_ops() {
        let mut d = GraphDelta::new();
        assert!(d.is_empty());
        d.add_edge(NodeId(0), NodeId(1), 1)
            .remove_edge(NodeId(2), NodeId(3))
            .add_nodes(3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.nodes_added(), 3);
        let pairs: Vec<_> = d.edge_pairs().collect();
        assert_eq!(pairs, vec![(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))]);
    }

    #[test]
    fn remove_absent_edge_is_tolerated() {
        let mut g = Graph::new(3);
        let mut d = GraphDelta::new();
        d.remove_edge(NodeId(0), NodeId(1))
            .remove_edge(NodeId(0), NodeId(9));
        d.apply_to(&mut g);
        assert_eq!(g.edge_count(), 0);
    }
}
