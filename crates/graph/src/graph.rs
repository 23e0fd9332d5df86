//! Core undirected weighted graph type.
//!
//! The graph is stored as a per-node adjacency list sorted by neighbor id,
//! which keeps neighbor lookups `O(log d)` and makes triangle counting and
//! set intersections cheap. Node ids are dense `u32` indices — external
//! identity (author names, user ids) is kept by the caller in a side table,
//! as `scdn-social` does with its `NodeIndexMap`.

use std::fmt;

/// Dense node identifier. Valid ids are `0..graph.node_count()`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v as u32)
    }
}

/// A half-edge as seen from one endpoint: the neighbor and the edge weight.
///
/// In coauthorship graphs the weight is the number of joint publications,
/// which the trust-pruning heuristics threshold on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeRef {
    /// Neighbor node.
    pub to: NodeId,
    /// Edge weight (e.g. number of coauthored publications).
    pub weight: u32,
}

/// An undirected weighted simple graph (no self-loops, no parallel edges).
///
/// Adding an edge that already exists *accumulates* its weight, which is the
/// natural semantics for coauthorship ("one more joint paper").
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<EdgeRef>>,
    edge_count: usize,
}

impl Graph {
    /// Create a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// Append a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        NodeId(self.adj.len() as u32 - 1)
    }

    /// Add (or reinforce) the undirected edge `a — b` with weight `w`.
    ///
    /// If the edge already exists its weight is increased by `w`.
    /// Self-loops are ignored (coauthorship with oneself is meaningless).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, w: u32) {
        assert!(a.index() < self.adj.len(), "node {a:?} out of range");
        assert!(b.index() < self.adj.len(), "node {b:?} out of range");
        if a == b {
            return;
        }
        let inserted = Self::insert_half(&mut self.adj[a.index()], b, w);
        Self::insert_half(&mut self.adj[b.index()], a, w);
        if inserted {
            self.edge_count += 1;
        }
    }

    /// Insert or accumulate a half edge; returns `true` if it was new.
    /// Shared with the CSR delta path so both mutate rows identically.
    pub(crate) fn insert_half(list: &mut Vec<EdgeRef>, to: NodeId, w: u32) -> bool {
        match list.binary_search_by_key(&to, |e| e.to) {
            Ok(i) => {
                list[i].weight = list[i].weight.saturating_add(w);
                false
            }
            Err(i) => {
                list.insert(i, EdgeRef { to, weight: w });
                true
            }
        }
    }

    /// Remove the undirected edge `a — b` if present. Returns `true` if an
    /// edge was removed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b || a.index() >= self.adj.len() || b.index() >= self.adj.len() {
            return false;
        }
        let removed = match self.adj[a.index()].binary_search_by_key(&b, |e| e.to) {
            Ok(i) => {
                self.adj[a.index()].remove(i);
                true
            }
            Err(_) => false,
        };
        if removed {
            if let Ok(i) = self.adj[b.index()].binary_search_by_key(&a, |e| e.to) {
                self.adj[b.index()].remove(i);
            }
            self.edge_count -= 1;
        }
        removed
    }

    /// Degree (number of distinct neighbors) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Sum of incident edge weights of `v` (weighted degree / strength).
    pub fn strength(&self, v: NodeId) -> u64 {
        self.adj[v.index()].iter().map(|e| e.weight as u64).sum()
    }

    /// Neighbors of `v` with weights, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[EdgeRef] {
        &self.adj[v.index()]
    }

    /// `true` if the undirected edge `a — b` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.adj.len() || b.index() >= self.adj.len() {
            return false;
        }
        self.adj[a.index()]
            .binary_search_by_key(&b, |e| e.to)
            .is_ok()
    }

    /// Weight of edge `a — b`, if present.
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a.index() >= self.adj.len() {
            return None;
        }
        self.adj[a.index()]
            .binary_search_by_key(&b, |e| e.to)
            .ok()
            .map(|i| self.adj[a.index()][i].weight)
    }

    /// Iterator over each undirected edge exactly once as `(a, b, w)` with
    /// `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u32)> + '_ {
        self.adj.iter().enumerate().flat_map(|(i, list)| {
            let a = NodeId(i as u32);
            list.iter()
                .filter(move |e| a < e.to)
                .map(move |e| (a, e.to, e.weight))
        })
    }

    /// Total weight over all undirected edges.
    pub fn total_weight(&self) -> u64 {
        self.edges().map(|(_, _, w)| w as u64).sum()
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Build the node-induced subgraph over `keep` (a boolean mask of length
    /// `node_count()`).
    ///
    /// Returns the subgraph plus the mapping `new_id -> old_id`. Edges keep
    /// their weights.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.node_count(), "mask length mismatch");
        let mut old_to_new: Vec<Option<NodeId>> = vec![None; self.node_count()];
        let mut new_to_old: Vec<NodeId> = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k {
                old_to_new[i] = Some(NodeId(new_to_old.len() as u32));
                new_to_old.push(NodeId(i as u32));
            }
        }
        let mut sub = Graph::new(new_to_old.len());
        for (a, b, w) in self.edges() {
            if let (Some(na), Some(nb)) = (old_to_new[a.index()], old_to_new[b.index()]) {
                sub.add_edge(na, nb, w);
            }
        }
        (sub, new_to_old)
    }

    /// Build the edge-filtered subgraph keeping every node but only the
    /// edges for which `pred(a, b, w)` returns true.
    pub fn filter_edges<F>(&self, mut pred: F) -> Graph
    where
        F: FnMut(NodeId, NodeId, u32) -> bool,
    {
        let mut g = Graph::new(self.node_count());
        for (a, b, w) in self.edges() {
            if pred(a, b, w) {
                g.add_edge(a, b, w);
            }
        }
        g
    }

    /// Drop isolated (degree-0) nodes, returning the compacted graph and the
    /// `new_id -> old_id` mapping.
    pub fn drop_isolated(&self) -> (Graph, Vec<NodeId>) {
        let keep: Vec<bool> = self.adj.iter().map(|l| !l.is_empty()).collect();
        self.induced_subgraph(&keep)
    }

    /// Build a graph from an explicit edge list over `n` nodes.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32, u32)>) -> Graph {
        let mut g = Graph::new(n);
        for (a, b, w) in edges {
            g.add_edge(NodeId(a), NodeId(b), w);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 5);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(5));
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.strength(NodeId(1)), 6);
    }

    #[test]
    fn duplicate_edge_accumulates_weight() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(0), NodeId(1), 3);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(4));
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(0), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(NodeId(0)), 0);
    }

    #[test]
    fn remove_edge_works() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 1);
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (a, b, _) in &edges {
            assert!(a < b);
        }
        assert_eq!(g.total_weight(), 10);
    }

    #[test]
    fn induced_subgraph_maps_ids() {
        let g = Graph::from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        let keep = vec![false, true, true, true];
        let (sub, map) = g.induced_subgraph(&keep);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(map, vec![NodeId(1), NodeId(2), NodeId(3)]);
        // old edge 1-2 weight 2 survives under new ids 0-1
        assert_eq!(sub.edge_weight(NodeId(0), NodeId(1)), Some(2));
    }

    #[test]
    fn filter_edges_thresholds_weight() {
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 5)]);
        let f = g.filter_edges(|_, _, w| w >= 2);
        assert_eq!(f.node_count(), 3);
        assert_eq!(f.edge_count(), 1);
        assert!(f.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn drop_isolated_compacts() {
        let g = Graph::from_edges(5, [(1, 3, 1)]);
        let (c, map) = g.drop_isolated();
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.edge_count(), 1);
        assert_eq!(map, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_edge_out_of_range_panics() {
        let mut g = Graph::new(1);
        g.add_edge(NodeId(0), NodeId(5), 1);
    }
}
