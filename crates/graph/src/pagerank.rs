//! PageRank by power iteration on a frozen [`CsrGraph`] (used as an
//! alternative "important node" score in the extended placement
//! ablations).

use crate::csr::CsrGraph;

/// Damping factor: the probability of following an edge.
const DAMPING: f64 = 0.85;
/// The iteration stops once the L1 change between iterations drops below
/// this.
const TOLERANCE: f64 = 1e-9;
/// Hard iteration cap.
const MAX_ITERS: usize = 200;

/// Weighted PageRank on the undirected graph (each undirected edge acts as
/// two directed edges; transition probability ∝ edge weight).
///
/// Returns a probability vector summing to 1 (for non-empty graphs).
/// Dangling (isolated) nodes redistribute uniformly.
pub fn pagerank(g: &CsrGraph) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];
    let strengths: Vec<f64> = g.nodes().map(|v| g.strength(v) as f64).collect();
    for _ in 0..MAX_ITERS {
        let mut dangling_mass = 0.0;
        for (v, &s) in strengths.iter().enumerate() {
            if s == 0.0 {
                dangling_mass += rank[v];
            }
        }
        let base = (1.0 - DAMPING) * uniform + DAMPING * dangling_mass * uniform;
        next.iter_mut().for_each(|x| *x = base);
        for v in g.nodes() {
            let s = strengths[v.index()];
            if s == 0.0 {
                continue;
            }
            let share = DAMPING * rank[v.index()] / s;
            for (&to, &w) in g.neighbor_ids(v).iter().zip(g.neighbor_weights(v)) {
                next[to as usize] += share * w as f64;
            }
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < TOLERANCE {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, NodeId};
    use crate::test_graphs::arb_graph;
    use proptest::prelude::*;

    /// The adjacency-list power iteration [`pagerank`] replaced: same node
    /// and edge order, reading `(to, weight)` pairs instead of the two
    /// CSR columns.
    fn pagerank_reference(g: &Graph) -> Vec<f64> {
        let n = g.node_count();
        if n == 0 {
            return Vec::new();
        }
        let uniform = 1.0 / n as f64;
        let mut rank = vec![uniform; n];
        let mut next = vec![0.0; n];
        let strengths: Vec<f64> = g.nodes().map(|v| g.strength(v) as f64).collect();
        for _ in 0..MAX_ITERS {
            let mut dangling_mass = 0.0;
            for (v, &s) in strengths.iter().enumerate() {
                if s == 0.0 {
                    dangling_mass += rank[v];
                }
            }
            let base = (1.0 - DAMPING) * uniform + DAMPING * dangling_mass * uniform;
            next.iter_mut().for_each(|x| *x = base);
            for v in g.nodes() {
                let s = strengths[v.index()];
                if s == 0.0 {
                    continue;
                }
                let share = DAMPING * rank[v.index()] / s;
                for e in g.neighbors(v) {
                    next[e.to.index()] += share * e.weight as f64;
                }
            }
            let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut rank, &mut next);
            if delta < TOLERANCE {
                break;
            }
        }
        rank
    }

    fn ranks(g: &Graph) -> Vec<f64> {
        pagerank(&CsrGraph::from(g))
    }

    proptest! {
        #[test]
        fn pagerank_bit_identical_to_reference(g in arb_graph(35, 100)) {
            prop_assert_eq!(pagerank_reference(&g), ranks(&g));
        }
    }

    #[test]
    fn sums_to_one() {
        let g = crate::generators::barabasi_albert(100, 2, 5);
        let pr = ranks(&g);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total = {total}");
    }

    #[test]
    fn symmetric_graph_uniform() {
        let g = crate::generators::complete(5);
        let pr = ranks(&g);
        for x in &pr {
            assert!((x - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn hub_outranks_leaves() {
        let g = Graph::from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let pr = ranks(&g);
        assert!(pr[0] > pr[1]);
        assert!(pr[0] > pr[3]);
    }

    #[test]
    fn isolated_nodes_keep_base_rank() {
        let g = Graph::from_edges(3, [(0, 1, 1)]); // node 2 isolated
        let pr = ranks(&g);
        assert!(pr[2] > 0.0);
        let total: f64 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weight_bias() {
        // 0-1 heavy, 0-2 light: node 1 should outrank node 2.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 10);
        g.add_edge(NodeId(0), NodeId(2), 1);
        let pr = ranks(&g);
        assert!(pr[1] > pr[2]);
    }

    #[test]
    fn empty_graph() {
        assert!(ranks(&Graph::new(0)).is_empty());
    }

    #[test]
    fn pagerank_bit_identical_to_reference_at_scale() {
        let g = crate::generators::barabasi_albert(200, 3, 9);
        assert_eq!(pagerank_reference(&g), ranks(&g));
    }
}
