//! k-core decomposition.
//!
//! The k-core (maximal subgraph where every node has degree ≥ k) identifies
//! the "stable collaboration core" of a coauthorship network — an
//! alternative trust heuristic to the paper's edge-weight pruning, used by
//! the extended placement ablations.

use crate::csr::CsrGraph;
use crate::graph::NodeId;

/// Core number of every node (the largest `k` such that the node belongs
/// to the k-core). Computed with the standard peeling algorithm in
/// `O(n + m)` using bucket sort.
pub fn core_numbers(g: &CsrGraph) -> Vec<u32> {
    let n = g.node_count();
    let mut degree: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket sort nodes by degree.
    let mut bins = vec![0usize; max_deg + 2];
    for &d in &degree {
        bins[d] += 1;
    }
    let mut start = 0usize;
    for b in bins.iter_mut() {
        let count = *b;
        *b = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut order = vec![0usize; n];
    for v in 0..n {
        pos[v] = bins[degree[v]];
        order[pos[v]] = v;
        bins[degree[v]] += 1;
    }
    // Restore bin starts.
    for d in (1..bins.len()).rev() {
        bins[d] = bins[d - 1];
    }
    bins[0] = 0;
    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = order[i];
        core[v] = degree[v] as u32;
        for &u in g.neighbor_ids(NodeId(v as u32)) {
            let u = u as usize;
            if degree[u] > degree[v] {
                // Move u one bucket down: swap with the first node of its
                // current bucket.
                let du = degree[u];
                let pu = pos[u];
                let pw = bins[du];
                let w = order[pw];
                if u != w {
                    order[pu] = w;
                    order[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bins[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::complete;
    use crate::graph::Graph;
    use crate::test_graphs::frozen;

    #[test]
    fn clique_core_numbers() {
        let g = CsrGraph::from(&complete(5));
        assert_eq!(core_numbers(&g), vec![4, 4, 4, 4, 4]);
    }

    #[test]
    fn path_is_one_core() {
        let g = frozen(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        assert_eq!(core_numbers(&g), vec![1, 1, 1, 1]);
    }

    #[test]
    fn clique_with_pendant() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let g = frozen(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1)]);
        let c = core_numbers(&g);
        assert_eq!(c[0], 2);
        assert_eq!(c[1], 2);
        assert_eq!(c[2], 2);
        assert_eq!(c[3], 1);
    }

    #[test]
    fn isolated_nodes_are_zero_core() {
        let g = frozen(3, [(0, 1, 1)]);
        assert_eq!(core_numbers(&g), vec![1, 1, 0]);
    }

    #[test]
    fn two_tier_structure() {
        // A 4-clique with a path hanging off it.
        let g = frozen(
            7,
            [
                (0, 1, 1),
                (0, 2, 1),
                (0, 3, 1),
                (1, 2, 1),
                (1, 3, 1),
                (2, 3, 1),
                (3, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
            ],
        );
        let c = core_numbers(&g);
        assert_eq!(&c[..4], &[3, 3, 3, 3]);
        assert_eq!(&c[4..], &[1, 1, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from(&Graph::new(0));
        assert!(core_numbers(&g).is_empty());
    }
}
