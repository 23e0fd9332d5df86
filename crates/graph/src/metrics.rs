//! Structural graph metrics: clustering coefficients on a frozen
//! [`CsrGraph`]; the mean degree of the [`Graph`] being built.
//!
//! The clustering coefficient is one of the paper's four replica-placement
//! keys (and is shown to be a *bad* one — Section VI-B), so its definition
//! here matches the paper's: the likelihood that two neighbors of a node are
//! themselves connected.

use crate::csr::CsrGraph;
use crate::graph::{Graph, NodeId};

/// Number of values present in both sorted slices, picking whichever of
/// linear merge (`|a| + |b|` steps) and per-element binary search
/// (`|small| · log |large|` steps) is estimated cheaper — on skewed degree
/// distributions a low-degree list against a hub should search, while two
/// similar lists should merge.
fn sorted_intersection_count(a: &[u32], b: &[u32]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    let log_large = usize::BITS - large.len().leading_zeros();
    if small.len() * (log_large as usize) < small.len() + large.len() {
        return small
            .iter()
            .filter(|x| large.binary_search(x).is_ok())
            .count();
    }
    let (mut i, mut j, mut count) = (0, 0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Local clustering coefficient of one node `v` (see
/// [`all_clustering_coefficients`] for the definition and for the whole
/// graph in one pass): for each neighbor `a`, intersect the later
/// neighbors of `v` with the neighbors of `a` — one adaptive intersection
/// per neighbor instead of a binary search per pair.
pub fn local_clustering_coefficient(g: &CsrGraph, v: NodeId) -> f64 {
    let neigh = g.neighbor_ids(v);
    let d = neigh.len();
    if d < 2 {
        return 0.0;
    }
    let mut links = 0;
    for (i, &a) in neigh.iter().enumerate() {
        links += sorted_intersection_count(&neigh[i + 1..], g.neighbor_ids(NodeId(a)));
    }
    2.0 * links as f64 / (d * (d - 1)) as f64
}

/// Triangle corner counts (closed neighbor pairs) for every node, in one
/// pass over a degree-ordered forward adjacency: each triangle is found
/// exactly once — at its lowest-ranked corner — and charged to all three
/// corners. `O(Σ_v fwd-deg(v)²) ≤ O(m^{3/2})` total, instead of a pair
/// loop per node; on skewed degree distributions the hub pair loops this
/// replaces dominate everything else.
fn triangle_corners(g: &CsrGraph) -> Vec<u64> {
    let n = g.node_count();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (g.degree(NodeId(v)), v));
    let mut rank = vec![0u32; n];
    for (r, &v) in order.iter().enumerate() {
        rank[v as usize] = r as u32;
    }
    // Forward adjacency in rank space: F(v) = ranks of neighbors ranked
    // above v, each segment sorted. Σ |F(v)| = m.
    let mut fwd_off = vec![0u32; n + 1];
    for v in 0..n {
        let rv = rank[v];
        let fdeg = g
            .neighbor_ids(NodeId(v as u32))
            .iter()
            .filter(|&&w| rank[w as usize] > rv)
            .count() as u32;
        fwd_off[rv as usize + 1] = fdeg;
    }
    for i in 0..n {
        fwd_off[i + 1] += fwd_off[i];
    }
    let mut fwd = vec![0u32; fwd_off[n] as usize];
    let mut cursor: Vec<u32> = fwd_off[..n].to_vec();
    for v in 0..n {
        let rv = rank[v] as usize;
        for &w in g.neighbor_ids(NodeId(v as u32)) {
            let rw = rank[w as usize];
            if rw > rv as u32 {
                fwd[cursor[rv] as usize] = rw;
                cursor[rv] += 1;
            }
        }
    }
    for rv in 0..n {
        fwd[fwd_off[rv] as usize..fwd_off[rv + 1] as usize].sort_unstable();
    }
    let mut corners = vec![0u64; n];
    for rv in 0..n {
        let (s, e) = (fwd_off[rv] as usize, fwd_off[rv + 1] as usize);
        for i in s..e {
            let rw = fwd[i] as usize;
            // Common forward neighbors of v and w all rank above w, and
            // F(v) is sorted with fwd[i] = w's rank, so the merge can
            // start right after i.
            let (mut p, mut q) = (i + 1, fwd_off[rw] as usize);
            let we = fwd_off[rw + 1] as usize;
            while p < e && q < we {
                match fwd[p].cmp(&fwd[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        corners[order[rv] as usize] += 1;
                        corners[order[rw] as usize] += 1;
                        corners[order[fwd[p] as usize] as usize] += 1;
                        p += 1;
                        q += 1;
                    }
                }
            }
        }
    }
    corners
}

/// Local clustering coefficient of every node:
/// `2 * triangles(v) / (deg(v) * (deg(v) - 1))`, and 0 when `deg(v) < 2`.
/// One forward triangle count serves all nodes.
pub fn all_clustering_coefficients(g: &CsrGraph) -> Vec<f64> {
    let corners = triangle_corners(g);
    g.nodes()
        .map(|v| {
            let d = g.degree(v);
            if d < 2 {
                0.0
            } else {
                2.0 * corners[v.index()] as f64 / (d * (d - 1)) as f64
            }
        })
        .collect()
}

/// Global clustering coefficient (transitivity):
/// `3 * triangles / connected triples`.
pub fn global_clustering_coefficient(g: &CsrGraph) -> f64 {
    let mut triples = 0u64;
    for v in g.nodes() {
        let d = g.degree(v) as u64;
        triples += d * d.saturating_sub(1) / 2;
    }
    // Each triangle contributes one closed pair at each of its 3 corners,
    // so the corner sum is already 3 × (#distinct triangles).
    let corners: u64 = triangle_corners(g).iter().sum();
    if triples == 0 {
        0.0
    } else {
        corners as f64 / triples as f64
    }
}

/// Mean degree (`2m / n`); 0 for the empty graph.
pub fn mean_degree(g: &Graph) -> f64 {
    if g.node_count() == 0 {
        0.0
    } else {
        2.0 * g.edge_count() as f64 / g.node_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_graphs::{arb_graph, frozen};
    use proptest::prelude::*;

    /// The adjacency-list pair loop the forward triangle count replaced:
    /// one `has_edge` binary search per neighbor pair.
    fn closed_pairs_reference(g: &Graph, v: NodeId) -> u64 {
        let neigh = g.neighbors(v);
        let mut links = 0;
        for (i, a) in neigh.iter().enumerate() {
            for b in &neigh[i + 1..] {
                if g.has_edge(a.to, b.to) {
                    links += 1;
                }
            }
        }
        links
    }

    fn clustering_reference(g: &Graph) -> Vec<f64> {
        g.nodes()
            .map(|v| {
                let d = g.degree(v);
                if d < 2 {
                    0.0
                } else {
                    2.0 * closed_pairs_reference(g, v) as f64 / (d * (d - 1)) as f64
                }
            })
            .collect()
    }

    /// Every clustering entry point against the pair-loop reference.
    fn assert_matches_reference(g: &Graph) {
        let c = CsrGraph::from(g);
        let cc = clustering_reference(g);
        assert_eq!(cc, all_clustering_coefficients(&c));
        for v in g.nodes() {
            assert_eq!(cc[v.index()], local_clustering_coefficient(&c, v));
        }
        let corners: u64 = g.nodes().map(|v| closed_pairs_reference(g, v)).sum();
        let triples: u64 = g
            .nodes()
            .map(|v| g.degree(v) as u64)
            .map(|d| d * d.saturating_sub(1) / 2)
            .sum();
        let global = if triples == 0 {
            0.0
        } else {
            corners as f64 / triples as f64
        };
        assert_eq!(global, global_clustering_coefficient(&c));
    }

    proptest! {
        #[test]
        fn clustering_bit_identical_to_reference(g in arb_graph(30, 90)) {
            assert_matches_reference(&g);
        }
    }

    #[test]
    fn clustering_bit_identical_to_reference_at_scale() {
        assert_matches_reference(&crate::generators::watts_strogatz(200, 6, 0.1, 3));
        // Skewed degrees: long hub rows against short leaf rows.
        assert_matches_reference(&crate::generators::barabasi_albert(300, 3, 5));
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let g = frozen(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        for v in g.nodes() {
            assert!((local_clustering_coefficient(&g, v) - 1.0).abs() < 1e-12);
        }
        assert!((global_clustering_coefficient(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let g = frozen(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        assert_eq!(local_clustering_coefficient(&g, NodeId(0)), 0.0);
        assert_eq!(all_clustering_coefficients(&g)[0], 0.0);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
    }

    #[test]
    fn clustering_low_degree_zero() {
        let g = frozen(2, [(0, 1, 1)]);
        assert_eq!(local_clustering_coefficient(&g, NodeId(0)), 0.0);
        assert_eq!(all_clustering_coefficients(&g), vec![0.0, 0.0]);
        assert_eq!(global_clustering_coefficient(&g), 0.0);
        assert_eq!(
            global_clustering_coefficient(&CsrGraph::from(&Graph::new(0))),
            0.0
        );
    }

    #[test]
    fn paw_graph_transitivity() {
        // Triangle 0-1-2 plus pendant 3 on 0.
        let g = frozen(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1)]);
        // triples: deg(0)=3 -> 3, deg(1)=2 -> 1, deg(2)=2 -> 1, deg(3)=1 -> 0 => 5
        // closed corners = 3 (one per triangle corner)
        assert!((global_clustering_coefficient(&g) - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn mean_degree_of_a_star() {
        let g = Graph::from_edges(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        assert!((mean_degree(&g) - 1.5).abs() < 1e-12);
    }
}
