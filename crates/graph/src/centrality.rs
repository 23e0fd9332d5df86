//! Node centrality measures on a frozen [`CsrGraph`]: degree, closeness,
//! and Brandes betweenness (sequential and parallel).
//!
//! Section V-D of the paper lists "centrality and betweenness values derived
//! from the social connectivity graph" as social placement metrics; the
//! extended placement algorithms in `scdn-alloc` rank nodes by these scores.
//! Every BFS-based kernel sweeps its sources through one reusable
//! [`TraversalScratch`], so a sweep allocates once, not once per source.

use crate::csr::{CsrGraph, TraversalScratch, UNVISITED};
use crate::graph::NodeId;
use crate::parallel::par_map_reduce_ranges;

/// Degree centrality: `deg(v) / (n - 1)` (0 when `n < 2`).
pub fn degree_centrality(g: &CsrGraph) -> Vec<f64> {
    let n = g.node_count();
    if n < 2 {
        return vec![0.0; n];
    }
    let denom = (n - 1) as f64;
    g.nodes().map(|v| g.degree(v) as f64 / denom).collect()
}

/// Closeness centrality with the Wasserman–Faust correction for
/// disconnected graphs:
/// `C(v) = ((r - 1) / (n - 1)) * ((r - 1) / sum_dist)` where `r` is the
/// number of nodes reachable from `v`.
pub fn closeness(g: &CsrGraph) -> Vec<f64> {
    let n = g.node_count();
    let mut out = vec![0.0; n];
    if n < 2 {
        return out;
    }
    let mut scratch = TraversalScratch::new();
    for v in g.nodes() {
        scratch.bfs(g, &[v]);
        let mut reach = 0u64;
        let mut total = 0u64;
        for &u in scratch.visited() {
            let d = scratch.distances()[u as usize];
            if d > 0 {
                reach += 1;
                total += d as u64;
            }
        }
        if total > 0 {
            let r = reach as f64;
            out[v.index()] = (r / (n as f64 - 1.0)) * (r / total as f64);
        }
    }
    out
}

/// Betweenness accumulation from a single source (one Brandes
/// iteration) using the reusable scratch: flat predecessor slots bounded
/// by the graph's own row starts (a node's BFS-tree predecessors are a
/// subset of its neighbors, so `row_start(w)..row_start(w) + degree(w)`
/// bounds `w`'s slots even though the chunked columns have no single flat
/// offsets array) and the visit-order vector doubling as queue, stack,
/// and touched list. No allocation after the scratch's first growth.
fn brandes_from_source(g: &CsrGraph, s: NodeId, scratch: &mut TraversalScratch, bc: &mut [f64]) {
    scratch.reset(g);
    let TraversalScratch {
        dist,
        sigma,
        delta,
        pred_len,
        pred_buf,
        order,
        ..
    } = scratch;
    sigma[s.index()] = 1.0;
    dist[s.index()] = 0;
    order.push(s.0);
    let mut head = 0;
    while head < order.len() {
        let v = order[head] as usize;
        head += 1;
        let dv = dist[v];
        for &w in g.neighbor_ids(NodeId(v as u32)) {
            let wi = w as usize;
            if dist[wi] == UNVISITED {
                dist[wi] = dv + 1;
                order.push(w);
            }
            if dist[wi] == dv + 1 {
                sigma[wi] += sigma[v];
                pred_buf[g.row_start(NodeId(w)) + pred_len[wi] as usize] = v as u32;
                pred_len[wi] += 1;
            }
        }
    }
    // Reverse visit order = the Brandes stack's pop order.
    for &w in order.iter().rev() {
        let wi = w as usize;
        let start = g.row_start(NodeId(w));
        for &v in &pred_buf[start..start + pred_len[wi] as usize] {
            let vi = v as usize;
            delta[vi] += sigma[vi] / sigma[wi] * (1.0 + delta[wi]);
        }
        if wi != s.index() {
            bc[wi] += delta[wi];
        }
    }
}

/// Exact betweenness centrality (Brandes 2001), sequential.
///
/// Undirected convention: each pair is counted twice by the algorithm, so
/// scores are halved before returning.
pub fn betweenness(g: &CsrGraph) -> Vec<f64> {
    let n = g.node_count();
    let mut bc = vec![0.0; n];
    let mut scratch = TraversalScratch::new();
    for s in g.nodes() {
        brandes_from_source(g, s, &mut scratch, &mut bc);
    }
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

/// Exact betweenness centrality, parallel over sources (crossbeam scoped
/// threads; each worker owns one scratch and accumulates privately over a
/// fixed contiguous source range, and the accumulators merge in worker
/// order, so results are machine-deterministic). Matches [`betweenness`]
/// up to floating-point summation order.
pub fn betweenness_parallel(g: &CsrGraph) -> Vec<f64> {
    let n = g.node_count();
    let (mut bc, _) = par_map_reduce_ranges(
        n,
        || (vec![0.0f64; n], TraversalScratch::new()),
        |i, acc| {
            let (bc, scratch) = acc;
            brandes_from_source(g, NodeId(i as u32), scratch, bc);
        },
        |(mut a, scratch), (b, _)| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            (a, scratch)
        },
    );
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

/// Indices of the top-`k` nodes by `score` (descending), ties broken by
/// smaller node id for determinism.
pub fn top_k_by_score(scores: &[f64], k: usize) -> Vec<NodeId> {
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx.into_iter().take(k).map(|i| NodeId(i as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::test_graphs::{arb_graph, bfs_reference, frozen};
    use proptest::prelude::*;

    /// The adjacency-list closeness [`closeness`] replaced.
    fn closeness_reference(g: &Graph) -> Vec<f64> {
        let n = g.node_count();
        let mut out = vec![0.0; n];
        if n < 2 {
            return out;
        }
        for v in g.nodes() {
            let mut reach = 0u64;
            let mut total = 0u64;
            for d in bfs_reference(g, &[v]).into_iter().flatten() {
                if d > 0 {
                    reach += 1;
                    total += d as u64;
                }
            }
            if total > 0 {
                let r = reach as f64;
                out[v.index()] = (r / (n as f64 - 1.0)) * (r / total as f64);
            }
        }
        out
    }

    /// One textbook Brandes iteration over adjacency lists: a `VecDeque`,
    /// a stack, and one predecessor `Vec` per node, all allocated per
    /// source. [`brandes_from_source`] must visit, record predecessors and
    /// accumulate in exactly this order.
    fn brandes_reference(g: &Graph, s: NodeId, bc: &mut [f64]) {
        let n = g.node_count();
        let mut stack: Vec<NodeId> = Vec::with_capacity(n);
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![-1i32; n];
        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            let dv = dist[v.index()];
            for e in g.neighbors(v) {
                let w = e.to;
                if dist[w.index()] < 0 {
                    dist[w.index()] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w.index()] == dv + 1 {
                    sigma[w.index()] += sigma[v.index()];
                    preds[w.index()].push(v);
                }
            }
        }
        let mut delta = vec![0.0f64; n];
        while let Some(w) = stack.pop() {
            for &v in &preds[w.index()] {
                delta[v.index()] += sigma[v.index()] / sigma[w.index()] * (1.0 + delta[w.index()]);
            }
            if w != s {
                bc[w.index()] += delta[w.index()];
            }
        }
    }

    fn betweenness_reference(g: &Graph) -> Vec<f64> {
        let mut bc = vec![0.0; g.node_count()];
        for s in g.nodes() {
            brandes_reference(g, s, &mut bc);
        }
        for b in &mut bc {
            *b /= 2.0;
        }
        bc
    }

    /// The parallel reference: the same fixed source ranges and worker
    /// order as [`betweenness_parallel`], over the reference iteration.
    fn betweenness_parallel_reference(g: &Graph) -> Vec<f64> {
        let n = g.node_count();
        let mut bc = par_map_reduce_ranges(
            n,
            || vec![0.0f64; n],
            |i, acc| brandes_reference(g, NodeId(i as u32), acc),
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        for b in &mut bc {
            *b /= 2.0;
        }
        bc
    }

    proptest! {
        #[test]
        fn closeness_bit_identical_to_reference(g in arb_graph(35, 100)) {
            let c = CsrGraph::from(&g);
            prop_assert_eq!(closeness_reference(&g), closeness(&c));
        }

        #[test]
        fn betweenness_bit_identical_to_reference(g in arb_graph(30, 90)) {
            let c = CsrGraph::from(&g);
            prop_assert_eq!(betweenness_reference(&g), betweenness(&c));
            prop_assert_eq!(betweenness_parallel_reference(&g), betweenness_parallel(&c));
        }
    }

    fn path5() -> CsrGraph {
        frozen(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    }

    #[test]
    fn degree_centrality_star() {
        let g = frozen(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let dc = degree_centrality(&g);
        assert!((dc[0] - 1.0).abs() < 1e-12);
        assert!((dc[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn betweenness_path_center() {
        let bc = betweenness(&path5());
        // Path betweenness: endpoints 0, then 3, 4, 3.
        assert!((bc[0]).abs() < 1e-9);
        assert!((bc[1] - 3.0).abs() < 1e-9);
        assert!((bc[2] - 4.0).abs() < 1e-9);
        assert!((bc[3] - 3.0).abs() < 1e-9);
        assert!((bc[4]).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = CsrGraph::from(&crate::generators::barabasi_albert(200, 3, 42));
        let seq = betweenness(&g);
        let par = betweenness_parallel(&g);
        for (a, b) in seq.iter().zip(&par) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn closeness_center_of_path_highest() {
        let c = closeness(&path5());
        assert!(c[2] > c[1] && c[1] > c[0]);
    }

    #[test]
    fn closeness_disconnected_is_finite() {
        let g = frozen(4, [(0, 1, 1)]);
        let c = closeness(&g);
        assert!(c.iter().all(|x| x.is_finite()));
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn top_k_deterministic_ties() {
        let scores = vec![1.0, 2.0, 2.0, 0.5];
        let top = top_k_by_score(&scores, 2);
        assert_eq!(top, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn betweenness_empty_and_single() {
        assert!(betweenness(&CsrGraph::from(&Graph::new(0))).is_empty());
        assert_eq!(betweenness(&CsrGraph::from(&Graph::new(1))), vec![0.0]);
    }

    #[test]
    fn kernels_bit_identical_to_reference_at_scale() {
        // Larger than the proptest graphs: hubs, long predecessor lists.
        let g = crate::generators::barabasi_albert(300, 3, 31);
        let c = CsrGraph::from(&g);
        assert_eq!(betweenness_reference(&g), betweenness(&c));
        assert_eq!(betweenness_parallel_reference(&g), betweenness_parallel(&c));
        assert_eq!(closeness_reference(&g), closeness(&c));
    }
}
