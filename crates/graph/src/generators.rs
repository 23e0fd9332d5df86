//! Random graph generators used by tests, benches, and the synthetic
//! workloads: Barabási–Albert preferential attachment, Watts–Strogatz small
//! worlds, planted-partition community graphs, and a clique helper (the
//! 86-author mega-publication of the case study is a clique in the
//! coauthorship graph). Erdős–Rényi and the complete graph are test
//! fixtures of this crate only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Graph, NodeId};

/// Erdős–Rényi `G(n, p)`: each of the `n (n-1) / 2` pairs becomes an edge
/// independently with probability `p`.
#[cfg(test)]
pub(crate) fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), 1);
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment: start from an `m`-clique and
/// attach each new node to `m` existing nodes chosen ∝ degree.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1, "m must be >= 1");
    assert!(n > m, "need n > m");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    // Seed clique over nodes 0..=m.
    for a in 0..=m {
        for b in (a + 1)..=m {
            g.add_edge(NodeId(a as u32), NodeId(b as u32), 1);
        }
    }
    // Repeated-endpoint list: sampling uniformly from it = degree-biased.
    let mut endpoints: Vec<u32> = Vec::with_capacity(4 * n * m);
    for (a, b, _) in g.edges() {
        endpoints.push(a.0);
        endpoints.push(b.0);
    }
    for v in (m + 1)..n {
        let mut targets = Vec::with_capacity(m);
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != v as u32 && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            g.add_edge(NodeId(v as u32), NodeId(t), 1);
            endpoints.push(v as u32);
            endpoints.push(t);
        }
    }
    g
}

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
/// side rewired with probability `beta`.
pub fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> Graph {
    assert!(k >= 1 && 2 * k < n, "need 1 <= k and 2k < n");
    assert!((0.0..=1.0).contains(&beta));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for v in 0..n {
        for j in 1..=k {
            let mut target = ((v + j) % n) as u32;
            if rng.gen_bool(beta) {
                // Rewire to a uniform non-self, non-duplicate node.
                for _ in 0..32 {
                    let cand = rng.gen_range(0..n) as u32;
                    if cand != v as u32 && !g.has_edge(NodeId(v as u32), NodeId(cand)) {
                        target = cand;
                        break;
                    }
                }
            }
            g.add_edge(NodeId(v as u32), NodeId(target), 1);
        }
    }
    g
}

/// Planted-partition graph: `groups` communities of `size` nodes; intra-pair
/// edge probability `p_in`, inter-pair probability `p_out`.
pub fn planted_partition(groups: usize, size: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
    let n = groups * size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            let p = if a / size == b / size { p_in } else { p_out };
            if rng.gen_bool(p) {
                g.add_edge(NodeId(a as u32), NodeId(b as u32), 1);
            }
        }
    }
    g
}

/// Add a clique over `members` to an existing graph (weights accumulate).
/// Models a single multi-author publication in a coauthorship graph.
pub fn add_clique(g: &mut Graph, members: &[NodeId], w: u32) {
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            g.add_edge(a, b, w);
        }
    }
}

/// Complete graph on `n` nodes.
#[cfg(test)]
pub(crate) fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    let members: Vec<NodeId> = g.nodes().collect();
    add_clique(&mut g, &members, 1);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;

    #[test]
    fn er_edge_count_in_expectation() {
        let g = erdos_renyi(100, 0.1, 1);
        let expected = 0.1 * (100.0 * 99.0 / 2.0);
        let m = g.edge_count() as f64;
        assert!((m - expected).abs() < expected * 0.35, "m = {m}");
    }

    #[test]
    fn er_p_zero_and_one() {
        assert_eq!(erdos_renyi(10, 0.0, 2).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 2).edge_count(), 45);
    }

    #[test]
    fn ba_connected_with_hubs() {
        let g = barabasi_albert(300, 2, 3);
        assert_eq!(connected_components(&g).count, 1);
        // Power-law-ish: max degree should be well above the mean.
        let mean = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(g.max_degree() as f64 > 3.0 * mean);
    }

    #[test]
    fn ba_deterministic_by_seed() {
        let a = barabasi_albert(100, 2, 9);
        let b = barabasi_albert(100, 2, 9);
        assert_eq!(a.edge_count(), b.edge_count());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn ws_degree_regular_when_no_rewire() {
        let g = watts_strogatz(20, 2, 0.0, 4);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn ws_rewiring_preserves_edge_count() {
        let g = watts_strogatz(50, 3, 0.5, 5);
        // Rewiring can collide (skip), so allow small shortfall.
        assert!(g.edge_count() <= 150 && g.edge_count() >= 130);
    }

    #[test]
    fn planted_partition_denser_inside() {
        let g = planted_partition(2, 30, 0.5, 0.01, 6);
        let mut intra = 0;
        let mut inter = 0;
        for (a, b, _) in g.edges() {
            if a.index() / 30 == b.index() / 30 {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > inter * 5, "intra={intra} inter={inter}");
    }

    #[test]
    fn clique_helper() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }
}
