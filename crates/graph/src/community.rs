//! Community detection and modularity.
//!
//! Section V-D / VI-C: the allocation servers "parse trusted subgraphs to
//! identify groups of users with similar data usage requirements". We
//! provide weighted label propagation and Newman modularity to score a
//! partition.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

use crate::graph::{Graph, NodeId};

/// A node partition: `assignment[v]` is the community id of `v` (dense ids).
#[derive(Clone, Debug)]
pub struct Partition {
    /// Per-node community id.
    pub assignment: Vec<u32>,
    /// Number of communities.
    pub count: usize,
}

impl Partition {
    /// Build a partition from raw (possibly sparse) labels, compacting to
    /// dense community ids in first-seen order.
    pub fn from_labels(labels: &[u32]) -> Partition {
        let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut assignment = Vec::with_capacity(labels.len());
        for &l in labels {
            let next = remap.len() as u32;
            let id = *remap.entry(l).or_insert(next);
            assignment.push(id);
        }
        Partition {
            count: remap.len(),
            assignment,
        }
    }

    /// Members of community `c`.
    pub fn members(&self, c: u32) -> Vec<NodeId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == c).then_some(NodeId(i as u32)))
            .collect()
    }

    /// Sizes of all communities.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.count];
        for &l in &self.assignment {
            sizes[l as usize] += 1;
        }
        sizes
    }
}

/// Weighted Newman modularity `Q` of a partition.
///
/// `Q = (1/2W) Σ_ij [A_ij − s_i s_j / 2W] δ(c_i, c_j)` where `W` is the
/// total edge weight and `s` the weighted degree.
pub fn modularity(g: &Graph, p: &Partition) -> f64 {
    let two_w = 2.0 * g.total_weight() as f64;
    if two_w == 0.0 {
        return 0.0;
    }
    // Intra-community weight and community strength sums.
    let mut intra = vec![0.0f64; p.count];
    let mut strength = vec![0.0f64; p.count];
    for (a, b, w) in g.edges() {
        if p.assignment[a.index()] == p.assignment[b.index()] {
            intra[p.assignment[a.index()] as usize] += w as f64;
        }
    }
    for v in g.nodes() {
        strength[p.assignment[v.index()] as usize] += g.strength(v) as f64;
    }
    let mut q = 0.0;
    for c in 0..p.count {
        q += intra[c] / (two_w / 2.0) - (strength[c] / two_w).powi(2);
    }
    q
}

/// Weighted asynchronous label propagation (deterministic given `seed`).
///
/// Each node repeatedly adopts the label with the highest total edge weight
/// among its neighbors (ties broken by smallest label). Stops when no label
/// changes or after `max_iters` sweeps.
pub fn label_propagation(g: &Graph, seed: u64, max_iters: usize) -> Partition {
    let n = g.node_count();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    if n == 0 {
        return Partition {
            assignment: labels,
            count: 0,
        };
    }
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weight_by_label: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for _ in 0..max_iters {
        order.shuffle(&mut rng);
        let mut changed = false;
        for &v in &order {
            let neigh = g.neighbors(NodeId(v as u32));
            if neigh.is_empty() {
                continue;
            }
            weight_by_label.clear();
            for e in neigh {
                *weight_by_label.entry(labels[e.to.index()]).or_insert(0) += e.weight as u64;
            }
            let best = weight_by_label
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
                .map(|(&l, _)| l)
                .expect("non-empty neighbor labels");
            if best != labels[v] {
                labels[v] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Partition::from_labels(&labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::planted_partition;
    use crate::graph::Graph;

    #[test]
    fn partition_from_sparse_labels() {
        let p = Partition::from_labels(&[7, 3, 7, 9]);
        assert_eq!(p.count, 3);
        assert_eq!(p.assignment, vec![0, 1, 0, 2]);
        assert_eq!(p.members(0), vec![NodeId(0), NodeId(2)]);
        assert_eq!(p.sizes(), vec![2, 1, 1]);
    }

    #[test]
    fn modularity_of_two_cliques() {
        // Two triangles joined by one edge; the natural split has high Q.
        let g = Graph::from_edges(
            6,
            [
                (0, 1, 1),
                (1, 2, 1),
                (0, 2, 1),
                (3, 4, 1),
                (4, 5, 1),
                (3, 5, 1),
                (2, 3, 1),
            ],
        );
        let good = Partition::from_labels(&[0, 0, 0, 1, 1, 1]);
        let bad = Partition::from_labels(&[0, 1, 0, 1, 0, 1]);
        assert!(modularity(&g, &good) > modularity(&g, &bad));
        assert!(modularity(&g, &good) > 0.3);
    }

    #[test]
    fn modularity_single_community_zero_or_less() {
        let g = Graph::from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let p = Partition::from_labels(&[0, 0, 0]);
        assert!(modularity(&g, &p).abs() < 1e-9);
    }

    #[test]
    fn label_propagation_separates_cliques() {
        let g = planted_partition(4, 25, 0.8, 0.005, 7);
        let p = label_propagation(&g, 1, 50);
        // Should find roughly 4 communities (allow some merging noise).
        assert!(p.count >= 2 && p.count <= 12, "count = {}", p.count);
        let q = modularity(&g, &p);
        assert!(q > 0.4, "q = {q}");
    }

    #[test]
    fn empty_graph_partitions() {
        let g = Graph::new(0);
        assert_eq!(label_propagation(&g, 0, 10).count, 0);
    }
}
