//! Memoized placement rankings for maintenance cycles.
//!
//! Every placement algorithm in this crate is *prefix-consistent*: the
//! ranking for `k` replicas is the first `k` entries of the ranking for
//! any larger `k` (score-based algorithms sort the full node set before
//! truncating; the community-degree greedy picks each next node
//! independently of how many more will be taken; `Random` shuffles the
//! full node set then truncates). Rankings are also *dataset-independent*
//! — they depend only on `(algorithm, seed, graph)` — yet the serial
//! replication path used to recompute one per dataset per cycle, which
//! made ranking cost the dominant term of a maintenance cycle at scale.
//!
//! [`RankingCache`] computes the **full** ordering once per
//! `(algorithm, seed)` and hands out a shared slice; callers take
//! whatever prefix they need and apply their own owner / current-replica
//! / offline filtering.
//!
//! The one staleness rule is the [`CsrGraph::generation`]: a lookup on
//! any other graph than the memoized orderings were computed on flushes
//! them all. Every freeze and every [`CsrGraph::apply_delta`] mints a
//! fresh generation, so each churn delta recomputes the next ranking
//! asked for. Rankings never read the catalog, so catalog commits — and
//! the entry versions they advance (see `catalog.rs`) — cannot
//! invalidate an ordering. Every grow of a maintenance cycle between two
//! deltas re-slices the same memoized ordering.

use std::collections::HashMap;
use std::sync::Arc;

use scdn_graph::{CsrGraph, NodeId};

use crate::placement::PlacementAlgorithm;

/// One memoized full ordering.
struct Entry {
    /// [`CsrGraph::generation`] of the graph the ordering was computed on.
    graph_gen: u64,
    /// The complete ranking: every node of the graph, best first.
    order: Arc<Vec<NodeId>>,
}

/// Memoized full placement orderings keyed on `(algorithm, seed)`.
pub struct RankingCache {
    entries: HashMap<(PlacementAlgorithm, u64), Entry>,
}

impl Default for RankingCache {
    fn default() -> Self {
        RankingCache::new()
    }
}

impl RankingCache {
    /// An empty cache.
    pub fn new() -> RankingCache {
        RankingCache {
            entries: HashMap::new(),
        }
    }

    /// The full placement ordering of `csr` under `(algorithm, seed)`,
    /// plus whether it was served from cache. The ordering contains every
    /// node of the graph; any prefix of it is bit-identical to a direct
    /// `place` call with that prefix length (prefix consistency).
    pub fn full_ranking(
        &mut self,
        csr: &CsrGraph,
        algorithm: PlacementAlgorithm,
        seed: u64,
    ) -> (Arc<Vec<NodeId>>, bool) {
        let generation = csr.generation();
        let key = (algorithm, seed);
        if let Some(e) = self.entries.get(&key) {
            if e.graph_gen == generation {
                return (e.order.clone(), true);
            }
        }
        let order = Arc::new(algorithm.place(csr, csr.node_count(), seed));
        // Another generation: every memoized ordering (not just this
        // key's) is stale.
        if self.entries.values().any(|e| e.graph_gen != generation) {
            self.entries.clear();
        }
        self.entries.insert(
            key,
            Entry {
                graph_gen: generation,
                order: order.clone(),
            },
        );
        (order, false)
    }

    /// Number of memoized orderings (test/diagnostic surface).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_graph::{Graph, GraphDelta};

    fn line_graph(n: usize) -> CsrGraph {
        let mut g = Graph::new(n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), 1);
        }
        CsrGraph::from(&g)
    }

    #[test]
    fn second_call_is_a_hit_with_identical_order() {
        let csr = line_graph(12);
        let mut cache = RankingCache::new();
        let (a, hit_a) = cache.full_ranking(&csr, PlacementAlgorithm::NodeDegree, 7);
        let (b, hit_b) = cache.full_ranking(&csr, PlacementAlgorithm::NodeDegree, 7);
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12, "full ordering covers every node");
    }

    #[test]
    fn prefix_matches_direct_place() {
        let csr = line_graph(20);
        let mut cache = RankingCache::new();
        for algorithm in PlacementAlgorithm::PAPER_SET {
            let (full, _) = cache.full_ranking(&csr, algorithm, 13);
            for k in [1usize, 3, 7, 20] {
                assert_eq!(
                    full[..k.min(full.len())],
                    algorithm.place(&csr, k, 13)[..],
                    "{algorithm:?} prefix {k}"
                );
            }
        }
    }

    #[test]
    fn graph_generation_change_invalidates() {
        let mut cache = RankingCache::new();
        let small = line_graph(8);
        let (_, hit) = cache.full_ranking(&small, PlacementAlgorithm::NodeDegree, 1);
        assert!(!hit);
        // Same key, different graph: must recompute, and the stale entry
        // must not survive alongside the fresh one.
        let big = line_graph(9);
        let (order, hit) = cache.full_ranking(&big, PlacementAlgorithm::NodeDegree, 1);
        assert!(!hit, "generation change must miss");
        assert_eq!(order.len(), 9);
        assert_eq!(cache.len(), 1, "stale ordering flushed");
        let (_, hit) = cache.full_ranking(&big, PlacementAlgorithm::NodeDegree, 1);
        assert!(hit, "fresh graph now cached");
        // The old fingerprint guard was blind to equal-sized swaps; the
        // generation guard is not.
        let twin = line_graph(9);
        let (_, hit) = cache.full_ranking(&twin, PlacementAlgorithm::NodeDegree, 1);
        assert!(!hit, "equal-shape rebuild must still miss");
        // A delta mints a generation too, even one that moves no degree.
        let reinforced = twin.apply_delta(GraphDelta::new().add_edge(NodeId(0), NodeId(1), 1));
        let (_, hit) = cache.full_ranking(&reinforced, PlacementAlgorithm::NodeDegree, 1);
        assert!(!hit, "a delta-applied snapshot must miss");
    }

    #[test]
    fn distinct_seeds_are_distinct_entries() {
        let csr = line_graph(16);
        let mut cache = RankingCache::new();
        let (a, _) = cache.full_ranking(&csr, PlacementAlgorithm::Random, 1);
        let (b, _) = cache.full_ranking(&csr, PlacementAlgorithm::Random, 2);
        assert_eq!(cache.len(), 2);
        assert_ne!(a, b, "different seeds shuffle differently");
    }
}
