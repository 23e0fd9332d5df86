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
//! / offline filtering. A [`CsrGraph::generation`] mismatch flushes the
//! cache (the graph changed under us — the long-deleted
//! `CsrGraph::fingerprint` guard collided on equal-sized swaps, which
//! is why the generation replaced it).
//!
//! Rankings never read the catalog, so catalog commits — and the shard
//! epochs they advance (see [`crate::epoch`]) — cannot invalidate an
//! ordering: the graph generation is the *only* guard this cache
//! needs, and it is deliberately coarser than any shard epoch. Every
//! grow of a maintenance cycle re-slices the same memoized ordering; only
//! a structural graph change recomputes it.
//!
//! Under churn, [`note_delta`](RankingCache::note_delta) marks only the
//! *affected* `(algorithm, seed)` entries stale instead of clearing the
//! map: `Random` ranks the bare node-id list and survives any pure edge
//! churn; the unweighted structural algorithms survive weight-only
//! reinforcement. Survivors are re-stamped to the new generation so the
//! next [`full_ranking`](RankingCache::full_ranking) hits.
//!
//! The CSR's chunked copy-on-write storage does not interact with this
//! cache: generations stay globally monotonic across the O(touched)
//! delta path (a delta-applied snapshot gets a *fresh* generation, never
//! its base's), and the change classes `note_delta` inspects come from
//! the [`DeltaSummary`](scdn_graph::DeltaSummary), which is computed from
//! the ops — not from which chunks happened to be rewritten. Keying and
//! invalidation are layout-independent.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use scdn_graph::{CsrGraph, NodeId};

use crate::placement::PlacementAlgorithm;

/// One memoized full ordering.
struct Entry {
    /// [`CsrGraph::generation`] of the graph the ordering was computed on.
    graph_gen: u64,
    /// The complete ranking: every node of the graph, best first.
    order: Arc<Vec<NodeId>>,
}

/// Outcome of a scoped delta invalidation (for telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankingRetention {
    /// Orderings provably unaffected by the delta, re-stamped to the new
    /// generation.
    pub retained: u64,
    /// Orderings dropped because the delta can change them.
    pub evicted: u64,
}

/// Memoized full placement orderings keyed on `(algorithm, seed)`.
pub struct RankingCache {
    entries: Mutex<HashMap<(PlacementAlgorithm, u64), Entry>>,
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
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// The full placement ordering of `csr` under `(algorithm, seed)`,
    /// plus whether it was served from cache. The ordering contains every
    /// node of the graph; any prefix of it is bit-identical to a direct
    /// `place` call with that prefix length (prefix consistency).
    pub fn full_ranking(
        &self,
        csr: &CsrGraph,
        algorithm: PlacementAlgorithm,
        seed: u64,
    ) -> (Arc<Vec<NodeId>>, bool) {
        let generation = csr.generation();
        let key = (algorithm, seed);
        if let Some(e) = self.entries.lock().get(&key) {
            if e.graph_gen == generation {
                return (e.order.clone(), true);
            }
        }
        // Compute outside the lock: rankings can be expensive (Brandes
        // betweenness, closeness) and may themselves use the parallel pool.
        let order = Arc::new(algorithm.place(csr, csr.node_count(), seed));
        let mut entries = self.entries.lock();
        // An unannounced generation change means the caller swapped
        // graphs without going through `note_delta`: every memoized
        // ordering (not just this key's) is garbage.
        if entries.values().any(|e| e.graph_gen != generation) {
            entries.clear();
        }
        entries.insert(
            key,
            Entry {
                graph_gen: generation,
                order: order.clone(),
            },
        );
        (order, false)
    }

    /// Scoped invalidation for a graph change `old_generation → new`
    /// produced by [`CsrGraph::apply_delta`]: drop only the orderings the
    /// delta can affect and re-stamp the provable survivors onto `new`'s
    /// generation (so subsequent [`full_ranking`] calls hit).
    ///
    /// Affectedness is conservative per algorithm class:
    /// - node activation can reorder *every* algorithm (the candidate list
    ///   itself changes) — drop all;
    /// - a structural edge change affects every
    ///   [`edge_sensitive`](PlacementAlgorithm::edge_sensitive) algorithm
    ///   (all but `Random`);
    /// - a weight-only delta affects only the
    ///   [`weight_sensitive`](PlacementAlgorithm::weight_sensitive) ones.
    ///
    /// Entries stamped with a generation other than `old_generation`, or a
    /// `new` without a delta summary, fall back to dropping everything.
    ///
    /// [`full_ranking`]: RankingCache::full_ranking
    pub fn note_delta(&self, old_generation: u64, new: &CsrGraph) -> RankingRetention {
        let mut out = RankingRetention::default();
        let mut entries = self.entries.lock();
        let summary = new.last_delta();
        entries.retain(|&(algorithm, _), entry| {
            let keep = match summary {
                Some(s) if entry.graph_gen == old_generation && s.nodes_added == 0 => {
                    if s.structural {
                        !algorithm.edge_sensitive()
                    } else {
                        !(s.weights_changed && algorithm.weight_sensitive())
                    }
                }
                _ => false,
            };
            if keep {
                entry.graph_gen = new.generation();
                out.retained += 1;
            } else {
                out.evicted += 1;
            }
            keep
        });
        out
    }

    /// Number of memoized orderings (test/diagnostic surface).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `true` if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_graph::Graph;

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
        let cache = RankingCache::new();
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
        let cache = RankingCache::new();
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
        let cache = RankingCache::new();
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
    }

    #[test]
    fn note_delta_keeps_random_across_edge_churn() {
        use scdn_graph::GraphDelta;
        let cache = RankingCache::new();
        let csr = line_graph(10);
        cache.full_ranking(&csr, PlacementAlgorithm::Random, 1);
        cache.full_ranking(&csr, PlacementAlgorithm::Random, 2);
        cache.full_ranking(&csr, PlacementAlgorithm::NodeDegree, 1);
        cache.full_ranking(&csr, PlacementAlgorithm::WeightedDegree, 1);

        let mut d = GraphDelta::new();
        d.remove_edge(NodeId(3), NodeId(4));
        let new = csr.apply_delta(&d);
        let out = cache.note_delta(csr.generation(), &new);
        assert_eq!(out.retained, 2, "both Random seeds survive edge churn");
        assert_eq!(out.evicted, 2);
        let (_, hit) = cache.full_ranking(&new, PlacementAlgorithm::Random, 1);
        assert!(hit, "survivor re-stamped to the new generation");
        let (_, hit) = cache.full_ranking(&new, PlacementAlgorithm::NodeDegree, 1);
        assert!(!hit, "edge-sensitive ordering was dropped");
    }

    #[test]
    fn note_delta_weight_only_keeps_structural_algorithms() {
        use scdn_graph::GraphDelta;
        let cache = RankingCache::new();
        let csr = line_graph(10);
        cache.full_ranking(&csr, PlacementAlgorithm::NodeDegree, 1);
        cache.full_ranking(&csr, PlacementAlgorithm::ClusteringCoefficient, 1);
        cache.full_ranking(&csr, PlacementAlgorithm::WeightedDegree, 1);
        cache.full_ranking(&csr, PlacementAlgorithm::PageRank, 1);

        let mut d = GraphDelta::new();
        d.add_edge(NodeId(0), NodeId(1), 7); // reinforce an existing edge
        let new = csr.apply_delta(&d);
        let out = cache.note_delta(csr.generation(), &new);
        assert_eq!(out.retained, 2, "unweighted structural rankings survive");
        assert_eq!(out.evicted, 2, "weight-sensitive rankings dropped");
        let (_, hit) = cache.full_ranking(&new, PlacementAlgorithm::NodeDegree, 1);
        assert!(hit);
        let (_, hit) = cache.full_ranking(&new, PlacementAlgorithm::WeightedDegree, 1);
        assert!(!hit);
    }

    #[test]
    fn note_delta_node_activation_drops_everything() {
        use scdn_graph::GraphDelta;
        let cache = RankingCache::new();
        let csr = line_graph(6);
        cache.full_ranking(&csr, PlacementAlgorithm::Random, 1);
        cache.full_ranking(&csr, PlacementAlgorithm::NodeDegree, 1);
        let mut d = GraphDelta::new();
        d.add_nodes(2);
        let new = csr.apply_delta(&d);
        let out = cache.note_delta(csr.generation(), &new);
        assert_eq!(out.retained, 0, "a changed candidate list affects all");
        assert_eq!(out.evicted, 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn note_delta_survivors_match_recomputation() {
        use scdn_graph::GraphDelta;
        let cache = RankingCache::new();
        let csr = line_graph(12);
        let (warm, _) = cache.full_ranking(&csr, PlacementAlgorithm::Random, 5);
        let mut d = GraphDelta::new();
        d.add_edge(NodeId(0), NodeId(11), 1)
            .remove_edge(NodeId(5), NodeId(6));
        let new = csr.apply_delta(&d);
        cache.note_delta(csr.generation(), &new);
        let (served, hit) = cache.full_ranking(&new, PlacementAlgorithm::Random, 5);
        assert!(hit);
        let fresh = PlacementAlgorithm::Random.place(&new, new.node_count(), 5);
        assert_eq!(served.as_slice(), fresh.as_slice());
        assert_eq!(warm, served);
    }

    #[test]
    fn distinct_seeds_are_distinct_entries() {
        let csr = line_graph(16);
        let cache = RankingCache::new();
        let (a, _) = cache.full_ranking(&csr, PlacementAlgorithm::Random, 1);
        let (b, _) = cache.full_ranking(&csr, PlacementAlgorithm::Random, 2);
        assert_eq!(cache.len(), 2);
        assert_ne!(a, b, "different seeds shuffle differently");
    }
}
