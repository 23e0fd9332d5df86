//! Property tests: every `PlacementAlgorithm` must pick *identical*
//! replicas on the adjacency-list and frozen-CSR backends — same nodes,
//! same order, for every k and seed. This is what lets `place_csr` replace
//! `place` on the hot path without changing a single experiment result.
//! (The community-degree kernel's own new-vs-reference and work-bound
//! tests sit next to it in `placement.rs`.)

use proptest::prelude::*;
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_graph::generators::barabasi_albert;
use scdn_graph::{CsrGraph, Graph};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..6), 0..80)
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

fn all_algorithms() -> impl Iterator<Item = PlacementAlgorithm> {
    PlacementAlgorithm::PAPER_SET
        .into_iter()
        .chain(PlacementAlgorithm::EXTENDED_SET)
}

proptest! {
    /// Every `k` from nothing to past the full ordering `RankingCache`
    /// requests (`k = n`), not a sample of small ones.
    #[test]
    fn all_algorithms_place_identically_on_both_backends(
        g in arb_graph(),
        seed in 0u64..50,
    ) {
        let csr = CsrGraph::from(&g);
        for alg in all_algorithms() {
            for k in 0..=g.node_count() + 2 {
                prop_assert_eq!(
                    alg.place(&g, k, seed),
                    alg.place_csr(&csr, k, seed),
                    "{:?} diverged (k={}, seed={})",
                    alg,
                    k,
                    seed
                );
            }
        }
    }

    /// Prefix consistency, which `RankingCache` relies on: the ranking for
    /// `k` replicas is the first `k` entries of the full ordering.
    #[test]
    fn every_placement_is_a_prefix_of_the_full_ranking(
        g in arb_graph(),
        seed in 0u64..50,
    ) {
        let csr = CsrGraph::from(&g);
        let n = csr.node_count();
        for alg in all_algorithms() {
            let full = alg.place_csr(&csr, n, seed);
            prop_assert_eq!(full.len(), n, "{:?} full ordering covers every node", alg);
            for k in 0..=n + 2 {
                prop_assert_eq!(
                    &full[..k.min(n)],
                    &alg.place_csr(&csr, k, seed)[..],
                    "{:?} prefix {}",
                    alg,
                    k
                );
            }
        }
    }
}

/// The full ordering at the scale the maintenance path ranks at. Finishes
/// in seconds unoptimised; the restart-from-zero greedy took minutes.
#[test]
fn community_degree_full_ranking_at_100k_nodes() {
    let n = 100_000;
    let g = barabasi_albert(n, 3, 23);
    let csr = CsrGraph::from(&g);
    let alg = PlacementAlgorithm::CommunityNodeDegree;
    let full = alg.place_csr(&csr, n, 0);
    assert_eq!(full, alg.place(&g, n, 0), "backends agree at k = n");
    let mut seen = vec![false; n];
    for v in &full {
        assert!(
            !std::mem::replace(&mut seen[v.index()], true),
            "{v:?} placed twice"
        );
    }
    assert_eq!(full.len(), n);
    for k in [1, 10, 1_000, n - 1] {
        assert_eq!(full[..k], alg.place_csr(&csr, k, 0)[..], "prefix {k}");
    }
}
