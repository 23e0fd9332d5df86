//! Property tests on the full ordering every `PlacementAlgorithm`
//! produces at `k = n` — the call `RankingCache` makes. (The
//! community-degree kernel's new-vs-reference and work-bound tests sit
//! next to it in `placement.rs`; the rankings themselves are pinned
//! across commits by the root `tests/placement_golden.rs`.)

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
    /// Prefix consistency, which `RankingCache` relies on: the ranking for
    /// `k` replicas is the first `k` entries of the full ordering — for
    /// every `k` from nothing to past `n`, not a sample of small ones.
    #[test]
    fn every_placement_is_a_prefix_of_the_full_ranking(
        g in arb_graph(),
        seed in 0u64..50,
    ) {
        let csr = CsrGraph::from(&g);
        let n = csr.node_count();
        for alg in all_algorithms() {
            let full = alg.place(&csr, n, seed);
            prop_assert_eq!(full.len(), n, "{:?} full ordering covers every node", alg);
            for k in 0..=n + 2 {
                prop_assert_eq!(
                    &full[..k.min(n)],
                    &alg.place(&csr, k, seed)[..],
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
    let csr = CsrGraph::from(&barabasi_albert(n, 3, 23));
    let alg = PlacementAlgorithm::CommunityNodeDegree;
    let full = alg.place(&csr, n, 0);
    let mut seen = vec![false; n];
    for v in &full {
        assert!(
            !std::mem::replace(&mut seen[v.index()], true),
            "{v:?} placed twice"
        );
    }
    assert_eq!(full.len(), n);
    for k in [1, 10, 1_000, n - 1] {
        assert_eq!(full[..k], alg.place(&csr, k, 0)[..], "prefix {k}");
    }
}
