//! Integration test: the calibrated corpus reproduces the *qualitative*
//! findings of the paper's Section VI case study (run at reduced run
//! counts; the full sweep lives in the `fig3` experiment binary).

use scdn::alloc::placement::PlacementAlgorithm;
use scdn::core::casestudy::CaseStudy;
use scdn::graph::components::island_stats;
use scdn::graph::traversal::max_span;
use scdn::graph::CsrGraph;
use scdn::social::generator::{generate, CaseStudyParams};
use scdn::social::{SyntheticDblp, TrustSubgraph};

fn corpus() -> SyntheticDblp {
    generate(&CaseStudyParams::default())
}

/// Mean hit rate (%) of `algorithm` with `k` replicas over `runs`: one
/// cell of [`CaseStudy::sweep`].
fn rate_at(
    cs: &CaseStudy,
    sub: &TrustSubgraph,
    algorithm: PlacementAlgorithm,
    k: usize,
    runs: usize,
) -> f64 {
    cs.sweep(sub, &[algorithm], &[k], runs)[0].hit_rate_pct[0]
}

#[test]
fn table1_regime_matches_paper() {
    let g = corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let [base, double, few] = cs.paper_subgraphs().expect("seed present");
    let (b, d, f) = (base.stats(), double.stats(), few.stats());
    // Baseline in the paper: 2335 nodes / 1163 pubs / 17973 edges.
    assert!(
        (1800..=2900).contains(&b.nodes),
        "baseline nodes {}",
        b.nodes
    );
    assert!(
        (800..=1500).contains(&b.publications),
        "baseline pubs {}",
        b.publications
    );
    assert!(
        (11000..=22000).contains(&b.edges),
        "baseline edges {}",
        b.edges
    );
    // Pruned graphs are strictly smaller and nested below the baseline.
    assert!(d.nodes < b.nodes && d.edges < b.edges);
    assert!(f.nodes < b.nodes && f.edges < b.edges);
    // Double-coauthorship keeps a dense core: mean degree stays above 5.
    assert!(2.0 * d.edges as f64 / d.nodes as f64 > 5.0);
}

#[test]
fn fig2_topology_properties() {
    let g = corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let [base, double, few] = cs.paper_subgraphs().expect("seed present");
    // Baseline and number-of-authors stay one connected supercluster.
    assert_eq!(island_stats(&base.graph).islands, 1);
    assert_eq!(island_stats(&few.graph).islands, 1);
    // The double-coauthorship graph fragments into many islands.
    assert!(
        island_stats(&double.graph).islands > 20,
        "double graph must fragment"
    );
    // Maximum span ~6 hops (paper: "still 6 hops between nodes").
    assert_eq!(max_span(&CsrGraph::from(&base.graph)), 6);
    assert_eq!(max_span(&CsrGraph::from(&few.graph)), 6);
    assert!(max_span(&CsrGraph::from(&double.graph)) <= 9);
}

#[test]
fn community_degree_wins_at_ten_replicas_on_baseline() {
    let g = corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let base = cs
        .subgraph(scdn::social::TrustFilter::Baseline)
        .expect("seed");
    let rate = |alg, runs| rate_at(&cs, &base, alg, 10, runs);
    let community = rate(PlacementAlgorithm::CommunityNodeDegree, 1);
    let degree = rate(PlacementAlgorithm::NodeDegree, 1);
    let random = rate(PlacementAlgorithm::Random, 20);
    let clustering = rate(PlacementAlgorithm::ClusteringCoefficient, 1);
    assert!(
        community > degree,
        "community {community} vs degree {degree}"
    );
    assert!(degree > random, "degree {degree} vs random {random}");
    assert!(
        random > clustering * 0.5,
        "random {random} vs clustering {clustering}"
    );
    assert!(clustering < community / 3.0, "clustering must be far worse");
}

#[test]
fn node_degree_flattens_on_baseline() {
    // The 86-author mega-publication creates artificially high-degree edge
    // nodes; once node-degree placement reaches them the curve goes flat.
    let g = corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let base = cs
        .subgraph(scdn::social::TrustFilter::Baseline)
        .expect("seed");
    let at3 = rate_at(&cs, &base, PlacementAlgorithm::NodeDegree, 3, 1);
    let at10 = rate_at(&cs, &base, PlacementAlgorithm::NodeDegree, 10, 1);
    assert!(
        at10 - at3 < 0.5,
        "node degree must flatten: {at3} -> {at10}"
    );
    // Without the mega publication the same curve grows noticeably more.
    let mut params = CaseStudyParams::default();
    params.mega_pub_authors = 0;
    let g2 = generate(&params);
    let cs2 = CaseStudy::paper_setup(&g2.corpus, g2.seed_author);
    let base2 = cs2
        .subgraph(scdn::social::TrustFilter::Baseline)
        .expect("seed");
    let b3 = rate_at(&cs2, &base2, PlacementAlgorithm::NodeDegree, 3, 1);
    let b10 = rate_at(&cs2, &base2, PlacementAlgorithm::NodeDegree, 10, 1);
    assert!(
        b10 - b3 > (at10 - at3) + 0.5,
        "without the mega pub the curve should keep rising: {b3} -> {b10} \
         (with mega: {at3} -> {at10})"
    );
}

#[test]
fn trust_pruning_improves_hit_rates() {
    let g = corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let [base, double, few] = cs.paper_subgraphs().expect("seed present");
    let rate = |s| rate_at(&cs, s, PlacementAlgorithm::CommunityNodeDegree, 10, 1);
    let (rb, rd, rf) = (rate(&base), rate(&double), rate(&few));
    assert!(rd > rb, "double-coauthorship {rd} must beat baseline {rb}");
    assert!(
        rf > rb * 0.8,
        "number-of-authors {rf} must be at least near baseline {rb}"
    );
}

#[test]
fn hit_rates_monotone_in_replica_count() {
    let g = corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let base = cs
        .subgraph(scdn::social::TrustFilter::Baseline)
        .expect("seed");
    for alg in [
        PlacementAlgorithm::NodeDegree,
        PlacementAlgorithm::CommunityNodeDegree,
    ] {
        let mut prev = 0.0;
        for k in [1, 2, 4, 6, 8, 10] {
            let r = rate_at(&cs, &base, alg, k, 1);
            assert!(r + 1e-9 >= prev, "{alg:?} k={k}: {r} < {prev}");
            prev = r;
        }
    }
}
