//! Criterion benches: replica placement algorithm cost on social graphs,
//! including the calibrated case-study baseline graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_graph::generators::barabasi_albert;
use scdn_graph::CsrGraph;
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter};

fn placement_on_ba(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement/ba-2000");
    group.sample_size(20);
    let g = CsrGraph::from(&barabasi_albert(2000, 4, 7));
    for alg in [
        PlacementAlgorithm::Random,
        PlacementAlgorithm::NodeDegree,
        PlacementAlgorithm::CommunityNodeDegree,
        PlacementAlgorithm::ClusteringCoefficient,
        PlacementAlgorithm::SocialScore,
        PlacementAlgorithm::PageRank,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(alg.name()), &alg, |b, &alg| {
            b.iter(|| alg.place(std::hint::black_box(&g), 10, 42));
        });
    }
    group.finish();
}

fn betweenness_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement/betweenness");
    group.sample_size(10);
    for n in [200usize, 600] {
        let g = CsrGraph::from(&barabasi_albert(n, 3, 9));
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| PlacementAlgorithm::Betweenness.place(std::hint::black_box(g), 10, 0));
        });
    }
    group.finish();
}

fn placement_on_case_study(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement/case-study-baseline");
    group.sample_size(10);
    let synthetic = scdn_bench::paper_corpus();
    let sub = build_trust_subgraph(
        &synthetic.corpus,
        synthetic.seed_author,
        3,
        2009..=2010,
        TrustFilter::Baseline,
    )
    .expect("seed present");
    let g = CsrGraph::from(&sub.graph);
    for alg in PlacementAlgorithm::PAPER_SET {
        group.bench_with_input(BenchmarkId::from_parameter(alg.name()), &alg, |b, &alg| {
            b.iter(|| alg.place(std::hint::black_box(&g), 10, 1));
        });
    }
    group.finish();
}

/// The call `RankingCache` makes on a miss: the *full* ordering
/// (`k = n`). The groups above time `k = 10`, where an
/// algorithm whose cost grows with `k` looks as cheap as its sort.
fn full_ranking(c: &mut Criterion) {
    for (label, n) in [("10k", 10_000usize), ("40k", 40_000), ("100k", 100_000)] {
        let mut group = c.benchmark_group(&format!("placement/full-ranking/{label}"));
        group.sample_size(10);
        let g = CsrGraph::from(&barabasi_albert(n, 3, 7));
        for alg in PlacementAlgorithm::PAPER_SET
            .into_iter()
            .chain([PlacementAlgorithm::WeightedDegree])
        {
            group.bench_with_input(BenchmarkId::from_parameter(alg.name()), &alg, |b, &alg| {
                b.iter(|| alg.place(std::hint::black_box(&g), n, 42));
            });
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    placement_on_ba,
    betweenness_placement,
    placement_on_case_study,
    full_ranking
);
criterion_main!(benches);
