//! Criterion benches: the end-to-end case-study evaluation (hit-rate
//! measurement and full sweeps at reduced run counts).

use criterion::{criterion_group, criterion_main, Criterion};
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_core::casestudy::CaseStudy;
use scdn_graph::CsrGraph;
use scdn_social::trustgraph::TrustFilter;

fn hit_rate_eval(c: &mut Criterion) {
    let g = scdn_bench::paper_corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let sub = cs.subgraph(TrustFilter::Baseline).expect("seed present");
    let csr = CsrGraph::from(&sub.graph);
    let replicas = PlacementAlgorithm::CommunityNodeDegree.place(&csr, 10, 0);
    let mut group = c.benchmark_group("casestudy/hit-rate");
    group.sample_size(20);
    group.bench_function("baseline-k10", |b| {
        b.iter(|| cs.hit_rate(std::hint::black_box(&sub), &csr, &replicas));
    });
    group.finish();
}

fn random_runs(c: &mut Criterion) {
    let g = scdn_bench::paper_corpus();
    let cs = CaseStudy::paper_setup(&g.corpus, g.seed_author);
    let sub = cs
        .subgraph(TrustFilter::MaxAuthorsPerPub(6))
        .expect("seed present");
    let csr = CsrGraph::from(&sub.graph);
    let mut group = c.benchmark_group("casestudy/random-100-runs");
    group.sample_size(10);
    group.bench_function("numauthors-k5", |b| {
        b.iter(|| {
            cs.mean_hit_rate(
                std::hint::black_box(&sub),
                &csr,
                PlacementAlgorithm::Random,
                5,
                100,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, hit_rate_eval, random_runs);
criterion_main!(benches);
