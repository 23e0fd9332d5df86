//! Criterion benches: core graph algorithms (BFS, components, clustering,
//! Brandes betweenness, label propagation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scdn_graph::centrality::betweenness;
use scdn_graph::community::label_propagation;
use scdn_graph::components::connected_components;
use scdn_graph::generators::{barabasi_albert, watts_strogatz};
use scdn_graph::metrics::global_clustering_coefficient;
use scdn_graph::traversal::{bfs_distances, max_span};
use scdn_graph::{CsrGraph, NodeId};

fn bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/bfs");
    for n in [1_000usize, 10_000] {
        let g = CsrGraph::from(&barabasi_albert(n, 4, 3));
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| bfs_distances(std::hint::black_box(g), NodeId(0)));
        });
    }
    group.finish();
}

fn components(c: &mut Criterion) {
    let g = barabasi_albert(10_000, 3, 5);
    c.bench_function("graph/components-10k", |b| {
        b.iter(|| connected_components(std::hint::black_box(&g)));
    });
}

fn clustering(c: &mut Criterion) {
    let g = CsrGraph::from(&watts_strogatz(2_000, 6, 0.1, 7));
    c.bench_function("graph/global-clustering-ws2k", |b| {
        b.iter(|| global_clustering_coefficient(std::hint::black_box(&g)));
    });
}

fn brandes(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/betweenness");
    group.sample_size(10);
    let g = CsrGraph::from(&barabasi_albert(400, 3, 11));
    group.bench_function("400", |b| {
        b.iter(|| betweenness(std::hint::black_box(&g)));
    });
    group.finish();
}

fn communities(c: &mut Criterion) {
    let g = barabasi_albert(5_000, 4, 13);
    let mut group = c.benchmark_group("graph/label-propagation-5k");
    group.sample_size(10);
    group.bench_function("lp", |b| {
        b.iter(|| label_propagation(std::hint::black_box(&g), 1, 20));
    });
    group.finish();
}

fn span(c: &mut Criterion) {
    let g = CsrGraph::from(&barabasi_albert(1_000, 3, 17));
    let mut group = c.benchmark_group("graph/max-span-1k");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| max_span(std::hint::black_box(&g)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bfs,
    components,
    clustering,
    brandes,
    communities,
    span
);
criterion_main!(benches);
