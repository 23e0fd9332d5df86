//! Criterion benches on the frozen CSR graph: the chunked copy-on-write
//! `apply_delta` at fixed touch fractions on a 100k-node graph, the
//! nearest-target `bfs_to_targets` resolve kernel against a full BFS at
//! 10k/40k/100k nodes and 1–32 targets, and a chunk-size sweep
//! (`csr/chunk-rows/*`) that prices the read and write paths at
//! {8, 64, 512, 4096} rows per chunk independently of
//! `DEFAULT_CHUNK_ROWS`.
//! (Betweenness and the placement sweeps at the default layout are timed
//! in `graph_algorithms.rs` and `placement.rs`.)

use criterion::{criterion_group, criterion_main, Criterion};
use scdn_graph::centrality::betweenness;
use scdn_graph::generators::barabasi_albert;
use scdn_graph::{CsrGraph, GraphDelta, NodeId, TraversalScratch};

/// splitmix64 — deterministic touched-row picks without an RNG dep.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A delta whose edge adds land on exactly `rows` distinct rows of an
/// `n`-node graph (consecutive pairs of the picked nodes).
fn delta_touching(n: u32, rows: usize, seed: u64) -> GraphDelta {
    let mut rng = seed;
    let mut picked = Vec::with_capacity(rows);
    let mut seen = std::collections::HashSet::with_capacity(rows);
    while picked.len() < rows {
        let v = (splitmix64(&mut rng) % n as u64) as u32;
        if seen.insert(v) {
            picked.push(NodeId(v));
        }
    }
    let mut delta = GraphDelta::new();
    for pair in picked.chunks(2) {
        let b = if pair.len() == 2 { pair[1] } else { picked[0] };
        delta.add_edge(pair[0], b, 1);
    }
    delta
}

/// Chunked COW `apply_delta` wall time at touch fractions spanning four
/// orders of magnitude, against the from-scratch freeze as the baseline
/// every fraction competes with. Bytes copied per point are printed once
/// so a criterion run also shows the O(touched) memory story.
fn apply_delta_touch_fractions(c: &mut Criterion) {
    const N: usize = 100_000;
    let g = barabasi_albert(N, 3, 33);
    let base = CsrGraph::from(&g);
    let mut group = c.benchmark_group("csr/apply-delta-100k");
    group.sample_size(20);
    for (label, frac) in [
        ("touch-0.01pct", 0.0001),
        ("touch-0.1pct", 0.001),
        ("touch-1pct", 0.01),
        ("touch-10pct", 0.1),
    ] {
        let rows = ((frac * N as f64) as usize).max(2);
        let delta = delta_touching(N as u32, rows, 0x70c4 ^ rows as u64);
        let cow = base.apply_delta(&delta).cow_stats();
        eprintln!(
            "{label}: {rows} rows touched, {} bytes copied, {} of {} chunks shared",
            cow.bytes_copied,
            cow.chunks_shared,
            base.chunk_count(),
        );
        group.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(&base).apply_delta(std::hint::black_box(&delta)));
        });
    }
    group.bench_function("from-scratch-freeze", |b| {
        b.iter(|| CsrGraph::from(std::hint::black_box(&g)));
    });
    group.finish();
}

/// `bfs_to_targets` per call — which settles the nearest target and every
/// target at its distance — against the full `TraversalScratch::bfs` a
/// one-sided search degenerates to when the nearest target is far. Two target
/// mixes: `hub+leaf` is the resolve shape (replicas on the two top-degree
/// members plus random owners), `all-leaf` is every target a random
/// member — the mix where one backward search per target has the least
/// to share, so the many-target points show where that could lose to one
/// flood. Each iteration is one call, cycling through 64 fixed queries.
fn bfs_to_targets_sizes(c: &mut Criterion) {
    const QUERIES: usize = 64;
    for (label, n) in [("10k", 10_000usize), ("40k", 40_000), ("100k", 100_000)] {
        let csr = CsrGraph::from(&barabasi_albert(n, 3, 17));
        let mut by_degree: Vec<NodeId> = csr.nodes().collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(csr.degree(v)));
        let mut rng = 0xb1d1 ^ n as u64;
        let mut member = || NodeId((splitmix64(&mut rng) % n as u64) as u32);
        let sources: Vec<NodeId> = (0..QUERIES).map(|_| member()).collect();
        let mut scratch = TraversalScratch::new();
        let mut group = c.benchmark_group(&format!("csr/bfs-to-targets/{label}"));
        group.sample_size(20);
        let mut next = 0usize;
        group.bench_function("full-bfs", |b| {
            b.iter(|| {
                next = (next + 1) % QUERIES;
                scratch.bfs(std::hint::black_box(&csr), &sources[next..=next]);
                scratch.visited().len()
            });
        });
        for k in [1usize, 3, 8, 32] {
            for (mix, hubs) in [("hub+leaf", 2usize), ("all-leaf", 0)] {
                if hubs >= k {
                    continue;
                }
                let targets: Vec<Vec<NodeId>> = (0..QUERIES)
                    .map(|_| {
                        let mut t = by_degree[..hubs].to_vec();
                        t.resize_with(k, &mut member);
                        t
                    })
                    .collect();
                let visited: usize = (0..QUERIES)
                    .map(|q| {
                        scratch.bfs_to_targets(&csr, sources[q], &targets[q], u32::MAX);
                        scratch.last_visited()
                    })
                    .sum();
                eprintln!(
                    "{label}/{k}-targets/{mix}: {} nodes visited per call",
                    visited / QUERIES
                );
                group.bench_function(format!("{k}-targets/{mix}"), |b| {
                    b.iter(|| {
                        next = (next + 1) % QUERIES;
                        scratch.bfs_to_targets(
                            std::hint::black_box(&csr),
                            sources[next],
                            &targets[next],
                            u32::MAX,
                        )
                    });
                });
            }
        }
        group.finish();
    }
}

/// Chunk sizes the layout sweep prices, through `from_graph_chunked` so
/// the numbers do not depend on `DEFAULT_CHUNK_ROWS`.
const CHUNK_SWEEP: [usize; 4] = [8, 64, 512, 4096];

/// The read and write shapes the chunk size trades against each other,
/// one group per shape with one point per chunk size:
/// - `bfs-to-targets-40k`: one `bfs_to_targets` call on a 40k-node BA
///   graph with 3 targets — the two top-degree hubs plus a random owner,
///   the `NodeDegree` layout the benchmark's `resolve_cold` workload
///   resolves against — cycling through 64 fixed queries, with the nodes
///   visited per call printed once per size;
/// - `betweenness-10k`: full Brandes betweenness on a 10k-node BA graph;
/// - `apply-delta-20k-32ops`: one 32-op edge-add delta on a 20k-node BA
///   graph (the `churn_maintain` delta size), with the bytes it copies
///   printed once per size.
fn chunk_rows_sweep(c: &mut Criterion) {
    const QUERIES: usize = 64;
    let g40k = barabasi_albert(40_000, 3, 17);
    let mut group = c.benchmark_group("csr/chunk-rows/bfs-to-targets-40k");
    for rows in CHUNK_SWEEP {
        let csr = CsrGraph::from_graph_chunked(&g40k, rows);
        let mut by_degree: Vec<NodeId> = csr.nodes().collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(csr.degree(v)));
        let mut rng = 0xc4c5;
        let mut member = || NodeId((splitmix64(&mut rng) % 40_000) as u32);
        let queries: Vec<(NodeId, [NodeId; 3])> = (0..QUERIES)
            .map(|_| (member(), [by_degree[0], by_degree[1], member()]))
            .collect();
        let mut scratch = TraversalScratch::new();
        let visited: usize = queries
            .iter()
            .map(|(src, targets)| {
                scratch.bfs_to_targets(&csr, *src, targets, u32::MAX);
                scratch.last_visited()
            })
            .sum();
        eprintln!(
            "chunk-rows {rows}: {} nodes visited per call",
            visited / QUERIES
        );
        let mut next = 0usize;
        group.bench_function(format!("{rows}"), |b| {
            b.iter(|| {
                next = (next + 1) % QUERIES;
                let (src, targets) = &queries[next];
                scratch.bfs_to_targets(std::hint::black_box(&csr), *src, targets, u32::MAX)
            });
        });
    }
    group.finish();

    let g10k = barabasi_albert(10_000, 3, 23);
    let mut group = c.benchmark_group("csr/chunk-rows/betweenness-10k");
    for rows in CHUNK_SWEEP {
        let csr = CsrGraph::from_graph_chunked(&g10k, rows);
        group.bench_function(format!("{rows}"), |b| {
            b.iter(|| betweenness(std::hint::black_box(&csr)));
        });
    }
    group.finish();

    const N: u32 = 20_000;
    let g20k = barabasi_albert(N as usize, 3, 29);
    let delta = delta_touching(N, 64, 0x3209);
    let mut group = c.benchmark_group("csr/chunk-rows/apply-delta-20k-32ops");
    for rows in CHUNK_SWEEP {
        let base = CsrGraph::from_graph_chunked(&g20k, rows);
        let cow = base.apply_delta(&delta).cow_stats();
        eprintln!(
            "chunk-rows {rows}: {} bytes copied, {} of {} chunks rewritten",
            cow.bytes_copied,
            cow.chunks_rewritten,
            base.chunk_count(),
        );
        group.bench_function(format!("{rows}"), |b| {
            b.iter(|| std::hint::black_box(&base).apply_delta(std::hint::black_box(&delta)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    apply_delta_touch_fractions,
    bfs_to_targets_sizes,
    chunk_rows_sweep
);
criterion_main!(benches);
