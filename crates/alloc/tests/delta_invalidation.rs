//! Hop-cache invalidation under graph deltas: stale-hop regression tests,
//! the retention rule, and a cold-recomputation property.
//!
//! The resolve cache keeps its entries across a graph delta only when the
//! delta changed no hop distance; any other delta flushes it (see
//! `resolve_cache` module docs). These tests drive the public
//! `AllocationServer` surface: resolve to warm the cache, churn the
//! graph, resolve again, and require the answer to be identical to a
//! cold full recomputation — under both the announced delta path
//! (`note_graph_delta`) and an unannounced re-freeze.

use proptest::prelude::*;
use scdn_alloc::server::{AllocationServer, RepositoryInfo};
use scdn_graph::{CsrGraph, Graph, GraphDelta, NodeId};
use scdn_social::author::AuthorId;
use scdn_storage::object::DatasetId;

fn server_for(g: &Graph) -> AllocationServer {
    let srv = AllocationServer::new();
    srv.register_repositories(g.nodes().map(|v| RepositoryInfo {
        node: v,
        owner: AuthorId(v.0),
        capacity: 1 << 30,
        availability: 0.9,
    }));
    srv
}

fn resolve_hops(srv: &AllocationServer, d: DatasetId, q: NodeId, csr: &CsrGraph) -> Option<u32> {
    srv.resolve_csr(d, q, csr, |_| true, |_| 1.0)
        .expect("resolves")
        .social_hops
}

/// After `remove_edge` on a cached shortest path, `resolve_csr` must
/// never serve the stale hop distance — delta path.
#[test]
fn removed_shortest_path_edge_is_never_served_stale_delta_path() {
    // 0 — 1 — 2 — 3 plus a detour 0 — 4 — 5 — 6 — 3.
    let mut g = Graph::from_edges(
        7,
        [
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 1),
            (0, 4, 1),
            (4, 5, 1),
            (5, 6, 1),
            (6, 3, 1),
        ],
    );
    let srv = server_for(&g);
    srv.register_dataset(DatasetId(0), 16, NodeId(3)).unwrap();
    let old = CsrGraph::from(&g);
    assert_eq!(resolve_hops(&srv, DatasetId(0), NodeId(0), &old), Some(3));
    // Warm hit on the cached shortest path 0-1-2-3.
    assert_eq!(resolve_hops(&srv, DatasetId(0), NodeId(0), &old), Some(3));
    assert!(srv.metrics().cache_hits.get() >= 1);

    let mut delta = GraphDelta::new();
    delta.remove_edge(NodeId(1), NodeId(2));
    let new = old.apply_delta(&delta);
    delta.apply_to(&mut g);
    srv.note_graph_delta(&old, &new);
    // The delta changed a distance: the cached 3-hop entry must be gone,
    // and the resolve must see the detour distance.
    assert_eq!(resolve_hops(&srv, DatasetId(0), NodeId(0), &new), Some(4));
}

/// Same regression through the flush-everything oracle: an unannounced
/// generation change (fresh re-freeze) drops the whole cache.
#[test]
fn removed_shortest_path_edge_is_never_served_stale_flush_path() {
    let mut g = Graph::from_edges(
        7,
        [
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 1),
            (0, 4, 1),
            (4, 5, 1),
            (5, 6, 1),
            (6, 3, 1),
        ],
    );
    let srv = server_for(&g);
    srv.register_dataset(DatasetId(0), 16, NodeId(3)).unwrap();
    let old = CsrGraph::from(&g);
    assert_eq!(resolve_hops(&srv, DatasetId(0), NodeId(0), &old), Some(3));

    g.remove_edge(NodeId(1), NodeId(2));
    let new = CsrGraph::from(&g); // no note_graph_delta: wholesale flush
    assert_eq!(resolve_hops(&srv, DatasetId(0), NodeId(0), &new), Some(4));
}

/// Warm `(requester 0, dataset 0)` on a 30-node line whose replica sits
/// next to the requester, then announce `delta`.
fn warm_line_then(delta: &GraphDelta) -> (AllocationServer, CsrGraph, (u64, u64)) {
    let mut g = Graph::new(30);
    for i in 0..29u32 {
        g.add_edge(NodeId(i), NodeId(i + 1), 1);
    }
    let srv = server_for(&g);
    srv.register_dataset(DatasetId(0), 16, NodeId(1)).unwrap();
    let old = CsrGraph::from(&g);
    assert_eq!(resolve_hops(&srv, DatasetId(0), NodeId(0), &old), Some(1));
    let new = old.apply_delta(delta);
    let counts = srv.note_graph_delta(&old, &new);
    (srv, new, counts)
}

/// A delta that can change a distance evicts every entry — even one whose
/// hops it provably cannot reach, 28 hops from the churn.
#[test]
fn distance_changing_delta_evicts_every_entry() {
    let mut delta = GraphDelta::new();
    delta.remove_edge(NodeId(28), NodeId(29));
    let (srv, new, counts) = warm_line_then(&delta);
    assert_eq!(counts, (0, 1));
    let misses = srv.metrics().cache_misses.get();
    assert_eq!(resolve_hops(&srv, DatasetId(0), NodeId(0), &new), Some(1));
    assert_eq!(srv.metrics().cache_misses.get(), misses + 1, "served cold");
}

/// A weight-only delta changes no hop distance: every entry is retained
/// and keeps serving warm.
#[test]
fn weight_only_delta_retains_every_entry() {
    let mut delta = GraphDelta::new();
    delta.add_edge(NodeId(28), NodeId(29), 5); // reinforce an existing edge
    let (srv, new, counts) = warm_line_then(&delta);
    assert_eq!(counts, (1, 0));
    let hits = srv.metrics().cache_hits.get();
    assert_eq!(resolve_hops(&srv, DatasetId(0), NodeId(0), &new), Some(1));
    assert_eq!(srv.metrics().cache_hits.get(), hits + 1, "served warm");
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..28).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..60)
            .prop_map(move |edges| Graph::from_edges(n, edges.into_iter().map(|(a, b)| (a, b, 1))))
    })
}

fn arb_churn(max_ops: usize) -> impl Strategy<Value = Vec<(bool, u32, u32)>> {
    proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u32>()), 1..max_ops)
}

/// Chunk sizes the property runs at: 1 and 8 split the small test
/// graphs into many chunks, so the delta shares most of them; 64 is
/// `DEFAULT_CHUNK_ROWS`, one chunk per graph.
const CHUNK_SWEEP: [usize; 3] = [1, 8, 64];

proptest! {
    /// After any random delta, every resolve on the delta path — warm
    /// survivors of a weight-only delta included — must return exactly
    /// what a cold server computes on the post-churn graph with a fresh
    /// full BFS, at every chunk size. A stale survivor shows up as a hop
    /// mismatch.
    #[test]
    fn answers_after_a_delta_match_a_cold_recomputation(
        mut g in arb_graph(),
        churn in arb_churn(12),
        dataset_nodes in proptest::collection::vec(any::<u32>(), 1..5),
        rows in 0..CHUNK_SWEEP.len(),
    ) {
        let n = g.node_count() as u32;
        let srv = server_for(&g);
        for (i, &p) in dataset_nodes.iter().enumerate() {
            srv.register_dataset(DatasetId(i as u32), 16, NodeId(p % n)).unwrap();
        }
        let old = CsrGraph::from_graph_chunked(&g, CHUNK_SWEEP[rows]);
        // Warm the cache: every requester × dataset.
        for q in 0..n {
            for i in 0..dataset_nodes.len() {
                let _ = resolve_hops(&srv, DatasetId(i as u32), NodeId(q), &old);
            }
        }
        let mut delta = GraphDelta::new();
        for &(add, a, b) in &churn {
            if add {
                delta.add_edge(NodeId(a % n), NodeId(b % n), 1);
            } else {
                delta.remove_edge(NodeId(a % n), NodeId(b % n));
            }
        }
        let new = old.apply_delta(&delta);
        delta.apply_to(&mut g);
        srv.note_graph_delta(&old, &new);

        // Cold oracle: a fresh server on the post-churn graph.
        let oracle = server_for(&g);
        for (i, &p) in dataset_nodes.iter().enumerate() {
            oracle.register_dataset(DatasetId(i as u32), 16, NodeId(p % n)).unwrap();
        }
        for q in 0..n {
            for i in 0..dataset_nodes.len() {
                let d = DatasetId(i as u32);
                let warm = resolve_hops(&srv, d, NodeId(q), &new);
                let cold = resolve_hops(&oracle, d, NodeId(q), &new);
                prop_assert_eq!(
                    warm, cold,
                    "requester {} dataset {:?}: stale hops served after a delta", q, d
                );
            }
        }
        prop_assert!(srv.metrics().cache_retained.get() + srv.metrics().cache_evictions.get() > 0);
    }
}
