//! Property tests for the incremental CSR delta path: applying a random
//! interleaving of `add_edge`/`remove_edge` (and node activations) via
//! [`GraphDelta`] must produce a `CsrGraph` bit-identical (`PartialEq`,
//! which covers per-row neighbor order, weights, and edge count,
//! independent of chunk layout) to mutating the `Graph` the same way and
//! freezing it from scratch — at *every* chunk size, since the chunked
//! copy-on-write assembly shares whole chunks and the sharing/rebuild
//! boundary moves with the chunk size.

use proptest::prelude::*;
use scdn_graph::{CsrGraph, Graph, GraphDelta, NodeId};

/// Strategy: a random simple graph with up to `max_n` nodes and `max_m`
/// edge insertions (duplicates accumulate weight, as in production).
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..5), 0..max_m)
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

/// One randomly chosen delta op, encoded independent of graph size:
/// endpoints are taken modulo the node count at application time.
#[derive(Clone, Debug)]
enum RawOp {
    Add(u32, u32, u32),
    Remove(u32, u32),
    Activate(u32),
}

fn arb_ops(max_ops: usize) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (0u8..8, any::<u32>(), any::<u32>(), 1u32..5).prop_map(|(kind, a, b, w)| match kind {
            0..=3 => RawOp::Add(a, b, w),
            4..=6 => RawOp::Remove(a, b),
            _ => RawOp::Activate(1 + (a % 2)),
        }),
        0..max_ops,
    )
}

/// Resolve raw ops into a concrete delta, tracking the growing node count
/// so activated nodes are immediately addressable by later ops.
fn build_delta(g: &Graph, ops: &[RawOp]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut n = g.node_count() as u32;
    for op in ops {
        match *op {
            RawOp::Add(a, b, w) => {
                delta.add_edge(NodeId(a % n), NodeId(b % n), w);
            }
            RawOp::Remove(a, b) => {
                delta.remove_edge(NodeId(a % n), NodeId(b % n));
            }
            RawOp::Activate(count) => {
                delta.add_nodes(count);
                n += count;
            }
        }
    }
    delta
}

/// Chunk sizes the copy-on-write sweep pins: one row per chunk (maximum
/// sharing granularity), a mid size, and one big enough that small test
/// graphs fit in a single chunk (degenerate no-sharing case).
const CHUNK_SWEEP: [usize; 3] = [1, 64, 4096];

proptest! {
    #[test]
    fn delta_applied_csr_is_bit_identical_to_from_scratch(
        mut g in arb_graph(40, 120),
        ops in arb_ops(60),
    ) {
        let base = CsrGraph::from(&g);
        let delta = build_delta(&g, &ops);

        let incremental = base.apply_delta(&delta);
        delta.apply_to(&mut g);
        let scratch = CsrGraph::from(&g);

        prop_assert_eq!(&incremental, &scratch);
        prop_assert_eq!(incremental.edge_count(), g.edge_count());
        prop_assert_eq!(incremental.node_count(), g.node_count());
        // Generations are fresh and ordered even though the content matches.
        prop_assert!(incremental.generation() > base.generation());
        prop_assert!(scratch.generation() > incremental.generation());
    }

    #[test]
    fn delta_equivalence_holds_at_every_chunk_size(
        mut g in arb_graph(40, 120),
        ops in arb_ops(60),
    ) {
        let delta = build_delta(&g, &ops);
        let bases: Vec<CsrGraph> = CHUNK_SWEEP
            .iter()
            .map(|&rows| CsrGraph::from_graph_chunked(&g, rows))
            .collect();
        delta.apply_to(&mut g);
        let scratch = CsrGraph::from(&g);

        for base in &bases {
            let incremental = base.apply_delta(&delta);
            prop_assert_eq!(&incremental, &scratch,
                "chunk_rows = {}", base.chunk_rows());
            // The delta-applied snapshot keeps its base's layout, and the
            // assembly accounts for every chunk exactly once.
            prop_assert_eq!(incremental.chunk_rows(), base.chunk_rows());
            let stats = incremental.cow_stats();
            prop_assert_eq!(
                stats.chunks_shared + stats.chunks_rewritten,
                incremental.chunk_count()
            );
            prop_assert_eq!(
                incremental.shared_chunks_with(base),
                stats.chunks_shared
            );
        }
    }

    #[test]
    fn empty_delta_is_identity_and_shares_everything(
        g in arb_graph(40, 120),
    ) {
        for &rows in &CHUNK_SWEEP {
            let base = CsrGraph::from_graph_chunked(&g, rows);
            let same = base.apply_delta(&GraphDelta::new());
            prop_assert_eq!(&same, &base);
            prop_assert_eq!(same.cow_stats().chunks_rewritten, 0);
            prop_assert_eq!(same.cow_stats().chunks_shared, base.chunk_count());
        }
    }

    #[test]
    fn activation_only_delta_rebuilds_no_full_old_chunk(
        g in arb_graph(40, 120),
        fresh in 1u32..6,
    ) {
        for &rows in &CHUNK_SWEEP {
            let base = CsrGraph::from_graph_chunked(&g, rows);
            let mut delta = GraphDelta::new();
            delta.add_nodes(fresh);
            let grown = base.apply_delta(&delta);
            let mut twin = g.clone();
            delta.apply_to(&mut twin);
            prop_assert_eq!(&grown, &CsrGraph::from_graph_chunked(&twin, rows));
            // Every *full* old chunk survives; only a partial tail chunk
            // (if any) is rebuilt to absorb the fresh rows.
            let full_old_chunks = base.node_count() / rows;
            prop_assert!(grown.cow_stats().chunks_shared >= full_old_chunks.min(base.chunk_count()));
            for v in (base.node_count()..grown.node_count()).map(|v| NodeId(v as u32)) {
                prop_assert_eq!(grown.degree(v), 0);
            }
        }
    }

    #[test]
    fn delta_touched_set_covers_every_changed_row(
        mut g in arb_graph(30, 80),
        ops in arb_ops(40),
    ) {
        let base = CsrGraph::from(&g);
        let delta = build_delta(&g, &ops);
        let updated = base.apply_delta(&delta);
        delta.apply_to(&mut g);

        let summary = updated.last_delta().expect("delta result carries a summary");
        // Soundness direction a consumer of `touched` relies on:
        // any node whose row differs from the old snapshot MUST be in
        // `touched` (over-approximation is fine, omission is not).
        for v in updated.nodes() {
            let changed = if v.index() < base.node_count() {
                base.neighbors(v).ne(updated.neighbors(v))
            } else {
                true
            };
            if changed {
                prop_assert!(
                    summary.touched.binary_search(&v).is_ok(),
                    "changed row {:?} missing from touched set",
                    v
                );
            }
        }
    }
}
