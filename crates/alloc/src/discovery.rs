//! Replica discovery and selection for a requesting user.
//!
//! "When users attempt to access data that are not currently in the replica
//! partition, the client makes a call to an allocation server to discover
//! the location of an available and suitable replica" (Section V-A).
//! Selection ranks online replicas by social hop distance, then network
//! latency, then availability.
//!
//! [`select_replica`] computes the social-hop leg of the ranking with a
//! bounded multi-target meet-in-the-middle search over a frozen
//! [`CsrGraph`] through a reusable [`TraversalScratch`]: it visits the
//! neighborhoods where the requester's and each candidate's regions meet
//! (or stops at the hop budget) and, for up to eight candidates, allocates
//! nothing. [`select_replica_full_bfs`] is its oracle — the same ranking
//! loop over the distances of one full [`TraversalScratch::bfs`] — for
//! the equivalence tests; nothing on a serving path calls it.

use scdn_graph::{CsrGraph, NodeId, TraversalScratch};

/// Per-candidate information used in ranking.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// The replica-hosting node.
    pub node: NodeId,
    /// `true` if the node is currently online.
    pub online: bool,
    /// One-way latency from the requester in milliseconds.
    pub latency_ms: f64,
    /// Long-run availability fraction of the node.
    pub availability: f64,
}

/// Outcome of a replica selection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Selection {
    /// The chosen replica node.
    pub node: NodeId,
    /// Social hop distance from the requester (`None` = socially
    /// unreachable; selected on latency only).
    pub social_hops: Option<u32>,
    /// Latency to the chosen replica.
    pub latency_ms: f64,
}

/// Candidate sets up to this size are handed to the search from a stack
/// buffer; replica lists are rarely longer (3 in every benchmark
/// workload), and a longer one costs one heap buffer.
const INLINE_CANDIDATES: usize = 8;

/// Pick the best online replica for `requester`.
///
/// Ordering: reachable beats unreachable; then fewer social hops; then
/// lower latency; then higher availability; then smaller node id.
/// Returns `None` when no candidate is online.
///
/// Hop distances come from [`TraversalScratch::bfs_to_targets`], which
/// stops where the requester's region meets each candidate's (or when
/// `max_hops` is exhausted — pass `u32::MAX` for exact full-BFS
/// equivalence). With the caller-owned `scratch`, a resolution over at
/// most eight candidates allocates nothing; a larger set costs one id
/// buffer.
pub fn select_replica(
    social: &CsrGraph,
    requester: NodeId,
    candidates: &[Candidate],
    scratch: &mut TraversalScratch,
    max_hops: u32,
) -> Option<Selection> {
    if candidates.iter().all(|c| !c.online) {
        return None;
    }
    // `bfs_to_targets` skips out-of-range ids, and offline candidates
    // never win, so targeting every candidate (not just online ones) is
    // correct; targeting all of them keeps the cached-hops path (which is
    // online-mask-agnostic) identical.
    let ids = candidates.iter().map(|c| c.node);
    let mut inline = [NodeId(0); INLINE_CANDIDATES];
    let spilled: Vec<NodeId>;
    let targets = if candidates.len() <= INLINE_CANDIDATES {
        inline.iter_mut().zip(ids).for_each(|(slot, id)| *slot = id);
        &inline[..candidates.len()]
    } else {
        spilled = ids.collect();
        &spilled[..]
    };
    scratch.bfs_to_targets(social, requester, targets, max_hops);
    select_from_hops(candidates, |c| scratch.target_hops(c.node))
}

/// The oracle for [`select_replica`] at `max_hops = u32::MAX`: the same
/// ranking over the hop distances of one full BFS of the requester's
/// component. O(component) per call — for tests, not for serving.
pub fn select_replica_full_bfs(
    social: &CsrGraph,
    requester: NodeId,
    candidates: &[Candidate],
    scratch: &mut TraversalScratch,
) -> Option<Selection> {
    scratch.bfs(social, &[requester]);
    select_from_hops(candidates, |c| scratch.distance(c.node))
}

/// The ranking loop: pick the best online candidate given a social-hop
/// lookup. Returns `None` when no candidate is online.
pub(crate) fn select_from_hops(
    candidates: &[Candidate],
    hop_of: impl Fn(&Candidate) -> Option<u32>,
) -> Option<Selection> {
    let mut best: Option<(&Candidate, Option<u32>)> = None;
    for c in candidates.iter().filter(|c| c.online) {
        let hops = hop_of(c);
        let better = match &best {
            None => true,
            Some((b, bh)) => rank_key(hops, c) < rank_key(*bh, b),
        };
        if better {
            best = Some((c, hops));
        }
    }
    best.map(|(c, hops)| Selection {
        node: c.node,
        social_hops: hops,
        latency_ms: c.latency_ms,
    })
}

/// Map an `f64` onto a `u64` whose unsigned order is the `f64::total_cmp`
/// order, except that every NaN (either sign) ranks above every non-NaN —
/// "worst possible" for a lower-is-better key.
fn total_order_key(x: f64) -> u64 {
    if x.is_nan() {
        return u64::MAX;
    }
    let bits = x.to_bits();
    // Standard order-preserving bijection: flip all bits for negatives,
    // set the sign bit for non-negatives.
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Lexicographic ranking key (lower is better).
///
/// Latency and unavailability use [`total_order_key`], so negative values
/// order naturally below smaller magnitudes and NaN always ranks worst —
/// the old `(x * 1000.0) as u64` cast sent NaN and negative latencies to
/// 0, ranking a corrupt measurement as best-possible.
pub(crate) fn rank_key(hops: Option<u32>, c: &Candidate) -> (u32, u64, u64, u32) {
    (
        hops.unwrap_or(u32::MAX),
        total_order_key(c.latency_ms),
        total_order_key(1.0 - c.availability),
        c.node.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen;

    fn path4() -> CsrGraph {
        frozen(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    }

    /// [`select_replica`] at an unbounded hop budget on a fresh scratch.
    fn select(g: &CsrGraph, requester: NodeId, candidates: &[Candidate]) -> Option<Selection> {
        select_replica(
            g,
            requester,
            candidates,
            &mut TraversalScratch::new(),
            u32::MAX,
        )
    }

    fn cand(node: u32, online: bool, latency_ms: f64, availability: f64) -> Candidate {
        Candidate {
            node: NodeId(node),
            online,
            latency_ms,
            availability,
        }
    }

    #[test]
    fn prefers_social_proximity_over_latency() {
        let g = path4();
        let sel = select(
            &g,
            NodeId(0),
            &[cand(1, true, 100.0, 0.9), cand(3, true, 1.0, 0.9)],
        )
        .expect("someone online");
        assert_eq!(sel.node, NodeId(1));
        assert_eq!(sel.social_hops, Some(1));
    }

    #[test]
    fn latency_breaks_hop_ties() {
        let g = frozen(3, [(0, 1, 1), (0, 2, 1)]);
        let sel = select(
            &g,
            NodeId(0),
            &[cand(1, true, 50.0, 0.9), cand(2, true, 10.0, 0.9)],
        )
        .expect("online");
        assert_eq!(sel.node, NodeId(2));
    }

    #[test]
    fn availability_breaks_full_ties() {
        let g = frozen(3, [(0, 1, 1), (0, 2, 1)]);
        let sel = select(
            &g,
            NodeId(0),
            &[cand(1, true, 10.0, 0.5), cand(2, true, 10.0, 0.99)],
        )
        .expect("online");
        assert_eq!(sel.node, NodeId(2));
    }

    #[test]
    fn offline_candidates_skipped() {
        let g = path4();
        let sel = select(
            &g,
            NodeId(0),
            &[cand(1, false, 1.0, 0.9), cand(3, true, 50.0, 0.9)],
        )
        .expect("one online");
        assert_eq!(sel.node, NodeId(3));
    }

    #[test]
    fn all_offline_is_none() {
        let g = path4();
        assert_eq!(select(&g, NodeId(0), &[cand(1, false, 1.0, 0.9)]), None);
    }

    #[test]
    fn unreachable_candidates_rank_last() {
        let g = frozen(4, [(0, 1, 1)]); // 2, 3 disconnected
        let sel = select(
            &g,
            NodeId(0),
            &[cand(2, true, 1.0, 0.99), cand(1, true, 80.0, 0.5)],
        )
        .expect("online");
        assert_eq!(sel.node, NodeId(1));
        // But if only unreachable nodes are online, we still serve.
        let sel2 = select(&g, NodeId(0), &[cand(2, true, 1.0, 0.99)]).expect("online");
        assert_eq!(sel2.node, NodeId(2));
        assert_eq!(sel2.social_hops, None);
    }

    #[test]
    fn nan_latency_ranks_worst() {
        let g = frozen(3, [(0, 1, 1), (0, 2, 1)]);
        // Regression: NaN used to cast to 0 μs and rank best-possible.
        let sel = select(
            &g,
            NodeId(0),
            &[cand(1, true, f64::NAN, 0.99), cand(2, true, 500.0, 0.1)],
        )
        .expect("online");
        assert_eq!(sel.node, NodeId(2));
        // NaN availability likewise loses the tie-break.
        let sel = select(
            &g,
            NodeId(0),
            &[cand(1, true, 10.0, f64::NAN), cand(2, true, 10.0, 0.01)],
        )
        .expect("online");
        assert_eq!(sel.node, NodeId(2));
        // All-NaN still serves someone (node id tie-break).
        let sel = select(
            &g,
            NodeId(0),
            &[cand(2, true, f64::NAN, 0.9), cand(1, true, f64::NAN, 0.9)],
        )
        .expect("online");
        assert_eq!(sel.node, NodeId(1));
    }

    #[test]
    fn negative_latency_orders_totally() {
        let g = frozen(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        // Regression: negatives used to cast to 0 and tie with true zero;
        // now -5 < -1 < 3 in the latency leg.
        let sel = select(
            &g,
            NodeId(0),
            &[
                cand(1, true, 3.0, 0.9),
                cand(2, true, -1.0, 0.9),
                cand(3, true, -5.0, 0.9),
            ],
        )
        .expect("online");
        assert_eq!(sel.node, NodeId(3));
        // Sub-microsecond latencies are distinct, not quantized equal.
        let sel = select(
            &g,
            NodeId(0),
            &[cand(1, true, 0.0005, 0.1), cand(2, true, 0.0001, 0.1)],
        )
        .expect("online");
        assert_eq!(sel.node, NodeId(2));
    }

    #[test]
    fn out_of_range_ids_are_unreachable_not_fatal() {
        let g = path4();
        // A candidate past the end of the graph ranks as unreachable on
        // both the search and the full-BFS oracle (`distance` is total).
        let set = [cand(9, true, 1.0, 0.9), cand(3, true, 50.0, 0.9)];
        let sel = select(&g, NodeId(0), &set).expect("online");
        assert_eq!(sel.node, NodeId(3));
        let mut scratch = TraversalScratch::new();
        let oracle = select_replica_full_bfs(&g, NodeId(0), &set, &mut scratch);
        assert_eq!(oracle, Some(sel));
        // So does every candidate when the requester itself is unknown.
        let sel = select(&g, NodeId(77), &set).expect("online");
        assert_eq!((sel.node, sel.social_hops), (NodeId(9), None));
        let oracle = select_replica_full_bfs(&g, NodeId(77), &set, &mut scratch);
        assert_eq!(oracle, Some(sel));
    }

    #[test]
    fn selection_matches_full_bfs_oracle() {
        let g = CsrGraph::from(&scdn_graph::generators::barabasi_albert(60, 2, 3));
        let (mut scratch, mut oracle) = (TraversalScratch::new(), TraversalScratch::new());
        let candidates = [
            cand(3, true, 12.0, 0.7),
            cand(40, false, 1.0, 0.99),
            cand(59, true, 12.0, 0.7),
            cand(7, true, f64::NAN, 0.5),
        ];
        // Past INLINE_CANDIDATES the ids spill to the heap: same answer.
        let many: Vec<Candidate> = (0..2 * INLINE_CANDIDATES as u32)
            .map(|i| cand(59 - 3 * i, i % 3 != 0, 5.0 + f64::from(i % 4), 0.8))
            .collect();
        for req in [0u32, 17, 59] {
            for set in [&candidates[..], &many[..]] {
                let a = select_replica_full_bfs(&g, NodeId(req), set, &mut oracle);
                let c = select_replica(&g, NodeId(req), set, &mut scratch, u32::MAX);
                assert_eq!(a, c, "requester {req}, {} candidates", set.len());
            }
        }
    }
}
