//! Replica discovery and selection for a requesting user.
//!
//! "When users attempt to access data that are not currently in the replica
//! partition, the client makes a call to an allocation server to discover
//! the location of an available and suitable replica" (Section V-A).
//! Selection ranks online replicas by social hop distance, then network
//! latency, then availability.
//!
//! The allocation server's resolve path
//! ([`AllocationServer::resolve_csr`](crate::server::AllocationServer::resolve_csr))
//! takes its hop distances from the hop cache or from
//! [`TraversalScratch::bfs_to_nearest`], which settles the nearest
//! *online* replica and every replica at its distance and leaves farther
//! ones unsettled — they cannot win. `select_from_hops` is the one
//! ranking loop over those hops, and it asks for a candidate's latency
//! only when that can decide the winner. [`select_replica_full_bfs`] is
//! the oracle — the same ranking over the distances of one full
//! [`TraversalScratch::bfs`] — for the equivalence tests; nothing on a
//! serving path calls it.

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

/// The resolve path's oracle: the best online candidate by
/// `select_from_hops`'s ranking, over the hop distances of one full BFS
/// of the requester's component (reachable beats unreachable; then fewer
/// social hops; then lower latency; then higher availability; then
/// smaller node id; `None` when no candidate is online). O(component)
/// per call — for tests, not for serving.
pub fn select_replica_full_bfs(
    social: &CsrGraph,
    requester: NodeId,
    candidates: &[Candidate],
    scratch: &mut TraversalScratch,
) -> Option<Selection> {
    scratch.bfs(social, &[requester]);
    rank_candidates(candidates, |v| scratch.distance(v))
}

/// [`select_from_hops`] over a candidate list, given a social-hop lookup.
fn rank_candidates(
    candidates: &[Candidate],
    hop_of: impl Fn(NodeId) -> Option<u32>,
) -> Option<Selection> {
    select_from_hops(
        candidates.len(),
        |i| {
            let c = &candidates[i];
            c.online.then(|| (c.node, hop_of(c.node)))
        },
        |i| (candidates[i].latency_ms, candidates[i].availability),
    )
}

/// The one ranking loop, shared by every selection path: the best online
/// candidate by social hops (reachable before unreachable, then fewer),
/// then lower latency, then higher availability, then smaller node id.
/// Returns `None` when no candidate is online.
///
/// Candidates are indexed `0..len`: `online_hops(i)` is `None` for an
/// offline candidate and its node and hop distance otherwise, and
/// `tie_break(i)` is its `(latency_ms, availability)`. Latency only breaks
/// hop ties, so `tie_break` is asked only of the first candidate at the
/// fewest hops and of the candidates tied with it; on the resolve path a
/// latency is a great-circle computation.
///
/// Latency and unavailability order by [`total_order_key`], so negative
/// values order naturally below smaller magnitudes and NaN always ranks
/// worst — the seed's `(x * 1000.0) as u64` cast sent NaN and negative
/// latencies to 0, ranking a corrupt measurement as best-possible.
pub(crate) fn select_from_hops(
    len: usize,
    online_hops: impl Fn(usize) -> Option<(NodeId, Option<u32>)>,
    tie_break: impl Fn(usize) -> (f64, f64),
) -> Option<Selection> {
    let hop_key = |hops: Option<u32>| hops.unwrap_or(u32::MAX);
    // The fewest hops any online candidate has, and the first to have them.
    let mut nearest: Option<(usize, u32)> = None;
    for i in 0..len {
        if let Some((_, hops)) = online_hops(i) {
            let key = hop_key(hops);
            if nearest.is_none_or(|(_, fewest)| key < fewest) {
                nearest = Some((i, key));
            }
        }
    }
    let (first, fewest) = nearest?;
    let mut best: Option<(Selection, (u64, u64, u32))> = None;
    for i in first..len {
        let Some((node, hops)) = online_hops(i) else {
            continue;
        };
        if hop_key(hops) != fewest {
            continue;
        }
        let (latency_ms, availability) = tie_break(i);
        let key = (
            total_order_key(latency_ms),
            total_order_key(1.0 - availability),
            node.0,
        );
        if best.as_ref().is_none_or(|(_, b)| key < *b) {
            let sel = Selection {
                node,
                social_hops: hops,
                latency_ms,
            };
            best = Some((sel, key));
        }
    }
    best.map(|(sel, _)| sel)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen;

    fn path4() -> CsrGraph {
        frozen(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    }

    /// [`select_replica_full_bfs`] on a fresh scratch.
    fn select(g: &CsrGraph, requester: NodeId, candidates: &[Candidate]) -> Option<Selection> {
        select_replica_full_bfs(g, requester, candidates, &mut TraversalScratch::new())
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
        // A candidate past the end of the graph ranks as unreachable
        // (`distance` is total).
        let set = [cand(9, true, 1.0, 0.9), cand(3, true, 50.0, 0.9)];
        let sel = select(&g, NodeId(0), &set).expect("online");
        assert_eq!(sel.node, NodeId(3));
        // So does every candidate when the requester itself is unknown.
        let sel = select(&g, NodeId(77), &set).expect("online");
        assert_eq!((sel.node, sel.social_hops), (NodeId(9), None));
    }
}
