//! Data-segment partitioning across replicas.
//!
//! "Data partitioning algorithms are used to assign data segments to
//! replicas based on usage records and social information" (Section V-D).
//! Two strategies:
//!
//! * **Hash partitioning** — the classical baseline: segment ordinal modulo
//!   replica count, oblivious to who reads what;
//! * **Social partitioning** — group users by graph community, count which
//!   community reads each segment, and pin the segment to the replica
//!   closest (in hops) to its heaviest community.

use std::collections::HashMap;

use scdn_graph::community::Partition;
use scdn_graph::traversal::bfs_distances;
use scdn_graph::{CsrGraph, NodeId};

/// A record of segment accesses: `(user_node, segment_ordinal)` counts.
#[derive(Clone, Debug, Default)]
pub struct AccessLog {
    counts: HashMap<(NodeId, u32), u64>,
}

impl AccessLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `user` reading `segment` once.
    pub fn record(&mut self, user: NodeId, segment: u32) {
        *self.counts.entry((user, segment)).or_insert(0) += 1;
    }

    /// Total recorded accesses.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Iterate `(user, segment, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32, u64)> + '_ {
        self.counts.iter().map(|(&(u, s), &c)| (u, s, c))
    }
}

/// Assign each of `segments` segments to one of `replicas.len()` replicas
/// by ordinal hash (round-robin). Returns `assignment[segment] = replica
/// index`. Panics if `replicas` is empty and `segments > 0`.
pub fn hash_partition(segments: u32, replicas: usize) -> Vec<usize> {
    assert!(replicas > 0 || segments == 0, "need at least one replica");
    (0..segments)
        .map(|s| s as usize % replicas.max(1))
        .collect()
}

/// Socially-informed partitioning.
///
/// For each segment, find the community with the most recorded accesses,
/// then assign the segment to the replica with the smallest total hop
/// distance to that community's accessing members. Segments never accessed
/// fall back to round-robin.
pub fn social_partition(
    g: &CsrGraph,
    communities: &Partition,
    replicas: &[NodeId],
    segments: u32,
    log: &AccessLog,
) -> Vec<usize> {
    assert!(!replicas.is_empty() || segments == 0, "need replicas");
    if segments == 0 {
        return Vec::new();
    }
    // Distance from every replica to every node (one BFS per replica).
    let dists: Vec<Vec<Option<u32>>> = replicas.iter().map(|&r| bfs_distances(g, r)).collect();
    // Per-(segment, community) access mass and per-segment member lists.
    let mut seg_comm: HashMap<(u32, u32), u64> = HashMap::new();
    let mut seg_users: HashMap<u32, Vec<(NodeId, u64)>> = HashMap::new();
    for (user, seg, count) in log.iter() {
        if user.index() >= communities.assignment.len() {
            continue;
        }
        let c = communities.assignment[user.index()];
        *seg_comm.entry((seg, c)).or_insert(0) += count;
        seg_users.entry(seg).or_default().push((user, count));
    }
    (0..segments)
        .map(|seg| {
            // Dominant community of this segment.
            let dominant = (0..communities.count as u32)
                .max_by_key(|&c| (seg_comm.get(&(seg, c)).copied().unwrap_or(0), u32::MAX - c));
            let users = seg_users.get(&seg);
            match (dominant, users) {
                (Some(dom), Some(users)) if seg_comm.get(&(seg, dom)).copied().unwrap_or(0) > 0 => {
                    // Weighted hop distance from each replica to the
                    // dominant community's accessing users.
                    let mut best = 0usize;
                    let mut best_cost = u64::MAX;
                    for (ri, d) in dists.iter().enumerate() {
                        let mut cost = 0u64;
                        for &(u, cnt) in users {
                            if communities.assignment[u.index()] != dom {
                                continue;
                            }
                            let hops = d[u.index()].map(u64::from).unwrap_or(1_000);
                            cost += hops * cnt;
                        }
                        if cost < best_cost {
                            best_cost = cost;
                            best = ri;
                        }
                    }
                    best
                }
                _ => seg as usize % replicas.len(),
            }
        })
        .collect()
}

/// Locality score of an assignment: mean hop distance from each access to
/// the replica holding the accessed segment (lower is better). Unreachable
/// pairs count as `penalty` hops.
pub fn locality_cost(
    g: &CsrGraph,
    replicas: &[NodeId],
    assignment: &[usize],
    log: &AccessLog,
    penalty: u32,
) -> f64 {
    let dists: Vec<Vec<Option<u32>>> = replicas.iter().map(|&r| bfs_distances(g, r)).collect();
    let mut total = 0u64;
    let mut weight = 0u64;
    for (user, seg, count) in log.iter() {
        let Some(&replica_idx) = assignment.get(seg as usize) else {
            continue;
        };
        let hops = dists[replica_idx][user.index()].unwrap_or(penalty);
        total += hops as u64 * count;
        weight += count;
    }
    if weight == 0 {
        0.0
    } else {
        total as f64 / weight as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdn_graph::community::Partition;
    use scdn_graph::generators;

    fn planted_partition(groups: usize, size: usize, p_in: f64, p_out: f64, seed: u64) -> CsrGraph {
        CsrGraph::from(&generators::planted_partition(
            groups, size, p_in, p_out, seed,
        ))
    }

    #[test]
    fn hash_partition_round_robin() {
        assert_eq!(hash_partition(5, 2), vec![0, 1, 0, 1, 0]);
        assert!(hash_partition(0, 0).is_empty());
    }

    #[test]
    fn social_partition_pins_to_heavy_community() {
        // Two dense communities of 10; replica 0 sits in community 0,
        // replica 1 in community 1.
        let g = planted_partition(2, 10, 0.9, 0.02, 3);
        let communities =
            Partition::from_labels(&(0..20).map(|i| (i / 10) as u32).collect::<Vec<_>>());
        let replicas = [NodeId(0), NodeId(10)];
        let mut log = AccessLog::new();
        // Segment 0 read by community 1; segment 1 read by community 0.
        for u in 10..20 {
            log.record(NodeId(u), 0);
        }
        for u in 0..10 {
            log.record(NodeId(u), 1);
        }
        let assign = social_partition(&g, &communities, &replicas, 2, &log);
        assert_eq!(assign, vec![1, 0]);
    }

    #[test]
    fn unaccessed_segments_fall_back_to_round_robin() {
        let g = planted_partition(2, 5, 0.9, 0.1, 1);
        let communities = Partition::from_labels(&[0, 0, 0, 0, 0, 1, 1, 1, 1, 1]);
        let replicas = [NodeId(0), NodeId(5)];
        let log = AccessLog::new();
        let assign = social_partition(&g, &communities, &replicas, 4, &log);
        assert_eq!(assign, vec![0, 1, 0, 1]);
    }

    #[test]
    fn social_beats_hash_on_locality() {
        let g = planted_partition(2, 15, 0.8, 0.01, 9);
        let labels: Vec<u32> = (0..30).map(|i| (i / 15) as u32).collect();
        let communities = Partition::from_labels(&labels);
        let replicas = [NodeId(0), NodeId(15)];
        let mut log = AccessLog::new();
        // Community-aligned access pattern over 10 segments.
        for seg in 0..10u32 {
            let base = if seg % 2 == 0 { 0 } else { 15 };
            for u in base..base + 15 {
                log.record(NodeId(u), seg);
            }
        }
        let social = social_partition(&g, &communities, &replicas, 10, &log);
        let hash = hash_partition(10, 2);
        let cs = locality_cost(&g, &replicas, &social, &log, 10);
        let ch = locality_cost(&g, &replicas, &hash, &log, 10);
        assert!(cs <= ch, "social {cs} should beat hash {ch}");
        assert!(cs < 2.0, "locality should be near 1 hop, got {cs}");
    }

    #[test]
    fn locality_cost_empty_log_is_zero() {
        let g = planted_partition(1, 5, 0.5, 0.0, 2);
        let cost = locality_cost(&g, &[NodeId(0)], &[0, 0], &AccessLog::new(), 10);
        assert_eq!(cost, 0.0);
    }
}
