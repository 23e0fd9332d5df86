//! Property-based tests for placement, partitioning, replication, and
//! replica resolution (the resolve path vs the full-BFS oracle), and the
//! catalog against a reference model.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use scdn_alloc::discovery::{select_replica_full_bfs, Candidate, Selection};
use scdn_alloc::partitioning::{hash_partition, social_partition, AccessLog};
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_alloc::replication::{DemandWindow, ReplicationPolicy, StaticRebalance};
use scdn_alloc::server::{AllocationError, AllocationServer, RepositoryInfo};
use scdn_graph::community::Partition;
use scdn_graph::{CsrGraph, Graph, NodeId, TraversalScratch};
use scdn_social::author::AuthorId;
use scdn_storage::coding::CodingSpec;
use scdn_storage::object::DatasetId;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (3usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..80).prop_map(move |edges| {
            CsrGraph::from(&Graph::from_edges(
                n,
                edges.into_iter().map(|(a, b)| (a, b, 1)),
            ))
        })
    })
}

proptest! {
    #[test]
    fn placements_are_distinct_in_range(g in arb_graph(), k in 1usize..12, seed in 0u64..50) {
        for alg in PlacementAlgorithm::PAPER_SET
            .into_iter()
            .chain(PlacementAlgorithm::EXTENDED_SET)
        {
            let p = alg.place(&g, k, seed);
            prop_assert_eq!(p.len(), k.min(g.node_count()), "{:?}", alg);
            let mut sorted = p.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), p.len(), "{:?} duplicated", alg);
            for v in &p {
                prop_assert!(v.index() < g.node_count());
            }
        }
    }

    #[test]
    fn deterministic_algorithms_ignore_seed(g in arb_graph(), k in 1usize..8) {
        for alg in [
            PlacementAlgorithm::NodeDegree,
            PlacementAlgorithm::CommunityNodeDegree,
            PlacementAlgorithm::ClusteringCoefficient,
            PlacementAlgorithm::Betweenness,
            PlacementAlgorithm::SocialScore,
            PlacementAlgorithm::PageRank,
            PlacementAlgorithm::WeightedDegree,
        ] {
            prop_assert_eq!(alg.place(&g, k, 1), alg.place(&g, k, 999), "{:?}", alg);
        }
    }

    #[test]
    fn node_degree_placement_is_sorted_by_degree(g in arb_graph(), k in 1usize..8) {
        let p = PlacementAlgorithm::NodeDegree.place(&g, k, 0);
        for w in p.windows(2) {
            prop_assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
    }

    #[test]
    fn hash_partition_covers_all_replicas(segments in 1u32..100, replicas in 1usize..10) {
        let assignment = hash_partition(segments, replicas);
        prop_assert_eq!(assignment.len(), segments as usize);
        for &r in &assignment {
            prop_assert!(r < replicas);
        }
        // With segments >= replicas every replica gets something.
        if segments as usize >= replicas {
            let mut used = vec![false; replicas];
            for &r in &assignment {
                used[r] = true;
            }
            prop_assert!(used.into_iter().all(|u| u));
        }
    }

    #[test]
    fn social_partition_assignments_valid(g in arb_graph(), segments in 1u32..20) {
        let labels: Vec<u32> = (0..g.node_count() as u32).map(|i| i % 3).collect();
        let communities = Partition::from_labels(&labels);
        let replicas: Vec<NodeId> = g.nodes().take(3).collect();
        if replicas.is_empty() {
            return Ok(());
        }
        let mut log = AccessLog::new();
        for v in g.nodes().take(10) {
            log.record(v, v.0 % segments);
        }
        let assignment = social_partition(&g, &communities, &replicas, segments, &log);
        prop_assert_eq!(assignment.len(), segments as usize);
        for &r in &assignment {
            prop_assert!(r < replicas.len());
        }
    }

    #[test]
    fn replication_targets_bounded(current in 0usize..20, hits in 0u64..10_000, misses in 0u64..10_000) {
        let policy = ReplicationPolicy::default();
        let d = DemandWindow { hits, misses };
        let target = policy.target_replicas(current, d);
        prop_assert!(target >= policy.min_replicas);
        prop_assert!(target <= policy.max_replicas);
        // More demand never lowers the target.
        let d2 = DemandWindow {
            hits: hits + 500,
            misses,
        };
        prop_assert!(policy.target_replicas(current, d2) >= target);
    }

    /// The `RebalancePolicy` impl on `ReplicationPolicy` produces plans
    /// bit-identical to the pre-trait `rebalance_plan` (the inline
    /// `target_replicas` + `should_shrink` clamp, recomputed here from the
    /// public formula), and `StaticRebalance` additionally reproduces the
    /// maintain paths' old `replicas_per_dataset.max(target)` grow clamp —
    /// on growth only.
    #[test]
    fn static_policy_plan_matches_legacy_rebalance_plan(
        datasets in proptest::collection::vec(
            (1usize..6, 0u64..400, 0u64..400),
            1..10,
        ),
        requests_per_replica in 1u64..200,
        grow_floor in 0usize..8,
    ) {
        let srv = AllocationServer::new();
        let members = 32u32;
        for v in 0..members {
            srv.register_repository(RepositoryInfo {
                node: NodeId(v),
                owner: AuthorId(v),
                capacity: 1,
                availability: 1.0,
            });
        }
        let mut ids = Vec::new();
        for (i, &(replicas, hits, misses)) in datasets.iter().enumerate() {
            let d = DatasetId(i as u32);
            let owner = NodeId(i as u32 % members);
            srv.register_dataset(d, 1, owner).expect("registered");
            for j in 1..replicas {
                let _ = srv.add_replica(d, NodeId((i as u32 + j as u32) % members));
            }
            // Hops <= 1 records a hit, further records a miss.
            for _ in 0..hits {
                srv.commit_resolution(d, Some(Some(1)));
            }
            for _ in 0..misses {
                srv.commit_resolution(d, Some(Some(3)));
            }
            ids.push(d);
        }
        let policy = ReplicationPolicy {
            requests_per_replica,
            ..ReplicationPolicy::default()
        };
        // The pre-trait plan, recomputed from the public formula.
        let mut legacy: Vec<(DatasetId, usize, usize)> = Vec::new();
        for &d in &ids {
            let current = srv.replicas_of(d).expect("known").len();
            let demand = srv.demand_of(d).expect("known");
            let mut target = policy.target_replicas(current, demand);
            if policy.should_shrink(current, demand) {
                target = target
                    .min(current.saturating_sub(1))
                    .max(policy.min_replicas);
            }
            if target != current {
                legacy.push((d, current, target));
            }
        }
        let got: Vec<_> = srv.rebalance_plan(&policy).triples().collect();
        prop_assert_eq!(&got, &legacy);
        // StaticRebalance = legacy plan + the old grow-path clamp.
        let static_policy = StaticRebalance { policy, grow_floor };
        let clamped: Vec<_> = legacy
            .iter()
            .map(|&(d, c, t)| (d, c, if t > c { t.max(grow_floor) } else { t }))
            .collect();
        let got_static: Vec<_> = srv.rebalance_plan(&static_policy).triples().collect();
        prop_assert_eq!(&got_static, &clamped);
    }
}

fn selections_equal(a: &Option<Selection>, b: &Option<Selection>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.node == y.node
                && x.social_hops == y.social_hops
                && (x.latency_ms == y.latency_ms
                    || (x.latency_ms.is_nan() && y.latency_ms.is_nan()))
        }
        _ => false,
    }
}

proptest! {
    /// End-to-end: `resolve_csr` (cache + pooled scratch) agrees with the
    /// full-BFS oracle over the catalogued replica set under random
    /// replica sets and online masks — asked twice per requester so the
    /// second pass exercises the warm cache. The inputs include more than
    /// eight replicas, sets with every replica offline (`offline_mod` 1),
    /// NaN latencies (a replica id ≡ `nan_at` mod 5, when `nan_at` < 5),
    /// and requesters past the end of the graph.
    #[test]
    fn resolve_csr_matches_full_bfs_oracle(
        g in arb_graph(),
        replicas in proptest::collection::vec(0u32..40, 1..16),
        offline_mod in 1u32..5,
        nan_at in 0u32..8,
        requesters in proptest::collection::vec(0u32..42, 1..5),
    ) {
        let n = g.node_count() as u32;
        let srv = server_with_dataset(&g, &replicas);
        let online = |v: NodeId| !v.0.is_multiple_of(offline_mod);
        let latency = |v: NodeId| {
            if v.0 % 5 == nan_at {
                f64::NAN
            } else {
                (v.0 % 13) as f64 - 3.0
            }
        };
        let candidates: Vec<Candidate> = srv
            .replicas_of(DatasetId(0))
            .expect("registered")
            .into_iter()
            .map(|node| Candidate {
                node,
                online: online(node),
                latency_ms: latency(node),
                availability: srv.repository(node).expect("registered").availability,
            })
            .collect();
        let mut full = TraversalScratch::new();
        for _pass in 0..2 {
            for &req in &requesters {
                // 40 and 41 name nodes past the end of the graph.
                let req = NodeId(if req < 40 { req % n } else { n + req - 40 });
                let oracle = select_replica_full_bfs(&g, req, &candidates, &mut full)
                    .ok_or(AllocationError::NoReplicaAvailable(DatasetId(0)));
                let fast = srv.resolve_csr(DatasetId(0), req, &g, online, latency);
                match (&oracle, &fast) {
                    (Ok(a), Ok(b)) => prop_assert!(
                        selections_equal(&Some(*a), &Some(*b)),
                        "req {req:?}: {a:?} != {b:?}"
                    ),
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(false, "req {req:?}: {oracle:?} vs {fast:?}"),
                }
            }
        }
    }
}

/// A server over `g` with every node a repository and dataset 0 on
/// `replicas` (reduced modulo the node count; the first is the primary).
fn server_with_dataset(g: &CsrGraph, replicas: &[u32]) -> AllocationServer {
    let n = g.node_count() as u32;
    let srv = AllocationServer::new();
    srv.register_repositories(g.nodes().map(|v| RepositoryInfo {
        node: v,
        owner: AuthorId(v.0),
        capacity: 1,
        availability: (v.0 % 7) as f64 / 7.0,
    }));
    srv.register_dataset(DatasetId(0), 1, NodeId(replicas[0] % n))
        .expect("ok");
    for &r in &replicas[1..] {
        let _ = srv.add_replica(DatasetId(0), NodeId(r % n));
    }
    srv
}

proptest! {
    /// A slot filled under one liveness mask answers a request under
    /// another exactly as a cold resolve on a fresh server does: the
    /// second mask may take offline the replica whose distance bounded
    /// the first search, and then the slot must not answer.
    #[test]
    fn cached_slot_under_a_new_mask_matches_a_cold_resolve(
        g in arb_graph(),
        replicas in proptest::collection::vec(0u32..40, 1..6),
        masks in (any::<u64>(), any::<u64>()),
        requesters in proptest::collection::vec(0u32..40, 1..5),
    ) {
        let n = g.node_count() as u32;
        let warm = server_with_dataset(&g, &replicas);
        let [a, b] = [masks.0, masks.1].map(|m| move |v: NodeId| m >> (v.0 % 64) & 1 == 1);
        let latency = |v: NodeId| (v.0 % 13) as f64 - 3.0;
        for &req in &requesters {
            let req = NodeId(req % n);
            let _ = warm.resolve_csr(DatasetId(0), req, &g, a, latency);
            let got = warm.resolve_csr(DatasetId(0), req, &g, b, latency);
            let cold = server_with_dataset(&g, &replicas)
                .resolve_csr(DatasetId(0), req, &g, b, latency);
            prop_assert_eq!(got, cold, "requester {:?}", req);
        }
    }
}

/// The replica that bounded a search goes offline. Node 1 (degree 3) is
/// one hop from requester 0 and is settled first, so it bounds the search
/// at 1 and node 2 (degree 1), two hops away behind node 5, is left
/// unsettled. With node 1 offline the slot cannot decide — its one online
/// replica was never settled — so the lookup searches again and finds
/// node 2 at two hops, as a cold server does.
#[test]
fn bound_setter_going_offline_forces_a_fresh_search() {
    let g = CsrGraph::from(&Graph::from_edges(
        6,
        [(0, 1, 1), (1, 3, 1), (1, 4, 1), (0, 5, 1), (5, 2, 1)],
    ));
    let all = |_: NodeId| true;
    let without_1 = |v: NodeId| v != NodeId(1);
    let latency = |_: NodeId| 1.0;
    let srv = server_with_dataset(&g, &[2, 1]);
    let first = srv
        .resolve_csr(DatasetId(0), NodeId(0), &g, all, latency)
        .expect("resolves");
    assert_eq!((first.node, first.social_hops), (NodeId(1), Some(1)));
    assert_eq!(
        srv.metrics().targets_beyond_bound.get(),
        1,
        "node 2 unsettled"
    );

    let after = srv.resolve_csr(DatasetId(0), NodeId(0), &g, without_1, latency);
    let cold = server_with_dataset(&g, &[2, 1]).resolve_csr(
        DatasetId(0),
        NodeId(0),
        &g,
        without_1,
        latency,
    );
    assert_eq!(after, cold);
    let after = after.expect("node 2 is online");
    assert_eq!((after.node, after.social_hops), (NodeId(2), Some(2)));
    assert_eq!(srv.metrics().cache_bound_misses.get(), 1);
    assert_eq!(srv.metrics().cache_misses.get(), 2);

    // The refreshed slot (bound 2) decides the first mask again: a hit.
    let again = srv
        .resolve_csr(DatasetId(0), NodeId(0), &g, all, latency)
        .expect("resolves");
    assert_eq!(again, first);
    assert_eq!(srv.metrics().cache_hits.get(), 1);
}

/// Migrating a replica bumps the catalog-entry version, so the next
/// resolution recomputes hop distances instead of serving the stale
/// cached set: the selection moves to the new host.
#[test]
fn migration_invalidates_cached_resolution() {
    // Path: 0 - 1 - 2 - 3 - 4. Replica starts far (4), moves adjacent (1).
    let csr = CsrGraph::from(&Graph::from_edges(
        5,
        [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)],
    ));
    let srv = AllocationServer::new();
    for v in csr.nodes() {
        srv.register_repository(RepositoryInfo {
            node: v,
            owner: AuthorId(v.0),
            capacity: 1,
            availability: 1.0,
        });
    }
    srv.register_dataset(DatasetId(0), 1, NodeId(4))
        .expect("ok");
    let first = srv
        .resolve_csr(DatasetId(0), NodeId(0), &csr, |_| true, |_| 1.0)
        .expect("resolves");
    assert_eq!(first.node, NodeId(4));
    assert_eq!(first.social_hops, Some(4));
    // Warm the cache, then migrate.
    let again = srv
        .resolve_csr(DatasetId(0), NodeId(0), &csr, |_| true, |_| 1.0)
        .expect("resolves");
    assert_eq!(again.node, NodeId(4));
    srv.migrate_replica(DatasetId(0), NodeId(4), NodeId(1))
        .expect("migrates");
    let after = srv
        .resolve_csr(DatasetId(0), NodeId(0), &csr, |_| true, |_| 1.0)
        .expect("resolves");
    assert_eq!(after.node, NodeId(1), "stale cache would still say 4");
    assert_eq!(after.social_hops, Some(1));
}

/// Reference catalog: the allocation server's table as plain ordered
/// maps. Every op that changes an entry takes the next global version;
/// a no-op or an error takes none.
#[derive(Default)]
struct CatalogModel {
    availability: BTreeMap<NodeId, f64>,
    entries: BTreeMap<DatasetId, ModelEntry>,
    version: u64,
}

struct ModelEntry {
    replicas: Vec<NodeId>,
    coding: Option<CodingSpec>,
    coded: BTreeMap<NodeId, BTreeSet<u32>>,
    version: u64,
}

impl CatalogModel {
    fn repo(&self, n: NodeId) -> Result<(), AllocationError> {
        match self.availability.contains_key(&n) {
            true => Ok(()),
            false => Err(AllocationError::UnknownRepository(n)),
        }
    }

    /// The entry of `d`, if `node` (when given) is a repository.
    fn entry(
        &mut self,
        d: DatasetId,
        node: Option<NodeId>,
    ) -> Result<&mut ModelEntry, AllocationError> {
        node.map_or(Ok(()), |n| self.repo(n))?;
        self.entries
            .get_mut(&d)
            .ok_or(AllocationError::UnknownDataset(d))
    }

    /// Stamp `d` with the next version when `changed`.
    fn bump(&mut self, d: DatasetId, changed: bool) -> bool {
        if changed {
            self.version += 1;
            self.entries.get_mut(&d).expect("entry").version = self.version;
        }
        changed
    }

    fn register(
        &mut self,
        d: DatasetId,
        primary: NodeId,
        coding: Option<CodingSpec>,
    ) -> Result<(), AllocationError> {
        self.repo(primary)?;
        if self.entries.contains_key(&d) {
            return Err(AllocationError::DuplicateDataset(d));
        }
        let (replicas, coded, version) = (vec![primary], BTreeMap::new(), 0);
        self.entries.insert(
            d,
            ModelEntry {
                replicas,
                coding,
                coded,
                version,
            },
        );
        self.bump(d, true);
        Ok(())
    }

    fn migrate(&mut self, d: DatasetId, from: NodeId, to: NodeId) -> Result<(), AllocationError> {
        let e = self.entry(d, Some(to))?;
        let pos = e.replicas.iter().position(|&n| n == from);
        let pos = pos.ok_or(AllocationError::UnknownRepository(from))?;
        if from != to {
            match e.replicas.contains(&to) {
                true => drop(e.replicas.remove(pos)),
                false => e.replicas[pos] = to,
            }
        }
        self.bump(d, from != to);
        Ok(())
    }

    fn hosted_by(&self, n: NodeId) -> Vec<DatasetId> {
        let hosts = |e: &ModelEntry| e.replicas.contains(&n) || e.coded.contains_key(&n);
        self.entries
            .iter()
            .filter(|(_, e)| hosts(e))
            .map(|(&d, _)| d)
            .collect()
    }
}

proptest! {
    /// `AllocationServer`'s catalog agrees with `CatalogModel` after every
    /// op of a random sequence: return values, replica lists, coded
    /// inventories, coding specs, entry versions, the hosted index and
    /// the repository availability. An op is `(kind, dataset, node a,
    /// node b, blocks)`; nodes 0..6 are repositories, 6 and 7 are not.
    /// Covers migrating a replica onto itself and onto unknown nodes,
    /// no-op announcements and errors.
    #[test]
    fn catalog_matches_the_reference_model(
        ops in proptest::collection::vec(
            (0u8..9, 0u32..5, 0u32..8, 0u32..8, proptest::collection::vec(0u32..6, 0..4)),
            1..48,
        ),
    ) {
        let srv = AllocationServer::new();
        let mut model = CatalogModel::default();
        for v in 0..6 {
            model.availability.insert(NodeId(v), 0.5);
            srv.register_repository(RepositoryInfo {
                node: NodeId(v),
                owner: AuthorId(v),
                capacity: 1,
                availability: 0.5,
            });
        }
        let spec = CodingSpec { k: 2, m: 1, seed: 3, total_len: 64 };
        for (i, (kind, d, a, b, blocks)) in ops.into_iter().enumerate() {
            let (d, a, b) = (DatasetId(d), NodeId(a), NodeId(b));
            let (got, want) = match kind {
                0 => (
                    format!("{:?}", srv.register_dataset(d, 1, a)),
                    format!("{:?}", model.register(d, a, None)),
                ),
                1 => (
                    format!("{:?}", srv.register_dataset_coded(d, 1, a, spec)),
                    format!("{:?}", model.register(d, a, Some(spec))),
                ),
                2 => (format!("{:?}", srv.add_replica(d, a)), {
                    let added = model
                        .entry(d, Some(a))
                        .map(|e| !e.replicas.contains(&a) && { e.replicas.push(a); true });
                    format!("{:?}", added.map(|added| model.bump(d, added)))
                }),
                3 => (format!("{:?}", srv.remove_replica(d, a)), {
                    let removed = model.entry(d, None).map(|e| {
                        let before = e.replicas.len();
                        e.replicas.retain(|&n| n != a);
                        e.replicas.len() != before
                    });
                    format!("{:?}", removed.map(|removed| model.bump(d, removed)))
                }),
                4 | 5 => {
                    let to = if kind == 5 { a } else { b };
                    (
                        format!("{:?}", srv.migrate_replica(d, a, to)),
                        format!("{:?}", model.migrate(d, a, to)),
                    )
                }
                6 => (format!("{:?}", srv.add_coded_blocks(d, a, &blocks)), {
                    let grew = model.entry(d, Some(a)).map(|e| {
                        let held = e.coded.get(&a).map_or(0, BTreeSet::len);
                        let merged: BTreeSet<u32> =
                            e.coded.get(&a).into_iter().flatten().chain(&blocks).copied().collect();
                        let grew = merged.len() != held;
                        if grew {
                            e.coded.insert(a, merged);
                        }
                        grew
                    });
                    format!("{:?}", grew.map(|grew| model.bump(d, grew)))
                }),
                7 => (format!("{:?}", srv.remove_coded_host(d, a)), {
                    let held = model.entry(d, None).map(|e| e.coded.remove(&a).is_some());
                    format!("{:?}", held.map(|held| model.bump(d, held)))
                }),
                _ => {
                    let availability = f64::from(b.0) / 4.0 - 0.25;
                    let want = model.repo(a).map(|()| {
                        model.availability.insert(a, availability.clamp(0.0, 1.0));
                    });
                    (
                        format!("{:?}", srv.report_availability(a, availability)),
                        format!("{want:?}"),
                    )
                }
            };
            prop_assert_eq!(got, want, "op {} (kind {})", i, kind);
            for d in (0..5).map(DatasetId) {
                let e = model.entries.get(&d);
                prop_assert_eq!(
                    srv.replicas_of(d).ok(),
                    e.map(|e| e.replicas.clone()),
                    "op {}: replicas of {:?}", i, d
                );
                let inventory = srv.coded_inventory(d).ok().map(|inv| {
                    inv.into_iter().map(|(n, b)| (n, (*b).clone())).collect::<Vec<_>>()
                });
                let want: Option<Vec<(NodeId, Vec<u32>)>> = e.map(|e| {
                    e.coded.iter().map(|(&n, b)| (n, b.iter().copied().collect())).collect()
                });
                prop_assert_eq!(inventory, want, "op {}: inventory of {:?}", i, d);
                prop_assert_eq!(srv.coding_of(d).ok(), e.map(|e| e.coding));
                prop_assert_eq!(srv.catalog_version(d), e.map(|e| e.version), "op {}", i);
            }
            for n in (0..8).map(NodeId) {
                prop_assert_eq!(srv.datasets_hosted_by(n), model.hosted_by(n), "op {}", i);
                let availability = srv.repository(n).map(|r| r.availability);
                prop_assert_eq!(availability, model.availability.get(&n).copied());
            }
        }
    }
}
