//! Unit tests for the S-CDN runtime (kept in a separate file to keep
//! `system.rs` readable; included via `#[cfg(test)] mod system_tests`).

use bytes::Bytes;
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_graph::NodeId;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn_social::SyntheticDblp;
use scdn_storage::object::Sensitivity;
use scdn_storage::repository::Partition;

use crate::system::{AvailabilityConfig, Scdn, ScdnConfig, ScdnError};

fn community() -> (SyntheticDblp, TrustSubgraph) {
    let mut params = CaseStudyParams::default();
    params.level2_prob = 0.3;
    params.level3_prob = 0.0;
    params.mega_pub_authors = 0;
    params.rng_seed = 77;
    let c = generate(&params);
    let sub = build_trust_subgraph(
        &c.corpus,
        c.seed_author,
        3,
        2009..=2010,
        TrustFilter::Baseline,
    )
    .expect("seed present");
    (c, sub)
}

#[test]
fn build_registers_everyone() {
    let (c, sub) = community();
    let scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    assert_eq!(scdn.member_count(), sub.graph.node_count());
    assert_eq!(scdn.allocation().repository_count(), sub.graph.node_count());
    assert_eq!(scdn.platform().user_count(), sub.graph.node_count());
    // Contributed capacity is recorded for the social metrics.
    assert_eq!(
        scdn.social_metrics.contributed_bytes,
        sub.graph.node_count() as u64 * ScdnConfig::default().repo_capacity
    );
    // Relationships mirror the coauthorship edges.
    let (a, b, _) = sub.graph.edges().next().expect("has edges");
    let ua = scdn
        .platform()
        .user_of_author(sub.author_of(a))
        .expect("registered");
    let ub = scdn
        .platform()
        .user_of_author(sub.author_of(b))
        .expect("registered");
    assert!(scdn.platform().are_friends(ua, ub));
}

#[test]
fn publish_stores_segments_in_user_partition() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let owner = NodeId(3);
    let id = scdn
        .publish(
            owner,
            "segmented",
            Bytes::from(vec![1u8; 700 << 10]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let repo = scdn.repo(owner).expect("repo");
    // 700 KiB at the default 256 KiB segment size = 3 segments.
    assert_eq!(repo.segment_count(Partition::User), 3);
    assert_eq!(repo.segment_count(Partition::Replica), 0);
    assert_eq!(scdn.allocation().segments_of(id).expect("known"), 3);
    assert_eq!(scdn.replicas_of(id).expect("known"), vec![owner]);
}

#[test]
fn publish_to_unknown_node_fails() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let bogus = NodeId(scdn.member_count() as u32 + 5);
    match scdn.publish(bogus, "x", Bytes::new(), Sensitivity::Public, None) {
        Err(ScdnError::UnknownNode(n)) => assert_eq!(n, bogus),
        other => panic!("expected unknown node, got ok={}", other.is_ok()),
    }
}

#[test]
fn replicate_respects_target_count_and_skips_owner() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.replicas_per_dataset = 4;
    config.placement = PlacementAlgorithm::NodeDegree;
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let owner = NodeId(0);
    let id = scdn
        .publish(
            owner,
            "r4",
            Bytes::from(vec![0u8; 1024]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let added = scdn.replicate(id).expect("replicates");
    assert_eq!(added.len(), 3);
    assert!(!added.contains(&owner));
    // Idempotent: a second call adds nothing.
    assert!(scdn.replicate(id).expect("noop").is_empty());
    // Each added host holds the segment in its replica partition.
    for &h in &added {
        assert_eq!(
            scdn.repo(h)
                .expect("repo")
                .segment_count(Partition::Replica),
            1
        );
    }
}

#[test]
fn replication_records_hosting_and_exchanges() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let id = scdn
        .publish(
            NodeId(0),
            "m",
            Bytes::from(vec![0u8; 64 << 10]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(id).expect("replicates");
    assert!(scdn.social_metrics.hosting_requests >= 2);
    assert_eq!(scdn.social_metrics.acceptance_rate(), 100.0);
    assert!(scdn.social_metrics.exchanges_ok >= 2);
    assert!(scdn.cdn_metrics.bytes_transferred > 0);
    assert!(scdn.cdn_metrics.redundancy.mean() >= 3.0);
}

#[test]
fn offline_hosts_rejected_during_replication() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.availability = AvailabilityConfig::Periodic {
        period_ms: 10_000,
        duty: 0.3,
    };
    config.replicas_per_dataset = 5;
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let id = scdn
        .publish(
            NodeId(0),
            "c",
            Bytes::from(vec![0u8; 1024]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.tick(1_000);
    let _ = scdn.replicate(id);
    // With 30% duty some hosting requests must have been rejected.
    assert!(
        scdn.social_metrics.hosting_requests > scdn.social_metrics.hosting_accepted,
        "expected rejections: {} vs {}",
        scdn.social_metrics.hosting_requests,
        scdn.social_metrics.hosting_accepted
    );
    assert!(scdn.social_metrics.acceptance_rate() < 100.0);
}

#[test]
fn request_hits_when_neighbor_hosts() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let owner = NodeId(0);
    let id = scdn
        .publish(
            owner,
            "n",
            Bytes::from(vec![0u8; 2048]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    // A direct neighbor of the owner is a social hit even pre-replication.
    let neighbor = sub.graph.neighbors(owner)[0].to;
    let outcome = scdn.request(neighbor, id).expect("served");
    assert!(outcome.social_hit);
    assert_eq!(outcome.served_by, owner);
    assert_eq!(scdn.cdn_metrics.hits, 1);
}

#[test]
fn requests_leave_well_formed_traces_and_valid_snapshot() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let owner = NodeId(0);
    let id = scdn
        .publish(
            owner,
            "traced",
            Bytes::from(vec![7u8; 4096]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(id).expect("replicates");
    let neighbor = sub.graph.neighbors(owner)[0].to;
    scdn.request(neighbor, id).expect("served");
    // A failed request (unknown dataset) must also be traced.
    let bogus = scdn.request(neighbor, scdn_storage::object::DatasetId(999));
    assert!(bogus.is_err());
    scdn.tick(1_000);
    assert_eq!(scdn.traces().len(), 2);
    let traces: Vec<_> = scdn.traces().recent().collect();
    assert!(traces.iter().all(|t| t.is_well_formed()));
    assert!(traces[0].delivered());
    assert!(!traces[1].delivered());
    let snap = scdn.observability_snapshot();
    scdn_obs::validate(&snap).expect("snapshot passes schema validation");
    assert_eq!(snap.counter("trace.recorded"), Some(2));
    assert_eq!(snap.counter("alloc.resolve.ok"), Some(1));
    assert!(snap.histogram("cdn.response_time_ms").unwrap().count() >= 1);
    assert!(snap.gauge("core.online_fraction").unwrap() > 0.0);
    scdn_obs::validate_json(&scdn_obs::to_json(&snap)).expect("export round-trips");
}

#[test]
fn coded_requests_leave_well_formed_traces() {
    use scdn_obs::SpanKind::{Authenticate, Deliver, Discover, Fail};
    use scdn_storage::coding::{CodedBlockId, CodingConfig};
    use scdn_storage::object::Segment;

    let (c, sub) = community();
    let config = ScdnConfig {
        coding: CodingConfig::Rs { k: 2, m: 1 },
        ..ScdnConfig::default()
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let id = scdn
        .publish(
            NodeId(0),
            "traced-coded",
            Bytes::from(vec![7u8; 4096]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let hosts = scdn.replicate(id).expect("places every block");
    let mut requesters = (1..scdn.member_count() as u32)
        .map(NodeId)
        .filter(|n| !hosts.contains(n));
    let served = requesters.next().expect("a member hosting nothing");
    let refused = requesters.next().expect("another");
    scdn.request(served, id).expect("served by the race");
    // The host of block 0 rewrites it under a checksum of its own bytes;
    // the race takes blocks in ascending order, so it lands.
    let block = CodedBlockId {
        dataset: id,
        index: 0,
    }
    .segment_id();
    let inventory = scdn.allocation().coded_inventory(id).expect("coded");
    let (host, _) = inventory
        .iter()
        .find(|(_, blocks)| blocks.contains(&0))
        .expect("block 0 is placed");
    scdn.repo(*host)
        .expect("member")
        .store(
            Partition::Replica,
            Segment::new(block, Bytes::from(vec![0x55u8; 2048])),
        )
        .expect("same size fits");
    assert!(scdn.request(refused, id).is_err(), "a forged block fails");

    let traces: Vec<_> = scdn.traces().recent().collect();
    assert_eq!(traces.len(), 2);
    assert!(traces.iter().all(|t| t.is_well_formed()));
    let kinds = |i: usize| traces[i].spans.iter().map(|s| s.kind).collect::<Vec<_>>();
    assert_eq!(kinds(0), [Authenticate, Discover, Deliver]);
    assert_eq!(kinds(1), [Authenticate, Discover, Fail]);
    let snap = scdn.observability_snapshot();
    assert_eq!(snap.counter("core.transfer.owner_digest_mismatch"), Some(1));
    assert!(snap.counter("net.attempts.delivered").unwrap_or(0) >= 4);
}

#[test]
fn clock_advances_with_traffic() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let t0 = scdn.now();
    scdn.tick(5_000);
    assert_eq!(scdn.now().since(t0), 5_000);
    let id = scdn
        .publish(
            NodeId(0),
            "t",
            Bytes::from(vec![0u8; 512 << 10]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(id).expect("replicates");
    assert!(scdn.now().since(t0) > 5_000, "transfers consume time");
}

#[test]
fn availability_sampling_tracks_duty() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.availability = AvailabilityConfig::Periodic {
        period_ms: 20_000,
        duty: 0.6,
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    for _ in 0..200 {
        scdn.tick(457);
    }
    let mean = scdn.cdn_metrics.availability_samples.mean();
    assert!((mean - 0.6).abs() < 0.1, "mean availability {mean}");
}

#[test]
fn maintenance_sheds_idle_replicas() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.replicas_per_dataset = 6;
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let id = scdn
        .publish(
            NodeId(0),
            "idle",
            Bytes::from(vec![0u8; 1024]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(id).expect("replicates");
    assert_eq!(scdn.replicas_of(id).expect("known").len(), 6);
    // No demand at all: the policy sheds down toward sustainable levels.
    let changes = scdn.maintain();
    assert!(changes > 0, "idle dataset should shed a replica");
    assert!(scdn.replicas_of(id).expect("known").len() < 6);
}

#[test]
fn shrinking_to_the_floor_never_evicts_the_owner() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.replicas_per_dataset = 5;
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let owner = NodeId(0);
    let id = scdn
        .publish(
            owner,
            "reordered",
            Bytes::from(vec![0u8; 1024]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(id).expect("replicates");
    assert_eq!(scdn.replicas_of(id).expect("known").len(), 5);
    // Churn/repair can reorder the replica list; simulate the worst case
    // by rotating the owner to the rear — the next shrink's victim pool.
    scdn.allocation()
        .remove_replica(id, owner)
        .expect("owner listed");
    scdn.allocation().add_replica(id, owner).expect("re-added");
    assert_eq!(
        *scdn.replicas_of(id).expect("known").last().expect("5 left"),
        owner
    );
    // Shed all the way down to one replica: every non-owner is fair game,
    // but the primary copy must survive.
    let shed = scdn.shed_replicas(id, 4);
    assert_eq!(shed.len(), 4);
    assert!(!shed.contains(&owner), "owner must never be a shed victim");
    assert_eq!(scdn.replicas_of(id).expect("known"), vec![owner]);
    // Asking for more victims than there are non-owner replicas sheds one
    // fewer instead of touching the owner.
    assert!(scdn.shed_replicas(id, 3).is_empty());
    assert_eq!(scdn.replicas_of(id).expect("known"), vec![owner]);
}

#[test]
fn adaptive_targets_are_honored_below_the_configured_count() {
    use scdn_alloc::replication::AdaptiveRebalance;

    use crate::system::RebalanceStrategy;

    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    // The static floor is 4, but the adaptive budget only affords 2: the
    // old `replicas_per_dataset.max(target)` clamp would force 4.
    config.replicas_per_dataset = 4;
    config.rebalance = RebalanceStrategy::Adaptive(AdaptiveRebalance::with_budget(2));
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let id = scdn
        .publish(
            NodeId(0),
            "capped",
            Bytes::from(vec![0u8; 1024]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    // Some demand so the dataset earns its share of the budget.
    for _ in 0..8 {
        let _ = scdn.resolve_replica(NodeId(1), id);
    }
    scdn.maintain();
    assert_eq!(
        scdn.replicas_of(id).expect("known").len(),
        2,
        "policy target must be honored verbatim, not clamped to the config floor"
    );
}

#[test]
fn departure_and_repair_restore_redundancy() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let id = scdn
        .publish(
            NodeId(0),
            "d",
            Bytes::from(vec![0u8; 2048]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let added = scdn.replicate(id).expect("replicates");
    assert_eq!(scdn.replicas_of(id).expect("known").len(), 3);
    // A replica host leaves permanently.
    let victim = added[0];
    let affected = scdn.depart(victim).expect("departs");
    assert_eq!(affected, vec![id]);
    assert!(!scdn.is_online(victim));
    assert_eq!(scdn.replicas_of(id).expect("known").len(), 2);
    // Repair restores the configured replica count on a live node.
    let restored = scdn.repair();
    assert_eq!(restored, 1);
    let replicas = scdn.replicas_of(id).expect("known");
    assert_eq!(replicas.len(), 3);
    assert!(!replicas.contains(&victim), "departed node must not host");
}

#[test]
fn telemetry_reaches_allocation_server() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.availability = AvailabilityConfig::Periodic {
        period_ms: 10_000,
        duty: 0.5,
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    for _ in 0..400 {
        scdn.tick(333);
    }
    scdn.report_telemetry();
    // The server's registry now reflects ~50% availability estimates.
    let mut sum = 0.0;
    let n = scdn.member_count();
    for i in 0..n {
        sum += scdn
            .allocation()
            .repository(NodeId(i as u32))
            .expect("registered")
            .availability;
    }
    let mean = sum / n as f64;
    assert!(
        (mean - 0.5).abs() < 0.15,
        "mean reported availability {mean}"
    );
}

#[test]
fn departed_nodes_report_zero_availability() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    scdn.depart(NodeId(1)).expect("departs");
    for _ in 0..100 {
        scdn.tick(100);
    }
    scdn.report_telemetry();
    let a = scdn
        .allocation()
        .repository(NodeId(1))
        .expect("still registered")
        .availability;
    assert!(a < 0.05, "departed node availability {a}");
}

#[test]
fn overlay_links_mirror_social_edges() {
    let (c, sub) = community();
    let scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    assert_eq!(scdn.overlay().link_count(), sub.graph.edge_count());
    let first_edge = sub.graph.edges().next();
    if let Some((a, b, _)) = first_edge {
        assert!(scdn.overlay().linked(a, b));
    }
}

#[test]
fn social_boundary_blocks_cross_island_service() {
    // Build on the double-coauthorship graph, which fragments into
    // islands; with the boundary enforced, a replica in another island
    // cannot serve a requester.
    let mut params = CaseStudyParams::default();
    params.rng_seed = 13;
    let c = generate(&params);
    let sub = build_trust_subgraph(
        &c.corpus,
        c.seed_author,
        3,
        2009..=2010,
        TrustFilter::MinJointPubs(2),
    )
    .expect("seed present");
    let comps = scdn_graph::components::connected_components(&sub.graph);
    assert!(comps.count > 1, "double graph must fragment");
    let mut config = ScdnConfig::default();
    config.enforce_social_boundary = true;
    config.replicas_per_dataset = 1; // keep the data on the owner only
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    // Owner in the giant component; requester in a different island.
    let owner = sub.node_of(c.seed_author).expect("seed in graph");
    let owner_comp = comps.component_of(owner);
    let requester = scdn
        .social
        .nodes()
        .find(|&v| comps.component_of(v) != owner_comp)
        .expect("another island exists");
    let id = scdn
        .publish(
            owner,
            "island",
            Bytes::from(vec![1u8; 512]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    match scdn.request(requester, id) {
        Err(ScdnError::Alloc(_)) => {}
        other => panic!("expected boundary denial, got ok={}", other.is_ok()),
    }
    // A member of the owner's own island is served.
    let insider = scdn
        .social
        .nodes()
        .find(|&v| v != owner && comps.component_of(v) == owner_comp)
        .expect("insider exists");
    assert!(scdn.request(insider, id).is_ok());
}

#[test]
fn coded_request_obeys_the_social_boundary() {
    use scdn_alloc::server::AllocationError;
    use scdn_storage::coding::CodingConfig;

    // The same fragmented double-coauthorship graph, with the dataset held
    // as RS(2,1) blocks on hosts in the owner's island: a requester in
    // another island has no overlay route to any donor.
    let mut params = CaseStudyParams::default();
    params.rng_seed = 13;
    let c = generate(&params);
    let sub = build_trust_subgraph(
        &c.corpus,
        c.seed_author,
        3,
        2009..=2010,
        TrustFilter::MinJointPubs(2),
    )
    .expect("seed present");
    let comps = scdn_graph::components::connected_components(&sub.graph);
    let config = ScdnConfig {
        enforce_social_boundary: true,
        coding: CodingConfig::Rs { k: 2, m: 1 },
        ..ScdnConfig::default()
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let owner = sub.node_of(c.seed_author).expect("seed in graph");
    let island = comps.component_of(owner);
    let id = scdn
        .publish(
            owner,
            "coded-island",
            Bytes::from(vec![3u8; 4096]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let hosts = scdn.replicate(id).expect("places every block");
    assert_eq!(hosts.len(), 3);
    assert!(hosts.iter().all(|&h| comps.component_of(h) == island));
    let landed = |scdn: &Scdn| {
        scdn.observability_snapshot()
            .counter("core.coded.blocks_landed")
            .expect("registered at build")
    };
    let refused = |r: Result<_, ScdnError>| {
        matches!(
            r,
            Err(ScdnError::Alloc(AllocationError::NoReplicaAvailable(d))) if d == id
        )
    };

    let outsiders: Vec<NodeId> = scdn
        .social
        .nodes()
        .filter(|&v| comps.component_of(v) != island)
        .take(5)
        .collect();
    assert!(!outsiders.is_empty(), "another island exists");
    for &outsider in &outsiders {
        assert!(refused(scdn.request_coded(outsider, id)), "{outsider:?}");
        assert!(refused(scdn.request(outsider, id)), "{outsider:?}");
        let batch = scdn.request_batch(&[(outsider, id)]).pop().expect("one");
        assert!(refused(batch), "{outsider:?}");
    }
    assert_eq!(landed(&scdn), 0, "no block crossed the boundary");

    // A member of the owner's island, every donor routable, races k blocks.
    let insider = scdn
        .social
        .nodes()
        .find(|&v| v != owner && !hosts.contains(&v) && comps.component_of(v) == island)
        .expect("insider exists");
    let outcome = scdn.request(insider, id).expect("served by the race");
    assert_eq!(outcome.bytes, 2 * 2048, "k blocks on the wire");
    assert_eq!(landed(&scdn), 2);
    assert!(hosts.contains(&outcome.served_by));
}

#[test]
fn audit_trail_records_grants_and_denials() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let owner = sub.node_of(c.seed_author).expect("seed node");
    let policy = scdn_middleware::authz::AccessPolicy {
        sensitivity: Sensitivity::Restricted,
        owner: c.seed_author,
        group: None, // no group configured: everyone is denied
        grants: vec![],
        trust: None,
    };
    let id = scdn
        .publish(
            owner,
            "audited",
            Bytes::from(vec![0u8; 256]),
            Sensitivity::Restricted,
            Some(policy),
        )
        .expect("publishes");
    let requester = NodeId(5);
    assert!(scdn.request(requester, id).is_err());
    let public = scdn
        .publish(
            owner,
            "open",
            Bytes::from(vec![0u8; 256]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    assert!(scdn.request(requester, public).is_ok());
    let audit = scdn.audit();
    assert_eq!(audit.len(), 2);
    assert_eq!(audit.denials().len(), 1);
    assert!((audit.grant_ratio() - 0.5).abs() < 1e-12);
    assert_eq!(audit.by_dataset(id).len(), 1);
}

#[test]
fn opportunistic_caching_turns_misses_into_hits() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.opportunistic_caching = true;
    config.replicas_per_dataset = 1; // only the owner holds it initially
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let owner = NodeId(0);
    let id = scdn
        .publish(
            owner,
            "cacheable",
            Bytes::from(vec![0u8; 8192]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    // Find a requester at distance >= 2 (a miss) with a neighbor.
    let dist = scdn_graph::traversal::bfs_distances(scdn.social_csr(), owner);
    let far = scdn
        .social
        .nodes()
        .find(|v| matches!(dist[v.index()], Some(d) if d >= 2) && scdn.social.degree(*v) > 0)
        .expect("far node exists");
    let first = scdn.request(far, id).expect("served remotely");
    assert!(!first.social_hit, "first fetch is a miss");
    // The fetched copy became a replica at `far`.
    assert!(scdn.replicas_of(id).expect("known").contains(&far));
    // A neighbor of `far` now hits.
    let neighbor = scdn.social.neighbors(far)[0].to;
    let second = scdn.request(neighbor, id).expect("served");
    assert!(second.social_hit, "neighbor of the cache hits");
}

#[test]
fn caching_disabled_keeps_catalog_stable() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.replicas_per_dataset = 1;
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let id = scdn
        .publish(
            NodeId(0),
            "plain",
            Bytes::from(vec![0u8; 1024]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let far = NodeId((scdn.member_count() - 1) as u32);
    scdn.request(far, id).expect("served");
    assert_eq!(scdn.replicas_of(id).expect("known"), vec![NodeId(0)]);
}

#[test]
fn transfer_concurrency_config_reduces_multi_segment_time() {
    // Two identical systems, differing only in the configured stream
    // count. With 5 ms of per-attempt access latency, 8 segments in waves
    // of 4 must finish strictly sooner than 8 serial segments.
    let (c, sub) = community();
    let request_once = |streams: u32| {
        let mut config = ScdnConfig::default();
        config.segment_size = 16 << 10;
        config.transfer_concurrency = streams;
        let mut scdn = Scdn::build(&sub, &c.corpus, config);
        let owner = NodeId(0);
        let id = scdn
            .publish(
                owner,
                "striped",
                Bytes::from(vec![3u8; 128 << 10]), // 8 × 16 KiB segments
                Sensitivity::Public,
                None,
            )
            .expect("publishes");
        let requester = sub.graph.neighbors(owner)[0].to;
        scdn.request(requester, id).expect("served").response_ms
    };
    let serial_ms = request_once(1);
    let striped_ms = request_once(4);
    assert!(
        striped_ms < serial_ms,
        "4 streams ({striped_ms} ms) must beat 1 stream ({serial_ms} ms)"
    );
}

#[test]
fn batch_never_selects_node_departed_after_cache_warm() {
    // Warm the resolve cache with a served request, then permanently
    // depart the node that served it. A subsequent batch must re-resolve
    // against committed state and never select the departed host, even
    // though the hop-distance cache was warmed while it was alive.
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let owner = NodeId(0);
    let id = scdn
        .publish(
            owner,
            "warm",
            Bytes::from(vec![9u8; 8192]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(id).expect("replicates");
    let requester = sub.graph.neighbors(owner)[0].to;
    let warm = scdn.request(requester, id).expect("served");
    let victim = warm.served_by;
    scdn.depart(victim).expect("departs");
    let reqs = vec![(requester, id); 4];
    for outcome in scdn.request_batch(&reqs) {
        let o = outcome.expect("surviving replicas still serve");
        assert_ne!(o.served_by, victim, "departed node must never serve");
    }
}

#[test]
fn graph_delta_rejects_membership_changes() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let gen_before = scdn.social_csr().generation();

    // Membership is fixed at build: node-adding deltas are refused.
    let mut grow = scdn_graph::GraphDelta::new();
    grow.add_nodes(2);
    assert!(matches!(
        scdn.apply_graph_delta(&grow),
        Err(ScdnError::UnknownNode(_))
    ));

    // Out-of-range endpoints are refused before any mutation.
    let bogus = NodeId(scdn.member_count() as u32 + 1);
    let mut wild = scdn_graph::GraphDelta::new();
    wild.add_edge(NodeId(0), bogus, 1);
    assert!(matches!(
        scdn.apply_graph_delta(&wild),
        Err(ScdnError::UnknownNode(n)) if n == bogus
    ));
    assert_eq!(
        scdn.social_csr().generation(),
        gen_before,
        "rejected deltas must not touch the frozen snapshot"
    );
}

#[test]
fn graph_delta_refreshes_csr_and_counts_metrics() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let gen_before = scdn.social_csr().generation();
    let (a, b, _) = sub.graph.edges().next().expect("has edges");

    let mut delta = scdn_graph::GraphDelta::new();
    delta.remove_edge(a, b);
    let stats = scdn.apply_graph_delta(&delta).expect("applies");

    assert!(scdn.social_csr().generation() > gen_before);
    assert!(stats.nodes_touched >= 2, "both endpoints are touched");
    assert_eq!(scdn.registry().counter("core.graph.delta_applied").get(), 1);
    assert_eq!(
        scdn.registry()
            .counter("core.graph.delta_nodes_touched")
            .get(),
        stats.nodes_touched as u64
    );
    // COW accounting: a two-endpoint delta on a multi-chunk graph copies
    // strictly less than a full re-freeze would, and shares the rest.
    assert!(stats.bytes_copied > 0, "rebuilt chunks cost bytes");
    assert!(stats.chunks_shared > 0, "untouched chunks are shared");
    assert_eq!(
        scdn.registry()
            .counter("core.graph.delta_bytes_copied")
            .get(),
        stats.bytes_copied
    );
    assert_eq!(
        scdn.registry()
            .counter("core.graph.delta_chunks_shared")
            .get(),
        stats.chunks_shared as u64
    );
    assert!(!scdn.social_csr().neighbors(a).any(|e| e.to == b));
}

#[test]
fn graph_delta_path_matches_flush_oracle_resolutions() {
    // Two identical systems absorb the same churn — one through the
    // incremental delta path with announced invalidation, one through the
    // flush-everything oracle. Every subsequent resolution must agree,
    // and the frozen snapshots must be bit-identical.
    let (c, sub) = community();
    let mut fast = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let mut oracle = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let owner = NodeId(0);
    let publish = |s: &mut Scdn| {
        let id = s
            .publish(
                owner,
                "churned",
                Bytes::from(vec![5u8; 8192]),
                Sensitivity::Public,
                None,
            )
            .expect("publishes");
        s.replicate(id).expect("replicates");
        id
    };
    let id_fast = publish(&mut fast);
    let id_oracle = publish(&mut oracle);
    assert_eq!(id_fast, id_oracle, "deterministic builds");

    // Warm both resolve caches across the membership.
    for q in 0..fast.member_count() as u32 {
        let _ = fast.resolve_replica(NodeId(q), id_fast);
        let _ = oracle.resolve_replica(NodeId(q), id_oracle);
    }

    // Churn. First recurring coauthorship on an existing tie — a
    // weight-only delta, which no hop distance and no weight-blind ranking
    // can feel — then drop the first coauthorship edge and add a fresh
    // long-range one.
    let (a, b, w) = sub.graph.edges().next().expect("has edges");
    let far = NodeId(fast.member_count() as u32 - 1);
    let mut reinforce = scdn_graph::GraphDelta::new();
    reinforce.add_edge(a, b, w + 1);
    let mut delta = scdn_graph::GraphDelta::new();
    delta.remove_edge(a, b).add_edge(NodeId(0), far, 3);
    let kept = fast.apply_graph_delta(&reinforce).expect("delta path");
    oracle
        .apply_graph_delta_flush(&reinforce)
        .expect("flush path");
    // The ranking that survived places what a recomputed one places.
    assert_eq!(
        fast.replicate_to(id_fast, 5).expect("grows"),
        oracle.replicate_to(id_oracle, 5).expect("grows")
    );
    let stats = fast.apply_graph_delta(&delta).expect("delta path");
    oracle.apply_graph_delta_flush(&delta).expect("flush path");

    assert_eq!(
        fast.social_csr(),
        oracle.social_csr(),
        "incremental rebuild must be bit-identical to from-scratch"
    );
    for q in 0..fast.member_count() as u32 {
        assert_eq!(
            fast.resolve_replica(NodeId(q), id_fast).ok(),
            oracle.resolve_replica(NodeId(q), id_oracle).ok(),
            "requester {q} diverged after churn"
        );
    }
    assert_eq!(
        kept.resolve_retained + stats.resolve_retained,
        fast.registry()
            .counter("alloc.resolve.cache.retained")
            .get()
    );
    // A weight-only delta keeps every hop table and the ranking…
    assert!(kept.resolve_retained > 0, "no distance moved");
    assert!(kept.ranking_retained > 0, "the ranking reads no weight");
    // …and the chunked apply shares what it did not touch, where the
    // oracle's re-freeze copies every column byte.
    assert!(stats.chunks_shared > 0);
    let refrozen = oracle.social_csr().cow_stats();
    assert_eq!(refrozen.chunks_shared, 0);
    assert!(stats.bytes_copied < refrozen.bytes_copied);
}

// ---- coded requests and repairs that cannot decode -----------------------

use scdn_net::transfer::TransferError;
use scdn_storage::coding::{CodedBlockId, CodingConfig, CodingError};
use scdn_storage::object::{DatasetId, Segment};
use scdn_storage::repository::RepoError;

/// An RS(3,2) system with one 10 000 B dataset published at node 0 and
/// its five blocks placed; returns the block hosts in placement order.
fn coded_system() -> (Scdn, DatasetId, Vec<NodeId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        coding: CodingConfig::Rs { k: 3, m: 2 },
        ..Default::default()
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let dataset = scdn
        .publish(
            NodeId(0),
            "coded",
            Bytes::from((0..10_000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let hosts = scdn.replicate(dataset).expect("places every block");
    assert_eq!(hosts.len(), 5);
    (scdn, dataset, hosts)
}

/// Block `index` as some host stores it.
fn stored_block(scdn: &Scdn, dataset: DatasetId, index: u32) -> Segment {
    let id = CodedBlockId { dataset, index }.segment_id();
    let inventory = scdn.allocation().coded_inventory(dataset).expect("coded");
    let (host, _) = inventory
        .iter()
        .find(|(_, blocks)| blocks.contains(&index))
        .expect("block is placed");
    scdn.repos[host.index()]
        .fetch(Partition::Replica, id)
        .expect("host holds it")
}

/// Block `index` with a flipped byte under its original checksum.
fn corrupt_at_rest(good: &Segment) -> Segment {
    let mut raw = good.data.to_vec();
    raw[0] ^= 0xff;
    Segment {
        id: good.id,
        data: Bytes::from(raw),
        checksum: good.checksum,
    }
}

/// A self-consistent block of the wrong size under `good`'s id.
fn mis_sized(good: &Segment) -> Segment {
    Segment::new(good.id, good.data.slice(..good.len() - 1))
}

#[test]
fn failed_coded_request_gives_back_what_it_landed() {
    type Plant = (fn(&Segment) -> Segment, fn(&ScdnError) -> bool);
    let plant: [Plant; 2] = [
        (corrupt_at_rest, |e| {
            matches!(e, ScdnError::Repo(RepoError::IntegrityFailure(_)))
        }),
        (mis_sized, |e| {
            matches!(
                e,
                ScdnError::Transfer(TransferError::InsufficientBlocks {
                    have: 3,
                    need: 3,
                    ..
                })
            )
        }),
    ];
    for (bad_block, expected) in plant {
        let (mut scdn, dataset, hosts) = coded_system();
        let requester = (1..scdn.member_count() as u32)
            .map(NodeId)
            .find(|n| !hosts.contains(n))
            .expect("a member hosting nothing");
        // The requester already holds block 4 in its user partition — the
        // fetch counts it toward k without looking inside.
        let planted = bad_block(&stored_block(&scdn, dataset, 4));
        let repo = scdn.repo(requester).expect("member").clone();
        repo.store(Partition::User, planted.clone()).expect("fits");
        let used_before = repo.used();
        let failures_before = scdn.cdn_metrics.failures;

        let err = scdn
            .request_coded(requester, dataset)
            .expect_err("an undecodable fetch fails the request");
        assert!(expected(&err), "unexpected error: {err:?}");
        assert_eq!(repo.used(), used_before, "landed blocks were given back");
        assert_eq!(
            repo.list(Partition::User),
            vec![planted.id],
            "the block that was there before stays, nothing else does"
        );
        assert_eq!(scdn.cdn_metrics.failures, failures_before + 1);
        let snap = scdn.observability_snapshot();
        assert_eq!(snap.counter("core.coded.blocks_landed"), Some(2));
        assert_eq!(snap.counter("core.coded.blocks_preexisting"), Some(1));
    }
}

#[test]
fn failed_coded_rebuild_gives_back_what_it_landed() {
    // Owner and one block host gone: repair must reconstruct at a
    // rebuilder. A dry run names the rebuilder the ranking picks.
    let lose = |scdn: &mut Scdn, hosts: &[NodeId]| {
        scdn.depart(NodeId(0)).expect("owner departs");
        scdn.depart(hosts[0]).expect("host departs");
    };
    let (mut dry, dataset, hosts) = coded_system();
    lose(&mut dry, &hosts);
    let rebuilder = dry.replicate(dataset).expect("rebuilds")[0];

    let (mut scdn, dataset, hosts) = coded_system();
    lose(&mut scdn, &hosts);
    let surviving = scdn.allocation().coded_inventory(dataset).expect("coded");
    let index = *surviving[0].1.first().expect("holds a block");
    let planted = mis_sized(&stored_block(&scdn, dataset, index));
    let repo = scdn.repo(rebuilder).expect("member").clone();
    repo.store(Partition::Replica, planted.clone())
        .expect("fits");
    let used_before = repo.used();

    assert!(scdn.replicate(dataset).is_err(), "rebuild cannot decode");
    assert_eq!(repo.used(), used_before, "landed blocks were given back");
    assert_eq!(repo.list(Partition::Replica), vec![planted.id]);
    assert_eq!(
        scdn.allocation().coded_inventory(dataset).expect("coded"),
        surviving,
        "a failed rebuild announces nothing"
    );
}

#[test]
fn bad_coding_config_fails_the_publish_before_any_effect() {
    let (c, sub) = community();
    for (k, m) in [(0u8, 2u8), (3, 0), (200, 56)] {
        let config = ScdnConfig {
            coding: CodingConfig::Rs { k, m },
            ..Default::default()
        };
        let mut scdn = Scdn::build(&sub, &c.corpus, config);
        let owner = NodeId(2);
        let publish = |scdn: &mut Scdn| {
            scdn.publish(
                owner,
                "d",
                Bytes::from(vec![7u8; 4096]),
                Sensitivity::Public,
                None,
            )
        };
        let err = publish(&mut scdn).expect_err("no coder exists for this scheme");
        assert!(
            matches!(err, ScdnError::Coding(CodingError::BadParameters)),
            "RS({k},{m}): {err:?}"
        );
        assert_eq!(scdn.repo(owner).expect("member").used(), 0);
        assert_eq!(scdn.allocation().dataset_count(), 0);
        assert_eq!(scdn.social_metrics.allocated_bytes, 0);
        // The id the failed publish would have taken is still free.
        scdn.config.coding = CodingConfig::Rs { k: 2, m: 1 };
        assert_eq!(publish(&mut scdn).expect("valid scheme"), DatasetId(0));
    }
}
