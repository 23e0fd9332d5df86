//! Unit tests for the S-CDN runtime (kept in a separate file to keep
//! `system.rs` readable; included via `#[cfg(test)] mod system_tests`).

use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;
use proptest::prelude::*;
use scdn_alloc::placement::PlacementAlgorithm;
use scdn_alloc::replication::{CycleStats, DatasetStats, RebalancePolicy};
use scdn_graph::{Graph, GraphDelta, NodeId};
use scdn_net::failure::FailureModel;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn_storage::coding::encode_blocks;
use scdn_storage::object::{Dataset, SegmentId, Sensitivity};
use scdn_storage::repository::Partition;

use crate::fixtures::{
    assert_same_state, charged, community, denser_community, maintenance_system,
    owner_digest_mismatches, quota_system, ROOMY,
};
use crate::system::{AvailabilityConfig, RebalanceStrategy, Scdn, ScdnConfig, ScdnError};

#[test]
fn build_registers_everyone() {
    let (c, sub) = community();
    let scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
    assert_eq!(scdn.member_count(), sub.graph.node_count());
    assert_eq!(scdn.allocation().repository_count(), sub.graph.node_count());
    assert_eq!(scdn.platform().user_count(), sub.graph.node_count());
    // Contributed capacity is recorded for the social metrics.
    assert_eq!(
        scdn.social_metrics.contributed_bytes,
        sub.graph.node_count() as u64 * ScdnConfig::default().repo_capacity
    );
}

/// The build seeds the interaction ledger with the coauthor pairs an
/// access check can score, those with a member in them, and with no
/// other: the corpus has pairs of two outsiders, and none is seeded.
#[test]
fn the_ledger_holds_every_pair_with_a_member_and_no_other() {
    let (c, sub) = community();
    let scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
    let members: BTreeSet<_> = sub.authors.iter().copied().collect();
    let pairs: BTreeSet<_> = c
        .corpus
        .publications_in(1900..=2100)
        .flat_map(|p| p.coauthor_pairs())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    let (want, outsiders): (BTreeSet<_>, BTreeSet<_>) = pairs
        .into_iter()
        .partition(|(a, b)| members.contains(a) || members.contains(b));
    let got: BTreeSet<_> = scdn
        .decision_state()
        .ledger
        .iter()
        .map(|&(pair, _)| pair)
        .collect();
    assert!(!want.is_empty() && !outsiders.is_empty());
    assert_eq!(got, want);
}

/// A trust-gated policy may name as owner an author outside the
/// membership: a member who coauthored with that author passes the gate.
#[test]
fn a_trust_gate_owned_by_an_outsider_grants_a_member_coauthor() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
    let members: BTreeSet<_> = sub.authors.iter().copied().collect();
    let (member, outsider) = c
        .corpus
        .publications_in(1900..=2100)
        .flat_map(|p| p.coauthor_pairs())
        .map(|(a, b)| if members.contains(&a) { (a, b) } else { (b, a) })
        .find(|(a, b)| members.contains(a) && !members.contains(b))
        .expect("a member coauthored with an outsider");
    let policy = scdn_middleware::authz::AccessPolicy {
        sensitivity: Sensitivity::Public,
        owner: outsider,
        group: None,
        grants: vec![],
        trust: Some(scdn_trust::threshold::TrustPolicy::default()),
    };
    let id = scdn
        .publish(
            NodeId(0),
            "outsider-owned",
            Bytes::from(vec![7u8; 256]),
            Sensitivity::Public,
            Some(policy),
        )
        .expect("publishes");
    let requester = sub.node_of(member).expect("member node");
    scdn.request(requester, id)
        .expect("the member's coauthorship with the owner is on record");
    let coauthors: BTreeSet<_> = c
        .corpus
        .publications_in(1900..=2100)
        .flat_map(|p| p.coauthor_pairs())
        .filter_map(|(a, b)| match (a == outsider, b == outsider) {
            (true, _) => Some(b),
            (_, true) => Some(a),
            _ => None,
        })
        .collect();
    let stranger = sub
        .graph
        .nodes()
        .find(|&v| !coauthors.contains(&sub.author_of(v)))
        .expect("a member with no history with the owner");
    assert!(matches!(
        scdn.request(stranger, id),
        Err(ScdnError::Access(
            scdn_middleware::authz::AccessDecision::DeniedUntrusted
        ))
    ));
}

#[test]
fn publish_stores_segments_in_user_partition() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    // as RS(2,1) blocks on hosts in the owner's island: no donor is
    // socially reachable from a requester in another island.
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
        assert!(refused(scdn.request(outsider, id)), "{outsider:?}");
        let batch = scdn.request_batch(&[(outsider, id)]).pop().expect("one");
        assert!(refused(batch), "{outsider:?}");
    }
    assert_eq!(landed(&scdn), 0, "no block crossed the boundary");

    // A member of the owner's island, every donor reachable, races k blocks.
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
        let mut scdn = Scdn::build(sub, &c.corpus, config);
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
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
    // One system absorbs a weight-only delta, then a structural one.
    // After each, every resolution must equal a cold full BFS on the
    // frozen snapshot — what a flushed cache computes — and the snapshot
    // must equal a from-scratch freeze of the mutable graph.
    use scdn_alloc::discovery::{select_replica_full_bfs, Candidate, Selection};
    use scdn_graph::{CsrGraph, GraphDelta, TraversalScratch};

    let (c, sub) = community();
    let mut scdn = Scdn::build(sub, &c.corpus, ScdnConfig::default());
    let id = scdn
        .publish(
            NodeId(0),
            "churned",
            Bytes::from(vec![5u8; 8192]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(id).expect("replicates");
    let members = 0..scdn.member_count() as u32;
    let resolved = |s: &mut Scdn| -> Vec<_> {
        members
            .clone()
            .map(|q| s.resolve_replica(NodeId(q), id).ok())
            .collect()
    };
    let full_bfs = |s: &Scdn| -> Vec<_> {
        let replicas = s.replicas_of(id).expect("catalogued");
        let mut scratch = TraversalScratch::new();
        members
            .clone()
            .map(|q| {
                let candidates: Vec<Candidate> = replicas
                    .iter()
                    .map(|&node| Candidate {
                        node,
                        online: s.is_online(node),
                        latency_ms: s.engine.topology.latency_ms(q as usize, node.index()),
                        availability: s.alloc.repository(node).map_or(0.0, |r| r.availability),
                    })
                    .collect();
                select_replica_full_bfs(s.social_csr(), NodeId(q), &candidates, &mut scratch)
            })
            .collect()
    };
    let nodes = |sels: Vec<Option<Selection>>| -> Vec<_> {
        sels.into_iter()
            .map(|sel| sel.map(|sel| sel.node))
            .collect()
    };
    // Warm the resolve cache across the membership.
    let warm = full_bfs(&scdn);
    assert_eq!(resolved(&mut scdn), nodes(warm.clone()));

    // First a recurring coauthorship on an existing tie, which moves no
    // hop distance; then drop that tie and tie a member whose pick is two
    // or more hops away to another replica, which then wins at one hop:
    // a hop table kept across that delta would still name the old pick.
    let (a, b, w) = sub.graph.edges().next().expect("has edges");
    let (q, far_pick) = (members.clone())
        .map(NodeId)
        .zip(&warm)
        .find_map(|(q, sel)| {
            sel.filter(|sel| sel.social_hops >= Some(2))
                .map(|sel| (q, sel.node))
        })
        .expect("a member two hops from its pick");
    let closer = scdn
        .replicas_of(id)
        .expect("catalogued")
        .into_iter()
        .find(|&r| r != far_pick && scdn.is_online(r))
        .expect("a second online replica");
    let mut reinforce = GraphDelta::new();
    reinforce.add_edge(a, b, w + 1);
    let mut rewire = GraphDelta::new();
    rewire.remove_edge(a, b).add_edge(q, closer, 1);
    for delta in [reinforce, rewire] {
        let stats = scdn.apply_graph_delta(&delta).expect("delta path");
        assert_eq!(
            *scdn.social_csr(),
            CsrGraph::from(&scdn.social),
            "incremental rebuild must be bit-identical to from-scratch"
        );
        assert_eq!(
            resolved(&mut scdn),
            nodes(full_bfs(&scdn)),
            "diverged after {delta:?}"
        );
        // Every delta is a new generation: the warm cache was flushed…
        assert_eq!(stats.resolve_retained, 0);
        assert!(stats.resolve_evicted > 0);
        // …and the chunked apply shares what it did not touch.
        assert!(stats.chunks_shared > 0);
    }
    assert_eq!(scdn.resolve_replica(q, id).ok(), Some(closer));
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
    let mut scdn = Scdn::build(sub, &c.corpus, config);
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
        let repo = scdn.repo(requester).expect("member");
        repo.store(Partition::User, planted).expect("fits");
        let before = scdn.decision_state();
        let failures_before = scdn.cdn_metrics.failures;

        let err = scdn
            .request(requester, dataset)
            .expect_err("an undecodable fetch fails the request");
        assert!(expected(&err), "unexpected error: {err:?}");
        // The landed blocks were given back and the planted one stays: the
        // request charged its session and moved nothing else.
        let after = scdn.decision_state();
        let want = charged(before, &after, requester, None);
        assert_same_state(&after, &want, "failed coded request");
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
    let repo = scdn.repo(rebuilder).expect("member");
    repo.store(Partition::Replica, planted).expect("fits");
    let mut before = scdn.decision_state();

    assert!(scdn.replicate(dataset).is_err(), "rebuild cannot decode");
    // The landed blocks were given back, the planted one stays and the
    // catalog heard nothing. Like every maintenance transfer, delivered
    // or not, the race took its time on the clock.
    let after = scdn.decision_state();
    assert!(after.clock > before.clock, "the race took no time");
    before.clock = after.clock;
    assert_same_state(&after, &before, "failed coded rebuild");
}

/// A rebuild verifies exactly the owner bytes it encodes from. The
/// owner's segment 4 (bytes 8192..10000, inside data row 2's shard) is
/// corrupt at rest: losing data row 0 (bytes 0..3334, segments 0 and 1)
/// still rebuilds it, while losing parity row 3, which encodes from every
/// segment, is refused and changes nothing.
#[test]
fn a_rebuild_reads_only_the_owner_segments_it_encodes_from() {
    for (lost, rebuilds) in [(0u32, true), (3, false)] {
        let (mut scdn, dataset, _) = coded_system();
        let corrupt = SegmentId {
            dataset,
            ordinal: 4,
        };
        let owner = scdn.repo(NodeId(0)).expect("owner");
        let good = owner.fetch(Partition::User, corrupt).expect("intact");
        owner
            .store(Partition::User, corrupt_at_rest(&good))
            .expect("overwrite in place");
        scdn.depart(host_of(&scdn, dataset, lost))
            .expect("host departs");
        let before = scdn.decision_state();
        let moved = |scdn: &Scdn| {
            scdn.observability_snapshot()
                .counter("cdn.bytes_transferred")
                .unwrap_or(0)
        };
        let bytes_before = moved(&scdn);

        let result = scdn.replicate(dataset);
        if rebuilds {
            let added = result.expect("row 0 rebuilds from segments 0 and 1");
            assert_eq!(added, [host_of(&scdn, dataset, lost)]);
            // Stored under the owner's digest: a wrong row fails this read.
            stored_block(&scdn, dataset, lost);
            assert_eq!(moved(&scdn) - bytes_before, 3_334, "one block moved");
        } else {
            assert!(
                matches!(result, Err(ScdnError::Repo(RepoError::IntegrityFailure(id))) if id == corrupt),
                "unexpected result: {result:?}"
            );
            assert_same_state(&scdn.decision_state(), &before, "refused parity rebuild");
        }
    }
}

#[test]
fn bad_coding_config_fails_the_publish_before_any_effect() {
    let (c, sub) = community();
    for (k, m) in [(0u8, 2u8), (3, 0), (200, 56)] {
        let config = ScdnConfig {
            coding: CodingConfig::Rs { k, m },
            ..Default::default()
        };
        let mut scdn = Scdn::build(sub, &c.corpus, config);
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

// ---- serving, maintenance and coding behaviour ---------------------------

/// One requester, two datasets, one batch: each delivery fits the
/// requester's empty repository on its own, but once the first is stored
/// the second no longer does, and it is refused without leaving anything
/// behind.
#[test]
fn second_delivery_refused_after_first_commits() {
    let (mut batched, datasets) = quota_system(FailureModel::reliable());
    let requester = NodeId(batched.member_count() as u32 - 1);
    let reqs = [(requester, datasets[0]), (requester, datasets[1])];

    let out = batched.request_batch(&reqs);
    assert_eq!(out[0].as_ref().expect("first fits").bytes, 14 << 10);
    // 14 KiB + five 2 KiB segments leave 1 KiB; the sixth needs 2 KiB.
    match &out[1] {
        Err(ScdnError::Transfer(TransferError::Destination(RepoError::QuotaExceeded {
            needed,
            available,
        }))) => assert_eq!((*needed, *available), (2 << 10, 1 << 10)),
        other => panic!("expected a quota refusal, got {other:?}"),
    }
    // The refused delivery left nothing behind.
    assert_eq!(batched.repo(requester).expect("member").used(), 14 << 10);
    // The refused segment's attempt was observed before the repository
    // refused it.
    use scdn_obs::{SpanKind as K, SpanStatus as S};
    let refused = batched.traces().recent().last().expect("traced");
    let shape: Vec<_> = refused.spans.iter().map(|s| (s.kind, s.status)).collect();
    let control = [
        (K::Authenticate, S::Ok),
        (K::Discover, S::Ok),
        (K::SelectReplica, S::Ok),
    ];
    let attempts = [(K::TransferAttempt, S::Ok); 6];
    assert_eq!(
        shape,
        [&control[..], &attempts, &[(K::Fail, S::Error)]].concat()
    );
}

/// The requester holds an at-rest-corrupted copy of segment 0 and its
/// request fails on a later segment: the held copy is not overwritten,
/// and the segments the request added are gone again.
#[test]
fn failed_request_leaves_the_user_partition_as_it_found_it() {
    let (mut scdn, datasets) = quota_system(FailureModel::reliable());
    let requester = NodeId(scdn.member_count() as u32 - 1);
    scdn.request(requester, datasets[0]).expect("14 KiB fits");
    let seg0 = SegmentId {
        dataset: datasets[1],
        ordinal: 0,
    };
    let good = scdn
        .repo(NodeId(1))
        .expect("owner")
        .fetch_any(seg0)
        .expect("owner holds it");
    let repo = scdn.repo(requester).expect("member");
    repo.store(Partition::User, corrupt_at_rest(&good))
        .expect("fits");
    let before = scdn.decision_state();

    // 16 KiB + four new 2 KiB segments leave 1 KiB; the fifth needs 2 KiB.
    let refused = scdn.request(requester, datasets[1]);
    assert!(
        matches!(
            refused,
            Err(ScdnError::Transfer(TransferError::Destination(
                RepoError::QuotaExceeded { .. }
            )))
        ),
        "{refused:?}"
    );
    // Segment 0 still holds its corrupt bytes and the added segments are
    // gone: only the failed request's two charges moved.
    let after = scdn.decision_state();
    let want = charged(before, &after, requester, Some(datasets[1]));
    assert_same_state(&after, &want, "failed request");
}

/// Always-reliable fabric under periodic churn (duty 0.6), one public
/// 9 KiB dataset published by node 0 and replicated.
fn churn_system() -> (Scdn, DatasetId) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        availability: AvailabilityConfig::Periodic {
            period_ms: 8_000,
            duty: 0.6,
        },
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let id = scdn
        .publish(
            NodeId(0),
            "churn",
            Bytes::from(vec![7u8; 9 << 10]),
            Sensitivity::Public,
            None,
        )
        .expect("publish succeeds");
    scdn.replicate(id).expect("replicates");
    (scdn, id)
}

/// A replica's on → off boundary falls *inside* a batch: the batch starts
/// one millisecond before replica `r` goes dark, the first request's
/// transfer carries the clock across the boundary, and the second request
/// — which would have resolved to `r` at the batch's starting clock — is
/// judged on liveness at the clock it is served at.
#[test]
fn replica_going_dark_mid_batch_is_judged_at_the_live_clock() {
    // Search a probe system for (r, requester) such that `requester`
    // resolves to non-owner replica `r` one tick before `r` goes dark.
    let found = {
        let (probe, dataset) = churn_system();
        let members = probe.member_count() as u32;
        let base = probe.now();
        probe
            .replicas_of(dataset)
            .expect("published")
            .into_iter()
            .filter(|&r| r != NodeId(0))
            .find_map(|r| {
                let last_on = (0..8_000).find(|&ms| {
                    probe.is_online_at(r, base.plus_millis(ms))
                        && !probe.is_online_at(r, base.plus_millis(ms + 1))
                })?;
                let (mut at_boundary, _) = churn_system();
                at_boundary.tick(last_on);
                let requester = (0..members)
                    .map(NodeId)
                    .find(|&m| m != r && at_boundary.resolve_replica(m, dataset).ok() == Some(r))?;
                Some((r, last_on, requester))
            })
    };
    let (r, last_on, second) = found.expect("some replica has a requester resolving to it");

    let (mut batched, dataset) = churn_system();
    let first = (0..batched.member_count() as u32)
        .map(NodeId)
        .find(|&m| m != second && m != r && m != NodeId(0))
        .expect("a third member");
    batched.tick(last_on);
    let start_clock = batched.now();
    assert!(batched.is_online_at(r, start_clock));
    let reqs = [(first, dataset), (second, dataset)];

    let out = batched.request_batch(&reqs);
    out[0].as_ref().expect("served while r is still up");
    assert!(
        batched.now() > start_clock,
        "the first request moved the clock"
    );
    assert!(
        !batched.is_online(r),
        "the boundary fell inside the batch: r is dark at the live clock"
    );
    if let Ok(o) = &out[1] {
        assert_ne!(
            o.served_by, r,
            "liveness at the batch's starting clock leaked into the second request"
        );
    }
}

/// One answer to "is this member online?": a departed member that
/// re-enters the catalog (here behind the runtime's back; its own
/// opportunistic promotion does the same) is selectable by neither
/// `resolve_replica` nor `request`, and an id outside the membership is
/// offline rather than a panic.
#[test]
fn departed_member_back_in_the_catalog_is_never_selected() {
    let (mut scdn, datasets) = quota_system(FailureModel::reliable());
    let id = datasets[2];
    let victim = scdn.replicate(id).expect("replicates")[0];
    // A neighbour of the victim resolves to it while it is alive.
    let neighbours: Vec<NodeId> = scdn.social.neighbors(victim).iter().map(|e| e.to).collect();
    let requester = neighbours
        .into_iter()
        .find(|&n| scdn.resolve_replica(n, id).ok() == Some(victim))
        .expect("some neighbour prefers the victim");
    scdn.depart(victim).expect("departs");
    scdn.allocation()
        .add_replica(id, victim)
        .expect("known dataset");
    assert!(scdn.replicas_of(id).expect("known").contains(&victim));
    let resolved = scdn.resolve_replica(requester, id).expect("others alive");
    let served = scdn.request(requester, id).expect("served").served_by;
    assert_ne!(resolved, victim, "resolve_replica must honour departures");
    assert_eq!(resolved, served);
    assert!(!scdn.is_online(NodeId(scdn.member_count() as u32)));
    assert!(!scdn.is_online_at(NodeId(u32::MAX), scdn.now()));
}

/// Every member's replica partition: each segment with its bytes, or
/// `None` where the stored copy fails its own checksum.
fn replica_contents(scdn: &Scdn) -> Vec<Vec<(SegmentId, Option<Bytes>)>> {
    (0..scdn.member_count() as u32)
        .map(|n| {
            let repo = scdn.repo(NodeId(n)).expect("member");
            repo.list(Partition::Replica)
                .into_iter()
                .map(|id| (id, repo.fetch(Partition::Replica, id).ok().map(|s| s.data)))
                .collect()
        })
        .collect()
}

/// Depart one non-owner replica host of every dataset (owners are nodes
/// 0..4), so the next repair grows every item.
fn depart_a_replica_of_each(scdn: &mut Scdn, datasets: &[DatasetId]) {
    for &d in datasets {
        let victim = scdn
            .replicas_of(d)
            .expect("dataset exists")
            .into_iter()
            .find(|n| n.0 >= datasets.len() as u32);
        if let Some(v) = victim {
            let _ = scdn.depart(v);
        }
    }
}

/// The owner's copy of two datasets is corrupted at rest before a repair
/// cycle. No dataset of the cycle may store a byte that did not pass the
/// owner-side read check: every replica copy in the system still verifies
/// and holds its own dataset's bytes.
#[test]
fn corrupt_owner_copy_is_never_replicated() {
    let (mut scdn, datasets) = maintenance_system(RebalanceStrategy::Static, true, ROOMY);
    let corrupted = [0usize, 2];
    for &i in &corrupted {
        let repo = scdn.repo(NodeId(i as u32)).expect("owner");
        let id = *repo
            .list(Partition::User)
            .iter()
            .rev()
            .find(|id| id.dataset == datasets[i])
            .expect("owner holds its dataset");
        let good = repo.fetch(Partition::User, id).expect("intact");
        let mut raw = good.data.to_vec();
        raw[0] ^= 0xff;
        let bad = Segment {
            data: Bytes::from(raw),
            ..good
        };
        repo.store(Partition::User, bad)
            .expect("overwrite in place");
    }
    depart_a_replica_of_each(&mut scdn, &datasets);
    let before: Vec<usize> = datasets
        .iter()
        .map(|&d| scdn.replicas_of(d).expect("dataset exists").len())
        .collect();
    scdn.tick(1_300);
    assert!(scdn.repair() > 0, "the intact datasets still repair");
    for &i in &corrupted {
        assert_eq!(
            scdn.replicas_of(datasets[i]).expect("dataset exists").len(),
            before[i],
            "a corrupt source gains no replica"
        );
    }
    for node in replica_contents(&scdn) {
        for (id, data) in node {
            let data = data.expect("every stored replica copy verifies");
            let i = datasets
                .iter()
                .position(|&d| d == id.dataset)
                .expect("a published dataset");
            assert!(
                data.iter().all(|&b| b == i as u8 + 1),
                "{id:?} holds another dataset's bytes"
            );
        }
    }
}

/// `config`'s system with 300 KiB of `byte`s published at its owner
/// `NodeId(3)` — replicated first if `replicated` — and then departed.
fn departed_owner(config: ScdnConfig, byte: u8, replicated: bool) -> (Scdn, DatasetId) {
    let (c, sub) = community();
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let content = Bytes::from(vec![byte; 300 << 10]);
    let id = scdn
        .publish(NodeId(3), "orphan", content, Sensitivity::Public, None)
        .expect("publishes");
    if replicated {
        scdn.replicate(id).expect("replicates");
    }
    scdn.depart(NodeId(3)).expect("member");
    (scdn, id)
}

/// A dataset whose sole holder departed has no source left: `replicate`
/// must copy nothing out of the departed repository, whose bytes are
/// still on its disk.
#[test]
fn departed_sole_holder_is_not_copied() {
    let (mut scdn, id) = departed_owner(ScdnConfig::default(), 7, false);
    assert!(scdn.replicas_of(id).expect("catalogued").is_empty());
    let added = scdn.replicate(id).expect("runs");
    assert!(
        added.is_empty(),
        "copied out of a departed owner: {added:?}"
    );
    assert!(scdn.replicas_of(id).expect("catalogued").is_empty());
}

/// After the owner departs, a surviving replica seeds the grow walk, and
/// its copy is held to the owner's digests: one re-stored under a digest
/// of its own bytes is refused at every candidate and counted.
#[test]
fn forged_survivor_copy_is_never_replicated() {
    let config = ScdnConfig {
        availability: AvailabilityConfig::AlwaysOn,
        ..ScdnConfig::default()
    };
    let (mut scdn, id) = departed_owner(config, 9, true);
    let survivors = scdn.replicas_of(id).expect("catalogued");
    assert!(!survivors.is_empty(), "the replicas outlive the owner");
    let seg = SegmentId {
        dataset: id,
        ordinal: 0,
    };
    for &host in &survivors {
        let repo = scdn.repo(host).expect("member");
        let len = repo.fetch(Partition::Replica, seg).expect("held").len();
        let forged = Segment::new(seg, Bytes::from(vec![0x55u8; len]));
        repo.store(Partition::Replica, forged)
            .expect("same size fits");
    }
    let before = owner_digest_mismatches(&scdn);
    let added = scdn.replicate_to(id, survivors.len() + 2).expect("runs");
    assert!(added.is_empty(), "a forged copy was replicated: {added:?}");
    assert_eq!(scdn.replicas_of(id).expect("catalogued"), survivors);
    assert!(
        owner_digest_mismatches(&scdn) > before,
        "the refusal is counted"
    );
}

/// Regression for the under-provisioned candidate walk: the old
/// `replicate` truncated the placement ranking at `want + current + 4`
/// candidates, so when churn left most top-ranked hosts offline a
/// dataset silently stayed under target even though plenty of online
/// hosts sat deeper in the ranking. The walk now extends until the
/// target is met or candidates are exhausted.
#[test]
fn replication_walks_past_offline_ranking_prefix() {
    let (c, sub) = denser_community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 4 << 20,
        // Mostly-offline fabric: ~15% of hosts up at any instant. The
        // long period keeps onlineness stable while transfer time
        // accrues during the walk.
        availability: AvailabilityConfig::Periodic {
            period_ms: 1_000_000,
            duty: 0.15,
        },
        failure: FailureModel::default(),
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let owner = NodeId(0);
    let id = scdn
        .publish(
            owner,
            "deep-walk",
            Bytes::from(vec![7u8; 6 << 10]),
            Sensitivity::Public,
            None,
        )
        .expect("publish succeeds");
    scdn.tick(2_500);
    let online: Vec<NodeId> = (0..scdn.member_count() as u32)
        .map(NodeId)
        .filter(|&n| n != owner && scdn.is_online(n))
        .collect();
    let want = 6.min(online.len());
    assert!(
        want >= 4,
        "fixture needs a handful of online hosts (got {})",
        online.len()
    );
    // `publish` seeds the catalog with the owner as first replica.
    let current = scdn.replicas_of(id).expect("dataset exists").len();
    let added = scdn.replicate_to(id, want).expect("replication succeeds");
    assert_eq!(
        added.len(),
        want - current,
        "walk must extend past the offline ranking prefix to reach target"
    );
    assert_eq!(scdn.replicas_of(id).expect("dataset exists").len(), want);
    for &n in &added {
        assert!(online.contains(&n), "only online hosts accept replicas");
    }
}

/// The memoized placement ranking is computed once per graph and reused
/// by every later replication or repair cycle while the graph stands
/// still.
#[test]
fn repeated_cycles_hit_the_ranking_cache() {
    let (mut scdn, datasets) = maintenance_system(RebalanceStrategy::Static, true, ROOMY);
    let hits = |s: &Scdn| {
        s.registry()
            .counter("core.maintain.ranking_cache_hit")
            .get()
    };
    let misses = |s: &Scdn| {
        s.registry()
            .counter("core.maintain.ranking_cache_miss")
            .get()
    };
    // Building replicated four datasets against one frozen graph: the
    // ordering was computed exactly once and sliced three more times.
    assert_eq!(misses(&scdn), 1, "one full ranking per graph");
    assert_eq!(hits(&scdn), 3, "later datasets reuse the memoized order");
    // Knock a replica other than the owner's (`NodeId(0)`) out and repair:
    // the cycle ranks again — from cache.
    let victim = scdn.replicas_of(datasets[0]).expect("dataset exists")[1];
    assert_ne!(victim, NodeId(0), "the victim is not the owner");
    let _ = scdn.depart(victim);
    scdn.tick(500);
    let before = hits(&scdn);
    let repaired = scdn.repair();
    assert!(repaired > 0, "departure left something to repair");
    assert!(hits(&scdn) > before, "repair cycle reuses the ranking");
    assert_eq!(misses(&scdn), 1, "graph unchanged, nothing recomputed");
}

/// Contract 3: after a block host departs, repair ships exactly the
/// missing blocks — `missing × (S/k)` bytes, never a surviving peer's
/// block, far below the whole-replica copy a plain repair would move.
#[test]
fn coded_repair_transfers_only_missing_blocks() {
    let (c, sub) = denser_community();
    let (k, m) = (4u8, 2u8);
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 8 << 20,
        replicas_per_dataset: usize::from(m) + 1,
        availability: AvailabilityConfig::AlwaysOn,
        failure: FailureModel::default(),
        coding: CodingConfig::Rs { k, m },
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let owner = NodeId(0);
    let total = 40usize << 10;
    let dataset = scdn
        .publish(
            owner,
            "coded-repair",
            Bytes::from(vec![0xA5u8; total]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let added = scdn.replicate(dataset).expect("replicates");
    let n = usize::from(k) + usize::from(m);
    assert_eq!(added.len(), n, "one fresh host per coded block");
    let inventory = scdn.allocation().coded_inventory(dataset).expect("coded");
    let blocks_present = |inv: &[(NodeId, std::sync::Arc<Vec<u32>>)]| {
        let mut all: Vec<u32> = inv.iter().flat_map(|(_, b)| b.iter().copied()).collect();
        all.sort_unstable();
        all
    };
    assert_eq!(
        blocks_present(&inventory),
        (0..n as u32).collect::<Vec<_>>(),
        "replication spreads every block exactly once"
    );

    // Depart one block host (never the owner): exactly one block goes
    // missing.
    let victim = *added.first().expect("nonempty");
    let lost: Vec<u32> = inventory
        .iter()
        .find(|(host, _)| *host == victim)
        .map(|(_, b)| b.to_vec())
        .expect("victim holds a block");
    assert_eq!(lost.len(), 1);
    scdn.depart(victim).expect("departs");

    let bytes_before = scdn
        .observability_snapshot()
        .counter("cdn.bytes_transferred")
        .unwrap_or(0);
    let survivors = scdn.allocation().coded_inventory(dataset).expect("coded");
    let repaired = scdn.repair();
    assert_eq!(repaired, 1, "exactly one block host restored");
    let bytes_moved = scdn
        .observability_snapshot()
        .counter("cdn.bytes_transferred")
        .unwrap_or(0)
        - bytes_before;

    let block_len = total.div_ceil(usize::from(k));
    assert_eq!(
        bytes_moved, block_len as u64,
        "repair ships exactly the missing block"
    );
    assert!(
        bytes_moved < total as u64,
        "coded repair must move less than one whole replica"
    );

    // Full inventory restored; every surviving host kept exactly the
    // blocks it had (no redundant re-transfer).
    let after = scdn.allocation().coded_inventory(dataset).expect("coded");
    assert_eq!(blocks_present(&after), (0..n as u32).collect::<Vec<_>>());
    for (host, had) in &survivors {
        let now = after
            .iter()
            .find(|(h, _)| h == host)
            .map(|(_, b)| b.to_vec())
            .unwrap_or_default();
        assert_eq!(&now, &**had, "surviving host {host:?} inventory untouched");
    }
    // The restored block landed on a brand-new host.
    let fresh: Vec<&NodeId> = after
        .iter()
        .filter(|(h, _)| !survivors.iter().any(|(s, _)| s == h))
        .map(|(h, _)| h)
        .collect();
    assert_eq!(fresh.len(), 1, "one new block host");
    assert_eq!(
        after
            .iter()
            .find(|(h, _)| h == fresh[0])
            .map(|(_, b)| b.to_vec()),
        Some(lost),
        "the new host holds exactly the lost block"
    );
}

/// A requester racing any k of n blocks gets the original bytes back in
/// its user partition, reassembled into the plain segment layout.
#[test]
fn request_coded_delivers_original_content() {
    let (c, sub) = denser_community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 8 << 20,
        availability: AvailabilityConfig::AlwaysOn,
        failure: FailureModel::default(),
        coding: CodingConfig::Rs { k: 3, m: 2 },
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let owner = NodeId(0);
    let payload = vec![0x5Cu8; 30 << 10];
    let dataset = scdn
        .publish(
            owner,
            "coded-fetch",
            Bytes::from(payload.clone()),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let _ = scdn.replicate(dataset).expect("replicates");
    let requester = NodeId(5);
    let outcome = scdn.request(requester, dataset).expect("served");
    // k blocks of ceil(S/k) bytes — less than the full S the plain path
    // would move only when padding is zero; never more than S + k.
    let k = 3u64;
    let block = (payload.len() as u64).div_ceil(k);
    assert_eq!(outcome.bytes, k * block, "exactly k blocks on the wire");
    // The reassembled plain segments hold the original bytes.
    let repo = scdn.repo(requester).expect("known node");
    let mut got = Vec::new();
    let seg_size = 2usize << 10;
    for ordinal in 0..payload.len().div_ceil(seg_size) as u32 {
        let seg = repo
            .fetch(Partition::User, SegmentId { dataset, ordinal })
            .expect("plain segment stored");
        got.extend_from_slice(&seg.data);
    }
    assert_eq!(got, payload, "decoded content matches the original");
    // No coded scaffolding left behind.
    assert!(repo.list_coded(Partition::User, dataset).is_empty());
}

/// The host of `dataset`'s block `index`.
fn host_of(scdn: &Scdn, dataset: DatasetId, index: u32) -> NodeId {
    scdn.allocation()
        .coded_inventory(dataset)
        .expect("coded")
        .iter()
        .find(|(_, blocks)| blocks.contains(&index))
        .map(|(host, _)| *host)
        .expect("block is placed")
}

/// Contract 4: whichever blocks the race lands — all data, one parity
/// block, every parity block — and whether the segment size divides the
/// block length, exceeds it, or straddles block boundaries, the requester
/// ends up with exactly the segments `publish` cut.
#[test]
fn request_coded_segments_are_field_identical_to_published() {
    let (c, sub) = denser_community();
    let (k, m) = (4u8, 2u8);
    let content: Vec<u8> = (0..14_999u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
        .collect();
    let block_len = content.len().div_ceil(usize::from(k));
    assert_eq!(block_len, 3_750);
    // 1 250 divides the block length (every segment inside one shard),
    // 3 000 straddles every other boundary, 5 000 exceeds a block.
    for segment_size in [1_250usize, 3_000, 5_000] {
        // Departing the hosts of the first data blocks pushes the race
        // onto parity: 0, 1 and 2 (= m, every) parity blocks.
        for data_hosts_lost in 0..=u32::from(m) {
            let config = ScdnConfig {
                segment_size,
                repo_capacity: 8 << 20,
                availability: AvailabilityConfig::AlwaysOn,
                failure: FailureModel::default(),
                coding: CodingConfig::Rs { k, m },
                ..Default::default()
            };
            let mut scdn = Scdn::build(sub, &c.corpus, config);
            let dataset = scdn
                .publish(
                    NodeId(0),
                    "coded-fetch",
                    Bytes::from(content.clone()),
                    Sensitivity::Public,
                    None,
                )
                .expect("publishes");
            let hosts = scdn.replicate(dataset).expect("replicates");
            for index in 0..data_hosts_lost {
                let host = host_of(&scdn, dataset, index);
                scdn.depart(host).expect("departs");
            }
            let requester = (1..scdn.member_count() as u32)
                .map(NodeId)
                .find(|n| !hosts.contains(n))
                .expect("a member hosting nothing");
            scdn.request(requester, dataset).expect("served");

            let case = format!("segment size {segment_size}, {data_hosts_lost} data hosts lost");
            let published = Dataset::from_bytes(
                dataset,
                "coded-fetch",
                Sensitivity::Public,
                Bytes::from(content.clone()),
                segment_size,
            );
            let repo = scdn.repo(requester).expect("known node");
            let ids: Vec<SegmentId> = published.segments.iter().map(|s| s.id).collect();
            assert_eq!(repo.list(Partition::User), ids, "{case}");
            for want in &published.segments {
                let got = repo.fetch(Partition::User, want.id).expect("stored");
                assert_eq!(got.id, want.id, "{case}");
                assert_eq!(got.data, want.data, "{case}: {:?}", want.id);
                assert_eq!(got.checksum, want.checksum, "{case}: {:?}", want.id);
            }
            let snap = scdn.observability_snapshot();
            assert_eq!(
                snap.counter("core.coded.shards_reconstructed"),
                Some(u64::from(data_hosts_lost)),
                "{case}: only absent data shards are rebuilt"
            );
            assert_eq!(snap.counter("core.coded.blocks_landed"), Some(u64::from(k)));
        }
    }
}

/// Every block `dataset`'s hosts hold is field-identical to `first[index]`,
/// and every index is held exactly once.
fn assert_blocks_are_first_encode(scdn: &Scdn, dataset: DatasetId, first: &[Segment], case: &str) {
    let mut held = Vec::new();
    for (host, blocks) in scdn.allocation().coded_inventory(dataset).expect("coded") {
        for &index in blocks.iter() {
            let want = &first[index as usize];
            let got = scdn
                .repo(host)
                .expect("member")
                .fetch(Partition::Replica, want.id)
                .expect("a placed block verifies");
            assert_eq!(got.id, want.id, "{case}: block {index}");
            assert_eq!(got.data, want.data, "{case}: block {index}");
            assert_eq!(got.checksum, want.checksum, "{case}: block {index}");
            held.push(index);
        }
    }
    held.sort_unstable();
    assert_eq!(
        held,
        (0..first.len() as u32).collect::<Vec<_>>(),
        "{case}: every block held once"
    );
}

/// A policy that wants one more replica of every dataset, so a
/// maintenance cycle plans a grow (for a coded dataset, a `CodedGrow`)
/// without any demand.
struct AlwaysGrow;

impl RebalancePolicy for AlwaysGrow {
    fn target(&self, dataset: &DatasetStats, _cycle: &CycleStats) -> usize {
        dataset.current + 1
    }
}

/// Which members a plain BFS on `g` reaches from `from`: the boundary
/// property's reference.
fn reachable_in(g: &Graph, from: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.node_count()];
    seen[from.index()] = true;
    let mut queue = VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for e in g.neighbors(v) {
            if !std::mem::replace(&mut seen[e.to.index()], true) {
                queue.push_back(e.to);
            }
        }
    }
    seen
}

/// An always-on, lossless system under the social boundary on `graph`,
/// with two RS(2,1) datasets published by nodes 0 and 1 and two
/// whole-replica ones by nodes 2 and 3, each placed. Returns the
/// datasets with their owners.
fn island_system(graph: Graph) -> (Scdn, Vec<(DatasetId, NodeId)>) {
    let (c, sub) = community();
    let authors = sub.authors[..graph.node_count()].to_vec();
    let islands = TrustSubgraph::from_parts(TrustFilter::Baseline, graph, authors);
    let config = ScdnConfig {
        enforce_social_boundary: true,
        segment_size: 1 << 10,
        replicas_per_dataset: 2,
        availability: AvailabilityConfig::AlwaysOn,
        coding: CodingConfig::Rs { k: 2, m: 1 },
        ..ScdnConfig::default()
    };
    let mut scdn = Scdn::build(&islands, &c.corpus, config);
    let mut datasets = Vec::new();
    for owner in (0..4).map(NodeId) {
        if owner == NodeId(2) {
            scdn.set_publish_coding(CodingConfig::None);
        }
        let content = Bytes::from(vec![owner.0 as u8 + 1; 2 << 10]);
        let id = scdn
            .publish(owner, "island", content, Sensitivity::Public, None)
            .expect("publishes");
        let _ = scdn.replicate(id);
        datasets.push((id, owner));
    }
    (scdn, datasets)
}

proptest! {
    /// Random island graphs, coded and whole-replica datasets, departures,
    /// and deltas that join islands or cut edges: under the social
    /// boundary a request is refused at the boundary — no coded race, or a
    /// `BoundaryBlocked` span — exactly when a plain BFS on `scdn.social`
    /// from the requester finds no online holder: block hosts holding k
    /// distinct blocks for the race, a replica for the resolved path. A
    /// served request is served from a reachable member.
    #[test]
    fn the_boundary_refuses_exactly_when_no_holder_is_reachable(
        islands in proptest::collection::vec(0u8..4, 8..=20),
        edges in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..24),
        departures in proptest::collection::vec(any::<u8>(), 0..4),
        steps in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u8..4), 1..32),
    ) {
        use scdn_obs::{SpanKind, SpanStatus};

        let n = islands.len();
        let member = |x: u8| NodeId(u32::from(x) % n as u32);
        // Each island is a chain of its members plus random chords.
        let mut graph = Graph::new(n);
        let mut last: [Option<NodeId>; 4] = [None; 4];
        for (v, &island) in islands.iter().enumerate() {
            let v = NodeId(v as u32);
            if let Some(u) = last[usize::from(island)].replace(v) {
                graph.add_edge(u, v, 1);
            }
        }
        for (a, b) in edges.into_iter().map(|(a, b)| (member(a), member(b))) {
            if islands[a.index()] == islands[b.index()] {
                graph.add_edge(a, b, 1);
            }
        }
        let (mut scdn, datasets) = island_system(graph);
        for x in departures {
            scdn.depart(member(x)).expect("a member");
        }
        for (x, y, kind) in steps {
            if kind < 2 {
                let mut delta = GraphDelta::new();
                if kind == 0 {
                    // A new collaboration, often across islands.
                    delta.add_edge(member(x), member(y), 1);
                } else {
                    // A lapsed one.
                    let edges: Vec<_> = scdn.social_csr().edges().collect();
                    if let Some(&(a, b, _)) = edges.get(usize::from(x) % edges.len().max(1)) {
                        delta.remove_edge(a, b);
                    }
                }
                scdn.apply_graph_delta(&delta).expect("members");
                continue;
            }
            let node = member(x);
            let (dataset, owner) = datasets[usize::from(y) % datasets.len()];
            let reach = reachable_in(&scdn.social, node);
            let reachable_online = |host: NodeId| reach[host.index()] && scdn.is_online(host);
            let spec = scdn.allocation().coding_of(dataset).expect("registered");
            let race_expected = spec.filter(|_| owner != node).is_some_and(|spec| {
                let inventory = scdn.allocation().coded_inventory(dataset).expect("registered");
                let blocks: BTreeSet<u32> = inventory
                    .iter()
                    .filter(|(host, _)| *host != node && reachable_online(*host))
                    .flat_map(|(_, blocks)| blocks.iter().copied())
                    .collect();
                blocks.len() >= usize::from(spec.k)
            });
            let online: Vec<NodeId> = scdn
                .allocation()
                .replicas_of(dataset)
                .expect("registered")
                .into_iter()
                .filter(|&r| scdn.is_online(r))
                .collect();
            let blocked_expected =
                !race_expected && !online.is_empty() && !online.iter().any(|&r| reach[r.index()]);

            let result = scdn.request(node, dataset);
            let trace = scdn.traces().recent().last().expect("every request is traced");
            let spans = &trace.spans;
            prop_assert_eq!(spans[0].status, SpanStatus::Ok, "authenticated");
            let raced = spans[1].kind == SpanKind::Discover
                && spans[1].status == SpanStatus::Ok
                && spans.iter().all(|s| s.kind != SpanKind::SelectReplica);
            let blocked = spans.iter().any(|s| s.status == SpanStatus::BoundaryBlocked);
            let case = format!("{node:?} asks for {dataset:?} of {owner:?}");
            prop_assert_eq!(raced, race_expected, "race: {}", case);
            prop_assert_eq!(blocked, blocked_expected, "blocked: {}", case);
            if let Ok(outcome) = result {
                prop_assert!(reach[outcome.served_by.index()], "served across: {}", case);
            }
        }
    }

    /// Random codes, lengths (divisible by neither k nor the segment size,
    /// empty included) and departures that force parity reconstruction:
    /// every segment a coded request stores verifies and equals the
    /// published one field for field, and every block regenerated later —
    /// owner-online repair, a maintenance grow, owner-offline rebuild —
    /// equals the first encode's. This is what makes storing a rebuilt
    /// segment or block under the owner's recorded digest, instead of
    /// digesting it again, sound.
    #[test]
    fn coded_rebuilds_carry_the_owners_digests(
        (k, m) in (1u8..=5, 1u8..=3),
        len in 0usize..24_000,
        segment_size in 256usize..6_000,
        data_hosts_lost in 0u8..=3,
    ) {
        let (c, sub) = denser_community();
        let config = ScdnConfig {
            segment_size,
            repo_capacity: 8 << 20,
            availability: AvailabilityConfig::AlwaysOn,
            failure: FailureModel::default(),
            coding: CodingConfig::Rs { k, m },
            ..Default::default()
        };
        let case = format!("RS({k},{m}), {len} B, segment size {segment_size}");
        let mut scdn = Scdn::build(sub, &c.corpus, config);
        let owner = NodeId(0);
        let content: Vec<u8> = (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 11) as u8)
            .collect();
        let dataset = scdn
            .publish(owner, "adopt", Bytes::from(content.clone()), Sensitivity::Public, None)
            .expect("publishes");
        let hosts = scdn.replicate(dataset).expect("replicates");
        let spec = scdn.allocation().coding_of(dataset).expect("known").expect("coded");
        let first = encode_blocks(&spec, dataset, &content);
        assert_blocks_are_first_encode(&scdn, dataset, &first, &case);

        // Departing the hosts of the first data blocks forces the race
        // onto parity.
        let lost = data_hosts_lost.min(k).min(m);
        for index in 0..u32::from(lost) {
            let host = host_of(&scdn, dataset, index);
            scdn.depart(host).expect("departs");
        }
        let requester = (1..scdn.member_count() as u32)
            .map(NodeId)
            .find(|n| !hosts.contains(n))
            .expect("a member hosting nothing");
        scdn.request(requester, dataset).expect("served");
        let published = Dataset::from_bytes(
            dataset,
            "adopt",
            Sensitivity::Public,
            Bytes::from(content.clone()),
            segment_size,
        );
        let repo = scdn.repo(requester).expect("member");
        let ids: Vec<SegmentId> = published.segments.iter().map(|s| s.id).collect();
        prop_assert_eq!(repo.list(Partition::User), ids, "{}", case);
        for want in &published.segments {
            let got = repo.fetch(Partition::User, want.id).expect("stored and verifies");
            prop_assert!(got.verify(), "{case}: {:?}", want.id);
            prop_assert_eq!(got.id, want.id, "{}", case);
            prop_assert_eq!(&got.data, &want.data, "{}: {:?}", case, want.id);
            prop_assert_eq!(got.checksum, want.checksum, "{}: {:?}", case, want.id);
        }
        prop_assert_eq!(
            scdn.observability_snapshot().counter("core.coded.shards_reconstructed"),
            Some(u64::from(lost)),
            "{}: the race reconstructs every lost data shard",
            case
        );

        // Owner-online repair, on the serial path.
        let last = spec.n() - 1;
        scdn.depart(host_of(&scdn, dataset, last)).expect("departs");
        scdn.replicate(dataset).expect("owner regenerates");
        assert_blocks_are_first_encode(&scdn, dataset, &first, &format!("{case}, repair"));

        // Maintenance grows the coded dataset back.
        scdn.depart(host_of(&scdn, dataset, 0)).expect("departs");
        prop_assert_eq!(scdn.maintain_with(&AlwaysGrow), 1, "{}: maintain regrows the block", case);
        assert_blocks_are_first_encode(&scdn, dataset, &first, &format!("{case}, maintain"));

        // Owner-offline rebuild from k surviving blocks.
        scdn.depart(owner).expect("owner departs");
        scdn.depart(host_of(&scdn, dataset, last)).expect("departs");
        prop_assert_eq!(scdn.repair(), 1, "{}: the rebuilder hosts the lost block", case);
        assert_blocks_are_first_encode(&scdn, dataset, &first, &format!("{case}, rebuild"));
        prop_assert_eq!(owner_digest_mismatches(&scdn), 0, "{}: an honest copy was refused", case);
    }
}
