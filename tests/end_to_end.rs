//! End-to-end integration: the full S-CDN stack from community generation
//! through publication, replication, policy-gated requests, and
//! demand-driven maintenance.

use scdn::core::system::{AvailabilityConfig, Scdn, ScdnConfig, ScdnError};
use scdn::graph::NodeId;
use scdn::middleware::authz::{AccessDecision, AccessPolicy};
use scdn::obs::{SpanKind, SpanStatus};
use scdn::social::generator::{generate, CaseStudyParams};
use scdn::social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn::storage::Sensitivity;
use scdn::trust::threshold::TrustPolicy;

fn small_community() -> (scdn::social::SyntheticDblp, TrustSubgraph) {
    let mut params = CaseStudyParams::default();
    params.level2_prob = 0.5;
    params.level3_prob = 0.0;
    params.mega_pub_authors = 0;
    params.rng_seed = 33;
    let community = generate(&params);
    let sub = build_trust_subgraph(
        &community.corpus,
        community.seed_author,
        3,
        2009..=2010,
        TrustFilter::Baseline,
    )
    .expect("seed present");
    (community, sub)
}

#[test]
fn publish_replicate_request_flow() {
    let (community, sub) = small_community();
    let mut scdn = Scdn::build(&sub, &community.corpus, ScdnConfig::default());
    let owner = NodeId(0);
    let dataset = scdn
        .publish(
            owner,
            "study",
            bytes::Bytes::from(vec![9u8; 1 << 20]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let hosts = scdn.replicate(dataset).expect("replicates");
    assert!(!hosts.is_empty(), "replication must add hosts");
    let replicas = scdn.replicas_of(dataset).expect("catalogued");
    assert_eq!(replicas.len(), 3, "owner + 2 replicas (default config)");
    // Every member can fetch it.
    let far = NodeId((scdn.member_count() - 1) as u32);
    let outcome = scdn.request(far, dataset).expect("served");
    assert!(outcome.bytes > 0);
    assert!(outcome.response_ms > 0.0);
    // The segments landed in the requester's user partition.
    let repo = scdn.repo(far).expect("repo");
    assert!(repo.used() > 0);
}

#[test]
fn self_service_when_hosting() {
    let (community, sub) = small_community();
    let mut scdn = Scdn::build(&sub, &community.corpus, ScdnConfig::default());
    let owner = NodeId(2);
    let dataset = scdn
        .publish(
            owner,
            "local",
            bytes::Bytes::from(vec![1u8; 4096]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    // The owner requesting its own dataset is a zero-byte social hit.
    let outcome = scdn.request(owner, dataset).expect("served");
    assert_eq!(outcome.served_by, owner);
    assert!(outcome.social_hit);
    assert_eq!(outcome.bytes, 0);
}

#[test]
fn restricted_data_denied_outside_group() {
    let (community, sub) = small_community();
    let mut scdn = Scdn::build(&sub, &community.corpus, ScdnConfig::default());
    let owner_node = sub.node_of(community.seed_author).expect("seed node");
    let platform = scdn.platform().clone();
    let owner_user = platform
        .user_of_author(community.seed_author)
        .expect("registered");
    let group = platform.create_group(owner_user, "trial").expect("group");
    let policy = AccessPolicy {
        sensitivity: Sensitivity::Restricted,
        owner: community.seed_author,
        group: Some(group),
        grants: vec![],
        trust: None,
    };
    let dataset = scdn
        .publish(
            owner_node,
            "sensitive",
            bytes::Bytes::from(vec![3u8; 1024]),
            Sensitivity::Restricted,
            Some(policy),
        )
        .expect("publishes");
    scdn.replicate(dataset).expect("replicates");
    // A non-member is denied.
    let outsider = NodeId((scdn.member_count() - 1) as u32);
    match scdn.request(outsider, dataset) {
        Err(ScdnError::Access(AccessDecision::DeniedNotGroupMember)) => {}
        other => panic!("expected group denial, got {:?}", other.map(|o| o.bytes)),
    }
    // After enrollment the same member is served.
    let outsider_author = sub.author_of(outsider);
    let outsider_user = platform
        .user_of_author(outsider_author)
        .expect("registered");
    platform
        .add_to_group(owner_user, group, outsider_user)
        .expect("enrolled");
    let outcome = scdn
        .request(outsider, dataset)
        .expect("served after enrollment");
    assert!(outcome.bytes > 0);
}

#[test]
fn trust_gate_follows_publication_history() {
    let (community, sub) = small_community();
    let mut scdn = Scdn::build(&sub, &community.corpus, ScdnConfig::default());
    let owner_node = sub.node_of(community.seed_author).expect("seed node");
    let policy = AccessPolicy {
        sensitivity: Sensitivity::Public,
        owner: community.seed_author,
        group: None,
        grants: vec![],
        trust: Some(TrustPolicy::default()),
    };
    let dataset = scdn
        .publish(
            owner_node,
            "trusted-only",
            bytes::Bytes::from(vec![5u8; 1024]),
            Sensitivity::Public,
            Some(policy),
        )
        .expect("publishes");
    scdn.replicate(dataset).expect("replicates");
    // A direct repeat coauthor passes the gate.
    let coauthor = sub
        .graph
        .neighbors(owner_node)
        .iter()
        .map(|e| e.to)
        .max_by_key(|&v| sub.graph.edge_weight(owner_node, v))
        .expect("seed has coauthors");
    assert!(scdn.request(coauthor, dataset).is_ok());
    // A stranger two or more hops away (never coauthored with the seed)
    // is denied.
    let stranger = scdn::graph::traversal::bfs_distances(scdn.social_csr(), owner_node)
        .iter()
        .enumerate()
        .find(|(_, d)| matches!(d, Some(h) if *h >= 2))
        .map(|(i, _)| NodeId(i as u32))
        .expect("2-hop node exists");
    match scdn.request(stranger, dataset) {
        Err(ScdnError::Access(AccessDecision::DeniedUntrusted)) => {}
        other => panic!("expected trust denial, got ok={}", other.is_ok()),
    }
}

#[test]
fn maintenance_grows_hot_datasets() {
    let (community, sub) = small_community();
    let mut config = ScdnConfig::default();
    config.replicas_per_dataset = 1; // start with just the owner copy
    let mut scdn = Scdn::build(&sub, &community.corpus, config);
    let owner = NodeId(0);
    let dataset = scdn
        .publish(
            owner,
            "hot",
            bytes::Bytes::from(vec![7u8; 4096]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    assert_eq!(scdn.replicas_of(dataset).expect("known").len(), 1);
    // Hammer it from far-away nodes: all misses.
    let n = scdn.member_count() as u32;
    for i in 0..300u32 {
        let node = NodeId(n - 1 - (i % 20));
        let _ = scdn.request(node, dataset);
    }
    let changes = scdn.maintain();
    assert!(changes > 0, "maintenance must add replicas under demand");
    assert!(scdn.replicas_of(dataset).expect("known").len() > 1);
}

#[test]
fn every_request_leaves_a_complete_ordered_trace() {
    let (community, sub) = small_community();
    let mut scdn = Scdn::build(&sub, &community.corpus, ScdnConfig::default());
    let owner = NodeId(0);
    let dataset = scdn
        .publish(
            owner,
            "traced",
            bytes::Bytes::from(vec![4u8; 64 << 10]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(dataset).expect("replicates");
    // A mix of outcomes: remote fetches, a self-service hit, and a lookup
    // of a dataset that does not exist.
    let far = NodeId((scdn.member_count() - 1) as u32);
    let mid = NodeId((scdn.member_count() / 2) as u32);
    scdn.request(far, dataset).expect("served");
    scdn.request(mid, dataset).expect("served");
    scdn.request(owner, dataset).expect("self-served");
    let missing = scdn::storage::DatasetId(9_999);
    assert!(scdn.request(far, missing).is_err());

    let traces: Vec<_> = scdn.traces().recent().cloned().collect();
    assert_eq!(scdn.traces().total_recorded(), 4, "one trace per request");
    assert_eq!(traces.len(), 4);
    for t in &traces {
        assert!(
            t.is_well_formed(),
            "trace {} malformed: {:?}",
            t.id,
            t.spans
        );
        assert_eq!(t.spans[0].kind, SpanKind::Authenticate);
        // Start offsets never regress and every duration is sane.
        for w in t.spans.windows(2) {
            assert!(w[0].start_ms <= w[1].start_ms);
        }
    }
    // The two remote fetches walk the full chain with at least one
    // transfer attempt against the peer the selector chose.
    for t in &traces[0..2] {
        assert!(t.delivered());
        let kinds: Vec<SpanKind> = t.spans.iter().map(|s| s.kind).collect();
        assert_eq!(kinds[0], SpanKind::Authenticate);
        assert_eq!(kinds[1], SpanKind::Discover);
        assert_eq!(kinds[2], SpanKind::SelectReplica);
        assert_eq!(*kinds.last().expect("non-empty"), SpanKind::Deliver);
        let peer = t.spans[2].peer.expect("selection names the replica");
        let attempts: Vec<_> = t
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::TransferAttempt)
            .collect();
        assert!(!attempts.is_empty(), "remote fetch must attempt transfers");
        for a in &attempts {
            assert_eq!(a.peer, Some(peer), "attempts go to the selected peer");
        }
        // Delivered requests end each segment with a successful attempt.
        assert_eq!(attempts.last().expect("non-empty").status, SpanStatus::Ok);
    }
    // Self-service needs no network attempts but still traces the chain.
    let own = &traces[2];
    assert!(own.delivered());
    assert_eq!(own.requester, owner.0);
    assert!(own
        .spans
        .iter()
        .all(|s| s.kind != SpanKind::TransferAttempt));
    // The unknown-dataset request terminates in a Fail span.
    let failed = &traces[3];
    assert!(!failed.delivered());
    let terminal = failed.terminal().expect("finished trace");
    assert_eq!(terminal.kind, SpanKind::Fail);
    assert_ne!(terminal.status, SpanStatus::Ok);
    assert_eq!(failed.dataset, missing.0);
}

#[test]
fn churn_degrades_service_but_not_consistency() {
    let (community, sub) = small_community();
    let mut config = ScdnConfig::default();
    config.availability = AvailabilityConfig::Periodic {
        period_ms: 10_000,
        duty: 0.4,
    };
    let mut scdn = Scdn::build(&sub, &community.corpus, config);
    let owner = NodeId(0);
    let dataset = scdn
        .publish(
            owner,
            "churny",
            bytes::Bytes::from(vec![2u8; 8192]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    scdn.replicate(dataset)
        .expect("replication tolerates churn");
    let mut served = 0;
    let mut failed = 0;
    for i in 0..60u64 {
        scdn.tick(1_500);
        let node = NodeId((i % scdn.member_count() as u64) as u32);
        match scdn.request(node, dataset) {
            Ok(outcome) => {
                served += 1;
                assert!(outcome.bytes > 0 || outcome.served_by == node);
            }
            Err(ScdnError::Alloc(_)) => failed += 1,
            Err(e) => panic!("unexpected error under churn: {e}"),
        }
    }
    assert!(served > 0, "some requests must be served");
    // With duty 0.4 some requests should find all replicas offline.
    assert!(failed > 0, "churn should cause some unavailability");
}
