//! Integration test: the stack under failure injection — lossy and
//! corrupting networks, storage quota pressure, and integrity verification
//! across the transfer path.

use scdn::bytes::Bytes;
use scdn::core::system::{Scdn, ScdnConfig, ScdnError};
use scdn::graph::NodeId;
use scdn::net::failure::FailureModel;
use scdn::social::generator::{generate, CaseStudyParams};
use scdn::social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn::storage::repository::Partition;
use scdn::storage::Sensitivity;

fn community() -> (scdn::social::SyntheticDblp, TrustSubgraph) {
    let mut params = CaseStudyParams::default();
    params.level2_prob = 0.4;
    params.level3_prob = 0.0;
    params.mega_pub_authors = 0;
    params.rng_seed = 5;
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
fn lossy_network_served_via_retries() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.failure = FailureModel {
        loss_prob: 0.3,
        corruption_prob: 0.05,
        seed: 17,
        ..FailureModel::default()
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let owner = NodeId(0);
    let dataset = scdn
        .publish(
            owner,
            "lossy",
            Bytes::from(vec![1u8; 256 << 10]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let _ = scdn.replicate(dataset);
    let mut served = 0;
    let mut transfer_failures = 0;
    for i in 1..40u32 {
        let node = NodeId(i % scdn.member_count() as u32);
        match scdn.request(node, dataset) {
            Ok(_) => served += 1,
            Err(ScdnError::Transfer(_)) => transfer_failures += 1,
            Err(e) => panic!("unexpected error class: {e}"),
        }
    }
    // Retries absorb most of a 30% loss rate (p(fail) = 0.35^3 per segment)
    // but a multi-segment transfer still fails occasionally.
    assert!(served > 20, "served = {served}");
    assert!(
        transfer_failures > 0,
        "some multi-segment transfers should exhaust retries"
    );
    // Failures are visible in the metrics.
    assert_eq!(scdn.cdn_metrics.failures as usize, transfer_failures);
}

#[test]
fn corrupted_source_copy_is_refused() {
    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let owner = NodeId(0);
    let dataset = scdn
        .publish(
            owner,
            "tampered",
            Bytes::from(vec![9u8; 4096]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    // Tamper with the owner's stored copy behind the CDN's back.
    let repo = scdn.repo(owner).expect("repo");
    let ids = repo.list(Partition::User);
    assert!(!ids.is_empty());
    let seg = repo.fetch(Partition::User, ids[0]).expect("intact");
    let mut raw = seg.data.to_vec();
    raw[0] ^= 0xff;
    let bad = scdn::storage::Segment {
        id: seg.id,
        data: Bytes::from(raw),
        checksum: seg.checksum,
    };
    repo.store(Partition::User, bad)
        .expect("stored tampered copy");
    // Replication must refuse to propagate the corrupted segment.
    match scdn.replicate(dataset) {
        Ok(added) => assert!(
            added.is_empty(),
            "corrupted source must not replicate, added {added:?}"
        ),
        Err(ScdnError::Transfer(_)) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// A replica host rewrites its copy of a segment and stores it under a
/// checksum of the new bytes, so its own read verifies. The requester
/// compares that checksum with the owner's and refuses the delivery.
#[test]
fn forged_replica_copy_is_refused() {
    use scdn::net::transfer::TransferError;
    use scdn::storage::{Segment, SegmentId};

    let (c, sub) = community();
    let mut scdn = Scdn::build(&sub, &c.corpus, ScdnConfig::default());
    let owner = NodeId(0);
    let dataset = scdn
        .publish(
            owner,
            "forged",
            Bytes::from(vec![0x3Cu8; 8000]),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let hosts = scdn.replicate(dataset).expect("replicates");
    let requester = (1..scdn.member_count() as u32)
        .map(NodeId)
        .find(|n| !hosts.contains(n))
        .expect("a member hosting nothing");
    let source = scdn
        .resolve_replica(requester, dataset)
        .expect("a replica serves");
    let id = SegmentId {
        dataset,
        ordinal: 0,
    };
    let repo = scdn.repo(source).expect("member");
    let partition = if repo.contains_in(Partition::Replica, id) {
        Partition::Replica
    } else {
        Partition::User
    };
    repo.store(partition, Segment::new(id, Bytes::from(vec![0x55u8; 8000])))
        .expect("same size fits");

    let before = scdn.decision_state();
    match scdn.request(requester, dataset) {
        Err(ScdnError::Transfer(TransferError::SourceCorrupt(bad))) => assert_eq!(bad, id),
        other => panic!("a forged copy must be refused, got {other:?}"),
    }
    // Nothing forged reaches the requester. The failed request charged its
    // session one operation and the dataset one resolution — a hit when
    // the source is a social neighbour — and moved nothing else.
    let mut want = before;
    let session = want.sessions[requester.index()].as_mut().expect("live");
    session.remaining_ops -= 1;
    let (catalogued, entry) = &mut want.catalog.entries[0];
    assert_eq!(*catalogued, dataset);
    if scdn.social_csr().has_edge(source, requester) {
        entry.hits += 1;
    } else {
        entry.misses += 1;
    }
    assert!(
        scdn.decision_state() == want,
        "the refused request changed more than its charges"
    );
    assert_eq!(
        scdn.observability_snapshot()
            .counter("core.transfer.owner_digest_mismatch"),
        Some(1)
    );
}

#[test]
fn quota_pressure_surfaces_cleanly() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.repo_capacity = 64 << 10; // tiny repositories
    config.segment_size = 16 << 10;
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let owner = NodeId(0);
    // First dataset fits.
    scdn.publish(
        owner,
        "fits",
        Bytes::from(vec![1u8; 32 << 10]),
        Sensitivity::Public,
        None,
    )
    .expect("fits");
    // Second one exceeds the owner's capacity.
    match scdn.publish(
        owner,
        "too-big",
        Bytes::from(vec![2u8; 64 << 10]),
        Sensitivity::Public,
        None,
    ) {
        Err(ScdnError::Repo(scdn::storage::RepoError::QuotaExceeded { .. })) => {}
        other => panic!("expected quota error, got ok={}", other.is_ok()),
    }
}

#[test]
fn end_to_end_integrity_across_lossy_transfers() {
    let (c, sub) = community();
    let mut config = ScdnConfig::default();
    config.failure = FailureModel {
        loss_prob: 0.2,
        corruption_prob: 0.1,
        seed: 23,
        ..FailureModel::default()
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let owner = NodeId(1);
    let payload = vec![0xC3u8; 128 << 10];
    let dataset = scdn
        .publish(
            owner,
            "integrity",
            Bytes::from(payload.clone()),
            Sensitivity::Public,
            None,
        )
        .expect("publishes");
    let _ = scdn.replicate(dataset);
    // Find a request that succeeds and verify the delivered bytes match.
    for i in 2..30u32 {
        let node = NodeId(i);
        if scdn.request(node, dataset).is_ok() {
            let repo = scdn.repo(node).expect("repo");
            let mut delivered = Vec::new();
            for id in repo.list(Partition::User) {
                let seg = repo.fetch(Partition::User, id).expect("verified on fetch");
                assert!(seg.verify(), "every delivered segment verifies");
                delivered.extend_from_slice(&seg.data);
            }
            assert_eq!(delivered, payload, "reassembled bytes match the original");
            return;
        }
    }
    panic!("no request succeeded under moderate loss");
}

/// Satellite scenario: a Byzantine block host serves garbage on every
/// attempt, yet a coded any-k-of-n request still succeeds — the corrupt
/// chains are detected by checksum, discarded, and the block is refetched
/// from an honest donor (or the race simply completes from the other
/// k-of-n donors first).
#[test]
fn byzantine_block_host_cannot_poison_coded_fetch() {
    use scdn::storage::coding::CodingConfig;

    let (c, sub) = community();
    let owner = NodeId(0);
    let requester = NodeId(6);
    let payload = vec![0xB7u8; 24 << 10];
    // Byzantine membership is a pure hash of (byzantine_seed, node), so
    // scan a few seeds for a fixture where the owner and requester are
    // honest, at least one placed block host is Byzantine, and at least k
    // honest donors survive. Deterministic: the first qualifying seed is
    // always the same.
    let mut fixture = None;
    for byz_seed in 0..64u64 {
        let mut config = ScdnConfig::default();
        config.coding = CodingConfig::Rs { k: 3, m: 2 };
        config.failure = FailureModel {
            byzantine_frac: 0.4,
            byzantine_seed: byz_seed,
            ..FailureModel::default()
        };
        let model = config.failure;
        if model.is_byzantine_source(owner.0 as usize)
            || model.is_byzantine_source(requester.0 as usize)
        {
            continue;
        }
        let mut scdn = Scdn::build(&sub, &c.corpus, config);
        let dataset = scdn
            .publish(
                owner,
                "byzantine",
                Bytes::from(payload.clone()),
                Sensitivity::Public,
                None,
            )
            .expect("publishes");
        let hosts = scdn.replicate(dataset).expect("replicates");
        assert_eq!(hosts.len(), 5, "k + m block hosts placed");
        let byz = hosts
            .iter()
            .filter(|h| model.is_byzantine_source(h.0 as usize))
            .count();
        if byz >= 1 && hosts.len() - byz >= 3 {
            fixture = Some((scdn, dataset));
            break;
        }
    }
    let (mut scdn, dataset) =
        fixture.expect("some seed in 0..64 yields a Byzantine host among 5 with 3 honest");
    scdn.request_coded(requester, dataset)
        .expect("k-of-n fetch succeeds despite Byzantine donors");
    // The decoded, reassembled content is byte-identical to the original.
    let repo = scdn.repo(requester).expect("repo");
    let mut delivered = Vec::new();
    for id in repo.list(Partition::User) {
        let seg = repo.fetch(Partition::User, id).expect("verified on fetch");
        assert!(seg.verify(), "every delivered segment verifies");
        delivered.extend_from_slice(&seg.data);
    }
    assert_eq!(delivered, payload, "Byzantine bytes never reach the user");
}
