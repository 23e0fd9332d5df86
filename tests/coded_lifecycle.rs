//! Integration test: the life of an erasure-coded dataset — publish under
//! RS(4,2), an any-k fetch, and repair after a data-block host, a
//! parity-block host, and finally the owner itself leave — beside the same
//! dataset kept as three full copies, which must repair dearer and fetch
//! no faster in the tail.

use scdn::bytes::Bytes;
use scdn::core::ops::Op;
use scdn::core::system::{Scdn, ScdnConfig};
use scdn::graph::NodeId;
use scdn::social::generator::{generate, CaseStudyParams};
use scdn::social::trustgraph::{build_trust_subgraph, TrustFilter};
use scdn::storage::coding::{decode_blocks, CodedBlockId, CodingConfig};
use scdn::storage::object::{DatasetId, Segment};
use scdn::storage::repository::Partition;

const K: u32 = 4;
const N: u32 = 6;

/// The host of each block `0..N`, requiring every block to be advertised
/// by exactly one host.
fn block_hosts(scdn: &Scdn, dataset: DatasetId) -> Vec<NodeId> {
    let inventory = scdn.allocation().coded_inventory(dataset).expect("coded");
    (0..N)
        .map(|index| {
            let holders: Vec<NodeId> = inventory
                .iter()
                .filter(|(_, blocks)| blocks.contains(&index))
                .map(|(host, _)| *host)
                .collect();
            assert_eq!(holders.len(), 1, "block {index} is held exactly once");
            holders[0]
        })
        .collect()
}

/// The inventory is back to `N` distinct blocks on online hosts, and
/// every `K` of them decode to the published bytes.
fn assert_any_k_decode(scdn: &Scdn, dataset: DatasetId, published: &[u8]) {
    let spec = scdn
        .allocation()
        .coding_of(dataset)
        .expect("known")
        .expect("coded");
    let blocks: Vec<Segment> = block_hosts(scdn, dataset)
        .iter()
        .zip(0..)
        .map(|(&host, index)| {
            assert!(scdn.is_online(host), "block {index} sits on a live host");
            scdn.repo(host)
                .expect("member")
                .fetch(
                    Partition::Replica,
                    CodedBlockId { dataset, index }.segment_id(),
                )
                .expect("the advertised block is stored and verifies")
        })
        .collect();
    for mask in (0u32..1 << N).filter(|m| m.count_ones() == K) {
        let subset: Vec<Segment> = (0..N as usize)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| blocks[i].clone())
            .collect();
        let decoded = decode_blocks(&spec, &subset).expect("any k blocks decode");
        assert_eq!(decoded.as_ref(), published, "blocks {mask:#08b}");
    }
}

fn bytes_transferred(scdn: &Scdn) -> u64 {
    scdn.observability_snapshot()
        .counter("cdn.bytes_transferred")
        .unwrap_or(0)
}

#[test]
fn coded_dataset_survives_fetch_and_three_repairs() {
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
    // 50 000 B over k = 4 is 12 500 B blocks; 4 096 B segments do not
    // divide that, so plain segments straddle block boundaries.
    let config = ScdnConfig {
        segment_size: 4096,
        coding: CodingConfig::Rs { k: 4, m: 2 },
        ..Default::default()
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config.clone());
    // The same dataset under full replication at equal durability: m + 1
    // copies survive any m host losses, as k + m blocks do.
    let mut plain = Scdn::build(
        &sub,
        &c.corpus,
        ScdnConfig {
            coding: CodingConfig::None,
            replicas_per_dataset: (N - K) as usize + 1,
            ..config
        },
    );
    let owner = NodeId(0);
    let published: Vec<u8> = (0..50_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8)
        .collect();
    let block_len = 12_500u64;
    let publish = Op::publish(owner, "lifecycle", Bytes::from(published.clone()));
    let dataset = scdn.apply(&publish).published().expect("publishes");
    let placed = scdn
        .apply(&Op::Replicate(dataset))
        .replicated()
        .expect("places every block");
    assert_eq!(placed.len(), N as usize);
    assert_any_k_decode(&scdn, dataset, &published);
    let plain_dataset = plain.apply(&publish).published().expect("publishes");
    let copies = plain
        .apply(&Op::Replicate(plain_dataset))
        .replicated()
        .expect("places every copy");
    assert_eq!(copies.len(), (N - K) as usize);

    // Every member that hosts nothing fetches any k blocks, and the same
    // bytes from one full copy. A requester next to a copy can beat the
    // race, which waits on its k-th nearest donor; the tail cannot.
    let requesters: Vec<NodeId> = (1..scdn.member_count() as u32)
        .map(NodeId)
        .filter(|n| !placed.contains(n))
        .collect();
    let (mut slowest_race, mut slowest_stream) = (0.0f64, 0.0f64);
    for &n in &requesters {
        let raced = scdn
            .apply(&Op::Request(n, dataset))
            .requested()
            .expect("served");
        assert_eq!(raced.bytes, u64::from(K) * block_len);
        let streamed = plain
            .apply(&Op::Request(n, plain_dataset))
            .requested()
            .expect("served");
        assert_eq!(streamed.bytes, published.len() as u64);
        slowest_race = slowest_race.max(raced.response_ms);
        slowest_stream = slowest_stream.max(streamed.response_ms);
    }
    assert!(
        slowest_race <= slowest_stream,
        "slowest any-k fetch {slowest_race} ms, slowest single-source fetch {slowest_stream} ms"
    );
    // A requester ends up with the published bytes as plain segments.
    let requester = requesters[0];
    let repo = scdn.repo(requester).expect("member");
    let mut fetched = Vec::new();
    for id in repo.list(Partition::User) {
        fetched.extend_from_slice(&repo.fetch(Partition::User, id).expect("verifies").data);
    }
    assert_eq!(fetched, published);
    assert!(repo.list_coded(Partition::User, dataset).is_empty());

    // The host of a data block leaves, then the host of a parity block:
    // the owner regenerates and ships exactly the block that went missing.
    for lost in [1u32, 5] {
        let victim = block_hosts(&scdn, dataset)[lost as usize];
        scdn.apply(&Op::Depart(victim)).departed().expect("departs");
        let before = bytes_transferred(&scdn);
        let restored = scdn.apply(&Op::Repair).changes();
        assert_eq!(restored, 1, "block {lost} gets one new host");
        assert_eq!(
            bytes_transferred(&scdn) - before,
            block_len,
            "repair of block {lost} moves one block"
        );
        assert_any_k_decode(&scdn, dataset, &published);
    }
    // Losing a host under full replication costs a whole copy.
    plain
        .apply(&Op::Depart(copies[0]))
        .departed()
        .expect("departs");
    let before = bytes_transferred(&plain);
    let restored = plain.apply(&Op::Repair).changes();
    assert_eq!(restored, 1, "the lost copy gets one new host");
    assert!(
        block_len < bytes_transferred(&plain) - before,
        "coded repair must move less than re-replication"
    );

    // The owner and a block host leave together: a rebuilder reconstructs
    // the content from k surviving blocks and regenerates the lost one.
    let victim = block_hosts(&scdn, dataset)[2];
    for gone in [owner, victim] {
        scdn.apply(&Op::Depart(gone)).departed().expect("departs");
    }
    let restored = scdn.apply(&Op::Repair).changes();
    assert_eq!(restored, 1, "the rebuilder hosts the lost block");
    assert_any_k_decode(&scdn, dataset, &published);
}

/// A block host rewrites its block and stores it under a checksum of the
/// new bytes, so its own read verifies. The requester compares that
/// checksum with the owner's, fails the request and gives back every
/// block it landed.
#[test]
fn forged_block_fails_the_coded_request() {
    use scdn::core::system::ScdnError;
    use scdn::net::transfer::TransferError;

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
    let config = ScdnConfig {
        segment_size: 4096,
        coding: CodingConfig::Rs { k: 4, m: 2 },
        ..Default::default()
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let dataset = scdn
        .apply(&Op::publish(
            NodeId(0),
            "forged",
            Bytes::from(vec![0xA1u8; 10_000]),
        ))
        .published()
        .expect("publishes");
    let placed = scdn
        .apply(&Op::Replicate(dataset))
        .replicated()
        .expect("places every block");
    // The race takes blocks in ascending order, so block 0 always lands.
    let id = CodedBlockId { dataset, index: 0 }.segment_id();
    let forged = Segment::new(id, Bytes::from(vec![0x55u8; 2_500]));
    scdn.repo(block_hosts(&scdn, dataset)[0])
        .expect("member")
        .store(Partition::Replica, forged)
        .expect("same size fits");
    let requester = (1..scdn.member_count() as u32)
        .map(NodeId)
        .find(|n| !placed.contains(n))
        .expect("a member hosting nothing");
    let used = scdn.repo(requester).expect("member").used();

    match scdn.apply(&Op::Request(requester, dataset)).requested() {
        Err(ScdnError::Transfer(TransferError::SourceCorrupt(bad))) => assert_eq!(bad, id),
        other => panic!("a forged block must fail the request, got {other:?}"),
    }
    let repo = scdn.repo(requester).expect("member");
    assert!(
        repo.list(Partition::User).is_empty(),
        "no forged byte and no landed block stays"
    );
    assert_eq!(repo.used(), used);
    let snap = scdn.observability_snapshot();
    assert_eq!(snap.counter("core.transfer.owner_digest_mismatch"), Some(1));
    assert_eq!(snap.counter("core.coded.blocks_landed"), Some(u64::from(K)));
}

/// Four requests folded as one op stream race a coded dataset's blocks:
/// each requester is charged k blocks, ends up with the published bytes
/// as plain segments, and leaves one trace.
#[test]
fn folded_requests_race_a_coded_dataset() {
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
    let config = ScdnConfig {
        segment_size: 4096,
        coding: CodingConfig::Rs { k: 4, m: 2 },
        ..Default::default()
    };
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let published: Vec<u8> = (0..50_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 9) as u8)
        .collect();
    let dataset = scdn
        .apply(&Op::publish(
            NodeId(0),
            "folded",
            Bytes::from(published.clone()),
        ))
        .published()
        .expect("publishes");
    let placed = scdn
        .apply(&Op::Replicate(dataset))
        .replicated()
        .expect("places every block");
    let requesters: Vec<NodeId> = (1..scdn.member_count() as u32)
        .map(NodeId)
        .filter(|n| !placed.contains(n))
        .take(4)
        .collect();
    assert_eq!(requesters.len(), 4);

    for &n in &requesters {
        let outcome = scdn
            .apply(&Op::Request(n, dataset))
            .requested()
            .expect("served");
        assert_eq!(outcome.bytes, u64::from(K) * 12_500, "{n:?}: k blocks");
        let repo = scdn.repo(n).expect("member");
        let mut fetched = Vec::new();
        for id in repo.list(Partition::User) {
            fetched.extend_from_slice(&repo.fetch(Partition::User, id).expect("verifies").data);
        }
        assert_eq!(fetched, published, "{n:?}");
        assert!(repo.list_coded(Partition::User, dataset).is_empty());
    }
    let snap = scdn.observability_snapshot();
    assert_eq!(
        snap.counter("core.coded.blocks_landed"),
        Some(4 * u64::from(K))
    );
    assert_eq!(snap.counter("trace.recorded"), Some(4));
}
