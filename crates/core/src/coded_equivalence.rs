//! Equivalence properties of the erasure-coded storage scheme.
//!
//! Six contracts:
//!
//! 1. With [`CodingConfig::None`] (the default) the coded entry points
//!    are pure pass-throughs: `request_coded` falls back to `request`
//!    bit-identically, and repair/maintenance behave exactly as before
//!    the coding layer existed.
//! 2. With [`CodingConfig::Rs`] the pipelined `repair` / `maintain`
//!    cycles are bit-identical to the serial oracles — the coded analogue
//!    of the `maintain_equivalence` property.
//! 3. Coded repair after host departure restores full block inventory
//!    while transferring *only* the missing blocks — never a block a
//!    surviving peer already holds, and strictly less than a whole-replica
//!    copy.
//! 4. The plain segments a coded request leaves at the requester are
//!    field-identical to the published ones, whichever blocks it raced and
//!    however the segment size sits against the block length.
//! 5. A block regenerated after the first encode — by an owner-online
//!    repair, a maintenance `CodedGrow` or an owner-offline rebuild — is
//!    field-identical to the first encode's block of that index. With 4,
//!    this is what makes storing a rebuilt segment or block under the
//!    owner's recorded digest, instead of digesting it again, sound: the
//!    recorded digest is the digest of the right bytes.
//! 6. A batch that mixes coded and whole-replica requests is the serial
//!    loop of `request`: a coded plan goes stale under the same rule as a
//!    resolution, and its commit races the blocks exactly as a single
//!    request does.

use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;
use scdn_alloc::replication::{CycleStats, DatasetStats, RebalancePolicy};
use scdn_graph::NodeId;
use scdn_net::failure::FailureModel;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn_social::SyntheticDblp;
use scdn_storage::coding::{encode_blocks, CodingConfig};
use scdn_storage::object::{Dataset, DatasetId, Segment, SegmentId, Sensitivity};
use scdn_storage::repository::Partition;

use crate::maintain_equivalence::{cycle_ops, pick};
use crate::ops::Op;
use crate::system::{AvailabilityConfig, Scdn, ScdnConfig};

pub(crate) fn community() -> &'static (SyntheticDblp, TrustSubgraph) {
    static CELL: OnceLock<(SyntheticDblp, TrustSubgraph)> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut params = CaseStudyParams::default();
        params.level2_prob = 0.35;
        params.level3_prob = 0.0;
        params.mega_pub_authors = 0;
        params.rng_seed = 91;
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
    })
}

/// Deterministic build: two calls with the same arguments produce
/// bit-identical systems.
fn build_system(coding: CodingConfig) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 4 << 20,
        replicas_per_dataset: 2,
        availability: AvailabilityConfig::Periodic {
            period_ms: 8_000,
            duty: 0.5,
        },
        failure: FailureModel {
            loss_prob: 0.15,
            corruption_prob: 0.05,
            seed: 23,
            ..FailureModel::default()
        },
        opportunistic_caching: false,
        transfer_concurrency: 2,
        coding,
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let mut datasets = Vec::new();
    for i in 0..4u32 {
        let id = scdn
            .publish(
                NodeId(i),
                &format!("coded-{i}"),
                Bytes::from(vec![i as u8 + 1; 7 << 10]),
                Sensitivity::Public,
                None,
            )
            .expect("publish succeeds");
        let _ = scdn.replicate(id);
        datasets.push(id);
    }
    (scdn, datasets)
}

/// Exported snapshot minus the diagnostics that legitimately differ
/// between serial and pipelined execution (see `maintain_equivalence`).
pub(crate) fn comparable_snapshot(scdn: &Scdn) -> String {
    export_without(
        scdn,
        &[
            "alloc.resolve.cache.",
            "alloc.resolve.bfs.",
            "core.batch.",
            "core.maintain.",
        ],
    )
}

/// The JSON export minus every line naming one of `dropped`.
pub(crate) fn export_without(scdn: &Scdn, dropped: &[&str]) -> String {
    scdn_obs::to_json(&scdn.observability_snapshot())
        .lines()
        .filter(|l| !dropped.iter().any(|d| l.contains(d)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Hand-offs refused for not carrying the owner's digest.
fn owner_digest_mismatches(scdn: &Scdn) -> u64 {
    scdn.observability_snapshot()
        .counter("core.transfer.owner_digest_mismatch")
        .expect("registered at build")
}

/// Catalog state per dataset: replica set, version token, and the full
/// per-host coded-block inventory.
#[allow(clippy::type_complexity)]
pub(crate) fn catalog_state(
    scdn: &Scdn,
    datasets: &[DatasetId],
) -> Vec<(Vec<NodeId>, Option<u64>, Vec<(NodeId, Vec<u32>)>)> {
    datasets
        .iter()
        .map(|&d| {
            (
                scdn.replicas_of(d).unwrap_or_default(),
                scdn.allocation().catalog_version(d),
                scdn.allocation()
                    .coded_inventory(d)
                    .unwrap_or_default()
                    .into_iter()
                    .map(|(n, b)| (n, b.to_vec()))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    /// Contract 2: pipelined coded repair/maintenance == serial oracle,
    /// including the stale replay path (items that walk the same ranking
    /// collide on candidate repositories).
    #[test]
    fn pipelined_coded_repair_matches_serial(
        ops in proptest::collection::vec(
            (
                0u16..6_000,
                proptest::collection::vec((any::<u8>(), any::<u8>()), 0..5),
                any::<bool>(),
                (any::<bool>(), any::<u8>()),
            ),
            1..5,
        ),
    ) {
        let coding = CodingConfig::Rs { k: 3, m: 2 };
        let (mut serial, datasets) = build_system(coding);
        let (mut piped, datasets_b) = build_system(coding);
        prop_assert_eq!(&datasets, &datasets_b, "builds are deterministic");

        let stream = cycle_ops(&serial, &datasets, &ops);
        prop_assert_eq!(
            serial.apply_each(&stream, true),
            piped.apply_each(&stream, false),
            "outcomes (per-cycle change counts included) diverge"
        );
        prop_assert_eq!(serial.now(), piped.now(), "clocks diverge");
        prop_assert_eq!(
            catalog_state(&serial, &datasets),
            catalog_state(&piped, &datasets),
            "replica sets / versions / coded inventories diverge"
        );
        prop_assert_eq!(
            comparable_snapshot(&serial),
            comparable_snapshot(&piped),
            "metric snapshots diverge"
        );
        prop_assert_eq!(owner_digest_mismatches(&piped), 0, "an honest copy was refused");
    }

    /// Contract 1: with `CodingConfig::None`, `request_coded` is a
    /// bit-identical alias of `request` — same outcomes, same clock, same
    /// catalog, same full metric export.
    #[test]
    fn request_coded_is_identity_when_uncoded(
        reqs in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..12),
    ) {
        let (mut plain, datasets) = build_system(CodingConfig::None);
        let (mut coded, _) = build_system(CodingConfig::None);
        let members = plain.member_count() as u32;
        for &(n, d) in &reqs {
            let node = NodeId(u32::from(n) % members);
            let dataset = datasets[usize::from(d) % datasets.len()];
            let a = plain.request(node, dataset);
            let b = coded.request_coded(node, dataset);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(x.served_by, y.served_by);
                    prop_assert_eq!(x.social_hit, y.social_hit);
                    prop_assert_eq!(x.bytes, y.bytes);
                    prop_assert!((x.response_ms - y.response_ms).abs() < 1e-9);
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "outcomes diverge: {a:?} vs {b:?}"),
            }
        }
        prop_assert_eq!(plain.now(), coded.now(), "clocks diverge");
        prop_assert_eq!(
            catalog_state(&plain, &datasets),
            catalog_state(&coded, &datasets),
            "catalog diverges"
        );
        // Everything but the one host-time series in the export.
        let wall_clock = ["core.maintain.ranking_recompute_ms"];
        prop_assert_eq!(
            export_without(&plain, &wall_clock),
            export_without(&coded, &wall_clock),
            "full metric snapshots diverge"
        );
    }
}

/// Contract 3: after a block host departs, repair ships exactly the
/// missing blocks — `missing × (S/k)` bytes, never a surviving peer's
/// block, far below the whole-replica copy a plain repair would move.
#[test]
fn coded_repair_transfers_only_missing_blocks() {
    let (c, sub) = community();
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
    let (c, sub) = community();
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
    let outcome = scdn.request_coded(requester, dataset).expect("served");
    // k blocks of ceil(S/k) bytes — less than the full S the plain path
    // would move only when padding is zero; never more than S + k.
    let k = 3u64;
    let block = (payload.len() as u64).div_ceil(k);
    assert_eq!(outcome.bytes, k * block, "exactly k blocks on the wire");
    // The reassembled plain segments hold the original bytes.
    let repo = scdn.repo(requester).expect("known node").clone();
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

/// An always-on, loss-free RS(3,2) system with one 9 000 B dataset per
/// owner, every block placed. Both datasets' blocks sit on the same five
/// hosts, the top of one placement ranking, so their repairs walk the
/// same candidates.
fn two_dataset_system(owners: [NodeId; 2]) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 4 << 20,
        availability: AvailabilityConfig::AlwaysOn,
        failure: FailureModel::default(),
        coding: CodingConfig::Rs { k: 3, m: 2 },
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let datasets = owners
        .iter()
        .enumerate()
        .map(|(i, &owner)| {
            let id = scdn
                .publish(
                    owner,
                    &format!("coded-{i}"),
                    Bytes::from(vec![i as u8 + 1; 9_000]),
                    Sensitivity::Public,
                    None,
                )
                .expect("publish succeeds");
            scdn.replicate(id).expect("places every block");
            id
        })
        .collect();
    (scdn, datasets)
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

pub(crate) fn maintain_counter(scdn: &Scdn, name: &str) -> u64 {
    scdn.observability_snapshot()
        .counter(&format!("core.maintain.{name}"))
        .unwrap_or(0)
}

/// Depart `victims`, repair serially on one system and through the
/// pipeline on its twin, require contract 2, and hand back the pipelined
/// system's `(replanned, coded_replans_kept_blocks)`.
fn repair_both_ways(owners: [NodeId; 2], victims: &[NodeId]) -> (u64, u64) {
    let (mut serial, datasets) = two_dataset_system(owners);
    let (mut piped, _) = two_dataset_system(owners);
    for scdn in [&mut serial, &mut piped] {
        for &victim in victims {
            scdn.depart(victim).expect("departs");
        }
    }
    assert_eq!(serial.repair_serial(), piped.repair());
    assert_eq!(serial.now(), piped.now(), "clocks diverge");
    assert_eq!(
        catalog_state(&serial, &datasets),
        catalog_state(&piped, &datasets),
        "replica sets / versions / coded inventories diverge"
    );
    assert_eq!(
        comparable_snapshot(&serial),
        comparable_snapshot(&piped),
        "metric snapshots diverge"
    );
    for &d in &datasets {
        let mut blocks: Vec<u32> = piped
            .allocation()
            .coded_inventory(d)
            .expect("coded")
            .iter()
            .flat_map(|(_, b)| b.iter().copied())
            .collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 1, 2, 3, 4], "inventory restored");
    }
    (
        maintain_counter(&piped, "replanned"),
        maintain_counter(&piped, "coded_replans_kept_blocks"),
    )
}

/// Contract 2 on the two branches a stale coded plan can take. Both
/// datasets lose the blocks their shared hosts held, and both repairs
/// walk the same ranking: the first one's commit stores into a candidate
/// the second one planned for, so the second plan goes stale on that
/// repository's epoch.
#[test]
fn stale_coded_plan_keeps_its_blocks_or_replays() {
    let owners = [NodeId(0), NodeId(0)];
    let (probe, datasets) = two_dataset_system(owners);
    let victims = [0, 1].map(|b| host_of(&probe, datasets[0], b));
    for (b, &victim) in victims.iter().enumerate() {
        assert_eq!(
            victim,
            host_of(&probe, datasets[1], b as u32),
            "a shared host"
        );
    }

    // Same block still missing, owner untouched: the stale plan ships the
    // blocks it had already regenerated.
    let (replanned, kept) = repair_both_ways(owners, &victims[..1]);
    assert_eq!((replanned, kept), (1, 1), "kept-blocks branch");

    // Two blocks lost: the first dataset's repair lands one on the second
    // dataset's owner and one on that dataset's first candidate. The plan
    // is stale, and the owner's epoch moved between plan and commit: the
    // staged blocks are dropped and the item replays from live state.
    let (mut dry, _) = two_dataset_system(owners);
    for &victim in &victims {
        dry.depart(victim).expect("departs");
    }
    dry.repair_serial();
    let new_host = host_of(&dry, datasets[0], 0);
    let (replanned, kept) = repair_both_ways([NodeId(0), new_host], &victims);
    assert_eq!((replanned, kept), (1, 0), "fallback branch");
}

/// Contract 4: whichever blocks the race lands — all data, one parity
/// block, every parity block — and whether the segment size divides the
/// block length, exceeds it, or straddles block boundaries, the requester
/// ends up with exactly the segments `publish` cut.
#[test]
fn request_coded_segments_are_field_identical_to_published() {
    let (c, sub) = community();
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
            scdn.request_coded(requester, dataset).expect("served");

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

/// A policy that wants one more replica of every dataset, so a
/// maintenance cycle plans a grow (for a coded dataset, a `CodedGrow`)
/// without any demand.
struct AlwaysGrow;

impl RebalancePolicy for AlwaysGrow {
    fn target(&self, dataset: &DatasetStats, _cycle: &CycleStats) -> usize {
        dataset.current + 1
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

proptest! {
    /// Contracts 4 and 5 over random codes, lengths (divisible by neither
    /// k nor the segment size, empty included) and departures that force
    /// parity reconstruction: every segment a coded request stores
    /// verifies and equals the published one field for field, and every
    /// block regenerated later — owner-online repair, maintenance
    /// `CodedGrow`, owner-offline rebuild — equals the first encode's.
    #[test]
    fn coded_rebuilds_carry_the_owners_digests(
        (k, m) in (1u8..=5, 1u8..=3),
        len in 0usize..24_000,
        segment_size in 256usize..6_000,
        data_hosts_lost in 0u8..=3,
    ) {
        let (c, sub) = community();
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
        scdn.request_coded(requester, dataset).expect("served");
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

        // Maintenance grows the coded dataset back through `CodedGrow`.
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

/// Two RS(3,2)-coded and two whole-replica 7 KiB datasets on one lossy
/// system, each placed by one `replicate`.
fn mixed_system(availability: AvailabilityConfig) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 4 << 20,
        replicas_per_dataset: 2,
        availability,
        failure: FailureModel {
            loss_prob: 0.15,
            corruption_prob: 0.05,
            seed: 23,
            ..FailureModel::default()
        },
        transfer_concurrency: 2,
        coding: CodingConfig::Rs { k: 3, m: 2 },
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let mut datasets = Vec::new();
    for i in 0..4u32 {
        if i == 2 {
            scdn.set_publish_coding(CodingConfig::None);
        }
        let id = scdn
            .publish(
                NodeId(i),
                &format!("mixed-{i}"),
                Bytes::from(vec![i as u8 + 1; 7 << 10]),
                Sensitivity::Public,
                None,
            )
            .expect("publish succeeds");
        let _ = scdn.replicate(id);
        datasets.push(id);
    }
    (scdn, datasets)
}

/// One step: clock advance, a batch of `(requester, dataset)` selectors,
/// an optional departure and an optional repair.
type BatchOp = (u16, Vec<(u8, u8)>, (bool, u8), bool);

/// The stream of `steps`.
fn batch_ops(scdn: &Scdn, datasets: &[DatasetId], steps: &[BatchOp]) -> Vec<Op> {
    let mut ops = Vec::new();
    for (dt, batch, depart, repair) in steps {
        ops.push(Op::Tick(u64::from(*dt)));
        ops.push(Op::Batch(
            batch.iter().map(|&nd| pick(scdn, datasets, nd)).collect(),
        ));
        if depart.0 {
            let members = scdn.member_count() as u32;
            ops.push(Op::Depart(NodeId(u32::from(depart.1) % members)));
        }
        if *repair {
            ops.push(Op::Repair);
        }
    }
    ops
}

/// Serial-vs-batched comparison of two systems driven through the same ops.
fn assert_batched_is_serial(serial: &Scdn, batched: &Scdn, datasets: &[DatasetId]) {
    assert_eq!(serial.now(), batched.now(), "clocks diverge");
    assert_eq!(
        catalog_state(serial, datasets),
        catalog_state(batched, datasets),
        "replica sets / versions / coded inventories diverge"
    );
    assert_eq!(
        comparable_snapshot(serial),
        comparable_snapshot(batched),
        "metric snapshots diverge"
    );
}

proptest! {
    /// Contract 6 over random mixed batches, departures and repairs, and
    /// under periodic availability, where a commit that moves the clock
    /// re-plans the rest of its batch.
    #[test]
    fn batched_coded_requests_match_serial_loop(
        ops in proptest::collection::vec(
            (
                0u16..6_000,
                proptest::collection::vec((0u8..12, any::<u8>()), 1..6),
                (any::<bool>(), any::<u8>()),
                any::<bool>(),
            ),
            1..5,
        ),
        periodic in any::<bool>(),
    ) {
        let availability = if periodic {
            AvailabilityConfig::Periodic { period_ms: 8_000, duty: 0.8 }
        } else {
            AvailabilityConfig::AlwaysOn
        };
        let (mut serial, datasets) = mixed_system(availability);
        let (mut batched, _) = mixed_system(availability);
        let stream = batch_ops(&serial, &datasets, &ops);
        prop_assert_eq!(
            serial.apply_each(&stream, true),
            batched.apply_each(&stream, false),
            "outcomes diverge"
        );
        assert_batched_is_serial(&serial, &batched, &datasets);
    }
}

/// Contract 6, directed: two requesters of one coded dataset share a
/// batch under periodic availability. The first race moves the clock, so
/// the second plan re-plans at commit — once — and races in turn.
#[test]
fn coded_commit_that_moves_the_clock_replans_the_next() {
    let always_up = AvailabilityConfig::Periodic {
        period_ms: 8_000,
        duty: 1.0,
    };
    let (mut batched, datasets) = mixed_system(always_up);
    let (mut serial, _) = mixed_system(always_up);
    let coded = datasets[0];
    let hosts = batched.allocation().coded_inventory(coded).expect("coded");
    let mut requesters = (1..batched.member_count() as u32)
        .map(NodeId)
        .filter(|n| hosts.iter().all(|(h, _)| h != n));
    let reqs = [
        (requesters.next().expect("a non-host"), coded),
        (requesters.next().expect("another"), coded),
    ];

    let before = batched.now();
    let out = batched.request_batch(&reqs);
    assert!(out.iter().all(Result::is_ok), "{out:?}");
    assert!(batched.now() > before, "the first race moved the clock");
    let snap = batched.observability_snapshot();
    assert_eq!(snap.counter("core.batch.replans"), Some(1));
    assert_eq!(snap.counter("core.batch.replan.clock"), Some(1));
    assert_eq!(snap.counter("core.coded.blocks_landed"), Some(6));

    let serial_out: Vec<_> = reqs.iter().map(|&(n, d)| serial.request(n, d)).collect();
    assert_eq!(format!("{out:?}"), format!("{serial_out:?}"));
    assert_batched_is_serial(&serial, &batched, &datasets);
}
