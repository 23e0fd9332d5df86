//! Property test: the pipelined `maintain` / `repair` cycles are
//! bit-identical to their serial oracles (`maintain_serial` /
//! `repair_serial`).
//!
//! Two identically built systems run the same random schedule — demand
//! bursts (requests that feed the replication policy's windows),
//! periodic churn (offline hosts) or always-on members, roomy or small
//! repositories, a lossy transfer fabric, and optional mid-run
//! departures — then interleave maintenance and repair cycles. One
//! system runs the stream through `apply_serial` (the serial loops), the
//! other through `apply` (the plan/commit pipeline). Every outcome
//! (per-cycle change counts included), replica sets, catalog-entry
//! versions, clocks, and full metric snapshots (hosting-request and
//! exchange records included) must match exactly.
//!
//! The only counters excluded from the comparison are diagnostics that
//! legitimately differ between the two execution strategies: the
//! resolve-cache statistics (`alloc.resolve.cache.*` and the per-miss
//! search work `alloc.resolve.bfs.*`), the request-batch
//! counters (`core.batch.*`), and the maintenance-pipeline counters
//! themselves (`core.maintain.*` — the serial oracles never plan).

use bytes::Bytes;
use proptest::prelude::*;
use scdn_alloc::replication::AdaptiveRebalance;
use scdn_graph::NodeId;
use scdn_net::failure::FailureModel;
use scdn_storage::object::{DatasetId, Segment, SegmentId, Sensitivity};
use scdn_storage::repository::Partition;

use crate::coded_equivalence::{catalog_state, community, comparable_snapshot, maintain_counter};
use crate::ops::Op;
use crate::system::{AvailabilityConfig, RebalanceStrategy, Scdn, ScdnConfig};

/// Room for every copy the schedules make.
const ROOMY: u64 = 4 << 20;

/// A freshly built system plus its published datasets. Deterministic:
/// two calls produce bit-identical systems. `rebalance` selects the
/// maintenance policy: the equivalence holds for any `RebalancePolicy`
/// impl, so the proptest sweeps both. Under periodic availability every
/// grow commit that moves the clock re-plans the rest of its cycle, and
/// with [`ROOMY`] repositories no store can overflow, so only an
/// always-on build with a small `capacity` shows whether the
/// repository-epoch trigger alone catches an earlier item's store.
fn build_system(
    rebalance: RebalanceStrategy,
    periodic: bool,
    capacity: u64,
) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: capacity,
        replicas_per_dataset: 2,
        rebalance,
        availability: if periodic {
            AvailabilityConfig::Periodic {
                period_ms: 8_000,
                duty: 0.5,
            }
        } else {
            AvailabilityConfig::AlwaysOn
        },
        failure: FailureModel {
            loss_prob: 0.2,
            corruption_prob: 0.1,
            seed: 23,
            ..FailureModel::default()
        },
        opportunistic_caching: true,
        transfer_concurrency: 2,
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let mut datasets = Vec::new();
    for i in 0..4u32 {
        let id = scdn
            .publish(
                NodeId(i),
                &format!("maint-{i}"),
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

/// One schedule step: advance the clock, issue a demand burst, maybe
/// depart a member, then run a maintenance (`false`) or repair (`true`)
/// cycle.
pub(crate) type Step = (u16, Vec<(u8, u8)>, bool, (bool, u8));

/// Requester `n` and dataset `d` of a selector pair, taken modulo the
/// membership and the datasets.
pub(crate) fn pick(scdn: &Scdn, datasets: &[DatasetId], (n, d): (u8, u8)) -> (NodeId, DatasetId) {
    (
        NodeId(u32::from(n) % scdn.member_count() as u32),
        datasets[usize::from(d) % datasets.len()],
    )
}

/// The stream of `steps`. A burst is single requests, which feed the
/// replication policy's windows on both sides alike.
pub(crate) fn cycle_ops(scdn: &Scdn, datasets: &[DatasetId], steps: &[Step]) -> Vec<Op> {
    let mut ops = Vec::new();
    for (dt, burst, repair, depart) in steps {
        ops.push(Op::Tick(u64::from(*dt)));
        ops.extend(burst.iter().map(|&nd| {
            let (n, d) = pick(scdn, datasets, nd);
            Op::Request(n, d)
        }));
        if depart.0 {
            let members = scdn.member_count() as u32;
            ops.push(Op::Depart(NodeId(u32::from(depart.1) % members)));
        }
        ops.push(if *repair { Op::Repair } else { Op::Maintain });
    }
    ops
}

proptest! {
    #[test]
    fn pipelined_maintenance_matches_serial_loop(
        ops in proptest::collection::vec(
            (
                0u16..6_000,
                proptest::collection::vec((any::<u8>(), any::<u8>()), 0..7),
                any::<bool>(),
                (any::<bool>(), any::<u8>()),
            ),
            1..5,
        ),
        adaptive in any::<bool>(),
        periodic in any::<bool>(),
        tight in any::<bool>(),
    ) {
        let rebalance = if adaptive {
            // A tight budget (datasets × replicas_per_dataset) so the
            // adaptive policy actually reclaims replicas from cold
            // datasets mid-schedule.
            RebalanceStrategy::Adaptive(AdaptiveRebalance::with_budget(8))
        } else {
            RebalanceStrategy::Static
        };
        let capacity = if tight { 16 << 10 } else { ROOMY };
        let (mut serial, datasets) = build_system(rebalance, periodic, capacity);
        let (mut piped, datasets_b) = build_system(rebalance, periodic, capacity);
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
            "replica sets / catalog versions diverge"
        );
        prop_assert_eq!(
            comparable_snapshot(&serial),
            comparable_snapshot(&piped),
            "metric snapshots diverge"
        );
    }
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

/// Every item of a repair cycle walks the same placement ranking, so a
/// grow after the cycle's first commit goes stale when an earlier item
/// stored into a candidate it planned for (that repository's epoch
/// moved). Each such grow re-plans at the live clock with the owner's
/// segments its first plan read, and the cycle still lands exactly what
/// the serial loop lands: changes, replicas, clock, the bytes in every
/// repository, and the metric snapshot. (Repository epochs are a
/// pipeline-only staleness token the serial loop never advances, so the
/// test compares what they guard: the contents.) A cycle commits one
/// item per dataset, so no plan ever sees its own entry move.
#[test]
fn stale_grow_keeps_its_payload_and_matches_serial() {
    let (mut serial, datasets) = build_system(RebalanceStrategy::Static, true, ROOMY);
    let (mut piped, _) = build_system(RebalanceStrategy::Static, true, ROOMY);
    // Rounds land the cycle at different points of the availability
    // period, so some re-plans see a candidate's liveness flip.
    for dt in [1_300u64, 2_900, 3_950, 5_000, 7_700] {
        for (scdn, serial_loop) in [(&mut serial, true), (&mut piped, false)] {
            scdn.tick(dt);
            depart_a_replica_of_each(scdn, &datasets);
            let changes = if serial_loop {
                scdn.repair_serial()
            } else {
                scdn.repair()
            };
            assert!(changes > 0, "departures left something to repair");
        }
        assert_eq!(serial.now(), piped.now(), "clocks diverge");
        assert_eq!(
            catalog_state(&serial, &datasets),
            catalog_state(&piped, &datasets)
        );
        assert_eq!(replica_contents(&serial), replica_contents(&piped));
        assert_eq!(comparable_snapshot(&serial), comparable_snapshot(&piped));
    }
    assert!(maintain_counter(&piped, "replans_kept_payload") > 0);
    assert_eq!(
        maintain_counter(&piped, "replanned"),
        ["entry", "repo_epoch", "clock"]
            .map(|cause| maintain_counter(&piped, &format!("replan.{cause}")))
            .iter()
            .sum::<u64>(),
        "every re-plan has exactly one cause"
    );
    assert_eq!(
        maintain_counter(&piped, "replan.entry"),
        0,
        "no commit in a cycle changes another item's entry"
    );
}

/// The owner's copy of two datasets is corrupted at rest before the
/// cycle. Neither the fresh commit (the cycle's first item) nor a stale
/// one (a later item whose candidate an earlier item stored into) may
/// store a byte that did not pass the owner-side read check: every
/// replica copy in the system still verifies and holds its own dataset's
/// bytes.
#[test]
fn corrupt_owner_copy_is_never_replicated_fresh_or_stale() {
    let (mut scdn, datasets) = build_system(RebalanceStrategy::Static, true, ROOMY);
    let corrupted = [0usize, 2];
    for &i in &corrupted {
        let repo = scdn.repo(NodeId(i as u32)).expect("owner").clone();
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
    assert!(
        maintain_counter(&scdn, "committed") > 0,
        "a fresh commit ran"
    );
    assert!(
        maintain_counter(&scdn, "replanned") > 0,
        "a stale commit ran"
    );
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

/// Regression for the under-provisioned candidate walk: the old
/// `replicate` truncated the placement ranking at `want + current + 4`
/// candidates, so when churn left most top-ranked hosts offline a
/// dataset silently stayed under target even though plenty of online
/// hosts sat deeper in the ranking. The walk now extends until the
/// target is met or candidates are exhausted.
#[test]
fn replication_walks_past_offline_ranking_prefix() {
    let (c, sub) = community();
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
    let (mut scdn, datasets) = build_system(RebalanceStrategy::Static, true, ROOMY);
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
    // Knock a replica out and repair: the cycle ranks again — from cache.
    let victim = scdn.replicas_of(datasets[0]).expect("dataset exists")[0];
    let _ = scdn.depart(victim);
    scdn.tick(500);
    let before = hits(&scdn);
    let repaired = scdn.repair();
    assert!(repaired > 0, "departure left something to repair");
    assert!(hits(&scdn) > before, "repair cycle reuses the ranking");
    assert_eq!(misses(&scdn), 1, "graph unchanged, nothing recomputed");
}
