//! Property test: `request_batch` is bit-identical to the serial request
//! loop.
//!
//! Two identically built systems run the same random workload — mixed
//! datasets (public, confidential, trust-gated), periodic churn (offline
//! nodes) or always-on members, a lossy transfer fabric, opportunistic caching (catalog
//! mutations mid-batch), and an optional mid-run departure. Both run one
//! operation stream: through `apply_serial`, which issues every request
//! of a batch through `request` (a batch of one), and through `apply`,
//! which issues each batch as one `request_batch`. Outcomes, metric
//! snapshots, and trace span sequences must match exactly.
//!
//! The only counters excluded from the comparison are the resolve-cache
//! statistics (`alloc.resolve.cache.*` — a re-planned request probes the
//! hop cache more often than a serial one — and `alloc.resolve.bfs.*`,
//! the work its extra misses do), the re-plan counter itself
//! (`core.batch.*`) and the one wall-clock series in the export
//! (`core.maintain.ranking_recompute_ms`; set-up replicates, so it holds
//! a sample), all of which are diagnostics rather than simulation state.

use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;
use scdn_graph::NodeId;
use scdn_middleware::authz::AccessPolicy;
use scdn_net::failure::FailureModel;
use scdn_net::transfer::TransferError;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn_social::SyntheticDblp;
use scdn_storage::object::{DatasetId, Sensitivity};
use scdn_storage::repository::RepoError;
use scdn_trust::threshold::TrustPolicy;

use crate::coded_equivalence::export_without;
use crate::maintain_equivalence::pick;
use crate::ops::Op;
use crate::system::{AvailabilityConfig, Scdn, ScdnConfig, ScdnError};

fn community() -> &'static (SyntheticDblp, TrustSubgraph) {
    static CELL: OnceLock<(SyntheticDblp, TrustSubgraph)> = OnceLock::new();
    CELL.get_or_init(|| {
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
    })
}

/// A freshly built system plus its published datasets. Deterministic:
/// two calls produce bit-identical systems. Under periodic availability
/// every commit that moves the clock re-plans the rest of its batch, so
/// only an always-on build shows whether the catalog-entry trigger alone
/// catches a mid-batch promotion.
fn build_system(periodic: bool) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 4 << 20,
        availability: if periodic {
            AvailabilityConfig::Periodic {
                period_ms: 8_000,
                duty: 0.5,
            }
        } else {
            AvailabilityConfig::AlwaysOn
        },
        failure: FailureModel {
            loss_prob: 0.25,
            corruption_prob: 0.1,
            seed: 11,
            ..FailureModel::default()
        },
        opportunistic_caching: true,
        transfer_concurrency: 2,
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let mut datasets = Vec::new();
    for (i, sensitivity) in [
        Sensitivity::Public,
        Sensitivity::Confidential,
        Sensitivity::Public,
        Sensitivity::Public,
    ]
    .into_iter()
    .enumerate()
    {
        let owner = NodeId(i as u32);
        // Dataset 2 additionally carries a trust gate, making its policy
        // decision time-dependent (trust decays with the clock).
        let policy = (i == 2).then(|| AccessPolicy {
            sensitivity,
            owner: sub.author_of(owner),
            group: None,
            grants: Vec::new(),
            trust: Some(TrustPolicy::default()),
        });
        let id = scdn
            .publish(
                owner,
                &format!("eq-{i}"),
                Bytes::from(vec![i as u8 + 1; 9 << 10]),
                sensitivity,
                policy,
            )
            .expect("publish succeeds");
        let _ = scdn.replicate(id);
        datasets.push(id);
    }
    (scdn, datasets)
}

/// A system on which a commit changes nothing a later plan of the same
/// batch read except the requester's repository: members are always on,
/// nothing is promoted (no catalog republication mid-batch) and no policy
/// is trust-gated. Every re-plan in a batch is therefore the partial,
/// destination-only one, and the 25 KiB repositories make its quota walk
/// decide outcomes. Datasets (14, 15 and 9 KiB) live on their owners
/// (nodes 0, 1, 2) alone.
fn build_quota_system(failure: FailureModel) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 25 << 10,
        failure,
        transfer_concurrency: 2,
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let datasets = [14usize << 10, 15 << 10, 9 << 10]
        .into_iter()
        .enumerate()
        .map(|(i, len)| {
            scdn.publish(
                NodeId(i as u32),
                &format!("quota-{i}"),
                Bytes::from(vec![i as u8 + 1; len]),
                Sensitivity::Public,
                None,
            )
            .expect("publish succeeds")
        })
        .collect();
    (scdn, datasets)
}

type Step = (u16, Vec<(u8, u8)>);

/// The stream of `steps`: `depart_sel`'s departure before the second
/// step, then each step's tick and batch.
fn batch_ops(
    scdn: &Scdn,
    datasets: &[DatasetId],
    steps: &[Step],
    depart_sel: Option<u8>,
) -> Vec<Op> {
    let members = scdn.member_count() as u32;
    let mut ops = Vec::new();
    for (i, (dt, batch)) in steps.iter().enumerate() {
        if let (1, Some(sel)) = (i, depart_sel) {
            ops.push(Op::Depart(NodeId(u32::from(sel) % members)));
        }
        ops.push(Op::Tick(u64::from(*dt)));
        ops.push(Op::Batch(
            batch.iter().map(|&nd| pick(scdn, datasets, nd)).collect(),
        ));
    }
    ops
}

/// Exported snapshot minus the diagnostics that legitimately differ
/// between serial and batched execution.
fn comparable_snapshot(scdn: &Scdn) -> String {
    export_without(
        scdn,
        &[
            "alloc.resolve.cache.",
            "alloc.resolve.bfs.",
            "core.batch.",
            "core.maintain.ranking_recompute_ms",
        ],
    )
}

/// `core.batch.replans` and its split by cause, `[entry, repo_epoch,
/// clock, session]`, after checking that the split sums to the total.
fn replans_by_cause(scdn: &Scdn) -> (u64, [u64; 4]) {
    let snap = scdn.observability_snapshot();
    let count = |name: &str| snap.counter(name).expect("registered at build");
    let causes = ["entry", "repo_epoch", "clock", "session"]
        .map(|cause| count(&format!("core.batch.replan.{cause}")));
    let total = count("core.batch.replans");
    assert_eq!(causes.iter().sum::<u64>(), total, "causes {causes:?}");
    (total, causes)
}

/// Trace structure without wall-clock span durations (which measure host
/// time, not simulation state).
fn trace_shapes(scdn: &Scdn) -> Vec<String> {
    scdn.traces()
        .recent()
        .map(|t| {
            let spans: Vec<String> = t
                .spans
                .iter()
                .map(|s| format!("{:?}/{:?}/{}/{:?}", s.kind, s.status, s.attempt, s.peer))
                .collect();
            format!("{}:{}:[{}]", t.requester, t.dataset, spans.join(","))
        })
        .collect()
}

/// One requester, two datasets, one batch: both plans are computed
/// against the requester's empty repository, where each delivery fits on
/// its own. Once the first commits, the second no longer does — the
/// partial re-plan keeps the second plan's fetched payloads but must
/// re-walk the quota against the live repository and refuse it exactly
/// as the serial loop does.
#[test]
fn second_delivery_refused_after_first_commits() {
    let (mut batched, datasets) = build_quota_system(FailureModel::reliable());
    let (mut serial, _) = build_quota_system(FailureModel::reliable());
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
    assert_eq!(
        replans_by_cause(&batched),
        (1, [0, 1, 0, 0]),
        "the refusal must come from the commit-side re-plan, on the repository epoch"
    );
    assert_eq!(
        batched
            .observability_snapshot()
            .counter("core.batch.snapshot_reuse"),
        Some(1),
        "one catalog snapshot load planned both requests"
    );
    // The refused delivery left nothing behind.
    assert_eq!(batched.repo(requester).expect("member").used(), 14 << 10);

    let serial_out: Vec<_> = reqs.iter().map(|&(n, d)| serial.request(n, d)).collect();
    assert_eq!(format!("{out:?}"), format!("{serial_out:?}"));
    assert_eq!(comparable_snapshot(&serial), comparable_snapshot(&batched));
    assert_eq!(trace_shapes(&serial), trace_shapes(&batched));
}

/// An always-on, reliable system with opportunistic caching and two
/// public 9 KiB datasets, `a` and `b`, that hash to the same catalog
/// shard. Each lives on its owner alone; the datasets published between
/// them (to reach a shared shard) are never requested.
fn build_same_shard_system() -> (Scdn, DatasetId, DatasetId) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        opportunistic_caching: true,
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let mut published = Vec::new();
    for i in 0u32.. {
        let d = scdn
            .publish(
                NodeId(i),
                &format!("shard-{i}"),
                Bytes::from(vec![i as u8 + 1; 9 << 10]),
                Sensitivity::Public,
                None,
            )
            .expect("publish succeeds");
        published.push(d);
        let shard = |d: DatasetId| scdn.allocation().shard_of(d);
        if i > 0 && shard(d) == shard(published[0]) {
            break;
        }
    }
    let b = published.pop().expect("published");
    (scdn, published[0], b)
}

/// A batch of two requests on [`build_same_shard_system`]: the first,
/// for `a`, is served remotely and promoted into its requester's replica
/// partition, so `a`'s entry gets a new version and the shared shard
/// republishes mid-batch. Returns the batch's re-plans by cause after
/// requiring the batch to equal the serial loop.
fn promote_a_then_request(second: fn(DatasetId, DatasetId) -> DatasetId) -> (u64, [u64; 4]) {
    let (mut batched, a, b) = build_same_shard_system();
    let (mut serial, _, _) = build_same_shard_system();
    let last = batched.member_count() as u32 - 1;
    let reqs = [(NodeId(last), a), (NodeId(last - 1), second(a, b))];
    let epochs = batched.allocation().shard_epochs();

    let out = batched.request_batch(&reqs);
    assert!(out.iter().all(Result::is_ok), "{out:?}");
    assert!(
        batched
            .replicas_of(a)
            .expect("published")
            .contains(&NodeId(last)),
        "the first request was promoted"
    );
    let shard = batched.allocation().shard_of(a);
    assert!(
        batched.allocation().shard_epochs()[shard] > epochs[shard],
        "the shard both datasets live in republished"
    );

    let serial_out: Vec<_> = reqs.iter().map(|&(n, d)| serial.request(n, d)).collect();
    assert_eq!(format!("{out:?}"), format!("{serial_out:?}"));
    assert_eq!(serial.now(), batched.now());
    assert_eq!(comparable_snapshot(&serial), comparable_snapshot(&batched));
    assert_eq!(trace_shapes(&serial), trace_shapes(&batched));
    replans_by_cause(&batched)
}

/// Staleness is judged per catalog entry, not per shard: promoting `a`
/// mid-batch leaves a plan that only read `b` fresh, even though both
/// entries live in the shard that republished.
#[test]
fn promotion_of_one_dataset_leaves_a_same_shard_plan_fresh() {
    assert_eq!(promote_a_then_request(|_, b| b), (0, [0; 4]));
}

/// The twin: a second plan for `a` itself read the entry the promotion
/// changed, and re-plans.
#[test]
fn promotion_of_a_dataset_replans_a_second_request_for_it() {
    assert_eq!(promote_a_then_request(|a, _| a), (1, [1, 0, 0, 0]));
}

/// Always-reliable fabric under periodic churn (duty 0.6), one public
/// 9 KiB dataset published by node 0 and replicated.
fn build_churn_system() -> (Scdn, DatasetId) {
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

/// A replica's on → off boundary falls *inside* a batch: both requests
/// are planned one millisecond before replica `r` goes dark, the first
/// commit's transfer carries the clock across the boundary, and the
/// second request — which resolved to `r` at the batch-entry clock — must
/// be re-planned against liveness at the *live* clock, exactly as the
/// serial loop sees it.
#[test]
fn replica_going_dark_mid_batch_is_replanned_at_the_live_clock() {
    // Search a probe system for (r, requester) such that `requester`
    // resolves to non-owner replica `r` one tick before `r` goes dark.
    let found = {
        let (probe, dataset) = build_churn_system();
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
                let (mut at_boundary, _) = build_churn_system();
                at_boundary.tick(last_on);
                let requester = (0..members)
                    .map(NodeId)
                    .find(|&m| m != r && at_boundary.resolve_replica(m, dataset).ok() == Some(r))?;
                Some((r, last_on, requester))
            })
    };
    let (r, last_on, second) = found.expect("some replica has a requester resolving to it");

    let (mut batched, dataset) = build_churn_system();
    let (mut serial, _) = build_churn_system();
    let first = (0..batched.member_count() as u32)
        .map(NodeId)
        .find(|&m| m != second && m != r && m != NodeId(0))
        .expect("a third member");
    batched.tick(last_on);
    serial.tick(last_on);
    let planned_clock = batched.now();
    assert!(batched.is_online_at(r, planned_clock));
    let reqs = [(first, dataset), (second, dataset)];

    let out = batched.request_batch(&reqs);
    out[0].as_ref().expect("served while r is still up");
    assert!(
        batched.now() > planned_clock,
        "the first commit moved the clock"
    );
    assert!(
        !batched.is_online(r),
        "the boundary fell inside the batch: r is dark at the live clock"
    );
    if let Ok(o) = &out[1] {
        assert_ne!(
            o.served_by, r,
            "planned-clock liveness leaked into the re-plan"
        );
    }
    let (_, [_, _, clock, _]) = replans_by_cause(&batched);
    assert!(clock > 0, "the clock moved under periodic availability");

    let serial_out: Vec<_> = reqs.iter().map(|&(n, d)| serial.request(n, d)).collect();
    assert_eq!(format!("{out:?}"), format!("{serial_out:?}"));
    assert_eq!(serial.now(), batched.now());
    assert_eq!(comparable_snapshot(&serial), comparable_snapshot(&batched));
    assert_eq!(trace_shapes(&serial), trace_shapes(&batched));
}

/// One answer to "is this member online?": a departed member that
/// re-enters the catalog (here behind the runtime's back; its own
/// opportunistic promotion does the same) is selectable by neither
/// `resolve_replica` nor `request`, and an id outside the membership is
/// offline rather than a panic.
#[test]
fn departed_member_back_in_the_catalog_is_never_selected() {
    let (mut scdn, datasets) = build_quota_system(FailureModel::reliable());
    let id = datasets[2];
    let victim = scdn.replicate(id).expect("replicates")[0];
    // A neighbour of the victim resolves to it while it is alive.
    let requester = scdn
        .social
        .neighbors(victim)
        .iter()
        .map(|e| e.to)
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

proptest! {
    /// The partial re-plan under quota pressure and a lossy fabric: six
    /// requesters (three of them the owners, whose repositories are
    /// already more than half full) repeat within batches, so plans go
    /// stale on the requester's repository epoch alone and their re-walks
    /// end in deliveries, quota refusals, exhausted retries and
    /// size-neutral overwrites.
    #[test]
    fn batched_requests_match_serial_loop_on_destination_replans(
        ops in proptest::collection::vec(
            (0u16..500, proptest::collection::vec((0u8..6, any::<u8>()), 1..8)),
            1..5,
        ),
    ) {
        let failure = FailureModel {
            loss_prob: 0.3,
            corruption_prob: 0.1,
            seed: 5,
            ..FailureModel::default()
        };
        let (mut serial, datasets) = build_quota_system(failure);
        let (mut batched, _) = build_quota_system(failure);

        let stream = batch_ops(&serial, &datasets, &ops, None);
        prop_assert_eq!(
            serial.apply_each(&stream, true),
            batched.apply_each(&stream, false),
            "outcome sequences diverge"
        );
        prop_assert_eq!(serial.now(), batched.now(), "clocks diverge");
        prop_assert_eq!(
            comparable_snapshot(&serial),
            comparable_snapshot(&batched),
            "metric snapshots diverge"
        );
        prop_assert_eq!(
            trace_shapes(&serial),
            trace_shapes(&batched),
            "trace span sequences diverge"
        );
        prop_assert_eq!(
            batched
                .observability_snapshot()
                .counter("core.transfer.owner_digest_mismatch"),
            Some(0),
            "an honest copy was refused"
        );
        replans_by_cause(&batched);
    }

    #[test]
    fn batched_requests_match_serial_loop(
        ops in proptest::collection::vec(
            (0u16..5_000, proptest::collection::vec((any::<u8>(), any::<u8>()), 1..6)),
            1..6,
        ),
        depart in (any::<bool>(), any::<u8>()),
        periodic in any::<bool>(),
    ) {
        let depart_sel = depart.0.then_some(depart.1);
        let (mut serial, datasets) = build_system(periodic);
        let (mut batched, datasets_b) = build_system(periodic);
        prop_assert_eq!(&datasets, &datasets_b, "builds are deterministic");

        let stream = batch_ops(&serial, &datasets, &ops, depart_sel);
        prop_assert_eq!(
            serial.apply_each(&stream, true),
            batched.apply_each(&stream, false),
            "outcome sequences diverge"
        );
        prop_assert_eq!(serial.now(), batched.now(), "clocks diverge");
        prop_assert_eq!(
            comparable_snapshot(&serial),
            comparable_snapshot(&batched),
            "metric snapshots diverge"
        );
        prop_assert_eq!(
            trace_shapes(&serial),
            trace_shapes(&batched),
            "trace span sequences diverge"
        );
        prop_assert_eq!(
            batched
                .observability_snapshot()
                .counter("core.transfer.owner_digest_mismatch"),
            Some(0),
            "an honest copy was refused"
        );
        replans_by_cause(&batched);
    }
}
