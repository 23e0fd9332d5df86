//! Deterministic systems the golden streams (`golden`) and the runtime's
//! behaviour tests (`system_tests`) build on, plus the views they compare.
//! Every builder is deterministic: two calls with the same arguments
//! produce bit-identical systems.

use std::sync::OnceLock;

use bytes::Bytes;
use scdn_graph::NodeId;
use scdn_middleware::authz::AccessPolicy;
use scdn_net::failure::FailureModel;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn_social::SyntheticDblp;
use scdn_storage::coding::CodingConfig;
use scdn_storage::object::{DatasetId, Sensitivity};
use scdn_trust::threshold::TrustPolicy;

use crate::system::{AvailabilityConfig, DecisionState, RebalanceStrategy, Scdn, ScdnConfig};

/// Room for every copy the maintenance schedules make.
pub(crate) const ROOMY: u64 = 4 << 20;

fn trust_subgraph(level2_prob: f64, rng_seed: u64) -> (SyntheticDblp, TrustSubgraph) {
    let mut params = CaseStudyParams::default();
    params.level2_prob = level2_prob;
    params.level3_prob = 0.0;
    params.mega_pub_authors = 0;
    params.rng_seed = rng_seed;
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

/// The request fixtures' community (generator seed 77).
pub(crate) fn community() -> &'static (SyntheticDblp, TrustSubgraph) {
    static CELL: OnceLock<(SyntheticDblp, TrustSubgraph)> = OnceLock::new();
    CELL.get_or_init(|| trust_subgraph(0.3, 77))
}

/// The maintenance and coding fixtures' community (generator seed 91).
pub(crate) fn denser_community() -> &'static (SyntheticDblp, TrustSubgraph) {
    static CELL: OnceLock<(SyntheticDblp, TrustSubgraph)> = OnceLock::new();
    CELL.get_or_init(|| trust_subgraph(0.35, 91))
}

/// A lossy serving system with opportunistic caching and four replicated
/// 9 KiB datasets: public, confidential, trust-gated (a policy decision
/// that changes with the clock) and public.
pub(crate) fn serving_system(periodic: bool) -> (Scdn, Vec<DatasetId>) {
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

/// Always-on members with 25 KiB repositories, so quota decides outcomes.
/// Datasets (14, 15 and 9 KiB) live on their owners (nodes 0, 1, 2) alone.
pub(crate) fn quota_system(failure: FailureModel) -> (Scdn, Vec<DatasetId>) {
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

/// Four replicated 7 KiB datasets under `rebalance`, two replicas each, a
/// lossy fabric and opportunistic caching.
pub(crate) fn maintenance_system(
    rebalance: RebalanceStrategy,
    periodic: bool,
    capacity: u64,
) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = denser_community();
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

/// Four 7 KiB datasets published under `coding` and placed, on a lossy
/// fabric under periodic availability.
pub(crate) fn coded_cycle_system(coding: CodingConfig) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = denser_community();
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

/// Two RS(3,2)-coded and two whole-replica 7 KiB datasets on one lossy
/// system, each placed by one `replicate`.
pub(crate) fn mixed_system(availability: AvailabilityConfig) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = denser_community();
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

/// Two unplaced 14 KiB datasets wanting eight replicas each, under
/// availability periods short enough that one repair walk crosses several
/// boundaries. `seed` only names the datasets.
pub(crate) fn fast_churn_system(period_ms: u64, seed: u64) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = denser_community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 4 << 20,
        replicas_per_dataset: 8,
        availability: AvailabilityConfig::Periodic {
            period_ms,
            duty: 0.5,
        },
        failure: FailureModel {
            loss_prob: 0.2,
            corruption_prob: 0.1,
            seed: 23,
            ..FailureModel::default()
        },
        opportunistic_caching: true,
        transfer_concurrency: 1,
        ..Default::default()
    };
    let mut scdn = Scdn::build(sub, &c.corpus, config);
    let datasets = (0..2u32)
        .map(|i| {
            scdn.publish(
                NodeId(i),
                &format!("maint-{i}-{seed}"),
                Bytes::from(vec![i as u8 + 1; 14 << 10]),
                Sensitivity::Public,
                None,
            )
            .expect("publish succeeds")
        })
        .collect();
    (scdn, datasets)
}

/// Requester `n` and dataset `d` of a selector pair, taken modulo the
/// membership and the datasets.
pub(crate) fn pick(scdn: &Scdn, datasets: &[DatasetId], (n, d): (u8, u8)) -> (NodeId, DatasetId) {
    (
        NodeId(u32::from(n) % scdn.member_count() as u32),
        datasets[usize::from(d) % datasets.len()],
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

/// Panic, naming each part of the state that differs, unless `got` and
/// `want` are equal. The destructuring names every field, so a field
/// added to [`DecisionState`] must be added here too.
#[track_caller]
pub(crate) fn assert_same_state(got: &DecisionState, want: &DecisionState, case: &str) {
    let DecisionState {
        clock,
        catalog,
        repos,
        edges,
        departed,
        sessions,
        datasets,
        next_dataset,
        ledger,
        overlay_links,
        estimates,
    } = got;
    let differ: Vec<&str> = [
        ("clock", *clock == want.clock),
        ("catalog", *catalog == want.catalog),
        ("repos", *repos == want.repos),
        ("edges", *edges == want.edges),
        ("departed", *departed == want.departed),
        ("sessions", *sessions == want.sessions),
        ("datasets", *datasets == want.datasets),
        ("next_dataset", *next_dataset == want.next_dataset),
        ("ledger", *ledger == want.ledger),
        ("overlay_links", *overlay_links == want.overlay_links),
        ("estimates", *estimates == want.estimates),
    ]
    .into_iter()
    .filter(|&(_, same)| !same)
    .map(|(field, _)| field)
    .collect();
    assert!(differ.is_empty(), "{case}: {} differ", differ.join(", "));
}

/// `state` with the two charges of a request by `node` that failed
/// after authenticating: one operation of `node`'s session and, when
/// the request's resolve succeeded, one more hit or miss of
/// `resolved`'s demand. The hop distance decides which of the two;
/// `after` says which, and nothing else about the entry may move.
pub(crate) fn charged(
    mut state: DecisionState,
    after: &DecisionState,
    node: NodeId,
    resolved: Option<DatasetId>,
) -> DecisionState {
    let slot = &mut state.sessions[node.index()];
    let session = slot.as_mut().expect("an authenticated session");
    session.remaining_ops -= 1;
    if session.remaining_ops == 0 {
        *slot = None;
    }
    if let Some(dataset) = resolved {
        let at = |s: &DecisionState| {
            let entries = &s.catalog.entries;
            entries.iter().position(|&(d, _)| d == dataset)
        };
        let i = at(&state).expect("catalogued");
        assert_eq!(at(after), Some(i));
        let (want, got) = (&mut state.catalog.entries[i].1, &after.catalog.entries[i].1);
        let was = (want.hits, want.misses);
        assert!(
            [(was.0 + 1, was.1), (was.0, was.1 + 1)].contains(&(got.hits, got.misses)),
            "{dataset:?}: demand went from {was:?} to {:?}",
            (got.hits, got.misses)
        );
        (want.hits, want.misses) = (got.hits, got.misses);
    }
    state
}

/// Trace structure without wall-clock span durations (which measure host
/// time, not simulation state).
pub(crate) fn trace_shapes(scdn: &Scdn) -> Vec<String> {
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

/// Hand-offs refused for not carrying the owner's digest.
pub(crate) fn owner_digest_mismatches(scdn: &Scdn) -> u64 {
    scdn.observability_snapshot()
        .counter("core.transfer.owner_digest_mismatch")
        .expect("registered at build")
}
