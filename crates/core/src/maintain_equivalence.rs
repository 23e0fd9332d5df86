//! Property test: the pipelined `maintain` / `repair` cycles are
//! bit-identical to their serial oracles (`maintain_serial` /
//! `repair_serial`).
//!
//! Two identically built systems run the same random schedule — demand
//! bursts (requests that feed the replication policy's windows),
//! periodic churn (offline hosts), a lossy transfer fabric, and optional
//! mid-run departures — then interleave maintenance and repair cycles.
//! One system drives the serial loops, the other the plan/commit
//! pipeline. Per-cycle change counts, replica sets, catalog-entry
//! versions, clocks, and full metric snapshots (hosting-request and
//! exchange records included) must match exactly.
//!
//! The only counters excluded from the comparison are diagnostics that
//! legitimately differ between the two execution strategies: the
//! resolve-cache statistics (`alloc.resolve.cache.*` and the per-miss
//! search work `alloc.resolve.bfs.*`), the request-batch
//! counters (`core.batch.*`), and the maintenance-pipeline counters
//! themselves (`core.maintain.*` — the serial oracles never plan).

use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;
use scdn_alloc::replication::AdaptiveRebalance;
use scdn_graph::NodeId;
use scdn_net::failure::FailureModel;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn_social::SyntheticDblp;
use scdn_storage::object::{DatasetId, Sensitivity};

use crate::system::{AvailabilityConfig, RebalanceStrategy, Scdn, ScdnConfig};

fn community() -> &'static (SyntheticDblp, TrustSubgraph) {
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

/// A freshly built system plus its published datasets. Deterministic:
/// two calls produce bit-identical systems. `catalog_shards` exercises
/// the shard-stale re-plan path: a 1-shard catalog makes every commit
/// collide with every in-flight plan's stamp — including Noop replays —
/// while 16 shards spread the datasets out (0 = server default).
/// `rebalance` selects the maintenance policy: the equivalence holds for
/// any `RebalancePolicy` impl, so the proptest sweeps both.
fn build_system(catalog_shards: usize, rebalance: RebalanceStrategy) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
    let config = ScdnConfig {
        segment_size: 2 << 10,
        repo_capacity: 4 << 20,
        replicas_per_dataset: 2,
        rebalance,
        availability: AvailabilityConfig::Periodic {
            period_ms: 8_000,
            duty: 0.5,
        },
        failure: FailureModel {
            loss_prob: 0.2,
            corruption_prob: 0.1,
            seed: 23,
            ..FailureModel::default()
        },
        opportunistic_caching: true,
        transfer_concurrency: 2,
        catalog_shards,
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
/// depart a member, then run a maintenance or repair cycle.
type Op = (u16, Vec<(u8, u8)>, bool, (bool, u8));

/// Drive a system through the schedule; `serial` selects the oracle
/// loops, otherwise the plan/commit pipeline. Returns the per-cycle
/// change counts.
fn drive(scdn: &mut Scdn, datasets: &[DatasetId], ops: &[Op], serial: bool) -> Vec<usize> {
    let members = scdn.member_count() as u32;
    let mut changes = Vec::new();
    for (dt, burst, repair, depart) in ops {
        scdn.tick(u64::from(*dt));
        for &(n, d) in burst {
            let _ = scdn.request(
                NodeId(u32::from(n) % members),
                datasets[usize::from(d) % datasets.len()],
            );
        }
        if depart.0 {
            let _ = scdn.depart(NodeId(u32::from(depart.1) % members));
        }
        changes.push(match (repair, serial) {
            (true, true) => scdn.repair_serial(),
            (true, false) => scdn.repair(),
            (false, true) => scdn.maintain_serial(),
            (false, false) => scdn.maintain(),
        });
    }
    changes
}

/// Exported snapshot minus the diagnostics that legitimately differ
/// between serial and pipelined execution.
fn comparable_snapshot(scdn: &Scdn) -> String {
    scdn_obs::to_json(&scdn.observability_snapshot())
        .lines()
        .filter(|l| {
            !l.contains("alloc.resolve.cache.")
                && !l.contains("alloc.resolve.bfs.")
                && !l.contains("core.batch.")
                && !l.contains("core.maintain.")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Catalog state: replica set and version token per dataset.
fn catalog_state(scdn: &Scdn, datasets: &[DatasetId]) -> Vec<(Vec<NodeId>, Option<u64>)> {
    datasets
        .iter()
        .map(|&d| {
            (
                scdn.replicas_of(d).unwrap_or_default(),
                scdn.allocation().catalog_version(d),
            )
        })
        .collect()
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
        shards in (0usize..3).prop_map(|i| [1usize, 2, 16][i]),
        adaptive in any::<bool>(),
    ) {
        let rebalance = if adaptive {
            // A tight budget (datasets × replicas_per_dataset) so the
            // adaptive policy actually reclaims replicas from cold
            // datasets mid-schedule.
            RebalanceStrategy::Adaptive(AdaptiveRebalance::with_budget(8))
        } else {
            RebalanceStrategy::Static
        };
        let (mut serial, datasets) = build_system(shards, rebalance);
        let (mut piped, datasets_b) = build_system(shards, rebalance);
        prop_assert_eq!(&datasets, &datasets_b, "builds are deterministic");

        let serial_changes = drive(&mut serial, &datasets, &ops, true);
        let piped_changes = drive(&mut piped, &datasets, &ops, false);

        prop_assert_eq!(serial_changes, piped_changes, "per-cycle change counts diverge");
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
    let (mut scdn, datasets) = build_system(0, RebalanceStrategy::Static);
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
