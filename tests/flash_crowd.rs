//! Integration test: a flash crowd on one dataset is absorbed by
//! demand-driven replication — the CDN behavior the paper motivates with
//! "help web sites meet the demands of peak usage".

use scdn::alloc::replication::AdaptiveRebalance;
use scdn::bytes::Bytes;
use scdn::core::system::{RebalanceStrategy, Scdn, ScdnConfig};
use scdn::graph::NodeId;
use scdn::sim::engine::SimTime;
use scdn::sim::workload::{generate_requests, with_flash_crowd, Request, WorkloadConfig};
use scdn::social::generator::{generate, CaseStudyParams};
use scdn::social::trustgraph::{build_trust_subgraph, TrustFilter};
use scdn::storage::object::DatasetId;
use scdn::storage::Sensitivity;

fn build_system(rebalance: RebalanceStrategy) -> (Scdn, Vec<DatasetId>) {
    let mut params = CaseStudyParams::default();
    params.level2_prob = 0.4;
    params.level3_prob = 0.0;
    params.mega_pub_authors = 0;
    params.rng_seed = 61;
    let c = generate(&params);
    let sub = build_trust_subgraph(
        &c.corpus,
        c.seed_author,
        3,
        2009..=2010,
        TrustFilter::Baseline,
    )
    .expect("seed present");
    let mut config = ScdnConfig::default();
    config.replicas_per_dataset = 2;
    config.rebalance = rebalance;
    let mut scdn = Scdn::build(&sub, &c.corpus, config);
    let mut datasets = Vec::new();
    for i in 0..6u32 {
        let id = scdn
            .publish(
                NodeId(i),
                &format!("ds{i}"),
                Bytes::from(vec![i as u8; 16 << 10]),
                Sensitivity::Public,
                None,
            )
            .expect("publishes");
        scdn.replicate(id).expect("replicates");
        datasets.push(id);
    }
    (scdn, datasets)
}

/// Counters from one [`replay`].
#[derive(Default)]
struct Stats {
    served: u64,
    failed: u64,
    maintenance_changes: u64,
}

/// Replay `workload` (dataset index modulo `datasets`) in time order, with
/// a maintenance cycle every `every_ms` up to the last request. The clock
/// ticks forward to each event; a maintenance cycle that falls on a
/// request's millisecond runs after that request.
fn replay(scdn: &mut Scdn, workload: &[Request], datasets: &[DatasetId], every_ms: u64) -> Stats {
    let horizon = workload.last().expect("non-empty").at.as_millis();
    let cycles = (1..=horizon / every_ms).map(|i| (SimTime::from_millis(i * every_ms), None));
    let mut events: Vec<(SimTime, Option<&Request>)> = workload
        .iter()
        .map(|r| (r.at, Some(r)))
        .chain(cycles)
        .collect();
    // Stable: requests keep their order and precede a same-time cycle.
    events.sort_by_key(|&(at, _)| at);
    let mut stats = Stats::default();
    for (at, event) in events {
        let dt = at.since(scdn.now());
        if dt > 0 {
            scdn.tick(dt);
        }
        match event {
            Some(r) => {
                match scdn.request(NodeId(r.user as u32), datasets[r.dataset % datasets.len()]) {
                    Ok(_) => stats.served += 1,
                    Err(_) => stats.failed += 1,
                }
            }
            None => stats.maintenance_changes += scdn.maintain() as u64,
        }
    }
    // Transfers take simulated time too: the clock ends at or past the
    // last arrival.
    assert!(scdn.now().as_millis() >= horizon);
    stats
}

/// Replay a flash crowd on dataset 3 with a maintenance cycle every 5 s.
/// Returns the hot dataset's replica count before and after, and the
/// catalog's final total.
fn absorb_flash_crowd(rebalance: RebalanceStrategy) -> (usize, usize, usize) {
    let (mut scdn, datasets) = build_system(rebalance);
    let members = scdn.member_count();
    let hot = datasets[3];
    let replicas_before = scdn.replicas_of(hot).expect("known").len();

    let base = generate_requests(&WorkloadConfig {
        seed: 8,
        users: members,
        datasets: datasets.len(),
        count: 150,
        mean_interarrival_ms: 400.0,
        ..Default::default()
    });
    // A burst hammering dataset 3 from mid-run through the end of the
    // horizon. The ~33 req/s rate puts >100 requests in every 5 s demand
    // window, so volume-driven growth triggers deterministically, and the
    // burst outlasting the base workload means the final maintenance cycle
    // still sees it hot (a burst that dies mid-run is correctly shed again
    // before the run ends — that's the policy working, not the crowd being
    // absorbed).
    let workload = with_flash_crowd(
        &base,
        members,
        3,
        SimTime::from_secs(15),
        SimTime::from_secs(70),
        30.0,
        9,
    );
    assert!(workload.len() > base.len() + 150, "burst materialized");

    let stats = replay(&mut scdn, &workload, &datasets, 5_000);
    assert_eq!(stats.failed, 0, "always-on fabric serves everything");
    assert!(
        stats.maintenance_changes > 0,
        "maintenance must react to the burst"
    );
    // The burst's demand is visible in the served counter.
    assert_eq!(stats.served as usize, workload.len());
    let replicas = |d: &DatasetId| scdn.replicas_of(*d).expect("known").len();
    (
        replicas_before,
        replicas(&hot),
        datasets.iter().map(replicas).sum(),
    )
}

#[test]
fn flash_crowd_triggers_replication_growth() {
    let (before, after, _) = absorb_flash_crowd(RebalanceStrategy::Static);
    assert!(
        after > before,
        "the hot dataset must gain replicas ({before} -> {after})"
    );
}

/// The demand-driven policy absorbs the same crowd without spending more
/// storage than the static formula ended up with: the replicas come from
/// the datasets nobody is asking for.
#[test]
fn adaptive_policy_absorbs_the_crowd_within_the_static_budget() {
    let (_, _, budget) = absorb_flash_crowd(RebalanceStrategy::Static);
    let adaptive = AdaptiveRebalance::with_budget(budget);
    let (before, after, total) = absorb_flash_crowd(RebalanceStrategy::Adaptive(adaptive));
    assert!(
        after > before,
        "the hot dataset must gain replicas ({before} -> {after})"
    );
    assert!(
        total <= budget,
        "{total} replicas against a budget of {budget}"
    );
}

#[test]
fn quiet_datasets_do_not_grow() {
    let (mut scdn, datasets) = build_system(RebalanceStrategy::Static);
    let members = scdn.member_count();
    let quiet = datasets[5];
    let before = scdn.replicas_of(quiet).expect("known").len();
    // A tiny workload that never touches dataset 5 (modulo mapping is
    // avoided by pointing every request at dataset 0).
    let base = generate_requests(&WorkloadConfig {
        seed: 4,
        users: members,
        datasets: 1,
        count: 60,
        ..Default::default()
    });
    replay(&mut scdn, &base, &datasets[..1], 10_000);
    let after = scdn.replicas_of(quiet).expect("known").len();
    assert!(after <= before, "idle datasets must not gain replicas");
}
