//! End-to-end scenario driver: synthetic community → trust subgraph →
//! running S-CDN → churn + Zipf request workload → Section V-E metrics.
//!
//! Used by the `metrics_report` experiment binary and the examples; also
//! exercised directly by the integration tests.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scdn_graph::NodeId;
use scdn_sim::workload::{generate_requests, Request, WorkloadConfig};
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::TrustFilter;
use scdn_storage::object::DatasetId;

use crate::ops::{Digest, Op, OpOutcome};
use crate::system::{Scdn, ScdnConfig};

/// Scenario parameters.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Synthetic community parameters.
    pub corpus: CaseStudyParams,
    /// Which trust subgraph hosts the CDN.
    pub trust: TrustFilter,
    /// S-CDN runtime configuration.
    pub scdn: ScdnConfig,
    /// Number of datasets to publish.
    pub datasets: usize,
    /// Size of each dataset in bytes.
    pub dataset_bytes: usize,
    /// Number of requests to issue.
    pub requests: usize,
    /// Zipf exponent of dataset popularity.
    pub popularity_exponent: f64,
    /// Mean request inter-arrival in milliseconds.
    pub mean_interarrival_ms: f64,
    /// Run a maintenance cycle every this many requests (0 = never).
    pub maintenance_every: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        let mut corpus = CaseStudyParams::default();
        // Keep the default scenario a mid-size community so examples and
        // tests run in seconds.
        corpus.level3_prob = 0.08;
        ScenarioConfig {
            corpus,
            trust: TrustFilter::MaxAuthorsPerPub(6),
            scdn: ScdnConfig {
                segment_size: 16 << 10,
                repo_capacity: 32 << 20,
                ..Default::default()
            },
            datasets: 20,
            dataset_bytes: 64 << 10,
            requests: 500,
            popularity_exponent: 0.9,
            mean_interarrival_ms: 500.0,
            maintenance_every: 100,
        }
    }
}

/// What happened in a scenario run.
pub struct ScenarioReport {
    /// The system after the run (metrics inside).
    pub scdn: Scdn,
    /// Members of the Social Cloud.
    pub members: usize,
    /// Datasets published.
    pub datasets: usize,
    /// Requests issued (including failed ones).
    pub requests_issued: usize,
    /// Requests that failed outright (no online replica, transfer
    /// exhaustion…).
    pub requests_failed: usize,
    /// Replica changes made by maintenance cycles.
    pub maintenance_changes: usize,
    /// [`Digest`] of every request-stream operation's outcome (the
    /// publishes and replications that set the scenario up are not
    /// folded).
    pub digest: u64,
}

/// Run a scenario end to end.
///
/// Publishers are chosen round-robin among the highest-degree members
/// ("lead institutions"); requesters follow the workload generator;
/// dataset popularity is Zipf-distributed.
pub fn run(cfg: &ScenarioConfig) -> ScenarioReport {
    let synthetic = generate(&cfg.corpus);
    let sub = scdn_social::trustgraph::build_trust_subgraph(
        &synthetic.corpus,
        synthetic.seed_author,
        3,
        cfg.corpus.train_years[0]..=cfg.corpus.train_years[1],
        cfg.trust,
    )
    .expect("the generator always places the seed in its own graph");
    let mut scdn = Scdn::build(&sub, &synthetic.corpus, cfg.scdn.clone());
    let members = scdn.member_count();
    // Publishers: the top-degree members, one dataset each, round-robin.
    let mut by_degree: Vec<NodeId> = scdn.social.nodes().collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(scdn.social.degree(v)));
    let publisher_pool: Vec<NodeId> = by_degree
        .iter()
        .copied()
        .take(cfg.datasets.max(1))
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.scdn.seed ^ 0xD5);
    let mut datasets: Vec<DatasetId> = Vec::with_capacity(cfg.datasets);
    for i in 0..cfg.datasets {
        let publisher = publisher_pool[i % publisher_pool.len()];
        let mut content = vec![0u8; cfg.dataset_bytes];
        rng.fill(content.as_mut_slice());
        let publish = Op::publish(publisher, &format!("dataset-{i:03}"), Bytes::from(content));
        let id = scdn
            .apply(&publish)
            .published()
            .expect("publishing to an owned repository succeeds");
        scdn.apply(&Op::Replicate(id));
        datasets.push(id);
    }
    // Request workload.
    let workload = generate_requests(&WorkloadConfig {
        seed: cfg.scdn.seed ^ 0xA7,
        users: members,
        datasets: datasets.len().max(1),
        popularity_exponent: cfg.popularity_exponent,
        activity_exponent: 0.5,
        mean_interarrival_ms: cfg.mean_interarrival_ms,
        count: cfg.requests,
    });
    let ops = schedule(&workload, &datasets, cfg.maintenance_every);
    let mut failed = 0usize;
    let mut maintenance_changes = 0usize;
    let mut digest = Digest::default();
    for op in &ops {
        let outcome = scdn.apply(op);
        digest.fold(op, &outcome);
        failed += usize::from(outcome.error().is_some());
        if let OpOutcome::Changes(n) = outcome {
            maintenance_changes += n;
        }
    }
    ScenarioReport {
        members,
        datasets: datasets.len(),
        requests_issued: workload.len(),
        requests_failed: failed,
        scdn,
        maintenance_changes,
        digest: digest.value(),
    }
}

/// The request stream: the requests arriving at one instant follow one
/// tick of the arrival gap, and a maintenance cycle follows every
/// `maintenance_every`-th request. The cycle cuts its instant, so it runs
/// at exactly that request index, and the rest of the instant follows a
/// `Tick(0)`, which still samples every client and records an
/// availability sample.
fn schedule(workload: &[Request], datasets: &[DatasetId], maintenance_every: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut last_time = 0u64;
    let mut instant = Vec::new();
    for (i, req) in workload.iter().enumerate() {
        let at = req.at.as_millis();
        instant.push(Op::Request(
            NodeId(req.user as u32),
            datasets[req.dataset % datasets.len()],
        ));
        let maintain = maintenance_every > 0 && (i + 1).is_multiple_of(maintenance_every);
        let instant_ends = workload
            .get(i + 1)
            .is_none_or(|next| next.at.as_millis() != at);
        if maintain || instant_ends {
            ops.push(Op::Tick(at.saturating_sub(last_time)));
            last_time = at;
            ops.append(&mut instant);
            if maintain {
                ops.push(Op::Maintain);
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AvailabilityConfig;

    fn small_config() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::default();
        cfg.corpus.level2_prob = 0.4;
        cfg.corpus.level3_prob = 0.0;
        cfg.corpus.mega_pub_authors = 0;
        cfg.datasets = 5;
        cfg.requests = 100;
        cfg.dataset_bytes = 8 << 10;
        cfg.scdn.segment_size = 4 << 10;
        cfg
    }

    /// The `metrics_report` small scenario's outcome digest, pinned: a
    /// change to batching, tick order or maintenance placement moves it.
    #[test]
    fn metrics_report_scenario_digest_is_pinned() {
        let mut cfg = small_config();
        cfg.requests = 200;
        cfg.scdn.availability = AvailabilityConfig::Periodic {
            period_ms: 30_000,
            duty: 0.8,
        };
        let report = run(&cfg);
        assert_eq!(report.digest, 0x3da9_cf93_d157_9c3b);
        assert_eq!(report.requests_failed, 7);
        assert_eq!(report.maintenance_changes, 10);
    }

    #[test]
    fn scenario_runs_and_serves() {
        let report = run(&small_config());
        assert!(report.members > 10);
        assert_eq!(report.datasets, 5);
        assert_eq!(report.requests_issued, 100);
        let m = &report.scdn.cdn_metrics;
        assert!(m.hits + m.misses > 0, "some requests must be served");
        assert!(m.response_time_ms.count() > 0);
    }

    #[test]
    fn churn_causes_failures_or_misses() {
        let mut cfg = small_config();
        cfg.scdn.availability = AvailabilityConfig::Periodic {
            period_ms: 10_000,
            duty: 0.3,
        };
        let report = run(&cfg);
        let m = &report.scdn.cdn_metrics;
        assert!(
            report.requests_failed > 0 || m.failures > 0,
            "expected some failures under 30% duty churn"
        );
        let avail = m.availability_samples.mean();
        assert!((0.1..0.6).contains(&avail), "avail = {avail}");
    }

    #[test]
    fn reliable_always_on_serves_everything() {
        let report = run(&small_config());
        assert_eq!(report.requests_failed, 0);
        assert_eq!(report.scdn.cdn_metrics.failures, 0);
    }

    #[test]
    fn social_metrics_populated() {
        let report = run(&small_config());
        let s = &report.scdn.social_metrics;
        assert!(s.hosting_requests > 0);
        assert!(s.acceptance_rate() > 0.0);
        assert!(s.exchanges_ok > 0);
        assert!(s.contributed_bytes > 0);
        assert!(s.allocation_ratio() > 0.0);
        assert!(s.transaction_volume() > 0);
    }
}
