//! Review repro: intra-item clock advance under periodic churn.

use std::sync::OnceLock;

use bytes::Bytes;
use scdn_graph::NodeId;
use scdn_net::failure::FailureModel;
use scdn_social::generator::{generate, CaseStudyParams};
use scdn_social::trustgraph::{build_trust_subgraph, TrustFilter, TrustSubgraph};
use scdn_social::SyntheticDblp;
use scdn_storage::object::{DatasetId, Sensitivity};

use crate::system::{AvailabilityConfig, Scdn, ScdnConfig};

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

fn build_system(period_ms: u64, seed: u64) -> (Scdn, Vec<DatasetId>) {
    let (c, sub) = community();
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
    let mut datasets = Vec::new();
    for i in 0..2u32 {
        let id = scdn
            .publish(
                NodeId(i),
                &format!("maint-{i}-{seed}"),
                Bytes::from(vec![i as u8 + 1; 14 << 10]),
                Sensitivity::Public,
                None,
            )
            .expect("publish succeeds");
        datasets.push(id);
    }
    (scdn, datasets)
}

#[test]
fn repair_matches_serial_under_fast_churn() {
    // Sweep start clocks so some grow item's candidate walk straddles an
    // availability boundary of a later-walked candidate.
    for period_ms in [60u64, 100, 200, 400, 800] {
        for t0 in (0..60u64).map(|i| i * 13) {
            let (mut a, ds) = build_system(period_ms, t0);
            let (mut b, ds_b) = build_system(period_ms, t0);
            assert_eq!(ds, ds_b);
            a.tick(t0);
            b.tick(t0);
            let ra = a.repair_serial();
            let rb = b.repair();
            assert_eq!(ra, rb, "change counts diverge (period={period_ms} t0={t0})");
            assert_eq!(
                a.now(),
                b.now(),
                "clocks diverge (period={period_ms} t0={t0})"
            );
            for &d in &ds {
                assert_eq!(
                    a.replicas_of(d).unwrap_or_default(),
                    b.replicas_of(d).unwrap_or_default(),
                    "replica sets diverge (period={period_ms} t0={t0} dataset={d:?})"
                );
            }
        }
    }
}
