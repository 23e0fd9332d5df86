//! Property-based tests for the network substrate.

use bytes::Bytes;
use proptest::prelude::*;
use scdn_net::failure::{AttemptOutcome, FailureModel};
use scdn_net::topology::{haversine_km, LinkQuality, Topology};
use scdn_net::transfer::TransferEngine;
use scdn_storage::object::{DatasetId, Segment, SegmentId};
use scdn_storage::repository::{Partition, StorageRepository};

proptest! {
    #[test]
    fn latency_symmetric_and_nonnegative(
        lat1 in -80.0f64..80.0, lon1 in -179.0f64..179.0,
        lat2 in -80.0f64..80.0, lon2 in -179.0f64..179.0,
    ) {
        let topo = Topology::uniform(vec![(lat1, lon1), (lat2, lon2)], LinkQuality::default());
        let l01 = topo.latency_ms(0, 1);
        let l10 = topo.latency_ms(1, 0);
        prop_assert!((l01 - l10).abs() < 1e-9);
        prop_assert!(l01 >= 2.0 * LinkQuality::default().access_latency_ms - 1e-9);
    }

    #[test]
    fn haversine_triangle_inequality(
        a in (-80.0f64..80.0, -179.0f64..179.0),
        b in (-80.0f64..80.0, -179.0f64..179.0),
        c in (-80.0f64..80.0, -179.0f64..179.0),
    ) {
        let ab = haversine_km(a, b);
        let bc = haversine_km(b, c);
        let ac = haversine_km(a, c);
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn transfer_time_monotone_in_bytes(bytes1 in 1u64..1_000_000, extra in 1u64..1_000_000) {
        let topo = Topology::uniform(vec![(0.0, 0.0), (10.0, 10.0)], LinkQuality::default());
        let t1 = topo.transfer_time_ms(0, 1, bytes1, 1);
        let t2 = topo.transfer_time_ms(0, 1, bytes1 + extra, 1);
        prop_assert!(t2 > t1);
    }

    #[test]
    fn failure_outcomes_deterministic_and_distributed(
        loss in 0.0f64..0.9, seed in 0u64..1000,
    ) {
        let m = FailureModel {
            loss_prob: loss,
            corruption_prob: 0.0,
            seed,
            ..FailureModel::default()
        };
        let mut lost = 0u32;
        const N: u32 = 2_000;
        for key in 0..N {
            let o1 = m.outcome(0, 1, key as u64, 0);
            prop_assert_eq!(o1, m.outcome(0, 1, key as u64, 0));
            if o1 == AttemptOutcome::Lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / N as f64;
        prop_assert!((rate - loss).abs() < 0.06, "loss {loss} measured {rate}");
    }

    #[test]
    fn delivered_bytes_match_source(size in 1usize..8192, loss in 0.0f64..0.4) {
        let topo = Topology::uniform(vec![(0.0, 0.0), (5.0, 5.0)], LinkQuality::default());
        let engine = TransferEngine {
            topology: topo,
            failure: FailureModel {
                loss_prob: loss,
                corruption_prob: 0.1,
                seed: 5,
                ..FailureModel::default()
            },
            max_attempts: 10,
            concurrency: 1,
        };
        let src = StorageRepository::new(1 << 24);
        let dst = StorageRepository::new(1 << 24);
        let payload = vec![0x7Eu8; size];
        let seg = Segment::new(
            SegmentId {
                dataset: DatasetId(0),
                ordinal: 0,
            },
            Bytes::from(payload.clone()),
        );
        src.store(Partition::User, seg.clone()).expect("stored");
        // With 10 attempts delivery is near-certain at these rates.
        let (reports, error) =
            engine.transfer_many_observed(0, 1, &src, &dst, &[seg.id], Partition::Replica, &mut |_| {});
        if let (&[report], None) = (reports.as_slice(), error) {
            prop_assert_eq!(report.bytes as usize, size);
            let got = dst.fetch(Partition::Replica, seg.id).expect("delivered");
            prop_assert_eq!(got.data.to_vec(), payload);
            prop_assert!(got.verify());
            prop_assert!(report.duration_ms > 0.0);
            prop_assert!(report.attempts >= 1 && report.attempts <= 10);
        }
    }
}
