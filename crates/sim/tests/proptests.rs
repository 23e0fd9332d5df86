//! Property-based tests for the simulation substrate.

use proptest::prelude::*;
use scdn_sim::availability::{overlap_fraction, AvailabilityModel, PeriodicChurn, Trace};
use scdn_sim::engine::SimTime;
use scdn_sim::workload::{generate_requests, WorkloadConfig, Zipf};

proptest! {
    #[test]
    fn zipf_sample_in_range(n in 1usize..200, s in 0.0f64..2.5, seed in 0u64..100) {
        use rand::{rngs::StdRng, SeedableRng};
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn zipf_probabilities_valid(n in 1usize..100, s in 0.0f64..3.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|k| z.probability(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for k in 0..n {
            prop_assert!(z.probability(k) >= 0.0);
        }
    }

    #[test]
    fn workload_respects_bounds(users in 1usize..50, datasets in 1usize..50, count in 1usize..300) {
        let cfg = WorkloadConfig {
            users,
            datasets,
            count,
            ..Default::default()
        };
        let reqs = generate_requests(&cfg);
        prop_assert_eq!(reqs.len(), count);
        for w in reqs.windows(2) {
            prop_assert!(w[0].at <= w[1].at);
        }
        for r in &reqs {
            prop_assert!(r.user < users);
            prop_assert!(r.dataset < datasets);
        }
    }

    #[test]
    fn periodic_availability_matches_duty(duty in 0.05f64..0.95, seed in 0u64..20) {
        let m = PeriodicChurn {
            period_ms: 10_000,
            duty,
            seed,
        };
        let f = m.availability_fraction(3, SimTime::from_secs(200), 2_000);
        prop_assert!((f - duty).abs() < 0.05, "duty {duty} measured {f}");
    }

    #[test]
    fn overlap_bounded_by_individual_availability(duty in 0.1f64..0.9, seed in 0u64..20) {
        let m = PeriodicChurn {
            period_ms: 8_000,
            duty,
            seed,
        };
        let horizon = SimTime::from_secs(100);
        let overlap = overlap_fraction(&m, 0, 1, horizon, 500);
        let a0 = m.availability_fraction(0, horizon, 500);
        let a1 = m.availability_fraction(1, horizon, 500);
        prop_assert!(overlap <= a0.min(a1) + 0.02);
        // Inclusion-exclusion lower bound: a0 + a1 - 1.
        prop_assert!(overlap >= (a0 + a1 - 1.0 - 0.02).max(0.0));
    }

    #[test]
    fn trace_intervals_respected(intervals in proptest::collection::vec((0u64..1_000, 1u64..100), 1..10)) {
        let mut trace = Trace::default();
        let mut normalized: Vec<(u64, u64)> = Vec::new();
        for (on, len) in intervals {
            trace.add(0, on, on + len);
            normalized.push((on, on + len));
        }
        for t in (0..1_200).step_by(7) {
            let inside = normalized.iter().any(|&(on, off)| t >= on && t < off);
            prop_assert_eq!(trace.is_online(0, SimTime::from_millis(t)), inside, "t = {}", t);
        }
    }
}
