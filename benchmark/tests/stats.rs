//! The order statistics against a sorted-`Vec` oracle and against the
//! values Python's `statistics` module gives (the driver's arithmetic).

use scdn_benchmark::stats::{iqr_share, mean, median, percentile, quartiles, sorted};
use scdn_benchmark::world::splitmix64;

fn sample(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|_| (splitmix64(&mut state) % 10_000) as f64 / 7.0)
        .collect()
}

#[test]
fn percentile_is_the_nearest_rank_of_the_sorted_sample() {
    for seed in 0..50u64 {
        let len = 1 + (seed as usize * 37) % 300;
        let asc = sorted(sample(seed, len));
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            // Oracle: the smallest value with at least q·n values at or
            // below it.
            let need = (q * len as f64).ceil().max(1.0) as usize;
            let oracle = asc[need - 1];
            assert_eq!(percentile(&asc, q), oracle, "seed {seed} len {len} q {q}");
            let at_or_below = asc.iter().filter(|&&v| v <= oracle).count();
            assert!(at_or_below >= need);
        }
    }
}

#[test]
fn median_matches_the_oracle_for_odd_and_even_lengths() {
    for seed in 0..50u64 {
        let len = 1 + (seed as usize * 13) % 64;
        let asc = sorted(sample(seed, len));
        let oracle = if len % 2 == 1 {
            asc[len / 2]
        } else {
            (asc[len / 2 - 1] + asc[len / 2]) / 2.0
        };
        assert_eq!(median(&asc), oracle);
    }
    assert_eq!(median(&[]), 0.0);
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
}

#[test]
fn quartiles_agree_with_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
    assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
    // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
    assert_eq!(
        quartiles(&sorted(vec![3.0, 1.0, 4.0, 1.0, 5.0])),
        (1.0, 3.0, 4.5)
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    // The middle cut is the median, whatever the length.
    for seed in 0..20u64 {
        let asc = sorted(sample(seed, 2 + seed as usize));
        let (_, q2, _) = quartiles(&asc);
        assert!((q2 - median(&asc)).abs() < 1e-9);
    }
}
