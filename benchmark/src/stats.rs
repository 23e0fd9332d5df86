//! Order statistics used for every reported timing.
//!
//! Two conventions, each matching its consumer:
//!
//! * [`percentile`] is nearest-rank on the sorted sample (`ceil(q·n)`-th
//!   smallest) — a reported p50/p99 is always a value that was measured;
//! * [`quartiles`] is Python's `statistics.quantiles(values, n=4)`
//!   (the default *exclusive* method), because that is what the driver
//!   computes spreads with and `--repeat` must agree with it.

/// Sort a sample ascending. Panics on NaN: no metric here may be NaN.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    values
}

/// Nearest-rank percentile of an ascending sample, `q` in `0..=1`.
/// Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual even-length midpoint (what
/// `statistics.median` returns). Returns 0 for an empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(q1, q2, q3)` of an ascending sample by the exclusive method:
/// the i-th cut sits at position `i·(n+1)/4` (1-based), linearly
/// interpolated and clamped to the sample's ends. Needs `n >= 2`.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn iqr_share(sorted: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(sorted);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}
