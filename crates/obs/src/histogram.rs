//! Fixed-bucket log-linear histograms (HDR-style).
//!
//! A [`Histogram`] records non-negative `f64` observations into a *fixed*
//! number of buckets, so memory is **O(buckets)** regardless of how many
//! values are recorded, and a quantile query is a single O(buckets) scan —
//! no retained samples, no per-query sort. Count, sum (hence mean), min,
//! and max are tracked exactly; only quantiles are approximate.
//!
//! # Bucket layout
//!
//! Each observation is scaled by [`HistogramConfig::unit_scale`] and
//! rounded to an integer `v`. With `p = precision_bits`:
//!
//! * `v < 2^(p+1)` falls into an *exact* bucket (one bucket per integer);
//! * larger values fall into log-linear buckets: one power-of-two "block"
//!   per bit position, each split into `2^p` linear sub-buckets.
//!
//! The widest bucket containing `v` spans less than `v / 2^p`, and
//! quantile queries report the bucket's lower bound clamped into the exact
//! `[min, max]` range, so:
//!
//! # Error bound
//!
//! For any quantile `q`, the reported value `r` and the exact nearest-rank
//! value `x` (over the same observations) satisfy
//!
//! ```text
//! |r - x| <= x / 2^p + 1 / unit_scale
//! ```
//!
//! i.e. a relative error of `2^-p` (0.78% at the default `p = 7`) plus at
//! most one quantization unit (1/1024 at the default scale).
//! `quantile(0.0)` and `quantile(1.0)` are exact (they clamp to the
//! tracked min/max). This bound is asserted by the property tests in
//! `tests/proptests.rs`.
//!
//! Two histograms with the same configuration can be [`Histogram::merge`]d
//! bucket-wise without losing accuracy — the merged quantiles obey the
//! same bound. [`SharedHistogram`] is the handle a
//! [`crate::registry::Registry`] hands out: one `Histogram` behind a
//! shared cell, recording through `&self`.

use std::cell::RefCell;
use std::rc::Rc;

/// Shape of a log-linear histogram: precision and value quantization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramConfig {
    /// Sub-bucket precision `p`: quantiles carry relative error `<= 2^-p`.
    pub precision_bits: u32,
    /// Units per 1.0 of recorded value (values are scaled and rounded to
    /// integers before bucketing). The default of 1024 gives sub-unit
    /// resolution — e.g. ~1 µs granularity for millisecond timings.
    pub unit_scale: f64,
}

impl Default for HistogramConfig {
    fn default() -> Self {
        HistogramConfig {
            precision_bits: 7,
            unit_scale: 1024.0,
        }
    }
}

impl HistogramConfig {
    /// A coarser configuration (relative error `<= 2^-5` ≈ 3.2%) with a
    /// quarter of the default memory; useful for low-value-count series.
    pub fn coarse() -> HistogramConfig {
        HistogramConfig {
            precision_bits: 5,
            unit_scale: 1024.0,
        }
    }

    /// Total bucket count for this configuration: `(65 - p) * 2^p`.
    ///
    /// Defaults: `p = 7` → 7424 buckets (58 KiB of `u64` counts) covering
    /// the full scaled `u64` range.
    pub fn bucket_count(&self) -> usize {
        (65 - self.precision_bits as usize) << self.precision_bits
    }

    /// Scale an observation to bucket units (saturating, non-negative).
    fn to_units(self, v: f64) -> u64 {
        (v.max(0.0) * self.unit_scale).round() as u64
    }

    /// Bucket index of a scaled value.
    fn index_of(&self, units: u64) -> usize {
        let p = self.precision_bits;
        if units < (1u64 << (p + 1)) {
            units as usize
        } else {
            let msb = 63 - units.leading_zeros();
            let shift = msb - p;
            let sub = ((units >> shift) as usize) & ((1usize << p) - 1);
            (((msb - p) as usize) << p) + (1usize << p) + sub
        }
    }

    /// Smallest scaled value mapping to `index` (inverse of `index_of`).
    fn lower_bound(&self, index: usize) -> u64 {
        let p = self.precision_bits;
        let exact = 1usize << (p + 1);
        if index < exact {
            index as u64
        } else {
            let li = index - exact;
            let block = (li >> p) as u32;
            let sub = (li & ((1usize << p) - 1)) as u64;
            ((1u64 << p) + sub) << (block + 1)
        }
    }
}

/// Bounded-memory scalar series: exact count/sum/min/max, approximate
/// quantiles with the module-level error bound. Buckets are allocated
/// lazily on the first `record`, so an empty histogram is a few words.
#[derive(Clone, Debug)]
pub struct Histogram {
    config: HistogramConfig,
    buckets: Vec<u64>,
    count: u64,
    rejected: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(HistogramConfig::default())
    }
}

impl Histogram {
    /// Empty histogram with the given shape (no buckets allocated yet).
    pub fn new(config: HistogramConfig) -> Histogram {
        Histogram {
            config,
            buckets: Vec::new(),
            count: 0,
            rejected: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The histogram's shape.
    pub fn config(&self) -> HistogramConfig {
        self.config
    }

    /// Record one observation. Non-finite values are counted in
    /// [`Self::rejected`] and otherwise ignored; negative values clamp
    /// to zero.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            self.rejected += 1;
            return;
        }
        let v = v.max(0.0);
        if self.buckets.is_empty() {
            self.buckets = vec![0u64; self.config.bucket_count()];
        }
        self.buckets[self.config.index_of(self.config.to_units(v))] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Observations rejected as non-finite.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Exact sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Currently allocated bucket slots — 0 before the first record, then
    /// exactly [`HistogramConfig::bucket_count`] forever after, however
    /// many observations arrive (the bounded-memory guarantee).
    pub fn allocated_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Nearest-rank `q`-quantile (`q` clamped to 0..=1; 0 when empty),
    /// within the module-level error bound, in O(buckets).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum > rank {
                let raw = self.config.lower_bound(i) as f64 / self.config.unit_scale;
                return raw.clamp(self.min, self.max);
            }
        }
        self.max()
    }

    /// Merge another histogram of the *same configuration* into this one.
    ///
    /// # Panics
    /// Panics if the configurations differ (bucket layouts would not
    /// line up).
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.config, other.config,
            "cannot merge histograms with different configurations"
        );
        if other.count == 0 {
            self.rejected += other.rejected;
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0u64; self.config.bucket_count()];
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.rejected += other.rejected;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Shared histogram handle: records through `&self`, cheap to clone (all
/// clones share one [`Histogram`], so buckets allocate on the first
/// finite record, as a plain histogram's do).
#[derive(Clone, Debug, Default)]
pub struct SharedHistogram {
    inner: Rc<RefCell<Histogram>>,
}

impl SharedHistogram {
    /// Shared histogram with the given shape.
    pub fn new(config: HistogramConfig) -> SharedHistogram {
        SharedHistogram {
            inner: Rc::new(RefCell::new(Histogram::new(config))),
        }
    }

    /// The histogram's shape.
    pub fn config(&self) -> HistogramConfig {
        self.inner.borrow().config()
    }

    /// Record one observation ([`Histogram::record`]).
    pub fn record(&self, v: f64) {
        self.inner.borrow_mut().record(v);
    }

    /// Recorded observation count.
    pub fn count(&self) -> u64 {
        self.inner.borrow().count()
    }

    /// Point-in-time copy as a plain [`Histogram`] (the export path).
    pub fn snapshot(&self) -> Histogram {
        self.inner.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_lower_bound_are_inverse_on_boundaries() {
        let cfg = HistogramConfig::default();
        for i in 0..cfg.bucket_count() {
            let lo = cfg.lower_bound(i);
            assert_eq!(cfg.index_of(lo), i, "bucket {i} lower bound {lo}");
        }
    }

    #[test]
    fn indexing_is_monotone_and_continuous() {
        let cfg = HistogramConfig {
            precision_bits: 4,
            unit_scale: 1.0,
        };
        let mut prev = 0usize;
        for v in 0u64..100_000 {
            let i = cfg.index_of(v);
            assert!(i == prev || i == prev + 1, "jump at {v}: {prev} -> {i}");
            prev = i;
        }
    }

    #[test]
    fn exact_stats_and_round_quantiles() {
        let mut h = Histogram::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        // Small integers scale to few significant bits → exact buckets.
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 5.0);
    }

    #[test]
    fn empty_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.9), 0.0);
        assert_eq!(h.allocated_buckets(), 0, "empty histograms stay tiny");
    }

    #[test]
    fn memory_is_bounded_by_bucket_count() {
        // The anchor bug: `Summary` kept every observation. Recording a
        // million values must allocate exactly the fixed bucket table.
        let mut h = Histogram::default();
        h.record(1.0);
        let allocated = h.allocated_buckets();
        assert_eq!(allocated, h.config().bucket_count());
        let mut x = 1u64;
        for _ in 0..1_000_000u32 {
            // Cheap LCG spread over ~6 decades.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record((x % 1_000_000) as f64 / 10.0);
        }
        assert_eq!(h.count(), 1_000_001);
        assert_eq!(
            h.allocated_buckets(),
            allocated,
            "bucket storage must not grow with observation count"
        );
    }

    #[test]
    fn quantile_error_bound_on_wide_range() {
        let mut h = Histogram::default();
        let mut vals = Vec::new();
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let v = (x % 10_000_000) as f64 / 100.0; // 0 .. 100k
            vals.push(v);
            h.record(v);
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cfg = h.config();
        let rel = (2f64).powi(-(cfg.precision_bits as i32));
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
            let exact = vals[((vals.len() - 1) as f64 * q).round() as usize];
            let approx = h.quantile(q);
            let tol = exact * rel + 1.0 / cfg.unit_scale + 1e-9;
            assert!(
                (approx - exact).abs() <= tol,
                "q={q}: approx {approx} vs exact {exact} (tol {tol})"
            );
        }
    }

    #[test]
    fn non_finite_rejected_negative_clamped() {
        let mut h = Histogram::default();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-3.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.rejected(), 2);
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn merge_matches_single_recording() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut all = Histogram::default();
        for i in 0..1000 {
            let v = (i * i % 7919) as f64 / 3.0;
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.sum() - all.sum()).abs() < 1e-6);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn merge_rejects_mismatched_configs() {
        let mut a = Histogram::new(HistogramConfig::default());
        let b = Histogram::new(HistogramConfig::coarse());
        a.merge(&b);
    }

    /// The handle's snapshot is the plain histogram it wraps: fed the
    /// same values, both export the same bytes, and neither allocates
    /// buckets before a finite value arrives (empty and all-rejected).
    #[test]
    fn shared_histogram_snapshot_matches_plain() {
        let series: [Vec<f64>; 3] = [
            Vec::new(),
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY],
            (0..500).map(|i| (i % 97) as f64 * 1.5).collect(),
        ];
        for values in &series {
            let sh = SharedHistogram::default();
            let mut plain = Histogram::default();
            for &v in values {
                sh.record(v);
                plain.record(v);
            }
            let snap = sh.snapshot();
            assert_eq!(snap.count(), plain.count());
            assert_eq!(snap.rejected(), plain.rejected());
            assert_eq!(snap.min(), plain.min());
            assert_eq!(snap.max(), plain.max());
            assert_eq!(snap.quantile(0.5), plain.quantile(0.5));
            let export = |h: Histogram| {
                let mut snap = crate::registry::Snapshot::new();
                snap.add_histogram("h", h);
                crate::to_json(&snap)
            };
            if plain.count() == 0 {
                assert_eq!(snap.allocated_buckets(), 0, "{values:?}");
                assert_eq!(plain.allocated_buckets(), 0, "{values:?}");
            }
            assert_eq!(export(snap), export(plain), "{values:?}");
        }
    }
}
