//! Streaming quantile sketch with bounded relative error.
//!
//! A DDSketch-style log-bucketed histogram: a sample `v` lands in the
//! bucket indexed `ceil(ln v / ln γ)` with `γ = (1+α)/(1-α)`, so every
//! bucket spans one multiplicative `γ` step and the bucket's midpoint
//! representative `2·γ^i/(γ+1)` is within relative error `α` of *every*
//! sample in the bucket — in particular of the exact rank statistic, which
//! is the advertised guarantee: for any quantile `q`,
//!
//! ```text
//! |sketch.quantile(q) − exact_q| ≤ α · exact_q
//! ```
//!
//! State is O(number of occupied buckets), which is O(ln(max/min)/α) —
//! independent of how many samples were recorded. For serving latencies
//! (nanoseconds to hours at α = 1%) that is under ~2.5k buckets, so a
//! million-request replay holds kilobytes where a sample vector would
//! hold megabytes. Everything is deterministic: buckets live in a
//! `BTreeMap`, merging adds counts, and quantiles depend only on counts.

use std::collections::BTreeMap;

/// Relative-error bound of every sketch (1%).
pub const DEFAULT_SKETCH_ERROR: f64 = 0.01;

/// Bucket growth factor `γ = (1+α)/(1-α)` for `α = DEFAULT_SKETCH_ERROR`.
const GAMMA: f64 = (1.0 + DEFAULT_SKETCH_ERROR) / (1.0 - DEFAULT_SKETCH_ERROR);

/// Samples at or below this magnitude (seconds) collapse into the zero
/// bucket: the sketch's relative-error contract is meaningless below the
/// resolution anything in the stack can produce.
const MIN_TRACKED: f64 = 1e-9;

/// A mergeable log-bucketed quantile sketch over non-negative samples
/// (latencies in seconds).
#[derive(Debug, Clone)]
pub struct LatencySketch {
    /// `ln γ`, precomputed.
    ln_gamma: f64,
    /// Samples in `(-∞, MIN_TRACKED]` (zeros, denormals; negatives are
    /// clamped here too rather than inventing a negative latency scale).
    zeros: u64,
    /// Occupied buckets: index → sample count.
    buckets: BTreeMap<i32, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    /// An empty sketch guaranteeing `|quantile − exact| ≤ α · exact`
    /// with `α` = [`DEFAULT_SKETCH_ERROR`].
    pub fn new() -> Self {
        LatencySketch {
            ln_gamma: GAMMA.ln(),
            zeros: 0,
            buckets: BTreeMap::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The advertised relative-error bound.
    pub fn error_bound(&self) -> f64 {
        DEFAULT_SKETCH_ERROR
    }

    /// Records one sample. NaN is rejected: a debug assertion fires (the
    /// caller fed a poisoned latency) and release builds drop the sample
    /// instead of poisoning every later quantile.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` copies of `v` — a run of equal samples, such as the
    /// inter-token gaps of one decode step's slots — with one bucket
    /// update. The sketch ends bit-identical to `n` calls of
    /// [`LatencySketch::record`]: `sum` still adds `v` once per copy, in
    /// order. `n == 0` records nothing, NaN included.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(!v.is_nan(), "NaN latency recorded into sketch");
        if v.is_nan() {
            return;
        }
        self.count += n;
        for _ in 0..n {
            self.sum += v;
        }
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= MIN_TRACKED {
            self.zeros += n;
        } else {
            *self.buckets.entry(self.bucket_index(v)).or_insert(0) += n;
        }
    }

    fn bucket_index(&self, v: f64) -> i32 {
        (v.ln() / self.ln_gamma).ceil() as i32
    }

    /// Midpoint representative of bucket `i`: bucket `i` spans
    /// `(γ^(i-1), γ^i]`, and `2γ^i/(1+γ)` is within `α` of every
    /// point in that interval.
    fn bucket_value(&self, i: i32) -> f64 {
        let gamma_i = (i as f64 * self.ln_gamma).exp();
        2.0 * gamma_i / (1.0 + GAMMA)
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Occupied buckets — the sketch's actual memory footprint, bounded
    /// by the dynamic range and `α`, never by the sample count.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zeros > 0)
    }

    /// The `q`-quantile (`q` in [0, 1]) under the same rank convention as
    /// `Percentiles::from_unsorted`: the sample of rank
    /// `ceil(q·n).clamp(1, n)` in ascending order. Returns 0 when empty.
    /// Exact min/max are returned at the extreme ranks so `quantile(0)`
    /// and `quantile(1)` are lossless.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        if rank <= self.zeros {
            return self.min.clamp(0.0, MIN_TRACKED);
        }
        if rank == 1 {
            // No zero bucket (or it would have caught rank 1): the rank-1
            // statistic is the exact minimum, mirroring the max above.
            return self.min;
        }
        let mut seen = self.zeros;
        for (&i, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Clamp into the observed range: the representative of the
                // min/max sample's bucket may stick out by < α.
                return self.bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another sketch into this one. Counts add bucket-wise, so
    /// merging is associative and commutative on every quantile (the
    /// floating-point `sum` alone is order-sensitive in its last ulp).
    pub fn merge(&mut self, other: &LatencySketch) {
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (&i, &n) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle: same rank convention as `Percentiles::from_unsorted`.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    }

    fn assert_within_bound(sketch: &LatencySketch, sorted: &[f64], q: f64) {
        let exact = exact_quantile(sorted, q);
        let got = sketch.quantile(q);
        let tol = sketch.error_bound() * exact.abs() + 1e-12;
        assert!(
            (got - exact).abs() <= tol,
            "q={q}: sketch {got} vs exact {exact} (tol {tol})"
        );
    }

    #[test]
    fn quantiles_match_oracle_on_uniform_grid() {
        let mut s = LatencySketch::new();
        let mut samples: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        for &v in &samples {
            s.record(v);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_within_bound(&s, &samples, q);
        }
        assert_eq!(s.count(), 1000);
        assert!((s.mean() - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn single_sample_and_empty() {
        let empty = LatencySketch::new();
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.mean(), 0.0);
        let mut one = LatencySketch::new();
        one.record(3.5);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 3.5, "extremes are exact");
        }
    }

    #[test]
    fn zeros_and_negatives_collapse_without_breaking_rank() {
        let mut s = LatencySketch::new();
        for _ in 0..10 {
            s.record(0.0);
        }
        for _ in 0..10 {
            s.record(1.0);
        }
        assert!(s.quantile(0.25) <= MIN_TRACKED);
        assert!((s.quantile(0.75) - 1.0).abs() <= s.error_bound());
        assert_eq!(s.quantile(1.0), 1.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "NaN latency"))]
    fn nan_is_rejected() {
        let mut s = LatencySketch::new();
        s.record(f64::NAN);
        // Release builds drop the sample instead of panicking.
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    /// Every observable of the sketch, bit for bit: count, the zero
    /// bucket, each bucket, min, max, sum and a spread of quantiles.
    fn assert_bit_identical(a: &LatencySketch, b: &LatencySketch) {
        assert_eq!(a.count, b.count);
        assert_eq!(a.zeros, b.zeros);
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.min.to_bits(), b.min.to_bits());
        assert_eq!(a.max.to_bits(), b.max.to_bits());
        assert_eq!(a.sum().to_bits(), b.sum().to_bits());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q).to_bits(), b.quantile(q).to_bits(), "q={q}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Runs of equal samples recorded with `record_n` leave the sketch
        /// exactly as recording each sample does — including empty runs
        /// and values in the zero bucket — between ordinary records.
        #[test]
        fn record_n_equals_n_records(
            seed in 0u64..u64::MAX,
            runs in 1usize..12,
            zero_every in 2u64..6,
        ) {
            let mut x = seed | 1;
            let mut next = || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 11
            };
            let (mut batched, mut single) = (LatencySketch::new(), LatencySketch::new());
            for _ in 0..runs {
                let r = next();
                let v = match r % zero_every {
                    // At or below the zero bucket's edge, negatives too.
                    0 => [0.0, -0.0, MIN_TRACKED, MIN_TRACKED * 0.5, -1e-3][(r % 5) as usize],
                    _ => (r % 100_000) as f64 * 1e-7 + 1e-6,
                };
                let n = next() % 70; // 0 included
                batched.record_n(v, n);
                for _ in 0..n {
                    single.record(v);
                }
                // An ordinary sample between runs.
                let w = (next() % 1000) as f64 * 1e-4;
                batched.record(w);
                single.record(w);
                assert_bit_identical(&batched, &single);
            }
        }
    }

    #[test]
    fn record_n_of_nothing_is_a_no_op_even_for_nan() {
        let mut s = LatencySketch::new();
        s.record(0.25);
        let before = s.clone();
        s.record_n(0.5, 0);
        s.record_n(f64::NAN, 0);
        assert_bit_identical(&s, &before);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "NaN latency"))]
    fn record_n_drops_nan_runs() {
        let mut s = LatencySketch::new();
        s.record(0.25);
        let before = s.clone();
        s.record_n(f64::NAN, 7);
        // Release builds drop the run, as `record` drops one NaN.
        assert_bit_identical(&s, &before);
    }

    #[test]
    fn memory_is_bounded_by_dynamic_range_not_samples() {
        let mut s = LatencySketch::new();
        // 100k deterministic samples across 6 decades.
        let mut x = 1u64;
        for _ in 0..100_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1e-6 + (x >> 11) as f64 / (1u64 << 53) as f64; // [1e-6, ~1)
            s.record(v);
        }
        assert_eq!(s.count(), 100_000);
        assert!(
            s.bucket_count() < 2500,
            "bucket count {} should be range-bounded",
            s.bucket_count()
        );
    }

    #[test]
    fn merge_is_exact_on_quantiles() {
        let samples: Vec<f64> = (1..=300).map(|i| (i as f64).powi(2) * 1e-4).collect();
        let mut whole = LatencySketch::new();
        let mut a = LatencySketch::new();
        let mut b = LatencySketch::new();
        let mut c = LatencySketch::new();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            [&mut a, &mut b, &mut c][i % 3].record(v);
        }
        // (a ∪ b) ∪ c and a ∪ (b ∪ c) agree with the all-at-once sketch.
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        for q in [0.1, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(left.quantile(q), right.quantile(q));
            assert_eq!(left.quantile(q), whole.quantile(q));
        }
        assert_eq!(left.count(), whole.count());
        assert!((left.sum() - whole.sum()).abs() < 1e-9 * whole.sum());
    }
}
