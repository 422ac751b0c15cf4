//! A mergeable log-scaled histogram over non-negative `f64` samples.
//!
//! Values are bucketed geometrically with [`SUB_BUCKETS_PER_OCTAVE`]
//! sub-buckets per power of two, giving a bounded relative error of
//! `2^(1/16) − 1 ≈ 4.4 %` on reconstructed quantiles across the entire
//! positive double range — wide enough to hold queue depths (units),
//! latencies (ns) and KCL residuals (≤ 1e-8 A) in one representation.
//! Count, sum, min and max are tracked exactly, so `mean()` and `max()`
//! carry no bucketing error and quantiles are clamped into `[min, max]`.
//! Values ≤ 0 (and non-finite values) land in a dedicated underflow bucket
//! whose representative value is 0.

use std::collections::BTreeMap;

/// Geometric resolution: sub-buckets per power of two.
pub const SUB_BUCKETS_PER_OCTAVE: f64 = 16.0;

/// A mergeable log-scaled histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Samples ≤ 0 or non-finite.
    zero: u64,
    /// Sparse geometric buckets: index → count.
    buckets: BTreeMap<i32, u64>,
}

/// Bucket index of a strictly positive finite value.
fn bucket_index(v: f64) -> i32 {
    (v.log2() * SUB_BUCKETS_PER_OCTAVE).floor() as i32
}

/// Representative (geometric midpoint) value of a bucket.
fn bucket_value(b: i32) -> f64 {
    2f64.powf((b as f64 + 0.5) / SUB_BUCKETS_PER_OCTAVE)
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of `v`, leaving the histogram `n` calls of
    /// [`Histogram::record`] would, bit for bit (the sum still adds `v`
    /// once per sample), for one bucket lookup.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        if v.is_finite() {
            for _ in 0..n {
                self.sum += v;
            }
        }
        if v > 0.0 && v.is_finite() {
            *self.buckets.entry(bucket_index(v)).or_insert(0) += n;
        } else {
            self.zero += n;
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.zero += other.zero;
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += c;
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the finite samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum (0 when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reconstructed from the buckets
    /// and clamped into `[min, max]`. Returns 0 when empty. The bucketing
    /// bounds the relative error at `2^(1/16) − 1 ≈ 4.4 %`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = self.zero;
        if acc >= rank {
            return self.min;
        }
        for (&b, &c) in &self.buckets {
            acc += c;
            if acc >= rank {
                return bucket_value(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Number of samples strictly above `threshold`, at bucket resolution:
    /// a bucket counts when its representative (geometric midpoint) value
    /// exceeds the threshold, so the answer carries the same ≈4.4 %
    /// boundary error as the quantiles. Exact min/max clamp the easy cases.
    #[must_use]
    pub fn count_over(&self, threshold: f64) -> u64 {
        if self.count == 0 || self.max <= threshold {
            return 0;
        }
        if self.min > threshold {
            return self.count;
        }
        self.buckets
            .iter()
            .filter(|(&b, _)| bucket_value(b) > threshold)
            .map(|(_, &c)| c)
            .sum()
    }

    /// The median sample (`quantile(0.5)`).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th-percentile sample (`quantile(0.99)`).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The 99.9th-percentile sample (`quantile(0.999)`) — the tail-latency
    /// readout the service layer and load generator report.
    #[must_use]
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn record_n_equals_repeated_records() {
        for v in [0.1, 3.0, 1e-300, 0.0, -2.5, f64::INFINITY, f64::NAN] {
            for n in [0, 1, 7] {
                let mut one = Histogram::new();
                let mut many = Histogram::new();
                one.record(0.7);
                many.record(0.7);
                one.record_n(v, n);
                for _ in 0..n {
                    many.record(v);
                }
                assert_eq!(one.count(), many.count());
                assert_eq!(one.sum().to_bits(), many.sum().to_bits(), "v = {v}");
                assert_eq!(one.min().to_bits(), many.min().to_bits(), "v = {v}");
                assert_eq!(one.max().to_bits(), many.max().to_bits(), "v = {v}");
                assert_eq!((one.zero, &one.buckets), (many.zero, &many.buckets));
            }
        }
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = Histogram::new();
        for v in [3.0, 5.0, 9.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 29.25).abs() < 1e-12);
        assert_eq!(h.min(), 3.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (q, expect) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            assert!(
                (got - expect).abs() / expect < 0.05,
                "q{q}: {got} vs {expect}"
            );
        }
        assert_eq!(h.quantile(1.0), 1000.0);
        assert_eq!(h.quantile(0.0), 1.0);
    }

    #[test]
    fn tail_accessors_track_their_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        assert_eq!(h.p50(), h.quantile(0.5));
        assert_eq!(h.p99(), h.quantile(0.99));
        assert_eq!(h.p999(), h.quantile(0.999));
        // The tail ordering must hold (p99 and p999 may share a geometric
        // bucket — the 4.4 % resolution — but never invert).
        assert!(h.p50() < h.p99() && h.p99() <= h.p999());
        assert!((h.p999() - 9990.0).abs() / 9990.0 < 0.05, "{}", h.p999());
        // A single-sample histogram collapses every quantile onto it.
        let mut one = Histogram::new();
        one.record(7.0);
        assert_eq!(one.p999(), 7.0);
    }

    #[test]
    fn tiny_values_bucket_correctly() {
        let mut h = Histogram::new();
        for _ in 0..10 {
            h.record(1e-12);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 1e-12).abs() / 1e-12 < 0.05, "p50 = {p50}");
    }

    #[test]
    fn count_over_matches_at_bucket_resolution() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64 * 10.0);
        }
        assert_eq!(h.count_over(2000.0), 0, "above max");
        assert_eq!(h.count_over(5.0), 100, "below min");
        // Threshold well inside the range: bucket resolution, ±5%.
        let over = h.count_over(500.0);
        assert!((45..=55).contains(&over), "count_over(500) = {over}");
        assert_eq!(Histogram::new().count_over(0.0), 0);
    }

    #[test]
    fn zero_and_negatives_go_to_underflow() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(4.0);
        assert_eq!(h.count(), 4);
        // Three of four samples are in the underflow bucket, so p50 ≤ 0.
        assert!(h.quantile(0.5) <= 0.0);
        assert_eq!(h.max(), 4.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..500 {
            let v = (i as f64) * 1.7 + 0.3;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn merge_into_empty_copies() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(42.0);
        a.merge(&b);
        assert_eq!(a, b);
        // Merging an empty histogram changes nothing.
        a.merge(&Histogram::new());
        assert_eq!(a, b);
    }
}
