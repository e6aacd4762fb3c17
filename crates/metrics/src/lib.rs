//! Deterministic, allocation-lean latency histograms for the open-loop
//! experiments.
//!
//! The paper's Figure 1 compares *isolated* casts; the open-loop cells of
//! `CLAIMS.md` (E9, E13, E14) compare latency **distributions** under open load,
//! where the product metric is the tail — p99/p999 — not the mean. This
//! crate provides the one primitive those experiments record into:
//! [`Histogram`], a log-bucketed latency histogram in the HdrHistogram
//! family. Each power-of-two octave is split into 32 linear sub-buckets,
//! giving a guaranteed relative error of at most 1/32 (≈3.1%) at any
//! quantile. Its [`merge`](Histogram::merge) is associative and
//! commutative, so per-shard histograms combine in any order. Recording is
//! a shift, a mask and an add — no hashing, and no allocation once the
//! high-water bucket exists.
//!
//! # Determinism contract
//!
//! Everything here is pure integer arithmetic over explicitly recorded
//! samples: no clocks, no floats on the record path, no platform-dependent
//! iteration order. Two histograms that recorded the same multiset of
//! samples compare equal — regardless of recording order or how many
//! shards the samples were merged from. That is what lets the scale
//! harness assert "same seed ⇒ equal merged histograms on one worker
//! thread and on eight" (see `wamcast-harness/tests/scale_determinism.rs`).
//!
//! The simulator's byte-identical-schedules contract is preserved by
//! construction: the harness records latencies *after* a run, from the
//! timestamps already present in `RunMetrics` (record-at-delivery), so the
//! engine never sees the metrics layer at all.
//!
//! # Example
//!
//! ```
//! use wamcast_metrics::Histogram;
//!
//! let (mut a, mut b) = (Histogram::new(), Histogram::new());
//! for v in [100, 250] {
//!     a.record(v);
//! }
//! for v in [250, 900] {
//!     b.record(v);
//! }
//! let mut ab = a.clone();
//! ab.merge(&b);
//! assert_eq!(ab.count(), 4);
//! assert!((250..=258).contains(&ab.p50()), "within 1/32 of the exact median");
//! // Merge order does not matter: the result is the same value.
//! b.merge(&a);
//! assert_eq!(ab, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Linear sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS = 32` equal-width buckets, bounding the relative error of
/// any reported quantile by `2^-SUB_BITS` (≈3.1%).
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// A log-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// message counts, …).
///
/// Values below [`SUB_BUCKETS`] get exact width-1 buckets; from there each
/// power-of-two octave `[2^m, 2^{m+1})` is split into 32 linear
/// sub-buckets of width `2^{m-5}`, so any quantile estimate is within
/// 1/32 (≈3.1%) of the true sample. `count`/`sum`/`min`/`max` are exact.
///
/// Storage is a lazily grown `Vec<u64>` of bucket counts (at most 1920
/// entries for the full `u64` range); recording is one shift, one mask and
/// one add — no allocation once the high-water bucket exists.
///
/// [`merge`](Self::merge) adds bucket counts pointwise, which makes it
/// associative and commutative: per-thread or per-group histograms combine
/// into the same final state in any order (property-tested in this crate).
///
/// # Example
///
/// ```
/// use wamcast_metrics::Histogram;
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.min(), 1);
/// assert_eq!(h.max(), 1000);
/// // p50 within 3.1% of the exact median.
/// let p50 = h.p50() as f64;
/// assert!((p50 - 500.0).abs() <= 500.0 / 32.0 + 1.0, "{p50}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, indexed by [`bucket_index`]; trailing zero buckets
    /// are not materialized.
    buckets: Vec<u64>,
    count: u64,
    /// Exact sum of all samples (u128: 2^64 ns-sized samples cannot
    /// overflow it).
    sum: u128,
    min: u64,
    max: u64,
}

/// The bucket a sample lands in. Exposed so tests can reason about the
/// scheme directly.
///
/// # Example
///
/// ```
/// use wamcast_metrics::bucket_index;
/// assert_eq!(bucket_index(0), 0);
/// assert_eq!(bucket_index(31), 31);   // width-1 buckets up to 31
/// assert_eq!(bucket_index(32), 32);   // first octave starts linear
/// assert_eq!(bucket_index(64), 64);
/// assert_eq!(bucket_index(65), 64);   // width-2 buckets in [64, 128)
/// ```
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = msb - SUB_BITS;
        let offset = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
        ((shift as usize) + 1) * SUB_BUCKETS + offset
    }
}

/// Inclusive upper bound of bucket `idx` — the value [`Histogram`]
/// quantiles report for samples in that bucket.
///
/// # Example
///
/// ```
/// use wamcast_metrics::{bucket_index, bucket_high};
/// // The bound is tight: every value maps into a bucket whose bound is
/// // within 1/32 of it.
/// for v in [5u64, 100, 12_345, u64::MAX / 3] {
///     let high = bucket_high(bucket_index(v));
///     assert!(high >= v);
///     assert!(high - v <= v / 32 + 1);
/// }
/// ```
#[inline]
pub fn bucket_high(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        idx as u64
    } else {
        let octave = (idx / SUB_BUCKETS - 1) as u32 + SUB_BITS; // msb value
        let sub = (idx % SUB_BUCKETS) as u64;
        let width = 1u64 << (octave - SUB_BITS);
        (1u64 << octave) + sub * width + (width - 1)
    }
}

impl Default for Histogram {
    /// Same as [`Histogram::new`]: a derived default would start `min` at
    /// 0 and pin every later [`min`](Histogram::min) there.
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of the same sample value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (0 when empty).
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact smallest sample (0 when empty).
    #[inline]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the inclusive upper bound of
    /// the first bucket whose cumulative count reaches `ceil(q·count)`,
    /// clamped into `[min, max]` so the estimate never leaves the observed
    /// range. Within 1/32 (≈3.1%) of the exact order statistic; 0 when
    /// empty.
    ///
    /// # Example
    ///
    /// ```
    /// use wamcast_metrics::Histogram;
    /// let mut h = Histogram::new();
    /// for v in [10u64, 20, 30, 40] {
    ///     h.record(v);
    /// }
    /// assert_eq!(h.value_at_quantile(0.0), 10);
    /// assert_eq!(h.value_at_quantile(0.5), 20);
    /// assert_eq!(h.value_at_quantile(1.0), 40);
    /// ```
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (see [`value_at_quantile`](Self::value_at_quantile)).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.value_at_quantile(0.999)
    }

    /// Folds another histogram in: bucket counts add pointwise, so the
    /// operation is associative and commutative and the result equals a
    /// histogram that recorded both sample multisets directly.
    ///
    /// # Example
    ///
    /// ```
    /// use wamcast_metrics::Histogram;
    /// let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
    /// for v in [1u64, 2] { a.record(v); both.record(v); }
    /// for v in [3u64, 4] { b.record(v); both.record(v); }
    /// a.merge(&b);
    /// assert_eq!(a, both);
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_is_monotone_and_tight() {
        // Exhaustive over the exact range, sampled beyond it.
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "indices non-decreasing at {v}");
            prev = idx;
            let high = bucket_high(idx);
            assert!(high >= v, "upper bound covers {v}");
            assert!(high - v <= v / 32 + 1, "bound within 1/32 at {v}");
        }
        // Spot checks across octaves including the extremes.
        for v in [1u64 << 20, 1 << 40, u64::MAX / 2, u64::MAX] {
            let high = bucket_high(bucket_index(v));
            assert!(high >= v && (high - v) / 32 <= v / 32 / 16 + 1);
        }
        assert!(bucket_index(u64::MAX) < 1920);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn default_is_new() {
        let mut h = Histogram::default();
        assert_eq!(h, Histogram::new());
        h.record(7);
        assert_eq!(h.min(), 7);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.p50(), 5);
        assert_eq!(h.value_at_quantile(1.0), 31);
        assert_eq!(h.sum(), 42);
        assert_eq!(h.mean(), 8);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(77, 5);
        for _ in 0..5 {
            b.record(77);
        }
        assert_eq!(a, b);
        a.record_n(99, 0);
        assert_eq!(a.count(), 5, "zero-count record is a no-op");
    }

    #[test]
    fn quantiles_stay_within_observed_range() {
        let mut h = Histogram::new();
        h.record(1000);
        // A single sample: every quantile is that sample (clamped into
        // [min, max] despite the bucket bound being 1023).
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.value_at_quantile(q), 1000);
        }
    }
}
