//! Deterministic, allocation-lean metrics for the open-loop experiments.
//!
//! The paper's Figure 1 compares *isolated* casts; the open-loop cells of
//! `CLAIMS.md` (E9, E13, E14) compare latency **distributions** under open load,
//! where the product metric is the tail — p99/p999 — not the mean. This
//! crate provides the two primitives those experiments record into:
//!
//! * [`Counter`]-valued cells for monotonic event counts (casts,
//!   deliveries, sends), and
//! * [`Histogram`] — a log-bucketed latency histogram in the HdrHistogram
//!   family: 32 linear sub-buckets per power-of-two octave, giving a
//!   guaranteed relative error of at most 1/32 (≈3.1%) at any quantile,
//!   with an associative, commutative [`merge`](Histogram::merge) so
//!   per-shard histograms can be combined in any order.
//!
//! Both live in a [`MetricsRegistry`]: names are interned up front into
//! integer handles ([`CounterId`], [`HistogramId`]), so the record path is
//! an array index and an add — no hashing, no allocation — and the
//! [`dump`](MetricsRegistry::dump) / [`fingerprint`](MetricsRegistry::fingerprint)
//! are byte-deterministic (names sorted, bucket contents hashed exactly).
//!
//! # Determinism contract
//!
//! Everything here is pure integer arithmetic over explicitly recorded
//! samples: no clocks, no floats on the record path, no platform-dependent
//! iteration order. Two runs that record the same multiset of samples under
//! the same names produce byte-identical dumps and equal fingerprints —
//! regardless of recording order or how many shards the samples were
//! merged from. That is what lets the scale harness assert
//! "same seed ⇒ identical registry dump across `--threads 1` and
//! `--threads 8`" (see `wamcast-harness/tests/scale_determinism.rs`).
//!
//! The simulator's byte-identical-schedules contract is preserved by
//! construction: the harness records latencies *after* a run, from the
//! timestamps already present in `RunMetrics` (record-at-delivery), so the
//! engine never sees the metrics layer at all.
//!
//! # Example
//!
//! ```
//! use wamcast_metrics::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! let ops = reg.counter("ops");
//! let lat = reg.histogram("latency_ns");
//! for v in [100, 250, 250, 900] {
//!     reg.inc(ops, 1);
//!     reg.record(lat, v);
//! }
//! assert_eq!(reg.counter_value(ops), 4);
//! let p50 = reg.histogram_ref(lat).p50();
//! assert!((250..=258).contains(&p50), "within 1/32 of the exact median");
//! // Dumps and fingerprints are deterministic functions of the contents.
//! assert_eq!(reg.fingerprint(), reg.clone().fingerprint());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Linear sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS = 32` equal-width buckets, bounding the relative error of
/// any reported quantile by `2^-SUB_BITS` (≈3.1%).
pub const SUB_BITS: u32 = 5;

/// Sub-buckets per octave (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// A monotonic event counter.
///
/// Plain data — the interesting structure is in [`MetricsRegistry`], which
/// owns counters by name and hands out [`CounterId`] handles for the hot
/// path.
///
/// # Example
///
/// ```
/// use wamcast_metrics::Counter;
/// let mut c = Counter::new();
/// c.inc(3);
/// c.inc(4);
/// assert_eq!(c.value(), 7);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds `n` (saturating: a counter never wraps backwards).
    #[inline]
    pub fn inc(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Folds another counter in (sum; associative and commutative).
    #[inline]
    pub fn merge(&mut self, other: Counter) {
        self.inc(other.0);
    }
}

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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

/// The bucket a sample lands in. Exposed so tests (and the dump format)
/// can reason about the scheme directly.
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

    /// Non-empty buckets as `(index, count)` pairs, ascending — the exact
    /// state [`MetricsRegistry::fingerprint`] hashes.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n != 0)
            .map(|(i, &n)| (i, n))
    }
}

/// Handle to a registered counter (an index; `Copy`, cheap to pass around).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A named collection of counters and histograms with a deterministic
/// text dump and fingerprint.
///
/// Register names up front (idempotent — re-registering a name returns the
/// same handle), then record through the integer handles; the hot path
/// never touches the name map. Dumps list metrics sorted by name, so two
/// registries with equal contents render byte-identically however they
/// were built.
///
/// # Example
///
/// ```
/// use wamcast_metrics::MetricsRegistry;
/// let mut a = MetricsRegistry::new();
/// let h = a.histogram("deliver_ns");
/// a.record(h, 1_000);
///
/// // A second registry built in a different order merges to the same state.
/// let mut b = MetricsRegistry::new();
/// b.counter("sends");
/// let h2 = b.histogram("deliver_ns");
/// b.record(h2, 2_000);
/// a.merge(&b);
/// assert_eq!(a.histogram_ref(h).count(), 2);
/// assert!(a.dump().contains("deliver_ns"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    names: BTreeMap<String, Slot>,
    counters: Vec<Counter>,
    histograms: Vec<Histogram>,
}

#[derive(Clone, Copy, Debug)]
enum Slot {
    Counter(usize),
    Histogram(usize),
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or looks up) a counter by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a histogram.
    pub fn counter(&mut self, name: &str) -> CounterId {
        match self.names.get(name) {
            Some(Slot::Counter(i)) => CounterId(*i),
            Some(Slot::Histogram(_)) => {
                panic!("metric {name} already registered as a histogram")
            }
            None => {
                let i = self.counters.len();
                self.counters.push(Counter::new());
                self.names.insert(name.to_string(), Slot::Counter(i));
                CounterId(i)
            }
        }
    }

    /// Registers (or looks up) a histogram by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        match self.names.get(name) {
            Some(Slot::Histogram(i)) => HistogramId(*i),
            Some(Slot::Counter(_)) => {
                panic!("metric {name} already registered as a counter")
            }
            None => {
                let i = self.histograms.len();
                self.histograms.push(Histogram::new());
                self.names.insert(name.to_string(), Slot::Histogram(i));
                HistogramId(i)
            }
        }
    }

    /// Adds `n` to a counter (array index + add; no lookup).
    #[inline]
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].inc(n);
    }

    /// Records a sample into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistogramId, v: u64) {
        self.histograms[id.0].record(v);
    }

    /// Current value of a counter.
    #[inline]
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value()
    }

    /// Read access to a histogram.
    #[inline]
    pub fn histogram_ref(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id.0]
    }

    /// Looks a histogram up by name (slow path; for reporting).
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        match self.names.get(name)? {
            Slot::Histogram(i) => Some(&self.histograms[*i]),
            Slot::Counter(_) => None,
        }
    }

    /// Looks a counter value up by name (slow path; for reporting).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        match self.names.get(name)? {
            Slot::Counter(i) => Some(self.counters[*i].value()),
            Slot::Histogram(_) => None,
        }
    }

    /// Folds another registry in by name: counters add, histograms merge,
    /// names absent here are registered. Associative and commutative —
    /// per-shard registries combine to the same state in any order.
    ///
    /// # Panics
    ///
    /// Panics if a name is a counter in one registry and a histogram in
    /// the other.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, slot) in &other.names {
            match slot {
                Slot::Counter(i) => {
                    let id = self.counter(name);
                    self.inc(id, other.counters[*i].value());
                }
                Slot::Histogram(i) => {
                    let id = self.histogram(name);
                    self.histograms[id.0].merge(&other.histograms[*i]);
                }
            }
        }
    }

    /// Renders every metric, sorted by name, one per line — the
    /// deterministic artifact `scale_determinism` compares across runs.
    ///
    /// Counters render as `counter <name> <value>`; histograms as
    /// `hist <name> count=<n> min=<v> p50=<v> p99=<v> p999=<v> max=<v>
    /// sum=<v> mean=<v>` — `count`, `min`, `max` and `sum` are exact;
    /// `sum` is included so a consumer can cross-check `mean` (which
    /// rounds) and aggregate dumps without access to the buckets.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for (name, slot) in &self.names {
            match slot {
                Slot::Counter(i) => {
                    let _ = writeln!(out, "counter {name} {}", self.counters[*i].value());
                }
                Slot::Histogram(i) => {
                    let h = &self.histograms[*i];
                    let _ = writeln!(
                        out,
                        "hist {name} count={} min={} p50={} p99={} p999={} max={} sum={} mean={}",
                        h.count(),
                        h.min(),
                        h.p50(),
                        h.p99(),
                        h.p999(),
                        h.max(),
                        h.sum(),
                        h.mean(),
                    );
                }
            }
        }
        out
    }

    /// FNV-1a fingerprint of the full registry state: names, counter
    /// values and *exact* histogram bucket contents (not just the summary
    /// quantiles). Equal fingerprints mean observationally identical
    /// registries.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fnv::new();
        for (name, slot) in &self.names {
            f.write(name.as_bytes());
            match slot {
                Slot::Counter(i) => {
                    f.write_u64(0);
                    f.write_u64(self.counters[*i].value());
                }
                Slot::Histogram(i) => {
                    f.write_u64(1);
                    let h = &self.histograms[*i];
                    f.write_u64(h.count());
                    f.write_u64(h.min());
                    f.write_u64(h.max());
                    f.write_u64(h.sum() as u64);
                    f.write_u64((h.sum() >> 64) as u64);
                    for (idx, n) in h.nonzero_buckets() {
                        f.write_u64(idx as u64);
                        f.write_u64(n);
                    }
                }
            }
        }
        f.finish()
    }
}

/// Minimal FNV-1a 64-bit hasher (the same construction the harness golden
/// corpora use; kept here so the crate stays dependency-free).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
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

    #[test]
    fn registry_handles_are_idempotent_and_typed() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        let h = reg.histogram("y");
        assert_eq!(reg.histogram("y"), h);
        reg.inc(a, 2);
        reg.record(h, 9);
        assert_eq!(reg.counter_by_name("x"), Some(2));
        assert_eq!(reg.histogram_by_name("y").unwrap().count(), 1);
        assert_eq!(reg.counter_by_name("y"), None);
        assert!(reg.histogram_by_name("x").is_none());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn name_collision_across_kinds_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x");
        reg.histogram("x");
    }

    #[test]
    fn dump_is_sorted_and_stable() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("zzz");
        let c = reg.counter("aaa");
        reg.inc(c, 7);
        reg.record(h, 100);
        let d = reg.dump();
        let lines: Vec<&str> = d.lines().collect();
        assert_eq!(lines[0], "counter aaa 7");
        assert!(lines[1].starts_with("hist zzz count=1 min=100"));
        // The exact fields survive quantization: one 100-valued sample.
        for field in ["count=1", "max=100", "sum=100"] {
            assert!(lines[1].contains(field), "missing {field}: {}", lines[1]);
        }
        assert_eq!(d, reg.dump());
    }

    #[test]
    fn fingerprint_distinguishes_contents() {
        let mut a = MetricsRegistry::new();
        let h = a.histogram("lat");
        a.record(h, 10);
        let mut b = MetricsRegistry::new();
        let h2 = b.histogram("lat");
        b.record(h2, 11);
        assert_ne!(a.fingerprint(), b.fingerprint());
        b = MetricsRegistry::new();
        let h3 = b.histogram("lat");
        b.record(h3, 10);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn merge_by_name_adds_and_registers() {
        let mut a = MetricsRegistry::new();
        let c = a.counter("n");
        a.inc(c, 1);
        let mut b = MetricsRegistry::new();
        let c2 = b.counter("n");
        b.inc(c2, 2);
        let h = b.histogram("lat");
        b.record(h, 5);
        a.merge(&b);
        assert_eq!(a.counter_by_name("n"), Some(3));
        assert_eq!(a.histogram_by_name("lat").unwrap().count(), 1);
    }
}
