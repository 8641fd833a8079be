//! Simulation statistics: counters, counter sets and histograms.
//!
//! Every figure in the paper is regenerated from these primitives, so they
//! favour exactness (integer counters) over sampling.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use tee_sim::Counter;
/// let mut hits = Counter::default();
/// hits.add(3);
/// hits.add(1);
/// assert_eq!(hits.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// Adds `n` events.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A streaming histogram over `u64` samples with exact mean/min/max and
/// power-of-two bucket counts for distribution summaries.
///
/// # Example
///
/// ```
/// use tee_sim::Histogram;
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 4] { h.record(v); }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.mean(), 2.5);
/// assert_eq!(h.min(), Some(1));
/// assert_eq!(h.max(), Some(4));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: Option<u64>,
    max: Option<u64>,
    /// bucket index = floor(log2(sample+1)); bucket 0 holds sample 0.
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v as u128;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        let idx = if v == 0 { 0 } else { 64 - v.leading_zeros() };
        *self.buckets.entry(idx).or_insert(0) += 1;
    }

    /// Number of samples recorded. Read only by tests (the serve
    /// scheduler tests and `crates/fleet/tests/fleet.rs` count requests).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, if any. Read only by tests (the serve scheduler
    /// tests and `crates/fleet/tests/fleet.rs` compare TTFT extremes).
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, if any. Read only by tests (the serve scheduler
    /// tests and `crates/fleet/tests/fleet.rs` compare TTFT extremes).
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) from the
    /// power-of-two buckets, linearly interpolating within the winning
    /// bucket and clamping to the exact observed `[min, max]`. `None` when
    /// the histogram is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use tee_sim::Histogram;
    /// let mut h = Histogram::new();
    /// for v in [10u64, 20, 30, 1000] { h.record(v); }
    /// let p50 = h.percentile(0.50).unwrap();
    /// let p99 = h.percentile(0.99).unwrap();
    /// assert!(p50 <= p99);
    /// assert!(p99 <= 1000);
    /// ```
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let (min, max) = (self.min?, self.max?);
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the sample the quantile falls on.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (&idx, &n) in &self.buckets {
            cum += n;
            if cum >= rank {
                let floor = if idx == 0 { 0 } else { 1u64 << (idx - 1) };
                // The top bucket (idx 64, samples >= 2^63) has no 2^idx:
                // saturate instead of overflowing the shift.
                let ceil = match idx {
                    0 => 0,
                    64.. => u64::MAX,
                    _ => (1u64 << idx) - 1,
                };
                // Interpolate within the *observed* span of the bucket:
                // the highest occupied bucket's nominal ceiling can sit
                // far above the largest recorded sample (and the lowest
                // bucket's floor below the smallest), so walking toward
                // the nominal bound and clamping afterwards would pin
                // every tail quantile to `max`. Tighten the bounds first,
                // then interpolate.
                let lo = floor.max(min);
                let hi = ceil.min(max);
                // Position of the rank within this bucket, in (0, 1].
                let into = (rank - (cum - n)) as f64 / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * into;
                return Some((est.round() as u64).clamp(min, max));
            }
        }
        Some(max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for (&k, &v) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += v;
        }
    }
}

/// A named bundle of counters without a fixed schema, with an
/// order-independent merge: a serving instance's KV migration counters,
/// the fleet router's statistics, and a trace probe's counters.
///
/// # Example
///
/// ```
/// use tee_sim::StatSet;
/// let mut s = StatSet::new("meta_table");
/// s.bump("hit_in");
/// s.bump("hit_in");
/// s.bump("miss");
/// assert_eq!(s.get("hit_in"), 2);
/// assert_eq!(s.get("absent"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StatSet {
    name: String,
    counters: BTreeMap<String, Counter>,
}

impl StatSet {
    /// Creates an empty set with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        StatSet {
            name: name.into(),
            counters: BTreeMap::new(),
        }
    }

    /// Adds one to the named counter, creating it if absent.
    pub fn bump(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `n` to the named counter, creating it if absent (the key is
    /// only allocated then).
    pub fn add(&mut self, key: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(key) {
            c.add(n);
        } else {
            self.counters.insert(key.to_owned(), Counter(n));
        }
    }

    /// Reads a counter (0 when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).map_or(0, Counter::get)
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), v.get()))
    }

    /// Adds every counter of `other` into `self`. Addition is commutative
    /// and associative, so merge order cannot matter.
    pub fn merge(&mut self, other: &StatSet) {
        for (key, value) in other.iter() {
            self.add(key, value);
        }
    }
}

impl fmt::Display for StatSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.name)?;
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), 20.0);
        assert_eq!((h.min(), h.max()), (Some(10), Some(30)));
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = Histogram::new();
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(0.99), None);
    }

    #[test]
    fn percentile_single_sample_is_that_sample() {
        let mut h = Histogram::new();
        h.record(42);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(42), "q={q}");
        }
    }

    #[test]
    fn percentile_is_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in [1u64, 5, 9, 120, 130, 800, 900, 10_000] {
            h.record(v);
        }
        let p50 = h.percentile(0.50).unwrap();
        let p90 = h.percentile(0.90).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p50 >= h.min().unwrap() && p99 <= h.max().unwrap());
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.percentile(-1.0), Some(h.percentile(0.0).unwrap()));
        assert_eq!(h.percentile(2.0), Some(h.max().unwrap()));
    }

    #[test]
    fn percentile_survives_top_bucket_samples() {
        // Samples >= 2^63 land in bucket idx 64, whose upper bound must
        // saturate rather than overflow the shift.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.percentile(0.5), Some(u64::MAX));
        h.record(1);
        let p50 = h.percentile(0.5).unwrap();
        assert!((1..=u64::MAX).contains(&p50));
        assert_eq!(h.percentile(1.0), Some(u64::MAX));
    }

    #[test]
    fn percentile_tail_reaches_top_bucket() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        // p50 sits in the dense low bucket ([8, 15] for sample 10), p100 in
        // the outlier bucket.
        let p50 = h.percentile(0.5).unwrap();
        assert!((10..=15).contains(&p50), "{p50}");
        assert_eq!(h.percentile(1.0), Some(1_000_000));
    }

    #[test]
    fn percentile_top_bucket_interpolates_toward_observed_max() {
        // Regression: a skewed sample whose tail sits in a sparsely
        // filled top bucket. The bucket's nominal span is [2^19, 2^20-1]
        // but the largest observed sample is 600_000, so p99 must
        // interpolate toward 600_000 — not toward the nominal ceiling
        // (which the old code did, saturating p99 at exactly max).
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(600_000);
        }
        let p99 = h.percentile(0.99).unwrap();
        // rank 99 lands 0.9 into the top bucket: 524288 + 0.9·(600000 −
        // 524288) = 592428.8 → 592429.
        assert_eq!(p99, 592_429);
        assert!(p99 < h.max().unwrap(), "p99 must not saturate at max");
        // p100 still reaches the exact observed maximum.
        assert_eq!(h.percentile(1.0), Some(600_000));
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(15);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!((a.min(), a.max()), (Some(5), Some(15)));
    }

    #[test]
    fn histogram_merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(7);
        a.record(900);
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before, "merging an empty histogram must change nothing");
        // And the other direction: an empty histogram absorbs the donor.
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_merge_disjoint_ranges() {
        let mut low = Histogram::new();
        for v in [1, 2, 3] {
            low.record(v);
        }
        let mut high = Histogram::new();
        for v in [1_000_000, 2_000_000] {
            high.record(v);
        }
        low.merge(&high);
        assert_eq!(low.count(), 5);
        assert_eq!((low.min(), low.max()), (Some(1), Some(2_000_000)));
        // The merged histogram is exactly what recording the union gives.
        let mut union = Histogram::new();
        for v in [1, 2, 3, 1_000_000, 2_000_000] {
            union.record(v);
        }
        assert_eq!(low, union);
    }

    #[test]
    fn histogram_self_merge_doubles_counts_keeps_shape() {
        let mut h = Histogram::new();
        for v in [4, 4, 50, 700] {
            h.record(v);
        }
        let snapshot = h.clone();
        h.merge(&snapshot);
        assert_eq!(h.count(), 2 * snapshot.count());
        assert_eq!(h.min(), snapshot.min());
        assert_eq!(h.max(), snapshot.max());
        assert_eq!(h.mean(), snapshot.mean(), "doubling weights keeps the mean");
        assert_eq!(h.percentile(0.5), snapshot.percentile(0.5));
    }

    #[test]
    fn statset_merge_is_additive() {
        let mut a = StatSet::default();
        a.add("x", 2);
        a.add("y", 1);
        let mut b = StatSet::default();
        b.add("x", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 5);
        assert_eq!(a.get("y"), 1);
        assert_eq!(a.get("z"), 4);
        assert_eq!(a.iter().count(), 3);
    }

    #[test]
    fn statset_display_nonempty() {
        let mut s = StatSet::new("mee");
        s.bump("reads");
        let shown = s.to_string();
        assert!(shown.contains("mee"));
        assert!(shown.contains("reads: 1"));
    }
}
