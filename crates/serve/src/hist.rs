//! A hand-rolled HDR-style latency histogram: log-linear buckets with
//! bounded relative error and O(1) recording.
//!
//! Values below 16 get one exact bucket each; every power-of-two octave
//! above that is split into 16 linear sub-buckets, so any recorded value
//! lands in a bucket whose width is at most 1/16 of its magnitude
//! (~6% relative resolution) — the classic high-dynamic-range layout,
//! sized here for nanosecond latencies from tens of ns to minutes.

/// Exact buckets below this value (one bucket per integer).
const LINEAR_MAX: u64 = 16;
/// Linear sub-buckets per power-of-two octave above [`LINEAR_MAX`].
const SUBS: usize = 16;
/// Octaves: exponents 4..=63 (values 16 .. u64::MAX).
const OCTAVES: usize = 60;
/// Total bucket count.
const BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUBS;

/// A log-linear latency histogram with ~6% relative bucket resolution.
///
/// Recording is branch-light O(1) (a leading-zeros count and two
/// shifts); [`percentile`](Self::percentile) reports the upper bound of
/// the bucket holding the requested quantile, clamped to the true
/// observed maximum — so `percentile(100.0)` is exact and every other
/// quantile is overestimated by at most one bucket width.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// The bucket a value lands in.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (exp - 4)) - LINEAR_MAX) as usize;
        (exp - 4) * SUBS + LINEAR_MAX as usize + sub
    }
}

/// The largest value mapping to bucket `idx` (inverse of
/// [`bucket_index`], upper edge).
#[inline]
fn bucket_upper(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else {
        let exp = (idx - LINEAR_MAX as usize) / SUBS + 4;
        let sub = ((idx - LINEAR_MAX as usize) % SUBS) as u64;
        let lower = (LINEAR_MAX + sub) << (exp - 4);
        lower + (1u64 << (exp - 4)) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    /// Records one value (a latency in nanoseconds, by convention).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.sum += u128::from(v);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (0 if empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at or below which `p`% of recordings fall, reported as
    /// the holding bucket's upper edge clamped to the observed maximum
    /// (0 if empty).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.percentile(100.0), 15);
        assert_eq!(h.percentile(0.0), 0);
        // ceil(0.5 * 16) = 8th value of 0..=15 → 7.
        assert_eq!(h.percentile(50.0), 7);
    }

    #[test]
    fn buckets_cover_the_u64_range_in_order() {
        // Index is monotone and the upper edge really bounds its bucket.
        let mut prev = 0;
        for shift in 0..60 {
            for v in [16u64 << shift, (16u64 << shift) + (1u64 << shift) - 1] {
                let idx = bucket_index(v);
                assert!(idx >= prev, "index not monotone at {v}");
                assert!(bucket_upper(idx) >= v);
                assert!(idx == 0 || bucket_upper(idx - 1) < v);
                prev = idx;
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        let v = 123_456_789;
        h.record(v);
        let p = h.percentile(99.0);
        assert!(p >= v);
        assert!((p - v) as f64 / v as f64 <= 1.0 / 16.0, "p={p} for v={v}");
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..10_000u64 {
            h.record(i * 37 % 5_000);
        }
        let mut prev = 0;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev);
            prev = v;
        }
    }
}
