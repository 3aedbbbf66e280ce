//! Latency statistics: summaries, percentiles and histograms.
//!
//! The paper's Section VII argues from latency *distributions*: best
//! effort gives lower averages but a much wider distribution with
//! significantly larger maxima. These helpers turn raw per-flit latency
//! samples into the numbers that argument needs.

use core::fmt;

/// A five-number-plus summary of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// Returns `None` for an empty slice: an empty measurement has no
    /// meaningful summary and silently returning zeros would corrupt
    /// downstream comparisons.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        Some(Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        })
    }

    /// The spread (max − min) — the paper's "distribution of flit
    /// latencies is much larger" is this number.
    #[must_use]
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={:.1} p50={:.1} mean={:.1} p95={:.1} p99={:.1} max={:.1}",
            self.count, self.min, self.p50, self.mean, self.p95, self.p99, self.max
        )
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `0..=100`.
#[must_use]
pub(crate) fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if p == 0.0 {
        return sorted[0];
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A linear-binned histogram for latency distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Samples below `lo` / above `hi`.
    under: u64,
    over: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs bins");
        assert!(hi > lo, "empty histogram range");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            under: 0,
            over: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if v < self.lo {
            self.under += 1;
        } else if v >= self.hi {
            self.over += 1;
        } else {
            let n = self.bins.len();
            let i = ((v - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[i.min(n - 1)] += 1;
        }
    }

    /// Extends with many samples.
    pub fn record_all<I: IntoIterator<Item = f64>>(&mut self, it: I) {
        for v in it {
            self.record(v);
        }
    }

    /// `(bin_low, bin_high, count)` rows for printing.
    pub fn rows(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + w * i as f64, self.lo + w * (i + 1) as f64, c))
    }

    /// Samples outside the range (under, over).
    #[must_use]
    pub fn outliers(&self) -> (u64, u64) {
        (self.under, self.over)
    }

    /// Total recorded samples, including outliers.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.under + self.over
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Histogram {
        /// The count per bin.
        fn bins(&self) -> &[u64] {
            &self.bins
        }
    }

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.spread(), 4.0);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn summary_is_order_independent() {
        let a = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        let b = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 95.0), 95.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_empty_panics() {
        let _ = percentile_sorted(&[], 50.0);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record_all([0.5, 1.5, 2.5, 9.9, -1.0, 10.0, 25.0]);
        assert_eq!(h.bins(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.outliers(), (1, 2));
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_rows_cover_range() {
        let mut h = Histogram::new(0.0, 100.0, 4);
        h.record(50.0);
        let rows: Vec<_> = h.rows().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, 0.0);
        assert_eq!(rows[3].1, 100.0);
        assert_eq!(rows[2], (50.0, 75.0, 1));
    }

    #[test]
    fn summary_display_is_complete() {
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        let text = s.to_string();
        for key in ["n=2", "min=", "max=", "p95="] {
            assert!(text.contains(key), "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "needs bins")]
    fn zero_bin_histogram_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
