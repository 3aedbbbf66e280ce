//! Order statistics over repetitions: medians, quartiles and the
//! percentile rule (a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it).

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median and spread of one metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at rank `h` (0-based, fractional) of a sorted
/// sample, clamped to its ends.
fn at_rank(sorted: &[f64], h: f64) -> f64 {
    let last = sorted.len() - 1;
    let h = h.clamp(0.0, last as f64);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// The median of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    at_rank(&s, (s.len() - 1) as f64 / 2.0)
}

/// First and third quartile by the exclusive method — the cut points
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance spread is computed from. A single sample is its own
/// quartiles.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len() as f64;
    (
        at_rank(&s, (n + 1.0) * 0.25 - 1.0),
        at_rank(&s, (n + 1.0) * 0.75 - 1.0),
    )
}

/// Median, quartiles, extremes and count of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let (q1, q3) = quartiles(&s);
    Summary {
        median: median(&s),
        q1,
        q3,
        min: s[0],
        max: s[s.len() - 1],
        n: s.len(),
    }
}

/// The `p`-th percentile (nearest rank) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — the sample cannot
/// support that percentile.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, s.len().max(1));
    (s.len() >= rank + MIN_BEYOND).then(|| s[rank - 1])
}

/// Whether a sample of `n` values supports the `p`-th percentile.
pub fn supports(n: u64, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), (1.0, 3.0));
        // Two samples extrapolate past the ends in Python; we clamp.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = summarize(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 5.0, 9.0, 5));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, exactly ten samples beyond.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..999], 50.0), Some(500.0));
        // Twenty samples support the median (ten beyond) but nineteen do not.
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert!(supports(1000, 99.0) && !supports(999, 99.0));
        assert!(supports(20, 50.0) && !supports(19, 50.0));
    }
}
