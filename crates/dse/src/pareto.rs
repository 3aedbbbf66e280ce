//! Pareto-front extraction for the sweep collector.
//!
//! The headline trade-off of the paper's evaluation is silicon cost
//! against guaranteed service: a design point earns its place only if no
//! other point is at least as cheap *and* guarantees at least as much
//! throughput (strictly better in one of the two). This module extracts
//! that front with a plain O(n²) dominance scan — sweeps are hundreds of
//! points, not millions, and the simple scan keeps tie-breaking exact
//! and obviously deterministic.

/// One candidate for the front: a cost to minimise and a value to
/// maximise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The objective to minimise (e.g. silicon area in mm²).
    pub cost: f64,
    /// The objective to maximise (e.g. guaranteed throughput in GB/s).
    pub value: f64,
}

/// Whether `a` Pareto-dominates `b`: no worse on both objectives and
/// strictly better on at least one.
#[must_use]
pub(crate) fn dominates(a: Candidate, b: Candidate) -> bool {
    a.cost <= b.cost && a.value >= b.value && (a.cost < b.cost || a.value > b.value)
}

/// Indices of the non-dominated candidates, in input order.
///
/// Exact duplicates (identical cost *and* value) do not dominate each
/// other, so tied points all stay on the front — a sweep reporting two
/// distinct configurations with identical metrics should show both.
///
/// # Examples
///
/// ```
/// use aelite_dse::pareto::{pareto_front, Candidate};
///
/// let c = |cost, value| Candidate { cost, value };
/// // (1, 5) and (2, 9) trade off; (3, 4) is dominated by both.
/// let front = pareto_front(&[c(1.0, 5.0), c(3.0, 4.0), c(2.0, 9.0)]);
/// assert_eq!(front, vec![0, 2]);
/// ```
#[must_use]
pub fn pareto_front(candidates: &[Candidate]) -> Vec<usize> {
    (0..candidates.len())
        .filter(|&i| {
            !candidates
                .iter()
                .enumerate()
                .any(|(j, &other)| j != i && dominates(other, candidates[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(cost: f64, value: f64) -> Candidate {
        Candidate { cost, value }
    }

    #[test]
    fn empty_set_has_empty_front() {
        assert_eq!(pareto_front(&[]), Vec::<usize>::new());
    }

    #[test]
    fn single_point_is_its_own_front() {
        assert_eq!(pareto_front(&[c(3.0, 1.0)]), vec![0]);
    }

    #[test]
    fn dominated_points_are_dropped() {
        // (2, 2) loses to (1, 3) on both axes; (1, 3) and (4, 9) trade off.
        let front = pareto_front(&[c(1.0, 3.0), c(2.0, 2.0), c(4.0, 9.0)]);
        assert_eq!(front, vec![0, 2]);
    }

    #[test]
    fn strict_dominance_requires_one_strict_inequality() {
        // Same cost, higher value dominates; same value, lower cost
        // dominates.
        assert!(dominates(c(1.0, 5.0), c(1.0, 4.0)));
        assert!(dominates(c(1.0, 5.0), c(2.0, 5.0)));
        assert!(
            !dominates(c(1.0, 5.0), c(1.0, 5.0)),
            "equal never dominates"
        );
    }

    #[test]
    fn tied_duplicates_all_stay_on_the_front() {
        let front = pareto_front(&[c(1.0, 5.0), c(1.0, 5.0), c(9.0, 1.0)]);
        assert_eq!(
            front,
            vec![0, 1],
            "duplicates keep each other, both beat nothing"
        );
    }

    #[test]
    fn partial_ties_on_one_axis() {
        // (1, 5) vs (1, 7): same cost, second wins. (0.5, 5) incomparable
        // to (1, 7) (cheaper but lower value).
        let front = pareto_front(&[c(1.0, 5.0), c(1.0, 7.0), c(0.5, 5.0)]);
        assert_eq!(front, vec![1, 2]);
    }

    #[test]
    fn chain_of_dominance_collapses_to_the_best() {
        let front = pareto_front(&[c(4.0, 1.0), c(3.0, 2.0), c(2.0, 3.0), c(1.0, 4.0)]);
        assert_eq!(front, vec![3]);
    }

    #[test]
    fn incomparable_points_all_survive() {
        let pts: Vec<Candidate> = (0..6).map(|i| c(f64::from(i), f64::from(i))).collect();
        assert_eq!(pareto_front(&pts), vec![0, 1, 2, 3, 4, 5]);
    }
}
