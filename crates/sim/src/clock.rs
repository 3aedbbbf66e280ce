//! Clock domains for globally-asynchronous locally-synchronous simulation.
//!
//! Every sequential component in an aelite model belongs to exactly one
//! [`ClockSpec`]-described domain. Three relationships between domains occur
//! in the paper and are all expressible here:
//!
//! * **synchronous** — identical period and phase;
//! * **mesochronous** — identical period, arbitrary phase (Section V);
//! * **plesiochronous** — nominally equal periods offset by ppm (Section VI).
//!
//! # Examples
//!
//! ```
//! use aelite_sim::clock::ClockSpec;
//! use aelite_sim::time::{Frequency, SimDuration, SimTime};
//!
//! let clk = ClockSpec::new(Frequency::from_mhz(500)).with_phase(SimDuration::from_ps(700));
//! assert_eq!(clk.edge(0), SimTime::from_ps(700));
//! assert_eq!(clk.edge(3), SimTime::from_ps(700 + 3 * 2_000));
//! ```

use crate::time::{Frequency, SimDuration, SimTime};
use core::fmt;

/// Describes one clock domain: nominal frequency, phase offset and optional
/// parts-per-million drift from nominal.
///
/// The *k*-th rising edge occurs at `phase + k * period`, where the period
/// already includes the ppm offset. All sequential state in a domain updates
/// on rising edges; the simulator does not model falling edges because none
/// of the aelite components are negative-edge triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockSpec {
    nominal: Frequency,
    period: SimDuration,
    phase: SimDuration,
    ppm: i64,
}

impl ClockSpec {
    /// A clock at `nominal` frequency with zero phase and zero drift.
    #[must_use]
    pub fn new(nominal: Frequency) -> Self {
        ClockSpec {
            nominal,
            period: nominal.period(),
            phase: SimDuration::ZERO,
            ppm: 0,
        }
    }

    /// Returns this clock shifted by `phase` (first edge at `phase`).
    ///
    /// Mesochronous neighbours are modelled as two clocks with equal
    /// frequency and different phases.
    ///
    /// # Panics
    ///
    /// Panics if `phase` is not smaller than the period: phases are defined
    /// modulo one period, and a larger value almost certainly indicates a
    /// unit mistake in the caller.
    #[must_use]
    pub fn with_phase(mut self, phase: SimDuration) -> Self {
        assert!(
            phase < self.period,
            "phase {phase} must be less than the clock period {}",
            self.period
        );
        self.phase = phase;
        self
    }

    /// Returns this clock with its period offset by `ppm` parts per million
    /// (positive = faster clock, shorter period).
    ///
    /// Plesiochronous elements (Section VI of the paper) are modelled as
    /// clocks with equal nominal frequency and small opposite ppm offsets.
    #[must_use]
    pub fn with_ppm(mut self, ppm: i64) -> Self {
        self.ppm = ppm;
        self.period = self.nominal.offset_ppm(ppm).period();
        self
    }

    /// The nominal (data-sheet) frequency of this clock.
    #[must_use]
    pub fn nominal(&self) -> Frequency {
        self.nominal
    }

    /// The actual period, including any ppm offset.
    #[must_use]
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The phase of the first rising edge.
    #[must_use]
    pub fn phase(&self) -> SimDuration {
        self.phase
    }

    /// The ppm drift applied to the nominal frequency.
    #[must_use]
    pub fn ppm(&self) -> i64 {
        self.ppm
    }

    /// The instant of rising edge number `k` (0-based).
    #[must_use]
    pub fn edge(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.phase + self.period * k
    }

    /// The number of complete cycles elapsed at instant `t`, i.e. the number
    /// of rising edges at or before `t`.
    ///
    /// # Examples
    ///
    /// ```
    /// use aelite_sim::clock::ClockSpec;
    /// use aelite_sim::time::{Frequency, SimTime};
    ///
    /// let clk = ClockSpec::new(Frequency::from_mhz(500));
    /// assert_eq!(clk.edges_at_or_before(SimTime::ZERO), 1); // edge 0 at t=0
    /// assert_eq!(clk.edges_at_or_before(SimTime::from_ps(1_999)), 1);
    /// assert_eq!(clk.edges_at_or_before(SimTime::from_ps(2_000)), 2);
    /// ```
    #[must_use]
    pub fn edges_at_or_before(&self, t: SimTime) -> u64 {
        match t.checked_since(SimTime::ZERO + self.phase) {
            None => 0,
            Some(since) => since / self.period + 1,
        }
    }
}

impl fmt::Display for ClockSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (phase {}, {:+} ppm)",
            self.nominal, self.phase, self.ppm
        )
    }
}

/// Identifies a clock domain registered with a
/// [`Simulator`](crate::scheduler::Simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub(crate) usize);

impl DomainId {
    /// The raw index of this domain in registration order.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "domain#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mhz(m: u64) -> Frequency {
        Frequency::from_mhz(m)
    }

    #[test]
    fn edges_are_period_apart() {
        let clk = ClockSpec::new(mhz(500));
        assert_eq!(clk.edge(1) - clk.edge(0), clk.period());
        assert_eq!(clk.edge(10) - clk.edge(9), clk.period());
    }

    #[test]
    fn phase_shifts_all_edges() {
        let base = ClockSpec::new(mhz(500));
        let shifted = ClockSpec::new(mhz(500)).with_phase(SimDuration::from_ps(900));
        for k in 0..5 {
            assert_eq!(shifted.edge(k) - base.edge(k), SimDuration::from_ps(900));
        }
    }

    #[test]
    #[should_panic(expected = "less than the clock period")]
    fn phase_must_be_less_than_period() {
        let _ = ClockSpec::new(mhz(500)).with_phase(SimDuration::from_ps(2_000));
    }

    #[test]
    fn ppm_changes_period() {
        let nominal = ClockSpec::new(mhz(500));
        let fast = ClockSpec::new(mhz(500)).with_ppm(10_000); // +1%
        assert!(fast.period() < nominal.period());
        assert_eq!(fast.nominal(), nominal.nominal());
        assert_eq!(fast.ppm(), 10_000);
    }

    #[test]
    fn edges_at_or_before_counts_inclusively() {
        let clk = ClockSpec::new(mhz(500)).with_phase(SimDuration::from_ps(500));
        assert_eq!(clk.edges_at_or_before(SimTime::from_ps(499)), 0);
        assert_eq!(clk.edges_at_or_before(SimTime::from_ps(500)), 1);
        assert_eq!(clk.edges_at_or_before(SimTime::from_ps(2_499)), 1);
        assert_eq!(clk.edges_at_or_before(SimTime::from_ps(2_500)), 2);
    }

    #[test]
    fn display_mentions_phase_and_ppm() {
        let c = ClockSpec::new(mhz(500))
            .with_phase(SimDuration::from_ps(10))
            .with_ppm(-5);
        let s = format!("{c}");
        assert!(s.contains("500.000 MHz"), "{s}");
        assert!(s.contains("-5 ppm"), "{s}");
    }
}
