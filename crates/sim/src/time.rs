//! Simulation time with femtosecond resolution.
//!
//! The aelite NoC mixes clock domains whose phase offsets are arbitrary
//! fractions of a clock period (mesochronous links) and whose periods may
//! differ by parts-per-million (plesiochronous wrappers). Femtosecond
//! integer timestamps represent all of those exactly for any realistic
//! on-chip frequency, with no floating-point drift: a `u64` of femtoseconds
//! covers more than five hours of simulated time.
//!
//! Two newtypes keep absolute instants and spans apart ([C-NEWTYPE]):
//!
//! * [`SimTime`] — an absolute instant since simulation start.
//! * [`SimDuration`] — a span between instants.
//!
//! # Examples
//!
//! ```
//! use aelite_sim::time::{Frequency, SimDuration, SimTime};
//!
//! let f = Frequency::from_mhz(500);
//! assert_eq!(f.period(), SimDuration::from_ps(2_000));
//! let t = SimTime::ZERO + f.period() * 3;
//! assert_eq!(t.as_fs(), 6_000_000);
//! ```

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Femtoseconds per picosecond.
pub const FS_PER_PS: u64 = 1_000;
/// Femtoseconds per nanosecond.
pub const FS_PER_NS: u64 = 1_000_000;
/// Femtoseconds per microsecond.
pub const FS_PER_US: u64 = 1_000_000_000;

/// An absolute simulation instant, measured in femtoseconds from time zero.
///
/// `SimTime` is totally ordered and supports the arithmetic a scheduler
/// needs: adding a [`SimDuration`] yields a later instant, and subtracting
/// two instants yields the span between them.
///
/// # Examples
///
/// ```
/// use aelite_sim::time::{SimDuration, SimTime};
///
/// let a = SimTime::from_ns(10);
/// let b = a + SimDuration::from_ps(500);
/// assert!(b > a);
/// assert_eq!(b - a, SimDuration::from_ps(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "never" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw femtoseconds.
    #[must_use]
    pub const fn from_fs(fs: u64) -> Self {
        SimTime(fs)
    }

    /// Creates an instant from picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps * FS_PER_PS)
    }

    /// Creates an instant from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * FS_PER_NS)
    }

    /// Creates an instant from microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * FS_PER_US)
    }

    /// Raw femtosecond count since time zero.
    #[must_use]
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) nanoseconds.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / FS_PER_NS as f64
    }

    /// The span from `earlier` to `self`, or `None` if `earlier` is later.
    #[must_use]
    pub(crate) const fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
        if self.0 >= earlier.0 {
            Some(SimDuration(self.0 - earlier.0))
        } else {
            None
        }
    }

    /// Saturating addition of a duration, clamping at [`SimTime::MAX`].
    #[must_use]
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

/// A span of simulated time, measured in femtoseconds.
///
/// # Examples
///
/// ```
/// use aelite_sim::time::SimDuration;
///
/// let period = SimDuration::from_ps(2_000);
/// assert_eq!(period * 3, SimDuration::from_ns(6));
/// assert_eq!((period * 3) / period, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from raw femtoseconds.
    #[must_use]
    pub const fn from_fs(fs: u64) -> Self {
        SimDuration(fs)
    }

    /// Creates a span from picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps * FS_PER_PS)
    }

    /// Creates a span from nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * FS_PER_NS)
    }

    /// Raw femtosecond count.
    #[must_use]
    pub const fn as_fs(self) -> u64 {
        self.0
    }

    /// This span expressed in (possibly fractional) nanoseconds.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / FS_PER_NS as f64
    }

    /// `self` scaled by a rational `num/den`, rounding to nearest femtosecond.
    ///
    /// Used for parts-per-million plesiochronous period offsets where a plain
    /// integer multiply would overflow or truncate.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    #[must_use]
    pub fn scale(self, num: u64, den: u64) -> SimDuration {
        assert!(den != 0, "scale denominator must be non-zero");
        let v = u128::from(self.0) * u128::from(num);
        let scaled = (v + u128::from(den / 2)) / u128::from(den);
        SimDuration(u64::try_from(scaled).expect("scaled duration overflows u64 femtoseconds"))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

/// A clock frequency, stored in kilohertz so that both "500 MHz" and
/// "499.95 MHz" (plesiochronous offsets) are exactly representable.
///
/// # Examples
///
/// ```
/// use aelite_sim::time::{Frequency, SimDuration};
///
/// let f = Frequency::from_mhz(650);
/// assert!((f.as_mhz_f64() - 650.0).abs() < 1e-9);
/// assert_eq!(f.period(), SimDuration::from_fs(1_538_462));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    khz: u64,
}

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    #[must_use]
    pub const fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "frequency must be non-zero");
        Frequency { khz: mhz * 1_000 }
    }

    /// The frequency in megahertz as a float (may be fractional).
    #[must_use]
    pub fn as_mhz_f64(self) -> f64 {
        self.khz as f64 / 1_000.0
    }

    /// The clock period, rounded to the nearest femtosecond.
    ///
    /// One femtosecond of rounding corresponds to a frequency error below
    /// one part per million for any on-chip clock, which is far below the
    /// plesiochronous offsets the models care about.
    #[must_use]
    pub fn period(self) -> SimDuration {
        // period_fs = 1e15 fs/s / (khz * 1e3 Hz) = 1e12 / khz
        SimDuration((1_000_000_000_000u64 + self.khz / 2) / self.khz)
    }

    /// A frequency offset by `ppm` parts per million (positive = faster),
    /// as [`ClockSpec::with_ppm`](crate::clock::ClockSpec::with_ppm)
    /// applies it.
    ///
    /// # Examples
    ///
    /// ```
    /// use aelite_sim::clock::ClockSpec;
    /// use aelite_sim::time::Frequency;
    ///
    /// let nominal = Frequency::from_mhz(500);
    /// let fast = ClockSpec::new(nominal).with_ppm(200);
    /// assert!(fast.period() < nominal.period());
    /// ```
    #[must_use]
    pub(crate) fn offset_ppm(self, ppm: i64) -> Frequency {
        let delta = (i128::from(self.khz) * i128::from(ppm)) / 1_000_000;
        let khz = i128::from(self.khz) + delta;
        assert!(khz > 0, "ppm offset drove frequency non-positive");
        Frequency { khz: khz as u64 }
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} MHz", self.as_mhz_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_constructors_agree() {
        assert_eq!(SimTime::from_ps(1), SimTime::from_fs(1_000));
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_ns(5);
        let d = SimDuration::from_ps(1_500);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn checked_since_orders_correctly() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(b.checked_since(a), Some(SimDuration::from_ns(1)));
        assert_eq!(a.checked_since(b), None);
        assert_eq!(a.checked_since(a), Some(SimDuration::ZERO));
    }

    #[test]
    fn duration_scale_rounds_to_nearest() {
        let d = SimDuration::from_fs(1_000_000);
        // +100 ppm
        assert_eq!(
            d.scale(1_000_100, 1_000_000),
            SimDuration::from_fs(1_000_100)
        );
        // A third, rounded.
        assert_eq!(
            SimDuration::from_fs(10).scale(1, 3),
            SimDuration::from_fs(3)
        );
        assert_eq!(
            SimDuration::from_fs(11).scale(1, 3),
            SimDuration::from_fs(4)
        );
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn duration_scale_rejects_zero_denominator() {
        let _ = SimDuration::from_fs(1).scale(1, 0);
    }

    #[test]
    fn frequency_period_is_exact_for_round_numbers() {
        assert_eq!(
            Frequency::from_mhz(500).period(),
            SimDuration::from_ps(2_000)
        );
        assert_eq!(
            Frequency::from_mhz(1_000).period(),
            SimDuration::from_ps(1_000)
        );
        assert_eq!(
            Frequency::from_mhz(250).period(),
            SimDuration::from_ps(4_000)
        );
    }

    #[test]
    fn frequency_period_rounds_irregular_values() {
        // 650 MHz -> 1538461.53... fs, rounds to 1538462.
        assert_eq!(
            Frequency::from_mhz(650).period(),
            SimDuration::from_fs(1_538_462)
        );
    }

    #[test]
    fn ppm_offset_moves_period_the_right_way() {
        let f = Frequency::from_mhz(500);
        assert!(f.offset_ppm(1_000).period() < f.period());
        assert!(f.offset_ppm(-1_000).period() > f.period());
        assert_eq!(f.offset_ppm(0), f);
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_ns(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn display_formats_in_ns() {
        assert_eq!(format!("{}", SimTime::from_ps(1_500)), "1.500 ns");
        assert_eq!(format!("{}", SimDuration::from_ps(250)), "0.250 ns");
        assert_eq!(format!("{}", Frequency::from_mhz(500)), "500.000 MHz");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = [SimDuration::from_ns(1), SimDuration::from_ns(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration::from_ns(3));
    }
}
