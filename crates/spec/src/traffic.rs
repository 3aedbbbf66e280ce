//! Bandwidth, service requirements and traffic patterns.

use crate::app::Connection;
use core::fmt;

/// A sustained bandwidth in bytes per second.
///
/// Stored as an exact integer; the paper quotes connection requirements in
/// Mbyte/s (decimal, 10^6 bytes).
///
/// # Examples
///
/// ```
/// use aelite_spec::traffic::Bandwidth;
///
/// let bw = Bandwidth::from_mbytes_per_sec(500);
/// assert_eq!(bw.bytes_per_sec(), 500_000_000);
/// assert_eq!(bw.to_string(), "500.000 MB/s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Creates a bandwidth from bytes per second.
    #[must_use]
    pub const fn from_bytes_per_sec(bytes: u64) -> Self {
        Bandwidth(bytes)
    }

    /// Creates a bandwidth from decimal megabytes per second.
    #[must_use]
    pub const fn from_mbytes_per_sec(mb: u64) -> Self {
        Bandwidth(mb * 1_000_000)
    }

    /// The exact rate in bytes per second.
    #[must_use]
    pub const fn bytes_per_sec(self) -> u64 {
        self.0
    }

    /// The rate in decimal megabytes per second (may be fractional).
    #[must_use]
    pub(crate) fn mbytes_per_sec_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating sum of two bandwidths.
    #[must_use]
    pub const fn saturating_add(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.saturating_add(other.0))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} MB/s", self.mbytes_per_sec_f64())
    }
}

impl core::ops::Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl core::iter::Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, core::ops::Add::add)
    }
}

/// How an IP core offers traffic on a connection during simulation.
///
/// The service *contract* (bandwidth/latency) lives on the
/// [`Connection`]; the pattern describes the offered
/// load used to exercise that contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TrafficPattern {
    /// Constant bit rate at exactly the connection's contracted bandwidth,
    /// in fixed-size messages. This is the paper's evaluation regime.
    #[default]
    ConstantRate,
    /// The source always has data ready — used to measure the delivered
    /// (saturated) throughput against the allocated bound.
    Saturating,
    /// Periodic bursts: `burst_bytes` offered every `period_ns`, giving the
    /// same average rate as the contract but with worst-case jitter.
    Bursty {
        /// Bytes offered back-to-back at the start of each period.
        burst_bytes: u32,
        /// Burst repetition period in nanoseconds.
        period_ns: u32,
    },
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficPattern::ConstantRate => write!(f, "constant-rate"),
            TrafficPattern::Saturating => write!(f, "saturating"),
            TrafficPattern::Bursty {
                burst_bytes,
                period_ns,
            } => write!(f, "bursty({burst_bytes} B / {period_ns} ns)"),
        }
    }
}

/// How the simulators replay the offered load of `c` at
/// `frequency_mhz`: the bytes of one message (a whole burst for
/// [`TrafficPattern::Bursty`]) and the interval between message arrivals
/// in 48.16 fixed-point cycles, so a fractional interval does not drift.
/// The interval is 0 for [`TrafficPattern::Saturating`], whose source is
/// never empty.
#[must_use]
pub fn message_arrivals(c: &Connection, frequency_mhz: u64) -> (u64, u64) {
    let interval_cycles = match c.pattern {
        // message_bytes / (bw / f) cycles.
        TrafficPattern::ConstantRate => {
            let cycles_per_sec = (frequency_mhz * 1_000_000) as f64;
            f64::from(c.message_bytes) * cycles_per_sec / c.bandwidth.bytes_per_sec() as f64
        }
        TrafficPattern::Saturating => 0.0,
        TrafficPattern::Bursty { period_ns, .. } => {
            f64::from(period_ns) * frequency_mhz as f64 / 1_000.0
        }
    };
    let bytes = match c.pattern {
        TrafficPattern::Bursty { burst_bytes, .. } => burst_bytes,
        _ => c.message_bytes,
    };
    (u64::from(bytes), (interval_cycles * 65_536.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_constructors_agree() {
        assert_eq!(
            Bandwidth::from_mbytes_per_sec(10),
            Bandwidth::from_bytes_per_sec(10_000_000)
        );
    }

    #[test]
    fn bandwidth_sums() {
        let total: Bandwidth = [
            Bandwidth::from_mbytes_per_sec(10),
            Bandwidth::from_mbytes_per_sec(20),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, Bandwidth::from_mbytes_per_sec(30));
    }

    #[test]
    fn pattern_display() {
        assert_eq!(TrafficPattern::ConstantRate.to_string(), "constant-rate");
        assert_eq!(TrafficPattern::Saturating.to_string(), "saturating");
        assert_eq!(
            TrafficPattern::Bursty {
                burst_bytes: 128,
                period_ns: 1_000
            }
            .to_string(),
            "bursty(128 B / 1000 ns)"
        );
    }

    #[test]
    fn saturating_add_caps() {
        let max = Bandwidth::from_bytes_per_sec(u64::MAX);
        assert_eq!(max.saturating_add(max), max);
    }
}
