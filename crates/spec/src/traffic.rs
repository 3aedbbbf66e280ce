//! Bandwidth, service requirements and traffic patterns.

use crate::app::Connection;
use crate::config::NocConfig;
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

/// One message an IP offers: the `seq`-th of its connection, `words`
/// long, labelled ready at `ready_cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Sequence number within the connection, from 0.
    pub seq: u32,
    /// Payload words.
    pub words: u32,
    /// The cycle the message counts as offered from: per-flit latency is
    /// measured from here (or from the end of the previous flit's slot).
    pub ready_cycle: u64,
}

/// The offered load of one connection, as every simulator replays it.
///
/// Message `k` of a [`TrafficPattern::ConstantRate`] or
/// [`TrafficPattern::Bursty`] source arrives at the instant `k · interval`,
/// kept in 48.16 fixed-point cycles so a fractional interval does not
/// drift: the source offers exactly the contracted rate. A message
/// becomes visible at the first clock edge whose cycle is at or after
/// its instant and is labelled ready at the instant rounded down. A
/// [`TrafficPattern::Saturating`] source is backlogged from the start of
/// its connection's first owned slot: it offers one endless message
/// (`u32::MAX` words) there.
///
/// # Examples
///
/// ```
/// use aelite_spec::generate::paper_workload;
/// use aelite_spec::traffic::MessageSource;
///
/// let spec = paper_workload(42);
/// let c = &spec.connections()[0];
/// let mut source = MessageSource::new(c, spec.config(), 0);
/// let first = source.pop_arrival(0).expect("message 0 arrives at cycle 0");
/// assert_eq!((first.seq, first.ready_cycle), (0, 0));
/// let due = source.next_cycle().expect("a constant-rate source never ends");
/// assert_eq!(source.arrivals_by(due), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSource {
    /// Bytes per message (a whole burst when bursty).
    message_bytes: u32,
    /// Payload words per message; `u32::MAX` for a saturating source.
    words: u32,
    /// Interval between arrivals in 48.16 fixed-point cycles; 0 for a
    /// saturating source, which offers a single message.
    interval_fp: u64,
    /// Instant of the next arrival in 48.16 fixed-point cycles.
    next_fp: u64,
    /// The first cycle at or after that instant, at whose edge the next
    /// message becomes visible; `u64::MAX` once a saturating source's
    /// message has arrived.
    visible: u64,
    /// Sequence number of the next message.
    seq: u32,
}

impl MessageSource {
    /// The source of `c` on a platform configured as `cfg`, where
    /// `first_slot` is the first slot-table entry the connection owns.
    #[must_use]
    pub fn new(c: &Connection, cfg: &NocConfig, first_slot: u32) -> Self {
        let cycles_per_sec = (cfg.frequency_mhz * 1_000_000) as f64;
        let (message_bytes, interval_cycles) = match c.pattern {
            // message_bytes / (bw / f) cycles.
            TrafficPattern::ConstantRate => (
                c.message_bytes,
                f64::from(c.message_bytes) * cycles_per_sec / c.bandwidth.bytes_per_sec() as f64,
            ),
            TrafficPattern::Saturating => (c.message_bytes, 0.0),
            TrafficPattern::Bursty {
                burst_bytes,
                period_ns,
            } => (
                burst_bytes,
                f64::from(period_ns) * cfg.frequency_mhz as f64 / 1_000.0,
            ),
        };
        let (words, interval_fp, next_fp) = if c.pattern == TrafficPattern::Saturating {
            let first_slot_cycle = u64::from(first_slot) * u64::from(cfg.slot_cycles());
            (u32::MAX, 0, first_slot_cycle << 16)
        } else {
            let words = message_bytes.div_ceil(cfg.data_width_bytes()).max(1);
            (words, ((interval_cycles * 65_536.0) as u64).max(1), 0)
        };
        MessageSource {
            message_bytes,
            words,
            interval_fp,
            next_fp,
            visible: next_fp.div_ceil(1 << 16),
            seq: 0,
        }
    }

    /// Bytes per message (a whole burst when bursty; one message's worth
    /// of the connection's message size when saturating).
    #[inline]
    #[must_use]
    pub fn message_bytes(&self) -> u32 {
        self.message_bytes
    }

    /// Payload words per message; `u32::MAX` when saturating.
    #[inline]
    #[must_use]
    pub fn words(&self) -> u32 {
        self.words
    }

    /// Whether the source is backlogged rather than timed.
    #[inline]
    #[must_use]
    pub fn is_saturating(&self) -> bool {
        self.interval_fp == 0
    }

    /// The first cycle at which the next message is visible, or `None`
    /// when no further message comes.
    #[inline]
    #[must_use]
    pub fn next_cycle(&self) -> Option<u64> {
        (self.visible != u64::MAX).then_some(self.visible)
    }

    /// How many further messages are visible by `cycle`, without taking
    /// them.
    #[inline]
    #[must_use]
    pub fn arrivals_by(&self, cycle: u64) -> u64 {
        if self.visible > cycle {
            0
        } else if self.is_saturating() {
            1
        } else {
            ((cycle << 16) - self.next_fp) / self.interval_fp + 1
        }
    }

    /// Takes the next message if it is visible by `cycle`.
    #[inline]
    pub fn pop_arrival(&mut self, cycle: u64) -> Option<Arrival> {
        if self.visible > cycle {
            return None;
        }
        let arrival = Arrival {
            seq: self.seq,
            words: self.words,
            ready_cycle: self.next_fp >> 16,
        };
        self.seq += 1;
        if self.is_saturating() {
            self.visible = u64::MAX;
        } else {
            self.next_fp = self.next_fp.saturating_add(self.interval_fp);
            self.visible = self.next_fp.div_ceil(1 << 16);
        }
        Some(arrival)
    }
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
