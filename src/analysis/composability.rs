//! Composability verification: timing equality across system compositions.
//!
//! aelite's central claim (paper Sections I, IV, VII) is *composability*:
//! the temporal behaviour of one application is completely unaffected by
//! every other application. The checkable consequence: per-connection
//! flit-delivery timelines are **bit-identical** whether the application
//! runs alone, with some other applications, or in the full system.
//!
//! This module compares such timelines in simulator-independent form, so
//! the same checker serves the turbo kernel behind
//! `AeliteSystem::simulate`, the event-driven network and (to
//! demonstrate the *failure* of composability) the best-effort baseline.

use aelite_spec::ids::ConnId;
use core::fmt;

/// One connection's delivery timeline: every delivery instant, in order,
/// in any consistent unit (destination-NI cycles for the GS simulators).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// The connection observed.
    pub conn: ConnId,
    /// Delivery instants, ascending.
    pub deliveries: Vec<u64>,
}

/// Where two timelines of the same connection first diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// Delivery `index` happens at different instants.
    Instant {
        /// Index of the first differing delivery.
        index: usize,
        /// Instant in the reference run.
        reference: u64,
        /// Instant in the compared run.
        compared: u64,
    },
    /// One run delivered more flits than the other.
    Length {
        /// Deliveries in the reference run.
        reference: usize,
        /// Deliveries in the compared run.
        compared: usize,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Instant {
                index,
                reference,
                compared,
            } => write!(f, "delivery #{index} moved from {reference} to {compared}"),
            Divergence::Length {
                reference,
                compared,
            } => write!(f, "delivery count changed from {reference} to {compared}"),
        }
    }
}

/// The outcome of a composability comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposabilityResult {
    /// Connections whose timelines diverged, with the first divergence.
    pub divergent: Vec<(ConnId, Divergence)>,
    /// Number of connections compared.
    pub compared: usize,
}

impl ComposabilityResult {
    /// Whether every compared connection was timing-identical.
    #[must_use]
    pub fn is_composable(&self) -> bool {
        self.divergent.is_empty()
    }
}

impl fmt::Display for ComposabilityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_composable() {
            write!(
                f,
                "composable: {} connections timing-identical",
                self.compared
            )
        } else {
            write!(
                f,
                "NOT composable: {}/{} connections diverged (first: {} {})",
                self.divergent.len(),
                self.compared,
                self.divergent[0].0,
                self.divergent[0].1
            )
        }
    }
}

/// Compares two sets of timelines connection by connection.
///
/// Connections present in `reference` but absent from `compared` are
/// ignored (the compared run may simulate a restricted system); the check
/// covers exactly the intersection.
#[must_use]
pub fn compare_timelines(reference: &[Timeline], compared: &[Timeline]) -> ComposabilityResult {
    let mut divergent = Vec::new();
    let mut n = 0;
    for r in reference {
        let Some(c) = compared.iter().find(|c| c.conn == r.conn) else {
            continue;
        };
        n += 1;
        if let Some(d) = first_divergence(&r.deliveries, &c.deliveries) {
            divergent.push((r.conn, d));
        }
    }
    ComposabilityResult {
        divergent,
        compared: n,
    }
}

fn first_divergence(reference: &[u64], compared: &[u64]) -> Option<Divergence> {
    for (i, (&a, &b)) in reference.iter().zip(compared).enumerate() {
        if a != b {
            return Some(Divergence::Instant {
                index: i,
                reference: a,
                compared: b,
            });
        }
    }
    if reference.len() != compared.len() {
        return Some(Divergence::Length {
            reference: reference.len(),
            compared: compared.len(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(conn: u32, deliveries: &[u64]) -> Timeline {
        Timeline {
            conn: ConnId::new(conn),
            deliveries: deliveries.to_vec(),
        }
    }

    #[test]
    fn identical_timelines_are_composable() {
        let a = [tl(0, &[3, 9, 15]), tl(1, &[6, 12])];
        let b = [tl(0, &[3, 9, 15]), tl(1, &[6, 12])];
        let r = compare_timelines(&a, &b);
        assert!(r.is_composable());
        assert_eq!(r.compared, 2);
    }

    #[test]
    fn shifted_instant_detected() {
        let a = [tl(0, &[3, 9, 15])];
        let b = [tl(0, &[3, 10, 15])];
        let r = compare_timelines(&a, &b);
        assert!(!r.is_composable());
        assert_eq!(
            r.divergent[0],
            (
                ConnId::new(0),
                Divergence::Instant {
                    index: 1,
                    reference: 9,
                    compared: 10
                }
            )
        );
    }

    #[test]
    fn missing_deliveries_detected() {
        let a = [tl(0, &[3, 9, 15])];
        let b = [tl(0, &[3, 9])];
        let r = compare_timelines(&a, &b);
        assert_eq!(
            r.divergent[0].1,
            Divergence::Length {
                reference: 3,
                compared: 2
            }
        );
    }

    #[test]
    fn absent_connections_are_skipped() {
        let a = [tl(0, &[1]), tl(1, &[2])];
        let b = [tl(0, &[1])];
        let r = compare_timelines(&a, &b);
        assert!(r.is_composable());
        assert_eq!(r.compared, 1);
    }

    #[test]
    fn prefix_difference_beats_length_difference() {
        // If both an instant differs and lengths differ, report the
        // instant (it is the earliest evidence).
        let a = [tl(0, &[1, 2, 3])];
        let b = [tl(0, &[1, 9])];
        let r = compare_timelines(&a, &b);
        assert!(matches!(
            r.divergent[0].1,
            Divergence::Instant { index: 1, .. }
        ));
    }

    #[test]
    fn display_summarises() {
        let ok = compare_timelines(&[tl(0, &[1])], &[tl(0, &[1])]);
        assert!(ok.to_string().contains("composable"));
        let bad = compare_timelines(&[tl(0, &[1])], &[tl(0, &[2])]);
        let text = bad.to_string();
        assert!(text.contains("NOT composable"), "{text}");
        assert!(text.contains("c0"), "{text}");
    }
}
