//! Simulation-backed validation of the Pareto front.
//!
//! The sweep's guarantees are *analytical*: every point's
//! `worst_case_flit_latency_ns` comes from the allocator's closed-form
//! bound, never from simulation. That is the paper's promise — but a
//! promise worth spot-checking. This module replays every point of a
//! report's area-vs-throughput Pareto front through the cycle-accurate
//! **turbo kernel** ([`aelite_noc::turbo`], bit-for-bit equivalent to
//! the event-driven [`Simulator`]-based build and fast enough to run in
//! CI) and asserts that the **measured** worst-case per-flit latency of
//! every connection stays within the analytical bound.
//!
//! Determinism carries over: a point's workload, allocation and traffic
//! are pure functions of its [`DseGrid`](crate::grid::DseGrid)
//! coordinates, and the turbo kernel is deterministic, so validation
//! verdicts are reproducible bit-for-bit.
//!
//! [`Simulator`]: aelite_sim::scheduler::Simulator

use crate::engine::design;
use crate::grid::DesignPoint;
use crate::report::DseReport;
use aelite_alloc::{Allocator, RouteCache};
use aelite_noc::network::NetworkKind;
use aelite_noc::turbo::build_turbo;
use core::fmt;

/// The simulated horizon of one validation replay, in cycles — enough
/// table revolutions for every connection (slowest CBR interval ≈ 3200
/// cycles at the 10 MB/s floor) to deliver a healthy flit sample.
pub const VALIDATE_DURATION_CYCLES: u64 = 30_000;

/// The verdict of replaying one Pareto-front point.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidatedPoint {
    /// The point's stable id.
    pub id: String,
    /// `synchronous` or `mesochronous` (from the point's pipeline depth).
    pub kind: &'static str,
    /// Connections simulated.
    pub connections: u32,
    /// Total flits delivered inside the horizon.
    pub flits: u64,
    /// Worst measured per-flit latency over all connections, cycles.
    pub worst_measured_cycles: u64,
    /// Worst analytical bound over all connections, cycles.
    pub worst_bound_cycles: u64,
}

impl ValidatedPoint {
    /// Measured worst case as a fraction of the analytical bound.
    #[must_use]
    pub fn headroom(&self) -> f64 {
        if self.worst_bound_cycles == 0 {
            return 0.0;
        }
        self.worst_measured_cycles as f64 / self.worst_bound_cycles as f64
    }
}

impl fmt::Display for ValidatedPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>13} {:>6} {:>9} {:>12} {:>10} {:>7.0}%",
            self.id,
            self.kind,
            self.connections,
            self.flits,
            self.worst_measured_cycles,
            self.worst_bound_cycles,
            100.0 * self.headroom(),
        )
    }
}

/// The header line matching [`ValidatedPoint`]'s `Display` columns.
#[must_use]
pub fn validation_table_header() -> String {
    format!(
        "{:<28} {:>13} {:>6} {:>9} {:>12} {:>10} {:>8}",
        "pareto point", "kind", "conns", "flits", "measured", "bound", "ratio"
    )
}

/// Replays one design point through the turbo kernel and asserts the
/// measured worst-case per-flit latency of **every** connection stays
/// within its analytical bound.
///
/// # Panics
///
/// Panics if the point's workload cannot be redrawn or fully allocated
/// (callers pass Pareto-front points, which are `Full` by construction),
/// if a connection delivers no flits inside the horizon, or — the
/// verdict this stage exists for — if any measured latency exceeds its
/// bound.
#[must_use]
pub(crate) fn validate_point(point: &DesignPoint, duration_cycles: u64) -> ValidatedPoint {
    let spec = point.spec();

    // Reproduce the sweep engine's allocation exactly.
    let mut routes = RouteCache::new(spec.topology(), Allocator::new().max_paths);
    let (alloc, _) = design(&spec, &mut routes);

    let (kind, kind_tag) = match point.link_pipeline_stages {
        0 => (NetworkKind::Synchronous, "synchronous"),
        1 => (
            NetworkKind::Mesochronous {
                phase_seed: point.seed(),
            },
            "mesochronous",
        ),
        d => panic!("{}: unsupported link pipeline depth {d}", point.id()),
    };

    let mut net = build_turbo(&spec, &alloc, kind, true);
    net.run_cycles(duration_cycles);

    let mut flits = 0u64;
    let mut worst_measured = 0u64;
    let mut worst_bound = 0u64;
    for c in spec.connections() {
        let lat = net.latency(c.id);
        let bound = alloc.worst_case_latency_cycles(&spec, c.id);
        assert!(
            lat.flits > 0,
            "{}: {} delivered no flits in {duration_cycles} cycles",
            point.id(),
            c.id
        );
        assert!(
            lat.max_cycles <= bound,
            "{}: {} measured worst-case latency {} cycles exceeds the analytical \
             bound {bound} — the guarantee the sweep reports would be wrong",
            point.id(),
            c.id,
            lat.max_cycles
        );
        flits += lat.flits;
        worst_measured = worst_measured.max(lat.max_cycles);
        worst_bound = worst_bound.max(bound);
    }

    ValidatedPoint {
        id: point.id(),
        kind: kind_tag,
        connections: spec.connections().len() as u32,
        flits,
        worst_measured_cycles: worst_measured,
        worst_bound_cycles: worst_bound,
    }
}

/// Replays every point of `report`'s Pareto front (see
/// `validate_point`); returns one verdict row per point, in front order.
///
/// # Panics
///
/// Panics if the report's front is empty (a gated report never is), or
/// as `validate_point` does on any bound violation.
#[must_use]
pub fn validate_front(report: &DseReport, duration_cycles: u64) -> Vec<ValidatedPoint> {
    report.map_front(|p| validate_point(p, duration_cycles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;
    use crate::grid::tests::tiny_grid;

    #[test]
    fn tiny_front_validates_within_bounds() {
        let report = run_sweep(&tiny_grid(), 2);
        let rows = validate_front(&report, 20_000);
        assert_eq!(rows.len(), report.pareto.len());
        for row in &rows {
            assert!(row.flits > 0);
            assert!(row.worst_measured_cycles <= row.worst_bound_cycles);
            assert!(row.headroom() <= 1.0);
            assert!(!row.to_string().is_empty());
        }
        // Both organisations appear in this grid's validation.
        assert!(rows.iter().any(|r| r.kind == "synchronous"));
    }

    #[test]
    fn validation_is_deterministic() {
        let report = run_sweep(&tiny_grid(), 1);
        let a = validate_front(&report, 10_000);
        let b = validate_front(&report, 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn header_aligns_with_rows() {
        assert!(validation_table_header().contains("measured"));
    }
}
