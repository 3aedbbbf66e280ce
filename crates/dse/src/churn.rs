//! The churn scenario: sustainable online-reconfiguration rate of every
//! Pareto-front design point.
//!
//! Area and guaranteed throughput say what a platform *costs* and
//! *carries*; for the heavy-traffic regime the ROADMAP targets, a third
//! axis matters: how fast the platform can **turn connections over** at
//! run time. This module replays each point of a report's Pareto front
//! through the online [`ChurnEngine`] under a seeded Poisson
//! open/close/use-case-switch trace ([`aelite_spec::churn`]) and
//! reports, per point, the *deterministic* admission outcome (ops
//! requested, setups admitted/rejected) alongside the *measured*
//! sustained churn rate in setup+teardown operations per second.
//!
//! Like [`validate`](crate::validate), the scenario is a front replay
//! (`dse_sweep --churn`) rather than part of `DSE_REPORT.json`: the
//! admission counts are pure functions of the point's coordinates, but
//! a wall-clock rate has no place in a byte-reproducible report.

use crate::engine::design;
use crate::grid::DesignPoint;
use crate::report::DseReport;
use aelite_alloc::{Allocator, RouteCache};
use aelite_online::{AdmissionRequest, ChurnEngine};
use aelite_spec::churn::{churn_trace, ChurnParams};
use core::fmt;
use std::time::Instant;

/// Events drawn per point: enough churn to cycle a large platform's
/// pool several times while keeping a full-front replay in CI budget.
pub const CHURN_EVENTS_PER_POINT: u32 = 4_000;

/// The churn verdict of one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPoint {
    /// The point's stable id.
    pub id: String,
    /// Connections in the point's workload pool.
    pub connections: u32,
    /// Individual setup + teardown operations requested by the trace.
    pub ops_requested: u64,
    /// Setups admitted (deterministic per point).
    pub setups_admitted: u64,
    /// Setup requests the platform rejected (deterministic per point).
    pub setups_rejected: u64,
    /// Use-case switches completed.
    pub switches: u64,
    /// Fraction of setup requests admitted.
    pub admission_rate: f64,
    /// Measured sustained churn throughput, setup+teardown ops per
    /// second (wall clock; machine-dependent, not committed anywhere).
    pub ops_per_sec: f64,
}

impl fmt::Display for ChurnPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>6} {:>8} {:>9} {:>9} {:>9} {:>10.1}% {:>11.2}M",
            self.id,
            self.connections,
            self.ops_requested,
            self.setups_admitted,
            self.setups_rejected,
            self.switches,
            100.0 * self.admission_rate,
            self.ops_per_sec / 1.0e6,
        )
    }
}

/// The header line matching [`ChurnPoint`]'s `Display` columns.
#[must_use]
pub fn churn_table_header() -> String {
    format!(
        "{:<28} {:>6} {:>8} {:>9} {:>9} {:>9} {:>11} {:>12}",
        "pareto point", "conns", "ops", "admitted", "rejected", "switches", "admission", "Mops/s"
    )
}

/// Replays one design point's workload under a churn trace and returns
/// its admission outcome and sustained rate.
///
/// The starting allocation reproduces the sweep engine's (batch flow,
/// incremental-admission fallback), the whole pool is then torn down and
/// the trace drives the platform from empty — so the scenario covers
/// ramp-up, steady-state occupancy and use-case switches.
///
/// # Panics
///
/// Panics if the point's workload can no longer be drawn (callers pass
/// points from a checked report).
#[must_use]
pub(crate) fn churn_point(point: &DesignPoint, events: u32) -> ChurnPoint {
    let spec = point.spec();

    // Reproduce the sweep's allocation, then drain it through the O(Δ)
    // teardown kernel: the trace starts from an empty, warmed engine.
    let mut engine = ChurnEngine::new(&spec);
    let mut routes = RouteCache::new(spec.topology(), Allocator::new().max_paths);
    let (mut alloc, _) = design(&spec, &mut routes);
    let drain: Vec<_> = alloc
        .grants()
        .map(|g| AdmissionRequest::Close(g.conn))
        .collect();
    engine.submit_batch(&spec, &mut alloc, &drain, &mut Vec::new());

    let trace = churn_trace(&spec, &ChurnParams::steady(events), point.seed());
    let before = *engine.stats();
    let t0 = Instant::now();
    for e in &trace.events {
        // Refusals are counted in the engine's stats.
        let _ = engine.submit(&spec, &mut alloc, e.op.clone());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = *engine.stats();

    let setups_admitted = stats.setups - before.setups;
    let setups_rejected = stats.refused_opens + stats.refused_switches
        - before.refused_opens
        - before.refused_switches;
    let done = stats.ops() - before.ops();
    ChurnPoint {
        id: point.id(),
        connections: spec.connections().len() as u32,
        ops_requested: trace.ops(),
        setups_admitted,
        setups_rejected,
        switches: stats.switches - before.switches,
        admission_rate: setups_admitted as f64 / (setups_admitted + setups_rejected).max(1) as f64,
        ops_per_sec: done as f64 / elapsed.max(1e-9),
    }
}

/// Replays every point of `report`'s Pareto front (see `churn_point`);
/// returns one verdict row per point, in front order.
///
/// # Panics
///
/// Panics if the report's front is empty (a gated report never is).
#[must_use]
pub fn churn_front(report: &DseReport, events: u32) -> Vec<ChurnPoint> {
    report.map_front(|p| churn_point(p, events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;
    use crate::grid::tests::tiny_grid;

    #[test]
    fn tiny_front_churns_with_high_admission() {
        let report = run_sweep(&tiny_grid(), 2);
        let rows = churn_front(&report, 400);
        assert_eq!(rows.len(), report.pareto.len());
        for row in &rows {
            assert!(row.ops_requested > 0);
            assert!(row.setups_admitted > 0);
            assert!(
                row.admission_rate > 0.9,
                "{}: admission {}",
                row.id,
                row.admission_rate
            );
            assert!(row.ops_per_sec > 0.0);
            assert!(!row.to_string().is_empty());
        }
        assert!(churn_table_header().contains("Mops/s"));
    }

    #[test]
    fn admission_outcome_is_deterministic() {
        let report = run_sweep(&tiny_grid(), 1);
        let a = churn_front(&report, 300);
        let b = churn_front(&report, 300);
        // Everything except the wall-clock rate is reproducible.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.ops_requested, y.ops_requested);
            assert_eq!(x.setups_admitted, y.setups_admitted);
            assert_eq!(x.setups_rejected, y.setups_rejected);
            assert_eq!(x.switches, y.switches);
        }
    }
}
