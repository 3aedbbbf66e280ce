//! The fault scenario: deterministic robustness verdict of every
//! Pareto-front design point, folded into `DSE_REPORT.json`.
//!
//! Unlike [`churn`](crate::churn) — whose sustained ops/sec is wall
//! clock and therefore stays out of the byte-reproducible report — every
//! number here is a pure function of the point's coordinates: the
//! scenario (a merged churn + fault trace, [`FaultScenario::merge`]) is
//! seeded from the point, replayed through the [`ChurnEngine`], and the
//! resulting admission and displacement counts are committed to the
//! report and gated by [`DseReport::assert_gates`].

use crate::grid::DesignPoint;
use crate::report::DseReport;
use aelite_alloc::{Allocation, Allocator, Steering};
use aelite_online::ChurnEngine;
use aelite_spec::app::SystemSpec;
use aelite_spec::churn::{churn_trace, ChurnOp, ChurnParams};
use aelite_spec::fault::{fault_trace, FaultParams, FaultScenario, ScenarioOp};
use core::fmt;

/// Churn events drawn per point's fault scenario.
pub const FAULT_CHURN_EVENTS: u32 = 200;
/// Fault events (failures, repairs, transient glitches) drawn per point.
pub const FAULT_EVENTS: u32 = 30;

/// The deterministic fault verdict of one design point: admission and
/// displacement counts only, no wall-clock rates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultScenarioPoint {
    /// The point's stable id.
    pub id: String,
    /// Connections in the point's workload pool.
    pub connections: u32,
    /// Connections admitted when populating from empty through the
    /// engine (hardest-first order, deterministic).
    pub admitted: u32,
    /// Merged scenario events replayed.
    pub events: u32,
    /// Link failures applied (persistent, repeats not counted).
    pub link_downs: u64,
    /// Router failures applied.
    pub router_downs: u64,
    /// Transient glitches drawn (sub-threshold and escalated).
    pub glitches: u64,
    /// Glitches at or past the persistence threshold — the only ones
    /// allowed to displace grants.
    pub escalated: u64,
    /// Grants displaced by enforced faults over the whole scenario.
    pub affected: u64,
    /// Displaced grants that kept service (rerouted make-before-break
    /// or break-then-make).
    pub survived: u64,
    /// Displaced grants dropped with a structured refusal.
    pub dropped: u64,
    /// Dropped grants re-homed by later repairs.
    pub restored: u64,
    /// Admissions refused because of the fault mask.
    pub refused_link_down: u64,
}

impl fmt::Display for FaultScenarioPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>6} {:>8} {:>7} {:>8} {:>9} {:>8} {:>8} {:>8}",
            self.id,
            self.connections,
            self.admitted,
            self.events,
            self.glitches,
            self.escalated,
            self.affected,
            self.survived,
            self.dropped,
        )
    }
}

/// The header line matching [`FaultScenarioPoint`]'s `Display` columns.
#[must_use]
pub fn fault_table_header() -> String {
    format!(
        "{:<28} {:>6} {:>8} {:>7} {:>8} {:>9} {:>8} {:>8} {:>8}",
        "pareto point",
        "conns",
        "admitted",
        "events",
        "glitches",
        "escalated",
        "affected",
        "survived",
        "dropped"
    )
}

/// Replays a seeded merged churn + fault scenario over `spec`: the one
/// populate → merge → replay → settle sequence behind `fault_point`
/// and the steering pin of `tests/fault_recovery_golden.rs`.
///
/// The platform is populated from empty through the engine itself
/// (refusals are fine — the admitted set is what the scenario then
/// stresses), a steady churn trace of `churn_events` and a sparse fault
/// trace of `fault_events` at 1e5 faults/s are drawn from `seed`, merged
/// ([`FaultScenario::merge`]) and replayed with the scenario clock (so
/// transient glitches self-expire), and the clock is finally run past
/// the last pending glitch so the end state is glitch-free: only
/// enforced faults remain masked.
///
/// Returns the engine and allocation in their end state, the number of
/// connections admitted while populating, and the number of scenario
/// events replayed — in that order.
#[must_use]
pub fn replay_fault_scenario(
    spec: &SystemSpec,
    steering: Steering,
    churn_events: u32,
    fault_events: u32,
    seed: u64,
) -> (ChurnEngine, Allocation, u32, u32) {
    let mut alloc = Allocation::empty_for(spec);
    let mut engine = ChurnEngine::with_allocator(
        spec,
        Allocator {
            steering,
            ..Allocator::new()
        },
    );
    let mut admitted = 0u32;
    for c in spec.connections() {
        if engine.apply(spec, &mut alloc, &ScenarioOp::Churn(ChurnOp::Open(c.id))) {
            admitted += 1;
        }
    }

    let churn = churn_trace(spec, &ChurnParams::steady(churn_events), seed);
    let faults = fault_trace(
        spec.topology(),
        &FaultParams {
            rate_per_sec: 1.0e5,
            ..FaultParams::sparse(fault_events)
        },
        seed,
    );
    let scenario = FaultScenario::merge(&churn, &faults);
    for e in &scenario.events {
        engine.apply_event(spec, &mut alloc, e);
    }
    let end_ns = scenario.events.last().map_or(0, |e| e.at_ns);
    engine.advance_to(spec, &mut alloc, end_ns.saturating_add(1_000_000));
    (engine, alloc, admitted, scenario.len() as u32)
}

/// Replays one design point through its seeded merged churn + fault
/// scenario ([`replay_fault_scenario`], shortest-first candidate order)
/// and returns its deterministic robustness counts.
///
/// # Panics
///
/// Panics if the point's workload can no longer be drawn (callers pass
/// points from a checked report).
#[must_use]
pub(crate) fn fault_point(point: &DesignPoint) -> FaultScenarioPoint {
    let spec = point.spec();

    let (engine, _alloc, admitted, events) = replay_fault_scenario(
        &spec,
        Steering::ShortestFirst,
        FAULT_CHURN_EVENTS,
        FAULT_EVENTS,
        point.seed(),
    );
    let s = *engine.stats();
    FaultScenarioPoint {
        id: point.id(),
        connections: spec.connections().len() as u32,
        admitted,
        events,
        link_downs: s.link_downs,
        router_downs: s.router_downs,
        glitches: s.glitches,
        escalated: s.escalated,
        affected: s.affected,
        survived: s.survived(),
        dropped: s.dropped,
        restored: s.restored,
        refused_link_down: s.refused_link_down,
    }
}

/// Replays every point of `report`'s Pareto front (see [`fault_point`]);
/// returns one verdict row per point, in front order.
///
/// # Panics
///
/// Panics if the report's front is empty (a gated report never is).
#[must_use]
pub(crate) fn fault_front(report: &DseReport) -> Vec<FaultScenarioPoint> {
    report.map_front(fault_point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;
    use crate::grid::tests::tiny_grid;

    #[test]
    fn tiny_front_fault_counts_close_and_are_deterministic() {
        let report = run_sweep(&tiny_grid(), 2);
        let a = fault_front(&report);
        let b = fault_front(&report);
        assert_eq!(a, b, "fault scenario counts must be pure per point");
        assert_eq!(a.len(), report.pareto.len());
        for row in &a {
            assert_eq!(
                row.survived + row.dropped,
                row.affected,
                "{}: recovery accounting does not close",
                row.id
            );
            assert!(row.admitted > 0, "{}: nothing admitted", row.id);
            assert!(row.events > 0);
            assert!(row.escalated <= row.glitches);
            assert!(!row.to_string().is_empty());
        }
        assert!(fault_table_header().contains("escalated"));
    }
}
