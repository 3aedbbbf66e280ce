//! The sweep collector: aggregates, the Pareto front, `DSE_REPORT.json`
//! serialization and the human-readable summary tables.
//!
//! Serialization is hand-rolled (the workspace builds offline, without
//! serde) and **stable**: points appear in grid-enumeration order, keys
//! in a fixed order, and every float with a fixed precision — so two
//! sweeps of the same grid produce byte-identical reports whatever the
//! worker count, which CI and `tests/dse_determinism.rs` rely on.

use crate::engine::{PointOutcome, PointResult};
use crate::fault::{fault_front, FaultScenarioPoint};
use crate::grid::{DesignPoint, PAPER_POINT_ID};
use crate::pareto::{pareto_front, Candidate};
use std::fmt::Write as _;

/// The schema tag stamped into every report. Schema 2 folds the
/// deterministic fault-scenario counts of every Pareto-front point into
/// the report (`fault_scenarios`); wall-clock rates stay out.
pub const REPORT_SCHEMA: &str = "aelite-dse-report/2";

/// A completed sweep: every point's result plus the derived fronts and
/// aggregates.
#[derive(Debug, Clone)]
pub struct DseReport {
    /// The grid label (`full`, `reduced`, …).
    pub grid: String,
    /// Per-point results in grid-enumeration order.
    pub points: Vec<PointResult>,
    /// Indices (into [`points`](Self::points)) of the area-vs-guaranteed-
    /// throughput Pareto front, computed over fully-allocated points.
    pub pareto: Vec<usize>,
    /// Deterministic fault-scenario verdicts of the front, in front
    /// order (see [`crate::fault`]); filled by
    /// [`attach_fault_scenarios`](Self::attach_fault_scenarios).
    pub fault: Vec<FaultScenarioPoint>,
}

impl DseReport {
    /// Collects `points` into a report, extracting the Pareto front
    /// (minimise `area_mm2`, maximise `guaranteed_throughput_gbytes`)
    /// over the fully-successful points.
    #[must_use]
    pub fn new(grid: &str, points: Vec<PointResult>) -> Self {
        // Dominance is judged among Full points only — a partially
        // allocated platform does not deliver its nominal throughput —
        // but indices refer into the complete point list.
        let full_idx: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].outcome == PointOutcome::Full)
            .collect();
        let candidates: Vec<Candidate> = full_idx
            .iter()
            .map(|&i| Candidate {
                cost: points[i].area_mm2,
                value: points[i].guaranteed_throughput_gbytes,
            })
            .collect();
        let pareto = pareto_front(&candidates)
            .into_iter()
            .map(|k| full_idx[k])
            .collect();
        DseReport {
            grid: grid.to_string(),
            points,
            pareto,
            fault: Vec::new(),
        }
    }

    /// Runs the seeded fault scenario on every Pareto-front point and
    /// stores the deterministic verdicts (see [`crate::fault`]) for
    /// serialization. Idempotent in outcome: the counts are pure
    /// functions of the front's coordinates.
    pub fn attach_fault_scenarios(&mut self) {
        self.fault = fault_front(self);
    }

    /// One `stage` verdict per Pareto-front point, in front order — the
    /// body of the validation, churn and fault front replays.
    ///
    /// # Panics
    ///
    /// Panics if the front is empty (a gated report's never is).
    pub(crate) fn map_front<T>(&self, stage: impl FnMut(&DesignPoint) -> T) -> Vec<T> {
        assert!(
            !self.pareto.is_empty(),
            "cannot replay an empty Pareto front"
        );
        let front = self.pareto.iter().map(|&i| &self.points[i].point);
        front.map(stage).collect()
    }

    /// Count of points with the given outcome.
    #[must_use]
    pub fn count(&self, outcome: PointOutcome) -> usize {
        self.points.iter().filter(|p| p.outcome == outcome).count()
    }

    /// Connection-weighted success rate over the whole sweep.
    #[must_use]
    pub(crate) fn overall_connection_success_rate(&self) -> f64 {
        let requested: u64 = self
            .points
            .iter()
            .map(|p| u64::from(p.connections_requested))
            .sum();
        let granted: u64 = self
            .points
            .iter()
            .map(|p| u64::from(p.connections_granted))
            .sum();
        if requested == 0 {
            0.0
        } else {
            granted as f64 / requested as f64
        }
    }

    /// The paper-platform point, if the grid contained it.
    #[must_use]
    pub fn paper_point(&self) -> Option<&PointResult> {
        self.points.iter().find(|p| p.point.is_paper_platform())
    }

    /// Serializes the report; see the module docs for the stability
    /// contract. The output always ends with a newline.
    ///
    /// # Panics
    ///
    /// Panics only on formatter failure (infallible for `String`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut j = String::new();
        j.push_str("{\n");
        writeln!(j, "  \"schema\": \"{REPORT_SCHEMA}\",").unwrap();
        j.push_str("  \"generated_by\": \"examples/dse_sweep.rs\",\n");
        j.push_str(
            "  \"note\": \"one point per (mesh, slot-table size, link pipeline depth, traffic \
             mix) coordinate; outcome 'full' = every drawn connection got a contention-free \
             grant, 'partial' = hardest-first admission kept a subset, 'workload_infeasible' \
             = the profile's draw budgets overflow the platform; the Pareto front minimises \
             area_mm2 and maximises guaranteed_throughput_gbytes over 'full' points; \
             fault_scenarios replays each front point through a seeded merged churn + fault \
             trace — every count is deterministic, wall-clock rates stay out\",\n",
        );
        writeln!(j, "  \"grid\": \"{}\",", self.grid).unwrap();
        writeln!(j, "  \"point_count\": {},", self.points.len()).unwrap();
        writeln!(
            j,
            "  \"full_success_points\": {},",
            self.count(PointOutcome::Full)
        )
        .unwrap();
        writeln!(
            j,
            "  \"partial_points\": {},",
            self.count(PointOutcome::Partial)
        )
        .unwrap();
        writeln!(
            j,
            "  \"workload_infeasible_points\": {},",
            self.count(PointOutcome::WorkloadInfeasible)
        )
        .unwrap();
        writeln!(
            j,
            "  \"overall_connection_success_rate\": {:.4},",
            self.overall_connection_success_rate()
        )
        .unwrap();
        write!(j, "  \"pareto_front\": [").unwrap();
        for (n, &i) in self.pareto.iter().enumerate() {
            let sep = if n == 0 { "" } else { ", " };
            write!(j, "{sep}\"{}\"", self.points[i].point.id()).unwrap();
        }
        j.push_str("],\n");
        j.push_str("  \"fault_scenarios\": [\n");
        for (i, f) in self.fault.iter().enumerate() {
            j.push_str("    {\n");
            writeln!(j, "      \"id\": \"{}\",", f.id).unwrap();
            writeln!(j, "      \"connections\": {},", f.connections).unwrap();
            writeln!(j, "      \"admitted\": {},", f.admitted).unwrap();
            writeln!(j, "      \"scenario_events\": {},", f.events).unwrap();
            writeln!(j, "      \"link_downs\": {},", f.link_downs).unwrap();
            writeln!(j, "      \"router_downs\": {},", f.router_downs).unwrap();
            writeln!(j, "      \"glitches\": {},", f.glitches).unwrap();
            writeln!(j, "      \"escalated\": {},", f.escalated).unwrap();
            writeln!(j, "      \"affected\": {},", f.affected).unwrap();
            writeln!(j, "      \"survived\": {},", f.survived).unwrap();
            writeln!(j, "      \"dropped\": {},", f.dropped).unwrap();
            writeln!(j, "      \"restored\": {},", f.restored).unwrap();
            writeln!(j, "      \"refused_link_down\": {}", f.refused_link_down).unwrap();
            write!(
                j,
                "    }}{}",
                if i + 1 < self.fault.len() {
                    ",\n"
                } else {
                    "\n"
                }
            )
            .unwrap();
        }
        j.push_str("  ],\n");
        j.push_str("  \"points\": [\n");
        let on_front: Vec<bool> = {
            let mut v = vec![false; self.points.len()];
            for &i in &self.pareto {
                v[i] = true;
            }
            v
        };
        for (i, p) in self.points.iter().enumerate() {
            j.push_str("    {\n");
            writeln!(j, "      \"id\": \"{}\",", p.point.id()).unwrap();
            writeln!(j, "      \"cols\": {},", p.point.mesh.cols).unwrap();
            writeln!(j, "      \"rows\": {},", p.point.mesh.rows).unwrap();
            writeln!(
                j,
                "      \"nis_per_router\": {},",
                p.point.mesh.nis_per_router
            )
            .unwrap();
            writeln!(j, "      \"slot_table_size\": {},", p.point.slot_table_size).unwrap();
            writeln!(
                j,
                "      \"link_pipeline_stages\": {},",
                p.point.link_pipeline_stages
            )
            .unwrap();
            writeln!(j, "      \"mix\": \"{}\",", p.point.mix.tag()).unwrap();
            writeln!(j, "      \"seed\": \"{:#018x}\",", p.seed).unwrap();
            writeln!(j, "      \"outcome\": \"{}\",", p.outcome.tag()).unwrap();
            writeln!(
                j,
                "      \"connections_requested\": {},",
                p.connections_requested
            )
            .unwrap();
            writeln!(
                j,
                "      \"connections_granted\": {},",
                p.connections_granted
            )
            .unwrap();
            writeln!(
                j,
                "      \"alloc_success_rate\": {:.3},",
                p.alloc_success_rate
            )
            .unwrap();
            writeln!(
                j,
                "      \"worst_case_flit_latency_ns\": {:.1},",
                p.worst_case_flit_latency_ns
            )
            .unwrap();
            writeln!(
                j,
                "      \"mean_loaded_utilisation\": {:.4},",
                p.mean_loaded_utilisation
            )
            .unwrap();
            writeln!(j, "      \"peak_utilisation\": {:.4},", p.peak_utilisation).unwrap();
            writeln!(
                j,
                "      \"guaranteed_throughput_gbytes\": {:.3},",
                p.guaranteed_throughput_gbytes
            )
            .unwrap();
            writeln!(
                j,
                "      \"dataflow_flit_rate_per_us\": {:.2},",
                p.dataflow_flit_rate_per_us
            )
            .unwrap();
            writeln!(j, "      \"area_mm2\": {:.4},", p.area_mm2).unwrap();
            writeln!(j, "      \"power_mw\": {:.2},", p.power_mw).unwrap();
            writeln!(j, "      \"on_pareto_front\": {}", on_front[i]).unwrap();
            write!(
                j,
                "    }}{}",
                if i + 1 < self.points.len() {
                    ",\n"
                } else {
                    "\n"
                }
            )
            .unwrap();
        }
        j.push_str("  ]\n}\n");
        j
    }

    /// A short human-readable sweep summary (counts, success rate, the
    /// paper point's verdict when present).
    #[must_use]
    pub fn summary_table(&self) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "sweep `{}`: {} points | full {} | partial {} | workload-infeasible {}",
            self.grid,
            self.points.len(),
            self.count(PointOutcome::Full),
            self.count(PointOutcome::Partial),
            self.count(PointOutcome::WorkloadInfeasible),
        )
        .unwrap();
        writeln!(
            s,
            "connection-weighted success rate: {:.2}%",
            100.0 * self.overall_connection_success_rate()
        )
        .unwrap();
        if let Some(p) = self.paper_point() {
            writeln!(
                s,
                "paper platform ({PAPER_POINT_ID}): {}/{} connections, worst flit bound {:.1} ns",
                p.connections_granted, p.connections_requested, p.worst_case_flit_latency_ns
            )
            .unwrap();
        }
        s
    }

    /// The area-vs-guaranteed-throughput Pareto front as a plain-text
    /// table, cheapest first.
    #[must_use]
    pub fn pareto_table(&self) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "{:<28} {:>9} {:>10} {:>12} {:>9}",
            "pareto point", "area mm2", "GB/s gtd", "worst ns", "conns"
        )
        .unwrap();
        let mut rows: Vec<&PointResult> = self.pareto.iter().map(|&i| &self.points[i]).collect();
        rows.sort_by(|a, b| {
            a.area_mm2
                .partial_cmp(&b.area_mm2)
                .expect("areas are finite")
                .then_with(|| a.point.id().cmp(&b.point.id()))
        });
        for p in rows {
            writeln!(
                s,
                "{:<28} {:>9.4} {:>10.3} {:>12.1} {:>9}",
                p.point.id(),
                p.area_mm2,
                p.guaranteed_throughput_gbytes,
                p.worst_case_flit_latency_ns,
                p.connections_granted,
            )
            .unwrap();
        }
        s
    }

    /// Asserts the report gates CI relies on:
    ///
    /// * the sweep is non-empty and internally consistent (success rates
    ///   match the grant counts, Pareto indices point at `full` points);
    /// * when the grid contains the paper platform, it allocates 100% of
    ///   its connections;
    /// * when any point fully allocates, the Pareto front is non-empty.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when a gate fails.
    pub fn assert_gates(&self) {
        assert!(!self.points.is_empty(), "empty sweep");
        for p in &self.points {
            let expect = if p.connections_requested == 0 {
                0.0
            } else {
                f64::from(p.connections_granted) / f64::from(p.connections_requested)
            };
            assert!(
                (p.alloc_success_rate - expect).abs() < 1e-12,
                "{}: success rate {} inconsistent with {}/{}",
                p.point.id(),
                p.alloc_success_rate,
                p.connections_granted,
                p.connections_requested
            );
            if p.outcome == PointOutcome::Full {
                assert_eq!(
                    p.connections_granted,
                    p.connections_requested,
                    "{}: full outcome with missing grants",
                    p.point.id()
                );
            }
        }
        for &i in &self.pareto {
            assert_eq!(
                self.points[i].outcome,
                PointOutcome::Full,
                "Pareto front contains a non-full point"
            );
        }
        if let Some(p) = self.paper_point() {
            assert_eq!(
                p.outcome,
                PointOutcome::Full,
                "the paper platform must allocate 100% of its connections \
                 (got {}/{})",
                p.connections_granted,
                p.connections_requested
            );
        }
        if self.count(PointOutcome::Full) > 0 {
            assert!(
                !self.pareto.is_empty(),
                "full points but empty Pareto front"
            );
        }
        if !self.fault.is_empty() {
            assert_eq!(
                self.fault.len(),
                self.pareto.len(),
                "fault scenarios do not cover the Pareto front"
            );
            for (f, &i) in self.fault.iter().zip(&self.pareto) {
                assert_eq!(
                    f.id,
                    self.points[i].point.id(),
                    "fault scenario out of front order"
                );
                assert_eq!(
                    f.survived + f.dropped,
                    f.affected,
                    "{}: fault recovery accounting does not close",
                    f.id
                );
                assert!(
                    f.escalated <= f.glitches,
                    "{}: more escalations than glitches",
                    f.id
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;
    use crate::grid::tests::tiny_grid;

    #[test]
    fn tiny_sweep_report_is_consistent_and_serializes() {
        let mut report = run_sweep(&tiny_grid(), 2);
        report.attach_fault_scenarios();
        report.assert_gates();
        assert_eq!(report.points.len(), 4);
        let json = report.to_json();
        assert!(json.contains(REPORT_SCHEMA));
        assert!(json.contains("\"fault_scenarios\": [\n    {"));
        assert!(json.ends_with("}\n"));
        // Balanced braces — a cheap well-formedness smoke test.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON braces"
        );
        assert!(report.summary_table().contains("4 points"));
        assert!(!report.pareto.is_empty());
        assert!(report.pareto_table().contains("mesh2x2n1"));
    }
}
