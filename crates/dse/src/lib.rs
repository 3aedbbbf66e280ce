//! # aelite-dse — parallel design-space exploration for the aelite NoC
//!
//! The paper's central promise is that composable, predictable TDM
//! services make a platform *evaluable*: slot tables, mesochronous links
//! and dataflow models exist so that a designer can sweep configurations
//! and trust the numbers without simulating each one. This crate is that
//! sweep, industrialised:
//!
//! * [`grid`] — the design space: mesh dimensions × slot-table sizes ×
//!   link pipeline depths × traffic mixes, each point with a stable id
//!   and a seed derived purely from its coordinates.
//! * [`engine`] — the multi-threaded batch engine: a
//!   [`std::thread::scope`] worker pool pulling points from an atomic
//!   cursor, reusing an [`aelite_alloc::RouteCache`] across every point
//!   that shares a topology, and falling back to hardest-first
//!   incremental admission when a workload does not fit completely.
//! * [`pareto`] — dominance filtering for the area-vs-guaranteed-
//!   throughput front.
//! * [`report`] — the collector: aggregates, the Pareto front, the
//!   stable `DSE_REPORT.json` serialization and summary tables.
//! * [`validate`] — the simulation-backed check: every Pareto-front
//!   point is replayed through `aelite_noc`'s turbo kernel and the
//!   measured worst-case latency asserted against the analytical bound.
//! * [`churn`] — the online-reconfiguration scenario: every Pareto-front
//!   point is driven through `aelite_online`'s [`ChurnEngine`] under a
//!   Poisson open/close/use-case-switch trace, reporting its admission
//!   outcome and sustained churn rate alongside area and throughput.
//! * [`fault`] — the robustness scenario: every Pareto-front point is
//!   replayed through the same [`ChurnEngine`] under a seeded merged churn +
//!   fault trace (failures, repairs, transient glitches); the resulting
//!   deterministic admission/displacement counts are folded into
//!   `DSE_REPORT.json` (schema `aelite-dse-report/2`) and gated by
//!   [`DseReport::assert_gates`].
//!
//! [`ChurnEngine`]: aelite_online::ChurnEngine
//!
//! Determinism is the design constraint throughout: every per-point
//! quantity is a pure function of the point's coordinates, so the same
//! grid serializes to the same bytes on 1 worker or 16 (pinned by
//! `tests/dse_determinism.rs`).
//!
//! # Examples
//!
//! Sweep a one-point grid and read the verdict:
//!
//! ```
//! use aelite_dse::engine::run_sweep;
//! use aelite_dse::grid::{DseGrid, MeshDim, TrafficMix};
//!
//! let grid = DseGrid {
//!     label: "doc".into(),
//!     meshes: vec![MeshDim::new(2, 2, 1)],
//!     slot_table_sizes: vec![32],
//!     link_pipeline_depths: vec![0],
//!     mixes: vec![TrafficMix::Light],
//! };
//! let report = run_sweep(&grid, 1);
//! report.assert_gates();
//! assert_eq!(report.points.len(), 1);
//! assert!(report.points[0].alloc_success_rate > 0.0);
//! ```
//!
//! The `dse_sweep` example runs the full 126-point grid and writes
//! `DSE_REPORT.json`; CI replays a reduced grid and gates on it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod churn;
pub mod engine;
pub mod fault;
pub mod grid;
pub mod pareto;
pub mod report;
pub mod validate;

pub use engine::{run_sweep, PointOutcome, PointResult};
pub use fault::FaultScenarioPoint;
pub use grid::{DesignPoint, DseGrid, MeshDim, TrafficMix, PAPER_POINT_ID};
pub use pareto::{pareto_front, Candidate};
pub use report::{DseReport, REPORT_SCHEMA};
pub use validate::{validate_front, ValidatedPoint, VALIDATE_DURATION_CYCLES};
