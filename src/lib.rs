//! # aelite — a flit-synchronous network on chip with composable and
//! # predictable services
//!
//! Umbrella crate of the reproduction of Hansson, Subburaman & Goossens,
//! *"aelite: A Flit-Synchronous Network on Chip with Composable and
//! Predictable Services"*, DATE 2009, and the crate a downstream user
//! adopts: specify a platform and its applications ([`spec`]), design
//! the system (allocation + validation), query the guaranteed services,
//! simulate at flit level or cycle level, and verify contracts and
//! composability ([`AeliteSystem`], [`analysis`]). It re-exports the
//! full stack and hosts the runnable examples (`examples/`), the
//! cross-crate integration tests (`tests/`) and the paper-figure
//! reproduction checks (`benches/`, printed through [`report`]).
//!
//! ```
//! use aelite::{AeliteSystem, SimOptions};
//! use aelite::spec::generate::paper_workload;
//!
//! // The paper's Section VII platform: 4x3 mesh, 70 IPs, 200 connections.
//! let system = AeliteSystem::design(paper_workload(42))?;
//!
//! // Analytical guarantees, before any simulation.
//! let c0 = system.spec().connections()[0].id;
//! assert!(system.latency_bound_ns(c0) > 0.0);
//!
//! // Simulated behaviour honours every contract.
//! let outcome = system.simulate(SimOptions {
//!     duration_cycles: 60_000,
//!     ..SimOptions::default()
//! });
//! assert!(outcome.service.all_ok());
//! # Ok::<(), aelite::DesignError>(())
//! ```
//!
//! See the repository `README.md` for the architecture overview and
//! `cargo bench -p aelite --benches` (or one of them, as in
//! `cargo bench --bench fig5_freq_area`) for the reproduced evaluation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod report;
pub mod system;

pub use system::{
    measured_services, measured_services_be, timelines, AeliteSystem, DesignError, ReconfigReport,
    SimOptions, SimulationOutcome,
};

pub use aelite_alloc as alloc;
pub use aelite_dataflow as dataflow;
pub use aelite_dse as dse;
pub use aelite_noc as noc;
pub use aelite_online as online;
pub use aelite_sim as sim;
pub use aelite_spec as spec;
pub use aelite_synth as synth;

#[cfg(test)]
mod cost;
