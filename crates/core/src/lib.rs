//! # aelite-core — the aelite NoC, end to end
//!
//! The crate a downstream user adopts: specify a platform and its
//! applications ([`aelite_spec`]), design the system (allocation +
//! validation), query the guaranteed services, simulate at flit level or
//! cycle level, and verify contracts and composability.
//!
//! ```
//! use aelite_core::{AeliteSystem, SimOptions};
//! use aelite_spec::generate::paper_workload;
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
//! # Ok::<(), aelite_core::DesignError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod system;

pub use system::{
    measured_services, measured_services_be, timelines, AeliteSystem, DesignError, ReconfigReport,
    SimOptions, SimulationOutcome,
};

#[cfg(test)]
mod cost;
