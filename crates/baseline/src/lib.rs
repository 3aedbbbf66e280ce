//! # aelite-baseline — Æthereal-style best-effort comparison network
//!
//! The paper's Section VII compares aelite's guaranteed services against
//! the combined GS+BE Æthereal running the same 200-connection workload
//! with best-effort service only. This crate provides that baseline: an
//! input-queued wormhole network with round-robin output arbitration and
//! credit-based link-level flow control — precisely the machinery the
//! aelite router removes.
//!
//! # Examples
//!
//! ```
//! use aelite_baseline::{BeConfig, BeSim};
//! use aelite_spec::generate::paper_workload;
//!
//! let spec = paper_workload(42);
//! let report = BeSim::new(&spec).run(BeConfig {
//!     duration_cycles: 30_000,
//!     ..BeConfig::default()
//! });
//! // Delivered, but with interference-dependent latency.
//! assert!(report.per_conn.iter().all(|c| c.flits > 0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod sim;

pub use sim::{BeConfig, BeConnStats, BeReport, BeSim};
