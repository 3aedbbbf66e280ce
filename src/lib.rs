//! # aelite — a flit-synchronous network on chip with composable and
//! # predictable services
//!
//! Umbrella crate of the reproduction of Hansson, Subburaman & Goossens,
//! *"aelite: A Flit-Synchronous Network on Chip with Composable and
//! Predictable Services"*, DATE 2009. It re-exports the full stack and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`).
//!
//! Start with [`aelite_core::AeliteSystem`]; see the
//! repository `README.md` for the architecture overview and the
//! `aelite-bench` bench binaries (`cargo bench --bench fig5_freq_area`,
//! …) for the reproduced evaluation.

#![warn(missing_docs)]

pub use aelite_alloc as alloc;
pub use aelite_analysis as analysis;
pub use aelite_baseline as baseline;
pub use aelite_core as core;
pub use aelite_dataflow as dataflow;
pub use aelite_dse as dse;
pub use aelite_noc as noc;
pub use aelite_online as online;
pub use aelite_sim as sim;
pub use aelite_spec as spec;
pub use aelite_synth as synth;
