//! # aelite-dataflow — HSDF throughput analysis for flit-synchronous NoCs
//!
//! The paper frames its mesochronous FSM and asynchronous wrapper as
//! dataflow actors (Sections V–VI) and proposes, in footnote 1, analysing
//! heterochronous aelite instances "by modelling the links, NIs and
//! routers in a dataflow graph". This crate implements that direction:
//!
//! * [`graph`] — homogeneous SDF graphs with maximum-cycle-mean analysis
//!   (bisection + Bellman-Ford), yielding steady-state throughput.
//! * [`models`] — builders for aelite structures (wrapped-element
//!   chains), cross-checked against the token-level wrapper simulation.
//!
//! # Examples
//!
//! ```
//! use aelite_dataflow::models::{predicted_flit_rate_per_us, wrapper_chain};
//!
//! // NI -> router -> NI, the router clocked 2% slow.
//! let chain = wrapper_chain(&[500.0, 490.0, 500.0], 3, 2);
//! let rate = predicted_flit_rate_per_us(&chain);
//! // The slowest element dictates the NoC rate (paper Section VI-A).
//! assert!((rate - 490.0 / 3.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod graph;
pub mod models;

pub use graph::{ActorId, HsdfGraph};
pub use models::{predicted_flit_rate_per_us, wrapper_chain, WrapperChainModel};
