//! # aelite-synth — analytical area/timing models (90 nm calibration)
//!
//! The paper's evaluation rests on commercial synthesis of the aelite
//! router in a 90 nm low-power CMOS technology. This crate substitutes a
//! first-order gate-level model calibrated to every number the paper
//! reports (each module's docs name the figures it is calibrated to):
//!
//! * [`router`] — cell area and maximum frequency of the aelite router,
//!   with the target-frequency effort curve of Fig 5 and the arity/width
//!   scaling of Fig 6.
//! * [`components`] — bi-synchronous FIFOs (custom \[18\] and standard
//!   cell \[4\]), the link-stage FSM and the complete router-with-links.
//! * [`compare`] — the Æthereal GS+BE router and the published
//!   mesochronous/asynchronous comparison points, with technology scaling.
//! * [`tech`] — 130 nm ↔ 90 nm scaling and post-layout derating.
//!
//! # Examples
//!
//! ```
//! use aelite_synth::router::{synthesize, RouterParams};
//!
//! let reference = RouterParams::paper_reference(); // arity-5, 32-bit
//! let relaxed = synthesize(&reference, 600.0);
//! assert!(relaxed.met_target);
//! assert!(relaxed.area_um2 < 15_000.0); // "< 0.015 mm2 up to 650 MHz"
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod components;
pub mod power;
pub mod router;
pub mod tech;

pub use compare::{comparison_table, GsBeComparison, PublishedRouter};
pub use components::{
    bisync_fifo_area_um2, link_stage_area_um2, ni_area_um2, router_with_links_area_um2, FifoKind,
};
pub use power::{component_power, router_power, PowerBreakdown, SleepMode};
pub use router::{
    aggregate_throughput_gbytes, router_max_frequency_mhz, synthesize, synthesize_max,
    RouterParams, SynthResult,
};
pub use tech::{LayoutDerate, TechNode};
