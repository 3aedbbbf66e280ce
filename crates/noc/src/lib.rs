//! # aelite-noc — hardware models of the aelite network on chip
//!
//! Cycle-accurate models of every component the paper describes, plus a
//! fast flit-level simulator for large experiments:
//!
//! * [`phit`] — link words with explicit `valid`/`eop` sideband.
//! * [`codec`] — the physical header layout (route + connection id) and
//!   its round trips; whether built headers fit is ROADMAP item 16.
//! * [`router`] — the 3-stage, arbiter-less GS-only router (Section IV).
//! * [`meso`] — the mesochronous link pipeline stage: bi-synchronous FIFO
//!   plus flit-cycle re-aligning FSM (Section V, Fig 3).
//! * [`wrapper`] — the asynchronous wrapper: port interfaces and the
//!   fire-when-all-ready controller (Section VI, Fig 4).
//! * [`ni`] — network interfaces: TDM slot tables, packetisation and
//!   end-to-end flow control.
//! * [`network`] — builders wiring a complete NoC (synchronous or
//!   mesochronous) from a spec and its allocation.
//! * [`flitsim`] — the fast flit-level TDM simulator used for the paper's
//!   200-connection experiment. It matches the cycle-accurate models
//!   delivery for delivery when their arrivals agree (whole-cycle CBR
//!   intervals or saturating sources); a fractional CBR interval is
//!   quantised differently by the two. It is the only pattern-aware simulator (saturating and
//!   bursty sources, byte-granular credits) and the engine behind
//!   `AeliteSystem::simulate`; [`turbo`] is the word-granular, CBR-only,
//!   bit-exact twin of the event-driven network. Folding one into the
//!   other would move the paper's Section VII numbers, so both stay.
//! * [`turbo`] — the compiled flit-synchronous execution engine: the same
//!   cycle-accurate network lowered to flat state and enum dispatch,
//!   bit-for-bit equivalent to the event-driven build and an order of
//!   magnitude faster.
//! * [`testbench`] — scripted wire drivers and recorders, shared by the
//!   router and link-stage unit tests and `tests/proptest_hardware.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod flitsim;
pub mod meso;
pub mod network;
pub mod ni;
pub mod phit;
pub mod router;
pub mod testbench;
pub mod turbo;
pub mod wrapper;

pub use phit::{Header, LinkWord, Payload, RouteBits};
pub use router::Router;
pub use turbo::{build_turbo, ConnLatency, TurboNet};
