//! # aelite-noc — hardware models of the aelite network on chip
//!
//! Cycle-accurate models of every component the paper describes, the
//! compiled engine that simulates them fast enough for the paper's
//! experiments, and the best-effort network the paper compares against:
//!
//! * [`phit`] — link words with explicit `valid`/`eop` sideband.
//! * [`codec`] — the physical header layout (route + connection id) and
//!   its round trips; how many built headers fit is pinned by a test in
//!   `crates/noc/src/image.rs`, the crate-private configuration image: an
//!   allocation lowered once into the NI state that [`network`] and
//!   [`turbo`] both build from (each source NI's slot table and each
//!   connection's header, credits and traffic source).
//! * [`router`] — the 3-stage, arbiter-less GS-only router (Section IV).
//! * [`meso`] — the mesochronous link pipeline stage: bi-synchronous FIFO
//!   plus flit-cycle re-aligning FSM (Section V, Fig 3).
//! * [`wrapper`] — the asynchronous wrapper: port interfaces and the
//!   fire-when-all-ready controller (Section VI, Fig 4).
//! * [`ni`] — network interfaces: TDM slot tables, packetisation and
//!   end-to-end flow control.
//! * [`network`] — builders wiring a complete NoC (synchronous or
//!   mesochronous) from a spec and its allocation.
//! * [`turbo`] — the compiled flit-synchronous execution engine: the same
//!   cycle-accurate network lowered to flat state and enum dispatch,
//!   bit-for-bit equivalent to the event-driven build and an order of
//!   magnitude faster; the engine behind `AeliteSystem::simulate`. Both
//!   engines, and [`baseline`], offer the traffic of
//!   [`MessageSource`](aelite_spec::traffic::MessageSource): every
//!   pattern at exactly its contracted rate.
//! * [`baseline`] — the Æthereal-style best-effort wormhole network the
//!   paper's Section VII compares against: round-robin arbitration and
//!   link-level credits instead of TDM reservations.
//! * [`testbench`] — scripted wire drivers and recorders, shared by the
//!   router and link-stage unit tests and `tests/proptest_hardware.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod codec;
mod image;
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
