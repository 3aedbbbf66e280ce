//! # aelite-analysis — bounds, statistics and composability verification
//!
//! The measurement side of the reproduction:
//!
//! * [`stats`] — latency summaries, percentiles and histograms (the
//!   paper's distribution arguments).
//! * [`buffer`] — end-to-end flow-control buffer sizing (credits must
//!   cover the round trip or reservations stall); the turbo kernel books
//!   no credits for the connections it clears.
//! * [`mod@lr_server`] — latency-rate server parameters (ρ, Θ) per
//!   connection, the abstraction the CompSOC line of work composes
//!   system-level guarantees from.
//! * [`service`] — checking measured throughput/latency against
//!   contracts and, for GS runs, the analytical worst-case bounds, plus
//!   the minimum-satisfying-frequency sweep used for the best-effort
//!   comparison.
//! * [`composability`] — bit-exact timeline comparison across system
//!   compositions (the paper's central claim).
//!
//! # Examples
//!
//! ```
//! use aelite_analysis::stats::Summary;
//!
//! let s = Summary::of(&[10.0, 12.0, 11.0, 50.0]).expect("non-empty");
//! assert_eq!(s.max, 50.0);
//! assert!(s.spread() > 30.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod composability;
pub mod lr_server;
pub mod service;
pub mod stats;

pub use buffer::{max_slots_in_window, required_buffer_words, undersized_connections};
pub use composability::{compare_timelines, ComposabilityResult, Divergence, Timeline};
pub use lr_server::{first_conformance_violation, lr_server, LrServer};
pub use service::{
    minimum_satisfying_frequency, verify_service, ConnVerdict, MeasuredService, ServiceReport,
};
pub use stats::{Histogram, Summary};
