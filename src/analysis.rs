//! Statistics, service verification and composability checks: the
//! measurement side of the reproduction.
//!
//! * [`stats`] — latency summaries, percentiles and histograms (the
//!   paper's distribution arguments).
//! * [`service`] — checking measured throughput/latency against
//!   contracts and, for GS runs, the analytical worst-case bounds, plus
//!   the minimum-satisfying-frequency sweep used for the best-effort
//!   comparison.
//! * [`compare_logs`] — whole-record comparison of two runs' delivery
//!   logs (`aelite_noc::ni`), the one check behind composability across
//!   system compositions (the paper's central claim), undisturbed
//!   service across reconfiguration and engine equivalence.
//!
//! The flow-control buffer sizing that decides which turbo connections
//! book credits is `aelite_alloc::allocate::required_buffer_words`,
//! below the simulators.
//!
//! # Examples
//!
//! ```
//! use aelite::analysis::stats::Summary;
//!
//! let s = Summary::of(&[10.0, 12.0, 11.0, 50.0]).expect("non-empty");
//! assert_eq!(s.max, 50.0);
//! assert!(s.spread() > 30.0);
//! ```

pub mod service;
pub mod stats;

pub use aelite_noc::ni::{compare_logs, ComposabilityResult, Divergence};
pub use service::{
    minimum_satisfying_frequency, verify_service, ConnVerdict, MeasuredService, ServiceReport,
};
pub use stats::{Histogram, Summary};
