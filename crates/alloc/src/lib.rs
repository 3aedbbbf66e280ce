//! # aelite-alloc — contention-free TDM resource allocation
//!
//! The design-time flow that turns an [`aelite_spec::SystemSpec`] into an
//! [`allocate::Allocation`]: a source route and a set of TDM slots per
//! connection such that no two flits ever arrive at the same link in the
//! same slot (the paper's contention-free routing, Section III).
//!
//! * [`path`] — source-route paths and minimal-hop route enumeration.
//! * [`mask`] — word-level bitset kernels (rotate-and-AND, bit scans)
//!   behind the allocator's hot path.
//! * [`route_cache`] — [`route_cache::RouteCache`]: memoized, lazily
//!   enumerated route candidates per (src, dst) NI pair (memory ∝ pairs
//!   routed), filtered through a link-fault mask.
//! * [`table`] — per-link slot tables.
//! * [`mod@allocate`] — the greedy hardest-first allocator.
//! * [`validate`] — an independent checker that re-derives every guarantee.
//!
//! Run-time reconfiguration — releasing grants and admitting new
//! connections into a live allocation without disturbing anyone — is
//! `aelite-online`'s `ChurnEngine`, over [`Allocation::take_grant`] and
//! [`Allocator::admit_in_round`].
//!
//! # Examples
//!
//! Allocate the paper's 200-connection workload and verify it:
//!
//! ```
//! use aelite_alloc::{allocate, validate};
//! use aelite_spec::generate::paper_workload;
//!
//! let spec = paper_workload(42);
//! let alloc = allocate(&spec)?;
//! validate::validate(&spec, &alloc).expect("allocation is contention-free");
//! # Ok::<(), aelite_alloc::AllocError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocate;
pub mod mask;
pub mod path;
pub mod route_cache;
pub mod table;
pub mod validate;

pub use allocate::{
    admission_order, allocate, estimate_slots, AdmissionRound, AllocError, AllocScratch,
    Allocation, Allocator, Grant, Steering,
};
pub use mask::SlotMask;
pub use path::{dimension_ordered, route_candidates, Path, PathError};
pub use route_cache::{CachedRoute, FaultMask, RouteCache, RouteProvider};
pub use table::SlotTable;
pub use validate::{validate as validate_allocation, Violation};
