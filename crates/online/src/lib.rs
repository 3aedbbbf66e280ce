//! # aelite-online — high-throughput online reconfiguration
//!
//! The aelite service model (paper Section II) performs connection setup
//! and teardown *at run time*, over contention-free TDM slot tables, and
//! guarantees that a reconfiguration never disturbs the service of any
//! other connection. The design-time flow in [`aelite_alloc`] supplies
//! the two kernels
//! ([`Allocation::take_grant`](aelite_alloc::Allocation::take_grant) /
//! [`Allocator::admit_in_round`](aelite_alloc::Allocator::admit_in_round));
//! this crate is the one reconfiguration path over them —
//! the umbrella crate's `aelite::AeliteSystem::reconfigure` is an
//! [`AdmissionRequest::Switch`] — and a **hot path** behind one unified
//! admission API: every operation is an [`AdmissionRequest`] serviced by
//! [`ChurnEngine::submit`] (or a burst of them by
//! [`ChurnEngine::submit_batch`]) or a scenario op applied by
//! [`ChurnEngine::apply`] — there is no other way in — answered with an
//! [`AdmissionResponse`] or a structured [`AdmissionError`], with cost
//! proportional to the delta, not the platform —
//!
//! * **teardown** frees exactly the torn-down grant's `slots × links`
//!   table entries through word-level free-mask updates
//!   ([`Allocation::take_grant`](aelite_alloc::Allocation::take_grant)),
//!   never rescanning a table;
//! * **setup** runs the bitset admission kernel with a persistent
//!   [`RouteCache`](aelite_alloc::RouteCache) and per-engine
//!   [`AllocScratch`](aelite_alloc::AllocScratch) working memory, and
//!   recycles every released grant's buffers, so the steady-state churn
//!   loop is allocation-free;
//! * **use-case switch** applies a close-set + open-set as one delta,
//!   rolling back its own opens on failure — and in every case the
//!   grants of persisting connections are *bit-for-bit untouched*, which
//!   is what makes their delivery behaviour provably undisturbed
//!   (validated against the turbo cycle-accurate simulator in
//!   `tests/churn_undisturbed.rs`);
//! * **bursts** of independent requests go through
//!   [`ChurnEngine::submit_batch`]: one batched admission round per
//!   burst, per-request rollback, verdicts identical to a serial
//!   [`canonical_order`] application — what the fault re-home, the
//!   sharded engine's per-shard rounds and `aelite-serve`'s offline
//!   batched replay run on (the live serving pipeline admits per
//!   request, on arrival);
//! * **faults** — link and router failures are churn deltas too, serviced
//!   by the same engine ([`ChurnEngine::apply`]): its fault mask
//!   ([`aelite_alloc::FaultMask`]) filters every admission path, affected
//!   grants walk a recovery ladder (make-before-break, break-then-make,
//!   structured [`RefusalCause::LinkDown`] refusal) and repairs re-home
//!   displaced connections — bystanders bit-for-bit untouched
//!   (`tests/fault_undisturbed.rs`).
//!
//! Churn workloads (Poisson arrivals, occupancy steering, use-case
//! switches) are drawn by [`aelite_spec::churn`]; what a request costs
//! is measured by the repository's `benchmark/` package, per layer:
//! `online.engine.{serial_ns_per_req,open_ns,close_ns,switch_ns}` (335,
//! 533, 232 and 1210 ns on the 8×8/64-slot/1000-connection
//! `serve_uniform` stream — seed-1 medians, 2-vCPU Xeon @ 2.10 GHz),
//! `online.fault.*` for the recovery ladder, `online.shard.*` for the
//! shard-ordered replay ([`shard`]), and the serving layer's `serve.*`
//! rows.
//!
//! # Examples
//!
//! ```
//! use aelite_alloc::allocate;
//! use aelite_online::{AdmissionRequest, AdmissionResponse, ChurnEngine};
//! use aelite_spec::generate::paper_workload;
//!
//! let spec = paper_workload(42);
//! let mut alloc = allocate(&spec).unwrap();
//! let mut engine = ChurnEngine::new(&spec);
//!
//! // Tear a connection down and admit it again, online.
//! let conn = spec.connections()[0].id;
//! let resp = engine.submit(&spec, &mut alloc, AdmissionRequest::Close(conn));
//! assert_eq!(resp, Ok(AdmissionResponse::Closed(conn)));
//! let resp = engine.submit(&spec, &mut alloc, AdmissionRequest::Open(conn));
//! assert_eq!(resp, Ok(AdmissionResponse::Opened(conn)));
//! assert_eq!(engine.stats().ops(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
pub mod engine;
pub mod fault;
pub mod shard;

pub use api::{AdmissionError, AdmissionRequest, AdmissionResponse, RefusalCause};
pub use engine::{canonical_order, ChurnEngine, ChurnStats, RerouteOutcome};
pub use fault::DEFAULT_PERSISTENCE_NS;
/// Kept only for two `aelite-serve` signatures the frozen benchmark
/// calls; released by ROADMAP 5(c).
pub use shard::ShardedAllocation;
pub use shard::{sharded_canonical_order, ShardClass, ShardConfig, ShardMap, ShardedEngine};

/// A former name of [`ChurnEngine`], kept only for the frozen benchmark;
/// released by ROADMAP 5(c).
pub type FaultEngine = ChurnEngine;
/// A former name of [`ChurnStats`], kept only for the frozen benchmark;
/// released by ROADMAP 5(c).
pub type FaultStats = ChurnStats;

impl ChurnEngine {
    /// Identity, kept only for the frozen benchmark; released by ROADMAP 5(c).
    pub fn with_engine(self) -> Self {
        self
    }

    /// Identity, kept only for the frozen benchmark; released by ROADMAP 5(c).
    pub fn engine(&self) -> &Self {
        self
    }
}
