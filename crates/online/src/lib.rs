//! # aelite-online — high-throughput online reconfiguration
//!
//! The aelite service model (paper Section II) performs connection setup
//! and teardown *at run time*, over contention-free TDM slot tables, and
//! guarantees that a reconfiguration never disturbs the service of any
//! other connection. The design-time flow in [`aelite_alloc`] made
//! reconfiguration *possible* ([`aelite_alloc::release`] /
//! [`Allocator::extend`](aelite_alloc::Allocator::extend)); this crate
//! makes it a **hot path** behind one unified admission API: every
//! operation is an [`AdmissionRequest`] serviced by
//! [`ChurnEngine::submit`], answered with an [`AdmissionResponse`] or a
//! structured [`AdmissionError`], with cost proportional to the delta,
//! not the platform —
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
//!   [`canonical_order`] application — the foundation the `aelite-serve`
//!   request pipeline builds on;
//! * **faults** — link and router failures are churn deltas too:
//!   [`FaultEngine`] masks down links out of every admission path
//!   ([`aelite_alloc::FaultMask`]), re-routes the affected grants down a
//!   recovery ladder (make-before-break, break-then-make, structured
//!   [`RefusalCause::LinkDown`] refusal) and re-homes displaced
//!   connections on repair — bystanders bit-for-bit untouched
//!   (`tests/fault_undisturbed.rs`).
//!
//! Churn workloads (Poisson arrivals, occupancy steering, use-case
//! switches) are drawn by [`aelite_spec::churn`]; the engine's
//! throughput trajectory lives in `BENCH_CHURN.json` (regenerated by
//! `examples/bench_churn.rs`, gated at ≥1M setup+teardown ops/sec and
//! ≥10× over per-event full re-allocation on the 8×8/64-slot platform)
//! and the serving layer's in `BENCH_SERVE.json`.
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
pub use fault::{FaultEngine, FaultStats, RecoveryReport, RepairPolicy, DEFAULT_PERSISTENCE_NS};
pub use shard::{
    sharded_canonical_order, BoundaryPolicy, ShardClass, ShardConfig, ShardMap, ShardedAllocation,
    ShardedEngine,
};
