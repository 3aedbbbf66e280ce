//! # aelite-serve — admission-as-a-service over the churn engine
//!
//! [`aelite_online`] services one admission request at a time; this
//! crate puts a request pipeline in front of it, simulating a large
//! population of concurrent clients churning their own connections
//! against one live mesh:
//!
//! * [`aelite_spec::churn::client_population`] draws per-client request
//!   streams over **disjoint** connection pools; [`merge_population`]
//!   interleaves them into the arrival-ordered stream a front door would
//!   see.
//! * [`plan_bursts`] cuts that stream into maximal bursts of independent
//!   requests (a client appears at most once per burst; disjoint pools
//!   lift that to connection independence), and
//!   [`ChurnEngine::submit_batch`](aelite_online::ChurnEngine::submit_batch)
//!   applies each burst as **one batched admission round** in canonical
//!   order (teardowns, switches, then opens hardest-first) with
//!   per-request rollback; round setup is O(1), so on one thread a burst
//!   buys that ordering, not time.
//! * [`serve_pipeline`] is the executor: a hand-rolled producer/consumer
//!   pipeline (no async runtime — `std::thread::scope`, an atomic client
//!   cursor, and a bounded mpsc queue for backpressure) that drains
//!   bursts off the queue and records end-to-end request latency in a
//!   hand-rolled HDR-style [`LatencyHistogram`] (log-linear buckets, ~6%
//!   relative resolution, p50/p99/p999). Producers hand requests over a
//!   chunk at a time — one thread synchronisation per up to `burst_cap`
//!   requests, as a flit crosses a clock domain whole — which leaves
//!   every burst as it was and runs the pipeline at ~0.8× the bare
//!   serial engine on two cores.
//! * [`replay_serial`] and [`replay_batched`] are the deterministic
//!   single-thread modes: the former is the per-op baseline, the latter
//!   applies the same planned bursts reproducibly — which is what the
//!   equivalence proptests pin against a canonical serial application
//!   (`tests/proptest_serve.rs`).
//!
//! Throughput and latency numbers live in `BENCH_SERVE.json`,
//! regenerated by `examples/bench_serve.rs` and gated at batched ≥0.5×
//! serial on the 8×8/1000-connection platform (a floor, not a speedup)
//! and, on hosts with two or more cores, pipeline ≥0.5× serial.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hist;
pub mod pipeline;
pub mod stream;

pub use hist::LatencyHistogram;
pub use pipeline::{
    replay_batched, replay_serial, replay_sharded, serve_pipeline, warm_up, warm_up_sharded,
    PipelineConfig, PipelineReport, ReplayReport,
};
pub use stream::{merge_population, plan_bursts, plan_bursts_sharded, TimedRequest};
