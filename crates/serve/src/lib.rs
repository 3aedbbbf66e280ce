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
//! * [`serve_pipeline`] is the executor: a hand-rolled producer/consumer
//!   pipeline (no async runtime — `std::thread::scope`, an atomic client
//!   cursor, and a bounded mpsc queue for backpressure) whose admission
//!   loop admits every request **on arrival** through
//!   [`ChurnEngine::submit`](aelite_online::ChurnEngine::submit) — a
//!   verdict is a function of arrival order alone, never of what was
//!   queued beside the request — and records stage → own-verdict latency
//!   in a hand-rolled HDR-style [`LatencyHistogram`] (log-linear buckets,
//!   ~6% relative resolution, p50/p99/p999). Producers hand requests over
//!   a chunk at a time — one thread synchronisation per up to
//!   `burst_cap` requests, as a flit crosses a clock domain whole — which
//!   changes no verdict and runs the pipeline at ~0.8× the bare serial
//!   engine on two cores.
//! * [`replay_serial`] and [`replay_batched`] are the deterministic
//!   single-thread modes. The former is the per-op baseline, and what
//!   one producer reproduces exactly (`tests/serve_pipeline.rs`,
//!   `tests/proptest_serve.rs`). The latter is the offline batched
//!   replay: [`plan_bursts`] cuts the stream into maximal bursts of
//!   independent requests (a client appears at most once per burst;
//!   disjoint pools lift that to connection independence), and
//!   [`ChurnEngine::submit_batch`](aelite_online::ChurnEngine::submit_batch)
//!   applies each burst as **one batched admission round** in canonical
//!   order (teardowns, switches, then opens hardest-first) with
//!   per-request rollback — pinned against a canonical serial
//!   application by `tests/proptest_serve.rs`.
//!
//! The live path batches nothing because batching buys nothing there.
//! Round setup is O(1), so a burst buys only its hardest-first order,
//! and on `admit_contended`'s recipe (8×8, 32 slots, 2000 hotspot
//! connections, 199 clients × 4000 events, 95 % open) that order moves
//! the admitted share of 597 000 requests by +0.00015 on average over
//! seeds 1–5, sign mixed (0.93277→0.93325, 0.92985→0.93010,
//! 0.93243→0.93236, 0.92863→0.92849, 0.92978→0.92999), while costing
//! `online.engine.batched_vs_serial` 0.74–0.80. Batched rounds stay for
//! what uses them: the engine's hardest-first fault re-home, the
//! sharded replay's per-shard rounds ([`replay_sharded`]) and the
//! offline benchmark rows.
//!
//! Throughput and latency numbers are rows of the repository's
//! `benchmark/` package: `serve_uniform` end to end and
//! `serve.pipeline.{ns_per_req,p99_us.w64}` per layer, beside
//! `online.engine.{serial,batched}_ns_per_req` for the bare engine
//! (seed-1 medians on the 2-vCPU Xeon @ 2.10 GHz host: 335 ns serial,
//! 441 ns batched, `batched_vs_serial` 0.74; the chunked hand-off's
//! paired runs read `serve_uniform` at 2.26M ops/s).

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
