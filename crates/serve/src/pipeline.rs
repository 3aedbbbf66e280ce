//! The admission pipeline: deterministic serial/batched replays of a
//! request stream (for throughput comparison and proptest pinning) and a
//! threaded producer/consumer executor with per-request latency
//! percentiles.

use crate::hist::LatencyHistogram;
use crate::stream::{plan_bursts, plan_bursts_sharded, TimedRequest};
use aelite_alloc::Allocation;
use aelite_online::{
    AdmissionRequest, ChurnEngine, ChurnStats, ShardClass, ShardedAllocation, ShardedEngine,
};
use aelite_spec::SystemSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::time::Instant;

/// Outcome of one timed replay of a request stream.
#[derive(Debug, Clone, Copy)]
pub struct ReplayReport {
    /// Requests serviced in the timed window.
    pub requests: u64,
    /// Batched rounds the window was applied in (== `requests` for the
    /// serial replay).
    pub bursts: u64,
    /// Requests answered with an `AdmissionResponse`.
    pub admitted: u64,
    /// Requests answered with an `AdmissionError`.
    pub refused: u64,
    /// Individual setup + teardown operations performed.
    pub ops: u64,
    /// Wall-clock time of the timed window, in nanoseconds.
    pub elapsed_ns: u64,
    /// Successful operations per second (`ops / elapsed`).
    pub ops_per_sec: f64,
    /// Engine counter delta over the timed window.
    pub stats: ChurnStats,
}

impl ReplayReport {
    /// The report of a window that serviced `requests` requests in
    /// `bursts` rounds, `admitted` of them successfully, in `elapsed_ns`,
    /// moving the engine's counters by `stats`.
    fn new(requests: u64, bursts: u64, admitted: u64, elapsed_ns: u64, stats: ChurnStats) -> Self {
        ReplayReport {
            requests,
            bursts,
            admitted,
            refused: requests - admitted,
            ops: stats.ops(),
            elapsed_ns,
            ops_per_sec: stats.ops() as f64 / (elapsed_ns as f64 / 1e9).max(1e-12),
            stats,
        }
    }
}

/// Applies `stream[..warmup]` serially (untimed) to bring `engine` and
/// `alloc` to steady state: occupancy near target, route cache warm,
/// recycled-grant pool filled.
pub fn warm_up(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    stream: &[TimedRequest],
    warmup: usize,
) {
    for r in &stream[..warmup] {
        let _ = engine.submit(spec, alloc, r.request.clone());
    }
}

/// Replays `stream` one request at a time through
/// [`ChurnEngine::submit`] — the serial per-op baseline every batched
/// number is compared against.
#[must_use]
pub fn replay_serial(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    stream: &[TimedRequest],
) -> ReplayReport {
    let before = *engine.stats();
    let mut admitted = 0u64;
    let t0 = Instant::now();
    for r in stream {
        if engine.submit(spec, alloc, r.request.clone()).is_ok() {
            admitted += 1;
        }
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let n = stream.len() as u64;
    ReplayReport::new(n, n, admitted, elapsed_ns, engine.stats().delta(&before))
}

/// Replays `stream` through [`ChurnEngine::submit_batch`]: plans
/// independent bursts (capped at `burst_cap`) and applies each as one
/// batched admission round. Burst planning and request staging are
/// inside the timed window — the reported throughput is end to end.
///
/// Deterministic: same stream, same cap, same warmed state → identical
/// bursts, verdicts and end state (this is the single-thread mode the
/// equivalence proptests pin against [`replay_serial`] in canonical
/// order).
///
/// # Panics
///
/// Panics if `burst_cap` is zero.
#[must_use]
pub fn replay_batched(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    stream: &[TimedRequest],
    burst_cap: usize,
) -> ReplayReport {
    let before = *engine.stats();
    let mut admitted = 0u64;
    let mut reqs: Vec<AdmissionRequest> = Vec::with_capacity(burst_cap);
    let mut verdicts = Vec::with_capacity(burst_cap);
    let t0 = Instant::now();
    let bursts = plan_bursts(stream, burst_cap);
    for b in &bursts {
        reqs.clear();
        reqs.extend(stream[b.clone()].iter().map(|r| r.request.clone()));
        engine.submit_batch(spec, alloc, &reqs, &mut verdicts);
        admitted += verdicts.iter().filter(|v| v.is_ok()).count() as u64;
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    ReplayReport::new(
        stream.len() as u64,
        bursts.len() as u64,
        admitted,
        elapsed_ns,
        engine.stats().delta(&before),
    )
}

/// [`warm_up`] for the sharded engine: applies `stream[..warmup]` as
/// single-request bursts (untimed, single-threaded) to bring every
/// shard's engine and partition to steady state.
pub fn warm_up_sharded(
    spec: &SystemSpec,
    engine: &mut ShardedEngine,
    alloc: &mut ShardedAllocation,
    stream: &[TimedRequest],
    warmup: usize,
) {
    let mut verdicts = Vec::with_capacity(1);
    for r in &stream[..warmup] {
        let burst = [r.request.clone()];
        engine.submit_batch(spec, alloc, &burst, &mut verdicts, 1);
    }
}

/// Replays `stream` through [`ShardedEngine::replay_stream`]: plans
/// shard-aware bursts (per-lane capacity `burst_cap`, see
/// [`plan_bursts_sharded`]) and applies them with segment-scoped
/// threading on up to `threads` workers. Planning, classification and
/// request staging are all inside the timed window — the reported
/// throughput is end to end.
///
/// Deterministic for any `threads`: per-connection request order is
/// preserved by the shard lanes, so verdicts and end state are
/// bit-identical to submitting each planned burst through
/// [`ShardedEngine::submit_batch`], whatever the worker count (the
/// thread-count invariance `tests/shard_replay.rs` pins).
///
/// # Panics
///
/// Panics if `burst_cap` is zero, or on platform mismatch.
#[must_use]
pub fn replay_sharded(
    spec: &SystemSpec,
    engine: &mut ShardedEngine,
    alloc: &mut ShardedAllocation,
    stream: &[TimedRequest],
    burst_cap: usize,
    threads: usize,
) -> ReplayReport {
    let before = engine.stats();
    let mut verdicts = Vec::new();
    let t0 = Instant::now();
    let lanes = engine.map().shards() + 1; // last lane = cross-shard
    let map = engine.map();
    let bursts = plan_bursts_sharded(stream, burst_cap, lanes, |r| match map.classify(r) {
        ShardClass::Intra(k) => k,
        ShardClass::Cross => lanes - 1,
    });
    let reqs: Vec<AdmissionRequest> = stream.iter().map(|r| r.request.clone()).collect();
    engine.replay_stream(spec, alloc, &reqs, &bursts, threads, &mut verdicts);
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let admitted = verdicts.iter().filter(|v| v.is_ok()).count() as u64;
    ReplayReport::new(
        stream.len() as u64,
        bursts.len() as u64,
        admitted,
        elapsed_ns,
        engine.stats().delta(&before),
    )
}

/// Tuning knobs of the threaded pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Producer threads feeding the admission queue. Each repeatedly
    /// claims the next un-served client off an atomic cursor and enqueues
    /// that client's requests in order.
    pub producers: usize,
    /// Maximum requests per hand-off chunk — one channel message, one
    /// thread synchronisation. It sizes the hand-off only: every request
    /// is admitted on its own, on arrival, whatever chunk it crossed in.
    /// (Not named `chunk` because the frozen `benchmark/src/api.rs`
    /// writes this field; ROADMAP queues the rename.)
    pub burst_cap: usize,
    /// Requests queued between producers and the admission loop — the
    /// backpressure window. The queue holds chunks of
    /// `min(burst_cap, queue_depth)` requests (1 when `queue_depth` is 0:
    /// a rendezvous hand-off); a producer blocks, holding the chunk it
    /// staged, while the queue is full, and that wait is part of the
    /// measured request latency.
    pub queue_depth: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            producers: 2,
            burst_cap: 64,
            queue_depth: 8192,
        }
    }
}

/// Outcome of a threaded pipeline run: the replay numbers plus the
/// end-to-end request latency distribution.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Throughput and admission accounting of the run
    /// (`bursts == requests`: the live path batches nothing).
    pub replay: ReplayReport,
    /// End-to-end latency (staged for enqueue → the request's own
    /// verdict) of every request, in nanoseconds.
    pub latency: LatencyHistogram,
}

/// Runs the threaded admission pipeline: `cfg.producers` threads enqueue
/// the per-client request streams (claimed whole off an atomic cursor,
/// preserving each client's order) into a bounded channel, and this
/// thread's admission loop admits every request on arrival through
/// [`ChurnEngine::submit`]. A verdict is therefore a function of arrival
/// order alone — never of what happened to be queued beside the request —
/// and any recorded arrival order replays through [`replay_serial`]
/// (which one producer reproduces exactly: `tests/serve_pipeline.rs`).
///
/// The hand-off is chunk-granular, as aelite's clock-domain crossings
/// are flit-granular: a producer stages up to
/// `min(cfg.burst_cap, cfg.queue_depth)` consecutive requests of its
/// client into one message, so the threads synchronise once per chunk,
/// not once per request. The admission loop reads the chunks request by
/// request, so chunking changes no verdict.
///
/// Per-request latency is measured from the moment the request is staged
/// into its chunk — the rest of the chunk's fill and any backpressure
/// wait are inside it — to that request's own verdict. With several
/// producers the arrival order depends on thread interleaving, so
/// throughput and latency are measurements, not reproducible artifacts.
///
/// # Panics
///
/// Panics if `cfg.producers` is zero, `cfg.burst_cap` is zero, or a
/// producer thread panics (poisoned channel).
#[must_use]
pub fn serve_pipeline(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    streams: &[Vec<TimedRequest>],
    cfg: &PipelineConfig,
) -> PipelineReport {
    assert!(cfg.producers > 0, "need at least one producer");
    assert!(cfg.burst_cap > 0, "chunk capacity must be positive");

    let before = *engine.stats();
    let cursor = AtomicUsize::new(0);
    // Whole chunks cross the channel; `queue_depth / chunk` of them keep
    // at most `queue_depth` requests queued.
    let chunk = cfg.burst_cap.min(cfg.queue_depth).max(1);
    let (tx, rx) = sync_channel::<Vec<(Instant, AdmissionRequest)>>(cfg.queue_depth / chunk);

    let mut latency = LatencyHistogram::new();
    let mut admitted = 0u64;
    let mut requests = 0u64;

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..cfg.producers {
            let tx = tx.clone();
            let cursor = &cursor;
            s.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(stream) = streams.get(k) else { break };
                for part in stream.chunks(chunk) {
                    let staged = part
                        .iter()
                        .map(|r| (Instant::now(), r.request.clone()))
                        .collect();
                    tx.send(staged).expect("admission loop outlives producers");
                }
            });
        }
        drop(tx);

        // The admission loop: arrival order, one verdict per request.
        while let Ok(staged) = rx.recv() {
            for (t, request) in staged {
                if engine.submit(spec, alloc, request).is_ok() {
                    admitted += 1;
                }
                latency.record(t.elapsed().as_nanos() as u64);
                requests += 1;
            }
        }
    });
    let elapsed_ns = t0.elapsed().as_nanos() as u64;

    let stats = engine.stats().delta(&before);
    PipelineReport {
        replay: ReplayReport::new(requests, requests, admitted, elapsed_ns, stats),
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::merge_population;
    use aelite_spec::churn::{client_population, ChurnParams};
    use aelite_spec::generate::paper_workload;

    fn setup(
        clients: u32,
        events: u32,
        seed: u64,
    ) -> (SystemSpec, ChurnEngine, Allocation, Vec<TimedRequest>) {
        let spec = paper_workload(42);
        let stream = merge_population(client_population(
            &spec,
            clients,
            &ChurnParams::steady(events),
            seed,
        ));
        let engine = ChurnEngine::new(&spec);
        let alloc = Allocation::empty_for(&spec);
        (spec, engine, alloc, stream)
    }

    #[test]
    fn batched_replay_matches_burstwise_canonical_serial() {
        use crate::stream::plan_bursts;
        use aelite_online::canonical_order;

        let (spec, mut e1, mut a1, stream) = setup(8, 250, 3);
        let warmup = stream.len() / 4;
        warm_up(&spec, &mut e1, &mut a1, &stream, warmup);
        // Reference: each planned burst submitted serially in canonical
        // order — the order the batch applies internally.
        let timed = &stream[warmup..];
        let before1 = *e1.stats();
        let mut admitted = 0u64;
        let mut order = Vec::new();
        for b in plan_bursts(timed, 64) {
            let reqs: Vec<_> = timed[b].iter().map(|r| r.request.clone()).collect();
            canonical_order(&spec, &reqs, &mut order);
            for &i in &order {
                if e1.submit(&spec, &mut a1, reqs[i].clone()).is_ok() {
                    admitted += 1;
                }
            }
        }

        let (_, mut e2, mut a2, _) = setup(8, 250, 3);
        warm_up(&spec, &mut e2, &mut a2, &stream, warmup);
        let batched = replay_batched(&spec, &mut e2, &mut a2, timed, 64);

        // Identical outcomes, fewer rounds than requests.
        assert_eq!(batched.requests, timed.len() as u64);
        assert_eq!(batched.admitted, admitted);
        assert_eq!(batched.stats, e1.stats().delta(&before1));
        assert!(batched.bursts < batched.requests);
        for c in spec.connections() {
            assert_eq!(a1.grant(c.id), a2.grant(c.id), "{} diverged", c.id);
        }
    }

    #[test]
    fn pipeline_services_every_request_and_measures_latency() {
        let (spec, mut engine, mut alloc, stream) = setup(10, 100, 9);
        let warmup = stream.len() / 4;
        warm_up(&spec, &mut engine, &mut alloc, &stream, warmup);
        // Split the remainder per client, preserving order.
        let mut streams: Vec<Vec<TimedRequest>> = (0..10).map(|_| Vec::new()).collect();
        for r in &stream[warmup..] {
            streams[r.client as usize].push(r.clone());
        }
        let report = serve_pipeline(
            &spec,
            &mut engine,
            &mut alloc,
            &streams,
            &PipelineConfig::default(),
        );
        assert_eq!(report.replay.requests, (stream.len() - warmup) as u64);
        assert_eq!(report.latency.count(), report.replay.requests);
        assert!(report.replay.bursts > 0);
        assert!(report.replay.ops > 0);
        let p50 = report.latency.percentile(50.0);
        let p99 = report.latency.percentile(99.0);
        let p999 = report.latency.percentile(99.9);
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
        assert!(p999 <= report.latency.max());
    }
}
