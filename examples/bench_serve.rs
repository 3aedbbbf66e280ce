//! Admission-as-a-service throughput and latency: drives the
//! `aelite-serve` request pipeline with client populations churning
//! disjoint connection pools and writes `BENCH_SERVE.json`, the serving
//! perf record future PRs track.
//!
//! Per workload the harness measures, over the same merged request
//! stream after the same untimed warm-up quarter (each leg as the best
//! of five interleaved repetitions, so scheduler noise cannot fake or
//! mask a speedup):
//!
//! * **serial** — the per-op baseline: every request through
//!   `ChurnEngine::submit`, one admission round each;
//! * **batched** — the deterministic single-thread pipeline:
//!   `plan_bursts` + `ChurnEngine::submit_batch`, one admission round
//!   per independent burst, applied in canonical hardest-first order;
//! * **pipeline** — the threaded executor (`serve_pipeline`): producer
//!   threads hand per-client streams to the admission loop a chunk of
//!   requests at a time through a bounded queue, the admission loop
//!   drains bursts and records end-to-end latency in an HDR-style
//!   histogram (p50/p99/p999).
//!
//! The committed gate (asserted here, smoke-run in CI) is on the
//! 8×8-mesh/1000-connection platform: **batched throughput ≥0.5× the
//! serial per-op baseline**, with sane latency percentiles
//! (p50 ≤ p99 ≤ p999), and — only where `available_parallelism` is at
//! least 2, since the executor needs a core for its producers —
//! **pipeline throughput ≥0.5× the serial baseline**.
//!
//! The gate was re-baselined when round setup (`begin_round`) became
//! O(1): the serial path no longer pays per-request platform
//! validation, so batching's amortisation premise is gone and the
//! single-thread crossover vanished — batched now runs at ~0.6–0.7×
//! serial, the price of one slot estimate per open for canonical
//! hardest-first ordering. Batching's payoff is admission ordering
//! under contention and the sharded parallel fan-out measured in
//! `BENCH_SHARD.json`.
//!
//! Run with `cargo run --release --example bench_serve`.

use aelite_alloc::Allocation;
use aelite_online::ChurnEngine;
use aelite_serve::{
    merge_population, replay_batched, replay_serial, serve_pipeline, warm_up, PipelineConfig,
    TimedRequest,
};
use aelite_spec::app::SystemSpec;
use aelite_spec::churn::{client_population, ChurnParams};
use aelite_spec::generate::{paper_workload, scaled_workload};
use std::fmt::Write as _;

/// Maximum requests per batched admission round.
const BURST_CAP: usize = 64;

/// Timed repetitions per replay leg; each leg reports its best run
/// (noise can only slow a repetition down, never speed it up).
const REPS: usize = 5;

/// Floor on `pipeline_vs_serial` for `mesh8x8_1000` on a host with at
/// least two cores. Six runs on the 2-vCPU host gave 0.72–0.85; the
/// per-request hand-off this harness last measured gave 0.33–0.35.
const PIPELINE_FLOOR: f64 = 0.5;

struct Row {
    name: &'static str,
    platform: &'static str,
    connections: usize,
    clients: u32,
    requests: u64,
    serial_ops_per_sec: f64,
    batched_ops_per_sec: f64,
    batched_speedup: f64,
    bursts: u64,
    mean_burst: f64,
    admission_rate: f64,
    refused_opens: u64,
    refused_closes: u64,
    refused_switches: u64,
    rolled_back_opens: u64,
    pipeline_ops_per_sec: f64,
    pipeline_vs_serial: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    mean_ns: f64,
    max_ns: u64,
}

fn fresh(spec: &SystemSpec, stream: &[TimedRequest], warmup: usize) -> (ChurnEngine, Allocation) {
    let mut engine = ChurnEngine::new(spec);
    let mut alloc = Allocation::empty_for(spec);
    warm_up(spec, &mut engine, &mut alloc, stream, warmup);
    (engine, alloc)
}

fn measure(
    name: &'static str,
    platform: &'static str,
    spec: &SystemSpec,
    clients: u32,
    events_per_client: u32,
    seed: u64,
) -> Row {
    let population =
        client_population(spec, clients, &ChurnParams::steady(events_per_client), seed);
    let stream = merge_population(population);
    // Untimed ramp to steady-state occupancy on each fresh engine; the
    // remaining three quarters are the timed window.
    let warmup = stream.len() / 4;
    let timed = &stream[warmup..];

    // The threaded executor's input: the same timed window, split back
    // into per-client streams (order within each client preserved).
    let mut streams: Vec<Vec<TimedRequest>> = (0..clients).map(|_| Vec::new()).collect();
    for r in timed {
        streams[r.client as usize].push(r.clone());
    }
    let cfg = PipelineConfig {
        burst_cap: BURST_CAP,
        ..PipelineConfig::default()
    };

    // Interleaved best-of-N: scheduler noise only ever *slows* a run
    // down, so the fastest of several repetitions — the three legs
    // alternating, so a quiet window benefits all of them — recovers
    // each leg's true sustained rate.
    let mut serial: Option<aelite_serve::ReplayReport> = None;
    let mut batched: Option<aelite_serve::ReplayReport> = None;
    let mut pipeline: Option<aelite_serve::PipelineReport> = None;
    for _ in 0..REPS {
        let (mut engine, mut alloc) = fresh(spec, &stream, warmup);
        let s = replay_serial(spec, &mut engine, &mut alloc, timed);
        if serial
            .as_ref()
            .is_none_or(|b| s.ops_per_sec > b.ops_per_sec)
        {
            serial = Some(s);
        }
        let (mut engine, mut alloc) = fresh(spec, &stream, warmup);
        let b = replay_batched(spec, &mut engine, &mut alloc, timed, BURST_CAP);
        if batched
            .as_ref()
            .is_none_or(|x| b.ops_per_sec > x.ops_per_sec)
        {
            batched = Some(b);
        }
        let (mut engine, mut alloc) = fresh(spec, &stream, warmup);
        let p = serve_pipeline(spec, &mut engine, &mut alloc, &streams, &cfg);
        if pipeline
            .as_ref()
            .is_none_or(|x| p.replay.ops_per_sec > x.replay.ops_per_sec)
        {
            pipeline = Some(p);
        }
    }
    let (serial, batched, pipeline) = (serial.unwrap(), batched.unwrap(), pipeline.unwrap());

    let row = Row {
        name,
        platform,
        connections: spec.connections().len(),
        clients,
        requests: batched.requests,
        serial_ops_per_sec: serial.ops_per_sec,
        batched_ops_per_sec: batched.ops_per_sec,
        batched_speedup: batched.ops_per_sec / serial.ops_per_sec,
        bursts: batched.bursts,
        mean_burst: batched.requests as f64 / batched.bursts as f64,
        admission_rate: batched.admitted as f64 / batched.requests.max(1) as f64,
        refused_opens: batched.stats.refused_opens,
        refused_closes: batched.stats.refused_closes,
        refused_switches: batched.stats.refused_switches,
        rolled_back_opens: batched.stats.rolled_back_opens,
        pipeline_ops_per_sec: pipeline.replay.ops_per_sec,
        pipeline_vs_serial: pipeline.replay.ops_per_sec / serial.ops_per_sec,
        p50_ns: pipeline.latency.percentile(50.0),
        p99_ns: pipeline.latency.percentile(99.0),
        p999_ns: pipeline.latency.percentile(99.9),
        mean_ns: pipeline.latency.mean(),
        max_ns: pipeline.latency.max(),
    };
    println!(
        "{name:>13}: serial {:5.2} Mops/s | batched {:5.2} Mops/s ({:4.2}x, {:4.1} req/burst) | \
         pipeline {:5.2} Mops/s ({:4.2}x) | p50 {:.1} us, p99 {:.1} us, p999 {:.1} us",
        row.serial_ops_per_sec / 1e6,
        row.batched_ops_per_sec / 1e6,
        row.batched_speedup,
        row.mean_burst,
        row.pipeline_ops_per_sec / 1e6,
        row.pipeline_vs_serial,
        row.p50_ns as f64 / 1e3,
        row.p99_ns as f64 / 1e3,
        row.p999_ns as f64 / 1e3,
    );
    row
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "admission-as-a-service (client populations over disjoint pools; burst cap {BURST_CAP}, \
         first quarter untimed; {cores} core(s))"
    );
    let rows = [
        measure(
            "paper_200",
            "4x3 mesh, 4 NIs/router, 64-slot tables (Section VII)",
            &paper_workload(42),
            50,
            400,
            42,
        ),
        measure(
            "mesh8x8_1000",
            "8x8 mesh, 4 NIs/router, 64-slot tables, synthetic",
            &scaled_workload(8, 8, 4, 1000, 1),
            500,
            400,
            1,
        ),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"aelite-bench-serve/1\",\n");
    json.push_str("  \"generated_by\": \"examples/bench_serve.rs\",\n");
    json.push_str(
        "  \"note\": \"request pipeline over aelite_online::ChurnEngine: per-client Poisson churn \
         streams on disjoint connection pools, merged arrival-ordered; serial = one admission \
         round per request; batched = one round per independent burst (client-unique, cap 64), \
         applied in canonical hardest-first order over the warm RouteCache and recycled-grant \
         scratch, with per-request rollback; \
         pipeline = threaded producer/consumer executor (2 producers + the admission thread) \
         handing over chunks of up to 64 requests, latency measured from staging into the \
         chunk (chunk fill and backpressure wait included) to burst completion on a log-linear \
         HDR histogram (~6% resolution); pipeline_vs_serial = pipeline / serial ops per second. \
         ops = individual connection setups+teardowns; first quarter of each stream is an \
         untimed ramp; every leg reports the best of 5 interleaved repetitions. \
         Crossover: since begin_round became O(1) the serial path pays no per-request platform \
         validation, so single-thread batched runs at ~0.6-0.7x serial (one slot estimate per \
         open buys canonical hardest-first ordering). Batching's payoff is admission ordering \
         under contention and the sharded parallel fan-out recorded in BENCH_SHARD.json\",\n",
    );
    writeln!(json, "  \"available_parallelism\": {cores},").unwrap();
    writeln!(
        json,
        "  \"gate\": \"mesh8x8_1000: batched_speedup_vs_serial >= 0.5, pipeline_vs_serial >= \
         {PIPELINE_FLOOR} where available_parallelism >= 2, and p50 <= p99 <= p999\","
    )
    .unwrap();
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": \"{}\",", r.name).unwrap();
        writeln!(json, "      \"platform\": \"{}\",", r.platform).unwrap();
        writeln!(json, "      \"connections\": {},", r.connections).unwrap();
        writeln!(json, "      \"clients\": {},", r.clients).unwrap();
        writeln!(json, "      \"timed_requests\": {},", r.requests).unwrap();
        writeln!(
            json,
            "      \"serial_ops_per_sec\": {:.0},",
            r.serial_ops_per_sec
        )
        .unwrap();
        writeln!(
            json,
            "      \"batched_ops_per_sec\": {:.0},",
            r.batched_ops_per_sec
        )
        .unwrap();
        writeln!(
            json,
            "      \"batched_speedup_vs_serial\": {:.2},",
            r.batched_speedup
        )
        .unwrap();
        writeln!(json, "      \"bursts\": {},", r.bursts).unwrap();
        writeln!(json, "      \"mean_burst_size\": {:.1},", r.mean_burst).unwrap();
        writeln!(json, "      \"admission_rate\": {:.4},", r.admission_rate).unwrap();
        writeln!(json, "      \"refused_opens\": {},", r.refused_opens).unwrap();
        writeln!(json, "      \"refused_closes\": {},", r.refused_closes).unwrap();
        writeln!(json, "      \"refused_switches\": {},", r.refused_switches).unwrap();
        writeln!(
            json,
            "      \"rolled_back_opens\": {},",
            r.rolled_back_opens
        )
        .unwrap();
        writeln!(
            json,
            "      \"pipeline_ops_per_sec\": {:.0},",
            r.pipeline_ops_per_sec
        )
        .unwrap();
        writeln!(
            json,
            "      \"pipeline_vs_serial\": {:.2},",
            r.pipeline_vs_serial
        )
        .unwrap();
        writeln!(json, "      \"latency_p50_ns\": {},", r.p50_ns).unwrap();
        writeln!(json, "      \"latency_p99_ns\": {},", r.p99_ns).unwrap();
        writeln!(json, "      \"latency_p999_ns\": {},", r.p999_ns).unwrap();
        writeln!(json, "      \"latency_mean_ns\": {:.0},", r.mean_ns).unwrap();
        writeln!(json, "      \"latency_max_ns\": {}", r.max_ns).unwrap();
        write!(
            json,
            "    }}{}",
            if i + 1 < rows.len() { ",\n" } else { "\n" }
        )
        .unwrap();
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_SERVE.json", &json).expect("write BENCH_SERVE.json");
    println!("\nwrote BENCH_SERVE.json");

    // Batching no longer amortises round setup (begin_round is O(1)),
    // so the gate is a floor, not a speedup: batched ordering overhead
    // must stay within 2x of the serial per-op path on the 8x8/1000
    // platform, and the latency distribution must be well-formed.
    let gate = rows.iter().find(|r| r.name == "mesh8x8_1000").unwrap();
    assert!(
        gate.batched_speedup >= 0.5,
        "mesh8x8_1000 batched admission fell below 0.5x serial: {:.2}x",
        gate.batched_speedup
    );
    // The executor needs a core for its producers: on one core the two
    // sides time-slice and the ratio says nothing about the hand-off.
    assert!(
        cores < 2 || gate.pipeline_vs_serial >= PIPELINE_FLOOR,
        "mesh8x8_1000 pipeline fell below {PIPELINE_FLOOR}x the serial engine: {:.2}x",
        gate.pipeline_vs_serial
    );
    for r in &rows {
        assert!(
            r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns && r.p999_ns <= r.max_ns,
            "{}: malformed latency percentiles",
            r.name
        );
        assert!(
            r.admission_rate > 0.9,
            "{}: admission rate collapsed to {:.3}",
            r.name,
            r.admission_rate
        );
    }
}
