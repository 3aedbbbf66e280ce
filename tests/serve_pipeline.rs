//! The threaded executor against the deterministic replays.
//!
//! With one producer `serve_pipeline` enqueues the streams it is given
//! back to back, so its admission loop sees exactly their concatenation
//! and must answer it as `replay_serial` does, request for request —
//! whatever the queue depth, and however the hand-off groups requests
//! between the two threads. With several producers the interleaving is
//! free, but every request must still be served exactly once and each
//! client's own order must survive.

use aelite_alloc::{validate_allocation, Allocation};
use aelite_online::ChurnEngine;
use aelite_serve::{
    merge_population, replay_serial, serve_pipeline, warm_up, PipelineConfig, ReplayReport,
    TimedRequest,
};
use aelite_spec::app::SystemSpec;
use aelite_spec::churn::{client_population, ChurnParams};
use aelite_spec::generate::WorkloadBuilder;

const CLIENTS: u32 = 23;
const WARMUP: usize = 64;

fn warmed(spec: &SystemSpec, stream: &[TimedRequest]) -> (ChurnEngine, Allocation) {
    let mut engine = ChurnEngine::new(spec);
    let mut alloc = Allocation::empty_for(spec);
    warm_up(spec, &mut engine, &mut alloc, stream, WARMUP);
    (engine, alloc)
}

/// The timed window split back per client, order within each preserved.
fn per_client(timed: &[TimedRequest]) -> Vec<Vec<TimedRequest>> {
    let mut streams = vec![Vec::new(); CLIENTS as usize];
    for r in timed {
        streams[r.client as usize].push(r.clone());
    }
    streams
}

/// Something is open, and what is open is a valid allocation.
fn assert_valid_end_state(spec: &SystemSpec, alloc: &Allocation) {
    let open: Vec<_> = alloc.grants().map(|g| g.conn).collect();
    assert!(!open.is_empty());
    let live = spec.restricted_to_connections(&open);
    validate_allocation(&live, alloc).expect("pipeline end state is a valid allocation");
}

/// The 32-slot platform held 95% open with one switch per ~20 events:
/// some opens are refused and some switches roll back, so the verdicts
/// are not all `Ok` and a request served out of order would show.
fn contended() -> (SystemSpec, Vec<TimedRequest>) {
    let spec = WorkloadBuilder::mesh(4, 4, 2)
        .connections(240)
        .slot_table_size(32)
        .bandwidth_mb(20, 200)
        .ni_load_cap(0.95)
        .seed(77)
        .build();
    let churn = ChurnParams {
        target_open: 0.95,
        switch_weight: 0.05,
        ..ChurnParams::steady(90)
    };
    let stream = merge_population(client_population(&spec, CLIENTS, &churn, 99));
    (spec, stream)
}

/// `serve_pipeline` with one producer ≡ `replay_serial` over the
/// concatenated streams: counts, counter deltas and every grant.
/// Returns the serial report both agreed on.
fn assert_pipeline_equals_serial(
    spec: &SystemSpec,
    stream: &[TimedRequest],
    streams: &[Vec<TimedRequest>],
    burst_cap: usize,
    queue_depth: usize,
) -> ReplayReport {
    let what = format!("burst_cap {burst_cap}, queue_depth {queue_depth}");
    let concat: Vec<TimedRequest> = streams.iter().flatten().cloned().collect();
    let (mut e1, mut a1) = warmed(spec, stream);
    let serial = replay_serial(spec, &mut e1, &mut a1, &concat);

    let (mut e2, mut a2) = warmed(spec, stream);
    let cfg = PipelineConfig {
        producers: 1,
        burst_cap,
        queue_depth,
    };
    let piped = serve_pipeline(spec, &mut e2, &mut a2, streams, &cfg);

    assert_eq!(piped.latency.count(), concat.len() as u64, "{what}");
    assert_eq!(piped.replay.requests, serial.requests, "{what}: requests");
    assert_eq!(piped.replay.bursts, piped.replay.requests, "{what}: bursts");
    assert_eq!(piped.replay.admitted, serial.admitted, "{what}: admitted");
    assert_eq!(piped.replay.refused, serial.refused, "{what}: refused");
    assert_eq!(piped.replay.stats, serial.stats, "{what}: stats");
    for c in spec.connections() {
        assert_eq!(a1.grant(c.id), a2.grant(c.id), "{what}: {} grant", c.id);
    }
    serial
}

#[test]
fn one_producer_pipeline_equals_serial_replay_at_every_queue_shape() {
    let (spec, stream) = contended();
    let timed = &stream[WARMUP..];

    // Per-client streams of uneven length, plus the stream shapes a
    // chunked hand-off could mishandle: an empty one, and one shorter
    // than any chunk.
    let mut streams = per_client(timed);
    let tail = streams[5].split_off(1);
    streams.insert(6, Vec::new());
    streams.push(tail);
    assert!(streams.iter().any(|s| s.len() % 64 != 0 && s.len() > 64));
    // The whole window as ONE arrival-ordered stream: consecutive
    // requests come from different clients here, so every hand-off chunk
    // mixes clients.
    let merged = [timed.to_vec()];
    for shape in [&streams[..], &merged[..]] {
        let serial = assert_pipeline_equals_serial(&spec, &stream, shape, 64, 1024);
        assert!(serial.stats.refused_opens > 0, "nothing refused");
        assert!(
            serial.stats.refused_switches > 0 && serial.stats.rolled_back_opens > 0,
            "no switch rolled back"
        );
        for (burst_cap, queue_depth) in [(64, 64), (3, 2), (1, 1), (64, 0)] {
            assert_pipeline_equals_serial(&spec, &stream, shape, burst_cap, queue_depth);
        }
    }
    // No streams at all, and only empty ones.
    assert_pipeline_equals_serial(&spec, &stream, &[], 64, 1024);
    assert_pipeline_equals_serial(&spec, &stream, &[Vec::new(), Vec::new()], 64, 0);
}

#[test]
fn three_producers_serve_every_request_once_in_each_clients_order() {
    // Light connections on 64-slot tables: the whole pool fits at once,
    // so no interleaving of the clients can refuse a request.
    let spec = WorkloadBuilder::mesh(4, 4, 2)
        .connections(120)
        .bandwidth_mb(5, 20)
        .seed(5)
        .build();
    let stream = merge_population(client_population(
        &spec,
        CLIENTS,
        &ChurnParams::steady(120),
        11,
    ));
    let timed = &stream[WARMUP..];
    let streams = per_client(timed);

    let (mut engine, mut alloc) = warmed(&spec, &stream);
    let serial = replay_serial(&spec, &mut engine, &mut alloc, timed);
    assert_eq!(serial.admitted, serial.requests, "workload refuses");

    let (mut e2, mut a2) = warmed(&spec, &stream);
    let cfg = PipelineConfig {
        producers: 3,
        burst_cap: 64,
        queue_depth: 4,
    };
    let piped = serve_pipeline(&spec, &mut e2, &mut a2, &streams, &cfg);

    let total: usize = streams.iter().map(Vec::len).sum();
    assert_eq!(piped.replay.requests, total as u64);
    assert_eq!(piped.latency.count(), total as u64);
    // A client's requests only make sense in its own order (close after
    // open, switch from the use-case it is in): all admitted means no
    // client's order was broken, dropped from or added to.
    assert_eq!(piped.replay.admitted, total as u64);
    assert_eq!(piped.replay.stats.ops(), serial.stats.ops());
    for c in spec.connections() {
        assert_eq!(
            a2.grant(c.id).is_some(),
            alloc.grant(c.id).is_some(),
            "{} open in one end state only",
            c.id
        );
    }
    assert_valid_end_state(&spec, &a2);
}

#[test]
fn three_contended_producers_serve_every_request_once_into_a_valid_end_state() {
    // The refusing, rolling-back workload under a free interleaving: the
    // verdicts now depend on the arrival order the threads produce, but
    // the accounting and the tables may not.
    let (spec, stream) = contended();
    let timed = &stream[WARMUP..];
    let (mut e1, mut a1) = warmed(&spec, &stream);
    let serial = replay_serial(&spec, &mut e1, &mut a1, timed);
    assert!(
        serial.refused > 0 && serial.stats.rolled_back_opens > 0,
        "workload is not contended"
    );

    let (mut engine, mut alloc) = warmed(&spec, &stream);
    let cfg = PipelineConfig {
        producers: 3,
        burst_cap: 8,
        queue_depth: 16,
    };
    let piped = serve_pipeline(&spec, &mut engine, &mut alloc, &per_client(timed), &cfg);

    let r = &piped.replay;
    assert_eq!(r.requests, timed.len() as u64);
    assert_eq!(r.admitted + r.refused, r.requests);
    assert_eq!(r.bursts, r.requests);
    assert_eq!(piped.latency.count(), r.requests);
    assert_valid_end_state(&spec, &alloc);
}
