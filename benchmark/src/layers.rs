//! The traced run: one round replays the workload's own inputs through
//! the layers on its path, one public entry point at a time, with a span
//! around each call. A layer's self time is its span minus the next
//! layer down. Layers are measured from outside; the program holds no
//! probes.

use crate::api::{
    self, AdmissionRequest, AdmitState, ConnId, FaultOp, ScenarioOp, SlotMask, Steering, SystemSpec,
};
use crate::e2e::{fault_replay, turbo_outcome};
use crate::trace::{Tracer, NONE};
use crate::workloads::{
    draw_population, Kind, Stream, Workload, BURST_CAP, MESH8_UNIFORM, QUEUE_DEPTH,
};
use std::hint::black_box;
use std::time::Instant;

/// Requests of the timed stream that get per-request spans.
const TRACED_REQUESTS: usize = 50_000;
/// Cycles of the event-driven golden run.
const GOLDEN_CYCLES: u64 = 2_000;

/// One round's per-layer values and failed checks.
#[derive(Debug, Default)]
pub struct Round {
    pub values: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
}

impl Round {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

fn per(total_ns: u64, n: usize) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// Span names of one alloc-level replay.
struct AllocProbe {
    admit: &'static str,
    refused: &'static str,
    release: &'static str,
}

/// One request applied straight at the alloc layer with the engine's
/// semantics: opens skip granted connections, closes skip closed ones,
/// a switch closes, then opens hardest-first and rolls back on refusal.
/// With a tracer, every allocator call gets a span named by `probe`.
fn alloc_apply(
    spec: &SystemSpec,
    s: &mut AdmitState,
    request: &AdmissionRequest,
    req: u32,
    tr: &mut Option<&mut Tracer>,
    probe: &AllocProbe,
) {
    let admit = |s: &mut AdmitState, c: ConnId, tr: &mut Option<&mut Tracer>| {
        if s.alloc.grant(c).is_some() {
            return false;
        }
        let Some(tr) = tr else {
            return api::admit(spec, s, c);
        };
        let id = tr.begin(probe.admit, req);
        let ok = api::admit(spec, s, c);
        tr.end(id);
        if !ok {
            tr.rename(id, probe.refused);
        }
        ok
    };
    let release = |s: &mut AdmitState, c: ConnId, tr: &mut Option<&mut Tracer>| {
        if s.alloc.grant(c).is_none() {
            return;
        }
        match tr {
            Some(tr) => {
                let id = tr.begin(probe.release, req);
                api::release(s, c);
                tr.end(id);
            }
            None => {
                api::release(s, c);
            }
        }
    };
    match request {
        AdmissionRequest::Open(c) => {
            admit(s, *c, tr);
        }
        AdmissionRequest::Close(c) => release(s, *c, tr),
        AdmissionRequest::Switch { close, open } => {
            for &c in close {
                release(s, c, tr);
            }
            let mut order = open.clone();
            api::admission_order(spec, &mut order);
            let mut opened = Vec::with_capacity(order.len());
            for &c in &order {
                if admit(s, c, tr) {
                    opened.push(c);
                } else {
                    for &o in &opened {
                        release(s, o, tr);
                    }
                    break;
                }
            }
        }
    }
}

fn fault_span_name(op: &ScenarioOp) -> &'static str {
    match op {
        ScenarioOp::Churn(_) => "online.fault.churn",
        ScenarioOp::Fault(FaultOp::LinkDown(_)) => "online.fault.link_down",
        ScenarioOp::Fault(FaultOp::LinkUp(_)) => "online.fault.link_up",
        ScenarioOp::Fault(FaultOp::RouterDown(_)) => "online.fault.router_down",
        ScenarioOp::Fault(FaultOp::RouterUp(_)) => "online.fault.router_up",
        ScenarioOp::Fault(FaultOp::LinkGlitch { .. }) => "online.fault.glitch",
    }
}

/// One traced round over workload `w` drawn from `seed`.
pub fn round(w: &Workload, seed: u64, tr: &mut Tracer) -> Round {
    let mut out = Round::default();
    let (spec, ns) = tr.span("spec.build", || api::build_spec(&w.spec, seed));
    out.put("spec.build_s", ns as f64 / 1e9);
    match w.kind {
        Kind::Pipeline => serving(w, &spec, seed, tr, &mut out),
        Kind::Sharded => sharded(w, &spec, seed, tr, &mut out),
        Kind::Fault => fault(w, &spec, seed, tr, &mut out),
        Kind::Turbo => turbo(w, &spec, seed, tr, &mut out),
    }
    out
}

/// Draws and merges the client population inside `spec.population` and
/// `serve.stream.merge_population` spans.
fn drawn_stream(
    w: &Workload,
    spec: &SystemSpec,
    seed: u64,
    map: Option<&api::ShardMap>,
    tr: &mut Tracer,
    out: &mut Round,
) -> Stream {
    let (population, ns) = tr.span("spec.population", || draw_population(w, spec, seed, map));
    out.put("spec.population_s", ns as f64 / 1e9);
    let (stream, ns) = tr.span("serve.stream.merge_population", || {
        Stream::merge(population)
    });
    out.put(
        "serve.stream.merge_ns_per_req",
        per(ns, stream.requests.len()),
    );
    stream
}

/// `serve_uniform`, `admit_contended`: the pipeline peeled down to the
/// slot-mask kernels.
fn serving(w: &Workload, spec: &SystemSpec, seed: u64, tr: &mut Tracer, out: &mut Round) {
    // ---- serve.stream --------------------------------------------------
    let stream = drawn_stream(w, spec, seed, None, tr, out);
    let timed = stream.timed();
    let traced = &timed[..timed.len().min(TRACED_REQUESTS)];
    let (bursts, ns) = tr.span("serve.stream.plan_bursts", || {
        api::plan_bursts(traced, BURST_CAP)
    });
    let plan_ns = per(ns, traced.len());
    out.put("serve.stream.plan_ns_per_req", plan_ns);
    out.put(
        "serve.stream.mean_burst",
        traced.len() as f64 / bursts.len().max(1) as f64,
    );

    // A warmed engine: the state every admission layer starts from.
    let warmed = || {
        let (mut engine, mut alloc) = api::churn_engine(spec, Steering::ShortestFirst);
        api::warm_up(spec, &mut engine, &mut alloc, stream.warm());
        (engine, alloc)
    };

    // ---- serve.pipeline: the whole stack, threads included ---------------
    let streams = stream.per_client();
    let (mut engine, mut alloc) = warmed();
    let (piped, _) = tr.span("serve.pipeline", || {
        api::serve_pipeline(
            spec,
            &mut engine,
            &mut alloc,
            &streams,
            BURST_CAP,
            QUEUE_DEPTH,
        )
    });
    let pipeline_ns = per(piped.replay.elapsed_ns, timed.len());
    out.put("serve.pipeline.ns_per_req", pipeline_ns);
    out.put(
        "serve.pipeline.mean_burst",
        piped.replay.requests as f64 / piped.replay.bursts.max(1) as f64,
    );
    // The same run with a 64-deep queue: latency is service time, not
    // queue wait.
    let (mut engine, mut alloc) = warmed();
    let (shallow, _) = tr.span("serve.pipeline.w64", || {
        api::serve_pipeline(spec, &mut engine, &mut alloc, &streams, BURST_CAP, 64)
    });
    out.put(
        "serve.pipeline.p99_us.w64",
        shallow.latency.percentile(99.0) as f64 / 1e3,
    );
    drop(streams);

    let mut hist = api::LatencyHistogram::new();
    let (_, ns) = tr.span("serve.hist.record", || {
        let mut v = 0x9E37_79B9u64;
        for _ in 0..1_000_000 {
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            hist.record(v & 0xFF_FFFF);
        }
    });
    black_box(hist.count());
    out.put("serve.hist.record_ns", per(ns, 1_000_000));

    // ---- online.engine: one layer down, no threads ----------------------
    let (mut engine, mut alloc) = warmed();
    let (serial, _) = tr.span("online.engine.replay_serial", || {
        api::replay_serial(spec, &mut engine, &mut alloc, timed)
    });
    out.put(
        "alloc.table.occupancy_mean",
        alloc.mean_loaded_utilisation(),
    );
    out.put("alloc.table.occupancy_peak", alloc.peak_utilisation());
    if let Err(e) = api::validate_open(spec, &alloc) {
        out.failures.push(format!("serial end state invalid: {e}"));
    }
    let (mut engine, mut alloc) = warmed();
    let (batched, _) = tr.span("online.engine.replay_batched", || {
        api::replay_batched(spec, &mut engine, &mut alloc, timed, BURST_CAP)
    });
    let serial_ns = per(serial.elapsed_ns, timed.len());
    let batched_ns = per(batched.elapsed_ns, timed.len());
    out.put("online.engine.serial_ns_per_req", serial_ns);
    out.put("online.engine.batched_ns_per_req", batched_ns);
    out.put(
        "online.engine.batched_vs_serial",
        batched.ops_per_sec / serial.ops_per_sec,
    );
    out.put(
        "serve.pipeline.handoff_ns_per_req",
        pipeline_ns - batched_ns,
    );
    for (name, v) in [
        ("online.engine.setups", serial.stats.setups),
        ("online.engine.teardowns", serial.stats.teardowns),
        ("online.engine.switches", serial.stats.switches),
        ("online.engine.refused_opens", serial.stats.refused_opens),
        ("online.engine.refused_closes", serial.stats.refused_closes),
        (
            "online.engine.refused_switches",
            serial.stats.refused_switches,
        ),
        (
            "online.engine.rolled_back_opens",
            serial.stats.rolled_back_opens,
        ),
    ] {
        out.put(name, v as f64);
    }

    // The batched round taken apart: per burst, the canonical sort on its
    // own, then the round that repeats it inside.
    let (mut engine, mut alloc) = warmed();
    let mut order = Vec::new();
    for (k, b) in bursts.iter().enumerate() {
        let requests: Vec<AdmissionRequest> = traced[b.clone()]
            .iter()
            .map(|r| r.request.clone())
            .collect();
        let id = tr.begin("online.engine.canonical_order", k as u32);
        api::canonical_order(spec, &requests, &mut order);
        tr.end(id);
        let id = tr.begin("online.engine.submit_batch", k as u32);
        api::submit_batch(spec, &mut engine, &mut alloc, &requests);
        tr.end(id);
    }
    let canonical_ns = per(tr.total("online.engine.canonical_order").1, traced.len());
    out.put("online.engine.canonical_order_ns_per_req", canonical_ns);

    // Request by request through `submit`, by kind and verdict.
    let (mut engine, mut alloc) = warmed();
    let mut submit_ns = 0u64;
    let loop_start = Instant::now();
    for (i, r) in traced.iter().enumerate() {
        let id = tr.begin("online.engine.submit", i as u32);
        let ok = api::submit(spec, &mut engine, &mut alloc, &r.request);
        submit_ns += tr.end(id);
        tr.rename(
            id,
            match (&r.request, ok) {
                (AdmissionRequest::Open(_), true) => "online.engine.submit.open",
                (AdmissionRequest::Open(_), false) => "online.engine.submit.open_refused",
                (AdmissionRequest::Close(_), _) => "online.engine.submit.close",
                (AdmissionRequest::Switch { .. }, _) => "online.engine.submit.switch",
            },
        );
    }
    let traced_loop_ns = loop_start.elapsed().as_nanos() as u64;
    for (metric, span) in [
        ("online.engine.open_ns", "online.engine.submit.open"),
        (
            "online.engine.open_refused_ns",
            "online.engine.submit.open_refused",
        ),
        ("online.engine.close_ns", "online.engine.submit.close"),
        ("online.engine.switch_ns", "online.engine.submit.switch"),
    ] {
        out.put(metric, tr.mean_ns(span));
    }
    // The same requests untraced: what the spans themselves cost.
    let (mut engine, mut alloc) = warmed();
    let untraced = api::replay_serial(spec, &mut engine, &mut alloc, traced);
    out.put(
        "trace.overhead_share",
        (traced_loop_ns as f64 - untraced.elapsed_ns as f64) / untraced.elapsed_ns.max(1) as f64,
    );

    // ---- alloc.allocate: the same requests straight at the allocator ----
    let mut replay_at_alloc = |steering, names: [&'static str; 3]| {
        let mut s = api::admit_state(spec, steering);
        let probe = AllocProbe {
            admit: names[0],
            refused: names[1],
            release: names[2],
        };
        for r in stream.warm() {
            alloc_apply(spec, &mut s, &r.request, NONE, &mut None, &probe);
        }
        for (i, r) in traced.iter().enumerate() {
            alloc_apply(
                spec,
                &mut s,
                &r.request,
                i as u32,
                &mut Some(&mut *tr),
                &probe,
            );
        }
        s
    };
    let state = replay_at_alloc(
        Steering::ShortestFirst,
        [
            "alloc.allocate.admit",
            "alloc.allocate.admit_refused",
            "alloc.allocate.release",
        ],
    );
    replay_at_alloc(
        Steering::SpareCapacity,
        [
            "alloc.allocate.steer_admit",
            "alloc.allocate.steer_admit_refused",
            "alloc.allocate.steer_release",
        ],
    );
    for (metric, span) in [
        ("alloc.allocate.admit_ns", "alloc.allocate.admit"),
        (
            "alloc.allocate.admit_refused_ns",
            "alloc.allocate.admit_refused",
        ),
        ("alloc.allocate.release_ns", "alloc.allocate.release"),
        (
            "alloc.allocate.steer_admit_ns",
            "alloc.allocate.steer_admit",
        ),
    ] {
        out.put(metric, tr.mean_ns(span));
    }
    let alloc_ns = per(
        tr.total("alloc.allocate.admit").1
            + tr.total("alloc.allocate.admit_refused").1
            + tr.total("alloc.allocate.release").1,
        traced.len(),
    );
    let engine_self_ns = per(submit_ns, traced.len()) - alloc_ns;
    out.put("online.engine.self_ns_per_req", engine_self_ns);
    out.put(
        "trace.residual_share",
        (batched_ns - canonical_ns - plan_ns - engine_self_ns - alloc_ns) / pipeline_ns,
    );

    let conns: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
    let (_, ns) = tr.span("alloc.allocate.estimate_slots", || {
        for _ in 0..16 {
            for &c in &conns {
                black_box(api::estimate_slots(spec, c));
            }
        }
    });
    out.put(
        "alloc.allocate.estimate_slots_ns",
        per(ns, 16 * conns.len()),
    );

    // ---- alloc.route_cache ---------------------------------------------
    let mut pairs = api::ni_pairs(spec);
    pairs.sort_unstable();
    pairs.dedup();
    let mut routes = api::route_cache(spec);
    let mut lookups = |name, i| {
        let (_, ns) = tr.span(name, || {
            for &p in &pairs {
                black_box(api::route_candidate(spec, &mut routes, p, i));
            }
        });
        per(ns, pairs.len())
    };
    out.put(
        "alloc.route_cache.miss_ns",
        lookups("alloc.route_cache.miss", 0),
    );
    out.put(
        "alloc.route_cache.hit_ns",
        lookups("alloc.route_cache.hit", 0),
    );
    out.put(
        "alloc.route_cache.detour_ns",
        lookups("alloc.route_cache.detour", 2),
    );
    out.put(
        "alloc.route_cache.resident_pairs",
        api::resident_pairs(&routes) as f64,
    );
    let links = api::links(spec);
    let down: Vec<_> = links.iter().step_by(links.len() / 8).copied().collect();
    let mask = api::fault_mask(&down);
    let (_, ns) = tr.span("alloc.route_cache.set_faults", || {
        api::set_faults(&mut routes, &mask)
    });
    out.put("alloc.route_cache.set_faults_us", ns as f64 / 1e3);

    // ---- alloc.mask / alloc.table: kernels on the warmed tables ----------
    let tables: Vec<_> = state
        .alloc
        .grants()
        .flat_map(|g| g.links.iter().map(|&l| state.alloc.link_table(l).clone()))
        .take(4096)
        .collect();
    let size = state.alloc.table_size();
    let mut acc = SlotMask::new_full(size);
    let (_, ns) = tr.span("alloc.mask.and_rotated", || {
        for _ in 0..64 {
            for (i, t) in tables.iter().enumerate() {
                acc.and_rotated(t.free_mask(), i as u32 % size);
            }
        }
    });
    black_box(acc.count());
    // One row per mask width: each serving workload fills its own.
    match size {
        32 => out.put("alloc.mask.and_rotated_ns.s32", per(ns, 64 * tables.len())),
        64 => out.put("alloc.mask.and_rotated_ns.s64", per(ns, 64 * tables.len())),
        _ => out.check(
            false,
            "no alloc.mask.and_rotated_ns row for this table size",
        ),
    }
    let (_, ns) = tr.span("alloc.mask.nearest_one", || {
        for _ in 0..64 {
            for (i, t) in tables.iter().enumerate() {
                black_box(t.free_mask().nearest_one(i as u32 % size));
            }
        }
    });
    out.put("alloc.mask.nearest_one_ns", per(ns, 64 * tables.len()));
    let mut scratch_tables = tables.clone();
    let (pairs_done, ns) = tr.span("alloc.table.reserve_release", || {
        let mut done = 0usize;
        for _ in 0..16 {
            for t in &mut scratch_tables {
                if let Some(slot) = t.free_mask().first_one() {
                    black_box(t.reserve(slot, conns[0]).is_ok());
                    black_box(t.release(slot));
                    done += 1;
                }
            }
        }
        done
    });
    out.put("alloc.table.reserve_release_ns", per(ns, pairs_done));
}

/// `shard_regional`: the sharded replay on one and two workers, the
/// bare engine on the same stream, and the same layer on a uniform
/// stream, where most requests cross shards.
fn sharded(w: &Workload, spec: &SystemSpec, seed: u64, tr: &mut Tracer, out: &mut Round) {
    let map = api::shard_map(spec);
    let stream = drawn_stream(w, spec, seed, Some(&map), tr, out);
    let timed = stream.timed();
    let (_, ns) = tr.span("serve.stream.plan_bursts_sharded", || {
        black_box(api::plan_bursts_sharded(timed, BURST_CAP, &map));
    });
    out.put("serve.stream.plan_sharded_ns_per_req", per(ns, timed.len()));

    let cross_share = |tr: &mut Tracer, name, map: &api::ShardMap, timed: &[api::TimedRequest]| {
        let (cross, ns) = tr.span(name, || {
            timed
                .iter()
                .filter(|r| api::shard_lane(map, &r.request) == map.shards())
                .count()
        });
        (
            cross as f64 / timed.len().max(1) as f64,
            per(ns, timed.len()),
        )
    };
    let (share, classify_ns) = cross_share(tr, "online.shard.classify", &map, timed);
    out.put("online.shard.classify_ns_per_req", classify_ns);
    out.put("online.shard.cross_share", share);

    let sharded_replay = |tr: &mut Tracer, name, spec: &SystemSpec, stream: &Stream, threads| {
        let (mut engine, mut alloc) = api::sharded_engine(spec);
        api::warm_up_sharded(spec, &mut engine, &mut alloc, stream.warm());
        let (report, _) = tr.span(name, || {
            api::replay_sharded(
                spec,
                &mut engine,
                &mut alloc,
                stream.timed(),
                BURST_CAP,
                threads,
            )
        });
        let end: Vec<_> = api::collapse(&engine, &alloc).grants().cloned().collect();
        (report, end)
    };
    let (t1, end1) = sharded_replay(tr, "online.shard.replay.t1", spec, &stream, 1);
    let (t2, end2) = sharded_replay(tr, "online.shard.replay.t2", spec, &stream, 2);
    out.check(
        t1.admitted == t2.admitted && t1.ops == t2.ops && end1 == end2,
        "sharded verdicts or end state differ between 1 and 2 threads",
    );
    out.put(
        "online.shard.ns_per_req.t1",
        per(t1.elapsed_ns, timed.len()),
    );
    out.put(
        "online.shard.ns_per_req.t2",
        per(t2.elapsed_ns, timed.len()),
    );
    out.put(
        "online.shard.speedup_t2",
        t1.elapsed_ns as f64 / t2.elapsed_ns.max(1) as f64,
    );
    let (mut engine, mut alloc) = api::churn_engine(spec, Steering::ShortestFirst);
    api::warm_up(spec, &mut engine, &mut alloc, stream.warm());
    let (batched, _) = tr.span("online.engine.replay_batched", || {
        api::replay_batched(spec, &mut engine, &mut alloc, timed, BURST_CAP)
    });
    out.put(
        "online.shard.vs_engine",
        t1.ops_per_sec / batched.ops_per_sec,
    );

    // The 2PC-heavy use of the same layer: uniform destinations, clients
    // not grouped by shard.
    let uniform = api::build_spec(&MESH8_UNIFORM, seed);
    let uniform_map = api::shard_map(&uniform);
    let uniform_stream = Stream::merge(draw_population(w, &uniform, seed, None));
    let (share, _) = cross_share(
        tr,
        "online.shard.classify.uniform",
        &uniform_map,
        uniform_stream.timed(),
    );
    out.put("online.shard.uniform_cross_share", share);
    let (u2, _) = sharded_replay(
        tr,
        "online.shard.replay.uniform",
        &uniform,
        &uniform_stream,
        2,
    );
    out.put(
        "online.shard.uniform_ns_per_req",
        per(u2.elapsed_ns, uniform_stream.timed().len()),
    );
}

/// `fault_storm`: the merged scenario under both steering modes, then
/// event by event.
fn fault(w: &Workload, spec: &SystemSpec, seed: u64, tr: &mut Tracer, out: &mut Round) {
    let (scenario, ns) = tr.span("spec.scenario", || {
        api::fault_scenario(spec, w.scenario.0, w.scenario.1, seed)
    });
    out.put("spec.scenario_s", ns as f64 / 1e9);
    for (name, metric, steering) in [
        (
            "online.fault.replay.shortest_first",
            "online.fault.replay_ms.shortest_first",
            Steering::ShortestFirst,
        ),
        (
            "online.fault.replay.spare_capacity",
            "online.fault.replay_ms.spare_capacity",
            Steering::SpareCapacity,
        ),
    ] {
        let mut started = None;
        let id = tr.begin(name, NONE);
        let replay = fault_replay(spec, &scenario, steering, |_, apply| {
            started.get_or_insert_with(Instant::now);
            apply();
        });
        tr.end(id);
        let ms = started.map_or(0.0, |t| replay.done.duration_since(t).as_secs_f64() * 1e3);
        out.put(metric, ms);
        out.failures.extend(replay.failures);
    }
    let mut k = 0u32;
    let replay = fault_replay(spec, &scenario, Steering::SpareCapacity, |e, apply| {
        let id = tr.begin(fault_span_name(&e.op), k);
        apply();
        tr.end(id);
        k += 1;
    });
    for (metric, span) in [
        ("online.fault.link_down_us", "online.fault.link_down"),
        ("online.fault.router_down_us", "online.fault.router_down"),
        ("online.fault.link_up_us", "online.fault.link_up"),
        ("online.fault.router_up_us", "online.fault.router_up"),
        ("online.fault.glitch_us", "online.fault.glitch"),
    ] {
        out.put(metric, tr.mean_ns(span) / 1e3);
    }
    out.put(
        "online.fault.churn_ns_per_op",
        tr.mean_ns("online.fault.churn"),
    );
    let f = replay.stats;
    for (name, v) in [
        ("online.fault.affected", f.affected),
        ("online.fault.survived", f.survived()),
        ("online.fault.dropped", f.dropped),
        ("online.fault.restored", f.restored),
        ("online.fault.glitches", f.glitches),
        ("online.fault.escalated", f.escalated),
        (
            "online.fault.refused_link_down",
            replay.churn.refused_link_down,
        ),
    ] {
        out.put(name, v as f64);
    }
    out.failures.extend(replay.failures);
}

/// `turbo_mesh16`: cold and warm batch allocation, the turbo kernel on
/// the workload's platform and on one a quarter its size, and the
/// event-driven golden reference on the paper platform.
fn turbo(w: &Workload, spec: &SystemSpec, seed: u64, tr: &mut Tracer, out: &mut Round) {
    let (alloc, cold_ns) = tr.span("alloc.allocate.batch_cold", || api::allocate(spec));
    let Some(alloc) = alloc else {
        out.check(false, "workload does not allocate");
        return;
    };
    let conns = spec.connections().len() as f64;
    out.put(
        "alloc.allocate.batch_cold_conns_per_s",
        conns / (cold_ns as f64 / 1e9),
    );
    let mut routes = api::route_cache(spec);
    black_box(api::allocate_with_cache(spec, &mut routes));
    let (_, ns) = tr.span("alloc.allocate.batch_warm", || {
        black_box(api::allocate_with_cache(spec, &mut routes));
    });
    out.put(
        "alloc.allocate.batch_warm_conns_per_s",
        conns / (ns as f64 / 1e9),
    );

    let (mut net, ns) = tr.span("noc.turbo.build", || api::build_turbo(spec, &alloc));
    out.put("noc.turbo.build_s", ns as f64 / 1e9);
    let (_, ns) = tr.span("noc.turbo.run_cycles", || net.run_cycles(w.sim_cycles));
    let run = turbo_outcome(spec, &alloc, &net);
    out.check(run.flits > 0, "turbo delivered nothing");
    out.check(
        run.min_slack_cycles >= 0,
        "a flit overran its analytical latency bound",
    );
    let mut sources: Vec<_> = api::ni_pairs(spec).into_iter().map(|p| p.0).collect();
    sources.sort_unstable();
    sources.dedup();
    let ni_slots = sources.len() as u64 * (w.sim_cycles / api::slot_cycles(spec));
    out.put("noc.turbo.ns_per_flit", per(ns, run.flits as usize));
    out.put("noc.turbo.ns_per_cycle", per(ns, w.sim_cycles as usize));
    out.put("noc.turbo.ns_per_ni_slot", per(ns, ni_slots as usize));
    out.put("noc.turbo.flits_delivered", run.flits as f64);
    out.put(
        "noc.turbo.max_latency_cycles",
        run.max_latency_cycles as f64,
    );
    out.put(
        "noc.turbo.min_bound_slack_cycles",
        run.min_slack_cycles as f64,
    );
    drop(net);

    // The same traffic at the same density on a quarter of the platform:
    // the slope of host time per cycle over platform size.
    let quarter = api::build_spec(&w.spec.quarter(), seed);
    match api::allocate(&quarter) {
        Some(a) => {
            let mut net = api::build_turbo(&quarter, &a);
            let (_, ns) = tr.span("noc.turbo.run_cycles.mesh8", || {
                net.run_cycles(w.sim_cycles)
            });
            out.put(
                "noc.turbo.ns_per_cycle.mesh8",
                per(ns, w.sim_cycles as usize),
            );
        }
        None => out.check(false, "quarter-size platform does not allocate"),
    }

    // Golden reference on the paper platform.
    let paper = api::paper_spec(seed % 30);
    let Some(paper_alloc) = api::allocate(&paper) else {
        out.check(false, "paper platform does not allocate");
        return;
    };
    let mut event = api::build_network(&paper, &paper_alloc);
    let (_, event_ns) = tr.span("noc.network.run_cycles", || event.run_cycles(GOLDEN_CYCLES));
    let mut turbo = api::build_turbo(&paper, &paper_alloc);
    let (_, turbo_ns) = tr.span("noc.turbo.run_cycles.golden", || {
        turbo.run_cycles(GOLDEN_CYCLES)
    });
    out.put(
        "noc.network.event_ns_per_cycle",
        per(event_ns, GOLDEN_CYCLES as usize),
    );
    out.put(
        "noc.network.turbo_speedup",
        event_ns as f64 / turbo_ns.max(1) as f64,
    );
    let same = event.logs.len() == turbo.logs.len()
        && event
            .logs
            .iter()
            .zip(&turbo.logs)
            .all(|((ce, le), (ct, lt))| ce == ct && *le.borrow() == *lt.borrow());
    out.check(same, "turbo delivery logs diverge from the event engine");
}
