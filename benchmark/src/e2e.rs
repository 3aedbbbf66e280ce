//! The untraced end-to-end repetitions. Each one regenerates its inputs
//! from the seed, builds fresh state, replays the untimed warm-up, times
//! one window, and checks the end state.

use crate::api::{self, Allocation, Grant, ScenarioOp, Steering, SystemSpec};
use crate::stats;
use crate::workloads::{draw_population, Kind, Stream, Workload, BURST_CAP, QUEUE_DEPTH};
use std::time::Instant;

#[derive(Debug)]
pub struct Rep {
    /// Input generation + state build + warm-up, before the window opens.
    pub setup_s: f64,
    pub window_s: f64,
    /// Units of work the window completed (throughput numerator).
    pub work: u64,
    /// Operations the window attempted.
    pub attempted: u64,
    /// `served_share`: requests admitted of requests made, affected
    /// grants that survived of grants affected, flits delivered within
    /// their connection's analytical bound of flits delivered.
    pub served: (u64, u64),
    /// This repetition's value of each `metrics::SECONDARY` metric the
    /// workload has.
    pub secondary: Vec<(&'static str, f64)>,
    /// Outcomes that must repeat exactly in every repetition.
    pub counts: Vec<(&'static str, u64)>,
    /// Output checks that failed; empty when the outputs are correct.
    pub failures: Vec<String>,
}

pub fn repetition(w: &Workload, seed: u64, first: bool) -> Rep {
    match w.kind {
        Kind::Pipeline => pipeline(w, seed),
        Kind::Sharded => sharded(w, seed, first),
        Kind::Fault => fault(w, seed),
        Kind::Turbo => turbo(w, seed),
    }
}

fn check(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

fn replay_counts(r: &api::ReplayReport) -> Vec<(&'static str, u64)> {
    vec![
        ("requests", r.requests),
        ("admitted", r.admitted),
        ("refused", r.refused),
        ("setups", r.stats.setups),
        ("teardowns", r.stats.teardowns),
        ("switches", r.stats.switches),
        ("refused_opens", r.stats.refused_opens),
        ("refused_switches", r.stats.refused_switches),
        ("rolled_back_opens", r.stats.rolled_back_opens),
    ]
}

fn pipeline(w: &Workload, seed: u64) -> Rep {
    let t0 = Instant::now();
    let spec = api::build_spec(&w.spec, seed);
    let stream = Stream::merge(draw_population(w, &spec, seed, None));
    let streams = stream.per_client();
    let (mut engine, mut alloc) = api::churn_engine(&spec, Steering::ShortestFirst);
    api::warm_up(&spec, &mut engine, &mut alloc, stream.warm());
    let setup_s = t0.elapsed().as_secs_f64();

    let report = api::serve_pipeline(
        &spec,
        &mut engine,
        &mut alloc,
        &streams,
        BURST_CAP,
        QUEUE_DEPTH,
    );

    let mut failures = Vec::new();
    let replay = &report.replay;
    check(
        &mut failures,
        replay.requests == stream.timed().len() as u64,
        || {
            format!(
                "pipeline served {} of {} requests",
                replay.requests,
                stream.timed().len()
            )
        },
    );
    check(
        &mut failures,
        report.latency.count() == replay.requests,
        || "latency histogram missed requests".into(),
    );
    if let Err(e) = api::validate_open(&spec, &alloc) {
        failures.push(format!("end state invalid: {e}"));
    }
    Rep {
        setup_s,
        window_s: replay.elapsed_ns as f64 / 1e9,
        work: replay.ops,
        attempted: replay.requests,
        served: (replay.admitted, replay.requests),
        secondary: [("admit_p50_us", 50.0), ("admit_p99_us", 99.0)]
            .into_iter()
            .filter(|&(_, p)| stats::supports(report.latency.count(), p))
            .map(|(name, p)| (name, report.latency.percentile(p) as f64 / 1e3))
            .collect(),
        counts: replay_counts(replay),
        failures,
    }
}

/// The grants of an allocation, in connection-id order: two end states
/// are the same when these are equal.
fn end_state(alloc: &Allocation) -> Vec<Grant> {
    alloc.grants().cloned().collect()
}

fn sharded(w: &Workload, seed: u64, first: bool) -> Rep {
    let t0 = Instant::now();
    let spec = api::build_spec(&w.spec, seed);
    let (mut engine, mut alloc) = api::sharded_engine(&spec);
    let stream = Stream::merge(draw_population(w, &spec, seed, Some(engine.map())));
    api::warm_up_sharded(&spec, &mut engine, &mut alloc, stream.warm());
    let setup_s = t0.elapsed().as_secs_f64();

    let r = api::replay_sharded(&spec, &mut engine, &mut alloc, stream.timed(), BURST_CAP, 2);

    let mut failures = Vec::new();
    let collapsed = api::collapse(&engine, &alloc);
    if let Err(e) = api::validate_open(&spec, &collapsed) {
        failures.push(format!("collapsed end state invalid: {e}"));
    }
    if first {
        // Thread-count invariance: the same stream on one worker must
        // give the same verdict counts and the same collapsed end state.
        let (mut e1, mut a1) = api::sharded_engine(&spec);
        api::warm_up_sharded(&spec, &mut e1, &mut a1, stream.warm());
        let r1 = api::replay_sharded(&spec, &mut e1, &mut a1, stream.timed(), BURST_CAP, 1);
        check(
            &mut failures,
            (r1.admitted, r1.ops, r1.bursts) == (r.admitted, r.ops, r.bursts),
            || format!("admitted {} on 2 threads, {} on 1", r.admitted, r1.admitted),
        );
        check(
            &mut failures,
            end_state(&api::collapse(&e1, &a1)) == end_state(&collapsed),
            || "end state differs between 1 and 2 threads".into(),
        );
    }
    Rep {
        setup_s,
        window_s: r.elapsed_ns as f64 / 1e9,
        work: r.ops,
        attempted: r.requests,
        served: (r.admitted, r.requests),
        secondary: Vec::new(),
        counts: vec![
            ("requests", r.requests),
            ("admitted", r.admitted),
            ("refused", r.refused),
            ("ops", r.ops),
            ("bursts", r.bursts),
        ],
        failures,
    }
}

/// What a fault replay leaves behind.
#[derive(Debug)]
pub struct FaultOutcome {
    pub stats: api::FaultStats,
    /// Engine counters over the scenario (population excluded).
    pub churn: api::ChurnStats,
    /// When the last event and the final clock advance had been applied.
    pub done: Instant,
    pub failures: Vec<String>,
}

/// Replays `spec`'s merged scenario on a fully populated platform,
/// calling `timed(event, apply)` around every event, and checks the
/// fault invariants on the end state.
pub fn fault_replay(
    spec: &SystemSpec,
    scenario: &api::FaultScenario,
    steering: Steering,
    mut timed: impl FnMut(&api::ScenarioEvent, &mut dyn FnMut()),
) -> FaultOutcome {
    let (mut engine, mut alloc) = api::fault_engine(spec, steering);
    for c in spec.connections() {
        api::apply_event(spec, &mut engine, &mut alloc, &api::open_event(c.id));
    }
    let before = *engine.engine().stats();
    for e in &scenario.events {
        timed(e, &mut || {
            api::apply_event(spec, &mut engine, &mut alloc, e);
        });
    }
    // Run the clock past every pending glitch: only enforced faults
    // remain masked in the end state.
    let end_ns = scenario.events.last().map_or(0, |e| e.at_ns);
    api::advance_to(spec, &mut engine, &mut alloc, end_ns + 1_000_000);
    let done = Instant::now();

    let mut failures = Vec::new();
    let stats = *engine.stats();
    let over_down = alloc
        .grants()
        .filter(|g| g.links.iter().any(|&l| engine.enforced().is_down(l)))
        .count();
    check(&mut failures, over_down == 0, || {
        format!("{over_down} grant(s) over an enforced-down link")
    });
    check(
        &mut failures,
        engine.mask().down_count() == engine.enforced().down_count(),
        || "glitches still masked after the final advance".into(),
    );
    check(
        &mut failures,
        stats.survived() + stats.dropped == stats.affected,
        || "survived + dropped != affected".into(),
    );
    if let Err(e) = api::validate_open(spec, &alloc) {
        failures.push(format!("end state invalid: {e}"));
    }
    FaultOutcome {
        stats,
        churn: engine.engine().stats().delta(&before),
        done,
        failures,
    }
}

fn fault(w: &Workload, seed: u64) -> Rep {
    let t0 = Instant::now();
    let spec = api::build_spec(&w.spec, seed);
    let scenario = api::fault_scenario(&spec, w.scenario.0, w.scenario.1, seed);
    // Populating the platform is inside fault_replay, before its first
    // timed call; the window opens at the first scenario event.
    let mut setup_s = 0.0;
    let mut window: Option<Instant> = None;
    let mut per_op_us = Vec::with_capacity(w.scenario.1 as usize);
    let out = fault_replay(&spec, &scenario, Steering::SpareCapacity, |e, apply| {
        window.get_or_insert_with(|| {
            setup_s = t0.elapsed().as_secs_f64();
            Instant::now()
        });
        if matches!(e.op, ScenarioOp::Fault(_)) {
            let t = Instant::now();
            apply();
            per_op_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        } else {
            apply();
        }
    });
    let stats = out.stats;
    let failures = out.failures;
    // A percentile the sample cannot support (a smoke run's tail) is
    // not reported.
    let secondary = [("recover_p50_us", 50.0), ("recover_p99_us", 99.0)]
        .into_iter()
        .filter_map(|(name, p)| Some((name, stats::percentile(&per_op_us, p)?)))
        .collect();
    Rep {
        setup_s,
        window_s: window.map_or(0.0, |t| out.done.duration_since(t).as_secs_f64()),
        work: scenario.len() as u64,
        attempted: scenario.len() as u64,
        served: (stats.survived(), stats.affected),
        secondary,
        counts: vec![
            ("events", scenario.len() as u64),
            ("fault_ops", scenario.fault_ops()),
            ("affected", stats.affected),
            ("survived", stats.survived()),
            ("dropped", stats.dropped),
            ("restored", stats.restored),
            ("glitches", stats.glitches),
            ("escalated", stats.escalated),
        ],
        failures,
    }
}

/// What a turbo run delivered, over the connections that delivered.
#[derive(Debug, Clone, Copy)]
pub struct TurboOutcome {
    pub flits: u64,
    /// Flits of connections whose worst observed latency is within
    /// `Allocation::worst_case_latency_cycles`.
    pub flits_within_bound: u64,
    pub max_latency_cycles: u64,
    /// Smallest slack to the analytical bound; negative when a flit
    /// overran it.
    pub min_slack_cycles: i64,
}

pub fn turbo_outcome(spec: &SystemSpec, alloc: &Allocation, net: &api::TurboNet) -> TurboOutcome {
    let mut out = TurboOutcome {
        flits: 0,
        flits_within_bound: 0,
        max_latency_cycles: 0,
        min_slack_cycles: i64::MAX,
    };
    for c in spec.connections() {
        let l = net.latency(c.id);
        if l.flits > 0 {
            let bound = alloc.worst_case_latency_cycles(spec, c.id);
            out.flits += l.flits;
            if l.max_cycles <= bound {
                out.flits_within_bound += l.flits;
            }
            out.max_latency_cycles = out.max_latency_cycles.max(l.max_cycles);
            out.min_slack_cycles = out.min_slack_cycles.min(bound as i64 - l.max_cycles as i64);
        }
    }
    out
}

fn turbo(w: &Workload, seed: u64) -> Rep {
    let t0 = Instant::now();
    let spec = api::build_spec(&w.spec, seed);
    let mut failures = Vec::new();
    // Cold batch allocation is part of set-up and timed on its own.
    let t_alloc = Instant::now();
    let allocated = api::allocate(&spec);
    let alloc_s = t_alloc.elapsed().as_secs_f64();
    let Some(alloc) = allocated else {
        failures.push("workload does not allocate".into());
        return Rep {
            setup_s: t0.elapsed().as_secs_f64(),
            window_s: 0.0,
            work: 0,
            attempted: 0,
            served: (0, 0),
            secondary: Vec::new(),
            counts: Vec::new(),
            failures,
        };
    };
    let mut net = api::build_turbo(&spec, &alloc);
    let setup_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    net.run_cycles(w.sim_cycles);
    let window_s = t1.elapsed().as_secs_f64();

    let out = turbo_outcome(&spec, &alloc, &net);
    check(&mut failures, out.flits > 0, || "nothing delivered".into());
    check(&mut failures, out.min_slack_cycles >= 0, || {
        format!(
            "a flit overran its analytical latency bound by {} cycles",
            -out.min_slack_cycles
        )
    });
    let connections = spec.connections().len() as u64;
    Rep {
        setup_s,
        window_s,
        work: out.flits,
        attempted: out.flits,
        served: (out.flits_within_bound, out.flits),
        secondary: vec![("alloc_conns_per_s", connections as f64 / alloc_s)],
        counts: vec![
            ("connections", connections),
            ("cycles", w.sim_cycles),
            ("flits", out.flits),
            ("max_latency_cycles", out.max_latency_cycles),
        ],
        failures,
    }
}

/// The turbo kernel against the event-driven golden reference on the
/// paper platform: delivery logs must be bit-for-bit equal.
pub fn turbo_golden(seed: u64, cycles: u64) -> Result<(), String> {
    // Seeds 0-29 of the paper platform are the ones the repository pins
    // as allocatable.
    let spec = api::paper_spec(seed % 30);
    let alloc = api::allocate(&spec).ok_or("paper platform does not allocate")?;
    let mut event = api::build_network(&spec, &alloc);
    let mut turbo = api::build_turbo(&spec, &alloc);
    event.run_cycles(cycles);
    turbo.run_cycles(cycles);
    for c in spec.connections() {
        if *event.log(c.id).borrow() != *turbo.log(c.id).borrow() {
            return Err(format!(
                "{}: turbo delivery log diverges from the event engine",
                c.id
            ));
        }
    }
    Ok(())
}
