//! Golden equivalence: the compiled turbo kernel must reproduce the
//! event-driven cycle-accurate simulator **bit for bit** — every
//! `FlitDelivery` record (connection, tag, destination cycle, absolute
//! time) identical — on the paper platform, on scaled meshes and on
//! 8- and 128-slot tables, in both clocking organisations.
//!
//! Neither engine stores a flit's absolute time: a delivery log keeps
//! its connection and the destination NI's clock once, and derives each
//! record's time from that clock and the flit's cycle. The time clause
//! stays a real check because the event-driven sink logs through
//! `FlitLog::push`, which asserts that the time the simulator sampled
//! the flit at is exactly the one the log will read back.
//!
//! Under CBR traffic every golden platform's buffers cover every
//! connection, so the kernel books no credits there; the buffer sweep at
//! the end drives saturating traffic through buffers small enough that
//! credits bind, with credit-free and credit-bound connections side by
//! side.
//!
//! This is the contract that lets the DSE `--validate` stage and the
//! throughput benchmarks trust the turbo engine: the event-driven
//! `aelite_sim::scheduler::Simulator` build stays the golden reference,
//! and these tests are the pin holding the two together.

use aelite_alloc::allocate;
use aelite_alloc::allocate::required_buffer_words;
use aelite_noc::network::{build_network, NetworkKind, CREDIT_RETURN_CYCLES};
use aelite_noc::ni::Message;
use aelite_noc::turbo::build_turbo;
use aelite_spec::app::SystemSpec;
use aelite_spec::config::NocConfig;
use aelite_spec::generate::{paper_workload, scaled_workload, WorkloadBuilder, WorkloadParams};
use aelite_spec::ids::ConnId;

/// Runs both engines with CBR traffic for `cycles` and asserts every
/// connection's delivery log identical; returns total flits compared.
fn assert_golden(spec: &SystemSpec, kind: NetworkKind, cycles: u64) -> u64 {
    let alloc = allocate(spec).expect("workload allocates");
    let mut event = build_network(spec, &alloc, kind, true);
    let mut turbo = build_turbo(spec, &alloc, kind, true);
    event.run_cycles(cycles);
    turbo.run_cycles(cycles);
    let mut flits = 0u64;
    for c in spec.connections() {
        let ev = event.log(c.id).borrow();
        let tb = turbo.log(c.id).borrow();
        assert_eq!(*ev, *tb, "{}: delivery logs diverge", c.id);
        flits += ev.len() as u64;
    }
    assert!(flits > 0, "nothing delivered in {cycles} cycles");
    flits
}

/// Runs the event engine once and the turbo kernel both in one run and
/// in steps of `step` cycles to `cycles`, after checking that the
/// allocation has every owned-slot shape whose next-slot search wraps
/// across table revolutions: a connection owning a single slot, one
/// owning slot 0 and one owning the last slot. All three logs of every
/// connection must be identical.
fn assert_golden_wrapping(spec: &SystemSpec, kind: NetworkKind, cycles: u64, step: u64) {
    let alloc = allocate(spec).expect("workload allocates");
    let size = spec.config().slot_table_size;
    let slots: Vec<&[u32]> = spec
        .connections()
        .iter()
        .map(|c| alloc.grant(c.id).expect("granted").inject_slots.as_slice())
        .collect();
    assert!(
        slots.iter().any(|s| s.len() == 1),
        "no single-slot connection"
    );
    assert!(slots.iter().any(|s| s.contains(&0)), "nobody owns slot 0");
    assert!(
        slots.iter().any(|s| s.contains(&(size - 1))),
        "nobody owns slot {}",
        size - 1
    );

    let mut event = build_network(spec, &alloc, kind, true);
    let mut oneshot = build_turbo(spec, &alloc, kind, true);
    let mut stepped = build_turbo(spec, &alloc, kind, true);
    event.run_cycles(cycles);
    oneshot.run_cycles(cycles);
    for deadline in (1..cycles / step).map(|k| k * step).chain([cycles]) {
        stepped.run_cycles(deadline);
    }
    let mut flits = 0;
    for c in spec.connections() {
        let ev = event.log(c.id).borrow();
        assert_eq!(
            *ev,
            *oneshot.log(c.id).borrow(),
            "{}: delivery logs diverge",
            c.id
        );
        assert_eq!(
            *ev,
            *stepped.log(c.id).borrow(),
            "{}: stepped logs diverge",
            c.id
        );
        flits += ev.len();
    }
    assert!(flits > 1_000, "only {flits} flits in {cycles} cycles");
}

#[test]
fn eight_slot_tables_golden() {
    // One slot per connection; a slot start every 24 cycles.
    let sync = WorkloadBuilder::mesh(3, 3, 2)
        .slot_table_size(8)
        .connections(40)
        .build();
    assert_golden_wrapping(&sync, NetworkKind::Synchronous, 6_000, 37);
    let meso = sync.with_link_pipeline_stages(1, 2);
    assert_golden_wrapping(
        &meso,
        NetworkKind::Mesochronous { phase_seed: 13 },
        6_000,
        37,
    );
}

#[test]
fn one_hundred_twenty_eight_slot_tables_golden() {
    // 1-6 slots per connection out of 128: a revolution is 384 cycles,
    // and the relaxed mega-mesh deadlines let one slot meet them.
    let sync = WorkloadBuilder::mesh(3, 3, 2)
        .mega_traffic()
        .connections(60)
        .bandwidth_mb(5, 60)
        .slot_table_size(128)
        .build();
    assert_golden_wrapping(&sync, NetworkKind::Synchronous, 20_000, 571);
    let meso = sync.with_link_pipeline_stages(1, 2);
    assert_golden_wrapping(
        &meso,
        NetworkKind::Mesochronous { phase_seed: 29 },
        20_000,
        571,
    );
}

#[test]
fn paper_platform_synchronous_golden() {
    // Section VII: 4x3 mesh, 12 routers, 48 NIs, 200 connections.
    let spec = paper_workload(42);
    let flits = assert_golden(&spec, NetworkKind::Synchronous, 10_000);
    assert!(flits > 10_000, "only {flits} flits on the paper platform");
}

#[test]
fn paper_platform_mesochronous_golden() {
    let spec = paper_workload(42).with_link_pipeline_stages(1, 1);
    for seed in [7u64, 41] {
        assert_golden(&spec, NetworkKind::Mesochronous { phase_seed: seed }, 5_000);
    }
}

#[test]
fn scaled_4x4_synchronous_golden() {
    let spec = scaled_workload(4, 4, 4, 500, 1);
    assert_golden(&spec, NetworkKind::Synchronous, 6_000);
}

#[test]
fn scaled_4x4_mesochronous_golden() {
    // Mesochronous hops cost an extra TDM slot, so the contracts drawn
    // for the synchronous organisation get a 2x latency margin.
    let spec = scaled_workload(4, 4, 4, 500, 1).with_link_pipeline_stages(1, 2);
    assert_golden(&spec, NetworkKind::Mesochronous { phase_seed: 11 }, 3_000);
}

#[test]
fn scaled_8x8_synchronous_golden() {
    let spec = scaled_workload(8, 8, 4, 1000, 1);
    assert_golden(&spec, NetworkKind::Synchronous, 3_000);
}

#[test]
fn scaled_8x8_mesochronous_golden() {
    let spec = scaled_workload(8, 8, 4, 1000, 1).with_link_pipeline_stages(1, 2);
    assert_golden(&spec, NetworkKind::Mesochronous { phase_seed: 23 }, 2_000);
}

/// Both engines list the same connections in the same order in `queues`
/// (source NIs outer, spec order inner) and in `logs` (destination NIs
/// outer), so a caller may zip either vector across engines.
#[test]
fn both_engines_list_queues_and_logs_in_one_order() {
    let paper = paper_workload(42);
    let scaled = scaled_workload(4, 4, 4, 300, 7);
    for (spec, kind) in [
        (paper.clone(), NetworkKind::Synchronous),
        (
            paper.with_link_pipeline_stages(1, 1),
            NetworkKind::Mesochronous { phase_seed: 7 },
        ),
        (scaled.clone(), NetworkKind::Synchronous),
        (
            scaled.with_link_pipeline_stages(1, 2),
            NetworkKind::Mesochronous { phase_seed: 11 },
        ),
    ] {
        let alloc = allocate(&spec).expect("allocates");
        let event = build_network(&spec, &alloc, kind, false);
        let turbo = build_turbo(&spec, &alloc, kind, false);
        let (queues, logs) = (ids(&event.queues), ids(&event.logs));
        assert_eq!(queues.len(), spec.connections().len(), "{kind:?}");
        assert_eq!(logs.len(), spec.connections().len(), "{kind:?}");
        assert_ne!(queues, logs, "{kind:?}: the pin must tell the orders apart");
        assert_eq!(queues, ids(&turbo.queues), "{kind:?}");
        assert_eq!(logs, ids(&turbo.logs), "{kind:?}");
    }
}

/// The connections of a vector of handles, in its order.
fn ids<H>(handles: &[(ConnId, H)]) -> Vec<ConnId> {
    handles.iter().map(|(c, _)| *c).collect()
}

#[test]
fn turbo_latency_stays_within_the_analytical_bound_on_the_paper_platform() {
    // The property the DSE --validate stage replays per Pareto point:
    // measured worst-case per-flit latency never exceeds the bound.
    let spec = paper_workload(42);
    let alloc = allocate(&spec).expect("allocates");
    let mut turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
    turbo.run_cycles(30_000);
    for c in spec.connections() {
        let lat = turbo.latency(c.id);
        let bound = alloc.worst_case_latency_cycles(&spec, c.id);
        assert!(lat.flits > 0, "{} delivered nothing", c.id);
        assert!(
            lat.max_cycles <= bound,
            "{}: measured {} cycles > analytical bound {bound}",
            c.id,
            lat.max_cycles
        );
    }
}

/// Drives `spec(words)` for every `ni_buffer_words` from one flit to 40
/// with a saturating backlog — 150 messages per connection, all ready at
/// cycle 0, whole flits only — and asserts the event and turbo logs
/// identical after runs to 217 and 400 cycles. Returns, per size, how many
/// connections the buffer analysis clears of credit bookkeeping, and out
/// of how many.
fn sweep_buffers(spec: impl Fn(u32) -> SystemSpec, kind: NetworkKind) -> Vec<(usize, usize)> {
    let backlog: Vec<Message> = (0..150)
        .map(|seq| Message {
            seq,
            words: 2 + 2 * (seq % 3),
            ready_cycle: 0,
        })
        .collect();
    (3..=40)
        .map(|words| {
            let spec = spec(words);
            assert_eq!(spec.config().ni_buffer_words, words);
            let alloc = allocate(&spec).expect("workload allocates");
            let mut event = build_network(&spec, &alloc, kind, false);
            let mut turbo = build_turbo(&spec, &alloc, kind, false);
            for c in spec.connections() {
                for queue in [event.queue(c.id), turbo.queue(c.id)] {
                    queue.borrow_mut().extend(backlog.iter().copied());
                }
            }
            for deadline in [217, 400] {
                event.run_cycles(deadline);
                turbo.run_cycles(deadline);
                for c in spec.connections() {
                    assert_eq!(
                        *event.log(c.id).borrow(),
                        *turbo.log(c.id).borrow(),
                        "{}: logs diverge at {words}-word buffers, run to {deadline}",
                        c.id
                    );
                }
            }
            let free = spec
                .connections()
                .iter()
                .filter(|c| {
                    required_buffer_words(&spec, &alloc, c.id, CREDIT_RETURN_CYCLES) <= words
                })
                .count();
            (free, spec.connections().len())
        })
        .collect()
}

/// Whether some buffer size left credit-free and credit-bound
/// connections in one run.
fn mixes(classes: &[(usize, usize)]) -> bool {
    classes.iter().any(|&(free, all)| 0 < free && free < all)
}

/// The paper platform with `words`-word NI buffers.
fn paper_with_buffers(words: u32) -> SystemSpec {
    let mut cfg = NocConfig::paper_default();
    cfg.ni_buffer_words = words;
    WorkloadBuilder::mesh(4, 3, 4)
        .params(WorkloadParams::paper())
        .config(cfg)
        .seed(42)
        .build()
}

#[test]
fn buffer_sweep_on_the_paper_platform_synchronous() {
    assert_eq!(
        paper_with_buffers(24).connections(),
        paper_workload(42).connections()
    );
    let classes = sweep_buffers(paper_with_buffers, NetworkKind::Synchronous);
    assert!(mixes(&classes), "{classes:?}");
    assert_eq!(classes.last(), Some(&(200, 200)));
}

#[test]
fn buffer_sweep_on_the_paper_platform_mesochronous() {
    let meso = |words| paper_with_buffers(words).with_link_pipeline_stages(1, 1);
    for phase_seed in [7, 41] {
        let classes = sweep_buffers(meso, NetworkKind::Mesochronous { phase_seed });
        assert!(mixes(&classes), "{classes:?}");
    }
}

#[test]
fn buffer_sweep_on_a_2x2_mesh_with_8_slot_tables() {
    let mesh = |words| {
        let mut cfg = NocConfig::paper_default();
        cfg.slot_table_size = 8;
        cfg.ni_buffer_words = words;
        WorkloadBuilder::mesh(2, 2, 2)
            .config(cfg)
            .connections(10)
            .bandwidth_mb(300, 900)
            .seed(3)
            .build()
    };
    let classes = sweep_buffers(mesh, NetworkKind::Synchronous);
    assert!(mixes(&classes), "{classes:?}");
}
