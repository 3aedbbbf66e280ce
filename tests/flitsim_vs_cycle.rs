//! Cross-validation of the flit-level traffic and timing model against
//! the two cycle engines, in both clocking organisations:
//!
//! * both engines queue exactly the messages
//!   [`MessageSource`] offers, labelled as it labels them — a fractional
//!   CBR interval included;
//! * the compiled turbo kernel reproduces the event-driven build bit for
//!   bit on specs whose CBR intervals are fractional and on
//!   `with_pattern(Saturating)` specs, with no queue pre-filled by hand;
//! * every delivery lands exactly `pipeline_cycles` after the start of a
//!   slot its connection owns: the closed-form, contention-free network
//!   timing of paper Section IV, which is what lets the turbo kernel
//!   compile the routers away;
//! * a saturating source uses every owned slot, so it delivers its
//!   allocation.

use aelite_alloc::allocate;
use aelite_alloc::allocate::Allocation;
use aelite_noc::network::{build_network, CycleNet, NetworkKind};
use aelite_noc::ni::Message;
use aelite_noc::turbo::{build_turbo, TurboNet};
use aelite_spec::app::{SystemSpec, SystemSpecBuilder};
use aelite_spec::config::NocConfig;
use aelite_spec::generate::{paper_workload, scaled_workload};
use aelite_spec::ids::{ConnId, NiId};
use aelite_spec::timing::pipeline_cycles;
use aelite_spec::topology::Topology;
use aelite_spec::traffic::{Bandwidth, MessageSource, TrafficPattern};

/// A 2x2 spec whose CBR intervals are fractional: 16-byte messages at
/// 120 MB/s and 500 MHz arrive every 66⅔ cycles.
fn spec(stages: u32) -> SystemSpec {
    let topo = Topology::mesh(2, 2, 1);
    let mut cfg = NocConfig::paper_default();
    cfg.link_pipeline_stages = stages;
    let mut b = SystemSpecBuilder::new(topo, cfg);
    let app = b.add_app("a");
    let ips: Vec<_> = (0..4).map(|i| b.add_ip_at(NiId::new(i))).collect();
    for (src, dst) in [(0, 3), (1, 2), (3, 0)] {
        b.add_connection(
            app,
            ips[src],
            ips[dst],
            Bandwidth::from_mbytes_per_sec(120),
            900,
        );
    }
    b.build()
}

/// Builds both engines with traffic, runs them for `cycles` and asserts
/// every delivery log identical and every delivery on the closed-form
/// timing; returns the turbo net.
fn assert_engines_agree(spec: &SystemSpec, kind: NetworkKind, cycles: u64) -> TurboNet {
    let alloc = allocate(spec).expect("allocatable");
    let mut event = build_network(spec, &alloc, kind, true);
    let mut turbo = build_turbo(spec, &alloc, kind, true);
    event.run_cycles(cycles);
    turbo.run_cycles(cycles);
    for c in spec.connections() {
        assert_eq!(
            *event.log(c.id).borrow(),
            *turbo.log(c.id).borrow(),
            "{}: turbo diverges from the event engine",
            c.id
        );
        assert!(
            !event.log(c.id).borrow().is_empty(),
            "{}: no deliveries",
            c.id
        );
    }
    assert_closed_form(spec, &alloc, &event);
    turbo
}

/// Whether `cycle` starts a slot that `conn` owns.
fn owned_slot_start(spec: &SystemSpec, alloc: &Allocation, conn: ConnId, cycle: u64) -> bool {
    let cfg = spec.config();
    let slot = u64::from(cfg.slot_cycles());
    let entry = cycle / slot % u64::from(cfg.slot_table_size);
    let slots = &alloc.grant(conn).expect("granted").inject_slots;
    cycle.is_multiple_of(slot) && slots.iter().any(|&s| u64::from(s) == entry)
}

/// The delay from an owned slot start to the delivery of its flit.
fn pipeline(spec: &SystemSpec, alloc: &Allocation, conn: ConnId) -> u64 {
    let links = alloc.grant(conn).expect("granted").links.len();
    pipeline_cycles(spec.config(), links)
}

/// Asserts that every flit `net` delivered landed exactly
/// `pipeline_cycles` after the start of a slot its connection owns.
fn assert_closed_form(spec: &SystemSpec, alloc: &Allocation, net: &CycleNet) {
    for c in spec.connections() {
        let pipeline = pipeline(spec, alloc, c.id);
        for cycle in net.delivery_cycles(c.id) {
            let owned = owned_slot_start(spec, alloc, c.id, cycle - pipeline);
            assert!(owned, "{}: flit at {cycle} left no owned slot", c.id);
        }
    }
}

#[test]
fn synchronous_engines_agree_on_fractional_intervals() {
    assert_engines_agree(&spec(0), NetworkKind::Synchronous, 6_600);
}

#[test]
fn mesochronous_engines_agree_on_fractional_intervals() {
    let s = spec(1);
    for seed in [5u64, 77] {
        assert_engines_agree(&s, NetworkKind::Mesochronous { phase_seed: seed }, 6_600);
    }
}

/// Saturating variant of a `scaled_workload` platform: every connection
/// offers unbounded load.
fn saturated_scaled(cols: u32, rows: u32, conns: u32, stages: u32) -> SystemSpec {
    let spec = scaled_workload(cols, rows, 4, conns, 1).with_pattern(TrafficPattern::Saturating);
    if stages == 0 {
        spec
    } else {
        // Mesochronous hops cost an extra TDM slot; give the contracts
        // drawn for the synchronous organisation a 2x latency margin.
        spec.with_link_pipeline_stages(stages, 2)
    }
}

#[test]
fn scaled_4x4_synchronous_three_way_cross_pin() {
    let s = saturated_scaled(4, 4, 500, 0);
    assert_engines_agree(&s, NetworkKind::Synchronous, 3_000);
}

#[test]
fn scaled_4x4_mesochronous_three_way_cross_pin() {
    let s = saturated_scaled(4, 4, 500, 1);
    assert_engines_agree(&s, NetworkKind::Mesochronous { phase_seed: 13 }, 3_000);
}

#[test]
fn scaled_8x8_synchronous_three_way_cross_pin() {
    let s = saturated_scaled(8, 8, 1000, 0);
    assert_engines_agree(&s, NetworkKind::Synchronous, 2_400);
}

#[test]
fn scaled_8x8_mesochronous_three_way_cross_pin() {
    let s = saturated_scaled(8, 8, 1000, 1);
    assert_engines_agree(&s, NetworkKind::Mesochronous { phase_seed: 29 }, 2_400);
}

#[test]
fn equivalence_holds_under_saturating_sources() {
    // One saturating connection whose 16-byte contract leaves the credit
    // path exercised in both engines.
    let topo = Topology::mesh(2, 1, 1);
    let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
    let app = b.add_app("a");
    let s0 = b.add_ip_at(NiId::new(0));
    let d0 = b.add_ip_at(NiId::new(1));
    b.add_connection_with(
        app,
        s0,
        d0,
        Bandwidth::from_mbytes_per_sec(60),
        2_000,
        TrafficPattern::Saturating,
        16,
    );
    assert_engines_agree(&b.build(), NetworkKind::Synchronous, 6_600);
}

#[test]
fn a_saturating_spec_delivers_its_allocation_in_both_engines() {
    // No queue is pre-filled: the source itself keeps every connection
    // backlogged from its first owned slot, so every owned slot whose
    // flit can land in the run sends one.
    const CYCLES: u64 = 3_000;
    let spec = scaled_workload(4, 4, 4, 300, 7).with_pattern(TrafficPattern::Saturating);
    let turbo = assert_engines_agree(&spec, NetworkKind::Synchronous, CYCLES);
    let alloc = allocate(&spec).expect("allocatable");
    for c in spec.connections() {
        let last_start = CYCLES - pipeline(&spec, &alloc, c.id);
        let slots = (0..=last_start)
            .filter(|&cycle| owned_slot_start(&spec, &alloc, c.id, cycle))
            .count() as u64;
        assert_eq!(
            turbo.log(c.id).borrow().len() as u64,
            slots,
            "{}: an owned slot went unused",
            c.id
        );
    }
}

#[test]
fn both_engines_queue_exactly_the_models_messages() {
    // Per connection, the last message the model makes visible by 3 000
    // cycles (or the first after message 0, if that comes later) at a
    // cycle that is no owned slot start, so the NI cannot fetch it on
    // arrival: one cycle before, neither engine has queued it; at that
    // cycle, both have, labelled as the model labels it, at the back of
    // the queue — the model's message count exactly.
    const CYCLES: u64 = 3_000;
    for spec in [paper_workload(1), scaled_workload(4, 4, 4, 300, 7)] {
        let alloc = allocate(&spec).expect("allocatable");
        // (cycle, whether the message is queued by then, connection, message)
        let mut checks: Vec<(u64, bool, ConnId, Message)> = Vec::new();
        for c in spec.connections() {
            let first_slot = alloc.grant(c.id).expect("granted").inject_slots[0];
            let mut model = MessageSource::new(c, spec.config(), first_slot);
            let mut last = None;
            while let Some(cycle) = model
                .next_cycle()
                .filter(|&n| n <= CYCLES || last.is_none())
            {
                let m = model.pop_arrival(cycle).expect("visible");
                if cycle > 0 && !owned_slot_start(&spec, &alloc, c.id, cycle) {
                    last = Some((cycle, Message::from(m)));
                }
            }
            let (cycle, m) = last.unwrap_or_else(|| panic!("{}: no message to check", c.id));
            checks.extend([(cycle - 1, false, c.id, m), (cycle, true, c.id, m)]);
        }
        checks.sort_by_key(|&(cycle, queued, ..)| (cycle, queued));
        let mut event = build_network(&spec, &alloc, NetworkKind::Synchronous, true);
        let mut turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        for (cycle, queued, conn, m) in checks {
            event.run_cycles(cycle);
            turbo.run_cycles(cycle);
            for (engine, queue) in [("event", event.queue(conn)), ("turbo", turbo.queue(conn))] {
                let back = queue.borrow().back().copied();
                assert_eq!(
                    back == Some(m),
                    queued,
                    "{conn}: by cycle {cycle} the {engine} engine queued up to {back:?}, \
                     the model {m:?} at {}",
                    cycle + u64::from(!queued)
                );
            }
        }
    }
}
