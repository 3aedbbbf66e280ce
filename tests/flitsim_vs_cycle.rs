//! Cross-validation of the three simulators: on scenarios whose arrivals
//! both generators quantise alike — CBR intervals that are whole cycles,
//! or saturating sources — the fast flit-level simulator must predict
//! *exactly* the delivery cycles the cycle-accurate network produces,
//! and the compiled turbo kernel must reproduce the event-driven build
//! bit for bit, for both the synchronous and the mesochronous
//! organisation, from the 2×2 mesh up to the 4×4/8×8 `scaled_workload`
//! platforms. A fractional CBR interval is not such a scenario: flitsim
//! steps it in 48.16 fixed point, the cycle engines round it up.
//!
//! This is the test that justifies running the 200-connection experiment
//! at flit level (see the `aelite_noc::flitsim` module docs), and
//! that cross-pins analytical flitsim, event-driven simulation and the
//! turbo engine on the same scenarios.

use aelite::timelines;
use aelite_alloc::allocate;
use aelite_noc::flitsim::{FlitSim, FlitSimConfig};
use aelite_noc::network::{build_network, NetworkKind};
use aelite_noc::turbo::build_turbo;
use aelite_spec::app::{SystemSpec, SystemSpecBuilder};
use aelite_spec::config::NocConfig;
use aelite_spec::generate::scaled_workload;
use aelite_spec::ids::NiId;
use aelite_spec::topology::Topology;
use aelite_spec::traffic::{Bandwidth, TrafficPattern};

/// A 2x2 spec whose CBR intervals are exact integers (message 16 B at
/// 125 MB/s and 500 MHz -> one message per 64 cycles), so both simulators
/// generate identical arrival schedules.
fn spec(stages: u32) -> SystemSpec {
    let topo = Topology::mesh(2, 2, 1);
    let mut cfg = NocConfig::paper_default();
    cfg.link_pipeline_stages = stages;
    let mut b = SystemSpecBuilder::new(topo, cfg);
    let app = b.add_app("a");
    let ips: Vec<_> = (0..4).map(|i| b.add_ip_at(NiId::new(i))).collect();
    b.add_connection(
        app,
        ips[0],
        ips[3],
        Bandwidth::from_mbytes_per_sec(125),
        900,
    );
    b.add_connection(
        app,
        ips[1],
        ips[2],
        Bandwidth::from_mbytes_per_sec(125),
        900,
    );
    b.add_connection(
        app,
        ips[3],
        ips[0],
        Bandwidth::from_mbytes_per_sec(125),
        900,
    );
    b.build()
}

fn flit_level_timelines(spec: &SystemSpec, duration: u64) -> Vec<(u32, Vec<u64>)> {
    let alloc = allocate(spec).expect("allocatable");
    let report = FlitSim::new(spec, &alloc).run(FlitSimConfig {
        duration_cycles: duration,
        record_timestamps: true,
    });
    timelines(&report)
        .into_iter()
        .map(|t| (t.conn.index() as u32, t.deliveries))
        .collect()
}

fn cycle_level_timelines(
    spec: &SystemSpec,
    kind: NetworkKind,
    duration: u64,
) -> Vec<(u32, Vec<u64>)> {
    let alloc = allocate(spec).expect("allocatable");
    let mut net = build_network(spec, &alloc, kind, true);
    net.run_cycles(duration);
    spec.connections()
        .iter()
        .map(|c| (c.id.index() as u32, net.delivery_cycles(c.id)))
        .collect()
}

fn assert_equivalent(flit: &[(u32, Vec<u64>)], cycle: &[(u32, Vec<u64>)]) {
    for ((fc, fts), (cc, cts)) in flit.iter().zip(cycle) {
        assert_eq!(fc, cc);
        // The flit simulator truncates flits landing after its window;
        // the cycle run may have a few extra at the tail.
        assert!(
            cts.len() >= fts.len(),
            "c{fc}: cycle run delivered fewer flits ({} vs {})",
            cts.len(),
            fts.len()
        );
        assert_eq!(
            &cts[..fts.len()],
            fts.as_slice(),
            "c{fc}: delivery cycles diverge"
        );
        assert!(!fts.is_empty(), "c{fc}: no deliveries to compare");
    }
}

fn turbo_level_timelines(
    spec: &SystemSpec,
    kind: NetworkKind,
    duration: u64,
) -> Vec<(u32, Vec<u64>)> {
    let alloc = allocate(spec).expect("allocatable");
    let mut net = build_turbo(spec, &alloc, kind, true);
    net.run_cycles(duration);
    spec.connections()
        .iter()
        .map(|c| (c.id.index() as u32, net.delivery_cycles(c.id)))
        .collect()
}

#[test]
fn synchronous_network_matches_flit_simulator_exactly() {
    let s = spec(0);
    let flit = flit_level_timelines(&s, 6_000);
    let cycle = cycle_level_timelines(&s, NetworkKind::Synchronous, 6_600);
    assert_equivalent(&flit, &cycle);
    // Third leg of the cross-pin: the turbo kernel on the same scenario.
    let turbo = turbo_level_timelines(&s, NetworkKind::Synchronous, 6_600);
    assert_eq!(cycle, turbo, "turbo diverges from the event engine");
}

#[test]
fn mesochronous_network_matches_flit_simulator_exactly() {
    let s = spec(1);
    let flit = flit_level_timelines(&s, 6_000);
    for seed in [5u64, 77] {
        let kind = NetworkKind::Mesochronous { phase_seed: seed };
        let cycle = cycle_level_timelines(&s, kind, 6_600);
        assert_equivalent(&flit, &cycle);
        let turbo = turbo_level_timelines(&s, kind, 6_600);
        assert_eq!(cycle, turbo, "turbo diverges from the event engine");
    }
}

/// Saturating variant of a `scaled_workload` platform: every connection
/// offers unbounded load, so the flit-level simulator's arrival
/// schedule and a pre-filled cycle-accurate queue agree exactly
/// (random CBR intervals would not — the two generators quantise
/// arrivals differently).
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

/// Cross-pins all three simulators on one saturated scenario: flitsim
/// timestamps must be a prefix of the event-driven delivery cycles, and
/// the turbo kernel must equal the event engine bit for bit.
fn assert_three_way(spec: &SystemSpec, kind: NetworkKind, flit_duration: u64, cycle_duration: u64) {
    let alloc = allocate(spec).expect("allocatable");
    let flit_report = FlitSim::new(spec, &alloc).run(FlitSimConfig {
        duration_cycles: flit_duration,
        record_timestamps: true,
    });

    // Saturate the cycle-level engines by pre-filling every queue with
    // enough single-flit messages to cover every possible slot.
    let payload = spec.config().payload_words_per_flit();
    let messages = cycle_duration / u64::from(spec.config().slot_cycles()) + 1;
    let mut event = build_network(spec, &alloc, kind, false);
    let mut turbo = build_turbo(spec, &alloc, kind, false);
    for c in spec.connections() {
        for seq in 0..messages {
            let m = aelite_noc::ni::Message {
                seq: seq as u32,
                words: payload,
                ready_cycle: 0,
            };
            event.queue(c.id).borrow_mut().push_back(m);
            turbo.queue(c.id).borrow_mut().push_back(m);
        }
    }
    event.run_cycles(cycle_duration);
    turbo.run_cycles(cycle_duration);

    for c in spec.connections() {
        let fts = &flit_report.conn(c.id).timestamps;
        let cts = event.delivery_cycles(c.id);
        assert!(!fts.is_empty(), "{}: no flit-level deliveries", c.id);
        assert!(
            cts.len() >= fts.len(),
            "{}: cycle run delivered fewer flits ({} vs {})",
            c.id,
            cts.len(),
            fts.len()
        );
        assert_eq!(&cts[..fts.len()], fts.as_slice(), "{}: diverge", c.id);
        assert_eq!(
            *event.log(c.id).borrow(),
            *turbo.log(c.id).borrow(),
            "{}: turbo diverges from the event engine",
            c.id
        );
    }
}

#[test]
fn scaled_4x4_synchronous_three_way_cross_pin() {
    let s = saturated_scaled(4, 4, 500, 0);
    assert_three_way(&s, NetworkKind::Synchronous, 2_400, 3_000);
}

#[test]
fn scaled_4x4_mesochronous_three_way_cross_pin() {
    let s = saturated_scaled(4, 4, 500, 1);
    assert_three_way(
        &s,
        NetworkKind::Mesochronous { phase_seed: 13 },
        2_400,
        3_000,
    );
}

#[test]
fn scaled_8x8_synchronous_three_way_cross_pin() {
    let s = saturated_scaled(8, 8, 1000, 0);
    assert_three_way(&s, NetworkKind::Synchronous, 1_800, 2_400);
}

#[test]
fn scaled_8x8_mesochronous_three_way_cross_pin() {
    let s = saturated_scaled(8, 8, 1000, 1);
    assert_three_way(
        &s,
        NetworkKind::Mesochronous { phase_seed: 29 },
        1_800,
        2_400,
    );
}

#[test]
fn equivalence_holds_under_saturating_sources() {
    // Saturating sources exercise the credit path of both simulators.
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
        aelite_spec::traffic::TrafficPattern::Saturating,
        16,
    );
    let s = b.build();
    let alloc = allocate(&s).expect("allocatable");
    let conn = s.connections()[0].id;

    let flit_report = FlitSim::new(&s, &alloc).run(FlitSimConfig {
        duration_cycles: 6_000,
        record_timestamps: true,
    });

    // The cycle net has no saturating generator; emulate by pre-filling
    // the queue with enough back-to-back messages.
    let mut net = build_network(&s, &alloc, NetworkKind::Synchronous, false);
    for seq in 0..2_000 {
        net.queue(conn)
            .borrow_mut()
            .push_back(aelite_noc::ni::Message {
                seq,
                words: 4,
                ready_cycle: 0,
            });
    }
    net.run_cycles(6_600);
    let cts = net.delivery_cycles(conn);
    let fts = &flit_report.conn(conn).timestamps;
    assert!(cts.len() >= fts.len());
    assert_eq!(&cts[..fts.len()], fts.as_slice());
}
