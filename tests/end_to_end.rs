//! End-to-end integration: the complete paper workflow on the Section VII
//! platform, crossing every crate of the workspace.

mod common;

use aelite::analysis::compare_logs;
use aelite::analysis::service::verify_service;
use aelite::{measured_services_be, AeliteSystem};
use aelite_noc::baseline::{BeConfig, BeSim};
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::{paper_workload, random_workload, scaled_workload, WorkloadParams};
use aelite_spec::ids::AppId;
use aelite_spec::topology::Topology;
use aelite_spec::NocConfig;
use common::Digest;

const DURATION: u64 = 60_000;

#[test]
fn paper_headline_gs_meets_all_contracts() {
    let system = AeliteSystem::design(paper_workload(42)).expect("designs");
    let outcome = system.simulate(DURATION);
    assert!(outcome.service.all_ok());
    assert_eq!(outcome.service.verdicts.len(), 200);
    // Every measured max stays within the analytical bound too.
    for v in &outcome.service.verdicts {
        assert!(v.within_bound, "{v}");
    }
}

#[test]
fn paper_headline_composability_end_to_end() {
    let system = AeliteSystem::design(paper_workload(7)).expect("designs");
    let result = system.verify_composability(30_000);
    assert!(result.is_composable(), "{result}");
}

#[test]
fn paper_headline_be_interferes_and_violates() {
    let spec = paper_workload(42);
    let report = BeSim::new(&spec).run(BeConfig {
        duration_cycles: DURATION,
        ..BeConfig::default()
    });
    let service = verify_service(&spec, None, &measured_services_be(&report), DURATION, 0.05);
    assert!(
        !service.all_ok(),
        "best effort should violate tight contracts at 500 MHz"
    );
}

/// Runs the best-effort baseline on `spec` for `duration_cycles` and
/// folds every field of every connection's stats, in report order, into
/// one digest.
fn be_digest(spec: &SystemSpec, duration_cycles: u64) -> u64 {
    let report = BeSim::new(spec).run(BeConfig {
        duration_cycles,
        ..BeConfig::default()
    });
    let mut d = Digest::new();
    d.word(report.duration_cycles);
    d.word(report.per_conn.len() as u64);
    for s in &report.per_conn {
        d.word(s.conn.index() as u64);
        d.word(s.flits);
        d.word(s.bytes);
        d.word(s.min_latency);
        d.word(s.max_latency);
        d.word(s.latency_sum);
    }
    d.0
}

#[test]
fn be_baseline_numbers_are_pinned() {
    // The exact best-effort numbers behind the paper's GS-vs-BE and
    // composability comparisons: a change to the wormhole model, its
    // arbitration or its flow control moves a digest.
    let got = [
        be_digest(&paper_workload(42), 30_000),
        be_digest(&scaled_workload(4, 4, 4, 300, 7), 30_000),
    ];
    assert_eq!(
        got,
        [0x70c4_d755_2f8c_7fdf, 0x8d27_9e28_64e1_b67d],
        "BE digests moved: {got:#x?}"
    );
}

/// Simulates `spec` through [`AeliteSystem::simulate`] for 60 000 cycles
/// and folds every connection's flits, bytes, min, max and summed
/// latency and every delivery cycle of its log, in spec order, into one
/// digest.
fn simulate_digest(spec: SystemSpec) -> u64 {
    let system = AeliteSystem::design(spec).expect("designs");
    let outcome = system.simulate(DURATION);
    let mut d = Digest::new();
    let word_bytes = u64::from(system.spec().config().data_width_bytes());
    d.word(outcome.per_conn.len() as u64);
    for ((conn, s), (logged, log)) in outcome.per_conn.iter().zip(&outcome.logs) {
        assert_eq!(conn, logged);
        let log = log.borrow();
        d.word(conn.index() as u64);
        d.word(s.flits);
        d.word(s.words * word_bytes);
        d.word(s.min_cycles);
        d.word(s.max_cycles);
        d.word(s.latency_sum);
        d.word(log.len() as u64);
        for flit in log.iter() {
            d.word(flit.cycle);
        }
    }
    d.0
}

#[test]
fn simulated_guaranteed_service_is_pinned() {
    // The exact GS numbers behind every Section VII verdict: a change to
    // the offered traffic, the slot decisions or the latency labelling
    // moves a digest.
    let got = [
        simulate_digest(paper_workload(42)),
        simulate_digest(scaled_workload(4, 4, 4, 300, 7)),
    ];
    assert_eq!(
        got,
        [0x425e_0b14_db43_cf34, 0xfd8b_81b6_3330_d9d7],
        "GS digests moved: {got:#x?}"
    );
}

#[test]
fn multiple_seeds_design_and_verify() {
    for seed in [1u64, 13, 99] {
        let system = AeliteSystem::design(paper_workload(seed))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let outcome = system.simulate(30_000);
        assert!(outcome.service.all_ok(), "seed {seed}");
    }
}

#[test]
fn app_developed_in_isolation_then_integrated() {
    // The functional-scalability story: verify app 3 alone, integrate,
    // verify the full system — app 3's verdicts are unchanged.
    let system = AeliteSystem::design(paper_workload(21)).expect("designs");
    let alone = system.simulate_apps(&[AppId::new(3)], DURATION);
    assert!(alone.service.all_ok());
    let full = system.simulate(DURATION);
    for v in &alone.service.verdicts {
        let integrated = full.service.verdict(v.conn);
        assert_eq!(
            v.max_latency_ns, integrated.max_latency_ns,
            "{}: integration changed the measured worst case",
            v.conn
        );
    }
}

#[test]
fn smaller_platform_full_flow() {
    // The whole flow also works on a non-paper platform.
    let topo = Topology::mesh(3, 3, 2);
    let params = WorkloadParams {
        apps: 3,
        connections: 40,
        ips: 18,
        bw_min_mb: 5,
        bw_max_mb: 200,
        lat_min_ns: 60,
        lat_max_ns: 800,
        message_bytes: 32,
        ni_load_cap: 0.5,
    };
    let spec = random_workload(topo, NocConfig::paper_default(), params, 5);
    let system = AeliteSystem::design(spec).expect("designs");
    let outcome = system.simulate(DURATION);
    assert!(outcome.service.all_ok());
    let comp = system.verify_composability(20_000);
    assert!(comp.is_composable());
}

#[test]
fn ring_topology_full_flow() {
    // aelite on a non-mesh interconnect: BFS routing, allocation,
    // simulation and composability all work without mesh coordinates.
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::traffic::Bandwidth;

    let topo = Topology::ring(6, 1);
    let nis: Vec<_> = topo.nis().collect();
    let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
    let a0 = b.add_app("even");
    let a1 = b.add_app("odd");
    let ips: Vec<_> = nis.iter().map(|&ni| b.add_ip_at(ni)).collect();
    for i in 0..6usize {
        let app = if i % 2 == 0 { a0 } else { a1 };
        b.add_connection(
            app,
            ips[i],
            ips[(i + 2) % 6],
            Bandwidth::from_mbytes_per_sec(40),
            800,
        );
    }
    let system = AeliteSystem::design(b.build()).expect("ring allocates");
    let outcome = system.simulate(DURATION);
    assert!(outcome.service.all_ok());
    let comp = system.verify_composability(20_000);
    assert!(comp.is_composable());
}

#[test]
fn buffer_sizing_analysis_predicts_throughput_stalls() {
    // The analytical buffer requirement β (credits must cover the round
    // trip) checked on the exact credit model: the event-driven
    // cycle-accurate network, with the turbo kernel pinned to it run by
    // run. At β a saturating connection sends in every slot it owns;
    // smaller buffers throttle it below its reservation.
    use aelite_alloc::allocate;
    use aelite_alloc::allocate::required_buffer_words;
    use aelite_noc::network::{build_network, NetworkKind, CREDIT_RETURN_CYCLES};
    use aelite_noc::ni::Message;
    use aelite_noc::turbo::build_turbo;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::ids::NiId;
    use aelite_spec::traffic::{Bandwidth, TrafficPattern};

    // 100 revolutions of the 64-slot, 3-cycle-slot table.
    const CYCLES: u64 = 100 * 64 * 3;
    let build = |buffer_words: u32| {
        let topo = Topology::mesh(2, 1, 1);
        let mut cfg = NocConfig::paper_default();
        cfg.ni_buffer_words = buffer_words;
        let mut b = SystemSpecBuilder::new(topo, cfg);
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        b.add_connection_with(
            app,
            s,
            d,
            Bandwidth::from_mbytes_per_sec(300), // ~15 slots: credit-hungry
            2_000,
            TrafficPattern::Saturating,
            16,
        );
        b.build()
    };
    // Flits delivered in `CYCLES` from a backlog of 4-word messages, all
    // ready at cycle 0; the requirement β; the owned slots.
    let run = |buffer_words: u32| -> (usize, u32, Vec<u32>) {
        let spec = build(buffer_words);
        let alloc = allocate(&spec).expect("allocates");
        let conn = spec.connections()[0].id;
        let need = required_buffer_words(&spec, &alloc, conn, CREDIT_RETURN_CYCLES);
        let mut event = build_network(&spec, &alloc, NetworkKind::Synchronous, false);
        let mut turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, false);
        let backlog = (0..2_000).map(|seq| Message {
            seq,
            words: 4,
            ready_cycle: 0,
        });
        event.queue(conn).borrow_mut().extend(backlog.clone());
        turbo.queue(conn).borrow_mut().extend(backlog);
        event.run_cycles(CYCLES);
        turbo.run_cycles(CYCLES);
        let result = compare_logs([conn], &event.logs, &turbo.logs);
        assert!(
            result.is_composable(),
            "{buffer_words}-word buffer: {result}"
        );
        let slots = alloc.grant(conn).expect("granted").inject_slots.clone();
        let flits = event.log(conn).borrow().len();
        (flits, need, slots)
    };

    let (_, need, slots) = run(NocConfig::paper_default().ni_buffer_words);
    let (full, _, at_need) = run(need);
    assert_eq!(at_need, slots, "the grant does not depend on the buffer");
    assert_eq!((slots.len(), need), (15, 6));
    // Every owned slot sends: 15 flits in each of the 100 revolutions.
    assert_eq!(full, 15 * 100, "{slots:?}");
    // Below β the rate falls short, down to one flit of credit per
    // round trip at a one-flit buffer. β is tight here: β − 1 words
    // already stalls, since two payload words per flit make a 5-word
    // buffer hold the credit of only two flits, as a 4-word one does.
    let flits: Vec<usize> = (3..need).map(|words| run(words).0).collect();
    assert_eq!(flits, [500, 1000, 1000]);
}

#[test]
fn frequency_scaling_changes_feasibility() {
    // The paper platform allocates at 500 MHz but not arbitrarily low.
    let spec = paper_workload(42);
    assert!(AeliteSystem::design(spec.at_frequency(500)).is_ok());
    assert!(AeliteSystem::design(spec.at_frequency(100)).is_err());
}
