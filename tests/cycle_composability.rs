//! Composability verified on the **cycle-accurate hardware models** (not
//! just the flit-level abstraction): with the mesochronous build included,
//! toggling one application's offered traffic, or flooding the NoC with
//! it, cannot move a single delivery record of another application. On
//! the paper platform, the compositions of experiment C1
//! (`benches/c1_composability.rs`) run on the event-driven build, whose
//! routers model shared pipelines and panic on contention.

use aelite_alloc::{allocate, Allocation};
use aelite_noc::network::{build_network, CycleNet, NetworkKind};
use aelite_noc::ni::{compare_logs, Message};
use aelite_spec::app::{SystemSpec, SystemSpecBuilder};
use aelite_spec::config::NocConfig;
use aelite_spec::generate::paper_workload;
use aelite_spec::ids::{AppId, ConnId, NiId};
use aelite_spec::topology::Topology;
use aelite_spec::traffic::{Bandwidth, TrafficPattern};

/// 2x2 mesh, two applications with crossing connections, in 16-byte
/// messages: A's at constant rate, B's offering `b_pattern`.
fn spec(stages: u32, b_pattern: TrafficPattern) -> SystemSpec {
    let topo = Topology::mesh(2, 2, 1);
    let mut cfg = NocConfig::paper_default();
    cfg.link_pipeline_stages = stages;
    let mut b = SystemSpecBuilder::new(topo, cfg);
    let app_a = b.add_app("A");
    let app_b = b.add_app("B");
    let ips: Vec<_> = (0..4).map(|i| b.add_ip_at(NiId::new(i))).collect();
    // A: corner to corner, both diagonals. B: the other diagonal,
    // sharing routers (but never slots) with A.
    let cbr = TrafficPattern::ConstantRate;
    for (app, pattern, src, dst, mb_per_s) in [
        (app_a, cbr, 0, 3, 80),
        (app_a, cbr, 3, 0, 60),
        (app_b, b_pattern, 1, 2, 100),
        (app_b, b_pattern, 2, 1, 40),
    ] {
        let bw = Bandwidth::from_mbytes_per_sec(mb_per_s);
        b.add_connection_with(app, ips[src], ips[dst], bw, 900, pattern, 16);
    }
    b.build()
}

/// Application A's connections, then B's.
const A: [ConnId; 2] = [ConnId::new(0), ConnId::new(1)];
const B: [ConnId; 2] = [ConnId::new(2), ConnId::new(3)];

fn offer(net: &mut CycleNet, conn: ConnId, n: u32) {
    for seq in 0..n {
        net.queue(conn).borrow_mut().push_back(Message {
            seq,
            words: 2,
            ready_cycle: u64::from(seq) * 17, // deliberately slot-unaligned
        });
    }
}

/// Runs 20 hand-queued messages on each of A's connections, and on B's
/// too when `with_b`, for 8 000 cycles.
fn run_case(stages: u32, kind: NetworkKind, with_b: bool) -> CycleNet {
    let s = spec(stages, TrafficPattern::ConstantRate);
    let alloc = allocate(&s).expect("allocates");
    let mut net = build_network(&s, &alloc, kind, false);
    let offered = if with_b { [A, B].concat() } else { A.to_vec() };
    for c in offered {
        offer(&mut net, c, 20);
    }
    net.run_cycles(8_000);
    net
}

/// Asserts that A's connections logged the same records in both runs.
fn assert_a_unchanged(reference: &CycleNet, compared: &CycleNet, what: &str) {
    let result = compare_logs(A, &reference.logs, &compared.logs);
    assert!(result.is_composable(), "{what}: {result}");
}

#[test]
fn synchronous_hardware_is_composable() {
    let with = run_case(0, NetworkKind::Synchronous, true);
    let without = run_case(0, NetworkKind::Synchronous, false);
    assert_a_unchanged(&with, &without, "app B's presence changed app A's logs");
    let delivered = A.map(|c| with.log(c).borrow().len());
    assert_eq!(delivered, [20, 20], "all flits delivered");
}

#[test]
fn mesochronous_hardware_is_composable() {
    let kind = NetworkKind::Mesochronous { phase_seed: 99 };
    let with = run_case(1, kind, true);
    let without = run_case(1, kind, false);
    assert_a_unchanged(&with, &without, "app B's presence changed app A's logs");
    // And across phase assignments too (flit synchronicity): the same
    // cycles, at the times of other NI phases.
    let other_phases = run_case(1, NetworkKind::Mesochronous { phase_seed: 7 }, true);
    for c in A {
        assert_eq!(with.delivery_cycles(c), other_phases.delivery_cycles(c));
    }
}

/// Runs the spec with B offering `b_pattern` on the event build for
/// 30 000 cycles, every connection with its traffic.
fn run_with_b(stages: u32, kind: NetworkKind, b_pattern: TrafficPattern) -> CycleNet {
    let s = spec(stages, b_pattern);
    let alloc = allocate(&s).expect("allocates");
    let mut net = build_network(&s, &alloc, kind, true);
    net.run_cycles(30_000);
    net
}

/// B floods the NoC instead of offering its contracted rate: its own NI
/// queues absorb the excess, and A's logs stay record-for-record those
/// of a run in which B behaves — the paper's case for TDM over best
/// effort.
fn a_misbehaving_neighbour_moves_nothing(stages: u32, kind: NetworkKind) {
    let behaved = run_with_b(stages, kind, TrafficPattern::ConstantRate);
    let flooding = run_with_b(stages, kind, TrafficPattern::Saturating);
    assert_a_unchanged(&behaved, &flooding, &format!("{kind:?}: a flooding B"));
    // The comparison is of a neighbour that really sends.
    let flits = |net: &CycleNet| B.map(|c| net.log(c).borrow().len()).iter().sum::<usize>();
    let (cbr, flood) = (flits(&behaved), flits(&flooding));
    assert!(
        flood >= cbr && cbr > 0,
        "{kind:?}: B sent {flood} flits, {cbr} at CBR"
    );
}

#[test]
fn a_misbehaving_neighbour_moves_nothing_on_the_hardware() {
    a_misbehaving_neighbour_moves_nothing(0, NetworkKind::Synchronous);
    for phase_seed in [7, 99] {
        a_misbehaving_neighbour_moves_nothing(1, NetworkKind::Mesochronous { phase_seed });
    }
}

#[test]
fn contention_freedom_holds_cycle_by_cycle() {
    // The router model panics on any same-cycle output contention; a full
    // busy run without panic is a per-cycle proof over the whole window.
    let net = run_with_b(0, NetworkKind::Synchronous, TrafficPattern::ConstantRate);
    for (c, log) in &net.logs {
        assert!(log.borrow().len() > 50, "{c}: traffic flowed");
    }
}

/// Runs `apps` of `spec` alone on the event-driven build, with CBR
/// traffic, on the full system's grants of their connections.
fn run_apps(spec: &SystemSpec, alloc: &Allocation, apps: &[AppId], cycles: u64) -> CycleNet {
    let mut alloc = alloc.clone();
    for c in spec.connections() {
        if !apps.contains(&c.app) {
            alloc.take_grant(c.id);
        }
    }
    let mut net = build_network(
        &spec.restricted_to(apps),
        &alloc,
        NetworkKind::Synchronous,
        true,
    );
    net.run_cycles(cycles);
    net
}

/// C1 on the event-driven build of `paper_workload(42)`: each application
/// alone and the pairs A0+A1, A1+A2 and A2+A3 must reproduce every
/// delivery log of their connections in the full system, bit for bit.
fn c1_on_the_event_engine(cycles: u64) {
    let spec = paper_workload(42);
    let alloc = allocate(&spec).expect("paper workload allocates");
    let all: Vec<AppId> = spec.apps().iter().map(|a| a.id).collect();
    let full = run_apps(&spec, &alloc, &all, cycles);
    let pairs = [[0, 1], [1, 2], [2, 3]].map(|[a, b]| vec![AppId::new(a), AppId::new(b)]);
    let mut flits = 0;
    for apps in all.iter().map(|&a| vec![a]).chain(pairs) {
        let part = run_apps(&spec, &alloc, &apps, cycles);
        let conns = spec.connections().iter().filter(|c| apps.contains(&c.app));
        let result = compare_logs(conns.map(|c| c.id), &full.logs, &part.logs);
        assert!(result.is_composable(), "{apps:?}: {result}");
        flits += part
            .logs
            .iter()
            .map(|(_, log)| log.borrow().len())
            .sum::<usize>();
    }
    assert!(flits > 0, "nothing delivered in {cycles} cycles");
}

#[test]
fn paper_platform_compositions_match_the_full_system() {
    c1_on_the_event_engine(3_000);
}

#[test]
#[ignore = "C1's full 60 000 cycles: run in release"]
fn paper_platform_compositions_match_the_full_system_over_c1s_run() {
    c1_on_the_event_engine(60_000);
}
