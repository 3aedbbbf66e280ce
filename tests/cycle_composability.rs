//! Composability verified on the **cycle-accurate hardware models** (not
//! just the flit-level abstraction): with the mesochronous build included,
//! toggling one application's offered traffic cannot move a single
//! delivery cycle of another application. On the paper platform, the
//! compositions of experiment C1 (`benches/c1_composability.rs`) run on
//! the event-driven build, whose routers model shared pipelines and
//! panic on contention.

use aelite_alloc::{allocate, Allocation};
use aelite_noc::network::{build_network, CycleNet, NetworkKind};
use aelite_noc::ni::Message;
use aelite_spec::app::{SystemSpec, SystemSpecBuilder};
use aelite_spec::config::NocConfig;
use aelite_spec::generate::paper_workload;
use aelite_spec::ids::{AppId, ConnId, NiId};
use aelite_spec::topology::Topology;
use aelite_spec::traffic::Bandwidth;

/// 2x2 mesh, two applications with crossing connections.
fn spec(stages: u32) -> SystemSpec {
    let topo = Topology::mesh(2, 2, 1);
    let mut cfg = NocConfig::paper_default();
    cfg.link_pipeline_stages = stages;
    let mut b = SystemSpecBuilder::new(topo, cfg);
    let app_a = b.add_app("A");
    let app_b = b.add_app("B");
    let ips: Vec<_> = (0..4).map(|i| b.add_ip_at(NiId::new(i))).collect();
    // A: corner to corner, both diagonals.
    b.add_connection(
        app_a,
        ips[0],
        ips[3],
        Bandwidth::from_mbytes_per_sec(80),
        900,
    );
    b.add_connection(
        app_a,
        ips[3],
        ips[0],
        Bandwidth::from_mbytes_per_sec(60),
        900,
    );
    // B: the other diagonal, sharing routers (but never slots) with A.
    b.add_connection(
        app_b,
        ips[1],
        ips[2],
        Bandwidth::from_mbytes_per_sec(100),
        900,
    );
    b.add_connection(
        app_b,
        ips[2],
        ips[1],
        Bandwidth::from_mbytes_per_sec(40),
        900,
    );
    b.build()
}

fn offer(net: &mut aelite_noc::network::CycleNet, conn: ConnId, n: u32) {
    for seq in 0..n {
        net.queue(conn).borrow_mut().push_back(Message {
            seq,
            words: 2,
            ready_cycle: u64::from(seq) * 17, // deliberately slot-unaligned
        });
    }
}

fn run_case(stages: u32, kind: NetworkKind, with_b: bool) -> Vec<Vec<u64>> {
    let s = spec(stages);
    let alloc = allocate(&s).expect("allocates");
    let mut net = build_network(&s, &alloc, kind, false);
    let a_conns = [ConnId::new(0), ConnId::new(1)];
    let b_conns = [ConnId::new(2), ConnId::new(3)];
    for c in a_conns {
        offer(&mut net, c, 20);
    }
    if with_b {
        for c in b_conns {
            offer(&mut net, c, 20);
        }
    }
    net.run_cycles(8_000);
    a_conns.iter().map(|&c| net.delivery_cycles(c)).collect()
}

#[test]
fn synchronous_hardware_is_composable() {
    let with = run_case(0, NetworkKind::Synchronous, true);
    let without = run_case(0, NetworkKind::Synchronous, false);
    assert_eq!(with, without, "app B's presence changed app A's cycles");
    assert!(with.iter().all(|t| t.len() == 20), "all flits delivered");
}

#[test]
fn mesochronous_hardware_is_composable() {
    let kind = NetworkKind::Mesochronous { phase_seed: 99 };
    let with = run_case(1, kind, true);
    let without = run_case(1, kind, false);
    assert_eq!(with, without);
    // And across phase assignments too (flit synchronicity).
    let other_phases = run_case(1, NetworkKind::Mesochronous { phase_seed: 7 }, true);
    assert_eq!(with, other_phases);
}

#[test]
fn contention_freedom_holds_cycle_by_cycle() {
    // The router model panics on any same-cycle output contention; a full
    // busy run without panic is a per-cycle proof over the whole window.
    let s = spec(0);
    let alloc = allocate(&s).expect("allocates");
    let mut net = build_network(&s, &alloc, NetworkKind::Synchronous, true);
    net.run_cycles(30_000);
    for c in s.connections() {
        assert!(
            net.delivery_cycles(c.id).len() > 50,
            "{}: traffic flowed",
            c.id
        );
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
        for c in spec.connections().iter().filter(|c| apps.contains(&c.app)) {
            let log = part.log(c.id).borrow();
            assert!(
                *log == *full.log(c.id).borrow(),
                "{apps:?}: {} diverges",
                c.id
            );
            flits += log.len();
        }
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
