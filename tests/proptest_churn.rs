//! Property-based tests of the online churn engine: arbitrary
//! interleavings of open/close/use-case-switch operations keep every
//! link's owner array and free mask in lock-step, never double-book a
//! slot, and leave an end state that is a valid allocation of exactly
//! the surviving connection set (which a fresh batch allocation of that
//! set also admits).

use aelite_alloc::{allocate, validate_allocation, Allocation};
use aelite_online::{AdmissionRequest, ChurnEngine};
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::{random_workload, WorkloadParams};
use aelite_spec::ids::{AppId, ConnId, LinkId};
use aelite_spec::topology::Topology;
use aelite_spec::NocConfig;
use proptest::prelude::*;
use AdmissionRequest::{Close, Open};

/// A small but genuinely shared platform: 2×2 mesh, 2 NIs per router,
/// 3 applications, 14 connections.
fn small_spec(seed: u64) -> SystemSpec {
    let params = WorkloadParams {
        apps: 3,
        connections: 14,
        ips: 8,
        bw_min_mb: 10,
        bw_max_mb: 80,
        lat_min_ns: 200,
        lat_max_ns: 2_000,
        message_bytes: 32,
        ni_load_cap: 0.5,
    };
    random_workload(
        Topology::mesh(2, 2, 2),
        NocConfig::paper_default(),
        params,
        seed,
    )
}

/// Every link table's free mask agrees with its owner array, every
/// reserved slot belongs to a *currently granted* connection, and every
/// grant's reservations are exactly where the grant says they are
/// (shift-consistent, no double-booking by construction of ownership).
fn assert_tables_consistent(spec: &SystemSpec, alloc: &Allocation) {
    let shift = spec.config().slots_per_hop();
    let granted: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    for li in 0..spec.topology().link_count() {
        let table = alloc.link_table(LinkId::new(li as u32));
        for s in 0..table.size() {
            // Lock-step: the mask and the owner vector never disagree.
            assert_eq!(
                table.is_free(s),
                table.owner(s).is_none(),
                "link {li} slot {s}: free mask out of lock-step"
            );
            if let Some(owner) = table.owner(s) {
                assert!(
                    granted.contains(&owner),
                    "link {li} slot {s}: owned by closed {owner}"
                );
            }
        }
    }
    for g in alloc.grants() {
        for (i, &l) in g.links.iter().enumerate() {
            for &s in &g.inject_slots {
                assert_eq!(
                    alloc.link_table(l).owner(s + i as u32 * shift),
                    Some(g.conn),
                    "grant of {} not present on link {i}",
                    g.conn
                );
            }
        }
    }
}

/// One scripted churn step, decoded from two proptest draws.
fn apply_step(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    open: &mut [bool],
    kind: u8,
    pick: u16,
) {
    let n = spec.connections().len();
    match kind % 8 {
        // Toggle a pseudo-random connection (the common single-op churn).
        0..=5 => {
            let pos = pick as usize % n;
            let id = spec.connections()[pos].id;
            if open[pos] {
                assert!(engine.submit(spec, alloc, Close(id)).is_ok());
                open[pos] = false;
            } else if engine.submit(spec, alloc, Open(id)).is_ok() {
                open[pos] = true;
            }
        }
        // Use-case switch: one app's open set out, another's closed set
        // in. Rejected switches roll back — both sides stay closed.
        _ => {
            let apps = spec.apps().len();
            let victim = AppId::new(pick as u32 % apps as u32);
            let incoming = AppId::new((pick as u32 + 1) % apps as u32);
            let close: Vec<ConnId> = spec
                .connections()
                .iter()
                .enumerate()
                .filter(|(pos, c)| c.app == victim && open[*pos])
                .map(|(_, c)| c.id)
                .collect();
            let adds: Vec<ConnId> = spec
                .connections()
                .iter()
                .enumerate()
                .filter(|(pos, c)| c.app == incoming && !open[*pos])
                .map(|(_, c)| c.id)
                .collect();
            let switch = AdmissionRequest::Switch {
                close: close.clone(),
                open: adds.clone(),
            };
            let ok = engine.submit(spec, alloc, switch).is_ok();
            for (pos, c) in spec.connections().iter().enumerate() {
                if close.contains(&c.id) {
                    open[pos] = false;
                }
                if adds.contains(&c.id) {
                    open[pos] = ok;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine invariants hold after *every* operation of an
    /// arbitrary interleaving, and the end state is a valid allocation
    /// of exactly the surviving set.
    #[test]
    fn interleaved_churn_preserves_invariants(
        seed in 0u64..4,
        script in proptest::collection::vec((0u8..8, 0u16..1024), 1..40),
    ) {
        let spec = small_spec(seed);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        let mut open = vec![false; spec.connections().len()];

        for &(kind, pick) in &script {
            apply_step(&spec, &mut engine, &mut alloc, &mut open, kind, pick);
            // Lock-step and ownership invariants after every single op.
            assert_tables_consistent(&spec, &alloc);
            // The engine's view and the shadow state agree.
            for (pos, c) in spec.connections().iter().enumerate() {
                prop_assert_eq!(alloc.grant(c.id).is_some(), open[pos], "{} state", c.id);
            }
        }

        // End state: a valid allocation of exactly the surviving set...
        let surviving: Vec<ConnId> = spec
            .connections()
            .iter()
            .enumerate()
            .filter(|(pos, _)| open[*pos])
            .map(|(_, c)| c.id)
            .collect();
        let view = spec.restricted_to_connections(&surviving);
        validate_allocation(&view, &alloc)
            .unwrap_or_else(|v| panic!("end state invalid: {v:?}"));
        // ... and the surviving set is batch-allocatable from scratch
        // (slot placements may differ; validity is the contract).
        if !surviving.is_empty() {
            let fresh = allocate(&view).expect("surviving set batch-allocates");
            validate_allocation(&view, &fresh).expect("fresh allocation valid");
            for &c in &surviving {
                prop_assert!(fresh.grant(c).is_some());
            }
        }
    }

    /// Closing every open connection returns every link table to fully
    /// free — no leaked reservations, mask and owners in lock-step.
    #[test]
    fn draining_the_system_frees_every_slot(
        seed in 0u64..4,
        script in proptest::collection::vec((0u8..8, 0u16..1024), 1..30),
    ) {
        let spec = small_spec(seed);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        let mut open = vec![false; spec.connections().len()];
        for &(kind, pick) in &script {
            apply_step(&spec, &mut engine, &mut alloc, &mut open, kind, pick);
        }
        for (pos, c) in spec.connections().iter().enumerate() {
            if open[pos] {
                prop_assert!(engine.submit(&spec, &mut alloc, Close(c.id)).is_ok());
            }
        }
        for li in 0..spec.topology().link_count() {
            let table = alloc.link_table(LinkId::new(li as u32));
            prop_assert_eq!(table.reserved_count(), 0, "link {} not drained", li);
            for s in 0..table.size() {
                prop_assert!(table.is_free(s) && table.owner(s).is_none());
            }
        }
    }
}
