//! Property-based tests of fault recovery in the churn engine: arbitrary
//! interleavings of churn (open/close/switch, each through an entry
//! point the script draws), fault (link/router down/up, through
//! `apply`), transient
//! glitch and clock-advance operations never leave a granted route over
//! an *enforced* down link, keep every slot table in lock-step with its
//! owners, keep the displaced ledger exact (grantless connections only),
//! and — after closing every displaced connection, repairing every link
//! and closing every survivor — leave the platform fully free. Two
//! dedicated properties pin the transient-fault contract: a
//! sub-threshold glitch leaves every slot table bit-for-bit unchanged
//! (before and after it expires), and a threshold-crossing glitch
//! displaces exactly what a permanent `LinkDown` would.

use aelite_alloc::Allocation;
use aelite_online::{ChurnEngine, DEFAULT_PERSISTENCE_NS};
use aelite_spec::app::SystemSpec;
use aelite_spec::fault::{FaultOp, ScenarioEvent, ScenarioOp};
use aelite_spec::generate::{random_workload, WorkloadParams};
use aelite_spec::ids::{AppId, ConnId, LinkId, RouterId};
use aelite_spec::{ChurnOp, NocConfig, Topology};
use proptest::prelude::*;

/// A small but genuinely shared platform: 2×2 mesh, 2 NIs per router,
/// 3 applications, 14 connections (as `tests/proptest_churn.rs`).
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

/// The engine-wide invariants that must hold after *every* operation.
fn assert_fault_invariants(spec: &SystemSpec, engine: &ChurnEngine, alloc: &Allocation) {
    // The core contract: no granted route traverses an *enforced* down
    // link — through serial opens, switches, re-routes and re-homing
    // alike. (Grants may ride out sub-threshold glitches, which mask
    // admission without displacing anyone: masked ⊇ enforced.)
    for g in alloc.grants() {
        for &l in &g.links {
            assert!(
                !engine.enforced().is_down(l),
                "{} granted over down link {l}",
                g.conn
            );
        }
    }
    for li in 0..spec.topology().link_count() {
        let l = LinkId::new(li as u32);
        if engine.enforced().is_down(l) {
            assert!(engine.mask().is_down(l), "{l} enforced but not masked");
        }
    }
    // The displaced ledger holds only grantless connections, each once.
    for (i, &c) in engine.displaced().iter().enumerate() {
        assert!(alloc.grant(c).is_none(), "displaced {c} holds a grant");
        assert!(!engine.displaced()[..i].contains(&c), "{c} displaced twice");
    }
    // Slot tables in lock-step: the free mask and owner array agree,
    // and every reserved slot belongs to a live grant.
    let granted: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    for li in 0..spec.topology().link_count() {
        let table = alloc.link_table(LinkId::new(li as u32));
        for s in 0..table.size() {
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
    // Recovery accounting closes: every affected grant either survived
    // (re-routed) or was dropped.
    let s = engine.stats();
    assert_eq!(s.survived() + s.dropped, s.affected);
}

/// Services one churn request through the entry point `entry` draws:
/// `apply`, `submit`, a one-request `submit_batch`, or `apply_event` at
/// the engine's own clock — every way a request can enter. Churn must
/// keep the displaced ledger exact whichever one it takes.
fn churn(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    op: ChurnOp,
    entry: u16,
) {
    match entry % 4 {
        0 => {
            engine.apply(spec, alloc, &ScenarioOp::Churn(op));
        }
        1 => {
            let _ = engine.submit(spec, alloc, op);
        }
        2 => engine.submit_batch(spec, alloc, &[op], &mut Vec::new()),
        _ => {
            let event = ScenarioEvent {
                at_ns: engine.now_ns(),
                op: ScenarioOp::Churn(op),
            };
            engine.apply_event(spec, alloc, &event);
        }
    }
}

/// Applies one fault op, which names a link or router of `spec`.
fn fault(spec: &SystemSpec, engine: &mut ChurnEngine, alloc: &mut Allocation, op: FaultOp) {
    assert!(engine.apply(spec, alloc, &ScenarioOp::Fault(op)), "{op:?}");
}

/// One scripted operation, decoded from two proptest draws: mostly
/// churn (as `tests/proptest_churn.rs`), with fault, repair, transient
/// glitch and clock-advance events interleaved. The high bits of `pick`
/// choose the churn entry point.
fn apply_step(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    kind: u8,
    pick: u16,
) {
    let topo = spec.topology();
    let entry = pick >> 8;
    match kind % 14 {
        // Toggle a pseudo-random connection (the common single-op churn).
        0..=6 => {
            let conns = spec.connections();
            let id = conns[pick as usize % conns.len()].id;
            let op = if alloc.grant(id).is_some() {
                ChurnOp::Close(id)
            } else {
                ChurnOp::Open(id)
            };
            churn(spec, engine, alloc, op, entry);
        }
        // Use-case switch: one app's granted set out, another's
        // grantless set in (refusals roll back — that's the engine's
        // contract, re-checked by the invariants).
        7 => {
            let apps = spec.apps().len() as u32;
            let victim = AppId::new(u32::from(pick) % apps);
            let incoming = AppId::new((u32::from(pick) + 1) % apps);
            let close: Vec<ConnId> = spec
                .app_connections(victim)
                .filter(|c| alloc.grant(c.id).is_some())
                .map(|c| c.id)
                .collect();
            let open: Vec<ConnId> = spec
                .app_connections(incoming)
                .filter(|c| alloc.grant(c.id).is_none())
                .map(|c| c.id)
                .collect();
            churn(spec, engine, alloc, ChurnOp::Switch { close, open }, entry);
        }
        // Fault and repair events on pseudo-random links and routers.
        8 | 9 => {
            let link = LinkId::new(u32::from(pick) % topo.link_count() as u32);
            let op = if kind % 14 == 8 {
                FaultOp::LinkDown(link)
            } else {
                FaultOp::LinkUp(link)
            };
            fault(spec, engine, alloc, op);
        }
        10 | 11 => {
            let router = RouterId::new(u32::from(pick) % topo.router_count() as u32);
            let op = if kind % 14 == 10 {
                FaultOp::RouterDown(router)
            } else {
                FaultOp::RouterUp(router)
            };
            fault(spec, engine, alloc, op);
        }
        // A transient glitch whose duration straddles the persistence
        // threshold (sub-threshold glitches mask admission only;
        // escalated ones displace like a LinkDown and self-repair).
        12 => {
            let link = LinkId::new(u32::from(pick) % topo.link_count() as u32);
            let duration_ns = (u64::from(pick) * 37) % (2 * DEFAULT_PERSISTENCE_NS) + 1;
            fault(
                spec,
                engine,
                alloc,
                FaultOp::LinkGlitch { link, duration_ns },
            );
        }
        // Advance the scenario clock: pending glitches expire.
        _ => {
            let t = engine.now_ns() + 1 + u64::from(pick) * 50;
            engine.advance_to(spec, alloc, t);
        }
    }
}

/// Semantic snapshot of every slot table: `(is_free, owner)` per slot.
/// (The table types have no `PartialEq`; the semantic content is what
/// the bit-for-bit contracts are about.)
fn table_snapshot(spec: &SystemSpec, alloc: &Allocation) -> Vec<Vec<(bool, Option<ConnId>)>> {
    (0..spec.topology().link_count())
        .map(|li| {
            let t = alloc.link_table(LinkId::new(li as u32));
            (0..t.size()).map(|s| (t.is_free(s), t.owner(s))).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fault invariants hold after *every* operation of an
    /// arbitrary churn/fault/glitch interleaving.
    #[test]
    fn interleaved_faults_never_grant_over_a_down_link(
        seed in 0u64..4,
        script in proptest::collection::vec((0u8..14, 0u16..1024), 1..40),
    ) {
        let spec = small_spec(seed);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        for &(kind, pick) in &script {
            apply_step(&spec, &mut engine, &mut alloc, kind, pick);
            assert_fault_invariants(&spec, &engine, &alloc);
        }
    }

    /// Closing every displaced connection, repairing every link and
    /// closing every survivor returns the platform to fully free: empty
    /// mask, empty ledger, no leaked reservation anywhere. The parked
    /// connections are closed *before* the repair, through whatever
    /// entry point the step draws, so a close that failed to settle one
    /// would let the repair re-home it into a table the drain expects
    /// empty.
    #[test]
    fn repairing_and_draining_frees_every_slot(
        seed in 0u64..4,
        script in proptest::collection::vec((0u8..14, 0u16..1024), 1..30),
    ) {
        let spec = small_spec(seed);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        for &(kind, pick) in &script {
            apply_step(&spec, &mut engine, &mut alloc, kind, pick);
            assert_fault_invariants(&spec, &engine, &alloc);
        }

        // Settle: the workload closes every displaced connection.
        for (k, c) in engine.displaced().to_vec().into_iter().enumerate() {
            churn(&spec, &mut engine, &mut alloc, ChurnOp::Close(c), k as u16);
            assert_fault_invariants(&spec, &engine, &alloc);
        }
        prop_assert!(engine.displaced().is_empty(), "ledger not settled");

        // Repair the world: every down link comes back up (cancelling
        // any pending glitch on it).
        for li in 0..spec.topology().link_count() {
            fault(&spec, &mut engine, &mut alloc, FaultOp::LinkUp(LinkId::new(li as u32)));
            assert_fault_invariants(&spec, &engine, &alloc);
        }
        prop_assert!(engine.mask().is_empty());

        // Drain: close every grant.
        let open: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
        for (k, c) in open.into_iter().enumerate() {
            churn(&spec, &mut engine, &mut alloc, ChurnOp::Close(c), k as u16);
            assert_fault_invariants(&spec, &engine, &alloc);
        }

        for li in 0..spec.topology().link_count() {
            let table = alloc.link_table(LinkId::new(li as u32));
            prop_assert_eq!(table.reserved_count(), 0, "link {} not drained", li);
            for s in 0..table.size() {
                prop_assert!(table.is_free(s) && table.owner(s).is_none());
            }
        }
    }

    /// A sub-threshold glitch is invisible to the slot tables: whatever
    /// state an arbitrary interleaving left behind, the glitch (and its
    /// later expiry) changes not one slot, displaces nobody, and leaves
    /// the displaced ledger untouched.
    #[test]
    fn sub_threshold_glitch_leaves_every_table_bit_for_bit(
        seed in 0u64..4,
        script in proptest::collection::vec((0u8..14, 0u16..1024), 1..30),
        pick in 0u16..1024,
    ) {
        let spec = small_spec(seed);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        for &(kind, p) in &script {
            apply_step(&spec, &mut engine, &mut alloc, kind, p);
        }
        // Settle every pending glitch so the snapshot is quiescent.
        let settle = engine.now_ns() + 10 * DEFAULT_PERSISTENCE_NS;
        engine.advance_to(&spec, &mut alloc, settle);

        let tables = table_snapshot(&spec, &alloc);
        let ledger = engine.displaced().to_vec();
        let affected = engine.stats().affected;

        let link = LinkId::new(u32::from(pick) % spec.topology().link_count() as u32);
        let duration_ns = 1 + u64::from(pick) % (DEFAULT_PERSISTENCE_NS - 1);
        fault(&spec, &mut engine, &mut alloc, FaultOp::LinkGlitch { link, duration_ns });
        prop_assert_eq!(&table_snapshot(&spec, &alloc), &tables, "glitch moved a slot");
        prop_assert_eq!(engine.displaced(), &ledger[..], "glitch touched the ledger");
        prop_assert_eq!(engine.stats().affected, affected, "glitch displaced a grant");

        engine.advance_to(&spec, &mut alloc, settle + 2 * DEFAULT_PERSISTENCE_NS);
        prop_assert_eq!(&table_snapshot(&spec, &alloc), &tables, "expiry moved a slot");
        prop_assert_eq!(engine.displaced(), &ledger[..]);
        prop_assert!(!engine.mask().is_down(link) || engine.enforced().is_down(link));
    }

    /// A threshold-crossing glitch displaces exactly what a permanent
    /// `LinkDown` would: same survivor grants, same ledger, same tables
    /// — the only difference is that the glitch self-repairs when the
    /// clock passes its expiry.
    #[test]
    fn escalated_glitch_behaves_like_a_permanent_link_down(
        seed in 0u64..4,
        script in proptest::collection::vec((0u8..14, 0u16..1024), 1..30),
        pick in 0u16..1024,
    ) {
        let spec = small_spec(seed);
        let mut alloc_a = Allocation::empty_for(&spec);
        let mut engine_a = ChurnEngine::new(&spec);
        let mut alloc_b = Allocation::empty_for(&spec);
        let mut engine_b = ChurnEngine::new(&spec);
        for &(kind, p) in &script {
            apply_step(&spec, &mut engine_a, &mut alloc_a, kind, p);
            apply_step(&spec, &mut engine_b, &mut alloc_b, kind, p);
        }
        let settle = engine_a.now_ns().max(engine_b.now_ns()) + 10 * DEFAULT_PERSISTENCE_NS;
        engine_a.advance_to(&spec, &mut alloc_a, settle);
        engine_b.advance_to(&spec, &mut alloc_b, settle);

        let link = LinkId::new(u32::from(pick) % spec.topology().link_count() as u32);
        // A glitch on an already-failed link is a no-op in both engines;
        // the self-repair contrast below only applies to a fresh glitch.
        let was_down = engine_a.enforced().is_down(link);
        let duration_ns = DEFAULT_PERSISTENCE_NS + u64::from(pick);
        fault(&spec, &mut engine_a, &mut alloc_a, FaultOp::LinkGlitch { link, duration_ns });
        fault(&spec, &mut engine_b, &mut alloc_b, FaultOp::LinkDown(link));

        prop_assert_eq!(table_snapshot(&spec, &alloc_a), table_snapshot(&spec, &alloc_b));
        prop_assert_eq!(engine_a.displaced(), engine_b.displaced());
        prop_assert_eq!(engine_a.stats().affected, engine_b.stats().affected);
        prop_assert_eq!(engine_a.stats().dropped, engine_b.stats().dropped);
        prop_assert!(engine_a.enforced().is_down(link) == engine_b.enforced().is_down(link));

        // Only the glitch self-repairs.
        engine_a.advance_to(&spec, &mut alloc_a, settle + duration_ns + 1);
        if !was_down {
            prop_assert!(!engine_a.mask().is_down(link));
        }
        prop_assert!(engine_b.mask().is_down(link));
    }
}
