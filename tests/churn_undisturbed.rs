//! Undisturbed service across online reconfiguration, validated at the
//! cycle level.
//!
//! The paper's reconfiguration model promises that setting up and
//! tearing down connections never disturbs anyone else's service. The
//! [`ChurnEngine`] enforces that structurally (grants are never moved);
//! this test proves it **behaviourally**: the full delivery log of every
//! connection that persists across a use-case switch — conn, tag,
//! destination cycle *and* absolute time of every flit — is bit-for-bit
//! identical before the switch, after the switch, and in a run where the
//! reconfiguration never happened. The logs come from the turbo
//! simulator, which is itself pinned bit-for-bit against the
//! event-driven cycle-accurate engine by `tests/turbo_golden.rs`, so the
//! equivalence transitively covers the reference simulator too.

use aelite_alloc::{allocate, Allocation};
use aelite_noc::network::NetworkKind;
use aelite_noc::ni::FlitDelivery;
use aelite_noc::turbo::build_turbo;
use aelite_online::{AdmissionRequest, ChurnEngine, ShardConfig, ShardedEngine};
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::{paper_workload, WorkloadBuilder};
use aelite_spec::ids::{AppId, ConnId};

const HORIZON_CYCLES: u64 = 20_000;

/// Runs `spec` under `alloc` for the common horizon and returns the
/// delivery logs of `conns`, in the given order.
fn delivery_logs(
    spec: &SystemSpec,
    alloc: &aelite_alloc::Allocation,
    conns: &[ConnId],
) -> Vec<Vec<FlitDelivery>> {
    let mut net = build_turbo(spec, alloc, NetworkKind::Synchronous, true);
    net.run_cycles(HORIZON_CYCLES);
    conns
        .iter()
        .map(|&c| net.log(c).borrow().to_vec())
        .collect()
}

#[test]
fn persisting_connections_are_bitwise_undisturbed_across_a_switch() {
    // Use case 1 = apps {0, 1, 2}; use case 2 = apps {0, 1, 3}.
    // Apps 0 and 1 persist across the switch.
    let spec = paper_workload(42);
    let uc1 = spec.restricted_to(&[AppId::new(0), AppId::new(1), AppId::new(2)]);
    let uc2 = spec.restricted_to(&[AppId::new(0), AppId::new(1), AppId::new(3)]);
    let persisting: Vec<ConnId> = spec
        .connections()
        .iter()
        .filter(|c| c.app == AppId::new(0) || c.app == AppId::new(1))
        .map(|c| c.id)
        .collect();
    assert_eq!(persisting.len(), 100, "half the paper workload persists");

    // Before: batch-allocate use case 1 and record the persisting logs.
    let mut alloc = allocate(&uc1).expect("use case 1 allocates");
    let persisting_grants: Vec<_> = persisting
        .iter()
        .map(|&c| alloc.grant(c).unwrap().clone())
        .collect();
    let before = delivery_logs(&uc1, &alloc, &persisting);

    // The switch: app 2 out, app 3 in, applied online as one delta.
    let mut engine = ChurnEngine::new(&spec);
    let close: Vec<ConnId> = spec.app_connections(AppId::new(2)).map(|c| c.id).collect();
    let open: Vec<ConnId> = spec.app_connections(AppId::new(3)).map(|c| c.id).collect();
    engine
        .switch(&spec, &mut alloc, &close, &open)
        .expect("the freed resources carry app 3");

    // Structural check first: the persisting grants are bit-identical.
    for g in &persisting_grants {
        assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
    }

    // Behavioural check: delivery logs after the switch are bit-for-bit
    // the logs from before — conn, tag, cycle and absolute time.
    let after = delivery_logs(&uc2, &alloc, &persisting);
    assert_eq!(before, after, "a persisting connection's service changed");

    // And tearing the incoming app down again (back to just the
    // persisting applications) still changes nothing.
    for &c in &open {
        assert!(engine.close(&mut alloc, c));
    }
    let uc_persist = spec.restricted_to(&[AppId::new(0), AppId::new(1)]);
    let alone = delivery_logs(&uc_persist, &alloc, &persisting);
    assert_eq!(before, alone, "service depends on who else is running");

    // The logs carry real traffic — this test never compares silence.
    let flits: usize = before.iter().map(Vec::len).sum();
    assert!(
        flits > 10_000,
        "only {flits} flits in {HORIZON_CYCLES} cycles"
    );
}

#[test]
fn served_burst_leaves_untouched_connections_bit_identical() {
    // A batched admission round (the serving layer's unit of work) must
    // be as undisturbed as the per-op path: every connection not named
    // in the burst keeps a bit-identical delivery log across the round.
    let spec = paper_workload(13);
    let mut alloc = allocate(&spec).expect("paper workload allocates");
    let mut engine = ChurnEngine::new(&spec);

    // Pre-state: every 7th connection is closed (they become the
    // burst's opens); every 5th (not multiple of 7) stays open and gets
    // closed by the burst; the rest persist untouched.
    let all: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
    let to_open: Vec<ConnId> = all.iter().copied().filter(|c| c.index() % 7 == 2).collect();
    let to_close: Vec<ConnId> = all
        .iter()
        .copied()
        .filter(|c| c.index() % 7 != 2 && c.index() % 5 == 1)
        .collect();
    let persisting: Vec<ConnId> = all
        .iter()
        .copied()
        .filter(|c| c.index() % 7 != 2 && c.index() % 5 != 1)
        .collect();
    assert!(!to_open.is_empty() && !to_close.is_empty());
    assert!(persisting.len() > all.len() / 2);
    for &c in &to_open {
        assert!(engine.close(&mut alloc, c));
    }

    let open_now: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    let view_before = spec.restricted_to_connections(&open_now);
    let before = delivery_logs(&view_before, &alloc, &persisting);
    let persisting_grants: Vec<_> = persisting
        .iter()
        .map(|&c| alloc.grant(c).unwrap().clone())
        .collect();

    // The served burst: independent requests (each connection named
    // once), applied as one batched admission round.
    let requests: Vec<AdmissionRequest> = to_open
        .iter()
        .map(|&c| AdmissionRequest::Open(c))
        .chain(to_close.iter().map(|&c| AdmissionRequest::Close(c)))
        .collect();
    let mut verdicts = Vec::new();
    engine.submit_batch(&spec, &mut alloc, &requests, &mut verdicts);
    let admitted = verdicts.iter().filter(|v| v.is_ok()).count();
    assert!(
        admitted >= requests.len() - 2,
        "burst mostly admits ({admitted}/{})",
        requests.len()
    );

    // Structural: untouched grants are bit-identical.
    for g in &persisting_grants {
        assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
    }

    // Behavioural: delivery logs of the untouched connections are
    // bit-for-bit the pre-burst logs.
    let open_after: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    let view_after = spec.restricted_to_connections(&open_after);
    let after = delivery_logs(&view_after, &alloc, &persisting);
    assert_eq!(before, after, "a served burst disturbed a bystander");

    let flits: usize = before.iter().map(Vec::len).sum();
    assert!(
        flits > 5_000,
        "only {flits} flits in {HORIZON_CYCLES} cycles"
    );
}

#[test]
fn sharded_burst_leaves_untouched_connections_bit_identical() {
    // The sharded engine admits a burst shard by shard; the
    // bystanders — every connection the burst never names — must keep a
    // bit-for-bit identical delivery log, exactly as on the serial path.
    let spec = WorkloadBuilder::mesh(4, 4, 2)
        .connections(120)
        .tiles(2, 2)
        .seed(21)
        .build();
    let cfg = ShardConfig {
        max_paths: 2,
        ..ShardConfig::tiled(2, 2)
    };
    let mut engine = ShardedEngine::new(&spec, cfg);
    let mut alloc = Allocation::empty_for(&spec);

    // Build the pre-state through the engine itself: one wide sharded
    // burst opening every connection (refusals are fine — the admitted
    // set is what we protect).
    let opens: Vec<AdmissionRequest> = spec
        .connections()
        .iter()
        .map(|c| AdmissionRequest::Open(c.id))
        .collect();
    let mut verdicts = Vec::new();
    engine.submit_batch(&spec, &mut alloc, &opens, &mut verdicts);
    let admitted: Vec<ConnId> = spec
        .connections()
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| v.is_ok())
        .map(|(c, _)| c.id)
        .collect();
    assert!(admitted.len() > 60, "only {} admitted", admitted.len());

    // The burst churns every 5th admitted connection; the rest persist.
    let (churned, persisting): (Vec<ConnId>, Vec<ConnId>) =
        admitted.iter().partition(|c| c.index() % 5 == 1);
    assert!(!churned.is_empty() && persisting.len() > admitted.len() / 2);

    let view_before = spec.restricted_to_connections(&admitted);
    let before = delivery_logs(&view_before, &alloc, &persisting);
    let persisting_grants: Vec<_> = persisting
        .iter()
        .map(|&c| alloc.grant(c).unwrap().clone())
        .collect();

    // The sharded burst: close the churn set in one sharded round,
    // then re-admit it in another.
    let closes: Vec<AdmissionRequest> = churned
        .iter()
        .map(|&c| AdmissionRequest::Close(c))
        .collect();
    engine.submit_batch(&spec, &mut alloc, &closes, &mut verdicts);
    assert!(verdicts.iter().all(|v| v.is_ok()), "closes cannot refuse");

    let open_mid: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    let view_mid = spec.restricted_to_connections(&open_mid);
    let mid = delivery_logs(&view_mid, &alloc, &persisting);
    assert_eq!(before, mid, "a sharded close burst disturbed a bystander");

    let reopens: Vec<AdmissionRequest> =
        churned.iter().map(|&c| AdmissionRequest::Open(c)).collect();
    engine.submit_batch(&spec, &mut alloc, &reopens, &mut verdicts);

    // Structural: untouched grants are bit-identical through both rounds.
    for g in &persisting_grants {
        assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
    }

    // Behavioural: bystander delivery logs bit-for-bit unchanged.
    let open_after: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    let view_after = spec.restricted_to_connections(&open_after);
    let after = delivery_logs(&view_after, &alloc, &persisting);
    assert_eq!(before, after, "a sharded burst disturbed a bystander");

    let flits: usize = before.iter().map(Vec::len).sum();
    assert!(
        flits > 5_000,
        "only {flits} flits in {HORIZON_CYCLES} cycles"
    );
}

#[test]
fn repeated_open_close_cycles_leave_service_bit_identical() {
    // A connection that is closed and re-admitted may land on different
    // slots — but everyone *else* must not see any difference, through
    // an arbitrary number of reconfigurations.
    let spec = paper_workload(7);
    let mut alloc = allocate(&spec).expect("paper workload allocates");
    let all: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
    let (churned, stable): (Vec<ConnId>, Vec<ConnId>) =
        all.iter().partition(|c| c.index() % 10 == 3);
    let before = delivery_logs(&spec, &alloc, &stable);

    let mut engine = ChurnEngine::new(&spec);
    for round in 0..5 {
        for &c in &churned {
            assert!(engine.close(&mut alloc, c), "round {round}: {c} open");
        }
        for &c in &churned {
            engine
                .open(&spec, &mut alloc, c)
                .unwrap_or_else(|e| panic!("round {round}: {c} rejected: {e}"));
        }
    }
    assert_eq!(engine.stats().ops(), churned.len() as u64 * 10);

    let after = delivery_logs(&spec, &alloc, &stable);
    assert_eq!(before, after, "a stable connection's service changed");
}
