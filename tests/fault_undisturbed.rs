//! Undisturbed service across fault injection and recovery, validated
//! at the cycle level.
//!
//! The paper's contract — admitted connections are undisturbed by
//! everything else, including reconfiguration — must extend to
//! failures: the [`ChurnEngine`] services a link or router going down
//! as a churn delta, re-routing only the affected grants. These tests
//! prove the contract **behaviourally**: every bystander's full turbo
//! delivery log — conn, tag, destination cycle *and* absolute time of
//! every flit — is bit-for-bit identical before the failure, after the
//! recovery sweep, and after the repair re-homes the displaced
//! connections. The turbo simulator is itself pinned against the
//! event-driven cycle-accurate engine by `tests/turbo_golden.rs`, so
//! the equivalence transitively covers the reference simulator.
//!
//! The last test is the sharded side of the same story: with a
//! boundary link down, the sharded engine stays bit-identical to the
//! plain serial engine in [`sharded_canonical_order`] — the fault mask
//! only removes candidates, it never perturbs the commit order.

#[path = "common/undisturbed.rs"]
mod undisturbed;

use aelite_alloc::{allocate, Allocation, Allocator, FaultMask, Steering};
use aelite_online::{
    sharded_canonical_order, AdmissionRequest, ChurnEngine, ChurnStats, ShardConfig, ShardedEngine,
    DEFAULT_PERSISTENCE_NS,
};
use aelite_spec::app::SystemSpec;
use aelite_spec::fault::{FaultOp, ScenarioOp};
use aelite_spec::generate::{paper_workload, scaled_workload};
use aelite_spec::ids::{ConnId, LinkId, RouterId};
use aelite_spec::topology::Endpoint;
use undisturbed::{assert_undisturbed, run, HORIZON_CYCLES};

/// Applies `op` (which must name a link or router of `spec`) and returns
/// what it did: the engine's stats delta across it.
fn fault(
    engine: &mut ChurnEngine,
    spec: &SystemSpec,
    alloc: &mut Allocation,
    op: FaultOp,
) -> ChurnStats {
    let before = *engine.stats();
    assert!(engine.apply(spec, alloc, &ScenarioOp::Fault(op)), "{op:?}");
    engine.stats().delta(&before)
}

/// The view of `spec` restricted to the currently granted connections.
fn open_view(spec: &SystemSpec, alloc: &Allocation) -> SystemSpec {
    let open: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    spec.restricted_to_connections(&open)
}

/// The most-loaded link of `alloc` and how many grants traverse it.
fn most_loaded_link(spec: &SystemSpec, alloc: &Allocation) -> (LinkId, u64) {
    let mut load = vec![0u64; spec.topology().link_count()];
    for g in alloc.grants() {
        for &l in &g.links {
            load[l.index()] += 1;
        }
    }
    let (victim, &count) = load.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
    (LinkId::new(victim as u32), count)
}

#[test]
fn bystanders_are_bitwise_undisturbed_across_inject_recover_repair() {
    // Fail the most-loaded link of the fully-allocated paper platform:
    // the recovery sweep has maximal work, and every grant *not* routed
    // over it is a bystander whose service must not change.
    let spec = paper_workload(42);
    let mut alloc = allocate(&spec).expect("paper workload allocates");
    let (victim, affected) = most_loaded_link(&spec, &alloc);
    assert!(affected > 0, "paper workload loads some link");

    let bystanders: Vec<ConnId> = alloc
        .grants()
        .filter(|g| !g.links.contains(&victim))
        .map(|g| g.conn)
        .collect();
    assert!(
        bystanders.len() > spec.connections().len() / 2,
        "most of the workload must be bystanders"
    );
    let bystander_grants: Vec<_> = bystanders
        .iter()
        .map(|&c| alloc.grant(c).unwrap().clone())
        .collect();
    let before = run(&spec, &alloc);

    // Inject: the link goes down; the engine walks the recovery ladder.
    let mut engine = ChurnEngine::new(&spec);
    let report = fault(&mut engine, &spec, &mut alloc, FaultOp::LinkDown(victim));
    assert_eq!(report.affected, affected);
    assert_eq!(report.survived() + report.dropped, report.affected);
    for g in alloc.grants() {
        assert!(
            !g.links.contains(&victim),
            "{} still over the fault",
            g.conn
        );
    }

    // Structural: bystander grants are bit-identical.
    for g in &bystander_grants {
        assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
    }
    // Behavioural: bystander delivery logs are bit-for-bit the pre-fault
    // logs, even though affected connections were re-routed around them.
    let during = run(&open_view(&spec, &alloc), &alloc);
    assert_undisturbed(
        &bystanders,
        &before,
        &during,
        "recovery disturbed a bystander",
    );

    // Repair: the link comes back; displaced connections are re-homed.
    let repair = fault(&mut engine, &spec, &mut alloc, FaultOp::LinkUp(victim));
    assert_eq!(
        repair.restored as usize + engine.displaced().len(),
        report.dropped as usize,
        "every dropped connection is re-homed or still parked"
    );
    for g in &bystander_grants {
        assert_eq!(
            alloc.grant(g.conn).unwrap(),
            g,
            "{} moved on repair",
            g.conn
        );
    }
    let after = run(&open_view(&spec, &alloc), &alloc);
    let flits = assert_undisturbed(&bystanders, &before, &after, "repair disturbed a bystander");

    // The logs carry real traffic — this test never compares silence.
    assert!(
        flits > 5_000,
        "only {flits} flits in {HORIZON_CYCLES} cycles"
    );
}

#[test]
fn sub_threshold_glitch_leaves_every_delivery_log_bit_for_bit() {
    // A transient glitch below the persistence threshold masks the link
    // out of admission but displaces nothing: *every* connection is a
    // bystander. Tables, grants and full cycle-level delivery logs must
    // be bit-for-bit unchanged through the glitch and its expiry.
    let spec = paper_workload(42);
    let mut alloc = allocate(&spec).expect("paper workload allocates");
    let (victim, loaded) = most_loaded_link(&spec, &alloc);
    assert!(loaded > 0, "paper workload loads some link");

    let everyone: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    let grants: Vec<_> = everyone
        .iter()
        .map(|&c| alloc.grant(c).unwrap().clone())
        .collect();
    let before = run(&spec, &alloc);

    let mut engine = ChurnEngine::new(&spec);
    let duration_ns = DEFAULT_PERSISTENCE_NS - 1;
    let glitch = FaultOp::LinkGlitch {
        link: victim,
        duration_ns,
    };
    let report = fault(&mut engine, &spec, &mut alloc, glitch);
    assert_eq!(report.affected, 0, "a sub-threshold glitch displaced");
    assert_eq!(engine.stats().affected, 0);
    assert!(engine.mask().is_down(victim), "glitch must mask admission");
    assert!(!engine.enforced().is_down(victim));

    // Structural and behavioural: nothing moved, nobody's service
    // changed — even the grants riding the glitched link.
    for g in &grants {
        assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
    }
    let during = run(&spec, &alloc);
    assert_undisturbed(
        &everyone,
        &before,
        &during,
        "a sub-threshold glitch disturbed service",
    );

    // Expiry is equally invisible: only the admission mask clears.
    engine.advance_to(&spec, &mut alloc, duration_ns + 1);
    assert!(engine.mask().is_empty());
    assert_eq!(engine.stats().glitch_expiries, 1);
    for g in &grants {
        assert_eq!(
            alloc.grant(g.conn).unwrap(),
            g,
            "{} moved on expiry",
            g.conn
        );
    }
    let after = run(&spec, &alloc);
    let flits = assert_undisturbed(
        &everyone,
        &before,
        &after,
        "glitch expiry disturbed service",
    );

    assert!(
        flits > 5_000,
        "only {flits} flits in {HORIZON_CYCLES} cycles"
    );
}

#[test]
fn router_failure_leaves_unaffected_grants_bit_identical() {
    // A whole mid-mesh router goes down — every adjacent link in one
    // sweep. Grants touching none of those links are bystanders.
    let spec = paper_workload(42);
    let mut alloc = allocate(&spec).expect("paper workload allocates");
    let router = RouterId::new(5);
    let adjacent: Vec<LinkId> = spec
        .topology()
        .links()
        .filter(|&l| {
            let link = spec.topology().link(l);
            let touches = |e: Endpoint| matches!(e, Endpoint::Router(r, _) if r == router);
            touches(link.from) || touches(link.to)
        })
        .collect();
    assert!(!adjacent.is_empty());

    let bystanders: Vec<ConnId> = alloc
        .grants()
        .filter(|g| !g.links.iter().any(|l| adjacent.contains(l)))
        .map(|g| g.conn)
        .collect();
    assert!(!bystanders.is_empty(), "some traffic avoids the router");
    let bystander_grants: Vec<_> = bystanders
        .iter()
        .map(|&c| alloc.grant(c).unwrap().clone())
        .collect();
    let before = run(&spec, &alloc);

    let mut engine = ChurnEngine::new(&spec);
    let report = fault(&mut engine, &spec, &mut alloc, FaultOp::RouterDown(router));
    assert!(report.affected > 0, "a mid-mesh router carries traffic");
    for g in alloc.grants() {
        assert!(
            !g.links.iter().any(|l| engine.mask().is_down(*l)),
            "{} granted over a down link",
            g.conn
        );
    }
    for g in &bystander_grants {
        assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
    }
    let during = run(&open_view(&spec, &alloc), &alloc);
    assert_undisturbed(
        &bystanders,
        &before,
        &during,
        "router recovery disturbed a bystander",
    );

    fault(&mut engine, &spec, &mut alloc, FaultOp::RouterUp(router));
    assert!(engine.mask().is_empty());
    for g in &bystander_grants {
        assert_eq!(
            alloc.grant(g.conn).unwrap(),
            g,
            "{} moved on repair",
            g.conn
        );
    }
    let after = run(&open_view(&spec, &alloc), &alloc);
    let flits = assert_undisturbed(
        &bystanders,
        &before,
        &after,
        "router repair disturbed a bystander",
    );

    assert!(
        flits > 1_000,
        "only {flits} flits in {HORIZON_CYCLES} cycles"
    );
}

// With a shard-boundary link down, the sharded engine must stay
// bit-identical — verdicts, slot tables, owners, counters — to one
// plain engine applying the same bursts serially in
// `sharded_canonical_order`. The mask only removes route candidates; it
// never perturbs the commit order. The same holds under spare-capacity
// steering: candidate *ordering* is part of the sharded engine's
// allocator and the serial reference's alike.
fn masked_sharded_matches_serial(steering: Steering) {
    let spec = scaled_workload(4, 4, 2, 60, 7);
    let cfg = ShardConfig {
        max_paths: 2,
        steering,
        ..ShardConfig::tiled(2, 2)
    };
    let topo = spec.topology();
    let (cols, rows) = topo.mesh_dims().unwrap();
    let tile = |r: RouterId| {
        let (x, y) = topo.coords(r).unwrap();
        (x * 2 / cols, y * 2 / rows)
    };
    // A router-router link crossing the quadrant boundary: the hardest
    // case, because cross-shard traffic admits over it in the cross
    // bucket.
    let boundary = topo
        .links()
        .find(|&l| {
            let link = topo.link(l);
            match (link.from, link.to) {
                (Endpoint::Router(a, _), Endpoint::Router(b, _)) => tile(a) != tile(b),
                _ => false,
            }
        })
        .expect("a 2x2-tiled 4x4 mesh has boundary links");
    let mut mask = FaultMask::new();
    mask.set_down(boundary);

    // The sharded run and the serial reference, both admitting under
    // the same mask.
    let mut engine = ShardedEngine::new(&spec, cfg);
    let mut sharded = Allocation::empty_for(&spec);
    engine.set_faults(&mask);
    let mut serial = ChurnEngine::with_allocator(
        &spec,
        Allocator {
            max_paths: cfg.max_paths,
            steering: cfg.steering,
            ..Allocator::new()
        },
    );
    serial.set_faults(&mask);
    let mut flat = Allocation::empty_for(&spec);

    // Burst 1: open everything. Burst 2: churn every 3rd connection.
    let all: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
    let opens: Vec<AdmissionRequest> = all.iter().map(|&c| AdmissionRequest::Open(c)).collect();
    let churn: Vec<AdmissionRequest> = all
        .iter()
        .filter(|c| c.index() % 3 == 1)
        .flat_map(|&c| [AdmissionRequest::Close(c), AdmissionRequest::Open(c)])
        .collect();

    let mut order = Vec::new();
    let mut verdicts = Vec::new();
    for requests in [&opens, &churn] {
        engine.submit_batch(&spec, &mut sharded, requests, &mut verdicts);

        sharded_canonical_order(&spec, engine.map(), requests, &mut order);
        assert_eq!(order.len(), requests.len());
        let mut reference = vec![None; requests.len()];
        for &i in &order {
            reference[i] = Some(serial.submit(&spec, &mut flat, requests[i].clone()));
        }
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(Some(v), reference[i].as_ref(), "verdict {i} diverged");
        }
    }

    // Identical end state, and no granted route — intra-shard or
    // cross-shard — traverses the down link.
    for li in 0..topo.link_count() {
        let link = LinkId::new(li as u32);
        let (ta, tb) = (flat.link_table(link), sharded.link_table(link));
        for s in 0..ta.size() {
            assert_eq!(ta.is_free(s), tb.is_free(s), "link {li} slot {s}");
            assert_eq!(ta.owner(s), tb.owner(s), "link {li} slot {s}");
        }
    }
    for &c in &all {
        assert_eq!(flat.grant(c), sharded.grant(c), "{c} grant");
    }
    assert_eq!(engine.stats(), *serial.stats(), "stats");
    for g in sharded.grants() {
        assert!(!g.links.contains(&boundary), "{} over the fault", g.conn);
    }
    assert!(
        flat.grants().count() > all.len() / 2,
        "the masked platform still admits most of the workload"
    );
}

#[test]
fn sharded_admission_under_fault_mask_matches_sharded_canonical_serial() {
    masked_sharded_matches_serial(Steering::ShortestFirst);
}

#[test]
fn steered_sharded_admission_under_fault_mask_matches_serial() {
    masked_sharded_matches_serial(Steering::SpareCapacity);
}
