//! Golden pin of fault recovery under both candidate-ordering modes.
//!
//! Replays one seeded merged churn + fault scenario (240 churn + 40 fault
//! events at 1e5 faults/s, seed 11) on an 8×8 mesh with 2 NIs per router
//! and 200 connections in 6 applications, over four traffic profiles —
//! uniform and the three adversarial patterns — under
//! [`Steering::ShortestFirst`] and [`Steering::SpareCapacity`], and pins
//! every count the replay produces. The replay is seeded end to end, so
//! the counts are the same on every machine: a mismatch means recovery
//! behaviour changed.
//!
//! **Re-baselining** is one deliberate edit: on mismatch the test prints
//! the fresh `GOLDEN` and `STEERING_DELTAS` tables in source form; paste
//! them over the ones below and write the reason next to them.

use aelite_alloc::{validate_allocation, Steering};
use aelite_dse::fault::replay_fault_scenario;
use aelite_spec::generate::{TrafficProfile, WorkloadBuilder};
use aelite_spec::ids::ConnId;
use std::fmt::Write as _;

const SEED: u64 = 11;
const CHURN_EVENTS: u32 = 240;
const FAULT_EVENTS: u32 = 40;

const PROFILES: [(&str, TrafficProfile); 4] = [
    ("uniform", TrafficProfile::Uniform),
    ("hotspot4", TrafficProfile::Hotspot { spots: 4 }),
    ("transpose", TrafficProfile::Transpose),
    ("bit_complement", TrafficProfile::BitComplement),
];

const STEERINGS: [(&str, Steering); 2] = [
    ("shortest_first", Steering::ShortestFirst),
    ("spare_capacity", Steering::SpareCapacity),
];

/// The pinned counts of one replay, in this order.
const COLUMNS: [&str; 15] = [
    "connections",
    "admitted",
    "scenario_events",
    "link_downs",
    "link_ups",
    "router_downs",
    "router_ups",
    "glitches",
    "escalated",
    "glitch_expiries",
    "affected",
    "survived",
    "dropped",
    "restored",
    "refused_link_down",
];

/// `(profile, steering, counts in COLUMNS order)`, profiles outermost.
type Row = (&'static str, &'static str, [u64; 15]);

#[rustfmt::skip]
const GOLDEN: [Row; 8] = [
    ("uniform", "shortest_first", [200, 200, 280, 16, 10, 2, 0, 12, 10, 12, 116, 81, 35, 16, 200]),
    ("uniform", "spare_capacity", [200, 200, 280, 16, 10, 2, 0, 12, 10, 12, 108, 73, 35, 16, 200]),
    ("hotspot4", "shortest_first", [200, 200, 280, 16, 10, 2, 0, 12, 10, 12, 102, 70, 32, 21, 174]),
    ("hotspot4", "spare_capacity", [200, 200, 280, 16, 10, 2, 0, 12, 10, 12, 101, 69, 32, 21, 174]),
    ("transpose", "shortest_first", [200, 200, 280, 16, 10, 2, 0, 12, 10, 12, 88, 57, 31, 15, 167]),
    ("transpose", "spare_capacity", [200, 200, 280, 16, 10, 2, 0, 12, 10, 12, 86, 55, 31, 15, 167]),
    ("bit_complement", "shortest_first", [200, 200, 280, 16, 10, 2, 0, 12, 10, 12, 128, 97, 31, 15, 199]),
    ("bit_complement", "spare_capacity", [200, 200, 280, 16, 10, 2, 0, 12, 10, 12, 121, 90, 31, 15, 199]),
];

/// `(profile, affected delta, dropped delta)` of spare-capacity steering
/// against shortest-first: it displaces fewer grants on every profile
/// and drops no more.
#[rustfmt::skip]
const STEERING_DELTAS: [(&str, i64, i64); 4] = [
    ("uniform", -8, 0),
    ("hotspot4", -1, 0),
    ("transpose", -2, 0),
    ("bit_complement", -7, 0),
];

/// One replay: its counts, after checking the end-state invariants.
fn replay(profile: TrafficProfile, steering: Steering, what: &str) -> [u64; 15] {
    let spec = WorkloadBuilder::mesh(8, 8, 2)
        .connections(200)
        .apps(6)
        .seed(SEED)
        .profile(profile)
        .build();
    let (engine, alloc, admitted, events) =
        replay_fault_scenario(&spec, steering, CHURN_EVENTS, FAULT_EVENTS, SEED);

    // Grants may ride out sub-threshold glitches, so the invariant is
    // over the *enforced* mask; after the final advance the admission
    // mask has converged to it.
    for g in alloc.grants() {
        for &l in &g.links {
            assert!(
                !engine.enforced().is_down(l),
                "{what}: {} granted over down link {l}",
                g.conn
            );
        }
    }
    assert_eq!(
        engine.mask().down_count(),
        engine.enforced().down_count(),
        "{what}: glitches remain masked after the final advance"
    );
    let open: Vec<ConnId> = alloc.grants().map(|g| g.conn).collect();
    validate_allocation(&spec.restricted_to_connections(&open), &alloc)
        .unwrap_or_else(|v| panic!("{what}: invalid end state: {v:?}"));

    let s = engine.stats();
    assert_eq!(
        s.survived() + s.dropped,
        s.affected,
        "{what}: recovery accounting does not close"
    );
    [
        spec.connections().len() as u64,
        u64::from(admitted),
        u64::from(events),
        s.link_downs,
        s.link_ups,
        s.router_downs,
        s.router_ups,
        s.glitches,
        s.escalated,
        s.glitch_expiries,
        s.affected,
        s.survived(),
        s.dropped,
        s.restored,
        s.refused_link_down,
    ]
}

#[test]
fn fault_recovery_counts_match_the_golden_table() {
    let mut fresh: Vec<Row> = Vec::new();
    for (profile_name, profile) in PROFILES {
        for (steering_name, steering) in STEERINGS {
            let what = format!("{profile_name}/{steering_name}");
            fresh.push((
                profile_name,
                steering_name,
                replay(profile, steering, &what),
            ));
        }
    }
    let col = |name: &str| COLUMNS.iter().position(|c| *c == name).unwrap();
    let (affected, dropped) = (col("affected"), col("dropped"));
    let deltas: Vec<(&str, i64, i64)> = fresh
        .chunks_exact(2)
        .map(|pair| {
            let (base, steered) = (&pair[0].2, &pair[1].2);
            let delta = |col: usize| steered[col] as i64 - base[col] as i64;
            (pair[0].0, delta(affected), delta(dropped))
        })
        .collect();

    if fresh == GOLDEN && deltas == STEERING_DELTAS {
        return;
    }
    let mut report = String::from("fault recovery moved off its golden counts:\n");
    for (got, want) in fresh.iter().zip(&GOLDEN) {
        for (col, name) in COLUMNS.iter().enumerate() {
            if got.2[col] != want.2[col] {
                writeln!(
                    report,
                    "  {}/{}: {name} is {}, pinned {}",
                    got.0, got.1, got.2[col], want.2[col]
                )
                .unwrap();
            }
        }
    }
    report.push_str("\nfresh tables, if the change is deliberate:\n\nconst GOLDEN: [Row; 8] = [\n");
    for (profile, steering, counts) in &fresh {
        writeln!(report, "    ({profile:?}, {steering:?}, {counts:?}),").unwrap();
    }
    report.push_str("];\n\nconst STEERING_DELTAS: [(&str, i64, i64); 4] = [\n");
    for (profile, affected, dropped) in &deltas {
        writeln!(report, "    ({profile:?}, {affected}, {dropped}),").unwrap();
    }
    report.push_str("];\n");
    panic!("{report}");
}
