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
//! Beside the counts, [`REHOME_SKIPPED`] pins how many re-admissions
//! each replay's repairs saved by leaving still-severed connections
//! parked (`ChurnStats::rehome_skipped`).
//!
//! **Re-baselining** is one deliberate edit: on mismatch the test prints
//! the fresh `GOLDEN`, `STEERING_DELTAS` and `REHOME_SKIPPED` tables in
//! source form; paste them over the ones below and write the reason next
//! to them.
//!
//! A second pin, [`END_STATE_DIGEST`], folds the whole end state of the
//! same replays plus one 8×8 / 1 000-connection replay (every grant, the
//! displaced ledger in order, every engine counter) into one FNV-1a
//! digest, so a change meant to save work inside recovery can show that
//! it changed no decision.

mod common;

use aelite_alloc::{validate_allocation, Allocation, Steering};
use aelite_dse::fault::replay_fault_scenario;
use aelite_online::ChurnEngine;
use aelite_spec::generate::{TrafficProfile, WorkloadBuilder};
use aelite_spec::ids::ConnId;
use common::Digest;
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

/// `(profile, steering, rehome_skipped)`, in `GOLDEN`'s row order: the
/// parked connections repairs left parked untried because every witness
/// link was still down. Each is also in that row's `refused_link_down`.
#[rustfmt::skip]
const REHOME_SKIPPED: [(&str, &str, u64); 8] = [
    ("uniform", "shortest_first", 154),
    ("uniform", "spare_capacity", 154),
    ("hotspot4", "shortest_first", 138),
    ("hotspot4", "spare_capacity", 138),
    ("transpose", "shortest_first", 130),
    ("transpose", "spare_capacity", 130),
    ("bit_complement", "shortest_first", 159),
    ("bit_complement", "spare_capacity", 159),
];

/// One replay: its counts and its `rehome_skipped`, after checking the
/// end-state invariants.
fn replay(profile: TrafficProfile, steering: Steering, what: &str) -> ([u64; 15], u64) {
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
    let counts = [
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
    ];
    (counts, s.rehome_skipped)
}

#[test]
fn fault_recovery_counts_match_the_golden_table() {
    let mut fresh: Vec<Row> = Vec::new();
    let mut skipped: Vec<(&str, &str, u64)> = Vec::new();
    for (profile_name, profile) in PROFILES {
        for (steering_name, steering) in STEERINGS {
            let what = format!("{profile_name}/{steering_name}");
            let (counts, rehome_skipped) = replay(profile, steering, &what);
            fresh.push((profile_name, steering_name, counts));
            skipped.push((profile_name, steering_name, rehome_skipped));
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

    if fresh == GOLDEN && deltas == STEERING_DELTAS && skipped == REHOME_SKIPPED {
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
    for (got, want) in skipped.iter().zip(&REHOME_SKIPPED) {
        if got.2 != want.2 {
            writeln!(
                report,
                "  {}/{}: rehome_skipped is {}, pinned {}",
                got.0, got.1, got.2, want.2
            )
            .unwrap();
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
    report.push_str("];\n\nconst REHOME_SKIPPED: [(&str, &str, u64); 8] = [\n");
    for (profile, steering, count) in &skipped {
        writeln!(report, "    ({profile:?}, {steering:?}, {count}),").unwrap();
    }
    report.push_str("];\n");
    panic!("{report}");
}

/// The digest of [`end_state_digest`] over every replay it folds.
const END_STATE_DIGEST: u64 = 0xa70e_1413_17cc_72b6;

/// Folds `engine`'s and `alloc`'s end state into `d`: every grant
/// (connection, links, injection slots, each list length-prefixed, in
/// connection order), the displaced ledger in order, and every engine
/// counter in declaration order.
fn fold_end_state(d: &mut Digest, engine: &ChurnEngine, alloc: &Allocation) {
    let grants: Vec<_> = alloc.grants().collect();
    d.word(grants.len() as u64);
    for g in grants {
        d.word(g.conn.index() as u64);
        d.word(g.links.len() as u64);
        for l in &g.links {
            d.word(l.index() as u64);
        }
        d.word(g.inject_slots.len() as u64);
        for &s in &g.inject_slots {
            d.word(u64::from(s));
        }
    }
    d.word(engine.displaced().len() as u64);
    for c in engine.displaced() {
        d.word(c.index() as u64);
    }
    let s = engine.stats();
    for count in [
        s.setups,
        s.teardowns,
        s.switches,
        s.refused_opens,
        s.refused_closes,
        s.refused_switches,
        s.rolled_back_opens,
        s.refused_link_down,
        s.link_downs,
        s.link_ups,
        s.router_downs,
        s.router_ups,
        s.affected,
        s.make_before_break,
        s.break_then_make,
        s.dropped,
        s.restored,
        s.glitches,
        s.escalated,
        s.glitch_expiries,
    ] {
        d.word(count);
    }
}

/// The end state of every pinned replay, folded in order: the four
/// profiles above under both steering modes, then one 8×8 mesh with 4 NIs
/// per router and 1 000 uniform connections on 64-slot tables (seed 1,
/// 20 000 churn + 2 000 fault events, spare-capacity steering: the
/// benchmark's `fault_storm` scenario on seed 1).
fn end_state_digest() -> u64 {
    let mut d = Digest::new();
    for (_, profile) in PROFILES {
        let spec = WorkloadBuilder::mesh(8, 8, 2)
            .connections(200)
            .apps(6)
            .seed(SEED)
            .profile(profile)
            .build();
        for (_, steering) in STEERINGS {
            let (engine, alloc, _, _) =
                replay_fault_scenario(&spec, steering, CHURN_EVENTS, FAULT_EVENTS, SEED);
            fold_end_state(&mut d, &engine, &alloc);
        }
    }
    let spec = WorkloadBuilder::mesh(8, 8, 4)
        .connections(1000)
        .slot_table_size(64)
        .seed(1)
        .build();
    let (engine, alloc, _, _) =
        replay_fault_scenario(&spec, Steering::SpareCapacity, 20_000, 2_000, 1);
    fold_end_state(&mut d, &engine, &alloc);
    d.0
}

#[test]
fn fault_recovery_end_state_matches_its_digest() {
    let got = end_state_digest();
    assert_eq!(
        got, END_STATE_DIGEST,
        "fault-recovery end state moved: digest {got:#018x}"
    );
}
