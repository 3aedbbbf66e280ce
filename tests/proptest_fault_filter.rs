//! Pins for the "faults filter, they never evict" fault path.
//!
//! * A **warm** route cache driven through an arbitrary sequence of
//!   fault masks answers every lookup with what the eager route oracle
//!   (`tests/common/route_oracle.rs`) yields under the mask current at
//!   that lookup, across stale healthy views and detour stages
//!   materialised under a mask, and then walks every pair's whole
//!   sequence as the oracle does.
//! * `Allocator::admit_in_round`, which stops the phase-salt loop after a
//!   pass no salt could change, is verdict-, grant- and table-identical to
//!   trying the four salts one at a time, over `admit_contended`-shaped
//!   churn (8×8 mesh, 32 slots, hotspot traffic, 95 % occupancy).

#[path = "common/route_oracle.rs"]
mod route_oracle;

use aelite_alloc::{
    AllocError, AllocScratch, Allocation, Allocator, FaultMask, RouteCache, RouteProvider, Steering,
};
use aelite_spec::{
    churn_trace, ChurnOp, ChurnParams, ConnId, LinkId, NiId, SystemSpec, Topology, TrafficProfile,
    WorkloadBuilder, WorkloadParams,
};
use proptest::prelude::*;
use route_oracle::{assert_serves, eager_routes, under_mask, Route};

const MAX_PATHS: usize = 12;

/// A few pairs on a 3×3 mesh (2 NIs per router) so a script revisits
/// them under changing masks: diagonal (XY ≠ YX, detours), same row,
/// same router, same NI.
const PAIRS: [(u32, u32); 6] = [(0, 17), (1, 16), (4, 13), (0, 4), (6, 7), (9, 9)];

/// What one lookup answered, by value.
#[derive(Debug, PartialEq)]
enum Answer {
    Candidate(Option<Route>),
    Blocking(Option<LinkId>),
}

fn lookup(
    cache: &mut RouteCache,
    topo: &Topology,
    (s, d): (NiId, NiId),
    index: Option<usize>,
) -> Answer {
    match index {
        Some(i) => Answer::Candidate(
            cache
                .candidate(topo, s, d, i)
                .map(|r| (r.path.clone(), r.links.clone())),
        ),
        None => Answer::Blocking(cache.blocking_fault(topo, s, d)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // "Cold" is the eager enumerator: what a cache with no history
    // must answer, computed without a cache.
    #[test]
    fn warm_provider_answers_as_a_cold_one_under_the_current_mask(
        script in proptest::collection::vec((0u8..10, 0u16..4096, 0u8..14), 1..60),
    ) {
        let topo = Topology::mesh(3, 3, 2);
        let links = topo.link_count() as u32;
        let mut mask = FaultMask::new();
        let mut cache = RouteCache::new(&topo, MAX_PATHS);
        let mut resident = 0;
        for &(kind, pick, index) in &script {
            let (s, d) = PAIRS[pick as usize % PAIRS.len()];
            let pair = (NiId::new(s), NiId::new(d));
            match kind {
                // Toggle a link — an endpoint's NI link one time in
                // three, so whole pairs get severed — and install.
                0..=2 => {
                    let link = if pick % 3 == 0 {
                        topo.ni_ingress_link(pair.0)
                    } else {
                        LinkId::new(u32::from(pick) % links)
                    };
                    if !mask.set_up(link) {
                        mask.set_down(link);
                    }
                    cache.set_faults(&mask);
                }
                // Repair everything.
                3 => {
                    mask = FaultMask::new();
                    cache.set_faults(&mask);
                }
                // Look up: candidate(i) mostly, blocking_fault sometimes.
                _ => {
                    let index = (kind < 9).then_some(index as usize);
                    let eager = eager_routes(&topo, pair.0, pair.1, MAX_PATHS);
                    let (healthy, blocking) = under_mask(&eager, &mask);
                    let expected = match index {
                        Some(i) => Answer::Candidate(healthy.get(i).map(|&r| r.clone())),
                        None => Answer::Blocking(blocking),
                    };
                    prop_assert_eq!(lookup(&mut cache, &topo, pair, index), expected);
                }
            }
            prop_assert_eq!(cache.faults(), &mask);
            prop_assert!(cache.resident_pairs() >= resident, "an entry was evicted");
            resident = cache.resident_pairs();
        }
        // Then every pair, walked to its end, serves the oracle's whole
        // sequence under the last mask.
        for (s, d) in PAIRS.map(|(s, d)| (NiId::new(s), NiId::new(d))) {
            assert_serves(&mut cache, &topo, s, d, &eager_routes(&topo, s, d, MAX_PATHS));
        }
    }
}

/// `admit_contended`'s platform (see `benchmark/src/workloads.rs`).
fn contended_spec(seed: u64) -> SystemSpec {
    WorkloadBuilder::mesh(8, 8, 4)
        .connections(2000)
        .slot_table_size(32)
        .seed(seed)
        .bandwidth_mb(20, 200)
        .ni_load_cap(0.95)
        .profile(TrafficProfile::Hotspot { spots: 4 })
        .build()
}

/// The same table size and load on a 4×4 mesh with the paper's tight
/// deadlines (35–500 ns against a 192 ns table revolution), where the
/// slot phase decides whether a deadline is met.
fn tight_deadline_spec(seed: u64) -> SystemSpec {
    WorkloadBuilder::mesh(4, 4, 4)
        .params(WorkloadParams {
            connections: 500,
            bw_min_mb: 20,
            bw_max_mb: 200,
            ni_load_cap: 0.95,
            ..WorkloadParams::paper()
        })
        .ips(64)
        .slot_table_size(32)
        .seed(seed)
        .build()
}

/// The default salts, one allocator's worth each.
const SINGLE_SALTS: [&[u32]; 4] = [&[13], &[7], &[29], &[47]];

/// The reference: every salt in turn through a single-salt allocator,
/// last error wins — the loop `admit_in_round` ran before it learned to
/// stop. Returns the verdict and the index of the admitting salt.
fn admit_salt_by_salt(
    allocator: &Allocator,
    spec: &SystemSpec,
    alloc: &mut Allocation,
    conn: ConnId,
    routes: &mut RouteCache,
    scratch: &mut AllocScratch,
) -> (Result<(), AllocError>, usize) {
    let mut last = None;
    for (i, salts) in SINGLE_SALTS.into_iter().enumerate() {
        let single = Allocator {
            phase_salts: salts,
            ..*allocator
        };
        let round = single.begin_round(spec, alloc, routes);
        match single.admit_in_round(&round, spec, alloc, conn, routes, scratch) {
            Ok(()) => return (Ok(()), i),
            Err(e) => last = Some(e),
        }
    }
    (Err(last.expect("four salts tried")), SINGLE_SALTS.len())
}

fn assert_same_state(spec: &SystemSpec, a: &Allocation, b: &Allocation, at: usize) {
    assert!(a.grants().eq(b.grants()), "grants diverged at event {at}");
    for l in spec.topology().links() {
        assert_eq!(
            a.link_table(l),
            b.link_table(l),
            "table of {l} at event {at}"
        );
    }
}

/// Replays a contended churn stream over `spec` (opens, closes and
/// use-case switches steering towards 95 % of the pool open; the second
/// half under a fault mask) through `admit_in_round` and the salt-by-salt
/// reference side by side. Returns how many admissions needed a salt
/// after the first, and how many requests were refused.
fn replay_twin(allocator: &Allocator, spec: &SystemSpec, seed: u64) -> (u32, u32) {
    assert_eq!(allocator.phase_salts, Allocator::new().phase_salts);
    let params = ChurnParams {
        target_open: 0.95,
        switch_weight: 0.005,
        ..ChurnParams::steady(2500)
    };
    let trace = churn_trace(spec, &params, seed);
    let (mut alloc_a, mut alloc_b) = (Allocation::empty_for(spec), Allocation::empty_for(spec));
    let mut routes_a = RouteCache::new(spec.topology(), allocator.max_paths);
    let mut routes_b = RouteCache::new(spec.topology(), allocator.max_paths);
    let (mut scratch_a, mut scratch_b) = (AllocScratch::new(), AllocScratch::new());
    // Eight or nine links spread over the platform, as the benchmark's
    // `alloc.route_cache.set_faults` row draws them.
    let mut mask = FaultMask::new();
    let link_count = spec.topology().link_count();
    for l in spec.topology().links().step_by(link_count / 8) {
        mask.set_down(l);
    }
    let (mut later_salt, mut refused) = (0, 0);
    let mut opens = Vec::new();
    for (at, event) in trace.events.iter().enumerate() {
        if at == trace.events.len() / 2 {
            routes_a.set_faults(&mask);
            routes_b.set_faults(&mask);
        }
        opens.clear();
        match &event.op {
            ChurnOp::Open(c) => opens.push(*c),
            ChurnOp::Close(c) => {
                assert_eq!(alloc_a.take_grant(*c), alloc_b.take_grant(*c));
            }
            ChurnOp::Switch { close, open } => {
                for c in close {
                    assert_eq!(alloc_a.take_grant(*c), alloc_b.take_grant(*c));
                }
                opens.extend_from_slice(open);
            }
        }
        for &c in &opens {
            if alloc_a.grant(c).is_some() {
                continue;
            }
            let round = allocator.begin_round(spec, &mut alloc_a, &routes_a);
            let got = allocator.admit_in_round(
                &round,
                spec,
                &mut alloc_a,
                c,
                &mut routes_a,
                &mut scratch_a,
            );
            let (want, salt) = admit_salt_by_salt(
                allocator,
                spec,
                &mut alloc_b,
                c,
                &mut routes_b,
                &mut scratch_b,
            );
            assert_eq!(got, want, "verdict for {c} at event {at}");
            assert_eq!(
                alloc_a.grant(c),
                alloc_b.grant(c),
                "grant of {c} at event {at}"
            );
            later_salt += u32::from(want.is_ok() && salt > 0);
            refused += u32::from(want.is_err());
        }
        if at % 256 == 0 {
            assert_same_state(spec, &alloc_a, &alloc_b, at);
        }
    }
    assert_same_state(spec, &alloc_a, &alloc_b, trace.events.len());
    (later_salt, refused)
}

#[test]
fn admit_in_round_matches_the_salt_by_salt_reference_on_contended_churn() {
    let contended = contended_spec(3);
    let tight = tight_deadline_spec(3);
    for steering in [Steering::ShortestFirst, Steering::SpareCapacity] {
        // The benchmark's shape under the default allocator. Its
        // deadlines all exceed a table revolution plus the longest
        // pipeline, so a candidate that reaches the phase-staggered
        // spread always commits: no refusal here depends on the salt.
        let allocator = Allocator {
            steering,
            ..Allocator::new()
        };
        let (later_salt, refused) = replay_twin(&allocator, &contended, 3);
        assert!(refused > 0, "{steering:?}: the stream is not contended");
        assert_eq!(later_salt, 0, "{steering:?}");

        // Tight deadlines: with the latency-aware cover the refusals are
        // gap-cover and zero-gap failures (still salt-independent);
        // without it every candidate goes through the spread, and some
        // phases meet a deadline that others miss — a salt loop that
        // always stopped after one pass would diverge from the reference.
        for latency_aware in [true, false] {
            let allocator = Allocator {
                latency_aware,
                ..allocator
            };
            let (later_salt, refused) = replay_twin(&allocator, &tight, 3);
            assert!(refused > 0, "{allocator:?}: nothing refused");
            assert_eq!(
                later_salt > 0,
                !latency_aware,
                "{allocator:?}: {later_salt} admissions on a later salt"
            );
        }
    }
}
