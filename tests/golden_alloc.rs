//! Golden grants: the bitset/route-cache allocator's grants on a fixed,
//! seeded set of workloads, pinned as one FNV-1a digest per spec.
//!
//! Each digest folds every grant's connection id, path ports, injection
//! slots and link ids, in connection order, so a change that moves one
//! port, slot or link of one grant changes it. The constants are the
//! pre-optimization seed allocator's grants: they were recorded while it
//! still existed, checked against it grant for grant, and outlive it.
//! They are the contract that makes the hot-path rewrite a pure
//! performance change: every kernel (rotate-and-AND candidate masks,
//! nearest-bit spread selection, single-start gap cover, lazy route
//! materialization) replicates the seed's decisions exactly, including
//! tie-breaking.
//!
//! One more digest pins what the guarantees read off those grants: every
//! per-flit latency bound and destination-buffer size.

mod common;

use aelite_alloc::allocate::required_buffer_words;
use aelite_alloc::route_candidates;
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::{paper_workload, scaled_workload, TrafficProfile, WorkloadBuilder};
use aelite_spec::topology::Topology;
use common::Digest;

/// Allocates `spec`, checks that every connection is granted, and
/// digests the grants.
fn grant_digest(spec: &SystemSpec) -> u64 {
    let alloc = aelite_alloc::allocate(spec).expect("allocator succeeds");
    let mut d = Digest::new();
    for c in spec.connections() {
        let g = alloc
            .grant(c.id)
            .unwrap_or_else(|| panic!("{} is not granted", c.id));
        d.word(g.conn.index() as u64);
        d.word(g.path.ports.len() as u64);
        g.path.ports.iter().for_each(|p| d.word(u64::from(p.0)));
        d.word(g.inject_slots.len() as u64);
        g.inject_slots.iter().for_each(|&s| d.word(u64::from(s)));
        d.word(g.links.len() as u64);
        g.links.iter().for_each(|l| d.word(l.index() as u64));
    }
    d.0
}

#[test]
fn grants_match_seed_allocator_on_paper_workloads() {
    let got: Vec<u64> = (0..10).map(|s| grant_digest(&paper_workload(s))).collect();
    assert_eq!(
        got,
        [
            0xa4fa_1f8b_6fe0_f92a,
            0x3965_48bf_91d5_b3d3,
            0x123e_5b64_e8dd_ed69,
            0x9e09_3f26_d5a2_b9b8,
            0xb09e_0cf9_62bd_f9d2,
            0x3414_ad44_8cf3_f598,
            0x8a2d_de58_274a_eee0,
            0x4d4e_db3b_4f57_2b35,
            0xe2bd_d399_851f_04b0,
            0x44ab_c4d8_ba0e_b07c,
        ],
        "grant digests moved: {got:#x?}"
    );
}

#[test]
fn grants_match_seed_allocator_on_scaled_mesh() {
    // Two 4×4 platforms keep the equivalence honest beyond the paper's
    // 4×3 mesh (different table pressure and path diversity). Hotspot
    // traffic at 80% NI load puts two grants on DFS detours (routes
    // longer than minimal); the paper and scaled specs hold one in 2 300.
    let hotspot = WorkloadBuilder::mesh(4, 4, 4)
        .connections(300)
        .ni_load_cap(0.8)
        .profile(TrafficProfile::Hotspot { spots: 4 })
        .seed(3)
        .build();
    let got = [
        grant_digest(&scaled_workload(4, 4, 4, 300, 7)),
        grant_digest(&hotspot),
    ];
    assert_eq!(
        got,
        [0xe54b_ee34_e419_5957, 0xe94a_3544_cd87_8aad],
        "grant digests moved: {got:#x?}"
    );
}

#[test]
fn grants_match_seed_allocator_on_8x8_mesh() {
    // 1 000 grants through up to 14 routers, 85 of them longer than the
    // 8 hops a 32-bit header carries, so a route filter on header
    // capacity must move this digest: its own test makes that move one
    // line.
    let spec = WorkloadBuilder::mesh(8, 8, 4)
        .connections(1000)
        .seed(1)
        .build();
    let got = grant_digest(&spec);
    assert_eq!(got, 0x9c5a_1c81_a3fe_0cb6, "grant digest moved: {got:#x}");
}

/// Digests the route candidates (up to 12) of every ordered NI pair of
/// `topo`: each candidate's length and output ports. The constants were
/// recorded while the seed allocator's own enumeration still existed and
/// matched this one on every pair.
fn route_digest(topo: &Topology) -> u64 {
    let mut d = Digest::new();
    for s in topo.nis() {
        for t in topo.nis() {
            let candidates = route_candidates(topo, s, t, 12);
            d.word(candidates.len() as u64);
            for p in &candidates {
                d.word(p.ports.len() as u64);
                p.ports.iter().for_each(|q| d.word(u64::from(q.0)));
            }
        }
    }
    d.0
}

#[test]
fn route_candidates_match_seed_enumeration() {
    // The paper's 4×3 mesh (576 pairs) and a 4×4 mesh with four NIs per
    // router (4 096 pairs); most pairs of both have detour candidates.
    let got = [
        route_digest(&Topology::mesh(4, 3, 2)),
        route_digest(&Topology::mesh(4, 4, 4)),
    ];
    assert_eq!(
        got,
        [0xb2e7_0fc5_152f_39a5, 0x6f32_f556_594d_e425],
        "route digests moved: {got:#x?}"
    );
}

#[test]
fn optimized_allocation_still_validates() {
    for seed in [0, 5, 9] {
        let spec = paper_workload(seed);
        let alloc = aelite_alloc::allocate(&spec).unwrap();
        aelite_alloc::validate_allocation(&spec, &alloc)
            .expect("optimized allocation passes the independent checker");
    }
}

/// Folds every granted connection's per-flit latency bound and its
/// destination-buffer size, at credit-return delays of 6, 24 and 600
/// cycles, into one digest: the two readings of a slot set that every
/// guarantee rests on.
fn bound_digest(spec: &SystemSpec) -> u64 {
    let alloc = aelite_alloc::allocate(spec).expect("allocator succeeds");
    let mut d = Digest::new();
    for c in spec.connections() {
        assert!(alloc.grant(c.id).is_some(), "{} is not granted", c.id);
        d.word(alloc.worst_case_latency_cycles(spec, c.id));
        for credit_return in [6, 24, 600] {
            d.word(u64::from(required_buffer_words(
                spec,
                &alloc,
                c.id,
                credit_return,
            )));
        }
    }
    d.0
}

#[test]
fn latency_bounds_and_buffer_sizes_are_pinned() {
    // Paper seeds 0–2 and the benchmark's 8×8 draw.
    let mesh8 = WorkloadBuilder::mesh(8, 8, 4)
        .slot_table_size(64)
        .seed(1)
        .connections(1_000)
        .build();
    let mut d = Digest::new();
    for seed in 0..=2 {
        d.word(bound_digest(&paper_workload(seed)));
    }
    d.word(bound_digest(&mesh8));
    assert_eq!(d.0, 0x94c7_d0d6_ec7f_449c, "bound digest moved: {:#x}", d.0);
}
