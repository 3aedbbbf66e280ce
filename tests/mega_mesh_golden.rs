//! Mega-mesh golden pins, on the regional mega-profile workload at
//! 16×16/10k, 24×24/20k and 32×32/30k connections (the largest workload
//! the repo draws anywhere). At every size the workload must allocate
//! completely and contention-free, the lazy hashed [`RouteCache`]'s
//! memory must track the pairs actually routed, not the `ni_count²`
//! pair space, and the turbo kernel must deliver on every connection
//! with no flit later than the allocator's analytical bound. At 16×16 —
//! the largest size whose pair space the eager [`DenseRouteCache`] can
//! still afford — the two providers must also yield **bit-for-bit
//! identical grants**: the allocator's decisions derive solely from the
//! free-mask kernels and the candidate sequence, and both providers
//! enumerate the same candidates in the same order.

use aelite_alloc::allocate::{Allocation, Allocator};
use aelite_alloc::{DenseRouteCache, RouteCache, RouteProvider};
use aelite_noc::network::NetworkKind;
use aelite_noc::turbo::build_turbo;
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::WorkloadBuilder;
use std::collections::HashSet;

/// Simulated horizon of the delivery pin — long enough for the slowest
/// connection of the mega-profile to deliver at every size.
const TURBO_CYCLES: u64 = 2_000;

/// Draws the `n`×`n` regional workload (2×2-router tiles, seed 1),
/// allocates it through the lazy provider and checks everything that
/// must hold at every size.
fn pin_mega_mesh(n: u32, connections: u32) -> (SystemSpec, Allocation) {
    let spec = WorkloadBuilder::mesh(n, n, 4)
        .mega_traffic()
        .connections(connections)
        .tiles(n / 2, n / 2)
        .seed(1)
        .build();
    assert_eq!(spec.connections().len(), connections as usize);
    let ni_count = spec.topology().ni_count();
    assert_eq!(ni_count, (n * n * 4) as usize);

    let allocator = Allocator::new();
    let mut lazy = RouteCache::new(spec.topology(), allocator.max_paths);
    let alloc = allocator
        .allocate_with_cache(&spec, &mut lazy)
        .unwrap_or_else(|e| panic!("{n}x{n}/{connections} regional workload must allocate: {e}"));
    aelite_alloc::validate_allocation(&spec, &alloc)
        .expect("mega-mesh allocation is contention-free");

    // Regression for the old eager ni_count² allocation: the lazy
    // cache's resident entries are bounded by the distinct NI pairs the
    // workload can possibly route — a tiny fraction of the pair space.
    let pairs: HashSet<(usize, usize)> = spec
        .connections()
        .iter()
        .map(|c| (spec.ip_ni(c.src).index(), spec.ip_ni(c.dst).index()))
        .collect();
    assert!(
        lazy.resident_pairs() <= pairs.len(),
        "lazy cache holds {} entries for {} routed pairs",
        lazy.resident_pairs(),
        pairs.len()
    );
    let pair_space = ni_count * ni_count;
    assert!(
        lazy.resident_pairs() * 10 < pair_space,
        "lazy cache ({} entries) is not sparse in the {} pair space",
        lazy.resident_pairs(),
        pair_space
    );

    // The guarantee, measured: every connection delivers, and no flit
    // takes longer than the bound the allocation advertises.
    let mut net = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
    net.run_cycles(TURBO_CYCLES);
    for c in spec.connections() {
        let lat = net.latency(c.id);
        let bound = alloc.worst_case_latency_cycles(&spec, c.id);
        assert!(
            lat.flits > 0,
            "{} delivered nothing in {TURBO_CYCLES} cycles",
            c.id
        );
        assert!(
            lat.max_cycles <= bound,
            "{} measured {} cycles against an analytical bound of {bound}",
            c.id,
            lat.max_cycles
        );
    }
    (spec, alloc)
}

#[test]
fn grants_identical_under_lazy_and_dense_route_providers_at_16x16_10k() {
    let (spec, a_lazy) = pin_mega_mesh(16, 10_000);
    let allocator = Allocator::new();
    let mut dense = DenseRouteCache::new(spec.topology(), allocator.max_paths);
    let a_dense = allocator
        .allocate_with_cache(&spec, &mut dense)
        .expect("16x16/10k regional workload allocates (dense provider)");
    for c in spec.connections() {
        assert_eq!(
            a_lazy.grant(c.id).expect("granted"),
            a_dense.grant(c.id).expect("granted"),
            "grant of {} diverged between route providers",
            c.id
        );
    }
}

#[test]
fn mesh24x24_20k_allocates_sparsely_and_delivers_within_bounds() {
    pin_mega_mesh(24, 20_000);
}

#[test]
fn mesh32x32_30k_allocates_sparsely_and_delivers_within_bounds() {
    pin_mega_mesh(32, 30_000);
}
