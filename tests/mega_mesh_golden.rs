//! Mega-mesh golden pins, on the regional mega-profile workload at
//! 16×16/10k, 24×24/20k and 32×32/30k connections (the largest workload
//! the repo draws anywhere). At every size the workload must allocate
//! completely and contention-free, the lazy hashed [`RouteCache`]'s
//! memory must track the pairs actually routed, not the `ni_count²`
//! pair space, and the turbo kernel must deliver on every connection
//! with no flit later than the allocator's analytical bound. At 16×16
//! the cache the allocation left behind — most entries still at the
//! XY/YX stage — must also serve, for **every routed pair**, exactly the
//! candidate sequence of the eager route oracle
//! (`tests/common/route_oracle.rs`), with and without a fault mask: the
//! allocator's decisions derive solely from the free-mask kernels and
//! that sequence.

#[path = "common/route_oracle.rs"]
mod route_oracle;

use aelite_alloc::allocate::{Allocation, Allocator};
use aelite_alloc::{FaultMask, RouteCache, RouteProvider};
use aelite_noc::network::NetworkKind;
use aelite_noc::turbo::build_turbo;
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::WorkloadBuilder;
use route_oracle::{assert_serves, eager_routes};
use std::collections::{BTreeSet, HashSet};

/// Simulated horizon of the delivery pin — long enough for the slowest
/// connection of the mega-profile to deliver at every size.
const TURBO_CYCLES: u64 = 2_000;

/// Draws the `n`×`n` regional workload (2×2-router tiles, seed 1),
/// allocates it and checks everything that must hold at every size.
/// Returns the route cache as the allocation left it.
fn pin_mega_mesh(n: u32, connections: u32) -> (SystemSpec, Allocation, RouteCache) {
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
    (spec, alloc, lazy)
}

#[test]
fn route_cache_serves_the_eager_enumeration_for_every_routed_pair_at_16x16_10k() {
    let (spec, _, mut cache) = pin_mega_mesh(16, 10_000);
    let topo = spec.topology();
    let max_paths = Allocator::new().max_paths;
    let pairs: BTreeSet<_> = spec
        .connections()
        .iter()
        .map(|c| (spec.ip_ni(c.src), spec.ip_ni(c.dst)))
        .collect();
    assert_eq!(pairs.len(), 6_991);
    assert_eq!(cache.resident_pairs(), pairs.len());

    // Eight or nine links spread over the platform, as the benchmark's
    // `alloc.route_cache.set_faults` row draws them — and the same draw
    // shifted by half a step.
    let step = topo.link_count() / 8;
    let spread = |offset: usize| {
        let mut mask = FaultMask::new();
        for l in topo.links().skip(offset).step_by(step) {
            mask.set_down(l);
        }
        mask
    };

    // Under a mask first, so healthy views are built over entries the
    // allocation left partial and rebuilt when a walk completes them;
    // under a second mask, so every view is stale by epoch alone; then
    // with the mask lifted.
    let (mut filtered, mut severed) = (0, 0);
    for faults in &[spread(0), spread(step / 2), FaultMask::new()] {
        cache.set_faults(faults);
        for &(s, d) in &pairs {
            let eager = eager_routes(topo, s, d, max_paths);
            let healthy = assert_serves(&mut cache, topo, s, d, &eager);
            filtered += usize::from(healthy < eager.len());
            severed += usize::from(healthy == 0);
        }
    }
    assert!(
        filtered > severed,
        "the mask must thin some pairs without severing them"
    );
    assert_eq!(
        cache.resident_pairs(),
        pairs.len(),
        "walking evicts and adds nothing"
    );
}

#[test]
fn mesh24x24_20k_allocates_sparsely_and_delivers_within_bounds() {
    pin_mega_mesh(24, 20_000);
}

#[test]
fn mesh32x32_30k_allocates_sparsely_and_delivers_within_bounds() {
    pin_mega_mesh(32, 30_000);
}
