//! The eager route oracle: what a route cache must serve for one NI pair
//! under a fault mask, derived from the eager enumerator
//! [`route_candidates`], which shares none of the cache's staging,
//! healthy-view or epoch logic. Included with `#[path]` by the tests
//! that use it.

use aelite_alloc::{route_candidates, FaultMask, Path, RouteCache, RouteProvider};
use aelite_spec::{LinkId, NiId, Topology};

/// One candidate route and the links it crosses.
pub type Route = (Path, Vec<LinkId>);

/// Every candidate the eager enumerator yields for `s → d`, in order,
/// each with its links.
pub fn eager_routes(topo: &Topology, s: NiId, d: NiId, max_paths: usize) -> Vec<Route> {
    route_candidates(topo, s, d, max_paths)
        .into_iter()
        .map(|p| {
            let links = p.links(topo).expect("an enumerated path is valid");
            (p, links)
        })
        .collect()
}

/// What a cache must answer from `eager` under `mask`: the candidates
/// the mask leaves healthy, in order (`candidate(i)` serves the i-th),
/// and `blocking_fault` — the first down link of the shortest candidate
/// iff candidates exist and the mask blocks them all.
pub fn under_mask<'a>(eager: &'a [Route], mask: &FaultMask) -> (Vec<&'a Route>, Option<LinkId>) {
    let healthy: Vec<&Route> = eager.iter().filter(|(_, l)| !mask.blocks(l)).collect();
    let blocking = match (eager.first(), healthy.is_empty()) {
        (Some((_, links)), true) => links.iter().copied().find(|&l| mask.is_down(l)),
        _ => None,
    };
    (healthy, blocking)
}

/// Asserts that `cache` serves `s → d` as the oracle answers from
/// `eager` under the cache's current mask: every healthy candidate in
/// order, nothing past them, and the same blocking fault. Returns how
/// many candidates the mask left healthy.
pub fn assert_serves(
    cache: &mut RouteCache,
    topo: &Topology,
    s: NiId,
    d: NiId,
    eager: &[Route],
) -> usize {
    let (healthy, blocking) = under_mask(eager, cache.faults());
    let mut i = 0;
    while let Some(route) = cache.candidate(topo, s, d, i) {
        assert_eq!(
            healthy.get(i).map(|(p, l)| (p, l)),
            Some((&route.path, &route.links)),
            "candidate {i} of {s}->{d}"
        );
        i += 1;
    }
    assert_eq!(i, healthy.len(), "{s}->{d} serves every healthy route");
    assert_eq!(cache.blocking_fault(topo, s, d), blocking, "{s}->{d}");
    healthy.len()
}
