//! Route search over source-route paths.
//!
//! [`Path`], [`PathError`] and the dimension-ordered route are defined
//! once in [`aelite_spec::path`] and re-exported here.
//! [`route_candidates`] enumerates minimal-hop paths for the allocator:
//! dimension-ordered XY and YX routes first (cheap, deadlock-free on
//! meshes and — irrelevantly but pleasantly — contention-friendly), then
//! all remaining shortest paths discovered by BFS, capped to keep
//! allocation time bounded.

use aelite_spec::ids::{NiId, Port, RouterId};
pub use aelite_spec::path::{dimension_ordered, Path, PathError};
use aelite_spec::topology::{PortTarget, Topology};
use std::collections::VecDeque;

/// Router-hop slack allowed beyond the minimum when enumerating route
/// candidates: each extra hop costs one flit cycle of pipeline latency but
/// buys path diversity, which the allocator needs when the minimal routes
/// are fragmented (straight-line mesh pairs have only one shortest path).
pub const ROUTE_SLACK_HOPS: u32 = 2;

/// Enumerates up to `max` distinct paths from `src` to `dst`, shortest
/// first: XY and YX (when the topology is a mesh), then every other simple
/// path within [`ROUTE_SLACK_HOPS`] extra router hops of the minimum,
/// ordered by length.
///
/// Always returns at least one path when the NIs are connected.
#[must_use]
pub fn route_candidates(topo: &Topology, src: NiId, dst: NiId, max: usize) -> Vec<Path> {
    let (mut out, complete) = initial_candidates(topo, src, dst, max);
    if !complete {
        detour_candidates(topo, src, dst, max, &mut out);
    }
    out
}

/// The cheap first stage of [`route_candidates`]: the dimension-ordered
/// XY and YX routes (deduplicated). Returns the prefix of the candidate
/// list and whether it is already complete (`max` reached), letting the
/// route cache defer the expensive DFS stage until a caller actually
/// exhausts these candidates.
pub(crate) fn initial_candidates(
    topo: &Topology,
    src: NiId,
    dst: NiId,
    max: usize,
) -> (Vec<Path>, bool) {
    let mut out: Vec<Path> = Vec::new();
    for x_first in [true, false] {
        if let Some(p) = dimension_ordered(topo, src, dst, x_first) {
            if !out.contains(&p) {
                out.push(p);
            }
        }
    }
    if out.len() >= max {
        out.truncate(max);
        (out, true)
    } else {
        (out, false)
    }
}

/// The second stage of [`route_candidates`]: appends every other simple
/// path within [`ROUTE_SLACK_HOPS`] of the minimum (ordered by length,
/// deduplicated against `out`) until `max` candidates are collected.
pub(crate) fn detour_candidates(
    topo: &Topology,
    src: NiId,
    dst: NiId,
    max: usize,
    out: &mut Vec<Path>,
) {
    let mut extra = bounded_paths(topo, src, dst, ROUTE_SLACK_HOPS, max.saturating_mul(4));
    extra.sort_by_key(Path::router_count);
    for p in extra {
        if out.len() >= max {
            break;
        }
        if !out.contains(&p) {
            out.push(p);
        }
    }
}

/// All simple router-level paths between two NIs whose router-hop count is
/// within `slack` of the minimum, up to `cap` results.
fn bounded_paths(topo: &Topology, src: NiId, dst: NiId, slack: u32, cap: usize) -> Vec<Path> {
    let start = topo.ni_router(src);
    let goal = topo.ni_router(dst);

    // BFS distances from the goal router.
    let mut dist = vec![u32::MAX; topo.router_count()];
    dist[goal.index()] = 0;
    let mut q = VecDeque::from([goal]);
    while let Some(r) = q.pop_front() {
        for (_, target) in topo.ports(r) {
            if let PortTarget::Router(n) = target {
                if dist[n.index()] == u32::MAX {
                    dist[n.index()] = dist[r.index()] + 1;
                    q.push_back(n);
                }
            }
        }
    }
    if dist[start.index()] == u32::MAX {
        return Vec::new();
    }
    let limit = dist[start.index()] + slack;

    // Depth-first search with a hop budget; `visited` keeps paths simple.
    // Backtracking shares one `visited` vector and one `ports` prefix
    // across the whole walk, so nothing is allocated per expansion — only
    // per emitted result. Children are explored in reverse port order,
    // which is exactly the order the previous explicit-stack (LIFO)
    // implementation popped them in, preserving result order bit-for-bit.
    let mut results = Vec::new();
    let mut visited = vec![false; topo.router_count()];
    visited[start.index()] = true;
    let mut ports: Vec<Port> = Vec::new();
    dfs_bounded(
        topo,
        DfsGoal { src, dst, goal },
        start,
        &dist,
        limit,
        cap,
        &mut visited,
        &mut ports,
        &mut results,
    );
    results
}

/// The fixed parameters of one [`bounded_paths`] search.
#[derive(Clone, Copy)]
struct DfsGoal {
    src: NiId,
    dst: NiId,
    goal: RouterId,
}

#[allow(clippy::too_many_arguments)]
fn dfs_bounded(
    topo: &Topology,
    g: DfsGoal,
    r: RouterId,
    dist: &[u32],
    limit: u32,
    cap: usize,
    visited: &mut [bool],
    ports: &mut Vec<Port>,
    results: &mut Vec<Path>,
) {
    if results.len() >= cap {
        return;
    }
    if r == g.goal {
        if let Some(last) = topo.port_towards(r, PortTarget::Ni(g.dst)) {
            let mut full = ports.clone();
            full.push(last);
            results.push(Path {
                src: g.src,
                dst: g.dst,
                ports: full,
            });
        }
        return;
    }
    // Buffer the router's ports so they can be walked in reverse without
    // allocating (router arity is small and bounded).
    let mut buf = [(Port(0), RouterId::new(0)); MAX_ROUTER_ARITY];
    let mut n = 0;
    for (port, target) in topo.ports(r) {
        if let PortTarget::Router(next) = target {
            assert!(n < MAX_ROUTER_ARITY, "router arity exceeds DFS buffer");
            buf[n] = (port, next);
            n += 1;
        }
    }
    let hops_if_taken = ports.len() as u32 + 1;
    for &(port, next) in buf[..n].iter().rev() {
        if !visited[next.index()] && hops_if_taken + dist[next.index()] <= limit {
            visited[next.index()] = true;
            ports.push(port);
            dfs_bounded(topo, g, next, dist, limit, cap, visited, ports, results);
            ports.pop();
            visited[next.index()] = false;
        }
    }
}

/// Upper bound on router arity assumed by the path search's stack buffer
/// (the paper evaluates arities 2–7; 32 leaves generous headroom).
const MAX_ROUTER_ARITY: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Topology {
        Topology::mesh(4, 3, 4)
    }

    fn ni_at(topo: &Topology, x: u32, y: u32, i: usize) -> NiId {
        let r = topo.router_at(x, y).unwrap();
        topo.router_nis(r).nth(i).unwrap()
    }

    #[test]
    fn xy_path_has_manhattan_length() {
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 3, 2, 0);
        let p = dimension_ordered(&t, a, b, true).unwrap();
        // 3 x-hops + 2 y-hops + final NI port = 6 ports; 6 routers visited.
        assert_eq!(p.router_count(), 6);
        assert_eq!(p.link_count(), 7);
        p.links(&t).unwrap();
    }

    #[test]
    fn xy_and_yx_differ_for_diagonal_pairs() {
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 2, 2, 0);
        let xy = dimension_ordered(&t, a, b, true).unwrap();
        let yx = dimension_ordered(&t, a, b, false).unwrap();
        assert_ne!(xy, yx);
        assert_eq!(xy.router_count(), yx.router_count());
    }

    #[test]
    fn same_router_pair_uses_single_hop() {
        let t = mesh();
        let a = ni_at(&t, 1, 1, 0);
        let b = ni_at(&t, 1, 1, 2);
        let p = dimension_ordered(&t, a, b, true).unwrap();
        assert_eq!(p.router_count(), 1);
        let links = p.links(&t).unwrap();
        assert_eq!(links.len(), 2); // NI in, NI out
    }

    #[test]
    fn path_links_shift_one_per_hop() {
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 1, 0, 0);
        let p = dimension_ordered(&t, a, b, true).unwrap();
        let links = p.links(&t).unwrap();
        assert_eq!(links[0], t.ni_ingress_link(a));
        assert_eq!(*links.last().unwrap(), t.ni_egress_link(b));
    }

    #[test]
    fn routers_lists_visited_routers() {
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 2, 0, 0);
        let p = dimension_ordered(&t, a, b, true).unwrap();
        let routers = p.routers(&t).unwrap();
        assert_eq!(
            routers,
            vec![
                t.router_at(0, 0).unwrap(),
                t.router_at(1, 0).unwrap(),
                t.router_at(2, 0).unwrap()
            ]
        );
    }

    #[test]
    fn candidates_are_distinct_valid_and_shortest_first() {
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 2, 1, 0);
        let cands = route_candidates(&t, a, b, 8);
        assert!(cands.len() >= 2, "expected XY and YX at least");
        let min = cands.iter().map(Path::router_count).min().unwrap();
        // XY/YX come first and are minimal; lengths never decrease after.
        assert_eq!(cands[0].router_count(), min);
        for w in cands.windows(2) {
            assert!(w[0].router_count() <= w[1].router_count());
        }
        for (i, p) in cands.iter().enumerate() {
            assert!(p.router_count() <= min + ROUTE_SLACK_HOPS as usize);
            p.links(&t).unwrap();
            for (j, q) in cands.iter().enumerate() {
                if i != j {
                    assert_ne!(p, q);
                }
            }
        }
    }

    #[test]
    fn candidate_count_matches_lattice_paths() {
        // Between (0,0) and (2,1) there are C(3,1)=3 shortest router walks;
        // with detour slack there are more, but exactly 3 minimal ones.
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 2, 1, 0);
        let cands = route_candidates(&t, a, b, 64);
        let min = cands.iter().map(Path::router_count).min().unwrap();
        let minimal = cands.iter().filter(|p| p.router_count() == min).count();
        assert_eq!(minimal, 3);
        assert!(cands.len() > 3, "detour paths expected");
    }

    #[test]
    fn straight_line_pairs_get_detour_candidates() {
        // (0,0) -> (3,0): a single shortest path, but detours exist.
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 3, 0, 0);
        let cands = route_candidates(&t, a, b, 12);
        assert!(cands.len() >= 4, "got only {} candidates", cands.len());
        let min = cands[0].router_count();
        assert!(cands.iter().filter(|p| p.router_count() == min).count() == 1);
    }

    #[test]
    fn invalid_paths_are_rejected() {
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 1, 0, 0);
        // Empty path.
        let p = Path {
            src: a,
            dst: b,
            ports: vec![],
        };
        assert_eq!(p.links(&t), Err(PathError::Empty));
        // Path that stops at a router.
        let good = dimension_ordered(&t, a, b, true).unwrap();
        let mut short = good.clone();
        short.ports.pop();
        assert!(matches!(
            short.links(&t),
            Err(PathError::EndsAtRouter { .. })
        ));
        // Path to the wrong NI.
        let c = ni_at(&t, 1, 0, 1);
        let mut wrong = good.clone();
        wrong.dst = c;
        assert!(matches!(
            wrong.links(&t),
            Err(PathError::WrongDestination { .. })
        ));
        // Port out of range.
        let mut bogus = good;
        bogus.ports[0] = Port(99);
        assert!(matches!(bogus.links(&t), Err(PathError::NoSuchPort { .. })));
    }

    #[test]
    fn enters_ni_midway_is_detected() {
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 1, 0, 0);
        // First hop straight into a local NI, then more ports.
        let local = ni_at(&t, 0, 0, 1);
        let r0 = t.router_at(0, 0).unwrap();
        let port_to_local = t.port_towards(r0, PortTarget::Ni(local)).unwrap();
        let p = Path {
            src: a,
            dst: b,
            ports: vec![port_to_local, Port(0)],
        };
        assert!(matches!(p.links(&t), Err(PathError::EntersNiMidway { .. })));
    }

    #[test]
    fn display_shows_route() {
        let t = mesh();
        let a = ni_at(&t, 0, 0, 0);
        let b = ni_at(&t, 1, 0, 0);
        let p = dimension_ordered(&t, a, b, true).unwrap();
        let s = p.to_string();
        assert!(s.starts_with(&a.to_string()), "{s}");
        assert!(s.ends_with(&b.to_string()), "{s}");
    }

    #[test]
    fn path_error_display() {
        let e = PathError::WrongDestination {
            expected: NiId::new(1),
            actual: NiId::new(2),
        };
        assert!(e.to_string().contains("NI1"));
        assert!(e.to_string().contains("NI2"));
    }
}
