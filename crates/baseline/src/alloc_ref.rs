//! The pre-optimization ("seed") TDM allocator, kept verbatim as a
//! baseline.
//!
//! `aelite-alloc` rewrote the allocation hot path around word-level
//! bitset slot tables, memoized routes and allocation-free selection
//! kernels. This module preserves the implementation it replaced —
//! per-slot `Vec<Option<ConnId>>` probing, clone-per-expansion path DFS,
//! quadratic slot-selection kernels — with **identical decisions**, for
//! one purpose: golden equivalence testing. The optimized allocator must
//! produce bit-for-bit identical grants (`tests/golden_alloc.rs`
//! compares them across paper-workload seeds).
//!
//! Every algorithmic helper (`estimate_slots`, `pipeline_cycles`,
//! `dimension_ordered`, `gaps`, the kernels, the route enumeration) is
//! **copied** here rather than imported, so future changes to
//! `aelite-alloc` cannot silently move this baseline. Only the data
//! types under comparison ([`Path`], [`Grant`]) are shared.
//!
//! Nothing here should be used in production flows; use
//! [`aelite_alloc::allocate()`] instead.

use aelite_alloc::allocate::Grant;
use aelite_alloc::path::Path;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::{ConnId, NiId, Port, RouterId};
use aelite_spec::topology::{PortTarget, Topology};
use std::collections::VecDeque;

/// A complete allocation produced by the seed algorithm: one grant per
/// connection (indexed by connection id).
#[derive(Debug, Clone)]
pub struct SeedAllocation {
    /// `grants[conn.index()]` is the grant of `conn`.
    pub grants: Vec<Option<Grant>>,
}

/// Why the seed allocator failed (mirrors `aelite_alloc::AllocError`
/// shapes, collapsed to a message — the golden tests only exercise
/// feasible workloads).
pub type SeedError = String;

/// Allocates every connection of `spec` with the seed algorithm and the
/// seed defaults (12 candidate paths, latency-aware, phase salts
/// `[13, 7, 29, 47]`).
///
/// # Errors
///
/// Returns a message describing the first unallocatable connection.
pub fn allocate_seed(spec: &SystemSpec) -> Result<SeedAllocation, SeedError> {
    let salts: &[u32] = &[13, 7, 29, 47];
    let mut last_err = None;
    for &salt in salts {
        let mut promoted: Vec<ConnId> = Vec::new();
        loop {
            match allocate_pass(spec, salt, &promoted) {
                Ok(a) => return Ok(a),
                Err((conn, no_route, msg)) => {
                    let give_up = no_route || promoted.contains(&conn) || promoted.len() >= 8;
                    last_err = Some(msg);
                    if give_up {
                        break;
                    }
                    promoted.insert(0, conn);
                }
            }
        }
    }
    Err(last_err.expect("at least one pass attempted"))
}

type PassError = (ConnId, bool, String);

fn allocate_pass(
    spec: &SystemSpec,
    salt: u32,
    promoted: &[ConnId],
) -> Result<SeedAllocation, PassError> {
    let size = spec.config().slot_table_size;
    let mut tables: Vec<Vec<Option<ConnId>>> =
        vec![vec![None; size as usize]; spec.topology().link_count()];
    let mut grants: Vec<Option<Grant>> = vec![None; spec.conn_id_bound()];

    let mut order: Vec<ConnId> = spec
        .connections()
        .iter()
        .map(|c| c.id)
        .filter(|id| !promoted.contains(id))
        .collect();
    order.sort_by_key(|&id| {
        let c = spec.connection(id);
        let est = estimate_slots(spec, id);
        (core::cmp::Reverse(est), c.max_latency_ns, id)
    });

    for &conn in promoted.iter().chain(order.iter()) {
        allocate_one(spec, &mut tables, &mut grants, conn, salt)?;
    }
    Ok(SeedAllocation { grants })
}

#[allow(clippy::too_many_lines)]
fn allocate_one(
    spec: &SystemSpec,
    tables: &mut [Vec<Option<ConnId>>],
    grants: &mut [Option<Grant>],
    conn: ConnId,
    salt: u32,
) -> Result<(), PassError> {
    let cfg = spec.config();
    let c = spec.connection(conn);
    let src_ni = spec.ip_ni(c.src);
    let dst_ni = spec.ip_ni(c.dst);
    let needed = cfg.slots_for(c.bandwidth).max(1);
    let size = cfg.slot_table_size;
    let m = 1;

    let candidates = route_candidates(spec.topology(), src_ni, dst_ni, 12);
    if candidates.is_empty() {
        return Err((conn, true, format!("no route for {conn}")));
    }

    let mut best_available = 0u32;
    let mut best_latency_cycles = u64::MAX;
    let latency_budget_cycles = (c.max_latency_ns as f64 / cfg.cycle_ns()).floor() as u64;

    for path in candidates {
        let links = path
            .links(spec.topology())
            .expect("route_candidates returns valid paths");
        // Injection slots whose shifted positions are free on every link.
        let shift = cfg.slots_per_hop();
        let is_free = |t: &[Option<ConnId>], slot: u32| t[(slot as usize) % t.len()].is_none();
        let free: Vec<u32> = (0..size)
            .filter(|&s| {
                links
                    .iter()
                    .enumerate()
                    .all(|(i, &l)| is_free(&tables[l.index()], s + i as u32 * shift))
            })
            .collect();
        best_available = best_available.max(free.len() as u32);
        if (free.len() as u32) < needed {
            continue;
        }

        let pipeline = pipeline_cycles(cfg, path.link_count());
        let latency_of = |slots: &[u32]| {
            u64::from(worst_window(slots, size, m)) * u64::from(cfg.slot_cycles()) + pipeline
        };

        let wait_cycles = latency_budget_cycles.saturating_sub(pipeline);
        let allowed_gap = (wait_cycles / u64::from(cfg.slot_cycles())) as u32;
        if allowed_gap == 0 {
            best_latency_cycles = best_latency_cycles.min(latency_of(&free));
            continue;
        }

        let mut chosen = if allowed_gap < size {
            match cover_with_gap(&free, allowed_gap, size) {
                Some(cover) => cover,
                None => {
                    best_latency_cycles = best_latency_cycles.min(latency_of(&free));
                    continue;
                }
            }
        } else {
            let phase = (conn.index() as u32).wrapping_mul(salt) % size;
            spread_selection(&free, needed, size, phase)
        };

        while (chosen.len() as u32) < needed {
            match best_gap_filler(&chosen, &free, size) {
                Some(extra) => {
                    chosen.push(extra);
                    chosen.sort_unstable();
                }
                None => break,
            }
        }
        if (chosen.len() as u32) < needed {
            continue;
        }

        let achieved = latency_of(&chosen);
        best_latency_cycles = best_latency_cycles.min(achieved);
        if achieved > latency_budget_cycles {
            continue;
        }

        // Commit.
        for &s in &chosen {
            for (i, &l) in links.iter().enumerate() {
                let t = &mut tables[l.index()];
                let idx = ((s + i as u32 * shift) as usize) % t.len();
                assert!(t[idx].is_none(), "slot was checked free");
                t[idx] = Some(conn);
            }
        }
        grants[conn.index()] = Some(Grant {
            conn,
            path,
            inject_slots: chosen,
            links,
        });
        return Ok(());
    }

    if best_available < needed {
        Err((
            conn,
            false,
            format!("{conn} needs {needed} slots but at most {best_available} are free"),
        ))
    } else {
        let best_ns = (best_latency_cycles as f64 * cfg.cycle_ns()).ceil() as u64;
        Err((
            conn,
            false,
            format!(
                "{conn} requires {} ns but the best achievable bound is {best_ns} ns",
                c.max_latency_ns
            ),
        ))
    }
}

/// The seed slot estimate (hardest-first ordering key): the larger of the
/// bandwidth minimum and the count the per-flit deadline forces over the
/// shortest route.
fn estimate_slots(spec: &SystemSpec, conn: ConnId) -> u32 {
    let cfg = spec.config();
    let c = spec.connection(conn);
    let topo = spec.topology();
    let (src_ni, dst_ni) = (spec.ip_ni(c.src), spec.ip_ni(c.dst));
    let (ra, rb) = (topo.ni_router(src_ni), topo.ni_router(dst_ni));
    let hops = match (topo.coords(ra), topo.coords(rb)) {
        (Some((xa, ya)), Some((xb, yb))) => xa.abs_diff(xb) + ya.abs_diff(yb),
        _ => u32::from(ra != rb),
    };
    let pipeline = pipeline_cycles(cfg, hops as usize + 2);
    let budget = (c.max_latency_ns as f64 / cfg.cycle_ns()).floor() as u64;
    let wait = budget.saturating_sub(pipeline);
    let gap = (wait / u64::from(cfg.slot_cycles())).max(1) as u32;
    let lat_slots = cfg.slot_table_size.div_ceil(gap);
    cfg.slots_for(c.bandwidth).max(lat_slots).max(1)
}

/// The seed pipeline-delay model: one slot of `flit_words` cycles per
/// link (including its pipeline stages).
fn pipeline_cycles(cfg: &aelite_spec::NocConfig, n_links: usize) -> u64 {
    n_links as u64 * u64::from(cfg.slots_per_hop()) * u64::from(cfg.flit_words)
}

/// The seed circular-gap computation (allocating form).
fn gaps(slots: &[u32], size: u32) -> Vec<u32> {
    if slots.is_empty() {
        return Vec::new();
    }
    for w in slots.windows(2) {
        assert!(w[0] < w[1], "slots must be strictly ascending");
    }
    assert!(*slots.last().unwrap() < size, "slot out of table range");
    if slots.len() == 1 {
        return vec![size];
    }
    let mut out = Vec::with_capacity(slots.len());
    for w in slots.windows(2) {
        out.push(w[1] - w[0]);
    }
    out.push(size - slots.last().unwrap() + slots[0]);
    out
}

/// The seed route-slack bound (2 extra router hops of path diversity).
const ROUTE_SLACK_HOPS: u32 = 2;

/// The seed dimension-ordered (XY / YX) route construction.
fn dimension_ordered(topo: &Topology, src: NiId, dst: NiId, x_first: bool) -> Option<Path> {
    let (mut x, mut y) = topo.coords(topo.ni_router(src))?;
    let (tx, ty) = topo.coords(topo.ni_router(dst))?;
    let mut ports = Vec::new();
    let mut router = topo.ni_router(src);
    let step = |router: &mut RouterId, nx: u32, ny: u32, ports: &mut Vec<Port>| -> Option<()> {
        let next = topo.router_at(nx, ny)?;
        let port = topo.port_towards(*router, PortTarget::Router(next))?;
        ports.push(port);
        *router = next;
        Some(())
    };
    let walk_x =
        |x: &mut u32, y: u32, router: &mut RouterId, ports: &mut Vec<Port>| -> Option<()> {
            while *x != tx {
                let nx = if *x < tx { *x + 1 } else { *x - 1 };
                step(router, nx, y, ports)?;
                *x = nx;
            }
            Some(())
        };
    let walk_y =
        |x: u32, y: &mut u32, router: &mut RouterId, ports: &mut Vec<Port>| -> Option<()> {
            while *y != ty {
                let ny = if *y < ty { *y + 1 } else { *y - 1 };
                step(router, x, ny, ports)?;
                *y = ny;
            }
            Some(())
        };
    if x_first {
        walk_x(&mut x, y, &mut router, &mut ports)?;
        walk_y(x, &mut y, &mut router, &mut ports)?;
    } else {
        walk_y(x, &mut y, &mut router, &mut ports)?;
        walk_x(&mut x, y, &mut router, &mut ports)?;
    }
    let last = topo.port_towards(router, PortTarget::Ni(dst))?;
    ports.push(last);
    Some(Path { src, dst, ports })
}

/// The seed `worst_window`: explicit gap-list summation, O(n × m).
fn worst_window(slots: &[u32], size: u32, m: u32) -> u32 {
    assert!(m > 0 && !slots.is_empty());
    let g = gaps(slots, size);
    let n = g.len();
    let m = m as usize;
    let full_revs = (m / n) as u32;
    let rem = m % n;
    let mut worst = 0;
    if rem == 0 {
        return full_revs * size;
    }
    for start in 0..n {
        let mut acc = 0;
        for k in 0..rem {
            acc += g[(start + k) % n];
        }
        worst = worst.max(acc);
    }
    full_revs * size + worst
}

/// The seed spread kernel: linear free-list scan with `chosen.contains`
/// per candidate, O(needed² × free).
fn spread_selection(free: &[u32], needed: u32, size: u32, phase: u32) -> Vec<u32> {
    let mut chosen: Vec<u32> = Vec::with_capacity(needed as usize);
    for i in 0..needed {
        let ideal = (phase + (u64::from(i) * u64::from(size) / u64::from(needed)) as u32) % size;
        let pick = free
            .iter()
            .copied()
            .filter(|s| !chosen.contains(s))
            .min_by_key(|&s| {
                let d = s.abs_diff(ideal);
                d.min(size - d)
            });
        if let Some(s) = pick {
            chosen.push(s);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// The seed cover kernel: greedy restarted from every free slot, O(free²).
fn cover_with_gap(free: &[u32], gap: u32, size: u32) -> Option<Vec<u32>> {
    if free.is_empty() || gap == 0 {
        return None;
    }
    let fwd = |a: u32, b: u32| (b + size - a - 1) % size + 1;
    'starts: for &start in free {
        let mut chosen = vec![start];
        let mut cur = start;
        loop {
            if fwd(cur, start) <= gap {
                chosen.sort_unstable();
                return Some(chosen);
            }
            let next = free
                .iter()
                .copied()
                .filter(|&f| f != cur && fwd(cur, f) <= gap)
                .max_by_key(|&f| fwd(cur, f));
            match next {
                Some(f) => {
                    chosen.push(f);
                    cur = f;
                }
                None => continue 'starts,
            }
        }
    }
    None
}

/// The seed gap filler: gap-list allocation plus `chosen.contains` scans.
fn best_gap_filler(chosen: &[u32], free: &[u32], size: u32) -> Option<u32> {
    let g = gaps(chosen, size);
    if g.is_empty() {
        return free.iter().copied().find(|s| !chosen.contains(s));
    }
    let (start_idx, _) = g
        .iter()
        .enumerate()
        .max_by_key(|&(_, &gap)| gap)
        .expect("gaps non-empty");
    let gap_start = chosen[start_idx];
    let gap_len = g[start_idx];
    let target = (gap_start + gap_len / 2) % size;
    free.iter()
        .copied()
        .filter(|s| !chosen.contains(s))
        .min_by_key(|&s| {
            let d = s.abs_diff(target);
            d.min(size - d)
        })
}

/// The seed route enumeration: XY/YX plus an explicit-stack DFS that
/// clones its port list and visited set on every expansion.
fn route_candidates(topo: &Topology, src: NiId, dst: NiId, max: usize) -> Vec<Path> {
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
        return out;
    }
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
    out
}

fn bounded_paths(topo: &Topology, src: NiId, dst: NiId, slack: u32, cap: usize) -> Vec<Path> {
    let start = topo.ni_router(src);
    let goal = topo.ni_router(dst);

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

    let mut results = Vec::new();
    let mut stack: Vec<(RouterId, Vec<Port>, Vec<bool>)> = {
        let mut visited = vec![false; topo.router_count()];
        visited[start.index()] = true;
        vec![(start, Vec::new(), visited)]
    };
    while let Some((r, ports, visited)) = stack.pop() {
        if results.len() >= cap {
            break;
        }
        if r == goal {
            let mut full = ports.clone();
            if let Some(last) = topo.port_towards(r, PortTarget::Ni(dst)) {
                full.push(last);
                results.push(Path {
                    src,
                    dst,
                    ports: full,
                });
            }
            continue;
        }
        for (port, target) in topo.ports(r) {
            if let PortTarget::Router(n) = target {
                let hops_if_taken = ports.len() as u32 + 1;
                if !visited[n.index()] && hops_if_taken + dist[n.index()] <= limit {
                    let mut next = ports.clone();
                    next.push(port);
                    let mut v = visited.clone();
                    v[n.index()] = true;
                    stack.push((n, next, v));
                }
            }
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_spec::generate::paper_workload;

    #[test]
    fn seed_allocator_allocates_paper_workload() {
        let spec = paper_workload(42);
        let alloc = allocate_seed(&spec).expect("paper workload allocates");
        let granted = alloc.grants.iter().filter(|g| g.is_some()).count();
        assert_eq!(granted, 200);
    }

    #[test]
    fn seed_route_enumeration_matches_current() {
        let topo = Topology::mesh(4, 3, 2);
        for (s, d) in [(0u32, 21u32), (3, 4), (0, 23), (7, 7)] {
            let (s, d) = (NiId::new(s), NiId::new(d));
            assert_eq!(
                route_candidates(&topo, s, d, 12),
                aelite_alloc::route_candidates(&topo, s, d, 12),
                "{s}->{d}"
            );
        }
    }
}
