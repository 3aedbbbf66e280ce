//! Seeded fault workloads: link/router failure and repair traces, and
//! their interleaving with connection churn.
//!
//! The paper's composable-service contract is hardest under *faults*: a
//! link goes down at run time, the connections routed over it must be
//! re-admitted elsewhere, and every bystander's contention-free service
//! must continue bit-for-bit. This module generates the fault side of
//! that scenario as data — deterministic, seeded event streams the
//! online recovery engine (`aelite_online::fault`) replays:
//!
//! * **link events** ([`FaultOp::LinkDown`] / [`FaultOp::LinkUp`]) fail
//!   and repair individual directed links; the down/up mix steers the
//!   number of failed links towards [`FaultParams::target_down`] of the
//!   topology, holding a long trace at a steady degradation level;
//! * **router events** ([`FaultOp::RouterDown`] / [`FaultOp::RouterUp`])
//!   fail a whole router: every link adjacent to it (router-router *and*
//!   NI links) goes down with it, and repair raises them together;
//! * **transient glitches** ([`FaultOp::LinkGlitch`]) are self-clearing:
//!   a currently-up link misbehaves for `duration_ns` and then recovers
//!   on its own, with no paired repair event in the trace. Whether a
//!   glitch displaces traffic is the *engine's* call (its persistence
//!   threshold), so glitches never enter the trace's down-set — a
//!   permanent [`FaultOp::LinkDown`] may land on a glitched link, which
//!   the engine treats as escalation;
//! * a [`FaultScenario`] merges a fault trace with a churn trace
//!   ([`crate::churn::churn_trace`]) into one time-ordered stream, so an
//!   engine services failures *as churn deltas* — the ROADMAP's
//!   link-failure-as-reconfiguration scenario.
//!
//! Traces are deterministic per seed and *stateful-consistent* over the
//! evolving down-set: a link never fails while failed or repairs while
//! up, a router never fails while failed, and while a router is down its
//! adjacent links stay down (individual repairs of them are not drawn)
//! until the router itself is repaired.

use crate::churn::{exponential_gap_ns, steer_towards, ChurnOp, ChurnTrace};
use crate::ids::{LinkId, RouterId};
use crate::topology::{Endpoint, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One fault or repair event against the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// One directed link fails (it is currently up).
    LinkDown(LinkId),
    /// One directed link is repaired (it is currently down, and not
    /// held down by a failed router).
    LinkUp(LinkId),
    /// A whole router fails: every adjacent link — router-router and NI
    /// links on either side — that is still up goes down with it.
    RouterDown(RouterId),
    /// A failed router is repaired: every adjacent link currently down
    /// comes back up with it.
    RouterUp(RouterId),
    /// One directed link (currently up) suffers a transient,
    /// self-clearing fault: it is unusable for `duration_ns` from the
    /// event's arrival, then recovers without a repair event.
    LinkGlitch {
        /// The glitched link.
        link: LinkId,
        /// How long the glitch lasts, in nanoseconds.
        duration_ns: u64,
    },
}

/// A timestamped fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Arrival time of the event, in nanoseconds from trace start
    /// (Poisson arrivals: exponential inter-arrival times).
    pub at_ns: u64,
    /// The fault or repair.
    pub op: FaultOp,
}

/// Parameters of a fault trace draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultParams {
    /// Number of events to draw (a router failure is one event).
    pub events: u32,
    /// Mean event arrival rate of the Poisson process, per second.
    pub rate_per_sec: f64,
    /// Steady-state fraction of links to hold down, in `(0, 1)`; the
    /// down/up mix steers towards it.
    pub target_down: f64,
    /// Probability that an event targets a whole router instead of a
    /// single link, in `[0, 1)`.
    pub router_weight: f64,
    /// Probability that an event is a transient [`FaultOp::LinkGlitch`]
    /// instead of a permanent fault/repair, in `[0, 1)`. Glitches are
    /// drawn on currently-up links and do not enter the down-set.
    pub glitch_weight: f64,
    /// Shortest glitch duration drawn, in nanoseconds (inclusive).
    pub glitch_min_ns: u64,
    /// Longest glitch duration drawn, in nanoseconds (inclusive).
    pub glitch_max_ns: u64,
}

impl FaultParams {
    /// A sparse degradation profile: hold ~4% of the links down, one
    /// router event per ~7 link events, arrivals at 20k events/s —
    /// faults orders of magnitude rarer than the 1M req/s churn regime
    /// they interleave with. One event in five is a transient glitch
    /// lasting 2–40 µs, straddling typical persistence thresholds so a
    /// replay exercises both the masked-only and the escalated paths.
    #[must_use]
    pub fn sparse(events: u32) -> Self {
        FaultParams {
            events,
            rate_per_sec: 2.0e4,
            target_down: 0.04,
            router_weight: 0.15,
            glitch_weight: 0.2,
            glitch_min_ns: 2_000,
            glitch_max_ns: 40_000,
        }
    }
}

impl Default for FaultParams {
    fn default() -> Self {
        FaultParams::sparse(100)
    }
}

/// A drawn fault workload: a stateful-consistent event stream starting
/// from *everything up*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultTrace {
    /// The events, in non-decreasing time order.
    pub events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// Number of events (a router failure counts once).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of failure events (link or router down).
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.op, FaultOp::LinkDown(_) | FaultOp::RouterDown(_)))
            .count() as u64
    }

    /// Number of repair events (link or router up).
    #[must_use]
    pub fn repairs(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.op, FaultOp::LinkUp(_) | FaultOp::RouterUp(_)))
            .count() as u64
    }

    /// Number of transient glitch events (self-clearing, no paired
    /// repair in the trace).
    #[must_use]
    pub fn glitches(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.op, FaultOp::LinkGlitch { .. }))
            .count() as u64
    }
}

/// One operation of a merged churn + fault scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOp {
    /// A connection churn request.
    Churn(ChurnOp),
    /// A fault or repair.
    Fault(FaultOp),
}

/// A timestamped scenario operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// Arrival time, in nanoseconds from scenario start.
    pub at_ns: u64,
    /// The operation.
    pub op: ScenarioOp,
}

/// A churn trace and a fault trace merged into one time-ordered stream:
/// the workload of a recovery engine, where failures arrive *between*
/// ordinary setup/teardown requests and are serviced by the same
/// admission machinery.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScenario {
    /// The events, in non-decreasing time order; at equal timestamps the
    /// churn event precedes the fault (the request was in flight first).
    pub events: Vec<ScenarioEvent>,
}

impl FaultScenario {
    /// Merges `churn` and `faults` by timestamp (stable two-pointer
    /// merge; ties resolve churn-first). Each input trace is already
    /// time-ordered, so the result is too, and each side's internal
    /// order — which is what its stateful consistency is defined over —
    /// is preserved.
    #[must_use]
    pub fn merge(churn: &ChurnTrace, faults: &FaultTrace) -> Self {
        let mut events = Vec::with_capacity(churn.len() + faults.len());
        let (mut i, mut j) = (0, 0);
        while i < churn.events.len() || j < faults.events.len() {
            let take_churn = match (churn.events.get(i), faults.events.get(j)) {
                (Some(c), Some(f)) => c.at_ns <= f.at_ns,
                (Some(_), None) => true,
                _ => false,
            };
            if take_churn {
                let e = &churn.events[i];
                events.push(ScenarioEvent {
                    at_ns: e.at_ns,
                    op: ScenarioOp::Churn(e.op.clone()),
                });
                i += 1;
            } else {
                let e = &faults.events[j];
                events.push(ScenarioEvent {
                    at_ns: e.at_ns,
                    op: ScenarioOp::Fault(e.op),
                });
                j += 1;
            }
        }
        FaultScenario { events }
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the scenario holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of fault-side events.
    #[must_use]
    pub fn fault_ops(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.op, ScenarioOp::Fault(_)))
            .count() as u64
    }
}

/// The evolving health state a trace draw is consistent against.
struct DownSet {
    /// Per-link down flag.
    link_down: Vec<bool>,
    /// Per-router down flag (set only by [`FaultOp::RouterDown`]).
    router_down: Vec<bool>,
    /// Number of links currently down.
    down_links: usize,
}

impl DownSet {
    fn all_up(topo: &Topology) -> Self {
        DownSet {
            link_down: vec![false; topo.link_count()],
            router_down: vec![false; topo.router_count()],
            down_links: 0,
        }
    }

    fn set_link(&mut self, l: LinkId, down: bool) {
        if self.link_down[l.index()] != down {
            self.link_down[l.index()] = down;
            if down {
                self.down_links += 1;
            } else {
                self.down_links -= 1;
            }
        }
    }
}

/// The router a link is adjacent to that is currently down, if any.
fn held_by_down_router(topo: &Topology, state: &DownSet, l: LinkId) -> bool {
    let link = topo.link(l);
    let down = |e: Endpoint| matches!(e, Endpoint::Router(r, _) if state.router_down[r.index()]);
    down(link.from) || down(link.to)
}

/// Draws a fault trace over the links and routers of `topo`.
/// Deterministic for a given `(params, seed)` pair; see the
/// [module docs](self) for the model.
///
/// # Panics
///
/// Panics if `params.events` is zero, `target_down` is outside `(0, 1)`,
/// `router_weight` is outside `[0, 1)`, `rate_per_sec` is not strictly
/// positive, or `topo` has no links.
#[must_use]
pub fn fault_trace(topo: &Topology, params: &FaultParams, seed: u64) -> FaultTrace {
    assert!(params.events > 0, "need at least one event");
    assert!(
        params.target_down > 0.0 && params.target_down < 1.0,
        "target_down must be in (0, 1)"
    );
    assert!(
        (0.0..1.0).contains(&params.router_weight),
        "router_weight must be in [0, 1)"
    );
    assert!(
        (0.0..1.0).contains(&params.glitch_weight),
        "glitch_weight must be in [0, 1)"
    );
    assert!(
        params.glitch_min_ns <= params.glitch_max_ns,
        "glitch duration range inverted"
    );
    assert!(params.rate_per_sec > 0.0, "rate must be positive");
    assert!(topo.link_count() > 0, "topology has no links to fail");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = DownSet::all_up(topo);
    let mut events = Vec::with_capacity(params.events as usize);
    let mean_gap_ns = 1.0e9 / params.rate_per_sec;
    let mut t_ns = 0.0f64;

    for _ in 0..params.events {
        t_ns += exponential_gap_ns(&mut rng, mean_gap_ns);

        // Steering towards the target degradation: the churn generator's
        // occupancy model.
        let down_frac = state.down_links as f64 / topo.link_count() as f64;
        let p_down = steer_towards(params.target_down, down_frac);
        let prefer_down = rng.gen::<f64>() < p_down;
        let router_event = rng.gen::<f64>() < params.router_weight;
        let glitch_event = rng.gen::<f64>() < params.glitch_weight;

        // A glitch targets a currently-up link and leaves the down-set
        // untouched (self-clearing); when every link is down, fall
        // through to the permanent draw (which repairs).
        let op = if glitch_event {
            draw_glitch(topo, &state, &mut rng, params)
        } else {
            None
        }
        .unwrap_or_else(|| draw_fault(topo, &mut state, &mut rng, prefer_down, router_event));
        events.push(FaultEvent {
            at_ns: t_ns as u64,
            op,
        });
    }
    FaultTrace { events }
}

/// A transient glitch on a currently-up link, with a duration drawn
/// uniformly from the params' range; `None` when no link is up.
fn draw_glitch(
    topo: &Topology,
    state: &DownSet,
    rng: &mut StdRng,
    params: &FaultParams,
) -> Option<FaultOp> {
    let cands: Vec<LinkId> = topo
        .links()
        .filter(|&l| !state.link_down[l.index()])
        .collect();
    if cands.is_empty() {
        return None;
    }
    let link = cands[rng.gen_range(0..cands.len())];
    let duration_ns = rng.gen_range(params.glitch_min_ns..=params.glitch_max_ns);
    Some(FaultOp::LinkGlitch { link, duration_ns })
}

/// One stateful-consistent fault op, falling back across kind and
/// direction when the preferred draw has no candidates (e.g. a repair
/// with nothing down). At least one direction always has candidates:
/// every link is either up (failable) or down.
fn draw_fault(
    topo: &Topology,
    state: &mut DownSet,
    rng: &mut StdRng,
    prefer_down: bool,
    router_event: bool,
) -> FaultOp {
    // Candidate routers: failures need a live router with a live link to
    // take with it; repairs need a previously failed router.
    let draw_router = |state: &DownSet, rng: &mut StdRng, down: bool| -> Option<RouterId> {
        let cands: Vec<RouterId> = topo
            .routers()
            .filter(|&r| {
                if down {
                    !state.router_down[r.index()]
                        && topo.router_links(r).any(|l| !state.link_down[l.index()])
                } else {
                    state.router_down[r.index()]
                }
            })
            .collect();
        (!cands.is_empty()).then(|| cands[rng.gen_range(0..cands.len())])
    };
    // Candidate links: failures draw from live links; repairs from down
    // links not held down by a failed router (the router repair raises
    // those).
    let draw_link = |state: &DownSet, rng: &mut StdRng, down: bool| -> Option<LinkId> {
        let cands: Vec<LinkId> = topo
            .links()
            .filter(|&l| {
                if down {
                    !state.link_down[l.index()]
                } else {
                    state.link_down[l.index()] && !held_by_down_router(topo, state, l)
                }
            })
            .collect();
        (!cands.is_empty()).then(|| cands[rng.gen_range(0..cands.len())])
    };

    let apply_router = |state: &mut DownSet, r: RouterId, down: bool| {
        state.router_down[r.index()] = down;
        for l in topo.router_links(r) {
            if state.link_down[l.index()] != down {
                state.set_link(l, down);
            }
        }
    };

    for &dir in &[prefer_down, !prefer_down] {
        if router_event {
            if let Some(r) = draw_router(state, rng, dir) {
                apply_router(state, r, dir);
                return if dir {
                    FaultOp::RouterDown(r)
                } else {
                    FaultOp::RouterUp(r)
                };
            }
        }
        if let Some(l) = draw_link(state, rng, dir) {
            state.set_link(l, dir);
            return if dir {
                FaultOp::LinkDown(l)
            } else {
                FaultOp::LinkUp(l)
            };
        }
    }
    // Both link directions empty is impossible: every link is either up
    // or down, and a down link held by a down router implies that
    // router is a RouterUp candidate tried above.
    unreachable!("no drawable fault op");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{churn_trace, ChurnParams};
    use crate::generate::paper_workload;

    fn trace_for(seed: u64, events: u32) -> (FaultTrace, Topology) {
        let topo = Topology::mesh(4, 4, 2);
        let params = FaultParams::sparse(events);
        (fault_trace(&topo, &params, seed), topo)
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let (a, _) = trace_for(3, 400);
        let (b, _) = trace_for(3, 400);
        assert_eq!(a, b);
        let (c, _) = trace_for(4, 400);
        assert_ne!(a, c);
    }

    #[test]
    fn trace_is_stateful_consistent() {
        // Replaying against a shadow down-set: no double failure, no
        // repair of a healthy link, router links move with the router.
        let (trace, topo) = trace_for(11, 1_000);
        let mut state = DownSet::all_up(&topo);
        let mut prev = 0u64;
        for e in &trace.events {
            assert!(e.at_ns >= prev, "time went backwards");
            prev = e.at_ns;
            match e.op {
                FaultOp::LinkDown(l) => {
                    assert!(!state.link_down[l.index()], "{l} failed twice");
                    state.set_link(l, true);
                }
                FaultOp::LinkUp(l) => {
                    assert!(state.link_down[l.index()], "{l} repaired while up");
                    assert!(
                        !held_by_down_router(&topo, &state, l),
                        "{l} repaired under a down router"
                    );
                    state.set_link(l, false);
                }
                FaultOp::RouterDown(r) => {
                    assert!(!state.router_down[r.index()], "{r} failed twice");
                    state.router_down[r.index()] = true;
                    for l in topo.router_links(r) {
                        state.set_link(l, true);
                    }
                }
                FaultOp::RouterUp(r) => {
                    assert!(state.router_down[r.index()], "{r} repaired while up");
                    state.router_down[r.index()] = false;
                    for l in topo.router_links(r) {
                        state.set_link(l, false);
                    }
                }
                FaultOp::LinkGlitch { link, duration_ns } => {
                    // Glitches hit only up links and never enter the
                    // down-set (self-clearing).
                    assert!(!state.link_down[link.index()], "{link} glitched while down");
                    assert!(
                        (2_000..=40_000).contains(&duration_ns),
                        "duration off-range"
                    );
                }
            }
        }
        assert!(trace.failures() > 0 && trace.repairs() > 0 && trace.glitches() > 0);
        assert_eq!(
            trace.failures() + trace.repairs() + trace.glitches(),
            trace.len() as u64
        );
    }

    #[test]
    fn permanent_only_draws_no_glitches() {
        let topo = Topology::mesh(4, 4, 2);
        let params = FaultParams {
            glitch_weight: 0.0,
            ..FaultParams::sparse(600)
        };
        let trace = fault_trace(&topo, &params, 11);
        assert_eq!(trace.glitches(), 0);
        assert_eq!(trace.failures() + trace.repairs(), trace.len() as u64);
    }

    #[test]
    fn degradation_settles_near_target() {
        let topo = Topology::mesh(6, 6, 1);
        let params = FaultParams {
            events: 4_000,
            ..FaultParams::sparse(4_000)
        };
        let trace = fault_trace(&topo, &params, 9);
        let mut state = DownSet::all_up(&topo);
        for e in &trace.events {
            match e.op {
                FaultOp::LinkDown(l) => state.set_link(l, true),
                FaultOp::LinkUp(l) => state.set_link(l, false),
                FaultOp::RouterDown(r) | FaultOp::RouterUp(r) => {
                    let down = matches!(e.op, FaultOp::RouterDown(_));
                    state.router_down[r.index()] = down;
                    for l in topo.router_links(r) {
                        state.set_link(l, down);
                    }
                }
                FaultOp::LinkGlitch { .. } => {}
            }
        }
        let frac = state.down_links as f64 / topo.link_count() as f64;
        // Router events are lumpy (one event can down 10+ links), so the
        // band around the 4% target is generous but bounded.
        assert!(frac < 0.25, "settled at {frac}");
    }

    #[test]
    fn scenario_merge_is_time_ordered_and_complete() {
        let spec = paper_workload(42);
        let churn = churn_trace(&spec, &ChurnParams::steady(500), 7);
        let faults = fault_trace(spec.topology(), &FaultParams::sparse(40), 7);
        let scenario = FaultScenario::merge(&churn, &faults);
        assert_eq!(scenario.len(), churn.len() + faults.len());
        assert_eq!(scenario.fault_ops(), faults.len() as u64);
        let mut prev = 0u64;
        for e in &scenario.events {
            assert!(e.at_ns >= prev);
            prev = e.at_ns;
        }
        // Each side's internal order is preserved.
        let churn_side: Vec<&ChurnOp> = scenario
            .events
            .iter()
            .filter_map(|e| match &e.op {
                ScenarioOp::Churn(op) => Some(op),
                ScenarioOp::Fault(_) => None,
            })
            .collect();
        assert!(churn_side
            .iter()
            .zip(&churn.events)
            .all(|(a, b)| **a == b.op));
        let fault_side: Vec<FaultOp> = scenario
            .events
            .iter()
            .filter_map(|e| match e.op {
                ScenarioOp::Fault(op) => Some(op),
                ScenarioOp::Churn(_) => None,
            })
            .collect();
        assert!(fault_side
            .iter()
            .zip(&faults.events)
            .all(|(a, b)| *a == b.op));
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_events_rejected() {
        let topo = Topology::mesh(2, 2, 1);
        let params = FaultParams {
            events: 0,
            ..FaultParams::default()
        };
        let _ = fault_trace(&topo, &params, 0);
    }
}
