//! Seeded connection-churn workloads: streaming open/close/use-case-switch
//! traces for the online reconfiguration engine.
//!
//! The aelite service model is built on *runtime* connection setup and
//! teardown over contention-free TDM slot tables: applications come and
//! go, and a use-case switch tears one application down and brings
//! another up while every persisting connection keeps its slots
//! untouched. This module generates the workloads that exercise that
//! regime at scale:
//!
//! * connection arrivals/departures form a **Poisson process** — event
//!   inter-arrival times are exponentially distributed around
//!   [`ChurnParams::rate_per_sec`] — the classic open model for
//!   independent session traffic;
//! * the open/close mix steers the number of live connections towards
//!   [`ChurnParams::target_open`] of the drawn pool, so a long trace
//!   holds the platform at a realistic steady-state occupancy instead of
//!   draining or saturating it;
//! * with probability [`ChurnParams::switch_weight`] an event is a
//!   **use-case switch** ([`ChurnOp::Switch`]): every open connection of
//!   one application closes and every closed connection of another opens,
//!   applied as one delta — the paper's undisturbed-reconfiguration
//!   scenario.
//!
//! Traces are deterministic per seed and *stateful-consistent*: an op
//! never opens a connection the trace already holds open, and never
//! closes one it holds closed, so an engine replaying the trace from an
//! empty allocation sees a well-formed request stream (admission
//! *rejections* are the engine's business, and are safe: a rejected open
//! leaves the connection closed on both sides).

use crate::app::SystemSpec;
use crate::ids::{AppId, ConnId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One churn request against a live allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnOp {
    /// Set up one connection (it currently holds no grant).
    Open(ConnId),
    /// Tear down one connection (it currently holds a grant).
    Close(ConnId),
    /// A use-case switch: tear down `close` and set up `open` as one
    /// delta. Connections in neither set are untouched — the paper's
    /// undisturbed-service model.
    Switch {
        /// Connections leaving the use case (all currently open).
        close: Vec<ConnId>,
        /// Connections entering the use case (all currently closed).
        open: Vec<ConnId>,
    },
}

impl ChurnOp {
    /// Individual connection setups this op requests.
    #[must_use]
    pub fn setups(&self) -> u64 {
        match self {
            ChurnOp::Open(_) => 1,
            ChurnOp::Close(_) => 0,
            ChurnOp::Switch { open, .. } => open.len() as u64,
        }
    }

    /// Individual connection teardowns this op requests.
    #[must_use]
    pub fn teardowns(&self) -> u64 {
        match self {
            ChurnOp::Open(_) => 0,
            ChurnOp::Close(_) => 1,
            ChurnOp::Switch { close, .. } => close.len() as u64,
        }
    }
}

/// A timestamped churn request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Arrival time of the request, in nanoseconds from trace start
    /// (Poisson arrivals: exponential inter-arrival times).
    pub at_ns: u64,
    /// The request.
    pub op: ChurnOp,
}

/// Parameters of a churn trace draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnParams {
    /// Number of events to draw (a switch is one event).
    pub events: u32,
    /// Mean request arrival rate of the Poisson process, per second.
    pub rate_per_sec: f64,
    /// Steady-state fraction of the connection pool to hold open, in
    /// `(0, 1]`; the open/close mix steers towards it.
    pub target_open: f64,
    /// Probability that an event is a use-case switch instead of a
    /// single open/close, in `[0, 1)`.
    pub switch_weight: f64,
}

impl ChurnParams {
    /// A steady-state churn profile: hold ~70% of the pool open, one
    /// use-case switch per ~250 events, arrivals at 1M requests/s (the
    /// throughput regime the online engine is benchmarked at).
    #[must_use]
    pub fn steady(events: u32) -> Self {
        ChurnParams {
            events,
            rate_per_sec: 1.0e6,
            target_open: 0.7,
            switch_weight: 0.004,
        }
    }
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams::steady(10_000)
    }
}

/// A drawn churn workload: a stateful-consistent event stream starting
/// from *all connections closed*.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTrace {
    /// The events, in non-decreasing time order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnTrace {
    /// Number of events (a switch counts once).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total connection setups requested across all events.
    #[must_use]
    pub fn setups(&self) -> u64 {
        self.events.iter().map(|e| e.op.setups()).sum()
    }

    /// Total connection teardowns requested across all events.
    #[must_use]
    pub fn teardowns(&self) -> u64 {
        self.events.iter().map(|e| e.op.teardowns()).sum()
    }

    /// Total individual setup + teardown operations — the denominator of
    /// the engine's ops/sec throughput metric.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.setups() + self.teardowns()
    }

    /// Number of use-case-switch events.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e.op, ChurnOp::Switch { .. }))
            .count() as u64
    }
}

/// One simulated client's private request stream: a churn draw over the
/// client's own disjoint slice of the platform's connection pool (see
/// [`client_population`]).
///
/// The draw has not started: no event exists until [`ClientTrace::draw`]
/// is pulled, and the client holds its pool's ids only — no copy of the
/// spec — so a population of many clients costs its pools, not its
/// traces, until a consumer such as a front-door merge pulls the events
/// one at a time.
#[derive(Debug, Clone)]
pub struct ClientTrace {
    /// The client's index in the population, in `0..clients`.
    pub client: u32,
    /// The connections this client owns, in the parent spec's order.
    pub pool: Vec<ConnId>,
    /// The client's request stream, drawn on demand (stateful-consistent
    /// within the client's pool, starting from all-closed). Yields
    /// exactly the events [`churn_trace`] draws over the
    /// [restricted view](SystemSpec::restricted_to_connections) of
    /// `pool` with the client's seed.
    pub draw: ChurnDraw,
}

/// Draws a population of `clients` independent request streams over
/// disjoint connection pools of `spec` — the workload of a serving
/// layer, where many clients concurrently churn their own connections.
///
/// The pool is split round-robin (client `k` owns the connections at
/// positions `k, k + clients, …` of `spec.connections()`), each client's
/// stream is the [`churn_trace`] draw over the
/// [restricted view](SystemSpec::restricted_to_connections) of its pool
/// with a per-client seed derived from `seed`, and `params` applies per
/// client (`params.events` events *each*). Because the pools keep
/// connection ids and are disjoint, any interleaving of the streams that
/// preserves each client's own order is stateful-consistent over the
/// whole platform — which is what lets a serving layer batch concurrent
/// requests from distinct clients without cross-request conflicts.
///
/// No event is drawn here: each [`ClientTrace::draw`] runs when pulled.
///
/// Deterministic for a given `(spec, clients, params, seed)`.
///
/// # Panics
///
/// Panics if `clients` is zero or exceeds the number of connections
/// (every client needs a non-empty pool), or on any [`churn_trace`]
/// parameter violation.
#[must_use]
pub fn client_population(
    spec: &SystemSpec,
    clients: u32,
    params: &ChurnParams,
    seed: u64,
) -> Vec<ClientTrace> {
    client_population_grouped(spec, clients, params, seed, |_| 0)
}

/// [`client_population`] with **grouped pools**: connections are first
/// bucketed by `group_of` (e.g. the shard region of a partitioned mesh,
/// so each client's pool — and therefore its whole request stream —
/// maps to one shard), clients are distributed over the groups
/// proportionally to group size (every group gets at least one client),
/// and within each group the pool splits round-robin (member `j` of `m`
/// owns the group's positions `j, j + m, …`).
///
/// Client indices are assigned in ascending group-key order and seed
/// each client's draw, so the returned population is deterministic for
/// a given `(spec, clients, params, seed, group_of)` — and
/// [`client_population`] is the one-group case.
///
/// # Panics
///
/// Panics if `clients` is zero, exceeds the number of connections, or
/// is smaller than the number of distinct groups (every group needs at
/// least one client), or on any [`churn_trace`] parameter violation.
#[must_use]
pub fn client_population_grouped(
    spec: &SystemSpec,
    clients: u32,
    params: &ChurnParams,
    seed: u64,
    group_of: impl Fn(&crate::app::Connection) -> u32,
) -> Vec<ClientTrace> {
    let conns = spec.connections();
    assert!(clients > 0, "need at least one client");
    assert!(
        (clients as usize) <= conns.len(),
        "{clients} clients cannot share {} connections one-per-client",
        conns.len()
    );
    let mut groups: std::collections::BTreeMap<u32, Vec<(ConnId, AppId)>> =
        std::collections::BTreeMap::new();
    for c in conns {
        groups.entry(group_of(c)).or_default().push((c.id, c.app));
    }
    let sizes: Vec<usize> = groups.values().map(Vec::len).collect();
    let total: usize = sizes.iter().sum();
    assert!(
        groups.len() <= clients as usize,
        "{clients} clients cannot cover {} groups one-per-group",
        groups.len()
    );

    // Proportional shares, clamped to [1, group size], then balanced
    // round-robin to sum exactly to `clients` — fully deterministic.
    let mut share: Vec<usize> = sizes
        .iter()
        .map(|&s| (clients as usize * s / total).clamp(1, s))
        .collect();
    let mut sum: usize = share.iter().sum();
    let mut i = 0;
    while sum < clients as usize {
        if share[i] < sizes[i] {
            share[i] += 1;
            sum += 1;
        }
        i = (i + 1) % share.len();
    }
    let mut i = 0;
    while sum > clients as usize {
        if share[i] > 1 {
            share[i] -= 1;
            sum -= 1;
        }
        i = (i + 1) % share.len();
    }

    let mut population = Vec::with_capacity(clients as usize);
    let mut k = 0u32;
    for (pool, &members) in groups.values().zip(&share) {
        for j in 0..members {
            let client_pool = pool.iter().skip(j).step_by(members).copied();
            let client_seed = seed ^ (u64::from(k)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            population.push(ClientTrace {
                client: k,
                pool: client_pool.clone().map(|(id, _)| id).collect(),
                draw: ChurnDraw::new(client_pool, params, client_seed),
            });
            k += 1;
        }
    }
    population
}

/// Tracks which connections the trace currently holds open, with O(1)
/// uniform sampling from either side (swap-remove lists plus a location
/// index).
#[derive(Debug, Clone)]
struct OpenSet {
    /// Positions (into the drawn pool) currently open.
    open: Vec<usize>,
    /// Positions currently closed.
    closed: Vec<usize>,
    /// For each position: (is_open, index within its current list).
    loc: Vec<(bool, usize)>,
}

impl OpenSet {
    fn all_closed(n: usize) -> Self {
        OpenSet {
            open: Vec::new(),
            closed: (0..n).collect(),
            loc: (0..n).map(|i| (false, i)).collect(),
        }
    }

    fn move_to(&mut self, pos: usize, to_open: bool) {
        let (was_open, idx) = self.loc[pos];
        debug_assert_ne!(was_open, to_open, "op violates stateful consistency");
        let from = if was_open {
            &mut self.open
        } else {
            &mut self.closed
        };
        from.swap_remove(idx);
        if let Some(&moved) = from.get(idx) {
            self.loc[moved].1 = idx;
        }
        let to = if to_open {
            &mut self.open
        } else {
            &mut self.closed
        };
        self.loc[pos] = (to_open, to.len());
        to.push(pos);
    }
}

/// Draws a churn trace over the connections of `spec`. Deterministic for
/// a given `(params, seed)` pair; see the [module docs](self) for the
/// model. This is the collected [`ChurnDraw`] over `spec.connections()`.
///
/// # Panics
///
/// Panics if `params.events` is zero, `target_open` is outside `(0, 1]`,
/// `switch_weight` is outside `[0, 1)`, or `rate_per_sec` is not
/// strictly positive.
#[must_use]
pub fn churn_trace(spec: &SystemSpec, params: &ChurnParams, seed: u64) -> ChurnTrace {
    let pool = spec.connections().iter().map(|c| (c.id, c.app));
    ChurnTrace {
        events: ChurnDraw::new(pool, params, seed).collect(),
    }
}

/// A churn draw run on demand: an iterator yielding, one at a time, the
/// events of [`churn_trace`] over a pool of `(ConnId, AppId)` pairs in
/// spec order. It yields exactly `params.events` events, and holds the
/// pool, the open set and the generator state — never the trace.
#[derive(Debug, Clone)]
pub struct ChurnDraw {
    /// The pool's connection ids, in spec order.
    conns: Vec<ConnId>,
    /// For each position: the rank of its application among the pool's
    /// applications in ascending id order, which is spec order (the spec
    /// builder numbers applications as it adds them).
    app_of: Vec<usize>,
    /// Number of distinct applications in the pool.
    apps: usize,
    state: OpenSet,
    rng: StdRng,
    mean_gap_ns: f64,
    t_ns: f64,
    target_open: f64,
    switch_weight: f64,
    /// Events still to draw.
    left: u32,
}

impl ChurnDraw {
    /// An unstarted draw over `pool`. Checks every parameter here, so a
    /// bad profile panics where the draw is set up, not where it is run.
    fn new(
        pool: impl IntoIterator<Item = (ConnId, AppId)>,
        params: &ChurnParams,
        seed: u64,
    ) -> Self {
        assert!(params.events > 0, "need at least one event");
        assert!(
            params.target_open > 0.0 && params.target_open <= 1.0,
            "target_open must be in (0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&params.switch_weight),
            "switch_weight must be in [0, 1)"
        );
        assert!(params.rate_per_sec > 0.0, "rate must be positive");

        let (conns, app_ids): (Vec<ConnId>, Vec<AppId>) = pool.into_iter().unzip();
        assert!(!conns.is_empty(), "spec has no connections to churn");
        let mut apps = app_ids.clone();
        apps.sort_unstable();
        apps.dedup();
        let app_of = app_ids
            .iter()
            .map(|a| apps.binary_search(a).expect("own app"))
            .collect();
        ChurnDraw {
            state: OpenSet::all_closed(conns.len()),
            conns,
            app_of,
            apps: apps.len(),
            rng: StdRng::seed_from_u64(seed),
            mean_gap_ns: 1.0e9 / params.rate_per_sec,
            t_ns: 0.0,
            target_open: params.target_open,
            switch_weight: params.switch_weight,
            left: params.events,
        }
    }

    /// A use-case switch: all open connections of one application out,
    /// all closed connections of another in. `None` when no such pair of
    /// applications exists yet (e.g. at trace start) — the caller falls
    /// back to a single op.
    fn draw_switch(&mut self) -> Option<ChurnOp> {
        // Applications with at least one open / one closed connection.
        let mut has_open = vec![false; self.apps];
        let mut has_closed = vec![false; self.apps];
        for (pos, &ai) in self.app_of.iter().enumerate() {
            if self.state.loc[pos].0 {
                has_open[ai] = true;
            } else {
                has_closed[ai] = true;
            }
        }
        let rng = &mut self.rng;
        let victims: Vec<usize> = (0..self.apps).filter(|&i| has_open[i]).collect();
        if victims.is_empty() {
            return None;
        }
        let victim = victims[rng.gen_range(0..victims.len())];
        let incomings: Vec<usize> = (0..self.apps)
            .filter(|&i| i != victim && has_closed[i])
            .collect();
        if incomings.is_empty() {
            return None;
        }
        let incoming = incomings[rng.gen_range(0..incomings.len())];

        // Pool order keeps the delta deterministic and ids ascending.
        let mut close = Vec::new();
        let mut open = Vec::new();
        for (pos, (&id, &ai)) in self.conns.iter().zip(&self.app_of).enumerate() {
            if ai == victim && self.state.loc[pos].0 {
                close.push(id);
                self.state.move_to(pos, false);
            } else if ai == incoming && !self.state.loc[pos].0 {
                open.push(id);
                self.state.move_to(pos, true);
            }
        }
        debug_assert!(!close.is_empty() && !open.is_empty());
        Some(ChurnOp::Switch { close, open })
    }

    /// A single open or close, biased towards the target occupancy.
    fn draw_single(&mut self) -> ChurnOp {
        let state = &mut self.state;
        let open_frac = state.open.len() as f64 / self.conns.len() as f64;
        let p_open = steer_towards(self.target_open, open_frac);
        let do_open = if state.open.is_empty() {
            true
        } else if state.closed.is_empty() {
            false
        } else {
            self.rng.gen::<f64>() < p_open
        };
        if do_open {
            let pos = state.closed[self.rng.gen_range(0..state.closed.len())];
            state.move_to(pos, true);
            ChurnOp::Open(self.conns[pos])
        } else {
            let pos = state.open[self.rng.gen_range(0..state.open.len())];
            state.move_to(pos, false);
            ChurnOp::Close(self.conns[pos])
        }
    }
}

impl Iterator for ChurnDraw {
    type Item = ChurnEvent;

    fn next(&mut self) -> Option<ChurnEvent> {
        self.left = self.left.checked_sub(1)?;
        self.t_ns += exponential_gap_ns(&mut self.rng, self.mean_gap_ns);
        let op = if self.rng.gen::<f64>() < self.switch_weight {
            self.draw_switch()
        } else {
            None
        }
        .unwrap_or_else(|| self.draw_single());
        Some(ChurnEvent {
            at_ns: self.t_ns as u64,
            op,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for ChurnDraw {}

/// One inter-arrival gap of a Poisson process with mean `mean_gap_ns`:
/// exponential, from one uniform draw of `rng`.
pub(crate) fn exponential_gap_ns(rng: &mut StdRng, mean_gap_ns: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).max(f64::MIN_POSITIVE).ln() * mean_gap_ns
}

/// Linear steering of a population share `frac` towards `target`: the
/// probability of the move that grows the share. At the target the mix
/// is 50/50; a half-pool deficit pushes it to ~1 (and vice versa), never
/// past `[0.05, 0.95]`.
pub(crate) fn steer_towards(target: f64, frac: f64) -> f64 {
    (0.5 + (target - frac)).clamp(0.05, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::paper_workload;
    use std::collections::HashSet;

    fn trace_for(seed: u64, events: u32, switch_weight: f64) -> (ChurnTrace, SystemSpec) {
        let spec = paper_workload(42);
        let params = ChurnParams {
            events,
            switch_weight,
            ..ChurnParams::steady(events)
        };
        (churn_trace(&spec, &params, seed), spec)
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let (a, _) = trace_for(3, 500, 0.01);
        let (b, _) = trace_for(3, 500, 0.01);
        assert_eq!(a, b);
        let (c, _) = trace_for(4, 500, 0.01);
        assert_ne!(a, c);
    }

    #[test]
    fn trace_is_stateful_consistent() {
        // Replaying the trace against a shadow open-set never opens an
        // open connection or closes a closed one.
        let (trace, _) = trace_for(11, 2_000, 0.01);
        let mut open: HashSet<ConnId> = HashSet::new();
        for e in &trace.events {
            match &e.op {
                ChurnOp::Open(c) => assert!(open.insert(*c), "{c} opened twice"),
                ChurnOp::Close(c) => assert!(open.remove(c), "{c} closed while closed"),
                ChurnOp::Switch { close, open: add } => {
                    for c in close {
                        assert!(open.remove(c), "{c} closed while closed");
                    }
                    for c in add {
                        assert!(open.insert(*c), "{c} opened twice");
                    }
                }
            }
        }
        assert!(!open.is_empty(), "steady trace holds connections open");
    }

    #[test]
    fn timestamps_are_nondecreasing_poisson_arrivals() {
        let (trace, _) = trace_for(5, 1_000, 0.0);
        let mut prev = 0;
        for e in &trace.events {
            assert!(e.at_ns >= prev);
            prev = e.at_ns;
        }
        // Mean inter-arrival ≈ 1 µs at 1M req/s: the 1000-event horizon
        // lands within a factor of two of 1 ms.
        assert!(prev > 500_000 && prev < 2_000_000, "end at {prev} ns");
    }

    #[test]
    fn occupancy_settles_near_target() {
        let (trace, spec) = trace_for(9, 4_000, 0.0);
        let mut open = 0i64;
        for e in &trace.events {
            open += e.op.setups() as i64 - e.op.teardowns() as i64;
        }
        let frac = open as f64 / spec.connections().len() as f64;
        assert!((0.5..=0.9).contains(&frac), "settled at {frac}");
    }

    #[test]
    fn switches_appear_and_move_whole_apps() {
        let (trace, spec) = trace_for(7, 4_000, 0.02);
        assert!(trace.switches() > 0, "no switch drawn in 4000 events");
        assert_eq!(
            trace.ops(),
            trace.setups() + trace.teardowns(),
            "ops is the setup+teardown total"
        );
        for e in &trace.events {
            if let ChurnOp::Switch { close, open } = &e.op {
                assert!(!close.is_empty() && !open.is_empty());
                // One application per side of the delta.
                let capp = spec.connection(close[0]).app;
                assert!(close.iter().all(|&c| spec.connection(c).app == capp));
                let oapp = spec.connection(open[0]).app;
                assert!(open.iter().all(|&c| spec.connection(c).app == oapp));
                assert_ne!(capp, oapp);
            }
        }
    }

    /// A client's whole stream, drawn from a copy of its unstarted draw.
    fn events_of(ct: &ClientTrace) -> Vec<ChurnEvent> {
        ct.draw.clone().collect()
    }

    #[test]
    fn client_population_partitions_the_pool_disjointly() {
        let spec = paper_workload(42);
        let params = ChurnParams::steady(200);
        let population = client_population(&spec, 7, &params, 3);
        assert_eq!(population.len(), 7);
        // The pools are disjoint and cover every connection.
        let mut seen: HashSet<ConnId> = HashSet::new();
        for ct in &population {
            for &c in &ct.pool {
                assert!(seen.insert(c), "{c} owned by two clients");
            }
        }
        assert_eq!(seen.len(), spec.connections().len());
        // Each client's trace stays within its own pool.
        for ct in &population {
            let pool: HashSet<ConnId> = ct.pool.iter().copied().collect();
            for e in events_of(ct) {
                let ids: Vec<ConnId> = match &e.op {
                    ChurnOp::Open(c) | ChurnOp::Close(c) => vec![*c],
                    ChurnOp::Switch { close, open } => close.iter().chain(open).copied().collect(),
                };
                assert!(ids.iter().all(|c| pool.contains(c)));
            }
        }
    }

    #[test]
    fn client_population_merges_stateful_consistent() {
        // Any client-order-preserving interleaving is globally
        // stateful-consistent; check the sort-by-time merge.
        let spec = paper_workload(42);
        let population = client_population(&spec, 5, &ChurnParams::steady(400), 11);
        let traces: Vec<Vec<ChurnEvent>> = population.iter().map(events_of).collect();
        let mut merged: Vec<(u64, u32, usize)> = Vec::new();
        for (ct, trace) in population.iter().zip(&traces) {
            for (seq, e) in trace.iter().enumerate() {
                merged.push((e.at_ns, ct.client, seq));
            }
        }
        merged.sort_unstable();
        let mut open: HashSet<ConnId> = HashSet::new();
        for (_, client, seq) in merged {
            match &traces[client as usize][seq].op {
                ChurnOp::Open(c) => assert!(open.insert(*c), "{c} opened twice"),
                ChurnOp::Close(c) => assert!(open.remove(c), "{c} closed while closed"),
                ChurnOp::Switch { close, open: add } => {
                    for c in close {
                        assert!(open.remove(c));
                    }
                    for c in add {
                        assert!(open.insert(*c));
                    }
                }
            }
        }
    }

    #[test]
    fn client_population_is_deterministic_and_seed_sensitive() {
        let spec = paper_workload(42);
        let params = ChurnParams::steady(100);
        let a = client_population(&spec, 4, &params, 5);
        let b = client_population(&spec, 4, &params, 5);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(events_of(x), events_of(y));
        }
        let c = client_population(&spec, 4, &params, 6);
        assert!(a.iter().zip(&c).any(|(x, y)| events_of(x) != events_of(y)));
    }

    #[test]
    fn one_group_population_is_the_round_robin_population() {
        // The documented shape — client `k` owns positions `k, k + n, …`
        // and draws with its own derived seed — and the one-group
        // grouped call agree client for client, event for event.
        let spec = paper_workload(42);
        let params = ChurnParams::steady(60);
        for clients in [7u32, 50] {
            let plain = client_population(&spec, clients, &params, 13);
            let grouped = client_population_grouped(&spec, clients, &params, 13, |_| 0);
            assert_eq!(plain.len(), grouped.len());
            for (k, (p, g)) in plain.iter().zip(&grouped).enumerate() {
                assert_eq!((p.client, g.client), (k as u32, k as u32));
                let pool: Vec<ConnId> = spec
                    .connections()
                    .iter()
                    .skip(k)
                    .step_by(clients as usize)
                    .map(|c| c.id)
                    .collect();
                assert_eq!(p.pool, pool);
                assert_eq!(g.pool, pool);
                let seed = 13 ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let view = spec.restricted_to_connections(&p.pool);
                assert_eq!(events_of(p), churn_trace(&view, &params, seed).events);
                assert_eq!(events_of(p), events_of(g), "client {k} of {clients}");
            }
        }
    }

    #[test]
    fn several_group_population_draws_each_restricted_view() {
        // With several groups too, every client's pool keeps spec order
        // within one group, and its on-demand draw yields exactly what
        // `churn_trace` draws over the spec restricted to that pool with
        // the client's derived seed — switches included.
        let spec = paper_workload(42);
        let params = ChurnParams {
            switch_weight: 0.05,
            ..ChurnParams::steady(300)
        };
        let group_of = |c: &crate::app::Connection| (c.id.index() / 7) as u32 % 3;
        let mut switches = 0;
        for clients in [7u32, 20] {
            let population = client_population_grouped(&spec, clients, &params, 13, group_of);
            assert_eq!(population.len(), clients as usize);
            for ct in &population {
                assert!(ct.pool.windows(2).all(|w| w[0] < w[1]));
                let group = group_of(spec.connection(ct.pool[0]));
                assert!(ct
                    .pool
                    .iter()
                    .all(|&c| group_of(spec.connection(c)) == group));
                let seed = 13 ^ u64::from(ct.client).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let view = spec.restricted_to_connections(&ct.pool);
                let trace = churn_trace(&view, &params, seed);
                assert_eq!(
                    events_of(ct),
                    trace.events,
                    "client {} of {clients}",
                    ct.client
                );
                switches += trace.switches();
            }
        }
        assert!(
            switches > 0,
            "no switch drawn: the application ranks went untested"
        );
    }

    #[test]
    #[should_panic(expected = "one-per-client")]
    fn too_many_clients_rejected() {
        let spec = paper_workload(1);
        let n = spec.connections().len() as u32;
        let _ = client_population(&spec, n + 1, &ChurnParams::steady(10), 0);
    }

    #[test]
    #[should_panic(expected = "at least one event")]
    fn zero_events_rejected() {
        let spec = paper_workload(1);
        let params = ChurnParams {
            events: 0,
            ..ChurnParams::default()
        };
        let _ = churn_trace(&spec, &params, 0);
    }

    // The population draws nothing up front, so each parameter check
    // must fire where the population is set up, not where it is merged.

    #[test]
    #[should_panic(expected = "at least one event")]
    fn population_with_zero_events_rejected() {
        let params = ChurnParams {
            events: 0,
            ..ChurnParams::default()
        };
        let _ = client_population(&paper_workload(1), 3, &params, 0);
    }

    #[test]
    #[should_panic(expected = "target_open must be in (0, 1]")]
    fn population_with_zero_target_rejected() {
        let params = ChurnParams {
            target_open: 0.0,
            ..ChurnParams::default()
        };
        let _ = client_population(&paper_workload(1), 3, &params, 0);
    }

    #[test]
    #[should_panic(expected = "target_open must be in (0, 1]")]
    fn population_with_target_over_one_rejected() {
        let params = ChurnParams {
            target_open: 1.5,
            ..ChurnParams::default()
        };
        let _ = client_population(&paper_workload(1), 3, &params, 0);
    }

    #[test]
    #[should_panic(expected = "switch_weight must be in [0, 1)")]
    fn population_with_certain_switches_rejected() {
        let params = ChurnParams {
            switch_weight: 1.0,
            ..ChurnParams::default()
        };
        let _ = client_population(&paper_workload(1), 3, &params, 0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn population_with_zero_rate_rejected() {
        let params = ChurnParams {
            rate_per_sec: 0.0,
            ..ChurnParams::default()
        };
        let _ = client_population(&paper_workload(1), 3, &params, 0);
    }
}
