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

/// One simulated client's private request stream: a churn trace drawn
/// over the client's own disjoint slice of the platform's connection
/// pool (see [`client_population`]).
#[derive(Debug, Clone)]
pub struct ClientTrace {
    /// The client's index in the population, in `0..clients`.
    pub client: u32,
    /// The restricted view of the system this client's trace was drawn
    /// over — its connection ids are the client's pool, unchanged from
    /// the parent spec.
    pub view: SystemSpec,
    /// The client's request stream (stateful-consistent within the
    /// client's pool, starting from all-closed).
    pub trace: ChurnTrace,
}

/// Draws a population of `clients` independent request streams over
/// disjoint connection pools of `spec` — the workload of a serving
/// layer, where many clients concurrently churn their own connections.
///
/// The pool is split round-robin (client `k` owns the connections at
/// positions `k, k + clients, …` of `spec.connections()`), each client's
/// trace is drawn by [`churn_trace`] over the
/// [restricted view](SystemSpec::restricted_to_connections) of its pool
/// with a per-client seed derived from `seed`, and `params` applies per
/// client (`params.events` events *each*). Because restriction preserves
/// connection ids and the pools are disjoint, any interleaving of the
/// streams that preserves each client's own order is stateful-consistent
/// over the whole platform — which is what lets a serving layer batch
/// concurrent requests from distinct clients without cross-request
/// conflicts.
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
/// least one client).
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
    let mut groups: std::collections::BTreeMap<u32, Vec<ConnId>> =
        std::collections::BTreeMap::new();
    for c in conns {
        groups.entry(group_of(c)).or_default().push(c.id);
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
            let client_pool: Vec<ConnId> = pool.iter().skip(j).step_by(members).copied().collect();
            let view = spec.restricted_to_connections(&client_pool);
            let client_seed = seed ^ (u64::from(k)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let trace = churn_trace(&view, params, client_seed);
            population.push(ClientTrace {
                client: k,
                view,
                trace,
            });
            k += 1;
        }
    }
    population
}

/// Tracks which connections the trace currently holds open, with O(1)
/// uniform sampling from either side (swap-remove lists plus a location
/// index).
struct OpenSet {
    /// Positions (into `spec.connections()`) currently open.
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
/// model.
///
/// # Panics
///
/// Panics if `params.events` is zero, `target_open` is outside `(0, 1]`,
/// `switch_weight` is outside `[0, 1)`, or `rate_per_sec` is not
/// strictly positive.
#[must_use]
pub fn churn_trace(spec: &SystemSpec, params: &ChurnParams, seed: u64) -> ChurnTrace {
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

    let conns = spec.connections();
    assert!(!conns.is_empty(), "spec has no connections to churn");
    let n = conns.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = OpenSet::all_closed(n);
    let mut events = Vec::with_capacity(params.events as usize);
    let mean_gap_ns = 1.0e9 / params.rate_per_sec;
    let mut t_ns = 0.0f64;

    for _ in 0..params.events {
        t_ns += exponential_gap_ns(&mut rng, mean_gap_ns);

        let op = if rng.gen::<f64>() < params.switch_weight {
            draw_switch(spec, &mut state, &mut rng)
        } else {
            None
        }
        .unwrap_or_else(|| draw_single(spec, &mut state, &mut rng, params.target_open));

        events.push(ChurnEvent {
            at_ns: t_ns as u64,
            op,
        });
    }
    ChurnTrace { events }
}

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

/// A use-case switch: all open connections of one application out, all
/// closed connections of another in. `None` when no such pair of
/// applications exists yet (e.g. at trace start) — the caller falls back
/// to a single op.
fn draw_switch(spec: &SystemSpec, state: &mut OpenSet, rng: &mut StdRng) -> Option<ChurnOp> {
    let conns = spec.connections();
    let apps: Vec<AppId> = spec.apps().iter().map(|a| a.id).collect();
    // Applications with at least one open / one closed connection.
    let mut has_open = vec![false; apps.len()];
    let mut has_closed = vec![false; apps.len()];
    for (pos, c) in conns.iter().enumerate() {
        let ai = apps.iter().position(|&a| a == c.app).expect("own app");
        if state.loc[pos].0 {
            has_open[ai] = true;
        } else {
            has_closed[ai] = true;
        }
    }
    let victims: Vec<usize> = (0..apps.len()).filter(|&i| has_open[i]).collect();
    if victims.is_empty() {
        return None;
    }
    let victim = victims[rng.gen_range(0..victims.len())];
    let incomings: Vec<usize> = (0..apps.len())
        .filter(|&i| i != victim && has_closed[i])
        .collect();
    if incomings.is_empty() {
        return None;
    }
    let incoming = incomings[rng.gen_range(0..incomings.len())];

    // Spec order keeps the delta deterministic and ids ascending.
    let mut close = Vec::new();
    let mut open = Vec::new();
    for (pos, c) in conns.iter().enumerate() {
        if c.app == apps[victim] && state.loc[pos].0 {
            close.push(c.id);
            state.move_to(pos, false);
        } else if c.app == apps[incoming] && !state.loc[pos].0 {
            open.push(c.id);
            state.move_to(pos, true);
        }
    }
    debug_assert!(!close.is_empty() && !open.is_empty());
    Some(ChurnOp::Switch { close, open })
}

/// A single open or close, biased towards the target occupancy.
fn draw_single(
    spec: &SystemSpec,
    state: &mut OpenSet,
    rng: &mut StdRng,
    target_open: f64,
) -> ChurnOp {
    let n = spec.connections().len();
    let open_frac = state.open.len() as f64 / n as f64;
    let p_open = steer_towards(target_open, open_frac);
    let do_open = if state.open.is_empty() {
        true
    } else if state.closed.is_empty() {
        false
    } else {
        rng.gen::<f64>() < p_open
    };
    if do_open {
        let pos = state.closed[rng.gen_range(0..state.closed.len())];
        state.move_to(pos, true);
        ChurnOp::Open(spec.connections()[pos].id)
    } else {
        let pos = state.open[rng.gen_range(0..state.open.len())];
        state.move_to(pos, false);
        ChurnOp::Close(spec.connections()[pos].id)
    }
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

    #[test]
    fn client_population_partitions_the_pool_disjointly() {
        let spec = paper_workload(42);
        let params = ChurnParams::steady(200);
        let population = client_population(&spec, 7, &params, 3);
        assert_eq!(population.len(), 7);
        // The pools are disjoint and cover every connection.
        let mut seen: HashSet<ConnId> = HashSet::new();
        for ct in &population {
            for c in ct.view.connections() {
                assert!(seen.insert(c.id), "{} owned by two clients", c.id);
            }
        }
        assert_eq!(seen.len(), spec.connections().len());
        // Each client's trace stays within its own pool.
        for ct in &population {
            let pool: HashSet<ConnId> = ct.view.connections().iter().map(|c| c.id).collect();
            for e in &ct.trace.events {
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
        let mut merged: Vec<(u64, u32, usize)> = Vec::new();
        for ct in &population {
            for (seq, e) in ct.trace.events.iter().enumerate() {
                merged.push((e.at_ns, ct.client, seq));
            }
        }
        merged.sort_unstable();
        let mut open: HashSet<ConnId> = HashSet::new();
        for (_, client, seq) in merged {
            match &population[client as usize].trace.events[seq].op {
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
            assert_eq!(x.trace, y.trace);
        }
        let c = client_population(&spec, 4, &params, 6);
        assert!(a.iter().zip(&c).any(|(x, y)| x.trace != y.trace));
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
                let owned = |ct: &ClientTrace| -> Vec<ConnId> {
                    ct.view.connections().iter().map(|c| c.id).collect()
                };
                assert_eq!(owned(p), pool);
                assert_eq!(owned(g), pool);
                let seed = 13 ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                assert_eq!(p.trace, churn_trace(&p.view, &params, seed));
                assert_eq!(p.trace, g.trace, "client {k} of {clients}");
            }
        }
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
}
