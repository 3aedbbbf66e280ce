//! Homogeneous synchronous dataflow (HSDF) graphs and throughput analysis.
//!
//! The paper models its flit-synchronous elements as dataflow actors
//! (Sections V–VI, citing Lee & Parks \[19\]): the mesochronous FSM and
//! the asynchronous wrapper both "fire" once per flit cycle when tokens
//! and space are available, and footnote 1 proposes analysing
//! heterochronous aelite instances "by modelling the links, NIs and
//! routers in a dataflow graph". This module provides that machinery.
//!
//! An HSDF actor consumes one token per input edge and produces one per
//! output edge each firing, after its execution time. The steady-state
//! throughput of a strongly-connected HSDF graph is `1 / MCM`, where the
//! **maximum cycle mean** is
//!
//! ```text
//! MCM = max over cycles C of ( sum of execution times on C )
//!                            / ( sum of initial tokens on C )
//! ```
//!
//! computed here by bisection on λ with Bellman-Ford negative-cycle
//! detection — robust for the small graphs aelite produces.

use core::fmt;

/// An actor index within a [`HsdfGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(usize);

impl ActorId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Actor {
    /// Shown by `Debug`; read back only by the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    name: String,
    /// Execution time per firing, in arbitrary consistent time units.
    exec_time: f64,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    tokens: u32,
}

/// A homogeneous SDF graph.
///
/// # Examples
///
/// A two-actor pipeline with a 2-deep channel and its feedback edge:
///
/// ```
/// use aelite_dataflow::graph::HsdfGraph;
///
/// let mut g = HsdfGraph::new();
/// let producer = g.add_actor("producer", 3.0);
/// let consumer = g.add_actor("consumer", 3.0);
/// g.add_edge(producer, consumer, 0); // data
/// g.add_edge(consumer, producer, 2); // space (capacity 2)
/// let mcm = g.maximum_cycle_mean().expect("cyclic graph");
/// assert!((mcm - 3.0).abs() < 1e-6); // limited by the actors, not space
/// ```
#[derive(Debug, Clone, Default)]
pub struct HsdfGraph {
    actors: Vec<Actor>,
    edges: Vec<Edge>,
}

impl HsdfGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        HsdfGraph::default()
    }

    /// Adds an actor with the given per-firing execution time.
    ///
    /// # Panics
    ///
    /// Panics if `exec_time` is negative or not finite.
    pub fn add_actor(&mut self, name: impl Into<String>, exec_time: f64) -> ActorId {
        assert!(
            exec_time.is_finite() && exec_time >= 0.0,
            "execution time must be finite and non-negative"
        );
        let id = ActorId(self.actors.len());
        self.actors.push(Actor {
            name: name.into(),
            exec_time,
        });
        id
    }

    /// Adds a directed edge with `tokens` initial tokens.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not an actor of this graph.
    pub fn add_edge(&mut self, from: ActorId, to: ActorId, tokens: u32) {
        assert!(from.0 < self.actors.len(), "unknown {from}");
        assert!(to.0 < self.actors.len(), "unknown {to}");
        self.edges.push(Edge {
            from: from.0,
            to: to.0,
            tokens,
        });
    }

    /// Adds a channel of `capacity` between two actors: a forward data
    /// edge with no initial tokens and a backward space edge holding
    /// `capacity` tokens — the standard model of a bounded FIFO (and of
    /// the wrapper's OPI space accounting).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity channel deadlocks).
    pub fn add_channel(&mut self, from: ActorId, to: ActorId, capacity: u32) {
        assert!(capacity > 0, "channel capacity must be non-zero");
        self.add_edge(from, to, 0);
        self.add_edge(to, from, capacity);
    }

    /// The maximum cycle mean (time units per token), or `None` for an
    /// acyclic graph (unbounded pipeline: no steady-state constraint).
    ///
    /// The steady-state firing rate of every actor in a strongly
    /// connected graph is `1 / MCM`.
    #[must_use]
    pub fn maximum_cycle_mean(&self) -> Option<f64> {
        if !self.has_cycle() {
            return None;
        }
        // Bisection on lambda: a cycle with mean > lambda exists iff the
        // graph with edge weight (lambda * tokens - exec_time(from)) has a
        // negative cycle.
        let mut lo = 0.0_f64;
        let mut hi = self.actors.iter().map(|a| a.exec_time).sum::<f64>() + 1.0;
        // A cycle with zero tokens and positive exec time diverges — that
        // is a deadlock (infinite MCM), reported as f64::INFINITY.
        if self.has_negative_cycle(hi) {
            return Some(f64::INFINITY);
        }
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.has_negative_cycle(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(hi)
    }

    /// The steady-state throughput in firings per time unit (`1 / MCM`),
    /// `None` for acyclic graphs, and `0` for deadlocked ones.
    #[must_use]
    pub fn throughput(&self) -> Option<f64> {
        self.maximum_cycle_mean().map(|mcm| {
            if mcm.is_infinite() {
                0.0
            } else if mcm == 0.0 {
                f64::INFINITY
            } else {
                1.0 / mcm
            }
        })
    }

    fn has_cycle(&self) -> bool {
        // Kahn's algorithm: cycle iff topological sort is incomplete.
        let n = self.actors.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(v) = queue.pop() {
            seen += 1;
            for e in self.edges.iter().filter(|e| e.from == v) {
                indegree[e.to] -= 1;
                if indegree[e.to] == 0 {
                    queue.push(e.to);
                }
            }
        }
        seen < n
    }

    /// Bellman-Ford negative-cycle detection on weights
    /// `lambda * tokens - exec_time(from)`.
    fn has_negative_cycle(&self, lambda: f64) -> bool {
        let n = self.actors.len();
        if n == 0 {
            return false;
        }
        let mut dist = vec![0.0_f64; n];
        for round in 0..n {
            let mut changed = false;
            for e in &self.edges {
                let w = lambda * f64::from(e.tokens) - self.actors[e.from].exec_time;
                if dist[e.from] + w < dist[e.to] - 1e-12 {
                    dist[e.to] = dist[e.from] + w;
                    changed = true;
                }
            }
            if !changed {
                return false;
            }
            if round == n - 1 {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl HsdfGraph {
        /// Number of actors.
        pub(crate) fn actor_count(&self) -> usize {
            self.actors.len()
        }

        /// Number of edges.
        pub(crate) fn edge_count(&self) -> usize {
            self.edges.len()
        }

        /// The name of `actor`.
        pub(crate) fn actor_name(&self, actor: ActorId) -> &str {
            &self.actors[actor.0].name
        }
    }

    #[test]
    fn self_loop_mcm_is_exec_over_tokens() {
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 6.0);
        g.add_edge(a, a, 2);
        let mcm = g.maximum_cycle_mean().unwrap();
        assert!((mcm - 3.0).abs() < 1e-6, "{mcm}");
        assert!((g.throughput().unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn two_actor_ring_sums_exec_times() {
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 3.0);
        let b = g.add_actor("b", 5.0);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 1);
        // One token circulates the whole ring: MCM = (3+5)/1 = 8.
        let mcm = g.maximum_cycle_mean().unwrap();
        assert!((mcm - 8.0).abs() < 1e-6, "{mcm}");
    }

    #[test]
    fn extra_tokens_pipeline_the_ring() {
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 3.0);
        let b = g.add_actor("b", 5.0);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 2);
        // Two tokens: MCM = max(8/2, slowest actor alone...) — the cycle
        // bound is 4, but actor b needs 5 per firing; with no self-loops
        // the model allows overlapping firings, so the cycle gives 4.
        let mcm = g.maximum_cycle_mean().unwrap();
        assert!((mcm - 4.0).abs() < 1e-6, "{mcm}");
    }

    #[test]
    fn self_loops_model_non_reentrant_actors() {
        // Adding 1-token self-loops forbids overlapped firings; the
        // slowest actor then bounds the rate.
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 3.0);
        let b = g.add_actor("b", 5.0);
        g.add_edge(a, a, 1);
        g.add_edge(b, b, 1);
        g.add_channel(a, b, 4);
        let mcm = g.maximum_cycle_mean().unwrap();
        assert!((mcm - 5.0).abs() < 1e-6, "{mcm}");
    }

    #[test]
    fn acyclic_graph_has_no_mcm() {
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 1.0);
        let b = g.add_actor("b", 2.0);
        g.add_edge(a, b, 0);
        assert_eq!(g.maximum_cycle_mean(), None);
        assert_eq!(g.throughput(), None);
    }

    #[test]
    fn tokenless_cycle_deadlocks() {
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 1.0);
        let b = g.add_actor("b", 1.0);
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 0);
        assert_eq!(g.maximum_cycle_mean(), Some(f64::INFINITY));
        assert_eq!(g.throughput(), Some(0.0));
    }

    #[test]
    fn channel_capacity_limits_throughput() {
        // Chain of three 3-unit actors with capacity-1 channels: each
        // channel cycle a<->b has exec 3+3 = 6 over 1 token = 6.
        let chain = |cap: u32| {
            let mut g = HsdfGraph::new();
            let a = g.add_actor("a", 3.0);
            let b = g.add_actor("b", 3.0);
            let c = g.add_actor("c", 3.0);
            g.add_channel(a, b, cap);
            g.add_channel(b, c, cap);
            g.maximum_cycle_mean().unwrap()
        };
        let mcm1 = chain(1);
        assert!((mcm1 - 6.0).abs() < 1e-6, "{mcm1}");
        // Capacity 2 halves the per-channel pressure.
        let mcm2 = chain(2);
        assert!((mcm2 - 3.0).abs() < 1e-6, "{mcm2}");
    }

    #[test]
    fn directed_data_ring_without_tokens_deadlocks() {
        // A closed ring of channels all in one direction has no initial
        // data token anywhere: nothing can ever fire.
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 3.0);
        let b = g.add_actor("b", 3.0);
        let c = g.add_actor("c", 3.0);
        g.add_channel(a, b, 1);
        g.add_channel(b, c, 1);
        g.add_channel(c, a, 1);
        assert_eq!(g.maximum_cycle_mean(), Some(f64::INFINITY));
    }

    #[test]
    fn mcm_picks_the_worst_cycle() {
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 1.0);
        let b = g.add_actor("b", 1.0);
        let c = g.add_actor("c", 10.0);
        // Fast ring a<->b and slow ring a<->c.
        g.add_edge(a, b, 0);
        g.add_edge(b, a, 1);
        g.add_edge(a, c, 0);
        g.add_edge(c, a, 1);
        let mcm = g.maximum_cycle_mean().unwrap();
        assert!((mcm - 11.0).abs() < 1e-6, "{mcm}");
    }

    #[test]
    fn actor_metadata_accessible() {
        let mut g = HsdfGraph::new();
        let a = g.add_actor("router R3", 3.0);
        assert_eq!(g.actor_name(a), "router R3");
        assert_eq!(g.actor_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(a.index(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_channel_rejected() {
        let mut g = HsdfGraph::new();
        let a = g.add_actor("a", 1.0);
        let b = g.add_actor("b", 1.0);
        g.add_channel(a, b, 0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_exec_time_rejected() {
        let mut g = HsdfGraph::new();
        let _ = g.add_actor("bad", -1.0);
    }
}
