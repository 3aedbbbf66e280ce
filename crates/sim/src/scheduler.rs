//! The discrete-event simulator driving all clock domains.
//!
//! The simulator owns the [`SignalStore`], the set of [`ClockSpec`] domains
//! and the modules registered in each. Time advances edge by edge: the next
//! pending rising edge over all domains is located, **every** module whose
//! domain has an edge at that instant runs (sampling the pre-edge wire
//! values), and only then are all wire writes committed. Coincident edges of
//! different domains therefore behave exactly like simultaneously-clocked
//! flip-flops; results never depend on registration order.
//!
//! # Examples
//!
//! ```
//! use aelite_sim::clock::ClockSpec;
//! use aelite_sim::module::{EdgeContext, Module};
//! use aelite_sim::scheduler::Simulator;
//! use aelite_sim::signal::Wire;
//! use aelite_sim::time::{Frequency, SimTime};
//!
//! struct Counter {
//!     out: Wire<u32>,
//! }
//! impl Module for Counter {
//!     type Value = u32;
//!     fn name(&self) -> &str {
//!         "counter"
//!     }
//!     fn on_edge(&mut self, ctx: &mut EdgeContext<'_, u32>) {
//!         let v = ctx.read(self.out);
//!         ctx.write(self.out, v + 1);
//!     }
//! }
//!
//! let mut sim: Simulator<u32> = Simulator::new();
//! let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
//! let out = sim.add_wire("count");
//! sim.add_module(clk, Counter { out });
//! sim.run_until(SimTime::from_ns(20)); // edges at 0,2,4,...,20 ns
//! assert_eq!(sim.signals().read(out), 11);
//! ```

use crate::clock::{ClockSpec, DomainId};
use crate::module::{EdgeContext, Module};
use crate::signal::{SignalStore, Wire};
use crate::time::SimTime;
use core::cmp::Reverse;
use std::collections::BinaryHeap;

struct DomainState<V> {
    spec: ClockSpec,
    next_edge: u64,
    modules: Vec<Box<dyn Module<Value = V>>>,
}

/// A multi-clock-domain discrete-event simulator.
///
/// `V` is the value type carried by all wires (the aelite models use a
/// link-word type carrying data plus `valid`/`eop` sideband signals).
///
/// The simulator is single-threaded by design: hardware models share state
/// through wires and (for clock-domain-crossing FIFOs) `Rc<RefCell<_>>`
/// handles, so it is intentionally not `Send`.
pub struct Simulator<V> {
    signals: SignalStore<V>,
    domains: Vec<DomainState<V>>,
    queue: BinaryHeap<Reverse<(SimTime, usize)>>,
    now: SimTime,
    edges_processed: u64,
    /// Reusable scratch holding the domains due at the current instant,
    /// so stepping never allocates per edge.
    due_scratch: Vec<usize>,
}

impl<V: Copy + Default> Simulator<V> {
    /// Creates an empty simulator at time zero.
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            signals: SignalStore::new(),
            domains: Vec::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            edges_processed: 0,
            due_scratch: Vec::new(),
        }
    }

    /// Registers a clock domain; modules added to it run at its edges.
    pub fn add_domain(&mut self, spec: ClockSpec) -> DomainId {
        let id = DomainId(self.domains.len());
        self.queue.push(Reverse((spec.edge(0), id.0)));
        self.domains.push(DomainState {
            spec,
            next_edge: 0,
            modules: Vec::new(),
        });
        id
    }

    /// Allocates a wire carrying `V::default()` until first driven.
    pub fn add_wire(&mut self, name: impl Into<String>) -> Wire<V> {
        self.signals.add_wire(name)
    }

    /// Registers `module` to run on every rising edge of `domain`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has already advanced past the domain's
    /// first edge: adding modules mid-flight would make their state lag
    /// their clock.
    pub fn add_module(&mut self, domain: DomainId, module: impl Module<Value = V> + 'static) {
        let state = &mut self.domains[domain.0];
        assert!(
            state.next_edge == 0,
            "cannot add module '{}' to {domain} after its clock started",
            module.name()
        );
        state.modules.push(Box::new(module));
    }

    /// The current simulation time (time of the most recent edge).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of clock edges processed so far.
    #[must_use]
    pub fn edges_processed(&self) -> u64 {
        self.edges_processed
    }

    /// Read-only access to the wire store, for probing from testbenches.
    #[must_use]
    pub fn signals(&self) -> &SignalStore<V> {
        &self.signals
    }

    /// Runs all edges with time ≤ `deadline`.
    ///
    /// Returns the number of edges processed. Safe to call repeatedly with
    /// increasing deadlines.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut processed = 0;
        while let Some(&Reverse((t, _))) = self.queue.peek() {
            if t > deadline {
                break;
            }
            processed += self.step();
        }
        processed
    }

    /// Processes the single next instant at which any domain has an edge,
    /// running every module due at that instant and committing writes.
    ///
    /// Returns the number of edges (domains) processed, or 0 if no domains
    /// are registered.
    pub fn step(&mut self) -> u64 {
        let Some(&Reverse((t, _))) = self.queue.peek() else {
            return 0;
        };

        // Collect every domain with an edge exactly at `t` into the
        // reusable scratch (no per-step allocation once warm).
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        while let Some(&Reverse((ti, d))) = self.queue.peek() {
            if ti != t {
                break;
            }
            self.queue.pop();
            due.push(d);
        }

        self.now = t;

        // Phase 1: run all modules of all due domains; reads see pre-edge
        // values, writes are buffered in the signal store.
        for &d in &due {
            let DomainState {
                spec: _,
                next_edge,
                modules,
            } = &mut self.domains[d];
            let cycle = *next_edge;
            for module in modules.iter_mut() {
                let mut ctx = EdgeContext::new(&mut self.signals, t, cycle);
                module.on_edge(&mut ctx);
            }
        }

        // Phase 2: commit all writes at once (register semantics).
        self.signals.commit();

        // Reschedule each due domain for its next edge.
        for &d in &due {
            let state = &mut self.domains[d];
            state.next_edge += 1;
            self.queue
                .push(Reverse((state.spec.edge(state.next_edge), d)));
        }

        let n = due.len() as u64;
        self.edges_processed += n;
        self.due_scratch = due;
        n
    }
}

impl<V: Copy + Default> Default for Simulator<V> {
    fn default() -> Self {
        Simulator::new()
    }
}

impl<V> core::fmt::Debug for Simulator<V> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("domains", &self.domains.len())
            .field("edges_processed", &self.edges_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Frequency, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Counter {
        out: Wire<u32>,
    }
    impl Module for Counter {
        type Value = u32;
        fn name(&self) -> &str {
            "counter"
        }
        fn on_edge(&mut self, ctx: &mut EdgeContext<'_, u32>) {
            let v = ctx.read(self.out);
            ctx.write(self.out, v + 1);
        }
    }

    /// Samples a wire at each edge and records what it saw.
    struct Sampler {
        input: Wire<u32>,
        log: Rc<RefCell<Vec<(SimTime, u32)>>>,
    }
    impl Module for Sampler {
        type Value = u32;
        fn name(&self) -> &str {
            "sampler"
        }
        fn on_edge(&mut self, ctx: &mut EdgeContext<'_, u32>) {
            self.log
                .borrow_mut()
                .push((ctx.time(), ctx.read(self.input)));
        }
    }

    #[test]
    fn single_domain_counts_edges() {
        let mut sim: Simulator<u32> = Simulator::new();
        let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        let out = sim.add_wire("count");
        sim.add_module(clk, Counter { out });
        let n = sim.run_until(SimTime::from_ns(10));
        // Edges at 0, 2, 4, 6, 8, 10 ns -> 6 edges.
        assert_eq!(n, 6);
        assert_eq!(sim.signals().read(out), 6);
        assert_eq!(sim.now(), SimTime::from_ns(10));
        assert_eq!(sim.edges_processed(), 6);
    }

    #[test]
    fn coincident_edges_have_register_semantics() {
        // Producer and consumer in two *synchronous* domains: the sampler
        // must always see the value from the previous edge, never the value
        // written at the same instant — regardless of registration order.
        for order_flipped in [false, true] {
            let mut sim: Simulator<u32> = Simulator::new();
            let d1 = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
            let d2 = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
            let wire = sim.add_wire("w");
            let log = Rc::new(RefCell::new(Vec::new()));
            if order_flipped {
                sim.add_module(
                    d2,
                    Sampler {
                        input: wire,
                        log: Rc::clone(&log),
                    },
                );
                sim.add_module(d1, Counter { out: wire });
            } else {
                sim.add_module(d1, Counter { out: wire });
                sim.add_module(
                    d2,
                    Sampler {
                        input: wire,
                        log: Rc::clone(&log),
                    },
                );
            }
            sim.run_until(SimTime::from_ns(6));
            let seen: Vec<u32> = log.borrow().iter().map(|&(_, v)| v).collect();
            // At edge k the sampler sees the counter value committed at
            // edge k-1, i.e. k.
            assert_eq!(seen, vec![0, 1, 2, 3], "flipped={order_flipped}");
        }
    }

    #[test]
    fn phase_shifted_domain_samples_between_edges() {
        let mut sim: Simulator<u32> = Simulator::new();
        let producer = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        // Sampler clock lags by half a period (the paper's worst-case skew).
        let sampler_clk = sim.add_domain(
            ClockSpec::new(Frequency::from_mhz(500)).with_phase(SimDuration::from_ps(1_000)),
        );
        let wire = sim.add_wire("w");
        sim.add_module(producer, Counter { out: wire });
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.add_module(
            sampler_clk,
            Sampler {
                input: wire,
                log: Rc::clone(&log),
            },
        );
        sim.run_until(SimTime::from_ns(5));
        // Sampler edges at 1, 3, 5 ns see counts committed at 0, 2, 4 ns.
        let seen: Vec<u32> = log.borrow().iter().map(|&(_, v)| v).collect();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn plesiochronous_domains_interleave() {
        let mut sim: Simulator<u32> = Simulator::new();
        let slow = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)).with_ppm(-10_000));
        let fast = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)).with_ppm(10_000));
        let a = sim.add_wire("a");
        let b = sim.add_wire("b");
        sim.add_module(slow, Counter { out: a });
        sim.add_module(fast, Counter { out: b });
        sim.run_until(SimTime::from_us(1));
        let slow_count = sim.signals().read(a);
        let fast_count = sim.signals().read(b);
        // 1 us at ~500 MHz is ~500 cycles; the 2% total offset must show.
        assert!(fast_count > slow_count, "{fast_count} vs {slow_count}");
        assert!(slow_count >= 495 && fast_count <= 506);
    }

    #[test]
    #[should_panic(expected = "after its clock started")]
    fn adding_module_after_start_panics() {
        let mut sim: Simulator<u32> = Simulator::new();
        let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        let out = sim.add_wire("count");
        sim.add_module(clk, Counter { out });
        sim.step();
        sim.add_module(clk, Counter { out });
    }

    #[test]
    fn step_with_no_domains_returns_zero() {
        let mut sim: Simulator<u32> = Simulator::new();
        assert_eq!(sim.step(), 0);
        assert_eq!(sim.run_until(SimTime::from_ns(100)), 0);
    }

    #[test]
    fn debug_format_is_nonempty() {
        let sim: Simulator<u32> = Simulator::new();
        assert!(!format!("{sim:?}").is_empty());
    }
}
