//! The asynchronous wrapper (paper Section VI, Fig 4).
//!
//! For plesiochronous (or heterochronous) elements, mesochronous link
//! stages are not enough: faster elements must be *stalled* so that input
//! and output stay flit-synchronous relative to their neighbours. The
//! wrapper turns routers and NIs into stallable processes that behave like
//! dataflow actors:
//!
//! * each router port gets a **Port Interface** — Input PIs count available
//!   flits, Output PIs count unreserved space (decremented at *fire* time,
//!   the paper's early reservation, so the router's forwarding delay can
//!   never overflow an output FIFO);
//! * the **Port Interface Controller** fires once *all* PIs can fire: every
//!   input holds at least one flit and every output has space for one;
//! * when an element has nothing useful to send it emits an **empty
//!   token**, whose only purpose is synchronising the neighbour;
//! * at reset, channels are pre-filled with initial empty tokens —
//!   without them the system deadlocks (paper Section VI).
//!
//! Following the paper's own framing ("the flit thus corresponds to a
//! token in the dataflow model, and every PI is a firing rule"), this
//! model works at whole-flit (token) granularity: one firing moves one
//! token per port. The word-level data path inside a firing is untimed —
//! the firing times carry all the semantics the paper argues about (rate,
//! composability, deadlock freedom).
//!
//! A wrapped element attempts to fire once per flit cycle (every
//! `flit_words` local clock cycles); stalling means skipping the attempt
//! until all firing rules hold. Consequently the NoC runs at the rate of
//! its slowest element (paper Section VI-A) — measured by experiment W1.

use crate::phit::{LinkWord, Payload};
use aelite_sim::bisync::{BisyncFifo, SharedBisync};
use aelite_sim::module::{EdgeContext, Module};
use aelite_sim::time::{SimDuration, SimTime};
use aelite_spec::ids::ConnId;
use std::collections::VecDeque;

/// One dataflow token: a whole flit, possibly empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitToken {
    /// The three words of the flit; all-idle for an empty token.
    pub words: [LinkWord; 3],
}

impl FlitToken {
    /// The empty (synchronisation-only) token.
    #[must_use]
    pub fn empty() -> Self {
        FlitToken {
            words: [LinkWord::idle(); 3],
        }
    }

    /// A data token from three words.
    #[must_use]
    pub fn new(words: [LinkWord; 3]) -> Self {
        FlitToken { words }
    }

    /// Whether this token carries any valid word.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| !w.valid)
    }
}

impl Default for FlitToken {
    fn default() -> Self {
        FlitToken::empty()
    }
}

/// An asynchronous link between wrapped elements: a token channel.
pub type TokenChannel = SharedBisync<FlitToken>;

/// Creates a token channel of `capacity` tokens with `latency` transfer
/// delay, pre-filled with `reset_tokens` empty tokens (paper: "a few
/// cycles are spent at reset to produce initial empty tokens ...
/// otherwise, the system deadlocks").
///
/// # Panics
///
/// Panics if `reset_tokens` exceeds `capacity`.
#[must_use]
pub fn token_channel(
    name: impl Into<String>,
    capacity: usize,
    latency: SimDuration,
    reset_tokens: usize,
) -> TokenChannel {
    assert!(reset_tokens <= capacity, "reset tokens exceed capacity");
    // Reset tokens are pushed at time zero and, like all tokens, become
    // visible one channel latency later — the paper's "a few cycles are
    // spent at reset to produce initial empty tokens".
    let mut fifo = BisyncFifo::new(name, capacity, latency);
    for _ in 0..reset_tokens {
        fifo.push(SimTime::ZERO, FlitToken::empty());
    }
    SharedBisync::new(fifo)
}

/// A router wrapped for asynchronous operation.
///
/// Inputs and outputs are [`TokenChannel`]s instead of wires; routing uses
/// the same HPU semantics as [`Router`](crate::router::Router) but at
/// token granularity (the route's front hop is popped from the head word).
#[derive(Debug)]
pub struct AsyncRouter {
    name: String,
    inputs: Vec<TokenChannel>,
    outputs: Vec<TokenChannel>,
    flit_words: u32,
    firings: u64,
    stalls: u64,
}

impl AsyncRouter {
    /// Creates a wrapped router.
    ///
    /// # Panics
    ///
    /// Panics if ports are empty or arity exceeds 8.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<TokenChannel>,
        outputs: Vec<TokenChannel>,
        flit_words: u32,
    ) -> Self {
        assert!(
            !inputs.is_empty() && !outputs.is_empty(),
            "router needs ports"
        );
        assert!(outputs.len() <= 8, "arity exceeds 3-bit port encoding");
        AsyncRouter {
            name: name.into(),
            inputs,
            outputs,
            flit_words,
            firings: 0,
            stalls: 0,
        }
    }

    /// Completed firings (flit cycles that actually advanced).
    #[must_use]
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// Attempts that stalled on a firing rule.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

impl Module for AsyncRouter {
    type Value = LinkWord;

    fn name(&self) -> &str {
        &self.name
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        // One firing attempt per local flit cycle.
        if ctx.cycle() % u64::from(self.flit_words) != 0 {
            return;
        }
        let now = ctx.time();
        // PIC firing rule: all IPIs hold a flit, all OPIs have space.
        let inputs_ready = self
            .inputs
            .iter()
            .all(|ch| ch.with(|f| f.front_visible(now).is_some()));
        let outputs_ready = self
            .outputs
            .iter()
            .all(|ch| ch.with(|f| f.occupancy() < f.capacity()));
        if !inputs_ready || !outputs_ready {
            self.stalls += 1;
            return;
        }
        self.firings += 1;

        // Fire: consume one token per input, route, emit one per output.
        let mut out_tokens: Vec<Option<FlitToken>> = vec![None; self.outputs.len()];
        for (i, ch) in self.inputs.iter().enumerate() {
            let mut token = ch
                .with(|f| f.pop_visible(now))
                .expect("firing rule checked input");
            if token.is_empty() {
                continue;
            }
            let port = match &mut token.words[0].payload {
                Payload::Head(header) => header.route.pop_port(),
                other => panic!(
                    "{}: token on input {i} starts with {other:?}, not a header",
                    self.name
                ),
            };
            assert!(
                port.index() < self.outputs.len(),
                "{}: route selects missing output {port}",
                self.name
            );
            assert!(
                out_tokens[port.index()].is_none(),
                "{}: contention on output {port} (TDM allocation violated)",
                self.name
            );
            out_tokens[port.index()] = Some(token);
        }
        for (o, tok) in out_tokens.into_iter().enumerate() {
            let t = tok.unwrap_or_else(FlitToken::empty);
            self.outputs[o].with(|f| f.push(now, t));
        }
    }
}

/// Traffic offered by a wrapped NI's local IP: a queue of ready flits.
pub type TokenQueue = std::rc::Rc<std::cell::RefCell<VecDeque<[LinkWord; 3]>>>;

/// Creates an empty token queue.
#[must_use]
pub fn token_queue() -> TokenQueue {
    std::rc::Rc::new(std::cell::RefCell::new(VecDeque::new()))
}

/// One delivery observed by a wrapped NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenDelivery {
    /// The connection the flit belongs to.
    pub conn: ConnId,
    /// The local firing index at which it arrived.
    pub firing: u64,
    /// Absolute arrival time.
    pub time: SimTime,
}

/// Shared log of wrapped-NI deliveries.
pub type TokenDeliveryLog = std::rc::Rc<std::cell::RefCell<Vec<TokenDelivery>>>;

/// Creates an empty delivery log.
#[must_use]
pub fn token_delivery_log() -> TokenDeliveryLog {
    std::rc::Rc::new(std::cell::RefCell::new(Vec::new()))
}

/// An NI wrapped for asynchronous operation: injects according to its TDM
/// table (the slot counter advances per *firing*, keeping the network
/// flit-synchronous), consumes arriving tokens, and always exchanges
/// exactly one token per firing with its router.
#[derive(Debug)]
pub struct AsyncNi {
    name: String,
    to_router: TokenChannel,
    from_router: TokenChannel,
    flit_words: u32,
    table_size: u32,
    /// slot -> queue to inject from (index into `queues`).
    slot_owner: Vec<Option<usize>>,
    queues: Vec<TokenQueue>,
    log: TokenDeliveryLog,
    firings: u64,
    stalls: u64,
}

impl AsyncNi {
    /// Creates a wrapped NI.
    ///
    /// `slots[i]` are the injection slots of `queues[i]`.
    ///
    /// # Panics
    ///
    /// Panics on overlapping or out-of-range slots, or mismatched
    /// `slots`/`queues` lengths.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        to_router: TokenChannel,
        from_router: TokenChannel,
        flit_words: u32,
        table_size: u32,
        slots: &[Vec<u32>],
        queues: Vec<TokenQueue>,
        log: TokenDeliveryLog,
    ) -> Self {
        assert_eq!(slots.len(), queues.len(), "one slot set per queue");
        let mut slot_owner = vec![None; table_size as usize];
        for (i, set) in slots.iter().enumerate() {
            for &s in set {
                assert!(s < table_size, "slot {s} out of range");
                assert!(slot_owner[s as usize].is_none(), "slot {s} claimed twice");
                slot_owner[s as usize] = Some(i);
            }
        }
        AsyncNi {
            name: name.into(),
            to_router,
            from_router,
            flit_words,
            table_size,
            slot_owner,
            queues,
            log,
            firings: 0,
            stalls: 0,
        }
    }

    /// Completed firings.
    #[must_use]
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// Stalled firing attempts.
    #[must_use]
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

impl Module for AsyncNi {
    type Value = LinkWord;

    fn name(&self) -> &str {
        &self.name
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        if ctx.cycle() % u64::from(self.flit_words) != 0 {
            return;
        }
        let now = ctx.time();
        let input_ready = self.from_router.with(|f| f.front_visible(now).is_some());
        let output_ready = self.to_router.with(|f| f.occupancy() < f.capacity());
        if !input_ready || !output_ready {
            self.stalls += 1;
            return;
        }
        // Consume the incoming token.
        let incoming = self
            .from_router
            .with(|f| f.pop_visible(now))
            .expect("firing rule checked input");
        if !incoming.is_empty() {
            let conn = match incoming.words[0].payload {
                Payload::Head(h) => {
                    assert_eq!(
                        h.route.remaining(),
                        0,
                        "{}: arrived with unconsumed route",
                        self.name
                    );
                    h.conn
                }
                other => panic!("{}: token starts with {other:?}", self.name),
            };
            self.log.borrow_mut().push(TokenDelivery {
                conn,
                firing: self.firings,
                time: now,
            });
        }

        // Emit this firing's token: data if the slot is ours and a flit is
        // queued, an empty token otherwise.
        let slot = (self.firings % u64::from(self.table_size)) as usize;
        let token = match self.slot_owner[slot] {
            Some(q) => match self.queues[q].borrow_mut().pop_front() {
                Some(words) => FlitToken::new(words),
                None => FlitToken::empty(),
            },
            None => FlitToken::empty(),
        };
        self.to_router.with(|f| f.push(now, token));
        self.firings += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phit::RouteBits;
    use aelite_sim::clock::ClockSpec;
    use aelite_sim::scheduler::Simulator;
    use aelite_sim::time::Frequency;
    use aelite_spec::ids::Port;

    fn data_flit(conn: u32, route: &[Port], tag: u64) -> [LinkWord; 3] {
        [
            LinkWord::head(RouteBits::from_ports(route), ConnId::new(conn)),
            LinkWord::data(tag, false),
            LinkWord::data(tag + 1, true),
        ]
    }

    /// Two wrapped NIs around one wrapped 2x2 router, each element in its
    /// own clock domain with the given ppm offsets.
    struct Bench {
        sim: Simulator<LinkWord>,
        q0: TokenQueue,
        log1: TokenDeliveryLog,
    }

    fn bench(ppm: [i64; 3]) -> Bench {
        let f = Frequency::from_mhz(500);
        let lat = SimDuration::from_ps(500);
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let d_ni0 = sim.add_domain(ClockSpec::new(f).with_ppm(ppm[0]));
        let d_r = sim.add_domain(ClockSpec::new(f).with_ppm(ppm[1]));
        let d_ni1 = sim.add_domain(ClockSpec::new(f).with_ppm(ppm[2]));

        // Channels (2 tokens deep, 1 reset token each).
        let ni0_r = token_channel("ni0->r", 2, lat, 1);
        let r_ni0 = token_channel("r->ni0", 2, lat, 1);
        let ni1_r = token_channel("ni1->r", 2, lat, 1);
        let r_ni1 = token_channel("r->ni1", 2, lat, 1);

        let q0 = token_queue();
        let q1 = token_queue();
        let log0 = token_delivery_log();
        let log1 = token_delivery_log();

        // NI0 owns slots {0, 2}, NI1 none (pure receiver), table size 4.
        sim.add_module(
            d_ni0,
            AsyncNi::new(
                "ni0",
                ni0_r.clone(),
                r_ni0.clone(),
                3,
                4,
                &[vec![0, 2]],
                vec![std::rc::Rc::clone(&q0)],
                log0,
            ),
        );
        sim.add_module(
            d_ni1,
            AsyncNi::new(
                "ni1",
                ni1_r.clone(),
                r_ni1.clone(),
                3,
                4,
                &[vec![]],
                vec![std::rc::Rc::clone(&q1)],
                std::rc::Rc::clone(&log1),
            ),
        );
        // Router: input 0 from NI0, input 1 from NI1; output 0 to NI0,
        // output 1 to NI1.
        sim.add_module(
            d_r,
            AsyncRouter::new("r", vec![ni0_r, ni1_r], vec![r_ni0, r_ni1], 3),
        );
        Bench { sim, q0, log1 }
    }

    #[test]
    fn tokens_flow_between_plesiochronous_elements() {
        let mut b = bench([-200, 0, 200]);
        for i in 0..5 {
            b.q0.borrow_mut()
                .push_back(data_flit(0, &[Port(1)], i * 10));
        }
        b.sim.run_until(aelite_sim::time::SimTime::from_us(2));
        let log = b.log1.borrow();
        assert_eq!(log.len(), 5, "all five flits must arrive: {log:?}");
        assert!(log.windows(2).all(|w| w[0].time < w[1].time));
    }

    #[test]
    fn no_deadlock_without_traffic() {
        // Empty-token synchronisation alone must keep firing forever.
        let mut b = bench([500, -500, 0]);
        b.sim.run_until(aelite_sim::time::SimTime::from_us(1));
        // Drive one late flit; it still arrives.
        b.q0.borrow_mut().push_back(data_flit(0, &[Port(1)], 1));
        b.sim.run_until(aelite_sim::time::SimTime::from_us(2));
        assert_eq!(b.log1.borrow().len(), 1);
    }

    #[test]
    fn network_runs_at_slowest_element_rate() {
        // NI0 is 2% slow; everyone else nominal. Throughput must track
        // the slowest clock (paper Section VI-A).
        let mut b = bench([-20_000, 0, 0]);
        for i in 0..200 {
            b.q0.borrow_mut().push_back(data_flit(0, &[Port(1)], i));
        }
        b.sim.run_until(aelite_sim::time::SimTime::from_us(20));
        let log = b.log1.borrow();
        assert_eq!(log.len(), 200, "all flits arrive");
        let first = log[0].time;
        let last = log[log.len() - 1].time;
        let span_ns = (last - first).as_ns_f64();
        // Each flit needs 2 firings of the slow NI (it owns 2 of 4
        // slots): 6 cycles of ~2 ns stretched by the -2% clock.
        let min_span = 199.0 * 6.0 * 2.0 / 0.98 * 0.95; // 5% tolerance
        assert!(
            span_ns > min_span,
            "deliveries too fast for the slowest element: {span_ns} vs {min_span}"
        );
    }

    #[test]
    fn empty_token_is_empty() {
        assert!(FlitToken::empty().is_empty());
        assert!(!FlitToken::new(data_flit(0, &[Port(0)], 0)).is_empty());
        assert_eq!(FlitToken::default(), FlitToken::empty());
    }

    #[test]
    fn full_output_stalls_router_without_panic() {
        let f = Frequency::from_mhz(500);
        let lat = SimDuration::from_ps(500);
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let d = sim.add_domain(ClockSpec::new(f));
        let input = token_channel("in", 8, lat, 8); // full of empties
        let output = token_channel("out", 2, lat, 2); // already full!
        sim.add_module(
            d,
            AsyncRouter::new("r", vec![input.clone()], vec![output], 3),
        );
        sim.run_until(aelite_sim::time::SimTime::from_ns(300));
        // The router could never fire: its input is still full.
        assert_eq!(input.with(|f| f.occupancy()), 8);
    }

    #[test]
    #[should_panic(expected = "reset tokens exceed capacity")]
    fn too_many_reset_tokens_rejected() {
        let _ = token_channel("bad", 2, SimDuration::ZERO, 3);
    }
}
