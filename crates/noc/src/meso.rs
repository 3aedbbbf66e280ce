//! The mesochronous link pipeline stage (paper Section V, Fig 3).
//!
//! Between a sender and a receiver that share a nominal frequency but have
//! an arbitrary (bounded) phase difference, the stage places:
//!
//! * a **bi-synchronous FIFO** written with the sender's clock (sourced
//!   along with the data, so it sees the same propagation delay) and read
//!   with the receiver's clock \[14\]\[18\]; and
//! * an **FSM** in the receiver's domain that tracks the position within
//!   the current flit (states 0, 1, 2) and, when the FIFO holds at least
//!   one word at the start of a flit cycle (state 0), forwards one word
//!   per cycle for the following 3 cycles — like a dataflow actor firing.
//!
//! The result: a flit always takes **exactly 3 receiver-clock cycles** to
//! traverse the link, re-aligned to the receiver's flit-cycle boundaries.
//! The extra slot this consumes is accounted for by the allocator
//! (`NocConfig::slots_per_hop`). Under the paper's assumptions (skew at
//! most half a cycle, FIFO forwarding delay below the flit size, one word
//! per cycle nominal rate) the 4-word FIFO can never fill, so it generates
//! no full/accept signal — all handshakes are local. This model panics on
//! overflow rather than dropping data, making any violation of the sizing
//! argument impossible to miss.
//!
//! The stage is split into two [`Module`]s sharing the FIFO: a
//! [`MesoWriter`] in the sender's domain (the input register moved onto
//! the link, Fig 2) and a [`MesoFsm`] in the receiver's domain.

use crate::phit::LinkWord;
use aelite_sim::bisync::{BisyncFifo, SharedBisync};
use aelite_sim::module::{EdgeContext, Module};
use aelite_sim::signal::Wire;
use aelite_sim::time::SimDuration;

/// Default FIFO capacity, per the paper: "the FIFO is chosen with
/// sufficient storage capacity to never be full (4 words)".
pub const MESO_FIFO_WORDS: usize = 4;

/// Builds the shared FIFO for one link stage.
///
/// `forward_delay` models the synchroniser latency of the bi-synchronous
/// FIFO (1–2 cycles in \[14\]/\[18\]); express it in time units of the
/// writer's clock period.
#[must_use]
pub fn meso_fifo(name: impl Into<String>, forward_delay: SimDuration) -> SharedBisync<LinkWord> {
    SharedBisync::new(BisyncFifo::new(name, MESO_FIFO_WORDS, forward_delay))
}

/// Sender-side half of the link stage: samples the upstream wire with the
/// clock sourced along with the data and writes valid words into the FIFO.
#[derive(Debug)]
pub struct MesoWriter {
    name: String,
    input: Wire<LinkWord>,
    fifo: SharedBisync<LinkWord>,
}

impl MesoWriter {
    /// Creates the writer for `input`, pushing into `fifo`.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        input: Wire<LinkWord>,
        fifo: SharedBisync<LinkWord>,
    ) -> Self {
        MesoWriter {
            name: name.into(),
            input,
            fifo,
        }
    }
}

impl Module for MesoWriter {
    type Value = LinkWord;

    fn name(&self) -> &str {
        &self.name
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        let word = ctx.read(self.input);
        if word.valid {
            let now = ctx.time();
            self.fifo.with(|f| f.push(now, word));
        }
    }
}

/// Receiver-side half: the flit-cycle re-aligning FSM.
#[derive(Debug)]
pub struct MesoFsm {
    name: String,
    fifo: SharedBisync<LinkWord>,
    output: Wire<LinkWord>,
    flit_words: u32,
    /// Whether the FSM decided to forward during the current flit cycle.
    forwarding: bool,
}

impl MesoFsm {
    /// Creates the FSM reading `fifo` and driving `output` in the
    /// receiver's clock domain.
    ///
    /// # Panics
    ///
    /// Panics if `flit_words` is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        fifo: SharedBisync<LinkWord>,
        output: Wire<LinkWord>,
        flit_words: u32,
    ) -> Self {
        assert!(flit_words > 0, "flit must have at least one word");
        MesoFsm {
            name: name.into(),
            fifo,
            output,
            flit_words,
            forwarding: false,
        }
    }
}

impl Module for MesoFsm {
    type Value = LinkWord;

    fn name(&self) -> &str {
        &self.name
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        let state = ctx.cycle() % u64::from(self.flit_words);
        let now = ctx.time();
        if state == 0 {
            // Fire if the FIFO holds at least one word (valid high) at the
            // start of a flit cycle.
            self.forwarding = self.fifo.with(|f| f.front_visible(now).is_some());
        }
        if self.forwarding {
            let word = self.fifo.with(|f| f.pop_visible(now)).unwrap_or_else(|| {
                panic!(
                    "{}: FIFO underrun mid-flit — sender did not deliver one \
                     word per cycle (nominal-rate assumption violated)",
                    self.name
                )
            });
            ctx.write(self.output, word);
        } else {
            ctx.write(self.output, LinkWord::idle());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{self, record_log, Feeder, Recorder};
    use aelite_sim::clock::ClockSpec;
    use aelite_sim::scheduler::Simulator;
    use aelite_sim::time::{Frequency, SimTime};
    use aelite_spec::ids::Port;
    use std::rc::Rc;

    fn flit(tag: u64) -> Vec<LinkWord> {
        testbench::flit(&[Port(0)], 0, tag)
    }

    /// Sender at phase 0, receiver at `skew_ps`; returns (cycle, word)
    /// pairs seen by a receiver-domain recorder after the FSM.
    fn run_with_skew(skew_ps: u64, script: Vec<LinkWord>) -> Vec<(u64, LinkWord)> {
        let f = Frequency::from_mhz(500); // 2000 ps period
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let tx = sim.add_domain(ClockSpec::new(f));
        let rx = sim.add_domain(ClockSpec::new(f).with_phase(SimDuration::from_ps(skew_ps)));
        let link_in = sim.add_wire("link_in");
        let link_out = sim.add_wire("link_out");
        let fifo = meso_fifo("stage", f.period()); // 1-cycle synchroniser
        sim.add_module(tx, Feeder::new(link_in, script));
        sim.add_module(tx, MesoWriter::new("wr", link_in, fifo.clone()));
        sim.add_module(rx, MesoFsm::new("fsm", fifo, link_out, 3));
        let log = record_log();
        sim.add_module(rx, Recorder::new(link_out, Rc::clone(&log)));
        sim.run_until(SimTime::from_ns(200));
        let result = log.borrow().clone();
        result
    }

    #[test]
    fn flit_arrives_aligned_to_receiver_flit_cycle() {
        for skew in [0u64, 250, 500, 750, 999] {
            let log = run_with_skew(skew, flit(10));
            assert_eq!(log.len(), 3, "skew {skew}: {log:?}");
            // Words occupy three consecutive receiver cycles; the FSM
            // drives them starting at a flit-cycle boundary, which the
            // recorder (one register later) sees at cycle 1 mod 3.
            assert_eq!(log[0].0 % 3, 1, "skew {skew}: unaligned start {log:?}");
            assert_eq!(log[1].0, log[0].0 + 1);
            assert_eq!(log[2].0, log[0].0 + 2);
            assert!(log[2].1.eop);
        }
    }

    #[test]
    fn traversal_is_constant_regardless_of_skew() {
        // The arrival flit-cycle must be the same for every legal skew —
        // that is what makes the NoC conceivable as globally flit-
        // synchronous (paper Section V).
        let mut starts = Vec::new();
        for skew in [1u64, 300, 600, 999] {
            let log = run_with_skew(skew, flit(0));
            starts.push(log[0].0);
        }
        assert!(
            starts.windows(2).all(|w| w[0] == w[1]),
            "arrival flit cycle varies with skew: {starts:?}"
        );
    }

    #[test]
    fn back_to_back_flits_stream_without_gaps() {
        let mut script = flit(0);
        script.extend(flit(10));
        script.extend(flit(20));
        let log = run_with_skew(700, script);
        assert_eq!(log.len(), 9);
        let first = log[0].0;
        let cycles: Vec<u64> = log.iter().map(|&(c, _)| c).collect();
        let expect: Vec<u64> = (first..first + 9).collect();
        assert_eq!(cycles, expect, "streaming flits must be gapless");
    }

    #[test]
    fn gap_between_flits_preserves_alignment() {
        let mut script = flit(0);
        script.extend(vec![LinkWord::idle(); 3]); // one empty slot
        script.extend(flit(10));
        let log = run_with_skew(500, script);
        assert_eq!(log.len(), 6);
        assert_eq!(log[3].0 - log[0].0, 6, "second flit must be one slot later");
        assert_eq!(log[3].0 % 3, 1);
    }

    #[test]
    fn fifo_never_exceeds_paper_capacity() {
        let f = Frequency::from_mhz(500);
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let tx = sim.add_domain(ClockSpec::new(f));
        let rx = sim.add_domain(ClockSpec::new(f).with_phase(SimDuration::from_ps(999)));
        let link_in = sim.add_wire("in");
        let link_out = sim.add_wire("out");
        let fifo = meso_fifo("stage", f.period());
        let mut script = Vec::new();
        for i in 0..20 {
            script.extend(flit(i * 10));
        }
        sim.add_module(tx, Feeder::new(link_in, script));
        sim.add_module(tx, MesoWriter::new("wr", link_in, fifo.clone()));
        sim.add_module(rx, MesoFsm::new("fsm", fifo.clone(), link_out, 3));
        sim.run_until(SimTime::from_ns(400));
        // Saturated streaming for 60 words: occupancy stayed within the
        // paper's 4-word sizing (push would have panicked otherwise).
        let max = fifo.with(|f| f.max_occupancy());
        assert!(max <= MESO_FIFO_WORDS, "max occupancy {max}");
        assert_eq!(fifo.with(|f| f.total_pushed()), 60);
    }

    #[test]
    fn two_stages_in_sequence_compose() {
        // Paper: "It is also possible to place multiple link pipeline
        // stages in sequence." Each stage adds one flit cycle.
        let f = Frequency::from_mhz(500);
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let tx = sim.add_domain(ClockSpec::new(f));
        let mid = sim.add_domain(ClockSpec::new(f).with_phase(SimDuration::from_ps(400)));
        let rx = sim.add_domain(ClockSpec::new(f).with_phase(SimDuration::from_ps(900)));
        let w0 = sim.add_wire("w0");
        let w1 = sim.add_wire("w1");
        let w2 = sim.add_wire("w2");
        let f0 = meso_fifo("s0", f.period());
        let f1 = meso_fifo("s1", f.period());
        sim.add_module(tx, Feeder::new(w0, flit(5)));
        sim.add_module(tx, MesoWriter::new("wr0", w0, f0.clone()));
        sim.add_module(mid, MesoFsm::new("fsm0", f0, w1, 3));
        sim.add_module(mid, MesoWriter::new("wr1", w1, f1.clone()));
        sim.add_module(rx, MesoFsm::new("fsm1", f1, w2, 3));
        let log = record_log();
        sim.add_module(rx, Recorder::new(w2, Rc::clone(&log)));
        sim.run_until(SimTime::from_ns(200));
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0 % 3, 1, "two-stage output still flit-aligned");
    }

    #[test]
    fn flits_forwarded_counts() {
        let fifo = meso_fifo("x", SimDuration::ZERO);
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        let out = sim.add_wire("o");
        sim.add_module(clk, MesoFsm::new("fsm", fifo.clone(), out, 3));
        sim.run_until(SimTime::from_ns(20));
        // No input -> still zero flits, wire stays idle.
        assert!(!sim.signals().read(out).valid);
    }
}
