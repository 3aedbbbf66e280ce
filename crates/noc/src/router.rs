//! The aelite router: a 3-stage, arbiter-less, GS-only pipeline.
//!
//! Faithful to paper Section IV (Fig 2):
//!
//! 1. **Input stage** — one register per input port (the router's *only*
//!    buffering: one word per input).
//! 2. **HPU stage** — on a header word, the Header Parsing Unit pops the
//!    front 3 bits of the source route to select the output port and
//!    forwards the shifted header; the selected port is latched until the
//!    explicit end-of-packet signal. `valid`/`eop` are sideband signals, so
//!    no decoding sits on the critical path.
//! 3. **Switch stage** — output ports are driven from the one-hot encoded
//!    port selections. There is **no arbiter**: contention is impossible
//!    under a correct TDM allocation, and this model panics if two words
//!    ever target the same output in the same cycle — turning any
//!    allocation bug into an immediate, loud failure (the contention-free
//!    invariant `aelite_alloc::validate_allocation` checks statically).
//!
//! Three cycles after a flit is presented at an input, its first word
//! appears on the output — the open-headed arrow of Fig 2.

use crate::phit::{LinkWord, Payload};
use aelite_sim::module::{EdgeContext, Module};
use aelite_sim::signal::Wire;
use aelite_spec::ids::Port;

/// Cycle-accurate model of the aelite router.
///
/// Parametrisable in the number of input and output ports (potentially
/// different, as in the paper) and agnostic to data width — width only
/// affects the synthesis model, not behaviour.
#[derive(Debug)]
pub struct Router {
    name: String,
    inputs: Vec<Wire<LinkWord>>,
    outputs: Vec<Wire<LinkWord>>,
    /// Stage-1 registers: one word per input port.
    in_reg: Vec<LinkWord>,
    /// Stage-2 registers: word plus its one-hot output selection.
    hpu_reg: Vec<(LinkWord, Option<Port>)>,
    /// HPU state: the latched output port per input, valid until EoP.
    port_latch: Vec<Option<Port>>,
}

impl Router {
    /// Creates a router forwarding from `inputs` to `outputs`.
    ///
    /// # Panics
    ///
    /// Panics if there are no inputs, no outputs, or more than 8 outputs
    /// (the 3-bit route encoding bounds the arity, as in the paper).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<Wire<LinkWord>>,
        outputs: Vec<Wire<LinkWord>>,
    ) -> Self {
        assert!(!inputs.is_empty(), "router needs at least one input");
        assert!(!outputs.is_empty(), "router needs at least one output");
        assert!(
            outputs.len() <= 8,
            "router arity {} exceeds the 3-bit port encoding",
            outputs.len()
        );
        let n_in = inputs.len();
        Router {
            name: name.into(),
            inputs,
            outputs,
            in_reg: vec![LinkWord::idle(); n_in],
            hpu_reg: vec![(LinkWord::idle(), None); n_in],
            port_latch: vec![None; n_in],
        }
    }
}

impl Module for Router {
    type Value = LinkWord;

    fn name(&self) -> &str {
        &self.name
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        // ---- Stage 3: switch. Drive outputs from the HPU registers. ----
        let mut driven: Vec<Option<usize>> = vec![None; self.outputs.len()];
        for (input, (word, sel)) in self.hpu_reg.iter().enumerate() {
            if word.valid {
                let port = sel.expect("valid word with no output selection");
                assert!(
                    port.index() < self.outputs.len(),
                    "{}: route selects non-existent output {port}",
                    self.name
                );
                if let Some(prev) = driven[port.index()] {
                    panic!(
                        "{}: contention on output {port}: inputs p{prev} and p{input} \
                         in the same cycle (TDM allocation violated)",
                        self.name
                    );
                }
                driven[port.index()] = Some(input);
                ctx.write(self.outputs[port.index()], *word);
            }
        }
        for (o, d) in driven.iter().enumerate() {
            if d.is_none() {
                ctx.write(self.outputs[o], LinkWord::idle());
            }
        }

        // ---- Stage 2: HPU. Decode headers, latch ports until EoP. ----
        for (input, word) in self.in_reg.iter().enumerate() {
            let mut out_word = *word;
            let sel = if !word.valid {
                None
            } else {
                match word.payload {
                    Payload::Head(mut header) => {
                        let port = header.route.pop_port();
                        // Forward the *shifted* header, as the real HPU does.
                        out_word.payload = Payload::Head(header);
                        self.port_latch[input] = Some(port);
                        Some(port)
                    }
                    Payload::Data(_) | Payload::Idle => self.port_latch[input],
                }
            };
            if word.valid && word.eop {
                // Selected port holds for this word, then clears.
                self.port_latch[input] = None;
            }
            self.hpu_reg[input] = (out_word, sel);
        }

        // ---- Stage 1: sample inputs. ----
        for (i, &wire) in self.inputs.iter().enumerate() {
            self.in_reg[i] = ctx.read(wire);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbench::{flit, record_log, Feeder, RecordLog, Recorder};
    use aelite_sim::clock::ClockSpec;
    use aelite_sim::scheduler::Simulator;
    use aelite_sim::time::{Frequency, SimTime};
    use aelite_spec::ids::ConnId;
    use std::rc::Rc;

    struct Bench {
        sim: Simulator<LinkWord>,
        logs: Vec<RecordLog>,
    }

    /// One router with `n_in` scripted inputs and recorders on all outputs.
    fn bench(n_in: usize, n_out: usize, scripts: Vec<Vec<LinkWord>>) -> Bench {
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        let ins: Vec<_> = (0..n_in).map(|i| sim.add_wire(format!("in{i}"))).collect();
        let outs: Vec<_> = (0..n_out)
            .map(|o| sim.add_wire(format!("out{o}")))
            .collect();
        for (i, script) in scripts.into_iter().enumerate() {
            sim.add_module(clk, Feeder::new(ins[i], script));
        }
        let mut logs = Vec::new();
        for &o in &outs {
            let log = record_log();
            logs.push(Rc::clone(&log));
            sim.add_module(clk, Recorder::new(o, log));
        }
        sim.add_module(clk, Router::new("R0", ins, outs));
        Bench { sim, logs }
    }

    #[test]
    fn forwards_flit_in_three_cycles() {
        // Feeder writes the header at edge 0 (visible after edge 0). The
        // router samples it at edge 1, decodes at 2, drives output at 3;
        // the recorder sees it at edge 4: 3 router cycles after presentation.
        let mut b = bench(1, 2, vec![flit(&[Port(1)], 0, 100)]);
        b.sim.run_until(SimTime::from_ns(40));
        let log0 = b.logs[0].borrow();
        assert!(log0.is_empty(), "flit leaked to port 0: {log0:?}");
        let log1 = b.logs[1].borrow();
        assert_eq!(log1.len(), 3, "{log1:?}");
        assert_eq!(log1[0].0, 4); // header seen at recorder edge 4 = in(1)+3
        assert_eq!(log1[1].0, 5);
        assert_eq!(log1[2].0, 6);
        assert!(log1[2].1.eop);
    }

    #[test]
    fn hpu_shifts_route() {
        let mut b = bench(1, 2, vec![flit(&[Port(1), Port(3)], 7, 0)]);
        b.sim.run_until(SimTime::from_ns(40));
        let log = b.logs[1].borrow();
        match log[0].1.payload {
            Payload::Head(mut h) => {
                assert_eq!(h.route.remaining(), 1);
                assert_eq!(h.route.pop_port(), Port(3));
                assert_eq!(h.conn, ConnId::new(7));
            }
            other => panic!("expected shifted header, got {other:?}"),
        }
    }

    #[test]
    fn port_latch_holds_until_eop_then_clears() {
        // Two back-to-back packets to different outputs on one input.
        let mut script = flit(&[Port(0)], 1, 10);
        script.extend(flit(&[Port(1)], 2, 20));
        let mut b = bench(1, 2, vec![script]);
        b.sim.run_until(SimTime::from_ns(60));
        assert_eq!(b.logs[0].borrow().len(), 3);
        assert_eq!(b.logs[1].borrow().len(), 3);
    }

    #[test]
    fn parallel_streams_to_distinct_outputs() {
        // TDM-aligned traffic: two inputs, two outputs, no contention.
        let mut b = bench(2, 2, vec![flit(&[Port(0)], 1, 0), flit(&[Port(1)], 2, 100)]);
        b.sim.run_until(SimTime::from_ns(40));
        assert_eq!(b.logs[0].borrow().len(), 3);
        assert_eq!(b.logs[1].borrow().len(), 3);
    }

    #[test]
    #[should_panic(expected = "contention")]
    fn contention_is_detected_and_fatal() {
        // Both inputs target output 0 in the same cycle — exactly what a
        // broken TDM allocation would produce.
        let mut b = bench(2, 2, vec![flit(&[Port(0)], 1, 0), flit(&[Port(0)], 2, 100)]);
        b.sim.run_until(SimTime::from_ns(40));
    }

    #[test]
    fn idle_gaps_between_flits_are_preserved() {
        // A flit, 3 idle cycles, another flit: output shows the same gap.
        let mut script = flit(&[Port(0)], 1, 0);
        script.extend([LinkWord::idle(); 3]);
        script.extend(flit(&[Port(0)], 1, 50));
        let mut b = bench(1, 1, vec![script]);
        b.sim.run_until(SimTime::from_ns(60));
        let log = b.logs[0].borrow();
        assert_eq!(log.len(), 6);
        // First flit at cycles 4,5,6; second at 10,11,12.
        let cycles: Vec<u64> = log.iter().map(|&(c, _)| c).collect();
        assert_eq!(cycles, vec![4, 5, 6, 10, 11, 12]);
    }

    #[test]
    fn forwarded_statistics_count_words() {
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        let input = sim.add_wire("in");
        let out = sim.add_wire("out");
        sim.add_module(clk, Feeder::new(input, flit(&[Port(0)], 0, 0)));
        // The simulator owns the router, so count its words on the wire.
        let log = record_log();
        sim.add_module(clk, Recorder::new(out, Rc::clone(&log)));
        sim.add_module(clk, Router::new("R", vec![input], vec![out]));
        sim.run_until(SimTime::from_ns(40));
        assert_eq!(log.borrow().len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn router_needs_inputs() {
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let out = sim.add_wire("out");
        let _ = Router::new("R", vec![], vec![out]);
    }

    #[test]
    #[should_panic(expected = "exceeds the 3-bit port encoding")]
    fn router_arity_capped_at_8() {
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let input = sim.add_wire("in");
        let outs: Vec<_> = (0..9).map(|i| sim.add_wire(format!("o{i}"))).collect();
        let _ = Router::new("R", vec![input], outs);
    }
}
