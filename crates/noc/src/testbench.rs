//! Testbench building blocks: scripted drivers and recorders.
//!
//! Reusable [`Module`]s for the wire-level tests of the router, the
//! mesochronous link stage and `tests/proptest_hardware.rs`: a [`Feeder`]
//! plays a scripted word sequence onto a wire, a [`Recorder`] records
//! everything valid that appears on one, and [`flit`] builds a canonical
//! 3-word flit.

use crate::phit::{LinkWord, RouteBits};
use aelite_sim::module::{EdgeContext, Module};
use aelite_sim::signal::Wire;
use aelite_spec::ids::{ConnId, Port};
use std::cell::RefCell;
use std::rc::Rc;

/// Builds one 3-word flit: header (route, connection) + two data words,
/// the second carrying EoP.
#[must_use]
pub fn flit(route: &[Port], conn: u32, tag: u64) -> Vec<LinkWord> {
    vec![
        LinkWord::head(RouteBits::from_ports(route), ConnId::new(conn)),
        LinkWord::data(tag, false),
        LinkWord::data(tag + 1, true),
    ]
}

/// Drives a scripted word sequence onto a wire, one word per edge,
/// then idles.
#[derive(Debug)]
pub struct Feeder {
    output: Wire<LinkWord>,
    script: Vec<LinkWord>,
    at: usize,
}

impl Feeder {
    /// Creates a feeder playing `script` onto `output` from edge 0.
    #[must_use]
    pub fn new(output: Wire<LinkWord>, script: Vec<LinkWord>) -> Self {
        Feeder {
            output,
            script,
            at: 0,
        }
    }
}

impl Module for Feeder {
    type Value = LinkWord;

    fn name(&self) -> &str {
        "feeder"
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        let w = self.script.get(self.at).copied().unwrap_or_default();
        ctx.write(self.output, w);
        self.at += 1;
    }
}

/// The `(cycle, word)` records captured by a [`Recorder`].
pub type RecordLog = Rc<RefCell<Vec<(u64, LinkWord)>>>;

/// Creates an empty record log.
#[must_use]
pub fn record_log() -> RecordLog {
    Rc::new(RefCell::new(Vec::new()))
}

/// Records every valid word appearing on a wire, with its local cycle.
#[derive(Debug)]
pub struct Recorder {
    input: Wire<LinkWord>,
    log: RecordLog,
}

impl Recorder {
    /// Creates a recorder on `input` appending to `log`.
    #[must_use]
    pub fn new(input: Wire<LinkWord>, log: RecordLog) -> Self {
        Recorder { input, log }
    }
}

impl Module for Recorder {
    type Value = LinkWord;

    fn name(&self) -> &str {
        "recorder"
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        let w = ctx.read(self.input);
        if w.valid {
            self.log.borrow_mut().push((ctx.cycle(), w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_sim::clock::ClockSpec;
    use aelite_sim::scheduler::Simulator;
    use aelite_sim::time::{Frequency, SimTime};

    #[test]
    fn feeder_plays_script_then_idles() {
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        let wire = sim.add_wire("w");
        let log = record_log();
        sim.add_module(clk, Feeder::new(wire, flit(&[Port(0)], 3, 7)));
        sim.add_module(clk, Recorder::new(wire, Rc::clone(&log)));
        sim.run_until(SimTime::from_ns(40));
        let log = log.borrow();
        assert_eq!(log.len(), 3, "{log:?}");
        // The recorder samples one cycle after the feeder drives.
        assert_eq!(log[0].0, 1);
        assert!(log[0].1.is_head());
        assert!(log[2].1.eop);
    }

    #[test]
    fn flit_builder_shape() {
        let f = flit(&[Port(1), Port(2)], 9, 100);
        assert_eq!(f.len(), 3);
        assert!(f[0].is_head());
        assert!(!f[1].eop && f[2].eop);
    }
}
