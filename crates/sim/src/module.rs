//! The module trait implemented by every clocked hardware model.

use crate::signal::{SignalStore, Wire};
use crate::time::SimTime;

/// One clocked hardware block (a router, a link-stage FSM, an NI, ...).
///
/// A module is registered with a [`Simulator`](crate::scheduler::Simulator)
/// in exactly one clock domain and has its [`on_edge`](Module::on_edge)
/// called once per rising edge of that domain's clock. Inside `on_edge` the
/// module reads its input wires (seeing values committed before this edge)
/// and writes its output wires (visible to others only after this edge) —
/// exactly the semantics of flip-flop based synchronous hardware.
///
/// Modules that need to expose results to the testbench (e.g. traffic sinks
/// recording arrival timestamps) should share an
/// [`Rc<RefCell<_>>`](std::rc::Rc) handle with their creator rather than
/// relying on downcasting.
pub trait Module {
    /// The value type carried by the wires this module connects to.
    type Value: Copy + Default;

    /// A diagnostic name for error messages and traces.
    fn name(&self) -> &str;

    /// Called once per rising clock edge of the module's domain.
    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, Self::Value>);
}

/// Execution context handed to [`Module::on_edge`].
///
/// Provides register-semantics access to the wire store plus the current
/// simulated time and the module-domain cycle count.
#[derive(Debug)]
pub struct EdgeContext<'a, V> {
    signals: &'a mut SignalStore<V>,
    time: SimTime,
    cycle: u64,
}

impl<'a, V: Copy + Default> EdgeContext<'a, V> {
    pub(crate) fn new(signals: &'a mut SignalStore<V>, time: SimTime, cycle: u64) -> Self {
        EdgeContext {
            signals,
            time,
            cycle,
        }
    }

    /// The value committed on `wire` before this edge.
    #[must_use]
    pub fn read(&self, wire: Wire<V>) -> V {
        self.signals.read(wire)
    }

    /// Drives `wire` with `value`; becomes visible after this edge.
    ///
    /// # Panics
    ///
    /// Panics if another module already drove `wire` at this instant.
    pub fn write(&mut self, wire: Wire<V>, value: V) {
        self.signals.write(wire, value);
    }

    /// The absolute simulation time of this edge.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The 0-based index of this edge within the module's clock domain.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Passthrough {
        input: Wire<u32>,
        output: Wire<u32>,
    }

    impl Module for Passthrough {
        type Value = u32;
        fn name(&self) -> &str {
            "passthrough"
        }
        fn on_edge(&mut self, ctx: &mut EdgeContext<'_, u32>) {
            let v = ctx.read(self.input);
            ctx.write(self.output, v + 1);
        }
    }

    #[test]
    fn context_reads_committed_and_buffers_writes() {
        let mut store: SignalStore<u32> = SignalStore::new();
        let input = store.add_wire("in");
        let output = store.add_wire("out");
        store.write(input, 5);
        store.commit();

        let mut module = Passthrough { input, output };
        let mut ctx = EdgeContext::new(&mut store, SimTime::from_ns(1), 3);
        assert_eq!(ctx.time(), SimTime::from_ns(1));
        assert_eq!(ctx.cycle(), 3);
        module.on_edge(&mut ctx);

        // Write not yet visible.
        assert_eq!(store.read(output), 0);
        store.commit();
        assert_eq!(store.read(output), 6);
    }
}
