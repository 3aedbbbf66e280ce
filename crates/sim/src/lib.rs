//! # aelite-sim — multi-clock-domain discrete-event simulation kernel
//!
//! The substrate beneath the aelite NoC models: a small, deterministic,
//! single-threaded simulation kernel for globally-asynchronous
//! locally-synchronous (GALS) hardware.
//!
//! * [`time`] — femtosecond-resolution instants, durations and frequencies.
//! * [`clock`] — clock domains with phase offsets (mesochronous) and ppm
//!   drift (plesiochronous).
//! * [`signal`] — typed wires with register semantics.
//! * [`module`] — the [`module::Module`] trait implemented by every
//!   clocked hardware model.
//! * [`scheduler`] — the [`scheduler::Simulator`] event loop.
//! * [`bisync`] — the behavioural bi-synchronous FIFO used for every clock
//!   domain crossing in aelite.
//!
//! # Examples
//!
//! A two-domain system where a producer runs on one clock and is observed
//! on a mesochronous clock (same frequency, different phase):
//!
//! ```
//! use aelite_sim::clock::ClockSpec;
//! use aelite_sim::module::{EdgeContext, Module};
//! use aelite_sim::scheduler::Simulator;
//! use aelite_sim::signal::Wire;
//! use aelite_sim::time::{Frequency, SimDuration, SimTime};
//!
//! struct Producer {
//!     out: Wire<u32>,
//! }
//! impl Module for Producer {
//!     type Value = u32;
//!     fn name(&self) -> &str {
//!         "producer"
//!     }
//!     fn on_edge(&mut self, ctx: &mut EdgeContext<'_, u32>) {
//!         let next = ctx.read(self.out) + 1;
//!         ctx.write(self.out, next);
//!     }
//! }
//!
//! let mut sim: Simulator<u32> = Simulator::new();
//! let f = Frequency::from_mhz(500);
//! let tx = sim.add_domain(ClockSpec::new(f));
//! let _rx = sim.add_domain(ClockSpec::new(f).with_phase(SimDuration::from_ps(777)));
//! let w = sim.add_wire("data");
//! sim.add_module(tx, Producer { out: w });
//! sim.run_until(SimTime::from_ns(100));
//! assert!(sim.signals().read(w) > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bisync;
pub mod clock;
pub mod module;
pub mod scheduler;
pub mod signal;
pub mod time;

pub use bisync::{BisyncFifo, SharedBisync};
pub use clock::{ClockSpec, DomainId};
pub use module::{EdgeContext, Module};
pub use scheduler::Simulator;
pub use signal::{SignalStore, Wire};
pub use time::{Frequency, SimDuration, SimTime};
