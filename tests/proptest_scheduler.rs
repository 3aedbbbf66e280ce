//! The event-driven `Simulator` against the closed form of its clocks:
//! for random periodic, phase-offset and ppm-offset domain sets,
//! `run_until(deadline)` fires exactly the edges
//! `ClockSpec::edges_at_or_before(deadline)` counts, in one stage or two.

use aelite_sim::clock::ClockSpec;
use aelite_sim::module::{EdgeContext, Module};
use aelite_sim::scheduler::Simulator;
use aelite_sim::signal::Wire;
use aelite_sim::time::{Frequency, SimDuration, SimTime};
use proptest::prelude::*;

/// A frequency pick, a ppm offset (zero half the time, so periodic and
/// drifting clocks mix) and a phase below the resulting period.
fn domain_strategy() -> impl Strategy<Value = ClockSpec> {
    let ppm = prop_oneof![Just(0i64), -20_000i64..=20_000];
    (0usize..5, ppm, 0u64..8_000_000).prop_map(|(fi, ppm, phase_fs)| {
        let mhz = [125, 200, 250, 500, 1000][fi];
        let clk = ClockSpec::new(Frequency::from_mhz(mhz)).with_ppm(ppm);
        clk.with_phase(SimDuration::from_fs(phase_fs % clk.period().as_fs()))
    })
}

/// `ps` picoseconds, snapped (when `snap` is 1) onto the first domain's
/// latest edge at or before it, so the `≤ deadline` boundary is hit exactly.
fn instant(specs: &[ClockSpec], (ps, snap): (u64, u8)) -> SimTime {
    let t = SimTime::from_ps(ps);
    match specs[0].edges_at_or_before(t) {
        n if snap == 1 && n > 0 => specs[0].edge(n - 1),
        _ => t,
    }
}

struct Counter(Wire<u64>);
impl Module for Counter {
    type Value = u64;
    fn name(&self) -> &str {
        "counter"
    }
    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, u64>) {
        let v = ctx.read(self.0);
        ctx.write(self.0, v + 1);
    }
}

/// Runs to each deadline in turn: `(now, edges_processed, per-domain counts)`.
fn run(specs: &[ClockSpec], deadlines: &[SimTime]) -> (SimTime, u64, Vec<u64>) {
    let mut sim: Simulator<u64> = Simulator::new();
    let mut wires = Vec::new();
    for s in specs {
        let (d, w) = (sim.add_domain(*s), sim.add_wire("count"));
        sim.add_module(d, Counter(w));
        wires.push(w);
    }
    let fired: u64 = deadlines.iter().map(|&t| sim.run_until(t)).sum();
    assert_eq!(fired, sim.edges_processed());
    let counts = wires.iter().map(|&w| sim.signals().read(w)).collect();
    (sim.now(), fired, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_until_fires_exactly_the_edges_at_or_before_the_deadline(
        specs in proptest::collection::vec(domain_strategy(), 1..5),
        at in (0u64..400_000, 0u8..2),
    ) {
        let deadline = instant(&specs, at);
        let (now, fired, counts) = run(&specs, &[deadline]);
        let expect: Vec<u64> = specs.iter().map(|s| s.edges_at_or_before(deadline)).collect();
        prop_assert_eq!(&counts, &expect);
        prop_assert_eq!(fired, expect.iter().sum::<u64>());
        let last = |(s, &n): (&ClockSpec, &u64)| n.checked_sub(1).map(|k| s.edge(k));
        let latest = specs.iter().zip(&expect).filter_map(last).max();
        prop_assert_eq!(now, latest.unwrap_or(SimTime::ZERO));
    }

    #[test]
    fn two_stage_run_until_equals_one(
        specs in proptest::collection::vec(domain_strategy(), 1..5),
        (a, b) in ((0u64..400_000, 0u8..2), (0u64..400_000, 0u8..2)),
    ) {
        let (a, b) = (instant(&specs, a), instant(&specs, b));
        prop_assert_eq!(run(&specs, &[a.min(b), a.max(b)]), run(&specs, &[a.max(b)]));
    }
}
