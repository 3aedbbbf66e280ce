//! Experiment W1 — Section VI behaviour of the asynchronous wrapper:
//! a plesiochronous aelite NoC runs at the rate of its slowest element,
//! never deadlocks thanks to reset tokens, and the measured rate matches
//! the dataflow-model prediction (the paper's footnote-1 analysis).

use aelite::report::{check, header, row};
use aelite_dataflow::models::{predicted_flit_rate_per_us, wrapper_chain};
use aelite_noc::phit::{LinkWord, RouteBits};
use aelite_noc::wrapper::{token_channel, token_delivery_log, token_queue, AsyncNi, AsyncRouter};
use aelite_sim::clock::ClockSpec;
use aelite_sim::scheduler::Simulator;
use aelite_sim::time::{Frequency, SimDuration, SimTime};
use aelite_spec::ids::{ConnId, Port};

/// Builds NI -> router -> NI with the given ppm offsets and measures the
/// delivered-flit rate over `run_us` microseconds, with NI0 owning every
/// slot (saturating).
fn measure_rate(ppm: [i64; 3], run_us: u64) -> f64 {
    let f = Frequency::from_mhz(500);
    let lat = SimDuration::from_ps(500);
    let mut sim: Simulator<LinkWord> = Simulator::new();
    let d_ni0 = sim.add_domain(ClockSpec::new(f).with_ppm(ppm[0]));
    let d_r = sim.add_domain(ClockSpec::new(f).with_ppm(ppm[1]));
    let d_ni1 = sim.add_domain(ClockSpec::new(f).with_ppm(ppm[2]));

    let ni0_r = token_channel("ni0->r", 2, lat, 1);
    let r_ni0 = token_channel("r->ni0", 2, lat, 1);
    let ni1_r = token_channel("ni1->r", 2, lat, 1);
    let r_ni1 = token_channel("r->ni1", 2, lat, 1);

    let q = token_queue();
    // Enough flits to saturate the whole run.
    for i in 0..(run_us * 200) {
        q.borrow_mut().push_back([
            LinkWord::head(RouteBits::from_ports(&[Port(1)]), ConnId::new(0)),
            LinkWord::data(i, false),
            LinkWord::data(i, true),
        ]);
    }
    let log = token_delivery_log();
    sim.add_module(
        d_ni0,
        AsyncNi::new(
            "ni0",
            ni0_r.clone(),
            r_ni0.clone(),
            3,
            1, // one-slot table: every firing may inject
            &[vec![0]],
            vec![std::rc::Rc::clone(&q)],
            token_delivery_log(),
        ),
    );
    sim.add_module(
        d_ni1,
        AsyncNi::new(
            "ni1",
            ni1_r.clone(),
            r_ni1.clone(),
            3,
            1,
            &[vec![]],
            vec![token_queue()],
            std::rc::Rc::clone(&log),
        ),
    );
    sim.add_module(
        d_r,
        AsyncRouter::new("r", vec![ni0_r, ni1_r], vec![r_ni0, r_ni1], 3),
    );
    sim.run_until(SimTime::from_us(run_us));
    let log = log.borrow();
    if log.len() < 2 {
        return 0.0;
    }
    // Steady-state rate from the middle of the run.
    let a = &log[log.len() / 4];
    let b = &log[log.len() - 1];
    let flits = (log.len() - 1 - log.len() / 4) as f64;
    flits / (b.time - a.time).as_ns_f64() * 1_000.0
}

fn main() {
    header(
        "wrapper rate vs slowest element (500 MHz nominal, token-level)",
        &[
            "ppm offsets [ni0, r, ni1]",
            "measured (flits/us)",
            "dataflow model",
            "error",
        ],
    );
    let cases: [[i64; 3]; 4] = [
        [0, 0, 0],
        [-20_000, 0, 0],           // NI0 2% slow
        [0, -50_000, 1_000],       // router 5% slow
        [10_000, 20_000, -30_000], // NI1 3% slow
    ];
    for ppm in cases {
        let measured = measure_rate(ppm, 40);
        let freqs: Vec<f64> = ppm
            .iter()
            .map(|&p| 500.0 * (1.0 + p as f64 / 1e6))
            .collect();
        let model = wrapper_chain(&freqs, 3, 2);
        let predicted = predicted_flit_rate_per_us(&model);
        let err = (measured - predicted).abs() / predicted;
        row(&[
            format!("{ppm:?}"),
            format!("{measured:.2}"),
            format!("{predicted:.2}"),
            format!("{:.1}%", err * 100.0),
        ]);
        check(
            &format!("rate tracks slowest element for {ppm:?}"),
            err < 0.05,
            format!("measured {measured:.2} vs predicted {predicted:.2} flits/us"),
        );
    }
    println!("\nw1_wrapper_rate: all reproduction checks passed");
}
