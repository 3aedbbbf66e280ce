//! Property-based tests of the cycle-accurate hardware models: the
//! mesochronous link stage under arbitrary legal skews and traffic
//! patterns, and wrapped (asynchronous) elements under arbitrary
//! plesiochronous offsets.

use aelite_noc::meso::{meso_fifo, MesoFsm, MesoWriter, MESO_FIFO_WORDS};
use aelite_noc::phit::LinkWord;
use aelite_noc::testbench::{flit, record_log, Feeder, Recorder};
use aelite_noc::wrapper::{token_channel, token_delivery_log, token_queue, AsyncNi, AsyncRouter};
use aelite_sim::clock::ClockSpec;
use aelite_sim::scheduler::Simulator;
use aelite_sim::time::{Frequency, SimDuration, SimTime};
use aelite_spec::ids::Port;
use proptest::prelude::*;

/// A script of flits separated by idle slots (gap in slots per flit).
fn traffic_script(gaps: &[u8]) -> Vec<LinkWord> {
    let mut script = Vec::new();
    for (i, &gap) in gaps.iter().enumerate() {
        for _ in 0..gap {
            script.extend([LinkWord::idle(); 3]);
        }
        script.extend(flit(&[Port(0)], 0, i as u64 * 10));
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any skew below half a period and any flit/idle pattern, the
    /// mesochronous stage delivers every flit, gapless within the flit,
    /// aligned to the receiver's flit cycles, in order, with the FIFO
    /// within its 4-word sizing.
    #[test]
    fn meso_stage_realigns_any_legal_traffic(
        skew_ps in 0u64..1_000,
        gaps in proptest::collection::vec(0u8..4, 1..12),
    ) {
        let f = Frequency::from_mhz(500); // 2000 ps period
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let tx = sim.add_domain(ClockSpec::new(f));
        let rx = sim.add_domain(ClockSpec::new(f).with_phase(SimDuration::from_ps(skew_ps)));
        let pre = sim.add_wire("pre");
        let post = sim.add_wire("post");
        let fifo = meso_fifo("stage", f.period());
        sim.add_module(tx, Feeder::new(pre, traffic_script(&gaps)));
        sim.add_module(tx, MesoWriter::new("wr", pre, fifo.clone()));
        sim.add_module(rx, MesoFsm::new("fsm", fifo.clone(), post, 3));
        let log = record_log();
        sim.add_module(rx, Recorder::new(post, std::rc::Rc::clone(&log)));
        sim.run_until(SimTime::from_ns(2_000));

        let log = log.borrow();
        prop_assert_eq!(log.len(), gaps.len() * 3, "every word arrives");
        for chunk in log.chunks(3) {
            // Words of one flit on consecutive cycles, starting at the
            // cycle after a flit-cycle boundary (recorder offset +1).
            prop_assert_eq!(chunk[0].0 % 3, 1, "unaligned flit at {:?}", chunk);
            prop_assert_eq!(chunk[1].0, chunk[0].0 + 1);
            prop_assert_eq!(chunk[2].0, chunk[0].0 + 2);
            prop_assert!(chunk[0].1.is_head());
            prop_assert!(chunk[2].1.eop);
        }
        // In order: tags increase across flits.
        let tags: Vec<u64> = log
            .chunks(3)
            .map(|c| match c[1].1.payload {
                aelite_noc::phit::Payload::Data(t) => t,
                ref other => panic!("expected data, got {other:?}"),
            })
            .collect();
        prop_assert!(tags.windows(2).all(|w| w[0] < w[1]), "{:?}", tags);
        prop_assert!(fifo.with(|f| f.max_occupancy()) <= MESO_FIFO_WORDS);
    }

    /// A wrapped NI -> router -> NI chain delivers all offered flits in
    /// order for any plesiochronous ppm offsets within +-3%.
    #[test]
    fn wrapper_chain_delivers_for_any_plesiochronous_offsets(
        ppm in proptest::collection::vec(-30_000i64..30_000, 3),
        n_flits in 1u32..12,
    ) {
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
        for i in 0..n_flits {
            let words = flit(&[Port(1)], 0, u64::from(i) * 10);
            q.borrow_mut().push_back([words[0], words[1], words[2]]);
        }
        let log = token_delivery_log();
        sim.add_module(
            d_ni0,
            AsyncNi::new("ni0", ni0_r.clone(), r_ni0.clone(), 3, 2, &[vec![0]],
                vec![std::rc::Rc::clone(&q)], token_delivery_log()),
        );
        sim.add_module(
            d_ni1,
            AsyncNi::new("ni1", ni1_r.clone(), r_ni1.clone(), 3, 2, &[vec![]],
                vec![token_queue()], std::rc::Rc::clone(&log)),
        );
        sim.add_module(d_r, AsyncRouter::new("r", vec![ni0_r, ni1_r], vec![r_ni0, r_ni1], 3));
        sim.run_until(SimTime::from_us(4));
        let log = log.borrow();
        prop_assert_eq!(log.len(), n_flits as usize, "every token arrives");
        prop_assert!(log.windows(2).all(|w| w[0].time < w[1].time));
    }
}

#[test]
fn wrapped_2x2_grid_with_crossing_traffic() {
    // Four wrapped NIs around a wrapped 2x2 router fabric: two crossing
    // connections with disjoint TDM slots, all six elements on different
    // plesiochronous clocks — everything arrives, nothing contends.
    let f = Frequency::from_mhz(500);
    let lat = SimDuration::from_ps(500);
    let mut sim: Simulator<LinkWord> = Simulator::new();
    let ppm = [-9_000i64, 4_000, -2_000, 7_000, 1_000, -5_000];
    let domains: Vec<_> = ppm
        .iter()
        .map(|&p| sim.add_domain(ClockSpec::new(f).with_ppm(p)))
        .collect();

    // Routers r0 (ports: ni0, ni1, r1) and r1 (ports: ni2, ni3, r0).
    let ch = |name: &str| token_channel(name, 2, lat, 1);
    let ni0_r0 = ch("ni0->r0");
    let r0_ni0 = ch("r0->ni0");
    let ni1_r0 = ch("ni1->r0");
    let r0_ni1 = ch("r0->ni1");
    let ni2_r1 = ch("ni2->r1");
    let r1_ni2 = ch("r1->ni2");
    let ni3_r1 = ch("ni3->r1");
    let r1_ni3 = ch("r1->ni3");
    let r0_r1 = ch("r0->r1");
    let r1_r0 = ch("r1->r0");

    // Connection X: ni0 -> (r0 port 2) -> (r1 port 0) -> ni2, slot 0.
    // Connection Y: ni1 -> (r0 port 2) -> (r1 port 1) -> ni3, slot 1.
    let qx = token_queue();
    let qy = token_queue();
    for i in 0..10u64 {
        let wx = flit(&[Port(2), Port(0)], 0, i);
        qx.borrow_mut().push_back([wx[0], wx[1], wx[2]]);
        let wy = flit(&[Port(2), Port(1)], 1, 100 + i);
        qy.borrow_mut().push_back([wy[0], wy[1], wy[2]]);
    }
    let log2 = token_delivery_log();
    let log3 = token_delivery_log();
    sim.add_module(
        domains[0],
        AsyncNi::new(
            "ni0",
            ni0_r0.clone(),
            r0_ni0.clone(),
            3,
            2,
            &[vec![0]],
            vec![qx],
            token_delivery_log(),
        ),
    );
    sim.add_module(
        domains[1],
        AsyncNi::new(
            "ni1",
            ni1_r0.clone(),
            r0_ni1.clone(),
            3,
            2,
            &[vec![1]],
            vec![qy],
            token_delivery_log(),
        ),
    );
    sim.add_module(
        domains[2],
        AsyncNi::new(
            "ni2",
            ni2_r1.clone(),
            r1_ni2.clone(),
            3,
            2,
            &[vec![]],
            vec![token_queue()],
            std::rc::Rc::clone(&log2),
        ),
    );
    sim.add_module(
        domains[3],
        AsyncNi::new(
            "ni3",
            ni3_r1.clone(),
            r1_ni3.clone(),
            3,
            2,
            &[vec![]],
            vec![token_queue()],
            std::rc::Rc::clone(&log3),
        ),
    );
    sim.add_module(
        domains[4],
        AsyncRouter::new(
            "r0",
            vec![ni0_r0, ni1_r0, r1_r0.clone()],
            vec![r0_ni0, r0_ni1, r0_r1.clone()],
            3,
        ),
    );
    sim.add_module(
        domains[5],
        AsyncRouter::new(
            "r1",
            vec![ni2_r1, ni3_r1, r0_r1],
            vec![r1_ni2, r1_ni3, r1_r0],
            3,
        ),
    );
    sim.run_until(SimTime::from_us(10));
    assert_eq!(log2.borrow().len(), 10, "connection X complete");
    assert_eq!(log3.borrow().len(), 10, "connection Y complete");
}
