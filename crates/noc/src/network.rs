//! Builders assembling a complete cycle-accurate aelite NoC.
//!
//! Given a [`SystemSpec`] and its [`Allocation`], [`build_network`] wires
//! routers, link stages and NIs holding the allocation's configuration
//! image (which the turbo engine compiles) into one
//! [`aelite_sim::scheduler::Simulator`] and returns handles for
//! driving traffic and observing deliveries.
//!
//! Two physical organisations are supported, mirroring the paper:
//!
//! * [`NetworkKind::Synchronous`] — every element shares one clock and
//!   links connect routers directly (Section IV; requires
//!   `link_pipeline_stages == 0`);
//! * [`NetworkKind::Mesochronous`] — every router and NI runs in its own
//!   clock domain at the same nominal frequency with a seeded random
//!   phase, and every link carries a bi-synchronous-FIFO pipeline stage
//!   (Section V; requires `link_pipeline_stages == 1`).

use crate::image::{ConfigImage, ConnIndex};
use crate::meso::{meso_fifo, MesoFsm, MesoWriter};
use crate::ni::{
    credit_channel, CbrSource, CreditChannel, DeliveryLog, MessageQueue, NiSink, NiSource,
    SinkConn, SourceConn,
};
use crate::phit::LinkWord;
use aelite_alloc::allocate::Allocation;
use aelite_sim::clock::{ClockSpec, DomainId};
use aelite_sim::scheduler::Simulator;
use aelite_sim::signal::Wire;
use aelite_sim::time::{Frequency, SimDuration, SimTime};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::{ConnId, LinkId, Port};
use aelite_spec::topology::{Endpoint, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// The physical organisation of the built network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkKind {
    /// One global clock, directly connected links (paper Section IV).
    Synchronous,
    /// Per-element clocks at equal nominal frequency with seeded random
    /// phases below half a period, and one link pipeline stage per link
    /// (paper Section V).
    Mesochronous {
        /// Seed for the per-element phase draw.
        phase_seed: u64,
    },
}

/// A built cycle-accurate network plus its testbench handles.
#[derive(Debug)]
pub struct CycleNet {
    /// The simulator holding every module.
    pub sim: Simulator<LinkWord>,
    /// Per-connection source message queues (push to offer traffic).
    pub queues: Vec<(ConnId, MessageQueue)>,
    /// Per-connection delivery logs at the destination NIs.
    pub logs: Vec<(ConnId, DeliveryLog)>,
    /// Nominal clock of the NoC.
    pub frequency: Frequency,
    index: ConnIndex,
}

impl CycleNet {
    /// Runs the network for `cycles` nominal clock cycles.
    pub fn run_cycles(&mut self, cycles: u64) {
        let deadline = SimTime::ZERO + self.frequency.period() * cycles;
        self.sim.run_until(deadline);
    }

    /// The message queue of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the built spec.
    #[must_use]
    pub fn queue(&self, conn: ConnId) -> &MessageQueue {
        &self.queues[self.index.of(conn).0].1
    }

    /// The delivery log of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the built spec.
    #[must_use]
    pub fn log(&self, conn: ConnId) -> &DeliveryLog {
        &self.logs[self.index.of(conn).1].1
    }

    /// Delivery cycles of `conn`, in arrival order.
    #[must_use]
    pub fn delivery_cycles(&self, conn: ConnId) -> Vec<u64> {
        self.log(conn).borrow().cycles().collect()
    }
}

/// Cycles a credit takes from the destination NI back to the source
/// (Æthereal's piggybacked credit return); every simulator reads this
/// one constant, so they agree exactly.
pub const CREDIT_RETURN_CYCLES: u64 = 24;

/// The clock phase of every element of a `kind` build on `topo`, in
/// femtoseconds: one per router, then one per NI. Synchronous builds run
/// every element at phase 0; mesochronous ones draw each phase below half
/// a period from a `phase_seed`-seeded stream. Shared by
/// [`build_network`] and the turbo kernel so both engines see identical
/// clock phases.
pub(crate) fn clock_phases_fs(kind: NetworkKind, topo: &Topology, period_fs: u64) -> Vec<u64> {
    let elements = topo.router_count() + topo.ni_count();
    match kind {
        NetworkKind::Synchronous => vec![0; elements],
        NetworkKind::Mesochronous { phase_seed } => {
            let mut rng = StdRng::seed_from_u64(phase_seed);
            let half = period_fs / 2;
            (0..elements)
                .map(|_| rng.gen_range(0..half.max(1)))
                .collect()
        }
    }
}

/// Builds the cycle-accurate network for `spec` under `alloc`.
///
/// With `with_traffic`, every connection gets a source replaying its
/// [`MessageSource`](aelite_spec::traffic::MessageSource): its traffic
/// pattern at exactly its contracted rate (the paper's evaluation
/// regime); otherwise the testbench drives the queues itself.
///
/// # Panics
///
/// Panics if `kind` is inconsistent with
/// `spec.config().link_pipeline_stages` (see [`NetworkKind`]), if any
/// connection lacks a grant, or if two connections claim one slot of
/// their source NI.
#[must_use]
pub fn build_network(
    spec: &SystemSpec,
    alloc: &Allocation,
    kind: NetworkKind,
    with_traffic: bool,
) -> CycleNet {
    let image = ConfigImage::new(spec, alloc, kind).unwrap_or_else(|error| panic!("{error}"));
    let cfg = spec.config();
    let topo = spec.topology();

    let f = Frequency::from_mhz(cfg.frequency_mhz);
    let period_fs = f.period().as_fs();
    let mut sim: Simulator<LinkWord> = Simulator::new();

    // Clock domains.
    let phases_fs = clock_phases_fs(kind, topo, period_fs);
    let ni_phase_fs = &phases_fs[topo.router_count()..];
    let (router_domains, ni_domains): (Vec<DomainId>, Vec<DomainId>) = match kind {
        NetworkKind::Synchronous => {
            let clk = sim.add_domain(ClockSpec::new(f));
            (vec![clk; topo.router_count()], vec![clk; topo.ni_count()])
        }
        NetworkKind::Mesochronous { .. } => {
            let mut routers: Vec<DomainId> = phases_fs
                .iter()
                .map(|&p| sim.add_domain(ClockSpec::new(f).with_phase(SimDuration::from_fs(p))))
                .collect();
            let nis = routers.split_off(topo.router_count());
            (routers, nis)
        }
    };

    // Wires. `rx_wire[l]` is what the link's receiver reads; in the
    // mesochronous build the sender drives a separate `tx_wire[l]` feeding
    // the pipeline stage.
    let mut tx_wire: Vec<Wire<LinkWord>> = Vec::with_capacity(topo.link_count());
    let mut rx_wire: Vec<Wire<LinkWord>> = Vec::with_capacity(topo.link_count());
    for l in topo.links() {
        let tx = sim.add_wire(format!("{l}.tx"));
        tx_wire.push(tx);
        rx_wire.push(match kind {
            NetworkKind::Synchronous => tx,
            NetworkKind::Mesochronous { .. } => sim.add_wire(format!("{l}.rx")),
        });
    }

    // Link pipeline stages.
    let domain_of = |end: Endpoint| match end {
        Endpoint::Router(r, _) => router_domains[r.index()],
        Endpoint::Ni(n) => ni_domains[n.index()],
    };
    if let NetworkKind::Mesochronous { .. } = kind {
        for l in topo.links() {
            let link = topo.link(l);
            let (sender_domain, receiver_domain) = (domain_of(link.from), domain_of(link.to));
            let fifo = meso_fifo(format!("{l}.fifo"), f.period());
            sim.add_module(
                sender_domain,
                MesoWriter::new(format!("{l}.wr"), tx_wire[l.index()], fifo.clone()),
            );
            sim.add_module(
                receiver_domain,
                MesoFsm::new(format!("{l}.fsm"), fifo, rx_wire[l.index()], cfg.flit_words),
            );
        }
    }

    // Routers.
    for r in topo.routers() {
        let ports = || (0..topo.arity(r)).map(|p| Port(p as u8));
        let link = |l: Option<LinkId>| l.expect("port").index();
        let inputs = ports().map(|p| rx_wire[link(topo.in_link(r, p))]).collect();
        let outputs = ports()
            .map(|p| tx_wire[link(topo.out_link(r, p))])
            .collect();
        sim.add_module(
            router_domains[r.index()],
            crate::router::Router::new(format!("{r}"), inputs, outputs),
        );
    }

    // NIs, each with the connections it sources and sinks.
    let (queues, logs, index) = image.handles(ni_phase_fs, period_fs);
    let credit_delay = f.period() * CREDIT_RETURN_CYCLES;
    let credits: Vec<CreditChannel> = (queues.iter())
        .map(|(conn, _)| credit_channel(format!("{conn}.credit"), credit_delay))
        .collect();
    let mut conns = image.conns.into_iter().enumerate().peekable();
    let per_ni = image.slot_tables.into_iter().zip(&image.sinks);
    for (ni, (slot_table, sinks)) in topo.nis().zip(per_ni) {
        let domain = ni_domains[ni.index()];
        let sources: Vec<SourceConn> = std::iter::from_fn(|| conns.next_if(|(_, c)| c.src == ni))
            .map(|(i, c)| {
                let queue = Rc::clone(&queues[i].1);
                if with_traffic {
                    let name = format!("{}.cbr", c.conn);
                    let cbr = CbrSource::new(name, Rc::clone(&queue), c.source);
                    sim.add_module(domain, cbr);
                }
                SourceConn {
                    header: c.header,
                    queue,
                    credits_in: credits[i].clone(),
                    initial_credit: c.credits,
                }
            })
            .collect();
        if !sources.is_empty() {
            sim.add_module(
                domain,
                NiSource::new(
                    format!("{ni}.src"),
                    tx_wire[topo.ni_ingress_link(ni).index()],
                    slot_table,
                    cfg.flit_words,
                    sources,
                ),
            );
        }
        let sinks: Vec<SinkConn> = (sinks.iter())
            .map(|&i| SinkConn {
                conn: queues[i].0,
                log: Rc::clone(&logs[index.of(queues[i].0).1].1),
                credits_out: credits[i].clone(),
                drain_interval: 0,
            })
            .collect();
        if !sinks.is_empty() {
            sim.add_module(
                domain,
                NiSink::new(
                    format!("{ni}.sink"),
                    rx_wire[topo.ni_egress_link(ni).index()],
                    sinks,
                ),
            );
        }
    }

    CycleNet {
        sim,
        queues,
        logs,
        frequency: f,
        index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ni::Message;
    use aelite_alloc::allocate;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::ids::NiId;
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::Bandwidth;

    fn two_ni_spec(stages: u32) -> SystemSpec {
        let topo = Topology::mesh(2, 1, 1);
        let mut cfg = NocConfig::paper_default();
        cfg.link_pipeline_stages = stages;
        let mut b = SystemSpecBuilder::new(topo, cfg);
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(100), 800);
        b.add_connection(app, d, s, Bandwidth::from_mbytes_per_sec(60), 800);
        b.build()
    }

    #[test]
    fn synchronous_network_delivers_manual_traffic() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let mut net = build_network(&spec, &alloc, NetworkKind::Synchronous, false);
        let conn = spec.connections()[0].id;
        net.queue(conn).borrow_mut().push_back(Message {
            seq: 0,
            words: 2,
            ready_cycle: 0,
        });
        net.run_cycles(2_000);
        let cycles = net.delivery_cycles(conn);
        assert_eq!(cycles.len(), 1, "one flit expected, got {cycles:?}");
    }

    #[test]
    fn synchronous_delivery_matches_pipeline_formula() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let grant = alloc.grant(conn).unwrap();
        let mut net = build_network(&spec, &alloc, NetworkKind::Synchronous, false);
        net.queue(conn).borrow_mut().push_back(Message {
            seq: 0,
            words: 2,
            ready_cycle: 0,
        });
        net.run_cycles(2_000);
        let cycles = net.delivery_cycles(conn);
        // First reserved slot s >= 0, delivered at 3 * (s + n_links).
        let s = u64::from(grant.inject_slots[0]);
        let expect = 3 * (s + grant.links.len() as u64);
        assert_eq!(cycles, vec![expect]);
    }

    #[test]
    fn mesochronous_network_delivers_and_stays_flit_synchronous() {
        let spec = two_ni_spec(1);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        for seed in [1u64, 99] {
            let mut net = build_network(
                &spec,
                &alloc,
                NetworkKind::Mesochronous { phase_seed: seed },
                false,
            );
            net.queue(conn).borrow_mut().push_back(Message {
                seq: 0,
                words: 2,
                ready_cycle: 0,
            });
            net.run_cycles(2_000);
            let cycles = net.delivery_cycles(conn);
            assert_eq!(cycles.len(), 1, "seed {seed}: {cycles:?}");
        }
    }

    #[test]
    fn mesochronous_delivery_cycle_is_phase_invariant() {
        // The delivery cycle (in the receiver's local clock) must not
        // depend on the random phases — the flit-synchronous property.
        let spec = two_ni_spec(1);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let mut seen = Vec::new();
        for seed in [3u64, 17, 2026] {
            let mut net = build_network(
                &spec,
                &alloc,
                NetworkKind::Mesochronous { phase_seed: seed },
                false,
            );
            net.queue(conn).borrow_mut().push_back(Message {
                seq: 0,
                words: 2,
                ready_cycle: 0,
            });
            net.run_cycles(2_000);
            seen.push(net.delivery_cycles(conn));
        }
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "delivery cycles vary with phases: {seen:?}"
        );
    }

    #[test]
    fn cbr_traffic_flows_end_to_end() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let mut net = build_network(&spec, &alloc, NetworkKind::Synchronous, true);
        net.run_cycles(20_000);
        for c in spec.connections() {
            let n = net.delivery_cycles(c.id).len();
            assert!(n > 10, "{}: only {n} deliveries", c.id);
        }
    }

    #[test]
    #[should_panic(expected = "c0 not built")]
    fn accessor_of_a_connection_outside_the_build_panics_by_name() {
        // c0 lies inside the id bound of the restricted view but was
        // left out of it.
        let spec = two_ni_spec(0);
        let (c0, c1) = (spec.connections()[0].id, spec.connections()[1].id);
        let view = spec.restricted_to_connections(&[c1]);
        let alloc = allocate(&view).unwrap();
        let net = build_network(&view, &alloc, NetworkKind::Synchronous, false);
        assert!(std::rc::Rc::ptr_eq(net.queue(c1), &net.queues[0].1));
        assert!(std::rc::Rc::ptr_eq(net.log(c1), &net.logs[0].1));
        let _ = net.log(c0);
    }

    #[test]
    #[should_panic(expected = "slot 0 claimed twice on one NI")]
    fn build_network_refuses_a_double_claimed_allocation() {
        let (spec, alloc) = crate::image::tests::double_claimed();
        let _ = build_network(&spec, &alloc, NetworkKind::Synchronous, true);
    }

    #[test]
    #[should_panic(expected = "link_pipeline_stages == 1")]
    fn mesochronous_build_requires_stage_config() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let _ = build_network(
            &spec,
            &alloc,
            NetworkKind::Mesochronous { phase_seed: 1 },
            false,
        );
    }

    #[test]
    #[should_panic(expected = "link_pipeline_stages == 0")]
    fn synchronous_build_rejects_stage_config() {
        let spec = two_ni_spec(1);
        let alloc = allocate(&spec).unwrap();
        let _ = build_network(&spec, &alloc, NetworkKind::Synchronous, false);
    }
}
