//! Builders assembling a complete cycle-accurate aelite NoC.
//!
//! Given a [`SystemSpec`] and its [`Allocation`], [`build_network`] wires
//! routers, link stages and NIs into one
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

use crate::meso::{meso_fifo, MesoFsm, MesoWriter};
use crate::ni::{
    credit_channel, delivery_log, message_queue, CbrSource, DeliveryLog, MessageQueue, NiSink,
    NiSource, SinkConn, SourceConn,
};
use crate::phit::LinkWord;
use aelite_alloc::allocate::Allocation;
use aelite_sim::clock::{ClockSpec, DomainId};
use aelite_sim::scheduler::Simulator;
use aelite_sim::signal::Wire;
use aelite_sim::time::{Frequency, SimDuration, SimTime};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;
use aelite_spec::topology::{Endpoint, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    /// `ConnId::index() -> (index into queues, index into logs)`;
    /// `u32::MAX` marks a connection outside the build.
    conn_index: Vec<(u32, u32)>,
}

impl CycleNet {
    /// Runs the network for `cycles` nominal clock cycles.
    pub fn run_cycles(&mut self, cycles: u64) {
        let deadline = SimTime::ZERO + self.frequency.period() * cycles;
        self.sim.run_until(deadline);
    }

    /// Positions of `conn` in `queues` and `logs`.
    fn index_of(&self, conn: ConnId) -> (usize, usize) {
        match self.conn_index.get(conn.index()) {
            Some(&(q, l)) if q != u32::MAX => (q as usize, l as usize),
            _ => panic!("{conn} not built"),
        }
    }

    /// The message queue of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the built spec.
    #[must_use]
    pub fn queue(&self, conn: ConnId) -> &MessageQueue {
        &self.queues[self.index_of(conn).0].1
    }

    /// The delivery log of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the built spec.
    #[must_use]
    pub fn log(&self, conn: ConnId) -> &DeliveryLog {
        &self.logs[self.index_of(conn).1].1
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

/// The CBR traffic-generator parameters derived from a connection's
/// contract: `(words per message, interval in cycles)`. Shared by
/// [`build_network`] and the turbo kernel's compiled generators so the
/// two engines can never diverge on arrival schedules.
pub(crate) fn cbr_traffic_params(
    c: &aelite_spec::app::Connection,
    cfg: &aelite_spec::config::NocConfig,
) -> (u32, u64) {
    let words = c.message_bytes.div_ceil(cfg.data_width_bytes()).max(1);
    let interval = (u64::from(c.message_bytes) * cfg.frequency_mhz * 1_000_000)
        .div_ceil(c.bandwidth.bytes_per_sec().max(1))
        .max(1);
    (words, interval)
}

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
/// With `with_traffic`, every connection gets a constant-rate source
/// offering its contracted bandwidth (the paper's evaluation regime);
/// otherwise the testbench drives the queues itself.
///
/// # Panics
///
/// Panics if `kind` is inconsistent with
/// `spec.config().link_pipeline_stages` (see [`NetworkKind`]), or if any
/// connection lacks a grant.
#[must_use]
pub fn build_network(
    spec: &SystemSpec,
    alloc: &Allocation,
    kind: NetworkKind,
    with_traffic: bool,
) -> CycleNet {
    let cfg = spec.config();
    let topo = spec.topology();
    match kind {
        NetworkKind::Synchronous => assert_eq!(
            cfg.link_pipeline_stages, 0,
            "synchronous build requires link_pipeline_stages == 0"
        ),
        NetworkKind::Mesochronous { .. } => assert_eq!(
            cfg.link_pipeline_stages, 1,
            "mesochronous build requires link_pipeline_stages == 1"
        ),
    }

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
        match kind {
            NetworkKind::Synchronous => {
                tx_wire.push(tx);
                rx_wire.push(tx);
            }
            NetworkKind::Mesochronous { .. } => {
                let rx = sim.add_wire(format!("{l}.rx"));
                tx_wire.push(tx);
                rx_wire.push(rx);
            }
        }
    }

    // Link pipeline stages.
    if let NetworkKind::Mesochronous { .. } = kind {
        for l in topo.links() {
            let link = topo.link(l);
            let sender_domain = match link.from {
                Endpoint::Router(r, _) => router_domains[r.index()],
                Endpoint::Ni(n) => ni_domains[n.index()],
            };
            let receiver_domain = match link.to {
                Endpoint::Router(r, _) => router_domains[r.index()],
                Endpoint::Ni(n) => ni_domains[n.index()],
            };
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
        let inputs: Vec<_> = (0..topo.arity(r))
            .map(|p| {
                rx_wire[topo
                    .in_link(r, aelite_spec::ids::Port(p as u8))
                    .expect("port")
                    .index()]
            })
            .collect();
        let outputs: Vec<_> = (0..topo.arity(r))
            .map(|p| {
                tx_wire[topo
                    .out_link(r, aelite_spec::ids::Port(p as u8))
                    .expect("port")
                    .index()]
            })
            .collect();
        sim.add_module(
            router_domains[r.index()],
            crate::router::Router::new(format!("{r}"), inputs, outputs),
        );
    }

    // NIs: group connections by source and destination NI.
    let credit_delay = f.period() * CREDIT_RETURN_CYCLES;
    let mut queues: Vec<(ConnId, MessageQueue)> = Vec::new();
    let mut logs: Vec<(ConnId, DeliveryLog)> = Vec::new();
    let mut conn_index: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); spec.conn_id_bound()];
    // Build credit channels once per connection; shared by src and dst NI.
    let mut credit: Vec<Option<crate::ni::CreditChannel>> = vec![None; spec.conn_id_bound()];
    for c in spec.connections() {
        credit[c.id.index()] = Some(credit_channel(format!("{}.credit", c.id), credit_delay));
    }

    for ni in topo.nis() {
        let domain = ni_domains[ni.index()];
        // Source side.
        let mut src_conns = Vec::new();
        for c in spec.connections() {
            if spec.ip_ni(c.src) != ni {
                continue;
            }
            let grant = alloc
                .grant(c.id)
                .unwrap_or_else(|| panic!("{} has no grant", c.id));
            let queue = message_queue();
            conn_index[c.id.index()].0 = queues.len() as u32;
            queues.push((c.id, std::rc::Rc::clone(&queue)));
            if with_traffic {
                let (words, interval) = cbr_traffic_params(c, cfg);
                sim.add_module(
                    domain,
                    CbrSource::new(
                        format!("{}.cbr", c.id),
                        std::rc::Rc::clone(&queue),
                        words,
                        interval,
                        0,
                    ),
                );
            }
            src_conns.push(SourceConn {
                conn: c.id,
                route: grant.path.ports.clone(),
                inject_slots: grant.inject_slots.clone(),
                queue,
                credits_in: credit[c.id.index()].clone().expect("built above"),
                initial_credit: cfg.ni_buffer_words,
            });
        }
        if !src_conns.is_empty() {
            sim.add_module(
                domain,
                NiSource::new(
                    format!("{ni}.src"),
                    tx_wire[topo.ni_ingress_link(ni).index()],
                    cfg.slot_table_size,
                    cfg.flit_words,
                    src_conns,
                ),
            );
        }

        // Sink side.
        let mut sink_conns = Vec::new();
        for c in spec.connections() {
            if spec.ip_ni(c.dst) != ni {
                continue;
            }
            let log = delivery_log(c.id, ni_phase_fs[ni.index()], period_fs);
            conn_index[c.id.index()].1 = logs.len() as u32;
            logs.push((c.id, std::rc::Rc::clone(&log)));
            sink_conns.push(SinkConn {
                conn: c.id,
                log,
                credits_out: credit[c.id.index()].clone().expect("built above"),
                drain_interval: 0,
            });
        }
        if !sink_conns.is_empty() {
            sim.add_module(
                domain,
                NiSink::new(
                    format!("{ni}.sink"),
                    rx_wire[topo.ni_egress_link(ni).index()],
                    sink_conns,
                ),
            );
        }
    }

    CycleNet {
        sim,
        queues,
        logs,
        frequency: f,
        conn_index,
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
