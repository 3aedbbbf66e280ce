//! Æthereal-style best-effort (BE) comparison network.
//!
//! The paper's Section VII compares aelite's guaranteed services against
//! the combined GS+BE Æthereal running the same 200-connection workload
//! with best-effort service only. This module is that baseline: a
//! flit-level simulator of the same platform and workload as the aelite
//! GS network, but with contention and arbitration instead of TDM
//! reservations:
//!
//! * input-queued **wormhole** routers — a packet holds its output port
//!   from header to tail;
//! * **round-robin** arbitration per output port among requesting inputs;
//! * **credit-based link-level flow control** — a flit only advances when
//!   the downstream input buffer has space (this is exactly the machinery
//!   aelite removes, Section IV);
//! * dimension-ordered (XY) source routes, which keep wormhole routing
//!   deadlock-free.
//!
//! Time advances in *ticks* of one flit duration (3 cycles): every link
//! moves at most one flit per tick, and a router hop takes one tick —
//! the same per-hop pipeline delay as the GS network, so latency
//! differences are pure queueing/arbitration effects.
//!
//! # Examples
//!
//! ```
//! use aelite_noc::baseline::{BeConfig, BeSim};
//! use aelite_spec::generate::paper_workload;
//!
//! let spec = paper_workload(42);
//! let report = BeSim::new(&spec).run(BeConfig {
//!     duration_cycles: 30_000,
//!     ..BeConfig::default()
//! });
//! // Delivered, but with interference-dependent latency.
//! assert!(report.per_conn.iter().all(|c| c.flits > 0));
//! ```

use aelite_spec::app::SystemSpec;
use aelite_spec::ids::{ConnId, Port, RouterId};
use aelite_spec::path::dimension_ordered;
use aelite_spec::topology::PortTarget;
use aelite_spec::traffic::MessageSource;
use std::collections::VecDeque;

/// Configuration of a best-effort run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeConfig {
    /// Simulated duration in clock cycles.
    pub duration_cycles: u64,
    /// Router input-buffer depth, in flits.
    pub input_buffer_flits: usize,
}

impl Default for BeConfig {
    fn default() -> Self {
        BeConfig {
            duration_cycles: 300_000,
            input_buffer_flits: 4,
        }
    }
}

/// Per-connection results of a best-effort run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeConnStats {
    /// The connection.
    pub conn: ConnId,
    /// Flits delivered.
    pub flits: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Minimum flit latency in cycles.
    pub min_latency: u64,
    /// Maximum flit latency in cycles.
    pub max_latency: u64,
    /// Sum of flit latencies in cycles.
    pub latency_sum: u64,
}

impl BeConnStats {
    /// Mean flit latency in cycles, or `None` before any delivery.
    #[must_use]
    pub fn mean_latency(&self) -> Option<f64> {
        (self.flits > 0).then(|| self.latency_sum as f64 / self.flits as f64)
    }
}

/// The results of one best-effort run.
#[derive(Debug, Clone)]
pub struct BeReport {
    /// Per-connection statistics.
    pub per_conn: Vec<BeConnStats>,
    /// Simulated duration in cycles.
    pub duration_cycles: u64,
}

impl BeReport {
    /// The stats of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` was not simulated.
    #[must_use]
    pub fn conn(&self, conn: ConnId) -> &BeConnStats {
        self.per_conn
            .iter()
            .find(|s| s.conn == conn)
            .unwrap_or_else(|| panic!("{conn} not simulated"))
    }
}

/// One flit in flight.
#[derive(Debug, Clone, Copy)]
struct Flit {
    conn_idx: u32,
    /// Remaining route (index into the per-connection port list) — only
    /// meaningful on head flits.
    route_at: u16,
    is_head: bool,
    is_tail: bool,
    /// Payload bytes carried (0 on pure header flits).
    payload: u16,
    /// Cycle from which this flit's latency is measured.
    ready_cycle: u64,
    /// Tick at which the flit entered its current buffer (it may move
    /// again only on a later tick).
    entered_tick: u64,
}

#[derive(Debug)]
struct InputPort {
    fifo: VecDeque<Flit>,
    /// Claims on this buffer made during the current tick.
    claims: usize,
}

#[derive(Debug)]
struct BeRouter {
    inputs: Vec<InputPort>,
    /// Wormhole ownership per output port.
    owner: Vec<Option<usize>>,
    /// Round-robin pointer per output port.
    rr: Vec<usize>,
}

#[derive(Debug)]
struct SourceConnState {
    /// Flits awaiting injection (already packetised).
    backlog: VecDeque<Flit>,
    /// The connection's offered load. A saturating source is kept eight
    /// messages deep instead: the baseline has no slots to start it at.
    source: MessageSource,
    /// Ready floor: a flit's latency starts when its predecessor left.
    ready_floor: u64,
}

/// The best-effort network simulator.
///
/// # Examples
///
/// ```
/// use aelite_noc::baseline::{BeConfig, BeSim};
/// use aelite_spec::generate::paper_workload;
///
/// let spec = paper_workload(42);
/// let report = BeSim::new(&spec).run(BeConfig {
///     duration_cycles: 30_000,
///     ..BeConfig::default()
/// });
/// assert_eq!(report.per_conn.len(), 200);
/// ```
#[derive(Debug)]
pub struct BeSim<'a> {
    spec: &'a SystemSpec,
    /// XY route (router output ports) per connection.
    routes: Vec<Vec<Port>>,
}

impl<'a> BeSim<'a> {
    /// Prepares a best-effort simulator for `spec`, using XY routes.
    ///
    /// # Panics
    ///
    /// Panics if the topology is not a mesh (XY routing undefined).
    #[must_use]
    pub fn new(spec: &'a SystemSpec) -> Self {
        let topo = spec.topology();
        let routes = spec
            .connections()
            .iter()
            .map(|c| {
                dimension_ordered(topo, spec.ip_ni(c.src), spec.ip_ni(c.dst), true)
                    .unwrap_or_else(|| panic!("no XY route for {}", c.id))
                    .ports
            })
            .collect();
        BeSim { spec, routes }
    }

    /// Runs the simulation.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn run(&self, cfg: BeConfig) -> BeReport {
        let spec = self.spec;
        let topo = spec.topology();
        let ncfg = spec.config();
        let tick_cycles = u64::from(ncfg.flit_words);
        let payload_bytes =
            u64::from(ncfg.payload_words_per_flit()) * u64::from(ncfg.data_width_bytes());

        // Routers.
        let mut routers: Vec<BeRouter> = topo
            .routers()
            .map(|r| BeRouter {
                inputs: (0..topo.arity(r))
                    .map(|_| InputPort {
                        fifo: VecDeque::new(),
                        claims: 0,
                    })
                    .collect(),
                owner: vec![None; topo.arity(r)],
                rr: vec![0; topo.arity(r)],
            })
            .collect();

        // Sources, grouped per NI for ingress-link arbitration.
        let conns = spec.connections();
        let mut sources: Vec<SourceConnState> = conns
            .iter()
            .map(|c| SourceConnState {
                backlog: VecDeque::new(),
                source: MessageSource::new(c, ncfg, 0),
                ready_floor: 0,
            })
            .collect();
        let mut ni_conns: Vec<Vec<usize>> = vec![Vec::new(); topo.ni_count()];
        for (i, c) in conns.iter().enumerate() {
            ni_conns[spec.ip_ni(c.src).index()].push(i);
        }
        let mut ni_rr: Vec<usize> = vec![0; topo.ni_count()];
        // Wormhole lock on the NI ingress link: a connection mid-packet
        // must not be interleaved with another, even if the router input
        // FIFO drains in between.
        let mut ni_lock: Vec<Option<usize>> = vec![None; topo.ni_count()];

        let mut stats: Vec<BeConnStats> = conns
            .iter()
            .map(|c| BeConnStats {
                conn: c.id,
                flits: 0,
                bytes: 0,
                min_latency: u64::MAX,
                max_latency: 0,
                latency_sum: 0,
            })
            .collect();

        let total_ticks = cfg.duration_cycles / tick_cycles;
        for tick in 0..total_ticks {
            let cycle = tick * tick_cycles;

            // 1. Offer new traffic: packetise arrived messages.
            for (ci, src) in sources.iter_mut().enumerate() {
                let bytes = u64::from(src.source.message_bytes());
                if src.source.is_saturating() {
                    while src.backlog.len() < 8 {
                        packetise(src, ci as u32, cycle, payload_bytes, bytes);
                    }
                } else {
                    while let Some(arrival) = src.source.pop_arrival(cycle) {
                        packetise(src, ci as u32, arrival.ready_cycle, payload_bytes, bytes);
                    }
                }
            }

            // 2. Router moves. Two-phase: claims first, then commits, so
            //    that a flit freeing a slot this tick does not admit a new
            //    one until the next tick (credit semantics).
            let mut moves: Vec<(RouterId, usize, RouterId, usize)> = Vec::new();
            let mut ejects: Vec<(RouterId, usize)> = Vec::new();
            for r in topo.routers() {
                let arity = topo.arity(r);
                for o in 0..arity {
                    // Choose the input feeding output o.
                    let chosen = match routers[r.index()].owner[o] {
                        Some(i) => {
                            head_targets(&routers[r.index()].inputs[i], o, &self.routes, tick)
                                .then_some(i)
                        }
                        None => {
                            let rr = routers[r.index()].rr[o];
                            let n = routers[r.index()].inputs.len();
                            (0..n).map(|k| (rr + k) % n).find(|&i| {
                                let inp = &routers[r.index()].inputs[i];
                                inp.fifo.front().is_some_and(|f| {
                                    f.is_head
                                        && f.entered_tick < tick
                                        && route_port(f, &self.routes) == o
                                })
                            })
                        }
                    };
                    let Some(i) = chosen else { continue };
                    // Check downstream space / schedule the move.
                    match topo.port_target(r, Port(o as u8)).expect("port exists") {
                        PortTarget::Router(nr) => {
                            let back = topo
                                .port_towards(nr, PortTarget::Router(r))
                                .expect("mesh links are bidirectional");
                            let dst = &routers[nr.index()].inputs[back.index()];
                            if dst.fifo.len() + dst.claims < cfg.input_buffer_flits {
                                routers[nr.index()].inputs[back.index()].claims += 1;
                                moves.push((r, i, nr, back.index()));
                            }
                        }
                        PortTarget::Ni(_) => {
                            // Sinks always accept.
                            ejects.push((r, i));
                        }
                    }
                    // Make the grant sticky for wormhole.
                    routers[r.index()].owner[o] = Some(i);
                    routers[r.index()].rr[o] = (i + 1) % routers[r.index()].inputs.len();
                }
            }
            // Commit router-to-router moves.
            for (r, i, nr, back) in moves {
                let mut flit = routers[r.index()].inputs[i]
                    .fifo
                    .pop_front()
                    .expect("scheduled move");
                if flit.is_head {
                    flit.route_at += 1;
                }
                if flit.is_tail {
                    release_owner(&mut routers[r.index()], i);
                }
                flit.entered_tick = tick;
                routers[nr.index()].inputs[back].claims -= 1;
                routers[nr.index()].inputs[back].fifo.push_back(flit);
            }
            // Commit ejections (deliveries).
            for (r, i) in ejects {
                let flit = routers[r.index()].inputs[i]
                    .fifo
                    .pop_front()
                    .expect("scheduled ejection");
                if flit.is_tail {
                    release_owner(&mut routers[r.index()], i);
                }
                // Delivered at the end of this tick (+1 hop for the NI
                // egress link, matching the GS pipeline accounting).
                let delivered = (tick + 1) * tick_cycles;
                let st = &mut stats[flit.conn_idx as usize];
                let latency = delivered.saturating_sub(flit.ready_cycle);
                st.flits += 1;
                st.bytes += u64::from(flit.payload);
                st.min_latency = st.min_latency.min(latency);
                st.max_latency = st.max_latency.max(latency);
                st.latency_sum += latency;
            }

            // 3. NI injection: one flit per NI per tick, round-robin.
            for ni in topo.nis() {
                let candidates = &ni_conns[ni.index()];
                if candidates.is_empty() {
                    continue;
                }
                let router = topo.ni_router(ni);
                let port = topo.ni_router_port(ni);
                let inp = &routers[router.index()].inputs[port.index()];
                if inp.fifo.len() >= cfg.input_buffer_flits {
                    continue; // link-level back-pressure into the NI
                }
                // Wormhole also applies at the NI link: do not interleave
                // packets from different connections.
                let locked = ni_lock[ni.index()];
                let rr = ni_rr[ni.index()];
                let n = candidates.len();
                let pick = (0..n).map(|k| candidates[(rr + k) % n]).find(|&ci| {
                    let ok_lock = locked.is_none_or(|l| l == ci);
                    ok_lock
                        && sources[ci]
                            .backlog
                            .front()
                            .is_some_and(|f| f.ready_cycle <= cycle)
                });
                if let Some(ci) = pick {
                    let mut flit = sources[ci].backlog.pop_front().expect("checked");
                    // Latency measurement starts when the flit is ready
                    // and its predecessor has left (same definition as
                    // the GS simulator).
                    flit.ready_cycle = flit.ready_cycle.max(sources[ci].ready_floor);
                    sources[ci].ready_floor = (tick + 1) * tick_cycles;
                    flit.entered_tick = tick;
                    routers[router.index()].inputs[port.index()]
                        .fifo
                        .push_back(flit);
                    if flit.is_tail {
                        ni_lock[ni.index()] = None;
                        ni_rr[ni.index()] =
                            (candidates.iter().position(|&c| c == ci).expect("candidate") + 1) % n;
                    } else {
                        ni_lock[ni.index()] = Some(ci);
                    }
                }
            }
        }

        BeReport {
            per_conn: stats,
            duration_cycles: cfg.duration_cycles,
        }
    }
}

/// Appends the flits of one message to the backlog.
fn packetise(
    src: &mut SourceConnState,
    conn_idx: u32,
    arrival: u64,
    payload_bytes: u64,
    total_bytes: u64,
) {
    let flits = total_bytes.div_ceil(payload_bytes).max(1);
    let mut left = total_bytes;
    for k in 0..flits {
        let pay = left.min(payload_bytes);
        left -= pay;
        src.backlog.push_back(Flit {
            conn_idx,
            route_at: 0,
            is_head: k == 0,
            is_tail: k + 1 == flits,
            payload: u16::try_from(pay).expect("payload fits u16"),
            ready_cycle: arrival,
            entered_tick: 0,
        });
    }
}

/// Whether the input's head flit (a body/tail following a routed header,
/// or a header targeting `o`) may advance to output `o` this tick.
fn head_targets(inp: &InputPort, o: usize, routes: &[Vec<Port>], tick: u64) -> bool {
    inp.fifo
        .front()
        .is_some_and(|f| f.entered_tick < tick && (!f.is_head || route_port(f, routes) == o))
}

/// Output port a head flit requests at its current router.
fn route_port(f: &Flit, routes: &[Vec<Port>]) -> usize {
    routes[f.conn_idx as usize][f.route_at as usize].index()
}

/// Clears wormhole ownership of whichever output was owned by `input`.
fn release_owner(router: &mut BeRouter, input: usize) {
    for o in router.owner.iter_mut() {
        if *o == Some(input) {
            *o = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::generate::paper_workload;
    use aelite_spec::ids::NiId;
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::{Bandwidth, TrafficPattern};

    fn one_conn_spec(bw_mb: u64) -> SystemSpec {
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(bw_mb), 10_000);
        b.build()
    }

    #[test]
    fn uncontended_connection_flows() {
        let spec = one_conn_spec(100);
        let report = BeSim::new(&spec).run(BeConfig {
            duration_cycles: 60_000,
            ..BeConfig::default()
        });
        let s = &report.per_conn[0];
        assert!(s.flits > 100, "only {} flits", s.flits);
        // 100 MB/s at 500 MHz = 0.2 B/cycle; 60k cycles = ~12 kB.
        assert!(s.bytes as f64 > 11_000.0, "{} bytes", s.bytes);
    }

    #[test]
    fn uncontended_latency_is_pipeline_only() {
        let spec = one_conn_spec(10);
        let report = BeSim::new(&spec).run(BeConfig {
            duration_cycles: 60_000,
            ..BeConfig::default()
        });
        let s = &report.per_conn[0];
        // Path: NI -> R0 -> R1 -> NI = injection + 2 router hops + eject;
        // every hop is one 3-cycle tick, plus up to one tick of
        // tick-alignment at injection.
        assert!(s.min_latency >= 9, "{}", s.min_latency);
        assert!(
            s.max_latency <= 15,
            "uncontended max {} too high",
            s.max_latency
        );
    }

    #[test]
    fn contention_inflates_tail_latency() {
        // Two connections from different NIs converge on one destination
        // NI link: BE arbitration must show queueing delay.
        let topo = Topology::mesh(3, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let s0 = b.add_ip_at(NiId::new(0));
        let s2 = b.add_ip_at(NiId::new(2));
        let d = b.add_ip_at(NiId::new(1)); // middle NI
        b.add_connection_with(
            app,
            s0,
            d,
            Bandwidth::from_mbytes_per_sec(400),
            10_000,
            TrafficPattern::Saturating,
            64,
        );
        b.add_connection_with(
            app,
            s2,
            d,
            Bandwidth::from_mbytes_per_sec(400),
            10_000,
            TrafficPattern::Saturating,
            64,
        );
        let spec = b.build();
        let report = BeSim::new(&spec).run(BeConfig {
            duration_cycles: 120_000,
            ..BeConfig::default()
        });
        for s in &report.per_conn {
            // Two saturating flows share one 666 MB/s payload link: each
            // gets roughly half, and waiting shows in the max latency.
            assert!(s.flits > 0);
            // Queueing is bounded by the 4-flit buffers and link-level
            // back-pressure, but must be clearly visible.
            assert!(
                s.max_latency >= 2 * s.min_latency,
                "expected visible queueing: min {} max {}",
                s.min_latency,
                s.max_latency
            );
        }
        // Round-robin fairness: neither flow starves (within 25%).
        let (a, b2) = (report.per_conn[0].bytes, report.per_conn[1].bytes);
        let ratio = a as f64 / b2 as f64;
        assert!((0.75..=1.33).contains(&ratio), "unfair split {ratio}");
    }

    #[test]
    fn wormhole_does_not_interleave_packets() {
        // Indirectly validated: with multi-flit packets from two sources
        // crossing one router, delivery must still complete (interleaving
        // would corrupt the wormhole state and stall or panic).
        let topo = Topology::mesh(2, 2, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let ips: Vec<_> = (0..4).map(|i| b.add_ip_at(NiId::new(i))).collect();
        b.add_connection_with(
            app,
            ips[0],
            ips[3],
            Bandwidth::from_mbytes_per_sec(200),
            10_000,
            TrafficPattern::ConstantRate,
            64,
        );
        b.add_connection_with(
            app,
            ips[1],
            ips[2],
            Bandwidth::from_mbytes_per_sec(200),
            10_000,
            TrafficPattern::ConstantRate,
            64,
        );
        let spec = b.build();
        let report = BeSim::new(&spec).run(BeConfig {
            duration_cycles: 120_000,
            ..BeConfig::default()
        });
        for s in &report.per_conn {
            // 200 MB/s = 0.4 B/cycle * 120k cycles = 48 kB expected.
            assert!(
                s.bytes as f64 > 40_000.0,
                "{}: only {} bytes delivered",
                s.conn,
                s.bytes
            );
        }
    }

    #[test]
    fn paper_workload_runs_and_interferes() {
        // The BE network carries the full 200-connection workload but,
        // unlike GS, some connections see latencies far above their
        // uncontended minimum — interference, the thing aelite removes.
        let spec = paper_workload(42);
        let report = BeSim::new(&spec).run(BeConfig {
            duration_cycles: 60_000,
            ..BeConfig::default()
        });
        let mut interfered = 0;
        for s in &report.per_conn {
            assert!(s.flits > 0, "{} starved completely", s.conn);
            if s.max_latency > 2 * s.min_latency.max(1) {
                interfered += 1;
            }
        }
        assert!(
            interfered > 50,
            "expected broad interference, saw {interfered} connections"
        );
    }

    #[test]
    fn report_conn_lookup() {
        let spec = one_conn_spec(10);
        let report = BeSim::new(&spec).run(BeConfig {
            duration_cycles: 30_000,
            ..BeConfig::default()
        });
        let id = spec.connections()[0].id;
        assert_eq!(report.conn(id).conn, id);
        assert!(report.conn(id).mean_latency().is_some());
    }
}
