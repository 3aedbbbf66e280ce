//! The flit-synchronous **turbo** execution engine.
//!
//! [`build_network`](crate::network::build_network) assembles the
//! cycle-accurate NoC as boxed [`Module`]s inside the event-driven
//! [`Simulator`](aelite_sim::scheduler::Simulator): every cycle pays for
//! binary-heap edge discovery, trait-object dispatch, per-word register
//! updates in every router pipeline stage and double-buffered
//! signal-store traffic. The paper's central claim makes almost all of
//! that avoidable: **flit-synchronous TDM operation makes network
//! timing fully static**. Once a flit is injected in a slot, its
//! passage through every router and link pipeline stage — and therefore
//! the exact destination-NI cycle of every one of its words — is a
//! closed-form function of the slot and the path, with no contention
//! anywhere (Section IV; the event-driven router models *panic* if that
//! invariant is ever violated, and [`build_turbo`] re-validates the
//! allocation up front instead).
//!
//! [`build_turbo`] therefore *compiles* the built router/link/NI module
//! graph:
//!
//! * the per-cycle dynamic state that actually carries semantics — NI
//!   slot tables, message queues, end-to-end credits — is lowered into
//!   flat per-connection state stepped by a slot-synchronous kernel
//!   (one decision per NI per TDM slot, exactly the instants at which
//!   the cycle-accurate NI makes them);
//! * the router pipeline registers and mesochronous link-stage FIFOs
//!   are lowered into their static timing: per connection, a compiled
//!   head-delay constant (3 cycles per router stage, one TDM slot per
//!   mesochronous pipeline stage) converts each injection into the
//!   exact delivery cycle and the per-word credit-return edges the
//!   event-driven sink would produce;
//! * clock-domain phases ([`NetworkKind::Mesochronous`]) fold into the
//!   compiled schedule as femtosecond offsets, so cross-domain credit
//!   visibility keeps its exact event-driven timing;
//! * deliveries stream: a flit's destination cycle is known when it is
//!   injected, so it goes to its connection's [`FlitLog`] right then,
//!   and only the few flits whose destination edge lies past the run's
//!   deadline wait in flight. A log stores 16 bytes per flit — tag and
//!   cycle; connection and absolute time come from the log itself.
//!
//! **Equivalence is the contract**: a [`TurboNet`] produces delivery
//! logs bit-for-bit identical to the event-driven build of the same
//! spec/allocation/kind — the same [`FlitDelivery`] records including
//! destination cycle *and* absolute time, which both engines read off
//! the destination NI's clock and the event-driven sink asserts on every
//! flit it logs — pinned by
//! `tests/turbo_golden.rs` on the paper platform and on 4×4/8×8 scaled
//! meshes in both clocking modes. The event-driven simulator stays the
//! golden reference; the turbo kernel is what makes simulation cheap
//! enough for the design-space exploration's `--validate` stage (see
//! `aelite_dse` and [`DseGrid`]-driven sweeps).
//!
//! [`Module`]: aelite_sim::module::Module
//! [`DseGrid`]: ../../aelite_dse/grid/struct.DseGrid.html
//! [`FlitLog`]: crate::ni::FlitLog
//! [`FlitDelivery`]: crate::ni::FlitDelivery

use crate::network::{NetworkKind, CREDIT_RETURN_CYCLES};
use crate::ni::{delivery_log, message_queue, DeliveryLog, Message, MessageQueue};
use aelite_alloc::allocate::Allocation;
use aelite_sim::time::Frequency;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;
use std::collections::VecDeque;
use std::rc::Rc;

/// Cycles a word spends in each router: the 3-stage pipeline of paper
/// Section IV (input register, HPU, switch).
const ROUTER_PIPELINE_CYCLES: u64 = 3;

/// Measured per-flit latency of one connection, tracked by the turbo
/// kernel (instrumentation only — it does not influence behaviour).
///
/// A flit becomes *ready* at `max(message arrival, end of the previous
/// flit's slot)` — the same per-flit definition as
/// [`FlitSim`](crate::flitsim::FlitSim) and the analytical bound
/// [`worst_case_latency_cycles`](Allocation::worst_case_latency_cycles) —
/// and its latency is the destination-NI delivery cycle minus that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnLatency {
    /// Flits delivered.
    pub flits: u64,
    /// Minimum observed per-flit latency, in cycles (`u64::MAX` before
    /// any delivery).
    pub min_cycles: u64,
    /// Maximum observed per-flit latency, in cycles.
    pub max_cycles: u64,
}

impl Default for ConnLatency {
    fn default() -> Self {
        ConnLatency {
            flits: 0,
            min_cycles: u64::MAX,
            max_cycles: 0,
        }
    }
}

/// A delivery already determined by an injection, waiting for the
/// simulation frontier to reach its destination edge.
#[derive(Debug, Clone, Copy)]
struct PendingDelivery {
    /// Destination-NI cycle at which the EoP word is sampled.
    eop_cycle: u64,
    /// Tag of the flit's first payload word.
    tag: u64,
    /// The cycle the flit became ready (latency instrumentation).
    ready: u64,
}

/// The compiled constant-bit-rate generator of one connection
/// (semantics of [`CbrSource`](crate::ni::CbrSource) with offset 0, as
/// `build_network` instantiates it), advanced lazily to each
/// observation point.
#[derive(Debug, Clone, Copy)]
struct CbrGen {
    words_per_message: u32,
    interval_cycles: u64,
    /// The next cycle at which a message will be pushed.
    next_cycle: u64,
    seq: u32,
}

impl CbrGen {
    /// Pushes every message the event-driven `CbrSource` would have
    /// pushed at edges up to and including `cycle`.
    fn advance(&mut self, cycle: u64, queue: &MessageQueue) {
        while self.next_cycle <= cycle {
            queue.borrow_mut().push_back(Message {
                seq: self.seq,
                words: self.words_per_message,
                ready_cycle: self.next_cycle,
            });
            self.seq += 1;
            self.next_cycle += self.interval_cycles;
        }
    }
}

/// Compiled per-connection state in struct-of-arrays layout: the NI-
/// resident dynamics (queue, credits, packetisation) plus the static
/// network timing. The slot kernel makes one decision per owned slot
/// and touches a handful of scalar fields per decision; parallel arrays
/// keep those scalars densely packed instead of strided across a large
/// per-connection struct — mega-mesh builds carry 10k–30k connections
/// (`tests/mega_mesh_golden.rs` runs the 32×32/30k point), where the AoS
/// layout wasted most of every cache line on the cold queue/log/stats
/// fields.
#[derive(Debug, Default)]
struct ConnSoa {
    conn: Vec<ConnId>,
    queue: Vec<MessageQueue>,
    /// Delivered flits, timed by the destination NI's clock. A flit is
    /// written here when it is injected, if its destination edge falls
    /// within the run being simulated.
    log: Vec<DeliveryLog>,
    cbr: Vec<Option<CbrGen>>,
    /// Cycles from the injection slot-start to the destination NI
    /// sampling the packet header.
    head_delay: Vec<u64>,
    /// Source-NI clock phase, femtoseconds.
    src_phase_fs: Vec<u64>,
    /// Destination-NI clock phase, femtoseconds.
    dst_phase_fs: Vec<u64>,
    /// End-to-end credits, in payload words.
    credits: Vec<i64>,
    /// Scheduled credit returns `(visible-at fs, words)`, chronological —
    /// the compiled form of the credit bi-synchronous FIFO.
    credit_sched: Vec<VecDeque<(u64, u32)>>,
    /// Injected flits whose destination edge lies past the deadline of
    /// the run that injected them, in injection order — at most the few
    /// a connection has between its source and destination NI.
    in_network: Vec<VecDeque<PendingDelivery>>,
    /// The message being packetised, with words remaining.
    current_msg: Vec<Option<(Message, u32)>>,
    /// End of the previous flit's slot (latency instrumentation).
    ready_floor: Vec<u64>,
    stats: Vec<ConnLatency>,
}

impl ConnSoa {
    fn len(&self) -> usize {
        self.conn.len()
    }

    /// Appends one connection's compiled state across every array.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        conn: ConnId,
        queue: MessageQueue,
        cbr: Option<CbrGen>,
        head_delay: u64,
        src_phase_fs: u64,
        dst_phase_fs: u64,
        period_fs: u64,
        credits: i64,
    ) {
        self.conn.push(conn);
        self.queue.push(queue);
        self.log.push(delivery_log(conn, dst_phase_fs, period_fs));
        self.cbr.push(cbr);
        self.head_delay.push(head_delay);
        self.src_phase_fs.push(src_phase_fs);
        self.dst_phase_fs.push(dst_phase_fs);
        self.credits.push(credits);
        self.credit_sched.push(VecDeque::new());
        self.in_network.push(VecDeque::new());
        self.current_msg.push(None);
        self.ready_floor.push(0);
        self.stats.push(ConnLatency::default());
    }

    /// Logs connection `i`'s flit `d` and counts its latency.
    fn deliver(&mut self, i: usize, d: PendingDelivery) {
        self.log[i].borrow_mut().record(d.tag, d.eop_cycle);
        let latency = d.eop_cycle - d.ready;
        let stats = &mut self.stats[i];
        stats.flits += 1;
        stats.min_cycles = stats.min_cycles.min(latency);
        stats.max_cycles = stats.max_cycles.max(latency);
    }
}

/// Compiled source NI: its slot-owner table (indices into the global
/// connection vector) and its private slot cursor. Each NI advances
/// independently — their edges fall on different instants, so one run's
/// deadline can cut between them, and a shared cursor would skip the
/// slower NIs' boundary slots on resumed runs.
#[derive(Debug)]
struct SrcNi {
    phase_fs: u64,
    slot_owner: Vec<Option<u32>>,
    /// The next slot-start cycle this NI will decide.
    next_slot_cycle: u64,
}

/// A compiled cycle-accurate network. Build with [`build_turbo`]; drive
/// and observe through the same queue/log handles as
/// [`CycleNet`](crate::network::CycleNet).
#[derive(Debug)]
pub struct TurboNet {
    /// Per-connection source message queues (push to offer traffic).
    pub queues: Vec<(ConnId, MessageQueue)>,
    /// Per-connection delivery logs at the destination NIs.
    pub logs: Vec<(ConnId, DeliveryLog)>,
    /// Nominal clock of the NoC.
    pub frequency: Frequency,
    period_fs: u64,
    slot_cycles: u64,
    table_size: u64,
    payload_capacity: u32,
    mesochronous: bool,
    conns: ConnSoa,
    /// `ConnId::index() -> index into `conns``.
    conn_index: Vec<u32>,
    src_nis: Vec<SrcNi>,
    /// The largest deadline (in cycles) simulated so far.
    horizon_cycles: u64,
}

impl TurboNet {
    /// Runs all clock edges with time ≤ `cycles` nominal clock periods
    /// from simulation start — the same deadline rule as
    /// [`CycleNet::run_cycles`](crate::network::CycleNet::run_cycles),
    /// so repeated calls with increasing totals behave identically.
    pub fn run_cycles(&mut self, cycles: u64) {
        let deadline_fs = self
            .period_fs
            .checked_mul(cycles)
            .expect("deadline overflows femtoseconds");
        self.horizon_cycles = self.horizon_cycles.max(cycles);
        let TurboNet {
            period_fs,
            slot_cycles,
            table_size,
            payload_capacity,
            mesochronous,
            conns,
            src_nis,
            ..
        } = self;
        let (period_fs, slot_cycles, table_size) = (*period_fs, *slot_cycles, *table_size);
        let (payload_capacity, mesochronous) = (*payload_capacity, *mesochronous);

        // Flits an earlier run left in flight that land by this deadline
        // are logged first: every flit injected below comes after them.
        for i in 0..conns.len() {
            let dst_phase_fs = conns.dst_phase_fs[i];
            while let Some(&d) = conns.in_network[i].front() {
                if dst_phase_fs + d.eop_cycle * period_fs > deadline_fs {
                    break;
                }
                conns.in_network[i].pop_front();
                conns.deliver(i, d);
            }
        }

        // Slot loop: one decision per source NI per TDM slot — exactly
        // the instants at which the cycle-accurate NiSource can act.
        // NI-major order is equivalent to the event engine's time-major
        // order because source NIs share no state.
        for ni in src_nis.iter_mut() {
            while ni.phase_fs + ni.next_slot_cycle * period_fs <= deadline_fs {
                let c0 = ni.next_slot_cycle;
                ni.next_slot_cycle += slot_cycles;
                let slot = ((c0 / slot_cycles) % table_size) as usize;
                let Some(owner) = ni.slot_owner[slot] else {
                    continue;
                };
                let i = owner as usize;
                let now_fs = ni.phase_fs + c0 * period_fs;

                // Materialise CBR arrivals up to this edge (the event
                // engine's CbrSource runs before the NiSource at every
                // edge of their shared domain).
                if let Some(cbr) = &mut conns.cbr[i] {
                    cbr.advance(c0, &conns.queue[i]);
                }

                // Collect returned credits. The event engine pops at
                // every edge; popping at decision points is equivalent
                // because visibility is monotone and credits are only
                // observed here.
                while let Some(&(at, words)) = conns.credit_sched[i].front() {
                    if at > now_fs {
                        break;
                    }
                    conns.credit_sched[i].pop_front();
                    conns.credits[i] += i64::from(words);
                }

                // Fetch the next message if idle.
                if conns.current_msg[i].is_none() {
                    let msg = conns.queue[i]
                        .borrow_mut()
                        .front()
                        .copied()
                        .filter(|m| m.ready_cycle <= c0);
                    if let Some(m) = msg {
                        conns.queue[i].borrow_mut().pop_front();
                        conns.current_msg[i] = Some((m, m.words));
                    }
                }
                let Some((msg, remaining)) = conns.current_msg[i] else {
                    continue;
                };

                // Flow control: only send what the destination can
                // absorb; otherwise the slot idles (paper Section IV-A).
                let send_words = remaining.min(payload_capacity);
                if i64::from(send_words) > conns.credits[i] {
                    continue;
                }
                conns.credits[i] -= i64::from(send_words);
                let left = remaining - send_words;
                conns.current_msg[i] = if left > 0 { Some((msg, left)) } else { None };

                assert!(
                    !mesochronous || send_words == payload_capacity,
                    "{}: partial flit on a mesochronous link (the link FSM forwards \
                     whole flits; the event-driven reference underruns on this too)",
                    conns.conn[i]
                );

                // The flit's network passage is fully static: the EoP
                // word is sampled `head_delay + send_words` cycles after
                // the slot start, and each payload word's credit returns
                // one destination edge after that word lands.
                let head_delay = conns.head_delay[i];
                let dst_phase_fs = conns.dst_phase_fs[i];
                let eop_cycle = c0 + head_delay + u64::from(send_words);
                let flit = PendingDelivery {
                    eop_cycle,
                    tag: crate::ni::flit_base_tag(msg.seq, msg.words, remaining),
                    ready: msg.ready_cycle.max(conns.ready_floor[i]),
                };
                conns.ready_floor[i] = c0 + slot_cycles;
                // A connection's EoP cycles rise strictly in injection
                // order (slot starts are `slot_cycles` apart and a flit
                // is shorter than a slot), so a flit landing within the
                // run with nothing ahead of it in flight is logged now.
                if conns.in_network[i].is_empty()
                    && dst_phase_fs + eop_cycle * period_fs <= deadline_fs
                {
                    conns.deliver(i, flit);
                } else {
                    conns.in_network[i].push_back(flit);
                }
                let credit_delay_fs = period_fs * CREDIT_RETURN_CYCLES;
                for k in 1..=u64::from(send_words) {
                    let drain_edge = c0 + head_delay + k + 1;
                    conns.credit_sched[i]
                        .push_back((dst_phase_fs + drain_edge * period_fs + credit_delay_fs, 1));
                }
            }
        }

        for i in 0..conns.len() {
            // Settle CBR arrivals to this run's final source edge, so
            // the shared queue handles hold exactly what the event
            // engine's queues would.
            if let Some(cbr) = &mut conns.cbr[i] {
                if conns.src_phase_fs[i] <= deadline_fs {
                    cbr.advance(
                        (deadline_fs - conns.src_phase_fs[i]) / period_fs,
                        &conns.queue[i],
                    );
                }
            }
        }
    }

    /// The cycle index the engine will simulate next. After
    /// `run_cycles(c)` this is `c + 1`: the deadline is inclusive, so
    /// cycle `c`'s phase-zero edges have already run — exactly the edge
    /// count of the event-driven engine under the same deadline.
    #[must_use]
    pub fn next_cycle(&self) -> u64 {
        self.horizon_cycles + 1
    }

    /// Position of `conn` in the compiled per-connection arrays.
    fn index_of(&self, conn: ConnId) -> usize {
        match self.conn_index.get(conn.index()) {
            Some(&i) if i != u32::MAX => i as usize,
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
        &self.conns.queue[self.index_of(conn)]
    }

    /// The delivery log of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the built spec.
    #[must_use]
    pub fn log(&self, conn: ConnId) -> &DeliveryLog {
        &self.conns.log[self.index_of(conn)]
    }

    /// Delivery cycles of `conn`, in arrival order.
    #[must_use]
    pub fn delivery_cycles(&self, conn: ConnId) -> Vec<u64> {
        self.log(conn).borrow().cycles().collect()
    }

    /// Measured per-flit latency statistics of `conn` (see
    /// [`ConnLatency`] for the readiness definition).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the built spec.
    #[must_use]
    pub fn latency(&self, conn: ConnId) -> ConnLatency {
        self.conns.stats[self.index_of(conn)]
    }
}

/// Compiles the cycle-accurate network for `spec` under `alloc` into a
/// [`TurboNet`] — the turbo counterpart of
/// [`build_network`](crate::network::build_network), with identical
/// observable semantics (slot decisions, credit timing, traffic
/// generation, clock-domain phases) and bit-for-bit identical delivery
/// logs.
///
/// The event-driven router detects TDM contention at runtime and
/// panics; the turbo kernel instead re-validates the allocation here,
/// at build time, which is what licenses compiling the routers away.
///
/// # Panics
///
/// Panics if `kind` is inconsistent with
/// `spec.config().link_pipeline_stages` (see [`NetworkKind`]), if any
/// connection lacks a grant, or if `alloc` fails validation against
/// `spec`.
#[must_use]
pub fn build_turbo(
    spec: &SystemSpec,
    alloc: &Allocation,
    kind: NetworkKind,
    with_traffic: bool,
) -> TurboNet {
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
    if let Err(violations) = aelite_alloc::validate_allocation(spec, alloc) {
        panic!(
            "allocation invalid for this spec ({} violation(s), first: {:?}) — \
             the turbo kernel requires the contention-free invariant",
            violations.len(),
            violations.first()
        );
    }

    let f = Frequency::from_mhz(cfg.frequency_mhz);
    let period_fs = f.period().as_fs();

    // Clock-domain phases from the same draw stream as `build_network`
    // (routers first, then NIs); compiled routers need no clock, so
    // only the NI portion of the draws is kept.
    let ni_phase =
        crate::network::clock_phases_fs(kind, topo, period_fs).split_off(topo.router_count());
    let mesochronous = matches!(kind, NetworkKind::Mesochronous { .. });
    let slot_cycles = u64::from(cfg.slot_cycles());
    let payload_capacity = cfg.payload_words_per_flit();

    // Bucket connection indices by source and destination NI up front:
    // a single O(conns) pass replaces the old O(NIs × conns) rescan per
    // NI, which dominated build time on mega-meshes (4096 NIs × 30k
    // connections). Pushing in spec order keeps each bucket in spec
    // order, so the construction order below — source NIs outer, spec
    // connections inner — is unchanged and the public queue/log vectors
    // still match the event engine's exactly.
    let mut by_src: Vec<Vec<usize>> = vec![Vec::new(); topo.ni_count()];
    let mut by_dst: Vec<Vec<usize>> = vec![Vec::new(); topo.ni_count()];
    for (ci, c) in spec.connections().iter().enumerate() {
        by_src[spec.ip_ni(c.src).index()].push(ci);
        by_dst[spec.ip_ni(c.dst).index()].push(ci);
    }

    // Per-connection compiled state, in `build_network`'s construction
    // order.
    let mut conns = ConnSoa::default();
    let mut conn_index: Vec<u32> = vec![u32::MAX; spec.conn_id_bound()];
    let mut queues: Vec<(ConnId, MessageQueue)> = Vec::new();
    let mut src_nis: Vec<SrcNi> = Vec::new();
    for ni in topo.nis() {
        if by_src[ni.index()].is_empty() {
            continue;
        }
        let mut slot_owner = vec![None; cfg.slot_table_size as usize];
        for &ci in &by_src[ni.index()] {
            let c = &spec.connections()[ci];
            let grant = alloc
                .grant(c.id)
                .unwrap_or_else(|| panic!("{} has no grant", c.id));
            let links = grant.links.len() as u64;
            // Static head timing: synchronously, each of the path's
            // routers holds a word for its 3 pipeline stages and the
            // sink samples one edge after the last commit; each
            // mesochronous link pipeline stage re-aligns the flit to
            // the next receiver flit-cycle boundary, costing one extra
            // TDM slot per link (paper Section V).
            let head_delay = match kind {
                NetworkKind::Synchronous => (links - 1) * ROUTER_PIPELINE_CYCLES + 1,
                NetworkKind::Mesochronous { .. } => {
                    links * slot_cycles * u64::from(cfg.slots_per_hop())
                        - u64::from(payload_capacity)
                }
            };
            let queue = message_queue();
            queues.push((c.id, Rc::clone(&queue)));
            let cbr = with_traffic.then(|| {
                let (words, interval) = crate::network::cbr_traffic_params(c, cfg);
                CbrGen {
                    words_per_message: words,
                    interval_cycles: interval,
                    next_cycle: 0,
                    seq: 0,
                }
            });
            let idx = conns.len() as u32;
            conn_index[c.id.index()] = idx;
            for &s in &grant.inject_slots {
                assert!(
                    s < cfg.slot_table_size,
                    "slot {s} out of range for {}",
                    c.id
                );
                assert!(
                    slot_owner[s as usize].is_none(),
                    "slot {s} claimed twice on one NI"
                );
                slot_owner[s as usize] = Some(idx);
            }
            conns.push(
                c.id,
                queue,
                cbr,
                head_delay,
                ni_phase[ni.index()],
                ni_phase[spec.ip_ni(c.dst).index()],
                period_fs,
                i64::from(cfg.ni_buffer_words),
            );
        }
        src_nis.push(SrcNi {
            phase_fs: ni_phase[ni.index()],
            slot_owner,
            next_slot_cycle: 0,
        });
    }

    // Destination-side log handles, in `build_network`'s order
    // (destination NIs outer, spec connections inner).
    let mut logs: Vec<(ConnId, DeliveryLog)> = Vec::new();
    for ni in topo.nis() {
        for &ci in &by_dst[ni.index()] {
            let c = &spec.connections()[ci];
            let log = Rc::clone(&conns.log[conn_index[c.id.index()] as usize]);
            logs.push((c.id, log));
        }
    }

    TurboNet {
        queues,
        logs,
        frequency: f,
        period_fs,
        slot_cycles,
        table_size: u64::from(cfg.slot_table_size),
        payload_capacity,
        mesochronous,
        conns,
        conn_index,
        src_nis,
        horizon_cycles: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{build_network, NetworkKind};
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

    fn assert_logs_identical(
        spec: &SystemSpec,
        event: &crate::network::CycleNet,
        turbo: &TurboNet,
    ) {
        for c in spec.connections() {
            assert_eq!(
                *event.log(c.id).borrow(),
                *turbo.log(c.id).borrow(),
                "{} delivery logs diverge",
                c.id
            );
        }
    }

    #[test]
    fn synchronous_turbo_matches_event_engine_bit_for_bit() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let mut event = build_network(&spec, &alloc, NetworkKind::Synchronous, true);
        let mut turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        event.run_cycles(5_000);
        turbo.run_cycles(5_000);
        assert_logs_identical(&spec, &event, &turbo);
        assert!(!turbo.delivery_cycles(spec.connections()[0].id).is_empty());
    }

    #[test]
    fn mesochronous_turbo_matches_event_engine_bit_for_bit() {
        let spec = two_ni_spec(1);
        let alloc = allocate(&spec).unwrap();
        for seed in [1u64, 99, 2026] {
            let kind = NetworkKind::Mesochronous { phase_seed: seed };
            let mut event = build_network(&spec, &alloc, kind, true);
            let mut turbo = build_turbo(&spec, &alloc, kind, true);
            event.run_cycles(5_000);
            turbo.run_cycles(5_000);
            assert_logs_identical(&spec, &event, &turbo);
        }
    }

    #[test]
    fn manual_traffic_flows_through_shared_queue_handles() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let mut turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, false);
        turbo.queue(conn).borrow_mut().push_back(Message {
            seq: 0,
            words: 2,
            ready_cycle: 0,
        });
        turbo.run_cycles(2_000);
        assert_eq!(turbo.delivery_cycles(conn).len(), 1);
        assert_eq!(turbo.next_cycle(), 2_001);
    }

    #[test]
    fn accessors_return_the_handles_of_the_public_vectors() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, false);
        assert_eq!(turbo.queues.len(), 2);
        for (c, queue) in &turbo.queues {
            assert!(Rc::ptr_eq(queue, turbo.queue(*c)), "queue of {c}");
        }
        assert_eq!(turbo.logs.len(), 2);
        for (c, log) in &turbo.logs {
            assert!(Rc::ptr_eq(log, turbo.log(*c)), "log of {c}");
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
        let turbo = build_turbo(&view, &alloc, NetworkKind::Synchronous, false);
        assert!(turbo.log(c1).borrow().is_empty());
        let _ = turbo.log(c0);
    }

    #[test]
    fn manual_traffic_matches_event_engine() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let mut event = build_network(&spec, &alloc, NetworkKind::Synchronous, false);
        let mut turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, false);
        for seq in 0..40 {
            let m = Message {
                seq,
                words: 3, // odd length: exercises the partial-flit tail
                ready_cycle: u64::from(seq) * 17,
            };
            event.queue(conn).borrow_mut().push_back(m);
            turbo.queue(conn).borrow_mut().push_back(m);
        }
        event.run_cycles(4_000);
        turbo.run_cycles(4_000);
        assert_logs_identical(&spec, &event, &turbo);
        assert!(turbo.delivery_cycles(conn).len() >= 40);
    }

    #[test]
    fn repeated_runs_extend_the_same_deadline_rule() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let mut oneshot = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        oneshot.run_cycles(4_000);
        let mut stepped = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        stepped.run_cycles(1_234);
        stepped.run_cycles(4_000);
        for c in spec.connections() {
            assert_eq!(*oneshot.log(c.id).borrow(), *stepped.log(c.id).borrow());
        }
    }

    #[test]
    fn mesochronous_stepped_runs_match_oneshot_and_event() {
        // Deadlines cutting between differently-phased NI edges must not
        // skip any NI's boundary slot: every NI advances on its own
        // cursor. Boundary deadlines are chosen on slot-start multiples,
        // where a shared cursor would lose slots of later-phased NIs.
        let spec = two_ni_spec(1);
        let alloc = allocate(&spec).unwrap();
        let kind = NetworkKind::Mesochronous { phase_seed: 5 };
        let mut event = build_network(&spec, &alloc, kind, true);
        event.run_cycles(4_002);
        let mut stepped = build_turbo(&spec, &alloc, kind, true);
        for deadline in [999, 1_500, 2_001, 3_000, 4_002] {
            stepped.run_cycles(deadline);
        }
        for c in spec.connections() {
            assert_eq!(*event.log(c.id).borrow(), *stepped.log(c.id).borrow());
        }
    }

    /// Checks what `run_cycles(cycles)` left in flight: only flits landing
    /// past the deadline, no more per connection than its slots can
    /// inject between source and destination NI, in a buffer that never
    /// held more than that.
    fn assert_in_flight_bounded(turbo: &TurboNet, cycles: u64) {
        let deadline_fs = turbo.period_fs * cycles;
        let conns = &turbo.conns;
        for i in 0..conns.len() {
            let in_flight = &conns.in_network[i];
            let bound = (conns.head_delay[i] + u64::from(turbo.payload_capacity))
                .div_ceil(turbo.slot_cycles)
                + 1;
            for d in in_flight {
                assert!(
                    conns.dst_phase_fs[i] + d.eop_cycle * turbo.period_fs > deadline_fs,
                    "{}: cycle {} is within the run to {cycles} but still in flight",
                    conns.conn[i],
                    d.eop_cycle
                );
            }
            assert!(
                in_flight.len() as u64 <= bound,
                "{}: {} flits in flight, bound {bound}",
                conns.conn[i],
                in_flight.len()
            );
            // The buffer grows by doubling from 4 and never shrinks, so a
            // capacity within twice the bound shows it never held more.
            assert!(
                in_flight.capacity() as u64 <= (2 * bound).max(4),
                "{}: in-flight buffer grew to {} slots, bound {bound}",
                conns.conn[i],
                in_flight.capacity()
            );
        }
    }

    #[test]
    fn a_run_leaves_only_the_flits_landing_past_its_deadline_in_flight() {
        let sync = aelite_spec::generate::paper_workload(42);
        let meso = sync.with_link_pipeline_stages(1, 1);
        for (spec, kind) in [
            (&sync, NetworkKind::Synchronous),
            (&meso, NetworkKind::Mesochronous { phase_seed: 7 }),
        ] {
            let alloc = allocate(spec).unwrap();
            let mut turbo = build_turbo(spec, &alloc, kind, true);
            turbo.run_cycles(3_000);
            assert!(turbo.conns.stats.iter().all(|s| s.flits > 0));
            assert_in_flight_bounded(&turbo, 3_000);
        }
    }

    #[test]
    fn stepped_runs_cutting_through_in_flight_flits_match_oneshot_and_event() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let horizon = 3_000;
        let mut oneshot = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        oneshot.run_cycles(horizon);
        let mut event = build_network(&spec, &alloc, NetworkKind::Synchronous, true);
        event.run_cycles(horizon);
        // One cycle before, at and after the EoP edge of each
        // connection's first flits, and one cycle before a mid-run EoP
        // edge: each deadline leaves a flit injected but not yet
        // delivered, or delivers it on the boundary. The last cut is
        // followed by a long run, which must not queue behind it.
        let mut deadlines: Vec<u64> = spec
            .connections()
            .iter()
            .flat_map(|c| {
                let eops = oneshot.delivery_cycles(c.id);
                let mid = eops[eops.len() / 2];
                eops.into_iter()
                    .take(4)
                    .flat_map(|eop| [eop - 1, eop, eop + 1])
                    .chain([mid - 1])
            })
            .collect();
        deadlines.sort_unstable();
        deadlines.dedup();
        let mut stepped = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        let mut cut_through = false;
        for &deadline in deadlines.iter().chain([&horizon]) {
            stepped.run_cycles(deadline);
            assert_in_flight_bounded(&stepped, deadline);
            cut_through |= stepped.conns.in_network.iter().any(|q| !q.is_empty());
        }
        assert!(cut_through, "no deadline left a flit in flight");
        for c in spec.connections() {
            assert_eq!(*oneshot.log(c.id).borrow(), *stepped.log(c.id).borrow());
            assert_eq!(*event.log(c.id).borrow(), *stepped.log(c.id).borrow());
            assert_eq!(oneshot.latency(c.id), stepped.latency(c.id));
        }
    }

    #[test]
    fn latency_statistics_track_delivered_flits() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let mut turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        turbo.run_cycles(10_000);
        for c in spec.connections() {
            let lat = turbo.latency(c.id);
            assert!(lat.flits > 0, "{} delivered nothing", c.id);
            assert!(lat.min_cycles <= lat.max_cycles);
            let bound = alloc.worst_case_latency_cycles(&spec, c.id);
            assert!(
                lat.max_cycles <= bound,
                "{}: measured {} > bound {bound}",
                c.id,
                lat.max_cycles
            );
        }
    }

    #[test]
    #[should_panic(expected = "link_pipeline_stages == 1")]
    fn mesochronous_build_requires_stage_config() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let _ = build_turbo(
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
        let _ = build_turbo(&spec, &alloc, NetworkKind::Synchronous, false);
    }
}
