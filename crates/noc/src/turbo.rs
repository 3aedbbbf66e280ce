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
//! allocation up front instead, in O(links × slots + Σ slots × hops):
//! 4.3 ms of a 10.5 ms build at 16×16 and 10 000 connections on a
//! 2-vCPU 2.1 GHz Xeon).
//!
//! [`build_turbo`] therefore *compiles* the built router/link/NI module
//! graph:
//!
//! * the per-cycle dynamic state that actually carries semantics — NI
//!   slot tables, message queues, end-to-end credits — is lowered into
//!   flat per-connection state stepped by a connection-major kernel that
//!   makes one decision per *owned slot the connection can use*: at a
//!   slot start it owns, exactly where the cycle-accurate NI decides for
//!   it, and only when that decision can send or must compute when the
//!   next one could;
//! * connection-major order is exact because connections share no
//!   arbitration state: each TDM slot of a source NI has one owner, and
//!   each connection has its own queue and, unless the buffer analysis
//!   proved they cannot bind (below), its own credits and credit-return
//!   schedule (the paper's composability argument). A decision that
//!   cannot send changes nothing the next one observes, so the kernel
//!   jumps to the first owned slot at or after the cycle at which one
//!   could — the queue front's ready cycle or the traffic generator's
//!   next push when idle, the edge at which enough credit is visible when
//!   starved — and work is O(flits + wake-ups), not O(NIs × slots). A
//!   wake is never put past the run's final source edge plus one: a
//!   message pushed between runs is seen at the first owned slot after
//!   the previous deadline;
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
//! **Credits that provably cannot bind are not booked.** End-to-end
//! credits throttle a connection only if its destination buffer is
//! smaller than the words it can have outstanding over one credit round
//! trip, which is what [`required_buffer_words`] bounds. [`build_turbo`]
//! marks a connection *credit-free* iff that bound, at
//! [`CREDIT_RETURN_CYCLES`], fits `ni_buffer_words`; the kernel then
//! skips its credit collection, its shortfall check and its per-word
//! credit-return schedule. Credit-bound connections keep the exact
//! credit path. The decision is sound, against the kernel's own
//! constants, for a path of `L` links:
//!
//! * the credit of a flit's `k`-th payload word (`k ≤ payload`) injected
//!   in the slot starting at source cycle `s` is visible at
//!   `dst_phase + (s + head_delay + k + 1 + CREDIT_RETURN_CYCLES) · period`.
//!   Both NI phases lie below half a period, so a decision at source
//!   cycle `c` sees it once `c > s + head_delay + payload + 1 +
//!   CREDIT_RETURN_CYCLES`;
//! * `pipeline_cycles` is at least `head_delay + payload`: `3L` against
//!   `3L − 2 + 2` synchronously and `6L` against `6L − 2 + 2`
//!   mesochronously at the paper's 3-word flits. [`build_turbo`] checks
//!   this per connection instead of assuming the flit size;
//! * so every word whose credit is still out at a decision was injected
//!   at most `R = pipeline + CREDIT_RETURN_CYCLES + 1` cycles earlier, in
//!   one of the `⌊R / slot⌋ + 1` slots ending at the decision's own. A
//!   slot is `flit_words ≥ 2` cycles, so that is at most
//!   `⌈(R − 1) / slot⌉ + 1` slots: the analysis window. Its owned slots
//!   carry at most `required_buffer_words` words, the flit about to be
//!   sent included. That fits the buffer, so the credit check can never
//!   fail and booking credits changes nothing a log or queue shows.
//!
//! **Equivalence is the contract**: a [`TurboNet`] produces delivery
//! logs bit-for-bit identical to the event-driven build of the same
//! spec/allocation/kind — the same [`FlitDelivery`] records including
//! destination cycle *and* absolute time, which both engines read off
//! the destination NI's clock and the event-driven sink asserts on every
//! flit it logs — pinned by
//! `tests/turbo_golden.rs` on the paper platform, on 4×4/8×8 scaled
//! meshes and on 8- and 128-slot tables in both clocking modes. The
//! event-driven simulator stays the
//! golden reference; the turbo kernel is what makes simulation cheap
//! enough for the design-space exploration's `--validate` stage (see
//! `aelite_dse` and [`DseGrid`]-driven sweeps).
//!
//! [`Module`]: aelite_sim::module::Module
//! [`DseGrid`]: ../../aelite_dse/grid/struct.DseGrid.html
//! [`FlitLog`]: crate::ni::FlitLog
//! [`FlitDelivery`]: crate::ni::FlitDelivery

use crate::network::{build_order, NetworkKind, CREDIT_RETURN_CYCLES};
use crate::ni::{delivery_log, message_queue, DeliveryLog, FlitLog, Message, MessageQueue};
use aelite_alloc::allocate::{required_buffer_words, Allocation};
use aelite_sim::time::Frequency;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;
use aelite_spec::timing::pipeline_cycles;
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
    fn advance(&mut self, cycle: u64, queue: &mut VecDeque<Message>) {
        while self.next_cycle <= cycle {
            queue.push_back(Message {
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
/// resident dynamics (queue, credits, packetisation, slot-table share)
/// plus the static network timing. The kernel runs one connection at a
/// time and makes one decision per owned slot the connection can use;
/// parallel arrays keep the per-connection scalars densely packed
/// instead of strided across a large per-connection struct — mega-mesh
/// builds carry 10k–30k connections (`tests/mega_mesh_golden.rs` runs
/// the 32×32/30k point).
#[derive(Debug, Default)]
struct ConnSoa {
    conn: Vec<ConnId>,
    queue: Vec<MessageQueue>,
    /// Delivered flits, timed by the destination NI's clock. A flit is
    /// written here when it is injected, if its destination edge falls
    /// within the run being simulated.
    log: Vec<DeliveryLog>,
    cbr: Vec<Option<CbrGen>>,
    /// The source-NI slot-table entries this connection owns, ascending:
    /// the only slot starts at which it can inject. No two connections of
    /// one source NI share an entry, so its decisions depend on nothing
    /// but its own state.
    slots: Vec<Box<[u32]>>,
    /// The next undecided cycle: the connection's next decision is at the
    /// first owned slot start at or after it. Every owned slot start
    /// before it has been decided or skipped as a decision that could not
    /// have sent.
    cursor: Vec<u64>,
    /// Cycles from the injection slot-start to the destination NI
    /// sampling the packet header.
    head_delay: Vec<u64>,
    /// Source-NI clock phase, femtoseconds.
    src_phase_fs: Vec<u64>,
    /// Destination-NI clock phase, femtoseconds.
    dst_phase_fs: Vec<u64>,
    /// Whether the buffer analysis proved that the connection's credit
    /// check can never fail (see the module documentation): such a
    /// connection books no credits, and `credits`/`credit_sched` stay
    /// untouched.
    credit_free: Vec<bool>,
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
        slots: Box<[u32]>,
        head_delay: u64,
        src_phase_fs: u64,
        dst_phase_fs: u64,
        period_fs: u64,
        credit_free: bool,
        credits: i64,
    ) {
        self.conn.push(conn);
        self.queue.push(queue);
        self.log.push(delivery_log(conn, dst_phase_fs, period_fs));
        self.cbr.push(cbr);
        self.slots.push(slots);
        self.cursor.push(0);
        self.head_delay.push(head_delay);
        self.src_phase_fs.push(src_phase_fs);
        self.dst_phase_fs.push(dst_phase_fs);
        self.credit_free.push(credit_free);
        self.credits.push(credits);
        self.credit_sched.push(VecDeque::new());
        self.in_network.push(VecDeque::new());
        self.current_msg.push(None);
        self.ready_floor.push(0);
        self.stats.push(ConnLatency::default());
    }

    /// Runs connection `i` to `deadline_fs`: logs the flits earlier runs
    /// left in flight that land by then, decides every owned slot start
    /// up to the run's final source edge at which the connection can
    /// send or must work out when it next could, and settles its traffic
    /// generator to that edge. The queue and the log are borrowed once.
    fn run(&mut self, i: usize, t: Timing, deadline_fs: u64) {
        let mut log = self.log[i].borrow_mut();
        let stats = &mut self.stats[i];
        let in_network = &mut self.in_network[i];
        let dst_phase_fs = self.dst_phase_fs[i];

        // Flits an earlier run left in flight that land by this deadline
        // are logged first: every flit injected below comes after them.
        while let Some(&d) = in_network.front() {
            if dst_phase_fs + d.eop_cycle * t.period_fs > deadline_fs {
                break;
            }
            in_network.pop_front();
            deliver(&mut log, stats, d);
        }

        let src_phase_fs = self.src_phase_fs[i];
        if src_phase_fs > deadline_fs {
            return;
        }
        // The run's final source edge. A wake past it is put at `last + 1`,
        // so the next run re-decides at the first owned slot after it and
        // sees whatever was pushed into the queue in between.
        let last = (deadline_fs - src_phase_fs) / t.period_fs;
        let mut queue = self.queue[i].borrow_mut();
        let cbr = &mut self.cbr[i];
        let slots = &*self.slots[i];
        let booked = !self.credit_free[i];
        let credits = &mut self.credits[i];
        let credit_sched = &mut self.credit_sched[i];
        let current_msg = &mut self.current_msg[i];
        let ready_floor = &mut self.ready_floor[i];
        let head_delay = self.head_delay[i];
        let credit_delay_fs = t.period_fs * CREDIT_RETURN_CYCLES;
        let jump =
            |wake: Option<u64>| t.next_owned(slots, wake.map_or(last + 1, |w| w.min(last + 1)));

        let mut next = t.next_owned(slots, self.cursor[i]);
        while let Some(at) = next {
            let c0 = t.slot_start(slots, at);
            if c0 > last {
                self.cursor[i] = c0;
                break;
            }
            // Materialise CBR arrivals up to this edge (the event
            // engine's CbrSource runs before the NiSource at every edge
            // of their shared domain).
            if let Some(g) = cbr {
                g.advance(c0, &mut queue);
            }

            // Collect returned credits. The event engine pops at every
            // edge; popping at decision points is equivalent because
            // visibility is monotone and credits are only observed here.
            if booked {
                let now_fs = src_phase_fs + c0 * t.period_fs;
                while let Some(&(at_fs, words)) = credit_sched.front() {
                    if at_fs > now_fs {
                        break;
                    }
                    credit_sched.pop_front();
                    *credits += i64::from(words);
                }
            }

            // Fetch the next message if idle.
            if current_msg.is_none() {
                if let Some(&m) = queue.front().filter(|m| m.ready_cycle <= c0) {
                    queue.pop_front();
                    *current_msg = Some((m, m.words));
                }
            }

            // A decision that cannot send changes nothing a later one
            // observes, so the connection sleeps until one could: idle,
            // until the queue front is ready or, with the queue empty,
            // the generator's next push; starved, until the source edge
            // at which enough credit has come back (otherwise the slot
            // idles, paper Section IV-A).
            let Some((msg, remaining)) = *current_msg else {
                let wake = queue.front().map(|m| m.ready_cycle);
                next = jump(wake.or(cbr.as_ref().map(|g| g.next_cycle)));
                continue;
            };
            let send_words = remaining.min(t.payload_capacity);
            if booked {
                let short = i64::from(send_words) - *credits;
                if short > 0 {
                    next = jump(credit_wake(credit_sched, short, src_phase_fs, t.period_fs));
                    continue;
                }
                *credits -= i64::from(send_words);
            }
            let left = remaining - send_words;
            *current_msg = if left > 0 { Some((msg, left)) } else { None };

            assert!(
                !t.mesochronous || send_words == t.payload_capacity,
                "{}: partial flit on a mesochronous link (the link FSM forwards \
                 whole flits; the event-driven reference underruns on this too)",
                self.conn[i]
            );

            // The flit's network passage is fully static: the EoP word
            // is sampled `head_delay + send_words` cycles after the slot
            // start, and each payload word's credit returns one
            // destination edge after that word lands.
            let eop_cycle = c0 + head_delay + u64::from(send_words);
            let flit = PendingDelivery {
                eop_cycle,
                tag: crate::ni::flit_base_tag(msg.seq, msg.words, remaining),
                ready: msg.ready_cycle.max(*ready_floor),
            };
            *ready_floor = c0 + t.slot_cycles;
            // A connection's EoP cycles rise strictly in injection order
            // (slot starts are `slot_cycles` apart and a flit is shorter
            // than a slot), so a flit landing within the run with nothing
            // ahead of it in flight is logged now.
            if in_network.is_empty() && dst_phase_fs + eop_cycle * t.period_fs <= deadline_fs {
                deliver(&mut log, stats, flit);
            } else {
                in_network.push_back(flit);
            }
            if booked {
                for k in 1..=u64::from(send_words) {
                    let drain_edge = c0 + head_delay + k + 1;
                    credit_sched
                        .push_back((dst_phase_fs + drain_edge * t.period_fs + credit_delay_fs, 1));
                }
            }
            next = Some(t.following(slots, at));
        }

        // Settle CBR arrivals to this run's final source edge, so the
        // shared queue handle holds exactly what the event engine's would.
        if let Some(g) = cbr {
            g.advance(last, &mut queue);
        }
    }
}

/// Logs flit `d` and counts its latency.
fn deliver(log: &mut FlitLog, stats: &mut ConnLatency, d: PendingDelivery) {
    log.record(d.tag, d.eop_cycle);
    let latency = d.eop_cycle - d.ready;
    stats.flits += 1;
    stats.min_cycles = stats.min_cycles.min(latency);
    stats.max_cycles = stats.max_cycles.max(latency);
}

/// The first source edge at which the returns scheduled in `sched`
/// (chronological `(visible-at fs, words)`) cover a shortfall of `short`
/// words, or `None` if they never do.
fn credit_wake(
    sched: &VecDeque<(u64, u32)>,
    short: i64,
    src_phase_fs: u64,
    period_fs: u64,
) -> Option<u64> {
    let mut covered = 0;
    sched.iter().find_map(|&(at_fs, words)| {
        covered += i64::from(words);
        (covered >= short).then(|| (at_fs - src_phase_fs).div_ceil(period_fs))
    })
}

/// The network constants the kernel's slot arithmetic runs on.
#[derive(Debug, Clone, Copy)]
struct Timing {
    period_fs: u64,
    slot_cycles: u64,
    table_size: u64,
    payload_capacity: u32,
    mesochronous: bool,
}

impl Timing {
    /// The first start of an owned slot at or after `cycle`, as
    /// `(table revolution, index into slots)` — `None` for a connection
    /// that owns no slot, which never injects.
    fn next_owned(self, slots: &[u32], cycle: u64) -> Option<(u64, usize)> {
        if slots.is_empty() {
            return None;
        }
        let n = cycle.div_ceil(self.slot_cycles);
        let (rev, pos) = (n / self.table_size, n % self.table_size);
        let j = slots.partition_point(|&s| u64::from(s) < pos);
        Some(if j < slots.len() {
            (rev, j)
        } else {
            (rev + 1, 0)
        })
    }

    /// The owned slot after `at`.
    fn following(self, slots: &[u32], (rev, j): (u64, usize)) -> (u64, usize) {
        if j + 1 < slots.len() {
            (rev, j + 1)
        } else {
            (rev + 1, 0)
        }
    }

    /// The start cycle of owned slot `at`.
    fn slot_start(self, slots: &[u32], (rev, j): (u64, usize)) -> u64 {
        (rev * self.table_size + u64::from(slots[j])) * self.slot_cycles
    }
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
    timing: Timing,
    conns: ConnSoa,
    /// `ConnId::index() -> index into `conns``.
    conn_index: Vec<u32>,
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
            .timing
            .period_fs
            .checked_mul(cycles)
            .expect("deadline overflows femtoseconds");
        self.horizon_cycles = self.horizon_cycles.max(cycles);
        // Connection by connection, each over its own owned slots: the
        // event engine's time-major order gives the same result because
        // connections share no state.
        for i in 0..self.conns.len() {
            self.conns.run(i, self.timing, deadline_fs);
        }
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
/// [`validate_allocation`](aelite_alloc::validate_allocation) makes one
/// pass over the grants into a dense `(link, slot)` owner table and one
/// over the link tables.
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
    let [by_src, by_dst] = build_order(spec, kind);
    let cfg = spec.config();
    let topo = spec.topology();
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

    // Per-connection compiled state, in `build_network`'s construction
    // order.
    let mut conns = ConnSoa::default();
    let mut conn_index: Vec<u32> = vec![u32::MAX; spec.conn_id_bound()];
    let mut queues: Vec<(ConnId, MessageQueue)> = Vec::new();
    // The source NI's slot table: which entries its connections claimed.
    let mut claimed = vec![false; cfg.slot_table_size as usize];
    for ni in topo.nis() {
        claimed.fill(false);
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
                    pipeline_cycles(cfg, grant.links.len()) - u64::from(payload_capacity)
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
                assert!(!claimed[s as usize], "slot {s} claimed twice on one NI");
                claimed[s as usize] = true;
            }
            // Credits that provably cannot bind are not booked: the
            // analysis window covers the kernel's credit horizon when the
            // allocator's pipeline model covers the head delay plus a
            // flit (see the module documentation).
            let credit_free = head_delay + u64::from(payload_capacity)
                <= pipeline_cycles(cfg, grant.links.len())
                && required_buffer_words(spec, alloc, c.id, CREDIT_RETURN_CYCLES)
                    <= cfg.ni_buffer_words;
            // Ascending and non-empty: validation computed the grant's
            // latency bound over them, which refuses anything else.
            conns.push(
                c.id,
                queue,
                cbr,
                grant.inject_slots.clone().into_boxed_slice(),
                head_delay,
                ni_phase[ni.index()],
                ni_phase[spec.ip_ni(c.dst).index()],
                period_fs,
                credit_free,
                i64::from(cfg.ni_buffer_words),
            );
        }
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
        timing: Timing {
            period_fs,
            slot_cycles,
            table_size: u64::from(cfg.slot_table_size),
            payload_capacity,
            mesochronous,
        },
        conns,
        conn_index,
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

    impl TurboNet {
        /// The cycle index the engine will simulate next. After
        /// `run_cycles(c)` this is `c + 1`: the deadline is inclusive, so
        /// cycle `c`'s phase-zero edges have already run — exactly the edge
        /// count of the event-driven engine under the same deadline.
        fn next_cycle(&self) -> u64 {
            self.horizon_cycles + 1
        }
    }

    /// Two NIs on a 2×1 mesh under `cfg`, with one connection each way
    /// carrying `mbps[0]` and `mbps[1]` MB/s within `latency_ns`.
    fn two_ni_spec_on(cfg: NocConfig, mbps: [u64; 2], latency_ns: u64) -> SystemSpec {
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, cfg);
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        b.add_connection(
            app,
            s,
            d,
            Bandwidth::from_mbytes_per_sec(mbps[0]),
            latency_ns,
        );
        b.add_connection(
            app,
            d,
            s,
            Bandwidth::from_mbytes_per_sec(mbps[1]),
            latency_ns,
        );
        b.build()
    }

    fn two_ni_spec(stages: u32) -> SystemSpec {
        let mut cfg = NocConfig::paper_default();
        cfg.link_pipeline_stages = stages;
        two_ni_spec_on(cfg, [100, 60], 800)
    }

    /// The paper configuration on an 8-slot table.
    fn eight_slot_config(stages: u32) -> NocConfig {
        let mut cfg = NocConfig::paper_default();
        cfg.link_pipeline_stages = stages;
        cfg.slot_table_size = 8;
        cfg
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

    /// Compiling the routers away is licensed by the allocation being
    /// contention-free; a grant detached with its reservations still in
    /// the tables breaks that, and the build must refuse.
    #[test]
    #[should_panic(expected = "allocation invalid")]
    fn build_turbo_refuses_an_invalid_allocation() {
        let spec = two_ni_spec(0);
        let mut alloc = allocate(&spec).unwrap();
        alloc.detach_grant(spec.connections()[1].id).unwrap();
        let _ = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
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
        let deadline_fs = turbo.timing.period_fs * cycles;
        let conns = &turbo.conns;
        for i in 0..conns.len() {
            let in_flight = &conns.in_network[i];
            let bound = (conns.head_delay[i] + u64::from(turbo.timing.payload_capacity))
                .div_ceil(turbo.timing.slot_cycles)
                + 1;
            for d in in_flight {
                assert!(
                    conns.dst_phase_fs[i] + d.eop_cycle * turbo.timing.period_fs > deadline_fs,
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

    #[test]
    fn owned_slot_search_wraps_across_revolutions() {
        let t = Timing {
            period_fs: 2_000_000,
            slot_cycles: 3,
            table_size: 8,
            payload_capacity: 2,
            mesochronous: false,
        };
        let slots = [0, 7];
        let start = |cycle| {
            t.next_owned(&slots, cycle)
                .map(|at| t.slot_start(&slots, at))
        };
        assert_eq!(start(0), Some(0));
        assert_eq!(start(1), Some(21));
        assert_eq!(start(21), Some(21));
        assert_eq!(start(22), Some(24));
        assert_eq!(start(24 * 5 + 1), Some(24 * 5 + 21));
        let at = t.next_owned(&slots, 22).unwrap();
        assert_eq!(t.slot_start(&slots, t.following(&slots, at)), 45);
        assert_eq!(t.slot_start(&[3], t.following(&[3], (2, 0))), 24 * 3 + 9);
        // A grant always owns a slot (validation computes its latency
        // bound over them), but an empty list is a connection that never
        // injects, not a panic.
        assert_eq!(t.next_owned(&[], 5), None);
    }

    /// A two-NI platform whose destination buffers hold one flit
    /// (`ni_buffer_words == flit_words`): after every 2-word flit a
    /// connection waits for credit. `c0` owns most of an 8-slot table, so
    /// the edge at which its credit returns is often a slot start it
    /// owns.
    fn credit_starved_spec(stages: u32) -> SystemSpec {
        let mut cfg = eight_slot_config(stages);
        cfg.ni_buffer_words = cfg.flit_words;
        two_ni_spec_on(cfg, [1000, 300], 4000)
    }

    /// Runs an event and a turbo build of `spec` to each of `deadlines`
    /// in turn, first pushing `feed(deadline, conn)` into both engines'
    /// queue of every connection; after every run, each queue and each
    /// delivery log must be identical, and `after(deadline, &turbo)` is
    /// called. A second turbo build forced onto the booked credit path
    /// for every connection must match too, whatever the buffer analysis
    /// decided. Returns the default turbo build.
    fn step_against_event(
        spec: &SystemSpec,
        kind: NetworkKind,
        with_traffic: bool,
        deadlines: &[u64],
        feed: impl Fn(u64, ConnId) -> Vec<Message>,
        mut after: impl FnMut(u64, &TurboNet),
    ) -> TurboNet {
        let alloc = allocate(spec).unwrap();
        let mut event = build_network(spec, &alloc, kind, with_traffic);
        let mut turbo = build_turbo(spec, &alloc, kind, with_traffic);
        let mut booked = build_turbo(spec, &alloc, kind, with_traffic);
        booked.conns.credit_free.fill(false);
        for &deadline in deadlines {
            for c in spec.connections() {
                for m in feed(deadline, c.id) {
                    for queue in [event.queue(c.id), turbo.queue(c.id), booked.queue(c.id)] {
                        queue.borrow_mut().push_back(m);
                    }
                }
            }
            event.run_cycles(deadline);
            turbo.run_cycles(deadline);
            booked.run_cycles(deadline);
            for c in spec.connections() {
                for (net, build) in [(&turbo, "default"), (&booked, "booked")] {
                    assert_eq!(
                        *event.queue(c.id).borrow(),
                        *net.queue(c.id).borrow(),
                        "{}: {build} queues diverge after the run to {deadline}",
                        c.id
                    );
                    assert_eq!(
                        *event.log(c.id).borrow(),
                        *net.log(c.id).borrow(),
                        "{}: {build} delivery logs diverge after the run to {deadline}",
                        c.id
                    );
                }
            }
            after(deadline, &turbo);
        }
        turbo
    }

    /// Whether `conn` holds a message it lacked the credit to send at its
    /// last decision.
    fn starved(turbo: &TurboNet, conn: ConnId) -> bool {
        let i = turbo.index_of(conn);
        turbo.conns.current_msg[i].is_some_and(|(_, remaining)| {
            i64::from(remaining.min(turbo.timing.payload_capacity)) > turbo.conns.credits[i]
        })
    }

    /// Thirty back-to-back messages per connection, all ready at cycle 0;
    /// whole flits only on mesochronous links.
    fn back_to_back(mesochronous: bool) -> Vec<Message> {
        (0..30)
            .map(|seq| Message {
                seq,
                words: if mesochronous {
                    2 + 2 * (seq % 3)
                } else {
                    1 + seq % 5
                },
                ready_cycle: 0,
            })
            .collect()
    }

    #[test]
    fn credit_starved_connections_wake_on_the_edge_their_credit_returns() {
        // Every deadline from 1 to 400 cuts the run once per cycle, so
        // runs end inside credit waits, on the edge a credit becomes
        // visible and on the slot start it is used at.
        let deadlines: Vec<u64> = (1..=400).chain([700, 4_000]).collect();
        for (stages, kind) in [
            (0, NetworkKind::Synchronous),
            (1, NetworkKind::Mesochronous { phase_seed: 3 }),
            (1, NetworkKind::Mesochronous { phase_seed: 8 }),
        ] {
            let spec = credit_starved_spec(stages);
            let meso = stages == 1;
            let feed = |d, _| {
                if d == 1 {
                    back_to_back(meso)
                } else {
                    Vec::new()
                }
            };
            let mut starved_cuts = 0;
            let stepped = step_against_event(&spec, kind, false, &deadlines, feed, |_, turbo| {
                starved_cuts += spec
                    .connections()
                    .iter()
                    .filter(|c| starved(turbo, c.id))
                    .count();
            });
            assert!(
                starved_cuts > 50,
                "{kind:?}: only {starved_cuts} cuts in a credit wait"
            );

            let alloc = allocate(&spec).unwrap();
            let mut oneshot = build_turbo(&spec, &alloc, kind, false);
            for c in spec.connections() {
                oneshot.queue(c.id).borrow_mut().extend(back_to_back(meso));
            }
            oneshot.run_cycles(4_000);
            let flits: u32 = back_to_back(meso).iter().map(|m| m.words.div_ceil(2)).sum();
            for c in spec.connections() {
                assert_eq!(stepped.log(c.id).borrow().len(), flits as usize);
                assert_eq!(*oneshot.log(c.id).borrow(), *stepped.log(c.id).borrow());
                assert_eq!(oneshot.latency(c.id), stepped.latency(c.id));
            }
        }
    }

    #[test]
    fn manual_messages_are_sent_when_ready_and_when_pushed_after_an_idle_run() {
        // Ten messages ready in the future are pushed before the first
        // run; every connection is idle with an empty queue after the run
        // to 2 000, and after it messages already ready (cycle 0, the
        // last deadline) and others ready later are pushed between runs.
        let spec = two_ni_spec(0);
        let deadlines = [100, 400, 2_000, 2_001, 2_700, 3_400, 3_401, 4_500, 6_500];
        let feed = |d: u64, c: ConnId| {
            let msg = |seq, ready_cycle| Message {
                seq,
                words: 1 + seq % 4,
                ready_cycle,
            };
            match d {
                100 => (0..10).map(|k| msg(k, 150 + 97 * u64::from(k))).collect(),
                2_001 => vec![msg(10, 0), msg(11, 2_000)],
                2_700 => vec![msg(12, 2_650 + 7 * c.index() as u64)],
                3_401 => vec![msg(13, 3_400), msg(14, 4_000), msg(15, 3_500)],
                _ => Vec::new(),
            }
        };
        let idle = |d, turbo: &TurboNet| {
            if d == 2_000 {
                for c in spec.connections() {
                    assert!(turbo.queue(c.id).borrow().is_empty());
                    assert!(turbo.conns.current_msg[turbo.index_of(c.id)].is_none());
                }
            }
        };
        let turbo = step_against_event(
            &spec,
            NetworkKind::Synchronous,
            false,
            &deadlines,
            feed,
            idle,
        );
        for c in spec.connections() {
            assert_eq!(
                turbo.log(c.id).borrow().iter().map(|d| d.tag >> 8).max(),
                Some(15),
                "{}: not every message was sent",
                c.id
            );
        }

        // Messages whose ready cycle lies past the deadline they are
        // pushed after leave a one-shot run unchanged.
        let mut oneshot = build_turbo(
            &spec,
            &allocate(&spec).unwrap(),
            NetworkKind::Synchronous,
            false,
        );
        for c in spec.connections() {
            for d in [100, 2_700] {
                oneshot.queue(c.id).borrow_mut().extend(feed(d, c.id));
            }
        }
        oneshot.run_cycles(6_500);
        let mut stepped = build_turbo(
            &spec,
            &allocate(&spec).unwrap(),
            NetworkKind::Synchronous,
            false,
        );
        for d in [100, 400, 2_000, 2_600, 2_700, 6_500] {
            for c in spec.connections() {
                stepped.queue(c.id).borrow_mut().extend(feed(d, c.id));
            }
            stepped.run_cycles(d);
        }
        for c in spec.connections() {
            assert_eq!(*oneshot.log(c.id).borrow(), *stepped.log(c.id).borrow());
        }
    }

    #[test]
    fn a_message_pushed_between_cbr_pushes_is_sent_at_the_next_owned_slot() {
        // One slot in 8 (a slot start every 24 cycles) for a 10 MB/s
        // contract: a 16-byte message every 800 cycles, so most runs end
        // idle with the generator's next push many owned slots ahead. A
        // message offered by hand in between must not wait for it.
        for (stages, kind) in [
            (0, NetworkKind::Synchronous),
            (1, NetworkKind::Mesochronous { phase_seed: 5 }),
        ] {
            let spec = two_ni_spec_on(eight_slot_config(stages), [10, 10], 4000);
            let deadlines: Vec<u64> = (1..=60).map(|k| k * 53).collect();
            let feed = |d: u64, _| {
                if d.is_multiple_of(5) {
                    vec![Message {
                        seq: 1_000 + (d / 53) as u32,
                        words: 2,
                        ready_cycle: d - 53,
                    }]
                } else {
                    Vec::new()
                }
            };
            let mut idle_cuts = 0;
            step_against_event(&spec, kind, true, &deadlines, feed, |_, turbo| {
                let conns = &turbo.conns;
                idle_cuts += (0..conns.len())
                    .filter(|&i| {
                        conns.queue[i].borrow().is_empty()
                            && conns.current_msg[i].is_none()
                            && conns.cbr[i].unwrap().next_cycle > conns.cursor[i]
                    })
                    .count();
            });
            assert!(idle_cuts > 50, "{kind:?}: only {idle_cuts} idle cuts");
        }
    }

    #[test]
    fn stepped_runs_leave_every_queue_as_the_event_engine_does() {
        // The generator is settled lazily to each run's final source edge;
        // what a caller reads from the queue handles between runs must be
        // exactly the event engine's queue, pending messages included.
        let sync = aelite_spec::generate::paper_workload(42);
        let meso = sync.with_link_pipeline_stages(1, 1);
        let deadlines = [1, 2, 3, 50, 333, 334, 1_000, 1_777, 2_500, 3_000];
        for (spec, kind) in [
            (&sync, NetworkKind::Synchronous),
            (&meso, NetworkKind::Mesochronous { phase_seed: 7 }),
        ] {
            let stepped =
                step_against_event(spec, kind, true, &deadlines, |_, _| Vec::new(), |_, _| {});
            let mut oneshot = build_turbo(spec, &allocate(spec).unwrap(), kind, true);
            oneshot.run_cycles(3_000);
            for c in spec.connections() {
                assert_eq!(*oneshot.queue(c.id).borrow(), *stepped.queue(c.id).borrow());
                assert_eq!(*oneshot.log(c.id).borrow(), *stepped.log(c.id).borrow());
            }
        }
    }

    /// How many connections of a `kind` build of `spec` book no credits.
    fn credit_free_count(spec: &SystemSpec, kind: NetworkKind) -> usize {
        let turbo = build_turbo(spec, &allocate(spec).unwrap(), kind, false);
        turbo.conns.credit_free.iter().filter(|&&free| free).count()
    }

    #[test]
    fn the_buffer_analysis_decides_which_connections_book_credits() {
        // One-flit buffers: both connections' credits bind.
        for (stages, kind) in [
            (0, NetworkKind::Synchronous),
            (1, NetworkKind::Mesochronous { phase_seed: 3 }),
        ] {
            assert_eq!(credit_free_count(&credit_starved_spec(stages), kind), 0);
        }
        // The paper's 24-word buffers cover every connection.
        let sync = aelite_spec::generate::paper_workload(42);
        assert_eq!(sync.config().ni_buffer_words, 24);
        assert_eq!(credit_free_count(&sync, NetworkKind::Synchronous), 200);
        let meso = sync.with_link_pipeline_stages(1, 1);
        let kind = NetworkKind::Mesochronous { phase_seed: 7 };
        assert_eq!(credit_free_count(&meso, kind), 200);
    }

    #[test]
    fn skipping_unbindable_credits_changes_nothing_observable() {
        // The default build against one forced onto the booked credit path
        // for every connection, run to the same deadlines in steps.
        let paper = aelite_spec::generate::paper_workload(42);
        let mesh8 = aelite_spec::generate::WorkloadBuilder::mesh(8, 8, 4)
            .mega_traffic()
            .connections(2_500)
            .tiles(4, 4)
            .seed(1)
            .build();
        for (spec, kind) in [
            (paper.clone(), NetworkKind::Synchronous),
            (
                paper.with_link_pipeline_stages(1, 1),
                NetworkKind::Mesochronous { phase_seed: 7 },
            ),
            (mesh8, NetworkKind::Synchronous),
        ] {
            let alloc = allocate(&spec).unwrap();
            let mut free = build_turbo(&spec, &alloc, kind, true);
            let mut booked = build_turbo(&spec, &alloc, kind, true);
            booked.conns.credit_free.fill(false);
            assert!(free.conns.credit_free.iter().all(|&f| f), "{kind:?}");
            for deadline in [1, 97, 1_000, 1_001, 2_345, 4_000] {
                free.run_cycles(deadline);
                booked.run_cycles(deadline);
                for c in spec.connections() {
                    assert_eq!(*free.log(c.id).borrow(), *booked.log(c.id).borrow());
                    assert_eq!(*free.queue(c.id).borrow(), *booked.queue(c.id).borrow());
                    assert_eq!(free.latency(c.id), booked.latency(c.id));
                }
            }
            assert!(booked.conns.credit_sched.iter().any(|s| !s.is_empty()));
            assert!(free.conns.credit_sched.iter().all(VecDeque::is_empty));
        }
    }
}
