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
//! 4.3 ms of a 10.5 ms one-thread build at 16×16 and 10 000 connections
//! on a 2-vCPU 2.1 GHz Xeon, where a two-shard build runs it on a worker
//! beside compiling the connections).
//!
//! [`build_turbo`] therefore *compiles* the built router/link/NI module
//! graph, from the allocation's configuration image that
//! [`build_network`](crate::network::build_network) wires into its NIs:
//!
//! * the per-cycle dynamic state that actually carries semantics — NI
//!   slot tables, message queues, end-to-end credits — is lowered into
//!   flat per-connection state stepped by a connection-major kernel that
//!   makes one decision per *message and per wake*, at a slot start the
//!   connection owns, exactly where the cycle-accurate NI decides for
//!   it. A decision that takes a message hands it to a message loop,
//!   which streams its flits out at the following owned slots: with the
//!   message in hand nothing is left to decide, so the loop only stops
//!   when the message ends, when the run does, or, for a connection that
//!   books credits, at the first flit its credit does not cover;
//! * connection-major order is exact because connections share no
//!   arbitration state: each TDM slot of a source NI has one owner, and
//!   each connection has its own queue and, unless the buffer analysis
//!   proved they cannot bind (below), its own credits and credit-return
//!   schedule (the paper's composability argument). A decision that
//!   cannot send changes nothing the next one observes, so the kernel
//!   sleeps to the first owned slot at or after the cycle at which one
//!   could — the queue front's ready cycle or the traffic generator's
//!   next push when idle, the edge at which enough credit is visible when
//!   starved — and work is O(messages + wake-ups) decisions plus one
//!   step per flit, not O(NIs × slots). A wake within a table revolution
//!   steps forward through the owned slots; only one further ahead
//!   searches the table, with divisions. A wake is never put past the
//!   run's final source edge plus one: a message pushed between runs is
//!   seen at the first owned slot after the previous deadline. The
//!   traffic generator is advanced only at decisions, the only points
//!   that read the queue, and to the run's final source edge when the
//!   run ends;
//! * the same composability lets disjoint sets of connections run at
//!   once, in any order. [`build_turbo`] gives a net one thread per 128
//!   connections, rounded up, and at most one per core, and cuts the
//!   connections of a net with more than one thread into 16 contiguous
//!   *shards* per thread with near-equal owned-slot totals. Between runs
//!   a connection's messages and delivered flits live behind its
//!   [`MessageQueue`] and [`DeliveryLog`] handles, as in the event
//!   engine; a shard holds no `Rc`, so it is `Send`. A run is a pipeline.
//!   The calling thread *checks in* one shard at a time: it moves the
//!   shard's messages and flits in from their handles and reserves each
//!   log for the run (the flits in flight, plus the fewer of the owned
//!   slot starts left in the run and the flits the current message, the
//!   queue and the generator can supply). It then queues the shard. Once
//!   the shards checked in reserve 12 500 flits per thread, workers
//!   start; a shorter run keeps every shard on the calling thread, which
//!   is faster than starting workers. Every thread claims the next
//!   queued shard and runs it, the calling one too once every shard is
//!   checked in, and the calling thread *checks out* each shard, moving
//!   its messages and flits back to their handles, as soon as it has run.
//!   So on a long run the workers start after one shard's check-in, and
//!   the slowest thread finishes at most about a shard after the others.
//!   Workers never grow a log's records, and every log lives in the
//!   calling thread's allocator arena, not in that of a worker that has
//!   exited (only a flit whose high words differ from its predecessor's
//!   adds a 16-byte mark, which needs a run past 2³² cycles or a sequence
//!   number past 2²⁴). A worker's panic is re-raised with its own
//!   message. A net of more than 512 connections on more than one thread
//!   also re-validates its allocation on a worker while the calling
//!   thread compiles it;
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
//!   deadline wait in flight. A log stores 8 bytes per flit — the low
//!   words of tag and cycle, their high words in a side table that grows
//!   only where they change; connection and absolute time come from the
//!   log itself.
//!
//! **Credits that provably cannot bind are not booked.** End-to-end
//! credits throttle a connection only if its destination buffer is
//! smaller than the words it can have outstanding over one credit round
//! trip, which is what the allocator's buffer analysis bounds. The
//! configuration image marks a connection *credit-free* iff that bound, at
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
//!   mesochronously at the paper's 3-word flits. The image checks this
//!   per connection instead of assuming the flit size;
//! * so every word whose credit is still out at a decision was injected
//!   at most `R = pipeline + CREDIT_RETURN_CYCLES + 1` cycles earlier, in
//!   one of the `⌊R / slot⌋ + 1` slots ending at the decision's own. A
//!   slot is `flit_words ≥ 2` cycles, so that is at most
//!   `⌈(R − 1) / slot⌉ + 1` slots: the analysis window. Its owned slots
//!   carry at most the buffer analysis's bound, the flit about to be sent
//!   included. That fits the buffer, so the credit check can never
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

use crate::image::{ConfigImage, ConnImage, ConnIndex};
use crate::network::{NetworkKind, CREDIT_RETURN_CYCLES};
use crate::ni::{DeliveryLog, FlitRecords, Message, MessageQueue};
use aelite_alloc::allocate::Allocation;
use aelite_sim::time::Frequency;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;
use aelite_spec::traffic::MessageSource;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Mutex, OnceLock};

// When a thread pays for itself. Each figure below was measured on a
// 2-vCPU 2.1 GHz Xeon, release build, one thread against two.

/// Connections per thread: a net runs on one thread per this many
/// connections, rounded up, but on no more threads than the host has
/// cores. A net of up to this many is one shard and never starts a
/// thread. A 30 000-cycle run (the design-space validation horizon) with
/// its build was 15 % slower on two threads at 100 connections, 5–9 %
/// faster at 150, and 17 % faster in the median of 16 nets of 200–1 000
/// connections (from 32 % faster to 2 % slower), each thread then
/// running one shard. With 16 shards per thread and the run pipelined,
/// two threads were still faster from 150 connections (7–27 %, three
/// rounds on 4×4 meshes), so the crossover holds.
const CONNS_PER_WORKER: usize = 128;

/// Shards per thread of a net that runs on more than one: threads claim
/// shards one at a time, so the last to finish waits for at most a
/// fraction of a thread's share, and a worker can start once the first
/// shard, this fraction of a thread's connections, is checked in. On
/// `turbo_mesh16` (two threads) 8, 16 and 32 shards per thread ran
/// 10–30 % faster than 1 or 4, and 16 and 32 were alike.
const SHARDS_PER_THREAD: usize = 16;

/// Flits per thread that the shards a run has checked in must reserve
/// before it starts workers; a run whose shards reserve fewer runs every
/// shard on the calling thread. With one shard per thread, two threads
/// were slower than one on runs reserving up to 10 000–18 000 flits and
/// faster from 14 000–28 000, depending on the host's load and on whether
/// the net had run before. With 16 shards per thread and the run
/// pipelined, on fresh 8×8 nets of 1 000 connections, two threads were
/// slower at 5 000 flits and faster from 10 000, each in two or three of
/// three rounds. Two threads need 25 000, so a run kept on one thread
/// loses at most about a tenth.
const FLITS_PER_WORKER: usize = 12_500;

/// Connections above which a build that runs on more than one thread
/// validates its allocation on a worker while the calling thread
/// compiles it. A worker made builds of 200–320 connections 2–34 %
/// slower and builds of 1 000–2 500 connections 18–27 % faster. Runs do
/// not enter a build, and cutting more shards adds only their count to
/// its work, so the crossover holds.
const VALIDATE_ON_WORKER_CONNS: usize = 512;

/// Measured delivery and per-flit latency of one connection, tracked by
/// the turbo kernel (instrumentation only — it does not influence
/// behaviour).
///
/// A flit becomes *ready* at `max(message ready cycle, end of the
/// previous flit's slot)`, with messages labelled by [`MessageSource`] —
/// the per-flit definition of the analytical bound
/// [`worst_case_latency_cycles`](Allocation::worst_case_latency_cycles) —
/// and its latency is the destination-NI delivery cycle minus that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnLatency {
    /// Flits delivered.
    pub flits: u64,
    /// Payload words delivered.
    pub words: u64,
    /// Minimum observed per-flit latency, in cycles (`u64::MAX` before
    /// any delivery).
    pub min_cycles: u64,
    /// Maximum observed per-flit latency, in cycles.
    pub max_cycles: u64,
    /// Sum of the per-flit latencies, in cycles.
    pub latency_sum: u64,
}

impl Default for ConnLatency {
    fn default() -> Self {
        ConnLatency {
            flits: 0,
            words: 0,
            min_cycles: u64::MAX,
            max_cycles: 0,
            latency_sum: 0,
        }
    }
}

impl ConnLatency {
    /// Mean per-flit latency in cycles, or `None` before any delivery.
    #[must_use]
    pub fn mean_cycles(&self) -> Option<f64> {
        (self.flits > 0).then(|| self.latency_sum as f64 / self.flits as f64)
    }
}

/// Work the turbo kernel did, summed over its connections and runs: the
/// count the kernel's cost follows, where wall-clock time on a shared
/// host does not. Each shard counts its own, folded in once per
/// connection per run, so no flit pays for an add.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Decisions: owned slot starts within a run at which the kernel
    /// advanced the traffic source and took, resumed or slept for a
    /// message — one per message, per wake and per run end that cuts a
    /// message, not one per flit.
    pub decisions: u64,
    /// Flits injected.
    pub sends: u64,
    /// Decisions that found no message ready and slept until one could
    /// be (or to the run's end).
    pub idle_wakes: u64,
    /// Decisions that held a message without the credit to send it and
    /// slept until enough came back (or to the run's end).
    pub credit_wakes: u64,
    /// Searches for the first owned slot at or after a cycle, each three
    /// `u64` divisions.
    pub slot_searches: u64,
}

impl KernelCounts {
    /// Every counter of `self` combined with the same counter of `other`
    /// — the one place besides the declaration that lists the fields.
    fn zip(&self, other: &KernelCounts, f: impl Fn(u64, u64) -> u64) -> KernelCounts {
        KernelCounts {
            decisions: f(self.decisions, other.decisions),
            sends: f(self.sends, other.sends),
            idle_wakes: f(self.idle_wakes, other.idle_wakes),
            credit_wakes: f(self.credit_wakes, other.credit_wakes),
            slot_searches: f(self.slot_searches, other.slot_searches),
        }
    }

    /// Field-wise difference `self - before`: the work done since a
    /// snapshot taken earlier from the same net.
    #[must_use]
    pub fn delta(&self, before: &KernelCounts) -> KernelCounts {
        self.zip(before, |after, before| after - before)
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

/// Queues every message `source` offers at edges up to and including
/// `cycle` — what the event-driven [`CbrSource`](crate::ni::CbrSource)
/// pushes edge by edge, advanced lazily to each observation point.
fn offer(source: &mut MessageSource, cycle: u64, queue: &mut VecDeque<Message>) {
    while let Some(arrival) = source.pop_arrival(cycle) {
        queue.push_back(arrival.into());
    }
}

/// One shard of the compiled per-connection state, in struct-of-arrays
/// layout: the NI-resident dynamics (queue, credits, packetisation,
/// slot-table share) plus the static network timing of a contiguous run
/// of connections. The kernel runs one connection at a time, makes one
/// decision per message and per wake, and streams each message's flits
/// out at the owned slots that follow its decision; parallel arrays
/// keep the per-connection scalars densely packed instead of strided
/// across a large per-connection struct — mega-mesh builds carry
/// 10k–30k connections (`tests/mega_mesh_golden.rs` runs the 32×32/30k
/// point).
///
/// A shard holds no shared handle, so a worker thread can own it for a
/// run: queues and flit buffers move in from the net's handles when a run
/// starts and back out when it ends.
#[derive(Debug)]
struct ConnSoa {
    /// Compiled index of the shard's first connection.
    first: usize,
    conn: Vec<ConnId>,
    /// Messages offered to each connection, during a run; empty between
    /// runs, when the queue handles hold them.
    queue: Vec<VecDeque<Message>>,
    /// Each connection's delivered flits as `(tag, destination cycle)`,
    /// during a run; empty between runs, when the log handles hold them.
    /// A flit is written here when it is injected, if its destination
    /// edge falls within the run being simulated.
    flits: Vec<FlitRecords>,
    /// Each connection's traffic source, when the net was built with
    /// traffic.
    source: Vec<Option<MessageSource>>,
    /// The source-NI slot-table entries this connection owns, ascending:
    /// the only slot starts at which it can inject. No two connections of
    /// one source NI share an entry, so its decisions depend on nothing
    /// but its own state.
    slots: Vec<Box<[u32]>>,
    /// The next undecided cycle: the connection's next decision is at the
    /// first owned slot start at or after it. Every owned slot start
    /// before it has been decided, streamed through by a message, or
    /// skipped as a decision that could not have sent.
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
    /// The work the shard's runs did.
    counts: KernelCounts,
}

// Workers own shards across threads: no `Rc` may creep back in.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ConnSoa>();
};

impl ConnSoa {
    fn len(&self) -> usize {
        self.conn.len()
    }

    /// An empty shard whose first connection has compiled index `first`,
    /// with room in every array for its `len` connections: arrays grown by
    /// doubling would hold up to half their room unused, which a net cut
    /// into many shards pays for in resident memory.
    fn with_capacity(first: usize, len: usize) -> Self {
        ConnSoa {
            first,
            conn: Vec::with_capacity(len),
            queue: Vec::with_capacity(len),
            flits: Vec::with_capacity(len),
            source: Vec::with_capacity(len),
            slots: Vec::with_capacity(len),
            cursor: Vec::with_capacity(len),
            head_delay: Vec::with_capacity(len),
            src_phase_fs: Vec::with_capacity(len),
            dst_phase_fs: Vec::with_capacity(len),
            credit_free: Vec::with_capacity(len),
            credits: Vec::with_capacity(len),
            credit_sched: Vec::with_capacity(len),
            in_network: Vec::with_capacity(len),
            current_msg: Vec::with_capacity(len),
            ready_floor: Vec::with_capacity(len),
            stats: Vec::with_capacity(len),
            counts: KernelCounts::default(),
        }
    }

    /// Appends connection `c` across every array, its traffic source if
    /// `with_traffic`, its NIs' clock phases from `ni_phase_fs`.
    fn push(&mut self, c: ConnImage, with_traffic: bool, ni_phase_fs: &[u64]) {
        self.conn.push(c.conn);
        self.source.push(with_traffic.then_some(c.source));
        self.slots.push(c.slots);
        self.cursor.push(0);
        self.head_delay.push(c.head_delay);
        self.src_phase_fs.push(ni_phase_fs[c.src.index()]);
        self.dst_phase_fs.push(ni_phase_fs[c.dst.index()]);
        self.credit_free.push(c.credit_free);
        self.credits.push(i64::from(c.credits));
        self.credit_sched.push(VecDeque::new());
        self.in_network.push(VecDeque::new());
        self.current_msg.push(None);
        self.ready_floor.push(0);
        self.stats.push(ConnLatency::default());
    }

    /// Runs every connection of the shard to `deadline_fs`.
    fn run(&mut self, t: Timing, deadline_fs: u64) {
        for i in 0..self.len() {
            if self.credit_free[i] {
                self.run_conn::<false>(i, t, deadline_fs);
            } else {
                self.run_conn::<true>(i, t, deadline_fs);
            }
        }
    }

    /// An upper bound on the flits connection `i` logs in the run to
    /// `deadline_fs`: those in flight, plus the fewer of the owned slot
    /// starts left in the run and the flits its current message, queue
    /// and traffic generator can supply by its final source edge.
    fn flit_bound(&self, i: usize, t: Timing, deadline_fs: u64) -> usize {
        let in_flight = self.in_network[i].len();
        let src_phase_fs = self.src_phase_fs[i];
        if src_phase_fs > deadline_fs {
            return in_flight;
        }
        let last = (deadline_fs - src_phase_fs) / t.period_fs;
        let sends = t.owned_starts(&self.slots[i], self.cursor[i], last);
        // A message takes one flit per payload's worth of words, and at
        // least one.
        let flits = |words: u32| u64::from(words.div_ceil(t.payload_capacity).max(1));
        let mut supply = self.current_msg[i].map_or(0, |(_, left)| flits(left));
        if let Some(source) = &self.source[i] {
            let pushes = source.arrivals_by(last);
            supply = supply.saturating_add(pushes.saturating_mul(flits(source.words())));
        }
        for m in &self.queue[i] {
            if supply >= sends {
                break;
            }
            supply += flits(m.words);
        }
        in_flight + sends.min(supply) as usize
    }

    /// Runs connection `i` to `deadline_fs`: logs the flits earlier runs
    /// left in flight that land by then, decides once per message and
    /// per wake up to the run's final source edge, streams each message's
    /// flits out at the owned slots after its decision, and settles its
    /// traffic generator to that edge. `BOOKED` is whether the connection
    /// books credits: compiled apart, a credit-free connection's message
    /// loop holds none of the credit path's state in registers.
    fn run_conn<const BOOKED: bool>(&mut self, i: usize, t: Timing, deadline_fs: u64) {
        let log = &mut self.flits[i];
        // The latency statistics and the ready floor stay in locals for
        // the run and are written back once.
        let mut stats = self.stats[i];
        let in_network = &mut self.in_network[i];
        let head_delay = self.head_delay[i];
        // Every flit injected is either logged or in flight at the end,
        // so the sends are counted from those, not flit by flit.
        let sent_before = stats.flits + in_network.len() as u64;
        // The last destination cycle whose edge lies within the run. An EoP
        // is never sampled at cycle 0, so 0 also stands for "none".
        let last_dst = deadline_fs.saturating_sub(self.dst_phase_fs[i]) / t.period_fs;

        // Flits an earlier run left in flight that land by this deadline
        // are logged first: every flit injected below comes after them.
        // A flit's EoP lands `head_delay` plus its word count after a slot
        // start, and it carries fewer words than a slot has cycles.
        while let Some(&d) = in_network.front() {
            if d.eop_cycle > last_dst {
                break;
            }
            in_network.pop_front();
            let words = (d.eop_cycle - head_delay) % t.slot_cycles;
            deliver(log, &mut stats, d, words as u32);
        }

        let src_phase_fs = self.src_phase_fs[i];
        if src_phase_fs > deadline_fs {
            self.stats[i] = stats;
            return;
        }
        // The run's final source edge. A wake past it is put at `last + 1`,
        // so the next run re-decides at the first owned slot after it and
        // sees whatever was pushed into the queue in between.
        let last = (deadline_fs - src_phase_fs) / t.period_fs;
        let queue = &mut self.queue[i];
        let source = &mut self.source[i];
        let slots = &*self.slots[i];
        let credits = &mut self.credits[i];
        let credit_sched = &mut self.credit_sched[i];
        let current_msg = &mut self.current_msg[i];
        let mut ready_floor = self.ready_floor[i];
        let dst_phase_fs = self.dst_phase_fs[i];
        let credit_delay_fs = t.period_fs * CREDIT_RETURN_CYCLES;
        let (mut decisions, mut idle_wakes, mut credit_wakes) = (0, 0, 0);
        let mut slot_searches = 0;
        let mut search = |cycle| {
            slot_searches += 1;
            t.next_owned(slots, cycle)
        };
        let mut next = search(self.cursor[i]);
        // The owned slot a connection at owned slot `at`, starting at
        // `c0`, sleeps to: the first at or after `wake`, which lies past
        // `c0`, and never past the run's final source edge plus one.
        let mut sleep = |at, c0, wake: Option<u64>| {
            let wake = wake.map_or(last + 1, |w| w.min(last + 1));
            t.advance(slots, at, c0, wake).or_else(|| search(wake))
        };

        while let Some(mut at) = next {
            let mut c0 = t.slot_start(slots, at);
            if c0 > last {
                self.cursor[i] = c0;
                break;
            }
            decisions += 1;
            // Materialise arrivals up to this edge (the event engine's
            // CbrSource runs before the NiSource at every edge of their
            // shared domain). Only a decision reads the queue, so offering
            // here and not at the slots a message streams through leaves
            // every decision the arrivals it would see at its edge.
            if let Some(source) = source {
                offer(source, c0, queue);
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
            let Some((msg, mut remaining)) = *current_msg else {
                let wake = queue.front().map(|m| m.ready_cycle);
                next = sleep(
                    at,
                    c0,
                    wake.or(source.as_ref().and_then(MessageSource::next_cycle)),
                );
                idle_wakes += 1;
                continue;
            };

            // Stream the message: once it is in hand nothing is left to
            // decide, and each flit goes out at the next owned slot, until
            // the message ends, the run does or, if booked, credit runs
            // short. The loop ends with `short` words of credit missing at
            // owned slot `at`, which starts at `c0`.
            let short = loop {
                let send_words = remaining.min(t.payload_capacity);
                if BOOKED {
                    // Collect returned credits. The event engine pops at
                    // every edge; popping where a flit could go is
                    // equivalent because visibility is monotone and
                    // credits are only observed here.
                    let now_fs = src_phase_fs + c0 * t.period_fs;
                    while let Some(&(at_fs, words)) = credit_sched.front() {
                        if at_fs > now_fs {
                            break;
                        }
                        credit_sched.pop_front();
                        *credits += i64::from(words);
                    }
                    let short = i64::from(send_words) - *credits;
                    if short > 0 {
                        break short;
                    }
                    *credits -= i64::from(send_words);
                }

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
                    ready: msg.ready_cycle.max(ready_floor),
                };
                ready_floor = c0 + t.slot_cycles;
                // A connection's EoP cycles rise strictly in injection order
                // (slot starts are `slot_cycles` apart and a flit is shorter
                // than a slot), so a flit landing within the run with nothing
                // ahead of it in flight is logged now.
                if in_network.is_empty() && eop_cycle <= last_dst {
                    deliver(log, &mut stats, flit, send_words);
                } else {
                    in_network.push_back(flit);
                }
                if BOOKED {
                    for k in 1..=u64::from(send_words) {
                        let drain_edge = c0 + head_delay + k + 1;
                        credit_sched.push_back((
                            dst_phase_fs + drain_edge * t.period_fs + credit_delay_fs,
                            1,
                        ));
                    }
                }
                remaining -= send_words;
                at = t.following(slots, at);
                c0 = t.slot_start(slots, at);
                if remaining == 0 || c0 > last {
                    break 0;
                }
            };
            *current_msg = (remaining > 0).then_some((msg, remaining));
            next = if short > 0 {
                credit_wakes += 1;
                sleep(
                    at,
                    c0,
                    credit_wake(credit_sched, short, src_phase_fs, t.period_fs),
                )
            } else {
                Some(at)
            };
        }

        // Settle arrivals to this run's final source edge, so the queue
        // handle holds exactly what the event engine's would.
        if let Some(source) = source {
            offer(source, last, queue);
        }
        self.stats[i] = stats;
        self.ready_floor[i] = ready_floor;
        let sends = stats.flits + in_network.len() as u64 - sent_before;
        let counts = &mut self.counts;
        counts.decisions += decisions;
        counts.sends += sends;
        counts.idle_wakes += idle_wakes;
        counts.credit_wakes += credit_wakes;
        counts.slot_searches += slot_searches;
    }
}

/// Logs flit `d`, which carries `words` payload words, and counts it.
fn deliver(log: &mut FlitRecords, stats: &mut ConnLatency, d: PendingDelivery, words: u32) {
    log.push(d.tag, d.eop_cycle);
    let latency = d.eop_cycle - d.ready;
    stats.flits += 1;
    stats.words += u64::from(words);
    stats.min_cycles = stats.min_cycles.min(latency);
    stats.max_cycles = stats.max_cycles.max(latency);
    stats.latency_sum += latency;
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

    /// The first owned slot starting at or after `wake`, stepped to from
    /// owned slot `at`, which starts at `from < wake`: at most one step
    /// per owned slot, and no division. `None` if `wake` lies more than a
    /// table revolution past `from`, where a search is cheaper.
    fn advance(
        self,
        slots: &[u32],
        mut at: (u64, usize),
        from: u64,
        wake: u64,
    ) -> Option<(u64, usize)> {
        if wake - from > self.slot_cycles * self.table_size {
            return None;
        }
        loop {
            at = self.following(slots, at);
            if self.slot_start(slots, at) >= wake {
                return Some(at);
            }
        }
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

    /// How many owned slots start at a cycle in `from..=last`.
    fn owned_starts(self, slots: &[u32], from: u64, last: u64) -> u64 {
        // Owned slots among the first `n` slots of the run.
        let below = |n: u64| {
            let part = slots.partition_point(|&s| u64::from(s) < n % self.table_size);
            n / self.table_size * slots.len() as u64 + part as u64
        };
        below(last / self.slot_cycles + 1).saturating_sub(below(from.div_ceil(self.slot_cycles)))
    }
}

/// Cuts connections owning `owned` slots each, in order, into at most
/// `shards` contiguous runs with near-equal slot totals (run `k` ends
/// once the slots so far reach `k / shards` of the total), and returns
/// the run lengths. No run is empty unless `owned` is.
fn shard_lengths(owned: &[usize], shards: usize) -> Vec<usize> {
    let shards = shards.clamp(1, owned.len().max(1));
    let total: usize = owned.iter().sum();
    let mut lengths = vec![0];
    let mut so_far = 0;
    for &slots in owned {
        so_far += slots;
        *lengths.last_mut().expect("a run is open") += 1;
        if lengths.len() < shards && so_far * shards >= total * lengths.len() {
            lengths.push(0);
        }
    }
    if lengths.len() > 1 && lengths.last() == Some(&0) {
        lengths.pop();
    }
    lengths
}

/// The net's queue and log handles, borrowed for a run, which moves each
/// shard's queued messages and logged flits out of them and back.
struct Handles<'a> {
    queues: &'a [(ConnId, MessageQueue)],
    logs: &'a [(ConnId, DeliveryLog)],
    index: &'a ConnIndex,
}

impl Handles<'_> {
    /// Moves the queued messages and logged flits of `shard`'s connections
    /// from their handles into it, and reserves each log for what the run
    /// to `deadline_fs` can deliver, so that running the shard grows no
    /// log's records. Returns the flits reserved.
    fn check_in(&self, shard: &mut ConnSoa, t: Timing, deadline_fs: u64) -> usize {
        let mut reserved = 0;
        for (i, (conn, queue)) in self.queues[shard.first..][..shard.len()].iter().enumerate() {
            let log = &self.logs[self.index.of(*conn).1].1;
            shard.queue.push(std::mem::take(&mut *queue.borrow_mut()));
            shard
                .flits
                .push(std::mem::take(log.borrow_mut().flits_mut()));
            let bound = shard.flit_bound(i, t, deadline_fs);
            shard.flits[i].reserve(bound);
            reserved += bound;
        }
        reserved
    }

    /// Moves the queued messages and logged flits of `shard`'s connections
    /// back to their handles.
    fn check_out(&self, shard: &mut ConnSoa) {
        let moved = shard.queue.drain(..).zip(shard.flits.drain(..));
        for ((conn, queue), (messages, flits)) in self.queues[shard.first..].iter().zip(moved) {
            *queue.borrow_mut() = messages;
            *self.logs[self.index.of(*conn).1].1.borrow_mut().flits_mut() = flits;
        }
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
    /// The compiled connections, cut into contiguous shards in the order
    /// of `queues`; the threads of a run claim them one at a time.
    shards: Vec<ConnSoa>,
    /// The threads a run may use, the calling one included.
    threads: usize,
    index: ConnIndex,
    /// The largest deadline (in cycles) simulated so far.
    horizon_cycles: u64,
}

impl TurboNet {
    /// Runs all clock edges with time ≤ `cycles` nominal clock periods
    /// from simulation start — the same deadline rule as
    /// [`CycleNet::run_cycles`](crate::network::CycleNet::run_cycles),
    /// so repeated calls with increasing totals behave identically.
    pub fn run_cycles(&mut self, cycles: u64) {
        let t = self.timing;
        let deadline_fs = self.deadline_fs(cycles);
        self.run_shards(deadline_fs, FLITS_PER_WORKER * self.threads, |shard| {
            shard.run(t, deadline_fs);
        });
    }

    /// The deadline of the run to `cycles`, in femtoseconds, which
    /// becomes the horizon if it lies past it.
    fn deadline_fs(&mut self, cycles: u64) -> u64 {
        self.horizon_cycles = self.horizon_cycles.max(cycles);
        (self.timing.period_fs)
            .checked_mul(cycles)
            .expect("deadline overflows femtoseconds")
    }

    /// Runs every shard once with `run`, as a pipeline. The calling thread
    /// checks the shards in one at a time, reserving each log for what the
    /// run to `deadline_fs` can deliver, and queues each for a thread to
    /// claim. Once the shards checked in reserve `spawn_at` flits it starts
    /// workers, up to `threads` threads in all; each thread, the calling
    /// one too once every shard is checked in, claims the next queued shard
    /// and runs it. The calling thread checks each shard out as soon as it
    /// has run. Connections share no state (see the module documentation),
    /// so neither the order nor the overlap of the shards shows in any
    /// result.
    ///
    /// The calling thread makes the run's allocations: the two channels
    /// that hand shards over, bounded to the shard count so that no send
    /// blocks, and each log's reservation, which no run outgrows. So no
    /// log or queue buffer is grown on a worker. A worker's panic is
    /// re-raised with its own payload once every other thread is done.
    fn run_shards(&mut self, deadline_fs: u64, spawn_at: usize, run: impl Fn(&mut ConnSoa) + Sync) {
        let t = self.timing;
        let handles = Handles {
            queues: &self.queues,
            logs: &self.logs,
            index: &self.index,
        };
        let workers = self.threads.min(self.shards.len()) - 1;
        let (queue, claimable) = mpsc::sync_channel(self.shards.len());
        let (ran, done) = mpsc::sync_channel(self.shards.len());
        // A shard is run outside the lock, so no panic poisons it.
        let claimable = Mutex::new(claimable);
        let claim = || {
            claimable
                .lock()
                .expect("no panic while claiming")
                .recv()
                .ok()
        };
        let run = &run;
        std::thread::scope(|scope| {
            // Owned by this closure: a panic here closes the queue, so the
            // workers it started still end.
            let (queue, ran) = (queue, ran);
            let mut started = None;
            let mut reserved = 0;
            for shard in &mut self.shards {
                reserved += handles.check_in(shard, t, deadline_fs);
                queue.send(shard).expect("the queue holds every shard");
                if started.is_none() && reserved >= spawn_at {
                    // A worker claims shards until none is left, and hands
                    // each back once it has run.
                    let spawn = |ran: SyncSender<_>| {
                        scope.spawn(move || {
                            while let Some(shard) = claim() {
                                run(shard);
                                ran.send(shard).expect("the calling thread checks it out");
                            }
                        })
                    };
                    started = Some((0..workers).map(|_| spawn(ran.clone())).collect::<Vec<_>>());
                }
                done.try_iter().for_each(|shard| handles.check_out(shard));
            }
            drop((queue, ran));
            while let Some(shard) = claim() {
                run(shard);
                handles.check_out(shard);
                done.try_iter().for_each(|shard| handles.check_out(shard));
            }
            // Ends once every worker has exited, whether or not it panicked.
            done.iter().for_each(|shard| handles.check_out(shard));
            for worker in started.into_iter().flatten() {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// The shard holding the connection at compiled index `i`, and its
    /// position there.
    fn locate(&self, i: usize) -> (&ConnSoa, usize) {
        let shard = &self.shards[self.shards.partition_point(|s| s.first <= i) - 1];
        (shard, i - shard.first)
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

    /// Measured per-flit latency statistics of `conn` (see
    /// [`ConnLatency`] for the readiness definition).
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the built spec.
    #[must_use]
    pub fn latency(&self, conn: ConnId) -> ConnLatency {
        let (shard, i) = self.locate(self.index.of(conn).0);
        shard.stats[i]
    }

    /// The work the kernel did in every run so far (see
    /// [`KernelCounts`]). Connections share no state, so the counts do
    /// not depend on how the net is cut into shards.
    #[must_use]
    pub fn counts(&self) -> KernelCounts {
        (self.shards.iter()).fold(KernelCounts::default(), |sum, s| {
            sum.zip(&s.counts, |a, b| a + b)
        })
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
/// The net runs on one thread per 128 connections, rounded up, but on no
/// more threads than [`available_parallelism`] reports. A net with more
/// than one thread is cut into 16 shards per thread, which its threads
/// claim one at a time, once a run has checked in shards that can deliver
/// at least 12 500 flits per thread (see the module documentation); a
/// net with one thread is one shard. A net of more than 512 connections
/// on more than one thread re-validates the allocation on a worker while
/// the calling thread compiles it.
///
/// [`available_parallelism`]: std::thread::available_parallelism
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
    // On Linux, asking for the core count reads the affinity mask and the
    // cgroup quota, which costs a small net's build 10–15 %: ask once.
    static CORES: OnceLock<usize> = OnceLock::new();
    let mut threads = spec.connections().len().div_ceil(CONNS_PER_WORKER);
    if threads > 1 {
        let cores = *CORES
            .get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
        threads = threads.min(cores);
    }
    let shards = if threads > 1 {
        threads * SHARDS_PER_THREAD
    } else {
        1
    };
    build_turbo_sharded(spec, alloc, kind, with_traffic, shards, threads)
}

/// [`build_turbo`] with the connections cut into `shards` contiguous
/// shards (at least one, at most one per connection) that own near-equal
/// numbers of slots, run on up to `threads` threads.
pub(crate) fn build_turbo_sharded(
    spec: &SystemSpec,
    alloc: &Allocation,
    kind: NetworkKind,
    with_traffic: bool,
    shards: usize,
    threads: usize,
) -> TurboNet {
    let cfg = spec.config();
    let topo = spec.topology();
    let f = Frequency::from_mhz(cfg.frequency_mhz);
    let period_fs = f.period().as_fs();
    // Clock-domain phases from the same draw stream as `build_network`
    // (routers first, then NIs); compiled routers need no clock, so
    // only the NI portion of the draws is kept.
    let ni_phase =
        crate::network::clock_phases_fs(kind, topo, period_fs).split_off(topo.router_count());

    // A large sharded net re-validates the allocation on a worker while
    // this thread lowers and compiles it. Either way an image error is
    // only raised once validation passed, so an invalid allocation is
    // refused as such.
    let validate = || aelite_alloc::validate_allocation(spec, alloc);
    let threads = threads.max(1);
    let on_worker = threads > 1 && spec.connections().len() > VALIDATE_ON_WORKER_CONNS;
    let ((queues, logs, index), shards) = std::thread::scope(|scope| {
        let check = on_worker.then(|| scope.spawn(validate));
        let compiled = ConfigImage::new(spec, alloc, kind).map(|image| {
            let handles = image.handles(&ni_phase, period_fs);
            (
                handles,
                compile_shards(image, with_traffic, shards, &ni_phase),
            )
        });
        let checked = match check {
            Some(worker) => worker
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            None => validate(),
        };
        if let Err(violations) = checked {
            panic!(
                "allocation invalid for this spec ({} violation(s), first: {:?}) — \
                 the turbo kernel requires the contention-free invariant",
                violations.len(),
                violations.first()
            );
        }
        compiled.unwrap_or_else(|error| panic!("{error}"))
    });

    TurboNet {
        queues,
        logs,
        frequency: f,
        timing: Timing {
            period_fs,
            slot_cycles: u64::from(cfg.slot_cycles()),
            table_size: u64::from(cfg.slot_table_size),
            payload_capacity: cfg.payload_words_per_flit(),
            mesochronous: matches!(kind, NetworkKind::Mesochronous { .. }),
        },
        shards,
        threads,
        index,
        horizon_cycles: 0,
    }
}

/// Compiles every connection of `image`, in its order, into `shards`
/// shards, with its NIs' clock phases from `ni_phase_fs`.
fn compile_shards(
    image: ConfigImage,
    with_traffic: bool,
    shards: usize,
    ni_phase_fs: &[u64],
) -> Vec<ConnSoa> {
    let owned: Vec<usize> = image.conns.iter().map(|c| c.slots.len()).collect();
    let mut conns = image.conns.into_iter();
    let mut first = 0;
    (shard_lengths(&owned, shards).into_iter())
        .map(|len| {
            let mut shard = ConnSoa::with_capacity(first, len);
            first += len;
            for c in conns.by_ref().take(len) {
                shard.push(c, with_traffic, ni_phase_fs);
            }
            shard
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{build_network, NetworkKind};
    use crate::ni::{compare_logs, DeliveryLog, FlitDelivery};
    use aelite_alloc::allocate;
    use aelite_sim::time::SimTime;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::ids::NiId;
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::Bandwidth;
    use std::rc::Rc;

    impl TurboNet {
        /// The cycle index the engine will simulate next. After
        /// `run_cycles(c)` this is `c + 1`: the deadline is inclusive, so
        /// cycle `c`'s phase-zero edges have already run — exactly the edge
        /// count of the event-driven engine under the same deadline.
        fn next_cycle(&self) -> u64 {
            self.horizon_cycles + 1
        }

        /// Every compiled connection, as its shard and its position there.
        fn conns(&self) -> impl Iterator<Item = (&ConnSoa, usize)> {
            self.shards
                .iter()
                .flat_map(|s| (0..s.len()).map(move |i| (s, i)))
        }

        /// The shard holding `conn`, and its position there.
        fn state(&self, conn: ConnId) -> (&ConnSoa, usize) {
            self.locate(self.index.of(conn).0)
        }

        /// Forces every connection onto the booked credit path, whatever
        /// the buffer analysis decided.
        fn book_every_credit(&mut self) {
            for shard in &mut self.shards {
                shard.credit_free.fill(false);
            }
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

    /// Asserts that two runs logged every connection of `spec` record
    /// for record.
    fn assert_logs_identical(
        spec: &SystemSpec,
        reference: &[(ConnId, DeliveryLog)],
        compared: &[(ConnId, DeliveryLog)],
        what: &str,
    ) {
        let result = compare_logs(spec.connections().iter().map(|c| c.id), reference, compared);
        assert!(result.is_composable(), "{what}: {result}");
    }

    #[test]
    fn synchronous_turbo_matches_event_engine_bit_for_bit() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let mut event = build_network(&spec, &alloc, NetworkKind::Synchronous, true);
        let mut turbo = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        event.run_cycles(5_000);
        turbo.run_cycles(5_000);
        assert_logs_identical(&spec, &event.logs, &turbo.logs, "turbo");
        assert!(!turbo.log(spec.connections()[0].id).borrow().is_empty());
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

    /// The same, on a net large enough that a worker validates while the
    /// calling thread compiles: compiling the detached connection fails
    /// too, but the refusal names the allocation.
    #[test]
    #[should_panic(expected = "allocation invalid")]
    fn a_sharded_build_refuses_an_invalid_allocation_as_invalid() {
        let spec = aelite_spec::generate::scaled_workload(8, 8, 4, 1000, 1);
        assert!(spec.connections().len() > VALIDATE_ON_WORKER_CONNS);
        let mut alloc = allocate(&spec).unwrap();
        alloc.detach_grant(spec.connections()[1].id).unwrap();
        let _ = build_turbo_sharded(&spec, &alloc, NetworkKind::Synchronous, true, 2, 2);
    }

    /// Two connections out of one NI granted the same slots: the image
    /// refuses the allocation too, but the refusal names validation.
    #[test]
    #[should_panic(expected = "allocation invalid")]
    fn build_turbo_refuses_a_double_claimed_allocation() {
        let (spec, alloc) = crate::image::tests::double_claimed();
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
            assert_logs_identical(&spec, &event.logs, &turbo.logs, "turbo");
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
        assert_eq!(turbo.log(conn).borrow().len(), 1);
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
        assert_logs_identical(&spec, &event.logs, &turbo.logs, "turbo");
        assert!(turbo.log(conn).borrow().len() >= 40);
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
        assert_logs_identical(&spec, &oneshot.logs, &stepped.logs, "stepped");
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
        assert_logs_identical(&spec, &event.logs, &stepped.logs, "stepped");
    }

    /// Checks what `run_cycles(cycles)` left in flight: only flits landing
    /// past the deadline, no more per connection than its slots can
    /// inject between source and destination NI, in a buffer that never
    /// held more than that.
    fn assert_in_flight_bounded(turbo: &TurboNet, cycles: u64) {
        let deadline_fs = turbo.timing.period_fs * cycles;
        for (conns, i) in turbo.conns() {
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
            assert!(turbo.conns().all(|(s, i)| s.stats[i].flits > 0));
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
                let eops: Vec<u64> = oneshot.log(c.id).borrow().cycles().collect();
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
            cut_through |= stepped.conns().any(|(s, i)| !s.in_network[i].is_empty());
        }
        assert!(cut_through, "no deadline left a flit in flight");
        assert_logs_identical(&spec, &oneshot.logs, &stepped.logs, "stepped");
        assert_logs_identical(&spec, &event.logs, &stepped.logs, "stepped");
        for c in spec.connections() {
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

    #[test]
    fn stepping_to_a_wake_finds_what_a_search_finds() {
        let t = Timing {
            period_fs: 2_000_000,
            slot_cycles: 3,
            table_size: 8,
            payload_capacity: 2,
            mesochronous: false,
        };
        let revolution = 24;
        for slots in [&[0, 7][..], &[3], &[1, 2, 5]] {
            for from_cycle in 0..2 * revolution {
                let at = t.next_owned(slots, from_cycle).unwrap();
                let from = t.slot_start(slots, at);
                for wake in from + 1..=from + revolution {
                    assert_eq!(
                        t.advance(slots, at, from, wake),
                        t.next_owned(slots, wake),
                        "{slots:?}: from {from} to {wake}"
                    );
                }
                // Further ahead, a search is cheaper than stepping.
                assert_eq!(t.advance(slots, at, from, from + revolution + 1), None);
            }
        }
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
        booked.book_every_credit();
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
            for (net, build) in [(&turbo, "default"), (&booked, "booked")] {
                for c in spec.connections() {
                    assert_eq!(
                        *event.queue(c.id).borrow(),
                        *net.queue(c.id).borrow(),
                        "{}: {build} queues diverge after the run to {deadline}",
                        c.id
                    );
                }
                let what = format!("{build} after the run to {deadline}");
                assert_logs_identical(spec, &event.logs, &net.logs, &what);
            }
            after(deadline, &turbo);
        }
        turbo
    }

    /// Whether `conn` holds a message it lacked the credit to send at its
    /// last decision.
    fn starved(turbo: &TurboNet, conn: ConnId) -> bool {
        let (s, i) = turbo.state(conn);
        s.current_msg[i].is_some_and(|(_, remaining)| {
            i64::from(remaining.min(turbo.timing.payload_capacity)) > s.credits[i]
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
        // The one-shot run's work is pinned: every flit of these two
        // connections waits for credit, and every wake but the last is a
        // credit wake.
        let deadlines: Vec<u64> = (1..=400).chain([700, 4_000]).collect();
        let counts = |decisions, sends, idle_wakes, credit_wakes, slot_searches| KernelCounts {
            decisions,
            sends,
            idle_wakes,
            credit_wakes,
            slot_searches,
        };
        for (stages, kind, work) in [
            (0, NetworkKind::Synchronous, counts(134, 108, 2, 72, 37)),
            (
                1,
                NetworkKind::Mesochronous { phase_seed: 3 },
                counts(180, 120, 2, 118, 122),
            ),
            (
                1,
                NetworkKind::Mesochronous { phase_seed: 8 },
                counts(180, 120, 2, 118, 122),
            ),
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
            assert_eq!(oneshot.counts(), work, "{kind:?}");
            let flits: u32 = back_to_back(meso).iter().map(|m| m.words.div_ceil(2)).sum();
            assert_logs_identical(&spec, &oneshot.logs, &stepped.logs, "stepped");
            for c in spec.connections() {
                assert_eq!(stepped.log(c.id).borrow().len(), flits as usize);
                assert_eq!(oneshot.latency(c.id), stepped.latency(c.id));
            }
        }
    }

    #[test]
    fn stepped_runs_cut_messages_at_every_slot_offset_of_a_revolution() {
        // Sixty messages of three to eight flits per connection, back to
        // back. A deadline every 25 cycles on an 8-slot table of 3-cycle
        // slots falls at each of the revolution's 24 cycle offsets in
        // turn, three times over, so runs end inside messages at every offset:
        // on a slot start, inside a slot and between flits. A streamed
        // message must stop where the run ends and resume at the next
        // owned slot exactly as the booked credit path and the event
        // engine do, also where one-flit buffers starve it of credit.
        let revolution = 24;
        let deadlines: Vec<u64> = (0..3 * revolution).map(|k| 100 + 25 * k).collect();
        for (stages, kind, starved) in [
            (0, NetworkKind::Synchronous, false),
            (0, NetworkKind::Synchronous, true),
            (1, NetworkKind::Mesochronous { phase_seed: 5 }, false),
            (1, NetworkKind::Mesochronous { phase_seed: 5 }, true),
        ] {
            let spec = if starved {
                credit_starved_spec(stages)
            } else {
                two_ni_spec_on(eight_slot_config(stages), [1000, 300], 4000)
            };
            let meso = stages == 1;
            let feed = |d, _| {
                if d != deadlines[0] {
                    return Vec::new();
                }
                (0..60)
                    .map(|seq| {
                        let flits = 3 + seq % 6;
                        Message {
                            seq,
                            // Whole flits only on mesochronous links.
                            words: 2 * flits - u32::from(!meso && seq % 2 == 1),
                            ready_cycle: 0,
                        }
                    })
                    .collect()
            };
            let mut cut_at = std::collections::BTreeSet::new();
            let turbo = step_against_event(&spec, kind, false, &deadlines, feed, |d, turbo| {
                for c in spec.connections() {
                    let (s, i) = turbo.state(c.id);
                    if s.current_msg[i].is_some_and(|(m, remaining)| remaining < m.words) {
                        cut_at.insert(d % revolution);
                    }
                }
            });
            assert_eq!(
                turbo.timing.slot_cycles * turbo.timing.table_size,
                revolution
            );
            assert_eq!(
                cut_at.len() as u64,
                revolution,
                "{kind:?}, starved {starved}: messages cut only at offsets {cut_at:?}"
            );
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
                    let (s, i) = turbo.state(c.id);
                    assert!(s.current_msg[i].is_none());
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
        assert_logs_identical(&spec, &oneshot.logs, &stepped.logs, "stepped");
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
                idle_cuts += spec
                    .connections()
                    .iter()
                    .filter(|c| {
                        let (s, i) = turbo.state(c.id);
                        turbo.queue(c.id).borrow().is_empty()
                            && s.current_msg[i].is_none()
                            && s.source[i]
                                .and_then(|g| g.next_cycle())
                                .is_some_and(|next| next > s.cursor[i])
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
            }
            assert_logs_identical(spec, &oneshot.logs, &stepped.logs, "stepped");
        }
    }

    /// How many connections of a `kind` build of `spec` book no credits.
    fn credit_free_count(spec: &SystemSpec, kind: NetworkKind) -> usize {
        let turbo = build_turbo(spec, &allocate(spec).unwrap(), kind, false);
        turbo.conns().filter(|&(s, i)| s.credit_free[i]).count()
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
            booked.book_every_credit();
            assert!(free.conns().all(|(s, i)| s.credit_free[i]), "{kind:?}");
            for deadline in [1, 97, 1_000, 1_001, 2_345, 4_000] {
                free.run_cycles(deadline);
                booked.run_cycles(deadline);
                assert_logs_identical(&spec, &free.logs, &booked.logs, "booked");
                for c in spec.connections() {
                    assert_eq!(*free.queue(c.id).borrow(), *booked.queue(c.id).borrow());
                    assert_eq!(free.latency(c.id), booked.latency(c.id));
                }
            }
            assert!(booked.conns().any(|(s, i)| !s.credit_sched[i].is_empty()));
            assert!(free.conns().all(|(s, i)| s.credit_sched[i].is_empty()));
        }
    }

    impl TurboNet {
        /// [`TurboNet::run_cycles`], with workers started once the shards
        /// checked in reserve [`SPAWN_AT`] flits, checking that running a
        /// shard never grows the logs reserved for it.
        fn run_cycles_within_reservation(&mut self, cycles: u64) {
            let t = self.timing;
            let deadline_fs = self.deadline_fs(cycles);
            self.run_shards(deadline_fs, SPAWN_AT, |shard| {
                let reserved: Vec<usize> = shard.flits.iter().map(FlitRecords::capacity).collect();
                shard.run(t, deadline_fs);
                for (i, before) in reserved.into_iter().enumerate() {
                    assert_eq!(
                        shard.flits[i].capacity(),
                        before,
                        "{}: log grew in the run to {cycles}",
                        shard.conn[i]
                    );
                }
            });
        }

        /// The run to `cycles` with the kernel on workers alone: the
        /// calling thread waits until a worker has claimed a shard, and
        /// leaves each shard it claims itself unrun.
        fn run_on_workers_alone(&mut self, cycles: u64) {
            let t = self.timing;
            let deadline_fs = self.deadline_fs(cycles);
            let caller = std::thread::current().id();
            let claimed = std::sync::atomic::AtomicBool::new(false);
            self.run_shards(deadline_fs, 0, |shard| {
                if std::thread::current().id() == caller {
                    while !claimed.load(std::sync::atomic::Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                } else {
                    claimed.store(true, std::sync::atomic::Ordering::Release);
                    shard.run(t, deadline_fs);
                }
            });
        }
    }

    /// Flits the equivalence pins' runs reserve before they start workers:
    /// few, so that workers start after the first shard is checked in or
    /// after several, and only the shortest runs keep every shard on the
    /// calling thread.
    const SPAWN_AT: usize = 1_000;

    /// The `(shards, threads)` layouts the equivalence pins force: one
    /// shard per thread, and more shards than threads.
    const LAYOUTS: [(usize, usize); 6] = [(1, 1), (2, 2), (3, 2), (7, 3), (8, 2), (16, 2)];

    /// The paper platform and an 8×8 mesh, each in both clockings.
    fn sharding_platforms() -> Vec<(SystemSpec, NetworkKind)> {
        let paper = aelite_spec::generate::paper_workload(42);
        let mesh8 = aelite_spec::generate::scaled_workload(8, 8, 4, 1000, 1);
        vec![
            (paper.clone(), NetworkKind::Synchronous),
            (
                paper.with_link_pipeline_stages(1, 1),
                NetworkKind::Mesochronous { phase_seed: 7 },
            ),
            (mesh8.clone(), NetworkKind::Synchronous),
            (
                mesh8.with_link_pipeline_stages(1, 2),
                NetworkKind::Mesochronous { phase_seed: 23 },
            ),
        ]
    }

    /// Asserts that every connection's log and queue in `net` read what
    /// the event engine's do, and its latency and the kernel's counts
    /// what `reference`'s do.
    fn assert_matches(
        spec: &SystemSpec,
        event: &crate::network::CycleNet,
        reference: &TurboNet,
        net: &TurboNet,
        what: &str,
    ) {
        assert_logs_identical(spec, &event.logs, &net.logs, what);
        for c in spec.connections() {
            assert_eq!(
                *event.queue(c.id).borrow(),
                *net.queue(c.id).borrow(),
                "{}: queues diverge {what}",
                c.id
            );
            assert_eq!(
                reference.latency(c.id),
                net.latency(c.id),
                "{}: latency diverges {what}",
                c.id
            );
        }
        assert_eq!(reference.counts(), net.counts(), "counts diverge {what}");
    }

    #[test]
    fn the_shard_count_changes_nothing() {
        for (spec, kind) in sharding_platforms() {
            let alloc = allocate(&spec).unwrap();
            let build =
                |(shards, threads)| build_turbo_sharded(&spec, &alloc, kind, true, shards, threads);

            // One run to the horizon.
            let mut event = build_network(&spec, &alloc, kind, true);
            event.run_cycles(2_000);
            let mut oneshot: Vec<TurboNet> = LAYOUTS.into_iter().map(build).collect();
            for (net, (w, _)) in oneshot.iter_mut().zip(LAYOUTS) {
                assert_eq!(net.shards.len(), w, "{kind:?}");
                net.run_cycles_within_reservation(2_000);
            }
            // The public entry too, where the run's flit count decides
            // whether workers start.
            let mut public = build((16, 2));
            public.run_cycles(2_000);
            for (net, w) in oneshot.iter().zip(LAYOUTS) {
                let what = format!("with {w:?} shards and threads, {kind:?}, one run");
                assert_matches(&spec, &event, &oneshot[0], net, &what);
            }
            let what = format!("through run_cycles, {kind:?}, one run");
            assert_matches(&spec, &event, &oneshot[0], &public, &what);

            // Stepped runs, with messages offered by hand between them
            // (whole flits, so that mesochronous links take them too).
            let mut event = build_network(&spec, &alloc, kind, true);
            let mut stepped: Vec<TurboNet> = LAYOUTS.into_iter().map(build).collect();
            let mut public = build((16, 2));
            for (k, deadline) in [1u64, 97, 1_000, 1_001, 2_000].into_iter().enumerate() {
                for c in spec.connections().iter().step_by(7) {
                    let m = Message {
                        seq: 10_000 + k as u32,
                        words: 4,
                        ready_cycle: deadline.saturating_sub(40),
                    };
                    event.queue(c.id).borrow_mut().push_back(m);
                    for net in stepped.iter().chain([&public]) {
                        net.queue(c.id).borrow_mut().push_back(m);
                    }
                }
                event.run_cycles(deadline);
                for net in &mut stepped {
                    net.run_cycles_within_reservation(deadline);
                }
                public.run_cycles(deadline);
                for (net, w) in stepped.iter().zip(LAYOUTS) {
                    let what = format!(
                        "with {w:?} shards and threads, {kind:?}, after the run to {deadline}"
                    );
                    assert_matches(&spec, &event, &stepped[0], net, &what);
                }
                let what = format!("through run_cycles, {kind:?}, after the run to {deadline}");
                assert_matches(&spec, &event, &stepped[0], &public, &what);
            }
        }
    }

    #[test]
    fn shards_own_contiguous_runs_of_near_equal_slot_totals() {
        let spec = aelite_spec::generate::scaled_workload(8, 8, 4, 1000, 1);
        let alloc = allocate(&spec).unwrap();
        for (w, threads) in LAYOUTS {
            let net =
                build_turbo_sharded(&spec, &alloc, NetworkKind::Synchronous, false, w, threads);
            let owned: Vec<usize> = net
                .shards
                .iter()
                .map(|s| s.slots.iter().map(|slots| slots.len()).sum())
                .collect();
            let total: usize = owned.iter().sum();
            let widest = net.conns().map(|(s, i)| s.slots[i].len()).max().unwrap();
            for (k, shard) in net.shards.iter().enumerate() {
                let end = net.shards.get(k + 1).map_or(1000, |s| s.first);
                assert_eq!(shard.first + shard.len(), end, "shard {k} of {w}");
                assert!(
                    owned[k].abs_diff(total / w) <= widest,
                    "shard {k} of {w} owns {} of {total} slots",
                    owned[k]
                );
            }
        }
        // Never more shards than connections.
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let net = build_turbo_sharded(&spec, &alloc, NetworkKind::Synchronous, false, 7, 2);
        assert_eq!(net.shards.len(), 2);
    }

    #[test]
    fn an_idle_net_reserves_no_log_over_a_long_horizon() {
        // No generator and nothing queued: a bound that counted owned
        // slot starts alone would reserve millions of flits here.
        let spec = aelite_spec::generate::WorkloadBuilder::mesh(16, 16, 4)
            .mega_traffic()
            .connections(3_000)
            .tiles(8, 8)
            .seed(1)
            .build();
        let alloc = allocate(&spec).unwrap();
        let mut net = build_turbo_sharded(&spec, &alloc, NetworkKind::Synchronous, false, 8, 2);
        let deadline_fs = net.deadline_fs(10_000_000);
        net.run_shards(deadline_fs, 0, |shard| {
            assert!(shard.flits.iter().all(|log| log.capacity() == 0));
        });
        net.run_cycles_within_reservation(10_000_000);
        for c in spec.connections() {
            assert_eq!(net.log(c.id).borrow_mut().flits_mut().capacity(), 0);
        }
    }

    #[test]
    fn a_flit_landing_past_cycle_two_to_the_32_reads_back_exactly() {
        let spec = two_ni_spec(0);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let build = || build_turbo(&spec, &alloc, NetworkKind::Synchronous, false);
        // The slot schedule repeats every table revolution, so a message
        // ready a whole number of revolutions later lands that much later.
        let t = build().timing;
        let revolution = t.slot_cycles * t.table_size;
        let shift = (1u64 << 32).div_ceil(revolution) * revolution;
        // A sequence number past 2²⁴ puts the tag past 2³² too.
        let early = Message {
            seq: 3,
            words: 2,
            ready_cycle: 100,
        };
        let late = Message {
            seq: (1 << 24) + 5,
            ready_cycle: early.ready_cycle + shift,
            ..early
        };

        let mut reference = build();
        reference.queue(conn).borrow_mut().push_back(early);
        reference.run_cycles(2_000);
        let first = reference.log(conn).borrow().get(0);
        let latency = reference.latency(conn);

        // The idle kernel jumps from the early flit to the late one.
        let mut net = build();
        net.queue(conn).borrow_mut().extend([early, late]);
        net.run_cycles(2_000 + shift);
        let log = net.log(conn).borrow();
        let cycle = first.cycle + shift;
        assert_eq!(cycle >> 32, 1);
        let landed = FlitDelivery {
            tag: u64::from(late.seq) << 8,
            cycle,
            time: SimTime::from_fs(first.time.as_fs() + shift * t.period_fs),
            ..first
        };
        assert_eq!(log.to_vec(), [first, landed]);
        assert_eq!(log.cycles().collect::<Vec<_>>(), [first.cycle, cycle]);
        assert_eq!(
            net.latency(conn),
            ConnLatency {
                flits: 2,
                words: 2 * latency.words,
                latency_sum: 2 * latency.latency_sum,
                ..latency
            }
        );
    }

    #[test]
    fn the_quarter_size_benchmark_run_logs_eight_bytes_per_flit() {
        // The benchmark's `turbo_mesh16` at a quarter of its size: an 8×8
        // mesh with 2 500 regional connections on 4×4 tiles, 50 000 cycles.
        let spec = aelite_spec::generate::WorkloadBuilder::mesh(8, 8, 4)
            .mega_traffic()
            .connections(2_500)
            .slot_table_size(64)
            .tiles(4, 4)
            .seed(1)
            .build();
        let alloc = allocate(&spec).unwrap();
        let mut net = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        net.run_cycles(50_000);
        let flits: u64 = spec
            .connections()
            .iter()
            .map(|c| net.latency(c.id).flits)
            .sum();
        let logged: usize = net.logs.iter().map(|(_, log)| log.borrow().len()).sum();
        // 1 154 825 while the sources rounded each CBR interval up to whole
        // cycles; the fixed-point schedule offers the contracted rate.
        assert_eq!((flits, logged as u64), (1_155_740, 1_155_740));
        // The kernel's work, which tier-1 pins on every host: one decision
        // per message and per wake, and a slot search only where a run
        // starts or a wake lies more than a table revolution ahead (it
        // read 1 276 157 decisions and 122 713 searches while the kernel
        // decided every flit and searched at every wake).
        assert_eq!(
            net.counts(),
            KernelCounts {
                decisions: 265_536,
                sends: 1_155_944,
                idle_wakes: 120_213,
                credit_wakes: 0,
                slot_searches: 37_680,
            }
        );
        let (used, held) = net
            .logs
            .iter()
            .map(|(_, log)| log.borrow_mut().flits_mut().heap_bytes())
            .fold((0, 0), |(u, h), (du, dh)| (u + du, h + dh));
        assert!(
            used as u64 <= 8 * flits,
            "{used} log bytes for {flits} flits"
        );
        // The run's reservation is an upper bound on what it delivers
        // (here 0.7 % above it), not slack that a cut could trade for
        // bytes per flit.
        assert!(
            100 * held as u64 <= 101 * used as u64,
            "{held} log bytes held for {used} in use"
        );
    }

    /// A net of `shards` shards on two threads over `spec`, mesochronous,
    /// with one odd-length message offered to every connection: whichever
    /// shard runs panics on a partial flit.
    fn partial_flit_net(spec: &SystemSpec, shards: usize) -> TurboNet {
        let alloc = allocate(spec).unwrap();
        let kind = NetworkKind::Mesochronous { phase_seed: 3 };
        let net = build_turbo_sharded(spec, &alloc, kind, false, shards, 2);
        assert_eq!(net.shards.len(), shards);
        for (_, queue) in &net.queues {
            queue.borrow_mut().push_back(Message {
                seq: 0,
                words: 3,
                ready_cycle: 0,
            });
        }
        net
    }

    #[test]
    #[should_panic(expected = "partial flit")]
    fn a_partial_flit_on_a_mesochronous_link_panics_on_a_worker_with_its_message() {
        // Two shards on two threads, with the kernel run by the worker
        // alone: the worker, not the calling thread, panics.
        let mut net = partial_flit_net(&two_ni_spec(1), 2);
        net.run_on_workers_alone(2_000);
    }

    #[test]
    fn a_worker_panic_in_a_pipelined_run_is_re_raised_once_every_other_shard_is_checked_out() {
        // Eight shards on two threads: the worker panics on the first
        // shard it claims, and no other shard comes back from it. The
        // calling thread checks the other seven out and re-raises the
        // worker's panic instead of waiting for it.
        let spec = aelite_spec::generate::paper_workload(42).with_link_pipeline_stages(1, 1);
        let mut net = partial_flit_net(&spec, 8);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.run_on_workers_alone(2_000);
        }));
        let payload = run.expect_err("the worker's shard panics");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains("partial flit"), "{message}");
        let checked_in = net.shards.iter().filter(|s| !s.queue.is_empty()).count();
        assert_eq!(checked_in, 1, "shards left checked in");
    }
}
