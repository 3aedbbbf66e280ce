//! Cycle-accurate network interface (NI) models.
//!
//! The NI is where the guaranteed services are enforced (paper Section
//! III): it holds the TDM slot table, injects flits only in reserved
//! slots, packetises messages (header + payload words, explicit EoP), and
//! implements end-to-end flow control so that a destination buffer can
//! never overflow. IPs interface through queues and place no timing
//! assumptions on the network — blocking reads and writes.
//!
//! Credits are modelled out of band: the real Æthereal
//! piggybacks them on reverse headers; here a
//! [`SharedBisync`] channel with a configurable return delay plays that
//! role, preserving the property that matters — credits arrive a bounded
//! time after the consumer frees space.

use crate::phit::{LinkWord, Payload, RouteBits};
use aelite_sim::bisync::{BisyncFifo, SharedBisync};
use aelite_sim::module::{EdgeContext, Module};
use aelite_sim::signal::Wire;
use aelite_sim::time::{SimDuration, SimTime};
use aelite_spec::ids::ConnId;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A message handed to the NI by an IP core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sequence number within its connection.
    pub seq: u32,
    /// Payload length in words.
    pub words: u32,
    /// The NI-domain cycle at which the message became available.
    pub ready_cycle: u64,
}

/// The shared handle through which an IP (or testbench) feeds messages to
/// a source NI queue.
pub type MessageQueue = Rc<RefCell<VecDeque<Message>>>;

/// Creates an empty message queue.
#[must_use]
pub(crate) fn message_queue() -> MessageQueue {
    Rc::new(RefCell::new(VecDeque::new()))
}

/// One delivered flit, as recorded at the destination NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitDelivery {
    /// The owning connection.
    pub conn: ConnId,
    /// Tag of the first payload word (message seq << 8 | word index).
    pub tag: u64,
    /// Destination-NI cycle at which the EoP word was sampled.
    pub cycle: u64,
    /// Absolute simulation time of that cycle.
    pub time: SimTime,
}

/// The flits one connection delivered at its destination NI, in arrival
/// order.
///
/// A record's connection is the log's, and its time is a function of its
/// cycle and the destination NI's clock, so the log keeps the connection
/// and the clock once and stores only `(tag, cycle)` per flit, in 8 bytes
/// instead of a 32-byte [`FlitDelivery`]: the low 32-bit words of both,
/// with the high words in a side table that gains an entry only where
/// they differ from the previous flit's, so every value reads back
/// exactly. Records are materialised on read; two logs are equal when
/// they read back the same records.
#[derive(Debug)]
pub struct FlitLog {
    conn: ConnId,
    phase_fs: u64,
    period_fs: u64,
    flits: FlitRecords,
}

impl FlitLog {
    /// Appends `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` belongs to another connection or if `d.time` is not
    /// the instant of edge `d.cycle` on this log's clock: the log could
    /// not read it back.
    pub fn push(&mut self, d: FlitDelivery) {
        assert_eq!(
            d.conn, self.conn,
            "a flit of {} logged as {}",
            d.conn, self.conn
        );
        assert_eq!(
            d.time,
            self.time_of(d.cycle),
            "{}: cycle {} delivered off the log's clock",
            self.conn,
            d.cycle
        );
        self.flits.push(d.tag, d.cycle);
    }

    /// The `(tag, cycle)` records themselves, for a writer that appends
    /// flits timed by this log's clock.
    pub(crate) fn flits_mut(&mut self) -> &mut FlitRecords {
        &mut self.flits
    }

    fn time_of(&self, cycle: u64) -> SimTime {
        SimTime::from_fs(self.phase_fs + cycle * self.period_fs)
    }

    fn delivery(&self, (tag, cycle): (u64, u64)) -> FlitDelivery {
        FlitDelivery {
            conn: self.conn,
            tag,
            cycle,
            time: self.time_of(cycle),
        }
    }

    /// The `i`-th delivery.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> FlitDelivery {
        self.delivery(self.flits.get(i))
    }

    /// Every delivery, in arrival order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FlitDelivery> + '_ {
        self.flits.iter().map(|f| self.delivery(f))
    }

    /// Destination cycles of every delivery, in arrival order.
    pub(crate) fn cycles(&self) -> impl Iterator<Item = u64> + '_ {
        self.flits.iter().map(|(_, cycle)| cycle)
    }

    /// Number of deliveries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flits.len()
    }

    /// Whether nothing was delivered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flits.len() == 0
    }

    /// Every delivery, materialised.
    #[must_use]
    pub fn to_vec(&self) -> Vec<FlitDelivery> {
        self.iter().collect()
    }
}

impl PartialEq for FlitLog {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for FlitLog {}

/// A log's `(tag, cycle)` records, 8 bytes each.
///
/// Each record keeps the low 32 bits of its tag and of its cycle. The high
/// words sit in a side table of marks, `(first record, tag high word,
/// cycle high word)`, each naming the high words of the records from its
/// first up to the next mark's; records before the first mark have zero
/// high words. A record gains a mark only when its high words differ from
/// its predecessor's, so a run shorter than 2³² cycles whose sequence
/// numbers stay below 2²⁴ has none, and every `u64` reads back exactly.
#[derive(Debug, Default)]
pub(crate) struct FlitRecords {
    low: Vec<(u32, u32)>,
    high: Vec<(usize, u32, u32)>,
}

impl FlitRecords {
    /// Appends the record `(tag, cycle)`.
    #[inline]
    pub(crate) fn push(&mut self, tag: u64, cycle: u64) {
        let high = (high_word(tag), high_word(cycle));
        if high != self.high.last().map_or((0, 0), |&(_, t, c)| (t, c)) {
            self.high.push((self.low.len(), high.0, high.1));
        }
        self.low.push((tag as u32, cycle as u32));
    }

    /// Reserves room for `additional` more records, so that pushing them
    /// does not grow the record storage (a mark may still be added).
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.low.reserve(additional);
    }

    /// Records the storage holds room for.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.low.capacity()
    }

    /// Heap bytes `(in use, held)` by the records and marks.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        let bytes = |records: usize, marks: usize| {
            records * std::mem::size_of::<(u32, u32)>()
                + marks * std::mem::size_of::<(usize, u32, u32)>()
        };
        (
            bytes(self.low.len(), self.high.len()),
            bytes(self.low.capacity(), self.high.capacity()),
        )
    }

    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.low.len()
    }

    /// The `i`-th record.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub(crate) fn get(&self, i: usize) -> (u64, u64) {
        let (tag, cycle) = self.low[i];
        let marks = &self.high[..self.high.partition_point(|&(first, ..)| first <= i)];
        let (t, c) = marks.last().map_or((0, 0), |&(_, t, c)| (t, c));
        (join_words(t, tag), join_words(c, cycle))
    }

    /// Every record, in order.
    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = (u64, u64)> + '_ {
        let mut marks = self.high.iter().peekable();
        let mut high = (0, 0);
        self.low.iter().enumerate().map(move |(i, &(tag, cycle))| {
            if let Some(&(_, t, c)) = marks.next_if(|&&(first, ..)| first == i) {
                high = (t, c);
            }
            (join_words(high.0, tag), join_words(high.1, cycle))
        })
    }
}

fn high_word(x: u64) -> u32 {
    (x >> 32) as u32
}

fn join_words(high: u32, low: u32) -> u64 {
    u64::from(high) << 32 | u64::from(low)
}

/// The shared log of one connection's deliveries at its destination NI.
pub type DeliveryLog = Rc<RefCell<FlitLog>>;

/// Creates an empty delivery log of `conn`, timed by a destination-NI
/// clock with its first edge at `phase_fs` and a period of `period_fs`.
#[must_use]
pub(crate) fn delivery_log(conn: ConnId, phase_fs: u64, period_fs: u64) -> DeliveryLog {
    Rc::new(RefCell::new(FlitLog {
        conn,
        phase_fs,
        period_fs,
        flits: FlitRecords::default(),
    }))
}

/// Credit return channel: payload-word counts flowing back from a
/// destination NI to the source NI.
pub type CreditChannel = SharedBisync<u32>;

/// Creates a credit channel with the given return delay.
///
/// Capacity is generous: credits are small counters, not buffered data.
#[must_use]
pub(crate) fn credit_channel(name: impl Into<String>, return_delay: SimDuration) -> CreditChannel {
    SharedBisync::new(BisyncFifo::new(name, 4096, return_delay))
}

/// Tag of a flit's first payload word: message sequence number in the
/// high bits, word offset within the message in the low 8. Shared by
/// the event-driven [`NiSource`] and the turbo kernel so the two
/// engines can never disagree on the tag layout.
#[must_use]
pub(crate) fn flit_base_tag(seq: u32, total_words: u32, remaining_words: u32) -> u64 {
    (u64::from(seq) << 8) | u64::from(total_words - remaining_words)
}

/// Per-connection source state inside an [`NiSource`].
#[derive(Debug)]
pub struct SourceConn {
    /// The connection id (carried in headers).
    pub conn: ConnId,
    /// The full source route (as allocated).
    pub route: Vec<aelite_spec::ids::Port>,
    /// Slot-table entries owned by this connection.
    pub inject_slots: Vec<u32>,
    /// Message queue filled by the IP.
    pub queue: MessageQueue,
    /// Credit return channel from the destination NI.
    pub credits_in: CreditChannel,
    /// Initial credit (destination buffer size), in payload words.
    pub initial_credit: u32,
}

#[derive(Debug)]
struct SourceState {
    credits: i64,
    /// Words left of the message currently being sent.
    current_msg: Option<(Message, u32)>,
    words_sent: u64,
}

/// The sending half of an NI: slot table + packetisation + flow control.
#[derive(Debug)]
pub struct NiSource {
    name: String,
    output: Wire<LinkWord>,
    table_size: u32,
    flit_words: u32,
    conns: Vec<SourceConn>,
    state: Vec<SourceState>,
    /// Slot owner lookup: `slot -> index into conns`.
    slot_owner: Vec<Option<usize>>,
    /// Words queued for the remaining cycles of the current slot.
    pending: VecDeque<LinkWord>,
}

impl NiSource {
    /// Builds a source NI.
    ///
    /// # Panics
    ///
    /// Panics if two connections claim the same slot (the allocation must
    /// make NI-ingress slots exclusive) or a slot index is out of range.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        output: Wire<LinkWord>,
        table_size: u32,
        flit_words: u32,
        conns: Vec<SourceConn>,
    ) -> Self {
        let mut slot_owner = vec![None; table_size as usize];
        for (i, c) in conns.iter().enumerate() {
            for &s in &c.inject_slots {
                assert!(s < table_size, "slot {s} out of range for {}", c.conn);
                assert!(
                    slot_owner[s as usize].is_none(),
                    "slot {s} claimed twice on one NI"
                );
                slot_owner[s as usize] = Some(i);
            }
        }
        let state = conns
            .iter()
            .map(|c| SourceState {
                credits: i64::from(c.initial_credit),
                current_msg: None,
                words_sent: 0,
            })
            .collect();
        NiSource {
            name: name.into(),
            output,
            table_size,
            flit_words,
            conns,
            state,
            slot_owner,
            pending: VecDeque::new(),
        }
    }

    /// Current credit (payload words) of the `i`-th connection.
    #[must_use]
    pub fn credits(&self, i: usize) -> i64 {
        self.state[i].credits
    }
}

impl Module for NiSource {
    type Value = LinkWord;

    fn name(&self) -> &str {
        &self.name
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        let now = ctx.time();
        let cycle = ctx.cycle();
        // Collect returned credits.
        for (i, c) in self.conns.iter().enumerate() {
            while let Some(words) = c.credits_in.with(|f| f.pop_visible(now)) {
                self.state[i].credits += i64::from(words);
            }
        }

        // Continue an in-flight flit.
        if let Some(word) = self.pending.pop_front() {
            ctx.write(self.output, word);
            return;
        }

        let phase = cycle % u64::from(self.flit_words);
        if phase != 0 {
            ctx.write(self.output, LinkWord::idle());
            return;
        }
        let slot = ((cycle / u64::from(self.flit_words)) % u64::from(self.table_size)) as u32;
        let Some(ci) = self.slot_owner[slot as usize] else {
            ctx.write(self.output, LinkWord::idle());
            return;
        };

        // Fetch the next message if idle.
        let payload_capacity = self.flit_words - 1;
        let st = &mut self.state[ci];
        if st.current_msg.is_none() {
            let msg = self.conns[ci]
                .queue
                .borrow_mut()
                .front()
                .copied()
                .filter(|m| m.ready_cycle <= cycle);
            if let Some(m) = msg {
                self.conns[ci].queue.borrow_mut().pop_front();
                st.current_msg = Some((m, m.words));
            }
        }
        let Some((msg, remaining)) = st.current_msg else {
            ctx.write(self.output, LinkWord::idle());
            return;
        };

        // Flow control: only send what the destination can absorb.
        let send_words = remaining.min(payload_capacity);
        if i64::from(send_words) > st.credits {
            // Back-pressure: the slot goes idle, the connection slows
            // down, nobody else is affected (paper Section IV-A).
            ctx.write(self.output, LinkWord::idle());
            return;
        }
        st.credits -= i64::from(send_words);
        st.words_sent += u64::from(send_words);
        let left = remaining - send_words;
        st.current_msg = if left > 0 { Some((msg, left)) } else { None };

        // Emit the flit: header now, payload words on the next cycles.
        let route = RouteBits::from_ports(&self.conns[ci].route);
        ctx.write(self.output, LinkWord::head(route, self.conns[ci].conn));
        let base_tag = flit_base_tag(msg.seq, msg.words, remaining);
        for k in 0..send_words {
            let eop = k + 1 == send_words;
            self.pending
                .push_back(LinkWord::data(base_tag + u64::from(k), eop));
        }
        // Pad short flits with idle cycles (slot is still consumed).
        for _ in send_words..payload_capacity {
            self.pending.push_back(LinkWord::idle());
        }
    }
}

/// Per-connection receive state inside an [`NiSink`].
#[derive(Debug)]
pub struct SinkConn {
    /// The connection id this queue serves.
    pub conn: ConnId,
    /// This connection's delivery log, timed by this NI's clock.
    pub log: DeliveryLog,
    /// Credit return channel to the source NI.
    pub credits_out: CreditChannel,
    /// Consumer model: cycles between draining single words; 0 drains
    /// instantly (credits return as soon as the flit lands).
    pub drain_interval: u32,
}

#[derive(Debug)]
struct SinkState {
    /// Words buffered, waiting for the consumer.
    buffered: VecDeque<u64>,
    next_drain: u64,
    current_tag: Option<u64>,
    words_in_flit: u32,
}

/// The receiving half of an NI: reassembles flits, drains to the consumer
/// and returns credits.
#[derive(Debug)]
pub struct NiSink {
    name: String,
    input: Wire<LinkWord>,
    conns: Vec<SinkConn>,
    state: Vec<SinkState>,
    /// Connection of the packet currently streaming in, if any.
    active: Option<usize>,
}

impl NiSink {
    /// Builds a sink NI receiving from `input`.
    #[must_use]
    pub fn new(name: impl Into<String>, input: Wire<LinkWord>, conns: Vec<SinkConn>) -> Self {
        let state = conns
            .iter()
            .map(|_| SinkState {
                buffered: VecDeque::new(),
                next_drain: 0,
                current_tag: None,
                words_in_flit: 0,
            })
            .collect();
        NiSink {
            name: name.into(),
            input,
            conns,
            state,
            active: None,
        }
    }

    fn conn_index(&self, conn: ConnId) -> usize {
        self.conns
            .iter()
            .position(|c| c.conn == conn)
            .unwrap_or_else(|| panic!("{}: unexpected packet for {conn}", self.name))
    }
}

impl Module for NiSink {
    type Value = LinkWord;

    fn name(&self) -> &str {
        &self.name
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        let now = ctx.time();
        let cycle = ctx.cycle();

        // Drain consumers and return credits.
        for (i, c) in self.conns.iter().enumerate() {
            let st = &mut self.state[i];
            if c.drain_interval == 0 {
                let n = st.buffered.len() as u32;
                if n > 0 {
                    st.buffered.clear();
                    c.credits_out.with(|f| f.push(now, n));
                }
            } else if cycle >= st.next_drain && !st.buffered.is_empty() {
                st.buffered.pop_front();
                c.credits_out.with(|f| f.push(now, 1));
                st.next_drain = cycle + u64::from(c.drain_interval);
            }
        }

        // Receive one word.
        let word = ctx.read(self.input);
        if !word.valid {
            return;
        }
        match word.payload {
            Payload::Head(h) => {
                assert_eq!(
                    h.route.remaining(),
                    0,
                    "{}: packet arrived with unconsumed route",
                    self.name
                );
                let i = self.conn_index(h.conn);
                self.state[i].words_in_flit = 0;
                // Sentinel until the first data word supplies the tag.
                self.state[i].current_tag = Some(u64::MAX);
                self.active = Some(i);
            }
            Payload::Data(tag) => {
                let i = self
                    .active
                    .unwrap_or_else(|| panic!("{}: data word with no open packet", self.name));
                let st = &mut self.state[i];
                if st.current_tag == Some(u64::MAX) {
                    st.current_tag = Some(tag);
                }
                st.buffered.push_back(tag);
                st.words_in_flit += 1;
                if word.eop {
                    let first = st.current_tag.take().unwrap_or(tag);
                    self.conns[i].log.borrow_mut().push(FlitDelivery {
                        conn: self.conns[i].conn,
                        tag: first,
                        cycle,
                        time: now,
                    });
                    self.active = None;
                }
            }
            Payload::Idle => {}
        }
    }
}

/// A constant-bit-rate IP traffic source feeding a [`MessageQueue`].
///
/// Pushes a `words_per_message` message every `interval_cycles`, starting
/// at `offset_cycles` — the paper's evaluation regime where IPs offer
/// exactly their contracted load.
#[derive(Debug)]
pub struct CbrSource {
    name: String,
    queue: MessageQueue,
    words_per_message: u32,
    interval_cycles: u64,
    offset_cycles: u64,
    seq: u32,
    /// Stop after this many messages (u32::MAX = unbounded).
    pub limit: u32,
}

impl CbrSource {
    /// Creates a CBR source.
    ///
    /// # Panics
    ///
    /// Panics if the interval or message size is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        queue: MessageQueue,
        words_per_message: u32,
        interval_cycles: u64,
        offset_cycles: u64,
    ) -> Self {
        assert!(interval_cycles > 0, "interval must be non-zero");
        assert!(words_per_message > 0, "messages must carry data");
        CbrSource {
            name: name.into(),
            queue,
            words_per_message,
            interval_cycles,
            offset_cycles,
            seq: 0,
            limit: u32::MAX,
        }
    }
}

impl Module for CbrSource {
    type Value = LinkWord;

    fn name(&self) -> &str {
        &self.name
    }

    fn on_edge(&mut self, ctx: &mut EdgeContext<'_, LinkWord>) {
        let cycle = ctx.cycle();
        if cycle >= self.offset_cycles
            && (cycle - self.offset_cycles).is_multiple_of(self.interval_cycles)
            && self.seq < self.limit
        {
            self.queue.borrow_mut().push_back(Message {
                seq: self.seq,
                words: self.words_per_message,
                ready_cycle: cycle,
            });
            self.seq += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_sim::clock::ClockSpec;
    use aelite_sim::scheduler::Simulator;
    use aelite_sim::time::{Frequency, SimTime};
    const S: u32 = 8;

    fn source_conn(
        conn: u32,
        slots: Vec<u32>,
        queue: MessageQueue,
        credits_in: CreditChannel,
        credit: u32,
    ) -> SourceConn {
        SourceConn {
            conn: ConnId::new(conn),
            // Wired NI-to-NI in these tests: no router consumes hops, so
            // the route is empty.
            route: vec![],
            inject_slots: slots,
            queue,
            credits_in,
            initial_credit: credit,
        }
    }

    /// NI source wired straight into an NI sink (no router between) —
    /// enough to exercise packetisation, slots and credits.
    struct Bench {
        sim: Simulator<LinkWord>,
        queue: MessageQueue,
        log: DeliveryLog,
    }

    fn direct_bench(slots: Vec<u32>, credit: u32, drain_interval: u32) -> Bench {
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let f = Frequency::from_mhz(500);
        let clk = sim.add_domain(ClockSpec::new(f));
        let wire = sim.add_wire("ni2ni");
        let queue = message_queue();
        let log = delivery_log(ConnId::new(0), 0, f.period().as_fs());
        let credits = credit_channel("cr", SimDuration::ZERO);
        let src = NiSource::new(
            "src",
            wire,
            S,
            3,
            vec![source_conn(
                0,
                slots,
                Rc::clone(&queue),
                credits.clone(),
                credit,
            )],
        );
        // The sink sees packets whose single-hop route was consumed by a
        // router; emulate by building sources with an empty route.
        let sink = NiSink::new(
            "sink",
            wire,
            vec![SinkConn {
                conn: ConnId::new(0),
                log: Rc::clone(&log),
                credits_out: credits,
                drain_interval,
            }],
        );
        sim.add_module(clk, src);
        sim.add_module(clk, sink);
        Bench { sim, queue, log }
    }

    #[test]
    fn injects_only_in_reserved_slots() {
        let mut b = direct_bench(vec![2], 100, 0);
        b.queue.borrow_mut().push_back(Message {
            seq: 0,
            words: 2,
            ready_cycle: 0,
        });
        b.sim.run_until(SimTime::from_ns(200));
        let log = b.log.borrow();
        assert_eq!(log.len(), 1);
        // Slot 2 starts at cycle 6; header at 6, eop data at cycle 8,
        // sink samples it at cycle 9.
        assert_eq!(log.get(0).cycle, 9);
    }

    #[test]
    fn multi_flit_message_uses_successive_slots() {
        let mut b = direct_bench(vec![1, 5], 100, 0);
        b.queue.borrow_mut().push_back(Message {
            seq: 0,
            words: 6, // 3 flits of 2 payload words
            ready_cycle: 0,
        });
        b.sim.run_until(SimTime::from_ns(400));
        let log = b.log.borrow();
        assert_eq!(log.len(), 3);
        // Slots 1, 5, 9(=1 mod 8): cycles 3,15,27 -> eop sampled +3.
        assert_eq!(log.get(0).cycle, 6);
        assert_eq!(log.get(1).cycle, 18);
        assert_eq!(log.get(2).cycle, 30);
    }

    #[test]
    fn credits_gate_injection() {
        // Destination never drains (huge drain interval): after the
        // initial credit is spent, the source must stop.
        let mut b = direct_bench(vec![0, 1, 2, 3, 4, 5, 6, 7], 4, u32::MAX);
        for seq in 0..10 {
            b.queue.borrow_mut().push_back(Message {
                seq,
                words: 2,
                ready_cycle: 0,
            });
        }
        b.sim.run_until(SimTime::from_ns(1000));
        let log = b.log.borrow();
        // 4 credits / 2 words per flit = 2 flits, then back-pressure.
        assert_eq!(log.len(), 2, "{log:?}");
    }

    #[test]
    fn drained_credits_resume_injection() {
        // Slow consumer: drains one word every 30 cycles; the connection
        // proceeds at the drain rate instead of deadlocking.
        let mut b = direct_bench(vec![0], 2, 30);
        for seq in 0..4 {
            b.queue.borrow_mut().push_back(Message {
                seq,
                words: 2,
                ready_cycle: 0,
            });
        }
        b.sim.run_until(SimTime::from_ns(4000));
        assert_eq!(b.log.borrow().len(), 4);
    }

    #[test]
    fn partial_flit_carries_short_message() {
        let mut b = direct_bench(vec![0], 100, 0);
        b.queue.borrow_mut().push_back(Message {
            seq: 0,
            words: 1,
            ready_cycle: 0,
        });
        b.sim.run_until(SimTime::from_ns(100));
        let log = b.log.borrow();
        assert_eq!(log.len(), 1);
    }

    #[test]
    #[should_panic(expected = "claimed twice")]
    fn overlapping_slots_rejected() {
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let wire = sim.add_wire("w");
        let q = message_queue();
        let cr = credit_channel("c", SimDuration::ZERO);
        let _ = NiSource::new(
            "src",
            wire,
            S,
            3,
            vec![
                source_conn(0, vec![1], Rc::clone(&q), cr.clone(), 4),
                source_conn(1, vec![1], q, cr, 4),
            ],
        );
    }

    /// 500 MHz: one cycle is 2 ns.
    const PERIOD_FS: u64 = 2_000_000;

    fn delivery(conn: u32, tag: u64, cycle: u64, time_fs: u64) -> FlitDelivery {
        FlitDelivery {
            conn: ConnId::new(conn),
            tag,
            cycle,
            time: SimTime::from_fs(time_fs),
        }
    }

    #[test]
    fn flit_log_reads_back_what_it_recorded_on_a_phased_clock() {
        let phase_fs = 777_000;
        let log = delivery_log(ConnId::new(3), phase_fs, PERIOD_FS);
        let pushed = [
            delivery(3, 0x100, 9, phase_fs + 9 * PERIOD_FS),
            delivery(3, 0x102, 21, phase_fs + 21 * PERIOD_FS),
            delivery(3, 0x200, 33, phase_fs + 33 * PERIOD_FS),
        ];
        for d in pushed {
            log.borrow_mut().push(d);
        }
        let log = log.borrow();
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        for (i, d) in pushed.iter().enumerate() {
            let got = log.get(i);
            assert_eq!(
                (got.conn, got.tag, got.cycle, got.time.as_fs()),
                (d.conn, d.tag, d.cycle, d.time.as_fs())
            );
        }
        assert_eq!(log.iter().collect::<Vec<_>>(), pushed);
        assert_eq!(log.to_vec(), pushed);
    }

    #[test]
    fn flit_log_reads_back_high_words_that_change_back_and_forth() {
        const HI: u64 = 1 << 32;
        let phase_fs = 777_000;
        let at = |cycle: u64| phase_fs + cycle * PERIOD_FS;
        let log = delivery_log(ConnId::new(3), phase_fs, PERIOD_FS);
        // (tag, cycle): high words (0, 0), (1, 0), (0, 0), (0, 1), (3, 1),
        // (3, 1) again, (0, 5) and (0, 5) again.
        let records = [
            (0x100, 9),
            (HI | 0x5ff, 10),
            (0x101, 11),
            (0x102, HI + 3),
            ((3 * HI) | 0x700, HI + 4),
            ((3 * HI) | 0x701, HI + u64::from(u32::MAX)),
            (0x103, 5 * HI),
            (0x104, 5 * HI + 1),
        ];
        let pushed: Vec<FlitDelivery> = records
            .iter()
            .map(|&(tag, cycle)| delivery(3, tag, cycle, at(cycle)))
            .collect();
        for &d in &pushed {
            log.borrow_mut().push(d);
        }
        let log = log.borrow();
        assert_eq!(log.len(), records.len());
        for (i, d) in pushed.iter().enumerate() {
            assert_eq!(log.get(i), *d, "record {i}");
        }
        assert_eq!(log.iter().collect::<Vec<_>>(), pushed);
        assert_eq!(
            log.cycles().collect::<Vec<_>>(),
            records.map(|(_, cycle)| cycle)
        );
        // A mark only where the high words change: at five of eight records.
        assert_eq!(log.flits.high.len(), 5);

        // Logs are equal by what they read back, not by their low words.
        let same = delivery_log(ConnId::new(3), phase_fs, PERIOD_FS);
        let other = delivery_log(ConnId::new(3), phase_fs, PERIOD_FS);
        for (i, &d) in pushed.iter().enumerate() {
            same.borrow_mut().push(d);
            let tag = if i == 4 {
                d.tag & u64::from(u32::MAX)
            } else {
                d.tag
            };
            other.borrow_mut().push(FlitDelivery { tag, ..d });
        }
        assert_eq!(*log, *same.borrow());
        assert_ne!(*log, *other.borrow());
    }

    #[test]
    #[should_panic(expected = "off the log's clock")]
    fn flit_log_refuses_a_time_off_its_clock() {
        let log = delivery_log(ConnId::new(0), 500, PERIOD_FS);
        log.borrow_mut().push(delivery(0, 0, 4, 4 * PERIOD_FS));
    }

    #[test]
    #[should_panic(expected = "a flit of c1 logged as c0")]
    fn flit_log_refuses_another_connections_flit() {
        let log = delivery_log(ConnId::new(0), 0, PERIOD_FS);
        log.borrow_mut().push(delivery(1, 0, 4, 4 * PERIOD_FS));
    }

    #[test]
    fn cbr_source_pushes_on_schedule() {
        let mut sim: Simulator<LinkWord> = Simulator::new();
        let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        let q = message_queue();
        sim.add_module(clk, CbrSource::new("cbr", Rc::clone(&q), 2, 10, 5));
        sim.run_until(SimTime::from_ns(70)); // cycles 0..=35
        let msgs: Vec<Message> = q.borrow().iter().copied().collect();
        assert_eq!(msgs.len(), 4); // at cycles 5, 15, 25, 35
        assert_eq!(msgs[0].ready_cycle, 5);
        assert_eq!(msgs[3].ready_cycle, 35);
        assert_eq!(msgs[1].seq, 1);
    }
}
