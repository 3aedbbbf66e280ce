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

use crate::phit::{Header, LinkWord, Payload};
use aelite_sim::bisync::{BisyncFifo, SharedBisync};
use aelite_sim::module::{EdgeContext, Module};
use aelite_sim::signal::Wire;
use aelite_sim::time::{SimDuration, SimTime};
use aelite_spec::ids::ConnId;
use aelite_spec::traffic::{Arrival, MessageSource};
use core::fmt;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// A message handed to the NI by an IP core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// Sequence number within its connection.
    pub seq: u32,
    /// Payload length in words.
    pub words: u32,
    /// The NI-domain cycle from which the message may be sent and its
    /// flits' latency is counted.
    pub ready_cycle: u64,
}

impl From<Arrival> for Message {
    fn from(a: Arrival) -> Self {
        Message {
            seq: a.seq,
            words: a.words,
            ready_cycle: a.ready_cycle,
        }
    }
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

/// Where one connection's delivery logs in two runs first differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Divergence {
    /// Record `index` differs in tag, cycle or time.
    Record {
        /// Index of the first differing record.
        index: usize,
        /// The record in the reference run.
        reference: FlitDelivery,
        /// The record in the compared run.
        compared: FlitDelivery,
    },
    /// One log is a proper prefix of the other.
    Length {
        /// Records in the reference run.
        reference: usize,
        /// Records in the compared run.
        compared: usize,
    },
    /// A run has no log of the connection.
    Missing {
        /// Whether the reference run logged the connection.
        reference: bool,
        /// Whether the compared run logged it.
        compared: bool,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flit = |d: &FlitDelivery| format!("tag {:#x} at cycle {} ({})", d.tag, d.cycle, d.time);
        match self {
            Divergence::Record {
                index,
                reference,
                compared,
            } => write!(
                f,
                "delivery #{index} changed from {} to {}",
                flit(reference),
                flit(compared)
            ),
            Divergence::Length {
                reference,
                compared,
            } => write!(f, "delivery count changed from {reference} to {compared}"),
            Divergence::Missing {
                reference,
                compared,
            } => write!(
                f,
                "logged by {}",
                match (reference, compared) {
                    (true, _) => "the reference run only",
                    (_, true) => "the compared run only",
                    _ => "neither run",
                }
            ),
        }
    }
}

/// The outcome of [`compare_logs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposabilityResult {
    /// Connections whose logs diverged, with the first divergence.
    pub divergent: Vec<(ConnId, Divergence)>,
    /// Number of connections compared.
    pub compared: usize,
}

impl ComposabilityResult {
    /// Whether every compared connection delivered identical records.
    #[must_use]
    pub fn is_composable(&self) -> bool {
        self.divergent.is_empty()
    }
}

impl fmt::Display for ComposabilityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_composable() {
            write!(
                f,
                "composable: {} connections timing-identical",
                self.compared
            )
        } else {
            write!(
                f,
                "NOT composable: {}/{} connections diverged (first: {} {})",
                self.divergent.len(),
                self.compared,
                self.divergent[0].0,
                self.divergent[0].1
            )
        }
    }
}

/// Compares the delivery logs of `conns` in two runs, given as the
/// `logs` of their nets, whole record by whole record: connection, tag,
/// cycle and time. A connection that either run did not log diverges.
#[must_use]
pub fn compare_logs(
    conns: impl IntoIterator<Item = ConnId>,
    reference: &[(ConnId, DeliveryLog)],
    compared: &[(ConnId, DeliveryLog)],
) -> ComposabilityResult {
    let (reference, compared) = (by_conn(reference), by_conn(compared));
    let mut result = ComposabilityResult {
        divergent: Vec::new(),
        compared: 0,
    };
    for conn in conns {
        result.compared += 1;
        let divergence = match (reference.get(&conn), compared.get(&conn)) {
            (Some(r), Some(c)) => first_divergence(&r.borrow(), &c.borrow()),
            (r, c) => Some(Divergence::Missing {
                reference: r.is_some(),
                compared: c.is_some(),
            }),
        };
        result.divergent.extend(divergence.map(|d| (conn, d)));
    }
    result
}

fn by_conn(logs: &[(ConnId, DeliveryLog)]) -> HashMap<ConnId, &DeliveryLog> {
    logs.iter().map(|(conn, log)| (*conn, log)).collect()
}

fn first_divergence(reference: &FlitLog, compared: &FlitLog) -> Option<Divergence> {
    let mut pairs = reference.iter().zip(compared.iter()).enumerate();
    if let Some((index, (r, c))) = pairs.find(|(_, (r, c))| r != c) {
        return Some(Divergence::Record {
            index,
            reference: r,
            compared: c,
        });
    }
    (reference.len() != compared.len()).then(|| Divergence::Length {
        reference: reference.len(),
        compared: compared.len(),
    })
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
    /// The header opening every packet: the full source route (as
    /// allocated) and the connection id.
    pub header: Header,
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
}

/// The sending half of an NI: slot table + packetisation + flow control.
#[derive(Debug)]
pub struct NiSource {
    name: String,
    output: Wire<LinkWord>,
    flit_words: u32,
    conns: Vec<SourceConn>,
    state: Vec<SourceState>,
    /// The slot table: `slot -> index into conns` of its owner.
    slot_owner: Vec<Option<usize>>,
    /// Words queued for the remaining cycles of the current slot.
    pending: VecDeque<LinkWord>,
}

impl NiSource {
    /// Builds a source NI whose slot table gives each entry's owner as an
    /// index into `conns`. The allocation makes each entry's owner
    /// exclusive; the table encodes that by construction.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        output: Wire<LinkWord>,
        slot_table: Vec<Option<usize>>,
        flit_words: u32,
        conns: Vec<SourceConn>,
    ) -> Self {
        let state = conns
            .iter()
            .map(|c| SourceState {
                credits: i64::from(c.initial_credit),
                current_msg: None,
            })
            .collect();
        NiSource {
            name: name.into(),
            output,
            flit_words,
            conns,
            state,
            slot_owner: slot_table,
            pending: VecDeque::new(),
        }
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
        let slot = (cycle / u64::from(self.flit_words)) % self.slot_owner.len() as u64;
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
        let left = remaining - send_words;
        st.current_msg = if left > 0 { Some((msg, left)) } else { None };

        // Emit the flit: header now, payload words on the next cycles.
        let header = self.conns[ci].header;
        ctx.write(self.output, LinkWord::head(header.route, header.conn));
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

/// An IP traffic source feeding a [`MessageQueue`]: pushes, at every
/// edge, each message its [`MessageSource`] offers by then — the paper's
/// evaluation regime where IPs offer exactly their contracted load.
#[derive(Debug)]
pub struct CbrSource {
    name: String,
    queue: MessageQueue,
    source: MessageSource,
}

impl CbrSource {
    /// Creates a source replaying `source` into `queue`.
    #[must_use]
    pub fn new(name: impl Into<String>, queue: MessageQueue, source: MessageSource) -> Self {
        CbrSource {
            name: name.into(),
            queue,
            source,
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
        while let Some(arrival) = self.source.pop_arrival(cycle) {
            self.queue.borrow_mut().push_back(arrival.into());
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

    impl FlitRecords {
        /// Records the storage holds room for.
        pub(crate) fn capacity(&self) -> usize {
            self.low.capacity()
        }

        /// Heap bytes `(in use, held)` by the records and marks.
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
    }

    /// The only connection of a source NI, owning `slots` of its table.
    fn sole_source(
        slots: &[u32],
        queue: MessageQueue,
        credits_in: CreditChannel,
        credit: u32,
    ) -> (Vec<Option<usize>>, Vec<SourceConn>) {
        let mut table = vec![None; S as usize];
        for &s in slots {
            table[s as usize] = Some(0);
        }
        let conn = SourceConn {
            // Wired NI-to-NI in these tests: no router consumes hops, so
            // the route is empty.
            header: Header {
                route: crate::phit::RouteBits::from_ports(&[]),
                conn: ConnId::new(0),
            },
            queue,
            credits_in,
            initial_credit: credit,
        };
        (table, vec![conn])
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
        let (table, conns) = sole_source(&slots, Rc::clone(&queue), credits.clone(), credit);
        let src = NiSource::new("src", wire, table, 3, conns);
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

    /// The log of `conn` on a clock of phase `phase_fs`, holding the
    /// `(tag, cycle)` records.
    fn log_of(conn: u32, phase_fs: u64, records: &[(u64, u64)]) -> (ConnId, DeliveryLog) {
        let log = delivery_log(ConnId::new(conn), phase_fs, PERIOD_FS);
        for &(tag, cycle) in records {
            let time_fs = phase_fs + cycle * PERIOD_FS;
            log.borrow_mut().push(delivery(conn, tag, cycle, time_fs));
        }
        (ConnId::new(conn), log)
    }

    const RECORDS: [(u64, u64); 3] = [(0x100, 9), (0x101, 21), (0x200, 33)];

    /// Compares connections 0 and 1 of two runs whose connection 1 logged
    /// `RECORDS` and whose connection 0 logged `reference` and
    /// `compared` on clocks of phase `phases`.
    fn compare_c0(
        reference: &[(u64, u64)],
        compared: &[(u64, u64)],
        phases: [u64; 2],
    ) -> ComposabilityResult {
        let run = |records, phase_fs| [log_of(0, phase_fs, records), log_of(1, 0, &RECORDS)];
        let [c0, c1] = [0, 1].map(ConnId::new);
        compare_logs(
            [c0, c1],
            &run(reference, phases[0]),
            &run(compared, phases[1]),
        )
    }

    /// Connection 0's divergence at record `index`, between two
    /// `(tag, cycle, phase_fs)` records.
    fn c0_record(index: usize, [r, c]: [(u64, u64, u64); 2]) -> [(ConnId, Divergence); 1] {
        let at = |(tag, cycle, phase_fs)| delivery(0, tag, cycle, phase_fs + cycle * PERIOD_FS);
        let (reference, compared) = (at(r), at(c));
        [(
            ConnId::new(0),
            Divergence::Record {
                index,
                reference,
                compared,
            },
        )]
    }

    #[test]
    fn identical_logs_compare_identical() {
        let result = compare_c0(&RECORDS, &RECORDS, [0, 0]);
        assert!(result.is_composable());
        assert_eq!(result.compared, 2);
        let text = result.to_string();
        assert!(text.starts_with("composable: 2 connections"), "{text}");
    }

    #[test]
    fn logs_that_differ_in_one_tag_diverge() {
        let mut retagged = RECORDS;
        retagged[1].0 = 0x102;
        let result = compare_c0(&RECORDS, &retagged, [0, 0]);
        assert_eq!(
            result.divergent,
            c0_record(1, [(0x101, 21, 0), (0x102, 21, 0)])
        );
        let text = result.to_string();
        assert!(
            text.contains("NOT composable: 1/2") && text.contains("c0"),
            "{text}"
        );
        assert!(
            text.contains("tag 0x101") && text.contains("tag 0x102"),
            "{text}"
        );
    }

    #[test]
    fn logs_that_differ_only_in_time_diverge() {
        // The same tags at the same cycles, on NIs of different phases.
        let result = compare_c0(&RECORDS, &RECORDS, [0, 777_000]);
        assert_eq!(
            result.divergent,
            c0_record(0, [(0x100, 9, 0), (0x100, 9, 777_000)])
        );
    }

    #[test]
    fn a_shorter_log_diverges() {
        let result = compare_c0(&RECORDS, &RECORDS[..2], [0, 0]);
        assert_eq!(
            result.divergent,
            [(
                ConnId::new(0),
                Divergence::Length {
                    reference: 3,
                    compared: 2
                }
            )]
        );
        assert!(result.to_string().contains("count changed from 3 to 2"));
    }

    #[test]
    fn a_delivery_one_cycle_late_diverges() {
        let result = compare_c0(&RECORDS, &[RECORDS[0], (0x101, 22), RECORDS[2]], [0, 0]);
        assert!(!result.is_composable());
        assert_eq!(
            result.divergent,
            c0_record(1, [(0x101, 21, 0), (0x101, 22, 0)])
        );
    }

    #[test]
    fn a_moved_delivery_diverges_before_the_length_does() {
        // The second flit lands a cycle late in a shorter log: the moved
        // record is the earlier evidence.
        let result = compare_c0(&RECORDS, &[RECORDS[0], (0x101, 22)], [0, 0]);
        assert_eq!(
            result.divergent,
            c0_record(1, [(0x101, 21, 0), (0x101, 22, 0)])
        );
        let text = result.to_string();
        assert!(
            text.contains("delivery #1 changed from tag 0x101 at cycle 21"),
            "{text}"
        );
    }

    #[test]
    fn a_connection_logged_on_one_side_only_diverges() {
        let full = [log_of(0, 0, &RECORDS), log_of(1, 0, &RECORDS)];
        let [c0, c1, c2] = [0, 1, 2].map(ConnId::new);
        let result = compare_logs([c0, c1, c2], &full, &full[..1]);
        let missing = |reference, compared| Divergence::Missing {
            reference,
            compared,
        };
        assert_eq!(result.compared, 3);
        assert_eq!(
            result.divergent,
            [(c1, missing(true, false)), (c2, missing(false, false))]
        );
        let text = result.to_string();
        assert!(
            text.contains("c1 logged by the reference run only"),
            "{text}"
        );
        let reversed = compare_logs([c1], &full[..1], &full);
        assert_eq!(reversed.divergent, [(c1, missing(false, true))]);
    }

    #[test]
    fn cbr_source_pushes_on_schedule() {
        // 16-byte messages at 300 MB/s and 500 MHz: one every 26⅔ cycles,
        // visible at cycles 0, 27, 54 and 80 and labelled ready at 0, 26,
        // 53 and 79 (the 48.16 interval is truncated, so the fourth
        // instant falls just short of cycle 80).
        let topo = aelite_spec::topology::Topology::mesh(2, 1, 1);
        let mut b = aelite_spec::app::SystemSpecBuilder::new(
            topo,
            aelite_spec::config::NocConfig::paper_default(),
        );
        let app = b.add_app("a");
        let s = b.add_ip_at(aelite_spec::ids::NiId::new(0));
        let d = b.add_ip_at(aelite_spec::ids::NiId::new(1));
        let bw = aelite_spec::traffic::Bandwidth::from_mbytes_per_sec(300);
        b.add_connection(app, s, d, bw, 1_000);
        let spec = b.build();
        let source = MessageSource::new(&spec.connections()[0], spec.config(), 0);

        let mut sim: Simulator<LinkWord> = Simulator::new();
        let clk = sim.add_domain(ClockSpec::new(Frequency::from_mhz(500)));
        let q = message_queue();
        sim.add_module(clk, CbrSource::new("cbr", Rc::clone(&q), source));
        sim.run_until(SimTime::from_ns(52)); // cycles 0..=26
        assert_eq!(q.borrow().len(), 1);
        sim.run_until(SimTime::from_ns(54)); // and cycle 27
        assert_eq!(q.borrow().len(), 2);
        sim.run_until(SimTime::from_ns(160)); // to cycle 80
        let msgs: Vec<Message> = q.borrow().iter().copied().collect();
        let ready: Vec<u64> = msgs.iter().map(|m| m.ready_cycle).collect();
        assert_eq!(ready, [0, 26, 53, 79]);
        assert!(msgs.iter().enumerate().all(|(k, m)| m.seq == k as u32));
        assert!(msgs.iter().all(|m| m.words == 4));
    }
}
