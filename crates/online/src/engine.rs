//! The churn engine: streaming connection admission over a live
//! allocation. Requests enter only through [`submit`](ChurnEngine::submit)
//! or, as a batched admission round for independent bursts,
//! [`submit_batch`](ChurnEngine::submit_batch); scenario ops, churn and
//! faults alike, only through [`apply`](ChurnEngine::apply) (the recovery
//! ladder is the engine's second `impl` block, in [`fault`](crate::fault)).

use crate::api::{AdmissionError, AdmissionRequest, AdmissionResponse, RefusalCause};
use crate::fault::FaultState;
use aelite_alloc::{
    AdmissionRound, AllocScratch, Allocation, Allocator, FaultMask, RouteCache, RouteProvider,
};
use aelite_spec::fault::ScenarioOp;
use aelite_spec::ids::ConnId;
use aelite_spec::SystemSpec;

/// The answer to one request.
pub(crate) type Verdict = Result<AdmissionResponse, AdmissionError>;

/// What a verdict slot holds until its request is serviced. Every burst
/// path applies a permutation of the arrival indices, so each slot is
/// overwritten exactly once before the caller sees it.
pub(crate) fn placeholder() -> Verdict {
    Err(AdmissionError {
        conn: ConnId::new(0),
        cause: RefusalCause::UnknownConn,
        rolled_back: 0,
    })
}

/// Counters of the work a [`ChurnEngine`] has performed, broken down by
/// request kind so serving layers report refusal and rollback rates
/// without re-deriving them from traces — then the fault and repair
/// events it serviced and what their recovery sweeps did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Individual connection setups that succeeded (including those
    /// inside completed use-case switches).
    pub setups: u64,
    /// Individual connection teardowns performed (including the close
    /// side of use-case switches; rollback closes are not counted).
    pub teardowns: u64,
    /// Use-case switches applied end to end.
    pub switches: u64,
    /// Single open requests refused (platform could not admit, the
    /// connection already held a grant, or the spec does not contain it).
    pub refused_opens: u64,
    /// Single close requests refused (the connection held no grant).
    pub refused_closes: u64,
    /// Use-case switches that failed and were rolled back.
    pub refused_switches: u64,
    /// Open-set admissions that had succeeded inside switches and were
    /// undone by rollbacks.
    pub rolled_back_opens: u64,
    /// Refusals (of any kind, already counted in the per-kind counters
    /// above) whose cause was [`RefusalCause::LinkDown`] — admissions
    /// that failed *because of the fault mask*, not because of capacity.
    pub refused_link_down: u64,
    /// Link failure events applied (no-op repeats not counted).
    pub link_downs: u64,
    /// Link repair events applied.
    pub link_ups: u64,
    /// Router failure events applied.
    pub router_downs: u64,
    /// Router repair events applied.
    pub router_ups: u64,
    /// Total grants affected across failure events.
    pub affected: u64,
    /// Total make-before-break re-routes.
    pub make_before_break: u64,
    /// Total break-then-make re-routes.
    pub break_then_make: u64,
    /// Total connections dropped (displaced) by failures.
    pub dropped: u64,
    /// Total displaced connections re-homed by repairs.
    pub restored: u64,
    /// Transient glitch events applied (sub-threshold and escalated).
    pub glitches: u64,
    /// Glitches at or past the persistence threshold: they ran the
    /// recovery ladder like a permanent failure.
    pub escalated: u64,
    /// Glitches that self-cleared at expiry (no permanent fault landed
    /// on them first).
    pub glitch_expiries: u64,
    /// Displaced connections a repair did not re-admit because every
    /// witness link of their last [`RefusalCause::LinkDown`] refusal is
    /// still down: each is booked as the refused open it would have been
    /// (in `refused_opens` and `refused_link_down`) without being tried.
    pub rehome_skipped: u64,
}

impl ChurnStats {
    /// Total successful setup + teardown operations — the numerator of
    /// the ops/sec throughput metric.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.setups + self.teardowns
    }

    /// Total refused requests of any kind.
    #[must_use]
    pub fn refusals(&self) -> u64 {
        self.refused_opens + self.refused_closes + self.refused_switches
    }

    /// Total affected connections that kept service through a failure.
    #[must_use]
    pub fn survived(&self) -> u64 {
        self.make_before_break + self.break_then_make
    }

    /// Every counter of `self` combined with the same counter of `other`
    /// — the one place besides the declaration that lists the fields.
    fn zip(&self, other: &ChurnStats, f: impl Fn(u64, u64) -> u64) -> ChurnStats {
        ChurnStats {
            setups: f(self.setups, other.setups),
            teardowns: f(self.teardowns, other.teardowns),
            switches: f(self.switches, other.switches),
            refused_opens: f(self.refused_opens, other.refused_opens),
            refused_closes: f(self.refused_closes, other.refused_closes),
            refused_switches: f(self.refused_switches, other.refused_switches),
            rolled_back_opens: f(self.rolled_back_opens, other.rolled_back_opens),
            refused_link_down: f(self.refused_link_down, other.refused_link_down),
            link_downs: f(self.link_downs, other.link_downs),
            link_ups: f(self.link_ups, other.link_ups),
            router_downs: f(self.router_downs, other.router_downs),
            router_ups: f(self.router_ups, other.router_ups),
            affected: f(self.affected, other.affected),
            make_before_break: f(self.make_before_break, other.make_before_break),
            break_then_make: f(self.break_then_make, other.break_then_make),
            dropped: f(self.dropped, other.dropped),
            restored: f(self.restored, other.restored),
            glitches: f(self.glitches, other.glitches),
            escalated: f(self.escalated, other.escalated),
            glitch_expiries: f(self.glitch_expiries, other.glitch_expiries),
            rehome_skipped: f(self.rehome_skipped, other.rehome_skipped),
        }
    }

    /// Field-wise difference `self - before` — the counters accumulated
    /// *since* a snapshot taken earlier from the same engine. Callers
    /// that warm an engine up and then measure a window (the
    /// `aelite-serve` replay pipeline) report this delta rather than the
    /// lifetime totals.
    #[must_use]
    pub fn delta(&self, before: &ChurnStats) -> ChurnStats {
        self.zip(before, |after, before| after - before)
    }
}

/// A high-throughput online reconfiguration engine for one platform.
///
/// The engine owns everything the admission hot path needs to be O(Δ)
/// per request: the [`Allocator`] heuristic, a persistent lazy
/// [`RouteCache`] (each NI pair's candidate routes are enumerated at
/// most once over the engine's lifetime, and memory tracks the pairs
/// actually routed) and an [`AllocScratch`] whose buffers — including
/// recycled grants from earlier teardowns — make the steady-state
/// open/close loop allocation-free.
///
/// Every request is one [`AdmissionRequest`] serviced by
/// [`submit`](Self::submit), and [`submit_batch`](Self::submit_batch)
/// applies a burst of independent requests as one admission round in a
/// canonical order. These, [`apply`](Self::apply) and
/// [`apply_event`](Self::apply_event) are the only ways in, so every
/// check they make covers every request and every fault.
///
/// All specs passed to an engine must describe the same platform
/// (topology and NoC config) it was created for; restricted use-case
/// views of one system ([`SystemSpec::restricted_to`]) are the intended
/// usage. The engine never moves an existing grant: every operation
/// touches only the slots of the connections named in the request — the
/// paper's undisturbed-reconfiguration model, structurally enforced.
///
/// The same engine services failures: [`apply`](Self::apply) takes any
/// [`ScenarioOp`], and the fault mask ([`mask`](Self::mask)), glitch
/// clock and displaced-connection ledger are engine state (recovery
/// ladder: [`fault`](crate::fault)). Whichever entry point a churn
/// request takes, the ledger stays exact.
#[derive(Debug)]
pub struct ChurnEngine {
    allocator: Allocator,
    /// Candidate routes, filtered through the admission mask — of which
    /// the cache holds the only copy.
    pub(crate) routes: RouteCache,
    scratch: AllocScratch,
    /// Reusable admission-order buffer for use-case switches.
    order: Vec<ConnId>,
    /// Reusable rollback journal for use-case switches.
    opened: Vec<ConnId>,
    /// Reusable canonical-order buffer for batched rounds.
    batch_order: Vec<usize>,
    pub(crate) stats: ChurnStats,
    /// Glitch clock, enforced mask and displaced ledger, private to the
    /// [`fault`](crate::fault) half.
    pub(crate) faults: FaultState,
}

/// How [`ChurnEngine::reroute`] moved a connection onto a fault-free
/// path — the rung of the recovery ladder that succeeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RerouteOutcome {
    /// The replacement was admitted while the old grant's reservations
    /// were still in place: the connection's capacity was handed over as
    /// one delta, never released to third parties in between.
    MakeBeforeBreak,
    /// The old reservations had to be freed before the replacement fit
    /// (the new path reuses slots the old one held).
    BreakThenMake,
}

impl ChurnEngine {
    /// An engine for `spec`'s platform with the default [`Allocator`].
    #[must_use]
    pub fn new(spec: &SystemSpec) -> Self {
        ChurnEngine::with_allocator(spec, Allocator::new())
    }

    /// An engine for `spec`'s platform with a custom admission heuristic.
    #[must_use]
    pub fn with_allocator(spec: &SystemSpec, allocator: Allocator) -> Self {
        ChurnEngine {
            allocator,
            routes: RouteCache::new(spec.topology(), allocator.max_paths),
            scratch: AllocScratch::new(),
            order: Vec::new(),
            opened: Vec::new(),
            batch_order: Vec::new(),
            stats: ChurnStats::default(),
            faults: FaultState::default(),
        }
    }

    /// Work and fault-event counters since the engine was created.
    #[must_use]
    pub fn stats(&self) -> &ChurnStats {
        &self.stats
    }

    /// The admission mask: **every** down link, permanent and glitched
    /// alike — exactly what admission filters against.
    #[must_use]
    pub fn mask(&self) -> &FaultMask {
        self.routes.faults()
    }

    /// Installs `faults` as the admission mask (route lookups filter by
    /// it, so cached routes stay resident; see
    /// [`RouteProvider::set_faults`]). It limits *future* admissions
    /// only: nothing is displaced, no event is counted, and the rest of
    /// the fault state is left as it is — for an engine admitting under
    /// a fixed mask, such as a [`ShardedEngine`](crate::ShardedEngine)
    /// or the serial reference it is pinned against.
    pub fn set_faults(&mut self, faults: &FaultMask) {
        self.routes.set_faults(faults);
    }

    /// Edits the admission mask through [`set_faults`](Self::set_faults),
    /// the one place it is written; returns what `edit` returned.
    pub(crate) fn write_mask(&mut self, edit: impl FnOnce(&mut FaultMask) -> bool) -> bool {
        let mut mask = self.mask().clone();
        let changed = edit(&mut mask);
        self.set_faults(&mask);
        changed
    }

    /// Re-routes one live connection onto a path admissible under the
    /// current fault mask, preferring **make-before-break**: the old
    /// grant is detached but its slot reservations stay in place while
    /// the replacement is admitted, so the new path never collides with
    /// the old one and the connection's capacity is handed over as one
    /// delta. If that fails (the old reservations may be exactly the
    /// capacity the replacement needs), falls back to break-then-make:
    /// release the old slots first, then retry. A refusal for want of a
    /// healthy route ([`RefusalCause::LinkDown`], [`RefusalCause::NoRoute`])
    /// is not retried: the fault mask and the topology decide it, and
    /// freeing slots changes neither.
    ///
    /// On refusal of both attempts the connection is left **closed** —
    /// its old grant is *not* restored, because the caller re-routes
    /// precisely when the old path is no longer usable (it traverses a
    /// down link); re-installing it would hand out dead capacity. The
    /// old slots are free again and the grant's buffers recycled.
    ///
    /// Bystander grants are never touched, whatever the outcome.
    ///
    /// # Errors
    ///
    /// [`RefusalCause::UnknownConn`] if `conn` holds no grant (no counter
    /// moves); otherwise the refusal of the final attempt.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`submit`](Self::submit).
    pub fn reroute(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        conn: ConnId,
    ) -> Result<RerouteOutcome, AdmissionError> {
        let Some(old) = alloc.detach_grant(conn) else {
            // No close was requested: nothing to book.
            return Err(self.refusal(conn, RefusalCause::UnknownConn, 0));
        };
        let round = self.allocator.begin_round(spec, alloc, &self.routes);
        let made = self.admit(&round, spec, alloc, conn);
        // Either the replacement is committed and the old reservations
        // can go, or they may be exactly the capacity it needs and must
        // go before the retry.
        alloc.release_reservations_of(&old);
        self.scratch.recycle(old);
        self.stats.teardowns += 1;
        let outcome = match made {
            Ok(()) => RerouteOutcome::MakeBeforeBreak,
            // Whether a healthy route exists depends on the fault mask and
            // the topology only: freeing the old slots cannot change it,
            // so this refusal is the retry's, booked as the retry would.
            Err(cause @ (RefusalCause::LinkDown { .. } | RefusalCause::NoRoute)) => {
                self.stats.refused_opens += 1;
                return Err(self.refusal(conn, cause, 0));
            }
            Err(_) => match self.admit(&round, spec, alloc, conn) {
                Ok(()) => RerouteOutcome::BreakThenMake,
                Err(cause) => {
                    self.stats.refused_opens += 1;
                    return Err(self.refusal(conn, cause, 0));
                }
            },
        };
        self.stats.setups += 1;
        Ok(outcome)
    }

    /// Services one admission request: the unified entry point every
    /// other operation delegates to.
    ///
    /// Requests are total — an open of an already-open connection, a
    /// close of a closed one, or an open of a connection `spec` does not
    /// contain is a structured refusal ([`RefusalCause::AlreadyOpen`] /
    /// [`RefusalCause::UnknownConn`]), never a panic — and a refusal
    /// leaves the allocation exactly as it was (a switch refused past
    /// its close set leaves that set closed; see [`AdmissionError`]).
    /// Grants of connections outside the request are never touched,
    /// whatever the outcome.
    ///
    /// # Errors
    ///
    /// Returns the [`AdmissionError`] naming the connection the request
    /// was refused on, its cause, and any rollback performed.
    ///
    /// # Panics
    ///
    /// Panics only on platform mismatch: `spec`/`alloc` built for a
    /// different table size, per-hop shift or `max_paths` bound than the
    /// engine.
    pub fn submit(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        request: AdmissionRequest,
    ) -> Result<AdmissionResponse, AdmissionError> {
        let round = self.allocator.begin_round(spec, alloc, &self.routes);
        self.submit_in_round(&round, spec, alloc, &request)
    }

    /// Applies one scenario operation (see [`aelite_spec::fault`]),
    /// churn or fault, returning whether it was applied in full. A churn
    /// op is serviced as by [`submit`](Self::submit): `false` for a
    /// refused open or switch, `true` for a close of a closed connection
    /// (the requested state holds). A fault op runs the recovery ladder
    /// (see [`fault`](crate::fault)) and returns `true`, or `false`,
    /// changing nothing, if it names a link or router outside `spec`'s
    /// topology. What an event did is the
    /// [`delta`](ChurnStats::delta) of [`stats`](Self::stats) across it.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`submit`](Self::submit).
    pub fn apply(&mut self, spec: &SystemSpec, alloc: &mut Allocation, op: &ScenarioOp) -> bool {
        match op {
            ScenarioOp::Churn(request) => {
                let round = self.allocator.begin_round(spec, alloc, &self.routes);
                let verdict = self.submit_in_round(&round, spec, alloc, request);
                verdict.is_ok() || matches!(request, AdmissionRequest::Close(_))
            }
            ScenarioOp::Fault(fault) => self.apply_fault(spec, alloc, fault),
        }
    }

    /// Services a burst of **independent** requests (no connection named
    /// by two of them) as one admission round, writing one verdict per
    /// request into `verdicts` (cleared first, arrival order).
    ///
    /// The burst is applied in the canonical order of
    /// [`canonical_order`]: teardowns first, then switches, then single
    /// opens hardest-first — byte-identical end state and verdicts to
    /// serially [`submit`](Self::submit)ting the requests in that order
    /// (property-tested in `tests/proptest_serve.rs`). What a burst buys
    /// is that order — capacity is freed before it is asked for and the
    /// hardest connection picks first, whatever order the requests
    /// arrived in — not time: round setup is O(1), so on one thread a
    /// burst costs the canonical sort on top of its serial submits.
    /// Per-request rollback is unchanged: one refused request never
    /// poisons its batch.
    ///
    /// Requests whose connections overlap are still serviced safely (the
    /// round is just a sequence of total requests), but the canonical
    /// reorder then decides which of the conflicting requests sees the
    /// connection first — only independent bursts are order-insensitive.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`submit`](Self::submit).
    pub fn submit_batch(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        requests: &[AdmissionRequest],
        verdicts: &mut Vec<Result<AdmissionResponse, AdmissionError>>,
    ) {
        verdicts.clear();
        verdicts.resize(requests.len(), placeholder());
        self.apply_round(spec, alloc, requests, 0..requests.len(), |i, v| {
            verdicts[i] = v;
        });
    }

    /// The one batched-round body: applies the requests at `indices`
    /// (arrival indices into `requests`) in canonical order inside one
    /// admission round, handing each `(arrival_index, verdict)` to `sink`
    /// in application order. [`submit_batch`](Self::submit_batch) runs it
    /// over a whole burst; [`ShardedEngine`](crate::shard::ShardedEngine)
    /// runs it once per shard bucket of each burst, in shard order.
    pub(crate) fn apply_round(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        requests: &[AdmissionRequest],
        indices: impl Iterator<Item = usize> + Clone,
        mut sink: impl FnMut(usize, Verdict),
    ) {
        let mut order = core::mem::take(&mut self.batch_order);
        canonical_order_of(spec, requests, indices, &mut order);
        let round = self.allocator.begin_round(spec, alloc, &self.routes);
        for &i in &order {
            sink(i, self.submit_in_round(&round, spec, alloc, &requests[i]));
        }
        self.batch_order = order;
    }

    /// One request inside an already-validated round.
    fn submit_in_round(
        &mut self,
        round: &AdmissionRound,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        request: &AdmissionRequest,
    ) -> Verdict {
        match request {
            AdmissionRequest::Open(c) => self
                .open_in_round(round, spec, alloc, *c)
                .map(|()| AdmissionResponse::Opened(*c)),
            AdmissionRequest::Close(c) => self.close_one(alloc, *c),
            AdmissionRequest::Switch { close, open } => {
                self.switch_in_round(round, spec, alloc, close, open)
            }
        }
    }

    /// The error of a refused request, booking what every kind of
    /// refusal shares: the link-down tally and the rollback count. The
    /// per-kind counter is the caller's.
    fn refusal(&mut self, conn: ConnId, cause: RefusalCause, rolled_back: u32) -> AdmissionError {
        if matches!(cause, RefusalCause::LinkDown { .. }) {
            self.stats.refused_link_down += 1;
        }
        self.stats.rolled_back_opens += u64::from(rolled_back);
        AdmissionError {
            conn,
            cause,
            rolled_back,
        }
    }

    /// The admission behind every setup: refuses a connection that
    /// already holds a grant or that `spec` does not contain, else
    /// routes it and reserves its slots.
    fn admit(
        &mut self,
        round: &AdmissionRound,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        conn: ConnId,
    ) -> Result<(), RefusalCause> {
        if alloc.grant(conn).is_some() {
            return Err(RefusalCause::AlreadyOpen);
        }
        if spec.find_connection(conn).is_none() {
            return Err(RefusalCause::UnknownConn);
        }
        self.allocator
            .admit_in_round(
                round,
                spec,
                alloc,
                conn,
                &mut self.routes,
                &mut self.scratch,
            )
            .map_err(RefusalCause::from)
    }

    /// Sets up `conn`, leaving every existing grant untouched. O(Δ):
    /// bitset kernels over the candidate paths' slot words, no
    /// allocation in steady state.
    fn open_in_round(
        &mut self,
        round: &AdmissionRound,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        conn: ConnId,
    ) -> Result<(), AdmissionError> {
        match self.admit(round, spec, alloc, conn) {
            Ok(()) => {
                self.faults.settle(alloc, &[conn]);
                self.stats.setups += 1;
                Ok(())
            }
            Err(cause) => {
                self.stats.refused_opens += 1;
                Err(self.refusal(conn, cause, 0))
            }
        }
    }

    /// Tears down `conn`, freeing exactly its own `slots × links` table
    /// entries (word-level free-mask deltas, no table rescans) and
    /// recycling the grant's buffers for a later setup.
    fn close_one(&mut self, alloc: &mut Allocation, conn: ConnId) -> Verdict {
        // A close settles `conn` whether or not it held a grant.
        self.faults.settle(alloc, &[conn]);
        match alloc.take_grant(conn) {
            Some(grant) => {
                self.scratch.recycle(grant);
                self.stats.teardowns += 1;
                Ok(AdmissionResponse::Closed(conn))
            }
            None => {
                self.stats.refused_closes += 1;
                Err(self.refusal(conn, RefusalCause::UnknownConn, 0))
            }
        }
    }

    /// Applies a use-case switch as one delta: tears down `close_set`,
    /// then admits `open_set` hardest-first. On a refusal the opens this
    /// switch made are closed again and the close set stays closed.
    fn switch_in_round(
        &mut self,
        round: &AdmissionRound,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        close_set: &[ConnId],
        open_set: &[ConnId],
    ) -> Verdict {
        let verdict = 'deltas: {
            // A switch naming a connection `spec` does not contain is
            // malformed, not unlucky: refuse it whole, close set untouched.
            if let Some(&conn) = open_set
                .iter()
                .find(|&&c| spec.find_connection(c).is_none())
            {
                self.stats.refused_switches += 1;
                break 'deltas Err(self.refusal(conn, RefusalCause::UnknownConn, 0));
            }
            let mut closed = 0u64;
            for &c in close_set {
                if let Some(grant) = alloc.take_grant(c) {
                    self.scratch.recycle(grant);
                    closed += 1;
                }
            }

            // Hardest-first admission, matching the batch allocator's order,
            // in a buffer reused across switches.
            self.order.clear();
            self.order.extend_from_slice(open_set);
            aelite_alloc::admission_order(spec, &mut self.order);
            self.opened.clear();
            for i in 0..self.order.len() {
                let conn = self.order[i];
                if let Err(cause) = self.admit(round, spec, alloc, conn) {
                    let rolled_back = self.opened.len() as u32;
                    for j in 0..self.opened.len() {
                        let c = self.opened[j];
                        let grant = alloc.take_grant(c).expect("opened this switch");
                        self.scratch.recycle(grant);
                    }
                    self.stats.teardowns += closed;
                    self.stats.refused_switches += 1;
                    break 'deltas Err(self.refusal(conn, cause, rolled_back));
                }
                self.opened.push(conn);
            }
            self.stats.teardowns += closed;
            self.stats.setups += self.opened.len() as u64;
            self.stats.switches += 1;
            Ok(AdmissionResponse::Switched {
                closed: closed as u32,
                opened: self.opened.len() as u32,
            })
        };
        self.faults.settle(alloc, close_set);
        if verdict.is_ok() {
            self.faults.settle(alloc, &self.opened);
        }
        verdict
    }
}

/// Writes into `out` (cleared first) the canonical application order of
/// a request burst, as arrival indices into `requests`: closes first (in
/// arrival order — teardowns only free capacity), then switches (arrival
/// order — each is its own close-then-open delta), then single opens in
/// the allocator's hardest-first admission order (most estimated slots,
/// tightest deadline, then connection id, then arrival index; opens of
/// connections `spec` does not contain go last — they are refused
/// whenever they run).
///
/// [`ChurnEngine::submit_batch`] applies bursts in exactly this order;
/// serially submitting the requests in this order reproduces the batch
/// bit-for-bit, which is what makes batched results pinnable against a
/// canonical serial application.
pub fn canonical_order(spec: &SystemSpec, requests: &[AdmissionRequest], out: &mut Vec<usize>) {
    canonical_order_of(spec, requests, 0..requests.len(), out);
}

/// [`canonical_order`] over the subset `indices` of arrival indices (a
/// whole burst, or one shard's bucket of it): writes into `out` (cleared
/// first) a permutation of `indices` in canonical application order.
pub(crate) fn canonical_order_of(
    spec: &SystemSpec,
    requests: &[AdmissionRequest],
    indices: impl Iterator<Item = usize> + Clone,
    out: &mut Vec<usize>,
) {
    out.clear();
    let closes = |&i: &usize| matches!(requests[i], AdmissionRequest::Close(_));
    let switches = |&i: &usize| matches!(requests[i], AdmissionRequest::Switch { .. });
    let opens = |&i: &usize| matches!(requests[i], AdmissionRequest::Open(_));
    out.extend(indices.clone().filter(closes));
    out.extend(indices.clone().filter(switches));
    let opens_at = out.len();
    out.extend(indices.filter(opens));
    let key = |i: usize| {
        let AdmissionRequest::Open(c) = requests[i] else {
            unreachable!("opens segment holds only opens")
        };
        match spec.find_connection(c) {
            Some(known) => (
                core::cmp::Reverse(aelite_alloc::estimate_slots(spec, c)),
                known.max_latency_ns,
                c,
                i,
            ),
            None => (core::cmp::Reverse(0), u64::MAX, c, i),
        }
    };
    // Always cache the keys: `estimate_slots` walks the connection's
    // traffic contract, so one evaluation per element beats recomputing
    // it on every comparison, even for the handful of opens a small
    // bucket holds (per-comparison recomputation was measured at ~2x the
    // bucket's whole admission cost).
    out[opens_at..].sort_by_cached_key(|&i| key(i));
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::{allocate, validate_allocation, Grant};
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::churn::{churn_trace, ChurnParams};
    use aelite_spec::generate::paper_workload;
    use aelite_spec::ids::{AppId, NiId};
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::Bandwidth;
    use aelite_spec::NocConfig;
    use AdmissionRequest::{Close, Open};

    /// A switch request over two id slices.
    fn switch(close: &[ConnId], open: &[ConnId]) -> AdmissionRequest {
        AdmissionRequest::Switch {
            close: close.to_vec(),
            open: open.to_vec(),
        }
    }

    #[test]
    fn open_close_roundtrip_keeps_allocation_valid() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        for c in spec.connections().iter().take(20) {
            assert!(engine.submit(&spec, &mut alloc, Close(c.id)).is_ok());
            engine
                .submit(&spec, &mut alloc, Open(c.id))
                .expect("re-admits");
        }
        assert_eq!(engine.stats().ops(), 40);
        assert_eq!(engine.stats().refusals(), 0);
        validate_allocation(&spec, &alloc).expect("valid after churn");
    }

    #[test]
    fn submit_answers_every_request_kind() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let c = spec.connections()[3].id;
        assert_eq!(
            engine.submit(&spec, &mut alloc, AdmissionRequest::Close(c)),
            Ok(AdmissionResponse::Closed(c))
        );
        assert_eq!(
            engine.submit(&spec, &mut alloc, AdmissionRequest::Open(c)),
            Ok(AdmissionResponse::Opened(c))
        );
        let close: Vec<_> = spec.app_connections(AppId::new(0)).map(|c| c.id).collect();
        let resp = engine
            .submit(
                &spec,
                &mut alloc,
                AdmissionRequest::Switch {
                    close: close.clone(),
                    open: Vec::new(),
                },
            )
            .expect("pure-teardown switch succeeds");
        assert_eq!(
            resp,
            AdmissionResponse::Switched {
                closed: close.len() as u32,
                opened: 0
            }
        );
        assert_eq!(engine.stats().switches, 1);
    }

    #[test]
    fn mismatched_requests_are_refused_not_panics() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let c = spec.connections()[5].id;

        // Open of an open connection.
        let err = engine
            .submit(&spec, &mut alloc, AdmissionRequest::Open(c))
            .expect_err("already open");
        assert_eq!(err.cause, RefusalCause::AlreadyOpen);
        assert_eq!(err.conn, c);
        assert_eq!(err.rolled_back, 0);
        assert!(err.to_string().contains("already holds a grant"));

        // Close of a closed connection.
        assert!(engine.submit(&spec, &mut alloc, Close(c)).is_ok());
        let err = engine
            .submit(&spec, &mut alloc, AdmissionRequest::Close(c))
            .expect_err("already closed");
        assert_eq!(err.cause, RefusalCause::UnknownConn);
        assert_eq!(engine.stats().refused_opens, 1);
        assert_eq!(engine.stats().refused_closes, 1);
        // The allocation is untouched by refusals.
        validate_allocation(
            &spec.restricted_to_connections(
                &spec
                    .connections()
                    .iter()
                    .map(|c| c.id)
                    .filter(|&id| alloc.grant(id).is_some())
                    .collect::<Vec<_>>(),
            ),
            &alloc,
        )
        .expect("valid after refusals");

        // A connection the spec does not contain — past its id bound, or
        // inside it but left out of a restricted view — is refused in
        // the single, switch and batched forms alike, and nothing moves:
        // not even the switch's close set.
        let beyond = ConnId::new(spec.conn_id_bound() as u32 + 7);
        let ids: Vec<ConnId> = spec.connections().iter().map(|x| x.id).collect();
        let without_c: Vec<ConnId> = ids.iter().copied().filter(|&id| id != c).collect();
        let view = spec.restricted_to_connections(&without_c);
        assert!(c.index() < view.conn_id_bound());
        let held = ids[6];
        let snapshot = alloc.clone();
        for (view, unknown) in [(&spec, beyond), (&view, c)] {
            let refused = Err(AdmissionError {
                conn: unknown,
                cause: RefusalCause::UnknownConn,
                rolled_back: 0,
            });
            let before = *engine.stats();
            let open = AdmissionRequest::Open(unknown);
            let switch = AdmissionRequest::Switch {
                close: vec![held],
                open: vec![ids[7], unknown],
            };
            assert_eq!(engine.submit(view, &mut alloc, open.clone()), refused);
            assert_eq!(engine.submit(view, &mut alloc, switch.clone()), refused);
            let mut verdicts = Vec::new();
            engine.submit_batch(view, &mut alloc, &[open, switch], &mut verdicts);
            assert_eq!(verdicts, [refused, refused]);
            let counted = ChurnStats {
                refused_opens: 2,
                refused_switches: 2,
                ..ChurnStats::default()
            };
            assert_eq!(engine.stats().delta(&before), counted);
            for &id in &ids {
                assert_eq!(alloc.grant(id), snapshot.grant(id), "{id} moved");
            }
            for l in spec.topology().links() {
                let (now, then) = (alloc.link_table(l), snapshot.link_table(l));
                assert!((0..now.size()).all(|s| now.owner(s) == then.owner(s)));
            }
        }
    }

    #[test]
    fn every_id_of_a_restricted_view_is_judged_by_id_not_position() {
        // Every third connection dropped: past the first gap, position
        // `id.index()` of the view holds some other connection. Each id
        // up to two past the bound is admitted or refused on capacity if
        // the view contains it, and refused as unknown if not.
        let spec = paper_workload(1);
        let kept: Vec<ConnId> = spec
            .connections()
            .iter()
            .map(|c| c.id)
            .filter(|id| id.index() % 3 != 2)
            .collect();
        let view = spec.restricted_to_connections(&kept);
        let mut engine = ChurnEngine::new(&view);
        let mut alloc = Allocation::empty_for(&view);
        for i in 0..view.conn_id_bound() as u32 + 2 {
            let id = ConnId::new(i);
            let verdict = engine.submit(&view, &mut alloc, AdmissionRequest::Open(id));
            let unknown = matches!(
                verdict,
                Err(AdmissionError {
                    cause: RefusalCause::UnknownConn,
                    ..
                })
            );
            assert_eq!(unknown, !kept.contains(&id), "{id}: {verdict:?}");
            if unknown {
                assert!(alloc.grant(id).is_none());
            }
        }
        assert!(engine.stats().setups > 0);
    }

    #[test]
    fn close_of_unknown_connection_is_a_noop() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let c = spec.connections()[5].id;
        assert!(engine.submit(&spec, &mut alloc, Close(c)).is_ok());
        assert!(
            engine.submit(&spec, &mut alloc, Close(c)).is_err(),
            "second close is a no-op"
        );
        assert_eq!(engine.stats().teardowns, 1);
        assert_eq!(engine.stats().refused_closes, 1);
    }

    #[test]
    fn reroute_of_an_ungranted_connection_is_refused_and_books_nothing() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let c = spec.connections()[5].id;
        assert!(engine.submit(&spec, &mut alloc, Close(c)).is_ok());
        let (before, snapshot) = (*engine.stats(), alloc.clone());

        let err = engine
            .reroute(&spec, &mut alloc, c)
            .expect_err("nothing to re-route");
        assert_eq!((err.conn, err.cause), (c, RefusalCause::UnknownConn));
        // No close was requested, so no close was refused.
        assert_eq!(engine.stats().delta(&before), ChurnStats::default());
        assert!(alloc.grants().eq(snapshot.grants()));
        for l in spec.topology().links() {
            assert_eq!(alloc.link_table(l), snapshot.link_table(l), "table of {l}");
        }
    }

    #[test]
    fn switch_moves_one_app_and_disturbs_nobody() {
        let spec = paper_workload(42);
        // Start inside use case {0, 1, 2}.
        let uc1 = spec.restricted_to(&[AppId::new(0), AppId::new(1), AppId::new(2)]);
        let mut alloc = allocate(&uc1).unwrap();
        let mut engine = ChurnEngine::new(&spec);

        let keep: Vec<Grant> = spec
            .connections()
            .iter()
            .filter(|c| c.app == AppId::new(0) || c.app == AppId::new(1))
            .map(|c| alloc.grant(c.id).unwrap().clone())
            .collect();
        let close: Vec<_> = spec.app_connections(AppId::new(2)).map(|c| c.id).collect();
        let open: Vec<_> = spec.app_connections(AppId::new(3)).map(|c| c.id).collect();

        let resp = engine
            .submit(&spec, &mut alloc, switch(&close, &open))
            .expect("the paper workload's use cases co-exist");
        assert_eq!(
            resp,
            AdmissionResponse::Switched {
                closed: close.len() as u32,
                opened: open.len() as u32
            }
        );

        for g in keep {
            assert_eq!(alloc.grant(g.conn).unwrap(), &g, "{} moved", g.conn);
        }
        for c in &close {
            assert!(alloc.grant(*c).is_none());
        }
        for c in &open {
            assert!(alloc.grant(*c).is_some());
        }
        let uc2 = spec.restricted_to(&[AppId::new(0), AppId::new(1), AppId::new(3)]);
        validate_allocation(&uc2, &alloc).expect("valid after switch");
        assert_eq!(engine.stats().switches, 1);
    }

    /// A 2-router platform (one ~1.33 GB/s link each way) with the given
    /// NI0 → NI1 flows in one application; returns the ids in order.
    fn one_link_spec(mbytes_per_sec: &[u64]) -> (SystemSpec, Vec<ConnId>) {
        let mut b = SystemSpecBuilder::new(Topology::mesh(2, 1, 1), NocConfig::paper_default());
        let app = b.add_app("app");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        let ids = mbytes_per_sec
            .iter()
            .map(|&mb| b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(mb), 10_000))
            .collect();
        (b.build(), ids)
    }

    #[test]
    fn failed_switch_rolls_back_its_opens() {
        // One heavy connection fills the link beside the resident, so a
        // switch opening two must fail and roll back.
        let (spec, ids) = one_link_spec(&[400, 800, 800]);
        let (resident, h1, h2) = (ids[0], ids[1], ids[2]);
        let uc1 = spec.restricted_to_connections(&[resident]);
        let mut alloc = allocate(&uc1).unwrap();
        let before = alloc.grant(resident).unwrap().clone();
        let mut engine = ChurnEngine::new(&spec);

        let err = engine
            .submit(&spec, &mut alloc, switch(&[], &[h1, h2]))
            .expect_err("two 800 MB/s flows cannot share one link with a resident");
        assert_eq!(err.rolled_back, 1, "first admission succeeded, then undone");
        assert!(
            matches!(err.cause, RefusalCause::NoSlots { needed, free } if needed > free),
            "expected a structured slot shortage, got {:?}",
            err.cause
        );
        assert!(alloc.grant(h1).is_none() && alloc.grant(h2).is_none());
        assert_eq!(alloc.grant(resident).unwrap(), &before, "resident moved");
        assert_eq!(engine.stats().refused_switches, 1);
        assert_eq!(engine.stats().rolled_back_opens, 1);
        assert!(err.to_string().contains("rolled back"), "{err}");
        validate_allocation(&uc1, &alloc).expect("rollback left a valid state");
    }

    #[test]
    fn close_frees_exactly_the_grants_slots_and_is_idempotent() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let before = alloc.clone();
        let mut engine = ChurnEngine::new(&spec);
        let conn = spec.connections()[0].id;
        assert!(engine.submit(&spec, &mut alloc, Close(conn)).is_ok());
        assert!(alloc.grant(conn).is_none());
        // Every table entry the grant held is free, every other entry
        // still has the owner it had.
        for l in spec.topology().links() {
            let (now, then) = (alloc.link_table(l), before.link_table(l));
            for slot in 0..now.size() {
                let expected = then.owner(slot).filter(|&o| o != conn);
                assert_eq!(now.owner(slot), expected, "slot {slot} of {l}");
            }
        }
        assert!(
            engine.submit(&spec, &mut alloc, Close(conn)).is_err(),
            "second close is a no-op"
        );
        assert!(alloc
            .grants()
            .eq(before.grants().filter(|g| g.conn != conn)));
    }

    #[test]
    fn open_into_a_grown_spec_admits_an_id_past_the_old_bound() {
        // The allocation was sized for a one-connection spec; a late
        // arrival makes the spec grow, and its id lies past the grant
        // storage the allocation was built with.
        let (spec2, ids) = one_link_spec(&[100, 80]);
        let base = spec2.restricted_to_connections(&ids[..1]);
        assert!(ids[1].index() >= base.conn_id_bound());
        let mut alloc = allocate(&base).unwrap();
        let before = alloc.grant(ids[0]).unwrap().clone();

        let mut engine = ChurnEngine::new(&base);
        engine
            .submit(&spec2, &mut alloc, Open(ids[1]))
            .expect("capacity available");
        assert_eq!(alloc.grant(ids[0]), Some(&before), "existing grant moved");
        assert!(alloc.grant(ids[1]).is_some());
        validate_allocation(&spec2, &alloc).expect("extended allocation validates");
    }

    #[test]
    fn open_that_cannot_fit_is_a_structured_slot_shortage() {
        // 1.2 GB/s fills the link almost completely, so 400 MB/s more
        // cannot fit afterwards.
        let (spec, ids) = one_link_spec(&[1_200, 400]);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        engine
            .submit(&spec, &mut alloc, Open(ids[0]))
            .expect("fits alone");
        let before = alloc.clone();

        let err = engine
            .submit(&spec, &mut alloc, Open(ids[1]))
            .expect_err("the link is full");
        assert_eq!((err.conn, err.rolled_back), (ids[1], 0));
        assert!(
            matches!(err.cause, RefusalCause::NoSlots { needed, free } if needed > free),
            "expected a structured slot shortage, got {:?}",
            err.cause
        );
        assert!(
            alloc.grants().eq(before.grants()),
            "a refusal moved a grant"
        );
        for l in spec.topology().links() {
            assert_eq!(alloc.link_table(l), before.link_table(l), "table of {l}");
        }
        assert_eq!(engine.stats().refused_opens, 1);
    }

    #[test]
    fn switch_opening_a_granted_connection_is_refused_already_open() {
        // Opening a connection that holds a grant is a refusal, not a
        // panic, inside a switch too — and the rollback must take back
        // only what this switch opened, never the grant already held.
        let (spec, ids) = one_link_spec(&[100, 100, 100]);
        let (held, leaving, fresh) = (ids[0], ids[1], ids[2]);
        let mut alloc = allocate(&spec.restricted_to_connections(&[held, leaving])).unwrap();
        let held_grant = alloc.grant(held).unwrap().clone();
        let mut engine = ChurnEngine::new(&spec);

        // Equal contracts tie on everything but the id, so admission
        // order is id order: `held` is refused before `fresh` is tried.
        let err = engine
            .submit(&spec, &mut alloc, switch(&[leaving], &[fresh, held]))
            .expect_err("held is already open");
        assert_eq!((err.conn, err.cause), (held, RefusalCause::AlreadyOpen));
        assert_eq!(alloc.grant(held), Some(&held_grant), "held grant touched");
        assert!(alloc.grant(fresh).is_none(), "the switch was refused whole");
        assert!(alloc.grant(leaving).is_none(), "the close set stays closed");

        // Named twice in one open set, the second open finds the first:
        // the rollback undoes exactly that one admission.
        let err = engine
            .submit(&spec, &mut alloc, switch(&[held], &[fresh, held, held]))
            .expect_err("the second open of held finds the first");
        assert_eq!((err.cause, err.rolled_back), (RefusalCause::AlreadyOpen, 1));
        assert_eq!(alloc.grants().count(), 0, "closed, re-opened, rolled back");
        assert_eq!(engine.stats().refused_switches, 2);
    }

    #[test]
    fn trace_replay_from_empty_is_mostly_admitted() {
        let spec = paper_workload(42);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        let trace = churn_trace(
            &spec,
            &ChurnParams {
                events: 2_000,
                switch_weight: 0.005,
                ..ChurnParams::steady(2_000)
            },
            9,
        );
        let mut applied = 0u64;
        for e in &trace.events {
            if engine.apply(&spec, &mut alloc, &ScenarioOp::Churn(e.op.clone())) {
                applied += 1;
            }
        }
        // The generator's feasibility-aware draw keeps the pool jointly
        // allocatable, so churning a fraction of it stays admissible.
        assert!(
            applied as f64 >= 0.98 * trace.len() as f64,
            "only {applied}/{} applied",
            trace.len()
        );
        // The end state validates as an allocation of the surviving set.
        let surviving: Vec<_> = alloc.grants().map(|g| g.conn).collect();
        assert!(!surviving.is_empty());
        let view = spec.restricted_to_connections(&surviving);
        validate_allocation(&view, &alloc).expect("valid after trace replay");
        assert!(engine.stats().ops() > 0);
        // The generator's model assumes every open is admitted, so the
        // only refused closes are echoes of refused opens.
        assert!(engine.stats().refused_closes <= engine.stats().refused_opens);
    }

    #[test]
    fn canonical_order_is_closes_switches_then_hardest_opens() {
        let spec = paper_workload(42);
        let ids: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
        let requests = vec![
            AdmissionRequest::Open(ids[0]),
            AdmissionRequest::Close(ids[1]),
            AdmissionRequest::Switch {
                close: vec![ids[2]],
                open: vec![ids[3]],
            },
            AdmissionRequest::Open(ids[4]),
            AdmissionRequest::Close(ids[5]),
        ];
        let mut order = Vec::new();
        canonical_order(&spec, &requests, &mut order);
        // A permutation: closes (1, 4), the switch (2), then the opens.
        assert_eq!(order.len(), requests.len());
        assert_eq!(&order[..3], &[1, 4, 2]);
        let mut opens = order[3..].to_vec();
        opens.sort_unstable();
        assert_eq!(opens, vec![0, 3]);
        // Hardest first among the opens, ties broken by id then arrival.
        let key = |i: usize| {
            let AdmissionRequest::Open(c) = requests[i] else {
                unreachable!()
            };
            (
                core::cmp::Reverse(aelite_alloc::estimate_slots(&spec, c)),
                spec.connection(c).max_latency_ns,
                c,
                i,
            )
        };
        assert!(key(order[3]) <= key(order[4]));
    }

    #[test]
    fn batched_burst_matches_serial_canonical_application() {
        let spec = paper_workload(42);
        // Both sides start from the same live allocation.
        let alloc0 = allocate(&spec).unwrap();
        let ids: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
        // An independent burst: closes, re-opens of previously closed
        // connections, one switch, and a mismatched request.
        let mut engine_a = ChurnEngine::new(&spec);
        let mut prep = allocate(&spec).unwrap();
        let warm = |engine: &mut ChurnEngine, alloc: &mut Allocation| {
            for &c in &ids[..10] {
                assert!(engine.submit(&spec, alloc, Close(c)).is_ok());
            }
        };
        warm(&mut engine_a, &mut prep);
        let mut alloc_a = prep.clone();
        let mut alloc_b = prep.clone();
        drop(alloc0);
        let mut engine_b = ChurnEngine::new(&spec);
        warm(&mut engine_b, &mut allocate(&spec).unwrap());

        let requests = vec![
            AdmissionRequest::Open(ids[0]),
            AdmissionRequest::Close(ids[20]),
            AdmissionRequest::Open(ids[1]),
            AdmissionRequest::Open(ids[21]), // already open -> refused
            AdmissionRequest::Close(ids[22]),
            AdmissionRequest::Open(ids[2]),
        ];

        // A: one batched round.
        let mut verdicts_a = Vec::new();
        engine_a.submit_batch(&spec, &mut alloc_a, &requests, &mut verdicts_a);

        // B: serial submits in the canonical order.
        let mut order = Vec::new();
        canonical_order(&spec, &requests, &mut order);
        let mut verdicts_b: Vec<Option<Result<AdmissionResponse, AdmissionError>>> =
            vec![None; requests.len()];
        for &i in &order {
            verdicts_b[i] = Some(engine_b.submit(&spec, &mut alloc_b, requests[i].clone()));
        }

        for (i, v) in verdicts_a.iter().enumerate() {
            assert_eq!(Some(*v), verdicts_b[i], "verdict {i} diverged");
        }
        for &c in &ids {
            assert_eq!(alloc_a.grant(c), alloc_b.grant(c), "{c} diverged");
        }
        assert_eq!(engine_a.stats(), engine_b.stats(), "stats diverged");
        // The refused open really was refused with a matchable cause.
        assert_eq!(verdicts_a[3].unwrap_err().cause, RefusalCause::AlreadyOpen);
    }

    /// Faults filter, they never evict: over a merged churn + fault
    /// replay the route cache only ever grows.
    #[test]
    fn fault_replay_never_shrinks_the_route_cache() {
        let spec = paper_workload(42);
        let scenario = crate::fault::tests::merged_scenario(&spec);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        let mut resident = 0;
        for e in &scenario.events {
            engine.apply_event(&spec, &mut alloc, e);
            let now = engine.routes.resident_pairs();
            assert!(now >= resident, "cache shrank {resident} -> {now} at {e:?}");
            resident = now;
        }
        assert!(resident > 0 && engine.stats().affected > 0);
    }
}
