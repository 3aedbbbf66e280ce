//! Fault injection and undisturbed recovery: link/router failures
//! serviced as churn deltas.
//!
//! The paper's contract is composable, contention-free service — a
//! connection, once admitted, is undisturbed by everything else,
//! *including reconfiguration*. This module extends that contract to
//! failures: a link going down is just another reconfiguration request,
//! serviced by the same O(Δ) admission machinery, and every bystander's
//! cycle-level delivery behaviour is provably unchanged
//! (`tests/fault_undisturbed.rs`).
//!
//! This module is the second `impl` block of [`ChurnEngine`]: on each
//! fault event [`ChurnEngine::apply`] drives the recovery ladder:
//!
//! 1. **mask** — the failed link enters the engine's
//!    [`FaultMask`]; from that point no
//!    admission path (serial, batched round, a sharded burst's per-shard
//!    rounds) can grant a route traversing it — route lookups filter by the
//!    mask, so cached routes stay resident and nothing is re-enumerated;
//! 2. **make-before-break** — each affected grant (hardest first, the
//!    allocator's admission order) is re-admitted on a fault-free path
//!    *while its old reservations are still held*, then the old slots
//!    are released as one delta ([`ChurnEngine::reroute`]);
//! 3. **break-then-make** — if the replacement needs the old slots, they
//!    are released first and the admission retried;
//! 4. **structured refusal** — if no fault-free capacity exists the
//!    connection is dropped with
//!    [`RefusalCause::LinkDown`] (or a
//!    capacity cause) and parked as *displaced*; when a repair event
//!    restores routability ([`FaultOp::LinkUp`] / [`FaultOp::RouterUp`]),
//!    displaced connections are re-homed. A connection parked after a
//!    `LinkDown` refusal keeps its *witnesses*: the first down link of
//!    each of its candidate routes
//!    ([`RouteCache::witness_links`](aelite_alloc::RouteCache::witness_links)).
//!    A repair retries only the connections with no witnesses or with a
//!    witness up again under the current mask. The rest are still
//!    severed — every candidate still crosses a down link — so their
//!    retry would be refused `LinkDown` and change no slot; each is
//!    booked as that refusal without being tried
//!    ([`ChurnStats::rehome_skipped`]). The check reads the mask, not a
//!    log of repairs, so a link that came back without a re-home (a
//!    sub-threshold glitch's expiry, an outside
//!    [`set_faults`](ChurnEngine::set_faults)) is seen at the next one.
//!
//! Every rung is booked once, in the engine's [`ChurnStats`]; what one
//! event did is the [`delta`](ChurnStats::delta) of
//! [`stats`](ChurnEngine::stats) across it. A fault op naming a link or
//! router outside the platform is refused before any of this runs.
//! Bystander grants are never touched on any rung — undisturbed service
//! under failure is structural, not best-effort.
//!
//! # Transient faults
//!
//! Real interconnects mostly see *glitches*: a link misbehaves for
//! microseconds and recovers on its own. Displacing traffic for those
//! would be pure churn, so the engine holds a **persistence threshold**
//! ([`DEFAULT_PERSISTENCE_NS`]): a [`FaultOp::LinkGlitch`] shorter than
//! the threshold only *masks* admission — new opens over the link refuse
//! with [`RefusalCause::LinkDown`], but every
//! standing grant keeps its slots, so a sub-threshold glitch displaces
//! **zero** connections and leaves every slot table bit-for-bit
//! unchanged. A glitch at or past the threshold (or a permanent
//! [`FaultOp::LinkDown`] landing on a glitched link) *escalates*: the
//! recovery ladder runs exactly as for a permanent failure, and when the
//! glitch self-clears the capacity is restored like a repair. Glitch
//! expiry is driven by the engine's clock
//! ([`advance_to`](ChurnEngine::advance_to) /
//! [`apply_event`](ChurnEngine::apply_event)).

use crate::api::{AdmissionRequest, RefusalCause};
use crate::engine::{ChurnEngine, ChurnStats, RerouteOutcome};
use aelite_alloc::{admission_order, Allocation, FaultMask, RouteProvider};
use aelite_spec::fault::{FaultOp, ScenarioEvent};
use aelite_spec::ids::{ConnId, LinkId, RouterId};
use aelite_spec::SystemSpec;

/// The persistence threshold: glitches shorter than 10 µs are masked
/// without displacing any grant.
pub const DEFAULT_PERSISTENCE_NS: u64 = 10_000;

/// One active transient glitch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Glitch {
    expires_ns: u64,
    link: LinkId,
    /// Whether the glitch crossed the persistence threshold and ran the
    /// recovery ladder (its expiry then restores capacity like a
    /// repair).
    escalated: bool,
}

/// The fault half of a [`ChurnEngine`]'s state, its fields private to
/// this module. (The admission mask is the route cache's.)
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Links no standing grant may traverse (recovery ran for them);
    /// a subset of the admission mask.
    enforced: FaultMask,
    now_ns: u64,
    /// Active transient glitches, at most one per link, unordered.
    glitches: Vec<Glitch>,
    /// Connections dropped by failures that the workload still holds
    /// open: candidates for re-homing on the next repair event. None of
    /// them holds a grant.
    displaced: Vec<ConnId>,
    /// Whether each connection, by index, is in `displaced`.
    is_displaced: Vec<bool>,
    /// The witness links of each displaced connection.
    witnesses: Witnesses,
    /// Reusable affected-grant order buffer of the recovery sweep.
    affected: Vec<ConnId>,
}

/// The witness links of the displaced connections: after a `LinkDown`
/// refusal the first down link of each of the connection's candidate
/// routes, sorted; none after any other refusal. Stored back to back in
/// one arena, so a parked connection costs a run and its links, not a
/// vector of its own.
#[derive(Debug, Default)]
struct Witnesses {
    /// Per connection index, `(start, len)` of its run in `links`; valid
    /// while the connection is displaced.
    runs: Vec<(u32, u32)>,
    /// The runs, back to back. A run left behind by a connection that
    /// left the ledger or was recorded again is dead until
    /// [`compact`](Self::compact).
    links: Vec<LinkId>,
    /// Where a new run is written before it is appended, and the arena
    /// the next compaction fills.
    spare: Vec<LinkId>,
}

impl Witnesses {
    fn of(&self, conn: ConnId) -> &[LinkId] {
        let (start, len) = self.runs[conn.index()];
        &self.links[start as usize..][..len as usize]
    }

    /// Makes `spare` the run of `conn`.
    fn keep_spare(&mut self, conn: ConnId) {
        if self.runs.len() <= conn.index() {
            self.runs.resize(conn.index() + 1, (0, 0));
        }
        self.runs[conn.index()] = (self.links.len() as u32, self.spare.len() as u32);
        self.links.extend_from_slice(&self.spare);
    }

    /// Drops every run but those of `live`, which keep their links.
    fn compact(&mut self, live: &[ConnId]) {
        self.spare.clear();
        for &c in live {
            let (start, len) = &mut self.runs[c.index()];
            let run = &self.links[*start as usize..][..*len as usize];
            *start = self.spare.len() as u32;
            self.spare.extend_from_slice(run);
        }
        core::mem::swap(&mut self.links, &mut self.spare);
    }
}

impl ChurnEngine {
    /// The engine's clock: the timestamp of the latest
    /// [`advance_to`](Self::advance_to) (or
    /// [`apply_event`](Self::apply_event)).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.faults.now_ns
    }

    /// The enforced mask: the links whose standing grants were
    /// displaced (permanent faults and escalated glitches). No grant
    /// ever traverses a link in this mask; a grant *may* ride out a
    /// sub-threshold glitch, i.e. a link in [`mask`](Self::mask) only.
    #[must_use]
    pub fn enforced(&self) -> &FaultMask {
        &self.faults.enforced
    }

    /// Connections dropped by failures and not yet re-homed or closed
    /// by the workload, in drop order.
    #[must_use]
    pub fn displaced(&self) -> &[ConnId] {
        &self.faults.displaced
    }
}

impl FaultState {
    /// Keeps the displaced ledger exact after a churn request, whichever
    /// entry point it took: a displaced connection leaves the ledger once
    /// it holds a grant again or the request closes it. A request changes
    /// that only for its own connections, so `touched` is what it opened
    /// or closed: an open's connection once admitted, a close's, a
    /// switch's close set and, once it succeeded, its opened set. With
    /// nothing displaced this is one check; otherwise O(touched) unless
    /// one of them leaves the ledger.
    pub(crate) fn settle(&mut self, alloc: &Allocation, touched: &[ConnId]) {
        if self.displaced.is_empty() {
            return;
        }
        let mut left = false;
        for c in touched {
            if let Some(flag) = self.is_displaced.get_mut(c.index()) {
                left |= core::mem::take(flag);
            }
        }
        if left {
            let is_displaced = &self.is_displaced;
            self.displaced.retain(|c| is_displaced[c.index()]);
        }
        debug_assert!(
            self.displaced.iter().all(|&c| alloc.grant(c).is_none()),
            "a displaced connection holds a grant"
        );
    }

    /// Parks `conn`, just dropped by a failure, in the displaced ledger.
    /// Its witnesses are the caller's to set.
    fn displace(&mut self, conn: ConnId) {
        if self.is_displaced.len() <= conn.index() {
            self.is_displaced.resize(conn.index() + 1, false);
        }
        self.is_displaced[conn.index()] = true;
        self.displaced.push(conn);
    }

    /// Whether re-admitting displaced `conn` is sure to be refused
    /// `LinkDown` under `mask`: it has witnesses, all still down, and
    /// `spec` contains it (else the refusal would be `UnknownConn`).
    fn still_severed(&self, spec: &SystemSpec, conn: ConnId, mask: &FaultMask) -> bool {
        let witnesses = self.witnesses.of(conn);
        !witnesses.is_empty()
            && witnesses.iter().all(|&l| mask.is_down(l))
            && spec.find_connection(conn).is_some()
    }
}

impl ChurnEngine {
    /// The fault side of [`apply`](Self::apply), and the only way a fault
    /// reaches the recovery ladder: `false`, and nothing touched, when
    /// `fault` names a link or router outside `spec`'s topology;
    /// otherwise runs its event handler and returns `true`. A router
    /// event takes every adjacent link together, in **one** sweep.
    pub(crate) fn apply_fault(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        fault: &FaultOp,
    ) -> bool {
        let topo = spec.topology();
        let link = |l: LinkId| l.index() < topo.link_count();
        let router = |r: RouterId| r.index() < topo.router_count();
        let one = core::iter::once;
        match *fault {
            FaultOp::LinkDown(l) if link(l) => {
                self.links_down(spec, alloc, one(l), |s| &mut s.link_downs);
            }
            FaultOp::LinkUp(l) if link(l) => {
                self.links_up(spec, alloc, one(l), |s| &mut s.link_ups);
            }
            FaultOp::RouterDown(r) if router(r) => {
                let links = topo.router_links(r);
                self.links_down(spec, alloc, links, |s| &mut s.router_downs);
            }
            FaultOp::RouterUp(r) if router(r) => {
                let links = topo.router_links(r);
                self.links_up(spec, alloc, links, |s| &mut s.router_ups);
            }
            FaultOp::LinkGlitch {
                link: l,
                duration_ns,
            } if link(l) => self.glitch(spec, alloc, l, duration_ns),
            _ => return false,
        }
        true
    }

    /// Services one transient glitch: `link` is down for `duration_ns`
    /// from the engine's current time, then recovers on its own (at the
    /// next clock advance past the expiry).
    ///
    /// Below the persistence threshold the glitch only *masks*: new
    /// admissions over the link refuse, standing grants keep their
    /// slots, zero connections are displaced and every slot table is
    /// bit-for-bit unchanged. At or past the threshold the glitch
    /// *escalates* — the recovery ladder runs exactly as for a
    /// [`FaultOp::LinkDown`], and the expiry restores capacity like a
    /// repair. A glitch on an already (permanently) down link is a
    /// no-op; a glitch on an already-glitched link extends the expiry
    /// and may escalate it.
    fn glitch(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        link: LinkId,
        duration_ns: u64,
    ) {
        let expires_ns = self.faults.now_ns.saturating_add(duration_ns);
        let escalates = duration_ns >= DEFAULT_PERSISTENCE_NS;
        if let Some(g) = self.faults.glitches.iter_mut().find(|g| g.link == link) {
            // Repeat glitch on an active one: extend, maybe escalate.
            g.expires_ns = g.expires_ns.max(expires_ns);
            self.stats.glitches += 1;
            if escalates && !g.escalated {
                g.escalated = true;
                self.faults.enforced.set_down(link);
                self.stats.escalated += 1;
                self.recover(spec, alloc, &[link]);
            }
            return;
        }
        if self.faults.enforced.is_down(link) {
            // Permanently down already; a glitch adds nothing.
            return;
        }
        self.stats.glitches += 1;
        self.write_mask(|mask| mask.set_down(link));
        self.faults.glitches.push(Glitch {
            expires_ns,
            link,
            escalated: escalates,
        });
        if escalates {
            self.faults.enforced.set_down(link);
            self.stats.escalated += 1;
            self.recover(spec, alloc, &[link]);
        }
        // Otherwise mask-only: admission filtering sees the glitch,
        // nothing else moves.
    }

    /// Advances the engine's clock to `t_ns`: glitches expiring at or
    /// before `t_ns` self-clear in deterministic `(expiry, link)` order
    /// — sub-threshold glitches just leave the mask; escalated ones
    /// restore capacity like a repair. A clock that does not move
    /// (`t_ns <= now`) is a no-op.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn advance_to(&mut self, spec: &SystemSpec, alloc: &mut Allocation, t_ns: u64) {
        if t_ns <= self.faults.now_ns {
            return;
        }
        while let Some(i) = self
            .faults
            .glitches
            .iter()
            .enumerate()
            .filter(|(_, g)| g.expires_ns <= t_ns)
            .min_by_key(|(_, g)| (g.expires_ns, g.link))
            .map(|(i, _)| i)
        {
            let g = self.faults.glitches.swap_remove(i);
            self.stats.glitch_expiries += 1;
            self.write_mask(|mask| mask.set_up(g.link));
            // The sub-threshold lifecycle touches only the mask.
            if g.escalated {
                self.faults.enforced.set_up(g.link);
                self.rehome(spec, alloc);
            }
        }
        self.faults.now_ns = t_ns;
    }

    /// Applies one *timestamped* scenario event: advances the clock to
    /// the event's arrival time (clearing expired glitches on the way —
    /// see [`advance_to`](Self::advance_to)) and then applies the
    /// operation as [`apply`](Self::apply). This is the replay entry
    /// point for merged [`FaultScenario`] streams whose glitches should
    /// self-clear at their real expiry.
    ///
    /// [`FaultScenario`]: aelite_spec::fault::FaultScenario
    pub fn apply_event(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        event: &ScenarioEvent,
    ) -> bool {
        self.advance_to(spec, alloc, event.at_ns);
        self.apply(spec, alloc, &event.op)
    }

    /// Removes and returns the active glitch on `link`, if any. The
    /// caller decides what happens to the masks.
    fn cancel_glitch(&mut self, link: LinkId) -> Option<Glitch> {
        let i = self.faults.glitches.iter().position(|g| g.link == link)?;
        Some(self.faults.glitches.remove(i))
    }

    /// A link or router failure, which differ only in the counter
    /// `events` picks: a permanent failure subsumes any glitch on a link
    /// and enforces one that was only glitch-masked so far (a
    /// sub-threshold glitch's grants are displaced now); the links newly
    /// taken down share **one** recovery sweep. Links already down are
    /// skipped, so a repeat failure is a no-op.
    fn links_down(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        links: impl Iterator<Item = LinkId>,
        events: fn(&mut ChurnStats) -> &mut u64,
    ) {
        let mut newly_down = Vec::new();
        for l in links {
            self.cancel_glitch(l);
            if self.faults.enforced.set_down(l) {
                self.write_mask(|mask| mask.set_down(l));
                newly_down.push(l);
            }
        }
        if !newly_down.is_empty() {
            *events(&mut self.stats) += 1;
            self.recover(spec, alloc, &newly_down);
        }
    }

    /// A link or router repair: every link leaves both masks (clearing
    /// any glitch on it), then the displaced ledger is re-homed. A repair
    /// of links none of which is down is a no-op.
    fn links_up(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        links: impl Iterator<Item = LinkId>,
        events: fn(&mut ChurnStats) -> &mut u64,
    ) {
        let mut repaired = false;
        for l in links {
            let had_glitch = self.cancel_glitch(l).is_some();
            let was_enforced = self.faults.enforced.set_up(l);
            let was_masked = self.write_mask(|mask| mask.set_up(l));
            repaired |= was_masked || was_enforced || had_glitch;
        }
        if repaired {
            *events(&mut self.stats) += 1;
            self.rehome(spec, alloc);
        }
    }

    /// The failure-side sweep under the grown mask: collects the grants
    /// routed over any of `newly_down` — the owners in those links' own
    /// slot tables, so the sweep reads what failed, not every grant —
    /// and walks them down the recovery ladder hardest-first.
    fn recover(&mut self, spec: &SystemSpec, alloc: &mut Allocation, newly_down: &[LinkId]) {
        let order = &mut self.faults.affected;
        order.clear();
        for &l in newly_down {
            order.extend(alloc.link_table(l).iter().filter_map(|(_, owner)| owner));
        }
        order.sort_unstable();
        order.dedup();
        debug_assert!(
            alloc
                .grants()
                .filter(|g| g.links.iter().any(|l| newly_down.contains(l)))
                .map(|g| g.conn)
                .eq(order.iter().copied()),
            "slot-table owners out of step with the grants' link lists"
        );
        admission_order(spec, order);
        self.stats.affected += order.len() as u64;
        for i in 0..self.faults.affected.len() {
            let conn = self.faults.affected[i];
            match self.reroute(spec, alloc, conn) {
                Ok(RerouteOutcome::MakeBeforeBreak) => self.stats.make_before_break += 1,
                Ok(RerouteOutcome::BreakThenMake) => self.stats.break_then_make += 1,
                Err(refusal) => {
                    self.stats.dropped += 1;
                    self.faults.displace(conn);
                    self.keep_witnesses(spec, conn, refusal.cause);
                }
            }
        }
        // Drop the runs of connections that left the ledger since the
        // last sweep, so the arena holds about one ledger's witnesses.
        self.faults.witnesses.compact(&self.faults.displaced);
    }

    /// Records the witnesses of `conn`, just refused with `cause` and
    /// parked: after a `LinkDown` refusal the first down link of each of
    /// its candidate routes under the current mask, after any other
    /// refusal none (a capacity refusal can change with any release, so
    /// it is always retried).
    fn keep_witnesses(&mut self, spec: &SystemSpec, conn: ConnId, cause: RefusalCause) {
        let witnesses = &mut self.faults.witnesses;
        if matches!(cause, RefusalCause::LinkDown { .. }) {
            let c = spec.connection(conn);
            let (src, dst) = (spec.ip_ni(c.src), spec.ip_ni(c.dst));
            self.routes
                .witness_links(spec.topology(), src, dst, &mut witnesses.spare);
        } else {
            witnesses.spare.clear();
        }
        witnesses.keep_spare(conn);
    }

    /// The repair-side sweep under the shrunk mask: re-homes the
    /// displaced ledger as **one** batched admission round —
    /// [`ChurnEngine::submit_batch`] over per-connection opens, whose
    /// canonical order is exactly the hardest-first cached-key sort of
    /// batch admission. Connections that still do not fit stay parked
    /// for the next repair.
    ///
    /// Only connections whose outcome can change are submitted: those
    /// with no witnesses (parked for want of capacity) and those with a
    /// witness link up under the current mask. A connection whose every
    /// witness is still down has every candidate route blocked, so its
    /// open would be refused `LinkDown` — a refusal that reserves no slot
    /// and, as the canonical order ties on connection id before arrival,
    /// moves no other request of the round. It is booked as that refusal
    /// ([`ChurnStats::rehome_skipped`] counts it) and stays parked with
    /// its witnesses; every refused retry records fresh ones.
    fn rehome(&mut self, spec: &SystemSpec, alloc: &mut Allocation) {
        if self.faults.displaced.is_empty() {
            return;
        }
        // Out of the engine while the round runs, so the ledger is
        // settled once here rather than after every request of it.
        let mut displaced = core::mem::take(&mut self.faults.displaced);
        let mut requests = Vec::with_capacity(displaced.len());
        let mut skipped = 0u64;
        for &c in &displaced {
            if self.faults.still_severed(spec, c, self.routes.faults()) {
                skipped += 1;
                debug_assert!(
                    {
                        let conn = spec.connection(c);
                        let (src, dst) = (spec.ip_ni(conn.src), spec.ip_ni(conn.dst));
                        self.routes
                            .blocking_fault(spec.topology(), src, dst)
                            .is_some()
                    },
                    "{c} skipped by re-homing but routable"
                );
            } else {
                requests.push(AdmissionRequest::Open(c));
            }
        }
        self.stats.rehome_skipped += skipped;
        self.stats.refused_opens += skipped;
        self.stats.refused_link_down += skipped;
        let mut verdicts = Vec::new();
        self.submit_batch(spec, alloc, &requests, &mut verdicts);
        self.stats.restored += verdicts.iter().filter(|v| v.is_ok()).count() as u64;
        for (request, verdict) in requests.iter().zip(&verdicts) {
            if let (&AdmissionRequest::Open(c), Err(refusal)) = (request, verdict) {
                self.keep_witnesses(spec, c, refusal.cause);
            }
        }
        let is_displaced = &mut self.faults.is_displaced;
        displaced.retain(|&c| {
            let parked = alloc.grant(c).is_none();
            is_displaced[c.index()] = parked;
            parked
        });
        self.faults.witnesses.compact(&displaced);
        self.faults.displaced = displaced;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aelite_alloc::{allocate, validate_allocation, Allocation};
    use aelite_spec::fault::{fault_trace, FaultParams, FaultScenario, ScenarioOp};
    use aelite_spec::generate::paper_workload;
    use aelite_spec::{churn_trace, ChurnOp, ChurnParams};

    /// Applies `op` (which must name a link or router of `spec`) and
    /// returns what it did: the engine's stats delta across it.
    fn fault(
        engine: &mut ChurnEngine,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        op: FaultOp,
    ) -> ChurnStats {
        let before = *engine.stats();
        assert!(engine.apply(spec, alloc, &ScenarioOp::Fault(op)), "{op:?}");
        engine.stats().delta(&before)
    }

    /// No grant's route may traverse a down link — the core invariant.
    fn assert_no_grant_over_down_link(alloc: &Allocation, mask: &FaultMask) {
        for g in alloc.grants() {
            for &l in &g.links {
                assert!(!mask.is_down(l), "{} granted over down link {l}", g.conn);
            }
        }
    }

    /// The most-loaded link of `alloc` and how many grants traverse it.
    fn most_loaded_link(spec: &SystemSpec, alloc: &Allocation) -> (LinkId, u64) {
        let mut load = vec![0u64; spec.topology().link_count()];
        for l in alloc.grants().flat_map(|g| &g.links) {
            load[l.index()] += 1;
        }
        let (victim, &count) = load.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
        (LinkId::new(victim as u32), count)
    }

    #[test]
    fn link_down_reroutes_every_affected_grant_on_a_healthy_platform() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        // Fail the most-loaded link so the sweep has real work.
        let (victim, count) = most_loaded_link(&spec, &alloc);
        assert!(count > 0, "paper workload loads some link");

        let before: Vec<_> = alloc
            .grants()
            .filter(|g| !g.links.contains(&victim))
            .map(|g| (*g).clone())
            .collect();
        let down = FaultOp::LinkDown(victim);
        let report = fault(&mut engine, &spec, &mut alloc, down);
        assert_eq!(report.affected, count);
        assert_eq!(report.survived() + report.dropped, report.affected);
        assert_no_grant_over_down_link(&alloc, engine.mask());
        // Bystanders bit-for-bit untouched.
        for g in &before {
            assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
        }
        // Repeat failure is a no-op.
        assert_eq!(
            fault(&mut engine, &spec, &mut alloc, down),
            ChurnStats::default()
        );
        assert_eq!(engine.stats().link_downs, 1);
        let open: Vec<_> = alloc.grants().map(|g| g.conn).collect();
        validate_allocation(&spec.restricted_to_connections(&open), &alloc)
            .expect("valid after recovery");
    }

    #[test]
    fn severed_connection_is_dropped_then_restored_on_repair() {
        let (spec, ingress, conn) = severed_spec();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);

        let report = fault(&mut engine, &spec, &mut alloc, FaultOp::LinkDown(ingress));
        assert_eq!(report.affected, 1);
        assert_eq!(report.dropped, 1);
        assert_eq!(report.survived(), 0);
        assert!(alloc.grant(conn).is_none(), "no alternative path exists");
        assert_eq!(engine.displaced(), &[conn]);
        // The refusal was attributed to the fault, not to capacity.
        assert_eq!(engine.stats().refused_link_down, 1);

        let report = fault(&mut engine, &spec, &mut alloc, FaultOp::LinkUp(ingress));
        assert_eq!(report.restored, 1);
        assert!(alloc.grant(conn).is_some(), "re-homed on repair");
        assert!(engine.displaced().is_empty());
        assert_eq!(engine.stats().dropped, 1);
        assert_eq!(engine.stats().restored, 1);
    }

    #[test]
    fn router_down_takes_adjacent_links_in_one_sweep() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let router = RouterId::new(5);
        let report = fault(&mut engine, &spec, &mut alloc, FaultOp::RouterDown(router));
        assert!(report.affected > 0, "a mid-mesh router carries traffic");
        assert_eq!(engine.stats().router_downs, 1);
        assert_no_grant_over_down_link(&alloc, engine.mask());
        // Every adjacent link is down, exactly once.
        let links: Vec<_> = spec.topology().router_links(router).collect();
        for &l in &links {
            assert!(engine.mask().is_down(l));
        }
        assert_eq!(engine.mask().down_count(), links.len());
        // Repair raises them all and counts once.
        fault(&mut engine, &spec, &mut alloc, FaultOp::RouterUp(router));
        assert!(engine.mask().is_empty());
        assert_eq!(engine.stats().router_ups, 1);
    }

    /// 3x1 path mesh with one corner-to-corner connection: NI0's
    /// traffic has exactly one way out (the ingress link).
    fn severed_spec() -> (SystemSpec, LinkId, ConnId) {
        let topo = aelite_spec::Topology::mesh(3, 1, 1);
        let ingress = topo.ni_ingress_link(aelite_spec::ids::NiId::new(0));
        let mut b = aelite_spec::SystemSpecBuilder::new(topo, aelite_spec::NocConfig::default());
        let app = b.add_app("a");
        let s = b.add_ip_at(aelite_spec::ids::NiId::new(0));
        let d = b.add_ip_at(aelite_spec::ids::NiId::new(2));
        let conn = b.add_connection(
            app,
            s,
            d,
            aelite_spec::Bandwidth::from_mbytes_per_sec(100),
            1_000_000,
        );
        (b.build(), ingress, conn)
    }

    #[test]
    fn witness_arena_compaction_keeps_live_runs_only() {
        let link = |i: u32| LinkId::new(i);
        let conn = |i: u32| ConnId::new(i);
        let mut w = Witnesses::default();
        for (c, run) in [(4, vec![link(1), link(7)]), (0, vec![]), (2, vec![link(3)])] {
            w.spare = run;
            w.keep_spare(conn(c));
        }
        // Connection 2 is recorded again; connection 4 leaves.
        w.spare = vec![link(5), link(6)];
        w.keep_spare(conn(2));
        assert_eq!(w.links.len(), 5);
        w.compact(&[conn(2), conn(0)]);
        assert_eq!(w.of(conn(2)), [link(5), link(6)]);
        assert!(w.of(conn(0)).is_empty());
        assert_eq!(w.links, [link(5), link(6)], "dead runs dropped");
    }

    /// Downs and raises `link` again: a repair that runs a re-home.
    fn blink(engine: &mut ChurnEngine, spec: &SystemSpec, alloc: &mut Allocation, link: LinkId) {
        fault(engine, spec, alloc, FaultOp::LinkDown(link));
        fault(engine, spec, alloc, FaultOp::LinkUp(link));
    }

    #[test]
    fn severed_connection_stays_parked_untried_until_a_witness_returns() {
        let (spec, ingress, conn) = severed_spec();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        fault(&mut engine, &spec, &mut alloc, FaultOp::LinkDown(ingress));
        assert_eq!(engine.displaced(), &[conn]);

        // A repair of a link none of its routes needs: the re-home books
        // the refusal the retry would get, without trying it.
        let unrelated = spec
            .topology()
            .ni_ingress_link(aelite_spec::ids::NiId::new(1));
        let before = *engine.stats();
        blink(&mut engine, &spec, &mut alloc, unrelated);
        let repair = engine.stats().delta(&before);
        let skipped = ChurnStats {
            link_downs: 1,
            link_ups: 1,
            refused_opens: 1,
            refused_link_down: 1,
            rehome_skipped: 1,
            ..ChurnStats::default()
        };
        assert_eq!(repair, skipped);
        assert_eq!(engine.displaced(), &[conn]);

        // Its witness comes back: retried and restored.
        let repair = fault(&mut engine, &spec, &mut alloc, FaultOp::LinkUp(ingress));
        assert_eq!((repair.restored, repair.rehome_skipped), (1, 0));
        assert!(alloc.grant(conn).is_some());
        assert!(engine.displaced().is_empty());
    }

    #[test]
    fn witness_cleared_by_a_glitch_expiry_is_retried_at_the_next_repair() {
        let (spec, ingress, conn) = severed_spec();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        // A sub-threshold glitch masks the ingress link; then the next
        // link of the only route fails for good, displacing the grant.
        // Its witness is the ingress link, the first down one.
        let short = DEFAULT_PERSISTENCE_NS - 1;
        let glitch = FaultOp::LinkGlitch {
            link: ingress,
            duration_ns: short,
        };
        fault(&mut engine, &spec, &mut alloc, glitch);
        let hop = alloc.grant(conn).unwrap().links[1];
        fault(&mut engine, &spec, &mut alloc, FaultOp::LinkDown(hop));
        assert_eq!(engine.displaced(), &[conn]);

        // Repairing the hop leaves the witness down: not tried.
        let repair = fault(&mut engine, &spec, &mut alloc, FaultOp::LinkUp(hop));
        assert_eq!((repair.restored, repair.rehome_skipped), (0, 1));

        // The glitch expires: the mask clears, no re-home runs.
        let before = *engine.stats();
        engine.advance_to(&spec, &mut alloc, short + 1);
        assert!(engine.mask().is_empty());
        let expiry = ChurnStats {
            glitch_expiries: 1,
            ..ChurnStats::default()
        };
        assert_eq!(engine.stats().delta(&before), expiry);
        assert_eq!(engine.displaced(), &[conn]);

        // The next repair, of an unrelated link, reads the mask, sees
        // the witness up and retries: restored.
        let unrelated = spec
            .topology()
            .ni_ingress_link(aelite_spec::ids::NiId::new(1));
        let before = *engine.stats();
        blink(&mut engine, &spec, &mut alloc, unrelated);
        let repair = engine.stats().delta(&before);
        assert_eq!((repair.restored, repair.rehome_skipped), (1, 0));
        assert!(alloc.grant(conn).is_some());
        assert!(engine.displaced().is_empty());
    }

    #[test]
    fn sub_threshold_glitch_masks_admission_but_displaces_nothing() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let before: Vec<_> = alloc.grants().cloned().collect();
        let snapshot = |alloc: &Allocation| -> Vec<Vec<(bool, Option<ConnId>)>> {
            (0..spec.topology().link_count())
                .map(|i| {
                    let t = alloc.link_table(LinkId::new(i as u32));
                    (0..t.size()).map(|s| (t.is_free(s), t.owner(s))).collect()
                })
                .collect()
        };
        let tables = snapshot(&alloc);

        // Glitch the most-loaded link for less than the threshold.
        let (victim, _) = most_loaded_link(&spec, &alloc);
        let short = DEFAULT_PERSISTENCE_NS - 1;
        let glitch = FaultOp::LinkGlitch {
            link: victim,
            duration_ns: short,
        };
        let report = fault(&mut engine, &spec, &mut alloc, glitch);

        // Zero displacement, zero recovery activity, everything still
        // granted over the glitched link — only the mask moved.
        let counted = ChurnStats {
            glitches: 1,
            ..ChurnStats::default()
        };
        assert_eq!(report, counted);
        assert!(engine.mask().is_down(victim));
        assert!(!engine.enforced().is_down(victim));
        assert!(engine.displaced().is_empty());
        assert_eq!(engine.stats().glitches, 1);
        assert_eq!(engine.stats().escalated, 0);
        assert_eq!(engine.stats().affected, 0);
        for g in &before {
            assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
        }
        assert_eq!(
            snapshot(&alloc),
            tables,
            "a table changed under a sub-threshold glitch"
        );

        // Admission over the glitched link refuses while it is masked.
        let conn = alloc
            .grants()
            .find(|g| g.links.contains(&victim))
            .expect("victim carries traffic")
            .conn;
        // Close it through churn, then try to re-open: every candidate
        // may not cross victim, so the grant (if any) avoids it.
        engine.apply(&spec, &mut alloc, &ScenarioOp::Churn(ChurnOp::Close(conn)));
        engine.apply(&spec, &mut alloc, &ScenarioOp::Churn(ChurnOp::Open(conn)));
        if let Some(g) = alloc.grant(conn) {
            assert!(!g.links.contains(&victim), "granted over glitched link");
        }

        // The glitch self-clears at expiry: mask empty again, and the
        // clearance touched nothing (no rehome machinery for
        // sub-threshold glitches).
        engine.advance_to(&spec, &mut alloc, engine.now_ns() + short + 1);
        assert!(engine.mask().is_empty());
        assert_eq!(engine.stats().glitch_expiries, 1);
    }

    #[test]
    fn threshold_crossing_glitch_escalates_like_link_down_then_self_repairs() {
        let (spec, ingress, conn) = severed_spec();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let long = DEFAULT_PERSISTENCE_NS * 3;

        let glitch = FaultOp::LinkGlitch {
            link: ingress,
            duration_ns: long,
        };
        let report = fault(&mut engine, &spec, &mut alloc, glitch);
        // Exactly the permanent-fault ladder: affected, dropped, parked.
        assert_eq!(report.affected, 1);
        assert_eq!(report.dropped, 1);
        assert!(engine.enforced().is_down(ingress));
        assert_eq!(engine.displaced(), &[conn]);
        assert_eq!(engine.stats().escalated, 1);

        // The glitch expires: capacity returns, the connection re-homes
        // without any repair event in the stream.
        engine.advance_to(&spec, &mut alloc, long + 1);
        assert!(engine.mask().is_empty());
        assert!(alloc.grant(conn).is_some(), "re-homed at expiry");
        assert!(engine.displaced().is_empty());
        assert_eq!(engine.stats().restored, 1);
        assert_eq!(engine.stats().glitch_expiries, 1);
    }

    #[test]
    fn permanent_fault_on_glitched_link_escalates_it() {
        let (spec, ingress, conn) = severed_spec();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        let short = DEFAULT_PERSISTENCE_NS / 2;

        // Sub-threshold glitch first: nothing displaced.
        let glitch = FaultOp::LinkGlitch {
            link: ingress,
            duration_ns: short,
        };
        fault(&mut engine, &spec, &mut alloc, glitch);
        assert!(alloc.grant(conn).is_some());

        // A permanent failure lands on the glitched link: the grant is
        // displaced *now*, and the glitch will not self-clear.
        let report = fault(&mut engine, &spec, &mut alloc, FaultOp::LinkDown(ingress));
        assert_eq!(report.affected, 1);
        assert_eq!(report.dropped, 1);
        assert_eq!(engine.displaced(), &[conn]);
        engine.advance_to(&spec, &mut alloc, short + 1);
        assert!(
            engine.mask().is_down(ingress),
            "permanent fault must not expire with the glitch"
        );
        assert_eq!(engine.stats().glitch_expiries, 0);
    }

    /// A merged churn + fault scenario over `spec`: 600 steady churn
    /// events and 60 sparse fault events at 1e5 faults/s, seed 21.
    pub(crate) fn merged_scenario(spec: &SystemSpec) -> FaultScenario {
        let churn = churn_trace(spec, &ChurnParams::steady(600), 21);
        let faults = FaultParams {
            rate_per_sec: 1.0e5,
            ..FaultParams::sparse(60)
        };
        FaultScenario::merge(&churn, &fault_trace(spec.topology(), &faults, 21))
    }

    #[test]
    fn scenario_replay_holds_the_no_down_link_invariant() {
        let spec = paper_workload(42);
        let scenario = merged_scenario(&spec);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = ChurnEngine::new(&spec);
        for e in &scenario.events {
            engine.apply_event(&spec, &mut alloc, e);
            // Grants may ride out sub-threshold glitches (mask), never a
            // displacing fault (enforced).
            assert_no_grant_over_down_link(&alloc, engine.enforced());
            // The ledger never holds a connection that has a grant.
            for &c in engine.displaced() {
                assert!(alloc.grant(c).is_none());
            }
        }
        let s = engine.stats();
        assert!(s.link_downs + s.router_downs > 0);
        assert_eq!(s.survived() + s.dropped, s.affected);
        let open: Vec<_> = alloc.grants().map(|g| g.conn).collect();
        if !open.is_empty() {
            validate_allocation(&spec.restricted_to_connections(&open), &alloc)
                .expect("valid end state");
        }
    }

    /// `apply` and `apply_event` are every public path a fault can take:
    /// both refuse a foreign op of every kind.
    #[test]
    fn fault_ops_outside_the_platform_are_refused_and_change_nothing() {
        let spec = paper_workload(42);
        let topo = spec.topology();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        // Fault state worth keeping: a failed router, a clock past zero
        // and a pending sub-threshold glitch.
        fault(
            &mut engine,
            &spec,
            &mut alloc,
            FaultOp::RouterDown(RouterId::new(5)),
        );
        engine.advance_to(&spec, &mut alloc, 1_000);
        let pending = FaultOp::LinkGlitch {
            link: LinkId::new(0),
            duration_ns: DEFAULT_PERSISTENCE_NS - 1,
        };
        fault(&mut engine, &spec, &mut alloc, pending);
        let before = alloc.clone();
        let (mask, enforced) = (engine.mask().clone(), engine.enforced().clone());
        let (ledger, now, stats) = (
            engine.displaced().to_vec(),
            engine.now_ns(),
            *engine.stats(),
        );

        let link = LinkId::new(topo.link_count() as u32 + 5);
        let router = RouterId::new(topo.router_count() as u32 + 5);
        let glitch = |duration_ns| FaultOp::LinkGlitch { link, duration_ns };
        let ops = [
            FaultOp::LinkDown(link),
            FaultOp::LinkUp(link),
            FaultOp::RouterDown(router),
            FaultOp::RouterUp(router),
            glitch(DEFAULT_PERSISTENCE_NS - 1),
            glitch(DEFAULT_PERSISTENCE_NS),
        ];
        // Both doors a fault can take: `apply`, and `apply_event` at the
        // engine's own clock (so the clock half has nothing to do).
        for (op, timestamped) in ops.iter().flat_map(|&op| [(op, false), (op, true)]) {
            let scenario = ScenarioOp::Fault(op);
            let applied = if timestamped {
                let event = ScenarioEvent {
                    at_ns: now,
                    op: scenario,
                };
                engine.apply_event(&spec, &mut alloc, &event)
            } else {
                engine.apply(&spec, &mut alloc, &scenario)
            };
            let op = (op, timestamped);
            assert!(!applied, "{op:?}");
            assert_eq!(
                (engine.mask(), engine.enforced()),
                (&mask, &enforced),
                "{op:?}"
            );
            assert_eq!(engine.displaced(), &ledger[..], "{op:?}");
            assert_eq!((engine.now_ns(), *engine.stats()), (now, stats), "{op:?}");
            assert!(alloc.grants().eq(before.grants()), "{op:?} moved a grant");
            for l in topo.links() {
                assert_eq!(alloc.link_table(l), before.link_table(l), "{op:?}: {l}");
            }
        }
    }
}
