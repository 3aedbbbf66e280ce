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
//! [`FaultEngine`] wraps a [`ChurnEngine`] and drives the recovery
//! ladder on each event:
//!
//! 1. **mask** — the failed link enters the engine's
//!    [`FaultMask`]; from that point no
//!    admission path (serial, batched round, sharded two-phase commit)
//!    can grant a route traversing it — route lookups filter by the
//!    mask, so cached routes stay resident and nothing is re-enumerated;
//! 2. **make-before-break** — each affected grant (hardest first, the
//!    allocator's admission order) is re-admitted on a fault-free path
//!    *while its old reservations are still held*, then the old slots
//!    are released as one delta ([`ChurnEngine::reroute`]);
//! 3. **break-then-make** — if the replacement needs the old slots, they
//!    are released first and the admission retried;
//! 4. **structured refusal** — if no fault-free capacity exists the
//!    connection is dropped with
//!    [`RefusalCause::LinkDown`](crate::RefusalCause::LinkDown) (or a
//!    capacity cause) and parked as *displaced*; when a repair event
//!    restores routability ([`link_up`](FaultEngine::link_up) /
//!    [`router_up`](FaultEngine::router_up)), displaced connections are
//!    re-homed.
//!
//! Each event yields a [`RecoveryReport`]; [`FaultStats`] accumulates
//! them. Bystander grants are never touched on any rung — undisturbed
//! service under failure is structural, not best-effort.
//!
//! # Transient faults
//!
//! Real interconnects mostly see *glitches*: a link misbehaves for
//! microseconds and recovers on its own. Displacing traffic for those
//! would be pure churn, so the engine holds a **persistence threshold**
//! ([`DEFAULT_PERSISTENCE_NS`]): a [`FaultOp::LinkGlitch`] shorter than
//! the threshold only *masks* admission — new opens over the link refuse
//! with [`RefusalCause::LinkDown`](crate::RefusalCause::LinkDown), but every
//! standing grant keeps its slots, so a sub-threshold glitch displaces
//! **zero** connections and leaves every slot table bit-for-bit
//! unchanged. A glitch at or past the threshold (or a permanent
//! [`FaultOp::LinkDown`] landing on a glitched link) *escalates*: the
//! recovery ladder runs exactly as for a permanent failure, and when the
//! glitch self-clears the capacity is restored like a repair. Glitch
//! expiry is driven by the engine's clock
//! ([`advance_to`](FaultEngine::advance_to) /
//! [`apply_event`](FaultEngine::apply_event)).

use crate::api::{AdmissionError, AdmissionRequest, AdmissionResponse};
use crate::engine::{ChurnEngine, RerouteOutcome};
use aelite_alloc::{admission_order, Allocation, FaultMask};
use aelite_spec::fault::{FaultOp, ScenarioEvent, ScenarioOp};
use aelite_spec::ids::{ConnId, LinkId, RouterId};
use aelite_spec::topology::{Endpoint, Topology};
use aelite_spec::ChurnOp;
use aelite_spec::SystemSpec;

/// What one fault or repair event did to the live connections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Grants whose route traversed a newly failed link.
    pub affected: u32,
    /// Affected connections re-routed with the old reservations still
    /// held — capacity handed over as one delta.
    pub make_before_break: u32,
    /// Affected connections re-routed only after their old slots were
    /// released (the replacement reuses them).
    pub break_then_make: u32,
    /// Affected connections with no admissible fault-free path: dropped
    /// and parked as displaced.
    pub dropped: u32,
    /// Previously displaced connections re-homed by this repair event.
    pub restored: u32,
}

impl RecoveryReport {
    /// Affected connections that kept service through the event.
    #[must_use]
    pub fn survived(&self) -> u32 {
        self.make_before_break + self.break_then_make
    }

    /// Accumulates `r` into `self` (used when one clock advance services
    /// several expiries).
    fn add(&mut self, r: &RecoveryReport) {
        self.affected += r.affected;
        self.make_before_break += r.make_before_break;
        self.break_then_make += r.break_then_make;
        self.dropped += r.dropped;
        self.restored += r.restored;
    }
}

/// Totals over every fault and repair event a [`FaultEngine`] serviced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
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
}

impl FaultStats {
    /// Total affected connections that kept service.
    #[must_use]
    pub fn survived(&self) -> u64 {
        self.make_before_break + self.break_then_make
    }

    fn absorb(&mut self, r: &RecoveryReport) {
        self.affected += u64::from(r.affected);
        self.make_before_break += u64::from(r.make_before_break);
        self.break_then_make += u64::from(r.break_then_make);
        self.dropped += u64::from(r.dropped);
        self.restored += u64::from(r.restored);
    }
}

/// The links adjacent to `router` — router-router links on either side
/// and the NI links of its concentrated NIs.
fn router_links(topo: &Topology, router: RouterId) -> impl Iterator<Item = LinkId> + '_ {
    topo.links().filter(move |&l| {
        let link = topo.link(l);
        let touches = |e: Endpoint| matches!(e, Endpoint::Router(r, _) if r == router);
        touches(link.from) || touches(link.to)
    })
}

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

/// A recovery engine: a [`ChurnEngine`] plus the fault mask it admits
/// under, the displaced-connection ledger, and the event counters. See
/// the [module docs](self) for the recovery ladder and the
/// transient-fault model.
///
/// Ordinary churn flows through [`apply`](Self::apply) (or the wrapped
/// engine's own API between events); fault events flow through
/// [`link_down`](Self::link_down) / [`link_up`](Self::link_up) /
/// [`router_down`](Self::router_down) / [`router_up`](Self::router_up) /
/// [`link_glitch`](Self::link_glitch).
/// The mask must only be changed through this engine — installing a
/// different mask directly on the inner engine would desynchronise the
/// displaced ledger.
///
/// Two masks are maintained: [`mask`](Self::mask) holds **every**
/// currently-down link (permanent and glitched) and is what admission
/// filters against; [`enforced`](Self::enforced) holds only the links
/// whose standing grants were displaced (permanent faults and escalated
/// glitches). A link in `mask` but not in `enforced` is a sub-threshold
/// glitch: no new grant may cross it, but existing grants ride it out.
#[derive(Debug)]
pub struct FaultEngine {
    engine: ChurnEngine,
    mask: FaultMask,
    /// Links no standing grant may traverse (recovery ran for them);
    /// a subset of `mask`.
    enforced: FaultMask,
    now_ns: u64,
    /// Active transient glitches, unordered; expiry processing sorts by
    /// `(expires_ns, link)` so clearance is deterministic.
    glitches: Vec<Glitch>,
    /// Scratch for expiry processing.
    expired: Vec<Glitch>,
    stats: FaultStats,
    /// Connections dropped by failures that the workload still holds
    /// open: candidates for re-homing on the next repair event.
    displaced: Vec<ConnId>,
    /// Reusable affected-grant order buffer.
    order: Vec<ConnId>,
    /// Reusable re-home request/verdict buffers for the batched round.
    requests: Vec<AdmissionRequest>,
    verdicts: Vec<Result<AdmissionResponse, AdmissionError>>,
}

impl FaultEngine {
    /// A recovery engine for `spec`'s platform over a default
    /// [`ChurnEngine`].
    #[must_use]
    pub fn new(spec: &SystemSpec) -> Self {
        FaultEngine::with_engine(ChurnEngine::new(spec))
    }

    /// A recovery engine over a caller-configured churn engine (custom
    /// allocator). Any fault mask already installed on `engine` becomes
    /// the starting mask (treated as permanent).
    #[must_use]
    pub fn with_engine(engine: ChurnEngine) -> Self {
        let mask = engine.faults().clone();
        let enforced = mask.clone();
        FaultEngine {
            engine,
            mask,
            enforced,
            now_ns: 0,
            glitches: Vec::new(),
            expired: Vec::new(),
            stats: FaultStats::default(),
            displaced: Vec::new(),
            order: Vec::new(),
            requests: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// The engine's clock: the timestamp of the latest
    /// [`advance_to`](Self::advance_to) (or
    /// [`apply_event`](Self::apply_event)).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The wrapped churn engine (e.g. for its [`ChurnStats`] refusal
    /// breakdown, where fault-caused refusals show up as
    /// [`refused_link_down`](crate::ChurnStats::refused_link_down)).
    ///
    /// [`ChurnStats`]: crate::ChurnStats
    #[must_use]
    pub fn engine(&self) -> &ChurnEngine {
        &self.engine
    }

    /// The current fault mask: **every** down link, permanent and
    /// glitched alike. This is what admission filters against.
    #[must_use]
    pub fn mask(&self) -> &FaultMask {
        &self.mask
    }

    /// The enforced mask: the links whose standing grants were
    /// displaced (permanent faults and escalated glitches). No grant
    /// ever traverses a link in this mask; a grant *may* ride out a
    /// sub-threshold glitch, i.e. a link in [`mask`](Self::mask) only.
    #[must_use]
    pub fn enforced(&self) -> &FaultMask {
        &self.enforced
    }

    /// Event and recovery totals since the engine was created.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Connections dropped by failures and not yet re-homed or closed
    /// by the workload, in drop order.
    #[must_use]
    pub fn displaced(&self) -> &[ConnId] {
        &self.displaced
    }

    /// Services one link failure: masks `link`, then walks every grant
    /// routed over it down the recovery ladder (make-before-break,
    /// break-then-make, drop-and-park), hardest connection first. A
    /// repeat failure of an already-down link is a no-op; a permanent
    /// failure of a *glitched* link escalates it (the glitch will not
    /// self-clear any more, and if it was sub-threshold its grants are
    /// displaced now).
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn link_down(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        link: LinkId,
    ) -> RecoveryReport {
        self.links_down(spec, alloc, core::iter::once(link), |s| &mut s.link_downs)
    }

    /// Services one link repair: unmasks `link` (clearing any glitch on
    /// it) and re-homes displaced connections that now fit. A repair of
    /// a link that is not down is a no-op.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn link_up(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        link: LinkId,
    ) -> RecoveryReport {
        self.links_up(spec, alloc, core::iter::once(link), |s| &mut s.link_ups)
    }

    /// Services a whole-router failure: every adjacent link still up
    /// goes down together, then **one** recovery sweep re-routes the
    /// grants touching any of them. A router whose links are all
    /// already down is a no-op.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn router_down(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        router: RouterId,
    ) -> RecoveryReport {
        let links = router_links(spec.topology(), router);
        self.links_down(spec, alloc, links, |s| &mut s.router_downs)
    }

    /// Services a whole-router repair: every adjacent link currently
    /// down comes back up together, then displaced connections are
    /// re-homed. A router with no adjacent down link is a no-op.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn router_up(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        router: RouterId,
    ) -> RecoveryReport {
        let links = router_links(spec.topology(), router);
        self.links_up(spec, alloc, links, |s| &mut s.router_ups)
    }

    /// Services one transient glitch: `link` is down for `duration_ns`
    /// from the engine's current time, then recovers on its own (at the
    /// next clock advance past the expiry).
    ///
    /// Below the persistence threshold the glitch only *masks*: new
    /// admissions over the link refuse, standing grants keep their
    /// slots, zero connections are displaced and every slot table is
    /// bit-for-bit unchanged. At or past the threshold the glitch
    /// *escalates* — the recovery ladder runs exactly as for
    /// [`link_down`](Self::link_down), and the expiry restores capacity
    /// like a repair. A glitch on an already (permanently) down link is
    /// a no-op; a glitch on an already-glitched link extends the expiry
    /// and may escalate it.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn link_glitch(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        link: LinkId,
        duration_ns: u64,
    ) -> RecoveryReport {
        let expires_ns = self.now_ns.saturating_add(duration_ns);
        let escalates = duration_ns >= DEFAULT_PERSISTENCE_NS;
        if let Some(g) = self.glitches.iter_mut().find(|g| g.link == link) {
            // Repeat glitch on an active one: extend, maybe escalate.
            g.expires_ns = g.expires_ns.max(expires_ns);
            self.stats.glitches += 1;
            if escalates && !g.escalated {
                g.escalated = true;
                self.enforced.set_down(link);
                self.stats.escalated += 1;
                return self.recover(spec, alloc, &[link]);
            }
            return RecoveryReport::default();
        }
        if self.enforced.is_down(link) {
            // Permanently down already; a glitch adds nothing.
            return RecoveryReport::default();
        }
        self.stats.glitches += 1;
        self.mask.set_down(link);
        self.glitches.push(Glitch {
            expires_ns,
            link,
            escalated: escalates,
        });
        if escalates {
            self.enforced.set_down(link);
            self.stats.escalated += 1;
            self.recover(spec, alloc, &[link])
        } else {
            // Mask-only: admission filtering sees the glitch, nothing
            // else moves.
            self.engine.set_faults(&self.mask);
            RecoveryReport::default()
        }
    }

    /// Advances the engine's clock to `t_ns`: glitches expiring at or
    /// before `t_ns` self-clear in deterministic `(expiry, link)` order
    /// — sub-threshold glitches just leave the mask; escalated ones
    /// restore capacity like a repair. Returns the accumulated report; a
    /// clock that does not move (`t_ns <= now`) is a no-op.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn advance_to(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        t_ns: u64,
    ) -> RecoveryReport {
        let mut total = RecoveryReport::default();
        if t_ns <= self.now_ns {
            return total;
        }
        let expired = &mut self.expired;
        expired.clear();
        self.glitches.retain(|g| {
            if g.expires_ns <= t_ns {
                expired.push(*g);
                false
            } else {
                true
            }
        });
        expired.sort_unstable_by_key(|g| (g.expires_ns, g.link));
        let mut expired = core::mem::take(&mut self.expired);
        for g in &expired {
            self.stats.glitch_expiries += 1;
            self.mask.set_up(g.link);
            if g.escalated {
                self.enforced.set_up(g.link);
                total.add(&self.rehome(spec, alloc));
            } else {
                // The sub-threshold lifecycle touches only the mask.
                self.engine.set_faults(&self.mask);
            }
        }
        expired.clear();
        self.expired = expired;
        self.now_ns = t_ns;
        total
    }

    /// Applies one scenario operation (see [`aelite_spec::fault`]):
    /// churn ops delegate to the wrapped engine, fault ops to the
    /// matching event handler. Returns whether the op was applied in
    /// full (fault events always are; churn follows
    /// [`ChurnEngine::apply`]).
    ///
    /// A churn close of a displaced connection settles it (the workload
    /// no longer wants it open), and a successful churn re-open removes
    /// it from the ledger — so replaying a merged [`FaultScenario`]
    /// keeps the ledger exact.
    ///
    /// [`FaultScenario`]: aelite_spec::fault::FaultScenario
    pub fn apply(&mut self, spec: &SystemSpec, alloc: &mut Allocation, op: &ScenarioOp) -> bool {
        match op {
            ScenarioOp::Churn(c) => {
                let ok = self.engine.apply(spec, alloc, c);
                if !self.displaced.is_empty() {
                    let closed_by = |conn: ConnId| match c {
                        ChurnOp::Close(x) => *x == conn,
                        ChurnOp::Switch { close, .. } => close.contains(&conn),
                        ChurnOp::Open(_) => false,
                    };
                    self.displaced
                        .retain(|&c| alloc.grant(c).is_none() && !closed_by(c));
                }
                ok
            }
            ScenarioOp::Fault(f) => {
                match *f {
                    FaultOp::LinkDown(l) => self.link_down(spec, alloc, l),
                    FaultOp::LinkUp(l) => self.link_up(spec, alloc, l),
                    FaultOp::RouterDown(r) => self.router_down(spec, alloc, r),
                    FaultOp::RouterUp(r) => self.router_up(spec, alloc, r),
                    FaultOp::LinkGlitch { link, duration_ns } => {
                        self.link_glitch(spec, alloc, link, duration_ns)
                    }
                };
                true
            }
        }
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
        let i = self.glitches.iter().position(|g| g.link == link)?;
        Some(self.glitches.remove(i))
    }

    /// The failure event behind [`link_down`](Self::link_down) and
    /// [`router_down`](Self::router_down), which differ only in the
    /// counter `events` picks: a permanent failure subsumes any glitch
    /// on a link and enforces one that was only glitch-masked so far;
    /// the links newly taken down share **one** recovery sweep.
    fn links_down(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        links: impl Iterator<Item = LinkId>,
        events: fn(&mut FaultStats) -> &mut u64,
    ) -> RecoveryReport {
        let mut newly_down = Vec::new();
        for l in links {
            self.cancel_glitch(l);
            if self.enforced.set_down(l) {
                self.mask.set_down(l);
                newly_down.push(l);
            }
        }
        if newly_down.is_empty() {
            return RecoveryReport::default();
        }
        *events(&mut self.stats) += 1;
        self.recover(spec, alloc, &newly_down)
    }

    /// The repair event behind [`link_up`](Self::link_up) and
    /// [`router_up`](Self::router_up): every link leaves both masks
    /// (clearing any glitch on it), then the displaced ledger is
    /// re-homed.
    fn links_up(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        links: impl Iterator<Item = LinkId>,
        events: fn(&mut FaultStats) -> &mut u64,
    ) -> RecoveryReport {
        let mut repaired = false;
        for l in links {
            let had_glitch = self.cancel_glitch(l).is_some();
            let was_enforced = self.enforced.set_up(l);
            let was_masked = self.mask.set_up(l);
            repaired |= was_masked || was_enforced || had_glitch;
        }
        if !repaired {
            return RecoveryReport::default();
        }
        *events(&mut self.stats) += 1;
        self.rehome(spec, alloc)
    }

    /// The failure-side sweep: installs the grown mask, collects the
    /// grants routed over any of `newly_down` — the owners in those
    /// links' own slot tables, so the sweep reads what failed, not every
    /// grant — and walks them down the recovery ladder hardest-first.
    fn recover(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        newly_down: &[LinkId],
    ) -> RecoveryReport {
        self.engine.set_faults(&self.mask);
        self.order.clear();
        for &l in newly_down {
            let owners = alloc.link_table(l).iter().filter_map(|(_, owner)| owner);
            self.order.extend(owners);
        }
        self.order.sort_unstable();
        self.order.dedup();
        debug_assert!(
            alloc
                .grants()
                .filter(|g| g.links.iter().any(|l| newly_down.contains(l)))
                .map(|g| g.conn)
                .eq(self.order.iter().copied()),
            "slot-table owners out of step with the grants' link lists"
        );
        admission_order(spec, &mut self.order);
        let mut report = RecoveryReport {
            affected: self.order.len() as u32,
            ..RecoveryReport::default()
        };
        for i in 0..self.order.len() {
            let conn = self.order[i];
            match self.engine.reroute(spec, alloc, conn) {
                Ok(RerouteOutcome::MakeBeforeBreak) => report.make_before_break += 1,
                Ok(RerouteOutcome::BreakThenMake) => report.break_then_make += 1,
                Err(_) => {
                    report.dropped += 1;
                    self.displaced.push(conn);
                }
            }
        }
        self.stats.absorb(&report);
        report
    }

    /// The repair-side sweep: installs the shrunk mask and re-homes the
    /// displaced ledger as **one** batched admission round —
    /// [`ChurnEngine::submit_batch`] over per-connection opens, whose
    /// canonical order is exactly the hardest-first cached-key sort of
    /// batch admission. Connections that still do not fit stay parked
    /// for the next repair; one still severed costs a single salt pass
    /// over resident routes (the mask install re-enumerates nothing).
    fn rehome(&mut self, spec: &SystemSpec, alloc: &mut Allocation) -> RecoveryReport {
        self.engine.set_faults(&self.mask);
        let mut report = RecoveryReport::default();
        if self.displaced.is_empty() {
            return report;
        }
        self.requests.clear();
        self.requests
            .extend(self.displaced.iter().map(|&c| AdmissionRequest::Open(c)));
        self.engine
            .submit_batch(spec, alloc, &self.requests, &mut self.verdicts);
        report.restored = self.verdicts.iter().filter(|v| v.is_ok()).count() as u32;
        self.displaced.retain(|&c| alloc.grant(c).is_none());
        self.stats.absorb(&report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::{allocate, validate_allocation, Allocation};
    use aelite_spec::fault::{fault_trace, FaultParams, FaultScenario};
    use aelite_spec::generate::paper_workload;
    use aelite_spec::{churn_trace, ChurnParams};

    /// No grant's route may traverse a down link — the core invariant.
    fn assert_no_grant_over_down_link(alloc: &Allocation, mask: &FaultMask) {
        for g in alloc.grants() {
            for &l in &g.links {
                assert!(!mask.is_down(l), "{} granted over down link {l}", g.conn);
            }
        }
    }

    #[test]
    fn link_down_reroutes_every_affected_grant_on_a_healthy_platform() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = FaultEngine::new(&spec);
        // Fail the most-loaded link so the sweep has real work.
        let mut load = vec![0u32; spec.topology().link_count()];
        for g in alloc.grants() {
            for &l in &g.links {
                load[l.index()] += 1;
            }
        }
        let (victim, &count) = load.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
        assert!(count > 0, "paper workload loads some link");
        let victim = aelite_spec::ids::LinkId::new(victim as u32);

        let before: Vec<_> = alloc
            .grants()
            .filter(|g| !g.links.contains(&victim))
            .map(|g| (*g).clone())
            .collect();
        let report = engine.link_down(&spec, &mut alloc, victim);
        assert_eq!(report.affected, count);
        assert_eq!(report.survived() + report.dropped, report.affected);
        assert_no_grant_over_down_link(&alloc, engine.mask());
        // Bystanders bit-for-bit untouched.
        for g in &before {
            assert_eq!(alloc.grant(g.conn).unwrap(), g, "{} moved", g.conn);
        }
        // Repeat failure is a no-op.
        assert_eq!(
            engine.link_down(&spec, &mut alloc, victim),
            RecoveryReport::default()
        );
        assert_eq!(engine.stats().link_downs, 1);
        let open: Vec<_> = alloc.grants().map(|g| g.conn).collect();
        validate_allocation(&spec.restricted_to_connections(&open), &alloc)
            .expect("valid after recovery");
    }

    #[test]
    fn severed_connection_is_dropped_then_restored_on_repair() {
        // 3x1 path mesh: NI0's traffic has exactly one way out.
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
        let spec = b.build();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = FaultEngine::new(&spec);

        let report = engine.link_down(&spec, &mut alloc, ingress);
        assert_eq!(report.affected, 1);
        assert_eq!(report.dropped, 1);
        assert_eq!(report.survived(), 0);
        assert!(alloc.grant(conn).is_none(), "no alternative path exists");
        assert_eq!(engine.displaced(), &[conn]);
        // The refusal was attributed to the fault, not to capacity.
        assert_eq!(engine.engine().stats().refused_link_down, 1);

        let report = engine.link_up(&spec, &mut alloc, ingress);
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
        let mut engine = FaultEngine::new(&spec);
        let router = aelite_spec::ids::RouterId::new(5);
        let report = engine.router_down(&spec, &mut alloc, router);
        assert!(report.affected > 0, "a mid-mesh router carries traffic");
        assert_eq!(engine.stats().router_downs, 1);
        assert_no_grant_over_down_link(&alloc, engine.mask());
        // Every adjacent link is down, exactly once.
        let links: Vec<_> = router_links(spec.topology(), router).collect();
        for &l in &links {
            assert!(engine.mask().is_down(l));
        }
        assert_eq!(engine.mask().down_count(), links.len());
        // Repair raises them all and counts once.
        engine.router_up(&spec, &mut alloc, router);
        assert!(engine.mask().is_empty());
        assert_eq!(engine.stats().router_ups, 1);
    }

    /// 3x1 path mesh with one corner-to-corner connection: NI0's
    /// traffic has exactly one way out (the ingress link).
    fn severed_spec() -> (aelite_spec::SystemSpec, aelite_spec::ids::LinkId, ConnId) {
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
    fn sub_threshold_glitch_masks_admission_but_displaces_nothing() {
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = FaultEngine::new(&spec);
        let before: Vec<_> = alloc.grants().cloned().collect();
        let snapshot = |alloc: &Allocation| -> Vec<Vec<(bool, Option<ConnId>)>> {
            (0..spec.topology().link_count())
                .map(|i| {
                    let t = alloc.link_table(aelite_spec::ids::LinkId::new(i as u32));
                    (0..t.size()).map(|s| (t.is_free(s), t.owner(s))).collect()
                })
                .collect()
        };
        let tables = snapshot(&alloc);

        // Glitch the most-loaded link for less than the threshold.
        let mut load = vec![0u32; spec.topology().link_count()];
        for g in alloc.grants() {
            for &l in &g.links {
                load[l.index()] += 1;
            }
        }
        let victim = load.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        let victim = aelite_spec::ids::LinkId::new(victim as u32);
        let short = DEFAULT_PERSISTENCE_NS - 1;
        let report = engine.link_glitch(&spec, &mut alloc, victim, short);

        // Zero displacement, zero recovery activity, everything still
        // granted over the glitched link — only the mask moved.
        assert_eq!(report, RecoveryReport::default());
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
        let (taken, conn) = {
            let g = alloc
                .grants()
                .find(|g| g.links.contains(&victim))
                .expect("victim carries traffic");
            (g.clone(), g.conn)
        };
        let _ = taken;
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
        let mut engine = FaultEngine::new(&spec);
        let long = DEFAULT_PERSISTENCE_NS * 3;

        let report = engine.link_glitch(&spec, &mut alloc, ingress, long);
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
        let mut engine = FaultEngine::new(&spec);
        let short = DEFAULT_PERSISTENCE_NS / 2;

        // Sub-threshold glitch first: nothing displaced.
        engine.link_glitch(&spec, &mut alloc, ingress, short);
        assert!(alloc.grant(conn).is_some());

        // A permanent failure lands on the glitched link: the grant is
        // displaced *now*, and the glitch will not self-clear.
        let report = engine.link_down(&spec, &mut alloc, ingress);
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

    #[test]
    fn scenario_replay_holds_the_no_down_link_invariant() {
        let spec = paper_workload(42);
        let churn = churn_trace(
            &spec,
            &ChurnParams {
                events: 600,
                ..ChurnParams::steady(600)
            },
            21,
        );
        let faults = fault_trace(
            spec.topology(),
            &FaultParams {
                events: 60,
                rate_per_sec: 1.0e5,
                ..FaultParams::sparse(60)
            },
            21,
        );
        let scenario = FaultScenario::merge(&churn, &faults);
        let mut alloc = Allocation::empty_for(&spec);
        let mut engine = FaultEngine::new(&spec);
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
}
