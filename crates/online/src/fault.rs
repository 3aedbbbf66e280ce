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
//!    [`RefusalCause::LinkDown`](crate::RefusalCause::LinkDown) (or a
//!    capacity cause) and parked as *displaced*; when a repair event
//!    restores routability ([`link_up`](ChurnEngine::link_up) /
//!    [`router_up`](ChurnEngine::router_up)), displaced connections are
//!    re-homed.
//!
//! Each event yields a [`RecoveryReport`], accumulated in the engine's
//! [`ChurnStats`]. Bystander grants are never touched on any rung —
//! undisturbed service under failure is structural, not best-effort.
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
//! ([`advance_to`](ChurnEngine::advance_to) /
//! [`apply_event`](ChurnEngine::apply_event)).

use crate::api::AdmissionRequest;
use crate::engine::{ChurnEngine, ChurnStats, RerouteOutcome};
use aelite_alloc::{admission_order, Allocation, FaultMask};
use aelite_spec::fault::{FaultOp, ScenarioEvent};
use aelite_spec::ids::{ConnId, LinkId, RouterId};
use aelite_spec::topology::{Endpoint, Topology};
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
    /// open: candidates for re-homing on the next repair event.
    displaced: Vec<ConnId>,
    /// Reusable affected-grant order buffer of the recovery sweep.
    affected: Vec<ConnId>,
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

    /// Keeps the displaced ledger exact after a churn request, whichever
    /// entry point it took: a displaced connection leaves the ledger once
    /// it holds a grant again or the request closes it (`closed` is the
    /// request's close set). With nothing displaced this is one check.
    pub(crate) fn settle(&mut self, alloc: &Allocation, closed: &[ConnId]) {
        let ledger = &mut self.faults.displaced;
        if !ledger.is_empty() {
            ledger.retain(|c| alloc.grant(*c).is_none() && !closed.contains(c));
        }
    }

    /// The fault side of [`apply`](Self::apply): `false`, and nothing
    /// touched, when `fault` names a link or router outside `spec`'s
    /// topology; otherwise runs its event handler and returns `true`.
    pub(crate) fn apply_fault(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        fault: &FaultOp,
    ) -> bool {
        let topo = spec.topology();
        let link = |l: LinkId| l.index() < topo.link_count();
        let router = |r: RouterId| r.index() < topo.router_count();
        match *fault {
            FaultOp::LinkDown(l) if link(l) => self.link_down(spec, alloc, l),
            FaultOp::LinkUp(l) if link(l) => self.link_up(spec, alloc, l),
            FaultOp::RouterDown(r) if router(r) => self.router_down(spec, alloc, r),
            FaultOp::RouterUp(r) if router(r) => self.router_up(spec, alloc, r),
            FaultOp::LinkGlitch {
                link: l,
                duration_ns,
            } if link(l) => self.link_glitch(spec, alloc, l, duration_ns),
            _ => return false,
        };
        true
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
    /// Panics on platform mismatch, as [`ChurnEngine::submit`], or if
    /// `link` is not a link of `spec`'s topology
    /// ([`apply`](Self::apply) refuses such an op instead).
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
    /// Panics on platform mismatch, as [`ChurnEngine::submit`], or if an
    /// escalating glitch names a link `spec` lacks (as in
    /// [`link_down`](Self::link_down)).
    pub fn link_glitch(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        link: LinkId,
        duration_ns: u64,
    ) -> RecoveryReport {
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
                return self.recover(spec, alloc, &[link]);
            }
            return RecoveryReport::default();
        }
        if self.faults.enforced.is_down(link) {
            // Permanently down already; a glitch adds nothing.
            return RecoveryReport::default();
        }
        self.stats.glitches += 1;
        self.write_mask(|mask| mask.set_down(link));
        self.faults.glitches.push(Glitch {
            expires_ns,
            link,
            escalated: escalates,
        });
        if !escalates {
            // Mask-only: admission filtering sees the glitch, nothing
            // else moves.
            return RecoveryReport::default();
        }
        self.faults.enforced.set_down(link);
        self.stats.escalated += 1;
        self.recover(spec, alloc, &[link])
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
        if t_ns <= self.faults.now_ns {
            return total;
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
                total.restored += self.rehome(spec, alloc).restored;
            }
        }
        self.faults.now_ns = t_ns;
        total
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
        events: fn(&mut ChurnStats) -> &mut u64,
    ) -> RecoveryReport {
        let mut newly_down = Vec::new();
        for l in links {
            self.cancel_glitch(l);
            if self.faults.enforced.set_down(l) {
                self.write_mask(|mask| mask.set_down(l));
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
        events: fn(&mut ChurnStats) -> &mut u64,
    ) -> RecoveryReport {
        let mut repaired = false;
        for l in links {
            let had_glitch = self.cancel_glitch(l).is_some();
            let was_enforced = self.faults.enforced.set_up(l);
            let was_masked = self.write_mask(|mask| mask.set_up(l));
            repaired |= was_masked || was_enforced || had_glitch;
        }
        if !repaired {
            return RecoveryReport::default();
        }
        *events(&mut self.stats) += 1;
        self.rehome(spec, alloc)
    }

    /// The failure-side sweep under the grown mask: collects the grants
    /// routed over any of `newly_down` — the owners in those links' own
    /// slot tables, so the sweep reads what failed, not every grant —
    /// and walks them down the recovery ladder hardest-first.
    fn recover(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        newly_down: &[LinkId],
    ) -> RecoveryReport {
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
        let mut report = RecoveryReport {
            affected: order.len() as u32,
            ..RecoveryReport::default()
        };
        for i in 0..self.faults.affected.len() {
            let conn = self.faults.affected[i];
            match self.reroute(spec, alloc, conn) {
                Ok(RerouteOutcome::MakeBeforeBreak) => report.make_before_break += 1,
                Ok(RerouteOutcome::BreakThenMake) => report.break_then_make += 1,
                Err(_) => {
                    report.dropped += 1;
                    self.faults.displaced.push(conn);
                }
            }
        }
        let s = &mut self.stats;
        s.affected += u64::from(report.affected);
        s.make_before_break += u64::from(report.make_before_break);
        s.break_then_make += u64::from(report.break_then_make);
        s.dropped += u64::from(report.dropped);
        report
    }

    /// The repair-side sweep under the shrunk mask: re-homes the
    /// displaced ledger as **one** batched admission round —
    /// [`ChurnEngine::submit_batch`] over per-connection opens, whose
    /// canonical order is exactly the hardest-first cached-key sort of
    /// batch admission. Connections that still do not fit stay parked
    /// for the next repair; one still severed costs a single salt pass
    /// over resident routes (the mask install re-enumerated nothing).
    fn rehome(&mut self, spec: &SystemSpec, alloc: &mut Allocation) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if self.faults.displaced.is_empty() {
            return report;
        }
        // Out of the engine while the round runs, so the ledger is
        // settled once here rather than after every request of it.
        let mut displaced = core::mem::take(&mut self.faults.displaced);
        let requests: Vec<_> = displaced
            .iter()
            .map(|&c| AdmissionRequest::Open(c))
            .collect();
        let mut verdicts = Vec::new();
        self.submit_batch(spec, alloc, &requests, &mut verdicts);
        report.restored = verdicts.iter().filter(|v| v.is_ok()).count() as u32;
        displaced.retain(|&c| alloc.grant(c).is_none());
        self.faults.displaced = displaced;
        self.stats.restored += u64::from(report.restored);
        report
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aelite_alloc::{allocate, validate_allocation, Allocation};
    use aelite_spec::fault::{fault_trace, FaultParams, FaultScenario, ScenarioOp};
    use aelite_spec::generate::paper_workload;
    use aelite_spec::{churn_trace, ChurnOp, ChurnParams};

    /// No grant's route may traverse a down link — the core invariant.
    fn assert_no_grant_over_down_link(alloc: &Allocation, mask: &FaultMask) {
        for g in alloc.grants() {
            for &l in &g.links {
                assert!(!mask.is_down(l), "{} granted over down link {l}", g.conn);
            }
        }
    }

    /// The most-loaded link of `alloc` and how many grants traverse it.
    fn most_loaded_link(spec: &SystemSpec, alloc: &Allocation) -> (LinkId, u32) {
        let mut load = vec![0u32; spec.topology().link_count()];
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
        let (spec, ingress, conn) = severed_spec();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);

        let report = engine.link_down(&spec, &mut alloc, ingress);
        assert_eq!(report.affected, 1);
        assert_eq!(report.dropped, 1);
        assert_eq!(report.survived(), 0);
        assert!(alloc.grant(conn).is_none(), "no alternative path exists");
        assert_eq!(engine.displaced(), &[conn]);
        // The refusal was attributed to the fault, not to capacity.
        assert_eq!(engine.stats().refused_link_down, 1);

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
        let mut engine = ChurnEngine::new(&spec);
        let router = RouterId::new(5);
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
        let mut engine = ChurnEngine::new(&spec);
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

    #[test]
    fn fault_ops_outside_the_platform_are_refused_and_change_nothing() {
        let spec = paper_workload(42);
        let topo = spec.topology();
        let mut alloc = allocate(&spec).unwrap();
        let mut engine = ChurnEngine::new(&spec);
        // Fault state worth keeping: a failed router, a clock past zero
        // and a pending sub-threshold glitch.
        engine.router_down(&spec, &mut alloc, RouterId::new(5));
        engine.advance_to(&spec, &mut alloc, 1_000);
        engine.link_glitch(
            &spec,
            &mut alloc,
            LinkId::new(0),
            DEFAULT_PERSISTENCE_NS - 1,
        );
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
        for op in [
            FaultOp::LinkDown(link),
            FaultOp::LinkUp(link),
            FaultOp::RouterDown(router),
            FaultOp::RouterUp(router),
            glitch(DEFAULT_PERSISTENCE_NS - 1),
            glitch(DEFAULT_PERSISTENCE_NS),
        ] {
            assert!(
                !engine.apply(&spec, &mut alloc, &ScenarioOp::Fault(op)),
                "{op:?}"
            );
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
