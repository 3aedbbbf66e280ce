//! Seeded op streams against the churn engine: one driver, every
//! property.
//!
//! The driver is the small platform ([`small_spec`]), one op alphabet
//! decoded from `(kind, pick)` draws ([`World::step`] and the
//! state-blind [`decode_request`]), one per-step checker
//! ([`World::check`]), one drain ([`World::drain`]) and one twin diff
//! ([`Snapshot`]). Each property picks its mix by the `kind` range it
//! draws: `0..8` is churn only (open/close toggles and use-case
//! switches, six to two), `1..15` has seven toggles to one switch and
//! adds link and router failures and repairs, transient glitches and
//! clock advances. A churn op enters through the entry point its `pick`
//! draws: `submit` below 256 (the churn-only properties draw no
//! higher), else `apply`, a one-request `submit_batch` or `apply_event`.
//!
//! * **Churn.** Every op keeps each link's owner array and free mask in
//!   lock-step, never double-books a slot, and leaves an end state that
//!   is a valid allocation of exactly the surviving connection set
//!   (which a fresh batch allocation of that set also admits).
//! * **Faults.** No op leaves a granted route over an *enforced* down
//!   link, the displaced ledger stays exact (grantless connections
//!   only), and closing every displaced connection, repairing every
//!   link and closing every survivor leaves the platform fully free. A
//!   sub-threshold glitch leaves every slot table bit-for-bit unchanged
//!   (before and after it expires), and a threshold-crossing glitch
//!   displaces exactly what a permanent `LinkDown` would.
//! * **Batches.** A batched round over an arbitrary burst, conflicting
//!   requests included, yields the identical end state and per-request
//!   verdicts as serially submitting the same requests in canonical
//!   order, at every burst length from 1 to 8 and for the engine's
//!   batched fault re-home of a few displaced connections; the planned
//!   independent bursts of a client-population stream replay
//!   identically batched and burstwise-serial; and the threaded pipeline
//!   with one producer answers a population exactly as the serial
//!   replay does, at any hand-off shape.
//! * **Routes.** A route cache that follows the engine's admission mask
//!   serves every connection's NI pair as the eager route oracle
//!   (`tests/common/route_oracle.rs`) does under each mask a stream
//!   reaches, and no request opens a grant over a masked link.
//! * **Every stream.** Every op sequence to a small depth on a tiny
//!   platform passes the per-step checker and drains.

#[path = "common/route_oracle.rs"]
mod route_oracle;

use aelite_alloc::{
    admission_order, allocate, validate_allocation, Allocation, Allocator, FaultMask, Grant,
    RouteCache, RouteProvider, SlotTable,
};
use aelite_online::{
    canonical_order, AdmissionResponse, ChurnEngine, ChurnStats, DEFAULT_PERSISTENCE_NS,
};
use aelite_serve::{
    merge_population, plan_bursts, replay_batched, replay_serial, serve_pipeline, warm_up,
    PipelineConfig, TimedRequest,
};
use aelite_spec::churn::{client_population, ChurnParams};
use aelite_spec::{
    random_workload, AppId, ChurnOp, ConnId, FaultOp, LinkId, NiId, NocConfig, RouterId,
    ScenarioEvent, ScenarioOp, SystemSpec, Topology, WorkloadBuilder, WorkloadParams,
};
use proptest::prelude::*;
use route_oracle::{assert_serves, eager_routes, Route};

/// A small but genuinely shared platform: 2×2 mesh, 2 NIs per router,
/// 3 applications, 14 connections.
fn small_spec(seed: u64) -> SystemSpec {
    let params = WorkloadParams {
        apps: 3,
        connections: 14,
        ips: 8,
        bw_min_mb: 10,
        bw_max_mb: 80,
        lat_min_ns: 200,
        lat_max_ns: 2_000,
        message_bytes: 32,
        ni_load_cap: 0.5,
    };
    random_workload(
        Topology::mesh(2, 2, 2),
        NocConfig::paper_default(),
        params,
        seed,
    )
}

/// The glitch duration a `pick` draws: it straddles the persistence
/// threshold (sub-threshold glitches mask admission only; escalated
/// ones displace like a `LinkDown` and self-repair).
fn glitch_ns(pick: u16) -> u64 {
    (u64::from(pick) * 37) % (2 * DEFAULT_PERSISTENCE_NS) + 1
}

/// Decodes one draw into a (possibly conflicting, possibly
/// state-mismatched) admission request, blind to the engine's state:
/// totality is part of what the batch equivalences must cover.
fn decode_request(spec: &SystemSpec, kind: u8, pick: u16) -> ChurnOp {
    let conns = spec.connections();
    let conn = conns[pick as usize % conns.len()].id;
    match kind % 8 {
        0..=2 => ChurnOp::Open(conn),
        3..=5 => ChurnOp::Close(conn),
        _ => {
            // An arbitrary small switch; sides may overlap other
            // requests of the burst or name open/closed conns wrongly.
            let app = AppId::new(u32::from(pick) % spec.apps().len() as u32);
            let side: Vec<ConnId> = spec.app_connections(app).map(|c| c.id).collect();
            let mid = (pick as usize / 7) % (side.len() + 1);
            ChurnOp::Switch {
                close: side[..mid].to_vec(),
                open: side[mid..].to_vec(),
            }
        }
    }
}

/// What a twin diff compares: every slot table, every grant, the
/// counters and the displaced ledger.
#[derive(Debug, PartialEq)]
struct Snapshot {
    tables: Vec<SlotTable>,
    grants: Vec<Grant>,
    stats: ChurnStats,
    displaced: Vec<ConnId>,
}

/// One engine and the allocation it serves, with a route cache that
/// follows the engine's admission mask and, once a mask first moves,
/// the oracle's candidates for each NI pair the spec's connections
/// route.
struct World {
    engine: ChurnEngine,
    alloc: Allocation,
    routes: RouteCache,
    eager: Vec<(NiId, NiId, Vec<Route>)>,
}

impl World {
    fn new(spec: &SystemSpec) -> Self {
        World {
            engine: ChurnEngine::new(spec),
            alloc: Allocation::empty_for(spec),
            routes: RouteCache::new(spec.topology(), Allocator::new().max_paths),
            eager: Vec::new(),
        }
    }

    fn snapshot(&self, spec: &SystemSpec) -> Snapshot {
        Snapshot {
            tables: spec
                .topology()
                .links()
                .map(|l| self.alloc.link_table(l).clone())
                .collect(),
            grants: self.alloc.grants().cloned().collect(),
            stats: *self.engine.stats(),
            displaced: self.engine.displaced().to_vec(),
        }
    }

    /// Services one churn request through the entry point `entry`
    /// draws: `submit`, `apply`, a one-request `submit_batch`, or
    /// `apply_event` at the engine's own clock — every way a request can
    /// enter. Whichever it takes, the verdict and the end state agree: a
    /// close of a granted connection is accepted, a close set ends
    /// grantless, an open set is granted iff the request was accepted
    /// (a refused switch rolls its opens back) and clear of every masked
    /// link, and every connection the request does not name keeps its
    /// grant, or its lack of one, exactly.
    fn churn(&mut self, spec: &SystemSpec, op: ChurnOp, entry: u16) {
        let (engine, alloc) = (&mut self.engine, &mut self.alloc);
        let (close, open) = match &op {
            ChurnOp::Open(c) => (&[][..], std::slice::from_ref(c)),
            ChurnOp::Close(c) => (std::slice::from_ref(c), &[][..]),
            ChurnOp::Switch { close, open } => (&close[..], &open[..]),
        };
        let bystanders: Vec<(ConnId, Option<Grant>)> = spec
            .connections()
            .iter()
            .filter(|c| !close.contains(&c.id) && !open.contains(&c.id))
            .map(|c| (c.id, alloc.grant(c.id).cloned()))
            .collect();
        let held = matches!(op, ChurnOp::Close(c) if alloc.grant(c).is_some());
        let ok = match entry % 4 {
            0 => engine.submit(spec, alloc, op.clone()).is_ok(),
            1 => engine.apply(spec, alloc, &ScenarioOp::Churn(op.clone())),
            2 => {
                let mut verdicts = Vec::new();
                engine.submit_batch(spec, alloc, std::slice::from_ref(&op), &mut verdicts);
                verdicts[0].is_ok()
            }
            _ => {
                let event = ScenarioEvent {
                    at_ns: engine.now_ns(),
                    op: ScenarioOp::Churn(op.clone()),
                };
                engine.apply_event(spec, alloc, &event)
            }
        };
        assert!(ok || !held, "close of a granted connection refused");
        for &c in close {
            assert!(alloc.grant(c).is_none(), "{c} still granted after {op:?}");
        }
        for &c in open {
            let grant = alloc.grant(c);
            assert_eq!(grant.is_some(), ok, "{c} after {op:?}");
            // Admission routes under the whole admission mask, links a
            // sub-threshold glitch masks included.
            if let Some(g) = grant {
                assert!(
                    !engine.mask().blocks(&g.links),
                    "{c} opened over a masked link"
                );
            }
        }
        for (c, grant) in &bystanders {
            assert_eq!(
                alloc.grant(*c),
                grant.as_ref(),
                "bystander {c} moved by {op:?}"
            );
        }
    }

    /// Applies one fault op, which names a link or router of `spec`.
    fn fault(&mut self, spec: &SystemSpec, op: FaultOp) {
        let applied = self
            .engine
            .apply(spec, &mut self.alloc, &ScenarioOp::Fault(op));
        assert!(applied, "{op:?}");
    }

    /// One op of the alphabet, decoded from two draws: `kind` 1–6 and
    /// 8 toggle a connection, 0 and 7 switch use cases, and 9–14 are
    /// fault, repair, transient glitch and clock-advance events, so the
    /// range `0..8` draws churn only and `1..15` everything. The high
    /// bits of `pick` choose the churn entry point.
    fn step(&mut self, spec: &SystemSpec, kind: u8, pick: u16) {
        let topo = spec.topology();
        let link = LinkId::new(u32::from(pick) % topo.link_count() as u32);
        let router = RouterId::new(u32::from(pick) % topo.router_count() as u32);
        let granted = |alloc: &Allocation, c: ConnId| alloc.grant(c).is_some();
        match kind % 15 {
            // Toggle a pseudo-random connection (the common single-op
            // churn).
            1..=6 | 8 => {
                let conns = spec.connections();
                let id = conns[pick as usize % conns.len()].id;
                let op = if granted(&self.alloc, id) {
                    ChurnOp::Close(id)
                } else {
                    ChurnOp::Open(id)
                };
                self.churn(spec, op, pick >> 8);
            }
            // Use-case switch: one app's granted set out, another's
            // grantless set in (refusals roll back).
            0 | 7 => {
                let apps = spec.apps().len() as u32;
                let side = |app: u32, want: bool| -> Vec<ConnId> {
                    spec.app_connections(AppId::new(app % apps))
                        .filter(|c| granted(&self.alloc, c.id) == want)
                        .map(|c| c.id)
                        .collect()
                };
                let close = side(u32::from(pick), true);
                let open = side(u32::from(pick) + 1, false);
                self.churn(spec, ChurnOp::Switch { close, open }, pick >> 8);
            }
            9 => self.fault(spec, FaultOp::LinkDown(link)),
            10 => self.fault(spec, FaultOp::LinkUp(link)),
            11 => self.fault(spec, FaultOp::RouterDown(router)),
            12 => self.fault(spec, FaultOp::RouterUp(router)),
            13 => {
                let duration_ns = glitch_ns(pick);
                self.fault(spec, FaultOp::LinkGlitch { link, duration_ns });
            }
            // Advance the scenario clock: pending glitches expire.
            _ => {
                let t = self.engine.now_ns() + 1 + u64::from(pick) * 50;
                self.engine.advance_to(spec, &mut self.alloc, t);
            }
        }
    }

    /// The per-step checker: what must hold after every op of every
    /// stream.
    fn check(&mut self, spec: &SystemSpec) {
        let (engine, alloc) = (&self.engine, &self.alloc);
        // Whenever the admission mask moves, the route cache, walked
        // under the new mask, serves every pair as the oracle does.
        if self.routes.faults() != engine.mask() {
            self.routes.set_faults(engine.mask());
            if self.eager.is_empty() {
                let (topo, max_paths) = (spec.topology(), self.routes.max_paths());
                let mut pairs: Vec<(NiId, NiId)> = spec
                    .connections()
                    .iter()
                    .map(|c| (spec.ip_ni(c.src), spec.ip_ni(c.dst)))
                    .collect();
                pairs.sort_unstable();
                pairs.dedup();
                self.eager = pairs
                    .into_iter()
                    .map(|(s, d)| (s, d, eager_routes(topo, s, d, max_paths)))
                    .collect();
            }
            for (s, d, eager) in &self.eager {
                assert_serves(&mut self.routes, spec.topology(), *s, *d, eager);
            }
        }
        let shift = spec.config().slots_per_hop();
        for l in spec.topology().links() {
            // Grants may ride out sub-threshold glitches, which mask
            // admission without displacing anyone: masked ⊇ enforced.
            let enforced = engine.enforced().is_down(l);
            assert!(
                !enforced || engine.mask().is_down(l),
                "{l} enforced, not masked"
            );
            // Lock-step: the free mask and the owner array agree, and
            // every reserved slot belongs to a live grant.
            let table = alloc.link_table(l);
            for s in 0..table.size() {
                let owner = table.owner(s);
                assert_eq!(table.is_free(s), owner.is_none(), "{l} slot {s}: lock-step");
                if let Some(c) = owner {
                    assert!(
                        alloc.grant(c).is_some(),
                        "{l} slot {s}: owned by closed {c}"
                    );
                }
            }
        }
        // Every grant is where it says it is, shift-consistent, and no
        // granted route traverses an enforced down link.
        for g in alloc.grants() {
            for (i, &l) in g.links.iter().enumerate() {
                assert!(!engine.enforced().is_down(l), "{} over down {l}", g.conn);
                for &s in &g.inject_slots {
                    let owner = alloc.link_table(l).owner(s + i as u32 * shift);
                    assert_eq!(owner, Some(g.conn), "grant of {} not on hop {i}", g.conn);
                }
            }
        }
        // The displaced ledger holds only grantless connections, each
        // once.
        for (i, &c) in engine.displaced().iter().enumerate() {
            assert!(alloc.grant(c).is_none(), "displaced {c} holds a grant");
            assert!(!engine.displaced()[..i].contains(&c), "{c} displaced twice");
        }
        // Recovery accounting closes: every affected grant either
        // survived (re-routed) or was dropped.
        let s = engine.stats();
        assert_eq!(s.survived() + s.dropped, s.affected);
    }

    /// Closes every displaced connection, repairs every link and closes
    /// every survivor, checking after each op; then every table must be
    /// as free as a fresh one. The parked connections are closed
    /// *before* the repair, through each entry point in turn, so a
    /// close that failed to settle one would let the repair re-home it
    /// into a table the drain expects empty.
    fn drain(&mut self, spec: &SystemSpec) {
        for (k, c) in self.engine.displaced().to_vec().into_iter().enumerate() {
            self.churn(spec, ChurnOp::Close(c), k as u16);
            self.check(spec);
        }
        assert!(self.engine.displaced().is_empty(), "ledger not settled");
        // Every down link comes back up (cancelling any pending glitch
        // on it).
        for l in spec.topology().links() {
            self.fault(spec, FaultOp::LinkUp(l));
            self.check(spec);
        }
        assert!(self.engine.mask().is_empty());
        let open: Vec<ConnId> = self.alloc.grants().map(|g| g.conn).collect();
        for (k, c) in open.into_iter().enumerate() {
            self.churn(spec, ChurnOp::Close(c), k as u16);
            self.check(spec);
        }
        let free = SlotTable::new(spec.config().slot_table_size);
        for l in spec.topology().links() {
            assert_eq!(self.alloc.link_table(l), &free, "{l} not drained");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The engine invariants hold after *every* operation of an
    /// arbitrary interleaving, and the end state is a valid allocation
    /// of exactly the surviving set.
    #[test]
    fn interleaved_churn_preserves_invariants(
        seed in 0u64..4,
        script in proptest::collection::vec((0u8..8, 0u16..256), 1..40),
    ) {
        let spec = small_spec(seed);
        let mut w = World::new(&spec);
        for &(kind, pick) in &script {
            w.step(&spec, kind, pick);
            w.check(&spec);
        }

        // End state: a valid allocation of exactly the surviving set
        // (every op checked every connection's grant against what it
        // asked for, so the granted set is that set)...
        let surviving: Vec<ConnId> = w.alloc.grants().map(|g| g.conn).collect();
        let view = spec.restricted_to_connections(&surviving);
        validate_allocation(&view, &w.alloc)
            .unwrap_or_else(|v| panic!("end state invalid: {v:?}"));
        // ... and the surviving set is batch-allocatable from scratch
        // (slot placements may differ; validity is the contract).
        if !surviving.is_empty() {
            let fresh = allocate(&view).expect("surviving set batch-allocates");
            validate_allocation(&view, &fresh).expect("fresh allocation valid");
            for &c in &surviving {
                prop_assert!(fresh.grant(c).is_some());
            }
        }
    }

    /// Closing every open connection returns every link table to fully
    /// free — no leaked reservations, mask and owners in lock-step.
    #[test]
    fn draining_the_system_frees_every_slot(
        seed in 0u64..4,
        script in proptest::collection::vec((0u8..8, 0u16..256), 1..30),
    ) {
        let spec = small_spec(seed);
        let mut w = World::new(&spec);
        for &(kind, pick) in &script {
            w.step(&spec, kind, pick);
        }
        w.drain(&spec);
    }

    /// The fault invariants hold after *every* operation of an
    /// arbitrary churn/fault/glitch interleaving.
    #[test]
    fn interleaved_faults_never_grant_over_a_down_link(
        seed in 0u64..4,
        script in proptest::collection::vec((1u8..15, 0u16..1024), 1..40),
    ) {
        let spec = small_spec(seed);
        let mut w = World::new(&spec);
        for &(kind, pick) in &script {
            w.step(&spec, kind, pick);
            w.check(&spec);
        }
    }

    /// Closing every displaced connection, repairing every link and
    /// closing every survivor returns the platform to fully free: empty
    /// mask, empty ledger, no leaked reservation anywhere.
    #[test]
    fn repairing_and_draining_frees_every_slot(
        seed in 0u64..4,
        script in proptest::collection::vec((1u8..15, 0u16..1024), 1..30),
    ) {
        let spec = small_spec(seed);
        let mut w = World::new(&spec);
        for &(kind, pick) in &script {
            w.step(&spec, kind, pick);
            w.check(&spec);
        }
        w.drain(&spec);
    }

    /// A sub-threshold glitch is invisible to the slot tables: whatever
    /// state an arbitrary interleaving left behind, the glitch (and its
    /// later expiry) changes not one slot, displaces nobody, and leaves
    /// the displaced ledger untouched.
    #[test]
    fn sub_threshold_glitch_leaves_every_table_bit_for_bit(
        seed in 0u64..4,
        script in proptest::collection::vec((1u8..15, 0u16..1024), 1..30),
        pick in 0u16..1024,
    ) {
        let spec = small_spec(seed);
        let mut w = World::new(&spec);
        for &(kind, p) in &script {
            w.step(&spec, kind, p);
        }
        // Settle every pending glitch so the snapshot is quiescent.
        let settle = w.engine.now_ns() + 10 * DEFAULT_PERSISTENCE_NS;
        w.engine.advance_to(&spec, &mut w.alloc, settle);
        let before = w.snapshot(&spec);
        // The glitch and its expiry count themselves and nothing else.
        let quiet = |w: &World| {
            let mut s = w.snapshot(&spec);
            s.stats.glitches = before.stats.glitches;
            s.stats.glitch_expiries = before.stats.glitch_expiries;
            s
        };

        let link = LinkId::new(u32::from(pick) % spec.topology().link_count() as u32);
        let duration_ns = 1 + u64::from(pick) % (DEFAULT_PERSISTENCE_NS - 1);
        w.fault(&spec, FaultOp::LinkGlitch { link, duration_ns });
        prop_assert_eq!(&quiet(&w), &before, "the glitch moved something");

        w.engine.advance_to(&spec, &mut w.alloc, settle + 2 * DEFAULT_PERSISTENCE_NS);
        prop_assert_eq!(&quiet(&w), &before, "the expiry moved something");
        prop_assert!(!w.engine.mask().is_down(link) || w.engine.enforced().is_down(link));
    }

    /// A threshold-crossing glitch displaces exactly what a permanent
    /// `LinkDown` would: same survivor grants, same ledger, same tables
    /// — the only difference is that the glitch self-repairs when the
    /// clock passes its expiry.
    #[test]
    fn escalated_glitch_behaves_like_a_permanent_link_down(
        seed in 0u64..4,
        script in proptest::collection::vec((1u8..15, 0u16..1024), 1..30),
        pick in 0u16..1024,
    ) {
        let spec = small_spec(seed);
        let (mut a, mut b) = (World::new(&spec), World::new(&spec));
        for &(kind, p) in &script {
            a.step(&spec, kind, p);
            b.step(&spec, kind, p);
        }
        let settle = a.engine.now_ns() + 10 * DEFAULT_PERSISTENCE_NS;
        a.engine.advance_to(&spec, &mut a.alloc, settle);
        b.engine.advance_to(&spec, &mut b.alloc, settle);

        let link = LinkId::new(u32::from(pick) % spec.topology().link_count() as u32);
        // A glitch on an already-failed link is a no-op in both engines;
        // the self-repair contrast below only applies to a fresh glitch.
        let was_down = a.engine.enforced().is_down(link);
        let duration_ns = DEFAULT_PERSISTENCE_NS + u64::from(pick);
        a.fault(&spec, FaultOp::LinkGlitch { link, duration_ns });
        b.fault(&spec, FaultOp::LinkDown(link));

        // The two events are counted apart; what they did is not.
        let recovery = |w: &World| {
            let mut s = w.snapshot(&spec);
            (s.stats.glitches, s.stats.escalated, s.stats.link_downs) = (0, 0, 0);
            s
        };
        prop_assert_eq!(recovery(&a), recovery(&b));
        prop_assert!(a.engine.enforced().is_down(link) == b.engine.enforced().is_down(link));

        // Only the glitch self-repairs.
        a.engine.advance_to(&spec, &mut a.alloc, settle + duration_ns + 1);
        if !was_down {
            prop_assert!(!a.engine.mask().is_down(link));
        }
        prop_assert!(b.engine.mask().is_down(link));
    }

    /// `submit_batch` over an arbitrary burst ≡ serial `submit` of the
    /// same requests in `canonical_order`: identical verdicts at every
    /// arrival index, identical engine counters, identical end state
    /// down to each slot's free bit and owner. Every prefix of `short`
    /// is one more burst, so each case runs every length 1..=8 — both
    /// sides of the serial floor of 4 that `submit_batch` used to fork
    /// on — and the case ends with the engine's fault re-home of up to
    /// `rehome` displaced connections, the other caller whose bursts
    /// sat under that floor.
    #[test]
    fn batched_round_equals_serial_canonical(
        seed in 0u64..4,
        prelude in proptest::collection::vec((0u8..8, 0u16..1024), 0..20),
        bursts in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u16..1024), 1..16), 1..5),
        short in proptest::collection::vec((0u8..8, 0u16..1024), 8),
        rehome in 1usize..=4,
    ) {
        let spec = small_spec(seed);
        let (mut a, mut b) = (World::new(&spec), World::new(&spec));

        // Identical arbitrary starting state on both sides.
        for &(kind, pick) in &prelude {
            let req = decode_request(&spec, kind, pick);
            let va = a.engine.submit(&spec, &mut a.alloc, req.clone());
            let vb = b.engine.submit(&spec, &mut b.alloc, req);
            prop_assert_eq!(va, vb);
        }

        let mut order = Vec::new();
        let mut verdicts_a = Vec::new();
        let prefixes = (1..=short.len()).map(|n| &short[..n]);
        for burst in bursts.iter().map(Vec::as_slice).chain(prefixes) {
            let requests: Vec<ChurnOp> = burst
                .iter()
                .map(|&(kind, pick)| decode_request(&spec, kind, pick))
                .collect();

            // A: one batched admission round.
            a.engine.submit_batch(&spec, &mut a.alloc, &requests, &mut verdicts_a);
            prop_assert_eq!(verdicts_a.len(), requests.len());

            // B: serial submits in canonical order, verdicts landed at
            // their arrival indices.
            canonical_order(&spec, &requests, &mut order);
            let mut verdicts_b = vec![None; requests.len()];
            for &i in &order {
                verdicts_b[i] =
                    Some(b.engine.submit(&spec, &mut b.alloc, requests[i].clone()));
            }

            for (i, v) in verdicts_a.iter().enumerate() {
                prop_assert_eq!(Some(*v), verdicts_b[i], "verdict {} diverged", i);
            }
            prop_assert_eq!(a.snapshot(&spec), b.snapshot(&spec));
        }

        // Sever the NI that sources the most connections, with `rehome`
        // of them open: no route avoids an NI's ingress link, so each is
        // dropped and parked, and the repair re-homes them as one
        // `submit_batch` burst of opens.
        let src_ni = |c: &aelite_spec::Connection| spec.ip_ni(c.src);
        let sourced_at =
            |ni| spec.connections().iter().filter(move |&c| src_ni(c) == ni).map(|c| c.id);
        let ni = spec
            .connections()
            .iter()
            .map(src_ni)
            .max_by_key(|&ni| (sourced_at(ni).count(), core::cmp::Reverse(ni)))
            .expect("the spec has connections");
        let link = spec.topology().ni_ingress_link(ni);
        for (k, c) in sourced_at(ni).enumerate() {
            let op = if k < rehome { ChurnOp::Open(c) } else { ChurnOp::Close(c) };
            a.engine.apply(&spec, &mut a.alloc, &ScenarioOp::Churn(op.clone()));
            b.engine.apply(&spec, &mut b.alloc, &ScenarioOp::Churn(op));
        }
        // B runs the ladder by hand: it keeps no ledger and counts no
        // fault event or recovery, so the diff reads the rest.
        let by_hand = |w: &World| Snapshot {
            stats: ChurnStats {
                link_downs: 0,
                link_ups: 0,
                affected: 0,
                make_before_break: 0,
                break_then_make: 0,
                dropped: 0,
                restored: 0,
                ..*w.engine.stats()
            },
            displaced: Vec::new(),
            ..w.snapshot(&spec)
        };

        // A: the engine's recovery ladder. B: the same ladder by hand —
        // mask, affected grants hardest-first, reroute each.
        let before = *a.engine.stats();
        a.fault(&spec, FaultOp::LinkDown(link));
        let down = a.engine.stats().delta(&before);
        let mut mask = FaultMask::new();
        mask.set_down(link);
        b.engine.set_faults(&mask);
        let mut affected: Vec<ConnId> = b
            .alloc
            .grants()
            .filter(|g| g.links.contains(&link))
            .map(|g| g.conn)
            .collect();
        admission_order(&spec, &mut affected);
        affected.retain(|&c| b.engine.reroute(&spec, &mut b.alloc, c).is_err());
        let displaced = affected;
        prop_assert!((1..=rehome).contains(&displaced.len()), "{} displaced", displaced.len());
        prop_assert_eq!(down.dropped as usize, displaced.len());
        prop_assert_eq!(a.engine.displaced(), &displaced[..]);
        prop_assert_eq!(by_hand(&a), by_hand(&b));

        // A: the repair's batched re-home. B: the displaced opens
        // submitted serially in canonical order.
        let before = *a.engine.stats();
        a.fault(&spec, FaultOp::LinkUp(link));
        let up = a.engine.stats().delta(&before);
        mask.set_up(link);
        b.engine.set_faults(&mask);
        let requests: Vec<ChurnOp> = displaced.iter().map(|&c| ChurnOp::Open(c)).collect();
        canonical_order(&spec, &requests, &mut order);
        let mut restored = 0u64;
        for &i in &order {
            if b.engine.submit(&spec, &mut b.alloc, requests[i].clone()).is_ok() {
                restored += 1;
            }
        }
        prop_assert_eq!(up.restored, restored);
        prop_assert!(restored > 0, "a repaired empty link re-admits");
        prop_assert_eq!(by_hand(&a), by_hand(&b));
    }

    /// The deterministic batched replay of a client-population stream
    /// equals applying each planned burst serially in canonical order —
    /// end state, verdict count and counters.
    #[test]
    fn population_replay_batched_equals_burstwise_serial(
        clients in 2u32..8,
        events in 20u32..60,
        seed in 0u64..3,
        cap in 2usize..32,
    ) {
        let spec = small_spec(1);
        let stream = merge_population(client_population(
            &spec, clients, &ChurnParams::steady(events), seed,
        ));
        let warmup = stream.len() / 4;
        let (mut a, mut b) = (World::new(&spec), World::new(&spec));

        warm_up(&spec, &mut a.engine, &mut a.alloc, &stream, warmup);
        let report = replay_batched(&spec, &mut a.engine, &mut a.alloc, &stream[warmup..], cap);

        warm_up(&spec, &mut b.engine, &mut b.alloc, &stream, warmup);
        let timed = &stream[warmup..];
        let mut order = Vec::new();
        let mut admitted = 0u64;
        for burst in plan_bursts(timed, cap) {
            let requests: Vec<ChurnOp> =
                timed[burst].iter().map(|r| r.request.clone()).collect();
            canonical_order(&spec, &requests, &mut order);
            for &i in &order {
                if b.engine.submit(&spec, &mut b.alloc, requests[i].clone()).is_ok() {
                    admitted += 1;
                }
            }
        }

        prop_assert_eq!(report.admitted, admitted);
        prop_assert_eq!(report.requests, timed.len() as u64);
        prop_assert_eq!(a.snapshot(&spec), b.snapshot(&spec));
    }

    /// `serve_pipeline` with one producer ≡ `replay_serial` over the
    /// per-client streams back to back, whatever chunk size and queue
    /// depth the hand-off runs at (rendezvous included): the live path
    /// admits in arrival order and nothing else.
    #[test]
    fn one_producer_pipeline_equals_serial_replay(
        clients in 2u32..8,
        events in 20u32..60,
        seed in 0u64..3,
        burst_cap in 1usize..40,
        queue_depth in 0usize..80,
    ) {
        let spec = small_spec(1);
        let streams: Vec<Vec<TimedRequest>> =
            client_population(&spec, clients, &ChurnParams::steady(events), seed)
                .into_iter()
                .map(|ct| merge_population(vec![ct]))
                .collect();
        let concat: Vec<TimedRequest> = streams.iter().flatten().cloned().collect();
        let (mut a, mut b) = (World::new(&spec), World::new(&spec));

        let cfg = PipelineConfig { producers: 1, burst_cap, queue_depth };
        let piped = serve_pipeline(&spec, &mut a.engine, &mut a.alloc, &streams, &cfg);
        let serial = replay_serial(&spec, &mut b.engine, &mut b.alloc, &concat);

        prop_assert_eq!(piped.replay.requests, serial.requests);
        prop_assert_eq!(piped.replay.bursts, serial.bursts);
        prop_assert_eq!(piped.replay.admitted, serial.admitted);
        prop_assert_eq!(piped.latency.count(), serial.requests);
        prop_assert_eq!(a.snapshot(&spec), b.snapshot(&spec));
    }

    /// Batch verdicts are faithful: every `Opened`/`Closed`/`Switched`
    /// response left the named connections in the promised state when no
    /// later request of the same burst touched them again.
    #[test]
    fn burst_verdicts_match_end_state_for_unconflicted_requests(
        seed in 0u64..4,
        burst in proptest::collection::vec((0u8..6, 0u16..1024), 1..14),
    ) {
        let spec = small_spec(seed);
        let mut w = World::new(&spec);
        // Half-open starting state, deterministically.
        for c in spec.connections().iter().step_by(2) {
            let _ = w.engine.submit(&spec, &mut w.alloc, ChurnOp::Open(c.id));
        }
        let requests: Vec<ChurnOp> = burst
            .iter()
            .map(|&(kind, pick)| decode_request(&spec, kind, pick))
            .collect();
        let mut verdicts = Vec::new();
        w.engine.submit_batch(&spec, &mut w.alloc, &requests, &mut verdicts);

        let touched_once = |c: ConnId| {
            requests
                .iter()
                .filter(|r| match r {
                    ChurnOp::Open(x) | ChurnOp::Close(x) => *x == c,
                    ChurnOp::Switch { close, open } => close.contains(&c) || open.contains(&c),
                })
                .count()
                == 1
        };
        let alloc = &w.alloc;
        for (req, verdict) in requests.iter().zip(&verdicts) {
            match (req, verdict) {
                (ChurnOp::Open(c), Ok(AdmissionResponse::Opened(r))) => {
                    prop_assert_eq!(c, r);
                    if touched_once(*c) {
                        prop_assert!(alloc.grant(*c).is_some());
                    }
                }
                (ChurnOp::Close(c), Ok(AdmissionResponse::Closed(r))) => {
                    prop_assert_eq!(c, r);
                    if touched_once(*c) {
                        prop_assert!(alloc.grant(*c).is_none());
                    }
                }
                (ChurnOp::Switch { close, open },
                 Ok(AdmissionResponse::Switched { opened, .. })) => {
                    prop_assert_eq!(*opened as usize, open.len());
                    for c in close.iter().filter(|&&c| touched_once(c)) {
                        prop_assert!(alloc.grant(*c).is_none());
                    }
                    for c in open.iter().filter(|&&c| touched_once(c)) {
                        prop_assert!(alloc.grant(*c).is_some());
                    }
                }
                (_, Err(_)) => {}
                (req, verdict) => {
                    prop_assert!(false, "mismatched verdict {:?} for {:?}", verdict, req);
                }
            }
        }
    }
}

/// The enumerator's platform: a 2×2 mesh with one NI per router,
/// 8-slot tables, 4 connections in 2 applications.
fn tiny_spec() -> SystemSpec {
    WorkloadBuilder::mesh(2, 2, 1)
        .connections(4)
        .apps(2)
        .slot_table_size(8)
        .seed(1)
        .build()
}

/// Every distinct op of the alphabet on `spec`, as the `(kind, pick)`
/// draws [`World::step`] decodes: each connection toggle and each
/// app's switch through each entry point, each link and router down
/// and up, a glitch on each link on either side of the persistence
/// threshold, a one-nanosecond tick and an advance past every glitch.
fn alphabet(spec: &SystemSpec) -> Vec<(u8, u16)> {
    let topo = spec.topology();
    let (links, routers) = (topo.link_count() as u16, topo.router_count() as u16);
    let entered = |kind: u8, targets: usize| {
        (0..4u16).flat_map(move |e| (0..targets as u16).map(move |t| (kind, t | e << 8)))
    };
    let mut ops: Vec<(u8, u16)> = entered(1, spec.connections().len())
        .chain(entered(0, spec.apps().len()))
        .collect();
    for (kind, targets) in [(9, links), (10, links), (11, routers), (12, routers)] {
        ops.extend((0..targets).map(|t| (kind, t)));
    }
    for link in 0..links {
        for escalates in [false, true] {
            let pick = (link..1024)
                .step_by(links.into())
                .find(|&p| (glitch_ns(p) >= DEFAULT_PERSISTENCE_NS) == escalates)
                .expect("picks of this link straddle the threshold");
            ops.push((13, pick));
        }
    }
    ops.extend([(14, 0), (14, 1023)]);
    ops
}

/// Runs every op sequence of length 1 to `depth` over the tiny
/// platform's alphabet from an empty engine, checking after every op,
/// then drains each.
fn every_stream(depth: u32) {
    let spec = tiny_spec();
    let ops = alphabet(&spec);
    for len in 1..=depth {
        for mut code in 0..ops.len().pow(len) {
            let mut w = World::new(&spec);
            for _ in 0..len {
                let (kind, pick) = ops[code % ops.len()];
                code /= ops.len();
                w.step(&spec, kind, pick);
                w.check(&spec);
            }
            w.drain(&spec);
        }
    }
}

#[test]
fn every_stream_to_depth_2_checks_and_drains() {
    every_stream(2);
}

#[test]
#[ignore = "about a million streams (~22 s in release): run in release"]
fn every_stream_to_depth_3_checks_and_drains() {
    every_stream(3);
}
