//! The TDM allocation flow: paths + slots for every connection.
//!
//! This plays the role of the Æthereal design-time resource-allocation
//! tools the paper reuses (\[16\] in the paper). For every connection it
//! chooses a source route and a set of TDM injection slots such that:
//!
//! * **contention freedom** — on every link of the path, the slot shifted
//!   by the link's position is exclusively reserved (no two flits ever
//!   arrive at the same link in the same slot, Section III);
//! * **bandwidth** — enough slots are reserved to carry the contracted
//!   throughput under the conservative one-header-word-per-flit payload
//!   model;
//! * **latency** — the worst-case wait-plus-serialisation window plus the
//!   path's pipeline delay meets the connection's latency requirement,
//!   adding extra slots beyond the bandwidth minimum when needed (the
//!   paper: reservations "do not have to correspond to the worst-case
//!   requirements if this is not needed").
//!
//! # The admission kernel
//!
//! One admission asks, per candidate route, which injection slots are
//! free on every link of the route, link `i` shifted by
//! `i * slots_per_hop`. That is one fused path-intersection kernel,
//! [`SlotMask::intersect_path`], over the route's link free masks: on
//! tables of at most 64 slots the masks live inline in the
//! [`SlotTable`]s, so each link costs one load, one circular rotate and
//! one AND into a register, with the shift stepped by addition. The
//! mask sizes are checked once per round by
//! [`Allocator::begin_round`], and only by a `debug_assert!` in the
//! kernel. The (src, dst) route entry is resolved once per admission
//! (`RouteCache::pair`); spare-capacity steering scores candidates and
//! the candidate walk tries them through that one handle and the same
//! per-link free-mask view.

use crate::mask::SlotMask;
use crate::path::Path;
use crate::route_cache::{PairRoutes, RouteCache, RouteProvider};
use crate::table::SlotTable;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::{ConnId, LinkId};
use aelite_spec::timing::{
    deadline_cycles, latency_bound_cycles, max_injection_gap, pipeline_cycles, slot_estimate,
    SlotService,
};
use core::fmt;

/// The resources granted to one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The connection this grant belongs to.
    pub conn: ConnId,
    /// The source route.
    pub path: Path,
    /// Injection slots at the source NI, strictly ascending.
    pub inject_slots: Vec<u32>,
    /// The links of [`path`](Self::path) in traversal order; link *i* is
    /// used in slot `inject + i * slots_per_hop` (modulo the table size),
    /// where `slots_per_hop` accounts for mesochronous pipeline stages.
    pub links: Vec<LinkId>,
}

/// A complete, contention-free resource allocation for a system.
#[derive(Debug, Clone)]
pub struct Allocation {
    table_size: u32,
    /// `slots_per_hop` of the config this allocation was built for — the
    /// per-link slot shift, remembered so a grant can be torn down from
    /// its own slot list in O(slots × links) without consulting the spec.
    slots_per_hop: u32,
    link_tables: Vec<SlotTable>,
    grants: Vec<Option<Grant>>,
}

impl Allocation {
    /// An allocation for `spec` with no grants: what a batch pass starts
    /// from, and the starting point for incremental flows that admit
    /// connections one at a time through [`Allocator::admit_in_round`]
    /// (the online engines; a design-space sweep measuring how many
    /// connections of an oversubscribed workload fit).
    #[must_use]
    pub fn empty_for(spec: &SystemSpec) -> Self {
        Allocation {
            table_size: spec.config().slot_table_size,
            slots_per_hop: spec.config().slots_per_hop(),
            link_tables: (0..spec.topology().link_count())
                .map(|_| SlotTable::new(spec.config().slot_table_size))
                .collect(),
            grants: vec![None; spec.conn_id_bound()],
        }
    }

    /// The NoC-wide slot-table size.
    #[must_use]
    pub fn table_size(&self) -> u32 {
        self.table_size
    }

    /// Releases the grant of `conn` and returns it — the O(Δ) teardown
    /// kernel of the online reconfiguration flow.
    ///
    /// The grant's own slot list is the exact set of reservations it
    /// holds (slot `s + i * slots_per_hop` on link *i*), so teardown
    /// touches precisely `inject_slots × links` table entries and their
    /// free-mask words: proportional to the connection being closed, not
    /// to the platform. Callers that churn connections at high rate keep
    /// the returned [`Grant`] in an [`AllocScratch`] pool so its buffers
    /// are recycled by the next admission.
    pub fn take_grant(&mut self, conn: ConnId) -> Option<Grant> {
        let grant = self.grants.get_mut(conn.index()).and_then(Option::take)?;
        for (i, &l) in grant.links.iter().enumerate() {
            let table = &mut self.link_tables[l.index()];
            for &s in &grant.inject_slots {
                let prev = table.release(s + i as u32 * self.slots_per_hop);
                debug_assert_eq!(prev, Some(conn), "table out of sync with grant");
            }
        }
        Some(grant)
    }

    /// Removes the grant of `conn` from the grant map while **leaving
    /// its slot reservations in place** — the first half of a
    /// make-before-break re-route.
    ///
    /// The detached grant still owns its table entries, so a replacement
    /// admission for the same connection cannot collide with the old
    /// path's slots (the tables report them reserved). Callers must
    /// eventually pass the returned grant to
    /// [`release_reservations_of`](Allocation::release_reservations_of)
    /// — either after the replacement is committed (make-before-break)
    /// or before a retry (break-then-make) — or the slots leak.
    pub fn detach_grant(&mut self, conn: ConnId) -> Option<Grant> {
        self.grants.get_mut(conn.index()).and_then(Option::take)
    }

    /// Releases the slot reservations of a grant previously removed by
    /// [`detach_grant`](Allocation::detach_grant) — the second half of a
    /// make-before-break re-route.
    ///
    /// Identical to the release loop of
    /// [`take_grant`](Allocation::take_grant), but operating on a grant
    /// the allocation no longer owns. The grant must have been detached
    /// from *this* allocation: releasing someone else's reservations
    /// trips the same out-of-sync debug assertion as a double teardown.
    pub fn release_reservations_of(&mut self, grant: &Grant) {
        for (i, &l) in grant.links.iter().enumerate() {
            let table = &mut self.link_tables[l.index()];
            for &s in &grant.inject_slots {
                let prev = table.release(s + i as u32 * self.slots_per_hop);
                debug_assert_eq!(prev, Some(grant.conn), "table out of sync with grant");
            }
        }
    }

    /// Asserts `spec` describes the platform this allocation was built
    /// for: same slot-table size *and* per-hop slot shift. A grant
    /// reserved under one shift must never be torn down under another —
    /// two configs can share a table size yet differ in link pipeline
    /// depth (exactly the DSE grid's variation).
    fn assert_same_platform(&self, spec: &SystemSpec) {
        assert_eq!(
            self.table_size,
            spec.config().slot_table_size,
            "allocation and spec disagree on the slot-table size"
        );
        assert_eq!(
            self.slots_per_hop,
            spec.config().slots_per_hop(),
            "allocation and spec disagree on slots per hop (link pipeline depth)"
        );
    }

    /// Grows the per-connection grant storage to cover `spec`'s ids
    /// (reconfiguration may introduce connections with larger ids).
    fn grow_for(&mut self, spec: &SystemSpec) {
        if self.grants.len() < spec.conn_id_bound() {
            self.grants.resize(spec.conn_id_bound(), None);
        }
    }

    /// The grant of `conn`, if it was allocated.
    #[must_use]
    pub fn grant(&self, conn: ConnId) -> Option<&Grant> {
        self.grants.get(conn.index()).and_then(Option::as_ref)
    }

    /// All grants in connection order.
    pub fn grants(&self) -> impl Iterator<Item = &Grant> + '_ {
        self.grants.iter().filter_map(Option::as_ref)
    }

    /// The reservation table of `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn link_table(&self, link: LinkId) -> &SlotTable {
        &self.link_tables[link.index()]
    }

    /// Mean slot utilisation over all links that carry any traffic.
    #[must_use]
    pub fn mean_loaded_utilisation(&self) -> f64 {
        let loaded: Vec<f64> = self
            .link_tables
            .iter()
            .filter(|t| t.reserved_count() > 0)
            .map(SlotTable::utilisation)
            .collect();
        if loaded.is_empty() {
            0.0
        } else {
            loaded.iter().sum::<f64>() / loaded.len() as f64
        }
    }

    /// The highest slot utilisation over all links.
    #[must_use]
    pub fn peak_utilisation(&self) -> f64 {
        self.link_tables
            .iter()
            .map(SlotTable::utilisation)
            .fold(0.0, f64::max)
    }

    /// Worst-case **per-flit** latency of `conn` in clock cycles:
    /// `3 * max_gap + 3 * (routers + 1)`.
    ///
    /// The connection's latency contract is interpreted per flit, matching
    /// the paper's Section VII, which reports distributions of *flit*
    /// latencies. A flit that becomes ready just after an injection slot
    /// waits at most [`SlotService::worst_wait`] slots, then rides the
    /// contention-free pipeline: 3 cycles per router plus 3 for the NI
    /// ingress link. No message-level bound is derived from the slot set:
    /// a message can find its queue still busy with the previous one, so
    /// the worst window of consecutive slots does not bound it.
    ///
    /// # Panics
    ///
    /// Panics if `conn` has no grant.
    #[must_use]
    pub fn worst_case_latency_cycles(&self, spec: &SystemSpec, conn: ConnId) -> u64 {
        let grant = self.grant(conn).expect("connection has no grant");
        let wait = SlotService::new(&grant.inject_slots, self.table_size).worst_wait();
        latency_bound_cycles(spec.config(), wait, grant.path.link_count())
    }

    /// Worst-case per-flit latency of `conn` in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `conn` has no grant.
    #[must_use]
    pub fn worst_case_latency_ns(&self, spec: &SystemSpec, conn: ConnId) -> f64 {
        self.worst_case_latency_cycles(spec, conn) as f64 * spec.config().cycle_ns()
    }

    /// The payload bandwidth guaranteed by the slots of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` has no grant.
    #[must_use]
    pub fn allocated_bandwidth(&self, spec: &SystemSpec, conn: ConnId) -> aelite_spec::Bandwidth {
        let grant = self.grant(conn).expect("connection has no grant");
        let per_slot = spec.config().slot_payload_bandwidth().bytes_per_sec();
        aelite_spec::Bandwidth::from_bytes_per_sec(per_slot * grant.inject_slots.len() as u64)
    }
}

/// Corruption hooks for the validator's tests: they break a grant or a
/// table behind the allocation's back, which no public mutator can.
#[cfg(test)]
impl Allocation {
    /// The grant of `conn`, writable.
    pub(crate) fn grant_mut(&mut self, conn: ConnId) -> Option<&mut Grant> {
        self.grants.get_mut(conn.index()).and_then(Option::as_mut)
    }

    /// The reservation table of `link`, writable.
    pub(crate) fn link_table_mut(&mut self, link: LinkId) -> &mut SlotTable {
        &mut self.link_tables[link.index()]
    }
}

/// Estimates the slots a connection's grant will need: the larger of its
/// bandwidth minimum and the count its per-flit deadline forces over
/// [`Topology::router_hops`](aelite_spec::Topology::router_hops) hops.
/// On a mesh that is the shortest route. Off a mesh it counts one hop
/// between distinct routers, which can be shorter than any real route,
/// so there the estimate can fall below the slots a grant needs.
#[must_use]
pub fn estimate_slots(spec: &SystemSpec, conn: ConnId) -> u32 {
    let (cfg, c) = (spec.config(), spec.connection(conn));
    let hops = spec
        .topology()
        .router_hops(spec.ip_ni(c.src), spec.ip_ni(c.dst));
    slot_estimate(cfg, c.bandwidth, c.max_latency_ns, hops as usize + 2)
}

/// Sorts `conns` into the allocator's canonical hardest-first admission
/// order: most estimated slots first, then tightest deadline, then id.
/// Shared by the batch pass, the online engine's use-case switch and the
/// DSE engine's incremental admission, so "hardest first" means the same
/// thing everywhere.
pub fn admission_order(spec: &SystemSpec, conns: &mut [ConnId]) {
    conns.sort_by_cached_key(|&id| {
        (
            core::cmp::Reverse(estimate_slots(spec, id)),
            spec.connection(id).max_latency_ns,
            id,
        )
    });
}

/// The destination-buffer size (in words) that guarantees credits never
/// throttle `conn` below its reserved rate, for a given credit-return
/// delay in cycles.
///
/// A credit spends `round_trip = pipeline + credit_return` cycles away
/// from the source. The source injects one flit (of `payload` words) in
/// every reserved slot, so in the worst case it must be able to spend
/// credits for every reserved slot inside any round-trip-sized window of
/// the TDM table, plus the flit in flight at the window boundary: the
/// slot set's [`SlotService::max_service`] over that window.
///
/// # Panics
///
/// Panics if `conn` has no grant in `alloc`.
#[must_use]
pub fn required_buffer_words(
    spec: &SystemSpec,
    alloc: &Allocation,
    conn: ConnId,
    credit_return_cycles: u64,
) -> u32 {
    let cfg = spec.config();
    let grant = alloc.grant(conn).expect("connection has no grant");
    let round_trip = pipeline_cycles(cfg, grant.links.len()) + credit_return_cycles;
    // Window in slots, rounded up, plus one slot for the flit injected at
    // the window's leading edge.
    let window = u32::try_from(round_trip.div_ceil(u64::from(cfg.slot_cycles())))
        .expect("window fits u32")
        + 1;
    let in_flight = SlotService::new(&grant.inject_slots, cfg.slot_table_size).max_service(window);
    in_flight * cfg.payload_words_per_flit()
}

/// Why allocation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// No route exists between the connection's NIs.
    NoRoute {
        /// The unroutable connection.
        conn: ConnId,
    },
    /// No candidate path had enough free (shift-consistent) slots.
    InsufficientSlots {
        /// The starved connection.
        conn: ConnId,
        /// Slots required for the bandwidth contract.
        needed: u32,
        /// Best number of free slots found on any candidate path.
        best_available: u32,
    },
    /// Slots were available but no selection met the latency requirement.
    LatencyUnmet {
        /// The connection whose deadline cannot be met.
        conn: ConnId,
        /// The requirement, in nanoseconds.
        required_ns: u64,
        /// The best achievable worst-case latency, in nanoseconds.
        best_ns: u64,
    },
    /// The pair is routable in the topology, but every candidate route
    /// traverses a failed link of the route cache's
    /// [`FaultMask`](crate::route_cache::FaultMask).
    LinkDown {
        /// The severed connection.
        conn: ConnId,
        /// One blocking down link (the first on the shortest route).
        link: LinkId,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::NoRoute { conn } => write!(f, "no route for {conn}"),
            AllocError::InsufficientSlots {
                conn,
                needed,
                best_available,
            } => write!(
                f,
                "{conn} needs {needed} slots but at most {best_available} are free on any path"
            ),
            AllocError::LatencyUnmet {
                conn,
                required_ns,
                best_ns,
            } => write!(
                f,
                "{conn} requires {required_ns} ns but the best achievable bound is {best_ns} ns"
            ),
            AllocError::LinkDown { conn, link } => write!(
                f,
                "{conn} is severed: every candidate route traverses down link {link}"
            ),
        }
    }
}

impl std::error::Error for AllocError {}

/// Reusable working memory for the allocation kernels.
///
/// One admission asks for a candidate bitset, a working copy, a chosen
/// slot list and (on failure paths) a free-slot list. Batch allocation
/// amortises those over a whole pass; the online churn path cannot — a
/// million setup/teardown operations per second would mean a million
/// short-lived heap allocations per second. An `AllocScratch` owns all
/// of those buffers plus a pool of recycled [`Grant`]s (returned by
/// [`Allocation::take_grant`] on teardown), so the steady-state churn
/// loop of [`Allocator::admit_in_round`] runs allocation-free: every buffer a
/// setup needs is one a previous teardown gave back.
#[derive(Debug, Default)]
pub struct AllocScratch {
    /// Candidate injection slots free on every link (rotate-and-AND).
    cand: Option<SlotMask>,
    /// Working copy for the selection kernels.
    work: Option<SlotMask>,
    /// Chosen injection slots; swapped into the committed grant.
    chosen: Vec<u32>,
    /// Free-slot list materialised only on failure paths.
    all_free: Vec<u32>,
    /// Candidate order under spare-capacity steering: `(bottleneck free
    /// slots, candidate index)` pairs, built only when an admission's
    /// first (widest) candidate is refused.
    route_order: Vec<(u32, u32)>,
    /// Recycled grants whose buffers the next admission reuses.
    spare: Vec<Grant>,
}

/// Upper bound on pooled grants: enough that a use-case switch closing a
/// whole application recycles every buffer, small enough that the pool
/// never holds more than a few KiB.
const SPARE_GRANTS_MAX: usize = 256;

impl AllocScratch {
    /// An empty scratch; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        AllocScratch::default()
    }

    /// Returns the bitset pair sized for `size`-slot tables, reallocating
    /// only when the table size changes (i.e. never, on one platform).
    fn masks(&mut self, size: u32) -> (&mut SlotMask, &mut SlotMask) {
        if self.cand.as_ref().map(SlotMask::size) != Some(size) {
            self.cand = Some(SlotMask::new_full(size));
            self.work = Some(SlotMask::new_empty(size));
        }
        (
            self.cand.as_mut().expect("just ensured"),
            self.work.as_mut().expect("just ensured"),
        )
    }

    /// Hands a torn-down grant's buffers back for the next admission.
    pub fn recycle(&mut self, mut grant: Grant) {
        if self.spare.len() < SPARE_GRANTS_MAX {
            grant.inject_slots.clear();
            grant.links.clear();
            grant.path.ports.clear();
            self.spare.push(grant);
        }
    }
}

/// Evidence that [`Allocator::begin_round`] validated a
/// (spec, allocation, route cache) triple for a batched admission round.
///
/// Holds the platform snapshot the round was opened under so debug
/// builds can catch a caller that swaps the allocation mid-round; it
/// carries no resources and rounds need no explicit close.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionRound {
    table_size: u32,
    /// Grant-storage bound at round start: every id of the round's spec
    /// fits below it, so per-request growth checks can be skipped.
    conn_bound: usize,
}

/// How an admission orders the candidate routes it tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Steering {
    /// The route cache's native order: dimension-ordered routes
    /// first, then detours — shortest paths get first pick. This is the
    /// historical behaviour and the byte-stable default.
    #[default]
    ShortestFirst,
    /// Spare-capacity steering: candidates are scored by the *bottleneck*
    /// free-slot count along the route (the minimum
    /// [`free_count`](crate::SlotTable::free_count) over its links) and
    /// tried fullest-bottleneck-first, so admission biases away from
    /// near-full links and a single link failure displaces fewer grants.
    /// Ties break on the cache's candidate index, keeping the order —
    /// and therefore every grant — replay-deterministic.
    ///
    /// The first route tried is found without scoring every candidate:
    /// all of them share the NI ingress and egress links, whose free
    /// counts cap every bottleneck, so one pass in candidate order reads
    /// only the links between them, drops a route once its running
    /// minimum falls to the best so far, and stops when the best reaches
    /// that cap. The full order is scored and sorted only if the first
    /// route is refused; the tries then go on from its second entry.
    SpareCapacity,
}

/// Configuration of the allocation heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocator {
    /// Maximum number of candidate paths tried per connection.
    pub max_paths: usize,
    /// Whether extra slots may be added beyond the bandwidth minimum to
    /// meet latency requirements.
    pub latency_aware: bool,
    /// Phase salts tried in turn: each failed pass is retried from scratch
    /// with the next salt, changing how slot phases are staggered across
    /// connections (a cheap deterministic rip-up-and-retry).
    pub phase_salts: &'static [u32],
    /// Candidate-ordering mode; [`Steering::ShortestFirst`] preserves
    /// the historical grants bit-for-bit.
    pub steering: Steering,
}

impl Allocator {
    /// The default heuristic: up to 12 candidate paths, latency-aware,
    /// with four phase-salt retries, shortest-first candidate order.
    #[must_use]
    pub fn new() -> Self {
        Allocator {
            max_paths: 12,
            latency_aware: true,
            phase_salts: &[13, 7, 29, 47],
            steering: Steering::ShortestFirst,
        }
    }

    /// Allocates every connection of `spec`.
    ///
    /// Connections are served hardest-first (most slots needed, then
    /// tightest latency), each greedily choosing the candidate path and
    /// evenly-spread slot set that satisfies its contract. A pass that
    /// fails on some connection is retried with that connection promoted
    /// to the front of the order (rip-up-and-retry), and each phase salt
    /// restarts the promotion list from scratch.
    ///
    /// # Errors
    ///
    /// Returns the first [`AllocError`] encountered; the paper's position
    /// is that an unallocatable use case is a design-time failure, so no
    /// partial allocation is returned.
    pub fn allocate(&self, spec: &SystemSpec) -> Result<Allocation, AllocError> {
        let mut routes = RouteCache::new(spec.topology(), self.max_paths);
        self.allocate_with_cache(spec, &mut routes)
    }

    /// The phase-salt retry sequence, with the default fallback when the
    /// configured list is empty — the single source of truth shared by
    /// batch allocation and [`admit_in_round`](Self::admit_in_round).
    fn salts(&self) -> &[u32] {
        if self.phase_salts.is_empty() {
            &[13]
        } else {
            self.phase_salts
        }
    }

    /// [`allocate`](Self::allocate) with a caller-supplied
    /// [`RouteCache`], so repeated allocations over the same topology
    /// (e.g. a design-space sweep, or re-allocation under churn) skip
    /// route enumeration entirely after the first run. Grants do not
    /// depend on what the cache already holds.
    ///
    /// # Errors
    ///
    /// See [`allocate`](Self::allocate).
    ///
    /// # Panics
    ///
    /// Panics if `routes` was built with a different `max_paths` bound
    /// than this allocator uses (the cached candidate lists would differ).
    pub fn allocate_with_cache(
        &self,
        spec: &SystemSpec,
        routes: &mut RouteCache,
    ) -> Result<Allocation, AllocError> {
        assert_eq!(
            routes.max_paths(),
            self.max_paths,
            "route cache was built for a different max_paths bound"
        );
        let mut scratch = AllocScratch::new();
        let mut last_err = None;
        for &salt in self.salts() {
            // Deterministic rip-up-and-retry: a pass failing on connection
            // X reruns with X served first (before the heuristic order),
            // so X picks its slots while the tables are still unfragmented.
            let mut promoted: Vec<ConnId> = Vec::new();
            loop {
                match self.allocate_pass(spec, salt, &promoted, routes, &mut scratch) {
                    Ok(a) => return Ok(a),
                    Err(e) => {
                        let failed = match &e {
                            AllocError::NoRoute { conn }
                            | AllocError::InsufficientSlots { conn, .. }
                            | AllocError::LatencyUnmet { conn, .. }
                            | AllocError::LinkDown { conn, .. } => *conn,
                        };
                        let give_up =
                            matches!(e, AllocError::NoRoute { .. } | AllocError::LinkDown { .. })
                                || promoted.contains(&failed)
                                || promoted.len() >= 8;
                        last_err = Some(e);
                        if give_up {
                            break;
                        }
                        promoted.insert(0, failed);
                    }
                }
            }
        }
        Err(last_err.expect("at least one pass attempted"))
    }

    fn allocate_pass(
        &self,
        spec: &SystemSpec,
        salt: u32,
        promoted: &[ConnId],
        routes: &mut RouteCache,
        scratch: &mut AllocScratch,
    ) -> Result<Allocation, AllocError> {
        let mut alloc = Allocation::empty_for(spec);

        // Hardest connections first: the difficulty estimate is the slot
        // count the grant will end up with — the bandwidth minimum or, for
        // tight deadlines, the count forced by the required injection gap
        // (estimated over the shortest route's pipeline delay). Promoted
        // connections (from failed passes) go first regardless; a boolean
        // mask keeps the exclusion O(1) per connection, and the cached key
        // keeps `estimate_slots` at one evaluation per connection instead
        // of one per comparison.
        let mut is_promoted = vec![false; spec.conn_id_bound()];
        for p in promoted {
            is_promoted[p.index()] = true;
        }
        let mut order: Vec<ConnId> = spec
            .connections()
            .iter()
            .map(|c| c.id)
            .filter(|id| !is_promoted[id.index()])
            .collect();
        admission_order(spec, &mut order);

        for &conn in promoted.iter().chain(order.iter()) {
            self.allocate_one(spec, &mut alloc, conn, salt, routes, scratch)
                .map_err(|refusal| refusal.error)?;
        }
        Ok(alloc)
    }

    /// Opens a batched admission round: validates once that `spec`,
    /// `alloc` and `routes` describe the same platform and grows the
    /// per-connection grant storage to cover `spec`'s ids, returning a
    /// token that [`admit_in_round`](Self::admit_in_round) requires.
    ///
    /// Opening a round is O(1): the platform checks are a few integer
    /// comparisons and the grant-storage check reads
    /// [`SystemSpec::conn_id_bound`], which the spec caches. Opening one
    /// per *request* therefore costs next to nothing; the token exists so
    /// the per-request kernel can skip the checks, not to amortise them
    /// over a burst.
    ///
    /// The token is only evidence that the checks ran; callers must keep
    /// using the same `spec`/`alloc`/`routes` triple for every
    /// [`admit_in_round`](Self::admit_in_round) of the round (the round
    /// re-checks this in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if `alloc` or `routes` were built for a different table
    /// size / per-hop shift / `max_paths` bound than `spec` and this
    /// allocator use.
    #[must_use]
    pub fn begin_round(
        &self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        routes: &RouteCache,
    ) -> AdmissionRound {
        alloc.assert_same_platform(spec);
        assert_eq!(
            routes.max_paths(),
            self.max_paths,
            "route cache was built for a different max_paths bound"
        );
        alloc.grow_for(spec);
        AdmissionRound {
            table_size: alloc.table_size,
            conn_bound: alloc.grants.len(),
        }
    }

    /// Admits a single ungranted connection into a live allocation — the
    /// setup half of the online reconfiguration hot path, and the one
    /// spelling of salt-retried admission (a use-case switch is this per
    /// connection in [`admission_order`]).
    ///
    /// Shaped for sustained churn: the per-round validation is already
    /// paid by [`begin_round`](Self::begin_round), there is no
    /// admission-order sort and no per-call allocation (all working
    /// memory comes from `scratch`, including recycled grant buffers),
    /// and the phase-salt retries run inline — the per-request work is
    /// exactly the admission kernel, O(Δ) in the candidate paths' slot
    /// words. A refusal no salt can change (no candidate got as far as
    /// the phase-staggered spread, the only place the salt enters) is
    /// decided by the first pass alone. Existing grants are never touched
    /// (the paper's undisturbed-service model).
    ///
    /// # Errors
    ///
    /// Returns the [`AllocError`] of the last phase salt if none finds a
    /// grant; `alloc` is unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if `conn` already holds a grant.
    pub fn admit_in_round(
        &self,
        round: &AdmissionRound,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        conn: ConnId,
        routes: &mut RouteCache,
        scratch: &mut AllocScratch,
    ) -> Result<(), AllocError> {
        debug_assert_eq!(
            round.table_size, alloc.table_size,
            "round begun for a different allocation"
        );
        debug_assert!(
            conn.index() < round.conn_bound && alloc.grants.len() >= round.conn_bound,
            "round begun for a different spec/allocation pair"
        );
        assert!(
            alloc.grant(conn).is_none(),
            "{conn} already holds a grant; release it before re-allocating"
        );
        let mut last_err = None;
        for &salt in self.salts() {
            match self.allocate_one(spec, alloc, conn, salt, routes, scratch) {
                Ok(()) => return Ok(()),
                Err(refusal) => {
                    last_err = Some(refusal.error);
                    // Each pass is a pure function of unchanged state, so
                    // a salt-independent pass is the last salt's pass too.
                    if !refusal.salt_dependent {
                        break;
                    }
                }
            }
        }
        Err(last_err.expect("at least one salt attempted"))
    }

    fn allocate_one(
        &self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        conn: ConnId,
        salt: u32,
        routes: &mut RouteCache,
        scratch: &mut AllocScratch,
    ) -> Result<(), Refusal> {
        let cfg = spec.config();
        let c = spec.connection(conn);
        let src_ni = spec.ip_ni(c.src);
        let dst_ni = spec.ip_ni(c.dst);
        let needed = cfg.slots_for(c.bandwidth).max(1);
        let size = alloc.table_size;

        let mut best_available = 0u32;
        let mut best_latency_cycles = u64::MAX;
        let mut salt_dependent = false;
        let latency_budget_cycles = deadline_cycles(cfg, c.max_latency_ns);
        let shift = cfg.slots_per_hop();

        // Working memory from the caller's scratch, reused across
        // candidate paths *and* across calls: the bitset of injection
        // slots free on every link, a working copy for the selection
        // kernels, the chosen-slot buffer, a slot list materialised only
        // on failure paths, and the recycled-grant pool.
        scratch.masks(size);
        let AllocScratch {
            cand,
            work,
            chosen,
            all_free,
            route_order,
            spare,
        } = scratch;
        let cand = cand.as_mut().expect("masks() sized the scratch");
        let work = work.as_mut().expect("masks() sized the scratch");
        // The pair's route entry, resolved once for both passes below.
        let mut pair = routes.pair(spec.topology(), src_ni, dst_ni);

        // Spare-capacity steering tries the (healthy) candidates widest
        // bottleneck first — the fewest free slots over a route's links —
        // and the cache's candidate index breaks ties, so the order, and
        // every grant, stays replay-deterministic. The head of that order
        // is found by a bounded scan; the full order is scored and sorted
        // only once the head has been tried and refused. The default
        // shortest-first mode skips both and is bit-for-bit the
        // historical behaviour.
        let steered = self.steering == Steering::SpareCapacity;
        let widest = if steered {
            widest_candidate(&mut pair, &alloc.link_tables)
        } else {
            None
        };

        // Candidates are pulled from the entry one index at a time, so the
        // expensive detour enumeration only runs for connections that
        // exhaust the dimension-ordered routes.
        let mut tried = 0usize;
        loop {
            let idx = if !steered {
                tried
            } else if tried == 0 {
                match widest {
                    Some(i) => i,
                    None => break,
                }
            } else {
                if tried == 1 {
                    route_order.clear();
                    let mut i = 0u32;
                    while let Some(route) = pair.candidate(i as usize) {
                        route_order.push((bottleneck(&alloc.link_tables, &route.links), i));
                        i += 1;
                    }
                    route_order.sort_unstable_by_key(|&(free, i)| (core::cmp::Reverse(free), i));
                    debug_assert_eq!(
                        route_order.first().map(|&(_, i)| i as usize),
                        widest,
                        "the bounded scan missed the head of the steering order"
                    );
                }
                match route_order.get(tried) {
                    Some(&(_, i)) => i as usize,
                    None => break,
                }
            };
            let Some(route) = pair.candidate(idx) else {
                break;
            };
            tried += 1;
            let links = &route.links;
            // Injection slots whose shifted positions are free on every
            // link: the fused path-intersection kernel.
            cand.intersect_path(path_masks(&alloc.link_tables, links), shift);
            let free_count = cand.count();
            best_available = best_available.max(free_count);
            if free_count < needed {
                continue;
            }

            let n_links = route.path.link_count();
            // The latency contract is per flit (see worst_case_latency_cycles).
            let latency_of = |slots: &[u32]| {
                latency_bound_cycles(cfg, SlotService::new(slots, size).worst_wait(), n_links)
            };
            // Hypothetical best latency with *all* free slots taken, used
            // only when this path is rejected for latency.
            let latency_of_all = |all: &mut Vec<u32>| {
                all.clear();
                all.extend(cand.iter_ones());
                latency_of(all)
            };

            // The deadline allows an injection gap of at most `allowed_gap`
            // slots on this path. Cover the table with that gap first (the
            // latency-critical part), then top up for bandwidth.
            let allowed_gap = max_injection_gap(cfg, latency_budget_cycles, n_links) as u32;
            if self.latency_aware && allowed_gap == 0 {
                // Even an immediately-due slot would miss the deadline on
                // this path; record the hypothetical best and move on.
                best_latency_cycles = best_latency_cycles.min(latency_of_all(all_free));
                continue;
            }

            if self.latency_aware && allowed_gap < size {
                if cover_with_gap(cand, allowed_gap, size, chosen) {
                    work.copy_from(cand);
                    for &s in chosen.iter() {
                        work.clear(s);
                    }
                } else {
                    best_latency_cycles = best_latency_cycles.min(latency_of_all(all_free));
                    continue;
                }
            } else {
                // No latency pressure: stagger the spread per connection so
                // unrelated connections don't pile onto the same phase.
                let phase = (conn.index() as u32).wrapping_mul(salt) % size;
                salt_dependent = true;
                work.copy_from(cand);
                spread_selection(work, needed, size, phase, chosen);
            }

            // Top up to the bandwidth minimum, filling the largest gaps
            // (`work` holds the free slots not yet chosen).
            while (chosen.len() as u32) < needed {
                match best_gap_filler(chosen, work, size) {
                    Some(extra) => {
                        work.clear(extra);
                        chosen.push(extra);
                        chosen.sort_unstable();
                    }
                    None => break,
                }
            }
            if (chosen.len() as u32) < needed {
                continue;
            }

            let achieved = latency_of(chosen);
            best_latency_cycles = best_latency_cycles.min(achieved);
            if achieved > latency_budget_cycles {
                continue;
            }

            // Commit, recycling a torn-down grant's buffers when the pool
            // has one (clone_from / swap reuse existing capacity, so the
            // steady-state churn loop allocates nothing).
            for &s in chosen.iter() {
                for (i, &l) in links.iter().enumerate() {
                    alloc.link_tables[l.index()]
                        .reserve(s + i as u32 * shift, conn)
                        .expect("slot was checked free");
                }
            }
            let mut grant = spare.pop().unwrap_or_else(|| Grant {
                conn,
                path: Path {
                    src: src_ni,
                    dst: dst_ni,
                    ports: Vec::new(),
                },
                inject_slots: Vec::new(),
                links: Vec::new(),
            });
            grant.conn = conn;
            grant.path.src = route.path.src;
            grant.path.dst = route.path.dst;
            grant.path.ports.clone_from(&route.path.ports);
            grant.links.clone_from(links);
            core::mem::swap(&mut grant.inject_slots, chosen);
            alloc.grants[conn.index()] = Some(grant);
            return Ok(());
        }

        let error = if tried == 0 {
            match pair.blocking_fault() {
                Some(link) => AllocError::LinkDown { conn, link },
                None => AllocError::NoRoute { conn },
            }
        } else if best_available < needed {
            AllocError::InsufficientSlots {
                conn,
                needed,
                best_available,
            }
        } else {
            AllocError::LatencyUnmet {
                conn,
                required_ns: c.max_latency_ns,
                best_ns: (best_latency_cycles as f64 * cfg.cycle_ns()).ceil() as u64,
            }
        };
        Err(Refusal {
            error,
            salt_dependent,
        })
    }
}

/// The free masks of the tables of `links`, in traversal order: the
/// operand of the fused path kernel.
fn path_masks<'a>(
    tables: &'a [SlotTable],
    links: &'a [LinkId],
) -> impl Iterator<Item = &'a SlotMask> + 'a {
    links.iter().map(|l| tables[l.index()].free_mask())
}

/// Spare-capacity steering's score of a route: the fewest free slots on
/// any of its links.
fn bottleneck(tables: &[SlotTable], links: &[LinkId]) -> u32 {
    links
        .iter()
        .map(|l| tables[l.index()].free_count())
        .min()
        .unwrap_or(0)
}

/// The head of spare-capacity steering's order — the healthy candidate
/// with the widest [`bottleneck`], the lowest index among equals — or
/// `None` when no candidate is healthy. One pass in index order, reading
/// only what can change the answer: every candidate shares the source
/// NI's ingress link and the destination NI's egress link, so their free
/// counts are a ceiling on every bottleneck and only the links between
/// them are read; a route is dropped as soon as its running minimum
/// falls to the best so far (a later index must beat it, not tie), and
/// the pass ends once the best reaches the ceiling.
fn widest_candidate(pair: &mut PairRoutes<'_>, tables: &[SlotTable]) -> Option<usize> {
    let free = |l: LinkId| tables[l.index()].free_count();
    let (ingress, egress) = {
        let links = &pair.candidate(0)?.links;
        (links[0], links[links.len() - 1])
    };
    let ceiling = free(ingress).min(free(egress));
    let (mut best, mut best_at) = (0, 0);
    let mut i = 0;
    while let Some(route) = pair.candidate(i) {
        let links = &route.links;
        debug_assert!(links[0] == ingress && links[links.len() - 1] == egress);
        let mut min = ceiling;
        for &l in &links[1..links.len() - 1] {
            min = min.min(free(l));
            if i > 0 && min <= best {
                break;
            }
        }
        if i == 0 || min > best {
            (best, best_at) = (min, i);
            if best == ceiling {
                break;
            }
        }
        i += 1;
    }
    Some(best_at)
}

/// One phase salt's refusal, and whether another salt could decide
/// differently.
struct Refusal {
    error: AllocError,
    /// Whether any candidate reached the phase-staggered spread — the
    /// only place the salt enters a pass. When none did, every salt
    /// refuses with this same error.
    salt_dependent: bool,
}

impl Default for Allocator {
    fn default() -> Self {
        Allocator::new()
    }
}

/// Convenience wrapper: [`Allocator::new`]`.allocate(spec)`.
///
/// # Errors
///
/// See [`Allocator::allocate`].
pub fn allocate(spec: &SystemSpec) -> Result<Allocation, AllocError> {
    Allocator::new().allocate(spec)
}

/// Picks `needed` slots from the set bits of `avail` into `out` (cleared
/// first) as close as possible to an ideal even spread over the table,
/// anchored at `phase`, clearing each pick from `avail` (on return,
/// `avail` holds the unchosen slots).
///
/// Each pick is a word-level nearest-set-bit scan ([`SlotMask::nearest_one`]
/// breaks distance ties towards the smaller slot, matching the original
/// first-minimum scan over an ascending free list), so the kernel runs in
/// O(needed × size/64) with no inner-loop allocation — the original
/// scanned the whole free list and a `chosen.contains` per candidate,
/// O(needed² × free).
fn spread_selection(avail: &mut SlotMask, needed: u32, size: u32, phase: u32, out: &mut Vec<u32>) {
    debug_assert!(avail.count() >= needed);
    out.clear();
    for i in 0..needed {
        let ideal = (phase + (u64::from(i) * u64::from(size) / u64::from(needed)) as u32) % size;
        if let Some(s) = avail.nearest_one(ideal) {
            out.push(s);
            avail.clear(s);
        }
    }
    out.sort_unstable();
}

/// Chooses a minimal set of slots from the set bits of `free` whose
/// circular gaps never exceed `gap`, writing it into `out` (cleared
/// first) and returning whether a cover exists.
///
/// Classic circular greedy cover: from a fixed start, repeatedly jump to
/// the farthest free slot within `gap`. A cover exists iff no circular gap
/// between consecutive free slots exceeds `gap`, and in that case the
/// greedy walk from the first free slot always succeeds, which is exactly
/// the cover the original every-start search returned (it tried starts in
/// ascending order and the first start either succeeds or none do). The
/// walk cannot jump a gap wider than `gap`, so it stalls on the first
/// such gap it reaches, and a stall is the refusal. Each jump is one
/// backwards bit scan, with no per-start retry loop and no inner-loop
/// allocation.
fn cover_with_gap(free: &SlotMask, gap: u32, size: u32, out: &mut Vec<u32>) -> bool {
    out.clear();
    if gap == 0 {
        return false;
    }
    let Some(start) = free.first_one() else {
        return false;
    };
    // Forward circular distance from a to b, in 1..=size (b == a -> size).
    let fwd = |a: u32, b: u32| (b + size - a - 1) % size + 1;
    out.push(start);
    let mut cur = start;
    loop {
        // When the forward distance back to the start is within the
        // allowed gap, the circle is covered.
        if fwd(cur, start) <= gap {
            out.sort_unstable();
            return true;
        }
        // Jump to the farthest free slot within `gap` ahead: the first set
        // bit at or before `cur + gap`, scanning backwards. It lands in
        // (cur, cur + gap] unless no free slot is there, when it finds
        // `cur` itself: the next free-to-free gap is wider than `gap`.
        // Because the distance back to start still exceeds `gap`, it can
        // never overshoot the start.
        let next = free
            .prev_one_circular((cur + gap) % size)
            .expect("free set is non-empty");
        if next == cur {
            out.clear();
            return false;
        }
        debug_assert!(fwd(cur, next) <= gap);
        out.push(next);
        cur = next;
    }
}

/// The slot from `avail` (free and not yet chosen) that best fills the
/// largest gap of `chosen`, if any.
///
/// Mirrors the original list-based kernel: the *last* largest gap wins
/// (matching `max_by_key` tie-breaking), and the nearest available slot to
/// that gap's midpoint is returned with ties to the smaller slot — but the
/// gap scan is allocation-free and the nearest-slot probe is a word scan.
fn best_gap_filler(chosen: &[u32], avail: &SlotMask, size: u32) -> Option<u32> {
    let Some(&first) = chosen.first() else {
        return avail.first_one();
    };
    // Largest circular gap of `chosen` (ascending); on ties the later gap
    // wins, as with `enumerate().max_by_key(gap)` over the gap list.
    let n = chosen.len();
    let mut best_start = 0u32;
    let mut best_len = 0u32;
    for i in 0..n {
        let len = if i + 1 < n {
            chosen[i + 1] - chosen[i]
        } else {
            size - chosen[i] + first
        };
        if len >= best_len {
            best_len = len;
            best_start = chosen[i];
        }
    }
    let target = (best_start + best_len / 2) % size;
    avail.nearest_one(target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route_cache::FaultMask;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::ids::NiId;
    use aelite_spec::topology::{Endpoint, Topology};
    use aelite_spec::traffic::Bandwidth;

    impl AllocScratch {
        /// How many recycled grants are pooled.
        fn pooled_grants(&self) -> usize {
            self.spare.len()
        }
    }

    /// Old-signature adapters for the kernel pin tests.
    fn spread(avail: &mut SlotMask, needed: u32, size: u32, phase: u32) -> Vec<u32> {
        let mut out = Vec::new();
        spread_selection(avail, needed, size, phase, &mut out);
        out
    }

    fn cover(free: &SlotMask, gap: u32, size: u32) -> Option<Vec<u32>> {
        let mut out = vec![99; 3]; // stale contents must not leak through
        cover_with_gap(free, gap, size, &mut out).then_some(out)
    }

    /// One connection through a round of its own.
    fn admit_one(
        allocator: &Allocator,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        conn: ConnId,
        routes: &mut RouteCache,
        scratch: &mut AllocScratch,
    ) -> Result<(), AllocError> {
        let round = allocator.begin_round(spec, alloc, routes);
        allocator.admit_in_round(&round, spec, alloc, conn, routes, scratch)
    }

    fn two_conn_spec() -> SystemSpec {
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("app");
        let a = b.add_ip_at(NiId::new(0));
        let z = b.add_ip_at(NiId::new(1));
        b.add_connection(app, a, z, Bandwidth::from_mbytes_per_sec(100), 500);
        b.add_connection(app, z, a, Bandwidth::from_mbytes_per_sec(200), 500);
        b.build()
    }

    #[test]
    fn allocates_simple_spec() {
        let spec = two_conn_spec();
        let alloc = allocate(&spec).unwrap();
        for c in spec.connections() {
            let grant = alloc.grant(c.id).unwrap();
            assert!(!grant.inject_slots.is_empty());
            assert_eq!(grant.links.len(), grant.path.link_count());
            // Bandwidth satisfied.
            assert!(
                alloc.allocated_bandwidth(&spec, c.id).bytes_per_sec()
                    >= c.bandwidth.bytes_per_sec()
            );
            // Latency satisfied.
            assert!(alloc.worst_case_latency_ns(&spec, c.id) <= c.max_latency_ns as f64);
        }
    }

    #[test]
    fn shifted_slots_are_reserved_on_every_link() {
        let spec = two_conn_spec();
        let alloc = allocate(&spec).unwrap();
        for grant in alloc.grants() {
            for &s in &grant.inject_slots {
                for (i, &l) in grant.links.iter().enumerate() {
                    assert_eq!(
                        alloc.link_table(l).owner(s + i as u32),
                        Some(grant.conn),
                        "link {i} of {} at slot {s}",
                        grant.conn
                    );
                }
            }
        }
    }

    #[test]
    fn opposite_directions_do_not_conflict() {
        // Both connections traverse the same router pair in opposite
        // directions — different links, so tables must be independent.
        let spec = two_conn_spec();
        let alloc = allocate(&spec).unwrap();
        let g0 = alloc.grant(ConnId::new(0)).unwrap();
        let g1 = alloc.grant(ConnId::new(1)).unwrap();
        for l0 in &g0.links {
            assert!(!g1.links.contains(l0));
        }
    }

    #[test]
    fn sharing_a_link_forces_disjoint_slots() {
        // Two connections from the same NI must share the ingress link.
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("app");
        let a = b.add_ip_at(NiId::new(0));
        let z1 = b.add_ip_at(NiId::new(1));
        let z2 = b.add_ip_at(NiId::new(1));
        b.add_connection(app, a, z1, Bandwidth::from_mbytes_per_sec(150), 500);
        b.add_connection(app, a, z2, Bandwidth::from_mbytes_per_sec(150), 500);
        let spec = b.build();
        let alloc = allocate(&spec).unwrap();
        let s0 = alloc.grant(ConnId::new(0)).unwrap().inject_slots.clone();
        let s1 = alloc.grant(ConnId::new(1)).unwrap().inject_slots.clone();
        for s in &s0 {
            assert!(!s1.contains(s), "slot {s} double-booked on shared link");
        }
    }

    #[test]
    fn oversubscription_fails_with_insufficient_slots() {
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("app");
        let a = b.add_ip_at(NiId::new(0));
        let z = b.add_ip_at(NiId::new(1));
        // Link payload capacity is ~1.33 GB/s; ask for 2x that.
        b.add_connection(app, a, z, Bandwidth::from_mbytes_per_sec(1500), 10_000);
        b.add_connection(app, a, z, Bandwidth::from_mbytes_per_sec(1500), 10_000);
        let spec = b.build();
        match allocate(&spec) {
            Err(AllocError::InsufficientSlots { .. }) => {}
            other => panic!("expected InsufficientSlots, got {other:?}"),
        }
    }

    #[test]
    fn impossible_latency_fails_with_latency_unmet() {
        let topo = Topology::mesh(4, 3, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("app");
        let a = b.add_ip_at(NiId::new(0));
        let z = b.add_ip_at(NiId::new(11)); // opposite corner
                                            // 1 ns across 7 links is physically impossible.
        b.add_connection(app, a, z, Bandwidth::from_mbytes_per_sec(10), 1);
        let spec = b.build();
        match allocate(&spec) {
            Err(AllocError::LatencyUnmet { required_ns: 1, .. }) => {}
            other => panic!("expected LatencyUnmet, got {other:?}"),
        }
    }

    #[test]
    fn latency_aware_allocation_adds_slots() {
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("app");
        let a = b.add_ip_at(NiId::new(0));
        let z = b.add_ip_at(NiId::new(1));
        // 10 MB/s needs one slot, but a 60 ns deadline needs slots spread
        // much more tightly than one per 32-slot revolution (192 cycles).
        b.add_connection(app, a, z, Bandwidth::from_mbytes_per_sec(10), 60);
        let spec = b.build();
        let alloc = allocate(&spec).unwrap();
        let grant = alloc.grant(ConnId::new(0)).unwrap();
        assert!(
            grant.inject_slots.len() > 1,
            "expected extra slots for latency, got {:?}",
            grant.inject_slots
        );
        assert!(alloc.worst_case_latency_ns(&spec, ConnId::new(0)) <= 60.0);
    }

    #[test]
    fn paper_workload_allocates_at_500mhz() {
        let spec = aelite_spec::generate::paper_workload(42);
        let alloc = allocate(&spec).expect("paper workload must be allocatable");
        assert_eq!(alloc.grants().count(), 200);
        for c in spec.connections() {
            assert!(
                alloc.allocated_bandwidth(&spec, c.id).bytes_per_sec()
                    >= c.bandwidth.bytes_per_sec()
            );
            assert!(
                alloc.worst_case_latency_ns(&spec, c.id) <= c.max_latency_ns as f64,
                "{}: {} > {}",
                c.id,
                alloc.worst_case_latency_ns(&spec, c.id),
                c.max_latency_ns
            );
        }
        assert!(alloc.peak_utilisation() <= 1.0);
        assert!(alloc.mean_loaded_utilisation() > 0.0);
    }

    #[test]
    fn spare_capacity_steering_is_valid_and_deterministic() {
        let spec = aelite_spec::generate::paper_workload(42);
        let steered = Allocator {
            steering: Steering::SpareCapacity,
            ..Allocator::new()
        };
        let a = steered.allocate(&spec).expect("steered allocation");
        let b = steered.allocate(&spec).expect("steered allocation");
        crate::validate_allocation(&spec, &a).expect("steered grants valid");
        // Replay-deterministic: the scored order has a total tiebreak.
        for c in spec.connections() {
            assert_eq!(
                a.grant(c.id).map(|g| (&g.links, &g.inject_slots)),
                b.grant(c.id).map(|g| (&g.links, &g.inject_slots)),
            );
            assert!(
                a.allocated_bandwidth(&spec, c.id).bytes_per_sec() >= c.bandwidth.bytes_per_sec()
            );
        }
        // The default mode is byte-stable: an explicit ShortestFirst
        // allocator is the plain allocator.
        assert_eq!(
            Allocator::new(),
            Allocator {
                steering: Steering::ShortestFirst,
                ..Allocator::new()
            }
        );
    }

    #[test]
    fn steering_routes_around_a_loaded_link() {
        // 2×2 mesh, one NI per router, one connection corner-to-corner:
        // the XY candidate crosses router 1, the YX candidate router 2.
        // Pre-loading the r0→r1 link must push the steered admission
        // onto the YX detour while shortest-first stays on XY.
        let topo = Topology::mesh(2, 2, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("app");
        let a = b.add_ip_at(NiId::new(0));
        let z = b.add_ip_at(NiId::new(3));
        b.add_connection(app, a, z, Bandwidth::from_mbytes_per_sec(50), 100_000);
        let spec = b.build();
        let conn = spec.connections()[0].id;

        let east = spec
            .topology()
            .links()
            .find(|&l| {
                let link = spec.topology().link(l);
                matches!(link.from, Endpoint::Router(r, _) if r.index() == 0)
                    && matches!(link.to, Endpoint::Router(r, _) if r.index() == 1)
            })
            .expect("2x2 mesh has an r0->r1 link");

        let mut scratch = AllocScratch::new();
        let load = ConnId::new(1); // phantom occupant of the east link
        for allocator in [
            Allocator::new(),
            Allocator {
                steering: Steering::SpareCapacity,
                ..Allocator::new()
            },
        ] {
            let mut alloc = Allocation::empty_for(&spec);
            for s in 0..alloc.table_size / 2 {
                alloc.link_tables[east.index()].reserve(s, load).unwrap();
            }
            let mut routes = RouteCache::new(spec.topology(), allocator.max_paths);
            admit_one(
                &allocator,
                &spec,
                &mut alloc,
                conn,
                &mut routes,
                &mut scratch,
            )
            .expect("plenty of capacity on either candidate");
            let grant = alloc.grant(conn).unwrap();
            let crosses_loaded = grant.links.contains(&east);
            assert_eq!(
                crosses_loaded,
                allocator.steering == Steering::ShortestFirst,
                "{:?} picked links {:?}",
                allocator.steering,
                grant.links
            );
        }
    }

    /// SplitMix64: the seeded table states of the steering-scan tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Spare-capacity steering's full order for one pair, the reference
    /// the bounded scan is checked against: every healthy candidate
    /// scored and sorted widest bottleneck first, lowest index on ties.
    fn full_order(pair: &mut PairRoutes<'_>, tables: &[SlotTable]) -> Vec<(u32, u32)> {
        let mut order = Vec::new();
        let mut i = 0u32;
        while let Some(route) = pair.candidate(i as usize) {
            order.push((bottleneck(tables, &route.links), i));
            i += 1;
        }
        order.sort_unstable_by_key(|&(free, i)| (core::cmp::Reverse(free), i));
        order
    }

    /// An 8×8 mesh, one NI per router, with one loose-deadline
    /// connection per seeded NI pair.
    fn mesh8_pairs_spec(pairs: usize, seed: u64) -> SystemSpec {
        let topo = Topology::mesh(8, 8, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("app");
        let mut rng = seed;
        for _ in 0..pairs {
            let s = (splitmix(&mut rng) % 64) as u32;
            let d = (s + 1 + (splitmix(&mut rng) % 63) as u32) % 64;
            let (a, z) = (b.add_ip_at(NiId::new(s)), b.add_ip_at(NiId::new(d)));
            b.add_connection(app, a, z, Bandwidth::from_mbytes_per_sec(60), 1_000_000);
        }
        b.build()
    }

    /// Reserves, on every link, a seeded number of seeded slots: one of
    /// five coarse levels, so equal bottlenecks are common.
    fn seeded_fill(alloc: &mut Allocation, seed: u64) {
        let size = alloc.table_size;
        let mut rng = seed;
        let occupant = ConnId::new(u32::MAX - 1);
        for table in &mut alloc.link_tables {
            let taken = (splitmix(&mut rng) % 5) as u32 * size / 8;
            while table.reserved_count() < taken {
                let _ = table.reserve((splitmix(&mut rng) % u64::from(size)) as u32, occupant);
            }
        }
    }

    #[test]
    fn bounded_steering_scan_picks_the_head_of_the_full_order() {
        let spec = mesh8_pairs_spec(48, 3);
        let topo = spec.topology();
        let mut routes = RouteCache::new(topo, 12);
        let (mut ties, mut detour_heads) = (0, 0);
        for seed in 0..40 {
            let mut alloc = Allocation::empty_for(&spec);
            seeded_fill(&mut alloc, seed);
            for c in spec.connections() {
                let (s, d) = (spec.ip_ni(c.src), spec.ip_ni(c.dst));
                let mut pair = routes.pair(topo, s, d);
                let order = full_order(&mut pair, &alloc.link_tables);
                let head = order.first().map(|&(_, i)| i as usize);
                assert_eq!(widest_candidate(&mut pair, &alloc.link_tables), head);
                ties += usize::from(order.len() > 1 && order[0].0 == order[1].0);
                let links = &pair.candidate(0).unwrap().links;
                let ceiling = bottleneck(&alloc.link_tables, &[links[0], links[links.len() - 1]]);
                detour_heads += usize::from(order[0].1 >= 2 && order[0].0 == ceiling);
            }
        }
        assert!(ties > 0 && detour_heads > 0, "{ties} ties, {detour_heads}");

        // Built on purpose: a free platform but for the second mesh link
        // of the XY and the YX route. Every route shares their first
        // links, so only a detour that turns between them reaches the
        // ceiling, and the scan must walk past both to find it.
        let (s, d) = (NiId::new(2 * 8 + 2), NiId::new(5 * 8 + 5));
        let mut alloc = Allocation::empty_for(&spec);
        let mut pair = routes.pair(topo, s, d);
        for i in 0..2 {
            let second_hop = pair.candidate(i).unwrap().links[2];
            alloc.link_tables[second_hop.index()]
                .reserve(0, ConnId::new(7))
                .unwrap();
        }
        let order = full_order(&mut pair, &alloc.link_tables);
        let size = alloc.table_size;
        assert_eq!(order[0].0, size, "some detour avoids both loaded links");
        assert!(order[0].1 >= 2, "{order:?}");
        assert_eq!(
            widest_candidate(&mut pair, &alloc.link_tables),
            Some(order[0].1 as usize)
        );

        // No healthy candidate: nothing to pick, and the admission is
        // refused as severed.
        let mut mask = FaultMask::new();
        mask.set_down(topo.ni_ingress_link(s));
        routes.set_faults(&mask);
        let mut pair = routes.pair(topo, s, d);
        assert_eq!(widest_candidate(&mut pair, &alloc.link_tables), None);
        assert!(full_order(&mut pair, &alloc.link_tables).is_empty());
    }

    #[test]
    fn steered_tries_after_a_refused_head_follow_the_full_order() {
        // On crowded seeded tables a route's bottleneck says little about
        // the slots free on all its links at once, so the widest route is
        // often refused. The grant must then land on the first route of
        // the full order that has room: for a loose deadline that is the
        // first whose path intersection holds the needed slots.
        let spec = mesh8_pairs_spec(48, 5);
        let topo = spec.topology();
        let shift = spec.config().slots_per_hop();
        let steered = Allocator {
            steering: Steering::SpareCapacity,
            ..Allocator::new()
        };
        let mut routes = RouteCache::new(topo, 12);
        let mut scratch = AllocScratch::new();
        let (mut past_head, mut refused) = (0, 0);
        for seed in 0..30 {
            let mut filled = Allocation::empty_for(&spec);
            seeded_fill(&mut filled, 100 + seed);
            for c in spec.connections() {
                let needed = spec.config().slots_for(c.bandwidth).max(1);
                let (s, d) = (spec.ip_ni(c.src), spec.ip_ni(c.dst));
                let mut pair = routes.pair(topo, s, d);
                let order = full_order(&mut pair, &filled.link_tables);
                let mut room = SlotMask::new_full(filled.table_size);
                let want = order.iter().position(|&(_, i)| {
                    let links = &pair.candidate(i as usize).unwrap().links;
                    room.intersect_path(path_masks(&filled.link_tables, links), shift);
                    room.count() >= needed
                });
                let want_links =
                    want.map(|k| pair.candidate(order[k].1 as usize).unwrap().links.clone());
                let mut alloc = filled.clone();
                let got =
                    steered.allocate_one(&spec, &mut alloc, c.id, 13, &mut routes, &mut scratch);
                assert_eq!(got.is_ok(), want.is_some(), "{} on seed {seed}", c.id);
                assert_eq!(alloc.grant(c.id).map(|g| g.links.clone()), want_links);
                past_head += usize::from(want.is_some_and(|k| k > 0));
                refused += usize::from(want.is_none());
            }
        }
        assert!(
            past_head > 0 && refused > 0,
            "{past_head} past the head, {refused} refused"
        );
    }

    #[test]
    fn spread_selection_is_even_when_table_free() {
        let mut avail = SlotMask::new_full(32);
        let chosen = spread(&mut avail, 4, 32, 0);
        assert_eq!(chosen, vec![0, 8, 16, 24]);
        // The picks are consumed from the working mask.
        assert_eq!(avail.count(), 28);
        assert!(!avail.get(8));
        let mut avail = SlotMask::new_full(32);
        let staggered = spread(&mut avail, 4, 32, 5);
        assert_eq!(staggered, vec![5, 13, 21, 29]);
    }

    #[test]
    fn spread_selection_matches_first_minimum_scan() {
        // Pin the kernel against the original list-based selection: the
        // nearest free slot by circular distance, ties to the smaller
        // slot, each pick excluded from later rounds.
        fn reference(free: &[u32], needed: u32, size: u32, phase: u32) -> Vec<u32> {
            let mut chosen: Vec<u32> = Vec::new();
            for i in 0..needed {
                let ideal =
                    (phase + (u64::from(i) * u64::from(size) / u64::from(needed)) as u32) % size;
                let pick = free
                    .iter()
                    .copied()
                    .filter(|s| !chosen.contains(s))
                    .min_by_key(|&s| {
                        let d = s.abs_diff(ideal);
                        d.min(size - d)
                    });
                if let Some(s) = pick {
                    chosen.push(s);
                }
            }
            chosen.sort_unstable();
            chosen
        }
        for size in [8u32, 32, 64, 100] {
            let free: Vec<u32> = (0..size).filter(|s| (s * 17 + 1) % 5 < 3).collect();
            for needed in [1u32, 3, 7] {
                if (free.len() as u32) < needed {
                    // Callers only invoke the kernel with enough free slots.
                    continue;
                }
                for phase in [0u32, 5, size - 1] {
                    let mut avail = SlotMask::from_slots(size, &free);
                    assert_eq!(
                        spread(&mut avail, needed, size, phase),
                        reference(&free, needed, size, phase),
                        "size {size} needed {needed} phase {phase}"
                    );
                }
            }
        }
    }

    #[test]
    fn cover_with_gap_matches_every_start_search() {
        // Pin the kernel against the original try-every-start greedy.
        fn reference(free: &[u32], gap: u32, size: u32) -> Option<Vec<u32>> {
            if free.is_empty() || gap == 0 {
                return None;
            }
            let fwd = |a: u32, b: u32| (b + size - a - 1) % size + 1;
            'starts: for &start in free {
                let mut chosen = vec![start];
                let mut cur = start;
                loop {
                    if fwd(cur, start) <= gap {
                        chosen.sort_unstable();
                        return Some(chosen);
                    }
                    let next = free
                        .iter()
                        .copied()
                        .filter(|&f| f != cur && fwd(cur, f) <= gap)
                        .max_by_key(|&f| fwd(cur, f));
                    match next {
                        Some(f) => {
                            chosen.push(f);
                            cur = f;
                        }
                        None => continue 'starts,
                    }
                }
            }
            None
        }
        for size in [8u32, 32, 64, 100] {
            let free: Vec<u32> = (0..size).filter(|s| (s * 13 + 3) % 7 < 3).collect();
            let mask = SlotMask::from_slots(size, &free);
            for gap in [0u32, 1, 2, 5, size / 2, size - 1] {
                assert_eq!(
                    cover(&mask, gap, size),
                    reference(&free, gap, size),
                    "size {size} gap {gap}"
                );
            }
        }
        // Sparse sets where no cover exists.
        let mask = SlotMask::from_slots(64, &[0, 40]);
        assert_eq!(cover(&mask, 10, 64), None);
        assert_eq!(reference(&[0, 40], 10, 64), None);
        // Sets where the walk must stall and refuse, across word
        // boundaries: one free slot, and free slots every `gap` apart
        // but for one gap of `gap + 1`, wherever that gap falls.
        let check = |free: &[u32], gap: u32, size: u32, covered: bool| {
            let got = cover(&SlotMask::from_slots(size, free), gap, size);
            assert_eq!(
                got.is_some(),
                covered,
                "size {size} gap {gap} free {free:?}"
            );
            assert_eq!(got, reference(free, gap, size), "size {size} gap {gap}");
        };
        for size in [63u32, 64, 65, 130] {
            for slot in [0, size / 2, size - 1] {
                for gap in [1, 2, size / 2, size - 1] {
                    check(&[slot], gap, size, false);
                }
                check(&[slot], size, size, true);
            }
            for gap in [1u32, 2, 5, 31, 32, 33] {
                for rotate in [0, 1, size / 3, size - 1] {
                    let spaced = |first: u32| {
                        let mut free: Vec<u32> = (first..size)
                            .step_by(gap as usize)
                            .chain([0])
                            .map(|s| (s + rotate) % size)
                            .collect();
                        free.sort_unstable();
                        free.dedup();
                        free
                    };
                    // Every free-to-free gap at most `gap`: a cover.
                    check(&spaced(gap), gap, size, true);
                    // One gap of exactly `gap + 1`: the walk stalls.
                    check(&spaced(gap + 1), gap, size, false);
                }
            }
        }
    }

    #[test]
    fn admit_and_take_grant_roundtrip_without_disturbance() {
        let spec = aelite_spec::generate::paper_workload(7);
        let allocator = Allocator::new();
        let mut alloc = allocator.allocate(&spec).unwrap();
        let mut routes = RouteCache::new(spec.topology(), allocator.max_paths);
        let mut scratch = AllocScratch::new();
        let victim = spec.connections()[17].id;
        let others: Vec<Grant> = alloc
            .grants()
            .filter(|g| g.conn != victim)
            .cloned()
            .collect();

        // Teardown is O(Δ) and returns the grant for recycling.
        let taken = alloc.take_grant(victim).expect("was granted");
        assert_eq!(taken.conn, victim);
        assert!(alloc.grant(victim).is_none());
        assert!(alloc.take_grant(victim).is_none(), "second take is a no-op");
        let shift = spec.config().slots_per_hop();
        for &s in &taken.inject_slots {
            for (i, &l) in taken.links.iter().enumerate() {
                assert!(alloc.link_table(l).is_free(s + i as u32 * shift));
            }
        }
        scratch.recycle(taken);
        assert_eq!(scratch.pooled_grants(), 1);

        // Re-admission reuses the pooled buffers and disturbs nobody.
        admit_one(
            &allocator,
            &spec,
            &mut alloc,
            victim,
            &mut routes,
            &mut scratch,
        )
        .expect("freed resources suffice");
        assert_eq!(scratch.pooled_grants(), 0, "pooled grant was consumed");
        assert!(alloc.grant(victim).is_some());
        for g in others {
            assert_eq!(alloc.grant(g.conn).unwrap(), &g, "{} moved", g.conn);
        }
        crate::validate::validate(&spec, &alloc).expect("still consistent");
    }

    #[test]
    #[should_panic(expected = "already holds a grant")]
    fn admit_rejects_granted_connection() {
        let spec = two_conn_spec();
        let allocator = Allocator::new();
        let mut alloc = allocator.allocate(&spec).unwrap();
        let mut routes = RouteCache::new(spec.topology(), allocator.max_paths);
        let mut scratch = AllocScratch::new();
        let conn = spec.connections()[0].id;
        let _ = admit_one(
            &allocator,
            &spec,
            &mut alloc,
            conn,
            &mut routes,
            &mut scratch,
        );
    }

    #[test]
    fn alloc_error_display() {
        let e = AllocError::InsufficientSlots {
            conn: ConnId::new(3),
            needed: 5,
            best_available: 2,
        };
        let s = e.to_string();
        assert!(
            s.contains("c3") && s.contains('5') && s.contains('2'),
            "{s}"
        );
    }

    #[test]
    fn window_count_basics() {
        // Slots {0, 8, 16, 24} of 32.
        let service = SlotService::new(&[0, 8, 16, 24], 32);
        assert_eq!(service.max_service(1), 1);
        assert_eq!(service.max_service(8), 1);
        assert_eq!(service.max_service(9), 2);
        assert_eq!(service.max_service(32), 4);
        assert_eq!(service.max_service(0), 0);
        assert_eq!(SlotService::new(&[], 32).max_service(10), 0);
    }

    #[test]
    fn window_count_handles_clusters() {
        // Clustered slots stress the worst window.
        let service = SlotService::new(&[0, 1, 2, 20], 32);
        assert_eq!(service.max_service(3), 3);
        assert_eq!(service.max_service(4), 3);
        // Wrapping window catches 20,0,1,2 within 15 slots.
        assert_eq!(service.max_service(15), 4);
    }

    #[test]
    fn window_larger_than_table_multiplies() {
        let service = SlotService::new(&[0, 16], 32);
        assert_eq!(service.max_service(64), 4);
        // 81 consecutive slots starting at 0 catch 0,16,32,48,64,80.
        assert_eq!(service.max_service(64 + 17), 6);
    }

    #[test]
    fn paper_default_buffer_covers_most_connections() {
        // Undersized connections at 24, 12 and 8 words under the
        // simulators' 24-cycle credit return. The paper-default 24 words
        // cover every connection in both clockings; mesochronous paths are
        // twice as long in cycles, so smaller buffers leave more short.
        let sync = aelite_spec::generate::paper_workload(42);
        let meso = sync.with_link_pipeline_stages(1, 1);
        for (spec, counts) in [(&sync, [0, 0, 3]), (&meso, [0, 2, 13])] {
            let alloc = allocate(spec).unwrap();
            // Every connection whose reservation could stall on a
            // `words`-word destination buffer, with the words it needs.
            let undersized = |words| -> Vec<(ConnId, u32)> {
                spec.connections()
                    .iter()
                    .map(|c| (c.id, required_buffer_words(spec, &alloc, c.id, 24)))
                    .filter(|&(_, need)| need > words)
                    .collect()
            };
            let found = [24, 12, 8].map(|words| undersized(words).len());
            let stages = spec.config().link_pipeline_stages;
            assert_eq!(found, counts, "{stages} link pipeline stages");
            // The analysis is self-consistent: sizing each connection at
            // its own requirement clears it.
            for (conn, need) in undersized(8) {
                assert!(need > 8);
                assert!(!undersized(need).iter().any(|&(c, _)| c == conn));
            }
        }
    }

    #[test]
    fn more_slots_need_more_buffer() {
        let spec = aelite_spec::generate::paper_workload(1);
        let alloc = allocate(&spec).unwrap();
        // Find two connections with different slot counts.
        let mut sized: Vec<(usize, u32)> = spec
            .connections()
            .iter()
            .map(|c| {
                (
                    alloc.grant(c.id).unwrap().inject_slots.len(),
                    required_buffer_words(&spec, &alloc, c.id, 24),
                )
            })
            .collect();
        sized.sort_unstable();
        let (min_slots, min_need) = sized[0];
        let (max_slots, max_need) = sized[sized.len() - 1];
        assert!(max_slots > min_slots);
        assert!(
            max_need >= min_need,
            "more slots must not need less buffer ({max_need} vs {min_need})"
        );
    }

    #[test]
    fn longer_credit_return_needs_more_buffer() {
        let spec = aelite_spec::generate::paper_workload(1);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let short = required_buffer_words(&spec, &alloc, conn, 6);
        let long = required_buffer_words(&spec, &alloc, conn, 600);
        assert!(long > short, "{long} vs {short}");
    }
}
