//! Sharded parallel admission: region-partitioned churn engines with a
//! scoped two-phase commit for cross-shard requests.
//!
//! The serving workload (per-client streams over disjoint connection
//! pools, `aelite-serve`) is embarrassingly partitionable: most
//! requests touch a handful of links near one corner of the mesh. This
//! module exploits that by tiling the router grid into rectangular
//! **regions** and giving each region's links to one **shard** — an
//! independent [`ChurnEngine`] plus an [`Allocation`] partition holding
//! the real slot tables of exactly the links it owns. A request whose
//! every candidate route stays inside one region is **intra-shard**: it
//! can be admitted on that shard's thread with *no coordination at
//! all*, because the admission kernel only ever reads and writes the
//! slot tables of its candidate routes' links ([`ShardMap`] classifies
//! by the same [`RouteCache`] candidate enumeration the engines use, so
//! the claim is structural, not probabilistic). Everything else —
//! routes spanning regions, use-case switches naming connections homed
//! on different shards, unknown connection ids — is **cross-shard** and
//! goes through a scoped two-phase commit on the **hub**: phase one
//! *reserves* exactly the state the cross bucket can touch — the named
//! connections' grants, every candidate link of their routes, and their
//! currently-granted links — by swapping it from the owning shard parts
//! into the hub allocation; the hub engine then applies the cross
//! bucket with the ordinary per-request rollback machinery; phase two
//! *commits* by swapping the reserved scope back. The swaps are
//! pointer-level ([`Allocation::swap_link_table_with`]), so a cross
//! phase costs O(Δ) in the bucket's own footprint, never O(platform).
//!
//! Determinism is the load-bearing property: [`ShardedEngine`] applies
//! a burst in a fixed **sharded-canonical order** — shard 0's bucket in
//! [`canonical_order`](crate::canonical_order), then shard 1's, …, then
//! the cross bucket — and because intra buckets are link-disjoint by
//! construction, running them concurrently commutes: the end state and
//! every verdict are bit-identical to that serial reference whatever
//! the thread count (property-tested in `tests/proptest_shard.rs`).
//! With one shard the classification maps everything to shard 0 and the
//! engine degenerates to today's [`ChurnEngine::submit_batch`].

use crate::api::AdmissionRequest;
use crate::engine::{canonical_order_of, placeholder, ChurnEngine, ChurnStats, Verdict};
use aelite_alloc::{Allocation, Allocator, RouteCache, RouteProvider, Steering};
use aelite_spec::ids::{ConnId, LinkId};
use aelite_spec::topology::Endpoint;
use aelite_spec::SystemSpec;
use core::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Shape of the shard partition: how the router grid is tiled and how
/// many candidate routes the per-shard engines (and the classification)
/// enumerate per NI pair.
///
/// A link whose endpoints fall in two different regions belongs to the
/// lower-numbered one: requests confined to that region (including
/// boundary-hugging detours) stay intra-shard; the higher region's
/// requests that touch the link are cross-shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Region tiles along the mesh X dimension.
    pub tiles_x: u32,
    /// Region tiles along the mesh Y dimension.
    pub tiles_y: u32,
    /// `max_paths` bound of the per-shard allocators **and** of the
    /// classification: both enumerate the same candidate list, which is
    /// what makes "every candidate link owned by shard k" a sound
    /// isolation proof. Lower values (e.g. 2 = the XY/YX pair) keep
    /// routes inside the endpoints' bounding box, so region-local
    /// traffic classifies intra-shard; the default 12 admits detours
    /// that may escape the region and classify cross.
    pub max_paths: usize,
    /// Candidate-ordering mode of the per-shard allocators (and the
    /// hub's). Classification depends only on the candidate *set*, never
    /// its order, so steering changes which route a grant lands on —
    /// identically in every lane and in the serial reference engine —
    /// without touching the isolation proof.
    pub steering: Steering,
}

impl ShardConfig {
    /// One shard covering the whole platform: [`ShardedEngine`]
    /// degenerates to a plain [`ChurnEngine`] (bit-identical outcomes),
    /// on any topology.
    #[must_use]
    pub fn single() -> Self {
        ShardConfig {
            tiles_x: 1,
            tiles_y: 1,
            max_paths: Allocator::new().max_paths,
            steering: Steering::ShortestFirst,
        }
    }

    /// A `tiles_x` × `tiles_y` tiling of the router grid with the
    /// default `max_paths` bound. Requires a mesh topology when more
    /// than one tile is asked for.
    #[must_use]
    pub fn tiled(tiles_x: u32, tiles_y: u32) -> Self {
        ShardConfig {
            tiles_x,
            tiles_y,
            ..ShardConfig::single()
        }
    }

    /// Number of shards this tiling produces.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::single()
    }
}

/// Where a request may run: on one shard with no coordination, or in
/// the hub's cross-shard commit phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardClass {
    /// Every slot table the request can touch is owned by this shard.
    Intra(usize),
    /// The request spans regions (or names ids the map does not know)
    /// and must run on the hub under a reserved scope.
    Cross,
}

/// Home sentinel for cross-shard connections.
const CROSS: u32 = u32::MAX;

/// Minimum total requests in a parallel phase before `run_shards`
/// spawns scoped workers; below this the serial loop beats the spawn
/// cost. Outcomes are identical either way — only wall-clock differs.
const PARALLEL_FLOOR: usize = 256;

/// The static partition: per-link owners and per-connection homes,
/// derived once from the topology tiling and the route-candidate
/// enumeration.
///
/// A connection's **home** is the shard that owns every link of every
/// candidate route between its NIs (under the map's `max_paths` bound),
/// or cross-shard if no single shard does. Classification is *total*
/// (every request maps to exactly one [`ShardClass`]) and *stable* (it
/// depends only on the spec and config, never on allocation state or
/// thread schedule) — property-tested in `tests/proptest_shard.rs`.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    /// Owning shard per link index.
    link_owner: Vec<u32>,
    /// Home shard per connection index; [`CROSS`] = cross-shard.
    conn_home: Vec<u32>,
    /// Links owned by each shard — the adopt/collapse worklist.
    owned_links: Vec<Vec<LinkId>>,
    /// Connections homed on each shard — the grant adopt worklist.
    home_conns: Vec<Vec<ConnId>>,
    /// Per connection: every link any of its candidate routes can touch
    /// (sorted, deduplicated) — the reserve scope of a cross commit.
    conn_links: Vec<Vec<LinkId>>,
}

impl ShardMap {
    /// Builds the partition for `spec` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` asks for more than one tile on a non-mesh
    /// topology (regions are defined by router grid coordinates).
    #[must_use]
    pub fn build(spec: &SystemSpec, config: &ShardConfig) -> ShardMap {
        let topo = spec.topology();
        let shards = config.shard_count().max(1);
        let region_of = |r: aelite_spec::ids::RouterId| -> u32 {
            if shards == 1 {
                return 0;
            }
            let (cols, rows) = topo
                .mesh_dims()
                .expect("multi-tile shard maps require a mesh topology");
            let (x, y) = topo.coords(r).expect("mesh router has coordinates");
            let tx = x * config.tiles_x / cols;
            let ty = y * config.tiles_y / rows;
            ty * config.tiles_x + tx
        };

        let mut link_owner = vec![0u32; topo.link_count()];
        let mut owned_links = vec![Vec::new(); shards];
        for id in topo.links() {
            let link = topo.link(id);
            let end_region = |e: Endpoint| match e {
                Endpoint::Router(r, _) => region_of(r),
                Endpoint::Ni(n) => region_of(topo.ni_router(n)),
            };
            // A boundary link goes to the lower-numbered region.
            let owner = end_region(link.from).min(end_region(link.to));
            link_owner[id.index()] = owner;
            owned_links[owner as usize].push(id);
        }

        // Home every connection by the full candidate list the engines
        // will enumerate: identical max_paths bound, identical cache.
        let mut routes = RouteCache::new(topo, config.max_paths);
        let mut conn_home = vec![CROSS; spec.conn_id_bound()];
        let mut home_conns = vec![Vec::new(); shards];
        let mut conn_links = vec![Vec::new(); spec.conn_id_bound()];
        for c in spec.connections() {
            let src = spec.ip_ni(c.src);
            let dst = spec.ip_ni(c.dst);
            let links = &mut conn_links[c.id.index()];
            let mut home: Option<u32> = None;
            let mut cross = false;
            for route in routes.candidates(topo, src, dst) {
                for l in &route.links {
                    links.push(*l);
                    let owner = link_owner[l.index()];
                    if *home.get_or_insert(owner) != owner {
                        cross = true;
                    }
                }
            }
            links.sort_unstable();
            links.dedup();
            if !cross {
                // Feasible specs have at least one candidate per pair;
                // a pair with none can only fail at admission time, so
                // home it anywhere deterministic.
                let k = home.unwrap_or(0);
                conn_home[c.id.index()] = k;
                home_conns[k as usize].push(c.id);
            }
        }

        ShardMap {
            shards,
            link_owner,
            conn_home,
            owned_links,
            home_conns,
            conn_links,
        }
    }

    /// Number of shards (regions) in the partition.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `link`'s slot table, or `None` for a link the
    /// map does not know.
    #[must_use]
    pub fn link_owner(&self, link: LinkId) -> Option<usize> {
        self.link_owner.get(link.index()).map(|&o| o as usize)
    }

    /// The home shard of `conn`, or `None` if it is cross-shard (or
    /// unknown to the map — unknown ids always take the hub path, which
    /// refuses them exactly like a plain engine would).
    #[must_use]
    pub fn conn_home(&self, conn: ConnId) -> Option<usize> {
        match self.conn_home.get(conn.index()) {
            Some(&h) if h != CROSS => Some(h as usize),
            _ => None,
        }
    }

    /// Every link any candidate route of `conn` can touch, sorted and
    /// deduplicated — what a cross commit must reserve before admitting
    /// `conn` on the hub. Empty for ids the map does not know.
    #[must_use]
    pub fn conn_links(&self, conn: ConnId) -> &[LinkId] {
        self.conn_links.get(conn.index()).map_or(&[], Vec::as_slice)
    }

    /// Classifies one request: intra-shard iff every connection it
    /// names is homed on one and the same shard.
    ///
    /// Total and stable: every request maps to exactly one class, and
    /// the answer depends only on the map (spec + config), never on
    /// allocation state. An empty switch is intra on shard 0.
    #[must_use]
    pub fn classify(&self, request: &AdmissionRequest) -> ShardClass {
        let home_of = |c: ConnId| self.conn_home(c);
        match request {
            AdmissionRequest::Open(c) | AdmissionRequest::Close(c) => match home_of(*c) {
                Some(k) => ShardClass::Intra(k),
                None => ShardClass::Cross,
            },
            AdmissionRequest::Switch { close, open } => {
                let mut home: Option<usize> = None;
                for &c in close.iter().chain(open.iter()) {
                    match home_of(c) {
                        None => return ShardClass::Cross,
                        Some(k) => {
                            if *home.get_or_insert(k) != k {
                                return ShardClass::Cross;
                            }
                        }
                    }
                }
                ShardClass::Intra(home.unwrap_or(0))
            }
        }
    }
}

/// An [`Allocation`] partitioned along a [`ShardMap`]: one full
/// platform-shaped part per shard holding the *real* slot tables of the
/// links that shard owns (every other table empty), plus a hub part
/// holding the grants of cross-shard connections.
///
/// Invariant: between bursts, each link's real table lives in its
/// owner's part, each granted connection's grant lives in its home part
/// (cross grants in the hub), and the union of the parts —
/// [`collapse`](Self::collapse) — is exactly the allocation a serial
/// engine would have produced.
#[derive(Debug, Clone)]
pub struct ShardedAllocation {
    parts: Vec<Allocation>,
    hub: Allocation,
}

impl ShardedAllocation {
    /// Partitions an existing allocation along `map`.
    ///
    /// # Panics
    ///
    /// Panics if a shard-homed connection's grant uses a link outside
    /// its home shard's ownership — the grant was produced under a
    /// route set the map does not describe (e.g. a wider `max_paths`
    /// than [`ShardConfig::max_paths`]). Such allocations can only be
    /// adopted under a map built with the same route bound.
    #[must_use]
    pub fn adopt(spec: &SystemSpec, mut alloc: Allocation, map: &ShardMap) -> Self {
        let mut parts: Vec<Allocation> = (0..map.shards)
            .map(|_| Allocation::empty_for(spec))
            .collect();
        for (k, part) in parts.iter_mut().enumerate() {
            for &link in &map.owned_links[k] {
                alloc.swap_link_table_with(part, link);
            }
            for &conn in &map.home_conns[k] {
                if let Some(g) = alloc.grant(conn) {
                    for &l in &g.links {
                        assert_eq!(
                            map.link_owner(l),
                            Some(k),
                            "grant of {conn} uses {l} outside home shard {k}: \
                             adopt needs grants routed under the map's max_paths bound"
                        );
                    }
                    alloc.swap_grant_with(part, conn);
                }
            }
        }
        ShardedAllocation { parts, hub: alloc }
    }

    /// An empty partitioned allocation for `spec`.
    #[must_use]
    pub fn empty_for(spec: &SystemSpec, map: &ShardMap) -> Self {
        ShardedAllocation::adopt(spec, Allocation::empty_for(spec), map)
    }

    /// Reassembles the partition into one flat [`Allocation`] —
    /// the inverse of [`adopt`](Self::adopt), used to compare a sharded
    /// end state against a serial engine's and to hand the allocation
    /// to consumers that want the plain view (validation, the turbo
    /// simulator).
    #[must_use]
    pub fn collapse(&self, map: &ShardMap) -> Allocation {
        let mut out = self.hub.clone();
        for (k, part) in self.parts.iter().enumerate() {
            let mut part = part.clone();
            for &link in &map.owned_links[k] {
                out.swap_link_table_with(&mut part, link);
            }
            for &conn in &map.home_conns[k] {
                if part.grant(conn).is_some() {
                    out.swap_grant_with(&mut part, conn);
                }
            }
        }
        out
    }

    /// The grant of `conn`, wherever its part lives. O(shards) probe.
    #[must_use]
    pub fn grant(&self, conn: ConnId) -> Option<&aelite_alloc::Grant> {
        self.parts
            .iter()
            .chain(core::iter::once(&self.hub))
            .find_map(|p| p.grant(conn))
    }

    /// Shard `k`'s partition (its owned link tables are the real ones).
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn part(&self, k: usize) -> &Allocation {
        &self.parts[k]
    }

    /// The hub partition (cross-shard grants).
    #[must_use]
    pub fn hub(&self) -> &Allocation {
        &self.hub
    }

    /// Phase one of the cross-shard commit: the hub *reserves* exactly
    /// the state the cross bucket can touch — `links` (every candidate
    /// and currently-granted link of the named connections) from their
    /// owning parts, and the named connections' grants from their home
    /// parts. O(Δ) in the bucket's footprint, never O(platform).
    ///
    /// `links` and `conns` must be deduplicated — a duplicate entry
    /// would swap the state straight back out.
    fn reserve_scope(&mut self, map: &ShardMap, links: &[LinkId], conns: &[ConnId]) {
        for &l in links {
            if let Some(k) = map.link_owner(l) {
                self.parts[k].swap_link_table_with(&mut self.hub, l);
            }
        }
        for &c in conns {
            if let Some(k) = map.conn_home(c) {
                // Whoever holds the grant (the home part if open, nobody
                // if closed), the swap moves exactly that to the hub.
                self.parts[k].swap_grant_with(&mut self.hub, c);
            }
            // Cross-homed grants already live in the hub.
        }
    }

    /// Phase two: *commit* the reserved scope back — tables to their
    /// owners, grants to their home parts. Cross-homed grants (opened
    /// or still held) stay in the hub, which is their home.
    fn commit_scope(&mut self, map: &ShardMap, links: &[LinkId], conns: &[ConnId]) {
        for &l in links {
            if let Some(k) = map.link_owner(l) {
                self.parts[k].swap_link_table_with(&mut self.hub, l);
            }
        }
        for &c in conns {
            if let Some(k) = map.conn_home(c) {
                self.hub.swap_grant_with(&mut self.parts[k], c);
            }
        }
    }
}

/// One shard's working set during a parallel phase: exclusive borrows
/// of its engine and allocation part plus the work list and the verdict
/// sink. Behind a `Mutex` only to satisfy `Sync` — the atomic cursor
/// hands each lane to exactly one worker, so every lock is uncontended.
struct Lane<'a> {
    engine: &'a mut ChurnEngine,
    part: &'a mut Allocation,
    /// Arrival-index buckets to apply in order, one per burst of the
    /// current segment that has requests for this shard.
    work: &'a [Vec<usize>],
    pairs: &'a mut Vec<(usize, Verdict)>,
}

impl Lane<'_> {
    /// Applies the lane's buckets in order, one admission round each,
    /// appending `(arrival_index, verdict)` pairs in application order.
    fn run(&mut self, spec: &SystemSpec, requests: &[AdmissionRequest]) {
        for bucket in self.work {
            let indices = bucket.iter().copied();
            self.engine
                .apply_round(spec, self.part, requests, indices, |i, v| {
                    self.pairs.push((i, v));
                });
        }
    }
}

/// Region-partitioned parallel admission over a [`ShardedAllocation`]:
/// one [`ChurnEngine`] per shard plus a hub engine for the cross-shard
/// two-phase commit. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct ShardedEngine {
    config: ShardConfig,
    map: ShardMap,
    engines: Vec<ChurnEngine>,
    hub_engine: ChurnEngine,
    /// Reusable per-shard arrival-index buckets of the burst being
    /// classified.
    buckets: Vec<Vec<usize>>,
    /// Reusable cross-shard bucket.
    cross: Vec<usize>,
    /// Reusable per-shard verdict sinks.
    pairs: Vec<Vec<(usize, Verdict)>>,
    /// Reusable reserve scope of the cross commit: links and
    /// connections the current cross bucket can touch.
    scope_links: Vec<LinkId>,
    scope_conns: Vec<ConnId>,
}

impl ShardedEngine {
    /// An engine for `spec`'s platform partitioned under `config`. Each
    /// shard (and the hub) gets its own allocator with the config's
    /// `max_paths` bound, its own route cache and scratch.
    ///
    /// # Panics
    ///
    /// Panics if `config` tiles a non-mesh topology.
    #[must_use]
    pub fn new(spec: &SystemSpec, config: ShardConfig) -> Self {
        let map = ShardMap::build(spec, &config);
        let allocator = Allocator {
            max_paths: config.max_paths,
            steering: config.steering,
            ..Allocator::new()
        };
        let shards = map.shards();
        ShardedEngine {
            config,
            map,
            engines: (0..shards)
                .map(|_| ChurnEngine::with_allocator(spec, allocator))
                .collect(),
            hub_engine: ChurnEngine::with_allocator(spec, allocator),
            buckets: vec![Vec::new(); shards],
            cross: Vec::new(),
            pairs: vec![Vec::new(); shards],
            scope_links: Vec::new(),
            scope_conns: Vec::new(),
        }
    }

    /// The partition this engine admits against.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The tiling configuration this engine was built with.
    #[must_use]
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Installs `faults` as the fault mask of **every** shard engine and
    /// the hub (see [`ChurnEngine::set_faults`]): a route traversing a
    /// down link can be granted by none of the admission paths —
    /// intra-shard, serial fallback, or the cross-shard two-phase
    /// commit. Masking only removes candidates, so shard classification
    /// and the conn-links ownership invariants are unaffected; the
    /// sharded outcome stays bit-identical to the plain engine under the
    /// same mask in [`sharded_canonical_order`].
    pub fn set_faults(&mut self, faults: &aelite_alloc::FaultMask) {
        for e in &mut self.engines {
            e.set_faults(faults);
        }
        self.hub_engine.set_faults(faults);
    }

    /// Work counters summed over every shard engine and the hub.
    #[must_use]
    pub fn stats(&self) -> ChurnStats {
        self.engines
            .iter()
            .chain(core::iter::once(&self.hub_engine))
            .fold(ChurnStats::default(), |total, e| total.plus(e.stats()))
    }

    /// Services a burst of **independent** requests in parallel, writing
    /// one verdict per request into `verdicts` (cleared first, arrival
    /// order).
    ///
    /// This is [`replay_stream`](Self::replay_stream) over the single
    /// burst `0..requests.len()`: intra-shard buckets run concurrently
    /// on up to `threads` workers (each worker claims whole shards off
    /// an atomic cursor), then the cross bucket — if any — runs the
    /// scoped two-phase commit on the hub. End state and verdicts are
    /// bit-identical to the sharded-canonical
    /// serial reference (shard 0's bucket in canonical order, then
    /// shard 1's, …, then cross) for any `threads`, and with one shard
    /// to [`ChurnEngine::submit_batch`] itself.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn submit_batch(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut ShardedAllocation,
        requests: &[AdmissionRequest],
        verdicts: &mut Vec<Verdict>,
        threads: usize,
    ) {
        let burst = 0..requests.len();
        let bursts = core::slice::from_ref(&burst);
        self.replay_stream(spec, alloc, requests, bursts, threads, verdicts);
    }

    /// Runs the pending cross bucket through the hub engine under a
    /// scoped two-phase reserve/commit, scattering verdicts by arrival
    /// index.
    fn run_cross(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut ShardedAllocation,
        requests: &[AdmissionRequest],
        verdicts: &mut [Verdict],
    ) {
        // The reserve scope: the named connections, every candidate
        // link any of them can route over, plus their currently-granted
        // links (a grant adopted from a wider route bound may sit
        // outside the map's candidate set).
        self.scope_conns.clear();
        for &i in &self.cross {
            match &requests[i] {
                AdmissionRequest::Open(c) | AdmissionRequest::Close(c) => {
                    self.scope_conns.push(*c);
                }
                AdmissionRequest::Switch { close, open } => {
                    self.scope_conns.extend_from_slice(close);
                    self.scope_conns.extend_from_slice(open);
                }
            }
        }
        self.scope_conns.sort_unstable();
        self.scope_conns.dedup();
        self.scope_links.clear();
        for &c in &self.scope_conns {
            self.scope_links.extend_from_slice(self.map.conn_links(c));
            if let Some(g) = alloc.grant(c) {
                self.scope_links.extend_from_slice(&g.links);
            }
        }
        self.scope_links.sort_unstable();
        self.scope_links.dedup();

        alloc.reserve_scope(&self.map, &self.scope_links, &self.scope_conns);
        let cross = self.cross.iter().copied();
        self.hub_engine
            .apply_round(spec, &mut alloc.hub, requests, cross, |i, v| {
                verdicts[i] = v;
            });
        alloc.commit_scope(&self.map, &self.scope_links, &self.scope_conns);
    }

    /// Replays a planned burst sequence (`plan_bursts`-style ranges
    /// over `requests`, see `aelite-serve`) — the engine's one fan-out
    /// path, which [`submit_batch`](Self::submit_batch) runs over a
    /// single burst. Each burst is bucketed by [`ShardMap::classify`];
    /// threading is **segment-scoped**: worker threads are spawned once
    /// per *segment* — a maximal run of bursts containing no cross-shard
    /// request, plus at most one cross tail — and inside a segment each
    /// shard's engine walks its buckets burst by burst. A stream with no
    /// cross requests (e.g. region-local client pools) is a single
    /// segment: one thread spawn for the whole replay.
    ///
    /// Per-connection request order is preserved (a connection's
    /// requests all land in its home shard's lane, processed in burst
    /// order), so verdicts and end state are bit-identical to replaying
    /// the bursts one [`submit_batch`](Self::submit_batch) at a time,
    /// for any `threads` (pinned in `tests/shard_replay.rs`).
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch or if a range in `bursts` is out of
    /// bounds of `requests`.
    pub fn replay_stream(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut ShardedAllocation,
        requests: &[AdmissionRequest],
        bursts: &[Range<usize>],
        threads: usize,
        verdicts: &mut Vec<Verdict>,
    ) {
        verdicts.clear();
        verdicts.resize(requests.len(), placeholder());
        let shards = self.map.shards();
        let mut b = 0;
        while b < bursts.len() {
            // Scan the segment: per-shard bucket lists, one per burst,
            // stopping after the first burst that has cross requests.
            let mut seg: Vec<Vec<Vec<usize>>> = vec![Vec::new(); shards];
            self.cross.clear();
            let mut e = b;
            while e < bursts.len() {
                for bucket in &mut self.buckets {
                    bucket.clear();
                }
                let mut has_cross = false;
                for i in bursts[e].clone() {
                    match self.map.classify(&requests[i]) {
                        ShardClass::Intra(k) => self.buckets[k].push(i),
                        ShardClass::Cross => {
                            self.cross.push(i);
                            has_cross = true;
                        }
                    }
                }
                for (k, bucket) in self.buckets.iter().enumerate() {
                    if !bucket.is_empty() {
                        seg[k].push(bucket.clone());
                    }
                }
                e += 1;
                if has_cross {
                    break;
                }
            }

            run_shards(
                spec,
                &mut self.engines,
                &mut alloc.parts,
                &seg,
                &mut self.pairs,
                requests,
                threads,
            );
            for pairs in &mut self.pairs {
                for (i, v) in pairs.drain(..) {
                    verdicts[i] = v;
                }
            }
            if !self.cross.is_empty() {
                self.run_cross(spec, alloc, requests, verdicts);
            }
            b = e;
        }
    }
}

/// Runs every shard's bucket list, fanning out over up to `threads`
/// scoped workers pulling shard lanes off an atomic cursor. Lanes are
/// exclusive per shard, so this is deterministic: whichever worker
/// claims a lane applies exactly the same buckets to exactly the same
/// engine + partition.
#[allow(clippy::too_many_arguments)]
fn run_shards(
    spec: &SystemSpec,
    engines: &mut [ChurnEngine],
    parts: &mut [Allocation],
    work: &[Vec<Vec<usize>>],
    pairs: &mut [Vec<(usize, Verdict)>],
    requests: &[AdmissionRequest],
    threads: usize,
) {
    let active: Vec<usize> = (0..work.len()).filter(|&k| !work[k].is_empty()).collect();
    if active.is_empty() {
        return;
    }
    let total: usize = active
        .iter()
        .map(|&k| work[k].iter().map(Vec::len).sum::<usize>())
        .sum();
    let workers = threads.max(1).min(active.len());
    // Below the floor the spawn cost of a scope outweighs the fan-out;
    // the serial loop applies the very same buckets in the very same
    // per-lane order, so outcomes cannot depend on which path runs.
    if workers <= 1 || total < PARALLEL_FLOOR {
        for &k in &active {
            let mut lane = Lane {
                engine: &mut engines[k],
                part: &mut parts[k],
                work: &work[k],
                pairs: &mut pairs[k],
            };
            lane.run(spec, requests);
        }
        return;
    }

    let lanes: Vec<Mutex<Lane<'_>>> = engines
        .iter_mut()
        .zip(parts.iter_mut())
        .zip(work.iter())
        .zip(pairs.iter_mut())
        .map(|(((engine, part), work), pairs)| {
            Mutex::new(Lane {
                engine,
                part,
                work,
                pairs,
            })
        })
        .collect();
    let cursor = AtomicUsize::new(0);
    let (lanes, active, cursor) = (&lanes, &active, &cursor);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(move || loop {
                let n = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&k) = active.get(n) else { break };
                lanes[k].lock().expect("lane poisoned").run(spec, requests);
            });
        }
    });
}

/// The serial reference order [`ShardedEngine::submit_batch`] is
/// pinned against: shard 0's bucket in
/// [`canonical_order`](crate::canonical_order), then shard 1's, …, then
/// the cross bucket — written into `out` (cleared first) as arrival
/// indices. Applying `requests` serially in this order through a plain
/// [`ChurnEngine`] reproduces the sharded engine's end state and
/// verdicts bit-for-bit.
pub fn sharded_canonical_order(
    spec: &SystemSpec,
    map: &ShardMap,
    requests: &[AdmissionRequest],
    out: &mut Vec<usize>,
) {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); map.shards()];
    let mut cross = Vec::new();
    for (i, r) in requests.iter().enumerate() {
        match map.classify(r) {
            ShardClass::Intra(k) => buckets[k].push(i),
            ShardClass::Cross => cross.push(i),
        }
    }
    out.clear();
    let mut ordered = Vec::new();
    for bucket in buckets.iter().chain(core::iter::once(&cross)) {
        canonical_order_of(spec, requests, bucket.iter().copied(), &mut ordered);
        out.extend_from_slice(&ordered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::allocate;
    use aelite_spec::generate::scaled_workload;
    use aelite_spec::topology::Topology;

    fn quad_config() -> ShardConfig {
        ShardConfig {
            max_paths: 2,
            ..ShardConfig::tiled(2, 2)
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let spec = scaled_workload(4, 4, 2, 60, 7);
        let map = ShardMap::build(&spec, &ShardConfig::single());
        assert_eq!(map.shards(), 1);
        for l in spec.topology().links() {
            assert_eq!(map.link_owner(l), Some(0));
        }
        for c in spec.connections() {
            assert_eq!(map.conn_home(c.id), Some(0));
        }
    }

    #[test]
    fn quadrant_map_partitions_links_and_boundary_goes_low() {
        let spec = scaled_workload(4, 4, 2, 60, 7);
        let topo = spec.topology();
        let map = ShardMap::build(&spec, &quad_config());
        assert_eq!(map.shards(), 4);
        // Every link is owned (nothing is left to the hub), and NI
        // links follow their router's quadrant.
        let mut counts = [0usize; 4];
        for l in topo.links() {
            let owner = map.link_owner(l).expect("every link has an owner");
            counts[owner] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }

    #[test]
    fn ring_topology_rejects_tiling_but_takes_single_shard() {
        let topo = Topology::ring(6, 1);
        // Single shard works on any topology...
        let spec = {
            use aelite_spec::app::SystemSpecBuilder;
            use aelite_spec::ids::NiId;
            use aelite_spec::traffic::Bandwidth;
            let mut b = SystemSpecBuilder::new(topo, aelite_spec::NocConfig::paper_default());
            let a = b.add_app("a");
            let s = b.add_ip_at(NiId::new(0));
            let d = b.add_ip_at(NiId::new(3));
            b.add_connection(a, s, d, Bandwidth::from_mbytes_per_sec(50), 10_000);
            b.build()
        };
        let map = ShardMap::build(&spec, &ShardConfig::single());
        assert_eq!(map.shards(), 1);
        // ...but a multi-tile map panics.
        let result = std::panic::catch_unwind(|| ShardMap::build(&spec, &ShardConfig::tiled(2, 1)));
        assert!(result.is_err(), "tiling a ring must panic");
    }

    #[test]
    fn adopt_collapse_roundtrips_bit_for_bit() {
        let spec = scaled_workload(4, 4, 2, 60, 7);
        let alloc = allocate(&spec).unwrap();
        // Adopt under the full route bound so existing grants (made with
        // max_paths 12) satisfy the ownership invariant.
        let map = ShardMap::build(&spec, &ShardConfig::single());
        let sharded = ShardedAllocation::adopt(&spec, alloc.clone(), &map);
        let back = sharded.collapse(&map);
        for l in spec.topology().links() {
            assert_eq!(back.link_table(l), alloc.link_table(l), "{l} diverged");
        }
        for c in spec.connections() {
            assert_eq!(back.grant(c.id), alloc.grant(c.id), "{} diverged", c.id);
        }
    }

    #[test]
    fn sharded_burst_matches_plain_engine_on_one_shard() {
        let spec = scaled_workload(4, 4, 2, 60, 7);
        let map_cfg = ShardConfig::single();
        let mut sharded = ShardedEngine::new(&spec, map_cfg);
        let mut plain = ChurnEngine::new(&spec);
        let alloc0 = allocate(&spec).unwrap();
        let mut flat = alloc0.clone();
        let mut parts = ShardedAllocation::adopt(&spec, alloc0, sharded.map());

        let ids: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
        let requests = vec![
            AdmissionRequest::Close(ids[0]),
            AdmissionRequest::Close(ids[1]),
            AdmissionRequest::Open(ids[2]), // already open -> refused
            AdmissionRequest::Switch {
                close: vec![ids[3], ids[4]],
                open: vec![],
            },
        ];
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        sharded.submit_batch(&spec, &mut parts, &requests, &mut va, 4);
        plain.submit_batch(&spec, &mut flat, &requests, &mut vb);
        assert_eq!(va, vb);
        let back = parts.collapse(sharded.map());
        for c in &ids {
            assert_eq!(back.grant(*c), flat.grant(*c), "{c} diverged");
        }
        assert_eq!(sharded.stats(), *plain.stats());
    }

    #[test]
    fn steered_sharded_burst_matches_steered_plain_engine() {
        let spec = scaled_workload(4, 4, 2, 60, 7);
        let cfg = ShardConfig {
            steering: Steering::SpareCapacity,
            ..ShardConfig::single()
        };
        let mut sharded = ShardedEngine::new(&spec, cfg);
        let mut plain = ChurnEngine::with_allocator(
            &spec,
            Allocator {
                steering: Steering::SpareCapacity,
                ..Allocator::new()
            },
        );
        let mut flat = Allocation::empty_for(&spec);
        let mut parts = ShardedAllocation::empty_for(&spec, sharded.map());

        let ids: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
        let requests: Vec<AdmissionRequest> = ids
            .iter()
            .take(24)
            .map(|&c| AdmissionRequest::Open(c))
            .collect();
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        sharded.submit_batch(&spec, &mut parts, &requests, &mut va, 4);
        plain.submit_batch(&spec, &mut flat, &requests, &mut vb);
        assert_eq!(va, vb);
        let back = parts.collapse(sharded.map());
        for c in ids.iter().take(24) {
            assert_eq!(back.grant(*c), flat.grant(*c), "{c} diverged");
        }
        assert_eq!(sharded.stats(), *plain.stats());
    }

    #[test]
    fn cross_shard_requests_take_the_hub_and_commit_back() {
        let spec = scaled_workload(4, 4, 2, 80, 11);
        let cfg = quad_config();
        let mut engine = ShardedEngine::new(&spec, cfg);
        let mut alloc = ShardedAllocation::empty_for(&spec, engine.map());

        // Find one intra and one cross connection.
        let intra = spec
            .connections()
            .iter()
            .find(|c| engine.map().conn_home(c.id).is_some())
            .expect("regional pair exists on 4x4");
        let cross = spec
            .connections()
            .iter()
            .find(|c| engine.map().conn_home(c.id).is_none())
            .expect("cross pair exists on 4x4");

        let requests = vec![
            AdmissionRequest::Open(intra.id),
            AdmissionRequest::Open(cross.id),
        ];
        let mut verdicts = Vec::new();
        engine.submit_batch(&spec, &mut alloc, &requests, &mut verdicts, 2);
        assert!(verdicts[0].is_ok(), "{:?}", verdicts[0]);
        assert!(verdicts[1].is_ok(), "{:?}", verdicts[1]);
        // The intra grant lives in its home part, the cross grant in the
        // hub, and both survive a close round-trip.
        let home = engine.map().conn_home(intra.id).unwrap();
        assert!(alloc.part(home).grant(intra.id).is_some());
        assert!(alloc.hub().grant(cross.id).is_some());

        let requests = vec![
            AdmissionRequest::Close(intra.id),
            AdmissionRequest::Close(cross.id),
        ];
        engine.submit_batch(&spec, &mut alloc, &requests, &mut verdicts, 2);
        assert!(verdicts.iter().all(Result::is_ok), "{verdicts:?}");
        assert!(alloc.grant(intra.id).is_none());
        assert!(alloc.grant(cross.id).is_none());
        assert_eq!(engine.stats().ops(), 4);
    }

    #[test]
    fn classification_is_total() {
        let spec = scaled_workload(4, 4, 2, 60, 7);
        let map = ShardMap::build(&spec, &quad_config());
        for c in spec.connections() {
            // Every request kind classifies without panicking, and open
            // and close of the same connection agree.
            let open = map.classify(&AdmissionRequest::Open(c.id));
            let close = map.classify(&AdmissionRequest::Close(c.id));
            assert_eq!(open, close);
        }
        // Unknown ids are cross (the hub refuses them like a plain
        // engine would).
        let unknown = ConnId::new(10_000);
        assert_eq!(
            map.classify(&AdmissionRequest::Close(unknown)),
            ShardClass::Cross
        );
        // An empty switch is intra on shard 0.
        assert_eq!(
            map.classify(&AdmissionRequest::Switch {
                close: vec![],
                open: vec![]
            }),
            ShardClass::Intra(0)
        );
    }
}
