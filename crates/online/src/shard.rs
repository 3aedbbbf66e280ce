//! Sharded admission: a region tiling of the router grid that decides
//! the order in which a burst is admitted.
//!
//! Each link belongs to one region's **shard** ([`ShardConfig`]); a
//! connection whose every candidate route stays on one shard's links is
//! homed there ([`ShardMap`], by the engine's own [`RouteCache`]
//! enumeration). [`ShardedEngine`] applies each burst in the
//! **sharded-canonical order** — shard 0's bucket in
//! [`canonical_order`](crate::canonical_order), then shard 1's, …, then
//! the cross bucket — one admission round per non-empty bucket, on one
//! [`ChurnEngine`] over one [`Allocation`]. With one shard that is
//! exactly [`ChurnEngine::submit_batch`] (`tests/proptest_shard.rs`).
//!
//! Intra buckets touch disjoint links, so they could run in parallel;
//! they run serially because on two cores parallel lanes bought
//! 0.97–1.05× (README, "Sharded admission").

use crate::api::AdmissionRequest;
use crate::engine::{canonical_order_of, placeholder, ChurnEngine, ChurnStats, Verdict};
use aelite_alloc::{Allocation, Allocator, RouteCache, RouteProvider, Steering};
use aelite_spec::ids::{ConnId, LinkId};
use aelite_spec::topology::Endpoint;
use aelite_spec::SystemSpec;
use core::ops::Range;

/// Shape of the shard partition: how the router grid is tiled and how
/// many candidate routes the engine (and the classification) enumerate
/// per NI pair.
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
    /// `max_paths` bound of the engine's allocator **and** of the
    /// classification, so both see the same candidates. Lower values
    /// (2 = the XY/YX pair) keep routes inside the endpoints' bounding
    /// box, so region-local traffic classifies intra-shard; the default
    /// 12 admits detours that may leave the region and classify cross.
    pub max_paths: usize,
    /// Candidate-ordering mode of the engine's allocator. Classification
    /// depends only on the candidate *set*, never its order.
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
    pub(crate) fn shard_count(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::single()
    }
}

/// Which bucket of a burst a request is admitted in: its home shard's,
/// or the cross bucket that runs after every shard's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardClass {
    /// Every slot table the request can touch is owned by this shard.
    Intra(usize),
    /// The request spans regions (or names ids the map does not know).
    Cross,
}

/// Home sentinel for cross-shard connections.
const CROSS: u32 = u32::MAX;

/// The static partition: per-connection homes. A link's slot table is
/// owned by the region of its ends, a boundary link by the
/// lower-numbered one. A connection's **home** is the shard that owns
/// every link of every candidate route between its NIs (under the map's
/// `max_paths` bound), or none (cross-shard) if no single shard does.
/// Classification is total and stable (`tests/proptest_shard.rs`).
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    /// Home shard per connection index; [`CROSS`] = cross-shard.
    conn_home: Vec<u32>,
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
            topo.tile_of(r, config.tiles_x, config.tiles_y)
                .expect("multi-tile shard maps require a mesh topology")
        };

        let end_region = |e: Endpoint| match e {
            Endpoint::Router(r, _) => region_of(r),
            Endpoint::Ni(n) => region_of(topo.ni_router(n)),
        };
        // A boundary link goes to the lower-numbered region.
        let link_owner = |l: LinkId| {
            let link = topo.link(l);
            end_region(link.from).min(end_region(link.to))
        };

        // Home every connection by the full candidate list the engine
        // will enumerate: identical max_paths bound, identical cache.
        let mut routes = RouteCache::new(topo, config.max_paths);
        let mut conn_home = vec![CROSS; spec.conn_id_bound()];
        for c in spec.connections() {
            let candidates = routes.candidates(topo, spec.ip_ni(c.src), spec.ip_ni(c.dst));
            let mut owners = candidates
                .iter()
                .flat_map(|r| &r.links)
                .map(|&l| link_owner(l));
            // Feasible specs have at least one candidate per pair; a pair
            // with none can only fail at admission time, so home it on 0.
            let home = owners.next().unwrap_or(0);
            if owners.all(|o| o == home) {
                conn_home[c.id.index()] = home;
            }
        }

        ShardMap { shards, conn_home }
    }

    /// Number of shards (regions) in the partition.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The home shard of `conn`, or `None` if it is cross-shard (or
    /// unknown to the map — unknown ids always land in the cross bucket,
    /// which refuses them exactly like a plain engine would).
    #[must_use]
    pub fn conn_home(&self, conn: ConnId) -> Option<usize> {
        match self.conn_home.get(conn.index()) {
            Some(&h) if h != CROSS => Some(h as usize),
            _ => None,
        }
    }

    /// Classifies one request: intra-shard iff every connection it
    /// names is homed on one and the same shard.
    ///
    /// Total and stable: every request maps to exactly one class, and
    /// the answer depends only on the map (spec + config), never on
    /// allocation state. An empty switch is intra on shard 0.
    #[must_use]
    pub fn classify(&self, request: &AdmissionRequest) -> ShardClass {
        match request {
            AdmissionRequest::Open(c) | AdmissionRequest::Close(c) => match self.conn_home(*c) {
                Some(k) => ShardClass::Intra(k),
                None => ShardClass::Cross,
            },
            AdmissionRequest::Switch { close, open } => {
                let mut homes = close.iter().chain(open).map(|&c| self.conn_home(c));
                match homes.next().unwrap_or(Some(0)) {
                    Some(k) if homes.all(|h| h == Some(k)) => ShardClass::Intra(k),
                    _ => ShardClass::Cross,
                }
            }
        }
    }

    /// The bucket index of `request`: its home shard, or `shards()` for
    /// the cross bucket.
    fn bucket(&self, request: &AdmissionRequest) -> usize {
        match self.classify(request) {
            ShardClass::Intra(k) => k,
            ShardClass::Cross => self.shards,
        }
    }
}

/// A plain [`Allocation`] under another name, kept only because two
/// `aelite-serve` signatures the frozen benchmark calls still name it;
/// released by ROADMAP 5(c).
#[derive(Debug, Clone)]
pub struct ShardedAllocation(pub Allocation);

impl ShardedAllocation {
    /// An empty allocation for `spec`.
    #[must_use]
    pub fn empty_for(spec: &SystemSpec, _map: &ShardMap) -> Self {
        Self(Allocation::empty_for(spec))
    }

    /// A copy of the allocation.
    #[must_use]
    pub fn collapse(&self, _map: &ShardMap) -> Allocation {
        self.0.clone()
    }
}

/// One [`ChurnEngine`] that admits every burst shard by shard, in
/// [`sharded_canonical_order`]. See the [module docs](self).
#[derive(Debug)]
pub struct ShardedEngine {
    config: ShardConfig,
    map: ShardMap,
    engine: ChurnEngine,
    /// Reusable arrival-index buckets of the burst being classified:
    /// one per shard, then the cross bucket.
    buckets: Vec<Vec<usize>>,
}

impl ShardedEngine {
    /// An engine for `spec`'s platform partitioned under `config`, with
    /// an allocator of the config's `max_paths` bound and steering.
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
        ShardedEngine {
            config,
            buckets: vec![Vec::new(); map.shards() + 1],
            map,
            engine: ChurnEngine::with_allocator(spec, allocator),
        }
    }

    /// The partition this engine orders bursts by.
    #[must_use]
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The tiling configuration this engine was built with.
    #[must_use]
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Installs `faults` as the engine's admission mask (see
    /// [`ChurnEngine::set_faults`]). Masking only removes candidates, so
    /// classification is unaffected and the outcome stays bit-identical
    /// to the plain engine under the same mask in
    /// [`sharded_canonical_order`].
    pub fn set_faults(&mut self, faults: &aelite_alloc::FaultMask) {
        self.engine.set_faults(faults);
    }

    /// Work counters of the engine.
    #[must_use]
    pub fn stats(&self) -> ChurnStats {
        *self.engine.stats()
    }

    /// [`replay_stream`](Self::replay_stream) over the single burst
    /// `0..requests.len()`: bit-identical to serially submitting it in
    /// [`sharded_canonical_order`], and with one shard to
    /// [`ChurnEngine::submit_batch`] itself.
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch, as [`ChurnEngine::submit`].
    pub fn submit_batch(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        requests: &[AdmissionRequest],
        verdicts: &mut Vec<Verdict>,
    ) {
        let burst = 0..requests.len();
        let bursts = core::slice::from_ref(&burst);
        self.replay_stream(spec, alloc, requests, bursts, verdicts);
    }

    /// Replays a planned burst sequence (`plan_bursts`-style ranges over
    /// `requests`, see `aelite-serve`), writing one verdict per request
    /// into `verdicts` (cleared first, arrival order). Each burst is
    /// bucketed by [`ShardMap::classify`] and its non-empty buckets are
    /// applied as one admission round each, shard 0 first and the cross
    /// bucket last — per burst, exactly [`sharded_canonical_order`]
    /// (pinned in `tests/shard_replay.rs`).
    ///
    /// # Panics
    ///
    /// Panics on platform mismatch or if a range in `bursts` is out of
    /// bounds of `requests`.
    pub fn replay_stream(
        &mut self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        requests: &[AdmissionRequest],
        bursts: &[Range<usize>],
        verdicts: &mut Vec<Verdict>,
    ) {
        verdicts.clear();
        verdicts.resize(requests.len(), placeholder());
        for burst in bursts {
            self.buckets.iter_mut().for_each(Vec::clear);
            for i in burst.clone() {
                self.buckets[self.map.bucket(&requests[i])].push(i);
            }
            for bucket in self.buckets.iter().filter(|b| !b.is_empty()) {
                let indices = bucket.iter().copied();
                self.engine
                    .apply_round(spec, alloc, requests, indices, |i, v| verdicts[i] = v);
            }
        }
    }
}

/// The order [`ShardedEngine::submit_batch`] applies a burst in: shard
/// 0's bucket in [`canonical_order`](crate::canonical_order), then shard
/// 1's, …, then the cross bucket — written into `out` (cleared first) as
/// arrival indices. Applying `requests` serially in this order through a
/// plain [`ChurnEngine`] reproduces the sharded engine's end state and
/// verdicts bit-for-bit.
pub fn sharded_canonical_order(
    spec: &SystemSpec,
    map: &ShardMap,
    requests: &[AdmissionRequest],
    out: &mut Vec<usize>,
) {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); map.shards() + 1];
    for (i, r) in requests.iter().enumerate() {
        buckets[map.bucket(r)].push(i);
    }
    out.clear();
    let mut ordered = Vec::new();
    for bucket in &buckets {
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
        // Restate the partition here: a link belongs to its ends'
        // quadrant (an NI to its router's), a boundary link to the lower
        // one; a connection is homed iff one quadrant owns every link of
        // every candidate route.
        let quadrant = |e: Endpoint| {
            let r = match e {
                Endpoint::Router(r, _) => r,
                Endpoint::Ni(n) => topo.ni_router(n),
            };
            topo.tile_of(r, 2, 2).expect("mesh") as usize
        };
        let mut routes = RouteCache::new(topo, 2);
        let mut homed = [0usize; 4];
        for c in spec.connections() {
            let owners: Vec<usize> = routes
                .candidates(topo, spec.ip_ni(c.src), spec.ip_ni(c.dst))
                .iter()
                .flat_map(|r| &r.links)
                .map(|&l| quadrant(topo.link(l).from).min(quadrant(topo.link(l).to)))
                .collect();
            let expect = owners[1..]
                .iter()
                .all(|&o| o == owners[0])
                .then_some(owners[0]);
            assert_eq!(map.conn_home(c.id), expect, "{}", c.id);
            if let Some(k) = expect {
                homed[k] += 1;
            }
        }
        // Every quadrant is home to some connection.
        assert!(homed.iter().all(|&c| c > 0), "{homed:?}");
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
    fn sharded_burst_matches_plain_engine_on_one_shard() {
        let spec = scaled_workload(4, 4, 2, 60, 7);
        let map_cfg = ShardConfig::single();
        let mut sharded = ShardedEngine::new(&spec, map_cfg);
        let mut plain = ChurnEngine::new(&spec);
        let alloc0 = allocate(&spec).unwrap();
        let mut flat = alloc0.clone();
        let mut mine = alloc0;

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
        sharded.submit_batch(&spec, &mut mine, &requests, &mut va);
        plain.submit_batch(&spec, &mut flat, &requests, &mut vb);
        assert_eq!(va, vb);
        for c in &ids {
            assert_eq!(mine.grant(*c), flat.grant(*c), "{c} diverged");
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
        let mut mine = Allocation::empty_for(&spec);

        let ids: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
        let requests: Vec<AdmissionRequest> = ids
            .iter()
            .take(24)
            .map(|&c| AdmissionRequest::Open(c))
            .collect();
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        sharded.submit_batch(&spec, &mut mine, &requests, &mut va);
        plain.submit_batch(&spec, &mut flat, &requests, &mut vb);
        assert_eq!(va, vb);
        for c in ids.iter().take(24) {
            assert_eq!(mine.grant(*c), flat.grant(*c), "{c} diverged");
        }
        assert_eq!(sharded.stats(), *plain.stats());
    }

    #[test]
    fn cross_shard_opens_and_closes_are_admitted_and_released() {
        let spec = scaled_workload(4, 4, 2, 80, 11);
        let cfg = quad_config();
        let mut engine = ShardedEngine::new(&spec, cfg);
        let mut alloc = Allocation::empty_for(&spec);

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
        engine.submit_batch(&spec, &mut alloc, &requests, &mut verdicts);
        assert!(verdicts[0].is_ok(), "{:?}", verdicts[0]);
        assert!(verdicts[1].is_ok(), "{:?}", verdicts[1]);
        assert!(alloc.grant(intra.id).is_some());
        assert!(alloc.grant(cross.id).is_some());

        let requests = vec![
            AdmissionRequest::Close(intra.id),
            AdmissionRequest::Close(cross.id),
        ];
        engine.submit_batch(&spec, &mut alloc, &requests, &mut verdicts);
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
        // Unknown ids are cross (the cross bucket refuses them like a
        // plain engine would).
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
