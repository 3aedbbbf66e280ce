//! Memoized, lazily materialized route enumeration for the allocator.
//!
//! [`route_candidates`](crate::path::route_candidates) runs a BFS plus a
//! bounded DFS per call — by far the most expensive part of allocating one
//! connection. The allocator, however, asks for the same (source NI,
//! destination NI) pair over and over: once per rip-up retry, once per
//! phase salt, and again for every connection sharing the pair, and the
//! answer never changes because candidate routes depend only on the
//! topology. [`RouteCache`] computes each pair's candidates — and each
//! path's link list — at most once.
//!
//! The cache is *hashed*: its memory is proportional to the pairs
//! actually routed. On a 32×32 mesh with 4 NIs per router there are
//! 4096² ≈ 16.8M ordered pairs; a 30k-connection workload touches at most
//! 30k of them, so a dense table would waste three orders of magnitude of
//! memory.
//!
//! On top of memoization the cache materializes candidates *lazily*, in
//! the two stages [`route_candidates`](crate::path::route_candidates)
//! already has: the dimension-ordered XY/YX routes are computed on first
//! touch, and the DFS detour enumeration runs only if a caller actually
//! walks past them. The allocator commits to the first feasible
//! candidate, which under light contention is almost always XY or YX, so
//! most pairs never pay for the DFS at all — while the candidate
//! *sequence* observed by callers is identical to the eager enumeration
//! (pinned against it pair by pair in `tests/mega_mesh_golden.rs` and
//! under arbitrary mask sequences in `tests/proptest_fault_filter.rs`).
//!
//! The cache also carries a [`FaultMask`] of failed links (empty by
//! default). Faults *filter*, they never evict: under a non-empty mask
//! every lookup skips the candidates traversing a down link, so a stale
//! path over a failed link can never be served, and resident entries
//! stay resident across [`set_faults`](RouteProvider::set_faults) — a
//! fault costs no BFS/DFS re-run. Each entry caches which of its routes
//! the current mask leaves healthy, recomputed only when the mask or the
//! entry's route list changed since. With an empty mask the lookup path
//! is bit-for-bit the unmasked one.
//!
//! An admission resolves its pair **once**: `RouteCache::pair` checks
//! the topology, hashes the key and returns a `PairRoutes` handle over
//! the pair's entry, through which the spare-capacity scoring pass and
//! the candidate walk both index — no further hash lookup however many
//! candidates a refusal walks. The key hash is a single folded multiply,
//! not the standard library's SipHash: keys are NI
//! indices of the platform being allocated, not attacker-chosen input, so
//! resistance to hash flooding buys nothing, and SipHash's rounds cost
//! more than the rest of a warm lookup. Entries are never iterated in
//! hash order, so the hash cannot change any decision.

use crate::path::{detour_candidates, initial_candidates, Path};
use aelite_spec::ids::{LinkId, NiId};
use aelite_spec::topology::Topology;
use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// A set of failed (down) links, indexed by link id — the routing side of
/// the fault model.
///
/// Installed into a [`RouteCache`] via
/// [`set_faults`](RouteProvider::set_faults), after which candidates
/// traversing a down link are skipped. The mask is a plain bitset: the
/// recovery engine owns the authoritative copy and pushes snapshots into
/// every cache that routes for it.
///
/// The last word is never zero ([`set_up`](Self::set_up) trims), so two
/// masks with the same down links compare equal whatever their history.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultMask {
    words: Vec<u64>,
    down: usize,
}

impl FaultMask {
    /// An empty mask: every link is up.
    #[must_use]
    pub fn new() -> Self {
        FaultMask::default()
    }

    /// Whether no link is down.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.down == 0
    }

    /// How many links are down.
    #[must_use]
    pub fn down_count(&self) -> usize {
        self.down
    }

    /// Whether `link` is down.
    #[must_use]
    pub fn is_down(&self, link: LinkId) -> bool {
        self.words
            .get(link.index() / 64)
            .is_some_and(|w| w >> (link.index() % 64) & 1 == 1)
    }

    /// Marks `link` down; `true` if it was up before.
    pub fn set_down(&mut self, link: LinkId) -> bool {
        let (w, b) = (link.index() / 64, link.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let newly = self.words[w] & (1 << b) == 0;
        if newly {
            self.words[w] |= 1 << b;
            self.down += 1;
        }
        newly
    }

    /// Marks `link` up; `true` if it was down before.
    pub fn set_up(&mut self, link: LinkId) -> bool {
        let (w, b) = (link.index() / 64, link.index() % 64);
        let was_down = self.words.get(w).is_some_and(|word| word & (1 << b) != 0);
        if was_down {
            self.words[w] &= !(1 << b);
            self.down -= 1;
            while self.words.last() == Some(&0) {
                self.words.pop();
            }
        }
        was_down
    }

    /// Whether any link of `links` is down.
    #[must_use]
    pub fn blocks(&self, links: &[LinkId]) -> bool {
        self.down > 0 && links.iter().any(|&l| self.is_down(l))
    }
}

/// The mask a cache filters through, with an epoch that moves
/// whenever the mask's content does — what an [`Entry`] stamps its
/// healthy view with. Epoch 0 is the empty mask a cache starts under.
#[derive(Debug, Default)]
struct InstalledMask {
    mask: FaultMask,
    epoch: u64,
}

impl InstalledMask {
    fn install(&mut self, faults: &FaultMask) {
        if self.mask != *faults {
            // Field-wise, so the word buffer is reused: no allocation.
            self.mask.words.clone_from(&faults.words);
            self.mask.down = faults.down;
            self.epoch += 1;
        }
    }
}

/// A candidate route with its precomputed link list.
#[derive(Debug, Clone)]
pub struct CachedRoute {
    /// The source route.
    pub path: Path,
    /// The links of [`path`](Self::path) in traversal order (the NI
    /// ingress link first).
    pub links: Vec<LinkId>,
}

/// How much of a pair's candidate list has been materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum EntryState {
    /// Nothing computed yet.
    #[default]
    Untouched,
    /// XY/YX stage done; the DFS detour stage still pending.
    Partial,
    /// The full candidate list is present.
    Complete,
}

#[derive(Debug, Default)]
struct Entry {
    routes: Vec<CachedRoute>,
    state: EntryState,
    /// The healthy view: positions in `routes` of the routes the mask of
    /// epoch `view_epoch` does not block, computed over the first
    /// `view_routes` routes. Stale — and recomputed on the next masked
    /// lookup — when either stamp differs from the cache's epoch or
    /// the current route count.
    view: Vec<u32>,
    view_epoch: u64,
    view_routes: usize,
}

impl Entry {
    fn materialize(topo: &Topology, paths: &[Path]) -> Vec<CachedRoute> {
        paths
            .iter()
            .map(|path| {
                let links = path
                    .links(topo)
                    .expect("route_candidates returns valid paths");
                CachedRoute {
                    path: path.clone(),
                    links,
                }
            })
            .collect()
    }

    /// Runs the XY/YX stage if the entry is untouched.
    fn ensure_initial(&mut self, topo: &Topology, src: NiId, dst: NiId, max_paths: usize) {
        if self.state != EntryState::Untouched {
            return;
        }
        let (paths, complete) = initial_candidates(topo, src, dst, max_paths);
        self.routes = Self::materialize(topo, &paths);
        self.state = if complete {
            EntryState::Complete
        } else {
            EntryState::Partial
        };
    }

    /// Runs the DFS detour stage if it is still pending.
    fn ensure_complete(&mut self, topo: &Topology, src: NiId, dst: NiId, max_paths: usize) {
        self.ensure_initial(topo, src, dst, max_paths);
        if self.state == EntryState::Complete {
            return;
        }
        let mut paths: Vec<Path> = self.routes.iter().map(|r| r.path.clone()).collect();
        let prefix = paths.len();
        detour_candidates(topo, src, dst, max_paths, &mut paths);
        let tail = Self::materialize(topo, &paths[prefix..]);
        self.routes.extend(tail);
        self.state = EntryState::Complete;
    }

    /// Serves index `i`, materializing the detour stage only when the
    /// caller walks past the XY/YX prefix.
    fn candidate(
        &mut self,
        topo: &Topology,
        src: NiId,
        dst: NiId,
        max_paths: usize,
        i: usize,
    ) -> Option<&CachedRoute> {
        self.ensure_initial(topo, src, dst, max_paths);
        if i >= self.routes.len() && self.state == EntryState::Partial {
            self.ensure_complete(topo, src, dst, max_paths);
        }
        self.routes.get(i)
    }

    /// Brings the healthy view up to date with `faults` and the current
    /// route list: one pass over routes × links when a stamp is stale,
    /// nothing otherwise.
    fn refresh_view(&mut self, faults: &InstalledMask) {
        if self.view_epoch == faults.epoch && self.view_routes == self.routes.len() {
            return;
        }
        self.view.clear();
        self.view.extend(
            (0u32..)
                .zip(&self.routes)
                .filter(|(_, r)| !faults.mask.blocks(&r.links))
                .map(|(pos, _)| pos),
        );
        self.view_epoch = faults.epoch;
        self.view_routes = self.routes.len();
    }

    /// Serves the `i`-th candidate not blocked by `faults`, materializing
    /// the detour stage when the healthy prefix runs out. With an empty
    /// mask this is exactly [`candidate`](Self::candidate).
    fn healthy_candidate(
        &mut self,
        topo: &Topology,
        src: NiId,
        dst: NiId,
        max_paths: usize,
        i: usize,
        faults: &InstalledMask,
    ) -> Option<&CachedRoute> {
        if faults.mask.is_empty() {
            return self.candidate(topo, src, dst, max_paths, i);
        }
        self.ensure_initial(topo, src, dst, max_paths);
        self.refresh_view(faults);
        if i >= self.view.len() && self.state == EntryState::Partial {
            self.ensure_complete(topo, src, dst, max_paths);
            self.refresh_view(faults);
        }
        let pos = *self.view.get(i)?;
        Some(&self.routes[pos as usize])
    }

    /// One blocking down link (the first on the shortest route) when the
    /// pair is routable in the topology but **every** candidate traverses
    /// a down link; `None` when the mask is empty, some candidate is
    /// healthy, or no route exists at all.
    fn blocking_fault(
        &mut self,
        topo: &Topology,
        src: NiId,
        dst: NiId,
        max_paths: usize,
        faults: &InstalledMask,
    ) -> Option<LinkId> {
        if faults.mask.is_empty() {
            return None;
        }
        self.ensure_complete(topo, src, dst, max_paths);
        self.refresh_view(faults);
        if self.routes.is_empty() || !self.view.is_empty() {
            return None;
        }
        self.routes[0]
            .links
            .iter()
            .copied()
            .find(|&l| faults.mask.is_down(l))
    }

    /// Writes into `out` (cleared first) the first down link of every
    /// candidate route, sorted and deduplicated, when the pair is severed
    /// ([`blocking_fault`](Self::blocking_fault) is `Some`); leaves it
    /// empty otherwise.
    fn witness_links(
        &mut self,
        topo: &Topology,
        src: NiId,
        dst: NiId,
        max_paths: usize,
        faults: &InstalledMask,
        out: &mut Vec<LinkId>,
    ) {
        out.clear();
        if self
            .blocking_fault(topo, src, dst, max_paths, faults)
            .is_none()
        {
            return;
        }
        out.extend(self.routes.iter().map(|r| {
            r.links
                .iter()
                .copied()
                .find(|&l| faults.mask.is_down(l))
                .expect("a severed pair's every route crosses a down link")
        }));
        out.sort_unstable();
        out.dedup();
    }
}

/// The route-cache key hasher: one 64×64→128-bit multiply by an odd
/// constant, folded by XOR of its halves, so the low bits the table
/// indexes by and the high bits it tags with both depend on every key
/// bit. Not flood-resistant, and not meant to be: see the module docs.
#[derive(Debug, Default, Clone, Copy)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let full = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = full as u64 ^ (full >> 64) as u64;
    }
}

/// One (src, dst) pair's candidates, resolved by [`RouteCache::pair`]:
/// every lookup through the handle indexes the pair's entry directly,
/// with the same answers as [`RouteProvider::candidate`] and
/// [`RouteProvider::blocking_fault`] for that pair.
#[derive(Debug)]
pub(crate) struct PairRoutes<'a> {
    entry: &'a mut Entry,
    faults: &'a InstalledMask,
    topo: &'a Topology,
    src: NiId,
    dst: NiId,
    max_paths: usize,
}

impl PairRoutes<'_> {
    /// The `i`-th candidate route of the pair not blocked by the fault
    /// mask (see [`RouteProvider::candidate`]).
    pub(crate) fn candidate(&mut self, i: usize) -> Option<&CachedRoute> {
        self.entry.healthy_candidate(
            self.topo,
            self.src,
            self.dst,
            self.max_paths,
            i,
            self.faults,
        )
    }

    /// One down link severing the pair, if the fault mask blocks every
    /// candidate (see [`RouteProvider::blocking_fault`]).
    pub(crate) fn blocking_fault(&mut self) -> Option<LinkId> {
        self.entry
            .blocking_fault(self.topo, self.src, self.dst, self.max_paths, self.faults)
    }
}

/// Shape snapshot of the topology a cache was built for, used to
/// reject lookups against a different platform.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ni_count: usize,
    router_count: usize,
    link_count: usize,
}

impl Shape {
    fn of(topo: &Topology) -> Self {
        Shape {
            ni_count: topo.ni_count(),
            router_count: topo.router_count(),
            link_count: topo.link_count(),
        }
    }

    /// Cached routes are only valid for the topology the cache was
    /// built for; reject anything whose shape (NI/router/link counts)
    /// differs. A distinct topology with identical counts cannot be
    /// detected — it is the caller's contract to keep one cache per
    /// topology.
    fn check(&self, topo: &Topology, src: NiId, dst: NiId) {
        assert!(
            topo.ni_count() == self.ni_count
                && topo.router_count() == self.router_count
                && topo.link_count() == self.link_count,
            "topology shape changed; rebuild the route cache for it"
        );
        assert!(
            src.index() < self.ni_count && dst.index() < self.ni_count,
            "NI out of range for this cache; rebuild it for the new topology"
        );
    }
}

/// The lookup surface of [`RouteCache`], its one implementor.
///
/// It is a trait rather than inherent methods only because the frozen
/// `benchmark/src/api.rs` imports it by name to call them; it goes with
/// the next benchmark PR (ROADMAP item 5(d)).
///
/// For a given topology and `max_paths` bound, lookups return exactly the
/// candidate sequence of
/// [`route_candidates`](crate::path::route_candidates), minus the routes
/// the installed [`FaultMask`] blocks. A cache is reusable across every
/// pass, salt and reconfiguration step that shares a topology and
/// `max_paths` bound.
pub trait RouteProvider: core::fmt::Debug + Send {
    /// The `max_paths` bound this cache enumerates up to.
    fn max_paths(&self) -> usize;

    /// The `i`-th candidate route from `src` to `dst` (shortest first), or
    /// `None` when fewer than `i + 1` candidates exist. The expensive
    /// detour stage is materialized only when `i` walks past the XY/YX
    /// routes. Under a non-empty [fault mask](Self::faults)
    /// only candidates traversing no down link are counted and served.
    ///
    /// # Panics
    ///
    /// Panics if `topo`'s shape differs from the topology the cache
    /// was created for, or `src`/`dst` lie outside it (the cache must
    /// be rebuilt when the topology changes).
    fn candidate(
        &mut self,
        topo: &Topology,
        src: NiId,
        dst: NiId,
        i: usize,
    ) -> Option<&CachedRoute>;

    /// The full candidate list from `src` to `dst`, shortest first,
    /// computing and memoizing it on first use. Under a non-empty
    /// [fault mask](Self::faults) the list is filtered to the healthy
    /// candidates.
    ///
    /// # Panics
    ///
    /// Panics if `topo`'s shape differs from the topology the cache
    /// was created for, or `src`/`dst` lie outside it.
    fn candidates(&mut self, topo: &Topology, src: NiId, dst: NiId) -> &[CachedRoute];

    /// How many (src, dst) pairs are resident — i.e. have been (at least
    /// partially) computed and are holding memory.
    fn resident_pairs(&self) -> usize;

    /// The link-fault mask candidates are currently filtered through
    /// (empty unless [`set_faults`](Self::set_faults) installed one).
    fn faults(&self) -> &FaultMask;

    /// Installs `faults` as the cache's link-fault mask. Subsequent
    /// [`candidate`](Self::candidate)/[`candidates`](Self::candidates)
    /// calls skip every route traversing a down link. Nothing is evicted:
    /// the cost is a copy of the mask's words, resident entries stay
    /// resident ([`resident_pairs`](Self::resident_pairs) never drops),
    /// and every lookup answers exactly as a cold cache under the same
    /// mask would, because the filter runs at lookup.
    fn set_faults(&mut self, faults: &FaultMask);

    /// When the (src, dst) pair is routable in the topology but **every**
    /// candidate traverses a down link, one of the blocking links (the
    /// first down link of the shortest route); `None` when the mask is
    /// empty, some candidate is healthy, or no route exists at all —
    /// distinguishing "severed by faults" from a plain no-route.
    ///
    /// # Panics
    ///
    /// Panics as [`candidate`](Self::candidate) on a foreign topology.
    fn blocking_fault(&mut self, topo: &Topology, src: NiId, dst: NiId) -> Option<LinkId>;
}

/// The route cache every flow routes through: lazily populated and
/// *hashed*, so resident memory is proportional to the pairs actually
/// routed, not to `ni_count²`. On mega-meshes (16×16–32×32, thousands of
/// NIs) the ordered-pair space is tens of millions while real workloads
/// route tens of thousands of pairs, and churn micro-bursts touch only a
/// handful.
///
/// # Examples
///
/// ```
/// use aelite_alloc::route_cache::{RouteCache, RouteProvider};
/// use aelite_spec::ids::NiId;
/// use aelite_spec::topology::Topology;
///
/// let topo = Topology::mesh(2, 2, 1);
/// let mut cache = RouteCache::new(&topo, 4);
/// let routes = cache.candidates(&topo, NiId::new(0), NiId::new(3));
/// assert!(!routes.is_empty());
/// assert_eq!(routes[0].links.len(), routes[0].path.link_count());
/// assert_eq!(cache.resident_pairs(), 1); // only the pair we touched
/// ```
#[derive(Debug)]
pub struct RouteCache {
    max_paths: usize,
    shape: Shape,
    entries: HashMap<u64, Entry, BuildHasherDefault<PairHasher>>,
    faults: InstalledMask,
    /// Scratch for fault-filtered [`candidates`](RouteProvider::candidates)
    /// results (the unmasked path returns the resident slice directly).
    healthy: Vec<CachedRoute>,
}

impl RouteCache {
    /// Creates an empty cache for `topo`, enumerating at most `max_paths`
    /// candidates per pair. Allocates nothing up front: entries appear as
    /// pairs are routed.
    #[must_use]
    pub fn new(topo: &Topology, max_paths: usize) -> Self {
        RouteCache {
            max_paths,
            shape: Shape::of(topo),
            entries: HashMap::default(),
            faults: InstalledMask::default(),
            healthy: Vec::new(),
        }
    }

    fn key(src: NiId, dst: NiId) -> u64 {
        (src.index() as u64) << 32 | dst.index() as u64
    }

    /// Resolves the (src, dst) pair once — shape check and hash lookup —
    /// and returns a handle whose lookups index the pair's entry
    /// directly. What one admission walks candidates through.
    ///
    /// # Panics
    ///
    /// Panics as [`RouteProvider::candidate`] on a foreign topology.
    /// The *witnesses* of a severed (src, dst) pair: the first down link
    /// of each of its candidate routes, sorted and deduplicated, written
    /// into `out` (cleared first). `out` is left empty when the pair is
    /// not severed — the mask is empty, some candidate is healthy, or no
    /// route exists at all (see [`RouteProvider::blocking_fault`]).
    ///
    /// While every witness stays down, every candidate stays blocked, so
    /// the pair stays severed whatever else the mask does: a caller that
    /// keeps the witnesses of a refused pair need not ask again until one
    /// of them is up.
    ///
    /// # Panics
    ///
    /// Panics as [`RouteProvider::candidate`] on a foreign topology.
    pub fn witness_links(&mut self, topo: &Topology, src: NiId, dst: NiId, out: &mut Vec<LinkId>) {
        self.shape.check(topo, src, dst);
        let entry = self.entries.entry(Self::key(src, dst)).or_default();
        entry.witness_links(topo, src, dst, self.max_paths, &self.faults, out);
    }

    pub(crate) fn pair<'a>(
        &'a mut self,
        topo: &'a Topology,
        src: NiId,
        dst: NiId,
    ) -> PairRoutes<'a> {
        self.shape.check(topo, src, dst);
        PairRoutes {
            entry: self.entries.entry(Self::key(src, dst)).or_default(),
            faults: &self.faults,
            topo,
            src,
            dst,
            max_paths: self.max_paths,
        }
    }
}

impl RouteProvider for RouteCache {
    fn max_paths(&self) -> usize {
        self.max_paths
    }

    fn candidate(
        &mut self,
        topo: &Topology,
        src: NiId,
        dst: NiId,
        i: usize,
    ) -> Option<&CachedRoute> {
        self.shape.check(topo, src, dst);
        let entry = self.entries.entry(Self::key(src, dst)).or_default();
        entry.healthy_candidate(topo, src, dst, self.max_paths, i, &self.faults)
    }

    fn candidates(&mut self, topo: &Topology, src: NiId, dst: NiId) -> &[CachedRoute] {
        self.shape.check(topo, src, dst);
        let entry = self.entries.entry(Self::key(src, dst)).or_default();
        entry.ensure_complete(topo, src, dst, self.max_paths);
        if self.faults.mask.is_empty() {
            return &entry.routes;
        }
        let faults = &self.faults.mask;
        self.healthy.clear();
        self.healthy.extend(
            entry
                .routes
                .iter()
                .filter(|r| !faults.blocks(&r.links))
                .cloned(),
        );
        &self.healthy
    }

    fn resident_pairs(&self) -> usize {
        self.entries
            .values()
            .filter(|e| e.state != EntryState::Untouched)
            .count()
    }

    fn faults(&self) -> &FaultMask {
        &self.faults.mask
    }

    fn set_faults(&mut self, faults: &FaultMask) {
        self.faults.install(faults);
    }

    fn blocking_fault(&mut self, topo: &Topology, src: NiId, dst: NiId) -> Option<LinkId> {
        self.pair(topo, src, dst).blocking_fault()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::route_candidates;

    fn paths(routes: &[CachedRoute]) -> Vec<Path> {
        routes.iter().map(|r| r.path.clone()).collect()
    }

    /// Every candidate `candidate(i)` serves, in index order.
    fn walk(cache: &mut RouteCache, topo: &Topology, s: NiId, d: NiId) -> Vec<Path> {
        let mut walked = Vec::new();
        while let Some(r) = cache.candidate(topo, s, d, walked.len()) {
            walked.push(r.path.clone());
        }
        walked
    }

    #[test]
    fn cache_returns_same_routes_as_direct_enumeration() {
        let topo = Topology::mesh(3, 3, 2);
        let mut cache = RouteCache::new(&topo, 8);
        for src in 0..topo.ni_count() as u32 {
            for dst in 0..topo.ni_count() as u32 {
                let (s, d) = (NiId::new(src), NiId::new(dst));
                let direct = route_candidates(&topo, s, d, 8);
                let cached = cache.candidates(&topo, s, d);
                assert_eq!(cached.len(), direct.len(), "{s}->{d}");
                for (c, p) in cached.iter().zip(&direct) {
                    assert_eq!(&c.path, p, "{s}->{d}");
                    assert_eq!(c.links, p.links(&topo).unwrap(), "{s}->{d}");
                }
            }
        }
    }

    #[test]
    fn lazy_indexing_matches_eager_enumeration() {
        // Walking candidates one index at a time — including past the
        // XY/YX prefix — yields exactly the eager list, in order.
        let topo = Topology::mesh(4, 3, 2);
        for (src, dst) in [(0u32, 21u32), (2, 3), (5, 5), (0, 23)] {
            let (s, d) = (NiId::new(src), NiId::new(dst));
            let direct = route_candidates(&topo, s, d, 12);
            let mut cache = RouteCache::new(&topo, 12);
            assert_eq!(walk(&mut cache, &topo, s, d), direct, "{s}->{d}");
        }
    }

    #[test]
    fn first_candidates_do_not_trigger_detour_stage() {
        let topo = Topology::mesh(4, 4, 1);
        let mut cache = RouteCache::new(&topo, 12);
        // Diagonal pair: XY and YX are distinct, so indices 0 and 1 are
        // served from the cheap stage alone.
        let (s, d) = (NiId::new(0), NiId::new(15));
        assert!(cache.candidate(&topo, s, d, 0).is_some());
        assert!(cache.candidate(&topo, s, d, 1).is_some());
        let key = RouteCache::key(s, d);
        assert_eq!(cache.entries[&key].state, EntryState::Partial);
        // Walking past them forces the DFS stage.
        assert!(cache.candidate(&topo, s, d, 2).is_some());
        assert_eq!(cache.entries[&key].state, EntryState::Complete);
    }

    #[test]
    fn pair_handle_serves_the_provider_sequence() {
        // Through the handle, unmasked and masked: the same walk as
        // `candidate(i)`, the same laziness, the same severing verdict.
        let topo = Topology::mesh(4, 4, 1);
        let (s, d) = (NiId::new(0), NiId::new(15));
        let mut cache = RouteCache::new(&topo, 12);
        let mut pair = cache.pair(&topo, s, d);
        assert!(pair.candidate(0).is_some() && pair.candidate(1).is_some());
        assert_eq!(
            cache.entries[&RouteCache::key(s, d)].state,
            EntryState::Partial
        );
        let down = route_candidates(&topo, s, d, 12)[0].links(&topo).unwrap()[1];
        for faults in [FaultMask::new(), {
            let mut m = FaultMask::new();
            m.set_down(down);
            m
        }] {
            cache.set_faults(&faults);
            let walked = walk(&mut cache, &topo, s, d);
            let mut pair = cache.pair(&topo, s, d);
            let mut via_pair = Vec::new();
            while let Some(r) = pair.candidate(via_pair.len()) {
                via_pair.push(r.path.clone());
            }
            assert_eq!(via_pair, walked);
            assert_eq!(pair.blocking_fault(), None);
        }
        let ingress = topo.ni_ingress_link(s);
        let mut severed = FaultMask::new();
        severed.set_down(ingress);
        cache.set_faults(&severed);
        let mut pair = cache.pair(&topo, s, d);
        assert!(pair.candidate(0).is_none());
        assert_eq!(pair.blocking_fault(), Some(ingress));
        assert_eq!(cache.resident_pairs(), 1);
    }

    #[test]
    fn second_lookup_is_memoized() {
        let topo = Topology::mesh(2, 2, 1);
        let mut cache = RouteCache::new(&topo, 4);
        assert_eq!(cache.resident_pairs(), 0);
        let n = cache.candidates(&topo, NiId::new(0), NiId::new(2)).len();
        assert_eq!(cache.resident_pairs(), 1);
        assert_eq!(cache.candidates(&topo, NiId::new(0), NiId::new(2)).len(), n);
        assert_eq!(cache.resident_pairs(), 1);
    }

    #[test]
    fn hashed_cache_resident_pairs_track_touched_pairs_only() {
        // The regression the lazy cache exists for: routing a handful of
        // pairs on a big platform must not allocate entries for the N²
        // pair space (1024² = 1M ordered pairs here).
        let topo = Topology::mesh(16, 16, 4);
        let mut cache = RouteCache::new(&topo, 12);
        assert_eq!(cache.resident_pairs(), 0, "construction is allocation-free");
        let pairs = [(0u32, 1023u32), (17, 1000), (512, 513), (5, 5), (0, 1023)];
        let mut distinct = std::collections::BTreeSet::new();
        for (s, d) in pairs {
            let _ = cache.candidates(&topo, NiId::new(s), NiId::new(d));
            distinct.insert((s, d));
        }
        assert_eq!(cache.resident_pairs(), distinct.len());
        assert!(cache.resident_pairs() <= pairs.len());
    }

    #[test]
    fn fault_mask_set_and_clear_roundtrip() {
        let mut mask = FaultMask::new();
        assert!(mask.is_empty());
        assert!(!mask.is_down(LinkId::new(130)));
        assert!(mask.set_down(LinkId::new(130)));
        assert!(!mask.set_down(LinkId::new(130)), "second set is a no-op");
        assert!(mask.set_down(LinkId::new(3)));
        assert_eq!(mask.down_count(), 2);
        assert!(mask.is_down(LinkId::new(130)) && mask.is_down(LinkId::new(3)));
        assert!(mask.blocks(&[LinkId::new(1), LinkId::new(3)]));
        assert!(!mask.blocks(&[LinkId::new(1), LinkId::new(2)]));
        assert!(mask.set_up(LinkId::new(130)));
        assert!(!mask.set_up(LinkId::new(130)), "second raise is a no-op");
        assert!(!mask.set_up(LinkId::new(999)), "never-down link is a no-op");
        assert!(mask.set_up(LinkId::new(3)));
        assert!(mask.is_empty());
    }

    #[test]
    fn masked_candidates_skip_routes_over_down_links() {
        let topo = Topology::mesh(3, 3, 1);
        let mut cache = RouteCache::new(&topo, 12);
        let (s, d) = (NiId::new(0), NiId::new(8)); // corner to corner
        let eager = route_candidates(&topo, s, d, 12);
        assert_eq!(paths(cache.candidates(&topo, s, d)), eager);
        assert!(eager.len() > 2, "diagonal pair has detours");

        // Fail the first link after the NI ingress of the XY route.
        let down = eager[0].links(&topo).unwrap()[1];
        let mut mask = FaultMask::new();
        mask.set_down(down);
        cache.set_faults(&mask);

        let expected: Vec<Path> = eager
            .iter()
            .filter(|p| !p.links(&topo).unwrap().contains(&down))
            .cloned()
            .collect();
        assert!(!expected.is_empty() && expected.len() < eager.len());

        // candidates() filters, and candidate(i) serves exactly the
        // healthy sequence.
        assert_eq!(paths(cache.candidates(&topo, s, d)), expected);
        assert_eq!(walk(&mut cache, &topo, s, d), expected);
        assert!(
            cache.blocking_fault(&topo, s, d).is_none(),
            "detours survive"
        );

        // Clearing the mask restores the unmasked sequence bit-for-bit.
        cache.set_faults(&FaultMask::new());
        assert_eq!(paths(cache.candidates(&topo, s, d)), eager);
    }

    #[test]
    fn blocking_fault_reported_when_every_route_is_severed() {
        let topo = Topology::mesh(3, 1, 1);
        let mut cache = RouteCache::new(&topo, 12);
        let (s, d) = (NiId::new(0), NiId::new(2));
        // On a 1-row mesh every route shares the single eastbound chain;
        // failing the NI ingress link severs the pair outright.
        let ingress = topo.ni_ingress_link(s);
        let mut mask = FaultMask::new();
        mask.set_down(ingress);
        assert!(
            cache.blocking_fault(&topo, s, d).is_none(),
            "mask not set yet"
        );
        cache.set_faults(&mask);
        assert!(cache.candidate(&topo, s, d, 0).is_none());
        assert!(cache.candidates(&topo, s, d).is_empty());
        assert_eq!(cache.blocking_fault(&topo, s, d), Some(ingress));
    }

    #[test]
    fn witness_links_are_each_routes_first_down_link() {
        let topo = Topology::mesh(3, 3, 1);
        let mut cache = RouteCache::new(&topo, 12);
        let (s, d) = (NiId::new(0), NiId::new(8)); // corner to corner
        let eager = route_candidates(&topo, s, d, 12);
        let mut out = vec![LinkId::new(99)];
        cache.witness_links(&topo, s, d, &mut out);
        assert!(out.is_empty(), "no mask: nothing severs the pair");

        // The corner router has two mesh exits, the second links of the
        // XY and YX routes; failing one leaves the pair routable.
        let exit = |p: &Path| p.links(&topo).unwrap()[1];
        let (xy, yx) = (exit(&eager[0]), exit(&eager[1]));
        assert_ne!(xy, yx);
        let mut mask = FaultMask::new();
        mask.set_down(xy);
        cache.set_faults(&mask);
        cache.witness_links(&topo, s, d, &mut out);
        assert!(out.is_empty(), "YX still runs");

        // Failing both severs it: every route leaves by one of them, and
        // both are listed once, in link order, whatever else is down.
        mask.set_down(yx);
        let egress = topo.ni_egress_link(d);
        mask.set_down(egress);
        cache.set_faults(&mask);
        cache.witness_links(&topo, s, d, &mut out);
        let mut want = vec![xy, yx];
        want.sort_unstable();
        assert_eq!(out, want);
        for p in &eager {
            let first_down = p
                .links(&topo)
                .unwrap()
                .into_iter()
                .find(|&l| mask.is_down(l));
            assert!(out.contains(&first_down.unwrap()));
        }

        // With the ingress link down too, it comes first on every route.
        let ingress = topo.ni_ingress_link(s);
        mask.set_down(ingress);
        cache.set_faults(&mask);
        cache.witness_links(&topo, s, d, &mut out);
        assert_eq!(out, [ingress]);
        assert_eq!(cache.blocking_fault(&topo, s, d), Some(ingress));
    }

    #[test]
    fn fault_masks_with_the_same_down_links_compare_equal() {
        // A link set down and raised again must leave no trace: the
        // cache's "same mask re-installed" check relies on `==`.
        let mut mask = FaultMask::new();
        mask.set_down(LinkId::new(130));
        mask.set_down(LinkId::new(3));
        mask.set_up(LinkId::new(130));
        let mut low = FaultMask::new();
        low.set_down(LinkId::new(3));
        assert_eq!(mask, low, "a raised high link leaves trailing words");
        mask.set_up(LinkId::new(3));
        assert_eq!(mask, FaultMask::new());
    }

    #[test]
    fn set_faults_filters_resident_entries_and_never_evicts() {
        let topo = Topology::mesh(4, 4, 1);
        let mut cache = RouteCache::new(&topo, 12);
        // Two resident pairs: one over the link about to fail, one far away.
        let (near_s, near_d) = (NiId::new(0), NiId::new(5));
        let (far_s, far_d) = (NiId::new(14), NiId::new(15));
        let full = paths(cache.candidates(&topo, near_s, near_d));
        let _ = cache.candidates(&topo, far_s, far_d);
        assert_eq!(cache.resident_pairs(), 2);

        // Fail the first router-to-router link of the XY route.
        let down = cache.candidates(&topo, near_s, near_d)[0].links[1];
        let mut mask = FaultMask::new();
        mask.set_down(down);
        cache.set_faults(&mask);
        assert_eq!(cache.resident_pairs(), 2, "a fault evicts nothing");

        // The resident (stale) entry serves no route over the down
        // link, by index and as a list, and still serves the rest.
        let mut walked = 0;
        while let Some(r) = cache.candidate(&topo, near_s, near_d, walked) {
            assert!(!r.links.contains(&down), "served a route over {down}");
            walked += 1;
        }
        assert!(walked > 0 && walked < full.len());
        assert_eq!(cache.candidates(&topo, near_s, near_d).len(), walked);
        assert!(cache
            .candidates(&topo, near_s, near_d)
            .iter()
            .all(|r| !r.links.contains(&down)));
        assert_eq!(cache.resident_pairs(), 2);

        // Re-raising the link serves the full list again.
        cache.set_faults(&FaultMask::new());
        assert_eq!(cache.resident_pairs(), 2);
        assert_eq!(paths(cache.candidates(&topo, near_s, near_d)), full);
    }

    #[test]
    #[should_panic(expected = "rebuild")]
    fn foreign_topology_rejected() {
        let small = Topology::mesh(2, 1, 1);
        let big = Topology::mesh(4, 4, 4);
        let mut cache = RouteCache::new(&small, 4);
        let _ = cache.candidates(&big, NiId::new(0), NiId::new(60));
    }

    #[test]
    #[should_panic(expected = "topology shape changed")]
    fn same_ni_count_different_shape_rejected() {
        // Both meshes have 16 NIs and 16 routers, but different link
        // counts — the cached routes would be silently wrong without the
        // shape check.
        let a = Topology::mesh(4, 4, 1);
        let b = Topology::mesh(2, 8, 1);
        let mut cache = RouteCache::new(&a, 4);
        let _ = cache.candidates(&b, NiId::new(0), NiId::new(5));
    }
}
