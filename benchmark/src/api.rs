//! The seam to the repository: the only file that names workspace
//! crates. Every public entry point the benchmark drives has one thin
//! function here (listed in `benchmark/README.md`), so following an API
//! change is an edit to this file alone. Nothing here measures.

use std::ops::Range;

pub use aelite_alloc::{
    AllocScratch, Allocation, Allocator, FaultMask, Grant, RouteCache, SlotMask, Steering,
};
pub use aelite_noc::network::CycleNet;
pub use aelite_noc::turbo::TurboNet;
pub use aelite_online::{
    AdmissionRequest, ChurnEngine, ChurnStats, FaultEngine, FaultStats, ShardMap,
    ShardedAllocation, ShardedEngine,
};
pub use aelite_serve::{LatencyHistogram, PipelineReport, ReplayReport, TimedRequest};
pub use aelite_spec::churn::ClientTrace;
pub use aelite_spec::{
    ConnId, FaultOp, FaultScenario, LinkId, NiId, ScenarioEvent, ScenarioOp, SystemSpec,
};

use aelite_alloc::RouteProvider;
use aelite_noc::network::NetworkKind;
use aelite_online::{ShardClass, ShardConfig};
use aelite_serve::PipelineConfig;
use aelite_spec::{
    ChurnOp, ChurnParams, FaultParams, TrafficProfile, WorkloadBuilder, WorkloadParams,
};

// ---- spec: platforms and request streams -------------------------------

/// Where a workload's connections point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    Uniform,
    /// `TrafficProfile::Hotspot` with this many spots.
    Hotspot(u32),
    /// Region-local destinations on a `tiles × tiles` tiling.
    Tiles(u32),
    /// `mega_traffic` deadlines, region-local on a `tiles × tiles` tiling.
    MegaTiles(u32),
}

/// A square-mesh platform drawn by `WorkloadBuilder` (4 NIs per router).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecRecipe {
    pub mesh: u32,
    pub slots: u32,
    pub connections: u32,
    pub traffic: Traffic,
    /// Bandwidth range (MB/s) and per-NI load cap, when not the
    /// builder's defaults.
    pub load: Option<(u64, u64, f64)>,
}

pub fn build_spec(r: &SpecRecipe, seed: u64) -> SystemSpec {
    let mut b = WorkloadBuilder::mesh(r.mesh, r.mesh, 4);
    if let Traffic::MegaTiles(_) = r.traffic {
        b = b.mega_traffic();
    }
    b = b
        .connections(r.connections)
        .slot_table_size(r.slots)
        .seed(seed);
    if let Some((min, max, cap)) = r.load {
        b = b.bandwidth_mb(min, max).ni_load_cap(cap);
    }
    match r.traffic {
        Traffic::Uniform => b,
        Traffic::Hotspot(spots) => b.profile(TrafficProfile::Hotspot { spots }),
        Traffic::Tiles(t) | Traffic::MegaTiles(t) => b.tiles(t, t),
    }
    .build()
}

impl SpecRecipe {
    /// The same traffic at the same density on half the mesh side: a
    /// quarter of the routers and connections, tiles of the same size.
    pub fn quarter(&self) -> SpecRecipe {
        SpecRecipe {
            mesh: self.mesh / 2,
            connections: self.connections / 4,
            traffic: match self.traffic {
                Traffic::Tiles(t) => Traffic::Tiles(t / 2),
                Traffic::MegaTiles(t) => Traffic::MegaTiles(t / 2),
                other => other,
            },
            ..*self
        }
    }
}

/// The paper's Section VII platform (4×3 mesh, 200 connections).
pub fn paper_spec(seed: u64) -> SystemSpec {
    WorkloadBuilder::mesh(4, 3, 4)
        .params(WorkloadParams::paper())
        .seed(seed)
        .build()
}

/// A client population's churn mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnRecipe {
    pub clients: u32,
    pub events: u32,
    pub target_open: f64,
    pub switch_weight: f64,
}

fn churn_params(r: &ChurnRecipe) -> ChurnParams {
    ChurnParams {
        target_open: r.target_open,
        switch_weight: r.switch_weight,
        ..ChurnParams::steady(r.events)
    }
}

pub fn client_population(spec: &SystemSpec, r: &ChurnRecipe, seed: u64) -> Vec<ClientTrace> {
    aelite_spec::churn::client_population(spec, r.clients, &churn_params(r), seed)
}

/// Clients grouped by their connections' home shard (cross-shard
/// connections form one more group).
pub fn client_population_grouped(
    spec: &SystemSpec,
    r: &ChurnRecipe,
    seed: u64,
    map: &ShardMap,
) -> Vec<ClientTrace> {
    aelite_spec::churn::client_population_grouped(spec, r.clients, &churn_params(r), seed, |c| {
        map.conn_home(c.id).unwrap_or(map.shards()) as u32
    })
}

pub fn merge_population(population: Vec<ClientTrace>) -> Vec<TimedRequest> {
    aelite_serve::merge_population(population)
}

/// `churn_trace` + `fault_trace` + `FaultScenario::merge`: faults arrive
/// at a tenth of the churn rate, so both traces span the same interval
/// when `fault_events` is a tenth of `churn_events`.
pub fn fault_scenario(
    spec: &SystemSpec,
    churn_events: u32,
    fault_events: u32,
    seed: u64,
) -> FaultScenario {
    let churn = aelite_spec::churn_trace(spec, &ChurnParams::steady(churn_events), seed);
    let faults = aelite_spec::fault_trace(
        spec.topology(),
        &FaultParams {
            rate_per_sec: 1.0e5,
            ..FaultParams::sparse(fault_events)
        },
        seed,
    );
    FaultScenario::merge(&churn, &faults)
}

pub fn open_event(conn: ConnId) -> ScenarioEvent {
    ScenarioEvent {
        at_ns: 0,
        op: ScenarioOp::Churn(ChurnOp::Open(conn)),
    }
}

/// The source and destination NI of every connection.
pub fn ni_pairs(spec: &SystemSpec) -> Vec<(NiId, NiId)> {
    spec.connections()
        .iter()
        .map(|c| (spec.ip_ni(c.src), spec.ip_ni(c.dst)))
        .collect()
}

// ---- serve.stream / serve.pipeline / serve.hist ------------------------

pub fn plan_bursts(stream: &[TimedRequest], cap: usize) -> Vec<Range<usize>> {
    aelite_serve::plan_bursts(stream, cap)
}

pub fn plan_bursts_sharded(
    stream: &[TimedRequest],
    cap: usize,
    map: &ShardMap,
) -> Vec<Range<usize>> {
    let lanes = map.shards() + 1;
    aelite_serve::plan_bursts_sharded(stream, cap, lanes, |r| shard_lane(map, r))
}

pub fn warm_up(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    stream: &[TimedRequest],
) {
    aelite_serve::warm_up(spec, engine, alloc, stream, stream.len());
}

pub fn replay_serial(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    stream: &[TimedRequest],
) -> ReplayReport {
    aelite_serve::replay_serial(spec, engine, alloc, stream)
}

pub fn replay_batched(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    stream: &[TimedRequest],
    burst_cap: usize,
) -> ReplayReport {
    aelite_serve::replay_batched(spec, engine, alloc, stream, burst_cap)
}

/// The threaded pipeline with one producer thread: with the admission
/// thread that is two busy threads.
pub fn serve_pipeline(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    streams: &[Vec<TimedRequest>],
    burst_cap: usize,
    queue_depth: usize,
) -> PipelineReport {
    let cfg = PipelineConfig {
        producers: 1,
        burst_cap,
        queue_depth,
    };
    aelite_serve::serve_pipeline(spec, engine, alloc, streams, &cfg)
}

pub fn warm_up_sharded(
    spec: &SystemSpec,
    engine: &mut ShardedEngine,
    alloc: &mut ShardedAllocation,
    stream: &[TimedRequest],
) {
    aelite_serve::warm_up_sharded(spec, engine, alloc, stream, stream.len());
}

pub fn replay_sharded(
    spec: &SystemSpec,
    engine: &mut ShardedEngine,
    alloc: &mut ShardedAllocation,
    stream: &[TimedRequest],
    burst_cap: usize,
    threads: usize,
) -> ReplayReport {
    aelite_serve::replay_sharded(spec, engine, alloc, stream, burst_cap, threads)
}

// ---- online.engine / online.shard / online.fault -----------------------

fn allocator(steering: Steering) -> Allocator {
    Allocator {
        steering,
        ..Allocator::new()
    }
}

/// A fresh engine and an empty allocation for `spec`.
pub fn churn_engine(spec: &SystemSpec, steering: Steering) -> (ChurnEngine, Allocation) {
    (
        ChurnEngine::with_allocator(spec, allocator(steering)),
        Allocation::empty_for(spec),
    )
}

/// Whether the request was admitted.
pub fn submit(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    request: &AdmissionRequest,
) -> bool {
    engine.submit(spec, alloc, request.clone()).is_ok()
}

/// One batched round; returns how many requests were admitted.
pub fn submit_batch(
    spec: &SystemSpec,
    engine: &mut ChurnEngine,
    alloc: &mut Allocation,
    requests: &[AdmissionRequest],
) -> usize {
    let mut verdicts = Vec::with_capacity(requests.len());
    engine.submit_batch(spec, alloc, requests, &mut verdicts);
    verdicts.iter().filter(|v| v.is_ok()).count()
}

pub fn canonical_order(spec: &SystemSpec, requests: &[AdmissionRequest], out: &mut Vec<usize>) {
    aelite_online::canonical_order(spec, requests, out);
}

/// The 2×2 tiling with the XY/YX candidate pair every sharded
/// measurement uses.
fn shard_config() -> ShardConfig {
    ShardConfig {
        max_paths: 2,
        ..ShardConfig::tiled(2, 2)
    }
}

pub fn shard_map(spec: &SystemSpec) -> ShardMap {
    ShardMap::build(spec, &shard_config())
}

/// The lane a request runs on: its home shard, or the extra cross lane.
pub fn shard_lane(map: &ShardMap, request: &AdmissionRequest) -> usize {
    match map.classify(request) {
        ShardClass::Intra(k) => k,
        ShardClass::Cross => map.shards(),
    }
}

pub fn sharded_engine(spec: &SystemSpec) -> (ShardedEngine, ShardedAllocation) {
    let engine = ShardedEngine::new(spec, shard_config());
    let alloc = ShardedAllocation::empty_for(spec, engine.map());
    (engine, alloc)
}

pub fn collapse(engine: &ShardedEngine, alloc: &ShardedAllocation) -> Allocation {
    alloc.collapse(engine.map())
}

pub fn fault_engine(spec: &SystemSpec, steering: Steering) -> (FaultEngine, Allocation) {
    let (engine, alloc) = churn_engine(spec, steering);
    (FaultEngine::with_engine(engine), alloc)
}

pub fn apply_event(
    spec: &SystemSpec,
    engine: &mut FaultEngine,
    alloc: &mut Allocation,
    event: &ScenarioEvent,
) -> bool {
    engine.apply_event(spec, alloc, event)
}

pub fn advance_to(spec: &SystemSpec, engine: &mut FaultEngine, alloc: &mut Allocation, t_ns: u64) {
    engine.advance_to(spec, alloc, t_ns);
}

// ---- alloc.allocate / alloc.route_cache --------------------------------

/// Cold batch allocation (a fresh `RouteCache` inside).
pub fn allocate(spec: &SystemSpec) -> Option<Allocation> {
    Allocator::new().allocate(spec).ok()
}

pub fn allocate_with_cache(spec: &SystemSpec, routes: &mut RouteCache) -> Option<Allocation> {
    Allocator::new().allocate_with_cache(spec, routes).ok()
}

pub fn route_cache(spec: &SystemSpec) -> RouteCache {
    RouteCache::new(spec.topology(), Allocator::new().max_paths)
}

/// Online admission state one layer below the engine: what
/// `ChurnEngine` holds, driven directly.
#[derive(Debug)]
pub struct AdmitState {
    pub allocator: Allocator,
    pub alloc: Allocation,
    pub routes: RouteCache,
    pub scratch: AllocScratch,
}

pub fn admit_state(spec: &SystemSpec, steering: Steering) -> AdmitState {
    AdmitState {
        allocator: allocator(steering),
        alloc: Allocation::empty_for(spec),
        routes: route_cache(spec),
        scratch: AllocScratch::new(),
    }
}

/// `begin_round` + `admit_in_round`; the caller checks `conn` holds no
/// grant. Whether it was admitted.
pub fn admit(spec: &SystemSpec, s: &mut AdmitState, conn: ConnId) -> bool {
    let round = s.allocator.begin_round(spec, &mut s.alloc, &s.routes);
    s.allocator
        .admit_in_round(
            &round,
            spec,
            &mut s.alloc,
            conn,
            &mut s.routes,
            &mut s.scratch,
        )
        .is_ok()
}

/// `Allocation::take_grant`, recycling the grant as the engine does.
pub fn release(s: &mut AdmitState, conn: ConnId) -> bool {
    match s.alloc.take_grant(conn) {
        Some(grant) => {
            s.scratch.recycle(grant);
            true
        }
        None => false,
    }
}

pub fn admission_order(spec: &SystemSpec, conns: &mut [ConnId]) {
    aelite_alloc::admission_order(spec, conns);
}

pub fn estimate_slots(spec: &SystemSpec, conn: ConnId) -> u32 {
    aelite_alloc::estimate_slots(spec, conn)
}

/// Whether candidate `i` of the pair exists.
pub fn route_candidate(
    spec: &SystemSpec,
    routes: &mut RouteCache,
    pair: (NiId, NiId),
    i: usize,
) -> bool {
    routes
        .candidate(spec.topology(), pair.0, pair.1, i)
        .is_some()
}

pub fn set_faults(routes: &mut RouteCache, faults: &FaultMask) {
    routes.set_faults(faults);
}

pub fn resident_pairs(routes: &RouteCache) -> usize {
    routes.resident_pairs()
}

pub fn fault_mask(links: &[LinkId]) -> FaultMask {
    let mut mask = FaultMask::new();
    for &l in links {
        mask.set_down(l);
    }
    mask
}

pub fn links(spec: &SystemSpec) -> Vec<LinkId> {
    spec.topology().links().collect()
}

/// The connections holding a grant, in id order.
pub fn open_conns(alloc: &Allocation) -> Vec<ConnId> {
    alloc.grants().map(|g| g.conn).collect()
}

pub fn restrict(spec: &SystemSpec, conns: &[ConnId]) -> SystemSpec {
    spec.restricted_to_connections(conns)
}

/// `validate_allocation` of an admission end state against the
/// connections it holds open.
pub fn validate_open(spec: &SystemSpec, alloc: &Allocation) -> Result<(), String> {
    let live = restrict(spec, &open_conns(alloc));
    aelite_alloc::validate_allocation(&live, alloc)
        .map_err(|v| format!("{} violation(s), first: {:?}", v.len(), v.first()))
}

// ---- noc.turbo / noc.network -------------------------------------------

/// The compiled kernel: synchronous, CBR traffic on.
pub fn build_turbo(spec: &SystemSpec, alloc: &Allocation) -> TurboNet {
    aelite_noc::turbo::build_turbo(spec, alloc, NetworkKind::Synchronous, true)
}

/// The event-driven golden reference: synchronous, CBR traffic on.
pub fn build_network(spec: &SystemSpec, alloc: &Allocation) -> CycleNet {
    aelite_noc::network::build_network(spec, alloc, NetworkKind::Synchronous, true)
}

/// Clock cycles per TDM slot.
pub fn slot_cycles(spec: &SystemSpec) -> u64 {
    u64::from(spec.config().slot_cycles())
}
