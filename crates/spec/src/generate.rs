//! Seeded random workload generation, including the paper's Section VII
//! experiment platform.
//!
//! The paper evaluates aelite with "a NoC with 200 connections, divided
//! across four different applications. The throughput and latency for the
//! connections is randomly chosen, and range from 10 to 500 Mbyte/s and 35
//! to 500 ns, respectively. With a total of 70 IPs, mapped to a 4×3 mesh
//! with 4 NIs per router". [`paper_workload`] regenerates exactly that
//! setup from a seed.
//!
//! Because the paper does not publish its random draw, we make two choices
//! and record them here:
//!
//! 1. **Log-uniform bandwidths.** A uniform draw over 10–500 MB/s gives an
//!    aggregate demand (~51 GB/s) that exceeds the platform's NI ingress
//!    capacity, so the authors' accepted workload cannot have been uniform
//!    at that size. A log-uniform draw (most connections light, a few
//!    heavy) matches typical SoC traffic and fits the platform.
//! 2. **Feasibility-aware draws.** Every candidate connection is charged
//!    an estimated slot count (the larger of its bandwidth minimum and the
//!    slots its deadline forces) against a per-link budget along its XY
//!    route, and redrawn if any link would exceed the budget. Latency
//!    requirements are clamped to what any allocator could physically
//!    achieve for the drawn path (pipeline delay plus a 2-slot gap).

use crate::app::{SystemSpec, SystemSpecBuilder};
use crate::config::NocConfig;
use crate::ids::{IpId, NiId};
use crate::path::dimension_ordered_hops;
use crate::timing::{latency_bound_cycles, slot_estimate};
use crate::topology::Topology;
use crate::traffic::Bandwidth;
use core::fmt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why a random workload could not be drawn.
///
/// Returned by [`try_random_workload`]; design-space sweeps treat this as
/// a data point (the platform cannot carry the requested traffic profile)
/// rather than a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadError {
    /// No feasible draw was found for the `connection`-th connection
    /// within the attempt budget: every candidate either exceeded a
    /// per-link slot budget or monopolised the slot table.
    InfeasibleDraw {
        /// Zero-based index of the connection that could not be drawn.
        connection: u32,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::InfeasibleDraw { connection } => write!(
                f,
                "could not draw a feasible connection #{connection}; lower the load"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Parameters of a random workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadParams {
    /// Number of applications to divide the connections across.
    pub apps: u32,
    /// Number of connections to draw.
    pub connections: u32,
    /// Number of IP cores to place (round-robin over NIs, then random).
    pub ips: u32,
    /// Minimum contracted bandwidth in MB/s.
    pub bw_min_mb: u64,
    /// Maximum contracted bandwidth in MB/s.
    pub bw_max_mb: u64,
    /// Minimum latency requirement in ns (clamped up if infeasible).
    pub lat_min_ns: u64,
    /// Maximum latency requirement in ns.
    pub lat_max_ns: u64,
    /// Message size used by the traffic generators, in bytes.
    pub message_bytes: u32,
    /// Per-NI slot budget as a fraction of the slot table that the random
    /// draw may commit (leaving headroom for allocation inefficiency).
    pub ni_load_cap: f64,
}

impl WorkloadParams {
    /// The paper's Section VII experiment parameters.
    #[must_use]
    pub fn paper() -> Self {
        WorkloadParams {
            apps: 4,
            connections: 200,
            ips: 70,
            bw_min_mb: 10,
            bw_max_mb: 500,
            lat_min_ns: 35,
            lat_max_ns: 500,
            message_bytes: 64,
            ni_load_cap: 0.6,
        }
    }
}

impl WorkloadParams {
    /// The lighter profile used by the thousand-connection scaled
    /// benchmarks: log-uniform 10–100 MB/s, 300–3000 ns deadlines,
    /// half-table link budget.
    #[must_use]
    pub fn scaled() -> Self {
        WorkloadParams {
            apps: 4,
            connections: 1_000,
            ips: 2,
            bw_min_mb: 10,
            bw_max_mb: 100,
            lat_min_ns: 300,
            lat_max_ns: 3000,
            message_bytes: 64,
            ni_load_cap: 0.5,
        }
    }

    /// The mega-mesh profile for 16×16–32×32 platforms at 10k–30k
    /// connections (32×32/30k is the largest point drawn anywhere;
    /// `tests/mega_mesh_golden.rs` pins it): same light bandwidths as
    /// [`scaled`](Self::scaled) but with deadlines relaxed to
    /// 1000–10000 ns so that connections crossing a large mesh (whose
    /// physical latency floor alone runs to hundreds of ns) do not force
    /// slot-table-monopolising injection gaps and get rejected by the
    /// feasibility filter.
    #[must_use]
    pub fn mega() -> Self {
        WorkloadParams {
            lat_min_ns: 1_000,
            lat_max_ns: 10_000,
            ..WorkloadParams::scaled()
        }
    }
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams::paper()
    }
}

/// How the random draw picks each connection's destination — uniform by
/// default, or one of the classic adversarial NoC patterns used to put
/// recovery and admission under pressure (the fault benchmarks run the
/// same platform under all four).
///
/// Adversarial profiles are deterministic per seed like everything else
/// here, but cannot be combined with [`WorkloadBuilder::tiles`] locality
/// (they prescribe their own destination structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrafficProfile {
    /// Destination drawn uniformly over all IPs — reproduces the
    /// historical generators bit-for-bit (identical rng draw sequence).
    #[default]
    Uniform,
    /// Half the draws target one of `spots` evenly spaced hotspot IPs,
    /// half stay uniform: a few NIs saturate while the rest idle.
    Hotspot {
        /// Number of hotspot IPs (evenly spaced over the placed IPs).
        spots: u32,
    },
    /// Matrix-transpose traffic on a square mesh: a source at router
    /// `(x, y)` sends to an IP at router `(y, x)` — maximal bisection
    /// pressure along the diagonal.
    Transpose,
    /// Coordinate-complement traffic: a source at router `(x, y)` sends
    /// to an IP at router `(cols-1-x, rows-1-y)` — every connection
    /// crosses the mesh centre.
    BitComplement,
}

/// One entry point for every random workload in the repo: the paper's
/// Section VII platform, the scaled benchmark meshes and the mega-mesh
/// (16×16–32×32, 10k–30k connections, pinned by
/// `tests/mega_mesh_golden.rs`) regime are all points in this builder's
/// parameter space, so new configurations no longer need a new ad-hoc
/// constructor signature.
///
/// Construct with [`WorkloadBuilder::mesh`], adjust knobs, then call
/// [`build`](Self::build) (panicking) or [`try_build`](Self::try_build)
/// (error-reporting). The builder and [`try_random_workload`] share one
/// generator core, so for equal parameters the random draw sequence —
/// and therefore every pinned golden workload — is bit-identical.
///
/// # Examples
///
/// The paper's platform, via the builder:
///
/// ```
/// use aelite_spec::generate::{paper_workload, WorkloadBuilder, WorkloadParams};
///
/// let built = WorkloadBuilder::mesh(4, 3, 4)
///     .params(WorkloadParams::paper())
///     .seed(42)
///     .build();
/// assert_eq!(built.connections(), paper_workload(42).connections());
/// ```
///
/// A mega-mesh regional workload:
///
/// ```no_run
/// use aelite_spec::generate::WorkloadBuilder;
///
/// let spec = WorkloadBuilder::mesh(16, 16, 4)
///     .mega_traffic()
///     .connections(10_000)
///     .tiles(8, 8)
///     .seed(7)
///     .build();
/// assert_eq!(spec.connections().len(), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    cols: u32,
    rows: u32,
    nis_per_router: u32,
    config: NocConfig,
    params: WorkloadParams,
    ips: Option<u32>,
    locality: Option<(u32, u32)>,
    profile: TrafficProfile,
    seed: u64,
}

impl WorkloadBuilder {
    /// Starts a workload on a `cols × rows` mesh with `nis_per_router`
    /// NIs per router, the paper's NoC configuration, the
    /// [`WorkloadParams::scaled`] traffic profile, one IP per NI, no
    /// locality constraint, and seed 0.
    #[must_use]
    pub fn mesh(cols: u32, rows: u32, nis_per_router: u32) -> Self {
        WorkloadBuilder {
            cols,
            rows,
            nis_per_router,
            config: NocConfig::paper_default(),
            params: WorkloadParams::scaled(),
            ips: None,
            locality: None,
            profile: TrafficProfile::Uniform,
            seed: 0,
        }
    }

    /// Replaces the whole traffic-parameter block (IP count included —
    /// subsequent [`ips`](Self::ips)/[`connections`](Self::connections)
    /// calls still override individual fields).
    #[must_use]
    pub fn params(mut self, params: WorkloadParams) -> Self {
        self.ips = Some(params.ips);
        self.params = params;
        self
    }

    /// Switches to the [`WorkloadParams::mega`] traffic profile
    /// (mega-mesh deadlines; keeps the connection count and any explicit
    /// IP count already set).
    #[must_use]
    pub fn mega_traffic(mut self) -> Self {
        let connections = self.params.connections;
        self.params = WorkloadParams {
            connections,
            ..WorkloadParams::mega()
        };
        self
    }

    /// Sets the number of connections to draw.
    #[must_use]
    pub fn connections(mut self, connections: u32) -> Self {
        self.params.connections = connections;
        self
    }

    /// Sets the number of IP cores (default: one per NI).
    #[must_use]
    pub fn ips(mut self, ips: u32) -> Self {
        self.ips = Some(ips);
        self
    }

    /// Sets the number of applications the connections divide across.
    #[must_use]
    pub fn apps(mut self, apps: u32) -> Self {
        self.params.apps = apps;
        self
    }

    /// Sets the contracted-bandwidth range in MB/s (log-uniform draw).
    #[must_use]
    pub fn bandwidth_mb(mut self, min: u64, max: u64) -> Self {
        self.params.bw_min_mb = min;
        self.params.bw_max_mb = max;
        self
    }

    /// Sets the message size used by the traffic generators, in bytes.
    #[must_use]
    pub fn message_bytes(mut self, bytes: u32) -> Self {
        self.params.message_bytes = bytes;
        self
    }

    /// Sets the fraction of each link's slot table the draw may commit.
    #[must_use]
    pub fn ni_load_cap(mut self, cap: f64) -> Self {
        self.params.ni_load_cap = cap;
        self
    }

    /// Constrains every connection to one tile of a `tiles_x × tiles_y`
    /// tiling of the router grid: each destination is drawn from the IPs
    /// of its source's tile (regional locality — the shape the sharded
    /// admission engine and the mega-mesh regime scale on; XY/YX routes
    /// never leave their endpoints' bounding box, so a matching shard
    /// tiling classifies every such connection intra-shard). A tile with
    /// fewer than two IPs makes every draw of that tile infeasible.
    #[must_use]
    pub fn tiles(mut self, tiles_x: u32, tiles_y: u32) -> Self {
        self.locality = Some((tiles_x, tiles_y));
        self
    }

    /// Sets the destination-draw profile (default
    /// [`TrafficProfile::Uniform`]; the adversarial profiles are the
    /// fault benchmarks' pressure workloads).
    #[must_use]
    pub fn profile(mut self, profile: TrafficProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Replaces the NoC configuration (slot table size, flit width, …).
    #[must_use]
    pub fn config(mut self, config: NocConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides just the TDM slot-table size of the configuration —
    /// large meshes with many connections per link need the headroom of
    /// a bigger table.
    #[must_use]
    pub fn slot_table_size(mut self, slots: u32) -> Self {
        self.config.slot_table_size = slots;
        self
    }

    /// Sets the random seed (workloads are deterministic per seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The parameters the build will use (IP count resolved).
    fn resolved(&self) -> (Topology, WorkloadParams) {
        let topo = Topology::mesh(self.cols, self.rows, self.nis_per_router);
        let ips = self.ips.unwrap_or((topo.ni_count() as u32).max(2));
        let params = WorkloadParams { ips, ..self.params };
        (topo, params)
    }

    /// Builds the workload, panicking on parameter errors or an
    /// infeasible draw (use [`try_build`](Self::try_build) to observe
    /// infeasibility as data).
    ///
    /// # Panics
    ///
    /// Panics as [`try_build`](Self::try_build), or when the draw is
    /// infeasible.
    #[must_use]
    pub fn build(self) -> SystemSpec {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the workload, reporting an infeasible draw as an error.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InfeasibleDraw`] as
    /// [`try_random_workload`] — adversarial profiles concentrate load,
    /// so they hit the per-link budget at connection counts a uniform
    /// draw carries easily.
    ///
    /// # Panics
    ///
    /// Panics on parameter errors that no retry can fix (fewer than 2
    /// IPs, zero connections/apps, invalid ranges); additionally if an
    /// adversarial profile is combined with [`tiles`](Self::tiles), if
    /// [`TrafficProfile::Hotspot`] asks for zero spots or more spots than
    /// IPs, or if [`TrafficProfile::Transpose`] runs on a non-square
    /// mesh.
    pub fn try_build(self) -> Result<SystemSpec, WorkloadError> {
        let (topo, params) = self.resolved();
        draw_workload(
            topo,
            self.config,
            params,
            self.seed,
            self.locality,
            self.profile,
        )
    }
}

/// Generates the paper's experiment: 4×3 concentrated mesh (4 NIs per
/// router), 70 IPs, 4 applications, 200 random connections.
///
/// Deterministic for a given `seed`.
///
/// # Examples
///
/// ```
/// use aelite_spec::generate::paper_workload;
///
/// let spec = paper_workload(42);
/// assert_eq!(spec.connections().len(), 200);
/// assert_eq!(spec.ip_count(), 70);
/// assert_eq!(spec.apps().len(), 4);
/// assert_eq!(spec.topology().router_count(), 12);
/// ```
///
/// A name for the experiment, not a second generator: one fixed
/// [`WorkloadBuilder`] call.
#[must_use]
pub fn paper_workload(seed: u64) -> SystemSpec {
    WorkloadBuilder::mesh(4, 3, 4)
        .params(WorkloadParams::paper())
        .seed(seed)
        .build()
}

/// Generates a synthetic scaled-up workload on a `cols × rows` mesh with
/// `nis_per_router` NIs per router and one IP per NI: the
/// thousand-connection regime beyond the paper's 200-connection
/// platform that `tests/golden_alloc.rs` and `tests/turbo_golden.rs` pin
/// the allocator and the turbo kernel on.
///
/// The draw keeps the paper generator's feasibility rules but with a
/// lighter per-connection profile (log-uniform 10–100 MB/s, 300–3000 ns
/// deadlines, half-table link budget) so that meshes from 4×4/500
/// connections to 8×8/2000 connections stay allocatable.
///
/// Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics as [`random_workload`] (fewer than 2 IPs, zero connections).
///
/// A name for the regime, not a second generator: one
/// [`WorkloadBuilder`] call (every other shape — tiles, mega-mesh
/// deadlines, traffic profiles — is spelled on the builder).
#[must_use]
pub fn scaled_workload(
    cols: u32,
    rows: u32,
    nis_per_router: u32,
    connections: u32,
    seed: u64,
) -> SystemSpec {
    WorkloadBuilder::mesh(cols, rows, nis_per_router)
        .connections(connections)
        .seed(seed)
        .build()
}

/// Generates a random workload on an arbitrary platform.
///
/// See the [module documentation](self) for the draw's feasibility rules.
///
/// # Panics
///
/// Panics if `params` asks for fewer than 2 IPs (no connection can be
/// drawn), zero connections/apps, or a bandwidth range with
/// `bw_min_mb > bw_max_mb`.
#[must_use]
pub fn random_workload(
    topo: Topology,
    config: NocConfig,
    params: WorkloadParams,
    seed: u64,
) -> SystemSpec {
    try_random_workload(topo, config, params, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`random_workload`] that reports an infeasible draw as an error
/// instead of panicking — the entry point for design-space sweeps, where
/// an overloaded grid corner is a result, not a bug.
///
/// # Errors
///
/// Returns [`WorkloadError::InfeasibleDraw`] when some connection cannot
/// be drawn within the per-connection attempt budget.
///
/// # Panics
///
/// Panics on parameter errors that no retry can fix: fewer than 2 IPs,
/// zero connections/apps, or invalid bandwidth/latency ranges.
pub fn try_random_workload(
    topo: Topology,
    config: NocConfig,
    params: WorkloadParams,
    seed: u64,
) -> Result<SystemSpec, WorkloadError> {
    draw_workload(topo, config, params, seed, None, TrafficProfile::Uniform)
}

/// The generator core behind [`try_random_workload`] and
/// [`WorkloadBuilder::try_build`]. No rng draw depends on `locality` or
/// `profile` until a destination is picked, and [`TrafficProfile::Uniform`]
/// without locality picks it with the plain uniform draw — so both entry
/// points share one draw sequence; the adversarial profiles and tile
/// locality replace only the destination draw.
fn draw_workload(
    topo: Topology,
    config: NocConfig,
    params: WorkloadParams,
    seed: u64,
    locality: Option<(u32, u32)>,
    profile: TrafficProfile,
) -> Result<SystemSpec, WorkloadError> {
    assert!(
        profile == TrafficProfile::Uniform || locality.is_none(),
        "adversarial traffic profiles prescribe their own destination \
         structure and cannot be combined with tile locality"
    );
    assert!(params.ips >= 2, "need at least two IPs");
    assert!(params.apps >= 1, "need at least one application");
    assert!(params.connections >= 1, "need at least one connection");
    assert!(
        params.bw_min_mb <= params.bw_max_mb && params.bw_min_mb > 0,
        "invalid bandwidth range"
    );
    assert!(
        params.lat_min_ns <= params.lat_max_ns,
        "invalid latency range"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let ni_count = topo.ni_count() as u32;
    let mut b = SystemSpecBuilder::new(topo, config);

    let apps: Vec<_> = (0..params.apps)
        .map(|i| b.add_app(format!("app{i}")))
        .collect();

    // Spread IPs over NIs: one per NI round-robin first, extras random.
    let mut ips: Vec<IpId> = Vec::with_capacity(params.ips as usize);
    for i in 0..params.ips {
        let ni = if i < ni_count {
            NiId::new(i)
        } else {
            NiId::new(rng.gen_range(0..ni_count))
        };
        ips.push(b.add_ip_at(ni));
    }

    // Tile pools for the locality constraint: which tile each IP's
    // router falls in, and the IPs of each tile.
    let regional: Option<(Vec<Vec<IpId>>, Vec<usize>)> = locality.map(|(tx, ty)| {
        let mut tile_ips: Vec<Vec<IpId>> = vec![Vec::new(); (tx * ty) as usize];
        let mut ip_tile = vec![0usize; ips.len()];
        for (i, &ip) in ips.iter().enumerate() {
            let r = b.topology().ni_router(b.spec_ni(ip));
            let t = b.topology().tile_of(r, tx, ty);
            let t = t.expect("regional workloads require a mesh topology") as usize;
            ip_tile[i] = t;
            tile_ips[t].push(ip);
        }
        (tile_ips, ip_tile)
    });

    // Destination pools for the adversarial profiles: the hotspot IP
    // list, or the IPs at each router for the coordinate patterns. No
    // rng draw happens here, so the Uniform sequence is untouched.
    let hotspots: Vec<IpId> = match profile {
        TrafficProfile::Hotspot { spots } => {
            assert!(
                spots >= 1 && (spots as usize) <= ips.len(),
                "hotspot count must be in 1..=ips"
            );
            (0..spots as usize)
                .map(|k| ips[k * ips.len() / spots as usize])
                .collect()
        }
        _ => Vec::new(),
    };
    let router_ips: Vec<Vec<IpId>> = match profile {
        TrafficProfile::Transpose | TrafficProfile::BitComplement => {
            let (cols, rows) = b
                .topology()
                .mesh_dims()
                .expect("coordinate traffic profiles require a mesh topology");
            if profile == TrafficProfile::Transpose {
                assert_eq!(cols, rows, "transpose traffic requires a square mesh");
            }
            let mut map = vec![Vec::new(); b.topology().router_count()];
            for &ip in &ips {
                map[b.topology().ni_router(b.spec_ni(ip)).index()].push(ip);
            }
            map
        }
        _ => Vec::new(),
    };

    // Remaining slot budget per directed link. A connection consumes its
    // estimated slot count on every link of its XY route; drawing against
    // this budget keeps the workload allocatable (see module docs).
    let link_budget = (f64::from(config.slot_table_size) * params.ni_load_cap).floor() as i64;
    let mut link_left = vec![link_budget; b.topology().link_count()];
    let mut links = Vec::new();

    for c in 0..params.connections {
        // Log-uniform bandwidth in [bw_min, bw_max] MB/s.
        let (lo, hi) = (params.bw_min_mb as f64, params.bw_max_mb as f64);
        let mut accepted = None;
        for _attempt in 0..5_000 {
            let bw_mb = (lo.ln() + rng.gen::<f64>() * (hi.ln() - lo.ln())).exp();
            let bw = Bandwidth::from_bytes_per_sec((bw_mb * 1e6) as u64);
            let si = rng.gen_range(0..ips.len());
            let src = ips[si];
            let dst = match &regional {
                None => match profile {
                    TrafficProfile::Uniform => ips[rng.gen_range(0..ips.len())],
                    TrafficProfile::Hotspot { .. } => {
                        // Classic hotspot mix: half the draws pile onto
                        // the spots, half stay uniform (a pure hotspot
                        // draw would exhaust the spots' NI budgets and
                        // make every workload infeasible).
                        if rng.gen::<f64>() < 0.5 {
                            hotspots[rng.gen_range(0..hotspots.len())]
                        } else {
                            ips[rng.gen_range(0..ips.len())]
                        }
                    }
                    TrafficProfile::Transpose | TrafficProfile::BitComplement => {
                        let (cols, rows) = b.topology().mesh_dims().expect("mesh checked above");
                        let r = b.topology().ni_router(b.spec_ni(src));
                        let (x, y) = b.topology().coords(r).expect("mesh router");
                        let (gx, gy) = if profile == TrafficProfile::Transpose {
                            (y, x)
                        } else {
                            (cols - 1 - x, rows - 1 - y)
                        };
                        let target = b.topology().router_at(gx, gy).expect("mesh router");
                        let pool = &router_ips[target.index()];
                        if pool.is_empty() {
                            continue; // no IP at the prescribed router
                        }
                        pool[rng.gen_range(0..pool.len())]
                    }
                },
                Some((tile_ips, ip_tile)) => {
                    let pool = &tile_ips[ip_tile[si]];
                    if pool.len() < 2 {
                        continue; // lone-IP tile: no intra-tile pair
                    }
                    pool[rng.gen_range(0..pool.len())]
                }
            };
            if src == dst {
                continue;
            }
            let (sni, dni) = (b.spec_ni(src), b.spec_ni(dst));
            if sni == dni {
                continue; // keep all traffic on the network, as in the paper
            }

            // The shortest route's hops+2 links (the XY route's on a mesh).
            let n_links = b.topology().router_hops(sni, dni) as usize + 2;

            // Latency requirement: drawn, then clamped so that at least a
            // 2-slot injection gap remains physically achievable.
            let floor_cycles = latency_bound_cycles(&config, 2, n_links);
            let floor_ns = (floor_cycles as f64 * config.cycle_ns()).ceil() as u64;
            let drawn = rng.gen_range(params.lat_min_ns..=params.lat_max_ns);
            let lat = drawn.max(floor_ns);

            // Slots this connection will need: the bandwidth minimum, or
            // more when the deadline forces a tighter injection gap.
            let est = i64::from(slot_estimate(&config, bw, lat, n_links));

            // Reject draws whose deadline would monopolise the table: a
            // connection may claim at most a quarter of the slots. Tight
            // deadlines therefore only survive on short paths or get
            // redrawn — keeping each requirement individually honourable.
            if est > i64::from(config.slot_table_size / 4) {
                continue;
            }

            // Budget check along the XY route's links; off a mesh there
            // are no router hops to walk, which leaves the NI links.
            let topo = b.topology();
            links.clear();
            links.push(topo.ni_ingress_link(sni));
            dimension_ordered_hops(topo, sni, dni, true, |router, port| {
                links.push(topo.out_link(router, port).expect("a port has a link"));
            });
            links.push(topo.ni_egress_link(dni));
            if links.iter().any(|l| link_left[l.index()] < est) {
                continue;
            }
            for l in &links {
                link_left[l.index()] -= est;
            }
            accepted = Some((src, dst, bw, lat));
            break;
        }
        let Some((src, dst, bw, lat)) = accepted else {
            return Err(WorkloadError::InfeasibleDraw { connection: c });
        };

        let app = apps[(c % params.apps) as usize];
        b.add_connection_with(
            app,
            src,
            dst,
            bw,
            lat,
            crate::traffic::TrafficPattern::ConstantRate,
            params.message_bytes,
        );
    }
    Ok(b.build())
}

impl SystemSpecBuilder {
    /// The NI an already-placed IP sits on (helper for the generator).
    fn spec_ni(&self, ip: IpId) -> NiId {
        // The builder's mapping is private to `crates/spec/src/app.rs`;
        // expose through a crate-internal accessor.
        self.mapping_for(ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;

    #[test]
    fn paper_workload_matches_paper_counts() {
        let spec = paper_workload(1);
        assert_eq!(spec.connections().len(), 200);
        assert_eq!(spec.ip_count(), 70);
        assert_eq!(spec.apps().len(), 4);
        assert_eq!(spec.topology().router_count(), 12);
        assert_eq!(spec.topology().ni_count(), 48);
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let a = paper_workload(7);
        let b = paper_workload(7);
        assert_eq!(a.connections(), b.connections());
        let c = paper_workload(8);
        assert_ne!(a.connections(), c.connections());
    }

    #[test]
    fn bandwidths_stay_in_range() {
        let spec = paper_workload(3);
        for c in spec.connections() {
            let mb = c.bandwidth.mbytes_per_sec_f64();
            assert!((10.0..=500.0).contains(&mb), "{mb} MB/s out of range");
        }
    }

    #[test]
    fn latencies_stay_in_range_and_feasible() {
        let spec = paper_workload(3);
        let cfg = spec.config();
        for c in spec.connections() {
            assert!(c.max_latency_ns >= 35, "{}", c.max_latency_ns);
            // Clamping may exceed 500 only when the physical floor demands
            // it; the floor on a 4x3 mesh is well under 100 ns at 500 MHz.
            assert!(c.max_latency_ns <= 500, "{}", c.max_latency_ns);
            let _ = cfg;
        }
    }

    #[test]
    fn connections_divide_across_apps_roughly_evenly() {
        let spec = paper_workload(5);
        for app in 0..4 {
            assert_eq!(spec.app_connections(AppId::new(app)).count(), 50);
        }
    }

    #[test]
    fn no_connection_stays_on_one_ni() {
        let spec = paper_workload(11);
        for c in spec.connections() {
            assert_ne!(spec.ip_ni(c.src), spec.ip_ni(c.dst), "{c}");
        }
    }

    #[test]
    fn ni_slot_budget_respected_by_draw() {
        // The per-link budget implies a per-NI bandwidth-slot budget on
        // the ingress and egress links (est >= bandwidth slots).
        let spec = paper_workload(13);
        let cfg = spec.config();
        let cap = (f64::from(cfg.slot_table_size) * 0.6).floor() as i64;
        let mut ingress = vec![0i64; spec.topology().ni_count()];
        let mut egress = vec![0i64; spec.topology().ni_count()];
        for c in spec.connections() {
            ingress[spec.ip_ni(c.src).index()] += i64::from(cfg.slots_for(c.bandwidth));
            egress[spec.ip_ni(c.dst).index()] += i64::from(cfg.slots_for(c.bandwidth));
        }
        for ni in 0..spec.topology().ni_count() {
            assert!(ingress[ni] <= cap, "NI{ni} ingress {} > {cap}", ingress[ni]);
            assert!(egress[ni] <= cap, "NI{ni} egress {} > {cap}", egress[ni]);
        }
    }

    #[test]
    fn latencies_clear_physical_floor() {
        let spec = paper_workload(21);
        let cfg = spec.config();
        for c in spec.connections() {
            // Even the tightest deadline leaves room for the pipeline and
            // a 2-slot injection gap on *some* path (the XY route).
            assert!(
                c.max_latency_ns as f64
                    >= (2.0 * cfg.slot_cycles() as f64 + 2.0 * cfg.flit_words as f64)
                        * cfg.cycle_ns(),
                "{c}"
            );
        }
    }

    #[test]
    fn small_custom_workload() {
        let topo = Topology::mesh(2, 2, 1);
        let params = WorkloadParams {
            apps: 2,
            connections: 6,
            ips: 4,
            bw_min_mb: 5,
            bw_max_mb: 40,
            lat_min_ns: 100,
            lat_max_ns: 900,
            message_bytes: 32,
            ni_load_cap: 0.9,
        };
        let spec = random_workload(topo, NocConfig::paper_default(), params, 99);
        assert_eq!(spec.connections().len(), 6);
        assert_eq!(spec.apps().len(), 2);
    }

    #[test]
    fn scaled_workload_matches_requested_shape() {
        let spec = scaled_workload(4, 4, 4, 500, 1);
        assert_eq!(spec.connections().len(), 500);
        assert_eq!(spec.topology().router_count(), 16);
        assert_eq!(spec.topology().ni_count(), 64);
        assert_eq!(spec.ip_count(), 64);
        // Deterministic per seed.
        let again = scaled_workload(4, 4, 4, 500, 1);
        assert_eq!(spec.connections(), again.connections());
    }

    #[test]
    fn builder_reproduces_every_legacy_constructor_bit_for_bit() {
        let paper = WorkloadBuilder::mesh(4, 3, 4)
            .params(WorkloadParams::paper())
            .seed(42)
            .build();
        assert_eq!(paper.connections(), paper_workload(42).connections());

        let scaled = WorkloadBuilder::mesh(4, 4, 4)
            .connections(500)
            .seed(9)
            .build();
        assert_eq!(
            scaled.connections(),
            scaled_workload(4, 4, 4, 500, 9).connections()
        );

        let regional = WorkloadBuilder::mesh(4, 4, 4)
            .connections(400)
            .tiles(2, 2)
            .seed(9)
            .build();
        // No wrapper names the tiled draw; what it promises is that no
        // connection leaves its 2×2-router tile.
        let topo = regional.topology();
        let tile = |ip| {
            let (x, y) = topo.coords(topo.ni_router(regional.ip_ni(ip))).unwrap();
            (x / 2, y / 2)
        };
        assert_eq!(regional.connections().len(), 400);
        for c in regional.connections() {
            assert_eq!(tile(c.src), tile(c.dst), "{c} leaves its tile");
        }
    }

    #[test]
    fn builder_knobs_land_in_the_spec() {
        let spec = WorkloadBuilder::mesh(3, 3, 2)
            .mega_traffic()
            .connections(50)
            .apps(2)
            .ips(10)
            .bandwidth_mb(5, 50)
            .message_bytes(32)
            .slot_table_size(64)
            .seed(5)
            .build();
        assert_eq!(spec.connections().len(), 50);
        assert_eq!(spec.apps().len(), 2);
        assert_eq!(spec.ip_count(), 10);
        assert_eq!(spec.config().slot_table_size, 64);
        for c in spec.connections() {
            let mb = c.bandwidth.mbytes_per_sec_f64();
            assert!((5.0..=50.0).contains(&mb), "{mb} MB/s out of range");
            assert!(c.max_latency_ns >= 1_000, "{}", c.max_latency_ns);
        }
    }

    #[test]
    fn mega_profile_relaxes_deadlines_only() {
        let s = WorkloadParams::scaled();
        let m = WorkloadParams::mega();
        assert_eq!((m.lat_min_ns, m.lat_max_ns), (1_000, 10_000));
        assert_eq!((m.bw_min_mb, m.bw_max_mb), (s.bw_min_mb, s.bw_max_mb));
        assert_eq!(m.ni_load_cap, s.ni_load_cap);
    }

    #[test]
    fn uniform_profile_is_the_legacy_draw_bit_for_bit() {
        let plain = WorkloadBuilder::mesh(4, 4, 2).connections(200).seed(17);
        let profiled = plain.clone().profile(TrafficProfile::Uniform);
        assert_eq!(plain.build().connections(), profiled.build().connections());
    }

    #[test]
    fn hotspot_profile_concentrates_traffic_deterministically() {
        let build = || {
            WorkloadBuilder::mesh(4, 4, 2)
                .connections(150)
                .profile(TrafficProfile::Hotspot { spots: 4 })
                .seed(23)
                .build()
        };
        let spec = build();
        assert_eq!(spec.connections(), build().connections(), "not pinned");
        // The 4 spots sit on 4 of the 32 NIs; uniform traffic would land
        // ~12% of destinations there, the hotspot mix well over 30%.
        let mut by_ni = vec![0u32; spec.topology().ni_count()];
        for c in spec.connections() {
            by_ni[spec.ip_ni(c.dst).index()] += 1;
        }
        let mut counts = by_ni.clone();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top4: u32 = counts[..4].iter().sum();
        assert!(
            u64::from(top4) * 100 / spec.connections().len() as u64 >= 30,
            "top-4 NIs hold only {top4}/150 destinations"
        );
    }

    #[test]
    fn transpose_profile_prescribes_the_mirror_router() {
        let build = || {
            WorkloadBuilder::mesh(4, 4, 2)
                .connections(100)
                .profile(TrafficProfile::Transpose)
                .seed(31)
                .build()
        };
        let spec = build();
        assert_eq!(spec.connections(), build().connections(), "not pinned");
        let topo = spec.topology();
        for c in spec.connections() {
            let (x, y) = topo.coords(topo.ni_router(spec.ip_ni(c.src))).unwrap();
            let (dx, dy) = topo.coords(topo.ni_router(spec.ip_ni(c.dst))).unwrap();
            assert_eq!((dx, dy), (y, x), "{c} is not transpose traffic");
        }
    }

    #[test]
    fn bit_complement_profile_crosses_the_mesh_centre() {
        let build = || {
            WorkloadBuilder::mesh(4, 3, 2)
                .connections(80)
                .profile(TrafficProfile::BitComplement)
                .seed(37)
                .build()
        };
        let spec = build();
        assert_eq!(spec.connections(), build().connections(), "not pinned");
        let topo = spec.topology();
        for c in spec.connections() {
            let (x, y) = topo.coords(topo.ni_router(spec.ip_ni(c.src))).unwrap();
            let (dx, dy) = topo.coords(topo.ni_router(spec.ip_ni(c.dst))).unwrap();
            assert_eq!((dx, dy), (3 - x, 2 - y), "{c} is not complement traffic");
        }
    }

    #[test]
    #[should_panic(expected = "cannot be combined with tile locality")]
    fn adversarial_profile_with_tiles_rejected() {
        let _ = WorkloadBuilder::mesh(4, 4, 2)
            .connections(10)
            .tiles(2, 2)
            .profile(TrafficProfile::Transpose)
            .build();
    }

    #[test]
    #[should_panic(expected = "square mesh")]
    fn transpose_on_rectangular_mesh_rejected() {
        let _ = WorkloadBuilder::mesh(4, 3, 2)
            .connections(10)
            .profile(TrafficProfile::Transpose)
            .build();
    }

    #[test]
    fn infeasible_draw_is_an_error_not_a_panic() {
        // Two IPs on a 2-router mesh, but a bandwidth floor far above the
        // per-link slot budget: no connection can ever be drawn.
        let topo = Topology::mesh(2, 1, 1);
        let params = WorkloadParams {
            apps: 1,
            connections: 1,
            ips: 2,
            bw_min_mb: 1_900,
            bw_max_mb: 2_000,
            lat_min_ns: 10_000,
            lat_max_ns: 10_000,
            message_bytes: 64,
            ni_load_cap: 0.5,
        };
        let err = try_random_workload(topo, NocConfig::paper_default(), params, 1)
            .expect_err("draw must be infeasible");
        assert_eq!(err, WorkloadError::InfeasibleDraw { connection: 0 });
        assert!(err.to_string().contains("connection #0"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least two IPs")]
    fn single_ip_rejected() {
        let topo = Topology::mesh(1, 1, 1);
        let params = WorkloadParams {
            ips: 1,
            ..WorkloadParams::paper()
        };
        let _ = random_workload(topo, NocConfig::paper_default(), params, 0);
    }
}
