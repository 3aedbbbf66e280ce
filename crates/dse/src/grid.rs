//! The design-space grid: which platforms and traffic profiles a sweep
//! visits, and the deterministic identity of each point.
//!
//! A [`DseGrid`] is the cross product of mesh dimensions, slot-table
//! sizes, link pipeline depths and [`TrafficMix`]es. Every
//! [`DesignPoint`] owns a stable textual [`id`](DesignPoint::id) and a
//! seed derived from that id by FNV-1a hashing — never from thread ids,
//! wall clocks or enumeration order — so a sweep's results are
//! bit-for-bit reproducible regardless of how many workers evaluate it.

use aelite_spec::app::SystemSpec;
use aelite_spec::config::NocConfig;
use aelite_spec::generate::{try_random_workload, WorkloadError, WorkloadParams};
use aelite_spec::topology::Topology;
use core::fmt;

/// The id of the paper's Section VII platform inside the full and
/// reduced grids: 4×3 mesh, 4 NIs per router, 64-slot tables, directly
/// connected links, paper traffic profile.
pub const PAPER_POINT_ID: &str = "mesh4x3n4_t64_p0_paper";

/// Mesh dimensions of one platform candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshDim {
    /// Mesh columns.
    pub cols: u32,
    /// Mesh rows.
    pub rows: u32,
    /// NIs concentrated on each router.
    pub nis_per_router: u32,
}

impl MeshDim {
    /// A new mesh dimension triple.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions, or when an interior router would exceed
    /// the arity-8 bound of the synthesis model (4 neighbours +
    /// `nis_per_router` ports).
    #[must_use]
    pub fn new(cols: u32, rows: u32, nis_per_router: u32) -> Self {
        assert!(cols > 0 && rows > 0 && nis_per_router > 0, "zero dimension");
        assert!(
            4 + nis_per_router <= 8,
            "interior router arity {} exceeds the synthesis model's bound of 8",
            4 + nis_per_router
        );
        MeshDim {
            cols,
            rows,
            nis_per_router,
        }
    }

    /// Number of NIs on this mesh.
    #[must_use]
    pub fn ni_count(&self) -> u32 {
        self.cols * self.rows * self.nis_per_router
    }
}

impl fmt::Display for MeshDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}n{}", self.cols, self.rows, self.nis_per_router)
    }
}

/// A traffic profile, scaled to whatever platform it is drawn on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficMix {
    /// The paper's Section VII per-connection profile (log-uniform
    /// 10–500 MB/s, 35–500 ns deadlines), with connection and IP counts
    /// scaled from the paper's 200-connections-on-48-NIs density.
    Paper,
    /// A light synthetic profile (10–100 MB/s, relaxed 300–3000 ns
    /// deadlines), 5 connections per NI — the regime of the allocator
    /// throughput benchmarks.
    Light,
    /// A heavy synthetic profile (20–200 MB/s, 300–3000 ns deadlines),
    /// 8 connections per NI — the oversubscription-probing regime.
    Heavy,
}

impl TrafficMix {
    /// All mixes, in report order.
    pub const ALL: [TrafficMix; 3] = [TrafficMix::Paper, TrafficMix::Light, TrafficMix::Heavy];

    /// The stable lower-case tag used in point ids and reports.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            TrafficMix::Paper => "paper",
            TrafficMix::Light => "light",
            TrafficMix::Heavy => "heavy",
        }
    }
}

impl fmt::Display for TrafficMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// One coordinate of the design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// The mesh platform.
    pub mesh: MeshDim,
    /// TDM slot-table size (NoC-wide).
    pub slot_table_size: u32,
    /// Mesochronous pipeline stages per link (0 = synchronous NoC).
    pub link_pipeline_stages: u32,
    /// The traffic profile drawn onto the platform.
    pub mix: TrafficMix,
}

impl DesignPoint {
    /// The point's stable textual identity, e.g. `mesh4x3n4_t64_p0_paper`.
    #[must_use]
    pub fn id(&self) -> String {
        format!(
            "mesh{}_t{}_p{}_{}",
            self.mesh,
            self.slot_table_size,
            self.link_pipeline_stages,
            self.mix.tag()
        )
    }

    /// The workload seed: FNV-1a over the point id. A pure function of
    /// the coordinates, so any execution schedule draws the same
    /// workload for the same point.
    #[must_use]
    pub fn seed(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self.id().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// The NoC configuration of this point: the paper's 32-bit/500 MHz
    /// geometry with the point's slot-table size and pipeline depth.
    #[must_use]
    pub fn config(&self) -> NocConfig {
        let mut cfg = NocConfig::paper_default();
        cfg.slot_table_size = self.slot_table_size;
        cfg.link_pipeline_stages = self.link_pipeline_stages;
        cfg
    }

    /// Builds the point's topology (deterministic per coordinates).
    #[must_use]
    pub fn topology(&self) -> Topology {
        Topology::mesh(self.mesh.cols, self.mesh.rows, self.mesh.nis_per_router)
    }

    /// The workload parameters of the point's [`TrafficMix`], scaled to
    /// its platform.
    #[must_use]
    pub(crate) fn workload_params(&self) -> WorkloadParams {
        let ni = self.mesh.ni_count();
        match self.mix {
            // The paper drew 200 connections over 70 IPs on 48 NIs; keep
            // that density on other platforms.
            TrafficMix::Paper => WorkloadParams {
                apps: 4,
                connections: (ni * 200 / 48).max(1),
                ips: (ni * 70 / 48).max(2),
                bw_min_mb: 10,
                bw_max_mb: 500,
                lat_min_ns: 35,
                lat_max_ns: 500,
                message_bytes: 64,
                ni_load_cap: 0.6,
            },
            TrafficMix::Light => WorkloadParams {
                apps: 4,
                connections: ni * 5,
                ips: ni.max(2),
                bw_min_mb: 10,
                bw_max_mb: 100,
                lat_min_ns: 300,
                lat_max_ns: 3000,
                message_bytes: 64,
                ni_load_cap: 0.5,
            },
            TrafficMix::Heavy => WorkloadParams {
                apps: 4,
                connections: ni * 8,
                ips: ni.max(2),
                bw_min_mb: 20,
                bw_max_mb: 200,
                lat_min_ns: 300,
                lat_max_ns: 3000,
                message_bytes: 64,
                ni_load_cap: 0.6,
            },
        }
    }

    /// Draws the point's workload. Every stage that rebuilds a point
    /// (sweep, validation, churn and fault replays) goes through here, so
    /// they all see the same spec.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when the platform cannot carry the mix's budgets.
    pub(crate) fn try_spec(&self) -> Result<SystemSpec, WorkloadError> {
        let (topology, config) = (self.topology(), self.config());
        try_random_workload(topology, config, self.workload_params(), self.seed())
    }

    /// [`try_spec`](Self::try_spec) for a point taken from a checked
    /// report, whose workload is known to draw.
    pub(crate) fn spec(&self) -> SystemSpec {
        self.try_spec()
            .unwrap_or_else(|e| panic!("{}: workload no longer draws: {e}", self.id()))
    }

    /// Whether this point is the paper's Section VII platform
    /// ([`PAPER_POINT_ID`]).
    #[must_use]
    pub(crate) fn is_paper_platform(&self) -> bool {
        self.id() == PAPER_POINT_ID
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// A rectangular design-space grid: the cross product of its axes.
#[derive(Debug, Clone)]
pub struct DseGrid {
    /// A short label recorded in the report (`full`, `reduced`, …).
    pub label: String,
    /// Mesh platforms to visit.
    pub meshes: Vec<MeshDim>,
    /// Slot-table sizes to visit.
    pub slot_table_sizes: Vec<u32>,
    /// Link pipeline depths to visit.
    pub link_pipeline_depths: Vec<u32>,
    /// Traffic mixes to draw on each platform.
    pub mixes: Vec<TrafficMix>,
}

impl DseGrid {
    /// The full exploration grid: 7 meshes (2×2 … 8×8) × 3 slot-table
    /// sizes × 2 link pipeline depths × 3 traffic mixes = 126 points,
    /// including the paper platform ([`PAPER_POINT_ID`]).
    #[must_use]
    pub fn full() -> Self {
        DseGrid {
            label: "full".into(),
            meshes: vec![
                MeshDim::new(2, 2, 2),
                MeshDim::new(3, 3, 2),
                MeshDim::new(4, 3, 4),
                MeshDim::new(4, 4, 2),
                MeshDim::new(4, 4, 4),
                MeshDim::new(6, 6, 2),
                MeshDim::new(8, 8, 4),
            ],
            slot_table_sizes: vec![32, 64, 128],
            link_pipeline_depths: vec![0, 1],
            mixes: TrafficMix::ALL.to_vec(),
        }
    }

    /// A reduced grid for CI and the determinism tests: 3 meshes × 2
    /// slot-table sizes × 1 pipeline depth × 2 mixes = 12 points, still
    /// including the paper platform.
    #[must_use]
    pub fn reduced() -> Self {
        DseGrid {
            label: "reduced".into(),
            meshes: vec![
                MeshDim::new(2, 2, 1),
                MeshDim::new(2, 2, 2),
                MeshDim::new(4, 3, 4),
            ],
            slot_table_sizes: vec![32, 64],
            link_pipeline_depths: vec![0],
            mixes: vec![TrafficMix::Paper, TrafficMix::Light],
        }
    }

    /// Number of points in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.meshes.len()
            * self.slot_table_sizes.len()
            * self.link_pipeline_depths.len()
            * self.mixes.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every point, mesh-major so that consecutive points
    /// share a topology (maximising [`RouteCache`] reuse within a
    /// worker), then by table size, pipeline depth and mix.
    ///
    /// [`RouteCache`]: aelite_alloc::RouteCache
    #[must_use]
    pub fn points(&self) -> Vec<DesignPoint> {
        let mut pts = Vec::with_capacity(self.len());
        for &mesh in &self.meshes {
            for &slot_table_size in &self.slot_table_sizes {
                for &link_pipeline_stages in &self.link_pipeline_depths {
                    for &mix in &self.mixes {
                        pts.push(DesignPoint {
                            mesh,
                            slot_table_size,
                            link_pipeline_stages,
                            mix,
                        });
                    }
                }
            }
        }
        pts
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The four-point grid the front-replay tests of this crate share.
    pub(crate) fn tiny_grid() -> DseGrid {
        DseGrid {
            label: "tiny".into(),
            meshes: vec![MeshDim::new(2, 2, 1), MeshDim::new(2, 2, 2)],
            slot_table_sizes: vec![32],
            link_pipeline_depths: vec![0, 1],
            mixes: vec![TrafficMix::Light],
        }
    }

    #[test]
    fn full_grid_has_at_least_100_points_and_the_paper_platform() {
        let grid = DseGrid::full();
        let points = grid.points();
        assert!(points.len() >= 100, "only {} points", points.len());
        assert_eq!(points.len(), grid.len());
        assert_eq!(
            points.iter().filter(|p| p.is_paper_platform()).count(),
            1,
            "exactly one paper platform point"
        );
    }

    #[test]
    fn reduced_grid_contains_the_paper_platform() {
        let points = DseGrid::reduced().points();
        assert!(points.iter().any(DesignPoint::is_paper_platform));
        assert_eq!(points.len(), 12);
    }

    #[test]
    fn point_ids_are_unique_and_stable() {
        let points = DseGrid::full().points();
        let mut ids: Vec<String> = points.iter().map(DesignPoint::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), points.len(), "duplicate point ids");
        // A pinned spot check: renaming ids silently invalidates committed
        // reports, so treat the format as a schema.
        assert_eq!(
            DseGrid::full()
                .points()
                .iter()
                .find(|p| p.is_paper_platform())
                .unwrap()
                .id(),
            PAPER_POINT_ID
        );
    }

    #[test]
    fn seeds_depend_only_on_coordinates() {
        let a = DseGrid::full().points();
        let b = DseGrid::full().points();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed(), y.seed());
        }
        // Distinct points draw distinct workloads.
        assert_ne!(a[0].seed(), a[1].seed());
    }

    #[test]
    fn paper_point_params_match_the_paper_workload() {
        let p = DseGrid::full()
            .points()
            .into_iter()
            .find(|p| p.is_paper_platform())
            .unwrap();
        let params = p.workload_params();
        assert_eq!(params, WorkloadParams::paper());
        assert_eq!(p.config().slot_table_size, 64);
        assert_eq!(p.topology().ni_count(), 48);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn oversized_concentration_rejected() {
        let _ = MeshDim::new(4, 4, 5);
    }
}
