//! The parallel sweep engine: evaluate every grid point, deterministically.
//!
//! Workers pull point indices from a shared atomic cursor inside a
//! [`std::thread::scope`]; each worker keeps its own route cache per
//! topology shape, so every point sharing a mesh skips route enumeration
//! after the worker's first visit. Determinism does not depend on the
//! schedule: a point's result is a pure function of its coordinates (the
//! workload seed is derived from the point id, the allocator is
//! deterministic, and route caches only memoize topology-derived data
//! that is identical however it is rebuilt), and results land in a slot
//! vector indexed by enumeration order. One thread or sixteen, the
//! serialized report is byte-identical — pinned by
//! `tests/dse_determinism.rs`.

use crate::grid::{DesignPoint, DseGrid};
use crate::report::DseReport;
use aelite_alloc::allocate::{admission_order, AllocScratch, Allocation};
use aelite_alloc::{Allocator, RouteCache};
use aelite_dataflow::models::{predicted_flit_rate_per_us, wrapper_chain};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;
use aelite_synth::components::{link_stage_area_um2, ni_area_um2, FifoKind};
use aelite_synth::power::component_power;
use aelite_synth::router::{synthesize, RouterParams};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a design point fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOutcome {
    /// Every connection of the drawn workload was allocated.
    Full,
    /// The workload was drawn but only a fraction of its connections fit
    /// (admitted one at a time, hardest first).
    Partial,
    /// No feasible workload of the requested profile could even be drawn
    /// on this platform (the generator's per-link budgets overflow).
    WorkloadInfeasible,
}

impl PointOutcome {
    /// The stable lower-case tag used in reports.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            PointOutcome::Full => "full",
            PointOutcome::Partial => "partial",
            PointOutcome::WorkloadInfeasible => "workload_infeasible",
        }
    }
}

/// Everything the sweep measured at one design point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The point's coordinates.
    pub point: DesignPoint,
    /// The workload seed the point drew (derived from its id).
    pub seed: u64,
    /// How the point fared.
    pub outcome: PointOutcome,
    /// Connections the traffic mix asked for.
    pub connections_requested: u32,
    /// Connections that received a contention-free grant.
    pub connections_granted: u32,
    /// `granted / requested`.
    pub alloc_success_rate: f64,
    /// Worst analytical per-flit latency bound over all granted
    /// connections, ns (0 when nothing was granted).
    pub worst_case_flit_latency_ns: f64,
    /// Mean slot utilisation over links carrying traffic.
    pub mean_loaded_utilisation: f64,
    /// Peak slot utilisation over all links.
    pub peak_utilisation: f64,
    /// Sum of the guaranteed payload bandwidth of every grant, GB/s.
    pub guaranteed_throughput_gbytes: f64,
    /// Steady-state flit rate of the longest NI-to-NI wrapper chain
    /// (dataflow MCM analysis), flits/µs.
    pub dataflow_flit_rate_per_us: f64,
    /// Estimated silicon area of the platform (routers + link pipeline
    /// stages + NIs sized for the drawn workload), mm².
    pub area_mm2: f64,
    /// Estimated power at the operating point, mW.
    pub power_mw: f64,
}

/// Evaluates one design point: draw the workload, allocate (falling back
/// to one-at-a-time admission when the batch flow fails), analyse, and
/// price the platform.
///
/// Pure in the point's coordinates: the same point always produces the
/// same result, whatever `routes` already contains.
///
/// # Panics
///
/// Panics if `routes` was built for a different topology shape or
/// `max_paths` bound than this point's platform and the default
/// [`Allocator`] use.
#[must_use]
pub(crate) fn evaluate_point(point: &DesignPoint, routes: &mut RouteCache) -> PointResult {
    let cfg = point.config();
    let seed = point.seed();
    let requested = point.workload_params().connections;

    let Ok(spec) = point.try_spec() else {
        // The platform cannot even carry the profile's draw budgets;
        // price the bare platform and move on.
        return PointResult {
            point: *point,
            seed,
            outcome: PointOutcome::WorkloadInfeasible,
            connections_requested: requested,
            connections_granted: 0,
            alloc_success_rate: 0.0,
            worst_case_flit_latency_ns: 0.0,
            mean_loaded_utilisation: 0.0,
            peak_utilisation: 0.0,
            guaranteed_throughput_gbytes: 0.0,
            dataflow_flit_rate_per_us: dataflow_rate(point),
            area_mm2: platform_area_um2(point, &vec![0; point.mesh.ni_count() as usize]) / 1.0e6,
            power_mw: 0.0,
        };
    };

    let (alloc, granted) = design(&spec, routes);

    let mut worst_ns = 0.0f64;
    let mut throughput_bytes = 0u64;
    for c in spec.connections() {
        if alloc.grant(c.id).is_some() {
            worst_ns = worst_ns.max(alloc.worst_case_latency_ns(&spec, c.id));
            throughput_bytes += alloc.allocated_bandwidth(&spec, c.id).bytes_per_sec();
        }
    }

    // NIs are provisioned for the connections the spec *asked* of them,
    // granted or not — hardware is sized before allocation runs.
    let mut conns_per_ni = vec![0u32; spec.topology().ni_count()];
    for c in spec.connections() {
        conns_per_ni[spec.ip_ni(c.src).index()] += 1;
        conns_per_ni[spec.ip_ni(c.dst).index()] += 1;
    }
    let area_um2 = platform_area_um2(point, &conns_per_ni);
    let mean_util = alloc.mean_loaded_utilisation();

    PointResult {
        point: *point,
        seed,
        outcome: if granted == requested {
            PointOutcome::Full
        } else {
            PointOutcome::Partial
        },
        connections_requested: requested,
        connections_granted: granted,
        alloc_success_rate: f64::from(granted) / f64::from(requested),
        worst_case_flit_latency_ns: worst_ns,
        mean_loaded_utilisation: mean_util,
        peak_utilisation: alloc.peak_utilisation(),
        guaranteed_throughput_gbytes: throughput_bytes as f64 / 1.0e9,
        dataflow_flit_rate_per_us: dataflow_rate(point),
        area_mm2: area_um2 / 1.0e6,
        power_mw: component_power(area_um2, cfg.frequency_mhz as f64, mean_util).total_mw(),
    }
}

/// The allocation every stage designs for a drawn workload, and how many
/// connections it grants: the default [`Allocator`]'s batch flow, else —
/// when that all-or-nothing flow fails — hardest-first one-at-a-time
/// admission keeping every success. The sweep prices this allocation;
/// the validation and churn replays rebuild it through the same call.
pub(crate) fn design(spec: &SystemSpec, routes: &mut RouteCache) -> (Allocation, u32) {
    let allocator = Allocator::new();
    let alloc = match allocator.allocate_with_cache(spec, routes) {
        Ok(alloc) => alloc,
        Err(_) => {
            let mut order: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
            admission_order(spec, &mut order);
            let mut alloc = Allocation::empty_for(spec);
            let round = allocator.begin_round(spec, &mut alloc, routes);
            let mut scratch = AllocScratch::new();
            for c in order {
                // A refusal leaves `alloc` as it was; the count below sees it.
                let _ = allocator.admit_in_round(&round, spec, &mut alloc, c, routes, &mut scratch);
            }
            alloc
        }
    };
    let granted = alloc.grants().count() as u32;
    (alloc, granted)
}

/// The predicted steady-state flit rate of the longest NI→router→…→NI
/// chain of the platform, with each link's mesochronous pipeline stages
/// modelled as extra flit-cycle actors (paper Section V / footnote 1).
fn dataflow_rate(point: &DesignPoint) -> f64 {
    let cfg = point.config();
    let hops = (point.mesh.cols - 1) + (point.mesh.rows - 1);
    let links = hops + 2; // NI ingress + per-hop links + NI egress
    let elements = 2 + (hops + 1) + links * point.link_pipeline_stages;
    let freqs = vec![cfg.frequency_mhz as f64; elements as usize];
    let chain = wrapper_chain(&freqs, cfg.flit_words, 2);
    predicted_flit_rate_per_us(&chain)
}

/// Cell-area estimate of the platform in µm²: every router synthesised
/// at its actual arity and the operating frequency, `link_pipeline_stages`
/// mesochronous stages (custom FIFOs) on every link, and each NI sized
/// for the connections that terminate on it (at least one, the
/// provisioning floor).
fn platform_area_um2(point: &DesignPoint, conns_per_ni: &[u32]) -> f64 {
    let topo = point.topology();
    let cfg = point.config();
    let width = cfg.data_width_bits;
    let f_mhz = cfg.frequency_mhz as f64;

    let routers: f64 = topo
        .routers()
        .map(|r| {
            let arity = u32::try_from(topo.arity(r)).expect("arity fits u32");
            synthesize(&RouterParams::symmetric(arity.clamp(1, 8), width), f_mhz).area_um2
        })
        .sum();
    let links = point.link_pipeline_stages as f64
        * topo.link_count() as f64
        * link_stage_area_um2(FifoKind::Custom, width);
    let nis: f64 = conns_per_ni
        .iter()
        .map(|&c| ni_area_um2(c.max(1), cfg.ni_buffer_words, width, cfg.slot_table_size))
        .sum();
    routers + links + nis
}

/// Sweeps every point of `grid` over `threads` workers (`0` = one per
/// available CPU) and collects the results into a [`DseReport`].
///
/// The report is identical whatever `threads` is; see the module docs.
#[must_use]
pub fn run_sweep(grid: &DseGrid, threads: usize) -> DseReport {
    let points = grid.points();
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    }
    .min(points.len().max(1));

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<PointResult>>> = Mutex::new(vec![None; points.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One cache per topology shape, reused across every point
                // of this worker that shares the mesh.
                let mut caches: HashMap<(u32, u32, u32), RouteCache> = HashMap::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(point) = points.get(i) else { break };
                    let key = (point.mesh.cols, point.mesh.rows, point.mesh.nis_per_router);
                    let routes = caches.entry(key).or_insert_with(|| {
                        RouteCache::new(&point.topology(), Allocator::new().max_paths)
                    });
                    let result = evaluate_point(point, routes);
                    slots.lock().expect("no poisoned workers")[i] = Some(result);
                }
            });
        }
    });

    let results: Vec<PointResult> = slots
        .into_inner()
        .expect("no poisoned workers")
        .into_iter()
        .map(|r| r.expect("every point evaluated"))
        .collect();
    DseReport::new(&grid.label, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{MeshDim, TrafficMix};

    fn tiny_point() -> DesignPoint {
        DesignPoint {
            mesh: MeshDim::new(2, 2, 1),
            slot_table_size: 32,
            link_pipeline_stages: 0,
            mix: TrafficMix::Light,
        }
    }

    #[test]
    fn tiny_point_evaluates_fully() {
        let p = tiny_point();
        let mut routes = RouteCache::new(&p.topology(), Allocator::new().max_paths);
        let r = evaluate_point(&p, &mut routes);
        assert_eq!(r.outcome, PointOutcome::Full);
        assert_eq!(r.connections_granted, r.connections_requested);
        assert!((r.alloc_success_rate - 1.0).abs() < f64::EPSILON);
        assert!(r.worst_case_flit_latency_ns > 0.0);
        assert!(r.guaranteed_throughput_gbytes > 0.0);
        assert!(r.area_mm2 > 0.0);
        assert!(r.power_mw > 0.0);
        // 2x2 mesh at 500 MHz: the chain runs at one flit per 6 ns.
        assert!((r.dataflow_flit_rate_per_us - 1000.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn evaluation_is_independent_of_cache_warmth() {
        let p = tiny_point();
        let mut cold = RouteCache::new(&p.topology(), Allocator::new().max_paths);
        let a = evaluate_point(&p, &mut cold);
        // Same cache, second pass: fully warm.
        let b = evaluate_point(&p, &mut cold);
        assert_eq!(a.connections_granted, b.connections_granted);
        assert!((a.guaranteed_throughput_gbytes - b.guaranteed_throughput_gbytes).abs() == 0.0);
        assert!((a.worst_case_flit_latency_ns - b.worst_case_flit_latency_ns).abs() == 0.0);
        assert!((a.area_mm2 - b.area_mm2).abs() == 0.0);
    }

    /// The paper's Section VII platform ([`crate::grid::PAPER_POINT_ID`])
    /// with `link_pipeline_stages` stages per link.
    fn paper_point(link_pipeline_stages: u32) -> DesignPoint {
        DesignPoint {
            mesh: MeshDim::new(4, 3, 4),
            slot_table_size: 64,
            link_pipeline_stages,
            mix: TrafficMix::Paper,
        }
    }

    #[test]
    fn paper_platform_area_is_plausible() {
        let p = paper_point(0);
        assert_eq!(p.id(), crate::grid::PAPER_POINT_ID);
        let mut routes = RouteCache::new(&p.topology(), Allocator::new().max_paths);
        let r = evaluate_point(&p, &mut routes);
        // 12 routers of ~15-25 kum2, priced without NIs or link stages.
        let routers_um2 = platform_area_um2(&p, &[]);
        assert!(
            routers_um2 > 150_000.0 && routers_um2 < 400_000.0,
            "{routers_um2}"
        );
        assert!(r.area_mm2 > 1.0 && r.area_mm2 < 12.0, "{}", r.area_mm2);
        assert!(
            r.power_mw > 100.0 && r.power_mw < 10_000.0,
            "{}",
            r.power_mw
        );
        // NIs dominate by a wide margin (48 NIs of ~0.13 mm² — consistent
        // with published Æthereal NI figures): the Æthereal-family cost
        // structure.
        let nis_um2 = r.area_mm2 * 1.0e6 - routers_um2;
        assert!(nis_um2 > 10.0 * routers_um2, "{nis_um2} vs {routers_um2}");
    }

    #[test]
    fn mesochronous_point_adds_link_stage_area() {
        let stages_um2 =
            platform_area_um2(&paper_point(1), &[]) - platform_area_um2(&paper_point(0), &[]);
        // 136 links x ~2.5 kum2.
        assert!(stages_um2 > 20_000.0, "{stages_um2}");
    }

    #[test]
    fn pipeline_stages_lengthen_the_chain_but_keep_the_rate() {
        let mut p = tiny_point();
        let base = dataflow_rate(&p);
        p.link_pipeline_stages = 2;
        let piped = dataflow_rate(&p);
        assert!((base - piped).abs() < 1e-9, "{base} vs {piped}");
    }

    #[test]
    fn incremental_admission_grants_a_prefix_under_oversubscription() {
        // A deliberately oversubscribed point: heavy mix on the smallest
        // mesh with the smallest table.
        let p = DesignPoint {
            mesh: MeshDim::new(2, 2, 1),
            slot_table_size: 32,
            link_pipeline_stages: 0,
            mix: TrafficMix::Heavy,
        };
        let mut routes = RouteCache::new(&p.topology(), Allocator::new().max_paths);
        let r = evaluate_point(&p, &mut routes);
        // Whatever the outcome, the invariants hold.
        assert!(r.connections_granted <= r.connections_requested);
        let expect = f64::from(r.connections_granted) / f64::from(r.connections_requested);
        assert!((r.alloc_success_rate - expect).abs() < 1e-12);
        if r.outcome == PointOutcome::Partial {
            assert!(r.connections_granted < r.connections_requested);
        }
    }

    #[test]
    fn design_rebuilds_the_grants_the_sweep_reported_for_a_partial_point() {
        // `mesh4x4n4_t128_p1_paper`: the smallest Partial point of the
        // committed full-grid report (262 of 266 connections).
        let p = DesignPoint {
            mesh: MeshDim::new(4, 4, 4),
            slot_table_size: 128,
            link_pipeline_stages: 1,
            mix: TrafficMix::Paper,
        };
        let mut routes = RouteCache::new(&p.topology(), Allocator::new().max_paths);
        let r = evaluate_point(&p, &mut routes);
        assert_eq!(r.outcome, PointOutcome::Partial);
        assert_eq!((r.connections_granted, r.connections_requested), (262, 266));
        // What validation and churn replays do: redraw, redesign, cold cache.
        let spec = p.spec();
        let mut cold = RouteCache::new(spec.topology(), Allocator::new().max_paths);
        let (alloc, granted) = design(&spec, &mut cold);
        assert_eq!(granted, r.connections_granted);
        assert_eq!(alloc.grants().count() as u32, granted);
        // The refused connections are the design's only inconsistency.
        let violations = aelite_alloc::validate::validate(&spec, &alloc).unwrap_err();
        assert_eq!(violations.len() as u32, r.connections_requested - granted);
        assert!(violations
            .iter()
            .all(|v| matches!(v, aelite_alloc::validate::Violation::MissingGrant { .. })));
    }
}
