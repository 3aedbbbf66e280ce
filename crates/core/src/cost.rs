//! Whole-system silicon cost estimation, compiled for the tests only:
//! no product code asks for a cost, so this module is the check that the
//! synthesis models compose into the Æthereal-family cost structure.
//!
//! Combines the synthesis models over the *actual* designed system:
//! per-router areas from the real arities in the topology, link pipeline
//! stages when the configuration is mesochronous, and NI areas from the
//! real number of connections terminating at each NI. The totals feed
//! cost comparisons like the paper's Section VII discussion ("the cost of
//! the router network is roughly 5 times as high").

use crate::system::AeliteSystem;
use aelite_spec::ids::Port;
use aelite_synth::components::{link_stage_area_um2, ni_area_um2, FifoKind};
use aelite_synth::power::{component_power, router_power, SleepMode};
use aelite_synth::router::{synthesize, RouterParams};
use core::fmt;

/// A whole-system cost estimate (cell area, 90 nm, pre-layout).
#[derive(Debug, Clone, Copy, PartialEq)]
struct SystemCost {
    /// All routers.
    routers_um2: f64,
    /// All mesochronous link pipeline stages (zero for synchronous).
    link_stages_um2: f64,
    /// All network interfaces (buffers dominate).
    nis_um2: f64,
    /// Estimated NoC power at the operating point, mW (always-on clocks).
    power_mw: f64,
}

impl SystemCost {
    /// Total cell area in µm².
    fn total_um2(&self) -> f64 {
        self.routers_um2 + self.link_stages_um2 + self.nis_um2
    }

    /// Total cell area in mm².
    fn total_mm2(&self) -> f64 {
        self.total_um2() / 1e6
    }
}

impl fmt::Display for SystemCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "routers {:.0} + links {:.0} + NIs {:.0} = {:.3} mm2, ~{:.0} mW",
            self.routers_um2,
            self.link_stages_um2,
            self.nis_um2,
            self.total_mm2(),
            self.power_mw
        )
    }
}

/// Estimates the silicon cost of a designed system.
///
/// Routers are synthesised at the configured operating frequency with
/// their real arities; NI areas use the per-NI connection counts of the
/// specification; link stages are included per `link_pipeline_stages`.
/// Power uses the measured per-link slot occupancy of the allocation.
fn estimate_cost(system: &AeliteSystem, fifo: FifoKind) -> SystemCost {
    let spec = system.spec();
    let cfg = spec.config();
    let topo = spec.topology();
    let f_mhz = cfg.frequency_mhz as f64;

    let mut routers_um2 = 0.0;
    let mut power_mw = 0.0;
    for r in topo.routers() {
        let arity = topo.arity(r) as u32;
        let p = RouterParams {
            arity_in: arity,
            arity_out: arity,
            width_bits: cfg.data_width_bits,
        };
        let area = synthesize(&p, f_mhz).area_um2;
        routers_um2 += area;
        // Mean output-link occupancy drives data-path power.
        let arity_f = f64::from(arity);
        let mut util = 0.0;
        for port in 0..arity {
            if let Some(link) = topo.out_link(r, Port(port as u8)) {
                util += system.allocation().link_table(link).utilisation() / arity_f;
            }
        }
        power_mw += router_power(area, f_mhz, util.min(1.0), SleepMode::AlwaysOn).total_mw();
    }

    let link_stages_um2 = if cfg.link_pipeline_stages > 0 {
        f64::from(cfg.link_pipeline_stages)
            * topo.link_count() as f64
            * link_stage_area_um2(fifo, cfg.data_width_bits)
    } else {
        0.0
    };

    let mut nis_um2 = 0.0;
    for ni in topo.nis() {
        let conns = spec
            .connections()
            .iter()
            .filter(|c| spec.ip_ni(c.src) == ni || spec.ip_ni(c.dst) == ni)
            .count() as u32;
        if conns > 0 {
            let area = ni_area_um2(
                conns,
                cfg.ni_buffer_words,
                cfg.data_width_bits,
                cfg.slot_table_size,
            );
            nis_um2 += area;
            power_mw += component_power(area, f_mhz, 0.2).total_mw();
        }
    }

    SystemCost {
        routers_um2,
        link_stages_um2,
        nis_um2,
        power_mw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_spec::generate::paper_workload;

    fn paper_system() -> AeliteSystem {
        AeliteSystem::design(paper_workload(42)).expect("designs")
    }

    #[test]
    fn paper_platform_cost_is_plausible() {
        let system = paper_system();
        let cost = estimate_cost(&system, FifoKind::Custom);
        // 12 routers of ~15-25 kum2 plus 48 NIs: NIs dominate — the
        // Æthereal-family cost structure.
        assert!(cost.routers_um2 > 150_000.0 && cost.routers_um2 < 400_000.0);
        // NIs dominate by a wide margin (48 NIs of ~0.13 mm² — consistent
        // with published Æthereal NI figures).
        assert!(cost.nis_um2 > 10.0 * cost.routers_um2, "{cost}");
        assert_eq!(cost.link_stages_um2, 0.0, "synchronous config");
        assert!(cost.total_mm2() > 1.0 && cost.total_mm2() < 12.0, "{cost}");
        assert!(cost.power_mw > 100.0 && cost.power_mw < 10_000.0);
    }

    #[test]
    fn mesochronous_config_adds_link_stage_area() {
        // Same platform, mesochronous configuration.
        let spec = aelite_spec::generate::random_workload(
            aelite_spec::topology::Topology::mesh(2, 2, 1),
            aelite_spec::config::NocConfig::paper_mesochronous(),
            aelite_spec::generate::WorkloadParams {
                apps: 1,
                connections: 4,
                ips: 4,
                bw_min_mb: 5,
                bw_max_mb: 50,
                lat_min_ns: 200,
                lat_max_ns: 900,
                message_bytes: 16,
                ni_load_cap: 0.5,
            },
            3,
        );
        let system = AeliteSystem::design(spec).expect("designs");
        let cost = estimate_cost(&system, FifoKind::Custom);
        assert!(cost.link_stages_um2 > 0.0, "{cost}");
        // 24 links x ~2.5 kum2.
        assert!(cost.link_stages_um2 > 20_000.0);
    }

    #[test]
    fn display_summarises_cost() {
        let system = paper_system();
        let text = estimate_cost(&system, FifoKind::Custom).to_string();
        assert!(text.contains("mm2") && text.contains("mW"), "{text}");
    }
}
