//! Published comparison points: the combined GS+BE Æthereal router and
//! the mesochronous/asynchronous routers the paper compares against.
//!
//! These models regenerate the in-text comparison of Section VII:
//!
//! * Æthereal combined GS+BE router: 0.13 mm² at 500 MHz in 130 nm \[8\];
//!   against aelite in the same 90 nm technology the difference is
//!   "roughly 5× smaller area and 1.5× the frequency";
//! * the mesochronous router of \[4\]: 0.082 mm²;
//! * the asynchronous router of \[7\]: 0.12 mm² (scaled from 130 nm);
//!   both offering only two service levels and no composability.

use crate::components::{router_with_links_area_um2, FifoKind};
use crate::router::{router_max_frequency_mhz, RouterParams};
use crate::tech::TechNode;

/// The published Æthereal combined GS+BE router result \[8\].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublishedRouter {
    /// Design name for reports.
    pub name: &'static str,
    /// Cell area in µm², in `node`.
    pub area_um2: f64,
    /// Operating frequency in MHz, in `node`.
    pub frequency_mhz: f64,
    /// The node the numbers were reported in.
    pub node: TechNode,
    /// Service levels offered (GS/BE distinctions).
    pub service_levels: u32,
    /// Whether the design isolates applications completely.
    pub composable: bool,
}

/// Æthereal's combined GS+BE arity-5 router \[8\]: 0.13 mm², 500 MHz,
/// 130 nm.
#[must_use]
pub(crate) fn aethereal_gs_be() -> PublishedRouter {
    PublishedRouter {
        name: "Aethereal GS+BE [8]",
        area_um2: 130_000.0,
        frequency_mhz: 500.0,
        node: TechNode::NM130,
        service_levels: 2,
        composable: false,
    }
}

/// The mesochronous router of Miro Panades et al. \[4\]: 0.082 mm² (as
/// published; two service levels, no composability).
#[must_use]
pub(crate) fn panades_mesochronous() -> PublishedRouter {
    PublishedRouter {
        name: "mesochronous router [4]",
        area_um2: 82_000.0,
        frequency_mhz: 500.0,
        node: TechNode::NM90,
        service_levels: 2,
        composable: false,
    }
}

/// The asynchronous router of Beigne et al. \[7\]: 0.12 mm² scaled from
/// 130 nm (the paper quotes the scaled value).
#[must_use]
pub(crate) fn beigne_asynchronous() -> PublishedRouter {
    PublishedRouter {
        name: "asynchronous router [7]",
        area_um2: 120_000.0,
        frequency_mhz: 0.0, // asynchronous: no single clock figure
        node: TechNode::NM90,
        service_levels: 2,
        composable: false,
    }
}

impl PublishedRouter {
    /// Area scaled into `target` node.
    #[must_use]
    pub(crate) fn area_in(&self, target: TechNode) -> f64 {
        self.node.scale_area_um2(self.area_um2, target)
    }

    /// Frequency scaled into `target` node.
    #[must_use]
    pub(crate) fn frequency_in(&self, target: TechNode) -> f64 {
        self.node.scale_frequency_mhz(self.frequency_mhz, target)
    }
}

/// The Section VII comparison, computed: aelite's area and frequency
/// advantage over the combined GS+BE Æthereal router in the same 90 nm
/// technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GsBeComparison {
    /// aelite router cell area at relaxed timing, µm² (90 nm).
    pub aelite_area_um2: f64,
    /// aelite maximum frequency, MHz (90 nm).
    pub aelite_frequency_mhz: f64,
    /// Æthereal GS+BE area scaled to 90 nm, µm².
    pub aethereal_area_um2: f64,
    /// Æthereal GS+BE frequency scaled to 90 nm, MHz.
    pub aethereal_frequency_mhz: f64,
}

impl GsBeComparison {
    /// Computes the comparison for a router instance.
    #[must_use]
    pub fn for_params(p: &RouterParams) -> Self {
        let aeth = aethereal_gs_be();
        GsBeComparison {
            aelite_area_um2: crate::router::synthesize(p, 650.0).area_um2,
            aelite_frequency_mhz: router_max_frequency_mhz(p),
            aethereal_area_um2: aeth.area_in(TechNode::NM90),
            aethereal_frequency_mhz: aeth.frequency_in(TechNode::NM90),
        }
    }

    /// Area ratio (Æthereal / aelite) — the paper's "roughly 5×".
    #[must_use]
    pub fn area_ratio(&self) -> f64 {
        self.aethereal_area_um2 / self.aelite_area_um2
    }

    /// Frequency ratio (aelite / Æthereal) — the paper's "1.5×".
    #[must_use]
    pub fn frequency_ratio(&self) -> f64 {
        self.aelite_frequency_mhz / self.aethereal_frequency_mhz
    }
}

/// Row of the router-comparison table (experiment T1).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Design label.
    pub name: String,
    /// Cell area at 90 nm, µm².
    pub area_um2: f64,
    /// Service levels.
    pub service_levels: u32,
    /// Complete application isolation?
    pub composable: bool,
}

/// Builds the full comparison table of Section VII: aelite (router with
/// mesochronous links) against \[4\] and \[7\].
#[must_use]
pub fn comparison_table(p: &RouterParams) -> Vec<ComparisonRow> {
    let aelite = ComparisonRow {
        name: format!("aelite router + links ({p})"),
        area_um2: router_with_links_area_um2(p, FifoKind::Custom),
        service_levels: u32::MAX, // unbounded connections/service levels
        composable: true,
    };
    let rows = [panades_mesochronous(), beigne_asynchronous()];
    let mut table = vec![aelite];
    for r in rows {
        table.push(ComparisonRow {
            name: r.name.to_owned(),
            area_um2: r.area_in(TechNode::NM90),
            service_levels: r.service_levels,
            composable: r.composable,
        });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gs_be_comparison_matches_paper_ratios() {
        // "In aelite the difference is roughly 5× smaller area and 1.5×
        // the frequency for the same 90 nm technology."
        let cmp = GsBeComparison::for_params(&RouterParams::paper_reference());
        let area = cmp.area_ratio();
        assert!(
            (4.0..6.0).contains(&area),
            "area ratio {area} not 'roughly 5x'"
        );
        let freq = cmp.frequency_ratio();
        assert!(
            (1.15..1.6).contains(&freq),
            "frequency ratio {freq} not 'roughly 1.5x'"
        );
    }

    #[test]
    fn aelite_with_links_beats_published_competitors() {
        // 0.032 mm² vs 0.082 mm² [4] and 0.12 mm² [7].
        let table = comparison_table(&RouterParams::paper_reference());
        assert_eq!(table.len(), 3);
        let aelite = &table[0];
        for other in &table[1..] {
            assert!(
                aelite.area_um2 < other.area_um2 / 2.0,
                "{} ({}) vs {} ({})",
                aelite.name,
                aelite.area_um2,
                other.name,
                other.area_um2
            );
            assert!(!other.composable);
        }
        assert!(aelite.composable);
    }

    #[test]
    fn published_numbers_scale() {
        let aeth = aethereal_gs_be();
        let a90 = aeth.area_in(TechNode::NM90);
        assert!((a90 - 130_000.0 * (90.0f64 / 130.0).powi(2)).abs() < 1.0);
        let f90 = aeth.frequency_in(TechNode::NM90);
        assert!((f90 - 500.0 * 130.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn beigne_is_already_scaled() {
        assert_eq!(beigne_asynchronous().area_in(TechNode::NM90), 120_000.0);
    }
}
