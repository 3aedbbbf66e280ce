//! Technology nodes and first-order scaling.
//!
//! The paper reports aelite numbers in a 90 nm low-power CMOS technology
//! and compares against designs published in 130 nm, "scaled from 130 nm".
//! This module provides the classical constant-field scaling used for such
//! comparisons: area scales with the square of the feature-size ratio,
//! achievable frequency inversely with it.

use core::fmt;

/// A CMOS technology node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TechNode {
    nm: u32,
}

impl TechNode {
    /// The paper's 90 nm low-power node.
    pub const NM90: TechNode = TechNode { nm: 90 };
    /// The 130 nm node of the original Æthereal results.
    pub const NM130: TechNode = TechNode { nm: 130 };
    /// The 65 nm node referenced for post-layout derating \[12\].
    pub const NM65: TechNode = TechNode { nm: 65 };

    /// An arbitrary node.
    ///
    /// # Panics
    ///
    /// Panics if `nm` is zero.
    #[must_use]
    pub const fn new(nm: u32) -> Self {
        assert!(nm > 0, "feature size must be non-zero");
        TechNode { nm }
    }

    /// Scales an area from `self` to `target`: `area * (target/self)^2`.
    #[must_use]
    pub(crate) fn scale_area_um2(self, area_um2: f64, target: TechNode) -> f64 {
        let r = f64::from(target.nm) / f64::from(self.nm);
        area_um2 * r * r
    }

    /// Scales a frequency from `self` to `target`: `f * (self/target)`.
    #[must_use]
    pub(crate) fn scale_frequency_mhz(self, f_mhz: f64, target: TechNode) -> f64 {
        f_mhz * f64::from(self.nm) / f64::from(target.nm)
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} nm", self.nm)
    }
}

/// Post-layout derating noted in the paper: "a utilisation higher than 85%
/// is difficult to achieve and frequency reductions of up to 30% are
/// reported in \[12\]".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutDerate {
    /// Cell-area utilisation achievable after placement (≤ 1).
    pub utilisation: f64,
    /// Fraction of the pre-layout frequency retained (≤ 1).
    pub frequency_retention: f64,
}

impl LayoutDerate {
    /// The paper's quoted figures: 85% utilisation, up to 30% slower.
    #[must_use]
    pub const fn paper() -> Self {
        LayoutDerate {
            utilisation: 0.85,
            frequency_retention: 0.70,
        }
    }

    /// Post-layout silicon area for a given cell area.
    #[must_use]
    pub fn layout_area_um2(&self, cell_area_um2: f64) -> f64 {
        cell_area_um2 / self.utilisation
    }

    /// Post-layout frequency for a given pre-layout frequency.
    #[must_use]
    pub fn layout_frequency_mhz(&self, f_mhz: f64) -> f64 {
        f_mhz * self.frequency_retention
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_scaling_is_quadratic() {
        let a130 = 130_000.0;
        let a90 = TechNode::NM130.scale_area_um2(a130, TechNode::NM90);
        let ratio = a90 / a130;
        let expect = (90.0f64 / 130.0).powi(2);
        assert!((ratio - expect).abs() < 1e-12);
    }

    #[test]
    fn frequency_scaling_is_linear() {
        let f = TechNode::NM130.scale_frequency_mhz(500.0, TechNode::NM90);
        assert!((f - 500.0 * 130.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_round_trips() {
        let a = TechNode::NM90.scale_area_um2(
            TechNode::NM130.scale_area_um2(1234.5, TechNode::NM90),
            TechNode::NM130,
        );
        assert!((a - 1234.5).abs() < 1e-9);
    }

    #[test]
    fn identity_scaling() {
        assert_eq!(TechNode::NM90.scale_area_um2(100.0, TechNode::NM90), 100.0);
    }

    #[test]
    fn derate_matches_paper_quotes() {
        let d = LayoutDerate::paper();
        assert!((d.layout_area_um2(85.0) - 100.0).abs() < 1e-9);
        assert!((d.layout_frequency_mhz(1000.0) - 700.0).abs() < 1e-9);
    }

    #[test]
    fn display_shows_nm() {
        assert_eq!(TechNode::NM90.to_string(), "90 nm");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_node_rejected() {
        let _ = TechNode::new(0);
    }
}
