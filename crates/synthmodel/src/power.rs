//! First-order power model and the paper's sleep-mode future work.
//!
//! The paper notes as a limitation (Section VI-A): "the aelite NoC, in its
//! current form, consumes power while idling. The power consumption is
//! reduced by moving to a completely asynchronous implementation \[15\],
//! or by introducing sleep modes for individual routers. We consider the
//! latter ... future work." This module implements that future-work
//! direction as an analytical model, so the trade-off can be explored
//! (see the ablation bench).
//!
//! The model is a standard three-term decomposition for a low-power 90 nm
//! process; the paper reports no power numbers, so the constants are
//! representative rather than calibrated (shapes and ratios are
//! meaningful, absolute mW are indicative):
//!
//! * **leakage** — proportional to cell area, frequency-independent;
//! * **clock/register power** — proportional to area × frequency; burned
//!   whenever the clock toggles, *even when idle* — the cost the paper
//!   calls out;
//! * **data-path switching** — proportional to area × frequency ×
//!   utilisation (fraction of cycles moving real words).

/// Representative leakage density for 90 nm LP, mW per µm².
const LEAK_MW_PER_UM2: f64 = 2.0e-5;
/// Clock-tree + register switching, mW per µm² per MHz.
const CLK_MW_PER_UM2_MHZ: f64 = 1.0e-6;
/// Data-path switching at 100% utilisation, mW per µm² per MHz.
const DATA_MW_PER_UM2_MHZ: f64 = 0.5e-6;

/// Power breakdown of one component, in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Leakage (always on).
    pub leakage_mw: f64,
    /// Clock and register power (on whenever the clock runs).
    pub clock_mw: f64,
    /// Data-dependent switching power.
    pub data_mw: f64,
}

impl PowerBreakdown {
    /// Total power in milliwatts.
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.leakage_mw + self.clock_mw + self.data_mw
    }
}

/// Power of a component of `area_um2` cell area clocked at `f_mhz` with
/// the given data-path `utilisation` (0 = idle, 1 = every cycle busy).
///
/// # Panics
///
/// Panics if `utilisation` is outside `[0, 1]` or any input is negative.
#[must_use]
pub fn component_power(area_um2: f64, f_mhz: f64, utilisation: f64) -> PowerBreakdown {
    assert!(
        (0.0..=1.0).contains(&utilisation),
        "utilisation {utilisation} out of [0, 1]"
    );
    assert!(area_um2 >= 0.0 && f_mhz >= 0.0, "negative inputs");
    PowerBreakdown {
        leakage_mw: area_um2 * LEAK_MW_PER_UM2,
        clock_mw: area_um2 * f_mhz * CLK_MW_PER_UM2_MHZ,
        data_mw: area_um2 * f_mhz * DATA_MW_PER_UM2_MHZ * utilisation,
    }
}

/// Sleep-mode policy for idle routers (the paper's future-work knob).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SleepMode {
    /// The paper's current form: clocks run continuously.
    AlwaysOn,
    /// Clock-gate a router during slots where its tables are idle:
    /// clock power scales with the router's slot occupancy, plus a small
    /// wake overhead fraction.
    ClockGated {
        /// Extra clock activity for wake-up/synchronisation, as a
        /// fraction of full clock power (e.g. `0.05`).
        wake_overhead: f64,
    },
}

/// Power of one router under a sleep policy.
///
/// `occupancy` is the fraction of slots in which any of the router's
/// links carries a reservation — exactly what a TDM schedule knows at
/// design time, which is what makes clock gating attractive here: the
/// gating schedule is static and interferes with nothing.
///
/// # Panics
///
/// Panics if `occupancy` is outside `[0, 1]`.
#[must_use]
pub fn router_power(area_um2: f64, f_mhz: f64, occupancy: f64, mode: SleepMode) -> PowerBreakdown {
    assert!(
        (0.0..=1.0).contains(&occupancy),
        "occupancy {occupancy} out of [0, 1]"
    );
    let base = component_power(area_um2, f_mhz, occupancy);
    match mode {
        SleepMode::AlwaysOn => base,
        SleepMode::ClockGated { wake_overhead } => {
            assert!(
                (0.0..=1.0).contains(&wake_overhead),
                "wake overhead out of [0, 1]"
            );
            let gated_clock = base.clock_mw * (occupancy + wake_overhead).min(1.0);
            PowerBreakdown {
                clock_mw: gated_clock,
                ..base
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_router_still_burns_clock_power_when_always_on() {
        // The paper's limitation: idle != free.
        let p = router_power(14_300.0, 500.0, 0.0, SleepMode::AlwaysOn);
        assert!(p.clock_mw > 5.0, "clock power {} mW", p.clock_mw);
        assert_eq!(p.data_mw, 0.0);
        assert!(p.total_mw() > p.leakage_mw);
    }

    #[test]
    fn clock_gating_saves_most_idle_power() {
        let on = router_power(14_300.0, 500.0, 0.1, SleepMode::AlwaysOn);
        let gated = router_power(
            14_300.0,
            500.0,
            0.1,
            SleepMode::ClockGated {
                wake_overhead: 0.05,
            },
        );
        assert!(gated.total_mw() < on.total_mw());
        // At 10% occupancy the gated clock burns ~15% of the always-on
        // clock power.
        let ratio = gated.clock_mw / on.clock_mw;
        assert!((ratio - 0.15).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn gating_never_helps_a_fully_busy_router() {
        let on = router_power(10_000.0, 500.0, 1.0, SleepMode::AlwaysOn);
        let gated = router_power(
            10_000.0,
            500.0,
            1.0,
            SleepMode::ClockGated {
                wake_overhead: 0.05,
            },
        );
        assert!((gated.total_mw() - on.total_mw()).abs() < 1e-9);
    }

    #[test]
    fn power_scales_with_area_and_frequency() {
        let small = component_power(10_000.0, 500.0, 0.5);
        let big = component_power(20_000.0, 500.0, 0.5);
        let fast = component_power(10_000.0, 1_000.0, 0.5);
        assert!((big.total_mw() / small.total_mw() - 2.0).abs() < 1e-9);
        assert!(fast.clock_mw > small.clock_mw);
        assert_eq!(fast.leakage_mw, small.leakage_mw);
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn utilisation_validated() {
        let _ = component_power(1.0, 1.0, 1.5);
    }

    #[test]
    fn realistic_router_magnitude() {
        // Sanity: a busy arity-5 router at 500 MHz lands in the single-
        // digit-mW range typical for 90 nm LP NoC routers.
        let p = router_power(14_300.0, 500.0, 0.5, SleepMode::AlwaysOn);
        assert!(
            (5.0..20.0).contains(&p.total_mw()),
            "{} mW out of the plausible range",
            p.total_mw()
        );
    }
}
