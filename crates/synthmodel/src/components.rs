//! Area models for the non-router components: bi-synchronous FIFOs, the
//! mesochronous link pipeline stage, and the complete router-with-links.
//!
//! Calibration anchors from the paper (Section VII):
//!
//! * 4-word bi-sync FIFO: ~1,500 µm² with the custom design of \[18\],
//!   ~3,300 µm² with the non-custom design of \[4\] (32-bit words);
//! * a complete arity-5 router with mesochronous links is ~0.032 mm².

use crate::router::{synthesize_max, RouterParams};

/// The bi-synchronous FIFO implementation variants the paper prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FifoKind {
    /// The custom, area-efficient embedded FIFO of Wielage et al. \[18\].
    Custom,
    /// The standard-cell FIFO of Miro Panades et al. \[4\].
    StandardCell,
}

/// Cell area of a bi-synchronous FIFO, µm² at 90 nm.
///
/// Storage scales with `words * width_bits`; the synchroniser/pointer
/// overhead is per-FIFO. Calibrated so that a 4-word, 32-bit FIFO costs
/// 1,500 µm² (custom) or 3,300 µm² (standard cell), the paper's figures.
///
/// # Panics
///
/// Panics if `words` or `width_bits` is zero.
#[must_use]
pub fn bisync_fifo_area_um2(kind: FifoKind, words: u32, width_bits: u32) -> f64 {
    assert!(words > 0 && width_bits > 0, "FIFO must have storage");
    let bits = f64::from(words) * f64::from(width_bits);
    match kind {
        // 1500 = overhead + 128 bits * per-bit  =>  300 + 128 * 9.375
        FifoKind::Custom => 300.0 + bits * 9.375,
        // 3300 = 500 + 128 * 21.875
        FifoKind::StandardCell => 500.0 + bits * 21.875,
    }
}

/// Cell area of the flit-cycle re-aligning FSM of a link pipeline stage
/// (state counter + valid/accept control), µm² at 90 nm.
#[must_use]
pub(crate) fn meso_fsm_area_um2() -> f64 {
    200.0
}

/// Cell area of one complete mesochronous link pipeline stage: the
/// source-synchronous capture register, the 4-word bi-sync FIFO and the
/// FSM (paper Fig 3), µm² at 90 nm.
#[must_use]
pub fn link_stage_area_um2(kind: FifoKind, width_bits: u32) -> f64 {
    let capture_reg = f64::from(width_bits) * 25.0;
    bisync_fifo_area_um2(kind, 4, width_bits) + meso_fsm_area_um2() + capture_reg
}

/// Cell area of a network interface, µm² at 90 nm.
///
/// NIs dominate Æthereal-family NoC area because they hold the
/// per-connection buffering: two FIFOs (request/response) of
/// `buffer_words` words per connection, the TDM slot table, and the
/// packetisation/credit control. Storage is priced at the custom-FIFO
/// bit density of \[18\]; the paper reports no NI figure, so this model
/// is indicative (used for whole-system cost comparisons, not calibrated
/// claims).
///
/// # Panics
///
/// Panics if any parameter is zero.
#[must_use]
pub fn ni_area_um2(
    connections: u32,
    buffer_words: u32,
    width_bits: u32,
    slot_table_size: u32,
) -> f64 {
    assert!(
        connections > 0 && buffer_words > 0 && width_bits > 0 && slot_table_size > 0,
        "NI parameters must be non-zero"
    );
    let bits_per_fifo = f64::from(buffer_words) * f64::from(width_bits);
    let buffers = f64::from(connections) * 2.0 * (300.0 + bits_per_fifo * 9.375);
    // Slot table: one connection-id entry (8 bits) per slot, flop-based.
    let table = f64::from(slot_table_size) * 8.0 * 25.0 / 8.0;
    // Packetisation FSM, credit counters and IP-side bi-sync FIFO.
    let control = 2_000.0 + f64::from(connections) * 250.0;
    buffers + table + control
}

/// Cell area of a complete router with one mesochronous pipeline stage on
/// each input link, µm² at 90 nm, synthesised at maximum frequency.
///
/// The paper: "For an arity-5 router with mesochronous links the complete
/// router with links is in the order of 0.032 mm²."
#[must_use]
pub fn router_with_links_area_um2(p: &RouterParams, kind: FifoKind) -> f64 {
    synthesize_max(p).area_um2 + f64::from(p.arity_in) * link_stage_area_um2(kind, p.width_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_areas_match_paper_anchors() {
        let custom = bisync_fifo_area_um2(FifoKind::Custom, 4, 32);
        assert!((custom - 1_500.0).abs() < 1.0, "{custom}");
        let std_cell = bisync_fifo_area_um2(FifoKind::StandardCell, 4, 32);
        assert!((std_cell - 3_300.0).abs() < 1.0, "{std_cell}");
    }

    #[test]
    fn fifo_area_scales_with_storage() {
        let a4 = bisync_fifo_area_um2(FifoKind::Custom, 4, 32);
        let a8 = bisync_fifo_area_um2(FifoKind::Custom, 8, 32);
        let a4w64 = bisync_fifo_area_um2(FifoKind::Custom, 4, 64);
        assert!(a8 > a4);
        assert!(
            (a8 - a4 - (a4w64 - a4)).abs() < 1e-9,
            "words and width symmetric"
        );
    }

    #[test]
    fn complete_arity5_router_with_links_near_paper_figure() {
        // ~0.032 mm² with custom FIFOs.
        let p = RouterParams::paper_reference();
        let a = router_with_links_area_um2(&p, FifoKind::Custom);
        assert!(
            (29_000.0..35_000.0).contains(&a),
            "router+links {a} µm² vs paper ~32,000"
        );
    }

    #[test]
    fn standard_cell_fifos_cost_more() {
        let p = RouterParams::paper_reference();
        let custom = router_with_links_area_um2(&p, FifoKind::Custom);
        let std_cell = router_with_links_area_um2(&p, FifoKind::StandardCell);
        assert!(std_cell > custom + 5.0 * 1_500.0);
    }

    #[test]
    #[should_panic(expected = "storage")]
    fn zero_word_fifo_rejected() {
        let _ = bisync_fifo_area_um2(FifoKind::Custom, 0, 32);
    }

    #[test]
    fn ni_area_scales_with_connections() {
        let one = ni_area_um2(1, 24, 32, 64);
        let four = ni_area_um2(4, 24, 32, 64);
        assert!(four > 3.0 * one - 3_000.0, "{one} vs {four}");
        // NIs with several connections dwarf the router — the known
        // Æthereal-family cost structure.
        assert!(four > 14_000.0, "{four}");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn ni_zero_conns_rejected() {
        let _ = ni_area_um2(0, 24, 32, 64);
    }
}
