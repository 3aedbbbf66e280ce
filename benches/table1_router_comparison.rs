//! Experiment T1 — regenerates the in-text comparison of Section VII:
//!
//! * aelite vs the combined GS+BE Æthereal router: "roughly 5× smaller
//!   area and 1.5× the frequency for the same 90 nm technology";
//! * bi-synchronous FIFO areas: ~1,500 µm² (custom \[18\]) vs ~3,300 µm²
//!   (standard cell \[4\]);
//! * complete arity-5 router with mesochronous links ~0.032 mm², vs the
//!   mesochronous router of \[4\] (0.082 mm²) and the asynchronous router
//!   of \[7\] (0.12 mm² scaled), both limited to two service levels and
//!   no composability.

use aelite::report::{check, header, row};
use aelite_synth::compare::{comparison_table, GsBeComparison};
use aelite_synth::components::{bisync_fifo_area_um2, router_with_links_area_um2, FifoKind};
use aelite_synth::router::RouterParams;

fn main() {
    let p = RouterParams::paper_reference();

    // --- GS-only vs combined GS+BE -------------------------------------
    let cmp = GsBeComparison::for_params(&p);
    header(
        "aelite (GS-only) vs Aethereal (GS+BE), 90 nm",
        &["design", "area (um2)", "frequency (MHz)"],
    );
    row(&[
        "aelite arity-5".to_string(),
        format!("{:.0}", cmp.aelite_area_um2),
        format!("{:.0}", cmp.aelite_frequency_mhz),
    ]);
    row(&[
        "Aethereal GS+BE (scaled from 130 nm)".to_string(),
        format!("{:.0}", cmp.aethereal_area_um2),
        format!("{:.0}", cmp.aethereal_frequency_mhz),
    ]);
    check(
        "area ratio roughly 5x (paper: 'roughly 5x smaller area')",
        (4.0..6.0).contains(&cmp.area_ratio()),
        format!("{:.2}x", cmp.area_ratio()),
    );
    check(
        "frequency ratio ~1.5x (paper: '1.5x the frequency')",
        (1.15..1.6).contains(&cmp.frequency_ratio()),
        format!("{:.2}x", cmp.frequency_ratio()),
    );

    // --- FIFO areas ------------------------------------------------------
    header(
        "bi-synchronous FIFO cell area (4 words, 32-bit)",
        &["implementation", "area (um2)", "paper"],
    );
    let custom = bisync_fifo_area_um2(FifoKind::Custom, 4, 32);
    let std_cell = bisync_fifo_area_um2(FifoKind::StandardCell, 4, 32);
    row(&[
        "custom [18]".to_string(),
        format!("{custom:.0}"),
        "~1500".into(),
    ]);
    row(&[
        "standard cell [4]".to_string(),
        format!("{std_cell:.0}"),
        "~3300".into(),
    ]);
    check(
        "custom FIFO ~1.5 kum2",
        (custom - 1_500.0).abs() < 50.0,
        format!("{custom:.0} um2"),
    );
    check(
        "standard-cell FIFO ~3.3 kum2",
        (std_cell - 3_300.0).abs() < 100.0,
        format!("{std_cell:.0} um2"),
    );

    // --- Complete router with links vs published designs ----------------
    header(
        "complete router with mesochronous links, 90 nm",
        &["design", "area (um2)", "service levels", "composable"],
    );
    for r in comparison_table(&p) {
        row(&[
            r.name.clone(),
            format!("{:.0}", r.area_um2),
            if r.service_levels == u32::MAX {
                "unbounded".to_string()
            } else {
                r.service_levels.to_string()
            },
            r.composable.to_string(),
        ]);
    }
    let aelite_links = router_with_links_area_um2(&p, FifoKind::Custom);
    check(
        "aelite router+links ~0.032 mm2",
        (29_000.0..35_000.0).contains(&aelite_links),
        format!("{aelite_links:.0} um2"),
    );
    check(
        "aelite beats [4] (0.082 mm2) by >2x",
        aelite_links * 2.0 < 82_000.0,
        format!("{:.2}x smaller", 82_000.0 / aelite_links),
    );
    check(
        "aelite beats [7] (0.12 mm2 scaled) by >3x",
        aelite_links * 3.0 < 120_000.0,
        format!("{:.2}x smaller", 120_000.0 / aelite_links),
    );
    println!("\ntable1_router_comparison: all reproduction checks passed");
}
