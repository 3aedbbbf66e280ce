//! Experiment F5 — regenerates **Fig 5**: cell area vs target frequency
//! for the arity-5, 32-bit aelite router (90 nm, pre-layout).
//!
//! Paper shape to reproduce: area < 0.015 mm² up to 650 MHz, a knee after
//! ~750 MHz, saturation around 875 MHz at ~17.9 kµm².

use aelite::report::{check, header, row};
use aelite_synth::router::{router_max_frequency_mhz, synthesize, RouterParams};

fn main() {
    let p = RouterParams::paper_reference();
    header(
        "Fig 5: frequency/area trade-off (arity-5, 32-bit, 90 nm)",
        &["target (MHz)", "achieved (MHz)", "cell area (um2)", "met"],
    );
    let mut series = Vec::new();
    for target in (500..=900).step_by(25) {
        let r = synthesize(&p, f64::from(target));
        series.push((target, r));
        row(&[
            format!("{target}"),
            format!("{:.0}", r.achieved_mhz),
            format!("{:.0}", r.area_um2),
            format!("{}", r.met_target),
        ]);
    }

    // Paper-vs-measured checks.
    let at = |mhz: u32| {
        series
            .iter()
            .find(|(t, _)| *t == mhz)
            .map(|(_, r)| *r)
            .expect("swept")
    };
    check(
        "area < 0.015 mm2 up to 650 MHz (paper: 'less than 0.015 mm2')",
        (500..=650).step_by(25).all(|f| at(f).area_um2 < 15_000.0),
        format!("650 MHz -> {:.0} um2", at(650).area_um2),
    );
    let fmax = router_max_frequency_mhz(&p);
    check(
        "saturation near 875 MHz (paper: 'saturates around 875 MHz')",
        (860.0..=890.0).contains(&fmax),
        format!("f_max = {fmax:.0} MHz"),
    );
    let steep = at(850).area_um2 - at(800).area_um2;
    let flat = at(700).area_um2 - at(650).area_um2;
    check(
        "area grows steeply after 750 MHz (paper: 'grows steeply after 750 MHz')",
        steep > 3.0 * flat.max(1.0),
        format!("slope 800-850: {steep:.0} um2 vs 650-700: {flat:.0} um2"),
    );
    check(
        "saturated area ~17.9 kum2",
        (17_000.0..18_500.0).contains(&at(900).area_um2),
        format!("{:.0} um2", at(900).area_um2),
    );
    println!("\nfig5_freq_area: all reproduction checks passed");
}
