//! Experiment F6b — regenerates **Fig 6(b)**: total cell area and maximum
//! frequency for data widths 32–256 bits at arity 6, synthesised for
//! maximum frequency.
//!
//! Paper shape: "the area grows linearly with the word width while the
//! operating frequency is reduced, also with a linear trend."

use aelite::report::{check, header, row};
use aelite_synth::router::{router_max_frequency_mhz, synthesize_max, RouterParams};

fn main() {
    header(
        "Fig 6(b): width sweep (arity-6, max-frequency synthesis, 90 nm)",
        &["width (bits)", "cell area (um2)", "max frequency (MHz)"],
    );
    let widths: Vec<u32> = (1..=8).map(|k| k * 32).collect();
    let mut areas = Vec::new();
    let mut freqs = Vec::new();
    for &w in &widths {
        let p = RouterParams::symmetric(6, w);
        let r = synthesize_max(&p);
        let f = router_max_frequency_mhz(&p);
        areas.push(r.area_um2);
        freqs.push(f);
        row(&[
            format!("{w}"),
            format!("{:.0}", r.area_um2),
            format!("{f:.0}"),
        ]);
    }

    // Linearity of area: the increment per 32 bits is near-constant.
    let increments: Vec<f64> = areas.windows(2).map(|w| w[1] - w[0]).collect();
    let (imin, imax) = increments
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    check(
        "area grows linearly with width",
        imax / imin < 1.05,
        format!("per-32-bit increment {imin:.0}..{imax:.0} um2"),
    );
    // Linearity of frequency decline: delay grows linearly, so check the
    // frequency endpoints against the figure's axis and monotonicity.
    check(
        "frequency declines monotonically with width",
        freqs.windows(2).all(|w| w[1] < w[0]),
        format!("{:.0} -> {:.0} MHz", freqs[0], freqs[7]),
    );
    check(
        "frequency range matches the figure's axis (~740-880 MHz)",
        (760.0..900.0).contains(&freqs[0]) && (640.0..790.0).contains(&freqs[7]),
        format!("{:.0} / {:.0} MHz", freqs[0], freqs[7]),
    );
    check(
        "256-bit router stays feasible (massive throughput at low cost)",
        areas[7] < 180_000.0,
        format!("{:.0} um2", areas[7]),
    );
    println!("\nfig6b_width_sweep: all reproduction checks passed");
}
