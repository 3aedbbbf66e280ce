//! Experiment F6a — regenerates **Fig 6(a)**: total cell area and maximum
//! frequency for router arities 2–7 at 32-bit width, synthesised for
//! maximum frequency.
//!
//! Paper shape: area grows roughly linearly with arity (despite the
//! multiplexer tree); maximum frequency declines with arity.

use aelite::report::{check, header, row};
use aelite_synth::router::{router_max_frequency_mhz, synthesize_max, RouterParams};

fn main() {
    header(
        "Fig 6(a): arity sweep (32-bit, max-frequency synthesis, 90 nm)",
        &["arity", "cell area (um2)", "max frequency (MHz)"],
    );
    let mut areas = Vec::new();
    let mut freqs = Vec::new();
    for arity in 2..=7u32 {
        let p = RouterParams::symmetric(arity, 32);
        let r = synthesize_max(&p);
        let f = router_max_frequency_mhz(&p);
        areas.push(r.area_um2);
        freqs.push(f);
        row(&[
            format!("{arity}"),
            format!("{:.0}", r.area_um2),
            format!("{f:.0}"),
        ]);
    }

    check(
        "area increases with arity",
        areas.windows(2).all(|w| w[1] > w[0]),
        format!("{:.0} .. {:.0} um2", areas[0], areas[5]),
    );
    // "roughly linearly": successive increments never double.
    let roughly_linear = areas
        .windows(3)
        .all(|w| (w[2] - w[1]) < 1.9 * (w[1] - w[0]));
    check(
        "area grows roughly linearly despite the mux tree",
        roughly_linear,
        format!(
            "increments: {:?}",
            areas
                .windows(2)
                .map(|w| format!("{:.0}", w[1] - w[0]))
                .collect::<Vec<_>>()
        ),
    );
    check(
        "maximum frequency declines with arity",
        freqs.windows(2).all(|w| w[1] <= w[0]),
        format!(
            "{:.0} MHz (arity 2) .. {:.0} MHz (arity 7)",
            freqs[0], freqs[5]
        ),
    );
    check(
        "frequency range matches the figure's axis (~850-1300 MHz)",
        freqs[0] > 1_150.0 && freqs[5] > 750.0,
        format!("{:.0} / {:.0} MHz", freqs[0], freqs[5]),
    );
    println!("\nfig6a_arity_sweep: all reproduction checks passed");
}
