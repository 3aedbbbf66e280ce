//! Experiment E200 — the paper's Section VII simulation: 200 connections,
//! 4 applications, 70 IPs on a 4×3 concentrated mesh (4 NIs per router).
//!
//! Paper claims to reproduce (shape, not absolute numbers):
//!
//! 1. aelite GS satisfies **every** throughput and latency requirement at
//!    500 MHz, with zero inter-connection interference;
//! 2. replacing GS with Æthereal best effort (same platform, same
//!    workload) loses composability; average latency is lower for most
//!    connections but the distribution is much wider and maxima grow
//!    significantly;
//! 3. the BE network needs an operating frequency well above 500 MHz
//!    (paper: "more than 900 MHz") before every latency requirement is
//!    observed to hold. The sweep runs to 8 000 MHz and the check
//!    requires a found frequency; seed 42 first meets every contract at
//!    6 000 MHz, a divergence from the paper that is not yet explained.

use aelite::analysis::service::{minimum_satisfying_frequency, verify_service};
use aelite::analysis::stats::Summary;
use aelite::report::{check, header, row};
use aelite::{measured_services_be, AeliteSystem, SimOptions};
use aelite_noc::baseline::{BeConfig, BeSim};
use aelite_spec::generate::paper_workload;

const SEED: u64 = 42;
const DURATION: u64 = 120_000;

fn main() {
    let spec = paper_workload(SEED);
    let system = AeliteSystem::design(spec.clone()).expect("paper workload allocates");

    // ---- GS at 500 MHz --------------------------------------------------
    let gs = system.simulate(SimOptions {
        duration_cycles: DURATION,
        ..SimOptions::default()
    });
    check(
        "GS meets all 200 contracts at 500 MHz",
        gs.service.all_ok(),
        format!(
            "{} verdicts, {} violations",
            gs.service.verdicts.len(),
            gs.service.violations().count()
        ),
    );

    // ---- BE on the same platform/workload -------------------------------
    let be_at = |mhz: u64| {
        let s = spec.at_frequency(mhz);
        let report = BeSim::new(&s).run(BeConfig {
            duration_cycles: DURATION,
            ..BeConfig::default()
        });
        let measured = measured_services_be(&report);
        (report, verify_service(&s, None, &measured, DURATION, 0.05))
    };
    let (be500, be500_service) = be_at(500);

    // Per-connection mean/max comparison at 500 MHz.
    let cycle_ns = spec.config().cycle_ns();
    let gs_means: Vec<f64> = gs
        .per_conn
        .iter()
        .filter_map(|(_, s)| s.mean_cycles())
        .map(|c| c * cycle_ns)
        .collect();
    let gs_maxes: Vec<f64> = gs
        .per_conn
        .iter()
        .map(|(_, s)| s.max_cycles as f64 * cycle_ns)
        .collect();
    let be_means: Vec<f64> = be500
        .per_conn
        .iter()
        .filter_map(|s| s.mean_latency())
        .map(|c| c * cycle_ns)
        .collect();
    let be_maxes: Vec<f64> = be500
        .per_conn
        .iter()
        .map(|s| s.max_latency as f64 * cycle_ns)
        .collect();
    let gs_mean = Summary::of(&gs_means).expect("gs data");
    let gs_max = Summary::of(&gs_maxes).expect("gs data");
    let be_mean = Summary::of(&be_means).expect("be data");
    let be_max = Summary::of(&be_maxes).expect("be data");

    header(
        "flit latency across 200 connections at 500 MHz (ns)",
        &[
            "network",
            "mean-of-means",
            "max-of-means",
            "mean-of-maxes",
            "max-of-maxes",
        ],
    );
    row(&[
        "aelite GS".to_string(),
        format!("{:.1}", gs_mean.mean),
        format!("{:.1}", gs_mean.max),
        format!("{:.1}", gs_max.mean),
        format!("{:.1}", gs_max.max),
    ]);
    row(&[
        "Aethereal BE".to_string(),
        format!("{:.1}", be_mean.mean),
        format!("{:.1}", be_mean.max),
        format!("{:.1}", be_max.mean),
        format!("{:.1}", be_max.max),
    ]);

    // Distribution histogram: the paper's "distribution of flit latencies
    // is much larger" — per-connection worst-case latency, GS vs BE.
    use aelite::analysis::stats::Histogram;
    let mut gs_hist = Histogram::new(0.0, 1_500.0, 10);
    let mut be_hist = Histogram::new(0.0, 1_500.0, 10);
    gs_hist.record_all(gs_maxes.iter().copied());
    be_hist.record_all(be_maxes.iter().copied());
    header(
        "per-connection worst flit latency distribution (ns)",
        &["bin", "GS connections", "BE connections"],
    );
    for ((lo, hi, g), (_, _, b)) in gs_hist.rows().zip(be_hist.rows()) {
        row(&[
            format!("{lo:>5.0}-{hi:<5.0}"),
            format!("{g:>4} {}", "#".repeat(g as usize / 2)),
            format!("{b:>4} {}", "#".repeat(b as usize / 2)),
        ]);
    }
    let (_, gs_over) = gs_hist.outliers();
    let (_, be_over) = be_hist.outliers();
    row(&[
        ">1500".to_string(),
        format!("{gs_over:>4}"),
        format!("{be_over:>4}"),
    ]);

    // "For most connections, the average latency observed with BE service
    // is lower than with GS."
    let lower_avg = gs
        .per_conn
        .iter()
        .zip(&be500.per_conn)
        .filter(|((_, g), b)| b.mean_latency().unwrap_or(f64::MAX) < g.mean_cycles().unwrap_or(0.0))
        .count();
    check(
        "most connections have lower average latency under BE",
        lower_avg * 2 > 200,
        format!("{lower_avg}/200"),
    );

    // "the distribution of flit latencies is much larger, and the maximum
    // latencies grow significantly"
    let wider = be_max.max / gs_max.max;
    check(
        "BE worst-case latency grows significantly vs GS",
        wider > 1.5,
        format!(
            "max-of-maxes {:.1} vs {:.1} ns ({wider:.2}x)",
            be_max.max, gs_max.max
        ),
    );
    check(
        "BE violates some latency contracts at 500 MHz",
        !be500_service.all_ok(),
        format!("{} violations", be500_service.violations().count()),
    );

    // ---- Frequency sweep: BE needs a much faster clock ------------------
    header(
        "BE frequency sweep: violations per frequency",
        &["frequency (MHz)", "latency violations", "all ok"],
    );
    let candidates = [
        500u64, 600, 700, 800, 900, 1000, 1100, 1200, 2000, 3000, 4000, 5000, 6000, 7000, 8000,
    ];
    let mut reports = Vec::new();
    for &f in &candidates {
        let (_, service) = be_at(f);
        let violations = service.violations().count();
        row(&[
            f.to_string(),
            violations.to_string(),
            service.all_ok().to_string(),
        ]);
        reports.push((f, service));
    }
    let max_swept = candidates[candidates.len() - 1];
    let min_f = minimum_satisfying_frequency(&candidates, |f| {
        reports
            .iter()
            .find(|(ff, _)| *ff == f)
            .map(|(_, s)| s.clone())
            .expect("swept")
    });
    check(
        "BE needs a much higher frequency than GS's 500 MHz",
        min_f.is_some_and(|f| f > 700),
        match min_f {
            Some(f) => format!("minimum satisfying frequency: {f} MHz (paper: >900 MHz)"),
            None => format!("no swept frequency up to {max_swept} MHz satisfies every contract"),
        },
    );
    println!("\ne200_gs_vs_be: all reproduction checks passed");
}
