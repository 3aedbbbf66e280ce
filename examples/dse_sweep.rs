//! Parallel design-space sweep: explore mesh dimensions × slot-table
//! sizes × link pipeline depths × traffic mixes, and report success
//! rates, worst-case bounds and the area-vs-guaranteed-throughput
//! Pareto front in `DSE_REPORT.json`.
//!
//! ```text
//! cargo run --release --example dse_sweep                 # full 126-point grid
//! cargo run --release --example dse_sweep -- --reduced    # CI's 12-point grid
//! cargo run --release --example dse_sweep -- --threads 4  # fixed worker count
//! cargo run --release --example dse_sweep -- --out my.json
//! cargo run --release --example dse_sweep -- --reduced --validate
//! ```
//!
//! The report is deterministic: the same grid produces byte-identical
//! JSON for any `--threads` value (workload seeds derive from point
//! coordinates, never from the schedule). Schema `aelite-dse-report/2`
//! folds the fault scenario in: every Pareto-front point is replayed
//! through the `ChurnEngine` under a seeded merged churn + fault trace
//! and its deterministic admission/displacement counts are committed as
//! `fault_scenarios` (wall-clock rates stay out). The gates
//! (`DseReport::assert_gates`) run on the fresh sweep before anything is
//! written; CI regenerates the full grid and `git diff --exit-code`s the
//! committed `DSE_REPORT.json` against it.
//!
//! `--validate` replays every Pareto-front point through the turbo
//! cycle-accurate kernel (`aelite_noc::turbo`) and asserts the measured
//! worst-case per-flit latency of every connection stays within the
//! analytical bound the report advertises — simulation-backed evidence
//! for the front, cheap enough for CI.
//!
//! `--churn` drives every Pareto-front point through the online
//! reconfiguration engine (`aelite_online::ChurnEngine`) under a seeded
//! Poisson open/close/use-case-switch trace and reports each point's
//! admission outcome and sustained churn rate (setup+teardown ops/sec)
//! alongside its area and throughput.

use aelite_dse::churn::{churn_front, churn_table_header, CHURN_EVENTS_PER_POINT};
use aelite_dse::engine::run_sweep;
use aelite_dse::fault::fault_table_header;
use aelite_dse::grid::DseGrid;
use aelite_dse::validate::{validate_front, validation_table_header, VALIDATE_DURATION_CYCLES};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid = DseGrid::full();
    let mut threads = 0usize; // 0 = one worker per CPU
    let mut out = String::from("DSE_REPORT.json");
    let mut validate = false;
    let mut churn = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reduced" => grid = DseGrid::reduced(),
            "--validate" => validate = true,
            "--churn" => churn = true,
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            "--out" => {
                i += 1;
                out = args.get(i).expect("--out needs a path").clone();
            }
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }

    println!(
        "design-space sweep: {} points ({} grid), {} worker(s)",
        grid.len(),
        grid.label,
        if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        }
    );
    let t0 = Instant::now();
    let mut report = run_sweep(&grid, threads);
    let elapsed = t0.elapsed().as_secs_f64();
    println!("swept in {elapsed:.2} s\n");

    // The fault scenario is part of the report (schema 2): replay every
    // front point through a seeded merged churn + fault trace and fold
    // the deterministic counts in before serializing.
    report.attach_fault_scenarios();

    print!("{}", report.summary_table());
    println!();
    print!("{}", report.pareto_table());
    println!();
    println!("{}", fault_table_header());
    for f in &report.fault {
        println!("{f}");
    }

    // The gates CI relies on: consistency, a non-empty front, and the
    // paper platform (present in both the full and reduced grids)
    // allocating every one of its connections.
    report.assert_gates();
    assert!(
        report.paper_point().is_some(),
        "grid must include the paper platform point"
    );

    let json = report.to_json();
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out} ({} points)", report.points.len());

    // Simulation-backed validation of the front: replay each Pareto
    // point through the turbo kernel; any connection whose measured
    // worst-case latency exceeds its analytical bound panics there.
    if validate {
        println!(
            "\nvalidating {} Pareto point(s) over {VALIDATE_DURATION_CYCLES} cycles each",
            report.pareto.len()
        );
        let t0 = Instant::now();
        let rows = validate_front(&report, VALIDATE_DURATION_CYCLES);
        println!("{}", validation_table_header());
        for row in &rows {
            println!("{row}");
        }
        println!(
            "validated in {:.2} s: every measured worst case within its analytical bound",
            t0.elapsed().as_secs_f64()
        );
    }

    // The churn scenario: sustainable online-reconfiguration rate of
    // every front point, under a Poisson open/close/use-case-switch
    // trace replayed through the ChurnEngine.
    if churn {
        println!(
            "\nchurning {} Pareto point(s), {CHURN_EVENTS_PER_POINT} events each",
            report.pareto.len()
        );
        let t0 = Instant::now();
        let rows = churn_front(&report, CHURN_EVENTS_PER_POINT);
        println!("{}", churn_table_header());
        for row in &rows {
            println!("{row}");
        }
        let worst = rows
            .iter()
            .map(|r| r.admission_rate)
            .fold(f64::INFINITY, f64::min);
        println!(
            "churned in {:.2} s: worst-case admission rate {:.1}%",
            t0.elapsed().as_secs_f64(),
            100.0 * worst
        );
    }
}
