//! Experiment C1 — the composability claim: every application's
//! per-flit delivery log is bit-identical whether it runs alone,
//! with any subset of the other applications, or in the full system —
//! and the best-effort baseline demonstrably does *not* have this
//! property.

use aelite::analysis::compare_logs;
use aelite::report::{check, header, row};
use aelite::AeliteSystem;
use aelite_noc::baseline::{BeConfig, BeSim};
use aelite_spec::generate::paper_workload;
use aelite_spec::ids::AppId;

const SEED: u64 = 42;
const DURATION: u64 = 60_000;

fn main() {
    let spec = paper_workload(SEED);
    let system = AeliteSystem::design(spec.clone()).expect("paper workload allocates");
    // Full-system reference logs.
    let full = system.simulate(DURATION);
    // The logs of `apps`' connections in `run` against the full system's.
    let compare = |apps: &[AppId], run: &aelite::SimulationOutcome| {
        let conns = spec.connections().iter().filter(|c| apps.contains(&c.app));
        compare_logs(conns.map(|c| c.id), &full.logs, &run.logs)
    };

    header(
        "GS composability: isolated runs vs the full system",
        &["composition", "connections compared", "divergent"],
    );
    // Each application alone.
    for app in spec.apps() {
        let isolated = system.simulate_apps(&[app.id], DURATION);
        let result = compare(&[app.id], &isolated);
        row(&[
            format!("{} alone", app.id),
            result.compared.to_string(),
            result.divergent.len().to_string(),
        ]);
        check(
            &format!("{} timing unchanged in isolation", app.id),
            result.is_composable(),
            format!("{result}"),
        );
    }
    // Pairs, exercising partial compositions.
    for pair in [[0u32, 1], [1, 2], [2, 3]] {
        let apps = [AppId::new(pair[0]), AppId::new(pair[1])];
        let partial = system.simulate_apps(&apps, DURATION);
        let result = compare(&apps, &partial);
        row(&[
            format!("A{} + A{}", pair[0], pair[1]),
            result.compared.to_string(),
            result.divergent.len().to_string(),
        ]);
        check(
            &format!("A{}+A{} timing unchanged", pair[0], pair[1]),
            result.is_composable(),
            format!("{result}"),
        );
    }

    // The BE baseline loses composability: removing other applications
    // changes delivered counts/latencies for the remaining one.
    header(
        "BE non-composability (same workload, best effort)",
        &["composition", "max latency app0 (cycles)"],
    );
    let be_full = BeSim::new(&spec).run(BeConfig {
        duration_cycles: DURATION,
        ..BeConfig::default()
    });
    let only0 = spec.restricted_to(&[AppId::new(0)]);
    let be_alone = BeSim::new(&only0).run(BeConfig {
        duration_cycles: DURATION,
        ..BeConfig::default()
    });
    let max_full: u64 = only0
        .connections()
        .iter()
        .map(|c| be_full.conn(c.id).max_latency)
        .max()
        .expect("app0 has connections");
    let max_alone: u64 = only0
        .connections()
        .iter()
        .map(|c| be_alone.conn(c.id).max_latency)
        .max()
        .expect("app0 has connections");
    row(&["full system".to_string(), max_full.to_string()]);
    row(&["app0 alone".to_string(), max_alone.to_string()]);
    check(
        "BE timing depends on co-running applications (not composable)",
        max_full > max_alone,
        format!("{max_full} vs {max_alone} cycles"),
    );
    println!("\nc1_composability: all reproduction checks passed");
}
