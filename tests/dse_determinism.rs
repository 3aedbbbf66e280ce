//! Pins the DSE engine's scheduling-independence contract: the same grid
//! must serialize to byte-identical `DSE_REPORT.json` content however
//! many workers evaluate it. Workload seeds derive from point
//! coordinates, results land in enumeration-order slots, and every
//! metric is a pure function of the point — so 1 thread and N threads
//! may *visit* points in any order but must *report* the same bytes.

use aelite_dse::engine::run_sweep;
use aelite_dse::grid::{DseGrid, MeshDim, TrafficMix};

/// The CI grid, 1 worker vs 4: byte-identical serialized reports.
#[test]
fn reduced_sweep_is_byte_identical_across_worker_counts() {
    let grid = DseGrid::reduced();
    let mut a = run_sweep(&grid, 1);
    a.attach_fault_scenarios();
    let single = a.to_json();
    let mut b = run_sweep(&grid, 4);
    b.attach_fault_scenarios();
    let multi = b.to_json();
    assert!(
        single == multi,
        "reduced sweep differs between 1 and 4 workers:\n\
         first divergence at byte {}",
        single
            .bytes()
            .zip(multi.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| single.len().min(multi.len()))
    );
    // And the report passes the gates `dse_sweep` asserts before it
    // writes DSE_REPORT.json.
    a.assert_gates();
    assert!(
        a.paper_point().is_some(),
        "reduced grid lost the paper point"
    );
    assert!(!a.fault.is_empty(), "no fault verdicts attached");
}

/// Oversubscribed grids exercise the incremental-admission fallback;
/// that path must be schedule-independent too.
#[test]
fn partial_points_are_deterministic_across_worker_counts() {
    let grid = DseGrid {
        label: "overload".into(),
        meshes: vec![MeshDim::new(2, 2, 1), MeshDim::new(2, 2, 2)],
        slot_table_sizes: vec![32],
        link_pipeline_depths: vec![0, 1],
        mixes: vec![TrafficMix::Heavy],
    };
    let single = run_sweep(&grid, 1);
    let multi = run_sweep(&grid, 3);
    assert_eq!(single.to_json(), multi.to_json());
}

/// The full grid meets the acceptance floor of 100 points and keeps the
/// paper platform exactly once. (Enumeration only — the full sweep runs
/// in the `dse_sweep` example and CI, not the unit suite.)
#[test]
fn full_grid_spans_at_least_100_points() {
    let grid = DseGrid::full();
    assert!(grid.len() >= 100, "only {} points", grid.len());
    let points = grid.points();
    assert_eq!(
        points
            .iter()
            .filter(|p| p.id() == aelite_dse::PAPER_POINT_ID)
            .count(),
        1
    );
}
