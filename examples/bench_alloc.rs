//! Allocator-throughput trajectory: measures the pre-optimization seed
//! allocator against the current bitset + route-cache allocator and
//! writes `BENCH_ALLOC.json`, the perf record future PRs track.
//!
//! Three configurations per workload:
//!
//! * **seed** — the original allocator, preserved verbatim in
//!   `aelite_baseline::alloc_ref`, measured live so the comparison is
//!   apples-to-apples on whatever machine regenerates the file;
//! * **cold** — `aelite_alloc::allocate` building its route cache from
//!   scratch (a one-shot design-time run);
//! * **warm** — `allocate_with_cache` with a primed [`RouteCache`] (the
//!   steady-state re-allocation path for heavy-traffic scenarios).
//!
//! A second, **scaling-curve** section tracks the mega-mesh regime the
//! lazy route cache and sparse slot tables unlock: regional workloads
//! from 8×8/2.5k connections up to 32×32/30k connections, cold and
//! warm, with the lazy cache's resident pair count recorded against the
//! `ni_count²` pair space it replaced.
//!
//! Run with `cargo run --release --example bench_alloc`. Modes:
//!
//! * (no args) — measure everything, write `BENCH_ALLOC.json`, assert
//!   the speedup and scaling gates;
//! * `--scaling` — CI smoke: only the smallest and one mid-size curve
//!   point, written to `BENCH_ALLOC_SCALING_SMOKE.json` (the committed
//!   `BENCH_ALLOC.json` is left untouched);
//! * `--check` — no measurement: re-validate the gates against the
//!   committed `BENCH_ALLOC.json`.

use aelite_alloc::{Allocator, RouteCache, RouteProvider};
use aelite_baseline::allocate_seed;
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::{paper_workload, scaled_workload, WorkloadBuilder};
use std::fmt::Write as _;
use std::time::Instant;

struct Row {
    name: &'static str,
    platform: &'static str,
    connections: usize,
    seed_ms: f64,
    cold_ms: f64,
    warm_ms: f64,
}

fn time_ms<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    // One untimed warm-up evens out first-touch effects.
    std::hint::black_box(f());
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps)
}

fn measure(name: &'static str, platform: &'static str, spec: &SystemSpec, reps: u32) -> Row {
    let seed_ms = time_ms(reps, || allocate_seed(spec).expect("seed allocates"));
    let cold_ms = time_ms(reps, || aelite_alloc::allocate(spec).expect("allocates"));
    let allocator = Allocator::new();
    let mut routes = RouteCache::new(spec.topology(), allocator.max_paths);
    let warm_ms = time_ms(reps, || {
        allocator
            .allocate_with_cache(spec, &mut routes)
            .expect("allocates")
    });
    let row = Row {
        name,
        platform,
        connections: spec.connections().len(),
        seed_ms,
        cold_ms,
        warm_ms,
    };
    println!(
        "{name:>13}: seed {seed_ms:8.2} ms | cold {cold_ms:7.2} ms ({:4.1}x) | warm {warm_ms:6.2} ms ({:4.1}x)",
        seed_ms / cold_ms,
        seed_ms / warm_ms,
    );
    row
}

struct ScalingRow {
    name: String,
    mesh: u32,
    connections: usize,
    cold_ms: f64,
    warm_ms: f64,
    resident_pairs: usize,
    pair_space: usize,
}

/// The scaling curve's workload at one mesh size: regional (2×2-router
/// tiles) mega-profile traffic — the locality mega-meshes are built for.
fn mega_spec(n: u32, connections: u32) -> SystemSpec {
    WorkloadBuilder::mesh(n, n, 4)
        .mega_traffic()
        .connections(connections)
        .tiles(n / 2, n / 2)
        .seed(1)
        .build()
}

fn measure_scaling(n: u32, connections: u32, reps: u32) -> ScalingRow {
    let spec = mega_spec(n, connections);
    let cold_ms = time_ms(reps, || aelite_alloc::allocate(&spec).expect("allocates"));
    let allocator = Allocator::new();
    let mut routes = RouteCache::new(spec.topology(), allocator.max_paths);
    let warm_ms = time_ms(reps, || {
        allocator
            .allocate_with_cache(&spec, &mut routes)
            .expect("allocates")
    });
    let ni = spec.topology().ni_count();
    let row = ScalingRow {
        name: format!("mesh{n}x{n}_{connections}"),
        mesh: n,
        connections: spec.connections().len(),
        cold_ms,
        warm_ms,
        resident_pairs: routes.resident_pairs(),
        pair_space: ni * ni,
    };
    println!(
        "{:>15}: cold {:8.2} ms ({:8.0} conns/s) | warm {:8.2} ms ({:8.0} conns/s) | {} / {} route pairs resident",
        row.name,
        cold_ms,
        connections as f64 / (cold_ms / 1e3),
        warm_ms,
        connections as f64 / (warm_ms / 1e3),
        row.resident_pairs,
        row.pair_space,
    );
    row
}

fn scaling_json(rows: &[ScalingRow]) -> String {
    let mut json = String::new();
    json.push_str("  \"scaling\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let conns = r.connections as f64;
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": \"{}\",", r.name).unwrap();
        writeln!(
            json,
            "      \"platform\": \"{0}x{0} mesh, 4 NIs/router, regional mega-profile\",",
            r.mesh
        )
        .unwrap();
        writeln!(json, "      \"connections\": {},", r.connections).unwrap();
        writeln!(json, "      \"cold_ms_per_alloc\": {:.3},", r.cold_ms).unwrap();
        writeln!(json, "      \"warm_ms_per_alloc\": {:.3},", r.warm_ms).unwrap();
        writeln!(
            json,
            "      \"cold_conns_per_sec\": {:.0},",
            conns / (r.cold_ms / 1e3)
        )
        .unwrap();
        writeln!(
            json,
            "      \"warm_conns_per_sec\": {:.0},",
            conns / (r.warm_ms / 1e3)
        )
        .unwrap();
        writeln!(
            json,
            "      \"resident_route_pairs\": {},",
            r.resident_pairs
        )
        .unwrap();
        writeln!(json, "      \"route_pair_space\": {}", r.pair_space).unwrap();
        write!(
            json,
            "    }}{}",
            if i + 1 < rows.len() { ",\n" } else { "\n" }
        )
        .unwrap();
    }
    json.push_str("  ]\n");
    json
}

/// The scaling gate: the largest curve point must allocate at this rate
/// or better, cold (recorded headroom is several-fold — see
/// `BENCH_ALLOC.json`).
const SCALING_GATE_CONNS_PER_SEC: f64 = 50_000.0;

/// Minimal field scanner for the committed JSON (`--check` mode): the
/// benches emit one `"key": value` pair per line, so rows can be
/// re-read without a JSON dependency.
fn scan_rows(text: &str) -> Vec<std::collections::HashMap<String, String>> {
    let mut rows = Vec::new();
    let mut cur: Option<std::collections::HashMap<String, String>> = None;
    for line in text.lines() {
        let t = line.trim();
        if t == "{" {
            cur = Some(std::collections::HashMap::new());
        } else if t.starts_with('}') {
            if let Some(row) = cur.take() {
                rows.push(row);
            }
        } else if let Some(row) = &mut cur {
            if let Some((k, v)) = t.split_once(':') {
                let k = k.trim().trim_matches('"').to_string();
                let v = v.trim().trim_end_matches(',').trim_matches('"').to_string();
                row.insert(k, v);
            }
        }
    }
    rows
}

fn field_f64(row: &std::collections::HashMap<String, String>, key: &str) -> f64 {
    row.get(key)
        .unwrap_or_else(|| panic!("committed JSON row missing {key}"))
        .parse()
        .unwrap_or_else(|e| panic!("committed JSON field {key} unparsable: {e}"))
}

/// `--check`: re-assert every gate against the committed JSON.
fn check_committed() {
    let text = std::fs::read_to_string("BENCH_ALLOC.json").expect("read BENCH_ALLOC.json");
    let rows = scan_rows(&text);
    let gate = rows
        .iter()
        .find(|r| r.get("name").map(String::as_str) == Some("mesh8x8_1000"))
        .expect("committed JSON lacks the mesh8x8_1000 gate row");
    let cold = field_f64(gate, "cold_speedup_vs_seed");
    let warm = field_f64(gate, "warm_speedup_vs_seed");
    assert!(
        cold >= 5.0 || warm >= 5.0,
        "committed mesh8x8_1000 speedup below 5x: cold {cold:.2}x, warm {warm:.2}x"
    );
    let largest = rows
        .iter()
        .filter(|r| r.contains_key("route_pair_space"))
        .max_by_key(|r| field_f64(r, "connections") as u64)
        .expect("committed JSON lacks a scaling section");
    assert!(
        field_f64(largest, "connections") >= 10_000.0,
        "largest committed scaling point is under 10k connections"
    );
    let rate = field_f64(largest, "cold_conns_per_sec");
    assert!(
        rate >= SCALING_GATE_CONNS_PER_SEC,
        "committed scaling gate below {SCALING_GATE_CONNS_PER_SEC} conns/s: {rate:.0}"
    );
    println!(
        "BENCH_ALLOC.json gates hold: mesh8x8_1000 {cold:.2}x/{warm:.2}x, \
         largest scaling point {rate:.0} conns/s"
    );
}

/// `--scaling`: CI smoke — smallest + one mid-size point, separate
/// artifact, committed JSON untouched.
fn scaling_smoke() {
    println!("allocator scaling smoke (smallest + mid-size curve points)");
    let rows = [measure_scaling(8, 2_500, 2), measure_scaling(16, 10_000, 2)];
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"aelite-bench-alloc-scaling-smoke/1\",\n");
    json.push_str("  \"generated_by\": \"examples/bench_alloc.rs --scaling\",\n");
    json.push_str(&scaling_json(&rows));
    json.push_str("}\n");
    std::fs::write("BENCH_ALLOC_SCALING_SMOKE.json", &json)
        .expect("write BENCH_ALLOC_SCALING_SMOKE.json");
    println!("\nwrote BENCH_ALLOC_SCALING_SMOKE.json");
    for r in &rows {
        assert!(
            r.resident_pairs < r.pair_space,
            "{}: lazy cache not sparse in pair space",
            r.name
        );
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("--check") => return check_committed(),
        Some("--scaling") => return scaling_smoke(),
        Some(other) => panic!("unknown mode {other}; use --check or --scaling"),
        None => {}
    }
    println!("allocator throughput (ms per full allocation; speedups vs seed)");
    let rows = [
        measure(
            "paper_200",
            "4x3 mesh, 4 NIs/router (Section VII)",
            &paper_workload(42),
            10,
        ),
        measure(
            "mesh4x4_500",
            "4x4 mesh, 4 NIs/router, synthetic",
            &scaled_workload(4, 4, 4, 500, 1),
            5,
        ),
        measure(
            "mesh8x8_1000",
            "8x8 mesh, 4 NIs/router, synthetic",
            &scaled_workload(8, 8, 4, 1000, 1),
            5,
        ),
        measure(
            "mesh8x8_2000",
            "8x8 mesh, 4 NIs/router, synthetic",
            &scaled_workload(8, 8, 4, 2000, 1),
            3,
        ),
    ];

    println!("\nmega-mesh scaling curve (regional mega-profile, cold/warm)");
    let scaling = [
        measure_scaling(8, 2_500, 3),
        measure_scaling(16, 10_000, 3),
        measure_scaling(24, 20_000, 2),
        measure_scaling(32, 30_000, 2),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"aelite-bench-alloc/2\",\n");
    json.push_str("  \"generated_by\": \"examples/bench_alloc.rs\",\n");
    json.push_str(
        "  \"note\": \"seed = pre-optimization allocator (aelite_baseline::alloc_ref), \
         measured live on the same machine; cold = current allocator with a fresh route \
         cache; warm = current allocator re-using a RouteCache (steady-state \
         re-allocation)\",\n",
    );
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let conns = r.connections as f64;
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": \"{}\",", r.name).unwrap();
        writeln!(json, "      \"platform\": \"{}\",", r.platform).unwrap();
        writeln!(json, "      \"connections\": {},", r.connections).unwrap();
        writeln!(json, "      \"seed_ms_per_alloc\": {:.3},", r.seed_ms).unwrap();
        writeln!(json, "      \"cold_ms_per_alloc\": {:.3},", r.cold_ms).unwrap();
        writeln!(json, "      \"warm_ms_per_alloc\": {:.3},", r.warm_ms).unwrap();
        writeln!(
            json,
            "      \"seed_conns_per_sec\": {:.0},",
            conns / (r.seed_ms / 1e3)
        )
        .unwrap();
        writeln!(
            json,
            "      \"cold_conns_per_sec\": {:.0},",
            conns / (r.cold_ms / 1e3)
        )
        .unwrap();
        writeln!(
            json,
            "      \"warm_conns_per_sec\": {:.0},",
            conns / (r.warm_ms / 1e3)
        )
        .unwrap();
        writeln!(
            json,
            "      \"cold_speedup_vs_seed\": {:.2},",
            r.seed_ms / r.cold_ms
        )
        .unwrap();
        writeln!(
            json,
            "      \"warm_speedup_vs_seed\": {:.2}",
            r.seed_ms / r.warm_ms
        )
        .unwrap();
        write!(
            json,
            "    }}{}",
            if i + 1 < rows.len() { ",\n" } else { "\n" }
        )
        .unwrap();
    }
    json.push_str("  ],\n");
    json.push_str(&scaling_json(&scaling));
    json.push_str("}\n");

    std::fs::write("BENCH_ALLOC.json", &json).expect("write BENCH_ALLOC.json");
    println!("\nwrote BENCH_ALLOC.json");

    // The acceptance gate this trajectory started with: the 1000-connection
    // 8x8 mesh must allocate at least 5x faster than the seed allocator.
    // Wall-clock measurements on shared CI runners are noisy, so the hard
    // failure only fires when *both* the cold and the warm configuration
    // miss the bar (headroom at the time of recording: ~9x cold, ~20x
    // warm); a cold-only dip is reported as a warning.
    let gate = rows.iter().find(|r| r.name == "mesh8x8_1000").unwrap();
    let cold_speedup = gate.seed_ms / gate.cold_ms;
    let warm_speedup = gate.seed_ms / gate.warm_ms;
    if cold_speedup < 5.0 {
        eprintln!("warning: mesh8x8_1000 cold speedup below 5x: {cold_speedup:.2}x");
    }
    assert!(
        cold_speedup >= 5.0 || warm_speedup >= 5.0,
        "mesh8x8_1000 speedup regressed below 5x: cold {cold_speedup:.2}x, warm {warm_speedup:.2}x"
    );

    // The mega-mesh scaling gate: the largest curve point (32x32, 30k
    // connections) must keep allocating at rate — this is the point the
    // dense route cache and dense slot tables made intractable.
    let largest = scaling.last().unwrap();
    assert!(largest.connections >= 10_000, "largest point shrank");
    let rate = largest.connections as f64 / (largest.cold_ms / 1e3);
    assert!(
        rate >= SCALING_GATE_CONNS_PER_SEC,
        "{} cold allocation rate regressed below {SCALING_GATE_CONNS_PER_SEC} conns/s: {rate:.0}",
        largest.name
    );
    assert!(
        largest.resident_pairs * 10 < largest.pair_space,
        "lazy route cache no longer sparse at 32x32: {} of {} pairs resident",
        largest.resident_pairs,
        largest.pair_space
    );
}
