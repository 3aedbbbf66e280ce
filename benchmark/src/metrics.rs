//! The metric tables: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` lists the end-to-end and per-layer
//! ones (a unit test keeps the two in step); `benchmark/README.md` says
//! what each one measures and which end-to-end metric a layer row
//! should move.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Every workload reports all of these from its untraced run; what one
/// unit of work is depends on the workload (see `workloads::WORKLOADS`).
/// Each bound is at least three times the spread of ten runs on ten
/// seeds (README, "Steadiness"); 0.25 is the widest the driver allows.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "served_share",
        unit: "ratio",
        better: Higher,
        bound: 0.12,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.1,
    },
];

/// Untraced metrics only some workloads have (name, unit, direction):
/// printed, recorded and compared, but not in `BENCHMARK.json`, whose
/// end-to-end metrics every workload must report.
pub const SECONDARY: [(&str, &str, Better); 5] = [
    ("admit_p50_us", "us", Lower),
    ("admit_p99_us", "us", Lower),
    ("recover_p50_us", "us", Lower),
    ("recover_p99_us", "us", Lower),
    ("alloc_conns_per_s", "1/s", Higher),
];

/// Name, unit, direction of every per-layer metric, in layer order. A
/// traced run measures the rows of the layers on its workload's path;
/// the others read 0 there.
pub const PER_LAYER: [(&str, &str, Better); 81] = [
    ("spec.build_s", "s", Lower),
    ("spec.population_s", "s", Lower),
    ("spec.scenario_s", "s", Lower),
    ("serve.stream.merge_ns_per_req", "ns", Lower),
    ("serve.stream.plan_ns_per_req", "ns", Lower),
    ("serve.stream.plan_sharded_ns_per_req", "ns", Lower),
    ("serve.stream.mean_burst", "req", Higher),
    ("serve.pipeline.ns_per_req", "ns", Lower),
    ("serve.pipeline.handoff_ns_per_req", "ns", Lower),
    ("serve.pipeline.mean_burst", "req", Higher),
    ("serve.pipeline.p99_us.w64", "us", Lower),
    ("serve.hist.record_ns", "ns", Lower),
    ("online.engine.serial_ns_per_req", "ns", Lower),
    ("online.engine.batched_ns_per_req", "ns", Lower),
    ("online.engine.batched_vs_serial", "ratio", Higher),
    ("online.engine.canonical_order_ns_per_req", "ns", Lower),
    ("online.engine.open_ns", "ns", Lower),
    ("online.engine.open_refused_ns", "ns", Lower),
    ("online.engine.close_ns", "ns", Lower),
    ("online.engine.switch_ns", "ns", Lower),
    ("online.engine.self_ns_per_req", "ns", Lower),
    ("online.engine.setups", "count", Higher),
    ("online.engine.teardowns", "count", Higher),
    ("online.engine.switches", "count", Higher),
    ("online.engine.refused_opens", "count", Lower),
    ("online.engine.refused_closes", "count", Lower),
    ("online.engine.refused_switches", "count", Lower),
    ("online.engine.rolled_back_opens", "count", Lower),
    ("alloc.allocate.admit_ns", "ns", Lower),
    ("alloc.allocate.admit_refused_ns", "ns", Lower),
    ("alloc.allocate.release_ns", "ns", Lower),
    ("alloc.allocate.steer_admit_ns", "ns", Lower),
    ("alloc.allocate.estimate_slots_ns", "ns", Lower),
    ("alloc.allocate.batch_cold_conns_per_s", "1/s", Higher),
    ("alloc.allocate.batch_warm_conns_per_s", "1/s", Higher),
    ("alloc.route_cache.hit_ns", "ns", Lower),
    ("alloc.route_cache.miss_ns", "ns", Lower),
    ("alloc.route_cache.detour_ns", "ns", Lower),
    ("alloc.route_cache.set_faults_us", "us", Lower),
    ("alloc.route_cache.resident_pairs", "count", Lower),
    ("alloc.mask.and_rotated_ns.s32", "ns", Lower),
    ("alloc.mask.and_rotated_ns.s64", "ns", Lower),
    ("alloc.mask.nearest_one_ns", "ns", Lower),
    ("alloc.table.reserve_release_ns", "ns", Lower),
    ("alloc.table.occupancy_mean", "ratio", Higher),
    ("alloc.table.occupancy_peak", "ratio", Higher),
    ("online.shard.classify_ns_per_req", "ns", Lower),
    ("online.shard.cross_share", "ratio", Lower),
    ("online.shard.ns_per_req.t1", "ns", Lower),
    ("online.shard.ns_per_req.t2", "ns", Lower),
    ("online.shard.speedup_t2", "ratio", Higher),
    ("online.shard.vs_engine", "ratio", Higher),
    ("online.shard.uniform_ns_per_req", "ns", Lower),
    ("online.shard.uniform_cross_share", "ratio", Lower),
    ("online.fault.link_down_us", "us", Lower),
    ("online.fault.router_down_us", "us", Lower),
    ("online.fault.link_up_us", "us", Lower),
    ("online.fault.router_up_us", "us", Lower),
    ("online.fault.glitch_us", "us", Lower),
    ("online.fault.churn_ns_per_op", "ns", Lower),
    ("online.fault.replay_ms.shortest_first", "ms", Lower),
    ("online.fault.replay_ms.spare_capacity", "ms", Lower),
    ("online.fault.affected", "count", Lower),
    ("online.fault.survived", "count", Higher),
    ("online.fault.dropped", "count", Lower),
    ("online.fault.restored", "count", Higher),
    ("online.fault.glitches", "count", Higher),
    ("online.fault.escalated", "count", Lower),
    ("online.fault.refused_link_down", "count", Lower),
    ("noc.turbo.build_s", "s", Lower),
    ("noc.turbo.ns_per_flit", "ns", Lower),
    ("noc.turbo.ns_per_cycle", "ns", Lower),
    ("noc.turbo.ns_per_ni_slot", "ns", Lower),
    ("noc.turbo.ns_per_cycle.mesh8", "ns", Lower),
    ("noc.turbo.flits_delivered", "count", Higher),
    ("noc.turbo.max_latency_cycles", "count", Lower),
    ("noc.turbo.min_bound_slack_cycles", "count", Higher),
    ("noc.network.event_ns_per_cycle", "ns", Lower),
    ("noc.network.turbo_speedup", "ratio", Higher),
    ("trace.overhead_share", "ratio", Lower),
    ("trace.residual_share", "ratio", Lower),
];

/// The document `BENCHMARK.json` must hold: the driver's command, the
/// workloads with their reasons, and the two metric tables.
#[cfg(test)]
fn manifest() -> crate::json::Value {
    use crate::json::{obj, Value};
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|&s| Value::from(s)).collect());
    obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::from(crate::RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                crate::workloads::WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Value::from(w.name)), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        obj([
                            ("name", Value::from(name)),
                            ("unit", unit.into()),
                            ("better", better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// the tables the program prints from. On a mismatch the expected
    /// document is in the failure message.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let found = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let expected = manifest();
        assert!(
            found == expected,
            "BENCHMARK.json is out of step; expected:\n{}",
            expected.pretty()
        );
    }

    #[test]
    fn names_units_and_reasons_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(SECONDARY.iter().map(|m| m.0));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.name));
        assert!(
            names.iter().all(|n| name_ok(n)),
            "a name breaks the contract"
        );
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().chain(&SECONDARY).all(|m| unit_ok(m.1)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.bound == widest));
        for w in &crate::workloads::WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }
    }
}
