//! Integer digests of the seeded draws that no committed artifact pins.
//!
//! `DSE_REPORT.json` and the allocator goldens cover mesh workloads on
//! square platforms only. These digests also cover the generator's
//! non-mesh fallback (a ring: NI links only, one router hop between
//! distinct routers), a non-square mesh, and `fault_trace` off the paper
//! platform. Each digest folds every field of every drawn connection or
//! event, so a refactor of the route, timing or arrival model that moves
//! a single draw changes it.

use aelite_spec::config::NocConfig;
use aelite_spec::fault::{fault_trace, FaultOp, FaultParams};
use aelite_spec::generate::{paper_workload, random_workload, WorkloadParams};
use aelite_spec::topology::Topology;
use aelite_spec::traffic::TrafficPattern;
use aelite_spec::SystemSpec;

/// FNV-1a over a stream of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every field of every connection, plus the NI each endpoint IP sits on.
fn spec_digest(spec: &SystemSpec) -> u64 {
    let mut d = Digest::new();
    d.word(spec.connections().len() as u64);
    for c in spec.connections() {
        d.word(c.id.index() as u64);
        d.word(c.app.index() as u64);
        d.word(c.src.index() as u64);
        d.word(c.dst.index() as u64);
        d.word(spec.ip_ni(c.src).index() as u64);
        d.word(spec.ip_ni(c.dst).index() as u64);
        d.word(c.bandwidth.bytes_per_sec());
        d.word(c.max_latency_ns);
        match c.pattern {
            TrafficPattern::ConstantRate => d.word(0),
            TrafficPattern::Saturating => d.word(1),
            TrafficPattern::Bursty {
                burst_bytes,
                period_ns,
            } => {
                d.word(2);
                d.word(u64::from(burst_bytes));
                d.word(u64::from(period_ns));
            }
        }
        d.word(u64::from(c.message_bytes));
    }
    d.0
}

/// Every event's time, kind and operands.
fn fault_digest(topo: &Topology, params: &FaultParams, seed: u64) -> u64 {
    let trace = fault_trace(topo, params, seed);
    let mut d = Digest::new();
    d.word(trace.events.len() as u64);
    for e in &trace.events {
        d.word(e.at_ns);
        match e.op {
            FaultOp::LinkDown(l) => {
                d.word(0);
                d.word(l.index() as u64);
            }
            FaultOp::LinkUp(l) => {
                d.word(1);
                d.word(l.index() as u64);
            }
            FaultOp::RouterDown(r) => {
                d.word(2);
                d.word(r.index() as u64);
            }
            FaultOp::RouterUp(r) => {
                d.word(3);
                d.word(r.index() as u64);
            }
            FaultOp::LinkGlitch { link, duration_ns } => {
                d.word(4);
                d.word(link.index() as u64);
                d.word(duration_ns);
            }
        }
    }
    d.0
}

/// A small workload profile both non-paper platforms can carry.
fn small_params() -> WorkloadParams {
    WorkloadParams {
        connections: 60,
        ips: 16,
        ..WorkloadParams::paper()
    }
}

#[test]
fn ring_workload_digest_is_pinned() {
    let spec = random_workload(
        Topology::ring(6, 2),
        NocConfig::paper_default(),
        small_params(),
        5,
    );
    assert_eq!(spec_digest(&spec), 5_553_997_105_638_707_733);
}

#[test]
fn non_square_mesh_workload_digest_is_pinned() {
    let spec = random_workload(
        Topology::mesh(5, 3, 2),
        NocConfig::paper_default(),
        small_params(),
        5,
    );
    assert_eq!(spec_digest(&spec), 17_735_931_071_888_659_855);
}

#[test]
fn paper_workload_digests_are_pinned() {
    let digests: Vec<u64> = (0..3).map(|s| spec_digest(&paper_workload(s))).collect();
    assert_eq!(
        digests,
        [
            5_546_525_333_776_092_335,
            6_841_740_457_934_436_870,
            149_076_263_181_319_283
        ]
    );
}

#[test]
fn ring_fault_trace_digest_is_pinned() {
    let topo = Topology::ring(6, 2);
    assert_eq!(
        fault_digest(&topo, &FaultParams::sparse(400), 3),
        5_869_400_588_568_655_703
    );
}

#[test]
fn paper_platform_fault_trace_digest_is_pinned() {
    let topo = paper_workload(0).topology().clone();
    assert_eq!(
        fault_digest(&topo, &FaultParams::sparse(400), 3),
        12_052_972_836_404_899_311
    );
}
