//! Latency-rate (LR) server abstraction of a guaranteed-service
//! connection.
//!
//! TDM connections are classical **LR servers** (Stiliadis & Varma): after
//! a service latency Θ, a busy connection is served at least at rate ρ.
//! The Æthereal/CompSOC literature uses this abstraction to compose
//! NoC guarantees with processor and memory schedulers; deriving (ρ, Θ)
//! from an aelite allocation makes this library usable in that wider
//! real-time analysis, and the conformance check below ties the
//! abstraction back to the simulators.
//!
//! For a connection with slot set *T* in a table of *S* slots:
//!
//! * **rate** `ρ = |T| · payload_bytes / (S · slot_cycles)` bytes/cycle;
//! * **latency** `Θ = max_gap · slot_cycles + pipeline` cycles — the
//!   worst-case time before the sustained-rate service begins, which is
//!   the allocation's per-flit latency bound
//!   (`Allocation::worst_case_latency_cycles`).
//!
//! The service guarantee: in any busy period starting at time `t0`, the
//! bytes delivered by time `t` satisfy
//! `delivered(t) ≥ ρ · max(0, t − t0 − Θ)`.

use aelite_alloc::allocate::Allocation;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;
use core::fmt;

/// The (ρ, Θ) parameters of one connection's LR server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrServer {
    /// Guaranteed service rate, bytes per cycle.
    pub rate_bytes_per_cycle: f64,
    /// Service latency, cycles.
    pub latency_cycles: u64,
}

impl LrServer {
    /// The minimum bytes delivered `elapsed` cycles into a busy period.
    #[must_use]
    pub fn service_bound_bytes(&self, elapsed: u64) -> f64 {
        self.rate_bytes_per_cycle * elapsed.saturating_sub(self.latency_cycles) as f64
    }
}

impl fmt::Display for LrServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rho = {:.4} B/cycle, theta = {} cycles",
            self.rate_bytes_per_cycle, self.latency_cycles
        )
    }
}

/// Derives the LR-server parameters of `conn` from its allocation.
///
/// # Panics
///
/// Panics if `conn` has no grant in `alloc`.
#[must_use]
pub fn lr_server(spec: &SystemSpec, alloc: &Allocation, conn: ConnId) -> LrServer {
    let cfg = spec.config();
    let grant = alloc.grant(conn).expect("connection has no grant");
    let payload = f64::from(cfg.payload_words_per_flit()) * f64::from(cfg.data_width_bytes());
    let slots = grant.inject_slots.len() as f64;
    let table_cycles = f64::from(cfg.slot_table_size) * f64::from(cfg.slot_cycles());
    let rate = slots * payload / table_cycles;
    LrServer {
        rate_bytes_per_cycle: rate,
        latency_cycles: alloc.worst_case_latency_cycles(spec, conn),
    }
}

/// Checks a delivery trace against an LR service curve.
///
/// `deliveries` are `(cycle, bytes)` pairs of a **continuously busy**
/// connection (e.g. a saturating source), busy from cycle `busy_start`.
/// Returns the first violation, if any: the delivery index where the
/// cumulative bytes fall below the bound.
#[must_use]
pub fn first_conformance_violation(
    server: &LrServer,
    busy_start: u64,
    deliveries: &[(u64, u64)],
) -> Option<usize> {
    let mut cumulative = 0u64;
    for (i, &(cycle, bytes)) in deliveries.iter().enumerate() {
        cumulative += bytes;
        let elapsed = cycle.saturating_sub(busy_start);
        // Compare against the bound just before this delivery landed:
        // service curves are lower bounds on what has arrived *by* t.
        let bound = server.service_bound_bytes(elapsed);
        if (cumulative as f64) < bound - 1e-9 {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::allocate;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::generate::paper_workload;
    use aelite_spec::ids::NiId;
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::Bandwidth;

    fn one_conn(bw_mb: u64) -> SystemSpec {
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(bw_mb), 1_000);
        b.build()
    }

    #[test]
    fn rate_matches_allocated_bandwidth() {
        let spec = one_conn(100);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let server = lr_server(&spec, &alloc, conn);
        let cfg = spec.config();
        let rate_bytes_per_sec = server.rate_bytes_per_cycle * cfg.frequency_mhz as f64 * 1e6;
        let allocated = alloc.allocated_bandwidth(&spec, conn).bytes_per_sec() as f64;
        // allocated_bandwidth floors to whole bytes/s per slot; the exact
        // LR rate sits within a few parts per million of it.
        assert!(
            (rate_bytes_per_sec - allocated).abs() / allocated < 1e-5,
            "{rate_bytes_per_sec} vs {allocated}"
        );
    }

    #[test]
    fn theta_matches_worst_case_latency_bound() {
        // Theta equals the per-flit worst-case latency bound: wait for
        // the farthest slot plus the pipeline.
        let spec = one_conn(50);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let server = lr_server(&spec, &alloc, conn);
        assert_eq!(
            server.latency_cycles,
            alloc.worst_case_latency_cycles(&spec, conn)
        );
    }

    #[test]
    fn service_bound_is_zero_inside_theta() {
        let s = LrServer {
            rate_bytes_per_cycle: 0.5,
            latency_cycles: 100,
        };
        assert_eq!(s.service_bound_bytes(50), 0.0);
        assert_eq!(s.service_bound_bytes(100), 0.0);
        assert!((s.service_bound_bytes(200) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn conformance_detects_violations() {
        let s = LrServer {
            rate_bytes_per_cycle: 1.0,
            latency_cycles: 10,
        };
        // Conforming: 8 bytes every 8 cycles after a 10-cycle start.
        let good: Vec<(u64, u64)> = (1..20).map(|k| (10 + k * 8, 8)).collect();
        assert_eq!(first_conformance_violation(&s, 0, &good), None);
        // Violating: a long silent stretch.
        let bad = vec![(18u64, 8u64), (200, 8)];
        assert_eq!(first_conformance_violation(&s, 0, &bad), Some(1));
    }

    #[test]
    fn every_paper_connection_is_an_lr_server() {
        let spec = paper_workload(42);
        let alloc = allocate(&spec).unwrap();
        for c in spec.connections() {
            let server = lr_server(&spec, &alloc, c.id);
            assert!(server.rate_bytes_per_cycle > 0.0);
            assert!(server.latency_cycles > 0);
            // The contract is implied by the server parameters.
            let cfg = spec.config();
            let rate_bps = server.rate_bytes_per_cycle * cfg.frequency_mhz as f64 * 1e6;
            assert!(rate_bps >= c.bandwidth.bytes_per_sec() as f64);
            let theta_ns = server.latency_cycles as f64 * cfg.cycle_ns();
            assert!(theta_ns <= c.max_latency_ns as f64);
        }
    }

    #[test]
    fn display_shows_parameters() {
        let s = LrServer {
            rate_bytes_per_cycle: 0.25,
            latency_cycles: 42,
        };
        let text = s.to_string();
        assert!(text.contains("0.25") && text.contains("42"), "{text}");
    }
}
