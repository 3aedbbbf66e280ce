//! Service verification: measured behaviour against contracts and bounds.
//!
//! Takes per-connection measurements (from any simulator — the turbo
//! kernel behind `AeliteSystem::simulate`, the event-driven network or
//! the best-effort baseline) and checks them against the connections'
//! contracts and, for GS runs, the analytical worst-case bounds.

use aelite_alloc::allocate::Allocation;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;
use core::fmt;

/// One connection's measured service, in simulator-independent form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredService {
    /// The connection measured.
    pub conn: ConnId,
    /// Delivered payload bytes.
    pub bytes: u64,
    /// Minimum flit latency, cycles.
    pub min_latency_cycles: u64,
    /// Mean flit latency, cycles.
    pub mean_latency_cycles: f64,
    /// Maximum flit latency, cycles.
    pub max_latency_cycles: u64,
}

/// The verdict for one connection.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnVerdict {
    /// The connection judged.
    pub conn: ConnId,
    /// Contracted bandwidth, bytes/s.
    pub required_bw: u64,
    /// Achieved bandwidth, bytes/s.
    pub achieved_bw: f64,
    /// Contracted latency, ns.
    pub required_latency_ns: u64,
    /// Measured maximum latency, ns.
    pub max_latency_ns: f64,
    /// Measured mean latency, ns.
    pub mean_latency_ns: f64,
    /// Analytical worst-case bound, ns (GS runs only).
    pub bound_ns: Option<f64>,
    /// Whether throughput met the contract.
    pub throughput_ok: bool,
    /// Whether the measured maximum latency met the contract.
    pub latency_ok: bool,
    /// Whether the measurement respected the analytical bound (GS only).
    pub within_bound: bool,
}

impl ConnVerdict {
    /// Whether every checked property held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.throughput_ok && self.latency_ok && self.within_bound
    }
}

impl fmt::Display for ConnVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: bw {:.1}/{:.1} MB/s, lat max {:.1}/{} ns{} [{}]",
            self.conn,
            self.achieved_bw / 1e6,
            self.required_bw as f64 / 1e6,
            self.max_latency_ns,
            self.required_latency_ns,
            match self.bound_ns {
                Some(b) => format!(", bound {b:.1} ns"),
                None => String::new(),
            },
            if self.ok() { "ok" } else { "VIOLATED" }
        )
    }
}

/// A whole-system service report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// One verdict per measured connection.
    pub verdicts: Vec<ConnVerdict>,
}

impl ServiceReport {
    /// Whether every connection met every checked property.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.verdicts.iter().all(ConnVerdict::ok)
    }

    /// The violating verdicts.
    pub fn violations(&self) -> impl Iterator<Item = &ConnVerdict> + '_ {
        self.verdicts.iter().filter(|v| !v.ok())
    }

    /// The verdict of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` was not part of the report.
    #[must_use]
    pub fn verdict(&self, conn: ConnId) -> &ConnVerdict {
        self.verdicts
            .iter()
            .find(|v| v.conn == conn)
            .unwrap_or_else(|| panic!("{conn} not in report"))
    }
}

/// Judges measured services against `spec`'s contracts.
///
/// `alloc` enables the analytical-bound check; pass `None` for best-effort
/// runs where no bound exists (their whole point).
///
/// `duration_cycles` is the measurement window used to convert bytes to
/// bandwidth; `throughput_tolerance` is the accepted shortfall fraction
/// for constant-rate sources (ramp-up effects), e.g. `0.05`.
#[must_use]
pub fn verify_service(
    spec: &SystemSpec,
    alloc: Option<&Allocation>,
    measured: &[MeasuredService],
    duration_cycles: u64,
    throughput_tolerance: f64,
) -> ServiceReport {
    let cfg = spec.config();
    let cycle_ns = cfg.cycle_ns();
    let verdicts = measured
        .iter()
        .map(|m| {
            let c = spec.connection(m.conn);
            let achieved_bw =
                m.bytes as f64 * cfg.frequency_mhz as f64 * 1e6 / duration_cycles as f64;
            let max_latency_ns = m.max_latency_cycles as f64 * cycle_ns;
            let bound_ns = alloc.map(|a| a.worst_case_latency_ns(spec, m.conn));
            let within_bound =
                bound_ns.is_none_or(|b| m.max_latency_cycles as f64 * cycle_ns <= b + 1e-9);
            ConnVerdict {
                conn: m.conn,
                required_bw: c.bandwidth.bytes_per_sec(),
                achieved_bw,
                required_latency_ns: c.max_latency_ns,
                max_latency_ns,
                mean_latency_ns: m.mean_latency_cycles * cycle_ns,
                bound_ns,
                throughput_ok: achieved_bw
                    >= c.bandwidth.bytes_per_sec() as f64 * (1.0 - throughput_tolerance),
                latency_ok: max_latency_ns <= c.max_latency_ns as f64,
                within_bound,
            }
        })
        .collect();
    ServiceReport { verdicts }
}

/// The smallest frequency (among `candidates_mhz`, ascending) at which a
/// measurement-producing function yields a fully-satisfied service report,
/// or `None` if none does.
///
/// This regenerates the paper's "the NoC requires an operating frequency
/// of more than 900 MHz before the latency observed during simulation is
/// lower than requested for all connections" — the caller's closure runs
/// the best-effort simulator at each candidate frequency.
pub fn minimum_satisfying_frequency<F>(candidates_mhz: &[u64], mut run_at: F) -> Option<u64>
where
    F: FnMut(u64) -> ServiceReport,
{
    candidates_mhz.iter().copied().find(|&f| run_at(f).all_ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::allocate;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::ids::NiId;
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::Bandwidth;

    fn spec_one() -> SystemSpec {
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(100), 400);
        b.build()
    }

    fn measured(conn: ConnId, bytes: u64, max_lat: u64) -> MeasuredService {
        MeasuredService {
            conn,
            bytes,
            min_latency_cycles: 10,
            mean_latency_cycles: max_lat as f64 / 2.0,
            max_latency_cycles: max_lat,
        }
    }

    #[test]
    fn satisfied_contract_passes() {
        let spec = spec_one();
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        // 100 MB/s over 500k cycles at 500 MHz = 100e6 * 1e-3 s = 100 kB.
        let m = [measured(conn, 100_000, 50)];
        let report = verify_service(&spec, Some(&alloc), &m, 500_000, 0.05);
        assert!(report.all_ok(), "{:?}", report.verdicts);
        assert!(report.verdict(conn).bound_ns.is_some());
    }

    #[test]
    fn throughput_shortfall_detected() {
        let spec = spec_one();
        let conn = spec.connections()[0].id;
        let m = [measured(conn, 10_000, 50)]; // 10x short
        let report = verify_service(&spec, None, &m, 500_000, 0.05);
        assert!(!report.all_ok());
        let v = report.verdict(conn);
        assert!(!v.throughput_ok);
        assert!(v.latency_ok);
        assert_eq!(report.violations().count(), 1);
    }

    #[test]
    fn latency_violation_detected() {
        let spec = spec_one();
        let conn = spec.connections()[0].id;
        // 400 ns at 2 ns/cycle = 200 cycles; 250 exceeds it.
        let m = [measured(conn, 100_000, 250)];
        let report = verify_service(&spec, None, &m, 500_000, 0.05);
        assert!(!report.verdict(conn).latency_ok);
    }

    #[test]
    fn bound_check_only_with_allocation() {
        let spec = spec_one();
        let conn = spec.connections()[0].id;
        let m = [measured(conn, 100_000, 5_000)];
        // Without allocation: no bound computed, within_bound trivially ok.
        let be = verify_service(&spec, None, &m, 500_000, 0.05);
        assert!(be.verdict(conn).bound_ns.is_none());
        assert!(be.verdict(conn).within_bound);
        // With allocation: 5000 cycles far exceeds any bound.
        let alloc = allocate(&spec).unwrap();
        let gs = verify_service(&spec, Some(&alloc), &m, 500_000, 0.05);
        assert!(!gs.verdict(conn).within_bound);
    }

    #[test]
    fn minimum_frequency_sweep_finds_crossover() {
        // A fake system that satisfies its contract from 900 MHz upward.
        let spec = spec_one();
        let conn = spec.connections()[0].id;
        let f = minimum_satisfying_frequency(&[500, 700, 900, 1100], |mhz| {
            let lat = if mhz >= 900 { 50 } else { 500 };
            verify_service(&spec, None, &[measured(conn, 100_000, lat)], 500_000, 0.05)
        });
        assert_eq!(f, Some(900));
    }

    #[test]
    fn minimum_frequency_none_when_unsatisfiable() {
        let spec = spec_one();
        let conn = spec.connections()[0].id;
        let f = minimum_satisfying_frequency(&[500, 600], |_| {
            verify_service(&spec, None, &[measured(conn, 0, 9_999)], 500_000, 0.05)
        });
        assert_eq!(f, None);
    }

    #[test]
    fn verdict_display_flags_violations() {
        let spec = spec_one();
        let conn = spec.connections()[0].id;
        let report = verify_service(&spec, None, &[measured(conn, 0, 9_999)], 500_000, 0.05);
        let text = report.verdict(conn).to_string();
        assert!(text.contains("VIOLATED"), "{text}");
    }
}
