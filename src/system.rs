//! The end-to-end aelite system: specify → allocate → simulate → verify.
//!
//! [`AeliteSystem`] is the front door of the library: it takes a
//! [`SystemSpec`], runs the allocation flow, independently validates the
//! result, and exposes guaranteed-service queries, simulation and
//! verification — the workflow a user of the paper's design flow follows.

use crate::analysis::composability::{compare_timelines, ComposabilityResult, Timeline};
use crate::analysis::service::{verify_service, MeasuredService, ServiceReport};
use aelite_alloc::allocate::{AllocError, Allocation, Allocator};
use aelite_alloc::validate::{validate, Violation};
use aelite_noc::flitsim::{FlitSim, FlitSimConfig, TrafficReport};
use aelite_online::{AdmissionError, AdmissionRequest, ChurnEngine};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::{AppId, ConnId};
use aelite_spec::traffic::Bandwidth;
use core::fmt;

/// Why a system could not be designed.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignError {
    /// The NoC configuration is internally inconsistent.
    InvalidConfig(String),
    /// The allocator could not satisfy every contract.
    Allocation(AllocError),
    /// A reconfiguration's additions could not all be admitted; the
    /// system is as it was before the call.
    Admission(AdmissionError),
    /// The allocator produced an allocation the independent validator
    /// rejects — an internal error worth surfacing loudly.
    Validation(Vec<Violation>),
}

impl fmt::Display for DesignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DesignError::Allocation(e) => write!(f, "allocation failed: {e}"),
            DesignError::Admission(e) => write!(f, "reconfiguration refused: {e}"),
            DesignError::Validation(v) => {
                write!(f, "allocation failed validation ({} violations)", v.len())
            }
        }
    }
}

impl std::error::Error for DesignError {}

impl From<AllocError> for DesignError {
    fn from(e: AllocError) -> Self {
        DesignError::Allocation(e)
    }
}

/// Accepted throughput shortfall fraction for CBR sources in
/// [`AeliteSystem::simulate`]'s service verdicts.
const THROUGHPUT_TOLERANCE: f64 = 0.05;

/// Options for a guaranteed-service simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Simulated duration in clock cycles.
    pub duration_cycles: u64,
    /// Record per-flit delivery timelines (needed for composability).
    pub record_timestamps: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            duration_cycles: 300_000,
            record_timestamps: false,
        }
    }
}

/// A simulation outcome: raw measurements plus the service verdicts.
#[derive(Debug, Clone)]
pub struct SimulationOutcome {
    /// Raw per-connection measurements.
    pub report: TrafficReport,
    /// Contract/bound verdicts.
    pub service: ServiceReport,
}

/// A fully designed aelite system: a specification plus its validated
/// contention-free allocation.
///
/// # Examples
///
/// ```
/// use aelite::system::{AeliteSystem, SimOptions};
/// use aelite_spec::generate::paper_workload;
///
/// let system = AeliteSystem::design(paper_workload(42))?;
/// let outcome = system.simulate(SimOptions {
///     duration_cycles: 60_000,
///     ..SimOptions::default()
/// });
/// assert!(outcome.service.all_ok());
/// # Ok::<(), aelite::system::DesignError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AeliteSystem {
    spec: SystemSpec,
    allocation: Allocation,
}

impl AeliteSystem {
    /// Designs a system: validates the configuration, allocates every
    /// connection and independently validates the allocation.
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] when the configuration is inconsistent,
    /// a contract cannot be satisfied, or (internal error) the produced
    /// allocation fails validation.
    pub fn design(spec: SystemSpec) -> Result<Self, DesignError> {
        spec.config()
            .validate()
            .map_err(DesignError::InvalidConfig)?;
        let allocation = Allocator::new().allocate(&spec)?;
        validate(&spec, &allocation).map_err(DesignError::Validation)?;
        Ok(AeliteSystem { spec, allocation })
    }

    /// The underlying specification.
    #[must_use]
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The validated allocation.
    #[must_use]
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The bandwidth guaranteed to `conn` by its reserved slots.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the system.
    #[must_use]
    pub fn guaranteed_bandwidth(&self, conn: ConnId) -> Bandwidth {
        self.allocation.allocated_bandwidth(&self.spec, conn)
    }

    /// The analytical worst-case per-flit latency of `conn`, ns.
    ///
    /// # Panics
    ///
    /// Panics if `conn` is not part of the system.
    #[must_use]
    pub fn latency_bound_ns(&self, conn: ConnId) -> f64 {
        self.allocation.worst_case_latency_ns(&self.spec, conn)
    }

    /// Runs the flit-level simulator over the full system.
    #[must_use]
    pub fn simulate(&self, opts: SimOptions) -> SimulationOutcome {
        self.simulate_spec(&self.spec, opts)
    }

    /// Runs the flit-level simulator with only `apps` active, against the
    /// full system's allocation — applications are developed and verified
    /// in isolation (the paper's functional-scalability workflow).
    #[must_use]
    pub fn simulate_apps(&self, apps: &[AppId], opts: SimOptions) -> SimulationOutcome {
        let restricted = self.spec.restricted_to(apps);
        self.simulate_spec(&restricted, opts)
    }

    fn simulate_spec(&self, spec: &SystemSpec, opts: SimOptions) -> SimulationOutcome {
        let report = FlitSim::new(spec, &self.allocation).run(FlitSimConfig {
            duration_cycles: opts.duration_cycles,
            record_timestamps: opts.record_timestamps,
        });
        let measured = measured_services(&report);
        let service = verify_service(
            spec,
            Some(&self.allocation),
            &measured,
            opts.duration_cycles,
            THROUGHPUT_TOLERANCE,
        );
        SimulationOutcome { report, service }
    }

    /// Verifies composability: every application's delivery timelines are
    /// bit-identical between the full system and each isolated run.
    #[must_use]
    pub fn verify_composability(&self, opts: SimOptions) -> ComposabilityResult {
        let opts = SimOptions {
            record_timestamps: true,
            ..opts
        };
        let full = self.simulate(opts);
        let reference = timelines(&full.report);
        let mut divergent = Vec::new();
        let mut compared = 0;
        for app in self.spec.apps() {
            let isolated = self.simulate_apps(&[app.id], opts);
            let result = compare_timelines(&reference, &timelines(&isolated.report));
            compared += result.compared;
            divergent.extend(result.divergent);
        }
        ComposabilityResult {
            divergent,
            compared,
        }
    }

    /// Reconfigures the live system to `new_spec` as one use-case switch
    /// ([`AdmissionRequest::Switch`] through [`ChurnEngine::submit`]):
    /// connections that disappeared are released, new ones admitted
    /// hardest-first into the freed resources, and — the undisrupted-QoS
    /// property of the Æthereal flow the paper builds on (\[16\]) —
    /// **every kept connection's grant is left untouched**, so its timing
    /// is bit-identical across the reconfiguration.
    ///
    /// Connection ids must be stable across specs: a connection present
    /// in both is "kept" and must have the same endpoints and contract.
    ///
    /// # Errors
    ///
    /// Returns a [`DesignError`] if the new connections cannot all be
    /// admitted or the resulting allocation fails validation. The switch
    /// runs on a copy that is committed only on success, so after an
    /// error the system — spec, grants and link tables — is exactly as it
    /// was before the call.
    ///
    /// # Panics
    ///
    /// Panics if a kept connection changed its contract or endpoints.
    pub fn reconfigure(&mut self, new_spec: SystemSpec) -> Result<ReconfigReport, DesignError> {
        new_spec
            .config()
            .validate()
            .map_err(DesignError::InvalidConfig)?;
        let old_ids: std::collections::BTreeSet<ConnId> =
            self.spec.connections().iter().map(|c| c.id).collect();
        let new_ids: std::collections::BTreeSet<ConnId> =
            new_spec.connections().iter().map(|c| c.id).collect();
        for &kept in old_ids.intersection(&new_ids) {
            assert_eq!(
                self.spec.connection(kept),
                new_spec.connection(kept),
                "{kept} changed during reconfiguration; release and re-add it instead"
            );
        }
        let released: Vec<ConnId> = old_ids.difference(&new_ids).copied().collect();
        let added: Vec<ConnId> = new_ids.difference(&old_ids).copied().collect();
        let mut next = self.allocation.clone();
        let switch = AdmissionRequest::Switch {
            close: released.clone(),
            open: added.clone(),
        };
        ChurnEngine::new(&new_spec)
            .submit(&new_spec, &mut next, switch)
            .map_err(DesignError::Admission)?;
        validate(&new_spec, &next).map_err(DesignError::Validation)?;
        self.spec = new_spec;
        self.allocation = next;
        Ok(ReconfigReport { released, added })
    }
}

/// What a [`AeliteSystem::reconfigure`] call changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigReport {
    /// Connections torn down.
    pub released: Vec<ConnId>,
    /// Connections newly allocated.
    pub added: Vec<ConnId>,
}

/// Converts a flit-level report into simulator-independent measurements.
#[must_use]
pub fn measured_services(report: &TrafficReport) -> Vec<MeasuredService> {
    report
        .per_conn
        .iter()
        .map(|s| MeasuredService {
            conn: s.conn,
            bytes: s.bytes,
            min_latency_cycles: if s.flits > 0 { s.min_latency } else { 0 },
            mean_latency_cycles: s.mean_latency().unwrap_or(0.0),
            max_latency_cycles: s.max_latency,
        })
        .collect()
}

/// Extracts delivery timelines (requires the run to have recorded
/// timestamps).
#[must_use]
pub fn timelines(report: &TrafficReport) -> Vec<Timeline> {
    report
        .per_conn
        .iter()
        .map(|s| Timeline {
            conn: s.conn,
            deliveries: s.timestamps.clone(),
        })
        .collect()
}

/// Converts a best-effort report into simulator-independent measurements.
#[must_use]
pub fn measured_services_be(report: &aelite_noc::baseline::BeReport) -> Vec<MeasuredService> {
    report
        .per_conn
        .iter()
        .map(|s| MeasuredService {
            conn: s.conn,
            bytes: s.bytes,
            min_latency_cycles: if s.flits > 0 { s.min_latency } else { 0 },
            mean_latency_cycles: s.mean_latency().unwrap_or(0.0),
            max_latency_cycles: s.max_latency,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::Grant;
    use aelite_online::RefusalCause;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::generate::paper_workload;
    use aelite_spec::ids::NiId;
    use aelite_spec::topology::Topology;

    fn quick() -> SimOptions {
        SimOptions {
            duration_cycles: 60_000,
            ..SimOptions::default()
        }
    }

    #[test]
    fn paper_system_designs_and_satisfies_contracts() {
        let system = AeliteSystem::design(paper_workload(42)).unwrap();
        let outcome = system.simulate(quick());
        assert!(outcome.service.all_ok());
        assert_eq!(outcome.service.verdicts.len(), 200);
    }

    #[test]
    fn guarantees_exceed_contracts() {
        let system = AeliteSystem::design(paper_workload(1)).unwrap();
        for c in system.spec().connections() {
            assert!(
                system.guaranteed_bandwidth(c.id).bytes_per_sec() >= c.bandwidth.bytes_per_sec()
            );
            assert!(system.latency_bound_ns(c.id) <= c.max_latency_ns as f64);
        }
    }

    #[test]
    fn composability_holds_for_paper_system() {
        let system = AeliteSystem::design(paper_workload(7)).unwrap();
        let result = system.verify_composability(SimOptions {
            duration_cycles: 30_000,
            ..SimOptions::default()
        });
        assert!(result.is_composable(), "{result}");
        assert!(result.compared >= 200);
    }

    #[test]
    fn isolated_app_meets_contracts_alone() {
        let system = AeliteSystem::design(paper_workload(13)).unwrap();
        let outcome = system.simulate_apps(&[AppId::new(2)], quick());
        assert!(outcome.service.all_ok());
        assert_eq!(outcome.service.verdicts.len(), 50);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let spec = paper_workload(1);
        let bad = spec.at_frequency(0);
        match AeliteSystem::design(bad) {
            Err(DesignError::InvalidConfig(_)) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_spec_reports_allocation_error() {
        // Halving the frequency halves slot bandwidth: the same workload
        // no longer fits.
        let spec = paper_workload(42).at_frequency(120);
        match AeliteSystem::design(spec) {
            Err(DesignError::Allocation(_)) => {}
            other => panic!("expected Allocation error, got {other:?}"),
        }
    }

    #[test]
    fn design_error_display() {
        let e = DesignError::InvalidConfig("bad".into());
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn reconfiguration_preserves_kept_timing_exactly() {
        // Swap application 2 out (and back in, standing in for a new use
        // case): the remaining applications' delivery timelines must be
        // bit-identical before and after — undisrupted QoS.
        let mut system = AeliteSystem::design(paper_workload(42)).unwrap();
        let opts = SimOptions {
            duration_cycles: 30_000,
            record_timestamps: true,
        };
        let kept_apps = [AppId::new(0), AppId::new(1), AppId::new(3)];
        let before = system.simulate_apps(&kept_apps, opts);

        let without_app2 = system.spec().restricted_to(&kept_apps);
        let full = system.spec().clone();
        let report = system.reconfigure(without_app2).unwrap();
        assert_eq!(report.released.len(), 50);
        assert!(report.added.is_empty());
        let during = system.simulate(opts);

        let report = system.reconfigure(full).unwrap();
        assert_eq!(report.added.len(), 50);
        let after = system.simulate_apps(&kept_apps, opts);

        for (b, d) in before.report.per_conn.iter().zip(&during.report.per_conn) {
            assert_eq!(b.timestamps, d.timestamps, "{} moved during", b.conn);
        }
        for (b, a) in before.report.per_conn.iter().zip(&after.report.per_conn) {
            assert_eq!(b.timestamps, a.timestamps, "{} moved after", b.conn);
        }
        // And the re-added application still meets its contracts.
        let app2 = system.simulate_apps(
            &[AppId::new(2)],
            SimOptions {
                duration_cycles: 30_000,
                ..SimOptions::default()
            },
        );
        assert!(app2.service.all_ok());
    }

    #[test]
    fn reconfiguration_leaves_bystander_grants_bit_identical() {
        // One call that both releases (application 2) and adds
        // (application 3): every grant of the kept applications is the
        // same value afterwards — undisrupted QoS at the slot level.
        let full = paper_workload(42);
        let before_apps = [AppId::new(0), AppId::new(1), AppId::new(2)];
        let after_apps = [AppId::new(0), AppId::new(1), AppId::new(3)];
        let mut system = AeliteSystem::design(full.restricted_to(&before_apps)).unwrap();
        let kept: Vec<Grant> = system
            .allocation()
            .grants()
            .filter(|g| full.connection(g.conn).app != AppId::new(2))
            .cloned()
            .collect();
        assert_eq!(kept.len(), 100);

        let report = system.reconfigure(full.restricted_to(&after_apps)).unwrap();
        assert_eq!((report.released.len(), report.added.len()), (50, 50));
        for g in &kept {
            assert_eq!(
                system.allocation().grant(g.conn),
                Some(g),
                "{} moved",
                g.conn
            );
        }
        assert_eq!(system.allocation().grants().count(), 150);
    }

    #[test]
    fn failed_reconfiguration_leaves_the_system_unchanged() {
        // A 2-router platform whose one link carries ~1.33 GB/s: the new
        // use case drops `leaving` and adds two 800 MB/s flows, of which
        // only the first fits beside the 400 MB/s resident.
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("app");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        let resident = b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(400), 10_000);
        let leaving = b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(100), 10_000);
        let h1 = b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(800), 10_000);
        let h2 = b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(800), 10_000);
        let full = b.build();

        let mut system =
            AeliteSystem::design(full.restricted_to_connections(&[resident, leaving])).unwrap();
        let before = system.clone();

        let err = system
            .reconfigure(full.restricted_to_connections(&[resident, h1, h2]))
            .expect_err("two 800 MB/s flows cannot share the link with the resident");

        assert_eq!(system.spec().connections(), before.spec().connections());
        for c in [resident, leaving, h1, h2] {
            assert_eq!(
                system.allocation().grant(c),
                before.allocation().grant(c),
                "grant of {c} changed"
            );
        }
        for l in full.topology().links() {
            assert_eq!(
                system.allocation().link_table(l),
                before.allocation().link_table(l),
                "table of {l} changed"
            );
        }
        assert!(system.simulate(quick()).service.all_ok());

        // The refusal is the engine's, structured: the first heavy flow
        // was admitted and rolled back, the second found too few slots.
        match err {
            DesignError::Admission(e) => {
                assert_eq!(e.rolled_back, 1);
                assert!(
                    matches!(e.cause, RefusalCause::NoSlots { needed, free } if needed > free),
                    "{e}"
                );
            }
            other => panic!("expected an admission refusal, got {other:?}"),
        }
        assert!(err.to_string().contains("reconfiguration refused"), "{err}");
    }

    #[test]
    fn same_spec_reconfiguration_is_a_noop() {
        let mut system = AeliteSystem::design(paper_workload(1)).unwrap();
        let same = system.spec().clone();
        let report = system.reconfigure(same).unwrap();
        assert!(report.released.is_empty() && report.added.is_empty());
    }
}
