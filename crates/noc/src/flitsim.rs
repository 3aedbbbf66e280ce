//! Fast flit-level TDM simulator.
//!
//! Because aelite is contention-free, the network-side timing of every
//! flit is *deterministic*: a flit injected in slot *t* is delivered
//! exactly `n_links * slots_per_hop` slots later, with no queueing
//! anywhere inside the network. This simulator exploits that to run the
//! paper's 200-connection experiment (Section VII) quickly: it models NI
//! state (message arrival, slot tables, end-to-end credits) exactly and
//! replaces the network pipeline by its closed-form delay
//! ([`aelite_spec::timing::pipeline_cycles`]).
//!
//! The abstraction is checked against the cycle-accurate models in
//! `tests/flitsim_vs_cycle.rs`. Delivery cycles agree exactly only when
//! both see the same arrivals: when every CBR interval is a whole number
//! of cycles, or when the sources saturate. Otherwise they differ by
//! arrival quantisation. This simulator steps a fractional 48.16
//! fixed-point interval ([`aelite_spec::traffic::message_arrivals`]),
//! while the cycle-accurate sources round it up to whole cycles
//! (`cbr_traffic_params`).

use crate::network::CREDIT_RETURN_CYCLES;
use aelite_alloc::allocate::Allocation;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;
use aelite_spec::timing::pipeline_cycles;
use aelite_spec::traffic::{message_arrivals, TrafficPattern};
use std::collections::VecDeque;

/// Configuration of a flit-level run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlitSimConfig {
    /// Simulated duration in clock cycles.
    pub duration_cycles: u64,
    /// Record every delivery cycle per connection (needed for the
    /// composability equality check; costs memory).
    pub record_timestamps: bool,
}

impl Default for FlitSimConfig {
    fn default() -> Self {
        FlitSimConfig {
            duration_cycles: 300_000,
            record_timestamps: false,
        }
    }
}

/// Per-connection results of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnStats {
    /// The connection.
    pub conn: ConnId,
    /// Flits delivered.
    pub flits: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Minimum observed flit latency, in cycles.
    pub min_latency: u64,
    /// Maximum observed flit latency, in cycles.
    pub max_latency: u64,
    /// Sum of flit latencies (for the mean), in cycles.
    pub latency_sum: u64,
    /// Delivery cycle of every flit, when recording was enabled.
    pub timestamps: Vec<u64>,
}

impl ConnStats {
    fn new(conn: ConnId) -> Self {
        ConnStats {
            conn,
            flits: 0,
            bytes: 0,
            min_latency: u64::MAX,
            max_latency: 0,
            latency_sum: 0,
            timestamps: Vec::new(),
        }
    }

    /// Mean flit latency in cycles, or `None` before any delivery.
    #[must_use]
    pub fn mean_latency(&self) -> Option<f64> {
        (self.flits > 0).then(|| self.latency_sum as f64 / self.flits as f64)
    }
}

/// The results of one flit-level run.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Per-connection statistics, in the order of the simulated spec's
    /// connection list.
    pub per_conn: Vec<ConnStats>,
    /// Simulated duration in cycles.
    pub duration_cycles: u64,
}

impl TrafficReport {
    /// The stats of `conn`.
    ///
    /// # Panics
    ///
    /// Panics if `conn` was not simulated.
    #[must_use]
    pub fn conn(&self, conn: ConnId) -> &ConnStats {
        self.per_conn
            .iter()
            .find(|s| s.conn == conn)
            .unwrap_or_else(|| panic!("{conn} not simulated"))
    }
}

#[derive(Debug)]
struct ConnState {
    /// Payload bytes one flit carries.
    payload_bytes: u64,
    /// Delivery delay in cycles (the network pipeline).
    pipeline: u64,
    /// The source always has data ready.
    saturating: bool,
    /// Bytes per message (per burst when bursty).
    message_bytes: u64,
    /// Next message arrival in 48.16 fixed-point cycles (avoids drift).
    next_arrival_fp: u64,
    interval_fp: u64,
    /// Queue of (arrival_cycle, remaining_bytes).
    queue: VecDeque<(u64, u64)>,
    /// Credits in payload bytes.
    credits: i64,
    /// In-flight credit returns (cycle, bytes) in cycle order.
    credit_returns: VecDeque<(u64, u64)>,
    /// Cycle at which the previously injected flit's slot ended: a flit
    /// is only *ready* once its predecessor left the NI, so per-flit
    /// latency excludes serialisation behind earlier flits (matching the
    /// paper's per-flit latency and the analytical bound).
    ready_floor: u64,
    stats: ConnStats,
}

/// The flit-level simulator.
///
/// # Examples
///
/// ```
/// use aelite_alloc::allocate;
/// use aelite_noc::flitsim::{FlitSim, FlitSimConfig};
/// use aelite_spec::generate::paper_workload;
///
/// let spec = paper_workload(42);
/// let alloc = allocate(&spec)?;
/// let report = FlitSim::new(&spec, &alloc).run(FlitSimConfig {
///     duration_cycles: 30_000,
///     ..FlitSimConfig::default()
/// });
/// assert_eq!(report.per_conn.len(), 200);
/// # Ok::<(), aelite_alloc::AllocError>(())
/// ```
#[derive(Debug)]
pub struct FlitSim<'a> {
    spec: &'a SystemSpec,
    alloc: &'a Allocation,
}

impl<'a> FlitSim<'a> {
    /// Prepares a simulator for `spec` under `alloc`.
    ///
    /// `alloc` may cover a superset of `spec`'s connections (the
    /// composability experiments simulate one application against the
    /// full-system allocation).
    ///
    /// # Panics
    ///
    /// Panics if any of `spec`'s connections lacks a grant in `alloc`.
    #[must_use]
    pub fn new(spec: &'a SystemSpec, alloc: &'a Allocation) -> Self {
        for c in spec.connections() {
            assert!(
                alloc.grant(c.id).is_some(),
                "{} has no grant in the supplied allocation",
                c.id
            );
        }
        FlitSim { spec, alloc }
    }

    /// Runs the simulation and collects per-connection statistics.
    #[must_use]
    pub fn run(&self, cfg: FlitSimConfig) -> TrafficReport {
        let ncfg = self.spec.config();
        let slot_cycles = u64::from(ncfg.slot_cycles());
        let table = u64::from(ncfg.slot_table_size);
        let payload_bytes =
            u64::from(ncfg.payload_words_per_flit()) * u64::from(ncfg.data_width_bytes());

        // Per-slot injection lists and per-connection state.
        let mut slot_conns: Vec<Vec<usize>> = vec![Vec::new(); table as usize];
        let mut states: Vec<ConnState> = Vec::with_capacity(self.spec.connections().len());
        for (i, c) in self.spec.connections().iter().enumerate() {
            let grant = self.alloc.grant(c.id).expect("checked in new");
            for &s in &grant.inject_slots {
                slot_conns[s as usize].push(i);
            }
            let (message_bytes, interval_fp) = message_arrivals(c, ncfg.frequency_mhz);
            states.push(ConnState {
                payload_bytes,
                pipeline: pipeline_cycles(ncfg, grant.links.len()),
                saturating: c.pattern == TrafficPattern::Saturating,
                message_bytes,
                next_arrival_fp: 0,
                interval_fp,
                queue: VecDeque::new(),
                credits: i64::from(ncfg.ni_buffer_words) * i64::from(ncfg.data_width_bytes()),
                credit_returns: VecDeque::new(),
                ready_floor: 0,
                stats: ConnStats::new(c.id),
            });
        }

        let total_slots = cfg.duration_cycles / slot_cycles;
        for t in 0..total_slots {
            let cycle = t * slot_cycles;
            for &ci in &slot_conns[(t % table) as usize] {
                let st = &mut states[ci];

                // Credits that have come home by now.
                while st
                    .credit_returns
                    .front()
                    .is_some_and(|&(ret, _)| ret <= cycle)
                {
                    let (_, bytes) = st.credit_returns.pop_front().expect("checked front");
                    st.credits += bytes as i64;
                }

                // Offered load up to this cycle.
                if st.saturating {
                    if st.queue.is_empty() {
                        st.queue.push_back((cycle, u64::MAX / 2));
                    }
                } else {
                    while st.next_arrival_fp <= cycle << 16 {
                        st.queue
                            .push_back((st.next_arrival_fp >> 16, st.message_bytes));
                        st.next_arrival_fp += st.interval_fp;
                    }
                }

                // Inject one flit if data and credits allow.
                let Some(&(arrival, remaining)) = st.queue.front() else {
                    continue;
                };
                if arrival > cycle {
                    continue;
                }
                let send = remaining.min(st.payload_bytes);
                if (send as i64) > st.credits {
                    continue; // back-pressure: the slot idles
                }
                st.credits -= send as i64;
                if remaining > send {
                    st.queue.front_mut().expect("non-empty").1 -= send;
                } else {
                    st.queue.pop_front();
                }

                let delivered = t * slot_cycles + st.pipeline;
                let ready = arrival.max(st.ready_floor);
                st.ready_floor = (t + 1) * slot_cycles;
                if delivered > cfg.duration_cycles {
                    continue; // flit lands after the measurement window
                }
                let latency = delivered - ready;
                st.stats.flits += 1;
                st.stats.bytes += send;
                st.stats.min_latency = st.stats.min_latency.min(latency);
                st.stats.max_latency = st.stats.max_latency.max(latency);
                st.stats.latency_sum += latency;
                if cfg.record_timestamps {
                    st.stats.timestamps.push(delivered);
                }
                st.credit_returns
                    .push_back((delivered + CREDIT_RETURN_CYCLES, send));
            }
        }

        TrafficReport {
            per_conn: states.into_iter().map(|s| s.stats).collect(),
            duration_cycles: cfg.duration_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::allocate;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::generate::paper_workload;
    use aelite_spec::ids::NiId;
    use aelite_spec::traffic::Bandwidth;

    impl ConnStats {
        /// Achieved throughput in bytes per second at `frequency_mhz`, over
        /// `duration_cycles`.
        fn throughput_bytes_per_sec(&self, frequency_mhz: u64, duration_cycles: u64) -> f64 {
            if duration_cycles == 0 {
                return 0.0;
            }
            self.bytes as f64 * frequency_mhz as f64 * 1e6 / duration_cycles as f64
        }
    }

    fn small_spec(pattern: TrafficPattern, bw_mb: u64) -> SystemSpec {
        let topo = aelite_spec::topology::Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        b.add_connection_with(
            app,
            s,
            d,
            Bandwidth::from_mbytes_per_sec(bw_mb),
            1_000,
            pattern,
            16,
        );
        b.build()
    }

    #[test]
    fn saturating_source_achieves_allocated_bandwidth() {
        let spec = small_spec(TrafficPattern::Saturating, 100);
        let alloc = allocate(&spec).unwrap();
        let report = FlitSim::new(&spec, &alloc).run(FlitSimConfig {
            duration_cycles: 192_000, // 1000 table revolutions
            ..FlitSimConfig::default()
        });
        let stats = &report.per_conn[0];
        let conn = spec.connections()[0].id;
        let achieved = stats.throughput_bytes_per_sec(500, report.duration_cycles);
        let allocated = alloc.allocated_bandwidth(&spec, conn).bytes_per_sec() as f64;
        assert!(
            achieved >= allocated * 0.98,
            "achieved {achieved} vs allocated {allocated}"
        );
    }

    #[test]
    fn cbr_source_achieves_contract() {
        let spec = small_spec(TrafficPattern::ConstantRate, 100);
        let alloc = allocate(&spec).unwrap();
        let report = FlitSim::new(&spec, &alloc).run(FlitSimConfig {
            duration_cycles: 192_000,
            ..FlitSimConfig::default()
        });
        let achieved = report.per_conn[0].throughput_bytes_per_sec(500, report.duration_cycles);
        assert!(
            achieved >= 98e6,
            "CBR at 100 MB/s delivered only {achieved} B/s"
        );
    }

    #[test]
    fn latency_stays_within_analytical_bound() {
        let spec = small_spec(TrafficPattern::ConstantRate, 50);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let report = FlitSim::new(&spec, &alloc).run(FlitSimConfig {
            duration_cycles: 192_000,
            ..FlitSimConfig::default()
        });
        let bound = alloc.worst_case_latency_cycles(&spec, conn);
        let measured = report.per_conn[0].max_latency;
        assert!(
            measured <= bound,
            "measured max {measured} exceeds bound {bound}"
        );
        assert!(report.per_conn[0].min_latency > 0);
    }

    #[test]
    fn paper_workload_meets_every_contract_at_500mhz() {
        // The headline GS claim of Section VII: every one of the 200
        // connections meets throughput and latency at 500 MHz.
        let spec = paper_workload(42);
        let alloc = allocate(&spec).unwrap();
        let report = FlitSim::new(&spec, &alloc).run(FlitSimConfig {
            duration_cycles: 200_000,
            ..FlitSimConfig::default()
        });
        let cycle_ns = spec.config().cycle_ns();
        for c in spec.connections() {
            let stats = report.conn(c.id);
            assert!(stats.flits > 0, "{} never delivered", c.id);
            let max_ns = stats.max_latency as f64 * cycle_ns;
            assert!(
                max_ns <= c.max_latency_ns as f64,
                "{}: measured {max_ns:.1} ns > required {} ns",
                c.id,
                c.max_latency_ns
            );
            let achieved = stats.throughput_bytes_per_sec(spec.config().frequency_mhz, 200_000);
            assert!(
                achieved >= c.bandwidth.bytes_per_sec() as f64 * 0.95,
                "{}: achieved {achieved} of {}",
                c.id,
                c.bandwidth.bytes_per_sec()
            );
        }
    }

    #[test]
    fn composability_timestamps_identical_in_isolation() {
        // Per-flit delivery times of app 0 are bit-identical whether the
        // other three applications run or not — the paper's composability
        // claim, checked at scale.
        let spec = paper_workload(7);
        let alloc = allocate(&spec).unwrap();
        let cfg = FlitSimConfig {
            duration_cycles: 60_000,
            record_timestamps: true,
        };
        let full = FlitSim::new(&spec, &alloc).run(cfg);
        let only0 = spec.restricted_to(&[aelite_spec::ids::AppId::new(0)]);
        let isolated = FlitSim::new(&only0, &alloc).run(cfg);
        for c in only0.connections() {
            assert_eq!(
                full.conn(c.id).timestamps,
                isolated.conn(c.id).timestamps,
                "{} timing changed when other applications were removed",
                c.id
            );
        }
    }

    #[test]
    fn oversubscription_is_clipped_to_the_reservation() {
        // An IP offering more than its contract only slows itself down
        // (paper Section IV-A): delivery is capped by the reserved slots.
        let topo = aelite_spec::topology::Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        b.add_connection_with(
            app,
            s,
            d,
            Bandwidth::from_mbytes_per_sec(20),
            2_000,
            TrafficPattern::Saturating,
            16,
        );
        let spec = b.build();
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let report = FlitSim::new(&spec, &alloc).run(FlitSimConfig {
            duration_cycles: 192_000,
            ..FlitSimConfig::default()
        });
        let achieved = report.per_conn[0].throughput_bytes_per_sec(500, report.duration_cycles);
        let allocated = alloc.allocated_bandwidth(&spec, conn).bytes_per_sec() as f64;
        assert!(
            achieved <= allocated * 1.02,
            "offender exceeded its reservation: {achieved} > {allocated}"
        );
    }

    #[test]
    fn bursty_pattern_does_not_reduce_worst_latency() {
        let cbr_spec = small_spec(TrafficPattern::ConstantRate, 50);
        let bursty_spec = small_spec(
            TrafficPattern::Bursty {
                burst_bytes: 64,
                period_ns: 1_280, // same 50 MB/s average
            },
            50,
        );
        let run = |spec: &SystemSpec| {
            let alloc = allocate(spec).unwrap();
            let r = FlitSim::new(spec, &alloc).run(FlitSimConfig {
                duration_cycles: 192_000,
                ..FlitSimConfig::default()
            });
            r.per_conn[0].max_latency
        };
        assert!(run(&bursty_spec) >= run(&cbr_spec));
    }

    #[test]
    #[should_panic(expected = "has no grant")]
    fn missing_grant_is_rejected() {
        let spec = small_spec(TrafficPattern::ConstantRate, 10);
        let empty_spec = {
            let topo = aelite_spec::topology::Topology::mesh(2, 1, 1);
            SystemSpecBuilder::new(topo, NocConfig::paper_default()).build()
        };
        let empty_alloc = allocate(&empty_spec).unwrap();
        let _ = FlitSim::new(&spec, &empty_alloc);
    }

    #[test]
    fn report_conn_lookup() {
        let spec = small_spec(TrafficPattern::ConstantRate, 10);
        let alloc = allocate(&spec).unwrap();
        let report = FlitSim::new(&spec, &alloc).run(FlitSimConfig {
            duration_cycles: 19_200,
            ..FlitSimConfig::default()
        });
        let id = spec.connections()[0].id;
        assert_eq!(report.conn(id).conn, id);
        assert!(report.conn(id).mean_latency().is_some());
    }
}
