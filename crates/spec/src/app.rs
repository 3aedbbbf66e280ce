//! Applications, connections and the complete system specification.
//!
//! An *application* is a set of logical *connections* between IP ports that
//! is developed and verified as a unit (paper Section I). aelite's central
//! promise — composability — is that the timing of one application's
//! connections is unaffected by every other application.

use crate::config::NocConfig;
use crate::ids::{AppId, ConnId, IpId, NiId};
use crate::topology::Topology;
use crate::traffic::{Bandwidth, TrafficPattern};
use core::fmt;

/// A logical connection between a source IP and a destination IP, with its
/// guaranteed-service contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Unique id within the system.
    pub id: ConnId,
    /// Owning application.
    pub app: AppId,
    /// Data-producing IP core.
    pub src: IpId,
    /// Data-consuming IP core.
    pub dst: IpId,
    /// Contracted minimum throughput.
    pub bandwidth: Bandwidth,
    /// Contracted maximum latency (injection at source NI to delivery at
    /// destination NI) in nanoseconds.
    pub max_latency_ns: u64,
    /// Offered-load pattern used during simulation.
    pub pattern: TrafficPattern,
    /// Message size in bytes used by the traffic generator.
    pub message_bytes: u32,
}

impl fmt::Display for Connection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} -> {}, {}, <= {} ns",
            self.id, self.app, self.src, self.dst, self.bandwidth, self.max_latency_ns
        )
    }
}

/// An application: a named group of connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Application {
    /// Unique id within the system.
    pub id: AppId,
    /// Human-readable name (e.g. "video decoder").
    pub name: String,
}

impl fmt::Display for Application {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id, self.name)
    }
}

/// A complete system specification: platform + mapping + use cases.
///
/// This is the input to the allocation flow ([`aelite-alloc`]) and, after
/// allocation, to the simulators.
///
/// [`aelite-alloc`]: https://docs.rs/aelite-alloc
///
/// # Examples
///
/// ```
/// use aelite_spec::app::SystemSpecBuilder;
/// use aelite_spec::config::NocConfig;
/// use aelite_spec::topology::Topology;
/// use aelite_spec::traffic::Bandwidth;
///
/// let topo = Topology::mesh(2, 2, 1);
/// let nis: Vec<_> = topo.nis().collect();
/// let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
/// let app = b.add_app("camera pipeline");
/// let cam = b.add_ip_at(nis[0]);
/// let mem = b.add_ip_at(nis[3]);
/// b.add_connection(app, cam, mem, Bandwidth::from_mbytes_per_sec(100), 500);
/// let spec = b.build();
/// assert_eq!(spec.connections().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SystemSpec {
    topology: Topology,
    config: NocConfig,
    apps: Vec<Application>,
    connections: Vec<Connection>,
    /// NI hosting each IP, indexed by `IpId`.
    mapping: Vec<NiId>,
    /// Cached largest connection id plus one; kept in sync by every
    /// constructor and connection-retaining copy so `conn_id_bound` is
    /// O(1) on the online admission hot path.
    conn_bound: usize,
}

impl SystemSpec {
    /// The platform topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The NoC-wide configuration.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// All applications.
    #[must_use]
    pub fn apps(&self) -> &[Application] {
        &self.apps
    }

    /// All connections, in ascending id order. In a spec built by
    /// [`SystemSpecBuilder`] position and [`ConnId::index`] coincide; in
    /// a [`restricted_to`](Self::restricted_to) copy they do not (ids are
    /// kept, positions close up), so look connections up by id with
    /// [`find_connection`](Self::find_connection), not by indexing this.
    #[must_use]
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// The connection with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this spec.
    #[must_use]
    pub fn connection(&self, id: ConnId) -> &Connection {
        self.find_connection(id)
            .unwrap_or_else(|| panic!("{id} not in this spec"))
    }

    /// The connection with id `id`, or `None` if this spec does not
    /// contain it (an id past [`conn_id_bound`](Self::conn_id_bound), or
    /// one a restricted view left out).
    ///
    /// O(1) where position and id coincide — every built spec, and the
    /// prefix of a restricted one — by probing `connections[id.index()]`
    /// and checking its id; a binary search by id otherwise, since
    /// connections keep their global ids in
    /// [`restricted_to`](Self::restricted_to) copies.
    #[must_use]
    pub fn find_connection(&self, id: ConnId) -> Option<&Connection> {
        match self.connections.get(id.index()) {
            Some(c) if c.id == id => Some(c),
            _ => {
                let i = self.connections.binary_search_by_key(&id, |c| c.id).ok()?;
                Some(&self.connections[i])
            }
        }
    }

    /// The largest connection id plus one — the size needed for dense
    /// per-connection arrays that stay valid across restricted specs.
    ///
    /// O(1): the bound is computed when the spec is built and maintained
    /// by the restricting copies, so per-round callers (grant sizing,
    /// `Allocator::begin_round`, `build_turbo`) never rescan the
    /// connection list.
    #[must_use]
    pub fn conn_id_bound(&self) -> usize {
        debug_assert_eq!(
            self.conn_bound,
            Self::scan_conn_bound(&self.connections),
            "cached conn_id_bound out of sync with connection list"
        );
        self.conn_bound
    }

    /// The O(connections) scan the cache replaces; still the source of
    /// truth at construction time and in debug assertions.
    fn scan_conn_bound(connections: &[Connection]) -> usize {
        connections
            .iter()
            .map(|c| c.id.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Number of IP cores.
    #[must_use]
    pub fn ip_count(&self) -> usize {
        self.mapping.len()
    }

    /// The NI hosting `ip`.
    ///
    /// # Panics
    ///
    /// Panics if `ip` does not belong to this spec.
    #[must_use]
    pub fn ip_ni(&self, ip: IpId) -> NiId {
        self.mapping[ip.index()]
    }

    /// The connections belonging to `app`.
    pub fn app_connections(&self, app: AppId) -> impl Iterator<Item = &Connection> + '_ {
        self.connections.iter().filter(move |c| c.app == app)
    }

    /// A copy of this spec containing only the connections of `apps` —
    /// used by the composability experiments to run applications in
    /// isolation while keeping ids stable.
    ///
    /// Connection ids are preserved (they keep their global index), so
    /// per-connection results of the restricted and full systems can be
    /// compared directly.
    #[must_use]
    pub fn restricted_to(&self, apps: &[AppId]) -> SystemSpec {
        let mut copy = self.clone();
        copy.connections.retain(|c| apps.contains(&c.app));
        copy.conn_bound = Self::scan_conn_bound(&copy.connections);
        copy
    }

    /// A copy of this spec containing only the listed connections (ids
    /// preserved, order kept) — the "surviving set" view the online
    /// churn flow validates and re-allocates against after a stream of
    /// setups and teardowns.
    #[must_use]
    pub fn restricted_to_connections(&self, conns: &[ConnId]) -> SystemSpec {
        let keep: std::collections::HashSet<ConnId> = conns.iter().copied().collect();
        let mut copy = self.clone();
        copy.connections.retain(|c| keep.contains(&c.id));
        copy.conn_bound = Self::scan_conn_bound(&copy.connections);
        copy
    }

    /// A copy of this spec at a different operating frequency — used by
    /// the frequency sweeps of the evaluation (requirements, topology and
    /// mapping are unchanged; slot bandwidths scale with the clock).
    #[must_use]
    pub fn at_frequency(&self, frequency_mhz: u64) -> SystemSpec {
        let mut copy = self.clone();
        copy.config = copy.config.at_frequency(frequency_mhz);
        copy
    }

    /// A copy of this spec with `stages` mesochronous link pipeline
    /// stages per link and every latency contract scaled by
    /// `latency_factor` — used to re-target a drawn workload at the
    /// mesochronous organisation (paper Section V), where each hop costs
    /// an extra TDM slot and contracts drawn for the synchronous NoC may
    /// no longer be meetable.
    #[must_use]
    pub fn with_link_pipeline_stages(&self, stages: u32, latency_factor: u64) -> SystemSpec {
        let mut copy = self.clone();
        copy.config.link_pipeline_stages = stages;
        for c in &mut copy.connections {
            c.max_latency_ns = c.max_latency_ns.saturating_mul(latency_factor);
        }
        copy
    }

    /// A copy of this spec with every connection's offered-load pattern
    /// replaced by `pattern` — contracts, mapping and ids are unchanged,
    /// so allocations carry over directly. Used by the simulator
    /// cross-validation tests to drive one workload under different
    /// traffic regimes.
    #[must_use]
    pub fn with_pattern(&self, pattern: TrafficPattern) -> SystemSpec {
        let mut copy = self.clone();
        for c in &mut copy.connections {
            c.pattern = pattern;
        }
        copy
    }
}

/// Builder for [`SystemSpec`].
#[derive(Debug)]
pub struct SystemSpecBuilder {
    topology: Topology,
    config: NocConfig,
    apps: Vec<Application>,
    connections: Vec<Connection>,
    mapping: Vec<NiId>,
}

impl SystemSpecBuilder {
    /// Starts a spec on the given platform.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`NocConfig::validate`].
    #[must_use]
    pub fn new(topology: Topology, config: NocConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid NoC configuration: {e}");
        }
        SystemSpecBuilder {
            topology,
            config,
            apps: Vec::new(),
            connections: Vec::new(),
            mapping: Vec::new(),
        }
    }

    /// The platform topology (for choosing NIs while building).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Registers an application.
    pub fn add_app(&mut self, name: impl Into<String>) -> AppId {
        let id = AppId::new(self.apps.len() as u32);
        self.apps.push(Application {
            id,
            name: name.into(),
        });
        id
    }

    /// Places a new IP core on `ni`.
    ///
    /// Several IPs may share one NI (the paper's platform maps 70 IPs onto
    /// 48 NIs).
    ///
    /// # Panics
    ///
    /// Panics if `ni` is not part of the topology.
    pub fn add_ip_at(&mut self, ni: NiId) -> IpId {
        assert!(
            ni.index() < self.topology.ni_count(),
            "{ni} is not part of the topology"
        );
        let id = IpId::new(self.mapping.len() as u32);
        self.mapping.push(ni);
        id
    }

    /// Adds a constant-rate connection with a 16-byte message size.
    ///
    /// Use [`add_connection_with`](Self::add_connection_with) for full
    /// control.
    pub fn add_connection(
        &mut self,
        app: AppId,
        src: IpId,
        dst: IpId,
        bandwidth: Bandwidth,
        max_latency_ns: u64,
    ) -> ConnId {
        self.add_connection_with(
            app,
            src,
            dst,
            bandwidth,
            max_latency_ns,
            TrafficPattern::ConstantRate,
            16,
        )
    }

    /// Adds a connection with an explicit traffic pattern and message size.
    ///
    /// # Panics
    ///
    /// Panics if `app`, `src` or `dst` were not created by this builder,
    /// if `src == dst` maps an IP onto itself, or if `message_bytes` is 0.
    #[allow(clippy::too_many_arguments)]
    pub fn add_connection_with(
        &mut self,
        app: AppId,
        src: IpId,
        dst: IpId,
        bandwidth: Bandwidth,
        max_latency_ns: u64,
        pattern: TrafficPattern,
        message_bytes: u32,
    ) -> ConnId {
        assert!(app.index() < self.apps.len(), "unknown {app}");
        assert!(src.index() < self.mapping.len(), "unknown source {src}");
        assert!(
            dst.index() < self.mapping.len(),
            "unknown destination {dst}"
        );
        assert!(src != dst, "connection endpoints must differ ({src})");
        assert!(message_bytes > 0, "message size must be non-zero");
        let id = ConnId::new(self.connections.len() as u32);
        self.connections.push(Connection {
            id,
            app,
            src,
            dst,
            bandwidth,
            max_latency_ns,
            pattern,
            message_bytes,
        });
        id
    }

    /// The NI hosting an already-placed IP (used by the workload
    /// generator while the spec is still under construction).
    pub(crate) fn mapping_for(&self, ip: IpId) -> NiId {
        self.mapping[ip.index()]
    }

    /// Finalises the specification.
    #[must_use]
    pub fn build(self) -> SystemSpec {
        let conn_bound = SystemSpec::scan_conn_bound(&self.connections);
        SystemSpec {
            topology: self.topology,
            config: self.config,
            apps: self.apps,
            connections: self.connections,
            mapping: self.mapping,
            conn_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NiId;

    impl SystemSpec {
        /// Total contracted bandwidth entering the NoC.
        fn total_bandwidth(&self) -> Bandwidth {
            self.connections.iter().map(|c| c.bandwidth).sum()
        }
    }

    fn tiny_spec() -> SystemSpec {
        let topo = Topology::mesh(2, 1, 2);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let a0 = b.add_app("app0");
        let a1 = b.add_app("app1");
        let ip0 = b.add_ip_at(NiId::new(0));
        let ip1 = b.add_ip_at(NiId::new(2));
        let ip2 = b.add_ip_at(NiId::new(3));
        b.add_connection(a0, ip0, ip1, Bandwidth::from_mbytes_per_sec(100), 400);
        b.add_connection(a0, ip1, ip0, Bandwidth::from_mbytes_per_sec(50), 300);
        b.add_connection(a1, ip0, ip2, Bandwidth::from_mbytes_per_sec(20), 500);
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let spec = tiny_spec();
        assert_eq!(spec.apps().len(), 2);
        assert_eq!(spec.connections().len(), 3);
        assert_eq!(spec.ip_count(), 3);
        assert_eq!(
            spec.connection(ConnId::new(1))
                .bandwidth
                .mbytes_per_sec_f64(),
            50.0
        );
    }

    #[test]
    fn mapping_resolves_ips_to_nis() {
        let spec = tiny_spec();
        assert_eq!(spec.ip_ni(IpId::new(0)), NiId::new(0));
        assert_eq!(spec.ip_ni(IpId::new(2)), NiId::new(3));
    }

    #[test]
    fn app_connections_filters_by_app() {
        let spec = tiny_spec();
        assert_eq!(spec.app_connections(AppId::new(0)).count(), 2);
        assert_eq!(spec.app_connections(AppId::new(1)).count(), 1);
    }

    #[test]
    fn restricted_to_preserves_ids() {
        let spec = tiny_spec();
        let only_a1 = spec.restricted_to(&[AppId::new(1)]);
        assert_eq!(only_a1.connections().len(), 1);
        assert_eq!(only_a1.connections()[0].id, ConnId::new(2));
        // Platform unchanged.
        assert_eq!(only_a1.topology().router_count(), 2);
    }

    #[test]
    fn conn_id_bound_cache_tracks_restriction() {
        let spec = tiny_spec();
        assert_eq!(spec.conn_id_bound(), 3);
        // Dropping the highest-id connection must lower the cached bound,
        // exactly as the original scan would.
        let only_a0 = spec.restricted_to(&[AppId::new(0)]);
        assert_eq!(only_a0.conn_id_bound(), 2);
        let survivors = spec.restricted_to_connections(&[ConnId::new(2)]);
        assert_eq!(survivors.conn_id_bound(), 3);
        let none = spec.restricted_to_connections(&[]);
        assert_eq!(none.conn_id_bound(), 0);
        // Copies that keep the connection list keep the bound.
        assert_eq!(spec.at_frequency(400).conn_id_bound(), 3);
        assert_eq!(spec.with_link_pipeline_stages(1, 2).conn_id_bound(), 3);
    }

    #[test]
    fn find_connection_matches_a_binary_search_on_dense_and_restricted_specs() {
        let full = crate::generate::paper_workload(3);
        let odd: Vec<ConnId> = full
            .connections()
            .iter()
            .map(|c| c.id)
            .filter(|id| id.index() % 3 != 1)
            .collect();
        let restricted = full.restricted_to_connections(&odd);
        let apps = full.restricted_to(&[AppId::new(1)]);
        for spec in [&full, &restricted, &apps] {
            for i in 0..spec.conn_id_bound() as u32 + 2 {
                let id = ConnId::new(i);
                let searched = spec
                    .connections()
                    .binary_search_by_key(&id, |c| c.id)
                    .ok()
                    .map(|p| &spec.connections()[p]);
                assert_eq!(spec.find_connection(id), searched, "{id}");
                if let Some(c) = searched {
                    assert_eq!(spec.connection(id), c);
                }
            }
        }
        // The restricted views really do move ids off their positions.
        assert!(restricted
            .connections()
            .iter()
            .enumerate()
            .any(|(p, c)| c.id.index() != p));
        assert!(apps.connections()[0].id.index() != 0);
    }

    #[test]
    #[should_panic(expected = "not in this spec")]
    fn connection_outside_a_restricted_spec_panics() {
        let spec = tiny_spec().restricted_to(&[AppId::new(1)]);
        let _ = spec.connection(ConnId::new(0));
    }

    #[test]
    fn total_bandwidth_sums_contracts() {
        let spec = tiny_spec();
        assert_eq!(spec.total_bandwidth(), Bandwidth::from_mbytes_per_sec(170));
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_connection_rejected() {
        let topo = Topology::mesh(1, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let a = b.add_app("a");
        let ip = b.add_ip_at(NiId::new(0));
        b.add_connection(a, ip, ip, Bandwidth::ZERO, 100);
    }

    #[test]
    #[should_panic(expected = "not part of the topology")]
    fn ip_on_unknown_ni_rejected() {
        let topo = Topology::mesh(1, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let _ = b.add_ip_at(NiId::new(5));
    }

    #[test]
    #[should_panic(expected = "unknown source")]
    fn unknown_ip_rejected() {
        let topo = Topology::mesh(1, 1, 2);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let a = b.add_app("a");
        let dst = b.add_ip_at(NiId::new(0));
        b.add_connection(a, IpId::new(9), dst, Bandwidth::ZERO, 100);
    }

    #[test]
    fn connection_display_mentions_contract() {
        let spec = tiny_spec();
        let s = spec.connection(ConnId::new(0)).to_string();
        assert!(s.contains("100.000 MB/s"), "{s}");
        assert!(s.contains("400 ns"), "{s}");
    }
}
