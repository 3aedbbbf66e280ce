//! # aelite-spec — platform and use-case specifications for the aelite NoC
//!
//! Everything the allocation flow and the simulators consume:
//!
//! * [`ids`] — typed identifiers for routers, NIs, IPs, links, connections
//!   and applications.
//! * [`topology`] — (concentrated) meshes and arbitrary topologies of
//!   routers, NIs and directed links, with their hop counts.
//! * [`path`] — source-route paths and the dimension-ordered (XY/YX)
//!   route.
//! * [`timing`] — the one timing model: pipeline delay, slot service,
//!   worst-case latency bound and the slots a deadline forces.
//! * [`traffic`] — bandwidth units and offered-load patterns.
//! * [`config`] — the NoC-wide geometry: data width, frequency, 3-word
//!   flits, TDM slot-table size.
//! * [`app`] — applications, guaranteed-service connections and the
//!   complete [`app::SystemSpec`].
//! * [`generate`] — seeded random workloads, including the paper's
//!   200-connection Section VII experiment.
//! * [`churn`] — Poisson-arrival connection open/close/use-case-switch
//!   traces for the online reconfiguration engine.
//! * [`fault`] — seeded link/router failure-and-repair traces and their
//!   interleaving with churn, for the online recovery engine.
//!
//! # Examples
//!
//! Rebuild the paper's experimental platform:
//!
//! ```
//! use aelite_spec::generate::paper_workload;
//!
//! let spec = paper_workload(42);
//! assert_eq!(spec.topology().router_count(), 12); // 4x3 mesh
//! assert_eq!(spec.topology().ni_count(), 48);     // 4 NIs per router
//! assert_eq!(spec.ip_count(), 70);
//! assert_eq!(spec.connections().len(), 200);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod churn;
pub mod config;
pub mod fault;
pub mod generate;
pub mod ids;
pub mod path;
pub mod timing;
pub mod topology;
pub mod traffic;

pub use app::{Application, Connection, SystemSpec, SystemSpecBuilder};
pub use churn::{churn_trace, ChurnEvent, ChurnOp, ChurnParams, ChurnTrace};
pub use config::NocConfig;
pub use fault::{
    fault_trace, FaultEvent, FaultOp, FaultParams, FaultScenario, FaultTrace, ScenarioEvent,
    ScenarioOp,
};
pub use generate::{
    paper_workload, random_workload, try_random_workload, TrafficProfile, WorkloadBuilder,
    WorkloadError, WorkloadParams,
};
pub use ids::{AppId, ConnId, IpId, LinkId, NiId, Port, RouterId};
pub use topology::{Endpoint, Link, PortTarget, Topology, TopologyBuilder};
pub use traffic::{Bandwidth, TrafficPattern};
