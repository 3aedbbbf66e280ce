//! The configuration image: the NI state an allocation sets up.
//!
//! In aelite a connection's state lives only in its NIs, none in the
//! routers (paper Section III; Rădulescu et al., TCAD 2005): the source
//! NI's slot table, the path in the header and the credit counter.
//! [`ConfigImage`] lowers a spec's allocation into that state once; the
//! event build wires it into NI modules, the turbo kernel compiles it,
//! and [`ConfigImage::handles`] makes both nets' queues and logs, so they
//! line up entry for entry. Neither build reads the allocation itself.

use crate::network::{NetworkKind, CREDIT_RETURN_CYCLES};
use crate::ni::{delivery_log, message_queue, DeliveryLog, MessageQueue};
use crate::phit::{Header, RouteBits};
use aelite_alloc::allocate::{required_buffer_words, Allocation};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::{ConnId, NiId};
use aelite_spec::timing::pipeline_cycles;
use aelite_spec::traffic::MessageSource;

/// Cycles a word spends in each router: the 3-stage pipeline of paper
/// Section IV (input register, HPU, switch).
const ROUTER_PIPELINE_CYCLES: u64 = 3;

/// One allocation lowered for a `kind` build of its spec.
#[derive(Debug)]
pub(crate) struct ConfigImage {
    /// Every connection, grouped by source NI in NI order, in spec order
    /// within an NI: the order of both nets' queues and of the turbo
    /// kernel's compiled connections.
    pub(crate) conns: Vec<ConnImage>,
    /// Per NI, its slot table: each slot's owner as a position among the
    /// connections the NI sources.
    pub(crate) slot_tables: Vec<Vec<Option<usize>>>,
    /// Per NI, the connections it sinks, as indices into `conns`, in spec
    /// order.
    pub(crate) sinks: Vec<Vec<usize>>,
}

/// The state one connection holds at its NIs.
#[derive(Debug)]
pub(crate) struct ConnImage {
    pub(crate) conn: ConnId,
    pub(crate) src: NiId,
    pub(crate) dst: NiId,
    /// The source-NI slot-table entries the connection owns, ascending.
    pub(crate) slots: Box<[u32]>,
    /// The header every packet of the connection carries.
    pub(crate) header: Header,
    /// Cycles from an injection slot start to the destination NI
    /// sampling the header: synchronously, each router holds a word for
    /// its 3 pipeline stages and the sink samples one edge after the last;
    /// each mesochronous link stage re-aligns the flit to the receiver's
    /// next flit-cycle boundary, one TDM slot per link (paper Section V).
    pub(crate) head_delay: u64,
    /// Initial credits: the destination buffer, in payload words.
    pub(crate) credits: u32,
    /// Whether the buffer analysis proved the credits can never bind
    /// (see the [`turbo`](crate::turbo) module documentation).
    pub(crate) credit_free: bool,
    /// The traffic the connection's IP offers.
    pub(crate) source: MessageSource,
}

/// A build's testbench handles: what `CycleNet` and `TurboNet` expose.
pub(crate) type Handles = (
    Vec<(ConnId, MessageQueue)>,
    Vec<(ConnId, DeliveryLog)>,
    ConnIndex,
);

/// `ConnId::index() -> (index into queues, index into logs)`; `u32::MAX`
/// marks a connection outside the build.
#[derive(Debug)]
pub(crate) struct ConnIndex(Vec<(u32, u32)>);

impl ConnIndex {
    /// Positions of `conn` in the queues and the logs; panics if it is
    /// not built.
    pub(crate) fn of(&self, conn: ConnId) -> (usize, usize) {
        match self.0.get(conn.index()) {
            Some(&(q, l)) if q != u32::MAX => (q as usize, l as usize),
            _ => panic!("{conn} not built"),
        }
    }
}

impl ConfigImage {
    /// Lowers `alloc` for a `kind` build of `spec`, or says why it cannot:
    /// a connection without a grant, or a slot out of range or claimed
    /// twice on one NI. Panics if `kind` is inconsistent with
    /// `spec.config().link_pipeline_stages` (see [`NetworkKind`]).
    pub(crate) fn new(
        spec: &SystemSpec,
        alloc: &Allocation,
        kind: NetworkKind,
    ) -> Result<Self, String> {
        let cfg = spec.config();
        let stages = u32::from(matches!(kind, NetworkKind::Mesochronous { .. }));
        assert_eq!(
            cfg.link_pipeline_stages, stages,
            "{kind:?} build requires link_pipeline_stages == {stages}"
        );
        let connections = spec.connections();
        let mut by_src = vec![Vec::new(); spec.topology().ni_count()];
        for (ci, c) in connections.iter().enumerate() {
            by_src[spec.ip_ni(c.src).index()].push(ci);
        }
        let payload_capacity = u64::from(cfg.payload_words_per_flit());
        let mut position = vec![0; connections.len()];
        let mut conns = Vec::with_capacity(connections.len());
        let mut slot_tables = Vec::with_capacity(by_src.len());
        let mut sinks = vec![Vec::new(); by_src.len()];
        for sourced in by_src {
            let start = conns.len();
            let mut slot_table = vec![None; cfg.slot_table_size as usize];
            for ci in sourced {
                let c = &connections[ci];
                let grant = alloc
                    .grant(c.id)
                    .ok_or_else(|| format!("{} has no grant", c.id))?;
                for &s in &grant.inject_slots {
                    let entry = slot_table
                        .get_mut(s as usize)
                        .ok_or_else(|| format!("slot {s} out of range for {}", c.id))?;
                    if entry.is_some() {
                        return Err(format!("slot {s} claimed twice on one NI"));
                    }
                    *entry = Some(conns.len() - start);
                }
                let links = grant.links.len();
                let head_delay = match kind {
                    NetworkKind::Synchronous => (links as u64 - 1) * ROUTER_PIPELINE_CYCLES + 1,
                    NetworkKind::Mesochronous { .. } => {
                        pipeline_cycles(cfg, links) - payload_capacity
                    }
                };
                // The analysis window covers the kernel's credit horizon
                // when the allocator's pipeline model covers the head delay
                // plus a flit.
                let credit_free = head_delay + payload_capacity <= pipeline_cycles(cfg, links)
                    && required_buffer_words(spec, alloc, c.id, CREDIT_RETURN_CYCLES)
                        <= cfg.ni_buffer_words;
                let first_slot = grant.inject_slots.first().copied().unwrap_or(0);
                position[ci] = conns.len();
                conns.push(ConnImage {
                    conn: c.id,
                    src: spec.ip_ni(c.src),
                    dst: spec.ip_ni(c.dst),
                    slots: grant.inject_slots.clone().into_boxed_slice(),
                    header: Header {
                        route: RouteBits::from_ports(&grant.path.ports),
                        conn: c.id,
                    },
                    head_delay,
                    credits: cfg.ni_buffer_words,
                    credit_free,
                    source: MessageSource::new(c, cfg, first_slot),
                });
            }
            slot_tables.push(slot_table);
        }
        for (ci, c) in connections.iter().enumerate() {
            sinks[spec.ip_ni(c.dst).index()].push(position[ci]);
        }
        Ok(ConfigImage {
            conns,
            slot_tables,
            sinks,
        })
    }

    /// Fresh queues and logs for a build of the image, each log timed by
    /// its destination NI's clock: phase `ni_phase_fs[ni]`, period
    /// `period_fs`. Both are allocated in `conns` order, the order in
    /// which the turbo kernel moves them in and out of a run.
    pub(crate) fn handles(&self, ni_phase_fs: &[u64], period_fs: u64) -> Handles {
        let bound = self.conns.iter().map(|c| c.conn.index() + 1).max();
        let mut index = vec![(u32::MAX, u32::MAX); bound.unwrap_or(0)];
        let mut by_conn: Vec<_> = (self.conns.iter())
            .map(|c| Some(delivery_log(c.conn, ni_phase_fs[c.dst.index()], period_fs)))
            .collect();
        let logs: Vec<_> = (self.sinks.iter().flatten().enumerate())
            .map(|(l, &i)| {
                let conn = self.conns[i].conn;
                index[conn.index()] = (i as u32, l as u32);
                (
                    conn,
                    by_conn[i].take().expect("a connection sinks at one NI"),
                )
            })
            .collect();
        let queues = self.conns.iter().map(|c| (c.conn, message_queue()));
        (queues.collect(), logs, ConnIndex(index))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codec::route_capacity_hops;
    use aelite_alloc::allocate;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::generate::{paper_workload, WorkloadBuilder};
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::Bandwidth;

    /// Two connections out of NI 0 that were both granted slot 0: the
    /// second was allocated out of NI 1.
    pub(crate) fn double_claimed() -> (SystemSpec, Allocation) {
        let spec_with = |second_src: u32| {
            let mut b = SystemSpecBuilder::new(Topology::mesh(2, 1, 1), NocConfig::paper_default());
            let app = b.add_app("a");
            let ips = [b.add_ip_at(NiId::new(0)), b.add_ip_at(NiId::new(1))];
            let bw = Bandwidth::from_mbytes_per_sec(100);
            b.add_connection(app, ips[0], ips[1], bw, 800);
            b.add_connection(
                app,
                ips[second_src as usize],
                ips[1 - second_src as usize],
                bw,
                800,
            );
            b.build()
        };
        let alloc = allocate(&spec_with(1)).unwrap();
        (spec_with(0), alloc)
    }

    #[test]
    fn overlapping_slots_rejected() {
        let (spec, alloc) = double_claimed();
        for c in spec.connections() {
            assert_eq!(alloc.grant(c.id).unwrap().inject_slots[0], 0, "{}", c.id);
        }
        let error = ConfigImage::new(&spec, &alloc, NetworkKind::Synchronous).unwrap_err();
        assert_eq!(error, "slot 0 claimed twice on one NI");
    }

    /// Per spec: grants whose route does not fit the header word, the
    /// most routers on one route, and the most connections sunk at one
    /// NI — the headers ROADMAP item 16 makes encodable.
    fn header_census(spec: &SystemSpec) -> (usize, usize, usize) {
        let alloc = allocate(spec).unwrap();
        let image = ConfigImage::new(spec, &alloc, NetworkKind::Synchronous).unwrap();
        let capacity = route_capacity_hops(spec.config().data_width_bits);
        let hops = || image.conns.iter().map(|c| c.header.route.remaining());
        let long = hops().filter(|&h| h > capacity).count();
        let sinks = image.sinks.iter().map(Vec::len).max().unwrap();
        (long, hops().max().unwrap(), sinks)
    }

    #[test]
    fn headers_of_the_paper_platform_and_the_benchmark_meshes() {
        for (seed, sinks) in [(0, 11), (1, 10), (2, 11)] {
            let spec = paper_workload(seed);
            assert_eq!(spec.config().data_width_bits, 32);
            assert_eq!(header_census(&spec), (0, 6, sinks), "paper seed {seed}");
        }
        // The benchmark's draws: `MESH8_UNIFORM`, the same on 2×2 tiles,
        // and `turbo_mesh16`.
        let mesh = |side| {
            WorkloadBuilder::mesh(side, side, 4)
                .slot_table_size(64)
                .seed(1)
        };
        let mesh8 = || mesh(8).connections(1_000);
        assert_eq!(header_census(&mesh8().build()), (85, 14, 10));
        assert_eq!(header_census(&mesh8().tiles(2, 2).build()), (0, 7, 10));
        let mesh16 = mesh(16).mega_traffic().connections(10_000).tiles(8, 8);
        assert_eq!(header_census(&mesh16.build()), (0, 3, 17));
    }
}
