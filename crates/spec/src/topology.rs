//! NoC topology: routers, network interfaces and directed physical links.
//!
//! The paper's experimental platform is a **concentrated mesh** (4×3 routers
//! with 4 NIs per router, Section VII); [`Topology::mesh`] builds exactly
//! that family. Arbitrary irregular topologies can be assembled with
//! [`TopologyBuilder`], which is also how the mesh constructor is
//! implemented.
//!
//! Every link is *directed*; a bidirectional physical channel is two links.
//! Routers address their neighbours through dense port indices `0..arity`,
//! which is what the source-route header encodes (one output port per hop).
//!
//! # Examples
//!
//! ```
//! use aelite_spec::topology::Topology;
//!
//! // The paper's platform: 4x3 mesh, 4 NIs per router.
//! let topo = Topology::mesh(4, 3, 4);
//! assert_eq!(topo.router_count(), 12);
//! assert_eq!(topo.ni_count(), 48);
//! // A corner router has 2 neighbours + 4 NIs = arity 6.
//! let corner = topo.router_at(0, 0).unwrap();
//! assert_eq!(topo.arity(corner), 6);
//! ```

use crate::ids::{LinkId, NiId, Port, RouterId};
use core::fmt;

/// One end of a directed link: a specific port on a router or an NI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A router port.
    Router(RouterId, Port),
    /// An NI's network-side port (NIs have exactly one).
    Ni(NiId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Router(r, p) => write!(f, "{r}.{p}"),
            Endpoint::Ni(n) => write!(f, "{n}"),
        }
    }
}

/// What a router port connects to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortTarget {
    /// The port faces another router.
    Router(RouterId),
    /// The port faces a network interface.
    Ni(NiId),
}

/// A directed physical link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Driving end.
    pub from: Endpoint,
    /// Receiving end.
    pub to: Endpoint,
}

#[derive(Debug, Clone, Default)]
struct RouterNode {
    /// Outgoing target per port, indexed by port number.
    ports: Vec<PortTarget>,
    /// Outgoing link per port.
    out_links: Vec<LinkId>,
    /// Incoming link per port (same port numbering as outgoing: port *p*
    /// faces one neighbour in both directions, as in the paper's routers).
    in_links: Vec<LinkId>,
    /// Mesh coordinates if built by [`Topology::mesh`].
    coords: Option<(u32, u32)>,
}

#[derive(Debug, Clone)]
struct NiNode {
    router: RouterId,
    router_port: Port,
    to_router: LinkId,
    from_router: LinkId,
}

/// An immutable NoC topology.
///
/// Construct with [`Topology::mesh`] or [`TopologyBuilder`].
#[derive(Debug, Clone)]
pub struct Topology {
    routers: Vec<RouterNode>,
    nis: Vec<NiNode>,
    links: Vec<Link>,
    cols: Option<u32>,
    rows: Option<u32>,
}

impl Topology {
    /// Builds a `cols`×`rows` mesh with `nis_per_router` NIs on every
    /// router (a *concentrated* mesh when `nis_per_router > 1`).
    ///
    /// Port numbering per router: NI ports first (`0..nis_per_router`),
    /// then the existing compass neighbours in north, east, south, west
    /// order. Port numbers are dense, so edge routers have lower arity —
    /// matching the paper's arity-parametrisable router.
    ///
    /// # Panics
    ///
    /// Panics if `cols`, `rows` or `nis_per_router` is zero.
    #[must_use]
    pub fn mesh(cols: u32, rows: u32, nis_per_router: u32) -> Topology {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        assert!(nis_per_router > 0, "need at least one NI per router");
        let mut b = TopologyBuilder::new();
        let mut grid = Vec::with_capacity((cols * rows) as usize);
        for y in 0..rows {
            for x in 0..cols {
                grid.push(b.add_router_at(x, y));
            }
        }
        let idx = |x: u32, y: u32| grid[(y * cols + x) as usize];
        for y in 0..rows {
            for x in 0..cols {
                let r = idx(x, y);
                for _ in 0..nis_per_router {
                    b.add_ni(r);
                }
            }
        }
        // North, east, south, west — in that order per router.
        for y in 0..rows {
            for x in 0..cols {
                let r = idx(x, y);
                if y > 0 {
                    b.connect_routers(r, idx(x, y - 1));
                }
                if x + 1 < cols {
                    b.connect_routers(r, idx(x + 1, y));
                }
                if y + 1 < rows {
                    b.connect_routers(r, idx(x, y + 1));
                }
                if x > 0 {
                    b.connect_routers(r, idx(x - 1, y));
                }
            }
        }
        let mut topo = b.build();
        topo.cols = Some(cols);
        topo.rows = Some(rows);
        topo
    }

    /// Builds a bidirectional ring of `routers` routers with
    /// `nis_per_router` NIs each.
    ///
    /// Rings have no mesh coordinates, so allocation falls back to
    /// breadth-first route search — useful for exercising aelite on
    /// non-mesh interconnect shapes.
    ///
    /// # Panics
    ///
    /// Panics if `routers < 3` (smaller rings degenerate into the
    /// two-router chain [`TopologyBuilder`] can build directly) or
    /// `nis_per_router` is zero.
    #[must_use]
    pub fn ring(routers: u32, nis_per_router: u32) -> Topology {
        assert!(routers >= 3, "a ring needs at least three routers");
        assert!(nis_per_router > 0, "need at least one NI per router");
        let mut b = TopologyBuilder::new();
        let ids: Vec<RouterId> = (0..routers).map(|_| b.add_router()).collect();
        for &r in &ids {
            for _ in 0..nis_per_router {
                b.add_ni(r);
            }
        }
        for i in 0..routers as usize {
            let next = (i + 1) % routers as usize;
            b.connect_routers(ids[i], ids[next]);
            b.connect_routers(ids[next], ids[i]);
        }
        b.build()
    }

    /// Number of routers.
    #[must_use]
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Number of network interfaces.
    #[must_use]
    pub fn ni_count(&self) -> usize {
        self.nis.len()
    }

    /// Number of directed links (router↔router and router↔NI).
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all router ids.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.routers.len() as u32).map(RouterId::new)
    }

    /// Iterator over all NI ids.
    pub fn nis(&self) -> impl Iterator<Item = NiId> + '_ {
        (0..self.nis.len() as u32).map(NiId::new)
    }

    /// Iterator over all link ids.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId::new)
    }

    /// The directed link behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this topology.
    #[must_use]
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.index()]
    }

    /// The number of ports (arity) of `router`.
    #[must_use]
    pub fn arity(&self, router: RouterId) -> usize {
        self.routers[router.index()].ports.len()
    }

    /// The largest router arity in the topology.
    #[must_use]
    pub fn max_arity(&self) -> usize {
        self.routers
            .iter()
            .map(|r| r.ports.len())
            .max()
            .unwrap_or(0)
    }

    /// What `port` of `router` connects to, or `None` for an out-of-range
    /// port.
    #[must_use]
    pub fn port_target(&self, router: RouterId, port: Port) -> Option<PortTarget> {
        self.routers[router.index()]
            .ports
            .get(port.index())
            .copied()
    }

    /// All ports of `router` with their targets.
    pub fn ports(&self, router: RouterId) -> impl Iterator<Item = (Port, PortTarget)> + '_ {
        self.routers[router.index()]
            .ports
            .iter()
            .enumerate()
            .map(|(i, &t)| (Port(i as u8), t))
    }

    /// The outgoing link leaving `router` through `port`.
    #[must_use]
    pub fn out_link(&self, router: RouterId, port: Port) -> Option<LinkId> {
        self.routers[router.index()]
            .out_links
            .get(port.index())
            .copied()
    }

    /// The incoming link arriving at `router` on `port`.
    #[must_use]
    pub fn in_link(&self, router: RouterId, port: Port) -> Option<LinkId> {
        self.routers[router.index()]
            .in_links
            .get(port.index())
            .copied()
    }

    /// The port of `router` that faces `target`, if any.
    #[must_use]
    pub fn port_towards(&self, router: RouterId, target: PortTarget) -> Option<Port> {
        self.routers[router.index()]
            .ports
            .iter()
            .position(|&t| t == target)
            .map(|i| Port(i as u8))
    }

    /// The router an NI is attached to.
    #[must_use]
    pub fn ni_router(&self, ni: NiId) -> RouterId {
        self.nis[ni.index()].router
    }

    /// The router port an NI is attached to.
    #[must_use]
    pub fn ni_router_port(&self, ni: NiId) -> Port {
        self.nis[ni.index()].router_port
    }

    /// The link from `ni` into its router.
    #[must_use]
    pub fn ni_ingress_link(&self, ni: NiId) -> LinkId {
        self.nis[ni.index()].to_router
    }

    /// The link from the router out to `ni`.
    #[must_use]
    pub fn ni_egress_link(&self, ni: NiId) -> LinkId {
        self.nis[ni.index()].from_router
    }

    /// All NIs attached to `router`.
    pub fn router_nis(&self, router: RouterId) -> impl Iterator<Item = NiId> + '_ {
        self.nis
            .iter()
            .enumerate()
            .filter(move |(_, n)| n.router == router)
            .map(|(i, _)| NiId::new(i as u32))
    }

    /// The links adjacent to `router`, in link order: router-router links
    /// on either side and the links of its concentrated NIs.
    #[inline]
    pub fn router_links(&self, router: RouterId) -> impl Iterator<Item = LinkId> + '_ {
        let touches = move |e: Endpoint| matches!(e, Endpoint::Router(r, _) if r == router);
        self.links().filter(move |&l| {
            let link = self.link(l);
            touches(link.from) || touches(link.to)
        })
    }

    /// Router-to-router hops between the routers of two NIs on a shortest
    /// route: the Manhattan distance on a mesh. Off a mesh it is 1
    /// between distinct routers (0 on one router), which can undercount
    /// every real route.
    #[inline]
    #[must_use]
    pub fn router_hops(&self, a: NiId, b: NiId) -> u32 {
        let (ra, rb) = (self.ni_router(a), self.ni_router(b));
        match (self.coords(ra), self.coords(rb)) {
            (Some((xa, ya)), Some((xb, yb))) => xa.abs_diff(xb) + ya.abs_diff(yb),
            _ => u32::from(ra != rb),
        }
    }

    /// The tile `router` falls in when the mesh is cut into a `tiles_x` ×
    /// `tiles_y` grid of regions numbered row-major, if this is a mesh.
    /// Regional workloads and the shard map agree on regions through it.
    #[must_use]
    pub fn tile_of(&self, router: RouterId, tiles_x: u32, tiles_y: u32) -> Option<u32> {
        let ((cols, rows), (x, y)) = (self.mesh_dims()?, self.coords(router)?);
        Some(y * tiles_y / rows * tiles_x + x * tiles_x / cols)
    }

    /// Mesh coordinates of `router` (column, row), if this topology was
    /// built as a mesh.
    #[must_use]
    pub fn coords(&self, router: RouterId) -> Option<(u32, u32)> {
        self.routers[router.index()].coords
    }

    /// The router at mesh position (`x`, `y`), if this is a mesh.
    #[must_use]
    pub fn router_at(&self, x: u32, y: u32) -> Option<RouterId> {
        let (cols, rows) = (self.cols?, self.rows?);
        if x < cols && y < rows {
            Some(RouterId::new(y * cols + x))
        } else {
            None
        }
    }

    /// Mesh dimensions (columns, rows), if this is a mesh.
    #[must_use]
    pub fn mesh_dims(&self) -> Option<(u32, u32)> {
        Some((self.cols?, self.rows?))
    }
}

/// Incremental construction of arbitrary topologies.
///
/// # Examples
///
/// ```
/// use aelite_spec::topology::{PortTarget, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// let r0 = b.add_router();
/// let r1 = b.add_router();
/// let ni = b.add_ni(r0);
/// b.connect_routers(r0, r1);
/// b.connect_routers(r1, r0);
/// let topo = b.build();
/// assert_eq!(topo.arity(r0), 2); // one NI port + one router port
/// assert_eq!(topo.ni_router(ni), r0);
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    routers: Vec<RouterNode>,
    nis: Vec<NiNode>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// Adds a router with no ports yet.
    pub fn add_router(&mut self) -> RouterId {
        let id = RouterId::new(self.routers.len() as u32);
        self.routers.push(RouterNode::default());
        id
    }

    fn add_router_at(&mut self, x: u32, y: u32) -> RouterId {
        let id = self.add_router();
        self.routers[id.index()].coords = Some((x, y));
        id
    }

    fn new_port(&mut self, router: RouterId, target: PortTarget) -> Port {
        let node = &mut self.routers[router.index()];
        let port = Port(node.ports.len() as u8);
        assert!(node.ports.len() < 255, "router arity limit exceeded");
        node.ports.push(target);
        // Links are filled in by the caller; reserve the slots.
        node.out_links.push(LinkId::new(u32::MAX));
        node.in_links.push(LinkId::new(u32::MAX));
        port
    }

    fn add_link(&mut self, from: Endpoint, to: Endpoint) -> LinkId {
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(Link { from, to });
        id
    }

    /// Adds an NI attached to `router`, creating the two links between
    /// them and a new router port facing the NI.
    pub fn add_ni(&mut self, router: RouterId) -> NiId {
        let ni = NiId::new(self.nis.len() as u32);
        let port = self.new_port(router, PortTarget::Ni(ni));
        let to_router = self.add_link(Endpoint::Ni(ni), Endpoint::Router(router, port));
        let from_router = self.add_link(Endpoint::Router(router, port), Endpoint::Ni(ni));
        self.routers[router.index()].out_links[port.index()] = from_router;
        self.routers[router.index()].in_links[port.index()] = to_router;
        self.nis.push(NiNode {
            router,
            router_port: port,
            to_router,
            from_router,
        });
        ni
    }

    /// Adds the directed link `from → to` between two routers, creating or
    /// reusing the facing ports on both sides.
    ///
    /// Calling this twice with swapped arguments produces the usual
    /// bidirectional channel. Port numbering stays consistent: the same
    /// port of a router faces the same neighbour in both directions.
    pub fn connect_routers(&mut self, from: RouterId, to: RouterId) {
        let from_port = self
            .port_towards(from, PortTarget::Router(to))
            .unwrap_or_else(|| self.new_port(from, PortTarget::Router(to)));
        let to_port = self
            .port_towards(to, PortTarget::Router(from))
            .unwrap_or_else(|| self.new_port(to, PortTarget::Router(from)));
        let link = self.add_link(
            Endpoint::Router(from, from_port),
            Endpoint::Router(to, to_port),
        );
        self.routers[from.index()].out_links[from_port.index()] = link;
        self.routers[to.index()].in_links[to_port.index()] = link;
    }

    fn port_towards(&self, router: RouterId, target: PortTarget) -> Option<Port> {
        self.routers[router.index()]
            .ports
            .iter()
            .position(|&t| t == target)
            .map(|i| Port(i as u8))
    }

    /// Finalises the topology.
    ///
    /// # Panics
    ///
    /// Panics if any router port was created in only one direction (e.g.
    /// `connect_routers(a, b)` without the matching `(b, a)`), because the
    /// aelite link pipeline and wrapper models assume full-duplex ports.
    #[must_use]
    pub fn build(self) -> Topology {
        for (i, r) in self.routers.iter().enumerate() {
            for (p, (&o, &inl)) in r.out_links.iter().zip(&r.in_links).enumerate() {
                assert!(
                    o != LinkId::new(u32::MAX) && inl != LinkId::new(u32::MAX),
                    "router R{i} port p{p} is only connected in one direction"
                );
            }
        }
        Topology {
            routers: self.routers,
            nis: self.nis,
            links: self.links,
            cols: None,
            rows: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mesh_has_expected_counts() {
        let t = Topology::mesh(4, 3, 4);
        assert_eq!(t.router_count(), 12);
        assert_eq!(t.ni_count(), 48);
        // Router-router: horizontal 3*3*2=18? No: per row 3 bidir pairs x 3
        // rows = 9 pairs, vertical 4 cols x 2 = 8 pairs; (9+8)*2 = 34
        // directed router links. NI links: 48 * 2 = 96. Total 130.
        assert_eq!(t.link_count(), 34 + 96);
    }

    #[test]
    fn mesh_arity_matches_position() {
        let t = Topology::mesh(4, 3, 4);
        // Corner: 2 neighbours + 4 NIs.
        assert_eq!(t.arity(t.router_at(0, 0).unwrap()), 6);
        // Edge (top middle): 3 neighbours + 4 NIs.
        assert_eq!(t.arity(t.router_at(1, 0).unwrap()), 7);
        // Centre: 4 neighbours + 4 NIs.
        assert_eq!(t.arity(t.router_at(1, 1).unwrap()), 8);
        assert_eq!(t.max_arity(), 8);
    }

    #[test]
    fn coords_roundtrip() {
        let t = Topology::mesh(4, 3, 1);
        for y in 0..3 {
            for x in 0..4 {
                let r = t.router_at(x, y).unwrap();
                assert_eq!(t.coords(r), Some((x, y)));
            }
        }
        assert_eq!(t.router_at(4, 0), None);
        assert_eq!(t.router_at(0, 3), None);
        assert_eq!(t.mesh_dims(), Some((4, 3)));
    }

    #[test]
    fn ports_face_consistent_neighbours() {
        let t = Topology::mesh(3, 3, 1);
        let c = t.router_at(1, 1).unwrap();
        let north = t.router_at(1, 0).unwrap();
        let port = t.port_towards(c, PortTarget::Router(north)).unwrap();
        // The outgoing link through that port must end at the north router,
        // and the incoming link on the same port must start there.
        let out = t.link(t.out_link(c, port).unwrap());
        match out.to {
            Endpoint::Router(r, _) => assert_eq!(r, north),
            other => panic!("unexpected endpoint {other:?}"),
        }
        let inl = t.link(t.in_link(c, port).unwrap());
        match inl.from {
            Endpoint::Router(r, _) => assert_eq!(r, north),
            other => panic!("unexpected endpoint {other:?}"),
        }
    }

    #[test]
    fn ni_links_connect_ni_and_router() {
        let t = Topology::mesh(2, 2, 2);
        for ni in t.nis() {
            let r = t.ni_router(ni);
            let ingress = t.link(t.ni_ingress_link(ni));
            assert_eq!(ingress.from, Endpoint::Ni(ni));
            assert!(matches!(ingress.to, Endpoint::Router(rr, _) if rr == r));
            let egress = t.link(t.ni_egress_link(ni));
            assert!(matches!(egress.from, Endpoint::Router(rr, _) if rr == r));
            assert_eq!(egress.to, Endpoint::Ni(ni));
        }
    }

    #[test]
    fn router_nis_lists_attached_nis() {
        let t = Topology::mesh(2, 1, 3);
        let r0 = t.router_at(0, 0).unwrap();
        let nis: Vec<_> = t.router_nis(r0).collect();
        assert_eq!(nis.len(), 3);
        for ni in nis {
            assert_eq!(t.ni_router(ni), r0);
        }
    }

    #[test]
    fn single_router_mesh_is_legal() {
        let t = Topology::mesh(1, 1, 4);
        assert_eq!(t.router_count(), 1);
        assert_eq!(t.arity(RouterId::new(0)), 4);
        assert_eq!(t.link_count(), 8);
    }

    #[test]
    #[should_panic(expected = "only connected in one direction")]
    fn half_connected_port_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_router();
        let c = b.add_router();
        b.connect_routers(a, c); // missing (c, a)
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_mesh_rejected() {
        let _ = Topology::mesh(0, 3, 1);
    }

    #[test]
    fn builder_supports_irregular_topologies() {
        // A three-router chain with NIs only at the ends.
        let mut b = TopologyBuilder::new();
        let left = b.add_router();
        let mid = b.add_router();
        let right = b.add_router();
        let ni_l = b.add_ni(left);
        let ni_r = b.add_ni(right);
        b.connect_routers(left, mid);
        b.connect_routers(mid, left);
        b.connect_routers(mid, right);
        b.connect_routers(right, mid);
        let t = b.build();
        assert_eq!(t.arity(mid), 2);
        assert_eq!(t.arity(left), 2);
        assert_eq!(t.ni_router(ni_l), left);
        assert_eq!(t.ni_router(ni_r), right);
        assert_eq!(t.coords(mid), None);
        assert_eq!(t.router_at(0, 0), None);
    }

    #[test]
    fn ring_topology_counts_and_arity() {
        let t = Topology::ring(5, 2);
        assert_eq!(t.router_count(), 5);
        assert_eq!(t.ni_count(), 10);
        // 2 NI ports + 2 neighbours on every router.
        for r in t.routers() {
            assert_eq!(t.arity(r), 4);
        }
        // 5 bidirectional router pairs + 10 NIs * 2 = 30 directed links.
        assert_eq!(t.link_count(), 10 + 20);
        // Not a mesh: no coordinates.
        assert_eq!(t.coords(RouterId::new(0)), None);
        assert_eq!(t.mesh_dims(), None);
    }

    #[test]
    fn ring_is_fully_connected_both_ways() {
        let t = Topology::ring(4, 1);
        for r in t.routers() {
            let neighbours: Vec<_> = t
                .ports(r)
                .filter_map(|(_, tgt)| match tgt {
                    PortTarget::Router(n) => Some(n),
                    PortTarget::Ni(_) => None,
                })
                .collect();
            assert_eq!(neighbours.len(), 2, "{r} must have two ring neighbours");
        }
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn tiny_ring_rejected() {
        let _ = Topology::ring(2, 1);
    }

    #[test]
    fn port_target_out_of_range_is_none() {
        let t = Topology::mesh(1, 1, 1);
        assert_eq!(t.port_target(RouterId::new(0), Port(200)), None);
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(
            Endpoint::Router(RouterId::new(1), Port(2)).to_string(),
            "R1.p2"
        );
        assert_eq!(Endpoint::Ni(NiId::new(3)).to_string(), "NI3");
    }
}
