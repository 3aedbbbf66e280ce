//! Source-route paths and the dimension-ordered route.
//!
//! aelite uses source routing (paper Section III): the packet header
//! carries the output-port index for every router along the way. A
//! [`Path`] is exactly that port list plus its NI endpoints.
//! [`dimension_ordered`] is the one XY/YX route: the allocator tries it
//! first, the workload generator charges its links to the link budgets,
//! and the best-effort baseline routes over it. Route *search* (detours
//! and their cache) is the allocator's.

use crate::ids::{LinkId, NiId, Port, RouterId};
use crate::topology::{PortTarget, Topology};
use core::fmt;

/// A source-routed path from one NI to another.
///
/// `ports[i]` is the output port taken at the *i*-th router; the last port
/// faces the destination NI. The links traversed are the NI ingress link
/// followed by one link per port.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Source network interface.
    pub src: NiId,
    /// Destination network interface.
    pub dst: NiId,
    /// Output port taken at each router along the way.
    pub ports: Vec<Port>,
}

impl Path {
    /// The number of routers traversed.
    #[must_use]
    pub fn router_count(&self) -> usize {
        self.ports.len()
    }

    /// The number of links traversed (NI ingress + one per router).
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.ports.len() + 1
    }

    /// The ordered links this path occupies, starting with the source NI's
    /// ingress link. A flit injected in TDM slot *s* occupies
    /// `links(topo)[i]` during slot *s + i*.
    ///
    /// # Errors
    ///
    /// Returns a [`PathError`] if the port sequence does not lead from
    /// `src` to `dst` in this topology.
    pub fn links(&self, topo: &Topology) -> Result<Vec<LinkId>, PathError> {
        let mut links = Vec::with_capacity(self.link_count());
        links.push(topo.ni_ingress_link(self.src));
        let mut router = topo.ni_router(self.src);
        for (i, &port) in self.ports.iter().enumerate() {
            let target = topo
                .port_target(router, port)
                .ok_or(PathError::NoSuchPort { router, port })?;
            let link = topo
                .out_link(router, port)
                .ok_or(PathError::NoSuchPort { router, port })?;
            links.push(link);
            match target {
                PortTarget::Router(next) => {
                    if i + 1 == self.ports.len() {
                        return Err(PathError::EndsAtRouter { router: next });
                    }
                    router = next;
                }
                PortTarget::Ni(ni) => {
                    if i + 1 != self.ports.len() {
                        return Err(PathError::EntersNiMidway { ni });
                    }
                    if ni != self.dst {
                        return Err(PathError::WrongDestination {
                            expected: self.dst,
                            actual: ni,
                        });
                    }
                }
            }
        }
        if self.ports.is_empty() {
            return Err(PathError::Empty);
        }
        Ok(links)
    }

    /// The routers visited, in order.
    ///
    /// # Errors
    ///
    /// Returns a [`PathError`] if the port sequence is invalid (see
    /// [`links`](Self::links)).
    pub fn routers(&self, topo: &Topology) -> Result<Vec<RouterId>, PathError> {
        // Validate first so the walk below cannot step off the topology.
        self.links(topo)?;
        let mut routers = vec![topo.ni_router(self.src)];
        let mut router = topo.ni_router(self.src);
        for &port in &self.ports[..self.ports.len() - 1] {
            match topo.port_target(router, port) {
                Some(PortTarget::Router(next)) => {
                    routers.push(next);
                    router = next;
                }
                _ => unreachable!("validated above"),
            }
        }
        Ok(routers)
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ->", self.src)?;
        for p in &self.ports {
            write!(f, " {p}")?;
        }
        write!(f, " -> {}", self.dst)
    }
}

/// Why a port sequence is not a valid path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// The path has no ports at all.
    Empty,
    /// A router was asked for a port it does not have.
    NoSuchPort {
        /// Router missing the port.
        router: RouterId,
        /// The out-of-range port.
        port: Port,
    },
    /// The final port faces another router instead of an NI.
    EndsAtRouter {
        /// The router the path dangles into.
        router: RouterId,
    },
    /// A non-final port faces an NI.
    EntersNiMidway {
        /// The NI entered too early.
        ni: NiId,
    },
    /// The final port faces an NI other than the declared destination.
    WrongDestination {
        /// Declared destination.
        expected: NiId,
        /// NI the ports actually lead to.
        actual: NiId,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => write!(f, "path has no hops"),
            PathError::NoSuchPort { router, port } => {
                write!(f, "{router} has no port {port}")
            }
            PathError::EndsAtRouter { router } => {
                write!(f, "path ends at {router} instead of an NI")
            }
            PathError::EntersNiMidway { ni } => {
                write!(f, "path enters {ni} before its final hop")
            }
            PathError::WrongDestination { expected, actual } => {
                write!(f, "path reaches {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// Builds the dimension-ordered path between two NIs on a mesh:
/// first along `x`, then along `y` when `x_first`, otherwise the reverse.
///
/// Returns `None` when the topology has no mesh coordinates or a needed
/// neighbour port is missing (irregular topology).
#[must_use]
pub fn dimension_ordered(topo: &Topology, src: NiId, dst: NiId, x_first: bool) -> Option<Path> {
    let mut ports = Vec::new();
    let last = dimension_ordered_hops(topo, src, dst, x_first, |_, port| ports.push(port))?;
    ports.push(topo.port_towards(last, PortTarget::Ni(dst))?);
    Some(Path { src, dst, ports })
}

/// Walks the router-to-router hops of [`dimension_ordered`]'s route
/// without building a [`Path`]: calls `hop(router, port)` for each port
/// taken from `src`'s router on, and returns the router the walk ends at
/// (`dst`'s). `None` when [`dimension_ordered`] is; off a mesh that is
/// before the first `hop`.
pub(crate) fn dimension_ordered_hops(
    topo: &Topology,
    src: NiId,
    dst: NiId,
    x_first: bool,
    mut hop: impl FnMut(RouterId, Port),
) -> Option<RouterId> {
    let mut router = topo.ni_router(src);
    let (mut x, mut y) = topo.coords(router)?;
    let (tx, ty) = topo.coords(topo.ni_router(dst))?;
    let step = |v: u32, t: u32| if v < t { v + 1 } else { v - 1 };
    for along_x in [x_first, !x_first] {
        while if along_x { x != tx } else { y != ty } {
            let (nx, ny) = if along_x {
                (step(x, tx), y)
            } else {
                (x, step(y, ty))
            };
            let next = topo.router_at(nx, ny)?;
            hop(router, topo.port_towards(router, PortTarget::Router(next))?);
            (router, x, y) = (next, nx, ny);
        }
    }
    Some(router)
}
