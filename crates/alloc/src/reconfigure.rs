//! Undisrupted reconfiguration: adding and removing applications at run
//! time without touching anyone else's resources.
//!
//! The paper reuses the Æthereal flow's reconfiguration capability
//! (\[16\], "Undisrupted quality-of-service during reconfiguration of
//! multiple applications in networks on chip"): because connections are
//! completely isolated, tearing one application down and setting another
//! up only ever touches the slots of the connections involved. This
//! module provides exactly that:
//!
//! * [`release`] — frees a connection's slots on every link of its path;
//! * [`Allocator::extend`] — allocates additional connections into an
//!   existing allocation, leaving every existing grant untouched.
//!
//! The undisrupted-QoS property is structural: grants are never moved, so
//! the TDM schedule of every remaining connection is bit-identical before,
//! during and after a reconfiguration — tested below and at system level.

use crate::allocate::{AllocError, Allocation, Allocator};
use crate::route_cache::{RouteCache, RouteProvider};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;

/// Releases the grant of `conn`, freeing its slots on every link.
///
/// Returns `false` if the connection held no grant (already released or
/// never allocated) — an idempotent no-op.
pub fn release(alloc: &mut Allocation, conn: ConnId) -> bool {
    alloc.take_grant(conn).is_some()
}

impl Allocator {
    /// Allocates `new_conns` (connections of `spec` that hold no grant
    /// yet) into `alloc`, leaving all existing grants untouched.
    ///
    /// Connections are served hardest-first, like the initial allocation.
    ///
    /// # Errors
    ///
    /// Returns the first [`AllocError`] if some new connection cannot be
    /// satisfied with the remaining resources. Connections allocated
    /// before the failure keep their grants (release them to roll back).
    ///
    /// # Panics
    ///
    /// Panics if a listed connection already holds a grant (reconfiguring
    /// an existing connection must release it first), or if `alloc` was
    /// produced for a different table size than `spec` uses.
    pub fn extend(
        &self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        new_conns: &[ConnId],
    ) -> Result<(), AllocError> {
        let mut routes = RouteCache::new(spec.topology(), self.max_paths);
        self.extend_with_cache(spec, alloc, new_conns, &mut routes)
    }

    /// [`extend`](Self::extend) with a caller-supplied [`RouteProvider`],
    /// so a long-running reconfiguration flow (repeated application swaps
    /// on one platform) enumerates each NI pair's routes at most once
    /// across its whole lifetime.
    ///
    /// # Errors
    ///
    /// See [`extend`](Self::extend).
    ///
    /// # Panics
    ///
    /// As [`extend`](Self::extend); additionally panics if `routes` was
    /// built with a different `max_paths` bound than this allocator uses.
    pub fn extend_with_cache<R: RouteProvider + ?Sized>(
        &self,
        spec: &SystemSpec,
        alloc: &mut Allocation,
        new_conns: &[ConnId],
        routes: &mut R,
    ) -> Result<(), AllocError> {
        let round = self.begin_round(spec, alloc, routes);
        for &c in new_conns {
            assert!(
                alloc.grant(c).is_none(),
                "{c} already holds a grant; release it before re-allocating"
            );
        }

        let mut order: Vec<ConnId> = new_conns.to_vec();
        crate::allocate::admission_order(spec, &mut order);
        let mut scratch = crate::allocate::AllocScratch::new();
        for conn in order {
            self.admit_in_round(&round, spec, alloc, conn, routes, &mut scratch)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::{allocate, Grant};
    use crate::validate::validate;
    use aelite_spec::app::SystemSpecBuilder;
    use aelite_spec::config::NocConfig;
    use aelite_spec::generate::paper_workload;
    use aelite_spec::ids::{AppId, NiId};
    use aelite_spec::topology::Topology;
    use aelite_spec::traffic::Bandwidth;

    #[test]
    fn release_is_idempotent_and_frees_slots() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let grant = alloc.grant(conn).unwrap().clone();
        assert!(release(&mut alloc, conn));
        assert!(alloc.grant(conn).is_none());
        assert!(!release(&mut alloc, conn), "second release is a no-op");
        // Every slot the grant held is free again.
        let shift = spec.config().slots_per_hop();
        for &s in &grant.inject_slots {
            for (i, &l) in grant.links.iter().enumerate() {
                assert!(alloc.link_table(l).is_free(s + i as u32 * shift));
            }
        }
    }

    #[test]
    fn reconfiguration_leaves_other_grants_untouched() {
        // Remove application 1, add a new application's connections, and
        // verify every other grant is bit-identical — undisrupted QoS.
        let spec = paper_workload(42);
        let mut alloc = allocate(&spec).unwrap();
        let keep: Vec<Grant> = spec
            .connections()
            .iter()
            .filter(|c| c.app != AppId::new(1))
            .map(|c| alloc.grant(c.id).unwrap().clone())
            .collect();

        // Tear down app 1.
        let removed: Vec<ConnId> = spec.app_connections(AppId::new(1)).map(|c| c.id).collect();
        for c in &removed {
            assert!(release(&mut alloc, *c));
        }

        // Re-allocate the same connections (a stand-in for a new use
        // case occupying the freed resources).
        Allocator::new()
            .extend(&spec, &mut alloc, &removed)
            .expect("freed resources suffice");

        for g in keep {
            assert_eq!(alloc.grant(g.conn).unwrap(), &g, "{} moved", g.conn);
        }
        validate(&spec, &alloc).expect("final allocation is consistent");
    }

    #[test]
    fn extend_allocates_new_connection_into_live_system() {
        let topo = Topology::mesh(2, 2, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("base");
        let ips: Vec<_> = (0..4).map(|i| b.add_ip_at(NiId::new(i))).collect();
        b.add_connection(
            app,
            ips[0],
            ips[3],
            Bandwidth::from_mbytes_per_sec(100),
            500,
        );
        let base_spec = b.build();
        let mut alloc = allocate(&base_spec).unwrap();

        // Later, a new application arrives: rebuild the spec with one
        // extra connection (ids of existing connections are stable).
        let topo = Topology::mesh(2, 2, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("base");
        let app2 = b.add_app("late arrival");
        let ips: Vec<_> = (0..4).map(|i| b.add_ip_at(NiId::new(i))).collect();
        let c0 = b.add_connection(
            app,
            ips[0],
            ips[3],
            Bandwidth::from_mbytes_per_sec(100),
            500,
        );
        let c1 = b.add_connection(
            app2,
            ips[1],
            ips[2],
            Bandwidth::from_mbytes_per_sec(80),
            500,
        );
        let spec2 = b.build();

        let before = alloc.grant(c0).unwrap().clone();
        Allocator::new()
            .extend(&spec2, &mut alloc, &[c1])
            .expect("capacity available");
        assert_eq!(alloc.grant(c0).unwrap(), &before, "existing grant moved");
        assert!(alloc.grant(c1).is_some());
        validate(&spec2, &alloc).expect("extended allocation validates");
    }

    #[test]
    #[should_panic(expected = "already holds a grant")]
    fn extending_a_granted_connection_panics() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let _ = Allocator::new().extend(&spec, &mut alloc, &[conn]);
    }

    #[test]
    fn infeasible_extension_reports_error() {
        let topo = Topology::mesh(2, 1, 1);
        let mut b = SystemSpecBuilder::new(topo, NocConfig::paper_default());
        let app = b.add_app("a");
        let s = b.add_ip_at(NiId::new(0));
        let d = b.add_ip_at(NiId::new(1));
        // Fills the link almost completely...
        let _c0 = b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(1_200), 10_000);
        // ... so this one cannot fit afterwards.
        let c1 = b.add_connection(app, s, d, Bandwidth::from_mbytes_per_sec(400), 10_000);
        let spec = b.build();
        let reduced = {
            // Allocate only c0 first.
            let only = spec.restricted_to(&[AppId::new(0)]);
            let _ = only;
            let mut alloc = crate::allocate::Allocation::empty(&spec);
            Allocator::new()
                .extend(&spec, &mut alloc, &[spec.connections()[0].id])
                .expect("c0 fits alone");
            alloc
        };
        let mut alloc = reduced;
        let err = Allocator::new().extend(&spec, &mut alloc, &[c1]);
        assert!(err.is_err(), "expected failure, got {err:?}");
    }
}
