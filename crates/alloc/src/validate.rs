//! Independent validation of an [`Allocation`] against its [`SystemSpec`].
//!
//! The validator re-derives every property the allocator is supposed to
//! guarantee, from scratch, so that a bug in the allocator cannot hide
//! behind its own bookkeeping:
//!
//! 1. every connection holds a grant whose path really leads from its
//!    source NI to its destination NI;
//! 2. the link tables contain *exactly* the shifted reservations implied by
//!    the grants — no missing entries, no orphans (the contention-free
//!    invariant);
//! 3. reserved slots deliver at least the contracted bandwidth;
//! 4. the worst-case latency bound meets the contracted deadline.
//!
//! It reads only each grant's path and slots and the tables' owner view.
//! The reservations the grants imply go into one dense owner table, an
//! `Option<ConnId>` per `(link, slot)` of the platform; a later grant's
//! claim on an entry overwrites an earlier one. One pass over the link
//! tables then finds the orphans. The cost is O(links × slots + Σ slots
//! × hops), with one table allocation and one path buffer per call.

use crate::allocate::Allocation;
use crate::path::PathError;
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::{ConnId, LinkId};
use core::fmt;

/// One discrepancy between a spec and an allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A connection has no grant at all.
    MissingGrant {
        /// The ungranted connection.
        conn: ConnId,
    },
    /// A grant's path is not walkable in the topology.
    BadPath {
        /// The connection with the broken path.
        conn: ConnId,
        /// What is wrong with the port sequence.
        error: PathError,
    },
    /// A grant's path does not connect the connection's NIs.
    WrongEndpoints {
        /// The misrouted connection.
        conn: ConnId,
    },
    /// A slot the grant implies is not reserved for the connection.
    TableMismatch {
        /// The connection whose reservation is missing or stolen.
        conn: ConnId,
        /// The link whose table disagrees.
        link: LinkId,
        /// The (unwrapped) slot index expected to be owned.
        slot: u32,
    },
    /// A link table reserves a slot no grant accounts for.
    OrphanReservation {
        /// The link holding the stray reservation.
        link: LinkId,
        /// The slot index.
        slot: u32,
        /// The connection the table claims owns it.
        conn: ConnId,
    },
    /// The granted slots deliver less than the contracted bandwidth.
    BandwidthShort {
        /// The under-provisioned connection.
        conn: ConnId,
        /// Bytes per second granted.
        granted: u64,
        /// Bytes per second contracted.
        required: u64,
    },
    /// The worst-case latency bound exceeds the contracted deadline.
    LatencyExceeded {
        /// The late connection.
        conn: ConnId,
        /// The analytical worst-case bound, in nanoseconds.
        bound_ns: u64,
        /// The contract, in nanoseconds.
        required_ns: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingGrant { conn } => write!(f, "{conn} has no grant"),
            Violation::BadPath { conn, error } => write!(f, "{conn} path invalid: {error}"),
            Violation::WrongEndpoints { conn } => {
                write!(f, "{conn} path does not connect its NIs")
            }
            Violation::TableMismatch { conn, link, slot } => {
                write!(f, "{conn} reservation missing on {link} slot {slot}")
            }
            Violation::OrphanReservation { link, slot, conn } => {
                write!(f, "orphan reservation for {conn} on {link} slot {slot}")
            }
            Violation::BandwidthShort {
                conn,
                granted,
                required,
            } => write!(f, "{conn} granted {granted} B/s < required {required} B/s"),
            Violation::LatencyExceeded {
                conn,
                bound_ns,
                required_ns,
            } => write!(f, "{conn} bound {bound_ns} ns > required {required_ns} ns"),
        }
    }
}

/// Checks `alloc` against `spec`, returning every violation found.
///
/// # Errors
///
/// Returns the non-empty list of [`Violation`]s if any check fails.
pub fn validate(spec: &SystemSpec, alloc: &Allocation) -> Result<(), Vec<Violation>> {
    let mut violations = Vec::new();
    let topo = spec.topology();
    let size = alloc.table_size();
    let shift = spec.config().slots_per_hop();
    let entry = |link: LinkId, slot: u32| link.index() * size as usize + slot as usize;

    // Expected reservations, rebuilt from the grants: (link, slot) -> conn.
    let mut expected: Vec<Option<ConnId>> = vec![None; topo.link_count() * size as usize];
    let mut links = Vec::new();

    for c in spec.connections() {
        let Some(grant) = alloc.grant(c.id) else {
            violations.push(Violation::MissingGrant { conn: c.id });
            continue;
        };
        // Path must be walkable...
        if let Err(error) = grant.path.links_into(topo, &mut links) {
            violations.push(Violation::BadPath { conn: c.id, error });
            continue;
        }
        // ... and connect exactly this connection's NIs.
        if grant.path.src != spec.ip_ni(c.src) || grant.path.dst != spec.ip_ni(c.dst) {
            violations.push(Violation::WrongEndpoints { conn: c.id });
            continue;
        }
        // Record the shifted reservations this grant implies.
        for &s in &grant.inject_slots {
            for (i, &l) in links.iter().enumerate() {
                let slot = (s + i as u32 * shift) % size;
                expected[entry(l, slot)] = Some(c.id);
                if alloc.link_table(l).owner(slot) != Some(c.id) {
                    violations.push(Violation::TableMismatch {
                        conn: c.id,
                        link: l,
                        slot,
                    });
                }
            }
        }
        // Bandwidth.
        let granted = alloc.allocated_bandwidth(spec, c.id).bytes_per_sec();
        if granted < c.bandwidth.bytes_per_sec() {
            violations.push(Violation::BandwidthShort {
                conn: c.id,
                granted,
                required: c.bandwidth.bytes_per_sec(),
            });
        }
        // Latency.
        let bound_ns = alloc.worst_case_latency_ns(spec, c.id).ceil() as u64;
        if bound_ns > c.max_latency_ns {
            violations.push(Violation::LatencyExceeded {
                conn: c.id,
                bound_ns,
                required_ns: c.max_latency_ns,
            });
        }
    }

    // No orphan reservations.
    for link in topo.links() {
        for (slot, owner) in alloc.link_table(link).iter() {
            if let Some(conn) = owner {
                if expected[entry(link, slot)] != Some(conn) {
                    violations.push(Violation::OrphanReservation { link, slot, conn });
                }
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::{allocate, Grant};
    use aelite_spec::generate::{paper_workload, scaled_workload, WorkloadBuilder};
    use aelite_spec::ids::{NiId, Port};

    /// One [`Violation::OrphanReservation`] per table entry held by a
    /// connection of `gone`, in the validator's scan order: link, then
    /// slot.
    fn orphans_of(spec: &SystemSpec, alloc: &Allocation, gone: &[ConnId]) -> Vec<Violation> {
        let mut out = Vec::new();
        for link in spec.topology().links() {
            for (slot, owner) in alloc.link_table(link).iter() {
                if let Some(conn) = owner.filter(|c| gone.contains(c)) {
                    out.push(Violation::OrphanReservation { link, slot, conn });
                }
            }
        }
        out
    }

    /// Every `step`-th connection of `spec`, starting half a step in.
    fn every(spec: &SystemSpec, step: usize) -> Vec<ConnId> {
        spec.connections()
            .iter()
            .skip(step / 2)
            .step_by(step)
            .map(|c| c.id)
            .collect()
    }

    /// The first `(link, slot)` entry the tables reserve for `conn`.
    fn first_entry(spec: &SystemSpec, alloc: &Allocation, conn: ConnId) -> (LinkId, u32) {
        spec.topology()
            .links()
            .find_map(|l| {
                let slots = alloc.link_table(l).slots_of(conn);
                slots.first().map(|&s| (l, s))
            })
            .expect("a granted connection holds a table entry")
    }

    /// Detaches the grants of `conns`: their reservations stay behind.
    fn detach(alloc: &mut Allocation, conns: &[ConnId]) -> Vec<Grant> {
        conns
            .iter()
            .map(|&c| alloc.detach_grant(c).expect("granted"))
            .collect()
    }

    /// Breaks the port lists of five connections whose paths cross at
    /// least two routers, picked in spec order, one way each: emptied,
    /// last port dropped, a port appended, an unknown first port, and a
    /// declared destination that the ports do not reach.
    fn break_paths(spec: &SystemSpec, alloc: &mut Allocation) -> Vec<ConnId> {
        let long: Vec<ConnId> = spec
            .connections()
            .iter()
            .map(|c| c.id)
            .filter(|&c| alloc.grant(c).is_some_and(|g| g.path.ports.len() >= 2))
            .collect();
        assert!(long.len() >= 5, "too few multi-router paths");
        let victims: Vec<ConnId> = (0..5).map(|k| long[k * long.len() / 5]).collect();
        for (k, &c) in victims.iter().enumerate() {
            let path = &mut alloc.grant_mut(c).unwrap().path;
            match k {
                0 => path.ports.clear(),
                1 => drop(path.ports.pop()),
                2 => path.ports.push(Port(0)),
                3 => path.ports[0] = Port(u8::MAX),
                _ => path.dst = NiId::new(u32::from(path.dst == NiId::new(0))),
            }
        }
        victims
    }

    /// Frees one table entry of a connection and hands one of a second
    /// to a third, the thief. Returns the two victims, their entries and
    /// the thief.
    fn steal(
        spec: &SystemSpec,
        alloc: &mut Allocation,
    ) -> ([ConnId; 2], [(LinkId, u32); 2], ConnId) {
        let picked = every(spec, 61);
        let (victims, thief) = ([picked[0], picked[1]], picked[2]);
        let entries = victims.map(|c| first_entry(spec, alloc, c));
        alloc.link_table_mut(entries[0].0).release(entries[0].1);
        let (link, slot) = entries[1];
        alloc.link_table_mut(link).release(slot);
        alloc.link_table_mut(link).reserve(slot, thief).unwrap();
        (victims, entries, thief)
    }

    /// `spec` without every 7th connection, and the connections cut.
    fn cut_spec(spec: &SystemSpec) -> (SystemSpec, Vec<ConnId>) {
        let cut = every(spec, 7);
        let kept: Vec<ConnId> = spec
            .connections()
            .iter()
            .map(|c| c.id)
            .filter(|c| !cut.contains(c))
            .collect();
        (spec.restricted_to_connections(&kept), cut)
    }

    /// Gives the later of the first two connections that share both NIs
    /// the earlier one's route and slots, so both grants claim the same
    /// entries. Returns `(earlier, later)`.
    fn share_claim(spec: &SystemSpec, alloc: &mut Allocation) -> (ConnId, ConnId) {
        let ends = |c: ConnId| {
            let c = spec.connection(c);
            (spec.ip_ni(c.src), spec.ip_ni(c.dst))
        };
        let ids: Vec<ConnId> = spec.connections().iter().map(|c| c.id).collect();
        let (a, b) = ids
            .iter()
            .enumerate()
            .find_map(|(i, &a)| {
                ids[i + 1..]
                    .iter()
                    .find(|&&b| ends(a) == ends(b))
                    .map(|&b| (a, b))
            })
            .expect("two connections share both NIs");
        let donor = alloc.grant(a).unwrap().clone();
        let grant = alloc.grant_mut(b).unwrap();
        grant.path = donor.path;
        grant.inject_slots = donor.inject_slots;
        (a, b)
    }

    /// The reference validator: expected reservations in a hash map,
    /// each path walked into a fresh `Vec`. [`validate`] must return the
    /// same violations in the same order.
    fn hashed_validate(spec: &SystemSpec, alloc: &Allocation) -> Vec<Violation> {
        let mut violations = Vec::new();
        let topo = spec.topology();
        let size = alloc.table_size();
        let mut expected: std::collections::HashMap<(usize, u32), ConnId> =
            std::collections::HashMap::new();
        for c in spec.connections() {
            let Some(grant) = alloc.grant(c.id) else {
                violations.push(Violation::MissingGrant { conn: c.id });
                continue;
            };
            let links = match grant.path.links(topo) {
                Ok(l) => l,
                Err(error) => {
                    violations.push(Violation::BadPath { conn: c.id, error });
                    continue;
                }
            };
            if grant.path.src != spec.ip_ni(c.src) || grant.path.dst != spec.ip_ni(c.dst) {
                violations.push(Violation::WrongEndpoints { conn: c.id });
                continue;
            }
            let shift = spec.config().slots_per_hop();
            for &s in &grant.inject_slots {
                for (i, &l) in links.iter().enumerate() {
                    let slot = (s + i as u32 * shift) % size;
                    expected.insert((l.index(), slot), c.id);
                    if alloc.link_table(l).owner(slot) != Some(c.id) {
                        violations.push(Violation::TableMismatch {
                            conn: c.id,
                            link: l,
                            slot,
                        });
                    }
                }
            }
            let granted = alloc.allocated_bandwidth(spec, c.id).bytes_per_sec();
            if granted < c.bandwidth.bytes_per_sec() {
                violations.push(Violation::BandwidthShort {
                    conn: c.id,
                    granted,
                    required: c.bandwidth.bytes_per_sec(),
                });
            }
            let bound_ns = alloc.worst_case_latency_ns(spec, c.id).ceil() as u64;
            if bound_ns > c.max_latency_ns {
                violations.push(Violation::LatencyExceeded {
                    conn: c.id,
                    bound_ns,
                    required_ns: c.max_latency_ns,
                });
            }
        }
        for link in topo.links() {
            for (slot, owner) in alloc.link_table(link).iter() {
                if let Some(conn) = owner {
                    if expected.get(&(link.index(), slot)) != Some(&conn) {
                        violations.push(Violation::OrphanReservation { link, slot, conn });
                    }
                }
            }
        }
        violations
    }

    /// Checks `validate` against the oracle on `spec` (allocated) and on
    /// every corruption above, and on the allocation checked against
    /// `other`, a second draw on the same platform.
    fn assert_matches_oracle(spec: &SystemSpec, other: &SystemSpec) {
        let alloc = allocate(spec).unwrap();
        let same = |label: &str, spec: &SystemSpec, alloc: &Allocation| {
            let dense = validate(spec, alloc).err().unwrap_or_default();
            assert_eq!(dense, hashed_validate(spec, alloc), "{label}");
            dense.len()
        };
        assert_eq!(same("clean", spec, &alloc), 0);

        let mut detached = alloc.clone();
        detach(&mut detached, &every(spec, 37));
        let mut broken = alloc.clone();
        break_paths(spec, &mut broken);
        let mut robbed = alloc.clone();
        steal(spec, &mut robbed);
        let mut shared = alloc.clone();
        share_claim(spec, &mut shared);
        let (view, _) = cut_spec(spec);
        for (label, spec, alloc) in [
            ("detached", spec, &detached),
            ("broken paths", spec, &broken),
            ("stolen entries", spec, &robbed),
            ("shared claim", spec, &shared),
            ("cut spec", &view, &alloc),
            ("other draw", other, &alloc),
        ] {
            assert!(same(label, spec, alloc) > 0, "{label} must violate");
        }
    }

    #[test]
    fn dense_validator_matches_the_hashed_oracle() {
        for seed in 1..=3 {
            assert_matches_oracle(&paper_workload(seed), &paper_workload(seed + 10));
        }
        for seed in 1..=3 {
            assert_matches_oracle(
                &scaled_workload(8, 8, 4, 1_000, seed),
                &scaled_workload(8, 8, 4, 1_000, seed + 10),
            );
        }
        // Mesochronous links: two slots per hop.
        assert_matches_oracle(
            &scaled_workload(8, 8, 4, 1_000, 4).with_link_pipeline_stages(1, 2),
            &scaled_workload(8, 8, 4, 1_000, 14).with_link_pipeline_stages(1, 2),
        );
        let mesh16 = |seed| {
            WorkloadBuilder::mesh(16, 16, 4)
                .mega_traffic()
                .connections(3_000)
                .tiles(8, 8)
                .seed(seed)
                .build()
        };
        for seed in 1..=2 {
            assert_matches_oracle(&mesh16(seed), &mesh16(seed + 10));
        }
    }

    #[test]
    fn paper_allocation_validates_clean() {
        let spec = paper_workload(42);
        let alloc = allocate(&spec).unwrap();
        validate(&spec, &alloc).unwrap();
    }

    #[test]
    fn missing_grant_detected() {
        let spec = paper_workload(1);
        let partial = spec.restricted_to(&[aelite_spec::ids::AppId::new(0)]);
        // Allocate only app 0, then validate against the *full* spec.
        let alloc = allocate(&partial).unwrap();
        let err = validate(&spec, &alloc).unwrap_err();
        assert!(err
            .iter()
            .any(|v| matches!(v, Violation::MissingGrant { .. })));
    }

    #[test]
    fn detached_grant_is_missing_and_leaves_its_entries_orphaned() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let gone = every(&spec, 37);
        let grants = detach(&mut alloc, &gone);
        let mut expected: Vec<Violation> = gone
            .iter()
            .map(|&conn| Violation::MissingGrant { conn })
            .collect();
        expected.extend(orphans_of(&spec, &alloc, &gone));
        let held: usize = grants
            .iter()
            .map(|g| g.inject_slots.len() * g.path.link_count())
            .sum();
        assert_eq!(expected.len(), gone.len() + held);
        assert_eq!(validate(&spec, &alloc).unwrap_err(), expected);
    }

    #[test]
    fn connections_cut_from_the_spec_leave_only_orphans() {
        let spec = paper_workload(1);
        let alloc = allocate(&spec).unwrap();
        let (view, cut) = cut_spec(&spec);
        let err = validate(&view, &alloc).unwrap_err();
        assert!(!err.is_empty());
        assert_eq!(err, orphans_of(&spec, &alloc, &cut));
    }

    #[test]
    fn allocation_for_another_draw_is_misrouted_short_and_late() {
        // Two NIs: a connection of one draw often has the endpoints of
        // the same-numbered connection of another, so all three checks
        // after the path walk fire.
        let draw = |seed| {
            WorkloadBuilder::mesh(2, 1, 1)
                .connections(20)
                .seed(seed)
                .build()
        };
        let alloc = allocate(&draw(1)).unwrap();
        let spec = draw(2);
        let err = validate(&spec, &alloc).unwrap_err();
        let count = |f: fn(&Violation) -> bool| err.iter().filter(|v| f(v)).count();
        assert_eq!(count(|v| matches!(v, Violation::WrongEndpoints { .. })), 6);
        assert_eq!(count(|v| matches!(v, Violation::BandwidthShort { .. })), 7);
        assert_eq!(count(|v| matches!(v, Violation::LatencyExceeded { .. })), 1);
        for v in &err {
            match *v {
                Violation::WrongEndpoints { conn } => {
                    let (c, p) = (spec.connection(conn), &alloc.grant(conn).unwrap().path);
                    assert!((p.src, p.dst) != (spec.ip_ni(c.src), spec.ip_ni(c.dst)));
                }
                Violation::BandwidthShort {
                    conn,
                    granted,
                    required,
                } => {
                    assert!(granted < required);
                    assert_eq!(required, spec.connection(conn).bandwidth.bytes_per_sec());
                }
                Violation::LatencyExceeded {
                    conn,
                    bound_ns,
                    required_ns,
                } => {
                    assert!(bound_ns > required_ns);
                    assert_eq!(required_ns, spec.connection(conn).max_latency_ns);
                }
                Violation::OrphanReservation { .. } => {}
                ref other => panic!("unexpected {other}"),
            }
        }
        // A misrouted grant accounts for none of its entries.
        let misrouted: Vec<ConnId> = err
            .iter()
            .filter_map(|v| match *v {
                Violation::WrongEndpoints { conn } => Some(conn),
                _ => None,
            })
            .collect();
        let orphans: Vec<Violation> = err
            .iter()
            .filter(|v| matches!(v, Violation::OrphanReservation { .. }))
            .cloned()
            .collect();
        assert_eq!(orphans, orphans_of(&spec, &alloc, &misrouted));
        assert_eq!(err.len(), 14 + orphans.len());
    }

    #[test]
    fn broken_port_lists_are_bad_paths_with_their_entries_orphaned() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let broken = break_paths(&spec, &mut alloc);
        let err = validate(&spec, &alloc).unwrap_err();
        let (bad, orphans) = err.split_at(broken.len());
        for (v, &c) in bad.iter().zip(&broken) {
            assert!(
                matches!(v, Violation::BadPath { conn, .. } if *conn == c),
                "{v}"
            );
        }
        let errors: Vec<PathError> = bad
            .iter()
            .map(|v| match v {
                Violation::BadPath { error, .. } => *error,
                other => panic!("unexpected {other}"),
            })
            .collect();
        assert_eq!(errors[0], PathError::Empty);
        assert!(matches!(errors[1], PathError::EndsAtRouter { .. }));
        assert!(matches!(errors[2], PathError::EntersNiMidway { .. }));
        assert!(matches!(errors[3], PathError::NoSuchPort { port, .. } if port == Port(u8::MAX)));
        assert!(matches!(errors[4], PathError::WrongDestination { .. }));
        assert_eq!(orphans, orphans_of(&spec, &alloc, &broken));
    }

    #[test]
    fn freed_and_stolen_entries_are_table_mismatches() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let (victims, entries, thief) = steal(&spec, &mut alloc);
        let mut expected: Vec<Violation> = victims
            .iter()
            .zip(entries)
            .map(|(&conn, (link, slot))| Violation::TableMismatch { conn, link, slot })
            .collect();
        let (link, slot) = entries[1];
        expected.push(Violation::OrphanReservation {
            link,
            slot,
            conn: thief,
        });
        assert_eq!(validate(&spec, &alloc).unwrap_err(), expected);
    }

    #[test]
    fn the_later_of_two_claims_on_an_entry_wins() {
        let spec = paper_workload(1);
        let mut alloc = allocate(&spec).unwrap();
        let (a, b) = share_claim(&spec, &mut alloc);
        let err = validate(&spec, &alloc).unwrap_err();
        // `b` now claims each of `a`'s entries, in its slot-major order;
        // the tables still say `a` holds them ...
        let donor = alloc.grant(a).unwrap();
        let shift = spec.config().slots_per_hop();
        let mut expected: Vec<Violation> = Vec::new();
        for &s in &donor.inject_slots {
            for (i, &link) in donor.links.iter().enumerate() {
                let slot = (s + i as u32 * shift) % alloc.table_size();
                expected.push(Violation::TableMismatch {
                    conn: b,
                    link,
                    slot,
                });
            }
        }
        // ... so `a`'s entries are orphans (the later claim overwrote
        // `a`'s), and so are the ones `b` really holds.
        expected.extend(orphans_of(&spec, &alloc, &[a, b]));
        let (contract, rest): (Vec<Violation>, Vec<Violation>) = err.into_iter().partition(|v| {
            matches!(
                v,
                Violation::BandwidthShort { .. } | Violation::LatencyExceeded { .. }
            )
        });
        assert_eq!(rest, expected);
        for v in contract {
            assert!(matches!(
                v,
                Violation::BandwidthShort { conn, .. } | Violation::LatencyExceeded { conn, .. }
                    if conn == b
            ));
        }
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::BandwidthShort {
            conn: ConnId::new(1),
            granted: 10,
            required: 20,
        };
        let s = v.to_string();
        assert!(
            s.contains("c1") && s.contains("10") && s.contains("20"),
            "{s}"
        );
    }
}
