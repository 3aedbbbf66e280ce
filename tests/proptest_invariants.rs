//! Property-based tests of the core invariants (a slot set's worst wait
//! and busiest window, header codec round-trips, bisync FIFO ordering, slot
//! table ≡ free mask, and allocate → validate → simulate composability),
//! exercised over randomly generated workloads, slot sets, routes and
//! clock phases.

use aelite::AeliteSystem;
use aelite_alloc::mask::SlotMask;
use aelite_alloc::table::SlotTable;
use aelite_alloc::{allocate, validate_allocation};
use aelite_noc::codec::{pack_header, route_capacity_hops, unpack_header};
use aelite_noc::network::NetworkKind;
use aelite_noc::phit::{Header, RouteBits};
use aelite_noc::turbo::build_turbo;
use aelite_sim::bisync::BisyncFifo;
use aelite_sim::time::{SimDuration, SimTime};
use aelite_spec::generate::{random_workload, WorkloadParams};
use aelite_spec::ids::{ConnId, Port};
use aelite_spec::timing::SlotService;
use aelite_spec::topology::Topology;
use aelite_spec::NocConfig;
use proptest::prelude::*;

/// Strategy: a sorted, deduplicated, non-empty slot set within a table.
fn slot_sets() -> impl Strategy<Value = (Vec<u32>, u32)> {
    (4u32..=64).prop_flat_map(|size| {
        proptest::collection::btree_set(0..size, 1..=(size as usize).min(16))
            .prop_map(move |set| (set.into_iter().collect(), size))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The gaps from each slot to the next, found by stepping through
    /// the table, sum to exactly one revolution; the worst wait is the
    /// largest of them, and a window of one revolution holds every slot.
    #[test]
    fn gaps_sum_to_table_size((slots, size) in slot_sets()) {
        let g: Vec<u32> = slots
            .iter()
            .map(|&at| {
                (1..=size)
                    .find(|d| slots.binary_search(&((at + d) % size)).is_ok())
                    .expect("a non-empty slot set recurs within one revolution")
            })
            .collect();
        prop_assert_eq!(g.iter().sum::<u32>(), size);
        let service = SlotService::new(&slots, size);
        prop_assert_eq!(service.worst_wait(), g.iter().copied().max().unwrap());
        prop_assert_eq!(service.max_service(size), slots.len() as u32);
    }

    /// The worst wait matches a brute-force computation: the longest
    /// wait, over every table position, from that position to the next
    /// reserved slot strictly after it.
    #[test]
    fn worst_window_matches_brute_force((slots, size) in slot_sets()) {
        let fast = SlotService::new(&slots, size).worst_wait();
        let brute = (0..size)
            .map(|at| {
                (1..=size)
                    .find(|d| slots.binary_search(&((at + d) % size)).is_ok())
                    .expect("a non-empty slot set recurs within one revolution")
            })
            .max()
            .unwrap();
        prop_assert_eq!(fast, brute);
    }

    /// The two-pointer busiest window matches a brute-force count over
    /// every window start, for windows shorter and longer than a
    /// revolution.
    #[test]
    fn max_slots_in_window_matches_brute_force(
        (slots, size) in slot_sets(),
        window in 0u32..200,
    ) {
        let brute = (0..size)
            .map(|start| {
                (start..start + window)
                    .filter(|k| slots.binary_search(&(k % size)).is_ok())
                    .count() as u32
            })
            .max()
            .unwrap_or(0);
        prop_assert_eq!(SlotService::new(&slots, size).max_service(window), brute);
    }

    /// Adding a slot never worsens the worst wait.
    #[test]
    fn extra_slot_never_hurts((slots, size) in slot_sets()) {
        if (slots.len() as u32) < size {
            let free = (0..size).find(|s| !slots.contains(s)).expect("space left");
            let mut more = slots.clone();
            more.push(free);
            more.sort_unstable();
            let wait = |slots: &[u32]| SlotService::new(slots, size).worst_wait();
            prop_assert!(wait(&more) <= wait(&slots));
        }
    }

    /// Header wire-format round-trips for every representable route.
    #[test]
    fn codec_roundtrip(
        ports in proptest::collection::vec(0u8..8, 0..=8),
        conn in 0u32..256,
        width in prop_oneof![Just(32u32), Just(64), Just(128), Just(256)],
    ) {
        prop_assume!(ports.len() <= route_capacity_hops(width));
        let route: Vec<Port> = ports.iter().map(|&p| Port(p)).collect();
        let header = Header {
            route: RouteBits::from_ports(&route),
            conn: ConnId::new(conn),
        };
        let bits = pack_header(&header, width).expect("fits");
        let back = unpack_header(bits, width, route.len()).expect("unpacks");
        prop_assert_eq!(back, header);
    }

    /// The bi-synchronous FIFO preserves order and never loses or
    /// duplicates words, for any monotone push/pop schedule.
    #[test]
    fn bisync_fifo_preserves_order(
        delay_ps in 0u64..5_000,
        // Push gaps (ps) and pop gaps (ps), interleaved by timestamp.
        push_gaps in proptest::collection::vec(1u64..3_000, 1..20),
        pop_extra in 0u64..10_000,
    ) {
        let mut fifo = BisyncFifo::new("prop", push_gaps.len(), SimDuration::from_ps(delay_ps));
        let mut t = 0;
        for (i, gap) in push_gaps.iter().enumerate() {
            t += gap;
            fifo.push(SimTime::from_ps(t), i as u32);
        }
        // Pop everything after the last word is surely visible.
        let drain = SimTime::from_ps(t + delay_ps + pop_extra);
        let mut out = Vec::new();
        while let Some(v) = fifo.pop_visible(drain) {
            out.push(v);
        }
        let expect: Vec<u32> = (0..push_gaps.len() as u32).collect();
        prop_assert_eq!(out, expect);
    }
}

/// One mutation of a slot table, drawn by the mask-consistency property.
#[derive(Debug, Clone, Copy)]
enum TableOp {
    Reserve(u32, u32),
    Release(u32),
}

/// Strategy: an arbitrary sequence of reserve/release ops.
fn table_ops() -> impl Strategy<Value = (u32, Vec<TableOp>)> {
    (1u32..=150).prop_flat_map(|size| {
        let op = prop_oneof![
            (0..size * 2, 0u32..6).prop_map(|(s, c)| TableOp::Reserve(s, c)),
            (0..size * 2).prop_map(TableOp::Release),
        ];
        (Just(size), proptest::collection::vec(op, 1..120))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SlotTable`'s free-slot bitset stays consistent with its owner
    /// vector under arbitrary reserve/release sequences.
    #[test]
    fn slot_table_free_mask_stays_consistent((size, ops) in table_ops()) {
        let mut t = SlotTable::new(size);
        for op in ops {
            match op {
                TableOp::Reserve(slot, conn) => {
                    let _ = t.reserve(slot, ConnId::new(conn));
                }
                TableOp::Release(slot) => {
                    let _ = t.release(slot);
                }
            }
            // The mask, the owner vector, and the derived counters must
            // agree after every single mutation.
            let mut reserved = 0;
            for s in 0..size {
                let owner_free = t.owner(s).is_none();
                prop_assert_eq!(t.free_mask().get(s), owner_free, "slot {}", s);
                prop_assert_eq!(t.is_free(s), owner_free, "slot {}", s);
                if !owner_free {
                    reserved += 1;
                }
            }
            prop_assert_eq!(t.reserved_count(), reserved);
            prop_assert_eq!(t.free_mask().count(), size - reserved);
        }
    }

    /// The rotate-and-AND kernel matches the per-slot definition: bit `s`
    /// survives iff `a` has `s` and `b` has `(s + shift) % size`.
    #[test]
    fn and_rotated_matches_per_slot_definition(
        size in 1u32..200,
        bits_a in proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 200),
        bits_b in proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 200),
        shift in 0u32..400,
    ) {
        let mut a = SlotMask::new_empty(size);
        let mut b = SlotMask::new_empty(size);
        for s in 0..size {
            if bits_a[s as usize] {
                a.set(s);
            }
            if bits_b[s as usize] {
                b.set(s);
            }
        }
        let mut out = a.clone();
        out.and_rotated(&b, shift);
        for s in 0..size {
            prop_assert_eq!(
                out.get(s),
                a.get(s) && b.get((s + shift) % size),
                "size {} shift {} slot {}",
                size, shift, s
            );
        }
    }

    /// Word-level bit scans agree with naive linear scans.
    #[test]
    fn mask_scans_match_naive(
        size in 1u32..150,
        bits in proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 150),
        pos in 0u32..150,
    ) {
        prop_assume!(pos < size);
        let slots: Vec<u32> = (0..size).filter(|&s| bits[s as usize]).collect();
        let m = SlotMask::from_slots(size, &slots);
        let next = (0..size)
            .map(|d| (pos + d) % size)
            .find(|&s| m.get(s));
        prop_assert_eq!(m.next_one_circular(pos), next);
        let prev = (0..size)
            .map(|d| (pos + size - d) % size)
            .find(|&s| m.get(s));
        prop_assert_eq!(m.prev_one_circular(pos), prev);
        let nearest = slots.iter().copied().min_by_key(|&s| {
            let d = s.abs_diff(pos);
            d.min(size - d)
        });
        prop_assert_eq!(m.nearest_one(pos), nearest);
    }
}

/// Strategy: a small random workload spec that the generator accepts.
fn small_workloads() -> impl Strategy<Value = (u64, u32, u32, u32)> {
    // (seed, cols, rows, connections)
    (0u64..1_000, 2u32..=4, 1u32..=3, 4u32..=24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every workload the generator accepts is allocatable, the
    /// allocation passes independent validation, and simulation honours
    /// every contract and analytical bound.
    #[test]
    fn random_workloads_allocate_validate_and_simulate(
        (seed, cols, rows, conns) in small_workloads()
    ) {
        let topo = Topology::mesh(cols, rows, 2);
        let ips = (topo.ni_count() as u32).max(4);
        let params = WorkloadParams {
            apps: 2,
            connections: conns,
            ips,
            bw_min_mb: 5,
            bw_max_mb: 150,
            lat_min_ns: 60,
            lat_max_ns: 900,
            message_bytes: 16,
            ni_load_cap: 0.5,
        };
        let spec = random_workload(topo, NocConfig::paper_default(), params, seed);
        let alloc = allocate(&spec).expect("generator guarantees allocatability headroom");
        validate_allocation(&spec, &alloc).expect("allocation must validate");

        let mut net = build_turbo(&spec, &alloc, NetworkKind::Synchronous, true);
        net.run_cycles(20_000);
        let cycle_ns = spec.config().cycle_ns();
        for c in spec.connections() {
            let stats = net.latency(c.id);
            prop_assert!(stats.flits > 0, "{} never delivered", c.id);
            let bound = alloc.worst_case_latency_cycles(&spec, c.id);
            prop_assert!(
                stats.max_cycles <= bound,
                "{}: measured {} > bound {}",
                c.id, stats.max_cycles, bound
            );
            let max_ns = stats.max_cycles as f64 * cycle_ns;
            prop_assert!(max_ns <= c.max_latency_ns as f64);
        }
    }

    /// Composability holds for arbitrary generated systems, not just the
    /// paper workload.
    #[test]
    fn random_workloads_are_composable((seed, cols, rows, conns) in small_workloads()) {
        let topo = Topology::mesh(cols, rows, 2);
        let params = WorkloadParams {
            apps: 2,
            connections: conns,
            ips: (2 * cols * rows).max(4),
            bw_min_mb: 5,
            bw_max_mb: 100,
            lat_min_ns: 80,
            lat_max_ns: 900,
            message_bytes: 16,
            ni_load_cap: 0.5,
        };
        let spec = random_workload(topo, NocConfig::paper_default(), params, seed);
        let system = AeliteSystem::design(spec).expect("designs");
        let result = system.verify_composability(aelite::SimOptions {
            duration_cycles: 10_000,
            ..aelite::SimOptions::default()
        });
        prop_assert!(result.is_composable(), "{}", result);
    }
}
