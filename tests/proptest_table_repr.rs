//! Properties of the slot-table representation.
//!
//! `SlotTable` is observationally a plain `slot → owner` vector. Any
//! interleaving of `reserve` and `release` applied to a table and to a
//! `Vec<Option<ConnId>>` model must return the same results op by op and
//! leave both with the same owners, with the table's free mask, counters
//! and `slots_of` in lock-step — the mask bookkeeping is an optimisation,
//! never behaviour.
//!
//! The allocator's fused path kernel (`SlotMask::intersect_path`) is a
//! fold of `SlotMask::and_rotated`, which is the slot-by-slot definition —
//! on inline one-word masks and spilled multi-word ones alike.

use aelite_alloc::mask::SlotMask;
use aelite_alloc::table::SlotTable;
use aelite_spec::ids::ConnId;
use proptest::prelude::*;

/// One table operation, decoded from raw draws so the strategy stays a
/// plain tuple vector.
#[derive(Debug, Clone, Copy)]
enum Op {
    Reserve(u32, ConnId),
    Release(u32),
}

fn decode(size: u32, raw: &[(u32, u8, u8)]) -> Vec<Op> {
    raw.iter()
        .map(|&(slot, conn, kind)| {
            // Slots run to four periods, so both the compare-and-subtract
            // wrap below twice the size and the division past it run.
            let slot = slot % (4 * size);
            let conn = ConnId::new(u32::from(conn % 8));
            match kind % 3 {
                // Bias towards reserve so tables actually fill up.
                0 | 1 => Op::Reserve(slot, conn),
                _ => Op::Release(slot),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slot_table_matches_a_plain_owner_vector_model(
        size in 8u32..=130,
        raw in proptest::collection::vec((0u32..1_000_000, 0u8..=255, 0u8..=255), 0..120),
    ) {
        let ops = decode(size, &raw);
        let mut table = SlotTable::new(size);
        let mut model: Vec<Option<ConnId>> = vec![None; size as usize];

        for (i, &op) in ops.iter().enumerate() {
            match op {
                Op::Reserve(slot, conn) => {
                    let cell = &mut model[(slot % size) as usize];
                    let expect = match *cell {
                        Some(owner) => Err(owner),
                        None => {
                            *cell = Some(conn);
                            Ok(())
                        }
                    };
                    prop_assert_eq!(table.reserve(slot, conn), expect, "op {} diverged", i);
                }
                Op::Release(slot) => {
                    let expect = model[(slot % size) as usize].take();
                    prop_assert_eq!(table.release(slot), expect, "op {} diverged", i);
                }
            }
            // Owners and free mask agree with the model after every op.
            for (s, &owner) in model.iter().enumerate() {
                let s = s as u32;
                prop_assert_eq!(table.owner(s), owner, "after op {}, slot {}", i, s);
                prop_assert_eq!(table.free_mask().get(s), owner.is_none(), "after op {}, slot {}", i, s);
            }
        }

        // Final probes agree slot by slot and connection by connection.
        let reserved = model.iter().flatten().count() as u32;
        prop_assert_eq!(table.reserved_count(), reserved);
        prop_assert_eq!(table.free_count(), size - reserved);
        prop_assert!(table.iter().map(|(_, owner)| owner).eq(model.iter().copied()));
        for c in 0..8 {
            let conn = ConnId::new(c);
            let expect: Vec<u32> = (0..size).filter(|&s| model[s as usize] == Some(conn)).collect();
            prop_assert_eq!(table.slots_of(conn), expect);
        }
        // A table rebuilt from the model alone equals the one that
        // lived through the interleaving.
        let mut rebuilt = SlotTable::new(size);
        for (s, owner) in model.iter().enumerate() {
            if let Some(conn) = *owner {
                rebuilt.reserve(s as u32, conn).unwrap();
            }
        }
        prop_assert_eq!(&table, &rebuilt);
    }
}

/// Mask sizes on both sides of every word boundary the storage has.
const SIZES: [u32; 9] = [1, 7, 31, 32, 63, 64, 65, 128, 190];

/// A mask of `size` slots whose slot `s` is bit `s` of `bits`.
fn mask_from_bits(size: u32, bits: &[u64; 3]) -> SlotMask {
    let slots: Vec<u32> = (0..size)
        .filter(|&s| bits[(s / 64) as usize] >> (s % 64) & 1 == 1)
        .collect();
    SlotMask::from_slots(size, &slots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_path_kernel_is_a_fold_of_and_rotated_is_the_per_slot_definition(
        size_pick in 0usize..SIZES.len(),
        // Six draws per link (0 to 8 links): three words, each the OR of
        // two draws (3/4 density, so intersections over several links
        // stay non-empty).
        raw in proptest::collection::vec(0u64..=u64::MAX, 0..=48),
        step_kind in 0u32..4,
        k in 0u32..5,
        raw_step in 0u32..400,
    ) {
        let size = SIZES[size_pick];
        // Shifts of 0, whole multiples of the size, past the size, and
        // anything.
        let step = match step_kind {
            0 => 0,
            1 => k * size,
            2 => size + raw_step % size,
            _ => raw_step,
        };
        let path: Vec<SlotMask> = raw
            .chunks_exact(6)
            .map(|w| mask_from_bits(size, &[w[0] | w[3], w[1] | w[4], w[2] | w[5]]))
            .collect();

        let mut fold = SlotMask::new_full(size);
        for (i, m) in path.iter().enumerate() {
            fold.and_rotated(m, i as u32 * step);
        }
        for s in 0..size {
            let free_everywhere = path
                .iter()
                .enumerate()
                .all(|(i, m)| m.get((s + i as u32 * step) % size));
            prop_assert_eq!(fold.get(s), free_everywhere, "size {} step {} slot {}", size, step, s);
        }

        let mut fused = SlotMask::new_empty(size);
        fused.intersect_path(&path, step);
        prop_assert_eq!(&fused, &fold, "size {} step {} links {}", size, step, path.len());
        prop_assert_eq!(fused.count(), fold.count());
        prop_assert!(fused.iter_ones().all(|s| s < size));
    }
}
