//! Property: `SlotTable` is observationally a plain `slot → owner`
//! vector. Any interleaving of `reserve` and `release` applied to a
//! table and to a `Vec<Option<ConnId>>` model must return the same
//! results op by op and leave both with the same owners, with the
//! table's free mask, counters and `slots_of` in lock-step — the mask
//! bookkeeping is an optimisation, never behaviour.

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
            // Slots run past the period so the modulo wrap is exercised.
            let slot = slot % (2 * size);
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
