//! TDM slot tables: the reservation state of one link.
//!
//! Contention-free routing reserves, for every link, which connection may
//! occupy it during each slot of the table period. The tables of all links
//! plus the per-connection injection slots *are* the allocation.

use crate::mask::SlotMask;
use aelite_spec::ids::ConnId;
use core::fmt;

/// The reservation table of a single link: `size` slots, each free or
/// owned by one connection.
///
/// Alongside the `slot → owner` vector, the table maintains a
/// [`SlotMask`] bitset of its free slots ([`free_mask`](Self::free_mask)),
/// kept in sync by every mutating operation, so the allocator can
/// intersect the free sets of a whole path with word-level rotate-and-AND
/// kernels. The allocator's decisions are driven entirely by that mask;
/// the owner side only answers probes (`owner`, `reserve` conflict
/// reporting, teardown).
///
/// # Examples
///
/// ```
/// use aelite_alloc::table::SlotTable;
/// use aelite_spec::ids::ConnId;
///
/// let mut t = SlotTable::new(8);
/// t.reserve(3, ConnId::new(0)).unwrap();
/// assert_eq!(t.owner(3), Some(ConnId::new(0)));
/// assert!(t.is_free(4));
/// assert!(!t.free_mask().get(3));
/// assert_eq!(t.reserved_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable {
    owners: Vec<Option<ConnId>>,
    free: SlotMask,
}

impl SlotTable {
    /// Creates a table of `size` free slots.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: u32) -> Self {
        assert!(size > 0, "slot table must have at least one slot");
        SlotTable {
            owners: vec![None; size as usize],
            free: SlotMask::new_full(size),
        }
    }

    /// The table period in slots.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.owners.len() as u32
    }

    /// Whether `slot` (taken modulo the table size) is unreserved.
    #[must_use]
    pub fn is_free(&self, slot: u32) -> bool {
        self.free.get(self.wrap(slot) as u32)
    }

    /// The bitset of free slots (bit set ⇔ slot unreserved), maintained in
    /// lock-step with the owner vector.
    #[must_use]
    pub fn free_mask(&self) -> &SlotMask {
        &self.free
    }

    /// The connection owning `slot` (modulo table size), if any.
    #[must_use]
    pub fn owner(&self, slot: u32) -> Option<ConnId> {
        self.owners[self.wrap(slot)]
    }

    /// Reserves `slot` (modulo table size) for `conn`.
    ///
    /// # Errors
    ///
    /// Returns the current owner if the slot is already taken — the caller
    /// (allocator) treats this as "try elsewhere", never as a panic,
    /// because contention for slots is the normal case.
    pub fn reserve(&mut self, slot: u32, conn: ConnId) -> Result<(), ConnId> {
        let i = self.wrap(slot);
        if let Some(owner) = self.owners[i] {
            return Err(owner);
        }
        self.owners[i] = Some(conn);
        self.free.clear(i as u32);
        Ok(())
    }

    /// Releases `slot` (modulo table size), returning its previous owner.
    pub fn release(&mut self, slot: u32) -> Option<ConnId> {
        let i = self.wrap(slot);
        let prev = self.owners[i].take();
        if prev.is_some() {
            self.free.set(i as u32);
        }
        prev
    }

    /// Number of reserved slots.
    #[must_use]
    pub fn reserved_count(&self) -> u32 {
        self.size() - self.free.count()
    }

    /// Number of unreserved slots — the table's spare capacity, used by
    /// the allocator's spare-capacity steering to score candidate
    /// routes by their bottleneck link.
    #[must_use]
    pub fn free_count(&self) -> u32 {
        self.free.count()
    }

    /// Fraction of the table that is reserved, in `[0, 1]`.
    #[must_use]
    pub fn utilisation(&self) -> f64 {
        f64::from(self.reserved_count()) / f64::from(self.size())
    }

    /// The slots reserved for `conn`, ascending.
    #[must_use]
    pub fn slots_of(&self, conn: ConnId) -> Vec<u32> {
        self.owners
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == Some(conn))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Iterates over `(slot, owner)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Option<ConnId>)> + '_ {
        (0..).zip(self.owners.iter().copied())
    }

    /// `slot` modulo the table size. A grant's probe of link `i` is its
    /// injection slot plus `i * slots_per_hop`, almost always below twice
    /// the size, so that case is one compare-and-subtract; only the rest
    /// pays a division.
    #[inline]
    fn wrap(&self, slot: u32) -> usize {
        let size = self.size();
        let i = if slot < size {
            slot
        } else if slot - size < size {
            slot - size
        } else {
            slot % size
        };
        i as usize
    }
}

impl fmt::Display for SlotTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.iter() {
            if i > 0 {
                write!(f, " ")?;
            }
            match s {
                Some(c) => write!(f, "{c}")?,
                None => write!(f, "-")?,
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_spec::timing::SlotService;

    fn c(i: u32) -> ConnId {
        ConnId::new(i)
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut t = SlotTable::new(4);
        t.reserve(2, c(7)).unwrap();
        assert_eq!(t.owner(2), Some(c(7)));
        assert_eq!(t.release(2), Some(c(7)));
        assert!(t.is_free(2));
        assert_eq!(t.release(2), None);
    }

    #[test]
    fn reserve_wraps_modulo_size() {
        let mut t = SlotTable::new(4);
        t.reserve(6, c(0)).unwrap(); // = slot 2
        assert_eq!(t.owner(2), Some(c(0)));
        assert!(!t.is_free(6));
    }

    #[test]
    fn reserve_and_release_wrap_far_past_twice_the_size() {
        // Slots >= 2 * size take the division fallback of `wrap`.
        for size in [1u32, 4, 32, 64, 65] {
            let mut t = SlotTable::new(size);
            for k in [2u32, 3, 7, 1000] {
                let slot = k * size + size / 2;
                t.reserve(slot, c(k)).unwrap();
                assert_eq!(t.owner(size / 2), Some(c(k)), "size {size} slot {slot}");
                assert!(!t.free_mask().get(size / 2));
                assert_eq!(t.reserve(slot - size, c(0)), Err(c(k)));
                assert_eq!(t.release(slot + size), Some(c(k)));
                assert!(t.is_free(slot));
            }
            assert_eq!(t.free_count(), size);
        }
    }

    #[test]
    fn double_reserve_reports_owner() {
        let mut t = SlotTable::new(4);
        t.reserve(1, c(0)).unwrap();
        assert_eq!(t.reserve(1, c(1)), Err(c(0)));
        // Original reservation untouched.
        assert_eq!(t.owner(1), Some(c(0)));
    }

    #[test]
    fn slots_of_returns_ascending() {
        let mut t = SlotTable::new(8);
        for s in [6, 1, 4] {
            t.reserve(s, c(3)).unwrap();
        }
        assert_eq!(t.slots_of(c(3)), vec![1, 4, 6]);
    }

    #[test]
    fn utilisation_fraction() {
        let mut t = SlotTable::new(8);
        t.reserve(0, c(0)).unwrap();
        t.reserve(1, c(0)).unwrap();
        assert!((t.utilisation() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_marks_free_and_owned() {
        let mut t = SlotTable::new(3);
        t.reserve(1, c(5)).unwrap();
        assert_eq!(t.to_string(), "[- c5 -]");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_size_table_rejected() {
        let _ = SlotTable::new(0);
    }

    #[test]
    fn full_table_keeps_every_owner_and_refuses_more() {
        let mut t = SlotTable::new(32);
        for s in 0..32 {
            t.reserve(s, c(s)).unwrap();
            assert_eq!(t.reserved_count(), s + 1);
        }
        assert_eq!(t.free_count(), 0);
        assert!(t.free_mask().is_empty());
        for s in 0..32 {
            assert_eq!(t.owner(s), Some(c(s)), "filling preserved owners");
            assert_eq!(t.reserve(s, c(99)), Err(c(s)));
        }
    }

    #[test]
    fn tables_compare_by_reservations_not_by_history() {
        let mut a = SlotTable::new(16);
        let mut b = SlotTable::new(16);
        assert_eq!(a, b, "both empty");
        for (s, owner) in [(1, 5), (9, 5), (14, 2)] {
            a.reserve(s, c(owner)).unwrap();
        }
        // Same reservations reached in another order, through a detour.
        b.reserve(3, c(7)).unwrap();
        for (s, owner) in [(14, 2), (9, 5), (1, 5)] {
            b.reserve(s, c(owner)).unwrap();
        }
        assert_ne!(a, b);
        b.release(3);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
        // Same slot set, different owner: unequal.
        let mut other = SlotTable::new(16);
        for (s, owner) in [(1, 5), (9, 4), (14, 2)] {
            other.reserve(s, c(owner)).unwrap();
        }
        assert_ne!(a, other);
        // Same (empty) reservations, different period: unequal.
        assert_ne!(SlotTable::new(16), SlotTable::new(17));
    }

    #[test]
    fn probes_match_the_reservation_pattern_across_word_boundaries() {
        // slots_of, iter and the free mask against the pattern that
        // filled the table, across word-boundary sizes.
        for size in [1u32, 7, 63, 64, 65, 100, 128, 130] {
            let owner_of = |s: u32| match (s * 7 + 3) % 5 {
                0 => Some(c(0)),
                1 => Some(c(1)),
                _ => None,
            };
            let mut t = SlotTable::new(size);
            for s in 0..size {
                if let Some(conn) = owner_of(s) {
                    t.reserve(s, conn).unwrap();
                }
            }
            for conn in [c(0), c(1)] {
                let expect: Vec<u32> = (0..size).filter(|&s| owner_of(s) == Some(conn)).collect();
                assert_eq!(t.slots_of(conn), expect, "size {size}");
            }
            assert!(t.iter().all(|(s, o)| o == owner_of(s)), "size {size}");
            assert_eq!(t.iter().count() as u32, size);
            for s in 0..size {
                assert_eq!(t.free_mask().get(s), owner_of(s).is_none(), "size {size}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn gaps_reject_unsorted() {
        let _ = SlotService::new(&[4, 1], 8);
    }

    #[test]
    #[should_panic(expected = "out of table range")]
    fn gaps_reject_out_of_range() {
        let _ = SlotService::new(&[9], 8);
    }

    #[test]
    fn worst_window_single_flit_is_max_gap() {
        assert_eq!(SlotService::new(&[1, 4], 8).worst_wait(), 5);
        assert_eq!(SlotService::new(&[0, 2, 4, 6], 8).worst_wait(), 2);
    }

    #[test]
    fn worst_window_single_slot_connection() {
        // One slot in 8: every flit costs a full revolution.
        assert_eq!(SlotService::new(&[3], 8).worst_wait(), 8);
    }

    #[test]
    #[should_panic(expected = "no slots")]
    fn worst_window_requires_slots() {
        let _ = SlotService::new(&[], 8).worst_wait();
    }
}
