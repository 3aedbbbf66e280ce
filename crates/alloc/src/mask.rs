//! Word-level bitset kernels for TDM slot tables.
//!
//! The allocator's hot path asks one question thousands of times per
//! connection: *which injection slots are free on every link of a path,
//! each link shifted by its hop position?* Answering it one slot at a time
//! over `Vec<Option<ConnId>>` tables costs O(table_size × links) per
//! candidate path. [`SlotMask`] packs the free/reserved state of a table
//! into `u64` words so the same question becomes a circular-rotate-and-AND
//! over `table_size / 64` words per link ([`SlotMask::and_rotated`]), and
//! the selection kernels (nearest free slot, circular gap cover) become
//! word scans with `trailing_zeros` / `leading_zeros` instead of
//! linear-probing loops.
//!
//! A mask of `size` slots stores bit `s` of slot `s` in
//! `words[s / 64] >> (s % 64)`, where `words` is one inline `u64` when
//! `size <= 64` — no heap allocation, so a slot table's free mask is one
//! load away from its link — and a boxed word slice otherwise. Every
//! kernel reads and writes through one `words` / `words_mut` pair; only
//! [`SlotMask::and_rotated`] and the fused path kernel
//! [`SlotMask::intersect_path`] add a one-word register path.
//! **Invariant:** bits at positions `>= size` of the last word — the
//! inline word too — are always zero; every mutating method maintains
//! this, and the one-word rotate masks its result to `size` bits to keep
//! it.
//!
//! # Examples
//!
//! ```
//! use aelite_alloc::mask::SlotMask;
//!
//! let mut a = SlotMask::new_full(8);
//! a.clear(3);
//! let mut b = SlotMask::new_full(8);
//! b.clear(0);
//! // Slots free in `a` whose position shifted by 1 is free in `b`:
//! let mut cand = a.clone();
//! cand.and_rotated(&b, 1);
//! assert!(!cand.get(3)); // 3 is reserved in `a`
//! assert!(!cand.get(7)); // 7 + 1 wraps to 0, reserved in `b`
//! assert!(cand.get(5));
//! ```

use core::fmt;

/// The widest mask kept in the inline word.
const INLINE_SLOTS: u32 = 64;

/// Slot `s` of the result is slot `(s + shift) % size` of `word`, a
/// one-word mask of `size <= 64` slots, for `shift < size`; `tail` is the
/// mask's in-range bits, so the result keeps the storage invariant.
#[inline]
fn rotate_word(word: u64, shift: u32, size: u32, tail: u64) -> u64 {
    // `wrapping_shl` turns the `size - 0 = 64` shift of a full-word mask
    // into a shift by 0, which ORs `word` with itself.
    ((word >> shift) | word.wrapping_shl(size - shift)) & tail
}

/// A fixed-size circular bitset over TDM slots (bit = slot is *set*).
///
/// Used by [`SlotTable`](crate::table::SlotTable) to track free slots and
/// by the allocator as the working set of candidate injection slots.
#[derive(Clone, PartialEq, Eq)]
pub struct SlotMask {
    size: u32,
    /// The whole mask when `size <= 64`, else zero.
    inline: u64,
    /// The words of a mask wider than 64 slots, else empty.
    spill: Box<[u64]>,
}

impl SlotMask {
    /// Creates a mask of `size` slots, all clear.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new_empty(size: u32) -> Self {
        assert!(size > 0, "slot mask must have at least one slot");
        let spill = if size <= INLINE_SLOTS {
            Box::default()
        } else {
            vec![0; size.div_ceil(64) as usize].into_boxed_slice()
        };
        SlotMask {
            size,
            inline: 0,
            spill,
        }
    }

    /// The mask's words: the inline word, or the spilled slice.
    #[inline]
    fn words(&self) -> &[u64] {
        if self.size <= INLINE_SLOTS {
            core::slice::from_ref(&self.inline)
        } else {
            &self.spill
        }
    }

    /// Mutable [`words`](Self::words).
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        if self.size <= INLINE_SLOTS {
            core::slice::from_mut(&mut self.inline)
        } else {
            &mut self.spill
        }
    }

    /// Creates a mask of `size` slots, all set.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new_full(size: u32) -> Self {
        let mut m = SlotMask::new_empty(size);
        m.fill();
        m
    }

    /// Creates a mask with exactly the given slots set.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or any slot is `>= size`.
    #[must_use]
    pub fn from_slots(size: u32, slots: &[u32]) -> Self {
        let mut m = SlotMask::new_empty(size);
        for &s in slots {
            assert!(s < size, "slot {s} out of range for mask of size {size}");
            m.set(s);
        }
        m
    }

    /// The number of slots in the mask.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The mask over bits of the last word that fall inside `size`.
    #[inline]
    fn tail_mask(&self) -> u64 {
        let rem = self.size % 64;
        if rem == 0 {
            !0
        } else {
            (1u64 << rem) - 1
        }
    }

    /// Sets every slot.
    pub fn fill(&mut self) {
        let tail = self.tail_mask();
        let words = self.words_mut();
        words.fill(!0);
        *words.last_mut().expect("non-empty") &= tail;
    }

    /// Copies the contents of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub(crate) fn copy_from(&mut self, other: &SlotMask) {
        assert_eq!(self.size, other.size, "mask size mismatch");
        self.words_mut().copy_from_slice(other.words());
    }

    /// Whether `slot` is set.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= size`.
    #[inline]
    #[must_use]
    pub fn get(&self, slot: u32) -> bool {
        assert!(slot < self.size, "slot {slot} out of range");
        self.words()[(slot / 64) as usize] >> (slot % 64) & 1 == 1
    }

    /// Sets `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= size`.
    #[inline]
    pub fn set(&mut self, slot: u32) {
        assert!(slot < self.size, "slot {slot} out of range");
        self.words_mut()[(slot / 64) as usize] |= 1u64 << (slot % 64);
    }

    /// Clears `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= size`.
    #[inline]
    pub fn clear(&mut self, slot: u32) {
        assert!(slot < self.size, "slot {slot} out of range");
        self.words_mut()[(slot / 64) as usize] &= !(1u64 << (slot % 64));
    }

    /// The number of set slots.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no slot is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Reads 64 bits starting at bit position `pos` (linear, zero-padded
    /// past the last word).
    #[inline]
    fn read_linear64(&self, pos: u32) -> u64 {
        let words = self.words();
        let wi = (pos / 64) as usize;
        let off = pos % 64;
        let mut v = words.get(wi).copied().unwrap_or(0) >> off;
        if off > 0 {
            v |= words.get(wi + 1).copied().unwrap_or(0) << (64 - off);
        }
        v
    }

    /// Reads 64 *circular* bits starting at slot `pos < size`: bit `j` of
    /// the result is slot `(pos + j) % size`. (Bits `j >= size` of the
    /// result are unspecified for masks narrower than a word; callers AND
    /// the result into a mask whose out-of-range bits are zero.)
    #[inline]
    fn read64_circular(&self, pos: u32) -> u64 {
        debug_assert!(pos < self.size);
        let before_wrap = self.size - pos;
        let lo = self.read_linear64(pos);
        if before_wrap >= 64 {
            lo
        } else {
            // `lo`'s bits >= before_wrap are zero (past the end of the
            // mask), so the wrapped head can be OR-ed straight in.
            lo | (self.read_linear64(0) << before_wrap)
        }
    }

    /// The circular-rotate-and-AND kernel: keeps in `self` only the slots
    /// `s` for which `other` has slot `(s + shift) % size` set.
    ///
    /// This is the allocator's inner loop — "injection slot `s` works on
    /// a link `i` hops downstream iff the link is free in slot
    /// `s + i * slots_per_hop`" — executed in O(size / 64) word operations
    /// instead of O(size) slot probes; on a mask of at most 64 slots, one
    /// circular rotate of the inline word.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    pub fn and_rotated(&mut self, other: &SlotMask, shift: u32) {
        assert_eq!(self.size, other.size, "mask size mismatch");
        let size = self.size;
        let shift = shift % size;
        if size <= INLINE_SLOTS {
            self.inline &= rotate_word(other.inline, shift, size, self.tail_mask());
            return;
        }
        for (wi, w) in self.spill.iter_mut().enumerate() {
            let pos = (wi as u32 * 64 + shift) % size;
            *w &= other.read64_circular(pos);
        }
    }

    /// The fused path-intersection kernel: sets `self` to the slots `s`
    /// for which the `i`-th mask of `path` has slot `(s + i * step) % size`
    /// set — the injection slots free on every link of a path whose link
    /// `i` is used `i * step` slots after injection. Equal to
    /// [`fill`](Self::fill) followed by one [`and_rotated`](Self::and_rotated)
    /// per mask; on masks of at most 64 slots it runs as one pass that
    /// keeps the running intersection in a register, steps the shift by
    /// addition instead of a modulo, and writes `self` once.
    ///
    /// Every mask of `path` must have `self`'s size. The one-word path
    /// checks that in debug builds only: the allocator's masks all come
    /// from one allocation, whose table size
    /// [`Allocator::begin_round`](crate::Allocator::begin_round) checked
    /// against the spec.
    pub fn intersect_path<'a>(&mut self, path: impl IntoIterator<Item = &'a SlotMask>, step: u32) {
        let size = self.size;
        let step = step % size;
        let mut path = path.into_iter();
        let Some(first) = path.next() else {
            self.fill();
            return;
        };
        debug_assert_eq!(first.size, size, "mask size mismatch");
        if size > INLINE_SLOTS {
            self.copy_from(first);
            let mut shift = 0;
            for m in path {
                shift += step;
                if shift >= size {
                    shift -= size;
                }
                self.and_rotated(m, shift);
            }
            return;
        }
        let tail = self.tail_mask();
        let mut acc = rotate_word(first.inline, 0, size, tail);
        let mut shift = 0;
        for m in path {
            debug_assert_eq!(m.size, size, "mask size mismatch");
            shift += step;
            if shift >= size {
                shift -= size;
            }
            acc &= rotate_word(m.inline, shift, size, tail);
        }
        self.inline = acc;
    }

    /// Iterates over the set slots, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &word)| {
            let base = wi as u32 * 64;
            core::iter::successors(
                (word != 0).then_some((word, base + word.trailing_zeros())),
                move |&(w, _)| {
                    let w = w & (w - 1);
                    (w != 0).then_some((w, base + w.trailing_zeros()))
                },
            )
            .map(|(_, s)| s)
        })
    }

    /// The lowest set slot, if any.
    #[must_use]
    pub fn first_one(&self) -> Option<u32> {
        self.next_one_linear(0)
    }

    /// The lowest set slot `>= from` (no wrap-around).
    fn next_one_linear(&self, from: u32) -> Option<u32> {
        if from >= self.size {
            return None;
        }
        let words = self.words();
        let mut wi = (from / 64) as usize;
        let mut w = words[wi] & (!0u64 << (from % 64));
        loop {
            if w != 0 {
                return Some(wi as u32 * 64 + w.trailing_zeros());
            }
            wi += 1;
            if wi == words.len() {
                return None;
            }
            w = words[wi];
        }
    }

    /// The highest set slot `<= upto` (no wrap-around).
    fn prev_one_linear(&self, upto: u32) -> Option<u32> {
        let words = self.words();
        let upto = upto.min(self.size - 1);
        let mut wi = (upto / 64) as usize;
        let mut w = words[wi] & (!0u64 >> (63 - upto % 64));
        loop {
            if w != 0 {
                return Some(wi as u32 * 64 + 63 - w.leading_zeros());
            }
            if wi == 0 {
                return None;
            }
            wi -= 1;
            w = words[wi];
        }
    }

    /// The first set slot at or after `pos`, wrapping circularly.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= size`.
    #[must_use]
    pub fn next_one_circular(&self, pos: u32) -> Option<u32> {
        assert!(pos < self.size, "position {pos} out of range");
        self.next_one_linear(pos)
            .or_else(|| self.next_one_linear(0))
    }

    /// The first set slot at or before `pos`, wrapping circularly.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= size`.
    #[must_use]
    pub fn prev_one_circular(&self, pos: u32) -> Option<u32> {
        assert!(pos < self.size, "position {pos} out of range");
        self.prev_one_linear(pos)
            .or_else(|| self.prev_one_linear(self.size - 1))
    }

    /// The set slot at minimal circular distance from `ideal`; ties (one
    /// candidate each side at equal distance) go to the smaller slot
    /// number, matching a first-minimum scan over ascending slots.
    ///
    /// # Panics
    ///
    /// Panics if `ideal >= size`.
    #[must_use]
    pub fn nearest_one(&self, ideal: u32) -> Option<u32> {
        let fwd = self.next_one_circular(ideal)?;
        let bwd = self.prev_one_circular(ideal)?;
        let size = self.size;
        let df = (fwd + size - ideal) % size;
        let db = (ideal + size - bwd) % size;
        Some(match df.cmp(&db) {
            core::cmp::Ordering::Less => fwd,
            core::cmp::Ordering::Greater => bwd,
            core::cmp::Ordering::Equal => fwd.min(bwd),
        })
    }

    /// The largest forward circular distance between consecutive set
    /// slots (a single set slot yields `size`), or `None` if empty.
    #[must_use]
    pub(crate) fn max_circular_gap(&self) -> Option<u32> {
        let first = self.first_one()?;
        let mut prev = first;
        let mut max = 0;
        for s in self.iter_ones().skip(1) {
            max = max.max(s - prev);
            prev = s;
        }
        Some(max.max(self.size - prev + first))
    }
}

impl fmt::Debug for SlotMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SlotMask({}; ", self.size)?;
        f.debug_list().entries(self.iter_ones()).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference for `and_rotated`.
    fn and_rotated_ref(a: &SlotMask, b: &SlotMask, shift: u32) -> Vec<u32> {
        (0..a.size())
            .filter(|&s| a.get(s) && b.get((s + shift) % b.size()))
            .collect()
    }

    #[test]
    fn fill_and_count_respect_size() {
        for size in [1, 7, 63, 64, 65, 128, 130] {
            let m = SlotMask::new_full(size);
            assert_eq!(m.count(), size, "size {size}");
            assert_eq!(m.iter_ones().count() as u32, size);
        }
    }

    #[test]
    fn set_clear_get_roundtrip() {
        let mut m = SlotMask::new_empty(100);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(99);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(99));
        assert_eq!(m.count(), 4);
        m.clear(63);
        assert!(!m.get(63));
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![0, 64, 99]);
    }

    #[test]
    fn and_rotated_matches_reference() {
        for size in [1u32, 5, 8, 31, 32, 63, 64, 65, 100, 128, 190] {
            let mut a = SlotMask::new_empty(size);
            let mut b = SlotMask::new_empty(size);
            // Deterministic pseudo-random patterns.
            for s in 0..size {
                if (s * 7 + 3) % 5 < 2 {
                    a.set(s);
                }
                if (s * 11 + 1) % 3 != 0 {
                    b.set(s);
                }
            }
            for shift in [0u32, 1, 2, 31, 63, 64, 65, size - 1, size, size + 3] {
                let mut out = a.clone();
                out.and_rotated(&b, shift);
                assert_eq!(
                    out.iter_ones().collect::<Vec<_>>(),
                    and_rotated_ref(&a, &b, shift % size),
                    "size {size} shift {shift}"
                );
            }
        }
    }

    /// A deterministic pseudo-random mask: slot `s` set iff the hash of
    /// `(s, seed)` lands in the lower two thirds.
    fn pattern(size: u32, seed: u32) -> SlotMask {
        let mut m = SlotMask::new_empty(size);
        for s in 0..size {
            if !(s.wrapping_mul(2_654_435_761) ^ seed.wrapping_mul(40_503)).is_multiple_of(3) {
                m.set(s);
            }
        }
        m
    }

    #[test]
    fn intersect_path_matches_and_rotated_fold_and_reference() {
        for size in [1u32, 7, 31, 32, 63, 64, 65, 128, 190] {
            let path: Vec<SlotMask> = (0..6).map(|i| pattern(size, i)).collect();
            // Shifts of zero, whole multiples of the size, and past it.
            let steps = [0, 1, 2, 3, size - 1, size, size + 1, 2 * size, 3 * size + 2];
            for step in steps {
                for len in 0..=path.len() {
                    let links = &path[..len];
                    let mut fold = SlotMask::new_full(size);
                    for (i, m) in links.iter().enumerate() {
                        fold.and_rotated(m, i as u32 * step);
                    }
                    let reference: Vec<u32> = (0..size)
                        .filter(|&s| {
                            links
                                .iter()
                                .enumerate()
                                .all(|(i, m)| m.get((s + i as u32 * step) % size))
                        })
                        .collect();
                    // Stale contents of the output must not leak through.
                    let mut fused = pattern(size, 99);
                    fused.intersect_path(links, step);
                    let ctx = format!("size {size} step {step} links {len}");
                    assert_eq!(fold.iter_ones().collect::<Vec<_>>(), reference, "{ctx}");
                    assert_eq!(fused, fold, "{ctx}");
                    assert_eq!(fused.count(), reference.len() as u32, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn inline_masks_clone_compare_and_print_by_slots() {
        for size in [1u32, 32, 64] {
            let a = pattern(size, 5);
            let b = a.clone();
            assert_eq!(a, b, "size {size}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            // Flipping the last slot and back: unequal, then equal again.
            let mut c = b.clone();
            let last = size - 1;
            let flip = |m: &mut SlotMask| {
                if m.get(last) {
                    m.clear(last);
                } else {
                    m.set(last);
                }
            };
            flip(&mut c);
            assert_ne!(a, c, "size {size}");
            flip(&mut c);
            assert_eq!(a, c, "size {size}: same slots, same mask");
            // Same slots, different period: unequal.
            assert_ne!(SlotMask::new_empty(size), SlotMask::new_empty(size + 1));
        }
        let m = SlotMask::from_slots(32, &[0, 31]);
        assert_eq!(format!("{m:?}"), "SlotMask(32; [0, 31])");
        assert_eq!(format!("{:?}", m.clone()), format!("{m:?}"));
        let full = SlotMask::new_full(64);
        assert_eq!(full.count(), 64);
        assert_eq!(full.clone(), full);
    }

    #[test]
    fn nearest_one_prefers_smaller_on_tie() {
        // Slots 2 and 6 are both 2 away from 4 (size 8): smaller wins.
        let m = SlotMask::from_slots(8, &[2, 6]);
        assert_eq!(m.nearest_one(4), Some(2));
        assert_eq!(m.nearest_one(2), Some(2));
        assert_eq!(m.nearest_one(5), Some(6));
        // Wrap-around distance: 7 is 1 away from 0.
        let m = SlotMask::from_slots(8, &[3, 7]);
        assert_eq!(m.nearest_one(0), Some(7));
    }

    #[test]
    fn nearest_matches_linear_scan() {
        // Cross-check against the allocator's original first-minimum scan.
        for size in [4u32, 8, 64, 100] {
            let slots: Vec<u32> = (0..size).filter(|s| (s * 13 + 2) % 7 < 3).collect();
            let m = SlotMask::from_slots(size, &slots);
            for ideal in 0..size {
                let naive = slots.iter().copied().min_by_key(|&s| {
                    let d = s.abs_diff(ideal);
                    d.min(size - d)
                });
                assert_eq!(m.nearest_one(ideal), naive, "size {size} ideal {ideal}");
            }
        }
    }

    #[test]
    fn circular_scans_wrap() {
        let m = SlotMask::from_slots(70, &[10, 40]);
        assert_eq!(m.next_one_circular(41), Some(10));
        assert_eq!(m.next_one_circular(40), Some(40));
        assert_eq!(m.prev_one_circular(5), Some(40));
        assert_eq!(m.prev_one_circular(10), Some(10));
        assert_eq!(SlotMask::new_empty(16).next_one_circular(3), None);
        assert_eq!(SlotMask::new_empty(16).prev_one_circular(3), None);
    }

    #[test]
    fn max_circular_gap_matches_gaps() {
        let m = SlotMask::from_slots(8, &[1, 4]);
        assert_eq!(m.max_circular_gap(), Some(5));
        let m = SlotMask::from_slots(8, &[3]);
        assert_eq!(m.max_circular_gap(), Some(8));
        assert_eq!(SlotMask::new_empty(8).max_circular_gap(), None);
        let full = SlotMask::new_full(64);
        assert_eq!(full.max_circular_gap(), Some(1));
    }

    #[test]
    fn debug_lists_slots() {
        let m = SlotMask::from_slots(8, &[1, 5]);
        assert_eq!(format!("{m:?}"), "SlotMask(8; [1, 5])");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_size_rejected() {
        let _ = SlotMask::new_empty(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_set_rejected() {
        let mut m = SlotMask::new_empty(8);
        m.set(8);
    }
}
