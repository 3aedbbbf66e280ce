//! Behavioural bi-synchronous FIFO — the clock-domain-crossing primitive.
//!
//! The aelite mesochronous link pipeline stage (paper Section V, Fig 3) and
//! the asynchronous wrapper ports (Section VI, Fig 4) are built on
//! bi-synchronous FIFOs in the style of Miro Panades & Greiner \[14\] and
//! Wielage et al. \[18\]: the write port is clocked by a clock *sourced
//! along with the data*, the read port by the receiver's clock, and a word
//! written at time *t* becomes observable at the read port only after a
//! small forwarding delay (1–2 write-clock cycles of synchroniser latency).
//!
//! This model captures exactly the properties the paper's arguments rely on:
//!
//! * words come out in write order (no loss, duplication or reordering);
//! * a word is invisible to the reader until `t + forwarding_delay`;
//! * occupancy never exceeds the configured capacity (the paper sizes the
//!   link FIFO at 4 words so it can never fill — overflow here panics,
//!   because it would falsify that sizing argument).
//!
//! Because writer and reader are different [`Module`](crate::module::Module)
//! instances in different clock domains, the FIFO is shared through the
//! cheap single-threaded handle [`SharedBisync`].
//!
//! # Examples
//!
//! ```
//! use aelite_sim::bisync::BisyncFifo;
//! use aelite_sim::time::{SimDuration, SimTime};
//!
//! let mut fifo = BisyncFifo::new("link", 4, SimDuration::from_ps(3_000));
//! fifo.push(SimTime::ZERO, 7u32);
//! // Not yet visible: the synchroniser needs 3 ns.
//! assert_eq!(fifo.front_visible(SimTime::from_ps(2_999)), None);
//! assert_eq!(fifo.front_visible(SimTime::from_ps(3_000)), Some(&7));
//! assert_eq!(fifo.pop_visible(SimTime::from_ps(3_000)), Some(7));
//! ```

use crate::time::{SimDuration, SimTime};
use core::fmt;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    item: T,
    visible_at: SimTime,
}

/// A behavioural bi-synchronous FIFO.
///
/// See the [module documentation](self) for the modelling contract.
#[derive(Debug, Clone)]
pub struct BisyncFifo<T> {
    name: String,
    capacity: usize,
    forward_delay: SimDuration,
    queue: std::collections::VecDeque<Entry<T>>,
    max_occupancy: usize,
    total_pushed: u64,
}

impl<T> BisyncFifo<T> {
    /// Creates a FIFO with `capacity` words and the given synchroniser
    /// forwarding delay.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, capacity: usize, forward_delay: SimDuration) -> Self {
        assert!(capacity > 0, "bi-sync FIFO capacity must be non-zero");
        BisyncFifo {
            name: name.into(),
            capacity,
            forward_delay,
            queue: std::collections::VecDeque::with_capacity(capacity),
            max_occupancy: 0,
            total_pushed: 0,
        }
    }

    /// The diagnostic name given at construction.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured capacity in words.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The synchroniser forwarding delay.
    #[must_use]
    pub fn forward_delay(&self) -> SimDuration {
        self.forward_delay
    }

    /// Current number of words stored (visible or not).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// Highest occupancy ever observed — used by tests to validate the
    /// paper's "4 words is enough to never fill" sizing argument.
    #[must_use]
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Total number of words ever pushed.
    #[must_use]
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Whether the FIFO currently holds no words at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Writes `item` at write-clock time `now`.
    ///
    /// # Panics
    ///
    /// Panics on overflow. The aelite link FIFO is sized so that it can
    /// never fill (paper Section V); an overflow therefore indicates a
    /// modelling or allocation bug and must not be silently dropped.
    pub fn push(&mut self, now: SimTime, item: T) {
        assert!(
            self.queue.len() < self.capacity,
            "bi-sync FIFO '{}' overflow (capacity {})",
            self.name,
            self.capacity
        );
        self.queue.push_back(Entry {
            item,
            visible_at: now + self.forward_delay,
        });
        self.total_pushed += 1;
        self.max_occupancy = self.max_occupancy.max(self.queue.len());
    }

    /// The oldest word, if it has crossed the synchroniser by read-clock
    /// time `now`.
    #[must_use]
    pub fn front_visible(&self, now: SimTime) -> Option<&T> {
        self.queue
            .front()
            .filter(|e| e.visible_at <= now)
            .map(|e| &e.item)
    }

    /// Removes and returns the oldest word if visible at `now`.
    pub fn pop_visible(&mut self, now: SimTime) -> Option<T> {
        if self.queue.front().is_some_and(|e| e.visible_at <= now) {
            self.queue.pop_front().map(|e| e.item)
        } else {
            None
        }
    }
}

impl<T> fmt::Display for BisyncFifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bisync '{}': {}/{} words (max {})",
            self.name,
            self.queue.len(),
            self.capacity,
            self.max_occupancy
        )
    }
}

/// A shared handle to a [`BisyncFifo`] used by the writer-side and
/// reader-side modules of a clock-domain crossing.
///
/// Single-threaded by design (the simulator is single-threaded); cloning the
/// handle is cheap and both clones refer to the same FIFO.
#[derive(Debug)]
pub struct SharedBisync<T>(Rc<RefCell<BisyncFifo<T>>>);

impl<T> SharedBisync<T> {
    /// Wraps `fifo` in a shared handle.
    #[must_use]
    pub fn new(fifo: BisyncFifo<T>) -> Self {
        SharedBisync(Rc::new(RefCell::new(fifo)))
    }

    /// Runs `f` with mutable access to the FIFO.
    pub fn with<R>(&self, f: impl FnOnce(&mut BisyncFifo<T>) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

impl<T> Clone for SharedBisync<T> {
    fn clone(&self) -> Self {
        SharedBisync(Rc::clone(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> BisyncFifo<T> {
        /// Writes `item` if space is available, returning `item` back on a full
        /// FIFO instead of panicking.
        fn try_push(&mut self, now: SimTime, item: T) -> Result<(), T> {
            if self.queue.len() >= self.capacity {
                return Err(item);
            }
            self.push(now, item);
            Ok(())
        }

        /// The number of words visible to the reader at `now`.
        fn visible_len(&self, now: SimTime) -> usize {
            self.queue
                .iter()
                .take_while(|e| e.visible_at <= now)
                .count()
        }
    }

    fn fifo() -> BisyncFifo<u32> {
        BisyncFifo::new("t", 4, SimDuration::from_ps(2_000))
    }

    #[test]
    fn words_invisible_during_forwarding_delay() {
        let mut f = fifo();
        f.push(SimTime::from_ps(1_000), 1);
        assert_eq!(f.front_visible(SimTime::from_ps(1_000)), None);
        assert_eq!(f.front_visible(SimTime::from_ps(2_999)), None);
        assert_eq!(f.front_visible(SimTime::from_ps(3_000)), Some(&1));
    }

    #[test]
    fn order_is_preserved() {
        let mut f = fifo();
        for (i, t) in [0u64, 100, 200].iter().enumerate() {
            f.push(SimTime::from_ps(*t), i as u32);
        }
        let late = SimTime::from_ps(10_000);
        assert_eq!(f.pop_visible(late), Some(0));
        assert_eq!(f.pop_visible(late), Some(1));
        assert_eq!(f.pop_visible(late), Some(2));
        assert_eq!(f.pop_visible(late), None);
    }

    #[test]
    fn pop_respects_visibility_of_front_only() {
        let mut f = fifo();
        f.push(SimTime::from_ps(0), 1);
        f.push(SimTime::from_ps(1_900), 2);
        let t = SimTime::from_ps(2_000);
        assert_eq!(f.pop_visible(t), Some(1));
        // Second word becomes visible only at 3.9 ns.
        assert_eq!(f.pop_visible(t), None);
        assert_eq!(f.visible_len(SimTime::from_ps(3_900)), 1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn push_panics_on_overflow() {
        let mut f = fifo();
        for i in 0..5 {
            f.push(SimTime::ZERO, i);
        }
    }

    #[test]
    fn try_push_returns_item_on_full() {
        let mut f = fifo();
        for i in 0..4 {
            assert!(f.try_push(SimTime::ZERO, i).is_ok());
        }
        assert_eq!(f.try_push(SimTime::ZERO, 99), Err(99));
        assert_eq!(f.occupancy(), 4);
    }

    #[test]
    fn stats_track_pushes_and_high_water_mark() {
        let mut f = fifo();
        f.push(SimTime::ZERO, 1);
        f.push(SimTime::ZERO, 2);
        let _ = f.pop_visible(SimTime::from_ps(5_000));
        f.push(SimTime::from_ps(5_000), 3);
        assert_eq!(f.total_pushed(), 3);
        assert_eq!(f.max_occupancy(), 2);
        assert_eq!(f.occupancy(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = BisyncFifo::<u32>::new("bad", 0, SimDuration::ZERO);
    }

    #[test]
    fn shared_handle_aliases_one_fifo() {
        let h1 = SharedBisync::new(fifo());
        let h2 = h1.clone();
        h1.with(|f| f.push(SimTime::ZERO, 42));
        let v = h2.with(|f| f.pop_visible(SimTime::from_ps(2_000)));
        assert_eq!(v, Some(42));
    }

    #[test]
    fn display_shows_occupancy() {
        let mut f = fifo();
        f.push(SimTime::ZERO, 9);
        let s = format!("{f}");
        assert!(s.contains("1/4"), "{s}");
    }

    #[test]
    fn zero_delay_fifo_is_immediately_visible() {
        let mut f = BisyncFifo::new("sync", 2, SimDuration::ZERO);
        f.push(SimTime::ZERO, 5u8);
        assert_eq!(f.front_visible(SimTime::ZERO), Some(&5));
    }
}
