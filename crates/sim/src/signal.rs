//! Typed wires connecting hardware modules.
//!
//! A [`Wire`] is a handle into a [`SignalStore`]. Wires have register
//! semantics at domain edges: during an edge, every module reads the values
//! committed *before* that instant, and all writes become visible only after
//! every module due at that instant has run. This makes simulation results
//! independent of module registration order, including when edges of
//! different clock domains coincide.
//!
//! Each wire has at most one driver per instant; two writes to the same wire
//! in the same step indicate a wiring bug and panic immediately.

use core::fmt;
use core::marker::PhantomData;

/// A handle to one wire carrying values of type `V`.
///
/// `Wire` is a plain index: copying it is free and it stays valid for the
/// lifetime of the [`SignalStore`] that created it.
pub struct Wire<V> {
    index: usize,
    _marker: PhantomData<fn() -> V>,
}

impl<V> Wire<V> {
    /// The raw index of this wire within its store.
    #[must_use]
    pub fn index(self) -> usize {
        self.index
    }
}

impl<V> Clone for Wire<V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for Wire<V> {}

impl<V> PartialEq for Wire<V> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}
impl<V> Eq for Wire<V> {}

impl<V> fmt::Debug for Wire<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Wire#{}", self.index)
    }
}

/// Storage for all wires of one simulator instance.
///
/// Values must be `Copy + Default`: wires power up holding `V::default()`,
/// which plays the role of an idle/invalid word on a hardware link.
///
/// # Examples
///
/// ```
/// use aelite_sim::signal::SignalStore;
///
/// let mut store: SignalStore<u32> = SignalStore::new();
/// let w = store.add_wire("data");
/// assert_eq!(store.read(w), 0);
/// store.write(w, 7);
/// assert_eq!(store.read(w), 0); // not yet committed
/// store.commit();
/// assert_eq!(store.read(w), 7);
/// ```
#[derive(Debug)]
pub struct SignalStore<V> {
    current: Vec<V>,
    pending: Vec<Option<V>>,
    dirty: Vec<usize>,
    names: Vec<String>,
}

impl<V: Copy + Default> SignalStore<V> {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        SignalStore {
            current: Vec::new(),
            pending: Vec::new(),
            dirty: Vec::new(),
            names: Vec::new(),
        }
    }

    /// Allocates a new wire initialised to `V::default()`.
    ///
    /// The `name` is kept for diagnostics only.
    pub fn add_wire(&mut self, name: impl Into<String>) -> Wire<V> {
        let index = self.current.len();
        self.current.push(V::default());
        self.pending.push(None);
        self.names.push(name.into());
        Wire {
            index,
            _marker: PhantomData,
        }
    }

    /// The number of wires allocated so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.current.len()
    }

    /// Whether no wires have been allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.current.is_empty()
    }

    /// The diagnostic name of `wire`.
    #[must_use]
    pub fn name(&self, wire: Wire<V>) -> &str {
        &self.names[wire.index]
    }

    /// Reads the committed value of `wire` (the value as of before the
    /// current edge step).
    #[must_use]
    pub fn read(&self, wire: Wire<V>) -> V {
        self.current[wire.index]
    }

    /// Schedules `value` to appear on `wire` after [`commit`](Self::commit).
    ///
    /// # Panics
    ///
    /// Panics if the wire was already written during the current step: a
    /// wire must have a single driver.
    pub fn write(&mut self, wire: Wire<V>, value: V) {
        let slot = &mut self.pending[wire.index];
        assert!(
            slot.is_none(),
            "wire '{}' driven twice in one step",
            self.names[wire.index]
        );
        *slot = Some(value);
        self.dirty.push(wire.index);
    }

    /// Makes all writes from the current step visible to readers.
    pub fn commit(&mut self) {
        for &index in &self.dirty {
            if let Some(v) = self.pending[index].take() {
                self.current[index] = v;
            }
        }
        self.dirty.clear();
    }
}

impl<V: Copy + Default> Default for SignalStore<V> {
    fn default() -> Self {
        SignalStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wires_power_up_default() {
        let mut s: SignalStore<u8> = SignalStore::new();
        let w = s.add_wire("w");
        assert_eq!(s.read(w), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_store_reports_empty() {
        let s: SignalStore<u8> = SignalStore::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn write_is_invisible_until_commit() {
        let mut s: SignalStore<u32> = SignalStore::new();
        let w = s.add_wire("w");
        s.write(w, 42);
        assert_eq!(s.read(w), 0);
        s.commit();
        assert_eq!(s.read(w), 42);
    }

    #[test]
    fn commit_without_writes_is_noop() {
        let mut s: SignalStore<u32> = SignalStore::new();
        let w = s.add_wire("w");
        s.write(w, 1);
        s.commit();
        s.commit();
        assert_eq!(s.read(w), 1);
    }

    #[test]
    #[should_panic(expected = "driven twice")]
    fn double_drive_panics() {
        let mut s: SignalStore<u32> = SignalStore::new();
        let w = s.add_wire("bus");
        s.write(w, 1);
        s.write(w, 2);
    }

    #[test]
    fn same_wire_may_be_driven_in_successive_steps() {
        let mut s: SignalStore<u32> = SignalStore::new();
        let w = s.add_wire("w");
        s.write(w, 1);
        s.commit();
        s.write(w, 2);
        s.commit();
        assert_eq!(s.read(w), 2);
    }

    #[test]
    fn names_are_preserved() {
        let mut s: SignalStore<u8> = SignalStore::new();
        let w = s.add_wire("router0.out1.data");
        assert_eq!(s.name(w), "router0.out1.data");
    }

    #[test]
    fn wires_are_independent() {
        let mut s: SignalStore<u32> = SignalStore::new();
        let a = s.add_wire("a");
        let b = s.add_wire("b");
        s.write(a, 10);
        s.write(b, 20);
        s.commit();
        assert_eq!(s.read(a), 10);
        assert_eq!(s.read(b), 20);
        assert_ne!(a, b);
    }

    #[test]
    fn wire_debug_shows_index() {
        let mut s: SignalStore<u8> = SignalStore::new();
        let w = s.add_wire("x");
        assert_eq!(format!("{w:?}"), "Wire#0");
    }
}
