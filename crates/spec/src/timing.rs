//! The platform's timing model, defined once (paper Sections III–V): a
//! flit injected in TDM slot *s* crosses *n* links in `n · slots_per_hop`
//! slots, contention-free. The pipeline delay, the worst-case latency
//! bound and the slot count a deadline forces all derive from it; the
//! generator, the allocator, the analysis and the turbo kernel call
//! these functions rather than spell the arithmetic again. Routes
//! are measured in links: *h* router-to-router hops make `h + 2` links.
//! A connection's injection slots are read through [`SlotService`]: its
//! worst wait feeds the per-flit bound [`latency_bound_cycles`].

use crate::config::NocConfig;
use crate::traffic::Bandwidth;

/// The contention-free pipeline delay, in cycles, of a path with
/// `n_links` links: each link plus its pipeline stages costs one slot of
/// `flit_words` cycles.
#[inline]
#[must_use]
pub fn pipeline_cycles(cfg: &NocConfig, n_links: usize) -> u64 {
    n_links as u64 * u64::from(cfg.slots_per_hop()) * u64::from(cfg.flit_words)
}

/// The worst-case latency, in cycles, of a flit that waits at most
/// `window` slots for its injection slot and then rides the pipeline of
/// a path with `n_links` links.
#[inline]
#[must_use]
pub fn latency_bound_cycles(cfg: &NocConfig, window: u32, n_links: usize) -> u64 {
    u64::from(window) * u64::from(cfg.slot_cycles()) + pipeline_cycles(cfg, n_links)
}

/// A connection's injection slots in a TDM table of `size` slots, read
/// as the two ends of their service curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotService<'a> {
    slots: &'a [u32],
    size: u32,
}

impl<'a> SlotService<'a> {
    /// The service of `slots`, which may be empty, in a table of `size`
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero, or the slots are not strictly ascending
    /// or any is ≥ `size`.
    #[must_use]
    pub fn new(slots: &'a [u32], size: u32) -> Self {
        assert!(
            slots.windows(2).all(|w| w[0] < w[1]),
            "slots must be strictly ascending"
        );
        let in_range = slots.last().map_or(size > 0, |&s| s < size);
        assert!(in_range, "slot out of table range");
        SlotService { slots, size }
    }

    /// The worst-case wait, in slots, of a flit ready just after one owned
    /// slot: the largest circular gap (a full revolution for one slot),
    /// and the first step of the minimum service curve.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty (no service at all).
    #[must_use]
    pub fn worst_wait(&self) -> u32 {
        let slots = self.slots;
        assert!(!slots.is_empty(), "connection has no slots");
        let wrap = self.size - slots[slots.len() - 1] + slots[0];
        slots.windows(2).map(|w| w[1] - w[0]).fold(wrap, u32::max)
    }

    /// The most owned slots in any circular window `[s, s + window)`, the
    /// maximum service curve: one two-pointer sweep, as the busiest
    /// window starts at an owned slot and its end only moves with it.
    #[must_use]
    pub fn max_service(&self, window: u32) -> u32 {
        let (slots, size, n) = (self.slots, self.size, self.slots.len());
        // Full revolutions hold every slot; the remainder is swept.
        let (revs, window) = (window / size, window % size);
        let unrolled = |k: usize| slots[k % n] + if k < n { 0 } else { size };
        let (mut best, mut end) = (0, 0);
        for (start, &s) in slots.iter().enumerate() {
            while end < start + n && unrolled(end) < s + window {
                end += 1;
            }
            best = best.max(end - start);
        }
        revs * n as u32 + best as u32
    }
}

/// A latency requirement of `max_latency_ns` in whole cycles, rounded
/// down.
#[inline]
#[must_use]
pub fn deadline_cycles(cfg: &NocConfig, max_latency_ns: u64) -> u64 {
    (max_latency_ns as f64 / cfg.cycle_ns()).floor() as u64
}

/// The largest gap between injection slots, in slots, with which a flit
/// still meets a deadline of `deadline_cycles` over a path of `n_links`
/// links: the wait the pipeline leaves, in whole slots. 0 when not even
/// an immediately-due slot meets the deadline.
#[inline]
#[must_use]
pub fn max_injection_gap(cfg: &NocConfig, deadline_cycles: u64, n_links: usize) -> u64 {
    deadline_cycles.saturating_sub(pipeline_cycles(cfg, n_links)) / u64::from(cfg.slot_cycles())
}

/// The slots a connection needs on a path of `n_links` links: the larger
/// of its bandwidth minimum and the count its per-flit deadline forces
/// (a table covered with gaps no wider than [`max_injection_gap`], and at
/// least one slot however loose the deadline).
#[inline]
#[must_use]
pub fn slot_estimate(
    cfg: &NocConfig,
    bandwidth: Bandwidth,
    max_latency_ns: u64,
    n_links: usize,
) -> u32 {
    let deadline = deadline_cycles(cfg, max_latency_ns);
    let gap = max_injection_gap(cfg, deadline, n_links).max(1) as u32;
    let lat_slots = cfg.slot_table_size.div_ceil(gap);
    cfg.slots_for(bandwidth).max(lat_slots).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_pipeline_is_three_cycles_per_link() {
        let cfg = NocConfig::paper_default();
        assert_eq!(pipeline_cycles(&cfg, 4), 12);
        assert_eq!(latency_bound_cycles(&cfg, 2, 4), 18);
        let meso = NocConfig {
            link_pipeline_stages: 1,
            ..cfg
        };
        assert_eq!(pipeline_cycles(&meso, 4), 24);
    }

    #[test]
    fn a_tight_deadline_forces_slots() {
        let cfg = NocConfig::paper_default();
        // 500 MHz: 40 ns is 20 cycles; 4 links take 12, leaving 2 slots.
        assert_eq!(deadline_cycles(&cfg, 40), 20);
        assert_eq!(max_injection_gap(&cfg, 20, 4), 2);
        assert_eq!(max_injection_gap(&cfg, 10, 4), 0);
        let small = Bandwidth::from_mbytes_per_sec(1);
        assert_eq!(slot_estimate(&cfg, small, 40, 4), cfg.slot_table_size / 2);
        assert_eq!(slot_estimate(&cfg, small, 1_000_000, 4), 1);
    }

    #[test]
    #[should_panic(expected = "out of table range")]
    fn slot_service_rejects_an_empty_table() {
        let _ = SlotService::new(&[], 0);
    }
}
