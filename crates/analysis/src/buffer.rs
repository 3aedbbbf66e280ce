//! End-to-end flow-control buffer sizing.
//!
//! aelite uses credit-based end-to-end flow control so that NI buffers can
//! never overflow (paper Section III). The flip side: an *undersized*
//! destination buffer throttles the connection below its reserved rate,
//! because the source runs out of credits while they are still in flight.
//! This module computes the buffer that guarantees credits never stall a
//! connection using its full reservation — the analytical companion to
//! the simulators' credit models ([`required_buffer_words`] gives the
//! worst-window argument).
//!
//! The analysis is more than advice: it decides the turbo kernel's
//! credit path. `aelite_noc::turbo::build_turbo` books no credits for a
//! connection whose [`required_buffer_words`] fits the configured
//! `ni_buffer_words`, because its credit check can never fail (the
//! soundness argument is in that module's documentation). Both
//! functions therefore live in `aelite_alloc::allocate`, below the
//! simulators, and are re-exported here unchanged: there is one analysis.

use aelite_alloc::allocate::Allocation;
pub use aelite_alloc::allocate::{max_slots_in_window, required_buffer_words};
use aelite_spec::app::SystemSpec;
use aelite_spec::ids::ConnId;

/// Checks every connection of a designed system against a buffer size,
/// returning the connections whose reservations could stall.
#[must_use]
pub fn undersized_connections(
    spec: &SystemSpec,
    alloc: &Allocation,
    buffer_words: u32,
    credit_return_cycles: u64,
) -> Vec<(ConnId, u32)> {
    spec.connections()
        .iter()
        .filter_map(|c| {
            let need = required_buffer_words(spec, alloc, c.id, credit_return_cycles);
            (need > buffer_words).then_some((c.id, need))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_alloc::allocate;
    use aelite_spec::generate::paper_workload;

    #[test]
    fn window_count_basics() {
        // Slots {0, 8, 16, 24} of 32.
        let slots = [0, 8, 16, 24];
        assert_eq!(max_slots_in_window(&slots, 32, 1), 1);
        assert_eq!(max_slots_in_window(&slots, 32, 8), 1);
        assert_eq!(max_slots_in_window(&slots, 32, 9), 2);
        assert_eq!(max_slots_in_window(&slots, 32, 32), 4);
        assert_eq!(max_slots_in_window(&slots, 32, 0), 0);
        assert_eq!(max_slots_in_window(&[], 32, 10), 0);
    }

    #[test]
    fn window_count_handles_clusters() {
        // Clustered slots stress the worst window.
        let slots = [0, 1, 2, 20];
        assert_eq!(max_slots_in_window(&slots, 32, 3), 3);
        assert_eq!(max_slots_in_window(&slots, 32, 4), 3);
        // Wrapping window catches 20,0,1,2 within 15 slots.
        assert_eq!(max_slots_in_window(&slots, 32, 15), 4);
    }

    #[test]
    fn window_larger_than_table_multiplies() {
        let slots = [0, 16];
        assert_eq!(max_slots_in_window(&slots, 32, 64), 4);
        // 81 consecutive slots starting at 0 catch 0,16,32,48,64,80.
        assert_eq!(max_slots_in_window(&slots, 32, 64 + 17), 6);
    }

    #[test]
    fn paper_default_buffer_covers_most_connections() {
        // Undersized connections at 24, 12 and 8 words under the
        // simulators' 24-cycle credit return. The paper-default 24 words
        // cover every connection in both clockings; mesochronous paths are
        // twice as long in cycles, so smaller buffers leave more short.
        let sync = paper_workload(42);
        let meso = sync.with_link_pipeline_stages(1, 1);
        for (spec, counts) in [(&sync, [0, 0, 3]), (&meso, [0, 2, 13])] {
            let alloc = allocate(spec).unwrap();
            let undersized = |words| undersized_connections(spec, &alloc, words, 24);
            let found = [24, 12, 8].map(|words| undersized(words).len());
            let stages = spec.config().link_pipeline_stages;
            assert_eq!(found, counts, "{stages} link pipeline stages");
            // The analysis is self-consistent: sizing each connection at
            // its own requirement clears it.
            for (conn, need) in undersized(8) {
                assert!(need > 8);
                assert!(!undersized(need).iter().any(|&(c, _)| c == conn));
            }
        }
    }

    #[test]
    fn more_slots_need_more_buffer() {
        let spec = paper_workload(1);
        let alloc = allocate(&spec).unwrap();
        // Find two connections with different slot counts.
        let mut sized: Vec<(usize, u32)> = spec
            .connections()
            .iter()
            .map(|c| {
                (
                    alloc.grant(c.id).unwrap().inject_slots.len(),
                    required_buffer_words(&spec, &alloc, c.id, 24),
                )
            })
            .collect();
        sized.sort_unstable();
        let (min_slots, min_need) = sized[0];
        let (max_slots, max_need) = sized[sized.len() - 1];
        assert!(max_slots > min_slots);
        assert!(
            max_need >= min_need,
            "more slots must not need less buffer ({max_need} vs {min_need})"
        );
    }

    #[test]
    fn longer_credit_return_needs_more_buffer() {
        let spec = paper_workload(1);
        let alloc = allocate(&spec).unwrap();
        let conn = spec.connections()[0].id;
        let short = required_buffer_words(&spec, &alloc, conn, 6);
        let long = required_buffer_words(&spec, &alloc, conn, 600);
        assert!(long > short, "{long} vs {short}");
    }
}
