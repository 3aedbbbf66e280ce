//! Client-population request streams: merging per-client churn traces
//! into one arrival-ordered stream and planning independent bursts over
//! it.

use aelite_online::AdmissionRequest;
use aelite_spec::churn::ClientTrace;
use core::ops::Range;

/// One admission request with its arrival metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedRequest {
    /// Arrival time, in nanoseconds from stream start.
    pub at_ns: u64,
    /// The client that issued it.
    pub client: u32,
    /// The request.
    pub request: AdmissionRequest,
}

/// Merges a client population's traces into one globally arrival-ordered
/// stream, ties broken by client index then per-client sequence — the
/// unique order a perfectly fair front door would see.
///
/// Because the population's pools are disjoint
/// ([`aelite_spec::churn::client_population`]) and each client's
/// sub-stream order is preserved, the merged stream is
/// stateful-consistent over the whole platform.
#[must_use]
pub fn merge_population(population: Vec<ClientTrace>) -> Vec<TimedRequest> {
    let mut stream: Vec<TimedRequest> = population
        .into_iter()
        .flat_map(|ct| {
            let client = ct.client;
            ct.trace.events.into_iter().map(move |e| TimedRequest {
                at_ns: e.at_ns,
                client,
                request: e.op,
            })
        })
        .collect();
    // The per-client traces are already time-sorted, so ties within one
    // client cannot reorder its sequence under a stable sort by
    // (at_ns, client).
    stream.sort_by_key(|r| (r.at_ns, r.client));
    stream
}

/// Plans the batched admission rounds over an arrival-ordered stream:
/// maximal contiguous bursts of **independent** requests, as index
/// ranges into `stream`.
///
/// A burst is flushed when the next request's client already appears in
/// it — per-client pools are disjoint, so client uniqueness within a
/// burst guarantees no two requests touch the same connection — or when
/// it reaches `cap` requests. Every request lands in exactly one burst
/// and burst-local order is arrival order, so serially applying the
/// bursts preserves each client's own request sequence.
///
/// # Panics
///
/// Panics if `cap` is zero.
#[must_use]
pub fn plan_bursts(stream: &[TimedRequest], cap: usize) -> Vec<Range<usize>> {
    plan_bursts_sharded(stream, cap, 1, |_| 0)
}

/// Shard-aware burst planning: like [`plan_bursts`], but the capacity
/// applies **per shard lane** instead of per burst. A burst is flushed
/// when the next request's client already appears in it, or when any
/// single shard's bucket (per `shard_of`, e.g.
/// [`ShardMap::classify`](aelite_online::ShardMap::classify) mapped to
/// a lane index) would exceed `cap` requests. The sharded engine admits
/// each lane's bucket as one round, so per-lane capping bounds every
/// round at `cap` while a burst may grow to `lanes × cap` requests.
///
/// With one lane this is exactly [`plan_bursts`], which is defined as
/// that call.
///
/// # Panics
///
/// Panics if `cap` is zero.
#[must_use]
pub fn plan_bursts_sharded(
    stream: &[TimedRequest],
    cap: usize,
    lanes: usize,
    mut shard_of: impl FnMut(&AdmissionRequest) -> usize,
) -> Vec<Range<usize>> {
    assert!(cap > 0, "burst capacity must be positive");
    let clients = stream.iter().map(|r| r.client).max().map_or(0, |c| c + 1);
    // Epoch-stamped membership set: stamp[c] == current burst id means
    // client c already has a request in the burst. O(1) per request, no
    // clearing between bursts.
    let mut stamp = vec![usize::MAX; clients as usize];
    // Per-lane request counts of the current burst (lane index clamped
    // into range, so an out-of-range `shard_of` answer is just a lane).
    let mut lane_count = vec![0usize; lanes.max(1)];
    let mut bursts = Vec::new();
    let mut start = 0usize;
    for (i, r) in stream.iter().enumerate() {
        let burst_id = bursts.len();
        let lane = shard_of(&r.request).min(lane_count.len() - 1);
        if lane_count[lane] >= cap || stamp[r.client as usize] == burst_id {
            bursts.push(start..i);
            start = i;
            lane_count.iter_mut().for_each(|c| *c = 0);
        }
        stamp[r.client as usize] = bursts.len();
        lane_count[lane] += 1;
    }
    if start < stream.len() {
        bursts.push(start..stream.len());
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;
    use aelite_spec::churn::{client_population, ChurnParams};
    use aelite_spec::generate::paper_workload;
    use std::collections::HashSet;

    fn stream_for(clients: u32, events: u32, seed: u64) -> Vec<TimedRequest> {
        let spec = paper_workload(42);
        merge_population(client_population(
            &spec,
            clients,
            &ChurnParams::steady(events),
            seed,
        ))
    }

    #[test]
    fn merge_preserves_each_clients_order_and_sorts_by_time() {
        let stream = stream_for(6, 300, 7);
        assert_eq!(stream.len(), 6 * 300);
        let mut prev_t = 0;
        let mut last_seq = [0u64; 6];
        for r in &stream {
            assert!(r.at_ns >= prev_t, "stream not time-sorted");
            prev_t = r.at_ns;
            // Per-client times are non-decreasing too (order preserved).
            assert!(r.at_ns >= last_seq[r.client as usize]);
            last_seq[r.client as usize] = r.at_ns;
        }
    }

    #[test]
    fn bursts_partition_the_stream_into_independent_ranges() {
        let stream = stream_for(9, 200, 3);
        let bursts = plan_bursts(&stream, 64);
        // A partition: contiguous, covering, non-empty.
        let mut next = 0;
        for b in &bursts {
            assert_eq!(b.start, next);
            assert!(b.end > b.start);
            next = b.end;
        }
        assert_eq!(next, stream.len());
        // Independence: within a burst every client appears once, so
        // (disjoint pools) every connection appears once.
        for b in &bursts {
            let mut seen = HashSet::new();
            for r in &stream[b.clone()] {
                assert!(seen.insert(r.client), "client repeated in burst");
            }
            assert!(b.end - b.start <= 64, "burst over cap");
        }
    }

    #[test]
    fn sharded_planner_with_one_lane_matches_plain() {
        let stream = stream_for(9, 200, 3);
        assert_eq!(
            plan_bursts_sharded(&stream, 64, 1, |_| 0),
            plan_bursts(&stream, 64)
        );
    }

    #[test]
    fn sharded_planner_caps_per_lane_and_widens_bursts() {
        let stream = stream_for(50, 40, 5);
        // A deterministic 4-way pseudo-partition by connection id.
        let lane_of = |r: &AdmissionRequest| match r {
            AdmissionRequest::Open(c) | AdmissionRequest::Close(c) => c.index() % 4,
            AdmissionRequest::Switch { .. } => 0,
        };
        let plain = plan_bursts(&stream, 16);
        let sharded = plan_bursts_sharded(&stream, 16, 4, lane_of);
        // Still a partition with client-unique bursts.
        let mut next = 0;
        for b in &sharded {
            assert_eq!(b.start, next);
            assert!(b.end > b.start);
            let mut seen = HashSet::new();
            let mut lanes = [0usize; 4];
            for r in &stream[b.clone()] {
                assert!(seen.insert(r.client), "client repeated in burst");
                lanes[lane_of(&r.request)] += 1;
            }
            assert!(lanes.iter().all(|&n| n <= 16), "lane over cap: {lanes:?}");
            next = b.end;
        }
        assert_eq!(next, stream.len());
        // Per-lane capping can only merge plain bursts, never split.
        assert!(sharded.len() <= plain.len());
    }

    #[test]
    fn cap_one_degenerates_to_serial() {
        let stream = stream_for(3, 50, 1);
        let bursts = plan_bursts(&stream, 1);
        assert_eq!(bursts.len(), stream.len());
        assert!(bursts.iter().all(|b| b.end - b.start == 1));
    }

    #[test]
    fn wide_caps_make_wide_bursts() {
        // With many clients and a generous cap, mean burst size should
        // be well above 1 (that's the whole point of batching).
        let stream = stream_for(50, 40, 5);
        let bursts = plan_bursts(&stream, 256);
        let mean = stream.len() as f64 / bursts.len() as f64;
        assert!(mean > 4.0, "mean burst size {mean}");
    }
}
