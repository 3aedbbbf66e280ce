//! Property-based tests of batched admission: a batched round over an
//! arbitrary burst — conflicting requests included — yields the
//! identical end-state allocation (free mask and owner array in
//! lock-step per slot) and identical per-request verdicts as serially
//! submitting the same requests in canonical order — at every burst
//! length from 1 to 8 and for the engine's batched fault re-home of a
//! few displaced connections; the planned independent bursts of a
//! client-population stream replay identically batched and
//! burstwise-serial; and the threaded pipeline with one producer answers
//! a population exactly as the serial replay does, at any hand-off shape.

use aelite_alloc::{admission_order, Allocation, FaultMask};
use aelite_online::{
    canonical_order, AdmissionRequest, AdmissionResponse, ChurnEngine, ChurnStats,
};
use aelite_serve::{
    merge_population, plan_bursts, replay_batched, replay_serial, serve_pipeline, warm_up,
    PipelineConfig, TimedRequest,
};
use aelite_spec::app::SystemSpec;
use aelite_spec::churn::{client_population, ChurnOp, ChurnParams};
use aelite_spec::fault::{FaultOp, ScenarioOp};
use aelite_spec::generate::{random_workload, WorkloadParams};
use aelite_spec::ids::{AppId, ConnId, LinkId};
use aelite_spec::topology::Topology;
use aelite_spec::NocConfig;
use proptest::prelude::*;

/// A small but genuinely shared platform: 2×2 mesh, 2 NIs per router,
/// 3 applications, 14 connections.
fn small_spec(seed: u64) -> SystemSpec {
    let params = WorkloadParams {
        apps: 3,
        connections: 14,
        ips: 8,
        bw_min_mb: 10,
        bw_max_mb: 80,
        lat_min_ns: 200,
        lat_max_ns: 2_000,
        message_bytes: 32,
        ni_load_cap: 0.5,
    };
    random_workload(
        Topology::mesh(2, 2, 2),
        NocConfig::paper_default(),
        params,
        seed,
    )
}

/// Decodes one proptest draw into a (possibly conflicting, possibly
/// state-mismatched) admission request — totality is part of what the
/// equivalence must cover.
fn decode_request(spec: &SystemSpec, kind: u8, pick: u16) -> AdmissionRequest {
    let conns = spec.connections();
    let n = conns.len();
    let conn = |p: usize| conns[p % n].id;
    match kind % 8 {
        0..=2 => AdmissionRequest::Open(conn(pick as usize)),
        3..=5 => AdmissionRequest::Close(conn(pick as usize)),
        _ => {
            // An arbitrary small switch; sides may overlap other
            // requests of the burst or name open/closed conns wrongly.
            let app = AppId::new(u32::from(pick) % spec.apps().len() as u32);
            let side: Vec<ConnId> = spec.app_connections(app).map(|c| c.id).collect();
            let mid = (pick as usize / 7) % (side.len() + 1);
            AdmissionRequest::Switch {
                close: side[..mid].to_vec(),
                open: side[mid..].to_vec(),
            }
        }
    }
}

/// Every slot of every link agrees between the two allocations: same
/// free bit, same owner (free mask and owner array lock-step equality).
fn assert_tables_identical(spec: &SystemSpec, a: &Allocation, b: &Allocation) {
    for li in 0..spec.topology().link_count() {
        let (ta, tb) = (
            a.link_table(LinkId::new(li as u32)),
            b.link_table(LinkId::new(li as u32)),
        );
        for s in 0..ta.size() {
            assert_eq!(ta.is_free(s), tb.is_free(s), "link {li} slot {s} free bit");
            assert_eq!(ta.owner(s), tb.owner(s), "link {li} slot {s} owner");
        }
    }
    for c in spec.connections() {
        assert_eq!(a.grant(c.id), b.grant(c.id), "{} grant diverged", c.id);
    }
}

/// The eight admission counters of `s`, every fault-event counter
/// zeroed.
fn admission_counters(s: &ChurnStats) -> ChurnStats {
    ChurnStats {
        setups: s.setups,
        teardowns: s.teardowns,
        switches: s.switches,
        refused_opens: s.refused_opens,
        refused_closes: s.refused_closes,
        refused_switches: s.refused_switches,
        rolled_back_opens: s.rolled_back_opens,
        refused_link_down: s.refused_link_down,
        ..ChurnStats::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `submit_batch` over an arbitrary burst ≡ serial `submit` of the
    /// same requests in `canonical_order`: identical verdicts at every
    /// arrival index, identical engine counters, identical end state
    /// down to each slot's free bit and owner. Every prefix of `short`
    /// is one more burst, so each case runs every length 1..=8 — both
    /// sides of the serial floor of 4 that `submit_batch` used to fork
    /// on — and the case ends with the engine's fault re-home of up to
    /// `rehome` displaced connections, the other caller whose bursts
    /// sat under that floor.
    #[test]
    fn batched_round_equals_serial_canonical(
        seed in 0u64..4,
        prelude in proptest::collection::vec((0u8..8, 0u16..1024), 0..20),
        bursts in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u16..1024), 1..16), 1..5),
        short in proptest::collection::vec((0u8..8, 0u16..1024), 8),
        rehome in 1usize..=4,
    ) {
        let spec = small_spec(seed);
        let mut engine_a = ChurnEngine::new(&spec);
        let mut engine_b = ChurnEngine::new(&spec);
        let mut alloc_a = Allocation::empty_for(&spec);
        let mut alloc_b = Allocation::empty_for(&spec);

        // Identical arbitrary starting state on both sides.
        for &(kind, pick) in &prelude {
            let req = decode_request(&spec, kind, pick);
            let va = engine_a.submit(&spec, &mut alloc_a, req.clone());
            let vb = engine_b.submit(&spec, &mut alloc_b, req);
            prop_assert_eq!(va, vb);
        }

        let mut order = Vec::new();
        let mut verdicts_a = Vec::new();
        let prefixes = (1..=short.len()).map(|n| &short[..n]);
        for burst in bursts.iter().map(Vec::as_slice).chain(prefixes) {
            let requests: Vec<AdmissionRequest> = burst
                .iter()
                .map(|&(kind, pick)| decode_request(&spec, kind, pick))
                .collect();

            // A: one batched admission round.
            engine_a.submit_batch(&spec, &mut alloc_a, &requests, &mut verdicts_a);
            prop_assert_eq!(verdicts_a.len(), requests.len());

            // B: serial submits in canonical order, verdicts landed at
            // their arrival indices.
            canonical_order(&spec, &requests, &mut order);
            let mut verdicts_b = vec![None; requests.len()];
            for &i in &order {
                verdicts_b[i] =
                    Some(engine_b.submit(&spec, &mut alloc_b, requests[i].clone()));
            }

            for (i, v) in verdicts_a.iter().enumerate() {
                prop_assert_eq!(Some(*v), verdicts_b[i], "verdict {} diverged", i);
            }
            assert_tables_identical(&spec, &alloc_a, &alloc_b);
            prop_assert_eq!(engine_a.stats(), engine_b.stats());
        }

        // Sever the NI that sources the most connections, with `rehome`
        // of them open: no route avoids an NI's ingress link, so each is
        // dropped and parked, and the repair re-homes them as one
        // `submit_batch` burst of opens.
        let src_ni = |c: &aelite_spec::Connection| spec.ip_ni(c.src);
        let sourced_at =
            |ni| spec.connections().iter().filter(move |&c| src_ni(c) == ni).map(|c| c.id);
        let ni = spec
            .connections()
            .iter()
            .map(src_ni)
            .max_by_key(|&ni| (sourced_at(ni).count(), core::cmp::Reverse(ni)))
            .expect("the spec has connections");
        let link = spec.topology().ni_ingress_link(ni);
        for (k, c) in sourced_at(ni).enumerate() {
            let op = if k < rehome { ChurnOp::Open(c) } else { ChurnOp::Close(c) };
            engine_a.apply(&spec, &mut alloc_a, &ScenarioOp::Churn(op.clone()));
            engine_b.apply(&spec, &mut alloc_b, &ScenarioOp::Churn(op));
        }

        // A: the engine's recovery ladder. B: the same ladder by hand —
        // mask, affected grants hardest-first, reroute each.
        let before = *engine_a.stats();
        prop_assert!(engine_a.apply(&spec, &mut alloc_a, &ScenarioOp::Fault(FaultOp::LinkDown(link))));
        let down = engine_a.stats().delta(&before);
        let mut mask = FaultMask::new();
        mask.set_down(link);
        engine_b.set_faults(&mask);
        let mut affected: Vec<ConnId> = alloc_b
            .grants()
            .filter(|g| g.links.contains(&link))
            .map(|g| g.conn)
            .collect();
        admission_order(&spec, &mut affected);
        affected.retain(|&c| engine_b.reroute(&spec, &mut alloc_b, c).is_err());
        let displaced = affected;
        prop_assert!((1..=rehome).contains(&displaced.len()), "{} displaced", displaced.len());
        prop_assert_eq!(down.dropped as usize, displaced.len());
        prop_assert_eq!(engine_a.displaced(), &displaced[..]);
        assert_tables_identical(&spec, &alloc_a, &alloc_b);

        // A: the repair's batched re-home. B: the displaced opens
        // submitted serially in canonical order.
        let before = *engine_a.stats();
        prop_assert!(engine_a.apply(&spec, &mut alloc_a, &ScenarioOp::Fault(FaultOp::LinkUp(link))));
        let up = engine_a.stats().delta(&before);
        mask.set_up(link);
        engine_b.set_faults(&mask);
        let requests: Vec<AdmissionRequest> =
            displaced.iter().map(|&c| AdmissionRequest::Open(c)).collect();
        canonical_order(&spec, &requests, &mut order);
        let mut restored = 0u64;
        for &i in &order {
            if engine_b.submit(&spec, &mut alloc_b, requests[i].clone()).is_ok() {
                restored += 1;
            }
        }
        prop_assert_eq!(up.restored, restored);
        prop_assert!(restored > 0, "a repaired empty link re-admits");
        assert_tables_identical(&spec, &alloc_a, &alloc_b);
        // B counts no fault events: compare the admission counters.
        prop_assert_eq!(&admission_counters(engine_a.stats()), engine_b.stats());
    }

    /// The deterministic batched replay of a client-population stream
    /// equals applying each planned burst serially in canonical order —
    /// end state, verdict count and counters.
    #[test]
    fn population_replay_batched_equals_burstwise_serial(
        clients in 2u32..8,
        events in 20u32..60,
        seed in 0u64..3,
        cap in 2usize..32,
    ) {
        let spec = small_spec(1);
        let stream = merge_population(client_population(
            &spec, clients, &ChurnParams::steady(events), seed,
        ));
        let warmup = stream.len() / 4;

        let mut engine_a = ChurnEngine::new(&spec);
        let mut alloc_a = Allocation::empty_for(&spec);
        warm_up(&spec, &mut engine_a, &mut alloc_a, &stream, warmup);
        let report = replay_batched(&spec, &mut engine_a, &mut alloc_a, &stream[warmup..], cap);

        let mut engine_b = ChurnEngine::new(&spec);
        let mut alloc_b = Allocation::empty_for(&spec);
        warm_up(&spec, &mut engine_b, &mut alloc_b, &stream, warmup);
        let timed = &stream[warmup..];
        let mut order = Vec::new();
        let mut admitted = 0u64;
        for b in plan_bursts(timed, cap) {
            let requests: Vec<AdmissionRequest> =
                timed[b].iter().map(|r| r.request.clone()).collect();
            canonical_order(&spec, &requests, &mut order);
            for &i in &order {
                if engine_b.submit(&spec, &mut alloc_b, requests[i].clone()).is_ok() {
                    admitted += 1;
                }
            }
        }

        prop_assert_eq!(report.admitted, admitted);
        prop_assert_eq!(report.requests, timed.len() as u64);
        assert_tables_identical(&spec, &alloc_a, &alloc_b);
        prop_assert_eq!(engine_a.stats(), engine_b.stats());
    }

    /// `serve_pipeline` with one producer ≡ `replay_serial` over the
    /// per-client streams back to back, whatever chunk size and queue
    /// depth the hand-off runs at (rendezvous included): the live path
    /// admits in arrival order and nothing else.
    #[test]
    fn one_producer_pipeline_equals_serial_replay(
        clients in 2u32..8,
        events in 20u32..60,
        seed in 0u64..3,
        burst_cap in 1usize..40,
        queue_depth in 0usize..80,
    ) {
        let spec = small_spec(1);
        let streams: Vec<Vec<TimedRequest>> =
            client_population(&spec, clients, &ChurnParams::steady(events), seed)
                .into_iter()
                .map(|ct| merge_population(vec![ct]))
                .collect();
        let concat: Vec<TimedRequest> = streams.iter().flatten().cloned().collect();

        let mut engine_a = ChurnEngine::new(&spec);
        let mut alloc_a = Allocation::empty_for(&spec);
        let cfg = PipelineConfig { producers: 1, burst_cap, queue_depth };
        let piped = serve_pipeline(&spec, &mut engine_a, &mut alloc_a, &streams, &cfg);

        let mut engine_b = ChurnEngine::new(&spec);
        let mut alloc_b = Allocation::empty_for(&spec);
        let serial = replay_serial(&spec, &mut engine_b, &mut alloc_b, &concat);

        prop_assert_eq!(piped.replay.requests, serial.requests);
        prop_assert_eq!(piped.replay.bursts, serial.bursts);
        prop_assert_eq!(piped.replay.admitted, serial.admitted);
        prop_assert_eq!(piped.latency.count(), serial.requests);
        assert_tables_identical(&spec, &alloc_a, &alloc_b);
        prop_assert_eq!(engine_a.stats(), engine_b.stats());
    }

    /// Batch verdicts are faithful: every `Opened`/`Closed`/`Switched`
    /// response left the named connections in the promised state when no
    /// later request of the same burst touched them again.
    #[test]
    fn burst_verdicts_match_end_state_for_unconflicted_requests(
        seed in 0u64..4,
        burst in proptest::collection::vec((0u8..6, 0u16..1024), 1..14),
    ) {
        let spec = small_spec(seed);
        let mut engine = ChurnEngine::new(&spec);
        let mut alloc = Allocation::empty_for(&spec);
        // Half-open starting state, deterministically.
        for c in spec.connections().iter().step_by(2) {
            let _ = engine.submit(&spec, &mut alloc, AdmissionRequest::Open(c.id));
        }
        let requests: Vec<AdmissionRequest> = burst
            .iter()
            .map(|&(kind, pick)| decode_request(&spec, kind, pick))
            .collect();
        let mut verdicts = Vec::new();
        engine.submit_batch(&spec, &mut alloc, &requests, &mut verdicts);

        let touched_once = |c: ConnId| {
            requests
                .iter()
                .filter(|r| match r {
                    AdmissionRequest::Open(x) | AdmissionRequest::Close(x) => *x == c,
                    AdmissionRequest::Switch { close, open } => {
                        close.contains(&c) || open.contains(&c)
                    }
                })
                .count()
                == 1
        };
        for (req, verdict) in requests.iter().zip(&verdicts) {
            match (req, verdict) {
                (AdmissionRequest::Open(c), Ok(AdmissionResponse::Opened(r))) => {
                    prop_assert_eq!(c, r);
                    if touched_once(*c) {
                        prop_assert!(alloc.grant(*c).is_some());
                    }
                }
                (AdmissionRequest::Close(c), Ok(AdmissionResponse::Closed(r))) => {
                    prop_assert_eq!(c, r);
                    if touched_once(*c) {
                        prop_assert!(alloc.grant(*c).is_none());
                    }
                }
                (AdmissionRequest::Switch { close, open },
                 Ok(AdmissionResponse::Switched { opened, .. })) => {
                    prop_assert_eq!(*opened as usize, open.len());
                    for c in close.iter().filter(|&&c| touched_once(c)) {
                        prop_assert!(alloc.grant(*c).is_none());
                    }
                    for c in open.iter().filter(|&&c| touched_once(c)) {
                        prop_assert!(alloc.grant(*c).is_some());
                    }
                }
                (_, Err(_)) => {}
                (req, verdict) => {
                    prop_assert!(false, "mismatched verdict {:?} for {:?}", verdict, req);
                }
            }
        }
    }
}
