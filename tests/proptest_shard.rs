//! Property-based tests of sharded admission: classification is total
//! and stable, a one-shard config is bit-identical to the plain
//! [`ChurnEngine`], and the sharded end state — slot tables, owners,
//! verdicts and counters in lock-step — equals the sharded-canonical
//! serial reference.

use aelite_alloc::{Allocation, Allocator};
use aelite_online::{
    sharded_canonical_order, AdmissionRequest, ChurnEngine, ShardClass, ShardConfig, ShardMap,
    ShardedEngine,
};
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::scaled_workload;
use aelite_spec::ids::{AppId, ConnId, LinkId};
use proptest::prelude::*;

/// A 4×4 mesh with 2 NIs per router and 60 connections: big enough
/// that a 2×2 quadrant tiling has both intra- and cross-shard traffic.
fn quad_spec(seed: u64) -> SystemSpec {
    scaled_workload(4, 4, 2, 60, seed)
}

fn quad_config() -> ShardConfig {
    ShardConfig {
        max_paths: 2,
        ..ShardConfig::tiled(2, 2)
    }
}

/// Decodes one proptest draw into a (possibly conflicting, possibly
/// state-mismatched) admission request, as `tests/proptest_serve.rs`.
fn decode_request(spec: &SystemSpec, kind: u8, pick: u16) -> AdmissionRequest {
    let conns = spec.connections();
    let n = conns.len();
    let conn = |p: usize| conns[p % n].id;
    match kind % 8 {
        0..=2 => AdmissionRequest::Open(conn(pick as usize)),
        3..=5 => AdmissionRequest::Close(conn(pick as usize)),
        _ => {
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

/// Free mask and owner array lock-step equality over every link.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Classification is total (every decodable request maps to exactly
    /// one class, unknown ids included) and stable (same answer on
    /// every call; open and close of one connection agree), and a
    /// one-shard map classifies everything onto shard 0.
    #[test]
    fn classification_is_total_and_stable(
        seed in 0u64..4,
        draws in proptest::collection::vec((0u8..8, 0u16..1024), 1..40),
    ) {
        let spec = quad_spec(seed);
        let map = ShardMap::build(&spec, &quad_config());
        let single = ShardMap::build(&spec, &ShardConfig::single());
        for &(kind, pick) in &draws {
            let req = decode_request(&spec, kind, pick);
            let class = map.classify(&req);
            prop_assert_eq!(map.classify(&req), class, "classification unstable");
            if let ShardClass::Intra(k) = class {
                prop_assert!(k < map.shards());
            }
            prop_assert_eq!(single.classify(&req), ShardClass::Intra(0));
            if let AdmissionRequest::Open(c) = req {
                prop_assert_eq!(
                    map.classify(&AdmissionRequest::Close(c)),
                    class,
                    "open/close of one connection disagree"
                );
            }
        }
        // The classification invariant the shard order rests on: an
        // intra-homed connection's every candidate link is owned by its
        // home shard (spot-checked structurally via the map accessors).
        for c in spec.connections() {
            if let Some(_k) = map.conn_home(c.id) {
                prop_assert!(map.classify(&AdmissionRequest::Open(c.id)) != ShardClass::Cross);
            }
        }
    }

    /// A one-shard [`ShardedEngine`] is bit-identical to the plain
    /// [`ChurnEngine`] over arbitrary (conflicting included) bursts:
    /// same verdicts at every arrival index, same end state, same
    /// counters.
    #[test]
    fn one_shard_is_bit_identical_to_plain_engine(
        seed in 0u64..4,
        bursts in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u16..1024), 1..12), 1..4),
    ) {
        let spec = quad_spec(seed);
        let cfg = ShardConfig::single();
        let mut sharded = ShardedEngine::new(&spec, cfg);
        let mut plain = ChurnEngine::new(&spec);
        let mut mine = Allocation::empty_for(&spec);
        let mut flat = Allocation::empty_for(&spec);

        let (mut va, mut vb) = (Vec::new(), Vec::new());
        for burst in &bursts {
            let requests: Vec<AdmissionRequest> = burst
                .iter()
                .map(|&(kind, pick)| decode_request(&spec, kind, pick))
                .collect();
            sharded.submit_batch(&spec, &mut mine, &requests, &mut va);
            plain.submit_batch(&spec, &mut flat, &requests, &mut vb);
            prop_assert_eq!(&va, &vb);
            assert_tables_identical(&spec, &mine, &flat);
            prop_assert_eq!(&sharded.stats(), plain.stats());
        }
    }

    /// The sharded equivalence: `submit_batch` over a quadrant tiling ≡
    /// serially submitting the same requests through one plain engine
    /// (same `max_paths` bound) in [`sharded_canonical_order`] —
    /// verdicts, slot tables, owners and counters all in lock-step.
    #[test]
    fn sharded_equals_sharded_canonical_serial(
        seed in 0u64..4,
        bursts in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u16..1024), 1..12), 1..4),
    ) {
        let spec = quad_spec(seed);
        let cfg = quad_config();
        let mut sharded = ShardedEngine::new(&spec, cfg);
        let mut mine = Allocation::empty_for(&spec);
        // The serial reference shares the allocator's route bound, so
        // both sides enumerate identical candidates.
        let mut serial = ChurnEngine::with_allocator(
            &spec,
            Allocator { max_paths: cfg.max_paths, ..Allocator::new() },
        );
        let mut flat = Allocation::empty_for(&spec);

        let mut order = Vec::new();
        let mut va = Vec::new();
        for burst in &bursts {
            let requests: Vec<AdmissionRequest> = burst
                .iter()
                .map(|&(kind, pick)| decode_request(&spec, kind, pick))
                .collect();

            sharded.submit_batch(&spec, &mut mine, &requests, &mut va);

            sharded_canonical_order(&spec, sharded.map(), &requests, &mut order);
            prop_assert_eq!(order.len(), requests.len());
            let mut vb = vec![None; requests.len()];
            for &i in &order {
                vb[i] = Some(serial.submit(&spec, &mut flat, requests[i].clone()));
            }
            for (i, v) in va.iter().enumerate() {
                prop_assert_eq!(Some(v), vb[i].as_ref(), "verdict {} diverged", i);
            }
            assert_tables_identical(&spec, &mine, &flat);
            prop_assert_eq!(&sharded.stats(), serial.stats());
        }
    }
}
