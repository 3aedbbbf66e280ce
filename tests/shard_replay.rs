//! Deterministic sharded replay. A reduced `shard_regional` scenario —
//! regional workload, shard-grouped client population — keeps most
//! requests intra-shard. And on uniform traffic, where most bursts carry
//! a cross-shard request: `replay_stream` ≡ `submit_batch` per burst ≡ a
//! plain engine in sharded-canonical order — the equivalence both
//! functions document. The wall-clock half of the sharding record is the
//! `online.shard.*` rows of `benchmark/`.

use aelite_alloc::{Allocation, Allocator};
use aelite_online::{
    sharded_canonical_order, AdmissionRequest, ChurnEngine, ShardClass, ShardConfig, ShardMap,
    ShardedEngine,
};
use aelite_serve::{merge_population, plan_bursts_sharded, warm_up, TimedRequest};
use aelite_spec::app::SystemSpec;
use aelite_spec::churn::{client_population, client_population_grouped, ChurnParams};
use aelite_spec::generate::WorkloadBuilder;
use aelite_spec::ids::LinkId;

const BURST_CAP: usize = 32;
const WARMUP: usize = 64;

/// A reduced copy of the bench-shard platform: 4×4 mesh, 2 NIs per
/// router, 120 regional connections over the same 2×2 tiling the shard
/// map uses, so most traffic is intra-shard.
fn bench_like_scenario() -> (SystemSpec, ShardConfig, Vec<TimedRequest>) {
    let cfg = ShardConfig {
        max_paths: 2,
        ..ShardConfig::tiled(2, 2)
    };
    let spec = WorkloadBuilder::mesh(4, 4, 2)
        .connections(120)
        .tiles(2, 2)
        .seed(77)
        .build();
    let map = ShardMap::build(&spec, &cfg);
    // Group clients by their connections' home shard (cross-shard conns
    // get their own group) so each client's pool stays shard-coherent.
    let population = client_population_grouped(&spec, 24, &ChurnParams::steady(80), 99, |c| {
        map.conn_home(c.id).map_or(map.shards(), |k| k) as u32
    });
    (spec, cfg, merge_population(population))
}

#[test]
fn regional_population_is_mostly_intra_shard() {
    let (spec, cfg, stream) = bench_like_scenario();
    let map = ShardMap::build(&spec, &cfg);
    let (mut intra, mut cross) = (0u64, 0u64);
    for r in &stream {
        match map.classify(&r.request) {
            ShardClass::Intra(_) => intra += 1,
            ShardClass::Cross => cross += 1,
        }
    }
    // The regional generator keeps traffic inside its tile, so the
    // overwhelming share of the stream must classify intra-shard — the
    // traffic shape the `shard_regional` workload measures.
    assert!(
        intra >= 9 * (intra + cross) / 10,
        "only {intra}/{} requests intra-shard",
        intra + cross
    );
    assert!(spec.connections().len() == 120);
}

/// Every slot of every link and every grant agree.
fn assert_same_state(spec: &SystemSpec, a: &Allocation, b: &Allocation, what: &str) {
    for li in 0..spec.topology().link_count() {
        let link = LinkId::new(li as u32);
        let (ta, tb) = (a.link_table(link), b.link_table(link));
        for s in 0..ta.size() {
            assert_eq!(ta.is_free(s), tb.is_free(s), "{what}: link {li} slot {s}");
            assert_eq!(ta.owner(s), tb.owner(s), "{what}: link {li} slot {s}");
        }
    }
    for c in spec.connections() {
        assert_eq!(a.grant(c.id), b.grant(c.id), "{what}: {} grant", c.id);
    }
}

/// Three ways to apply the same planned bursts must agree on every
/// verdict, every slot and every counter: `replay_stream`,
/// `ShardedEngine::submit_batch` one burst at a time, and a plain
/// `ChurnEngine` applying each burst serially in
/// `sharded_canonical_order`. Uniform traffic on the 2×2 tiling puts a
/// large share of requests in the cross bucket, so nearly every burst
/// has one — the part of `replay_stream` the regional scenario above
/// hardly reaches — and 32-slot tables held 95% open refuse about one
/// request in ten, so the verdict streams are not all `Ok`.
#[test]
fn replay_stream_equals_submit_batch_per_burst_equals_plain_engine() {
    let cfg = ShardConfig {
        max_paths: 2,
        ..ShardConfig::tiled(2, 2)
    };
    let spec = WorkloadBuilder::mesh(4, 4, 2)
        .connections(240)
        .slot_table_size(32)
        .bandwidth_mb(20, 200)
        .ni_load_cap(0.95)
        .seed(77)
        .build();
    let churn = ChurnParams {
        target_open: 0.95,
        ..ChurnParams::steady(80)
    };
    let stream = merge_population(client_population(&spec, 24, &churn, 99));
    let map = ShardMap::build(&spec, &cfg);
    let timed = &stream[WARMUP..];
    let lanes = map.shards() + 1;
    let bursts = plan_bursts_sharded(timed, BURST_CAP, lanes, |r| match map.classify(r) {
        ShardClass::Intra(k) => k,
        ShardClass::Cross => lanes - 1,
    });
    let requests: Vec<AdmissionRequest> = timed.iter().map(|r| r.request.clone()).collect();
    let cross = requests
        .iter()
        .filter(|r| map.classify(r) == ShardClass::Cross)
        .count();
    assert!(
        cross * 5 > requests.len(),
        "only {cross}/{} requests cross-shard",
        requests.len()
    );
    assert!(bursts.len() > 4 && bursts.len() < requests.len());

    // Reference: the plain engine, burst by burst in sharded-canonical
    // order, verdicts landed at their arrival indices.
    let allocator = Allocator {
        max_paths: cfg.max_paths,
        ..Allocator::new()
    };
    let mut plain = ChurnEngine::with_allocator(&spec, allocator);
    let mut flat = Allocation::empty_for(&spec);
    warm_up(&spec, &mut plain, &mut flat, &stream, WARMUP);
    let mut expected = Vec::with_capacity(requests.len());
    let mut order = Vec::new();
    for b in &bursts {
        let burst = &requests[b.clone()];
        sharded_canonical_order(&spec, &map, burst, &mut order);
        let mut verdicts = vec![None; burst.len()];
        for &i in &order {
            verdicts[i] = Some(plain.submit(&spec, &mut flat, burst[i].clone()));
        }
        expected.extend(verdicts.into_iter().map(|v| v.expect("a permutation")));
    }
    let admitted = expected.iter().filter(|v| v.is_ok()).count() as u64;
    assert!(admitted > 0 && admitted < requests.len() as u64);

    let warmed = || {
        let mut engine = ShardedEngine::new(&spec, cfg);
        let mut alloc = Allocation::empty_for(&spec);
        let mut verdicts = Vec::new();
        for r in &stream[..WARMUP] {
            let burst = core::slice::from_ref(&r.request);
            engine.submit_batch(&spec, &mut alloc, burst, &mut verdicts);
        }
        (engine, alloc)
    };
    let mut verdicts = Vec::new();

    // `submit_batch`, one planned burst at a time.
    let (mut engine, mut alloc) = warmed();
    let mut burstwise = Vec::with_capacity(requests.len());
    for b in &bursts {
        engine.submit_batch(&spec, &mut alloc, &requests[b.clone()], &mut verdicts);
        burstwise.append(&mut verdicts);
    }
    assert_eq!(burstwise, expected, "submit_batch per burst: verdicts");
    assert_eq!(
        engine.stats(),
        *plain.stats(),
        "submit_batch per burst: stats"
    );
    assert_same_state(&spec, &alloc, &flat, "submit_batch per burst");

    // `replay_stream` over the whole plan.
    let (mut engine, mut alloc) = warmed();
    engine.replay_stream(&spec, &mut alloc, &requests, &bursts, &mut verdicts);
    assert_eq!(verdicts, expected, "replay_stream: verdicts");
    assert_eq!(engine.stats(), *plain.stats(), "replay_stream: stats");
    assert_same_state(&spec, &alloc, &flat, "replay_stream");
}
