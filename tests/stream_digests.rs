//! Integer digests of the merged client-population streams the serving
//! benchmark replays, at a tenth of its events per client.
//!
//! The three recipes are the benchmark's: `serve_uniform` (8×8 mesh,
//! 1 000 uniform connections, 499 clients), `admit_contended` (8×8, 2 000
//! hotspot connections on 32-slot tables, 199 clients) and
//! `shard_regional` (8×8, 1 000 region-local connections, clients grouped
//! by their home shard on a 2×2 sharding). Each digest folds every field
//! of every merged request, so a change to the per-client draw, the pool
//! split or the merge order that moves a single request changes it.

use aelite_online::{AdmissionRequest, ShardConfig, ShardMap};
use aelite_serve::{merge_population, TimedRequest};
use aelite_spec::churn::{client_population, client_population_grouped, ChurnParams};
use aelite_spec::generate::{TrafficProfile, WorkloadBuilder};

/// FNV-1a over a stream of 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every request's time, client, kind and connection ids.
fn stream_digest(stream: &[TimedRequest]) -> u64 {
    let mut d = Digest::new();
    d.word(stream.len() as u64);
    for r in stream {
        d.word(r.at_ns);
        d.word(u64::from(r.client));
        match &r.request {
            AdmissionRequest::Open(c) => {
                d.word(0);
                d.word(c.index() as u64);
            }
            AdmissionRequest::Close(c) => {
                d.word(1);
                d.word(c.index() as u64);
            }
            AdmissionRequest::Switch { close, open } => {
                d.word(2);
                d.word(close.len() as u64);
                close.iter().for_each(|c| d.word(c.index() as u64));
                d.word(open.len() as u64);
                open.iter().for_each(|c| d.word(c.index() as u64));
            }
        }
    }
    d.0
}

fn churn(events: u32, target_open: f64, switch_weight: f64) -> ChurnParams {
    ChurnParams {
        target_open,
        switch_weight,
        ..ChurnParams::steady(events)
    }
}

/// 8×8 mesh, 1 000 uniform connections, 499 clients of 1 600 / `div`
/// events each.
fn uniform(seed: u64, div: u32) -> Vec<TimedRequest> {
    let spec = WorkloadBuilder::mesh(8, 8, 4)
        .connections(1000)
        .slot_table_size(64)
        .seed(seed)
        .build();
    merge_population(client_population(
        &spec,
        499,
        &churn(1600 / div, 0.7, 0.004),
        seed,
    ))
}

/// 8×8 mesh, 32 slots, 2 000 hotspot connections at 95% NI load, 199
/// clients of 4 000 / `div` events each.
fn hotspot(seed: u64, div: u32) -> Vec<TimedRequest> {
    let spec = WorkloadBuilder::mesh(8, 8, 4)
        .connections(2000)
        .slot_table_size(32)
        .seed(seed)
        .bandwidth_mb(20, 200)
        .ni_load_cap(0.95)
        .profile(TrafficProfile::Hotspot { spots: 4 })
        .build();
    merge_population(client_population(
        &spec,
        199,
        &churn(4000 / div, 0.95, 0.05),
        seed,
    ))
}

/// 8×8 mesh, 1 000 connections local to a 2×2 tiling, 499 clients of
/// 1 600 / `div` events each, grouped by home shard (cross-shard
/// connections form one more group).
fn regional(seed: u64, div: u32) -> Vec<TimedRequest> {
    let spec = WorkloadBuilder::mesh(8, 8, 4)
        .connections(1000)
        .slot_table_size(64)
        .seed(seed)
        .tiles(2, 2)
        .build();
    let map = ShardMap::build(
        &spec,
        &ShardConfig {
            max_paths: 2,
            ..ShardConfig::tiled(2, 2)
        },
    );
    merge_population(client_population_grouped(
        &spec,
        499,
        &churn(1600 / div, 0.7, 0.004),
        seed,
        |c| map.conn_home(c.id).unwrap_or(map.shards()) as u32,
    ))
}

#[test]
fn benchmark_streams_at_a_tenth_are_pinned() {
    let got = [
        stream_digest(&uniform(1, 10)),
        stream_digest(&hotspot(1, 10)),
        stream_digest(&regional(1, 10)),
    ];
    assert_eq!(
        got,
        [
            0xf3de_da57_bb01_76ee,
            0xe6fc_3510_0fa1_d006,
            0x0427_245f_a96d_be5d
        ],
        "merged stream digests moved: {got:#x?}"
    );
}
