//! Experiment P3 — online connection-churn kernels (not a paper
//! artefact).
//!
//! Times the [`ChurnEngine`]'s O(Δ) setup/teardown path on the paper's
//! Section VII platform and on the 8×8 / 64-slot mesh the throughput
//! gate tracks, against the per-event cost of the pre-online
//! counterfactual (full batch re-allocation of the whole set with a warm
//! route cache):
//!
//! * `churn_pair_*` — one teardown + one setup of a rotating connection
//!   against an otherwise-live allocation (the steady-state hot path);
//! * `churn_switch_*` — a whole use-case switch (one application out,
//!   another in) applied as one delta;
//! * `full_realloc_*` — batch re-allocation of the same workload, the
//!   cost the O(Δ) kernels replace per event.
//!
//! The trace-driven per-request costs are the
//! `online.engine.{serial_ns_per_req,open_ns,close_ns,switch_ns}` and
//! `alloc.allocate.batch_warm_conns_per_s` rows of `benchmark/`; this
//! matrix is the only place the full-re-allocation counterfactual is
//! still timed.

use aelite_alloc::{allocate, Allocator, RouteCache};
use aelite_online::ChurnEngine;
use aelite_spec::app::SystemSpec;
use aelite_spec::generate::{paper_workload, scaled_workload};
use aelite_spec::ids::AppId;
use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::Cell;
use std::hint::black_box;

fn workloads() -> Vec<(&'static str, SystemSpec)> {
    vec![
        ("paper_200", paper_workload(42)),
        ("mesh8x8_1000", scaled_workload(8, 8, 4, 1000, 1)),
    ]
}

fn bench_pair(c: &mut Criterion) {
    for (name, spec) in workloads() {
        let mut alloc = allocate(&spec).expect("allocates");
        let mut engine = ChurnEngine::new(&spec);
        let n = spec.connections().len();
        let next = Cell::new(0usize);
        c.bench_function(&format!("churn_pair_{name}"), |b| {
            b.iter(|| {
                let conn = spec.connections()[next.get()].id;
                next.set((next.get() + 1) % n);
                assert!(engine.close(&mut alloc, conn));
                engine
                    .open(black_box(&spec), &mut alloc, conn)
                    .expect("re-admits");
            });
        });
    }
}

fn bench_switch(c: &mut Criterion) {
    for (name, spec) in workloads() {
        // Start inside use case {0, 1, 2}; flip apps 2 and 3 per iter.
        let uc1 = spec.restricted_to(&[AppId::new(0), AppId::new(1), AppId::new(2)]);
        let mut alloc = allocate(&uc1).expect("use case allocates");
        let mut engine = ChurnEngine::new(&spec);
        let app2: Vec<_> = spec.app_connections(AppId::new(2)).map(|c| c.id).collect();
        let app3: Vec<_> = spec.app_connections(AppId::new(3)).map(|c| c.id).collect();
        let out_is_2 = Cell::new(true);
        c.bench_function(&format!("churn_switch_{name}"), |b| {
            b.iter(|| {
                let (close, open) = if out_is_2.get() {
                    (&app2, &app3)
                } else {
                    (&app3, &app2)
                };
                out_is_2.set(!out_is_2.get());
                engine
                    .switch(black_box(&spec), &mut alloc, close, open)
                    .expect("use cases co-exist");
            });
        });
    }
}

fn bench_full_realloc(c: &mut Criterion) {
    for (name, spec) in workloads() {
        let allocator = Allocator::new();
        let mut routes = RouteCache::new(spec.topology(), allocator.max_paths);
        let _ = allocator
            .allocate_with_cache(&spec, &mut routes)
            .expect("allocates");
        c.bench_function(&format!("full_realloc_{name}"), |b| {
            b.iter(|| {
                allocator
                    .allocate_with_cache(black_box(&spec), &mut routes)
                    .expect("allocates")
            });
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pair, bench_switch, bench_full_realloc
}
criterion_main!(benches);
