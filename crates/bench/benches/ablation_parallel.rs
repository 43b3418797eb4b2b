//! Ablation (DESIGN.md §5): sequential vs pool-parallel cut-lattice
//! exploration (bit-identical results; the bench measures the speed-up on
//! a workload large enough to have real frontiers).

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eo_engine::{
    explore_statespace_budgeted, explore_statespace_parallel_budgeted, Budget, FeasibilityMode,
    SearchCtx,
};
use eo_lang::generator::{generate_trace, WorkloadSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut spec = WorkloadSpec::small_semaphore(3);
    spec.processes = 4;
    spec.events_per_process = 4;
    let trace = generate_trace(&spec, 100);
    let exec = trace.to_execution().unwrap();

    let caps = Budget::unlimited().with_max_states(1 << 24);
    let mut g = c.benchmark_group("ablation_parallel");
    g.bench_function("sequential", |b| {
        b.iter(|| {
            let ctx = SearchCtx::new(black_box(&exec), FeasibilityMode::PreserveDependences);
            explore_statespace_budgeted(&ctx, &caps).unwrap().states
        })
    });
    for threads in [2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let ctx =
                        SearchCtx::new(black_box(&exec), FeasibilityMode::PreserveDependences);
                    explore_statespace_parallel_budgeted(&ctx, &caps, threads)
                        .unwrap()
                        .states
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench
}
criterion_main!(benches);
