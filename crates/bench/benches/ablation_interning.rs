//! Ablation (DESIGN.md §5): the pre-overhaul explorer (clone-keyed state
//! map, per-state executed rebuilds, clone+step+hash overlap probes)
//! against the interned hot path (state arena, threaded executed rows,
//! successor-table walks). Results are bit-identical — the differential
//! suite asserts it — so this measures pure layout cost.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eo_engine::{
    explore_statespace_baseline, explore_statespace_budgeted, Budget, FeasibilityMode, SearchCtx,
};
use eo_lang::generator::{generate_trace, WorkloadSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let caps = Budget::unlimited().with_max_states(1 << 24);
    let mut g = c.benchmark_group("ablation_interning");
    for (processes, events_per_process) in [(3usize, 4usize), (4, 4), (5, 3)] {
        let mut spec = WorkloadSpec::small_semaphore(3);
        spec.processes = processes;
        spec.events_per_process = events_per_process;
        spec.semaphores = (processes / 2).max(1);
        let trace = generate_trace(&spec, 100);
        let exec = trace.to_execution().unwrap();
        let label = format!("{}x{}", processes, events_per_process);

        g.bench_with_input(BenchmarkId::new("baseline", &label), &exec, |b, exec| {
            b.iter(|| {
                let ctx = SearchCtx::new(black_box(exec), FeasibilityMode::PreserveDependences);
                explore_statespace_baseline(&ctx, 1 << 24).unwrap().states
            })
        });
        g.bench_with_input(BenchmarkId::new("interned", &label), &exec, |b, exec| {
            b.iter(|| {
                let ctx = SearchCtx::new(black_box(exec), FeasibilityMode::PreserveDependences);
                explore_statespace_budgeted(&ctx, &caps).unwrap().states
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench
}
criterion_main!(benches);
