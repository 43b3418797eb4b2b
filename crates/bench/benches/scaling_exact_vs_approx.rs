//! E6 — the complexity separation: exact engine vs polynomial baselines
//! as the workload grows. The exact curve climbs exponentially with the
//! process count (cut-lattice states multiply); HMW and vector clocks
//! stay flat — exactly the trade the theorems mandate.

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use eo_engine::{explore_statespace_budgeted, Budget, FeasibilityMode, SearchCtx};
use eo_lang::generator::{generate_trace, WorkloadSpec};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let caps = Budget::unlimited().with_max_states(1 << 24);
    let mut g = c.benchmark_group("e6_scaling");
    for procs in [2usize, 3, 4] {
        let mut spec = WorkloadSpec::small_semaphore(7);
        spec.processes = procs;
        spec.events_per_process = 4;
        let trace = generate_trace(&spec, 100);
        let exec = trace.to_execution().unwrap();
        g.throughput(Throughput::Elements(exec.n_events() as u64));

        g.bench_with_input(
            BenchmarkId::new("exact_statespace", procs),
            &exec,
            |b, exec| {
                b.iter(|| {
                    let ctx = SearchCtx::new(black_box(exec), FeasibilityMode::PreserveDependences);
                    explore_statespace_budgeted(&ctx, &caps).unwrap().states
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("hmw_safe", procs), &exec, |b, exec| {
            b.iter(|| eo_approx::SafeOrderings::compute(black_box(exec)))
        });
        g.bench_with_input(
            BenchmarkId::new("vector_clocks", procs),
            &exec,
            |b, exec| b.iter(|| eo_approx::VectorClockHb::compute(black_box(exec))),
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
