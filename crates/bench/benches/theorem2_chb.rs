//! E4 — Theorem 2: deciding `b CHB a` (NP-hard direction) on the
//! semaphore reduction. For satisfiable formulas the early-exit witness
//! search races the DPLL solver; the ablation compares it against full
//! summary computation (no early exit).

mod common;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eo_reductions::semaphore::SemaphoreReduction;
use eo_sat::{Formula, Solver};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_theorem2_chb");
    for (n, m) in [(3usize, 2usize), (3, 3), (4, 3)] {
        let f = Formula::trivially_sat(n, m);
        let red = SemaphoreReduction::build(&f);
        let label = format!("{n}v{m}c");
        g.bench_with_input(
            BenchmarkId::new("witness_search", &label),
            &red,
            |b, red| b.iter(|| black_box(red.witness_b_before_a().is_some())),
        );
        g.bench_with_input(BenchmarkId::new("dpll", &label), &f, |b, f| {
            b.iter(|| Solver::satisfiable(black_box(f)))
        });
    }

    // Early exit vs full statespace vs SAT encoding on the smallest
    // instance — three independent engines, one question.
    let f = Formula::trivially_sat(3, 2);
    let red = SemaphoreReduction::build(&f);
    g.bench_function("ablation_full_statespace_3v2c", |b| {
        b.iter(|| {
            // The all-pairs cut-lattice pass (no early exit), the fair
            // "compute everything" contender; the full six-relation
            // summary additionally enumerates F(P), which on reduction
            // executions is itself exponential-sized.
            let ctx = eo_engine::SearchCtx::new(
                black_box(&red.exec),
                eo_engine::FeasibilityMode::PreserveDependences,
            );
            let caps = eo_engine::Budget::unlimited().with_max_states(1 << 24);
            eo_engine::explore_statespace_budgeted(&ctx, &caps)
                .unwrap()
                .chb
                .contains(red.b.index(), red.a.index())
        })
    });
    g.bench_function("ablation_sat_encoding_3v2c", |b| {
        b.iter(|| {
            let ctx = eo_engine::SearchCtx::new(
                black_box(&red.exec),
                eo_engine::FeasibilityMode::PreserveDependences,
            );
            let unlimited = eo_engine::Budget::unlimited();
            eo_engine::chb_via_sat_budgeted(&ctx, red.b, red.a, &unlimited)
                .unwrap()
                .is_some()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = common::fast_criterion();
    targets = bench
}
criterion_main!(benches);
