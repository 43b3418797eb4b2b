//! Differential suite for the interned hot path.
//!
//! The engine overhaul (state arena + successor-table walks + threaded
//! executed sets) must be a pure layout change: every relation, count, and
//! witness the old code produced, the new code must reproduce **bit for
//! bit**. This suite pits the interned sequential explorer against the
//! preserved pre-overhaul baseline ([`explore_statespace_baseline`]), the
//! parallel explorer, and the per-pair witness queries — on the model
//! fixtures and on both E9 workload families (the pairing-pitfall ladder
//! and the random semaphore workloads race detection sweeps).
//!
//! The same contract covers the trace-equivalence strategies: however
//! coarsely `normal-form` quotients the schedule space, the set of
//! induced orders — and every summary relation built from it — must be
//! bit-identical to the sleep-set Mazurkiewicz baseline.
//!
//! And it covers how the enumerator closes each complete schedule's
//! order (pairing edges kept along the DFS, one reverse sweep over the
//! schedule): in every build profile — the enumerator's own
//! `debug_assert` oracle is compiled out of release builds — its order
//! sets must equal `eo_model::induce::induced_order` over every schedule
//! of the unpruned search.

use eo_engine::{enumerate_classes, enumerate_classes_with, explore_statespace_parallel_budgeted};
use eo_engine::{enumerate_naive, EnumerationResult};
use eo_engine::{
    explore_statespace_baseline, explore_statespace_budgeted, Budget, EquivStrategy, ExactEngine,
    FeasibilityMode, OrderingSummary, QuerySession, SearchCtx, StateSpaceResult,
};
use eo_model::{EventId, MachState, ProgramExecution};
use eo_relations::Relation;
use std::collections::BTreeSet;

const BUDGET: usize = 1 << 22;

fn state_cap() -> Budget {
    Budget::unlimited().with_max_states(BUDGET)
}

/// Runs all three explorers and asserts the semantic fields agree exactly.
fn assert_explorers_agree(exec: &ProgramExecution, mode: FeasibilityMode) -> StateSpaceResult {
    let ctx = SearchCtx::new(exec, mode);
    let interned = explore_statespace_budgeted(&ctx, &state_cap()).expect("state budget");
    let baseline = explore_statespace_baseline(&ctx, BUDGET).expect("state budget");
    let parallel =
        explore_statespace_parallel_budgeted(&ctx, &state_cap(), 3).expect("state budget");
    for (name, other) in [("baseline", &baseline), ("parallel", &parallel)] {
        assert_eq!(interned.chb, other.chb, "chb vs {name}");
        assert_eq!(interned.overlap, other.overlap, "overlap vs {name}");
        assert_eq!(interned.states, other.states, "states vs {name}");
        assert_eq!(
            interned.completable_states, other.completable_states,
            "completable_states vs {name}"
        );
        assert_eq!(
            interned.deadlock_reachable, other.deadlock_reachable,
            "deadlock_reachable vs {name}"
        );
    }
    interned
}

/// Asserts the witness queries — through one shared session *and* as
/// one-shots — agree with `space` on every pair.
fn assert_queries_agree(exec: &ProgramExecution, mode: FeasibilityMode, space: &StateSpaceResult) {
    let ctx = SearchCtx::new(exec, mode);
    let mut session = QuerySession::new(&ctx);
    let n = exec.n_events();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            assert_eq!(
                session.try_could_happen_before(ea, eb).unwrap(),
                space.chb.contains(a, b),
                "session chb({a},{b})"
            );
            assert_eq!(
                session.try_could_be_concurrent(ea, eb).unwrap(),
                space.overlap.contains(a, b),
                "session overlap({a},{b})"
            );
        }
    }
    // Spot-check the one-shot engine queries on the first row (the full
    // quadratic sweep above already covers the session path).
    if n > 1 {
        let engine = ExactEngine::with_mode(exec, mode);
        let ea = EventId::new(0);
        for b in 1..n {
            let eb = EventId::new(b);
            assert_eq!(
                engine.chb(ea, eb),
                space.chb.contains(0, b),
                "one-shot chb(0,{b})"
            );
            assert_eq!(
                engine.ccw(ea, eb),
                space.overlap.contains(0, b),
                "one-shot overlap(0,{b})"
            );
        }
    }
}

/// Enumerates F(P) under normal-form and asserts the order set — and the
/// summary built from it — is bit-identical to the Mazurkiewicz baseline.
fn assert_strategies_agree(exec: &ProgramExecution, mode: FeasibilityMode) {
    let ctx = SearchCtx::new(exec, mode);
    let base = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::Mazurkiewicz);
    assert!(!base.truncated, "differential workloads must not truncate");
    let space = explore_statespace_budgeted(&ctx, &state_cap()).unwrap();
    let old = OrderingSummary::from_parts(&space, &base);
    let mut base_fps: Vec<u128> = base.orders.iter().map(|o| o.fingerprint128()).collect();
    base_fps.sort_unstable();
    let strategy = EquivStrategy::NormalForm;
    let r = enumerate_classes_with(&ctx, 1 << 20, strategy);
    assert!(!r.truncated, "{strategy}");
    let mut fps: Vec<u128> = r.orders.iter().map(|o| o.fingerprint128()).collect();
    fps.sort_unstable();
    assert_eq!(base_fps, fps, "{strategy}: F(P) differs from baseline");
    assert!(
        r.schedules_explored <= base.schedules_explored,
        "{strategy}: coarsening must not explore more schedules"
    );
    let new = OrderingSummary::from_parts(&space, &r);
    assert_eq!(old.mhb_relation(), new.mhb_relation(), "{strategy}: mhb");
    assert_eq!(old.chb_relation(), new.chb_relation(), "{strategy}: chb");
    assert_eq!(old.ccw_relation(), new.ccw_relation(), "{strategy}: ccw");
    assert_eq!(
        old.ccw_induced_relation(),
        new.ccw_induced_relation(),
        "{strategy}: ccw_induced"
    );
    assert_eq!(
        old.all_ordered_relation(),
        new.all_ordered_relation(),
        "{strategy}: all_ordered"
    );
    assert_eq!(old.class_count(), new.class_count(), "{strategy}: classes");
}

fn fixture_traces() -> Vec<eo_model::Trace> {
    use eo_model::fixtures;
    vec![
        fixtures::independent_pair().0,
        fixtures::sem_handshake().0,
        fixtures::fork_join_diamond().0,
        fixtures::figure1().0,
        fixtures::post_wait_clear_chain().0,
        fixtures::shared_counter_race().0,
        fixtures::crossing().0,
    ]
}

#[test]
fn fixtures_bit_identical_across_explorers_and_queries() {
    for trace in fixture_traces() {
        let exec = trace.to_execution().unwrap();
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let space = assert_explorers_agree(&exec, mode);
            assert_queries_agree(&exec, mode, &space);
            assert_strategies_agree(&exec, mode);
        }
    }
}

#[test]
fn fixture_summaries_bit_identical() {
    for trace in fixture_traces() {
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let classes = enumerate_classes(&ctx, 1 << 20);
        let interned = explore_statespace_budgeted(&ctx, &state_cap()).unwrap();
        let baseline = explore_statespace_baseline(&ctx, BUDGET).unwrap();
        let new = OrderingSummary::from_parts(&interned, &classes);
        let old = OrderingSummary::from_parts(&baseline, &classes);
        let n = exec.n_events();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                assert_eq!(new.mhb(ea, eb), old.mhb(ea, eb), "mhb({a},{b})");
                assert_eq!(new.chb(ea, eb), old.chb(ea, eb), "chb({a},{b})");
                assert_eq!(new.mcw(ea, eb), old.mcw(ea, eb), "mcw({a},{b})");
                assert_eq!(new.ccw(ea, eb), old.ccw(ea, eb), "ccw({a},{b})");
                assert_eq!(new.mow(ea, eb), old.mow(ea, eb), "mow({a},{b})");
                assert_eq!(new.cow(ea, eb), old.cow(ea, eb), "cow({a},{b})");
            }
        }
    }
}

/// The E9 pairing-pitfall family: a writer's `V` observably paired with
/// the reader's guarding `P`, plus `decoys` other `V`s that could have
/// served it instead. Race detection runs these under the
/// dependence-ignoring feasibility of the paper's Section 5.3.
fn pitfall_exec(decoys: usize) -> ProgramExecution {
    let mut b = eo_lang::ProgramBuilder::new();
    let s = b.semaphore("s");
    let x = b.variable("x");
    let w = b.process("writer");
    b.compute_rw(w, &[], &[x], "write_x");
    b.sem_v(w, s);
    for k in 0..decoys {
        let d = b.process(&format!("decoy_{k}"));
        b.sem_v(d, s);
    }
    let r = b.process("reader");
    b.sem_p(r, s);
    b.compute_rw(r, &[x], &[], "read_x");
    let program = b.build();
    eo_lang::run_to_trace(&program, &mut eo_lang::Scheduler::deterministic())
        .expect("pitfall program cannot deadlock")
        .to_execution()
        .expect("interpreter traces are valid")
}

#[test]
fn e9_pitfall_family_bit_identical() {
    for decoys in 1..=4 {
        let exec = pitfall_exec(decoys);
        let space = assert_explorers_agree(&exec, FeasibilityMode::IgnoreDependences);
        assert_queries_agree(&exec, FeasibilityMode::IgnoreDependences, &space);
        assert_strategies_agree(&exec, FeasibilityMode::IgnoreDependences);
    }
}

#[test]
fn e9_random_semaphore_family_bit_identical() {
    use eo_lang::generator::{generate_trace, WorkloadSpec};
    for seed in 0..6 {
        let mut spec = WorkloadSpec::small_semaphore(seed);
        spec.variables = 3;
        spec.write_fraction = 0.5;
        let exec = generate_trace(&spec, 100).to_execution().unwrap();
        // Race detection queries this family under IgnoreDependences; the
        // scaling experiments explore it under PreserveDependences. Check
        // both.
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let space = assert_explorers_agree(&exec, mode);
            assert_strategies_agree(&exec, mode);
            if seed < 2 {
                // The quadratic query sweep is expensive; two seeds per
                // mode keep the suite fast while still crossing the
                // query/explorer boundary on random inputs.
                assert_queries_agree(&exec, mode, &space);
            }
        }
    }
}

#[test]
fn e6_scaling_workloads_bit_identical() {
    use eo_lang::generator::{generate_trace, WorkloadSpec};
    for (processes, events_per_process, seed) in [(3, 4, 11), (4, 4, 12), (5, 3, 13)] {
        let mut spec = WorkloadSpec::small_semaphore(seed);
        spec.processes = processes;
        spec.events_per_process = events_per_process;
        spec.semaphores = (processes / 2).max(1);
        let exec = generate_trace(&spec, 100).to_execution().unwrap();
        assert_explorers_agree(&exec, FeasibilityMode::PreserveDependences);
        assert_strategies_agree(&exec, FeasibilityMode::PreserveDependences);
    }
}

/// Every schedule the unpruned search visits — each interleaving of
/// co-enabled events — with its order taken by the reference extraction
/// `induce::induced_order`, which shares none of the enumerator's
/// incremental edge and closure code. Returns the distinct orders (as
/// sorted pair lists) and the schedule count.
fn reference_orders(ctx: &SearchCtx<'_>) -> (BTreeSet<Vec<(usize, usize)>>, usize) {
    fn walk(
        ctx: &SearchCtx<'_>,
        d: &Relation,
        st: &MachState,
        schedule: &mut Vec<EventId>,
        out: &mut (BTreeSet<Vec<(usize, usize)>>, usize),
    ) {
        if ctx.is_complete(st) {
            let order = eo_model::induce::induced_order(ctx.exec().trace(), d, schedule);
            out.0.insert(order.pairs().collect());
            out.1 += 1;
            return;
        }
        for (p, e) in ctx.co_enabled(st) {
            let mut next = st.clone();
            ctx.step(&mut next, p);
            schedule.push(e);
            walk(ctx, d, &next, schedule, out);
            schedule.pop();
        }
    }
    let mut out = (BTreeSet::new(), 0);
    let d = ctx.effective_d();
    walk(ctx, &d, &ctx.initial_state(), &mut Vec::new(), &mut out);
    out
}

fn order_set(r: &EnumerationResult) -> BTreeSet<Vec<(usize, usize)>> {
    r.orders.iter().map(|o| o.pairs().collect()).collect()
}

/// The enumerator's order set under every strategy (and the unpruned
/// search) equals the reference orders of every unpruned schedule.
fn assert_leaf_closure_matches_reference(exec: &ProgramExecution, mode: FeasibilityMode) {
    let ctx = SearchCtx::new(exec, mode);
    let (reference, schedules) = reference_orders(&ctx);
    let naive = enumerate_naive(&ctx, 1 << 20);
    assert!(!naive.truncated, "differential workloads must not truncate");
    assert_eq!(naive.schedules_explored, schedules, "naive schedule count");
    assert_eq!(
        naive.orders.len(),
        reference.len(),
        "naive: duplicate orders"
    );
    assert_eq!(order_set(&naive), reference, "naive: F(P) differs");
    for strategy in EquivStrategy::ALL {
        let r = enumerate_classes_with(&ctx, 1 << 20, strategy);
        assert!(!r.truncated, "{strategy}");
        assert_eq!(
            r.orders.len(),
            reference.len(),
            "{strategy}: duplicate orders"
        );
        assert_eq!(order_set(&r), reference, "{strategy}: F(P) differs");
    }
}

#[test]
fn leaf_closure_matches_reference_induced_orders() {
    use eo_lang::generator::{generate_trace, WorkloadSpec};
    let mut execs: Vec<ProgramExecution> = fixture_traces()
        .iter()
        .map(|t| t.to_execution().unwrap())
        .collect();
    execs.extend((1..=4).map(pitfall_exec));
    for seed in 0..4 {
        // The E9 random semaphore family, and Post/Wait/Clear programs
        // (Clear placement edges are the subtlest pairing edges).
        let mut spec = WorkloadSpec::small_semaphore(seed);
        spec.variables = 3;
        spec.write_fraction = 0.5;
        execs.push(generate_trace(&spec, 100).to_execution().unwrap());
        let events = WorkloadSpec::small_events(seed);
        execs.push(generate_trace(&events, 100).to_execution().unwrap());
    }
    for exec in &execs {
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            assert_leaf_closure_matches_reference(exec, mode);
        }
    }
}
