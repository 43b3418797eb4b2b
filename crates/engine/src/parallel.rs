//! Parallel cut-lattice exploration.
//!
//! The sequential explorer in [`crate::statespace`] interleaves three
//! kinds of work: stepping the machine out of each state (CPU-bound,
//! embarrassingly parallel), hash-consing successor states into the global
//! arena (memory-bound, hard to parallelize without sharded tables), and
//! the pairwise-fact accumulation over completable states (CPU-bound,
//! parallel by node range). This module parallelizes the first and third
//! on a **persistent worker pool** — workers are spawned once for the
//! whole exploration and fed per-level tasks through a shared
//! condvar-backed queue, so no thread is created per BFS level — while the
//! hash-consing merge stays sequential on the coordinating thread.
//!
//! The storage is the same [`StateGraph`](crate::statespace) the
//! sequential explorer uses: states interned once in the
//! [`StateTable`](crate::statetable::StateTable) arena, executed sets
//! threaded incrementally (each successor adds one bit to its parent's
//! row), overlap checks done by successor-table walks in
//! `accumulate_range` — so the two explorers differ only in who does the
//! stepping, never in what is stored.
//!
//! The result is bit-for-bit identical to the sequential explorer's
//! (tests assert this). Whether it is *faster* depends on how much of the
//! input's cost is machine-stepping versus hashing: the ablation bench
//! (DESIGN.md §5) reports both sides honestly, and on small executions the
//! sequential explorer wins — parallelism only pays once the per-level
//! frontiers are thousands of states wide.
//!
//! ## Failure isolation
//!
//! A panicking worker must not take the analysis down with it. Three
//! mechanisms compose (exercised by the fault-injection suite):
//!
//! * every queue lock recovers from poisoning
//!   ([`PoisonError::into_inner`] — the queue invariants are trivial, so a
//!   mid-`push` panic elsewhere cannot corrupt them);
//! * each task runs under [`catch_unwind`] *inside* the worker's pop
//!   loop: a panicked task becomes a `TaskResult::Failed` and the
//!   worker keeps draining the queue, so the coordinator always receives
//!   one result per task — no thread dies, no slot is abandoned, no hang
//!   even with a single worker;
//! * the coordinator collects *all* expected results for a phase before
//!   acting, then surfaces any failure as
//!   [`EngineError::WorkerFailed`]. The surrounding [`std::thread::scope`]
//!   joins every worker on the way out.
//!
//! [`catch_unwind`]: std::panic::catch_unwind
//! [`PoisonError::into_inner`]: std::sync::PoisonError::into_inner

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use crate::pool::Queue;
use crate::statespace::{
    accumulate_range, propagate_completability, Node, StateGraph, StateSpaceResult,
};
use eo_model::{EventId, MachState, ProcessId};
use eo_relations::Relation;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// One state to expand: its node index, the state cloned out of the
/// arena, and its enabled list.
type ExpandItem = (usize, MachState, Vec<(ProcessId, EventId)>);

/// Work items sent to the pool.
enum Task {
    /// Expand these states (cloned out of the arena): step every enabled
    /// process once, reporting the event each step fired.
    Expand {
        /// Position of this chunk in the level's task list.
        slot: usize,
        items: Vec<ExpandItem>,
    },
    /// Compute `co_enabled` for these fresh states.
    Enable { slot: usize, items: Vec<MachState> },
}

/// Worker results, tagged by slot so the coordinator can reassemble
/// deterministically.
enum TaskResult {
    Expanded {
        slot: usize,
        succs: Vec<(usize, EventId, MachState)>,
    },
    Enabled {
        slot: usize,
        enabled: Vec<Vec<(ProcessId, EventId)>>,
    },
    /// The worker's task panicked (caught); the slot produced nothing.
    Failed,
}

/// Parallel variant of [`crate::explore_statespace_budgeted`] under a
/// full supervisor [`Budget`] (deadline, caps, memory, cancellation —
/// checked once per BFS level — plus worker checkpoints for fault
/// injection). `threads = 0` means "use the available parallelism".
/// All-or-nothing; degraded analyses use `explore_parallel_partial` to
/// keep the truncated graph.
pub fn explore_statespace_parallel_budgeted(
    ctx: &SearchCtx<'_>,
    budget: &Budget,
    threads: usize,
) -> Result<StateSpaceResult, EngineError> {
    let (mut graph, stopped) = explore_parallel_partial(ctx, budget, threads);
    if let Some(e) = stopped {
        return Err(e);
    }
    finalize_parallel(ctx, budget, &mut graph, threads.max(1))
}

/// Builds the cut-lattice graph on the worker pool, stopping at the first
/// exhausted budget resource or worker failure. The graph built so far is
/// returned either way (level-consistent; see
/// [`crate::statespace::finalize`] for what a truncated graph
/// soundly proves). Every pool thread is joined before this returns.
pub(crate) fn explore_parallel_partial(
    ctx: &SearchCtx<'_>,
    budget: &Budget,
    threads: usize,
) -> (StateGraph, Option<EngineError>) {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };

    eo_obs::gauge!("pool.workers", threads as i64);
    let tasks: Queue<Task> = Queue::new();
    let results: Queue<TaskResult> = Queue::new();

    let out = std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // The guard spans the worker's lifetime; the thread-local
                // event buffer flushes when the scoped thread exits, which
                // is always before the exploration returns.
                let _worker_span = eo_obs::span("pool.worker");
                let mut tasks_done: u64 = 0;
                let mut enabled_buf: Vec<(ProcessId, EventId)> = Vec::new();
                while let Some(task) = tasks.pop() {
                    tasks_done += 1;
                    // Isolate each task: a panic (fault-injected or real)
                    // yields a `Failed` result and the worker lives on to
                    // drain the queue — the coordinator is always owed
                    // exactly one result per task.
                    let outcome = catch_unwind(AssertUnwindSafe(|| match task {
                        Task::Expand { slot, items } => {
                            budget.check_worker();
                            let mut succs = Vec::new();
                            for (parent, state, fires) in items {
                                for (p, e) in fires {
                                    let mut st2 = state.clone();
                                    ctx.step(&mut st2, p);
                                    succs.push((parent, e, st2));
                                }
                            }
                            TaskResult::Expanded { slot, succs }
                        }
                        Task::Enable { slot, items } => {
                            budget.check_worker();
                            let enabled = items
                                .iter()
                                .map(|st| {
                                    ctx.co_enabled_into(st, &mut enabled_buf);
                                    enabled_buf.clone()
                                })
                                .collect();
                            TaskResult::Enabled { slot, enabled }
                        }
                    }));
                    results.push(outcome.unwrap_or(TaskResult::Failed));
                }
                eo_obs::counter!("pool.tasks", tasks_done);
            });
        }

        let out = drive(ctx, budget, threads, &tasks, &results);
        tasks.close(); // hang up so workers exit; the scope joins them
        out
    });
    out.0.emit_metrics();
    if eo_obs::recording() {
        eo_obs::gauge!(
            "pool.max_queue_depth",
            tasks.max_depth.load(Ordering::Relaxed) as i64
        );
    }
    out
}

/// The coordinating thread: level-synchronous BFS with the heavy phases
/// fanned out to the pool. Stops (returning the level-consistent graph so
/// far) at the first exhausted budget resource or failed worker task.
fn drive(
    ctx: &SearchCtx<'_>,
    budget: &Budget,
    threads: usize,
    tasks: &Queue<Task>,
    results: &Queue<TaskResult>,
) -> (StateGraph, Option<EngineError>) {
    eo_obs::span!("engine.build_graph");
    let mut graph = StateGraph::seeded(ctx);

    // O(1) running storage estimate for the memory budget (see the
    // sequential `build_graph_budgeted`).
    let state_bytes = std::mem::size_of::<MachState>()
        + ctx.initial_state().heap_bytes()
        + ctx.n_events().div_ceil(64) * 8
        + std::mem::size_of::<Node>();
    let edge_bytes = std::mem::size_of::<u32>() + std::mem::size_of::<(ProcessId, EventId)>();
    let mut est_bytes = state_bytes + graph.nodes[0].enabled.len() * edge_bytes;

    let mut frontier: Vec<usize> = vec![0];
    while !frontier.is_empty() {
        // One budget checkpoint per BFS level.
        if let Err(e) = budget.check(est_bytes) {
            return (graph, Some(e));
        }

        // Phase 1 (pool): successors of every frontier node. Task items
        // carry owned state clones so workers never borrow the arena.
        let expand_span = eo_obs::span("par.expand");
        let chunk = frontier.len().div_ceil(threads).max(1);
        let mut slots = 0;
        for (slot, ids) in frontier.chunks(chunk).enumerate() {
            let items = ids
                .iter()
                .map(|&i| {
                    let state = graph.table.get(crate::statetable::StateId::new(i)).clone();
                    (i, state, graph.nodes[i].enabled.clone())
                })
                .collect();
            tasks.push(Task::Expand { slot, items });
            slots += 1;
        }
        let mut batches: Vec<Vec<(usize, EventId, MachState)>> =
            (0..slots).map(|_| Vec::new()).collect();
        let mut failed = 0usize;
        for _ in 0..slots {
            // Workers always answer every task (panics are caught into
            // `Failed`), so all `slots` results arrive; collect them all
            // before acting so no result is left queued for a later phase.
            match results.pop() {
                Some(TaskResult::Expanded { slot, succs }) => batches[slot] = succs,
                Some(TaskResult::Failed) | None => failed += 1,
                Some(TaskResult::Enabled { .. }) => {
                    debug_assert!(false, "no enable tasks in flight");
                    failed += 1;
                }
            }
        }
        if failed > 0 {
            return (graph, Some(EngineError::WorkerFailed));
        }
        expand_span.end();

        // Phase 2 (sequential): hash-cons successor states into the arena.
        let intern_span = eo_obs::span("par.intern");
        let new_start = graph.nodes.len();
        let mut next_frontier: Vec<usize> = Vec::new();
        for batch in batches {
            for (parent, e, st) in batch {
                let (id, fresh) = graph.table.intern(st);
                if fresh {
                    if let Err(err) = budget.check_states(graph.nodes.len() + 1) {
                        return (graph, Some(err));
                    }
                    debug_assert_eq!(id.index(), graph.nodes.len());
                    est_bytes += state_bytes;
                    graph.nodes.push(Node {
                        enabled: Vec::new(), // filled in phase 3
                        succs: Vec::new(),
                        completable: false,
                    });
                    let row = graph.executed.push_row_copy(parent);
                    debug_assert_eq!(row, id.index());
                    graph.executed.set(row, e.index());
                    next_frontier.push(id.index());
                }
                est_bytes += edge_bytes;
                graph.nodes[parent].succs.push(id.index() as u32);
            }
        }

        intern_span.end();

        // Phase 3 (pool): enabledness of the fresh nodes.
        let enable_span = eo_obs::span("par.enable");
        let fresh = graph.nodes.len() - new_start;
        if fresh > 0 {
            let chunk = fresh.div_ceil(threads).max(1);
            let mut slots = 0;
            let mut cursor = new_start;
            while cursor < graph.nodes.len() {
                let hi = (cursor + chunk).min(graph.nodes.len());
                let items = (cursor..hi)
                    .map(|i| graph.table.get(crate::statetable::StateId::new(i)).clone())
                    .collect();
                tasks.push(Task::Enable { slot: slots, items });
                slots += 1;
                cursor = hi;
            }
            let mut per_slot: Vec<Vec<Vec<(ProcessId, EventId)>>> =
                (0..slots).map(|_| Vec::new()).collect();
            let mut failed = 0usize;
            for _ in 0..slots {
                match results.pop() {
                    Some(TaskResult::Enabled { slot, enabled }) => per_slot[slot] = enabled,
                    Some(TaskResult::Failed) | None => failed += 1,
                    Some(TaskResult::Expanded { .. }) => {
                        debug_assert!(false, "no expand tasks in flight");
                        failed += 1;
                    }
                }
            }
            if failed > 0 {
                // Fresh nodes may lack enabled lists; they read as
                // deadlocks, which completability treats conservatively —
                // the partial graph stays sound for degradation.
                return (graph, Some(EngineError::WorkerFailed));
            }
            let mut write = new_start;
            for slot in per_slot {
                for enabled in slot {
                    est_bytes += enabled.len() * edge_bytes;
                    graph.nodes[write].enabled = enabled;
                    write += 1;
                }
            }
            debug_assert_eq!(write, graph.nodes.len());
        }
        enable_span.end();

        frontier = next_frontier;
    }

    (graph, None)
}

/// Phase 4 over a fully-built graph: completability (sequential linear
/// pass), then pairwise accumulation fanned out by node range and merged
/// by relation union. An accumulation thread that panics surfaces as
/// [`EngineError::WorkerFailed`] — after every thread is joined.
fn finalize_parallel(
    ctx: &SearchCtx<'_>,
    budget: &Budget,
    graph: &mut StateGraph,
    threads: usize,
) -> Result<StateSpaceResult, EngineError> {
    eo_obs::span!("engine.finalize");
    let deadlock_reachable = propagate_completability(ctx, graph, true);
    let (chb, overlap, completable_states) = if graph.nodes.len() < 4 * threads {
        accumulate_range(ctx, graph, 0, graph.nodes.len())
    } else {
        let chunk = graph.nodes.len().div_ceil(threads);
        let graph_ref = &*graph;
        let partials: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(graph_ref.nodes.len());
                    s.spawn(move || {
                        budget.check_worker();
                        accumulate_range(ctx, graph_ref, lo, hi)
                    })
                })
                .collect();
            // Join every handle before reporting, so a panic in one chunk
            // never leaves another thread running.
            handles.into_iter().map(|h| h.join().ok()).collect()
        });
        let n = ctx.n_events();
        let mut chb = Relation::new(n);
        let mut overlap = Relation::new(n);
        let mut completable = 0;
        for p in partials {
            let Some((c, o, k)) = p else {
                return Err(EngineError::WorkerFailed);
            };
            chb.union_with(&c);
            overlap.union_with(&o);
            completable += k;
        }
        (chb, overlap, completable)
    };

    Ok(StateSpaceResult {
        chb,
        overlap,
        states: graph.nodes.len(),
        completable_states,
        deadlock_reachable,
        approx_heap_bytes: graph.approx_bytes(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FeasibilityMode;
    use crate::statespace::explore_statespace_budgeted;
    use eo_model::fixtures;

    fn capped(max_states: usize) -> Budget {
        Budget::unlimited().with_max_states(max_states)
    }

    fn both(trace: &eo_model::Trace) -> (StateSpaceResult, StateSpaceResult) {
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let seq = explore_statespace_budgeted(&ctx, &capped(1 << 20)).unwrap();
        let par = explore_statespace_parallel_budgeted(&ctx, &capped(1 << 20), 4).unwrap();
        (seq, par)
    }

    fn assert_same(seq: &StateSpaceResult, par: &StateSpaceResult) {
        assert_eq!(seq.chb, par.chb);
        assert_eq!(seq.overlap, par.overlap);
        assert_eq!(seq.states, par.states);
        assert_eq!(seq.completable_states, par.completable_states);
        assert_eq!(seq.deadlock_reachable, par.deadlock_reachable);
    }

    #[test]
    fn parallel_matches_sequential_on_fixtures() {
        for trace in [
            fixtures::independent_pair().0,
            fixtures::sem_handshake().0,
            fixtures::fork_join_diamond().0,
            fixtures::figure1().0,
            fixtures::post_wait_clear_chain().0,
            fixtures::crossing().0,
        ] {
            let (seq, par) = both(&trace);
            assert_same(&seq, &par);
        }
    }

    #[test]
    fn parallel_matches_on_a_generated_workload() {
        use eo_lang::generator::{generate_trace, WorkloadSpec};
        let mut spec = WorkloadSpec::small_semaphore(5);
        spec.processes = 4;
        spec.events_per_process = 4;
        let exec = generate_trace(&spec, 50).to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let seq = explore_statespace_budgeted(&ctx, &capped(1 << 22)).unwrap();
        let par = explore_statespace_parallel_budgeted(&ctx, &capped(1 << 22), 3).unwrap();
        assert_same(&seq, &par);
    }

    #[test]
    fn zero_threads_means_auto() {
        let (trace, _) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let auto = explore_statespace_parallel_budgeted(&ctx, &capped(1 << 20), 0).unwrap();
        let seq = explore_statespace_budgeted(&ctx, &capped(1 << 20)).unwrap();
        assert_eq!(auto.chb, seq.chb);
    }

    #[test]
    fn state_budget_is_enforced() {
        let (trace, _) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        assert!(matches!(
            explore_statespace_parallel_budgeted(&ctx, &capped(3), 2),
            Err(EngineError::StateSpaceExceeded { limit: 3 })
        ));
    }
}
