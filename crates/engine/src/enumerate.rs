//! Enumeration of the feasible-execution set F(P).
//!
//! Every complete feasible schedule induces a partial order →T′; the set
//! of *distinct* induced orders is the paper's F(P). The search that
//! discovers them quotients schedules by the trace equivalence an
//! [`EquivStrategy`] names:
//!
//! * [`EquivStrategy::Mazurkiewicz`] — depth-first search over schedules
//!   pruned with **sleep sets** (Godefroid): after exploring event `e`
//!   from a state, `e` is put to sleep for the sibling branches and stays
//!   asleep along them until a statically *dependent* event executes.
//!   Schedules that differ only by commuting independent events are
//!   explored once. The static dependence used
//!   ([`SearchCtx::statically_dependent`]) also fixes the order of all
//!   same-semaphore and same-event-variable operations within a class, so
//!   the canonical induced-order extraction of [`eo_model::induce`] is
//!   class-invariant.
//! * [`EquivStrategy::NormalForm`] — memoized quotient-graph DFS: a
//!   prefix is extended only if it is the first (least, children in
//!   event-index order) path to reach its canonical node — the
//!   future-relevant synchronization state of [`crate::equiv::ScanState`]
//!   combined with the raw pairing history. It never uses sleep sets:
//!   memoization plus history-dependent pruning is unsound, so canonical
//!   search explores every enabled event at each *fresh* node and prunes
//!   only exact revisits.
//! * [`enumerate_naive`] — the same search with no pruning: every
//!   interleaving. Used as the ground-truth oracle in tests and as the
//!   ablation baseline (DESIGN.md §5); both strategies must produce the
//!   same set of induced orders.
//!
//! All variants deduplicate induced orders — by 128-bit matrix
//! fingerprint ([`eo_relations::Relation::fingerprint128`]), with the
//! full matrices retained as a collision oracle under
//! `debug_assertions` — so the result is F(P) itself (up to the
//! documented canonical extraction), not a multiset of schedules.
//!
//! # Hot path
//!
//! All variants run one DFS (`Enumerator::explore`) that allocates
//! nothing in steady state:
//!
//! * the base edges (program order, fork/join, effective →D) are built
//!   once per enumeration;
//! * every step drives [`ScanState::apply`]/[`ScanState::undo`], so the
//!   pairing edges of the current path sit on one edge stack;
//! * a complete schedule's order is closed from base ∪ pairing edges into
//!   one reused scratch relation by a single reverse sweep over the
//!   schedule ([`closure::close_along_topological_order`]) — the schedule
//!   is a topological order of every edge it induces, so no Kahn pass is
//!   needed. The scratch is fingerprinted and cloned only when its order
//!   is new;
//! * machine states and sleep sets live in per-depth buffers overwritten
//!   with `clone_from`.
//!
//! Debug builds check every recorded order against
//! [`SearchCtx::induced_order`] (the reference extraction of
//! [`eo_model::induce`]); `tests/differential.rs` checks the same in
//! release builds.

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use crate::equiv::{combine_key, EquivStrategy, ScanState, ScanUndo};
use eo_model::{EventId, MachState, ProcessId};
use eo_relations::fxhash::FxHashSet;
use eo_relations::{closure, BitSet, Relation};

/// The outcome of enumerating F(P).
#[derive(Clone, Debug)]
pub struct EnumerationResult {
    /// The distinct induced partial orders — the elements of F(P).
    pub orders: Vec<Relation>,
    /// Complete schedules visited (≥ `orders.len()`; equality means the
    /// pruning was perfect for this input). Under normal-form this counts
    /// distinct complete canonical nodes — each is reached exactly once.
    pub schedules_explored: usize,
    /// True iff the search stopped at the schedule budget; the relation
    /// summary refuses to quantify over a truncated set.
    pub truncated: bool,
    /// The equivalence strategy that produced this result (the unpruned
    /// oracle reports [`EquivStrategy::Mazurkiewicz`]'s independence but
    /// no pruning; it is only reachable via [`enumerate_naive`]).
    pub strategy: EquivStrategy,
    /// Branches the strategy pruned: sleep-set skips (Mazurkiewicz) or
    /// canonical-prefix memo hits (normal-form). The
    /// `enumerate.sleep_prunes` metric.
    pub pruned_branches: usize,
}

/// Dedup store for recorded orders: 128-bit fingerprints, with the full
/// matrices kept as a collision oracle in debug builds only (the
/// satellite that cuts enumeration peak memory roughly in half).
struct SeenOrders {
    fps: FxHashSet<u128>,
    #[cfg(debug_assertions)]
    full: FxHashSet<Relation>,
}

impl SeenOrders {
    fn new() -> Self {
        SeenOrders {
            fps: FxHashSet::default(),
            #[cfg(debug_assertions)]
            full: FxHashSet::default(),
        }
    }

    fn insert(&mut self, order: &Relation) -> bool {
        let fresh = self.fps.insert(order.fingerprint128());
        #[cfg(debug_assertions)]
        {
            let full_fresh = self.full.insert(order.clone());
            assert_eq!(
                fresh, full_fresh,
                "128-bit relation fingerprint collided with a distinct matrix"
            );
        }
        fresh
    }
}

struct Enumerator<'c, 'a> {
    ctx: &'c SearchCtx<'a>,
    max_schedules: usize,
    use_sleep: bool,
    /// Memoized canonical search (normal-form) instead of the plain
    /// schedule DFS.
    canonical: bool,
    schedule: Vec<EventId>,
    seen: SeenOrders,
    orders: Vec<Relation>,
    schedules_explored: usize,
    truncated: bool,
    pruned_branches: usize,
    /// Supervisor budget, checked once per DFS step (its schedule cap is
    /// `max_schedules`).
    budget: &'c Budget,
    /// First budget failure; once set the search unwinds without
    /// recording anything further.
    stopped: Option<EngineError>,
    /// Approximate bytes one recorded order costs (matrix + fingerprint),
    /// for the memory budget.
    order_bytes: usize,
    /// Recycled co-enabled buffers, one per active recursion depth — the
    /// search allocates no per-state vectors in steady state.
    enabled_pool: Vec<Vec<(ProcessId, EventId)>>,
    /// Machine state at each depth of the current path: `states[d]` is
    /// the state after `schedule[..d]`. A child overwrites `states[d + 1]`
    /// by `clone_from` + step, so the DFS allocates no states.
    states: Vec<MachState>,
    /// Sleep set at each depth (sleep-set search only): entered as the
    /// parent's set filtered by the executed event, then grown with each
    /// explored sibling.
    sleeps: Vec<BitSet>,
    /// Incremental induced-edge scan mirrored along the DFS path.
    scan: ScanState,
    /// Pairing edges emitted along the current path (a stack; each depth
    /// remembers its start index). At a complete schedule these plus
    /// `base` are exactly the schedule's induced edges.
    edge_stack: Vec<(EventId, EventId)>,
    /// The schedule-independent edges (program order, fork/join, the
    /// effective →D), built once per enumeration.
    base: Relation,
    /// Scratch relation each complete schedule's order is closed into.
    leaf: Relation,
    /// Scratch row for the leaf closure.
    row_scratch: BitSet,
    /// Canonical nodes already fully explored (or currently on the DFS
    /// path, which cannot recur — progress strictly increases). Used iff
    /// `canonical`.
    visited: FxHashSet<u128>,
}

impl Enumerator<'_, '_> {
    fn record(&mut self) {
        // Truncation means "there was more to record than the budget
        // allowed": trip it only when an (N+1)-th schedule shows up, so an
        // enumeration that finishes at exactly the budget is complete.
        if self.schedules_explored >= self.max_schedules {
            self.truncated = true;
            return;
        }
        self.schedules_explored += 1;
        // The schedule is a topological order of every edge it induces, so
        // one reverse sweep over it closes base ∪ pairing edges — no Kahn
        // pass, no allocation.
        self.leaf.clone_from(&self.base);
        for &(a, b) in &self.edge_stack {
            self.leaf.insert(a.index(), b.index());
        }
        closure::close_along_topological_order(
            &mut self.leaf,
            self.schedule.iter().map(|e| e.index()),
            &mut self.row_scratch,
        );
        debug_assert_eq!(
            self.leaf,
            self.ctx.induced_order(&self.schedule),
            "incrementally induced order diverged from the induce scan"
        );
        // Fingerprint the scratch; clone it only when the order is new.
        if self.seen.insert(&self.leaf) {
            self.orders.push(self.leaf.clone());
        }
    }

    fn heap_estimate(&self) -> usize {
        let memo = self.visited.len() * 2 * std::mem::size_of::<u128>();
        self.orders.len() * self.order_bytes + memo
    }

    /// The schedule DFS behind every strategy, at `depth` =
    /// `schedule.len()` with state `states[depth]`.
    ///
    /// * Sleep-set search (Mazurkiewicz): after exploring `e`, `e` sleeps
    ///   for the later siblings, and stays asleep below them until a
    ///   statically dependent event executes.
    /// * Canonical search (normal-form): no sleep sets (unsound
    ///   under memoization); instead, a node reached a second time — same
    ///   future-relevant machine/scan state and same ordering content — is
    ///   pruned wholesale. Children are tried in event-index order, so
    ///   the surviving representative of every canonical node is the
    ///   lexicographically least path to it.
    /// * The naive oracle prunes nothing.
    fn explore(&mut self, depth: usize) {
        if self.truncated || self.stopped.is_some() {
            return;
        }
        if let Err(e) = self.budget.check(self.heap_estimate()) {
            self.stopped = Some(e);
            return;
        }
        if self.canonical {
            let key = combine_key(
                self.scan.state_key(&self.states[depth]),
                self.scan.edge_hash(),
            );
            if !self.visited.insert(key) {
                self.pruned_branches += 1;
                return;
            }
        }
        if self.ctx.is_complete(&self.states[depth]) {
            self.record();
            return;
        }
        let mut enabled = self.enabled_pool.pop().unwrap_or_default();
        self.ctx.co_enabled_into(&self.states[depth], &mut enabled);
        for &(p, e) in &enabled {
            if self.use_sleep {
                if self.sleeps[depth].contains(e.index()) {
                    self.pruned_branches += 1;
                    continue;
                }
                // Events stay asleep only while independent of what
                // executes.
                let (here, below) = self.sleeps.split_at_mut(depth + 1);
                let child = &mut below[0];
                child.clear();
                for s in here[depth].iter() {
                    if !self.ctx.statically_dependent(EventId::new(s), e) {
                        child.insert(s);
                    }
                }
            }
            let (mark, undo) = self.push_step(depth, p, e);
            self.explore(depth + 1);
            self.pop_step(mark, undo);
            if self.truncated || self.stopped.is_some() {
                break;
            }
            if self.use_sleep {
                self.sleeps[depth].insert(e.index());
            }
        }
        self.enabled_pool.push(enabled);
    }

    /// Extends the path at `depth` by `p`'s next event `e`: the machine
    /// state and pairing edges of depth `depth + 1`, and the schedule.
    /// Returns what [`Enumerator::pop_step`] needs to undo it.
    fn push_step(&mut self, depth: usize, p: ProcessId, e: EventId) -> (usize, ScanUndo) {
        let (here, below) = self.states.split_at_mut(depth + 1);
        below[0].clone_from(&here[depth]);
        self.ctx.step(&mut below[0], p);
        let mark = self.edge_stack.len();
        let undo = self
            .scan
            .apply(self.ctx.exec().trace(), e, &mut self.edge_stack);
        self.schedule.push(e);
        (mark, undo)
    }

    /// Undoes the matching [`Enumerator::push_step`].
    fn pop_step(&mut self, mark: usize, undo: ScanUndo) {
        self.schedule.pop();
        self.scan.undo(undo, &self.edge_stack[mark..]);
        self.edge_stack.truncate(mark);
    }
}

/// Internal search configuration: which pruning the DFS runs with.
#[derive(Clone, Copy)]
struct SearchConfig {
    strategy: EquivStrategy,
    /// `false` only for the naive oracle.
    prune: bool,
}

fn run(
    ctx: &SearchCtx<'_>,
    config: SearchConfig,
    budget: &Budget,
) -> (EnumerationResult, Option<EngineError>) {
    let n = ctx.n_events();
    eo_obs::span!("engine.enumerate");
    // Sleep sets and canonical memoization never combine (unsound, see
    // `crate::equiv`); the naive oracle uses neither.
    let canonical = config.prune && config.strategy == EquivStrategy::NormalForm;
    let use_sleep = config.prune && config.strategy == EquivStrategy::Mazurkiewicz;
    let trace = ctx.exec().trace();
    let mut en = Enumerator {
        ctx,
        max_schedules: budget.max_schedules().unwrap_or(usize::MAX),
        use_sleep,
        canonical,
        schedule: Vec::with_capacity(n),
        seen: SeenOrders::new(),
        orders: Vec::new(),
        schedules_explored: 0,
        truncated: false,
        pruned_branches: 0,
        budget,
        stopped: None,
        // One Relation plus its 128-bit fingerprint per recorded order; a
        // closed n×n bit matrix plus container overhead.
        order_bytes: (n * n).div_ceil(8) + 64 + 2 * std::mem::size_of::<u128>(),
        enabled_pool: Vec::new(),
        states: vec![ctx.initial_state(); n + 1],
        sleeps: if use_sleep {
            vec![BitSet::new(n); n + 1]
        } else {
            Vec::new()
        },
        scan: ScanState::new(trace),
        edge_stack: Vec::new(),
        leaf: Relation::new(n),
        base: eo_model::induce::base_edges(trace, &ctx.effective_d()),
        row_scratch: BitSet::new(n),
        visited: FxHashSet::default(),
    };
    en.explore(0);
    // Once per enumeration, never per DFS step: the ≤2% overhead budget
    // rules out probes inside the search itself.
    eo_obs::counter!("engine.schedules", en.schedules_explored as u64);
    eo_obs::counter!("enum.orders", en.orders.len() as u64);
    if eo_obs::recording() {
        eo_obs::counter!("enumerate.classes", en.orders.len() as u64);
        eo_obs::counter!("enumerate.schedules", en.schedules_explored as u64);
        eo_obs::counter!("enumerate.sleep_prunes", en.pruned_branches as u64);
        let redundancy = if en.orders.is_empty() {
            0.0
        } else {
            en.schedules_explored as f64 / en.orders.len() as f64
        };
        eo_obs::gauge_f64("enumerate.redundancy_ratio", redundancy);
        eo_obs::gauge_str("enumerate.strategy", config.strategy.label());
    }
    (
        EnumerationResult {
            orders: en.orders,
            schedules_explored: en.schedules_explored,
            truncated: en.truncated,
            strategy: config.strategy,
            pruned_branches: en.pruned_branches,
        },
        en.stopped,
    )
}

/// Pruned enumeration under the default (Mazurkiewicz sleep-set)
/// strategy: visits (roughly) one schedule per Mazurkiewicz class.
pub fn enumerate_classes(ctx: &SearchCtx<'_>, max_schedules: usize) -> EnumerationResult {
    enumerate_classes_with(ctx, max_schedules, EquivStrategy::default())
}

/// Pruned enumeration under an explicit [`EquivStrategy`], capped at
/// `max_schedules` recorded schedules.
pub fn enumerate_classes_with(
    ctx: &SearchCtx<'_>,
    max_schedules: usize,
    strategy: EquivStrategy,
) -> EnumerationResult {
    let config = SearchConfig {
        strategy,
        prune: true,
    };
    run(ctx, config, &schedule_cap(max_schedules)).0
}

/// Unpruned enumeration of every interleaving — the oracle/ablation
/// variant. Factorially expensive; keep inputs tiny.
pub fn enumerate_naive(ctx: &SearchCtx<'_>, max_schedules: usize) -> EnumerationResult {
    let config = SearchConfig {
        strategy: EquivStrategy::Mazurkiewicz,
        prune: false,
    };
    run(ctx, config, &schedule_cap(max_schedules)).0
}

/// A budget whose only constraint is the schedule cap.
fn schedule_cap(max_schedules: usize) -> Budget {
    Budget::unlimited().with_max_schedules(max_schedules)
}

/// Pruned enumeration under a supervisor [`Budget`] and an explicit
/// [`EquivStrategy`]: the budget is checked once per DFS step, and the
/// schedule cap comes from the budget itself. The second component
/// reports why the search stopped early, if it did.
pub(crate) fn enumerate_classes_budgeted_with(
    ctx: &SearchCtx<'_>,
    budget: &Budget,
    strategy: EquivStrategy,
) -> (EnumerationResult, Option<EngineError>) {
    let config = SearchConfig {
        strategy,
        prune: true,
    };
    let (result, stopped) = run(ctx, config, budget);
    let stopped = stopped.or_else(|| {
        let limit = budget.max_schedules().unwrap_or(usize::MAX);
        result
            .truncated
            .then_some(EngineError::ScheduleBudgetExceeded { limit })
    });
    (result, stopped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FeasibilityMode;
    use eo_model::fixtures;

    fn sorted_orders(r: &EnumerationResult) -> Vec<Relation> {
        let mut v = r.orders.clone();
        v.sort_by_key(|r| r.pairs().collect::<Vec<_>>());
        v
    }

    fn classes(trace: &eo_model::Trace) -> EnumerationResult {
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let r = enumerate_classes(&ctx, 1 << 20);
        assert!(!r.truncated);
        // Cross-check against the unpruned oracle: identical F(P).
        let naive = enumerate_naive(&ctx, 1 << 20);
        assert_eq!(
            sorted_orders(&r),
            sorted_orders(&naive),
            "sleep-set pruning must not change F(P)"
        );
        assert!(r.schedules_explored <= naive.schedules_explored);
        // And the canonical strategy agrees too, visiting no more
        // schedules than the unpruned oracle.
        let coarse = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
        assert!(!coarse.truncated);
        assert_eq!(
            sorted_orders(&coarse),
            sorted_orders(&naive),
            "normal-form changed F(P)"
        );
        assert!(coarse.schedules_explored <= naive.schedules_explored);
        r
    }

    #[test]
    fn independent_pair_has_one_induced_order() {
        // Both schedules induce the same (empty) order: F(P) has a single
        // element in which the two events are concurrent.
        let (trace, a, b) = fixtures::independent_pair();
        let r = classes(&trace);
        assert_eq!(r.orders.len(), 1);
        assert!(r.orders[0].unordered(a.index(), b.index()));
        assert_eq!(
            r.schedules_explored, 1,
            "sleep sets visit the commuting pair once"
        );
    }

    #[test]
    fn handshake_has_one_class() {
        let (trace, ids) = fixtures::sem_handshake();
        let r = classes(&trace);
        assert_eq!(r.orders.len(), 1, "V→P is forced; the tails commute");
        assert!(r.orders[0].contains(ids.v.index(), ids.p.index()));
    }

    #[test]
    fn crossing_orders() {
        // V(s)/V(t) can be issued in either order, but with all
        // same-semaphore ops dependent each V is ordered only against its
        // own P; both schedules induce the same order.
        let (trace, a, b) = fixtures::crossing();
        let r = classes(&trace);
        assert!(!r.orders.is_empty());
        for o in &r.orders {
            assert!(
                o.unordered(a.index(), b.index()),
                "tails concurrent in all of F(P)"
            );
        }
    }

    #[test]
    fn figure1_posts_ordered_in_every_class() {
        let (trace, ids) = fixtures::figure1();
        let r = classes(&trace);
        for o in &r.orders {
            assert!(
                o.contains(ids.post_left.index(), ids.post_right.index()),
                "the data dependence forces the Posts in every feasible execution"
            );
        }
    }

    #[test]
    fn race_pair_single_order_with_dependences() {
        let (trace, inc0, inc1) = fixtures::shared_counter_race();
        let r = classes(&trace);
        assert_eq!(r.orders.len(), 1);
        assert!(r.orders[0].contains(inc0.index(), inc1.index()));

        // Ignoring dependences, nothing forces the increments: F collapses
        // to a single induced order in which the pair is unordered (the
        // race is visible as concurrency, not as two orderings).
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
        let relaxed = enumerate_classes(&ctx, 1 << 20);
        assert_eq!(relaxed.orders.len(), 1);
        assert!(relaxed.orders[0].unordered(inc0.index(), inc1.index()));
    }

    #[test]
    fn truncation_reports_only_when_something_was_cut() {
        let (trace, _ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        // Sleep sets explore exactly one schedule here: a budget of 1 is
        // sufficient and must NOT be reported as truncation.
        let pruned = enumerate_classes(&ctx, 1);
        assert!(!pruned.truncated, "complete-at-budget is not truncated");
        assert_eq!(pruned.schedules_explored, 1);
        // The naive enumerator wants 2 schedules: budget 1 really cuts.
        let naive = enumerate_naive(&ctx, 1);
        assert!(naive.truncated);
        assert_eq!(naive.schedules_explored, 1);
    }

    #[test]
    fn deadlocked_branches_contribute_nothing() {
        let (trace, ids) = fixtures::post_wait_clear_chain();
        let r = classes(&trace);
        // Every recorded order is a complete execution: wait1 after post1.
        for o in &r.orders {
            assert!(o.contains(ids[0].index(), ids[1].index()));
        }
    }

    #[test]
    fn sleep_sets_prune_diamond_substantially() {
        let (trace, _ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let pruned = enumerate_classes(&ctx, 1 << 20);
        let naive = enumerate_naive(&ctx, 1 << 20);
        assert!(pruned.schedules_explored < naive.schedules_explored);
        assert_eq!(pruned.orders.len(), naive.orders.len());
        assert!(pruned.pruned_branches > 0, "the skips are counted");
    }

    /// The headline property of the canonical strategy: on the fixture
    /// gallery it visits exactly one complete schedule per element of
    /// F(P) — `schedules_explored == orders.len()` — where sleep sets
    /// leave redundancy (post_wait_clear_chain: 18 Mazurkiewicz classes,
    /// 10 orders).
    #[test]
    fn canonical_strategies_reach_perfect_pruning_on_gallery() {
        let gallery: Vec<eo_model::Trace> = vec![
            fixtures::independent_pair().0,
            fixtures::sem_handshake().0,
            fixtures::fork_join_diamond().0,
            fixtures::crossing().0,
            fixtures::figure1().0,
            fixtures::post_wait_clear_chain().0,
            fixtures::shared_counter_race().0,
        ];
        for trace in &gallery {
            let exec = trace.to_execution().unwrap();
            let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
            let r = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
            assert!(!r.truncated);
            assert_eq!(r.schedules_explored, r.orders.len(), "imperfect pruning");
        }
    }

    #[test]
    fn canonical_strategies_beat_sleep_sets_on_pairing_redundancy() {
        // 18 sleep-set schedules vs 10 orders on post_wait_clear_chain;
        // the canonical search must close the gap entirely.
        let (trace, _ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let maz = enumerate_classes(&ctx, 1 << 20);
        assert_eq!(maz.schedules_explored, 18);
        assert_eq!(maz.orders.len(), 10);
        let r = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
        assert_eq!(r.schedules_explored, 10);
        assert_eq!(sorted_orders(&r), sorted_orders(&maz));
    }

    /// IgnoreDependences flips enabledness and the induced →D content;
    /// the strategies must agree there too.
    #[test]
    fn strategies_agree_in_ignore_mode() {
        for trace in [
            fixtures::figure1().0,
            fixtures::post_wait_clear_chain().0,
            fixtures::crossing().0,
        ] {
            let exec = trace.to_execution().unwrap();
            let ctx = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
            let base = enumerate_classes(&ctx, 1 << 20);
            let r = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
            assert_eq!(sorted_orders(&r), sorted_orders(&base));
            assert!(r.schedules_explored <= base.schedules_explored);
        }
    }

    /// A canonical search that hits the schedule cap reports truncation,
    /// exactly like the baseline.
    #[test]
    fn canonical_truncation_is_reported() {
        let (trace, _ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let r = enumerate_classes_with(&ctx, 3, EquivStrategy::NormalForm);
        assert!(r.truncated, "10 complete nodes > cap 3");
        assert_eq!(r.schedules_explored, 3);
        // Complete-at-cap is not truncation.
        let exact = enumerate_classes_with(&ctx, 10, EquivStrategy::NormalForm);
        assert!(!exact.truncated);
    }
}
