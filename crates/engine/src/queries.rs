//! Targeted witness queries with early exit.
//!
//! Deciding a *single* relation instance (e.g. "could `b` have happened
//! before `a`?" — the NP-hard question of Theorem 2) does not require
//! materializing all of F(P): a depth-first search over the cut lattice
//! can stop at the first witness. These queries power the theorem
//! benchmarks and give the engine its decision-procedure face:
//! satisfiability of the reduced formula is literally read off
//! [`QuerySession::try_witness_before`]'s answer.
//!
//! ## Sessions and memos
//!
//! All state is held in a [`QueryMemo`]: states are interned into the
//! same [`StateTable`] arena the explorers use, so the memo tables are
//! indexed by dense [`StateId`]s instead of hashing full states per probe.
//! Two memo lifetimes coexist:
//!
//! * the **dead** set ("no complete schedule is reachable from here") is a
//!   property of the state alone — independent of which pair a query asks
//!   about — so it persists for the life of the memo and accelerates
//!   every later query;
//! * **visited** sets are per-query (a state pruned while hunting one pair
//!   may matter for another), implemented as an epoch stamp per arena slot
//!   so starting a query is O(1), not O(states).
//!
//! A [`QueryMemo`] does not borrow the [`SearchCtx`] it searches — every
//! query method takes the context as a parameter — so long-lived callers
//! (the serving layer's sessions) can own both side by side. The
//! borrowing [`QuerySession`] wrapper pairs a memo with one context for
//! the common scoped-use case.
//!
//! Race detection asks about *many* pairs of one execution; routing them
//! through one memo turns the per-pair searches from cold starts into
//! incremental probes of a shared lattice. One-shot callers go through
//! [`ExactEngine`](crate::ExactEngine)'s point queries, which wrap a
//! throwaway session.
//!
//! All searches are explicit-stack (no recursion — adversarial inputs make
//! the lattice deep) and build their witness schedules front-to-back, so a
//! witness costs O(length), not O(length²).

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use crate::statetable::{StateId, StateTable};
use eo_model::{EventId, MachState, ProcessId};

/// One DFS stack frame: an interned state plus its co-enabled list (a
/// buffer recycled through the session pool) and a cursor into it.
struct Frame {
    id: StateId,
    enabled: Vec<(ProcessId, EventId)>,
    k: usize,
}

/// Reusable witness-query state for one execution: the interned state
/// arena, the persistent dead-state memo, the per-query visited stamps,
/// and the scratch-buffer pool. See the module docs for why the memo
/// lifetimes differ.
///
/// A memo is built *from* a [`SearchCtx`] but does not borrow it; every
/// query takes the context as a parameter. Passing a context other than
/// the one the memo was opened for (same execution, same mode) is a logic
/// error: the interned states and dead-set would describe a different
/// lattice and the answers would be garbage.
pub struct QueryMemo {
    table: StateTable,
    root: StateId,
    /// `dead[id]` ⇔ no complete schedule is reachable from `id`.
    /// Query-independent, hence persistent.
    dead: Vec<bool>,
    /// `stamp[id] == epoch` ⇔ `id` was visited by the current query.
    stamp: Vec<u32>,
    epoch: u32,
    /// Recycled co-enabled buffers for DFS frames.
    pool: Vec<Vec<(ProcessId, EventId)>>,
    /// Scratch for completion tails probed (and discarded) by overlap
    /// checks.
    tail: Vec<EventId>,
    /// The one state that walks every lattice edge: `clone_from` reuses
    /// its buffers, so stepping allocates only when a fresh state must be
    /// interned.
    scratch: MachState,
    /// Supervisor budget, checked once per DFS step (an unlimited budget
    /// makes every check one relaxed atomic load).
    budget: Budget,
    /// Approximate bytes each interned state costs (for the memory
    /// budget): the state itself plus the parallel memo slots.
    per_state: usize,
}

impl QueryMemo {
    /// Opens a memo over `ctx`'s execution with the initial state interned
    /// and no budget constraints.
    pub fn new(ctx: &SearchCtx<'_>) -> Self {
        QueryMemo::with_budget(ctx, Budget::unlimited())
    }

    /// Opens a memo whose queries obey `budget`: the `try_*` query
    /// variants check it once per DFS step and surface the first
    /// exhausted resource as an [`EngineError`].
    pub fn with_budget(ctx: &SearchCtx<'_>, budget: Budget) -> Self {
        let mut table = StateTable::new();
        let (root, _) = table.intern(ctx.initial_state());
        let per_state = std::mem::size_of::<MachState>() + ctx.initial_state().heap_bytes() + 8;
        QueryMemo {
            table,
            root,
            dead: vec![false],
            stamp: vec![0],
            epoch: 0,
            pool: Vec::new(),
            tail: Vec::new(),
            scratch: ctx.initial_state(),
            budget,
            per_state,
        }
    }

    /// Replaces the budget later queries run under. The interned arena
    /// and dead-set memo are kept — they are budget-independent facts.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// One budget checkpoint: the interned-state count doubles as both the
    /// state-cap measure and the basis of the storage estimate.
    #[inline]
    fn checkpoint(&self) -> Result<(), EngineError> {
        self.budget.check_states(self.table.len())?;
        self.budget.check(self.table.len() * self.per_state)
    }

    /// Number of distinct states interned so far — grows monotonically as
    /// queries explore; a rough measure of how much lattice the memo has
    /// had to touch.
    #[inline]
    pub fn interned_states(&self) -> usize {
        self.table.len()
    }

    /// Fires `p`'s next event out of state `id` (into the scratch state —
    /// no allocation) and interns the result, growing the parallel memo
    /// arrays on a fresh insert.
    fn step_and_intern(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        p: ProcessId,
        e: EventId,
    ) -> StateId {
        let Self {
            table,
            scratch,
            dead,
            stamp,
            ..
        } = self;
        scratch.clone_from(table.get(id));
        let mut fp = table.fingerprint(id);
        ctx.apply_keyed(scratch, p, e, &mut fp);
        let (cid, fresh) = table.intern_ref_keyed(scratch, fp);
        if fresh {
            dead.push(false);
            stamp.push(0);
        }
        cid
    }

    /// Starts a query: bumps the epoch (recycling stamps on the
    /// astronomically-unlikely wrap) and returns it.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.epoch = 0;
            self.stamp.fill(0);
        }
        self.epoch += 1;
        self.epoch
    }

    /// A DFS frame for `id`, its enabled buffer drawn from the pool.
    fn frame(&mut self, ctx: &SearchCtx<'_>, id: StateId) -> Frame {
        let mut enabled = self.pool.pop().unwrap_or_default();
        ctx.co_enabled_into(self.table.get(id), &mut enabled);
        Frame { id, enabled, k: 0 }
    }

    /// Appends to `out` a complete feasible schedule from `start` onward,
    /// if one exists (returning whether it does; on failure `out` may hold
    /// a partial tail the caller must discard). Every state fully explored
    /// without success is marked dead — permanently, for all future
    /// queries. Errors at the first exhausted budget resource.
    fn try_complete_from(
        &mut self,
        ctx: &SearchCtx<'_>,
        start: StateId,
        out: &mut Vec<EventId>,
    ) -> Result<bool, EngineError> {
        if ctx.is_complete(self.table.get(start)) {
            return Ok(true);
        }
        if self.dead[start.index()] {
            return Ok(false);
        }
        let mut stack = vec![self.frame(ctx, start)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            if top.k >= top.enabled.len() {
                let f = stack.pop().expect("non-empty");
                self.dead[f.id.index()] = true;
                self.pool.push(f.enabled);
                if !stack.is_empty() {
                    out.pop(); // retract the edge that led here
                }
                continue;
            }
            let (p, e) = top.enabled[top.k];
            top.k += 1;
            let id = top.id;
            let cid = self.step_and_intern(ctx, id, p, e);
            if ctx.is_complete(self.table.get(cid)) {
                out.push(e);
                for f in stack.drain(..) {
                    self.pool.push(f.enabled);
                }
                return Ok(true);
            }
            if self.dead[cid.index()] {
                continue;
            }
            out.push(e);
            stack.push(self.frame(ctx, cid));
            // The lattice is a DAG (executed count strictly increases), so
            // a state can never sit on the stack twice; any state reached
            // again was fully explored already and is covered by `dead`.
        }
        Ok(false)
    }

    /// Searches for a complete feasible schedule in which `first` executes
    /// strictly before `second`, returning it as a witness. `Ok(None)`
    /// means no feasible execution orders them that way — i.e. `second`
    /// MHB `first` (when `first ≠ second`). Errors at the first exhausted
    /// budget resource.
    pub fn try_witness_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        // Per-query granularity: a counter event per query and the arena
        // growth it caused — never per DFS step, which is far too hot.
        eo_obs::counter!("query.witness_queries", 1);
        let interned_before = self.table.len();
        let result = self.witness_before_search(ctx, first, second);
        eo_obs::counter!(
            "query.states_interned",
            (self.table.len() - interned_before) as u64
        );
        result
    }

    fn witness_before_search(
        &mut self,
        ctx: &SearchCtx<'_>,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        assert_ne!(first, second, "witness_before needs two distinct events");
        let epoch = self.next_epoch();
        let mut prefix: Vec<EventId> = Vec::new();
        // The initial state has executed nothing, so it starts in the
        // neither-executed regime the stamp set covers.
        self.stamp[self.root.index()] = epoch;
        let root = self.root;
        let mut stack = vec![self.frame(ctx, root)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            if top.k >= top.enabled.len() {
                let f = stack.pop().expect("non-empty");
                self.pool.push(f.enabled);
                if !stack.is_empty() {
                    prefix.pop();
                }
                continue;
            }
            let (p, e) = top.enabled[top.k];
            top.k += 1;
            let id = top.id;
            let cid = self.step_and_intern(ctx, id, p, e);
            let machine = ctx.machine();
            let child = self.table.get(cid);
            let first_done = machine.executed(child, first);
            let second_done = machine.executed(child, second);
            if second_done && !first_done {
                continue; // this path already ordered them the wrong way
            }
            if first_done && !second_done {
                // Any completion now places `first` before `second`.
                prefix.push(e);
                let depth = prefix.len();
                if self.try_complete_from(ctx, cid, &mut prefix)? {
                    for f in stack.drain(..) {
                        self.pool.push(f.enabled);
                    }
                    return Ok(Some(prefix));
                }
                prefix.truncate(depth - 1);
                continue;
            }
            // Neither executed yet (both-done is unreachable: paths pass
            // through a one-done state first, handled above).
            if self.stamp[cid.index()] == epoch {
                continue;
            }
            self.stamp[cid.index()] = epoch;
            prefix.push(e);
            stack.push(self.frame(ctx, cid));
        }
        Ok(None)
    }

    /// Searches for a feasible execution in which `a` and `b` are
    /// simultaneously ready to execute (and running both keeps completion
    /// reachable). Returns the schedule prefix up to that state.
    ///
    /// This decides the operational could-be-concurrent relation;
    /// `Ok(None)` means the pair is must-ordered in the operational sense.
    /// Errors at the first exhausted budget resource.
    pub fn try_witness_overlap(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        eo_obs::counter!("query.witness_queries", 1);
        let interned_before = self.table.len();
        let result = self.witness_overlap_search(ctx, a, b);
        eo_obs::counter!(
            "query.states_interned",
            (self.table.len() - interned_before) as u64
        );
        result
    }

    fn witness_overlap_search(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        assert_ne!(a, b, "witness_overlap needs two distinct events");
        let epoch = self.next_epoch();
        let mut prefix: Vec<EventId> = Vec::new();
        self.stamp[self.root.index()] = epoch;
        let root = self.root;
        // Checkpoint before the root shortcut so an already-exhausted
        // budget (e.g. an external cancel) stops the query promptly even
        // when the witness would be found at the initial state.
        self.checkpoint()?;
        if self.try_pair_overlaps_at(ctx, root, a, b)? {
            return Ok(Some(prefix));
        }
        let mut stack = vec![self.frame(ctx, root)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            if top.k >= top.enabled.len() {
                let f = stack.pop().expect("non-empty");
                self.pool.push(f.enabled);
                if !stack.is_empty() {
                    prefix.pop();
                }
                continue;
            }
            let (p, e) = top.enabled[top.k];
            top.k += 1;
            let id = top.id;
            let cid = self.step_and_intern(ctx, id, p, e);
            let machine = ctx.machine();
            let child = self.table.get(cid);
            if machine.executed(child, a) || machine.executed(child, b) {
                continue; // overlap must be witnessed before either runs
            }
            if self.stamp[cid.index()] == epoch {
                continue;
            }
            self.stamp[cid.index()] = epoch;
            prefix.push(e);
            if self.try_pair_overlaps_at(ctx, cid, a, b)? {
                for f in stack.drain(..) {
                    self.pool.push(f.enabled);
                }
                return Ok(Some(prefix));
            }
            stack.push(self.frame(ctx, cid));
        }
        Ok(None)
    }

    /// Can `a` and `b` fire back-to-back (either order) from `id` and
    /// leave completion reachable?
    fn try_pair_overlaps_at(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(self.try_both_fire_completably(ctx, id, a, b)?
            || self.try_both_fire_completably(ctx, id, b, a)?)
    }

    fn try_both_fire_completably(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        x: EventId,
        y: EventId,
    ) -> Result<bool, EngineError> {
        let mut enabled = self.pool.pop().unwrap_or_default();
        // Scope the split borrows: step x then y through the scratch
        // state, interning only the final both-fired state.
        let landed = {
            let Self {
                table,
                scratch,
                dead,
                stamp,
                ..
            } = self;
            ctx.co_enabled_into(table.get(id), &mut enabled);
            let px = enabled.iter().find(|&&(_, ev)| ev == x).map(|&(p, _)| p);
            let py = enabled.iter().find(|&&(_, ev)| ev == y).map(|&(p, _)| p);
            match (px, py) {
                (Some(px), Some(py)) => {
                    scratch.clone_from(table.get(id));
                    let mut fp = table.fingerprint(id);
                    ctx.step_keyed(scratch, px, &mut fp);
                    ctx.co_enabled_into(scratch, &mut enabled); // buffer reuse
                    if enabled.iter().any(|&(p, _)| p == py) {
                        ctx.step_keyed(scratch, py, &mut fp);
                        let (cid, fresh) = table.intern_ref_keyed(scratch, fp);
                        if fresh {
                            dead.push(false);
                            stamp.push(0);
                        }
                        Some(cid)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        };
        self.pool.push(enabled);
        match landed {
            Some(cid) => {
                let mut tail = std::mem::take(&mut self.tail);
                tail.clear();
                let ok = self.try_complete_from(ctx, cid, &mut tail);
                self.tail = tail;
                ok
            }
            None => Ok(false),
        }
    }

    /// Decides `a MHB b` by witness search: true iff **no** feasible
    /// schedule runs `b` before `a`. Errors at the first exhausted budget
    /// resource.
    pub fn try_must_happen_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_before(ctx, b, a)?.is_none())
    }

    /// Decides `a CHB b` by witness search: true iff some feasible
    /// schedule runs `a` before `b`. Errors at the first exhausted budget
    /// resource.
    pub fn try_could_happen_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_before(ctx, a, b)?.is_some())
    }

    /// Decides operational `a CCW b` by witness search. Errors at the
    /// first exhausted budget resource.
    pub fn try_could_be_concurrent(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_overlap(ctx, a, b)?.is_some())
    }
}

/// Reusable witness-query state bound to one [`SearchCtx`]: a
/// [`QueryMemo`] paired with the context it searches, for scoped use
/// where threading the context through every call is noise.
pub struct QuerySession<'c, 'e> {
    ctx: &'c SearchCtx<'e>,
    memo: QueryMemo,
}

impl<'c, 'e> QuerySession<'c, 'e> {
    /// Opens a session over `ctx` with the initial state interned and no
    /// budget constraints.
    pub fn new(ctx: &'c SearchCtx<'e>) -> Self {
        QuerySession::with_budget(ctx, Budget::unlimited())
    }

    /// Opens a session whose queries obey `budget`: the `try_*` query
    /// variants check it once per DFS step and surface the first
    /// exhausted resource as an [`EngineError`].
    pub fn with_budget(ctx: &'c SearchCtx<'e>, budget: Budget) -> Self {
        QuerySession {
            ctx,
            memo: QueryMemo::with_budget(ctx, budget),
        }
    }

    /// The context this session searches.
    #[inline]
    pub fn ctx(&self) -> &'c SearchCtx<'e> {
        self.ctx
    }

    /// The underlying context-free memo (to move into a longer-lived
    /// owner once the scoped borrow ends).
    pub fn into_memo(self) -> QueryMemo {
        self.memo
    }

    /// Number of distinct states interned so far — grows monotonically as
    /// queries explore; a rough measure of how much lattice the session
    /// has had to touch.
    #[inline]
    pub fn interned_states(&self) -> usize {
        self.memo.interned_states()
    }

    /// Searches for a complete feasible schedule in which `first` executes
    /// strictly before `second`, returning it as a witness. `Ok(None)`
    /// means no feasible execution orders them that way — i.e. `second`
    /// MHB `first` (when `first ≠ second`). Errors at the first exhausted
    /// budget resource.
    pub fn try_witness_before(
        &mut self,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        self.memo.try_witness_before(self.ctx, first, second)
    }

    /// Searches for a feasible execution in which `a` and `b` are
    /// simultaneously ready to execute (and running both keeps completion
    /// reachable). Returns the schedule prefix up to that state.
    ///
    /// This decides the operational could-be-concurrent relation;
    /// `Ok(None)` means the pair is must-ordered in the operational sense.
    /// Errors at the first exhausted budget resource.
    pub fn try_witness_overlap(
        &mut self,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        self.memo.try_witness_overlap(self.ctx, a, b)
    }

    /// Decides `a MHB b` by witness search: true iff **no** feasible
    /// schedule runs `b` before `a`. Errors at the first exhausted budget
    /// resource.
    pub fn try_must_happen_before(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        self.memo.try_must_happen_before(self.ctx, a, b)
    }

    /// Decides `a CHB b` by witness search: true iff some feasible
    /// schedule runs `a` before `b`. Errors at the first exhausted budget
    /// resource.
    pub fn try_could_happen_before(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        self.memo.try_could_happen_before(self.ctx, a, b)
    }

    /// Decides operational `a CCW b` by witness search. Errors at the
    /// first exhausted budget resource.
    pub fn try_could_be_concurrent(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        self.memo.try_could_be_concurrent(self.ctx, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FeasibilityMode;
    use crate::statespace::explore_statespace_budgeted;
    use eo_model::fixtures;

    fn ctx_of(exec: &eo_model::ProgramExecution) -> SearchCtx<'_> {
        SearchCtx::new(exec, FeasibilityMode::PreserveDependences)
    }

    /// A throwaway session: every query through it starts cold.
    fn one_shot<'c, 'e>(ctx: &'c SearchCtx<'e>) -> QuerySession<'c, 'e> {
        QuerySession::new(ctx)
    }

    #[test]
    fn witness_is_a_valid_schedule() {
        let (trace, a, b) = fixtures::independent_pair();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let w = one_shot(&ctx)
            .try_witness_before(b, a)
            .unwrap()
            .expect("b can go first");
        assert_eq!(w.len(), exec.n_events());
        assert!(ctx.machine().replay(&w).is_ok(), "witness replays cleanly");
        let pos = |e: EventId| w.iter().position(|&x| x == e).unwrap();
        assert!(pos(b) < pos(a));
    }

    #[test]
    fn handshake_mhb_via_witness() {
        let (trace, ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        assert!(one_shot(&ctx).try_must_happen_before(ids.v, ids.p).unwrap());
        assert!(!one_shot(&ctx)
            .try_must_happen_before(ids.after_v, ids.after_p)
            .unwrap());
        assert!(one_shot(&ctx)
            .try_could_happen_before(ids.after_p, ids.after_v)
            .unwrap());
    }

    #[test]
    fn figure1_mhb_via_witness() {
        let (trace, ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        assert!(one_shot(&ctx)
            .try_must_happen_before(ids.post_left, ids.post_right)
            .unwrap());
        assert!(one_shot(&ctx)
            .try_witness_before(ids.post_right, ids.post_left)
            .unwrap()
            .is_none());
    }

    #[test]
    fn overlap_witness_prefix_replays() {
        let (trace, ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let prefix = one_shot(&ctx)
            .try_witness_overlap(ids.left, ids.right)
            .unwrap()
            .expect("workers overlap");
        // The prefix must be a valid partial schedule: replay it step by
        // step on the machine.
        let mut st = ctx.initial_state();
        for &e in &prefix {
            let p = exec.event(e).process;
            assert!(ctx.co_enabled(&st).iter().any(|&(_, ev)| ev == e));
            ctx.step(&mut st, p);
        }
        // At the witness state both events are co-enabled.
        let enabled: Vec<EventId> = ctx.co_enabled(&st).iter().map(|&(_, e)| e).collect();
        assert!(enabled.contains(&ids.left) && enabled.contains(&ids.right));
    }

    #[test]
    fn no_overlap_for_forced_pairs() {
        let (trace, ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        assert!(!one_shot(&ctx)
            .try_could_be_concurrent(ids.v, ids.p)
            .unwrap());
        assert!(one_shot(&ctx)
            .try_could_be_concurrent(ids.after_v, ids.after_p)
            .unwrap());
    }

    #[test]
    fn queries_agree_with_statespace_on_fixtures() {
        for (trace, _x, _y) in [
            fixtures::independent_pair(),
            fixtures::shared_counter_race(),
        ] {
            let exec = trace.to_execution().unwrap();
            let ctx = ctx_of(&exec);
            let space = explore_statespace_budgeted(&ctx, &Budget::unlimited()).unwrap();
            let n = exec.n_events();
            // One shared session across every pair: the persistent dead
            // memo and the per-query stamps must not bleed answers between
            // queries.
            let mut session = QuerySession::new(&ctx);
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let (ea, eb) = (EventId::new(a), EventId::new(b));
                    assert_eq!(
                        session.try_could_happen_before(ea, eb).unwrap(),
                        space.chb.contains(a, b),
                        "chb({a},{b})"
                    );
                    assert_eq!(
                        one_shot(&ctx).try_could_happen_before(ea, eb).unwrap(),
                        space.chb.contains(a, b),
                        "one-shot chb({a},{b})"
                    );
                    assert_eq!(
                        session.try_could_be_concurrent(ea, eb).unwrap(),
                        space.overlap.contains(a, b),
                        "overlap({a},{b})"
                    );
                    assert_eq!(
                        one_shot(&ctx).try_could_be_concurrent(ea, eb).unwrap(),
                        space.overlap.contains(a, b),
                        "one-shot overlap({a},{b})"
                    );
                }
            }
            assert!(session.interned_states() <= space.states);
        }
    }

    #[test]
    fn session_reuse_matches_one_shot_witnesses() {
        let (trace, ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut session = QuerySession::new(&ctx);
        let n = exec.n_events();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                assert_eq!(
                    session.try_witness_before(ea, eb).unwrap(),
                    one_shot(&ctx).try_witness_before(ea, eb).unwrap(),
                    "witness_before({a},{b}) must not depend on session history"
                );
                assert_eq!(
                    session.try_witness_overlap(ea, eb).unwrap(),
                    one_shot(&ctx).try_witness_overlap(ea, eb).unwrap(),
                    "witness_overlap({a},{b}) must not depend on session history"
                );
            }
        }
        let _ = ids;
    }

    #[test]
    fn detached_memo_survives_its_session() {
        // The serve layer's pattern: open a scoped session, run a query,
        // detach the memo, rebuild a context later, and keep querying —
        // the dead-set must carry over (interned count must not reset).
        let (trace, ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut session = QuerySession::new(&ctx);
        let w1 = session
            .try_witness_before(ids.post_left, ids.post_right)
            .unwrap();
        let after_first = session.interned_states();
        let mut memo = session.into_memo();
        let ctx2 = ctx_of(&exec);
        let w2 = memo
            .try_witness_before(&ctx2, ids.post_left, ids.post_right)
            .unwrap();
        assert_eq!(w1, w2, "same query, same answer through the detached memo");
        assert!(memo.interned_states() >= after_first);
        assert_eq!(
            memo.try_must_happen_before(&ctx2, ids.post_left, ids.post_right)
                .unwrap(),
            one_shot(&ctx)
                .try_must_happen_before(ids.post_left, ids.post_right)
                .unwrap()
        );
    }

    #[test]
    fn clear_deadlock_paths_do_not_fool_witness_search() {
        let (trace, ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let post1 = ids[0];
        let wait1 = ids[1];
        // Running the wait before its post is impossible in a *complete*
        // execution.
        assert!(one_shot(&ctx).try_must_happen_before(post1, wait1).unwrap());
    }
}
