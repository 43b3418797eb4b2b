//! The six Table-1 relations, materialized.

use crate::enumerate::EnumerationResult;
use crate::statespace::StateSpaceResult;
use eo_model::EventId;
use eo_relations::Relation;

/// All six ordering relations of the paper's Table 1, computed exactly
/// over F(P).
///
/// | relation | method | reading |
/// |---|---|---|
/// | must-have-happened-before  | [`mhb`](Self::mhb)  | `a` precedes `b` in **every** feasible execution |
/// | could-have-happened-before | [`chb`](Self::chb)  | `a` precedes `b` in **some** feasible execution |
/// | must-be-concurrent         | [`mcw`](Self::mcw)  | no feasible execution forces an order |
/// | could-be-concurrent        | [`ccw`](Self::ccw)  | some feasible execution can overlap them |
/// | must-be-ordered            | [`mow`](Self::mow)  | every feasible execution forces *some* order |
/// | could-be-ordered           | [`cow`](Self::cow)  | some feasible execution forces some order |
///
/// See the crate docs for the exact semantics of "forced" vs. "temporal";
/// [`ccw_induced`](Self::ccw_induced) exposes the class-based reading of
/// could-be-concurrent alongside the default operational one.
#[derive(Clone, Debug)]
pub struct OrderingSummary {
    n: usize,
    /// ∃ feasible schedule with `a` strictly before `b`.
    chb: Relation,
    /// Operational concurrency (symmetric).
    overlap: Relation,
    /// ∀ →T′ ∈ F : a →T′ b.
    all_ordered: Relation,
    /// ∃ →T′ ∈ F : a →T′ b.
    some_ordered: Relation,
    /// ∃ →T′ ∈ F with a ∥T′ b (symmetric).
    some_unordered: Relation,
    /// |F(P)| — the number of distinct induced orders.
    classes: usize,
    /// States in the cut lattice.
    states: usize,
}

impl OrderingSummary {
    /// Combines a cut-lattice pass and a (non-truncated) class enumeration
    /// into the full summary.
    ///
    /// # Panics
    /// Panics if the enumeration was truncated (a truncated F cannot
    /// answer `∀`-questions) or produced no orders (every execution has at
    /// least its observed schedule).
    pub fn from_parts(space: &StateSpaceResult, classes: &EnumerationResult) -> Self {
        assert!(
            !classes.truncated,
            "cannot summarize over a truncated feasible set"
        );
        assert!(
            !classes.orders.is_empty(),
            "F(P) is never empty: the observed execution is feasible"
        );
        let n = classes.orders[0].len();
        let mut all_ordered = classes.orders[0].clone();
        let mut some_ordered = classes.orders[0].clone();
        let mut some_unordered = Relation::new(n);
        for order in &classes.orders {
            all_ordered.intersect_with(order);
            some_ordered.union_with(order);
        }
        for order in &classes.orders {
            for a in 0..n {
                for b in (a + 1)..n {
                    if order.unordered(a, b) {
                        some_unordered.insert(a, b);
                        some_unordered.insert(b, a);
                    }
                }
            }
        }
        OrderingSummary {
            n,
            chb: space.chb.clone(),
            overlap: space.overlap.clone(),
            all_ordered,
            some_ordered,
            some_unordered,
            classes: classes.orders.len(),
            states: space.states,
        }
    }

    /// Number of events.
    #[inline]
    pub fn n_events(&self) -> usize {
        self.n
    }

    /// |F(P)|: how many distinct feasible executions (induced orders)
    /// exist.
    #[inline]
    pub fn class_count(&self) -> usize {
        self.classes
    }

    /// Cut-lattice size explored for the schedule-quantified relations.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.states
    }

    /// `a MHB b`: every feasible execution runs `a` before `b`.
    pub fn mhb(&self, a: EventId, b: EventId) -> bool {
        a != b && !self.chb.contains(b.index(), a.index())
    }

    /// `a CHB b`: some feasible execution runs `a` (completes) before `b`
    /// (begins).
    pub fn chb(&self, a: EventId, b: EventId) -> bool {
        self.chb.contains(a.index(), b.index())
    }

    /// Class-based variant of CHB: some induced order *forces* `a` before
    /// `b`. Implies [`chb`](Self::chb).
    pub fn chb_forced(&self, a: EventId, b: EventId) -> bool {
        self.some_ordered.contains(a.index(), b.index())
    }

    /// `a CCW b` (operational): some feasible execution reaches a
    /// completable state with both events ready — a parallel machine could
    /// overlap them.
    pub fn ccw(&self, a: EventId, b: EventId) -> bool {
        self.overlap.contains(a.index(), b.index())
    }

    /// `a CCW b` (class-based): some induced order leaves the pair
    /// unordered. Always a subset of [`ccw`](Self::ccw).
    pub fn ccw_induced(&self, a: EventId, b: EventId) -> bool {
        self.some_unordered.contains(a.index(), b.index())
    }

    /// `a MCW b`: every feasible execution leaves the pair unordered
    /// (concurrent).
    pub fn mcw(&self, a: EventId, b: EventId) -> bool {
        a != b && !self.cow(a, b)
    }

    /// `a MOW b`: every feasible execution orders the pair (one way or the
    /// other) — they can never be concurrent.
    pub fn mow(&self, a: EventId, b: EventId) -> bool {
        a != b && !self.ccw_induced(a, b)
    }

    /// `a COW b`: some feasible execution orders the pair.
    pub fn cow(&self, a: EventId, b: EventId) -> bool {
        self.some_ordered.contains(a.index(), b.index())
            || self.some_ordered.contains(b.index(), a.index())
    }

    /// The full MHB relation as a matrix (for comparing against the
    /// polynomial baselines).
    pub fn mhb_relation(&self) -> Relation {
        let mut out = Relation::new(self.n);
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b && !self.chb.contains(b, a) {
                    out.insert(a, b);
                }
            }
        }
        out
    }

    /// The full CHB relation as a matrix.
    pub fn chb_relation(&self) -> &Relation {
        &self.chb
    }

    /// The full operational CCW relation as a (symmetric) matrix.
    pub fn ccw_relation(&self) -> &Relation {
        &self.overlap
    }

    /// The full class-based CCW relation as a (symmetric) matrix.
    pub fn ccw_induced_relation(&self) -> &Relation {
        &self.some_unordered
    }

    /// The `∀`-ordered matrix (MHB computed class-side); equals
    /// [`mhb_relation`](Self::mhb_relation) — the test suites assert this
    /// identity, which cross-validates the two independent engines.
    pub fn all_ordered_relation(&self) -> &Relation {
        &self.all_ordered
    }

    /// Internal consistency checks relating the six relations; returns a
    /// description of the first violated identity, if any. Test suites run
    /// this on every summary they build.
    #[allow(clippy::nonminimal_bool)] // the identities read as stated in the docs
    pub fn check_identities(&self) -> Result<(), String> {
        for a in 0..self.n {
            for b in 0..self.n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                if self.mhb(ea, eb) != self.all_ordered.contains(a, b) {
                    return Err(format!(
                        "MHB({ea},{eb}) disagrees between schedule and class engines"
                    ));
                }
                if self.mhb(ea, eb) && !self.chb(ea, eb) {
                    return Err(format!("MHB({ea},{eb}) without CHB({ea},{eb})"));
                }
                if self.chb_forced(ea, eb) && !self.chb(ea, eb) {
                    return Err(format!("forced CHB({ea},{eb}) without temporal CHB"));
                }
                if self.ccw_induced(ea, eb) && !self.ccw(ea, eb) {
                    return Err(format!("induced CCW({ea},{eb}) without operational CCW"));
                }
                if self.mcw(ea, eb) && !self.ccw_induced(ea, eb) {
                    return Err(format!("MCW({ea},{eb}) without induced CCW"));
                }
                if self.mow(ea, eb) != !self.ccw_induced(ea, eb) {
                    return Err(format!("MOW({ea},{eb}) must equal ¬CCW_induced"));
                }
                if self.mcw(ea, eb) != !self.cow(ea, eb) {
                    return Err(format!("MCW({ea},{eb}) must equal ¬COW"));
                }
                if self.mhb(ea, eb) && !self.cow(ea, eb) {
                    return Err(format!("MHB({ea},{eb}) implies COW"));
                }
                if !self.chb(ea, eb) && !self.chb(eb, ea) {
                    return Err(format!(
                        "some schedule orders {ea},{eb} one way or the other"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{FeasibilityMode, SearchCtx};
    use crate::enumerate::enumerate_classes;
    use crate::statespace::explore_statespace_budgeted;
    use crate::Budget;
    use eo_model::fixtures;

    fn summarize(trace: &eo_model::Trace) -> (OrderingSummary, eo_model::ProgramExecution) {
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let space = explore_statespace_budgeted(&ctx, &Budget::unlimited()).unwrap();
        let classes = enumerate_classes(&ctx, 1 << 20);
        let s = OrderingSummary::from_parts(&space, &classes);
        s.check_identities().unwrap();
        (s, exec)
    }

    #[test]
    fn independent_pair_is_must_concurrent() {
        let (trace, a, b) = fixtures::independent_pair();
        let (s, _) = summarize(&trace);
        assert!(s.mcw(a, b), "never forced apart");
        assert!(s.ccw(a, b));
        assert!(
            s.chb(a, b) && s.chb(b, a),
            "either may happen first by timing"
        );
        assert!(!s.mhb(a, b) && !s.mhb(b, a));
        assert!(!s.mow(a, b) && !s.cow(a, b));
    }

    #[test]
    fn handshake_is_must_ordered() {
        let (trace, ids) = fixtures::sem_handshake();
        let (s, _) = summarize(&trace);
        assert!(s.mhb(ids.v, ids.p));
        assert!(!s.chb(ids.p, ids.v));
        assert!(s.mow(ids.v, ids.p));
        assert!(s.cow(ids.v, ids.p));
        assert!(!s.ccw(ids.v, ids.p));
        assert!(!s.mcw(ids.v, ids.p));
        // Tails: concurrent in every feasible execution.
        assert!(s.mcw(ids.after_v, ids.after_p));
    }

    #[test]
    fn figure1_summary_matches_the_paper() {
        let (trace, ids) = fixtures::figure1();
        let (s, _) = summarize(&trace);
        // The two Posts cannot execute in either order: the left one must
        // precede the right one (paper, Section 4 discussion of Fig. 1).
        assert!(s.mhb(ids.post_left, ids.post_right));
        assert!(!s.chb(ids.post_right, ids.post_left));
        assert!(!s.ccw(ids.post_left, ids.post_right));
    }

    #[test]
    fn mhb_relation_matrix_matches_pointwise() {
        let (trace, _) = fixtures::sem_handshake();
        let (s, _) = summarize(&trace);
        let m = s.mhb_relation();
        for a in 0..s.n_events() {
            for b in 0..s.n_events() {
                assert_eq!(
                    m.contains(a, b),
                    s.mhb(EventId::new(a), EventId::new(b)),
                    "({a},{b})"
                );
            }
        }
        assert_eq!(&m, s.all_ordered_relation());
    }

    #[test]
    fn diamond_identities_hold() {
        let (trace, ids) = fixtures::fork_join_diamond();
        let (s, _) = summarize(&trace);
        assert!(s.mcw(ids.left, ids.right));
        assert!(s.mhb(ids.fork, ids.join));
        assert!(s.mhb(ids.pre, ids.post));
    }

    #[test]
    fn clear_chain_identities_hold() {
        let (trace, _ids) = fixtures::post_wait_clear_chain();
        let (s, _) = summarize(&trace);
        assert!(s.class_count() >= 1);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_enumeration_is_rejected() {
        // The Clear chain has many schedule classes, so a budget of 1
        // genuinely truncates (the diamond's single class would not).
        let (trace, _ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let space = explore_statespace_budgeted(&ctx, &Budget::unlimited()).unwrap();
        let classes = enumerate_classes(&ctx, 1);
        assert!(classes.truncated);
        let _ = OrderingSummary::from_parts(&space, &classes);
    }

    /// The truncation contract holds under *every* equivalence strategy:
    /// however coarse the quotient, a search stopped at the schedule cap
    /// must refuse to answer `∀`-questions.
    #[test]
    fn truncated_enumeration_is_rejected_under_every_strategy() {
        use crate::enumerate::enumerate_classes_with;
        use crate::equiv::EquivStrategy;
        let (trace, _ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let space = explore_statespace_budgeted(&ctx, &Budget::unlimited()).unwrap();
        for strategy in EquivStrategy::ALL {
            // The chain has 10 induced orders, so a cap of 1 truncates
            // even the perfectly pruned canonical search.
            let classes = enumerate_classes_with(&ctx, 1, strategy);
            assert!(classes.truncated, "{strategy}: cap 1 must truncate");
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                OrderingSummary::from_parts(&space, &classes)
            }));
            assert!(
                panicked.is_err(),
                "{strategy}: a truncated F(P) must refuse to summarize"
            );
        }
    }
}
