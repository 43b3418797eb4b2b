//! Transitive closure, topological orders, and transitive reduction.
//!
//! The feasibility engine closes one relation per explored equivalence
//! class, so closure speed matters. Two algorithms are provided:
//!
//! * [`warshall_in_place`] — word-parallel Warshall, O(n³/64), best for the
//!   dense induced orders the engine produces;
//! * [`dfs_closure`] — per-source DFS accumulating successor rows in
//!   reverse topological order, O(n·m/64) on sparse DAGs, used by the
//!   polynomial baselines whose graphs are sparse;
//! * [`close_along_topological_order`] — the same reverse sweep in place,
//!   for a caller that already holds a topological order: the enumeration
//!   engine closes one induced order per complete schedule this way, with
//!   the schedule itself as the order.
//!
//! [`transitive_reduction_dag`] recovers the minimal edge set of a DAG's
//! closure — used when rendering induced orders for humans (EXPERIMENTS.md
//! excerpts and the `figure1` example print reductions, not closures).

use crate::bitset::BitSet;
use crate::relation::Relation;

/// Closes `rel` transitively in place using word-parallel Warshall.
///
/// After the call, `rel.contains(a, b)` iff there was a nonempty directed
/// path from `a` to `b` in the input.
pub fn warshall_in_place(rel: &mut Relation) {
    let n = rel.len();
    for k in 0..n {
        // Row k must be cloned: rows that contain k absorb row k, and row k
        // itself may be among them (when k lies on a cycle).
        let row_k = rel.row(k).clone();
        for a in 0..n {
            if rel.contains(a, k) {
                rel.row_mut(a).union_with(&row_k);
            }
        }
    }
}

/// Returns the transitive closure of `rel` computed by per-source DFS in
/// reverse topological order. Requires the input to be a DAG; returns
/// `None` when a cycle is detected.
///
/// On sparse DAGs this is much faster than Warshall because each row is the
/// word-parallel union of its direct successors' (already final) rows.
pub fn dfs_closure(rel: &Relation) -> Option<Relation> {
    let order = topological_order(rel)?;
    let n = rel.len();
    let mut out = Relation::new(n);
    // Process sinks first so successor rows are final when consumed.
    for &a in order.iter().rev() {
        let mut acc = BitSet::new(n);
        for b in rel.row(a).iter() {
            acc.insert(b);
            acc.union_with(out.row(b));
        }
        *out.row_mut(a) = acc;
    }
    Some(out)
}

/// Closes the DAG `rel` transitively in place, given `order`, a
/// topological order of its indices (every edge `a → b` has `a` before
/// `b`). One reverse sweep: each row absorbs the already-closed rows of
/// its direct successors. No Kahn pass and no allocation — `acc` is a
/// caller-reused row buffer. O(n + m·n/64).
///
/// If `order` is not a topological order of `rel`, the result is not the
/// closure; the caller guarantees it (a complete schedule is a
/// topological order of every edge it induces).
pub fn close_along_topological_order<I>(rel: &mut Relation, order: I, acc: &mut BitSet)
where
    I: IntoIterator<Item = usize>,
    I::IntoIter: DoubleEndedIterator,
{
    for a in order.into_iter().rev() {
        if rel.row(a).is_empty() {
            continue;
        }
        acc.clone_from(rel.row(a));
        for b in rel.row(a).iter() {
            acc.union_with(rel.row(b));
        }
        rel.row_mut(a).clone_from(acc);
    }
}

/// Kahn's algorithm. Returns indices in a topological order of the digraph
/// `rel`, or `None` if `rel` has a directed cycle (including self-loops).
pub fn topological_order(rel: &Relation) -> Option<Vec<usize>> {
    let n = rel.len();
    let mut indegree = vec![0usize; n];
    for (_, b) in rel.pairs() {
        indegree[b] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(a) = queue.pop() {
        order.push(a);
        for b in rel.row(a).iter() {
            indegree[b] -= 1;
            if indegree[b] == 0 {
                queue.push(b);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Returns all linear extensions of the strict partial order `rel`
/// (interpreted as: `a` must come before `b` whenever `a R b`).
///
/// Exponential, of course — this is the brute-force oracle the test suites
/// use to validate the engine on small inputs. Inputs larger than ~10
/// indices will be very slow.
///
/// # Panics
/// Panics if `rel` is cyclic.
pub fn linear_extensions(rel: &Relation) -> Vec<Vec<usize>> {
    assert!(rel.is_acyclic(), "linear_extensions requires a DAG");
    let n = rel.len();
    let preds = rel.transpose();
    let mut done = BitSet::new(n);
    let mut prefix = Vec::with_capacity(n);
    let mut out = Vec::new();
    extend(&preds, &mut done, &mut prefix, &mut out);
    return out;

    fn extend(
        preds: &Relation,
        done: &mut BitSet,
        prefix: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        let n = preds.len();
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for i in 0..n {
            if done.contains(i) {
                continue;
            }
            if preds.row(i).iter().all(|p| done.contains(p)) {
                done.insert(i);
                prefix.push(i);
                extend(preds, done, prefix, out);
                prefix.pop();
                done.remove(i);
            }
        }
    }
}

/// Computes the transitive reduction of a DAG given its transitive
/// *closure*: the unique minimal relation with the same closure.
///
/// An edge (a,b) of the closure is kept iff there is no intermediate `c`
/// with `a → c → b`.
///
/// # Panics
/// Panics if `closure` is cyclic (reduction is only unique for DAGs).
pub fn transitive_reduction_dag(closure: &Relation) -> Relation {
    assert!(closure.is_acyclic(), "transitive reduction requires a DAG");
    let n = closure.len();
    let mut red = Relation::new(n);
    for a in 0..n {
        for b in closure.row(a).iter() {
            let via_midpoint = closure
                .row(a)
                .iter()
                .any(|c| c != b && closure.contains(c, b));
            if !via_midpoint {
                red.insert(a, b);
            }
        }
    }
    red
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Relation {
        Relation::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn warshall_equals_dfs_closure_on_dags() {
        let r = diamond();
        let w = r.transitive_closure();
        let d = dfs_closure(&r).expect("diamond is a DAG");
        assert_eq!(w, d);
        assert!(w.contains(0, 3));
    }

    #[test]
    fn warshall_handles_cycles() {
        let mut r = Relation::from_edges(3, [(0, 1), (1, 0), (1, 2)]);
        warshall_in_place(&mut r);
        assert!(r.contains(0, 0), "cycle members reach themselves");
        assert!(r.contains(1, 1));
        assert!(r.contains(0, 2));
        assert!(!r.contains(2, 0));
    }

    /// The in-place reverse sweep, fed a random topological order (not
    /// Kahn's), agrees with `dfs_closure` and Warshall on random DAGs,
    /// including domains that straddle word boundaries.
    #[test]
    fn reverse_sweep_equals_dfs_closure_on_random_dags() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for case in 0..200 {
            let n = rng.gen_range(0..=130usize);
            // A random permutation is the topological order; edges only
            // run forward along it.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let density = [0.02, 0.1, 0.4][case % 3];
            let mut dag = Relation::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(density) {
                        dag.insert(order[i], order[j]);
                    }
                }
            }
            let mut swept = dag.clone();
            let mut acc = BitSet::new(n);
            close_along_topological_order(&mut swept, order.iter().copied(), &mut acc);
            let reference = dfs_closure(&dag).expect("forward edges form a DAG");
            assert_eq!(swept, reference, "case {case}: n = {n}");
            assert_eq!(swept, dag.transitive_closure(), "case {case}: n = {n}");
        }
    }

    #[test]
    fn dfs_closure_rejects_cycles() {
        let r = Relation::from_edges(2, [(0, 1), (1, 0)]);
        assert!(dfs_closure(&r).is_none());
    }

    #[test]
    fn topological_order_is_consistent() {
        let r = diamond();
        let order = topological_order(&r).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        for (a, b) in r.pairs() {
            assert!(pos[a] < pos[b], "edge {a}->{b} respected");
        }
    }

    #[test]
    fn linear_extensions_of_diamond() {
        let exts = linear_extensions(&diamond());
        // 0 first, 3 last, 1 and 2 in either order: exactly 2 extensions.
        assert_eq!(exts.len(), 2);
        for e in &exts {
            assert_eq!(e[0], 0);
            assert_eq!(e[3], 3);
        }
    }

    #[test]
    fn linear_extensions_of_empty_order() {
        let r = Relation::new(3);
        assert_eq!(linear_extensions(&r).len(), 6, "3! total orders");
    }

    #[test]
    fn linear_extensions_of_zero_domain() {
        let r = Relation::new(0);
        assert_eq!(linear_extensions(&r), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn reduction_of_closed_chain() {
        let closure = Relation::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        let red = transitive_reduction_dag(&closure);
        assert!(red.contains(0, 1) && red.contains(1, 2));
        assert!(!red.contains(0, 2), "transitive edge removed");
    }

    #[test]
    fn reduction_then_closure_is_identity_on_closures() {
        let c = diamond().transitive_closure();
        let rc = transitive_reduction_dag(&c).transitive_closure();
        assert_eq!(c, rc);
    }
}
