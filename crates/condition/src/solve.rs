//! Incremental constraint store for partial valuations.
//!
//! The backtracking decision procedures of `pw-decide` build a valuation piece by piece:
//! "this table row maps onto that instance fact" induces a batch of equalities between the
//! row's terms and the fact's constants; global and local conditions add further equalities
//! and inequalities.  [`ConstraintSet`] maintains the conjunction collected so far and
//! answers consistency queries in (amortised) near-linear time.
//!
//! Everything inside the store is interned: terms are `Copy` two-word values and
//! constants are [`Sym`] ids, so asserting, checkpointing and rolling back allocate
//! nothing beyond the amortised growth of the trail vectors.
//!
//! Searches fork the store at choice points.  Two mechanisms are offered:
//!
//! * [`ConstraintSet::checkpoint`] / [`ConstraintSet::rollback`] — an **undo trail**: O(1)
//!   to fork, O(mutations-since-fork) to restore.  This is what the depth-first searches of
//!   `pw-decide` use on their hot path.
//! * `Clone` — a full copy of the *state* with an **empty undo history** (checkpoints from
//!   the source do not transfer), used when a search node is shipped to another thread by
//!   the parallel engine and by the legacy clone-per-choice-point searches, which never
//!   roll back and must not pay for the trail.

use crate::unionfind::{TermUnionFind, UfMark};
use crate::{Atom, Conjunction, Term, Variable};
use pw_relational::{Constant, Sym};
use std::collections::BTreeSet;

/// A set of equality/inequality constraints with incremental consistency checking.
#[derive(Clone, Debug, Default)]
pub struct ConstraintSet {
    uf: TermUnionFind,
    /// Inequality constraints recorded so far, as pairs of interned union–find nodes
    /// (re-checked whenever two classes merge; no term is hashed to check them).
    disequalities: Vec<(usize, usize)>,
    /// Whether an inconsistency has already been detected.
    contradictory: bool,
}

/// A restore point for a [`ConstraintSet`], produced by [`ConstraintSet::checkpoint`].
///
/// Checkpoints must be rolled back in LIFO order (innermost first), exactly like the
/// choice points of a backtracking search.
#[derive(Clone, Copy, Debug)]
pub struct Checkpoint {
    uf_mark: UfMark,
    diseq_len: usize,
    contradictory: bool,
}

impl ConstraintSet {
    /// An empty, consistent store.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Record a restore point.  O(1).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            uf_mark: self.uf.mark(),
            diseq_len: self.disequalities.len(),
            contradictory: self.contradictory,
        }
    }

    /// Restore the store to the state it had when `cp` was taken, undoing every assertion
    /// (and every internal path-compression write) made since.  Cost is proportional to the
    /// number of mutations being undone, not to the size of the store.
    pub fn rollback(&mut self, cp: Checkpoint) {
        self.uf.undo_to(cp.uf_mark);
        self.disequalities.truncate(cp.diseq_len);
        self.contradictory = cp.contradictory;
    }

    /// Drop the undo history accumulated so far; all outstanding [`Checkpoint`]s become
    /// invalid.  Clones already start with an empty history — this is for releasing trail
    /// memory on a long-lived store between searches.
    pub fn forget_history(&mut self) {
        self.uf.forget_history();
    }

    /// Whether the constraints collected so far are consistent.
    ///
    /// Consistency here means: no equality chain identifies two distinct constants and no
    /// recorded inequality has both sides in the same equality class.  For conjunctions of
    /// equality/inequality atoms over an infinite domain this is exactly satisfiability.
    pub fn is_consistent(&mut self) -> bool {
        if self.contradictory {
            return false;
        }
        // Re-validate disequalities against the current classes.
        for i in 0..self.disequalities.len() {
            if self.violated(self.disequalities[i]) {
                self.contradictory = true;
                return false;
            }
        }
        true
    }

    /// Is the disequality between two interned nodes violated: both in one class, or
    /// their classes bound to the same constant?
    fn violated(&mut self, (a, b): (usize, usize)) -> bool {
        let (ra, rb) = (self.uf.find(a), self.uf.find(b));
        ra == rb
            || matches!(
                (self.uf.root_constant(ra), self.uf.root_constant(rb)),
                (Some(x), Some(y)) if x == y
            )
    }

    /// Assert `a = b`.  Returns the new consistency status.  Only a merge of two
    /// classes can violate a recorded disequality, so an equality already known costs
    /// no re-validation.
    pub fn assert_eq(&mut self, a: Term, b: Term) -> bool {
        if self.contradictory {
            return false;
        }
        let (ia, ib) = (self.uf.intern(a), self.uf.intern(b));
        if self.uf.find(ia) == self.uf.find(ib) {
            return true;
        }
        if !self.uf.union(ia, ib) {
            self.contradictory = true;
            return false;
        }
        self.is_consistent()
    }

    /// Assert `a ≠ b`.  Returns the new consistency status.  The classes do not change,
    /// so only the new disequality needs checking.
    pub fn assert_neq(&mut self, a: Term, b: Term) -> bool {
        if self.contradictory {
            return false;
        }
        let pair = (self.uf.intern(a), self.uf.intern(b));
        self.disequalities.push(pair);
        if self.violated(pair) {
            self.contradictory = true;
            return false;
        }
        true
    }

    /// Assert a whole atom.
    pub fn assert_atom(&mut self, atom: Atom) -> bool {
        match atom {
            Atom::Eq(a, b) => self.assert_eq(a, b),
            Atom::Neq(a, b) => self.assert_neq(a, b),
        }
    }

    /// Assert every atom of a conjunction.
    pub fn assert_conjunction(&mut self, c: &Conjunction) -> bool {
        for &atom in c.atoms() {
            if !self.assert_atom(atom) {
                return false;
            }
        }
        true
    }

    /// Bind a variable to a constant (`v = c`).
    pub fn bind(&mut self, v: Variable, c: impl Into<Sym>) -> bool {
        self.assert_eq(Term::Var(v), Term::Const(c.into()))
    }

    /// The interned constant the variable is currently forced to, if any.
    pub fn value_of(&mut self, v: Variable) -> Option<Sym> {
        self.uf.constant_of(Term::Var(v))
    }

    /// Whether two terms are currently known equal.
    pub fn known_equal(&mut self, a: Term, b: Term) -> bool {
        self.uf.same_class(a, b)
    }

    /// Whether two terms are currently known distinct (bound to different constants or
    /// separated by a recorded inequality whose sides are in their classes).
    pub fn known_distinct(&mut self, a: Term, b: Term) -> bool {
        if let (Some(ca), Some(cb)) = (self.uf.constant_of(a), self.uf.constant_of(b)) {
            if ca != cb {
                return true;
            }
        }
        let (ia, ib) = (self.uf.intern(a), self.uf.intern(b));
        let (ra, rb) = (self.uf.find(ia), self.uf.find(ib));
        for i in 0..self.disequalities.len() {
            let (x, y) = self.disequalities[i];
            let (rx, ry) = (self.uf.find(x), self.uf.find(y));
            if (rx, ry) == (ra, rb) || (rx, ry) == (rb, ra) {
                return true;
            }
        }
        false
    }

    /// Extend to a *total* valuation of `vars`: every unbound variable is assigned a fresh
    /// constant not in `avoid` (fresh constants are pairwise distinct).  Returns `None` when
    /// the store is inconsistent.
    ///
    /// This realises the paper's observation that only valuations into Δ ∪ Δ′ matter: bound
    /// variables take their forced value from Δ (or a previously chosen fresh value), and
    /// every remaining variable can safely take a brand-new constant.  Fresh constants are
    /// materialised (and interned) here, at the boundary — this is not a hot path.
    pub fn complete_valuation(
        &mut self,
        vars: impl IntoIterator<Item = Variable>,
        avoid: &BTreeSet<Constant>,
    ) -> Option<Vec<(Variable, Constant)>> {
        if !self.is_consistent() {
            return None;
        }
        let vars: Vec<Variable> = vars.into_iter().collect();
        let mut used: BTreeSet<Constant> = avoid.clone();
        // Account for constants already forced, so fresh values do not collide with them.
        for &v in &vars {
            if let Some(c) = self.value_of(v) {
                used.insert(c.constant());
            }
        }
        let mut out = Vec::with_capacity(vars.len());
        let mut scratch = self.clone();
        for v in vars {
            let value = match scratch.value_of(v) {
                Some(c) => c.constant(),
                None => {
                    let fresh = Constant::fresh(&used, used.len());
                    // Binding a fresh constant can conflict only through recorded
                    // inequalities against other fresh constants, which cannot happen since
                    // fresh constants are pairwise distinct; still, keep the store honest.
                    if !scratch.bind(v, &fresh) {
                        return None;
                    }
                    fresh
                }
            };
            used.insert(value.clone());
            out.push((v, value));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarGen;

    #[test]
    fn equality_then_conflicting_binding_is_inconsistent() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let mut cs = ConstraintSet::new();
        assert!(cs.assert_eq(Term::Var(x), Term::Var(y)));
        assert!(cs.bind(x, 1));
        assert_eq!(cs.value_of(y), Some(Sym::Int(1)));
        assert!(!cs.bind(y, 2));
        assert!(!cs.is_consistent());
    }

    #[test]
    fn disequality_violation_detected_later() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let mut cs = ConstraintSet::new();
        assert!(cs.assert_neq(Term::Var(x), Term::Var(y)));
        assert!(cs.bind(x, 1));
        assert!(!cs.bind(y, 1));
    }

    #[test]
    fn interned_string_bindings_compare_by_id() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let mut cs = ConstraintSet::new();
        assert!(cs.bind(x, Sym::from("alice")));
        assert!(cs.bind(y, Sym::from("bob")));
        assert!(cs.known_distinct(Term::Var(x), Term::Var(y)));
        assert!(!cs.assert_eq(Term::Var(x), Term::Var(y)));
    }

    #[test]
    fn known_distinct_via_constants_and_disequalities() {
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        let mut cs = ConstraintSet::new();
        cs.bind(x, 1);
        cs.bind(y, 2);
        assert!(cs.known_distinct(Term::Var(x), Term::Var(y)));
        assert!(!cs.known_distinct(Term::Var(x), Term::Var(z)));
        cs.assert_neq(Term::Var(z), Term::Var(x));
        assert!(cs.known_distinct(Term::Var(z), Term::Var(x)));
    }

    #[test]
    fn assert_conjunction_short_circuits() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let mut cs = ConstraintSet::new();
        let c = Conjunction::new([Atom::eq(x, 1), Atom::eq(x, 2)]);
        assert!(!cs.assert_conjunction(&c));
        assert!(!cs.is_consistent());
    }

    #[test]
    fn complete_valuation_assigns_fresh_distinct_values() {
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        let mut cs = ConstraintSet::new();
        cs.bind(x, 1);
        cs.assert_neq(Term::Var(y), Term::Var(z));
        let avoid: BTreeSet<Constant> = [Constant::int(1)].into();
        let val = cs.complete_valuation([x, y, z], &avoid).unwrap();
        assert_eq!(val[0].1, Constant::int(1));
        assert_ne!(val[1].1, val[2].1, "fresh values are pairwise distinct");
        assert_ne!(val[1].1, Constant::int(1));
    }

    #[test]
    fn checkpoint_rollback_restores_consistency_and_bindings() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let mut cs = ConstraintSet::new();
        assert!(cs.bind(x, 1));

        let cp = cs.checkpoint();
        assert!(cs.assert_eq(Term::Var(x), Term::Var(y)));
        assert_eq!(cs.value_of(y), Some(Sym::Int(1)));
        assert!(
            !cs.assert_neq(Term::Var(x), Term::Var(y)),
            "contradiction detected"
        );
        assert!(!cs.is_consistent());

        cs.rollback(cp);
        assert!(cs.is_consistent(), "contradiction unwound");
        assert_eq!(
            cs.value_of(x),
            Some(Sym::Int(1)),
            "pre-checkpoint binding kept"
        );
        assert_eq!(cs.value_of(y), None, "post-checkpoint binding gone");
        // The store is fully usable again after the rollback.
        assert!(cs.bind(y, 2));
        assert!(cs.known_distinct(Term::Var(x), Term::Var(y)));
    }

    #[test]
    fn nested_checkpoints_unwind_lifo() {
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        let mut cs = ConstraintSet::new();
        let outer = cs.checkpoint();
        cs.bind(x, 1);
        let inner = cs.checkpoint();
        cs.assert_eq(Term::Var(y), Term::Var(z));
        cs.rollback(inner);
        assert!(!cs.known_equal(Term::Var(y), Term::Var(z)));
        assert_eq!(cs.value_of(x), Some(Sym::Int(1)));
        cs.rollback(outer);
        assert_eq!(cs.value_of(x), None);
    }

    #[test]
    fn complete_valuation_fails_on_inconsistent_store() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let mut cs = ConstraintSet::new();
        cs.bind(x, 1);
        cs.bind(x, 2);
        assert!(cs.complete_valuation([x], &BTreeSet::new()).is_none());
    }
}
