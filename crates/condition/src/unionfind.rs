//! A small union–find (disjoint set) structure over [`Term`]s, with an undo trail.
//!
//! Conjunction satisfiability (Section 2.2: "this can be checked in PTIME because a global
//! condition is a conjunction") reduces to:
//!
//! 1. union the two sides of every equality atom,
//! 2. fail if two *distinct constants* end up in the same class,
//! 3. fail if an inequality atom has both sides in the same class.
//!
//! The structure interns terms on demand; constants in the same class are detected by
//! storing, per class root, the unique constant (if any) known to belong to the class.
//!
//! Every mutation (interning, path-compression writes, unions) is recorded on an **undo
//! trail** so that a search can fork the structure in O(1) with [`TermUnionFind::mark`] and
//! restore it with [`TermUnionFind::undo_to`] instead of cloning the whole store at every
//! choice point — the mechanism behind [`crate::ConstraintSet::checkpoint`] that the
//! parallel decision engine of `pw-decide` relies on.

use crate::Term;
use pw_relational::Sym;
use std::collections::HashMap;

/// One recorded mutation, undone in reverse order by [`TermUnionFind::undo_to`].
#[derive(Clone, Copy, Debug)]
enum TrailEntry {
    /// A term was interned (always the most recent node).
    Intern,
    /// `parent[node]` was overwritten (union or path compression).
    Parent { node: usize, old: usize },
    /// `rank[node]` was bumped by a union.
    Rank { node: usize, old: u8 },
    /// `constant[node]` was overwritten by a union.
    Constant { node: usize, old: Option<Sym> },
}

/// A position in the undo trail, as returned by [`TermUnionFind::mark`].
pub type UfMark = usize;

/// Union–find over interned terms with per-class constant tracking and an undo trail.
///
/// `Clone` copies the *state* but starts the clone with an **empty undo history**: marks
/// taken on the source do not apply to the clone.  This keeps cloning cheap for the
/// searches that fork a store per choice point without ever rolling it back (they would
/// otherwise drag an ever-growing trail through every clone of an exponential search).
#[derive(Debug, Default)]
pub struct TermUnionFind {
    index: HashMap<Term, usize>,
    /// The interned terms, indexed by node id (needed to unwind `index` on undo).
    terms: Vec<Term>,
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// For each node (valid at roots): the interned constant the class is bound to.
    constant: Vec<Option<Sym>>,
    trail: Vec<TrailEntry>,
}

impl Clone for TermUnionFind {
    fn clone(&self) -> Self {
        TermUnionFind {
            index: self.index.clone(),
            terms: self.terms.clone(),
            parent: self.parent.clone(),
            rank: self.rank.clone(),
            constant: self.constant.clone(),
            // A fresh history: the clone's first mark starts at zero.
            trail: Vec::new(),
        }
    }
}

impl TermUnionFind {
    /// Create an empty structure.
    pub fn new() -> Self {
        TermUnionFind::default()
    }

    /// The current undo-trail position.  All mutations made after a `mark` can be reverted
    /// with [`TermUnionFind::undo_to`], in LIFO order with respect to other marks.
    pub fn mark(&self) -> UfMark {
        self.trail.len()
    }

    /// Revert every mutation recorded after `mark`.
    ///
    /// Marks must be unwound in LIFO order; undoing to an *older* mark is fine (it simply
    /// discards the younger ones), but a mark taken before an `undo_to` that already passed
    /// it is no longer valid.
    pub fn undo_to(&mut self, mark: UfMark) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("len checked") {
                TrailEntry::Intern => {
                    let term = self.terms.pop().expect("intern recorded");
                    self.index.remove(&term);
                    self.parent.pop();
                    self.rank.pop();
                    self.constant.pop();
                }
                TrailEntry::Parent { node, old } => self.parent[node] = old,
                TrailEntry::Rank { node, old } => self.rank[node] = old,
                TrailEntry::Constant { node, old } => self.constant[node] = old,
            }
        }
    }

    /// Intern a term, returning its node index.  Terms are `Copy` two-word values, so
    /// this allocates nothing beyond the amortised growth of the node vectors.
    pub fn intern(&mut self, t: Term) -> usize {
        if let Some(&i) = self.index.get(&t) {
            return i;
        }
        let i = self.parent.len();
        self.parent.push(i);
        self.rank.push(0);
        self.constant.push(t.as_sym());
        self.index.insert(t, i);
        self.terms.push(t);
        self.trail.push(TrailEntry::Intern);
        i
    }

    /// Find with (trail-recorded) path compression.
    pub fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            let grandparent = self.parent[self.parent[i]];
            if self.parent[i] != grandparent {
                self.trail.push(TrailEntry::Parent {
                    node: i,
                    old: self.parent[i],
                });
                self.parent[i] = grandparent;
            }
            i = grandparent;
        }
        i
    }

    /// Union the classes of two terms.  Returns `false` — meaning *inconsistent* — when the
    /// merge would identify two distinct constants.
    pub fn union_terms(&mut self, a: Term, b: Term) -> bool {
        let ia = self.intern(a);
        let ib = self.intern(b);
        self.union(ia, ib)
    }

    /// Union two interned nodes; `false` on constant clash.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return true;
        }
        let merged_const = match (self.constant[ra], self.constant[rb]) {
            (Some(x), Some(y)) if x != y => return false,
            (Some(x), _) => Some(x),
            (_, Some(y)) => Some(y),
            (None, None) => None,
        };
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.trail.push(TrailEntry::Parent {
            node: lo,
            old: self.parent[lo],
        });
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.trail.push(TrailEntry::Rank {
                node: hi,
                old: self.rank[hi],
            });
            self.rank[hi] += 1;
        }
        if self.constant[hi] != merged_const {
            self.trail.push(TrailEntry::Constant {
                node: hi,
                old: self.constant[hi].take(),
            });
            self.constant[hi] = merged_const;
        }
        true
    }

    /// Are the two terms known to be in the same class?  (Terms never seen before are
    /// interned and therefore trivially in distinct singleton classes.)
    pub fn same_class(&mut self, a: Term, b: Term) -> bool {
        let ia = self.intern(a);
        let ib = self.intern(b);
        self.find(ia) == self.find(ib)
    }

    /// The interned constant the class of `t` is bound to, if any.
    pub fn constant_of(&mut self, t: Term) -> Option<Sym> {
        let i = self.intern(t);
        let r = self.find(i);
        self.constant[r]
    }

    /// The interned constant the class rooted at `root` is bound to, if any.  `root`
    /// must be a class root, as returned by [`TermUnionFind::find`].
    pub fn root_constant(&self, root: usize) -> Option<Sym> {
        self.constant[root]
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Drop the undo history in place (all outstanding marks become invalid).  Rarely
    /// needed — `Clone` already starts clones with an empty history — but useful to
    /// release trail memory on a long-lived store between searches.
    pub fn forget_history(&mut self) {
        self.trail.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VarGen, Variable};

    fn vars(n: usize) -> Vec<Variable> {
        let mut g = VarGen::new();
        (0..n).map(|_| g.fresh()).collect()
    }

    #[test]
    fn transitive_equality_is_detected() {
        let v = vars(3);
        let mut uf = TermUnionFind::new();
        assert!(uf.union_terms(Term::Var(v[0]), Term::Var(v[1])));
        assert!(uf.union_terms(Term::Var(v[1]), Term::Var(v[2])));
        assert!(uf.same_class(Term::Var(v[0]), Term::Var(v[2])));
        assert!(!uf.is_empty());
        assert_eq!(uf.len(), 3);
    }

    #[test]
    fn constant_clash_is_reported() {
        let v = vars(1);
        let mut uf = TermUnionFind::new();
        assert!(uf.union_terms(Term::Var(v[0]), Term::constant(1)));
        assert!(!uf.union_terms(Term::Var(v[0]), Term::constant(2)));
    }

    #[test]
    fn constant_of_propagates_through_unions() {
        let v = vars(2);
        let mut uf = TermUnionFind::new();
        uf.union_terms(Term::Var(v[0]), Term::Var(v[1]));
        assert_eq!(uf.constant_of(Term::Var(v[1])), None);
        uf.union_terms(Term::Var(v[0]), Term::constant(9));
        assert_eq!(uf.constant_of(Term::Var(v[1])), Some(Sym::Int(9)));
    }

    #[test]
    fn distinct_constants_live_in_distinct_classes() {
        let mut uf = TermUnionFind::new();
        assert!(!uf.same_class(Term::constant(1), Term::constant(2)));
        assert!(uf.same_class(Term::constant(1), Term::constant(1)));
    }

    #[test]
    fn undo_restores_classes_and_interning() {
        let v = vars(3);
        let mut uf = TermUnionFind::new();
        uf.union_terms(Term::Var(v[0]), Term::Var(v[1]));
        let mark = uf.mark();
        let len_before = uf.len();

        uf.union_terms(Term::Var(v[1]), Term::Var(v[2]));
        uf.union_terms(Term::Var(v[0]), Term::constant(4));
        assert!(uf.same_class(Term::Var(v[0]), Term::Var(v[2])));
        assert_eq!(uf.constant_of(Term::Var(v[2])), Some(Sym::Int(4)));

        uf.undo_to(mark);
        assert_eq!(uf.len(), len_before, "interned terms unwound");
        assert!(
            uf.same_class(Term::Var(v[0]), Term::Var(v[1])),
            "pre-mark state kept"
        );
        assert!(!uf.same_class(Term::Var(v[0]), Term::Var(v[2])));
        assert_eq!(uf.constant_of(Term::Var(v[0])), None);
    }

    #[test]
    fn undo_restores_after_failed_union() {
        let v = vars(1);
        let mut uf = TermUnionFind::new();
        let mark = uf.mark();
        assert!(uf.union_terms(Term::Var(v[0]), Term::constant(1)));
        assert!(!uf.union_terms(Term::Var(v[0]), Term::constant(2)));
        uf.undo_to(mark);
        assert!(
            uf.union_terms(Term::Var(v[0]), Term::constant(2)),
            "conflict unwound"
        );
    }

    #[test]
    fn clones_start_with_an_empty_history() {
        let v = vars(2);
        let mut uf = TermUnionFind::new();
        uf.union_terms(Term::Var(v[0]), Term::Var(v[1]));
        let mut clone = uf.clone();
        assert_eq!(clone.mark(), 0, "no inherited trail");
        assert!(
            clone.same_class(Term::Var(v[0]), Term::Var(v[1])),
            "state is copied"
        );
        // A source mark is meaningless on the clone: undoing to it is a no-op there.
        let m = clone.mark();
        clone.union_terms(Term::Var(v[0]), Term::constant(3));
        clone.undo_to(m);
        assert_eq!(clone.constant_of(Term::Var(v[1])), None);
        assert_eq!(uf.constant_of(Term::Var(v[1])), None, "source untouched");
    }

    #[test]
    fn nested_marks_unwind_in_lifo_order() {
        let v = vars(4);
        let mut uf = TermUnionFind::new();
        let outer = uf.mark();
        uf.union_terms(Term::Var(v[0]), Term::Var(v[1]));
        let inner = uf.mark();
        uf.union_terms(Term::Var(v[2]), Term::Var(v[3]));
        uf.undo_to(inner);
        assert!(!uf.same_class(Term::Var(v[2]), Term::Var(v[3])));
        assert!(uf.same_class(Term::Var(v[0]), Term::Var(v[1])));
        uf.undo_to(outer);
        assert!(uf.is_empty());
    }
}
