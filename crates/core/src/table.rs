//! The table hierarchy: Codd-tables, e-tables, i-tables, g-tables and c-tables.
//!
//! All levels are stored in the single type [`CTable`] — a named table of [`CTuple`]s with a
//! global condition and per-tuple local conditions — because every level of the hierarchy
//! *is* a c-table with syntactic restrictions (Section 2.2).  [`TableClass`] classifies a
//! table into the tightest level it satisfies, and the decision procedures of `pw-decide`
//! use that classification to pick the algorithms the paper's upper bounds describe.

use pw_condition::{Atom, Conjunction, Term, Variable};
use pw_relational::Constant;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Errors raised when constructing tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableError {
    /// A tuple has the wrong number of terms.
    ArityMismatch {
        /// Expected arity.
        expected: usize,
        /// Found arity.
        found: usize,
    },
    /// A construction that requires a syntactic restriction (e.g. [`CTable::codd`]) was
    /// given a table outside that restriction.
    NotInClass {
        /// The class that was requested.
        requested: TableClass,
        /// The reason the table is outside it.
        reason: &'static str,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "tuple arity {found} does not match table arity {expected}"
                )
            }
            TableError::NotInClass { requested, reason } => {
                write!(f, "table is not a valid {requested}: {reason}")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// The representation hierarchy of Section 2.2, ordered from most to least restricted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TableClass {
    /// Codd-table: constants and variables, each variable occurs at most once, no
    /// conditions.
    Codd,
    /// e-table: equalities incorporated in the table (variables may repeat), no global
    /// inequalities, no local conditions.
    ETable,
    /// i-table: a Codd-table plus a global condition made of inequalities only.
    ITable,
    /// g-table: repeated variables plus a global condition (equalities folded in,
    /// inequalities on top), no local conditions.
    GTable,
    /// c-table: a g-table plus per-tuple local conditions.
    CTable,
}

impl fmt::Display for TableClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TableClass::Codd => "Codd-table",
            TableClass::ETable => "e-table",
            TableClass::ITable => "i-table",
            TableClass::GTable => "g-table",
            TableClass::CTable => "c-table",
        };
        write!(f, "{s}")
    }
}

/// A row of a c-table: a vector of terms plus a local condition.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CTuple {
    /// The row's terms (constants and variables).
    pub terms: Vec<Term>,
    /// The local condition φ_t; `Conjunction::truth()` when omitted.
    pub condition: Conjunction,
}

impl CTuple {
    /// A row with the always-true local condition.
    pub fn of_terms(terms: impl IntoIterator<Item = Term>) -> Self {
        CTuple {
            terms: terms.into_iter().collect(),
            condition: Conjunction::truth(),
        }
    }

    /// A row with an explicit local condition.
    pub fn with_condition(terms: impl IntoIterator<Item = Term>, condition: Conjunction) -> Self {
        CTuple {
            terms: terms.into_iter().collect(),
            condition,
        }
    }

    /// Arity of the row.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Variables occurring in the row's terms (not in its condition).
    pub fn term_variables(&self) -> impl Iterator<Item = Variable> + '_ {
        self.terms.iter().copied().filter_map(Term::as_var)
    }

    /// Variables occurring in the row or its local condition.
    pub fn variables(&self) -> BTreeSet<Variable> {
        let mut out: BTreeSet<Variable> = self.term_variables().collect();
        out.extend(self.condition.variables());
        out
    }

    /// Interned constants occurring in the row or its local condition.
    pub fn syms(&self) -> BTreeSet<pw_relational::Sym> {
        let mut out: BTreeSet<pw_relational::Sym> =
            self.terms.iter().filter_map(|t| t.as_sym()).collect();
        out.extend(self.condition.syms());
        out
    }

    /// Constants occurring in the row or its local condition, resolved at the boundary.
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.syms()
            .into_iter()
            .map(pw_relational::Sym::constant)
            .collect()
    }

    /// Whether the local condition is the trivial `true`.
    pub fn has_trivial_condition(&self) -> bool {
        self.condition.is_empty()
    }
}

impl fmt::Display for CTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")?;
        if !self.has_trivial_condition() {
            write!(f, " ‖ {}", self.condition)?;
        }
        Ok(())
    }
}

/// A conditional table: a named table of [`CTuple`]s, a global condition, and the arity.
///
/// Every level of the paper's hierarchy is a `CTable`; use [`CTable::classify`] to find the
/// tightest class, or the restricted constructors ([`CTable::codd`], [`CTable::e_table`],
/// [`CTable::i_table`], [`CTable::g_table`]) to enforce a level at construction time.
///
/// A table is immutable after construction and keeps its contents behind one `Arc`, so
/// cloning it is a refcount bump.  That is what makes [`crate::CDatabase::apply`] cost
/// in proportion to the delta: the new version's copy of every untouched table, and the
/// later drop of the retired version, are refcount operations.  Equality and hashing
/// are by value (pointer-equal bodies short-cut the comparison).
#[derive(Clone, Eq)]
pub struct CTable {
    body: Arc<TableBody>,
}

/// The shared contents of a [`CTable`].
#[derive(PartialEq, Eq, Hash)]
struct TableBody {
    name: String,
    arity: usize,
    global: Conjunction,
    tuples: Vec<CTuple>,
}

impl PartialEq for CTable {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.body, &other.body) || self.body == other.body
    }
}

impl Hash for CTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.body.hash(state);
    }
}

impl fmt::Debug for CTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CTable")
            .field("name", &self.body.name)
            .field("arity", &self.body.arity)
            .field("global", &self.body.global)
            .field("tuples", &self.body.tuples)
            .finish()
    }
}

impl CTable {
    /// Build a general c-table.
    pub fn new(
        name: impl Into<String>,
        arity: usize,
        global: Conjunction,
        tuples: impl IntoIterator<Item = CTuple>,
    ) -> Result<Self, TableError> {
        let tuples: Vec<CTuple> = tuples.into_iter().collect();
        for t in &tuples {
            if t.arity() != arity {
                return Err(TableError::ArityMismatch {
                    expected: arity,
                    found: t.arity(),
                });
            }
        }
        Ok(CTable {
            body: Arc::new(TableBody {
                name: name.into(),
                arity,
                global,
                tuples,
            }),
        })
    }

    /// Build a Codd-table: rows of constants and variables, no repeated variable, no
    /// conditions.
    pub fn codd(
        name: impl Into<String>,
        arity: usize,
        rows: impl IntoIterator<Item = Vec<Term>>,
    ) -> Result<Self, TableError> {
        let table = CTable::new(
            name,
            arity,
            Conjunction::truth(),
            rows.into_iter().map(CTuple::of_terms),
        )?;
        match table.classify() {
            TableClass::Codd => Ok(table),
            _ => Err(TableError::NotInClass {
                requested: TableClass::Codd,
                reason: "a variable occurs more than once",
            }),
        }
    }

    /// Build an e-table: rows where variables may repeat (equalities folded into the
    /// table), no global condition, no local conditions.
    pub fn e_table(
        name: impl Into<String>,
        arity: usize,
        rows: impl IntoIterator<Item = Vec<Term>>,
    ) -> Result<Self, TableError> {
        CTable::new(
            name,
            arity,
            Conjunction::truth(),
            rows.into_iter().map(CTuple::of_terms),
        )
    }

    /// Build an i-table: a Codd-table plus a global condition of inequalities only.
    pub fn i_table(
        name: impl Into<String>,
        arity: usize,
        global: Conjunction,
        rows: impl IntoIterator<Item = Vec<Term>>,
    ) -> Result<Self, TableError> {
        if !global.is_inequalities_only() {
            return Err(TableError::NotInClass {
                requested: TableClass::ITable,
                reason: "global condition contains an equality atom",
            });
        }
        let table = CTable::new(name, arity, global, rows.into_iter().map(CTuple::of_terms))?;
        let mut seen: BTreeSet<Variable> = BTreeSet::new();
        for row in &table.body.tuples {
            for v in row.term_variables() {
                if !seen.insert(v) {
                    return Err(TableError::NotInClass {
                        requested: TableClass::ITable,
                        reason: "a variable occurs more than once in the table part",
                    });
                }
            }
        }
        Ok(table)
    }

    /// Build a g-table: repeated variables allowed, any global condition, no local
    /// conditions.
    pub fn g_table(
        name: impl Into<String>,
        arity: usize,
        global: Conjunction,
        rows: impl IntoIterator<Item = Vec<Term>>,
    ) -> Result<Self, TableError> {
        CTable::new(name, arity, global, rows.into_iter().map(CTuple::of_terms))
    }

    /// The table's relation name.
    pub fn name(&self) -> &str {
        &self.body.name
    }

    /// The table's arity.
    pub fn arity(&self) -> usize {
        self.body.arity
    }

    /// The global condition φ_T.
    pub fn global_condition(&self) -> &Conjunction {
        &self.body.global
    }

    /// The rows.
    pub fn tuples(&self) -> &[CTuple] {
        &self.body.tuples
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.body.tuples.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.body.tuples.is_empty()
    }

    /// All variables of the table: in rows, local conditions, and the global condition.
    pub fn variables(&self) -> BTreeSet<Variable> {
        let mut out: BTreeSet<Variable> = self.body.global.variables();
        for t in &self.body.tuples {
            out.extend(t.variables());
        }
        out
    }

    /// All interned constants of the table: rows, local conditions, global condition.
    pub fn syms(&self) -> BTreeSet<pw_relational::Sym> {
        let mut out: BTreeSet<pw_relational::Sym> = self.body.global.syms();
        for t in &self.body.tuples {
            out.extend(t.syms());
        }
        out
    }

    /// All constants of the table: in rows, local conditions, and the global condition.
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.syms()
            .into_iter()
            .map(pw_relational::Sym::constant)
            .collect()
    }

    /// Whether any local condition is non-trivial.
    pub fn has_local_conditions(&self) -> bool {
        self.body.tuples.iter().any(|t| !t.has_trivial_condition())
    }

    /// Whether some variable occurs more than once across the *table part* (rows), i.e.
    /// whether equalities have been folded into the table.
    pub fn has_repeated_variables(&self) -> bool {
        let mut seen: BTreeSet<Variable> = BTreeSet::new();
        for t in &self.body.tuples {
            for v in t.term_variables() {
                if !seen.insert(v) {
                    return true;
                }
            }
        }
        false
    }

    /// Classify the table into the tightest level of the hierarchy it belongs to.
    pub fn classify(&self) -> TableClass {
        if self.has_local_conditions() {
            return TableClass::CTable;
        }
        let repeated = self.has_repeated_variables();
        if self.body.global.is_empty() {
            return if repeated {
                TableClass::ETable
            } else {
                TableClass::Codd
            };
        }
        if self.body.global.is_inequalities_only() && !repeated {
            return TableClass::ITable;
        }
        if self.body.global.is_equalities_only() && !repeated {
            // A pure-equality global condition is an e-table with the equalities not yet
            // folded in; fold-ability is a normalisation concern, the class is ETable only
            // when the equalities involve table variables.  We keep it simple and report
            // GTable; `normalize_equalities` can rewrite it into a genuine e-table.
            return TableClass::GTable;
        }
        TableClass::GTable
    }

    /// Fold global *equalities* into the table: every variable forced to a constant is
    /// replaced by that constant, and variables equated to other variables are unified onto
    /// a single representative.  The resulting table represents the same set of worlds; if
    /// the remaining global condition has only inequalities, the table has moved down the
    /// hierarchy (g-table → i-/e-table).  Returns `None` if the global condition is
    /// unsatisfiable (the represented set is empty).
    pub fn normalize_equalities(&self) -> Option<CTable> {
        if !self.body.global.is_satisfiable() {
            return None;
        }
        // Propagate var = const bindings (ids only — no constant is resolved here).
        let forced = self.body.global.forced_constants()?;
        let forced_map: BTreeMap<Variable, pw_relational::Sym> = forced.into_iter().collect();
        // Unify var = var chains onto a representative (the smallest variable).
        let mut parent: BTreeMap<Variable, Variable> = BTreeMap::new();
        fn find(parent: &mut BTreeMap<Variable, Variable>, v: Variable) -> Variable {
            let p = *parent.get(&v).unwrap_or(&v);
            if p == v {
                v
            } else {
                let root = find(parent, p);
                parent.insert(v, root);
                root
            }
        }
        for atom in self.body.global.atoms() {
            if let Atom::Eq(Term::Var(a), Term::Var(b)) = atom {
                let ra = find(&mut parent, *a);
                let rb = find(&mut parent, *b);
                if ra != rb {
                    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
                    parent.insert(hi, lo);
                }
            }
        }
        // Fully compress once, so term rewriting is a plain lookup.
        let roots: BTreeMap<Variable, Variable> = parent
            .keys()
            .copied()
            .collect::<Vec<_>>()
            .into_iter()
            .map(|v| (v, find(&mut parent, v)))
            .collect();
        let rewrite_term = |t: Term| -> Term {
            match t {
                Term::Var(v) => {
                    let root = *roots.get(&v).unwrap_or(&v);
                    if let Some(c) = forced_map.get(&v).or_else(|| forced_map.get(&root)) {
                        Term::Const(*c)
                    } else {
                        Term::Var(root)
                    }
                }
                c => c,
            }
        };
        let rewrite_conj = |c: &Conjunction| -> Conjunction {
            Conjunction::new(c.atoms().iter().map(|a| match a {
                Atom::Eq(x, y) => Atom::Eq(rewrite_term(*x), rewrite_term(*y)),
                Atom::Neq(x, y) => Atom::Neq(rewrite_term(*x), rewrite_term(*y)),
            }))
        };
        // Keep only the global atoms that are not now trivially true.
        let remaining_global = Conjunction::new(
            rewrite_conj(&self.body.global)
                .atoms()
                .iter()
                .filter(|a| a.trivial_value() != Some(true))
                .copied(),
        );
        let tuples = self
            .body
            .tuples
            .iter()
            .map(|t| CTuple {
                terms: t.terms.iter().map(|&t| rewrite_term(t)).collect(),
                condition: rewrite_conj(&t.condition),
            })
            .collect::<Vec<_>>();
        Some(CTable {
            body: Arc::new(TableBody {
                name: self.body.name.clone(),
                arity: self.body.arity,
                global: remaining_global,
                tuples,
            }),
        })
    }

    /// Rename the table (keeps everything else).
    pub fn renamed(&self, name: impl Into<String>) -> CTable {
        CTable {
            body: Arc::new(TableBody {
                name: name.into(),
                arity: self.body.arity,
                global: self.body.global.clone(),
                tuples: self.body.tuples.clone(),
            }),
        }
    }

    /// Syntactic equality *up to a renaming of variables* (alpha-equivalence).
    ///
    /// Two tables are alpha-equivalent when they have the same name, arity, row order,
    /// constants in the same positions, conditions with atoms in the same order, and there
    /// is a single bijection between their variables that maps one table onto the other.
    /// Because variable identifiers are allocated from a process-wide counter (see
    /// [`pw_condition::VarGen`]), two structurally identical tables built independently are
    /// *not* `==`; this is the comparison to use for "same table modulo which fresh nulls
    /// were handed out", e.g. when checking that a seeded generator is deterministic.
    ///
    /// The check is purely syntactic: it does not decide whether two tables represent the
    /// same set of worlds (that question is a containment both ways).
    pub fn alpha_equivalent(&self, other: &CTable) -> bool {
        if self.body.name != other.body.name
            || self.body.arity != other.body.arity
            || self.body.tuples.len() != other.body.tuples.len()
        {
            return false;
        }
        let mut renaming = VariableBijection::default();
        if !conjunctions_match(&self.body.global, &other.body.global, &mut renaming) {
            return false;
        }
        for (a, b) in self.body.tuples.iter().zip(&other.body.tuples) {
            if a.terms.len() != b.terms.len() {
                return false;
            }
            for (ta, tb) in a.terms.iter().zip(&b.terms) {
                if !terms_match(ta, tb, &mut renaming) {
                    return false;
                }
            }
            if !conjunctions_match(&a.condition, &b.condition, &mut renaming) {
                return false;
            }
        }
        true
    }
}

/// A partial bijection between the variables of two tables, grown as the comparison walks
/// both structures in lockstep.
#[derive(Default)]
struct VariableBijection {
    forward: BTreeMap<Variable, Variable>,
    backward: BTreeMap<Variable, Variable>,
}

impl VariableBijection {
    /// Record (or check) the pairing `a ↔ b`; fails if either side is already paired with a
    /// different variable.
    fn pair(&mut self, a: Variable, b: Variable) -> bool {
        match (self.forward.get(&a), self.backward.get(&b)) {
            (None, None) => {
                self.forward.insert(a, b);
                self.backward.insert(b, a);
                true
            }
            (Some(&fb), Some(&ba)) => fb == b && ba == a,
            _ => false,
        }
    }
}

fn terms_match(a: &Term, b: &Term, renaming: &mut VariableBijection) -> bool {
    match (a, b) {
        (Term::Const(ca), Term::Const(cb)) => ca == cb,
        (Term::Var(va), Term::Var(vb)) => renaming.pair(*va, *vb),
        _ => false,
    }
}

fn conjunctions_match(a: &Conjunction, b: &Conjunction, renaming: &mut VariableBijection) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.atoms()
        .iter()
        .zip(b.atoms().iter())
        .all(|(x, y)| match (x, y) {
            (Atom::Eq(x1, x2), Atom::Eq(y1, y2)) | (Atom::Neq(x1, x2), Atom::Neq(y1, y2)) => {
                terms_match(x1, y1, renaming) && terms_match(x2, y2, renaming)
            }
            _ => false,
        })
}

impl fmt::Display for CTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.body.name, self.classify())?;
        if !self.body.global.is_empty() {
            write!(f, "  ⟨{}⟩", self.body.global)?;
        }
        writeln!(f)?;
        for t in &self.body.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::VarGen;

    fn terms(v: &[Term]) -> Vec<Term> {
        v.to_vec()
    }

    #[test]
    fn codd_table_rejects_repeated_variables() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let ok = CTable::codd("T", 2, [terms(&[Term::Var(x), Term::constant(1)])]);
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().classify(), TableClass::Codd);

        let bad = CTable::codd(
            "T",
            2,
            [
                terms(&[Term::Var(x), Term::constant(1)]),
                terms(&[Term::constant(2), Term::Var(x)]),
            ],
        );
        assert!(matches!(bad, Err(TableError::NotInClass { .. })));
    }

    #[test]
    fn arity_is_checked() {
        let err = CTable::new(
            "T",
            2,
            Conjunction::truth(),
            [CTuple::of_terms([Term::constant(1)])],
        )
        .unwrap_err();
        assert_eq!(
            err,
            TableError::ArityMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn classification_of_each_level() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());

        let codd = CTable::codd("T", 1, [terms(&[Term::Var(x)])]).unwrap();
        assert_eq!(codd.classify(), TableClass::Codd);

        let e = CTable::e_table(
            "T",
            2,
            [
                terms(&[Term::Var(y), Term::constant(1)]),
                terms(&[Term::constant(2), Term::Var(y)]),
            ],
        )
        .unwrap();
        assert_eq!(e.classify(), TableClass::ETable);

        let i = CTable::i_table(
            "T",
            1,
            Conjunction::new([Atom::neq(x, 0)]),
            [terms(&[Term::Var(x)])],
        )
        .unwrap();
        assert_eq!(i.classify(), TableClass::ITable);

        let gt = CTable::g_table(
            "T",
            2,
            Conjunction::new([Atom::neq(x, 0)]),
            [
                terms(&[Term::Var(x), Term::constant(1)]),
                terms(&[Term::constant(2), Term::Var(x)]),
            ],
        )
        .unwrap();
        assert_eq!(gt.classify(), TableClass::GTable);

        let c = CTable::new(
            "T",
            1,
            Conjunction::truth(),
            [CTuple::with_condition(
                [Term::constant(1)],
                Conjunction::new([Atom::eq(x, 1)]),
            )],
        )
        .unwrap();
        assert_eq!(c.classify(), TableClass::CTable);
        assert!(c.has_local_conditions());
    }

    #[test]
    fn i_table_constructor_enforces_restrictions() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let bad_global = CTable::i_table(
            "T",
            1,
            Conjunction::new([Atom::eq(x, 1)]),
            [terms(&[Term::Var(x)])],
        );
        assert!(matches!(bad_global, Err(TableError::NotInClass { .. })));
        let repeated = CTable::i_table(
            "T",
            1,
            Conjunction::new([Atom::neq(x, 1)]),
            [terms(&[Term::Var(x)]), terms(&[Term::Var(x)])],
        );
        assert!(matches!(repeated, Err(TableError::NotInClass { .. })));
    }

    #[test]
    fn variables_and_constants_include_conditions() {
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        let t = CTable::new(
            "T",
            1,
            Conjunction::new([Atom::neq(y, 7)]),
            [CTuple::with_condition(
                [Term::Var(x)],
                Conjunction::new([Atom::eq(z, "a")]),
            )],
        )
        .unwrap();
        assert_eq!(t.variables(), [x, y, z].into());
        assert_eq!(t.constants(), [Constant::int(7), Constant::str("a")].into());
    }

    #[test]
    fn normalize_equalities_folds_forced_constants_and_unifies() {
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        // global: x = y ∧ y = 3 ∧ z ≠ x
        let t = CTable::g_table(
            "T",
            2,
            Conjunction::new([Atom::eq(x, y), Atom::eq(y, 3), Atom::neq(z, x)]),
            [
                vec![Term::Var(x), Term::Var(z)],
                vec![Term::Var(y), Term::constant(0)],
            ],
        )
        .unwrap();
        let n = t.normalize_equalities().unwrap();
        // x and y are now the constant 3.
        assert_eq!(n.tuples()[0].terms[0], Term::constant(3));
        assert_eq!(n.tuples()[1].terms[0], Term::constant(3));
        // The inequality remains (z ≠ 3 after rewriting).
        assert_eq!(n.global_condition().len(), 1);
        assert!(n.global_condition().is_inequalities_only());

        let unsat = CTable::g_table(
            "T",
            1,
            Conjunction::new([Atom::eq(x, 1), Atom::eq(x, 2)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        assert!(unsat.normalize_equalities().is_none());
    }

    #[test]
    fn alpha_equivalence_ignores_variable_identity() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let (x2, y2) = (g.fresh(), g.fresh());
        let build = |a: Variable, b: Variable| {
            CTable::new(
                "T",
                2,
                Conjunction::new([Atom::neq(a, 0)]),
                [
                    CTuple::of_terms([Term::Var(a), Term::constant(1)]),
                    CTuple::with_condition(
                        [Term::constant(2), Term::Var(b)],
                        Conjunction::new([Atom::eq(b, a)]),
                    ),
                ],
            )
            .unwrap()
        };
        let t1 = build(x, y);
        let t2 = build(x2, y2);
        assert_ne!(t1, t2, "distinct fresh variables make the tables unequal");
        assert!(t1.alpha_equivalent(&t2));
        assert!(t2.alpha_equivalent(&t1));
        assert!(t1.alpha_equivalent(&t1));
    }

    #[test]
    fn alpha_equivalence_requires_a_consistent_bijection() {
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        // (x, x) is not alpha-equivalent to (y, z): the repeated variable must map to a
        // repeated variable.
        let repeated = CTable::e_table("T", 2, [vec![Term::Var(x), Term::Var(x)]]).unwrap();
        let distinct = CTable::e_table("T", 2, [vec![Term::Var(y), Term::Var(z)]]).unwrap();
        assert!(!repeated.alpha_equivalent(&distinct));
        assert!(!distinct.alpha_equivalent(&repeated));
        // Different constants, names, or row counts are never alpha-equivalent.
        let other_const = CTable::codd("T", 1, [vec![Term::constant(1)]]).unwrap();
        let same_const = CTable::codd("T", 1, [vec![Term::constant(2)]]).unwrap();
        assert!(!other_const.alpha_equivalent(&same_const));
        assert!(!other_const.alpha_equivalent(&other_const.renamed("S")));
        // A variable never matches a constant.
        let var_row = CTable::codd("T", 1, [vec![Term::Var(x)]]).unwrap();
        assert!(!var_row.alpha_equivalent(&other_const));
    }

    #[test]
    fn display_contains_rows_and_conditions() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::new(
            "T",
            1,
            Conjunction::new([Atom::neq(x, 0)]),
            [CTuple::with_condition(
                [Term::Var(x)],
                Conjunction::new([Atom::eq(x, 1)]),
            )],
        )
        .unwrap();
        let s = t.to_string();
        assert!(s.contains("c-table"));
        assert!(s.contains('≠'));
        assert!(s.contains('‖'));
        assert!(!t.is_empty());
        assert_eq!(t.renamed("S").name(), "S");
    }
}
