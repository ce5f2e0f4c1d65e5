//! The membership problem `MEMB(q)`: is a given complete instance one of the possible
//! worlds represented by (a view of) a c-table database?
//!
//! * [`codd_matching`] — the PTIME algorithm of Theorem 3.1(1) for Codd-tables, a literal
//!   implementation of the paper's reduction to maximum bipartite matching (steps a–e).
//! * [`backtracking`] — a complete NP procedure for arbitrary c-tables: assign every row
//!   either to a fact of the instance or to "absent" (falsifying one atom of its local
//!   condition), propagating equality/inequality constraints through a union–find store.
//!   The search is the engine's `MemberSearch`; the budgeted entry points here drive it
//!   on a sequential [`Engine`].
//! * [`view_membership`] — `MEMB(q)` for views.  When `q` is a vector of (≠-extended)
//!   positive existential queries the view is first converted to an equivalent c-table
//!   database with the c-table algebra and [`backtracking`] is used; otherwise the
//!   canonical-valuation enumeration of Proposition 2.1 decides the problem.
//! * [`decide`] — the dispatching entry point that picks the strategy the paper's upper
//!   bounds prescribe.

use crate::certify::{self, Evidence};
use crate::common::{evaluation_delta, Budget, Decision, DecisionError, Strategy};
use crate::engine::{
    offsets, ChoiceNode, ChoiceSearch, Ctx, Engine, EngineConfig, MemoOp, SlotSet, Verdict,
};
use pw_condition::{Atom, ConstraintSet, Term, Variable};
use pw_core::algebra::AlgebraError;
use pw_core::{CDatabase, CTable, CTuple, Certificate, View};
use pw_relational::{Instance, Sym};
use pw_solvers::matching::{maximum_matching, BipartiteGraph};
use std::collections::{BTreeSet, HashMap};

/// Decide `MEMB(-)`: is `instance` in `rep(db)`?  Dispatches to the matching algorithm for
/// Codd-table databases, to the shard-group decomposition when the coupling graph splits,
/// and to the joint backtracking procedure otherwise.
pub fn decide(db: &CDatabase, instance: &Instance, budget: Budget) -> Result<bool, DecisionError> {
    let engine = Engine::new(EngineConfig::sequential(budget));
    Ok(dispatch(db, instance, &engine, strategy(db))?.0)
}

/// The strategy [`decide`] will use for a database.
pub fn strategy(db: &CDatabase) -> Strategy {
    strategy_with(db, true)
}

/// Run the membership algorithm `strategy` names on the engine, under its budget,
/// limits and memo.  The evidence a certifying engine keeps is the witness binding over
/// `db` — read off the accepting leaf of the backtracking search (per group through the
/// decision memo for [`Strategy::PerShard`]), or built from the matching for
/// [`Strategy::CoddMatching`].
pub(crate) fn dispatch(
    db: &CDatabase,
    instance: &Instance,
    engine: &Engine,
    strategy: Strategy,
) -> Result<Evidence, DecisionError> {
    match strategy {
        Strategy::CoddMatching => Ok(codd_evidence(db, instance, engine)),
        Strategy::PerShard { .. } => per_shard_with(db, instance, engine),
        _ => backtracking_evidence(db, instance, engine, &engine.ctx()),
    }
}

/// [`strategy`] with the shard-group decomposition toggled — engine-backed callers pass
/// [`crate::EngineConfig::per_shard`] so the label always matches the path that runs,
/// and the joint uniqueness complement passes `false`.
pub(crate) fn strategy_with(db: &CDatabase, per_shard: bool) -> Strategy {
    if db.is_decoupled_codd() {
        Strategy::CoddMatching
    } else {
        let groups = db.shard_groups().len();
        if per_shard && groups > 1 {
            Strategy::PerShard { groups }
        } else {
            Strategy::Backtracking
        }
    }
}

/// `MEMB(-)` decomposed over the shard groups: `rep(db)` is the product of the groups'
/// representations (variable-disjoint groups choose their valuations independently), so
/// `instance ∈ rep(db)` iff each group's slice of the instance is a member of that
/// group's representation — a conjunction of small searches instead of one joint tree
/// that re-explores every earlier group's row assignments whenever a later group fails.
/// Each group dispatches to its own best algorithm (matching for decoupled-Codd groups,
/// backtracking otherwise); one budget pool is drained by the whole conjunction, and the
/// per-group verdicts go through the engine's decision memo, so a re-decide after a
/// delta ([`pw_core::CDatabase::apply`]) replays the untouched groups and only
/// re-searches the dirty ones.
pub(crate) fn per_shard_with(
    db: &CDatabase,
    instance: &Instance,
    engine: &Engine,
) -> Result<Evidence, DecisionError> {
    engine.per_shard_conjunction(MemoOp::Member, db, instance, |sub, part, ctx| {
        if sub.is_decoupled_codd() {
            Ok(codd_evidence(sub, part, engine))
        } else {
            backtracking_evidence(sub, part, engine, ctx)
        }
    })
}

/// The matching algorithm with its evidence: the witness built from the matching on a
/// certifying engine, the bare answer otherwise.
fn codd_evidence(db: &CDatabase, instance: &Instance, engine: &Engine) -> Evidence {
    if engine.config().certify {
        let w = certify::codd_membership_witness(db, instance);
        (w.is_some(), w)
    } else {
        (codd_matching(db, instance), None)
    }
}

/// The backtracking search with its evidence read off the accepting leaf.
fn backtracking_evidence(
    db: &CDatabase,
    instance: &Instance,
    engine: &Engine,
    ctx: &Ctx,
) -> Result<Evidence, DecisionError> {
    let verdict = backtracking_ctx(db, instance, engine, ctx)?;
    Ok(certify::read_off(verdict, db, instance))
}

/// Quick structural check shared by all algorithms: the instance may not populate relations
/// the database does not have, and arities must agree.
pub(crate) fn schema_compatible(db: &CDatabase, instance: &Instance) -> bool {
    for (name, rel) in instance.iter() {
        if rel.is_empty() {
            continue;
        }
        match db.table(name) {
            Some(t) if t.arity() == rel.arity() => {}
            _ => return false,
        }
    }
    true
}

/// Theorem 3.1(1): membership for Codd-tables via maximum bipartite matching.
///
/// For every table independently (Codd-tables have no conditions and no shared variables):
/// left vertices are the instance facts `uᵢ`, right vertices the table rows `vⱼ`, with an
/// edge when some valuation maps the row onto the fact.  The instance is a possible world
/// iff (c) every row is connected to at least one fact and (e) a maximum matching saturates
/// the facts.
pub fn codd_matching(db: &CDatabase, instance: &Instance) -> bool {
    if !schema_compatible(db, instance) {
        return false;
    }
    for table in db.tables() {
        let rel = instance.relation_or_empty(table.name(), table.arity());
        // Intern the facts once at the front door; the quadratic edge loop below then
        // compares machine-word ids only.
        let facts: Vec<Vec<Sym>> = rel
            .iter()
            .map(|f| crate::engine::intern_fact(db, f))
            .collect();
        // Step (a): the two node sets.  Steps (b)-(c): edges and the "every row connected"
        // check.  Step (d)-(e): maximum matching must have cardinality n = #facts.
        let mut graph = BipartiteGraph::new(facts.len(), table.len());
        for (j, row) in table.tuples().iter().enumerate() {
            let mut connected = false;
            for (i, fact) in facts.iter().enumerate() {
                if row_unifies_with_fact(row.terms.as_slice(), fact) {
                    graph.add_edge(i, j);
                    connected = true;
                }
            }
            if !connected {
                // Step (c): a row that cannot be instantiated to any fact of the instance
                // would necessarily produce a fact outside it.
                return false;
            }
        }
        if table.is_empty() && !facts.is_empty() {
            return false;
        }
        let matching = maximum_matching(&graph);
        if matching.cardinality() != facts.len() {
            return false;
        }
    }
    true
}

/// Can some valuation map this (Codd) row onto the (interned) fact?  Because every
/// variable occurs at most once in a Codd-table, positions are independent: constants must
/// match literally and variables can take any value.
pub(crate) fn row_unifies_with_fact(terms: &[Term], fact: &[Sym]) -> bool {
    terms.len() == fact.len()
        && terms.iter().zip(fact.iter()).all(|(t, c)| match t {
            Term::Const(tc) => tc == c,
            Term::Var(_) => true,
        })
}

/// A complete NP procedure for `MEMB(-)` on arbitrary c-table databases.
///
/// Every row is either mapped onto an instance fact of its relation — adding the equalities
/// `term_i = fact_i` and the row's local condition to the constraint store — or declared
/// absent by falsifying one atom of its local condition.  A candidate assignment is a
/// witness when the store stays satisfiable and every instance fact is covered by at least
/// one row.  The search is exponential in the worst case (the problem is NP-complete
/// already for e-tables and i-tables, Theorem 3.1(2,3)) but the constraint propagation
/// prunes heavily on practical inputs.
pub fn backtracking(
    db: &CDatabase,
    instance: &Instance,
    budget: Budget,
) -> Result<bool, DecisionError> {
    let engine = Engine::new(EngineConfig::sequential(budget));
    Ok(backtracking_ctx(db, instance, &engine, &engine.ctx())?.found)
}

// -- the engine-scheduled backtracking path ---------------------------------------------

/// A row of the flattened row list.  Rows carry the *index* of their table so the search
/// never resolves a relation name — machine-word addressing only (the boundary
/// resolution happened in `schema_compatible` and the fact-list build).
struct MemberRow<'a> {
    table: &'a CTable,
    row_idx: usize,
    /// Position of `table` in the database, i.e. the fact-list slot.
    t_idx: usize,
}

/// A node of [`MemberSearch`]: which rows are assigned and which facts are covered.
#[derive(Clone)]
struct MemberMeta {
    /// Rows assigned so far (slots filled).
    assigned: SlotSet,
    /// How many rows are assigned.
    rows: usize,
    /// Facts covered so far, numbered database-wide ([`MemberSearch::fact_base`]).
    covered: SlotSet,
    /// How many distinct facts are covered (so the leaf test is O(1)).
    facts: usize,
}

/// [`backtracking`] expressed as a [`ChoiceSearch`], so the engine's work-stealing
/// scheduler can parallelize a *single* condition-coupled group.  The rows are the
/// slots; a row's branches are its Option-1 facts (map the row onto fact `k` of its
/// relation) followed by its Option-2 absence atoms (falsify atom `k` of its local
/// condition).  The engine fills the most constrained row first, so the order rows
/// are assigned in is the search's own, not the table's.  A node is pruned when the
/// open rows cannot cover the uncovered facts — each covers at most one.
struct MemberSearch<'a> {
    rows: Vec<MemberRow<'a>>,
    /// Interned instance facts per table position.
    fact_lists: Vec<Vec<Vec<Sym>>>,
    /// Per table position, the database-wide number of its first fact.
    fact_base: Vec<usize>,
    total_facts: usize,
    /// Per row, the global-condition atoms that mention its variables — the fail-first
    /// tie-break: a row entangled in more global atoms is refuted sooner.
    weights: Vec<usize>,
}

impl MemberSearch<'_> {
    fn row(&self, slot: usize) -> (&CTuple, usize) {
        let row_ref = &self.rows[slot];
        (&row_ref.table.tuples()[row_ref.row_idx], row_ref.t_idx)
    }

    fn root(&self) -> MemberMeta {
        MemberMeta {
            assigned: SlotSet::empty(self.rows.len()),
            rows: 0,
            covered: SlotSet::empty(self.total_facts),
            facts: 0,
        }
    }
}

impl ChoiceSearch for MemberSearch<'_> {
    type Meta = MemberMeta;

    fn is_leaf(&self, meta: &MemberMeta) -> bool {
        meta.rows == self.rows.len() && meta.facts == self.total_facts
    }

    fn open_slots<'m>(&'m self, meta: &'m MemberMeta) -> impl Iterator<Item = usize> + 'm {
        // Pruning: each open row covers at most one uncovered fact.
        let viable = self.total_facts - meta.facts <= self.rows.len() - meta.rows;
        let end = if viable { self.rows.len() } else { 0 };
        (0..end).filter(|&r| !meta.assigned.contains(r))
    }

    fn weight(&self, slot: usize) -> usize {
        self.weights[slot]
    }

    fn branch_count(&self, _: &MemberMeta, slot: usize) -> usize {
        let (row, t_idx) = self.row(slot);
        self.fact_lists[t_idx].len() + row.condition.len()
    }

    fn assert_branch(
        &self,
        store: &mut ConstraintSet,
        _: &MemberMeta,
        slot: usize,
        k: usize,
    ) -> bool {
        let (row, t_idx) = self.row(slot);
        let facts = &self.fact_lists[t_idx];
        if let Some(fact) = facts.get(k) {
            // Option 1: map the row onto fact `k` of its relation.
            store.assert_conjunction(&row.condition)
                && row
                    .terms
                    .iter()
                    .zip(fact.iter())
                    .all(|(&term, &value)| store.assert_eq(term, Term::Const(value)))
        } else {
            // Option 2: the row is absent — falsify one atom of its local condition.
            match row.condition.atoms()[k - facts.len()] {
                Atom::Eq(a, b) => store.assert_neq(a, b),
                Atom::Neq(a, b) => store.assert_eq(a, b),
            }
        }
    }

    fn child(&self, meta: &MemberMeta, slot: usize, k: usize) -> MemberMeta {
        let t_idx = self.rows[slot].t_idx;
        // The fact an Option-1 branch newly covers, if any.
        let fact = (k < self.fact_lists[t_idx].len())
            .then(|| self.fact_base[t_idx] + k)
            .filter(|&fact| !meta.covered.contains(fact));
        MemberMeta {
            assigned: meta.assigned.with(slot),
            rows: meta.rows + 1,
            covered: fact.map_or_else(|| meta.covered.clone(), |fact| meta.covered.with(fact)),
            facts: meta.facts + usize::from(fact.is_some()),
        }
    }
}

/// [`backtracking`] driven by the engine's scheduler (work-stealing by default, so a
/// single condition-coupled group parallelizes within its one tree) against an
/// externally owned context, so the per-shard conjunction can drain one budget pool
/// across consecutive group searches; the [`Verdict`] carries the accepting leaf when
/// the engine certifies.
pub(crate) fn backtracking_ctx(
    db: &CDatabase,
    instance: &Instance,
    engine: &Engine,
    ctx: &Ctx,
) -> Result<Verdict, DecisionError> {
    if !schema_compatible(db, instance) {
        return Ok(Verdict::NOT_FOUND);
    }
    let Some(store) = engine.base_store(db) else {
        return Ok(Verdict::NOT_FOUND);
    };
    let mut rows: Vec<MemberRow<'_>> = Vec::new();
    for (t_idx, table) in db.tables().iter().enumerate() {
        for row_idx in 0..table.len() {
            rows.push(MemberRow {
                table,
                row_idx,
                t_idx,
            });
        }
    }
    let fact_lists: Vec<Vec<Vec<Sym>>> = db
        .tables()
        .iter()
        .map(|table| {
            instance
                .relation_or_empty(table.name(), table.arity())
                .iter()
                .map(|f| crate::engine::intern_fact(db, f))
                .collect()
        })
        .collect();
    let fact_base = offsets(fact_lists.iter().map(Vec::len));
    let total_facts = fact_lists.iter().map(Vec::len).sum();
    let weights = global_atom_counts(db, &rows);
    let search = MemberSearch {
        rows,
        fact_lists,
        fact_base,
        total_facts,
        weights,
    };
    let root = ChoiceNode {
        store,
        meta: search.root(),
    };
    engine.drive_choices(&search, root, ctx)
}

/// Per row, how many global-condition atoms of the database mention one of its
/// variables ([`MemberSearch::weights`]).
fn global_atom_counts(db: &CDatabase, rows: &[MemberRow<'_>]) -> Vec<usize> {
    let mut atoms_of: HashMap<Variable, Vec<usize>> = HashMap::new();
    let globals = db
        .tables()
        .iter()
        .flat_map(|t| t.global_condition().atoms());
    for (i, atom) in globals.enumerate() {
        for var in atom.variables() {
            atoms_of.entry(var).or_default().push(i);
        }
    }
    rows.iter()
        .map(|r| {
            let mut atoms: Vec<usize> = r.table.tuples()[r.row_idx]
                .variables()
                .iter()
                .filter_map(|var| atoms_of.get(var))
                .flatten()
                .copied()
                .collect();
            atoms.sort_unstable();
            atoms.dedup();
            atoms.len()
        })
        .collect()
}

/// `MEMB(q)` for a view.
///
/// If every output of the query is UCQ-shaped the view is converted to an equivalent
/// c-table database (polynomial, Theorem 5.2(1)'s construction) and [`backtracking`]
/// decides membership; otherwise we fall back to the canonical-valuation enumeration of
/// Proposition 2.1: guess a valuation σ with values in Δ ∪ Δ′ and check `q(σ(𝒯)) = I₀`.
pub fn view_membership(
    view: &View,
    instance: &Instance,
    budget: Budget,
) -> Result<bool, DecisionError> {
    view_membership_with(
        view,
        instance,
        &Engine::new(EngineConfig::sequential(budget)),
    )
    .answer
}

/// [`view_membership`] on an explicit [`Engine`]: the generic fallback (canonical
/// valuation enumeration) runs on the engine's worker pool, and the identity and
/// UCQ-convertible paths drive the NP backtracking search through the engine's
/// work-stealing scheduler — a single condition-coupled group parallelizes within its
/// one search tree.
///
/// Returns a [`Decision`] carrying the answer next to the [`Strategy`] that produced
/// (or attempted) it, so the strategy survives a budget-exceeded search — the batched
/// front door labels failures without re-deriving the plan.  The view→c-table
/// conversion behind the dispatch runs exactly once per call.
///
/// On a certifying engine ([`EngineConfig::certify`](crate::EngineConfig::certify)) a
/// *yes* carries the witness valuation the accepting search branch corresponds to
/// (filled to a total valuation of `view.db`; for converted views the c-table algebra
/// guarantees `q(σ(view.db)) = σ(converted)` for every total σ, so a witness over the
/// converted database certifies the view claim); a *no* carries
/// [`Certificate::EmptyRep`] or rests on the exhaustive search
/// ([`Certificate::Exhaustive`]).
pub fn view_membership_with(view: &View, instance: &Instance, engine: &Engine) -> Decision {
    let (strategy, converted) = plan(view, engine.config().per_shard);
    let decided = match converted {
        Some(Ok(db)) => dispatch(&db, instance, engine, strategy),
        // Some output relation is structurally unproducible: no world matches.
        Some(Err(_)) => Ok((false, None)),
        None => {
            let vars: Vec<_> = view.db.variables().into_iter().collect();
            let mut delta = evaluation_delta(&view.db, instance.active_domain());
            delta.extend(view.query.constants());
            let certify = engine.config().certify;
            engine
                .find_canonical_valuation(view.db.symbols(), &vars, &delta, |valuation| {
                    let world = valuation.world_of(&view.db)?;
                    let output = view.query.eval(&world);
                    output
                        .same_facts(instance)
                        .then(|| certify.then(|| valuation.iter().collect()))
                })
                .map(|found| (found.is_some(), found.flatten()))
        }
    };
    certify::decision(engine, strategy, decided, |answer, w| {
        if answer {
            let avoid = certify::avoid_set(&view.db, instance);
            let w = certify::fill_unassigned(&view.db, w?, &avoid);
            Some(Certificate::witness(certify::valuation(w)))
        } else {
            Some(certify::no_world_cert(&view.db))
        }
    })
}

/// The dispatch decision plus (when applicable) the one-time view→c-table conversion:
/// an identity view dispatches like [`decide`] on the converted database, any other
/// UCQ-convertible view runs the backtracking search (fanned out per shard group when
/// the converted database's coupling graph splits and `per_shard` is enabled), and the
/// rest falls back to canonical-valuation enumeration.
fn plan(view: &View, per_shard: bool) -> (Strategy, Option<Result<CDatabase, AlgebraError>>) {
    let Some(converted) = view.to_ctables() else {
        return (Strategy::WorldEnumeration, None);
    };
    let strategy = match &converted {
        Ok(db) if view.query.is_identity() => strategy_with(db, per_shard),
        Ok(db) if per_shard && db.shard_groups().len() > 1 => Strategy::PerShard {
            groups: db.shard_groups().len(),
        },
        _ => Strategy::Backtracking,
    };
    (strategy, Some(converted))
}

/// The strategy [`view_membership`] will use.
pub fn view_strategy(view: &View) -> Strategy {
    plan(view, true).0
}

/// Exhaustive reference implementation (for cross-validation tests): enumerate every
/// possible world within a budget and compare.
pub fn by_enumeration(
    db: &CDatabase,
    instance: &Instance,
    budget: usize,
) -> Result<bool, DecisionError> {
    let extra: BTreeSet<_> = instance.active_domain();
    let worlds = pw_core::rep::PossibleWorlds::new(db)
        .with_extra_constants(extra)
        .enumerate(budget)
        .map_err(|_| DecisionError::BudgetExceeded)?;
    Ok(worlds.iter().any(|w| w.same_facts(instance)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::{Conjunction, VarGen};
    use pw_core::CTuple;
    use pw_query::{qatom, ConjunctiveQuery, QTerm, Query, QueryDef, Ucq};
    use pw_relational::rel;

    fn budget() -> Budget {
        Budget(1_000_000)
    }

    /// The Fig. 3 example: I₀ and T of arity 3, where I₀ ∈ rep(T).
    fn fig3() -> (CDatabase, Instance) {
        let mut g = VarGen::new();
        let x: Vec<_> = (0..7).map(|_| g.fresh()).collect();
        // T = {(x1,1,x2), (x3,2,3), (1,x4,x5), (1,2,3), (1,2,x6)}
        let t = CTable::codd(
            "R",
            3,
            [
                vec![Term::Var(x[1]), Term::constant(1), Term::Var(x[2])],
                vec![Term::Var(x[3]), Term::constant(2), Term::constant(3)],
                vec![Term::constant(1), Term::Var(x[4]), Term::Var(x[5])],
                vec![Term::constant(1), Term::constant(2), Term::constant(3)],
                vec![Term::constant(1), Term::constant(2), Term::Var(x[6])],
            ],
        )
        .unwrap();
        // I0 = {(1,1,2), (3,2,3), (1,4,5), (1,2,3)}
        let i0 = Instance::single("R", rel![[1, 1, 2], [3, 2, 3], [1, 4, 5], [1, 2, 3]]);
        (CDatabase::single(t), i0)
    }

    #[test]
    fn fig3_membership_holds_via_matching() {
        let (db, i0) = fig3();
        assert_eq!(strategy(&db), Strategy::CoddMatching);
        assert!(codd_matching(&db, &i0));
        assert!(decide(&db, &i0, budget()).unwrap());
        // Cross-check against backtracking and enumeration.
        assert!(backtracking(&db, &i0, budget()).unwrap());
    }

    #[test]
    fn matching_rejects_non_members() {
        let (db, _) = fig3();
        // An instance with a fact no row can produce: every row requires either a leading 1
        // or a fixed value in the second or third position, and (5, 9, 9) matches none.
        let bad = Instance::single("R", rel![[5, 9, 9], [1, 2, 3], [3, 2, 3], [1, 1, 2]]);
        assert!(!codd_matching(&db, &bad));
        assert!(!backtracking(&db, &bad, budget()).unwrap());
        // Too few facts: the all-constant row (1,2,3) forces that fact to be present.
        let missing = Instance::single("R", rel![[1, 1, 2], [3, 2, 3], [1, 4, 5], [9, 9, 9]]);
        assert!(!codd_matching(&db, &missing));
    }

    #[test]
    fn matching_handles_fewer_facts_than_rows() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        // T = {(x), (y), (1)}: worlds have between 1 and 3 facts and always contain (1).
        let t = CTable::codd(
            "R",
            1,
            [
                vec![Term::Var(x)],
                vec![Term::Var(y)],
                vec![Term::constant(1)],
            ],
        )
        .unwrap();
        let db = CDatabase::single(t);
        assert!(codd_matching(&db, &Instance::single("R", rel![[1]])));
        assert!(codd_matching(&db, &Instance::single("R", rel![[1], [2]])));
        assert!(codd_matching(
            &db,
            &Instance::single("R", rel![[1], [2], [3]])
        ));
        assert!(
            !codd_matching(&db, &Instance::single("R", rel![[2], [3]])),
            "the constant row forces (1)"
        );
        assert!(
            !codd_matching(&db, &Instance::single("R", rel![[1], [2], [3], [4]])),
            "more facts than rows"
        );
    }

    #[test]
    fn matching_and_backtracking_agree_with_enumeration_on_codd_tables() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::codd(
            "R",
            2,
            [
                vec![Term::constant(0), Term::Var(x)],
                vec![Term::Var(y), Term::constant(1)],
            ],
        )
        .unwrap();
        let db = CDatabase::single(t);
        let candidates = [
            Instance::single("R", rel![[0, 1]]),
            Instance::single("R", rel![[0, 0], [0, 1]]),
            Instance::single("R", rel![[0, 2], [3, 1]]),
            Instance::single("R", rel![[0, 2], [3, 2]]),
            Instance::single("R", rel![[1, 1]]),
            Instance::new(),
        ];
        for inst in &candidates {
            let reference = by_enumeration(&db, inst, 100_000).unwrap();
            assert_eq!(
                codd_matching(&db, inst),
                reference,
                "matching vs enumeration on {inst}"
            );
            assert_eq!(
                backtracking(&db, inst, budget()).unwrap(),
                reference,
                "backtracking vs enumeration on {inst}"
            );
        }
    }

    #[test]
    fn etable_membership_requires_consistent_repeats() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // e-table: {(x, x)} — worlds are {(c, c)}.
        let t = CTable::e_table("R", 2, [vec![Term::Var(x), Term::Var(x)]]).unwrap();
        let db = CDatabase::single(t);
        assert_eq!(strategy(&db), Strategy::Backtracking);
        assert!(backtracking(&db, &Instance::single("R", rel![[3, 3]]), budget()).unwrap());
        assert!(!backtracking(&db, &Instance::single("R", rel![[3, 4]]), budget()).unwrap());
    }

    #[test]
    fn itable_membership_respects_global_inequalities() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::i_table(
            "R",
            1,
            Conjunction::new([Atom::neq(x, y)]),
            [vec![Term::Var(x)], vec![Term::Var(y)]],
        )
        .unwrap();
        let db = CDatabase::single(t);
        assert!(backtracking(&db, &Instance::single("R", rel![[1], [2]]), budget()).unwrap());
        assert!(
            !backtracking(&db, &Instance::single("R", rel![[1]]), budget()).unwrap(),
            "x ≠ y forbids collapsing the two rows onto one fact"
        );
    }

    #[test]
    fn ctable_membership_uses_absence_branches() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // Row (1) present iff x = 0; row (2) present iff x ≠ 0.
        let t = CTable::new(
            "R",
            1,
            Conjunction::truth(),
            [
                CTuple::with_condition([Term::constant(1)], Conjunction::new([Atom::eq(x, 0)])),
                CTuple::with_condition([Term::constant(2)], Conjunction::new([Atom::neq(x, 0)])),
            ],
        )
        .unwrap();
        let db = CDatabase::single(t);
        assert!(backtracking(&db, &Instance::single("R", rel![[1]]), budget()).unwrap());
        assert!(backtracking(&db, &Instance::single("R", rel![[2]]), budget()).unwrap());
        assert!(
            !backtracking(&db, &Instance::single("R", rel![[1], [2]]), budget()).unwrap(),
            "the two rows are mutually exclusive"
        );
        assert!(
            !backtracking(&db, &Instance::new(), budget()).unwrap(),
            "one of the two rows is always present"
        );
    }

    #[test]
    fn schema_mismatches_are_rejected() {
        let (db, _) = fig3();
        let other = Instance::single("S", rel![[1]]);
        assert!(!codd_matching(&db, &other));
        assert!(!backtracking(&db, &other, budget()).unwrap());
        let wrong_arity = Instance::single("R", rel![[1, 2]]);
        assert!(!codd_matching(&db, &wrong_arity));
    }

    #[test]
    fn view_membership_via_ctable_conversion() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // T = {(1, x)}, q(b) :- T(a, b).  Worlds of the view: {(c)} for any c.
        let t = CTable::codd("T", 2, [vec![Term::constant(1), Term::Var(x)]]).unwrap();
        let db = CDatabase::single(t);
        let q = Query::single(
            "Q",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("b")],
                [qatom!("T"; "a", "b")],
            ))),
        );
        let view = View::new(q, db);
        assert_eq!(view_strategy(&view), Strategy::Backtracking);
        assert!(view_membership(&view, &Instance::single("Q", rel![[7]]), budget()).unwrap());
        assert!(
            !view_membership(&view, &Instance::single("Q", rel![[7], [8]]), budget()).unwrap(),
            "a single row cannot produce two facts"
        );
    }

    #[test]
    fn view_membership_fo_fallback() {
        use pw_query::{FoQuery, Formula};
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::codd("T", 1, [vec![Term::Var(x)], vec![Term::constant(1)]]).unwrap();
        let db = CDatabase::single(t);
        // q = {1 | ∃a T(a) ∧ a ≠ 1}: output {(1)} iff the world has an element other than 1.
        let q = Query::single(
            "Q",
            QueryDef::Fo(FoQuery::boolean(
                1,
                Formula::exists(
                    ["a"],
                    Formula::and([Formula::atom("T", [QTerm::var("a")]), Formula::neq("a", 1)]),
                ),
            )),
        );
        let view = View::new(q, db);
        assert_eq!(view_strategy(&view), Strategy::WorldEnumeration);
        assert!(view_membership(&view, &Instance::single("Q", rel![[1]]), budget()).unwrap());
        let empty_output = Instance::single("Q", pw_relational::Relation::empty(1));
        assert!(view_membership(&view, &empty_output, budget()).unwrap());
        assert!(
            !view_membership(&view, &Instance::single("Q", rel![[2]]), budget()).unwrap(),
            "the boolean query only ever outputs (1)"
        );
    }

    #[test]
    fn budget_exceeded_is_reported() {
        let (db, i0) = fig3();
        assert_eq!(
            backtracking(&db, &i0, Budget(2)),
            Err(DecisionError::BudgetExceeded)
        );
    }

    #[test]
    fn empty_database_and_empty_instance() {
        let db = CDatabase::default();
        assert!(codd_matching(&db, &Instance::new()));
        assert!(backtracking(&db, &Instance::new(), budget()).unwrap());
        assert!(!codd_matching(&db, &Instance::single("R", rel![[1]])));
    }

    #[test]
    fn tuple_check_no_fact_can_absorb_extra_rows_of_all_constants() {
        // A table with a constant row not matched by the instance forces rejection even
        // when all instance facts are coverable (step (c) of the paper's algorithm).
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::codd("R", 1, [vec![Term::Var(x)], vec![Term::constant(9)]]).unwrap();
        let db = CDatabase::single(t);
        assert!(!codd_matching(&db, &Instance::single("R", rel![[1]])));
        assert!(codd_matching(&db, &Instance::single("R", rel![[1], [9]])));
    }
}
