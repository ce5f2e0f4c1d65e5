//! Certificate extraction for certified decides: turning what a decision search found
//! into the **total satisfying valuation** a [`pw_core::Certificate`] carries.
//!
//! There is no second search here.  Under [`crate::EngineConfig::certify`] every
//! constraint search of the engine keeps the store of the accepting leaf that decided it
//! (a [`Verdict`]'s `leaf`), so certified and uncertified decides walk the same tree and
//! charge the same budget; this module only completes that store.  The polynomial
//! matching algorithms (Theorems 3.1(1) and 5.1(1)) have no search tree, so their
//! witnesses are built from the matching itself ([`codd_membership_witness`],
//! [`codd_possibility_witness`]).  The independent checker (`pw_check`) re-validates every
//! valuation produced here.
//!
//! Extraction convention: at an accepting leaf the constraint store holds everything
//! the branch decided (row↦fact equalities, falsified condition atoms, the global
//! conditions), and [`pw_condition::ConstraintSet::complete_valuation`] extends it to a
//! *total* valuation of the database's variables — forced variables take their forced
//! value, free variables take pairwise-distinct fresh constants outside the avoid set
//! (the database's constants plus the request's active domain, so a fresh value can
//! never collide with anything the claim compares against).  Bindings come back as
//! `(Variable, Sym)` pairs in the database's symbol context (the handle-threading
//! rule), merged across shard groups by plain union — groups are variable-disjoint.

use crate::common::{Decision, DecisionError, Strategy};
use crate::engine::{intern_fact, Engine, Verdict};
use crate::membership::{row_unifies_with_fact, schema_compatible};
use pw_condition::{ConstraintSet, Term, Variable};
use pw_core::{CDatabase, Certificate, Valuation, View};
use pw_relational::{Constant, Instance, Sym};
use pw_solvers::matching::{maximum_matching, BipartiteGraph};
use std::collections::BTreeSet;

/// A total assignment of a database's variables, in that database's symbol context.
pub(crate) type Binding = Vec<(Variable, Sym)>;

/// What a search decided, with its evidence when the engine certifies: the binding
/// under which the search's claim holds (a witness for a found covering or membership,
/// a counter-world for a found missing fact or escaping row).  Always `None` on an
/// uncertified engine.
pub(crate) type Evidence = (bool, Option<Binding>);

/// Assemble a problem's [`Decision`] from what its search decided and the evidence it
/// kept (an [`Evidence`] binding, or containment's per-strategy certificate): on a
/// certifying engine `certificate` turns the answer and that evidence into the
/// certificate; otherwise it never runs, so an uncertified decide builds none.
pub(crate) fn decision<E>(
    engine: &Engine,
    strategy: Strategy,
    decided: Result<(bool, E), DecisionError>,
    certificate: impl FnOnce(bool, E) -> Option<Certificate>,
) -> Decision {
    match decided {
        Ok((answer, w)) => {
            let certificate = engine
                .config()
                .certify
                .then(|| certificate(answer, w))
                .flatten();
            Decision::certified(Ok(answer), strategy, certificate)
        }
        Err(e) => Decision::of(Err(e), strategy),
    }
}

/// Turn a binding into the [`Valuation`] a certificate carries.
pub(crate) fn valuation(pairs: Binding) -> Valuation {
    Valuation::from_pairs(pairs)
}

/// The constants a fresh completion must avoid: everything the claim could compare
/// against — the database's own constants (terms *and* conditions) plus the request's
/// active domain.
pub(crate) fn avoid_set(db: &CDatabase, request: &Instance) -> BTreeSet<Constant> {
    let mut avoid = db.constants();
    avoid.extend(request.active_domain());
    avoid
}

/// Extend an accepting leaf's store to a total valuation of `db`'s variables,
/// re-interned through the database's own handle.
pub(crate) fn complete(
    mut leaf: ConstraintSet,
    db: &CDatabase,
    avoid: &BTreeSet<Constant>,
) -> Option<Binding> {
    let pairs = leaf.complete_valuation(db.variables(), avoid)?;
    Some(pairs.into_iter().map(|(v, c)| (v, db.intern(&c))).collect())
}

/// Read a certified search's answer and evidence off its [`Verdict`]: the verdict, and
/// the accepting leaf completed over `db` (avoiding [`avoid_set`]`(db, request)`) when
/// there is one.  Membership's leaf yields a world that is *exactly* the instance (mapped
/// rows produce their facts, absent rows keep a falsified atom, and fresh values can
/// neither resurrect an absent row nor leak a new fact into the comparison domain);
/// covering's yields a world containing the facts; missing's and escape's a world that
/// misses a fact or has one outside the instance.
pub(crate) fn read_off(
    verdict: Verdict,
    db: &CDatabase,
    request: &Instance,
) -> (bool, Option<Binding>) {
    let binding = verdict
        .leaf
        .and_then(|leaf| complete(leaf, db, &avoid_set(db, request)));
    (verdict.found, binding)
}

/// A generic satisfying valuation of the database — any world of `rep(db)`, with every
/// unforced variable frozen to a distinct fresh constant.  `None` iff the globals are
/// unsatisfiable.
pub(crate) fn base_completion(
    engine: &Engine,
    db: &CDatabase,
    avoid: &BTreeSet<Constant>,
) -> Option<Binding> {
    complete(engine.base_store(db)?, db, avoid)
}

/// The generic world of a view — the base completion of `view.db`, every unforced
/// variable a distinct fresh constant outside the request's domain — when the query's
/// answer on it satisfies `claim`.  The polynomial no-paths' implicit counter-examples
/// are generic worlds; checking the claim locally keeps a wrong guess from becoming a
/// certificate.
pub(crate) fn generic_world(
    engine: &Engine,
    view: &View,
    request: &Instance,
    claim: impl Fn(&Instance) -> bool,
) -> Option<Valuation> {
    let v = valuation(base_completion(
        engine,
        &view.db,
        &avoid_set(&view.db, request),
    )?);
    let world = v.world_of(&view.db)?;
    claim(&view.query.eval(&world)).then_some(v)
}

/// Assign distinct fresh constants (outside `avoid`) to every database variable the
/// binding leaves unassigned, so the valuation is total and [`Valuation::world_of`]
/// succeeds.
pub(crate) fn fill_unassigned(
    db: &CDatabase,
    mut pairs: Binding,
    avoid: &BTreeSet<Constant>,
) -> Binding {
    let assigned: BTreeSet<Variable> = pairs.iter().map(|(v, _)| *v).collect();
    let missing: Vec<Variable> = db
        .variables()
        .into_iter()
        .filter(|v| !assigned.contains(v))
        .collect();
    let fresh = pw_relational::domain::fresh_constants(avoid, missing.len());
    for (v, c) in missing.into_iter().zip(fresh) {
        pairs.push((v, db.intern(&c)));
    }
    pairs
}

// ---------------------------------------------------------------------------------------
// Codd matching: witnesses for the polynomial membership / possibility algorithms.
// ---------------------------------------------------------------------------------------

/// A membership witness from the matching algorithm (Theorem 3.1(1)): matched rows take
/// their fact's values; an unmatched row is folded onto *some* fact it unifies with
/// (one exists — the algorithm rejects otherwise), so its production stays inside the
/// instance.  Codd variables occur once each, so the per-position assignments never
/// conflict and jointly cover the database's variables.
pub(crate) fn codd_membership_witness(db: &CDatabase, instance: &Instance) -> Option<Binding> {
    if !schema_compatible(db, instance) {
        return None;
    }
    let mut pairs: Binding = Vec::new();
    for table in db.tables() {
        let rel = instance.relation_or_empty(table.name(), table.arity());
        let facts: Vec<Vec<Sym>> = rel.iter().map(|f| intern_fact(db, f)).collect();
        let mut graph = BipartiteGraph::new(facts.len(), table.len());
        let mut first_unifier: Vec<Option<usize>> = vec![None; table.len()];
        for (j, row) in table.tuples().iter().enumerate() {
            for (i, fact) in facts.iter().enumerate() {
                if row_unifies_with_fact(&row.terms, fact) {
                    graph.add_edge(i, j);
                    if first_unifier[j].is_none() {
                        first_unifier[j] = Some(i);
                    }
                }
            }
            first_unifier[j]?;
        }
        if table.is_empty() && !facts.is_empty() {
            return None;
        }
        let matching = maximum_matching(&graph);
        if matching.cardinality() != facts.len() {
            return None;
        }
        for (j, row) in table.tuples().iter().enumerate() {
            let i = matching.pair_right[j]
                .or(first_unifier[j])
                .expect("every row unifies with some fact");
            let fact = &facts[i];
            for (k, term) in row.terms.iter().enumerate() {
                if let Term::Var(v) = term {
                    pairs.push((*v, fact[k]));
                }
            }
        }
    }
    Some(fill_unassigned(db, pairs, &avoid_set(db, instance)))
}

/// A possibility witness from the matching algorithm (Theorem 5.1(1)): matched rows take
/// their fact's values, every other variable is frozen to a distinct fresh constant —
/// the extra facts those free rows produce are outside the comparison and possibility
/// only needs `facts ⊆ world`.
pub(crate) fn codd_possibility_witness(db: &CDatabase, facts: &Instance) -> Option<Binding> {
    let mut pairs: Binding = Vec::new();
    for (name, rel) in facts.iter() {
        if rel.is_empty() {
            continue;
        }
        let table = match db.table(name) {
            Some(t) if t.arity() == rel.arity() => t,
            _ => return None,
        };
        let interned: Vec<Vec<Sym>> = rel.iter().map(|f| intern_fact(db, f)).collect();
        let mut graph = BipartiteGraph::new(interned.len(), table.len());
        for (j, row) in table.tuples().iter().enumerate() {
            for (i, fact) in interned.iter().enumerate() {
                if row_unifies_with_fact(&row.terms, fact) {
                    graph.add_edge(i, j);
                }
            }
        }
        let matching = maximum_matching(&graph);
        if matching.cardinality() != interned.len() {
            return None;
        }
        for (j, row) in table.tuples().iter().enumerate() {
            if let Some(i) = matching.pair_right[j] {
                let fact = &interned[i];
                for (k, term) in row.terms.iter().enumerate() {
                    if let Term::Var(v) = term {
                        pairs.push((*v, fact[k]));
                    }
                }
            }
        }
    }
    Some(fill_unassigned(db, pairs, &avoid_set(db, facts)))
}

// ---------------------------------------------------------------------------------------
// Shared certificate builders.
// ---------------------------------------------------------------------------------------

/// The certificate for "no world satisfies the claim": [`Certificate::EmptyRep`] when the
/// representation is provably empty (the checker re-derives that), otherwise the search
/// itself is the evidence and the verdict rests on [`Certificate::Exhaustive`].
pub(crate) fn no_world_cert(db: &CDatabase) -> Certificate {
    if db.has_satisfiable_globals() {
        Certificate::Exhaustive
    } else {
        Certificate::EmptyRep
    }
}

/// Stitch group `g_idx`'s counter-world into a valuation of the **whole** database:
/// every other shard group gets its base completion (any world of that group); with no
/// deciding group, every group does.  The claims this serves are robust to what the
/// other groups do — a fact missing from (or escaping) group `g` stays missing/escaped
/// whatever the rest of the world looks like.  `None` iff some other group's globals
/// are unsatisfiable, which the per-shard dispatchers rule out before searching.
pub(crate) fn stitch_counter_world(
    engine: &Engine,
    db: &CDatabase,
    g_idx: Option<usize>,
    mut witness: Binding,
) -> Option<Binding> {
    for (j, other) in db.shard_groups().iter().enumerate() {
        if Some(j) == g_idx {
            continue;
        }
        let odb = other.database();
        witness.extend(base_completion(engine, odb, &odb.constants())?);
    }
    Some(witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Budget;
    use crate::engine::tests::configs;
    use crate::engine::EngineConfig;
    use pw_condition::{Atom, Conjunction, Term, VarGen};
    use pw_core::{CTable, CTuple};
    use pw_relational::rel;

    /// Certifying engines at every test thread count, plus the static frontier
    /// scheduler, so the leaf capture is exercised on the sequential DFS, the stealing
    /// workers and the frontier expansion alike.
    fn certified_engines() -> Vec<Engine> {
        configs()
            .into_iter()
            .chain([EngineConfig::with_threads(4, Budget(1_000_000)).without_work_stealing()])
            .map(|cfg| Engine::new(cfg.certified()))
            .collect()
    }

    fn world(db: &CDatabase, pairs: Binding) -> Instance {
        valuation(pairs)
            .world_of(db)
            .expect("extracted valuations are total and satisfying")
    }

    /// The world of the valuation read off a certified search, or `None` when the
    /// search found nothing.
    fn leaf_world(
        db: &CDatabase,
        request: &Instance,
        verdict: Result<Verdict, DecisionError>,
    ) -> Option<Instance> {
        let (found, w) = read_off(verdict.unwrap(), db, request);
        found.then(|| world(db, w.expect("a certified search keeps its accepting leaf")))
    }

    #[test]
    fn member_witness_world_is_exactly_the_instance() {
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
        let member = |engine: &Engine, inst: &Instance| {
            let verdict = crate::membership::backtracking_ctx(&db, inst, engine, &engine.ctx());
            leaf_world(&db, inst, verdict)
        };
        for engine in certified_engines() {
            for inst in [
                Instance::single("R", rel![[1]]),
                Instance::single("R", rel![[2]]),
            ] {
                assert!(member(&engine, &inst).unwrap().same_facts(&inst));
            }
            assert!(member(&engine, &Instance::single("R", rel![[1], [2]])).is_none());
            assert!(member(&engine, &Instance::new()).is_none());
        }
    }

    #[test]
    fn cover_witness_world_contains_the_facts() {
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
        let facts = Instance::single("R", rel![[1], [2]]);
        let three = Instance::single("R", rel![[1], [2], [3]]);
        for engine in certified_engines() {
            let verdict = engine.covering_ctx(&db, &facts, &engine.ctx());
            assert!(facts.is_subinstance_of(&leaf_world(&db, &facts, verdict).unwrap()));
            // Two rows can never cover three distinct facts.
            let verdict = engine.covering_ctx(&db, &three, &engine.ctx());
            assert!(leaf_world(&db, &three, verdict).is_none());
        }
    }

    #[test]
    fn missing_witness_world_misses_a_fact() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // {(x)} with x ≠ 1: the fact (1) is missing from every world, (5) from some.
        let t = CTable::i_table(
            "R",
            1,
            Conjunction::new([Atom::neq(x, 1)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        let db = CDatabase::single(t);
        // A constant row can never be missing.
        let forced = CDatabase::single(CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap());
        let one = Instance::single("R", rel![[1]]);
        // A fact of a relation the database does not have is missing from every world,
        // and the witness is any world at all.
        let elsewhere = Instance::single("S", rel![[5]]);
        for engine in certified_engines() {
            for facts in [Instance::single("R", rel![[5]]), elsewhere.clone()] {
                let verdict = engine.missing_any_ctx(&db, &facts, &engine.ctx());
                let missed = leaf_world(&db, &facts, verdict).unwrap();
                assert!(!facts.is_subinstance_of(&missed));
            }
            let verdict = engine.missing_any_ctx(&forced, &one, &engine.ctx());
            assert!(leaf_world(&forced, &one, verdict).is_none());
        }
    }

    #[test]
    fn escape_witness_world_differs_from_the_instance() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap();
        let db = CDatabase::single(t);
        let inst = Instance::single("R", rel![[1]]);
        // A ground database can never escape its own instance.
        let ground = CDatabase::single(CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap());
        for engine in certified_engines() {
            let verdict = engine.fact_outside_ctx(&db, &inst, &engine.ctx());
            let escaped = leaf_world(&db, &inst, verdict).unwrap();
            assert!(
                !escaped.same_facts(&inst),
                "the row escaped to a fresh value"
            );
            let verdict = engine.fact_outside_ctx(&ground, &inst, &engine.ctx());
            assert!(leaf_world(&ground, &inst, verdict).is_none());
        }
    }

    #[test]
    fn uncertified_searches_keep_no_leaf() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let db = CDatabase::single(CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap());
        let facts = Instance::single("R", rel![[1]]);
        for cfg in configs() {
            let engine = Engine::new(cfg);
            let verdict = engine.covering_ctx(&db, &facts, &engine.ctx()).unwrap();
            assert!(verdict.found);
            assert!(verdict.leaf.is_none(), "capture is off unless certifying");
        }
    }

    #[test]
    fn codd_witnesses_mirror_the_matching_algorithms() {
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
        let inst = Instance::single("R", rel![[0, 2], [3, 1]]);
        let w = codd_membership_witness(&db, &inst).unwrap();
        assert!(world(&db, w).same_facts(&inst));
        assert!(codd_membership_witness(&db, &Instance::single("R", rel![[1, 1]])).is_none());

        // Possibility: one fact covered, the other row roams free.
        let facts = Instance::single("R", rel![[0, 7]]);
        let w = codd_possibility_witness(&db, &facts).unwrap();
        assert!(facts.is_subinstance_of(&world(&db, w)));
    }

    #[test]
    fn base_completion_requires_satisfiable_globals() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let sat = CDatabase::single(
            CTable::g_table(
                "R",
                1,
                Conjunction::new([Atom::eq(x, 1)]),
                [vec![Term::Var(x)]],
            )
            .unwrap(),
        );
        let avoid = sat.constants();
        let unsat = CDatabase::single(
            CTable::g_table(
                "R",
                1,
                Conjunction::new([Atom::eq(x, 1), Atom::neq(x, 1)]),
                [vec![Term::Var(x)]],
            )
            .unwrap(),
        );
        for engine in certified_engines() {
            let w = base_completion(&engine, &sat, &avoid).unwrap();
            assert_eq!(world(&sat, w), Instance::single("R", rel![[1]]));
            assert!(base_completion(&engine, &unsat, &avoid).is_none());
        }
    }
}
