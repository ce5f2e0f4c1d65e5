//! The uniqueness problem `UNIQ(q₀)`: is the set of possible worlds represented by (a view
//! of) a database exactly the singleton `{I}`?
//!
//! * [`gtable_uniqueness`] — the PTIME algorithm of Theorem 3.2(1) for g-tables: propagate
//!   the equalities of the global condition; the representation is `{I}` iff the condition
//!   is satisfiable, the table part is ground, and it equals `I`.
//! * [`pos_exist_etable`] — the PTIME algorithm of Theorem 3.2(2) for positive existential
//!   views of e-tables, using the c-table algebra (step (a)), per-tuple e-tables (steps
//!   (b)–(d)) and the certain-answer check (condition (α)).
//! * [`complement_search`] / [`decide`] — the general coNP procedure: membership plus the
//!   non-existence of a differing world, decided by the engine's constraint searches
//!   ([`Engine::exists_world_with_fact_outside`], [`Engine::exists_world_missing_any_fact`]).

use crate::certify::{self, Evidence};
use crate::common::{
    evaluation_delta, freeze_database, normalize_database, Budget, Decision, DecisionError,
    Strategy,
};
use crate::engine::{Engine, EngineConfig};
use crate::membership;
use pw_core::algebra::AlgebraError;
use pw_core::{CDatabase, CTable, Certificate, TableClass, Valuation, View};
use pw_query::{Query, QueryClass, QueryDef};
use pw_relational::{Instance, Relation};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// Decide `UNIQ(q₀)` for a view and an instance, dispatching to the paper's polynomial
/// algorithms when they apply.
pub fn decide(view: &View, instance: &Instance, budget: Budget) -> Result<bool, DecisionError> {
    decide_with(
        view,
        instance,
        &Engine::new(EngineConfig::sequential(budget)),
    )
    .answer
}

/// [`decide`] on an explicit [`Engine`]: the two halves of the coNP complement (a world
/// with an extra fact / a world missing a fact) and all their per-row and per-fact
/// subtrees run on the engine's worker pool.
///
/// Returns a [`Decision`] carrying the answer next to the [`Strategy`] that produced
/// (or attempted) it, so the strategy survives a budget-exceeded search; the dispatch
/// (and the view→c-table conversion behind it) runs exactly once per call.
///
/// On a certifying engine ([`EngineConfig::certify`](crate::EngineConfig::certify)) a
/// *yes* rests on the exhaustive complement ([`Certificate::Exhaustive`] — uniqueness
/// has no small positive witness); a *no* carries [`Certificate::EmptyRep`] (no world
/// at all) or a [`Certificate::CounterWorld`] — a valuation whose world differs from
/// the instance, read off the complement search that found it, or else the generic
/// world (verified to differ) or one found by enumeration.
pub fn decide_with(view: &View, instance: &Instance, engine: &Engine) -> Decision {
    let (strategy, converted) = plan(view, engine.config().per_shard);
    let decided = match strategy {
        Strategy::GTableNormalization => Ok((gtable_uniqueness(&view.db, instance), None)),
        Strategy::PosExistEtable => {
            let answer = pos_exist_etable(&view.query, &view.db, instance)
                .expect("strategy selection guarantees applicability");
            Ok((answer, None))
        }
        Strategy::PerShard { .. } | Strategy::Backtracking => {
            let per_shard = matches!(strategy, Strategy::PerShard { .. });
            match converted.expect("planned strategies carry their conversion") {
                Ok(db) => complement(&db, instance, engine, per_shard),
                Err(_) => Ok((false, None)),
            }
        }
        _ => by_enumeration_with(view, instance, engine),
    };
    certify::decision(engine, strategy, decided, |answer, w| {
        if answer {
            return Some(Certificate::Exhaustive);
        }
        if !view.db.has_satisfiable_globals() {
            return Some(Certificate::EmptyRep);
        }
        let w = match w {
            // The search's binding ranges over the converted database: fill the view
            // database's remaining variables (the c-table algebra guarantees
            // `q(σ(view.db)) = σ(converted)` for every total σ).
            Some(w) => {
                let avoid = certify::avoid_set(&view.db, instance);
                certify::valuation(certify::fill_unassigned(&view.db, w, &avoid))
            }
            None => generic_counter_world(view, instance, engine)?,
        };
        Some(Certificate::counter_world(w))
    })
}

/// The differing world behind a *no* no search produced one for — the polynomial
/// paths' and a failed membership's: the generic world, verified locally to differ
/// from the instance (any world does when the instance is not a member), with
/// canonical-valuation enumeration as the fallback.
fn generic_counter_world(view: &View, instance: &Instance, engine: &Engine) -> Option<Valuation> {
    certify::generic_world(engine, view, instance, |answer| {
        !answer.same_facts(instance)
    })
    .or_else(|| {
        by_enumeration_with(view, instance, engine)
            .ok()?
            .1
            .map(certify::valuation)
    })
}

/// The dispatch decision plus (when applicable) the one-time view→c-table conversion.
/// The coNP complement upgrades to [`Strategy::PerShard`] when the converted database's
/// coupling graph splits (and `per_shard` is enabled): a product of representations is
/// `{I}` iff the membership holds and neither an escaping row nor a missing fact exists
/// in any group — the same three searches, decomposed.
fn plan(view: &View, per_shard: bool) -> (Strategy, Option<Result<CDatabase, AlgebraError>>) {
    let db_class = view.db.classify();
    if view.query.is_identity() && db_class <= TableClass::GTable {
        (Strategy::GTableNormalization, None)
    } else if view.query.class() == QueryClass::PositiveExistential
        && db_class <= TableClass::ETable
        && view
            .query
            .outputs()
            .iter()
            .all(|(_, d)| matches!(d, QueryDef::Ucq(_) | QueryDef::Identity { .. }))
    {
        (Strategy::PosExistEtable, None)
    } else if let Some(converted) = view.to_ctables() {
        if per_shard {
            if let Ok(db) = &converted {
                let groups = db.shard_groups().len();
                if groups > 1 {
                    return (Strategy::PerShard { groups }, Some(converted));
                }
            }
        }
        (Strategy::Backtracking, Some(converted))
    } else {
        (Strategy::WorldEnumeration, None)
    }
}

/// The strategy [`decide`] will pick for a view.
pub fn strategy(view: &View) -> Strategy {
    plan(view, true).0
}

/// Theorem 3.2(1): `UNIQ(-)` is in PTIME for g-tables.
///
/// After replacing every variable that the global condition forces to a constant, the
/// representation is `{I}` iff (a) the condition is satisfiable, (b) the table part is
/// ground (no free nulls remain — a remaining null always admits at least two distinct
/// instantiations over the infinite domain) and it equals `I` relation by relation.
pub fn gtable_uniqueness(db: &CDatabase, instance: &Instance) -> bool {
    let Some(normalized) = normalize_database(db) else {
        // Unsatisfiable global condition: rep(db) = ∅ ≠ {I}.
        return false;
    };
    // The instance must not populate unknown relations.
    for (name, rel) in instance.iter() {
        if !rel.is_empty() && normalized.table(name).is_none() {
            return false;
        }
    }
    for table in normalized.tables() {
        let mut rel = Relation::empty(table.arity());
        for row in table.tuples() {
            debug_assert!(
                row.has_trivial_condition(),
                "g-tables have no local conditions"
            );
            let mut fact = Vec::with_capacity(table.arity());
            for term in &row.terms {
                // Resolution goes through the database's own handle, so a private-
                // dictionary database normalises and compares correctly.
                match term.as_sym().and_then(|s| normalized.resolve(s)) {
                    Some(c) => fact.push(c),
                    None => return false, // an unforced null remains: not unique
                }
            }
            rel.insert(pw_relational::Tuple::new(fact))
                .expect("arity preserved");
        }
        if rel != instance.relation_or_empty(table.name(), table.arity()) {
            return false;
        }
    }
    true
}

/// Theorem 3.2(2): `UNIQ(q₀)` is in PTIME for positive existential `q₀` on e-tables.
///
/// Returns `None` when the precondition (positive existential UCQ outputs, e-table class
/// database) does not hold.
pub fn pos_exist_etable(query: &Query, db: &CDatabase, instance: &Instance) -> Option<bool> {
    if db.classify() > TableClass::ETable {
        return None;
    }
    // Step (a): one c-table per output via the algebra.
    let mut outputs: Vec<(String, CTable)> = Vec::new();
    for (name, def) in query.outputs() {
        match def {
            QueryDef::Ucq(ucq) if ucq.is_positive() => {
                let table = pw_core::algebra::eval_ucq(ucq, db, name).ok()?;
                outputs.push((name.clone(), table));
            }
            QueryDef::Identity { relation, arity } => {
                let table = db.table(relation)?.renamed(name.clone());
                if table.arity() != *arity {
                    return None;
                }
                outputs.push((name.clone(), table));
            }
            _ => return None,
        }
    }

    // The instance must not populate relations the query does not output.
    for (name, rel) in instance.iter() {
        if !rel.is_empty() && !outputs.iter().any(|(n, _)| n == name) {
            return Some(false);
        }
    }

    // Condition (α): every fact of I is a *certain* answer.  For positive queries on
    // e-tables certain answers are the ground facts of the naive evaluation (variables
    // frozen as distinct fresh constants).
    let (frozen, fresh) = freeze_database(db, &instance.active_domain());
    for (name, def) in query.outputs() {
        let expected = instance.relation_or_empty(name, def.arity());
        let answer = def.eval(&frozen);
        for fact in expected.iter() {
            let certain = answer.contains(fact) && fact.iter().all(|c| !fresh.contains(c));
            if !certain {
                return Some(false);
            }
        }
    }

    // Condition (β): for every conditional tuple t of every output, the e-table I ∪ {t}
    // with t's (equality-only) condition incorporated represents exactly {I}.
    for (name, table) in &outputs {
        let i_rel = instance.relation_or_empty(name, table.arity());
        for row in table.tuples() {
            let mut rows: Vec<pw_core::CTuple> = i_rel
                .iter()
                .map(|fact| {
                    // Instance facts are interned at the front door, through the
                    // database's handle.
                    pw_core::CTuple::of_terms(
                        fact.iter().map(|c| pw_condition::Term::Const(db.intern(c))),
                    )
                })
                .collect();
            rows.push(pw_core::CTuple::of_terms(row.terms.iter().cloned()));
            let t_ti = CTable::new(name.clone(), table.arity(), row.condition.clone(), rows)
                .expect("arities agree");
            let single = Instance::single(name.clone(), i_rel.clone());
            if !gtable_uniqueness(&db.with_tables_like([t_ti]), &single) {
                return Some(false);
            }
        }
    }
    Some(true)
}

/// The general coNP procedure for c-table databases (identity query): the representation is
/// `{I}` iff `I` is a member and no valuation produces a world different from `I`.
pub fn complement_search(
    db: &CDatabase,
    instance: &Instance,
    budget: Budget,
) -> Result<bool, DecisionError> {
    let engine = Engine::new(EngineConfig::sequential(budget));
    Ok(complement(db, instance, &engine, false)?.0)
}

/// [`complement_search`] on an explicit [`Engine`], jointly or over the shard groups
/// (`per_shard`): membership, then the escaping-row and missing-fact searches — with the
/// membership fanned per group and the two complement searches rooted in per-group base
/// stores when `per_shard`.  A product of representations is `{I}` iff every factor is
/// non-empty and the joint checks pass, so an unsatisfiable group means
/// `rep(db) = ∅ ≠ {I}`.  The evidence of a *no* is the differing world the escaping-row
/// or missing-fact search found.
fn complement(
    db: &CDatabase,
    instance: &Instance,
    engine: &Engine,
    per_shard: bool,
) -> Result<Evidence, DecisionError> {
    if !engine.has_worlds(db, per_shard) {
        return Ok((false, None));
    }
    let (member, _) = if per_shard {
        membership::per_shard_with(db, instance, engine)?
    } else {
        let strategy = membership::strategy_with(db, false);
        membership::dispatch(db, instance, engine, strategy)?
    };
    if !member {
        return Ok((false, None)); // every world differs from I
    }
    // Both halves of the complement charge one shared budget pool (and one deadline):
    // `Budget(N)` caps the combined complement work at N nodes.
    let ctx = engine.ctx();
    let escape = if per_shard {
        engine.fact_outside_per_shard_ctx(db, instance, &ctx)?
    } else {
        certify::read_off(engine.fact_outside_ctx(db, instance, &ctx)?, db, instance)
    };
    if escape.0 {
        return Ok((false, escape.1));
    }
    // One engine call covers all facts: each fact's "can it be missing?" search is an
    // independent subtree of the same forest.
    let (missing, w) = if per_shard {
        engine.missing_any_per_shard_ctx(db, instance, &ctx)?
    } else {
        certify::read_off(engine.missing_any_ctx(db, instance, &ctx)?, db, instance)
    };
    Ok((!missing, w))
}

/// Canonical-valuation enumeration on an explicit [`Engine`] (parallel over the
/// valuations): unique iff some world exists and none differs from `I` — the first
/// differing one is kept as the counter-world on a certifying engine.
fn by_enumeration_with(
    view: &View,
    instance: &Instance,
    engine: &Engine,
) -> Result<Evidence, DecisionError> {
    let vars: Vec<_> = view.db.variables().into_iter().collect();
    let delta = enumeration_delta(view, instance);
    let certify = engine.config().certify;
    let found_world = AtomicBool::new(false);
    let differing =
        engine.find_canonical_valuation(view.db.symbols(), &vars, &delta, |valuation| {
            let world = valuation.world_of(&view.db)?;
            let output = view.query.eval(&world);
            found_world.store(true, Ordering::Relaxed);
            (!output.same_facts(instance)).then(|| certify.then(|| valuation.iter().collect()))
        })?;
    let unique = found_world.load(Ordering::Relaxed) && differing.is_none();
    Ok((unique, differing.flatten()))
}

/// Generic fallback: canonical-valuation enumeration (all worlds must equal `I`, and at
/// least one world must exist).
pub fn by_enumeration(
    view: &View,
    instance: &Instance,
    budget: Budget,
) -> Result<bool, DecisionError> {
    let engine = Engine::new(EngineConfig::sequential(budget));
    Ok(by_enumeration_with(view, instance, &engine)?.0)
}

/// The uniqueness problem takes a set of constants from the instance into Δ; exposing the
/// helper keeps the harness honest about what is being enumerated.
pub fn enumeration_delta(view: &View, instance: &Instance) -> BTreeSet<pw_relational::Constant> {
    let mut delta = evaluation_delta(&view.db, instance.active_domain());
    delta.extend(view.query.constants());
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::{Atom, Conjunction, Term, VarGen};
    use pw_core::CTuple;
    use pw_query::{qatom, ConjunctiveQuery, QTerm, Ucq};
    use pw_relational::rel;

    fn budget() -> Budget {
        Budget(1_000_000)
    }

    #[test]
    fn ground_gtable_is_unique() {
        let t = CTable::g_table(
            "R",
            1,
            Conjunction::truth(),
            [vec![Term::constant(1)], vec![Term::constant(2)]],
        )
        .unwrap();
        let db = CDatabase::single(t);
        assert!(gtable_uniqueness(
            &db,
            &Instance::single("R", rel![[1], [2]])
        ));
        assert!(!gtable_uniqueness(&db, &Instance::single("R", rel![[1]])));
        assert!(!gtable_uniqueness(&db, &Instance::single("S", rel![[1]])));
    }

    #[test]
    fn forced_variables_become_ground() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        // global: x = 3 ∧ y = x  →  the table {(x), (y)} is really {(3)}.
        let t = CTable::g_table(
            "R",
            1,
            Conjunction::new([Atom::eq(x, 3), Atom::eq(y, x)]),
            [vec![Term::Var(x)], vec![Term::Var(y)]],
        )
        .unwrap();
        let db = CDatabase::single(t);
        assert!(gtable_uniqueness(&db, &Instance::single("R", rel![[3]])));
        assert!(!gtable_uniqueness(
            &db,
            &Instance::single("R", rel![[3], [4]])
        ));
    }

    #[test]
    fn free_variables_or_unsat_conditions_break_uniqueness() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let free = CTable::g_table("R", 1, Conjunction::truth(), [vec![Term::Var(x)]]).unwrap();
        assert!(!gtable_uniqueness(
            &CDatabase::single(free),
            &Instance::single("R", rel![[1]])
        ));
        let unsat = CTable::g_table(
            "R",
            1,
            Conjunction::new([Atom::eq(x, 1), Atom::neq(x, 1)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        assert!(!gtable_uniqueness(
            &CDatabase::single(unsat),
            &Instance::single("R", rel![[1]])
        ));
    }

    #[test]
    fn gtable_uniqueness_agrees_with_enumeration() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let cases = vec![
            CTable::g_table(
                "R",
                1,
                Conjunction::new([Atom::eq(x, 5)]),
                [vec![Term::Var(x)], vec![Term::constant(5)]],
            )
            .unwrap(),
            CTable::g_table(
                "R",
                1,
                Conjunction::new([Atom::neq(x, 5)]),
                [vec![Term::Var(x)], vec![Term::constant(5)]],
            )
            .unwrap(),
            CTable::g_table(
                "R",
                2,
                Conjunction::new([Atom::eq(x, 1), Atom::eq(y, 2)]),
                [vec![Term::Var(x), Term::Var(y)]],
            )
            .unwrap(),
        ];
        for table in cases {
            let db = CDatabase::single(table);
            let view = View::identity(db.clone());
            for inst in [
                Instance::single("R", rel![[5]]),
                Instance::single("R", rel![[1, 2]]),
                Instance::single("R", rel![[5], [6]]),
            ] {
                if inst.relation("R").unwrap().arity() != db.table("R").unwrap().arity() {
                    continue;
                }
                let fast = gtable_uniqueness(&db, &inst);
                let slow = by_enumeration(&view, &inst, budget()).unwrap();
                assert_eq!(fast, slow, "table {db} instance {inst}");
            }
        }
    }

    #[test]
    fn ctable_uniqueness_via_complement_search() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // Row (1) always present; row (2) present iff x = x (always): unique {(1), (2)}.
        let always = CTable::new(
            "R",
            1,
            Conjunction::truth(),
            [
                CTuple::of_terms([Term::constant(1)]),
                CTuple::with_condition([Term::constant(2)], Conjunction::new([Atom::eq(x, x)])),
            ],
        )
        .unwrap();
        let db = CDatabase::single(always);
        assert!(complement_search(&db, &Instance::single("R", rel![[1], [2]]), budget()).unwrap());
        assert!(!complement_search(&db, &Instance::single("R", rel![[1]]), budget()).unwrap());

        // Row (2) present iff x = 0: not unique (two different worlds).
        let conditional = CTable::new(
            "R",
            1,
            Conjunction::truth(),
            [
                CTuple::of_terms([Term::constant(1)]),
                CTuple::with_condition([Term::constant(2)], Conjunction::new([Atom::eq(x, 0)])),
            ],
        )
        .unwrap();
        let db2 = CDatabase::single(conditional);
        assert!(
            !complement_search(&db2, &Instance::single("R", rel![[1], [2]]), budget()).unwrap()
        );
        assert!(!complement_search(&db2, &Instance::single("R", rel![[1]]), budget()).unwrap());
    }

    #[test]
    fn pos_exist_etable_uniqueness() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // e-table T = {(1, x), (1, 2)}; query q(a) :- T(a, b).
        // q's answer is always {(1)} regardless of x: unique.
        let t = CTable::e_table(
            "T",
            2,
            [
                vec![Term::constant(1), Term::Var(x)],
                vec![Term::constant(1), Term::constant(2)],
            ],
        )
        .unwrap();
        let db = CDatabase::single(t);
        let q_first = Query::single(
            "Q",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("a")],
                [qatom!("T"; "a", "b")],
            ))),
        );
        let unique_instance = Instance::single("Q", rel![[1]]);
        assert_eq!(
            pos_exist_etable(&q_first, &db, &unique_instance),
            Some(true)
        );
        // Projecting the second column is not unique (x is free).
        let q_second = Query::single(
            "Q",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("b")],
                [qatom!("T"; "a", "b")],
            ))),
        );
        assert_eq!(
            pos_exist_etable(&q_second, &db, &Instance::single("Q", rel![[2]])),
            Some(false)
        );
        // Cross-check both against enumeration.
        let view_first = View::new(q_first, db.clone());
        let view_second = View::new(q_second, db.clone());
        assert!(by_enumeration(&view_first, &unique_instance, budget()).unwrap());
        assert!(
            !by_enumeration(&view_second, &Instance::single("Q", rel![[2]]), budget()).unwrap()
        );
    }

    #[test]
    fn pos_exist_etable_rejects_wrong_preconditions() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let itable = CTable::i_table(
            "T",
            1,
            Conjunction::new([Atom::neq(x, 1)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        let db = CDatabase::single(itable);
        let q = Query::single(
            "Q",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("a")],
                [qatom!("T"; "a")],
            ))),
        );
        assert_eq!(pos_exist_etable(&q, &db, &Instance::new()), None);
    }

    #[test]
    fn dispatch_picks_the_documented_strategies() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let gtab = CTable::g_table(
            "R",
            1,
            Conjunction::new([Atom::eq(x, 1)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        let view = View::identity(CDatabase::single(gtab));
        assert_eq!(strategy(&view), Strategy::GTableNormalization);
        assert!(decide(&view, &Instance::single("R", rel![[1]]), budget()).unwrap());

        let etab = CTable::e_table("T", 1, [vec![Term::Var(x)]]).unwrap();
        let q = Query::single(
            "Q",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("a")],
                [qatom!("T"; "a")],
            ))),
        );
        let view2 = View::new(q, CDatabase::single(etab));
        assert_eq!(strategy(&view2), Strategy::PosExistEtable);
        assert!(!decide(&view2, &Instance::single("Q", rel![[1]]), budget()).unwrap());
    }
}
