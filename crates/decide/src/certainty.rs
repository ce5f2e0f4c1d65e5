//! The certainty problem `CERT(k, q)` / `CERT(*, q)`: are all facts of a given set true in
//! every possible world of the view?
//!
//! * [`naive_gtable`] — Theorem 5.3(1) (due to Imieliński–Lipski and Vardi): for DATALOG
//!   (and a fortiori positive existential) queries on g-tables the certain answers are
//!   computed by treating the matrix of the g-table as a complete database — nulls become
//!   distinct fresh constants — and keeping the ground facts of the query answer.
//! * [`complement_search`] — the general coNP procedure for conditional tables (identity or
//!   UCQ-convertible views): a fact is certain iff no valuation makes every row miss it.
//! * [`by_enumeration`] — the fallback for first order views (coNP-complete already on
//!   Codd-tables, Theorem 5.3(2)).
//!
//! `CERT(*, q)` is answered by iterating `CERT(1, q)` over the facts — the polynomial-time
//! equivalence of Proposition 2.1(6).

use crate::certify;
use crate::common::{
    evaluation_delta, freeze_database, normalize_database, Budget, Decision, DecisionError,
    Strategy,
};
use crate::engine::{Engine, EngineConfig, MemoOp};
use pw_core::algebra::AlgebraError;
use pw_core::{CDatabase, Certificate, TableClass, View};
use pw_query::QueryClass;
use pw_relational::Instance;

/// Decide `CERT(·, q)`: is every fact of `facts` true in every world of the view?
pub fn decide(view: &View, facts: &Instance, budget: Budget) -> Result<bool, DecisionError> {
    decide_with(view, facts, &Engine::new(EngineConfig::sequential(budget))).answer
}

/// [`decide`] on an explicit [`Engine`]: the general (coNP) paths run on the engine's
/// worker pool — the per-fact complement searches are independent subtrees, so a
/// `CERT(*, q)` request parallelizes across facts as well as within each search.
/// Within each search the workers balance by work stealing (subtree re-splitting keeps
/// a skewed complement tree divisible); the static frontier split survives behind
/// [`EngineConfig::without_work_stealing`](crate::EngineConfig::without_work_stealing).
///
/// Returns a [`Decision`] carrying the answer next to the [`Strategy`] that produced
/// (or attempted) it, so the strategy survives a budget-exceeded search; the dispatch
/// (and the view→c-table conversion behind it) runs exactly once per call.
pub fn decide_with(view: &View, facts: &Instance, engine: &Engine) -> Decision {
    let (strategy, converted) = plan(view, engine.config().per_shard);
    let answer = match strategy {
        Strategy::NaiveEvaluation => {
            Ok(naive_gtable(view, facts).expect("strategy selection guarantees applicability"))
        }
        Strategy::PerShard { .. } => {
            match converted.expect("planned strategies carry their conversion") {
                Ok(db) => complement_search_per_shard(&db, facts, engine),
                Err(_) => Ok(false),
            }
        }
        Strategy::Backtracking => {
            match converted.expect("planned strategies carry their conversion") {
                Ok(db) => complement_search_with(&db, facts, engine),
                Err(_) => Ok(false),
            }
        }
        _ => by_enumeration_with(view, facts, engine),
    };
    Decision::of(answer, strategy)
}

/// [`decide_with`] plus certificate extraction: a *yes* carries
/// [`Certificate::CertainByFreeze`] (the checker replays the polynomial naive
/// evaluation), [`Certificate::EmptyRep`], or rests on [`Certificate::Exhaustive`]; a
/// *no* carries a [`Certificate::CounterWorld`] — a valuation whose world misses one of
/// the facts.
pub(crate) fn decide_certified(view: &View, facts: &Instance, engine: &Engine) -> Decision {
    if !engine.config().certify {
        return decide_with(view, facts, engine);
    }
    let (strategy, converted) = plan(view, engine.config().per_shard);
    match strategy {
        Strategy::NaiveEvaluation => {
            let answer =
                naive_gtable(view, facts).expect("strategy selection guarantees applicability");
            if answer {
                Decision::certified(Ok(true), strategy, Some(Certificate::CertainByFreeze))
            } else if !view.db.has_satisfiable_globals() {
                // Unreachable with a `false` naive answer (the empty rep is vacuously
                // certain) — defensive ordering only.
                Decision::of(Ok(false), strategy)
            } else {
                // A naive `false` means some fact is non-ground or absent from the
                // frozen world's answer; the freeze avoids the facts' active domain, so
                // *any* completion at least as generic (fresh values everywhere) misses
                // it too.  Verify locally before emitting; fall back to enumeration.
                let avoid = certify::avoid_set(&view.db, facts);
                let cert = certify::base_completion(engine, &view.db, &avoid)
                    .map(certify::valuation)
                    .filter(|v| {
                        v.world_of(&view.db)
                            .is_some_and(|w| !facts.is_subinstance_of(&view.query.eval(&w)))
                    })
                    .map(Certificate::counter_world)
                    .or_else(|| enumeration_counter_world(view, facts, engine));
                Decision::certified(Ok(false), strategy, cert)
            }
        }
        Strategy::PerShard { .. } => {
            match converted.expect("planned strategies carry their conversion") {
                Ok(db) => certified_per_shard(view, &db, facts, engine, strategy),
                Err(_) => Decision::of(Ok(false), strategy),
            }
        }
        Strategy::Backtracking => {
            match converted.expect("planned strategies carry their conversion") {
                Ok(db) => {
                    if !engine.has_satisfiable_globals(&db) {
                        return Decision::certified(
                            Ok(true),
                            strategy,
                            Some(empty_rep_or_exhaustive(view)),
                        );
                    }
                    match engine.missing_any_ctx(&db, facts, &engine.ctx()) {
                        Ok(verdict) => match certify::read_off(verdict, &db, facts) {
                            (true, w) => Decision::certified(
                                Ok(false),
                                strategy,
                                w.and_then(|w| counter_world(view, w, facts)),
                            ),
                            (false, _) => Decision::certified(
                                Ok(true),
                                strategy,
                                Some(Certificate::Exhaustive),
                            ),
                        },
                        Err(e) => Decision::of(Err(e), strategy),
                    }
                }
                Err(_) => Decision::of(Ok(false), strategy),
            }
        }
        _ => {
            if !view.db.has_satisfiable_globals() {
                return Decision::certified(Ok(true), strategy, Some(Certificate::EmptyRep));
            }
            let vars: Vec<_> = view.db.variables().into_iter().collect();
            let mut delta = evaluation_delta(&view.db, facts.active_domain());
            delta.extend(view.query.constants());
            let counterexample =
                engine.find_canonical_valuation(view.db.symbols(), &vars, &delta, |valuation| {
                    let world = valuation.world_of(&view.db)?;
                    let output = view.query.eval(&world);
                    (!facts.is_subinstance_of(&output)).then(|| valuation.clone())
                });
            match counterexample {
                Ok(Some(v)) => {
                    Decision::certified(Ok(false), strategy, Some(Certificate::counter_world(v)))
                }
                Ok(None) => Decision::certified(Ok(true), strategy, Some(Certificate::Exhaustive)),
                Err(e) => Decision::of(Err(e), strategy),
            }
        }
    }
}

/// Certified twin of [`complement_search_per_shard`] + the per-shard missing-fact
/// disjunction: same memo keys (`MemoOp::MissingAny` per populated group), entries
/// stored with their per-group certificates, and a group's counter-world stitched with
/// the other groups' base completions into a valuation of the whole database.
fn certified_per_shard(
    view: &View,
    db: &CDatabase,
    facts: &Instance,
    engine: &Engine,
    strategy: Strategy,
) -> Decision {
    if db
        .shard_groups()
        .iter()
        .any(|g| !engine.has_satisfiable_globals(g.database()))
    {
        return Decision::certified(Ok(true), strategy, Some(empty_rep_or_exhaustive(view)));
    }
    // Mirror of `missing_any_per_shard_ctx`: split the facts by owning group.
    let group_of = db.shard_group_index();
    let mut parts: Vec<Instance> = vec![Instance::new(); db.shard_groups().len()];
    let mut any_fact = false;
    for (name, rel) in facts.iter() {
        if rel.is_empty() {
            continue;
        }
        match db.table_position(name) {
            Some(pos) if db.tables()[pos].arity() == rel.arity() => {
                parts[group_of[pos]].insert_relation(name.clone(), rel.clone());
                any_fact = true;
            }
            // No such relation: missing from every world — any world is a counter.
            _ => {
                let avoid = certify::avoid_set(&view.db, facts);
                let cert = certify::base_completion(engine, &view.db, &avoid)
                    .map(|w| Certificate::counter_world(certify::valuation(w)));
                return Decision::certified(Ok(false), strategy, cert);
            }
        }
    }
    if !any_fact {
        return Decision::certified(Ok(true), strategy, Some(Certificate::Exhaustive));
    }
    let ctx = engine.ctx();
    for (g_idx, (group, part)) in db.shard_groups().iter().zip(&parts).enumerate() {
        if part.relation_count() == 0 {
            continue;
        }
        let gdb = group.database();
        let outcome = engine.memo_decide(MemoOp::MissingAny, gdb, part, None, true, || {
            let verdict = engine.missing_any_ctx(gdb, part, &ctx.fork())?;
            Ok(certify::counter_or_exhaustive(verdict, gdb, part))
        });
        match outcome {
            Ok((true, cert)) => {
                let stitched = match cert {
                    Some(Certificate::CounterWorld { valuation }) => {
                        certify::stitch_counter_world(engine, db, g_idx, valuation.iter().collect())
                            .and_then(|w| counter_world(view, w, facts))
                    }
                    _ => None,
                };
                return Decision::certified(Ok(false), strategy, stitched);
            }
            Ok((false, _)) => {}
            Err(e) => return Decision::of(Err(e), strategy),
        }
    }
    Decision::certified(Ok(true), strategy, Some(Certificate::Exhaustive))
}

/// Package a binding over the converted database as a counter-world of the *view*: fill
/// the view database's remaining variables with fresh constants (the c-table algebra
/// guarantees `q(σ(view.db)) = σ(converted)` for every total σ).
fn counter_world(view: &View, w: certify::Binding, facts: &Instance) -> Option<Certificate> {
    let avoid = certify::avoid_set(&view.db, facts);
    Some(Certificate::counter_world(certify::valuation(
        certify::fill_unassigned(&view.db, w, &avoid),
    )))
}

/// The vacuous-certainty certificate: [`Certificate::EmptyRep`] when the view database
/// itself shows it (the checker re-derives that), [`Certificate::Exhaustive`] in the
/// degenerate case where only the converted database's globals are unsatisfiable.
fn empty_rep_or_exhaustive(view: &View) -> Certificate {
    if view.db.has_satisfiable_globals() {
        Certificate::Exhaustive
    } else {
        Certificate::EmptyRep
    }
}

/// A counter-world by canonical-valuation enumeration — the belt-and-braces fallback
/// when a polynomial path's implicit counter-example is not directly expressible.
fn enumeration_counter_world(
    view: &View,
    facts: &Instance,
    engine: &Engine,
) -> Option<Certificate> {
    let vars: Vec<_> = view.db.variables().into_iter().collect();
    let mut delta = evaluation_delta(&view.db, facts.active_domain());
    delta.extend(view.query.constants());
    engine
        .find_canonical_valuation(view.db.symbols(), &vars, &delta, |valuation| {
            let world = valuation.world_of(&view.db)?;
            let output = view.query.eval(&world);
            (!facts.is_subinstance_of(&output)).then(|| valuation.clone())
        })
        .ok()
        .flatten()
        .map(Certificate::counter_world)
}

/// The dispatch decision plus (when applicable) the one-time view→c-table conversion.
/// The coNP complement upgrades to [`Strategy::PerShard`] when the converted database's
/// coupling graph splits (and `per_shard` is enabled): a fact can only be missing from a
/// world of the group owning its relation, so the per-fact complement searches run
/// against per-group base stores and the certainty conjunction is unchanged.
fn plan(view: &View, per_shard: bool) -> (Strategy, Option<Result<CDatabase, AlgebraError>>) {
    let monotone = matches!(
        view.query.class(),
        QueryClass::Identity | QueryClass::PositiveExistential | QueryClass::Datalog
    );
    if monotone && view.db.classify() <= TableClass::GTable {
        (Strategy::NaiveEvaluation, None)
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

/// The strategy [`decide`] will use.
pub fn strategy(view: &View) -> Strategy {
    plan(view, true).0
}

/// Theorem 5.3(1): certainty for monotone (identity / positive existential / DATALOG)
/// queries on g-tables via naive evaluation.
///
/// Returns `None` when the preconditions do not hold (non-monotone query or a database
/// with local conditions).
pub fn naive_gtable(view: &View, facts: &Instance) -> Option<bool> {
    let monotone = matches!(
        view.query.class(),
        QueryClass::Identity | QueryClass::PositiveExistential | QueryClass::Datalog
    );
    if !monotone || view.db.classify() > TableClass::GTable {
        return None;
    }
    let Some(normalized) = normalize_database(&view.db) else {
        // Unsatisfiable global condition: there are no worlds, so every fact is vacuously
        // certain.
        return Some(true);
    };
    let (frozen, fresh) = freeze_database(&normalized, &facts.active_domain());
    let answer = view.query.eval(&frozen);
    for (name, rel) in facts.iter() {
        for fact in rel.iter() {
            let ground = fact.iter().all(|c| !fresh.contains(c));
            if !ground || !answer.contains_fact(name, fact) {
                return Some(false);
            }
        }
    }
    Some(true)
}

/// The general coNP procedure for conditional tables: every fact must be produced in every
/// world, i.e. for no fact may there exist a valuation under which all rows miss it.
pub fn complement_search(
    db: &CDatabase,
    facts: &Instance,
    budget: Budget,
) -> Result<bool, DecisionError> {
    complement_search_with(db, facts, &Engine::new(EngineConfig::sequential(budget)))
}

/// [`complement_search`] on an explicit [`Engine`].
pub fn complement_search_with(
    db: &CDatabase,
    facts: &Instance,
    engine: &Engine,
) -> Result<bool, DecisionError> {
    if !engine.has_satisfiable_globals(db) {
        return Ok(true); // no worlds: vacuously certain
    }
    Ok(!engine.exists_world_missing_any_fact(db, facts)?)
}

/// [`complement_search_with`] over the shard groups: the same per-fact complement
/// forest, with each fact's subtree rooted in its group's base store instead of the
/// joint one.  The representation is empty iff *some* group's globals are unsatisfiable
/// (groups are variable-disjoint, so the joint conjunction factors), in which case every
/// fact is vacuously certain — matching the joint path's empty-rep rule.
pub fn complement_search_per_shard(
    db: &CDatabase,
    facts: &Instance,
    engine: &Engine,
) -> Result<bool, DecisionError> {
    if db
        .shard_groups()
        .iter()
        .any(|g| !engine.has_satisfiable_globals(g.database()))
    {
        return Ok(true); // no worlds: vacuously certain
    }
    Ok(!engine.exists_world_missing_any_fact_per_shard(db, facts)?)
}

/// [`by_enumeration`] on an explicit [`Engine`] (parallel canonical-valuation
/// enumeration).
pub fn by_enumeration_with(
    view: &View,
    facts: &Instance,
    engine: &Engine,
) -> Result<bool, DecisionError> {
    if !view.db.has_satisfiable_globals() {
        return Ok(true);
    }
    let vars: Vec<_> = view.db.variables().into_iter().collect();
    let mut delta = evaluation_delta(&view.db, facts.active_domain());
    delta.extend(view.query.constants());
    let counterexample =
        engine.find_canonical_valuation(view.db.symbols(), &vars, &delta, |valuation| {
            let world = valuation.world_of(&view.db)?;
            let output = view.query.eval(&world);
            (!facts.is_subinstance_of(&output)).then_some(())
        })?;
    Ok(counterexample.is_none())
}

/// Generic fallback: canonical-valuation enumeration — look for a world missing some fact.
pub fn by_enumeration(
    view: &View,
    facts: &Instance,
    budget: Budget,
) -> Result<bool, DecisionError> {
    by_enumeration_with(view, facts, &Engine::new(EngineConfig::sequential(budget)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::{Atom, Conjunction, Term, VarGen};
    use pw_core::{CTable, CTuple};
    use pw_query::{
        qatom, ConjunctiveQuery, DatalogProgram, FoQuery, Formula, QTerm, Query, QueryDef, Ucq,
    };
    use pw_relational::rel;

    fn budget() -> Budget {
        Budget(1_000_000)
    }

    #[test]
    fn ground_facts_are_certain_variables_are_not() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::codd("R", 1, [vec![Term::constant(1)], vec![Term::Var(x)]]).unwrap();
        let view = View::identity(CDatabase::single(t));
        assert_eq!(strategy(&view), Strategy::NaiveEvaluation);
        assert!(decide(&view, &Instance::single("R", rel![[1]]), budget()).unwrap());
        assert!(!decide(&view, &Instance::single("R", rel![[2]]), budget()).unwrap());
    }

    #[test]
    fn naive_evaluation_for_positive_query_on_etable() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // T = {(1, x), (x, 2)}; q(a, c) :- T(a, b), T(b, c).
        // The join succeeds in every world through b = x, so (1, 2) is certain.
        let t = CTable::e_table(
            "T",
            2,
            [
                vec![Term::constant(1), Term::Var(x)],
                vec![Term::Var(x), Term::constant(2)],
            ],
        )
        .unwrap();
        let q = Query::single(
            "Q",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("a"), QTerm::var("c")],
                [qatom!("T"; "a", "b"), qatom!("T"; "b", "c")],
            ))),
        );
        let view = View::new(q, CDatabase::single(t));
        assert_eq!(strategy(&view), Strategy::NaiveEvaluation);
        assert!(decide(&view, &Instance::single("Q", rel![[1, 2]]), budget()).unwrap());
        assert!(!decide(&view, &Instance::single("Q", rel![[2, 1]]), budget()).unwrap());
        // Cross-check against enumeration.
        assert!(by_enumeration(&view, &Instance::single("Q", rel![[1, 2]]), budget()).unwrap());
        assert!(!by_enumeration(&view, &Instance::single("Q", rel![[2, 1]]), budget()).unwrap());
    }

    #[test]
    fn datalog_certainty_on_gtables() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // Edges {(1, 2), (2, x), (x, 4)}: (1, 4) is certainly reachable (through 2 and x),
        // but (1, 3) is not.
        let t = CTable::e_table(
            "E",
            2,
            [
                vec![Term::constant(1), Term::constant(2)],
                vec![Term::constant(2), Term::Var(x)],
                vec![Term::Var(x), Term::constant(4)],
            ],
        )
        .unwrap();
        let q = Query::single(
            "TC",
            QueryDef::Datalog(DatalogProgram::transitive_closure("E", "TC")),
        );
        let view = View::new(q, CDatabase::single(t));
        assert_eq!(strategy(&view), Strategy::NaiveEvaluation);
        assert!(decide(&view, &Instance::single("TC", rel![[1, 4]]), budget()).unwrap());
        assert!(!decide(&view, &Instance::single("TC", rel![[1, 3]]), budget()).unwrap());
        // CERT(*, q): both facts at once.
        assert!(decide(
            &view,
            &Instance::single("TC", rel![[1, 2], [1, 4]]),
            budget()
        )
        .unwrap());
        assert!(!decide(
            &view,
            &Instance::single("TC", rel![[1, 2], [1, 3]]),
            budget()
        )
        .unwrap());
    }

    #[test]
    fn ctable_certainty_uses_the_complement_search() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // (7) is present both when x = 0 and when x ≠ 0 → certain, via two rows.
        let t = CTable::new(
            "R",
            1,
            Conjunction::truth(),
            [
                CTuple::with_condition([Term::constant(7)], Conjunction::new([Atom::eq(x, 0)])),
                CTuple::with_condition([Term::constant(7)], Conjunction::new([Atom::neq(x, 0)])),
            ],
        )
        .unwrap();
        let view = View::identity(CDatabase::single(t.clone()));
        assert_eq!(strategy(&view), Strategy::Backtracking);
        assert!(decide(&view, &Instance::single("R", rel![[7]]), budget()).unwrap());
        // Removing one of the rows breaks certainty.
        let partial = CTable::new(
            "R",
            1,
            Conjunction::truth(),
            [CTuple::with_condition(
                [Term::constant(7)],
                Conjunction::new([Atom::eq(x, 0)]),
            )],
        )
        .unwrap();
        let view2 = View::identity(CDatabase::single(partial));
        assert!(!decide(&view2, &Instance::single("R", rel![[7]]), budget()).unwrap());
    }

    #[test]
    fn fo_certainty_falls_back_to_enumeration() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // T = {(x)}; q = {1 | ∃a T(a) ∧ a ≠ 5}: not certain (x may be 5).
        let t = CTable::codd("T", 1, [vec![Term::Var(x)]]).unwrap();
        let q = Query::single(
            "Q",
            QueryDef::Fo(FoQuery::boolean(
                1,
                Formula::exists(
                    ["a"],
                    Formula::and([Formula::atom("T", [QTerm::var("a")]), Formula::neq("a", 5)]),
                ),
            )),
        );
        let view = View::new(q, CDatabase::single(t));
        assert_eq!(strategy(&view), Strategy::WorldEnumeration);
        assert!(!decide(&view, &Instance::single("Q", rel![[1]]), budget()).unwrap());

        // With the query ∃a T(a) (no ≠) the fact 1 is certain: every world has some element.
        let q2 = Query::single(
            "Q",
            QueryDef::Fo(FoQuery::boolean(
                1,
                Formula::exists(["a"], Formula::atom("T", [QTerm::var("a")])),
            )),
        );
        let mut g2 = VarGen::new();
        let x2 = g2.fresh();
        let t2 = CTable::codd("T", 1, [vec![Term::Var(x2)]]).unwrap();
        let view2 = View::new(q2, CDatabase::single(t2));
        assert!(decide(&view2, &Instance::single("Q", rel![[1]]), budget()).unwrap());
    }

    #[test]
    fn empty_representation_is_vacuously_certain() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let unsat = CTable::g_table(
            "R",
            1,
            Conjunction::new([Atom::eq(x, 1), Atom::neq(x, 1)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        let view = View::identity(CDatabase::single(unsat));
        assert!(decide(&view, &Instance::single("R", rel![[9]]), budget()).unwrap());
    }

    #[test]
    fn naive_and_complement_agree_on_gtables() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::g_table(
            "R",
            1,
            Conjunction::new([Atom::neq(x, y)]),
            [
                vec![Term::Var(x)],
                vec![Term::Var(y)],
                vec![Term::constant(3)],
            ],
        )
        .unwrap();
        let db = CDatabase::single(t);
        let view = View::identity(db.clone());
        for facts in [
            Instance::single("R", rel![[3]]),
            Instance::single("R", rel![[1]]),
            Instance::single("R", rel![[3], [1]]),
        ] {
            let fast = naive_gtable(&view, &facts).unwrap();
            let slow = complement_search(&db, &facts, budget()).unwrap();
            let slowest = by_enumeration(&view, &facts, budget()).unwrap();
            assert_eq!(fast, slow, "naive vs complement on {facts}");
            assert_eq!(fast, slowest, "naive vs enumeration on {facts}");
        }
    }
}
