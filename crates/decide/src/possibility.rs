//! The possibility problem `POSS(k, q)` / `POSS(*, q)`: is there a possible world of the
//! view in which all facts of a given set `P` are true?
//!
//! * [`codd_matching`] — Theorem 5.1(1): for Codd-tables the unbounded problem is in PTIME,
//!   by a variation of the membership matching (the matching must saturate `P`, but rows
//!   left over are unconstrained since a superset world is allowed).
//! * [`row_cover`] — the search behind both the bounded PTIME case of Theorem 5.2(1)
//!   (positive existential queries on c-tables: convert with the c-table algebra, then try
//!   the at most `rowsᵏ` ways of producing the `k` facts) and the general NP procedure for
//!   unbounded possibility on conditional tables.
//! * [`by_enumeration`] — the fallback for first order / DATALOG views (NP-complete even on
//!   Codd-tables, Theorem 5.2(2,3)).

use crate::certify::{self, Evidence};
use crate::common::{evaluation_delta, Budget, Decision, DecisionError, Strategy};
use crate::engine::{Engine, EngineConfig, MemoOp};
use pw_core::algebra::AlgebraError;
use pw_core::{CDatabase, Certificate, View};
use pw_relational::Instance;
use pw_solvers::matching::{maximum_matching, BipartiteGraph};

/// Decide `POSS(·, q)`: is there a world of the view containing every fact of `facts`?
/// The same entry point serves the bounded and unbounded problems; the distinction in the
/// paper is about what is considered part of the input (`k` fixed vs. unbounded), not about
/// the question itself.
pub fn decide(view: &View, facts: &Instance, budget: Budget) -> Result<bool, DecisionError> {
    decide_with(view, facts, &Engine::new(EngineConfig::sequential(budget))).answer
}

/// [`decide`] on an explicit [`Engine`]: the general (NP) paths run on the engine's worker
/// pool with its shared budget, caches and early-exit cancellation.  Parallel searches
/// are scheduled by work stealing by default — the covering search is a search-tree
/// participant (`engine::TreeSearch`), so a skewed tree re-splits under a
/// starving thief — with the static frontier split pinned behind
/// [`EngineConfig::without_work_stealing`](crate::EngineConfig::without_work_stealing).
///
/// Returns a [`Decision`] carrying the answer next to the [`Strategy`] that produced
/// (or attempted) it, so the strategy survives a budget-exceeded search; the dispatch
/// (and in particular the view→c-table conversion behind it) is paid exactly once per
/// call — the batched front door relies on this instead of re-deriving the strategy
/// separately.
///
/// On a certifying engine ([`EngineConfig::certify`](crate::EngineConfig::certify)) a
/// *yes* carries a witness valuation under which `facts ⊆ q(world)`, read off the
/// covering search that decided (or built from the matching) over the converted
/// database and filled to a total valuation of `view.db` — `q(σ(view.db)) =
/// σ(converted)` for every total σ; a *no* carries [`Certificate::EmptyRep`] or rests
/// on [`Certificate::Exhaustive`].
pub fn decide_with(view: &View, facts: &Instance, engine: &Engine) -> Decision {
    let (strategy, converted) = plan(view, engine.config().per_shard);
    let decided = match strategy {
        Strategy::CoddMatching if engine.config().certify => {
            let w = certify::codd_possibility_witness(&view.db, facts);
            Ok((w.is_some(), w))
        }
        Strategy::CoddMatching => Ok((codd_matching(&view.db, facts), None)),
        Strategy::PerShard { .. } | Strategy::CTableAlgebra | Strategy::Backtracking => {
            match converted.expect("planned strategies carry their conversion") {
                Ok(db) if matches!(strategy, Strategy::PerShard { .. }) => engine
                    .per_shard_conjunction(MemoOp::Covering, &db, facts, |gdb, part, ctx| {
                        let verdict = engine.covering_ctx(gdb, part, ctx)?;
                        Ok(certify::read_off(verdict, gdb, part))
                    }),
                Ok(db) => engine
                    .covering_ctx(&db, facts, &engine.ctx())
                    .map(|verdict| certify::read_off(verdict, &db, facts)),
                Err(_) => Ok((false, None)),
            }
        }
        _ => by_enumeration_with(view, facts, engine),
    };
    certify::decision(engine, strategy, decided, |answer, w| {
        if answer {
            let avoid = certify::avoid_set(&view.db, facts);
            let w = certify::fill_unassigned(&view.db, w?, &avoid);
            Some(Certificate::witness(certify::valuation(w)))
        } else {
            Some(certify::no_world_cert(&view.db))
        }
    })
}

/// The dispatch decision and, when the chosen strategy runs on a converted c-table
/// database, the conversion itself — computed together so it is never repeated.  The
/// covering-search strategies upgrade to [`Strategy::PerShard`] when the converted
/// database's coupling graph splits (and `per_shard` is enabled): the per-group covering
/// searches conjoin to exactly the joint answer.
fn plan(view: &View, per_shard: bool) -> (Strategy, Option<Result<CDatabase, AlgebraError>>) {
    if view.query.is_identity() {
        if view.db.is_decoupled_codd() {
            (Strategy::CoddMatching, None)
        } else {
            upgrade(Strategy::Backtracking, view.to_ctables(), per_shard)
        }
    } else if let Some(converted) = view.to_ctables() {
        // Positive existential (possibly with ≠) view: Theorem 5.2(1)'s path.
        upgrade(Strategy::CTableAlgebra, Some(converted), per_shard)
    } else {
        (Strategy::WorldEnumeration, None)
    }
}

/// Upgrade a covering-search plan to the shard-group decomposition when it applies.
fn upgrade(
    base: Strategy,
    converted: Option<Result<CDatabase, AlgebraError>>,
    per_shard: bool,
) -> (Strategy, Option<Result<CDatabase, AlgebraError>>) {
    if per_shard {
        if let Some(Ok(db)) = &converted {
            let groups = db.shard_groups().len();
            if groups > 1 {
                return (Strategy::PerShard { groups }, converted);
            }
        }
    }
    (base, converted)
}

/// The strategy [`decide`] will use.
pub fn strategy(view: &View) -> Strategy {
    plan(view, true).0
}

/// Theorem 5.1(1): unbounded possibility for Codd-tables via bipartite matching.  `facts`
/// is possible iff, per relation, there is a matching of the facts into pairwise distinct
/// unifiable rows that saturates the facts.
pub fn codd_matching(db: &CDatabase, facts: &Instance) -> bool {
    for (name, rel) in facts.iter() {
        if rel.is_empty() {
            continue;
        }
        let Some(table) = db.table(name) else {
            return false;
        };
        if table.arity() != rel.arity() {
            return false;
        }
        // Intern once; the edge loop compares ids.
        let fact_list: Vec<Vec<pw_relational::Sym>> = rel
            .iter()
            .map(|f| crate::engine::intern_fact(db, f))
            .collect();
        let mut graph = BipartiteGraph::new(fact_list.len(), table.len());
        for (i, fact) in fact_list.iter().enumerate() {
            for (j, row) in table.tuples().iter().enumerate() {
                let unifies = row
                    .terms
                    .iter()
                    .zip(fact.iter())
                    .all(|(t, &c)| t.as_sym().is_none_or(|tc| tc == c));
                if unifies {
                    graph.add_edge(i, j);
                }
            }
        }
        if maximum_matching(&graph).cardinality() != fact_list.len() {
            return false;
        }
    }
    true
}

/// The bounded/general search on conditional tables: find rows producing exactly the facts
/// of `P` under a consistent valuation (Theorem 5.2(1) after c-table conversion; the same
/// search is the NP procedure for e-/i-/g-/c-tables).
pub fn row_cover(db: &CDatabase, facts: &Instance, budget: Budget) -> Result<bool, DecisionError> {
    Engine::new(EngineConfig::sequential(budget)).exists_world_covering(db, facts)
}

/// Canonical-valuation enumeration on an explicit [`Engine`] (parallel over the
/// valuations): the first valuation whose world contains `facts` — kept as the
/// evidence on a certifying engine.
fn by_enumeration_with(
    view: &View,
    facts: &Instance,
    engine: &Engine,
) -> Result<Evidence, DecisionError> {
    let vars: Vec<_> = view.db.variables().into_iter().collect();
    let mut delta = evaluation_delta(&view.db, facts.active_domain());
    delta.extend(view.query.constants());
    let certify = engine.config().certify;
    let found = engine.find_canonical_valuation(view.db.symbols(), &vars, &delta, |valuation| {
        let world = valuation.world_of(&view.db)?;
        let output = view.query.eval(&world);
        facts
            .is_subinstance_of(&output)
            .then(|| certify.then(|| valuation.iter().collect()))
    })?;
    Ok((found.is_some(), found.flatten()))
}

/// Generic fallback for first order and DATALOG views: canonical-valuation enumeration.
pub fn by_enumeration(
    view: &View,
    facts: &Instance,
    budget: Budget,
) -> Result<bool, DecisionError> {
    by_enumeration_with(view, facts, &Engine::new(EngineConfig::sequential(budget)))
        .map(|(found, _)| found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::{Atom, Conjunction, Term, VarGen};
    use pw_core::CTable;
    use pw_query::{qatom, ConjunctiveQuery, DatalogProgram, QTerm, Query, QueryDef, Ucq};
    use pw_relational::rel;

    fn budget() -> Budget {
        Budget(1_000_000)
    }

    #[test]
    fn codd_possibility_is_a_matching_problem() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::codd(
            "R",
            2,
            [
                vec![Term::constant(1), Term::Var(x)],
                vec![Term::Var(y), Term::constant(2)],
            ],
        )
        .unwrap();
        let db = CDatabase::single(t);
        let view = View::identity(db.clone());
        assert_eq!(strategy(&view), Strategy::CoddMatching);
        assert!(codd_matching(&db, &Instance::single("R", rel![[1, 7]])));
        assert!(codd_matching(
            &db,
            &Instance::single("R", rel![[1, 7], [9, 2]])
        ));
        assert!(
            !codd_matching(&db, &Instance::single("R", rel![[1, 7], [1, 8]])),
            "two facts cannot both come from the single compatible row"
        );
        assert!(!codd_matching(&db, &Instance::single("R", rel![[3, 4]])));
        assert!(!codd_matching(&db, &Instance::single("S", rel![[3]])));
        // Empty fact set is always possible.
        assert!(codd_matching(&db, &Instance::new()));
    }

    #[test]
    fn matching_agrees_with_row_cover_and_enumeration() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let t = CTable::codd(
            "R",
            2,
            [
                vec![Term::constant(1), Term::Var(x)],
                vec![Term::Var(y), Term::constant(2)],
            ],
        )
        .unwrap();
        let db = CDatabase::single(t);
        let view = View::identity(db.clone());
        for facts in [
            Instance::single("R", rel![[1, 7]]),
            Instance::single("R", rel![[1, 2]]),
            Instance::single("R", rel![[1, 7], [9, 2]]),
            Instance::single("R", rel![[1, 7], [1, 8]]),
            Instance::single("R", rel![[3, 4]]),
        ] {
            let m = codd_matching(&db, &facts);
            let r = row_cover(&db, &facts, budget()).unwrap();
            let e = by_enumeration(&view, &facts, budget()).unwrap();
            assert_eq!(m, r, "matching vs row-cover on {facts}");
            assert_eq!(m, e, "matching vs enumeration on {facts}");
        }
    }

    #[test]
    fn itable_possibility_respects_inequalities() {
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
        let view = View::identity(db.clone());
        assert_eq!(strategy(&view), Strategy::Backtracking);
        assert!(row_cover(&db, &Instance::single("R", rel![[1], [2]]), budget()).unwrap());
        // Both facts equal: they would need the two rows to coincide, violating x ≠ y …
        // but a single fact set {1} only needs one row, so it stays possible.
        assert!(row_cover(&db, &Instance::single("R", rel![[1]]), budget()).unwrap());
        // Duplicate facts collapse in a set, so {1, 1} is just {1}: still possible.
        assert!(row_cover(&db, &Instance::single("R", rel![[1], [1]]), budget()).unwrap());
    }

    #[test]
    fn bounded_possibility_through_a_positive_view() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // T = {(1, x), (2, 3)}; q(a, b) :- T(a, b) — identity-like but through the algebra.
        let t = CTable::codd(
            "T",
            2,
            [
                vec![Term::constant(1), Term::Var(x)],
                vec![Term::constant(2), Term::constant(3)],
            ],
        )
        .unwrap();
        let q = Query::single(
            "Q",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("a"), QTerm::var("b")],
                [qatom!("T"; "a", "b")],
            ))),
        );
        let view = View::new(q, CDatabase::single(t));
        assert_eq!(strategy(&view), Strategy::CTableAlgebra);
        assert!(decide(&view, &Instance::single("Q", rel![[1, 9]]), budget()).unwrap());
        assert!(decide(
            &view,
            &Instance::single("Q", rel![[1, 9], [2, 3]]),
            budget()
        )
        .unwrap());
        assert!(!decide(&view, &Instance::single("Q", rel![[3, 3]]), budget()).unwrap());
        // A join query: q2(a) :- T(a, b), T(b, c)  — possible only if x can chain onto a row.
        let q2 = Query::single(
            "J",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("a")],
                [qatom!("T"; "a", "b"), qatom!("T"; "b", "c")],
            ))),
        );
        let mut g2 = VarGen::new();
        let x2 = g2.fresh();
        let t2 = CTable::codd(
            "T",
            2,
            [
                vec![Term::constant(1), Term::Var(x2)],
                vec![Term::constant(2), Term::constant(3)],
            ],
        )
        .unwrap();
        let view2 = View::new(q2, CDatabase::single(t2));
        // (1) ∈ q2 iff x = 1 (self-join) or x = 2 (chain through (2,3)): possible.
        assert!(decide(&view2, &Instance::single("J", rel![[1]]), budget()).unwrap());
        // (3) ∈ q2 would need a row starting with 3: impossible.
        assert!(!decide(&view2, &Instance::single("J", rel![[3]]), budget()).unwrap());
    }

    #[test]
    fn datalog_view_falls_back_to_enumeration() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // Edges {(1, x), (2, 3)}; is (1, 3) possibly in the transitive closure?  Yes: x = 2.
        let t = CTable::codd(
            "E",
            2,
            [
                vec![Term::constant(1), Term::Var(x)],
                vec![Term::constant(2), Term::constant(3)],
            ],
        )
        .unwrap();
        let q = Query::single(
            "TC",
            QueryDef::Datalog(DatalogProgram::transitive_closure("E", "TC")),
        );
        let view = View::new(q, CDatabase::single(t));
        assert_eq!(strategy(&view), Strategy::WorldEnumeration);
        assert!(decide(&view, &Instance::single("TC", rel![[1, 3]]), budget()).unwrap());
        assert!(!decide(&view, &Instance::single("TC", rel![[3, 1]]), budget()).unwrap());
    }

    #[test]
    fn certainty_implies_possibility_spot_check() {
        // A ground fact present in the table is both certain and possible.
        let t = CTable::codd("R", 1, [vec![Term::constant(4)]]).unwrap();
        let db = CDatabase::single(t);
        let view = View::identity(db.clone());
        let p = Instance::single("R", rel![[4]]);
        assert!(decide(&view, &p, budget()).unwrap());
        assert!(crate::certainty::decide(&view, &p, budget()).unwrap());
    }
}
