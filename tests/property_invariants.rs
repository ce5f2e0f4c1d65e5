//! Property-based tests (proptest) for the core invariants:
//!
//! * conjunction satisfiability agrees with brute-force evaluation over a small domain;
//! * the matching-based membership algorithm agrees with the backtracking one on random
//!   Codd-tables (Theorem 3.1(1) vs. the generic NP procedure);
//! * a world produced by applying a random valuation is always a member, possible and
//!   query-monotone;
//! * naive and semi-naive Datalog evaluation agree on random edge relations;
//! * c-table simplification preserves the represented set of worlds, is idempotent and
//!   never grows the table;
//! * incremental re-decision after random deltas agrees with a from-scratch decide on
//!   all five problems (answers and strategies);
//! * every answer a certifying session produces — from `decide_all` and from
//!   `redecide_all` after random deltas alike, under generous and tight budgets — carries
//!   a certificate the independent `pw_check` checker accepts, while outcomes stay
//!   identical to the uncertified session's: every answer (budget exhaustion included)
//!   and strategy on one thread, every definite answer and strategy on four.

use possible_worlds::prelude::*;
use possible_worlds::query::datalog::FixpointStrategy;
use proptest::prelude::*;
// Both preludes export a `Strategy` name (the decision-procedure enum and the proptest
// trait); bring the trait into scope anonymously so `.prop_map` et al. resolve.
use proptest::strategy::Strategy as _;

fn small_budget() -> Budget {
    Budget(5_000_000)
}

/// Strategy: a conjunction over `nvars` variables and constants 0..3, up to `natoms` atoms.
fn conjunction_strategy(
    nvars: usize,
    natoms: usize,
) -> impl proptest::strategy::Strategy<Value = (Vec<Variable>, Conjunction)> {
    let mut gen = VarGen::new();
    let vars: Vec<Variable> = (0..nvars).map(|_| gen.fresh()).collect();
    let vars_for_atoms = vars.clone();
    let atom = (0..4usize, 0..4usize, 0..4i64, any::<bool>(), any::<bool>()).prop_map(
        move |(a, b, c, use_const, eq)| {
            let left = Term::Var(vars_for_atoms[a % vars_for_atoms.len()]);
            let right = if use_const {
                Term::constant(c)
            } else {
                Term::Var(vars_for_atoms[b % vars_for_atoms.len()])
            };
            if eq {
                Atom::Eq(left, right)
            } else {
                Atom::Neq(left, right)
            }
        },
    );
    proptest::collection::vec(atom, 0..natoms)
        .prop_map(move |atoms| (vars.clone(), Conjunction::new(atoms)))
}

/// Brute force: is the conjunction satisfiable with variable values drawn from 0..=k?
/// (For equality/inequality constraints a domain as large as the number of variables plus
/// the mentioned constants is always sufficient.)
fn brute_force_satisfiable(vars: &[Variable], conj: &Conjunction) -> bool {
    let domain: Vec<Constant> = (0..(vars.len() as i64 + 4)).map(Constant::Int).collect();
    fn rec(
        vars: &[Variable],
        idx: usize,
        domain: &[Constant],
        assignment: &mut Vec<(Variable, Constant)>,
        conj: &Conjunction,
    ) -> bool {
        if idx == vars.len() {
            // The evaluator works over interned ids (the PR 2 substrate), so the
            // brute-force assignment resolves through the global dictionary.
            let lookup = |v: Variable| {
                assignment
                    .iter()
                    .find(|(w, _)| *w == v)
                    .map(|(_, c)| Symbols::global().intern(c))
            };
            return conj.eval(&lookup) == Some(true);
        }
        for c in domain {
            assignment.push((vars[idx], c.clone()));
            if rec(vars, idx + 1, domain, assignment, conj) {
                return true;
            }
            assignment.pop();
        }
        false
    }
    rec(vars, 0, &domain, &mut Vec::new(), conj)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conjunction_satisfiability_matches_brute_force((vars, conj) in conjunction_strategy(4, 6)) {
        prop_assert_eq!(conj.is_satisfiable(), brute_force_satisfiable(&vars, &conj));
    }
}

/// Strategy: a random Codd-table of arity 2 plus a candidate instance over constants 0..4.
fn codd_and_instance() -> impl proptest::strategy::Strategy<Value = (CDatabase, Instance)> {
    let row = (0..5i64, 0..5i64, any::<bool>(), any::<bool>());
    let rows = proptest::collection::vec(row, 1..5);
    let facts = proptest::collection::vec((0..5i64, 0..5i64), 0..4);
    (rows, facts).prop_map(|(rows, facts)| {
        let mut gen = VarGen::new();
        let table_rows: Vec<Vec<Term>> = rows
            .into_iter()
            .map(|(a, b, var_a, var_b)| {
                vec![
                    if var_a {
                        Term::Var(gen.fresh())
                    } else {
                        Term::constant(a)
                    },
                    if var_b {
                        Term::Var(gen.fresh())
                    } else {
                        Term::constant(b)
                    },
                ]
            })
            .collect();
        let table = CTable::codd("R", 2, table_rows).expect("fresh nulls");
        let rel = Relation::from_tuples(2, facts.into_iter().map(|(a, b)| tup![a, b]));
        (CDatabase::single(table), Instance::single("R", rel))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn matching_and_backtracking_membership_agree((db, instance) in codd_and_instance()) {
        let fast = membership::codd_matching(&db, &instance);
        let slow = membership::backtracking(&db, &instance, small_budget()).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn possibility_is_implied_by_membership((db, instance) in codd_and_instance()) {
        let member = membership::codd_matching(&db, &instance);
        let possible = possibility::codd_matching(&db, &instance);
        if member {
            prop_assert!(possible, "a world trivially contains itself");
        }
    }

    #[test]
    fn applied_valuations_always_yield_members((db, _instance) in codd_and_instance()) {
        // Build a valuation sending every null to a value in 0..5 and check the produced
        // world is a member and every single fact of it is possible and (if the table rows
        // are all ground) certain.
        let vars: Vec<Variable> = db.variables().into_iter().collect();
        let valuation = Valuation::from_pairs(vars.iter().enumerate().map(|(i, &v)| (v, Constant::Int((i % 5) as i64))));
        let world = valuation.world_of(&db).expect("Codd-tables have no conditions");
        prop_assert!(membership::codd_matching(&db, &world));
        prop_assert!(possibility::codd_matching(&db, &world));
    }
}

/// Strategy: a random edge relation over 0..6.
fn edges() -> impl proptest::strategy::Strategy<Value = Instance> {
    proptest::collection::vec((0..6i64, 0..6i64), 0..12).prop_map(|pairs| {
        let rel = Relation::from_tuples(2, pairs.into_iter().map(|(a, b)| tup![a, b]));
        Instance::single("E", rel)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn naive_and_semi_naive_datalog_agree(instance in edges()) {
        let program = DatalogProgram::transitive_closure("E", "TC");
        let naive = program.eval_with(&instance, FixpointStrategy::Naive);
        let semi = program.eval_with(&instance, FixpointStrategy::SemiNaive);
        prop_assert_eq!(naive, semi);
    }

    #[test]
    fn transitive_closure_is_monotone(instance in edges()) {
        // Adding an edge never removes a closure fact — the monotonicity underlying the
        // certain-answer algorithm of Theorem 5.3(1).
        let program = DatalogProgram::transitive_closure("E", "TC");
        let base = program.eval(&instance);
        let mut bigger = instance.clone();
        bigger.insert_fact("E", tup![0, 5]).unwrap();
        let extended = program.eval(&bigger);
        prop_assert!(base.is_subset(&extended));
    }
}

/// Strategy: a small c-table over one switch variable plus a UCQ projection, for checking
/// the representation-system property of the c-table algebra end to end.
fn small_ctable() -> impl proptest::strategy::Strategy<Value = CDatabase> {
    let row = (0..3i64, 0..3i64, 0..3u8);
    proptest::collection::vec(row, 1..4).prop_map(|rows| {
        let mut gen = VarGen::new();
        let switch = gen.fresh();
        let tuples: Vec<CTuple> = rows
            .into_iter()
            .map(|(a, b, kind)| match kind {
                0 => CTuple::of_terms([Term::constant(a), Term::constant(b)]),
                1 => CTuple::with_condition(
                    [Term::constant(a), Term::Var(switch)],
                    Conjunction::new([Atom::eq(switch, b)]),
                ),
                _ => CTuple::with_condition(
                    [Term::constant(a), Term::constant(b)],
                    Conjunction::new([Atom::neq(switch, b)]),
                ),
            })
            .collect();
        CDatabase::single(CTable::new("T", 2, Conjunction::truth(), tuples).unwrap())
    })
}

/// Strategy: a small c-table with a global condition, repeated nulls and local conditions —
/// enough structure for simplification to have something to do.
fn conditioned_ctable() -> impl proptest::strategy::Strategy<Value = CTable> {
    let row = (0..3i64, 0..3i64, 0..5u8, 0..3i64);
    let global_kind = 0..3u8;
    (proptest::collection::vec(row, 1..5), global_kind).prop_map(|(rows, global_kind)| {
        let mut gen = VarGen::new();
        let (x, y) = (gen.fresh(), gen.fresh());
        let global = match global_kind {
            0 => Conjunction::truth(),
            1 => Conjunction::new([Atom::eq(x, 1)]),
            _ => Conjunction::new([Atom::neq(x, 2)]),
        };
        let tuples: Vec<CTuple> = rows
            .into_iter()
            .map(|(a, b, kind, c)| match kind {
                0 => CTuple::of_terms([Term::constant(a), Term::constant(b)]),
                1 => CTuple::of_terms([Term::Var(x), Term::constant(b)]),
                2 => CTuple::with_condition(
                    [Term::constant(a), Term::Var(y)],
                    Conjunction::new([Atom::eq(x, c)]),
                ),
                3 => CTuple::with_condition(
                    [Term::constant(a), Term::constant(b)],
                    Conjunction::new([Atom::neq(x, c), Atom::eq(x, x)]),
                ),
                _ => CTuple::with_condition(
                    [Term::Var(x), Term::Var(y)],
                    Conjunction::new([Atom::eq(y, c)]),
                ),
            })
            .collect();
        CTable::new("T", 2, global, tuples).unwrap()
    })
}

/// Enumerate the worlds of a single table over a shared domain (the given constants plus
/// the enumerator's fresh padding).
fn worlds_of(
    table: &CTable,
    shared: &std::collections::BTreeSet<Constant>,
) -> std::collections::BTreeSet<Instance> {
    let db = CDatabase::single(table.clone());
    PossibleWorlds::new(&db)
        .with_extra_constants(shared.iter().cloned())
        .enumerate(500_000)
        .expect("the generated tables are tiny")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simplification_preserves_the_represented_worlds(table in conditioned_ctable()) {
        let shared: std::collections::BTreeSet<Constant> = table.constants();
        match simplify_table(&table) {
            None => {
                // An unsatisfiable global condition means the representation is empty.
                prop_assert!(!table.global_condition().is_satisfiable());
            }
            Some(simplified) => {
                prop_assert!(simplified.len() <= table.len());
                prop_assert_eq!(worlds_of(&table, &shared), worlds_of(&simplified, &shared));
                // Idempotence: a second pass changes nothing (up to variable identity,
                // which simplification never touches, so plain equality applies).
                let twice = simplify_table(&simplified).expect("already satisfiable");
                prop_assert_eq!(&twice, &simplified);
            }
        }
    }

    #[test]
    fn simplification_commutes_with_membership(table in conditioned_ctable()) {
        // Decision procedures answer identically on the original and simplified table.
        let Some(simplified) = simplify_table(&table) else { return Ok(()); };
        let db = CDatabase::single(table);
        let sdb = CDatabase::single(simplified);
        let vars: Vec<Variable> = db.variables().into_iter().collect();
        let valuation = Valuation::from_pairs(vars.iter().enumerate().map(|(i, &v)| (v, Constant::Int((i % 3) as i64))));
        if let Some(world) = valuation.world_of(&db) {
            prop_assert!(membership::decide(&sdb, &world, small_budget()).unwrap());
        }
        let outside = Instance::single("T", Relation::from_tuples(2, [tup![9, 9]]));
        prop_assert_eq!(
            possibility::decide(&View::identity(db), &outside, small_budget()).unwrap(),
            possibility::decide(&View::identity(sdb), &outside, small_budget()).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ctable_algebra_certain_and_possible_answers_agree_with_enumeration(db in small_ctable()) {
        let q = Ucq::single(ConjunctiveQuery::new(
            [QTerm::var("a")],
            [qatom!("T"; "a", "b")],
        ));
        let view = View::new(Query::single("Q", QueryDef::Ucq(q.clone())), db.clone());
        // Reference answers by full enumeration of the view.
        let worlds = view.enumerate_worlds(100_000, []).unwrap();
        let all_answers: Vec<Relation> = worlds
            .iter()
            .map(|w| w.relation_or_empty("Q", 1))
            .collect();
        for value in 0..3i64 {
            let fact = Instance::single("Q", Relation::from_tuples(1, [tup![value]]));
            let expected_possible = all_answers.iter().any(|r| r.contains(&tup![value]));
            let expected_certain = all_answers.iter().all(|r| r.contains(&tup![value]));
            prop_assert_eq!(
                possibility::decide(&view, &fact, small_budget()).unwrap(),
                expected_possible
            );
            prop_assert_eq!(
                certainty::decide(&view, &fact, small_budget()).unwrap(),
                expected_certain
            );
        }
    }
}

/// Strategy: a seed for a small decoupled multi-relation database plus a random
/// mutation stream over it.
fn delta_scenario() -> impl proptest::strategy::Strategy<Value = (u64, usize)> {
    (0u64..1_000, 1usize..5).prop_map(|(seed, deltas)| (seed, deltas))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn redecide_matches_fresh_decide_on_all_five_problems((seed, delta_count) in delta_scenario()) {
        use possible_worlds::decide::batch::{DecisionRequest, Session};
        use possible_worlds::decide::EngineConfig;
        use possible_worlds::workloads::{mutation_stream, member_instance, non_member_instance, TableParams};

        let params = TableParams { rows: 3, arity: 2, constants: 3, null_density: 0.4, seed };
        let stream = mutation_stream(4, &params, delta_count);
        let member = member_instance(&stream.base, &params);
        let non_member = non_member_instance(&stream.base, &params);
        let requests_for = |db: &CDatabase| -> Vec<DecisionRequest> {
            let view = View::identity(db.clone());
            vec![
                DecisionRequest::Membership { view: view.clone(), instance: member.clone() },
                DecisionRequest::Membership { view: view.clone(), instance: non_member.clone() },
                DecisionRequest::Possibility { view: view.clone(), facts: member.clone() },
                DecisionRequest::Certainty { view: view.clone(), facts: member.clone() },
                DecisionRequest::Uniqueness { view: view.clone(), instance: member.clone() },
                DecisionRequest::Containment { left: view.clone(), right: view },
            ]
        };

        let cfg = EngineConfig::sequential(small_budget());
        let session = Session::sized(&cfg, 6);
        let mut cur = stream.base.clone();
        let _ = session.decide_all(&requests_for(&cur));
        for delta in &stream.deltas {
            let redecision = session
                .redecide_all(&cur, delta, &requests_for(&cur))
                .expect("stream deltas apply in sequence");
            // The from-scratch reference: a cold engine deciding the mutated database.
            let (fresh_db, _) = cur.apply(delta).expect("stream deltas apply in sequence");
            let fresh = possible_worlds::decide::batch::decide_all_with(&requests_for(&fresh_db), &cfg);
            prop_assert_eq!(redecision.outcomes.len(), fresh.len());
            for (incremental, scratch) in redecision.outcomes.iter().zip(&fresh) {
                prop_assert!(
                    incremental.answer == scratch.answer && incremental.strategy == scratch.strategy,
                    "redecide diverged from fresh decide (seed {}, {} deltas)",
                    seed,
                    delta_count
                );
            }
            cur = redecision.db;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_certified_answer_passes_the_independent_checker((seed, delta_count) in delta_scenario()) {
        use possible_worlds::decide::batch::{DecisionRequest, Session};
        use possible_worlds::decide::EngineConfig;
        use possible_worlds::workloads::{mutation_stream, member_instance, non_member_instance, TableParams};
        use possible_worlds::{check, check_claim};

        let params = TableParams { rows: 3, arity: 2, constants: 3, null_density: 0.4, seed };
        let stream = mutation_stream(4, &params, delta_count);
        let member = member_instance(&stream.base, &params);
        let non_member = non_member_instance(&stream.base, &params);
        let requests_for = |db: &CDatabase| -> Vec<DecisionRequest> {
            let view = View::identity(db.clone());
            vec![
                DecisionRequest::Membership { view: view.clone(), instance: member.clone() },
                DecisionRequest::Membership { view: view.clone(), instance: non_member.clone() },
                DecisionRequest::Possibility { view: view.clone(), facts: member.clone() },
                DecisionRequest::Certainty { view: view.clone(), facts: member.clone() },
                DecisionRequest::Uniqueness { view: view.clone(), instance: member.clone() },
                DecisionRequest::Containment { left: view.clone(), right: view },
            ]
        };

        // Certified and uncertified decides walk the same search tree and charge the
        // same budget, so on one thread even a budget-exceeded outcome must agree; on
        // four threads the requests of a batch race for the memo, so only definite
        // answers are compared.  The tight budgets exhaust on some requests and not on
        // others.
        let sweep = [
            (1, small_budget()),
            (1, Budget(6)),
            (1, Budget(24)),
            (1, Budget(120)),
            (4, small_budget()),
            (4, Budget(24)),
        ];
        for (threads, budget) in sweep {
            let cfg = EngineConfig::with_threads(threads, budget);
            let plain = Session::sized(&cfg, 6);
            let certifying = Session::certifying(&cfg, 6);

            // One audit pass: certified outcomes and strategies agree with the plain
            // session's, and every delivered answer carries a certificate the independent
            // checker accepts.  (A budget-exceeded request has no answer to certify.)
            macro_rules! audit {
                ($requests:expr, $certified:expr, $uncertified:expr, $stage:expr) => {
                    prop_assert_eq!($certified.len(), $uncertified.len());
                    for ((request, certified), uncertified) in
                        $requests.iter().zip($certified).zip($uncertified)
                    {
                        let definite = certified.answer.is_ok() && uncertified.answer.is_ok();
                        let compared = threads == 1 || definite;
                        prop_assert!(
                            (!compared || certified.answer == uncertified.answer)
                                && certified.strategy == uncertified.strategy,
                            "certified session diverged from plain \
                             ({}, seed {}, {} deltas, {} threads, {:?}): {:?} vs {:?}",
                            $stage, seed, delta_count, threads, budget,
                            certified.answer, uncertified.answer
                        );
                        let Ok(answer) = certified.answer else { continue };
                        let claim = check_claim(request, answer);
                        let Some(certificate) = certified.certificate.as_ref() else {
                            prop_assert!(
                                false,
                                "uncertified {} answer ({}, seed {}, {} deltas)",
                                claim.problem.name(), $stage, seed, delta_count
                            );
                            continue;
                        };
                        if let Err(e) = check::verify(&claim, certificate) {
                            prop_assert!(
                                false,
                                "pw_check rejected a {} certificate ({}, seed {}, {} deltas): {e}",
                                claim.problem.name(), $stage, seed, delta_count
                            );
                        }
                    }
                };
            }

            let mut cur = stream.base.clone();
            let requests = requests_for(&cur);
            audit!(
                &requests,
                &certifying.decide_all(&requests),
                &plain.decide_all(&requests),
                "initial decide_all"
            );
            for (i, delta) in stream.deltas.iter().enumerate() {
                let requests = requests_for(&cur);
                let redecision = certifying
                    .redecide_all(&cur, delta, &requests)
                    .expect("stream deltas apply in sequence");
                let plain_redecision = plain
                    .redecide_all(&cur, delta, &requests)
                    .expect("stream deltas apply in sequence");
                // A re-decision answers about the *mutated* database — the claims the
                // checker verifies must be phrased against the post-delta views.
                let post_requests = requests_for(&redecision.db);
                audit!(
                    &post_requests,
                    &redecision.outcomes,
                    &plain_redecision.outcomes,
                    format!("redecide_all #{i}")
                );
                cur = redecision.db;
            }
        }
    }
}
