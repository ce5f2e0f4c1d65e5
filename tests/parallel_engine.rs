//! Tests for the parallel decision-engine substrate (`pw_decide::engine` / `::batch`):
//!
//! * a property test asserting that the parallel and sequential searches return identical
//!   decisions on randomized `pw-workloads` tables across every table class and all five
//!   decision problems, and
//! * a regression test asserting that `BudgetExceeded` is reported deterministically under
//!   parallelism when the searched tree has no witness and exceeds the budget, and
//! * a work count pinning the fail-first search order: the hard-decide benchmark's
//!   refutations finish within 64 nodes.
//!
//! The randomized cases use the seeded workload generators (no external property-testing
//! framework is available offline); every seed is deterministic, so a failure here is
//! reproducible by seed.

use possible_worlds::decide::{batch, Engine, EngineConfig};
use possible_worlds::prelude::*;
use possible_worlds::reductions::membership_hardness::k_col_itable;
use possible_worlds::solvers::Graph;
use possible_worlds::workloads::{
    coupled_heavy_membership, member_instance, non_member_instance, random_codd_table,
    random_ctable, random_etable, random_gtable, random_itable, SkewedParams, TableParams,
};

fn small_params(seed: u64) -> TableParams {
    TableParams {
        rows: 4,
        arity: 2,
        constants: 3,
        null_density: 0.4,
        seed,
    }
}

type TableGenerator = fn(&str, &TableParams) -> CTable;

fn generators() -> Vec<(&'static str, TableGenerator)> {
    vec![
        ("codd", random_codd_table as TableGenerator),
        ("e-table", random_etable),
        ("i-table", random_itable),
        ("g-table", random_gtable),
        ("c-table", random_ctable),
    ]
}

const THREAD_COUNTS: [usize; 2] = [2, 8];

/// Property: for every table class, seed and decision problem, every parallel
/// configuration returns exactly the sequential answer.
#[test]
fn parallel_and_sequential_decisions_agree_on_random_workloads() {
    let budget = Budget(20_000_000);
    for (class, generate) in generators() {
        for seed in 0..6u64 {
            let params = small_params(seed);
            let db = CDatabase::single(generate("T", &params));
            let view = View::identity(db.clone());
            let member = member_instance(&db, &params);
            let non_member = non_member_instance(&db, &params);

            for instance in [&member, &non_member] {
                let seq_memb = membership::decide(&db, instance, budget).unwrap();
                let seq_uniq = uniqueness::decide(&view, instance, budget).unwrap();
                let seq_poss = possibility::decide(&view, instance, budget).unwrap();
                let seq_cert = certainty::decide(&view, instance, budget).unwrap();
                for threads in THREAD_COUNTS {
                    let engine = Engine::new(EngineConfig::with_threads(threads, budget));
                    let ctx = format!("{class} seed {seed} threads {threads} on {instance}");
                    assert_eq!(
                        membership::view_membership_with(&view, instance, &engine)
                            .answer
                            .unwrap(),
                        seq_memb,
                        "membership {ctx}"
                    );
                    assert_eq!(
                        uniqueness::decide_with(&view, instance, &engine)
                            .answer
                            .unwrap(),
                        seq_uniq,
                        "uniqueness {ctx}"
                    );
                    assert_eq!(
                        possibility::decide_with(&view, instance, &engine)
                            .answer
                            .unwrap(),
                        seq_poss,
                        "possibility {ctx}"
                    );
                    assert_eq!(
                        certainty::decide_with(&view, instance, &engine)
                            .answer
                            .unwrap(),
                        seq_cert,
                        "certainty {ctx}"
                    );
                }
            }

            // Containment between this seed's table and the next seed's table of the same
            // class (rarely true, which is exactly the hard direction for the search).
            let other = CDatabase::single(generate("T", &small_params(seed + 100)));
            let other_view = View::identity(other);
            let seq_cont = containment::decide(&view, &other_view, budget).unwrap();
            for threads in THREAD_COUNTS {
                let engine = Engine::new(EngineConfig::with_threads(threads, budget));
                assert_eq!(
                    containment::decide_with(&view, &other_view, &engine)
                        .answer
                        .unwrap(),
                    seq_cont,
                    "containment {class} seed {seed} threads {threads}"
                );
            }
        }
    }
}

/// Property: the batched front door returns, position by position, the single-shot
/// answers, for every thread count.
#[test]
fn batch_matches_single_shot_on_random_workloads() {
    let budget = Budget(20_000_000);
    let mut requests = Vec::new();
    let mut expected = Vec::new();
    for seed in 0..4u64 {
        let params = small_params(seed);
        let db = CDatabase::single(random_ctable("T", &params));
        let view = View::identity(db.clone());
        let member = member_instance(&db, &params);
        expected.push(membership::decide(&db, &member, budget).unwrap());
        requests.push(batch::DecisionRequest::Membership {
            view: view.clone(),
            instance: member.clone(),
        });
        expected.push(possibility::decide(&view, &member, budget).unwrap());
        requests.push(batch::DecisionRequest::Possibility {
            view: view.clone(),
            facts: member.clone(),
        });
        expected.push(certainty::decide(&view, &member, budget).unwrap());
        requests.push(batch::DecisionRequest::Certainty {
            view,
            facts: member,
        });
    }
    for threads in [1, 2, 8] {
        let cfg = EngineConfig::with_threads(threads, budget);
        let outcomes = batch::decide_all_with(&requests, &cfg);
        let answers: Vec<bool> = outcomes
            .iter()
            .map(|o| *o.answer.as_ref().unwrap())
            .collect();
        assert_eq!(answers, expected, "batch answers with {threads} threads");
    }
}

/// A possibility question with no witness and a search tree much larger than the budget:
/// nine facts can never be covered by eight rows, but the search only discovers that after
/// exploring an 8-level assignment tree (~10⁵ nodes).
fn oversized_cover_request() -> (View, Instance) {
    let mut vars = VarGen::new();
    let xs: Vec<Variable> = (0..8).map(|_| vars.fresh()).collect();
    let rows: Vec<Vec<Term>> = xs.iter().map(|&x| vec![Term::Var(x)]).collect();
    // The (satisfiable) global inequality makes this an i-table, so the dispatcher picks
    // the general backtracking search rather than the polynomial Codd matching.
    let table = CTable::i_table("R", 1, Conjunction::new([Atom::neq(xs[0], xs[1])]), rows).unwrap();
    let view = View::identity(CDatabase::single(table));
    let mut rel = Relation::empty(1);
    for i in 0..9i64 {
        rel.insert(Tuple::new([i.into()])).unwrap();
    }
    (view, Instance::single("R", rel))
}

/// Regression: `BudgetExceeded` must be reported deterministically under parallelism —
/// when no witness exists and the tree exceeds the budget, every thread count and every
/// repetition reports the exhaustion (and with an ample budget, every configuration
/// reports the same `false` answer instead).
#[test]
fn budget_exceeded_is_deterministic_under_parallelism() {
    let (view, facts) = oversized_cover_request();
    for threads in [1, 2, 8] {
        for repetition in 0..3 {
            let starved = Engine::new(EngineConfig::with_threads(threads, Budget(500)));
            assert_eq!(
                possibility::decide_with(&view, &facts, &starved).answer,
                Err(DecisionError::BudgetExceeded),
                "starved run must always exhaust ({threads} threads, repetition {repetition})"
            );
            let ample = Engine::new(EngineConfig::with_threads(threads, Budget(50_000_000)));
            assert_eq!(
                possibility::decide_with(&view, &facts, &ample).answer,
                Ok(false),
                "ample run must always complete ({threads} threads, repetition {repetition})"
            );
        }
    }
}

/// Work count of the fail-first search: the three 3-colouring refutations the
/// benchmark's hard-decide workload asks about (`coupled_heavy_membership`, 10 vertices,
/// edge density 0.2, graph seeds 0, 1 and 4) plant a 4-clique in the *last* four rows.
/// A table-order search re-refutes that clique under every colouring of the rows before
/// it (2.5k–3.2k nodes); branching on the most constrained row and pruning a wiped-out
/// row refutes it in at most 22, well inside a 64-node budget at every thread count.
/// The pigeonhole refutation beside it stays hard for any row order: 1024 nodes do not
/// finish it.
#[test]
fn fail_first_refutes_the_hard_decide_graphs_within_64_nodes() {
    for seed in [0, 1, 4] {
        let params = SkewedParams {
            heavy: 10,
            edge_density: 0.2,
            seed,
            ..SkewedParams::default()
        };
        let (db, instance) = coupled_heavy_membership(&params);
        assert_eq!(
            membership::decide(&db, &instance, Budget(64)),
            Ok(false),
            "sequential, graph seed {seed}"
        );
        let engine = Engine::new(EngineConfig::with_threads(4, Budget(64)));
        let view = View::identity(db);
        assert_eq!(
            membership::view_membership_with(&view, &instance, &engine).answer,
            Ok(false),
            "4 threads, graph seed {seed}"
        );
    }
    let pigeonhole = k_col_itable(&Graph::complete(8), 7);
    assert_eq!(
        membership::decide(&pigeonhole.view.db, &pigeonhole.instance, Budget(1024)),
        Err(DecisionError::BudgetExceeded),
        "eight vertices in seven colours"
    );
}

/// The engine's cancellation must not flip answers: a witness that exists is found by
/// every configuration even when most of the tree is a desert.
#[test]
fn first_witness_early_exit_is_sound() {
    let mut vars = VarGen::new();
    // Eight nearly unconstrained rows and eight facts: coverable (a witness exists), with
    // a huge search tree most of which is irrelevant once the witness is found.  The
    // global inequality forces the general backtracking search (i-table, not Codd).
    let xs: Vec<Variable> = (0..8).map(|_| vars.fresh()).collect();
    let rows: Vec<Vec<Term>> = xs.iter().map(|&x| vec![Term::Var(x)]).collect();
    let table = CTable::i_table("R", 1, Conjunction::new([Atom::neq(xs[0], xs[1])]), rows).unwrap();
    let view = View::identity(CDatabase::single(table));
    let mut rel = Relation::empty(1);
    for i in 0..8i64 {
        rel.insert(Tuple::new([i.into()])).unwrap();
    }
    let facts = Instance::single("R", rel);
    for threads in [1, 2, 8] {
        let engine = Engine::new(EngineConfig::with_threads(threads, Budget(50_000_000)));
        assert_eq!(
            possibility::decide_with(&view, &facts, &engine).answer,
            Ok(true),
            "witness found with {threads} threads"
        );
    }
}

// ---------------------------------------------------------------------------------------
// Shard-group parallel decide: answers and strategies of the per-shard paths are pinned
// against the joint search (`EngineConfig::without_per_shard`) on decoupled
// multi-relation workloads across every problem, integer and string-heavy, with the
// condition-coupled fallback and deterministic budget exhaustion.
// ---------------------------------------------------------------------------------------

/// A decoupled multi-relation database cycling through the table classes, with the last
/// shard a hand-built *conditional* table (the `pw_workloads::decoupled` family stops at
/// g-tables so the certainty/uniqueness dispatch stays polynomial there; a guaranteed
/// c-table shard forces the coNP complement paths onto the per-shard decomposition).
fn decoupled_all_classes(relations: usize, seed: u64) -> CDatabase {
    let gens = generators();
    let mut tables: Vec<CTable> = (0..relations - 1)
        .map(|r| {
            let params = small_params(seed.wrapping_add(r as u64));
            (gens[r % gens.len()].1)(&format!("R{r:02}"), &params)
        })
        .collect();
    let mut g = VarGen::new();
    let switch = g.fresh();
    tables.push(
        CTable::new(
            format!("R{:02}", relations - 1),
            2,
            Conjunction::truth(),
            [
                CTuple::with_condition(
                    [Term::constant(1), Term::constant(1)],
                    Conjunction::new([Atom::eq(switch, 0)]),
                ),
                CTuple::of_terms([Term::constant(2), Term::constant(2)]),
            ],
        )
        .unwrap(),
    );
    CDatabase::new(tables)
}

/// Answers and `Strategy` labels of the per-shard engine, pinned against the joint
/// search on decoupled workloads — integer and string-heavy — for all five problems.
#[test]
fn per_shard_matches_joint_on_decoupled_workloads() {
    let budget = Budget(20_000_000);
    for seed in [60u64, 70, 80] {
        // Three relations, the last a guaranteed c-table shard: the conditional shard
        // pushes certainty and uniqueness off their polynomial paths onto the coNP
        // complement — the paths the per-shard decomposition must match — while the
        // *joint* reference searches (which pay multiplicatively across shards, the
        // very cost this decomposition removes) still finish within the budget.
        let relations = 3;
        let int_db = decoupled_all_classes(relations, seed);
        let params = small_params(seed);
        let int_member = member_instance(&int_db, &params);
        let int_non_member = non_member_instance(&int_db, &params);
        let cases = [
            (int_db.clone(), int_member.clone(), int_non_member.clone()),
            (
                possible_worlds::workloads::stringify_database(&int_db),
                possible_worlds::workloads::stringify_instance(&int_member),
                possible_worlds::workloads::stringify_instance(&int_non_member),
            ),
        ];
        for (db, member, non_member) in cases {
            assert_eq!(db.shard_groups().len(), relations, "family is decoupled");
            let view = View::identity(db.clone());
            let per_shard = Engine::new(EngineConfig::with_threads(2, budget));
            let joint = Engine::new(EngineConfig::with_threads(2, budget).without_per_shard());

            for instance in [&member, &non_member] {
                let ctx = format!("seed {seed} on {instance}");
                let p_memb = membership::view_membership_with(&view, instance, &per_shard);
                let j_memb = membership::view_membership_with(&view, instance, &joint);
                assert_eq!(
                    p_memb.answer.unwrap(),
                    j_memb.answer.unwrap(),
                    "membership {ctx}"
                );
                assert_eq!(p_memb.strategy, Strategy::PerShard { groups: relations });
                assert_eq!(j_memb.strategy, Strategy::Backtracking);

                for (label, expect_per_shard, p_pair, j_pair) in [
                    (
                        "possibility",
                        true,
                        possibility::decide_with(&view, instance, &per_shard),
                        possibility::decide_with(&view, instance, &joint),
                    ),
                    (
                        "certainty",
                        true,
                        certainty::decide_with(&view, instance, &per_shard),
                        certainty::decide_with(&view, instance, &joint),
                    ),
                    (
                        "uniqueness",
                        true,
                        uniqueness::decide_with(&view, instance, &per_shard),
                        uniqueness::decide_with(&view, instance, &joint),
                    ),
                ] {
                    assert_eq!(
                        p_pair.answer.unwrap(),
                        j_pair.answer.unwrap(),
                        "{label} {ctx}"
                    );
                    if expect_per_shard {
                        assert_eq!(
                            p_pair.strategy,
                            Strategy::PerShard { groups: relations },
                            "{label} strategy {ctx}"
                        );
                        assert_ne!(
                            j_pair.strategy, p_pair.strategy,
                            "{label} joint strategy {ctx}"
                        );
                    }
                }
            }

            // Containment: reflexive (aligned partitions) and against a differently
            // seeded twin with the same relation names (also aligned).
            let other = View::identity(decoupled_all_classes(relations, seed + 7));
            let p_refl = containment::decide_with(&view, &view, &per_shard);
            let j_refl = containment::decide_with(&view, &view, &joint);
            assert!(
                p_refl.answer.unwrap() && j_refl.answer.unwrap(),
                "rep ⊆ rep (seed {seed})"
            );
            assert_eq!(p_refl.strategy, Strategy::PerShard { groups: relations });
            assert_eq!(j_refl.strategy, Strategy::WorldEnumeration);
            let p_cont = containment::decide_with(&view, &other, &per_shard);
            let j_cont = containment::decide_with(&view, &other, &joint);
            assert_eq!(
                p_cont.answer.unwrap(),
                j_cont.answer.unwrap(),
                "containment twin (seed {seed})"
            );
        }
    }
}

/// Condition-coupled shard groups fall back to the joint search: the coupled twin of a
/// decoupled database reports the joint strategies and the same answers.
#[test]
fn coupled_databases_fall_back_to_the_joint_search() {
    use possible_worlds::workloads::{coupled_multirelation, decoupled_multirelation};
    let budget = Budget(20_000_000);
    let params = small_params(91);
    let decoupled = decoupled_multirelation(4, &params);
    let coupled = coupled_multirelation(4, &params);
    assert_eq!(coupled.shard_groups().len(), 1);
    let engine = Engine::new(EngineConfig::with_threads(2, budget));
    let member = member_instance(&decoupled, &params);
    let joint =
        membership::view_membership_with(&View::identity(coupled.clone()), &member, &engine);
    assert_eq!(
        joint.strategy,
        Strategy::Backtracking,
        "coupled ⇒ joint fallback"
    );
    // The coupling switch is semantically inert, so the decoupled per-shard answer
    // agrees with the coupled joint answer.
    let sharded = membership::view_membership_with(&View::identity(decoupled), &member, &engine);
    assert_eq!(sharded.strategy, Strategy::PerShard { groups: 4 });
    assert_eq!(joint.answer.unwrap(), sharded.answer.unwrap());
    let poss = possibility::decide_with(&View::identity(coupled), &member, &engine);
    assert!(!matches!(poss.strategy, Strategy::PerShard { .. }));
    poss.answer.unwrap();
}

/// Budget exhaustion stays deterministic under the per-shard decomposition: a decoupled
/// database whose *second* group hides the oversized no-witness tree reports
/// `BudgetExceeded` on every thread count when starved, and completes with the joint
/// answer when given room.
#[test]
fn per_shard_budget_exhaustion_is_deterministic() {
    let mut vars = VarGen::new();
    let easy = CTable::codd("A", 1, [vec![Term::constant(1)]]).unwrap();
    let xs: Vec<Variable> = (0..8).map(|_| vars.fresh()).collect();
    let rows: Vec<Vec<Term>> = xs.iter().map(|&x| vec![Term::Var(x)]).collect();
    let hard = CTable::i_table("B", 1, Conjunction::new([Atom::neq(xs[0], xs[1])]), rows).unwrap();
    let db = CDatabase::new([easy, hard]);
    assert_eq!(db.shard_groups().len(), 2);
    let view = View::identity(db);
    let mut rel = Relation::empty(1);
    for i in 0..9i64 {
        rel.insert(Tuple::new([i.into()])).unwrap();
    }
    let mut facts = Instance::single("B", rel);
    facts.insert_relation("A", {
        let mut a = Relation::empty(1);
        a.insert(Tuple::new([1i64.into()])).unwrap();
        a
    });
    for threads in [1, 2, 8] {
        for repetition in 0..3 {
            let starved = Engine::new(EngineConfig::with_threads(threads, Budget(500)));
            let starved_run = possibility::decide_with(&view, &facts, &starved);
            assert_eq!(starved_run.strategy, Strategy::PerShard { groups: 2 });
            assert_eq!(
                starved_run.answer,
                Err(DecisionError::BudgetExceeded),
                "starved per-shard run must exhaust ({threads} threads, rep {repetition})"
            );
            let ample = Engine::new(EngineConfig::with_threads(threads, Budget(50_000_000)));
            let ample_run = possibility::decide_with(&view, &facts, &ample);
            let joint = Engine::new(
                EngineConfig::with_threads(threads, Budget(50_000_000)).without_per_shard(),
            );
            let joint_run = possibility::decide_with(&view, &facts, &joint);
            assert_eq!(ample_run.answer, Ok(false), "ample per-shard completes");
            assert_eq!(joint_run.answer, Ok(false), "joint agrees");
        }
    }
}

/// The batched front door with per-shard requests: outcomes (answers *and* the
/// `PerShard` strategy labels) are positionally aligned and schedule-independent, and
/// the group-weighted queue ordering never leaks into results.
#[test]
fn batch_orders_by_work_items_without_changing_outcomes() {
    let budget = Budget(20_000_000);
    let params = small_params(97);
    let multi = decoupled_all_classes(4, 97);
    let single = CDatabase::single(random_ctable("T", &params));
    let member_multi = member_instance(&multi, &params);
    let member_single = member_instance(&single, &params);
    let requests = vec![
        // A single-group request first: the queue reorders (the 4-group requests have
        // more work items) but slots stay positional.
        batch::DecisionRequest::Membership {
            view: View::identity(single.clone()),
            instance: member_single.clone(),
        },
        batch::DecisionRequest::Membership {
            view: View::identity(multi.clone()),
            instance: member_multi.clone(),
        },
        batch::DecisionRequest::Possibility {
            view: View::identity(multi.clone()),
            facts: member_multi.clone(),
        },
    ];
    assert_eq!(requests[0].work_items(), 1);
    assert_eq!(requests[1].work_items(), 4);
    let mut reference: Option<Vec<batch::DecisionOutcome>> = None;
    for threads in [1, 2, 8] {
        let outcomes =
            batch::decide_all_with(&requests, &EngineConfig::with_threads(threads, budget));
        assert_eq!(outcomes[1].strategy, Strategy::PerShard { groups: 4 });
        assert_eq!(outcomes[2].strategy, Strategy::PerShard { groups: 4 });
        match &reference {
            None => reference = Some(outcomes),
            Some(r) => assert_eq!(*r, outcomes, "outcomes with {threads} threads"),
        }
    }
}

// ---------------------------------------------------------------------------------------
// Interned-symbol substrate (the `pw_relational::intern` layer the engine hot paths
// run on).
// ---------------------------------------------------------------------------------------

/// Round trip `Constant ↔ Sym` through a database's symbol-table handle, exactly as the
/// engine's front door does it.
#[test]
fn interner_round_trips_constants_through_the_database_handle() {
    let db = CDatabase::single(
        CTable::codd("R", 1, [vec![Term::from("alice")], vec![Term::from(7i64)]]).unwrap(),
    );
    for c in [
        Constant::str("alice"),
        Constant::str("never-seen-before-in-this-test"),
        Constant::int(7),
        Constant::Bool(true),
    ] {
        let sym = db.intern(&c);
        assert_eq!(db.resolve(sym), Some(c.clone()), "round trip of {c}");
        assert_eq!(db.intern(&c), sym, "interning is idempotent");
    }
    // The table's own row terms resolve through the same handle.
    let row_sym = db.tables()[0].tuples()[0].terms[0]
        .as_sym()
        .expect("constant term");
    assert_eq!(db.resolve(row_sym), Some(Constant::str("alice")));
}

/// Two databases on *private* symbol tables have isolated id spaces: the same raw id
/// means different strings, and neither table resolves the other's ids beyond its range.
#[test]
fn interner_isolates_private_symbol_tables_across_databases() {
    use std::sync::Arc;
    let sa = Arc::new(Symbols::new());
    let sb = Arc::new(Symbols::new());
    let tb = Arc::clone(sb.strings());
    let db_a = CDatabase::default().with_symbols(Arc::clone(&sa));
    let db_b = CDatabase::default().with_symbols(Arc::clone(&sb));

    let a0 = db_a.intern(&Constant::str("alpha"));
    let b0 = db_b.intern(&Constant::str("beta"));
    // Same dense index on both sides — ids are only meaningful relative to their table.
    assert_eq!(a0, b0, "both tables hand out their first id");
    assert_eq!(db_a.resolve(a0), Some(Constant::str("alpha")));
    assert_eq!(db_b.resolve(b0), Some(Constant::str("beta")));
    // A foreign id outside the table's range does not resolve.  The extra interns only
    // advance tb's id space past ta's.
    tb.intern_str("x");
    tb.intern_str("filler-1");
    tb.intern_str("filler-2");
    let far = Sym::Str(tb.intern_str("last"));
    assert_eq!(db_a.resolve(far), None, "id beyond the table's range");
    // Databases on different tables never compare equal, even when structurally empty.
    assert_ne!(db_a, db_b);
}

/// Concurrent interning/resolution through one shared handle, from scoped workers like
/// the parallel engine's: every thread sees one consistent id per string.
#[test]
fn interner_supports_concurrent_resolve_from_scoped_workers() {
    use std::sync::Arc;
    let db = CDatabase::default().with_symbols(Arc::new(Symbols::new()));
    let ids: Vec<Vec<Sym>> = std::thread::scope(|scope| {
        (0..8)
            .map(|_| {
                let db = &db;
                scope.spawn(move || {
                    (0..128)
                        .map(|i| db.intern(&Constant::str(format!("worker-shared-{i}"))))
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for w in &ids[1..] {
        assert_eq!(*w, ids[0], "all workers agree on every id");
    }
    for (i, &sym) in ids[0].iter().enumerate() {
        assert_eq!(
            db.resolve(sym),
            Some(Constant::str(format!("worker-shared-{i}")))
        );
    }
}

/// Property (pinning): the interned hot path must decide exactly what the un-interned
/// semantics prescribe.  Two independent anchors on randomized workloads:
///
/// 1. decisions on a string-heavy database (every constant an interned string) equal the
///    decisions on its integer twin — interning is a constant bijection and QPTIME
///    queries are generic, so any divergence is an interning bug;
/// 2. on small instances, the membership decision equals the brute-force
///    `rep(·)`-enumeration reference, which resolves every symbol back to constants.
#[test]
fn interned_decisions_are_pinned_to_reference_semantics_on_random_workloads() {
    use possible_worlds::workloads::{stringify_database, stringify_instance};
    let budget = Budget(20_000_000);
    for (class, generate) in generators() {
        for seed in 20..26u64 {
            let params = small_params(seed);
            let db = CDatabase::single(generate("T", &params));
            let sdb = stringify_database(&db);
            let view = View::identity(db.clone());
            let sview = View::identity(sdb.clone());
            for instance in [
                member_instance(&db, &params),
                non_member_instance(&db, &params),
            ] {
                let sinstance = stringify_instance(&instance);

                let memb = membership::decide(&db, &instance, budget).unwrap();
                let smemb = membership::decide(&sdb, &sinstance, budget).unwrap();
                assert_eq!(memb, smemb, "membership on {class} seed {seed}");
                // The brute-force reference is exponential; it anchors the seeds whose
                // valuation count fits the enumeration budget.
                if let Ok(reference) = membership::by_enumeration(&sdb, &sinstance, 200_000) {
                    assert_eq!(smemb, reference, "vs enumeration on {class} seed {seed}");
                }

                for (label, fast, slow) in [
                    (
                        "possibility",
                        possibility::decide(&sview, &sinstance, budget).unwrap(),
                        possibility::decide(&view, &instance, budget).unwrap(),
                    ),
                    (
                        "certainty",
                        certainty::decide(&sview, &sinstance, budget).unwrap(),
                        certainty::decide(&view, &instance, budget).unwrap(),
                    ),
                    (
                        "uniqueness",
                        uniqueness::decide(&sview, &sinstance, budget).unwrap(),
                        uniqueness::decide(&view, &instance, budget).unwrap(),
                    ),
                ] {
                    assert_eq!(fast, slow, "{label} on {class} seed {seed}");
                }
            }
        }
    }
}
