//! The work-stealing scheduler's equivalence suite: the dynamic scheduler (per-worker
//! deques, steal-half raids, subtree re-splitting) is pinned against the static
//! frontier split ([`EngineConfig::without_work_stealing`]) and the sequential search.
//!
//! What must hold:
//!
//! * on the skewed single-group families (`pw_workloads::skewed`), on the pigeonhole
//!   refutation, and on decoupled multi-relation and string-heavy workloads, stealing
//!   and static runs return bit-identical answers, strategies and certificates;
//! * budget exhaustion stays deterministic under stealing: a starved no-witness search
//!   reports [`DecisionError::BudgetExceeded`] on every repetition and thread count;
//! * the scheduler's [`EngineStats`] counters actually populate on a long search
//!   (steals succeed, subtrees re-split, the busy clock advances);
//! * randomized property: through `redecide_all` on random mutation streams, the
//!   stealing engine, the static engine and a fresh decide agree outcome-for-outcome.

use possible_worlds::core::{CDatabase, View};
use possible_worlds::decide::batch::{decide_all_with, DecisionRequest, Session};
use possible_worlds::decide::{
    membership, possibility, Budget, DecisionError, Engine, EngineConfig,
};
use possible_worlds::prelude::*;
use possible_worlds::reductions::membership_hardness::k_col_itable;
use possible_worlds::solvers::Graph;
use possible_worlds::workloads::{
    coupled_heavy_membership, member_instance, mutation_stream, skewed_membership,
    skewed_possibility, stringify_database, stringify_instance, SkewedParams, TableParams,
};
use proptest::prelude::*;

/// Small enough for a test: the selector fan (12) exceeds a 2-thread static frontier
/// target.  The fail-first search refutes the heavy branch's planted clique in a few
/// dozen nodes, so these families pin answers, not scheduler load.
fn small_skew() -> SkewedParams {
    SkewedParams {
        selectors: 12,
        heavy: 8,
        edge_density: 0.1,
        seed: 3,
    }
}

fn params(seed: u64) -> TableParams {
    TableParams {
        rows: 3,
        arity: 2,
        constants: 3,
        null_density: 0.4,
        seed,
    }
}

/// Standing requests covering all five problems against `db`.
fn requests_for(db: &CDatabase, member: &Instance) -> Vec<DecisionRequest> {
    let view = View::identity(db.clone());
    vec![
        DecisionRequest::Membership {
            view: view.clone(),
            instance: member.clone(),
        },
        DecisionRequest::Possibility {
            view: view.clone(),
            facts: member.clone(),
        },
        DecisionRequest::Certainty {
            view: view.clone(),
            facts: member.clone(),
        },
        DecisionRequest::Uniqueness {
            view: view.clone(),
            instance: member.clone(),
        },
        DecisionRequest::Containment {
            left: view.clone(),
            right: view,
        },
    ]
}

/// The pigeonhole principle as a membership question: `holes + 1` pairwise distinct
/// vertices in `holes` colours.  Its refutation takes about `holes!` nodes under every
/// row order, so it loads the scheduler whatever slot the search fills first.
fn pigeonhole(holes: usize) -> (CDatabase, Instance) {
    let reduction = k_col_itable(&Graph::complete(holes + 1), holes);
    (reduction.view.db, reduction.instance)
}

/// On the skewed families and the pigeonhole refutation — integer and string-heavy —
/// the stealing scheduler, the static frontier split and the sequential search agree
/// on answers and strategies at every thread count.
#[test]
fn stealing_matches_static_on_skewed_workloads() {
    let budget = Budget(50_000_000);
    let p = small_skew();
    for (family, (db, instance)) in [
        ("skewed_membership", skewed_membership(&p)),
        ("coupled_heavy", coupled_heavy_membership(&p)),
        ("pigeonhole", pigeonhole(6)),
    ] {
        for (variant, db, instance) in [
            ("int", db.clone(), instance.clone()),
            (
                "str",
                stringify_database(&db),
                stringify_instance(&instance),
            ),
        ] {
            let sequential = membership::decide(&db, &instance, budget).unwrap();
            let view = View::identity(db);
            for threads in [2, 8] {
                let stealing = Engine::new(EngineConfig::with_threads(threads, budget));
                let static_split = Engine::new(
                    EngineConfig::with_threads(threads, budget).without_work_stealing(),
                );
                let stolen = membership::view_membership_with(&view, &instance, &stealing);
                let split = membership::view_membership_with(&view, &instance, &static_split);
                let ctx = format!("{family}/{variant} with {threads} threads");
                assert_eq!(
                    stolen.answer.unwrap(),
                    sequential,
                    "stealing vs sequential, {ctx}"
                );
                assert_eq!(
                    split.answer.unwrap(),
                    sequential,
                    "static vs sequential, {ctx}"
                );
                assert_eq!(stolen.strategy, split.strategy, "strategy, {ctx}");
            }
        }
    }
    let (db, facts) = skewed_possibility(&p);
    for (variant, db, facts) in [
        ("int", db.clone(), facts.clone()),
        ("str", stringify_database(&db), stringify_instance(&facts)),
    ] {
        let view = View::identity(db.clone());
        let sequential = possibility::decide(&view, &facts, budget).unwrap();
        assert!(!sequential, "the skewed possibility family is always false");
        for threads in [2, 8] {
            let stealing = Engine::new(EngineConfig::with_threads(threads, budget));
            let static_split =
                Engine::new(EngineConfig::with_threads(threads, budget).without_work_stealing());
            let stolen = possibility::decide_with(&view, &facts, &stealing);
            let split = possibility::decide_with(&view, &facts, &static_split);
            let ctx = format!("skewed_possibility/{variant} with {threads} threads");
            assert_eq!(
                stolen.answer.unwrap(),
                sequential,
                "stealing vs sequential, {ctx}"
            );
            assert_eq!(
                split.answer.unwrap(),
                sequential,
                "static vs sequential, {ctx}"
            );
            assert_eq!(stolen.strategy, split.strategy, "strategy, {ctx}");
        }
    }
}

/// On decoupled multi-relation workloads, certified stealing and static batches are
/// bit-identical — answers, strategies *and* certificates.
#[test]
fn stealing_matches_static_certificates_on_decoupled_workloads() {
    for seed in [41u64, 43] {
        let db = possible_worlds::workloads::decoupled_multirelation(4, &params(seed));
        let member = member_instance(&db, &params(seed));
        let requests = requests_for(&db, &member);
        for threads in [2, 8] {
            let stealing_cfg = EngineConfig::with_threads(threads, Budget(20_000_000)).certified();
            let static_cfg = stealing_cfg.clone().without_work_stealing();
            let stolen = decide_all_with(&requests, &stealing_cfg);
            let split = decide_all_with(&requests, &static_cfg);
            assert_eq!(
                stolen, split,
                "certified outcomes diverged (seed {seed}, {threads} threads)"
            );
            assert!(stolen.iter().all(|o| o.answer.is_ok()));
        }
    }
}

/// A possibility question with no witness over an assignment tree of roughly
/// `(rows + 1)^rows` nodes — the budget-exhaustion workhorse shared with the
/// parallel-engine suite.
fn oversized_cover_request(rows: usize) -> (View, Instance) {
    let mut vars = VarGen::new();
    let xs: Vec<Variable> = (0..rows).map(|_| vars.fresh()).collect();
    let tuples: Vec<Vec<Term>> = xs.iter().map(|&x| vec![Term::Var(x)]).collect();
    let table =
        CTable::i_table("R", 1, Conjunction::new([Atom::neq(xs[0], xs[1])]), tuples).unwrap();
    let view = View::identity(CDatabase::single(table));
    let mut rel = Relation::empty(1);
    for i in 0..=(rows as i64) {
        rel.insert(Tuple::new([i.into()])).unwrap();
    }
    (view, Instance::single("R", rel))
}

/// Budget exhaustion is deterministic under stealing: when no witness exists and the
/// tree dwarfs the budget, every thread count and repetition exhausts; with an ample
/// budget, every configuration reports the same `false`.
#[test]
fn budget_exhaustion_is_deterministic_under_stealing() {
    let (view, facts) = oversized_cover_request(8);
    for threads in [2, 8] {
        for repetition in 0..3 {
            let starved = Engine::new(EngineConfig::with_threads(threads, Budget(500)));
            assert_eq!(
                possibility::decide_with(&view, &facts, &starved).answer,
                Err(DecisionError::BudgetExceeded),
                "starved stealing run must exhaust ({threads} threads, rep {repetition})"
            );
            let ample = Engine::new(EngineConfig::with_threads(threads, Budget(50_000_000)));
            assert_eq!(
                possibility::decide_with(&view, &facts, &ample).answer,
                Ok(false),
                "ample stealing run must complete ({threads} threads, rep {repetition})"
            );
        }
    }
}

/// The scheduler's live counters populate on a long search at 8 threads — the seven-hole
/// pigeonhole refutation, about 13.7k nodes: workers go hungry and raid (steals
/// succeed), the busy branch re-splits for them, and the busy clock records a nonzero
/// critical path no longer than the total.
#[test]
fn stealing_counters_populate_on_a_skewed_search() {
    let (db, instance) = pigeonhole(7);
    let view = View::identity(db);
    let engine = Engine::new(EngineConfig::with_threads(8, Budget(1_000_000_000)));
    let decision = membership::view_membership_with(&view, &instance, &engine);
    assert_eq!(decision.answer, Ok(false));
    let stats = engine.stats();
    assert!(
        stats.steals_attempted >= stats.steals_succeeded,
        "attempts bound successes: {stats:?}"
    );
    assert!(stats.steals_succeeded > 0, "no steal landed: {stats:?}");
    assert!(
        stats.resplits > 0,
        "the deep branch never re-split: {stats:?}"
    );
    assert!(
        stats.busy_total_ns > 0,
        "busy clock never advanced: {stats:?}"
    );
    assert!(
        stats.busy_max_ns > 0 && stats.busy_max_ns <= stats.busy_total_ns,
        "critical path must be positive and bounded by total: {stats:?}"
    );

    // The pinned static path must leave the stealing-only counters at zero.
    let static_engine =
        Engine::new(EngineConfig::with_threads(8, Budget(1_000_000_000)).without_work_stealing());
    let decision = membership::view_membership_with(&view, &instance, &static_engine);
    assert_eq!(decision.answer, Ok(false));
    let stats = static_engine.stats();
    assert_eq!(stats.steals_attempted, 0, "static path must not steal");
    assert_eq!(stats.resplits, 0, "static path must not re-split");
    assert!(stats.busy_total_ns > 0, "static busy clock still advances");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random mutation streams: through `redecide_all`, the stealing engine, the static
    // engine and a fresh decide stay outcome-identical on all five problems.
    #[test]
    fn stealing_static_and_fresh_redecisions_agree(
        (seed, delta_count) in (0u64..500, 1usize..4)
    ) {
        let p = params(seed);
        let stream = mutation_stream(4, &p, delta_count);
        let member = member_instance(&stream.base, &p);
        let stealing_cfg = EngineConfig::with_threads(4, Budget(5_000_000));
        let static_cfg = stealing_cfg.clone().without_work_stealing();
        let stealing = Session::sized(&stealing_cfg, 5);
        let static_split = Session::sized(&static_cfg, 5);
        let mut cur = stream.base.clone();
        let _ = stealing.decide_all(&requests_for(&cur, &member));
        let _ = static_split.decide_all(&requests_for(&cur, &member));
        for (i, delta) in stream.deltas.iter().enumerate() {
            let requests = requests_for(&cur, &member);
            let stolen = stealing
                .redecide_all(&cur, delta, &requests)
                .expect("stream deltas apply in sequence");
            let split = static_split
                .redecide_all(&cur, delta, &requests)
                .expect("stream deltas apply in sequence");
            prop_assert_eq!(
                &stolen.outcomes, &split.outcomes,
                "stealing vs static redecide #{} diverged (seed {})", i, seed
            );
            let (fresh_db, _) = cur.apply(delta).expect("stream deltas apply in sequence");
            let fresh = Session::sized(&static_cfg, 5).decide_all(&requests_for(&fresh_db, &member));
            prop_assert_eq!(
                &stolen.outcomes, &fresh,
                "stealing redecide #{} diverged from a fresh decide (seed {})", i, seed
            );
            cur = stolen.db;
        }
    }
}
