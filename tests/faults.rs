//! The robustness suite: deterministic fault injection ([`FaultPlan`]), wall-clock
//! deadlines, cooperative cancellation, panic isolation, bounded-memo eviction, and
//! budget-escalating retry — exercised end to end through the facade crate.
//!
//! What must hold:
//!
//! * an injected worker panic fails **only its own request** — sibling outcomes are
//!   bit-identical to a fault-free run, and the session stays usable afterwards;
//! * a deadline-exceeded request reports [`DecisionError::DeadlineExceeded`] and
//!   returns within 2× the configured deadline;
//! * injected budget/deadline exhaustion at a chosen tick is deterministic across
//!   repetitions and thread counts;
//! * a memo capped at 1/4 of the working set (and even an eviction storm clamping it
//!   to one entry) still satisfies `redecide_all == fresh decide_all`, with every
//!   certificate accepted by the independent `pw_check` checker;
//! * [`Session::decide_all_with_retry`] turns budget-exceeded into the same answer
//!   *and certificate* an unconstrained run produces, then restores the budget;
//! * injected steals and subtree re-splits land on the work-stealing scheduler
//!   (observable in [`Engine::stats`]) without changing answers, and a panic inside a
//!   stolen subtree is contained to `WorkerPanicked`;
//! * the searches nested inside containment — the freeze path's membership and the
//!   per-world membership of the Π₂ᵖ enumeration — stop on the caller's cancel token
//!   too, certified or not.

use possible_worlds::core::{CDatabase, View};
use possible_worlds::decide::batch::{decide_all_with, DecisionRequest, Session};
use possible_worlds::decide::{
    containment, possibility, Budget, CancelToken, DecisionError, Engine, EngineConfig, FaultPlan,
    Strategy,
};
use possible_worlds::prelude::*;
use possible_worlds::reductions::membership_hardness::{three_col_etable, three_col_itable};
use possible_worlds::solvers::Graph;
use possible_worlds::workloads::{member_instance, mutation_stream, TableParams};
use possible_worlds::{check, check_claim};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// A possibility question with no witness over an assignment tree of roughly
/// `(rows + 1)^rows` nodes: `rows + 1` facts can never be covered by `rows` rows, but
/// the search only learns that by exhausting the tree.  The satisfiable global
/// inequality makes the table an i-table, forcing the general backtracking search.
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

fn hard_request(rows: usize) -> DecisionRequest {
    let (view, facts) = oversized_cover_request(rows);
    DecisionRequest::Possibility { view, facts }
}

/// Verify every delivered answer of a certifying run against the independent checker.
fn assert_certificates_accepted(
    requests: &[DecisionRequest],
    outcomes: &[possible_worlds::decide::DecisionOutcome],
    stage: &str,
) {
    for (request, outcome) in requests.iter().zip(outcomes) {
        let Ok(answer) = outcome.answer else { continue };
        let claim = check_claim(request, answer);
        let certificate = outcome
            .certificate
            .as_ref()
            .unwrap_or_else(|| panic!("uncertified {} answer ({stage})", claim.problem.name()));
        check::verify(&claim, certificate).unwrap_or_else(|e| {
            panic!(
                "pw_check rejected a {} certificate ({stage}): {e}",
                claim.problem.name()
            )
        });
    }
}

#[test]
fn injected_request_panic_fails_only_its_own_request() {
    let base = decoupled_db(11);
    let member = member_instance(&base, &params(11));
    let requests = requests_for(&base, &member);
    for threads in [1, 4] {
        let cfg = EngineConfig::with_threads(threads, Budget(5_000_000)).certified();
        let plain = decide_all_with(&requests, &cfg);
        let faulted = decide_all_with(
            &requests,
            &cfg.clone().with_faults(Arc::new(FaultPlan {
                panic_on_request: Some(2),
                ..FaultPlan::seeded(11)
            })),
        );
        assert_eq!(plain.len(), faulted.len());
        for (i, (p, f)) in plain.iter().zip(&faulted).enumerate() {
            if i == 2 {
                assert!(
                    matches!(f.answer, Err(DecisionError::WorkerPanicked(_))),
                    "request 2 must fail with WorkerPanicked, got {:?}",
                    f.answer
                );
                assert!(f.certificate.is_none());
            } else {
                assert_eq!(p, f, "sibling {i} diverged from the fault-free run");
            }
        }
    }
}

#[test]
fn session_stays_usable_after_a_panicked_batch() {
    let base = decoupled_db(13);
    let member = member_instance(&base, &params(13));
    let requests = requests_for(&base, &member);
    let cfg = EngineConfig::sequential(Budget(5_000_000));
    let reference = decide_all_with(&requests, &cfg);

    let session = Session::sized(
        &cfg.clone().with_faults(Arc::new(FaultPlan {
            panic_on_request: Some(0),
            ..FaultPlan::seeded(13)
        })),
        requests.len(),
    );
    // Two batches on one session: the panic recurs (the plan is deterministic), the
    // siblings replay through the memo the panicked request could not poison.
    for round in 0..2 {
        let outcomes = session.decide_all(&requests);
        assert!(
            matches!(outcomes[0].answer, Err(DecisionError::WorkerPanicked(_))),
            "round {round}: request 0 must fail with WorkerPanicked"
        );
        for (i, (r, o)) in reference.iter().zip(&outcomes).enumerate().skip(1) {
            assert_eq!(
                r.answer, o.answer,
                "round {round}: sibling {i} diverged after the panic"
            );
            assert_eq!(r.strategy, o.strategy);
        }
    }
}

#[test]
fn deadline_exceeded_returns_within_twice_the_deadline() {
    // ~13^12 nodes: unfinishable within the deadline, and the budget is far too large
    // to exhaust first — only the wall clock can stop this search.
    let (view, facts) = oversized_cover_request(12);
    let deadline = Duration::from_millis(150);
    let engine = Engine::new(EngineConfig::sequential(Budget(1 << 40)).with_deadline(deadline));
    let start = Instant::now();
    let decision = possibility::decide_with(&view, &facts, &engine);
    let elapsed = start.elapsed();
    assert_eq!(decision.answer, Err(DecisionError::DeadlineExceeded));
    assert!(
        elapsed < deadline * 2,
        "deadline-exceeded took {elapsed:?}, over 2x the {deadline:?} deadline"
    );
}

#[test]
fn injected_exhaustion_is_deterministic() {
    let (view, facts) = oversized_cover_request(8);
    for threads in [1, 4] {
        for repetition in 0..3 {
            let budget_plan = Arc::new(FaultPlan {
                budget_exhaust_at_tick: Some(2_000),
                ..FaultPlan::seeded(8)
            });
            let engine = Engine::new(
                EngineConfig::with_threads(threads, Budget(1 << 40)).with_faults(budget_plan),
            );
            assert_eq!(
                possibility::decide_with(&view, &facts, &engine).answer,
                Err(DecisionError::BudgetExceeded),
                "injected budget exhaustion ({threads} threads, rep {repetition})"
            );
            let deadline_plan = Arc::new(FaultPlan {
                deadline_at_tick: Some(2_000),
                ..FaultPlan::seeded(8)
            });
            let engine = Engine::new(
                EngineConfig::with_threads(threads, Budget(1 << 40)).with_faults(deadline_plan),
            );
            assert_eq!(
                possibility::decide_with(&view, &facts, &engine).answer,
                Err(DecisionError::DeadlineExceeded),
                "injected deadline exhaustion ({threads} threads, rep {repetition})"
            );
        }
    }
}

#[test]
fn cancellation_stops_the_search() {
    let (view, facts) = oversized_cover_request(12);
    let token = Arc::new(CancelToken::new());
    token.cancel();
    let engine =
        Engine::new(EngineConfig::sequential(Budget(1 << 40)).with_cancel(Arc::clone(&token)));
    let decision = possibility::decide_with(&view, &facts, &engine);
    assert_eq!(decision.answer, Err(DecisionError::Cancelled));
}

/// A graph that is not 3-colourable, laid out so the colouring search is long: `before`
/// components whose colourings the search enumerates first (triangles when
/// `triangles`, isolated vertices otherwise), then a K4 that refutes every one of them.
fn late_k4(before: usize, triangles: bool) -> Graph {
    let width = if triangles { 3 } else { 1 };
    let k4 = before * width;
    let mut graph = Graph::new(k4 + 4);
    if triangles {
        for t in 0..before {
            let (a, b, c) = (3 * t, 3 * t + 1, 3 * t + 2);
            graph.add_edge(a, b);
            graph.add_edge(a, c);
            graph.add_edge(b, c);
        }
    }
    for a in k4..k4 + 4 {
        for b in a + 1..k4 + 4 {
            graph.add_edge(a, b);
        }
    }
    graph
}

/// Decide a containment through both front doors — the plain and the certified one —
/// under `cfg`.
fn containment_answers(left: &View, right: &View, cfg: EngineConfig) -> [Decision; 2] {
    let request = DecisionRequest::Containment {
        left: left.clone(),
        right: right.clone(),
    };
    let certified = decide_all_with(&[request], &cfg.clone().certified()).remove(0);
    [
        containment::decide_with(left, right, &Engine::new(cfg)),
        certified,
    ]
}

#[test]
fn freeze_containment_honors_cancellation() {
    // Freeze: the ground colour-pair table K₀ against the Theorem 3.1(2) e-table of a
    // non-3-colourable graph.  Deciding K₀'s membership walks every colouring of the
    // four triangles before the K4 refutes it — far more than 1024 nodes.
    let reduction = three_col_etable(&late_k4(4, true));
    let right = reduction.view;
    let rows: Vec<Vec<Term>> = reduction
        .instance
        .relation("T")
        .unwrap()
        .iter()
        .map(|fact| fact.iter().map(|c| Term::constant(c.clone())).collect())
        .collect();
    let left = View::identity(CDatabase::single(CTable::codd("T", 2, rows).unwrap()));
    assert_eq!(containment::strategy(&left, &right), Strategy::Freeze);

    for decision in containment_answers(&left, &right, EngineConfig::sequential(Budget(1 << 40))) {
        assert_eq!(decision.answer, Ok(false), "no colouring extends the K4");
    }
    for decision in containment_answers(&left, &right, EngineConfig::sequential(Budget(1024))) {
        assert_eq!(decision.answer, Err(DecisionError::BudgetExceeded));
    }
    let token = Arc::new(CancelToken::new());
    token.cancel();
    let cfg = EngineConfig::sequential(Budget(1 << 40)).with_cancel(token);
    for decision in containment_answers(&left, &right, cfg) {
        assert_eq!(decision.answer, Err(DecisionError::Cancelled));
    }
}

#[test]
fn forall_exists_containment_honors_cancellation() {
    // Π₂ᵖ: each of the left table's four canonical worlds needs a membership search on
    // the Theorem 3.1(3) i-table of a non-3-colourable graph, and every such search
    // walks the colourings of six isolated vertices before the K4 refutes them.
    let right = three_col_itable(&late_k4(6, false)).view;
    let mut vars = VarGen::new();
    let x = vars.fresh();
    let rows = [1, 2, 3]
        .map(|c| vec![Term::constant(c)])
        .into_iter()
        .chain([vec![Term::Var(x)]]);
    let left = View::identity(CDatabase::single(CTable::codd("T", 1, rows).unwrap()));
    assert_eq!(
        containment::strategy(&left, &right),
        Strategy::WorldEnumeration
    );

    for decision in containment_answers(&left, &right, EngineConfig::sequential(Budget(1 << 40))) {
        assert_eq!(decision.answer, Ok(false), "no colouring extends the K4");
    }
    // Every world's membership search gets the full budget — and exceeds 1024 nodes.
    for decision in containment_answers(&left, &right, EngineConfig::sequential(Budget(1024))) {
        assert_eq!(decision.answer, Err(DecisionError::BudgetExceeded));
    }
    // The enumeration visits four worlds, too few to reach its own amortized limit
    // check: only the per-world searches can see the token.
    let token = Arc::new(CancelToken::new());
    token.cancel();
    let cfg = EngineConfig::sequential(Budget(1 << 40)).with_cancel(token);
    for decision in containment_answers(&left, &right, cfg) {
        assert_eq!(decision.answer, Err(DecisionError::Cancelled));
    }
}

#[test]
fn retry_escalates_budget_and_matches_the_unconstrained_run() {
    let base = decoupled_db(17);
    let member = member_instance(&base, &params(17));
    let mut requests = requests_for(&base, &member);
    // An oversized search (~10^5 nodes) that a 500-node budget cannot finish but a
    // few 4x escalations can.
    requests.push(hard_request(8));

    let ample = Session::certifying(
        &EngineConfig::sequential(Budget(50_000_000)),
        requests.len(),
    );
    let reference = ample.decide_all(&requests);
    assert!(reference.iter().all(|o| o.answer.is_ok()));

    let starved_cfg = EngineConfig::sequential(Budget(500));
    let mut session = Session::certifying(&starved_cfg, requests.len());
    let first = session.decide_all(&requests);
    assert!(
        first
            .iter()
            .any(|o| o.answer == Err(DecisionError::BudgetExceeded)),
        "the starved first pass must exhaust at least one request"
    );
    let retried = session.decide_all_with_retry(&requests, 6);
    // Bit-identical to the unconstrained run: answers, strategies, certificates.
    assert_eq!(retried, reference);
    // The configured budget is restored after the escalation passes.
    assert_eq!(session.engine().config().budget, Budget(500));
}

fn decoupled_db(seed: u64) -> CDatabase {
    possible_worlds::workloads::decoupled_multirelation(4, &params(seed))
}

// ---------------------------------------------------------------------------------------
// Work-stealing scheduler faults: forced steals, forced re-splits, and a panic inside a
// stolen subtree.  The skewed single-group family keeps one worker busy long enough for
// the injections to land on a live scheduler.
// ---------------------------------------------------------------------------------------

fn skewed_case() -> (View, Instance, bool) {
    let p = possible_worlds::workloads::SkewedParams {
        selectors: 12,
        heavy: 8,
        edge_density: 0.1,
        seed: 3,
    };
    let (db, instance) = possible_worlds::workloads::skewed_membership(&p);
    (View::identity(db), instance, false)
}

/// A forced steal at a chosen tick lands (the counters record a successful raid) and
/// never changes the answer, across repetitions.
#[test]
fn injected_steal_is_observable_and_sound() {
    let (view, instance, expected) = skewed_case();
    for repetition in 0..2 {
        let engine = Engine::new(
            EngineConfig::with_threads(4, Budget(1_000_000_000)).with_faults(Arc::new(FaultPlan {
                steal_at_tick: Some(64),
                ..FaultPlan::seeded(5)
            })),
        );
        let decision =
            possible_worlds::decide::membership::view_membership_with(&view, &instance, &engine);
        assert_eq!(decision.answer, Ok(expected), "rep {repetition}");
        let stats = engine.stats();
        assert!(
            stats.steals_succeeded > 0,
            "the forced steal never landed (rep {repetition}): {stats:?}"
        );
    }
}

/// A forced re-split at a chosen tick makes the running worker publish sibling
/// subtrees (the resplit counter moves) without changing the answer.
#[test]
fn injected_split_is_observable_and_sound() {
    let (view, instance, expected) = skewed_case();
    for repetition in 0..2 {
        let engine = Engine::new(
            EngineConfig::with_threads(4, Budget(1_000_000_000)).with_faults(Arc::new(FaultPlan {
                split_at_tick: Some(64),
                ..FaultPlan::seeded(5)
            })),
        );
        let decision =
            possible_worlds::decide::membership::view_membership_with(&view, &instance, &engine);
        assert_eq!(decision.answer, Ok(expected), "rep {repetition}");
        let stats = engine.stats();
        assert!(
            stats.resplits > 0,
            "the forced split never fired (rep {repetition}): {stats:?}"
        );
    }
}

/// A panic deep inside the search — necessarily inside a stolen or re-split subtree
/// once the forced steal and split have scattered the tree across workers — is
/// contained by the scheduler's panic isolation and surfaces as `WorkerPanicked`, on
/// every repetition, with the engine usable afterwards.
#[test]
fn panic_in_a_stolen_subtree_is_contained() {
    let (view, instance, expected) = skewed_case();
    for repetition in 0..2 {
        let engine = Engine::new(
            EngineConfig::with_threads(4, Budget(1_000_000_000)).with_faults(Arc::new(FaultPlan {
                steal_at_tick: Some(64),
                split_at_tick: Some(64),
                // The first amortized slow-path check past the steal/split injections
                // (the skewed search at test size spends only a few thousand ticks).
                panic_at_tick: Some(1_024),
                ..FaultPlan::seeded(7)
            })),
        );
        let decision =
            possible_worlds::decide::membership::view_membership_with(&view, &instance, &engine);
        assert!(
            matches!(decision.answer, Err(DecisionError::WorkerPanicked(_))),
            "rep {repetition}: expected WorkerPanicked, got {:?}",
            decision.answer
        );
    }
    // The same engine configuration without the panic still decides correctly — the
    // injections alone never corrupt the scheduler.
    let engine = Engine::new(
        EngineConfig::with_threads(4, Budget(1_000_000_000)).with_faults(Arc::new(FaultPlan {
            steal_at_tick: Some(64),
            split_at_tick: Some(64),
            ..FaultPlan::seeded(7)
        })),
    );
    let decision =
        possible_worlds::decide::membership::view_membership_with(&view, &instance, &engine);
    assert_eq!(decision.answer, Ok(expected));
}

/// The acceptance-criteria eviction test: a memo capped at 1/4 of the working set
/// still replays/re-searches to the same answers as a from-scratch decide, with
/// certificates the independent checker accepts.
#[test]
fn quarter_capacity_memo_keeps_redecide_equal_to_fresh() {
    let p = params(7);
    let stream = mutation_stream(4, &p, 3);
    let member = member_instance(&stream.base, &p);

    // Measure the working set with an unbounded probe session.
    let probe = Session::certifying(&EngineConfig::sequential(Budget(5_000_000)), 5);
    let _ = probe.decide_all(&requests_for(&stream.base, &member));
    let working_set = probe.engine().memo_stats().entries;
    assert!(working_set >= 4, "working set too small to cap at 1/4");

    let capped_cfg =
        EngineConfig::sequential(Budget(5_000_000)).with_memo_capacity((working_set / 4).max(1));
    let fresh_cfg = EngineConfig::sequential(Budget(5_000_000));
    let session = Session::certifying(&capped_cfg, 5);
    let mut cur = stream.base.clone();
    let _ = session.decide_all(&requests_for(&cur, &member));
    for (i, delta) in stream.deltas.iter().enumerate() {
        let redecision = session
            .redecide_all(&cur, delta, &requests_for(&cur, &member))
            .expect("stream deltas apply in sequence");
        let (fresh_db, _) = cur.apply(delta).expect("stream deltas apply in sequence");
        let post_requests = requests_for(&fresh_db, &member);
        let fresh = Session::certifying(&fresh_cfg, 5).decide_all(&post_requests);
        assert_eq!(
            redecision.outcomes, fresh,
            "capped redecide #{i} diverged from a fresh decide"
        );
        assert_certificates_accepted(&post_requests, &redecision.outcomes, &format!("delta #{i}"));
        cur = redecision.db;
    }
    let stats = session.engine().memo_stats();
    assert!(
        stats.evictions > 0,
        "the 1/4 cap never evicted — the test exerted no pressure"
    );
    assert!(stats.entries <= (working_set / 4).max(1));
}

#[test]
fn eviction_storm_still_answers_correctly() {
    let p = params(29);
    let stream = mutation_stream(4, &p, 2);
    let member = member_instance(&stream.base, &p);
    let storm_cfg = EngineConfig::sequential(Budget(5_000_000)).with_faults(Arc::new(FaultPlan {
        eviction_storm: true,
        ..FaultPlan::seeded(29)
    }));
    let fresh_cfg = EngineConfig::sequential(Budget(5_000_000));
    let session = Session::certifying(&storm_cfg, 5);
    let mut cur = stream.base.clone();
    let _ = session.decide_all(&requests_for(&cur, &member));
    for delta in &stream.deltas {
        let redecision = session
            .redecide_all(&cur, delta, &requests_for(&cur, &member))
            .expect("stream deltas apply in sequence");
        let (fresh_db, _) = cur.apply(delta).expect("stream deltas apply in sequence");
        let fresh =
            Session::certifying(&fresh_cfg, 5).decide_all(&requests_for(&fresh_db, &member));
        assert_eq!(redecision.outcomes, fresh, "storm redecide diverged");
        cur = redecision.db;
    }
    let stats = session.engine().memo_stats();
    assert!(stats.entries <= 1, "the storm clamps the memo to one entry");
    assert!(stats.evictions > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random eviction pressure (capacity 1..6) + random delta streams still yield
    // `redecide_all == fresh decide_all` on all five problems, with every delivered
    // certificate accepted by `pw_check`.
    #[test]
    fn random_eviction_pressure_never_changes_answers(
        (seed, delta_count, capacity) in (0u64..500, 1usize..4, 1usize..6)
    ) {
        let p = params(seed);
        let stream = mutation_stream(4, &p, delta_count);
        let member = member_instance(&stream.base, &p);
        let capped_cfg = EngineConfig::sequential(Budget(5_000_000)).with_memo_capacity(capacity);
        let fresh_cfg = EngineConfig::sequential(Budget(5_000_000));
        let session = Session::certifying(&capped_cfg, 5);
        let mut cur = stream.base.clone();
        let _ = session.decide_all(&requests_for(&cur, &member));
        for (i, delta) in stream.deltas.iter().enumerate() {
            let redecision = session
                .redecide_all(&cur, delta, &requests_for(&cur, &member))
                .expect("stream deltas apply in sequence");
            let (fresh_db, _) = cur.apply(delta).expect("stream deltas apply in sequence");
            let post_requests = requests_for(&fresh_db, &member);
            let fresh = Session::certifying(&fresh_cfg, 5).decide_all(&post_requests);
            prop_assert_eq!(
                &redecision.outcomes, &fresh,
                "capacity-{} redecide #{} diverged (seed {})", capacity, i, seed
            );
            assert_certificates_accepted(
                &post_requests,
                &redecision.outcomes,
                &format!("seed {seed} capacity {capacity} delta #{i}"),
            );
            cur = redecision.db;
        }
    }
}
