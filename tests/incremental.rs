//! Incremental re-decision end to end: the delta layer (`pw_core::CDatabase::apply`),
//! the engine's per-group decision memo, and the batch session's `redecide_all` —
//! exercised through the facade crate on the edge cases the subsystem must get right:
//!
//! * an **empty delta** replays every group from the memo (no new search work), and a
//!   **one-group delta** misses the memo only on its dirty group;
//! * **retracting the last row of a shard** leaves an empty shard whose group goes
//!   dirty, and the re-decision still matches a from-scratch decide;
//! * a delta that **couples two previously independent groups** merges them in the
//!   incremental coupling graph and invalidates both memo entries;
//! * the condition-satisfiability cache retains its entries across deltas (untouched
//!   conditions are never re-solved);
//! * a delta's retirement is **exact**: it leaves no entry of a dissolved group behind,
//!   and drops no entry a carried-over group still replays.

use possible_worlds::core::{CDatabase, Delta, View};
use possible_worlds::decide::batch::{DecisionRequest, Session};
use possible_worlds::decide::{Budget, EngineConfig};
use possible_worlds::prelude::*;
use possible_worlds::workloads::{
    coupling_delta, decoupled_multirelation, member_instance, mutation_stream, non_member_instance,
    single_shard_delta, TableParams,
};

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
fn requests_for(db: &CDatabase, member: &Instance, other: &Instance) -> Vec<DecisionRequest> {
    let view = View::identity(db.clone());
    vec![
        DecisionRequest::Membership {
            view: view.clone(),
            instance: member.clone(),
        },
        DecisionRequest::Membership {
            view: view.clone(),
            instance: other.clone(),
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

fn answers(
    outcomes: &[possible_worlds::decide::DecisionOutcome],
) -> Vec<(Result<bool, DecisionError>, Strategy)> {
    outcomes
        .iter()
        .map(|o| (o.answer.clone(), o.strategy))
        .collect()
}

#[test]
fn empty_delta_replays_every_group_from_the_memo() {
    let base = decoupled_multirelation(4, &params(11));
    let member = member_instance(&base, &params(11));
    let non_member = non_member_instance(&base, &params(11));
    let session = Session::sized(&EngineConfig::sequential(Budget(5_000_000)), 6);
    let first = session.decide_all(&requests_for(&base, &member, &non_member));

    let stats_before = session.engine().memo_stats();
    let redecision = session
        .redecide_all(
            &base,
            &Delta::new(),
            &requests_for(&base, &member, &non_member),
        )
        .expect("the empty delta applies");
    let stats_after = session.engine().memo_stats();

    assert!(redecision.change.is_noop());
    assert!(redecision.change.dirty_groups.is_empty());
    // The new database shares the table allocation with the old one.
    assert!(std::ptr::eq(
        base.tables().as_ptr(),
        redecision.db.tables().as_ptr()
    ));
    assert_eq!(answers(&first), answers(&redecision.outcomes));
    // Every per-group verdict replayed: the memo saw hits but not a single new miss —
    // no group search ran at all.
    assert_eq!(
        stats_after.misses, stats_before.misses,
        "an empty delta must not re-search any group"
    );
    assert!(stats_after.hits > stats_before.hits);

    // A one-group delta: every new miss is the dirty group's — each stored one entry
    // under it, which retiring that group counts — so every lookup of the three clean
    // groups was a memo hit, and together they are all the lookups a fresh decide of
    // the mutated database makes.  The delta inserts a ground row, so the database
    // keeps its table class and every request its strategy: a delta that added a
    // local condition would turn certainty and uniqueness from naive evaluation into
    // per-group searches, whose first lookups miss on the clean groups too.
    let delta = Delta::new().insert(
        base.tables()[2].name().to_owned(),
        possible_worlds::core::CTuple::of_terms([Term::constant(1), Term::constant(2)]),
    );
    let redecision = session
        .redecide_all(&base, &delta, &requests_for(&base, &member, &non_member))
        .expect("the insertion applies");
    let stats_delta = session.engine().memo_stats();
    let (hits, misses) = (
        stats_delta.hits - stats_after.hits,
        stats_delta.misses - stats_after.misses,
    );
    assert_eq!(redecision.change.dirty_groups, vec![2]);
    let dirty = &redecision.db.shard_groups()[2];
    assert!(misses > 0, "the dirty group is re-searched");
    assert_eq!(
        session.engine().retire_database(dirty.database()) as u64,
        misses,
        "only the dirty group misses the memo"
    );
    let fresh = Session::sized(&EngineConfig::sequential(Budget(5_000_000)), 6);
    let fresh_outcomes = fresh.decide_all(&requests_for(&redecision.db, &member, &non_member));
    let fresh_stats = fresh.engine().memo_stats();
    assert_eq!(hits + misses, fresh_stats.hits + fresh_stats.misses);
    assert_eq!(answers(&redecision.outcomes), answers(&fresh_outcomes));
}

#[test]
fn retracting_the_last_row_of_a_shard_keeps_answers_fresh() {
    let base = decoupled_multirelation(4, &params(23));
    let member = member_instance(&base, &params(23));
    let non_member = non_member_instance(&base, &params(23));
    let cfg = EngineConfig::sequential(Budget(5_000_000));
    let session = Session::sized(&cfg, 6);
    let _ = session.decide_all(&requests_for(&base, &member, &non_member));

    // Empty out shard 2 row by row (3 rows in the generator parameters).
    let rows = base.tables()[2].len();
    let shard = base.tables()[2].name().to_owned();
    let mut delta = Delta::new();
    for _ in 0..rows {
        delta = delta.retract(shard.clone(), 0);
    }
    let redecision = session
        .redecide_all(&base, &delta, &requests_for(&base, &member, &non_member))
        .expect("retractions apply");
    assert!(redecision.db.table(&shard).unwrap().is_empty());
    assert_eq!(
        redecision.db.shard_groups().len(),
        4,
        "an emptied table is still a shard with its own group"
    );
    assert_eq!(redecision.change.dirty_groups, vec![2]);

    // Bit-identical to a from-scratch decide of the mutated database.
    let (fresh_db, _) = base.apply(&delta).unwrap();
    let fresh = possible_worlds::decide::batch::decide_all_with(
        &requests_for(&fresh_db, &member, &non_member),
        &cfg,
    );
    assert_eq!(answers(&redecision.outcomes), answers(&fresh));
    // The incremental coupling graph agrees with a fresh build.
    let rebuilt = CDatabase::new(redecision.db.tables().iter().cloned());
    assert_eq!(
        rebuilt.shard_group_index(),
        redecision.db.shard_group_index()
    );
}

#[test]
fn a_coupling_delta_merges_groups_and_invalidates_both_memos() {
    let base = decoupled_multirelation(4, &params(37));
    let member = member_instance(&base, &params(37));
    let non_member = non_member_instance(&base, &params(37));
    let cfg = EngineConfig::sequential(Budget(5_000_000));
    let session = Session::sized(&cfg, 6);
    let _ = session.decide_all(&requests_for(&base, &member, &non_member));

    let delta = coupling_delta(&base, 1, 3);
    let stats_before = session.engine().memo_stats();
    let redecision = session
        .redecide_all(&base, &delta, &requests_for(&base, &member, &non_member))
        .expect("the coupling delta applies");
    let stats_after = session.engine().memo_stats();

    assert_eq!(redecision.change.groups_before, 4);
    assert_eq!(redecision.change.groups_after, 3);
    assert_eq!(
        redecision.change.dirty_groups.len(),
        1,
        "the merged pair is one dirty group"
    );
    let merged = &redecision.db.shard_groups()[redecision.change.dirty_groups[0]];
    assert_eq!(merged.members(), &[1, 3], "groups 1 and 3 merged");
    assert!(
        stats_after.misses > stats_before.misses,
        "the merged group's verdicts cannot replay — both constituents invalidated"
    );

    // Answers match a from-scratch decide *and* the forced joint search.
    let (fresh_db, _) = base.apply(&delta).unwrap();
    let fresh = possible_worlds::decide::batch::decide_all_with(
        &requests_for(&fresh_db, &member, &non_member),
        &cfg,
    );
    assert_eq!(answers(&redecision.outcomes), answers(&fresh));
    // Cross-check against the forced joint search on the search problems.  Containment
    // is left out: its joint fallback is the Π₂ᵖ enumeration over *all* variables of
    // the database, which blows the test budget — removing exactly that exponent is
    // what the per-pair decomposition is for (the equivalence itself is pinned on
    // small inputs in tests/parallel_engine.rs).
    let joint_requests: Vec<DecisionRequest> = requests_for(&fresh_db, &member, &non_member)
        .into_iter()
        .filter(|r| !matches!(r, DecisionRequest::Containment { .. }))
        .collect();
    let joint =
        possible_worlds::decide::batch::decide_all_with(&joint_requests, &cfg.without_per_shard());
    for (a, b) in redecision.outcomes.iter().zip(&joint) {
        assert_eq!(
            a.answer, b.answer,
            "per-shard answer equals the joint answer"
        );
    }
}

#[test]
fn sat_cache_entries_survive_deltas_to_other_groups() {
    let base = decoupled_multirelation(5, &params(53));
    let member = member_instance(&base, &params(53));
    let non_member = non_member_instance(&base, &params(53));
    let session = Session::sized(&EngineConfig::sequential(Budget(5_000_000)), 6);
    let _ = session.decide_all(&requests_for(&base, &member, &non_member));

    // A ground-row insertion adds no new condition anywhere: re-deciding after it must
    // not re-solve a single conjunction — every satisfiability lookup hits the cache.
    let delta = Delta::new().insert(
        base.tables()[1].name().to_owned(),
        possible_worlds::core::CTuple::of_terms([Term::constant(1), Term::constant(2)]),
    );
    let sat_before = session.engine().sat_cache().stats();
    let redecision = session
        .redecide_all(&base, &delta, &requests_for(&base, &member, &non_member))
        .expect("the insertion applies");
    let sat_after = session.engine().sat_cache().stats();
    assert_eq!(redecision.change.dirty_groups.len(), 1);
    assert_eq!(
        sat_after.misses, sat_before.misses,
        "untouched conditions are never re-solved across a delta"
    );
}

#[test]
fn memo_replayed_answers_stay_certified_across_deltas() {
    use possible_worlds::{check, check_claim};

    let base = decoupled_multirelation(4, &params(97));
    let member = member_instance(&base, &params(97));
    let non_member = non_member_instance(&base, &params(97));
    let cfg = EngineConfig::sequential(Budget(5_000_000));
    let session = Session::certifying(&cfg, 6);

    let audit = |requests: &[DecisionRequest],
                 outcomes: &[possible_worlds::decide::DecisionOutcome],
                 when: &str| {
        for (request, outcome) in requests.iter().zip(outcomes) {
            let answer = *outcome.answer.as_ref().expect("the budget is ample");
            let certificate = outcome
                .certificate
                .as_ref()
                .unwrap_or_else(|| panic!("{when}: certifying session returned no certificate"));
            check::verify(&check_claim(request, answer), certificate)
                .unwrap_or_else(|e| panic!("{when}: pw_check rejected a certificate: {e}"));
        }
    };

    let requests = requests_for(&base, &member, &non_member);
    audit(&requests, &session.decide_all(&requests), "initial decide");

    // Pure replay: the empty delta answers every group from the memo, and the memo's
    // stored certificates must still satisfy the independent checker.
    let stats_before = session.engine().memo_stats();
    let replayed = session
        .redecide_all(&base, &Delta::new(), &requests)
        .expect("the empty delta applies");
    assert_eq!(
        session.engine().memo_stats().misses,
        stats_before.misses,
        "an empty delta must not re-search any group"
    );
    audit(&requests, &replayed.outcomes, "empty-delta replay");

    // A real delta: dirty groups re-search, clean groups replay from the memo, and
    // every stitched certificate must check against the *mutated* database — the
    // re-decision answers about the post-delta views, so the claims are rebuilt.
    let delta = single_shard_delta(&base, 2);
    let redecision = session
        .redecide_all(&base, &delta, &requests)
        .expect("the single-shard delta applies");
    let post_requests = requests_for(&redecision.db, &member, &non_member);
    audit(&post_requests, &redecision.outcomes, "single-shard delta");
}

#[test]
fn a_session_retires_caches_of_dissolved_databases() {
    let base = decoupled_multirelation(3, &params(71));
    let member = member_instance(&base, &params(71));
    let non_member = non_member_instance(&base, &params(71));
    let session = Session::sized(&EngineConfig::sequential(Budget(5_000_000)), 6);
    let _ = session.decide_all(&requests_for(&base, &member, &non_member));
    let entries_after_decide = session.engine().memo_stats().entries;

    // Roll ten single-shard deltas through the session: the memo must not accumulate
    // one generation of entries per delta — retired versions are dropped.
    let mut cur = base;
    for i in 0..10 {
        let delta = single_shard_delta(&cur, i % 3);
        let redecision = session
            .redecide_all(&cur, &delta, &requests_for(&cur, &member, &non_member))
            .expect("single-shard deltas apply");
        cur = redecision.db;
    }
    let entries_after_stream = session.engine().memo_stats().entries;
    assert!(
        entries_after_stream <= entries_after_decide + 12,
        "memo entries stay bounded across a delta stream \
         ({entries_after_decide} after decide, {entries_after_stream} after 10 deltas)"
    );
}

/// After every `push_delta`, retiring (through the public `Engine::retire_database`)
/// each old group the delta dissolved — found here by comparing the two group lists,
/// the whole-database way — and the previous database value finds nothing left to
/// drop, so the delta's own retirement missed nothing.  And the delta's re-decision
/// misses the memo no more often than a session that saw only the previous version
/// and retired nothing at all, so nothing a carried-over group replays was dropped.
#[test]
fn push_delta_retires_exactly_the_dissolved_entries() {
    let params = params(29);
    let stream = mutation_stream(4, &params, 10);
    let member = member_instance(&stream.base, &params);
    let non_member = non_member_instance(&stream.base, &params);
    let cfg = EngineConfig::sequential(Budget(5_000_000));
    let mut session = Session::sized(&cfg, 6);
    session.register_standing(
        &stream.base,
        &requests_for(&stream.base, &member, &non_member),
    );
    let mut deltas = stream.deltas;
    deltas.insert(4, coupling_delta(&stream.base, 1, 3));
    for (step, delta) in deltas.iter().enumerate() {
        let prev = session.standing_db().expect("bound").clone();
        let misses_before = session.engine().memo_stats().misses;
        let update = session.push_delta(delta).expect("stream deltas apply");
        let misses = session.engine().memo_stats().misses - misses_before;

        let engine = session.engine();
        let entries = engine.memo_stats().entries;
        for old in prev.shard_groups() {
            let survives = update
                .db
                .shard_groups()
                .iter()
                .any(|new| new.database() == old.database());
            if !survives {
                assert_eq!(engine.retire_database(old.database()), 0, "step {step}");
            }
        }
        assert_eq!(engine.retire_database(&prev), 0, "step {step}");
        assert_eq!(engine.memo_stats().entries, entries, "step {step}");

        let reference = Session::sized(&cfg, 6);
        reference.decide_all(&requests_for(&prev, &member, &non_member));
        let reference_before = reference.engine().memo_stats().misses;
        reference.decide_all(&requests_for(&update.db, &member, &non_member));
        let reference_misses = reference.engine().memo_stats().misses - reference_before;
        assert!(
            misses <= reference_misses,
            "step {step}: {misses} misses after the delta, {reference_misses} needed"
        );
    }
}
