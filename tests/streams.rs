//! Standing queries over delta streams: `Session::push_delta` against the snapshot
//! oracle.
//!
//! * **Flips = snapshot diffs** — for random delta streams, the verdict flips
//!   `push_delta` reports must equal the answer diff of two full `decide_all`
//!   snapshots, on all five decision problems at once.  The subscription index may
//!   skip requests, never misreport them.
//! * **Window compaction** — a tumbling [`DeltaWindow`] feeding `push_delta` produces
//!   the same flips as the raw delta stream, and a window whose insert/retract pair
//!   cancels emits a no-op that re-decides nothing.
//! * **Coupling merges widen the index** — a delta that merges two shard groups makes
//!   a request localized to one group sensitive to deltas on the other, because group
//!   ownership is resolved against the new coupling graph on every delta.
//! * **Skipping is the win** — on the flip-sparse stream every delta re-decides
//!   under a tenth of the standing set, counted per delta rather than timed.
//! * **Retirement is O(delta)** — the cache retirement of a delta checks the same
//!   number of conditions and visits the same number of memo entries whether the
//!   database holds 64 relations or 1024.

use possible_worlds::core::{Delta, DeltaOp, DeltaWindow};
use possible_worlds::decide::batch::{DecisionRequest, RetireWork, Session};
use possible_worlds::decide::EngineConfig;
use possible_worlds::prelude::*;
use possible_worlds::workloads::{
    coupling_delta, flip_heavy_stream, flip_sparse_stream, member_instance, mutation_stream,
    non_member_instance, single_shard_delta, StreamProblem, StreamWorkload, TableParams,
};
use proptest::prelude::*;

fn small_budget() -> Budget {
    Budget(5_000_000)
}

fn all_five_requests(
    db: &CDatabase,
    member: &possible_worlds::relational::Instance,
    non_member: &possible_worlds::relational::Instance,
) -> Vec<DecisionRequest> {
    let view = View::identity(db.clone());
    vec![
        DecisionRequest::Membership {
            view: view.clone(),
            instance: member.clone(),
        },
        DecisionRequest::Membership {
            view: view.clone(),
            instance: non_member.clone(),
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

/// Bind a [`StreamWorkload`]'s request specs to identity views of `db`.
fn bind_stream_requests(workload: &StreamWorkload, db: &CDatabase) -> Vec<DecisionRequest> {
    workload
        .requests
        .iter()
        .map(|spec| {
            let view = View::identity(db.clone());
            match spec.problem {
                StreamProblem::Possibility => DecisionRequest::Possibility {
                    view,
                    facts: spec.facts.clone(),
                },
                StreamProblem::Certainty => DecisionRequest::Certainty {
                    view,
                    facts: spec.facts.clone(),
                },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The tentpole invariant: on random streams, push_delta's flip events equal the
    // diff of consecutive full decide_all snapshots — all five problems standing.
    #[test]
    fn push_delta_flips_equal_snapshot_diffs((seed, delta_count) in (0u64..1_000, 1usize..5)) {
        let params = TableParams { rows: 3, arity: 2, constants: 3, null_density: 0.4, seed };
        let stream = mutation_stream(4, &params, delta_count);
        let member = member_instance(&stream.base, &params);
        let non_member = non_member_instance(&stream.base, &params);
        let cfg = EngineConfig::sequential(small_budget());

        let requests = all_five_requests(&stream.base, &member, &non_member);
        let mut session = Session::sized(&cfg, requests.len());
        let (ids, baselines) = session.register_standing(&stream.base, &requests);
        prop_assert_eq!(ids.len(), requests.len());

        let mut cur = stream.base.clone();
        let mut prev_outcomes = baselines;
        // The baseline must itself match a cold snapshot.
        let snapshot = possible_worlds::decide::batch::decide_all_with(
            &all_five_requests(&cur, &member, &non_member), &cfg);
        for (got, want) in prev_outcomes.iter().zip(&snapshot) {
            prop_assert!(got.answer == want.answer && got.strategy == want.strategy);
        }

        for delta in &stream.deltas {
            let update = session.push_delta(delta).expect("stream deltas apply in sequence");
            let (next_db, _) = cur.apply(delta).expect("stream deltas apply in sequence");
            let next_outcomes = possible_worlds::decide::batch::decide_all_with(
                &all_five_requests(&next_db, &member, &non_member), &cfg);

            // Expected flips: positions whose answer changed between snapshots.
            let expected: Vec<(u64, _, _)> = prev_outcomes
                .iter()
                .zip(&next_outcomes)
                .enumerate()
                .filter(|(_, (a, b))| a.answer != b.answer)
                .map(|(i, (a, b))| (ids[i], a.answer.clone(), b.answer.clone()))
                .collect();
            let got: Vec<(u64, _, _)> = update
                .flips
                .iter()
                .map(|f| (f.request_id, f.old.answer.clone(), f.new.answer.clone()))
                .collect();
            prop_assert_eq!(
                got, expected,
                "flip events diverge from snapshot diff (seed {}, {} deltas)",
                seed, delta_count
            );
            // Flips carry the fresh decision verbatim (strategy included), and every
            // request's standing verdict — skipped or re-decided — matches the
            // snapshot.
            for flip in &update.flips {
                let pos = ids.iter().position(|&id| id == flip.request_id).unwrap();
                prop_assert!(flip.new.strategy == next_outcomes[pos].strategy);
            }
            for (i, want) in next_outcomes.iter().enumerate() {
                let standing = session.standing_outcome(ids[i]).expect("registered id");
                prop_assert!(
                    standing.answer == want.answer,
                    "standing verdict {} diverged from snapshot (seed {})",
                    i, seed
                );
            }
            prop_assert_eq!(update.redecided + update.skipped, requests.len());
            cur = next_db;
            prev_outcomes = next_outcomes;
        }
    }
}

/// A tumbling window feeding `push_delta` produces the same verdicts as the raw
/// stream, and batches that cancel to a no-op re-decide nothing.
#[test]
fn windowed_push_delta_matches_raw_stream_and_cancels_noops() {
    let workload = flip_heavy_stream(3, 4, 12, 17);
    let cfg = EngineConfig::sequential(small_budget());

    // Raw session: one push per delta.
    let raw_requests = bind_stream_requests(&workload, &workload.base);
    let mut raw = Session::sized(&cfg, raw_requests.len());
    let (raw_ids, _) = raw.register_standing(&workload.base, &raw_requests);
    // Windowed session: deltas go through a tumbling window of 3 first.
    let mut windowed = Session::sized(&cfg, raw_requests.len());
    let (win_ids, _) = windowed.register_standing(&workload.base, &raw_requests);
    let mut window = DeltaWindow::tumbling(&workload.base, 3);

    let mut raw_flips = 0usize;
    let mut win_flips = 0usize;
    for delta in &workload.deltas {
        raw_flips += raw
            .push_delta(delta)
            .expect("raw delta applies")
            .flips
            .len();
        if let Some(compacted) = window
            .push(delta.clone())
            .expect("window accepts the delta")
        {
            win_flips += windowed
                .push_delta(&compacted)
                .expect("compacted delta applies")
                .flips
                .len();
        }
    }
    if let Some(tail) = window.flush() {
        win_flips += windowed
            .push_delta(&tail)
            .expect("tail applies")
            .flips
            .len();
    }
    assert!(raw_flips > 0, "a flip-heavy stream flips");

    // Same final verdicts on every standing request.  (The windowed session may see
    // *fewer* flip events: opposing flips inside one window compact away — that is the
    // point of windowing.)
    for (raw_id, win_id) in raw_ids.iter().zip(&win_ids) {
        assert_eq!(
            raw.standing_outcome(*raw_id).unwrap().answer,
            windowed.standing_outcome(*win_id).unwrap().answer,
        );
    }
    assert!(win_flips <= raw_flips);

    // The cancellation case: an insert/retract pair inside one window compacts to a
    // no-op — push_delta applies it with zero re-decisions and zero flips.
    let db = windowed.standing_db().unwrap().clone();
    let mut cancel = DeltaWindow::tumbling(&db, 2);
    let len = db.tables()[0].len();
    let name = db.tables()[0].name().to_owned();
    assert!(cancel
        .push(Delta::new().insert(name.clone(), CTuple::of_terms([Term::constant(77)])))
        .unwrap()
        .is_none());
    let compacted = cancel
        .push(Delta::new().retract(name, len))
        .unwrap()
        .expect("second push closes the window");
    assert!(compacted.is_empty(), "the pair cancels");
    let update = windowed.push_delta(&compacted).expect("no-op applies");
    assert!(update.change.is_noop());
    assert_eq!(update.redecided, 0);
    assert!(update.flips.is_empty());
}

/// Subscription-index invalidation across a coupling merge: a request localized to
/// group A must start re-deciding on deltas to group B once a coupling delta merges
/// the two groups.
#[test]
fn coupling_merge_widens_a_localized_subscription() {
    let mut vars = VarGen::new();
    let (x, y) = (vars.fresh(), vars.fresh());
    let db = CDatabase::new([
        CTable::new(
            "A",
            1,
            Conjunction::truth(),
            [
                CTuple::of_terms([Term::constant(1)]),
                CTuple::with_condition([Term::Var(x)], Conjunction::single(Atom::neq(x, -1))),
            ],
        )
        .unwrap(),
        CTable::new(
            "B",
            1,
            Conjunction::truth(),
            [
                CTuple::of_terms([Term::constant(2)]),
                CTuple::with_condition([Term::Var(y)], Conjunction::single(Atom::neq(y, -1))),
            ],
        )
        .unwrap(),
    ]);
    assert_eq!(db.shard_groups().len(), 2);

    // One standing request, localized to A.
    let requests = vec![DecisionRequest::Certainty {
        view: View::identity(db.clone()),
        facts: possible_worlds::relational::Instance::single(
            "A",
            possible_worlds::relational::rel![[1]],
        ),
    }];
    let cfg = EngineConfig::sequential(small_budget());
    let mut session = Session::sized(&cfg, 1);
    let (ids, baselines) = session.register_standing(&db, &requests);
    assert_eq!(baselines[0].answer, Ok(true));

    // Pre-merge: a delta touching only B skips the A-localized request.
    let update = session
        .push_delta(&single_shard_delta(&db, 1))
        .expect("B delta applies");
    assert_eq!((update.redecided, update.skipped), (0, 1));

    // Merge the two groups.  The coupling conjoins `v ≠ -1` onto A's anchor row, so
    // the anchor fact stops being certain (the valuation v = -1 drops the row): the
    // merge both widens the index *and* flips the verdict — and the flip is caught
    // because the merged group is dirty.
    let merged = update.db.clone();
    let update = session
        .push_delta(&coupling_delta(&merged, 0, 1))
        .expect("coupling delta applies");
    assert_eq!(update.db.shard_groups().len(), 1, "groups merged");
    assert_eq!(
        update.redecided, 1,
        "the merge itself re-decides A's request"
    );
    assert_eq!(update.flips.len(), 1);
    assert_eq!(update.flips[0].old.answer, Ok(true));
    assert_eq!(update.flips[0].new.answer, Ok(false));

    // Post-merge: the same B-only mutation now lands in the merged dirty group, so the
    // A-localized request is re-decided — the index resolved B's position against the
    // *new* coupling graph.
    let post = update.db.clone();
    let update = session
        .push_delta(&single_shard_delta(&post, 1))
        .expect("B delta applies post-merge");
    assert_eq!((update.redecided, update.skipped), (1, 0));
    assert_eq!(session.standing_outcome(ids[0]).unwrap().answer, Ok(false));

    // And a flip back propagates through the merged group: an unconditional fresh
    // A(1) row makes the fact certain again.
    let update = session
        .push_delta(&Delta::new().insert("A", CTuple::of_terms([Term::constant(1)])))
        .expect("insert applies");
    assert_eq!(update.flips.len(), 1);
    assert_eq!(update.flips[0].new.answer, Ok(true));
}

/// The flip-heavy family flips its flippable certainty on every delta; the flip-sparse
/// family's stable requests never flip.  (Workload-level sanity for the benchmark.)
#[test]
fn stream_families_flip_as_advertised() {
    let workload = flip_heavy_stream(2, 4, 8, 5);
    let cfg = EngineConfig::sequential(small_budget());
    let requests = bind_stream_requests(&workload, &workload.base);
    let mut session = Session::sized(&cfg, requests.len());
    let (ids, _) = session.register_standing(&workload.base, &requests);
    let flippable: Vec<u64> = ids
        .iter()
        .zip(&workload.requests)
        .filter(|(_, spec)| spec.flippable)
        .map(|(&id, _)| id)
        .collect();
    let mut flips = 0usize;
    for delta in &workload.deltas {
        let update = session.push_delta(delta).expect("stream delta applies");
        for flip in &update.flips {
            assert!(
                flippable.contains(&flip.request_id),
                "a stable request flipped"
            );
        }
        flips += update.flips.len();
    }
    assert_eq!(flips, workload.flip_ops, "every flip op flips one verdict");
}

/// The subscription index's win counted as work, not time: on the flip-sparse stream
/// over 64 relations, with all 192 of its requests standing, every delta re-decides
/// under a tenth of the standing set (the three requests of the relation it touches)
/// and skips the rest, and the standing verdicts still equal a fresh decide of the
/// final database.
#[test]
fn flip_sparse_push_redecides_under_a_tenth_of_the_standing_set() {
    let workload = flip_sparse_stream(64, 6, 64, 1);
    let cfg = EngineConfig::sequential(small_budget());
    let requests = bind_stream_requests(&workload, &workload.base);
    assert_eq!(requests.len(), 192);
    let mut session = Session::sized(&cfg, requests.len());
    let (ids, _) = session.register_standing(&workload.base, &requests);
    for (step, delta) in workload.deltas.iter().enumerate() {
        let update = session.push_delta(delta).expect("stream delta applies");
        assert_eq!(update.redecided + update.skipped, 192, "delta #{step}");
        assert!(
            update.redecided * 10 <= 192,
            "delta #{step} re-decided {} of 192 standing requests",
            update.redecided
        );
    }
    let last = session.standing_db().expect("bound");
    let fresh = possible_worlds::decide::batch::decide_all_with(
        &bind_stream_requests(&workload, last),
        &cfg,
    );
    for (i, (id, want)) in ids.iter().zip(&fresh).enumerate() {
        let standing = session.standing_outcome(*id).expect("registered id");
        assert_eq!(standing.answer, want.answer, "standing request {i}");
    }
}

/// The work a delta's cache retirement does follows the delta, not the database: the
/// same 32 flip-sparse deltas (on relations `S00`…`S63`, which every size below
/// holds with the same shape) against databases of 64, 256 and 1024 relations check
/// the same conditions and visit the same memo entries, delta by delta.  Counting
/// work instead of timing it keeps the test independent of the host.
#[test]
fn delta_retirement_work_does_not_grow_with_the_relation_count() {
    let seed = 3;
    let deltas = flip_sparse_stream(64, 6, 32, seed).deltas;
    let mut per_size: Vec<Vec<RetireWork>> = Vec::new();
    for relations in [64, 256, 1024] {
        let workload = flip_sparse_stream(relations, 6, 0, seed);
        // A few standing requests: the three of each relation the first two deltas
        // touch, so some deltas dissolve a group that owns memo entries.
        let touched: Vec<usize> = deltas[..2]
            .iter()
            .map(|delta| {
                let name = match &delta.ops()[0] {
                    DeltaOp::Insert { table, .. }
                    | DeltaOp::Retract { table, .. }
                    | DeltaOp::Conjoin { table, .. } => table,
                };
                workload.base.table_position(name).unwrap()
            })
            .collect();
        let requests: Vec<DecisionRequest> = bind_stream_requests(&workload, &workload.base)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| touched.contains(&(i / 3)))
            .map(|(_, request)| request)
            .collect();
        let cfg = EngineConfig::sequential(small_budget());
        let mut session = Session::sized(&cfg, requests.len());
        session.register_standing(&workload.base, &requests);
        let work: Vec<RetireWork> = deltas
            .iter()
            .map(|delta| {
                session
                    .push_delta(delta)
                    .expect("stream delta applies")
                    .retired
            })
            .collect();
        assert!(
            work.iter().any(|w| w.memo_entries_visited > 0),
            "{relations} relations: some delta retires a group that owns memo entries"
        );
        assert!(work.iter().all(|w| w.conditions_checked <= 8));
        per_size.push(work);
    }
    assert_eq!(per_size[0], per_size[1], "64 vs 256 relations");
    assert_eq!(per_size[0], per_size[2], "64 vs 1024 relations");
}
