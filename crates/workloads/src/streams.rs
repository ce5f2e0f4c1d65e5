//! Standing-query stream families: delta streams with *controlled verdict flips*, the
//! workload behind the repository benchmark's `delta-stream` (`perfbench/`).
//!
//! Each relation of the base database carries a ground **anchor** row whose fact is
//! certain exactly while the row is present.  A *flip op* retracts the anchor (flipping
//! the relation's standing certainty true→false) or re-inserts it (false→true); every
//! other op is *answer-stable* — fresh-null inserts, inert conjoins, retractions of
//! stream-inserted rows, none of which flips a standing verdict — and *stationary*: a
//! relation holds at most two stream-inserted rows, and conjoins land only on
//! stream-inserted rows (retraction sheds the accumulated condition), so per-delta
//! cost does not grow down the stream.  The generator tracks a virtual row model across the stream, so
//! every op addresses its row by the position it actually occupies when the delta
//! applies.
//!
//! Two families:
//!
//! * **flip-sparse** — flips are rare (1 op in 16).  The serving-side win to measure:
//!   a standing set with per-relation dependencies skips almost every request on
//!   almost every delta, where a replay-everything baseline re-decides all of them.
//! * **flip-heavy** — every delta is a flip, round-robin over the relations.  Measures
//!   verdict-flip latency when notifications actually fire.
//!
//! The requests come back as [`StreamRequest`] specs (problem + facts), not
//! `pw_decide` types — this crate sits below the decision layer.  Bind them to
//! identity views of [`StreamWorkload::base`] in the caller.

use pw_condition::{Atom, Conjunction, Term, VarGen};
use pw_core::{CDatabase, CTable, CTuple, Delta};
use pw_relational::{rel, Instance};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which decision problem a [`StreamRequest`] asks (the localizable two — possibility
/// and certainty decompose per shard group, which is what the subscription index
/// exploits).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamProblem {
    /// `POSS(·, q)`: is some world containing all facts possible?
    Possibility,
    /// `CERT(·, q)`: do all facts hold in every world?
    Certainty,
}

/// One standing question over the stream's (identity-viewed) base database.
#[derive(Clone, Debug)]
pub struct StreamRequest {
    /// The problem to ask.
    pub problem: StreamProblem,
    /// The facts asked about.
    pub facts: Instance,
    /// Does the stream's flip schedule ever change this request's answer?  (Stable
    /// requests are the ones a subscription index should skip cheaply.)
    pub flippable: bool,
}

/// A standing-query stream workload: base database, standing requests, deltas.
#[derive(Clone, Debug)]
pub struct StreamWorkload {
    /// Family and size, e.g. `flip-sparse/r16x6/d10000`.
    pub label: String,
    /// The base database: one decoupled shard group per relation.
    pub base: CDatabase,
    /// The standing requests (three per relation: one flippable certainty, one stable
    /// possibility, one stable certainty).
    pub requests: Vec<StreamRequest>,
    /// The deltas, in application order; each touches exactly one relation.
    pub deltas: Vec<Delta>,
    /// How many of the deltas are flip ops (anchor retract/re-insert).
    pub flip_ops: usize,
}

/// The row model the generator tracks per relation, so every op addresses the position
/// its row occupies at application time.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RowKind {
    /// The flip anchor: a ground row whose fact is certain iff the row is present.
    Anchor,
    /// A second ground row, never touched — keeps one certainty verdict stably true.
    Keeper,
    /// A null row from the base build (conjoin target).
    Null,
    /// A null row the stream inserted (retract target).
    StreamNull,
}

struct RelationModel {
    name: String,
    anchor_constant: i64,
    rows: Vec<RowKind>,
}

impl RelationModel {
    fn position_of(&self, kind: RowKind) -> Option<usize> {
        self.rows.iter().position(|&k| k == kind)
    }

    fn last_position_of(&self, kind: RowKind) -> Option<usize> {
        self.rows.iter().rposition(|&k| k == kind)
    }
}

/// Flips are 1 op in 16: the standing set is quiet almost always, which is the regime
/// where skipping unaffected requests pays.
pub fn flip_sparse_stream(
    relations: usize,
    rows_per_relation: usize,
    deltas: usize,
    seed: u64,
) -> StreamWorkload {
    build_stream(
        "flip-sparse",
        relations,
        rows_per_relation,
        deltas,
        seed,
        16,
    )
}

/// Every delta is a flip op, round-robin over the relations: the latency of the
/// notification path itself.
pub fn flip_heavy_stream(
    relations: usize,
    rows_per_relation: usize,
    deltas: usize,
    seed: u64,
) -> StreamWorkload {
    build_stream("flip-heavy", relations, rows_per_relation, deltas, seed, 1)
}

/// `flip_every`: a delta is a flip op with probability `1/flip_every` (every delta
/// when 1).
fn build_stream(
    family: &str,
    relations: usize,
    rows_per_relation: usize,
    deltas: usize,
    seed: u64,
    flip_every: u32,
) -> StreamWorkload {
    let relations = relations.max(1);
    let rows_per_relation = rows_per_relation.max(3);
    let mut vars = VarGen::new();
    let mut models: Vec<RelationModel> = Vec::with_capacity(relations);
    let tables: Vec<CTable> = (0..relations)
        .map(|i| {
            let name = format!("S{i:02}");
            let anchor_constant = 100 + i as i64;
            let keeper_constant = 1000 + i as i64;
            let mut rows = vec![
                CTuple::of_terms([Term::constant(anchor_constant)]),
                CTuple::of_terms([Term::constant(keeper_constant)]),
            ];
            let mut kinds = vec![RowKind::Anchor, RowKind::Keeper];
            for _ in 2..rows_per_relation {
                // A null row under an inert condition: the shard is a genuine c-table,
                // so re-deciding it means real search work.
                let v = vars.fresh();
                rows.push(CTuple::with_condition(
                    [Term::Var(v)],
                    Conjunction::single(Atom::neq(v, -1)),
                ));
                kinds.push(RowKind::Null);
            }
            models.push(RelationModel {
                name: name.clone(),
                anchor_constant,
                rows: kinds,
            });
            CTable::new(&name, 1, Conjunction::truth(), rows).expect("stream table is well formed")
        })
        .collect();
    let base = CDatabase::new(tables);

    // Three standing requests per relation: the anchor certainty flips with the anchor
    // row; the anchor possibility and the keeper certainty never do.
    let requests: Vec<StreamRequest> = (0..relations)
        .flat_map(|i| {
            let anchor = 100 + i as i64;
            let keeper = 1000 + i as i64;
            let name = format!("S{i:02}");
            [
                StreamRequest {
                    problem: StreamProblem::Certainty,
                    facts: Instance::single(&name, rel![[anchor]]),
                    flippable: true,
                },
                StreamRequest {
                    problem: StreamProblem::Possibility,
                    facts: Instance::single(&name, rel![[anchor]]),
                    flippable: false,
                },
                StreamRequest {
                    problem: StreamProblem::Certainty,
                    facts: Instance::single(&name, rel![[keeper]]),
                    flippable: false,
                },
            ]
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(193).wrapping_add(7));
    let mut flip_ops = 0;
    let stream: Vec<Delta> = (0..deltas)
        .map(|tick| {
            let flip = flip_every == 1 || rng.gen_range(0..flip_every) == 0;
            let r = if flip_every == 1 {
                tick % relations
            } else {
                rng.gen_range(0..relations)
            };
            let model = &mut models[r];
            if flip {
                flip_ops += 1;
                match model.position_of(RowKind::Anchor) {
                    // Present: retract it — the anchor certainty flips true→false.
                    Some(pos) => {
                        model.rows.remove(pos);
                        Delta::new().retract(model.name.clone(), pos)
                    }
                    // Absent: re-insert it (appends) — false→true.
                    None => {
                        model.rows.push(RowKind::Anchor);
                        Delta::new().insert(
                            model.name.clone(),
                            CTuple::of_terms([Term::constant(model.anchor_constant)]),
                        )
                    }
                }
            } else {
                // Stable ops keep the stream *stationary*: at most two stream-inserted
                // null rows per relation, and inert conjoins land only on
                // stream-inserted rows, so a later retraction sheds the accumulated
                // condition.  Without both bounds the per-delta re-decision cost grows
                // down the stream and the benchmark measures growth, not the index.
                let stream_nulls = model
                    .rows
                    .iter()
                    .filter(|&&k| k == RowKind::StreamNull)
                    .count();
                let choice = match rng.gen_range(0..3u32) {
                    0 if stream_nulls < 2 => 0,
                    1 | 2 if stream_nulls > 0 => rng.gen_range(1..3u32),
                    _ if stream_nulls == 0 => 0,
                    _ => 1,
                };
                match choice {
                    // Insert a fresh null row (coverable by anything: answer-stable).
                    0 => {
                        model.rows.push(RowKind::StreamNull);
                        Delta::new().insert(
                            model.name.clone(),
                            CTuple::of_terms([Term::Var(vars.fresh())]),
                        )
                    }
                    // Retract the youngest stream-inserted row.
                    1 => {
                        let pos = model
                            .last_position_of(RowKind::StreamNull)
                            .expect("stream_nulls > 0");
                        model.rows.remove(pos);
                        Delta::new().retract(model.name.clone(), pos)
                    }
                    // Conjoin an inert inequality onto the youngest stream-inserted row.
                    _ => {
                        let pos = model
                            .last_position_of(RowKind::StreamNull)
                            .expect("stream_nulls > 0");
                        let v = vars.fresh();
                        Delta::new().conjoin(
                            model.name.clone(),
                            pos,
                            Conjunction::single(Atom::neq(v, -1)),
                        )
                    }
                }
            }
        })
        .collect();

    StreamWorkload {
        label: format!("{family}/r{relations}x{rows_per_relation}/d{deltas}"),
        base,
        requests,
        deltas: stream,
        flip_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_apply_in_sequence_and_are_deterministic() {
        for build in [flip_sparse_stream, flip_heavy_stream] {
            let a = build(4, 4, 60, 9);
            let b = build(4, 4, 60, 9);
            assert_eq!(a.deltas.len(), 60);
            assert_eq!(a.flip_ops, b.flip_ops);
            assert_eq!(a.requests.len(), 12, "three requests per relation");
            let mut db = a.base.clone();
            for (da, db_) in a.deltas.iter().zip(&b.deltas) {
                assert_eq!(format!("{da:?}").len(), format!("{db_:?}").len());
                let (next, change) = db.apply(da).expect("stream deltas apply in sequence");
                assert_eq!(change.changed_tables.len(), 1, "one relation per delta");
                db = next;
            }
        }
    }

    #[test]
    fn sparse_streams_flip_rarely_and_heavy_streams_always() {
        let sparse = flip_sparse_stream(8, 4, 400, 3);
        assert!(sparse.flip_ops > 0, "a 400-delta sparse stream flips");
        assert!(
            sparse.flip_ops < 100,
            "sparse flips ≈ 1/16: {}",
            sparse.flip_ops
        );
        let heavy = flip_heavy_stream(8, 4, 400, 3);
        assert_eq!(heavy.flip_ops, 400);
    }
}
