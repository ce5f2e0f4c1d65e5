//! Mutation streams: decoupled multi-relation databases plus deterministic delta
//! sequences, the workload family behind the incremental re-decision benchmark.
//!
//! A serving engine's traffic is *decide, mutate, re-decide*: most deltas touch one
//! relation — one shard group — and the interesting question is how much of the previous
//! decision survives.  [`mutation_stream`] builds that shape deterministically: a
//! [`decoupled_multirelation`] base (one coupling group per relation) and a seeded
//! sequence of single-relation [`Delta`]s mixing row insertions, retractions and
//! condition strengthenings.  Every delta leaves all other groups untouched, so an
//! incremental re-decision replays their memoized verdicts while a from-scratch decide
//! re-searches everything.
//!
//! [`coupling_delta`] builds the adversarial counterpart for tests: a delta that *merges*
//! two previously independent groups by threading a fresh shared variable through one row
//! of each (semantically inert — the conjoined atoms are satisfiable by every valuation —
//! but the coupling graph must collapse the groups and the memo must invalidate both).

use crate::decoupled::decoupled_multirelation;
use crate::tables::TableParams;
use pw_condition::{Atom, Conjunction, Term, VarGen};
use pw_core::{CDatabase, CTuple, Delta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A mutation-stream workload: the base database and the deltas, in application order.
#[derive(Clone, Debug)]
pub struct MutationStream {
    /// The base database (`relations` decoupled shards).
    pub base: CDatabase,
    /// The deltas; each touches exactly one relation.
    pub deltas: Vec<Delta>,
}

/// Build a deterministic mutation stream: a [`decoupled_multirelation`] base of
/// `relations` shards and `deltas` single-relation deltas.  The op mix (insert a ground
/// row / strengthen a row's condition with an inert inequality / retract the youngest
/// row) is drawn from `params.seed`, and retractions are only generated for relations
/// whose current row count (tracked across the stream) is above one, so every delta is
/// applicable in sequence.
pub fn mutation_stream(relations: usize, params: &TableParams, deltas: usize) -> MutationStream {
    let base = decoupled_multirelation(relations, params);
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_mul(31).wrapping_add(11));
    let mut rows: Vec<usize> = base.tables().iter().map(|t| t.len()).collect();
    let mut vars = VarGen::new();
    let out = (0..deltas)
        .map(|_| {
            let r = rng.gen_range(0..relations);
            let name = base.tables()[r].name().to_owned();
            let arity = base.tables()[r].arity();
            let roll = rng.gen_range(0..10u32);
            if roll < 5 {
                // Insert a ground row drawn from the generator's constant pool.
                let cells: Vec<Term> = (0..arity)
                    .map(|_| Term::constant(rng.gen_range(0..params.constants as i64)))
                    .collect();
                let row = CTuple::of_terms(cells);
                rows[r] += 1;
                Delta::new().insert(name, row)
            } else if roll < 8 || rows[r] <= 1 {
                // Strengthen a row's condition with an inert inequality on a fresh
                // variable: satisfiable in every world, but the shard's fingerprint
                // changes — the canonical "knowledge arrived" mutation.
                let row = rng.gen_range(0..rows[r]);
                let v = vars.fresh();
                Delta::new().conjoin(name, row, Conjunction::single(Atom::neq(v, -1)))
            } else {
                // Retract the youngest row.
                rows[r] -= 1;
                Delta::new().retract(name, rows[r])
            }
        })
        .collect();
    MutationStream { base, deltas: out }
}

/// A delta touching exactly the relation at `position`: strengthens row 0's condition
/// with an inert inequality on a fresh variable.  Changes the shard's fingerprint (and
/// dirties its group) without changing the represented worlds' facts.
pub fn single_shard_delta(db: &CDatabase, position: usize) -> Delta {
    let mut vars = VarGen::new();
    let v = vars.fresh();
    let table = db.tables()[position].name().to_owned();
    Delta::new().conjoin(table, 0, Conjunction::single(Atom::neq(v, -1)))
}

/// A delta that merges the coupling groups `a` and `b` of `db`: one fresh variable is
/// threaded through row 0 of the first table of each group (as an inert `v ≠ -1` /
/// `v ≠ -2` condition pair), so the two groups share a variable afterwards.  The
/// represented worlds are unchanged — the conjoined atoms hold under every valuation —
/// but the graph must collapse the groups into one and both memoized verdicts must
/// invalidate.
pub fn coupling_delta(db: &CDatabase, a: usize, b: usize) -> Delta {
    let mut vars = VarGen::new();
    let v = vars.fresh();
    let groups = db.shard_groups();
    let table_a = db.tables()[groups[a].members()[0]].name().to_owned();
    let table_b = db.tables()[groups[b].members()[0]].name().to_owned();
    Delta::new()
        .conjoin(table_a, 0, Conjunction::single(Atom::neq(v, -1)))
        .conjoin(table_b, 0, Conjunction::single(Atom::neq(v, -2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> TableParams {
        TableParams {
            rows: 4,
            arity: 2,
            constants: 4,
            null_density: 0.4,
            seed,
        }
    }

    #[test]
    fn streams_are_deterministic_and_applicable_in_sequence() {
        let a = mutation_stream(5, &params(3), 12);
        let b = mutation_stream(5, &params(3), 12);
        assert_eq!(a.deltas.len(), 12);
        let mut db_a = a.base.clone();
        let mut db_b = b.base.clone();
        for (da, dbp) in a.deltas.iter().zip(&b.deltas) {
            let (next_a, change_a) = db_a.apply(da).expect("stream deltas apply in sequence");
            let (next_b, change_b) = db_b.apply(dbp).expect("stream deltas apply in sequence");
            assert_eq!(change_a, change_b, "same seed, same stream");
            assert!(
                change_a.dirty_groups.len() <= 1,
                "stream deltas touch one shard"
            );
            (db_a, db_b) = (next_a, next_b);
        }
        // Variable identities come from the process-global `VarGen` counter, so the two
        // streams are alpha-equivalent rather than identical.
        for (ta, tb) in db_a.tables().iter().zip(db_b.tables()) {
            assert!(ta.alpha_equivalent(tb), "same seed, same stream shape");
        }
    }

    #[test]
    fn single_shard_delta_dirties_exactly_one_group() {
        let db = decoupled_multirelation(4, &params(9));
        let delta = single_shard_delta(&db, 2);
        let (next, change) = db.apply(&delta).unwrap();
        assert_eq!(change.changed_tables, vec![2]);
        assert_eq!(change.dirty_groups.len(), 1);
        assert_eq!(next.shard_groups().len(), 4);
    }

    #[test]
    fn coupling_delta_merges_the_two_groups() {
        let db = decoupled_multirelation(4, &params(5));
        assert_eq!(db.shard_groups().len(), 4);
        let delta = coupling_delta(&db, 1, 3);
        let (next, change) = db.apply(&delta).unwrap();
        assert_eq!(next.shard_groups().len(), 3, "two groups became one");
        assert_eq!(change.dirty_groups.len(), 1, "the merged group is dirty");
        assert_eq!((change.groups_before, change.groups_after), (4, 3));
    }
}
