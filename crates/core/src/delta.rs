//! Deltas: incremental mutation of a [`CDatabase`] with cache-preserving application.
//!
//! A long-lived service absorbs traffic that *mutates* its databases between decisions —
//! rows are inserted and retracted, and condition atoms are strengthened as knowledge
//! arrives.  Rebuilding a [`CDatabase`] from scratch after every mutation would discard
//! everything the decision layers have learned about it: the structural fingerprint, the
//! registered shard map, the coupling graph, and (in `pw-decide`) the per-database base
//! stores and the per-group decision memo, all of which key off the identity of the
//! database and its [`crate::ShardGroup`] sub-databases.
//!
//! [`CDatabase::apply`] threads a [`Delta`] through instead: it returns a new database
//! whose untouched shard groups are carried over **by refcount** from the previous
//! coupling graph — same sub-database allocation, same cached fingerprint — together
//! with a [`DbDelta`] describing exactly which groups changed.  Only the union-find
//! components touching a changed shard are recomputed; the fingerprint is re-combined
//! from per-table hashes with only the changed tables re-hashed.  `pw-decide` builds its
//! incremental re-decision on this: after a delta, the per-group verdicts of untouched
//! groups replay from the engine's memo and only the dirty groups are re-searched.

use crate::table::{CTable, CTuple, TableError};
use crate::CDatabase;
use pw_condition::Conjunction;
use std::fmt;

/// One primitive mutation of a database.  Tables are addressed by relation name (the
/// boundary vocabulary, resolved once at [`CDatabase::apply`] time) and rows by their
/// current position in the table's row order.
#[derive(Clone, Debug)]
pub enum DeltaOp {
    /// Append a row to a relation.  The row's arity must match the table's.
    Insert {
        /// Relation name.
        table: String,
        /// The row to append (terms plus local condition).
        row: CTuple,
    },
    /// Remove the row at `row` (current position) from a relation.  Later ops of the
    /// same delta see the shifted row order.
    Retract {
        /// Relation name.
        table: String,
        /// Current row position.
        row: usize,
    },
    /// Strengthen the local condition of the row at `row`: the new condition is the
    /// conjunction of the old one and `condition`.
    Conjoin {
        /// Relation name.
        table: String,
        /// Current row position.
        row: usize,
        /// Atoms conjoined onto the row's condition.
        condition: Conjunction,
    },
}

impl DeltaOp {
    fn table(&self) -> &str {
        match self {
            DeltaOp::Insert { table, .. }
            | DeltaOp::Retract { table, .. }
            | DeltaOp::Conjoin { table, .. } => table,
        }
    }
}

/// An ordered batch of mutations, applied atomically by [`CDatabase::apply`].
#[derive(Clone, Debug, Default)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

impl Delta {
    /// The empty delta (applying it returns a clone sharing the table allocation).
    pub fn new() -> Self {
        Delta::default()
    }

    /// The ops, in application order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Is this the empty delta?
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Append an op.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Builder: append a row insertion.
    pub fn insert(mut self, table: impl Into<String>, row: CTuple) -> Self {
        self.ops.push(DeltaOp::Insert {
            table: table.into(),
            row,
        });
        self
    }

    /// Builder: append a row retraction.
    pub fn retract(mut self, table: impl Into<String>, row: usize) -> Self {
        self.ops.push(DeltaOp::Retract {
            table: table.into(),
            row,
        });
        self
    }

    /// Builder: conjoin a condition onto a row.
    pub fn conjoin(mut self, table: impl Into<String>, row: usize, condition: Conjunction) -> Self {
        self.ops.push(DeltaOp::Conjoin {
            table: table.into(),
            row,
            condition,
        });
        self
    }
}

impl FromIterator<DeltaOp> for Delta {
    fn from_iter<T: IntoIterator<Item = DeltaOp>>(iter: T) -> Self {
        Delta {
            ops: iter.into_iter().collect(),
        }
    }
}

/// Why a [`Delta`] could not be applied.  Application is atomic: on error the database
/// is unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An op addressed a relation the database does not store.
    UnknownRelation(String),
    /// An op addressed a row position past the end of the (current) table.
    RowOutOfRange {
        /// Relation name.
        table: String,
        /// The offending row position.
        row: usize,
        /// Rows the table had at that point of the delta.
        len: usize,
    },
    /// An inserted row's arity does not match the table's.
    Table(TableError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::UnknownRelation(name) => write!(f, "unknown relation {name:?}"),
            DeltaError::RowOutOfRange { table, row, len } => {
                write!(f, "row {row} out of range for {table:?} ({len} rows)")
            }
            DeltaError::Table(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<TableError> for DeltaError {
    fn from(e: TableError) -> Self {
        DeltaError::Table(e)
    }
}

/// What a [`CDatabase::apply`] call changed: the changed tables, the groups of the
/// **new** database that were rebuilt, and the groups of the **old** database they
/// replaced.
///
/// `pw-decide` reads this to know which shard groups lost their memoized verdicts: a
/// group listed in [`DbDelta::dirty_groups`] was rebuilt (its fingerprint changed, so
/// the decision memo misses and the group is re-searched); every other group of the new
/// database is carried over from the old one by refcount and replays from the memo.
/// The old groups listed in [`DbDelta::dissolved_groups`] are exactly the ones that no
/// longer exist, so a cache can retire them without comparing the two group lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DbDelta {
    /// Positions (table order) of the tables whose content changed.  Empty for a no-op
    /// delta — including ops that happen to rebuild a table identically.
    pub changed_tables: Vec<usize>,
    /// Indices, in the new database's coupling graph, of the groups that were rebuilt.
    /// A merge of previously independent groups shows up as one dirty group here.
    pub dirty_groups: Vec<usize>,
    /// Indices, in the **old** database's coupling graph, of the groups the rebuilt ones
    /// replaced: every old group that held a changed table or owned a variable of a
    /// changed table's new contents.  None of them survives into the new graph (each
    /// lost or gained a table, or holds a table whose content changed), and every other
    /// old group survives unchanged.
    pub dissolved_groups: Vec<usize>,
    /// Group count before the delta.
    pub groups_before: usize,
    /// Group count after the delta.
    pub groups_after: usize,
}

impl DbDelta {
    /// Did the delta change nothing?
    pub fn is_noop(&self) -> bool {
        self.changed_tables.is_empty()
    }
}

impl CDatabase {
    /// Apply a [`Delta`], returning the mutated database and a [`DbDelta`] describing
    /// which shards and shard groups changed.
    ///
    /// The returned database **reuses** everything the delta did not touch: untouched
    /// tables are shared by refcount ([`CTable`] keeps its contents behind an `Arc`),
    /// untouched [`crate::ShardGroup`]s are carried over from this database's coupling
    /// graph by refcount (same projected sub-database, same cached fingerprint — so
    /// engine caches keyed by the sub-database keep hitting), the registered shard map
    /// is shared, and the structural fingerprint is re-combined from per-table hashes
    /// with only the changed tables re-hashed.  Application is atomic: any resolution
    /// error leaves this database untouched.  An empty (or effectless) delta returns a
    /// clone sharing the table allocation.
    ///
    /// # Cost
    ///
    /// Rows are copied and hashed only for the changed tables, and only the dissolved
    /// groups are re-partitioned.  What remains proportional to the table count is a
    /// handful of machine words per table or group: the refcount bumps of the untouched
    /// tables and groups, the per-table hash vector and the table → group index.
    pub fn apply(&self, delta: &Delta) -> Result<(CDatabase, DbDelta), DeltaError> {
        use std::collections::BTreeMap;
        // Resolve every op to a table position first, so application is atomic.
        let mut per_table: BTreeMap<usize, Vec<&DeltaOp>> = BTreeMap::new();
        for op in delta.ops() {
            let pos = self
                .table_position(op.table())
                .ok_or_else(|| DeltaError::UnknownRelation(op.table().to_owned()))?;
            per_table.entry(pos).or_default().push(op);
        }

        // Rebuild exactly the touched tables, validating as we go.
        let mut new_tables: Vec<CTable> = self.tables().to_vec();
        let mut changed: Vec<usize> = Vec::new();
        for (&pos, ops) in &per_table {
            let old = &self.tables()[pos];
            let mut rows: Vec<CTuple> = old.tuples().to_vec();
            for op in ops {
                match op {
                    DeltaOp::Insert { row, .. } => {
                        if row.arity() != old.arity() {
                            return Err(DeltaError::Table(TableError::ArityMismatch {
                                expected: old.arity(),
                                found: row.arity(),
                            }));
                        }
                        rows.push(row.clone());
                    }
                    DeltaOp::Retract { row, table } => {
                        if *row >= rows.len() {
                            return Err(DeltaError::RowOutOfRange {
                                table: table.clone(),
                                row: *row,
                                len: rows.len(),
                            });
                        }
                        rows.remove(*row);
                    }
                    DeltaOp::Conjoin {
                        row,
                        condition,
                        table,
                    } => {
                        if *row >= rows.len() {
                            return Err(DeltaError::RowOutOfRange {
                                table: table.clone(),
                                row: *row,
                                len: rows.len(),
                            });
                        }
                        rows[*row].condition = rows[*row].condition.and(condition);
                    }
                }
            }
            let rebuilt = CTable::new(
                old.name(),
                old.arity(),
                old.global_condition().clone(),
                rows,
            )
            .map_err(DeltaError::Table)?;
            if rebuilt != *old {
                new_tables[pos] = rebuilt;
                changed.push(pos);
            }
        }

        let groups_before = self.shard_groups().len();
        let (next, dirty_groups, dissolved_groups) = self.apply_tables(new_tables, &changed);
        let groups_after = next.shard_groups().len();
        Ok((
            next,
            DbDelta {
                changed_tables: changed,
                dirty_groups,
                dissolved_groups,
                groups_before,
                groups_after,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::{Atom, Term, VarGen};
    use std::sync::Arc;

    /// Three decoupled shards: R(x), S(y), V(ground).
    fn demo() -> CDatabase {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        CDatabase::new([
            CTable::codd("R", 1, [vec![Term::Var(x)], vec![Term::constant(1)]]).unwrap(),
            CTable::codd("S", 1, [vec![Term::Var(y)]]).unwrap(),
            CTable::codd("V", 1, [vec![Term::constant(9)]]).unwrap(),
        ])
    }

    #[test]
    fn empty_delta_shares_the_table_allocation() {
        let db = demo();
        let _ = db.shard_groups();
        let (next, change) = db.apply(&Delta::new()).unwrap();
        assert!(change.is_noop());
        assert!(std::ptr::eq(db.tables().as_ptr(), next.tables().as_ptr()));
        assert_eq!(db.fingerprint(), next.fingerprint());
    }

    #[test]
    fn effectless_ops_are_detected_as_noops() {
        let db = demo();
        // Conjoining `truth` rebuilds the row vector identically.
        let delta = Delta::new().conjoin("R", 0, Conjunction::truth());
        let (next, change) = db.apply(&delta).unwrap();
        assert!(change.is_noop());
        assert_eq!(db, next);
    }

    #[test]
    fn insert_retract_conjoin_round_trip() {
        let db = demo();
        let delta = Delta::new()
            .insert("R", CTuple::of_terms([Term::constant(7)]))
            .retract("S", 0)
            .conjoin("V", 0, Conjunction::single(Atom::neq(Term::constant(9), 8)));
        let (next, change) = db.apply(&delta).unwrap();
        assert_eq!(change.changed_tables, vec![0, 1, 2]);
        assert_eq!(next.table("R").unwrap().len(), 3);
        assert_eq!(next.table("S").unwrap().len(), 0, "last row retracted");
        assert!(!next.table("V").unwrap().tuples()[0].has_trivial_condition());
        assert_ne!(db.fingerprint(), next.fingerprint());
        // The incremental fingerprint agrees with a fresh build of the same tables.
        let fresh = CDatabase::new(next.tables().iter().cloned());
        assert_eq!(next.fingerprint(), fresh.fingerprint());
        assert_eq!(next, fresh);
    }

    #[test]
    fn application_is_atomic_on_errors() {
        let db = demo();
        let bad = Delta::new()
            .insert("R", CTuple::of_terms([Term::constant(7)]))
            .retract("Nope", 0);
        assert_eq!(
            db.apply(&bad),
            Err(DeltaError::UnknownRelation("Nope".to_owned()))
        );
        let out_of_range = Delta::new().retract("S", 5);
        assert!(matches!(
            db.apply(&out_of_range),
            Err(DeltaError::RowOutOfRange { row: 5, len: 1, .. })
        ));
        let wrong_arity = Delta::new().insert("R", CTuple::of_terms([]));
        assert!(matches!(db.apply(&wrong_arity), Err(DeltaError::Table(_))));
    }

    #[test]
    fn untouched_groups_are_carried_over_by_refcount() {
        let db = demo();
        let before = db.shard_groups().to_vec();
        let delta = Delta::new().insert("R", CTuple::of_terms([Term::constant(7)]));
        let (next, change) = db.apply(&delta).unwrap();
        assert_eq!(change.changed_tables, vec![0]);
        assert_eq!(change.dirty_groups, vec![0]);
        assert_eq!(change.dissolved_groups, vec![0]);
        assert_eq!((change.groups_before, change.groups_after), (3, 3));
        // The untouched tables share their rows with the old version.
        for t in 1..3 {
            assert!(std::ptr::eq(
                db.tables()[t].tuples().as_ptr(),
                next.tables()[t].tuples().as_ptr()
            ));
        }
        let after = next.shard_groups();
        // Groups 1 and 2 (S, V) are the same allocation as before the delta.
        for g in 1..3 {
            assert!(std::ptr::eq(
                before[g].database().tables().as_ptr(),
                after[g].database().tables().as_ptr()
            ));
        }
        // Group 0 (R) was rebuilt against the new tables.
        assert_eq!(after[0].database().tables()[0].len(), 3);
        // The incremental graph matches a fresh build exactly.
        let fresh = CDatabase::new(next.tables().iter().cloned());
        assert_eq!(fresh.shard_groups().len(), after.len());
        for (f, i) in fresh.shard_groups().iter().zip(after) {
            assert_eq!(f.members(), i.members());
            assert_eq!(f.variables(), i.variables());
        }
        assert_eq!(fresh.shard_group_index(), next.shard_group_index());
    }

    #[test]
    fn a_delta_can_merge_groups_and_a_retraction_can_split_them() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let db = CDatabase::new([
            CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap(),
            CTable::codd("S", 1, [vec![Term::Var(y)]]).unwrap(),
        ]);
        assert_eq!(db.shard_groups().len(), 2);
        // Inserting a row into S that mentions x couples the two shards.
        let merge = Delta::new().insert("S", CTuple::of_terms([Term::Var(x)]));
        let (merged, change) = db.apply(&merge).unwrap();
        assert_eq!(merged.shard_groups().len(), 1);
        assert_eq!(change.dirty_groups, vec![0]);
        assert_eq!(
            change.dissolved_groups,
            vec![0, 1],
            "both old groups merged"
        );
        assert_eq!((change.groups_before, change.groups_after), (2, 1));
        // Retracting that row splits them again; the incremental graph agrees with a
        // fresh build.
        let split = Delta::new().retract("S", 1);
        let (split_db, change) = merged.apply(&split).unwrap();
        assert_eq!(split_db.shard_groups().len(), 2);
        assert_eq!(change.dirty_groups, vec![0, 1]);
        assert_eq!(change.dissolved_groups, vec![0], "the merged group split");
        let fresh = CDatabase::new(split_db.tables().iter().cloned());
        assert_eq!(fresh.shard_group_index(), split_db.shard_group_index());
    }

    #[test]
    fn retracting_the_last_row_keeps_the_shard() {
        let db = demo();
        let delta = Delta::new().retract("S", 0);
        let (next, change) = db.apply(&delta).unwrap();
        assert_eq!(next.table_count(), 3, "an emptied table is still a shard");
        assert!(next.table("S").unwrap().is_empty());
        assert_eq!(change.dirty_groups, vec![1]);
        assert_eq!(change.dissolved_groups, vec![1]);
        assert_eq!(next.shard_groups().len(), 3);
        let fresh = CDatabase::new(next.tables().iter().cloned());
        assert_eq!(fresh.shard_group_index(), next.shard_group_index());
    }

    #[test]
    fn deltas_preserve_the_symbol_context() {
        let db = demo().reinterned(&Arc::new(pw_relational::Symbols::new()));
        let delta = Delta::new().insert("R", CTuple::of_terms([Term::constant(5)]));
        let (next, _) = db.apply(&delta).unwrap();
        assert!(Arc::ptr_eq(next.symbols(), db.symbols()));
    }
}
