//! C-table databases: the paper's n-vectors of c-tables, stored catalog-addressed.

use crate::table::{CTable, CTuple, TableClass};
use pw_condition::{Atom, Conjunction, Term, Variable};
use pw_relational::{Constant, RelId, Sym, Symbols};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Lazily computed per-database state, shared by clones.  All members are pay-on-use:
/// a short-lived derived database (a view conversion, a normalisation) that is never used
/// as a cache key and never resolves a relation name costs one allocation and nothing
/// else.
#[derive(Debug, Default)]
struct ShardState {
    /// Structural hash of the tables — the one-machine-word stand-in that per-request
    /// cache lookups (e.g. the engine's base-store map) hash instead of re-walking every
    /// relation name, row and condition.  Combined from [`ShardState::table_hashes`], so
    /// [`CDatabase::apply`] can update it by re-hashing only the changed tables.
    fingerprint: std::sync::OnceLock<u64>,
    /// Per-table structural hashes, parallel to the table vector.  The delta path reuses
    /// the hashes of untouched tables; the fingerprint is the combination of this vector.
    table_hashes: std::sync::OnceLock<Arc<[u64]>>,
    /// The shard map: the catalog id of each table, parallel to the table vector.
    /// Registered in the owning [`Symbols`] catalog on first resolution; afterwards
    /// id→shard resolution is a machine-word scan — no name is hashed or compared below
    /// the boundary.
    rel_ids: std::sync::OnceLock<Arc<[RelId]>>,
    /// The coupling graph (§ [`CDatabase::shard_groups`]): shards grouped by shared
    /// condition variables, cached next to the fingerprint and shared by clones.
    coupling: std::sync::OnceLock<CouplingGraph>,
}

/// A maximal set of shards coupled through shared condition variables, together with the
/// projected sub-database the per-shard decision paths search.
///
/// Groups partition the tables of a [`CDatabase`]; two tables land in the same group iff
/// they are connected through variables shared between rows or conditions (Section 2.2's
/// shorthand for a global equality between tables).  Because the paper's semantics
/// quantifies one valuation over *all* variables at once, variable-disjoint groups
/// represent independent sets of worlds: `rep(db)` is the product of the groups'
/// representations, which is what lets a decision fan out per group and merge.
#[derive(Clone, Debug)]
pub struct ShardGroup {
    /// Positions of the member tables in the owning database's table order (ascending).
    members: Arc<[usize]>,
    /// The projected sub-database: exactly the member tables, in table order, sharing the
    /// owning database's [`Symbols`] handle (ids stay valid — nothing is re-interned).
    db: CDatabase,
    /// The variables mentioned by the member tables — cached so the delta path can test
    /// "does this changed shard touch the group?" without re-walking the group's rows.
    vars: Arc<BTreeSet<Variable>>,
}

impl ShardGroup {
    /// Positions of the member tables in the owning database's table order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The projected sub-database (same `Symbols` handle as the owner).
    pub fn database(&self) -> &CDatabase {
        &self.db
    }

    /// The variables mentioned by the member tables (rows and conditions).
    pub fn variables(&self) -> &BTreeSet<Variable> {
        &self.vars
    }
}

/// The cached coupling graph: the groups plus the inverse map from table position to
/// group index.
#[derive(Debug)]
struct CouplingGraph {
    groups: Box<[ShardGroup]>,
    /// `group_of[table position] == index into groups`.
    group_of: Box<[usize]>,
}

/// An incomplete-information database: a vector of named c-tables.
///
/// Section 2.2 generalises the single-table definitions to n-vectors of c-tables whose
/// variable sets are pairwise disjoint; relationships between tables are established
/// through the conditions.  We do not *enforce* disjointness — sharing a variable between
/// tables is a convenient (and semantically equivalent) shorthand for equating two
/// variables in a global condition — but [`CDatabase::tables_share_variables`] reports it
/// so callers that care (e.g. the classification used in benchmarks) can check.
///
/// # Symbols and the relation catalog
///
/// Every database owns a thread-safe handle to the [`Symbols`] context its interned ids
/// live in: the constant dictionary *and* the relation catalog.  Each table's name is
/// registered in the catalog exactly once (on first resolution) and the tables are
/// addressed by the resulting [`RelId`] — a shard map with one store per relation.
/// Below the front door everything is addressed by id ([`CDatabase::table_by_id`],
/// [`CDatabase::shards`]); [`CDatabase::table`] survives as the *boundary resolver* that
/// performs the one name→id lookup a request pays.
///
/// Databases built through the ordinary constructors share the global context (matching
/// the context-free `Term` conversions); a session that wants its own id space attaches a
/// private context with [`CDatabase::with_symbols`] (ids already private) or
/// [`CDatabase::reinterned`] (translate a global-id database into a private space).  The
/// decision layers resolve and intern **through this handle only** — no layer below the
/// front door may touch the global table implicitly.
#[derive(Clone, Debug)]
pub struct CDatabase {
    /// The shards, shared: cloning a database (one clone per request in a batch) is a
    /// refcount bump, and equality between clones is a pointer compare.
    tables: Arc<[CTable]>,
    symbols: Arc<Symbols>,
    state: Arc<ShardState>,
}

/// Below this shard count the boundary resolver scans table names directly instead of
/// consulting the catalog — for tiny databases a short scan is cheaper than a name hash
/// plus a lock acquisition (the crossover measured between 32 and 64 relations).
const SMALL_SHARD_SCAN: usize = 32;

impl Default for CDatabase {
    fn default() -> Self {
        CDatabase::new([])
    }
}

impl PartialEq for CDatabase {
    fn eq(&self, other: &Self) -> bool {
        // Ids from different contexts are incomparable, so two databases are equal only
        // when they agree on the context *and* the content.  Clones share the table
        // allocation and compare by pointer; otherwise the fingerprint screens out
        // almost all unequal pairs before the structural walk.
        Arc::ptr_eq(&self.symbols, &other.symbols)
            && (Arc::ptr_eq(&self.tables, &other.tables)
                || (self.fingerprint() == other.fingerprint() && self.tables == other.tables))
    }
}

impl Eq for CDatabase {}

impl Hash for CDatabase {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The symbol-context identity is deliberately left out: hashing must agree with
        // equality, and equal databases share the context by `PartialEq` above.  The
        // cached fingerprint stands in for the tables (equal tables ⇒ equal fingerprint).
        self.fingerprint().hash(state);
    }
}

impl CDatabase {
    /// Build a database from tables (interned against the global symbol context).
    pub fn new(tables: impl IntoIterator<Item = CTable>) -> Self {
        CDatabase::build(tables.into_iter().collect(), Symbols::global_handle())
    }

    /// A database with a single table.
    pub fn single(table: CTable) -> Self {
        CDatabase::new([table])
    }

    fn build(tables: Arc<[CTable]>, symbols: Arc<Symbols>) -> Self {
        CDatabase {
            tables,
            symbols,
            state: Arc::new(ShardState::default()),
        }
    }

    /// The structural hash of the tables, computed on first use and shared by clones.
    /// Combined from the per-table hashes, so [`CDatabase::apply`] updates it by
    /// re-hashing only the changed tables.  Public because the delta layer reports it
    /// ([`crate::delta::DbDelta`]) and the decision memo in `pw-decide` keys on it.
    pub fn fingerprint(&self) -> u64 {
        *self
            .state
            .fingerprint
            .get_or_init(|| combine_table_hashes(self.table_hashes()))
    }

    /// Per-table structural hashes, parallel to [`CDatabase::tables`].
    pub(crate) fn table_hashes(&self) -> &Arc<[u64]> {
        self.state
            .table_hashes
            .get_or_init(|| self.tables.iter().map(hash_table).collect())
    }

    /// Attach a (typically private) symbol context; the caller guarantees every constant
    /// id in the tables was issued by its dictionary.  Table names are (re-)registered in
    /// the context's catalog, so id-addressing works immediately.
    ///
    /// With the handle threaded through the whole decision boundary (valuations, `rep`,
    /// the c-table algebra, freezing and the engine), a database on a private context runs
    /// every decision problem end-to-end; use [`CDatabase::reinterned`] to translate an
    /// existing global-id database into a private space.
    pub fn with_symbols(self, symbols: Arc<Symbols>) -> Self {
        // The shard allocation is reused; only the catalog registration and index are
        // redone against the new context.
        CDatabase::build(self.tables, symbols)
    }

    /// Translate this database into another symbol context: every constant id is resolved
    /// through the current context and re-interned in `symbols`, and the relation names
    /// are registered in its catalog.  This is how a session builds its private-dictionary
    /// copy of a shared template database.
    pub fn reinterned(&self, symbols: &Arc<Symbols>) -> CDatabase {
        let remap_sym = |s: Sym| -> Sym {
            let c = self
                .symbols
                .resolve(s)
                .expect("ids were issued by this database's symbol context");
            symbols.intern(&c)
        };
        let remap_term = |t: Term| -> Term {
            match t {
                Term::Const(s) => Term::Const(remap_sym(s)),
                v => v,
            }
        };
        let remap_conj = |c: &Conjunction| -> Conjunction {
            Conjunction::new(c.atoms().iter().map(|a| match a {
                Atom::Eq(x, y) => Atom::Eq(remap_term(*x), remap_term(*y)),
                Atom::Neq(x, y) => Atom::Neq(remap_term(*x), remap_term(*y)),
            }))
        };
        let tables: Arc<[CTable]> = self
            .tables
            .iter()
            .map(|t| {
                CTable::new(
                    t.name(),
                    t.arity(),
                    remap_conj(t.global_condition()),
                    t.tuples().iter().map(|row| {
                        CTuple::with_condition(
                            row.terms.iter().map(|&term| remap_term(term)),
                            remap_conj(&row.condition),
                        )
                    }),
                )
                .expect("re-interning preserves arities")
            })
            .collect();
        CDatabase::build(tables, Arc::clone(symbols))
    }

    /// Rebuild with the same symbol context but different tables — used by the
    /// normalisation/conversion paths so derived databases stay in their source's id
    /// space.
    pub fn with_tables_like(&self, tables: impl IntoIterator<Item = CTable>) -> CDatabase {
        CDatabase::build(tables.into_iter().collect(), Arc::clone(&self.symbols))
    }

    /// Is `other` the same database *handle* — a clone of this value, sharing its table
    /// allocation and symbol context — rather than merely an equal value?  Two
    /// separately built databases with identical tables compare equal under `==` but
    /// are different handles; a delta consumer deciding which views "track this
    /// database" asks this, so a view of an equal-valued *other* database is left
    /// alone.
    pub fn same_handle(&self, other: &CDatabase) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables) && Arc::ptr_eq(&self.symbols, &other.symbols)
    }

    /// The symbol context this database's ids live in.
    pub fn symbols(&self) -> &Arc<Symbols> {
        &self.symbols
    }

    /// Intern an external constant at the front door.
    pub fn intern(&self, c: &Constant) -> Sym {
        self.symbols.intern(c)
    }

    /// Resolve an id issued by this database's context.
    pub fn resolve(&self, sym: Sym) -> Option<Constant> {
        self.symbols.resolve(sym)
    }

    /// The tables.
    pub fn tables(&self) -> &[CTable] {
        &self.tables
    }

    /// The catalog ids of the tables, parallel to [`CDatabase::tables`].  Names are
    /// registered in the catalog on first call (in table order — ids for a fresh private
    /// catalog are dense and deterministic); afterwards this is an atomic load.
    pub fn rel_ids(&self) -> &[RelId] {
        self.state.rel_ids.get_or_init(|| {
            self.tables
                .iter()
                .map(|t| self.symbols.register_relation(t.name()))
                .collect()
        })
    }

    /// Iterate over the shards: `(catalog id, table)` pairs in table order.
    pub fn shards(&self) -> impl Iterator<Item = (RelId, &CTable)> {
        self.rel_ids().iter().copied().zip(self.tables.iter())
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows across tables (the database "size" for data-complexity sweeps).
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(CTable::len).sum()
    }

    /// Resolve a relation *name* to its shard — the boundary resolver, the only place a
    /// request's relation string is examined; everything below addresses the shard by
    /// [`RelId`] ([`CDatabase::table_by_id`]).
    ///
    /// The resolver is adaptive: with a handful of shards a direct scan beats the catalog
    /// lookup (no hash, no lock); larger databases resolve through the catalog in one
    /// name hash.
    pub fn table(&self, name: &str) -> Option<&CTable> {
        self.table_position(name).map(|pos| &self.tables[pos])
    }

    /// Resolve a relation name to its catalog id, if this database stores it.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        let ids = self.rel_ids();
        let id = self.symbols.relation_id(name)?;
        ids.contains(&id).then_some(id)
    }

    /// The shard of a catalog id — the machine-word lookup the hot paths use (a dense
    /// scan of `Copy` ids; no string is touched).
    pub fn table_by_id(&self, id: RelId) -> Option<&CTable> {
        self.rel_ids()
            .iter()
            .position(|&r| r == id)
            .map(|pos| &self.tables[pos])
    }

    /// Resolve a relation name to its table *position* — the boundary resolver behind
    /// [`CDatabase::table`] and the group-aware decision paths (which index
    /// [`CDatabase::shard_group_index`] by position).  Adaptive: a direct scan below
    /// `SMALL_SHARD_SCAN` shards, one catalog hash above.  The catalog path resolves
    /// against this database's *registered* shard map ([`CDatabase::rel_ids`], which
    /// registers the names on first use) — a raw `relation_id` lookup would miss every
    /// name no caller has registered yet.
    pub fn table_position(&self, name: &str) -> Option<usize> {
        if self.tables.len() <= SMALL_SHARD_SCAN {
            return self.tables.iter().position(|t| t.name() == name);
        }
        let ids = self.rel_ids();
        let id = self.symbols.relation_id(name)?;
        ids.iter().position(|&r| r == id)
    }

    /// All variables across tables and conditions.
    pub fn variables(&self) -> BTreeSet<Variable> {
        self.tables.iter().flat_map(CTable::variables).collect()
    }

    /// All constants across tables and conditions — the Δ of Proposition 2.1.
    /// Resolution goes through this database's own symbol handle, so the set is
    /// correct for private-context databases too.
    pub fn constants(&self) -> BTreeSet<Constant> {
        self.tables
            .iter()
            .flat_map(CTable::syms)
            .map(|s| {
                self.symbols
                    .resolve(s)
                    .expect("row ids were issued by this database's symbol context")
            })
            .collect()
    }

    /// The loosest class among the member tables (a database of one c-table and one
    /// Codd-table must be treated as a c-table database).
    pub fn classify(&self) -> TableClass {
        self.tables
            .iter()
            .map(CTable::classify)
            .max()
            .unwrap_or(TableClass::Codd)
    }

    /// Whether two tables share a variable (see the type-level comment).  Cheap early-exit
    /// scan; the full partition into coupled groups is [`CDatabase::shard_groups`].
    pub fn tables_share_variables(&self) -> bool {
        let mut seen: BTreeSet<Variable> = BTreeSet::new();
        for t in self.tables.iter() {
            let vars = t.variables();
            if vars.iter().any(|v| seen.contains(v)) {
                return true;
            }
            seen.extend(vars);
        }
        false
    }

    /// Is this a Codd-table database with pairwise variable-disjoint tables?  The guard
    /// behind the PTIME matching dispatch of membership and possibility (Theorems 3.1(1)
    /// and 5.1(1) assume the single-table definition, which the n-vector generalisation
    /// only preserves when no variables are shared) — hoisted here so the coupling graph
    /// has one consumer seam instead of per-problem copies of the same conjunction.
    pub fn is_decoupled_codd(&self) -> bool {
        self.classify() == TableClass::Codd && !self.tables_share_variables()
    }

    /// The coupling graph: the partition of the shards into [`ShardGroup`]s — maximal
    /// sets of tables connected through shared condition variables — computed with a
    /// union–find over shard positions on first use and cached next to the fingerprint
    /// (clones share it).  Groups are ordered by their smallest member position, members
    /// ascend within a group, and every table belongs to exactly one group, so the layout
    /// is deterministic build-to-build.
    ///
    /// Variable-disjoint groups represent *independent* world choices (the paper's
    /// valuation quantifies over all variables at once, and a variable never crosses
    /// groups), which is what the per-shard decision paths in `pw-decide` rely on: a
    /// request fans out across the groups' projected sub-databases and merges with the
    /// problem's combinator, falling back to the joint search only when everything is in
    /// one group.
    pub fn shard_groups(&self) -> &[ShardGroup] {
        &self.coupling().groups
    }

    /// The inverse of [`CDatabase::shard_groups`]: for each table position, the index of
    /// the group it belongs to.
    pub fn shard_group_index(&self) -> &[usize] {
        &self.coupling().group_of
    }

    fn coupling(&self) -> &CouplingGraph {
        self.state
            .coupling
            .get_or_init(|| self.build_coupling(0..self.tables.len()))
    }

    /// Partition the table positions of `scope` into coupled groups and materialize the
    /// [`ShardGroup`]s.  The fresh path passes every position; the delta path
    /// ([`CDatabase::apply`]) passes only the members of the union-find components that
    /// touch a changed shard, carrying every other group over from the previous graph.
    fn build_coupling(&self, scope: impl IntoIterator<Item = usize>) -> CouplingGraph {
        let groups = self.build_groups(scope);
        let n = self.tables.len();
        let mut group_of = vec![usize::MAX; n];
        for (g, group) in groups.iter().enumerate() {
            for &m in group.members() {
                group_of[m] = g;
            }
        }
        debug_assert!(group_of.iter().all(|&g| g != usize::MAX));
        CouplingGraph {
            groups: groups.into(),
            group_of: group_of.into(),
        }
    }

    /// Union–find over the positions of `scope`, returning the [`ShardGroup`]s ordered by
    /// smallest member.  Only the scoped tables' variables are walked.
    fn build_groups(&self, scope: impl IntoIterator<Item = usize>) -> Vec<ShardGroup> {
        let mut scope: Vec<usize> = scope.into_iter().collect();
        scope.sort_unstable(); // ascending scan ⇒ groups ordered by smallest member
        let n = self.tables.len();
        // Union–find over table positions; a variable's first owner absorbs every later
        // table that mentions it.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]]; // path halving
                i = parent[i];
            }
            i
        }
        let vars_of: Vec<(usize, BTreeSet<Variable>)> = scope
            .iter()
            .map(|&i| (i, self.tables[i].variables()))
            .collect();
        let mut owner: std::collections::HashMap<Variable, usize> =
            std::collections::HashMap::new();
        for (i, vars) in &vars_of {
            for &v in vars {
                match owner.entry(v) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let (a, b) = (find(&mut parent, *e.get()), find(&mut parent, *i));
                        // Rooting at the smaller position keeps group order stable.
                        parent[a.max(b)] = a.min(b);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(*i);
                    }
                }
            }
        }
        let mut member_lists: Vec<Vec<usize>> = Vec::new();
        let mut var_lists: Vec<BTreeSet<Variable>> = Vec::new();
        let mut root_to_group: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        for (i, vars) in vars_of {
            let root = find(&mut parent, i);
            let g = *root_to_group.entry(root).or_insert_with(|| {
                member_lists.push(Vec::new());
                var_lists.push(BTreeSet::new());
                member_lists.len() - 1
            });
            member_lists[g].push(i);
            var_lists[g].extend(vars);
        }
        member_lists
            .into_iter()
            .zip(var_lists)
            .map(|(members, vars)| {
                // A group spanning every table reuses the shard allocation (but gets a
                // *fresh* lazy state, so the cached graph never holds a cycle back to
                // itself through the sub-database's own cache).
                let tables: Arc<[CTable]> = if members.len() == n {
                    Arc::clone(&self.tables)
                } else {
                    members.iter().map(|&i| self.tables[i].clone()).collect()
                };
                ShardGroup {
                    db: CDatabase::build(tables, Arc::clone(&self.symbols)),
                    members: members.into(),
                    vars: Arc::new(vars),
                }
            })
            .collect()
    }

    /// The schema: `(name, arity)` pairs in table order.
    pub fn schema(&self) -> Vec<(String, usize)> {
        self.tables
            .iter()
            .map(|t| (t.name().to_owned(), t.arity()))
            .collect()
    }

    /// Whether the conjunction of all global conditions is satisfiable.  When it is not,
    /// the represented set of worlds is empty (Section 2.2: "Δ is the empty set iff the
    /// global condition is unsatisfiable") — checkable in PTIME.
    pub fn has_satisfiable_globals(&self) -> bool {
        let mut combined = pw_condition::Conjunction::truth();
        for t in self.tables.iter() {
            combined = combined.and(t.global_condition());
        }
        combined.is_satisfiable()
    }
}

impl CDatabase {
    /// The delta-application core behind [`CDatabase::apply`]: install `new_tables`
    /// (same length and positions as the current tables; exactly the positions in
    /// `changed` differ) and pre-seed the derived state incrementally —
    ///
    /// * per-table hashes are reused for untouched positions and recomputed for changed
    ///   ones, and the fingerprint is re-combined from them;
    /// * the registered shard map is carried over verbatim (positions and names are
    ///   stable under a delta);
    /// * the coupling graph is rebuilt **only** for the union-find components that touch
    ///   a changed shard — either because the shard is a member, or because the changed
    ///   shard's new variables are owned by the component (a delta can merge previously
    ///   independent groups); every other [`ShardGroup`] is carried over by refcount,
    ///   so its projected sub-database keeps its cache identity (fingerprint, base
    ///   stores, decision memo) across the delta.
    ///
    /// Returns the new database, the indices (in the *new* graph) of the rebuilt groups,
    /// and the indices (in *this* graph) of the groups they replaced.
    pub(crate) fn apply_tables(
        &self,
        new_tables: Vec<CTable>,
        changed: &[usize],
    ) -> (CDatabase, Vec<usize>, Vec<usize>) {
        debug_assert_eq!(new_tables.len(), self.tables.len());
        if changed.is_empty() {
            return (self.clone(), Vec::new(), Vec::new());
        }
        let old_graph = self.coupling();
        let state = ShardState::default();

        // Fingerprint: re-hash the changed tables only.
        let mut hashes: Vec<u64> = self.table_hashes().to_vec();
        for &p in changed {
            hashes[p] = hash_table(&new_tables[p]);
        }
        let _ = state.fingerprint.set(combine_table_hashes(&hashes));
        let _ = state.table_hashes.set(hashes.into());

        // Shard map: names and positions are stable, so the registration carries over.
        if let Some(ids) = self.state.rel_ids.get() {
            let _ = state.rel_ids.set(Arc::clone(ids));
        }

        let next = CDatabase {
            tables: new_tables.into(),
            symbols: Arc::clone(&self.symbols),
            state: Arc::new(state),
        };

        // Coupling graph: a group is dirty when a changed shard is a member or when a
        // changed shard's *new* variables are owned by the group (insertion can couple).
        let changed_set: BTreeSet<usize> = changed.iter().copied().collect();
        let changed_vars: BTreeSet<Variable> = changed
            .iter()
            .flat_map(|&p| next.tables[p].variables())
            .collect();
        let dirty_old: Vec<bool> = old_graph
            .groups
            .iter()
            .map(|group| {
                group.members().iter().any(|m| changed_set.contains(m))
                    || changed_vars.iter().any(|v| group.vars.contains(v))
            })
            .collect();
        let dissolved: Vec<usize> = (0..dirty_old.len()).filter(|&g| dirty_old[g]).collect();
        let affected: Vec<usize> = dissolved
            .iter()
            .flat_map(|&g| old_graph.groups[g].members().iter().copied())
            .collect();
        let rebuilt = next.build_groups(affected);
        let rebuilt_keys: BTreeSet<usize> = rebuilt.iter().map(|g| g.members()[0]).collect();
        let mut groups: Vec<ShardGroup> = old_graph
            .groups
            .iter()
            .zip(&dirty_old)
            .filter(|(_, &d)| !d)
            .map(|(g, _)| g.clone())
            .chain(rebuilt)
            .collect();
        groups.sort_by_key(|g| g.members()[0]);
        let dirty_new: Vec<usize> = groups
            .iter()
            .enumerate()
            .filter(|(_, g)| rebuilt_keys.contains(&g.members()[0]))
            .map(|(i, _)| i)
            .collect();
        let mut group_of = vec![usize::MAX; next.tables.len()];
        for (g, group) in groups.iter().enumerate() {
            for &m in group.members() {
                group_of[m] = g;
            }
        }
        debug_assert!(group_of.iter().all(|&g| g != usize::MAX));
        let _ = next.state.coupling.set(CouplingGraph {
            groups: groups.into(),
            group_of: group_of.into(),
        });
        (next, dirty_new, dissolved)
    }
}

/// Structural hash of one table (rows, conditions, name, arity).
fn hash_table(t: &CTable) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Combine per-table hashes into the database fingerprint.  Must be a pure function of
/// the hash vector so the fresh and the incremental path agree.
fn combine_table_hashes(hashes: &[u64]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    hashes.hash(&mut h);
    h.finish()
}

impl FromIterator<CTable> for CDatabase {
    fn from_iter<T: IntoIterator<Item = CTable>>(iter: T) -> Self {
        CDatabase::new(iter)
    }
}

impl fmt::Display for CDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.tables.iter() {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::{Atom, Conjunction, Term, VarGen};

    #[test]
    fn accessors_and_classification() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let codd = CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap();
        let itab = CTable::i_table(
            "S",
            1,
            Conjunction::new([Atom::neq(y, 0)]),
            [vec![Term::Var(y)]],
        )
        .unwrap();
        let db = CDatabase::new([codd, itab]);
        assert_eq!(db.table_count(), 2);
        assert_eq!(db.row_count(), 2);
        assert_eq!(db.classify(), TableClass::ITable);
        assert!(db.table("R").is_some());
        assert!(db.table("Nope").is_none());
        assert_eq!(db.variables().len(), 2);
        assert_eq!(db.constants(), [Constant::int(0)].into());
        assert_eq!(db.schema(), vec![("R".to_owned(), 1), ("S".to_owned(), 1)]);
        assert!(!db.tables_share_variables());
        assert!(db.has_satisfiable_globals());
    }

    #[test]
    fn shard_map_addresses_tables_by_catalog_id() {
        let r = CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap();
        let s = CTable::codd("S", 2, [vec![Term::constant(1), Term::constant(2)]]).unwrap();
        let db = CDatabase::new([r, s]);
        assert_eq!(db.rel_ids().len(), 2);
        let r_id = db.rel_id("R").expect("registered at construction");
        let s_id = db.rel_id("S").expect("registered at construction");
        assert_ne!(r_id, s_id);
        assert_eq!(db.table_by_id(r_id).unwrap().name(), "R");
        assert_eq!(db.table_by_id(s_id).unwrap().name(), "S");
        assert_eq!(db.shards().count(), 2);
        // A name registered in the catalog by some other database does not resolve here.
        let other =
            CDatabase::single(CTable::codd("Elsewhere", 1, [vec![Term::constant(1)]]).unwrap());
        let foreign = other.rel_id("Elsewhere").unwrap();
        assert_eq!(db.rel_id("Elsewhere"), None);
        assert!(db.table_by_id(foreign).is_none());
        assert!(db.table("Elsewhere").is_none());
    }

    #[test]
    fn equality_and_hashing_use_the_cached_fingerprint() {
        use std::collections::hash_map::DefaultHasher;
        let t = CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap();
        let db = CDatabase::single(t.clone());
        let clone = db.clone();
        assert_eq!(db, clone);
        let hash = |d: &CDatabase| {
            let mut h = DefaultHasher::new();
            d.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&db), hash(&clone));
        // An independently built equal database also agrees (same tables, same context).
        let rebuilt = CDatabase::single(t);
        assert_eq!(db, rebuilt);
        assert_eq!(hash(&db), hash(&rebuilt));
    }

    #[test]
    fn reinterning_moves_a_database_into_a_private_context() {
        let t = CTable::codd("R", 2, [vec![Term::from("alice"), Term::from("sales")]]).unwrap();
        let db = CDatabase::single(t);
        let private = Arc::new(Symbols::new());
        let twin = db.reinterned(&private);
        assert!(Arc::ptr_eq(twin.symbols(), &private));
        assert_eq!(twin.constants(), db.constants(), "same constants, new ids");
        assert_eq!(twin.rel_ids()[0].index(), 0, "private catalog starts dense");
        // The twin's row ids resolve through the private context, not the global one.
        let sym = twin.tables()[0].tuples()[0].terms[0]
            .as_sym()
            .expect("constant term");
        assert_eq!(private.resolve(sym), Some(Constant::str("alice")));
    }

    #[test]
    fn shared_variables_and_unsatisfiable_globals_are_detected() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let a = CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap();
        let b = CTable::g_table(
            "S",
            1,
            Conjunction::new([Atom::eq(x, 1), Atom::neq(x, 1)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        let db = CDatabase::new([a, b]);
        assert!(db.tables_share_variables());
        assert!(!db.has_satisfiable_globals());
        assert_eq!(db.classify(), TableClass::GTable);
    }

    #[test]
    fn catalog_path_resolver_registers_names_on_first_use() {
        // Regression: above SMALL_SHARD_SCAN the resolver goes through the catalog, and
        // must register this database's names itself — a fresh database whose names no
        // caller has touched yet still resolves its own relations.
        let tables: Vec<CTable> = (0..(SMALL_SHARD_SCAN + 8))
            .map(|i| {
                CTable::codd(
                    format!("resolver-regression-{i:03}"),
                    1,
                    [vec![Term::constant(i as i64)]],
                )
                .unwrap()
            })
            .collect();
        let db = CDatabase::new(tables);
        assert_eq!(
            db.table("resolver-regression-005").map(CTable::name),
            Some("resolver-regression-005")
        );
        assert_eq!(db.table_position("resolver-regression-037"), Some(37));
        assert_eq!(db.table("resolver-regression-999"), None);
    }

    #[test]
    fn coupling_graph_partitions_shards_by_shared_variables() {
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        // R(x) and S(y | y ≠ x) are coupled through x; U(z) and the ground V stand alone.
        let r = CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap();
        let s = CTable::i_table(
            "S",
            1,
            Conjunction::new([Atom::neq(y, x)]),
            [vec![Term::Var(y)]],
        )
        .unwrap();
        let u = CTable::codd("U", 1, [vec![Term::Var(z)]]).unwrap();
        let v = CTable::codd("V", 1, [vec![Term::constant(9)]]).unwrap();
        let db = CDatabase::new([r, s, u, v]);
        let groups = db.shard_groups();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].members(), &[0, 1], "R and S couple through x");
        assert_eq!(groups[1].members(), &[2]);
        assert_eq!(groups[2].members(), &[3]);
        assert_eq!(db.shard_group_index(), &[0, 0, 1, 2]);
        // Projections carry the member tables and the owner's symbol handle.
        assert_eq!(groups[0].database().schema().len(), 2);
        assert_eq!(groups[1].database().tables()[0].name(), "U");
        assert!(Arc::ptr_eq(groups[0].database().symbols(), db.symbols()));
        // The graph is cached: clones see the identical slice.
        let clone = db.clone();
        assert!(std::ptr::eq(clone.shard_groups().as_ptr(), groups.as_ptr()));
        assert_eq!(db.table_position("U"), Some(2));
        assert_eq!(db.table_position("Nope"), None);
    }

    #[test]
    fn single_group_databases_reuse_the_shard_allocation() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let a = CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap();
        let b = CTable::e_table("S", 1, [vec![Term::Var(x)]]).unwrap();
        let db = CDatabase::new([a, b]);
        let groups = db.shard_groups();
        assert_eq!(groups.len(), 1, "a shared variable couples everything");
        assert!(Arc::ptr_eq(&groups[0].database().tables, &db.tables));
        assert!(!db.is_decoupled_codd(), "shared variables break the guard");
        // A decoupled Codd database passes the hoisted guard.
        let mut g2 = VarGen::new();
        let (p, q) = (g2.fresh(), g2.fresh());
        let decoupled = CDatabase::new([
            CTable::codd("R", 1, [vec![Term::Var(p)]]).unwrap(),
            CTable::codd("S", 1, [vec![Term::Var(q)]]).unwrap(),
        ]);
        assert!(decoupled.is_decoupled_codd());
        assert_eq!(decoupled.shard_groups().len(), 2);
    }

    #[test]
    fn empty_database_defaults() {
        let db = CDatabase::default();
        assert_eq!(db.table_count(), 0);
        assert_eq!(db.classify(), TableClass::Codd);
        assert!(db.has_satisfiable_globals());
    }
}
