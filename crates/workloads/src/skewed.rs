//! Skewed search trees: workloads whose work hides in one deep subtree — for a search
//! that fills rows in table order.
//!
//! The static frontier scheduler carves the search tree breadth-first into
//! `threads × frontier_per_thread` subtree roots and lets workers drain them from one
//! shared queue.  That balances load *only if* the frontier subtrees are comparable in
//! size; these families construct the opposite — a wide fan of branches that die after
//! a short walk, beside exactly **one** branch hiding a non-3-colorability refutation.
//!
//! Two families, both condition-coupled into a single shard group (so the per-group
//! decomposition cannot help and the intra-group scheduler is all that matters):
//!
//! * [`skewed_membership`] / [`skewed_possibility`] — a selector choice fans `selectors`
//!   ways; every selector value but the last fails within a few nodes, the last gates a
//!   non-3-colorable constraint graph whose refutation is the actual work.  Both
//!   answers are **false**, so no scheduler can get lucky with an early witness.
//! * [`coupled_heavy_membership`] — the same non-3-colorable refutation with no
//!   selector fan: a single-group tree of uniform depth.
//!
//! The refutation is exponential only in table order.  The engine's fail-first search
//! branches on the most constrained row first — the planted clique's — and refutes it in
//! a few dozen nodes.  A search that stays hard under every order is the pigeonhole
//! principle (`pw_reductions::membership_hardness::k_col_itable` on a complete graph).
//!
//! All constructions are deterministic in `seed`.

use pw_condition::{Atom, Conjunction, Term, VarGen, Variable};
use pw_core::{CDatabase, CTable, CTuple};
use pw_relational::{Constant, Instance, Relation, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Palette size of the heavy region: refutations are proper-coloring searches with
/// this many colors, and the planted clique has `PALETTE + 1` vertices.
const PALETTE: usize = 3;

/// Parameters of the skewed families.
#[derive(Clone, Copy, Debug)]
pub struct SkewedParams {
    /// Width of the shallow fan (the selector's branch count).  Keep this above the
    /// static scheduler's frontier target (`threads × frontier_per_thread`, 64 for the
    /// default 8-thread config) so the static split stops right at the fan and hands
    /// the single deep branch to one worker.
    pub selectors: usize,
    /// Vertices of the heavy constraint graph; the deep subtree's size grows
    /// exponentially with this.
    pub heavy: usize,
    /// Probability of an extra random edge between heavy vertices (beyond the planted
    /// `PALETTE + 1` clique).  Denser graphs prune harder and shrink the refutation.
    pub edge_density: f64,
    /// RNG seed for the extra edges.
    pub seed: u64,
}

impl Default for SkewedParams {
    fn default() -> Self {
        SkewedParams {
            selectors: 72,
            heavy: 14,
            edge_density: 0.08,
            seed: 0,
        }
    }
}

impl SkewedParams {
    /// Everything default except the heavy-region size and seed (the benchmark sweep
    /// axis).
    pub fn with_heavy(heavy: usize, seed: u64) -> Self {
        SkewedParams {
            heavy,
            seed,
            ..SkewedParams::default()
        }
    }
}

/// The heavy constraint graph: a clique on the **last** `PALETTE + 1` vertices — so no
/// proper `PALETTE`-coloring exists, and a search filling rows in table order only
/// learns that at its deepest levels (a fail-first search starts on the clique) — plus
/// sparse random edges that give the refutation realistic pruning.
fn heavy_edges(params: &SkewedParams) -> Vec<(usize, usize)> {
    let m = params.heavy;
    assert!(
        m > PALETTE + 1,
        "heavy region must contain the planted clique"
    );
    let mut edges = Vec::new();
    for i in m - (PALETTE + 1)..m {
        for j in i + 1..m {
            edges.push((i, j));
        }
    }
    let mut rng = StdRng::seed_from_u64(params.seed);
    for i in 0..m - (PALETTE + 1) {
        for j in i + 1..m {
            if rng.gen_bool(params.edge_density) {
                edges.push((i, j));
            }
        }
    }
    edges
}

fn int_fact(values: &[i64]) -> Tuple {
    Tuple::new(values.iter().map(|&v| Constant::Int(v)))
}

/// Skewed membership: one selector row fans `selectors` ways, and only the **last**
/// selector value arms the heavy region.
///
/// The table (arity 2, one coupling group):
/// * a selector row `(0, y)` — mapped onto one of the selector facts `(0, c)`;
/// * one constant filler row `(0, c)` per selector fact, so coverage of the selector
///   facts never depends on `y`'s choice;
/// * heavy rows `(1, hᵢ)` with local condition `y = selectors`: present (and forced to
///   pick a palette fact, i.e. a color) exactly in the last selector branch, absent in
///   a single consistent step everywhere else.
///
/// The instance asks for all selector facts plus all `PALETTE` palette facts `(1, b)`.
/// Branches with `y ≠ selectors` leave the palette facts uncoverable and die after a
/// linear walk; the `y = selectors` branch is a proper-coloring search of the heavy
/// graph, which the planted clique refutes.  The answer is always **false**.
pub fn skewed_membership(params: &SkewedParams) -> (CDatabase, Instance) {
    let s = params.selectors as i64;
    let mut vars = VarGen::new();
    let y = vars.fresh();
    let h: Vec<Variable> = (0..params.heavy).map(|_| vars.fresh()).collect();

    let mut global = Conjunction::truth();
    for (i, j) in heavy_edges(params) {
        global.push(Atom::neq(h[i], h[j]));
    }

    let mut rows: Vec<CTuple> = Vec::new();
    rows.push(CTuple::of_terms([Term::constant(0), Term::Var(y)]));
    for c in 1..=s {
        rows.push(CTuple::of_terms([Term::constant(0), Term::constant(c)]));
    }
    for &hi in &h {
        rows.push(CTuple::with_condition(
            [Term::constant(1), Term::Var(hi)],
            Conjunction::single(Atom::eq(y, s)),
        ));
    }
    let table = CTable::new("R", 2, global, rows).expect("uniform arity 2");

    let mut rel = Relation::empty(2);
    for c in 1..=s {
        rel.insert(int_fact(&[0, c])).expect("arity 2");
    }
    for b in 1..=PALETTE as i64 {
        rel.insert(int_fact(&[1, b])).expect("arity 2");
    }
    (CDatabase::single(table), Instance::single("R", rel))
}

/// Skewed possibility (covering): the first fact of the request picks one of
/// `selectors` producing rows, and only the **last** choice reaches the heavy region.
///
/// The table:
/// * selector rows `(0, u_c)` with local condition `g = c` — covering the first fact
///   `(0, 0)` through row `c` asserts `g = c` (and `u_c = 0`);
/// * a gate row `(1, 0)` with local condition `g = selectors` — the second fact `(1, 0)`
///   is coverable only in the last selector branch, so every other branch dies at
///   depth 2;
/// * heavy choice rows: fact `(j + 1, 0)` is produced by `PALETTE` rows `(j + 1, w_{j,a})`,
///   and the global condition holds `w_{j,a} ≠ w_{j',a'}` for every heavy edge `(j, j')`
///   with `a = a'`.  Covering a heavy fact through row `a` asserts `w_{j,a} = 0`, so two
///   conflicting choices collapse the store — covering all heavy facts is exactly a
///   proper coloring of the heavy graph, which the planted clique refutes.
///
/// The request asks for the selector fact, the gate fact and every heavy fact, so the
/// answer is always **false** and the refutation is exhaustive.
pub fn skewed_possibility(params: &SkewedParams) -> (CDatabase, Instance) {
    let s = params.selectors as i64;
    let mut vars = VarGen::new();
    let g = vars.fresh();
    let w: Vec<Vec<Variable>> = (0..params.heavy)
        .map(|_| (0..PALETTE).map(|_| vars.fresh()).collect())
        .collect();

    let mut global = Conjunction::truth();
    for (i, j) in heavy_edges(params) {
        for (&wia, &wja) in w[i].iter().zip(&w[j]) {
            global.push(Atom::neq(wia, wja));
        }
    }

    let mut rows: Vec<CTuple> = Vec::new();
    for c in 1..=s {
        let u = vars.fresh();
        rows.push(CTuple::with_condition(
            [Term::constant(0), Term::Var(u)],
            Conjunction::single(Atom::eq(g, c)),
        ));
    }
    rows.push(CTuple::with_condition(
        [Term::constant(1), Term::constant(0)],
        Conjunction::single(Atom::eq(g, s)),
    ));
    for (j, choices) in w.iter().enumerate() {
        for &wja in choices {
            rows.push(CTuple::of_terms([
                Term::constant(j as i64 + 2),
                Term::Var(wja),
            ]));
        }
    }
    let table = CTable::new("R", 2, global, rows).expect("uniform arity 2");

    let mut rel = Relation::empty(2);
    rel.insert(int_fact(&[0, 0])).expect("arity 2");
    rel.insert(int_fact(&[1, 0])).expect("arity 2");
    for j in 0..params.heavy as i64 {
        rel.insert(int_fact(&[j + 2, 0])).expect("arity 2");
    }
    (CDatabase::single(table), Instance::single("R", rel))
}

/// The heavy refutation with no skew: `heavy` rows, each free to pick any palette
/// color, under the planted-clique inequality graph.  A single coupling group whose
/// tree is uniformly deep — the control family showing the stealing scheduler at
/// parity with the static split when the static split is already balanced.  The answer
/// is always **false**.
pub fn coupled_heavy_membership(params: &SkewedParams) -> (CDatabase, Instance) {
    let mut vars = VarGen::new();
    let h: Vec<Variable> = (0..params.heavy).map(|_| vars.fresh()).collect();
    let mut global = Conjunction::truth();
    for (i, j) in heavy_edges(params) {
        global.push(Atom::neq(h[i], h[j]));
    }
    let table = CTable::i_table("R", 1, global, h.iter().map(|&hi| vec![Term::Var(hi)]))
        .expect("uniform arity 1");
    let mut rel = Relation::empty(1);
    for b in 1..=PALETTE as i64 {
        rel.insert(int_fact(&[b])).expect("arity 1");
    }
    (CDatabase::single(table), Instance::single("R", rel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_decide::{membership, possibility, Budget};

    fn small() -> SkewedParams {
        SkewedParams {
            selectors: 12,
            heavy: 8,
            edge_density: 0.1,
            seed: 3,
        }
    }

    #[test]
    fn skewed_membership_is_single_group_and_false() {
        let (db, instance) = skewed_membership(&small());
        assert_eq!(db.shard_groups().len(), 1);
        assert!(!membership::decide(&db, &instance, Budget::default()).unwrap());
    }

    #[test]
    fn skewed_possibility_is_single_group_and_false() {
        let (db, instance) = skewed_possibility(&small());
        assert_eq!(db.shard_groups().len(), 1);
        let view = pw_core::View::identity(db);
        assert!(!possibility::decide(&view, &instance, Budget::default()).unwrap());
    }

    #[test]
    fn coupled_heavy_membership_is_false() {
        let (db, instance) = coupled_heavy_membership(&small());
        assert_eq!(db.shard_groups().len(), 1);
        assert!(!membership::decide(&db, &instance, Budget::default()).unwrap());
    }

    #[test]
    fn families_are_deterministic() {
        let p = small();
        let (a, ia) = skewed_membership(&p);
        let (b, ib) = skewed_membership(&p);
        assert!(a.tables()[0].alpha_equivalent(&b.tables()[0]));
        assert_eq!(ia, ib);
    }
}
