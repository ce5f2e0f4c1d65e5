//! Theorem 3.1(2,3,4): graph 3-colourability reduces to the membership problem on
//! e-tables, i-tables and positive existential views of Codd-tables.

use crate::MembershipInstance;
use pw_condition::{Atom, Conjunction, Term, VarGen, Variable};
use pw_core::{CDatabase, CTable, View};
use pw_query::{qatom, ConjunctiveQuery, QTerm, Query, QueryDef, Ucq};
use pw_relational::{Instance, Relation, Tuple};
use pw_solvers::Graph;
use std::collections::BTreeMap;

/// The three colours.
const COLORS: [i64; 3] = [1, 2, 3];

/// All ordered pairs of distinct colours `(i, j)` among `colors`.
fn distinct_color_pairs(colors: &[i64]) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    for &i in colors {
        for &j in colors {
            if i != j {
                out.push((i, j));
            }
        }
    }
    out
}

/// The colours `1..=k`.
fn palette(k: usize) -> Vec<i64> {
    (1..=k as i64).collect()
}

/// Vertex `a` is encoded as the constant `10 + a` so that vertex names never collide with
/// the colour constants 1, 2, 3 (the paper keeps them in the same namespace because its
/// examples stay small; separating them changes nothing in the argument).
fn vertex_constant(v: usize) -> i64 {
    10 + v as i64
}

/// Theorem 3.1(2): 3-colourability → `MEMB(-)` on a single e-table of arity 2.
///
/// The e-table holds every ordered pair of distinct colours plus one row `(x_a, x_b)` per
/// (arbitrarily oriented) edge; the candidate instance holds exactly the colour pairs.
/// The instance is a possible world iff the edge rows can be instantiated *inside* the
/// colour pairs — i.e. iff adjacent vertices can be given distinct colours.
pub fn three_col_etable(graph: &Graph) -> MembershipInstance {
    k_col_etable(graph, COLORS.len())
}

/// [`three_col_etable`] with `k` colours: `k`-colourability → `MEMB(-)` on an e-table.
///
/// On the complete graph `K_{k+1}` this is the pigeonhole principle — `k + 1` pairwise
/// distinct vertices in `k` colours — whose refutation stays exponential under every
/// row order, so it is the input of choice wherever a test needs a search that is hard
/// for the engine's fail-first order, not just for one fixed order.
pub fn k_col_etable(graph: &Graph, k: usize) -> MembershipInstance {
    let colors = palette(k);
    let mut vars = VarGen::new();
    let node_var: Vec<Variable> = (0..graph.vertex_count())
        .map(|v| vars.named(format!("x{v}")))
        .collect();

    let mut rows: Vec<Vec<Term>> = distinct_color_pairs(&colors)
        .into_iter()
        .map(|(i, j)| vec![Term::constant(i), Term::constant(j)])
        .collect();
    for (a, b) in graph.edges() {
        rows.push(vec![Term::Var(node_var[a]), Term::Var(node_var[b])]);
    }
    let table = CTable::e_table("T", 2, rows).expect("e-table construction");

    let instance = Instance::single(
        "T",
        Relation::from_tuples(
            2,
            distinct_color_pairs(&colors)
                .into_iter()
                .map(|(i, j)| Tuple::new([i.into(), j.into()])),
        ),
    );

    MembershipInstance {
        view: View::identity(CDatabase::single(table)),
        instance,
    }
}

/// Theorem 3.1(3): 3-colourability → `MEMB(-)` on a single i-table of arity 1.
///
/// The i-table holds the three colours and one variable per vertex, with the global
/// condition `x_a ≠ x_b` for every edge; the candidate instance is `{1, 2, 3}`.
pub fn three_col_itable(graph: &Graph) -> MembershipInstance {
    k_col_itable(graph, COLORS.len())
}

/// [`three_col_itable`] with `k` colours: `k`-colourability → `MEMB(-)` on an i-table.
/// On `K_{k+1}` it is the pigeonhole principle, as for [`k_col_etable`].
pub fn k_col_itable(graph: &Graph, k: usize) -> MembershipInstance {
    let colors = palette(k);
    let mut vars = VarGen::new();
    let node_var: Vec<Variable> = (0..graph.vertex_count())
        .map(|v| vars.named(format!("x{v}")))
        .collect();

    let mut rows: Vec<Vec<Term>> = colors.iter().map(|&c| vec![Term::constant(c)]).collect();
    rows.extend(node_var.iter().map(|&v| vec![Term::Var(v)]));
    let global = Conjunction::new(
        graph
            .edges()
            .map(|(a, b)| Atom::neq(node_var[a], node_var[b])),
    );
    let table = CTable::i_table("T", 1, global, rows).expect("i-table construction");

    let instance = Instance::single(
        "T",
        Relation::from_tuples(1, colors.iter().map(|&c| Tuple::new([c.into()]))),
    );

    MembershipInstance {
        view: View::identity(CDatabase::single(table)),
        instance,
    }
}

/// Theorem 3.1(4): 3-colourability → `MEMB(q)` for a fixed positive existential query `q`
/// on a pair of Codd-tables (the construction of Fig. 4(d)).
///
/// `T(R)` has one row `(b_j, x_j, c_j, y_j, j)` per edge `j = (b_j, c_j)` — the second and
/// fourth columns are the (unknown) colours of the edge's endpoints; `T(S)` lists the
/// ordered pairs of distinct colours.  The query outputs
///
/// * `R0(x, z, z')` — vertex `x` occurs in edges `z` and `z'` *with the same colour* in
///   both (query `q₁`), and
/// * `S0(z)` — edge `z` has properly coloured endpoints (query `q₂`),
///
/// and the candidate instance says this holds for every co-incident edge pair and every
/// edge — which is achievable iff the graph is 3-colourable.
pub fn three_col_view(graph: &Graph) -> MembershipInstance {
    let mut vars = VarGen::new();
    let edges: Vec<(usize, usize)> = graph.edges().collect();
    let m = edges.len();
    let x: Vec<Variable> = (0..m).map(|j| vars.named(format!("x{j}"))).collect();
    let y: Vec<Variable> = (0..m).map(|j| vars.named(format!("y{j}"))).collect();

    // T(R): one row per edge.
    let r_rows: Vec<Vec<Term>> = edges
        .iter()
        .enumerate()
        .map(|(j, &(b, c))| {
            vec![
                Term::constant(vertex_constant(b)),
                Term::Var(x[j]),
                Term::constant(vertex_constant(c)),
                Term::Var(y[j]),
                Term::constant(j as i64 + 1),
            ]
        })
        .collect();
    let t_r = CTable::codd("R", 5, r_rows).expect("R rows use distinct variables");

    // T(S): the distinct colour pairs.
    let s_rows: Vec<Vec<Term>> = distinct_color_pairs(&COLORS)
        .into_iter()
        .map(|(i, j)| vec![Term::constant(i), Term::constant(j)])
        .collect();
    let t_s = CTable::codd("S", 2, s_rows).expect("S is ground");

    // q1(x, z, z') — the vertex x is mentioned by edges z and z' with a single colour y.
    // Four disjuncts choose whether x is the first or the third column in each edge row.
    let q1 = {
        let head = [QTerm::var("x"), QTerm::var("z"), QTerm::var("zp")];
        let first = |z: &str, v: &str, w: &str| qatom!("R"; "x", "y", v, w, z);
        let second = |z: &str, v: &str, w: &str| qatom!("R"; v, w, "x", "y", z);
        let d = |a: pw_query::QueryAtom, b: pw_query::QueryAtom| {
            ConjunctiveQuery::new(head.clone(), [a, b])
        };
        Ucq::new([
            d(first("z", "v1", "w1"), first("zp", "v2", "w2")),
            d(first("z", "v1", "w1"), second("zp", "v2", "w2")),
            d(second("z", "v1", "w1"), first("zp", "v2", "w2")),
            d(second("z", "v1", "w1"), second("zp", "v2", "w2")),
        ])
        .expect("q1 is well formed")
    };
    // q2(z) — the edge z's two colours form a legal (distinct) pair.
    let q2 = Ucq::single(ConjunctiveQuery::new(
        [QTerm::var("z")],
        [qatom!("R"; "x", "y", "v", "w", "z"), qatom!("S"; "y", "w")],
    ));
    let query = Query::new([
        ("R0".to_owned(), QueryDef::Ucq(q1)),
        ("S0".to_owned(), QueryDef::Ucq(q2)),
    ])
    .expect("query construction");

    // The candidate instance: R0 = all (vertex, edge, edge) incidences, S0 = all edges.
    let mut r0 = Relation::empty(3);
    for (j, &(bj, cj)) in edges.iter().enumerate() {
        for (k, &(bk, ck)) in edges.iter().enumerate() {
            for v in [bj, cj] {
                if v == bk || v == ck {
                    r0.insert(Tuple::new([
                        vertex_constant(v).into(),
                        (j as i64 + 1).into(),
                        (k as i64 + 1).into(),
                    ]))
                    .expect("arity 3");
                }
            }
        }
    }
    let s0 = Relation::from_tuples(1, (1..=m as i64).map(|j| Tuple::new([j.into()])));
    let instance = Instance::from_relations([("R0".to_owned(), r0), ("S0".to_owned(), s0)]);

    MembershipInstance {
        view: View::new(query, CDatabase::new([t_r, t_s])),
        instance,
    }
}

/// A labelled family of small graphs used by the reduction self-tests.
pub fn small_test_graphs() -> Vec<(Graph, &'static str)> {
    // K4 plus an isolated vertex — still not 3-colourable.
    let mut k4_plus_isolated = Graph::new(5);
    for i in 0..4 {
        for j in (i + 1)..4 {
            k4_plus_isolated.add_edge(i, j);
        }
    }
    vec![
        (Graph::new(1), "single vertex"),
        (Graph::complete(3), "triangle (3-colourable)"),
        (Graph::complete(4), "K4 (not 3-colourable)"),
        (Graph::cycle(5), "odd cycle (3-colourable)"),
        (Graph::paper_fig4a(), "the paper's Fig. 4(a) graph"),
        (k4_plus_isolated, "K4 plus isolated vertex"),
    ]
}

/// The colour→tuple map used by Fig. 4(c): retained for the figure-reproduction tests.
pub fn color_pairs_relation() -> Relation {
    Relation::from_tuples(
        2,
        distinct_color_pairs(&COLORS)
            .into_iter()
            .map(|(i, j)| Tuple::new([i.into(), j.into()])),
    )
}

/// Summary data useful to benchmarks: number of variables and rows of each construction.
pub fn construction_sizes(graph: &Graph) -> BTreeMap<&'static str, (usize, usize)> {
    let e = three_col_etable(graph);
    let i = three_col_itable(graph);
    let v = three_col_view(graph);
    let mut out = BTreeMap::new();
    out.insert(
        "etable",
        (e.view.db.variables().len(), e.view.db.row_count()),
    );
    out.insert(
        "itable",
        (i.view.db.variables().len(), i.view.db.row_count()),
    );
    out.insert("view", (v.view.db.variables().len(), v.view.db.row_count()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_decide::{membership, Budget};
    use pw_solvers::coloring::is_three_colorable;

    fn check_iff(graph: &Graph, label: &str) {
        let expected = is_three_colorable(graph);
        let budget = Budget(5_000_000);

        let e = three_col_etable(graph);
        assert_eq!(
            membership::decide(&e.view.db, &e.instance, budget).unwrap(),
            expected,
            "e-table reduction on {label}"
        );

        let i = three_col_itable(graph);
        assert_eq!(
            membership::decide(&i.view.db, &i.instance, budget).unwrap(),
            expected,
            "i-table reduction on {label}"
        );

        // The view reduction is the most expensive of the three (the NP search must
        // exhaust its space on "no" instances); keep the routine test to small edge
        // counts and exercise the negative case in the ignored test below.
        if graph.edge_count() <= 5 {
            let v = three_col_view(graph);
            assert_eq!(
                membership::view_membership(&v.view, &v.instance, budget).unwrap(),
                expected,
                "view reduction on {label}"
            );
        }
    }

    #[test]
    fn reductions_agree_with_the_coloring_solver() {
        for (graph, label) in small_test_graphs() {
            check_iff(&graph, label);
        }
    }

    /// The negative direction of the Theorem 3.1(4) reduction on the smallest
    /// non-3-colourable graph (K₄).  Exhausting the NP search space takes a while, which is
    /// exactly the lower bound at work — run with `cargo test -- --ignored` when needed.
    #[test]
    #[ignore = "exhaustive no-instance search; run explicitly"]
    fn view_reduction_rejects_k4() {
        let v = three_col_view(&Graph::complete(4));
        assert!(!membership::view_membership(&v.view, &v.instance, Budget(2_000_000_000)).unwrap());
    }

    #[test]
    fn fig4_shapes() {
        // Fig. 4(b): the i-table for the example graph has 3 colour rows + 5 vertex rows
        // and five inequality atoms.
        let g = Graph::paper_fig4a();
        let i = three_col_itable(&g);
        let table = i.view.db.table("T").unwrap();
        assert_eq!(table.len(), 8);
        assert_eq!(table.global_condition().len(), 5);
        // Fig. 4(c): the e-table has 6 colour pairs + 5 edge rows; the instance has 6 facts.
        let e = three_col_etable(&g);
        assert_eq!(e.view.db.table("T").unwrap().len(), 11);
        assert_eq!(e.instance.fact_count(), 6);
        // Fig. 4(d): T(R) has one row per edge, T(S) has six rows; S0 lists the edges.
        let v = three_col_view(&g);
        assert_eq!(v.view.db.table("R").unwrap().len(), 5);
        assert_eq!(v.view.db.table("S").unwrap().len(), 6);
        assert_eq!(v.instance.relation("S0").unwrap().len(), 5);
    }

    #[test]
    fn construction_sizes_grow_linearly() {
        let small = construction_sizes(&Graph::cycle(4));
        let large = construction_sizes(&Graph::cycle(8));
        for key in ["etable", "itable", "view"] {
            assert!(small[key].0 < large[key].0);
            assert!(small[key].1 < large[key].1);
        }
    }
}
