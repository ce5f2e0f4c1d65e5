use crate::engine::tests::engines;
use pw_condition::{Atom, Conjunction, Term, VarGen};
use pw_core::{CDatabase, CTable, CTuple};
use pw_relational::{rel, tup, Instance};

#[test]
fn covering_simple_codd_table() {
    let mut g = VarGen::new();
    let (x, y) = (g.fresh(), g.fresh());
    let t = CTable::codd(
        "R",
        2,
        [
            vec![Term::constant(1), Term::Var(x)],
            vec![Term::Var(y), Term::constant(2)],
        ],
    )
    .unwrap();
    let db = CDatabase::single(t);
    for engine in engines() {
        // {(1, 5)} is coverable by the first row.
        assert!(engine
            .exists_world_covering(&db, &Instance::single("R", rel![[1, 5]]))
            .unwrap());
        // {(1, 5), (7, 2)} needs both rows — fine.
        assert!(engine
            .exists_world_covering(&db, &Instance::single("R", rel![[1, 5], [7, 2]]))
            .unwrap());
        // Three facts cannot come from two rows.
        assert!(!engine
            .exists_world_covering(&db, &Instance::single("R", rel![[1, 5], [7, 2], [1, 6]]))
            .unwrap());
        // A fact incompatible with both rows.
        assert!(!engine
            .exists_world_covering(&db, &Instance::single("R", rel![[3, 4]]))
            .unwrap());
    }
}

#[test]
fn covering_respects_conditions() {
    let mut g = VarGen::new();
    let x = g.fresh();
    let t = CTable::new(
        "R",
        1,
        Conjunction::new([Atom::neq(x, 1)]),
        [CTuple::of_terms([Term::Var(x)])],
    )
    .unwrap();
    let db = CDatabase::single(t);
    for engine in engines() {
        assert!(engine
            .exists_world_covering(&db, &Instance::single("R", rel![[2]]))
            .unwrap());
        assert!(!engine
            .exists_world_covering(&db, &Instance::single("R", rel![[1]]))
            .unwrap());
        // Unknown relation.
        assert!(!engine
            .exists_world_covering(&db, &Instance::single("S", rel![[2]]))
            .unwrap());
    }
}

#[test]
fn missing_fact_search() {
    let mut g = VarGen::new();
    let x = g.fresh();
    // R = {(1), (x)}: the fact (1) is in every world; (2) is missing from some.
    let t = CTable::codd("R", 1, [vec![Term::constant(1)], vec![Term::Var(x)]]).unwrap();
    let db = CDatabase::single(t);
    for engine in engines() {
        assert!(!engine
            .exists_world_missing_fact(&db, "R", &tup![1])
            .unwrap());
        assert!(engine
            .exists_world_missing_fact(&db, "R", &tup![2])
            .unwrap());
        // A fact of a relation the database does not have is missing from every world.
        assert!(engine
            .exists_world_missing_fact(&db, "S", &tup![1])
            .unwrap());
    }
}

#[test]
fn missing_fact_with_conditions() {
    let mut g = VarGen::new();
    let x = g.fresh();
    // Row (7) is present iff x = 0; so (7) is missing exactly when x ≠ 0.
    let row7 = || CTuple::with_condition([Term::constant(7)], Conjunction::new([Atom::eq(x, 0)]));
    let db = CDatabase::single(CTable::new("R", 1, Conjunction::truth(), [row7()]).unwrap());
    // With the global condition x = 0 the row is always present.
    let db2 = CDatabase::single(
        CTable::new("R", 1, Conjunction::new([Atom::eq(x, 0)]), [row7()]).unwrap(),
    );
    for engine in engines() {
        assert!(engine
            .exists_world_missing_fact(&db, "R", &tup![7])
            .unwrap());
        assert!(!engine
            .exists_world_missing_fact(&db2, "R", &tup![7])
            .unwrap());
    }
}

#[test]
fn fact_outside_search() {
    let mut g = VarGen::new();
    let x = g.fresh();
    let t = CTable::codd("R", 1, [vec![Term::constant(1)], vec![Term::Var(x)]]).unwrap();
    let db = CDatabase::single(t);
    let ground = CDatabase::single(CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap());
    let pinned = CDatabase::single(
        CTable::g_table(
            "R",
            1,
            Conjunction::new([Atom::eq(x, 1)]),
            [vec![Term::constant(1)], vec![Term::Var(x)]],
        )
        .unwrap(),
    );
    let i = Instance::single("R", rel![[1]]);
    for engine in engines() {
        // Against I = {(1)}: x can take a value ≠ 1, producing a fact outside I.
        assert!(engine.exists_world_with_fact_outside(&db, &i).unwrap());
        // A ground table never escapes its own instance.
        assert!(!engine.exists_world_with_fact_outside(&ground, &i).unwrap());
        // With a global condition x = 1, the variable row cannot escape either.
        assert!(!engine.exists_world_with_fact_outside(&pinned, &i).unwrap());
    }
}

#[test]
fn unsatisfiable_globals_short_circuit() {
    let mut g = VarGen::new();
    let x = g.fresh();
    let t = CTable::g_table(
        "R",
        1,
        Conjunction::new([Atom::eq(x, 1), Atom::neq(x, 1)]),
        [vec![Term::Var(x)]],
    )
    .unwrap();
    let db = CDatabase::single(t);
    for engine in engines() {
        assert!(!engine
            .exists_world_covering(&db, &Instance::single("R", rel![[1]]))
            .unwrap());
        assert!(!engine
            .exists_world_missing_fact(&db, "R", &tup![1])
            .unwrap());
        assert!(!engine
            .exists_world_with_fact_outside(&db, &Instance::new())
            .unwrap());
    }
}
