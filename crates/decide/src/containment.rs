//! The containment problem `CONT(q₀, q)`: is every world of the left view also a world of
//! the right view?
//!
//! * [`freeze`] — the homomorphism technique of Theorem 4.1(2,3): for a g-table left-hand
//!   side and an e-table (or Codd-table) right-hand side, `rep(𝒯₀) ⊆ rep(𝒯)` iff the frozen
//!   instance K₀ (every null replaced by a distinct fresh constant) is a member of
//!   `rep(𝒯)`.  With a Codd-table right-hand side the membership test is the matching
//!   algorithm and the whole procedure is polynomial; with an e-table it is an NP call.
//! * [`forall_exists`] — the general Π₂ᵖ procedure of Proposition 2.1(1): for every
//!   canonical valuation σ₀ of the left database, `q₀(σ₀(𝒯₀))` must be a member of the
//!   right view.
//! * [`decide`] — dispatch following Fig. 2.

use crate::certify;
use crate::common::{
    evaluation_delta, freeze_database, normalize_database, Budget, Decision, DecisionError,
    Strategy,
};
use crate::engine::{Engine, EngineConfig};
use crate::membership;
use pw_core::{CDatabase, Certificate, PairCert, TableClass, Valuation, View};
use pw_relational::Instance;
use std::sync::Mutex;
use std::time::Instant;

/// Decide `CONT(q₀, q)`: `rep(view0) ⊆ rep(view)`.
pub fn decide(view0: &View, view: &View, budget: Budget) -> Result<bool, DecisionError> {
    decide_with(view0, view, &Engine::new(EngineConfig::sequential(budget))).answer
}

/// [`decide`] on an explicit [`Engine`]: the ∀ half of the Π₂ᵖ procedure (the enumeration
/// of the left view's canonical valuations) runs on the engine's worker pool; each
/// worker's ∃ half (the membership call on the right) stays sequential, so the engine's
/// threads are never oversubscribed.  The ∀ enumeration is scheduled by work stealing
/// by default (a lopsided valuation tree re-splits under starving thieves); the static
/// frontier split survives behind
/// [`EngineConfig::without_work_stealing`](crate::EngineConfig::without_work_stealing).
/// The freeze path's membership runs on the engine itself, under its budget, deadline,
/// cancel token, fault plan and memo.
///
/// Returns a [`Decision`] carrying the answer next to the [`Strategy`] that produced
/// (or attempted) it, so the strategy survives a budget-exceeded search.
pub fn decide_with(view0: &View, view: &View, engine: &Engine) -> Decision {
    let strategy = strategy_with(view0, view, engine.config().per_shard);
    let answer = match strategy {
        Strategy::Freeze => freeze_with(&view0.db, &view.db, engine),
        Strategy::PerShard { .. } => per_shard(view0, view, engine),
        _ => forall_exists_with(view0, view, engine),
    };
    Decision::of(answer, strategy)
}

/// The strategy [`decide`] will use for a pair of views (mirrors the upper-bound regions of
/// Fig. 2).
pub fn strategy(view0: &View, view: &View) -> Strategy {
    strategy_with(view0, view, true)
}

/// [`decide_with`] plus certificate extraction: a *yes* carries
/// [`Certificate::EmptyRep`], a replayable [`Certificate::FrozenMembership`] (Theorem
/// 4.1), a per-aligned-pair [`Certificate::Decomposition`], or rests on
/// [`Certificate::Exhaustive`]; a *no* carries a [`Certificate::CounterWorld`] — a
/// valuation inducing a world of the left side that escapes the right (the checker
/// verifies the constructive left half; the non-membership half is the documented
/// trusted seam).
pub(crate) fn decide_certified(view0: &View, view: &View, engine: &Engine) -> Decision {
    if !engine.config().certify {
        return decide_with(view0, view, engine);
    }
    let strategy = strategy_with(view0, view, engine.config().per_shard);
    match strategy {
        Strategy::Freeze => certified_freeze(view0, view, engine, strategy),
        Strategy::PerShard { .. } => certified_per_shard(view0, view, engine, strategy),
        _ => {
            if !view0.db.has_satisfiable_globals() {
                return Decision::certified(Ok(true), strategy, Some(Certificate::EmptyRep));
            }
            // The failing left valuation is the counter-world.
            match counterexample(view0, view, engine) {
                Err(e) => Decision::of(Err(e), strategy),
                Ok(Some(v)) => {
                    Decision::certified(Ok(false), strategy, Some(Certificate::counter_world(v)))
                }
                Ok(None) => Decision::certified(Ok(true), strategy, Some(Certificate::Exhaustive)),
            }
        }
    }
}

/// Certified twin of [`freeze`]: the same normalize → freeze → membership pipeline, with
/// the witness valuation the checker replays read off the inner membership (the checker
/// recomputes K₀ itself, so the certificate carries only the right-side valuation).
fn certified_freeze(view0: &View, view: &View, engine: &Engine, strategy: Strategy) -> Decision {
    let Some(normalized) = normalize_database(&view0.db) else {
        return Decision::certified(Ok(true), strategy, Some(Certificate::EmptyRep));
    };
    let (k0, _fresh) = freeze_database(&normalized, &view.db.constants());
    match membership::witness(&view.db, &k0, engine, membership::strategy(&view.db)) {
        Ok((true, Some(w))) => {
            let w = certify::fill_unassigned(&view.db, w, &certify::avoid_set(&view.db, &k0));
            Decision::certified(
                Ok(true),
                strategy,
                Some(Certificate::FrozenMembership {
                    witness: Box::new(Certificate::witness(certify::valuation(w))),
                }),
            )
        }
        // Replayed without a usable witness shape — the answer stands, the certificate
        // does not.
        Ok((true, None)) => Decision::of(Ok(true), strategy),
        Ok((false, _)) => {
            // K₀ itself (as a valuation of the left database) is the counter-world: its
            // genericity means no right-side valuation can reach it.
            let mut avoid = view0.db.constants();
            avoid.extend(view.db.constants());
            let cert = certify::base_completion(engine, &view0.db, &avoid)
                .map(|w| Certificate::counter_world(certify::valuation(w)));
            Decision::certified(Ok(false), strategy, cert)
        }
        Err(e) => Decision::of(Err(e), strategy),
    }
}

/// Certified twin of [`per_shard`]: the same aligned-pair recursion through the
/// certificate-aware memo (same `MemoOp::Containment` keys), with the per-pair
/// certificates assembled into a [`Certificate::Decomposition`] on *yes* and a failing
/// pair's counter-world stitched with the other left groups' base completions on *no*.
fn certified_per_shard(view0: &View, view: &View, engine: &Engine, strategy: Strategy) -> Decision {
    if !view0.db.has_satisfiable_globals() {
        return Decision::certified(Ok(true), strategy, Some(Certificate::EmptyRep));
    }
    use std::collections::BTreeSet;
    let names = |g: &pw_core::ShardGroup| -> BTreeSet<String> {
        g.database()
            .tables()
            .iter()
            .map(|t| t.name().to_owned())
            .collect()
    };
    let rights: std::collections::BTreeMap<BTreeSet<String>, &pw_core::ShardGroup> = view
        .db
        .shard_groups()
        .iter()
        .map(|g| (names(g), g))
        .collect();
    let mut pairs: Vec<PairCert> = Vec::new();
    let mut all_certified = true;
    for (g_idx, left) in view0.db.shard_groups().iter().enumerate() {
        let right = rights
            .get(&names(left))
            .expect("strategy_with verified the partitions align");
        let (ldb, rdb) = (left.database(), right.database());
        let empty = Instance::new();
        let outcome = engine.memo_decide(
            crate::engine::MemoOp::Containment,
            ldb,
            &empty,
            Some(rdb),
            true,
            || {
                let decision = decide_certified(
                    &View::identity(ldb.clone()),
                    &View::identity(rdb.clone()),
                    engine,
                );
                decision.answer.map(|a| (a, decision.certificate))
            },
        );
        match outcome {
            Ok((true, cert)) => match cert {
                Some(c) => pairs.push(PairCert {
                    relations: names(left),
                    certificate: c,
                }),
                None => all_certified = false,
            },
            Ok((false, cert)) => {
                // The pair's counter-world is a world of the left *group*; extend it
                // with any world of every other left group.
                let stitched = match cert {
                    Some(Certificate::CounterWorld { valuation }) => {
                        let w = valuation.iter().collect();
                        certify::stitch_counter_world(engine, &view0.db, g_idx, w)
                            .map(|w| Certificate::counter_world(certify::valuation(w)))
                    }
                    _ => None,
                };
                return Decision::certified(Ok(false), strategy, stitched);
            }
            Err(e) => return Decision::of(Err(e), strategy),
        }
    }
    let cert = all_certified.then_some(Certificate::Decomposition { pairs });
    Decision::certified(Ok(true), strategy, cert)
}

fn strategy_with(view0: &View, view: &View, per_shard: bool) -> Strategy {
    let identity = view0.query.is_identity() && view.query.is_identity();
    if identity
        && view0.db.classify() <= TableClass::GTable
        && view.db.classify() <= TableClass::ETable
    {
        Strategy::Freeze
    } else if per_shard && identity {
        match aligned_groups(&view0.db, &view.db) {
            Some(groups) => Strategy::PerShard { groups },
            None => Strategy::WorldEnumeration,
        }
    } else {
        Strategy::WorldEnumeration
    }
}

/// Do the two databases decompose into the *same* (non-trivial) partition of relations?
/// Containment of products factorizes only when the two sides group their relations
/// identically: `Π_g rep(L_g) ⊆ Π_g rep(R_g)` iff the left is empty or every aligned
/// pair is contained (pick any left world of one group, extend it with worlds of the
/// other groups — all non-empty — and project the containment).  Mismatched partitions
/// or schemas fall back to the joint Π₂ᵖ enumeration.
fn aligned_groups(db0: &CDatabase, db: &CDatabase) -> Option<usize> {
    use std::collections::BTreeSet;
    let (g0, g1) = (db0.shard_groups(), db.shard_groups());
    if g0.len() < 2 || g0.len() != g1.len() {
        return None;
    }
    fn names(g: &pw_core::ShardGroup) -> BTreeSet<&str> {
        g.database().tables().iter().map(|t| t.name()).collect()
    }
    let s0: BTreeSet<BTreeSet<&str>> = g0.iter().map(names).collect();
    let s1: BTreeSet<BTreeSet<&str>> = g1.iter().map(names).collect();
    (s0 == s1).then_some(g0.len())
}

/// Containment decomposed over aligned shard groups: an empty left representation is
/// contained in everything; otherwise every aligned group pair must be contained, with
/// each pair dispatched recursively (a group pair in the g-table ⊆ e-table region runs
/// the *polynomial* freeze — isolating the tractable fragments the joint enumeration
/// would have drowned in its exponent).  Each group pair searches under the full request
/// budget: group decompositions are how a budget-sized search stays feasible at all
/// here, and a per-group slice would make the bound depend on the grouping.
fn per_shard(view0: &View, view: &View, engine: &Engine) -> Result<bool, DecisionError> {
    if !view0.db.has_satisfiable_globals() {
        return Ok(true); // rep(view0.db) = ∅ ⊆ anything
    }
    use std::collections::BTreeSet;
    let names = |g: &pw_core::ShardGroup| -> BTreeSet<String> {
        g.database()
            .tables()
            .iter()
            .map(|t| t.name().to_owned())
            .collect()
    };
    let rights: std::collections::BTreeMap<BTreeSet<String>, &pw_core::ShardGroup> = view
        .db
        .shard_groups()
        .iter()
        .map(|g| (names(g), g))
        .collect();
    for left in view0.db.shard_groups() {
        let right = rights
            .get(&names(left))
            .expect("strategy_with verified the partitions align");
        // Per-pair verdicts go through the decision memo keyed by the *left* group's
        // database with the right group held structurally as the key's `rhs`, so a
        // re-decide after a delta replays every aligned pair whose two sides are
        // untouched and two different pairs can never collide.
        let (ldb, rdb) = (left.database(), right.database());
        let empty = Instance::new();
        let (answer, _) = engine.memo_decide(
            crate::engine::MemoOp::Containment,
            ldb,
            &empty,
            Some(rdb),
            false,
            || {
                let decision = decide_with(
                    &View::identity(ldb.clone()),
                    &View::identity(rdb.clone()),
                    engine,
                );
                decision.answer.map(|a| (a, None))
            },
        )?;
        if !answer {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Theorem 4.1(2,3): containment of a g-table database in an e-table (or Codd-table)
/// database via the freeze construction.
///
/// The left database is first normalised (equalities folded in).  If its global condition
/// is unsatisfiable the left representation is empty and containment holds trivially.
/// Otherwise every remaining null is replaced by a distinct fresh constant, and the
/// resulting complete instance K₀ is tested for membership on the right — matching for
/// Codd-tables (PTIME overall), backtracking for e-tables (an NP call, as Theorem 4.1(2)
/// promises).
pub fn freeze(db0: &CDatabase, db: &CDatabase, budget: Budget) -> Result<bool, DecisionError> {
    freeze_with(db0, db, &Engine::new(EngineConfig::sequential(budget)))
}

/// [`freeze`] on an explicit [`Engine`]: the membership test of K₀ runs under the
/// engine's budget, limits and memo.
fn freeze_with(db0: &CDatabase, db: &CDatabase, engine: &Engine) -> Result<bool, DecisionError> {
    let Some(normalized) = normalize_database(db0) else {
        return Ok(true); // rep(db0) = ∅ ⊆ anything
    };
    let (k0, _fresh) = freeze_database(&normalized, &db.constants());
    membership::decide_with(db, &k0, engine)
}

/// Proposition 2.1(1): the general Π₂ᵖ procedure.  Every canonical valuation σ₀ of the left
/// database yields a world `q₀(σ₀(𝒯₀))` that must be a member of the right view; Δ is the
/// union of the constants of both inputs (plus both queries, via the instances produced).
pub fn forall_exists(view0: &View, view: &View, budget: Budget) -> Result<bool, DecisionError> {
    forall_exists_with(view0, view, &Engine::new(EngineConfig::sequential(budget)))
}

/// [`forall_exists`] on an explicit [`Engine`] (parallel enumeration of the left
/// valuations).
///
/// A genuine counterexample — a world of the left view that is *not* a member of the
/// right — always wins over an inner membership search running out of budget, matching
/// the engine's "a found witness beats budget exhaustion" rule: inner exhaustions are
/// recorded on the side and only reported when no counterexample is found anywhere.
pub fn forall_exists_with(
    view0: &View,
    view: &View,
    engine: &Engine,
) -> Result<bool, DecisionError> {
    if !view0.db.has_satisfiable_globals() {
        return Ok(true);
    }
    Ok(counterexample(view0, view, engine)?.is_none())
}

/// The search behind [`forall_exists_with`]: a canonical valuation of the left database
/// whose world, through `q₀`, is not a member of the right view — or `None` when there
/// is none.  An inner membership failure on some world is reported only if no world is
/// a counterexample.
///
/// The ∃ half runs on one inner engine per call, built from the caller's configuration:
/// single-threaded (the enumeration already occupies the caller's threads), uncertified,
/// and under the caller's cancel token and fault plan.  Every world's membership search
/// gets the full budget.  The worlds share the inner engine's
/// sat-cache and base stores; its memo is capped at one entry, since every world asks
/// about a different instance.
///
/// The caller's deadline is resolved **once**, when the call starts, and bounds the
/// whole enumeration: every world's search stops at that instant, and no world starts
/// after it.  (The enumeration's own amortized limit check sees too few nodes to
/// fire, and a per-world deadline would let the request run once per world.)
fn counterexample(
    view0: &View,
    view: &View,
    engine: &Engine,
) -> Result<Option<Valuation>, DecisionError> {
    let deadline = engine.deadline_from_now();
    let vars: Vec<_> = view0.db.variables().into_iter().collect();
    let mut delta = evaluation_delta(&view0.db, view.db.constants());
    delta.extend(view0.query.constants());
    delta.extend(view.query.constants());
    let mut inner = engine.config().clone().with_memo_capacity(1);
    inner.threads = 1;
    inner.certify = false;
    inner.deadline = None;
    let inner = Engine::new(inner).with_deadline_at(deadline);
    let inner_failure: Mutex<Option<DecisionError>> = Mutex::new(None);
    let found =
        engine.find_canonical_valuation(view0.db.symbols(), &vars, &delta, |valuation| {
            if deadline.is_some_and(|at| Instant::now() >= at) {
                return Some(Err(DecisionError::DeadlineExceeded));
            }
            let world = valuation.world_of(&view0.db)?;
            let left_output: Instance = view0.query.eval(&world);
            match membership::view_membership_with(view, &left_output, &inner).answer {
                Ok(true) => None,
                Ok(false) => Some(Ok(valuation.clone())),
                Err(err) => {
                    // Not a witness: this world's membership is unresolved.  Keep
                    // searching — another world may be a definitive counterexample.
                    crate::engine::lock_unpoisoned(&inner_failure).get_or_insert(err);
                    None
                }
            }
        })?;
    let failure = crate::engine::lock_unpoisoned(&inner_failure).take();
    match (found, failure) {
        (Some(counterexample), _) => counterexample.map(Some),
        (None, Some(err)) => Err(err),
        (None, None) => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::{Atom, Conjunction, Term, VarGen};
    use pw_core::CTable;
    use pw_query::{qatom, ConjunctiveQuery, QTerm, Query, QueryDef, Ucq};

    fn budget() -> Budget {
        Budget(1_000_000)
    }

    #[test]
    fn instance_contained_in_codd_table() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // 𝒯₀ = ground {(1, 2)};  𝒯 = {(1, x)}: contained.
        let left = CTable::codd("R", 2, [vec![Term::constant(1), Term::constant(2)]]).unwrap();
        let right = CTable::codd("R", 2, [vec![Term::constant(1), Term::Var(x)]]).unwrap();
        let v0 = View::identity(CDatabase::single(left));
        let v = View::identity(CDatabase::single(right));
        assert_eq!(strategy(&v0, &v), Strategy::Freeze);
        assert!(decide(&v0, &v, budget()).unwrap());
        assert!(
            !decide(&v, &v0, budget()).unwrap(),
            "the table represents worlds the single instance does not"
        );
    }

    #[test]
    fn codd_table_contained_in_wider_codd_table() {
        let mut g = VarGen::new();
        let (x, y, z) = (g.fresh(), g.fresh(), g.fresh());
        // 𝒯₀ = {(1, x)}  ⊆  𝒯 = {(y, z)}: every world of 𝒯₀ is a world of 𝒯.
        let left = CTable::codd("R", 2, [vec![Term::constant(1), Term::Var(x)]]).unwrap();
        let right = CTable::codd("R", 2, [vec![Term::Var(y), Term::Var(z)]]).unwrap();
        let v0 = View::identity(CDatabase::single(left));
        let v = View::identity(CDatabase::single(right));
        assert!(decide(&v0, &v, budget()).unwrap());
        assert!(!decide(&v, &v0, budget()).unwrap());
    }

    #[test]
    fn freeze_agrees_with_forall_exists_on_small_cases() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let cases: Vec<(CDatabase, CDatabase)> = vec![
            (
                CDatabase::single(
                    CTable::g_table(
                        "R",
                        1,
                        Conjunction::new([Atom::eq(x, 1)]),
                        [vec![Term::Var(x)]],
                    )
                    .unwrap(),
                ),
                CDatabase::single(CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap()),
            ),
            (
                CDatabase::single(CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap()),
                CDatabase::single(CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap()),
            ),
            (
                CDatabase::single(
                    CTable::codd("R", 2, [vec![Term::Var(x), Term::Var(y)]]).unwrap(),
                ),
                CDatabase::single(
                    CTable::e_table("R", 2, [vec![Term::Var(x), Term::Var(x)]]).unwrap(),
                ),
            ),
            (
                CDatabase::single(
                    CTable::e_table("R", 2, [vec![Term::Var(x), Term::Var(x)]]).unwrap(),
                ),
                CDatabase::single(
                    CTable::codd("R", 2, [vec![Term::Var(x), Term::Var(y)]]).unwrap(),
                ),
            ),
        ];
        for (db0, db) in cases {
            let v0 = View::identity(db0.clone());
            let v = View::identity(db.clone());
            let fast = freeze(&db0, &db, budget()).unwrap();
            let slow = forall_exists(&v0, &v, budget()).unwrap();
            assert_eq!(fast, slow, "freeze vs ∀∃ on {db0} ⊆ {db}");
        }
    }

    #[test]
    fn empty_left_representation_is_contained_in_everything() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let unsat = CTable::g_table(
            "R",
            1,
            Conjunction::new([Atom::eq(x, 1), Atom::neq(x, 1)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        let left = CDatabase::single(unsat);
        let right = CDatabase::single(CTable::codd("R", 1, [vec![Term::constant(9)]]).unwrap());
        assert!(freeze(&left, &right, budget()).unwrap());
        assert!(decide(&View::identity(left), &View::identity(right), budget()).unwrap());
    }

    #[test]
    fn containment_with_views_uses_the_general_procedure() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // Left: q0 projects the first column of T = {(1, x)} → worlds {{(1)}}.
        // Right: the Codd-table {(y)} represents all single-fact (and with y colliding,
        // nothing else) unary relations, so containment holds.
        let t0 = CTable::codd("T", 2, [vec![Term::constant(1), Term::Var(x)]]).unwrap();
        let q0 = Query::single(
            "Q",
            QueryDef::Ucq(Ucq::single(ConjunctiveQuery::new(
                [QTerm::var("a")],
                [qatom!("T"; "a", "b")],
            ))),
        );
        let left = View::new(q0, CDatabase::single(t0));

        let y = g.fresh();
        let right_table = CTable::codd("Q", 1, [vec![Term::Var(y)]]).unwrap();
        let right = View::identity(CDatabase::single(right_table));
        assert_eq!(strategy(&left, &right), Strategy::WorldEnumeration);
        assert!(decide(&left, &right, budget()).unwrap());
        // The reverse fails: the right view also represents {(2)}, which the left cannot be.
        assert!(!decide(&right, &left, budget()).unwrap());
    }

    #[test]
    fn itable_right_hand_side_goes_through_the_general_procedure() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        // 𝒯₀ = {(x)} (all single- or no-fact worlds); 𝒯 = {(y)} with y ≠ 1.
        let left = CDatabase::single(CTable::codd("R", 1, [vec![Term::Var(x)]]).unwrap());
        let right = CDatabase::single(
            CTable::i_table(
                "R",
                1,
                Conjunction::new([Atom::neq(y, 1)]),
                [vec![Term::Var(y)]],
            )
            .unwrap(),
        );
        let v0 = View::identity(left);
        let v = View::identity(right);
        assert_eq!(strategy(&v0, &v), Strategy::WorldEnumeration);
        assert!(
            !decide(&v0, &v, budget()).unwrap(),
            "the world {{(1)}} is not representable on the right"
        );
        assert!(decide(&v, &v0, budget()).unwrap());
    }
}
