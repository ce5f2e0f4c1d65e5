//! Proposition 2.1 cross-checks: on small random databases, the specialised decision
//! procedures must agree with brute-force possible-world enumeration over Δ ∪ Δ′.
//!
//! All five problems are decided under every engine configuration that can change the
//! search tree or its evidence: sequential and 4 threads, each plain and certified.
//! Each request is decided twice — through the batch front door and through the
//! problem's public entry point — and the two decisions must agree.  Every certified
//! answer must pass the independent `pw_check` checker.  The six-row tables give the
//! fail-first search room to fill rows and facts out of table order.

use possible_worlds::decide::batch::{decide_all_with, DecisionRequest};
use possible_worlds::decide::{Decision, Engine, EngineConfig};
use possible_worlds::prelude::*;
use possible_worlds::workloads::{
    member_instance, non_member_instance, random_codd_table, random_ctable, random_etable,
    random_gtable, random_itable, TableParams,
};
use possible_worlds::{check, check_claim};
use std::collections::BTreeSet;

fn small_params(seed: u64) -> TableParams {
    TableParams {
        rows: 4,
        arity: 2,
        constants: 3,
        null_density: 0.4,
        seed,
    }
}

/// The parameter sets of the membership, possibility and certainty cross-checks: four
/// four-row seeds, then sixteen six-row seeds (sparser in nulls, so that enumerating
/// their worlds stays cheap).
fn crosscheck_params() -> impl Iterator<Item = TableParams> {
    (0..4)
        .map(small_params)
        .chain((0..16).map(|seed| TableParams {
            rows: 6,
            null_density: 0.2,
            ..small_params(seed)
        }))
}

/// The engine configurations of the cross-checks: sequential and 4 threads, each
/// plain and certified.
fn engine_configs() -> [EngineConfig; 4] {
    let sequential = EngineConfig::sequential(budget());
    let threaded = EngineConfig::with_threads(4, budget());
    [
        sequential.clone(),
        sequential.certified(),
        threaded.clone(),
        threaded.certified(),
    ]
}

fn config_label(cfg: &EngineConfig) -> String {
    let certified = if cfg.certify { ", certified" } else { "" };
    format!("{} threads{certified}", cfg.threads)
}

/// Decide `request` under `cfg`, through the batch front door and through the
/// problem's public entry point on an engine of the same configuration.  Both must
/// reach the same answer under the same strategy.  A certified answer must carry a
/// certificate that `pw_check` accepts on both paths, and an uncertified one none.
/// Sequential runs must also agree on the certificate itself; at 4 threads the first
/// accepting leaf any worker reaches supplies the valuation, so there each path's
/// certificate is checked on its own.
fn decide_checked(request: &DecisionRequest, cfg: &EngineConfig, context: &str) -> bool {
    let batch = decide_all_with(std::slice::from_ref(request), cfg).remove(0);
    let direct = decide_direct(request, &Engine::new(cfg.clone()));
    assert_eq!(
        direct.answer, batch.answer,
        "{context}: entry point vs batch"
    );
    assert_eq!(
        direct.strategy, batch.strategy,
        "{context}: entry point vs batch"
    );
    if cfg.threads == 1 {
        assert_eq!(
            direct.certificate, batch.certificate,
            "{context}: entry point vs batch"
        );
    }
    let answer = batch
        .answer
        .clone()
        .unwrap_or_else(|e| panic!("{context}: {e:?}"));
    for (path, decision) in [("batch", batch), ("entry point", direct)] {
        match (cfg.certify, decision.certificate) {
            (true, Some(certificate)) => check::verify(&check_claim(request, answer), &certificate)
                .unwrap_or_else(|e| {
                    panic!("{context}: pw_check rejected the {path} certificate: {e}")
                }),
            (true, None) => panic!("{context}: certified {path} answer without a certificate"),
            (false, Some(_)) => panic!("{context}: uncertified {path} answer with a certificate"),
            (false, None) => {}
        }
    }
    answer
}

/// `request` through its problem's public entry point.
fn decide_direct(request: &DecisionRequest, engine: &Engine) -> Decision {
    match request {
        DecisionRequest::Membership { view, instance } => {
            membership::view_membership_with(view, instance, engine)
        }
        DecisionRequest::Uniqueness { view, instance } => {
            uniqueness::decide_with(view, instance, engine)
        }
        DecisionRequest::Containment { left, right } => {
            containment::decide_with(left, right, engine)
        }
        DecisionRequest::Possibility { view, facts } => {
            possibility::decide_with(view, facts, engine)
        }
        DecisionRequest::Certainty { view, facts } => certainty::decide_with(view, facts, engine),
    }
}

fn budget() -> Budget {
    Budget(20_000_000)
}

/// Brute force: every world of `db` over its constants, the constants of `candidates`
/// and enough fresh ones (Proposition 2.1's Δ ∪ Δ′).  Enumerated once per database and
/// shared by every question about it.
fn worlds(db: &CDatabase, candidates: &[&Instance]) -> BTreeSet<Instance> {
    let extra: Vec<Constant> = candidates.iter().flat_map(|c| c.active_domain()).collect();
    PossibleWorlds::new(db)
        .with_extra_constants(extra)
        .enumerate(5_000_000)
        .expect("small instances enumerate within budget")
}

fn generators_with(p: &TableParams) -> Vec<(&'static str, CDatabase)> {
    vec![
        ("codd", CDatabase::single(random_codd_table("R", p))),
        ("e-table", CDatabase::single(random_etable("R", p))),
        ("i-table", CDatabase::single(random_itable("R", p))),
        ("g-table", CDatabase::single(random_gtable("R", p))),
        ("c-table", CDatabase::single(random_ctable("R", p))),
    ]
}

fn generators(seed: u64) -> Vec<(&'static str, CDatabase)> {
    generators_with(&small_params(seed))
}

#[test]
fn membership_agrees_with_enumeration_on_all_classes() {
    for p in crosscheck_params() {
        let (rows, seed) = (p.rows, p.seed);
        for (label, db) in generators_with(&p) {
            let view = View::identity(db.clone());
            let candidates = [member_instance(&db, &p), non_member_instance(&db, &p)];
            let worlds = worlds(&db, &[&candidates[0], &candidates[1]]);
            for instance in candidates {
                let slow = worlds.iter().any(|w| w.same_facts(&instance));
                let fast = membership::decide(&db, &instance, budget()).unwrap();
                let context = format!("membership on {label}, {rows} rows, seed {seed}");
                assert_eq!(fast, slow, "{context}");
                let request = DecisionRequest::Membership {
                    view: view.clone(),
                    instance,
                };
                for cfg in engine_configs() {
                    let context = format!("{context}, {}", config_label(&cfg));
                    assert_eq!(decide_checked(&request, &cfg, &context), slow, "{context}");
                }
            }
        }
    }
}

/// The possibility and certainty patterns of a database: one fact of a member world,
/// all of it, and all of a non-member instance — the multi-fact patterns give the
/// covering search several facts to order.
fn patterns(db: &CDatabase, p: &TableParams) -> [Instance; 3] {
    let world = member_instance(db, p);
    let mut single = Instance::new();
    if let Some((name, rel)) = world.iter().next() {
        if let Some(fact) = rel.iter().next() {
            single.insert_fact(name.clone(), fact.clone()).unwrap();
        }
    }
    [single, world, non_member_instance(db, p)]
}

#[test]
fn possibility_and_certainty_agree_with_enumeration_on_all_classes() {
    for p in crosscheck_params() {
        let (rows, seed) = (p.rows, p.seed);
        for (label, db) in generators_with(&p) {
            let view = View::identity(db.clone());
            let patterns = patterns(&db, &p);
            let worlds = worlds(&db, &[&patterns[1], &patterns[2]]);
            for pattern in patterns {
                let context = format!("on {label}, {rows} rows, seed {seed}");
                let slow_poss = worlds.iter().any(|w| pattern.is_subinstance_of(w));
                let fast_poss = possibility::decide(&view, &pattern, budget()).unwrap();
                assert_eq!(fast_poss, slow_poss, "possibility {context}");
                let slow_cert = worlds.iter().all(|w| pattern.is_subinstance_of(w));
                let fast_cert = certainty::decide(&view, &pattern, budget()).unwrap();
                assert_eq!(fast_cert, slow_cert, "certainty {context}");
                // Certainty implies possibility (the paper's remark in Section 1.2).
                if fast_cert {
                    assert!(fast_poss, "certain but not possible {context}");
                }

                let possibility = DecisionRequest::Possibility {
                    view: view.clone(),
                    facts: pattern.clone(),
                };
                let certainty = DecisionRequest::Certainty {
                    view: view.clone(),
                    facts: pattern,
                };
                for cfg in engine_configs() {
                    let context = format!("{context}, {}", config_label(&cfg));
                    assert_eq!(
                        decide_checked(&possibility, &cfg, &context),
                        slow_poss,
                        "possibility {context}"
                    );
                    assert_eq!(
                        decide_checked(&certainty, &cfg, &context),
                        slow_cert,
                        "certainty {context}"
                    );
                }
            }
        }
    }
}

#[test]
fn uniqueness_agrees_with_enumeration_on_all_classes() {
    for seed in 0..4 {
        let p = small_params(seed);
        for (label, db) in generators(seed) {
            let view = View::identity(db.clone());
            let candidate = member_instance(&db, &p);
            let fast = uniqueness::decide(&view, &candidate, budget()).unwrap();
            let worlds = PossibleWorlds::new(&db)
                .with_extra_constants(candidate.active_domain())
                .enumerate(5_000_000)
                .unwrap();
            let slow = worlds.len() == 1 && worlds.iter().next().unwrap().same_facts(&candidate);
            assert_eq!(fast, slow, "uniqueness mismatch on {label} seed {seed}");
            let request = DecisionRequest::Uniqueness {
                view: view.clone(),
                instance: candidate,
            };
            for cfg in engine_configs() {
                let context = format!("uniqueness on {label}, seed {seed}, {}", config_label(&cfg));
                assert_eq!(decide_checked(&request, &cfg, &context), slow, "{context}");
            }
        }
    }
}

#[test]
fn containment_agrees_with_enumeration_on_small_pairs() {
    for seed in 0..3 {
        // Containment squares the enumeration cost (worlds of the left times worlds of the
        // right), so this cross-check uses even smaller databases than the other tests.
        let tiny = TableParams {
            rows: 3,
            arity: 2,
            constants: 2,
            null_density: 0.3,
            seed,
        };
        let dbs = generators_with(&tiny);
        for (label_left, left) in &dbs {
            for (label_right, right) in &dbs {
                let lv = View::identity(left.clone());
                let rv = View::identity(right.clone());
                let fast = containment::decide(&lv, &rv, budget()).unwrap();
                // Brute force: every world of the left must appear among the right's worlds.
                let shared: Vec<Constant> = left
                    .constants()
                    .into_iter()
                    .chain(right.constants())
                    .collect();
                let left_worlds = PossibleWorlds::new(left)
                    .with_extra_constants(shared.clone())
                    .enumerate(5_000_000)
                    .unwrap();
                // Enumerate the right-hand side's worlds once over the *joint* active domain
                // (both sides' constants plus enough fresh values for either side's nulls,
                // which `with_extra_constants` + the Δ′ padding of the enumerator provide);
                // re-running a per-world membership enumeration here squares the cost.
                let right_domain: Vec<Constant> = shared
                    .iter()
                    .cloned()
                    .chain(left_worlds.iter().flat_map(|w| w.active_domain()))
                    .collect();
                let right_worlds = PossibleWorlds::new(right)
                    .with_extra_constants(right_domain)
                    .enumerate(5_000_000)
                    .unwrap();
                let slow = left_worlds
                    .iter()
                    .all(|w| right_worlds.iter().any(|r| r.same_facts(w)));
                let context = format!("containment {label_left} ⊆ {label_right}, seed {seed}");
                assert_eq!(fast, slow, "{context}");
                let request = DecisionRequest::Containment {
                    left: lv,
                    right: rv,
                };
                for cfg in engine_configs() {
                    let context = format!("{context}, {}", config_label(&cfg));
                    assert_eq!(decide_checked(&request, &cfg, &context), slow, "{context}");
                }
            }
        }
    }
}
