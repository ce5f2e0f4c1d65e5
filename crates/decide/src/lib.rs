//! # `pw-decide` — decision procedures for incomplete information databases
//!
//! This crate implements the five computational problems of Section 2.3 of the paper, with
//! the specialised polynomial algorithms of the upper-bound theorems and complete
//! (worst-case exponential) general procedures for the provably hard cases:
//!
//! | problem | module | polynomial cases (paper) |
//! |---|---|---|
//! | `MEMB(q)` — membership | [`membership`] | Codd-tables via bipartite matching (Thm 3.1(1)) |
//! | `UNIQ(q₀)` — uniqueness | [`uniqueness`] | g-tables (Thm 3.2(1)); pos. existential views of e-tables (Thm 3.2(2)) |
//! | `CONT(q₀,q)` — containment | [`containment`] | g-tables ⊆ tables via freezing (Thm 4.1(3)) |
//! | `POSS(k,q)` / `POSS(*,q)` — possibility | [`possibility`] | tables (Thm 5.1(1)); bounded, pos. existential on c-tables (Thm 5.2(1)) |
//! | `CERT(k,q)` / `CERT(*,q)` — certainty | [`certainty`] | DATALOG on g-tables via naive evaluation (Thm 5.3(1)) |
//!
//! Every public entry point either *is* one of the paper's polynomial algorithms or is an
//! exact procedure within the problem's complexity class (NP / coNP / Π₂ᵖ); the
//! [`common::Strategy`] value reported alongside answers tells callers (and the benchmark
//! harness) which path ran.  General procedures take a [`common::Budget`] and return
//! [`common::BudgetExceeded`] instead of running away — the exponential growth they exhibit
//! on the reduction-generated workloads is precisely the behaviour the benchmark suite
//! measures.
//!
//! ## Parallel execution
//!
//! The worst-case exponential paths run on a shared parallel substrate, [`engine`]:
//! search nodes with cheaply-forkable constraint stores, an explicit frontier drained by
//! `std::thread::scope` workers, an atomic shared budget and first-witness cancellation.
//! Each problem module exposes a `decide_with(…, &Engine)` variant; the batched front
//! door [`batch::decide_all`] decides many requests at once, amortizing per-database
//! preprocessing through the engine's caches.  When a database's coupling graph splits
//! ([`pw_core::CDatabase::shard_groups`]), the dispatchers fan the request out across
//! the independent shard groups ([`common::Strategy::PerShard`]) and merge with the
//! problem's combinator, falling back to the joint search for condition-coupled groups.
//! See `docs/BOOK.md` (sections "The parallel engine" and "Shard groups and the
//! coupling graph") for the invariants — budget semantics and determinism of answers
//! under parallelism.
//!
//! ## Certificates
//!
//! Under [`EngineConfig::certify`] every definite answer carries a [`Certificate`] the
//! independent `pw_check` crate verifies in polynomial time.  Each problem has one
//! decide path for both modes — its `decide_with` (`membership::view_membership_with`
//! for membership), which the batch front door calls too — and the certificate rides
//! the search that decides: it is read off that search's accepting leaf, and an
//! uncertified engine does no certificate work.  See `docs/BOOK.md` §13.

#![warn(missing_docs)]

pub mod batch;
pub mod certainty;
pub(crate) mod certify;
pub mod common;
pub mod containment;
pub mod engine;
pub mod membership;
pub mod possibility;
pub mod uniqueness;

pub use batch::{
    decide_all, decide_all_with, redecide_all, DecisionOutcome, DecisionRequest, Redecision,
    RetireWork, Session, StandingUpdate, VerdictFlip,
};
pub use common::{
    Budget, BudgetExceeded, CancelToken, Decision, DecisionError, FaultPlan, Strategy,
};
pub use engine::{Engine, EngineConfig, EngineStats, MemoOp, MemoStats, SharedBudget};
pub use pw_core::{Certificate, PairCert};

/// Unit tests of the three constraint searches (covering, missing fact, fact outside) on
/// the engine's entry points, at 1, 2 and 8 threads.
#[cfg(test)]
mod search {
    mod tests;
}
