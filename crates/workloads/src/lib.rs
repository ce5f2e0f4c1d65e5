//! # `pw-workloads` — seeded workload generators for the benchmark harness
//!
//! Data-complexity is measured by sweeping the *database* size while keeping the query
//! fixed, so every experiment needs families of inputs of controllable size.  Two kinds of
//! family appear in the paper's classification:
//!
//! * **random / easy families** — random Codd-/e-/i-/g-/c-tables with instances drawn from
//!   their own `rep` (guaranteed "yes" cases) or perturbed (guaranteed-or-likely "no"
//!   cases).  On these the polynomial upper-bound algorithms of `pw-decide` scale
//!   gracefully; they populate the PTIME cells of Fig. 2.
//! * **hard families** — instances produced by the reductions of `pw-reductions` from
//!   random source problems (graphs near the 3-colourability threshold, 3CNF formulas near
//!   the satisfiability threshold, random 3DNF formulas, random ∀∃3CNF instances).  On
//!   these the NP / coNP / Π₂ᵖ procedures exhibit the exponential growth the lower bounds
//!   promise.
//!
//! All generators are deterministic given a seed ([`rand::rngs::StdRng`]), so benchmark
//! runs are reproducible.

pub mod decoupled;
pub mod formulas;
pub mod graphs;
pub mod mutations;
pub mod skewed;
pub mod streams;
pub mod strings;
pub mod tables;

pub use decoupled::{coupled_multirelation, decoupled_multirelation};
pub use formulas::{random_3cnf, random_3dnf, random_forall_exists};
pub use graphs::{planted_three_colorable, random_graph};
pub use mutations::{coupling_delta, mutation_stream, single_shard_delta, MutationStream};
pub use skewed::{coupled_heavy_membership, skewed_membership, skewed_possibility, SkewedParams};
pub use streams::{
    flip_heavy_stream, flip_sparse_stream, StreamProblem, StreamRequest, StreamWorkload,
};
pub use strings::{stringify_constant, stringify_database, stringify_instance, stringify_table};
pub use tables::{
    member_instance, non_member_instance, random_codd_table, random_ctable, random_etable,
    random_gtable, random_itable, TableParams,
};
