//! Shared infrastructure of the decision procedures: search budgets, limits, failure
//! taxonomy and strategy reporting.  The searches themselves — including the canonical
//! valuation enumeration behind the generic exponential fallbacks — live in
//! [`crate::engine`].

use pw_core::{CDatabase, Certificate};
use pw_relational::Constant;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which algorithm a dispatching entry point selected.
///
/// The benchmark harness records the strategy next to every measurement so the produced
/// tables show *which* of the paper's algorithms is responsible for each running time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Bipartite matching on Codd-tables (Theorem 3.1(1) / 5.1(1)).
    CoddMatching,
    /// Normalise equalities and compare syntactically (Theorem 3.2(1)).
    GTableNormalization,
    /// The c-table-algebra based algorithm for positive existential views of e-tables
    /// (Theorem 3.2(2)).
    PosExistEtable,
    /// Freeze the left-hand side and run membership on the right (Theorem 4.1(2,3)).
    Freeze,
    /// The c-table algebra followed by a bounded search (Theorem 5.2(1)).
    CTableAlgebra,
    /// Naive evaluation treating nulls as fresh constants (Theorem 5.3(1)).
    NaiveEvaluation,
    /// Row-assignment backtracking with constraint propagation (NP/coNP procedures).
    Backtracking,
    /// Canonical valuation enumeration (the Π₂ᵖ / generic fallback of Proposition 2.1).
    WorldEnumeration,
    /// Shard-group decomposition: the database's coupling graph splits into `groups`
    /// variable-disjoint groups, each solved independently (dispatching per group to the
    /// tractable algorithm where one applies) and merged with the problem's combinator.
    /// Condition-coupled databases never report this — they fall back to the joint
    /// search.
    PerShard {
        /// Number of independent coupling groups the request fanned out across.
        groups: usize,
    },
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::PerShard { groups } => return write!(f, "per-shard({groups})"),
            Strategy::CoddMatching => "codd-matching",
            Strategy::GTableNormalization => "g-table-normalization",
            Strategy::PosExistEtable => "pos-exist-e-table",
            Strategy::Freeze => "freeze",
            Strategy::CTableAlgebra => "c-table-algebra",
            Strategy::NaiveEvaluation => "naive-evaluation",
            Strategy::Backtracking => "backtracking",
            Strategy::WorldEnumeration => "world-enumeration",
        };
        write!(f, "{s}")
    }
}

/// The uniform answer of every decision path: what was decided, by which of the paper's
/// algorithms, and (optionally) the evidence.
///
/// Every `decide_with` entry point across the five problems (and
/// `membership::view_membership_with`) returns this one struct — the batched front door ([`crate::batch`]) and the wire layer
/// (`pw-serve`) consume it without knowing which problem produced it, and growing the
/// answer (planner cost, timing) is one field here instead of a workspace-wide
/// positional-tuple rewrite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The verdict, or the [`DecisionError`] that stopped the search: budget or
    /// wall-clock exhaustion, cooperative cancellation, or a worker panic isolated to
    /// this request.
    pub answer: Result<bool, DecisionError>,
    /// Which of the paper's algorithms decided (or attempted) the request.  Filled in
    /// for failures too, so a budget-exceeded search is labelled without re-deriving
    /// the plan.
    pub strategy: Strategy,
    /// Evidence for the answer, when the engine runs with
    /// [`crate::EngineConfig::certify`] on: a value the independent checker `pw_check`
    /// verifies in polynomial time without trusting this crate.  `None` when
    /// certification is off, and in the rare corners where no short certificate exists
    /// (e.g. a budget-exceeded answer).
    pub certificate: Option<Certificate>,
}

impl Decision {
    /// An uncertified decision (certificate [`None`]).
    pub fn of(answer: Result<bool, DecisionError>, strategy: Strategy) -> Self {
        Decision {
            answer,
            strategy,
            certificate: None,
        }
    }

    /// A decision carrying (optional) evidence.
    pub fn certified(
        answer: Result<bool, DecisionError>,
        strategy: Strategy,
        certificate: Option<Certificate>,
    ) -> Self {
        Decision {
            answer,
            strategy,
            certificate,
        }
    }

    /// The definite verdict, if the search produced one.
    pub fn verdict(&self) -> Option<bool> {
        self.answer.as_ref().ok().copied()
    }

    /// Did the search fail (budget, deadline, cancellation, panic)?
    pub fn is_err(&self) -> bool {
        self.answer.is_err()
    }
}

/// A search budget: the maximum number of search nodes / candidate valuations a general
/// procedure may explore before giving up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget(pub u64);

impl Default for Budget {
    fn default() -> Self {
        Budget(50_000_000)
    }
}

/// Error returned when a general procedure exhausts its [`Budget`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded;

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "search budget exceeded")
    }
}

impl std::error::Error for BudgetExceeded {}

/// Why a decision did not produce a definite answer.
///
/// This is the structured failure taxonomy threaded through every `decide_with` path and
/// [`crate::batch::DecisionOutcome`].  Each variant has a distinct recovery story:
///
/// * [`DecisionError::BudgetExceeded`] — the search exhausted its node [`Budget`].
///   Deterministic for a fixed (database, request, budget), and never memoized, so a
///   retry with more budget ([`crate::batch::Session::decide_all_with_retry`]) is sound.
/// * [`DecisionError::DeadlineExceeded`] — the wall-clock deadline of
///   [`crate::engine::EngineConfig::with_deadline`] passed.  Retrying is the caller's
///   call: the answer was not wrong, just late.
/// * [`DecisionError::Cancelled`] — the request's [`CancelToken`] was cancelled
///   cooperatively.  Not an engine failure at all.
/// * [`DecisionError::WorkerPanicked`] — a search worker panicked (a bug, or an injected
///   fault).  The panic is contained to the one request/group that hit it: sibling
///   requests in a batch complete normally and the engine's caches stay usable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecisionError {
    /// The search exhausted its node budget before finding an answer.
    BudgetExceeded,
    /// The wall-clock deadline passed before the search finished.
    DeadlineExceeded,
    /// The request's [`CancelToken`] was triggered.
    Cancelled,
    /// A worker thread panicked; the payload carries the panic message.  Isolated to
    /// the request/group whose search panicked — siblings are unaffected.
    WorkerPanicked(String),
}

impl fmt::Display for DecisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionError::BudgetExceeded => write!(f, "search budget exceeded"),
            DecisionError::DeadlineExceeded => write!(f, "deadline exceeded"),
            DecisionError::Cancelled => write!(f, "request cancelled"),
            DecisionError::WorkerPanicked(msg) => write!(f, "search worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for DecisionError {}

impl From<BudgetExceeded> for DecisionError {
    fn from(_: BudgetExceeded) -> Self {
        DecisionError::BudgetExceeded
    }
}

/// A cooperative cancellation handle: share one per request (via
/// [`crate::engine::EngineConfig::with_cancel`]), call [`CancelToken::cancel`] from any
/// thread, and every search driven under that configuration stops at its next
/// amortized limit check with [`DecisionError::Cancelled`].
///
/// The token rides the same signal path as the engine's internal first-witness
/// cancellation and the wall-clock deadline — one amortized check in the tick loop
/// serves all three.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Signal cancellation.  Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`CancelToken::cancel`] been called?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// A deterministic fault-injection plan, attached via
/// [`crate::engine::EngineConfig::with_faults`].  Off by default and zero-cost when
/// absent: the tick hot loop only consults the plan on its amortized (every
/// `LIMIT_CHECK_MASK + 1` ticks) slow path.
///
/// All tick thresholds count *spent* budget units of one search context, so a plan
/// replays identically for a fixed (database, request, budget, thread count = 1);
/// `seed` seeds [`FaultPlan::jitter`] for tests that want varied-but-reproducible
/// trigger points.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Mixed into [`FaultPlan::jitter`]; recorded so a failing test names its seed.
    pub seed: u64,
    /// Panic inside the search once this many budget units are spent (next amortized
    /// check at or after the threshold).  Exercises the panic-isolation boundaries.
    pub panic_at_tick: Option<u64>,
    /// Report [`DecisionError::BudgetExceeded`] once this many units are spent, as if
    /// the pool had run dry.
    pub budget_exhaust_at_tick: Option<u64>,
    /// Report [`DecisionError::DeadlineExceeded`] once this many units are spent, as if
    /// the wall clock had passed the deadline.
    pub deadline_at_tick: Option<u64>,
    /// Panic while deciding the request at this batch position (0-based, pre-scheduling
    /// order).  Exercises the per-request isolation boundary in [`crate::batch`].
    pub panic_on_request: Option<usize>,
    /// Clamp the decision memo to capacity 1, evicting on every insert — an eviction
    /// storm that makes every replay a recompute.
    pub eviction_storm: bool,
    /// Inject one forced steal into the work-stealing scheduler once this many budget
    /// units are spent: the first worker to cross the threshold raids a victim deque
    /// before touching its own, exercising the steal path even on workloads too small
    /// to starve a worker naturally.  Fires once per search.
    pub steal_at_tick: Option<u64>,
    /// Inject one forced subtree re-split once this many budget units are spent: the
    /// next shed poll past the threshold reports thieves waiting, so the running
    /// worker publishes its unexplored sibling subtrees.  Fires once per search.
    pub split_at_tick: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) carrying `seed` for [`FaultPlan::jitter`].
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A deterministic pseudo-random value in `0..span` derived from the seed and
    /// `salt` (splitmix64) — lets a test derive varied trigger ticks from one seed.
    pub fn jitter(&self, salt: u64, span: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(salt)
            .wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        (z ^ (z >> 31)) % span.max(1)
    }

    /// The slow-path hook: fired from the amortized limit check with the spent-unit
    /// count.  May panic (by design) or report an injected exhaustion.
    pub(crate) fn at_tick(&self, spent: u64) -> Result<(), DecisionError> {
        if self.panic_at_tick.is_some_and(|t| spent >= t) {
            panic!(
                "fault injection (seed {}): forced panic at tick {spent}",
                self.seed
            );
        }
        if self.budget_exhaust_at_tick.is_some_and(|t| spent >= t) {
            return Err(DecisionError::BudgetExceeded);
        }
        if self.deadline_at_tick.is_some_and(|t| spent >= t) {
            return Err(DecisionError::DeadlineExceeded);
        }
        Ok(())
    }

    /// Has the forced-steal threshold been crossed?  The scheduler latches the first
    /// positive answer so the injection fires exactly once per search.
    pub(crate) fn wants_steal(&self, spent: u64) -> bool {
        self.steal_at_tick.is_some_and(|t| spent >= t)
    }

    /// Has the forced-split threshold been crossed?  Latched by the scheduler exactly
    /// like [`FaultPlan::wants_steal`].
    pub(crate) fn wants_split(&self, spent: u64) -> bool {
        self.split_at_tick.is_some_and(|t| spent >= t)
    }
}

/// The amortization mask of the slow limit check: deadline / external cancellation /
/// fault hooks run once every `LIMIT_CHECK_MASK + 1` spent budget units, so the tick
/// hot loop stays a decrement plus one branch.
pub(crate) const LIMIT_CHECK_MASK: u64 = 1023;

/// The slow-path limits a search runs under: wall-clock deadline, external
/// cancellation, and the fault-injection plan.  All optional; the empty value is the
/// default and costs one `Option` test per amortized check.
#[derive(Clone, Debug, Default)]
pub(crate) struct Limits {
    pub(crate) deadline: Option<Instant>,
    pub(crate) cancel: Option<Arc<CancelToken>>,
    pub(crate) faults: Option<Arc<FaultPlan>>,
}

impl Limits {
    /// Any limit to check at all?  When false the amortized slow path is skipped
    /// entirely (the zero-cost-when-disabled guarantee of [`FaultPlan`]).
    pub(crate) fn is_empty(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none() && self.faults.is_none()
    }

    /// The amortized slow check, called every [`LIMIT_CHECK_MASK`]` + 1` ticks with the
    /// number of units spent so far.
    pub(crate) fn check(&self, spent: u64) -> Result<(), DecisionError> {
        if let Some(faults) = &self.faults {
            faults.at_tick(spent)?;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(DecisionError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(DecisionError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// The evaluation domain Δ for a database plus extra constants (those of the instance,
/// fact set or query the caller is comparing against).
pub fn evaluation_delta(
    db: &CDatabase,
    extra: impl IntoIterator<Item = Constant>,
) -> BTreeSet<Constant> {
    let mut delta = db.constants();
    delta.extend(extra);
    delta
}

// Database-level normalisation and the freeze construction moved to `pw-core` so the
// engine-independent certificate checker (`pw_check`) can replay the freeze reduction
// without depending on this crate; engine-side callers keep importing them from here.
pub use pw_core::{freeze_database, normalize_database};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engines;
    use crate::engine::{Engine, EngineConfig};
    use pw_condition::{VarGen, Variable};
    use pw_relational::Symbols;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn canonical_enumeration_counts() {
        let mut g = VarGen::new();
        let vars: Vec<Variable> = (0..3).map(|_| g.fresh()).collect();
        let delta: BTreeSet<Constant> = [Constant::int(7)].into();
        for engine in engines() {
            let count = AtomicUsize::new(0);
            engine
                .find_canonical_valuation(Symbols::global(), &vars, &delta, |_| {
                    count.fetch_add(1, Ordering::Relaxed);
                    None::<()>
                })
                .unwrap();
            // With |Δ| = 1 each variable takes 7, a fresh constant already in use, or the
            // next fresh one: 7,7,{7,f0}=2; 7,f0,{7,f0,f1}=3; f0,7,{7,f0,f1}=3;
            // f0,f0,{7,f0,f1}=3; f0,f1,{7,f0,f1,f2}=4  → 2+3+3+3+4 = 15, on every thread
            // count.
            assert_eq!(count.into_inner(), 15);
        }
    }

    #[test]
    fn early_exit_short_circuits() {
        let mut g = VarGen::new();
        let vars: Vec<Variable> = (0..2).map(|_| g.fresh()).collect();
        let delta: BTreeSet<Constant> = [Constant::int(1), Constant::int(2)].into();
        // The tree has 10 leaves: v0 ∈ {1, 2, f0}, then 3, 3 and 4 choices for v1.
        for engine in engines() {
            let seen = AtomicUsize::new(0);
            let result = engine
                .find_canonical_valuation(Symbols::global(), &vars, &delta, |v| {
                    seen.fetch_add(1, Ordering::Relaxed);
                    (v.get(vars[0]) == Some(Constant::int(2))).then_some("found")
                })
                .unwrap();
            assert_eq!(result, Some("found"));
            if engine.config().threads == 1 {
                // Sequentially the first witness is (2, 1), the 4th leaf in order.
                assert_eq!(seen.into_inner(), 4, "stopped at the first witness");
            }
        }
    }

    #[test]
    fn budget_is_enforced() {
        let mut g = VarGen::new();
        let vars: Vec<Variable> = (0..6).map(|_| g.fresh()).collect();
        let delta: BTreeSet<Constant> = (0..6).map(Constant::int).collect();
        for threads in [1, 2, 8] {
            let engine = Engine::new(EngineConfig::with_threads(threads, Budget(100)));
            let err =
                engine.find_canonical_valuation(Symbols::global(), &vars, &delta, |_| None::<()>);
            assert_eq!(err, Err(DecisionError::BudgetExceeded));
        }
        // The pool charges one unit per visited node and is empty when it reports
        // exhaustion.
        let pool = crate::engine::SharedBudget::new(Budget(100));
        for spent in 1..=100 {
            assert_eq!(pool.tick(), Ok(spent));
        }
        assert_eq!(pool.tick(), Err(BudgetExceeded));
        assert_eq!(pool.remaining(), 0);
    }

    #[test]
    fn strategy_display_names_are_stable() {
        assert_eq!(Strategy::CoddMatching.to_string(), "codd-matching");
        assert_eq!(Strategy::WorldEnumeration.to_string(), "world-enumeration");
        assert_eq!(Budget::default().0, 50_000_000);
    }
}
