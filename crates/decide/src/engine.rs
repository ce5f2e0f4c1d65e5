//! The parallel decision-engine substrate.
//!
//! The NP/coNP/Π₂ᵖ procedures of this crate are complete backtracking searches; on hard
//! inputs they peg a single core while every other core idles.  This module is the shared
//! substrate that drives all of them with any number of worker threads, and it holds the
//! one implementation of the covering, missing-fact and escaping-row searches and of the
//! canonical-valuation enumeration (membership's row assignment is defined in
//! [`crate::membership`] and driven here):
//!
//! * **search nodes** carry a cheaply-forkable [`ConstraintSet`] (undo-trail based
//!   checkpoint/rollback inside a worker, a real clone only when a node crosses threads);
//! * a **work-stealing scheduler** (the default): every worker owns a LIFO deque of
//!   unstarted subtree roots, solves its own newest node depth-first, and — when its
//!   deque runs dry — steals the *oldest* half of a victim's deque (FIFO steal-half:
//!   the shallowest checkpoints are the biggest subtrees), probing victims in an order
//!   drawn from a seeded per-run RNG so runs stay reproducible.  When every deque is
//!   empty but subtrees are still in flight, the busy workers *re-split*: the
//!   depth-first recursion polls a starvation flag and, when thieves are waiting,
//!   re-expands its shallowest live checkpoint — publishing the unexplored sibling
//!   subtrees onto the worker's deque instead of keeping them implicit on the call
//!   stack.  No unsafe code and no extra dependencies (the container has no crates.io
//!   access, so `rayon` is out of reach; `std::thread::scope` plus `Mutex<VecDeque>`
//!   deques carry the load).  The PR 1–7 static scheduler (breadth-first frontier of
//!   `threads × frontier_per_thread` roots drained from one shared queue) is kept
//!   behind [`EngineConfig::without_work_stealing`] as the equivalence oracle;
//! * an **atomic shared budget** ([`SharedBudget`]) charged by all workers, so a budget
//!   means the same total node count whether the search runs on 1 thread or 16;
//! * **early-exit cancellation**: the first witness flips a flag that stops every other
//!   worker at its next tick;
//! * a memoized, hash-consed **condition-satisfiability cache**
//!   ([`pw_condition::SatCache`]) shared by all searches of an [`Engine`], plus memoized
//!   per-database **base stores** (the global conditions asserted once, then cloned), which
//!   is what the batched front door ([`crate::batch`]) amortizes across requests;
//! * **evidence capture**: under [`EngineConfig::certify`] the first accepting leaf keeps
//!   its constraint store, so a certified decide reads its certificate off the search
//!   that decided it instead of searching a second time.
//!
//! # Semantics under parallelism
//!
//! Every search here decides an *existential* question ("is there a valuation …?").  The
//! engine guarantees, independently of thread count and scheduling:
//!
//! * `Ok(true)` and `Ok(false)` answers are **identical** to the sequential search's — a
//!   witness exists or it does not, and the engine explores the same tree;
//! * a found witness always wins over budget exhaustion: if any worker finds a witness the
//!   result is `Ok(true)` even if another worker ran out of budget concurrently;
//! * `Err(BudgetExceeded)` is reported **iff** the budget ran out before the tree was
//!   exhausted and no witness was found.  For a tree with no witness this outcome is
//!   deterministic (the tree size and the budget are both fixed numbers); when a witness
//!   exists *and* the budget is within a few nodes of the exact sequential visit count,
//!   scheduling decides whether the witness or the exhaustion is reached first — callers
//!   that need bit-for-bit reproducibility at tight budgets run with `threads = 1`.

use crate::common::{
    Budget, BudgetExceeded, CancelToken, DecisionError, FaultPlan, Limits, LIMIT_CHECK_MASK,
};
use pw_condition::Variable;
use pw_condition::{Atom, Conjunction, ConstraintSet, SatCache, Term};
use pw_core::{CDatabase, CTable, Certificate, DbDelta, Valuation};
use pw_relational::{Constant, Instance, Sym, Symbols, Tuple};
use std::any::Any;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Recover a lock whose holder panicked.  Every critical section in this module is a
/// single insert/lookup over an always-consistent map, so a poisoned guard carries no
/// broken invariant — propagating the poison would instead fail every *later* request
/// for a panic that was already contained.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a `catch_unwind` payload as the human-readable message for
/// [`DecisionError::WorkerPanicked`].
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// How a general (worst-case exponential) decision procedure should be driven.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads.  `1` reproduces the sequential search exactly.
    pub threads: usize,
    /// Total node budget, shared by all workers.
    pub budget: Budget,
    /// Frontier size per worker of the **static fallback scheduler**
    /// ([`EngineConfig::without_work_stealing`]): the search tree is expanded
    /// breadth-first until `threads × frontier_per_thread` subtree roots exist, then
    /// workers drain them from one shared queue.  Ignored by the default work-stealing
    /// scheduler, which balances load dynamically (steal-half plus subtree
    /// re-splitting) instead of guessing a cut depth up front.
    pub frontier_per_thread: usize,
    /// Dynamic work stealing (the default).  Disable with
    /// [`EngineConfig::without_work_stealing`] to pin the static frontier-split
    /// scheduler — answers, strategies and certificates are bit-identical either way
    /// (both schedulers explore the same tree and charge the same budget ticks); the
    /// flag exists so equivalence tests can cross-check the two paths.
    pub work_stealing: bool,
    /// Seed of the per-run victim-selection RNG of the work-stealing scheduler.  Each
    /// worker derives its probe order from `steal_seed` and its worker index
    /// (splitmix64), so a fixed seed makes the victim sequence reproducible run to run.
    pub steal_seed: u64,
    /// Wall-clock deadline per search, resolved to an absolute instant when each search
    /// (phase) starts and polled on the amortized limit check (~every 1024 ticks), so
    /// the hot loop stays branch-cheap.  A request is a small constant number of search
    /// phases, so a deadline-exceeded request returns well within a small multiple of
    /// this duration.  `None` (the default) checks nothing.
    pub deadline: Option<Duration>,
    /// Cooperative per-request cancellation: share the token with the caller, and any
    /// thread calling [`CancelToken::cancel`] stops every search driven under this
    /// configuration at its next amortized limit check with
    /// [`DecisionError::Cancelled`].  Rides the same signal path as first-witness
    /// cancellation and the deadline.
    pub cancel: Option<Arc<CancelToken>>,
    /// Upper bound on decision-memo entries.  When exceeded, a second-chance (clock)
    /// sweep evicts cold entries — certificates evict with their verdicts — except
    /// while a delta replay ([`crate::batch::Session::redecide_all`] or
    /// [`crate::batch::Session::push_delta`]) holds the memo pinned.
    /// `None` (the default) never evicts.
    pub memo_capacity: Option<usize>,
    /// Deterministic fault injection for the robustness test-suite; `None` (the
    /// default) injects nothing and costs nothing on the tick hot loop.
    pub faults: Option<Arc<FaultPlan>>,
    /// Fan requests out across independent shard groups when the database's coupling
    /// graph splits ([`pw_core::CDatabase::shard_groups`]).  On by default — answers are
    /// identical to the joint search (groups are variable-disjoint, so `rep(db)` is the
    /// product of the groups' representations) and the joint search's multiplicative
    /// cross-group backtracking becomes a sum of per-group searches.  Disable to force
    /// the joint search, e.g. to cross-check the equivalence in tests.
    pub per_shard: bool,
    /// Attach a [`pw_core::Certificate`] to every definite answer (see `pw_check` for
    /// the acceptance rules).  Off by default: certified decides pay for evidence
    /// extraction — every constraint search keeps its accepting leaf's store, and the
    /// certificate is completed from it — a bounded overhead (the bench harness tracks
    /// it), but not free.
    pub certify: bool,
}

impl EngineConfig {
    /// A single-threaded configuration: the sequential oracle every parallel run agrees with.
    pub fn sequential(budget: Budget) -> Self {
        EngineConfig {
            threads: 1,
            budget,
            frontier_per_thread: 8,
            work_stealing: true,
            steal_seed: 0,
            per_shard: true,
            certify: false,
            deadline: None,
            cancel: None,
            memo_capacity: None,
            faults: None,
        }
    }

    /// Use every available core.
    pub fn parallel(budget: Budget) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_threads(threads, budget)
    }

    /// An explicit thread count.
    pub fn with_threads(threads: usize, budget: Budget) -> Self {
        EngineConfig {
            threads: threads.max(1),
            budget,
            frontier_per_thread: 8,
            work_stealing: true,
            steal_seed: 0,
            per_shard: true,
            certify: false,
            deadline: None,
            cancel: None,
            memo_capacity: None,
            faults: None,
        }
    }

    /// Pin the static frontier-split scheduler of PR 1–7 (breadth-first frontier, one
    /// shared queue, no stealing).  Answers are bit-identical to the work-stealing
    /// default; equivalence tests run both and compare.
    pub fn without_work_stealing(mut self) -> Self {
        self.work_stealing = false;
        self
    }

    /// Seed the victim-selection RNG of the work-stealing scheduler (see
    /// [`EngineConfig::steal_seed`]).
    pub fn with_steal_seed(mut self, seed: u64) -> Self {
        self.steal_seed = seed;
        self
    }

    /// Disable the shard-group decomposition: every decision runs the joint search even
    /// when the coupling graph splits.
    pub fn without_per_shard(mut self) -> Self {
        self.per_shard = false;
        self
    }

    /// Enable certificate extraction: every definite answer carries evidence that
    /// `pw_check::verify` accepts.
    pub fn certified(mut self) -> Self {
        self.certify = true;
        self
    }

    /// Give every search a wall-clock deadline (see [`EngineConfig::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach a cooperative cancellation token (see [`EngineConfig::cancel`]).
    pub fn with_cancel(mut self, token: Arc<CancelToken>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Bound the decision memo (see [`EngineConfig::memo_capacity`]).  A capacity of 0
    /// is clamped to 1 — the memo's invariants assume the entry just inserted can live
    /// at least until its computation's caller returns.
    pub fn with_memo_capacity(mut self, capacity: usize) -> Self {
        self.memo_capacity = Some(capacity.max(1));
        self
    }

    /// Attach a deterministic [`FaultPlan`] (see [`EngineConfig::faults`]).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Resolve the slow-path limits for a search starting *now*: the deadline duration
    /// becomes an absolute instant, the cancel token and fault plan are shared.
    pub(crate) fn limits(&self) -> Limits {
        Limits {
            deadline: self.deadline.map(|d| Instant::now() + d),
            cancel: self.cancel.clone(),
            faults: self.faults.clone(),
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::sequential(Budget::default())
    }
}

/// An atomic search budget shared by all workers of a parallel search.
///
/// One unit per visited search node, and the search fails with [`BudgetExceeded`] when the
/// pool is empty.  The pool is drained concurrently, so a budget bounds the *total* work
/// across threads.
#[derive(Debug)]
pub struct SharedBudget {
    remaining: AtomicU64,
    initial: u64,
}

impl SharedBudget {
    /// A full pool.
    pub fn new(budget: Budget) -> Self {
        SharedBudget {
            remaining: AtomicU64::new(budget.0),
            initial: budget.0,
        }
    }

    /// Charge one unit; returns the total units spent so far across all workers.  The
    /// atomic decrement hands every caller a distinct spent-count, so "every N-th
    /// tick" conditions on the return value fire exactly once per N global ticks no
    /// matter how the ticks are spread over threads — that is what keeps the
    /// amortized deadline check cheap *and* deterministic in frequency.
    pub fn tick(&self) -> Result<u64, BudgetExceeded> {
        let prev = self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .map_err(|_| BudgetExceeded)?;
        Ok(self.initial - (prev - 1))
    }

    /// Unspent units.
    pub fn remaining(&self) -> u64 {
        self.remaining.load(Ordering::Relaxed)
    }

    /// Units spent so far across all workers (a relaxed snapshot — exact enough for
    /// the scheduler's fault-injection thresholds, which only need "at or after").
    pub fn spent(&self) -> u64 {
        self.initial.saturating_sub(self.remaining())
    }
}

/// Why a worker stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Stop {
    /// The search cannot continue — budget, deadline, external cancellation or an
    /// injected fault.  Carried up as the request's [`DecisionError`].
    Fail(DecisionError),
    /// Another worker of this search found a witness (or panicked): stop quietly,
    /// the driver already knows the outcome.
    Cancelled,
}

/// Shared per-search state: the budget pool and the early-exit flag.
///
/// The pool lives behind an `Arc` so several *consecutive* searches can drain one budget
/// (the two halves of the uniqueness complement) and so a shard-group conjunction can
/// give every group its own cancellation scope without splitting the pool: [`Ctx::fork`]
/// shares the budget but resets the flag — a witness found in one group must stop *that
/// group's* workers, not the next group's search.
pub(crate) struct Ctx {
    budget: Arc<SharedBudget>,
    cancel: AtomicBool,
    limits: Limits,
}

impl Ctx {
    pub(crate) fn new(budget: Budget) -> Self {
        Ctx {
            budget: Arc::new(SharedBudget::new(budget)),
            cancel: AtomicBool::new(false),
            limits: Limits::default(),
        }
    }

    /// Attach slow-path limits (deadline / external cancellation / fault plan); they
    /// are polled every [`LIMIT_CHECK_MASK`]` + 1` global ticks.
    pub(crate) fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// A context draining the same budget pool with a fresh cancellation scope.  The
    /// slow-path limits carry over: a deadline spans all groups of a fan-out.
    pub(crate) fn fork(&self) -> Ctx {
        Ctx {
            budget: Arc::clone(&self.budget),
            cancel: AtomicBool::new(false),
            limits: self.limits.clone(),
        }
    }

    /// Budget units spent so far (relaxed snapshot; see [`SharedBudget::spent`]).
    fn spent(&self) -> u64 {
        self.budget.spent()
    }

    /// Charge one unit and poll for cancellation; the wall-clock deadline, the
    /// external [`CancelToken`] and the fault plan are polled on the amortized slow
    /// path only (every [`LIMIT_CHECK_MASK`]` + 1` global ticks — the shared budget's
    /// unique spent-counts make that exactly one poll per window across all workers).
    fn tick(&self) -> Result<(), Stop> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(Stop::Cancelled);
        }
        let spent = self
            .budget
            .tick()
            .map_err(|_| Stop::Fail(DecisionError::BudgetExceeded))?;
        if spent & LIMIT_CHECK_MASK == 0 && !self.limits.is_empty() {
            self.limits.check(spent).map_err(Stop::Fail)?;
        }
        Ok(())
    }
}

/// A search tree the engine can drive: breadth-first expansion for the static
/// scheduler's frontier phase, depth-first completion for the workers of either
/// scheduler.
pub(crate) trait TreeSearch: Sync {
    /// A search node: owns its constraint store / assignment, independent of siblings.
    type Node: Send;

    /// Expand `node` one level, pushing children onto `out`.  Returns `Ok(true)` iff the
    /// node is an accepting leaf (children are then irrelevant).
    fn expand(&self, node: Self::Node, out: &mut Vec<Self::Node>, ctx: &Ctx) -> Result<bool, Stop>;

    /// Solve the subtree rooted at `node` to completion.
    fn dfs(&self, node: Self::Node, ctx: &Ctx) -> Result<bool, Stop>;

    /// [`TreeSearch::dfs`] with cooperative subtree re-splitting: while solving the
    /// subtree, poll `shed` and — when thieves are starving — publish unexplored
    /// sibling subtrees through [`Shed::offer`] instead of keeping them implicit on
    /// the call stack.  Answers must equal `dfs`'s exactly; shedding only moves
    /// subtrees, it never changes the explored set or the budget ticks they charge.
    /// The default never sheds (sound, but starves thieves — the concrete searches
    /// below all override it).
    fn dfs_shed(
        &self,
        node: Self::Node,
        ctx: &Ctx,
        shed: &dyn Shed<Self::Node>,
    ) -> Result<bool, Stop> {
        let _ = shed;
        self.dfs(node, ctx)
    }
}

/// The work-shedding half of the stealing protocol, handed to [`TreeSearch::dfs_shed`].
///
/// `wants_work` is a relaxed load (cheap enough to poll at every node); `offer` hands
/// split-off subtree roots to the scheduler, which queues them on the shedding worker's
/// own deque — thieves then steal them FIFO, shallowest (largest) first.
pub(crate) trait Shed<N>: Sync {
    /// Is some worker starving (or a forced-split fault pending)?
    fn wants_work(&self) -> bool;
    /// Publish split-off subtrees for idle workers to steal.  `nodes` must be fully
    /// independent of the caller's remaining local state (own store clone each).
    fn offer(&self, nodes: Vec<N>);
}

/// Scheduler observability counters, accumulated with relaxed atomics so the hot paths
/// pay one `fetch_add` per *event* (steal, re-split, idle poll, subtree completion),
/// never per node.
#[derive(Debug, Default)]
pub(crate) struct EngineStatsCounters {
    steals_attempted: AtomicU64,
    steals_succeeded: AtomicU64,
    resplits: AtomicU64,
    idle_polls: AtomicU64,
    peak_queue: AtomicU64,
    busy_total_ns: AtomicU64,
    busy_max_ns: AtomicU64,
}

impl EngineStatsCounters {
    fn note_queue_len(&self, len: usize) {
        self.peak_queue.fetch_max(len as u64, Ordering::Relaxed);
    }

    /// Record one worker's total busy time over a parallel search.
    fn note_worker_busy(&self, ns: u64) {
        self.busy_total_ns.fetch_add(ns, Ordering::Relaxed);
        self.busy_max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// Cumulative on-CPU nanoseconds of the calling thread, from the Linux scheduler's
/// own accounting.  `None` off Linux (or with schedstats compiled out) — the busy
/// clock then falls back to wall time, which is just as accurate whenever the host
/// is not oversubscribed.
fn thread_runtime_ns() -> Option<u64> {
    let raw = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    raw.split_whitespace().next()?.parse().ok()
}

/// A per-worker busy clock charging only the time spent solving subtrees (steal hunts
/// and idle polls are overhead, not load).  Prefers true on-CPU time so the
/// load-balance counters stay meaningful on timeshared or single-core hosts, where a
/// subtree's wall span includes other workers' slices.
struct BusyClock {
    cpu_start: Option<u64>,
    wall_start: Instant,
}

impl BusyClock {
    fn start() -> Self {
        BusyClock {
            cpu_start: thread_runtime_ns(),
            wall_start: Instant::now(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        match (self.cpu_start, thread_runtime_ns()) {
            (Some(start), Some(now)) => now.saturating_sub(start),
            _ => u64::try_from(self.wall_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }
}

/// A point-in-time snapshot of the work-stealing scheduler's counters
/// ([`Engine::stats`]), accumulated across every search the engine has driven.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Steal hunts started by dry workers (each hunt probes every victim once).
    pub steals_attempted: u64,
    /// Hunts that came back with at least one node.
    pub steals_succeeded: u64,
    /// Subtree re-splits: a busy worker re-expanded a live checkpoint and published
    /// the unexplored sibling subtrees for thieves.
    pub resplits: u64,
    /// Idle polls: a dry worker found every deque empty and yielded (work was still
    /// in flight, so it could not exit).
    pub idle_polls: u64,
    /// Deepest any worker deque ever got (a proxy for the static scheduler's frontier
    /// depth: how much splittable work was exposed at the busiest moment).
    pub peak_queue: u64,
    /// Nanoseconds all workers together spent solving subtrees (on-CPU time where the
    /// host exposes it, wall time otherwise), across every parallel search driven.
    pub busy_total_ns: u64,
    /// The busiest single worker's subtree-solving nanoseconds in any one search — the
    /// schedule's critical path.  On hardware with a free core per worker, a parallel
    /// search's wall clock converges to this; `busy_total_ns / busy_max_ns` is the
    /// scheduler's achievable speedup independent of how loaded the measuring host is.
    pub busy_max_ns: u64,
}

/// Drive a [`TreeSearch`] against an externally owned context, so several searches can
/// share one budget pool (the uniqueness complement threads one context through its two
/// halves this way).  Dispatches on the configuration: sequential, work-stealing (the default parallel path) or the
/// static frontier split ([`EngineConfig::without_work_stealing`]).
pub(crate) fn drive_ctx<S: TreeSearch>(
    search: &S,
    root: S::Node,
    cfg: &EngineConfig,
    ctx: &Ctx,
    stats: &EngineStatsCounters,
) -> Result<bool, DecisionError> {
    if cfg.threads <= 1 {
        return match search.dfs(root, ctx) {
            Ok(found) => Ok(found),
            Err(Stop::Fail(e)) => Err(e),
            // The internal first-witness flag is only set by parallel workers; if that
            // invariant ever drifts, report a cooperative stop instead of crashing.
            Err(Stop::Cancelled) => Err(DecisionError::Cancelled),
        };
    }
    if cfg.work_stealing {
        return drive_stealing(search, root, cfg, ctx, stats);
    }
    drive_static(search, root, cfg, ctx, stats)
}

/// The PR 1–7 static scheduler, kept verbatim behind
/// [`EngineConfig::without_work_stealing`] as the equivalence oracle for the stealing
/// path: carve a breadth-first frontier once, then drain it from one shared queue.
/// (Verbatim up to the load-balance bookkeeping: its workers feed the same per-worker
/// busy clock as the stealing workers, so the two schedules can be compared.)
fn drive_static<S: TreeSearch>(
    search: &S,
    root: S::Node,
    cfg: &EngineConfig,
    ctx: &Ctx,
    stats: &EngineStatsCounters,
) -> Result<bool, DecisionError> {
    // Phase 1: breadth-first expansion until the frontier can feed every worker.
    let target = cfg.threads * cfg.frontier_per_thread.max(1);
    let mut frontier: VecDeque<S::Node> = VecDeque::from_iter([root]);
    let mut children = Vec::new();
    while frontier.len() < target {
        let Some(node) = frontier.pop_front() else {
            // The whole tree was expanded without meeting an accepting leaf.
            return Ok(false);
        };
        children.clear();
        match search.expand(node, &mut children, ctx) {
            Ok(true) => return Ok(true),
            Ok(false) => frontier.extend(children.drain(..)),
            Err(Stop::Fail(e)) => return Err(e),
            // See the single-threaded arm: cancellation starts with the workers.
            Err(Stop::Cancelled) => return Err(DecisionError::Cancelled),
        }
    }

    // Phase 2: workers drain the frontier; LIFO pop keeps sibling subtrees together.
    let queue: Mutex<VecDeque<S::Node>> = Mutex::new(frontier);
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|_| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut busy_ns = 0u64;
                    let outcome = loop {
                        let node = lock_unpoisoned(queue).pop_back();
                        let Some(node) = node else {
                            break Outcome::Exhausted;
                        };
                        // The scoped-worker isolation boundary: a panicking search
                        // fails this request only.  The frontier lock is never held
                        // across `dfs`, so nothing can be poisoned; siblings are
                        // cancelled — with one subtree unexplored no definite answer
                        // is possible.
                        let clock = BusyClock::start();
                        let result = catch_unwind(AssertUnwindSafe(|| search.dfs(node, ctx)));
                        busy_ns += clock.elapsed_ns();
                        match result {
                            Ok(Ok(true)) => {
                                ctx.cancel.store(true, Ordering::Relaxed);
                                break Outcome::Found;
                            }
                            Ok(Ok(false)) => continue,
                            Ok(Err(Stop::Fail(e))) => break Outcome::Stopped(e),
                            Ok(Err(Stop::Cancelled)) => break Outcome::Cancelled,
                            Err(payload) => {
                                ctx.cancel.store(true, Ordering::Relaxed);
                                break Outcome::Panicked(panic_message(payload.as_ref()));
                            }
                        }
                    };
                    stats.note_worker_busy(busy_ns);
                    outcome
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| Outcome::Panicked(panic_message(payload.as_ref())))
            })
            .collect()
    });

    aggregate_outcomes(outcomes)
}

/// How one worker of a parallel search finished.
#[derive(PartialEq)]
enum Outcome {
    Found,
    Exhausted,
    Stopped(DecisionError),
    Cancelled,
    Panicked(String),
}

/// Merge per-worker outcomes into the search verdict.  A found witness is definite and
/// beats every failure; a panic means an unexplored subtree, which taints any
/// "exhausted" claim; among the cooperative stops, deadline/cancellation name the
/// request-level cause more precisely than the default budget exhaustion.  Shared by
/// both schedulers so the termination protocol cannot drift between them.
fn aggregate_outcomes(outcomes: Vec<Outcome>) -> Result<bool, DecisionError> {
    let mut panicked: Option<String> = None;
    let mut stopped: Option<DecisionError> = None;
    for outcome in outcomes {
        match outcome {
            Outcome::Found => return Ok(true),
            Outcome::Panicked(msg) => {
                if panicked.is_none() {
                    panicked = Some(msg);
                }
            }
            Outcome::Stopped(e) => {
                if matches!(stopped, None | Some(DecisionError::BudgetExceeded)) {
                    stopped = Some(e);
                }
            }
            Outcome::Exhausted | Outcome::Cancelled => {}
        }
    }
    if let Some(msg) = panicked {
        return Err(DecisionError::WorkerPanicked(msg));
    }
    if let Some(e) = stopped {
        return Err(e);
    }
    Ok(false)
}

/// A tiny splitmix64 stream for victim selection: statistically fine for load
/// balancing, deterministic per (seed, worker) so runs are reproducible, and free of
/// any crates.io dependency.
struct StealRng(u64);

impl StealRng {
    fn new(seed: u64, worker: u64) -> Self {
        StealRng(seed ^ (worker + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One worker's deque plus a lock-free mirror of its length, so the re-split throttle
/// in [`WorkerShed::wants_work`] — polled at every search node — never takes the lock.
struct WorkerQueue<N> {
    nodes: Mutex<VecDeque<N>>,
    /// Kept equal to `nodes.len()` by every push/pop/drain (all of which hold the
    /// lock); readers tolerate the relaxed staleness.
    len: AtomicU64,
}

impl<N> WorkerQueue<N> {
    fn empty() -> Self {
        WorkerQueue {
            nodes: Mutex::new(VecDeque::new()),
            len: AtomicU64::new(0),
        }
    }
}

/// Shared state of one work-stealing search: the per-worker deques plus the
/// termination and starvation counters.
struct Scheduler<'a, N> {
    /// One deque per worker.  The owner pushes and pops at the back (LIFO keeps it on
    /// its newest, deepest subtree); thieves take from the front (FIFO: the shallowest
    /// checkpoints are the biggest subtrees).
    deques: Vec<WorkerQueue<N>>,
    /// Queued nodes plus in-flight subtrees.  Zero means the whole tree is done:
    /// incremented *before* a node becomes visible in any deque, decremented after
    /// its subtree is fully solved, so a dry spell with work still in flight can
    /// never be mistaken for exhaustion.
    pending: AtomicU64,
    /// Workers currently hunting for work.  Non-zero is the re-split signal the
    /// depth-first recursions poll through [`Shed::wants_work`].
    hungry: AtomicU64,
    stats: &'a EngineStatsCounters,
    faults: Option<Arc<FaultPlan>>,
    /// One-shot latches for the injected steal/split faults.
    steal_fault_fired: AtomicBool,
    split_fault_fired: AtomicBool,
}

impl<N: Send> Scheduler<'_, N> {
    /// Should a forced-steal fault fire now?  Latches so it fires at most once.
    fn forced_steal(&self, spent: u64) -> bool {
        let Some(faults) = &self.faults else {
            return false;
        };
        faults.wants_steal(spent)
            && self
                .steal_fault_fired
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// Should a forced-split fault fire now?  Latches like [`Scheduler::forced_steal`].
    fn forced_split(&self, spent: u64) -> bool {
        let Some(faults) = &self.faults else {
            return false;
        };
        faults.wants_split(spent)
            && self
                .split_fault_fired
                .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// One steal hunt: probe every other worker once, in an order derived from the
    /// seeded RNG, and take the front (oldest, shallowest) half of the first non-empty
    /// deque found — the remainder of the haul queues on the thief's own deque and the
    /// first stolen node is returned for immediate processing.
    fn steal(&self, thief: usize, rng: &mut StealRng) -> Option<N> {
        self.stats.steals_attempted.fetch_add(1, Ordering::Relaxed);
        let n = self.deques.len();
        let start = (rng.next() % n as u64) as usize;
        for i in 0..n {
            let victim = (start + i) % n;
            if victim == thief {
                continue;
            }
            let mut haul: VecDeque<N> = {
                let mut vq = lock_unpoisoned(&self.deques[victim].nodes);
                if vq.is_empty() {
                    continue;
                }
                let take = vq.len().div_ceil(2);
                let haul = vq.drain(..take).collect();
                self.deques[victim]
                    .len
                    .store(vq.len() as u64, Ordering::Relaxed);
                haul
            };
            let first = haul.pop_front().expect("took at least one node");
            if !haul.is_empty() {
                let mut mine = lock_unpoisoned(&self.deques[thief].nodes);
                mine.extend(haul);
                self.deques[thief]
                    .len
                    .store(mine.len() as u64, Ordering::Relaxed);
                self.stats.note_queue_len(mine.len());
            }
            self.stats.steals_succeeded.fetch_add(1, Ordering::Relaxed);
            return Some(first);
        }
        None
    }
}

/// The per-worker face of the scheduler handed to [`TreeSearch::dfs_shed`].
struct WorkerShed<'a, 'b, N> {
    sched: &'a Scheduler<'b, N>,
    worker: usize,
    ctx: &'a Ctx,
}

impl<N: Send> Shed<N> for WorkerShed<'_, '_, N> {
    /// Re-split only while thieves are starving *and* the worker's own deque does not
    /// already hold enough queued subtrees to feed them: without the second condition
    /// a lone busy worker re-splits at every poll for as long as anyone is hungry,
    /// paying a store clone per published subtree that nobody is fast enough to
    /// claim.  Both loads are relaxed — a stale read only shifts the split by a node.
    fn wants_work(&self) -> bool {
        if self.sched.forced_split(self.ctx.spent()) {
            return true;
        }
        let hungry = self.sched.hungry.load(Ordering::Relaxed);
        hungry > 0 && self.sched.deques[self.worker].len.load(Ordering::Relaxed) < hungry
    }

    fn offer(&self, nodes: Vec<N>) {
        self.sched.stats.resplits.fetch_add(1, Ordering::Relaxed);
        // Count the nodes before publishing them (see `Scheduler::pending`).
        self.sched
            .pending
            .fetch_add(nodes.len() as u64, Ordering::Release);
        let own = &self.sched.deques[self.worker];
        let mut deque = lock_unpoisoned(&own.nodes);
        deque.extend(nodes);
        own.len.store(deque.len() as u64, Ordering::Relaxed);
        self.sched.stats.note_queue_len(deque.len());
    }
}

/// The dynamic work-stealing scheduler (the parallel default).  The root seeds worker
/// 0's deque; every worker then loops pop-own-back → steal → idle-poll, solving each
/// acquired subtree depth-first with [`TreeSearch::dfs_shed`] so a starving thief can
/// pull the victim's shallowest unexplored checkpoints out of its recursion.  The
/// first-witness/termination protocol is the static scheduler's exactly: witnesses
/// flip the shared cancel flag, panics are caught per worker, and the per-worker
/// outcomes merge through [`aggregate_outcomes`].
fn drive_stealing<S: TreeSearch>(
    search: &S,
    root: S::Node,
    cfg: &EngineConfig,
    ctx: &Ctx,
    stats: &EngineStatsCounters,
) -> Result<bool, DecisionError> {
    let sched: Scheduler<'_, S::Node> = Scheduler {
        deques: (0..cfg.threads).map(|_| WorkerQueue::empty()).collect(),
        pending: AtomicU64::new(1),
        hungry: AtomicU64::new(0),
        stats,
        faults: cfg.faults.clone(),
        steal_fault_fired: AtomicBool::new(false),
        split_fault_fired: AtomicBool::new(false),
    };
    lock_unpoisoned(&sched.deques[0].nodes).push_back(root);
    sched.deques[0].len.store(1, Ordering::Relaxed);
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.threads)
            .map(|w| {
                let sched = &sched;
                scope.spawn(move || stealing_worker(search, sched, w, cfg, ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| Outcome::Panicked(panic_message(payload.as_ref())))
            })
            .collect()
    });
    aggregate_outcomes(outcomes)
}

/// One worker of the stealing scheduler.
fn stealing_worker<S: TreeSearch>(
    search: &S,
    sched: &Scheduler<'_, S::Node>,
    worker: usize,
    cfg: &EngineConfig,
    ctx: &Ctx,
) -> Outcome {
    let mut busy_ns = 0u64;
    let outcome = stealing_worker_run(search, sched, worker, cfg, ctx, &mut busy_ns);
    sched.stats.note_worker_busy(busy_ns);
    outcome
}

/// The worker loop of [`stealing_worker`]; `busy_ns` accumulates the time spent inside
/// `dfs_shed` (solving subtrees), which is the worker's contribution to the schedule's
/// load-balance counters — steal hunts and idle polls are overhead, not load.
fn stealing_worker_run<S: TreeSearch>(
    search: &S,
    sched: &Scheduler<'_, S::Node>,
    worker: usize,
    cfg: &EngineConfig,
    ctx: &Ctx,
    busy_ns: &mut u64,
) -> Outcome {
    let mut rng = StealRng::new(cfg.steal_seed, worker as u64);
    let shed = WorkerShed { sched, worker, ctx };
    // While `starving` the worker is counted in `sched.hungry`, which is what makes
    // busy workers start shedding; the flag clears as soon as a node is acquired.
    let mut starving = false;
    let leave = |starving: bool, outcome: Outcome| {
        if starving {
            sched.hungry.fetch_sub(1, Ordering::Relaxed);
        }
        outcome
    };
    loop {
        if ctx.cancel.load(Ordering::Relaxed) {
            return leave(starving, Outcome::Cancelled);
        }
        // Injected fault: raid a victim before touching the own deque, so the steal
        // path is exercised even when local work never runs out.
        let forced = sched
            .forced_steal(ctx.spent())
            .then(|| sched.steal(worker, &mut rng))
            .flatten();
        let node = forced
            .or_else(|| {
                let own = &sched.deques[worker];
                let mut deque = lock_unpoisoned(&own.nodes);
                let node = deque.pop_back();
                own.len.store(deque.len() as u64, Ordering::Relaxed);
                node
            })
            .or_else(|| sched.steal(worker, &mut rng));
        let Some(node) = node else {
            if sched.pending.load(Ordering::Acquire) == 0 {
                return leave(starving, Outcome::Exhausted);
            }
            if !starving {
                sched.hungry.fetch_add(1, Ordering::Relaxed);
                starving = true;
            }
            sched.stats.idle_polls.fetch_add(1, Ordering::Relaxed);
            std::thread::yield_now();
            continue;
        };
        if starving {
            sched.hungry.fetch_sub(1, Ordering::Relaxed);
            starving = false;
        }
        // The same isolation boundary as the static scheduler: a panicking search
        // fails this request only, and no deque lock is ever held across `dfs_shed`.
        let clock = BusyClock::start();
        let result = catch_unwind(AssertUnwindSafe(|| search.dfs_shed(node, ctx, &shed)));
        *busy_ns += clock.elapsed_ns();
        sched.pending.fetch_sub(1, Ordering::Release);
        match result {
            Ok(Ok(true)) => {
                ctx.cancel.store(true, Ordering::Relaxed);
                return Outcome::Found;
            }
            Ok(Ok(false)) => continue,
            Ok(Err(Stop::Fail(e))) => return Outcome::Stopped(e),
            Ok(Err(Stop::Cancelled)) => return Outcome::Cancelled,
            Err(payload) => {
                ctx.cancel.store(true, Ordering::Relaxed);
                return Outcome::Panicked(panic_message(payload.as_ref()));
            }
        }
    }
}

/// Assert that the row instantiates to exactly `fact` and that its local condition holds.
/// The fact arrives pre-interned (front-door invariant), so this loop moves ids only.
fn assert_row_produces(
    store: &mut ConstraintSet,
    row_terms: &[Term],
    cond: &Conjunction,
    fact: &[Sym],
) -> bool {
    if !store.assert_conjunction(cond) {
        return false;
    }
    for (&term, &value) in row_terms.iter().zip(fact.iter()) {
        if !store.assert_eq(term, Term::Const(value)) {
            return false;
        }
    }
    true
}

/// Intern one complete fact through the database's symbol table — the front door where
/// external constants become engine ids.
pub(crate) fn intern_fact(db: &CDatabase, fact: &Tuple) -> Vec<Sym> {
    fact.iter().map(|c| db.intern(c)).collect()
}

/// Split an instance by the database's shard groups: `parts[g]` holds exactly the
/// relations of `facts` that live in group `g`.  `None` when a populated relation is
/// unknown to the database or arity-mismatched — the per-shard callers map that to the
/// same answer the joint search gives for an incompatible schema.
pub(crate) fn split_by_group(db: &CDatabase, facts: &Instance) -> Option<Vec<Instance>> {
    let group_of = db.shard_group_index();
    let mut parts = vec![Instance::new(); db.shard_groups().len()];
    for (name, rel) in facts.iter() {
        if rel.is_empty() {
            continue;
        }
        let pos = db.table_position(name)?;
        if db.tables()[pos].arity() != rel.arity() {
            return None;
        }
        parts[group_of[pos]].insert_relation(name.clone(), rel.clone());
    }
    Some(parts)
}

/// An instance holding exactly one fact, for the single-fact entry points.
pub(crate) fn single_fact_instance(relation: &str, fact: &Tuple) -> Instance {
    let mut single = Instance::new();
    let mut rel = pw_relational::Relation::empty(fact.arity());
    rel.insert(fact.clone()).expect("arity matches");
    single.insert_relation(relation.to_owned(), rel);
    single
}

/// What one constraint search decided.  `found` is the verdict; `leaf` is the store of
/// the accepting leaf that decided it — every assertion its branch made over the base
/// store — kept only when the engine certifies ([`EngineConfig::certify`]), so
/// [`crate::certify::complete`] can extend it to the certificate's total valuation.
pub(crate) struct Verdict {
    pub(crate) found: bool,
    pub(crate) leaf: Option<ConstraintSet>,
}

impl Verdict {
    /// No accepting leaf exists.
    pub(crate) const NOT_FOUND: Verdict = Verdict {
        found: false,
        leaf: None,
    };
}

// ---------------------------------------------------------------------------------------
// The engine proper.
// ---------------------------------------------------------------------------------------

/// A decision engine: a thread/budget configuration plus the caches that amortize repeated
/// work — the hash-consed condition-satisfiability cache and the per-database base stores.
///
/// Transient engines are created under the hood by the `decide_with` entry points of the
/// problem modules; the batched front door ([`crate::batch::decide_all`]) keeps one engine
/// for the whole batch so every request on the same database reuses the same preprocessing.
#[derive(Debug, Default)]
pub struct Engine {
    cfg: EngineConfig,
    sat_cache: SatCache,
    /// Base stores (all global conditions asserted) memoized per database; `None` records
    /// that the globals are jointly unsatisfiable, i.e. `rep(db) = ∅`.  Keyed by the
    /// database *value* (structural hash + equality), so cloned databases share an entry
    /// and distinct databases can never collide.
    base_stores: Mutex<HashMap<CDatabase, Option<ConstraintSet>>>,
    /// The decision memo: per-group verdicts keyed by the group database and a
    /// [`MemoSlot`].  The group database hashes as its cached structural fingerprint
    /// and compares structurally, so a shard group carried across a delta
    /// ([`pw_core::CDatabase::apply`]) replays its verdict while a rebuilt (dirty)
    /// group misses and is re-searched.  Only definite answers are stored — a
    /// budget-exceeded search is never memoized.  Certified decides store their
    /// evidence beside the verdict ([`MemoEntry`]), so a replayed group answer stays
    /// auditable.  Bounded by [`EngineConfig::memo_capacity`] with second-chance
    /// eviction ([`MemoTable`]).
    decision_memo: Mutex<MemoTable>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    /// Work-stealing scheduler counters, accumulated across every search this engine
    /// drives; snapshot via [`Engine::stats`].
    stats: EngineStatsCounters,
    /// An absolute deadline every search of this engine shares, on top of the
    /// configured per-search one: set on the inner engine of a search nested inside
    /// one request ([`Engine::with_deadline_at`]), so all of them stop at the request's
    /// deadline rather than each at its own.
    deadline_at: Option<Instant>,
}

/// The decision memo, laid out database → entries, so that retiring a database
/// touches only what it owns.
///
/// A memo key is a (group) database plus a [`MemoSlot`].  `by_db` maps each database
/// to its slots, and `by_rhs` indexes the containment entries by the database on their
/// right.  A hit is one probe of each level; [`MemoTable::retire`] drops the
/// retiring database's own slot map with one probe and then removes one slot per
/// containment entry that names it on the right, so its cost is the number of entries
/// it drops (one probe when it owns none), never the size of the memo.  The index holds
/// database handles (refcounts), not copies of the keys: a containment slot is fully
/// determined by its right-hand database.
///
/// Eviction policy, when the memo is bounded ([`EngineConfig::memo_capacity`] or an
/// eviction storm): every insert that pushes the entry count past the bound sweeps
/// the clock hand — a referenced entry (hit since the hand last passed) gets its bit
/// cleared and one more lap, an unreferenced one evicts, certificate and all.  While
/// `pins > 0` (a `batch::Session` delta replay in flight) nothing evicts; the unpin
/// re-enforces the bound.  Correctness does not depend on the policy at all: an
/// evicted entry is simply recomputed on the next miss, and only definite answers are
/// ever stored, so the recomputed verdict is identical.  An unbounded memo keeps no
/// clock.
#[derive(Debug, Default)]
struct MemoTable {
    by_db: HashMap<CDatabase, HashMap<MemoSlot, MemoEntry>>,
    /// Right-hand database → the left databases holding a containment entry that
    /// names it.
    by_rhs: HashMap<CDatabase, HashSet<CDatabase>>,
    /// Entries stored, across every database.
    len: usize,
    /// The clock hand's queue, present only when the memo is bounded.
    clock: Option<Clock>,
    evictions: u64,
    pins: u32,
}

/// The second-chance queue of a bounded memo: keys in insertion/second-chance order,
/// each stamped with the entry it was queued for.  Retirement does not sweep it, so it
/// may hold stale keys (their entry is gone, or was re-inserted under a newer stamp);
/// the eviction loop skips them, and [`MemoTable::retire`] compacts the queue when the
/// stale keys outnumber the live entries, which keeps the compaction cost amortized.
#[derive(Debug, Default)]
struct Clock {
    hand: VecDeque<(CDatabase, MemoSlot, u64)>,
    next_stamp: u64,
}

/// The part of a decision-memo key below its (group) database.  Every component is
/// held *structurally* — the request instance and the optional right-hand database
/// included — so two different questions can never collide into one entry (the same
/// "distinct keys can never collide" rule the base-store cache follows); hashing is
/// still one fingerprint word per database plus the instance walk.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct MemoSlot {
    op: MemoOp,
    /// The request's slice of the instance (empty for [`MemoOp::Containment`]).
    request: Instance,
    /// The right-hand group database of a [`MemoOp::Containment`] question.
    rhs: Option<CDatabase>,
}

impl MemoSlot {
    /// The slot of the containment question "is this group's representation
    /// contained in `rhs`'s?" — the only slot that names a right-hand database.
    fn containment(rhs: CDatabase) -> Self {
        MemoSlot {
            op: MemoOp::Containment,
            request: Instance::new(),
            rhs: Some(rhs),
        }
    }
}

impl MemoTable {
    /// An empty memo, with a clock iff it is bounded.
    fn new(bounded: bool) -> Self {
        MemoTable {
            clock: bounded.then(Clock::default),
            ..MemoTable::default()
        }
    }

    fn get_mut(&mut self, db: &CDatabase, slot: &MemoSlot) -> Option<&mut MemoEntry> {
        self.by_db.get_mut(db)?.get_mut(slot)
    }

    /// Store a new entry (the key must be absent), indexing it by its right-hand
    /// database and queueing it on the clock.
    fn insert(&mut self, db: &CDatabase, slot: MemoSlot, mut entry: MemoEntry) {
        if let Some(clock) = &mut self.clock {
            entry.stamp = clock.next_stamp;
            clock.next_stamp += 1;
            clock
                .hand
                .push_back((db.clone(), slot.clone(), entry.stamp));
        }
        if let Some(rhs) = &slot.rhs {
            self.by_rhs
                .entry(rhs.clone())
                .or_default()
                .insert(db.clone());
        }
        self.by_db
            .entry(db.clone())
            .or_default()
            .insert(slot, entry);
        self.len += 1;
    }

    /// Remove one entry (eviction); its clock position goes stale.
    fn remove(&mut self, db: &CDatabase, slot: &MemoSlot) {
        let Some(slots) = self.by_db.get_mut(db) else {
            return;
        };
        if slots.remove(slot).is_none() {
            return;
        }
        self.len -= 1;
        if slots.is_empty() {
            self.by_db.remove(db);
        }
        if let Some(rhs) = &slot.rhs {
            self.unindex(rhs, db);
        }
    }

    /// Forget that `left` holds a containment entry naming `rhs`.
    fn unindex(&mut self, rhs: &CDatabase, left: &CDatabase) {
        if let Some(lefts) = self.by_rhs.get_mut(rhs) {
            lefts.remove(left);
            if lefts.is_empty() {
                self.by_rhs.remove(rhs);
            }
        }
    }

    /// Drop every entry keyed by `db`, on either side, and return how many entries
    /// were visited (each one is dropped).
    fn retire(&mut self, db: &CDatabase) -> usize {
        let mut visited = 0;
        if let Some(own) = self.by_db.remove(db) {
            visited += own.len();
            self.len -= own.len();
            for rhs in own.keys().filter_map(|slot| slot.rhs.as_ref()) {
                self.unindex(rhs, db);
            }
        }
        if let Some(lefts) = self.by_rhs.remove(db) {
            let slot = MemoSlot::containment(db.clone());
            for left in lefts {
                visited += 1;
                if let Some(slots) = self.by_db.get_mut(&left) {
                    if slots.remove(&slot).is_some() {
                        self.len -= 1;
                    }
                    if slots.is_empty() {
                        self.by_db.remove(&left);
                    }
                }
            }
        }
        let MemoTable {
            by_db, clock, len, ..
        } = self;
        if let Some(clock) = clock {
            if clock.hand.len() > 2 * *len {
                clock.hand.retain(|(db, slot, stamp)| {
                    by_db
                        .get(db)
                        .and_then(|slots| slots.get(slot))
                        .is_some_and(|entry| entry.stamp == *stamp)
                });
            }
        }
        visited
    }

    /// The second-chance sweep down to `cap` entries (see [`MemoTable`]).
    fn evict_to(&mut self, cap: usize) {
        let Some(mut clock) = self.clock.take() else {
            return;
        };
        // After one full lap every stale key is gone and every survivor's referenced
        // bit is cleared, so the hand finds an eviction victim within 2·len steps —
        // the loop is bounded.
        let mut steps = clock.hand.len().saturating_mul(2);
        while self.len > cap && steps > 0 {
            steps -= 1;
            let Some((db, slot, stamp)) = clock.hand.pop_front() else {
                break;
            };
            match self.get_mut(&db, &slot) {
                Some(entry) if entry.stamp == stamp => {
                    if entry.referenced {
                        entry.referenced = false;
                        clock.hand.push_back((db, slot, stamp));
                    } else {
                        self.remove(&db, &slot);
                        self.evictions += 1;
                    }
                }
                // Stale hand position: the entry was retired with its database.
                _ => {}
            }
        }
        self.clock = Some(clock);
    }
}

/// A memoized per-group verdict, with the evidence a certified decide extracted for it.
/// Uncertified decides store `certificate: None`; a later certified decide of the same
/// key upgrades the entry in place (the verdict is deterministic, so the answer can
/// never disagree).
#[derive(Clone, Debug)]
struct MemoEntry {
    answer: bool,
    certificate: Option<Certificate>,
    /// Second-chance bit: set on every memo hit, cleared when the clock hand passes.
    referenced: bool,
    /// The entry's clock position (see [`Clock`]); 0 in an unbounded memo.
    stamp: u64,
}

/// The per-group decision primitives the engine memoizes.  Each is a deterministic
/// function of one shard-group sub-database and a normalized request, which is what
/// makes the verdict replayable after a delta leaves the group untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemoOp {
    /// Group-local membership: is the request's slice of the instance in `rep(group)`?
    Member,
    /// Group-local covering (possibility): does some world of the group contain the
    /// request's facts?
    Covering,
    /// Group-local certainty complement: does some world of the group miss one of the
    /// request's facts?
    MissingAny,
    /// Group-local uniqueness complement: does some row of the group escape the
    /// request's instance in some world?
    Escape,
    /// Group-pair containment: is the left group's representation contained in the
    /// right group's?  The key's `rhs` holds the right group.
    Containment,
}

/// Hit/miss counters of the decision memo, for tests and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Per-group verdicts replayed from the memo (no search ran).
    pub hits: u64,
    /// Per-group verdicts computed by a search (and stored, when definite).
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries evicted by the capacity bound ([`EngineConfig::memo_capacity`]) since
    /// the engine was built.
    pub evictions: u64,
}

impl Engine {
    /// An engine with the given configuration and empty caches.
    pub fn new(cfg: EngineConfig) -> Self {
        let bounded = memo_capacity(&cfg).is_some();
        Engine {
            cfg,
            sat_cache: SatCache::new(),
            base_stores: Mutex::new(HashMap::new()),
            decision_memo: Mutex::new(MemoTable::new(bounded)),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            stats: EngineStatsCounters::default(),
            deadline_at: None,
        }
    }

    /// Make every search of this engine stop at the absolute instant `at` (if any), or
    /// earlier under its configured deadline.  Crate-internal: the searches nested in
    /// one request (the per-world membership searches of the Π₂ᵖ containment) share the
    /// request's deadline through it.
    pub(crate) fn with_deadline_at(mut self, at: Option<Instant>) -> Self {
        self.deadline_at = at;
        self
    }

    /// A snapshot of the work-stealing scheduler's counters, accumulated across every
    /// search this engine has driven (sibling of [`Engine::memo_stats`]).  All zeros
    /// under the sequential or static-split configurations.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            steals_attempted: self.stats.steals_attempted.load(Ordering::Relaxed),
            steals_succeeded: self.stats.steals_succeeded.load(Ordering::Relaxed),
            resplits: self.stats.resplits.load(Ordering::Relaxed),
            idle_polls: self.stats.idle_polls.load(Ordering::Relaxed),
            peak_queue: self.stats.peak_queue.load(Ordering::Relaxed),
            busy_total_ns: self.stats.busy_total_ns.load(Ordering::Relaxed),
            busy_max_ns: self.stats.busy_max_ns.load(Ordering::Relaxed),
        }
    }

    /// Replay the verdict for `(op, db, request, rhs)` from the decision memo, or run
    /// `compute` and store its (definite) result — the one entry path for certified and
    /// uncertified decides alike, with the certificate as an optional payload.
    ///
    /// An entry answers the lookup when it exists and, for a caller that wants
    /// `evidence`, when it also holds a certificate.  Otherwise `compute` runs: an
    /// evidence-wanting caller then upgrades an existing entry in place (same clock
    /// slot), so subsequent replays stay auditable; an uncertified caller inserts only
    /// when no entry exists — the verdict is deterministic, so the first insert wins.
    /// Errors — budget exhaustion above all — are returned but never cached: a later
    /// call with more budget must be able to succeed.
    pub(crate) fn memo_decide(
        &self,
        op: MemoOp,
        db: &CDatabase,
        request: &Instance,
        rhs: Option<&CDatabase>,
        evidence: bool,
        compute: impl FnOnce() -> Result<(bool, Option<Certificate>), DecisionError>,
    ) -> Result<(bool, Option<Certificate>), DecisionError> {
        let slot = match rhs {
            Some(rhs) => {
                debug_assert!(op == MemoOp::Containment && request.relation_count() == 0);
                MemoSlot::containment(rhs.clone())
            }
            None => MemoSlot {
                op,
                request: request.clone(),
                rhs: None,
            },
        };
        {
            let mut memo = lock_unpoisoned(&self.decision_memo);
            if let Some(entry) = memo.get_mut(db, &slot) {
                if !evidence || entry.certificate.is_some() {
                    entry.referenced = true;
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    let certificate = evidence.then(|| entry.certificate.clone());
                    return Ok((entry.answer, certificate.flatten()));
                }
            }
        }
        // Compute outside the lock: a slow group search must not block unrelated
        // lookups, and — the per-group isolation boundary — a panicking group search
        // can poison nothing here.  The panic becomes this group's `WorkerPanicked`;
        // sibling groups and requests proceed.  A concurrent duplicate compute is
        // benign (the verdict is deterministic).
        let (answer, certificate) = catch_unwind(AssertUnwindSafe(compute))
            .unwrap_or_else(|p| Err(DecisionError::WorkerPanicked(panic_message(p.as_ref()))))?;
        self.memo_misses.fetch_add(1, Ordering::Relaxed);
        let mut memo = lock_unpoisoned(&self.decision_memo);
        match memo.get_mut(db, &slot) {
            // Upgrade in place: same clock position.
            Some(entry) if evidence => {
                entry.answer = answer;
                entry.certificate = certificate.clone();
                entry.referenced = false;
            }
            Some(_) => {}
            None => {
                let fresh = MemoEntry {
                    answer,
                    certificate: certificate.clone(),
                    referenced: false,
                    stamp: 0,
                };
                memo.insert(db, slot, fresh);
                self.enforce_memo_capacity(&mut memo);
            }
        }
        Ok((answer, certificate))
    }

    /// The second-chance sweep (see [`MemoTable`]).  No-op while the memo is pinned or
    /// unbounded.
    fn enforce_memo_capacity(&self, memo: &mut MemoTable) {
        let Some(cap) = memo_capacity(&self.cfg) else {
            return;
        };
        if memo.pins > 0 {
            return;
        }
        memo.evict_to(cap);
    }

    /// Pin the decision memo: nothing evicts while any pin is alive.  Held by the
    /// `batch::Session` delta paths around their replay batch, so eviction
    /// can never race an in-flight replay; dropping the last pin re-enforces the
    /// capacity bound.
    pub(crate) fn pin_memo(&self) -> MemoPin<'_> {
        lock_unpoisoned(&self.decision_memo).pins += 1;
        MemoPin { engine: self }
    }

    /// Current decision-memo counters.
    pub fn memo_stats(&self) -> MemoStats {
        let memo = lock_unpoisoned(&self.decision_memo);
        MemoStats {
            hits: self.memo_hits.load(Ordering::Relaxed),
            misses: self.memo_misses.load(Ordering::Relaxed),
            entries: memo.len,
            evictions: memo.evictions,
        }
    }

    /// Drop every cache entry keyed by `db` — the base store and all memoized
    /// verdicts, including the containment verdicts that name `db` on the right — and
    /// return how many memo entries were visited (each one is dropped).  Retirement is
    /// *by value*: it drops the entries of every database equal to `db`.
    ///
    /// A long-lived engine serving a mutating database calls this (via `batch`'s
    /// delta step) for the previous database value and for the shard groups the delta
    /// dissolved, so retired versions do not accumulate.  The cost is one probe of the
    /// base-store map and of each memo level plus the entries dropped; a database that
    /// owns no entry costs the probes alone, whatever the size of the memo.
    pub fn retire_database(&self, db: &CDatabase) -> usize {
        lock_unpoisoned(&self.base_stores).remove(db);
        lock_unpoisoned(&self.decision_memo).retire(db)
    }

    /// Purge the hash-consed condition-satisfiability entries that the delta `change`
    /// (from `retired` to `live`) removed from the database, and return how many
    /// candidate conditions were checked.  The complement of
    /// [`Engine::retire_database`] for the [`SatCache`]: conditions are shared across
    /// database versions (most rows survive a small delta), so a retire must be
    /// keep-aware — dropping everything `retired` ever interned would also purge the
    /// live database's entries.  Called by the `batch::Session` delta step (behind
    /// `redecide_all` and `push_delta`) when a delta replaces the database value.
    ///
    /// The purged set equals the whole-database difference — the conditions `retired`
    /// holds and `live` does not — computed from the change alone:
    ///
    /// * The candidates are the conditions of the **old** versions of
    ///   `change.changed_tables`.  Every other table of `retired` is also a table of
    ///   `live`, so its conditions stay live.
    /// * A candidate held by a table of one of `live`'s dirty groups stays live.
    /// * A candidate that names a variable cannot live anywhere else.  The variable
    ///   belonged to the old group of its changed table, which the delta dissolved,
    ///   and every group `live` carried over untouched is variable-disjoint from it.
    /// * A variable-free candidate can repeat in an untouched group, so one that no
    ///   dirty group holds is checked against the whole of `live` — the one step that
    ///   is not proportional to the change, and only for such candidates.
    ///
    /// The dead conditions then leave the cache one probe each ([`SatCache::forget`]).
    pub fn retire_conditions(
        &self,
        retired: &CDatabase,
        live: &CDatabase,
        change: &DbDelta,
    ) -> usize {
        fn conditions(table: &CTable) -> impl Iterator<Item = &Conjunction> {
            std::iter::once(table.global_condition())
                .chain(table.tuples().iter().map(|row| &row.condition))
        }
        let candidates: HashSet<&Conjunction> = change
            .changed_tables
            .iter()
            .flat_map(|&p| conditions(&retired.tables()[p]))
            .collect();
        if candidates.is_empty() {
            return 0;
        }
        let groups = live.shard_groups();
        let kept: HashSet<&Conjunction> = change
            .dirty_groups
            .iter()
            .flat_map(|&g| groups[g].database().tables())
            .flat_map(conditions)
            .collect();
        let dead: Vec<&Conjunction> = candidates
            .iter()
            .copied()
            .filter(|cond| !kept.contains(cond))
            .filter(|cond| {
                let names_a_variable = cond.atoms().iter().any(|a| a.variables().next().is_some());
                names_a_variable
                    || !live
                        .tables()
                        .iter()
                        .flat_map(conditions)
                        .any(|c| c == *cond)
            })
            .collect();
        self.sat_cache.forget(dead);
        candidates.len()
    }

    /// Replace the per-request budget.  Crate-internal: the retry front door
    /// ([`crate::batch::Session::decide_all_with_retry`]) escalates it between passes —
    /// sound because budget-exceeded outcomes are never memoized, so no cached verdict
    /// can disagree with a bigger-budget re-run.
    pub(crate) fn set_budget(&mut self, budget: Budget) {
        self.cfg.budget = budget;
    }

    /// Replace the per-search wall-clock deadline.  Crate-internal: the deadline-scoped
    /// batch front door ([`crate::batch::Session::decide_all_within`]) installs a
    /// per-batch deadline and restores the configured one afterwards — sound because
    /// the deadline resolves to an absolute instant at each search's start, and
    /// deadline-exceeded outcomes are never memoized.
    pub(crate) fn set_deadline(&mut self, deadline: Option<std::time::Duration>) {
        self.cfg.deadline = deadline;
    }

    /// A fresh search context for one request: the configured budget plus the
    /// slow-path limits, with the deadline resolved to an absolute instant *now*.
    pub(crate) fn ctx(&self) -> Ctx {
        let mut limits = self.cfg.limits();
        limits.deadline = self.deadline_from_now();
        Ctx::new(self.cfg.budget).with_limits(limits)
    }

    /// The deadline of a search starting *now*: the configured per-search deadline
    /// resolved to an instant, or the shared one ([`Engine::with_deadline_at`]),
    /// whichever comes first.
    pub(crate) fn deadline_from_now(&self) -> Option<Instant> {
        let own = self.cfg.deadline.map(|d| Instant::now() + d);
        match (own, self.deadline_at) {
            (Some(own), Some(shared)) => Some(own.min(shared)),
            (own, shared) => own.or(shared),
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shared condition-satisfiability cache.
    pub fn sat_cache(&self) -> &SatCache {
        &self.sat_cache
    }

    /// Are the global conditions of `db` jointly satisfiable?  Memoized (both through the
    /// sat-cache, per condition, and through the base-store cache, per database); a
    /// cached database answers with a map lookup, no store clone.
    pub fn has_satisfiable_globals(&self, db: &CDatabase) -> bool {
        {
            let cache = lock_unpoisoned(&self.base_stores);
            if let Some(store) = cache.get(db) {
                return store.is_some();
            }
        }
        self.base_store(db).is_some()
    }

    /// The base constraint store of `db`: every table's global condition asserted.
    /// `None` when the globals are jointly unsatisfiable (`rep(db) = ∅`).  Construction
    /// happens once per distinct database per engine; callers get a cheap clone.
    pub fn base_store(&self, db: &CDatabase) -> Option<ConstraintSet> {
        {
            let cache = lock_unpoisoned(&self.base_stores);
            if let Some(store) = cache.get(db) {
                return store.clone();
            }
        }
        // Construct outside the lock so a slow build never blocks unrelated lookups; a
        // concurrent duplicate build is benign (first insert wins).
        // The sat-cache pre-screens each table's condition, so repeated databases with a
        // shared unsatisfiable condition are rejected without union-find work; the store
        // construction below re-asserts the satisfiable ones.
        let built = if db
            .tables()
            .iter()
            .any(|t| !self.sat_cache.is_satisfiable(t.global_condition()))
        {
            None
        } else {
            let mut store = ConstraintSet::new();
            let mut ok = true;
            for table in db.tables() {
                if !store.assert_conjunction(table.global_condition()) {
                    ok = false;
                    break;
                }
            }
            ok.then_some(store)
        };
        let mut cache = lock_unpoisoned(&self.base_stores);
        cache.entry(db.clone()).or_insert(built).clone()
    }

    // -- the three constraint searches ---------------------------------------------------

    /// Is there a valuation (satisfying the global conditions) under which every fact of
    /// `facts` is produced by some row of its relation?  This is the core of the
    /// possibility problem: the produced world then *contains* `facts` (other rows may add
    /// more facts, which is allowed).
    pub fn exists_world_covering(
        &self,
        db: &CDatabase,
        facts: &Instance,
    ) -> Result<bool, DecisionError> {
        Ok(self.covering_ctx(db, facts, &self.ctx())?.found)
    }

    pub(crate) fn covering_ctx(
        &self,
        db: &CDatabase,
        facts: &Instance,
        ctx: &Ctx,
    ) -> Result<Verdict, DecisionError> {
        for (name, rel) in facts.iter() {
            if rel.is_empty() {
                continue;
            }
            match db.table(name) {
                Some(t) if t.arity() == rel.arity() => {}
                _ => return Ok(Verdict::NOT_FOUND),
            }
        }
        let Some(store) = self.base_store(db) else {
            return Ok(Verdict::NOT_FOUND);
        };
        // The database-wide number of each table's first row.
        let row_base = offsets(db.tables().iter().map(CTable::len));
        let work: Vec<(&CTable, usize, Vec<Sym>)> = facts
            .iter()
            .flat_map(|(name, rel)| {
                let table = db
                    .table_position(name)
                    .map(|i| (&db.tables()[i], row_base[i]));
                rel.iter()
                    .filter_map(move |fact| table.map(|(t, base)| (t, base, intern_fact(db, fact))))
            })
            .collect();
        let search = CoverSearch {
            work,
            rows: db.tables().iter().map(CTable::len).sum(),
        };
        let root = ChoiceNode {
            store,
            meta: search.root(),
        };
        self.drive_choices(&search, root, ctx)
    }

    /// Is there a valuation under which **some** fact of `facts` is produced by no row of
    /// its relation?  This is the complement question behind certainty (and half of
    /// uniqueness); the per-fact searches are independent subtrees, so a multi-fact call
    /// parallelizes across facts *and* within each fact's tree.
    ///
    /// Per row the search picks a reason it does not produce the fact: one position of the
    /// row differs from the fact, or one atom of its local condition is falsified.  Facts
    /// of relations the database does not have (or with the wrong arity) are missing from
    /// every world.
    pub fn exists_world_missing_any_fact(
        &self,
        db: &CDatabase,
        facts: &Instance,
    ) -> Result<bool, DecisionError> {
        Ok(self.missing_any_ctx(db, facts, &self.ctx())?.found)
    }

    pub(crate) fn missing_any_ctx(
        &self,
        db: &CDatabase,
        facts: &Instance,
        ctx: &Ctx,
    ) -> Result<Verdict, DecisionError> {
        let mut work: Vec<(&CTable, Vec<Sym>)> = Vec::new();
        for (name, rel) in facts.iter() {
            for fact in rel.iter() {
                match db.table(name) {
                    Some(t) if t.arity() == fact.arity() => work.push((t, intern_fact(db, fact))),
                    // No such relation: the fact is missing from every world, so the base
                    // store — any world at all — is the accepting leaf.
                    _ => {
                        return Ok(Verdict {
                            found: true,
                            leaf: self.cfg.certify.then(|| self.base_store(db)).flatten(),
                        })
                    }
                }
            }
        }
        if work.is_empty() {
            return Ok(Verdict::NOT_FOUND);
        }
        let Some(base) = self.base_store(db) else {
            // Empty representation: no world exists, hence no world missing a fact either
            // (certainty is vacuously true); callers handle the empty rep separately.
            return Ok(Verdict::NOT_FOUND);
        };
        let search = MissingSearch { work };
        let choices = Choices::new(&search, self.cfg.certify);
        let forest = ForestSearch {
            inner: &choices,
            root_count: search.work.len(),
            make_root: |fact_idx| {
                Some(ChoiceNode {
                    store: base.clone(),
                    meta: MissingMeta {
                        fact_idx,
                        row_idx: 0,
                    },
                })
            },
        };
        let found = drive_ctx(&forest, ForestNode::Roots, &self.cfg, ctx, &self.stats)?;
        Ok(choices.verdict(found))
    }

    /// Single-fact convenience wrapper for [`Engine::exists_world_missing_any_fact`].
    pub fn exists_world_missing_fact(
        &self,
        db: &CDatabase,
        relation: &str,
        fact: &Tuple,
    ) -> Result<bool, DecisionError> {
        self.exists_world_missing_any_fact(db, &single_fact_instance(relation, fact))
    }

    /// Is there a valuation under which some row produces a fact **outside** `instance`?
    /// The other half of the uniqueness complement; the per-row searches are independent
    /// subtrees.
    pub fn exists_world_with_fact_outside(
        &self,
        db: &CDatabase,
        instance: &Instance,
    ) -> Result<bool, DecisionError> {
        Ok(self.fact_outside_ctx(db, instance, &self.ctx())?.found)
    }

    pub(crate) fn fact_outside_ctx(
        &self,
        db: &CDatabase,
        instance: &Instance,
        ctx: &Ctx,
    ) -> Result<Verdict, DecisionError> {
        let Some(base) = self.base_store(db) else {
            return Ok(Verdict::NOT_FOUND);
        };
        let mut rows = Vec::new();
        let mut conditions = Vec::new();
        let mut fact_lists: Vec<Vec<Vec<Sym>>> = Vec::new();
        for table in db.tables() {
            let rel = instance.relation_or_empty(table.name(), table.arity());
            let facts: Vec<Vec<Sym>> = rel.iter().map(|f| intern_fact(db, f)).collect();
            let list_idx = fact_lists.len();
            fact_lists.push(facts);
            for row in table.tuples() {
                rows.push((row.terms.clone(), list_idx));
                conditions.push(row.condition.clone());
            }
        }
        let search = EscapeSearch { fact_lists, rows };
        let choices = Choices::new(&search, self.cfg.certify);
        let forest = ForestSearch {
            inner: &choices,
            root_count: conditions.len(),
            make_root: |row| {
                // The row must be present (local condition holds) to escape.
                let mut store = base.clone();
                store
                    .assert_conjunction(&conditions[row])
                    .then_some(ChoiceNode {
                        store,
                        meta: EscapeMeta { row, fact_idx: 0 },
                    })
            },
        };
        let found = drive_ctx(&forest, ForestNode::Roots, &self.cfg, ctx, &self.stats)?;
        Ok(choices.verdict(found))
    }

    /// Drive a [`ChoiceSearch`] through the engine's scheduler against an externally
    /// owned context, keeping the accepting leaf under [`EngineConfig::certify`].  This
    /// is also how `membership::backtracking` joins the parallel engine: the membership
    /// module defines the branches, the engine supplies scheduling, budget, limits,
    /// stats and evidence capture.
    pub(crate) fn drive_choices<S: ChoiceSearch>(
        &self,
        search: &S,
        root: ChoiceNode<S::Meta>,
        ctx: &Ctx,
    ) -> Result<Verdict, DecisionError> {
        let choices = Choices::new(search, self.cfg.certify);
        let found = drive_ctx(&choices, root, &self.cfg, ctx, &self.stats)?;
        Ok(choices.verdict(found))
    }

    // -- shard-group (per-shard) variants ------------------------------------------------
    //
    // When the database's coupling graph splits, the three constraint searches decompose
    // along the groups: rep(db) is the product of the groups' representations (groups are
    // variable-disjoint), so an existential question about the whole database is either a
    // conjunction of per-group questions (covering: *every* group must have a covering
    // valuation) or a disjunction (a fact missing / a fact escaping *somewhere*).  The
    // disjunctions stay one forest — the same shared budget and first-witness
    // cancellation, with each root cloning its *group's* base store instead of the joint
    // one — while the conjunction runs the groups back to back, draining one budget pool
    // through forked contexts (a witness in one group must not cancel the next group's
    // search).  Answers are bit-identical to the joint search by construction; what
    // changes is the tree: the joint search re-explores every earlier group's
    // alternatives each time a later group fails, the decomposition pays each group once.

    /// [`Engine::exists_world_covering`] decomposed over the shard groups: the facts are
    /// split per group and every group must cover its part.  Callers dispatch here only
    /// when the coupling graph splits (`db.shard_groups().len() > 1`).  Each group's
    /// verdict goes through the decision memo, so after a delta only the dirty groups
    /// re-search.
    pub fn exists_world_covering_per_shard(
        &self,
        db: &CDatabase,
        facts: &Instance,
    ) -> Result<bool, DecisionError> {
        let Some(parts) = split_by_group(db, facts) else {
            return Ok(false);
        };
        let ctx = self.ctx();
        for (group, part) in db.shard_groups().iter().zip(&parts) {
            // A group with no facts still gates the conjunction: its globals must be
            // satisfiable (the joint base store asserts them too), which is exactly what
            // `covering_ctx` on an empty part checks.
            let (covered, _) = self.memo_decide(
                MemoOp::Covering,
                group.database(),
                part,
                None,
                false,
                || {
                    let verdict = self.covering_ctx(group.database(), part, &ctx.fork())?;
                    Ok((verdict.found, None))
                },
            )?;
            if !covered {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// [`Engine::exists_world_missing_any_fact`] decomposed over the shard groups: a
    /// fact can only be missing from a world of the group owning its relation, so the
    /// disjunction runs group by group — each group's slice of the facts searched
    /// against the group's base store (one budget pool threaded through forked
    /// contexts), with the group verdict going through the decision memo.
    ///
    /// Trade-off: the pre-memo implementation drove one forest over *all* facts, so on
    /// a cold engine a witness in a late group could cancel the earlier groups'
    /// refutations mid-flight; the per-group sequence pays each earlier group's full
    /// refutation once before reaching that witness.  The memo is the compensation —
    /// on every decision after the first, untouched groups replay instead of
    /// re-searching at all (the serving pattern this subsystem exists for).
    pub fn exists_world_missing_any_fact_per_shard(
        &self,
        db: &CDatabase,
        facts: &Instance,
    ) -> Result<bool, DecisionError> {
        self.missing_any_per_shard_ctx(db, facts, &self.ctx())
    }

    pub(crate) fn missing_any_per_shard_ctx(
        &self,
        db: &CDatabase,
        facts: &Instance,
        ctx: &Ctx,
    ) -> Result<bool, DecisionError> {
        let group_of = db.shard_group_index();
        let mut parts: Vec<Instance> = vec![Instance::new(); db.shard_groups().len()];
        let mut any_fact = false;
        for (name, rel) in facts.iter() {
            if rel.is_empty() {
                continue;
            }
            match db.table_position(name) {
                Some(pos) if db.tables()[pos].arity() == rel.arity() => {
                    parts[group_of[pos]].insert_relation(name.clone(), rel.clone());
                    any_fact = true;
                }
                // No such relation (or wrong arity): missing from every world.
                _ => return Ok(true),
            }
        }
        if !any_fact {
            return Ok(false);
        }
        if db
            .shard_groups()
            .iter()
            .any(|g| !self.has_satisfiable_globals(g.database()))
        {
            // Empty representation — same outcome as the joint search's missing base
            // store; callers handle the vacuous-certainty case separately.
            return Ok(false);
        }
        for (group, part) in db.shard_groups().iter().zip(&parts) {
            if part.relation_count() == 0 {
                continue;
            }
            let (missing, _) = self.memo_decide(
                MemoOp::MissingAny,
                group.database(),
                part,
                None,
                false,
                || {
                    let verdict = self.missing_any_ctx(group.database(), part, &ctx.fork())?;
                    Ok((verdict.found, None))
                },
            )?;
            if missing {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// [`Engine::exists_world_with_fact_outside`] decomposed over the shard groups: a
    /// row can only escape into a world of its own group, so the disjunction runs group
    /// by group against the group's base store and slice of the instance, with the
    /// group verdict going through the decision memo.
    pub fn exists_world_with_fact_outside_per_shard(
        &self,
        db: &CDatabase,
        instance: &Instance,
    ) -> Result<bool, DecisionError> {
        self.fact_outside_per_shard_ctx(db, instance, &self.ctx())
    }

    pub(crate) fn fact_outside_per_shard_ctx(
        &self,
        db: &CDatabase,
        instance: &Instance,
        ctx: &Ctx,
    ) -> Result<bool, DecisionError> {
        // Empty representation (some group's globals unsatisfiable ⇒ the joint globals
        // are): no world exists, hence no world with an extra fact — the outcome the
        // joint search's missing base store yields.
        if db
            .shard_groups()
            .iter()
            .any(|g| !self.has_satisfiable_globals(g.database()))
        {
            return Ok(false);
        }
        for group in db.shard_groups() {
            let gdb = group.database();
            let mut part = Instance::new();
            for table in gdb.tables() {
                if let Some(rel) = instance.relation(table.name()) {
                    if rel.arity() == table.arity() && !rel.is_empty() {
                        part.insert_relation(table.name().to_owned(), rel.clone());
                    }
                }
            }
            let (escapes, _) = self.memo_decide(MemoOp::Escape, gdb, &part, None, false, || {
                Ok((self.fact_outside_ctx(gdb, &part, &ctx.fork())?.found, None))
            })?;
            if escapes {
                return Ok(true);
            }
        }
        Ok(false)
    }

    // -- canonical-valuation enumeration -------------------------------------------------

    /// Enumerate the *canonical* valuations of `vars` into Δ ∪ Δ′ and return the result of
    /// the first `visit` call that produces `Some`.
    ///
    /// Canonicity: fresh (Δ′) constants are introduced in a fixed order — a variable may
    /// be mapped to the i-th fresh constant only if fresh constants `0..i` are already in
    /// use by earlier variables.  Every valuation into Δ ∪ Δ′ is the composition of a
    /// canonical one with a permutation of Δ′; since the decision problems only compare
    /// query outputs against facts over Δ (and QPTIME queries are generic), restricting to
    /// canonical valuations is sound and complete, exactly as in the proof of
    /// Proposition 2.1.  Known constants are tried first, then the fresh constants already
    /// in use, then one new fresh constant; each visited valuation charges one budget unit.
    ///
    /// `symbols` is the id space the valuations are built in — callers pass the subject
    /// database's handle (`view.db.symbols()`), so the enumeration works unchanged over a
    /// private dictionary (the handle-threading rule: nothing below the front door touches
    /// the global table implicitly).
    ///
    /// Under parallelism the valuation that "wins" is whichever worker reports first, so
    /// callers must treat the witness as *a* witness, not *the lexicographically first*
    /// witness; the decision (`Some` vs `None`) is schedule-independent.
    pub fn find_canonical_valuation<R, F>(
        &self,
        symbols: &Symbols,
        vars: &[Variable],
        delta: &BTreeSet<Constant>,
        visit: F,
    ) -> Result<Option<R>, DecisionError>
    where
        R: Send,
        F: Fn(&Valuation) -> Option<R> + Sync,
    {
        let fresh = pw_relational::domain::fresh_constants(delta, vars.len());
        let search = EnumSearch {
            vars,
            // Intern once here; the enumeration below copies machine words only.
            delta: delta.iter().map(|c| symbols.intern(c)).collect(),
            fresh: fresh.iter().map(|c| symbols.intern(c)).collect(),
            visit,
            witness: Mutex::new(None),
        };
        let root = EnumNode {
            assignment: Vec::new(),
            fresh_used: 0,
        };
        let found = drive_ctx(&search, root, &self.cfg, &self.ctx(), &self.stats)?;
        Ok(if found {
            search
                .witness
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        } else {
            None
        })
    }
}

/// The capacity a memo under `cfg` is held to: the configured bound, or 1 under an
/// injected eviction storm ([`FaultPlan::eviction_storm`]).  `None` is unbounded.
fn memo_capacity(cfg: &EngineConfig) -> Option<usize> {
    if cfg.faults.as_ref().is_some_and(|f| f.eviction_storm) {
        return Some(1);
    }
    cfg.memo_capacity.map(|c| c.max(1))
}

/// RAII guard of [`Engine::pin_memo`]: decision-memo eviction is disabled until every
/// pin is dropped.
pub(crate) struct MemoPin<'a> {
    engine: &'a Engine,
}

impl Drop for MemoPin<'_> {
    fn drop(&mut self) {
        let mut memo = lock_unpoisoned(&self.engine.decision_memo);
        memo.pins = memo.pins.saturating_sub(1);
        if memo.pins == 0 {
            self.engine.enforce_memo_capacity(&mut memo);
        }
    }
}

// -- choice searches: one branching loop for every constraint search -------------------

/// A constraint search in the shape of a CSP: a node pairs a [`ConstraintSet`] with
/// cheap metadata, and extends the store by filling one of its open **slots** (a row of
/// the membership search, a fact of the covering search) with one of that slot's
/// **branches**.  The branch set is defined once, here; [`Choices`] owns the one loop
/// that decides *which* slot to fill at each node (fail-first, see
/// [`Choices::choose`]), so the sequential DFS, the stealing workers and the static
/// frontier phase build the same tree — the "parallel answers equal sequential
/// answers" invariant is pinned structurally, not by keeping several loops in sync.
///
/// Completeness never depends on the order: every open slot must be filled on the way
/// to an accepting leaf, so branching on any one of them, over all its branches, loses
/// no leaf.  That is why the paper's NP procedures (Theorem 3.1) may fill rows in any
/// order — and why the order is free to be chosen per node for speed.
///
/// (The canonical-valuation enumerator is the one search not expressed this way: its
/// state is a plain assignment vector, not a constraint store, and its two phases already
/// share a single choice generator, `EnumSearch::choices`.)
pub(crate) trait ChoiceSearch: Sync {
    /// The store-independent part of a node (which slots are filled, bookkeeping).
    type Meta: Send + Clone;

    /// Is this an accepting leaf?
    fn is_leaf(&self, meta: &Self::Meta) -> bool;

    /// The slots still open at this (non-accepting) node, in ascending order.  None at
    /// all rejects the node.
    fn open_slots<'m>(&'m self, meta: &'m Self::Meta) -> impl Iterator<Item = usize> + 'm;

    /// Static tie-break between slots with equally many consistent branches: the higher
    /// weight is filled first.
    fn weight(&self, _slot: usize) -> usize {
        0
    }

    /// Number of candidate branches of an open slot.
    fn branch_count(&self, meta: &Self::Meta, slot: usize) -> usize;

    /// Assert branch `k` of `slot` into the store; `false` if the store became
    /// inconsistent.  Either way the caller rolls back or discards the store.
    fn assert_branch(
        &self,
        store: &mut ConstraintSet,
        meta: &Self::Meta,
        slot: usize,
        k: usize,
    ) -> bool;

    /// The metadata of the child reached by a consistent branch `k` of `slot`.
    fn child(&self, meta: &Self::Meta, slot: usize, k: usize) -> Self::Meta;
}

/// The start of each run in a concatenation of runs of the given lengths — numbering
/// rows or facts database-wide for a [`SlotSet`].
pub(crate) fn offsets(lens: impl Iterator<Item = usize>) -> Vec<usize> {
    lens.scan(0, |next, len| {
        let start = *next;
        *next += len;
        Some(start)
    })
    .collect()
}

pub(crate) struct ChoiceNode<M> {
    pub(crate) store: ConstraintSet,
    pub(crate) meta: M,
}

/// A set of small indices (filled slots, covered facts, used rows): one inline `u128`
/// for universes of up to [`SlotSet::INLINE`] indices, so the searches' per-node
/// metadata forks without allocating; larger universes spill to a boxed bit vector.
#[derive(Clone, Debug)]
pub(crate) enum SlotSet {
    Inline(u128),
    Spilled(Box<[u64]>),
}

impl SlotSet {
    const INLINE: usize = 128;

    /// The empty set over indices `0..universe`.
    pub(crate) fn empty(universe: usize) -> Self {
        if universe <= Self::INLINE {
            SlotSet::Inline(0)
        } else {
            SlotSet::Spilled(vec![0; universe.div_ceil(64)].into_boxed_slice())
        }
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        match self {
            SlotSet::Inline(bits) => bits >> i & 1 == 1,
            SlotSet::Spilled(words) => words[i / 64] >> (i % 64) & 1 == 1,
        }
    }

    /// This set plus `i`.
    pub(crate) fn with(&self, i: usize) -> Self {
        match self {
            SlotSet::Inline(bits) => SlotSet::Inline(bits | 1 << i),
            SlotSet::Spilled(words) => {
                let mut words = words.clone();
                words[i / 64] |= 1 << (i % 64);
                SlotSet::Spilled(words)
            }
        }
    }
}

/// A no-op [`Shed`]: the sequential DFS is [`Choices::rec`] with nobody to shed to.
struct NoShed;

impl<N> Shed<N> for NoShed {
    fn wants_work(&self) -> bool {
        false
    }

    fn offer(&self, _: Vec<N>) {}
}

/// Adapter driving a [`ChoiceSearch`] as a [`TreeSearch`].  With `capture` on (the
/// engine certifies), the first accepting leaf reached — by the sequential DFS, a stealing
/// worker or the static frontier phase alike — keeps a copy of its store in `leaf`, the
/// same filled-once slot [`EnumSearch`] keeps its witness in.
struct Choices<'a, S> {
    search: &'a S,
    capture: bool,
    leaf: Mutex<Option<ConstraintSet>>,
}

impl<'a, S: ChoiceSearch> Choices<'a, S> {
    fn new(search: &'a S, capture: bool) -> Self {
        Choices {
            search,
            capture,
            leaf: Mutex::new(None),
        }
    }

    /// An accepting leaf: keep its store if capturing (first leaf wins).
    fn accept(&self, store: &ConstraintSet) -> Result<bool, Stop> {
        if self.capture {
            lock_unpoisoned(&self.leaf).get_or_insert_with(|| store.clone());
        }
        Ok(true)
    }

    /// The search's [`Verdict`], carrying the captured leaf (if any).
    fn verdict(self, found: bool) -> Verdict {
        Verdict {
            found,
            leaf: self
                .leaf
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// The slot to branch on at a non-accepting node, or `None` to prune it.
    ///
    /// Every open slot's branches are probed against the store (checkpoint/rollback,
    /// not ticked).  A slot left with no consistent branch prunes the node — forward
    /// checking over the [`ConstraintSet`].  Otherwise the slot with the fewest
    /// consistent branches is chosen (fail-first), ties going to the higher
    /// [`ChoiceSearch::weight`], then to the lower index.  The choice is a function of
    /// the store's constraints and the metadata only, so every engine phase picks the
    /// same slot at the same node.
    ///
    /// Two shortcuts leave the choice unchanged.  A lone open slot has nothing to
    /// choose and is returned unprobed: branching on it finds the same consistent
    /// branches.  And a slot's probe stops once it has found a consistent branch and
    /// enough of them that it can no longer beat the best slot so far.
    fn choose(&self, store: &mut ConstraintSet, meta: &S::Meta) -> Option<usize> {
        let mut slots = self.search.open_slots(meta).peekable();
        let first = slots.next()?;
        if slots.peek().is_none() {
            return Some(first);
        }
        // (consistent branches, weight, slot) of the best slot so far.
        let mut best: Option<(usize, usize, usize)> = None;
        for slot in std::iter::once(first).chain(slots) {
            let weight = self.search.weight(slot);
            // Slots come in ascending order, so a later one must strictly beat `best`.
            let beaten =
                |live: usize| best.is_some_and(|(l, w, _)| live > l || (live == l && weight <= w));
            let mut live = 0;
            for k in 0..self.search.branch_count(meta, slot) {
                let cp = store.checkpoint();
                live += usize::from(self.search.assert_branch(store, meta, slot, k));
                store.rollback(cp);
                if live > 0 && beaten(live) {
                    break;
                }
            }
            if live == 0 {
                return None;
            }
            if !beaten(live) {
                best = Some((live, weight, slot));
            }
        }
        best.map(|(_, _, slot)| slot)
    }

    /// The children of a node on the chosen slot, each with its own store clone.
    fn children(
        &self,
        store: &ConstraintSet,
        meta: &S::Meta,
        slot: usize,
    ) -> Vec<ChoiceNode<S::Meta>> {
        (0..self.search.branch_count(meta, slot))
            .filter_map(|k| {
                let mut store = store.clone();
                self.search
                    .assert_branch(&mut store, meta, slot, k)
                    .then(|| ChoiceNode {
                        store,
                        meta: self.search.child(meta, slot, k),
                    })
            })
            .collect()
    }

    /// The depth-first search of a subtree, with cooperative re-splitting.  Every node
    /// charges one tick at entry, then chooses its slot ([`Choices::choose`]) and walks
    /// the slot's consistent branches with checkpoint/rollback.  Only when a thief is
    /// starving does a node materialize its children as independent store clones, keep
    /// the first and shed the rest — the same children, each ticked once at entry, so
    /// budget accounting cannot tell the two paths apart.
    fn rec(
        &self,
        store: &mut ConstraintSet,
        meta: &S::Meta,
        ctx: &Ctx,
        shed: &dyn Shed<ChoiceNode<S::Meta>>,
    ) -> Result<bool, Stop> {
        ctx.tick()?;
        if self.search.is_leaf(meta) {
            return self.accept(store);
        }
        let Some(slot) = self.choose(store, meta) else {
            return Ok(false);
        };
        let n = self.search.branch_count(meta, slot);
        if n > 1 && shed.wants_work() {
            let mut kids = self.children(store, meta, slot).into_iter();
            let Some(mut first) = kids.next() else {
                return Ok(false);
            };
            let rest: Vec<_> = kids.collect();
            if !rest.is_empty() {
                shed.offer(rest);
            }
            return self.rec(&mut first.store, &first.meta, ctx, shed);
        }
        for k in 0..n {
            let cp = store.checkpoint();
            if self.search.assert_branch(store, meta, slot, k) {
                let child = self.search.child(meta, slot, k);
                if self.rec(store, &child, ctx, shed)? {
                    return Ok(true);
                }
            }
            store.rollback(cp);
        }
        Ok(false)
    }
}

impl<S: ChoiceSearch> TreeSearch for Choices<'_, S> {
    type Node = ChoiceNode<S::Meta>;

    fn expand(
        &self,
        mut node: Self::Node,
        out: &mut Vec<Self::Node>,
        ctx: &Ctx,
    ) -> Result<bool, Stop> {
        ctx.tick()?;
        if self.search.is_leaf(&node.meta) {
            return self.accept(&node.store);
        }
        if let Some(slot) = self.choose(&mut node.store, &node.meta) {
            out.extend(self.children(&node.store, &node.meta, slot));
        }
        Ok(false)
    }

    fn dfs(&self, mut node: Self::Node, ctx: &Ctx) -> Result<bool, Stop> {
        self.rec(&mut node.store, &node.meta, ctx, &NoShed)
    }

    fn dfs_shed(
        &self,
        mut node: Self::Node,
        ctx: &Ctx,
        shed: &dyn Shed<Self::Node>,
    ) -> Result<bool, Stop> {
        self.rec(&mut node.store, &node.meta, ctx, shed)
    }
}

// -- covering search --------------------------------------------------------------------

/// Possibility's covering search: a slot per fact to cover, a branch per row of the
/// fact's table.  Distinct facts must come from distinct rows.
struct CoverSearch<'a> {
    /// One entry per fact to cover: the table it must come from, the index of that
    /// table's first row in the database-wide row numbering, and the interned fact.
    work: Vec<(&'a CTable, usize, Vec<Sym>)>,
    /// Rows in the database-wide numbering (the universe of [`CoverMeta::used`]).
    rows: usize,
}

#[derive(Clone)]
struct CoverMeta {
    /// Facts covered so far (slots filled).
    covered: SlotSet,
    /// How many facts are covered.
    count: usize,
    /// Rows already producing a covered fact, database-wide numbering.
    used: SlotSet,
}

impl CoverSearch<'_> {
    fn root(&self) -> CoverMeta {
        CoverMeta {
            covered: SlotSet::empty(self.work.len()),
            count: 0,
            used: SlotSet::empty(self.rows),
        }
    }
}

impl ChoiceSearch for CoverSearch<'_> {
    type Meta = CoverMeta;

    fn is_leaf(&self, meta: &CoverMeta) -> bool {
        meta.count == self.work.len()
    }

    fn open_slots<'m>(&'m self, meta: &'m CoverMeta) -> impl Iterator<Item = usize> + 'm {
        (0..self.work.len()).filter(|&fact| !meta.covered.contains(fact))
    }

    fn branch_count(&self, _: &CoverMeta, fact: usize) -> usize {
        self.work[fact].0.len()
    }

    fn assert_branch(
        &self,
        store: &mut ConstraintSet,
        meta: &CoverMeta,
        fact: usize,
        row_idx: usize,
    ) -> bool {
        let (table, base, values) = &self.work[fact];
        let row = &table.tuples()[row_idx];
        !meta.used.contains(base + row_idx)
            && assert_row_produces(store, &row.terms, &row.condition, values)
    }

    fn child(&self, meta: &CoverMeta, fact: usize, row_idx: usize) -> CoverMeta {
        CoverMeta {
            covered: meta.covered.with(fact),
            count: meta.count + 1,
            used: meta.used.with(self.work[fact].1 + row_idx),
        }
    }
}

// -- missing-fact search ----------------------------------------------------------------

/// Certainty's missing-fact search for one fact: its table's rows are the slots, filled
/// in row order (one open slot at a time); a branch is a reason the row does not
/// produce the fact.
struct MissingSearch<'a> {
    /// One entry per fact whose absence is sought: its table and the interned fact.
    work: Vec<(&'a CTable, Vec<Sym>)>,
}

#[derive(Clone, Copy)]
struct MissingMeta {
    fact_idx: usize,
    row_idx: usize,
}

impl ChoiceSearch for MissingSearch<'_> {
    type Meta = MissingMeta;

    fn is_leaf(&self, meta: &MissingMeta) -> bool {
        meta.row_idx == self.work[meta.fact_idx].0.len()
    }

    fn open_slots<'m>(&'m self, meta: &'m MissingMeta) -> impl Iterator<Item = usize> + 'm {
        std::iter::once(meta.row_idx)
    }

    /// Per row, a reason it does not produce the fact: one per position of the row
    /// (differs from the fact there) followed by one per local-condition atom (falsified).
    fn branch_count(&self, meta: &MissingMeta, row_idx: usize) -> usize {
        let row = &self.work[meta.fact_idx].0.tuples()[row_idx];
        row.terms.len() + row.condition.len()
    }

    fn assert_branch(
        &self,
        store: &mut ConstraintSet,
        meta: &MissingMeta,
        row_idx: usize,
        k: usize,
    ) -> bool {
        let (table, fact) = &self.work[meta.fact_idx];
        let row = &table.tuples()[row_idx];
        if k < row.terms.len() {
            // Reason 1: position k of the row differs from the fact.
            store.assert_neq(row.terms[k], Term::Const(fact[k]))
        } else {
            // Reason 2: atom k of the local condition is falsified.
            match row.condition.atoms()[k - row.terms.len()] {
                Atom::Eq(a, b) => store.assert_neq(a, b),
                Atom::Neq(a, b) => store.assert_eq(a, b),
            }
        }
    }

    fn child(&self, meta: &MissingMeta, row_idx: usize, _: usize) -> MissingMeta {
        MissingMeta {
            fact_idx: meta.fact_idx,
            row_idx: row_idx + 1,
        }
    }
}

// -- escape (fact outside the instance) search ------------------------------------------

/// Uniqueness's escaping-row search for one row: the instance facts of its table are
/// the slots, filled in order (one open slot at a time); a branch is a position where
/// the row differs from the fact.
struct EscapeSearch {
    /// Per originating table: the interned instance facts the row has to differ from.
    fact_lists: Vec<Vec<Vec<Sym>>>,
    /// The candidate rows: their terms and the fact list of their table.
    rows: Vec<(Vec<Term>, usize)>,
}

#[derive(Clone, Copy)]
struct EscapeMeta {
    row: usize,
    fact_idx: usize,
}

impl ChoiceSearch for EscapeSearch {
    type Meta = EscapeMeta;

    fn is_leaf(&self, meta: &EscapeMeta) -> bool {
        let (_, fact_list) = self.rows[meta.row];
        meta.fact_idx == self.fact_lists[fact_list].len()
    }

    fn open_slots<'m>(&'m self, meta: &'m EscapeMeta) -> impl Iterator<Item = usize> + 'm {
        std::iter::once(meta.fact_idx)
    }

    /// One branch per position where the row could differ from the fact.
    fn branch_count(&self, meta: &EscapeMeta, _: usize) -> usize {
        self.rows[meta.row].0.len()
    }

    fn assert_branch(
        &self,
        store: &mut ConstraintSet,
        meta: &EscapeMeta,
        fact_idx: usize,
        k: usize,
    ) -> bool {
        let (terms, fact_list) = &self.rows[meta.row];
        let fact = &self.fact_lists[*fact_list][fact_idx];
        store.assert_neq(terms[k], Term::Const(fact[k]))
    }

    fn child(&self, meta: &EscapeMeta, fact_idx: usize, _: usize) -> EscapeMeta {
        EscapeMeta {
            row: meta.row,
            fact_idx: fact_idx + 1,
        }
    }
}

// -- forests: several independent root subtrees in one search ---------------------------

/// Wraps a [`TreeSearch`] so a *set* of roots (independent subtrees — one per fact, one
/// per row, …) can be driven as a single search with one shared budget and one
/// cancellation scope.
///
/// Roots are materialized **lazily** through `make_root` (which may return `None` to skip
/// a seed, e.g. a row whose local condition contradicts the globals): a sequential drive
/// that succeeds on the first subtree never pays for the stores of the remaining ones.
/// A parallel drive materializes them when the super-root is expanded onto the frontier —
/// that is the point of the frontier.
struct ForestSearch<'a, S, F> {
    inner: &'a S,
    root_count: usize,
    make_root: F,
}

enum ForestNode<N> {
    /// The synthetic super-root: stands for all not-yet-materialized subtree roots.
    Roots,
    /// A node of one of the subtrees.
    Inner(N),
}

impl<S, F> TreeSearch for ForestSearch<'_, S, F>
where
    S: TreeSearch,
    F: Fn(usize) -> Option<S::Node> + Sync,
{
    type Node = ForestNode<S::Node>;

    fn expand(&self, node: Self::Node, out: &mut Vec<Self::Node>, ctx: &Ctx) -> Result<bool, Stop> {
        match node {
            ForestNode::Roots => {
                // The super-root fans out into the independent subtree roots.
                out.extend(
                    (0..self.root_count)
                        .filter_map(|k| (self.make_root)(k))
                        .map(ForestNode::Inner),
                );
                Ok(false)
            }
            ForestNode::Inner(n) => {
                let mut inner_out = Vec::new();
                let accepted = self.inner.expand(n, &mut inner_out, ctx)?;
                out.extend(inner_out.into_iter().map(ForestNode::Inner));
                Ok(accepted)
            }
        }
    }

    fn dfs(&self, node: Self::Node, ctx: &Ctx) -> Result<bool, Stop> {
        match node {
            ForestNode::Roots => {
                for k in 0..self.root_count {
                    let Some(root) = (self.make_root)(k) else {
                        continue;
                    };
                    if self.inner.dfs(root, ctx)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            ForestNode::Inner(n) => self.inner.dfs(n, ctx),
        }
    }

    fn dfs_shed(
        &self,
        node: Self::Node,
        ctx: &Ctx,
        shed: &dyn Shed<Self::Node>,
    ) -> Result<bool, Stop> {
        let wrap = WrapShed { outer: shed };
        match node {
            ForestNode::Roots => {
                for k in 0..self.root_count {
                    // A starving thief takes all the later roots in one haul; each is a
                    // whole independent subtree, the best split available here.
                    if k + 1 < self.root_count && shed.wants_work() {
                        let rest: Vec<_> = (k + 1..self.root_count)
                            .filter_map(|j| (self.make_root)(j))
                            .map(ForestNode::Inner)
                            .collect();
                        if !rest.is_empty() {
                            shed.offer(rest);
                        }
                        let Some(root) = (self.make_root)(k) else {
                            return Ok(false);
                        };
                        return self.inner.dfs_shed(root, ctx, &wrap);
                    }
                    let Some(root) = (self.make_root)(k) else {
                        continue;
                    };
                    if self.inner.dfs_shed(root, ctx, &wrap)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            ForestNode::Inner(n) => self.inner.dfs_shed(n, ctx, &wrap),
        }
    }
}

/// Adapter letting a forest's inner search shed through the forest-level [`Shed`]: the
/// inner subtree roots it publishes are wrapped back into [`ForestNode::Inner`].
struct WrapShed<'a, N> {
    outer: &'a dyn Shed<ForestNode<N>>,
}

impl<N: Send> Shed<N> for WrapShed<'_, N> {
    fn wants_work(&self) -> bool {
        self.outer.wants_work()
    }

    fn offer(&self, nodes: Vec<N>) {
        self.outer
            .offer(nodes.into_iter().map(ForestNode::Inner).collect());
    }
}

// -- canonical-valuation enumeration ----------------------------------------------------

struct EnumSearch<'a, R, F> {
    vars: &'a [Variable],
    delta: Vec<Sym>,
    fresh: Vec<Sym>,
    visit: F,
    witness: Mutex<Option<R>>,
}

#[derive(Clone)]
struct EnumNode {
    /// Interned values only: forking a node is a flat memcpy.
    assignment: Vec<Sym>,
    fresh_used: usize,
}

impl<R, F> EnumSearch<'_, R, F>
where
    R: Send,
    F: Fn(&Valuation) -> Option<R> + Sync,
{
    /// Candidate values for the next variable given how many fresh constants are in use:
    /// all of Δ, the fresh constants already used, and at most one new fresh constant.
    fn choices(&self, fresh_used: usize) -> impl Iterator<Item = (Sym, usize)> + '_ {
        let fresh_limit = (fresh_used + 1).min(self.fresh.len());
        self.delta
            .iter()
            .copied()
            .map(move |c| (c, fresh_used))
            .chain(
                self.fresh[..fresh_limit]
                    .iter()
                    .enumerate()
                    .map(move |(i, &c)| (c, fresh_used.max(i + 1))),
            )
    }

    fn visit_leaf(&self, assignment: &[Sym], ctx: &Ctx) -> Result<bool, Stop> {
        ctx.tick()?;
        let valuation =
            Valuation::from_pairs(self.vars.iter().copied().zip(assignment.iter().copied()));
        if let Some(r) = (self.visit)(&valuation) {
            let mut witness = lock_unpoisoned(&self.witness);
            witness.get_or_insert(r);
            return Ok(true);
        }
        Ok(false)
    }

    fn dfs_rec(
        &self,
        assignment: &mut Vec<Sym>,
        fresh_used: usize,
        ctx: &Ctx,
    ) -> Result<bool, Stop> {
        if assignment.len() == self.vars.len() {
            return self.visit_leaf(assignment, ctx);
        }
        for (value, new_used) in self.choices(fresh_used) {
            assignment.push(value);
            let found = self.dfs_rec(assignment, new_used, ctx)?;
            assignment.pop();
            if found {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// [`EnumSearch::dfs_rec`] with re-splitting.  Only leaves tick (matching `dfs_rec`
    /// and `expand`), so moving interior nodes between workers is invisible to the
    /// budget; an assignment prefix is a flat `Vec<Sym>`, so splitting is a memcpy.
    fn rec_shed(
        &self,
        assignment: &mut Vec<Sym>,
        fresh_used: usize,
        ctx: &Ctx,
        shed: &dyn Shed<EnumNode>,
    ) -> Result<bool, Stop> {
        if assignment.len() == self.vars.len() {
            return self.visit_leaf(assignment, ctx);
        }
        if shed.wants_work() {
            let mut kids: Vec<EnumNode> = self
                .choices(fresh_used)
                .map(|(value, new_used)| {
                    let mut forked = assignment.clone();
                    forked.push(value);
                    EnumNode {
                        assignment: forked,
                        fresh_used: new_used,
                    }
                })
                .collect();
            if kids.len() > 1 {
                let mut first = kids.remove(0);
                shed.offer(kids);
                return self.rec_shed(&mut first.assignment, first.fresh_used, ctx, shed);
            }
        }
        for (value, new_used) in self.choices(fresh_used) {
            assignment.push(value);
            let found = self.rec_shed(assignment, new_used, ctx, shed)?;
            assignment.pop();
            if found {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

impl<R, F> TreeSearch for EnumSearch<'_, R, F>
where
    R: Send,
    F: Fn(&Valuation) -> Option<R> + Sync,
{
    type Node = EnumNode;

    fn expand(&self, node: EnumNode, out: &mut Vec<EnumNode>, ctx: &Ctx) -> Result<bool, Stop> {
        if node.assignment.len() == self.vars.len() {
            return self.visit_leaf(&node.assignment, ctx);
        }
        for (value, new_used) in self.choices(node.fresh_used) {
            let mut assignment = node.assignment.clone();
            assignment.push(value);
            out.push(EnumNode {
                assignment,
                fresh_used: new_used,
            });
        }
        Ok(false)
    }

    fn dfs(&self, mut node: EnumNode, ctx: &Ctx) -> Result<bool, Stop> {
        self.dfs_rec(&mut node.assignment, node.fresh_used, ctx)
    }

    fn dfs_shed(
        &self,
        mut node: EnumNode,
        ctx: &Ctx,
        shed: &dyn Shed<EnumNode>,
    ) -> Result<bool, Stop> {
        self.rec_shed(&mut node.assignment, node.fresh_used, ctx, shed)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pw_condition::VarGen;
    use pw_core::{CTuple, Delta};
    use pw_relational::{rel, tup};

    /// The thread counts every engine-level unit test runs at: sequential, 2 and 8.
    pub(crate) fn configs() -> Vec<EngineConfig> {
        [1, 2, 8]
            .into_iter()
            .map(|threads| EngineConfig::with_threads(threads, Budget(1_000_000)))
            .collect()
    }

    pub(crate) fn engines() -> Vec<Engine> {
        configs().into_iter().map(Engine::new).collect()
    }

    #[test]
    fn slot_sets_agree_inline_and_spilled() {
        for universe in [SlotSet::INLINE, SlotSet::INLINE + 1, 300] {
            let members = [0, 63, 64, 127, universe - 1];
            let set = members
                .iter()
                .fold(SlotSet::empty(universe), |set, &i| set.with(i));
            assert_eq!(
                matches!(set, SlotSet::Inline(_)),
                universe <= SlotSet::INLINE
            );
            for i in 0..universe {
                assert_eq!(set.contains(i), members.contains(&i), "{i} of {universe}");
            }
        }
    }

    #[test]
    fn covering_agrees_across_thread_counts() {
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
            assert!(engine
                .exists_world_covering(&db, &Instance::single("R", rel![[1, 5]]))
                .unwrap());
            assert!(engine
                .exists_world_covering(&db, &Instance::single("R", rel![[1, 5], [7, 2]]))
                .unwrap());
            assert!(!engine
                .exists_world_covering(&db, &Instance::single("R", rel![[1, 5], [7, 2], [1, 6]]))
                .unwrap());
            assert!(!engine
                .exists_world_covering(&db, &Instance::single("R", rel![[3, 4]]))
                .unwrap());
        }
    }

    #[test]
    fn missing_fact_agrees_across_thread_counts() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::codd("R", 1, [vec![Term::constant(1)], vec![Term::Var(x)]]).unwrap();
        let db = CDatabase::single(t);
        for engine in engines() {
            assert!(!engine
                .exists_world_missing_fact(&db, "R", &tup![1])
                .unwrap());
            assert!(engine
                .exists_world_missing_fact(&db, "R", &tup![2])
                .unwrap());
            assert!(engine
                .exists_world_missing_fact(&db, "S", &tup![1])
                .unwrap());
        }
    }

    #[test]
    fn fact_outside_agrees_across_thread_counts() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::codd("R", 1, [vec![Term::constant(1)], vec![Term::Var(x)]]).unwrap();
        let db = CDatabase::single(t);
        let ground = CDatabase::single(CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap());
        for engine in engines() {
            assert!(engine
                .exists_world_with_fact_outside(&db, &Instance::single("R", rel![[1]]))
                .unwrap());
            assert!(!engine
                .exists_world_with_fact_outside(&ground, &Instance::single("R", rel![[1]]))
                .unwrap());
        }
    }

    #[test]
    fn conditional_rows_are_respected_in_parallel() {
        let mut g = VarGen::new();
        let x = g.fresh();
        // Row (1) present iff x = 0; row (2) present iff x ≠ 0: mutually exclusive.
        let t = CTable::new(
            "R",
            1,
            Conjunction::truth(),
            [
                CTuple::with_condition([Term::constant(1)], Conjunction::new([Atom::eq(x, 0)])),
                CTuple::with_condition([Term::constant(2)], Conjunction::new([Atom::neq(x, 0)])),
            ],
        )
        .unwrap();
        let db = CDatabase::single(t);
        for engine in engines() {
            assert!(engine
                .exists_world_covering(&db, &Instance::single("R", rel![[1]]))
                .unwrap());
            assert!(!engine
                .exists_world_covering(&db, &Instance::single("R", rel![[1], [2]]))
                .unwrap());
            // (1) is missing exactly when x ≠ 0.
            assert!(engine
                .exists_world_missing_fact(&db, "R", &tup![1])
                .unwrap());
        }
    }

    #[test]
    fn canonical_enumeration_matches_sequential_count_semantics() {
        // The parallel enumerator must see exactly the canonical valuations: witness
        // existence must agree with the sequential enumerator on a predicate that holds
        // for one specific canonical valuation only.
        let mut g = VarGen::new();
        let vars: Vec<Variable> = (0..3).map(|_| g.fresh()).collect();
        let delta: BTreeSet<Constant> = [Constant::int(7)].into();
        for engine in engines() {
            // A witness that requires a *fresh* constant in second position.
            let found = engine
                .find_canonical_valuation(Symbols::global(), &vars, &delta, |v| {
                    let second = v.get(vars[1])?;
                    (second != Constant::int(7)).then_some(second)
                })
                .unwrap();
            assert!(found.is_some(), "fresh-constant valuations are enumerated");
            // An unsatisfiable predicate has no witness on any thread count.
            let none = engine
                .find_canonical_valuation(Symbols::global(), &vars, &delta, |_| None::<()>)
                .unwrap();
            assert!(none.is_none());
        }
    }

    #[test]
    fn budget_exceeded_is_deterministic_when_no_witness_exists() {
        let mut g = VarGen::new();
        let vars: Vec<Variable> = (0..8).map(|_| g.fresh()).collect();
        let delta: BTreeSet<Constant> = (0..8).map(Constant::int).collect();
        for threads in [1, 2, 8] {
            let engine = Engine::new(EngineConfig::with_threads(threads, Budget(200)));
            for _ in 0..3 {
                let r = engine
                    .find_canonical_valuation(Symbols::global(), &vars, &delta, |_| None::<()>);
                assert_eq!(
                    r.err(),
                    Some(DecisionError::BudgetExceeded),
                    "no witness + tree larger than budget ⇒ always BudgetExceeded ({threads} threads)"
                );
            }
        }
    }

    /// Every condition a database holds: each table's global and row conditions.
    fn all_conditions(db: &CDatabase) -> HashSet<Conjunction> {
        db.tables()
            .iter()
            .flat_map(|t| {
                std::iter::once(t.global_condition().clone())
                    .chain(t.tuples().iter().map(|row| row.condition.clone()))
            })
            .collect()
    }

    /// The change-scoped purge of [`Engine::retire_conditions`] removes exactly the
    /// conditions a whole-database diff would: over random single-relation deltas,
    /// merges of two groups, and a variable-free condition held by rows of two groups
    /// at once (retracting one holder must keep it; retracting both must purge it).
    #[test]
    fn retire_conditions_purges_exactly_the_whole_database_diff() {
        use pw_workloads::{coupling_delta, mutation_stream, TableParams};
        let shared = Conjunction::single(Atom::neq(Term::constant(1), 2));
        let mut purged_shared = 0;
        for seed in 0..4 {
            let params = TableParams {
                rows: 3,
                arity: 2,
                constants: 4,
                null_density: 0.4,
                seed,
            };
            let stream = mutation_stream(6, &params, 30);
            let engine = Engine::default();
            let mut db = stream.base;
            for (step, stream_delta) in stream.deltas.into_iter().enumerate() {
                let groups = db.shard_groups();
                let first_table = |g: usize| db.tables()[groups[g].members()[0]].name().to_owned();
                let delta = match step % 6 {
                    // Merge the first and the last group.
                    1 if groups.len() > 1 => coupling_delta(&db, 0, groups.len() - 1),
                    // The variable-free condition lands in two groups at once.
                    2 => {
                        let row = |v| {
                            CTuple::with_condition(
                                [Term::constant(v), Term::constant(v)],
                                shared.clone(),
                            )
                        };
                        Delta::new()
                            .insert(first_table(0), row(0))
                            .insert(first_table(groups.len() - 1), row(1))
                    }
                    // Retract the youngest row of one of them (it may hold `shared`).
                    4 | 5 => {
                        let g = if step % 6 == 4 { 0 } else { groups.len() - 1 };
                        let name = first_table(g);
                        let len = db.table(&name).unwrap().len();
                        if len < 2 {
                            stream_delta
                        } else {
                            Delta::new().retract(name, len - 1)
                        }
                    }
                    _ => stream_delta,
                };
                let Ok((next, change)) = db.apply(&delta) else {
                    continue;
                };
                let before = all_conditions(&db);
                let after = all_conditions(&next);
                for cond in before.iter().chain(&after) {
                    engine.sat_cache().is_satisfiable(cond);
                }
                let checked = engine.retire_conditions(&db, &next, &change);
                let dead: HashSet<&Conjunction> = before.difference(&after).collect();
                assert!(checked >= dead.len(), "seed {seed} step {step}");
                for cond in before.iter().chain(&after) {
                    assert_eq!(
                        engine.sat_cache().contains(cond),
                        !dead.contains(cond),
                        "seed {seed} step {step}: {cond}"
                    );
                }
                purged_shared += usize::from(dead.contains(&shared));
                db = next;
            }
        }
        assert!(
            purged_shared > 0,
            "some step retracted the last holder of the shared condition"
        );
    }

    /// Retiring a database drops its own entries and the containment entries that
    /// name it on the right — nothing else — and visits only those.
    #[test]
    fn retire_database_touches_only_the_retired_entries() {
        let mut g = VarGen::new();
        let db =
            |name: &str, v| CDatabase::single(CTable::codd(name, 1, [vec![Term::Var(v)]]).unwrap());
        let (a, b, c) = (db("A", g.fresh()), db("B", g.fresh()), db("C", g.fresh()));
        let engine = Engine::default();
        let empty = Instance::new();
        let fact = Instance::single("A", rel![[1]]);
        let store = |op, db: &CDatabase, request: &Instance, rhs: Option<&CDatabase>| {
            engine
                .memo_decide(op, db, request, rhs, false, || Ok((true, None)))
                .unwrap();
        };
        store(MemoOp::Member, &a, &fact, None);
        store(MemoOp::Containment, &a, &empty, Some(&b));
        store(MemoOp::Containment, &c, &empty, Some(&b));
        store(MemoOp::Containment, &b, &empty, Some(&c));
        store(MemoOp::Member, &c, &empty, None);
        assert_eq!(engine.memo_stats().entries, 5);
        // B owns one entry and is named on the right by two.
        assert_eq!(engine.retire_database(&b), 3);
        assert_eq!(engine.memo_stats().entries, 2);
        // Retirement is by value: an equal, separately built handle finds nothing left.
        assert_eq!(
            engine.retire_database(&b.tables().iter().cloned().collect()),
            0
        );
        let hits = engine.memo_stats().hits;
        store(MemoOp::Member, &a, &fact, None);
        store(MemoOp::Member, &c, &empty, None);
        assert_eq!(
            engine.memo_stats().hits,
            hits + 2,
            "A's and C's own entries survive"
        );
        assert_eq!(engine.retire_database(&a), 1);
        assert_eq!(engine.retire_database(&c), 1);
        assert_eq!(engine.memo_stats().entries, 0);
    }

    /// A bounded memo's clock compacts the keys retirement left stale, and a key
    /// retired and stored again gets one live clock position, not two.
    #[test]
    fn bounded_memo_clock_stays_proportional_to_the_live_entries() {
        let mut g = VarGen::new();
        let dbs: Vec<CDatabase> = (0..8)
            .map(|i| {
                CDatabase::single(
                    CTable::codd(format!("R{i}"), 1, [vec![Term::Var(g.fresh())]]).unwrap(),
                )
            })
            .collect();
        let engine = Engine::new(EngineConfig::sequential(Budget(1000)).with_memo_capacity(4));
        let empty = Instance::new();
        let store = |db: &CDatabase| {
            engine
                .memo_decide(MemoOp::Member, db, &empty, None, false, || Ok((true, None)))
                .unwrap();
        };
        for round in 0..3 {
            for db in &dbs[..4] {
                store(db);
            }
            for db in &dbs[..3] {
                engine.retire_database(db);
            }
            let memo = lock_unpoisoned(&engine.decision_memo);
            let hand = memo.clock.as_ref().unwrap().hand.len();
            assert!(
                hand <= 2 * memo.len.max(1),
                "round {round}: {hand} clock keys for {} entries",
                memo.len
            );
        }
        for db in &dbs {
            store(db);
        }
        let stats = engine.memo_stats();
        assert_eq!(stats.entries, 4, "the bound holds");
        assert!(
            Engine::default()
                .decision_memo
                .lock()
                .unwrap()
                .clock
                .is_none(),
            "no clock when unbounded"
        );
    }

    #[test]
    fn base_store_is_memoized_per_database() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let t = CTable::g_table(
            "R",
            1,
            Conjunction::new([Atom::eq(x, 1)]),
            [vec![Term::Var(x)]],
        )
        .unwrap();
        let db = CDatabase::single(t);
        let clone = db.clone();
        let engine = Engine::new(EngineConfig::sequential(Budget(1000)));
        assert!(engine.base_store(&db).is_some());
        let misses_before = engine.sat_cache().stats().misses;
        // A *clone* of the database hits the same cache entry.
        assert!(engine.base_store(&clone).is_some());
        assert_eq!(engine.sat_cache().stats().misses, misses_before);
    }

    #[test]
    fn unsatisfiable_globals_yield_no_base_store() {
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
        let engine = Engine::new(EngineConfig::parallel(Budget(1000)));
        assert!(engine.base_store(&db).is_none());
        assert!(!engine.has_satisfiable_globals(&db));
        assert!(!engine
            .exists_world_covering(&db, &Instance::single("R", rel![[1]]))
            .unwrap());
        assert!(!engine
            .exists_world_missing_fact(&db, "R", &tup![1])
            .unwrap());
    }
}
