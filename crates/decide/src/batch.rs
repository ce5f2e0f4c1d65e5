//! The batched front door: decide many requests against (typically) one database in a
//! single call, amortizing preprocessing and saturating the machine.
//!
//! A service built on this crate rarely asks one question at a time — it triages a queue
//! of membership/possibility/certainty/… questions, most of them against the same database
//! or a handful of databases.  [`decide_all`] accepts such a queue and:
//!
//! * builds one [`Engine`] for the whole batch, so the hash-consed condition-satisfiability
//!   cache and the per-database **base stores** (all global conditions asserted into a
//!   [`pw_condition::ConstraintSet`] once, then cloned per search) are shared by every
//!   request — the preprocessing that a one-shot `decide` call repeats per question is paid
//!   once per database here;
//! * runs the requests on a worker pool, giving each request a proportional slice of the
//!   thread budget: a batch of one request uses every thread *inside* the search (the
//!   engine's frontier parallelism), a large batch runs many sequential searches
//!   concurrently — both ends saturate the cores without oversubscribing them;
//! * reports, next to every answer, the [`Strategy`] the dispatcher chose, exactly like
//!   the single-shot entry points do for the benchmark harness.
//!
//! Answers are positionally aligned with the input slice and independent of the worker
//! scheduling (see the determinism notes in [`crate::engine`]).

use crate::common::{Budget, Decision, DecisionError, Strategy};
use crate::engine::{lock_unpoisoned, panic_message, Engine, EngineConfig};
use crate::{certainty, containment, membership, possibility, uniqueness};
use pw_core::{CDatabase, DbDelta, Delta, DeltaError, View};
use pw_relational::Instance;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One decision question, phrased exactly like the single-shot entry points.
#[derive(Clone, Debug)]
pub enum DecisionRequest {
    /// `MEMB(q)`: is `instance` a possible world of the view?
    Membership {
        /// The view whose represented worlds are asked about.
        view: View,
        /// The candidate world.
        instance: Instance,
    },
    /// `UNIQ(q₀)`: is the represented set exactly `{instance}`?
    Uniqueness {
        /// The view whose represented worlds are asked about.
        view: View,
        /// The candidate unique world.
        instance: Instance,
    },
    /// `CONT(q₀, q)`: is every world of `left` a world of `right`?
    Containment {
        /// The contained view.
        left: View,
        /// The containing view.
        right: View,
    },
    /// `POSS(·, q)`: is some world containing all of `facts` possible?
    Possibility {
        /// The view whose represented worlds are asked about.
        view: View,
        /// The facts that must all hold in one world.
        facts: Instance,
    },
    /// `CERT(·, q)`: do all of `facts` hold in every world?
    Certainty {
        /// The view whose represented worlds are asked about.
        view: View,
        /// The facts that must hold in every world.
        facts: Instance,
    },
}

impl DecisionRequest {
    /// The strategy the dispatcher will choose for this request (same tables as the
    /// per-problem `strategy` functions).
    pub fn strategy(&self) -> Strategy {
        match self {
            DecisionRequest::Membership { view, .. } => membership::view_strategy(view),
            DecisionRequest::Uniqueness { view, .. } => uniqueness::strategy(view),
            DecisionRequest::Containment { left, right } => containment::strategy(left, right),
            DecisionRequest::Possibility { view, .. } => possibility::strategy(view),
            DecisionRequest::Certainty { view, .. } => certainty::strategy(view),
        }
    }

    /// The group-weighted work-item count of this request: the number of shard groups
    /// its database's coupling graph splits into (1 when nothing splits).  A request
    /// that fans out across `k` groups is `k` units of schedulable work — the batch
    /// queue orders by this weight so multi-group requests start first and do not
    /// straggle at the tail of the batch (longest-processing-time-first scheduling).
    pub fn work_items(&self) -> usize {
        let db = match self {
            DecisionRequest::Membership { view, .. }
            | DecisionRequest::Uniqueness { view, .. }
            | DecisionRequest::Possibility { view, .. }
            | DecisionRequest::Certainty { view, .. } => &view.db,
            DecisionRequest::Containment { left, .. } => &left.db,
        };
        db.shard_groups().len().max(1)
    }

    /// Decide the request; the [`Decision`] carries the answer next to the [`Strategy`]
    /// the dispatcher chose, so the view→c-table conversion behind the dispatch tables
    /// runs once per request — for successes *and* for budget-exceeded failures alike.
    /// Its certificate is populated when the engine runs with [`EngineConfig::certify`]
    /// on, `None` otherwise.
    fn decide(&self, engine: &Engine) -> Decision {
        match self {
            DecisionRequest::Membership { view, instance } => {
                membership::view_membership_certified(view, instance, engine)
            }
            DecisionRequest::Uniqueness { view, instance } => {
                uniqueness::decide_certified(view, instance, engine)
            }
            DecisionRequest::Containment { left, right } => {
                containment::decide_certified(left, right, engine)
            }
            DecisionRequest::Possibility { view, facts } => {
                possibility::decide_certified(view, facts, engine)
            }
            DecisionRequest::Certainty { view, facts } => {
                certainty::decide_certified(view, facts, engine)
            }
        }
    }
}

/// The answer to one [`DecisionRequest`]: the same [`Decision`] struct every
/// single-shot `decide_with`/`decide_certified` path returns.  The batched front door
/// adds nothing on top — one shape flows from the per-problem deciders through the
/// batch API to the wire layer.
pub type DecisionOutcome = Decision;

/// Decide every request with all available cores and the default [`Budget`].
pub fn decide_all(requests: &[DecisionRequest]) -> Vec<DecisionOutcome> {
    decide_all_with(requests, &EngineConfig::parallel(Budget::default()))
}

/// Decide every request under an explicit configuration.  `cfg.threads` is the *total*
/// thread budget of the batch; `cfg.budget` applies to each request's search
/// independently (a slow request cannot starve the others of budget).
pub fn decide_all_with(requests: &[DecisionRequest], cfg: &EngineConfig) -> Vec<DecisionOutcome> {
    Session::sized(cfg, requests.len()).decide_all(requests)
}

/// One re-decision: the mutated database, what the delta changed, and the outcomes.
#[derive(Clone, Debug)]
pub struct Redecision {
    /// The database after the delta — the `prev` of the next [`Session::redecide_all`].
    pub db: CDatabase,
    /// Which tables and shard groups the delta changed (see [`pw_core::DbDelta`]).
    pub change: DbDelta,
    /// The outcomes, positionally aligned with the request slice.
    pub outcomes: Vec<DecisionOutcome>,
    /// The work the delta's cache retirement did.
    pub retired: RetireWork,
}

/// The work one delta's cache retirement did: counts that follow the shape of the
/// delta, not the size of the database or of the memo.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetireWork {
    /// Candidate conditions checked for the SatCache purge
    /// ([`Engine::retire_conditions`]).
    pub conditions_checked: usize,
    /// Decision-memo entries visited, each one dropped, while retiring the dissolved
    /// shard groups and the previous database value ([`Engine::retire_database`]).
    pub memo_entries_visited: usize,
}

/// A long-lived batch session: one [`Engine`] owning the caches that make repeated and
/// *incremental* decisions cheap — the hash-consed condition-satisfiability cache, the
/// per-database base stores, and the per-group decision memo.
///
/// [`decide_all_with`] builds a transient session per call; a service that re-decides
/// after every mutation keeps one session alive and calls [`Session::redecide_all`], so
/// the verdicts of shard groups a delta did not touch replay from the memo instead of
/// being re-searched.
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    workers: usize,
    standing: Option<StandingSet>,
}

/// A verdict flip observed by [`Session::push_delta`]: standing request `request_id`
/// answered `old` before the delta and `new` after it.  Both sides are full
/// [`Decision`]s, so the notification carries the new strategy and (in a certifying
/// session) the new certificate alongside the flipped answer.
#[derive(Clone, Debug)]
pub struct VerdictFlip {
    /// The id [`Session::register_standing`] returned for the flipped request.
    pub request_id: u64,
    /// The verdict before the delta.
    pub old: Decision,
    /// The verdict after the delta.
    pub new: Decision,
}

/// What one [`Session::push_delta`] call did: the mutated database, the shape of the
/// change, the verdict flips, and how much of the standing set the subscription index
/// let the session skip.
#[derive(Clone, Debug)]
pub struct StandingUpdate {
    /// The database after the delta (the standing set's new binding).
    pub db: CDatabase,
    /// Which tables and shard groups the delta changed (see [`pw_core::DbDelta`]).
    pub change: DbDelta,
    /// One event per standing request whose *answer* changed.  Re-decisions that
    /// confirm the old answer are not reported.
    pub flips: Vec<VerdictFlip>,
    /// Standing requests re-decided because a dirty group could affect them.
    pub redecided: usize,
    /// Standing requests skipped outright — they did not even consult the memo.
    pub skipped: usize,
    /// The work the delta's cache retirement did.
    pub retired: RetireWork,
}

/// Which shard groups can change a standing request's verdict.
///
/// The subscription index maps a [`DbDelta`]'s dirty groups to the standing requests
/// that must be re-decided.  For an identity view, possibility and certainty decompose
/// per shard group over the relations their facts mention — `POSS` holds iff every
/// group covers its slice of the facts, `CERT` iff every group certainly does — so a
/// delta whose dirty groups don't own any mentioned relation cannot flip the verdict.
/// Membership, uniqueness and containment compare whole worlds; any group can flip
/// them, so they stay on every delta's re-decision list.
#[derive(Clone, Debug)]
enum Deps {
    /// Re-decide on every applied delta.
    AllGroups,
    /// Re-decide only when a dirty group owns one of these table positions (positions
    /// are stable: deltas cannot add or remove tables, and group membership is looked
    /// up against the *new* coupling graph on every delta — so a coupling delta that
    /// merges groups widens the entry's reach automatically).
    Tables(Vec<usize>),
}

#[derive(Clone, Debug)]
struct StandingEntry {
    id: u64,
    /// The request as registered (views bound to the registration-time database).
    request: DecisionRequest,
    /// Which views track the standing database (see [`tracking`]), fixed at
    /// registration.
    tracks: (bool, bool),
    deps: Deps,
    last: Decision,
}

#[derive(Debug)]
struct StandingSet {
    db: CDatabase,
    next_id: u64,
    entries: Vec<StandingEntry>,
}

impl Session {
    /// A session for batches of roughly `cfg.threads` concurrent requests.
    pub fn new(cfg: &EngineConfig) -> Self {
        Session::sized(cfg, cfg.threads)
    }

    /// A session sized for batches of about `expected_batch` requests: `cfg.threads` is
    /// split between concurrent requests and threads inside each request's search,
    /// exactly as [`decide_all_with`] splits it.
    pub fn sized(cfg: &EngineConfig, expected_batch: usize) -> Self {
        let workers = cfg.threads.min(expected_batch.max(1)).max(1);
        let threads_per_request = (cfg.threads / workers).max(1);
        let mut inner_cfg = cfg.clone();
        inner_cfg.threads = threads_per_request;
        Session {
            engine: Engine::new(inner_cfg),
            workers,
            standing: None,
        }
    }

    /// A session whose decisions carry certificates: same answers, same strategies, same
    /// memo keys as an uncertified session over [`EngineConfig::certified`]`(*cfg)`, but
    /// every [`DecisionOutcome`] comes back with evidence the independent checker
    /// `pw_check` verifies in polynomial time, and the memo stores certificates beside
    /// the per-group verdicts so replayed groups stay auditable after deltas.
    pub fn certifying(cfg: &EngineConfig, expected_batch: usize) -> Self {
        Session::sized(&cfg.clone().certified(), expected_batch)
    }

    /// The session's engine (shared caches, memo statistics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Decide every request on the session's engine.  Answers are positionally aligned
    /// with the input and schedule-independent; per-group verdicts populate the
    /// decision memo for later re-decisions.
    pub fn decide_all(&self, requests: &[DecisionRequest]) -> Vec<DecisionOutcome> {
        run_batch(requests, &self.engine, self.workers)
    }

    /// [`Session::decide_all`] with graceful degradation: requests that fail with
    /// [`DecisionError::BudgetExceeded`] are re-decided under a geometrically
    /// escalated budget (×4 per pass, up to `max_retries` extra passes), and the
    /// session's configured budget is restored afterwards.
    ///
    /// Soundness: budget-exceeded outcomes are **never** memoized (only definite
    /// verdicts enter the decision memo), so a retried search cannot replay a verdict
    /// computed under the starved budget — the escalated pass searches afresh and its
    /// answer (and certificate) is bit-identical to a single run under the larger
    /// budget.  Other errors — deadline, cancellation, worker panic — are *not*
    /// retried: more budget would not change them.
    pub fn decide_all_with_retry(
        &mut self,
        requests: &[DecisionRequest],
        max_retries: u32,
    ) -> Vec<DecisionOutcome> {
        let mut outcomes = run_batch(requests, &self.engine, self.workers);
        let original = self.engine.config().budget;
        let mut budget = original;
        for _ in 0..max_retries {
            let starved: Vec<usize> = outcomes
                .iter()
                .enumerate()
                .filter(|(_, o)| matches!(o.answer, Err(DecisionError::BudgetExceeded)))
                .map(|(i, _)| i)
                .collect();
            if starved.is_empty() {
                break;
            }
            budget = Budget(budget.0.saturating_mul(4));
            self.engine.set_budget(budget);
            let retry: Vec<DecisionRequest> =
                starved.iter().map(|&i| requests[i].clone()).collect();
            for (slot, outcome) in
                starved
                    .into_iter()
                    .zip(run_batch(&retry, &self.engine, self.workers))
            {
                outcomes[slot] = outcome;
            }
        }
        self.engine.set_budget(original);
        outcomes
    }

    /// [`Session::decide_all`] under a per-batch wall-clock deadline: every request's
    /// search resolves `deadline` to an absolute instant when it starts, and a search
    /// that outlives it reports [`DecisionError::DeadlineExceeded`].  The session's
    /// configured deadline is restored afterwards, so interleaved un-deadlined batches
    /// are unaffected.  Sound for a memoizing session: only definite verdicts enter the
    /// decision memo, so a deadline-exceeded outcome can never replay later.
    pub fn decide_all_within(
        &mut self,
        requests: &[DecisionRequest],
        deadline: std::time::Duration,
    ) -> Vec<DecisionOutcome> {
        let configured = self.engine.config().deadline;
        self.engine.set_deadline(Some(deadline));
        let outcomes = run_batch(requests, &self.engine, self.workers);
        self.engine.set_deadline(configured);
        outcomes
    }

    /// Apply `delta` to `prev` and re-decide `requests` against the mutated database.
    ///
    /// Every view that tracks `prev` — a clone of that handle, see
    /// [`CDatabase::same_handle`] — is re-bound to the new database; views over other
    /// databases, equal-valued ones included, are left alone.  The per-shard
    /// dispatchers then replay memoized verdicts for the shard groups the delta did not
    /// touch (carried over by [`pw_core::CDatabase::apply`] with their cache identity
    /// intact) and re-search only the dirty groups — a condition-coupled dirty group
    /// falls back to a fresh joint search of that group, so answers stay bit-identical
    /// to a from-scratch decide.  Cache entries keyed by the retired database version
    /// (and by dissolved shard groups) are dropped so a long-lived session does not
    /// accumulate stale state.
    pub fn redecide_all(
        &self,
        prev: &CDatabase,
        delta: &Delta,
        requests: &[DecisionRequest],
    ) -> Result<Redecision, DeltaError> {
        let (db, change, retired) = advance(&self.engine, prev, delta)?;
        let rebound: Vec<DecisionRequest> = requests
            .iter()
            .map(|r| rebind(r, tracking(r, prev), &db))
            .collect();
        let outcomes = replay(&rebound, &self.engine, self.workers);
        Ok(Redecision {
            db,
            change,
            outcomes,
            retired,
        })
    }

    /// Register `requests` as **standing queries** over `db` and decide their
    /// baselines.  Returns one id per request (aligned positionally) and the baseline
    /// outcomes; subsequent [`Session::push_delta`] calls re-decide only the registered
    /// requests a delta can affect and report [`VerdictFlip`]s for answers that
    /// changed.  An empty `requests` only binds the set: nothing is decided and no memo
    /// counter moves.
    ///
    /// The first registration binds the session's standing set to `db`; later
    /// registrations join the live set — if the set's database has since moved on via
    /// deltas, views of the (stale) `db` handle are re-bound to the current value
    /// before their baselines are decided.
    pub fn register_standing(
        &mut self,
        db: &CDatabase,
        requests: &[DecisionRequest],
    ) -> (Vec<u64>, Vec<DecisionOutcome>) {
        let set = self.standing.get_or_insert_with(|| StandingSet {
            db: db.clone(),
            next_id: 1,
            entries: Vec::new(),
        });
        let tracks: Vec<(bool, bool)> = requests.iter().map(|r| tracking(r, db)).collect();
        let bound: Vec<DecisionRequest> = requests
            .iter()
            .zip(&tracks)
            .map(|(r, &t)| rebind(r, t, &set.db))
            .collect();
        let baselines = replay(&bound, &self.engine, self.workers);
        let mut ids = Vec::with_capacity(requests.len());
        for ((request, &tracks), last) in requests.iter().zip(&tracks).zip(&baselines) {
            let id = set.next_id;
            set.next_id += 1;
            ids.push(id);
            set.entries.push(StandingEntry {
                id,
                deps: deps_of(request, db, tracks.0),
                request: request.clone(),
                tracks,
                last: last.clone(),
            });
        }
        (ids, baselines)
    }

    /// Apply `delta` to the standing set's database and re-decide **only the standing
    /// requests the delta can affect**, reporting a [`VerdictFlip`] for each one whose
    /// answer changed.
    ///
    /// This is [`Session::redecide_all`] specialised for subscriptions — the same
    /// apply-and-retire step and the same rebinding — except that the subscription
    /// index is consulted first: a standing request none of whose dependency groups
    /// are dirty is *skipped outright*, paying neither the memo probes nor the
    /// dirty-group re-search.  Affected requests are re-decided exactly like
    /// `redecide_all` would, so their answers (strategies, certificates) are
    /// bit-identical to a full replay.
    ///
    /// # Panics
    ///
    /// If no standing set exists — call [`Session::register_standing`] first.
    pub fn push_delta(&mut self, delta: &Delta) -> Result<StandingUpdate, DeltaError> {
        let set = self
            .standing
            .as_mut()
            .expect("push_delta requires a prior register_standing");
        let (db, change, retired) = advance(&self.engine, &set.db, delta)?;
        set.db = db.clone();
        if change.is_noop() {
            return Ok(StandingUpdate {
                db,
                change,
                flips: Vec::new(),
                redecided: 0,
                skipped: set.entries.len(),
                retired,
            });
        }

        // The subscription index: dirty groups → affected standing requests.  Group
        // ownership is resolved against the *new* graph, so merges widen entries'
        // reach on the delta that merges them.
        let group_of = db.shard_group_index();
        let dirty: std::collections::BTreeSet<usize> =
            change.dirty_groups.iter().copied().collect();
        let affected: Vec<usize> = set
            .entries
            .iter()
            .enumerate()
            .filter(|(_, entry)| match &entry.deps {
                Deps::AllGroups => true,
                Deps::Tables(positions) => positions
                    .iter()
                    .any(|&p| group_of.get(p).is_some_and(|g| dirty.contains(g))),
            })
            .map(|(i, _)| i)
            .collect();

        // Entries skipped across earlier deltas are still bound to an older version,
        // so rebinding goes by the registration-time tracking flags, not by `prev`.
        let rebound: Vec<DecisionRequest> = affected
            .iter()
            .map(|&i| {
                let entry = &set.entries[i];
                rebind(&entry.request, entry.tracks, &db)
            })
            .collect();
        let outcomes = replay(&rebound, &self.engine, self.workers);

        let mut flips = Vec::new();
        for (&i, outcome) in affected.iter().zip(outcomes) {
            let entry = &mut set.entries[i];
            if entry.last.answer != outcome.answer {
                flips.push(VerdictFlip {
                    request_id: entry.id,
                    old: entry.last.clone(),
                    new: outcome.clone(),
                });
            }
            entry.last = outcome;
        }
        Ok(StandingUpdate {
            db,
            change,
            flips,
            redecided: affected.len(),
            skipped: set.entries.len() - affected.len(),
            retired,
        })
    }

    /// The database the standing set is currently bound to, if one is registered.
    pub fn standing_db(&self) -> Option<&CDatabase> {
        self.standing.as_ref().map(|set| &set.db)
    }

    /// Number of registered standing requests.
    pub fn standing_len(&self) -> usize {
        self.standing.as_ref().map_or(0, |set| set.entries.len())
    }

    /// The current verdict of standing request `id`, if registered.
    pub fn standing_outcome(&self, id: u64) -> Option<&DecisionOutcome> {
        self.standing
            .as_ref()?
            .entries
            .iter()
            .find(|entry| entry.id == id)
            .map(|entry| &entry.last)
    }
}

/// Which groups can flip `request`'s verdict (see [`Deps`]).  Localization applies only
/// to possibility/certainty over an *identity* view that tracks the standing database
/// (`tracked`); anything else conservatively depends on every group.  Facts in
/// relations the database does not store are omitted: no delta can change their
/// (constant) contribution, because deltas cannot add relations.
fn deps_of(request: &DecisionRequest, db: &CDatabase, tracked: bool) -> Deps {
    let (view, facts) = match request {
        DecisionRequest::Possibility { view, facts }
        | DecisionRequest::Certainty { view, facts } => (view, facts),
        _ => return Deps::AllGroups,
    };
    if !view.query.is_identity() || !tracked {
        return Deps::AllGroups;
    }
    let mut positions: Vec<usize> = facts
        .iter()
        .filter(|(_, relation)| !relation.is_empty())
        .filter_map(|(name, _)| db.table_position(name))
        .collect();
    positions.sort_unstable();
    positions.dedup();
    Deps::Tables(positions)
}

/// Which of `request`'s views track `db`: `(view or containment left, containment
/// right)`.  Tracking is by handle identity ([`CDatabase::same_handle`]), never by
/// value — a view of a separately registered database that merely *equals* `db` is
/// about that other database, and a delta to `db` must not re-point it.
fn tracking(request: &DecisionRequest, db: &CDatabase) -> (bool, bool) {
    match request {
        DecisionRequest::Containment { left, right } => {
            (left.db.same_handle(db), right.db.same_handle(db))
        }
        DecisionRequest::Membership { view, .. }
        | DecisionRequest::Uniqueness { view, .. }
        | DecisionRequest::Possibility { view, .. }
        | DecisionRequest::Certainty { view, .. } => (view.db.same_handle(db), false),
    }
}

/// Re-point the views flagged by `(left, right)` (see [`tracking`]) to `db`; the
/// others are left alone.
fn rebind(
    request: &DecisionRequest,
    (left, right): (bool, bool),
    db: &CDatabase,
) -> DecisionRequest {
    let rebind = |view: &View, flag: bool| -> View {
        if flag {
            View::new(view.query.clone(), db.clone())
        } else {
            view.clone()
        }
    };
    match request {
        DecisionRequest::Membership { view, instance } => DecisionRequest::Membership {
            view: rebind(view, left),
            instance: instance.clone(),
        },
        DecisionRequest::Uniqueness { view, instance } => DecisionRequest::Uniqueness {
            view: rebind(view, left),
            instance: instance.clone(),
        },
        DecisionRequest::Containment {
            left: lview,
            right: rview,
        } => DecisionRequest::Containment {
            left: rebind(lview, left),
            right: rebind(rview, right),
        },
        DecisionRequest::Possibility { view, facts } => DecisionRequest::Possibility {
            view: rebind(view, left),
            facts: facts.clone(),
        },
        DecisionRequest::Certainty { view, facts } => DecisionRequest::Certainty {
            view: rebind(view, left),
            facts: facts.clone(),
        },
    }
}

/// Apply `delta` to `prev` and retire the caches of everything it dissolved: the old
/// shard groups [`DbDelta::dissolved_groups`] names, the previous joint value, and the
/// conditions the retired value no longer shares with the live one (the SatCache is
/// keyed by condition, not database).  The one delta step behind
/// [`Session::redecide_all`] and [`Session::push_delta`].
///
/// Every step but the replay that follows costs in proportion to the delta: `apply`
/// shares the untouched tables and groups by refcount, the dissolved groups are read
/// off the change instead of comparing the two group lists, each retired database
/// drops only its own memo entries (one probe when it owns none), and the condition
/// purge starts from the changed tables.  The returned [`RetireWork`] counts that work.
fn advance(
    engine: &Engine,
    prev: &CDatabase,
    delta: &Delta,
) -> Result<(CDatabase, DbDelta, RetireWork), DeltaError> {
    let (db, change) = prev.apply(delta)?;
    let mut work = RetireWork::default();
    if !change.is_noop() {
        let old_groups = prev.shard_groups();
        for &g in &change.dissolved_groups {
            work.memo_entries_visited += engine.retire_database(old_groups[g].database());
        }
        work.memo_entries_visited += engine.retire_database(prev);
        work.conditions_checked = engine.retire_conditions(prev, &db, &change);
    }
    Ok((db, change, work))
}

/// Decide `requests` with the memo pinned for the whole batch: a bounded memo must not
/// evict a carried-over verdict between the delta and the request that replays it.
fn replay(requests: &[DecisionRequest], engine: &Engine, workers: usize) -> Vec<DecisionOutcome> {
    let _pin = engine.pin_memo();
    run_batch(requests, engine, workers)
}

/// Convenience one-shot [`Session::redecide_all`] with all cores and the default
/// [`Budget`].  A fresh session has an empty memo, so this pays a from-scratch decide;
/// the incremental win comes from keeping one [`Session`] across the decide/re-decide
/// sequence.
pub fn redecide_all(
    prev: &CDatabase,
    delta: &Delta,
    requests: &[DecisionRequest],
) -> Result<Redecision, DeltaError> {
    Session::sized(&EngineConfig::parallel(Budget::default()), requests.len())
        .redecide_all(prev, delta, requests)
}

/// Decide one request behind the per-request isolation boundary: a panic anywhere in
/// the request's search — or injected by [`crate::FaultPlan::panic_on_request`] at
/// this batch position — becomes [`DecisionError::WorkerPanicked`] for this request
/// alone.  Sibling requests in the batch are untouched, and the engine's caches stay
/// usable (no engine lock is held across the unwind; poisoned outcome slots are
/// recovered by the caller).
fn guarded_outcome(request: &DecisionRequest, engine: &Engine, index: usize) -> DecisionOutcome {
    catch_unwind(AssertUnwindSafe(|| {
        if let Some(faults) = &engine.config().faults {
            if faults.panic_on_request == Some(index) {
                panic!(
                    "fault injection (seed {}): forced panic on request {index}",
                    faults.seed
                );
            }
        }
        request.decide(engine)
    }))
    .unwrap_or_else(|payload| {
        let message = panic_message(payload.as_ref());
        // Best effort: the dispatch-table lookup runs over the same view the search
        // just panicked on, so it gets its own boundary.
        let strategy =
            catch_unwind(AssertUnwindSafe(|| request.strategy())).unwrap_or(Strategy::Backtracking);
        Decision::of(Err(DecisionError::WorkerPanicked(message)), strategy)
    })
}

/// The shared worker pool behind [`Session::decide_all`] and [`decide_all_with`].
fn run_batch(
    requests: &[DecisionRequest],
    engine: &Engine,
    workers: usize,
) -> Vec<DecisionOutcome> {
    if requests.is_empty() {
        return Vec::new();
    }
    let workers = workers.min(requests.len()).max(1);
    if workers == 1 {
        return requests
            .iter()
            .enumerate()
            .map(|(i, request)| guarded_outcome(request, engine, i))
            .collect();
    }

    // Queue order: group-weighted work items descending (LPT scheduling).  A request
    // that fans out across many shard groups is the longest job in the batch; starting
    // it first keeps the tail of the batch from serialising behind it.  Ties break by
    // request index so the queue order — and therefore worker assignment — is a pure
    // function of the batch, not of sort internals.  Outcomes stay positionally
    // aligned — only the execution order changes, and answers are
    // schedule-independent (see the engine's determinism notes).
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_unstable_by_key(|&i| (std::cmp::Reverse(requests[i].work_items()), i));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<DecisionOutcome>>> =
        requests.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let queued = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = order.get(queued) else {
                    return;
                };
                let outcome = guarded_outcome(&requests[i], engine, i);
                *lock_unpoisoned(&slots[i]) = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every request was decided")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pw_condition::{Atom, Conjunction, Term, VarGen};
    use pw_core::{CDatabase, CTable, CTuple};
    use pw_relational::rel;

    fn demo_db() -> CDatabase {
        let mut g = VarGen::new();
        let x = g.fresh();
        CDatabase::single(
            CTable::new(
                "R",
                1,
                Conjunction::truth(),
                [
                    CTuple::of_terms([Term::constant(1)]),
                    CTuple::with_condition([Term::constant(2)], Conjunction::new([Atom::eq(x, 0)])),
                ],
            )
            .unwrap(),
        )
    }

    fn demo_requests() -> Vec<DecisionRequest> {
        let view = View::identity(demo_db());
        vec![
            DecisionRequest::Possibility {
                view: view.clone(),
                facts: Instance::single("R", rel![[1], [2]]),
            },
            DecisionRequest::Certainty {
                view: view.clone(),
                facts: Instance::single("R", rel![[1]]),
            },
            DecisionRequest::Certainty {
                view: view.clone(),
                facts: Instance::single("R", rel![[2]]),
            },
            DecisionRequest::Membership {
                view: view.clone(),
                instance: Instance::single("R", rel![[1]]),
            },
            DecisionRequest::Uniqueness {
                view: view.clone(),
                instance: Instance::single("R", rel![[1]]),
            },
            DecisionRequest::Containment {
                left: view.clone(),
                right: view,
            },
        ]
    }

    fn expected() -> Vec<bool> {
        // (1,2) possible; (1) certain; (2) not certain; {(1)} is a member; {(1)} is not
        // the unique world; every view contains itself.
        vec![true, true, false, true, false, true]
    }

    #[test]
    fn batch_matches_single_shot_answers() {
        let requests = demo_requests();
        let outcomes = decide_all_with(&requests, &EngineConfig::sequential(Budget(1_000_000)));
        let answers: Vec<bool> = outcomes
            .iter()
            .map(|o| *o.answer.as_ref().unwrap())
            .collect();
        assert_eq!(answers, expected());
    }

    #[test]
    fn batch_is_schedule_independent() {
        let requests = demo_requests();
        for threads in [1, 2, 3, 8] {
            let cfg = EngineConfig::with_threads(threads, Budget(1_000_000));
            let outcomes = decide_all_with(&requests, &cfg);
            let answers: Vec<bool> = outcomes
                .iter()
                .map(|o| *o.answer.as_ref().unwrap())
                .collect();
            assert_eq!(answers, expected(), "answers with {threads} threads");
        }
    }

    #[test]
    fn batch_reports_strategies() {
        let requests = demo_requests();
        let outcomes = decide_all(&requests);
        assert_eq!(outcomes.len(), requests.len());
        assert_eq!(outcomes[0].strategy, Strategy::Backtracking);
        assert_eq!(outcomes[1].strategy, Strategy::Backtracking);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(decide_all(&[]).is_empty());
    }

    /// Two decoupled relations, a certainty request localized to each: a delta touching
    /// only one relation re-decides one request and skips the other, and a flip is
    /// reported exactly when the answer changes.
    #[test]
    fn push_delta_skips_unaffected_standing_requests_and_reports_flips() {
        let db = CDatabase::new([
            CTable::codd("A", 1, [vec![Term::constant(1)]]).unwrap(),
            CTable::codd("B", 1, [vec![Term::constant(2)]]).unwrap(),
        ]);
        let view = View::identity(db.clone());
        let requests = vec![
            DecisionRequest::Certainty {
                view: view.clone(),
                facts: Instance::single("A", rel![[1]]),
            },
            DecisionRequest::Certainty {
                view,
                facts: Instance::single("B", rel![[2]]),
            },
        ];
        let mut session = Session::sized(&EngineConfig::sequential(Budget(1_000_000)), 2);
        let (ids, baselines) = session.register_standing(&db, &requests);
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(baselines.len(), 2);
        assert!(baselines.iter().all(|b| b.answer == Ok(true)));

        // Retract A's only row: the A-certainty flips true→false, the B-certainty is
        // skipped without consulting anything.
        let update = session
            .push_delta(&Delta::new().retract("A", 0))
            .expect("delta applies");
        assert_eq!((update.redecided, update.skipped), (1, 1));
        assert_eq!(update.flips.len(), 1);
        assert_eq!(update.flips[0].request_id, ids[0]);
        assert_eq!(update.flips[0].old.answer, Ok(true));
        assert_eq!(update.flips[0].new.answer, Ok(false));
        assert_eq!(session.standing_outcome(ids[0]).unwrap().answer, Ok(false));
        assert_eq!(session.standing_outcome(ids[1]).unwrap().answer, Ok(true));

        // Re-insert it: flips back.  The B entry — skipped across both deltas — still
        // answers correctly when its own relation finally changes.
        let update = session
            .push_delta(&Delta::new().insert("A", CTuple::of_terms([Term::constant(1)])))
            .expect("delta applies");
        assert_eq!(update.flips.len(), 1);
        assert_eq!(update.flips[0].new.answer, Ok(true));
        let update = session
            .push_delta(&Delta::new().retract("B", 0))
            .expect("delta applies");
        assert_eq!((update.redecided, update.skipped), (1, 1));
        assert_eq!(update.flips[0].request_id, ids[1]);
        assert_eq!(update.flips[0].new.answer, Ok(false));

        // A no-op delta skips everything.
        let update = session.push_delta(&Delta::new()).expect("empty delta");
        assert!(update.change.is_noop());
        assert_eq!((update.redecided, update.skipped), (0, 2));
        assert!(update.flips.is_empty());
    }

    /// A view of a separately built database that merely *equals* the mutated one is
    /// about that other database: a delta must re-point views of the mutated handle
    /// (its clones) and leave the equal-valued peer alone — in `redecide_all` and in
    /// `push_delta` alike.
    #[test]
    fn views_of_an_equal_valued_other_database_are_not_rebound() {
        let codd = || CDatabase::single(CTable::codd("R", 1, [vec![Term::constant(1)]]).unwrap());
        let (a, b) = (codd(), codd());
        assert!(a == b && !a.same_handle(&b) && a.same_handle(&a.clone()));
        let requests = vec![
            // A ⊆ B: true before the delta, false once A gains R(2).
            DecisionRequest::Containment {
                left: View::identity(a.clone()),
                right: View::identity(b.clone()),
            },
            // A ⊆ A: both sides track A, so it stays true.
            DecisionRequest::Containment {
                left: View::identity(a.clone()),
                right: View::identity(a.clone()),
            },
        ];
        let delta = Delta::new().insert("R", CTuple::of_terms([Term::constant(2)]));
        let cfg = EngineConfig::sequential(Budget(1_000_000));
        let answers = |outcomes: &[DecisionOutcome]| -> Vec<Result<bool, DecisionError>> {
            outcomes.iter().map(|o| o.answer.clone()).collect()
        };

        let (next, _) = a.apply(&delta).expect("delta applies");
        let fresh = decide_all_with(
            &[DecisionRequest::Containment {
                left: View::identity(next),
                right: View::identity(b),
            }],
            &cfg,
        );
        assert_eq!(fresh[0].answer, Ok(false));

        let redecision = Session::new(&cfg)
            .redecide_all(&a, &delta, &requests)
            .expect("delta applies");
        assert_eq!(answers(&redecision.outcomes), vec![Ok(false), Ok(true)]);

        let mut session = Session::new(&cfg);
        let (ids, baselines) = session.register_standing(&a, &requests);
        assert_eq!(answers(&baselines), vec![Ok(true), Ok(true)]);
        let update = session.push_delta(&delta).expect("delta applies");
        assert_eq!(update.flips.len(), 1);
        assert_eq!(update.flips[0].request_id, ids[0]);
        assert_eq!(update.flips[0].new.answer, Ok(false));
        assert_eq!(session.standing_outcome(ids[1]).unwrap().answer, Ok(true));
    }
}
