//! Memoized condition satisfiability over hash-consed conjunctions.
//!
//! Dispatch and preprocessing ask the same satisfiability questions over and over: every
//! decision on a database re-checks the global conditions, the batched front door of
//! `pw-decide` asks them once per request, and the c-table algebra checks each produced
//! row's condition.  A [`SatCache`] interns conjunctions (hash-consing: structurally equal
//! conjunctions share one `Arc` allocation) and memoizes [`Conjunction::is_satisfiable`]
//! on the interned keys, so each distinct condition is solved exactly once per cache
//! lifetime.
//!
//! The cache is `Sync` — a single instance is shared by all worker threads of the parallel
//! engine.  Contention is low because satisfiability is checked at dispatch time, not
//! inside the search hot loop (the searches use the incremental
//! [`crate::ConstraintSet`] there).

use crate::Conjunction;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Hit/miss counters of a [`SatCache`], for the benchmark harness and for tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the union–find satisfiability check.
    pub misses: u64,
    /// Number of distinct conjunctions interned.
    pub entries: usize,
}

/// An interning, memoizing satisfiability cache for [`Conjunction`]s.
#[derive(Debug, Default)]
pub struct SatCache {
    map: Mutex<HashMap<Arc<Conjunction>, bool>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SatCache {
    /// An empty cache.
    pub fn new() -> Self {
        SatCache::default()
    }

    /// The map guard, recovering from a poisoned lock: a panic elsewhere cannot leave
    /// the map logically inconsistent (every critical section is a single map
    /// operation), so entries computed before the panic stay usable.
    fn lock_map(&self) -> MutexGuard<'_, HashMap<Arc<Conjunction>, bool>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drop the interned entries of `dead`, one map probe each, and return how many
    /// were present.  Engine-side cache hygiene: when a delta retires a database
    /// version, the conditions it no longer shares with the live version are purged so
    /// week-long sessions do not accumulate dead entries.  The cost is the length of
    /// `dead`, not the size of the cache.
    pub fn forget<'a>(&self, dead: impl IntoIterator<Item = &'a Conjunction>) -> usize {
        let mut map = self.lock_map();
        dead.into_iter()
            .filter(|cond| map.remove(*cond).is_some())
            .count()
    }

    /// Is `c` interned?  A pure probe: no counter moves and nothing is solved.
    pub fn contains(&self, c: &Conjunction) -> bool {
        self.lock_map().contains_key(c)
    }

    /// Memoized satisfiability: equivalent to [`Conjunction::is_satisfiable`], but each
    /// distinct conjunction is solved at most once per cache (up to a benign race: two
    /// workers missing the same condition concurrently may both solve it — the lock is
    /// *not* held across the solve, so a miss never blocks unrelated lookups).
    pub fn is_satisfiable(&self, c: &Conjunction) -> bool {
        {
            let map = self.lock_map();
            // `Arc<Conjunction>: Borrow<Conjunction>`, so lookups need no allocation.
            if let Some(&sat) = map.get(c) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return sat;
            }
        }
        let sat = c.is_satisfiable();
        let mut map = self.lock_map();
        map.entry(Arc::new(c.clone())).or_insert(sat);
        self.misses.fetch_add(1, Ordering::Relaxed);
        sat
    }

    /// Intern a conjunction: returns the canonical shared allocation for this (structural)
    /// value, creating and solving it on first sight.  Callers that keep many copies of the
    /// same condition (e.g. a batch of requests against one database) can swap them for the
    /// interned `Arc` to deduplicate memory and make later cache lookups pointer-cheap.
    pub fn intern(&self, c: &Conjunction) -> Arc<Conjunction> {
        {
            let map = self.lock_map();
            if let Some((key, _)) = map.get_key_value(c) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(key);
            }
        }
        let sat = c.is_satisfiable();
        let mut map = self.lock_map();
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some((key, _)) = map.get_key_value(c) {
            return Arc::clone(key);
        }
        let key = Arc::new(c.clone());
        map.insert(Arc::clone(&key), sat);
        key
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let map = self.lock_map();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, VarGen};

    #[test]
    fn memoizes_and_counts() {
        let mut g = VarGen::new();
        let (x, y) = (g.fresh(), g.fresh());
        let sat = Conjunction::new([Atom::eq(x, y), Atom::neq(x, 3)]);
        let unsat = Conjunction::new([Atom::eq(x, y), Atom::neq(x, y)]);
        let cache = SatCache::new();
        assert!(cache.is_satisfiable(&sat));
        assert!(!cache.is_satisfiable(&unsat));
        assert!(cache.is_satisfiable(&sat));
        assert!(cache.is_satisfiable(&sat.clone()));
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn forget_drops_only_the_named_entries() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let (a, b) = (
            Conjunction::single(Atom::eq(x, 1)),
            Conjunction::single(Atom::eq(x, 2)),
        );
        let cache = SatCache::new();
        assert!(cache.is_satisfiable(&a) && cache.is_satisfiable(&b));
        let never_seen = Conjunction::single(Atom::eq(x, 3));
        assert_eq!(cache.forget([&a, &never_seen]), 1);
        assert!(!cache.contains(&a) && cache.contains(&b));
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.is_satisfiable(&b));
        assert_eq!(cache.stats().hits, 1, "b survived the purge");
    }

    #[test]
    fn interning_shares_allocations() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let c = Conjunction::single(Atom::eq(x, 1));
        let cache = SatCache::new();
        let a = cache.intern(&c);
        let b = cache.intern(&c.clone());
        assert!(
            Arc::ptr_eq(&a, &b),
            "structurally equal conjunctions are hash-consed"
        );
        assert!(cache.is_satisfiable(&c));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let mut g = VarGen::new();
        let x = g.fresh();
        let cache = SatCache::new();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let cache = &cache;
                let c = Conjunction::single(Atom::eq(x, i % 2));
                scope.spawn(move || assert!(cache.is_satisfiable(&c)));
            }
        });
        assert_eq!(cache.stats().entries, 2);
    }
}
