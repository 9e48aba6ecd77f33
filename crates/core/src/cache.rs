//! The plan cache a [`GfClEngine`](crate::GfClEngine) keeps for its text
//! queries: verified [`LogicalPlan`] templates, keyed on a query's
//! literal-normalised text.
//!
//! The key is built by the frontend (`gfcl_frontend::template`): every
//! token's kind, the text of every identifier and of every literal that
//! does not become a parameter. Two texts with the same key bind, plan
//! and verify to the same template, so a lookup that finds one skips all
//! four phases and runs the stored plan with the call's literal values.
//! The cache never inspects a key: it compares keys in full, so two texts
//! whose keys hash alike can never share a plan.
//!
//! An engine's graph is immutable for the engine's lifetime (a merge
//! produces a new graph, and with it a new engine), so no statistics
//! fingerprint is part of the key. Capacity is [`PLAN_CACHE_CAPACITY`];
//! beyond it the least recently used template is evicted. An empty cache
//! allocates nothing, so engines built per statement pay nothing for it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::plan::LogicalPlan;

/// How many templates one engine keeps.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// What a [`PlanCache`] has done, counted where the work happens.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a template: the call ran it with its own
    /// literals and skipped parse, bind, plan and verify.
    pub hits: u64,
    /// Lookups that found none: the call parsed, bound and planned.
    pub misses: u64,
    /// Templates planned but not stored, because a parameter sits where
    /// the cost model reads a value (see `PatternQuery::literal_invariant`).
    pub not_reusable: u64,
    /// Stored templates dropped to make room for another.
    pub evictions: u64,
}

/// A bounded map from literal-normalised query text to a verified plan.
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    not_reusable: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<Box<[u8]>, Entry>,
    /// Advances on every lookup and insertion: the recency of an entry.
    tick: u64,
}

struct Entry {
    plan: Arc<LogicalPlan>,
    last_used: u64,
}

impl PlanCache {
    /// No entry is ever left half-written, so a panic elsewhere while the
    /// lock was held leaves nothing to repair.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The template stored under `key`, counting a hit or a miss.
    pub fn get(&self, key: &[u8]) -> Option<Arc<LogicalPlan>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(e) => {
                e.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.plan))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `plan` under `key`, evicting the least recently used template
    /// when the cache is full, and return the stored plan. If another
    /// caller stored `key` first, its plan is kept and returned.
    pub fn insert(&self, key: Vec<u8>, plan: LogicalPlan) -> Arc<LogicalPlan> {
        let mut inner = self.lock();
        if let Some(e) = inner.entries.get(key.as_slice()) {
            return Arc::clone(&e.plan);
        }
        if inner.entries.len() >= PLAN_CACHE_CAPACITY {
            // Ticks are unique, so exactly the least recent entry goes.
            if let Some(oldest) = inner.entries.values().map(|e| e.last_used).min() {
                inner.entries.retain(|_, e| e.last_used != oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.tick += 1;
        let plan = Arc::new(plan);
        let entry = Entry { plan: Arc::clone(&plan), last_used: inner.tick };
        inner.entries.insert(key.into_boxed_slice(), entry);
        plan
    }

    /// Count a template that was planned for one call and not stored.
    pub fn note_not_reusable(&self) {
        self.not_reusable.fetch_add(1, Ordering::Relaxed);
    }

    /// Templates currently stored.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Is nothing stored?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counters so far.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            not_reusable: self.not_reusable.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use crate::query::PatternQuery;
    use gfcl_storage::RawGraph;

    fn some_plan() -> LogicalPlan {
        let q = PatternQuery::builder().node("a", "PERSON").returns_count().build();
        plan(&q, &RawGraph::example().catalog).unwrap()
    }

    #[test]
    fn keys_compare_in_full_and_counters_follow_the_work() {
        let cache = PlanCache::default();
        assert!(cache.get(b"k1").is_none());
        let stored = cache.insert(b"k1".to_vec(), some_plan());
        let hit = cache.get(b"k1").expect("stored");
        assert!(Arc::ptr_eq(&stored, &hit), "a hit shares the stored plan, it does not copy it");
        assert!(cache.get(b"k1\0").is_none(), "a longer key is another key");
        cache.note_not_reusable();
        let s = cache.stats();
        assert_eq!(s, PlanCacheStats { hits: 1, misses: 2, not_reusable: 1, evictions: 0 });
    }

    #[test]
    fn full_cache_evicts_the_least_recently_used() {
        let cache = PlanCache::default();
        for i in 0..PLAN_CACHE_CAPACITY {
            cache.insert(format!("k{i}").into_bytes(), some_plan());
        }
        // Touch k0, so k1 is now the least recently used.
        assert!(cache.get(b"k0").is_some());
        cache.insert(b"new".to_vec(), some_plan());
        assert_eq!(cache.len(), PLAN_CACHE_CAPACITY);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(b"k0").is_some());
        assert!(cache.get(b"k1").is_none());
        assert!(cache.get(b"new").is_some());
    }

    #[test]
    fn a_second_insert_of_a_key_keeps_the_first_plan() {
        let cache = PlanCache::default();
        let first = cache.insert(b"k".to_vec(), some_plan());
        let second = cache.insert(b"k".to_vec(), some_plan());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }
}
