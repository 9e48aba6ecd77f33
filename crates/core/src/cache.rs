//! The plan cache a [`GfClEngine`](crate::GfClEngine) keeps for its text
//! queries: verified [`LogicalPlan`] templates, keyed on a query's
//! literal-normalised text, each compiled once.
//!
//! The key is built by the frontend (`gfcl_frontend::template`): every
//! token's kind, the text of every identifier and of every literal that
//! does not become a parameter. Two texts with the same key bind, plan
//! and verify to the same template, so a lookup that finds one skips all
//! four phases and runs the stored plan with the call's literal values.
//! The cache never inspects a key: it compares keys in full, so two texts
//! whose keys hash alike can never share a plan.
//!
//! An entry, a [`CachedPlan`], also keeps what the plan compiles to
//! without a graph or literals, and what its calls leave behind:
//!
//! * the plan's **layout** (`exec::Layout`), built once at insertion: the
//!   list groups and their vector slots, the node, edge and slot
//!   locations, and which operator each step becomes. A hit only *binds*
//!   it: the view, the call's parameters, the scan cursor and the compiled
//!   predicates;
//! * a **pool of chunks**. Each caller (each worker of a parallel call)
//!   takes a chunk of its own, or builds one from the layout; no two
//!   callers ever share one. A chunk goes back, emptied with its vectors'
//!   buffers kept ([`Chunk::recycle`]), only after its call finished
//!   successfully; a failed, canceled or over-budget call drops it. So the
//!   pool never holds more chunks than the most callers that ever ran the
//!   template at once, and needs no bound of its own.
//!
//! An engine's graph is immutable for the engine's lifetime (a merge
//! produces a new graph, and with it a new engine), so no statistics
//! fingerprint is part of the key. Capacity is [`PLAN_CACHE_CAPACITY`];
//! beyond it the least recently used template is evicted. An empty cache
//! allocates nothing, so engines built per statement pay nothing for it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::chunk::Chunk;
use crate::exec::Layout;
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
    plan: Arc<CachedPlan>,
    last_used: u64,
}

/// A stored template: the verified plan, its layout, and the chunks its
/// finished calls handed back (see the module docs).
pub struct CachedPlan {
    plan: LogicalPlan,
    pub(crate) layout: Layout,
    pub(crate) chunks: ChunkPool,
}

impl CachedPlan {
    /// `plan` with its layout. Fails only on a plan the verifier rejects.
    pub(crate) fn new(plan: LogicalPlan) -> gfcl_common::Result<CachedPlan> {
        let (layout, empty) = Layout::new(&plan)?;
        let chunks = ChunkPool { empty, free: Mutex::default() };
        Ok(CachedPlan { plan, layout, chunks })
    }

    /// The verified plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Chunks waiting in the pool for the template's next callers.
    pub fn pooled_chunks(&self) -> usize {
        self.chunks.lock().len()
    }
}

/// Emptied chunks of one layout, waiting for a caller.
pub(crate) struct ChunkPool {
    /// A chunk of the layout's shape, never handed out: cloned for a
    /// caller when no chunk waits.
    empty: Chunk,
    free: Mutex<Vec<Chunk>>,
}

impl ChunkPool {
    /// A pop or a push is never left half done, so a panic elsewhere while
    /// the lock was held leaves nothing to repair.
    fn lock(&self) -> MutexGuard<'_, Vec<Chunk>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A chunk of the layout's shape for one caller: a pooled one, or a new
    /// one when every pooled chunk is in use.
    pub(crate) fn take(&self) -> Chunk {
        self.lock().pop().unwrap_or_else(|| self.empty.clone())
    }

    /// Hand back the chunk of a call that finished successfully: emptied,
    /// with its vectors' buffers kept.
    pub(crate) fn put(&self, mut chunk: Chunk) {
        chunk.recycle();
        self.lock().push(chunk);
    }
}

impl PlanCache {
    /// No entry is ever left half-written, so a panic elsewhere while the
    /// lock was held leaves nothing to repair.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The template stored under `key`, counting a hit or a miss.
    pub fn get(&self, key: &[u8]) -> Option<Arc<CachedPlan>> {
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
    /// when the cache is full, and return the stored template. If another
    /// caller stored `key` first, its template is kept and returned. Fails,
    /// storing nothing, only when `plan` has no layout: a plan the verifier
    /// rejects.
    pub fn insert(&self, key: Vec<u8>, plan: LogicalPlan) -> gfcl_common::Result<Arc<CachedPlan>> {
        let plan = Arc::new(CachedPlan::new(plan)?);
        let mut inner = self.lock();
        if let Some(e) = inner.entries.get(key.as_slice()) {
            return Ok(Arc::clone(&e.plan));
        }
        if inner.entries.len() >= PLAN_CACHE_CAPACITY {
            // Ticks are unique, so exactly the least recent entry goes.
            if let Some(oldest) = inner.entries.values().map(|e| e.last_used).min() {
                inner.entries.retain(|_, e| e.last_used != oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.tick += 1;
        let entry = Entry { plan: Arc::clone(&plan), last_used: inner.tick };
        inner.entries.insert(key.into_boxed_slice(), entry);
        Ok(plan)
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
        let stored = cache.insert(b"k1".to_vec(), some_plan()).unwrap();
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
            cache.insert(format!("k{i}").into_bytes(), some_plan()).unwrap();
        }
        // Touch k0, so k1 is now the least recently used.
        assert!(cache.get(b"k0").is_some());
        cache.insert(b"new".to_vec(), some_plan()).unwrap();
        assert_eq!(cache.len(), PLAN_CACHE_CAPACITY);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(b"k0").is_some());
        assert!(cache.get(b"k1").is_none());
        assert!(cache.get(b"new").is_some());
    }

    #[test]
    fn a_stored_template_is_verified_once_and_its_calls_reuse_one_chunk() {
        use crate::query::{col, eq, Scalar};
        use crate::{Engine, GfClEngine};
        use gfcl_common::{DataType, Value};
        use gfcl_storage::{ColumnarGraph, GraphView, StorageConfig};

        let graph = ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap();
        let graph = Arc::new(graph);
        let engine = GfClEngine::new(Arc::clone(&graph));
        let verified = || crate::verify::VERIFIED.with(std::cell::Cell::get);
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .edge("e", "FOLLOWS", "a", "b")
            .filter(eq(col("b", "name"), Scalar::Param(0)))
            .returns(&[("a", "name"), ("e", "since")])
            .build();
        let before = verified();
        let plan = crate::plan::plan_template(&q, engine.catalog(), &[DataType::String]).unwrap();
        let entry = engine.plan_cache().unwrap().insert(b"t".to_vec(), plan).unwrap();
        assert_eq!(verified() - before, 1, "planning the template verifies it");
        for name in ["peter", "nobody", "peter", "mahinda"] {
            let params = [Value::String(name.into())];
            let cached = engine.run_cached(&entry, &params).unwrap();
            let view = GraphView::clean(&*graph);
            let fresh = crate::driver::execute(view, entry.plan(), &params, engine.options(), None)
                .unwrap();
            assert_eq!(cached.canonical(), fresh.canonical(), "{name}");
            assert_eq!(entry.pooled_chunks(), 1, "one caller at a time: one chunk");
        }
        assert_eq!(verified() - before, 1, "no call verifies again");
    }

    #[test]
    fn a_second_insert_of_a_key_keeps_the_first_plan() {
        let cache = PlanCache::default();
        let first = cache.insert(b"k".to_vec(), some_plan()).unwrap();
        let second = cache.insert(b"k".to_vec(), some_plan()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }
}
