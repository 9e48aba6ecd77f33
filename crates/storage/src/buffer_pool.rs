//! The buffer pool: faults 64 KiB pages of the on-disk format into memory
//! on demand and evicts them with a clock (second-chance) policy.
//!
//! The pool implements [`PageStore`], the trait the columnar crate's
//! [`ArrayData`](gfcl_columnar::ArrayData) reads through, so a reopened
//! graph serves reads from whatever subset of its value arrays is
//! currently resident. Frames are `Arc<Vec<u8>>`: a page is *pinned*
//! exactly while someone outside the pool holds a clone of its `Arc`
//! (`strong_count > 1`), which makes pin/unpin a pure refcount affair — a
//! reader keeps the page it is walking alive in its
//! [`PageCursor`](gfcl_columnar::PageCursor) and the executor drops its
//! cursors when the morsel ends.
//!
//! **Frame table and lock scope.** The page count is fixed at open (one
//! checksum per data page), so frames live in a table indexed by
//! `page_no - first_data_page`, one slot per page, each behind its own
//! short lock. A *hit* is an index plus that one slot's critical section
//! (clone the `Arc`, set the second-chance bit, count the hit): workers
//! pinning different pages share no lock and no cache line. The pool-wide
//! clock lock is taken only to insert a faulted page, advance the hand and
//! evict; eviction takes the slot locks one at a time *under* the clock
//! lock (the only nesting, always in that order), so a hit can never
//! observe a half-evicted frame. Page reads — and their retry backoff —
//! happen outside every lock.
//!
//! Every fault verifies the page's [`page_checksum`] — a 4-lane word
//! checksum that costs a few microseconds per 64 KiB page — against the
//! checksum array loaded at open time. Structural problems are caught by
//! [`open`](crate::ColumnarGraph::open) and surface as
//! [`Error::Storage`](gfcl_common::Error). Post-open faults are **error
//! propagation, not panics**: a failed read or checksum mismatch is
//! retried up to [`MAX_READ_ATTEMPTS`] times with bounded, deterministic
//! jittered backoff (transient device errors and torn reads heal here),
//! and a fault that survives the retries surfaces as
//! [`Error::Storage`](gfcl_common::Error) through [`PageStore::try_pin`] —
//! the infallible [`PageStore::pin`] wrapper then cancels exactly the
//! owning query via its installed fault domain
//! ([`gfcl_common::govern`]). Failed pages are never cached, so queries on
//! healthy pages keep running.
//!
//! Reads go through the [`PageFile`] seam rather than [`File`] directly,
//! which is what lets the chaos tier ([`crate::chaos`]) inject read errors
//! and bit flips *below* checksum verification — injected corruption is
//! caught exactly the way real corruption would be.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use gfcl_columnar::{PageStore, PAGE_SIZE};
use gfcl_common::{fnv1a_64, page_checksum, Error, Result};

/// How often one page read is attempted before the fault propagates to
/// the owning query: the first read plus two retries.
pub const MAX_READ_ATTEMPTS: u32 = 3;

/// The raw page-granular read interface under the pool. Production code
/// uses [`File`]; the chaos tier wraps it with a fault injector.
pub trait PageFile: Send + Sync {
    /// Read exactly `buf.len()` bytes at byte `offset`.
    fn read_page_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()>;
}

impl PageFile for File {
    fn read_page_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        self.read_exact_at(buf, offset)
    }
}

/// Default pool capacity, [`crate::StorageConfig::buffer_pool_pages`]
/// unless the caller sets it: 64 MiB of pages.
pub const DEFAULT_POOL_PAGES: usize = 64 * 1024 * 1024 / PAGE_SIZE;

/// Counters exposed for tests, benches and the memory breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Pages read from disk (checksum-verified).
    pub faults: u64,
    /// Pins served from a resident frame.
    pub hits: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Pages whose read was avoided entirely (zone-map pruning).
    pub pages_skipped: u64,
}

/// The mutable half of a frame-table slot.
#[derive(Default)]
struct Frame {
    /// The page's bytes while it is resident.
    data: Option<Arc<Vec<u8>>>,
    /// Second-chance bit: set on every hit, cleared as the clock hand
    /// passes. A frame is evicted only when unreferenced *and* unpinned.
    referenced: bool,
    /// Pins this slot served from its resident frame. Kept per slot, under
    /// the slot lock, so the hit path writes no pool-wide counter.
    hits: u64,
}

/// One frame-table slot: the page's checksum (fixed at open) and its
/// frame. Cache-line aligned so hits on neighbouring pages do not contend.
#[repr(align(64))]
struct Slot {
    checksum: u64,
    frame: Mutex<Frame>,
}

/// The clock: resident slots in a ring and the hand walking it. Ring and
/// frames change together, under this lock.
struct Clock {
    ring: Vec<usize>,
    hand: usize,
}

/// A clock-eviction buffer pool over one storage file.
pub struct BufferPool {
    file: Box<dyn PageFile>,
    capacity: usize,
    /// Page number of the first checksummed data page; `slots[i]` covers
    /// page `first_data_page + i`.
    first_data_page: u64,
    slots: Vec<Slot>,
    clock: Mutex<Clock>,
    faults: AtomicU64,
    evictions: AtomicU64,
    pages_skipped: AtomicU64,
}

/// Lock one of the pool's mutexes.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // lint: allow(a poisoned pool lock means another worker panicked inside
    // a critical section; the pool is unrecoverable and re-panicking is
    // policy)
    m.lock().expect("buffer pool lock poisoned by a panicked worker")
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("occupancy", &self.occupancy())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// A pool of at most `capacity` resident pages over `file`.
    pub fn new(file: File, capacity: usize, first_data_page: u64, checksums: Vec<u64>) -> Self {
        BufferPool::with_page_file(Box::new(file), capacity, first_data_page, checksums)
    }

    /// [`BufferPool::new`] over any [`PageFile`] — the seam the chaos
    /// tier's fault injector plugs into.
    pub fn with_page_file(
        file: Box<dyn PageFile>,
        capacity: usize,
        first_data_page: u64,
        checksums: Vec<u64>,
    ) -> Self {
        let slots = checksums
            .into_iter()
            .map(|checksum| Slot { checksum, frame: Mutex::default() })
            .collect();
        BufferPool {
            file,
            capacity: capacity.max(1),
            first_data_page,
            slots,
            clock: Mutex::new(Clock { ring: Vec::new(), hand: 0 }),
            faults: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pages_skipped: AtomicU64::new(0),
        }
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pages currently resident.
    pub fn occupancy(&self) -> usize {
        lock(&self.clock).ring.len()
    }

    /// Heap bytes held by resident frames right now.
    pub fn occupancy_bytes(&self) -> usize {
        self.occupancy() * PAGE_SIZE
    }

    /// Snapshot of the fault/hit/eviction/skip counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            faults: self.faults.load(Ordering::Relaxed),
            hits: self.slots.iter().map(|s| lock(&s.frame).hits).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
            pages_skipped: self.pages_skipped.load(Ordering::Relaxed),
        }
    }

    /// Deterministic jittered backoff before retry `attempt` (1-based):
    /// an exponential base of 200 µs · 2^(attempt−1) plus a jitter in
    /// `[0, base)` hashed from the page number and attempt, so concurrent
    /// workers retrying neighbouring pages don't re-hit the device in
    /// lockstep. Worst-case total sleep per page is under 1.2 ms — cheap
    /// enough that healthy retries are invisible and failing ones don't
    /// stall the query noticeably.
    fn retry_backoff(page_no: u64, attempt: u32) -> Duration {
        let base_us = 200u64 << (attempt - 1);
        let mut key = [0u8; 12];
        key[..8].copy_from_slice(&page_no.to_le_bytes());
        key[8..].copy_from_slice(&attempt.to_le_bytes());
        let jitter_us = fnv1a_64(&key) % base_us;
        Duration::from_micros(base_us + jitter_us)
    }

    /// One read + checksum-verify attempt. The error string names the
    /// page and the exact mismatch so retries that keep failing produce
    /// an actionable message.
    fn read_verified(&self, page_no: u64, expected: u64) -> std::result::Result<Vec<u8>, String> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.file
            .read_page_at(&mut buf, page_no * PAGE_SIZE as u64)
            .map_err(|e| format!("read failed: {e}"))?;
        let got = page_checksum(&buf);
        if got != expected {
            return Err(format!("checksum {got:#018x} != {expected:#018x}"));
        }
        Ok(buf)
    }

    /// Read and checksum-verify one page from disk, retrying transient
    /// failures with bounded jittered backoff. A fault that survives
    /// [`MAX_READ_ATTEMPTS`] attempts is an [`Error::Storage`] scoped to the
    /// query that asked for the page.
    fn fault(&self, page_no: u64, expected: u64) -> Result<Vec<u8>> {
        let mut last = String::new();
        for attempt in 0..MAX_READ_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(Self::retry_backoff(page_no, attempt));
            }
            match self.read_verified(page_no, expected) {
                Ok(buf) => return Ok(buf),
                Err(e) => last = e,
            }
        }
        Err(Error::Storage(format!(
            "page {page_no} unreadable after {MAX_READ_ATTEMPTS} attempts: {last}"
        )))
    }

    /// Evict until at most `capacity` frames remain, skipping pinned frames
    /// (someone holds the `Arc`) and giving referenced frames one second
    /// chance. Gives up if every frame is pinned — the pool then runs
    /// over capacity rather than deadlocking. Called with the clock lock
    /// held; takes one slot lock at a time, so a concurrent hit either
    /// cloned the `Arc` before the check (the frame counts as pinned) or
    /// finds the slot empty afterwards and faults.
    fn evict_to_capacity(&self, clock: &mut Clock) {
        // `stuck` counts consecutive non-evicting steps and resets on
        // every eviction, so reclaiming N frames is never cut short by a
        // shrinking budget — only a ring where two full passes (clear
        // second chances, then evict) make no progress is truly stuck.
        let mut stuck = 0usize;
        while clock.ring.len() > self.capacity {
            if stuck > 2 * clock.ring.len() {
                return; // everything pinned or referenced twice over
            }
            if clock.hand >= clock.ring.len() {
                clock.hand = 0;
            }
            let mut frame = lock(&self.slots[clock.ring[clock.hand]].frame);
            if frame.data.as_ref().is_some_and(|d| Arc::strong_count(d) > 1) {
                clock.hand += 1; // pinned
                stuck += 1;
            } else if frame.referenced {
                frame.referenced = false;
                clock.hand += 1; // second chance
                stuck += 1;
            } else {
                frame.data = None;
                drop(frame);
                clock.ring.swap_remove(clock.hand);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                stuck = 0;
            }
        }
    }
}

impl PageStore for BufferPool {
    fn try_pin(&self, page_no: u64) -> Result<Arc<Vec<u8>>> {
        let idx = page_no.checked_sub(self.first_data_page).and_then(|i| usize::try_from(i).ok());
        let Some((idx, slot)) = idx.and_then(|i| Some((i, self.slots.get(i)?))) else {
            // Structural, not transient: a corrupt SegRef survived
            // open-time validation. Fail immediately, no retries.
            return Err(Error::Storage(format!(
                "page {page_no} outside the checksummed data region"
            )));
        };
        {
            // The hit path: this slot's lock and nothing else.
            let mut frame = lock(&slot.frame);
            if let Some(data) = frame.data.as_ref().map(Arc::clone) {
                frame.referenced = true;
                frame.hits += 1;
                return Ok(data);
            }
        }
        // Fault *outside* every lock: the retry/backoff path may sleep,
        // and holding a lock through it would stall queries on healthy
        // pages behind one bad page. The cost is that two workers racing
        // on the same page may both read it; the loser's copy is dropped
        // below.
        let data = Arc::new(self.fault(page_no, slot.checksum)?);
        self.faults.fetch_add(1, Ordering::Relaxed);
        let mut clock = lock(&self.clock);
        {
            let mut frame = lock(&slot.frame);
            if let Some(theirs) = frame.data.as_ref().map(Arc::clone) {
                // Another worker faulted it concurrently; keep its frame so
                // both pins share one copy and eviction sees one refcount.
                frame.referenced = true;
                return Ok(theirs);
            }
            frame.data = Some(Arc::clone(&data));
            frame.referenced = true;
        }
        clock.ring.push(idx);
        self.evict_to_capacity(&mut clock);
        Ok(data)
        // Note: a failed fault inserted nothing — a poisoned page is
        // re-attempted (and may heal) on the next query that needs it.
    }

    fn note_skipped(&self, n_pages: u64) {
        self.pages_skipped.fetch_add(n_pages, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io::Write as _;
    use std::path::PathBuf;

    /// A scratch file of `n` distinct data pages starting at page 0;
    /// page `i` is filled with byte `i as u8`. Returns (pool-ready file,
    /// checksums, path for cleanup).
    fn page_file(name: &str, n: usize) -> (File, Vec<u64>, PathBuf) {
        let path = std::env::temp_dir()
            .join(format!("gfcl_buffer_pool_{}_{name}.bin", std::process::id()));
        let mut f = File::create(&path).unwrap();
        let mut checksums = Vec::new();
        for i in 0..n {
            let page = vec![i as u8; PAGE_SIZE];
            checksums.push(page_checksum(&page));
            f.write_all(&page).unwrap();
        }
        drop(f);
        (File::open(&path).unwrap(), checksums, path)
    }

    #[test]
    fn faults_then_hits() {
        let (f, sums, path) = page_file("hits", 3);
        let pool = BufferPool::new(f, 8, 0, sums);
        let a = pool.pin(1);
        assert_eq!(a[0], 1);
        drop(a);
        let b = pool.pin(1);
        assert_eq!(b[100], 1);
        let s = pool.stats();
        assert_eq!((s.faults, s.hits), (1, 1));
        assert_eq!(pool.occupancy(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn clock_evicts_down_to_capacity() {
        let (f, sums, path) = page_file("evict", 6);
        let pool = BufferPool::new(f, 2, 0, sums);
        for p in 0..6 {
            let g = pool.pin(p);
            assert_eq!(g[7], p as u8);
        }
        assert!(pool.occupancy() <= 2, "occupancy {} > capacity 2", pool.occupancy());
        assert_eq!(pool.stats().faults, 6);
        assert!(pool.stats().evictions >= 4);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        let (f, sums, path) = page_file("pin", 6);
        let pool = BufferPool::new(f, 2, 0, sums);
        let held = pool.pin(0); // keep the Arc → pinned
        for p in 1..6 {
            pool.pin(p);
        }
        // Page 0 must still be resident and intact despite the pressure.
        assert_eq!(held[123], 0);
        let again = pool.pin(0);
        assert_eq!(again[55], 0);
        let s = pool.stats();
        assert_eq!(s.faults, 6, "page 0 was never re-faulted");
        assert!(s.hits >= 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn all_pinned_pool_runs_over_capacity_instead_of_hanging() {
        let (f, sums, path) = page_file("over", 4);
        let pool = BufferPool::new(f, 1, 0, sums);
        let guards: Vec<_> = (0..4).map(|p| pool.pin(p)).collect();
        assert_eq!(pool.occupancy(), 4); // over capacity, but alive
        for (p, g) in guards.iter().enumerate() {
            assert_eq!(g[9], p as u8);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hits_on_disjoint_pages_share_no_lock() {
        const THREADS: usize = 4;
        const PINS: u64 = 10_000;
        let (f, sums, path) = page_file("disjoint", THREADS + 1);
        let pool = BufferPool::new(f, 8, 0, sums);
        for p in 0..=THREADS as u64 {
            pool.pin(p); // fault everything in: only hits from here on
        }
        let start = std::sync::Barrier::new(THREADS);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            // Hold every lock a worker's hit does not need — the pool-wide
            // clock and a neighbouring slot — for the whole run: a hit path
            // that touched either would never finish.
            let clock = lock(&pool.clock);
            let neighbour = lock(&pool.slots[THREADS].frame);
            for t in 0..THREADS as u64 {
                let (pool, start, done_tx) = (&pool, &start, done_tx.clone());
                s.spawn(move || {
                    start.wait();
                    for _ in 0..PINS {
                        assert_eq!(pool.try_pin(t).unwrap()[0], t as u8);
                    }
                    done_tx.send(()).unwrap();
                });
            }
            for _ in 0..THREADS {
                // The timeout only turns a deadlock into a failure.
                done_rx
                    .recv_timeout(Duration::from_secs(60))
                    .expect("a hit waited on the clock lock or on another page's slot");
            }
            drop((clock, neighbour));
        });
        for slot in &pool.slots[..THREADS] {
            assert_eq!(lock(&slot.frame).hits, PINS, "every worker's hits landed on its own slot");
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.faults), (THREADS as u64 * PINS, THREADS as u64 + 1));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupted_page_is_a_storage_error_not_a_panic() {
        let (f, mut sums, path) = page_file("corrupt", 2);
        sums[1] ^= 0xdead; // claim a different checksum than what's on disk
        let pool = BufferPool::new(f, 4, 0, sums);
        pool.try_pin(0).unwrap(); // fine
        let err = pool.try_pin(1).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
        assert!(err.to_string().contains("checksum"), "{err}");
        assert!(err.to_string().contains("3 attempts"), "retries exhausted: {err}");
        // The poisoned page was not cached; healthy pages still serve.
        assert_eq!(pool.occupancy(), 1);
        assert_eq!(pool.try_pin(0).unwrap()[3], 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_region_page_is_a_storage_error() {
        let (f, sums, path) = page_file("region", 2);
        let pool = BufferPool::new(f, 4, 1, sums); // data region starts at page 1
        let err = pool.try_pin(0).unwrap_err();
        assert!(err.to_string().contains("outside the checksummed data region"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn infallible_pin_reports_into_the_installed_fault_domain() {
        use gfcl_common::govern::{fault_scope, CancelReason, CancelToken};
        let (f, mut sums, path) = page_file("domain", 2);
        sums[1] ^= 1;
        let pool = BufferPool::new(f, 4, 0, sums);
        let token = Arc::new(CancelToken::new());
        let page = {
            let _scope = fault_scope(&token);
            pool.pin(1)
        };
        assert_eq!(page.len(), PAGE_SIZE, "placeholder page returned");
        assert!(page.iter().all(|&b| b == 0));
        assert_eq!(token.reason(), Some(CancelReason::Io));
        assert!(token.io_detail().unwrap().contains("page 1"), "{:?}", token.io_detail());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        for attempt in 1..MAX_READ_ATTEMPTS {
            let d = BufferPool::retry_backoff(42, attempt);
            assert_eq!(d, BufferPool::retry_backoff(42, attempt), "deterministic");
            let base = 200u64 << (attempt - 1);
            assert!(d >= Duration::from_micros(base));
            assert!(d < Duration::from_micros(2 * base));
        }
        // Jitter spreads distinct pages within one attempt.
        assert_ne!(BufferPool::retry_backoff(1, 1), BufferPool::retry_backoff(2, 1));
    }

    #[test]
    fn skip_accounting_accumulates() {
        let (f, sums, path) = page_file("skip", 1);
        let pool = BufferPool::new(f, 4, 0, sums);
        pool.note_skipped(3);
        pool.note_skipped(4);
        assert_eq!(pool.stats().pages_skipped, 7);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn capacity_floor_is_one_page() {
        let (f, sums, path) = page_file("floor", 1);
        assert_eq!(BufferPool::new(f, 0, 0, sums).capacity(), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn eviction_resumes_after_pins_drop() {
        let (f, sums, path) = page_file("pinrelease", 6);
        let pool = BufferPool::new(f, 2, 0, sums);
        // Pin everything: the pool must run over capacity, evicting nothing.
        let guards: Vec<_> = (0..5).map(|p| pool.pin(p)).collect();
        assert_eq!(pool.occupancy(), 5);
        assert_eq!(pool.stats().evictions, 0, "pinned frames are unevictable");
        // Release the pins; the next fault must reclaim down to capacity.
        drop(guards);
        pool.pin(5);
        assert!(
            pool.occupancy() <= 2,
            "eviction resumed after pins dropped, occupancy {}",
            pool.occupancy()
        );
        assert!(pool.stats().evictions >= 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_count_every_event_exactly() {
        let (f, sums, path) = page_file("stats", 4);
        let pool = BufferPool::new(f, 2, 0, sums);
        pool.pin(0); // fault
        pool.pin(0); // hit
        pool.pin(1); // fault
        pool.pin(0); // hit
        pool.pin(2); // fault + one eviction (capacity 2)
        pool.note_skipped(5);
        let s = pool.stats();
        assert_eq!(s.faults, 3);
        assert_eq!(s.hits, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.pages_skipped, 5);
        assert_eq!(pool.occupancy(), 2);
        assert_eq!(pool.occupancy_bytes(), 2 * PAGE_SIZE);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_read_errors_heal_within_the_retry_budget() {
        /// Fails the first `fail_first` reads of every page, then serves
        /// the real bytes — a deterministic stand-in for a transient
        /// device error.
        struct Flaky {
            inner: File,
            fail_first: u32,
            seen: Mutex<HashMap<u64, u32>>,
        }
        impl PageFile for Flaky {
            fn read_page_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
                // lint: allow(test-support; poisoned lock re-panic is fine)
                let mut seen = self.seen.lock().unwrap();
                let n = seen.entry(offset).or_insert(0);
                if *n < self.fail_first {
                    *n += 1;
                    return Err(std::io::Error::other("injected transient error"));
                }
                self.inner.read_page_at(buf, offset)
            }
        }

        let (f, sums, path) = page_file("flaky", 2);
        let flaky =
            Flaky { inner: f, fail_first: MAX_READ_ATTEMPTS - 1, seen: Mutex::new(HashMap::new()) };
        let pool = BufferPool::with_page_file(Box::new(flaky), 4, 0, sums);
        let page = pool.try_pin(1).unwrap();
        assert_eq!(page[10], 1, "healed read serves real bytes");
        assert_eq!(pool.stats().faults, 1);
        std::fs::remove_file(&path).ok();
    }
}
