//! The resident/paged storage split behind every value array.
//!
//! The in-memory build path stores arrays as plain `Vec`s ("Resident");
//! a graph reopened from the on-disk format stores them as page-number
//! ranges into a [`PageStore`] ("Paged") and faults 64 KiB pages in on
//! demand. [`ArrayData`] is the leaf abstraction both compile to: the
//! resident arm is exactly the code the all-in-memory engine ran before
//! paging existed, so the fast tier pays nothing for the feature.
//!
//! Elements are fixed-width (1/2/4/8 bytes — every width divides
//! [`PAGE_SIZE`], so no element ever straddles a page boundary) and
//! segments are page-aligned.
//!
//! A pin is something a *reader* holds, not something a *value* costs.
//! Three accessors touch the page store, and nothing else in this module
//! does:
//!
//! * [`ArrayData::get`] — the cold path: one page pin plus one
//!   little-endian load per call.
//! * [`ArrayData::get_with`] — the same read through a reader-owned
//!   [`PageCursor`], which keeps the pages it touched last pinned and goes
//!   back to the store only when the page changes: a walk over one page
//!   is one pin.
//! * [`ArrayData::read_range`] — decode `[start, end)` straight into the
//!   caller's vector: at most one pin per page covered.
//!
//! On the resident arm all three compile to the plain slice / index code.

use std::sync::{Arc, OnceLock};

use gfcl_common::{MemoryUsage, Reader, Result, Writer};

/// On-disk page size. 64 KiB amortizes fault overhead over ~8K adjacency
/// entries while keeping a starved 4 MiB pool, the size the persistence
/// suite is run at, at a useful 64 frames.
pub const PAGE_SIZE: usize = 65536;

/// A source of pinned pages — implemented by the buffer pool in
/// `gfcl_storage::buffer_pool`. Pinning is Arc-based: a page stays resident (is
/// skipped by eviction) for as long as any returned `Arc` is alive.
pub trait PageStore: Send + Sync + std::fmt::Debug {
    /// Fault page `page_no` in (or hit the pool) and pin it. Fallible:
    /// a read that still fails after the store's own retry policy (and a
    /// checksum mismatch, which retries cannot heal if the medium is bad)
    /// surfaces as [`Error::Storage`](gfcl_common::Error::Storage) rather
    /// than unwinding the reader.
    fn try_pin(&self, page_no: u64) -> Result<Arc<Vec<u8>>>;

    /// Infallible pin used by the hot read path ([`ArrayData::get`] keeps
    /// its plain-value signature so an I/O error can never be confused
    /// with a NULL). On failure the error is reported to the thread's
    /// installed fault domain ([`gfcl_common::govern::fault_scope`]) — the
    /// owning query observes it at its next cancellation checkpoint — and
    /// the process-wide zeroed placeholder page is returned so the current
    /// morsel can unwind cooperatively. The placeholder can never leak into
    /// results: every governed query checks its token before publishing,
    /// and a [`PageCursor`] that cached it dies with that query's pipeline.
    ///
    /// Outside any fault domain there is no query to contain the failure,
    /// and serving placeholder bytes would silently corrupt whatever read
    /// them — so this panics, preserving the historical fail-loud
    /// behaviour for non-query access paths.
    fn pin(&self, page_no: u64) -> Arc<Vec<u8>> {
        match self.try_pin(page_no) {
            Ok(page) => page,
            Err(e) => {
                if gfcl_common::govern::report_io_fault(&e.to_string()) {
                    // One zero page for the whole process: a permanently
                    // unreadable page must not cost 64 KiB per failed pin.
                    static ZEROES: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
                    Arc::clone(ZEROES.get_or_init(|| Arc::new(vec![0u8; PAGE_SIZE])))
                } else {
                    // lint: allow(no fault domain installed: placeholder
                    // bytes would silently corrupt a non-query reader, so
                    // failing loud is the only safe option here)
                    panic!("unrecoverable storage fault outside any query fault domain: {e}")
                }
            }
        }
    }

    /// Account `n_pages` data pages that a pruned scan proved it never
    /// needs to fault (zone-map pruning turned into I/O skipping).
    fn note_skipped(&self, n_pages: u64);
}

/// A page-aligned byte range of the storage file holding one value array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegRef {
    /// First page of the segment.
    pub start_page: u64,
    /// Pages the segment spans (its tail page may be zero-padded).
    pub n_pages: u64,
}

/// Where an array encoder writes its raw value bytes: the format layer
/// hands out page-aligned segments and records where they landed.
pub trait SegmentSink {
    /// Append `bytes` as a new page-aligned segment.
    fn write_segment(&mut self, bytes: &[u8]) -> SegRef;
}

/// Where an array decoder gets its page store from at open time.
pub trait SegmentSource {
    fn store(&self) -> Arc<dyn PageStore>;
}

/// A fixed-width element type storable in pages. Widths are powers of two
/// ≤ 8 so elements never straddle a [`PAGE_SIZE`] boundary.
pub trait PagedElem: Copy + std::fmt::Debug + 'static {
    const WIDTH: usize;
    fn write_le(self, out: &mut Vec<u8>);
    fn read_le(b: &[u8]) -> Self;
}

macro_rules! paged_elem_int {
    ($($t:ty),*) => {$(
        impl PagedElem for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(b: &[u8]) -> $t {
                // lint: allow(the [..WIDTH] slice fixes the length, so the
                // array conversion cannot fail; a short buffer panics on
                // the slice with an exact bounds message either way)
                <$t>::from_le_bytes(b[..Self::WIDTH].try_into().expect("element width"))
            }
        }
    )*};
}

paged_elem_int!(u8, u16, u32, u64, i64, f64);

impl PagedElem for bool {
    const WIDTH: usize = 1;
    #[inline]
    fn write_le(self, out: &mut Vec<u8>) {
        out.push(u8::from(self));
    }
    #[inline]
    fn read_le(b: &[u8]) -> bool {
        b[0] != 0
    }
}

/// The pins a reader owns: the last few pages it touched.
///
/// A cursor belongs to one reader walking one array (or several arrays of
/// one [`PageStore`] — page numbers are store-wide). It is a tiny
/// direct-mapped page table of [`PageCursor::SLOTS`] entries: a read goes
/// back to the store only when its page is not the one held in the page's
/// slot, so a sequential walk pins each page once, and a gather bouncing
/// between a handful of pages (an adjacency list's neighbours, their
/// property values) pins each of them once too. While the cursor holds a
/// page that page cannot be evicted — the cursor *is* the eviction guard
/// for the walk — and it never holds more than `SLOTS` pages.
///
/// The table is allocated when the first paged page is touched and kept
/// from then on: a cursor that only ever meets resident arrays stays one
/// null pointer, so the operators that embed cursors cost a query over a
/// resident graph neither an allocation nor a larger operator.
#[derive(Debug, Clone, Default)]
pub struct PageCursor {
    pages: Option<Box<[HeldPage; PageCursor::SLOTS]>>,
}

/// One slot of a cursor's table: the page number and its pinned frame.
type HeldPage = Option<(u64, Arc<Vec<u8>>)>;

impl PageCursor {
    /// Pages a cursor can hold at once (page `p` lives in slot
    /// `p % SLOTS`): 512 KiB of pinned frames at most.
    pub const SLOTS: usize = 8;

    pub fn new() -> PageCursor {
        PageCursor::default()
    }

    /// Release every pin (the executor does this at every morsel boundary,
    /// so a pin never outlives a morsel).
    pub fn clear(&mut self) {
        if let Some(pages) = &mut self.pages {
            **pages = Default::default();
        }
    }

    /// The bytes of page `page_no`, pinned through `store` only when its
    /// slot does not already hold it.
    #[inline]
    fn page(&mut self, store: &dyn PageStore, page_no: u64) -> &[u8] {
        let pages = self.pages.get_or_insert_with(Default::default);
        // lint: allow(a remainder by the array's own length is in bounds;
        // the narrowing keeps only the low bits the remainder uses)
        let slot = &mut pages[page_no as usize % PageCursor::SLOTS];
        if !matches!(slot, Some((held, _)) if *held == page_no) {
            // Unpin the slot's old page first so the pool may reclaim it
            // for the fault below.
            *slot = None;
        }
        let (_, bytes) = slot.get_or_insert_with(|| (page_no, store.pin(page_no)));
        bytes
    }
}

/// A fixed-width value array that is either fully resident or faulted in
/// page-by-page through a [`PageStore`].
#[derive(Debug, Clone)]
pub enum ArrayData<T: PagedElem> {
    /// The classic in-memory `Vec` — the fast tier.
    Resident(Vec<T>),
    /// A page range of the storage file; `len` elements packed at
    /// `T::WIDTH` bytes each from the start of `seg`.
    Paged { store: Arc<dyn PageStore>, seg: SegRef, len: usize },
}

impl<T: PagedElem> ArrayData<T> {
    pub fn len(&self) -> usize {
        match self {
            ArrayData::Resident(d) => d.len(),
            ArrayData::Paged { len, .. } => *len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Constant-time random access: an index on the resident arm, one page
    /// pin + LE load on the paged arm. The cold path — loops read through
    /// [`ArrayData::get_with`] or [`ArrayData::read_range`].
    #[inline]
    pub fn get(&self, i: usize) -> T {
        match self {
            ArrayData::Resident(d) => d[i],
            ArrayData::Paged { store, seg, len } => {
                debug_assert!(i < *len);
                let byte = i * T::WIDTH;
                let page = store.pin(seg.start_page + (byte / PAGE_SIZE) as u64);
                // lint: allow(elements never straddle pages: WIDTH divides
                // PAGE_SIZE, so byte % PAGE_SIZE <= PAGE_SIZE - WIDTH)
                T::read_le(&page[byte % PAGE_SIZE..])
            }
        }
    }

    /// [`ArrayData::get`] through a reader-owned cursor: the paged arm
    /// touches the store only when `i` lies on another page than the
    /// cursor's; the resident arm is the plain index.
    #[inline]
    pub fn get_with(&self, cur: &mut PageCursor, i: usize) -> T {
        match self {
            ArrayData::Resident(d) => d[i],
            ArrayData::Paged { store, seg, len } => {
                debug_assert!(i < *len);
                let byte = i * T::WIDTH;
                let page = cur.page(store.as_ref(), seg.start_page + (byte / PAGE_SIZE) as u64);
                // lint: allow(elements never straddle pages: WIDTH divides
                // PAGE_SIZE, so byte % PAGE_SIZE <= PAGE_SIZE - WIDTH)
                T::read_le(&page[byte % PAGE_SIZE..])
            }
        }
    }

    /// Append elements `[start, end)` to `out`: a slice copy on the
    /// resident arm, one little-endian block decode per page covered on
    /// the paged arm (pinned through `cur`, so a reader stepping list by
    /// list over one page pins it once).
    pub fn read_range(&self, cur: &mut PageCursor, start: usize, end: usize, out: &mut Vec<T>) {
        self.read_range_with(cur, start, end, out, |v| v);
    }

    /// [`ArrayData::read_range`] converting each element on the way out
    /// (the widening load of [`UIntArray`](crate::UIntArray)).
    pub fn read_range_with<U>(
        &self,
        cur: &mut PageCursor,
        start: usize,
        end: usize,
        out: &mut Vec<U>,
        widen: impl Fn(T) -> U,
    ) {
        match self {
            ArrayData::Resident(d) => out.extend(d[start..end].iter().map(|&v| widen(v))),
            ArrayData::Paged { store, seg, len } => {
                debug_assert!(start <= end && end <= *len);
                out.reserve(end.saturating_sub(start));
                let stop = end * T::WIDTH;
                let mut byte = start * T::WIDTH;
                while byte < stop {
                    let lo = byte % PAGE_SIZE;
                    let hi = (lo + (stop - byte)).min(PAGE_SIZE);
                    let page = cur.page(store.as_ref(), seg.start_page + (byte / PAGE_SIZE) as u64);
                    out.extend(page[lo..hi].chunks_exact(T::WIDTH).map(|b| widen(T::read_le(b))));
                    byte += hi - lo;
                }
            }
        }
    }

    /// Append (resident arrays only — paged arrays are immutable).
    #[inline]
    pub fn push(&mut self, v: T) {
        match self {
            ArrayData::Resident(d) => d.push(v),
            // lint: allow(API misuse, not data-dependent: paged arrays are
            // immutable by contract and no query path mutates them)
            ArrayData::Paged { .. } => panic!("push on a paged array"),
        }
    }

    /// Overwrite position `i` (resident arrays only).
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        match self {
            ArrayData::Resident(d) => d[i] = v,
            // lint: allow(API misuse, not data-dependent: paged arrays are
            // immutable by contract and no query path mutates them)
            ArrayData::Paged { .. } => panic!("set on a paged array"),
        }
    }

    pub fn shrink_to_fit(&mut self) {
        if let ArrayData::Resident(d) = self {
            d.shrink_to_fit();
        }
    }

    pub fn iter(&self) -> impl ExactSizeIterator<Item = T> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Heap bytes held right now (a paged array's bytes live in the pool,
    /// accounted there).
    pub fn resident_bytes(&self) -> usize {
        match self {
            ArrayData::Resident(d) => d.capacity() * std::mem::size_of::<T>(),
            ArrayData::Paged { .. } => 0,
        }
    }

    /// Bytes that live on disk and fault in through the pool.
    pub fn pageable_bytes(&self) -> usize {
        match self {
            ArrayData::Resident(_) => 0,
            ArrayData::Paged { len, .. } => len * T::WIDTH,
        }
    }

    /// Pages covering elements `[start, end)` of a paged array (`None` when
    /// resident): the faulting footprint of one block.
    pub fn page_range(&self, start: usize, end: usize) -> Option<(u64, u64)> {
        match self {
            ArrayData::Resident(_) => None,
            ArrayData::Paged { seg, .. } => {
                if start >= end {
                    return Some((seg.start_page, seg.start_page));
                }
                let first = seg.start_page + (start * T::WIDTH / PAGE_SIZE) as u64;
                let last = seg.start_page + ((end - 1) * T::WIDTH / PAGE_SIZE) as u64;
                Some((first, last + 1))
            }
        }
    }

    /// Tell the store the pages covering `[start, end)` were proven
    /// skippable without faulting them. No-op when resident.
    pub fn note_skipped_range(&self, start: usize, end: usize) {
        if let (ArrayData::Paged { store, .. }, Some((first, last))) =
            (self, self.page_range(start, end))
        {
            store.note_skipped(last - first);
        }
    }

    /// The packed little-endian value bytes (the segment payload).
    pub fn to_value_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() * T::WIDTH);
        for i in 0..self.len() {
            self.get(i).write_le(&mut out);
        }
        out
    }

    /// Encode into the metadata stream itself (small arrays that must stay
    /// resident after open — NULL-map internals, CSR offsets).
    pub fn encode_inline(&self, w: &mut Writer) {
        w.usize(self.len());
        w.bytes(&self.to_value_bytes());
    }

    /// Decode an [`ArrayData::encode_inline`] stream — always resident.
    pub fn decode_inline(r: &mut Reader<'_>) -> Result<ArrayData<T>> {
        let n = r.count()?;
        let raw = r.bytes(n * T::WIDTH)?;
        let mut d = Vec::with_capacity(n);
        for i in 0..n {
            // lint: allow(bytes(n * WIDTH) above bounds-checked the whole
            // span, so every i * WIDTH start is in range)
            d.push(T::read_le(&raw[i * T::WIDTH..]));
        }
        Ok(ArrayData::Resident(d))
    }

    /// Encode as a page-aligned segment: value bytes go to `sink`, the
    /// segment location into the metadata stream.
    pub fn encode_seg(&self, w: &mut Writer, sink: &mut dyn SegmentSink) {
        w.usize(self.len());
        let seg = sink.write_segment(&self.to_value_bytes());
        w.u64(seg.start_page);
        w.u64(seg.n_pages);
    }

    /// Decode an [`ArrayData::encode_seg`] stream as a paged array over
    /// `src`'s store.
    pub fn decode_seg(r: &mut Reader<'_>, src: &dyn SegmentSource) -> Result<ArrayData<T>> {
        let len = r.usize()?;
        let seg = SegRef { start_page: r.u64()?, n_pages: r.u64()? };
        let need = (len * T::WIDTH).div_ceil(PAGE_SIZE) as u64;
        if seg.n_pages < need {
            return Err(gfcl_common::Error::Storage(format!(
                "segment at page {} spans {} pages but {len} elements need {need}",
                seg.start_page, seg.n_pages
            )));
        }
        Ok(ArrayData::Paged { store: src.store(), seg, len })
    }
}

impl<T: PagedElem> From<Vec<T>> for ArrayData<T> {
    fn from(d: Vec<T>) -> ArrayData<T> {
        ArrayData::Resident(d)
    }
}

impl<T: PagedElem + PartialEq> PartialEq for ArrayData<T> {
    fn eq(&self, other: &ArrayData<T>) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

impl<T: PagedElem> MemoryUsage for ArrayData<T> {
    fn memory_bytes(&self) -> usize {
        self.resident_bytes()
    }
}

/// An in-memory [`PageStore`]/[`SegmentSink`] pair used by unit tests of
/// every encode/decode implementation (the production pair is the storage
/// crate's file-backed buffer pool and format writer).
pub mod mem {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A page store over an in-memory "file" of segments.
    #[derive(Debug, Default)]
    pub struct MemStore {
        pages: Mutex<Vec<Arc<Vec<u8>>>>,
        skipped: AtomicU64,
        pin_calls: AtomicU64,
        /// Pages whose every pin fails (a permanently unreadable page).
        poisoned: Mutex<Vec<u64>>,
    }

    impl MemStore {
        pub fn new() -> Arc<MemStore> {
            Arc::new(MemStore::default())
        }

        /// Pages accounted as skipped via [`PageStore::note_skipped`].
        pub fn skipped(&self) -> u64 {
            self.skipped.load(Ordering::Relaxed)
        }

        /// [`PageStore::try_pin`] calls so far, failed ones included.
        pub fn pins(&self) -> u64 {
            self.pin_calls.load(Ordering::Relaxed)
        }

        /// Make every later pin of `page_no` fail.
        pub fn poison(&self, page_no: u64) {
            // lint: allow(test-support store; a poisoned lock means a test
            // already panicked and re-panicking is correct)
            self.poisoned.lock().unwrap().push(page_no);
        }

        /// Pages written so far.
        pub fn n_pages(&self) -> usize {
            // lint: allow(test-support store; a poisoned lock means a test
            // already panicked and re-panicking is correct)
            self.pages.lock().unwrap().len()
        }
    }

    impl PageStore for MemStore {
        fn try_pin(&self, page_no: u64) -> Result<Arc<Vec<u8>>> {
            self.pin_calls.fetch_add(1, Ordering::Relaxed);
            // lint: allow(test-support store; poisoned-lock re-panic is fine)
            if self.poisoned.lock().unwrap().contains(&page_no) {
                return Err(gfcl_common::Error::Storage(format!("page {page_no} is unreadable")));
            }
            // lint: allow(test-support store: poisoned-lock re-panic is
            // correct, and page counts stay far below usize::MAX)
            let pages = self.pages.lock().unwrap();
            // lint: allow(test-support store; counts far below usize::MAX)
            match pages.get(page_no as usize) {
                Some(p) => Ok(Arc::clone(p)),
                None => Err(gfcl_common::Error::Storage(format!(
                    "page {page_no} beyond the {} pages of the in-memory store",
                    pages.len()
                ))),
            }
        }
        fn note_skipped(&self, n_pages: u64) {
            self.skipped.fetch_add(n_pages, Ordering::Relaxed);
        }
    }

    /// Writes segments into a [`MemStore`].
    pub struct MemSink(pub Arc<MemStore>);

    impl SegmentSink for MemSink {
        fn write_segment(&mut self, bytes: &[u8]) -> SegRef {
            // lint: allow(test-support store; a poisoned lock means a test
            // already panicked and re-panicking is correct)
            let mut pages = self.0.pages.lock().unwrap();
            let start_page = pages.len() as u64;
            for chunk in bytes.chunks(PAGE_SIZE) {
                let mut page = chunk.to_vec();
                page.resize(PAGE_SIZE, 0);
                pages.push(Arc::new(page));
            }
            if bytes.is_empty() {
                pages.push(Arc::new(vec![0; PAGE_SIZE]));
            }
            SegRef { start_page, n_pages: (pages.len() as u64) - start_page }
        }
    }

    impl SegmentSource for Arc<MemStore> {
        fn store(&self) -> Arc<dyn PageStore> {
            Arc::clone(self) as Arc<dyn PageStore>
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mem::{MemSink, MemStore};
    use super::*;

    fn paged_roundtrip<T: PagedElem + PartialEq>(values: Vec<T>) -> ArrayData<T> {
        let store = MemStore::new();
        let resident = ArrayData::Resident(values);
        let mut w = Writer::new();
        resident.encode_seg(&mut w, &mut MemSink(Arc::clone(&store)));
        let bytes = w.into_bytes();
        let paged = ArrayData::<T>::decode_seg(&mut Reader::new(&bytes), &store).unwrap();
        assert_eq!(paged, resident);
        paged
    }

    #[test]
    fn paged_equals_resident_across_types() {
        paged_roundtrip::<u8>((0..=255).collect());
        paged_roundtrip::<u16>((0..40_000).map(|i| i as u16).collect());
        paged_roundtrip::<u32>((0..100_000).map(|i| i * 7919).collect());
        paged_roundtrip::<u64>((0..9000).map(|i| i * 0x1234_5678).collect());
        paged_roundtrip::<i64>((-500..500).map(|i| i * 3).collect());
        paged_roundtrip::<f64>((0..300).map(|i| i as f64 * 0.5).collect());
        paged_roundtrip::<bool>((0..1000).map(|i| i % 3 == 0).collect());
    }

    #[test]
    fn multi_page_access_crosses_boundaries() {
        // 3 pages of u32: exercise both sides of each page edge.
        let n = 3 * PAGE_SIZE / 4;
        let paged = paged_roundtrip::<u32>((0..n as u32).collect());
        for i in [0, 16383, 16384, 32767, 32768, n - 1] {
            assert_eq!(paged.get(i), i as u32);
        }
        assert_eq!(paged.page_range(0, n), paged.page_range(0, n));
        assert_eq!(paged.page_range(0, 1).unwrap().1 - paged.page_range(0, 1).unwrap().0, 1);
        let (f, l) = paged.page_range(16000, 17000).unwrap();
        assert_eq!(l - f, 2, "a straddling element range pins both pages");
    }

    #[test]
    fn inline_roundtrip_is_resident() {
        let arr = ArrayData::Resident(vec![1u64, 2, 3]);
        let mut w = Writer::new();
        arr.encode_inline(&mut w);
        let bytes = w.into_bytes();
        let back = ArrayData::<u64>::decode_inline(&mut Reader::new(&bytes)).unwrap();
        assert!(matches!(back, ArrayData::Resident(_)));
        assert_eq!(back, arr);
    }

    #[test]
    fn truncated_segment_metadata_is_an_error() {
        let store = MemStore::new();
        let mut w = Writer::new();
        ArrayData::Resident((0..100u64).collect()).encode_seg(&mut w, &mut MemSink(store.clone()));
        let bytes = w.into_bytes();
        assert!(ArrayData::<u64>::decode_seg(&mut Reader::new(&bytes[..10]), &store).is_err());
        // A segment too small for its element count is rejected.
        let mut w = Writer::new();
        w.usize(1_000_000);
        w.u64(0);
        w.u64(1);
        let bytes = w.into_bytes();
        assert!(ArrayData::<u64>::decode_seg(&mut Reader::new(&bytes), &store).is_err());
    }

    #[test]
    fn skip_accounting_reaches_the_store() {
        let store = MemStore::new();
        let mut w = Writer::new();
        ArrayData::Resident((0..50_000u64).collect())
            .encode_seg(&mut w, &mut MemSink(store.clone()));
        let bytes = w.into_bytes();
        let paged = ArrayData::<u64>::decode_seg(&mut Reader::new(&bytes), &store).unwrap();
        paged.note_skipped_range(0, 50_000);
        assert_eq!(store.skipped(), 7);
    }

    #[test]
    fn cursor_pins_only_on_a_slot_miss() {
        let store = MemStore::new();
        let per_page = PAGE_SIZE / 8;
        let values: Vec<u64> = (0..(PageCursor::SLOTS as u64 + 2) * per_page as u64).collect();
        let mut w = Writer::new();
        ArrayData::Resident(values).encode_seg(&mut w, &mut MemSink(store.clone()));
        let bytes = w.into_bytes();
        let paged = ArrayData::<u64>::decode_seg(&mut Reader::new(&bytes), &store).unwrap();
        let mut cur = PageCursor::new();
        let read = |cur: &mut PageCursor, i: usize| {
            let before = store.pins();
            assert_eq!(paged.get_with(cur, i), i as u64);
            store.pins() - before
        };
        // One pin per page, none while the page does not change — also
        // when the walk bounces between pages in different slots.
        assert_eq!((read(&mut cur, 0), read(&mut cur, 1), read(&mut cur, per_page - 1)), (1, 0, 0));
        assert_eq!(
            (read(&mut cur, per_page), read(&mut cur, 7), read(&mut cur, per_page + 7)),
            (1, 0, 0)
        );
        // Pages `SLOTS` apart share a slot: each displaces the other.
        let far = PageCursor::SLOTS * per_page;
        assert_eq!((read(&mut cur, far), read(&mut cur, 0), read(&mut cur, far)), (1, 1, 1));
        // A range read over held pages pins nothing; `clear` drops all.
        let mut out = Vec::new();
        let before = store.pins();
        paged.read_range(&mut cur, per_page - 3, per_page + 3, &mut out);
        assert_eq!(out, ((per_page - 3) as u64..(per_page + 3) as u64).collect::<Vec<_>>());
        assert_eq!(store.pins(), before + 1, "page 0 was displaced above, page 1 is held");
        cur.clear();
        assert_eq!(read(&mut cur, per_page), 1);
    }

    #[test]
    fn a_cursor_over_resident_arrays_stays_a_null_pointer() {
        // Operators embed cursors, and a query over a resident graph must
        // not pay for them: no table until a paged page is touched.
        assert_eq!(std::mem::size_of::<PageCursor>(), std::mem::size_of::<usize>());
        let resident = ArrayData::Resident((0..100u64).collect());
        let mut cur = PageCursor::new();
        let mut out = Vec::new();
        resident.read_range(&mut cur, 10, 20, &mut out);
        assert_eq!((resident.get_with(&mut cur, 42), out.len()), (42, 10));
        cur.clear();
        assert!(cur.pages.is_none());
    }

    #[test]
    fn an_unreadable_page_hands_out_one_shared_placeholder() {
        use gfcl_common::govern::{fault_scope, CancelReason, CancelToken};
        let store = MemStore::new();
        let mut w = Writer::new();
        ArrayData::Resident(vec![7u64; 3 * PAGE_SIZE / 8])
            .encode_seg(&mut w, &mut MemSink(store.clone()));
        let bytes = w.into_bytes();
        let paged = ArrayData::<u64>::decode_seg(&mut Reader::new(&bytes), &store).unwrap();
        store.poison(1);
        let token = Arc::new(CancelToken::new());
        let _scope = fault_scope(&token);
        // Every failed pin is served the same zero page: a permanently
        // unreadable page costs no allocation however often it is hit.
        let first = store.pin(1);
        for _ in 0..1000 {
            assert!(Arc::ptr_eq(&store.pin(1), &first));
        }
        assert!(first.iter().all(|&b| b == 0));
        assert_eq!(token.reason(), Some(CancelReason::Io));
        // Through a cursor the page is not even retried per value: one
        // failed pin per page change, zeros until the morsel ends.
        let before = store.pins();
        let mut cur = PageCursor::new();
        let mut out = Vec::new();
        paged.read_range(&mut cur, 0, paged.len(), &mut out);
        assert_eq!(store.pins() - before, 3);
        let per_page = PAGE_SIZE / 8;
        assert!(out[..per_page].iter().all(|&v| v == 7), "healthy pages still serve");
        assert!(out[per_page..2 * per_page].iter().all(|&v| v == 0));
        assert_eq!(paged.get_with(&mut cur, per_page + 5), 0);
        assert_eq!(store.pins() - before, 3, "the cursor holds the placeholder");
    }

    #[test]
    fn resident_mutation_still_works() {
        let mut arr: ArrayData<u16> = vec![1u16, 2, 3].into();
        arr.push(4);
        arr.set(0, 9);
        assert_eq!(arr.get(0), 9);
        assert_eq!(arr.len(), 4);
        assert!(arr.page_range(0, 4).is_none());
        assert_eq!(arr.pageable_bytes(), 0);
        assert!(arr.resident_bytes() >= 8);
    }
}
