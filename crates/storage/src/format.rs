//! The single-file on-disk graph format.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! page 0        header: magic "GFCL", version, page size, data-page count,
//!               metadata and checksum-array locations, each with its own
//!               FNV-1a checksum, and finally a checksum of the header itself
//! pages 1..=N   page-aligned value segments (column data, adjacency lists,
//!               edge properties) written by [`FileSink`]; a segment's tail
//!               page is zero-padded so no element ever straddles pages
//! then          per-data-page u64 checksum array (verified at fault time):
//!               the 4-lane word checksum [`page_checksum`], which hashes a
//!               64 KiB page at memory speed where byte-at-a-time FNV-1a
//!               took tens of microseconds per save and per fault
//! then          metadata stream: catalog, config, stats, NULL maps, zone
//!               maps, dictionaries, offsets — everything decoded eagerly by
//!               [`ColumnarGraph::open`]; value pages are *not* read here
//! ```
//!
//! `open` validates the header, geometry, checksum array and metadata
//! checksums up front and returns [`Error::Storage`] on any mismatch; the
//! graph it returns faults value pages through a [`BufferPool`] on first
//! touch, so a graph far larger than the pool answers queries correctly,
//! just with more I/O.

use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use gfcl_columnar::{PageStore, SegRef, SegmentSink, SegmentSource, PAGE_SIZE};
use gfcl_common::{fnv1a_64, page_checksum, Error, Reader, Result, Writer};

use crate::buffer_pool::BufferPool;
use crate::columnar_graph::ColumnarGraph;
use crate::config::StorageConfig;

const MAGIC: [u8; 4] = *b"GFCL";
/// v2 added the graph's per-build generation nonce to the metadata stream;
/// v3 replaced FNV-1a with [`page_checksum`] for data pages.
const VERSION: u32 = 3;
/// Header bytes covered by the trailing header checksum.
const HEADER_LEN: usize = 4 + 4 + 4 + 7 * 8;

/// [`SegmentSink`] that appends page-aligned segments to the storage file,
/// starting at page 1, collecting a checksum per page as it goes. I/O
/// errors are deferred (the sink trait is infallible) and surfaced once
/// encoding finishes.
struct FileSink<'a> {
    file: &'a File,
    next_page: u64,
    checksums: Vec<u64>,
    err: Option<std::io::Error>,
}

impl SegmentSink for FileSink<'_> {
    fn write_segment(&mut self, bytes: &[u8]) -> SegRef {
        // Page count stays in usize (it indexes `bytes`); only the file
        // offsets widen to u64.
        let n_pages = bytes.len().div_ceil(PAGE_SIZE).max(1);
        let start_page = self.next_page;
        let mut page = vec![0u8; PAGE_SIZE];
        for i in 0..n_pages {
            let lo = i * PAGE_SIZE;
            let hi = bytes.len().min(lo + PAGE_SIZE);
            page.fill(0);
            if lo < bytes.len() {
                page[..hi - lo].copy_from_slice(&bytes[lo..hi]);
            }
            self.checksums.push(page_checksum(&page));
            if self.err.is_none() {
                let off = (start_page + i as u64) * PAGE_SIZE as u64;
                if let Err(e) = self.file.write_all_at(&page, off) {
                    self.err = Some(e);
                }
            }
        }
        self.next_page += n_pages as u64;
        SegRef { start_page, n_pages: n_pages as u64 }
    }
}

/// [`SegmentSource`] handing decoders a shared [`BufferPool`]
/// (newtype: the orphan rule forbids `impl ... for Arc<BufferPool>` here).
struct PoolSource(Arc<BufferPool>);

impl SegmentSource for PoolSource {
    fn store(&self) -> Arc<dyn PageStore> {
        Arc::clone(&self.0) as Arc<dyn PageStore>
    }
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("{what}: {e}"))
}

impl ColumnarGraph {
    /// Persist the graph to a single file at `path` (replacing any existing
    /// file). The written bytes are deterministic in the graph's contents
    /// (which include its per-build generation nonce: saving the same graph
    /// twice is byte-identical, two separate builds are not).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = File::create(path.as_ref()).map_err(|e| io_err("create graph file", e))?;
        let mut sink = FileSink { file: &file, next_page: 1, checksums: Vec::new(), err: None };
        let mut w = Writer::new();
        self.encode_meta(&mut w, &mut sink);
        if let Some(e) = sink.err.take() {
            return Err(io_err("write data pages", e));
        }
        let n_data_pages = sink.next_page - 1;
        let meta = w.into_bytes();

        let mut ck = Writer::new();
        for &c in &sink.checksums {
            ck.u64(c);
        }
        let cks_bytes = ck.into_bytes();
        let cks_off = sink.next_page * PAGE_SIZE as u64;
        let meta_off = cks_off + cks_bytes.len() as u64;
        file.write_all_at(&cks_bytes, cks_off).map_err(|e| io_err("write checksum array", e))?;
        file.write_all_at(&meta, meta_off).map_err(|e| io_err("write metadata", e))?;

        let mut h = Writer::new();
        h.bytes(&MAGIC);
        h.u32(VERSION);
        h.u32(u32::try_from(PAGE_SIZE).expect("PAGE_SIZE fits the header's u32 field"));
        h.u64(n_data_pages);
        h.u64(meta_off);
        h.u64(meta.len() as u64);
        h.u64(fnv1a_64(&meta));
        h.u64(cks_off);
        h.u64(cks_bytes.len() as u64);
        h.u64(fnv1a_64(&cks_bytes));
        let mut header = h.into_bytes();
        debug_assert_eq!(header.len(), HEADER_LEN);
        let checksum = fnv1a_64(&header);
        header.extend_from_slice(&checksum.to_le_bytes());
        let mut page0 = vec![0u8; PAGE_SIZE];
        page0[..header.len()].copy_from_slice(&header);
        file.write_all_at(&page0, 0).map_err(|e| io_err("write header page", e))?;
        file.sync_all().map_err(|e| io_err("sync graph file", e))
    }

    /// Open a graph saved by [`ColumnarGraph::save`]. Metadata is read and
    /// verified eagerly; value pages are faulted on demand through a
    /// [`BufferPool`] of `config.buffer_pool_pages` pages. All structural
    /// configuration comes from the file — only the pool size is taken
    /// from `config`. Any malformed, truncated or corrupted input yields
    /// [`Error::Storage`], never a panic. No fault is ever injected; see
    /// [`ColumnarGraph::open_with_faults`] for the chaos tier's door.
    pub fn open(path: impl AsRef<Path>, config: StorageConfig) -> Result<ColumnarGraph> {
        Self::open_with_faults(path, config, None)
    }

    /// [`ColumnarGraph::open`] with an explicit fault-injection
    /// configuration for the post-open read path (`None` disables
    /// injection). Header, checksum-array and metadata reads are *not*
    /// injected: the chaos tier targets the demand-paged read path, where
    /// an I/O fault must surface as a per-query error rather than a
    /// failed open.
    pub fn open_with_faults(
        path: impl AsRef<Path>,
        config: StorageConfig,
        faults: Option<crate::chaos::FaultConfig>,
    ) -> Result<ColumnarGraph> {
        let file = File::open(path.as_ref()).map_err(|e| io_err("open graph file", e))?;
        let file_len = file.metadata().map_err(|e| io_err("stat graph file", e))?.len();
        if file_len < PAGE_SIZE as u64 {
            return Err(Error::Storage(format!(
                "file too small for a header page ({file_len} bytes)"
            )));
        }
        let mut head = vec![0u8; HEADER_LEN + 8];
        file.read_exact_at(&mut head, 0).map_err(|e| io_err("read header", e))?;
        let mut r = Reader::new(&head);
        if r.bytes(4)? != MAGIC {
            return Err(Error::Storage("bad magic: not a gfcl graph file".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(Error::Storage(format!("unsupported format version {version}")));
        }
        let page_size = r.u32()?;
        if u64::from(page_size) != PAGE_SIZE as u64 {
            return Err(Error::Storage(format!("unsupported page size {page_size}")));
        }
        let n_data_pages = r.u64()?;
        let meta_off = r.u64()?;
        let meta_len = r.u64()?;
        let meta_cks = r.u64()?;
        let cks_off = r.u64()?;
        let cks_len = r.u64()?;
        let cks_cks = r.u64()?;
        if fnv1a_64(&head[..HEADER_LEN]) != r.u64()? {
            return Err(Error::Storage("header checksum mismatch".into()));
        }
        // Geometry: checksum array sits right after the data pages, the
        // metadata right after it, ending exactly at end-of-file.
        let data_end = n_data_pages.checked_add(1).and_then(|p| p.checked_mul(PAGE_SIZE as u64));
        let cks_end = cks_off.checked_add(cks_len);
        let meta_end = meta_off.checked_add(meta_len);
        if data_end != Some(cks_off)
            || cks_len != n_data_pages * 8
            || cks_end != Some(meta_off)
            || meta_end != Some(file_len)
        {
            return Err(Error::Storage("file geometry invalid (truncated or tampered)".into()));
        }

        // Untrusted header fields cross into usize via try_from: on a
        // 32-bit host an oversized length must fail as Error::Storage,
        // not wrap into a short (checksum-failing, but misleading) read.
        let too_big =
            |what: &str, v: u64| Error::Storage(format!("{what} length {v} exceeds address space"));
        let cks_len_b = usize::try_from(cks_len).map_err(|_| too_big("checksum array", cks_len))?;
        let mut cks_bytes = vec![0u8; cks_len_b];
        file.read_exact_at(&mut cks_bytes, cks_off).map_err(|e| io_err("read checksums", e))?;
        if fnv1a_64(&cks_bytes) != cks_cks {
            return Err(Error::Storage("page-checksum array corrupt".into()));
        }
        let mut cr = Reader::new(&cks_bytes);
        let mut checksums = Vec::with_capacity(cks_len_b / 8);
        for _ in 0..n_data_pages {
            checksums.push(cr.u64()?);
        }

        let meta_len_b = usize::try_from(meta_len).map_err(|_| too_big("metadata", meta_len))?;
        let mut meta = vec![0u8; meta_len_b];
        file.read_exact_at(&mut meta, meta_off).map_err(|e| io_err("read metadata", e))?;
        if fnv1a_64(&meta) != meta_cks {
            return Err(Error::Storage("metadata checksum mismatch".into()));
        }

        let capacity = config.buffer_pool_pages;
        let pool = match faults {
            Some(cfg) if !cfg.is_disabled() => {
                let store = crate::chaos::FailingStore::new(file, cfg);
                Arc::new(BufferPool::with_page_file(Box::new(store), capacity, 1, checksums))
            }
            _ => Arc::new(BufferPool::new(file, capacity, 1, checksums)),
        };
        let mut graph =
            ColumnarGraph::decode_meta(&mut Reader::new(&meta), &PoolSource(Arc::clone(&pool)))?;
        graph.set_pool(pool);
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::RawGraph;
    use crate::{BaselineRead, ReadCursors};
    use gfcl_columnar::PageCursor;
    use gfcl_common::Direction;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("gfcl_format_{}_{name}.gfcl", std::process::id()))
    }

    fn build_example() -> ColumnarGraph {
        ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap()
    }

    #[test]
    fn save_open_roundtrips_with_tiny_pool() {
        let g = build_example();
        let path = tmp("roundtrip");
        g.save(&path).unwrap();
        let config = StorageConfig { buffer_pool_pages: 2, ..StorageConfig::default() };
        let back = ColumnarGraph::open(&path, config).unwrap();
        std::fs::remove_file(&path).unwrap();

        // Same logical bytes (modulo Vec capacity slack on the built side),
        // but a chunk of them now lives on disk.
        let (m0, m1) = (g.memory_breakdown(), back.memory_breakdown());
        let diff = m0.total().abs_diff(m1.total());
        assert!(diff * 20 <= m0.total(), "totals differ: {} vs {}", m0.total(), m1.total());
        assert_eq!(m0.pageable, 0);
        assert!(m1.pageable > 0, "reopened graph should page its value arrays");
        assert!(m1.resident < m0.resident);
        assert_eq!(back.buffer_pool().unwrap().capacity(), 2);

        // Catalog, counts, properties, adjacency, pk lookups all agree.
        assert_eq!(back.catalog().vertex_label_count(), g.catalog().vertex_label_count());
        for l in 0..g.catalog().vertex_label_count() as u16 {
            assert_eq!(back.vertex_count(l), g.vertex_count(l));
            let def = g.catalog().vertex_label(l);
            for (j, _) in def.properties.iter().enumerate() {
                let (a, b) = (g.vertex_prop(l, j), back.vertex_prop(l, j));
                let (ca, cb) = (&mut PageCursor::new(), &mut PageCursor::new());
                for v in 0..g.vertex_count(l) {
                    assert_eq!(a.value(ca, v), b.value(cb, v), "label {l} prop {j} vertex {v}");
                }
            }
        }
        for e in 0..g.catalog().edge_label_count() as u16 {
            assert_eq!(back.edge_count(e), g.edge_count(e));
            for dir in [Direction::Fwd, Direction::Bwd] {
                let n = g.vertex_count(g.catalog().edge_label(e).from_label(dir));
                let list = |g: &ColumnarGraph, v| {
                    let (start, len) = g.adj_range(e, dir, v);
                    let mut entries = Vec::new();
                    let cur = &mut ReadCursors::default();
                    g.for_each_adj_entry(cur, e, dir, start, len, |nbr, t| entries.push((nbr, t)));
                    entries
                };
                for v in 0..n as u64 {
                    assert_eq!(list(&back, v), list(&g, v));
                }
            }
        }
        // Faulting happened through the pool, bounded by its capacity.
        let pool = back.buffer_pool().unwrap();
        assert!(pool.stats().faults > 0);
        assert!(pool.occupancy() <= pool.capacity());
    }

    #[test]
    fn save_is_deterministic() {
        let g = build_example();
        let (p1, p2) = (tmp("det1"), tmp("det2"));
        g.save(&p1).unwrap();
        g.save(&p2).unwrap();
        let (b1, b2) = (std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).unwrap();
        std::fs::remove_file(&p2).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn open_rejects_bad_magic() {
        let path = tmp("magic");
        let g = build_example();
        g.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        let err = ColumnarGraph::open(&path, StorageConfig::default()).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
    }

    #[test]
    fn open_refuses_an_older_format_version() {
        // A v2 file checksums its data pages with FNV-1a: reading it as v3
        // would report every page as corrupt, so it is refused up front.
        let path = tmp("version");
        build_example().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = ColumnarGraph::open(&path, StorageConfig::default()).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.to_string().contains("unsupported format version 2"), "{err}");
    }

    #[test]
    fn open_rejects_corrupted_header() {
        let path = tmp("header");
        let g = build_example();
        g.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[20] ^= 0xff; // metadata offset field
        std::fs::write(&path, &bytes).unwrap();
        let err = ColumnarGraph::open(&path, StorageConfig::default()).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
    }

    #[test]
    fn open_rejects_truncated_file() {
        let path = tmp("trunc");
        let g = build_example();
        g.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [0, 10, PAGE_SIZE, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            let err = ColumnarGraph::open(&path, StorageConfig::default()).unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "keep={keep}: {err:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_corrupted_metadata() {
        let path = tmp("meta");
        let g = build_example();
        g.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff; // metadata stream tail
        std::fs::write(&path, &bytes).unwrap();
        let err = ColumnarGraph::open(&path, StorageConfig::default()).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(err, Error::Storage(_)), "{err:?}");
    }
}
