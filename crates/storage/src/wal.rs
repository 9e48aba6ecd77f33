//! Write-ahead log for the delta store: the durability half of ROADMAP #2.
//!
//! The log is a flat file of checksummed commit records appended by
//! [`WalWriter::append_commit`] and replayed by [`replay`] when a store
//! reopens. The format follows the same conventions as the paged graph
//! file (`format.rs`): little-endian [`gfcl_common::codec`] primitives,
//! FNV-1a checksums, magic + version headers, and `Error::Storage` — never
//! a panic — on anything malformed.
//!
//! ## Layout
//!
//! ```text
//! header:  "GWAL" | version u32 | baseline_id u64
//! record:  len u32 | fnv1a(payload) u64 | payload (len bytes)
//! payload: op-count u64 | ResolvedOp ...     (one record per commit)
//! ```
//!
//! `baseline_id` fingerprints the graph file the log's offsets refer to:
//! catalog bytes + per-label counts + the graph's per-build random nonce
//! ([`ColumnarGraph::build_nonce`]). The nonce is what makes the
//! fingerprint collision-free — a count-preserving delta (updates only,
//! or balanced insert+delete) merges into a baseline with identical
//! catalog and counts, and only the nonce tells the two apart. A log
//! replayed against the wrong baseline — e.g. after a merge rewrote the
//! graph but a stale WAL survived — is rejected instead of silently
//! mis-applying offsets.
//!
//! ## Crash semantics
//!
//! A commit is one `write_all` of a fully framed record followed by
//! `fdatasync`; the commit point is the moment the record's last byte is
//! durable. A *failed* append (short write, fsync error) is rolled back:
//! the file is truncated to the end of the last good record, so a torn
//! record can never sit in front of later commits and a transaction
//! reported failed can never resurrect on recovery; if even the rollback
//! fails the writer poisons itself and refuses further appends. On
//! reopen:
//!
//! * a record whose frame runs past EOF, or whose checksum fails **at the
//!   tail**, is a torn write from a crash mid-commit: it is truncated away
//!   and replay reports the log clean (the transaction never committed);
//! * a checksum failure **before** other valid data, or a checksummed
//!   record whose payload does not decode, is real corruption and fails
//!   the open with [`Error::Storage`].

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use gfcl_common::{fnv1a_64, Error, Reader, Result, Writer};

use crate::columnar_graph::ColumnarGraph;
use crate::delta::ResolvedOp;

const MAGIC: &[u8; 4] = b"GWAL";
const VERSION: u32 = 1;
/// `magic | version u32 | baseline u64`: the size of an empty log.
pub(crate) const HEADER_LEN: usize = 4 + 4 + 8;
/// Frame prefix: `len u32 | checksum u64`.
const FRAME_LEN: usize = 4 + 8;

/// Fingerprint of the baseline a WAL's positional offsets refer to: the
/// graph's per-build random nonce, the catalog schema, and every label's
/// row/edge count. The nonce guarantees two distinct baselines never
/// share a fingerprint even when schema and counts agree.
pub fn baseline_id(graph: &ColumnarGraph) -> u64 {
    let mut w = Writer::new();
    w.u64(graph.build_nonce());
    graph.catalog().encode(&mut w);
    for l in 0..graph.catalog().vertex_label_count() {
        w.usize(graph.vertex_count(l as gfcl_common::LabelId));
    }
    for l in 0..graph.catalog().edge_label_count() {
        w.usize(graph.edge_count(l as gfcl_common::LabelId));
    }
    fnv1a_64(&w.into_bytes())
}

/// The result of replaying a log file.
#[derive(Debug)]
pub struct Replay {
    /// Committed op batches, oldest first — one per durable commit record.
    pub commits: Vec<Vec<ResolvedOp>>,
    /// Bytes truncated off the tail (a crash mid-commit left a torn
    /// record). Zero for a cleanly closed log.
    pub torn_bytes: u64,
}

/// Appends commit records to a WAL file. One live writer per store; the
/// store serializes writers above this layer.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// End of the durable, well-formed log — the rollback point for a
    /// failed append.
    end: u64,
    /// A failed append could not be rolled back: the file may end in torn
    /// bytes, so further appends are refused (a valid record after garbage
    /// would turn the tear into unrecoverable mid-file corruption).
    poisoned: bool,
    /// Chaos hook: write only this many bytes of the next record, then
    /// report an injected I/O error (set via
    /// [`WalWriter::inject_append_failure`]).
    fail_append_after: Option<usize>,
}

impl WalWriter {
    /// Create (or truncate) the log at `path` for a baseline, writing and
    /// syncing the header. (The *directory entry* is the caller's to
    /// sync — the store fsyncs its directory after file-set changes.)
    pub fn create(path: &Path, baseline: u64) -> Result<WalWriter> {
        let mut file = File::create(path).map_err(wal_io)?;
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(VERSION);
        w.u64(baseline);
        file.write_all(&w.into_bytes()).map_err(wal_io)?;
        file.sync_data().map_err(wal_io)?;
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            end: HEADER_LEN as u64,
            poisoned: false,
            fail_append_after: None,
        })
    }

    /// Open an existing log for appending, after [`replay`] has validated
    /// it and truncated any torn tail.
    pub fn open_for_append(path: &Path) -> Result<WalWriter> {
        let file = OpenOptions::new().append(true).open(path).map_err(wal_io)?;
        let end = file.metadata().map_err(wal_io)?.len();
        Ok(WalWriter {
            file,
            path: path.to_path_buf(),
            end,
            poisoned: false,
            fail_append_after: None,
        })
    }

    /// Durably append one commit record. When this returns `Ok`, the
    /// transaction is recoverable; on `Err` the record is rolled back off
    /// the file (truncated to the previous end), so it neither corrupts
    /// later commits nor resurrects on recovery — a crash or error at any
    /// point replays as if the commit never happened.
    pub fn append_commit(&mut self, ops: &[ResolvedOp]) -> Result<()> {
        if self.poisoned {
            return Err(Error::Storage(
                "WAL writer is poisoned by an earlier failed append; \
                 no further commits are accepted until the store reopens"
                    .into(),
            ));
        }
        let mut p = Writer::new();
        p.usize(ops.len());
        for op in ops {
            op.encode(&mut p);
        }
        let payload = p.into_bytes();
        let len = u32::try_from(payload.len())
            .map_err(|_| Error::Storage("commit record exceeds u32 length".into()))?;
        let mut w = Writer::new();
        w.u32(len);
        w.u64(fnv1a_64(&payload));
        w.bytes(&payload);
        let record = w.into_bytes();
        match self.write_and_sync(&record) {
            Ok(()) => {
                self.end += record.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.rollback();
                Err(wal_io(e))
            }
        }
    }

    /// Fault-injection hook for the crash/chaos tiers: the next append
    /// writes only `cut` bytes of its record, then fails as if the disk
    /// errored mid-write (an fsync-failure stand-in). One-shot. Not part
    /// of the public API surface.
    #[doc(hidden)]
    pub fn inject_append_failure(&mut self, cut: usize) {
        self.fail_append_after = Some(cut);
    }

    fn write_and_sync(&mut self, record: &[u8]) -> std::io::Result<()> {
        if let Some(cut) = self.fail_append_after.take() {
            let cut = cut.min(record.len());
            self.file.write_all(&record[..cut])?;
            return Err(std::io::Error::other("injected append failure"));
        }
        self.file.write_all(record)?;
        self.file.sync_data()
    }

    /// After a failed append the file may hold a torn record — or, after
    /// an fsync error, a *complete* record of unknown durability for a
    /// transaction the caller was told failed. Truncate back to the last
    /// good end (and re-seek, for non-append handles) so neither can ever
    /// be observed; if the rollback itself fails, poison the writer.
    fn rollback(&mut self) {
        let rolled = self
            .file
            .set_len(self.end)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.end)).map(|_| ()))
            .and_then(|()| self.file.sync_data());
        if rolled.is_err() {
            self.poisoned = true;
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read just the baseline fingerprint from a log's header (used by the
/// open path to decide whether a `.tmp` log belongs to the current graph
/// file when recovering from a crash mid-merge).
pub fn read_baseline(path: &Path) -> Result<u64> {
    let mut bytes = [0u8; HEADER_LEN];
    let mut f = File::open(path).map_err(wal_io)?;
    f.read_exact(&mut bytes).map_err(wal_io)?;
    let mut r = Reader::new(&bytes);
    if r.bytes(4)? != MAGIC {
        return Err(Error::Storage("not a WAL file (bad magic)".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(Error::Storage(format!("unsupported WAL version {version}")));
    }
    r.u64()
}

/// Replay the log at `path`: validate the header against `baseline`,
/// decode every durable commit record, and truncate a torn tail in place
/// (so the next append starts from a clean end-of-log).
pub fn replay(path: &Path, baseline: u64) -> Result<Replay> {
    let mut bytes = Vec::new();
    File::open(path).map_err(wal_io)?.read_to_end(&mut bytes).map_err(wal_io)?;
    if bytes.len() < HEADER_LEN {
        return Err(Error::Storage(format!(
            "WAL header truncated: {} bytes, need {HEADER_LEN}",
            bytes.len()
        )));
    }
    let mut r = Reader::new(&bytes);
    if r.bytes(4)? != MAGIC {
        return Err(Error::Storage("not a WAL file (bad magic)".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(Error::Storage(format!("unsupported WAL version {version}")));
    }
    let found = r.u64()?;
    if found != baseline {
        return Err(Error::Storage(format!(
            "WAL baseline mismatch: log {found:#018x}, graph {baseline:#018x} \
             (stale log from before a merge?)"
        )));
    }

    let mut commits = Vec::new();
    let mut good_end = HEADER_LEN; // byte offset after the last valid record
    loop {
        let pos = bytes.len() - r.remaining();
        if r.remaining() == 0 {
            break;
        }
        if r.remaining() < FRAME_LEN {
            // A frame prefix cut short can only be a torn final write.
            break;
        }
        let len = r.u32()? as usize;
        let sum = r.u64()?;
        if r.remaining() < len {
            // Payload cut short: torn final write.
            break;
        }
        let payload = r.bytes(len)?;
        if fnv1a_64(payload) != sum {
            if r.remaining() == 0 {
                // Checksum failure at the exact tail: torn final write.
                break;
            }
            // Valid-looking data follows a bad record: that is not a torn
            // tail, it is corruption (e.g. a bit flip) — refuse to guess.
            return Err(Error::Storage(format!(
                "WAL record at byte {pos} fails its checksum with {} bytes of log after it",
                r.remaining()
            )));
        }
        // The record is durable and intact; a payload that does not decode
        // is corruption, not a torn write.
        let mut pr = Reader::new(payload);
        let n = pr.count().map_err(decorate(pos))?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(ResolvedOp::decode(&mut pr).map_err(decorate(pos))?);
        }
        if pr.remaining() != 0 {
            return Err(Error::Storage(format!(
                "WAL record at byte {pos} has {} trailing bytes",
                pr.remaining()
            )));
        }
        commits.push(ops);
        good_end = bytes.len() - r.remaining();
    }

    let torn_bytes = (bytes.len() - good_end) as u64;
    if torn_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path).map_err(wal_io)?;
        file.set_len(good_end as u64).map_err(wal_io)?;
        file.sync_data().map_err(wal_io)?;
    }
    Ok(Replay { commits, torn_bytes })
}

fn wal_io(e: std::io::Error) -> Error {
    Error::Storage(format!("WAL I/O: {e}"))
}

fn decorate(pos: usize) -> impl Fn(Error) -> Error {
    move |e| Error::Storage(format!("WAL record at byte {pos} is corrupt: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StorageConfig;
    use crate::delta::EdgeTarget;
    use crate::raw::RawGraph;
    use gfcl_common::Value;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gfcl_wal_{}_{name}.wal", std::process::id()))
    }

    fn graph() -> ColumnarGraph {
        ColumnarGraph::build(&RawGraph::example(), StorageConfig::default()).unwrap()
    }

    fn sample_ops() -> Vec<Vec<ResolvedOp>> {
        vec![
            vec![ResolvedOp::InsertVertex {
                label: 0,
                row: vec![Value::String("zoe".into()), Value::Int64(31), Value::String("F".into())],
            }],
            vec![
                ResolvedOp::InsertEdge {
                    label: 0,
                    src: 0,
                    dst: 4,
                    props: vec![Value::Int64(2021)],
                },
                ResolvedOp::DeleteEdge {
                    label: 0,
                    target: EdgeTarget::Base { src: 0, dst: 1, occ: 0 },
                },
            ],
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip");
        let base = baseline_id(&graph());
        let mut w = WalWriter::create(&path, base).unwrap();
        for commit in &sample_ops() {
            w.append_commit(commit).unwrap();
        }
        drop(w);
        let rep = replay(&path, base).unwrap();
        assert_eq!(rep.commits, sample_ops());
        assert_eq!(rep.torn_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_cleanly() {
        let path = tmp("torn");
        let base = baseline_id(&graph());
        let mut w = WalWriter::create(&path, base).unwrap();
        for commit in &sample_ops() {
            w.append_commit(commit).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Chop the final record at every possible byte boundary: replay
        // must recover exactly the first commit and truncate the rest.
        let first_end = {
            let rep_all = replay(&path, base).unwrap();
            assert_eq!(rep_all.commits.len(), 2);
            // Recompute where commit #1 ends by re-framing it.
            let mut p = Writer::new();
            p.usize(rep_all.commits[0].len());
            for op in &rep_all.commits[0] {
                op.encode(&mut p);
            }
            HEADER_LEN + FRAME_LEN + p.into_bytes().len()
        };
        for cut in first_end..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let rep = replay(&path, base).unwrap();
            assert_eq!(rep.commits.len(), 1, "cut at byte {cut}");
            assert_eq!(rep.commits[0], sample_ops()[0]);
            if cut > first_end {
                assert_eq!(rep.torn_bytes, (cut - first_end) as u64);
            }
            // The torn bytes are gone from disk: a second replay is clean
            // and an append after it produces a valid log.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), first_end as u64);
            let mut w = WalWriter::open_for_append(&path).unwrap();
            w.append_commit(&sample_ops()[1]).unwrap();
            drop(w);
            assert_eq!(replay(&path, base).unwrap().commits.len(), 2);
            std::fs::write(&path, &full).unwrap();
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_bit_flips_are_corruption_not_torn_tail() {
        let path = tmp("bitflip");
        let base = baseline_id(&graph());
        let mut w = WalWriter::create(&path, base).unwrap();
        for commit in &sample_ops() {
            w.append_commit(commit).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Flip one bit in every byte of the FIRST record (frame + payload):
        // valid data follows, so replay must fail loudly, never panic and
        // never silently truncate.
        let mut p = Writer::new();
        p.usize(sample_ops()[0].len());
        for op in &sample_ops()[0] {
            op.encode(&mut p);
        }
        let first_end = HEADER_LEN + FRAME_LEN + p.into_bytes().len();
        for byte in HEADER_LEN..first_end {
            let mut bad = full.clone();
            bad[byte] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            match replay(&path, base) {
                Err(Error::Storage(_)) => {}
                Err(e) => panic!("bit flip at {byte}: wrong error kind {e}"),
                // A flip inside the length field can make the first frame
                // swallow the rest of the file — indistinguishable from a
                // torn tail, so a clean truncated replay is also correct.
                Ok(rep) => assert!(rep.commits.is_empty(), "bit flip at {byte} yielded commits"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_tail_record_replays_or_fails_cleanly() {
        let path = tmp("dup");
        let base = baseline_id(&graph());
        let mut w = WalWriter::create(&path, base).unwrap();
        w.append_commit(&sample_ops()[0]).unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Duplicate the (checksummed, valid) tail record wholesale. The
        // log itself replays both copies; catching the double-apply is the
        // store's job (its `apply` rejects the duplicate insert).
        let mut dup = full.clone();
        dup.extend_from_slice(&full[HEADER_LEN..]);
        std::fs::write(&path, &dup).unwrap();
        let rep = replay(&path, base).unwrap();
        assert_eq!(rep.commits.len(), 2);
        assert_eq!(rep.commits[0], rep.commits[1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn distinct_builds_never_share_a_baseline_fingerprint() {
        // Two builds of the *identical* raw graph must still fingerprint
        // differently: the per-build nonce is what lets recovery tell a
        // count-preserving merged baseline apart from its predecessor.
        let a = graph();
        let b = graph();
        assert_ne!(baseline_id(&a), baseline_id(&b));
        assert_eq!(baseline_id(&a), baseline_id(&a));
    }

    #[test]
    fn failed_append_rolls_back_to_a_clean_log() {
        let path = tmp("failapp");
        let base = baseline_id(&graph());
        let mut w = WalWriter::create(&path, base).unwrap();
        w.append_commit(&sample_ops()[0]).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        // Fail the next append after 0, 1, ... bytes of the record have
        // hit the file (usize::MAX = full write, failed fsync). Every
        // variant must truncate back so the log stays pristine.
        for cut in [0usize, 1, 7, 12, 50, usize::MAX] {
            w.fail_append_after = Some(cut);
            let err = w.append_commit(&sample_ops()[1]).unwrap_err();
            assert!(err.to_string().contains("injected"), "cut {cut}: {err}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len, "cut {cut}");
            let rep = replay(&path, base).unwrap();
            assert_eq!(rep.commits.len(), 1, "cut {cut}");
            assert_eq!(rep.torn_bytes, 0, "cut {cut}");
        }
        // The same writer recovers: a real append lands after the rollbacks.
        w.append_commit(&sample_ops()[1]).unwrap();
        drop(w);
        let rep = replay(&path, base).unwrap();
        assert_eq!(rep.commits, sample_ops());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_baseline_and_garbage_headers_are_rejected() {
        let path = tmp("hdr");
        let base = baseline_id(&graph());
        WalWriter::create(&path, base).unwrap();
        let err = replay(&path, base ^ 1).unwrap_err();
        assert!(err.to_string().contains("baseline mismatch"), "{err}");

        std::fs::write(&path, b"GW").unwrap();
        assert!(replay(&path, base).is_err());
        std::fs::write(&path, b"NOPE\0\0\0\0\0\0\0\0\0\0\0\0").unwrap();
        let err = replay(&path, base).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
