//! The mutable graph store: ROADMAP #2 assembled from its parts.
//!
//! [`GraphStore`] owns an immutable read-optimized baseline
//! ([`ColumnarGraph`]), a write-optimized [`DeltaStore`], and (when backed
//! by a directory) the [`crate::wal`] log that makes commits durable. It
//! exposes:
//!
//! * **Epoch-based MVCC snapshots.** Every commit publishes a new
//!   [`GraphSnapshot`] — an `Arc` pairing the baseline with the
//!   transaction's [`DeltaSnapshot`] under a monotonically increasing
//!   epoch. Queries pin one snapshot for their whole run, so in-flight
//!   morsel-parallel scans read a consistent graph while writers proceed;
//!   nothing a writer does can ever reach an already-pinned snapshot.
//! * **Single-writer transactions.** [`GraphStore::begin_write`] hands out
//!   a [`WriteTxn`] holding the writer lock and the published delta. The
//!   first op clones it — one `Arc` bump per label, since the delta is
//!   structurally shared — and every op copies only the trie paths it
//!   writes. Ops validate and apply eagerly (so errors surface at the call,
//!   not at commit), and `commit` makes them durable — WAL append +
//!   `fdatasync` — before publishing the transaction's delta as the new
//!   snapshot's: nothing is copied or rebuilt at commit. `abort` (or drop)
//!   discards the transaction's delta; nothing leaks.
//! * **Merge.** [`GraphStore::merge`] folds the delta into a fresh
//!   columnar baseline at the cost of what changed: only the labels the
//!   delta touched are exported to a [`RawGraph`] and rebuilt through the
//!   normal build pipeline (re-blocking their zone maps, recollecting their
//!   statistics); every other label's built parts are shared with the old
//!   baseline by pointer. A directory-backed store then rewrites the paged
//!   graph file atomically before truncating the WAL, and a failure past
//!   that rewrite's commit point stops the store taking writes until it is
//!   reopened.
//!
//! [`GraphView`] is the read-side contract and the only implementation of
//! `(baseline ⊎ delta) ∖ tombstones`: a `Copy` pair of baseline + optional
//! delta resolving scans, adjacency and property reads, generic over the
//! positional [`BaselineRead`] trait so the list-based, Volcano and
//! hash-join processors — over columnar or row storage — and `merge()` all
//! consume the same overlay. When the delta is empty they see `None` and
//! keep their unmodified zero-copy fast paths.
//!
//! ## Crash recovery
//!
//! Reopening a directory replays the WAL through the same
//! [`DeltaStore::apply`] gate writers use: a torn tail (crash mid-commit)
//! is truncated and the transaction is gone — atomicity — while any
//! checksummed-but-undecodable or double-applied record fails the open
//! with [`Error::Storage`]. A crash during merge is repaired on open by
//! the `.tmp`-file protocol described at [`GraphStore::merge`]. A graph
//! file with no `graph.wal` beside it refuses to open: the log's
//! directory entry going missing means acknowledged commits would be
//! silently dropped, which must never look like a clean store. Directory
//! entries (created files, renames) are made durable with an explicit
//! fsync of the store directory at every point the file set changes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use gfcl_common::{Direction, Error, LabelId, Result, Value};

use crate::catalog::Catalog;
use crate::columnar_graph::{ColumnarGraph, LabelSet};
use crate::config::StorageConfig;
use crate::delta::{DeltaSnapshot, DeltaStore, ResolvedOp, StrExt};
use crate::raw::RawGraph;
use crate::wal::{self, WalWriter};

const GRAPH_FILE: &str = "graph.gfcl";
const WAL_FILE: &str = "graph.wal";
const GRAPH_TMP: &str = "graph.gfcl.tmp";
const WAL_TMP: &str = "graph.wal.tmp";

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("{what}: {e}"))
}

/// Why the store stopped taking writes, if it did: a merge that failed
/// past its commit point. Lives under the writer lock.
type Refusal = Option<String>;

/// `Ok` unless the store stopped taking writes.
fn writable(refusal: &Refusal) -> Result<()> {
    match refusal {
        None => Ok(()),
        Some(why) => Err(Error::Storage(format!(
            "the store takes no more writes: a merge failed past its commit point ({why}); \
             reopen the store to recover"
        ))),
    }
}

/// Make the directory's entries (file creations, renames) durable. File
/// data fsyncs alone do not cover the *names*; without this a power loss
/// can resurrect a pre-rename file set.
fn fsync_dir(dir: &Path) -> Result<()> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync store directory", e))
}

/// Positional reads over an immutable baseline graph — the narrow
/// contract [`GraphView`] overlays a delta on. [`ColumnarGraph`] and
/// [`RowGraph`](crate::RowGraph) implement it; every vertex offset is
/// label-level and both layouts build their lists by the same stable
/// grouping of the input edge table, so a delta recorded against the
/// columnar baseline applies unchanged to a row graph built from the same
/// [`RawGraph`].
pub trait BaselineRead {
    fn catalog(&self) -> &Catalog;
    fn vertex_count(&self, label: LabelId) -> usize;
    fn lookup_pk(&self, label: LabelId, key: i64) -> Option<u64>;
    /// List positions `start..start + len` of `from`'s `(elabel, dir)`
    /// adjacency. A vertex-column (single-cardinality) adjacency is
    /// positional by vertex: position `from`, length 1.
    fn adj_range(&self, elabel: LabelId, dir: Direction, from: u64) -> (u64, u64);
    /// Neighbour offset and storage-specific edge token (CSR position, row
    /// edge ID; 0 for vertex-column edges) at list position `pos`. `None`
    /// is a position holding no edge — a NULL in a vertex column.
    fn adj_entry(&self, elabel: LabelId, dir: Direction, pos: u64) -> Option<(u64, u64)>;
    /// Visit the edges at list positions `start..start + len`, in order, as
    /// `f(neighbour, token)`; positions holding no edge are skipped. The
    /// list walk under [`GraphView::for_each_live_edge`]: a paged baseline
    /// overrides it to step the list through one page cursor.
    fn for_each_adj_entry(
        &self,
        elabel: LabelId,
        dir: Direction,
        start: u64,
        len: u64,
        mut f: impl FnMut(u64, u64),
    ) {
        for (nbr, token) in (start..start + len).filter_map(|p| self.adj_entry(elabel, dir, p)) {
            f(nbr, token);
        }
    }
    fn vertex_value(&self, label: LabelId, off: u64, prop: usize) -> Value;
    /// Edge property via the traversal source and an [`adj_entry`] token.
    ///
    /// [`adj_entry`]: BaselineRead::adj_entry
    fn edge_value(
        &self,
        elabel: LabelId,
        dir: Direction,
        from: u64,
        token: u64,
        prop: usize,
    ) -> Result<Value>;
}

// ---- edge reference tags ---------------------------------------------------
//
// Every edge a `GraphView` hands out — clean view or not, CSR or
// vertex-column adjacency, any baseline layout — carries a tag naming the
// physical edge so `GraphView::edge_value` can find its properties later:
// a baseline edge with `BaselineRead::adj_entry` token `t` is `t << 1`,
// delta edge index `d` is `d << 1 | 1`. This is the only token scheme the
// engines see; nothing passes a baseline token through untagged.

const fn base_edge_ref(token: u64) -> u64 {
    token << 1
}

const fn delta_edge_ref(idx: u64) -> u64 {
    (idx << 1) | 1
}

/// Does the tag name a delta edge?
const fn is_delta_edge_ref(tag: u64) -> bool {
    tag & 1 == 1
}

/// Strip the tag back to a baseline token / delta index.
const fn edge_ref_index(tag: u64) -> u64 {
    tag >> 1
}

/// One consistent read view: a baseline plus (optionally) a published delta,
/// and the single implementation of `(baseline ⊎ delta) ∖ tombstones`.
/// `delta == None` means "clean" — every helper degenerates to the plain
/// baseline read and the engines keep their fast paths.
#[derive(Debug)]
pub struct GraphView<'g, B = ColumnarGraph> {
    base: &'g B,
    delta: Option<&'g DeltaSnapshot>,
}

impl<B> Clone for GraphView<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B> Copy for GraphView<'_, B> {}

impl<'g, B: BaselineRead> GraphView<'g, B> {
    /// A view of the bare baseline (the immutable-graph fast path).
    pub fn clean(base: &'g B) -> Self {
        GraphView { base, delta: None }
    }

    pub fn new(base: &'g B, delta: Option<&'g DeltaSnapshot>) -> Self {
        GraphView { base, delta: delta.filter(|d| !d.is_empty()) }
    }

    pub fn base(&self) -> &'g B {
        self.base
    }

    pub fn is_clean(&self) -> bool {
        self.delta.is_none()
    }

    // ---- vertices ----------------------------------------------------------

    /// Scan range for `label`: baseline rows plus every delta slot (live
    /// or vacated — scans must still check [`GraphView::vertex_live`] for
    /// rows a tombstone or vacated slot hides).
    pub fn scan_total(&self, label: LabelId) -> u64 {
        let n = self.base.vertex_count(label) as u64;
        match self.delta {
            Some(d) => n + d.delta_slots(label),
            None => n,
        }
    }

    pub fn vertex_live(&self, label: LabelId, off: u64) -> bool {
        let n_base = self.base.vertex_count(label) as u64;
        match self.delta {
            None => off < n_base,
            Some(d) => {
                if off < n_base {
                    !d.vertex_tombed(label, off)
                } else {
                    d.delta_row(label, off - n_base).is_some()
                }
            }
        }
    }

    /// Effective property value of a (live) vertex.
    pub fn vertex_value(&self, label: LabelId, off: u64, prop: usize) -> Value {
        let n_base = self.base.vertex_count(label) as u64;
        if off < n_base {
            if let Some(row) = self.delta.and_then(|d| d.updated_row(label, off)) {
                return row[prop].clone();
            }
            self.base.vertex_value(label, off, prop)
        } else {
            match self.delta.and_then(|d| d.delta_row(label, off - n_base)) {
                Some(row) => row[prop].clone(),
                None => Value::Null,
            }
        }
    }

    pub fn lookup_pk(&self, label: LabelId, key: i64) -> Option<u64> {
        if let Some(d) = self.delta {
            if let Some(off) = d.pk_delta(label, key) {
                return Some(off);
            }
            let off = self.base.lookup_pk(label, key)?;
            (!d.vertex_tombed(label, off)).then_some(off)
        } else {
            self.base.lookup_pk(label, key)
        }
    }

    /// Does `label` carry any vertex-side mutation? (`false` ⇒ positional
    /// scans over the baseline are exact.)
    pub fn vertex_label_touched(&self, label: LabelId) -> bool {
        self.delta.is_some_and(|d| d.vertex_label_touched(label))
    }

    /// Do tombstones or row overrides intersect the baseline offset range
    /// `[start, end)`? Clean ranges keep full zone-map pruning.
    pub fn base_range_touched(&self, label: LabelId, start: u64, end: u64) -> bool {
        self.delta.is_some_and(|d| d.base_range_touched(label, start, end))
    }

    pub fn vertex_str_ext(&self, label: LabelId, prop: usize) -> Option<&'g StrExt> {
        self.delta.and_then(|d| d.vertex_str_ext(label, prop))
    }

    // ---- edges -------------------------------------------------------------

    /// Does `(label, dir)` carry any edge mutation at all?
    pub fn edge_label_touched(&self, label: LabelId, dir: Direction) -> bool {
        self.delta.is_some_and(|d| d.edge_label_touched(label, dir))
    }

    /// Is the adjacency list of `from` different from the baseline's?
    pub fn edge_list_dirty(&self, label: LabelId, dir: Direction, from: u64) -> bool {
        self.delta.is_some_and(|d| d.edge_list_dirty(label, dir, from))
    }

    /// The baseline's own list range of `from` when the delta leaves that
    /// list untouched (always, on a clean view): positional engines step it
    /// with [`GraphView::base_entry`] and nothing is materialized. `None`
    /// means the list must be walked through the overlay.
    pub fn untouched_range(&self, label: LabelId, dir: Direction, from: u64) -> Option<(u64, u64)> {
        if let Some(d) = self.delta {
            let from_label = self.base.catalog().edge_label(label).from_label(dir);
            if from >= self.base.vertex_count(from_label) as u64
                || d.edge_list_dirty(label, dir, from)
            {
                return None;
            }
        }
        Some(self.base.adj_range(label, dir, from))
    }

    /// Neighbour and edge-reference tag at baseline list position `pos` of
    /// an [untouched](GraphView::untouched_range) list (`None`: the
    /// position holds no edge).
    pub fn base_entry(&self, label: LabelId, dir: Direction, pos: u64) -> Option<(u64, u64)> {
        let (nbr, token) = self.base.adj_entry(label, dir, pos)?;
        Some((nbr, base_edge_ref(token)))
    }

    /// Visit every live `(label, dir)` edge of `from` as `f(neighbour,
    /// edge-reference tag)`: baseline survivors in list order, then delta
    /// edges in insertion order. Baseline tombstones are matched by
    /// occurrence — the `occ`-th duplicate of an endpoint pair in list
    /// order — and only lists the delta touches pay for the counting.
    pub fn for_each_live_edge(
        &self,
        label: LabelId,
        dir: Direction,
        from: u64,
        mut f: impl FnMut(u64, u64),
    ) {
        if let Some((start, len)) = self.untouched_range(label, dir, from) {
            self.base.for_each_adj_entry(label, dir, start, len, |nbr, token| {
                f(nbr, base_edge_ref(token));
            });
            return;
        }
        let Some(d) = self.delta else { return };
        let from_label = self.base.catalog().edge_label(label).from_label(dir);
        if from < self.base.vertex_count(from_label) as u64 {
            let (start, len) = self.base.adj_range(label, dir, from);
            let mut seen: HashMap<u64, u32> = HashMap::new();
            self.base.for_each_adj_entry(label, dir, start, len, |nbr, token| {
                let occ = seen.entry(nbr).or_insert(0);
                let (src, dst) = if dir == Direction::Fwd { (from, nbr) } else { (nbr, from) };
                if !d.edge_tombed(label, src, dst, *occ) {
                    f(nbr, base_edge_ref(token));
                }
                *occ += 1;
            });
        }
        for &idx in d.delta_edges_from(label, dir, from) {
            let e = d.delta_edge(label, idx);
            f(if dir == Direction::Fwd { e.dst } else { e.src }, delta_edge_ref(idx));
        }
    }

    /// Materialize the merged adjacency list of a vertex:
    /// `(neighbours, edge-reference tags)`.
    pub fn merged_adj(&self, label: LabelId, dir: Direction, from: u64) -> (Vec<u64>, Vec<u64>) {
        let mut nbrs = Vec::new();
        let mut refs = Vec::new();
        self.for_each_live_edge(label, dir, from, |nbr, tag| {
            nbrs.push(nbr);
            refs.push(tag);
        });
        (nbrs, refs)
    }

    /// The single `(label, dir)` neighbour of `from` and its
    /// edge-reference tag, for single-cardinality directions (whose
    /// constraint the delta enforces, so at most one edge is live).
    pub fn single_nbr(&self, label: LabelId, dir: Direction, from: u64) -> Option<(u64, u64)> {
        let mut first = None;
        self.for_each_live_edge(label, dir, from, |nbr, tag| {
            first = first.or(Some((nbr, tag)));
        });
        first
    }

    /// Read one edge property through an edge-reference tag handed out by
    /// this view.
    pub fn edge_value(
        &self,
        label: LabelId,
        dir: Direction,
        from: u64,
        tag: u64,
        prop: usize,
    ) -> Result<Value> {
        if is_delta_edge_ref(tag) {
            let d = self
                .delta
                .ok_or_else(|| Error::Storage("delta edge reference on a clean view".into()))?;
            Ok(d.delta_edge(label, edge_ref_index(tag)).props[prop].clone())
        } else {
            self.base.edge_value(label, dir, from, edge_ref_index(tag), prop)
        }
    }

    pub fn edge_str_ext(&self, label: LabelId, dir: Direction, prop: usize) -> Option<&'g StrExt> {
        self.delta.and_then(|d| d.edge_str_ext(label, dir, prop))
    }
}

/// One consistent, immutable view of the whole graph under an MVCC epoch.
/// Queries pin a snapshot (`Arc`) for their entire run; writers publishing
/// newer epochs never disturb it.
#[derive(Debug, Clone)]
pub struct GraphSnapshot {
    epoch: u64,
    base: Arc<ColumnarGraph>,
    delta: Arc<DeltaSnapshot>,
}

impl GraphSnapshot {
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn base(&self) -> &Arc<ColumnarGraph> {
        &self.base
    }

    pub fn delta(&self) -> &Arc<DeltaSnapshot> {
        &self.delta
    }

    pub fn catalog(&self) -> &Catalog {
        self.base.catalog()
    }

    pub fn view(&self) -> GraphView<'_> {
        GraphView::new(&self.base, Some(&self.delta))
    }
}

/// A mutable graph: columnar baseline + delta store + WAL + snapshots.
pub struct GraphStore {
    wal: Mutex<Option<WalWriter>>,
    /// Held for the lifetime of a [`WriteTxn`] (and across merge): the
    /// single-writer lock. Readers never take it.
    writer: Mutex<Refusal>,
    /// One-shot fault hook: the next merge fails right after its
    /// commit-point rename (see [`GraphStore::inject_merge_failure`]).
    fail_past_commit_point: AtomicBool,
    /// The published state: the baseline and the delta the next writer
    /// starts from.
    current: RwLock<Arc<GraphSnapshot>>,
    dir: Option<PathBuf>,
    config: StorageConfig,
}

impl GraphStore {
    /// An ephemeral store: mutable, snapshot-isolated, but with no WAL —
    /// nothing survives the process.
    pub fn in_memory(raw: &RawGraph, config: StorageConfig) -> Result<GraphStore> {
        let base = Arc::new(ColumnarGraph::build(raw, config)?);
        let delta = DeltaStore::new(&base);
        Ok(Self::assemble(base, delta, None, None, config, 0))
    }

    /// Create a durable store in `dir`: build the baseline, write the
    /// paged graph file, and start a fresh WAL.
    pub fn create(dir: &Path, raw: &RawGraph, config: StorageConfig) -> Result<GraphStore> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create store dir", e))?;
        let base = Arc::new(ColumnarGraph::build(raw, config)?);
        base.save(dir.join(GRAPH_FILE))?;
        let wal = WalWriter::create(&dir.join(WAL_FILE), wal::baseline_id(&base))?;
        fsync_dir(dir)?;
        let delta = DeltaStore::new(&base);
        Ok(Self::assemble(base, delta, Some(wal), Some(dir.to_path_buf()), config, 0))
    }

    /// Reopen a durable store: open the paged graph file, repair any
    /// crash-interrupted merge, replay the WAL (truncating a torn tail),
    /// and publish the recovered snapshot.
    pub fn open(dir: &Path, config: StorageConfig) -> Result<GraphStore> {
        let graph_path = dir.join(GRAPH_FILE);
        let wal_path = dir.join(WAL_FILE);
        let tmp_graph = dir.join(GRAPH_TMP);
        let tmp_wal = dir.join(WAL_TMP);
        let mut repaired = false;
        if tmp_graph.exists() {
            // A merge died before its commit-point rename: the old graph
            // file is still current and BOTH tmp files are garbage. The
            // tmp WAL in particular must go regardless of what its header
            // claims — adopting an empty tmp log here would replace the
            // real WAL and drop every acknowledged commit.
            std::fs::remove_file(&tmp_graph).map_err(|e| io_err("drop stale merge tmp", e))?;
            if tmp_wal.exists() {
                std::fs::remove_file(&tmp_wal).map_err(|e| io_err("drop stale wal tmp", e))?;
            }
            repaired = true;
        }
        let base = Arc::new(ColumnarGraph::open(&graph_path, config)?);
        let baseline = wal::baseline_id(&base);

        if tmp_wal.exists() {
            if wal::read_baseline(&tmp_wal).is_ok_and(|b| b == baseline) {
                // A merge died between its two renames: the new graph file
                // landed but its fresh WAL did not. Finish the job. (The
                // baseline fingerprint folds in the graph's per-build
                // nonce, so matching proves the tmp log was created for
                // exactly this graph file, never a count-preserving twin.)
                std::fs::rename(&tmp_wal, &wal_path).map_err(|e| io_err("finish merge", e))?;
            } else {
                std::fs::remove_file(&tmp_wal).map_err(|e| io_err("drop stale wal tmp", e))?;
            }
            repaired = true;
        }
        if repaired {
            fsync_dir(dir)?;
        }

        if !wal_path.exists() {
            // Creating a fresh empty log here would silently discard every
            // commit the lost one held and still report a healthy store.
            return Err(Error::Storage(format!(
                "store at {} has a graph file but no graph.wal; a missing log means \
                 acknowledged commits would be silently dropped — refusing to open",
                dir.display()
            )));
        }
        let replayed = wal::replay(&wal_path, baseline)?;
        let (wal_writer, commits) = (WalWriter::open_for_append(&wal_path)?, replayed.commits);

        let mut delta = DeltaStore::new(&base);
        let epoch = commits.len() as u64;
        for (i, commit) in commits.iter().enumerate() {
            for op in commit {
                delta.apply(&base, op).map_err(|e| {
                    Error::Storage(format!("WAL replay: commit {i} does not apply: {e}"))
                })?;
            }
        }
        let dir = Some(dir.to_path_buf());
        Ok(Self::assemble(base, delta, Some(wal_writer), dir, config, epoch))
    }

    /// A store publishing `delta` over `base` at `epoch`.
    fn assemble(
        base: Arc<ColumnarGraph>,
        delta: DeltaStore,
        wal: Option<WalWriter>,
        dir: Option<PathBuf>,
        config: StorageConfig,
        epoch: u64,
    ) -> GraphStore {
        let snap = Arc::new(GraphSnapshot { epoch, base, delta: Arc::new(delta) });
        GraphStore {
            wal: Mutex::new(wal),
            writer: Mutex::new(None),
            fail_past_commit_point: AtomicBool::new(false),
            current: RwLock::new(snap),
            dir,
            config,
        }
    }

    /// Publish the next epoch's snapshot (the caller holds the writer
    /// lock) and return its epoch.
    fn publish(&self, base: Arc<ColumnarGraph>, delta: Arc<DeltaSnapshot>) -> u64 {
        let mut cur = self.current.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let epoch = cur.epoch + 1;
        *cur = Arc::new(GraphSnapshot { epoch, base, delta });
        epoch
    }

    /// Pin the current snapshot. Cheap (`Arc` clone); hold it for the
    /// duration of a query.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.current.read().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Number of buffered delta entries — a merge-policy signal.
    pub fn pending_mutations(&self) -> usize {
        self.snapshot().delta.mutation_count()
    }

    /// Fault-injection hook for the crash/chaos tiers: the next WAL
    /// append writes `cut` bytes of its record and then fails as if the
    /// disk errored (fsync-failure stand-in). One-shot; no-op on an
    /// in-memory store. Not part of the public API surface.
    #[doc(hidden)]
    pub fn inject_wal_append_failure(&self, cut: usize) {
        if let Some(wal) = lock(&self.wal).as_mut() {
            wal.inject_append_failure(cut);
        }
    }

    /// Fault-injection hook for the crash tier: the next merge of a
    /// durable store fails right after its commit-point rename, as if the
    /// WAL rename had. One-shot. Not part of the public API surface.
    #[doc(hidden)]
    pub fn inject_merge_failure(&self) {
        self.fail_past_commit_point.store(true, Ordering::Relaxed);
    }

    /// Begin a write transaction. Blocks while another writer (or a
    /// merge) is active; readers are never blocked.
    pub fn begin_write(&self) -> WriteTxn<'_> {
        let writer = lock(&self.writer);
        // Under the writer lock the published snapshot is the latest state.
        let snap = self.snapshot();
        let (base, delta) = (Arc::clone(&snap.base), Arc::clone(&snap.delta));
        WriteTxn { store: self, writer, base, delta, ops: Vec::new() }
    }

    /// Fold the delta into a fresh columnar baseline, at the cost of what
    /// changed. A vertex label is rebuilt iff the delta touched it (delta
    /// rows, overrides, tombstones); an edge label iff the delta touched
    /// its edges (live delta edges or baseline tombstones), or an endpoint
    /// label's vertex count changes, or a surviving baseline vertex of an
    /// endpoint label is renumbered (a tombstone below a survivor) — the
    /// offsets its lists name move. Only those labels are exported and
    /// rebuilt, re-blocking their zone maps and recollecting their
    /// statistics; every other label's built parts and statistics are
    /// shared with the old baseline by pointer. A reopened (paged)
    /// baseline rebuilds every label, so the merged baseline is always
    /// resident. Then the paged graph file is replaced atomically, the WAL
    /// truncated, and the clean snapshot published.
    ///
    /// Crash protocol for the durable case: the new graph is written to
    /// `graph.gfcl.tmp` and its empty WAL to `graph.wal.tmp`; then
    /// `graph.gfcl.tmp → graph.gfcl` (the commit point), then
    /// `graph.wal.tmp → graph.wal` — with the store directory fsynced
    /// after the tmp writes and after each rename, so no durable state
    /// ever pairs a graph file with the wrong log. [`GraphStore::open`]
    /// repairs every window: before the commit-point rename the old state
    /// is intact (both tmp files are dropped, unconditionally), between
    /// the renames the new graph is adopted and its WAL rename is
    /// completed (the tmp WAL's baseline fingerprint — which folds in the
    /// graph's per-build nonce — proves it belongs to the new file).
    ///
    /// A failure past the commit point (an fsync, the WAL rename, opening
    /// the new log) leaves the directory naming the merged graph while
    /// this process still appends to the old log, which a reopen no longer
    /// pairs with it: every later commit and merge is refused with
    /// [`Error::Storage`] until the store is reopened, so no commit is
    /// acknowledged that the reopen would drop.
    ///
    /// A no-op only when no op has been applied since the last merge: a
    /// delta whose ops cancel out (an insert and its delete) still holds
    /// log records and vacated slots, and merging drops both.
    pub fn merge(&self) -> Result<u64> {
        let mut writer = lock(&self.writer);
        writable(&writer)?;
        let snap = self.snapshot();
        if snap.delta.mutation_count() == 0 {
            return Ok(snap.epoch());
        }
        let labels = rebuilt_labels(&snap.base, &snap.delta);
        let raw = export(&snap.base, &snap.delta, &labels)?;
        let new_base =
            Arc::new(ColumnarGraph::build_labels(&raw, self.config, &labels, Some(&snap.base))?);
        if let Some(dir) = &self.dir {
            let tmp_graph = dir.join(GRAPH_TMP);
            let tmp_wal = dir.join(WAL_TMP);
            new_base.save(&tmp_graph)?;
            drop(WalWriter::create(&tmp_wal, wal::baseline_id(&new_base))?);
            // Both tmp entries must be durable before the commit-point
            // rename: a graph that survives a crash needs its log with it.
            fsync_dir(dir)?;
            std::fs::rename(&tmp_graph, dir.join(GRAPH_FILE))
                .map_err(|e| io_err("swap graph file", e))?;
            if let Err(e) = self.finish_merge(dir, &tmp_wal) {
                *writer = Some(e.to_string());
                return Err(e);
            }
        }
        let clean = Arc::new(DeltaStore::new(&new_base));
        Ok(self.publish(new_base, clean))
    }

    /// The steps of a durable merge past its commit point: make the graph
    /// rename durable, move the fresh log into place, and append to it.
    fn finish_merge(&self, dir: &Path, tmp_wal: &Path) -> Result<()> {
        fsync_dir(dir)?;
        if self.fail_past_commit_point.swap(false, Ordering::Relaxed) {
            return Err(Error::Storage("swap wal file: injected failure".into()));
        }
        std::fs::rename(tmp_wal, dir.join(WAL_FILE)).map_err(|e| io_err("swap wal file", e))?;
        fsync_dir(dir)?;
        *lock(&self.wal) = Some(WalWriter::open_for_append(&dir.join(WAL_FILE))?);
        Ok(())
    }
}

/// A single-writer transaction over a [`GraphStore`]. Ops validate and
/// apply as they are issued to the transaction's own delta — a clone of
/// the published one, taken at the first op and sharing every node the
/// ops do not write; `commit` logs them durably and publishes that delta;
/// `abort` (or drop) discards it.
pub struct WriteTxn<'s> {
    store: &'s GraphStore,
    writer: MutexGuard<'s, Refusal>,
    base: Arc<ColumnarGraph>,
    delta: Arc<DeltaStore>,
    ops: Vec<ResolvedOp>,
}

impl WriteTxn<'_> {
    pub fn catalog(&self) -> &Catalog {
        self.base.catalog()
    }

    /// Ops buffered so far.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Effective primary-key lookup inside this transaction (sees its own
    /// uncommitted writes).
    pub fn lookup_pk(&self, label: &str, key: i64) -> Result<Option<u64>> {
        let l = self.base.catalog().vertex_label_id(label)?;
        Ok(self.delta.lookup_pk(&self.base, l, key))
    }

    /// Insert a vertex; unnamed properties are NULL. Returns the new
    /// vertex's global offset.
    pub fn insert_vertex(&mut self, label: &str, props: &[(&str, Value)]) -> Result<u64> {
        let l = self.base.catalog().vertex_label_id(label)?;
        let row = self.vertex_row(l, props)?;
        let off = self.delta.peek_insert_offset(&self.base, l);
        self.run(ResolvedOp::InsertVertex { label: l, row })?;
        Ok(off)
    }

    /// Update named properties of the vertex at `off`, leaving the rest.
    pub fn update_vertex(&mut self, label: &str, off: u64, props: &[(&str, Value)]) -> Result<()> {
        let l = self.base.catalog().vertex_label_id(label)?;
        if !self.delta.vertex_live(&self.base, l, off) {
            return Err(Error::Invalid(format!("update of a dead vertex at offset {off}")));
        }
        let n_props = self.base.catalog().vertex_label(l).properties.len();
        let mut row: Vec<Value> =
            (0..n_props).map(|p| self.delta.vertex_value(&self.base, l, off, p)).collect();
        for (name, v) in props {
            row[self.base.catalog().vertex_prop_idx(l, name)?] = v.clone();
        }
        self.run(ResolvedOp::UpdateVertex { label: l, off, row })
    }

    /// Delete the vertex at `off`, cascading to its incident edges.
    pub fn delete_vertex(&mut self, label: &str, off: u64) -> Result<()> {
        let l = self.base.catalog().vertex_label_id(label)?;
        self.run(ResolvedOp::DeleteVertex { label: l, off })
    }

    /// Insert an edge between two (live) vertex offsets.
    pub fn insert_edge(
        &mut self,
        label: &str,
        src: u64,
        dst: u64,
        props: &[(&str, Value)],
    ) -> Result<()> {
        let l = self.base.catalog().edge_label_id(label)?;
        let row = self.edge_row(l, props)?;
        self.run(ResolvedOp::InsertEdge { label: l, src, dst, props: row })
    }

    /// Delete the first live `label` edge from `src` to `dst` (baseline
    /// occurrences in list order, then delta edges in insertion order).
    pub fn delete_edge(&mut self, label: &str, src: u64, dst: u64) -> Result<()> {
        let l = self.base.catalog().edge_label_id(label)?;
        let target = self.delta.resolve_delete_edge(&self.base, l, src, dst)?;
        self.run(ResolvedOp::DeleteEdge { label: l, target })
    }

    fn vertex_row(&self, label: LabelId, props: &[(&str, Value)]) -> Result<Vec<Value>> {
        let cat = self.base.catalog();
        let mut row = vec![Value::Null; cat.vertex_label(label).properties.len()];
        for (name, v) in props {
            row[cat.vertex_prop_idx(label, name)?] = v.clone();
        }
        Ok(row)
    }

    fn edge_row(&self, label: LabelId, props: &[(&str, Value)]) -> Result<Vec<Value>> {
        let cat = self.base.catalog();
        let mut row = vec![Value::Null; cat.edge_label(label).properties.len()];
        for (name, v) in props {
            row[cat.edge_prop_idx(label, name)?] = v.clone();
        }
        Ok(row)
    }

    fn run(&mut self, op: ResolvedOp) -> Result<()> {
        // The published delta is shared with every snapshot that pinned
        // it: the first op takes the transaction's own (shallow) copy.
        Arc::make_mut(&mut self.delta).apply(&self.base, &op)?;
        self.ops.push(op);
        Ok(())
    }

    /// Durably commit: append one checksummed WAL record (fsync), then
    /// publish the transaction's delta as the next-epoch snapshot. Returns
    /// the new epoch. On error nothing is published.
    pub fn commit(self) -> Result<u64> {
        let WriteTxn { store, writer, base, delta, ops } = self;
        writable(&writer)?;
        if ops.is_empty() {
            return Ok(store.snapshot().epoch());
        }
        if let Some(w) = lock(&store.wal).as_mut() {
            w.append_commit(&ops)?;
        }
        Ok(store.publish(base, delta))
    }

    /// Discard the transaction. (Dropping it does the same.)
    pub fn abort(self) {}
}

/// The labels a merge of `delta` into `base` rebuilds, by the rule at
/// [`GraphStore::merge`]; every other label keeps its built parts.
fn rebuilt_labels(base: &ColumnarGraph, delta: &DeltaSnapshot) -> LabelSet {
    let catalog = base.catalog();
    if base.buffer_pool().is_some() {
        return LabelSet::all(catalog);
    }
    let labels = |n: usize| 0..n as LabelId;
    let moved: Vec<bool> = labels(catalog.vertex_label_count())
        .map(|l| delta.merge_moves_offsets(l, base.vertex_count(l) as u64))
        .collect();
    LabelSet {
        vertices: labels(catalog.vertex_label_count())
            .map(|l| delta.vertex_label_touched(l))
            .collect(),
        edges: labels(catalog.edge_label_count())
            .map(|l| {
                let def = catalog.edge_label(l);
                [Direction::Fwd, Direction::Bwd].into_iter().any(|d| delta.edge_label_touched(l, d))
                    || moved[def.src as usize]
                    || moved[def.dst as usize]
            })
            .collect(),
    }
}

/// Export `baseline ⊎ delta ∖ tombstones` to a [`RawGraph`], the input of
/// the normal build pipeline. Deterministic: live vertices keep their
/// relative order (baseline survivors by offset, then delta rows by slot)
/// and are compacted by the same rule every time, and each edge label's
/// table lists every live edge grouped by source in that order, each
/// source's edges in its merged forward-list order (baseline survivors,
/// then delta edges by insertion). Building from that table and exporting
/// again reproduces it, so a label shared by a merge is exactly the label
/// a full rebuild from this export would make, once every label has been
/// built from an export.
pub fn merged_raw(base: &ColumnarGraph, delta: &DeltaSnapshot) -> Result<RawGraph> {
    export(base, delta, &LabelSet::all(base.catalog()))
}

/// [`merged_raw`] for the labels in `labels` alone; every other table stays
/// empty. A vertex label left out must be one the delta did not touch, so
/// its offsets are unchanged.
fn export(base: &ColumnarGraph, delta: &DeltaSnapshot, labels: &LabelSet) -> Result<RawGraph> {
    let view = GraphView::new(base, Some(delta));
    let catalog = base.catalog();
    let mut raw = RawGraph::new(catalog.clone());

    // `remap[label][old offset] -> new offset` for every exported vertex
    // label; `None` for the others, whose offsets the merge keeps.
    let mut remap: Vec<Option<Vec<Option<u64>>>> = Vec::with_capacity(raw.vertices.len());
    for (l, table) in raw.vertices.iter_mut().enumerate() {
        if !labels.vertices[l] {
            remap.push(None);
            continue;
        }
        let label = l as LabelId;
        let total = view.scan_total(label);
        let mut map = vec![None; total as usize];
        let mut next = 0u64;
        for off in (0..total).filter(|&off| view.vertex_live(label, off)) {
            map[off as usize] = Some(next);
            next += 1;
            for (p, col) in table.props.iter_mut().enumerate() {
                col.push_value(view.vertex_value(label, off, p))?;
            }
        }
        table.count = next as usize;
        remap.push(Some(map));
    }
    let new_offset = |label: LabelId, off: u64| match &remap[label as usize] {
        Some(map) => map[off as usize],
        None => Some(off),
    };

    let mut list: Vec<(u64, u64)> = Vec::new();
    for (l, table) in raw.edges.iter_mut().enumerate() {
        if !labels.edges[l] {
            continue;
        }
        let label = l as LabelId;
        let def = catalog.edge_label(label);
        for src in 0..view.scan_total(def.src) {
            // A dead source took its edges along.
            let Some(new_src) = new_offset(def.src, src) else { continue };
            list.clear();
            view.for_each_live_edge(label, Direction::Fwd, src, |nbr, tag| list.push((nbr, tag)));
            for &(dst, tag) in &list {
                let Some(new_dst) = new_offset(def.dst, dst) else { continue };
                table.src.push(new_src);
                table.dst.push(new_dst);
                for (p, col) in table.props.iter_mut().enumerate() {
                    col.push_value(view.edge_value(label, Direction::Fwd, src, tag, p)?)?;
                }
            }
        }
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::RawGraph;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gfcl_store_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn pk_raw() -> RawGraph {
        let mut raw = RawGraph::example();
        raw.catalog.set_primary_key(0, "age").unwrap();
        raw
    }

    #[test]
    fn write_commit_publishes_new_epoch() {
        let store = GraphStore::in_memory(&pk_raw(), StorageConfig::default()).unwrap();
        let before = store.snapshot();
        assert_eq!(before.epoch(), 0);

        let mut txn = store.begin_write();
        let off = txn
            .insert_vertex(
                "PERSON",
                &[("name", Value::String("zoe".into())), ("age", Value::Int64(31))],
            )
            .unwrap();
        txn.insert_edge("FOLLOWS", 0, off, &[("since", Value::Int64(2024))]).unwrap();
        let epoch = txn.commit().unwrap();
        assert_eq!(epoch, 1);

        // The pinned pre-write snapshot is untouched.
        assert_eq!(before.view().scan_total(0), 4);
        assert!(before.view().lookup_pk(0, 31).is_none());

        // The new snapshot sees everything.
        let after = store.snapshot();
        let v = after.view();
        assert_eq!(v.scan_total(0), 5);
        assert_eq!(v.lookup_pk(0, 31), Some(off));
        assert_eq!(v.vertex_value(0, off, 0), Value::String("zoe".into()));
        let (nbrs, refs) = v.merged_adj(0, Direction::Fwd, 0);
        assert!(nbrs.contains(&off));
        let i = nbrs.iter().position(|&n| n == off).unwrap();
        assert_eq!(v.edge_value(0, Direction::Fwd, 0, refs[i], 0).unwrap(), Value::Int64(2024));
    }

    #[test]
    fn edge_tags_resolve_only_through_the_view_that_issued_them() {
        let store = GraphStore::in_memory(&pk_raw(), StorageConfig::default()).unwrap();
        let before = store.snapshot();
        let mut txn = store.begin_write();
        txn.insert_edge("FOLLOWS", 0, 2, &[("since", Value::Int64(2024))]).unwrap();
        txn.commit().unwrap();
        let after = store.snapshot();

        // Every edge is tagged, baseline ones (CSR and vertex-column alike)
        // included, and each tag reads back through the issuing view.
        let (nbrs, tags) = after.view().merged_adj(0, Direction::Fwd, 0);
        let delta_tag = tags[nbrs.iter().position(|&n| n == 2).unwrap()];
        assert!(is_delta_edge_ref(delta_tag));
        assert_eq!(tags.iter().filter(|&&t| is_delta_edge_ref(t)).count(), 1);
        for &tag in &tags {
            after.view().edge_value(0, Direction::Fwd, 0, tag, 0).unwrap();
        }
        let (uw, tag) = before.view().single_nbr(1, Direction::Fwd, 2).expect("peter STUDYAT");
        assert!(uw == 0 && !is_delta_edge_ref(tag));
        let doj = before.view().edge_value(1, Direction::Fwd, 2, tag, 0).unwrap();
        assert_eq!(doj, Value::Int64(2019));

        // A delta tag means nothing to a view without that delta.
        assert!(before.view().is_clean());
        let err = before.view().edge_value(0, Direction::Fwd, 0, delta_tag, 0).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }

    #[test]
    fn abort_discards_everything() {
        let store = GraphStore::in_memory(&pk_raw(), StorageConfig::default()).unwrap();
        let mut txn = store.begin_write();
        txn.insert_vertex("PERSON", &[("age", Value::Int64(99))]).unwrap();
        txn.delete_vertex("PERSON", 0).unwrap();
        txn.abort();
        let v = store.snapshot();
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.view().scan_total(0), 4);
        assert!(v.view().vertex_live(0, 0));
        // The writer lock was released: a new transaction proceeds.
        let mut txn = store.begin_write();
        txn.insert_vertex("PERSON", &[("age", Value::Int64(99))]).unwrap();
        assert_eq!(txn.commit().unwrap(), 1);
    }

    #[test]
    fn durable_store_recovers_after_reopen() {
        let dir = tmp_dir("reopen");
        {
            let store = GraphStore::create(&dir, &pk_raw(), StorageConfig::default()).unwrap();
            let mut txn = store.begin_write();
            txn.insert_vertex(
                "PERSON",
                &[("name", Value::String("zoe".into())), ("age", Value::Int64(31))],
            )
            .unwrap();
            txn.commit().unwrap();
            let mut txn = store.begin_write();
            txn.delete_vertex("PERSON", 1).unwrap(); // bob, cascading his edges
            txn.commit().unwrap();
        }
        let store = GraphStore::open(&dir, StorageConfig::default()).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 2, "one epoch per replayed commit");
        let v = snap.view();
        assert_eq!(v.scan_total(0), 5);
        assert!(!v.vertex_live(0, 1));
        assert!(v.lookup_pk(0, 31).is_some());
        // bob's FOLLOWS edges died with him.
        let (nbrs, _) = v.merged_adj(0, Direction::Fwd, 0);
        assert!(!nbrs.contains(&1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_folds_delta_and_truncates_wal() {
        let dir = tmp_dir("merge");
        let store = GraphStore::create(&dir, &pk_raw(), StorageConfig::default()).unwrap();
        let mut txn = store.begin_write();
        let zoe = txn
            .insert_vertex(
                "PERSON",
                &[("name", Value::String("zoe".into())), ("age", Value::Int64(31))],
            )
            .unwrap();
        txn.insert_edge("FOLLOWS", zoe, 0, &[("since", Value::Int64(2024))]).unwrap();
        txn.delete_vertex("PERSON", 2).unwrap(); // peter + his edges
        txn.update_vertex("PERSON", 3, &[("name", Value::String("jen".into()))]).unwrap();
        txn.commit().unwrap();

        let pre = store.snapshot();
        let epoch = store.merge().unwrap();
        assert!(epoch > pre.epoch());
        let post = store.snapshot();
        assert!(post.view().is_clean(), "merge publishes an empty delta");
        assert_eq!(post.view().scan_total(0), 4); // 4 - peter + zoe
        assert_eq!(store.pending_mutations(), 0);

        // Reopen: the rewritten graph file + truncated WAL reproduce the
        // merged state exactly.
        drop(store);
        let store = GraphStore::open(&dir, StorageConfig::default()).unwrap();
        let v = store.snapshot();
        let view = v.view();
        assert_eq!(view.scan_total(0), 4);
        let zoe_new = view.lookup_pk(0, 31).expect("zoe survived the merge");
        assert_eq!(view.vertex_value(0, zoe_new, 0), Value::String("zoe".into()));
        let jenny_new = view.lookup_pk(0, 23).expect("jenny survived");
        assert_eq!(view.vertex_value(0, jenny_new, 0), Value::String("jen".into()));
        assert!(view.lookup_pk(0, 17).is_none(), "peter stayed deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Everything a reader can see through `view`: every live vertex with
    /// its values, and every list of every edge label both ways, as a
    /// multiset (a rebuild regroups backward lists).
    fn answers(view: GraphView<'_>) -> String {
        let catalog = view.base().catalog();
        let mut out = String::new();
        for l in 0..catalog.vertex_label_count() as LabelId {
            let n_props = catalog.vertex_label(l).properties.len();
            for off in (0..view.scan_total(l)).filter(|&off| view.vertex_live(l, off)) {
                let row: Vec<Value> = (0..n_props).map(|p| view.vertex_value(l, off, p)).collect();
                out += &format!("v{l}@{off} {row:?}\n");
            }
        }
        for l in 0..catalog.edge_label_count() as LabelId {
            let def = catalog.edge_label(l);
            for dir in [Direction::Fwd, Direction::Bwd] {
                for from in 0..view.scan_total(def.from_label(dir)) {
                    let mut nbrs = view.merged_adj(l, dir, from).0;
                    nbrs.sort_unstable();
                    out += &format!("e{l}{dir}@{from} {nbrs:?}\n");
                }
            }
        }
        out
    }

    #[test]
    fn merge_folds_a_delta_that_cancels_out() {
        // An insert and its delete leave nothing a reader sees, but the log
        // holds both records and the delta a vacated slot: merge folds them.
        let dir = tmp_dir("cancel");
        let store = GraphStore::create(&dir, &pk_raw(), StorageConfig::default()).unwrap();
        let before = answers(store.snapshot().view());
        let mut txn = store.begin_write();
        let off = txn.insert_vertex("PERSON", &[("age", Value::Int64(31))]).unwrap();
        txn.commit().unwrap();
        let mut txn = store.begin_write();
        txn.delete_vertex("PERSON", off).unwrap();
        txn.commit().unwrap();
        assert!(store.snapshot().view().is_clean());
        assert_eq!(store.pending_mutations(), 1);

        assert_eq!(store.merge().unwrap(), 3, "the merge published an epoch");
        assert_eq!(store.pending_mutations(), 0);
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert_eq!(wal_len, wal::HEADER_LEN as u64, "the log is header-only");
        let live = answers(store.snapshot().view());
        assert_eq!(live, before);
        drop(store);
        let reopened = GraphStore::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(answers(reopened.snapshot().view()), live);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_merge_failing_past_its_commit_point_refuses_writes_until_reopened() {
        let dir = tmp_dir("postcommit");
        let store = GraphStore::create(&dir, &pk_raw(), StorageConfig::default()).unwrap();
        let mut txn = store.begin_write();
        let zoe = txn
            .insert_vertex(
                "PERSON",
                &[("name", Value::String("zoe".into())), ("age", Value::Int64(31))],
            )
            .unwrap();
        txn.insert_edge("FOLLOWS", zoe, 0, &[("since", Value::Int64(2024))]).unwrap();
        txn.update_vertex("PERSON", 3, &[("name", Value::String("jen".into()))]).unwrap();
        txn.commit().unwrap();
        let acknowledged = answers(store.snapshot().view());

        // The graph rename lands, the WAL rename does not: the directory
        // names the merged graph, which a reopen pairs with the tmp log,
        // while this process still holds the old log open.
        store.inject_merge_failure();
        let err = store.merge().unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
        assert!(dir.join(WAL_TMP).exists());

        // A commit appended to the old log now would be acknowledged and
        // then dropped by the reopen: every write is refused instead.
        let mut txn = store.begin_write();
        txn.insert_vertex("PERSON", &[("age", Value::Int64(77))]).unwrap();
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, Error::Storage(_)) && err.to_string().contains("reopen"), "{err}");
        let err = store.merge().unwrap_err();
        assert!(err.to_string().contains("reopen"), "{err}");
        assert_eq!(answers(store.snapshot().view()), acknowledged, "a refused write showed");

        drop(store);
        let reopened = GraphStore::open(&dir, StorageConfig::default()).unwrap();
        assert_eq!(answers(reopened.snapshot().view()), acknowledged, "a commit was lost");
        let mut txn = reopened.begin_write();
        txn.insert_vertex("PERSON", &[("age", Value::Int64(77))]).unwrap();
        txn.commit().expect("a reopened store takes writes again");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_raw_is_deterministic() {
        let raw = pk_raw();
        let base = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
        let mut d = DeltaStore::new(&base);
        for op in [
            ResolvedOp::InsertVertex {
                label: 0,
                row: vec![Value::String("zoe".into()), Value::Int64(31), Value::Null],
            },
            ResolvedOp::DeleteVertex { label: 0, off: 2 },
        ] {
            d.apply(&base, &op).unwrap();
        }
        let a = merged_raw(&base, &d).unwrap();
        let b = merged_raw(&base, &d).unwrap();
        // Spot-check structural equality via counts and a rebuild.
        assert_eq!(a.total_vertices(), b.total_vertices());
        assert_eq!(a.total_edges(), b.total_edges());
        let ga = ColumnarGraph::build(&a, StorageConfig::default()).unwrap();
        let gb = ColumnarGraph::build(&b, StorageConfig::default()).unwrap();
        assert_eq!(ga.vertex_count(0), gb.vertex_count(0));
        assert_eq!(ga.edge_count(0), gb.edge_count(0));
    }

    #[test]
    fn count_preserving_merge_crash_keeps_acknowledged_commits() {
        let dir = tmp_dir("cpcrash");
        let store = GraphStore::create(&dir, &pk_raw(), StorageConfig::default()).unwrap();
        // An update-only commit: every per-label count is unchanged, so
        // without the per-build nonce the merged baseline would
        // fingerprint identically to the old one.
        let mut txn = store.begin_write();
        txn.update_vertex("PERSON", 0, &[("name", Value::String("al".into()))]).unwrap();
        txn.commit().unwrap();
        // Hand-simulate the first half of merge(): both tmp files land on
        // disk, then the process dies before the commit-point rename.
        let snap = store.snapshot();
        let raw = merged_raw(snap.base(), snap.delta()).unwrap();
        let merged = ColumnarGraph::build(&raw, StorageConfig::default()).unwrap();
        merged.save(dir.join(GRAPH_TMP)).unwrap();
        drop(WalWriter::create(&dir.join(WAL_TMP), wal::baseline_id(&merged)).unwrap());
        drop(store);
        // Recovery must keep the old graph AND its real WAL: the update
        // replays; the empty tmp log must never replace graph.wal.
        let store = GraphStore::open(&dir, StorageConfig::default()).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.epoch(), 1, "the acknowledged commit survived");
        assert_eq!(snap.view().vertex_value(0, 0, 0), Value::String("al".into()));
        assert!(!dir.join(GRAPH_TMP).exists());
        assert!(!dir.join(WAL_TMP).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_wal_refuses_to_open() {
        let dir = tmp_dir("nowal");
        let store = GraphStore::create(&dir, &pk_raw(), StorageConfig::default()).unwrap();
        let mut txn = store.begin_write();
        txn.insert_vertex("PERSON", &[("age", Value::Int64(31))]).unwrap();
        txn.commit().unwrap();
        drop(store);
        std::fs::remove_file(dir.join(WAL_FILE)).unwrap();
        let err = match GraphStore::open(&dir, StorageConfig::default()) {
            Ok(_) => panic!("a store without its WAL must not open"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("graph.wal"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_wal_from_before_merge_is_rejected() {
        let dir = tmp_dir("stale");
        let store = GraphStore::create(&dir, &pk_raw(), StorageConfig::default()).unwrap();
        let mut txn = store.begin_write();
        txn.insert_vertex("PERSON", &[("age", Value::Int64(31))]).unwrap();
        txn.commit().unwrap();
        let stale_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        store.merge().unwrap();
        drop(store);
        // Resurrect the pre-merge WAL: its offsets refer to the old
        // baseline, so open must refuse rather than mis-apply them.
        std::fs::write(dir.join(WAL_FILE), &stale_wal).unwrap();
        let err = match GraphStore::open(&dir, StorageConfig::default()) {
            Ok(_) => panic!("stale WAL must not open"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("baseline mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
