//! The list-based processor: physical operators and plan compilation
//! (Section 6.2).
//!
//! This module owns the *static* half of execution: compiling a
//! [`LogicalPlan`] into a `Pipeline` of physical operators plus the
//! intermediate [`Chunk`] they fill. The *dynamic* half — driving one or
//! more pipelines to completion and merging their sink states — lives in
//! [`crate::driver`], which instantiates one `Pipeline` per worker thread
//! from the same plan (morsel-driven parallelism).
//!
//! Operators pull chunk *states* from their child: each state is one
//! configuration of the intermediate chunk's list groups (flattened
//! positions + filled blocks) representing a set of tuples. The operators:
//!
//! * `ScanAll` / `ScanPk` — claim `[next, next + 1024)` vertex ranges (the
//!   paper's default morsel) from a shared atomic [`ScanCursor`], so
//!   multiple pipelines over the same plan partition the scan without
//!   coordination beyond one `fetch_add` per morsel.
//! * `ListExtend` — n-side joins over a CSR: flattens its source group
//!   (iterating its selected positions across calls) and fills the output
//!   group with **zero-copy views** of the current vertex's adjacency list.
//! * `ColumnExtend` — single-cardinality joins via vertex columns: appends
//!   neighbour blocks to the *same* group (no new factor is needed because
//!   each tuple extends to at most one neighbour); missing edges unselect.
//! * `ReadNodeProp` / `ReadEdgeProp` — vectorized property reads in list
//!   order (Desideratum 1), a block at a time: a contiguous run (a scan
//!   morsel, a list in its indexed direction) is one range read of the
//!   column, anything else resolves its offsets block-wise and gathers
//!   through the operator's page cursors — whether the bytes sit in a
//!   `Vec` or in a buffer-pool frame is decided once per block, never per
//!   value. Edge reads resolve through [`gfcl_storage::EdgePropRead`], so
//!   the same operator exercises property pages, edge columns, and
//!   double-indexed layouts.
//! * `Filter` — evaluates a compiled predicate over the (single) unflat
//!   group among its inputs, broadcasting flat operands, and ANDs the
//!   result into the group's selection mask.
//!
//! The sinks (in [`crate::driver`]) implement the Section 6.2
//! aggregation-on-compressed-data trick: `COUNT(*)` multiplies group
//! contributions without ever enumerating tuples.

use std::sync::atomic::{AtomicU64, Ordering};

use gfcl_columnar::{Column, Dictionary, PageCursor, UIntArray};
use gfcl_common::{DataType, Direction, Error, LabelId, Result, Value};
use gfcl_storage::{AdjIndex, ColumnarGraph, EdgePropRead, GraphView, StrExt};

use crate::agg::{cmp_rows, AggState, GroupTable, OrdValue};
use crate::chunk::{Chunk, ListGroup, NodeData, ValueVector, VecRef};
use crate::plan::{seek_key, LogicalPlan, PlanAgg, PlanStep, SlotSource};
use crate::pred::{
    compile_pred, compile_row_pred, compile_scan_pred, BlockVerdict, CPred, EvalCtx, RowPred,
    ScanPred, SlotCol,
};

/// Default scan morsel size (the paper's block size for scans, and the unit
/// of work handed to each parallel pipeline).
pub const SCAN_MORSEL: usize = 1024;

/// The shared scan cursor: hands out disjoint `[start, end)` vertex-offset
/// morsels to however many pipelines pull from it. One `fetch_add` per
/// morsel is the only cross-worker synchronization in the whole executor —
/// everything downstream of the scan is thread-private.
///
/// A single pipeline pulling from a fresh cursor sees exactly the morsel
/// sequence the serial executor produced (`[0, 1024)`, `[1024, 2048)`, …),
/// which keeps `threads = 1` bit-identical to the historical serial path.
#[derive(Debug)]
pub struct ScanCursor<'q> {
    next: AtomicU64,
    total: u64,
    /// Morsel size the scan operator claims per pull (tunable via
    /// [`ExecOptions::morsel_size`](crate::ExecOptions); [`SCAN_MORSEL`] by
    /// default).
    morsel: u64,
    /// The owning query's governor, when one is installed: scans check it
    /// once per claimed morsel, which bounds how far a canceled query can
    /// run past its trip point.
    governor: Option<&'q crate::govern::QueryGovernor>,
}

impl<'q> ScanCursor<'q> {
    /// A cursor over `total` scan positions with the default morsel size.
    pub fn new(total: u64) -> ScanCursor<'q> {
        ScanCursor::with_morsel(total, SCAN_MORSEL as u64)
    }

    /// A cursor over `total` scan positions claiming `morsel` at a time.
    pub fn with_morsel(total: u64, morsel: u64) -> ScanCursor<'q> {
        debug_assert!(morsel > 0);
        ScanCursor { next: AtomicU64::new(0), total, morsel, governor: None }
    }

    /// Attach the owning query's governor; every worker pulling from this
    /// cursor then observes budget trips at morsel granularity.
    pub fn governed(mut self, gov: &'q crate::govern::QueryGovernor) -> ScanCursor<'q> {
        self.governor = Some(gov);
        self
    }

    /// The morsel-boundary budget/cancellation check. A no-op `Ok(())`
    /// for ungoverned cursors (unit tests, embedded uses).
    #[inline]
    pub fn checkpoint(&self) -> Result<()> {
        match &self.governor {
            Some(gov) => gov.checkpoint(),
            None => Ok(()),
        }
    }

    /// Cursor sized for `plan`'s scan step over a (possibly delta-overlaid)
    /// snapshot view: scans cover the baseline rows plus every delta slot;
    /// `ScanPk` is a single morsel.
    pub fn for_plan_view(
        view: GraphView<'_>,
        plan: &LogicalPlan,
        morsel: u64,
    ) -> Result<ScanCursor<'q>> {
        match plan.steps.first() {
            Some(PlanStep::ScanAll { node, .. }) => {
                Ok(ScanCursor::with_morsel(view.scan_total(plan.nodes[*node].label), morsel))
            }
            Some(PlanStep::ScanPk { .. }) => Ok(ScanCursor::with_morsel(1, morsel)),
            _ => Err(Error::Plan("plan does not start with a scan".into())),
        }
    }

    /// The morsel size scans claim from this cursor.
    pub fn morsel(&self) -> u64 {
        self.morsel
    }

    /// Claim the next morsel of up to `morsel` positions. Returns `None`
    /// once the scan is exhausted.
    #[inline]
    pub fn claim(&self, morsel: u64) -> Option<(u64, u64)> {
        debug_assert!(morsel > 0);
        let start = self.next.fetch_add(morsel, Ordering::Relaxed);
        if start >= self.total {
            None
        } else {
            let end = (start + morsel).min(self.total);
            debug_assert!(check_morsel_bounds(start, end, self.total).is_ok());
            Some((start, end))
        }
    }

    /// Total number of scan positions this cursor covers.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// The morsel-partitioning invariant, named so a violation is diagnosable:
/// every range a [`ScanCursor`] hands out must be non-empty, in order, and
/// inside the scan's `total` positions. A failure here means concurrent
/// workers received overlapping or out-of-bounds morsels — a partitioning
/// bug that would silently double-count or skip tuples if left to surface
/// as a downstream index panic.
pub fn check_morsel_bounds(start: u64, end: u64, total: u64) -> Result<()> {
    if start < end && end <= total {
        Ok(())
    } else {
        Err(Error::Exec(format!(
            "morsel invariant violated: claimed [{start}, {end}) over {total} scan positions \
             (require start < end <= total)"
        )))
    }
}

/// A `ColumnExtend` neighbour slot whose vertex has no edge of the label (no
/// vertex has this offset).
const NO_NBR: u64 = u64::MAX;

/// A physical operator. `ops[i]`'s child is `ops[i-1]`; `ops[0]` is a scan.
enum Op<'g> {
    ScanAll {
        label: LabelId,
        out: VecRef,
        cursor: &'g ScanCursor<'g>,
        /// Pushed-down predicates, compiled against the scanned label's
        /// property columns. The scan consults their zone maps per block
        /// (skipping morsels no row of which can match) and seeds the
        /// group's selection mask from the survivors — before any
        /// `ReadNodeProp` touches a column.
        pushed: Vec<ScanPred<'g>>,
        /// The pushed predicates recompiled for row-at-a-time evaluation
        /// through the snapshot view — used only on morsels the delta
        /// touches, where positional column reads may be stale.
        row_pushed: Vec<RowPred<'g>>,
        /// Does the snapshot's delta touch this label's vertices at all?
        /// `false` ⇒ the clean zone-map path is exact for every morsel.
        touched: bool,
        /// Baseline vertex count; offsets at or past it are delta slots.
        n_base: u64,
        /// Scratch selection mask, reused across morsels.
        mask: Vec<bool>,
        /// Scratch per-predicate block verdicts, reused across blocks.
        verdicts: Vec<BlockVerdict>,
    },
    ScanPk {
        label: LabelId,
        key: i64,
        out: VecRef,
        cursor: &'g ScanCursor<'g>,
    },
    ListExtend {
        label: LabelId,
        dir: Direction,
        nbr_label: LabelId,
        from: VecRef,
        out_group: usize,
        /// Does the snapshot's delta touch this adjacency (or insert
        /// vertices on the from side)? `false` ⇒ zero-copy CSR views.
        maybe_dirty: bool,
        /// Baseline vertex count of the from-side label: offsets past it
        /// have no CSR entry and always take the merged path.
        from_count: u64,
        /// A chunk state is held from the child and being iterated.
        active: bool,
        /// This op flattens the source group (it arrived unflat).
        owns_iter: bool,
        pos: i64,
        single_shot_done: bool,
        rd: ReadState,
    },
    ColumnExtend {
        label: LabelId,
        dir: Direction,
        nbr_label: LabelId,
        from: VecRef,
        node_out: VecRef,
        /// Location of the `SingleEdge` descriptor vector (tag storage on
        /// the dirty path).
        edge_out: VecRef,
        /// Does the snapshot's delta touch this adjacency?
        maybe_dirty: bool,
        rd: ReadState,
    },
    ReadNodeProp {
        node: VecRef,
        out: VecRef,
        label: LabelId,
        prop: usize,
        dtype: DataType,
        /// Does the snapshot's delta touch this label's vertices? `true` ⇒
        /// values resolve row-at-a-time through the view.
        touched: bool,
        rd: ReadState,
    },
    ReadEdgeProp {
        edge: VecRef,
        out: VecRef,
        prop: usize,
        dtype: DataType,
        rd: ReadState,
    },
    Filter {
        pred: CPred,
        mask: Vec<bool>,
    },
}

/// The paged-read state of one operator: the page cursors its reads step
/// through and the offset scratch of the block being filled. A cursor keeps
/// the page it touched last pinned — that pin is the eviction guard for
/// the walk — and [`ReadState::enter`] drops all of them when the pipeline
/// moves on to another scan morsel, so a pin never outlives a morsel.
/// A cursor is one pointer until it first meets a paged page, and an
/// empty scratch owns no heap memory: over a resident graph this state
/// costs an operator no allocation and three words, which keeps `Op` —
/// and the allocation `compile` makes for the pipeline — as small as it
/// was before operators carried cursors (`operators_stay_small`).
#[derive(Default)]
struct ReadState {
    /// The [`Chunk::morsel`] the cursors were last used under.
    morsel: u64,
    /// The property (or single-cardinality neighbour) column being read.
    col: PageCursor,
    /// Neighbour array of the CSR the input block views.
    nbr: PageCursor,
    /// Edge-ID array of that CSR.
    ids: PageCursor,
    /// Vertex offsets / flat property indexes of the current block.
    offs: Vec<u64>,
}

impl ReadState {
    fn enter(&mut self, morsel: u64) {
        if self.morsel != morsel {
            self.morsel = morsel;
            self.col.clear();
            self.nbr.clear();
            self.ids.clear();
        }
    }
}

/// Where the `i`-th value of a block read lives in its column.
#[derive(Clone, Copy)]
enum Idx<'a> {
    /// Row `start + i`: a contiguous run (a scan morsel, an adjacency list
    /// in its indexed direction) — read with one range read.
    Run(u64),
    /// Row `offs[i]`: a gather, stepped through a page cursor.
    At(&'a [u64]),
    /// Row `nbrs[start + i]`: an adjacency view over a resident neighbour
    /// array, indexed in place.
    Nbrs(&'a UIntArray, u64),
}

impl Idx<'_> {
    #[inline]
    fn at(&self, i: usize) -> u64 {
        match self {
            Idx::Run(start) => start + i as u64,
            Idx::At(offs) => offs[i],
            Idx::Nbrs(nbrs, start) => nbrs.get(*start as usize + i),
        }
    }
}

/// The vertex offsets of node block `v` (`n` positions) as a block-read
/// index. Owned blocks, scan morsels and adjacency views over a resident
/// neighbour array are used in place (the zero-copy list view of the
/// all-in-memory engine); a view over a paged one is one range read of
/// the neighbour array into `offs`.
fn node_idx<'a>(
    v: &'a ValueVector,
    g: &'a ColumnarGraph,
    n: usize,
    nbr: &mut PageCursor,
    offs: &'a mut Vec<u64>,
) -> Result<Idx<'a>> {
    match v {
        ValueVector::Node { data: NodeData::Owned(v), .. } => Ok(Idx::At(v)),
        ValueVector::Node { data: NodeData::Range { start }, .. } => Ok(Idx::Run(*start)),
        ValueVector::Node { data: NodeData::AdjView { label, dir, start }, .. } => {
            let csr = g.adj(*label, *dir).as_csr().ok_or_else(csr_missing)?;
            if csr.nbr_array().pageable_bytes() == 0 {
                return Ok(Idx::Nbrs(csr.nbr_array(), *start));
            }
            let start = *start as usize;
            offs.clear();
            csr.nbr_array().read_range(nbr, start, start + n, offs);
            Ok(Idx::At(offs))
        }
        _ => Err(Error::Exec("vertex offsets requested from a non-node vector".into())),
    }
}

/// An edge-ID-resolving property read reached an adjacency index without
/// CSR backing. The storage layer only hands out [`gfcl_storage::EdgePropRead`]
/// variants it can serve, so this indicates a layout/catalog mismatch;
/// surface it as a storage error rather than unwinding a worker.
fn csr_missing() -> Error {
    Error::Storage("edge property read requires a CSR-backed adjacency list".into())
}

/// Pull the next chunk state through `ops`.
fn pull(ops: &mut [Op<'_>], view: GraphView<'_>, chunk: &mut Chunk) -> Result<bool> {
    let g = view.base();
    // lint: allow(compile() always emits a scan as ops[0]; the plan
    // verifier's scan-first rule rejects scanless plans before compilation)
    let (op, children) = ops.split_last_mut().expect("pipeline has at least a scan");
    match op {
        Op::ScanAll { label, out, cursor, pushed, row_pushed, touched, n_base, mask, verdicts } => {
            loop {
                let Some((start, end)) = cursor.claim(cursor.morsel()) else {
                    return Ok(false);
                };
                // Morsel-boundary fault-domain check: a canceled/over-budget
                // query stops here even when zone maps prune every morsel
                // (the `continue` below never reaches the driver loop).
                cursor.checkpoint()?;
                // A new morsel: every operator above drops its page cursors
                // when it sees the bumped sequence number, and the pushed
                // predicates' operand cursors are dropped here.
                chunk.morsel += 1;
                for p in pushed.iter() {
                    p.clear_cursors();
                }
                let n = (end - start) as usize;
                // Evaluate the pushed predicates morsel-wide: one zone-map
                // verdict per overlapping block, row evaluation only where the
                // verdict is inconclusive. A morsel with no survivor is
                // skipped without ever materializing its chunk state. Blocks
                // the snapshot's delta touches (tombstones, updates, or
                // appended slots) fall back to row-at-a-time evaluation
                // through the view; pristine baseline blocks keep full
                // zone-map pruning.
                let mut all_selected = true;
                if *touched || !pushed.is_empty() {
                    mask.clear();
                    mask.resize(n, false);
                    let mut any_selected = false;
                    let zb = gfcl_columnar::ZONE_BLOCK as u64;
                    let mut bs = start;
                    while bs < end {
                        let block = (bs / zb) as usize;
                        let be = ((bs / zb + 1) * zb).min(end);
                        let pristine = !*touched
                            || (be <= *n_base && !view.base_range_touched(*label, bs, be));
                        if !pristine {
                            for v in bs..be {
                                let keep = view.vertex_live(*label, v)
                                    && row_pushed.iter().all(|p| p.holds_row(view, *label, v));
                                // lint: allow(v in [start, end); mask has
                                // end - start entries)
                                mask[(v - start) as usize] = keep;
                                any_selected |= keep;
                                all_selected &= keep;
                            }
                            bs = be;
                            continue;
                        }
                        // Per-predicate verdicts: in a Mixed block, predicates
                        // the zone map already proved AllTrue are skipped in
                        // the row loop (only the inconclusive ones pay probes).
                        verdicts.clear();
                        verdicts.extend(pushed.iter().map(|p| p.prune(block)));
                        let combined =
                            verdicts.iter().fold(BlockVerdict::AllTrue, |v, p| v.and(*p));
                        match combined {
                            BlockVerdict::AllFalse => {
                                all_selected = false;
                                // The zone map proved no row probe is needed:
                                // the block's pages are never faulted. Credit
                                // the skip to the pool's I/O accounting.
                                for p in pushed.iter() {
                                    p.for_each_operand(&mut |o| {
                                        o.col.note_skipped_rows(bs as usize, be as usize);
                                    });
                                }
                            }
                            BlockVerdict::AllTrue => {
                                // lint: allow(bs/be lie in [start, end] and
                                // mask.len() == end - start by construction)
                                mask[(bs - start) as usize..(be - start) as usize].fill(true);
                                any_selected = true;
                            }
                            BlockVerdict::Mixed => {
                                // Row probes walk each operand column in offset
                                // order through the operand's own cursor: a
                                // paged column's pages are pinned once each.
                                for v in bs..be {
                                    let keep = pushed
                                        .iter()
                                        .zip(verdicts.iter())
                                        .filter(|(_, &vd)| vd != BlockVerdict::AllTrue)
                                        .all(|(p, _)| p.holds_at(v as usize));
                                    // lint: allow(v in [start, end); mask has
                                    // end - start entries)
                                    mask[(v - start) as usize] = keep;
                                    any_selected |= keep;
                                    all_selected &= keep;
                                }
                            }
                        }
                        bs = be;
                    }
                    if !any_selected {
                        continue; // the whole morsel is pruned
                    }
                }
                let group = &mut chunk.groups[out.group];
                group.reset(n);
                group.vectors[out.vec] =
                    ValueVector::Node { label: *label, data: NodeData::Range { start } };
                if !all_selected {
                    group.and_mask(mask);
                }
                return Ok(true);
            }
        }
        Op::ScanPk { label, key, out, cursor } => {
            if cursor.claim(1).is_none() {
                return Ok(false);
            }
            match view.lookup_pk(*label, *key) {
                Some(off) => {
                    // The seeked vertex is a run of one offset: nothing to
                    // allocate, and a property read over it is a range read.
                    let group = &mut chunk.groups[out.group];
                    group.reset(1);
                    group.vectors[out.vec] =
                        ValueVector::Node { label: *label, data: NodeData::Range { start: off } };
                    Ok(true)
                }
                None => Ok(false),
            }
        }
        Op::ListExtend {
            label,
            dir,
            nbr_label,
            from,
            out_group,
            maybe_dirty,
            from_count,
            active,
            owns_iter,
            pos,
            single_shot_done,
            rd,
        } => {
            loop {
                if !*active {
                    if !pull(children, view, chunk)? {
                        return Ok(false);
                    }
                    rd.enter(chunk.morsel);
                    *active = true;
                    *owns_iter = !chunk.groups[from.group].is_flat();
                    *pos = -1;
                    *single_shot_done = false;
                }
                // Advance to the next selected source position.
                let src_idx = if *owns_iter {
                    let fg = &mut chunk.groups[from.group];
                    let mut p = *pos + 1;
                    while (p as usize) < fg.len && !fg.selected(p as usize) {
                        p += 1;
                    }
                    if (p as usize) < fg.len {
                        *pos = p;
                        fg.cur_idx = p;
                        Some(p as usize)
                    } else {
                        None
                    }
                } else if *single_shot_done {
                    None
                } else {
                    *single_shot_done = true;
                    Some(chunk.groups[from.group].cur_idx as usize)
                };
                let Some(i) = src_idx else {
                    *active = false;
                    continue;
                };
                let src = chunk.groups[from.group].vectors[from.vec].node_offset(g, &mut rd.nbr, i);
                if *maybe_dirty && (src >= *from_count || view.edge_list_dirty(*label, *dir, src)) {
                    // The delta touches this list (or the source vertex is
                    // delta-inserted and has no CSR entry): materialize the
                    // merged adjacency with tagged edge references.
                    let (nbrs, refs) = view.merged_adj(*label, *dir, src);
                    if nbrs.is_empty() {
                        continue;
                    }
                    let og = &mut chunk.groups[*out_group];
                    og.reset(nbrs.len());
                    og.vectors[0] =
                        ValueVector::Node { label: *nbr_label, data: NodeData::Owned(nbrs) };
                    og.vectors[1] =
                        ValueVector::EdgeRefs { label: *label, dir: *dir, from: src, refs };
                    return Ok(true);
                }
                let csr = match g.adj(*label, *dir) {
                    AdjIndex::Csr(c) => c,
                    AdjIndex::SingleCard(_) => {
                        return Err(Error::Exec("ListExtend over vertex-column adjacency".into()))
                    }
                };
                let (start, len) = csr.list(src);
                if len == 0 {
                    continue; // empty list: tuple produces no matches
                }
                let og = &mut chunk.groups[*out_group];
                og.reset(len);
                og.vectors[0] = ValueVector::Node {
                    label: *nbr_label,
                    data: NodeData::AdjView { label: *label, dir: *dir, start },
                };
                og.vectors[1] =
                    ValueVector::EdgeList { label: *label, dir: *dir, from: src, start };
                return Ok(true);
            }
        }
        Op::ColumnExtend { label, dir, nbr_label, from, node_out, edge_out, maybe_dirty, rd } => {
            loop {
                if !pull(children, view, chunk)? {
                    return Ok(false);
                }
                rd.enter(chunk.morsel);
                let n = chunk.groups[from.group].len;
                // Reuse the output allocation across fills.
                let mut vals = match std::mem::replace(
                    &mut chunk.groups[node_out.group].vectors[node_out.vec],
                    ValueVector::Empty,
                ) {
                    ValueVector::Node { data: NodeData::Owned(mut v), .. } => {
                        v.clear();
                        v
                    }
                    _ => Vec::with_capacity(n),
                };
                // A tuple whose vertex has no such edge is marked `NO_NBR` here
                // and unselected below.
                let mut any_missing = false;
                let ReadState { col, nbr, offs, .. } = rd;
                let from_idx =
                    node_idx(&chunk.groups[from.group].vectors[from.vec], g, n, nbr, offs)?;
                if *maybe_dirty {
                    // The delta touches this adjacency: resolve each tuple's
                    // neighbour through the view and record tagged edge
                    // references for downstream property reads.
                    let mut tags: Vec<u64> = Vec::with_capacity(n);
                    for i in 0..n {
                        match view.single_nbr(*label, *dir, from_idx.at(i)) {
                            Some((nb, tag)) => {
                                vals.push(nb);
                                tags.push(tag);
                            }
                            None => {
                                vals.push(NO_NBR);
                                tags.push(0);
                                any_missing = true;
                            }
                        }
                    }
                    if let ValueVector::SingleEdge { tags: slot, .. } =
                        &mut chunk.groups[edge_out.group].vectors[edge_out.vec]
                    {
                        *slot = Some(tags);
                    }
                } else {
                    let adj = match g.adj(*label, *dir) {
                        AdjIndex::SingleCard(s) => s,
                        AdjIndex::Csr(_) => {
                            return Err(Error::Exec("ColumnExtend over CSR adjacency".into()))
                        }
                    };
                    for i in 0..n {
                        match adj.nbr_with(col, from_idx.at(i)) {
                            Some(nb) => vals.push(nb),
                            None => {
                                vals.push(NO_NBR);
                                any_missing = true;
                            }
                        }
                    }
                }
                if any_missing {
                    let fg = &mut chunk.groups[from.group];
                    for (i, v) in vals.iter_mut().enumerate() {
                        if *v == NO_NBR {
                            *v = 0; // never read: the position is unselected
                            fg.unselect(i);
                        }
                    }
                }
                chunk.groups[node_out.group].vectors[node_out.vec] =
                    ValueVector::Node { label: *nbr_label, data: NodeData::Owned(vals) };
                let fg = &chunk.groups[from.group];
                if fg.is_flat() {
                    if fg.selected(fg.cur_idx as usize) {
                        return Ok(true);
                    }
                } else if fg.sel_count > 0 {
                    return Ok(true);
                }
                // Current tuple(s) all died: pull the next state.
            }
        }
        Op::ReadNodeProp { node, out, label, prop, dtype, touched, rd } => {
            if !pull(children, view, chunk)? {
                return Ok(false);
            }
            rd.enter(chunk.morsel);
            let n = chunk.groups[node.group].len;
            let col = g.vertex_prop(*label, *prop);
            let reuse = std::mem::replace(
                &mut chunk.groups[out.group].vectors[out.vec],
                ValueVector::Empty,
            );
            let ng = &chunk.groups[node.group];
            let sel = ng.sel.as_deref();
            let ReadState { col: col_cur, nbr, offs, .. } = rd;
            let idx = node_idx(&ng.vectors[node.vec], g, n, nbr, offs)?;
            // Selection-aware either way: positions already unselected (by
            // a pushed scan predicate or an upstream filter) cost zero
            // column probes — nothing downstream ever reads them.
            let filled = if *touched {
                // The delta touches this label: every offset resolves
                // through the view (updated rows, delta slots, string
                // codes past the baseline dictionary).
                fill_vector_from_values(
                    n,
                    *dtype,
                    reuse,
                    sel,
                    |i| view.vertex_value(*label, idx.at(i), *prop),
                    col.dictionary(),
                    view.vertex_str_ext(*label, *prop),
                )?
            } else {
                fill_vector(col, n, *dtype, reuse, sel, col_cur, idx)
            };
            chunk.groups[out.group].vectors[out.vec] = filled;
            Ok(true)
        }
        Op::ReadEdgeProp { edge, out, prop, dtype, rd } => {
            if !pull(children, view, chunk)? {
                return Ok(false);
            }
            rd.enter(chunk.morsel);
            let n = chunk.groups[edge.group].len;
            let reuse = std::mem::replace(
                &mut chunk.groups[out.group].vectors[out.vec],
                ValueVector::Empty,
            );
            let eg = &chunk.groups[edge.group];
            let sel = eg.sel.as_deref();
            let ReadState { col: col_cur, nbr, ids, offs, .. } = rd;
            let filled = match &eg.vectors[edge.vec] {
                ValueVector::EdgeList { label, dir, from, start } => {
                    // The access path is resolved once per list, never per
                    // element: the indexed direction is one range read of
                    // the property column; every other layout resolves the
                    // list's flat indexes block-wise and gathers.
                    let read = g.edge_prop_read(*label, *dir, *prop)?;
                    let idx = match read {
                        EdgePropRead::ByPosition(_) => Idx::Run(*start),
                        _ => {
                            let csr = g.adj(*label, *dir).as_csr().ok_or_else(csr_missing)?;
                            offs.clear();
                            read.resolve_list(
                                csr,
                                *from,
                                *start..*start + n as u64,
                                ids,
                                nbr,
                                offs,
                            )?;
                            Idx::At(offs)
                        }
                    };
                    fill_vector(read.column(), n, *dtype, reuse, sel, col_cur, idx)
                }
                ValueVector::EdgeRefs { label, dir, from, refs } => {
                    // Merged adjacency list: each element is a tagged edge
                    // reference (baseline CSR position or delta index),
                    // resolved value-at-a-time through the view.
                    let col = g.edge_prop_read(*label, *dir, *prop)?.column();
                    let (label, dir, from) = (*label, *dir, *from);
                    let mut vals: Vec<Value> = Vec::with_capacity(n);
                    for i in 0..n {
                        vals.push(if sel.is_none_or(|m| m[i]) {
                            view.edge_value(label, dir, from, refs[i], *prop)?
                        } else {
                            Value::Null
                        });
                    }
                    fill_vector_from_values(
                        n,
                        *dtype,
                        reuse,
                        sel,
                        |i| vals[i].clone(),
                        col.dictionary(),
                        view.edge_str_ext(label, dir, *prop),
                    )?
                }
                ValueVector::SingleEdge { label, dir, from_vec, nbr_vec, tags } => {
                    let read = g.edge_prop_read(*label, *dir, *prop)?;
                    if let Some(tags) = tags {
                        // Dirty path: tagged references recorded by
                        // `ColumnExtend` resolve through the view.
                        let from_idx = node_idx(&eg.vectors[*from_vec], g, n, nbr, offs)?;
                        let mut vals: Vec<Value> = Vec::with_capacity(n);
                        for i in 0..n {
                            vals.push(if sel.is_none_or(|m| m[i]) {
                                view.edge_value(*label, *dir, from_idx.at(i), tags[i], *prop)?
                            } else {
                                Value::Null
                            });
                        }
                        fill_vector_from_values(
                            n,
                            *dtype,
                            reuse,
                            sel,
                            |i| vals[i].clone(),
                            read.column().dictionary(),
                            view.edge_str_ext(*label, *dir, *prop),
                        )?
                    } else {
                        let EdgePropRead::ByVertex { col, endpoint_is_nbr } = read else {
                            return Err(Error::Exec(
                                "single-cardinality edge must read props via vertex columns".into(),
                            ));
                        };
                        let src_vec = if endpoint_is_nbr { *nbr_vec } else { *from_vec };
                        let idx = node_idx(&eg.vectors[src_vec], g, n, nbr, offs)?;
                        fill_vector(col, n, *dtype, reuse, sel, col_cur, idx)
                    }
                }
                _ => return Err(Error::Exec("edge property read on non-edge vector".into())),
            };
            chunk.groups[out.group].vectors[out.vec] = filled;
            Ok(true)
        }
        Op::Filter { pred, mask } => loop {
            if !pull(children, view, chunk)? {
                return Ok(false);
            }
            // Find the unflat group among the predicate's inputs.
            let mut target: Option<usize> = None;
            let mut multi = false;
            for r in pred.vec_refs() {
                if !chunk.groups[r.group].is_flat() {
                    if target.is_some() && target != Some(r.group) {
                        multi = true;
                    }
                    target = Some(r.group);
                }
            }
            if multi {
                return Err(Error::Exec(
                    "filter spans two unflat list groups; the planner must flatten one first"
                        .into(),
                ));
            }
            match target {
                None => {
                    // All operands flat: keep/drop the single current tuple.
                    let ctx = EvalCtx { chunk, target: usize::MAX, pos: 0 };
                    if pred.holds(&ctx) {
                        return Ok(true);
                    }
                }
                Some(tg) => {
                    let len = chunk.groups[tg].len;
                    mask.clear();
                    for p in 0..len {
                        let keep = chunk.groups[tg].selected(p)
                            && pred.holds(&EvalCtx { chunk, target: tg, pos: p });
                        mask.push(keep);
                    }
                    let group = &mut chunk.groups[tg];
                    group.and_mask(mask);
                    if group.sel_count > 0 {
                        return Ok(true);
                    }
                }
            }
        },
    }
}

/// The `(vals, valid)` buffers of `reuse`, emptied, when it is the wanted
/// variant (the block's previous fill handed back — take buffer, fill,
/// return buffer); fresh ones otherwise. Either way with room for the
/// `n` values of the block, so a fill never grows them push by push.
macro_rules! take_bufs {
    ($reuse:expr, $variant:ident, $n:expr) => {
        match $reuse {
            ValueVector::$variant { mut vals, mut valid, .. } => {
                vals.clear();
                valid.clear();
                vals.reserve($n);
                valid.reserve($n);
                (vals, valid)
            }
            _ => (Vec::with_capacity($n), Vec::with_capacity($n)),
        }
    };
}

/// Vectorized read of `col` at the `n` positions of `idx` into a typed
/// block, reusing `reuse`'s allocation when the shapes match. String
/// columns stay dictionary-encoded ([`ValueVector::Code`]); decoding is
/// deferred to the sink (late materialization).
///
/// Block-at-a-time: the column's type, its NULL layout and whether its
/// values are resident or paged are matched once per block. A contiguous
/// run is one range read; a gather steps through `cur`, so a paged column
/// is pinned once per page the block walks, not once per value.
///
/// Selection-aware: positions unselected in `sel` are filled with a NULL
/// placeholder *without probing the column* — nothing downstream reads an
/// unselected position, so a selective pushed-down predicate makes every
/// later property read over the same group proportionally cheaper (and
/// never faults the pages a zone map proved skippable).
fn fill_vector(
    col: &Column,
    n: usize,
    dtype: DataType,
    reuse: ValueVector,
    sel: Option<&[bool]>,
    cur: &mut PageCursor,
    idx: Idx<'_>,
) -> ValueVector {
    match col.dtype() {
        DataType::Int64 | DataType::Date => {
            let (mut vals, mut valid) = take_bufs!(reuse, I64, n);
            fill_block(
                (n, sel, idx),
                cur,
                (&mut vals, &mut valid),
                |c, s, e, vals, valid| col.read_i64_range(c, s, e, vals, valid),
                |c, i| col.get_i64_with(c, i),
            );
            ValueVector::I64 { vals, valid, date: dtype == DataType::Date }
        }
        DataType::Float64 => {
            let (mut vals, mut valid) = take_bufs!(reuse, F64, n);
            fill_block(
                (n, sel, idx),
                cur,
                (&mut vals, &mut valid),
                |c, s, e, vals, valid| col.read_f64_range(c, s, e, vals, valid),
                |c, i| col.get_f64_with(c, i),
            );
            ValueVector::F64 { vals, valid }
        }
        DataType::Bool => {
            let (mut vals, mut valid) = take_bufs!(reuse, Bool, n);
            fill_block(
                (n, sel, idx),
                cur,
                (&mut vals, &mut valid),
                |c, s, e, vals, valid| col.read_bool_range(c, s, e, vals, valid),
                |c, i| col.get_bool_with(c, i),
            );
            ValueVector::Bool { vals, valid }
        }
        DataType::String => {
            let (mut vals, mut valid) = take_bufs!(reuse, Code, n);
            fill_block(
                (n, sel, idx),
                cur,
                (&mut vals, &mut valid),
                |c, s, e, vals, valid| col.read_code_range(c, s, e, vals, valid),
                |c, i| col.get_code_with(c, i),
            );
            ValueVector::Code { vals, valid }
        }
    }
}

/// One typed block fill: `range` for a fully selected contiguous run,
/// `get` per selected position otherwise.
fn fill_block<T: Copy + Default>(
    (n, sel, idx): (usize, Option<&[bool]>, Idx<'_>),
    cur: &mut PageCursor,
    (vals, valid): (&mut Vec<T>, &mut Vec<bool>),
    range: impl Fn(&mut PageCursor, usize, usize, &mut Vec<T>, &mut Vec<bool>),
    get: impl Fn(&mut PageCursor, usize) -> Option<T>,
) {
    if let (Idx::Run(start), None) = (idx, sel) {
        return range(cur, start as usize, start as usize + n, vals, valid);
    }
    for i in 0..n {
        let v = if sel.is_none_or(|m| m[i]) { get(cur, idx.at(i) as usize) } else { None };
        vals.push(v.unwrap_or_default());
        valid.push(v.is_some());
    }
}

/// [`fill_vector`] for the snapshot-overlay paths: values arrive as
/// [`Value`]s from the view instead of positional column reads. String
/// values re-encode through the baseline dictionary, falling back to the
/// delta's string extension for values the baseline never saw — so the
/// whole pipeline stays code-typed and the sink's late-materialization
/// decode works unchanged.
fn fill_vector_from_values(
    n: usize,
    dtype: DataType,
    reuse: ValueVector,
    sel: Option<&[bool]>,
    get: impl Fn(usize) -> Value,
    dict: Option<&Dictionary>,
    ext: Option<&StrExt>,
) -> Result<ValueVector> {
    let live = |i: usize| sel.is_none_or(|m| m[i]);
    Ok(match dtype {
        DataType::Int64 | DataType::Date => {
            let (mut vals, mut valid) = take_bufs!(reuse, I64, n);
            for i in 0..n {
                match if live(i) { get(i) } else { Value::Null } {
                    Value::Int64(v) | Value::Date(v) => {
                        vals.push(v);
                        valid.push(true);
                    }
                    _ => {
                        vals.push(0);
                        valid.push(false);
                    }
                }
            }
            ValueVector::I64 { vals, valid, date: dtype == DataType::Date }
        }
        DataType::Float64 => {
            let (mut vals, mut valid) = take_bufs!(reuse, F64, n);
            for i in 0..n {
                match if live(i) { get(i) } else { Value::Null } {
                    Value::Float64(v) => {
                        vals.push(v);
                        valid.push(true);
                    }
                    _ => {
                        vals.push(0.0);
                        valid.push(false);
                    }
                }
            }
            ValueVector::F64 { vals, valid }
        }
        DataType::Bool => {
            let (mut vals, mut valid) = take_bufs!(reuse, Bool, n);
            for i in 0..n {
                match if live(i) { get(i) } else { Value::Null } {
                    Value::Bool(v) => {
                        vals.push(v);
                        valid.push(true);
                    }
                    _ => {
                        vals.push(false);
                        valid.push(false);
                    }
                }
            }
            ValueVector::Bool { vals, valid }
        }
        DataType::String => {
            let (mut vals, mut valid) = take_bufs!(reuse, Code, n);
            for i in 0..n {
                match if live(i) { get(i) } else { Value::Null } {
                    Value::String(s) => {
                        let code = dict
                            .and_then(|d| d.code_of(&s))
                            .map(u64::from)
                            .or_else(|| ext.and_then(|e| e.code_of(&s)));
                        match code {
                            Some(c) => {
                                vals.push(c);
                                valid.push(true);
                            }
                            None => {
                                return Err(Error::Exec(format!(
                                    "string value {s:?} missing from both the baseline \
                                     dictionary and the delta string extension"
                                )))
                            }
                        }
                    }
                    _ => {
                        vals.push(0);
                        valid.push(false);
                    }
                }
            }
            ValueVector::Code { vals, valid }
        }
    })
}

/// Read position `idx` of a block as a [`Value`] (row materialization).
/// `sc` provides the dictionary (and any delta string extension) for
/// decoding string codes.
pub(crate) fn vector_value(v: &ValueVector, idx: usize, sc: SlotCol<'_>) -> Value {
    match v {
        ValueVector::I64 { vals, valid, date } => {
            if valid[idx] {
                if *date {
                    Value::Date(vals[idx])
                } else {
                    Value::Int64(vals[idx])
                }
            } else {
                Value::Null
            }
        }
        ValueVector::F64 { vals, valid } => {
            if valid[idx] {
                Value::Float64(vals[idx])
            } else {
                Value::Null
            }
        }
        ValueVector::Bool { vals, valid } => {
            if valid[idx] {
                Value::Bool(vals[idx])
            } else {
                Value::Null
            }
        }
        ValueVector::Code { vals, valid } => {
            if valid[idx] {
                Value::String(code_str(vals[idx], sc).to_owned())
            } else {
                Value::Null
            }
        }
        // lint: allow(callers pass property/node slots only; compile()
        // never wires an EdgeList vector into a value sink)
        _ => panic!("vector_value on non-scalar vector"),
    }
}

/// The string a dictionary code of slot `sc` stands for, borrowed from
/// the dictionary (or the delta string extension).
fn code_str<'g>(code: u64, sc: SlotCol<'g>) -> &'g str {
    // Code vectors are only compiled for String slots, whose columns are
    // dictionary-encoded by the slot-schema plan invariant.
    let dict = sc.col.and_then(Column::dictionary).expect("string slot has a dictionary"); // lint: allow(slot-schema invariant)
    if (code as usize) < dict.len() {
        dict.decode(code)
    } else {
        // lint: allow(codes past the dictionary are only produced under a
        // delta snapshot, which always wires the extension into the slot)
        let ext = sc.ext.expect("code beyond dictionary has a delta extension");
        ext.decode(code)
    }
}

/// `vector_value(v, idx, sc).total_cmp(other)` without materializing the
/// block's value: a string is compared as the dictionary's borrowed `&str`.
fn cmp_entry(v: &ValueVector, idx: usize, sc: SlotCol<'_>, other: &Value) -> std::cmp::Ordering {
    match (v, other) {
        (ValueVector::Code { vals, valid }, Value::String(s)) if valid[idx] => {
            code_str(vals[idx], sc).cmp(s.as_str())
        }
        // Strings rank above every other type.
        (ValueVector::Code { valid, .. }, _) if valid[idx] => std::cmp::Ordering::Greater,
        // Every other entry is a heap-free `Value`.
        _ => vector_value(v, idx, sc).total_cmp(other),
    }
}

/// A grouping-key entry of a block, comparable without decoding: the
/// integer, the float's bits, the bool or the dictionary code, `None` for
/// NULL. A slot's block type and dictionary are fixed for the pipeline, so
/// equal entries of one slot are equal values.
fn raw_entry(v: &ValueVector, idx: usize) -> Option<u64> {
    match v {
        ValueVector::I64 { vals, valid, .. } if valid[idx] => Some(vals[idx] as u64),
        ValueVector::F64 { vals, valid } if valid[idx] => Some(vals[idx].to_bits()),
        ValueVector::Bool { vals, valid } if valid[idx] => Some(vals[idx] as u64),
        ValueVector::Code { vals, valid } if valid[idx] => Some(vals[idx]),
        _ => None,
    }
}

/// One compiled operator pipeline plus the chunk it fills: the thread-
/// private execution state of one worker. Any number of pipelines can be
/// compiled from the same [`LogicalPlan`]; pipelines sharing a
/// [`ScanCursor`] partition the scan between them.
pub(crate) struct Pipeline<'g> {
    ops: Vec<Op<'g>>,
    pub(crate) chunk: Chunk,
    /// Vector location of each plan slot.
    pub(crate) slot_refs: Vec<VecRef>,
    /// Storage column (and any delta string extension) backing each slot
    /// (dictionary decode at the sink).
    pub(crate) slot_cols: Vec<SlotCol<'g>>,
}

impl<'g> Pipeline<'g> {
    /// Pull the next chunk state through the pipeline. `false` = drained.
    pub(crate) fn next_state(&mut self, view: GraphView<'_>) -> Result<bool> {
        pull(&mut self.ops, view, &mut self.chunk)
    }
}

/// Compile `plan` into a [`Pipeline`] whose scan pulls morsels from
/// `cursor` (physical compilation). The pipeline executes against `view`:
/// a clean view compiles to exactly the historical zero-copy operators,
/// while a delta-overlaid snapshot additionally arms the per-operator
/// dirty paths (`(baseline ⊎ delta) ∖ tombstones`). Parameters resolve
/// here, to `params[i]`, wherever constants become the seek key and the
/// compiled predicates' operands.
pub(crate) fn compile<'g>(
    view: GraphView<'g>,
    plan: &LogicalPlan,
    cursor: &'g ScanCursor<'g>,
    params: &[Value],
) -> Result<Pipeline<'g>> {
    let g = view.base();
    // The chunk's list groups: a scan group plus at most one per extend.
    let mut groups: Vec<ListGroup> = Vec::with_capacity(plan.edges.len() + 1);
    let mut node_locs: Vec<Option<VecRef>> = vec![None; plan.nodes.len()];
    // Each edge's descriptor, with the direction its Extend traversed it in.
    let mut edge_locs: Vec<Option<(VecRef, Direction)>> = vec![None; plan.edges.len()];
    let mut slot_refs: Vec<VecRef> = vec![VecRef { group: usize::MAX, vec: 0 }; plan.slots.len()];
    let mut slot_cols: Vec<SlotCol<'g>> = vec![SlotCol::default(); plan.slots.len()];
    let mut ops: Vec<Op<'g>> = Vec::with_capacity(plan.steps.len());

    for step in &plan.steps {
        match step {
            PlanStep::ScanAll { node, pushed } => {
                let label = plan.nodes[*node].label;
                groups.push(ListGroup::with_vectors(vec![ValueVector::Empty]));
                let out = VecRef { group: 0, vec: 0 };
                node_locs[*node] = Some(out);
                // Resolve each pushed predicate's slots straight to the
                // scanned label's property columns — no chunk vector is
                // ever involved.
                let scan_cols: Vec<SlotCol<'g>> = plan
                    .slots
                    .iter()
                    .map(|def| match def.source {
                        SlotSource::NodeProp { node: n, prop } if n == *node => SlotCol {
                            col: Some(g.vertex_prop(label, prop)),
                            ext: view.vertex_str_ext(label, prop),
                        },
                        _ => SlotCol::default(),
                    })
                    .collect();
                let compiled: Vec<ScanPred<'g>> = pushed
                    .iter()
                    .map(|e| compile_scan_pred(e, &plan.slots, &scan_cols, params))
                    .collect::<Result<_>>()?;
                // On a touched label, recompile the same predicates for
                // row-at-a-time evaluation through the view (delta-touched
                // blocks can't trust positional column reads).
                let touched = view.vertex_label_touched(label);
                let row_compiled: Vec<RowPred<'g>> = if touched {
                    let props: Vec<Option<usize>> = plan
                        .slots
                        .iter()
                        .map(|def| match def.source {
                            SlotSource::NodeProp { node: n, prop } if n == *node => Some(prop),
                            _ => None,
                        })
                        .collect();
                    pushed
                        .iter()
                        .map(|e| compile_row_pred(e, &plan.slots, &props, &scan_cols, params))
                        .collect::<Result<_>>()?
                } else {
                    Vec::new()
                };
                ops.push(Op::ScanAll {
                    label,
                    out,
                    cursor,
                    pushed: compiled,
                    row_pushed: row_compiled,
                    touched,
                    n_base: g.vertex_count(label) as u64,
                    mask: Vec::new(),
                    verdicts: Vec::new(),
                });
            }
            PlanStep::ScanPk { node, key } => {
                let label = plan.nodes[*node].label;
                groups.push(ListGroup::with_vectors(vec![ValueVector::Empty]));
                let out = VecRef { group: 0, vec: 0 };
                node_locs[*node] = Some(out);
                ops.push(Op::ScanPk { label, key: seek_key(key, params)?, out, cursor });
            }
            PlanStep::Extend { edge, edge_label, dir, from, to, .. } => {
                let from_ref =
                    node_locs[*from].ok_or_else(|| Error::Plan("unbound from".into()))?;
                let nbr_label = g.catalog().edge_label(*edge_label).nbr_label(*dir);
                let from_label = plan.nodes[*from].label;
                // Delta-inserted from-vertices have no adjacency entry, so
                // vertex insertions arm the dirty path even when no edge of
                // this label changed.
                let maybe_dirty = view.edge_label_touched(*edge_label, *dir)
                    || view.vertex_label_touched(from_label);
                match g.adj(*edge_label, *dir) {
                    AdjIndex::Csr(_) => {
                        let out_group = groups.len();
                        groups.push(ListGroup::with_vectors(vec![
                            ValueVector::Empty,
                            ValueVector::Empty,
                        ]));
                        node_locs[*to] = Some(VecRef { group: out_group, vec: 0 });
                        edge_locs[*edge] = Some((VecRef { group: out_group, vec: 1 }, *dir));
                        ops.push(Op::ListExtend {
                            label: *edge_label,
                            dir: *dir,
                            nbr_label,
                            from: from_ref,
                            out_group,
                            maybe_dirty,
                            from_count: g.vertex_count(from_label) as u64,
                            active: false,
                            owns_iter: false,
                            pos: -1,
                            single_shot_done: false,
                            rd: ReadState::default(),
                        });
                    }
                    AdjIndex::SingleCard(_) => {
                        let gidx = from_ref.group;
                        let vectors = &mut groups[gidx].vectors;
                        let nv = vectors.len();
                        vectors.push(ValueVector::Empty);
                        let ev = vectors.len();
                        vectors.push(ValueVector::SingleEdge {
                            label: *edge_label,
                            dir: *dir,
                            from_vec: from_ref.vec,
                            nbr_vec: nv,
                            tags: None,
                        });
                        node_locs[*to] = Some(VecRef { group: gidx, vec: nv });
                        edge_locs[*edge] = Some((VecRef { group: gidx, vec: ev }, *dir));
                        ops.push(Op::ColumnExtend {
                            label: *edge_label,
                            dir: *dir,
                            nbr_label,
                            from: from_ref,
                            node_out: VecRef { group: gidx, vec: nv },
                            edge_out: VecRef { group: gidx, vec: ev },
                            maybe_dirty,
                            rd: ReadState::default(),
                        });
                    }
                }
            }
            PlanStep::NodeProp { node, prop, slot } => {
                let nref = node_locs[*node].ok_or_else(|| Error::Plan("unbound node".into()))?;
                let label = plan.nodes[*node].label;
                let out = VecRef { group: nref.group, vec: groups[nref.group].vectors.len() };
                groups[nref.group].vectors.push(ValueVector::Empty);
                slot_refs[*slot] = out;
                slot_cols[*slot] = SlotCol {
                    col: Some(g.vertex_prop(label, *prop)),
                    ext: view.vertex_str_ext(label, *prop),
                };
                let def = &plan.slots[*slot];
                ops.push(Op::ReadNodeProp {
                    node: nref,
                    out,
                    label,
                    prop: *prop,
                    dtype: def.dtype,
                    touched: view.vertex_label_touched(label),
                    rd: ReadState::default(),
                });
            }
            PlanStep::EdgeProp { edge, prop, slot } => {
                // The edge's property is read in the direction its Extend
                // traversed it.
                let (eref, dir) =
                    edge_locs[*edge].ok_or_else(|| Error::Plan("unbound edge".into()))?;
                let elabel = plan.edges[*edge].label;
                let col = g.edge_prop_read(elabel, dir, *prop)?.column();
                let out = VecRef { group: eref.group, vec: groups[eref.group].vectors.len() };
                groups[eref.group].vectors.push(ValueVector::Empty);
                slot_refs[*slot] = out;
                slot_cols[*slot] =
                    SlotCol { col: Some(col), ext: view.edge_str_ext(elabel, dir, *prop) };
                let def = &plan.slots[*slot];
                ops.push(Op::ReadEdgeProp {
                    edge: eref,
                    out,
                    prop: *prop,
                    dtype: def.dtype,
                    rd: ReadState::default(),
                });
            }
            PlanStep::Filter { expr } => {
                let pred = compile_pred(expr, &plan.slots, &slot_refs, &slot_cols, params)?;
                ops.push(Op::Filter { pred, mask: Vec::new() });
            }
        }
    }

    Ok(Pipeline { ops, chunk: Chunk { groups, morsel: 0 }, slot_refs, slot_cols })
}

/// Enumerate the Cartesian product of the chunk's groups, materializing
/// `width` columns for each represented tuple — column `c` is the slot
/// `col(c)` locates — and decoding string codes through their columns'
/// dictionaries (late materialization). `rows` grows once per state, by
/// exactly the state's tuple count.
pub(crate) fn enumerate_rows<'c>(
    chunk: &Chunk,
    width: usize,
    col: impl Fn(usize) -> (VecRef, SlotCol<'c>),
    combos: &mut Combos,
    rows: &mut Vec<Vec<Value>>,
) {
    rows.reserve(usize::try_from(chunk.tuple_count()).unwrap_or(0));
    combos.for_each(chunk, None, |pos| {
        rows.push(
            (0..width)
                .map(|c| {
                    let (r, sc) = col(c);
                    vector_value(&chunk.groups[r.group].vectors[r.vec], pos[r.group], sc)
                })
                .collect(),
        );
    });
}

/// Scratch for enumerating a chunk state's Cartesian product: the current
/// position of every enumerated group, then the first selected position
/// each wraps back to. A sink owns one and reuses it for every state, so
/// enumeration allocates nothing per state.
#[derive(Default)]
pub(crate) struct Combos {
    buf: Vec<usize>,
}

impl Combos {
    /// Call `f` with the current position of each of `groups` (`None`: of
    /// every group of the chunk, in order) for every combination of their
    /// selected positions, in odometer order — the last group fastest. A
    /// flat group contributes its `cur_idx`. With no groups `f` runs once;
    /// when a listed group has no selected position, never.
    pub(crate) fn for_each(
        &mut self,
        chunk: &Chunk,
        groups: Option<&[usize]>,
        mut f: impl FnMut(&[usize]),
    ) {
        let n = groups.map_or(chunk.groups.len(), <[usize]>::len);
        let group = |i: usize| &chunk.groups[groups.map_or(i, |gs| gs[i])];
        self.buf.clear();
        for i in 0..n {
            match next_selected(group(i), None) {
                Some(p) => self.buf.push(p),
                None => return,
            }
        }
        self.buf.extend_from_within(..);
        let (pos, first) = self.buf.split_at_mut(n);
        loop {
            f(pos);
            let mut i = n;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                match next_selected(group(i), Some(pos[i])) {
                    Some(p) => {
                        pos[i] = p;
                        break;
                    }
                    None => pos[i] = first[i],
                }
            }
        }
    }
}

/// The first selected position of `gr` after `after` (from its start when
/// `None`). A flat group has exactly one position: its `cur_idx`.
fn next_selected(gr: &ListGroup, after: Option<usize>) -> Option<usize> {
    if gr.is_flat() {
        return if after.is_none() { usize::try_from(gr.cur_idx).ok() } else { None };
    }
    let from = after.map_or(0, |p| p + 1);
    (from..gr.len).find(|&i| gr.selected(i))
}

// ---- Aggregation sinks over factorized chunk states ------------------------
//
// The Section 6.2 trick generalized: a chunk state represents the Cartesian
// product of its list groups, so any aggregate that is a sum over tuples can
// be computed per *position* with a multiplicity — the product of the other
// groups' contributions — instead of per tuple. The grouped sinks below
// enumerate only the positions of the groups holding *grouping keys*
// (usually flat by the time the sink runs); the groups holding aggregated
// extension lists are folded value-by-value with their multiplicity and are
// **never** flattened into tuples.

/// Grouped-aggregation sink: flattens only the grouping keys, folding every
/// other list group into the per-group [`AggState`]s by multiplicity.
///
/// Consecutive key combinations almost always carry the *same* key values
/// (the flattened scan side advances one position per many downstream
/// states), so the sink accumulates the current key's states in a run
/// cache and touches the group table only on key changes — one table probe
/// per key run instead of one per chunk state. The cache compares keys as
/// raw block entries ([`raw_entry`]) and decodes a key to [`Value`]s once,
/// when its run starts.
pub(crate) struct GroupBySink<'g> {
    shape: GroupShape<'g>,
    table: GroupTable,
    run: KeyRun,
    combos: Combos,
}

/// Where a grouped sink's inputs live in the chunk (fixed at compile).
struct GroupShape<'g> {
    /// Key slot locations + backing columns (string decode at the sink).
    key_refs: Vec<(VecRef, SlotCol<'g>)>,
    /// Aggregate input locations (`None` = `COUNT(*)`).
    agg_refs: Vec<Option<(VecRef, SlotCol<'g>)>>,
    /// Distinct groups the keys live in, sorted (the only groups whose
    /// positions the sink ever enumerates).
    key_groups: Vec<usize>,
    aggs: Vec<PlanAgg>,
}

/// The run cache: the states accumulated for one key since it was last
/// seen changing.
#[derive(Default)]
struct KeyRun {
    /// Raw entries of the run's key.
    raw: Vec<Option<u64>>,
    /// The run's key, decoded when the run started; `None` = no run.
    key: Option<Vec<Value>>,
    states: Vec<AggState>,
    /// Heap growth of the run not yet folded into the table's estimate
    /// (flushed together with the run itself).
    bytes: u64,
    /// Scratch: the dictionary codes of one list (`COUNT(DISTINCT)`).
    codes: Vec<u64>,
}

impl<'g> GroupBySink<'g> {
    pub(crate) fn new(pipe: &Pipeline<'g>, keys: &[usize], aggs: &[PlanAgg]) -> GroupBySink<'g> {
        let key_refs: Vec<_> =
            keys.iter().map(|&s| (pipe.slot_refs[s], pipe.slot_cols[s])).collect();
        let agg_refs: Vec<_> =
            aggs.iter().map(|a| a.slot.map(|s| (pipe.slot_refs[s], pipe.slot_cols[s]))).collect();
        let mut key_groups: Vec<usize> = key_refs.iter().map(|(r, _)| r.group).collect();
        key_groups.sort_unstable();
        key_groups.dedup();
        GroupBySink {
            shape: GroupShape { key_refs, agg_refs, key_groups, aggs: aggs.to_vec() },
            table: GroupTable::new(aggs),
            run: KeyRun::default(),
            combos: Combos::default(),
        }
    }

    /// The sink's current heap estimate (table plus pending run), polled
    /// by the driver after each absorbed state.
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.table.approx_bytes() + self.run.bytes
    }

    /// Fold one chunk state into the sink.
    pub(crate) fn absorb(&mut self, chunk: &Chunk) {
        let (shape, table, run) = (&self.shape, &mut self.table, &mut self.run);
        // Tuples per key combination contributed by the non-key groups.
        let mut mult_nonkey = 1u64;
        for (gi, gr) in chunk.groups.iter().enumerate() {
            let c = gr.contribution();
            if c == 0 {
                return; // the state represents no tuples
            }
            if !shape.key_groups.contains(&gi) {
                mult_nonkey *= c;
            }
        }
        if shape.key_groups.iter().all(|&g| chunk.groups[g].is_flat()) {
            // Every key group is flat: one key combination per state.
            run.fold(shape, table, chunk, mult_nonkey, |gi| {
                chunk.groups[gi].cur_idx.max(0) as usize
            });
            return;
        }
        // Some key group is still unflat: enumerate the key combinations
        // (and only those).
        self.combos.for_each(chunk, Some(&shape.key_groups), |pos| {
            // Position of a group: the combo position for key groups, the
            // flattened `cur_idx` otherwise (only used for flat groups).
            run.fold(shape, table, chunk, mult_nonkey, |gi| {
                match shape.key_groups.iter().position(|&k| k == gi) {
                    Some(i) => pos[i],
                    None => chunk.groups[gi].cur_idx.max(0) as usize,
                }
            });
        });
    }

    /// Flush the run cache and hand back the completed table.
    pub(crate) fn finish(mut self) -> GroupTable {
        self.run.flush(&mut self.table);
        self.table
    }
}

impl KeyRun {
    /// Fold the key combination whose key-group positions `pos_in`
    /// resolves into the run, first flushing the run into `table` if the
    /// combination's key differs from the run's.
    fn fold(
        &mut self,
        shape: &GroupShape<'_>,
        table: &mut GroupTable,
        chunk: &Chunk,
        mult_nonkey: u64,
        pos_in: impl Fn(usize) -> usize,
    ) {
        let entry = |r: &VecRef| (&chunk.groups[r.group].vectors[r.vec], pos_in(r.group));
        let same = self.key.is_some()
            && shape.key_refs.iter().zip(&self.raw).all(|((r, _), &raw)| {
                let (v, i) = entry(r);
                raw_entry(v, i) == raw
            });
        if !same {
            self.flush(table);
            self.raw.clear();
            let mut key = Vec::with_capacity(shape.key_refs.len());
            for (r, col) in &shape.key_refs {
                let (v, i) = entry(r);
                self.raw.push(raw_entry(v, i));
                key.push(vector_value(v, i, *col));
            }
            self.key = Some(key);
            self.states.extend(shape.aggs.iter().map(|a| AggState::new(a.func)));
        }
        for (state, input) in self.states.iter_mut().zip(&shape.agg_refs) {
            self.bytes += fold_agg(
                state,
                input,
                chunk,
                &shape.key_groups,
                mult_nonkey,
                &pos_in,
                &mut self.codes,
            );
        }
    }

    /// Merge the run into the table.
    fn flush(&mut self, table: &mut GroupTable) {
        if let Some(key) = self.key.take() {
            table.merge_group(key, &mut self.states);
        }
        table.add_bytes(self.bytes);
        self.bytes = 0;
    }
}

/// Fold one aggregate input of one key combination into `state`.
/// `pos_in` resolves the current position of a *key* group; `mult_nonkey`
/// is the tuple count contributed by all non-key groups; `codes` is
/// scratch. Returns the state's heap growth (see [`AggState::update`]) for
/// memory budgeting.
fn fold_agg(
    state: &mut AggState,
    input: &Option<(VecRef, SlotCol<'_>)>,
    chunk: &Chunk,
    key_groups: &[usize],
    mult_nonkey: u64,
    pos_in: impl Fn(usize) -> usize,
    codes: &mut Vec<u64>,
) -> u64 {
    let Some((r, col)) = input else {
        // COUNT(*): pure multiplicity arithmetic, no values read.
        state.add_count(mult_nonkey);
        return 0;
    };
    let vec = &chunk.groups[r.group].vectors[r.vec];
    if key_groups.contains(&r.group) {
        // The input sits in a key group: one value per combo, weighted by
        // the other groups.
        return state.update(&vector_value(vec, pos_in(r.group), *col), mult_nonkey);
    }
    // The input sits in an extension group: fold its selected values with
    // the multiplicity of every group but itself — never enumerating
    // tuples. (`absorb` returned early on a zero contribution.)
    let gr = &chunk.groups[r.group];
    let excl = mult_nonkey / gr.contribution();
    if gr.is_flat() {
        return state.update(&vector_value(vec, gr.cur_idx as usize, *col), excl);
    }
    match (matches!(state, AggState::Distinct(_)), vec) {
        // COUNT(DISTINCT) over dictionary codes: deduplicate the list's
        // codes, then decode each distinct code once.
        (true, ValueVector::Code { vals, valid }) => {
            codes.clear();
            codes.extend(gr.iter_selected().filter(|&i| valid[i]).map(|i| vals[i]));
            codes.sort_unstable();
            codes.dedup();
            codes
                .iter()
                .map(|&c| state.update(&Value::String(code_str(c, *col).to_owned()), excl))
                .sum()
        }
        _ => gr.iter_selected().map(|i| state.update(&vector_value(vec, i, *col), excl)).sum(),
    }
}

/// Top-k sink for ordered/limited projections.
///
/// Under `LIMIT k` it keeps a bounded max-heap of at most `k` rows under
/// [`cmp_rows`], the worst kept row on top. Each candidate is compared
/// with that top straight from the chunk vectors ([`cmp_entry`]), so a row
/// that would not displace it costs one comparison and allocates nothing;
/// only rows entering the heap are materialized. A worker therefore holds
/// O(k) rows whatever the result size, which is safe because the top-k of
/// a union is the top-k of the per-worker top-ks. Without a `LIMIT` every
/// row is kept; the driver's finish sorts them.
pub(crate) struct TopKSink<'g> {
    refs: Vec<(VecRef, SlotCol<'g>)>,
    /// Distinct groups referenced by the projection, sorted.
    ref_groups: Vec<usize>,
    /// Per projected column: the index of its group in `ref_groups`.
    ref_pos: Vec<usize>,
    order_by: Vec<(usize, bool)>,
    limit: Option<usize>,
    /// The kept rows: a heap under a limit, arrival order otherwise.
    pub(crate) rows: Vec<Vec<Value>>,
    /// Heap estimate of `rows`, kept incrementally, polled by the driver
    /// for memory budgeting.
    pub(crate) bytes: u64,
    combos: Combos,
}

impl<'g> TopKSink<'g> {
    pub(crate) fn new(pipe: &Pipeline<'g>, plan: &LogicalPlan, slots: &[usize]) -> TopKSink<'g> {
        let refs: Vec<_> = slots.iter().map(|&s| (pipe.slot_refs[s], pipe.slot_cols[s])).collect();
        let mut ref_groups: Vec<usize> = refs.iter().map(|(r, _)| r.group).collect();
        ref_groups.sort_unstable();
        ref_groups.dedup();
        let ref_pos = refs
            .iter()
            .map(|(r, _)| ref_groups.iter().position(|&g| g == r.group).unwrap_or_default())
            .collect();
        TopKSink {
            refs,
            ref_groups,
            ref_pos,
            order_by: plan.order_by.clone(),
            limit: plan.limit,
            rows: Vec::new(),
            bytes: 0,
            combos: Combos::default(),
        }
    }

    pub(crate) fn absorb(&mut self, chunk: &Chunk) {
        let Some(k) = self.limit else {
            let before = self.rows.len();
            let refs = &self.refs;
            enumerate_rows(chunk, refs.len(), |c| refs[c], &mut self.combos, &mut self.rows);
            self.bytes +=
                self.rows[before..].iter().map(|r| crate::govern::row_bytes(r)).sum::<u64>();
            return;
        };
        if k == 0 {
            return;
        }
        // Unprojected groups repeat each projected combination `mult` times.
        let mut mult = 1u64;
        for (gi, gr) in chunk.groups.iter().enumerate() {
            let c = gr.contribution();
            if c == 0 {
                return;
            }
            if !self.ref_groups.contains(&gi) {
                mult = mult.saturating_mul(c);
            }
        }
        let (refs, ref_pos, order_by, heap, bytes) =
            (&self.refs, &self.ref_pos, &self.order_by, &mut self.rows, &mut self.bytes);
        self.combos.for_each(chunk, Some(&self.ref_groups), |pos| {
            let entry = |c: usize| {
                let (r, sc) = &refs[c];
                (&chunk.groups[r.group].vectors[r.vec], pos[ref_pos[c]], *sc)
            };
            if heap.len() == k && cmp_candidate(&heap[0], order_by, entry).is_ge() {
                return;
            }
            let row: Vec<Value> = (0..refs.len())
                .map(|c| {
                    let (v, i, sc) = entry(c);
                    vector_value(v, i, sc)
                })
                .collect();
            for _ in 0..mult {
                if heap.len() < k {
                    *bytes += crate::govern::row_bytes(&row);
                    heap.push(row.clone());
                    let last = heap.len() - 1;
                    sift_up(heap, last, order_by);
                } else if cmp_rows(&row, &heap[0], order_by).is_lt() {
                    *bytes = *bytes - crate::govern::row_bytes(&heap[0])
                        + crate::govern::row_bytes(&row);
                    heap[0] = row.clone();
                    sift_down(heap, 0, order_by);
                } else {
                    break;
                }
            }
        });
    }
}

/// [`cmp_rows`]`(candidate, kept, order_by)` with the candidate's column
/// `c` read in place through `entry(c)` — nothing is materialized.
fn cmp_candidate<'a>(
    kept: &[Value],
    order_by: &[(usize, bool)],
    entry: impl Fn(usize) -> (&'a ValueVector, usize, SlotCol<'a>),
) -> std::cmp::Ordering {
    for &(col, desc) in order_by {
        let (v, i, sc) = entry(col);
        let ord = cmp_entry(v, i, sc, &kept[col]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord.is_ne() {
            return ord;
        }
    }
    for (col, k) in kept.iter().enumerate() {
        let (v, i, sc) = entry(col);
        let ord = cmp_entry(v, i, sc, k);
        if ord.is_ne() {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// Restore the max-heap order under [`cmp_rows`] from position `i` up.
fn sift_up(heap: &mut [Vec<Value>], mut i: usize, order_by: &[(usize, bool)]) {
    while i > 0 {
        let parent = (i - 1) / 2;
        if cmp_rows(&heap[i], &heap[parent], order_by).is_le() {
            break;
        }
        heap.swap(i, parent);
        i = parent;
    }
}

/// Restore the max-heap order under [`cmp_rows`] from position `i` down.
fn sift_down(heap: &mut [Vec<Value>], mut i: usize, order_by: &[(usize, bool)]) {
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && cmp_rows(&heap[right], &heap[left], order_by).is_gt() {
            right
        } else {
            left
        };
        if cmp_rows(&heap[child], &heap[i], order_by).is_le() {
            return;
        }
        heap.swap(i, child);
        i = child;
    }
}

/// DISTINCT sink: deduplicates projection rows into a canonical-order set.
/// Factorization pays off here too — only the groups actually referenced by
/// the projection are enumerated, so `DISTINCT a.x` over a many-neighbour
/// extension never walks the neighbour lists of unprojected variables.
pub(crate) struct DistinctSink<'g> {
    refs: Vec<(VecRef, SlotCol<'g>)>,
    /// Distinct groups referenced by the projection, sorted.
    ref_groups: Vec<usize>,
    pub(crate) set: std::collections::HashSet<Vec<OrdValue>>,
    /// Heap estimate of `set`, grown on every fresh insertion, polled by
    /// the driver for memory budgeting.
    pub(crate) bytes: u64,
    combos: Combos,
}

impl<'g> DistinctSink<'g> {
    pub(crate) fn new(pipe: &Pipeline<'g>, slots: &[usize]) -> DistinctSink<'g> {
        let refs: Vec<_> = slots.iter().map(|&s| (pipe.slot_refs[s], pipe.slot_cols[s])).collect();
        let mut ref_groups: Vec<usize> = refs.iter().map(|(r, _)| r.group).collect();
        ref_groups.sort_unstable();
        ref_groups.dedup();
        DistinctSink {
            refs,
            ref_groups,
            set: std::collections::HashSet::new(),
            bytes: 0,
            combos: Combos::default(),
        }
    }

    pub(crate) fn absorb(&mut self, chunk: &Chunk) {
        if chunk.groups.iter().any(|gr| gr.contribution() == 0) {
            return;
        }
        let (refs, ref_groups, set) = (&self.refs, &self.ref_groups, &mut self.set);
        let mut grew = 0u64;
        self.combos.for_each(chunk, Some(ref_groups), |pos| {
            let row: Vec<OrdValue> = refs
                .iter()
                .map(|(r, col)| {
                    // lint: allow(ref_groups is built from these same refs
                    // in new(), so every r.group is present)
                    let i = pos[ref_groups.iter().position(|&g| g == r.group).expect("ref group")];
                    OrdValue(vector_value(&chunk.groups[r.group].vectors[r.vec], i, *col))
                })
                .collect();
            let row_heap: u64 = row.iter().map(|v| crate::govern::value_bytes(&v.0)).sum();
            if set.insert(row) {
                grew += row_heap + std::mem::size_of::<Vec<OrdValue>>() as u64;
            }
        });
        self.bytes += grew;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operators_stay_small() {
        // 160 bytes is what an operator took before operators carried page
        // cursors. `compile` allocates `len * size_of::<Op>()` per query:
        // a microsecond point read must not pay for paged-read state.
        assert!(std::mem::size_of::<Op<'_>>() <= 160, "{}", std::mem::size_of::<Op<'_>>());
    }

    #[test]
    fn cursor_hands_out_serial_morsel_sequence() {
        let c = ScanCursor::new(2500);
        assert_eq!(c.claim(SCAN_MORSEL as u64), Some((0, 1024)));
        assert_eq!(c.claim(SCAN_MORSEL as u64), Some((1024, 2048)));
        assert_eq!(c.claim(SCAN_MORSEL as u64), Some((2048, 2500)));
        assert_eq!(c.claim(SCAN_MORSEL as u64), None);
        assert_eq!(c.claim(SCAN_MORSEL as u64), None, "stays drained");
    }

    #[test]
    fn cursor_partitions_exactly_under_concurrency() {
        let total = 10_000u64;
        let c = ScanCursor::new(total);
        let ranges: Vec<(u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(r) = c.claim(64) {
                            got.push(r);
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut ranges = ranges;
        ranges.sort_unstable();
        // Disjoint, gap-free cover of [0, total).
        let mut expect = 0;
        for (s, e) in ranges {
            assert_eq!(s, expect);
            check_morsel_bounds(s, e, total).unwrap();
            expect = e;
        }
        assert_eq!(expect, total);
    }

    #[test]
    fn single_morsel_cursor_fires_once() {
        let c = ScanCursor::new(1);
        assert_eq!(c.claim(1), Some((0, 1)));
        assert_eq!(c.claim(1), None);
    }
}
