//! The scans, `ops[0]` of every pipeline: `ScanAll` claims vertex morsels
//! from the shared [`ScanCursor`] and prunes them with the pushed-down
//! predicates; `ScanPk` seeks one vertex by its primary key.

use gfcl_columnar::{Column, ZONE_BLOCK};
use gfcl_common::{LabelId, Result};
use gfcl_storage::GraphView;

use super::read::{fill_vector, fill_vector_from_values, Idx, ReadState};
use super::ScanCursor;
use crate::chunk::{Chunk, ListGroup, NodeData, ValueVector, VecRef};
use crate::pred::{BlockVerdict, CPred};

/// A scan of every vertex of a label, one claimed morsel per state.
pub(super) struct ScanAll<'g> {
    pub(super) label: LabelId,
    pub(super) out: VecRef,
    pub(super) cursor: &'g ScanCursor<'g>,
    /// The pushed-down predicates, when the plan pushed any: they seed the
    /// group's selection mask before any `ReadNodeProp` touches a column.
    pub(super) pushed: Option<Box<Pushed<'g>>>,
    /// Does the snapshot's delta touch this label's vertices at all?
    /// `false` ⇒ every block is baseline rows the columns tell the truth
    /// about.
    pub(super) touched: bool,
    /// Baseline vertex count; offsets at or past it are delta slots.
    pub(super) n_base: u64,
    /// Scratch selection mask, reused across morsels.
    pub(super) mask: Vec<bool>,
}

/// A scan's pushed-down predicates and the operand block they evaluate
/// over: operand `k` — the `k`-th distinct slot they read — is vector `k`
/// of `block`, filled from property `props[k]`, whose column is `cols[k]`.
pub(super) struct Pushed<'g> {
    pub(super) preds: Vec<CPred>,
    pub(super) props: Vec<usize>,
    /// Read a block at a time, and consulted for zone-map verdicts.
    pub(super) cols: Vec<&'g Column>,
    pub(super) block: ListGroup,
    /// Scratch per-predicate verdicts of the block being evaluated.
    pub(super) verdicts: Vec<BlockVerdict>,
    pub(super) rd: ReadState,
}

impl ScanAll<'_> {
    /// Claim morsels until one has a surviving vertex and emit it as the
    /// scan group; `false` once the cursor is drained.
    pub(super) fn next(&mut self, view: GraphView<'_>, chunk: &mut Chunk) -> Result<bool> {
        let ScanAll { label, out, cursor, pushed, touched, n_base, mask } = self;
        loop {
            let Some((start, end)) = cursor.claim(cursor.morsel()) else {
                return Ok(false);
            };
            // Morsel-boundary fault-domain check: a canceled/over-budget
            // query stops here even when zone maps prune every morsel
            // (the `continue` below never reaches the driver loop).
            cursor.checkpoint()?;
            // A new morsel: every operator, the pushed predicates' reads
            // included, drops its page cursors when it sees the bumped
            // sequence number.
            chunk.morsel += 1;
            let n = (end - start) as usize;
            // Select the morsel's rows one zone block at a time. A morsel
            // with no survivor is skipped without ever materializing its
            // chunk state.
            let mut all_selected = true;
            if *touched || pushed.is_some() {
                mask.clear();
                mask.resize(n, false);
                let zb = ZONE_BLOCK as u64;
                let mut bs = start;
                while bs < end {
                    let be = ((bs / zb + 1) * zb).min(end);
                    // Baseline rows no tombstone or update touches: the
                    // columns and their zone maps tell the truth.
                    let pristine =
                        !*touched || (be <= *n_base && !view.base_range_touched(*label, bs, be));
                    // lint: allow(bs/be lie in [start, end] and
                    // mask.len() == end - start by construction)
                    let rows = &mut mask[(bs - start) as usize..(be - start) as usize];
                    for (v, keep) in (bs..be).zip(rows.iter_mut()) {
                        *keep = pristine || view.vertex_live(*label, v);
                    }
                    if let Some(p) = pushed {
                        p.select(view, *label, (bs, be), pristine, chunk.morsel, rows)?;
                    }
                    bs = be;
                }
                if !mask.contains(&true) {
                    continue; // the whole morsel is pruned
                }
                all_selected = !mask.contains(&false);
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
}

impl Pushed<'_> {
    /// AND the predicates into `rows`, the selection of the vertices
    /// `[bs, be)` of `label` (one zone block or part of one). A pristine
    /// block takes the zone maps' verdict, and only a Mixed one is read,
    /// each operand with one range read of its column; any other block is
    /// read through `view`, its selected rows only. Either way only the
    /// predicates the zone map left open are evaluated.
    fn select(
        &mut self,
        view: GraphView<'_>,
        label: LabelId,
        (bs, be): (u64, u64),
        pristine: bool,
        morsel: u64,
        rows: &mut [bool],
    ) -> Result<()> {
        let Pushed { preds, props, cols, block, verdicts, rd } = self;
        verdicts.clear();
        if pristine {
            let b = (bs / ZONE_BLOCK as u64) as usize;
            verdicts.extend(preds.iter().map(|p| p.prune(cols, b)));
            match verdicts.iter().fold(BlockVerdict::AllTrue, |v, p| v.and(*p)) {
                BlockVerdict::AllTrue => return Ok(()),
                BlockVerdict::AllFalse => {
                    // The zone map proved no row needs reading: the block's
                    // pages are never faulted. Credit the skip to the pool's
                    // I/O accounting.
                    rows.fill(false);
                    for p in preds.iter() {
                        p.for_each_operand(&mut |r| {
                            cols[r.vec].note_skipped_rows(bs as usize, be as usize);
                        });
                    }
                    return Ok(());
                }
                BlockVerdict::Mixed => {}
            }
        } else {
            verdicts.resize(preds.len(), BlockVerdict::Mixed);
        }
        rd.enter(morsel);
        let cur = &mut rd.cur.col;
        let n = rows.len();
        for ((vector, col), &prop) in block.vectors.iter_mut().zip(cols.iter()).zip(props.iter()) {
            let reuse = std::mem::replace(vector, ValueVector::Empty);
            *vector = if pristine {
                fill_vector(col, (n, col.dtype(), reuse, None), cur, Idx::Run(bs))
            } else {
                fill_vector_from_values(
                    (n, col.dtype(), reuse, Some(&*rows)),
                    |i| Ok(view.vertex_value(cur, label, bs + i as u64, prop)),
                    col.dictionary(),
                    view.vertex_str_ext(label, prop),
                )?
            };
        }
        let groups = std::slice::from_ref(&*block);
        for (p, _) in preds.iter().zip(verdicts.iter()).filter(|(_, &v)| v != BlockVerdict::AllTrue)
        {
            p.select(groups, 0, rows);
        }
        Ok(())
    }
}

/// A primary-key seek: the one vertex whose key is `key`, as one state.
pub(super) struct ScanPk<'g> {
    pub(super) label: LabelId,
    pub(super) key: i64,
    pub(super) out: VecRef,
    pub(super) cursor: &'g ScanCursor<'g>,
}

impl ScanPk<'_> {
    /// The seeked vertex on the first call (the cursor's single morsel);
    /// `false` after it, or when no live vertex has the key.
    pub(super) fn next(&mut self, view: GraphView<'_>, chunk: &mut Chunk) -> Result<bool> {
        if self.cursor.claim(1).is_none() {
            return Ok(false);
        }
        match view.lookup_pk(self.label, self.key) {
            Some(off) => {
                // The seeked vertex is a run of one offset: nothing to
                // allocate, and a property read over it is a range read.
                let group = &mut chunk.groups[self.out.group];
                group.reset(1);
                group.vectors[self.out.vec] =
                    ValueVector::Node { label: self.label, data: NodeData::Range { start: off } };
                Ok(true)
            }
            None => Ok(false),
        }
    }
}
