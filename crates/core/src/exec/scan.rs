//! The scans, `ops[0]` of every pipeline: `ScanAll` claims vertex morsels
//! from the shared [`ScanCursor`] and prunes them with the pushed-down
//! predicates; `ScanPk` seeks one vertex by its primary key.

use gfcl_common::{LabelId, Result};
use gfcl_storage::GraphView;

use super::ScanCursor;
use crate::chunk::{Chunk, NodeData, ValueVector, VecRef};
use crate::pred::{BlockVerdict, RowPred, ScanPred};

/// A scan of every vertex of a label, one claimed morsel per state.
pub(super) struct ScanAll<'g> {
    pub(super) label: LabelId,
    pub(super) out: VecRef,
    pub(super) cursor: &'g ScanCursor<'g>,
    /// Pushed-down predicates, compiled against the scanned label's
    /// property columns. The scan consults their zone maps per block
    /// (skipping morsels no row of which can match) and seeds the
    /// group's selection mask from the survivors — before any
    /// `ReadNodeProp` touches a column.
    pub(super) pushed: Vec<ScanPred<'g>>,
    /// The pushed predicates recompiled for row-at-a-time evaluation
    /// through the snapshot view — used only on morsels the delta
    /// touches, where positional column reads may be stale.
    pub(super) row_pushed: Vec<RowPred<'g>>,
    /// Does the snapshot's delta touch this label's vertices at all?
    /// `false` ⇒ the clean zone-map path is exact for every morsel.
    pub(super) touched: bool,
    /// Baseline vertex count; offsets at or past it are delta slots.
    pub(super) n_base: u64,
    /// Scratch selection mask, reused across morsels.
    pub(super) mask: Vec<bool>,
    /// Scratch per-predicate block verdicts, reused across blocks.
    pub(super) verdicts: Vec<BlockVerdict>,
}

impl ScanAll<'_> {
    /// Claim morsels until one has a surviving vertex and emit it as the
    /// scan group; `false` once the cursor is drained.
    pub(super) fn next(&mut self, view: GraphView<'_>, chunk: &mut Chunk) -> Result<bool> {
        let ScanAll { label, out, cursor, pushed, row_pushed, touched, n_base, mask, verdicts } =
            self;
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
            for p in row_pushed.iter() {
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
                    let pristine =
                        !*touched || (be <= *n_base && !view.base_range_touched(*label, bs, be));
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
                    let combined = verdicts.iter().fold(BlockVerdict::AllTrue, |v, p| v.and(*p));
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
