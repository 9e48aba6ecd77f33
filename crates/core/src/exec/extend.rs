//! The joins over adjacency: `ListExtend` for n-side edges (one CSR list
//! per source vertex, in a new list group) and `ColumnExtend` for
//! single-cardinality edges (a neighbour column, in the source's group).

use gfcl_common::{Direction, Error, LabelId, Result};
use gfcl_storage::{AdjIndex, GraphView, ReadCursors};

use super::read::{node_idx, ReadState};
use crate::chunk::{Chunk, NodeData, ValueVector, VecRef};

/// A `ColumnExtend` neighbour slot whose vertex has no edge of the label (no
/// vertex has this offset).
const NO_NBR: u64 = u64::MAX;

/// An n-side join over a CSR: flattens its source group (iterating its
/// selected positions across calls) and fills the output group with
/// **zero-copy views** of the current vertex's adjacency list.
pub(super) struct ListExtend {
    pub(super) label: LabelId,
    pub(super) dir: Direction,
    pub(super) nbr_label: LabelId,
    pub(super) from: VecRef,
    pub(super) out_group: usize,
    /// Does the snapshot's delta touch this adjacency (or insert
    /// vertices on the from side)? `false` ⇒ zero-copy CSR views.
    pub(super) maybe_dirty: bool,
    /// Baseline vertex count of the from-side label: offsets past it
    /// have no CSR entry and always take the merged path.
    pub(super) from_count: u64,
    /// A chunk state is held from the child and being iterated.
    pub(super) active: bool,
    /// This op flattens the source group (it arrived unflat).
    pub(super) owns_iter: bool,
    pub(super) pos: i64,
    pub(super) single_shot_done: bool,
    pub(super) rd: ReadState,
}

impl ListExtend {
    /// The next non-empty adjacency list of a selected source position,
    /// pulling a new state from `child` when the held one is exhausted.
    pub(super) fn next(
        &mut self,
        view: GraphView<'_>,
        chunk: &mut Chunk,
        mut child: impl FnMut(&mut Chunk) -> Result<bool>,
    ) -> Result<bool> {
        let g = view.base();
        let ListExtend {
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
        } = self;
        loop {
            if !*active {
                if !child(chunk)? {
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
            let src = chunk.groups[from.group].vectors[from.vec].node_offset(g, &mut rd.cur.nbr, i);
            if *maybe_dirty && (src >= *from_count || view.edge_list_dirty(*label, *dir, src)) {
                // The delta touches this list (or the source vertex is
                // delta-inserted and has no CSR entry): materialize the
                // merged adjacency with tagged edge references.
                let (nbrs, refs) = view.merged_adj(&mut rd.cur, *label, *dir, src);
                if nbrs.is_empty() {
                    continue;
                }
                let og = &mut chunk.groups[*out_group];
                og.reset(nbrs.len());
                og.vectors[0] =
                    ValueVector::Node { label: *nbr_label, data: NodeData::Owned(nbrs) };
                og.vectors[1] = ValueVector::EdgeRefs { label: *label, dir: *dir, from: src, refs };
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
            og.vectors[1] = ValueVector::EdgeList { label: *label, dir: *dir, from: src, start };
            return Ok(true);
        }
    }
}

/// A single-cardinality join via a vertex column: appends neighbour blocks
/// to the *same* group (no new factor is needed because each tuple extends
/// to at most one neighbour); missing edges unselect.
pub(super) struct ColumnExtend {
    pub(super) label: LabelId,
    pub(super) dir: Direction,
    pub(super) nbr_label: LabelId,
    pub(super) from: VecRef,
    pub(super) node_out: VecRef,
    /// Location of the `SingleEdge` descriptor vector (tag storage on
    /// the dirty path).
    pub(super) edge_out: VecRef,
    /// Does the snapshot's delta touch this adjacency?
    pub(super) maybe_dirty: bool,
    pub(super) rd: ReadState,
}

impl ColumnExtend {
    /// The child's next state with every tuple's neighbour appended,
    /// skipping states in which no tuple has one.
    pub(super) fn next(
        &mut self,
        view: GraphView<'_>,
        chunk: &mut Chunk,
        mut child: impl FnMut(&mut Chunk) -> Result<bool>,
    ) -> Result<bool> {
        let g = view.base();
        let ColumnExtend { label, dir, nbr_label, from, node_out, edge_out, maybe_dirty, rd } =
            self;
        loop {
            if !child(chunk)? {
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
            let from_vec = &chunk.groups[from.group].vectors[from.vec];
            if *maybe_dirty {
                // The delta touches this adjacency: resolve each tuple's
                // neighbour through the view and record tagged edge
                // references for downstream property reads.
                let cur = &mut rd.cur;
                let mut tags: Vec<u64> = Vec::with_capacity(n);
                for i in 0..n {
                    let src = from_vec.node_offset(g, &mut cur.nbr, i);
                    match view.single_nbr(cur, *label, *dir, src) {
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
                let ReadCursors { col, nbr, offs, .. } = &mut rd.cur;
                let from_idx = node_idx(from_vec, g, n, nbr, offs)?;
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
}
