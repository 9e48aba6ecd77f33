//! Vectorized property reads (Desideratum 1), a block at a time, and the
//! paged-read state every operator that touches storage carries.
//!
//! A contiguous run (a scan morsel, a list in its indexed direction) is one
//! range read of the column; anything else resolves its offsets block-wise
//! and gathers through the operator's page cursors — whether the bytes sit
//! in a `Vec` or in a buffer-pool frame is decided once per block, never per
//! value. Edge reads resolve through [`gfcl_storage::EdgePropRead`], so the
//! same operator exercises property pages, edge columns, and double-indexed
//! layouts.

use gfcl_columnar::{Column, Dictionary, PageCursor, UIntArray};
use gfcl_common::{DataType, Direction, Error, LabelId, Result, Value};
use gfcl_storage::{ColumnarGraph, EdgePropRead, GraphView, ReadCursors, StrExt};

use crate::chunk::{Chunk, NodeData, ValueVector, VecRef};

/// The paged-read state of one operator: the [`ReadCursors`] its reads
/// step through — the same bundle every other reader of the storage
/// owns — and the morsel they were last used under. A cursor keeps the
/// page it touched last pinned — that pin is the eviction guard for the
/// walk — and [`ReadState::enter`] drops all of them when the pipeline
/// moves on to another scan morsel, so a pin never outlives a morsel.
/// Over a resident graph the bundle costs an operator no allocation and
/// three words plus an empty scratch, which keeps `Op` — and the
/// allocation `compile` makes for the pipeline — as small as it was
/// before operators carried cursors (`operators_stay_small`).
#[derive(Default)]
pub(super) struct ReadState {
    /// The [`Chunk::morsel`] the cursors were last used under.
    morsel: u64,
    pub(super) cur: ReadCursors,
}

impl ReadState {
    pub(super) fn enter(&mut self, morsel: u64) {
        if self.morsel != morsel {
            self.morsel = morsel;
            self.cur.clear();
        }
    }
}

/// Where the `i`-th value of a block read lives in its column.
#[derive(Clone, Copy)]
pub(super) enum Idx<'a> {
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
    pub(super) fn at(&self, i: usize) -> u64 {
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
pub(super) fn node_idx<'a>(
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

/// A vertex property read over a node block of the chunk.
pub(super) struct ReadNodeProp {
    pub(super) node: VecRef,
    pub(super) out: VecRef,
    pub(super) label: LabelId,
    pub(super) prop: usize,
    pub(super) dtype: DataType,
    /// Does the snapshot's delta touch this label's vertices? `true` ⇒
    /// values resolve row-at-a-time through the view.
    pub(super) touched: bool,
    pub(super) rd: ReadState,
}

impl ReadNodeProp {
    /// The child's next state with the property block filled.
    pub(super) fn next(
        &mut self,
        view: GraphView<'_>,
        chunk: &mut Chunk,
        mut child: impl FnMut(&mut Chunk) -> Result<bool>,
    ) -> Result<bool> {
        if !child(chunk)? {
            return Ok(false);
        }
        let ReadNodeProp { node, out, label, prop, dtype, touched, rd } = self;
        let g = view.base();
        rd.enter(chunk.morsel);
        let n = chunk.groups[node.group].len;
        let col = g.vertex_prop(*label, *prop);
        let reuse =
            std::mem::replace(&mut chunk.groups[out.group].vectors[out.vec], ValueVector::Empty);
        let ng = &chunk.groups[node.group];
        let sel = ng.sel.as_deref();
        let ReadCursors { col: col_cur, nbr, offs, .. } = &mut rd.cur;
        let idx = node_idx(&ng.vectors[node.vec], g, n, nbr, offs)?;
        // Selection-aware either way: positions already unselected (by
        // a pushed scan predicate or an upstream filter) cost zero
        // column probes — nothing downstream ever reads them.
        let block = (n, *dtype, reuse, sel);
        let filled = if *touched {
            // The delta touches this label: every offset resolves
            // through the view (updated rows, delta slots, string
            // codes past the baseline dictionary).
            fill_vector_from_values(
                block,
                |i| Ok(view.vertex_value(col_cur, *label, idx.at(i), *prop)),
                col.dictionary(),
                view.vertex_str_ext(*label, *prop),
            )?
        } else {
            fill_vector(col, block, col_cur, idx)
        };
        chunk.groups[out.group].vectors[out.vec] = filled;
        Ok(true)
    }
}

/// An edge property read over an edge block of the chunk, in the direction
/// its extend traversed the edge.
pub(super) struct ReadEdgeProp {
    pub(super) edge: VecRef,
    pub(super) out: VecRef,
    pub(super) prop: usize,
    pub(super) dtype: DataType,
    pub(super) rd: ReadState,
}

impl ReadEdgeProp {
    /// The child's next state with the property block filled.
    pub(super) fn next(
        &mut self,
        view: GraphView<'_>,
        chunk: &mut Chunk,
        mut child: impl FnMut(&mut Chunk) -> Result<bool>,
    ) -> Result<bool> {
        if !child(chunk)? {
            return Ok(false);
        }
        let ReadEdgeProp { edge, out, prop, dtype, rd } = self;
        let g = view.base();
        rd.enter(chunk.morsel);
        let n = chunk.groups[edge.group].len;
        let reuse =
            std::mem::replace(&mut chunk.groups[out.group].vectors[out.vec], ValueVector::Empty);
        let eg = &chunk.groups[edge.group];
        let sel = eg.sel.as_deref();
        let block = (n, *dtype, reuse, sel);
        let filled = match &eg.vectors[edge.vec] {
            ValueVector::EdgeList { label, dir, from, start } => {
                // The access path is resolved once per list, never per
                // element: the indexed direction is one range read of
                // the property column; every other layout resolves the
                // list's flat indexes block-wise and gathers.
                let ReadCursors { col: col_cur, nbr, ids, offs } = &mut rd.cur;
                let read = g.edge_prop_read(*label, *dir, *prop)?;
                let idx = match read {
                    EdgePropRead::ByPosition(_) => Idx::Run(*start),
                    _ => {
                        let csr = g.adj(*label, *dir).as_csr().ok_or_else(csr_missing)?;
                        offs.clear();
                        read.resolve_list(csr, *from, *start..*start + n as u64, ids, nbr, offs)?;
                        Idx::At(offs)
                    }
                };
                fill_vector(read.column(), block, col_cur, idx)
            }
            ValueVector::SingleEdge { label, dir, from_vec, nbr_vec, tags: None } => {
                let EdgePropRead::ByVertex { col, endpoint_is_nbr } =
                    g.edge_prop_read(*label, *dir, *prop)?
                else {
                    return Err(Error::Exec(
                        "single-cardinality edge must read props via vertex columns".into(),
                    ));
                };
                let src_vec = if endpoint_is_nbr { *nbr_vec } else { *from_vec };
                let ReadCursors { col: col_cur, nbr, offs, .. } = &mut rd.cur;
                let idx = node_idx(&eg.vectors[src_vec], g, n, nbr, offs)?;
                fill_vector(col, block, col_cur, idx)
            }
            // The dirty paths: tagged edge references — a merged list's,
            // or the ones `ColumnExtend` recorded — resolve
            // value-at-a-time through the view and the operator's cursors,
            // from the list's source vertex or from each tuple's own.
            ValueVector::EdgeRefs { label, dir, from, refs } => {
                edge_values(view, &mut rd.cur, (*label, *dir, *prop), block, |_, _| *from, refs)?
            }
            ValueVector::SingleEdge { label, dir, from_vec, tags: Some(tags), .. } => {
                let from = &eg.vectors[*from_vec];
                let from = |cur: &mut ReadCursors, i| from.node_offset(g, &mut cur.nbr, i);
                edge_values(view, &mut rd.cur, (*label, *dir, *prop), block, from, tags)?
            }
            _ => return Err(Error::Exec("edge property read on non-edge vector".into())),
        };
        chunk.groups[out.group].vectors[out.vec] = filled;
        Ok(true)
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

/// The `(n, dtype, reuse, sel)` of a block being filled: its length, its
/// value type, the previous fill's buffers and its selection.
type Block<'a> = (usize, DataType, ValueVector, Option<&'a [bool]>);

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
    (n, dtype, reuse, sel): Block<'_>,
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

/// [`fill_vector_from_values`] over tagged edge references: the `i`-th
/// value is edge `tags[i]` of `(label, dir)`, traversed from `from(cur, i)`,
/// both read through `cur`.
fn edge_values(
    view: GraphView<'_>,
    cur: &mut ReadCursors,
    (label, dir, prop): (LabelId, Direction, usize),
    block: Block<'_>,
    from: impl Fn(&mut ReadCursors, usize) -> u64,
    tags: &[u64],
) -> Result<ValueVector> {
    let col = view.base().edge_prop_read(label, dir, prop)?.column();
    fill_vector_from_values(
        block,
        |i| {
            let from = from(cur, i);
            view.edge_value(cur, label, dir, from, tags[i], prop)
        },
        col.dictionary(),
        view.edge_str_ext(label, dir, prop),
    )
}

/// [`fill_vector`] for the snapshot-overlay paths: values arrive as
/// [`Value`]s from the view (`get`, which may fail) instead of positional
/// column reads. String values re-encode through the baseline dictionary,
/// falling back to the delta's string extension for values the baseline
/// never saw — so the whole pipeline stays code-typed and the sink's
/// late-materialization decode works unchanged.
fn fill_vector_from_values(
    (n, dtype, reuse, sel): Block<'_>,
    mut get: impl FnMut(usize) -> Result<Value>,
    dict: Option<&Dictionary>,
    ext: Option<&StrExt>,
) -> Result<ValueVector> {
    let fill = (n, sel, &mut get);
    Ok(match dtype {
        DataType::Int64 | DataType::Date => {
            let (vals, valid) = fill_values(fill, take_bufs!(reuse, I64, n), |v| Ok(v.as_i64()))?;
            ValueVector::I64 { vals, valid, date: dtype == DataType::Date }
        }
        DataType::Float64 => {
            let typed = |v| Ok(if let Value::Float64(x) = v { Some(x) } else { None });
            let (vals, valid) = fill_values(fill, take_bufs!(reuse, F64, n), typed)?;
            ValueVector::F64 { vals, valid }
        }
        DataType::Bool => {
            let (vals, valid) = fill_values(fill, take_bufs!(reuse, Bool, n), |v| Ok(v.as_bool()))?;
            ValueVector::Bool { vals, valid }
        }
        DataType::String => {
            let (vals, valid) = fill_values(fill, take_bufs!(reuse, Code, n), |v| {
                let Value::String(s) = v else { return Ok(None) };
                dict.and_then(|d| d.code_of(&s))
                    .map(u64::from)
                    .or_else(|| ext.and_then(|e| e.code_of(&s)))
                    .map(Some)
                    .ok_or_else(|| {
                        Error::Exec(format!(
                            "string value {s:?} missing from both the baseline dictionary and \
                             the delta string extension"
                        ))
                    })
            })?;
            ValueVector::Code { vals, valid }
        }
    })
}

/// One typed overlay fill into the buffers `(vals, valid)`: `typed` keeps
/// the value `get` returns for a selected position when it has the block's
/// type (`None`: NULL).
fn fill_values<T: Default>(
    (n, sel, get): (usize, Option<&[bool]>, &mut impl FnMut(usize) -> Result<Value>),
    (mut vals, mut valid): (Vec<T>, Vec<bool>),
    typed: impl Fn(Value) -> Result<Option<T>>,
) -> Result<(Vec<T>, Vec<bool>)> {
    for i in 0..n {
        let v = if sel.is_none_or(|m| m[i]) { typed(get(i)?)? } else { None };
        valid.push(v.is_some());
        vals.push(v.unwrap_or_default());
    }
    Ok((vals, valid))
}
