//! Physical compilation: a [`LogicalPlan`]'s steps become a worker's
//! operator pipeline and the chunk it fills. The plan fixes the chunk
//! layout: each `Extend` lowers to the operator its `single` flag names,
//! and an adjacency stored the other way fails in that operator with
//! [`gfcl_common::Error::Exec`].

use gfcl_common::{Direction, Error, Result, Value};
use gfcl_storage::GraphView;

use super::extend::{ColumnExtend, ListExtend};
use super::filter::Filter;
use super::read::{ReadEdgeProp, ReadNodeProp, ReadState};
use super::scan::{ScanAll, ScanPk};
use super::{Op, Pipeline, ScanCursor};
use crate::chunk::{Chunk, ListGroup, ValueVector, VecRef};
use crate::plan::{seek_key, LogicalPlan, PlanStep, SlotSource};
use crate::pred::{compile_pred, compile_row_pred, compile_scan_pred, RowPred, ScanPred, SlotCol};

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
                ops.push(Op::ScanAll(ScanAll {
                    label,
                    out,
                    cursor,
                    pushed: compiled,
                    row_pushed: row_compiled,
                    touched,
                    n_base: g.vertex_count(label) as u64,
                    mask: Vec::new(),
                    verdicts: Vec::new(),
                }));
            }
            PlanStep::ScanPk { node, key } => {
                let label = plan.nodes[*node].label;
                groups.push(ListGroup::with_vectors(vec![ValueVector::Empty]));
                let out = VecRef { group: 0, vec: 0 };
                node_locs[*node] = Some(out);
                ops.push(Op::ScanPk(ScanPk { label, key: seek_key(key, params)?, out, cursor }));
            }
            PlanStep::Extend { edge, edge_label, dir, from, to, single, counted } => {
                let from_ref =
                    node_locs[*from].ok_or_else(|| Error::Plan("unbound from".into()))?;
                let nbr_label = g.catalog().edge_label(*edge_label).nbr_label(*dir);
                let from_label = plan.nodes[*from].label;
                // Delta-inserted from-vertices have no adjacency entry, so
                // vertex insertions arm the dirty path even when no edge of
                // this label changed.
                let maybe_dirty = view.edge_label_touched(*edge_label, *dir)
                    || view.vertex_label_touched(from_label);
                if !*single {
                    let out_group = groups.len();
                    groups.push(ListGroup::with_vectors(vec![
                        ValueVector::Empty,
                        ValueVector::Empty,
                    ]));
                    node_locs[*to] = Some(VecRef { group: out_group, vec: 0 });
                    edge_locs[*edge] = Some((VecRef { group: out_group, vec: 1 }, *dir));
                    ops.push(Op::ListExtend(ListExtend {
                        label: *edge_label,
                        dir: *dir,
                        nbr_label,
                        from: from_ref,
                        out_group,
                        maybe_dirty,
                        from_count: g.vertex_count(from_label) as u64,
                        counted: *counted,
                        active: false,
                        owns_iter: false,
                        pos: -1,
                        single_shot_done: false,
                        rd: ReadState::default(),
                    }));
                } else {
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
                    ops.push(Op::ColumnExtend(ColumnExtend {
                        label: *edge_label,
                        dir: *dir,
                        nbr_label,
                        from: from_ref,
                        node_out: VecRef { group: gidx, vec: nv },
                        edge_out: VecRef { group: gidx, vec: ev },
                        maybe_dirty,
                        rd: ReadState::default(),
                    }));
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
                ops.push(Op::ReadNodeProp(ReadNodeProp {
                    node: nref,
                    out,
                    label,
                    prop: *prop,
                    dtype: def.dtype,
                    touched: view.vertex_label_touched(label),
                    rd: ReadState::default(),
                }));
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
                ops.push(Op::ReadEdgeProp(ReadEdgeProp {
                    edge: eref,
                    out,
                    prop: *prop,
                    dtype: def.dtype,
                    rd: ReadState::default(),
                }));
            }
            PlanStep::Filter { expr } => {
                let pred = compile_pred(expr, &plan.slots, &slot_refs, &slot_cols, params)?;
                ops.push(Op::Filter(Filter { pred, mask: Vec::new() }));
            }
        }
    }

    Ok(Pipeline { ops, chunk: Chunk { groups, morsel: 0 }, slot_refs, slot_cols })
}
