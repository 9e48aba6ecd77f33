//! Physical compilation, in two halves.
//!
//! * A [`Layout`] is built once from a verified [`LogicalPlan`]: the
//!   chunk's list groups and their vector slots, where each node, edge and
//!   slot lives, and which operator each step becomes. Each `Extend` lowers
//!   to the operator its `single` flag names, and an adjacency stored the
//!   other way fails in that operator with [`gfcl_common::Error::Exec`].
//! * [`Layout::bind`] turns it into one worker's [`Pipeline`] for one call:
//!   the view, the parameters, the scan cursor and the compiled predicates,
//!   over a chunk of the layout's shape — a fresh one, or one a plan-cache
//!   entry's earlier call handed back ([`crate::cache::CachedPlan`]).
//!
//! The uncached path builds a layout per call and binds it at once; a plan
//! cache entry keeps its layout, so a hit only binds.

use gfcl_common::{Direction, Error, Result, Value};
use gfcl_storage::GraphView;

use super::extend::{ColumnExtend, ListExtend};
use super::filter::Filter;
use super::read::{ReadEdgeProp, ReadNodeProp, ReadState};
use super::scan::{Pushed, ScanAll, ScanPk};
use super::{Op, Pipeline, ScanCursor};
use crate::chunk::{Chunk, ListGroup, ValueVector, VecRef};
use crate::plan::{seek_key, LogicalPlan, PlanExpr, PlanStep, SlotSource};
use crate::pred::{compile_pred, SlotCol};

/// Where one plan step reads and writes, and which operator it becomes.
#[derive(Debug, Clone, Copy)]
enum StepLoc {
    /// `ScanAll` or `ScanPk`, filling the scan group's node vector.
    Scan {
        out: VecRef,
    },
    ListExtend {
        from: VecRef,
        out_group: usize,
    },
    ColumnExtend {
        from: VecRef,
        node_out: VecRef,
        edge_out: VecRef,
    },
    NodeProp {
        node: VecRef,
        out: VecRef,
    },
    /// An edge property, read in the direction its `Extend` traversed it.
    EdgeProp {
        edge: VecRef,
        dir: Direction,
        out: VecRef,
    },
    Filter,
}

impl StepLoc {
    /// The vectors this step adds to list group `group`.
    fn width_in(&self, group: usize) -> usize {
        match *self {
            StepLoc::Scan { out }
            | StepLoc::NodeProp { out, .. }
            | StepLoc::EdgeProp { out, .. } => usize::from(out.group == group),
            StepLoc::ListExtend { out_group, .. } => 2 * usize::from(out_group == group),
            StepLoc::ColumnExtend { node_out, .. } => 2 * usize::from(node_out.group == group),
            StepLoc::Filter => 0,
        }
    }
}

/// The part of physical compilation that depends on the plan alone: built
/// once per plan, shared by every worker and every call that runs it.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Per plan step (and so per operator: `ops[i]` is step `i`).
    steps: Vec<StepLoc>,
    /// Vector location of each plan slot; `group == usize::MAX` for a slot
    /// only a pushed scan predicate reads, which never enters the chunk.
    pub(super) slot_refs: Vec<VecRef>,
    /// The operator reading each slot, `usize::MAX` for none.
    pub(super) slot_ops: Vec<usize>,
}

impl Layout {
    /// The layout of `plan`, and a chunk of its shape with nothing filled:
    /// a scan group plus at most one group per list extend. Fails only on a
    /// plan the verifier rejects (a node, edge or slot used before its step
    /// binds it).
    pub(crate) fn new(plan: &LogicalPlan) -> Result<(Layout, Chunk)> {
        let mut groups: Vec<ListGroup> = Vec::with_capacity(plan.edges.len() + 1);
        let mut node_locs: Vec<Option<VecRef>> = vec![None; plan.nodes.len()];
        // Each edge's descriptor, with the direction its Extend traversed it in.
        let mut edge_locs: Vec<Option<(VecRef, Direction)>> = vec![None; plan.edges.len()];
        let mut slot_refs = vec![VecRef { group: usize::MAX, vec: 0 }; plan.slots.len()];
        let mut slot_ops = vec![usize::MAX; plan.slots.len()];
        let mut steps = Vec::with_capacity(plan.steps.len());
        // A new vector slot at the end of group `group`.
        let push = |groups: &mut Vec<ListGroup>, group: usize, v: ValueVector| {
            let vectors = &mut groups[group].vectors;
            vectors.push(v);
            VecRef { group, vec: vectors.len() - 1 }
        };

        for (i, step) in plan.steps.iter().enumerate() {
            let loc = match step {
                PlanStep::ScanAll { node, .. } | PlanStep::ScanPk { node, .. } => {
                    groups.push(ListGroup::with_vectors(vec![ValueVector::Empty]));
                    let out = VecRef { group: 0, vec: 0 };
                    node_locs[*node] = Some(out);
                    StepLoc::Scan { out }
                }
                PlanStep::Extend { edge, edge_label, dir, from, to, single, .. } => {
                    let from_ref =
                        node_locs[*from].ok_or_else(|| Error::Plan("unbound from".into()))?;
                    if *single {
                        let gidx = from_ref.group;
                        let node_out = push(&mut groups, gidx, ValueVector::Empty);
                        let edge_out = push(
                            &mut groups,
                            gidx,
                            ValueVector::SingleEdge {
                                label: *edge_label,
                                dir: *dir,
                                from_vec: from_ref.vec,
                                nbr_vec: node_out.vec,
                                tags: None,
                            },
                        );
                        node_locs[*to] = Some(node_out);
                        edge_locs[*edge] = Some((edge_out, *dir));
                        StepLoc::ColumnExtend { from: from_ref, node_out, edge_out }
                    } else {
                        let out_group = groups.len();
                        groups.push(ListGroup::new(2));
                        node_locs[*to] = Some(VecRef { group: out_group, vec: 0 });
                        edge_locs[*edge] = Some((VecRef { group: out_group, vec: 1 }, *dir));
                        StepLoc::ListExtend { from: from_ref, out_group }
                    }
                }
                PlanStep::NodeProp { node, slot, .. } => {
                    let nref =
                        node_locs[*node].ok_or_else(|| Error::Plan("unbound node".into()))?;
                    let out = push(&mut groups, nref.group, ValueVector::Empty);
                    (slot_refs[*slot], slot_ops[*slot]) = (out, i);
                    StepLoc::NodeProp { node: nref, out }
                }
                PlanStep::EdgeProp { edge, slot, .. } => {
                    let (eref, dir) =
                        edge_locs[*edge].ok_or_else(|| Error::Plan("unbound edge".into()))?;
                    let out = push(&mut groups, eref.group, ValueVector::Empty);
                    (slot_refs[*slot], slot_ops[*slot]) = (out, i);
                    StepLoc::EdgeProp { edge: eref, dir, out }
                }
                PlanStep::Filter { .. } => StepLoc::Filter,
            };
            steps.push(loc);
        }
        Ok((Layout { steps, slot_refs, slot_ops }, Chunk { groups, morsel: 0 }))
    }

    /// The layout of a plan without steps whose slot `i` is vector `i` of
    /// group 0, read by operator `i`: what the sink tests drain.
    #[cfg(test)]
    pub(super) fn for_columns(n: usize) -> Layout {
        Layout {
            steps: Vec::new(),
            slot_refs: (0..n).map(|vec| VecRef { group: 0, vec }).collect(),
            slot_ops: (0..n).collect(),
        }
    }

    /// Does `chunk` have this layout's shape — one group per scan and list
    /// extend, holding the vectors its steps add — with nothing flattened,
    /// selected or counted: what [`Chunk::recycle`] leaves?
    pub(crate) fn fits(&self, chunk: &Chunk) -> bool {
        let width = |group: usize| self.steps.iter().map(|s| s.width_in(group)).sum::<usize>();
        let opens_group =
            |s: &&StepLoc| matches!(s, StepLoc::Scan { .. } | StepLoc::ListExtend { .. });
        let groups = self.steps.iter().filter(opens_group).count();
        chunk.morsel == 0
            && chunk.groups.len() == groups
            && chunk.groups.iter().enumerate().all(|(i, g)| {
                g.vectors.len() == width(i)
                    && (g.len, g.cur_idx, g.sel_count) == (0, -1, 0)
                    && g.sel.is_none()
            })
    }

    /// Bind this layout of `plan` to one call: the pipeline that fills
    /// `chunk` (of this layout's shape) from morsels of `cursor`, executing
    /// against `view`. A clean view binds exactly the zero-copy operators,
    /// while a delta-overlaid snapshot additionally arms the per-operator
    /// dirty paths (`(baseline ⊎ delta) ∖ tombstones`). Parameters resolve
    /// here, to `params[i]`, wherever constants become the seek key and the
    /// compiled predicates' operands.
    pub(crate) fn bind<'g>(
        &'g self,
        view: GraphView<'g>,
        plan: &LogicalPlan,
        cursor: &'g ScanCursor<'g>,
        params: &[Value],
        chunk: Chunk,
    ) -> Result<Pipeline<'g>> {
        debug_assert!(self.fits(&chunk), "a pipeline starts from an empty chunk of its layout");
        let g = view.base();
        let mut ops: Vec<Op<'g>> = Vec::with_capacity(plan.steps.len());
        for (step, loc) in plan.steps.iter().zip(&self.steps) {
            let op = match (step, *loc) {
                (PlanStep::ScanAll { node, pushed }, StepLoc::Scan { out }) => {
                    let label = plan.nodes[*node].label;
                    Op::ScanAll(ScanAll {
                        label,
                        out,
                        cursor,
                        pushed: bind_pushed(view, plan, *node, pushed, params)?,
                        touched: view.vertex_label_touched(label),
                        n_base: g.vertex_count(label) as u64,
                        mask: Vec::new(),
                    })
                }
                (PlanStep::ScanPk { node, key }, StepLoc::Scan { out }) => Op::ScanPk(ScanPk {
                    label: plan.nodes[*node].label,
                    key: seek_key(key, params)?,
                    out,
                    cursor,
                }),
                (PlanStep::Extend { edge_label, dir, from, counted, .. }, _) => {
                    let nbr_label = g.catalog().edge_label(*edge_label).nbr_label(*dir);
                    let from_label = plan.nodes[*from].label;
                    // Delta-inserted from-vertices have no adjacency entry,
                    // so vertex insertions arm the dirty path even when no
                    // edge of this label changed.
                    let maybe_dirty = view.edge_label_touched(*edge_label, *dir)
                        || view.vertex_label_touched(from_label);
                    match *loc {
                        StepLoc::ListExtend { from, out_group } => Op::ListExtend(ListExtend {
                            label: *edge_label,
                            dir: *dir,
                            nbr_label,
                            from,
                            out_group,
                            maybe_dirty,
                            from_count: g.vertex_count(from_label) as u64,
                            counted: *counted,
                            active: false,
                            owns_iter: false,
                            pos: -1,
                            single_shot_done: false,
                            rd: ReadState::default(),
                        }),
                        StepLoc::ColumnExtend { from, node_out, edge_out } => {
                            Op::ColumnExtend(ColumnExtend {
                                label: *edge_label,
                                dir: *dir,
                                nbr_label,
                                from,
                                node_out,
                                edge_out,
                                maybe_dirty,
                                rd: ReadState::default(),
                            })
                        }
                        _ => return Err(layout_mismatch()),
                    }
                }
                (
                    PlanStep::NodeProp { node, prop, slot },
                    StepLoc::NodeProp { node: nref, out },
                ) => {
                    let label = plan.nodes[*node].label;
                    Op::ReadNodeProp(ReadNodeProp {
                        node: nref,
                        out,
                        label,
                        prop: *prop,
                        dtype: plan.slots[*slot].dtype,
                        touched: view.vertex_label_touched(label),
                        col: g.vertex_prop(label, *prop),
                        ext: view.vertex_str_ext(label, *prop),
                        rd: ReadState::default(),
                    })
                }
                (
                    PlanStep::EdgeProp { edge, prop, slot },
                    StepLoc::EdgeProp { edge: eref, dir, out },
                ) => {
                    let elabel = plan.edges[*edge].label;
                    let col = g.edge_prop_read(elabel, dir, *prop)?.column();
                    Op::ReadEdgeProp(ReadEdgeProp {
                        edge: eref,
                        out,
                        prop: *prop,
                        dtype: plan.slots[*slot].dtype,
                        col,
                        ext: view.edge_str_ext(elabel, dir, *prop),
                        rd: ReadState::default(),
                    })
                }
                (PlanStep::Filter { expr }, StepLoc::Filter) => {
                    // Every slot a filter reads was read by an earlier step.
                    let col_of = |s: usize| slot_col(&ops, self.slot_ops[s]);
                    let pred = compile_pred(expr, &plan.slots, &self.slot_refs, col_of, params)?;
                    Op::Filter(Filter { pred, mask: Vec::new() })
                }
                _ => return Err(layout_mismatch()),
            };
            ops.push(op);
        }
        Ok(Pipeline { ops, chunk, layout: self })
    }
}

/// The predicates `pushed` into the scan of plan node `node`, compiled
/// against the scan's operand block: the `k`-th distinct slot they read is
/// vector `k` of it. `None` when nothing is pushed.
fn bind_pushed<'g>(
    view: GraphView<'g>,
    plan: &LogicalPlan,
    node: usize,
    pushed: &[PlanExpr],
    params: &[Value],
) -> Result<Option<Box<Pushed<'g>>>> {
    if pushed.is_empty() {
        return Ok(None);
    }
    let label = plan.nodes[node].label;
    let mut slot_refs = vec![VecRef { group: usize::MAX, vec: 0 }; plan.slots.len()];
    let (mut props, mut cols) = (Vec::new(), Vec::new());
    for s in pushed.iter().flat_map(PlanExpr::slots) {
        let prop = match plan.slots[s].source {
            SlotSource::NodeProp { node: n, prop } if n == node => prop,
            _ => return Err(foreign_slot(s, plan)),
        };
        if slot_refs[s].group == usize::MAX {
            slot_refs[s] = VecRef { group: 0, vec: props.len() };
            props.push(prop);
            cols.push(view.base().vertex_prop(label, prop));
        }
    }
    // Every slot the predicates read is a property of the scanned node.
    let col_of = |s: usize| match plan.slots[s].source {
        SlotSource::NodeProp { prop, .. } => SlotCol {
            col: Some(view.base().vertex_prop(label, prop)),
            ext: view.vertex_str_ext(label, prop),
        },
        _ => SlotCol::default(),
    };
    let preds = pushed
        .iter()
        .map(|e| compile_pred(e, &plan.slots, &slot_refs, col_of, params))
        .collect::<Result<_>>()?;
    Ok(Some(Box::new(Pushed {
        preds,
        block: ListGroup::new(props.len()),
        props,
        cols,
        verdicts: Vec::new(),
        rd: ReadState::default(),
    })))
}

/// A pushed-down predicate reads `slot`, which the scanned node does not own.
fn foreign_slot(slot: usize, plan: &LogicalPlan) -> Error {
    Error::Plan(format!(
        "pushed-down predicate references slot {slot} ({}), which is not a property of the \
         scanned node",
        plan.slots[slot].name
    ))
}

/// The storage column (and any delta string extension) behind the slot
/// operator `ops[op]` reads; the default for `usize::MAX` (no operator).
pub(super) fn slot_col<'g>(ops: &[Op<'g>], op: usize) -> SlotCol<'g> {
    match ops.get(op) {
        Some(Op::ReadNodeProp(r)) => SlotCol { col: Some(r.col), ext: r.ext },
        Some(Op::ReadEdgeProp(r)) => SlotCol { col: Some(r.col), ext: r.ext },
        _ => SlotCol::default(),
    }
}

/// A layout bound to a plan it was not built from.
fn layout_mismatch() -> Error {
    Error::Plan("the layout does not match the plan it is bound to".into())
}
