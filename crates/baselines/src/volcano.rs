//! Generic Volcano-style tuple-at-a-time executor (Section 6's baseline).
//!
//! One partial-match tuple flows through an operator chain via `next()`
//! calls, exactly as in GraphflowDB's original processor (and Neo4j /
//! Memgraph): values are produced one at a time, properties are read into
//! the tuple as [`Value`]s, and every primitive computation pays an
//! iterator-call round trip. Each operator that reads storage owns its
//! [`ReadCursors`], so on a paged graph a value costs a pin only when it
//! lies on a page the operator has not touched recently. The executor is
//! generic over the baseline behind a [`GraphView`], so the same processor
//! runs on the row store (GF-RV) and on columnar storage (GF-CV), isolating
//! processing gains from storage gains as in Section 8.6 — and both observe
//! `(baseline ⊎ delta) ∖ tombstones` through the one overlay in
//! `gfcl_storage`.

use std::sync::Arc;

use gfcl_common::{Direction, Error, LabelId, Result, Value};
use gfcl_core::agg::{self, GroupTable, ScalarAgg};
use gfcl_core::engine::QueryOutput;
use gfcl_core::plan::{seek_key, LogicalPlan, PlanExpr, PlanReturn, PlanStep};
use gfcl_storage::{BaselineRead, GraphView, ReadCursors};

use crate::eval::holds;

/// The edge binding stored in a tuple: the traversal source plus the
/// view's edge-reference tag.
#[derive(Clone, Copy)]
struct EdgeSlot {
    from: u64,
    tag: u64,
}

/// The single partial-match tuple flowing through the pipeline.
struct Tuple {
    nodes: Vec<u64>,
    edges: Vec<EdgeSlot>,
    slots: Vec<Value>,
}

enum VOp {
    ScanAll {
        label: LabelId,
        node: usize,
        next: u64,
        total: u64,
        /// Naive filter pushdown: predicates over the scanned node's
        /// properties, evaluated per vertex straight from storage before
        /// the tuple leaves the scan. No zone maps here — the Volcano
        /// engines exist to isolate the LBP's gains, so they do the
        /// honest tuple-at-a-time equivalent.
        pushed: Vec<PlanExpr>,
        /// `slot -> property index` of the scanned label, for resolving
        /// pushed-predicate slots against storage (`usize::MAX` for slots
        /// of other variables, which pushed predicates never touch).
        prop_of_slot: Vec<usize>,
        cur: ReadCursors,
    },
    ScanPk {
        label: LabelId,
        node: usize,
        key: i64,
        done: bool,
    },
    Extend {
        elabel: LabelId,
        dir: Direction,
        from: usize,
        to: usize,
        edge: usize,
        /// What is left of the current source vertex's adjacency.
        state: ExtendState,
        cur: ReadCursors,
    },
    ReadNodeProp {
        label: LabelId,
        node: usize,
        prop: usize,
        slot: usize,
        cur: ReadCursors,
    },
    ReadEdgeProp {
        elabel: LabelId,
        dir: Direction,
        edge: usize,
        prop: usize,
        slot: usize,
        cur: ReadCursors,
    },
    Filter {
        expr: PlanExpr,
    },
}

enum ExtendState {
    Idle,
    /// Baseline list positions the delta leaves untouched.
    Base {
        pos: u64,
        end: u64,
    },
    /// A list the delta touches, materialized through the overlay.
    Merged {
        nbrs: Vec<u64>,
        tags: Vec<u64>,
        pos: usize,
    },
}

fn vpull<B: BaselineRead>(ops: &mut [VOp], s: GraphView<'_, B>, t: &mut Tuple) -> Result<bool> {
    let (op, children) = ops.split_last_mut().expect("non-empty pipeline");
    match op {
        VOp::ScanAll { label, node, next, total, pushed, prop_of_slot, cur } => loop {
            if *next >= *total {
                return Ok(false);
            }
            let v = *next;
            *next += 1;
            let mut read = |slot| s.vertex_value(&mut cur.col, *label, v, prop_of_slot[slot]);
            let pass = s.vertex_live(*label, v) && pushed.iter().all(|e| holds(e, &mut read));
            if pass {
                t.nodes[*node] = v;
                return Ok(true);
            }
        },
        VOp::ScanPk { label, node, key, done } => {
            if *done {
                return Ok(false);
            }
            *done = true;
            match s.lookup_pk(*label, *key) {
                Some(off) => {
                    t.nodes[*node] = off;
                    Ok(true)
                }
                None => Ok(false),
            }
        }
        VOp::Extend { elabel, dir, from, to, edge, state, cur } => loop {
            let next = match state {
                ExtendState::Base { pos, end } => {
                    let mut hit = None;
                    while hit.is_none() && *pos < *end {
                        hit = s.base_entry(cur, *elabel, *dir, *pos);
                        *pos += 1;
                    }
                    hit
                }
                ExtendState::Merged { nbrs, tags, pos } => {
                    let hit = nbrs.get(*pos).map(|&nbr| (nbr, tags[*pos]));
                    *pos += 1;
                    hit
                }
                ExtendState::Idle => None,
            };
            if let Some((nbr, tag)) = next {
                t.nodes[*to] = nbr;
                t.edges[*edge] = EdgeSlot { from: t.nodes[*from], tag };
                return Ok(true);
            }
            if !vpull(children, s, t)? {
                return Ok(false);
            }
            let src = t.nodes[*from];
            *state = match s.untouched_range(*elabel, *dir, src) {
                Some((start, len)) => ExtendState::Base { pos: start, end: start + len },
                None => {
                    let (nbrs, tags) = s.merged_adj(cur, *elabel, *dir, src);
                    ExtendState::Merged { nbrs, tags, pos: 0 }
                }
            };
        },
        VOp::ReadNodeProp { label, node, prop, slot, cur } => {
            if !vpull(children, s, t)? {
                return Ok(false);
            }
            t.slots[*slot] = s.vertex_value(&mut cur.col, *label, t.nodes[*node], *prop);
            Ok(true)
        }
        VOp::ReadEdgeProp { elabel, dir, edge, prop, slot, cur } => {
            if !vpull(children, s, t)? {
                return Ok(false);
            }
            let e = t.edges[*edge];
            t.slots[*slot] = s.edge_value(cur, *elabel, *dir, e.from, e.tag, *prop)?;
            Ok(true)
        }
        VOp::Filter { expr } => loop {
            if !vpull(children, s, t)? {
                return Ok(false);
            }
            let slots = &t.slots;
            if holds(expr, &mut |i| slots[i].clone()) {
                return Ok(true);
            }
        },
    }
}

/// Execute a logical plan tuple-at-a-time over `view`.
pub fn execute<B: BaselineRead>(view: GraphView<'_, B>, plan: &LogicalPlan) -> Result<QueryOutput> {
    plan.require_literals("the Volcano baselines", &[])?;
    let mut ops: Vec<VOp> = Vec::with_capacity(plan.steps.len());
    // Direction of each bound edge (needed by property reads).
    let mut edge_dir: Vec<Option<Direction>> = vec![None; plan.edges.len()];
    for step in &plan.steps {
        match step {
            PlanStep::ScanAll { node, pushed } => {
                let label = plan.nodes[*node].label;
                let prop_of_slot = crate::eval::scan_prop_map(&plan.slots, *node);
                ops.push(VOp::ScanAll {
                    label,
                    node: *node,
                    next: 0,
                    total: view.scan_total(label),
                    pushed: pushed.clone(),
                    prop_of_slot,
                    cur: ReadCursors::default(),
                });
            }
            PlanStep::ScanPk { node, key } => {
                ops.push(VOp::ScanPk {
                    label: plan.nodes[*node].label,
                    node: *node,
                    key: seek_key(key, &[])?,
                    done: false,
                });
            }
            PlanStep::Extend { edge, edge_label, dir, from, to, .. } => {
                edge_dir[*edge] = Some(*dir);
                ops.push(VOp::Extend {
                    elabel: *edge_label,
                    dir: *dir,
                    from: *from,
                    to: *to,
                    edge: *edge,
                    state: ExtendState::Idle,
                    cur: ReadCursors::default(),
                });
            }
            PlanStep::NodeProp { node, prop, slot } => {
                ops.push(VOp::ReadNodeProp {
                    label: plan.nodes[*node].label,
                    node: *node,
                    prop: *prop,
                    slot: *slot,
                    cur: ReadCursors::default(),
                });
            }
            PlanStep::EdgeProp { edge, prop, slot } => {
                let dir = edge_dir[*edge]
                    .ok_or_else(|| Error::Plan("edge property read before extend".into()))?;
                ops.push(VOp::ReadEdgeProp {
                    elabel: plan.edges[*edge].label,
                    dir,
                    edge: *edge,
                    prop: *prop,
                    slot: *slot,
                    cur: ReadCursors::default(),
                });
            }
            PlanStep::Filter { expr } => ops.push(VOp::Filter { expr: expr.clone() }),
        }
    }

    let mut t = Tuple {
        nodes: vec![0; plan.nodes.len()],
        edges: vec![EdgeSlot { from: 0, tag: 0 }; plan.edges.len()],
        slots: vec![Value::Null; plan.slots.len()],
    };

    match &plan.ret {
        PlanReturn::Props(slots) => {
            let mut rows = Vec::new();
            while vpull(&mut ops, view, &mut t)? {
                rows.push(slots.iter().map(|&s| t.slots[s].clone()).collect());
            }
            let rows = agg::finalize_rows(plan, rows);
            Ok(QueryOutput::Rows { header: Arc::clone(&plan.header), rows })
        }
        PlanReturn::GroupBy { keys, aggs } => {
            // The naive reference: enumerate every tuple, fold it into the
            // shared group table with multiplicity 1.
            let mut table = GroupTable::new(aggs);
            while vpull(&mut ops, view, &mut t)? {
                let key: Vec<Value> = keys.iter().map(|&s| t.slots[s].clone()).collect();
                let vals: Vec<Option<Value>> =
                    aggs.iter().map(|a| a.slot.map(|s| t.slots[s].clone())).collect();
                table.add_tuple(key, &vals);
            }
            Ok(table.into_output(plan))
        }
        // Whole-result COUNT(*) / SUM / MIN / MAX: one tuple at a time.
        _ => {
            let mut agg = ScalarAgg::new(plan)?;
            while vpull(&mut ops, view, &mut t)? {
                agg.fold(agg.input().map(|s| &t.slots[s]), 1);
            }
            Ok(agg.finish(plan))
        }
    }
}
