//! The relational baseline: a block-based processor executing graph
//! queries as **hash joins over edge tables**, the MonetDB/Vertica analog
//! of Section 8.7.
//!
//! Architectural differences from the graph engines, mirroring the paper's
//! analysis:
//!
//! * no adjacency-list index is used for joins: every `Extend` step scans
//!   the *entire* edge table of the label and builds a hash table, then
//!   probes the accumulated intermediate result — efficient for
//!   unselective star joins, wasteful for selective path queries;
//! * no primary-key seek: a `p.id = X` predicate is a full scan + filter
//!   of the vertex table (the paper: "this join is performed using merge
//!   or hash joins, which requires scanning both Person and Knows
//!   tables");
//! * intermediate results are fully materialized flat columns — no
//!   factorization, so n-n joins multiply the intermediate size.

use std::collections::HashMap;
use std::sync::Arc;

use gfcl_common::{Direction, Error, LabelId, Result, Value};
use gfcl_core::agg::{self, GroupTable, ScalarAgg};
use gfcl_core::engine::{Engine, QueryOutput};
use gfcl_core::plan::{seek_key, LogicalPlan, PlanReturn, PlanStep};
use gfcl_storage::{Catalog, ColumnarGraph, DeltaSnapshot, GraphSnapshot, GraphView, ReadCursors};

use crate::eval::holds;
use crate::in_fault_domain;

/// Flat columnar intermediate result.
struct Inter {
    n: usize,
    nodes: Vec<Option<Vec<u64>>>,
    edges: Vec<Option<EdgeCols>>,
    slots: Vec<Option<Vec<Value>>>,
}

/// Per-edge binding columns (enough to read edge properties later).
struct EdgeCols {
    dir: Direction,
    from: Vec<u64>,
    /// The view's edge-reference tags.
    tag: Vec<u64>,
}

impl Inter {
    fn new(plan: &LogicalPlan) -> Inter {
        Inter {
            n: 0,
            nodes: vec![None; plan.nodes.len()],
            edges: plan.edges.iter().map(|_| None).collect(),
            slots: vec![None; plan.slots.len()],
        }
    }

    /// Keep only the rows at `keep` (gather compaction).
    fn gather(&mut self, keep: &[usize]) {
        for col in self.nodes.iter_mut().flatten() {
            *col = keep.iter().map(|&i| col[i]).collect();
        }
        for ec in self.edges.iter_mut().flatten() {
            ec.from = keep.iter().map(|&i| ec.from[i]).collect();
            ec.tag = keep.iter().map(|&i| ec.tag[i]).collect();
        }
        for col in self.slots.iter_mut().flatten() {
            *col = keep.iter().map(|&i| col[i].clone()).collect();
        }
        self.n = keep.len();
    }
}

/// The relational engine over columnar tables.
pub struct RelEngine {
    graph: Arc<ColumnarGraph>,
    /// The delta to overlay when executing against a mutable-store snapshot.
    delta: Option<Arc<DeltaSnapshot>>,
}

impl RelEngine {
    pub fn new(graph: Arc<ColumnarGraph>) -> Self {
        RelEngine { graph, delta: None }
    }

    /// Engine over one MVCC snapshot of a mutable `GraphStore`: the vertex
    /// and edge tables it scans are `(baseline ⊎ delta) ∖ tombstones`.
    pub fn with_snapshot(snapshot: &GraphSnapshot) -> Self {
        RelEngine { graph: Arc::clone(snapshot.base()), delta: Some(Arc::clone(snapshot.delta())) }
    }
}

/// Scan the full edge table of `(elabel, dir)` into a hash table keyed by
/// the `dir`-side endpoint. This is the per-join full-table-scan cost that
/// adjacency indexes avoid.
fn build_edge_hash(
    view: GraphView<'_>,
    cur: &mut ReadCursors,
    elabel: LabelId,
    dir: Direction,
) -> HashMap<u64, Vec<(u64, u64)>> {
    let from_label = view.base().catalog().edge_label(elabel).from_label(dir);
    let mut table: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for v in 0..view.scan_total(from_label) {
        view.for_each_live_edge(cur, elabel, dir, v, |nbr, tag| {
            table.entry(v).or_default().push((nbr, tag));
        });
    }
    table
}

impl Engine for RelEngine {
    fn name(&self) -> &'static str {
        "REL"
    }

    fn catalog(&self) -> &Catalog {
        self.graph.catalog()
    }

    fn run_plan(&self, plan: &LogicalPlan) -> Result<QueryOutput> {
        let view = GraphView::new(&*self.graph, self.delta.as_deref());
        in_fault_domain(|| drive(view, plan))
    }
}

/// The execution body of [`Engine::run_plan`].
fn drive(view: GraphView<'_>, plan: &LogicalPlan) -> Result<QueryOutput> {
    plan.require_literals("REL", &[])?;
    let mut it = Inter::new(plan);

    for step in &plan.steps {
        // Each step reads storage through its own cursors.
        let cur = &mut ReadCursors::default();
        match step {
            PlanStep::ScanAll { node, pushed } => {
                let label = plan.nodes[*node].label;
                // Naive pushdown: filter the vertex-table scan with the
                // pushed predicates, reading properties straight from
                // the columns (a relational scan-with-predicate).
                let prop_of_slot = crate::eval::scan_prop_map(&plan.slots, *node);
                let col: Vec<u64> = (0..view.scan_total(label))
                    .filter(|&v| {
                        view.vertex_live(label, v)
                            && pushed.iter().all(|e| {
                                holds(e, &mut |slot| {
                                    view.vertex_value(&mut cur.col, label, v, prop_of_slot[slot])
                                })
                            })
                    })
                    .collect();
                it.n = col.len();
                it.nodes[*node] = Some(col);
            }
            PlanStep::ScanPk { node, key } => {
                // No index: scan the vertex table comparing keys.
                let label = plan.nodes[*node].label;
                let pk_prop = view
                    .base()
                    .catalog()
                    .vertex_label(label)
                    .primary_key
                    .ok_or_else(|| Error::Plan("pk seek without pk".into()))?;
                let key = seek_key(key, &[])?;
                let matches: Vec<u64> = (0..view.scan_total(label))
                    .filter(|&v| {
                        view.vertex_live(label, v)
                            && view.vertex_value(&mut cur.col, label, v, pk_prop)
                                == Value::Int64(key)
                    })
                    .collect();
                it.n = matches.len();
                it.nodes[*node] = Some(matches);
            }
            PlanStep::Extend { edge, edge_label, dir, from, to, .. } => {
                let hash = build_edge_hash(view, cur, *edge_label, *dir);
                let probe =
                    it.nodes[*from].as_ref().ok_or_else(|| Error::Plan("unbound from".into()))?;
                // Probe: one output row per (input row, matching edge).
                let mut keep: Vec<usize> = Vec::new();
                let mut nbrs: Vec<u64> = Vec::new();
                let mut froms: Vec<u64> = Vec::new();
                let mut tags: Vec<u64> = Vec::new();
                for (row, &v) in probe.iter().enumerate() {
                    if let Some(matches) = hash.get(&v) {
                        for &(nbr, tag) in matches {
                            keep.push(row);
                            nbrs.push(nbr);
                            froms.push(v);
                            tags.push(tag);
                        }
                    }
                }
                it.gather(&keep);
                it.nodes[*to] = Some(nbrs);
                it.edges[*edge] = Some(EdgeCols { dir: *dir, from: froms, tag: tags });
            }
            PlanStep::NodeProp { node, prop, slot } => {
                let label = plan.nodes[*node].label;
                let offs =
                    it.nodes[*node].as_ref().ok_or_else(|| Error::Plan("unbound node".into()))?;
                let col = &mut cur.col;
                it.slots[*slot] =
                    Some(offs.iter().map(|&v| view.vertex_value(col, label, v, *prop)).collect());
            }
            PlanStep::EdgeProp { edge, prop, slot } => {
                let elabel = plan.edges[*edge].label;
                let ec =
                    it.edges[*edge].as_ref().ok_or_else(|| Error::Plan("unbound edge".into()))?;
                let mut vals = Vec::with_capacity(it.n);
                for i in 0..it.n {
                    vals.push(view.edge_value(cur, elabel, ec.dir, ec.from[i], ec.tag[i], *prop)?);
                }
                it.slots[*slot] = Some(vals);
            }
            PlanStep::Filter { expr } => {
                let mut keep = Vec::with_capacity(it.n);
                for i in 0..it.n {
                    let slots = &it.slots;
                    let mut read = |s: usize| -> Value {
                        slots[s].as_ref().map_or(Value::Null, |c| c[i].clone())
                    };
                    if holds(expr, &mut read) {
                        keep.push(i);
                    }
                }
                it.gather(&keep);
            }
        }
    }

    match &plan.ret {
        PlanReturn::Props(slots) => {
            let mut rows = Vec::with_capacity(it.n);
            for i in 0..it.n {
                rows.push(
                    slots
                        .iter()
                        .map(|&s| it.slots[s].as_ref().map_or(Value::Null, |c| c[i].clone()))
                        .collect(),
                );
            }
            let rows = agg::finalize_rows(plan, rows);
            Ok(QueryOutput::Rows { header: Arc::clone(&plan.header), rows })
        }
        PlanReturn::GroupBy { keys, aggs } => {
            // Fold the flat materialized intermediate row-by-row into
            // the shared group table (hash-aggregate analog).
            let read = |s: usize, i: usize| -> Value {
                it.slots[s].as_ref().map_or(Value::Null, |c| c[i].clone())
            };
            let mut table = GroupTable::new(aggs);
            for i in 0..it.n {
                let key: Vec<Value> = keys.iter().map(|&s| read(s, i)).collect();
                let vals: Vec<Option<Value>> =
                    aggs.iter().map(|a| a.slot.map(|s| read(s, i))).collect();
                table.add_tuple(key, &vals);
            }
            Ok(table.into_output(plan))
        }
        // Whole-result COUNT(*) / SUM / MIN / MAX over the flat column.
        _ => {
            let mut agg = ScalarAgg::new(plan)?;
            match agg.input() {
                None => agg.fold(None, it.n as u64),
                Some(s) => {
                    let col = it.slots[s].as_ref().ok_or_else(|| Error::Plan("unfilled".into()))?;
                    for v in col {
                        agg.fold(Some(v), 1);
                    }
                }
            }
            Ok(agg.finish(plan))
        }
    }
}
