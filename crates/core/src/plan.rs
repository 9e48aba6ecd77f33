//! The logical planner: resolves a [`PatternQuery`] against a catalog into
//! a linear, left-deep [`LogicalPlan`] shared by all four engines.
//!
//! The paper hand-picks "the best left-deep plan, which was obvious in most
//! cases" (Section 8.7). This module goes further: when the catalog carries
//! build-time [`gfcl_storage::Stats`], the [`crate::optimize`] cost model
//! picks the start node and extend order itself; hints remain an override
//! (`edge_order` is honored verbatim, after full validation), and a catalog
//! without statistics falls back to the paper's policy — start from an
//! equality-filtered vertex when the query has one and extend outward in
//! declaration order. In every case properties are read as soon as their
//! variable is bound and each filter is applied at the earliest step where
//! all of its inputs are bound.
//!
//! The plan fixes the chunk layout: each extend is a `ColumnExtend` (stays
//! in its source's list group) or a `ListExtend` (flattens the source and
//! opens a group) by [`Catalog::column_extend`], which answers from what the
//! graph stores, and the executor lowers it that way. Every finished plan
//! passes the structural verifier ([`crate::verify`]) before it is returned.

use std::convert::Infallible;
use std::sync::Arc;

use gfcl_common::{DataType, Direction, Error, LabelId, Result, Value};
use gfcl_storage::Catalog;

use crate::optimize::{self, GroupSim};
use crate::query::{
    Agg, AggFunc, CmpOp, Expr, PatternQuery, PropRef, ReturnSpec, Scalar, SortDir, StrOp,
};

/// A resolved reference to a slot holding a property value during
/// execution. Slots are engine-agnostic: LBP maps them to vectors, the
/// Volcano engines to tuple fields.
pub type SlotId = usize;

/// A scalar operand over slots.
#[derive(Debug, Clone)]
pub enum PlanScalar {
    Slot(SlotId),
    Const(Value),
    /// Parameter `i` of a plan built by [`plan_template`]: its type is
    /// [`LogicalPlan::params`]`[i]`, its value is supplied per execution.
    Param(usize),
}

impl PlanScalar {
    /// The value this operand stands for — the constant, or `params[i]`
    /// for parameter `i` — or `None` for a slot or a parameter `params`
    /// does not cover.
    pub fn value<'v>(&'v self, params: &'v [Value]) -> Option<&'v Value> {
        match self {
            PlanScalar::Slot(_) => None,
            PlanScalar::Const(v) => Some(v),
            PlanScalar::Param(i) => params.get(*i),
        }
    }
}

/// The primary key a `ScanPk` step seeks under `params`.
pub fn seek_key(key: &PlanScalar, params: &[Value]) -> Result<i64> {
    key.value(params).and_then(Value::as_i64).ok_or_else(|| match key {
        PlanScalar::Param(i) => Error::Plan(format!(
            "primary-key seek reads parameter ?{i}, but {} value(s) were supplied",
            params.len()
        )),
        _ => Error::Plan(format!("primary-key seek needs an integer key, got {key:?}")),
    })
}

/// A resolved boolean expression over slots.
#[derive(Debug, Clone)]
pub enum PlanExpr {
    Cmp { op: CmpOp, lhs: PlanScalar, rhs: PlanScalar },
    StrMatch { op: StrOp, slot: SlotId, pattern: String },
    InSet { slot: SlotId, values: Vec<Value> },
    And(Vec<PlanExpr>),
    Or(Vec<PlanExpr>),
    Not(Box<PlanExpr>),
}

impl PlanExpr {
    /// All slots referenced by this expression, in order, with repeats.
    pub fn slots(&self) -> Vec<SlotId> {
        let mut out = Vec::new();
        self.for_each_slot(|s| out.push(s));
        out
    }

    /// Call `f` on every slot [`PlanExpr::slots`] lists, without
    /// collecting them.
    pub fn for_each_slot(&self, mut f: impl FnMut(SlotId)) {
        let _ = self.try_for_each_slot(&mut |s| {
            f(s);
            Ok::<(), std::convert::Infallible>(())
        });
    }

    /// [`PlanExpr::for_each_slot`], stopping at the first error `f` returns.
    pub fn try_for_each_slot<E>(
        &self,
        f: &mut impl FnMut(SlotId) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        match self {
            PlanExpr::Cmp { lhs, rhs, .. } => {
                if let PlanScalar::Slot(s) = lhs {
                    f(*s)?;
                }
                if let PlanScalar::Slot(s) = rhs {
                    f(*s)?;
                }
                Ok(())
            }
            PlanExpr::StrMatch { slot, .. } | PlanExpr::InSet { slot, .. } => f(*slot),
            PlanExpr::And(es) | PlanExpr::Or(es) => {
                es.iter().try_for_each(|e| e.try_for_each_slot(f))
            }
            PlanExpr::Not(e) => e.try_for_each_slot(f),
        }
    }

    /// Does every referenced slot satisfy `f`?
    pub fn all_slots(&self, mut f: impl FnMut(SlotId) -> bool) -> bool {
        self.try_for_each_slot(&mut |s| if f(s) { Ok(()) } else { Err(()) }).is_ok()
    }
}

/// Where a slot's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSource {
    /// Property `prop` of pattern node `node`.
    NodeProp { node: usize, prop: usize },
    /// Property `prop` of pattern edge `edge`.
    EdgeProp { edge: usize, prop: usize },
}

/// Metadata of one slot.
#[derive(Debug, Clone)]
pub struct SlotDef {
    pub source: SlotSource,
    pub dtype: DataType,
    /// Whether the slot appears in the RETURN clause (string slots used
    /// only in predicates stay dictionary-encoded; returned ones must be
    /// materialized).
    pub for_return: bool,
    pub name: String,
}

/// One step of the linear plan.
#[derive(Debug, Clone)]
pub enum PlanStep {
    /// Scan all vertices of the start node's label. `pushed` holds the
    /// filter conjuncts pushed down into the scan (single-node property
    /// predicates): the scan evaluates them over the vertex-property
    /// columns a block at a time — skipping whole blocks via zone maps —
    /// before any property read materializes a value.
    ScanAll { node: usize, pushed: Vec<PlanExpr> },
    /// Seek the start node by primary key: an integer constant, or a
    /// parameter of integer or date type.
    ScanPk { node: usize, key: PlanScalar },
    /// Join an unbound node via the adjacency index of `edge_label`.
    Extend {
        /// Index into the query's edge list.
        edge: usize,
        edge_label: LabelId,
        dir: Direction,
        from: usize,
        to: usize,
        /// [`Catalog::column_extend`] of `(edge_label, dir)`: a
        /// `ColumnExtend` through a vertex column that stays in the source's
        /// list group, else a `ListExtend` through a CSR that opens one. The
        /// LBP compiles the operator this names.
        single: bool,
        /// Nothing after this step reads its source list group or the group
        /// it opens (no later extend from, property read of, or filter over
        /// a variable in either, and no `RETURN` slot in either): the
        /// operator may sum the source's list lengths instead of flattening
        /// the source one position at a time. Only ever set on a CSR extend
        /// (`single == false`); decided once, by the planner.
        counted: bool,
    },
    /// Materialize a node property into a slot.
    NodeProp { node: usize, prop: usize, slot: SlotId },
    /// Materialize an edge property into a slot.
    EdgeProp { edge: usize, prop: usize, slot: SlotId },
    /// Apply a predicate over already-filled slots.
    Filter { expr: PlanExpr },
}

/// One resolved aggregate of a grouped return.
#[derive(Debug, Clone)]
pub struct PlanAgg {
    pub func: AggFunc,
    /// Input slot (`None` only for `COUNT(*)`).
    pub slot: Option<SlotId>,
}

/// What the plan returns.
#[derive(Debug, Clone)]
pub enum PlanReturn {
    CountStar,
    /// Materialize these slots for every match.
    Props(Vec<SlotId>),
    Sum(SlotId),
    Min(SlotId),
    Max(SlotId),
    /// Grouped aggregation: one output row per distinct combination of the
    /// key slots, aggregates folded directly from unflat list groups.
    GroupBy {
        keys: Vec<SlotId>,
        aggs: Vec<PlanAgg>,
    },
}

impl PlanReturn {
    /// Every slot the sink reads: projection columns, grouping keys and
    /// aggregate inputs. Indexes are *not* validated — the verifier checks
    /// them.
    pub fn slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        let (cols, one, aggs): (&[SlotId], Option<SlotId>, &[PlanAgg]) = match self {
            PlanReturn::CountStar => (&[], None, &[]),
            PlanReturn::Props(ids) => (ids, None, &[]),
            PlanReturn::Sum(s) | PlanReturn::Min(s) | PlanReturn::Max(s) => (&[], Some(*s), &[]),
            PlanReturn::GroupBy { keys, aggs } => (keys, None, aggs),
        };
        cols.iter().copied().chain(one).chain(aggs.iter().filter_map(|a| a.slot))
    }
}

/// Resolved metadata of one pattern node.
#[derive(Debug, Clone)]
pub struct PlanNode {
    pub var: String,
    pub label: LabelId,
}

/// Resolved metadata of one pattern edge.
#[derive(Debug, Clone)]
pub struct PlanEdge {
    pub var: Option<String>,
    pub label: LabelId,
    pub from: usize,
    pub to: usize,
}

/// How the extend order of a plan was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderSource {
    /// An explicit `edge_order` hint, honored verbatim.
    Hints,
    /// The cost-based orderer over catalog statistics
    /// ([`crate::optimize`]).
    Stats,
    /// Declaration order (no statistics, no hints — the paper's policy).
    Declaration,
}

/// The linear left-deep logical plan.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    pub nodes: Vec<PlanNode>,
    pub edges: Vec<PlanEdge>,
    pub slots: Vec<SlotDef>,
    pub steps: Vec<PlanStep>,
    pub ret: PlanReturn,
    /// Header names for row outputs, shared with every output that has
    /// them.
    pub header: Arc<[String]>,
    /// `ORDER BY` keys: `(output column, descending)`, applied by the sink.
    pub order_by: Vec<(usize, bool)>,
    /// `LIMIT n`, applied by the sink after any ordering.
    pub limit: Option<usize>,
    /// `RETURN DISTINCT` on a projection return.
    pub distinct: bool,
    /// How the extend order was chosen.
    pub order_source: OrderSource,
    /// Estimated cardinality after each step, parallel to `steps`
    /// (`None` when the catalog carries no statistics).
    pub step_cards: Vec<Option<f64>>,
    /// Estimated number of output rows the sink produces (groups for a
    /// grouped return, matches for a projection); `None` without
    /// statistics. Sink-aware costing: grouped sinks never enumerate the
    /// flat result, so their cost is bounded by this, not by the final
    /// step cardinality.
    pub sink_card: Option<f64>,
    /// The type of every parameter [`PlanScalar::Param`] reads, by index:
    /// empty for a plan whose literals are inlined, which is every plan
    /// except a [`plan_template`] one.
    pub params: Vec<DataType>,
}

impl LogicalPlan {
    /// Fail unless this is a literal-inlined plan run without parameter
    /// values: what `engine` accepts when it keeps no plan cache.
    pub fn require_literals(&self, engine: &str, params: &[Value]) -> Result<()> {
        if self.params.is_empty() && params.is_empty() {
            Ok(())
        } else {
            Err(Error::Plan(format!(
                "{engine} runs literal-inlined plans only; this plan has {} parameter(s) and \
                 {} value(s) were supplied",
                self.params.len(),
                params.len()
            )))
        }
    }
}

/// Knobs of the planning pass itself (not of any single query).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Push eligible scan-node filter conjuncts into the scan step
    /// (`PlanStep::ScanAll::pushed`), enabling zone-map block skipping and
    /// selection-aware property reads. On by default; off only in the
    /// reference plans that pushdown is checked and measured against.
    pub pushdown: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { pushdown: true }
    }
}

impl PlanOptions {
    /// Planning with filter pushdown disabled (every predicate stays a
    /// `Filter` step).
    pub fn no_pushdown() -> PlanOptions {
        PlanOptions { pushdown: false }
    }
}

/// Plan `query` against `catalog` under [`PlanOptions::default`].
pub fn plan(query: &PatternQuery, catalog: &Catalog) -> Result<LogicalPlan> {
    plan_with(query, catalog, &PlanOptions::default())
}

/// Plan `query` against `catalog` under explicit [`PlanOptions`].
pub fn plan_with(
    query: &PatternQuery,
    catalog: &Catalog,
    opts: &PlanOptions,
) -> Result<LogicalPlan> {
    // Hand-assembled queries get the same structural validation the fluent
    // builder runs in `try_build` — identical `[rule]`-tagged errors from
    // both entry points (previously an out-of-range edge endpoint would
    // panic here instead of erroring).
    query.validate()?;
    Planner { query, catalog, opts: *opts, params: &[] }.run()
}

/// Plan a query template under [`PlanOptions::default`]: every
/// [`Scalar::Param`]`(i)` becomes [`PlanScalar::Param`]`(i)` of type
/// `params[i]`, and the planner never sees a parameter's value. When
/// [`PatternQuery::literal_invariant`] holds, the plan is therefore the one
/// [`plan`] builds for the template with any values of those types
/// inlined, and may be run again with new values; otherwise a range
/// comparison was costed without its value, and the caller should plan
/// the inlined query instead.
pub fn plan_template(
    query: &PatternQuery,
    catalog: &Catalog,
    params: &[DataType],
) -> Result<LogicalPlan> {
    query.validate()?;
    Planner { query, catalog, opts: PlanOptions::default(), params }.run()
}

struct Planner<'a> {
    query: &'a PatternQuery,
    catalog: &'a Catalog,
    opts: PlanOptions,
    /// Parameter types of a template; empty for a literal-inlined query.
    params: &'a [DataType],
}

impl Planner<'_> {
    fn run(self) -> Result<LogicalPlan> {
        let q = self.query;
        if q.nodes.is_empty() {
            return Err(Error::Plan("pattern has no nodes".into()));
        }

        // Resolve node labels.
        let mut nodes = Vec::with_capacity(q.nodes.len());
        for n in &q.nodes {
            nodes.push(PlanNode {
                var: n.var.clone(),
                label: self.catalog.vertex_label_id(&n.label)?,
            });
        }
        // Resolve edge labels and check endpoint consistency.
        let mut edges = Vec::with_capacity(q.edges.len());
        for e in &q.edges {
            let label = self.catalog.edge_label_id(&e.label)?;
            let def = self.catalog.edge_label(label);
            if def.src != nodes[e.from].label || def.dst != nodes[e.to].label {
                return Err(Error::Plan(format!(
                    "edge {} connects labels ({}, {}), pattern has ({}, {})",
                    e.label, def.src, def.dst, nodes[e.from].label, nodes[e.to].label
                )));
            }
            edges.push(PlanEdge { var: e.var.clone(), label, from: e.from, to: e.to });
        }

        // Detect a primary-key equality predicate usable as a seek, e.g.
        // `p.id = 22468883` on the start variable.
        let mut pk_seek: Option<(usize, PlanScalar, usize)> = None; // (node, key, pred idx)
        for (pi, pred) in q.predicates.iter().enumerate() {
            if let Expr::Cmp { op: CmpOp::Eq, lhs, rhs } = pred {
                let (pref, konst) = match (lhs, rhs) {
                    (Scalar::Prop(p), k @ (Scalar::Const(_) | Scalar::Param(_)))
                    | (k @ (Scalar::Const(_) | Scalar::Param(_)), Scalar::Prop(p)) => (p, k),
                    _ => continue,
                };
                let Some(node) = q.node_idx(&pref.var) else { continue };
                let def = self.catalog.vertex_label(nodes[node].label);
                let Some(pk_idx) = def.primary_key else { continue };
                if def.properties[pk_idx].name != pref.prop {
                    continue;
                }
                let key = match konst {
                    Scalar::Const(c) => match c.as_i64() {
                        Some(k) => PlanScalar::Const(Value::Int64(k)),
                        None => continue,
                    },
                    Scalar::Param(i) => match self.params.get(*i) {
                        Some(DataType::Int64 | DataType::Date) => PlanScalar::Param(*i),
                        _ => continue,
                    },
                    Scalar::Prop(_) => continue,
                };
                pk_seek = Some((node, key, pi));
                break;
            }
        }

        let pk_node = pk_seek.as_ref().map(|(n, _, _)| *n);

        // Resolve an explicit start hint early so unknown variables error
        // on every path.
        let hint_start = match &q.hints.start {
            Some(var) => Some(
                q.node_idx(var)
                    .ok_or_else(|| Error::Plan(format!("unknown start variable {var}")))?,
            ),
            None => None,
        };

        // Order the edges. Three sources, in precedence order:
        //   1. an `edge_order` hint — validated, then honored verbatim;
        //   2. the cost-based orderer, when the catalog carries statistics;
        //   3. declaration order (first-incident-to-bound), the paper's
        //      hand-picked-plan policy.
        let (start, extend_seq, order_source) = if let Some(o) = &q.hints.edge_order {
            validate_edge_order(o, edges.len())?;
            let start = match (hint_start, pk_node) {
                (Some(s), _) => s,
                (None, Some(node))
                    if o.first()
                        .is_none_or(|&e0| edges[e0].from == node || edges[e0].to == node) =>
                {
                    node
                }
                (None, _) => o.first().map_or(0, |&e0| edges[e0].from),
            };
            let seq = self.bind_hinted(start, o, &nodes, &edges)?;
            (start, seq, OrderSource::Hints)
        } else {
            // Resolve predicates against scratch slots for the cost model
            // (also surfaces unknown-variable/property errors early).
            let mut scratch_slots: Vec<SlotDef> = Vec::new();
            let scratch_preds: Vec<PlanExpr> = q
                .predicates
                .iter()
                .map(|p| self.resolve_expr(p, &nodes, &edges, &mut scratch_slots))
                .collect::<Result<_>>()?;
            let preds = optimize::PredSel::new(
                &scratch_preds,
                &scratch_slots,
                &nodes,
                &edges,
                self.catalog,
            );
            let chosen =
                optimize::choose_order(&nodes, &edges, self.catalog, &preds, pk_node, hint_start);
            match chosen {
                Some(o) => (o.start, o.seq, OrderSource::Stats),
                None => {
                    let start = hint_start.or(pk_node).unwrap_or(0);
                    let seq = self.bind_declaration(start, &nodes, &edges)?;
                    (start, seq, OrderSource::Declaration)
                }
            }
        };
        // Only use the seek if it is on the start node.
        let pk_seek = pk_seek.filter(|(node, _, _)| *node == start);

        // Slot assignment: every distinct PropRef used in predicates or
        // returns gets one slot.
        let prop_refs = q.predicates.iter().map(prop_ref_count).sum::<usize>()
            + match &q.ret {
                ReturnSpec::CountStar => 0,
                ReturnSpec::Props(ps) => ps.len(),
                ReturnSpec::Sum(_) | ReturnSpec::Min(_) | ReturnSpec::Max(_) => 1,
                ReturnSpec::GroupBy { keys, aggs } => keys.len() + aggs.len(),
            };
        let mut slots: Vec<SlotDef> = Vec::with_capacity(prop_refs);

        // Resolve predicates (skipping the one consumed by the pk seek).
        let mut resolved_preds: Vec<PlanExpr> =
            Vec::with_capacity(q.predicates.len() - usize::from(pk_seek.is_some()));
        for (pi, pred) in q.predicates.iter().enumerate() {
            if pk_seek.as_ref().map(|(_, _, skip)| *skip) == Some(pi) {
                continue;
            }
            resolved_preds.push(self.resolve_expr(pred, &nodes, &edges, &mut slots)?);
        }

        // Return clause. The header is collected straight into its shared
        // slice: one allocation for the names' array.
        let (ret, header): (PlanReturn, Arc<[String]>) = match &q.ret {
            ReturnSpec::CountStar => (PlanReturn::CountStar, Arc::from(["count(*)".to_owned()])),
            ReturnSpec::Props(ps) => {
                let mut ids = Vec::with_capacity(ps.len());
                for p in ps {
                    ids.push(self.slot_of(p, true, &nodes, &edges, &mut slots)?);
                }
                (PlanReturn::Props(ids), ps.iter().map(|p| dotted(&p.var, &p.prop)).collect())
            }
            ReturnSpec::Sum(p) => {
                let s = self.agg_slot_of(p, "SUM", &nodes, &edges, &mut slots)?;
                (PlanReturn::Sum(s), Arc::from([format!("sum({}.{})", p.var, p.prop)]))
            }
            ReturnSpec::Min(p) => {
                let s = self.agg_slot_of(p, "MIN", &nodes, &edges, &mut slots)?;
                (PlanReturn::Min(s), Arc::from([format!("min({}.{})", p.var, p.prop)]))
            }
            ReturnSpec::Max(p) => {
                let s = self.agg_slot_of(p, "MAX", &nodes, &edges, &mut slots)?;
                (PlanReturn::Max(s), Arc::from([format!("max({}.{})", p.var, p.prop)]))
            }
            ReturnSpec::GroupBy { keys, aggs } => {
                let mut key_ids = Vec::with_capacity(keys.len());
                for k in keys {
                    // Keys are materialized per output row (strings decode
                    // at the sink, like projection columns).
                    key_ids.push(self.slot_of(k, true, &nodes, &edges, &mut slots)?);
                }
                let mut plan_aggs = Vec::with_capacity(aggs.len());
                for a in aggs {
                    let slot = match &a.prop {
                        None => None,
                        Some(p) => Some(self.agg_slot_of(
                            p,
                            agg_name(a.func),
                            &nodes,
                            &edges,
                            &mut slots,
                        )?),
                    };
                    plan_aggs.push(PlanAgg { func: a.func, slot });
                }
                let header = keys
                    .iter()
                    .map(|k| dotted(&k.var, &k.prop))
                    .chain(aggs.iter().map(agg_header))
                    .collect();
                (PlanReturn::GroupBy { keys: key_ids, aggs: plan_aggs }, header)
            }
        };

        // The slot table is final: name its entries.
        for def in &mut slots {
            def.name = self.slot_name(def.source, &nodes, &edges);
        }

        // Resolve ORDER BY keys against the output columns.
        let mut order_by = Vec::with_capacity(q.order_by.len());
        for k in &q.order_by {
            if k.col >= header.len() {
                return Err(Error::Plan(format!(
                    "order_by column {} is out of range: the query returns {} columns",
                    k.col,
                    header.len()
                )));
            }
            order_by.push((k.col, k.dir == SortDir::Desc));
        }

        // Emit steps: scan, then per extend: bind node, read props that
        // become available, apply filters whose slots are all filled.
        // One scan, one step per extend, at most one read per slot and one
        // filter per predicate.
        let mut steps: Vec<PlanStep> =
            Vec::with_capacity(1 + extend_seq.len() + slots.len() + resolved_preds.len());
        match pk_seek {
            Some((node, key, _)) => steps.push(PlanStep::ScanPk { node, key }),
            None => steps.push(PlanStep::ScanAll { node: start, pushed: Vec::new() }),
        }

        // Which nodes and edges are bound and which slots filled so far: one
        // allocation, split three ways.
        let mut marks = vec![false; nodes.len() + edges.len() + slots.len()];
        let (node_bound, marks_rest) = marks.split_at_mut(nodes.len());
        let (edge_bound, slot_filled) = marks_rest.split_at_mut(edges.len());
        node_bound[start] = true;
        // A predicate moves into its `Filter` step once its slots are filled.
        let mut pending: Vec<Option<PlanExpr>> = resolved_preds.into_iter().map(Some).collect();

        let emit_available = |steps: &mut Vec<PlanStep>,
                              node_bound: &[bool],
                              edge_bound: &[bool],
                              slot_filled: &mut [bool],
                              pending: &mut [Option<PlanExpr>]| {
            for (si, def) in slots.iter().enumerate() {
                if slot_filled[si] {
                    continue;
                }
                match def.source {
                    SlotSource::NodeProp { node, prop } if node_bound[node] => {
                        steps.push(PlanStep::NodeProp { node, prop, slot: si });
                        slot_filled[si] = true;
                    }
                    SlotSource::EdgeProp { edge, prop } if edge_bound[edge] => {
                        steps.push(PlanStep::EdgeProp { edge, prop, slot: si });
                        slot_filled[si] = true;
                    }
                    _ => {}
                }
            }
            for pred in pending.iter_mut() {
                if pred.as_ref().is_some_and(|p| p.all_slots(|s| slot_filled[s])) {
                    if let Some(expr) = pred.take() {
                        steps.push(PlanStep::Filter { expr });
                    }
                }
            }
        };

        emit_available(&mut steps, node_bound, edge_bound, slot_filled, &mut pending);
        for (ei, dir, from, to) in extend_seq {
            steps.push(PlanStep::Extend {
                edge: ei,
                edge_label: edges[ei].label,
                dir,
                from,
                to,
                single: self.catalog.column_extend(edges[ei].label, dir),
                counted: false,
            });
            node_bound[to] = true;
            edge_bound[ei] = true;
            emit_available(&mut steps, node_bound, edge_bound, slot_filled, &mut pending);
        }

        if let Some(pi) = pending.iter().position(Option::is_some) {
            return Err(Error::Plan(format!(
                "predicate {pi} references variables never bound by the pattern"
            )));
        }

        // Filter pushdown: move every pushable conjunct over the scanned
        // node's properties out of its `Filter` step and into the scan
        // itself, where it is evaluated over column blocks before any
        // property read and whole blocks are skipped via zone maps. Semantically a
        // no-op (the same mask is ANDed into the scan group either way),
        // so `PlanOptions::no_pushdown` exists only as the reference plan
        // of the equivalence suite and the `scan_pushdown` bench.
        if self.opts.pushdown {
            if let Some(PlanStep::ScanAll { node: scan_node, .. }) = steps.first() {
                let scan_node = *scan_node;
                let mut pushed: Vec<PlanExpr> = Vec::new();
                steps.retain(|s| match s {
                    PlanStep::Filter { expr } if is_pushable(expr, &slots, scan_node) => {
                        pushed.push(expr.clone());
                        false
                    }
                    _ => true,
                });
                if let Some(PlanStep::ScanAll { pushed: p, .. }) = steps.first_mut() {
                    *p = pushed;
                }
                // Slots that only fed pushed predicates no longer need a
                // property-read step at all: the scan evaluates directly
                // on the column. Keep reads for every slot the remaining
                // filters or the RETURN clause still touch.
                let mut used = vec![false; slots.len()];
                for s in &steps {
                    if let PlanStep::Filter { expr } = s {
                        expr.for_each_slot(|sl| used[sl] = true);
                    }
                }
                ret.slots().for_each(|s| used[s] = true);
                steps.retain(|s| match s {
                    PlanStep::NodeProp { slot, .. } | PlanStep::EdgeProp { slot, .. } => {
                        used[*slot]
                    }
                    _ => true,
                });
            }
        }

        // The steps are final: mark the extends nothing downstream reads.
        mark_counted(&mut steps, &ret, &slots, nodes.len(), edges.len());

        let step_cards = optimize::estimate_steps(&steps, &nodes, &edges, &slots, self.catalog);
        let sink_card =
            optimize::estimate_sink(&ret, &step_cards, &slots, &nodes, &edges, self.catalog);
        let plan = LogicalPlan {
            nodes,
            edges,
            slots,
            steps,
            ret,
            header,
            order_by,
            limit: q.limit,
            distinct: q.distinct,
            order_source,
            step_cards,
            sink_card,
            params: self.params.to_vec(),
        };
        // Full structural verification ([`crate::verify`]) of every plan:
        // def-before-use dataflow, schema/type flow, pushdown eligibility,
        // bookkeeping — and the unflat-span rule, which rejects a hinted or
        // declaration order whose filter would span two unflat list groups
        // here instead of mid-query (statistics-chosen orders never do).
        crate::verify::verify_plan(&plan, self.catalog)?;
        Ok(plan)
    }

    /// Bind a hinted edge order verbatim: every edge must touch a bound
    /// node when its turn comes (the hint is *not* reinterpreted).
    fn bind_hinted(
        &self,
        start: usize,
        order: &[usize],
        nodes: &[PlanNode],
        edges: &[PlanEdge],
    ) -> Result<Vec<(usize, Direction, usize, usize)>> {
        let mut bound = vec![false; nodes.len()];
        bound[start] = true;
        let mut seq = Vec::with_capacity(order.len());
        for (pos, &ei) in order.iter().enumerate() {
            let e = &edges[ei];
            let (dir, from, to) = match (bound[e.from], bound[e.to]) {
                (true, true) => return Err(cycle_error(e, self.catalog)),
                (true, false) => (Direction::Fwd, e.from, e.to),
                (false, true) => (Direction::Bwd, e.to, e.from),
                (false, false) => {
                    return Err(Error::Plan(format!(
                        "edge_order is not connected: edge {ei} (at position {pos}) touches \
                         no bound node variable"
                    )))
                }
            };
            bound[to] = true;
            seq.push((ei, dir, from, to));
        }
        Ok(seq)
    }

    /// Declaration-order binding (first incident edge wins), the paper's
    /// hand-picked-plan policy and the fallback when no statistics exist.
    fn bind_declaration(
        &self,
        start: usize,
        nodes: &[PlanNode],
        edges: &[PlanEdge],
    ) -> Result<Vec<(usize, Direction, usize, usize)>> {
        let mut bound = vec![false; nodes.len()];
        bound[start] = true;
        let mut seq = Vec::with_capacity(edges.len());
        let mut remaining: Vec<usize> = (0..edges.len()).collect();
        while !remaining.is_empty() {
            let pos = remaining
                .iter()
                .position(|&ei| bound[edges[ei].from] || bound[edges[ei].to])
                .ok_or_else(|| Error::Plan("pattern is disconnected".into()))?;
            let ei = remaining.remove(pos);
            let e = &edges[ei];
            let (dir, from, to) = if bound[e.from] {
                (Direction::Fwd, e.from, e.to)
            } else {
                (Direction::Bwd, e.to, e.from)
            };
            if bound[to] {
                return Err(cycle_error(e, self.catalog));
            }
            bound[to] = true;
            seq.push((ei, dir, from, to));
        }
        Ok(seq)
    }

    /// [`Planner::slot_of`] for aggregate inputs: an undeclared property (or
    /// variable) surfaces as [`Error::Plan`] *naming the property* at plan
    /// time — it used to escape as a bare catalog error and, through the
    /// infallible `build()` path, a panic.
    fn agg_slot_of(
        &self,
        pref: &PropRef,
        func: &str,
        nodes: &[PlanNode],
        edges: &[PlanEdge],
        slots: &mut Vec<SlotDef>,
    ) -> Result<SlotId> {
        self.slot_of(pref, false, nodes, edges, slots).map_err(|e| {
            Error::Plan(format!(
                "{func}({}.{}) aggregates a property the pattern does not declare: {e}",
                pref.var, pref.prop
            ))
        })
    }

    /// Resolve a property reference to its slot, allocating one if needed.
    fn slot_of(
        &self,
        pref: &PropRef,
        for_return: bool,
        nodes: &[PlanNode],
        edges: &[PlanEdge],
        slots: &mut Vec<SlotDef>,
    ) -> Result<SlotId> {
        let q = self.query;
        let source = if let Some(node) = q.node_idx(&pref.var) {
            let prop = self.catalog.vertex_prop_idx(nodes[node].label, &pref.prop)?;
            SlotSource::NodeProp { node, prop }
        } else if let Some(edge) = q.edge_idx(&pref.var) {
            let prop = self.catalog.edge_prop_idx(edges[edge].label, &pref.prop)?;
            SlotSource::EdgeProp { edge, prop }
        } else {
            return Err(Error::Plan(format!("unknown variable {}", pref.var)));
        };
        if let Some(i) = slots.iter().position(|s| s.source == source) {
            slots[i].for_return |= for_return;
            return Ok(i);
        }
        let dtype = match source {
            SlotSource::NodeProp { node, prop } => {
                self.catalog.vertex_label(nodes[node].label).properties[prop].dtype
            }
            SlotSource::EdgeProp { edge, prop } => {
                self.catalog.edge_label(edges[edge].label).properties[prop].dtype
            }
        };
        // Named by `Planner::slot_name` once the table is final: the cost
        // model's scratch tables are never displayed.
        slots.push(SlotDef { source, dtype, for_return, name: String::new() });
        Ok(slots.len() - 1)
    }

    /// `var.prop`, the display name of the slot reading `source`.
    fn slot_name(&self, source: SlotSource, nodes: &[PlanNode], edges: &[PlanEdge]) -> String {
        match source {
            SlotSource::NodeProp { node, prop } => {
                let label = self.catalog.vertex_label(nodes[node].label);
                dotted(&nodes[node].var, &label.properties[prop].name)
            }
            SlotSource::EdgeProp { edge, prop } => {
                let label = self.catalog.edge_label(edges[edge].label);
                dotted(edges[edge].var.as_deref().unwrap_or_default(), &label.properties[prop].name)
            }
        }
    }

    fn resolve_expr(
        &self,
        e: &Expr,
        nodes: &[PlanNode],
        edges: &[PlanEdge],
        slots: &mut Vec<SlotDef>,
    ) -> Result<PlanExpr> {
        Ok(match e {
            Expr::Cmp { op, lhs, rhs } => PlanExpr::Cmp {
                op: *op,
                lhs: self.resolve_scalar(lhs, nodes, edges, slots)?,
                rhs: self.resolve_scalar(rhs, nodes, edges, slots)?,
            },
            Expr::StrMatch { op, prop, pattern } => PlanExpr::StrMatch {
                op: *op,
                slot: self.slot_of(prop, false, nodes, edges, slots)?,
                pattern: pattern.clone(),
            },
            Expr::InSet { prop, values } => PlanExpr::InSet {
                slot: self.slot_of(prop, false, nodes, edges, slots)?,
                values: values.clone(),
            },
            Expr::And(es) => PlanExpr::And(
                es.iter()
                    .map(|e| self.resolve_expr(e, nodes, edges, slots))
                    .collect::<Result<_>>()?,
            ),
            Expr::Or(es) => PlanExpr::Or(
                es.iter()
                    .map(|e| self.resolve_expr(e, nodes, edges, slots))
                    .collect::<Result<_>>()?,
            ),
            Expr::Not(inner) => {
                PlanExpr::Not(Box::new(self.resolve_expr(inner, nodes, edges, slots)?))
            }
        })
    }

    fn resolve_scalar(
        &self,
        s: &Scalar,
        nodes: &[PlanNode],
        edges: &[PlanEdge],
        slots: &mut Vec<SlotDef>,
    ) -> Result<PlanScalar> {
        Ok(match s {
            Scalar::Prop(p) => PlanScalar::Slot(self.slot_of(p, false, nodes, edges, slots)?),
            Scalar::Const(c) => PlanScalar::Const(c.clone()),
            Scalar::Param(i) if *i < self.params.len() => PlanScalar::Param(*i),
            Scalar::Param(i) => {
                return Err(Error::Plan(format!(
                    "query parameter ?{i} has no type: plan a template through plan_template"
                )))
            }
        })
    }
}

/// Set [`PlanStep::Extend::counted`] on every CSR extend whose source list
/// group and new list group no later step and no `RETURN` slot reads, by
/// the list groups [`GroupSim`] places the variables in.
fn mark_counted(
    steps: &mut [PlanStep],
    ret: &PlanReturn,
    slots: &[SlotDef],
    n_nodes: usize,
    n_edges: usize,
) {
    let Ok(sim) = GroupSim::replay(n_nodes, n_edges, steps, |_, _, _| Ok::<(), Infallible>(()));
    for i in 0..steps.len() {
        let PlanStep::Extend { from, to, single: false, .. } = steps[i] else { continue };
        let groups = [sim.group_of_node(from), sim.group_of_node(to)];
        let read = |g: usize| groups.contains(&g);
        let slot_read = |s: SlotId| read(sim.group_of_slot(&slots[s]));
        let later_read = steps[i + 1..].iter().any(|step| match step {
            PlanStep::Extend { from, .. } => read(sim.group_of_node(*from)),
            PlanStep::NodeProp { node, .. } => read(sim.group_of_node(*node)),
            PlanStep::EdgeProp { edge, .. } => read(sim.group_of_edge(*edge)),
            PlanStep::Filter { expr } => !expr.all_slots(|s| !slot_read(s)),
            PlanStep::ScanAll { .. } | PlanStep::ScanPk { .. } => false,
        });
        let ret_read = ret.slots().any(slot_read);
        if let PlanStep::Extend { counted, .. } = &mut steps[i] {
            *counted = !later_read && !ret_read;
        }
    }
}

/// Can `e` be pushed down into a scan of pattern node `node`? Every leaf
/// must compare a single property slot of that node against constants —
/// single-column comparisons, `IN` lists, and string matches (which the
/// predicate compiler pre-evaluates on the dictionary), closed under
/// AND/OR/NOT. Anything touching another variable, two slots, or no slot
/// at all stays a `Filter` step.
pub(crate) fn is_pushable(e: &PlanExpr, slots: &[SlotDef], node: usize) -> bool {
    let on_node =
        |s: &SlotId| matches!(slots[*s].source, SlotSource::NodeProp { node: n, .. } if n == node);
    match e {
        PlanExpr::Cmp { lhs, rhs, .. } => match (lhs, rhs) {
            (PlanScalar::Slot(s), PlanScalar::Const(_) | PlanScalar::Param(_))
            | (PlanScalar::Const(_) | PlanScalar::Param(_), PlanScalar::Slot(s)) => on_node(s),
            _ => false,
        },
        PlanExpr::StrMatch { slot, .. } | PlanExpr::InSet { slot, .. } => on_node(slot),
        PlanExpr::And(es) | PlanExpr::Or(es) => es.iter().all(|e| is_pushable(e, slots, node)),
        PlanExpr::Not(inner) => is_pushable(inner, slots, node),
    }
}

/// Property references in `e`, repeats included: an upper bound on the
/// slots it resolves to.
fn prop_ref_count(e: &Expr) -> usize {
    match e {
        Expr::Cmp { lhs, rhs, .. } => {
            usize::from(matches!(lhs, Scalar::Prop(_)))
                + usize::from(matches!(rhs, Scalar::Prop(_)))
        }
        Expr::StrMatch { .. } | Expr::InSet { .. } => 1,
        Expr::And(es) | Expr::Or(es) => es.iter().map(prop_ref_count).sum(),
        Expr::Not(inner) => prop_ref_count(inner),
    }
}

/// `var.prop`, the name of a slot and of the column that returns it, built
/// in one allocation.
fn dotted(var: &str, prop: &str) -> String {
    let mut s = String::with_capacity(var.len() + 1 + prop.len());
    s.push_str(var);
    s.push('.');
    s.push_str(prop);
    s
}

/// The output column name of aggregate `a`: `count(*)`, `sum(x.p)`,
/// `count(distinct x.p)`.
fn agg_header(a: &Agg) -> String {
    let rendered = a.prop.as_ref().map_or_else(|| "*".to_owned(), |p| dotted(&p.var, &p.prop));
    match a.func {
        AggFunc::Count { distinct: true } => format!("count(distinct {rendered})"),
        _ => format!("{}({rendered})", agg_name(a.func).to_lowercase()),
    }
}

/// Upper-case display name of an aggregate function.
pub fn agg_name(f: AggFunc) -> &'static str {
    match f {
        AggFunc::CountStar | AggFunc::Count { .. } => "COUNT",
        AggFunc::Sum => "SUM",
        AggFunc::Min => "MIN",
        AggFunc::Max => "MAX",
        AggFunc::Avg => "AVG",
    }
}

/// The cyclic-pattern rejection shared by all binding paths. Anonymous
/// edges are identified by their label name, as before the orderer rework.
fn cycle_error(e: &PlanEdge, catalog: &Catalog) -> Error {
    let label = &catalog.edge_label(e.label).name;
    Error::Plan(format!(
        "cyclic pattern at edge {} — only acyclic (tree) patterns are supported; \
         GraphflowDB handles cycles via worst-case-optimal joins [Mhedhbi & \
         Salihoglu 2019], which are outside this paper's scope",
        e.var.as_deref().unwrap_or(label)
    ))
}

/// Validate an `edge_order` hint: it must be a permutation of
/// `0..edges.len()`. Duplicate or out-of-range indexes previously slipped
/// through a length-only check and panicked later at `edges[ei]`; they are
/// now reported as [`Error::Plan`] naming the offending index.
fn validate_edge_order(order: &[usize], n_edges: usize) -> Result<()> {
    if order.len() != n_edges {
        return Err(Error::Plan(format!(
            "edge_order must mention every edge exactly once: got {} entries for {} edges",
            order.len(),
            n_edges
        )));
    }
    let mut seen = vec![false; n_edges];
    for &ei in order {
        if ei >= n_edges {
            return Err(Error::Plan(format!(
                "edge_order index {ei} is out of range: the pattern has {n_edges} edges"
            )));
        }
        if seen[ei] {
            return Err(Error::Plan(format!("edge_order mentions edge {ei} more than once")));
        }
        seen[ei] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{col, gt, lit, PatternQuery};
    use gfcl_storage::RawGraph;

    fn catalog() -> Catalog {
        RawGraph::example().catalog
    }

    fn two_hop() -> PatternQuery {
        PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .node("c", "ORG")
            .edge("e1", "FOLLOWS", "a", "b")
            .edge("e2", "WORKAT", "b", "c")
            .filter(gt(col("a", "age"), lit(50)))
            .filter(gt(col("e1", "since"), lit(2000)))
            .returns_count()
            .build()
    }

    #[test]
    fn plans_left_deep_with_early_filters() {
        let p = plan(&two_hop(), &catalog()).unwrap();
        // The scan-node filter `a.age > 50` is pushed into the scan; since
        // a.age feeds nothing else, its property read disappears entirely.
        // Expect: ScanAll(a, pushed), Extend(e1), EdgeProp(e1.since),
        // Filter, Extend(e2).
        match &p.steps[0] {
            PlanStep::ScanAll { node: 0, pushed } => assert_eq!(pushed.len(), 1),
            s => panic!("expected pushed scan, got {s:?}"),
        }
        assert!(matches!(p.steps[1], PlanStep::Extend { dir: Direction::Fwd, from: 0, to: 1, .. }));
        assert!(matches!(p.steps[2], PlanStep::EdgeProp { edge: 0, .. }));
        assert!(matches!(p.steps[3], PlanStep::Filter { .. }));
        assert!(matches!(
            p.steps[4],
            PlanStep::Extend { dir: Direction::Fwd, from: 1, to: 2, single: true, .. }
        ));
        assert_eq!(p.steps.len(), 5);
    }

    #[test]
    fn pushdown_can_be_disabled() {
        // With pushdown off, the historical shape: ScanAll, NodeProp,
        // Filter, Extend, EdgeProp, Filter, Extend.
        let p = plan_with(&two_hop(), &catalog(), &PlanOptions::no_pushdown()).unwrap();
        assert!(
            matches!(&p.steps[0], PlanStep::ScanAll { pushed, .. } if pushed.is_empty()),
            "{:?}",
            p.steps[0]
        );
        assert!(matches!(p.steps[1], PlanStep::NodeProp { node: 0, .. }));
        assert!(matches!(p.steps[2], PlanStep::Filter { .. }));
        assert_eq!(p.steps.len(), 7);
    }

    #[test]
    fn multi_variable_and_edge_predicates_stay_filters() {
        // An edge predicate and a two-variable predicate must not be
        // pushed; a pushable OR/NOT combination over scan-node props must.
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .edge("e1", "FOLLOWS", "a", "b")
            .filter(crate::query::or(vec![
                gt(col("a", "age"), lit(50)),
                crate::query::eq(col("a", "name"), lit("bob")),
            ]))
            .filter(gt(col("e1", "since"), lit(2000)))
            .filter(gt(col("b", "age"), col("a", "age")))
            .returns_count()
            .build();
        let p = plan(&q, &catalog()).unwrap();
        match &p.steps[0] {
            PlanStep::ScanAll { pushed, .. } => assert_eq!(pushed.len(), 1, "only the OR"),
            s => panic!("expected scan, got {s:?}"),
        }
        let filters = p.steps.iter().filter(|s| matches!(s, PlanStep::Filter { .. })).count();
        assert_eq!(filters, 2, "edge + two-variable predicates stay");
        // a.age still has a read step: the unpushed b.age > a.age needs it.
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::NodeProp { node: 0, prop, .. } if *prop == 1)));
    }

    #[test]
    fn backward_plan_when_started_from_the_far_end() {
        let mut q = two_hop();
        q.hints.start = Some("c".into());
        q.hints.edge_order = Some(vec![1, 0]);
        let p = plan(&q, &catalog()).unwrap();
        let dirs: Vec<Direction> = p
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Extend { dir, .. } => Some(*dir),
                _ => None,
            })
            .collect();
        assert_eq!(dirs, vec![Direction::Bwd, Direction::Bwd]);
    }

    #[test]
    fn rejects_cycles_and_disconnected_patterns() {
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .edge("e1", "FOLLOWS", "a", "b")
            .edge("e2", "FOLLOWS", "b", "a")
            .returns_count()
            .build();
        let err = plan(&q, &catalog()).unwrap_err();
        assert!(err.to_string().contains("cyclic"));

        let q =
            PatternQuery::builder().node("a", "PERSON").node("b", "PERSON").returns_count().build();
        // b is never connected: treat as an error only if an edge exists.
        // A two-node pattern with no edges is degenerate; the planner scans
        // `a` and ignores `b`, which we reject via bound check below.
        let p = plan(&q, &catalog());
        // No edges: plan succeeds with just the scan of `a`.
        assert!(p.is_ok());
    }

    #[test]
    fn rejects_label_mismatch() {
        let q = PatternQuery::builder()
            .node("a", "ORG")
            .node("b", "PERSON")
            .edge("e", "FOLLOWS", "a", "b")
            .returns_count()
            .build();
        assert!(plan(&q, &catalog()).is_err());
    }

    #[test]
    fn slots_are_deduplicated() {
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .filter(gt(col("a", "age"), lit(10)))
            .filter(gt(col("a", "age"), lit(20)))
            .returns(&[("a", "age")])
            .build();
        let p = plan(&q, &catalog()).unwrap();
        assert_eq!(p.slots.len(), 1);
        assert!(p.slots[0].for_return);
        let n_reads = p.steps.iter().filter(|s| matches!(s, PlanStep::NodeProp { .. })).count();
        assert_eq!(n_reads, 1, "shared slot is read once");
    }

    /// Catalog with build-time statistics (the optimizer's precondition).
    fn catalog_with_stats() -> Catalog {
        use gfcl_storage::{ColumnarGraph, StorageConfig};
        ColumnarGraph::build(&RawGraph::example(), StorageConfig::default())
            .unwrap()
            .catalog()
            .clone()
    }

    #[test]
    fn edge_order_with_duplicate_index_is_a_plan_error() {
        // Regression: a duplicate index passed the length-only check and
        // panicked later at `edges[ei]` bookkeeping; it must be a plan
        // error naming the offending index.
        let mut q = two_hop();
        q.hints.edge_order = Some(vec![0, 0]);
        let err = plan(&q, &catalog()).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err:?}");
        assert!(err.to_string().contains("edge 0 more than once"), "{err}");
    }

    #[test]
    fn edge_order_with_out_of_range_index_is_a_plan_error() {
        let mut q = two_hop();
        q.hints.edge_order = Some(vec![0, 5]);
        let err = plan(&q, &catalog()).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err:?}");
        assert!(err.to_string().contains("index 5 is out of range"), "{err}");
        // Wrong length is still rejected.
        let mut q = two_hop();
        q.hints.edge_order = Some(vec![0]);
        let err = plan(&q, &catalog()).unwrap_err();
        assert!(err.to_string().contains("every edge exactly once"), "{err}");
    }

    #[test]
    fn disconnected_edge_order_is_a_plan_error() {
        // Start at `a`; hinting e2 (b->c) first leaves it with no bound
        // endpoint, and the hint is honored verbatim rather than reordered.
        let mut q = two_hop();
        q.hints.start = Some("a".into());
        q.hints.edge_order = Some(vec![1, 0]);
        let err = plan(&q, &catalog()).unwrap_err();
        assert!(err.to_string().contains("not connected"), "{err}");
    }

    #[test]
    fn optimizer_starts_from_the_selective_end() {
        // 2-hop FOLLOWS chain with an equality filter on the far end: with
        // statistics, the planner starts there and traverses backward.
        let cat = catalog_with_stats();
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .node("c", "PERSON")
            .edge("e1", "FOLLOWS", "a", "b")
            .edge("e2", "FOLLOWS", "b", "c")
            .filter(crate::query::eq(col("c", "age"), lit(17)))
            .returns_count()
            .build();
        let p = plan(&q, &cat).unwrap();
        assert_eq!(p.order_source, OrderSource::Stats);
        assert!(matches!(p.steps[0], PlanStep::ScanAll { node: 2, .. }), "{:?}", p.steps[0]);
        let dirs: Vec<Direction> = p
            .steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Extend { dir, .. } => Some(*dir),
                _ => None,
            })
            .collect();
        assert_eq!(dirs, vec![Direction::Bwd, Direction::Bwd]);
        // Estimates are attached to every step.
        assert!(p.step_cards.iter().all(Option::is_some));
        // Without statistics the same query starts at `a` in declaration
        // order (the paper's policy), with no estimates.
        let p = plan(&q, &catalog()).unwrap();
        assert_eq!(p.order_source, OrderSource::Declaration);
        assert!(matches!(p.steps[0], PlanStep::ScanAll { node: 0, .. }));
        assert!(p.step_cards.iter().all(Option::is_none));
    }

    #[test]
    fn optimizer_respects_a_start_hint() {
        let cat = catalog_with_stats();
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .node("c", "PERSON")
            .edge("e1", "FOLLOWS", "a", "b")
            .edge("e2", "FOLLOWS", "b", "c")
            .filter(crate::query::eq(col("c", "age"), lit(17)))
            .returns_count()
            .start_at("a")
            .build();
        let p = plan(&q, &cat).unwrap();
        assert_eq!(p.order_source, OrderSource::Stats);
        assert!(matches!(p.steps[0], PlanStep::ScanAll { node: 0, .. }));
    }

    #[test]
    fn inexecutable_hinted_order_is_rejected_at_plan_time() {
        // Chain predicate e2.since > e1.since: starting in the middle and
        // extending both ways leaves e1 and e2 in two different unflat list
        // groups when the filter becomes evaluable — the LBP cannot run
        // that, and the planner must say so before execution starts.
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .node("c", "PERSON")
            .edge("e1", "FOLLOWS", "a", "b")
            .edge("e2", "FOLLOWS", "b", "c")
            .filter(gt(col("e2", "since"), col("e1", "since")))
            .returns_count()
            .start_at("b")
            .edge_order(vec![1, 0])
            .build();
        let err = plan(&q, &catalog()).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err:?}");
        assert!(err.to_string().contains("unflat"), "{err}");
        // The optimizer, by contrast, never picks such an order.
        let mut q = q;
        q.hints = Default::default();
        let p = plan(&q, &catalog_with_stats()).unwrap();
        assert_eq!(p.order_source, OrderSource::Stats);
    }

    #[test]
    fn pk_seek_is_detected() {
        let mut cat = catalog();
        cat.set_primary_key(0, "age").unwrap(); // age as a stand-in pk
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .edge("e", "FOLLOWS", "a", "b")
            .filter(crate::query::eq(col("a", "age"), lit(45)))
            .returns_count()
            .build();
        let p = plan(&q, &cat).unwrap();
        assert!(matches!(
            p.steps[0],
            PlanStep::ScanPk { node: 0, key: PlanScalar::Const(Value::Int64(45)) }
        ));
        // The pk predicate is consumed by the seek.
        assert!(!p.steps.iter().any(|s| matches!(s, PlanStep::Filter { .. })));
    }
}
