//! Static verification of [`LogicalPlan`] structural invariants.
//!
//! Six PRs of growth piled implicit invariants into the plan→exec seam:
//! unflat-span executability, selection-mask ownership (exactly one scan
//! group seeds the mask), def-before-use dataflow, pushdown eligibility,
//! cardinality bookkeeping. Until now they were enforced only where each
//! happened to matter — inside order enumeration, or at runtime by the
//! equivalence suites catching symptoms. This module checks all of them in
//! one pass over the finished plan, as a dataflow typecheck, *before* any
//! engine compiles it.
//!
//! [`verify_plan`] runs from [`crate::plan::plan_with`] on every plan —
//! there is no switch — and again from the EXPLAIN renderer, which prints
//! the `verified: N invariants` line. The step walk reads list groups from
//! `GroupSim`, the model the order search and the renderer share, and
//! the `extend-schema` rule holds each extend's `single` flag to
//! [`Catalog::column_extend`], the predicate the columnar build stores the
//! label by; its `unflat-span` rule is what rejects a hinted or
//! declaration order the list-based processor cannot run.
//! Violations are [`Error::Plan`] values naming the violated rule, the
//! offending step and the variable or slot involved, e.g.
//!
//! ```text
//! plan verifier: [def-before-use] step 4 (FILTER): slot $2 (b.age) is
//! read before any property step fills it
//! ```
//!
//! The rule catalog (the `[...]` tags above) is documented in
//! `ARCHITECTURE.md`, "Plan verification & conformance lints". To add a
//! rule: pick a tag, add `ensure` calls in the matching phase of
//! `Verifier::run`, and cover it with a seeded corruption in
//! `crates/core/tests/verify_mutations.rs`.

use gfcl_common::{DataType, Direction, Error, Result, Value};
use gfcl_storage::Catalog;

use crate::optimize::GroupSim;
use crate::plan::{
    is_pushable, LogicalPlan, PlanAgg, PlanExpr, PlanReturn, PlanScalar, PlanStep, SlotSource,
};
use crate::query::AggFunc;

/// Outcome of a successful verification: how many individual invariant
/// checks the pass evaluated (deterministic per plan; EXPLAIN renders it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyReport {
    /// Number of invariant checks evaluated (all passed).
    pub checks: usize,
}

/// Walk `plan` and check every structural invariant the executor and sinks
/// rely on. Returns the number of checks evaluated, or the first violation
/// as a structured [`Error::Plan`] naming rule, step and variable.
pub fn verify_plan(plan: &LogicalPlan, catalog: &Catalog) -> Result<VerifyReport> {
    #[cfg(test)]
    VERIFIED.with(|n| n.set(n.get() + 1));
    let mut v = Verifier { plan, catalog, checks: 0 };
    v.run()?;
    Ok(VerifyReport { checks: v.checks })
}

#[cfg(test)]
thread_local! {
    /// Plans [`verify_plan`] checked on this thread, counted by the tests
    /// that check who verifies.
    pub(crate) static VERIFIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

struct Verifier<'a> {
    plan: &'a LogicalPlan,
    catalog: &'a Catalog,
    checks: usize,
}

/// Can values of these two column/constant types ever compare non-UNKNOWN
/// under [`Value::compare`]? The numeric family is `Int64`/`Date` and
/// `Int64`/`Float64`; `Date`/`Float64`, `Bool` and `String` only compare
/// with themselves.
fn comparable(a: DataType, b: DataType) -> bool {
    use DataType::{Date, Float64, Int64};
    a == b || matches!((a, b), (Int64, Date | Float64) | (Date | Float64, Int64))
}

fn step_kind(s: &PlanStep) -> &'static str {
    match s {
        PlanStep::ScanAll { .. } => "SCAN",
        PlanStep::ScanPk { .. } => "SCAN_PK",
        PlanStep::Extend { .. } => "EXTEND",
        PlanStep::NodeProp { .. } => "PROP",
        PlanStep::EdgeProp { .. } => "PROP",
        PlanStep::Filter { .. } => "FILTER",
    }
}

impl Verifier<'_> {
    /// Evaluate one invariant check: count it, and turn a failure into a
    /// structured [`Error::Plan`] tagged with its rule name.
    fn ensure(&mut self, ok: bool, rule: &str, msg: impl FnOnce() -> String) -> Result<()> {
        self.checks += 1;
        if ok {
            Ok(())
        } else {
            Err(Error::Plan(format!("plan verifier: [{rule}] {}", msg())))
        }
    }

    fn run(&mut self) -> Result<()> {
        self.check_tables()?;
        let sim = self.check_steps()?;
        self.check_counted(&sim)?;
        self.check_sink()?;
        self.check_cards()?;
        Ok(())
    }

    /// Phase 1 — the node/edge/slot tables themselves: every label, endpoint
    /// and property index resolves in the catalog, and every slot's declared
    /// dtype matches the property it reads (`slot-schema`). Runs first so
    /// later phases can index the tables without re-checking bounds.
    fn check_tables(&mut self) -> Result<()> {
        let p = self.plan;
        for (i, n) in p.nodes.iter().enumerate() {
            self.ensure(
                (n.label as usize) < self.catalog.vertex_label_count(),
                "index-range",
                || format!("node {i} ({}) has unknown vertex label {}", n.var, n.label),
            )?;
        }
        for (i, e) in p.edges.iter().enumerate() {
            self.ensure(
                (e.label as usize) < self.catalog.edge_label_count(),
                "index-range",
                || format!("edge {i} has unknown edge label {}", e.label),
            )?;
            self.ensure(e.from < p.nodes.len() && e.to < p.nodes.len(), "index-range", || {
                format!("edge {i} endpoints ({}, {}) exceed the node table", e.from, e.to)
            })?;
            let def = self.catalog.edge_label(e.label);
            self.ensure(
                def.src == p.nodes[e.from].label && def.dst == p.nodes[e.to].label,
                "extend-schema",
                || {
                    format!(
                        "edge {i} ({}) connects labels ({}, {}) in the catalog but \
                         ({}, {}) in the plan",
                        def.name, def.src, def.dst, p.nodes[e.from].label, p.nodes[e.to].label
                    )
                },
            )?;
        }
        for (i, s) in p.slots.iter().enumerate() {
            // `(label name, property name)` of the catalog property read.
            let (dtype, label, prop_name) = match s.source {
                SlotSource::NodeProp { node, prop } => {
                    self.ensure(node < p.nodes.len(), "index-range", || {
                        format!("slot ${i} ({}) references unknown node {node}", s.name)
                    })?;
                    let def = self.catalog.vertex_label(p.nodes[node].label);
                    self.ensure(prop < def.properties.len(), "index-range", || {
                        format!(
                            "slot ${i} ({}) references property {prop} of label {}, which \
                             has {} properties",
                            s.name,
                            def.name,
                            def.properties.len()
                        )
                    })?;
                    (def.properties[prop].dtype, &def.name, &def.properties[prop].name)
                }
                SlotSource::EdgeProp { edge, prop } => {
                    self.ensure(edge < p.edges.len(), "index-range", || {
                        format!("slot ${i} ({}) references unknown edge {edge}", s.name)
                    })?;
                    let def = self.catalog.edge_label(p.edges[edge].label);
                    self.ensure(prop < def.properties.len(), "index-range", || {
                        format!(
                            "slot ${i} ({}) references property {prop} of edge label {}, \
                             which has {} properties",
                            s.name,
                            def.name,
                            def.properties.len()
                        )
                    })?;
                    (def.properties[prop].dtype, &def.name, &def.properties[prop].name)
                }
            };
            self.ensure(s.dtype == dtype, "slot-schema", || {
                format!(
                    "slot ${i} ({}) is declared {:?} but {label}.{prop_name} is {dtype:?} in the \
                     catalog",
                    s.name, s.dtype
                )
            })?;
        }
        Ok(())
    }

    /// Phase 2 — the step sequence: scan placement, def-before-use dataflow,
    /// extend schema and layout consistency, pushed-predicate eligibility,
    /// and the unflat-span rule, checked on a [`GroupSim::replay`] of the
    /// steps. Returns the finished group walk.
    fn check_steps(&mut self) -> Result<GroupSim> {
        let p = self.plan;
        self.ensure(!p.steps.is_empty(), "scan-first", || "plan has no steps".into())?;
        self.ensure(
            matches!(p.steps.first(), Some(PlanStep::ScanAll { .. } | PlanStep::ScanPk { .. })),
            "scan-first",
            || "step 1 must be a scan (the scan group seeds the selection mask)".into(),
        )?;

        // Bound nodes, bound edges, filled slots: one allocation, split.
        let mut marks = vec![false; p.nodes.len() + p.edges.len() + p.slots.len()];
        let (node_bound, marks_rest) = marks.split_at_mut(p.nodes.len());
        let (edge_bound, slot_filled) = marks_rest.split_at_mut(p.edges.len());
        let sim = GroupSim::replay(p.nodes.len(), p.edges.len(), &p.steps, |i, step, sim| {
            let at = i + 1; // EXPLAIN numbers steps from 1; error messages match
            let kind = step_kind(step);
            if i > 0 {
                self.ensure(
                    !matches!(step, PlanStep::ScanAll { .. } | PlanStep::ScanPk { .. }),
                    "scan-first",
                    || {
                        format!(
                            "step {at} ({kind}): a second scan would seed a second selection \
                             mask; exactly one scan group is allowed"
                        )
                    },
                )?;
            }
            match step {
                PlanStep::ScanAll { node, pushed } => {
                    self.ensure(*node < p.nodes.len(), "index-range", || {
                        format!("step {at} ({kind}): scan node {node} exceeds the node table")
                    })?;
                    node_bound[*node] = true;
                    for e in pushed {
                        self.check_expr(e, at, kind)?;
                        self.ensure(is_pushable(e, &p.slots, *node), "pushed-scan-only", || {
                            format!(
                                "step {at} ({kind}): pushed predicate must compare properties \
                                 of the scanned node ({}) against constants only",
                                p.nodes[*node].var
                            )
                        })?;
                    }
                }
                PlanStep::ScanPk { node, key } => {
                    self.ensure(*node < p.nodes.len(), "index-range", || {
                        format!("step {at} ({kind}): scan node {node} exceeds the node table")
                    })?;
                    if let PlanScalar::Param(i) = key {
                        let dtype = self.param_type(*i, at, kind)?;
                        self.ensure(
                            matches!(dtype, DataType::Int64 | DataType::Date),
                            "expr-type",
                            || {
                                format!(
                                    "step {at} ({kind}): seeks by parameter ?{i} of type \
                                     {dtype:?}; a primary key is an integer"
                                )
                            },
                        )?;
                    }
                    let def = self.catalog.vertex_label(p.nodes[*node].label);
                    self.ensure(def.primary_key.is_some(), "extend-schema", || {
                        format!("step {at} ({kind}): label {} has no primary key to seek", def.name)
                    })?;
                    node_bound[*node] = true;
                }
                PlanStep::Extend { edge, edge_label, dir, from, to, single, .. } => {
                    self.ensure(*edge < p.edges.len(), "index-range", || {
                        format!("step {at} ({kind}): edge {edge} exceeds the edge table")
                    })?;
                    self.ensure(
                        *from < p.nodes.len() && *to < p.nodes.len(),
                        "index-range",
                        || {
                            format!(
                            "step {at} ({kind}): endpoints ({from}, {to}) exceed the node table"
                        )
                        },
                    )?;
                    let pe = &p.edges[*edge];
                    self.ensure(*edge_label == pe.label, "extend-schema", || {
                        format!(
                            "step {at} ({kind}): traverses label {edge_label} but pattern \
                             edge {edge} has label {}",
                            pe.label
                        )
                    })?;
                    let expected = match dir {
                        Direction::Fwd => (pe.from, pe.to),
                        Direction::Bwd => (pe.to, pe.from),
                    };
                    self.ensure((*from, *to) == expected, "extend-schema", || {
                        format!(
                            "step {at} ({kind}): {dir:?} traversal of edge {edge} must go \
                             {} -> {}, plan says {from} -> {to}",
                            expected.0, expected.1
                        )
                    })?;
                    let column = self.catalog.column_extend(pe.label, *dir);
                    self.ensure(*single == column, "extend-schema", || {
                        format!(
                            "step {at} ({kind}): single={single} contradicts catalog layout: \
                             label {} extends through a {} in {dir:?}",
                            self.catalog.edge_label(pe.label).name,
                            if column { "vertex column" } else { "CSR" }
                        )
                    })?;
                    self.ensure(node_bound[*from], "def-before-use", || {
                        format!(
                            "step {at} ({kind}): extends from unbound node ({})",
                            p.nodes[*from].var
                        )
                    })?;
                    self.ensure(!node_bound[*to], "def-before-use", || {
                        format!(
                            "step {at} ({kind}): target node ({}) is already bound — only \
                             acyclic (tree) patterns execute",
                            p.nodes[*to].var
                        )
                    })?;
                    self.ensure(!edge_bound[*edge], "def-before-use", || {
                        format!("step {at} ({kind}): edge {edge} is traversed twice")
                    })?;
                    node_bound[*to] = true;
                    edge_bound[*edge] = true;
                }
                PlanStep::NodeProp { node, prop, slot } => {
                    self.check_prop_read(at, kind, *slot, slot_filled, || SlotSource::NodeProp {
                        node: *node,
                        prop: *prop,
                    })?;
                    self.ensure(node_bound[*node], "def-before-use", || {
                        format!(
                            "step {at} ({kind}): reads a property of unbound node ({})",
                            p.nodes[*node].var
                        )
                    })?;
                }
                PlanStep::EdgeProp { edge, prop, slot } => {
                    self.check_prop_read(at, kind, *slot, slot_filled, || SlotSource::EdgeProp {
                        edge: *edge,
                        prop: *prop,
                    })?;
                    self.ensure(edge_bound[*edge], "def-before-use", || {
                        format!("step {at} ({kind}): reads a property of unbound edge {edge}")
                    })?;
                }
                PlanStep::Filter { expr } => {
                    self.check_expr(expr, at, kind)?;
                    expr.try_for_each_slot(&mut |s| {
                        self.ensure(slot_filled[s], "def-before-use", || {
                            format!(
                                "step {at} ({kind}): slot ${s} ({}) is read before any \
                                 property step fills it",
                                p.slots[s].name
                            )
                        })
                    })?;
                    self.ensure(!sim.expr_spans_unflat(expr, &p.slots), "unflat-span", || {
                        let mut groups: Vec<usize> = expr
                            .slots()
                            .iter()
                            .map(|&s| sim.group_of_slot(&p.slots[s]))
                            .filter(|&g| sim.is_unflat(g))
                            .collect();
                        groups.sort_unstable();
                        groups.dedup();
                        format!(
                            "step {at} ({kind}): predicate spans {} unflat list groups; the \
                             list-based processor evaluates a filter over at most one",
                            groups.len()
                        )
                    })?;
                }
            }
            Ok(())
        })?;

        // Every node the plan *uses* — an edge endpoint or a property
        // source — must be bound by the end. (A degenerate edge-less
        // pattern may declare nodes it never touches; the planner scans
        // only the start node, and that is pinned behavior.)
        for (i, b) in node_bound.iter().enumerate() {
            let used = p.edges.iter().any(|e| e.from == i || e.to == i)
                || p.slots
                    .iter()
                    .any(|s| matches!(s.source, SlotSource::NodeProp { node, .. } if node == i));
            self.ensure(*b || !used, "binding-complete", || {
                format!("pattern node {i} ({}) is used but never bound by any step", p.nodes[i].var)
            })?;
        }
        for (i, b) in edge_bound.iter().enumerate() {
            self.ensure(*b, "binding-complete", || {
                format!("pattern edge {i} is never traversed by any step")
            })?;
        }

        // Slots the sink consumes must be filled by a property step; slots
        // feeding only pushed predicates legitimately have none (the scan
        // evaluates them directly on the columns).
        for s in p.ret.slots() {
            self.ensure(s < p.slots.len(), "index-range", || {
                format!("sink references slot ${s}, which exceeds the slot table")
            })?;
            self.ensure(slot_filled[s], "def-before-use", || {
                format!("sink reads slot ${s} ({}) but no property step fills it", p.slots[s].name)
            })?;
        }
        Ok(sim)
    }

    /// Phase 2b — counted extends (`counted-extend`): a step marked
    /// [`PlanStep::Extend::counted`] hands downstream only the *number* of
    /// its list entries, with its source group flattened at an arbitrary
    /// position, so it must be a CSR extend whose source group and new
    /// group no later step (extend source, property read, filter slot) and
    /// no sink slot reads. `sim` is phase 2's finished walk: a variable
    /// never changes group once placed, so its final placement is the one
    /// every step saw. A plan without a counted step evaluates no check
    /// here.
    fn check_counted(&mut self, sim: &GroupSim) -> Result<()> {
        let p = self.plan;
        for (i, step) in p.steps.iter().enumerate() {
            let PlanStep::Extend { from, to, single, counted: true, .. } = *step else {
                continue;
            };
            let at = i + 1;
            self.ensure(!single, "counted-extend", || {
                format!(
                    "step {at} (EXTEND): a single-cardinality extend opens no list group to count"
                )
            })?;
            let groups = [sim.group_of_node(from), sim.group_of_node(to)];
            let slot_group = |s: usize| sim.group_of_slot(&p.slots[s]);
            for (j, later) in p.steps.iter().enumerate().skip(i + 1) {
                let check = |v: &mut Self, g: usize| {
                    v.ensure(!groups.contains(&g), "counted-extend", || {
                        format!(
                            "step {} ({}): reads list group {g}, which the counted extend at \
                             step {at} hands on as a bare count",
                            j + 1,
                            step_kind(later)
                        )
                    })
                };
                match later {
                    PlanStep::Extend { from, .. } => check(self, sim.group_of_node(*from))?,
                    PlanStep::NodeProp { slot, .. } | PlanStep::EdgeProp { slot, .. } => {
                        check(self, slot_group(*slot))?
                    }
                    PlanStep::Filter { expr } => {
                        expr.try_for_each_slot(&mut |s| check(self, slot_group(s)))?
                    }
                    PlanStep::ScanAll { .. } | PlanStep::ScanPk { .. } => {}
                }
            }
            for s in p.ret.slots() {
                self.ensure(!groups.contains(&slot_group(s)), "counted-extend", || {
                    format!(
                        "sink reads slot ${s} ({}), which lives in a list group the counted \
                         extend at step {at} hands on as a bare count",
                        p.slots[s].name
                    )
                })?;
            }
        }
        Ok(())
    }

    /// Shared checks of `NodeProp`/`EdgeProp`: slot in range, written at
    /// most once, and its [`SlotSource`] agrees with the step's own fields.
    fn check_prop_read(
        &mut self,
        at: usize,
        kind: &str,
        slot: usize,
        slot_filled: &mut [bool],
        source: impl FnOnce() -> SlotSource,
    ) -> Result<()> {
        let p = self.plan;
        self.ensure(slot < p.slots.len(), "index-range", || {
            format!("step {at} ({kind}): slot ${slot} exceeds the slot table")
        })?;
        self.ensure(p.slots[slot].source == source(), "slot-schema", || {
            format!(
                "step {at} ({kind}): fills slot ${slot} ({}) from a different variable or \
                 property than the slot declares",
                p.slots[slot].name
            )
        })?;
        self.ensure(!slot_filled[slot], "def-before-use", || {
            format!("step {at} ({kind}): slot ${slot} ({}) is filled twice", p.slots[slot].name)
        })?;
        slot_filled[slot] = true;
        Ok(())
    }

    /// The type of parameter `i`, which must be in the plan's parameter
    /// table (`index-range`).
    fn param_type(&mut self, i: usize, at: usize, kind: &str) -> Result<DataType> {
        let params = &self.plan.params;
        self.ensure(i < params.len(), "index-range", || {
            format!(
                "step {at} ({kind}): parameter ?{i} exceeds the template's {} parameter(s)",
                params.len()
            )
        })?;
        Ok(params[i])
    }

    /// Type-check one predicate: slot indexes in range, comparison operand
    /// types comparable under [`Value::compare`], string matches over
    /// `String` columns, `IN` list values comparable with their column.
    fn check_expr(&mut self, e: &PlanExpr, at: usize, kind: &str) -> Result<()> {
        let p = self.plan;
        e.try_for_each_slot(&mut |s| {
            self.ensure(s < p.slots.len(), "index-range", || {
                format!("step {at} ({kind}): predicate slot ${s} exceeds the slot table")
            })
        })?;
        match e {
            PlanExpr::Cmp { lhs, rhs, .. } => {
                let mut dt = |s: &PlanScalar| match s {
                    PlanScalar::Slot(i) => Ok(Some(p.slots[*i].dtype)),
                    PlanScalar::Const(v) => Ok(v.data_type()), // NULL compares UNKNOWN: allowed
                    PlanScalar::Param(i) => self.param_type(*i, at, kind).map(Some),
                };
                if let (Some(a), Some(b)) = (dt(lhs)?, dt(rhs)?) {
                    self.ensure(comparable(a, b), "expr-type", || {
                        format!(
                            "step {at} ({kind}): comparison between incomparable types \
                             {a:?} and {b:?} in ({})",
                            crate::optimize::expr_str(e, &p.slots)
                        )
                    })?;
                }
            }
            PlanExpr::StrMatch { slot, .. } => {
                self.ensure(p.slots[*slot].dtype == DataType::String, "expr-type", || {
                    format!(
                        "step {at} ({kind}): string match over non-string slot ${slot} ({}: \
                         {:?})",
                        p.slots[*slot].name, p.slots[*slot].dtype
                    )
                })?;
            }
            PlanExpr::InSet { slot, values } => {
                let dtype = p.slots[*slot].dtype;
                for v in values {
                    if let Some(d) = v.data_type() {
                        self.ensure(comparable(dtype, d), "expr-type", || {
                            format!(
                                "step {at} ({kind}): IN list value {v} ({d:?}) is \
                                 incomparable with slot ${slot} ({}: {dtype:?})",
                                p.slots[*slot].name
                            )
                        })?;
                    }
                }
            }
            PlanExpr::And(es) | PlanExpr::Or(es) => {
                for e in es {
                    self.check_expr(e, at, kind)?;
                }
            }
            PlanExpr::Not(inner) => self.check_expr(inner, at, kind)?,
        }
        Ok(())
    }

    /// Phase 3 — the sink: header arity, ORDER BY column range, DISTINCT
    /// and LIMIT placement, materialization flags of returned slots, and
    /// aggregate input types.
    fn check_sink(&mut self) -> Result<()> {
        let p = self.plan;
        let arity = match &p.ret {
            PlanReturn::CountStar
            | PlanReturn::Sum(_)
            | PlanReturn::Min(_)
            | PlanReturn::Max(_) => 1,
            PlanReturn::Props(ids) => ids.len(),
            PlanReturn::GroupBy { keys, aggs } => keys.len() + aggs.len(),
        };
        self.ensure(p.header.len() == arity, "sink-shape", || {
            format!("header has {} columns but the return produces {arity}", p.header.len())
        })?;
        for &(col, _) in &p.order_by {
            self.ensure(col < p.header.len(), "sink-shape", || {
                format!("ORDER BY column {col} is out of range: {} output columns", p.header.len())
            })?;
        }
        self.ensure(
            p.order_by.is_empty()
                || matches!(p.ret, PlanReturn::Props(_) | PlanReturn::GroupBy { .. }),
            "sink-shape",
            || "ORDER BY requires a row-producing return".into(),
        )?;
        self.ensure(!p.distinct || matches!(p.ret, PlanReturn::Props(_)), "sink-shape", || {
            "DISTINCT applies to projection returns only".into()
        })?;
        match &p.ret {
            PlanReturn::Props(ids) => {
                for &s in ids {
                    if s < p.slots.len() {
                        self.ensure(p.slots[s].for_return, "sink-shape", || {
                            format!(
                                "projected slot ${s} ({}) is not marked for_return; its \
                                 string values would stay dictionary-encoded",
                                p.slots[s].name
                            )
                        })?;
                    }
                }
            }
            PlanReturn::Sum(s) => {
                self.check_agg_input(&PlanAgg { func: AggFunc::Sum, slot: Some(*s) })?
            }
            PlanReturn::GroupBy { keys, aggs } => {
                for &s in keys {
                    if s < p.slots.len() {
                        self.ensure(p.slots[s].for_return, "sink-shape", || {
                            format!(
                                "grouping key slot ${s} ({}) is not marked for_return",
                                p.slots[s].name
                            )
                        })?;
                    }
                }
                for a in aggs {
                    self.check_agg_input(a)?;
                }
            }
            PlanReturn::CountStar | PlanReturn::Min(_) | PlanReturn::Max(_) => {}
        }
        Ok(())
    }

    /// Aggregate input shape: `COUNT(*)` takes no slot, everything else
    /// takes one; `SUM`/`AVG` fold arithmetically, so their input must be
    /// numeric.
    fn check_agg_input(&mut self, a: &PlanAgg) -> Result<()> {
        let p = self.plan;
        match a.func {
            AggFunc::CountStar => self
                .ensure(a.slot.is_none(), "sink-shape", || "COUNT(*) must not read a slot".into()),
            _ => {
                self.ensure(a.slot.is_some(), "sink-shape", || {
                    format!("{:?} aggregate needs an input slot", a.func)
                })?;
                let Some(s) = a.slot else { return Ok(()) };
                if s >= p.slots.len() {
                    return Ok(()); // index-range already reported by check_steps
                }
                if matches!(a.func, AggFunc::Sum | AggFunc::Avg) {
                    let dt = p.slots[s].dtype;
                    self.ensure(
                        matches!(dt, DataType::Int64 | DataType::Float64 | DataType::Date),
                        "expr-type",
                        || {
                            format!(
                                "{:?} aggregate over non-numeric slot ${s} ({}: {dt:?})",
                                a.func, p.slots[s].name
                            )
                        },
                    )?;
                }
                Ok(())
            }
        }
    }

    /// Phase 4 — estimate bookkeeping: `step_cards` stays parallel to
    /// `steps`, estimates are finite and non-negative, and a catalog without
    /// statistics implies no estimates anywhere (`card-bookkeeping`).
    fn check_cards(&mut self) -> Result<()> {
        let p = self.plan;
        self.ensure(p.step_cards.len() == p.steps.len(), "card-bookkeeping", || {
            format!(
                "step_cards has {} entries for {} steps; estimates must stay parallel",
                p.step_cards.len(),
                p.steps.len()
            )
        })?;
        let has_stats = self.catalog.stats().is_some();
        for (i, c) in p.step_cards.iter().enumerate() {
            if let Some(est) = c {
                self.ensure(est.is_finite() && *est >= 0.0, "card-bookkeeping", || {
                    format!("step {} estimate {est} is not a finite non-negative count", i + 1)
                })?;
                self.ensure(has_stats, "card-bookkeeping", || {
                    format!(
                        "step {} carries estimate {est} but the catalog has no statistics",
                        i + 1
                    )
                })?;
            }
        }
        if let Some(est) = p.sink_card {
            self.ensure(est.is_finite() && est >= 0.0, "card-bookkeeping", || {
                format!("sink estimate {est} is not a finite non-negative count")
            })?;
            self.ensure(has_stats, "card-bookkeeping", || {
                format!("sink carries estimate {est} but the catalog has no statistics")
            })?;
        }
        Ok(())
    }
}

/// Shared with [`Value::data_type`]: keep the import used and the rule
/// docs honest about where comparability comes from.
const _: fn(&Value) -> Option<DataType> = Value::data_type;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use crate::query::{col, gt, lit, PatternQuery};
    use gfcl_storage::{ColumnarGraph, RawGraph, StorageConfig};

    fn catalog() -> Catalog {
        ColumnarGraph::build(&RawGraph::example(), StorageConfig::default())
            .unwrap()
            .catalog()
            .clone()
    }

    #[test]
    fn accepts_planner_output_and_counts_checks() {
        let cat = catalog();
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .edge("e", "FOLLOWS", "a", "b")
            .filter(gt(col("a", "age"), lit(30)))
            .returns(&[("a", "name"), ("b", "name")])
            .build();
        let p = plan(&q, &cat).unwrap();
        let r1 = verify_plan(&p, &cat).unwrap();
        let r2 = verify_plan(&p, &cat).unwrap();
        assert!(r1.checks > 10, "a real plan exercises many checks, got {}", r1.checks);
        assert_eq!(r1, r2, "check count is deterministic");
    }

    #[test]
    fn comparability_matches_value_compare() {
        use DataType::*;
        assert!(comparable(Int64, Date) && comparable(Float64, Int64));
        assert!(!comparable(Date, Float64), "Value::compare treats these as UNKNOWN");
        assert!(!comparable(String, Int64) && !comparable(Bool, Int64));
        assert!(comparable(String, String) && comparable(Bool, Bool));
    }
}
