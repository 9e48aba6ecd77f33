//! Binder: spanned AST → [`PatternQuery`], resolved against the [`Catalog`].
//!
//! The binder is the semantic phase of the frontend. It
//!
//! * assigns node/edge variables their indices (first textual appearance
//!   order, matching how `QueryBuilder` programs declare them),
//! * resolves labels and properties against the catalog, attaching
//!   "did you mean" hints for near-misses,
//! * type-checks predicates with exactly the comparability rules of
//!   `Value::compare` ({Int64, Float64, Date} inter-comparable; Bool and
//!   String only with themselves),
//! * lowers `RETURN` to the same `ReturnSpec` shapes the builder API
//!   produces (see GRAMMAR.md for the mapping), and
//! * resolves `ORDER BY` keys structurally against the return columns.
//!
//! Everything past this point — planning, optimization, verification,
//! execution — is byte-identical to the `QueryBuilder` path; the corpus
//! harness in `crates/workloads` asserts that equivalence query by query.
//!
//! [`bind_template`] is the one other mode: every literal a comparison
//! compares against (`true`/`false` aside, which are keywords) binds to a
//! [`Scalar::Param`] instead of a [`Scalar::Const`], in text order, for the
//! plan cache (see [`crate::template`]). Everything else binds as above.

use crate::ast;
use crate::diag::{did_you_mean, Diagnostic, Phase, Span};
use gfcl_common::{DataType, LabelId, Value};
use gfcl_core::query::{
    Agg, AggFunc as CoreAggFunc, CmpOp, EdgePattern, Expr, NodePattern, OrderKey, PatternQuery,
    PlanHints, PropRef, ReturnSpec, Scalar, SortDir, StrOp,
};
use gfcl_storage::Catalog;

/// What a variable is bound to: a node (vertex label) or a named edge.
#[derive(Clone, Copy)]
enum VarKind {
    Node { idx: usize, label: LabelId },
    Edge { idx: usize, label: LabelId },
}

struct Binder<'a> {
    src: &'a str,
    catalog: &'a Catalog,
    /// Every bound variable, named by a slice of the AST it was bound from.
    vars: Vec<(&'a str, VarKind)>,
    nodes: Vec<NodePattern>,
    edges: Vec<EdgePattern>,
    /// The parameters bound so far, when binding a template.
    params: Option<TemplateParams>,
}

/// The parameters of a template bound by [`bind_template`], in index
/// order: the value each literal had in the bound text, and its span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemplateParams {
    pub values: Vec<Value>,
    pub spans: Vec<Span>,
}

type BindResult<T> = Result<T, Diagnostic>;

impl<'a> Binder<'a> {
    fn err(&self, span: Span, msg: String, hint: Option<String>) -> Diagnostic {
        Diagnostic::new(Phase::Bind, self.src, span, msg, hint)
    }

    fn lookup(&self, name: &str) -> Option<VarKind> {
        self.vars.iter().find(|(n, _)| *n == name).map(|(_, k)| *k)
    }

    fn var_names(&self) -> impl Iterator<Item = &str> {
        self.vars.iter().map(|(n, _)| *n)
    }

    // -- pattern binding ---------------------------------------------------

    fn bind_node(&mut self, pat: &'a ast::NodePat) -> BindResult<usize> {
        let name = &pat.var.text;
        match (&pat.label, self.lookup(name)) {
            (Some(_), Some(_)) => Err(self.err(
                pat.var.span,
                format!("duplicate variable `{name}`"),
                Some(format!(
                    "labels appear on the first occurrence only; refer back with ({name})"
                )),
            )),
            (Some(label), None) => {
                let label_id = match self.catalog.vertex_label_id(&label.text) {
                    Ok(id) => id,
                    Err(_) => {
                        let hint = did_you_mean(
                            &label.text,
                            self.catalog.vertex_labels().iter().map(|d| d.name.as_str()),
                        );
                        return Err(self.err(
                            label.span,
                            format!("unknown node label `{}`", label.text),
                            hint,
                        ));
                    }
                };
                let idx = self.nodes.len();
                self.nodes.push(NodePattern { var: name.clone(), label: label.text.clone() });
                self.vars.push((name, VarKind::Node { idx, label: label_id }));
                Ok(idx)
            }
            (None, Some(VarKind::Node { idx, .. })) => Ok(idx),
            (None, Some(VarKind::Edge { .. })) => Err(self.err(
                pat.var.span,
                format!("`{name}` is an edge variable, but is used as a node here"),
                None,
            )),
            (None, None) => {
                let hint = did_you_mean(name, self.var_names())
                    .or_else(|| Some(format!("introduce it with ({name}:Label)")));
                Err(self.err(
                    pat.var.span,
                    format!("variable `{name}` has not been declared"),
                    hint,
                ))
            }
        }
    }

    fn bind_edge(&mut self, edge: &'a ast::EdgePat, from: usize, to: usize) -> BindResult<()> {
        // Written direction: `<-[..]-` swaps the endpoints.
        let (from, to) = match edge.dir {
            ast::Dir::Right => (from, to),
            ast::Dir::Left => (to, from),
        };
        let label_id = match self.catalog.edge_label_id(&edge.label.text) {
            Ok(id) => id,
            Err(_) => {
                let hint = did_you_mean(
                    &edge.label.text,
                    self.catalog.edge_labels().iter().map(|d| d.name.as_str()),
                );
                return Err(self.err(
                    edge.label.span,
                    format!("unknown edge label `{}`", edge.label.text),
                    hint,
                ));
            }
        };
        let var = match &edge.var {
            Some(v) => {
                if self.lookup(&v.text).is_some() {
                    return Err(self.err(v.span, format!("duplicate variable `{}`", v.text), None));
                }
                let idx = self.edges.len();
                self.vars.push((&v.text, VarKind::Edge { idx, label: label_id }));
                Some(v.text.clone())
            }
            None => None,
        };
        self.edges.push(EdgePattern { var, label: edge.label.text.clone(), from, to });
        Ok(())
    }

    fn bind_paths(&mut self, paths: &'a [ast::Path]) -> BindResult<()> {
        for path in paths {
            let mut prev = self.bind_node(&path.head)?;
            for (edge, node) in &path.steps {
                let next = self.bind_node(node)?;
                self.bind_edge(edge, prev, next)?;
                prev = next;
            }
        }
        Ok(())
    }

    // -- property resolution & typing --------------------------------------

    /// Resolve `var.prop`: the variable must be bound, the property must
    /// exist on its label. Returns the lowered ref and the property dtype.
    fn resolve_prop(&self, p: &ast::PropRef) -> BindResult<(PropRef, DataType)> {
        let Some(kind) = self.lookup(&p.var.text) else {
            let hint = did_you_mean(&p.var.text, self.var_names());
            return Err(self.err(
                p.var.span,
                format!("variable `{}` is not declared in the MATCH pattern", p.var.text),
                hint,
            ));
        };
        let (label_name, props) = match kind {
            VarKind::Node { label, .. } => {
                let def = self.catalog.vertex_label(label);
                (def.name.as_str(), &def.properties)
            }
            VarKind::Edge { label, .. } => {
                let def = self.catalog.edge_label(label);
                (def.name.as_str(), &def.properties)
            }
        };
        match props.iter().find(|d| d.name == p.prop.text) {
            Some(def) => {
                Ok((PropRef { var: p.var.text.clone(), prop: p.prop.text.clone() }, def.dtype))
            }
            None => {
                let hint = did_you_mean(&p.prop.text, props.iter().map(|d| d.name.as_str()));
                Err(self.err(
                    p.prop.span,
                    format!("label `{label_name}` has no property `{}`", p.prop.text),
                    hint,
                ))
            }
        }
    }

    fn lit_value(lit: &ast::Lit) -> (Value, DataType) {
        match &lit.kind {
            ast::LitKind::Int(v) => (Value::Int64(*v), DataType::Int64),
            ast::LitKind::Float(v) => (Value::Float64(*v), DataType::Float64),
            ast::LitKind::Str(s) => (Value::String(s.clone()), DataType::String),
            ast::LitKind::Bool(b) => (Value::Bool(*b), DataType::Bool),
            ast::LitKind::Date(v) => (Value::Date(*v), DataType::Date),
        }
    }

    /// Mirror of `Value::compare`: which dtypes may meet in a comparison.
    fn comparable(a: DataType, b: DataType) -> bool {
        use DataType::*;
        let ordered = |t| matches!(t, Int64 | Float64 | Date);
        (ordered(a) && ordered(b)) || a == b
    }

    fn operand_desc(op: &ast::Operand) -> String {
        match op {
            ast::Operand::Prop(p) => format!("`{p}`"),
            ast::Operand::Lit(l) => format!("`{l}`"),
        }
    }

    fn lower_operand(&mut self, op: &ast::Operand) -> BindResult<(Scalar, DataType)> {
        match op {
            ast::Operand::Prop(p) => {
                let (r, t) = self.resolve_prop(p)?;
                Ok((Scalar::Prop(r), t))
            }
            ast::Operand::Lit(l) => {
                let (v, t) = Self::lit_value(l);
                match &mut self.params {
                    Some(params) if t != DataType::Bool => {
                        params.values.push(v);
                        params.spans.push(l.span);
                        Ok((Scalar::Param(params.values.len() - 1), t))
                    }
                    _ => Ok((Scalar::Const(v), t)),
                }
            }
        }
    }

    fn lower_expr(&mut self, e: &ast::Expr) -> BindResult<Expr> {
        match e {
            ast::Expr::Cmp { op, lhs, rhs } => {
                let (ls, lt) = self.lower_operand(lhs)?;
                let (rs, rt) = self.lower_operand(rhs)?;
                if !Self::comparable(lt, rt) {
                    let hint = if lt == DataType::String && rt != DataType::String {
                        Some("quote the value to compare as a string, e.g. 'like this'".to_string())
                    } else {
                        None
                    };
                    return Err(self.err(
                        lhs.span().merge(rhs.span()),
                        format!(
                            "cannot compare {} ({lt:?}) with {} ({rt:?})",
                            Self::operand_desc(lhs),
                            Self::operand_desc(rhs)
                        ),
                        hint,
                    ));
                }
                let op = match op {
                    ast::CmpOp::Eq => CmpOp::Eq,
                    ast::CmpOp::Ne => CmpOp::Ne,
                    ast::CmpOp::Lt => CmpOp::Lt,
                    ast::CmpOp::Le => CmpOp::Le,
                    ast::CmpOp::Gt => CmpOp::Gt,
                    ast::CmpOp::Ge => CmpOp::Ge,
                };
                Ok(Expr::Cmp { op, lhs: ls, rhs: rs })
            }
            ast::Expr::StrMatch { op, prop, pattern } => {
                let (r, t) = self.resolve_prop(prop)?;
                if t != DataType::String {
                    return Err(self.err(
                        prop.span(),
                        format!("`{prop}` is {t:?}, but string predicates match String"),
                        None,
                    ));
                }
                let ast::LitKind::Str(pat) = &pattern.kind else {
                    // The parser only admits string literals here.
                    return Err(self.err(
                        pattern.span,
                        "string predicates take a quoted string pattern".to_string(),
                        None,
                    ));
                };
                let op = match op {
                    ast::StrOp::Contains => StrOp::Contains,
                    ast::StrOp::StartsWith => StrOp::StartsWith,
                    ast::StrOp::EndsWith => StrOp::EndsWith,
                };
                Ok(Expr::StrMatch { op, prop: r, pattern: pat.clone() })
            }
            ast::Expr::InSet { prop, values } => {
                let (r, t) = self.resolve_prop(prop)?;
                if t != DataType::String {
                    return Err(self.err(
                        prop.span(),
                        format!("`{prop}` is {t:?}, but IN lists hold strings"),
                        None,
                    ));
                }
                let mut vals = Vec::with_capacity(values.len());
                for v in values {
                    let ast::LitKind::Str(s) = &v.kind else {
                        return Err(self.err(
                            v.span,
                            "IN lists hold string values".to_string(),
                            Some("quote each element: IN ['a', 'b']".to_string()),
                        ));
                    };
                    vals.push(Value::String(s.clone()));
                }
                Ok(Expr::InSet { prop: r, values: vals })
            }
            ast::Expr::And(xs) => {
                Ok(Expr::And(xs.iter().map(|x| self.lower_expr(x)).collect::<Result<_, _>>()?))
            }
            ast::Expr::Or(xs) => {
                Ok(Expr::Or(xs.iter().map(|x| self.lower_expr(x)).collect::<Result<_, _>>()?))
            }
            ast::Expr::Not(x) => Ok(Expr::Not(Box::new(self.lower_expr(x)?))),
        }
    }

    // -- RETURN lowering ---------------------------------------------------

    fn lower_agg(&self, item: &ast::RetItem) -> BindResult<Agg> {
        match item {
            ast::RetItem::CountStar { .. } => Ok(Agg::count_star()),
            ast::RetItem::Agg { func, distinct, prop, span } => {
                let (r, t) = self.resolve_prop(prop)?;
                let numeric = matches!(t, DataType::Int64 | DataType::Float64);
                let func = match func {
                    ast::AggFunc::Count if *distinct => CoreAggFunc::Count { distinct: true },
                    ast::AggFunc::Count => CoreAggFunc::Count { distinct: false },
                    ast::AggFunc::Sum | ast::AggFunc::Avg if !numeric => {
                        return Err(self.err(
                            *span,
                            format!(
                                "{}() needs a numeric property, `{prop}` is {t:?}",
                                if matches!(func, ast::AggFunc::Sum) { "sum" } else { "avg" }
                            ),
                            None,
                        ))
                    }
                    ast::AggFunc::Sum => CoreAggFunc::Sum,
                    ast::AggFunc::Avg => CoreAggFunc::Avg,
                    ast::AggFunc::Min => CoreAggFunc::Min,
                    ast::AggFunc::Max => CoreAggFunc::Max,
                };
                Ok(Agg { func, prop: Some(r) })
            }
            ast::RetItem::Prop(_) => Err(self.err(
                item.span(),
                "internal: lower_agg on a projection item".to_string(),
                None,
            )),
        }
    }

    /// Lower `RETURN` items to the `ReturnSpec` shapes the builder API
    /// produces. The mapping (documented in GRAMMAR.md):
    ///
    /// * `count(*)` alone → `CountStar`
    /// * a single plain `sum`/`min`/`max` → the scalar aggregate specs
    /// * only bare properties → `Props`
    /// * anything else with an aggregate → `GroupBy { keys, aggs }` where
    ///   the bare properties (which must all come first) are the keys
    fn lower_return(&self, items: &[ast::RetItem]) -> BindResult<ReturnSpec> {
        if let [only] = items {
            match only {
                ast::RetItem::CountStar { .. } => return Ok(ReturnSpec::CountStar),
                ast::RetItem::Agg { func, distinct: false, prop, .. } => {
                    let single = match func {
                        ast::AggFunc::Sum => Some(ReturnSpec::Sum as fn(PropRef) -> ReturnSpec),
                        ast::AggFunc::Min => Some(ReturnSpec::Min as fn(PropRef) -> ReturnSpec),
                        ast::AggFunc::Max => Some(ReturnSpec::Max as fn(PropRef) -> ReturnSpec),
                        _ => None,
                    };
                    if let Some(make) = single {
                        // Reuse lower_agg for the numeric check on sum().
                        let _ = self.lower_agg(only)?;
                        let (r, _) = self.resolve_prop(prop)?;
                        return Ok(make(r));
                    }
                }
                _ => {}
            }
        }
        let has_agg = items.iter().any(|i| !matches!(i, ast::RetItem::Prop(_)));
        if !has_agg {
            let mut props = Vec::with_capacity(items.len());
            for item in items {
                if let ast::RetItem::Prop(p) = item {
                    let (r, _) = self.resolve_prop(p)?;
                    props.push(r);
                }
            }
            return Ok(ReturnSpec::Props(props));
        }
        // Grouped return: keys (bare props) first, then aggregates.
        let mut keys = Vec::new();
        let mut aggs = Vec::new();
        for item in items {
            match item {
                ast::RetItem::Prop(p) => {
                    if !aggs.is_empty() {
                        return Err(self.err(
                            item.span(),
                            "grouping keys must come before aggregates in RETURN".to_string(),
                            Some("move the bare properties ahead of count()/sum()/...".to_string()),
                        ));
                    }
                    let (r, _) = self.resolve_prop(p)?;
                    keys.push(r);
                }
                _ => aggs.push(self.lower_agg(item)?),
            }
        }
        Ok(ReturnSpec::GroupBy { keys, aggs })
    }

    /// Render return columns the way EXPLAIN / result headers name them,
    /// for "available columns" hints.
    fn column_names(items: &[ast::RetItem]) -> String {
        items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(", ")
    }

    fn bind_order_by(
        &self,
        order: &[ast::OrderItem],
        ret_items: &[ast::RetItem],
        ret: &ReturnSpec,
    ) -> BindResult<Vec<OrderKey>> {
        if order.is_empty() {
            return Ok(Vec::new());
        }
        if !matches!(ret, ReturnSpec::Props(_) | ReturnSpec::GroupBy { .. }) {
            let span = order.first().map_or(Span::ZERO, |o| o.item.span());
            return Err(self.err(
                span,
                "ORDER BY applies to row-producing returns (projections or grouped aggregates)"
                    .to_string(),
                None,
            ));
        }
        let mut keys = Vec::with_capacity(order.len());
        for o in order {
            // Column order equals RETURN item order for both Props and
            // GroupBy (keys are required to precede aggregates).
            let Some(col) = ret_items.iter().position(|r| r.same_shape(&o.item)) else {
                return Err(self.err(
                    o.item.span(),
                    format!("ORDER BY key `{}` does not appear in RETURN", o.item),
                    Some(format!("available columns: {}", Self::column_names(ret_items))),
                ));
            };
            // Validate the key itself resolves (it names the same prop as a
            // RETURN item, which was already resolved — this is for spans).
            let dir = match o.dir {
                Some(ast::SortDir::Desc) => SortDir::Desc,
                _ => SortDir::Asc,
            };
            keys.push(OrderKey { col, dir });
        }
        Ok(keys)
    }

    // -- USING hints -------------------------------------------------------

    fn bind_using(&self, using: &[ast::Using]) -> BindResult<PlanHints> {
        let mut hints = PlanHints::default();
        for u in using {
            match u {
                ast::Using::Start(v) => {
                    if hints.start.is_some() {
                        return Err(self.err(
                            v.span,
                            "duplicate USING START clause".to_string(),
                            None,
                        ));
                    }
                    match self.lookup(&v.text) {
                        Some(VarKind::Node { .. }) => hints.start = Some(v.text.clone()),
                        _ => {
                            let node_vars = self
                                .vars
                                .iter()
                                .filter(|(_, k)| matches!(k, VarKind::Node { .. }))
                                .map(|(n, _)| *n);
                            let hint = did_you_mean(&v.text, node_vars);
                            return Err(self.err(
                                v.span,
                                format!(
                                    "USING START refers to `{}`, which is not a node variable",
                                    v.text
                                ),
                                hint,
                            ));
                        }
                    }
                }
                ast::Using::Order(vars) => {
                    if hints.edge_order.is_some() {
                        let span = vars.first().map_or(Span::ZERO, |v| v.span);
                        return Err(self.err(
                            span,
                            "duplicate USING ORDER clause".to_string(),
                            None,
                        ));
                    }
                    let mut order = Vec::with_capacity(vars.len());
                    for v in vars {
                        match self.lookup(&v.text) {
                            Some(VarKind::Edge { idx, .. }) => order.push(idx),
                            _ => {
                                let edge_vars = self
                                    .vars
                                    .iter()
                                    .filter(|(_, k)| matches!(k, VarKind::Edge { .. }))
                                    .map(|(n, _)| *n);
                                let hint = did_you_mean(&v.text, edge_vars);
                                return Err(self.err(
                                    v.span,
                                    format!(
                                        "USING ORDER refers to `{}`, which is not a named edge \
                                         variable",
                                        v.text
                                    ),
                                    hint,
                                ));
                            }
                        }
                    }
                    hints.edge_order = Some(order);
                }
            }
        }
        Ok(hints)
    }
}

/// Bind a parsed query against `catalog`, lowering it to a [`PatternQuery`].
/// `source` is the original query text, used to render diagnostics.
pub fn bind(
    query: &ast::Query,
    source: &str,
    catalog: &Catalog,
) -> Result<PatternQuery, Diagnostic> {
    bind_with(query, source, catalog, None).map(|(q, _)| q)
}

/// Bind a parsed query as a template: like [`bind`], except that every
/// comparison literal but `true`/`false` becomes a [`Scalar::Param`],
/// numbered in text order. The diagnostics are [`bind`]'s.
pub fn bind_template(
    query: &ast::Query,
    source: &str,
    catalog: &Catalog,
) -> Result<(PatternQuery, TemplateParams), Diagnostic> {
    bind_with(query, source, catalog, Some(TemplateParams::default()))
        .map(|(q, params)| (q, params.unwrap_or_default()))
}

fn bind_with(
    query: &ast::Query,
    source: &str,
    catalog: &Catalog,
    params: Option<TemplateParams>,
) -> Result<(PatternQuery, Option<TemplateParams>), Diagnostic> {
    // Every path contributes its head node and one edge and node per step:
    // upper bounds (a node referred back to binds nothing new) that size
    // each table once.
    let edges: usize = query.paths.iter().map(|p| p.steps.len()).sum();
    let nodes = query.paths.len() + edges;
    let mut b = Binder {
        src: source,
        catalog,
        vars: Vec::with_capacity(nodes + edges),
        nodes: Vec::with_capacity(nodes),
        edges: Vec::with_capacity(edges),
        params,
    };
    b.bind_paths(&query.paths)?;

    // Top-level conjunctions become separate predicate entries, matching
    // how builder programs chain `.filter(..)` calls.
    let predicates = match &query.predicate {
        Some(ast::Expr::And(parts)) => {
            parts.iter().map(|p| b.lower_expr(p)).collect::<BindResult<Vec<_>>>()?
        }
        Some(other) => vec![b.lower_expr(other)?],
        None => Vec::new(),
    };

    let ret = b.lower_return(&query.ret)?;

    if query.distinct && !matches!(ret, ReturnSpec::Props(_)) {
        let span = query.ret.first().map_or(Span::ZERO, |r| r.span());
        return Err(b.err(
            span,
            "DISTINCT applies to projection returns only (grouped returns are already distinct \
             per key)"
                .to_string(),
            None,
        ));
    }

    let order_by = b.bind_order_by(&query.order_by, &query.ret, &ret)?;

    let limit = match &query.limit {
        Some(l) => {
            if !matches!(ret, ReturnSpec::Props(_) | ReturnSpec::GroupBy { .. }) {
                return Err(b.err(
                    l.span,
                    "LIMIT applies to row-producing returns (projections or grouped aggregates)"
                        .to_string(),
                    None,
                ));
            }
            match usize::try_from(l.value) {
                Ok(v) => Some(v),
                Err(_) => {
                    return Err(b.err(l.span, "LIMIT must be non-negative".to_string(), None))
                }
            }
        }
        None => None,
    };

    let hints = b.bind_using(&query.using)?;

    let q = PatternQuery {
        nodes: b.nodes,
        edges: b.edges,
        predicates,
        ret,
        order_by,
        limit,
        distinct: query.distinct,
        hints,
    };
    Ok((q, b.params))
}
