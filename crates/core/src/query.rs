//! The logical query model: acyclic `MATCH` patterns with conjunctive
//! predicates and a return clause (Section 2).
//!
//! This is the query language GraphflowDB's prototype supports —
//! select-project-join over fixed-length subgraph patterns plus a limited
//! form of aggregation — and it is shared by all four engines so that every
//! benchmark runs the *same logical query* under different storage and
//! processing designs.
//!
//! ```
//! use gfcl_core::query::{PatternQuery, col, lit, gt, lt};
//!
//! // MATCH (a:PERSON)-[e:WORKAT]->(b:ORG)
//! // WHERE a.age > 22 AND b.estd < 2015 RETURN *
//! let q = PatternQuery::builder()
//!     .node("a", "PERSON")
//!     .node("b", "ORG")
//!     .edge("e", "WORKAT", "a", "b")
//!     .filter(gt(col("a", "age"), lit(22)))
//!     .filter(lt(col("b", "estd"), lit(2015)))
//!     .returns_count()
//!     .build();
//! assert_eq!(q.nodes.len(), 2);
//! ```

use gfcl_common::{Error, Result, Value};

/// A node variable in the pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePattern {
    pub var: String,
    pub label: String,
}

/// An edge in the pattern, written in the edge label's canonical direction:
/// `from` must match the label's source and `to` its destination. The
/// planner decides the *traversal* direction.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePattern {
    pub var: Option<String>,
    pub label: String,
    /// Index into [`PatternQuery::nodes`].
    pub from: usize,
    pub to: usize,
}

/// Reference to a property of a pattern variable (node or edge).
#[derive(Debug, Clone, PartialEq)]
pub struct PropRef {
    pub var: String,
    pub prop: String,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The comparison with its operands swapped (`a < b` ⇔ `b > a`), to
    /// bring a slot to the left-hand side.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Eq | CmpOp::Ne => self,
        }
    }
}

/// String predicates against a constant pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrOp {
    Contains,
    StartsWith,
    EndsWith,
}

/// A boolean expression over pattern variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Comparison between two scalar operands.
    Cmp {
        op: CmpOp,
        lhs: Scalar,
        rhs: Scalar,
    },
    /// String match of a property against a constant pattern.
    StrMatch {
        op: StrOp,
        prop: PropRef,
        pattern: String,
    },
    /// Property value ∈ set of constants.
    InSet {
        prop: PropRef,
        values: Vec<Value>,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
}

/// A scalar operand: a property reference, a constant, or a parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    Prop(PropRef),
    Const(Value),
    /// The `i`-th parameter of a query template: a literal whose value is
    /// supplied per execution ([`crate::plan::plan_template`]).
    Param(usize),
}

impl Expr {
    /// All property references in this expression.
    pub fn prop_refs(&self) -> Vec<&PropRef> {
        let mut out = Vec::new();
        self.collect_refs(&mut out);
        out
    }

    fn collect_refs<'a>(&'a self, out: &mut Vec<&'a PropRef>) {
        match self {
            Expr::Cmp { lhs, rhs, .. } => {
                if let Scalar::Prop(p) = lhs {
                    out.push(p);
                }
                if let Scalar::Prop(p) = rhs {
                    out.push(p);
                }
            }
            Expr::StrMatch { prop, .. } => out.push(prop),
            Expr::InSet { prop, .. } => out.push(prop),
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_refs(out);
                }
            }
            Expr::Not(e) => e.collect_refs(out),
        }
    }
}

/// An aggregate function, per group or whole-result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — tuples per group (no input property).
    CountStar,
    /// `COUNT(x.p)` / `COUNT(DISTINCT x.p)` — non-NULL (distinct) values.
    Count {
        distinct: bool,
    },
    Sum,
    Min,
    Max,
    /// `AVG(x.p)` — always returns a DOUBLE (exact for integer inputs:
    /// the division happens once, at the end).
    Avg,
}

/// One aggregate call in a `RETURN` clause: the function plus its input
/// property (`None` only for `COUNT(*)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Agg {
    pub func: AggFunc,
    pub prop: Option<PropRef>,
}

impl Agg {
    /// `COUNT(*)`.
    pub fn count_star() -> Agg {
        Agg { func: AggFunc::CountStar, prop: None }
    }

    /// `COUNT(var.prop)` — non-NULL values.
    pub fn count(var: &str, prop: &str) -> Agg {
        Agg { func: AggFunc::Count { distinct: false }, prop: Some(pref(var, prop)) }
    }

    /// `COUNT(DISTINCT var.prop)`.
    pub fn count_distinct(var: &str, prop: &str) -> Agg {
        Agg { func: AggFunc::Count { distinct: true }, prop: Some(pref(var, prop)) }
    }

    /// `SUM(var.prop)`.
    pub fn sum(var: &str, prop: &str) -> Agg {
        Agg { func: AggFunc::Sum, prop: Some(pref(var, prop)) }
    }

    /// `MIN(var.prop)`.
    pub fn min(var: &str, prop: &str) -> Agg {
        Agg { func: AggFunc::Min, prop: Some(pref(var, prop)) }
    }

    /// `MAX(var.prop)`.
    pub fn max(var: &str, prop: &str) -> Agg {
        Agg { func: AggFunc::Max, prop: Some(pref(var, prop)) }
    }

    /// `AVG(var.prop)`.
    pub fn avg(var: &str, prop: &str) -> Agg {
        Agg { func: AggFunc::Avg, prop: Some(pref(var, prop)) }
    }
}

fn pref(var: &str, prop: &str) -> PropRef {
    PropRef { var: var.into(), prop: prop.into() }
}

/// Sort direction of one `ORDER BY` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    Asc,
    Desc,
}

/// One `ORDER BY` key: an index into the query's output columns (the
/// RETURN projection, or grouping keys followed by aggregates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderKey {
    pub col: usize,
    pub dir: SortDir,
}

/// What the query returns.
#[derive(Debug, Clone, PartialEq)]
pub enum ReturnSpec {
    /// `RETURN COUNT(*)` — the factorized fast path of Section 6.2.
    CountStar,
    /// `RETURN a.x, b.y, ...` — materialized rows.
    Props(Vec<PropRef>),
    /// `RETURN SUM(x.p)` over all matches (with multiplicity).
    Sum(PropRef),
    /// `RETURN MIN(x.p)`.
    Min(PropRef),
    /// `RETURN MAX(x.p)`.
    Max(PropRef),
    /// `RETURN k1, k2, ..., AGG1, AGG2, ...` — grouped aggregation
    /// (Section 6.2 extended: aggregates fold unflat list groups by
    /// multiplicity; only the grouping keys are ever flattened). With no
    /// keys this is a whole-result multi-aggregate.
    GroupBy { keys: Vec<PropRef>, aggs: Vec<Agg> },
}

/// Planner hints: a start variable and/or an explicit edge order, used by
/// the benchmarks to force the forward/backward plans of Section 8.3.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanHints {
    pub start: Option<String>,
    /// Order in which pattern edges should be joined (indexes into
    /// [`PatternQuery::edges`]).
    pub edge_order: Option<Vec<usize>>,
}

/// A complete logical query.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternQuery {
    pub nodes: Vec<NodePattern>,
    pub edges: Vec<EdgePattern>,
    /// Conjunctive predicates (`WHERE c1 AND c2 AND ...`).
    pub predicates: Vec<Expr>,
    pub ret: ReturnSpec,
    /// `ORDER BY` keys over the output columns (applies to row-producing
    /// returns: projections and grouped aggregates).
    pub order_by: Vec<OrderKey>,
    /// `LIMIT n` — with `order_by` this is top-k; without, the first `n`
    /// rows in canonical (total) order, so results stay deterministic.
    pub limit: Option<usize>,
    /// `RETURN DISTINCT` (projections only).
    pub distinct: bool,
    pub hints: PlanHints,
}

impl PatternQuery {
    pub fn builder() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Index of a node variable.
    pub fn node_idx(&self, var: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.var == var)
    }

    /// Index of an edge variable.
    pub fn edge_idx(&self, var: &str) -> Option<usize> {
        self.edges.iter().position(|e| e.var.as_deref() == Some(var))
    }

    /// Is a plan of this template valid for every value of its parameters?
    /// The cost model reads a constant's value in one place only: the
    /// min/max arm of a range comparison's selectivity. Equality, `<>` and
    /// primary-key seeks are costed by NDV alone, so a template whose
    /// parameters sit only there plans the same whatever their values.
    pub fn literal_invariant(&self) -> bool {
        fn invariant(e: &Expr) -> bool {
            match e {
                Expr::Cmp { op, lhs, rhs } => {
                    matches!(op, CmpOp::Eq | CmpOp::Ne)
                        || !matches!((lhs, rhs), (Scalar::Param(_), _) | (_, Scalar::Param(_)))
                }
                Expr::StrMatch { .. } | Expr::InSet { .. } => true,
                Expr::And(es) | Expr::Or(es) => es.iter().all(invariant),
                Expr::Not(inner) => invariant(inner),
            }
        }
        self.predicates.iter().all(invariant)
    }

    /// Replace every parameter with its value from `params`, turning a
    /// template back into the literal-inlined query it was bound from.
    /// A parameter without a value stays a parameter (planning rejects it).
    pub fn inline_params(&mut self, params: &[Value]) {
        fn inline(e: &mut Expr, params: &[Value]) {
            match e {
                Expr::Cmp { lhs, rhs, .. } => {
                    for s in [lhs, rhs] {
                        if let Scalar::Param(i) = *s {
                            if let Some(v) = params.get(i) {
                                *s = Scalar::Const(v.clone());
                            }
                        }
                    }
                }
                Expr::StrMatch { .. } | Expr::InSet { .. } => {}
                Expr::And(es) | Expr::Or(es) => es.iter_mut().for_each(|e| inline(e, params)),
                Expr::Not(inner) => inline(inner, params),
            }
        }
        self.predicates.iter_mut().for_each(|e| inline(e, params));
    }

    /// Structural validation shared by both query entry points: the fluent
    /// builder ([`QueryBuilder::try_build`]) and direct planning of a
    /// hand-assembled `PatternQuery` (`gfcl_core::plan` calls this before
    /// doing anything else). Errors are `[rule]`-tagged like the plan
    /// verifier's, so a malformed query fails identically no matter which
    /// door it came through.
    pub fn validate(&self) -> Result<()> {
        let fail =
            |rule: &str, msg: String| Err(Error::Plan(format!("query verifier: [{rule}] {msg}")));
        for (i, n) in self.nodes.iter().enumerate() {
            if self.nodes[..i].iter().any(|m| m.var == n.var) {
                return fail("pattern-vars", format!("duplicate node variable {}", n.var));
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            if let Some(v) = &e.var {
                if self.nodes.iter().any(|n| &n.var == v)
                    || self.edges[..i].iter().any(|d| d.var.as_deref() == Some(v.as_str()))
                {
                    return fail("pattern-vars", format!("duplicate edge variable {v}"));
                }
            }
            if e.from >= self.nodes.len() || e.to >= self.nodes.len() {
                return fail(
                    "index-range",
                    format!(
                        "edge {i} endpoints ({}, {}) exceed the node table (len {})",
                        e.from,
                        e.to,
                        self.nodes.len()
                    ),
                );
            }
        }
        if let ReturnSpec::GroupBy { aggs, .. } = &self.ret {
            for a in aggs {
                if a.prop.is_none() && !matches!(a.func, AggFunc::CountStar) {
                    return fail(
                        "sink-shape",
                        "aggregate other than COUNT(*) needs a property".into(),
                    );
                }
            }
        }
        if self.distinct && !matches!(self.ret, ReturnSpec::Props(_)) {
            return fail(
                "sink-shape",
                "DISTINCT applies to projection returns only (grouped returns are already \
                 distinct per key)"
                    .into(),
            );
        }
        if (!self.order_by.is_empty() || self.limit.is_some())
            && !matches!(self.ret, ReturnSpec::Props(_) | ReturnSpec::GroupBy { .. })
        {
            return fail(
                "sink-shape",
                "order_by/limit apply to row-producing returns (projections or grouped \
                 aggregates)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// An edge awaiting endpoint resolution: the builder records endpoint
/// *names* and resolves them to node indexes at build time, so malformed
/// patterns surface as [`Error::Plan`] from [`QueryBuilder::try_build`]
/// instead of panicking mid-construction.
#[derive(Debug, Clone)]
struct PendingEdge {
    var: Option<String>,
    label: String,
    from: String,
    to: String,
}

/// Fluent builder for [`PatternQuery`].
#[derive(Debug, Default)]
pub struct QueryBuilder {
    nodes: Vec<NodePattern>,
    edges: Vec<PendingEdge>,
    predicates: Vec<Expr>,
    ret: Option<ReturnSpec>,
    group_keys: Vec<PropRef>,
    aggs: Vec<Agg>,
    order_by: Vec<OrderKey>,
    limit: Option<usize>,
    distinct: bool,
    hints: PlanHints,
}

impl QueryBuilder {
    /// Declare a node variable with its label. Duplicate variables are
    /// reported by [`QueryBuilder::try_build`].
    pub fn node(mut self, var: &str, label: &str) -> Self {
        self.nodes.push(NodePattern { var: var.into(), label: label.into() });
        self
    }

    /// Declare an edge `(from)-[var:label]->(to)` between declared nodes.
    /// Undeclared endpoints are reported by [`QueryBuilder::try_build`].
    pub fn edge(mut self, var: &str, label: &str, from: &str, to: &str) -> Self {
        self.edges.push(PendingEdge {
            var: (!var.is_empty()).then(|| var.to_owned()),
            label: label.into(),
            from: from.into(),
            to: to.into(),
        });
        self
    }

    /// Anonymous edge.
    pub fn edge_anon(self, label: &str, from: &str, to: &str) -> Self {
        self.edge("", label, from, to)
    }

    /// Add a conjunct to the WHERE clause.
    pub fn filter(mut self, e: Expr) -> Self {
        self.predicates.push(e);
        self
    }

    pub fn returns_count(mut self) -> Self {
        self.ret = Some(ReturnSpec::CountStar);
        self
    }

    /// `RETURN var.prop, ...`
    pub fn returns(mut self, props: &[(&str, &str)]) -> Self {
        self.ret = Some(ReturnSpec::Props(
            props.iter().map(|(v, p)| PropRef { var: (*v).into(), prop: (*p).into() }).collect(),
        ));
        self
    }

    pub fn returns_sum(mut self, var: &str, prop: &str) -> Self {
        self.ret = Some(ReturnSpec::Sum(PropRef { var: var.into(), prop: prop.into() }));
        self
    }

    pub fn returns_min(mut self, var: &str, prop: &str) -> Self {
        self.ret = Some(ReturnSpec::Min(PropRef { var: var.into(), prop: prop.into() }));
        self
    }

    pub fn returns_max(mut self, var: &str, prop: &str) -> Self {
        self.ret = Some(ReturnSpec::Max(PropRef { var: var.into(), prop: prop.into() }));
        self
    }

    /// `GROUP BY var.prop, ...` — the grouping keys of a grouped-aggregate
    /// return ([`QueryBuilder::returns_agg`]). Calling this without any
    /// aggregates returns one row per distinct key combination.
    pub fn group_by(mut self, keys: &[(&str, &str)]) -> Self {
        self.group_keys.extend(keys.iter().map(|(v, p)| pref(v, p)));
        self
    }

    /// `RETURN <group keys>, agg1, agg2, ...` — aggregate per group (or
    /// whole-result when no [`QueryBuilder::group_by`] keys were declared).
    /// Output columns are the grouping keys followed by the aggregates, in
    /// declaration order.
    pub fn returns_agg(mut self, aggs: Vec<Agg>) -> Self {
        self.aggs.extend(aggs);
        self
    }

    /// `ORDER BY column <asc|desc>`, by output-column index (repeatable;
    /// keys apply in call order). NULLs sort first ascending.
    pub fn order_by(mut self, col: usize, dir: SortDir) -> Self {
        self.order_by.push(OrderKey { col, dir });
        self
    }

    /// `LIMIT n`. Combined with [`QueryBuilder::order_by`] this is a top-k
    /// query; alone it keeps the first `n` rows in canonical order.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// `RETURN DISTINCT` — deduplicate projection rows.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Force the planner to start matching at `var`.
    pub fn start_at(mut self, var: &str) -> Self {
        self.hints.start = Some(var.into());
        self
    }

    /// Force an explicit edge join order.
    pub fn edge_order(mut self, order: Vec<usize>) -> Self {
        self.hints.edge_order = Some(order);
        self
    }

    /// Build the query, validating the pattern. Builder-specific shape
    /// errors (undeclared edge endpoints, conflicting returns clauses) are
    /// reported here; everything structural is delegated to
    /// [`PatternQuery::validate`], the same check `plan()` runs, so both
    /// entry points produce identical `[rule]`-tagged errors.
    pub fn try_build(self) -> Result<PatternQuery> {
        let pos_of = |var: &str| -> Result<usize> {
            self.nodes.iter().position(|n| n.var == var).ok_or_else(|| {
                Error::Plan(format!("edge references undeclared node variable {var}"))
            })
        };
        let mut edges = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            edges.push(EdgePattern {
                var: e.var.clone(),
                label: e.label.clone(),
                from: pos_of(&e.from)?,
                to: pos_of(&e.to)?,
            });
        }
        let grouped = !self.group_keys.is_empty() || !self.aggs.is_empty();
        let ret = if grouped {
            if self.ret.is_some() {
                return Err(Error::Plan(
                    "group_by/returns_agg cannot be combined with another returns_* clause".into(),
                ));
            }
            ReturnSpec::GroupBy { keys: self.group_keys, aggs: self.aggs }
        } else {
            self.ret.unwrap_or(ReturnSpec::CountStar)
        };
        let q = PatternQuery {
            nodes: self.nodes,
            edges,
            predicates: self.predicates,
            ret,
            order_by: self.order_by,
            limit: self.limit,
            distinct: self.distinct,
            hints: self.hints,
        };
        q.validate()?;
        Ok(q)
    }

    /// Infallible convenience over [`QueryBuilder::try_build`] for
    /// hand-written (statically well-formed) patterns. Panics with the
    /// underlying [`Error::Plan`] message on a malformed pattern.
    pub fn build(self) -> PatternQuery {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

// ---- Expression helper constructors ----

/// `var.prop` operand.
pub fn col(var: &str, prop: &str) -> Scalar {
    Scalar::Prop(PropRef { var: var.into(), prop: prop.into() })
}

/// Constant operand.
pub fn lit(v: impl Into<Value>) -> Scalar {
    Scalar::Const(v.into())
}

/// Date-typed constant operand (plain `i64` literals become `Int64`).
pub fn lit_date(ts: i64) -> Scalar {
    Scalar::Const(Value::Date(ts))
}

macro_rules! cmp_fn {
    ($name:ident, $op:ident) => {
        #[doc = concat!("`lhs ", stringify!($op), " rhs` comparison.")]
        pub fn $name(lhs: Scalar, rhs: Scalar) -> Expr {
            Expr::Cmp { op: CmpOp::$op, lhs, rhs }
        }
    };
}
cmp_fn!(eq, Eq);
cmp_fn!(ne, Ne);
cmp_fn!(lt, Lt);
cmp_fn!(le, Le);
cmp_fn!(gt, Gt);
cmp_fn!(ge, Ge);

/// `var.prop CONTAINS pattern`.
pub fn contains(var: &str, prop: &str, pattern: &str) -> Expr {
    Expr::StrMatch {
        op: StrOp::Contains,
        prop: PropRef { var: var.into(), prop: prop.into() },
        pattern: pattern.into(),
    }
}

/// `var.prop STARTS WITH pattern`.
pub fn starts_with(var: &str, prop: &str, pattern: &str) -> Expr {
    Expr::StrMatch {
        op: StrOp::StartsWith,
        prop: PropRef { var: var.into(), prop: prop.into() },
        pattern: pattern.into(),
    }
}

/// `var.prop ENDS WITH pattern`.
pub fn ends_with(var: &str, prop: &str, pattern: &str) -> Expr {
    Expr::StrMatch {
        op: StrOp::EndsWith,
        prop: PropRef { var: var.into(), prop: prop.into() },
        pattern: pattern.into(),
    }
}

/// `var.prop IN (values...)`.
pub fn in_set(var: &str, prop: &str, values: &[&str]) -> Expr {
    Expr::InSet {
        prop: PropRef { var: var.into(), prop: prop.into() },
        values: values.iter().map(|s| Value::String((*s).to_owned())).collect(),
    }
}

/// Conjunction.
pub fn and(es: Vec<Expr>) -> Expr {
    Expr::And(es)
}

/// Disjunction.
pub fn or(es: Vec<Expr>) -> Expr {
    Expr::Or(es)
}

/// Negation.
pub fn not(e: Expr) -> Expr {
    Expr::Not(Box::new(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_constructs_pattern() {
        let q = PatternQuery::builder()
            .node("a", "PERSON")
            .node("b", "PERSON")
            .node("c", "ORG")
            .edge("e1", "FOLLOWS", "a", "b")
            .edge_anon("WORKAT", "b", "c")
            .filter(gt(col("a", "age"), lit(50)))
            .returns(&[("b", "name")])
            .start_at("a")
            .build();
        assert_eq!(q.nodes.len(), 3);
        assert_eq!(q.edges.len(), 2);
        assert_eq!(q.edges[0].var.as_deref(), Some("e1"));
        assert!(q.edges[1].var.is_none());
        assert_eq!(q.node_idx("c"), Some(2));
        assert_eq!(q.edge_idx("e1"), Some(0));
        assert_eq!(q.hints.start.as_deref(), Some("a"));
        assert!(matches!(q.ret, ReturnSpec::Props(_)));
    }

    #[test]
    fn prop_refs_collected_recursively() {
        let e = and(vec![
            gt(col("a", "x"), lit(1)),
            or(vec![contains("b", "s", "foo"), not(eq(col("c", "y"), col("d", "z")))]),
        ]);
        let refs = e.prop_refs();
        let vars: Vec<&str> = refs.iter().map(|r| r.var.as_str()).collect();
        assert_eq!(vars, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn edge_to_unknown_node_is_a_plan_error() {
        // Regression: this used to panic inside `.edge(...)`; the fallible
        // build path reports it as Error::Plan instead.
        let err = PatternQuery::builder()
            .node("a", "X")
            .edge("e", "E", "a", "missing")
            .try_build()
            .unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err:?}");
        assert!(err.to_string().contains("undeclared node variable missing"));
    }

    #[test]
    fn duplicate_node_variable_is_a_plan_error() {
        let err = PatternQuery::builder().node("a", "X").node("a", "Y").try_build().unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err:?}");
        assert!(err.to_string().contains("duplicate node variable a"));
    }

    #[test]
    #[should_panic(expected = "undeclared node variable")]
    fn infallible_build_panics_with_the_plan_error() {
        let _ = PatternQuery::builder().node("a", "X").edge("e", "E", "a", "missing").build();
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3i64), Value::Int64(3));
        assert_eq!(Value::from("s"), Value::String("s".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(1.5f64), Value::Float64(1.5));
    }
}
