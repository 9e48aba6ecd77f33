//! Recursive-descent parser: token stream → spanned [`ast::Query`](crate::ast::Query).
//!
//! Keywords (`MATCH`, `WHERE`, `AND`, `CONTAINS`, ...) are contextual: they
//! are plain identifiers matched case-insensitively where the grammar calls
//! for them, so schema names like a `date` property or a `count` variable
//! still work. Arrows are assembled from `-`/`<`/`>` tokens (see the lexer
//! docs), which keeps `a.x < -5` unambiguous with `<-[:label]-`.
//!
//! This module is on the analyzer's hot-panic lint paths: every failure
//! must surface as a spanned diagnostic, never a panic — the token-soup
//! proptest feeds arbitrary garbage through here.

use crate::ast::{
    AggFunc, CmpOp, Dir, EdgePat, Expr, Ident, Limit, Lit, LitKind, MutationStmt, NodePat, Operand,
    OrderItem, Path, PropAssign, PropRef, Query, RetItem, SortDir, Statement, StrOp, Using,
    VertexRef,
};
use crate::diag::{Diagnostic, Phase, Span};
use crate::lexer::{float_value, int_value, lex, str_value, Tok, Token};

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Token],
    i: usize,
}

impl<'a> Parser<'a> {
    /// The current token. Tokens are `Copy` spans, so a peek never clones
    /// heap data: the parser reads a token's text from the source only
    /// where the grammar needs it.
    fn peek(&self) -> Token {
        // `toks` always ends with an Eof token and the cursor never moves
        // past it, so the fallback is unreachable in practice.
        self.toks
            .get(self.i)
            .copied()
            .unwrap_or(Token { tok: Tok::Eof, span: Span::new(self.src.len(), self.src.len()) })
    }

    fn peek_tok_at(&self, offset: usize) -> Tok {
        let idx = self.i + offset;
        self.toks.get(idx).map_or(Tok::Eof, |t| t.tok)
    }

    /// The source text of `t`.
    fn text(&self, t: Token) -> &'a str {
        t.text(self.src)
    }

    /// Is `t` the (case-insensitive) keyword `kw`?
    fn is_kw(&self, t: Token, kw: &str) -> bool {
        t.tok == Tok::Ident && self.text(t).eq_ignore_ascii_case(kw)
    }

    fn advance(&mut self) {
        let last = self.toks.len().saturating_sub(1);
        if self.i < last {
            self.i += 1;
        }
    }

    fn bump(&mut self) -> Token {
        let t = self.peek();
        self.advance();
        t
    }

    fn err(&self, span: Span, msg: String, hint: Option<String>) -> Diagnostic {
        Diagnostic::new(Phase::Parse, self.src, span, msg, hint)
    }

    fn err_here(&self, expected: &str) -> Diagnostic {
        let t = self.peek();
        self.err(t.span, format!("expected {expected}, found {}", self.describe(t)), None)
    }

    fn describe(&self, t: Token) -> String {
        t.tok.describe(self.text(t))
    }

    fn expect_tok(&mut self, tok: Tok, expected: &str) -> Result<Span, Diagnostic> {
        let t = self.peek();
        if t.tok == tok {
            self.advance();
            Ok(t.span)
        } else {
            Err(self.err_here(expected))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.is_kw(self.peek(), kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<Span, Diagnostic> {
        let t = self.peek();
        if self.is_kw(t, kw) {
            self.advance();
            Ok(t.span)
        } else {
            Err(self.err_here(&format!("`{kw}`")))
        }
    }

    /// A plain identifier (any spelling — keywords are contextual).
    fn expect_ident(&mut self, what: &str) -> Result<Ident, Diagnostic> {
        let t = self.peek();
        if t.tok == Tok::Ident {
            self.advance();
            Ok(Ident::new(self.text(t), t.span))
        } else {
            Err(self.err_here(what))
        }
    }

    // -- patterns ----------------------------------------------------------

    fn node(&mut self) -> Result<NodePat, Diagnostic> {
        self.expect_tok(Tok::LParen, "`(` to start a node pattern")?;
        let var = self.expect_ident("a node variable")?;
        let label = if self.peek().tok == Tok::Colon {
            self.advance();
            Some(self.expect_ident("a node label after `:`")?)
        } else {
            None
        };
        self.expect_tok(Tok::RParen, "`)` to close the node pattern")?;
        Ok(NodePat { var, label })
    }

    /// `[var:label]` / `[:label]` — the bracketed middle of an edge.
    fn edge_body(&mut self) -> Result<(Option<Ident>, Ident), Diagnostic> {
        self.expect_tok(Tok::LBrack, "`[` to open the edge pattern")?;
        let var = if self.peek().tok == Tok::Ident {
            Some(self.expect_ident("an edge variable")?)
        } else {
            None
        };
        self.expect_tok(Tok::Colon, "`:` before the edge label")?;
        let label = self.expect_ident("an edge label")?;
        self.expect_tok(Tok::RBrack, "`]` to close the edge pattern")?;
        Ok((var, label))
    }

    fn path(&mut self) -> Result<Path, Diagnostic> {
        let head = self.node()?;
        let mut steps = Vec::new();
        loop {
            let t = self.peek();
            match t.tok {
                // `-[..]->`
                Tok::Dash => {
                    self.advance();
                    let (var, label) = self.edge_body()?;
                    self.expect_tok(Tok::Dash, "`->` after the edge pattern")?;
                    let gt = self.expect_tok(Tok::Gt, "`->` after the edge pattern")?;
                    let node = self.node()?;
                    let span = t.span.merge(gt);
                    steps.push((EdgePat { var, label, dir: Dir::Right, span }, node));
                }
                // `<-[..]-`
                Tok::Lt => {
                    self.advance();
                    self.expect_tok(Tok::Dash, "`<-` to start an incoming edge")?;
                    let (var, label) = self.edge_body()?;
                    let dash = self.expect_tok(Tok::Dash, "`-` after the edge pattern")?;
                    let node = self.node()?;
                    let span = t.span.merge(dash);
                    steps.push((EdgePat { var, label, dir: Dir::Left, span }, node));
                }
                _ => break,
            }
        }
        Ok(Path { head, steps })
    }

    // -- literals & operands ----------------------------------------------

    fn literal(&mut self) -> Result<Lit, Diagnostic> {
        let t = self.peek();
        match t.tok {
            Tok::Int => {
                self.advance();
                Ok(Lit { kind: LitKind::Int(int_value(self.src, t, false)?), span: t.span })
            }
            Tok::Float => {
                self.advance();
                Ok(Lit { kind: LitKind::Float(float_value(self.src, t)?), span: t.span })
            }
            Tok::Str => {
                self.advance();
                Ok(Lit { kind: LitKind::Str(str_value(self.src, t)), span: t.span })
            }
            // The sign and the magnitude are read together, so `-` followed
            // by the magnitude of `i64::MIN` is that value, not an overflow.
            Tok::Dash => {
                self.advance();
                let n = self.bump();
                let span = t.span.merge(n.span);
                match n.tok {
                    Tok::Int => Ok(Lit { kind: LitKind::Int(int_value(self.src, n, true)?), span }),
                    Tok::Float => {
                        Ok(Lit { kind: LitKind::Float(-float_value(self.src, n)?), span })
                    }
                    _ => Err(self.err(
                        span,
                        format!("expected a number after `-`, found {}", self.describe(n)),
                        None,
                    )),
                }
            }
            _ if self.is_kw(t, "true") => {
                self.advance();
                Ok(Lit { kind: LitKind::Bool(true), span: t.span })
            }
            _ if self.is_kw(t, "false") => {
                self.advance();
                Ok(Lit { kind: LitKind::Bool(false), span: t.span })
            }
            _ if self.is_kw(t, "date") && self.peek_tok_at(1) == Tok::LParen => {
                self.advance();
                self.advance();
                let neg = self.peek().tok == Tok::Dash;
                if neg {
                    self.advance();
                }
                let n = self.peek();
                if n.tok != Tok::Int {
                    return Err(self.err_here("an integer timestamp inside date(...)"));
                }
                self.advance();
                let close = self.expect_tok(Tok::RParen, "`)` to close date(...)")?;
                let value = int_value(self.src, n, neg)?;
                Ok(Lit { kind: LitKind::Date(value), span: t.span.merge(close) })
            }
            _ => Err(self.err_here("a literal (integer, float, 'string', true/false, date(n))")),
        }
    }

    fn operand(&mut self) -> Result<Operand, Diagnostic> {
        let t = self.peek();
        if t.tok == Tok::Ident {
            let s = self.text(t);
            let reserved = ["true", "false"].iter().any(|k| s.eq_ignore_ascii_case(k));
            let date_call = s.eq_ignore_ascii_case("date") && self.peek_tok_at(1) == Tok::LParen;
            if !reserved && !date_call {
                let var = self.expect_ident("a variable")?;
                self.expect_tok(Tok::Dot, "`.` after the variable (properties are `var.prop`)")?;
                let prop = self.expect_ident("a property name after `.`")?;
                return Ok(Operand::Prop(PropRef { var, prop }));
            }
        }
        Ok(Operand::Lit(self.literal()?))
    }

    // -- predicate expressions ---------------------------------------------

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        let first = self.and_expr()?;
        if !self.at_kw("OR") {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat_kw("OR") {
            parts.push(self.and_expr()?);
        }
        Ok(Expr::Or(parts))
    }

    fn and_expr(&mut self) -> Result<Expr, Diagnostic> {
        let first = self.unary_expr()?;
        if !self.at_kw("AND") {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat_kw("AND") {
            parts.push(self.unary_expr()?);
        }
        Ok(Expr::And(parts))
    }

    fn unary_expr(&mut self) -> Result<Expr, Diagnostic> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.unary_expr()?)));
        }
        if self.peek().tok == Tok::LParen {
            self.advance();
            let inner = self.expr()?;
            self.expect_tok(Tok::RParen, "`)` to close the parenthesized predicate")?;
            return Ok(inner);
        }
        self.comparison()
    }

    /// The string predicates and `IN` require a property on the left; plain
    /// comparisons accept property or literal on either side.
    fn comparison(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.operand()?;
        let t = self.peek();
        let str_op = if self.is_kw(t, "CONTAINS") {
            self.advance();
            Some(StrOp::Contains)
        } else if self.is_kw(t, "STARTS") {
            self.advance();
            self.expect_kw("WITH")?;
            Some(StrOp::StartsWith)
        } else if self.is_kw(t, "ENDS") {
            self.advance();
            self.expect_kw("WITH")?;
            Some(StrOp::EndsWith)
        } else {
            None
        };
        if let Some(op) = str_op {
            let Operand::Prop(prop) = lhs else {
                return Err(self.err(
                    lhs.span(),
                    "string predicates (CONTAINS / STARTS WITH / ENDS WITH) apply to a property"
                        .to_string(),
                    Some("write `var.prop CONTAINS '...'`".to_string()),
                ));
            };
            let pat = self.literal()?;
            if !matches!(pat.kind, LitKind::Str(_)) {
                return Err(self.err(
                    pat.span,
                    "string predicates take a quoted string pattern".to_string(),
                    None,
                ));
            }
            return Ok(Expr::StrMatch { op, prop, pattern: pat });
        }
        if self.is_kw(t, "IN") {
            self.advance();
            let Operand::Prop(prop) = lhs else {
                return Err(self.err(
                    lhs.span(),
                    "`IN` applies to a property".to_string(),
                    Some("write `var.prop IN ['a', 'b']`".to_string()),
                ));
            };
            self.expect_tok(Tok::LBrack, "`[` to open the IN list")?;
            let mut values = vec![self.literal()?];
            while self.peek().tok == Tok::Comma {
                self.advance();
                values.push(self.literal()?);
            }
            self.expect_tok(Tok::RBrack, "`]` to close the IN list")?;
            return Ok(Expr::InSet { prop, values });
        }
        let op = match t.tok {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => {
                return Err(self.err_here(
                    "a comparison operator (`=`, `<>`, `<`, `<=`, `>`, `>=`, CONTAINS, \
                     STARTS WITH, ENDS WITH, IN)",
                ))
            }
        };
        self.advance();
        let rhs = self.operand()?;
        Ok(Expr::Cmp { op, lhs, rhs })
    }

    // -- RETURN / ORDER BY / LIMIT / USING ---------------------------------

    fn agg_func(name: &str) -> Option<AggFunc> {
        if name.eq_ignore_ascii_case("count") {
            Some(AggFunc::Count)
        } else if name.eq_ignore_ascii_case("sum") {
            Some(AggFunc::Sum)
        } else if name.eq_ignore_ascii_case("min") {
            Some(AggFunc::Min)
        } else if name.eq_ignore_ascii_case("max") {
            Some(AggFunc::Max)
        } else if name.eq_ignore_ascii_case("avg") {
            Some(AggFunc::Avg)
        } else {
            None
        }
    }

    fn prop_ref(&mut self) -> Result<PropRef, Diagnostic> {
        let var = self.expect_ident("a variable")?;
        self.expect_tok(Tok::Dot, "`.` after the variable (return items are `var.prop`)")?;
        let prop = self.expect_ident("a property name after `.`")?;
        Ok(PropRef { var, prop })
    }

    fn ret_item(&mut self) -> Result<RetItem, Diagnostic> {
        let t = self.peek();
        if t.tok == Tok::Ident {
            if let Some(func) = Self::agg_func(self.text(t)) {
                if self.peek_tok_at(1) == Tok::LParen {
                    self.advance();
                    self.advance();
                    if func == AggFunc::Count && self.peek().tok == Tok::Star {
                        self.advance();
                        let close = self.expect_tok(Tok::RParen, "`)` to close count(*)")?;
                        return Ok(RetItem::CountStar { span: t.span.merge(close) });
                    }
                    // `distinct` is contextual too: `count(distinct a.b)` vs
                    // a property ref on a variable named `distinct`.
                    let distinct = if func == AggFunc::Count
                        && self.at_kw("DISTINCT")
                        && self.peek_tok_at(1) != Tok::Dot
                    {
                        self.advance();
                        true
                    } else {
                        false
                    };
                    let prop = self.prop_ref()?;
                    let close = self.expect_tok(Tok::RParen, "`)` to close the aggregate")?;
                    return Ok(RetItem::Agg { func, distinct, prop, span: t.span.merge(close) });
                }
            }
        }
        Ok(RetItem::Prop(self.prop_ref()?))
    }

    fn order_items(&mut self) -> Result<Vec<OrderItem>, Diagnostic> {
        let mut items = Vec::new();
        loop {
            let item = self.ret_item()?;
            let dir = if self.eat_kw("ASC") {
                Some(SortDir::Asc)
            } else if self.eat_kw("DESC") {
                Some(SortDir::Desc)
            } else {
                None
            };
            items.push(OrderItem { item, dir });
            if self.peek().tok == Tok::Comma {
                self.advance();
            } else {
                return Ok(items);
            }
        }
    }

    fn using_clause(&mut self) -> Result<Using, Diagnostic> {
        if self.eat_kw("START") {
            return Ok(Using::Start(self.expect_ident("a node variable after USING START")?));
        }
        if self.eat_kw("ORDER") {
            let mut vars = vec![self.expect_ident("an edge variable after USING ORDER")?];
            while self.peek().tok == Tok::Comma {
                self.advance();
                vars.push(self.expect_ident("an edge variable")?);
            }
            return Ok(Using::Order(vars));
        }
        Err(self.err_here("`START` or `ORDER` after `USING`"))
    }

    fn query(&mut self) -> Result<Query, Diagnostic> {
        self.expect_kw("MATCH")?;
        let mut paths = vec![self.path()?];
        while self.peek().tok == Tok::Comma {
            self.advance();
            paths.push(self.path()?);
        }
        let predicate = if self.eat_kw("WHERE") { Some(self.expr()?) } else { None };
        self.expect_kw("RETURN")?;
        let distinct = self.eat_kw("DISTINCT");
        // Most RETURN lists fit in four items; a longer one grows once.
        let mut ret = Vec::with_capacity(4);
        ret.push(self.ret_item()?);
        while self.peek().tok == Tok::Comma {
            self.advance();
            ret.push(self.ret_item()?);
        }
        let order_by = if self.at_kw("ORDER") {
            self.advance();
            self.expect_kw("BY")?;
            self.order_items()?
        } else {
            Vec::new()
        };
        let limit = if self.at_kw("LIMIT") {
            let kw = self.peek().span;
            self.advance();
            let t = self.peek();
            if t.tok != Tok::Int {
                return Err(self.err_here("a non-negative integer after LIMIT"));
            }
            self.advance();
            Some(Limit { value: int_value(self.src, t, false)?, span: kw.merge(t.span) })
        } else {
            None
        };
        let mut using = Vec::new();
        while self.eat_kw("USING") {
            using.push(self.using_clause()?);
        }
        if self.peek().tok != Tok::Eof {
            return Err(self.err_here("end of query"));
        }
        Ok(Query { paths, predicate, distinct, ret, order_by, limit, using })
    }

    // -- mutations ---------------------------------------------------------

    /// `label key` — a vertex addressed by label and integer primary key.
    fn vertex_ref(&mut self) -> Result<VertexRef, Diagnostic> {
        let label = self.expect_ident("a vertex label")?;
        let lit = self.literal()?;
        let LitKind::Int(key) = lit.kind else {
            return Err(self.err(
                lit.span,
                "vertices are addressed by integer primary key".to_string(),
                Some(format!("write `{} <key>` with an integer key", label.text)),
            ));
        };
        Ok(VertexRef { label, key, key_span: lit.span })
    }

    /// `(prop = literal, ...)` — at least one assignment.
    fn prop_assigns(&mut self) -> Result<Vec<PropAssign>, Diagnostic> {
        self.expect_tok(Tok::LParen, "`(` to open the property list")?;
        let mut out = Vec::new();
        loop {
            let prop = self.expect_ident("a property name")?;
            self.expect_tok(Tok::Eq, "`=` after the property name")?;
            let value = self.literal()?;
            out.push(PropAssign { prop, value });
            if self.peek().tok == Tok::Comma {
                self.advance();
            } else {
                break;
            }
        }
        self.expect_tok(Tok::RParen, "`)` to close the property list")?;
        Ok(out)
    }

    /// `FROM <label> <key> TO <label> <key>` — both endpoints of an edge.
    fn edge_endpoints(&mut self) -> Result<(VertexRef, VertexRef), Diagnostic> {
        self.expect_kw("FROM")?;
        let src = self.vertex_ref()?;
        self.expect_kw("TO")?;
        let dst = self.vertex_ref()?;
        Ok((src, dst))
    }

    fn mutation(&mut self) -> Result<MutationStmt, Diagnostic> {
        let stmt = if self.eat_kw("INSERT") {
            if self.eat_kw("VERTEX") {
                let label = self.expect_ident("a vertex label after `INSERT VERTEX`")?;
                let props = self.prop_assigns()?;
                MutationStmt::InsertVertex { label, props }
            } else if self.eat_kw("EDGE") {
                let label = self.expect_ident("an edge label after `INSERT EDGE`")?;
                let (src, dst) = self.edge_endpoints()?;
                let props =
                    if self.peek().tok == Tok::LParen { self.prop_assigns()? } else { Vec::new() };
                MutationStmt::InsertEdge { label, src, dst, props }
            } else {
                return Err(self.err_here("`VERTEX` or `EDGE` after `INSERT`"));
            }
        } else if self.eat_kw("UPDATE") {
            self.expect_kw("VERTEX")?;
            let target = self.vertex_ref()?;
            self.expect_kw("SET")?;
            let sets = self.prop_assigns()?;
            MutationStmt::UpdateVertex { target, sets }
        } else if self.eat_kw("DELETE") {
            if self.eat_kw("VERTEX") {
                MutationStmt::DeleteVertex { target: self.vertex_ref()? }
            } else if self.eat_kw("EDGE") {
                let label = self.expect_ident("an edge label after `DELETE EDGE`")?;
                let (src, dst) = self.edge_endpoints()?;
                MutationStmt::DeleteEdge { label, src, dst }
            } else {
                return Err(self.err_here("`VERTEX` or `EDGE` after `DELETE`"));
            }
        } else {
            return Err(self.err_here("`MATCH`, `INSERT`, `UPDATE` or `DELETE`"));
        };
        if self.peek().tok != Tok::Eof {
            return Err(self.err_here("end of statement"));
        }
        Ok(stmt)
    }

    fn statement(&mut self) -> Result<Statement, Diagnostic> {
        if self.at_kw("MATCH") {
            return Ok(Statement::Query(self.query()?));
        }
        Ok(Statement::Mutation(self.mutation()?))
    }
}

/// Lex and parse `source` into a spanned AST.
pub fn parse(source: &str) -> Result<Query, Diagnostic> {
    parse_tokens(source, &lex(source)?)
}

/// Parse the tokens [`lex`] produced from `source` into a spanned AST, so
/// a caller that needed the tokens first does not lex twice.
pub fn parse_tokens(source: &str, toks: &[Token]) -> Result<Query, Diagnostic> {
    let mut p = Parser { src: source, toks, i: 0 };
    p.query()
}

/// Lex and parse `source` as a top-level statement: a `MATCH` query or an
/// `INSERT` / `UPDATE` / `DELETE` mutation.
pub fn parse_statement(source: &str) -> Result<Statement, Diagnostic> {
    let toks = lex(source)?;
    let mut p = Parser { src: source, toks: &toks, i: 0 };
    p.statement()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_small_query() {
        let q = parse(
            "MATCH (a:Person)-[k:knows]->(b:Person), (b)<-[:hasCreator]-(c:Comment)\n\
             WHERE a.id = 42 AND c.length > 10\n\
             RETURN b.fName, count(*)\n\
             ORDER BY count(*) DESC\n\
             LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.paths.len(), 2);
        assert_eq!(q.paths[0].steps.len(), 1);
        assert_eq!(q.paths[1].steps[0].0.dir, Dir::Left);
        assert!(matches!(q.predicate, Some(Expr::And(ref xs)) if xs.len() == 2));
        assert_eq!(q.ret.len(), 2);
        assert_eq!(q.order_by.len(), 1);
        assert_eq!(q.limit.as_ref().map(|l| l.value), Some(5));
    }

    #[test]
    fn negative_literal_vs_left_arrow() {
        let q = parse("MATCH (a:NODE) WHERE a.id > -5 RETURN count(*)").unwrap();
        let Some(Expr::Cmp { rhs: Operand::Lit(l), .. }) = q.predicate else {
            panic!("expected comparison")
        };
        assert_eq!(l.kind, LitKind::Int(-5));
    }

    /// The right-hand literal of the only comparison in `q`.
    fn rhs_lit(q: Query) -> LitKind {
        let Some(Expr::Cmp { rhs: Operand::Lit(l), .. }) = q.predicate else {
            panic!("expected a comparison against a literal")
        };
        l.kind
    }

    #[test]
    fn i64_min_is_a_literal_in_both_positions() {
        let q = parse("MATCH (a:Person) WHERE a.id = -9223372036854775808 RETURN a.id").unwrap();
        assert_eq!(rhs_lit(q), LitKind::Int(i64::MIN));
        let q =
            parse("MATCH (a:Person) WHERE a.d > date(-9223372036854775808) RETURN a.id").unwrap();
        assert_eq!(rhs_lit(q), LitKind::Date(i64::MIN));
        let q = parse("MATCH (a:Person) WHERE a.id = 9223372036854775807 RETURN a.id").unwrap();
        assert_eq!(rhs_lit(q), LitKind::Int(i64::MAX));
        // Without the sign the same magnitude is still out of range.
        for text in [
            "MATCH (a:Person) WHERE a.id = 9223372036854775808 RETURN a.id",
            "MATCH (a:Person) WHERE a.d > date(9223372036854775808) RETURN a.id",
            "MATCH (a:Person) WHERE a.id = -9223372036854775809 RETURN a.id",
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.phase, Phase::Lex, "{text}");
            assert!(err.message.contains("is out of range"), "{}", err.message);
        }
    }

    #[test]
    fn extreme_literals_print_and_reparse() {
        for kind in [LitKind::Int(i64::MIN), LitKind::Date(i64::MIN), LitKind::Int(i64::MAX)] {
            let lit = Lit { kind: kind.clone(), span: Span::ZERO };
            let q = parse(&format!("MATCH (a:P) WHERE a.x = {lit} RETURN a.x")).unwrap();
            assert_eq!(rhs_lit(q), kind);
        }
    }

    #[test]
    fn date_call_and_date_property_coexist() {
        let q =
            parse("MATCH (a:P)-[k:knows]->(b:P) WHERE k.date > date(100) RETURN count(*)").unwrap();
        let Some(Expr::Cmp { lhs: Operand::Prop(p), rhs: Operand::Lit(l), .. }) = q.predicate
        else {
            panic!("expected comparison")
        };
        assert_eq!(p.prop.text, "date");
        assert_eq!(l.kind, LitKind::Date(100));
    }

    #[test]
    fn using_clauses() {
        let q = parse(
            "MATCH (a:N)-[e1:L]->(b:N)-[e2:L]->(c:N) RETURN count(*) \
             USING START c USING ORDER e2, e1",
        )
        .unwrap();
        assert_eq!(q.using.len(), 2);
        assert!(matches!(q.using[0], Using::Start(ref v) if v.text == "c"));
        assert!(matches!(q.using[1], Using::Order(ref vs) if vs.len() == 2));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("match (a:P) return a.id order by a.id desc limit 3").is_ok());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = parse("MATCH (a:P) RETURN a.id garbage").unwrap_err();
        assert!(err.message.contains("expected end of query"), "{}", err.message);
    }

    #[test]
    fn missing_return_is_rejected() {
        let err = parse("MATCH (a:P)").unwrap_err();
        assert!(err.message.contains("`RETURN`"), "{}", err.message);
    }

    #[test]
    fn count_distinct_parses() {
        let q = parse("MATCH (a:P) RETURN a.g, count(distinct a.b)").unwrap();
        assert!(matches!(q.ret[1], RetItem::Agg { func: AggFunc::Count, distinct: true, .. }));
    }

    #[test]
    fn mutation_statements_parse() {
        let s = parse_statement("INSERT VERTEX PERSON (name = 'zoe', age = 30)").unwrap();
        let Statement::Mutation(MutationStmt::InsertVertex { label, props }) = s else {
            panic!("expected insert-vertex")
        };
        assert_eq!(label.text, "PERSON");
        assert_eq!(props.len(), 2);

        let s = parse_statement("insert edge FOLLOWS from PERSON 45 to PERSON 54 (since = 2020)")
            .unwrap();
        let Statement::Mutation(MutationStmt::InsertEdge { src, dst, props, .. }) = s else {
            panic!("expected insert-edge")
        };
        assert_eq!((src.key, dst.key), (45, 54));
        assert_eq!(props.len(), 1);

        let s = parse_statement("UPDATE VERTEX PERSON 45 SET (age = 46)").unwrap();
        assert!(matches!(s, Statement::Mutation(MutationStmt::UpdateVertex { .. })));
        let s = parse_statement("DELETE VERTEX PERSON 17").unwrap();
        assert!(matches!(s, Statement::Mutation(MutationStmt::DeleteVertex { .. })));
        let s = parse_statement("DELETE EDGE FOLLOWS FROM PERSON 45 TO PERSON 54").unwrap();
        assert!(matches!(s, Statement::Mutation(MutationStmt::DeleteEdge { .. })));

        // MATCH still routes to the query grammar.
        let s = parse_statement("MATCH (a:P) RETURN count(*)").unwrap();
        assert!(matches!(s, Statement::Query(_)));
    }

    #[test]
    fn mutation_errors_are_spanned() {
        let err = parse_statement("INSERT TABLE t (a = 1)").unwrap_err();
        assert!(err.message.contains("`VERTEX` or `EDGE`"), "{}", err.message);
        let err = parse_statement("UPDATE VERTEX PERSON 'x' SET (a = 1)").unwrap_err();
        assert!(err.message.contains("integer primary key"), "{}", err.message);
        let err = parse_statement("DELETE VERTEX PERSON 1 trailing").unwrap_err();
        assert!(err.message.contains("end of statement"), "{}", err.message);
    }

    #[test]
    fn pretty_print_round_trips() {
        let text = "MATCH (a:Person)-[k:knows]->(b:Person), (b)<-[:hasCreator]-(c:Comment)\n\
                    WHERE (a.id = 42 OR NOT b.fName CONTAINS 'x') AND c.browserUsed IN ['a', 'b']\n\
                    RETURN DISTINCT b.fName, b.lName\n\
                    ORDER BY b.fName DESC, b.lName\n\
                    LIMIT 7\n\
                    USING START a";
        let mut q1 = parse(text).unwrap();
        let printed = q1.to_string();
        let mut q2 = parse(&printed).unwrap();
        q1.strip_spans();
        q2.strip_spans();
        assert_eq!(q1, q2, "printed form:\n{printed}");
    }
}
