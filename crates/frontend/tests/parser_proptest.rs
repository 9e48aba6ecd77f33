//! Parser property tests:
//!
//! 1. **Round-trip**: for random well-formed ASTs, pretty-print → re-parse
//!    → span-stripped equality. This pins the printer and parser to the
//!    same grammar — precedence, contextual keywords, literal forms.
//! 2. **Total on garbage**: the parser returns `Ok`/`Err` on arbitrary
//!    token soup and arbitrary char soup; it must never panic (the lexer
//!    and parser are also hot-panic-linted, this is the dynamic check).

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use gfcl_frontend::ast::{
    AggFunc, CmpOp, Dir, EdgePat, Expr, Ident, Limit, Lit, LitKind, NodePat, Operand, OrderItem,
    Path, PropRef, Query, RetItem, SortDir, StrOp, Using,
};
use gfcl_frontend::diag::Span;

// Identifier pools keep generated programs syntactically valid while still
// exercising contextual keywords (`order`, `date` are legal identifiers).
const VARS: &[&str] = &["a", "b", "c", "v0", "v1", "x", "y", "node", "order", "date"];
const LABELS: &[&str] = &["Person", "Comment", "knows", "likes", "T2", "lbl"];
const PROPS: &[&str] = &["id", "ts", "name", "val", "date", "p0"];
const STRINGS: &[&str] = &["", "abc", "a'b", "a\\b", "line\nbreak", "tab\there", "Ünïcode"];

fn ident(pool: &'static [&'static str]) -> impl Strategy<Value = Ident> {
    (0..pool.len()).prop_map(|i| Ident::new(pool[i], Span::ZERO))
}

/// Integer payloads: a wide range plus the edges of `i64`, where the sign
/// and the magnitude must be read together (`i64::MIN` has no positive
/// twin).
fn int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -1_000_000_000_000i64..1_000_000_000_000,
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0),
        Just(-1),
    ]
}

fn lit() -> impl Strategy<Value = Lit> {
    let kind = prop_oneof![
        int().prop_map(LitKind::Int),
        ((-999i32..1000), (0i32..100))
            .prop_map(|(a, b)| LitKind::Float(f64::from(a) + f64::from(b) / 100.0)),
        (0..STRINGS.len()).prop_map(|i| LitKind::Str(STRINGS[i].to_owned())),
        any::<bool>().prop_map(LitKind::Bool),
        int().prop_map(LitKind::Date),
    ];
    kind.prop_map(|kind| Lit { kind, span: Span::ZERO })
}

fn str_lit() -> impl Strategy<Value = Lit> {
    (0..STRINGS.len())
        .prop_map(|i| Lit { kind: LitKind::Str(STRINGS[i].to_owned()), span: Span::ZERO })
}

fn prop_ref() -> impl Strategy<Value = PropRef> {
    (ident(VARS), ident(PROPS)).prop_map(|(var, prop)| PropRef { var, prop })
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![prop_ref().prop_map(Operand::Prop), lit().prop_map(Operand::Lit)]
}

fn cmp_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn expr_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (cmp_op(), operand(), operand()).prop_map(|(op, lhs, rhs)| Expr::Cmp { op, lhs, rhs }),
        (
            prop_oneof![Just(StrOp::Contains), Just(StrOp::StartsWith), Just(StrOp::EndsWith)],
            prop_ref(),
            str_lit()
        )
            .prop_map(|(op, prop, pattern)| Expr::StrMatch { op, prop, pattern }),
        (prop_ref(), proptest::collection::vec(lit(), 1..4))
            .prop_map(|(prop, values)| Expr::InSet { prop, values }),
    ]
}

/// Depth-bounded recursive expression strategy (the vendored proptest has no
/// `prop_recursive`, so recursion is explicit: depth 0 is a leaf, each level
/// above may wrap children in `AND` / `OR` / `NOT`).
fn expr_at(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        return expr_leaf().boxed();
    }
    let inner = expr_at(depth - 1);
    prop_oneof![
        expr_leaf().boxed(),
        proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::And).boxed(),
        proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Or).boxed(),
        inner.prop_map(|e| Expr::Not(Box::new(e))).boxed(),
    ]
    .boxed()
}

fn expr() -> impl Strategy<Value = Expr> {
    expr_at(3)
}

fn node_pat() -> impl Strategy<Value = NodePat> {
    (ident(VARS), proptest::option::of(ident(LABELS)))
        .prop_map(|(var, label)| NodePat { var, label })
}

fn edge_pat() -> impl Strategy<Value = EdgePat> {
    (
        proptest::option::of(ident(VARS)),
        ident(LABELS),
        prop_oneof![Just(Dir::Right), Just(Dir::Left)],
    )
        .prop_map(|(var, label, dir)| EdgePat { var, label, dir, span: Span::ZERO })
}

fn path() -> impl Strategy<Value = Path> {
    (node_pat(), proptest::collection::vec((edge_pat(), node_pat()), 0..3))
        .prop_map(|(head, steps)| Path { head, steps })
}

fn ret_item() -> impl Strategy<Value = RetItem> {
    prop_oneof![
        prop_ref().prop_map(RetItem::Prop),
        Just(RetItem::CountStar { span: Span::ZERO }),
        (
            prop_oneof![
                Just((AggFunc::Count, false)),
                Just((AggFunc::Count, true)),
                Just((AggFunc::Sum, false)),
                Just((AggFunc::Min, false)),
                Just((AggFunc::Max, false)),
                Just((AggFunc::Avg, false)),
            ],
            prop_ref()
        )
            .prop_map(|((func, distinct), prop)| RetItem::Agg {
                func,
                distinct,
                prop,
                span: Span::ZERO
            }),
    ]
}

fn order_item() -> impl Strategy<Value = OrderItem> {
    (ret_item(), proptest::option::of(prop_oneof![Just(SortDir::Asc), Just(SortDir::Desc)]))
        .prop_map(|(item, dir)| OrderItem { item, dir })
}

fn using() -> impl Strategy<Value = Using> {
    prop_oneof![
        ident(VARS).prop_map(Using::Start),
        proptest::collection::vec(ident(VARS), 1..4).prop_map(Using::Order),
    ]
}

fn query() -> impl Strategy<Value = Query> {
    (
        proptest::collection::vec(path(), 1..3),
        proptest::option::of(expr()),
        any::<bool>(),
        proptest::collection::vec(ret_item(), 1..4),
        proptest::collection::vec(order_item(), 0..3),
        proptest::option::of((0i64..1_000_000).prop_map(|value| Limit { value, span: Span::ZERO })),
        proptest::collection::vec(using(), 0..3),
    )
        .prop_map(|(paths, predicate, distinct, ret, order_by, limit, using)| Query {
            paths,
            predicate,
            distinct,
            ret,
            order_by,
            limit,
            using,
        })
}

/// Fragments for the token-soup test: valid tokens, near-tokens, and junk.
const SOUP: &[&str] = &[
    "MATCH",
    "WHERE",
    "RETURN",
    "ORDER",
    "BY",
    "LIMIT",
    "USING",
    "START",
    "DISTINCT",
    "AND",
    "OR",
    "NOT",
    "IN",
    "CONTAINS",
    "STARTS",
    "WITH",
    "count",
    "sum",
    "date",
    "(",
    ")",
    "[",
    "]",
    "-",
    "->",
    "<-",
    "<",
    "<=",
    "<>",
    ">=",
    "=",
    "*",
    ",",
    ".",
    ":",
    "(a:Person)",
    "-[k:knows]->",
    "a.id",
    "'str",
    "'ok'",
    "''",
    "\\",
    "123",
    "1_2_3",
    "12.5",
    "9999999999999999999999",
    "-7",
    "true",
    "false",
    "count(*)",
    "//",
    "--",
    ";",
    "$",
    "€",
    "\n",
    "x",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse → strip spans → identical AST.
    #[test]
    fn pretty_printed_queries_reparse_identically(q in query()) {
        let text = q.to_string();
        let mut reparsed = gfcl_frontend::parse(&text)
            .unwrap_or_else(|e| panic!("printer emitted unparsable text:\n{text}\n{e}"));
        reparsed.strip_spans();
        prop_assert_eq!(reparsed, q, "round-trip diverged for:\n{}", text);
    }

    /// Token soup: any sequence of plausible fragments parses to Ok or a
    /// Diagnostic — never a panic.
    #[test]
    fn parser_is_total_on_token_soup(
        picks in proptest::collection::vec(0..SOUP.len(), 0..40),
    ) {
        let text = picks.iter().map(|&i| SOUP[i]).collect::<Vec<_>>().join(" ");
        let _ = gfcl_frontend::parse(&text);
    }

    /// Char soup: arbitrary unicode input is handled the same way.
    #[test]
    fn parser_is_total_on_char_soup(
        codepoints in proptest::collection::vec(0u32..0x11_0000, 0..80),
    ) {
        let text: String =
            codepoints.into_iter().map(|c| char::from_u32(c).unwrap_or('\u{FFFD}')).collect();
        let _ = gfcl_frontend::parse(&text);
    }
}
