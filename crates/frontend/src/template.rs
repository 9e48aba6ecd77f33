//! Query templates: the literal-normalised form of a text query, and the
//! path a text query takes on an engine that keeps a plan cache.
//!
//! A text's **key** is every token's kind plus the text of every
//! identifier, and of every literal that does not become a parameter:
//! `LIMIT n`, the elements of an `IN` list and the pattern of `CONTAINS` /
//! `STARTS WITH` / `ENDS WITH`. Whitespace and comments are not tokens,
//! so they never reach a key; keywords keep their spelling, so `match`
//! and `MATCH` are two keys. Every other `Int`, `Float` and `Str` token is
//! a **parameter**, whose value is read from the text per call with the
//! same readers (and range checks) the parser uses. Two texts with one
//! key parse to ASTs that differ in parameter values only, bind to the
//! same template and — when the template is literal-invariant — plan to
//! the same [`LogicalPlan`](gfcl_core::LogicalPlan), so [`run_text`] can
//! run a cached plan with the new values after lexing alone.

use gfcl_common::{DataType, Value};
use gfcl_core::{plan_template, Engine, QueryOutput};

use crate::binder::{self, TemplateParams};
use crate::diag::{Diagnostic, Span};
use crate::lexer::{float_value, int_value, lex, str_value, Tok, Token};
use crate::{classify, compile, parser};

/// Ends an identifier's or a fixed literal's text in a key; `0xFF` never
/// occurs in UTF-8, so no text can swallow it.
const TEXT_END: u8 = 0xFF;
/// Stands for a parameter's text in a key.
const PARAM: u8 = 0xFE;

/// How a literal token takes part in a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Part of the key: `LIMIT n`, an `IN` list element, a string pattern.
    Fixed,
    /// A parameter. `negative`: a `-` sign precedes it; `date`: it is the
    /// timestamp inside `date(...)`.
    Param { negative: bool, date: bool },
}

/// A text query in literal-normalised form.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// The plan-cache key (see the module docs).
    pub key: Vec<u8>,
    /// The parameters' values, in text order: what [`binder::bind_template`]
    /// numbers `Param(0)`, `Param(1)`, ... for this text.
    pub params: Vec<Value>,
}

/// Is `t` the (case-insensitive) keyword `kw`?
fn is_kw(src: &str, t: Option<&Token>, kw: &str) -> bool {
    t.is_some_and(|t| t.tok == Tok::Ident && t.text(src).eq_ignore_ascii_case(kw))
}

/// Every token of `toks` with its [`Role`] (`None` for non-literals).
fn roles<'a>(src: &'a str, toks: &'a [Token]) -> impl Iterator<Item = (Token, Option<Role>)> + 'a {
    let at = move |j: usize, back: usize| j.checked_sub(back).and_then(|k| toks.get(k));
    let mut in_list = false;
    toks.iter().enumerate().map(move |(j, t)| {
        let role = match t.tok {
            Tok::Int | Tok::Float | Tok::Str => {
                let negative = at(j, 1).is_some_and(|p| p.tok == Tok::Dash);
                let back = if negative { 2 } else { 1 };
                let before = at(j, back);
                let fixed = in_list
                    || ["LIMIT", "CONTAINS", "WITH"].iter().any(|kw| is_kw(src, before, kw));
                let date = t.tok == Tok::Int
                    && before.is_some_and(|b| b.tok == Tok::LParen)
                    && is_kw(src, at(j, back + 1), "date");
                Some(if fixed { Role::Fixed } else { Role::Param { negative, date } })
            }
            Tok::LBrack => {
                in_list = is_kw(src, at(j, 1), "IN");
                None
            }
            Tok::RBrack => {
                in_list = false;
                None
            }
            _ => None,
        };
        (*t, role)
    })
}

/// The value of parameter token `t`, read as the parser reads literals.
fn param_value(src: &str, t: Token, negative: bool, date: bool) -> Result<Value, Diagnostic> {
    Ok(match t.tok {
        Tok::Int if date => Value::Date(int_value(src, t, negative)?),
        Tok::Int => Value::Int64(int_value(src, t, negative)?),
        Tok::Float if negative => Value::Float64(-float_value(src, t)?),
        Tok::Float => Value::Float64(float_value(src, t)?),
        _ => Value::String(str_value(src, t)),
    })
}

/// The literal-normalised form of `src`, whose tokens `lex(src)` produced.
pub fn signature(src: &str, toks: &[Token]) -> Result<Signature, Diagnostic> {
    // A kind byte per token, plus at most the token's text and a marker.
    let mut key = Vec::with_capacity(src.len() + 2 * toks.len());
    let mut params = Vec::new();
    for (t, role) in roles(src, toks) {
        key.push(t.tok as u8);
        match role {
            Some(Role::Param { negative, date }) => {
                key.push(PARAM);
                params.push(param_value(src, t, negative, date)?);
            }
            Some(Role::Fixed) => {
                key.extend_from_slice(t.text(src).as_bytes());
                key.push(TEXT_END);
            }
            None if t.tok == Tok::Ident => {
                key.extend_from_slice(t.text(src).as_bytes());
                key.push(TEXT_END);
            }
            None => {}
        }
    }
    Ok(Signature { key, params })
}

/// Did the binder make exactly the key's parameters into its own, in the
/// same order and with the same values? Only then does a later text with
/// this key read its values into the slots the template's plan expects.
fn agrees(src: &str, toks: &[Token], sig: &Signature, bound: &TemplateParams) -> bool {
    let param_spans = roles(src, toks)
        .filter(|(_, role)| matches!(role, Some(Role::Param { .. })))
        .map(|(t, _)| t.span);
    bound.values == sig.params
        && bound.spans.len() == sig.params.len()
        && bound
            .spans
            .iter()
            .zip(param_spans)
            .all(|(lit, tok): (&Span, Span)| lit.start <= tok.start && tok.end <= lit.end)
}

/// Run the text query `text` on `engine`.
///
/// On an engine that offers a plan cache ([`Engine::plan_cache`]; GF-CL
/// does) the text is lexed and its [`Signature`] looked up. A hit hands the
/// cache entry — the verified plan, its compiled layout and its pooled
/// chunks — to the engine ([`Engine::run_cached`]) with this text's
/// parameter values: no parse, bind, plan, verify or layout, and no copy of
/// the plan. A miss parses the tokens
/// already lexed, binds a template and, when the template is
/// literal-invariant (`PatternQuery::literal_invariant`), plans, verifies
/// and stores it; otherwise the call plans its literal-inlined query and
/// stores nothing. Every other engine compiles and plans every call.
/// Either way the answer, and any diagnostic, is the uncached path's.
pub fn run_text(engine: &(impl Engine + ?Sized), text: &str) -> gfcl_common::Result<QueryOutput> {
    let Some(cache) = engine.plan_cache() else {
        let q = compile(text, engine.catalog())?;
        return engine.execute(&q);
    };
    let toks = lex(text).map_err(classify)?;
    let sig = signature(text, &toks).map_err(classify)?;
    if let Some(entry) = cache.get(&sig.key) {
        return engine.run_cached(&entry, &sig.params);
    }
    let ast = parser::parse_tokens(text, &toks).map_err(classify)?;
    let (mut q, bound) = binder::bind_template(&ast, text, engine.catalog()).map_err(classify)?;
    if q.literal_invariant() && agrees(text, &toks, &sig, &bound) {
        let types: Vec<DataType> = sig.params.iter().filter_map(Value::data_type).collect();
        // A template that fails to plan (or to lay out) reports the error
        // its literal-inlined query reports, below.
        let stored =
            plan_template(&q, engine.catalog(), &types).and_then(|p| cache.insert(sig.key, p));
        if let Ok(entry) = stored {
            return engine.run_cached(&entry, &sig.params);
        }
    } else {
        cache.note_not_reusable();
    }
    q.inline_params(&bound.values);
    engine.execute(&q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(src: &str) -> Signature {
        signature(src, &lex(src).unwrap()).unwrap()
    }

    #[test]
    fn whitespace_and_comments_do_not_reach_the_key() {
        let a = sig("MATCH (a:P) WHERE a.id = 5 RETURN a.x");
        let b = sig("MATCH  (a:P)\n// who\nWHERE a.id=7 -- seven\nRETURN a.x");
        assert_eq!(a.key, b.key);
        assert_eq!(a.params, vec![Value::Int64(5)]);
        assert_eq!(b.params, vec![Value::Int64(7)]);
        // Keywords keep their spelling.
        assert_ne!(a.key, sig("match (a:P) where a.id = 5 return a.x").key);
    }

    #[test]
    fn parameters_read_their_sign_type_and_date_context() {
        let s =
            sig("MATCH (a:P) WHERE a.x = -5 AND a.d = date(-9223372036854775808) AND a.f = -1.5 \
             AND a.s = 'it\\'s' AND a.b = true AND 3 = a.y");
        assert_eq!(
            s.params,
            vec![
                Value::Int64(-5),
                Value::Date(i64::MIN),
                Value::Float64(-1.5),
                Value::String("it's".into()),
                Value::Int64(3),
            ]
        );
        assert_ne!(s.key, sig("MATCH (a:P) WHERE a.x = 5").key, "the sign is a token");
        assert_ne!(
            sig("MATCH (a:P) WHERE a.d = 5").key,
            sig("MATCH (a:P) WHERE a.d = date(5)").key
        );
        assert_ne!(sig("MATCH (a:P) WHERE a.d = 5").key, sig("MATCH (a:P) WHERE a.d = '5'").key);
    }

    #[test]
    fn limits_lists_and_patterns_stay_in_the_key() {
        let base = "MATCH (a:P) WHERE a.s CONTAINS 'x' AND a.t IN ['u', 'v'] AND a.id = 1 \
                    RETURN a.s LIMIT 10";
        let s = sig(base);
        assert_eq!(s.params, vec![Value::Int64(1)]);
        assert_eq!(s.key, sig(&base.replace("a.id = 1", "a.id = 2")).key);
        for changed in [
            base.replace("LIMIT 10", "LIMIT 20"),
            base.replace("'x'", "'y'"),
            base.replace("'v'", "'w'"),
            base.replace("CONTAINS", "STARTS WITH"),
        ] {
            assert_ne!(s.key, sig(&changed).key, "{changed}");
        }
        // An edge's brackets open no IN list.
        let e = sig("MATCH (a:P)-[in:K]->(b:P) WHERE a.id = 1 RETURN b.x");
        assert_eq!(e.params, vec![Value::Int64(1)]);
    }
}
