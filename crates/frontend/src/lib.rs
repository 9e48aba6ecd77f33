//! Text query frontend: parse → bind → [`PatternQuery`].
//!
//! A small Cypher-like language over the existing query model:
//!
//! ```text
//! MATCH (a:Person)-[k:knows]->(b:Person)
//! WHERE a.id = 42 AND k.date > date(1300000000)
//! RETURN b.fName, count(*)
//! ORDER BY count(*) DESC
//! LIMIT 5
//! ```
//!
//! The pipeline has three phases, each producing structured, spanned
//! diagnostics on failure:
//!
//! 1. **lex** ([`lexer`]) — text → tokens with byte spans,
//! 2. **parse** ([`parser`]) — tokens → spanned [`ast::Query`],
//! 3. **bind** ([`binder`]) — AST + [`Catalog`] → [`PatternQuery`], with
//!    label/property resolution, `Value::compare`-faithful type checking,
//!    and "did you mean" hints for near-misses.
//!
//! Everything downstream — the stats-driven optimizer, the plan verifier,
//! EXPLAIN, and all four engines — is shared with the `QueryBuilder` API
//! path unchanged. See `GRAMMAR.md` in this crate for the EBNF and the
//! `RETURN`-lowering rules.
//!
//! [`run_text`] is the one entry point that does more: on an engine with a
//! plan cache (GF-CL) it keys the text on its literal-normalised token
//! stream ([`template`]) and reruns a verified plan for a template it has
//! seen, paying for lexing and execution only.

pub mod ast;
pub mod binder;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod template;

pub use diag::{Diagnostic, Phase, Span};
pub use template::run_text;

use gfcl_core::query::PatternQuery;
use gfcl_storage::Catalog;
use std::fmt;

/// A frontend failure, tagged with the phase that produced it. The payload
/// is always a fully rendered [`Diagnostic`].
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    Lex(Diagnostic),
    Parse(Diagnostic),
    Bind(Diagnostic),
}

impl FrontendError {
    pub fn diagnostic(&self) -> &Diagnostic {
        match self {
            FrontendError::Lex(d) | FrontendError::Parse(d) | FrontendError::Bind(d) => d,
        }
    }
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.diagnostic())
    }
}

impl std::error::Error for FrontendError {}

impl From<FrontendError> for gfcl_common::Error {
    /// Frontend errors cross the crate boundary as plan errors carrying the
    /// fully rendered diagnostic (snippet, caret, hint), so facade callers
    /// that only see `gfcl_common::Error` still get the rich message.
    fn from(e: FrontendError) -> Self {
        gfcl_common::Error::Plan(e.to_string())
    }
}

fn classify(d: Diagnostic) -> FrontendError {
    match d.phase {
        Phase::Lex => FrontendError::Lex(d),
        Phase::Parse => FrontendError::Parse(d),
        Phase::Bind => FrontendError::Bind(d),
    }
}

/// Lex and parse `source` into a spanned AST.
pub fn parse(source: &str) -> Result<ast::Query, FrontendError> {
    parser::parse(source).map_err(classify)
}

/// Lex and parse `source` into a top-level [`ast::Statement`]: a `MATCH`
/// query or an `INSERT` / `UPDATE` / `DELETE` mutation.
pub fn parse_statement(source: &str) -> Result<ast::Statement, FrontendError> {
    parser::parse_statement(source).map_err(classify)
}

/// Bind a parsed AST against `catalog`. `source` is the original query
/// text, used to render diagnostics.
pub fn bind(
    query: &ast::Query,
    source: &str,
    catalog: &Catalog,
) -> Result<PatternQuery, FrontendError> {
    binder::bind(query, source, catalog).map_err(classify)
}

/// Full frontend: text → [`PatternQuery`], ready for `gfcl_core::plan`.
pub fn compile(source: &str, catalog: &Catalog) -> Result<PatternQuery, FrontendError> {
    let ast = parse(source)?;
    bind(&ast, source, catalog)
}
