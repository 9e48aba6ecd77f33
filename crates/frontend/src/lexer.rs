//! Hand-written lexer for the text query language.
//!
//! Produces a flat `Vec<Token>` with byte spans into the original source.
//! The token set is deliberately small: identifiers (keywords are contextual
//! and resolved by the parser), integer/float/string literals, and the
//! punctuation the pattern and predicate grammars need. `->` and `<-` are
//! not fused into single tokens — the parser assembles arrows from `Dash`,
//! `Lt` and `Gt` so that `a.x < -5` lexes the same way as `<-[:knows]-`.
//!
//! Tokens are spans, not payloads: a token is its kind plus its byte range,
//! and the parser reads an identifier's spelling, a number's digits or a
//! string's contents from `&src[span]` when — and only if — it needs them
//! ([`Token::text`], [`int_value`], [`float_value`], [`str_value`]). Lexing
//! a query therefore allocates nothing but the token vector. The lexer
//! still *validates* everything it classifies: escapes are checked,
//! and an integer magnitude must fit the sign in front of it, so the
//! value readers cannot fail on a token the lexer produced.
//!
//! This module is on the analyzer's hot-panic/as-cast lint paths: it must
//! not panic on any input (the token-soup proptest feeds it arbitrary
//! bytes), so all indexing goes through `get` and all failures surface as
//! spanned [`Diagnostic`]s.

use crate::diag::{Diagnostic, Phase, Span};

/// The kind of a lexical token. Payloads are not stored: a token's text is
/// `&src[span]` ([`Token::text`]). Keyword recognition is case-insensitive
/// and happens in the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or contextual keyword, spelled as in the source.
    Ident,
    /// An unsigned integer magnitude (digits, `_` separators allowed). A
    /// leading `-` is its own [`Tok::Dash`] token: the parser reads the
    /// sign and the magnitude together ([`int_value`]), which is how
    /// `-9223372036854775808` reaches `i64::MIN`.
    Int,
    /// A float (`digits.digits`, `_` separators allowed).
    Float,
    /// A single-quoted string literal; the span includes both quotes.
    Str,
    LParen,
    RParen,
    LBrack,
    RBrack,
    Comma,
    Dot,
    Colon,
    Star,
    Dash,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    /// Synthetic end-of-input marker with a zero-width span, so the parser
    /// always has a position to point its "unexpected end" diagnostics at.
    Eof,
}

impl Tok {
    /// Short human name used in parser error messages; `text` is the
    /// token's source text.
    pub fn describe(self, text: &str) -> String {
        match self {
            Tok::Ident => format!("`{text}`"),
            Tok::Int => match magnitude(text) {
                Some(v) => format!("integer `{v}`"),
                None => format!("integer `{text}`"),
            },
            Tok::Float => match parse_float(text) {
                Some(v) => format!("float `{v}`"),
                None => format!("float `{text}`"),
            },
            Tok::Str => "string literal".to_string(),
            Tok::LParen => "`(`".to_string(),
            Tok::RParen => "`)`".to_string(),
            Tok::LBrack => "`[`".to_string(),
            Tok::RBrack => "`]`".to_string(),
            Tok::Comma => "`,`".to_string(),
            Tok::Dot => "`.`".to_string(),
            Tok::Colon => "`:`".to_string(),
            Tok::Star => "`*`".to_string(),
            Tok::Dash => "`-`".to_string(),
            Tok::Lt => "`<`".to_string(),
            Tok::Le => "`<=`".to_string(),
            Tok::Gt => "`>`".to_string(),
            Tok::Ge => "`>=`".to_string(),
            Tok::Eq => "`=`".to_string(),
            Tok::Ne => "`<>`".to_string(),
            Tok::Eof => "end of query".to_string(),
        }
    }
}

/// A token: its kind plus its byte span in the source. `Copy`, so looking
/// ahead never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub tok: Tok,
    pub span: Span,
}

impl Token {
    /// The token's source text, `&src[span]` (empty for [`Tok::Eof`]).
    pub fn text(self, src: &str) -> &str {
        text(src, self.span)
    }
}

/// A lexical error: what went wrong and where, rendered into a
/// [`Diagnostic`] only once lexing has failed. Small on purpose: every
/// token the lexer returns travels in a `Result` with room for one, and a
/// full `Diagnostic` there made each token several times dearer.
#[derive(Debug, Clone, Copy)]
enum LexError {
    UnterminatedString(Span),
    UnknownEscape(Span),
    IntOutOfRange(Span),
    BadFloat(Span),
    UnexpectedChar(Span),
}

impl LexError {
    fn render(self, src: &str) -> Diagnostic {
        let (span, msg, hint) = match self {
            LexError::UnterminatedString(span) => (
                span,
                "unterminated string literal".to_string(),
                Some("strings are single-quoted: 'like this'"),
            ),
            LexError::UnknownEscape(span) => (
                span,
                "unknown escape sequence in string literal".to_string(),
                Some("supported escapes: \\' \\\\ \\n \\t \\r"),
            ),
            LexError::IntOutOfRange(span) => (
                span,
                format!("integer literal `{}` is out of range", text(src, span)),
                Some("64-bit signed integers only"),
            ),
            LexError::BadFloat(span) => {
                (span, format!("invalid float literal `{}`", text(src, span)), None)
            }
            LexError::UnexpectedChar(span) => {
                let shown = src.get(span.start..span.end).unwrap_or("?");
                (span, format!("unexpected character `{shown}`"), None)
            }
        };
        Diagnostic::new(Phase::Lex, src, span, msg, hint.map(str::to_string))
    }
}

/// `&src[span]`, empty when the span is not a slice of `src`.
fn text(src: &str, span: Span) -> &str {
    src.get(span.start..span.end).unwrap_or_default()
}

/// The value of an integer token, with the sign read in front of it:
/// `negative` admits the one magnitude only a negative literal has,
/// `9223372036854775808` (`i64::MIN`).
pub fn int_value(src: &str, t: Token, negative: bool) -> Result<i64, Diagnostic> {
    signed(t.text(src), negative).ok_or_else(|| LexError::IntOutOfRange(t.span).render(src))
}

/// The value of a float token.
pub fn float_value(src: &str, t: Token) -> Result<f64, Diagnostic> {
    parse_float(t.text(src)).ok_or_else(|| LexError::BadFloat(t.span).render(src))
}

/// The contents of a string token, escapes decoded. The lexer has already
/// rejected unknown escapes and unterminated strings.
pub fn str_value(src: &str, t: Token) -> String {
    let end = t.span.end.saturating_sub(1);
    let inner = src.get(t.span.start + 1..end).unwrap_or_default();
    if !inner.contains('\\') {
        return inner.to_owned();
    }
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            // `\'` and `\\` stand for themselves.
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Integer digits as an `i64` under the sign in front of them, or `None`
/// out of range.
fn signed(text: &str, negative: bool) -> Option<i64> {
    let m = magnitude(text)?;
    if negative {
        0i64.checked_sub_unsigned(m)
    } else {
        i64::try_from(m).ok()
    }
}

/// The magnitude of integer digits with `_` separators skipped, or `None`
/// above `u64::MAX` (or for text that is not digits).
fn magnitude(text: &str) -> Option<u64> {
    let mut v: u64 = 0;
    for b in text.bytes() {
        match b {
            b'_' => {}
            b'0'..=b'9' => v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?,
            _ => return None,
        }
    }
    Some(v)
}

/// A float's digits with `_` separators skipped. Only a literal that uses
/// separators pays for a copy.
fn parse_float(text: &str) -> Option<f64> {
    if text.contains('_') {
        text.chars().filter(|c| *c != '_').collect::<String>().parse().ok()
    } else {
        text.parse().ok()
    }
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        let idx = self.pos + offset;
        self.bytes.get(idx).copied()
    }

    /// Skip whitespace and `//` / `--` line comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => self.pos += 1,
                Some(b'/') if self.peek_at(1) == Some(b'/') => self.skip_line(),
                Some(b'-') if self.peek_at(1) == Some(b'-') => self.skip_line(),
                _ => return,
            }
        }
    }

    fn skip_line(&mut self) {
        while let Some(b) = self.peek() {
            self.pos += 1;
            if b == b'\n' {
                return;
            }
        }
    }

    fn ident(&mut self) -> Token {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        Token { tok: Tok::Ident, span: Span::new(start, self.pos) }
    }

    /// A number. An integer is range-checked against the sign in front of
    /// it (`negative`: the previous token is a `-`), so only a negative
    /// literal may carry the magnitude of `i64::MIN`.
    fn number(&mut self, negative: bool) -> Result<Token, LexError> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'_' {
                self.pos += 1;
            } else if b == b'.' && !is_float && self.peek_at(1).is_some_and(|d| d.is_ascii_digit())
            {
                is_float = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let span = Span::new(start, self.pos);
        if is_float {
            // `digits.digits` with separators removed always parses.
            return Ok(Token { tok: Tok::Float, span });
        }
        match signed(text(self.src, span), negative) {
            Some(_) => Ok(Token { tok: Tok::Int, span }),
            None => Err(LexError::IntOutOfRange(span)),
        }
    }

    /// A string literal: checks its escapes and finds its closing quote.
    /// The contents are decoded later, by [`str_value`].
    fn string(&mut self) -> Result<Token, LexError> {
        let start = self.pos;
        self.pos += 1; // opening quote
        loop {
            match self.peek() {
                None => return Err(LexError::UnterminatedString(Span::new(start, start + 1))),
                Some(b'\'') => {
                    self.pos += 1;
                    return Ok(Token { tok: Tok::Str, span: Span::new(start, self.pos) });
                }
                Some(b'\\') => {
                    let esc_start = self.pos;
                    self.pos += 1;
                    match self.peek() {
                        Some(b'\'' | b'\\' | b'n' | b't' | b'r') => self.pos += 1,
                        other => {
                            let width = other.map_or(0, |_| self.char_width());
                            let esc_end = self.pos + width;
                            return Err(LexError::UnknownEscape(Span::new(esc_start, esc_end)));
                        }
                    }
                }
                // Multi-byte UTF-8 characters never contain the `'` or `\`
                // bytes, so stepping byte by byte finds the same quote.
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Width in bytes of the character at the cursor (1 if out of range).
    fn char_width(&self) -> usize {
        self.src.get(self.pos..).and_then(|s| s.chars().next()).map_or(1, |c| c.len_utf8())
    }

    fn punct(&mut self, tok: Tok, len: usize) -> Token {
        let start = self.pos;
        self.pos += len;
        Token { tok, span: Span::new(start, self.pos) }
    }

    /// The next token; `prev` is the kind of the one before it.
    fn next_token(&mut self, prev: Tok) -> Result<Option<Token>, LexError> {
        self.skip_trivia();
        let Some(b) = self.peek() else { return Ok(None) };
        let t = match b {
            b'(' => self.punct(Tok::LParen, 1),
            b')' => self.punct(Tok::RParen, 1),
            b'[' => self.punct(Tok::LBrack, 1),
            b']' => self.punct(Tok::RBrack, 1),
            b',' => self.punct(Tok::Comma, 1),
            b'.' => self.punct(Tok::Dot, 1),
            b':' => self.punct(Tok::Colon, 1),
            b'*' => self.punct(Tok::Star, 1),
            b'-' => self.punct(Tok::Dash, 1),
            b'=' => self.punct(Tok::Eq, 1),
            b'<' => match self.peek_at(1) {
                Some(b'=') => self.punct(Tok::Le, 2),
                Some(b'>') => self.punct(Tok::Ne, 2),
                _ => self.punct(Tok::Lt, 1),
            },
            b'>' => match self.peek_at(1) {
                Some(b'=') => self.punct(Tok::Ge, 2),
                _ => self.punct(Tok::Gt, 1),
            },
            b'\'' => self.string()?,
            b if b.is_ascii_digit() => self.number(prev == Tok::Dash)?,
            b if b.is_ascii_alphabetic() || b == b'_' => self.ident(),
            _ => {
                let end = self.pos + self.char_width();
                return Err(LexError::UnexpectedChar(Span::new(self.pos, end)));
            }
        };
        Ok(Some(t))
    }
}

/// Tokenize `source`, appending a zero-width [`Tok::Eof`] marker.
pub fn lex(source: &str) -> Result<Vec<Token>, Diagnostic> {
    let mut lx = Lexer { src: source, bytes: source.as_bytes(), pos: 0 };
    // Query text runs about three bytes per token (identifiers, spaces,
    // punctuation): half the length is room enough for one allocation.
    let mut out = Vec::with_capacity(source.len() / 2 + 1);
    let mut prev = Tok::Eof;
    while let Some(t) = lx.next_token(prev).map_err(|e| e.render(source))? {
        prev = t.tok;
        out.push(t);
    }
    let end = source.len();
    out.push(Token { tok: Tok::Eof, span: Span::new(end, end) });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    /// Every token with its source text.
    fn spelled(src: &str) -> Vec<(Tok, &str)> {
        lex(src).unwrap().into_iter().map(|t| (t.tok, t.text(src))).collect()
    }

    #[test]
    fn pattern_tokens() {
        assert_eq!(
            spelled("(a:Person)-[k:knows]->(b)"),
            vec![
                (Tok::LParen, "("),
                (Tok::Ident, "a"),
                (Tok::Colon, ":"),
                (Tok::Ident, "Person"),
                (Tok::RParen, ")"),
                (Tok::Dash, "-"),
                (Tok::LBrack, "["),
                (Tok::Ident, "k"),
                (Tok::Colon, ":"),
                (Tok::Ident, "knows"),
                (Tok::RBrack, "]"),
                (Tok::Dash, "-"),
                (Tok::Gt, ">"),
                (Tok::LParen, "("),
                (Tok::Ident, "b"),
                (Tok::RParen, ")"),
                (Tok::Eof, ""),
            ]
        );
    }

    /// The span is the payload: slicing the source by each token's span
    /// gives back exactly the text the token was read from.
    #[test]
    fn spans_reproduce_token_text() {
        let src = "MATCH (a:Person)<-[e_1:knows]-(b)\n  WHERE a.x <= -1_000 AND b.s <> 'it\\'s' \
                   // note\n  OR b.f >= 3.25 -- trailing\nRETURN count(*), 'Ünï'";
        let expected = [
            "MATCH", "(", "a", ":", "Person", ")", "<", "-", "[", "e_1", ":", "knows", "]", "-",
            "(", "b", ")", "WHERE", "a", ".", "x", "<=", "-", "1_000", "AND", "b", ".", "s", "<>",
            "'it\\'s'", "OR", "b", ".", "f", ">=", "3.25", "RETURN", "count", "(", "*", ")", ",",
            "'Ünï'", "",
        ];
        let texts: Vec<&str> = lex(src).unwrap().iter().map(|t| t.text(src)).collect();
        assert_eq!(texts, expected);
    }

    #[test]
    fn numbers_and_underscores() {
        let src = "1_400_000_000 3.5 1_0.2_5";
        let ts = lex(src).unwrap();
        assert_eq!(toks(src), vec![Tok::Int, Tok::Float, Tok::Float, Tok::Eof]);
        assert_eq!(int_value(src, ts[0], false).unwrap(), 1_400_000_000);
        assert_eq!(float_value(src, ts[1]).unwrap(), 3.5);
        assert_eq!(float_value(src, ts[2]).unwrap(), 10.25);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            toks("< <= <> > >= ="),
            vec![Tok::Lt, Tok::Le, Tok::Ne, Tok::Gt, Tok::Ge, Tok::Eq, Tok::Eof]
        );
    }

    #[test]
    fn strings_and_escapes() {
        let src = r"'a\'b\\c' 'plain' '\n\t\r'";
        let ts = lex(src).unwrap();
        assert_eq!(toks(src), vec![Tok::Str, Tok::Str, Tok::Str, Tok::Eof]);
        assert_eq!(str_value(src, ts[0]), "a'b\\c");
        assert_eq!(str_value(src, ts[1]), "plain");
        assert_eq!(str_value(src, ts[2]), "\n\t\r");
    }

    #[test]
    fn comments_are_trivia() {
        assert_eq!(
            spelled("1 // x\n-- y\n2"),
            vec![(Tok::Int, "1"), (Tok::Int, "2"), (Tok::Eof, "")]
        );
    }

    #[test]
    fn unterminated_string_is_a_lex_error() {
        let err = lex("RETURN 'oops").unwrap_err();
        assert!(err.message.contains("unterminated string"));
        assert_eq!(err.col, 8);
    }

    #[test]
    fn integer_overflow_is_reported() {
        let err = lex("99999999999999999999").unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn only_a_negative_literal_reaches_i64_min() {
        assert!(lex("-9223372036854775808").is_ok());
        assert!(lex("- 9_223_372_036_854_775_808").is_ok());
        assert!(lex("-9223372036854775809").is_err());
        let err = lex("9223372036854775808").unwrap_err();
        assert!(err.message.contains("`9223372036854775808` is out of range"), "{}", err.message);
        assert!(lex("9223372036854775807").is_ok());
    }

    #[test]
    fn unexpected_character() {
        let err = lex("RETURN a.x ; 1").unwrap_err();
        assert!(err.message.contains("unexpected character `;`"));
    }
}
