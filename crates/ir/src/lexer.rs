//! Hand-written lexer for MiniACC.
//!
//! `#pragma acc ...` lines are lexed into a dedicated [`Tok::PragmaAcc`]
//! token carrying the rest-of-line tokens, because directives are
//! line-oriented while the rest of the language is free-form. A trailing
//! backslash continues a directive onto the next line, as in C.
//!
//! A lex allocates per name, not per token: identifiers are interned once
//! per source, so every occurrence of a name shares one [`Ident`];
//! punctuation is dispatched on its first byte and numbers are parsed
//! from the source slice.

use crate::ast::Ident;
use crate::span::Span;
use std::collections::HashMap;
use std::fmt;

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword, interned per source.
    Ident(Ident),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// `#pragma acc` directive: the directive-body tokens.
    PragmaAcc(Vec<Token>),
    /// Punctuation / operator, by its exact spelling.
    Punct(&'static str),
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub tok: Tok,
    /// Source location.
    pub span: Span,
}

/// Lexical errors.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at bytes {}..{}", self.message, self.span.start, self.span.end)
    }
}

impl std::error::Error for LexError {}

/// The punctuation token starting with `c` (followed by `next`), longest
/// spelling first; `None` when no token starts with `c`.
fn punct(c: u8, next: Option<u8>) -> Option<&'static str> {
    Some(match (c, next) {
        (b'<', Some(b'<')) => "<<",
        (b'<', Some(b'=')) => "<=",
        (b'<', _) => "<",
        (b'>', Some(b'>')) => ">>",
        (b'>', Some(b'=')) => ">=",
        (b'>', _) => ">",
        (b'=', Some(b'=')) => "==",
        (b'=', _) => "=",
        (b'!', Some(b'=')) => "!=",
        (b'!', _) => "!",
        (b'&', Some(b'&')) => "&&",
        (b'|', Some(b'|')) => "||",
        (b'+', Some(b'=')) => "+=",
        (b'+', Some(b'+')) => "++",
        (b'+', _) => "+",
        (b'-', Some(b'=')) => "-=",
        (b'-', Some(b'-')) => "--",
        (b'-', _) => "-",
        (b'*', Some(b'=')) => "*=",
        (b'*', _) => "*",
        (b'/', Some(b'=')) => "/=",
        (b'/', _) => "/",
        (b'(', _) => "(",
        (b')', _) => ")",
        (b'[', _) => "[",
        (b']', _) => "]",
        (b'{', _) => "{",
        (b'}', _) => "}",
        (b',', _) => ",",
        (b';', _) => ";",
        (b':', _) => ":",
        (b'%', _) => "%",
        (b'.', _) => ".",
        _ => return None,
    })
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    /// Every name seen so far, by its spelling.
    names: HashMap<&'a str, Ident>,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    /// Skip whitespace and comments. If `stop_at_newline`, a newline (not
    /// escaped by `\`) terminates the scan and is consumed.
    /// Returns true if it stopped at a newline.
    fn skip_trivia(&mut self, stop_at_newline: bool) -> bool {
        loop {
            match self.peek() {
                Some(b'\n') if stop_at_newline => {
                    self.pos += 1;
                    return true;
                }
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'\\') if stop_at_newline => {
                    // Line continuation inside a directive.
                    let mut p = self.pos + 1;
                    while self.src.get(p).is_some_and(|&c| c == b' ' || c == b'\r') {
                        p += 1;
                    }
                    if self.src.get(p) == Some(&b'\n') {
                        self.pos = p + 1;
                    } else {
                        return false;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while self.peek().is_some_and(|c| c != b'\n') {
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.pos += 2;
                    while self.pos + 1 < self.src.len()
                        && !(self.src[self.pos] == b'*' && self.src[self.pos + 1] == b'/')
                    {
                        self.pos += 1;
                    }
                    self.pos = (self.pos + 2).min(self.src.len());
                }
                _ => return false,
            }
        }
    }

    fn lex_one(&mut self) -> Result<Option<Token>, LexError> {
        let start = self.pos;
        let c = match self.peek() {
            Some(c) => c,
            None => return Ok(None),
        };

        if c.is_ascii_alphabetic() || c == b'_' {
            while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                self.pos += 1;
            }
            // An identifier is ASCII, so both ends are char boundaries.
            let name = &self.text[start..self.pos];
            let ident = self.names.entry(name).or_insert_with(|| Ident::new(name)).clone();
            return Ok(Some(Token { tok: Tok::Ident(ident), span: Span::new(start, self.pos) }));
        }

        if c.is_ascii_digit() || (c == b'.' && self.peek2().is_some_and(|d| d.is_ascii_digit())) {
            return self.lex_number(start).map(Some);
        }

        match punct(c, self.peek2()) {
            Some(p) => {
                self.pos += p.len();
                Ok(Some(Token { tok: Tok::Punct(p), span: Span::new(start, self.pos) }))
            }
            None => Err(LexError {
                message: format!("unexpected character {:?}", c as char),
                span: Span::new(start, start + 1),
            }),
        }
    }

    fn lex_number(&mut self, start: usize) -> Result<Token, LexError> {
        let mut is_float = false;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let save = self.pos;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                is_float = true;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            } else {
                self.pos = save;
            }
        }
        // Accept (and ignore) C suffixes f/F/l/L/u/U: they only trail
        // the literal, so the value is the slice before them.
        let numeric = &self.text[start..self.pos];
        let mut suffix_float = false;
        while let Some(s) = self.peek() {
            match s {
                b'f' | b'F' => {
                    suffix_float = true;
                    self.pos += 1;
                }
                b'l' | b'L' | b'u' | b'U' => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        let span = Span::new(start, self.pos);
        if is_float || suffix_float {
            numeric
                .parse::<f64>()
                .map(|v| Token { tok: Tok::Float(v), span })
                .map_err(|_| LexError { message: format!("bad float literal {text:?}"), span })
        } else {
            numeric
                .parse::<i64>()
                .map(|v| Token { tok: Tok::Int(v), span })
                .map_err(|_| LexError { message: format!("bad integer literal {text:?}"), span })
        }
    }
}

/// Lex `src` into tokens. Directives become single [`Tok::PragmaAcc`]
/// tokens containing their body tokens.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let mut lx = Lexer { text: src, src: src.as_bytes(), pos: 0, names: HashMap::new() };
    let mut out = Vec::new();
    loop {
        lx.skip_trivia(false);
        let start = lx.pos;
        if lx.peek() == Some(b'#') {
            lx.pos += 1;
            lx.skip_trivia(false);
            let kw = lx.lex_one()?;
            match kw {
                Some(Token { tok: Tok::Ident(ref s), .. }) if s.as_str() == "pragma" => {}
                _ => {
                    return Err(LexError {
                        message: "expected `pragma` after `#`".into(),
                        span: Span::new(start, lx.pos),
                    })
                }
            }
            // Directive body tokens until (unescaped) end of line.
            let mut body = Vec::new();
            loop {
                if lx.skip_trivia(true) || lx.peek().is_none() {
                    break;
                }
                match lx.lex_one()? {
                    Some(t) => body.push(t),
                    None => break,
                }
            }
            // Require the `acc` prefix; other pragmas are not supported.
            match body.first() {
                Some(Token { tok: Tok::Ident(s), .. }) if s.as_str() == "acc" => {
                    body.remove(0);
                }
                _ => {
                    return Err(LexError {
                        message: "only `#pragma acc` directives are supported".into(),
                        span: Span::new(start, lx.pos),
                    })
                }
            }
            out.push(Token { tok: Tok::PragmaAcc(body), span: Span::new(start, lx.pos) });
            continue;
        }
        match lx.lex_one()? {
            Some(t) => out.push(t),
            None => break,
        }
    }
    Ok(out)
}

/// The lexer as it stood before punctuation was dispatched on its first
/// byte, numbers were parsed from the source slice and identifiers were
/// interned: one `String` per identifier and per number, every
/// punctuation token found by trying each spelling in turn. Kept as the
/// oracle for the differential below.
#[cfg(test)]
mod reference {
    use crate::span::Span;

    /// Token kinds.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Tok {
        /// Identifier or keyword.
        Ident(String),
        /// Integer literal.
        Int(i64),
        /// Floating-point literal.
        Float(f64),
        /// `#pragma acc` directive: the directive-body tokens.
        PragmaAcc(Vec<Token>),
        /// Punctuation / operator, by its exact spelling.
        Punct(&'static str),
    }

    /// A token with its source span.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Token {
        /// The token kind/payload.
        pub tok: Tok,
        /// Source location.
        pub span: Span,
    }

    pub use super::LexError;

    /// Multi-character punctuation, longest first so maximal munch works.
    const PUNCTS: &[&str] = &[
        "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "++", "--", "(",
        ")", "[", "]", "{", "}", ",", ";", ":", "+", "-", "*", "/", "%", "<", ">", "=", "!", ".",
    ];

    struct Lexer<'a> {
        src: &'a [u8],
        pos: usize,
    }

    impl<'a> Lexer<'a> {
        fn peek(&self) -> Option<u8> {
            self.src.get(self.pos).copied()
        }

        fn peek2(&self) -> Option<u8> {
            self.src.get(self.pos + 1).copied()
        }

        /// Skip whitespace and comments. If `stop_at_newline`, a newline (not
        /// escaped by `\`) terminates the scan and is consumed.
        /// Returns true if it stopped at a newline.
        fn skip_trivia(&mut self, stop_at_newline: bool) -> bool {
            loop {
                match self.peek() {
                    Some(b'\n') if stop_at_newline => {
                        self.pos += 1;
                        return true;
                    }
                    Some(c) if c.is_ascii_whitespace() => {
                        self.pos += 1;
                    }
                    Some(b'\\') if stop_at_newline => {
                        // Line continuation inside a directive.
                        let mut p = self.pos + 1;
                        while self.src.get(p).is_some_and(|&c| c == b' ' || c == b'\r') {
                            p += 1;
                        }
                        if self.src.get(p) == Some(&b'\n') {
                            self.pos = p + 1;
                        } else {
                            return false;
                        }
                    }
                    Some(b'/') if self.peek2() == Some(b'/') => {
                        while self.peek().is_some_and(|c| c != b'\n') {
                            self.pos += 1;
                        }
                    }
                    Some(b'/') if self.peek2() == Some(b'*') => {
                        self.pos += 2;
                        while self.pos + 1 < self.src.len()
                            && !(self.src[self.pos] == b'*' && self.src[self.pos + 1] == b'/')
                        {
                            self.pos += 1;
                        }
                        self.pos = (self.pos + 2).min(self.src.len());
                    }
                    _ => return false,
                }
            }
        }

        fn lex_one(&mut self) -> Result<Option<Token>, LexError> {
            let start = self.pos;
            let c = match self.peek() {
                Some(c) => c,
                None => return Ok(None),
            };

            if c.is_ascii_alphabetic() || c == b'_' {
                while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap().to_string();
                return Ok(Some(Token { tok: Tok::Ident(text), span: Span::new(start, self.pos) }));
            }

            if c.is_ascii_digit() || (c == b'.' && self.peek2().is_some_and(|d| d.is_ascii_digit()))
            {
                return self.lex_number(start).map(Some);
            }

            for p in PUNCTS {
                if self.src[self.pos..].starts_with(p.as_bytes()) {
                    self.pos += p.len();
                    return Ok(Some(Token {
                        tok: Tok::Punct(p),
                        span: Span::new(start, self.pos),
                    }));
                }
            }

            Err(LexError {
                message: format!("unexpected character {:?}", c as char),
                span: Span::new(start, start + 1),
            })
        }

        fn lex_number(&mut self, start: usize) -> Result<Token, LexError> {
            let mut is_float = false;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
                is_float = true;
                self.pos += 1;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                let save = self.pos;
                self.pos += 1;
                if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                    self.pos += 1;
                }
                if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    is_float = true;
                    while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                } else {
                    self.pos = save;
                }
            }
            // Accept (and ignore) C suffixes f/F/l/L/u/U.
            let mut suffix_float = false;
            while let Some(s) = self.peek() {
                match s {
                    b'f' | b'F' => {
                        suffix_float = true;
                        self.pos += 1;
                    }
                    b'l' | b'L' | b'u' | b'U' => {
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
            let numeric: String = text.chars().filter(|c| !"fFlLuU".contains(*c)).collect();
            let span = Span::new(start, self.pos);
            if is_float || suffix_float {
                numeric
                    .parse::<f64>()
                    .map(|v| Token { tok: Tok::Float(v), span })
                    .map_err(|_| LexError { message: format!("bad float literal {text:?}"), span })
            } else {
                numeric.parse::<i64>().map(|v| Token { tok: Tok::Int(v), span }).map_err(|_| {
                    LexError { message: format!("bad integer literal {text:?}"), span }
                })
            }
        }
    }

    /// Lex `src` into tokens. Directives become single [`Tok::PragmaAcc`]
    /// tokens containing their body tokens.
    pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
        let mut lx = Lexer { src: src.as_bytes(), pos: 0 };
        let mut out = Vec::new();
        loop {
            lx.skip_trivia(false);
            let start = lx.pos;
            if lx.peek() == Some(b'#') {
                lx.pos += 1;
                lx.skip_trivia(false);
                let kw = lx.lex_one()?;
                match kw {
                    Some(Token { tok: Tok::Ident(ref s), .. }) if s == "pragma" => {}
                    _ => {
                        return Err(LexError {
                            message: "expected `pragma` after `#`".into(),
                            span: Span::new(start, lx.pos),
                        })
                    }
                }
                // Directive body tokens until (unescaped) end of line.
                let mut body = Vec::new();
                loop {
                    if lx.skip_trivia(true) || lx.peek().is_none() {
                        break;
                    }
                    match lx.lex_one()? {
                        Some(t) => body.push(t),
                        None => break,
                    }
                }
                // Require the `acc` prefix; other pragmas are not supported.
                match body.first() {
                    Some(Token { tok: Tok::Ident(s), .. }) if s == "acc" => {
                        body.remove(0);
                    }
                    _ => {
                        return Err(LexError {
                            message: "only `#pragma acc` directives are supported".into(),
                            span: Span::new(start, lx.pos),
                        })
                    }
                }
                out.push(Token { tok: Tok::PragmaAcc(body), span: Span::new(start, lx.pos) });
                continue;
            }
            match lx.lex_one()? {
                Some(t) => out.push(t),
                None => break,
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let ts = kinds("foo = 12 + 3.5 * bar_2;");
        assert_eq!(
            ts,
            vec![
                Tok::Ident("foo".into()),
                Tok::Punct("="),
                Tok::Int(12),
                Tok::Punct("+"),
                Tok::Float(3.5),
                Tok::Punct("*"),
                Tok::Ident("bar_2".into()),
                Tok::Punct(";"),
            ]
        );
    }

    #[test]
    fn maximal_munch_operators() {
        let ts = kinds("a<=b >= c == d != e && f || g += h");
        let puncts: Vec<&str> =
            ts.iter().filter_map(|t| if let Tok::Punct(p) = t { Some(*p) } else { None }).collect();
        assert_eq!(puncts, vec!["<=", ">=", "==", "!=", "&&", "||", "+="]);
    }

    #[test]
    fn comments_are_skipped() {
        let ts = kinds("a // line comment\n + /* block\ncomment */ b");
        assert_eq!(ts, vec![Tok::Ident("a".into()), Tok::Punct("+"), Tok::Ident("b".into())]);
    }

    #[test]
    fn float_suffixes() {
        assert_eq!(kinds("1.5f"), vec![Tok::Float(1.5)]);
        assert_eq!(kinds("2f"), vec![Tok::Float(2.0)]);
        assert_eq!(kinds("3L"), vec![Tok::Int(3)]);
        assert_eq!(kinds("1e3"), vec![Tok::Float(1000.0)]);
        assert_eq!(kinds("1.5e-2"), vec![Tok::Float(0.015)]);
    }

    #[test]
    fn pragma_token_captures_body() {
        let ts = kinds("#pragma acc loop gang vector\nfor");
        match &ts[0] {
            Tok::PragmaAcc(body) => {
                let words: Vec<String> =
                    body.iter()
                        .filter_map(|t| {
                            if let Tok::Ident(s) = &t.tok {
                                Some(s.to_string())
                            } else {
                                None
                            }
                        })
                        .collect();
                assert_eq!(words, vec!["loop", "gang", "vector"]);
            }
            other => panic!("expected pragma, got {other:?}"),
        }
        assert_eq!(ts[1], Tok::Ident("for".into()));
    }

    #[test]
    fn pragma_line_continuation() {
        let ts = kinds("#pragma acc kernels \\\n  copyin(a)\nx");
        match &ts[0] {
            Tok::PragmaAcc(body) => assert_eq!(body.len(), 5), // kernels copyin ( a )
            other => panic!("expected pragma, got {other:?}"),
        }
        assert_eq!(ts[1], Tok::Ident("x".into()));
    }

    #[test]
    fn non_acc_pragma_rejected() {
        assert!(lex("#pragma omp parallel\n").is_err());
    }

    #[test]
    fn bad_char_reports_span() {
        let err = lex("a @ b").unwrap_err();
        assert_eq!(err.span.start, 2);
    }

    #[test]
    fn a_name_is_allocated_once_per_source() {
        let ts = kinds("a[i] = a[i + 1];\n#pragma acc loop reduction(+:a)\n");
        let a: Vec<&Ident> = ts
            .iter()
            .chain(ts.iter().flat_map(|t| match t {
                Tok::PragmaAcc(body) => body.iter().map(|t| &t.tok).collect(),
                _ => vec![],
            }))
            .filter_map(|t| match t {
                Tok::Ident(s) if s.as_str() == "a" => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|s| std::sync::Arc::ptr_eq(&s.0, &a[0].0)), "one allocation");
    }
}

/// The lexer against [`reference`]: the same tokens, spans and errors on
/// every workload and example source, and on sources mutated around
/// what the lexer branches on.
#[cfg(test)]
mod differential {
    use super::*;
    use safara_gpusim::rng::SplitMix64;

    fn from_reference(t: reference::Token) -> Token {
        let tok = match t.tok {
            reference::Tok::Ident(s) => Tok::Ident(Ident::new(s)),
            reference::Tok::Int(v) => Tok::Int(v),
            reference::Tok::Float(v) => Tok::Float(v),
            reference::Tok::PragmaAcc(body) => {
                Tok::PragmaAcc(body.into_iter().map(from_reference).collect())
            }
            reference::Tok::Punct(p) => Tok::Punct(p),
        };
        Token { tok, span: t.span }
    }

    fn agree(src: &str) {
        let expected =
            reference::lex(src).map(|ts| ts.into_iter().map(from_reference).collect::<Vec<_>>());
        assert_eq!(lex(src), expected, "source: {src:?}");
    }

    /// Every workload's source, and every MiniACC raw string of the
    /// examples.
    fn sources() -> Vec<String> {
        let mut out: Vec<String> =
            safara_workloads::all_workloads().iter().map(|w| w.source()).collect();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("examples directory")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        for path in files {
            let text = std::fs::read_to_string(&path).expect("example source");
            let mut rest = text.as_str();
            while let Some(at) = rest.find("r#\"") {
                let body = &rest[at + 3..];
                let end = body.find("\"#").expect("raw string ends");
                out.push(body[..end].to_string());
                rest = &body[end + 2..];
            }
        }
        out
    }

    #[test]
    fn every_workload_and_example_lexes_as_the_reference_does() {
        let sources = sources();
        assert!(sources.len() > 16, "the examples hold MiniACC sources too");
        for src in &sources {
            assert!(lex(src).is_ok());
            agree(src);
        }
    }

    /// A random index below `n` (`n > 0`).
    fn below(rng: &mut SplitMix64, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// Pieces a mutation splices in: what the lexer branches on.
    const SPLICES: &[&str] = &[
        "@",
        "$",
        "`",
        "é",
        "&",
        "|",
        "#",
        "\\",
        "/*",
        "*/",
        "//",
        "/* never closed",
        "1e",
        "1e+",
        "1E-",
        "1.f",
        "1.5e-3f",
        "2uL",
        ".5",
        "1..2",
        "0x",
        "0x1f",
        "9223372036854775807",
        "9223372036854775808",
        "1e999",
        "<<=",
        ">>",
        "&&",
        "||",
        "!=",
        "++",
        "--",
        "+=",
        "#pragma acc loop seq\n",
        "#pragma omp parallel\n",
        "# pragma acc kernels \\\n copy(a)\n",
        "\\\n",
        "\\ \r\n",
        "\\x\n",
        "\n",
        " ",
        "\t",
        "_x9",
        "pragma",
        "acc",
    ];

    /// Bytes a mutation writes over one of the source's.
    const BYTES: &[u8] = b" \n\\#/*.eEfFlLuUx0123456789+-<>=!&|(){}[];:,%@_a\x01";

    #[test]
    fn mutated_sources_lex_as_the_reference_does() {
        let seeds = sources();
        let mut rng = SplitMix64::new(0x1e_c5ed);
        for _ in 0..6_000 {
            let seed = &seeds[below(&mut rng, seeds.len())];
            let mut bytes = seed.clone().into_bytes();
            for _ in 0..=below(&mut rng, 4) {
                let at = below(&mut rng, bytes.len().max(1)).min(bytes.len());
                match below(&mut rng, 4) {
                    0 if !bytes.is_empty() => {
                        let at = at.min(bytes.len() - 1);
                        bytes[at] = BYTES[below(&mut rng, BYTES.len())];
                    }
                    1 => bytes.truncate(at),
                    2 => {
                        let token = SPLICES[below(&mut rng, SPLICES.len())];
                        bytes.splice(at..at, token.bytes());
                    }
                    _ if !bytes.is_empty() => {
                        bytes.remove(at.min(bytes.len() - 1));
                    }
                    _ => {}
                }
            }
            agree(&String::from_utf8_lossy(&bytes));
        }
    }
}
