//! # safara-ir — the MiniACC language front-end
//!
//! MiniACC is a small C-like kernel language with OpenACC-style directives,
//! designed to carry exactly the information the SAFARA register-optimization
//! pipeline needs: structured loop nests, affine array subscripts, and
//! directive-level parallelism/clause annotations.
//!
//! The crate provides:
//!
//! * [`ast`] — the abstract syntax tree (programs, functions, statements,
//!   expressions, array types with runtime "dope-vector" dimensions),
//! * [`directive`] — OpenACC constructs and clauses, including the paper's
//!   proposed `dim` and `small` extensions,
//! * [`lexer`] / [`parser`] — a hand-written lexer and recursive-descent
//!   parser for MiniACC source text,
//! * [`sema`] — name resolution and type checking,
//! * [`printer`] — a pretty-printer that emits MiniACC source back out
//!   (used for round-trip property tests and for inspecting the effect of
//!   source-to-source transformations such as scalar replacement),
//! * [`span`] — byte-span source locations used in diagnostics.
//!
//! ## Example
//!
//! ```
//! use safara_ir::parse_program;
//!
//! let src = r#"
//! void axpy(int n, float alpha, float x[n], float y[n]) {
//!   #pragma acc parallel small(x, y)
//!   {
//!     #pragma acc loop gang vector
//!     for (int i = 0; i < n; i++) {
//!       y[i] = y[i] + alpha * x[i];
//!     }
//!   }
//! }
//! "#;
//! let program = parse_program(src).expect("parses");
//! assert_eq!(program.functions.len(), 1);
//! assert_eq!(program.functions[0].name.as_str(), "axpy");
//! ```

pub mod ast;
pub mod directive;
pub mod lexer;
pub mod offset;
pub mod parser;
pub mod printer;
pub mod sema;
pub mod span;
pub mod visit;

pub use ast::*;
pub use directive::*;
pub use span::Span;

/// Parse a MiniACC translation unit and run semantic checks.
///
/// This is the main entry point most users want: it lexes, parses and
/// type-checks `src`, returning the checked [`ast::Program`].
pub fn parse_program(src: &str) -> Result<ast::Program, CompileError> {
    let tokens = lexer::lex(src).map_err(CompileError::Lex)?;
    let program = parser::parse(&tokens, src).map_err(CompileError::Parse)?;
    sema::check_program(&program).map_err(CompileError::Sema)?;
    Ok(program)
}

/// Parse without running semantic checks (used by tests that build
/// deliberately ill-typed programs).
pub fn parse_program_unchecked(src: &str) -> Result<ast::Program, CompileError> {
    let tokens = lexer::lex(src).map_err(CompileError::Lex)?;
    parser::parse(&tokens, src).map_err(CompileError::Parse)
}

/// Errors produced by the front-end.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical error (bad character, unterminated literal, ...).
    Lex(lexer::LexError),
    /// Syntax error.
    Parse(parser::ParseError),
    /// Semantic error (unknown name, type mismatch, bad clause, ...).
    Sema(sema::SemaError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lex(e) => write!(f, "lex error: {e}"),
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Sema(e) => write!(f, "semantic error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}
