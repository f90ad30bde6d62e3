//! The typed compile/run error taxonomy.
//!
//! Every failure the pipeline can produce is one [`CompileError`]
//! variant with phase provenance and, where the front-end knows it, a
//! source [`Span`]. Downstream layers (`safara-server`, retrying
//! clients) key decisions off [`CompileError::code`] and
//! [`CompileError::retryable`] instead of scraping message strings:
//! user-input errors (bad source, unknown function) and everything the
//! deterministic simulator decides are permanent, while injected
//! simulator faults and internal failures are transient — the SAFARA
//! posture of treating a spilling round as recoverable (§III-B.2),
//! generalized to the whole pipeline.

use safara_ir::Span;
use std::fmt;

/// Pipeline phases, for error provenance (mirrors the trace span names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Front-end parse.
    Parse,
    /// Semantic checks.
    Sema,
    /// Reuse analysis.
    Analysis,
    /// Scalar replacement / feedback loop.
    Opt,
    /// VIR lowering.
    Codegen,
    /// PTXAS-sim register allocation.
    RegAlloc,
    /// Simulator execution.
    Sim,
}

impl Phase {
    /// Stable lower-case name (matches the tracer's span names).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Sema => "sema",
            Phase::Analysis => "analysis",
            Phase::Opt => "opt",
            Phase::Codegen => "codegen",
            Phase::RegAlloc => "regalloc",
            Phase::Sim => "sim",
        }
    }
}

/// A typed pipeline failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexical or syntax error in the MiniACC source.
    Parse {
        /// What went wrong.
        message: String,
        /// Where, when the front-end knows.
        span: Option<Span>,
    },
    /// Semantic error (unknown name, type mismatch, bad clause, missing
    /// function).
    Sema {
        /// What went wrong.
        message: String,
        /// Where, when the checker knows.
        span: Option<Span>,
    },
    /// Reuse analysis failed.
    Analysis {
        /// What went wrong.
        message: String,
    },
    /// The register allocator reported spilling it could not recover
    /// from (the feedback loop reverts spilling rounds; this is the
    /// unrecoverable case).
    RegAllocSpill {
        /// The kernel that spilled.
        kernel: String,
        /// Registers the allocation wanted.
        regs_used: u32,
        /// The hardware cap it exceeded.
        reg_cap: u32,
    },
    /// The feedback loop could not compute a register budget.
    Budget {
        /// What went wrong.
        message: String,
    },
    /// An out-of-range `launch_bounds` clause or register-cap override:
    /// a contract the device cannot satisfy (too many threads, too many
    /// resident blocks, or an implied cap the allocator cannot honor).
    /// Surfaced as a typed error instead of silently clamping.
    LaunchBounds {
        /// What went wrong.
        message: String,
        /// The offending region's span, when it came from a clause.
        span: Option<Span>,
    },
    /// Equality saturation hit its e-node cap (or an injected fault) and
    /// aborted. Deterministic on the input — a retry re-derives the same
    /// e-graph — so it is permanent, never a hang.
    Saturate {
        /// What went wrong.
        message: String,
        /// The offending region's span, when the driver knows it.
        span: Option<Span>,
    },
    /// Simulator execution failed.
    Sim {
        /// What went wrong.
        message: String,
        /// Whether a retry may succeed. The engine is deterministic, so
        /// a verdict on the request (bad arguments, overflow, a memory
        /// fault, a runaway kernel) fails the same way every time; only
        /// an injected fault is transient.
        transient: bool,
    },
    /// Unexpected internal failure (lowering bug, poisoned state, ...).
    Internal {
        /// What went wrong.
        message: String,
        /// Which phase it surfaced in.
        phase: Phase,
    },
}

impl CompileError {
    /// Stable machine-readable code — the wire protocol's `code` field.
    pub fn code(&self) -> &'static str {
        match self {
            CompileError::Parse { .. } => "parse",
            CompileError::Sema { .. } => "sema",
            CompileError::Analysis { .. } => "analysis",
            CompileError::RegAllocSpill { .. } => "regalloc_spill",
            CompileError::Budget { .. } => "budget",
            CompileError::LaunchBounds { .. } => "launch_bounds",
            CompileError::Saturate { .. } => "saturate",
            CompileError::Sim { .. } => "sim",
            CompileError::Internal { .. } => "internal",
        }
    }

    /// The pipeline phase the error belongs to.
    pub fn phase(&self) -> Phase {
        match self {
            CompileError::Parse { .. } => Phase::Parse,
            CompileError::Sema { .. } => Phase::Sema,
            CompileError::Analysis { .. } => Phase::Analysis,
            CompileError::RegAllocSpill { .. } => Phase::RegAlloc,
            CompileError::Budget { .. } => Phase::Opt,
            CompileError::LaunchBounds { .. } => Phase::Opt,
            CompileError::Saturate { .. } => Phase::Opt,
            CompileError::Sim { .. } => Phase::Sim,
            CompileError::Internal { phase, .. } => *phase,
        }
    }

    /// Whether retrying the identical request can succeed. Deterministic
    /// verdicts on the input (bad source, spilled allocation, a failed
    /// simulation) are permanent; injected simulator faults and internal
    /// failures are transient.
    pub fn retryable(&self) -> bool {
        matches!(self, CompileError::Sim { transient: true, .. } | CompileError::Internal { .. })
    }

    /// The source span, when the front-end attached one.
    pub fn span(&self) -> Option<Span> {
        match self {
            CompileError::Parse { span, .. }
            | CompileError::Sema { span, .. }
            | CompileError::LaunchBounds { span, .. }
            | CompileError::Saturate { span, .. } => *span,
            _ => None,
        }
    }

    /// A missing-function lookup, typed as the semantic error it is.
    pub fn no_such_function(name: &str) -> CompileError {
        CompileError::Sema { message: format!("no such function `{name}`"), span: None }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.phase().name())?;
        match self {
            CompileError::Parse { message, span }
            | CompileError::Sema { message, span }
            | CompileError::LaunchBounds { message, span }
            | CompileError::Saturate { message, span } => match span {
                Some(s) => write!(f, "{message} at bytes {}..{}", s.start, s.end),
                None => write!(f, "{message}"),
            },
            CompileError::Analysis { message }
            | CompileError::Budget { message }
            | CompileError::Sim { message, .. }
            | CompileError::Internal { message, .. } => write!(f, "{message}"),
            CompileError::RegAllocSpill { kernel, regs_used, reg_cap } => {
                write!(f, "kernel `{kernel}` spills ({regs_used} regs > cap {reg_cap})")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<safara_ir::CompileError> for CompileError {
    fn from(e: safara_ir::CompileError) -> Self {
        match e {
            safara_ir::CompileError::Lex(l) => {
                CompileError::Parse { message: l.message, span: Some(l.span) }
            }
            safara_ir::CompileError::Parse(p) => {
                CompileError::Parse { message: p.message, span: Some(p.span) }
            }
            safara_ir::CompileError::Sema(s) => {
                CompileError::Sema { message: s.message, span: None }
            }
        }
    }
}

impl From<safara_runtime::RuntimeError> for CompileError {
    fn from(e: safara_runtime::RuntimeError) -> Self {
        CompileError::Sim { message: e.message, transient: false }
    }
}

impl From<safara_codegen::CodegenError> for CompileError {
    fn from(e: safara_codegen::CodegenError) -> Self {
        CompileError::Internal { message: e.message, phase: Phase::Codegen }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_phases_and_retryability_line_up() {
        let cases: [(CompileError, &str, &str, bool); 10] = [
            (
                CompileError::Parse { message: "x".into(), span: None },
                "parse",
                "parse",
                false,
            ),
            (CompileError::Sema { message: "x".into(), span: None }, "sema", "sema", false),
            (CompileError::Analysis { message: "x".into() }, "analysis", "analysis", false),
            (
                CompileError::RegAllocSpill { kernel: "k".into(), regs_used: 300, reg_cap: 255 },
                "regalloc_spill",
                "regalloc",
                false,
            ),
            (CompileError::Budget { message: "x".into() }, "budget", "opt", false),
            (
                CompileError::LaunchBounds { message: "x".into(), span: None },
                "launch_bounds",
                "opt",
                false,
            ),
            (
                CompileError::Saturate { message: "x".into(), span: None },
                "saturate",
                "opt",
                false,
            ),
            (CompileError::Sim { message: "x".into(), transient: true }, "sim", "sim", true),
            (
                safara_runtime::RuntimeError { message: "x".into() }.into(),
                "sim",
                "sim",
                false,
            ),
            (
                CompileError::Internal { message: "x".into(), phase: Phase::Codegen },
                "internal",
                "codegen",
                true,
            ),
        ];
        for (e, code, phase, retryable) in cases {
            assert_eq!(e.code(), code);
            assert_eq!(e.phase().name(), phase);
            assert_eq!(e.retryable(), retryable, "{code}");
        }
    }

    #[test]
    fn front_end_errors_carry_spans() {
        let e: CompileError = safara_ir::CompileError::Parse(safara_ir::parser::ParseError {
            message: "expected `)`".into(),
            span: Span { start: 5, end: 6 },
        })
        .into();
        assert_eq!(e.code(), "parse");
        assert_eq!(e.span(), Some(Span { start: 5, end: 6 }));
        assert!(e.to_string().contains("expected `)`"));
        assert!(e.to_string().contains("5..6"), "{e}");
    }

    #[test]
    fn display_is_phase_prefixed() {
        let e = CompileError::RegAllocSpill { kernel: "k0".into(), regs_used: 300, reg_cap: 255 };
        assert_eq!(e.to_string(), "regalloc: kernel `k0` spills (300 regs > cap 255)");
        let e = CompileError::no_such_function("nope");
        assert_eq!(e.to_string(), "sema: no such function `nope`");
    }
}
