//! # safara-codegen — lowering OpenACC offload regions to VIR
//!
//! Mirrors the back-end of the paper's OpenUH pipeline (Fig. 2): each
//! loop nest inside a `kernels`/`parallel` region becomes one device
//! kernel in the [`safara_gpusim::vir`] virtual ISA.
//!
//! The pieces the paper's proposals act on live here:
//!
//! * **Dope vectors** (§IV-A): a dynamically-sized array parameter is
//!   passed as a base pointer plus per-dimension extent/lower-bound
//!   scalars; subscript lowering consumes those scalars, which is what
//!   inflates register use in kernels touching many arrays.
//! * **`dim` groups**: arrays asserted dimension-equal *share* one set of
//!   dope scalars, and emission-time value numbering then collapses their
//!   offset computations to a single expression (the 15 → 5 scalars
//!   example of §IV-A).
//! * **`small` clause** (§IV-B): subscript arithmetic is emitted in
//!   32-bit (`b32`) instead of 64-bit, halving the registers offsets
//!   occupy (GPU registers are 32-bit; b64 values need aligned pairs).
//! * **Read-only cache**: arrays never written in the region load through
//!   the Kepler read-only data path when enabled.
//!
//! [`abi`] describes the kernel parameter layout for the runtime;
//! [`lower`] is the emitter; [`dce`] is a liveness-based dead-code
//! eliminator run after emission (so unused dope loads vanish exactly
//! when clauses make them redundant).

pub mod abi;
pub mod dce;
pub mod lower;

pub use abi::{AbiParam, DimOwner, KernelAbi};
pub use lower::{lower_function, CompiledKernel, MappedLoopSpec};

use std::fmt;

/// Code generation options — the knobs the compiler profiles in
/// `safara-core` turn.
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenOptions {
    /// Route loads of never-written arrays through the read-only cache.
    pub use_readonly_cache: bool,
    /// Honor `small` clauses: 32-bit offset arithmetic for listed arrays.
    pub honor_small: bool,
    /// Honor `dim` groups: shared dope scalars for grouped arrays.
    pub honor_dim: bool,
    /// Emission-time local value numbering (CSE within an iteration).
    pub local_cse: bool,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            use_readonly_cache: true,
            honor_small: true,
            honor_dim: true,
            local_cse: true,
        }
    }
}

impl CodegenOptions {
    /// The "base OpenUH" configuration: competent codegen (CSE, DCE,
    /// read-only cache) but the proposed clauses are ignored.
    pub fn base() -> Self {
        CodegenOptions { honor_small: false, honor_dim: false, ..Default::default() }
    }

    /// A PGI-15.9-like simulated comparator: no clause support (the
    /// clauses are our proposal), no read-only-cache loads, and no local
    /// CSE across arrays — a competent but differently-tuned compiler.
    /// Documented as a *simulated* baseline in DESIGN.md.
    pub fn pgi_like() -> Self {
        CodegenOptions {
            use_readonly_cache: false,
            honor_small: false,
            honor_dim: false,
            local_cse: false,
        }
    }
}

/// Code generation errors.
#[derive(Debug, Clone, PartialEq)]
pub struct CodegenError {
    /// Human-readable message.
    pub message: String,
}

impl CodegenError {
    pub(crate) fn new(m: impl Into<String>) -> Self {
        CodegenError { message: m.into() }
    }
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codegen error: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}
