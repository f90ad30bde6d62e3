//! # safara-workloads — the evaluation suites
//!
//! Mini-applications modeled on the benchmarks of the paper's evaluation
//! (§V): ten SPEC-ACCEL-like and six NAS-like MiniACC programs. Each
//! workload reproduces the *loop structure, array dimensionality and
//! coalesced/uncoalesced access mix* of the original kernel — the
//! properties SAFARA and the `dim`/`small` clauses act on — at problem
//! sizes an interpreter can execute. The SPEC sources themselves are
//! licensed and cannot be redistributed; DESIGN.md documents this
//! substitution.
//!
//! Fortran-modeled workloads (355.seismic, 356.sp, 363.swim) use
//! lower-bound-1 allocatable-style arrays and carry the proposed `dim` +
//! `small` clauses; C-modeled workloads carry `small` only, matching the
//! paper's observation that `dim` is inapplicable to the C benchmarks.
//!
//! Every workload ships a pure-Rust reference implementation; `check`
//! validates device results against it, so every compiler configuration
//! is differentially tested on every workload.

pub mod nas;
pub mod spec;
pub mod util;

use safara_core::{
    compile, Args, CompileError, CompiledProgram, CompilerConfig, DeviceConfig, RunReport,
};

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// SPEC-ACCEL-like mini-apps.
    SpecAccel,
    /// NAS-OpenACC-like mini-apps.
    NasAcc,
}

/// Problem-size scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes for (debug-build) unit tests.
    Test,
    /// The sizes the figure/table harness uses (release builds).
    Bench,
}

/// A benchmark workload.
pub trait Workload: Sync {
    /// Display name, e.g. `355.seismic`.
    fn name(&self) -> &'static str;
    /// Owning suite.
    fn suite(&self) -> Suite;
    /// Entry function inside [`Workload::source`].
    fn entry(&self) -> &'static str;
    /// The MiniACC source.
    fn source(&self) -> String;
    /// Build the argument set for a scale.
    fn args(&self, scale: Scale) -> Args;
    /// Validate device results against the Rust reference.
    fn check(&self, args: &Args, scale: Scale) -> Result<(), String>;
    /// True if the workload's source carries a `dim` clause (Fortran-
    /// modeled apps only).
    fn uses_dim(&self) -> bool {
        false
    }
}

/// All SPEC-like workloads, in the order the figures list them.
pub fn spec_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(spec::ostencil::OStencil),
        Box::new(spec::olbm::OLbm),
        Box::new(spec::omriq::OMriq),
        Box::new(spec::ep::SpecEp),
        Box::new(spec::cg::SpecCg),
        Box::new(spec::seismic::Seismic),
        Box::new(spec::sp::SpecSp),
        Box::new(spec::csp::Csp),
        Box::new(spec::swim::Swim),
        Box::new(spec::bt::SpecBt),
    ]
}

/// All NAS-like workloads (EP, CG, MG, SP, LU, BT).
pub fn nas_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(nas::ep::NasEp),
        Box::new(nas::cg::NasCg),
        Box::new(nas::mg::NasMg),
        Box::new(nas::sp::NasSp),
        Box::new(nas::lu::NasLu),
        Box::new(nas::bt::NasBt),
    ]
}

/// Everything.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    let mut v = spec_suite();
    v.extend(nas_suite());
    v
}

/// Compile + run + validate one workload under a configuration.
/// Returns the run report and the compiled program (for register tables).
pub fn run_workload(
    w: &dyn Workload,
    config: &CompilerConfig,
    scale: Scale,
    dev: &DeviceConfig,
) -> Result<(RunReport, CompiledProgram), CompileError> {
    let program = compile(&w.source(), config)?;
    let mut args = w.args(scale);
    let report = program.run(w.entry(), &mut args, dev)?;
    w.check(&args, scale)
        .map_err(|m| CompileError::Sim {
            message: format!("{} [{}]: {m}", w.name(), config.name),
            transient: false,
        })?;
    Ok((report, program))
}
