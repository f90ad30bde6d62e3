//! # safara-core — the SAFARA compiler driver
//!
//! Ties the whole reproduction together, mirroring the paper's OpenUH
//! pipeline (Fig. 2): MiniACC front-end → analyses → scalar replacement →
//! VIR code generation → PTXAS-sim register allocation, with SAFARA's
//! **iterative static feedback loop** (§III-B.2) in the middle:
//!
//! 1. compile the region with no scalar replacement and ask the
//!    register allocator (our PTXAS stand-in) how many hardware registers
//!    each kernel uses;
//! 2. compute the remaining register budget against the hardware cap;
//! 3. select the most profitable reuse groups under the
//!    `count × latency` cost model and apply scalar replacement;
//! 4. recompile; if registers spill, revert the round; otherwise repeat
//!    until the registers are saturated or no candidates remain.
//!
//! [`CompilerConfig`] packages the named configurations the evaluation
//! uses: the OpenUH baseline, `+small`, `+small+dim`, `+SAFARA`
//! combinations, the classical Carr–Kennedy strategy, and the simulated
//! PGI-like comparator.
//!
//! ## Quickstart
//!
//! ```
//! use safara_core::{compile, Args, CompilerConfig, DeviceConfig};
//!
//! let src = r#"
//! void axpy(int n, float alpha, const float x[n], float y[n]) {
//!   #pragma acc kernels copyin(x) copy(y)
//!   {
//!     #pragma acc loop gang vector
//!     for (int i = 0; i < n; i++) { y[i] = y[i] + alpha * x[i]; }
//!   }
//! }"#;
//! let program = compile(src, &CompilerConfig::safara_clauses()).unwrap();
//! let mut args = Args::new()
//!     .i32("n", 1024)
//!     .f32("alpha", 2.0)
//!     .array_f32("x", &vec![1.0; 1024])
//!     .array_f32("y", &vec![0.0; 1024]);
//! let report = program.run("axpy", &mut args, &DeviceConfig::k20xm()).unwrap();
//! assert_eq!(args.array("y").unwrap().as_f32()[0], 2.0);
//! assert!(report.total_cycles() > 0.0);
//! ```

pub mod calibrate;
pub mod driver;
pub mod error;
pub mod pipeline;
pub mod profile;
pub mod report;

pub use calibrate::{calibrated_config, calibrated_cost_model};
pub use driver::{
    compile, compile_traced, compile_with_faults, CompiledFunction, CompiledProgram,
    KernelArtifact,
};
pub use error::{CompileError, Phase};
pub use pipeline::{
    run_compiled, run_compiled_traced, run_compiled_with, KernelSummary, RunCtx, RunOutcome,
};
pub use profile::{CompilerConfig, SrStrategy};
pub use report::{register_table, RegisterRow};

// Facade re-exports so downstream users (workloads, benches, examples)
// need only this crate.
pub use safara_analysis as analysis;
pub use safara_chaos as chaos;
pub use safara_codegen as codegen;
pub use safara_gpusim as gpusim;
pub use safara_ir as ir;
pub use safara_obs as obs;
pub use safara_opt as opt;
pub use safara_runtime as runtime;

pub use safara_gpusim::device::DeviceConfig;
pub use safara_gpusim::memo::{LaunchCache, SharedLaunchCache};
pub use safara_gpusim::rng::SplitMix64;
pub use safara_gpusim::timing::TimingBreakdown;
pub use safara_runtime::{Args, Memo, RunReport};
