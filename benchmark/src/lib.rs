//! The repository benchmark: five workloads, end-to-end metrics with
//! tracing off, and a separate traced run for the per-layer metrics.
//! Every layer is measured from outside, through the crates' public
//! functions; see `README.md` for the tables and how to run it.

pub mod cells;
pub mod compare;
pub mod library;
pub mod loadgen;
pub mod measure;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;

use measure::{Outcome, RunOpts};

/// Run one workload by name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    // Launches simulate serially: with one server worker per core, a
    // block-parallel pool inside each launch would oversubscribe the
    // box. `gpusim` reads the variable once, at its first launch.
    static SERIAL: std::sync::Once = std::sync::Once::new();
    SERIAL.call_once(|| std::env::set_var("SAFARA_SIM_THREADS", "1"));
    match name {
        "suite_cold" => library::run(library::Kind::SuiteCold, opts),
        "suite_warm" => library::run(library::Kind::SuiteWarm, opts),
        "compile_heavy" => library::run(library::Kind::CompileHeavy, opts),
        "serve_warm" => serve::run(serve::Kind::Warm, opts),
        "serve_cold" => serve::run(serve::Kind::Cold, opts),
        other => Err(format!(
            "unknown workload `{other}` (expected one of: {}, all)",
            spec::workload_names().join(", ")
        )),
    }
}
