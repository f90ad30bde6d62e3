//! The run half of the one-request pipeline.
//!
//! The bench binaries drive the ir → analysis → opt → codegen → gpusim
//! pipeline through per-figure `main`s; a long-lived service needs the
//! same flow packaged as calls that take *one* request (source, profile,
//! arguments) and return everything a client wants to know: register
//! counts, launch geometry, modelled cycles, and the scalar-replacement
//! story. Compiling is [`crate::compile_with_faults`]; running a
//! [`CompiledProgram`] — fresh, or cached across requests as
//! `safara-server` does — is [`run_compiled_with`], the one function in
//! this crate that reaches the runtime. Everything else that runs a
//! program pre-fills a [`RunCtx`] and delegates to it.

use crate::driver::{CompiledFunction, CompiledProgram};
use crate::error::CompileError;
use safara_chaos::{FaultAction, FaultPlan, InjectionPoint};
use safara_gpusim::device::DeviceConfig;
use safara_gpusim::memo::SharedLaunchCache;
use safara_obs::Tracer;
use safara_runtime::{run_function, Args, Memo, RunReport};

/// One kernel's outcome, flattened for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSummary {
    /// Kernel name.
    pub name: String,
    /// Hardware registers per thread.
    pub regs_used: u32,
    /// Virtual registers spilled to local memory.
    pub spills: u32,
    /// Launch grid (blocks).
    pub grid: (u32, u32, u32),
    /// Launch block (threads).
    pub block: (u32, u32, u32),
    /// Modelled cycles for this launch.
    pub cycles: f64,
}

/// Everything one compile-and-simulate request produces (besides the
/// mutated [`Args`], which the caller owns).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The function that ran.
    pub function: String,
    /// The profile it was compiled under.
    pub profile: &'static str,
    /// Per-kernel outcomes in launch order.
    pub kernels: Vec<KernelSummary>,
    /// Sum of modelled kernel cycles.
    pub total_cycles: f64,
    /// Bytes uploaded host→device.
    pub h2d_bytes: u64,
    /// Bytes downloaded device→host.
    pub d2h_bytes: u64,
    /// Maximum registers used by any kernel.
    pub max_regs: u32,
    /// Scalar-replacement temporaries SAFARA introduced.
    pub sr_temps_added: u32,
    /// Feedback-loop iterations executed.
    pub feedback_rounds: u32,
}

/// Everything about a run that is not the program and its arguments.
/// The inert values — [`Memo::Off`], [`Tracer::disabled`],
/// [`FaultPlan::none`] — cost nothing and change nothing, so there is no
/// "plain" variant of the run path to keep in step with this one.
///
/// Execution knobs (engine, worker count) are deliberately absent: they
/// resolve through the enclosing [`safara_gpusim::ExecOptions::scope`]
/// and the process environment, the one way to set a knob.
pub struct RunCtx<'a> {
    /// Whether and where launches are memoized.
    pub memo: Memo<'a>,
    /// Receives a `sim` span with `h2d`/`launch`/`d2h` children and
    /// per-launch cache hit/miss metadata.
    pub tracer: &'a mut Tracer,
    /// Evaluated at the `sim` injection point: a scheduled `Fail`
    /// becomes a typed (retryable) [`CompileError::Sim`] before any
    /// launch; `Delay`/`Hang` stall the simulation.
    pub faults: &'a FaultPlan,
}

/// Execute `entry` from an already-compiled program against `args`
/// under `ctx`. Returns the runtime's full report and its flattened
/// summary.
pub fn run_compiled_with(
    program: &CompiledProgram,
    entry: &str,
    args: &mut Args,
    dev: &DeviceConfig,
    ctx: RunCtx<'_>,
) -> Result<(RunReport, RunOutcome), CompileError> {
    if let Some(FaultAction::Fail) = ctx.faults.at(InjectionPoint::Sim) {
        let message = "injected simulator fault".into();
        return Err(CompileError::Sim { message, transient: true });
    }
    let f = program.function(entry)?;
    let compiled = f.kernels.iter().map(|k| (&k.kernel, &k.alloc));
    let report = ctx
        .tracer
        .span("sim", |t| run_function(dev, &f.transformed, compiled, args, ctx.memo, t))?;
    let outcome = summarize(program.config.name, f, &report);
    Ok((report, outcome))
}

/// [`run_compiled_with`] memoizing through an optional thread-shared
/// cache, untraced and fault-free; returns the summary.
pub fn run_compiled(
    program: &CompiledProgram,
    entry: &str,
    args: &mut Args,
    dev: &DeviceConfig,
    cache: Option<&SharedLaunchCache>,
) -> Result<RunOutcome, CompileError> {
    run_compiled_traced(program, entry, args, dev, cache, &mut Tracer::disabled())
}

/// [`run_compiled`] recording the `sim` span into `tracer`.
pub fn run_compiled_traced(
    program: &CompiledProgram,
    entry: &str,
    args: &mut Args,
    dev: &DeviceConfig,
    cache: Option<&SharedLaunchCache>,
    tracer: &mut Tracer,
) -> Result<RunOutcome, CompileError> {
    let memo = cache.map_or(Memo::Off, Memo::Shared);
    let ctx = RunCtx { memo, tracer, faults: &FaultPlan::none() };
    Ok(run_compiled_with(program, entry, args, dev, ctx)?.1)
}

fn summarize(profile: &'static str, f: &CompiledFunction, report: &RunReport) -> RunOutcome {
    let kernels = report
        .kernels
        .iter()
        .zip(&f.kernels)
        .map(|(run, art)| KernelSummary {
            name: run.name.clone(),
            regs_used: run.regs_used,
            spills: art.alloc.spilled.len() as u32,
            grid: run.config.grid,
            block: run.config.block,
            cycles: run.timing.total_cycles,
        })
        .collect();
    RunOutcome {
        function: f.name.clone(),
        profile,
        kernels,
        total_cycles: report.total_cycles(),
        h2d_bytes: report.h2d_bytes,
        d2h_bytes: report.d2h_bytes,
        max_regs: f.max_regs(),
        sr_temps_added: f.sr_outcome.temps_added,
        feedback_rounds: f.feedback_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile, compile_traced, compile_with_faults};
    use crate::profile::CompilerConfig;
    use safara_runtime::ArgValue;

    const AXPY: &str = r#"
    void axpy(int n, float alpha, const float x[n], float y[n]) {
      #pragma acc kernels copyin(x) copy(y)
      {
        #pragma acc loop gang vector
        for (int i = 0; i < n; i++) { y[i] = y[i] + alpha * x[i]; }
      }
    }"#;

    fn axpy_args(n: usize) -> Args {
        Args::new()
            .i32("n", n as i32)
            .f32("alpha", 2.0)
            .array_f32("x", &(0..n).map(|i| i as f32).collect::<Vec<_>>())
            .array_f32("y", &vec![1.0; n])
    }

    /// One whole request — compile, then run — with `faults` threaded
    /// through every injection point (`parse` → ... → `regalloc` → `sim`).
    fn request(
        source: &str,
        entry: &str,
        config: &CompilerConfig,
        args: &mut Args,
        faults: &FaultPlan,
    ) -> Result<RunOutcome, CompileError> {
        let mut tracer = Tracer::disabled();
        let program = compile_with_faults(source, config, &mut tracer, faults)?;
        let ctx = RunCtx { memo: Memo::Off, tracer: &mut tracer, faults };
        Ok(run_compiled_with(&program, entry, args, &DeviceConfig::k20xm(), ctx)?.1)
    }

    #[test]
    fn one_request_pipeline_summarizes_a_run() {
        let dev = DeviceConfig::k20xm();
        let mut args = axpy_args(256);
        let program = compile(AXPY, &CompilerConfig::safara_only()).unwrap();
        let outcome = run_compiled(&program, "axpy", &mut args, &dev, None).unwrap();
        assert_eq!(outcome.function, "axpy");
        assert_eq!(outcome.profile, "OpenUH(SAFARA)");
        assert_eq!(outcome.kernels.len(), 1);
        assert!(outcome.total_cycles > 0.0);
        assert!(outcome.max_regs > 0);
        assert_eq!(args.array("y").unwrap().as_f32()[3], 1.0 + 2.0 * 3.0);

        // The compiled program is reusable without recompiling.
        let mut args2 = axpy_args(256);
        let outcome2 = run_compiled(&program, "axpy", &mut args2, &dev, None).unwrap();
        assert_eq!(outcome, outcome2);
        assert_eq!(args.array("y"), args2.array("y"));
    }

    #[test]
    fn shared_cache_path_is_bit_identical_and_warms() {
        let dev = DeviceConfig::k20xm();
        let cache = SharedLaunchCache::new(4);
        let mut cold = axpy_args(128);
        let program = compile(AXPY, &CompilerConfig::base()).unwrap();
        run_compiled(&program, "axpy", &mut cold, &dev, Some(&cache)).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 1));

        let mut warm = axpy_args(128);
        run_compiled(&program, "axpy", &mut warm, &dev, Some(&cache)).unwrap();
        assert_eq!(cache.hits(), 1, "second identical request replays");
        assert_eq!(
            cold.array("y").unwrap().as_f32_bits(),
            warm.array("y").unwrap().as_f32_bits()
        );

        // And the replayed output matches an uncached run bitwise.
        let mut plain = axpy_args(128);
        run_compiled(&program, "axpy", &mut plain, &dev, None).unwrap();
        assert_eq!(plain.array("y").unwrap().as_f32_bits(), warm.array("y").unwrap().as_f32_bits());
    }

    #[test]
    fn traced_pipeline_records_every_phase_once_and_matches_untraced() {
        let dev = DeviceConfig::k20xm();
        let config = CompilerConfig::safara_only();
        let mut args = axpy_args(64);
        let mut tracer = Tracer::new();
        let program = compile_traced(AXPY, &config, &mut tracer).unwrap();
        let outcome =
            run_compiled_traced(&program, "axpy", &mut args, &dev, None, &mut tracer).unwrap();
        let spans = tracer.finish();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["parse", "sema", "analysis", "opt", "sim"]);

        // The body the loop starts from is built under `opt` itself, each
        // trial under its round.
        let opt = &spans[3];
        assert_eq!(opt.count_named("round") as u32, outcome.feedback_rounds);
        let kids: Vec<&str> = opt.children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(kids[..3], ["codegen", "regalloc", "round"]);
        assert_eq!(opt.count_named("codegen"), opt.count_named("regalloc"));
        assert!(opt.children[2].meta_get("regs_used").is_some());
        assert!(opt.children[2].meta_get("budget").is_some());

        let sim = &spans[4];
        assert_eq!(sim.count_named("h2d"), 1);
        assert_eq!(sim.count_named("launch"), outcome.kernels.len());
        assert_eq!(sim.count_named("d2h"), 1);
        // Root spans do not overlap: starts are monotone.
        for w in spans.windows(2) {
            assert!(w[1].start_us >= w[0].start_us + w[0].dur_us.saturating_sub(1));
        }

        // Tracing is observation only: outcome and outputs are identical
        // to the untraced pipeline.
        let mut args2 = axpy_args(64);
        let program2 = compile(AXPY, &config).unwrap();
        let outcome2 = run_compiled(&program2, "axpy", &mut args2, &dev, None).unwrap();
        assert_eq!(outcome, outcome2);
        assert_eq!(args.array("y"), args2.array("y"));
    }

    #[test]
    fn pipeline_errors_propagate() {
        let none = FaultPlan::none();
        let mut args = Args::new();
        let err = request("void f(", "f", &CompilerConfig::base(), &mut args, &none).unwrap_err();
        assert!(matches!(err, CompileError::Parse { .. }), "{err}");
        let mut args = axpy_args(8);
        let err = request(AXPY, "nope", &CompilerConfig::base(), &mut args, &none).unwrap_err();
        assert_eq!(err.code(), "sema");
        assert!(!err.retryable());
    }

    #[test]
    fn injected_sim_fault_is_retryable_and_transient() {
        use safara_chaos::Fire;
        let plan =
            FaultPlan::seeded(3).with(InjectionPoint::Sim, FaultAction::Fail, Fire::First(1));

        let mut args = axpy_args(32);
        let err = request(AXPY, "axpy", &CompilerConfig::base(), &mut args, &plan).unwrap_err();
        assert_eq!(err.code(), "sim");
        assert!(err.retryable(), "sim faults are worth retrying");

        // The retry under the same (now-exhausted) plan succeeds and is
        // bit-identical to a fault-free run.
        let mut again = axpy_args(32);
        let outcome = request(AXPY, "axpy", &CompilerConfig::base(), &mut again, &plan).unwrap();
        let mut clean = axpy_args(32);
        let want =
            request(AXPY, "axpy", &CompilerConfig::base(), &mut clean, &FaultPlan::none()).unwrap();
        assert_eq!(outcome, want);
        assert_eq!(
            again.array("y").unwrap().as_f32_bits(),
            clean.array("y").unwrap().as_f32_bits()
        );
    }

    #[test]
    fn reductions_surface_through_args() {
        let src = r#"
        void total(int n, const float x[n], float s) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector reduction(+:s)
            for (int i = 0; i < n; i++) { s += x[i]; }
          }
        }"#;
        let mut args = Args::new().i32("n", 64).f32("s", 1.0).array_f32("x", &[1.0; 64]);
        request(src, "total", &CompilerConfig::base(), &mut args, &FaultPlan::none()).unwrap();
        assert_eq!(args.scalar("s"), Some(ArgValue::F32(65.0)));
    }
}
