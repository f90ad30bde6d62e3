//! The compile driver and SAFARA's iterative feedback loop.

use crate::error::CompileError;
use crate::pipeline::{run_compiled_with, RunCtx};
use crate::profile::{CompilerConfig, SrStrategy};
use safara_chaos::{FaultAction, FaultPlan, InjectionPoint};
use safara_codegen::lower::{lower_function, CompiledKernel};
use safara_gpusim::device::DeviceConfig;
use safara_gpusim::ptxas::{allocate_registers_with, RegAllocReport};
use safara_ir::printer::print_function;
use safara_ir::{parse_program_unchecked, Function, Stmt};
use safara_obs::Tracer;
use safara_opt::transform::TempNamer;
use safara_opt::{
    carr_kennedy_pass, safara_pass, safara_pass_with, OptGoal, SrOutcome, ThroughputContext,
};
use safara_runtime::{Args, LaunchCache, Memo, RunReport};

/// Evaluate an injection point against a plan. `Delay`/`Hang` actions
/// are absorbed here (the sleep *is* the fault); anything else is
/// returned for the call site to turn into its typed failure.
pub(crate) fn fault_at(plan: &FaultPlan, point: InjectionPoint) -> Option<FaultAction> {
    let action = plan.check(point)?;
    if plan.apply_delay(&action) {
        return None;
    }
    Some(action)
}

/// The runtime's default block size: every default launch geometry
/// (1D/2D/3D) uses 128 threads per block, so compile-time occupancy and
/// shared-slab estimates made with this value are exact unless a
/// `launch_bounds` contract overrides it.
const DEFAULT_THREADS_PER_BLOCK: u32 = 128;

/// The register cap implied by a `launch_bounds(max_threads, min_blocks)`
/// contract: the largest per-thread count `r` such that `min_blocks`
/// resident blocks of `ceil(max_threads / warp_size)` warps, each warp
/// allocating `roundup(r × warp_size, warp_alloc_granularity)` registers,
/// still fit in the SM's register file — CUDA's `__launch_bounds__` rule.
///
/// Out-of-range contracts are typed errors, never silent clamps: more
/// threads than a block can hold, more resident blocks than an SM
/// supports, or a combination whose implied cap is below the allocator's
/// 4-register floor.
fn launch_bounds_cap(
    dev: &DeviceConfig,
    max_threads: u32,
    min_blocks: u32,
) -> Result<u32, CompileError> {
    if max_threads == 0 || min_blocks == 0 {
        return Err(CompileError::LaunchBounds {
            message: format!(
                "launch_bounds({max_threads}, {min_blocks}) arguments must be positive"
            ),
            span: None,
        });
    }
    if max_threads > dev.max_threads_per_block {
        return Err(CompileError::LaunchBounds {
            message: format!(
                "launch_bounds max_threads {} exceeds the device limit of {} threads per block",
                max_threads, dev.max_threads_per_block
            ),
            span: None,
        });
    }
    if min_blocks > dev.max_blocks_per_sm {
        return Err(CompileError::LaunchBounds {
            message: format!(
                "launch_bounds min_blocks {} exceeds the device limit of {} blocks per SM",
                min_blocks, dev.max_blocks_per_sm
            ),
            span: None,
        });
    }
    let warps_per_block = max_threads.div_ceil(dev.warp_size);
    // regs/warp come in granules of `warp_alloc_granularity`; each granule
    // is `granularity / warp_size` registers per thread.
    let granules =
        dev.regs_per_sm / (min_blocks * warps_per_block * dev.warp_alloc_granularity);
    let cap = (granules * (dev.warp_alloc_granularity / dev.warp_size))
        .min(dev.max_regs_per_thread);
    if cap < 4 {
        return Err(CompileError::LaunchBounds {
            message: format!(
                "launch_bounds({max_threads}, {min_blocks}) implies a register cap of {cap}, \
                 below the allocator floor of 4"
            ),
            span: None,
        });
    }
    Ok(cap)
}

/// The per-kernel register cap: the profile's `reg_cap` tightened by the
/// kernel's own `launch_bounds` clause (or the config-wide override when
/// the clause is absent).
fn kernel_reg_cap(
    config: &CompilerConfig,
    launch_bounds: Option<(u32, u32)>,
) -> Result<u32, CompileError> {
    match launch_bounds.or(config.launch_bounds) {
        Some((t, b)) => Ok(config.reg_cap.min(launch_bounds_cap(&config.device, t, b)?)),
        None => Ok(config.reg_cap),
    }
}

/// The block size the runtime will actually launch with: the
/// `launch_bounds` contract when one is declared, the runtime's uniform
/// default otherwise.
fn planned_threads_per_block(
    config: &CompilerConfig,
    launch_bounds: Option<(u32, u32)>,
) -> u32 {
    launch_bounds
        .or(config.launch_bounds)
        .map(|(t, _)| t)
        .unwrap_or(DEFAULT_THREADS_PER_BLOCK)
}

/// A compiled kernel plus its register-allocation report — the pair the
/// runtime needs and the pair Tables I/II are built from.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelArtifact {
    /// The kernel.
    pub kernel: CompiledKernel,
    /// Its simulated `ptxas -v` report.
    pub alloc: RegAllocReport,
}

/// One compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFunction {
    /// Function name.
    pub name: String,
    /// The function AST *after* scalar replacement (print it to see the
    /// Fig. 6-style transformed source).
    pub transformed: Function,
    /// Compiled kernels in launch order.
    pub kernels: Vec<KernelArtifact>,
    /// What scalar replacement did.
    pub sr_outcome: SrOutcome,
    /// Feedback-loop iterations executed.
    pub feedback_rounds: u32,
}

impl CompiledFunction {
    /// The transformed MiniACC source (SAFARA output, Fig. 6 style).
    pub fn transformed_source(&self) -> String {
        print_function(&self.transformed)
    }

    /// Maximum registers used by any of the function's kernels.
    pub fn max_regs(&self) -> u32 {
        self.kernels.iter().map(|k| k.alloc.regs_used).max().unwrap_or(0)
    }
}

/// A compiled MiniACC translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The configuration that produced it.
    pub config: CompilerConfig,
    /// Compiled functions.
    pub functions: Vec<CompiledFunction>,
}

impl CompiledProgram {
    /// Look up a compiled function.
    pub fn function(&self, name: &str) -> Result<&CompiledFunction, CompileError> {
        self.functions
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| CompileError::no_such_function(name))
    }

    /// Execute a function against `args` on `dev`.
    pub fn run(
        &self,
        name: &str,
        args: &mut Args,
        dev: &DeviceConfig,
    ) -> Result<RunReport, CompileError> {
        let ctx =
            RunCtx { memo: Memo::Off, tracer: &mut Tracer::disabled(), faults: &FaultPlan::none() };
        Ok(run_compiled_with(self, name, args, dev, ctx)?.0)
    }

    /// [`CompiledProgram::run`] with launch memoization through `cache`.
    pub fn run_cached(
        &self,
        name: &str,
        args: &mut Args,
        dev: &DeviceConfig,
        cache: &mut LaunchCache,
    ) -> Result<RunReport, CompileError> {
        let ctx = RunCtx {
            memo: Memo::Local(cache),
            tracer: &mut Tracer::disabled(),
            faults: &FaultPlan::none(),
        };
        Ok(run_compiled_with(self, name, args, dev, ctx)?.0)
    }
}

/// Compile MiniACC source under a configuration.
pub fn compile(src: &str, config: &CompilerConfig) -> Result<CompiledProgram, CompileError> {
    compile_traced(src, config, &mut Tracer::disabled())
}

/// [`compile`] recording one span per pipeline phase into `tracer`:
/// `parse` → `sema` → `analysis` → `opt` (with one `round` child per
/// feedback iteration, carrying `regs_used`/`budget` metadata) →
/// `codegen` → `regalloc`. Each phase covers *all* functions of the
/// translation unit, so a traced compile produces each phase exactly
/// once. With a disabled tracer this **is** [`compile`]: same code
/// path, same output.
pub fn compile_traced(
    src: &str,
    config: &CompilerConfig,
    tracer: &mut Tracer,
) -> Result<CompiledProgram, CompileError> {
    compile_with_faults(src, config, tracer, &FaultPlan::none())
}

/// The compile pipeline, evaluating `faults` at each phase's injection
/// point. With an inert plan this is exactly [`compile_traced`]; with
/// faults scheduled, phases fail with their typed error, feedback
/// rounds are forced to spill (and reverted, as the loop always does),
/// or phases stall — deterministically per the plan's seed.
pub fn compile_with_faults(
    src: &str,
    config: &CompilerConfig,
    tracer: &mut Tracer,
    faults: &FaultPlan,
) -> Result<CompiledProgram, CompileError> {
    // Reject out-of-range caps before any work: a cap below the
    // allocator's floor or above the architectural per-thread maximum is
    // a configuration error, not something to clamp quietly.
    if config.reg_cap < 4 || config.reg_cap > config.device.max_regs_per_thread {
        return Err(CompileError::LaunchBounds {
            message: format!(
                "reg_cap {} out of range [4, {}] for {}",
                config.reg_cap, config.device.max_regs_per_thread, config.device.name
            ),
            span: None,
        });
    }
    if let Some((t, b)) = config.launch_bounds {
        launch_bounds_cap(&config.device, t, b)?;
    }

    let program = tracer.span("parse", |t| {
        if let Some(FaultAction::Fail) = fault_at(faults, InjectionPoint::Parse) {
            return Err(CompileError::Parse {
                message: "injected front-end fault".into(),
                span: None,
            });
        }
        let p = parse_program_unchecked(src).map_err(CompileError::from)?;
        t.meta_int("functions", p.functions.len() as i64);
        Ok::<_, CompileError>(p)
    })?;

    tracer.span("sema", |_| {
        if let Some(FaultAction::Fail) = fault_at(faults, InjectionPoint::Sema) {
            return Err(CompileError::Sema { message: "injected sema fault".into(), span: None });
        }
        safara_ir::sema::check_program(&program)
            .map_err(|e| CompileError::from(safara_ir::CompileError::Sema(e)))
    })?;

    if let Some(FaultAction::Fail | FaultAction::Poison) =
        fault_at(faults, InjectionPoint::Analysis)
    {
        return Err(CompileError::Analysis { message: "injected analysis fault".into() });
    }

    // Reuse analysis over every offload region. The SR passes re-derive
    // this per round; the phase measures the standalone analysis cost
    // and reports what the optimizer has to work with.
    tracer.span("analysis", |t| {
        let (mut regions, mut groups) = (0i64, 0i64);
        for f in &program.functions {
            for_each_region_ref(f, |region| {
                let info = safara_analysis::region::RegionInfo::analyze(region);
                groups += safara_analysis::reuse::find_reuse_groups(region, &info).len() as i64;
                regions += 1;
            });
        }
        t.meta_int("regions", regions);
        t.meta_int("reuse_groups", groups);
    });

    let mut optimized: Vec<(Function, SrOutcome, u32)> = Vec::new();
    tracer.span("opt", |t| {
        for f in &program.functions {
            optimized.push(optimize_function(f, config, t, faults)?);
        }
        Ok::<_, CompileError>(())
    })?;

    let mut lowered: Vec<Vec<CompiledKernel>> = Vec::new();
    tracer.span("codegen", |t| {
        for (work, _, _) in &optimized {
            lowered.push(lower_function(work, &config.codegen)?);
        }
        t.meta_int("kernels", lowered.iter().map(Vec::len).sum::<usize>() as i64);
        Ok::<_, CompileError>(())
    })?;

    if let Some(FaultAction::Fail | FaultAction::Spill) =
        fault_at(faults, InjectionPoint::RegAlloc)
    {
        let kernel = lowered
            .iter()
            .flatten()
            .next()
            .map(|k| k.name.clone())
            .unwrap_or_else(|| "<no kernels>".into());
        return Err(CompileError::RegAllocSpill {
            kernel,
            regs_used: config.reg_cap + 1,
            reg_cap: config.reg_cap,
        });
    }

    let functions = tracer.span("regalloc", |t| {
        let mut max_regs = 0u32;
        let functions: Vec<CompiledFunction> = program
            .functions
            .iter()
            .zip(optimized)
            .zip(lowered)
            .map(|((f, (work, outcome, rounds)), kernels)| {
                let kernels: Vec<KernelArtifact> = kernels
                    .into_iter()
                    .map(|kernel| {
                        let art = allocate_artifact(kernel, config)?;
                        max_regs = max_regs.max(art.alloc.regs_used);
                        Ok(art)
                    })
                    .collect::<Result<_, CompileError>>()?;
                Ok(CompiledFunction {
                    name: f.name.to_string(),
                    transformed: work,
                    kernels,
                    sr_outcome: outcome,
                    feedback_rounds: rounds,
                })
            })
            .collect::<Result<_, CompileError>>()?;
        t.meta_int("max_regs", max_regs as i64);
        t.meta_int("reg_cap", config.reg_cap as i64);
        Ok::<_, CompileError>(functions)
    })?;

    Ok(CompiledProgram { config: config.clone(), functions })
}

fn codegen_all(
    f: &Function,
    config: &CompilerConfig,
) -> Result<Vec<KernelArtifact>, CompileError> {
    let kernels = lower_function(f, &config.codegen)?;
    kernels.into_iter().map(|kernel| allocate_artifact(kernel, config)).collect()
}

/// Run register allocation for one lowered kernel under the effective
/// per-kernel cap, spill target, and planned block geometry.
fn allocate_artifact(
    kernel: CompiledKernel,
    config: &CompilerConfig,
) -> Result<KernelArtifact, CompileError> {
    let cap = kernel_reg_cap(config, kernel.launch_bounds)?;
    let tpb = planned_threads_per_block(config, kernel.launch_bounds);
    let alloc = allocate_registers_with(
        &kernel.vir,
        cap,
        config.spill_target,
        tpb,
        config.device.shared_mem_per_sm,
    );
    Ok(KernelArtifact { kernel, alloc })
}

/// The optimization half of the pipeline: unroll plus the configured
/// scalar-replacement strategy (including SAFARA's feedback loop, whose
/// in-loop measurement compiles stay inside the `opt` span). Returns
/// the transformed function, what SR did, and the rounds executed.
fn optimize_function(
    f: &Function,
    config: &CompilerConfig,
    tracer: &mut Tracer,
    faults: &FaultPlan,
) -> Result<(Function, SrOutcome, u32), CompileError> {
    let mut work = f.clone();
    let mut namer = TempNamer::default();
    let mut outcome = SrOutcome::default();
    let mut rounds = 0u32;

    // The §VII extension: unroll innermost sequential loops first so the
    // scalar-replacement passes below see straight-line reuse.
    if config.unroll >= 2 {
        for_each_region(&mut work, |region| {
            let info = safara_analysis::region::RegionInfo::analyze(region);
            safara_opt::unroll::unroll_seq_loops(
                &mut region.body,
                config.unroll,
                &info,
                &mut namer,
            );
        });
    }

    // The equality-saturation phase runs ahead of scalar replacement:
    // region expressions are hash-consed into an e-graph, saturated with
    // integer-ring rewrites (CSE, offset factoring, strength reduction,
    // guarded narrowing), and re-extracted by predicted register cost.
    // The extraction's structural weights only *rank* candidates — the
    // real acceptance test below recompiles through the ptxas register
    // model (or the occupancy oracle under the throughput goal) and
    // reverts anything that is not an improvement, so the phase can
    // never make a kernel worse.
    if config.saturate {
        work = saturate_function(work, config, tracer, faults)?;
    }

    match &config.sr {
        SrStrategy::None => {}
        SrStrategy::CarrKennedy => {
            // Classical behaviour: one pass, count-only moderation against
            // the full register file.
            let snapshot = f.clone();
            for_each_region(&mut work, |region| {
                let o = carr_kennedy_pass(&snapshot, region, config.reg_cap, &mut namer);
                merge_outcome(&mut outcome, o);
            });
            rounds = 1;
        }
        SrStrategy::Safara { cost_model, feedback } => {
            if !*feedback {
                // Ablation: single unbounded round.
                let snapshot = f.clone();
                for_each_region(&mut work, |region| {
                    let o = safara_pass(&snapshot, region, config.reg_cap, cost_model, &mut namer);
                    merge_outcome(&mut outcome, o);
                });
                rounds = 1;
            } else {
                // The iterative feedback loop (§III-B.2). An accepted
                // round's recompile *is* the next round's measurement
                // (`work` becomes the trial it was built from), so its
                // artifacts are carried over instead of being rebuilt.
                let mut carried: Option<Vec<KernelArtifact>> = None;
                loop {
                    if rounds >= config.max_feedback_iters {
                        break;
                    }
                    rounds += 1;
                    // Mid-loop fault injection: a `Fail` here models the
                    // backend dying between rounds (typed as a budget
                    // failure); a `Spill` forces this round down the
                    // paper's revert path below.
                    let forced_spill = match fault_at(faults, InjectionPoint::FeedbackRound) {
                        Some(FaultAction::Fail) => {
                            return Err(CompileError::Budget {
                                message: format!(
                                    "injected backend fault in feedback round {rounds}"
                                ),
                            });
                        }
                        Some(FaultAction::Spill) => true,
                        _ => false,
                    };
                    tracer.begin("round");
                    // 1. Backend compile, no further SR: measure registers
                    // (round 1 only — later rounds measure what the
                    // previous one accepted).
                    let measured_here = carried.is_none();
                    let arts = match carried.take() {
                        Some(a) => a,
                        None => match codegen_all(&work, config) {
                            Ok(a) => a,
                            Err(e) => {
                                tracer.end();
                                return Err(e);
                            }
                        },
                    };
                    let used = arts.iter().map(|a| a.alloc.regs_used).max().unwrap_or(0);
                    // The budget is measured against the tightest effective
                    // cap of any kernel: a `launch_bounds` contract lowers
                    // the ceiling the feedback loop may fill.
                    let mut cap = config.reg_cap;
                    for a in &arts {
                        match kernel_reg_cap(config, a.kernel.launch_bounds) {
                            Ok(c) => cap = cap.min(c),
                            Err(e) => {
                                tracer.end();
                                return Err(e);
                            }
                        }
                    }
                    let budget = cap.saturating_sub(used);
                    tracer.meta_int("regs_used", used as i64);
                    tracer.meta_int("budget", budget as i64);
                    if budget == 0 {
                        tracer.meta_int("codegen_calls", measured_here as i64);
                        tracer.end();
                        break;
                    }
                    // 2. One SR round within the budget. Under the
                    // throughput goal each region gets an occupancy oracle
                    // seeded with the measured register use and the block
                    // size the runtime will launch with.
                    let mut round_outcome = SrOutcome::default();
                    let mut trial = work.clone();
                    for_each_region(&mut trial, |region| {
                        let clause_tpb = region
                            .directive
                            .clauses
                            .launch_bounds
                            .as_ref()
                            .and_then(|lb| lb.max_threads.as_const())
                            .map(|t| t.max(1) as u32);
                        let tpb = clause_tpb
                            .or(config.launch_bounds.map(|(t, _)| t))
                            .unwrap_or(DEFAULT_THREADS_PER_BLOCK);
                        let throughput =
                            (config.goal == OptGoal::MaxThroughput).then_some(ThroughputContext {
                                device: config.device,
                                threads_per_block: tpb,
                                regs_in_use: used,
                            });
                        let o = safara_pass_with(
                            &work,
                            region,
                            budget,
                            cost_model,
                            config.goal,
                            throughput,
                            &mut namer,
                        );
                        merge_outcome(&mut round_outcome, o);
                    });
                    tracer.meta_int("temps_added", round_outcome.temps_added as i64);
                    // Whole-function lower + allocate runs this round made:
                    // the measurement above, and the recompile below.
                    let recompiles = round_outcome.temps_added > 0;
                    tracer.meta_int("codegen_calls", measured_here as i64 + recompiles as i64);
                    if !recompiles {
                        tracer.end();
                        break; // all reused references are replaced
                    }
                    // 3. Recompile; revert the round if it now spills.
                    let new_arts = match codegen_all(&trial, config) {
                        Ok(a) => a,
                        Err(e) => {
                            tracer.end();
                            return Err(e);
                        }
                    };
                    let spills = forced_spill || new_arts.iter().any(|a| !a.alloc.fits());
                    if spills {
                        tracer.meta_str("ended", "reverted_spill");
                        tracer.end();
                        break; // registers saturated: keep previous state
                    }
                    work = trial;
                    carried = Some(new_arts);
                    merge_outcome(&mut outcome, round_outcome);
                    tracer.end();
                }
            }
        }
    }

    Ok((work, outcome, rounds))
}

/// Saturate every offload region of `work`, then accept or revert the
/// whole function against the configured goal. Returns the function to
/// continue compiling with (the saturated trial when it helps, the
/// original otherwise).
fn saturate_function(
    work: Function,
    config: &CompilerConfig,
    tracer: &mut Tracer,
    faults: &FaultPlan,
) -> Result<Function, CompileError> {
    if let Some(FaultAction::Fail) = fault_at(faults, InjectionPoint::Saturate) {
        return Err(CompileError::Saturate {
            message: "injected saturation fault".into(),
            span: None,
        });
    }
    tracer.begin("saturate");
    let result =
        saturate_function_inner(&work, config, tracer, &safara_opt::SaturateConfig::default());
    tracer.end();
    match result {
        Ok(Some(trial)) => Ok(trial),
        Ok(None) => Ok(work),
        Err(e) => Err(e),
    }
}

/// The traced body of [`saturate_function`]: `Ok(Some(trial))` to adopt
/// the saturated function, `Ok(None)` to keep the original.
fn saturate_function_inner(
    work: &Function,
    config: &CompilerConfig,
    tracer: &mut Tracer,
    scfg: &safara_opt::SaturateConfig,
) -> Result<Option<Function>, CompileError> {
    let before = codegen_all(work, config)?;
    let mut trial = work.clone();
    let mut agg = safara_opt::RegionSaturation::empty();
    let mut failed: Option<CompileError> = None;
    for_each_region(&mut trial, |region| {
        if failed.is_some() {
            return;
        }
        let span = region.span;
        match safara_opt::saturate_region(work, region, config.codegen.honor_small, scfg) {
            Ok(r) => agg.absorb(&r),
            Err(e) => {
                failed = Some(CompileError::Saturate {
                    message: e.to_string(),
                    span: Some(span),
                });
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    tracer.meta_int("rounds", agg.stats.rounds as i64);
    tracer.meta_int("e_classes", agg.stats.e_classes as i64);
    tracer.meta_int("e_nodes", agg.stats.e_nodes as i64);
    tracer.meta_int("cost_before", agg.cost_before as i64);
    tracer.meta_int("cost_after", agg.cost_after as i64);
    tracer.meta_str("stop", agg.stats.stop.name());
    let after = codegen_all(&trial, config)?;
    let keep = match config.goal {
        // The paper's policy: fewer registers wins; on a register tie the
        // shorter instruction stream wins; otherwise revert.
        OptGoal::MinRegisters => {
            let regs = |arts: &[KernelArtifact]| {
                arts.iter().map(|a| a.alloc.regs_used).max().unwrap_or(0)
            };
            let insts = |arts: &[KernelArtifact]| {
                arts.iter().map(|a| a.kernel.vir.insts.len()).sum::<usize>()
            };
            (regs(&after), insts(&after)) <= (regs(&before), insts(&before))
        }
        // Throughput goal: the occupancy oracle (PR 8) judges the worst
        // kernel's resident warps under the planned block geometry.
        OptGoal::MaxThroughput => {
            let warps = |arts: &[KernelArtifact]| {
                arts.iter()
                    .map(|a| {
                        let tpb = planned_threads_per_block(config, a.kernel.launch_bounds);
                        config.device.occupancy(a.alloc.regs_used, tpb).active_warps_per_sm
                    })
                    .min()
                    .unwrap_or(0)
            };
            warps(&after) >= warps(&before)
        }
    };
    tracer.meta_str("verdict", if keep { "kept" } else { "reverted" });
    Ok(keep.then_some(trial))
}

fn merge_outcome(into: &mut SrOutcome, o: SrOutcome) {
    into.temps_added += o.temps_added;
    into.groups_applied += o.groups_applied;
    into.est_loads_saved += o.est_loads_saved;
    for v in o.sequentialized {
        if !into.sequentialized.contains(&v) {
            into.sequentialized.push(v);
        }
    }
}

fn for_each_region_ref(f: &Function, mut g: impl FnMut(&safara_ir::OffloadRegion)) {
    fn walk(stmts: &[Stmt], g: &mut impl FnMut(&safara_ir::OffloadRegion)) {
        for s in stmts {
            match s {
                Stmt::Region(r) => g(r),
                Stmt::For(f) => walk(&f.body, g),
                Stmt::If { then_body, else_body, .. } => {
                    walk(then_body, g);
                    walk(else_body, g);
                }
                Stmt::Block(b) => walk(b, g),
                _ => {}
            }
        }
    }
    walk(&f.body, &mut g);
}

fn for_each_region(f: &mut Function, mut g: impl FnMut(&mut safara_ir::OffloadRegion)) {
    fn walk(stmts: &mut [Stmt], g: &mut impl FnMut(&mut safara_ir::OffloadRegion)) {
        for s in stmts {
            match s {
                Stmt::Region(r) => g(r),
                Stmt::For(f) => walk(&mut f.body, g),
                Stmt::If { then_body, else_body, .. } => {
                    walk(then_body, g);
                    walk(else_body, g);
                }
                Stmt::Block(b) => walk(b, g),
                _ => {}
            }
        }
    }
    walk(&mut f.body, &mut g);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CompilerConfig;

    const FIG5: &str = r#"
    void fig5(int jsize, int isize, float a[260][260], float b[260][260],
              float c[260], float d[260]) {
      #pragma acc kernels
      {
        #pragma acc loop gang vector
        for (int j = 1; j <= jsize; j++) {
          #pragma acc loop seq
          for (int i = 1; i <= isize; i++) {
            a[i][j] += a[i - 1][j] + b[j][i - 1] + a[i + 1][j] + b[j][i + 1];
          }
        }
      }
    }"#;

    #[test]
    fn base_profile_compiles_without_sr() {
        let p = compile(FIG5, &CompilerConfig::base()).unwrap();
        let f = p.function("fig5").unwrap();
        assert_eq!(f.sr_outcome.temps_added, 0);
        assert_eq!(f.kernels.len(), 1);
        assert!(f.kernels[0].alloc.regs_used > 0);
    }

    #[test]
    fn safara_feedback_loop_adds_temps_and_converges() {
        let p = compile(FIG5, &CompilerConfig::safara_only()).unwrap();
        let f = p.function("fig5").unwrap();
        assert!(f.sr_outcome.temps_added >= 3, "{:?}", f.sr_outcome);
        assert!(f.feedback_rounds >= 2, "loop must iterate: {}", f.feedback_rounds);
        assert!(f.transformed_source().contains("__sr"));
        // No spilling after SAFARA (the loop reverts spilling rounds).
        assert!(f.kernels.iter().all(|k| k.alloc.fits()));
    }

    #[test]
    fn safara_uses_more_registers_than_base() {
        let base = compile(FIG5, &CompilerConfig::base()).unwrap();
        let safara = compile(FIG5, &CompilerConfig::safara_only()).unwrap();
        assert!(
            safara.function("fig5").unwrap().max_regs()
                >= base.function("fig5").unwrap().max_regs(),
            "SR trades registers for loads"
        );
    }

    #[test]
    fn run_produces_correct_results_under_all_profiles() {
        let n = 34usize;
        let src = FIG5;
        // Reference: plain Rust implementation of fig5's loop nest.
        let reference = |a: &mut Vec<f32>, b: &[f32]| {
            for j in 1..=n {
                for i in 1..=n {
                    a[i * 260 + j] += a[(i - 1) * 260 + j]
                        + b[j * 260 + (i - 1)]
                        + a[(i + 1) * 260 + j]
                        + b[j * 260 + (i + 1)];
                }
            }
        };
        let a0: Vec<f32> = (0..260 * 260).map(|i| (i % 97) as f32 * 0.25).collect();
        let b0: Vec<f32> = (0..260 * 260).map(|i| (i % 53) as f32 * 0.5).collect();
        let mut want = a0.clone();
        reference(&mut want, &b0);

        for cfg in [
            CompilerConfig::base(),
            CompilerConfig::safara_only(),
            CompilerConfig::small(),
            CompilerConfig::small_dim(),
            CompilerConfig::safara_clauses(),
            CompilerConfig::pgi_like(),
            CompilerConfig::carr_kennedy(),
        ] {
            let p = compile(src, &cfg).unwrap();
            let mut args = crate::Args::new()
                .i32("jsize", n as i32)
                .i32("isize", n as i32)
                .array_f32("a", &a0)
                .array_f32("b", &b0)
                .array_f32("c", &vec![0.0; 260])
                .array_f32("d", &vec![0.0; 260]);
            p.run("fig5", &mut args, &DeviceConfig::k20xm())
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            let got = args.array("a").unwrap().as_f32();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                    "{}: a[{i}] = {g}, want {w}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn launch_bounds_clause_caps_registers() {
        // K20Xm, launch_bounds(256, 4): 8 warps/block × 4 blocks × 256-reg
        // granules must fit 65536 regs/SM → 8 granules/warp → 64 regs/thread.
        let src = FIG5.replace(
            "#pragma acc kernels",
            "#pragma acc kernels launch_bounds(256, 4)",
        );
        let p = compile(&src, &CompilerConfig::safara_only()).unwrap();
        let f = p.function("fig5").unwrap();
        assert_eq!(f.kernels[0].kernel.launch_bounds, Some((256, 4)));
        assert!(f.max_regs() <= 64, "cap 64, used {}", f.max_regs());

        // The same contract through the builder override, no clause.
        let cfg = CompilerConfig::builder().safara(true).launch_bounds(256, 4).build();
        let p = compile(FIG5, &cfg).unwrap();
        assert!(p.function("fig5").unwrap().max_regs() <= 64);
    }

    #[test]
    fn out_of_range_launch_bounds_is_a_typed_error() {
        // More threads than a block can hold.
        let src = FIG5.replace(
            "#pragma acc kernels",
            "#pragma acc kernels launch_bounds(2048)",
        );
        let err = compile(&src, &CompilerConfig::safara_only()).unwrap_err();
        assert_eq!(err.code(), "launch_bounds");
        assert!(err.to_string().contains("threads per block"), "{err}");

        // More resident blocks than an SM supports (config-wide override).
        let cfg = CompilerConfig::builder().launch_bounds(128, 64).build();
        let err = compile(FIG5, &cfg).unwrap_err();
        assert_eq!(err.code(), "launch_bounds");
        assert!(err.to_string().contains("blocks per SM"), "{err}");

        // A contract whose implied cap is below the allocator floor.
        let src = FIG5.replace(
            "#pragma acc kernels",
            "#pragma acc kernels launch_bounds(1024, 16)",
        );
        let err = compile(&src, &CompilerConfig::safara_only()).unwrap_err();
        assert_eq!(err.code(), "launch_bounds");
        assert!(err.to_string().contains("allocator floor"), "{err}");
        assert!(!err.retryable());
    }

    #[test]
    fn out_of_range_reg_cap_is_a_typed_error_not_a_clamp() {
        for cap in [0u32, 3, 256, 1000] {
            let cfg = CompilerConfig { reg_cap: cap, ..CompilerConfig::base() };
            let err = compile(FIG5, &cfg).unwrap_err();
            assert_eq!(err.code(), "launch_bounds", "cap {cap}");
            assert!(err.to_string().contains("out of range"), "{err}");
        }
        // The boundary values themselves are accepted.
        for cap in [4u32, 255] {
            let cfg = CompilerConfig { reg_cap: cap, ..CompilerConfig::base() };
            compile(FIG5, &cfg).unwrap();
        }
    }

    #[test]
    fn missing_function_reported() {
        let p = compile(FIG5, &CompilerConfig::base()).unwrap();
        let err = p.function("nope").unwrap_err();
        assert_eq!(err.code(), "sema");
        assert!(err.to_string().contains("no such function `nope`"));
    }

    #[test]
    fn bad_source_reports_parse_error_with_span() {
        let err = compile("void f(", &CompilerConfig::base()).unwrap_err();
        assert!(matches!(err, CompileError::Parse { .. }), "{err}");
        assert!(err.span().is_some(), "front-end errors carry provenance");
        assert!(!err.retryable());
    }

    #[test]
    fn injected_front_end_faults_produce_typed_errors() {
        use safara_chaos::Fire;
        for (point, code) in [
            (InjectionPoint::Parse, "parse"),
            (InjectionPoint::Sema, "sema"),
            (InjectionPoint::Analysis, "analysis"),
            (InjectionPoint::RegAlloc, "regalloc_spill"),
        ] {
            let plan = FaultPlan::seeded(0).with(point, FaultAction::Fail, Fire::First(1));
            let err = compile_with_faults(
                FIG5,
                &CompilerConfig::base(),
                &mut Tracer::disabled(),
                &plan,
            )
            .unwrap_err();
            assert_eq!(err.code(), code, "{point:?}");
            // The very next compile under the same plan is clean.
            compile_with_faults(FIG5, &CompilerConfig::base(), &mut Tracer::disabled(), &plan)
                .unwrap_or_else(|e| panic!("{point:?} second compile: {e}"));
        }
    }

    #[test]
    fn forced_feedback_spill_reverts_the_round_not_the_compile() {
        use safara_chaos::Fire;
        // Force the *first* feedback round to report spilling: the loop
        // must revert it and terminate cleanly, like the paper's loop
        // does for a genuinely spilling round.
        let plan = FaultPlan::seeded(0).with(
            InjectionPoint::FeedbackRound,
            FaultAction::Spill,
            Fire::First(1),
        );
        let faulted = compile_with_faults(
            FIG5,
            &CompilerConfig::safara_only(),
            &mut Tracer::disabled(),
            &plan,
        )
        .unwrap();
        let f = faulted.function("fig5").unwrap();
        assert_eq!(f.feedback_rounds, 1, "round 1 forced to spill ends the loop");
        assert_eq!(f.sr_outcome.temps_added, 0, "the spilling round was reverted");
        assert!(f.kernels.iter().all(|k| k.alloc.fits()));

        // A mid-loop fail is a typed budget error, not a panic.
        let plan = FaultPlan::seeded(0).with(
            InjectionPoint::FeedbackRound,
            FaultAction::Fail,
            Fire::First(1),
        );
        let err = compile_with_faults(
            FIG5,
            &CompilerConfig::safara_only(),
            &mut Tracer::disabled(),
            &plan,
        )
        .unwrap_err();
        assert_eq!(err.code(), "budget");
        assert_eq!(err.phase().name(), "opt");
    }

    #[test]
    fn saturated_profile_compiles_and_never_regresses() {
        let plain = compile(FIG5, &CompilerConfig::safara_only()).unwrap();
        let sat = compile(FIG5, &CompilerConfig::safara_saturated()).unwrap();
        let (p, s) = (plain.function("fig5").unwrap(), sat.function("fig5").unwrap());
        // The ptxas guard reverts any extraction the register model
        // dislikes, so saturated can match but never exceed greedy.
        assert!(s.max_regs() <= p.max_regs(), "{} > {}", s.max_regs(), p.max_regs());
        assert_eq!(s.kernels.len(), p.kernels.len());
    }

    #[test]
    fn injected_saturate_fault_is_a_typed_error() {
        use safara_chaos::Fire;
        let plan = FaultPlan::seeded(0).with(
            InjectionPoint::Saturate,
            FaultAction::Fail,
            Fire::First(1),
        );
        let err = compile_with_faults(
            FIG5,
            &CompilerConfig::safara_saturated(),
            &mut Tracer::disabled(),
            &plan,
        )
        .unwrap_err();
        assert_eq!(err.code(), "saturate");
        assert_eq!(err.phase().name(), "opt");
        assert!(!err.retryable());
        // The very next compile under the same plan is clean.
        compile_with_faults(
            FIG5,
            &CompilerConfig::safara_saturated(),
            &mut Tracer::disabled(),
            &plan,
        )
        .unwrap();
        // With the phase disabled the injection point is never reached.
        let plan = FaultPlan::seeded(0).with(
            InjectionPoint::Saturate,
            FaultAction::Fail,
            Fire::First(1),
        );
        compile_with_faults(FIG5, &CompilerConfig::safara_only(), &mut Tracer::disabled(), &plan)
            .unwrap();
    }

    #[test]
    fn saturation_cap_breach_is_a_typed_error_with_region_span() {
        let program = parse_program_unchecked(FIG5).unwrap();
        let f = &program.functions[0];
        let cfg = CompilerConfig::safara_saturated();
        // A cap far below FIG5's e-node population: saturation must stop
        // with a typed error carrying the region's span, never hang.
        let scfg = safara_opt::SaturateConfig { max_rounds: 6, max_nodes: 4 };
        let err = saturate_function_inner(f, &cfg, &mut Tracer::disabled(), &scfg).unwrap_err();
        assert_eq!(err.code(), "saturate");
        assert!(err.span().is_some(), "cap errors carry the region span: {err}");
        assert!(err.to_string().contains("e-node cap"), "{err}");
    }

    #[test]
    fn inert_plan_output_is_identical_to_plain_compile() {
        let plain = compile(FIG5, &CompilerConfig::safara_only()).unwrap();
        let inert = compile_with_faults(
            FIG5,
            &CompilerConfig::safara_only(),
            &mut Tracer::disabled(),
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(plain, inert);
    }

    /// The feedback loop builds each artifact once: an accepted round's
    /// recompile is the next round's measurement, so the two programs
    /// that run all eight rounds make 1 + 8 whole-function codegen calls
    /// (16 before the carry) — and decide exactly what they decided then.
    #[test]
    fn feedback_loop_carries_the_accepted_rounds_artifacts() {
        use safara_obs::{MetaValue, Span};
        fn rounds<'a>(s: &'a Span, out: &mut Vec<&'a Span>) {
            if s.name == "round" {
                out.push(s);
            }
            s.children.iter().for_each(|c| rounds(c, out));
        }
        let int = |s: &Span, key: &str| match s.meta_get(key) {
            Some(MetaValue::Int(v)) => *v,
            other => panic!("round span without integer `{key}`: {other:?}"),
        };
        // (workload, feedback rounds, temps added, max regs_used) as the
        // loop produced them before artifacts were carried.
        for (name, want_rounds, want_temps, want_regs) in
            [("355.seismic", 8, 33, 59), ("356.sp", 8, 39, 46)]
        {
            let w = safara_workloads::all_workloads()
                .into_iter()
                .find(|w| w.name() == name)
                .expect("workload exists");
            let mut tracer = Tracer::new();
            let p = compile_traced(&w.source(), &CompilerConfig::safara_only(), &mut tracer)
                .expect("compile");
            let spans = tracer.finish();
            let mut rs = Vec::new();
            spans.iter().for_each(|s| rounds(s, &mut rs));
            let with_temps = rs.iter().filter(|r| int(r, "temps_added") > 0).count() as i64;
            let calls: i64 = rs.iter().map(|r| int(r, "codegen_calls")).sum();
            assert_eq!(calls, 1 + with_temps, "{name}: codegen calls inside the loop");
            assert_eq!(int(rs[0], "codegen_calls"), 2, "{name}: round 1 measures and recompiles");
            let f = &p.functions[0];
            assert_eq!(rs.len() as u32, f.feedback_rounds, "{name}: one span per round");
            assert_eq!(f.feedback_rounds, want_rounds, "{name}: feedback rounds");
            assert_eq!(f.sr_outcome.temps_added, want_temps, "{name}: temporaries");
            assert_eq!(f.max_regs(), want_regs, "{name}: final register use");
        }
    }
}
