//! The compile driver and SAFARA's iterative feedback loop.

use crate::error::CompileError;
use crate::pipeline::{run_compiled_with, RunCtx};
use crate::profile::{CompilerConfig, SrStrategy};
use safara_analysis::cost::CostModel;
use safara_analysis::reuse::RegionReuse;
use safara_chaos::{FaultAction, FaultPlan, InjectionPoint};
use safara_codegen::lower::{lower_function, CompiledKernel};
use safara_gpusim::device::DeviceConfig;
use safara_gpusim::ptxas::{allocate_registers_with, RegAllocReport};
use safara_ir::printer::print_function;
use safara_ir::{parse_program_unchecked, Function};
use safara_obs::Tracer;
use safara_opt::transform::TempNamer;
use safara_opt::{carr_kennedy_pass, safara_pass, OptGoal, SrOutcome, ThroughputContext};
use safara_runtime::{Args, LaunchCache, Memo, RunReport};
use std::convert::Infallible;

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
/// kernel's `launch_bounds` contract.
fn kernel_reg_cap(config: &CompilerConfig, kernel: &CompiledKernel) -> Result<u32, CompileError> {
    match kernel.launch_bounds {
        Some((t, b)) => Ok(config.reg_cap.min(launch_bounds_cap(&config.device, t, b)?)),
        None => Ok(config.reg_cap),
    }
}

/// The block `kernel` launches with, as far as compile time knows it
/// ([`CompiledKernel::block_shape`]): a `vector(e)` that only the
/// runtime can evaluate is planned at its rank's default.
fn planned_block(config: &CompilerConfig, kernel: &CompiledKernel) -> (u32, u32, u32) {
    let Ok(block) = kernel.block_shape(&config.device, |e| Ok::<_, Infallible>(e.as_const()));
    block
}

/// Threads in [`planned_block`].
fn planned_threads(config: &CompilerConfig, kernel: &CompiledKernel) -> u32 {
    let (x, y, z) = planned_block(config, kernel);
    x * y * z
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
/// `parse` → `sema` → `analysis` → `opt`. Each root phase covers *all*
/// functions of the translation unit, so a traced compile produces it
/// exactly once. `analysis` derives each region's reuse once; its
/// result feeds the first SAFARA round of `opt` unless unrolling or
/// saturation changed the body first. Every whole-function build is a `codegen` + `regalloc`
/// span pair nested under `opt` where it ran: directly (the body the
/// strategy starts from or ends with), under `saturate` (its before and,
/// when extraction changed the body, its after), or under the `round`
/// (one per feedback iteration, carrying
/// `regs_used`/`budget` metadata) whose trial it is. With a disabled
/// tracer this **is** [`compile`]: same code path, same output.
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
        if let Some(FaultAction::Fail) = faults.at(InjectionPoint::Parse) {
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
        if let Some(FaultAction::Fail) = faults.at(InjectionPoint::Sema) {
            return Err(CompileError::Sema { message: "injected sema fault".into(), span: None });
        }
        safara_ir::sema::check_program(&program)
            .map_err(|e| CompileError::from(safara_ir::CompileError::Sema(e)))
    })?;

    if let Some(FaultAction::Fail) = faults.at(InjectionPoint::Analysis) {
        return Err(CompileError::Analysis { message: "injected analysis fault".into() });
    }

    // Reuse analysis over every offload region, once: the phase reports
    // what the optimizer has to work with, and each function's analyses
    // feed its first SAFARA round, which analyses the same regions of the
    // same body.
    let analysed = tracer.span("analysis", |t| {
        let analysed: Vec<Vec<RegionReuse>> = program
            .functions
            .iter()
            .map(|f| f.regions().into_iter().map(RegionReuse::analyze).collect())
            .collect();
        let regions = analysed.iter().map(Vec::len).sum::<usize>();
        let groups = analysed.iter().flatten().map(|r| r.groups.len()).sum::<usize>();
        t.meta_int("regions", regions as i64);
        t.meta_int("reuse_groups", groups as i64);
        analysed
    });

    // Optimization decides by building: what leaves `opt` is each
    // function's last accepted candidate, kernels included.
    let functions = tracer.span("opt", |t| {
        program
            .functions
            .iter()
            .zip(analysed)
            .map(|(f, analysed)| optimize_function(f, analysed, config, t, faults))
            .collect::<Result<Vec<CompiledFunction>, CompileError>>()
    })?;

    if let Some(FaultAction::Fail | FaultAction::Spill) =
        faults.at(InjectionPoint::RegAlloc)
    {
        let kernel = functions
            .iter()
            .flat_map(|f| &f.kernels)
            .next()
            .map(|k| k.kernel.name.clone())
            .unwrap_or_else(|| "<no kernels>".into());
        return Err(CompileError::RegAllocSpill {
            kernel,
            regs_used: config.reg_cap + 1,
            reg_cap: config.reg_cap,
        });
    }

    Ok(CompiledProgram { config: config.clone(), functions })
}

/// A function body together with the kernels it lowers to — what every
/// decision in the driver compares, keeps or discards, and what a
/// [`CompiledFunction`] is finally made of.
struct Candidate {
    body: Function,
    artifacts: Vec<KernelArtifact>,
    /// The tightest effective register cap of any kernel: a
    /// `launch_bounds` contract lowers the ceiling the feedback loop may
    /// fill.
    cap: u32,
}

impl Candidate {
    /// The one build site: lower `body` (`codegen` span), then run
    /// register allocation for each kernel under its effective cap,
    /// spill target and planned block geometry (`regalloc` span).
    fn build(
        body: Function,
        config: &CompilerConfig,
        tracer: &mut Tracer,
    ) -> Result<Candidate, CompileError> {
        let kernels = tracer.span("codegen", |t| {
            let kernels = lower_function(&body, &config.codegen)?;
            t.meta_int("kernels", kernels.len() as i64);
            Ok::<_, CompileError>(kernels)
        })?;
        tracer.span("regalloc", |t| {
            let mut cap = config.reg_cap;
            let mut artifacts = Vec::with_capacity(kernels.len());
            for mut kernel in kernels {
                // A config-wide contract binds every kernel that declares
                // none, at compile time and at launch alike.
                kernel.launch_bounds = kernel.launch_bounds.or(config.launch_bounds);
                let kernel_cap = kernel_reg_cap(config, &kernel)?;
                let alloc = allocate_registers_with(
                    &kernel.vir,
                    kernel_cap,
                    config.spill_target,
                    planned_threads(config, &kernel),
                    config.device.shared_mem_per_sm,
                );
                cap = cap.min(kernel_cap);
                artifacts.push(KernelArtifact { kernel, alloc });
            }
            let built = Candidate { body, artifacts, cap };
            t.meta_int("max_regs", built.regs_used() as i64);
            t.meta_int("reg_cap", config.reg_cap as i64);
            Ok(built)
        })
    }

    /// Maximum registers used by any kernel.
    fn regs_used(&self) -> u32 {
        self.artifacts.iter().map(|a| a.alloc.regs_used).max().unwrap_or(0)
    }
}

/// The optimization half of the pipeline: unroll, optional saturation,
/// then the configured scalar-replacement strategy. The single-pass
/// strategies transform and build once; `SrStrategy::None` and SAFARA's
/// feedback loop start from a built candidate and end holding the one
/// that becomes the compiled function. `analysed` is the `analysis`
/// phase's reuse analysis of `f`'s regions: the first SAFARA pass uses
/// it for as long as the body is still `f`'s.
fn optimize_function(
    f: &Function,
    analysed: Vec<RegionReuse>,
    config: &CompilerConfig,
    tracer: &mut Tracer,
    faults: &FaultPlan,
) -> Result<CompiledFunction, CompileError> {
    let mut work = f.clone();
    let mut namer = TempNamer::default();
    let mut outcome = SrOutcome::default();
    let mut rounds = 0u32;
    let mut analysed = Some(analysed);

    // The §VII extension: unroll innermost sequential loops first so the
    // scalar-replacement passes below see straight-line reuse.
    if config.unroll >= 2 {
        analysed = None;
        for region in work.regions_mut() {
            let info = safara_analysis::region::RegionInfo::analyze(region);
            safara_opt::unroll::unroll_seq_loops(
                &mut region.body,
                config.unroll,
                &info,
                &mut namer,
            );
        }
    }

    // The equality-saturation phase runs ahead of scalar replacement and
    // hands back its winner already built.
    let saturated = if config.saturate {
        let (built, changed) = saturate_function(&work, config, tracer, faults)?;
        if changed {
            analysed = None;
        }
        Some(built)
    } else {
        None
    };

    let last = match &config.sr {
        SrStrategy::CarrKennedy | SrStrategy::Safara { feedback: false, .. } => {
            // One pass, count-only moderation against the full register
            // file (classical behaviour) or SAFARA's single unbounded
            // round (ablation); either way the body changes, so whatever
            // saturation built is stale.
            let mut body = saturated.map_or(work, |c| c.body);
            let mut analysed = analysed.into_iter().flatten();
            for region in body.regions_mut() {
                let o = match &config.sr {
                    SrStrategy::Safara { cost_model, .. } => {
                        let reuse = analysed.next().unwrap_or_else(|| RegionReuse::analyze(region));
                        safara_pass(f, region, reuse, config.reg_cap, cost_model, None, &mut namer)
                    }
                    _ => carr_kennedy_pass(f, region, config.reg_cap, &mut namer),
                };
                merge_outcome(&mut outcome, o);
            }
            rounds = 1;
            Candidate::build(body, config, tracer)?
        }
        sr => {
            let mut cur = match saturated {
                Some(c) => c,
                None => Candidate::build(work, config, tracer)?,
            };
            if let SrStrategy::Safara { cost_model, .. } = sr {
                // The iterative feedback loop (§III-B.2): every build is
                // both the verdict on one round and the measurement for
                // the next.
                while rounds < config.max_feedback_iters {
                    rounds += 1;
                    // Mid-loop fault injection: a `Fail` here models the
                    // backend dying between rounds (typed as a budget
                    // failure); a `Spill` forces this round down the
                    // paper's revert path.
                    let forced_spill = match faults.at(InjectionPoint::FeedbackRound) {
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
                    let analysed = analysed.take();
                    let accepted = tracer.span("round", |t| {
                        let namer = &mut namer;
                        feedback_round(&cur, analysed, config, cost_model, namer, forced_spill, t)
                    })?;
                    let Some((next, round_outcome)) = accepted else { break };
                    cur = next;
                    merge_outcome(&mut outcome, round_outcome);
                }
            }
            cur
        }
    };

    Ok(CompiledFunction {
        name: f.name.to_string(),
        transformed: last.body,
        kernels: last.artifacts,
        sr_outcome: outcome,
        feedback_rounds: rounds,
    })
}

/// One feedback round from `cur`: `Some` is the accepted trial and what
/// it added (the loop continues from it), `None` ends the loop with
/// `cur` kept — the budget is spent, nothing was left to replace, or
/// the trial spills. `analysed`, when given, is a reuse analysis of
/// `cur.body`'s regions.
fn feedback_round(
    cur: &Candidate,
    analysed: Option<Vec<RegionReuse>>,
    config: &CompilerConfig,
    cost_model: &CostModel,
    namer: &mut TempNamer,
    forced_spill: bool,
    tracer: &mut Tracer,
) -> Result<Option<(Candidate, SrOutcome)>, CompileError> {
    // 1. The registers `cur` was measured at when it was built.
    let used = cur.regs_used();
    let budget = cur.cap.saturating_sub(used);
    tracer.meta_int("regs_used", used as i64);
    tracer.meta_int("budget", budget as i64);
    if budget == 0 {
        return Ok(None);
    }
    // 2. One SR round within the budget.
    let (trial, round_outcome) =
        sr_round(&cur.body, &cur.artifacts, analysed, budget, config, cost_model, namer);
    tracer.meta_int("temps_added", round_outcome.temps_added as i64);
    if round_outcome.temps_added == 0 {
        return Ok(None); // all reused references are replaced
    }
    // 3. Build the trial; revert the round if it now spills.
    let trial = Candidate::build(trial, config, tracer)?;
    if forced_spill || trial.artifacts.iter().any(|a| !a.alloc.fits()) {
        tracer.meta_str("ended", "reverted_spill");
        return Ok(None); // registers saturated: keep previous state
    }
    Ok(Some((trial, round_outcome)))
}

/// One SAFARA pass over every region of `body` within `budget`
/// registers: the transformed body and what the pass added. Under the
/// throughput goal every region gets an occupancy oracle seeded from
/// `built`, the kernels of `body`: the most registers any of them uses
/// and the smallest block any of them is planned to launch with. Each
/// region is analysed once: by the caller when `analysed` holds its
/// analysis, here otherwise.
fn sr_round(
    body: &Function,
    built: &[KernelArtifact],
    analysed: Option<Vec<RegionReuse>>,
    budget: u32,
    config: &CompilerConfig,
    cost_model: &CostModel,
    namer: &mut TempNamer,
) -> (Function, SrOutcome) {
    let throughput = (config.goal == OptGoal::MaxThroughput).then(|| ThroughputContext {
        device: config.device,
        threads_per_block: built
            .iter()
            .map(|a| planned_threads(config, &a.kernel))
            .min()
            .unwrap_or(1),
        regs_in_use: built.iter().map(|a| a.alloc.regs_used).max().unwrap_or(0),
    });
    let mut round_outcome = SrOutcome::default();
    let mut trial = body.clone();
    let mut analysed = analysed.into_iter().flatten();
    for region in trial.regions_mut() {
        let reuse = analysed.next().unwrap_or_else(|| RegionReuse::analyze(region));
        let o = safara_pass(body, region, reuse, budget, cost_model, throughput, namer);
        merge_outcome(&mut round_outcome, o);
    }
    (trial, round_outcome)
}

/// Saturate every offload region of `work`, then accept or revert the
/// whole function against the configured goal: region expressions are
/// hash-consed into an e-graph, saturated with integer-ring rewrites
/// (CSE, offset factoring, strength reduction, guarded narrowing), and
/// re-extracted by predicted register cost. The extraction's structural
/// weights only *rank* candidates — when extraction changed the body, the
/// acceptance test builds both bodies through the ptxas register model
/// (or the occupancy oracle under the throughput goal) and returns the
/// original unless the saturated one is an improvement, so the phase can
/// never make a kernel worse. The flag says whether the candidate's body
/// is a different one from `work`.
fn saturate_function(
    work: &Function,
    config: &CompilerConfig,
    tracer: &mut Tracer,
    faults: &FaultPlan,
) -> Result<(Candidate, bool), CompileError> {
    if let Some(FaultAction::Fail) = faults.at(InjectionPoint::Saturate) {
        return Err(CompileError::Saturate {
            message: "injected saturation fault".into(),
            span: None,
        });
    }
    tracer.span("saturate", |t| {
        saturate_traced(work, config, t, &safara_opt::SaturateConfig::default())
    })
}

/// The traced body of [`saturate_function`].
fn saturate_traced(
    work: &Function,
    config: &CompilerConfig,
    tracer: &mut Tracer,
    scfg: &safara_opt::SaturateConfig,
) -> Result<(Candidate, bool), CompileError> {
    let before = Candidate::build(work.clone(), config, tracer)?;
    let mut trial = work.clone();
    let mut agg = safara_opt::RegionSaturation::empty();
    for region in trial.regions_mut() {
        let span = region.span;
        let r = safara_opt::saturate_region(work, region, config.codegen.honor_small, scfg)
            .map_err(|e| CompileError::Saturate { message: e.to_string(), span: Some(span) })?;
        agg.absorb(&r);
    }
    tracer.meta_int("rounds", agg.stats.rounds as i64);
    tracer.meta_int("e_classes", agg.stats.e_classes as i64);
    tracer.meta_int("e_nodes", agg.stats.e_nodes as i64);
    tracer.meta_int("cost_before", agg.cost_before as i64);
    tracer.meta_int("cost_after", agg.cost_after as i64);
    tracer.meta_str("stop", agg.stats.stop.name());
    if trial == *work {
        // The e-graph handed every region back as it was: `before` is
        // already the build of that body.
        tracer.meta_str("verdict", "unchanged");
        return Ok((before, false));
    }
    let after = Candidate::build(trial, config, tracer)?;
    let keep = match config.goal {
        // The paper's policy: fewer registers wins; on a register tie the
        // shorter instruction stream wins; otherwise revert.
        OptGoal::MinRegisters => {
            let insts = |c: &Candidate| {
                c.artifacts.iter().map(|a| a.kernel.vir.insts.len()).sum::<usize>()
            };
            (after.regs_used(), insts(&after)) <= (before.regs_used(), insts(&before))
        }
        // Throughput goal: the occupancy oracle (PR 8) judges the worst
        // kernel's resident warps under the planned block geometry.
        OptGoal::MaxThroughput => {
            let warps = |c: &Candidate| {
                c.artifacts
                    .iter()
                    .map(|a| {
                        let tpb = planned_threads(config, &a.kernel);
                        config.device.occupancy(a.alloc.regs_used, tpb).active_warps_per_sm
                    })
                    .min()
                    .unwrap_or(0)
            };
            warps(&after) >= warps(&before)
        }
    };
    tracer.meta_str("verdict", if keep { "kept" } else { "reverted" });
    Ok(if keep { (after, true) } else { (before, false) })
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

        // The same contract through the config-wide override, no clause.
        let cfg = CompilerConfig { launch_bounds: Some((256, 4)), ..CompilerConfig::safara_only() };
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
        let cfg = CompilerConfig { launch_bounds: Some((128, 64)), ..CompilerConfig::base() };
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
    fn the_planned_block_is_the_launched_block() {
        // Register allocation, the RegDem slab and the occupancy oracle
        // plan with the block the runtime launches: `launch_bounds(256, 4)`
        // launches the default 128 threads, `vector(64)` launches 64, and a
        // config-wide contract caps the launch like a clause does.
        let lb = FIG5.replace("#pragma acc kernels", "#pragma acc kernels launch_bounds(256, 4)");
        let vec64 = FIG5.replace("loop gang vector", "loop gang vector(64)");
        let capped =
            CompilerConfig { launch_bounds: Some((64, 1)), ..CompilerConfig::safara_only() };
        for (src, cfg, want) in [
            (lb.as_str(), CompilerConfig::safara_only(), (128, 1, 1)),
            (vec64.as_str(), CompilerConfig::safara_only(), (64, 1, 1)),
            (FIG5, capped, (64, 1, 1)),
        ] {
            let p = compile(src, &cfg).unwrap();
            let kernel = &p.function("fig5").unwrap().kernels[0].kernel;
            let mut args = crate::Args::new()
                .i32("jsize", 8)
                .i32("isize", 8)
                .array_f32("a", &vec![0.0; 260 * 260])
                .array_f32("b", &vec![0.0; 260 * 260])
                .array_f32("c", &vec![0.0; 260])
                .array_f32("d", &vec![0.0; 260]);
            let report = p.run("fig5", &mut args, &cfg.device).unwrap();
            assert_eq!(report.kernels[0].config.block, want);
            assert_eq!(planned_block(&cfg, kernel), want);
        }
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
        assert_carried_is_rebuilt("fig5/spill@1", &faulted);

        // Forced in round 2, the revert leaves what round 1 accepted: its
        // temporaries, and the artifacts round 2 measured — not the
        // spilling trial's.
        let mut tracer = Tracer::new();
        compile_traced(FIG5, &CompilerConfig::safara_only(), &mut tracer).unwrap();
        let spans = tracer.finish();
        let clean = spans_named(&spans, "round");
        let faulted = compile_with_faults(
            FIG5,
            &CompilerConfig::safara_only(),
            &mut Tracer::disabled(),
            &spill_in_round(2),
        )
        .unwrap();
        let f = faulted.function("fig5").unwrap();
        assert_eq!(f.feedback_rounds, 2, "round 2 forced to spill ends the loop");
        assert_eq!(f.sr_outcome.temps_added as i64, meta_int(clean[0], "temps_added"));
        assert_eq!(f.max_regs() as i64, meta_int(clean[1], "regs_used"));
        assert_carried_is_rebuilt("fig5/spill@2", &faulted);

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

    /// The `analysis` phase's reuse analysis describes the body as
    /// written; once saturation keeps a rewritten body, the first SAFARA
    /// round must analyse that body instead. Here the e-graph folds the
    /// `+ 0` out of a subscript whose division keeps it non-affine, so
    /// the reference is matched by its expression: an analysis of the
    /// written body names a reference the kept body no longer has.
    #[test]
    fn a_kept_saturated_body_is_analysed_afresh() {
        let src = |ix: &str| {
            format!(
                "void halve(int n, float x[520], float y[260]) {{
                  #pragma acc kernels
                  {{
                    #pragma acc loop gang vector
                    for (int i = 0; i < n; i++) {{
                      y[i] = x[{ix}] * x[{ix}] + x[{ix}];
                    }}
                  }}
                }}"
            )
        };
        let (written, folded) = (src("(i + 0) / 2"), src("i / 2"));
        let config = CompilerConfig::safara_saturated();
        let mut tracer = Tracer::new();
        let p = compile_traced(&written, &config, &mut tracer).unwrap();
        let spans = tracer.finish();
        assert_eq!(meta_str(spans_named(&spans, "saturate")[0], "verdict"), "kept");
        let q = compile(&folded, &config).unwrap();
        let (f, g) = (p.function("halve").unwrap(), q.function("halve").unwrap());
        assert!(g.sr_outcome.temps_added > 0, "{}", g.transformed_source());
        assert_eq!(f.transformed_source(), g.transformed_source());
        assert_eq!(f.sr_outcome, g.sr_outcome);
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
        let err =
            saturate_traced(f, &cfg, &mut Tracer::disabled(), &scfg).map(|_| ()).unwrap_err();
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

    /// Every `name` span of a trace, depth first.
    fn spans_named<'a>(spans: &'a [safara_obs::Span], name: &str) -> Vec<&'a safara_obs::Span> {
        let mut out = Vec::new();
        for s in spans {
            if s.name == name {
                out.push(s);
            }
            out.extend(spans_named(&s.children, name));
        }
        out
    }

    fn meta_int(s: &safara_obs::Span, key: &str) -> i64 {
        match s.meta_get(key) {
            Some(safara_obs::MetaValue::Int(v)) => *v,
            other => panic!("`{}` span without integer `{key}`: {other:?}", s.name),
        }
    }

    /// `compile_heavy`'s five profiles, in its order.
    fn heavy_profiles() -> [CompilerConfig; 5] {
        [
            CompilerConfig::base(),
            CompilerConfig::safara_only(),
            CompilerConfig::safara_clauses(),
            CompilerConfig::safara_throughput(),
            CompilerConfig::safara_saturated(),
        ]
    }

    fn meta_str<'a>(s: &'a safara_obs::Span, key: &str) -> &'a str {
        match s.meta_get(key) {
            Some(safara_obs::MetaValue::Str(v)) => v,
            other => panic!("`{}` span without string `{key}`: {other:?}", s.name),
        }
    }

    /// Whole-function builds (`codegen` spans) of one traced compile,
    /// checked against what the loop has to build: the body each
    /// function starts from, one more under `saturate` only if the
    /// e-graph changed the body, and one trial per round that added
    /// temporaries.
    fn builds(src: &str, config: &CompilerConfig) -> (usize, CompiledProgram) {
        let mut tracer = Tracer::new();
        let p = compile_traced(src, config, &mut tracer).expect("compile");
        let spans = tracer.finish();
        let built = spans_named(&spans, "codegen").len();
        assert_eq!(built, spans_named(&spans, "regalloc").len(), "build = codegen + regalloc");
        let rounds = spans_named(&spans, "round");
        let with_temps = rounds.iter().filter(|r| meta_int(r, "temps_added") > 0).count();
        let saturations = spans_named(&spans, "saturate");
        assert_eq!(saturations.len(), usize::from(config.saturate) * p.functions.len());
        let resaturated =
            saturations.iter().filter(|s| meta_str(s, "verdict") != "unchanged").count();
        assert_eq!(
            built,
            p.functions.len() + resaturated + with_temps,
            "{}: builds of {} functions, {} bodies saturation changed, {} rounds with temporaries",
            config.name,
            p.functions.len(),
            resaturated,
            with_temps
        );
        assert_eq!(
            rounds.len() as u32,
            p.functions.iter().map(|f| f.feedback_rounds).sum::<u32>(),
            "one span per round"
        );
        (built, p)
    }

    /// Each body is built once: the candidate a round accepts is the
    /// next round's measurement, saturation's winner (or, when the
    /// e-graph changed nothing, its one build) is round 1's, and the last
    /// one held is the compiled function. The two largest programs add
    /// every temporary in round 1 and find nothing left in round 2, so
    /// they build twice — the body they start from and round 1's trial.
    #[test]
    fn feedback_loop_carries_the_accepted_rounds_artifacts() {
        let workloads = safara_workloads::all_workloads();
        // (workload, feedback rounds, temps added, max regs_used).
        for (name, want_rounds, want_temps, want_regs) in
            [("355.seismic", 2, 19, 59), ("356.sp", 2, 18, 46)]
        {
            let w = workloads.iter().find(|w| w.name() == name).expect("workload exists");
            let (built, p) = builds(&w.source(), &CompilerConfig::safara_only());
            assert_eq!(built, 2, "{name}: safara_only");
            let f = &p.functions[0];
            assert_eq!(f.feedback_rounds, want_rounds, "{name}: feedback rounds");
            assert_eq!(f.sr_outcome.temps_added, want_temps, "{name}: temporaries");
            assert_eq!(f.max_regs(), want_regs, "{name}: final register use");
            assert_eq!(builds(&w.source(), &CompilerConfig::safara_saturated()).0, 2, "{name}");
            assert_eq!(builds(&w.source(), &CompilerConfig::base()).0, 1, "{name}");
        }
        // The benchmark's `compile_heavy` grid.
        let grid: usize = workloads
            .iter()
            .flat_map(|w| heavy_profiles().map(|c| builds(&w.source(), &c).0))
            .sum();
        assert_eq!(grid, 134);
    }

    /// True if any `DeclScalar` in `stmts` is initialised with nothing
    /// but another scalar-replacement temporary.
    fn copies_a_temporary(stmts: &[safara_ir::Stmt]) -> bool {
        use safara_ir::{Expr, Stmt};
        stmts.iter().any(|s| match s {
            Stmt::DeclScalar { init: Some(Expr::Var(v)), .. } => v.as_str().starts_with("__sr"),
            Stmt::For(f) => copies_a_temporary(&f.body),
            Stmt::If { then_body, else_body, .. } => {
                copies_a_temporary(then_body) || copies_a_temporary(else_body)
            }
            Stmt::Block(b) => copies_a_temporary(b),
            Stmt::Region(r) => copies_a_temporary(&r.body),
            _ => false,
        })
    }

    /// The loop ends "when all reused references are replaced" (§III-B.2):
    /// on the whole `compile_heavy` grid it stops short of
    /// `max_feedback_iters`, what it hands out is a fixed point — one more
    /// pass at the final budget finds nothing to add — and no temporary is
    /// a copy of another temporary.
    #[test]
    fn feedback_loop_ends_at_a_fixed_point_on_every_workload() {
        let mut converged = 0;
        for w in safara_workloads::all_workloads() {
            for config in heavy_profiles() {
                let what = format!("{}/{}", w.name(), config.name);
                let mut tracer = Tracer::new();
                let p = compile_traced(&w.source(), &config, &mut tracer).expect("compile");
                let spans = tracer.finish();
                let rounds = spans_named(&spans, "round");
                let SrStrategy::Safara { cost_model, .. } = &config.sr else {
                    assert!(rounds.is_empty(), "{what}: no feedback without SAFARA");
                    continue;
                };
                // One function per workload: its rounds are the trace's.
                let [f] = &p.functions[..] else { panic!("{what}: one function expected") };
                assert!(
                    f.feedback_rounds < config.max_feedback_iters,
                    "{what}: stopped by the iteration limit, not by convergence"
                );
                assert!(!copies_a_temporary(&f.transformed.body), "{what}: a temporary copies one");
                let last = rounds.last().expect("SAFARA runs at least one round");
                let budget = meta_int(last, "budget") as u32;
                if budget == 0 || last.meta_get("ended").is_some() {
                    continue; // ended by exhausted budget or by revert
                }
                assert_eq!(meta_int(last, "temps_added"), 0, "{what}: how the loop ended");
                converged += 1;
                let (again, added) = sr_round(
                    &f.transformed,
                    &f.kernels,
                    None,
                    budget,
                    &config,
                    cost_model,
                    &mut TempNamer::default(),
                );
                assert_eq!(added.temps_added, 0, "{what}: one more pass still adds temporaries");
                assert_eq!(again, f.transformed, "{what}: one more pass changed the body");
            }
        }
        assert_eq!(converged, 64, "16 workloads x 4 SAFARA profiles end by convergence");
    }

    /// What the deleted final stage gave by construction: the kernels a
    /// compile hands out are the kernels of the body it hands out.
    fn assert_carried_is_rebuilt(what: &str, p: &CompiledProgram) {
        for f in &p.functions {
            let fresh = Candidate::build(f.transformed.clone(), &p.config, &mut Tracer::disabled())
                .expect("rebuild");
            assert!(
                f.kernels == fresh.artifacts,
                "{what}/{}: carried kernels differ from a rebuild of the transformed body",
                f.name
            );
        }
    }

    /// A plan that forces the `round`-th feedback round it sees to spill
    /// and no other. `Fire::First` cannot skip an arrival, so the rounds
    /// before it are taken by a rule that wins them and merely stalls.
    fn spill_in_round(round: u64) -> FaultPlan {
        use safara_chaos::Fire;
        let point = InjectionPoint::FeedbackRound;
        FaultPlan::seeded(0)
            .with(point, FaultAction::Delay { ms: 1 }, Fire::First(round - 1))
            .with(point, FaultAction::Spill, Fire::First(round))
    }

    #[test]
    fn carried_artifacts_equal_a_rebuild_of_the_transformed_body() {
        let mut configs: Vec<CompilerConfig> = CompilerConfig::PROFILE_KEYS
            .iter()
            .map(|k| CompilerConfig::by_name(k).expect("profile key resolves"))
            .collect();
        configs.push(CompilerConfig::safara_unroll(2));
        for iters in [0, 1] {
            for base in [CompilerConfig::safara_only(), CompilerConfig::safara_saturated()] {
                configs.push(CompilerConfig { max_feedback_iters: iters, ..base });
            }
        }
        // The workloads' saturated bodies all win or tie; this one costs
        // a register (11 → 12), so saturation hands back the original.
        let loses = "void f(int n, int k, float x[n]) {
          #pragma acc kernels copy(x)
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              #pragma acc loop seq
              for (int j = 0; j < k; j++) {
                x[i + 4 * k * (3 + k)] = x[j / 4 * 4];
                x[0] = x[3 * i + i * k] + x[i + 8];
              }
            }
          }
        }";
        let sources = safara_workloads::all_workloads()
            .iter()
            .map(|w| (w.name().to_string(), w.source()))
            .chain([("saturation loses".to_string(), loses.to_string())])
            .collect::<Vec<_>>();

        let (mut kept, mut reverted, mut unchanged) = (0, 0, 0);
        for (name, src) in &sources {
            for config in &configs {
                let mut tracer = Tracer::new();
                let p = compile_traced(src, config, &mut tracer).expect("compile");
                assert_carried_is_rebuilt(&format!("{name}/{}", config.name), &p);
                for s in spans_named(&tracer.finish(), "saturate") {
                    match meta_str(s, "verdict") {
                        "kept" => kept += 1,
                        "reverted" => reverted += 1,
                        "unchanged" => unchanged += 1,
                        other => panic!("{name}: saturate verdict `{other}`"),
                    }
                }
            }
            // A spill forced in round 1 leaves the starting candidate's
            // artifacts; in round 2, those of the round accepted before.
            for round in [1, 2] {
                for config in [CompilerConfig::safara_only(), CompilerConfig::safara_saturated()] {
                    let plan = spill_in_round(round);
                    let p = compile_with_faults(src, &config, &mut Tracer::disabled(), &plan)
                        .expect("a forced spill reverts the round, not the compile");
                    let point = InjectionPoint::FeedbackRound;
                    assert_eq!(plan.fired(point), plan.arrivals(point).min(round), "{name}");
                    assert_carried_is_rebuilt(&format!("{name}/{}/spill@{round}", config.name), &p);
                }
            }
        }
        assert!(
            kept > 0 && reverted > 0 && unchanged > 0,
            "saturation kept {kept}, reverted {reverted}, left {unchanged} unchanged"
        );
    }
}
