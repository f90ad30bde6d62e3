//! The three library workloads: `suite_cold`, `suite_warm` and
//! `compile_heavy`. Each times calls into `safara-core`'s public
//! functions; argument generation and verification happen with the
//! clock stopped.

use crate::cells::CellSet;
use crate::measure::{
    outcome, repeat_setup, us_since, Budget, Layers, Outcome, RunOpts, Samples, Verdict,
};
use crate::stats::shuffle;
use crate::trace::SpanLog;
use safara_core::gpusim::interp::ParamVal;
use safara_core::gpusim::memo::launch_key;
use safara_core::gpusim::{fusion_counters, DeviceMemory, Engine, ExecOptions};
use safara_core::obs::Tracer;
use safara_core::runtime::run_function_traced;
use safara_core::{
    compile, compile_traced, run_compiled_traced, Args, CompiledProgram, DeviceConfig, LaunchCache,
    RunReport, SharedLaunchCache, SplitMix64,
};
use safara_workloads::{all_workloads, spec_suite, Scale};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SuiteCold,
    SuiteWarm,
    CompileHeavy,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::SuiteCold => "suite_cold",
            Kind::SuiteWarm => "suite_warm",
            Kind::CompileHeavy => "compile_heavy",
        }
    }
}

/// The fig7 pair: what `results/fig7_spec_safara_only.txt` is made of.
pub const FIG7_PROFILES: [&str; 2] = ["base", "safara_only"];

/// `compile_heavy` adds the clause, throughput and e-graph profiles, so
/// the cost of each optimisation path shows next to the greedy one.
const COMPILE_PROFILES: [&str; 5] = [
    "base",
    "safara_only",
    "safara_clauses",
    "safara_throughput",
    "safara_saturated",
];

struct Lib {
    kind: Kind,
    set: CellSet,
    /// `suite_warm`'s memo, warmed by the set-up's warm-up pass.
    cache: LaunchCache,
    dev: DeviceConfig,
}

/// What a timed operation produced. The compiled program rides along
/// so that freeing it stays outside the timed window.
enum Done {
    Ran {
        report: RunReport,
        _program: Option<CompiledProgram>,
    },
    Compiled(CompiledProgram),
}

impl Lib {
    /// Everything before the first timed sample: sources, arguments,
    /// the oracle, and one verified warm-up pass on the path under test.
    fn setup(kind: Kind) -> Result<Lib, String> {
        let set = match kind {
            Kind::CompileHeavy => {
                // Compilation does not depend on the problem size; the
                // small scale keeps the oracle's run of all 80 compiled
                // programs inside the set-up budget.
                CellSet::build(all_workloads(), &COMPILE_PROFILES, Scale::Test)?
            }
            _ => CellSet::build(spec_suite(), &FIG7_PROFILES, Scale::Bench)?,
        };
        let mut lib = Lib {
            kind,
            set,
            cache: LaunchCache::new(),
            dev: DeviceConfig::k20xm(),
        };
        for cell in 0..lib.set.cells.len() {
            lib.op(cell, 0, None)
                .1
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok(lib)
    }

    /// One operation on `cell`: milliseconds of its timed window and
    /// whether its result reproduces the oracle.
    fn op(&mut self, cell: usize, op: u32, log: Option<&mut SpanLog>) -> (f64, Result<(), String>) {
        let mut args = match self.kind {
            Kind::CompileHeavy => Args::new(),
            _ => self.set.fresh_args(cell),
        };
        let t0 = Instant::now();
        let done = match log {
            None => self.plain(cell, &mut args),
            Some(log) => log.span("cell", op, |log| self.traced(cell, op, &mut args, log)),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let checked = done.and_then(|done| match done {
            Done::Ran { report, .. } => self.set.check_run(cell, &report, &args),
            Done::Compiled(program) if program == self.set.expected[cell].compiled => Ok(()),
            Done::Compiled(_) => Err(format!(
                "{}: compiled program differs from set-up's",
                self.set.label(cell)
            )),
        });
        (ms, checked)
    }

    fn plain(&mut self, cell: usize, args: &mut Args) -> Result<Done, String> {
        let Lib {
            kind,
            set,
            cache,
            dev,
        } = self;
        let (source, config, entry) = (set.source(cell), &set.cells[cell].config, set.entry(cell));
        let err = |e: safara_core::CompileError| e.to_string();
        Ok(match kind {
            Kind::SuiteCold => {
                let program = compile(source, config).map_err(err)?;
                let report = program.run(entry, args, dev).map_err(err)?;
                Done::Ran {
                    report,
                    _program: Some(program),
                }
            }
            Kind::SuiteWarm => {
                let program = &set.expected[cell].compiled;
                let report = program.run_cached(entry, args, dev, cache).map_err(err)?;
                Done::Ran {
                    report,
                    _program: None,
                }
            }
            Kind::CompileHeavy => Done::Compiled(compile(source, config).map_err(err)?),
        })
    }

    /// The same operation with a span around each call into a layer and
    /// the crates' own span trees attached below.
    fn traced(
        &mut self,
        cell: usize,
        op: u32,
        args: &mut Args,
        log: &mut SpanLog,
    ) -> Result<Done, String> {
        let Lib {
            kind,
            set,
            cache,
            dev,
        } = self;
        let (source, config, entry) = (set.source(cell), &set.cells[cell].config, set.entry(cell));
        let err = |e: safara_core::CompileError| e.to_string();
        let compile_spanned = |log: &mut SpanLog| {
            log.span("core.compile", op, |log| {
                let epoch = Instant::now();
                let mut tracer = Tracer::new();
                let program = compile_traced(source, config, &mut tracer);
                log.import(op, epoch, &tracer.finish());
                program.map_err(err)
            })
        };
        Ok(match kind {
            Kind::SuiteCold => {
                let program = compile_spanned(log)?;
                let report = log.span("runtime.run", op, |log| {
                    // What `CompiledProgram::run` does, with a tracer.
                    let f = program.function(entry).map_err(err)?;
                    let kernels: Vec<_> = f
                        .kernels
                        .iter()
                        .map(|k| (k.kernel.clone(), k.alloc.clone()))
                        .collect();
                    let epoch = Instant::now();
                    let mut tracer = Tracer::new();
                    let report =
                        run_function_traced(dev, &f.transformed, &kernels, args, None, &mut tracer);
                    log.import(op, epoch, &tracer.finish());
                    report.map_err(|e| e.to_string())
                })?;
                Done::Ran {
                    report,
                    _program: Some(program),
                }
            }
            Kind::SuiteWarm => {
                let program = &set.expected[cell].compiled;
                let report = log
                    .span("gpusim.memo_hit", op, |_| {
                        program.run_cached(entry, args, dev, cache)
                    })
                    .map_err(err)?;
                Done::Ran {
                    report,
                    _program: None,
                }
            }
            Kind::CompileHeavy => Done::Compiled(compile_spanned(log)?),
        })
    }

    /// One pass over `order`, recorded into `samples`.
    fn pass(
        &mut self,
        order: &[usize],
        pass: usize,
        mut log: Option<&mut SpanLog>,
        samples: &mut Samples,
        verdict: &mut Verdict,
    ) {
        let cells = self.set.cells.len();
        let mut ops = Vec::with_capacity(order.len());
        for &cell in order {
            let (ms, checked) = self.op(cell, (pass * cells + cell) as u32, log.as_deref_mut());
            verdict.note(checked);
            ops.push((cell, ms));
        }
        samples.push_pass(&ops, None);
    }

    /// Direct calls into single layers that no pass of this workload
    /// isolates.
    fn probes(
        &mut self,
        opts: &RunOpts,
        layers: &mut Layers,
        verdict: &mut Verdict,
        log: &mut SpanLog,
    ) {
        match self.kind {
            Kind::SuiteCold => self.probe_engines(layers, verdict),
            Kind::SuiteWarm => {
                for _ in 0..opts.reps() {
                    self.probe_launch_key(layers);
                    self.probe_memo_miss(layers, verdict);
                }
                self.probe_shared_replay(opts.reps(), layers, verdict, log);
            }
            Kind::CompileHeavy => {}
        }
    }

    /// `run` of the set-up's compiled programs under each interpreter.
    fn probe_engines(&self, layers: &mut Layers, verdict: &mut Verdict) {
        let engines = [
            (Engine::Reference, "gpusim.run_us.reference"),
            (Engine::Decoded, "gpusim.run_us.decoded"),
            (Engine::Superblock, "gpusim.run_us.superblock"),
        ];
        for (engine, metric) in engines {
            let before = fusion_counters();
            let mut sum_us = 0.0;
            for cell in 0..self.set.cells.len() {
                let mut args = self.set.fresh_args(cell);
                let program = &self.set.expected[cell].compiled;
                let t = Instant::now();
                let report = ExecOptions::inherit()
                    .engine(engine)
                    .scope(|| program.run(self.set.entry(cell), &mut args, &self.dev));
                sum_us += us_since(t);
                verdict.note(
                    report
                        .map_err(|e| e.to_string())
                        .and_then(|r| self.set.check_run(cell, &r, &args)),
                );
            }
            layers.push(metric, sum_us);
            if engine == Engine::Superblock {
                let after = fusion_counters();
                layers.set(
                    "gpusim.sb_fused_blocks",
                    (after.fused_blocks - before.fused_blocks) as f64,
                );
                layers.set(
                    "gpusim.sb_delegated",
                    (after.delegated - before.delegated) as f64,
                );
            }
        }
    }

    /// `memo::launch_key` on each cell's first kernel, over a device
    /// memory that holds the cell's arrays.
    fn probe_launch_key(&self, layers: &mut Layers) {
        let mut sum_us = 0.0;
        for (cell, expected) in self.set.expected.iter().enumerate() {
            let function = &expected.compiled.functions[0];
            let (Some(kernel), Some(config)) = (function.kernels.first(), expected.first_launch)
            else {
                continue;
            };
            let args = self.set.fresh_args(cell);
            let mut mem = DeviceMemory::new();
            let params: Vec<ParamVal> = args
                .arrays
                .values()
                .map(|a| {
                    let id = mem.alloc(a.bytes.len());
                    mem.copy_in(id, &a.bytes);
                    ParamVal::Ptr(mem.base_addr(id))
                })
                .collect();
            let t = Instant::now();
            let key = launch_key(
                &kernel.kernel.vir,
                &config,
                &params,
                &mem,
                &kernel.alloc.spilled,
            );
            sum_us += us_since(t);
            std::hint::black_box(key);
        }
        layers.push("gpusim.launch_key_us", sum_us);
    }

    /// `run_cached` into an empty cache next to a plain `run`: the
    /// difference is what recording a miss costs. Each cell gets a cache
    /// of its own, or the kernels that `base` and `safara_only` share
    /// would hit.
    fn probe_memo_miss(&self, layers: &mut Layers, verdict: &mut Verdict) {
        let (mut miss_us, mut run_us, mut misses) = (0.0, 0.0, 0);
        for cell in 0..self.set.cells.len() {
            let mut cold = LaunchCache::new();
            let (program, entry) = (&self.set.expected[cell].compiled, self.set.entry(cell));
            let mut args = self.set.fresh_args(cell);
            let t = Instant::now();
            let missed = program.run_cached(entry, &mut args, &self.dev, &mut cold);
            miss_us += us_since(t);
            misses += cold.misses;
            verdict.note(
                missed
                    .map_err(|e| e.to_string())
                    .and_then(|r| self.set.check_run(cell, &r, &args)),
            );
            let mut args = self.set.fresh_args(cell);
            let t = Instant::now();
            let ran = program.run(entry, &mut args, &self.dev);
            run_us += us_since(t);
            verdict.note(
                ran.map_err(|e| e.to_string())
                    .and_then(|r| self.set.check_run(cell, &r, &args)),
            );
        }
        layers.push("gpusim.memo_miss_us", miss_us);
        layers.push("runtime.run_us", run_us);
        layers.push("gpusim.memo_record_overhead_us", miss_us - run_us);
        layers.set("gpusim.memo_misses", misses as f64);
    }

    /// Replay through `run_compiled_traced` and a warm shared cache (the
    /// server's path), whose span tree splits a hit into h2d, launch
    /// (key + replay) and d2h.
    fn probe_shared_replay(
        &self,
        reps: usize,
        layers: &mut Layers,
        verdict: &mut Verdict,
        log: &mut SpanLog,
    ) {
        let shared = SharedLaunchCache::new(16);
        for rep in 0..=reps {
            let mark = log.mark();
            for cell in 0..self.set.cells.len() {
                let (program, entry) = (&self.set.expected[cell].compiled, self.set.entry(cell));
                let mut args = self.set.fresh_args(cell);
                let ran = log.span("probe.shared_replay", cell as u32, |log| {
                    let epoch = Instant::now();
                    let mut tracer = Tracer::new();
                    let ran = run_compiled_traced(
                        program,
                        entry,
                        &mut args,
                        &self.dev,
                        Some(&shared),
                        &mut tracer,
                    );
                    log.import(cell as u32, epoch, &tracer.finish());
                    ran
                });
                verdict.note(
                    ran.map_err(|e| e.to_string())
                        .and_then(|o| self.set.check_outputs(cell, o.total_cycles, &args)),
                );
            }
            // Repetition 0 fills the cache; the later ones all hit.
            if rep > 0 {
                let sums = log.sums_since(mark);
                for (metric, span) in [
                    ("runtime.h2d_us", "runtime.h2d"),
                    ("runtime.d2h_us", "runtime.d2h"),
                    ("gpusim.launch_us", "gpusim.launch"),
                ] {
                    layers.push(metric, sums.get(span).map_or(0.0, |s| s.self_us));
                }
            }
        }
    }
}

/// `model_speedup_geomean` must equal the `average` row of the
/// checked-in figure; the difference is the model's error against the
/// repository's reference results. Skipped when the file is not there.
fn check_fig7(set: &CellSet, verdict: &mut Verdict, notes: &mut Vec<String>) {
    let geomean = format!("{:.3}", set.model_speedup_geomean());
    let Ok(text) = std::fs::read_to_string("results/fig7_spec_safara_only.txt") else {
        notes.push(format!(
            "model_speedup_geomean {geomean} ratio (results/fig7 not found)"
        ));
        return;
    };
    let reference = text
        .lines()
        .find_map(|l| l.strip_prefix("average"))
        .map(|v| v.trim().to_string())
        .unwrap_or_default();
    notes.push(format!(
        "model_speedup_geomean {geomean} ratio (results/fig7_spec_safara_only.txt average: {reference})"
    ));
    verdict.note(if geomean == reference {
        Ok(())
    } else {
        Err(format!(
            "model_speedup_geomean {geomean} != checked-in fig7 average {reference}"
        ))
    });
}

pub fn run(kind: Kind, opts: &RunOpts) -> Result<Outcome, String> {
    let (mut lib, setup_runs_s) = repeat_setup(opts, || Lib::setup(kind))?;
    let cells = lib.set.cells.len();
    let budget = Budget::start(opts);
    let mut rng = SplitMix64::new(opts.seed);
    let mut verdict = Verdict::default();
    let mut layers = Layers::default();
    let mut log = SpanLog::default();
    let mut notes = Vec::new();
    if opts.trace {
        lib.probes(opts, &mut layers, &mut verdict, &mut log);
    }

    let (mut plain, mut traced) = (Samples::new(cells, false), Samples::new(cells, false));
    let mut order: Vec<usize> = (0..cells).collect();
    // Self time of the layer spans against the duration of the `cell`
    // spans that enclose them.
    let (mut covered_us, mut cell_us) = (0.0, 0.0);
    while budget.more(plain.passes()) {
        let pass = plain.passes();
        shuffle(&mut order, &mut rng);
        lib.pass(&order, pass, None, &mut plain, &mut verdict);
        if opts.trace {
            let (mark, hits) = (log.mark(), lib.cache.hits);
            lib.pass(&order, pass, Some(&mut log), &mut traced, &mut verdict);
            let sums = log.sums_since(mark);
            layers.push_spans(&sums);
            layers.set("gpusim.memo_hits", (lib.cache.hits - hits) as f64);
            if kind != Kind::SuiteWarm {
                let groups = log.meta_sum_since(mark, "analysis.reuse", "reuse_groups");
                layers.set("analysis.reuse_groups", groups as f64);
            }
            for (name, s) in &sums {
                if *name == "cell" {
                    cell_us += s.dur_us;
                } else {
                    covered_us += s.self_us;
                }
            }
        }
    }

    if opts.trace {
        let set = &lib.set;
        layers.set("workloads.args_us", set.args_us);
        layers.set("workloads.check_us", set.check_us);
        if kind != Kind::SuiteWarm {
            set.push_compile_counters(&mut layers);
        }
        set.push_run_counters(&mut layers);
        if kind == Kind::CompileHeavy {
            // Nothing runs in the timed path; the oracle's run at the
            // small scale still gives the modelled speed-up.
            for m in [
                "runtime.h2d_bytes",
                "runtime.d2h_bytes",
                "gpusim.warp_insts",
            ] {
                layers.set(m, 0.0);
            }
        } else {
            let warp_insts = layers.get("gpusim.warp_insts");
            layers.set(
                "gpusim.ns_per_warp_inst",
                layers.get("gpusim.launch_us") * 1e3 / warp_insts,
            );
            // Warp-instructions per µs of `run` = 10^6 per second.
            layers.set(
                "gpusim.mwinst_per_s",
                warp_insts / layers.get("runtime.run_us"),
            );
        }
        notes.push(format!(
            "closure: layer self times cover {:.1}% of the traced cells' time",
            100.0 * covered_us / cell_us
        ));
        notes.push(log.write_for(kind.name())?);
    } else if kind == Kind::SuiteCold {
        check_fig7(&lib.set, &mut verdict, &mut notes);
    }

    let labels = (0..cells).map(|c| lib.set.label(c)).collect();
    Ok(outcome(
        kind.name(),
        opts,
        &plain,
        &traced,
        labels,
        setup_runs_s,
        verdict,
        layers,
        notes,
    ))
}
