//! The input set of a workload — programs × compiler profiles — and the
//! oracle every timed operation is checked against.
//!
//! The oracle is independent of the path under test: in set-up every
//! cell runs once through the library under the reference interpreter
//! and passes `Workload::check` (the pure-Rust reference); the digests
//! of its output arrays, its modelled cycles and its issued
//! warp-instructions are what each timed cell and each server reply
//! must reproduce. The warm-up pass repeats every cell on the path
//! under test and is verified the same way, so each exact counter is
//! computed at least twice before the first timed sample.

use crate::measure::{us_since, Layers};
use safara_core::gpusim::{Engine, ExecOptions, LaunchConfig};
use safara_core::{compile, Args, CompiledProgram, CompilerConfig, DeviceConfig, RunReport};
use safara_server::json::Json;
use safara_server::protocol::{digest, resolve_profile};
use safara_workloads::{Scale, Workload};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Cell {
    /// Index into [`CellSet::programs`].
    pub program: usize,
    /// Wire key of the compiler profile (`base`, `safara_only`, …).
    pub profile: &'static str,
    pub config: CompilerConfig,
}

/// What the oracle recorded for one cell.
pub struct Expected {
    pub compiled: CompiledProgram,
    pub digests: BTreeMap<String, String>,
    pub cycles: f64,
    pub warp_insts: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    /// Geometry of the first kernel launch, for the `launch_key` probe.
    pub first_launch: Option<LaunchConfig>,
    /// Time `Workload::check` took on this cell.
    pub check_us: f64,
}

pub struct CellSet {
    pub programs: Vec<Box<dyn Workload>>,
    pub sources: Vec<String>,
    /// Fresh arguments per program; cloned for every operation.
    pub args: Vec<Args>,
    pub cells: Vec<Cell>,
    pub expected: Vec<Expected>,
    /// Time spent in `Workload::args` / `Workload::check` during set-up.
    pub args_us: f64,
    pub check_us: f64,
}

pub fn digests(args: &Args) -> BTreeMap<String, String> {
    args.arrays
        .iter()
        .map(|(k, a)| (k.to_string(), digest(a)))
        .collect()
}

pub fn warp_insts(report: &RunReport) -> u64 {
    report.kernels.iter().map(|k| k.stats.total_issued()).sum()
}

/// Run one cell under the reference interpreter, check it against the
/// pure-Rust reference and record what it produced.
fn oracle(
    w: &dyn Workload,
    source: &str,
    args: &Args,
    cell: &Cell,
    scale: Scale,
) -> Result<Expected, String> {
    let fail = |e: &dyn std::fmt::Display| format!("oracle {}/{}: {e}", w.name(), cell.profile);
    let compiled = compile(source, &cell.config).map_err(|e| fail(&e))?;
    let mut out = args.clone();
    let report = ExecOptions::inherit()
        .engine(Engine::Reference)
        .scope(|| compiled.run(w.entry(), &mut out, &DeviceConfig::k20xm()))
        .map_err(|e| fail(&e))?;
    let t = Instant::now();
    w.check(&out, scale).map_err(|e| fail(&e))?;
    let check_us = us_since(t);
    Ok(Expected {
        compiled,
        digests: digests(&out),
        cycles: report.total_cycles(),
        warp_insts: warp_insts(&report),
        h2d_bytes: report.h2d_bytes,
        d2h_bytes: report.d2h_bytes,
        first_launch: report.kernels.first().map(|k| k.config),
        check_us,
    })
}

impl CellSet {
    /// Generate sources and arguments, then run the oracle.
    pub fn build(
        programs: Vec<Box<dyn Workload>>,
        profiles: &[&'static str],
        scale: Scale,
    ) -> Result<CellSet, String> {
        let sources: Vec<String> = programs.iter().map(|w| w.source()).collect();
        let t = Instant::now();
        let args: Vec<Args> = programs.iter().map(|w| w.args(scale)).collect();
        let args_us = us_since(t);
        let mut cells = Vec::new();
        for program in 0..programs.len() {
            for &profile in profiles {
                let config = resolve_profile(profile).map_err(|e| e.message)?;
                cells.push(Cell {
                    program,
                    profile,
                    config,
                });
            }
        }

        // One thread per core, cells dealt round-robin: the oracle's
        // reference-interpreter runs are most of the set-up time.
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let run = |i: usize| {
            let p = cells[i].program;
            oracle(
                programs[p].as_ref(),
                &sources[p],
                &args[p],
                &cells[i],
                scale,
            )
        };
        let mut results: Vec<(usize, Result<Expected, String>)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let mine = (t..cells.len()).step_by(threads);
                    s.spawn(|| mine.map(|i| (i, run(i))).collect::<Vec<_>>())
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("oracle thread panicked"))
                .collect()
        });
        results.sort_by_key(|(i, _)| *i);
        let expected = results
            .into_iter()
            .map(|(_, r)| r)
            .collect::<Result<Vec<_>, _>>()?;
        let check_us = expected.iter().map(|e| e.check_us).sum();
        Ok(CellSet {
            programs,
            sources,
            args,
            cells,
            expected,
            args_us,
            check_us,
        })
    }

    pub fn label(&self, cell: usize) -> String {
        let c = &self.cells[cell];
        format!("{}/{}", self.programs[c.program].name(), c.profile)
    }

    pub fn entry(&self, cell: usize) -> &'static str {
        self.programs[self.cells[cell].program].entry()
    }

    pub fn source(&self, cell: usize) -> &str {
        &self.sources[self.cells[cell].program]
    }

    pub fn fresh_args(&self, cell: usize) -> Args {
        self.args[self.cells[cell].program].clone()
    }

    /// A library run must reproduce the oracle's arrays and every
    /// simulated statistic.
    pub fn check_run(&self, cell: usize, report: &RunReport, out: &Args) -> Result<(), String> {
        if warp_insts(report) != self.expected[cell].warp_insts {
            return Err(format!(
                "{}: issued warp-instructions differ",
                self.label(cell)
            ));
        }
        self.check_outputs(cell, report.total_cycles(), out)
    }

    /// The part of [`CellSet::check_run`] a `RunOutcome` can answer.
    pub fn check_outputs(&self, cell: usize, cycles: f64, out: &Args) -> Result<(), String> {
        let e = &self.expected[cell];
        if cycles != e.cycles {
            return Err(format!(
                "{}: modelled cycles {cycles} != oracle {}",
                self.label(cell),
                e.cycles
            ));
        }
        if digests(out) != e.digests {
            return Err(format!("{}: output digests differ", self.label(cell)));
        }
        Ok(())
    }

    /// Exact counters of the compile layers, summed over cells.
    pub fn push_compile_counters(&self, layers: &mut Layers) {
        let functions = || self.expected.iter().flat_map(|e| &e.compiled.functions);
        let kernels = || functions().flat_map(|f| &f.kernels);
        let src: usize = (0..self.cells.len()).map(|c| self.source(c).len()).sum();
        layers.set("ir.src_bytes", src as f64);
        layers.set(
            "opt.feedback_rounds",
            functions().map(|f| f.feedback_rounds as f64).sum(),
        );
        layers.set(
            "opt.temps_added",
            functions().map(|f| f.sr_outcome.temps_added as f64).sum(),
        );
        layers.set(
            "codegen.vir_insts",
            kernels().map(|k| k.kernel.vir.insts.len() as f64).sum(),
        );
        layers.set(
            "gpusim.max_regs",
            functions().map(|f| f.max_regs() as f64).sum(),
        );
        layers.set(
            "gpusim.spill_bytes",
            kernels().map(|k| k.alloc.spill_bytes as f64).sum(),
        );
    }

    /// Exact counters of the run layers, summed over cells.
    pub fn push_run_counters(&self, layers: &mut Layers) {
        let sum = |f: fn(&Expected) -> u64| self.expected.iter().map(|e| f(e) as f64).sum();
        layers.set("runtime.h2d_bytes", sum(|e| e.h2d_bytes));
        layers.set("runtime.d2h_bytes", sum(|e| e.d2h_bytes));
        layers.set("gpusim.warp_insts", sum(|e| e.warp_insts));
        layers.set("model.speedup_geomean", self.model_speedup_geomean());
    }

    /// A server reply must be `ok`, echo the request id and carry the
    /// oracle's digests and cycles.
    pub fn check_reply(&self, cell: usize, reply: &Json) -> Result<(), String> {
        let e = &self.expected[cell];
        let label = self.label(cell);
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("{label}: reply not ok: {}", reply.dump()));
        }
        if reply.get("id").and_then(Json::as_i64) != Some(request_id(cell)) {
            return Err(format!("{label}: reply id mismatch"));
        }
        if reply.get("total_cycles").and_then(Json::as_f64) != Some(e.cycles) {
            return Err(format!("{label}: modelled cycles differ from oracle"));
        }
        let got: Option<BTreeMap<String, String>> =
            reply.get("digests").and_then(Json::as_obj).map(|fields| {
                fields
                    .iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or_default().to_string()))
                    .collect()
            });
        if got.as_ref() != Some(&e.digests) {
            return Err(format!("{label}: output digests differ"));
        }
        Ok(())
    }

    /// Geometric mean over programs of modelled cycles `base` ÷
    /// `safara_only` — simulated time, identical on every run.
    pub fn model_speedup_geomean(&self) -> f64 {
        let mut logs = Vec::new();
        for p in 0..self.programs.len() {
            let cycles = |profile: &str| {
                self.cells
                    .iter()
                    .position(|c| c.program == p && c.profile == profile)
                    .map(|i| self.expected[i].cycles)
            };
            if let (Some(base), Some(safara)) = (cycles("base"), cycles("safara_only")) {
                logs.push((base / safara).ln());
            }
        }
        if logs.is_empty() {
            return 0.0;
        }
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// The id a cell's request line carries.
pub fn request_id(cell: usize) -> i64 {
    cell as i64 + 1
}
