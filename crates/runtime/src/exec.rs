//! Function execution: marshaling, launch geometry, reductions, timing.

use crate::args::{ArgValue, Args};
use safara_codegen::abi::{AbiParam, DimOwner};
use safara_codegen::lower::{CompiledKernel, MappedLoopSpec};
use safara_gpusim::device::DeviceConfig;
use safara_gpusim::interp::{launch, LaunchConfig, ParamVal};
use safara_gpusim::memo::{launch_cached, LaunchCache, SharedLaunchCache};
use safara_gpusim::memory::{BufferId, DeviceMemory};
use safara_gpusim::ptxas::{RegAllocReport, SpillTarget};
use safara_gpusim::stats::KernelStats;
use safara_gpusim::timing::{estimate_time_with, TimingBreakdown};
use safara_ir::*;
use safara_obs::Tracer;
use std::collections::BTreeMap;
use std::fmt;

/// Runtime errors.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeError {
    /// Human-readable message.
    pub message: String,
}

impl RuntimeError {
    fn new(m: impl Into<String>) -> Self {
        RuntimeError { message: m.into() }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// Per-kernel outcome of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// Kernel name.
    pub name: String,
    /// Launch geometry used.
    pub config: LaunchConfig,
    /// Hardware registers per thread (from the PTXAS-sim report).
    pub regs_used: u32,
    /// Dynamic statistics.
    pub stats: KernelStats,
    /// Modelled time.
    pub timing: TimingBreakdown,
}

/// The outcome of a function run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// One entry per kernel launch, in execution order.
    pub kernels: Vec<KernelRun>,
    /// Bytes uploaded host→device.
    pub h2d_bytes: u64,
    /// Bytes downloaded device→host.
    pub d2h_bytes: u64,
}

impl RunReport {
    /// Sum of modelled kernel cycles.
    pub fn total_cycles(&self) -> f64 {
        self.kernels.iter().map(|k| k.timing.total_cycles).sum()
    }
}

/// How a run's launches consult the launch memo ([`safara_gpusim::memo`]):
/// a hit replays the recorded stats and buffers for a content key (VIR,
/// spills, geometry, params, input buffers) seen before.
pub enum Memo<'a> {
    /// Simulate every launch.
    Off,
    /// Memoize through a cache this caller owns.
    Local(&'a mut LaunchCache),
    /// Memoize through a thread-shared cache — the long-lived-service
    /// path: many concurrent runs amortize into one process-wide cache.
    Shared(&'a SharedLaunchCache),
}

/// Execute all offload kernels of `func` against `args`, recording
/// `h2d` → one `launch` per kernel (with cache hit/miss metadata) →
/// `d2h` spans into `tracer` (a disabled tracer records nothing).
///
/// `compiled` pairs each kernel with its register-allocation report (the
/// compiler driver produces both), in launch order, by reference; the
/// report supplies the register count for occupancy and the spill set
/// for local-traffic accounting.
pub fn run_function<'k>(
    dev: &DeviceConfig,
    func: &Function,
    compiled: impl IntoIterator<Item = (&'k CompiledKernel, &'k RegAllocReport)>,
    args: &mut Args,
    mut memo: Memo<'_>,
    tracer: &mut Tracer,
) -> Result<RunReport, RuntimeError> {
    // ---- resolve array shapes and upload -------------------------------
    let scalar_env = build_scalar_env(func, args)?;
    let mut mem = DeviceMemory::new();
    let mut buffers: BTreeMap<Ident, BufferId> = BTreeMap::new();
    let mut report = RunReport::default();

    tracer.begin("h2d");
    let mut resolved_dims: BTreeMap<Ident, Vec<(i64, i64)>> = BTreeMap::new();
    for p in &func.params {
        if let Param::Array { name, ty, .. } = p {
            let host = args
                .arrays
                .get(name)
                .ok_or_else(|| RuntimeError::new(format!("missing array argument `{name}`")))?;
            if host.elem != ty.elem {
                return Err(RuntimeError::new(format!(
                    "array `{name}` element type mismatch: declared {}, bound {}",
                    ty.elem, host.elem
                )));
            }
            let dims = resolve_dims(ty, &scalar_env)
                .map_err(|m| RuntimeError::new(format!("array `{name}`: {m}")))?;
            // Extents come from request scalars: their product can leave
            // `i64`, and no host array is that long.
            let elems = dims.iter().try_fold(1i64, |n, (_, e)| n.checked_mul(*e));
            if elems != i64::try_from(host.len()).ok() {
                let gives = elems.map_or("more than i64::MAX".into(), |n| n.to_string());
                return Err(RuntimeError::new(format!(
                    "array `{name}` size mismatch: dims give {gives} elements, host data has {}",
                    host.len()
                )));
            }
            // Shares the host's allocation: a buffer is copied only if
            // a kernel stores to it.
            let id = mem.alloc_shared(host.bytes.clone());
            report.h2d_bytes += host.bytes.len() as u64;
            buffers.insert(name.clone(), id);
            resolved_dims.insert(name.clone(), dims);
        }
    }
    tracer.meta_int("bytes", report.h2d_bytes as i64);
    tracer.meta_int("buffers", buffers.len() as i64);
    tracer.end();

    // ---- launch each kernel --------------------------------------------
    for (kernel, alloc) in compiled {
        tracer.begin("launch");
        tracer.meta_str("kernel", kernel.name.as_str());
        let config = launch_geometry(dev, kernel, &scalar_env).inspect_err(|_| tracer.end())?;
        // Reduction slots: allocate + seed with the current scalar value.
        let mut red_bufs: Vec<(Ident, ScalarTy, BufferId)> = Vec::new();
        let mut params: Vec<ParamVal> = Vec::with_capacity(kernel.abi.params.len());
        for p in &kernel.abi.params {
            params.push(match p {
                AbiParam::Scalar { name, ty } => {
                    let v = scalar_env
                        .get(name)
                        .ok_or_else(|| RuntimeError::new(format!("missing scalar `{name}`")))?;
                    match ty {
                        ScalarTy::I32 => ParamVal::I32(v.as_i64() as i32),
                        ScalarTy::I64 => ParamVal::I64(v.as_i64()),
                        ScalarTy::F32 => ParamVal::F32(v.as_f64() as f32),
                        ScalarTy::F64 => ParamVal::F64(v.as_f64()),
                    }
                }
                AbiParam::ArrayBase { array } => {
                    let id = buffers
                        .get(array)
                        .ok_or_else(|| RuntimeError::new(format!("no buffer for `{array}`")))?;
                    ParamVal::Ptr(mem.base_addr(*id))
                }
                AbiParam::DimExtent { owner, dim } => {
                    let arr = owner_array(owner, kernel)?;
                    let dims = resolved_dims
                        .get(&arr)
                        .ok_or_else(|| RuntimeError::new(format!("no dims for `{arr}`")))?;
                    ParamVal::I32(dims[*dim].1 as i32)
                }
                AbiParam::DimLower { owner, dim } => {
                    let arr = owner_array(owner, kernel)?;
                    let dims = resolved_dims
                        .get(&arr)
                        .ok_or_else(|| RuntimeError::new(format!("no dims for `{arr}`")))?;
                    // A request's `long` may not fit the kernel's `int`. (An
                    // extent does: it is at most the host array's length.)
                    let lower = dims[*dim].0;
                    ParamVal::I32(i32::try_from(lower).map_err(|_| {
                        RuntimeError::new(format!(
                            "array `{arr}`: lower bound {lower} does not fit the kernel's `int`"
                        ))
                    })?)
                }
                AbiParam::ReductionSlot { var, ty, .. } => {
                    let id = mem.alloc(ty.size_bytes() as usize);
                    let seed = scalar_env
                        .get(var)
                        .copied()
                        .unwrap_or(ArgValue::F64(0.0));
                    match ty {
                        ScalarTy::F32 => mem.copy_in_f32(id, &[seed.as_f64() as f32]),
                        ScalarTy::F64 => mem.copy_in_f64(id, &[seed.as_f64()]),
                        ScalarTy::I32 => mem.copy_in_i32(id, &[seed.as_i64() as i32]),
                        ScalarTy::I64 => {
                            let b = (seed.as_i64() as u64).to_le_bytes();
                            mem.copy_in(id, &b);
                        }
                    }
                    red_bufs.push((var.clone(), *ty, id));
                    ParamVal::Ptr(mem.base_addr(id))
                }
            });
        }

        // Snapshot the superblock engine's fusion counters so the span
        // can carry this launch's deltas. The counters are process-wide,
        // so concurrent launches on other threads can inflate a delta —
        // they are observability, not an exact accounting.
        let engine = safara_gpusim::current_engine();
        let fusion_before = (tracer.is_enabled()
            && engine == safara_gpusim::interp::Engine::Superblock)
            .then(safara_gpusim::superblock::fusion_counters);
        let (result, cache_note) = match &mut memo {
            Memo::Off => {
                (launch(&kernel.vir, &config, &params, &mut mem, &alloc.spilled), "uncached")
            }
            Memo::Local(c) => {
                let hits_before = c.hits;
                let r = launch_cached(c, kernel, &config, &params, &mut mem, &alloc.spilled);
                (r, if c.hits > hits_before { "hit" } else { "miss" })
            }
            Memo::Shared(s) => {
                match s.launch_cached_info(kernel, &config, &params, &mut mem, &alloc.spilled)
                {
                    Ok((r, hit)) => (Ok(r), if hit { "hit" } else { "miss" }),
                    Err(e) => (Err(e), "miss"),
                }
            }
        };
        tracer.meta_str("cache", cache_note);
        tracer.meta_str("engine", engine.name());
        if let Some(before) = fusion_before {
            let fc = safara_gpusim::superblock::fusion_counters();
            tracer.meta_int("sb_hot_blocks", (fc.hot_blocks - before.hot_blocks) as i64);
            tracer.meta_int("sb_superblocks", (fc.superblocks - before.superblocks) as i64);
            tracer.meta_int("sb_fused_blocks", (fc.fused_blocks - before.fused_blocks) as i64);
            tracer.meta_int("sb_hoisted", (fc.hoisted - before.hoisted) as i64);
            tracer.meta_int("sb_scalar_execs", (fc.scalar_execs - before.scalar_execs) as i64);
            tracer.meta_int("sb_vector_execs", (fc.vector_execs - before.vector_execs) as i64);
            tracer.meta_int("sb_trig_pairs", (fc.trig_pairs - before.trig_pairs) as i64);
            tracer.meta_int("sb_peels", (fc.peels - before.peels) as i64);
            tracer.meta_int(
                "sb_groups_accounted",
                (fc.groups_accounted - before.groups_accounted) as i64,
            );
            tracer.meta_int(
                "sb_lane_events_logged",
                (fc.lane_events_logged - before.lane_events_logged) as i64,
            );
        }
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                tracer.end();
                return Err(RuntimeError::new(format!("kernel `{}`: {e}", kernel.name)));
            }
        };
        // Under a shared spill slab every spill touch is a shared-memory
        // access, not a local one. The engines (and the memo cache) count
        // spill traffic as `local_accesses` regardless of target —
        // compiled kernels never address local memory otherwise — so the
        // reclassification here is exact, and cache hits and misses agree.
        let mut stats = result.stats;
        if alloc.spill_target == SpillTarget::Shared {
            stats.shared_accesses += stats.local_accesses;
            stats.local_accesses = 0;
        }
        let timing = estimate_time_with(
            dev,
            &stats,
            alloc.regs_used.max(16),
            config.threads_per_block(),
            alloc.shared_spill_bytes_per_block,
        );
        tracer.meta_int("regs_used", alloc.regs_used as i64);
        tracer.meta_float("cycles", timing.total_cycles);
        report.kernels.push(KernelRun {
            name: kernel.name.clone(),
            config,
            regs_used: alloc.regs_used,
            stats,
            timing,
        });

        // Read back reductions into the live scalar bindings so later
        // kernels (and the caller) see the combined value.
        for (var, ty, id) in red_bufs {
            let v = match ty {
                ScalarTy::F32 => ArgValue::F32(mem.copy_out_f32(id)[0]),
                ScalarTy::F64 => ArgValue::F64(mem.copy_out_f64(id)[0]),
                ScalarTy::I32 => ArgValue::I32(mem.copy_out_i32(id)[0]),
                ScalarTy::I64 => {
                    let b = mem.copy_out(id);
                    ArgValue::I64(i64::from_le_bytes(b[..8].try_into().expect("8 bytes")))
                }
            };
            args.scalars.insert(var.clone(), v);
        }
        tracer.end();
    }

    // ---- download results ----------------------------------------------
    tracer.begin("d2h");
    for (name, id) in &buffers {
        // The device's allocation itself: an unwritten array comes back
        // as the one that went in, a replayed one as the memo's snapshot.
        let bytes = mem.share(*id);
        report.d2h_bytes += bytes.len() as u64;
        if let Some(host) = args.arrays.get_mut(name) {
            host.bytes = bytes;
        }
    }
    tracer.meta_int("bytes", report.d2h_bytes as i64);
    tracer.end();
    Ok(report)
}

/// [`run_function`] with the memo spelled as an optional shared cache.
pub fn run_function_traced(
    dev: &DeviceConfig,
    func: &Function,
    compiled: &[(CompiledKernel, RegAllocReport)],
    args: &mut Args,
    cache: Option<&SharedLaunchCache>,
    tracer: &mut Tracer,
) -> Result<RunReport, RuntimeError> {
    let memo = cache.map_or(Memo::Off, Memo::Shared);
    run_function(dev, func, compiled.iter().map(|(k, a)| (k, a)), args, memo, tracer)
}

fn owner_array(owner: &DimOwner, kernel: &CompiledKernel) -> Result<Ident, RuntimeError> {
    match owner {
        DimOwner::Array(a) => Ok(a.clone()),
        DimOwner::Group(g) => kernel
            .dim_groups
            .get(*g)
            .and_then(|arrays| arrays.first())
            .cloned()
            .ok_or_else(|| RuntimeError::new(format!("dim group {g} has no members"))),
    }
}

fn build_scalar_env(
    func: &Function,
    args: &Args,
) -> Result<BTreeMap<Ident, ArgValue>, RuntimeError> {
    let mut env = BTreeMap::new();
    for p in &func.params {
        if let Param::Scalar { name, ty } = p {
            let v = args
                .scalars
                .get(name)
                .copied()
                .ok_or_else(|| RuntimeError::new(format!("missing scalar argument `{name}`")))?;
            // Normalize to the declared type. A float bound to an `int`
            // truncates as in C; an integer `int` cannot hold is an error.
            let v = match ty {
                ScalarTy::I32 => ArgValue::I32(match v {
                    ArgValue::I64(i) => i32::try_from(i).map_err(|_| {
                        RuntimeError::new(format!("scalar `{name}` = {i} does not fit `int`"))
                    })?,
                    _ => v.as_i64() as i32,
                }),
                ScalarTy::I64 => ArgValue::I64(v.as_i64()),
                ScalarTy::F32 => ArgValue::F32(v.as_f64() as f32),
                ScalarTy::F64 => ArgValue::F64(v.as_f64()),
            };
            env.insert(name.clone(), v);
        }
    }
    Ok(env)
}

fn resolve_dims(
    ty: &ArrayTy,
    env: &BTreeMap<Ident, ArgValue>,
) -> Result<Vec<(i64, i64)>, String> {
    ty.dims
        .iter()
        .map(|d| {
            let lb = match &d.lower {
                None => 0,
                Some(e) => eval_i64(e, env)?,
            };
            let ext = match &d.extent {
                Extent::Const(c) => *c,
                Extent::Dynamic(e) => eval_i64(e, env)?,
            };
            if ext <= 0 {
                return Err(format!("non-positive extent {ext}"));
            }
            Ok((lb, ext))
        })
        .collect()
}

/// Evaluate an integer expression over the host scalar environment. The
/// operands are request scalars, so arithmetic that leaves `i64` is an
/// error, not a wrap or a panic.
pub fn eval_i64(e: &Expr, env: &BTreeMap<Ident, ArgValue>) -> Result<i64, String> {
    let overflow = |what: String| format!("{what} overflows i64 in host expression");
    Ok(match e {
        Expr::IntLit(v) => *v,
        Expr::FloatLit(v) => *v as i64,
        Expr::Var(v) => env.get(v).ok_or_else(|| format!("unbound scalar `{v}`"))?.as_i64(),
        Expr::Unary(UnOp::Neg, inner) => {
            let a = eval_i64(inner, env)?;
            a.checked_neg().ok_or_else(|| overflow(format!("-({a})")))?
        }
        Expr::Unary(UnOp::Not, inner) => i64::from(eval_i64(inner, env)? == 0),
        Expr::Binary(op, l, r) => {
            let (a, b) = (eval_i64(l, env)?, eval_i64(r, env)?);
            let checked =
                |v: Option<i64>, sym: &str| v.ok_or_else(|| overflow(format!("{a} {sym} {b}")));
            match op {
                BinOp::Add => checked(a.checked_add(b), "+")?,
                BinOp::Sub => checked(a.checked_sub(b), "-")?,
                BinOp::Mul => checked(a.checked_mul(b), "*")?,
                BinOp::Div => {
                    if b == 0 {
                        return Err("division by zero in host expression".into());
                    }
                    checked(a.checked_div(b), "/")?
                }
                BinOp::Rem => {
                    if b == 0 {
                        return Err("remainder by zero in host expression".into());
                    }
                    checked(a.checked_rem(b), "%")?
                }
                BinOp::Shl => {
                    if !(0..64).contains(&b) {
                        return Err(format!("shift count {b} out of range in host expression"));
                    }
                    a.wrapping_shl(b as u32)
                }
                BinOp::Lt => i64::from(a < b),
                BinOp::Le => i64::from(a <= b),
                BinOp::Gt => i64::from(a > b),
                BinOp::Ge => i64::from(a >= b),
                BinOp::Eq => i64::from(a == b),
                BinOp::Ne => i64::from(a != b),
                BinOp::And => i64::from(a != 0 && b != 0),
                BinOp::Or => i64::from(a != 0 || b != 0),
            }
        }
        Expr::Call(intr, args) => {
            let vals: Vec<i64> = args
                .iter()
                .map(|a| eval_i64(a, env))
                .collect::<Result<_, _>>()?;
            match intr {
                Intrinsic::Min => vals[0].min(vals[1]),
                Intrinsic::Max => vals[0].max(vals[1]),
                Intrinsic::Abs => {
                    vals[0].checked_abs().ok_or_else(|| overflow(format!("abs({})", vals[0])))?
                }
                other => return Err(format!("`{}` not usable in host expressions", other.name())),
            }
        }
        Expr::Cast(_, inner) => eval_i64(inner, env)?,
        Expr::ArrayRef(_) => return Err("array reference in host expression".into()),
    })
}

/// Trip count of a mapped loop given its spec. The bounds come from
/// request scalars, so the span is taken in `i128`, where no two `i64`s
/// overflow; only a loop of 2^64 iterations has no `u64` count.
fn trip_count(spec: &MappedLoopSpec, env: &BTreeMap<Ident, ArgValue>) -> Result<u64, RuntimeError> {
    let lo = i128::from(eval_i64(&spec.lo, env).map_err(RuntimeError::new)?);
    let bound = i128::from(eval_i64(&spec.bound, env).map_err(RuntimeError::new)?);
    let span = match spec.cmp {
        LoopCmp::Lt => bound - lo,
        LoopCmp::Le => bound - lo + 1,
        LoopCmp::Gt => lo - bound,
        LoopCmp::Ge => lo - bound + 1,
    };
    if span <= 0 {
        return Ok(0);
    }
    let trip = span.unsigned_abs().div_ceil(u128::from(spec.step.unsigned_abs()));
    u64::try_from(trip).map_err(|_| {
        let var = &spec.var;
        RuntimeError::new(format!("loop over `{var}` runs {trip} iterations, more than u64::MAX"))
    })
}

/// Blocks of `block` threads that cover `trip` iterations (at least one
/// block): an error, not a truncation, when the count leaves `u32`.
fn grid_for(kernel: &CompiledKernel, trip: u64, block: u32) -> Result<u32, RuntimeError> {
    let blocks = trip.max(1).div_ceil(u64::from(block));
    u32::try_from(blocks).map_err(|_| {
        RuntimeError::new(format!(
            "kernel `{}`: {trip} iterations need {blocks} blocks of {block} threads, \
             more than u32::MAX",
            kernel.name
        ))
    })
}

/// Compute the launch geometry for a kernel: the block from
/// [`CompiledKernel::block_shape`] with its `vector` clauses evaluated
/// here, grid sizes from trip counts.
fn launch_geometry(
    dev: &DeviceConfig,
    kernel: &CompiledKernel,
    env: &BTreeMap<Ident, ArgValue>,
) -> Result<LaunchConfig, RuntimeError> {
    let mut trip = [0u64; 3];
    for (d, spec) in kernel.mapped.iter().take(3).enumerate() {
        trip[d] = trip_count(spec, env)?;
    }
    let block = kernel.block_shape(dev, |e| eval_i64(e, env).map(Some).map_err(RuntimeError::new))?;
    Ok(LaunchConfig {
        grid: (
            grid_for(kernel, trip[0], block.0)?,
            grid_for(kernel, trip[1], block.1)?,
            grid_for(kernel, trip[2], block.2)?,
        ),
        block,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_codegen::{lower_function, CodegenOptions};
    use safara_gpusim::ptxas::allocate_registers;
    use safara_gpusim::SharedBytes;
    use safara_ir::parse_program;

    fn run_plain(
        dev: &DeviceConfig,
        func: &Function,
        compiled: &[(CompiledKernel, RegAllocReport)],
        args: &mut Args,
    ) -> Result<RunReport, RuntimeError> {
        let compiled = compiled.iter().map(|(k, a)| (k, a));
        run_function(dev, func, compiled, args, Memo::Off, &mut Tracer::disabled())
    }

    fn compile_all(src: &str, opts: &CodegenOptions) -> (Function, Vec<(CompiledKernel, RegAllocReport)>) {
        let p = parse_program(src).unwrap();
        let f = p.functions[0].clone();
        let kernels = lower_function(&f, opts).unwrap();
        let compiled = kernels
            .into_iter()
            .map(|k| {
                let rep = allocate_registers(&k.vir, 255);
                (k, rep)
            })
            .collect();
        (f, compiled)
    }

    #[test]
    fn axpy_end_to_end() {
        let src = r#"
        void axpy(int n, float alpha, const float x[n], float y[n]) {
          #pragma acc kernels copyin(x) copy(y)
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              y[i] = y[i] + alpha * x[i];
            }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let n = 1000;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let y: Vec<f32> = (0..n).map(|i| (i * 2) as f32).collect();
        let mut args = Args::new().i32("n", n as i32).f32("alpha", 3.0).array_f32("x", &x).array_f32("y", &y);
        let dev = DeviceConfig::k20xm();
        let report = run_plain(&dev, &f, &compiled, &mut args).unwrap();
        let out = args.array("y").unwrap().as_f32();
        for i in 0..n {
            assert_eq!(out[i], y[i] + 3.0 * x[i], "i={i}");
        }
        assert_eq!(report.kernels.len(), 1);
        assert!(report.total_cycles() > 0.0);
        assert!(report.h2d_bytes > 0 && report.d2h_bytes > 0);
    }

    /// `y` is stored to; `x` and `z` are only read.
    const SCALE: &str = r#"
        void scale(int n, const float x[n], float y[n], const float z[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { y[i] = x[i] * z[i]; }
          }
        }"#;

    fn scale_args() -> Args {
        let ramp: Vec<f32> = (0..100).map(|i| i as f32).collect();
        Args::new().i32("n", 100).array_f32("x", &ramp).array_f32("y", &[0.0; 100]).array_f32("z", &ramp)
    }

    /// Which of `after`'s arrays are still the allocation `before` held.
    fn shared_back(before: &Args, after: &Args) -> Vec<&'static str> {
        ["x", "y", "z"]
            .into_iter()
            .filter(|n| SharedBytes::ptr_eq(&before.array(n).unwrap().bytes, &after.array(n).unwrap().bytes))
            .collect()
    }

    #[test]
    fn a_run_without_memo_shares_every_unwritten_input_back() {
        let (f, compiled) = compile_all(SCALE, &CodegenOptions::default());
        let input = scale_args();
        let mut args = input.clone();
        run_plain(&DeviceConfig::k20xm(), &f, &compiled, &mut args).unwrap();
        assert_eq!(shared_back(&input, &args), ["x", "z"]);
        assert_eq!(args.array("y").unwrap().as_f32()[7], 49.0);
        assert_eq!(input.array("y").unwrap().as_f32(), [0.0; 100], "the caller's `y` is not written");
    }

    #[test]
    fn a_memo_miss_copies_exactly_the_buffers_the_kernel_stores_to() {
        let (f, compiled) = compile_all(SCALE, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let mut cache = LaunchCache::new();
        let mut run = |args: &mut Args| {
            let compiled = compiled.iter().map(|(k, a)| (k, a));
            run_function(&dev, &f, compiled, args, Memo::Local(&mut cache), &mut Tracer::disabled())
                .unwrap()
        };
        let input = scale_args();
        let mut missed = input.clone();
        run(&mut missed);
        assert_eq!(shared_back(&input, &missed), ["x", "z"]);
        // A hit installs the snapshot the miss recorded and handed out.
        let mut hit = input.clone();
        run(&mut hit);
        assert_eq!(shared_back(&missed, &hit), ["x", "y", "z"]);
        assert_eq!((cache.hits, cache.misses), (1, 1));
    }

    #[test]
    fn two_dim_kernel_runs() {
        let src = r#"
        void transpose(int n, const float a[n][n], float b[n][n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang
            for (int j = 0; j < n; j++) {
              #pragma acc loop vector
              for (int i = 0; i < n; i++) {
                b[i][j] = a[j][i];
              }
            }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let n = 33usize; // deliberately not a multiple of the block size
        let a: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
        let b = vec![0.0f32; n * n];
        let mut args = Args::new().i32("n", n as i32).array_f32("a", &a).array_f32("b", &b);
        let dev = DeviceConfig::k20xm();
        run_plain(&dev, &f, &compiled, &mut args).unwrap();
        let out = args.array("b").unwrap().as_f32();
        for j in 0..n {
            for i in 0..n {
                assert_eq!(out[i * n + j], a[j * n + i], "({j},{i})");
            }
        }
    }

    #[test]
    fn reduction_combines_with_host_seed() {
        let src = r#"
        void total(int n, const float x[n], float s) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector reduction(+:s)
            for (int i = 0; i < n; i++) { s += x[i]; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let n = 500;
        let x = vec![1.0f32; n];
        let mut args = Args::new().i32("n", n as i32).f32("s", 10.0).array_f32("x", &x);
        let dev = DeviceConfig::k20xm();
        run_plain(&dev, &f, &compiled, &mut args).unwrap();
        match args.scalar("s") {
            Some(ArgValue::F32(v)) => assert_eq!(v, 10.0 + n as f32),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fortran_lower_bounds_roundtrip() {
        // Fortran-style arrays with lower bound 1 (as in 355.seismic).
        let src = r#"
        void shift(int n, const float a[1:n], float b[1:n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 1; i <= n; i++) {
              b[i] = a[i] * 2.0;
            }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let n = 100;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let b = vec![0.0f32; n];
        let mut args = Args::new().i32("n", n as i32).array_f32("a", &a).array_f32("b", &b);
        let dev = DeviceConfig::k20xm();
        run_plain(&dev, &f, &compiled, &mut args).unwrap();
        let out = args.array("b").unwrap().as_f32();
        for i in 0..n {
            assert_eq!(out[i], a[i] * 2.0);
        }
    }

    #[test]
    fn missing_argument_reported() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = 0.0; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let mut args = Args::new().i32("n", 8);
        let err = run_plain(&dev, &f, &compiled, &mut args).unwrap_err();
        assert!(err.message.contains("missing array"), "{err}");
    }

    #[test]
    fn size_mismatch_reported() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = 0.0; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let mut args = Args::new().i32("n", 8).array_f32("a", &[0.0; 4]);
        let err = run_plain(&dev, &f, &compiled, &mut args).unwrap_err();
        assert!(err.message.contains("size mismatch"), "{err}");
    }

    #[test]
    fn an_extent_product_beyond_i64_is_a_size_mismatch() {
        // 2^22 cubed is 2^66: wrapped, the product is 0 and an empty
        // host array used to "match" it.
        let src = r#"
        void f(int n, float a[n][n][n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i][0][0] = 0.0; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        for host in [&[][..], &[0.0; 4]] {
            let mut args = Args::new().i32("n", 1 << 22).array_f32("a", host);
            let err = run_plain(&dev, &f, &compiled, &mut args).unwrap_err();
            assert_eq!(
                err.message,
                format!(
                    "array `a` size mismatch: dims give more than i64::MAX elements, \
                     host data has {}",
                    host.len()
                )
            );
        }
    }

    #[test]
    fn a_grid_beyond_u32_is_an_error_not_a_truncation() {
        // 2^39 + 128 iterations in blocks of 128 is 2^32 + 1 blocks: cast
        // to `u32`, the grid was one block and the sum read 128.
        let src = r#"
        void f(long n, float s) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector reduction(+:s)
            for (int i = 0; i < n; i++) { s += 1.0; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let mut args = Args::new().i64("n", (1 << 39) + 128).f32("s", 0.0);
        let err = run_plain(&dev, &f, &compiled, &mut args).unwrap_err();
        assert_eq!(
            err.message,
            "kernel `f_k0`: 549755814016 iterations need 4294967297 blocks of 128 threads, \
             more than u32::MAX"
        );
    }

    #[test]
    fn a_loop_span_beyond_i64_is_an_error_not_a_wrap() {
        // `n - lo` is 2^63 + 2^40: in `i64` it panicked in debug builds and
        // wrapped to a negative span, hence an empty loop, in release.
        let src = r#"
        void f(long lo, long n, float s) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector reduction(+:s)
            for (int i = lo; i < n; i++) { s += 1.0; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let mut args = Args::new().i64("lo", i64::MIN).i64("n", 1 << 40).f32("s", 0.0);
        let err = run_plain(&dev, &f, &compiled, &mut args).unwrap_err();
        assert_eq!(
            err.message,
            "kernel `f_k0`: 9223373136366403584 iterations need 72057602627862528 blocks of \
             128 threads, more than u32::MAX"
        );
    }

    /// A host expression over request scalars: `f(n, m)` runs one
    /// reduction loop bounded by `bound`, or says why it cannot.
    fn run_bounded_by(bound: &str, n: i64, m: i64) -> Result<f32, RuntimeError> {
        let src = format!(
            "void f(long n, long m, float s) {{
              #pragma acc kernels
              {{
                #pragma acc loop gang vector reduction(+:s)
                for (int i = 0; i < {bound}; i++) {{ s += 1.0; }}
              }}
            }}"
        );
        let (f, compiled) = compile_all(&src, &CodegenOptions::default());
        let mut args = Args::new().i64("n", n).i64("m", m).f32("s", 0.0);
        run_plain(&DeviceConfig::k20xm(), &f, &compiled, &mut args)?;
        match args.scalar("s") {
            Some(ArgValue::F32(s)) => Ok(s),
            other => panic!("`s` after the run: {other:?}"),
        }
    }

    #[test]
    fn a_host_quotient_beyond_i64_is_an_error_not_a_panic() {
        // i64::MIN / -1 is 2^63: unchecked, it panicked in every build.
        let err = run_bounded_by("n / m", i64::MIN, -1).unwrap_err();
        assert_eq!(
            err.message,
            "-9223372036854775808 / -1 overflows i64 in host expression"
        );
        assert_eq!(run_bounded_by("n / m", 1000, 10).unwrap(), 100.0);
    }

    #[test]
    fn a_host_sum_beyond_i64_is_an_error_not_a_wrap() {
        // i64::MAX + 130 wrapped to i64::MIN + 129 in release, and the
        // launch ran and returned `ok` with s = 128.
        let err = run_bounded_by("n + m", i64::MAX, 130).unwrap_err();
        assert_eq!(
            err.message,
            "9223372036854775807 + 130 overflows i64 in host expression"
        );
        assert_eq!(run_bounded_by("n + m", 100, 30).unwrap(), 130.0);
    }

    #[test]
    fn an_int_scalar_beyond_i32_is_an_error_not_a_wrap() {
        // 2^32 + 8 wrapped to 8: the kernel doubled all eight elements
        // and answered `ok`.
        let src = r#"
        void dbl(int n, float x[n]) {
          #pragma acc kernels copy(x)
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let mut args = Args::new().i64("n", (1 << 32) + 8).array_f32("x", &[1.0; 8]);
        let err = run_plain(&dev, &f, &compiled, &mut args).unwrap_err();
        assert_eq!(err.message, "scalar `n` = 4294967304 does not fit `int`");
        // A float bound to an `int` still truncates, as in C.
        let mut args = Args::new().f64("n", 8.9).array_f32("x", &[1.0; 8]);
        run_plain(&dev, &f, &compiled, &mut args).unwrap();
        assert_eq!(args.array("x").unwrap().as_f32(), [2.0; 8]);
    }

    #[test]
    fn a_lower_bound_beyond_i32_is_an_error_not_a_wrap() {
        // `a[0]` lies below a lower bound of 5, so that run faults; a
        // lower bound of 2^32 wrapped to 0 and the same run answered `ok`.
        let src = r#"
        void f(long lo, int n, float a[lo:n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = 1.0; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let run = |lo: i64| {
            let mut args = Args::new().i64("lo", lo).i32("n", 8).array_f32("a", &[0.0; 8]);
            run_plain(&dev, &f, &compiled, &mut args)
        };
        assert!(run(0).is_ok());
        assert!(run(5).unwrap_err().message.starts_with("kernel `f_k0`: "), "a memory fault");
        assert_eq!(
            run(1 << 32).unwrap_err().message,
            "array `a`: lower bound 4294967296 does not fit the kernel's `int`"
        );
    }

    #[test]
    fn vector_clause_controls_block_size() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector(64)
            for (int i = 0; i < n; i++) { a[i] = 1.0; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let mut args = Args::new().i32("n", 256).array_f32("a", &[0.0; 256]);
        let report = run_plain(&dev, &f, &compiled, &mut args).unwrap();
        assert_eq!(report.kernels[0].config.block.0, 64);
        assert_eq!(report.kernels[0].config.grid.0, 4);
    }

    #[test]
    fn seq_only_kernel_runs_single_thread() {
        let src = r#"
        void init(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop seq
            for (int i = 0; i < n; i++) { a[i] = (float) i; }
          }
        }"#;
        let (f, compiled) = compile_all(src, &CodegenOptions::default());
        let dev = DeviceConfig::k20xm();
        let mut args = Args::new().i32("n", 16).array_f32("a", &[0.0; 16]);
        let report = run_plain(&dev, &f, &compiled, &mut args).unwrap();
        assert_eq!(report.kernels[0].config.total_threads(), 1);
        let out = args.array("a").unwrap().as_f32();
        assert_eq!(out[7], 7.0);
    }
}
