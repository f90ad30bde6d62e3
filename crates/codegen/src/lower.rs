//! The VIR emitter: lowers each loop nest of an offload region into one
//! device kernel.
//!
//! Layout of an emitted kernel:
//!
//! ```text
//! entry:   ld.param for every used scalar / array base / dope value
//!          reduction accumulators ← identity
//!          gidx_d = ctaid.d * ntid.d + tid.d          (per mapped dim)
//!          var_d  = lo_d + gidx_d * step_d
//!          guard: @!(var_d cmp bound_d) bra EXIT      (per mapped dim)
//! body:    lowered statements (seq loops become branches)
//! EXIT:    atom.add reduction slots
//!          ret
//! ```
//!
//! Offset lowering implements the paper's two clauses: `small` switches
//! the subscript arithmetic type from `b64` to `b32`, and `dim` makes
//! grouped arrays share dope scalars so the emission-time value numbering
//! collapses their offset expressions into one.

use crate::abi::{AbiParam, DimOwner, KernelAbi};
use crate::{CodegenError, CodegenOptions};
use safara_analysis::memspace::{classify_arrays_in, ArrayUsage};
use safara_analysis::region::{RegionInfo, ThreadDim};
use safara_analysis::ArraySpace;
use safara_gpusim::content::{ContentHasher, ContentKey};
use safara_gpusim::device::DeviceConfig;
use safara_gpusim::memo::{MemoKernel, VirKeyCell};
use safara_gpusim::vir::*;
use safara_ir::offset::{row_major_offset, OffsetAlgebra};
use safara_ir::*;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;

/// A parallel loop mapped onto a thread-grid dimension; the runtime
/// evaluates the expressions against the host scalar environment to
/// compute the launch geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedLoopSpec {
    /// Induction variable.
    pub var: Ident,
    /// Initial value expression.
    pub lo: Expr,
    /// Comparison.
    pub cmp: LoopCmp,
    /// Bound expression.
    pub bound: Expr,
    /// Constant step.
    pub step: i64,
    /// `vector(e)` argument, if given.
    pub vector: Option<Expr>,
}

/// One compiled kernel: VIR + ABI + launch information.
#[derive(Clone, PartialEq)]
pub struct CompiledKernel {
    /// Kernel name (`<function>_k<n>`).
    pub name: String,
    /// The instruction stream.
    pub vir: KernelVir,
    /// The content key of `vir`, once a memoized launch has asked for
    /// it; no part of the kernel's equality or `Debug` form.
    vir_key: VirKeyCell,
    /// Parameter marshaling recipe.
    pub abi: KernelAbi,
    /// Mapped loops indexed by thread dimension (0 = x).
    pub mapped: Vec<MappedLoopSpec>,
    /// Snapshot of the region's `dim` groups (member arrays per group),
    /// so the runtime can resolve group-owned dope parameters.
    pub dim_groups: Vec<Vec<Ident>>,
    /// The region's `launch_bounds(T, B)` contract, if declared:
    /// `(max_threads_per_block, min_blocks_per_sm)` with `B` defaulted
    /// to 1. Sema guarantees both are positive constants.
    pub launch_bounds: Option<(u32, u32)>,
}

/// Lower every offload region of `func`; returns one [`CompiledKernel`]
/// per top-level loop nest per region, in source order.
pub fn lower_function(
    func: &Function,
    opts: &CodegenOptions,
) -> Result<Vec<CompiledKernel>, CodegenError> {
    let mut out = Vec::new();
    let mut counter = 0usize;
    for region in func.regions() {
        if region.body.iter().all(|s| matches!(s, Stmt::For(_))) {
            // The normal case: one kernel per top-level loop nest.
            for nest in &region.body {
                let name = format!("{}_k{}", func.name, counter);
                counter += 1;
                let nest = std::slice::from_ref(nest);
                out.push(lower_nest(func, &region.directive, nest, opts, name)?);
            }
        } else {
            // Degenerate case — e.g. Carr–Kennedy sequentialized the
            // top-level loop, leaving a guard `if` around it: the whole
            // region runs as a single-thread kernel. Only legal when no
            // loop inside is still parallelized.
            let info = RegionInfo::analyze(region);
            if info.loops.iter().any(|l| l.mapped.is_some()) {
                return Err(CodegenError::new(
                    "offload region mixes parallel loop nests with other statements; \
                     hoist the statements or mark the loops seq",
                ));
            }
            let name = format!("{}_k{}", func.name, counter);
            counter += 1;
            out.push(lower_nest(func, &region.directive, &region.body, opts, name)?);
        }
    }
    Ok(out)
}

/// Lower `body` — one top-level loop nest of a region, or the whole body
/// of a fully sequentialized one — under the region's `directive`.
fn lower_nest(
    func: &Function,
    directive: &RegionDirective,
    body: &[Stmt],
    opts: &CodegenOptions,
    name: String,
) -> Result<CompiledKernel, CodegenError> {
    let info = RegionInfo::analyze_body(body);
    let usage = classify_arrays_in(&func.params, body);
    let mut em = Emitter {
        func,
        clauses: &directive.clauses,
        opts,
        usage,
        info,
        kernel: KernelVir { name: name.clone(), ..Default::default() },
        abi: KernelAbi::default(),
        entry: Vec::new(),
        code: Vec::new(),
        env: HashMap::new(),
        array_base: HashMap::new(),
        dope: HashMap::new(),
        memo: HashMap::default(),
        undo: Vec::new(),
        scopes: Vec::new(),
        versions: Vec::new(),
        next_label: 0,
        exit_label: Label(0),
        reductions: BTreeMap::new(),
        mapped: Vec::new(),
    };
    em.exit_label = em.fresh_label();
    em.run(body)?;
    let mut vir = em.kernel;
    let mut insts = em.entry;
    insts.extend(em.code);
    vir.insts = insts;
    vir.params = em
        .abi
        .params
        .iter()
        .map(|p| match p {
            AbiParam::Scalar { ty, .. } => ParamDecl::Scalar(vty(*ty)),
            AbiParam::DimExtent { .. } | AbiParam::DimLower { .. } => ParamDecl::Scalar(VType::B32),
            AbiParam::ArrayBase { .. } | AbiParam::ReductionSlot { .. } => ParamDecl::Ptr,
        })
        .collect();
    crate::dce::eliminate_dead_code(&mut vir);
    let dim_groups = directive.clauses.dim_groups.iter().map(|g| g.arrays.clone()).collect();
    let launch_bounds = directive.clauses.launch_bounds.as_ref().map(|lb| {
        let t = lb.max_threads.as_const().unwrap_or(0).max(0) as u32;
        let b = lb
            .min_blocks
            .as_ref()
            .and_then(|e| e.as_const())
            .unwrap_or(1)
            .max(1) as u32;
        (t, b)
    });
    Ok(CompiledKernel {
        name,
        vir,
        vir_key: VirKeyCell::default(),
        abi: em.abi,
        mapped: em.mapped,
        dim_groups,
        launch_bounds,
    })
}

impl CompiledKernel {
    /// The thread-block shape this kernel launches with: the one rule the
    /// compiler plans register allocation and occupancy by and the
    /// runtime launches by. Each mapped rank (x first, at most three)
    /// takes its `vector(e)` length as `vector_len` resolves `e` (clamped
    /// to 1..=1024), or the default for the nest's depth (128; 32 × 4;
    /// 16 × 4 × 2) when the clause is absent or resolves to `None`. Every
    /// rank is capped at the `launch_bounds` T and the device's block
    /// limit, then x is halved until the whole block fits under both. A
    /// kernel with no mapped loop runs one thread.
    pub fn block_shape<E>(
        &self,
        dev: &DeviceConfig,
        mut vector_len: impl FnMut(&Expr) -> Result<Option<i64>, E>,
    ) -> Result<(u32, u32, u32), E> {
        let default: [u32; 3] = match self.mapped.len() {
            0 => return Ok((1, 1, 1)),
            1 => [128, 1, 1],
            2 => [32, 4, 1],
            _ => [16, 4, 2],
        };
        let limit = self
            .launch_bounds
            .map_or(u32::MAX, |(t, _)| t.max(1))
            .min(dev.max_threads_per_block);
        let mut block = [1u32; 3];
        for (d, spec) in self.mapped.iter().take(3).enumerate() {
            let len = match &spec.vector {
                Some(e) => vector_len(e)?.map(|v| v.clamp(1, 1024) as u32),
                None => None,
            };
            block[d] = len.unwrap_or(default[d]).min(limit);
        }
        while block[0] > 1 && block[0] * block[1] * block[2] > limit {
            block[0] /= 2;
        }
        Ok((block[0], block[1], block[2]))
    }
}

impl std::fmt::Debug for CompiledKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledKernel")
            .field("name", &self.name)
            .field("vir", &self.vir)
            .field("abi", &self.abi)
            .field("mapped", &self.mapped)
            .field("dim_groups", &self.dim_groups)
            .field("launch_bounds", &self.launch_bounds)
            .finish()
    }
}

impl MemoKernel for CompiledKernel {
    fn vir(&self) -> &KernelVir {
        &self.vir
    }

    fn vir_key(&self) -> ContentKey {
        self.vir_key.get(&self.vir)
    }
}

/// Map a source scalar type to its VIR register type.
pub fn vty(t: ScalarTy) -> VType {
    match t {
        ScalarTy::I32 => VType::B32,
        ScalarTy::I64 => VType::B64,
        ScalarTy::F32 => VType::F32,
        ScalarTy::F64 => VType::F64,
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    reg: VReg,
    ty: VType,
}

/// A value-numbering key: the operation and its type codes, both
/// operands, and the versions the operand registers had (high half `a`,
/// low half `b`). An `AluOp` is its discriminant plus one; a conversion
/// is zero.
type MemoKey = (u64, u64, u64, u64);

/// The [`MemoKey`] operation word of a conversion.
const CVT: u64 = 0;

struct Emitter<'a> {
    func: &'a Function,
    clauses: &'a RegionClauses,
    opts: &'a CodegenOptions,
    usage: BTreeMap<Ident, ArrayUsage>,
    info: RegionInfo,
    kernel: KernelVir,
    abi: KernelAbi,
    entry: Vec<Inst>,
    code: Vec<Inst>,
    env: HashMap<Ident, Slot>,
    array_base: HashMap<Ident, VReg>,
    dope: HashMap<(DimOwner, usize, bool), VReg>, // (owner, dim, is_lower)
    /// Value numbering: a key's register and the version that register
    /// had when it was recorded. Keyed by integers only, so it hashes
    /// with the one content hash; the maps above, keyed by source names,
    /// keep std's randomly keyed hasher.
    memo: HashMap<MemoKey, (VReg, u32), BuildHasherDefault<ContentHasher>>,
    /// The keys `memo` gained, in order; a scope's are dropped when it
    /// closes.
    undo: Vec<MemoKey>,
    /// Where each open scope's keys start in `undo`.
    scopes: Vec<usize>,
    /// How often each register has been overwritten, by register index
    /// (absent: never). A mutation bumps the version, which retires
    /// every memo entry that read or produced the old value.
    versions: Vec<u32>,
    next_label: u32,
    exit_label: Label,
    reductions: BTreeMap<Ident, (ReduceOp, Slot, u32)>, // var → (op, acc, slot param ix)
    mapped: Vec<MappedLoopSpec>,
}

impl<'a> Emitter<'a> {
    fn fresh_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    fn vreg(&mut self, ty: VType) -> VReg {
        self.kernel.new_vreg(ty)
    }

    fn emit(&mut self, i: Inst) {
        self.code.push(i);
    }

    // ------------------------------------------------------------ memo

    fn version(&self, r: VReg) -> u32 {
        self.versions.get(r.0 as usize).copied().unwrap_or(0)
    }

    fn memo_get(&self, key: &MemoKey) -> Option<VReg> {
        let &(r, version) = self.memo.get(key)?;
        (self.version(r) == version).then_some(r)
    }

    /// Record `key` → `r`, which [`Emitter::memo_get`] has just missed:
    /// whatever `memo` held for `key` was retired, so the scope it was
    /// recorded in loses nothing it could still use.
    fn memo_put(&mut self, key: MemoKey, r: VReg) {
        if self.opts.local_cse {
            let version = self.version(r);
            self.memo.insert(key, (r, version));
            self.undo.push(key);
        }
    }

    fn memo_push(&mut self) {
        self.scopes.push(self.undo.len());
    }

    fn memo_pop(&mut self) {
        let start = self.scopes.pop().expect("a scope is open");
        for key in self.undo.drain(start..) {
            self.memo.remove(&key);
        }
    }

    /// Retire the memo entries mentioning a register that was just
    /// mutated (as an operand or as the memoized result): later keys
    /// carry its new version, and an entry producing it no longer
    /// matches the version it recorded.
    fn memo_purge(&mut self, r: VReg) {
        let at = r.0 as usize;
        if self.versions.len() <= at {
            self.versions.resize(at + 1, 0);
        }
        self.versions[at] += 1;
    }

    fn op_key(o: &Operand) -> u64 {
        match o {
            Operand::Reg(r) => ((r.0 as u64) << 1) | 1,
            Operand::ImmI(v) => (*v as u64) << 1,
            Operand::ImmF(v) => v.to_bits() << 1,
        }
    }

    /// The version of `o`'s register (immediates have none).
    fn op_version(&self, o: &Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.version(*r) as u64,
            Operand::ImmI(_) | Operand::ImmF(_) => 0,
        }
    }

    /// Emit a pure binary op with value numbering.
    fn alu(&mut self, op: AluOp, ty: VType, a: Operand, b: Operand) -> Operand {
        // Constant folding for integer immediates.
        if let (Operand::ImmI(x), Operand::ImmI(y)) = (a, b) {
            if !ty.is_float() {
                let f = match op {
                    AluOp::Add => Some(x.wrapping_add(y)),
                    AluOp::Sub => Some(x.wrapping_sub(y)),
                    AluOp::Mul => Some(x.wrapping_mul(y)),
                    AluOp::Div if y != 0 => Some(x.wrapping_div(y)),
                    // In-range counts only, matching `Expr::as_const`:
                    // the engines mask per operand width at run time.
                    AluOp::Shl if (0..32).contains(&y) => Some(x.wrapping_shl(y as u32)),
                    _ => None,
                };
                if let Some(v) = f {
                    return Operand::ImmI(v);
                }
            }
        }
        // Identities: x+0, x*1, x-0.
        match (op, a, b) {
            (AluOp::Add | AluOp::Sub, a, Operand::ImmI(0)) => return a,
            (AluOp::Add, Operand::ImmI(0), b) => return b,
            (AluOp::Mul, a, Operand::ImmI(1)) => return a,
            (AluOp::Mul, Operand::ImmI(1), b) => return b,
            (AluOp::Mul, _, Operand::ImmI(0)) | (AluOp::Mul, Operand::ImmI(0), _) => {
                return Operand::ImmI(0)
            }
            (AluOp::Shl, a, Operand::ImmI(0)) => return a,
            (AluOp::Shl, Operand::ImmI(0), _) => return Operand::ImmI(0),
            _ => {}
        }
        let versions = self.op_version(&a) << 32 | self.op_version(&b);
        let tag = (op as u64 + 1) | (ty_code(ty) as u64) << 8;
        let key: MemoKey = (tag, Self::op_key(&a), Self::op_key(&b), versions);
        if let Some(r) = self.memo_get(&key) {
            return Operand::Reg(r);
        }
        let d = self.vreg(ty);
        self.emit(Inst::Alu { op, ty, d, a, b });
        self.memo_put(key, d);
        Operand::Reg(d)
    }

    /// Emit a conversion with value numbering (or fold immediates).
    fn cvt(&mut self, dty: VType, aty: VType, a: Operand) -> Operand {
        if dty == aty {
            return a;
        }
        match a {
            Operand::ImmI(v) => {
                return if dty.is_float() { Operand::ImmF(v as f64) } else { Operand::ImmI(v) }
            }
            Operand::ImmF(v) => {
                return if dty.is_float() { Operand::ImmF(v) } else { Operand::ImmI(v as i64) }
            }
            Operand::Reg(_) => {}
        }
        let tag = CVT | ((ty_code(dty) * 16 + ty_code(aty)) as u64) << 8;
        let key: MemoKey = (tag, Self::op_key(&a), 0, self.op_version(&a) << 32);
        if let Some(r) = self.memo_get(&key) {
            return Operand::Reg(r);
        }
        let d = self.vreg(dty);
        self.emit(Inst::Cvt { dty, d, aty, a });
        self.memo_put(key, d);
        Operand::Reg(d)
    }

    // -------------------------------------------------- params and dope

    fn param_slot(&mut self, name: &Ident) -> Result<Slot, CodegenError> {
        if let Some(s) = self.env.get(name) {
            return Ok(*s);
        }
        match self.func.param(name) {
            Some(Param::Scalar { ty, .. }) => {
                let t = vty(*ty);
                let ix = self.abi.intern(AbiParam::Scalar { name: name.clone(), ty: *ty });
                let d = self.vreg(t);
                self.entry.push(Inst::LdParam { ty: t, d, index: ix });
                let slot = Slot { reg: d, ty: t };
                self.env.insert(name.clone(), slot);
                Ok(slot)
            }
            Some(Param::Array { .. }) => Err(CodegenError::new(format!(
                "array `{name}` used where a scalar is required"
            ))),
            None => Err(CodegenError::new(format!("undeclared variable `{name}`"))),
        }
    }

    fn base_of(&mut self, array: &Ident) -> VReg {
        if let Some(r) = self.array_base.get(array) {
            return *r;
        }
        let ix = self.abi.intern(AbiParam::ArrayBase { array: array.clone() });
        let d = self.vreg(VType::B64);
        self.entry.push(Inst::LdParam { ty: VType::B64, d, index: ix });
        self.array_base.insert(array.clone(), d);
        d
    }

    fn dope_value(&mut self, owner: DimOwner, dim: usize, is_lower: bool) -> VReg {
        let key = (owner, dim, is_lower);
        if let Some(r) = self.dope.get(&key) {
            return *r;
        }
        let owner = key.0.clone();
        let p = if is_lower {
            AbiParam::DimLower { owner, dim }
        } else {
            AbiParam::DimExtent { owner, dim }
        };
        let ix = self.abi.intern(p);
        let d = self.vreg(VType::B32);
        self.entry.push(Inst::LdParam { ty: VType::B32, d, index: ix });
        self.dope.insert(key, d);
        d
    }

    // ------------------------------------------------------- the driver

    fn run(&mut self, body: &[Stmt]) -> Result<(), CodegenError> {
        // The nest: descend through parallel loops, emitting index
        // computation + guard for each, then lower the first
        // non-parallel level as ordinary statements. A region whose body
        // is not a single loop nest (fully sequentialized code) lowers as
        // plain statements on one thread.
        if let [Stmt::For(top)] = body {
            self.lower_parallel_chain(top)?;
            return self.finish();
        }
        for s in body {
            self.lower_stmt(s)?;
        }
        self.finish()
    }

    fn finish(&mut self) -> Result<(), CodegenError> {
        self.emit(Inst::Mark(self.exit_label));
        // Flush reductions.
        let flush: Vec<(Ident, (ReduceOp, Slot, u32))> =
            self.reductions.iter().map(|(k, v)| (k.clone(), *v)).collect();
        for (_, (op, acc, ix)) in flush {
            if op != ReduceOp::Add {
                return Err(CodegenError::new(
                    "only `+` reductions are supported by the device code generator",
                ));
            }
            let addr = self.vreg(VType::B64);
            self.entry.push(Inst::LdParam { ty: VType::B64, d: addr, index: ix });
            self.emit(Inst::AtomAdd { ty: acc.ty, addr, a: acc.reg.into() });
        }
        self.emit(Inst::Ret);
        Ok(())
    }

    fn lower_parallel_chain(&mut self, f: &ForLoop) -> Result<(), CodegenError> {
        let mapped = self
            .info
            .loop_of(&f.var)
            .ok_or_else(|| CodegenError::new(format!("loop `{}` missing from analysis", f.var)))?
            .mapped;
        match mapped {
            Some(dim) => {
                self.begin_mapped_loop(f, dim)?;
                // The body must be either exactly one nested parallel
                // loop, or contain no parallel loops at all.
                let inner_parallel = f.body.iter().any(|s| {
                    matches!(s, Stmt::For(g) if self.info.loop_of(&g.var).is_some_and(|l| l.mapped.is_some()))
                });
                if inner_parallel {
                    if f.body.len() != 1 {
                        return Err(CodegenError::new(format!(
                            "parallel loop `{}` mixes statements with a nested parallel loop; \
                             hoist the statements or mark the inner loop seq",
                            f.var
                        )));
                    }
                    let Stmt::For(inner) = &f.body[0] else { unreachable!() };
                    self.lower_parallel_chain(inner)?;
                } else {
                    for s in &f.body {
                        self.lower_stmt(s)?;
                    }
                }
                Ok(())
            }
            None => {
                // Top of the nest is already sequential: a degenerate
                // single-thread kernel.
                self.lower_seq_loop(f)
            }
        }
    }

    fn begin_mapped_loop(&mut self, f: &ForLoop, dim: ThreadDim) -> Result<(), CodegenError> {
        let d = dim.index() as u8;
        let dir = f.directive.clone().unwrap_or_default();
        self.mapped.resize(
            self.mapped.len().max(dim.index() + 1),
            MappedLoopSpec {
                var: f.var.clone(),
                lo: Expr::IntLit(0),
                cmp: LoopCmp::Lt,
                bound: Expr::IntLit(0),
                step: 1,
                vector: None,
            },
        );
        self.mapped[dim.index()] = MappedLoopSpec {
            var: f.var.clone(),
            lo: f.lo.clone(),
            cmp: f.cmp,
            bound: f.bound.clone(),
            step: f.step,
            vector: dir.vector.clone().flatten(),
        };
        // gidx = ctaid.d * ntid.d + tid.d
        let tid = self.vreg(VType::B32);
        self.emit(Inst::Special { d: tid, r: SpecialReg::Tid(d) });
        let cta = self.vreg(VType::B32);
        self.emit(Inst::Special { d: cta, r: SpecialReg::CtaId(d) });
        let ntid = self.vreg(VType::B32);
        self.emit(Inst::Special { d: ntid, r: SpecialReg::NTid(d) });
        let t0 = self.alu(AluOp::Mul, VType::B32, cta.into(), ntid.into());
        let gidx = self.alu(AluOp::Add, VType::B32, t0, tid.into());
        // var = lo + gidx * step
        let (lo, loty) = self.lower_expr(&f.lo)?;
        let lo = self.cvt(VType::B32, loty, lo);
        let scaled = self.alu(AluOp::Mul, VType::B32, gidx, Operand::ImmI(f.step));
        let v = self.alu(AluOp::Add, VType::B32, lo, scaled);
        // Materialize into a dedicated register so the variable has a
        // stable home (it is immutable inside the kernel).
        let var_reg = self.vreg(VType::B32);
        self.emit(Inst::Mov { ty: VType::B32, d: var_reg, a: v });
        self.env.insert(f.var.clone(), Slot { reg: var_reg, ty: VType::B32 });
        // Guard: if !(var cmp bound) goto exit.
        let (bound, bty) = self.lower_expr(&f.bound)?;
        let bound = self.cvt(VType::B32, bty, bound);
        let p = self.vreg(VType::Pred);
        let cmp = match f.cmp {
            LoopCmp::Lt => CmpOp::Lt,
            LoopCmp::Le => CmpOp::Le,
            LoopCmp::Gt => CmpOp::Gt,
            LoopCmp::Ge => CmpOp::Ge,
        };
        self.emit(Inst::Setp { op: cmp, ty: VType::B32, d: p, a: var_reg.into(), b: bound });
        self.emit(Inst::Bra { target: self.exit_label, pred: Some((p, false)) });
        // Register reductions declared on this loop.
        for r in &dir.reductions {
            self.declare_reduction(r)?;
        }
        Ok(())
    }

    fn declare_reduction(&mut self, r: &Reduction) -> Result<(), CodegenError> {
        if self.reductions.contains_key(&r.var) {
            return Ok(());
        }
        // The reduction variable must be a function scalar (its host value
        // seeds the slot) or a local; the accumulator starts at identity.
        let sty = match self.func.param(&r.var) {
            Some(Param::Scalar { ty, .. }) => *ty,
            _ => match self.env.get(&r.var) {
                Some(s) => match s.ty {
                    VType::B32 => ScalarTy::I32,
                    VType::B64 => ScalarTy::I64,
                    VType::F32 => ScalarTy::F32,
                    VType::F64 => ScalarTy::F64,
                    VType::Pred => {
                        return Err(CodegenError::new("cannot reduce a predicate"));
                    }
                },
                None => {
                    return Err(CodegenError::new(format!(
                        "reduction variable `{}` is not declared",
                        r.var
                    )))
                }
            },
        };
        let t = vty(sty);
        let acc = self.vreg(t);
        let identity: Operand = match (r.op, t.is_float()) {
            (ReduceOp::Add, true) => Operand::ImmF(0.0),
            (ReduceOp::Add, false) => Operand::ImmI(0),
            (ReduceOp::Mul, true) => Operand::ImmF(1.0),
            (ReduceOp::Mul, false) => Operand::ImmI(1),
            (ReduceOp::Min, true) => Operand::ImmF(f64::INFINITY),
            (ReduceOp::Max, true) => Operand::ImmF(f64::NEG_INFINITY),
            (ReduceOp::Min, false) => Operand::ImmI(i64::MAX),
            (ReduceOp::Max, false) => Operand::ImmI(i64::MIN),
        };
        self.entry.push(Inst::Mov { ty: t, d: acc, a: identity });
        let ix = self.abi.intern(AbiParam::ReductionSlot { var: r.var.clone(), op: r.op, ty: sty });
        // Shadow the variable with the accumulator.
        self.env.insert(r.var.clone(), Slot { reg: acc, ty: t });
        self.reductions.insert(r.var.clone(), (r.op, Slot { reg: acc, ty: t }, ix));
        Ok(())
    }

    // --------------------------------------------------------- statements

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), CodegenError> {
        match s {
            Stmt::DeclScalar { name, ty, init } => {
                let t = vty(*ty);
                let reg = self.vreg(t);
                if let Some(e) = init {
                    let (v, et) = self.lower_expr(e)?;
                    let v = self.cvt(t, et, v);
                    self.emit(Inst::Mov { ty: t, d: reg, a: v });
                }
                self.env.insert(name.clone(), Slot { reg, ty: t });
                Ok(())
            }
            Stmt::Assign { lhs, op, rhs } => self.lower_assign(lhs, *op, rhs),
            Stmt::For(f) => self.lower_seq_loop(f),
            Stmt::If { cond, then_body, else_body } => {
                let p = self.lower_cond(cond)?;
                let l_else = self.fresh_label();
                let l_end = self.fresh_label();
                self.emit(Inst::Bra { target: l_else, pred: Some((p, false)) });
                self.memo_push();
                for s in then_body {
                    self.lower_stmt(s)?;
                }
                self.memo_pop();
                self.emit(Inst::Bra { target: l_end, pred: None });
                self.emit(Inst::Mark(l_else));
                self.memo_push();
                for s in else_body {
                    self.lower_stmt(s)?;
                }
                self.memo_pop();
                self.emit(Inst::Mark(l_end));
                Ok(())
            }
            Stmt::Block(b) => {
                for s in b {
                    self.lower_stmt(s)?;
                }
                Ok(())
            }
            Stmt::Region(_) => Err(CodegenError::new("offload regions cannot nest")),
        }
    }

    fn lower_assign(&mut self, lhs: &LValue, op: AssignOp, rhs: &Expr) -> Result<(), CodegenError> {
        match lhs {
            LValue::Var(v) => {
                let slot = match self.env.get(v) {
                    Some(s) => *s,
                    None => self.param_slot(v)?,
                };
                let (mut val, vt) = self.lower_expr(rhs)?;
                val = self.cvt(slot.ty, vt, val);
                let out = if let Some(b) = op.bin_op() {
                    self.alu(bin_alu(b), slot.ty, slot.reg.into(), val)
                } else {
                    val
                };
                self.emit(Inst::Mov { ty: slot.ty, d: slot.reg, a: out });
                self.memo_purge(slot.reg);
                Ok(())
            }
            LValue::ArrayRef(a) => {
                let (addr, elem_ty, space) = self.array_access(a)?;
                let (mut val, vt) = self.lower_expr(rhs)?;
                val = self.cvt(elem_ty, vt, val);
                let out = if let Some(b) = op.bin_op() {
                    // Read-modify-write: load current value first. The
                    // load must use the *writable* space (never read-only).
                    let cur = self.vreg(elem_ty);
                    self.emit(Inst::Ld { space: MemSpace::Global, ty: elem_ty, d: cur, addr });
                    self.alu(bin_alu(b), elem_ty, cur.into(), val)
                } else {
                    val
                };
                debug_assert_ne!(space, MemSpace::ReadOnly, "stores never go read-only");
                self.emit(Inst::St { space: MemSpace::Global, ty: elem_ty, addr, a: out });
                Ok(())
            }
        }
    }

    fn lower_seq_loop(&mut self, f: &ForLoop) -> Result<(), CodegenError> {
        // var = lo
        let var_slot = if f.declares_var || !self.env.contains_key(&f.var) {
            let reg = self.vreg(VType::B32);
            let slot = Slot { reg, ty: VType::B32 };
            self.env.insert(f.var.clone(), slot);
            slot
        } else {
            self.env[&f.var]
        };
        for r in f.directive.iter().flat_map(|d| &d.reductions) {
            self.declare_reduction(r)?;
        }
        let (lo, lot) = self.lower_expr(&f.lo)?;
        let lo = self.cvt(var_slot.ty, lot, lo);
        self.emit(Inst::Mov { ty: var_slot.ty, d: var_slot.reg, a: lo });
        self.memo_purge(var_slot.reg);
        let l_top = self.fresh_label();
        let l_end = self.fresh_label();
        self.emit(Inst::Mark(l_top));
        // Condition (re-evaluated every iteration).
        self.memo_push();
        let (bound, bt) = self.lower_expr(&f.bound)?;
        let bound = self.cvt(var_slot.ty, bt, bound);
        let p = self.vreg(VType::Pred);
        let cmp = match f.cmp {
            LoopCmp::Lt => CmpOp::Lt,
            LoopCmp::Le => CmpOp::Le,
            LoopCmp::Gt => CmpOp::Gt,
            LoopCmp::Ge => CmpOp::Ge,
        };
        self.emit(Inst::Setp { op: cmp, ty: var_slot.ty, d: p, a: var_slot.reg.into(), b: bound });
        self.emit(Inst::Bra { target: l_end, pred: Some((p, false)) });
        for s in &f.body {
            self.lower_stmt(s)?;
        }
        // var += step; loop.
        let stepped =
            self.alu(AluOp::Add, var_slot.ty, var_slot.reg.into(), Operand::ImmI(f.step));
        self.emit(Inst::Mov { ty: var_slot.ty, d: var_slot.reg, a: stepped });
        self.memo_pop();
        self.memo_purge(var_slot.reg);
        self.emit(Inst::Bra { target: l_top, pred: None });
        self.emit(Inst::Mark(l_end));
        Ok(())
    }

    // -------------------------------------------------------- expressions

    fn lower_expr(&mut self, e: &Expr) -> Result<(Operand, VType), CodegenError> {
        match e {
            Expr::IntLit(v) => Ok((Operand::ImmI(*v), VType::B32)),
            Expr::FloatLit(v) => Ok((Operand::ImmF(*v), VType::F64)),
            Expr::Var(v) => {
                let slot = match self.env.get(v) {
                    Some(s) => *s,
                    None => self.param_slot(v)?,
                };
                Ok((slot.reg.into(), slot.ty))
            }
            Expr::ArrayRef(a) => {
                let (addr, elem_ty, space) = self.array_access(a)?;
                let d = self.vreg(elem_ty);
                self.emit(Inst::Ld { space, ty: elem_ty, d, addr });
                Ok((d.into(), elem_ty))
            }
            Expr::Unary(UnOp::Neg, inner) => {
                let (v, t) = self.lower_expr(inner)?;
                if let Operand::ImmI(x) = v {
                    return Ok((Operand::ImmI(-x), t));
                }
                if let Operand::ImmF(x) = v {
                    return Ok((Operand::ImmF(-x), t));
                }
                let d = self.vreg(t);
                self.emit(Inst::Neg { ty: t, d, a: v });
                Ok((d.into(), t))
            }
            Expr::Unary(UnOp::Not, _) | Expr::Binary(BinOp::And, ..) | Expr::Binary(BinOp::Or, ..) => {
                let p = self.lower_cond(e)?;
                let v = self.cvt(VType::B32, VType::Pred, p.into());
                Ok((v, VType::B32))
            }
            Expr::Binary(op, l, r) if op.is_relational() => {
                let p = self.lower_cmp(*op, l, r)?;
                let v = self.cvt(VType::B32, VType::Pred, p.into());
                Ok((v, VType::B32))
            }
            Expr::Binary(op, l, r) => {
                let (lv, lt) = self.lower_expr(l)?;
                let (rv, rt) = self.lower_expr(r)?;
                let t = unify_vty(lt, rt);
                let lv = self.cvt(t, lt, lv);
                let rv = self.cvt(t, rt, rv);
                Ok((self.alu(bin_alu(*op), t, lv, rv), t))
            }
            Expr::Call(intr, args) => self.lower_call(*intr, args),
            Expr::Cast(ty, inner) => {
                let (v, t) = self.lower_expr(inner)?;
                let dt = vty(*ty);
                Ok((self.cvt(dt, t, v), dt))
            }
        }
    }

    fn lower_call(
        &mut self,
        intr: Intrinsic,
        args: &[Expr],
    ) -> Result<(Operand, VType), CodegenError> {
        let lowered: Vec<(Operand, VType)> =
            args.iter().map(|a| self.lower_expr(a)).collect::<Result<_, _>>()?;
        let all_int = lowered.iter().all(|(_, t)| !t.is_float());
        match intr {
            Intrinsic::Min | Intrinsic::Max => {
                let t = if all_int {
                    unify_vty(lowered[0].1, lowered[1].1)
                } else {
                    unify_vty(
                        float_of(lowered[0].1),
                        float_of(lowered[1].1),
                    )
                };
                let a = self.cvt(t, lowered[0].1, lowered[0].0);
                let b = self.cvt(t, lowered[1].1, lowered[1].0);
                let op = if intr == Intrinsic::Min { AluOp::Min } else { AluOp::Max };
                Ok((self.alu(op, t, a, b), t))
            }
            Intrinsic::Abs if all_int => {
                let (v, t) = lowered[0];
                let n = self.vreg(t);
                self.emit(Inst::Neg { ty: t, d: n, a: v });
                Ok((self.alu(AluOp::Max, t, v, n.into()), t))
            }
            _ => {
                // Float SFU path; default precision is f64 unless all
                // arguments are f32.
                let t = if lowered.iter().all(|(_, t)| *t == VType::F32) {
                    VType::F32
                } else {
                    VType::F64
                };
                let a = self.cvt(t, lowered[0].1, lowered[0].0);
                let b = if lowered.len() > 1 {
                    Some(self.cvt(t, lowered[1].1, lowered[1].0))
                } else {
                    None
                };
                let op = match intr {
                    Intrinsic::Sqrt => MathOp::Sqrt,
                    Intrinsic::Exp => MathOp::Exp,
                    Intrinsic::Log => MathOp::Log,
                    Intrinsic::Sin => MathOp::Sin,
                    Intrinsic::Cos => MathOp::Cos,
                    Intrinsic::Abs => MathOp::Abs,
                    Intrinsic::Floor => MathOp::Floor,
                    Intrinsic::Pow => MathOp::Pow,
                    Intrinsic::Min | Intrinsic::Max => unreachable!("handled above"),
                };
                let d = self.vreg(t);
                self.emit(Inst::Math { op, ty: t, d, a, b });
                Ok((d.into(), t))
            }
        }
    }

    /// Lower a condition into a predicate register.
    fn lower_cond(&mut self, e: &Expr) -> Result<VReg, CodegenError> {
        match e {
            Expr::Binary(op, l, r) if matches!(op, BinOp::And | BinOp::Or) => {
                let a = self.lower_cond(l)?;
                let b = self.lower_cond(r)?;
                let d = self.vreg(VType::Pred);
                let alu_op = if *op == BinOp::And { AluOp::And } else { AluOp::Or };
                self.emit(Inst::Alu { op: alu_op, ty: VType::Pred, d, a: a.into(), b: b.into() });
                Ok(d)
            }
            Expr::Unary(UnOp::Not, inner) => {
                let p = self.lower_cond(inner)?;
                let d = self.vreg(VType::Pred);
                self.emit(Inst::Not { d, a: p });
                Ok(d)
            }
            Expr::Binary(op, l, r) if op.is_relational() => self.lower_cmp(*op, l, r),
            other => {
                // Truthiness of a numeric value: v != 0.
                let (v, t) = self.lower_expr(other)?;
                let d = self.vreg(VType::Pred);
                let zero = if t.is_float() { Operand::ImmF(0.0) } else { Operand::ImmI(0) };
                self.emit(Inst::Setp { op: CmpOp::Ne, ty: t, d, a: v, b: zero });
                Ok(d)
            }
        }
    }

    fn lower_cmp(&mut self, op: BinOp, l: &Expr, r: &Expr) -> Result<VReg, CodegenError> {
        let (lv, lt) = self.lower_expr(l)?;
        let (rv, rt) = self.lower_expr(r)?;
        let t = unify_vty(lt, rt);
        let lv = self.cvt(t, lt, lv);
        let rv = self.cvt(t, rt, rv);
        let cmp = match op {
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            _ => return Err(CodegenError::new("not a comparison")),
        };
        let d = self.vreg(VType::Pred);
        self.emit(Inst::Setp { op: cmp, ty: t, d, a: lv, b: rv });
        Ok(d)
    }

    // ------------------------------------------------------ array access

    /// Compute the element address of an array reference; returns
    /// (address register, element VIR type, load memory space).
    fn array_access(&mut self, a: &ArrayRef) -> Result<(VReg, VType, MemSpace), CodegenError> {
        // `func` and `clauses` outlive the emitter's own borrow: what they
        // hand out stays usable across the `&mut self` calls below.
        let (func, clauses) = (self.func, self.clauses);
        let aty = match func.param(&a.array) {
            Some(Param::Array { ty, .. }) => ty,
            _ => {
                return Err(CodegenError::new(format!(
                    "`{}` is not an array parameter",
                    a.array
                )))
            }
        };
        if a.indices.len() != aty.rank() {
            return Err(CodegenError::new(format!(
                "array `{}` rank mismatch in codegen",
                a.array
            )));
        }
        let elem_ty = vty(aty.elem);
        let space = match self.usage.get(&a.array).map(|u| u.space) {
            Some(ArraySpace::ReadOnly) if self.opts.use_readonly_cache => MemSpace::ReadOnly,
            _ => MemSpace::Global,
        };

        // Decide the offset arithmetic width (§IV-B): 32-bit when the
        // `small` clause covers the array (and is honored), or when the
        // array is fully static and provably < 2 GiB.
        let statically_small = aty
            .static_len()
            .map(|n| n.checked_mul(aty.elem.size_bytes() as i64).is_some_and(|b| b < (1 << 31)))
            .unwrap_or(false);
        let small = statically_small
            || (self.opts.honor_small && self.clauses.is_small(&a.array));
        let off_ty = if small { VType::B32 } else { VType::B64 };

        // Dope source: a dim group (owned bounds or shared dope) or the
        // array itself.
        let group = if self.opts.honor_dim { clauses.dim_group_of(&a.array) } else { None };

        // offset = ((i0' * e1 + i1') * e2 + i2') ... — the row-major
        // Horner fold, shared with the saturation phase's factoring rule
        // via `safara_ir::offset::row_major_offset`.
        let elems = {
            let mut alg = EmitterOffset {
                em: self,
                indices: &a.indices,
                aty,
                group,
                array: &a.array,
                off_ty,
            };
            row_major_offset(a.indices.len(), &mut alg)?
        };
        let bytes = self.alu(
            AluOp::Mul,
            off_ty,
            elems,
            Operand::ImmI(aty.elem.size_bytes() as i64),
        );
        let bytes64 = self.cvt(VType::B64, off_ty, bytes);
        let base = self.base_of(&a.array);
        let addr_op = self.alu(AluOp::Add, VType::B64, base.into(), bytes64);
        let addr = match addr_op {
            Operand::Reg(r) => r,
            imm => {
                let d = self.vreg(VType::B64);
                self.emit(Inst::Mov { ty: VType::B64, d, a: imm });
                d
            }
        };
        Ok((addr, elem_ty, space))
    }

    /// The lower bound of dimension `d` as an operand in the offset type,
    /// or `None` if it is statically zero.
    fn dim_lower(
        &mut self,
        aty: &ArrayTy,
        group: Option<(usize, &DimGroup)>,
        array: &Ident,
        d: usize,
    ) -> Result<Option<Operand>, CodegenError> {
        // Group bounds given explicitly in the clause win.
        if let Some((_, g)) = group {
            if let Some(bounds) = &g.bounds {
                let lb = &bounds[d].lower;
                if lb.as_const() == Some(0) {
                    return Ok(None);
                }
                let (v, t) = self.lower_expr(lb)?;
                return Ok(Some(self.cvt(VType::B32, t, v)));
            }
        }
        let dim = &aty.dims[d];
        match &dim.lower {
            None => Ok(None),
            Some(e) if e.as_const() == Some(0) => Ok(None),
            Some(e) => {
                if let Some(c) = e.as_const() {
                    return Ok(Some(Operand::ImmI(c)));
                }
                // Runtime lower bound: a dope scalar.
                let owner = match group {
                    Some((gi, _)) => DimOwner::Group(gi),
                    None => DimOwner::Array(array.clone()),
                };
                Ok(Some(self.dope_value(owner, d, true).into()))
            }
        }
    }

    /// The extent of dimension `d` as an operand in the offset type.
    fn dim_extent(
        &mut self,
        aty: &ArrayTy,
        group: Option<(usize, &DimGroup)>,
        array: &Ident,
        d: usize,
    ) -> Result<Operand, CodegenError> {
        if let Some((_, g)) = group {
            if let Some(bounds) = &g.bounds {
                let len = &bounds[d].len;
                if let Some(c) = len.as_const() {
                    return Ok(Operand::ImmI(c));
                }
                let (v, t) = self.lower_expr(len)?;
                return Ok(self.cvt(VType::B32, t, v));
            }
        }
        match &aty.dims[d].extent {
            Extent::Const(c) => Ok(Operand::ImmI(*c)),
            Extent::Dynamic(e) => {
                if let Some(c) = e.as_const() {
                    return Ok(Operand::ImmI(c));
                }
                let owner = match group {
                    Some((gi, _)) => DimOwner::Group(gi),
                    None => DimOwner::Array(array.clone()),
                };
                Ok(self.dope_value(owner, d, false).into())
            }
        }
    }
}

/// The code generator's value algebra for the shared row-major offset
/// fold: indices lower through the emitter (with conversion to the
/// decided offset width), bounds and extents come from the dope logic,
/// and combining steps emit value-numbered ALU ops.
struct EmitterOffset<'e, 'a> {
    em: &'e mut Emitter<'a>,
    indices: &'e [Expr],
    aty: &'e ArrayTy,
    group: Option<(usize, &'e DimGroup)>,
    array: &'e Ident,
    off_ty: VType,
}

impl OffsetAlgebra for EmitterOffset<'_, '_> {
    type V = Operand;
    type E = CodegenError;

    fn index(&mut self, d: usize) -> Result<Operand, CodegenError> {
        let (v, t) = self.em.lower_expr(&self.indices[d])?;
        Ok(self.em.cvt(self.off_ty, t, v))
    }

    fn lower(&mut self, d: usize) -> Result<Option<Operand>, CodegenError> {
        self.em.dim_lower(self.aty, self.group, self.array, d)
    }

    fn extent(&mut self, d: usize) -> Result<Operand, CodegenError> {
        self.em.dim_extent(self.aty, self.group, self.array, d)
    }

    fn sub(&mut self, a: Operand, b: Operand) -> Operand {
        self.em.alu(AluOp::Sub, self.off_ty, a, b)
    }

    fn mul(&mut self, a: Operand, b: Operand) -> Operand {
        self.em.alu(AluOp::Mul, self.off_ty, a, b)
    }

    fn add(&mut self, a: Operand, b: Operand) -> Operand {
        self.em.alu(AluOp::Add, self.off_ty, a, b)
    }
}

fn bin_alu(op: BinOp) -> AluOp {
    match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Div => AluOp::Div,
        BinOp::Rem => AluOp::Rem,
        BinOp::Shl => AluOp::Shl,
        _ => unreachable!("relational ops handled separately"),
    }
}

fn unify_vty(a: VType, b: VType) -> VType {
    use VType::*;
    match (a, b) {
        (F64, _) | (_, F64) => F64,
        (F32, B64) | (B64, F32) => F64,
        (F32, _) | (_, F32) => F32,
        (B64, _) | (_, B64) => B64,
        _ => B32,
    }
}

fn float_of(t: VType) -> VType {
    match t {
        VType::F32 => VType::F32,
        VType::B64 | VType::F64 => VType::F64,
        _ => VType::F32,
    }
}

fn ty_code(t: VType) -> u8 {
    match t {
        VType::B32 => 0,
        VType::B64 => 1,
        VType::F32 => 2,
        VType::F64 => 3,
        VType::Pred => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_ir::parse_program;

    fn compile(src: &str, opts: &CodegenOptions) -> Vec<CompiledKernel> {
        let p = parse_program(src).unwrap();
        lower_function(&p.functions[0], opts).unwrap()
    }

    const AXPY: &str = r#"
    void axpy(int n, float alpha, const float x[n], float y[n]) {
      #pragma acc kernels copyin(x) copy(y)
      {
        #pragma acc loop gang vector
        for (int i = 0; i < n; i++) {
          y[i] = y[i] + alpha * x[i];
        }
      }
    }"#;

    #[test]
    fn axpy_lowers_to_one_kernel() {
        let ks = compile(AXPY, &CodegenOptions::default());
        assert_eq!(ks.len(), 1);
        let k = &ks[0];
        assert_eq!(k.name, "axpy_k0");
        assert_eq!(k.mapped.len(), 1);
        assert_eq!(k.mapped[0].var.as_str(), "i");
        // Read-only x loads via the read-only path; y via global.
        let spaces: Vec<MemSpace> = k
            .vir
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Ld { space, .. } => Some(*space),
                _ => None,
            })
            .collect();
        assert!(spaces.contains(&MemSpace::ReadOnly), "{:?}", k.vir.disassemble());
        assert!(spaces.contains(&MemSpace::Global));
    }

    #[test]
    fn readonly_disabled_uses_global() {
        let opts = CodegenOptions { use_readonly_cache: false, ..Default::default() };
        let ks = compile(AXPY, &opts);
        assert!(ks[0]
            .vir
            .insts
            .iter()
            .all(|i| !matches!(i, Inst::Ld { space: MemSpace::ReadOnly, .. })));
    }

    #[test]
    fn multiple_nests_become_multiple_kernels() {
        let src = r#"
        void two(int n, float a[n], float b[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = 1.0; }
            #pragma acc loop gang vector
            for (int j = 0; j < n; j++) { b[j] = 2.0; }
          }
        }"#;
        let ks = compile(src, &CodegenOptions::default());
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[1].name, "two_k1");
    }

    fn count_int64_alu(k: &CompiledKernel) -> usize {
        k.vir
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Alu { ty: VType::B64, .. }))
            .count()
    }

    const SMALL3D: &str = r#"
    void wave(int nx, int ny, int nz, float h,
              const float vz_1[nz][ny][nx], const float vz_2[nz][ny][nx],
              const float vz_3[nz][ny][nx], float out[nz][ny][nx]) {
      #pragma acc kernels small(vz_1, vz_2, vz_3, out) dim((vz_1, vz_2, vz_3, out))
      {
        #pragma acc loop gang
        for (int j = 1; j < ny; j++) {
          #pragma acc loop vector
          for (int i = 1; i < nx; i++) {
            #pragma acc loop seq
            for (int k = 1; k < nz; k++) {
              out[k][j][i] = (vz_1[k][j][i] - vz_1[k - 1][j][i]) / h
                           + (vz_2[k][j][i] - vz_2[k - 1][j][i]) / h
                           + (vz_3[k][j][i] - vz_3[k - 1][j][i]) / h;
            }
          }
        }
      }
    }"#;

    #[test]
    fn small_clause_narrows_offset_arithmetic() {
        let with = compile(SMALL3D, &CodegenOptions::default());
        let without = compile(SMALL3D, &CodegenOptions::base());
        let n_with = count_int64_alu(&with[0]);
        let n_without = count_int64_alu(&without[0]);
        assert!(
            n_with < n_without,
            "small should reduce 64-bit ALU ops: {n_with} vs {n_without}"
        );
    }

    #[test]
    fn dim_clause_reduces_param_count_and_instructions() {
        let with = compile(SMALL3D, &CodegenOptions::default());
        let no_dim = CodegenOptions { honor_dim: false, ..Default::default() };
        let without = compile(SMALL3D, &no_dim);
        // Shared dope params: the grouped arrays contribute one extent set.
        let dope_params = |k: &CompiledKernel| {
            k.abi
                .params
                .iter()
                .filter(|p| matches!(p, AbiParam::DimExtent { .. } | AbiParam::DimLower { .. }))
                .count()
        };
        assert!(
            dope_params(&with[0]) < dope_params(&without[0]),
            "dim must shrink the dope parameter list: {} vs {}",
            dope_params(&with[0]),
            dope_params(&without[0])
        );
        assert!(
            with[0].vir.insts.len() < without[0].vir.insts.len(),
            "shared offsets should shrink the kernel: {} vs {}",
            with[0].vir.insts.len(),
            without[0].vir.insts.len()
        );
    }

    #[test]
    fn cse_collapses_repeated_loads_of_dope() {
        // Without CSE the same offset math is emitted per reference.
        let no_cse = CodegenOptions { local_cse: false, ..Default::default() };
        let with = compile(SMALL3D, &CodegenOptions::default());
        let without = compile(SMALL3D, &no_cse);
        assert!(with[0].vir.insts.len() < without[0].vir.insts.len());
    }

    #[test]
    fn a_scalar_store_retires_the_values_computed_from_it() {
        // `k + 1` is numbered once per value of `k`: the second store
        // must address with the updated `k`, the third reuses the second.
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              int k = i;
              a[k + 1] = 1.0;
              k = k + 2;
              a[k + 1] = 2.0;
              a[k + 1] = 3.0;
            }
          }
        }"#;
        let ks = compile(src, &CodegenOptions::default());
        let addrs: Vec<VReg> = ks[0]
            .vir
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::St { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert_eq!(addrs.len(), 3);
        assert_ne!(addrs[0], addrs[1], "a stale `k + 1` addressed the second store");
        assert_eq!(addrs[1], addrs[2], "an unchanged `k + 1` is computed once");
    }

    #[test]
    fn two_dim_mapping_produces_two_mapped_loops() {
        let ks = compile(SMALL3D, &CodegenOptions::default());
        let k = &ks[0];
        assert_eq!(k.mapped.len(), 2);
        assert_eq!(k.mapped[0].var.as_str(), "i"); // x
        assert_eq!(k.mapped[1].var.as_str(), "j"); // y
    }

    #[test]
    fn reduction_emits_atomic() {
        let src = r#"
        void dotp(int n, const float x[n], const float y[n], float s) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector reduction(+:s)
            for (int i = 0; i < n; i++) {
              s += x[i] * y[i];
            }
          }
        }"#;
        let ks = compile(src, &CodegenOptions::default());
        let k = &ks[0];
        assert!(k.vir.insts.iter().any(|i| matches!(i, Inst::AtomAdd { .. })));
        assert!(k
            .abi
            .params
            .iter()
            .any(|p| matches!(p, AbiParam::ReductionSlot { .. })));
    }

    #[test]
    fn statements_mixed_with_inner_parallel_loop_rejected() {
        let src = r#"
        void bad(int n, float a[n][n], float c[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang
            for (int j = 0; j < n; j++) {
              c[j] = 0.0;
              #pragma acc loop vector
              for (int i = 0; i < n; i++) { a[j][i] = 1.0; }
            }
          }
        }"#;
        let p = parse_program(src).unwrap();
        let err = lower_function(&p.functions[0], &CodegenOptions::default()).unwrap_err();
        assert!(err.message.contains("mixes statements"), "{err}");
    }

    #[test]
    fn mul_reduction_rejected() {
        let src = r#"
        void prod(int n, const float x[n], float s) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector reduction(*:s)
            for (int i = 0; i < n; i++) { s *= x[i]; }
          }
        }"#;
        let p = parse_program(src).unwrap();
        let err = lower_function(&p.functions[0], &CodegenOptions::default()).unwrap_err();
        assert!(err.message.contains("reductions"), "{err}");
    }

    #[test]
    fn static_array_offsets_use_32bit_without_small() {
        let src = r#"
        void stat(const float x[64][64], float y[64][64]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < 64; i++) {
              y[i][0] = x[i][0];
            }
          }
        }"#;
        let ks = compile(src, &CodegenOptions::base());
        // Static 16 KiB arrays: even "base" codegen knows 32-bit offsets
        // suffice (the paper: "when the array is a static array ... the
        // compiler can detect the array size").
        assert_eq!(count_int64_alu(&ks[0]), 2, "{}", ks[0].vir.disassemble());
        // (one b64 base+offset add per array is unavoidable; all the
        // subscript arithmetic itself stays 32-bit)
    }
}
