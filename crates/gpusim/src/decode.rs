//! The pre-decoded, direct-threaded execution engine.
//!
//! [`crate::interp::launch_reference`] re-interprets the rich [`Inst`]
//! enum for every executed instruction of every thread: it resolves
//! labels through a side table, converts immediates per use, looks up
//! parameter slots, walks `Inst::uses()` (allocating a `Vec`) to count
//! spill traffic, and allocates a fresh register file per lane. All of
//! that is loop-invariant across the millions of threads of a launch,
//! so this module hoists it: each launch **decodes** the kernel once
//! into a flat stream of fixed-size [`DInst`] records in which
//!
//! * the opcode is fully resolved — one [`Op`] variant per
//!   (operation, type) pair, so execution is a single jump-table
//!   dispatch with no nested operand/type matching,
//! * immediates, kernel parameters, and launch-constant special
//!   registers are interned into a **constant pool** appended to the
//!   register file, making every operand a plain register index,
//! * branch targets are resolved to instruction indices (`Mark`s are
//!   dropped; decoding renumbers consistently, so warp-merge grouping
//!   keys are preserved),
//! * each record carries its issue class and its statically known
//!   number of spilled-register touches (computed once against a spill
//!   **bitset**, replacing the per-instruction `HashSet` probes),
//!
//! and the per-warp scratch (register file, event logs, address
//! buffers) is reused across all blocks of the launch.
//!
//! Warp merging gets a streaming fast path: lanes append only their
//! *addresses* against a shared per-warp prototype event stream, so
//! uniform (and prefix-uniform, e.g. boundary-exit) warps never
//! materialize per-lane `MemEvent` vectors; only genuinely divergent
//! warps reconstruct full logs and fall back to the reference grouping.
//!
//! The engine is **stats- and memory-identical** to the reference
//! interpreter (asserted by differential tests): scalar semantics are
//! shared (`interp::{alu, compare, math, convert, neg, atom_add}`,
//! called with constant operands so the shared dispatch folds away),
//! lanes execute in the same order (so memory side effects are
//! byte-identical), and both warp-merge paths produce the reference
//! partition of accesses into 128-byte transaction groups. Two
//! intentional, error-path-only deviations: parameter slots are
//! validated at decode time (the reference faults lazily on first
//! execution), and dropped `Mark`s no longer count toward the runaway
//! instruction budget.

use crate::interp::{
    account_group_with, alu, compare, convert, math, merge_divergent, neg, operand_bits,
    param_bits, LaneCounts, LaunchConfig, LaunchResult, MemEvent, ParamVal, SimError, FLAG_ATOMIC,
    FLAG_STORE, MAX_INSTS_PER_THREAD, SPACE_GLOBAL, SPACE_LOCAL, SPACE_READONLY,
};
use crate::memory::DeviceMemory;
use crate::stats::KernelStats;
use crate::vir::*;
use std::collections::HashMap;

/// Sentinel for "no second math operand" in [`DInst::b`]. Real register
/// indices are bounded by the virtual-register count plus the constant
/// pool, both far below `u32::MAX`.
pub(crate) const NO_REG: u32 = u32::MAX;

/// Fully resolved opcodes: one variant per (operation, type) pair, so
/// the interpreter loop dispatches through a single jump table and the
/// shared semantics helpers fold to straight-line code under constant
/// arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub(crate) enum Op {
    /// Register (or constant-pool) move.
    Mov,
    /// Logical not.
    Not,
    Ret,
    /// Unconditional branch to `d`.
    Bra,
    /// Branch to `d` when predicate register `a` is true.
    BraT,
    /// Branch to `d` when predicate register `a` is false.
    BraF,
    TidX, TidY, TidZ, CtaX, CtaY, CtaZ,
    LdG1, LdG4, LdG8, LdRo1, LdRo4, LdRo8, LdLoc1, LdLoc4, LdLoc8,
    StG1, StG4, StG8, StRo1, StRo4, StRo8, StLoc1, StLoc4, StLoc8,
    AtomB32, AtomB64, AtomF32, AtomF64, AtomPred,
    AddB32, AddB64, AddF32, AddF64, AddPred, SubB32,
    SubB64, SubF32, SubF64, SubPred, MulB32, MulB64,
    MulF32, MulF64, MulPred, DivB32, DivB64, DivF32,
    DivF64, DivPred, RemB32, RemB64, RemF32, RemF64,
    RemPred, MinB32, MinB64, MinF32, MinF64, MinPred,
    MaxB32, MaxB64, MaxF32, MaxF64, MaxPred, AndB32,
    AndB64, AndF32, AndF64, AndPred, OrB32, OrB64,
    OrF32, OrF64, OrPred, XorB32, XorB64, XorF32,
    XorF64, XorPred, ShlB32, ShlB64, ShlF32, ShlF64,
    ShlPred, ShrB32, ShrB64, ShrF32, ShrF64, ShrPred,
    NegB32, NegB64, NegF32, NegF64, NegPred, SetpLtB32,
    SetpLtB64, SetpLtF32, SetpLtF64, SetpLtPred, SetpLeB32, SetpLeB64,
    SetpLeF32, SetpLeF64, SetpLePred, SetpGtB32, SetpGtB64, SetpGtF32,
    SetpGtF64, SetpGtPred, SetpGeB32, SetpGeB64, SetpGeF32, SetpGeF64,
    SetpGePred, SetpEqB32, SetpEqB64, SetpEqF32, SetpEqF64, SetpEqPred,
    SetpNeB32, SetpNeB64, SetpNeF32, SetpNeF64, SetpNePred, CvtB32B32,
    CvtB64B32, CvtF32B32, CvtF64B32, CvtPredB32, CvtB32B64, CvtB64B64,
    CvtF32B64, CvtF64B64, CvtPredB64, CvtB32F32, CvtB64F32, CvtF32F32,
    CvtF64F32, CvtPredF32, CvtB32F64, CvtB64F64, CvtF32F64, CvtF64F64,
    CvtPredF64, CvtB32Pred, CvtB64Pred, CvtF32Pred, CvtF64Pred, CvtPredPred,
    SqrtB32, SqrtB64, SqrtF32, SqrtF64, SqrtPred, ExpB32,
    ExpB64, ExpF32, ExpF64, ExpPred, LogB32, LogB64,
    LogF32, LogF64, LogPred, SinB32, SinB64, SinF32,
    SinF64, SinPred, CosB32, CosB64, CosF32, CosF64,
    CosPred, AbsB32, AbsB64, AbsF32, AbsF64, AbsPred,
    FloorB32, FloorB64, FloorF32, FloorF64, FloorPred, PowB32,
    PowB64, PowF32, PowF64, PowPred,
}

/// Issue-class codes for [`DInst::cls`]: indices into the per-lane
/// count array (mirroring `interp::count_class` plus `Math` -> SFU and
/// the uncounted `Ret`).
pub(crate) const CLS_SIMPLE: u8 = 0;
pub(crate) const CLS_INT64: u8 = 1;
pub(crate) const CLS_FP64: u8 = 2;
pub(crate) const CLS_SFU: u8 = 3;
pub(crate) const CLS_NONE: u8 = 4;

/// A decoded instruction: 16 bytes, fixed layout. `d`/`a`/`b` are
/// register-file indices (constants live past the virtual registers),
/// except for branches where `d` is the target instruction index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DInst {
    pub(crate) op: Op,
    pub(crate) cls: u8,
    /// Spilled-register touches (uses + def) of this instruction.
    pub(crate) spill: u8,
    pub(crate) d: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

/// A kernel decoded against one launch's parameters and spill set.
pub(crate) struct Decoded {
    /// Virtual-register count; constants occupy indices past this.
    pub(crate) n_vregs: usize,
    /// Interned constant values, indexed by `reg - n_vregs`.
    pub(crate) consts: Vec<u64>,
    pub(crate) insts: Vec<DInst>,
}

fn class_of(ty: VType) -> u8 {
    match ty {
        VType::B64 => CLS_INT64,
        VType::F64 => CLS_FP64,
        _ => CLS_SIMPLE,
    }
}

fn op_alu(op: AluOp, ty: VType) -> Op {
    match (op, ty) {
        (AluOp::Add, VType::B32) => Op::AddB32, (AluOp::Add, VType::B64) => Op::AddB64, (AluOp::Add, VType::F32) => Op::AddF32, (AluOp::Add, VType::F64) => Op::AddF64, (AluOp::Add, VType::Pred) => Op::AddPred,
        (AluOp::Sub, VType::B32) => Op::SubB32, (AluOp::Sub, VType::B64) => Op::SubB64, (AluOp::Sub, VType::F32) => Op::SubF32, (AluOp::Sub, VType::F64) => Op::SubF64, (AluOp::Sub, VType::Pred) => Op::SubPred,
        (AluOp::Mul, VType::B32) => Op::MulB32, (AluOp::Mul, VType::B64) => Op::MulB64, (AluOp::Mul, VType::F32) => Op::MulF32, (AluOp::Mul, VType::F64) => Op::MulF64, (AluOp::Mul, VType::Pred) => Op::MulPred,
        (AluOp::Div, VType::B32) => Op::DivB32, (AluOp::Div, VType::B64) => Op::DivB64, (AluOp::Div, VType::F32) => Op::DivF32, (AluOp::Div, VType::F64) => Op::DivF64, (AluOp::Div, VType::Pred) => Op::DivPred,
        (AluOp::Rem, VType::B32) => Op::RemB32, (AluOp::Rem, VType::B64) => Op::RemB64, (AluOp::Rem, VType::F32) => Op::RemF32, (AluOp::Rem, VType::F64) => Op::RemF64, (AluOp::Rem, VType::Pred) => Op::RemPred,
        (AluOp::Min, VType::B32) => Op::MinB32, (AluOp::Min, VType::B64) => Op::MinB64, (AluOp::Min, VType::F32) => Op::MinF32, (AluOp::Min, VType::F64) => Op::MinF64, (AluOp::Min, VType::Pred) => Op::MinPred,
        (AluOp::Max, VType::B32) => Op::MaxB32, (AluOp::Max, VType::B64) => Op::MaxB64, (AluOp::Max, VType::F32) => Op::MaxF32, (AluOp::Max, VType::F64) => Op::MaxF64, (AluOp::Max, VType::Pred) => Op::MaxPred,
        (AluOp::And, VType::B32) => Op::AndB32, (AluOp::And, VType::B64) => Op::AndB64, (AluOp::And, VType::F32) => Op::AndF32, (AluOp::And, VType::F64) => Op::AndF64, (AluOp::And, VType::Pred) => Op::AndPred,
        (AluOp::Or, VType::B32) => Op::OrB32, (AluOp::Or, VType::B64) => Op::OrB64, (AluOp::Or, VType::F32) => Op::OrF32, (AluOp::Or, VType::F64) => Op::OrF64, (AluOp::Or, VType::Pred) => Op::OrPred,
        (AluOp::Xor, VType::B32) => Op::XorB32, (AluOp::Xor, VType::B64) => Op::XorB64, (AluOp::Xor, VType::F32) => Op::XorF32, (AluOp::Xor, VType::F64) => Op::XorF64, (AluOp::Xor, VType::Pred) => Op::XorPred,
        (AluOp::Shl, VType::B32) => Op::ShlB32, (AluOp::Shl, VType::B64) => Op::ShlB64, (AluOp::Shl, VType::F32) => Op::ShlF32, (AluOp::Shl, VType::F64) => Op::ShlF64, (AluOp::Shl, VType::Pred) => Op::ShlPred,
        (AluOp::Shr, VType::B32) => Op::ShrB32, (AluOp::Shr, VType::B64) => Op::ShrB64, (AluOp::Shr, VType::F32) => Op::ShrF32, (AluOp::Shr, VType::F64) => Op::ShrF64, (AluOp::Shr, VType::Pred) => Op::ShrPred,
    }
}

fn op_neg(ty: VType) -> Op {
    match ty {
        VType::B32 => Op::NegB32, VType::B64 => Op::NegB64, VType::F32 => Op::NegF32, VType::F64 => Op::NegF64, VType::Pred => Op::NegPred,
    }
}

fn op_setp(op: CmpOp, ty: VType) -> Op {
    match (op, ty) {
        (CmpOp::Lt, VType::B32) => Op::SetpLtB32, (CmpOp::Lt, VType::B64) => Op::SetpLtB64, (CmpOp::Lt, VType::F32) => Op::SetpLtF32, (CmpOp::Lt, VType::F64) => Op::SetpLtF64, (CmpOp::Lt, VType::Pred) => Op::SetpLtPred,
        (CmpOp::Le, VType::B32) => Op::SetpLeB32, (CmpOp::Le, VType::B64) => Op::SetpLeB64, (CmpOp::Le, VType::F32) => Op::SetpLeF32, (CmpOp::Le, VType::F64) => Op::SetpLeF64, (CmpOp::Le, VType::Pred) => Op::SetpLePred,
        (CmpOp::Gt, VType::B32) => Op::SetpGtB32, (CmpOp::Gt, VType::B64) => Op::SetpGtB64, (CmpOp::Gt, VType::F32) => Op::SetpGtF32, (CmpOp::Gt, VType::F64) => Op::SetpGtF64, (CmpOp::Gt, VType::Pred) => Op::SetpGtPred,
        (CmpOp::Ge, VType::B32) => Op::SetpGeB32, (CmpOp::Ge, VType::B64) => Op::SetpGeB64, (CmpOp::Ge, VType::F32) => Op::SetpGeF32, (CmpOp::Ge, VType::F64) => Op::SetpGeF64, (CmpOp::Ge, VType::Pred) => Op::SetpGePred,
        (CmpOp::Eq, VType::B32) => Op::SetpEqB32, (CmpOp::Eq, VType::B64) => Op::SetpEqB64, (CmpOp::Eq, VType::F32) => Op::SetpEqF32, (CmpOp::Eq, VType::F64) => Op::SetpEqF64, (CmpOp::Eq, VType::Pred) => Op::SetpEqPred,
        (CmpOp::Ne, VType::B32) => Op::SetpNeB32, (CmpOp::Ne, VType::B64) => Op::SetpNeB64, (CmpOp::Ne, VType::F32) => Op::SetpNeF32, (CmpOp::Ne, VType::F64) => Op::SetpNeF64, (CmpOp::Ne, VType::Pred) => Op::SetpNePred,
    }
}

fn op_cvt(aty: VType, dty: VType) -> Op {
    match (aty, dty) {
        (VType::B32, VType::B32) => Op::CvtB32B32, (VType::B64, VType::B32) => Op::CvtB64B32, (VType::F32, VType::B32) => Op::CvtF32B32, (VType::F64, VType::B32) => Op::CvtF64B32, (VType::Pred, VType::B32) => Op::CvtPredB32,
        (VType::B32, VType::B64) => Op::CvtB32B64, (VType::B64, VType::B64) => Op::CvtB64B64, (VType::F32, VType::B64) => Op::CvtF32B64, (VType::F64, VType::B64) => Op::CvtF64B64, (VType::Pred, VType::B64) => Op::CvtPredB64,
        (VType::B32, VType::F32) => Op::CvtB32F32, (VType::B64, VType::F32) => Op::CvtB64F32, (VType::F32, VType::F32) => Op::CvtF32F32, (VType::F64, VType::F32) => Op::CvtF64F32, (VType::Pred, VType::F32) => Op::CvtPredF32,
        (VType::B32, VType::F64) => Op::CvtB32F64, (VType::B64, VType::F64) => Op::CvtB64F64, (VType::F32, VType::F64) => Op::CvtF32F64, (VType::F64, VType::F64) => Op::CvtF64F64, (VType::Pred, VType::F64) => Op::CvtPredF64,
        (VType::B32, VType::Pred) => Op::CvtB32Pred, (VType::B64, VType::Pred) => Op::CvtB64Pred, (VType::F32, VType::Pred) => Op::CvtF32Pred, (VType::F64, VType::Pred) => Op::CvtF64Pred, (VType::Pred, VType::Pred) => Op::CvtPredPred,
    }
}

fn op_math(op: MathOp, ty: VType) -> Op {
    match (op, ty) {
        (MathOp::Sqrt, VType::B32) => Op::SqrtB32, (MathOp::Sqrt, VType::B64) => Op::SqrtB64, (MathOp::Sqrt, VType::F32) => Op::SqrtF32, (MathOp::Sqrt, VType::F64) => Op::SqrtF64, (MathOp::Sqrt, VType::Pred) => Op::SqrtPred,
        (MathOp::Exp, VType::B32) => Op::ExpB32, (MathOp::Exp, VType::B64) => Op::ExpB64, (MathOp::Exp, VType::F32) => Op::ExpF32, (MathOp::Exp, VType::F64) => Op::ExpF64, (MathOp::Exp, VType::Pred) => Op::ExpPred,
        (MathOp::Log, VType::B32) => Op::LogB32, (MathOp::Log, VType::B64) => Op::LogB64, (MathOp::Log, VType::F32) => Op::LogF32, (MathOp::Log, VType::F64) => Op::LogF64, (MathOp::Log, VType::Pred) => Op::LogPred,
        (MathOp::Sin, VType::B32) => Op::SinB32, (MathOp::Sin, VType::B64) => Op::SinB64, (MathOp::Sin, VType::F32) => Op::SinF32, (MathOp::Sin, VType::F64) => Op::SinF64, (MathOp::Sin, VType::Pred) => Op::SinPred,
        (MathOp::Cos, VType::B32) => Op::CosB32, (MathOp::Cos, VType::B64) => Op::CosB64, (MathOp::Cos, VType::F32) => Op::CosF32, (MathOp::Cos, VType::F64) => Op::CosF64, (MathOp::Cos, VType::Pred) => Op::CosPred,
        (MathOp::Abs, VType::B32) => Op::AbsB32, (MathOp::Abs, VType::B64) => Op::AbsB64, (MathOp::Abs, VType::F32) => Op::AbsF32, (MathOp::Abs, VType::F64) => Op::AbsF64, (MathOp::Abs, VType::Pred) => Op::AbsPred,
        (MathOp::Floor, VType::B32) => Op::FloorB32, (MathOp::Floor, VType::B64) => Op::FloorB64, (MathOp::Floor, VType::F32) => Op::FloorF32, (MathOp::Floor, VType::F64) => Op::FloorF64, (MathOp::Floor, VType::Pred) => Op::FloorPred,
        (MathOp::Pow, VType::B32) => Op::PowB32, (MathOp::Pow, VType::B64) => Op::PowB64, (MathOp::Pow, VType::F32) => Op::PowF32, (MathOp::Pow, VType::F64) => Op::PowF64, (MathOp::Pow, VType::Pred) => Op::PowPred,
    }
}

fn op_ld(space: MemSpace, bytes: u32) -> Op {
    match (space, bytes) {
        (MemSpace::Global, 1) => Op::LdG1,
        (MemSpace::Global, 4) => Op::LdG4,
        (MemSpace::Global, _) => Op::LdG8,
        (MemSpace::ReadOnly, 1) => Op::LdRo1,
        (MemSpace::ReadOnly, 4) => Op::LdRo4,
        (MemSpace::ReadOnly, _) => Op::LdRo8,
        (MemSpace::Local, 1) => Op::LdLoc1,
        (MemSpace::Local, 4) => Op::LdLoc4,
        (MemSpace::Local, _) => Op::LdLoc8,
    }
}

fn op_st(space: MemSpace, bytes: u32) -> Op {
    match (space, bytes) {
        (MemSpace::Global, 1) => Op::StG1,
        (MemSpace::Global, 4) => Op::StG4,
        (MemSpace::Global, _) => Op::StG8,
        (MemSpace::ReadOnly, 1) => Op::StRo1,
        (MemSpace::ReadOnly, 4) => Op::StRo4,
        (MemSpace::ReadOnly, _) => Op::StRo8,
        (MemSpace::Local, 1) => Op::StLoc1,
        (MemSpace::Local, 4) => Op::StLoc4,
        (MemSpace::Local, _) => Op::StLoc8,
    }
}

fn op_atom(ty: VType) -> Op {
    match ty {
        VType::B32 => Op::AtomB32,
        VType::B64 => Op::AtomB64,
        VType::F32 => Op::AtomF32,
        VType::F64 => Op::AtomF64,
        VType::Pred => Op::AtomPred,
    }
}

/// Interns constant bit patterns into the register file past the
/// virtual registers, deduplicating by value (immediates are
/// pre-converted to their use-site type's bit pattern, so equal bits
/// are interchangeable).
struct ConstPool {
    base: u32,
    map: HashMap<u64, u32>,
    vals: Vec<u64>,
}

impl ConstPool {
    fn intern(&mut self, bits: u64) -> u32 {
        if let Some(&r) = self.map.get(&bits) {
            return r;
        }
        let r = self.base + self.vals.len() as u32;
        self.vals.push(bits);
        self.map.insert(bits, r);
        r
    }

    /// Resolve an operand at use-site type `ty` to a register index.
    fn operand(&mut self, op: &Operand, ty: VType) -> u32 {
        match op {
            Operand::Reg(r) => r.0,
            imm => self.intern(operand_bits(imm, &[], ty)),
        }
    }
}

/// Decode `kernel` for one launch. Branch validation mirrors the
/// reference interpreter; parameters are resolved (and therefore
/// type-checked) eagerly.
pub(crate) fn decode(
    kernel: &KernelVir,
    config: &LaunchConfig,
    params: &[ParamVal],
    spilled: &[VReg],
) -> Result<Decoded, SimError> {
    let labels = kernel.label_positions();
    for inst in &kernel.insts {
        if let Inst::Bra { target, .. } = inst {
            if labels.get(target.0 as usize).copied().flatten().is_none() {
                return Err(SimError::Malformed(format!("branch to undefined label L{}", target.0)));
            }
        }
    }

    // Spill bitset over vreg ids (ids index `kernel.vregs`).
    let n_vregs = kernel.vregs.len();
    let mut spillbits = vec![0u64; n_vregs.div_ceil(64)];
    for r in spilled {
        let i = r.0 as usize;
        if i < n_vregs {
            spillbits[i / 64] |= 1 << (i % 64);
        }
    }
    let is_spilled = |r: VReg| {
        let i = r.0 as usize;
        i < n_vregs && spillbits[i / 64] & (1 << (i % 64)) != 0
    };

    // Original pc -> decoded index (Marks collapse onto their successor).
    let mut pc_map = vec![0u32; kernel.insts.len() + 1];
    let mut di = 0u32;
    for (i, inst) in kernel.insts.iter().enumerate() {
        pc_map[i] = di;
        if !matches!(inst, Inst::Mark(_)) {
            di += 1;
        }
    }
    pc_map[kernel.insts.len()] = di;

    let mut pool = ConstPool { base: n_vregs as u32, map: HashMap::new(), vals: Vec::new() };
    let mut insts = Vec::with_capacity(di as usize);
    for inst in &kernel.insts {
        // (op, cls, d, a, b)
        let (op, cls, d, a, b) = match inst {
            Inst::Mark(_) => continue,
            Inst::Mov { ty, d, a } => {
                (Op::Mov, CLS_SIMPLE, d.0, pool.operand(a, *ty), 0)
            }
            Inst::Alu { op, ty, d, a, b } => (
                op_alu(*op, *ty),
                class_of(*ty),
                d.0,
                pool.operand(a, *ty),
                pool.operand(b, *ty),
            ),
            Inst::Neg { ty, d, a } => {
                (op_neg(*ty), class_of(*ty), d.0, pool.operand(a, *ty), 0)
            }
            Inst::Not { d, a } => (Op::Not, CLS_SIMPLE, d.0, a.0, 0),
            Inst::Cvt { dty, d, aty, a } => {
                (op_cvt(*aty, *dty), class_of(*dty), d.0, pool.operand(a, *aty), 0)
            }
            Inst::Setp { op, ty, d, a, b } => (
                op_setp(*op, *ty),
                CLS_SIMPLE,
                d.0,
                pool.operand(a, *ty),
                pool.operand(b, *ty),
            ),
            Inst::Math { op, ty, d, a, b } => (
                op_math(*op, *ty),
                CLS_SFU,
                d.0,
                pool.operand(a, *ty),
                b.as_ref().map_or(NO_REG, |b| pool.operand(b, *ty)),
            ),
            Inst::Ld { space, ty, d, addr } => {
                (op_ld(*space, ty.size_bytes()), CLS_SIMPLE, d.0, addr.0, 0)
            }
            Inst::St { space, ty, addr, a } => (
                op_st(*space, ty.size_bytes()),
                CLS_SIMPLE,
                0,
                addr.0,
                pool.operand(a, *ty),
            ),
            Inst::LdParam { ty, d, index } => {
                let p = params.get(*index as usize).ok_or_else(|| {
                    SimError::Malformed(format!("param index {index} out of range"))
                })?;
                (Op::Mov, CLS_SIMPLE, d.0, pool.intern(param_bits(p, *ty)?), 0)
            }
            Inst::Special { d, r } => {
                let axis = |i: u8| -> usize {
                    match i {
                        0 => 0,
                        1 => 1,
                        _ => 2,
                    }
                };
                match r {
                    SpecialReg::Tid(i) => {
                        ([Op::TidX, Op::TidY, Op::TidZ][axis(*i)], CLS_SIMPLE, d.0, 0, 0)
                    }
                    SpecialReg::CtaId(i) => {
                        ([Op::CtaX, Op::CtaY, Op::CtaZ][axis(*i)], CLS_SIMPLE, d.0, 0, 0)
                    }
                    SpecialReg::NTid(i) => {
                        let v = [config.block.0, config.block.1, config.block.2][axis(*i)];
                        (Op::Mov, CLS_SIMPLE, d.0, pool.intern(v as u64), 0)
                    }
                    SpecialReg::NCtaId(i) => {
                        let v = [config.grid.0, config.grid.1, config.grid.2][axis(*i)];
                        (Op::Mov, CLS_SIMPLE, d.0, pool.intern(v as u64), 0)
                    }
                }
            }
            Inst::Bra { target, pred } => {
                let orig = labels[target.0 as usize].expect("validated above");
                match pred {
                    None => (Op::Bra, CLS_SIMPLE, pc_map[orig], 0, 0),
                    Some((p, true)) => (Op::BraT, CLS_SIMPLE, pc_map[orig], p.0, 0),
                    Some((p, false)) => (Op::BraF, CLS_SIMPLE, pc_map[orig], p.0, 0),
                }
            }
            Inst::AtomAdd { ty, addr, a } => {
                (op_atom(*ty), CLS_SIMPLE, 0, addr.0, pool.operand(a, *ty))
            }
            Inst::Ret => (Op::Ret, CLS_NONE, 0, 0, 0),
        };
        let mut spill = inst.uses().iter().filter(|r| is_spilled(**r)).count();
        if let Some(dreg) = inst.def() {
            if is_spilled(dreg) {
                spill += 1;
            }
        }
        insts.push(DInst { op, cls, spill: spill as u8, d, a, b });
    }

    Ok(Decoded { n_vregs, consts: pool.vals, insts })
}

pub(crate) const WARP_SIZE: usize = 32;

/// Per-warp streaming merge state, reused across all warps of a launch.
///
/// Fed by lane-major execution only — the decoded engine, and the
/// superblock engine's profile warps and peeled lanes — through
/// [`WarpMerge::log`], one event per lane per access, grouped into
/// warp-level requests at warp end by [`WarpMerge::merge`]. The
/// superblock engine's lockstep path already has a warp's addresses
/// together and accounts them on the spot with
/// [`WarpMerge::account_now`], which touches none of the per-lane state.
///
/// While no divergence has been observed, lanes append only addresses
/// (`lane_addrs`) against the shared `proto` event stream — a lane that
/// runs past the prototype extends it (prefix-matching shorter lanes
/// group identically to the reference `(inst, occurrence)` alignment).
/// Prototype comparison is by instruction index alone: a decoded pc
/// uniquely determines the event's width and space. On the first
/// mismatch the warp is marked diverged: the offending lane (and any
/// lane that later mismatches) logs full events into its `tail`, and
/// the merge reconstructs per-lane logs and reuses the reference
/// divergent grouping.
pub(crate) struct WarpMerge {
    proto: Vec<MemEvent>,
    lane_addrs: Vec<Vec<u64>>,
    tails: Vec<Vec<MemEvent>>,
    diverged: bool,
    gather: Vec<u64>,
    segs: Vec<u64>,
    /// Lane events taken by [`WarpMerge::log`] since construction.
    pub(crate) events_logged: u64,
    /// Groups accounted by [`WarpMerge::account_now`] since construction.
    pub(crate) groups_accounted: u64,
}

impl WarpMerge {
    pub(crate) fn new() -> Self {
        WarpMerge {
            proto: Vec::new(),
            lane_addrs: (0..WARP_SIZE).map(|_| Vec::with_capacity(64)).collect(),
            tails: (0..WARP_SIZE).map(|_| Vec::new()).collect(),
            diverged: false,
            gather: Vec::with_capacity(WARP_SIZE),
            segs: Vec::with_capacity(2 * WARP_SIZE),
            events_logged: 0,
            groups_accounted: 0,
        }
    }

    pub(crate) fn begin_warp(&mut self) {
        self.proto.clear();
        for a in &mut self.lane_addrs {
            a.clear();
        }
        for t in &mut self.tails {
            t.clear();
        }
        self.diverged = false;
    }

    /// True once any lane has logged an event in the current warp.
    pub(crate) fn any_logged(&self) -> bool {
        // The first event of a warp always extends the prototype.
        !self.proto.is_empty()
    }

    /// Account one warp-level access group immediately, bypassing the
    /// per-lane logs: `addrs` holds the address of every lane taking part
    /// in the access (one address stands for the warp when all are equal).
    /// A group that is never merged needs no instruction key.
    #[inline]
    pub(crate) fn account_now(
        &mut self,
        bytes: u8,
        space_store: u8,
        addrs: &[u64],
        stats: &mut KernelStats,
    ) {
        self.groups_accounted += 1;
        let ev = MemEvent { inst: 0, addr: 0, bytes, space_store };
        account_group_with(ev, addrs, &mut self.segs, stats);
    }

    #[inline]
    pub(crate) fn log(&mut self, lane: usize, ev: MemEvent) {
        self.events_logged += 1;
        if !self.tails[lane].is_empty() {
            self.tails[lane].push(ev);
            return;
        }
        let cursor = self.lane_addrs[lane].len();
        if cursor < self.proto.len() {
            if self.proto[cursor].inst == ev.inst {
                self.lane_addrs[lane].push(ev.addr);
            } else {
                self.diverged = true;
                self.tails[lane].push(ev);
            }
        } else if !self.diverged {
            // First lane to reach this depth extends the prototype.
            self.proto.push(ev);
            self.lane_addrs[lane].push(ev.addr);
        } else {
            self.tails[lane].push(ev);
        }
    }

    pub(crate) fn merge(&mut self, lanes: usize, stats: &mut KernelStats) {
        if !self.diverged {
            // Streaming path: event `i` groups the addresses of every
            // lane that logged at least `i+1` events — identical to the
            // reference `(inst, occurrence)` partition for
            // prefix-matching lanes.
            for (i, ev) in self.proto.iter().enumerate() {
                self.gather.clear();
                for addrs in &self.lane_addrs[..lanes] {
                    if let Some(&a) = addrs.get(i) {
                        self.gather.push(a);
                    }
                }
                if !self.gather.is_empty() {
                    account_group_with(*ev, &self.gather, &mut self.segs, stats);
                }
            }
            return;
        }
        // Divergent fallback: reconstruct each lane's full log
        // (prototype prefix + tail) and use the reference grouping.
        let logs: Vec<Vec<MemEvent>> = (0..lanes)
            .map(|l| {
                let prefix = self.lane_addrs[l].iter().enumerate().map(|(i, &a)| {
                    let mut ev = self.proto[i];
                    ev.addr = a;
                    ev
                });
                prefix.chain(self.tails[l].iter().copied()).collect()
            })
            .collect();
        merge_divergent(&logs, stats);
    }
}

/// Execute a kernel launch on the pre-decoded engine. Public entry is
/// [`crate::interp::launch`] with [`crate::interp::Engine::Decoded`]
/// selected.
pub(crate) fn launch_decoded(
    kernel: &KernelVir,
    config: &LaunchConfig,
    params: &[ParamVal],
    mem: &mut DeviceMemory,
    spilled: &[VReg],
) -> Result<LaunchResult, SimError> {
    if params.len() != kernel.params.len() {
        return Err(SimError::Malformed(format!(
            "kernel `{}` expects {} params, got {}",
            kernel.name,
            kernel.params.len(),
            params.len()
        )));
    }
    let decoded = decode(kernel, config, params, spilled)?;

    let mut stats = KernelStats::default();
    // Launch-lifetime scratch, reused across every warp of every block.
    let mut scratch = BlockScratch::new(&decoded);
    // Linear block ids enumerate the grid in the historical z→y→x
    // nesting order.
    for b in 0..config.total_blocks() {
        run_block(&decoded, &kernel.name, config, b, mem, &mut scratch, &mut stats)?;
    }
    Ok(LaunchResult { stats })
}

/// Launch execution scratch: the flat register file (constants live
/// past the virtual registers and are written once), the warp
/// transaction-merge buffers, and the per-lane issue counters.
struct BlockScratch {
    regs: Vec<u64>,
    warp: WarpMerge,
    lane_counts: [LaneCounts; WARP_SIZE],
}

impl BlockScratch {
    fn new(d: &Decoded) -> Self {
        let mut regs = vec![0u64; d.n_vregs + d.consts.len()];
        regs[d.n_vregs..].copy_from_slice(&d.consts);
        BlockScratch { regs, warp: WarpMerge::new(), lane_counts: [LaneCounts::default(); WARP_SIZE] }
    }
}

/// Execute one block (linear id `block`, z→y→x order) and accumulate its
/// warps into `stats`.
fn run_block(
    d: &Decoded,
    kernel_name: &str,
    config: &LaunchConfig,
    block: u64,
    mem: &mut DeviceMemory,
    s: &mut BlockScratch,
    stats: &mut KernelStats,
) -> Result<(), SimError> {
    let (gx, gy) = (config.grid.0 as u64, config.grid.1 as u64);
    let bx = (block % gx) as u32;
    let by = ((block / gx) % gy) as u32;
    let bz = (block / (gx * gy)) as u32;
    let tpb = config.threads_per_block();
    let mut linear = 0u32;
    while linear < tpb {
        let lanes_in_warp = (tpb - linear).min(WARP_SIZE as u32);
        s.warp.begin_warp();
        for lane in 0..lanes_in_warp {
            let t = linear + lane;
            let tx = t % config.block.0;
            let ty = (t / config.block.0) % config.block.1;
            let tz = t / (config.block.0 * config.block.1);
            s.lane_counts[lane as usize] = run_lane::<false>(
                d,
                kernel_name,
                [tx, ty, tz, bx, by, bz],
                mem,
                &mut s.regs,
                lane as usize,
                &mut s.warp,
                0,
                true,
                ExecSeed::default(),
                None,
            )?;
        }
        // Issue counts: per-class max across lanes (as the reference
        // `merge_warp` does), then the streaming transaction merge.
        let mut wc = LaneCounts::default();
        for lc in &s.lane_counts[..lanes_in_warp as usize] {
            wc.max_with(lc);
        }
        stats.simple_insts += wc.simple;
        stats.int64_insts += wc.int64;
        stats.fp64_insts += wc.fp64;
        stats.sfu_insts += wc.sfu;
        stats.local_accesses += wc.spill_touches;
        s.warp.merge(lanes_in_warp as usize, stats);
        stats.warps += 1;
        stats.threads += lanes_in_warp as u64;
        linear += lanes_in_warp;
    }
    Ok(())
}

/// Counter seeds for [`run_lane`]: zero for a fresh lane, or the
/// lockstep-common prefix when the superblock engine peels a lane
/// mid-kernel.
#[derive(Clone, Copy, Default)]
pub(crate) struct ExecSeed {
    pub(crate) executed: u64,
    pub(crate) cnt: [u64; 8],
    pub(crate) spill: u64,
}

/// One lane, from `start_pc` to completion, over the lane's flat register
/// file. `PROF` compiles in the superblock profiler's block/branch
/// counters; it folds away for the `<false>` instantiation.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_lane<const PROF: bool>(
    d: &Decoded,
    kernel_name: &str,
    ids: [u32; 6], // tid.xyz, ctaid.xyz
    mem: &mut DeviceMemory,
    regs: &mut [u64],
    lane: usize,
    warp: &mut WarpMerge,
    start_pc: usize,
    zero_init: bool,
    seed: ExecSeed,
    mut prof: Option<&mut crate::superblock::ProfileCounters>,
) -> Result<LaneCounts, SimError> {
    let ix = |r: u32| r as usize;
    if zero_init {
        regs[..d.n_vregs].fill(0);
    }
    let insts = &d.insts;
    let mut pc = start_pc;
    let mut executed = seed.executed;
    // Per-class issue counts, indexed by `DInst::cls` (masked so the
    // compiler drops the bounds check; `CLS_NONE` lands in a dead slot).
    let mut cnt = seed.cnt;
    let mut spill_touches = seed.spill;

    while pc < insts.len() {
        if PROF {
            if let Some(p) = prof.as_deref_mut() {
                let b = p.leader_block[pc];
                if b != 0 {
                    p.counts[b as usize - 1] += 1;
                }
            }
        }
        executed += 1;
        if executed > MAX_INSTS_PER_THREAD {
            return Err(SimError::Runaway { kernel: kernel_name.to_string() });
        }
        let i = insts[pc];
        cnt[(i.cls & 7) as usize] += 1;
        spill_touches += i.spill as u64;
        match i.op {
            Op::Mov => regs[ix(i.d)] = regs[ix(i.a)],
            Op::Not => regs[ix(i.d)] = u64::from(regs[ix(i.a)] == 0),
            Op::Ret => break,
            Op::Bra => {
                pc = i.d as usize;
                continue;
            }
            Op::BraT => {
                let t = regs[ix(i.a)] != 0;
                if PROF {
                    if let Some(p) = prof.as_deref_mut() {
                        p.seen[pc] += 1;
                        p.taken[pc] += t as u64;
                    }
                }
                if t {
                    pc = i.d as usize;
                    continue;
                }
            }
            Op::BraF => {
                let t = regs[ix(i.a)] == 0;
                if PROF {
                    if let Some(p) = prof.as_deref_mut() {
                        p.seen[pc] += 1;
                        p.taken[pc] += t as u64;
                    }
                }
                if t {
                    pc = i.d as usize;
                    continue;
                }
            }
            Op::TidX => regs[ix(i.d)] = ids[0] as u64,
            Op::TidY => regs[ix(i.d)] = ids[1] as u64,
            Op::TidZ => regs[ix(i.d)] = ids[2] as u64,
            Op::CtaX => regs[ix(i.d)] = ids[3] as u64,
            Op::CtaY => regs[ix(i.d)] = ids[4] as u64,
            Op::CtaZ => regs[ix(i.d)] = ids[5] as u64,
            Op::LdG1 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 1, SPACE_GLOBAL)?,
            Op::LdG4 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 4, SPACE_GLOBAL)?,
            Op::LdG8 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 8, SPACE_GLOBAL)?,
            Op::LdRo1 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 1, SPACE_READONLY)?,
            Op::LdRo4 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 4, SPACE_READONLY)?,
            Op::LdRo8 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 8, SPACE_READONLY)?,
            Op::LdLoc1 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 1, SPACE_LOCAL)?,
            Op::LdLoc4 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 4, SPACE_LOCAL)?,
            Op::LdLoc8 => ld(regs, mem, warp, lane, pc, ix(i.d), ix(i.a), 8, SPACE_LOCAL)?,
            Op::StG1 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 1, SPACE_GLOBAL | FLAG_STORE)?,
            Op::StG4 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 4, SPACE_GLOBAL | FLAG_STORE)?,
            Op::StG8 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 8, SPACE_GLOBAL | FLAG_STORE)?,
            Op::StRo1 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 1, SPACE_READONLY | FLAG_STORE)?,
            Op::StRo4 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 4, SPACE_READONLY | FLAG_STORE)?,
            Op::StRo8 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 8, SPACE_READONLY | FLAG_STORE)?,
            Op::StLoc1 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 1, SPACE_LOCAL | FLAG_STORE)?,
            Op::StLoc4 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 4, SPACE_LOCAL | FLAG_STORE)?,
            Op::StLoc8 => st(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), 8, SPACE_LOCAL | FLAG_STORE)?,
            Op::AtomB32 => atom(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), VType::B32)?,
            Op::AtomB64 => atom(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), VType::B64)?,
            Op::AtomF32 => atom(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), VType::F32)?,
            Op::AtomF64 => atom(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), VType::F64)?,
            Op::AtomPred => atom(regs, mem, warp, lane, pc, ix(i.a), ix(i.b), VType::Pred)?,
            Op::AddB32 => regs[ix(i.d)] = alu(AluOp::Add, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AddB64 => regs[ix(i.d)] = alu(AluOp::Add, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AddF32 => regs[ix(i.d)] = alu(AluOp::Add, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AddF64 => regs[ix(i.d)] = alu(AluOp::Add, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AddPred => regs[ix(i.d)] = alu(AluOp::Add, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::SubB32 => regs[ix(i.d)] = alu(AluOp::Sub, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::SubB64 => regs[ix(i.d)] = alu(AluOp::Sub, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::SubF32 => regs[ix(i.d)] = alu(AluOp::Sub, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::SubF64 => regs[ix(i.d)] = alu(AluOp::Sub, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::SubPred => regs[ix(i.d)] = alu(AluOp::Sub, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MulB32 => regs[ix(i.d)] = alu(AluOp::Mul, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MulB64 => regs[ix(i.d)] = alu(AluOp::Mul, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MulF32 => regs[ix(i.d)] = alu(AluOp::Mul, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MulF64 => regs[ix(i.d)] = alu(AluOp::Mul, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MulPred => regs[ix(i.d)] = alu(AluOp::Mul, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::DivB32 => regs[ix(i.d)] = alu(AluOp::Div, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::DivB64 => regs[ix(i.d)] = alu(AluOp::Div, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::DivF32 => regs[ix(i.d)] = alu(AluOp::Div, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::DivF64 => regs[ix(i.d)] = alu(AluOp::Div, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::DivPred => regs[ix(i.d)] = alu(AluOp::Div, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::RemB32 => regs[ix(i.d)] = alu(AluOp::Rem, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::RemB64 => regs[ix(i.d)] = alu(AluOp::Rem, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::RemF32 => regs[ix(i.d)] = alu(AluOp::Rem, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::RemF64 => regs[ix(i.d)] = alu(AluOp::Rem, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::RemPred => regs[ix(i.d)] = alu(AluOp::Rem, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MinB32 => regs[ix(i.d)] = alu(AluOp::Min, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MinB64 => regs[ix(i.d)] = alu(AluOp::Min, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MinF32 => regs[ix(i.d)] = alu(AluOp::Min, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MinF64 => regs[ix(i.d)] = alu(AluOp::Min, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MinPred => regs[ix(i.d)] = alu(AluOp::Min, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MaxB32 => regs[ix(i.d)] = alu(AluOp::Max, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MaxB64 => regs[ix(i.d)] = alu(AluOp::Max, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MaxF32 => regs[ix(i.d)] = alu(AluOp::Max, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MaxF64 => regs[ix(i.d)] = alu(AluOp::Max, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::MaxPred => regs[ix(i.d)] = alu(AluOp::Max, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AndB32 => regs[ix(i.d)] = alu(AluOp::And, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AndB64 => regs[ix(i.d)] = alu(AluOp::And, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AndF32 => regs[ix(i.d)] = alu(AluOp::And, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AndF64 => regs[ix(i.d)] = alu(AluOp::And, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::AndPred => regs[ix(i.d)] = alu(AluOp::And, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::OrB32 => regs[ix(i.d)] = alu(AluOp::Or, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::OrB64 => regs[ix(i.d)] = alu(AluOp::Or, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::OrF32 => regs[ix(i.d)] = alu(AluOp::Or, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::OrF64 => regs[ix(i.d)] = alu(AluOp::Or, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::OrPred => regs[ix(i.d)] = alu(AluOp::Or, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::XorB32 => regs[ix(i.d)] = alu(AluOp::Xor, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::XorB64 => regs[ix(i.d)] = alu(AluOp::Xor, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::XorF32 => regs[ix(i.d)] = alu(AluOp::Xor, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::XorF64 => regs[ix(i.d)] = alu(AluOp::Xor, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::XorPred => regs[ix(i.d)] = alu(AluOp::Xor, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShlB32 => regs[ix(i.d)] = alu(AluOp::Shl, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShlB64 => regs[ix(i.d)] = alu(AluOp::Shl, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShlF32 => regs[ix(i.d)] = alu(AluOp::Shl, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShlF64 => regs[ix(i.d)] = alu(AluOp::Shl, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShlPred => regs[ix(i.d)] = alu(AluOp::Shl, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShrB32 => regs[ix(i.d)] = alu(AluOp::Shr, VType::B32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShrB64 => regs[ix(i.d)] = alu(AluOp::Shr, VType::B64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShrF32 => regs[ix(i.d)] = alu(AluOp::Shr, VType::F32, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShrF64 => regs[ix(i.d)] = alu(AluOp::Shr, VType::F64, regs[ix(i.a)], regs[ix(i.b)]),
            Op::ShrPred => regs[ix(i.d)] = alu(AluOp::Shr, VType::Pred, regs[ix(i.a)], regs[ix(i.b)]),
            Op::NegB32 => regs[ix(i.d)] = neg(VType::B32, regs[ix(i.a)]),
            Op::NegB64 => regs[ix(i.d)] = neg(VType::B64, regs[ix(i.a)]),
            Op::NegF32 => regs[ix(i.d)] = neg(VType::F32, regs[ix(i.a)]),
            Op::NegF64 => regs[ix(i.d)] = neg(VType::F64, regs[ix(i.a)]),
            Op::NegPred => regs[ix(i.d)] = neg(VType::Pred, regs[ix(i.a)]),
            Op::SetpLtB32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Lt, VType::B32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLtB64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Lt, VType::B64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLtF32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Lt, VType::F32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLtF64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Lt, VType::F64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLtPred => regs[ix(i.d)] = u64::from(compare(CmpOp::Lt, VType::Pred, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLeB32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Le, VType::B32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLeB64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Le, VType::B64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLeF32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Le, VType::F32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLeF64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Le, VType::F64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpLePred => regs[ix(i.d)] = u64::from(compare(CmpOp::Le, VType::Pred, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGtB32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Gt, VType::B32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGtB64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Gt, VType::B64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGtF32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Gt, VType::F32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGtF64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Gt, VType::F64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGtPred => regs[ix(i.d)] = u64::from(compare(CmpOp::Gt, VType::Pred, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGeB32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Ge, VType::B32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGeB64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Ge, VType::B64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGeF32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Ge, VType::F32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGeF64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Ge, VType::F64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpGePred => regs[ix(i.d)] = u64::from(compare(CmpOp::Ge, VType::Pred, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpEqB32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Eq, VType::B32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpEqB64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Eq, VType::B64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpEqF32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Eq, VType::F32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpEqF64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Eq, VType::F64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpEqPred => regs[ix(i.d)] = u64::from(compare(CmpOp::Eq, VType::Pred, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpNeB32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Ne, VType::B32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpNeB64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Ne, VType::B64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpNeF32 => regs[ix(i.d)] = u64::from(compare(CmpOp::Ne, VType::F32, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpNeF64 => regs[ix(i.d)] = u64::from(compare(CmpOp::Ne, VType::F64, regs[ix(i.a)], regs[ix(i.b)])),
            Op::SetpNePred => regs[ix(i.d)] = u64::from(compare(CmpOp::Ne, VType::Pred, regs[ix(i.a)], regs[ix(i.b)])),
            Op::CvtB32B32 => regs[ix(i.d)] = convert(VType::B32, VType::B32, regs[ix(i.a)]),
            Op::CvtB64B32 => regs[ix(i.d)] = convert(VType::B64, VType::B32, regs[ix(i.a)]),
            Op::CvtF32B32 => regs[ix(i.d)] = convert(VType::F32, VType::B32, regs[ix(i.a)]),
            Op::CvtF64B32 => regs[ix(i.d)] = convert(VType::F64, VType::B32, regs[ix(i.a)]),
            Op::CvtPredB32 => regs[ix(i.d)] = convert(VType::Pred, VType::B32, regs[ix(i.a)]),
            Op::CvtB32B64 => regs[ix(i.d)] = convert(VType::B32, VType::B64, regs[ix(i.a)]),
            Op::CvtB64B64 => regs[ix(i.d)] = convert(VType::B64, VType::B64, regs[ix(i.a)]),
            Op::CvtF32B64 => regs[ix(i.d)] = convert(VType::F32, VType::B64, regs[ix(i.a)]),
            Op::CvtF64B64 => regs[ix(i.d)] = convert(VType::F64, VType::B64, regs[ix(i.a)]),
            Op::CvtPredB64 => regs[ix(i.d)] = convert(VType::Pred, VType::B64, regs[ix(i.a)]),
            Op::CvtB32F32 => regs[ix(i.d)] = convert(VType::B32, VType::F32, regs[ix(i.a)]),
            Op::CvtB64F32 => regs[ix(i.d)] = convert(VType::B64, VType::F32, regs[ix(i.a)]),
            Op::CvtF32F32 => regs[ix(i.d)] = convert(VType::F32, VType::F32, regs[ix(i.a)]),
            Op::CvtF64F32 => regs[ix(i.d)] = convert(VType::F64, VType::F32, regs[ix(i.a)]),
            Op::CvtPredF32 => regs[ix(i.d)] = convert(VType::Pred, VType::F32, regs[ix(i.a)]),
            Op::CvtB32F64 => regs[ix(i.d)] = convert(VType::B32, VType::F64, regs[ix(i.a)]),
            Op::CvtB64F64 => regs[ix(i.d)] = convert(VType::B64, VType::F64, regs[ix(i.a)]),
            Op::CvtF32F64 => regs[ix(i.d)] = convert(VType::F32, VType::F64, regs[ix(i.a)]),
            Op::CvtF64F64 => regs[ix(i.d)] = convert(VType::F64, VType::F64, regs[ix(i.a)]),
            Op::CvtPredF64 => regs[ix(i.d)] = convert(VType::Pred, VType::F64, regs[ix(i.a)]),
            Op::CvtB32Pred => regs[ix(i.d)] = convert(VType::B32, VType::Pred, regs[ix(i.a)]),
            Op::CvtB64Pred => regs[ix(i.d)] = convert(VType::B64, VType::Pred, regs[ix(i.a)]),
            Op::CvtF32Pred => regs[ix(i.d)] = convert(VType::F32, VType::Pred, regs[ix(i.a)]),
            Op::CvtF64Pred => regs[ix(i.d)] = convert(VType::F64, VType::Pred, regs[ix(i.a)]),
            Op::CvtPredPred => regs[ix(i.d)] = convert(VType::Pred, VType::Pred, regs[ix(i.a)]),
            Op::SqrtB32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sqrt, VType::B32, regs[ix(i.a)], y); }
            Op::SqrtB64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sqrt, VType::B64, regs[ix(i.a)], y); }
            Op::SqrtF32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sqrt, VType::F32, regs[ix(i.a)], y); }
            Op::SqrtF64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sqrt, VType::F64, regs[ix(i.a)], y); }
            Op::SqrtPred => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sqrt, VType::Pred, regs[ix(i.a)], y); }
            Op::ExpB32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Exp, VType::B32, regs[ix(i.a)], y); }
            Op::ExpB64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Exp, VType::B64, regs[ix(i.a)], y); }
            Op::ExpF32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Exp, VType::F32, regs[ix(i.a)], y); }
            Op::ExpF64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Exp, VType::F64, regs[ix(i.a)], y); }
            Op::ExpPred => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Exp, VType::Pred, regs[ix(i.a)], y); }
            Op::LogB32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Log, VType::B32, regs[ix(i.a)], y); }
            Op::LogB64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Log, VType::B64, regs[ix(i.a)], y); }
            Op::LogF32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Log, VType::F32, regs[ix(i.a)], y); }
            Op::LogF64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Log, VType::F64, regs[ix(i.a)], y); }
            Op::LogPred => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Log, VType::Pred, regs[ix(i.a)], y); }
            Op::SinB32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sin, VType::B32, regs[ix(i.a)], y); }
            Op::SinB64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sin, VType::B64, regs[ix(i.a)], y); }
            Op::SinF32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sin, VType::F32, regs[ix(i.a)], y); }
            Op::SinF64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sin, VType::F64, regs[ix(i.a)], y); }
            Op::SinPred => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Sin, VType::Pred, regs[ix(i.a)], y); }
            Op::CosB32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Cos, VType::B32, regs[ix(i.a)], y); }
            Op::CosB64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Cos, VType::B64, regs[ix(i.a)], y); }
            Op::CosF32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Cos, VType::F32, regs[ix(i.a)], y); }
            Op::CosF64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Cos, VType::F64, regs[ix(i.a)], y); }
            Op::CosPred => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Cos, VType::Pred, regs[ix(i.a)], y); }
            Op::AbsB32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Abs, VType::B32, regs[ix(i.a)], y); }
            Op::AbsB64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Abs, VType::B64, regs[ix(i.a)], y); }
            Op::AbsF32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Abs, VType::F32, regs[ix(i.a)], y); }
            Op::AbsF64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Abs, VType::F64, regs[ix(i.a)], y); }
            Op::AbsPred => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Abs, VType::Pred, regs[ix(i.a)], y); }
            Op::FloorB32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Floor, VType::B32, regs[ix(i.a)], y); }
            Op::FloorB64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Floor, VType::B64, regs[ix(i.a)], y); }
            Op::FloorF32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Floor, VType::F32, regs[ix(i.a)], y); }
            Op::FloorF64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Floor, VType::F64, regs[ix(i.a)], y); }
            Op::FloorPred => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Floor, VType::Pred, regs[ix(i.a)], y); }
            Op::PowB32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Pow, VType::B32, regs[ix(i.a)], y); }
            Op::PowB64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Pow, VType::B64, regs[ix(i.a)], y); }
            Op::PowF32 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Pow, VType::F32, regs[ix(i.a)], y); }
            Op::PowF64 => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Pow, VType::F64, regs[ix(i.a)], y); }
            Op::PowPred => { let y = if i.b == NO_REG { None } else { Some(regs[ix(i.b)]) }; regs[ix(i.d)] = math(MathOp::Pow, VType::Pred, regs[ix(i.a)], y); }
        }
        pc += 1;
    }

    Ok(LaneCounts {
        simple: cnt[CLS_SIMPLE as usize],
        int64: cnt[CLS_INT64 as usize],
        fp64: cnt[CLS_FP64 as usize],
        sfu: cnt[CLS_SFU as usize],
        spill_touches,
    })
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn ld(
    regs: &mut [u64],
    mem: &mut DeviceMemory,
    warp: &mut WarpMerge,
    lane: usize,
    pc: usize,
    d_idx: usize,
    a_idx: usize,
    bytes: u8,
    space_store: u8,
) -> Result<(), SimError> {
    let addr = regs[a_idx];
    regs[d_idx] = mem.read(addr, bytes as u32)?;
    warp.log(lane, MemEvent { inst: pc as u32, addr, bytes, space_store });
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn st(
    regs: &mut [u64],
    mem: &mut DeviceMemory,
    warp: &mut WarpMerge,
    lane: usize,
    pc: usize,
    a_idx: usize,
    b_idx: usize,
    bytes: u8,
    space_store: u8,
) -> Result<(), SimError> {
    let addr = regs[a_idx];
    mem.write(addr, bytes as u32, regs[b_idx])?;
    warp.log(lane, MemEvent { inst: pc as u32, addr, bytes, space_store });
    Ok(())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn atom(
    regs: &mut [u64],
    mem: &mut DeviceMemory,
    warp: &mut WarpMerge,
    lane: usize,
    pc: usize,
    a_idx: usize,
    b_idx: usize,
    ty: VType,
) -> Result<(), SimError> {
    let bytes = ty.size_bytes() as u8;
    let addr = regs[a_idx];
    mem.atom_add(ty, addr, bytes as u32, regs[b_idx])?;
    warp.log(
        lane,
        MemEvent { inst: pc as u32, addr, bytes, space_store: SPACE_GLOBAL | FLAG_STORE | FLAG_ATOMIC },
    );
    Ok(())
}
