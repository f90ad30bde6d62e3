//! VIR — the PTX-like virtual ISA.
//!
//! Like PTX, VIR is a typed, load/store virtual instruction set with an
//! **unlimited** supply of virtual registers; the actual hardware register
//! budget is decided later by the [`crate::ptxas`] allocator. Types follow
//! PTX conventions: `b32`/`b64` untyped-ish integer bit containers,
//! `f32`/`f64` floats, and 1-bit predicates.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Value types of virtual registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VType {
    /// 32-bit integer/bits.
    B32,
    /// 64-bit integer/bits (also used for addresses).
    B64,
    /// IEEE binary32.
    F32,
    /// IEEE binary64.
    F64,
    /// 1-bit predicate.
    Pred,
}

impl VType {
    /// Number of 32-bit hardware registers a value of this type occupies.
    /// Predicates live in a separate predicate file and cost 0 here, as on
    /// real NVIDIA hardware.
    pub fn hw_regs(self) -> u32 {
        match self {
            VType::B32 | VType::F32 => 1,
            VType::B64 | VType::F64 => 2,
            VType::Pred => 0,
        }
    }

    /// Size in bytes when stored to memory.
    pub fn size_bytes(self) -> u32 {
        match self {
            VType::B32 | VType::F32 => 4,
            VType::B64 | VType::F64 => 8,
            VType::Pred => 1,
        }
    }

    /// True for the floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, VType::F32 | VType::F64)
    }

    /// PTX-style suffix, for the disassembler.
    pub fn suffix(self) -> &'static str {
        match self {
            VType::B32 => "b32",
            VType::B64 => "b64",
            VType::F32 => "f32",
            VType::F64 => "f64",
            VType::Pred => "pred",
        }
    }
}

/// A virtual register id. Its type lives in [`KernelVir::vregs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%r{}", self.0)
    }
}

/// Instruction operands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Reg(VReg),
    /// Integer immediate.
    ImmI(i64),
    /// Float immediate.
    ImmF(f64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn reg(&self) -> Option<VReg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }
}

/// By bit pattern: NaN payloads, `-0.0` and `ImmI(0)` vs `ImmF(0.0)` are
/// all distinct content.
impl Hash for Operand {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match *self {
            Operand::Reg(r) => r.hash(h),
            Operand::ImmI(i) => i.hash(h),
            Operand::ImmF(f) => f.to_bits().hash(h),
        }
    }
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(r)
    }
}

/// Two-operand ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division truncates toward zero).
    Div,
    /// Remainder (integers only).
    Rem,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Bitwise/logical and.
    And,
    /// Bitwise/logical or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

/// Comparison operators for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

/// Special-function-unit math operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathOp {
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Absolute value.
    Abs,
    /// Floor.
    Floor,
    /// Power (two-operand).
    Pow,
}

/// Built-in special registers (thread/block coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// `threadIdx.{x,y,z}`
    Tid(u8),
    /// `blockIdx.{x,y,z}`
    CtaId(u8),
    /// `blockDim.{x,y,z}`
    NTid(u8),
    /// `gridDim.{x,y,z}`
    NCtaId(u8),
}

/// Memory spaces for loads/stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Read/write global memory (L2-cached on Kepler).
    Global,
    /// Read-only global data served by the 48 KB read-only data cache
    /// (`__ldg`); only valid for loads.
    ReadOnly,
    /// Per-thread local memory (register spills).
    Local,
}

/// A branch target label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

/// VIR instructions.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Inst {
    /// `mov.ty d, a`
    Mov {
        /// Result type.
        ty: VType,
        /// Destination.
        d: VReg,
        /// Source.
        a: Operand,
    },
    /// `op.ty d, a, b`
    Alu {
        /// Operation.
        op: AluOp,
        /// Operand/result type.
        ty: VType,
        /// Destination.
        d: VReg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `neg.ty d, a`
    Neg {
        /// Operand/result type.
        ty: VType,
        /// Destination.
        d: VReg,
        /// Source.
        a: Operand,
    },
    /// `not.pred d, a`
    Not {
        /// Destination predicate.
        d: VReg,
        /// Source predicate.
        a: VReg,
    },
    /// `cvt.dty.aty d, a` — numeric conversion.
    Cvt {
        /// Destination type.
        dty: VType,
        /// Destination.
        d: VReg,
        /// Source type.
        aty: VType,
        /// Source.
        a: Operand,
    },
    /// `setp.op.ty d, a, b` — set predicate from comparison.
    Setp {
        /// Comparison.
        op: CmpOp,
        /// Operand type.
        ty: VType,
        /// Destination predicate.
        d: VReg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Special-function math (`sqrt`, `exp`, ... `pow` takes `b`).
    Math {
        /// Operation.
        op: MathOp,
        /// Operand/result type (f32/f64).
        ty: VType,
        /// Destination.
        d: VReg,
        /// First operand.
        a: Operand,
        /// Second operand (for `Pow`).
        b: Option<Operand>,
    },
    /// `ld.space.ty d, [addr]`
    Ld {
        /// Memory space.
        space: MemSpace,
        /// Loaded type.
        ty: VType,
        /// Destination.
        d: VReg,
        /// Byte address (b64 register).
        addr: VReg,
    },
    /// `st.space.ty [addr], a`
    St {
        /// Memory space (never `ReadOnly`).
        space: MemSpace,
        /// Stored type.
        ty: VType,
        /// Byte address (b64 register).
        addr: VReg,
        /// Value to store.
        a: Operand,
    },
    /// Load a kernel parameter (by parameter index).
    LdParam {
        /// Parameter value type (pointers are b64).
        ty: VType,
        /// Destination.
        d: VReg,
        /// Index into the launch parameter list.
        index: u32,
    },
    /// Read a special register into a b32 destination.
    Special {
        /// Destination.
        d: VReg,
        /// Which special register.
        r: SpecialReg,
    },
    /// Conditional or unconditional branch.
    Bra {
        /// Jump target.
        target: Label,
        /// Optional guard: `(predicate register, expected value)`.
        pred: Option<(VReg, bool)>,
    },
    /// A label marker (no-op at execution).
    Mark(Label),
    /// `atom.global.add.ty [addr], a` — used for reductions.
    AtomAdd {
        /// Element type.
        ty: VType,
        /// Byte address (b64 register).
        addr: VReg,
        /// Addend.
        a: Operand,
    },
    /// Return from the kernel (thread exit).
    Ret,
}

/// The registers one instruction reads, held inline: no VIR instruction
/// has more than [`Uses::MAX`] register operands, so the passes that ask
/// per instruction per sweep (DCE, liveness, the reference engine's spill
/// count) never touch the heap. Reads as a slice, iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uses {
    regs: [VReg; Uses::MAX],
    len: u8,
}

impl Uses {
    /// The most register operands any instruction carries.
    pub const MAX: usize = 3;

    fn push(&mut self, r: VReg) {
        self.regs[self.len as usize] = r;
        self.len += 1;
    }

    fn push_operand(&mut self, o: &Operand) {
        if let Operand::Reg(r) = o {
            self.push(*r);
        }
    }

    /// The registers, in operand order.
    pub fn as_slice(&self) -> &[VReg] {
        &self.regs[..self.len as usize]
    }
}

impl std::ops::Deref for Uses {
    type Target = [VReg];

    fn deref(&self) -> &[VReg] {
        self.as_slice()
    }
}

impl IntoIterator for Uses {
    type Item = VReg;
    type IntoIter = std::iter::Take<std::array::IntoIter<VReg, { Uses::MAX }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(self.len as usize)
    }
}

impl Inst {
    /// Virtual registers read by this instruction.
    pub fn uses(&self) -> Uses {
        let mut out = Uses { regs: [VReg(0); Uses::MAX], len: 0 };
        match self {
            Inst::Mov { a, .. } | Inst::Neg { a, .. } | Inst::Cvt { a, .. } => out.push_operand(a),
            Inst::Not { a, .. } => out.push(*a),
            Inst::Alu { a, b, .. } | Inst::Setp { a, b, .. } => {
                out.push_operand(a);
                out.push_operand(b);
            }
            Inst::Math { a, b, .. } => {
                out.push_operand(a);
                if let Some(b) = b {
                    out.push_operand(b);
                }
            }
            Inst::Ld { addr, .. } => out.push(*addr),
            Inst::St { addr, a, .. } | Inst::AtomAdd { addr, a, .. } => {
                out.push(*addr);
                out.push_operand(a);
            }
            Inst::Bra { pred, .. } => {
                if let Some((p, _)) = pred {
                    out.push(*p);
                }
            }
            Inst::LdParam { .. } | Inst::Special { .. } | Inst::Mark(_) | Inst::Ret => {}
        }
        out
    }

    /// The virtual register written by this instruction, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::Mov { d, .. }
            | Inst::Alu { d, .. }
            | Inst::Neg { d, .. }
            | Inst::Not { d, .. }
            | Inst::Cvt { d, .. }
            | Inst::Setp { d, .. }
            | Inst::Math { d, .. }
            | Inst::Ld { d, .. }
            | Inst::LdParam { d, .. }
            | Inst::Special { d, .. } => Some(*d),
            _ => None,
        }
    }
}

/// Kernel parameter declaration.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum ParamDecl {
    /// A by-value scalar.
    Scalar(VType),
    /// A pointer to a device buffer (b64 base address).
    Ptr,
}

/// A compiled kernel in VIR form.
#[derive(Debug, Clone, PartialEq, Default, Hash)]
pub struct KernelVir {
    /// Kernel name (for reports and tables).
    pub name: String,
    /// Parameter list.
    pub params: Vec<ParamDecl>,
    /// Type of each virtual register, indexed by `VReg.0`.
    pub vregs: Vec<VType>,
    /// Instruction stream.
    pub insts: Vec<Inst>,
}

impl KernelVir {
    /// Allocate a fresh virtual register of type `ty`.
    pub fn new_vreg(&mut self, ty: VType) -> VReg {
        let r = VReg(self.vregs.len() as u32);
        self.vregs.push(ty);
        r
    }

    /// Type of a virtual register.
    pub fn vtype(&self, r: VReg) -> VType {
        self.vregs[r.0 as usize]
    }

    /// Map from label to instruction index, for branch resolution.
    pub fn label_positions(&self) -> Vec<Option<usize>> {
        let max = self
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Mark(Label(l)) => Some(*l as usize),
                _ => None,
            })
            .max()
            .map(|m| m + 1)
            .unwrap_or(0);
        let mut pos = vec![None; max];
        for (ix, i) in self.insts.iter().enumerate() {
            if let Inst::Mark(Label(l)) = i {
                pos[*l as usize] = Some(ix);
            }
        }
        pos
    }

    /// A PTX-flavoured disassembly, for debugging and golden tests.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        writeln!(s, ".kernel {} (params: {})", self.name, self.params.len()).unwrap();
        for (ix, i) in self.insts.iter().enumerate() {
            writeln!(s, "  {ix:4}: {}", format_inst(i)).unwrap();
        }
        s
    }
}

fn format_operand(o: &Operand) -> String {
    match o {
        Operand::Reg(r) => r.to_string(),
        Operand::ImmI(v) => v.to_string(),
        Operand::ImmF(v) => format!("{v:?}"),
    }
}

fn format_inst(i: &Inst) -> String {
    match i {
        Inst::Mov { ty, d, a } => format!("mov.{} {d}, {}", ty.suffix(), format_operand(a)),
        Inst::Alu { op, ty, d, a, b } => format!(
            "{}.{} {d}, {}, {}",
            format!("{op:?}").to_lowercase(),
            ty.suffix(),
            format_operand(a),
            format_operand(b)
        ),
        Inst::Neg { ty, d, a } => format!("neg.{} {d}, {}", ty.suffix(), format_operand(a)),
        Inst::Not { d, a } => format!("not.pred {d}, {a}"),
        Inst::Cvt { dty, d, aty, a } => {
            format!("cvt.{}.{} {d}, {}", dty.suffix(), aty.suffix(), format_operand(a))
        }
        Inst::Setp { op, ty, d, a, b } => format!(
            "setp.{}.{} {d}, {}, {}",
            format!("{op:?}").to_lowercase(),
            ty.suffix(),
            format_operand(a),
            format_operand(b)
        ),
        Inst::Math { op, ty, d, a, b } => {
            let mut s = format!(
                "{}.{} {d}, {}",
                format!("{op:?}").to_lowercase(),
                ty.suffix(),
                format_operand(a)
            );
            if let Some(b) = b {
                s.push_str(&format!(", {}", format_operand(b)));
            }
            s
        }
        Inst::Ld { space, ty, d, addr } => format!(
            "ld.{}.{} {d}, [{addr}]",
            format!("{space:?}").to_lowercase(),
            ty.suffix()
        ),
        Inst::St { space, ty, addr, a } => format!(
            "st.{}.{} [{addr}], {}",
            format!("{space:?}").to_lowercase(),
            ty.suffix(),
            format_operand(a)
        ),
        Inst::LdParam { ty, d, index } => {
            format!("ld.param.{} {d}, [param{index}]", ty.suffix())
        }
        Inst::Special { d, r } => format!("mov.b32 {d}, %{r:?}"),
        Inst::Bra { target, pred } => match pred {
            Some((p, true)) => format!("@{p} bra L{}", target.0),
            Some((p, false)) => format!("@!{p} bra L{}", target.0),
            None => format!("bra L{}", target.0),
        },
        Inst::Mark(l) => format!("L{}:", l.0),
        Inst::AtomAdd { ty, addr, a } => {
            format!("atom.global.add.{} [{addr}], {}", ty.suffix(), format_operand(a))
        }
        Inst::Ret => "ret".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtype_register_cost() {
        assert_eq!(VType::B32.hw_regs(), 1);
        assert_eq!(VType::F64.hw_regs(), 2);
        assert_eq!(VType::B64.hw_regs(), 2);
        assert_eq!(VType::Pred.hw_regs(), 0);
    }

    #[test]
    fn uses_and_defs() {
        let mut k = KernelVir::default();
        let a = k.new_vreg(VType::F32);
        let b = k.new_vreg(VType::F32);
        let d = k.new_vreg(VType::F32);
        let i = Inst::Alu { op: AluOp::Add, ty: VType::F32, d, a: a.into(), b: b.into() };
        // Inline, not a heap `Vec`: DCE and liveness ask once per
        // instruction per sweep, the reference engine once per executed one.
        let uses: Uses = i.uses();
        assert_eq!(uses.as_slice(), [a, b]);
        assert_eq!(i.def(), Some(d));

        let addr = k.new_vreg(VType::B64);
        let st = Inst::St { space: MemSpace::Global, ty: VType::F32, addr, a: d.into() };
        assert_eq!(st.uses().as_slice(), [addr, d]);
        assert_eq!(st.def(), None);
    }

    #[test]
    fn label_positions_resolve() {
        let mut k = KernelVir::default();
        let p = k.new_vreg(VType::Pred);
        k.insts = vec![
            Inst::Mark(Label(0)),
            Inst::Bra { target: Label(1), pred: Some((p, true)) },
            Inst::Bra { target: Label(0), pred: None },
            Inst::Mark(Label(1)),
            Inst::Ret,
        ];
        let pos = k.label_positions();
        assert_eq!(pos[0], Some(0));
        assert_eq!(pos[1], Some(3));
    }

    #[test]
    fn disassembly_smoke() {
        let mut k = KernelVir { name: "t".into(), ..Default::default() };
        let d = k.new_vreg(VType::B32);
        k.insts.push(Inst::Special { d, r: SpecialReg::Tid(0) });
        k.insts.push(Inst::Ret);
        let dis = k.disassemble();
        assert!(dis.contains(".kernel t"));
        assert!(dis.contains("ret"));
    }

    #[test]
    fn imm_operands_have_no_regs() {
        assert_eq!(Operand::ImmI(4).reg(), None);
        let r = VReg(7);
        assert_eq!(Operand::Reg(r).reg(), Some(r));
    }
}
