//! Every math operation at both float types, as a one-instruction
//! kernel under all three engines, must produce exactly the bits of
//! `safara_gpusim::math`'s scalar function (`sqrt` and `abs`: the host's
//! single instruction) in every lane, with identical statistics.
//!
//! The inputs put ±0, subnormals, ±∞, NaN payloads, huge trig arguments
//! and overflowing exponents beside in-range values, so the lockstep
//! engine runs both of its column branches: the fast kernel over a warp
//! whose lanes are all in range, and the per-lane function over a warp
//! that mixes. The operand shapes are varying, uniform, `d == a`,
//! `d == b` and `a == b`, over warps of 1, 5, 31 and 32 lanes.

use safara_gpusim::interp::{LaunchConfig, ParamVal};
use safara_gpusim::math;
use safara_gpusim::rng::SplitMix64;
use safara_gpusim::vir::{AluOp, Inst, MathOp, MemSpace, Operand, ParamDecl, SpecialReg, VType};
use safara_gpusim::{
    fusion_counters, launch, BufferId, DeviceMemory, Engine, ExecOptions, KernelStats, KernelVir,
    VReg,
};
use std::sync::{Mutex, MutexGuard};

/// The fusion counters are process-wide, so the tests of this file take
/// turns.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

const OPS: [MathOp; 8] = [
    MathOp::Sqrt,
    MathOp::Exp,
    MathOp::Log,
    MathOp::Sin,
    MathOp::Cos,
    MathOp::Abs,
    MathOp::Floor,
    MathOp::Pow,
];

/// (blocks, threads per block): each block a full warp and a ragged one
/// of 1, 5 or 31 lanes, then whole warps. The superblock engine profiles
/// the first two warps of a launch and runs the rest in lockstep.
const GEOMETRIES: [(u32, u32); 5] = [(4, 33), (4, 37), (4, 63), (3, 32), (2, 64)];

/// Registers: 0 tid, 1 ctaid (then ctaid × ntid), 2 ntid, 3 gid, 4 the
/// byte offset of element gid, 5 an address, then `x`, `y`, `z` and the
/// uniform `u` (a scalar parameter).
const X: u32 = 6;
const Y: u32 = 7;
const Z: u32 = 8;
const U: u32 = 9;

fn r(i: u32) -> Operand {
    Operand::Reg(VReg(i))
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `z = op(x, y)`
    Distinct,
    /// `x = op(x, y)`
    DIsA,
    /// `y = op(x, y)` (binary only)
    DIsB,
    /// `z = op(x, x)` (binary only)
    AIsB,
    /// `z = op(u, y)`: a uniform first operand
    UniformA,
}

impl Shape {
    /// The instruction's (d, a, b) registers and the one stored.
    fn regs(self, binary: bool) -> Option<(u32, u32, u32)> {
        match (self, binary) {
            (Shape::Distinct, _) => Some((Z, X, Y)),
            (Shape::DIsA, _) => Some((X, X, Y)),
            (Shape::DIsB, true) => Some((Y, X, Y)),
            (Shape::AIsB, true) => Some((Z, X, X)),
            (Shape::UniformA, _) => Some((Z, U, Y)),
            (Shape::DIsB | Shape::AIsB, false) => None,
        }
    }
}

/// `x = a[gid]; y = b[gid]; d = op(...); out[gid] = d`.
fn math_kernel(op: MathOp, ty: VType, (d, a, b): (u32, u32, u32)) -> KernelVir {
    let size = ty.size_bytes() as i64;
    let elem_addr = |index| {
        [
            Inst::LdParam { ty: VType::B64, d: VReg(5), index },
            Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(5), a: r(5), b: r(4) },
        ]
    };
    let mut insts = vec![
        Inst::Special { d: VReg(0), r: SpecialReg::Tid(0) },
        Inst::Special { d: VReg(1), r: SpecialReg::CtaId(0) },
        Inst::Special { d: VReg(2), r: SpecialReg::NTid(0) },
        Inst::Alu { op: AluOp::Mul, ty: VType::B32, d: VReg(1), a: r(1), b: r(2) },
        Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(3), a: r(0), b: r(1) },
        Inst::Cvt { dty: VType::B64, d: VReg(4), aty: VType::B32, a: r(3) },
        Inst::Alu { op: AluOp::Mul, ty: VType::B64, d: VReg(4), a: r(4), b: Operand::ImmI(size) },
        Inst::LdParam { ty, d: VReg(U), index: 3 },
    ];
    insts.extend(elem_addr(0));
    insts.push(Inst::Ld { space: MemSpace::Global, ty, d: VReg(X), addr: VReg(5) });
    insts.extend(elem_addr(1));
    insts.push(Inst::Ld { space: MemSpace::Global, ty, d: VReg(Y), addr: VReg(5) });
    let b = (op == MathOp::Pow).then(|| r(b));
    insts.push(Inst::Math { op, ty, d: VReg(d), a: r(a), b });
    insts.extend(elem_addr(2));
    insts.push(Inst::St { space: MemSpace::Global, ty, addr: VReg(5), a: r(d) });
    insts.push(Inst::Ret);
    let mut vregs = vec![VType::B32, VType::B32, VType::B32, VType::B32, VType::B64, VType::B64];
    vregs.extend([ty; 4]);
    let params = vec![ParamDecl::Ptr, ParamDecl::Ptr, ParamDecl::Ptr, ParamDecl::Scalar(ty)];
    KernelVir { name: format!("{op:?}_{ty:?}"), params, vregs, insts }
}

/// The scalar function every engine must reproduce, on raw lane bits.
fn scalar(op: MathOp, ty: VType, x: u64, y: u64) -> u64 {
    if ty == VType::F32 {
        let (a, b) = (f32::from_bits(x as u32), f32::from_bits(y as u32));
        let r = match op {
            MathOp::Sqrt => a.sqrt(),
            MathOp::Abs => a.abs(),
            MathOp::Exp => math::expf(a),
            MathOp::Log => math::logf(a),
            MathOp::Sin => math::sinf(a),
            MathOp::Cos => math::cosf(a),
            MathOp::Floor => math::floorf(a),
            MathOp::Pow => math::powf(a, b),
        };
        r.to_bits() as u64
    } else {
        let (a, b) = (f64::from_bits(x), f64::from_bits(y));
        let r = match op {
            MathOp::Sqrt => a.sqrt(),
            MathOp::Abs => a.abs(),
            MathOp::Exp => math::exp(a),
            MathOp::Log => math::log(a),
            MathOp::Sin => math::sin(a),
            MathOp::Cos => math::cos(a),
            MathOp::Floor => math::floor(a),
            MathOp::Pow => math::pow(a, b),
        };
        r.to_bits()
    }
}

/// Values outside every fast range (and a few inside), as f64 bits.
const SPECIAL: [u64; 20] = [
    0x0000000000000000, // +0
    0x8000000000000000, // -0
    0x0000000000000001, // the least subnormal
    0x800fffffffffffff, // a negative subnormal
    0x7ff0000000000000, // +inf
    0xfff0000000000000, // -inf
    0x7ff8000000000000, // NaN
    0x7ff4000000000123, // signalling NaN with a payload
    0xfff8dead00000000, // negative NaN with a payload
    0x7e37e43c8800759c, // 1e300
    0xc4b52d02c7e14af6, // -1e23
    0x41a0000000000000, // 2^27
    0x3ddb7cdfd9d7bdbb, // 1e-10
    0x40862e6666666666, // 709.8
    0xc087480000000000, // -745
    0x3ff0000000000000, // 1
    0xbff8000000000000, // -1.5
    0x47efffffe0000000, // f32::MAX
    0x4202a05f20000000, // 1e10
    0xc0e86a0000000000, // -50000
];

/// A value inside `op`'s fast range (for `pow`, a positive base and a
/// small exponent), as f64.
fn in_range(op: MathOp, rng: &mut SplitMix64, second: bool) -> f64 {
    let sign = if rng.gen_bool() { -1.0 } else { 1.0 };
    match op {
        MathOp::Sin | MathOp::Cos => sign * rng.gen_range_f64(0.01, 1e6),
        MathOp::Exp => rng.gen_range_f64(-80.0, 80.0),
        MathOp::Log => rng.gen_range_f64(1e-3, 1e6),
        MathOp::Pow if second => rng.gen_range_f64(-8.0, 8.0),
        MathOp::Pow => rng.gen_range_f64(0.01, 10.0),
        _ => sign * rng.gen_range_f64(0.0, 1e4),
    }
}

/// `n` lane inputs of `ty` as bits: lanes below `in_range_until` in
/// range, the rest alternating in-range values and specials.
fn inputs(op: MathOp, ty: VType, n: usize, in_range_until: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let v = if i < in_range_until || i % 2 == 0 {
                in_range(op, &mut rng, seed & 1 == 1).to_bits()
            } else {
                SPECIAL[rng.gen_index(SPECIAL.len())]
            };
            if ty == VType::F32 {
                (f64::from_bits(v) as f32).to_bits() as u64
            } else {
                v
            }
        })
        .collect()
}

fn bytes(ty: VType, vals: &[u64]) -> Vec<u8> {
    vals.iter()
        .flat_map(|&v| {
            if ty == VType::F32 {
                (v as u32).to_le_bytes().to_vec()
            } else {
                v.to_le_bytes().to_vec()
            }
        })
        .collect()
}

fn lanes_of(ty: VType, buf: &[u8]) -> Vec<u64> {
    if ty == VType::F32 {
        buf.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64).collect()
    } else {
        buf.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
    }
}

/// One launch on fresh memory: the stats and the output lanes.
fn run_once(
    kernel: &KernelVir,
    ty: VType,
    grid: u32,
    block: u32,
    a: &[u64],
    b: &[u64],
    u: u64,
) -> (KernelStats, Vec<u64>) {
    let mut mem = DeviceMemory::new();
    let mut params = Vec::new();
    for data in [a, b, &vec![0; a.len()]] {
        let id = mem.alloc(data.len() * ty.size_bytes() as usize);
        mem.copy_in(id, &bytes(ty, data));
        params.push(ParamVal::Ptr(mem.base_addr(id)));
    }
    params.push(if ty == VType::F32 {
        ParamVal::F32(f32::from_bits(u as u32))
    } else {
        ParamVal::F64(f64::from_bits(u))
    });
    let stats = launch(kernel, &LaunchConfig::d1(grid, block), &params, &mut mem, &[])
        .expect("launch")
        .stats;
    (stats, lanes_of(ty, &mem.copy_out(BufferId(2))))
}

fn check(op: MathOp, ty: VType, shape: Shape) {
    let Some(regs) = shape.regs(op == MathOp::Pow) else { return };
    let kernel = math_kernel(op, ty, regs);
    let under = |engine| ExecOptions::inherit().engine(engine);
    for (grid, block) in GEOMETRIES {
        let n = (grid * block) as usize;
        // Only the first warp in range, no lane reliably in range, every lane in range.
        for (case, until) in [(0u64, 32), (1, 0), (2, n)] {
            let seed = (op as u64) << 8 | (ty as u64) << 4 | case << 1;
            let a = inputs(op, ty, n, until, seed);
            let b = inputs(op, ty, n, until, seed | 1);
            let u = a[n / 2];
            let at = format!("{op:?} {ty:?} {shape:?} {grid}×{block} case {case}");
            let (want_stats, out) =
                under(Engine::Reference).scope(|| run_once(&kernel, ty, grid, block, &a, &b, u));
            for (l, &got) in out.iter().enumerate() {
                let x = if regs.1 == U { u } else { a[l] };
                let y = if regs.2 == X { x } else { b[l] };
                let want = scalar(op, ty, x, y);
                assert_eq!(got, want, "{at}: lane {l}, op({x:#x}, {y:#x})");
            }
            for engine in [Engine::Decoded, Engine::Superblock] {
                for launch_no in 0..2 {
                    let before = fusion_counters();
                    let (stats, got) =
                        under(engine).scope(|| run_once(&kernel, ty, grid, block, &a, &b, u));
                    let at = format!("{at}, {}, launch {launch_no}", engine.name());
                    assert_eq!(stats, want_stats, "{at}: stats");
                    assert_eq!(got, out, "{at}: lanes");
                    if engine == Engine::Superblock && launch_no == 1 {
                        assert!(
                            fusion_counters().vector_execs > before.vector_execs,
                            "{at}: not lockstep"
                        );
                    }
                }
            }
        }
    }
}

fn check_type(ty: VType) {
    let _turn = exclusive();
    for op in OPS {
        for shape in [Shape::Distinct, Shape::DIsA, Shape::DIsB, Shape::AIsB, Shape::UniformA] {
            check(op, ty, shape);
        }
    }
}

#[test]
fn every_math_op_agrees_across_engines_f32() {
    check_type(VType::F32);
}

#[test]
fn every_math_op_agrees_across_engines_f64() {
    check_type(VType::F64);
}

/// A two-instruction kernel's operand: `sin` and `cos` of one register
/// run on the lockstep engine as one pair step, unless the register is
/// redefined between them.
#[derive(Clone, Copy, Debug)]
enum PairShape {
    /// `z = first(x); y = second(x)`
    Varying,
    /// `z = first(u); y = second(u)`: a uniform operand into columns that
    /// vary (`y` and `z` are also written from `x`).
    Uniform,
    /// `z = first(x); x = x + x; y = second(x)`: no pair.
    Redefined,
}

/// `x = a[gid]; z = x; y = x; z = first(o); [x = x + x;] y = second(o);
/// out1[gid] = z; out2[gid] = y`, with `o` the shape's operand and
/// `second` the other of `sin` and `cos`.
fn pair_kernel(first: MathOp, ty: VType, shape: PairShape) -> KernelVir {
    let second = if first == MathOp::Sin { MathOp::Cos } else { MathOp::Sin };
    let o = if let PairShape::Uniform = shape { U } else { X };
    let size = ty.size_bytes() as i64;
    let elem_addr = |index| {
        [
            Inst::LdParam { ty: VType::B64, d: VReg(5), index },
            Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(5), a: r(5), b: r(4) },
        ]
    };
    let mut insts = vec![
        Inst::Special { d: VReg(0), r: SpecialReg::Tid(0) },
        Inst::Special { d: VReg(1), r: SpecialReg::CtaId(0) },
        Inst::Special { d: VReg(2), r: SpecialReg::NTid(0) },
        Inst::Alu { op: AluOp::Mul, ty: VType::B32, d: VReg(1), a: r(1), b: r(2) },
        Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(3), a: r(0), b: r(1) },
        Inst::Cvt { dty: VType::B64, d: VReg(4), aty: VType::B32, a: r(3) },
        Inst::Alu { op: AluOp::Mul, ty: VType::B64, d: VReg(4), a: r(4), b: Operand::ImmI(size) },
        Inst::LdParam { ty, d: VReg(U), index: 3 },
    ];
    insts.extend(elem_addr(0));
    insts.push(Inst::Ld { space: MemSpace::Global, ty, d: VReg(X), addr: VReg(5) });
    insts.push(Inst::Mov { ty, d: VReg(Z), a: r(X) });
    insts.push(Inst::Mov { ty, d: VReg(Y), a: r(X) });
    insts.push(Inst::Math { op: first, ty, d: VReg(Z), a: r(o), b: None });
    if let PairShape::Redefined = shape {
        insts.push(Inst::Alu { op: AluOp::Add, ty, d: VReg(X), a: r(X), b: r(X) });
    }
    insts.push(Inst::Math { op: second, ty, d: VReg(Y), a: r(o), b: None });
    for (index, v) in [(1, Z), (2, Y)] {
        insts.extend(elem_addr(index));
        insts.push(Inst::St { space: MemSpace::Global, ty, addr: VReg(5), a: r(v) });
    }
    insts.push(Inst::Ret);
    let mut vregs = vec![VType::B32, VType::B32, VType::B32, VType::B32, VType::B64, VType::B64];
    vregs.extend([ty; 4]);
    let params = vec![ParamDecl::Ptr, ParamDecl::Ptr, ParamDecl::Ptr, ParamDecl::Scalar(ty)];
    KernelVir { name: format!("{first:?}_{second:?}_{ty:?}_{shape:?}"), params, vregs, insts }
}

/// One launch of a pair kernel on fresh memory: the stats and both
/// output buffers' lanes.
fn run_pair(
    kernel: &KernelVir,
    ty: VType,
    grid: u32,
    block: u32,
    a: &[u64],
    u: u64,
) -> (KernelStats, [Vec<u64>; 2]) {
    let mut mem = DeviceMemory::new();
    let mut params = Vec::new();
    for data in [a, &vec![0; a.len()], &vec![0; a.len()]] {
        let id = mem.alloc(data.len() * ty.size_bytes() as usize);
        mem.copy_in(id, &bytes(ty, data));
        params.push(ParamVal::Ptr(mem.base_addr(id)));
    }
    params.push(if ty == VType::F32 {
        ParamVal::F32(f32::from_bits(u as u32))
    } else {
        ParamVal::F64(f64::from_bits(u))
    });
    let stats = launch(kernel, &LaunchConfig::d1(grid, block), &params, &mut mem, &[])
        .expect("launch")
        .stats;
    let out = [1, 2].map(|b| lanes_of(ty, &mem.copy_out(BufferId(b))));
    (stats, out)
}

/// `x + x` on raw lane bits.
fn twice(ty: VType, x: u64) -> u64 {
    if ty == VType::F32 {
        let a = f32::from_bits(x as u32);
        (a + a).to_bits() as u64
    } else {
        let a = f64::from_bits(x);
        (a + a).to_bits()
    }
}

fn check_pair(first: MathOp, ty: VType, shape: PairShape) {
    let second = if first == MathOp::Sin { MathOp::Cos } else { MathOp::Sin };
    let kernel = pair_kernel(first, ty, shape);
    let under = |engine| ExecOptions::inherit().engine(engine);
    for (grid, block) in GEOMETRIES {
        let n = (grid * block) as usize;
        // Every lane in range; lane 3 of each warp out of range (the
        // uniform operand too); alternating in-range values and specials.
        for case in 0u64..3 {
            let seed = (first as u64) << 8 | (ty as u64) << 4 | case << 1;
            let mut a = inputs(first, ty, n, if case == 2 { 0 } else { n }, seed);
            if case == 1 {
                let lane_3 = |l: usize| l % block as usize % 32 == 3;
                for (l, v) in a.iter_mut().enumerate().filter(|(l, _)| lane_3(*l)) {
                    // The first 13 specials are outside both trig fast ranges.
                    let s = SPECIAL[l % 13];
                    *v = if ty == VType::F32 {
                        (f64::from_bits(s) as f32).to_bits() as u64
                    } else {
                        s
                    };
                }
            }
            let u = if case == 1 { a[3] } else { a[n / 2] };
            let at = format!("{first:?}; {second:?} {ty:?} {shape:?} {grid}×{block} case {case}");
            let (want_stats, out) =
                under(Engine::Reference).scope(|| run_pair(&kernel, ty, grid, block, &a, u));
            for l in 0..n {
                let x = if let PairShape::Uniform = shape { u } else { a[l] };
                let y = if let PairShape::Redefined = shape { twice(ty, x) } else { x };
                let want = [scalar(first, ty, x, 0), scalar(second, ty, y, 0)];
                assert_eq!([out[0][l], out[1][l]], want, "{at}: lane {l}, operand {x:#x}");
            }
            for engine in [Engine::Reference, Engine::Decoded, Engine::Superblock] {
                for launch_no in 0..2 {
                    let before = fusion_counters();
                    let (stats, got) =
                        under(engine).scope(|| run_pair(&kernel, ty, grid, block, &a, u));
                    let pairs = fusion_counters().trig_pairs - before.trig_pairs;
                    let at = format!("{at}, {}, launch {launch_no}", engine.name());
                    assert_eq!(stats, want_stats, "{at}: stats");
                    assert_eq!(got, out, "{at}: lanes");
                    // Every geometry runs a warp past the profiled ones.
                    let paired =
                        engine == Engine::Superblock && !matches!(shape, PairShape::Redefined);
                    assert_eq!(pairs > 0, paired, "{at}: {pairs} pair steps");
                }
            }
        }
    }
}

#[test]
fn sin_and_cos_of_one_operand_agree_across_engines() {
    let _turn = exclusive();
    for ty in [VType::F32, VType::F64] {
        for first in [MathOp::Sin, MathOp::Cos] {
            for shape in [PairShape::Varying, PairShape::Uniform, PairShape::Redefined] {
                check_pair(first, ty, shape);
            }
        }
    }
}
