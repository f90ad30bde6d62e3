//! Differential testing of the VIR interpreter's scalar semantics
//! against native Rust arithmetic: for every ALU operation, comparison,
//! and numeric conversion, a one-instruction kernel must compute exactly
//! what the corresponding Rust expression computes.
//!
//! Inputs are drawn from the in-tree [`SplitMix64`] generator (no
//! crates.io dependency); each case is a pure function of its index, so
//! failures reproduce exactly.

use safara_gpusim::interp::{launch, LaunchConfig, ParamVal};
use safara_gpusim::memory::DeviceMemory;
use safara_gpusim::rng::SplitMix64;
use safara_gpusim::vir::*;

const CASES: u64 = 128;

/// An i32 drawn from the full range, biased toward interesting values.
fn any_i32(rng: &mut SplitMix64) -> i32 {
    const SPECIAL: [i32; 8] = [0, 1, -1, i32::MIN, i32::MAX, 2, -2, 31];
    match rng.gen_index(8) {
        0 => SPECIAL[rng.gen_index(SPECIAL.len())],
        _ => rng.next_u32() as i32,
    }
}

/// Run a single binary ALU op on two i32 params, return the i32 result.
fn run_alu_i32(op: AluOp, a: i32, b: i32) -> i32 {
    let mut k = KernelVir {
        name: "alu".into(),
        params: vec![ParamDecl::Scalar(VType::B32), ParamDecl::Scalar(VType::B32), ParamDecl::Ptr],
        ..Default::default()
    };
    let x = k.new_vreg(VType::B32);
    let y = k.new_vreg(VType::B32);
    let out = k.new_vreg(VType::B64);
    let d = k.new_vreg(VType::B32);
    k.insts = vec![
        Inst::LdParam { ty: VType::B32, d: x, index: 0 },
        Inst::LdParam { ty: VType::B32, d: y, index: 1 },
        Inst::LdParam { ty: VType::B64, d: out, index: 2 },
        Inst::Alu { op, ty: VType::B32, d, a: x.into(), b: y.into() },
        Inst::St { space: MemSpace::Global, ty: VType::B32, addr: out, a: d.into() },
        Inst::Ret,
    ];
    let mut mem = DeviceMemory::new();
    let buf = mem.alloc(4);
    launch(
        &k,
        &LaunchConfig::d1(1, 1),
        &[ParamVal::I32(a), ParamVal::I32(b), ParamVal::Ptr(mem.base_addr(buf))],
        &mut mem,
        &[],
    )
    .expect("runs");
    mem.copy_out_i32(buf)[0]
}

/// Run a single binary ALU op on two f64 params.
fn run_alu_f64(op: AluOp, a: f64, b: f64) -> f64 {
    let mut k = KernelVir {
        name: "alu64".into(),
        params: vec![ParamDecl::Scalar(VType::F64), ParamDecl::Scalar(VType::F64), ParamDecl::Ptr],
        ..Default::default()
    };
    let x = k.new_vreg(VType::F64);
    let y = k.new_vreg(VType::F64);
    let out = k.new_vreg(VType::B64);
    let d = k.new_vreg(VType::F64);
    k.insts = vec![
        Inst::LdParam { ty: VType::F64, d: x, index: 0 },
        Inst::LdParam { ty: VType::F64, d: y, index: 1 },
        Inst::LdParam { ty: VType::B64, d: out, index: 2 },
        Inst::Alu { op, ty: VType::F64, d, a: x.into(), b: y.into() },
        Inst::St { space: MemSpace::Global, ty: VType::F64, addr: out, a: d.into() },
        Inst::Ret,
    ];
    let mut mem = DeviceMemory::new();
    let buf = mem.alloc(8);
    launch(
        &k,
        &LaunchConfig::d1(1, 1),
        &[ParamVal::F64(a), ParamVal::F64(b), ParamVal::Ptr(mem.base_addr(buf))],
        &mut mem,
        &[],
    )
    .expect("runs");
    mem.copy_out_f64(buf)[0]
}

/// Run a comparison + predicate-to-b32 conversion.
fn run_cmp_i32(op: CmpOp, a: i32, b: i32) -> i32 {
    let mut k = KernelVir {
        name: "cmp".into(),
        params: vec![ParamDecl::Scalar(VType::B32), ParamDecl::Scalar(VType::B32), ParamDecl::Ptr],
        ..Default::default()
    };
    let x = k.new_vreg(VType::B32);
    let y = k.new_vreg(VType::B32);
    let out = k.new_vreg(VType::B64);
    let p = k.new_vreg(VType::Pred);
    let d = k.new_vreg(VType::B32);
    k.insts = vec![
        Inst::LdParam { ty: VType::B32, d: x, index: 0 },
        Inst::LdParam { ty: VType::B32, d: y, index: 1 },
        Inst::LdParam { ty: VType::B64, d: out, index: 2 },
        Inst::Setp { op, ty: VType::B32, d: p, a: x.into(), b: y.into() },
        Inst::Cvt { dty: VType::B32, d, aty: VType::Pred, a: p.into() },
        Inst::St { space: MemSpace::Global, ty: VType::B32, addr: out, a: d.into() },
        Inst::Ret,
    ];
    let mut mem = DeviceMemory::new();
    let buf = mem.alloc(4);
    launch(
        &k,
        &LaunchConfig::d1(1, 1),
        &[ParamVal::I32(a), ParamVal::I32(b), ParamVal::Ptr(mem.base_addr(buf))],
        &mut mem,
        &[],
    )
    .expect("runs");
    mem.copy_out_i32(buf)[0]
}

#[test]
fn int32_alu_matches_rust() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA100_0000 + case);
        let a = any_i32(&mut rng);
        let b = any_i32(&mut rng);
        assert_eq!(run_alu_i32(AluOp::Add, a, b), a.wrapping_add(b));
        assert_eq!(run_alu_i32(AluOp::Sub, a, b), a.wrapping_sub(b));
        assert_eq!(run_alu_i32(AluOp::Mul, a, b), a.wrapping_mul(b));
        assert_eq!(run_alu_i32(AluOp::Min, a, b), a.min(b));
        assert_eq!(run_alu_i32(AluOp::Max, a, b), a.max(b));
        assert_eq!(run_alu_i32(AluOp::And, a, b), a & b);
        assert_eq!(run_alu_i32(AluOp::Or, a, b), a | b);
        assert_eq!(run_alu_i32(AluOp::Xor, a, b), a ^ b);
        // Division and remainder: zero divisor yields 0 (GPU-style safe
        // division in the interpreter).
        if b != 0 {
            assert_eq!(run_alu_i32(AluOp::Div, a, b), a.wrapping_div(b));
            assert_eq!(run_alu_i32(AluOp::Rem, a, b), a.wrapping_rem(b));
        } else {
            assert_eq!(run_alu_i32(AluOp::Div, a, b), 0);
            assert_eq!(run_alu_i32(AluOp::Rem, a, b), 0);
        }
        // Shifts mask the count to 5 bits, as PTX does.
        assert_eq!(run_alu_i32(AluOp::Shl, a, b), a.wrapping_shl(b as u32 & 31));
        assert_eq!(run_alu_i32(AluOp::Shr, a, b), a.wrapping_shr(b as u32 & 31));
    }
}

#[test]
fn f64_alu_matches_rust() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA164_0000 + case);
        let a = rng.gen_range_f64(-1e12, 1e12);
        let b = rng.gen_range_f64(-1e12, 1e12);
        assert_eq!(run_alu_f64(AluOp::Add, a, b).to_bits(), (a + b).to_bits());
        assert_eq!(run_alu_f64(AluOp::Sub, a, b).to_bits(), (a - b).to_bits());
        assert_eq!(run_alu_f64(AluOp::Mul, a, b).to_bits(), (a * b).to_bits());
        assert_eq!(run_alu_f64(AluOp::Div, a, b).to_bits(), (a / b).to_bits());
        assert_eq!(run_alu_f64(AluOp::Min, a, b).to_bits(), a.min(b).to_bits());
        assert_eq!(run_alu_f64(AluOp::Max, a, b).to_bits(), a.max(b).to_bits());
    }
}

#[test]
fn comparisons_match_rust() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC390_0000 + case);
        let a = any_i32(&mut rng);
        let b = any_i32(&mut rng);
        assert_eq!(run_cmp_i32(CmpOp::Lt, a, b), i32::from(a < b));
        assert_eq!(run_cmp_i32(CmpOp::Le, a, b), i32::from(a <= b));
        assert_eq!(run_cmp_i32(CmpOp::Gt, a, b), i32::from(a > b));
        assert_eq!(run_cmp_i32(CmpOp::Ge, a, b), i32::from(a >= b));
        assert_eq!(run_cmp_i32(CmpOp::Eq, a, b), i32::from(a == b));
        assert_eq!(run_cmp_i32(CmpOp::Ne, a, b), i32::from(a != b));
    }
}

/// Conversions: i32 → f64 → i32 round-trips exactly; i32 → f32 rounds
/// as Rust does; f64 → i32 truncates toward zero.
#[test]
fn conversions_match_rust() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC040_0000 + case);
        let v = any_i32(&mut rng);
        let mut k = KernelVir {
            name: "cvt".into(),
            params: vec![ParamDecl::Scalar(VType::B32), ParamDecl::Ptr],
            ..Default::default()
        };
        let x = k.new_vreg(VType::B32);
        let out = k.new_vreg(VType::B64);
        let f = k.new_vreg(VType::F64);
        let g = k.new_vreg(VType::F32);
        let r1 = k.new_vreg(VType::B32);
        let addr2 = k.new_vreg(VType::B64);
        k.insts = vec![
            Inst::LdParam { ty: VType::B32, d: x, index: 0 },
            Inst::LdParam { ty: VType::B64, d: out, index: 1 },
            Inst::Cvt { dty: VType::F64, d: f, aty: VType::B32, a: x.into() },
            Inst::Cvt { dty: VType::B32, d: r1, aty: VType::F64, a: f.into() },
            Inst::St { space: MemSpace::Global, ty: VType::B32, addr: out, a: r1.into() },
            Inst::Cvt { dty: VType::F32, d: g, aty: VType::B32, a: x.into() },
            Inst::Alu { op: AluOp::Add, ty: VType::B64, d: addr2, a: out.into(), b: Operand::ImmI(4) },
            Inst::St { space: MemSpace::Global, ty: VType::F32, addr: addr2, a: g.into() },
            Inst::Ret,
        ];
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(8);
        launch(
            &k,
            &LaunchConfig::d1(1, 1),
            &[ParamVal::I32(v), ParamVal::Ptr(mem.base_addr(buf))],
            &mut mem,
            &[],
        )
        .expect("runs");
        let ints = mem.copy_out_i32(buf);
        assert_eq!(ints[0], v, "i32→f64→i32 must round-trip");
        let f32_bits = ints[1] as u32;
        assert_eq!(f32::from_bits(f32_bits).to_bits(), (v as f32).to_bits());
    }
}

#[test]
fn pred_logic_ops() {
    // and/or/xor on predicates via a tiny kernel per op.
    for (op, f) in [
        (AluOp::And, (|a, b| a && b) as fn(bool, bool) -> bool),
        (AluOp::Or, |a, b| a || b),
        (AluOp::Xor, |a, b| a ^ b),
    ] {
        for a in [false, true] {
            for b in [false, true] {
                let mut k = KernelVir {
                    name: "pl".into(),
                    params: vec![ParamDecl::Scalar(VType::B32), ParamDecl::Scalar(VType::B32), ParamDecl::Ptr],
                    ..Default::default()
                };
                let x = k.new_vreg(VType::B32);
                let y = k.new_vreg(VType::B32);
                let out = k.new_vreg(VType::B64);
                let pa = k.new_vreg(VType::Pred);
                let pb = k.new_vreg(VType::Pred);
                let pc = k.new_vreg(VType::Pred);
                let d = k.new_vreg(VType::B32);
                k.insts = vec![
                    Inst::LdParam { ty: VType::B32, d: x, index: 0 },
                    Inst::LdParam { ty: VType::B32, d: y, index: 1 },
                    Inst::LdParam { ty: VType::B64, d: out, index: 2 },
                    Inst::Setp { op: CmpOp::Ne, ty: VType::B32, d: pa, a: x.into(), b: Operand::ImmI(0) },
                    Inst::Setp { op: CmpOp::Ne, ty: VType::B32, d: pb, a: y.into(), b: Operand::ImmI(0) },
                    Inst::Alu { op, ty: VType::Pred, d: pc, a: pa.into(), b: pb.into() },
                    Inst::Cvt { dty: VType::B32, d, aty: VType::Pred, a: pc.into() },
                    Inst::St { space: MemSpace::Global, ty: VType::B32, addr: out, a: d.into() },
                    Inst::Ret,
                ];
                let mut mem = DeviceMemory::new();
                let buf = mem.alloc(4);
                launch(
                    &k,
                    &LaunchConfig::d1(1, 1),
                    &[
                        ParamVal::I32(i32::from(a)),
                        ParamVal::I32(i32::from(b)),
                        ParamVal::Ptr(mem.base_addr(buf)),
                    ],
                    &mut mem,
                    &[],
                )
                .expect("runs");
                assert_eq!(mem.copy_out_i32(buf)[0], i32::from(f(a, b)), "{op:?} {a} {b}");
            }
        }
    }
}
