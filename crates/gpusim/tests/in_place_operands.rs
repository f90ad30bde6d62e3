//! The superblock engine's lane loops read their operand columns in
//! place, so a superinstruction whose destination is also an operand
//! reads and writes one column. Each kernel here puts one alias shape on
//! the lockstep path — `x = x + x`, `x = y - x` (the destination is the
//! second operand), `x = x - y`, and a load whose address register is its
//! destination, `r = ld [r]` — and runs under all three engines, cold
//! and warm program cache, with every `KernelStats` field and every
//! buffer compared against the reference interpreter and the output
//! against the host.

use safara_gpusim::interp::{LaunchConfig, ParamVal};
use safara_gpusim::vir::{AluOp, Inst, MemSpace, Operand, ParamDecl, SpecialReg, VType};
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

fn r(i: u32) -> Operand {
    Operand::Reg(VReg(i))
}

/// Full warps, and a partial last warp of 8 lanes per block.
const GEOMETRIES: [(u32, u32); 2] = [(3, 64), (3, 40)];

/// Registers: 0 tid, 1 ctaid (then ctaid × ntid), 2 ntid, 3 gid, 4 the
/// byte offset `gid * 4`, 5 an address, 6 `x`, 7 `y`, 8 a 64-bit address
/// that is loaded into itself.
const X: u32 = 6;
const Y: u32 = 7;
const P: u32 = 8;

fn vregs() -> Vec<VType> {
    vec![
        VType::B32,
        VType::B32,
        VType::B32,
        VType::B32,
        VType::B64,
        VType::B64,
        VType::B32,
        VType::B32,
        VType::B64,
    ]
}

/// `gid = ctaid.x * ntid.x + tid.x` and `gid * 4`.
fn preamble() -> Vec<Inst> {
    vec![
        Inst::Special { d: VReg(0), r: SpecialReg::Tid(0) },
        Inst::Special { d: VReg(1), r: SpecialReg::CtaId(0) },
        Inst::Special { d: VReg(2), r: SpecialReg::NTid(0) },
        Inst::Alu { op: AluOp::Mul, ty: VType::B32, d: VReg(1), a: r(1), b: r(2) },
        Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(3), a: r(0), b: r(1) },
        Inst::Cvt { dty: VType::B64, d: VReg(4), aty: VType::B32, a: r(3) },
        Inst::Alu { op: AluOp::Mul, ty: VType::B64, d: VReg(4), a: r(4), b: Operand::ImmI(4) },
    ]
}

/// `reg = param[index] + gid * 4`.
fn elem_addr(reg: u32, index: u32) -> [Inst; 2] {
    [
        Inst::LdParam { ty: VType::B64, d: VReg(reg), index },
        Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(reg), a: r(reg), b: r(4) },
    ]
}

/// `x = a[gid]; y = b[gid]; <body>; out[gid] = x`.
fn arith_kernel(name: &str, body: Inst) -> KernelVir {
    let mut insts = preamble();
    insts.extend(elem_addr(5, 0));
    insts.push(Inst::Ld { space: MemSpace::Global, ty: VType::B32, d: VReg(X), addr: VReg(5) });
    insts.extend(elem_addr(5, 1));
    insts.push(Inst::Ld { space: MemSpace::Global, ty: VType::B32, d: VReg(Y), addr: VReg(5) });
    insts.push(body);
    insts.extend(elem_addr(5, 2));
    insts.push(Inst::St { space: MemSpace::Global, ty: VType::B32, addr: VReg(5), a: r(X) });
    insts.push(Inst::Ret);
    KernelVir { name: name.into(), params: vec![ParamDecl::Ptr; 3], vregs: vregs(), insts }
}

fn sub(d: u32, a: u32, b: u32) -> Inst {
    Inst::Alu { op: AluOp::Sub, ty: VType::B32, d: VReg(d), a: r(a), b: r(b) }
}

fn a_of(i: usize) -> i32 {
    (i as i32) * 37 - 1000
}

fn b_of(i: usize) -> i32 {
    5 - (i as i32) * (i as i32)
}

/// Inputs `a`, `b` of `n` i32s and a zeroed output.
fn arith_setup(n: usize) -> impl Fn(&mut DeviceMemory) -> Vec<ParamVal> {
    move |mem| {
        let mut params = Vec::new();
        for data in [(0..n).map(a_of).collect::<Vec<_>>(), (0..n).map(b_of).collect()] {
            let id = mem.alloc(n * 4);
            mem.copy_in_i32(id, &data);
            params.push(ParamVal::Ptr(mem.base_addr(id)));
        }
        let out = mem.alloc(n * 4);
        params.push(ParamVal::Ptr(mem.base_addr(out)));
        params
    }
}

/// `p = &ptrs[gid]` (8-byte elements); `p = ld.b64 [p]`, which leaves
/// `&src[(7 * gid) % n]` in `p`; `out[gid] = ld.b32 [p]`.
fn load_into_address_kernel() -> KernelVir {
    let mut insts = preamble();
    insts.extend([
        Inst::LdParam { ty: VType::B64, d: VReg(P), index: 0 },
        Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(P), a: r(P), b: r(4) },
        Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(P), a: r(P), b: r(4) },
        Inst::Ld { space: MemSpace::Global, ty: VType::B64, d: VReg(P), addr: VReg(P) },
        Inst::Ld { space: MemSpace::Global, ty: VType::B32, d: VReg(X), addr: VReg(P) },
    ]);
    insts.extend(elem_addr(5, 2));
    insts.push(Inst::St { space: MemSpace::Global, ty: VType::B32, addr: VReg(5), a: r(X) });
    insts.push(Inst::Ret);
    let name = "load_into_address".into();
    KernelVir { name, params: vec![ParamDecl::Ptr; 3], vregs: vregs(), insts }
}

/// A pointer table into `src`, `src` itself, and a zeroed output.
fn load_setup(n: usize) -> impl Fn(&mut DeviceMemory) -> Vec<ParamVal> {
    move |mem| {
        let ptrs = mem.alloc(n * 8);
        let src = mem.alloc(n * 4);
        mem.copy_in_i32(src, &(0..n).map(a_of).collect::<Vec<_>>());
        let base = mem.base_addr(src);
        let table: Vec<u8> =
            (0..n).flat_map(|i| (base + 4 * ((7 * i) % n) as u64).to_le_bytes()).collect();
        mem.copy_in(ptrs, &table);
        let out = mem.alloc(n * 4);
        [mem.base_addr(ptrs), base, mem.base_addr(out)].map(ParamVal::Ptr).to_vec()
    }
}

type Setup<'a> = &'a dyn Fn(&mut DeviceMemory) -> Vec<ParamVal>;

/// One launch on a fresh memory image: the stats and every buffer.
fn run_once(
    kernel: &KernelVir,
    config: &LaunchConfig,
    setup: Setup,
) -> (KernelStats, Vec<Vec<u8>>) {
    let mut mem = DeviceMemory::new();
    let params = setup(&mut mem);
    let stats = launch(kernel, config, &params, &mut mem, &[]).expect("launch").stats;
    (stats, (0..3).map(|i| mem.copy_out(BufferId(i))).collect())
}

/// All three engines, each launched twice (the
/// second superblock launch runs from its program cache, every warp in
/// lockstep), must reproduce the serial reference bit for bit; returns the
/// reference's output buffer as i32s.
fn assert_all_agree(kernel: &KernelVir, config: &LaunchConfig, setup: Setup) -> Vec<i32> {
    let under = |engine| ExecOptions::inherit().engine(engine);
    let (want_stats, want_bufs) =
        under(Engine::Reference).scope(|| run_once(kernel, config, setup));
    for engine in [Engine::Reference, Engine::Decoded, Engine::Superblock] {
        for launch_no in 0..2 {
            let before = fusion_counters();
            let (stats, bufs) = under(engine).scope(|| run_once(kernel, config, setup));
            let at = format!("{}, launch {launch_no}", engine.name());
            assert_eq!(stats, want_stats, "{}: stats, {at}", kernel.name);
            assert_eq!(bufs, want_bufs, "{}: buffers, {at}", kernel.name);
            if engine == Engine::Superblock && launch_no == 1 {
                let after = fusion_counters();
                assert_eq!(after.peels, before.peels, "{}: {at} left lockstep", kernel.name);
                assert!(after.vector_execs > before.vector_execs, "{}: {at}", kernel.name);
            }
        }
    }
    want_bufs[2].chunks_exact(4).map(|b| i32::from_le_bytes(b.try_into().unwrap())).collect()
}

fn check_arith(kernel: &KernelVir, host: fn(i32, i32) -> i32) {
    for (grid, block) in GEOMETRIES {
        let n = (grid * block) as usize;
        let out = assert_all_agree(kernel, &LaunchConfig::d1(grid, block), &arith_setup(n));
        let want: Vec<i32> = (0..n).map(|i| host(a_of(i), b_of(i))).collect();
        assert_eq!(out, want, "{} against the host, {grid}×{block}", kernel.name);
    }
}

#[test]
fn x_plus_x_reads_one_column_as_both_operands() {
    let _turn = exclusive();
    let body = Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(X), a: r(X), b: r(X) };
    check_arith(&arith_kernel("x_plus_x", body), |a, _| a.wrapping_add(a));
}

#[test]
fn y_minus_x_writes_its_second_operand() {
    let _turn = exclusive();
    check_arith(&arith_kernel("y_minus_x", sub(X, Y, X)), |a, b| b.wrapping_sub(a));
}

#[test]
fn x_minus_y_writes_its_first_operand() {
    let _turn = exclusive();
    check_arith(&arith_kernel("x_minus_y", sub(X, X, Y)), |a, b| a.wrapping_sub(b));
}

#[test]
fn a_load_may_overwrite_its_address_register() {
    let _turn = exclusive();
    let kernel = load_into_address_kernel();
    for (grid, block) in GEOMETRIES {
        let n = (grid * block) as usize;
        let out = assert_all_agree(&kernel, &LaunchConfig::d1(grid, block), &load_setup(n));
        let want: Vec<i32> = (0..n).map(|i| a_of((7 * i) % n)).collect();
        assert_eq!(out, want, "against the host, {grid}×{block}");
    }
}
