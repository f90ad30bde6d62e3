//! Differential golden-stats tests: the decoded (flat-opcode) engine,
//! the reference interpreter, and the memoized replay path must agree
//! on every statistic and every output byte, for kernels chosen to
//! stress the paths where they could plausibly diverge:
//!
//! * **divergent branches** — ragged per-lane loop trip counts exercise
//!   the decoded engine's `Mark`-collapsed pc map and the warp merger's
//!   divergent-reconstruction fallback,
//! * **atomics** — per-transaction accounting plus read-modify-write
//!   memory ordering,
//! * **segment-straddling strides** — the streaming 128-byte coalescing
//!   fast path vs. the sort-based slow path must count identical
//!   transactions.

use safara_gpusim::interp::{LaunchConfig, ParamVal};
use safara_gpusim::memo::{launch_cached, LaunchCache};
use safara_gpusim::vir::{
    AluOp, CmpOp, Inst, Label, MemSpace, Operand, ParamDecl, SpecialReg, VType,
};
use safara_gpusim::{launch, DeviceMemory, Engine, ExecOptions, KernelStats, KernelVir, VReg};

fn r(i: u32) -> Operand {
    Operand::Reg(VReg(i))
}

/// Run one launch on a fresh memory image built by `setup`, returning
/// the stats and the final contents of every buffer.
fn run_once(
    kernel: &KernelVir,
    config: &LaunchConfig,
    spilled: &[VReg],
    setup: &dyn Fn(&mut DeviceMemory) -> Vec<ParamVal>,
) -> (KernelStats, Vec<Vec<u8>>) {
    let mut mem = DeviceMemory::new();
    let params = setup(&mut mem);
    let result = launch(kernel, config, &params, &mut mem, spilled).expect("launch");
    let mut bufs = Vec::new();
    let mut i = 0u32;
    loop {
        let id = safara_gpusim::BufferId(i);
        let base = mem.base_addr(id);
        if mem.read(base, 1).is_err() {
            break;
        }
        bufs.push(mem.copy_out(id));
        i += 1;
    }
    (result.stats, bufs)
}

/// Assert reference and decoded engines agree, then assert a memoized
/// second run replays the exact same stats and memory.
fn assert_engines_agree(
    kernel: &KernelVir,
    config: &LaunchConfig,
    spilled: &[VReg],
    setup: &dyn Fn(&mut DeviceMemory) -> Vec<ParamVal>,
) -> KernelStats {
    let under = |engine| {
        ExecOptions::inherit().engine(engine).scope(|| run_once(kernel, config, spilled, setup))
    };
    let (ref_stats, ref_bufs) = under(Engine::Reference);
    let (dec_stats, dec_bufs) = under(Engine::Decoded);
    assert_eq!(ref_stats, dec_stats, "stats diverge between engines");
    assert_eq!(ref_bufs, dec_bufs, "memory diverges between engines");

    // Memoized: first call populates, second replays from cache.
    let mut cache = LaunchCache::new();
    for round in 0..2 {
        let mut mem = DeviceMemory::new();
        let params = setup(&mut mem);
        let res = launch_cached(&mut cache, kernel, config, &params, &mut mem, spilled)
            .expect("cached launch");
        assert_eq!(res.stats, ref_stats, "memoized stats diverge (round {round})");
        for (i, expect) in ref_bufs.iter().enumerate() {
            assert_eq!(
                &mem.copy_out(safara_gpusim::BufferId(i as u32)),
                expect,
                "memoized memory diverges (round {round}, buffer {i})"
            );
        }
    }
    assert_eq!((cache.hits, cache.misses), (1, 1), "second round must be a cache hit");
    ref_stats
}

/// Per-lane loop with a ragged trip count (`gid` iterations, where
/// `gid = ctaid.x * ntid.x + tid.x` is the global thread id) and a
/// taken/not-taken predicated branch inside the body.
///
/// ```text
/// acc = 0
/// for (i = 0; i < gid; i++)
///     if (i % 2 == 0) acc += a[i]; else acc += 3;
/// out[gid] = acc
/// ```
fn divergent_kernel() -> KernelVir {
    let (tid, i, acc, p, t0, t1, addr) = (0, 1, 2, 3, 4, 5, 6);
    let (cta, ntid) = (7, 8);
    KernelVir {
        name: "divergent".into(),
        params: vec![ParamDecl::Ptr, ParamDecl::Ptr],
        vregs: vec![
            VType::B32, // tid
            VType::B32, // i
            VType::B32, // acc
            VType::Pred,
            VType::B32, // t0 scratch
            VType::B64, // t1 scratch (addresses)
            VType::B64, // addr
            VType::B32, // ctaid
            VType::B32, // ntid
        ],
        insts: vec![
            Inst::Special { d: VReg(tid), r: SpecialReg::Tid(0) },
            Inst::Special { d: VReg(cta), r: SpecialReg::CtaId(0) },
            Inst::Special { d: VReg(ntid), r: SpecialReg::NTid(0) },
            Inst::Alu { op: AluOp::Mul, ty: VType::B32, d: VReg(cta), a: r(cta), b: r(ntid) },
            Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(tid), a: r(tid), b: r(cta) },
            Inst::Mov { ty: VType::B32, d: VReg(i), a: Operand::ImmI(0) },
            Inst::Mov { ty: VType::B32, d: VReg(acc), a: Operand::ImmI(0) },
            // loop head
            Inst::Mark(Label(0)),
            Inst::Setp { op: CmpOp::Ge, ty: VType::B32, d: VReg(p), a: r(i), b: r(tid) },
            Inst::Bra { target: Label(3), pred: Some((VReg(p), true)) },
            // if (i % 2 == 0)
            Inst::Alu { op: AluOp::Rem, ty: VType::B32, d: VReg(t0), a: r(i), b: Operand::ImmI(2) },
            Inst::Setp {
                op: CmpOp::Ne,
                ty: VType::B32,
                d: VReg(p),
                a: r(t0),
                b: Operand::ImmI(0),
            },
            Inst::Bra { target: Label(1), pred: Some((VReg(p), true)) },
            // then: acc += a[i]
            Inst::Cvt { dty: VType::B64, d: VReg(t1), aty: VType::B32, a: r(i) },
            Inst::Alu { op: AluOp::Mul, ty: VType::B64, d: VReg(t1), a: r(t1), b: Operand::ImmI(4) },
            Inst::LdParam { ty: VType::B64, d: VReg(addr), index: 0 },
            Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(addr), a: r(addr), b: r(t1) },
            Inst::Ld { space: MemSpace::Global, ty: VType::B32, d: VReg(t0), addr: VReg(addr) },
            Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(acc), a: r(acc), b: r(t0) },
            Inst::Bra { target: Label(2), pred: None },
            // else: acc += 3
            Inst::Mark(Label(1)),
            Inst::Alu {
                op: AluOp::Add,
                ty: VType::B32,
                d: VReg(acc),
                a: r(acc),
                b: Operand::ImmI(3),
            },
            Inst::Mark(Label(2)),
            Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(i), a: r(i), b: Operand::ImmI(1) },
            Inst::Bra { target: Label(0), pred: None },
            // exit: out[tid] = acc
            Inst::Mark(Label(3)),
            Inst::Cvt { dty: VType::B64, d: VReg(t1), aty: VType::B32, a: r(tid) },
            Inst::Alu { op: AluOp::Mul, ty: VType::B64, d: VReg(t1), a: r(t1), b: Operand::ImmI(4) },
            Inst::LdParam { ty: VType::B64, d: VReg(addr), index: 1 },
            Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(addr), a: r(addr), b: r(t1) },
            Inst::St { space: MemSpace::Global, ty: VType::B32, addr: VReg(addr), a: r(acc) },
            Inst::Ret,
        ],
    }
}

#[test]
fn divergent_branches_agree() {
    let kernel = divergent_kernel();
    let config = LaunchConfig::d1(2, 64);
    let setup = |mem: &mut DeviceMemory| {
        let a = mem.alloc(128 * 4);
        let out = mem.alloc(128 * 4);
        let data: Vec<i32> = (0..128).map(|i| i * 7 - 300).collect();
        mem.copy_in_i32(a, &data);
        vec![ParamVal::Ptr(mem.base_addr(a)), ParamVal::Ptr(mem.base_addr(out))]
    };
    let stats = assert_engines_agree(&kernel, &config, &[], &setup);
    // Ragged trip counts mean real divergence: issued counts must exceed
    // what uniform execution of the shortest lane would give.
    assert!(stats.simple_insts > 0);
    // Spot-check the semantics on the host: lane t sums a[i] for even i
    // below t and 3 for odd i.
    let mut mem2 = DeviceMemory::new();
    let params2 = setup(&mut mem2);
    ExecOptions::inherit()
        .engine(Engine::Decoded)
        .scope(|| launch(&kernel, &config, &params2, &mut mem2, &[]))
        .unwrap();
    let out = mem2.copy_out_i32(safara_gpusim::BufferId(1));
    let a: Vec<i32> = (0..128).map(|i| i * 7 - 300).collect();
    for (t, &got) in out.iter().enumerate() {
        let expect: i32 =
            (0..t).map(|i| if i % 2 == 0 { a[i] } else { 3 }).sum();
        assert_eq!(got, expect, "lane {t}");
    }
}

/// All lanes atomically add into one f32 cell and one b32 cell indexed
/// by `tid % 8` — serialization count and float accumulation order must
/// match between engines.
fn atomic_kernel() -> KernelVir {
    let (tid, t0, addr, val, off) = (0, 1, 2, 3, 4);
    KernelVir {
        name: "atomic".into(),
        params: vec![ParamDecl::Ptr, ParamDecl::Ptr],
        vregs: vec![VType::B32, VType::B32, VType::B64, VType::F32, VType::B64],
        insts: vec![
            Inst::Special { d: VReg(tid), r: SpecialReg::Tid(0) },
            // atomAdd(sum, (float)tid * 0.25)
            Inst::Cvt { dty: VType::F32, d: VReg(val), aty: VType::B32, a: r(tid) },
            Inst::Math {
                op: safara_gpusim::vir::MathOp::Sqrt,
                ty: VType::F32,
                d: VReg(val),
                a: r(val),
                b: None,
            },
            Inst::LdParam { ty: VType::B64, d: VReg(addr), index: 0 },
            Inst::AtomAdd { ty: VType::F32, addr: VReg(addr), a: r(val) },
            // atomAdd(hist[tid % 8], 1)
            Inst::Alu {
                op: AluOp::Rem,
                ty: VType::B32,
                d: VReg(t0),
                a: r(tid),
                b: Operand::ImmI(8),
            },
            Inst::Cvt { dty: VType::B64, d: VReg(off), aty: VType::B32, a: r(t0) },
            Inst::Alu { op: AluOp::Mul, ty: VType::B64, d: VReg(off), a: r(off), b: Operand::ImmI(4) },
            Inst::LdParam { ty: VType::B64, d: VReg(addr), index: 1 },
            Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(addr), a: r(addr), b: r(off) },
            Inst::AtomAdd { ty: VType::B32, addr: VReg(addr), a: Operand::ImmI(1) },
            Inst::Ret,
        ],
    }
}

#[test]
fn atomics_agree() {
    let kernel = atomic_kernel();
    let config = LaunchConfig::d1(3, 96);
    let setup = |mem: &mut DeviceMemory| {
        let sum = mem.alloc(4);
        let hist = mem.alloc(8 * 4);
        vec![ParamVal::Ptr(mem.base_addr(sum)), ParamVal::Ptr(mem.base_addr(hist))]
    };
    let stats = assert_engines_agree(&kernel, &config, &[], &setup);
    // 288 threads × 2 atomics each.
    assert_eq!(stats.atomics, 2 * 288);
    assert!(stats.sfu_insts > 0, "sqrt must count as SFU");
}

/// The reference engine is the oracle the other two are compared with,
/// so it must stay the serial tree-walker whatever `sim_threads` says: a
/// multi-block launch under a two-thread scope opens no worker pool and
/// equals the one-thread run — where the decoded engine does open one.
#[test]
fn reference_engine_ignores_sim_threads() {
    let kernel = atomic_kernel();
    let config = LaunchConfig::d1(3, 96);
    let setup = |mem: &mut DeviceMemory| {
        let sum = mem.alloc(4);
        let hist = mem.alloc(8 * 4);
        vec![ParamVal::Ptr(mem.base_addr(sum)), ParamVal::Ptr(mem.base_addr(hist))]
    };
    let under = |engine, threads| {
        ExecOptions::inherit().engine(engine).sim_threads(threads).scope(|| {
            let run = run_once(&kernel, &config, &[], &setup);
            (run, safara_gpusim::last_parallel_info())
        })
    };
    let (serial, info) = under(Engine::Reference, 1);
    assert_eq!(info, None);
    let (pooled, info) = under(Engine::Reference, 2);
    assert_eq!(info, None, "the reference engine handed a multi-block launch to a worker pool");
    assert_eq!(serial, pooled);
    let (decoded, info) = under(Engine::Decoded, 2);
    assert_eq!(info.map(|i| i.threads), Some(2), "the decoded engine does pool this launch");
    assert_eq!(serial, decoded);
}

/// Strided f64 loads at 136-byte spacing: every warp's 32 lanes touch 32
/// distinct 128-byte segments and individual accesses straddle segment
/// boundaries — the worst case for the streaming coalescer.
fn straddle_kernel() -> KernelVir {
    let (tid, t1, addr, v, outa) = (0, 1, 2, 3, 4);
    KernelVir {
        name: "straddle".into(),
        params: vec![ParamDecl::Ptr, ParamDecl::Ptr],
        vregs: vec![VType::B32, VType::B64, VType::B64, VType::F64, VType::B64],
        insts: vec![
            Inst::Special { d: VReg(tid), r: SpecialReg::Tid(0) },
            Inst::Cvt { dty: VType::B64, d: VReg(t1), aty: VType::B32, a: r(tid) },
            // a[tid * 17] as bytes: tid * 136
            Inst::Alu { op: AluOp::Mul, ty: VType::B64, d: VReg(addr), a: r(t1), b: Operand::ImmI(136) },
            Inst::LdParam { ty: VType::B64, d: VReg(outa), index: 0 },
            Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(addr), a: r(addr), b: r(outa) },
            Inst::Ld { space: MemSpace::Global, ty: VType::F64, d: VReg(v), addr: VReg(addr) },
            Inst::Alu { op: AluOp::Mul, ty: VType::F64, d: VReg(v), a: r(v), b: Operand::ImmF(1.5) },
            // out[tid] = v (dense, coalesced)
            Inst::Alu { op: AluOp::Mul, ty: VType::B64, d: VReg(t1), a: r(t1), b: Operand::ImmI(8) },
            Inst::LdParam { ty: VType::B64, d: VReg(outa), index: 1 },
            Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(outa), a: r(outa), b: r(t1) },
            Inst::St { space: MemSpace::Global, ty: VType::F64, addr: VReg(outa), a: r(v) },
            Inst::Ret,
        ],
    }
}

#[test]
fn segment_straddling_strides_agree() {
    let kernel = straddle_kernel();
    let config = LaunchConfig::d1(2, 64);
    let n = 128usize;
    let setup = move |mem: &mut DeviceMemory| {
        let a = mem.alloc(n * 136 + 8);
        let out = mem.alloc(n * 8);
        let data: Vec<f64> = (0..(n * 17 + 1)).map(|i| i as f64 * 0.125).collect();
        mem.copy_in_f64(a, &data);
        vec![ParamVal::Ptr(mem.base_addr(a)), ParamVal::Ptr(mem.base_addr(out))]
    };
    let stats = assert_engines_agree(&kernel, &config, &[], &setup);
    // The strided load is uncoalesced: far more transactions than the
    // 4 warps × 1 would give under perfect coalescing. The dense store
    // keeps some coalesced traffic in the mix.
    assert!(
        stats.global_transactions > stats.global_ld_requests,
        "strided loads must split into multiple transactions: {stats:?}"
    );
}

/// The divergent kernel again, but with registers forced into the spill
/// set — local-memory accounting (spill touches) must agree too.
#[test]
fn spilled_registers_agree() {
    let kernel = divergent_kernel();
    let config = LaunchConfig::d1(1, 64);
    let setup = |mem: &mut DeviceMemory| {
        let a = mem.alloc(128 * 4);
        let out = mem.alloc(128 * 4);
        let data: Vec<i32> = (0..128).map(|i| 1000 - i * 3).collect();
        mem.copy_in_i32(a, &data);
        vec![ParamVal::Ptr(mem.base_addr(a)), ParamVal::Ptr(mem.base_addr(out))]
    };
    let stats = assert_engines_agree(&kernel, &config, &[VReg(2), VReg(4)], &setup);
    assert!(stats.local_accesses > 0, "spilled regs must produce local traffic");
}
