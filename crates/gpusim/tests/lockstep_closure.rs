//! The closure rule of the superblock engine's per-warp memory
//! accounting, on kernel shapes the checked-in workloads never take.
//!
//! In lockstep a memory superinstruction accounts its warp-level access
//! group at once and logs nothing per lane. That is exact only while the
//! group is *closed*: no lane outside it can later produce an event the
//! warp-end merge would have put into it. A partial peel whose peeled
//! lanes log an event breaks that premise, so the remaining lanes must go
//! lane-major too; one whose peeled lanes log nothing (the bounds-guard
//! exit) must not. Every case runs under all three engines × `sim_threads`
//! {1, 2}, cold and warm program cache, with every `KernelStats` field
//! and every buffer compared against the reference interpreter.

use safara_gpusim::interp::{LaunchConfig, ParamVal};
use safara_gpusim::vir::{
    AluOp, CmpOp, Inst, Label, MemSpace, Operand, ParamDecl, SpecialReg, VType,
};
use safara_gpusim::{
    fusion_counters, launch, BufferId, DeviceMemory, Engine, ExecOptions, FusionCounters,
    KernelStats, KernelVir, VReg,
};
use std::sync::{Mutex, MutexGuard};

/// The fusion counters are process-wide, so the tests of this file (all
/// of which enter the superblock engine) take turns.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

type Setup<'a> = &'a dyn Fn(&mut DeviceMemory) -> Vec<ParamVal>;

fn r(i: u32) -> Operand {
    Operand::Reg(VReg(i))
}

fn knobs(engine: Engine, threads: u32) -> ExecOptions {
    ExecOptions::inherit().engine(engine).sim_threads(threads)
}

/// One launch on a fresh memory image: the stats and every buffer.
fn run_once(
    kernel: &KernelVir,
    config: &LaunchConfig,
    setup: Setup,
) -> (KernelStats, Vec<Vec<u8>>) {
    let mut mem = DeviceMemory::new();
    let params = setup(&mut mem);
    let n_bufs = params.iter().filter(|p| matches!(p, ParamVal::Ptr(_))).count();
    let stats = launch(kernel, config, &params, &mut mem, &[]).expect("launch").stats;
    (stats, (0..n_bufs as u32).map(|i| mem.copy_out(BufferId(i))).collect())
}

/// All three engines × `sim_threads` {1, 2}, each launched twice (the
/// superblock engine's second launch runs from its program cache, with no
/// profiling warps), must reproduce the serial reference bit for bit.
fn assert_all_agree(kernel: &KernelVir, config: &LaunchConfig, setup: Setup) -> KernelStats {
    let (want_stats, want_bufs) =
        knobs(Engine::Reference, 1).scope(|| run_once(kernel, config, setup));
    for engine in [Engine::Reference, Engine::Decoded, Engine::Superblock] {
        for threads in [1, 2] {
            for launch_no in 0..2 {
                let (stats, bufs) =
                    knobs(engine, threads).scope(|| run_once(kernel, config, setup));
                let at = format!("{} × {threads} threads, launch {launch_no}", engine.name());
                assert_eq!(stats, want_stats, "{}: stats, {at}", kernel.name);
                assert_eq!(bufs, want_bufs, "{}: buffers, {at}", kernel.name);
            }
        }
    }
    want_stats
}

/// What one superblock launch from a warm program cache adds to the
/// fusion counters.
fn warm_delta(
    kernel: &KernelVir,
    config: &LaunchConfig,
    setup: Setup,
    threads: u32,
) -> FusionCounters {
    knobs(Engine::Superblock, threads).scope(|| {
        run_once(kernel, config, setup); // builds and caches the program
        let b = fusion_counters();
        run_once(kernel, config, setup);
        let a = fusion_counters();
        assert_eq!(a.launches - b.launches, 1);
        assert_eq!(a.delegated, b.delegated, "{} must not be delegated", kernel.name);
        assert_eq!(a.superblocks, b.superblocks, "{}: program cache was cold", kernel.name);
        FusionCounters {
            peels: a.peels - b.peels,
            groups_accounted: a.groups_accounted - b.groups_accounted,
            lane_events_logged: a.lane_events_logged - b.lane_events_logged,
            scalar_execs: a.scalar_execs - b.scalar_execs,
            ..FusionCounters::default()
        }
    })
}

/// The preamble every kernel here shares: `gid = ctaid.x * ntid.x +
/// tid.x` in register 3 and its byte offset `gid * 4` in register 4
/// (registers 0–2 hold tid, ctaid and ntid).
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

/// `reg5 = param[index] + gid * 4`: the address of element `gid`.
fn elem_addr(index: u32) -> [Inst; 2] {
    [
        Inst::LdParam { ty: VType::B64, d: VReg(5), index },
        Inst::Alu { op: AluOp::Add, ty: VType::B64, d: VReg(5), a: r(5), b: r(4) },
    ]
}

/// What the lanes that leave the main path do before they finish.
#[derive(Clone, Copy, PartialEq, Debug)]
enum OffPath {
    /// Store to a second array, then rejoin the main path's final store:
    /// the peeled lanes log, and their last event belongs in one group
    /// with the remaining lanes' last event.
    StoreThenJoin,
    /// Rejoin at once: the shared final store is all they log.
    Join,
    /// Return: they log nothing — the bounds-guard shape.
    Ret,
}

/// ```text
/// x = a[gid]
/// if (lane >= 20) goto OFF
/// x += b[gid]; x += c[gid]
/// JOIN: out[gid] = x; return
/// OFF:  (out2[gid] = x; goto JOIN) | (goto JOIN) | (return)
/// ```
fn closure_kernel(off: OffPath) -> KernelVir {
    let (x, y, lane, p) = (6, 7, 8, 9);
    let (join, off_label) = (Label(0), Label(1));
    let mut insts = preamble();
    insts.extend(elem_addr(0));
    insts.push(Inst::Ld { space: MemSpace::Global, ty: VType::B32, d: VReg(x), addr: VReg(5) });
    insts.extend([
        Inst::Alu { op: AluOp::And, ty: VType::B32, d: VReg(lane), a: r(0), b: Operand::ImmI(31) },
        Inst::Setp {
            op: CmpOp::Ge,
            ty: VType::B32,
            d: VReg(p),
            a: r(lane),
            b: Operand::ImmI(20),
        },
        Inst::Bra { target: off_label, pred: Some((VReg(p), true)) },
    ]);
    for index in [1, 2] {
        insts.extend(elem_addr(index));
        insts.push(Inst::Ld { space: MemSpace::Global, ty: VType::B32, d: VReg(y), addr: VReg(5) });
        insts.push(Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(x), a: r(x), b: r(y) });
    }
    let store_x = Inst::St { space: MemSpace::Global, ty: VType::B32, addr: VReg(5), a: r(x) };
    insts.push(Inst::Mark(join));
    insts.extend(elem_addr(3));
    insts.push(store_x.clone());
    insts.push(Inst::Ret);
    insts.push(Inst::Mark(off_label));
    match off {
        OffPath::StoreThenJoin => {
            insts.extend(elem_addr(4));
            insts.push(store_x);
            insts.push(Inst::Bra { target: join, pred: None });
        }
        OffPath::Join => insts.push(Inst::Bra { target: join, pred: None }),
        OffPath::Ret => insts.push(Inst::Ret),
    }
    KernelVir {
        name: format!("closure_{off:?}"),
        params: vec![ParamDecl::Ptr; 5],
        vregs: vec![
            VType::B32, // tid
            VType::B32, // ctaid, then ctaid * ntid
            VType::B32, // ntid
            VType::B32, // gid
            VType::B64, // gid * 4
            VType::B64, // address scratch
            VType::B32, // x
            VType::B32, // y
            VType::B32, // lane
            VType::Pred,
        ],
        insts,
    }
}

/// Three input arrays of `n` distinct i32s and two zeroed outputs.
fn closure_setup(n: usize) -> impl Fn(&mut DeviceMemory) -> Vec<ParamVal> {
    move |mem| {
        let mut params = Vec::new();
        for k in 0..3i32 {
            let id = mem.alloc(n * 4);
            let data: Vec<i32> = (0..n as i32).map(|i| (k + 1) * 1000 + i * (k + 3)).collect();
            mem.copy_in_i32(id, &data);
            params.push(ParamVal::Ptr(mem.base_addr(id)));
        }
        for _ in 0..2 {
            let id = mem.alloc(n * 4);
            params.push(ParamVal::Ptr(mem.base_addr(id)));
        }
        params
    }
}

/// Full warps and a partial last warp (`lanes = 8`) per block.
const GEOMETRIES: [(u32, u32); 2] = [(3, 64), (3, 40)];

/// 32-lane warps of a launch (the only ones `lane >= 20` splits), and all
/// warps.
fn warps_of(grid: u32, block: u32) -> (u64, u64) {
    ((grid * (block / 32)) as u64, (grid * block.div_ceil(32)) as u64)
}

/// (1) The peeled lanes log — a store of their own, then the store they
/// share with the lanes still in lockstep. Those lanes must leave
/// lockstep too, or the shared store is accounted as two requests.
#[test]
fn peeled_lanes_that_log_pull_the_rest_out_of_lockstep() {
    let _turn = exclusive();
    for off in [OffPath::StoreThenJoin, OffPath::Join] {
        let kernel = closure_kernel(off);
        for (grid, block) in GEOMETRIES {
            let config = LaunchConfig::d1(grid, block);
            let setup = closure_setup((grid * block) as usize);
            let stats = assert_all_agree(&kernel, &config, &setup);
            let (full, all) = warps_of(grid, block);
            let own_stores = if off == OffPath::StoreThenJoin { full } else { 0 };
            // One request per warp for the shared store, whoever takes
            // part in it.
            assert_eq!(stats.global_st_requests, all + own_stores, "{off:?} {grid}×{block}");
            assert_eq!(stats.global_ld_requests, 3 * all, "{off:?} {grid}×{block}");
            if block == 64 {
                // Every warp's 128 bytes are one aligned segment.
                assert_eq!(stats.global_transactions, 4 * all + own_stores);
            }
            for threads in [1, 2] {
                let d = warm_delta(&kernel, &config, &setup, threads);
                // Suffix and prefix peel separately; only `x = a[gid]`
                // (and everything of an undivided 8-lane warp) is
                // accounted at the instruction.
                assert_eq!(d.peels, 2 * full, "{off:?} {grid}×{block} × {threads}");
                assert_eq!(d.groups_accounted, full + 4 * (all - full));
                let own = if off == OffPath::StoreThenJoin { 12 } else { 0 };
                assert_eq!(d.lane_events_logged, full * (12 + own + 20 * 3));
            }
        }
    }
}

/// (2) The peeled lanes return without touching memory: the shortened
/// warp stays in lockstep and keeps accounting per warp.
#[test]
fn peeled_lanes_that_log_nothing_leave_the_rest_in_lockstep() {
    let _turn = exclusive();
    let kernel = closure_kernel(OffPath::Ret);
    for (grid, block) in GEOMETRIES {
        let config = LaunchConfig::d1(grid, block);
        let setup = closure_setup((grid * block) as usize);
        let stats = assert_all_agree(&kernel, &config, &setup);
        let (full, all) = warps_of(grid, block);
        assert_eq!(stats.global_ld_requests, 3 * all);
        assert_eq!(stats.global_st_requests, all);
        for threads in [1, 2] {
            let d = warm_delta(&kernel, &config, &setup, threads);
            assert_eq!(d.peels, full, "exactly one peel per divided warp, {grid}×{block}");
            assert_eq!(d.groups_accounted, 4 * all);
            assert_eq!(d.lane_events_logged, 0);
        }
    }
}

/// `out[gid] = *(u32 *)(src + delta)`: a load from a warp-uniform
/// address, which the engine hoists to one scalar execution per warp.
fn uniform_load_kernel(delta: i64) -> KernelVir {
    let (ua, x) = (6, 7);
    let mut insts = preamble();
    insts.extend([
        Inst::LdParam { ty: VType::B64, d: VReg(ua), index: 0 },
        Inst::Alu {
            op: AluOp::Add,
            ty: VType::B64,
            d: VReg(ua),
            a: r(ua),
            b: Operand::ImmI(delta),
        },
        Inst::Ld { space: MemSpace::Global, ty: VType::B32, d: VReg(x), addr: VReg(ua) },
    ]);
    insts.extend(elem_addr(1));
    insts.push(Inst::St { space: MemSpace::Global, ty: VType::B32, addr: VReg(5), a: r(x) });
    insts.push(Inst::Ret);
    KernelVir {
        name: format!("uniform_load_{delta}"),
        params: vec![ParamDecl::Ptr; 2],
        vregs: vec![
            VType::B32,
            VType::B32,
            VType::B32,
            VType::B32,
            VType::B64,
            VType::B64,
            VType::B64, // uniform address
            VType::B32, // x
        ],
        insts,
    }
}

/// (3) A hoisted uniform load is one request per warp, and one address
/// stands for the warp's 32: two transactions when the four bytes
/// straddle a 128-byte boundary, one when they do not. (4) rides along as
/// the second geometry.
#[test]
fn hoisted_uniform_load_counts_the_segments_of_one_address() {
    let _turn = exclusive();
    for (grid, block) in GEOMETRIES {
        let config = LaunchConfig::d1(grid, block);
        let n = (grid * block) as usize;
        let setup = move |mem: &mut DeviceMemory| {
            let src = mem.alloc(256);
            mem.copy_in(src, &(0..=255).collect::<Vec<u8>>());
            let out = mem.alloc(n * 4);
            vec![ParamVal::Ptr(mem.base_addr(src)), ParamVal::Ptr(mem.base_addr(out))]
        };
        let (_, all) = warps_of(grid, block);
        let mut transactions = Vec::new();
        for delta in [124, 126] {
            let kernel = uniform_load_kernel(delta);
            let stats = assert_all_agree(&kernel, &config, &setup);
            assert_eq!(stats.global_ld_requests, all, "one request per warp at +{delta}");
            transactions.push(stats.global_transactions);
            for threads in [1, 2] {
                let d = warm_delta(&kernel, &config, &setup, threads);
                assert_eq!((d.peels, d.lane_events_logged), (0, 0));
                assert_eq!(d.groups_accounted, 2 * all, "the load and the store, per warp");
                assert!(d.scalar_execs >= 3 * all, "address, add and load are hoisted");
            }
        }
        assert_eq!(transactions[1], transactions[0] + all, "+126 straddles, +124 does not");
    }
}

/// (5) The compiler's reduction shape: every thread ends with one
/// `AtomAdd` into the same cell. In lockstep the 32 adds issue in lane
/// order (f32, so a different order would change the sum's bits) and are
/// accounted as one group of `lanes` serialized transactions.
#[test]
fn end_of_kernel_atomic_in_lockstep_counts_every_thread() {
    let _turn = exclusive();
    let (x, sum) = (6, 7);
    let mut insts = preamble();
    insts.extend(elem_addr(0));
    insts.extend([
        Inst::Ld { space: MemSpace::Global, ty: VType::F32, d: VReg(x), addr: VReg(5) },
        Inst::LdParam { ty: VType::B64, d: VReg(sum), index: 1 },
        Inst::AtomAdd { ty: VType::F32, addr: VReg(sum), a: r(x) },
        Inst::Ret,
    ]);
    let kernel = KernelVir {
        name: "atomic_tail".into(),
        params: vec![ParamDecl::Ptr; 2],
        vregs: vec![
            VType::B32,
            VType::B32,
            VType::B32,
            VType::B32,
            VType::B64,
            VType::B64,
            VType::F32, // x
            VType::B64, // &sum
        ],
        insts,
    };
    for (grid, block) in GEOMETRIES {
        let config = LaunchConfig::d1(grid, block);
        let n = (grid * block) as usize;
        let setup = move |mem: &mut DeviceMemory| {
            let a = mem.alloc(n * 4);
            // Magnitudes seven decades apart: the sum depends on the order.
            let data: Vec<f32> =
                (0..n).map(|i| 1.0e-3 * (i as f32 + 1.0) * 10f32.powi(i as i32 % 8)).collect();
            mem.copy_in_f32(a, &data);
            let sum = mem.alloc(4);
            vec![ParamVal::Ptr(mem.base_addr(a)), ParamVal::Ptr(mem.base_addr(sum))]
        };
        let stats = assert_all_agree(&kernel, &config, &setup);
        assert_eq!(stats.atomics, stats.threads);
        assert_eq!(stats.threads, n as u64);
        let (_, all) = warps_of(grid, block);
        for threads in [1, 2] {
            let d = warm_delta(&kernel, &config, &setup, threads);
            assert_eq!((d.peels, d.lane_events_logged), (0, 0));
            assert_eq!(d.groups_accounted, 2 * all, "the load and the atomic, per warp");
        }
    }
}

/// (6) An atomic inside a loop: each thread adds its element three times.
/// Lockstep would interleave one thread's adds with its neighbours', so
/// the superblock engine hands the whole launch to the decoded engine —
/// the one delegation path, which no suite workload takes. The bytes and
/// stats are the reference's, and the launch moves `delegated` by one
/// and no other counter but `launches`.
#[test]
fn atomic_in_a_loop_delegates_the_launch_to_the_decoded_engine() {
    let _turn = exclusive();
    let (x, sum, k, p) = (6, 7, 8, 9);
    let top = Label(0);
    let mut insts = preamble();
    insts.extend(elem_addr(0));
    insts.extend([
        Inst::Ld { space: MemSpace::Global, ty: VType::F32, d: VReg(x), addr: VReg(5) },
        Inst::LdParam { ty: VType::B64, d: VReg(sum), index: 1 },
        Inst::Mov { ty: VType::B32, d: VReg(k), a: Operand::ImmI(0) },
        Inst::Mark(top),
        Inst::AtomAdd { ty: VType::F32, addr: VReg(sum), a: r(x) },
        Inst::Alu { op: AluOp::Add, ty: VType::B32, d: VReg(k), a: r(k), b: Operand::ImmI(1) },
        Inst::Setp { op: CmpOp::Lt, ty: VType::B32, d: VReg(p), a: r(k), b: Operand::ImmI(3) },
        Inst::Bra { target: top, pred: Some((VReg(p), true)) },
        Inst::Ret,
    ]);
    let kernel = KernelVir {
        name: "atomic_loop".into(),
        params: vec![ParamDecl::Ptr; 2],
        vregs: vec![
            VType::B32,
            VType::B32,
            VType::B32,
            VType::B32,
            VType::B64,
            VType::B64,
            VType::F32, // x
            VType::B64, // &sum
            VType::B32, // k
            VType::Pred,
        ],
        insts,
    };
    for (grid, block) in GEOMETRIES {
        let config = LaunchConfig::d1(grid, block);
        let n = (grid * block) as usize;
        let setup = move |mem: &mut DeviceMemory| {
            let a = mem.alloc(n * 4);
            let data: Vec<f32> =
                (0..n).map(|i| 1.0e-3 * (i as f32 + 1.0) * 10f32.powi(i as i32 % 8)).collect();
            mem.copy_in_f32(a, &data);
            let sum = mem.alloc(4);
            vec![ParamVal::Ptr(mem.base_addr(a)), ParamVal::Ptr(mem.base_addr(sum))]
        };
        let stats = assert_all_agree(&kernel, &config, &setup);
        assert_eq!(stats.atomics, 3 * stats.threads);
        for threads in [1, 2] {
            knobs(Engine::Superblock, threads).scope(|| {
                let before = fusion_counters();
                run_once(&kernel, &config, &setup);
                let after = fusion_counters();
                let want = FusionCounters {
                    launches: before.launches + 1,
                    delegated: before.delegated + 1,
                    ..before
                };
                assert_eq!(after, want, "{grid}×{block} × {threads}");
            });
        }
    }
}
