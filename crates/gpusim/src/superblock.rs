//! The profile-guided superblock engine: fused, lane-vectorized warp
//! execution.
//!
//! The decoded engine (`crate::decode`) already hoists operand
//! resolution out of the execution loop, but it still pays one
//! jump-table dispatch *per instruction per lane* and re-executes
//! warp-uniform computations (loop bounds, base addresses, the offset
//! expressions the `dim`/`small` clauses shrink) 32 times per warp.
//! This engine removes both costs for the hot straight-line regions
//! that dominate the paper's kernels:
//!
//! 1. **Profile.** The first [`PROFILE_WARPS`] warps of a launch run
//!    lane-major through the decoded instruction stream with lightweight
//!    execution counters on basic blocks and taken/not-taken counters on
//!    conditional branches.
//! 2. **Fuse.** Blocks whose execution count reaches the hot-block
//!    threshold become superblock entries; fusion stitches consecutive
//!    hot blocks together, following unconditional branches and the
//!    *biased* exit of conditional branches (which become in-line
//!    guards), stopping at backedges and `Ret`.
//! 3. **Hoist.** A flow-insensitive uniformity analysis (varying seeds:
//!    thread-id reads; block-ids, launch constants, interned immediates
//!    and kernel parameters are warp-uniform, and a load from a uniform
//!    address is itself uniform) classifies every register;
//!    superinstructions whose result is warp-uniform execute **once per
//!    warp** on a scalar register file instead of once per lane.
//! 4. **Vectorize.** The remaining lane-varying superinstructions
//!    execute as tight 32-lane inner loops: one opcode dispatch per
//!    superinstruction per *warp* instead of per lane, with operands
//!    pre-resolved to either the scalar file or the lane-major
//!    (structure-of-arrays) register file, one 32-word column per
//!    register. The loops read the operand columns in place: the
//!    destination column is borrowed mutably and the source columns
//!    shared (`get_disjoint_mut`), a uniform operand enters the loop as
//!    one scalar, and an operand that *is* the destination is read
//!    through it — exact, because lane `l` is read before lane `l` is
//!    written. Only a load that overwrites its own address register and
//!    an atomic copy a column first. Memory superinstructions
//!    resolve their addresses and account their transactions per warp,
//!    at the instruction — the 32 addresses are already in one array, so
//!    a warp that stays inside one buffer costs one buffer lookup and
//!    one bounds check (`DeviceMemory::read_warp` /
//!    `DeviceMemory::write_warp`), and one pass counts its 128-byte
//!    segments; a hoisted load's single address stands for all of them.
//!    Only lane-major execution (profile warps, peels, the decoded
//!    engine) accesses and logs per lane for the warp-end merge.
//! 5. **Pair.** A lane-vectorized `sin` and `cos` of one operand register
//!    and one width (314.omriq's `cos(arg); sin(arg)`, 352.ep's
//!    Box–Muller pair) become one step at the first one's position, which
//!    writes both destination columns from one range reduction per lane
//!    ([`crate::math::sincos_column`]). The two must sit in one straight
//!    run of superinstructions (no branch, fused-through branch or exit
//!    between them), no step between them may write the operand or read or
//!    write the later destination, and neither destination may be the
//!    operand or the other destination: then computing the later result
//!    early is invisible. The later instruction stays in place as a
//!    counted placeholder, so every count (`KernelStats`, the SFU class,
//!    the runaway bound) is what the two instructions give unpaired. The
//!    reference and decoded engines keep their two scalar calls and are
//!    the pair's oracle.
//!
//! This is the default engine ([`crate::exec_options`]). Byte-identity
//! with the decoded engine (asserted by differential tests) is preserved
//! by construction where it is observable: within one memory
//! superinstruction lanes issue in lane order (so same-instruction
//! conflicts — notably the compiler's single end-of-kernel reduction
//! `AtomAdd` — serialize exactly as lane-major execution does), warp
//! divergence **peels** the warp back to lane-major decoded execution
//! (lanes in order, each logging its own event stream for the
//! transaction merge), and kernels with an atomic inside a loop are
//! delegated wholesale to `crate::decode::launch_decoded`.
//!
//! The hot-block threshold (`HOT_THRESHOLD`, 8) is a constant, not a
//! knob: the bytes are the same at any value, so it decides only how
//! soon fusion starts; running without fusion is the decoded engine,
//! which is selectable on its own.
//!
//! **The closure rule** is what makes accounting at the instruction
//! exact. The merge groups a warp's events by `(instruction, occurrence)`
//! across lanes. A group formed in lockstep holds every lane then in the
//! warp, and while no peeled lane has logged anything it is *closed*: all
//! those lanes share the same event prefix, so no later event of any of
//! them can carry the same `(instruction, occurrence)`. Dropping that
//! common prefix from every lane's log shifts occurrence numbers
//! uniformly and leaves the partition of the remaining events — hence
//! every sum — unchanged. So lockstep never logs, and when a range-guard
//! branch peels a suffix of the warp: if the peeled lanes logged nothing
//! on their way out (the bounds-guard exit) the shortened warp stays in
//! lockstep; if they did log, a later access of the remaining lanes may
//! belong in one of their groups, so those lanes peel too and the merge
//! sees all of them. There is no lockstep mode that logs.

use crate::decode::{
    decode, launch_decoded, Decoded, DInst, ExecSeed, Op, WarpMerge, CLS_FP64, CLS_INT64,
    CLS_SFU, CLS_SIMPLE, NO_REG, WARP_SIZE,
};
use crate::interp::{
    alu, compare, convert, math, neg, LaneCounts, LaunchConfig, LaunchResult,
    ParamVal, SimError, FLAG_ATOMIC, FLAG_STORE, MAX_INSTS_PER_THREAD, SPACE_GLOBAL, SPACE_LOCAL,
    SPACE_READONLY,
};
use crate::memory::DeviceMemory;
use crate::stats::KernelStats;
use crate::vir::{AluOp, CmpOp, KernelVir, MathOp, VReg, VType};
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Warps executed lane-major (instrumented) before fusion kicks in.
pub const PROFILE_WARPS: u64 = 2;

/// Hot-block threshold: profiled lane-level executions a basic block
/// needs before it is eligible for fusion.
const HOT_THRESHOLD: u64 = 8;

/// Maximum basic blocks fused into one superblock.
const MAX_FUSE: u32 = 16;

/// Operand encoding: bit 31 marks a warp-uniform register, resolved
/// against the scalar file instead of the lane-major file. Real
/// register-file indices stay far below this bit.
const UB: u32 = 1 << 31;

// ---------------------------------------------------------------------
// Fusion/hoist observability counters (process-wide, flushed once per
// launch; reported through `safara-obs` spans and the server `stats`
// section).

static C_LAUNCHES: AtomicU64 = AtomicU64::new(0);
static C_DELEGATED: AtomicU64 = AtomicU64::new(0);
static C_HOT_BLOCKS: AtomicU64 = AtomicU64::new(0);
static C_SUPERBLOCKS: AtomicU64 = AtomicU64::new(0);
static C_FUSED_BLOCKS: AtomicU64 = AtomicU64::new(0);
static C_HOISTED: AtomicU64 = AtomicU64::new(0);
static C_SCALAR_EXECS: AtomicU64 = AtomicU64::new(0);
static C_VECTOR_EXECS: AtomicU64 = AtomicU64::new(0);
static C_PEELS: AtomicU64 = AtomicU64::new(0);
static C_GROUPS_ACCOUNTED: AtomicU64 = AtomicU64::new(0);
static C_LANE_EVENTS_LOGGED: AtomicU64 = AtomicU64::new(0);
static C_TRIG_PAIRS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the superblock engine's cumulative fusion/hoist
/// counters (process-wide, monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionCounters {
    /// Launches entering this engine.
    pub launches: u64,
    /// Launches delegated wholesale to the decoded engine (an atomic
    /// inside a loop).
    pub delegated: u64,
    /// Basic blocks that met the hot threshold.
    pub hot_blocks: u64,
    /// Superblocks built.
    pub superblocks: u64,
    /// Additional basic blocks fused into a superblock past its entry.
    pub fused_blocks: u64,
    /// Superinstructions hoisted to the scalar (warp-uniform) file
    /// (static, per build).
    pub hoisted: u64,
    /// Hoisted superinstructions executed (once per warp each).
    pub scalar_execs: u64,
    /// Lane-vectorized superinstructions executed (once per warp each).
    pub vector_execs: u64,
    /// Warps peeled back to lane-major execution (divergence or a cold
    /// region).
    pub peels: u64,
    /// Memory access groups accounted per warp, at the superinstruction.
    pub groups_accounted: u64,
    /// Memory events logged per lane for the warp-end merge: profile
    /// warps and peeled lanes only.
    pub lane_events_logged: u64,
    /// Paired `sin`/`cos` steps executed (once per warp each); each one
    /// also counts its two halves in `vector_execs`.
    pub trig_pairs: u64,
}

/// Read the cumulative fusion counters.
pub fn fusion_counters() -> FusionCounters {
    FusionCounters {
        launches: C_LAUNCHES.load(Ordering::Relaxed),
        delegated: C_DELEGATED.load(Ordering::Relaxed),
        hot_blocks: C_HOT_BLOCKS.load(Ordering::Relaxed),
        superblocks: C_SUPERBLOCKS.load(Ordering::Relaxed),
        fused_blocks: C_FUSED_BLOCKS.load(Ordering::Relaxed),
        hoisted: C_HOISTED.load(Ordering::Relaxed),
        scalar_execs: C_SCALAR_EXECS.load(Ordering::Relaxed),
        vector_execs: C_VECTOR_EXECS.load(Ordering::Relaxed),
        peels: C_PEELS.load(Ordering::Relaxed),
        groups_accounted: C_GROUPS_ACCOUNTED.load(Ordering::Relaxed),
        lane_events_logged: C_LANE_EVENTS_LOGGED.load(Ordering::Relaxed),
        trig_pairs: C_TRIG_PAIRS.load(Ordering::Relaxed),
    }
}

/// Per-launch counter accumulator, flushed to the atomics once so the
/// hot loops never touch shared cache lines.
#[derive(Default)]
struct LocalCtrs {
    launches: u64,
    delegated: u64,
    hot_blocks: u64,
    superblocks: u64,
    fused_blocks: u64,
    hoisted: u64,
    scalar_execs: u64,
    vector_execs: u64,
    peels: u64,
    groups_accounted: u64,
    lane_events_logged: u64,
    trig_pairs: u64,
}

impl LocalCtrs {
    /// Take over the memory counters a scratch's warp merge kept while it
    /// ran this launch's warps.
    fn add_warp(&mut self, w: &WarpMerge) {
        self.groups_accounted += w.groups_accounted;
        self.lane_events_logged += w.events_logged;
    }

    fn flush(&self) {
        C_LAUNCHES.fetch_add(self.launches, Ordering::Relaxed);
        C_DELEGATED.fetch_add(self.delegated, Ordering::Relaxed);
        C_HOT_BLOCKS.fetch_add(self.hot_blocks, Ordering::Relaxed);
        C_SUPERBLOCKS.fetch_add(self.superblocks, Ordering::Relaxed);
        C_FUSED_BLOCKS.fetch_add(self.fused_blocks, Ordering::Relaxed);
        C_HOISTED.fetch_add(self.hoisted, Ordering::Relaxed);
        C_SCALAR_EXECS.fetch_add(self.scalar_execs, Ordering::Relaxed);
        C_VECTOR_EXECS.fetch_add(self.vector_execs, Ordering::Relaxed);
        C_PEELS.fetch_add(self.peels, Ordering::Relaxed);
        C_GROUPS_ACCOUNTED.fetch_add(self.groups_accounted, Ordering::Relaxed);
        C_LANE_EVENTS_LOGGED.fetch_add(self.lane_events_logged, Ordering::Relaxed);
        C_TRIG_PAIRS.fetch_add(self.trig_pairs, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Profiling

/// Block/branch execution counters filled by the instrumented
/// lane-major profiling warps (`run_lane::<true>`).
pub(crate) struct ProfileCounters {
    /// `pc -> block id + 1` for block leaders, 0 otherwise.
    pub(crate) leader_block: Vec<u32>,
    /// Lane-level execution count per basic block.
    pub(crate) counts: Vec<u64>,
    /// Per-branch-pc: times the branch transferred to its target.
    pub(crate) taken: Vec<u64>,
    /// Per-branch-pc: times the branch executed.
    pub(crate) seen: Vec<u64>,
}

#[inline]
fn in_range(op: Op, lo: Op, hi: Op) -> bool {
    (lo as u16..=hi as u16).contains(&(op as u16))
}

fn is_branch(op: Op) -> bool {
    matches!(op, Op::Bra | Op::BraT | Op::BraF)
}

fn is_ld(op: Op) -> bool {
    in_range(op, Op::LdG1, Op::LdLoc8)
}

fn is_st(op: Op) -> bool {
    in_range(op, Op::StG1, Op::StLoc8)
}

fn is_atom(op: Op) -> bool {
    in_range(op, Op::AtomB32, Op::AtomPred)
}

/// The destination register this instruction defines, if any.
fn def_of(i: &DInst) -> Option<u32> {
    if is_branch(i.op) || is_st(i.op) || is_atom(i.op) || i.op == Op::Ret {
        None
    } else {
        Some(i.d)
    }
}

/// The register-file operands this instruction reads (`a`, `b`).
fn reg_reads(i: &DInst) -> (Option<u32>, Option<u32>) {
    let op = i.op;
    if matches!(
        op,
        Op::Ret | Op::Bra | Op::TidX | Op::TidY | Op::TidZ | Op::CtaX | Op::CtaY | Op::CtaZ
    ) {
        (None, None)
    } else if matches!(op, Op::BraT | Op::BraF | Op::Mov | Op::Not)
        || is_ld(op)
        || in_range(op, Op::NegB32, Op::NegPred)
        || in_range(op, Op::CvtB32B32, Op::CvtPredPred)
    {
        (Some(i.a), None)
    } else if in_range(op, Op::SqrtB32, Op::PowPred) {
        (Some(i.a), (i.b != NO_REG).then_some(i.b))
    } else {
        // Binary ALU / Setp / St / Atom.
        (Some(i.a), Some(i.b))
    }
}

/// Flow-insensitive warp-uniformity classes per register-file index
/// (true = uniform): a register is varying if *any* def depends on a
/// thread-id or a varying operand. Constants (interned immediates,
/// parameters, launch constants) and block-ids are uniform. A load from
/// a *uniform* address is itself uniform — every lane reads the same
/// cell at the same step (the engine's no-intra-warp-hazard premise,
/// enforced by the differential suite) — which is what lets the k-space
/// / coefficient-table loads of the fig7 kernels execute once per warp.
fn classify(d: &Decoded) -> Vec<bool> {
    let n_regs = d.n_vregs + d.consts.len();
    let mut uni = vec![true; n_regs];
    loop {
        let mut changed = false;
        for i in &d.insts {
            let Some(dst) = def_of(i) else { continue };
            let seeded = matches!(i.op, Op::TidX | Op::TidY | Op::TidZ);
            let (ra, rb) = reg_reads(i);
            let varying = seeded
                || ra.is_some_and(|r| !uni[r as usize])
                || rb.is_some_and(|r| !uni[r as usize]);
            if varying && uni[dst as usize] {
                uni[dst as usize] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    uni
}

/// Basic-block discovery: returns (`leader_block` as in
/// [`ProfileCounters`], `block_of` per pc, block count).
fn find_blocks(d: &Decoded) -> (Vec<u32>, Vec<u32>, usize) {
    let n = d.insts.len();
    let mut is_leader = vec![false; n];
    if n > 0 {
        is_leader[0] = true;
    }
    for (pc, i) in d.insts.iter().enumerate() {
        if is_branch(i.op) {
            let t = i.d as usize;
            if t < n {
                is_leader[t] = true;
            }
        }
        if (is_branch(i.op) || i.op == Op::Ret) && pc + 1 < n {
            is_leader[pc + 1] = true;
        }
    }
    let mut leader_block = vec![0u32; n];
    let mut block_of = vec![0u32; n];
    let mut b = 0u32;
    for pc in 0..n {
        if is_leader[pc] {
            b += 1;
            leader_block[pc] = b;
        }
        block_of[pc] = b - 1;
    }
    (leader_block, block_of, b as usize)
}

/// True if any atomic lies inside a backward-branch range: multiple
/// atomics per thread would interleave differently under lockstep, so
/// such kernels are delegated to the decoded engine.
fn atomics_in_loops(d: &Decoded) -> bool {
    for (pc, i) in d.insts.iter().enumerate() {
        if is_branch(i.op) && i.d as usize <= pc {
            let lo = i.d as usize;
            if d.insts[lo..=pc].iter().any(|j| is_atom(j.op)) {
                return true;
            }
        }
    }
    false
}

// ---------------------------------------------------------------------
// Superblock program

/// A flat superinstruction: a decoded instruction with operands
/// pre-resolved against the uniformity classes (`UB` bit).
#[derive(Debug, Clone, Copy)]
struct SInst {
    op: Op,
    cls: u8,
    spill: u8,
    /// Execute once per warp on the scalar (uniform) file.
    scalar: bool,
    d: u32,
    a: u32,
    b: u32,
}

/// One step of a superblock.
#[derive(Debug, Clone)]
enum Ctl {
    /// A scalar or lane-vectorized superinstruction.
    Seq(SInst),
    /// A lane-vectorized `sin` and `cos` of operand `a` (f32 or f64
    /// lanes), at the first one's position: one range reduction per lane
    /// writes both destination columns. Counted as the first of the two.
    Pair { sin: u32, cos: u32, a: u32, f32_lanes: bool, cls: u8, spill: u8 },
    /// The later half of a `Pair`, left in its place: counted here,
    /// computed by the pair.
    Paired { cls: u8, spill: u8 },
    /// A fused-through unconditional branch: counts as an executed
    /// instruction, control simply falls through to the next step.
    Ghost { cls: u8, spill: u8 },
    /// A conditional branch. `cont = Some(dir)`: the superblock
    /// continues in-line when every lane goes `dir` (true = taken); a
    /// uniform opposite outcome exits to the other side; a mixed
    /// outcome peels. `cont = None`: both outcomes exit.
    Br { pred: u32, sense: bool, taken: u32, fall: u32, cont: Option<bool>, cls: u8, spill: u8 },
    /// Unconditional superblock exit to a decoded pc (`counted` when it
    /// stands for a real `Bra` instruction).
    Exit { target: u32, counted: bool, cls: u8, spill: u8 },
    /// Kernel return.
    Ret { cls: u8, spill: u8 },
    /// Fell off the end of the instruction stream (implicit return; not
    /// a counted instruction).
    Done,
}

struct Superblock {
    steps: Vec<Ctl>,
}

struct SbProgram {
    sbs: Vec<Superblock>,
    /// Decoded pc -> superblock starting there.
    at: Vec<Option<u32>>,
}

// ---------------------------------------------------------------------
// Cross-launch program cache
//
// Iterative workloads relaunch the same kernels dozens of times; the
// decoded content (instructions + interned constants, which embed the
// eagerly-resolved parameters) fully determines the profile-guided
// build inputs except for the branch-bias sample, and the build output
// is *correct* under any bias (guards are checked at run time — bias
// only affects how often the lockstep path exits early). So the built
// program is cached per thread, keyed by the full decoded content, and
// cache hits skip both the profiling warps and the fusion pass entirely.

/// Everything a launch needs to go straight to lockstep execution.
struct CachedProg {
    uni: Vec<bool>,
    prog: SbProgram,
}

const PROG_CACHE_CAP: usize = 64;

std::thread_local! {
    static PROG_CACHE: std::cell::RefCell<VecDeque<(Vec<u64>, Rc<CachedProg>)>> =
        const { std::cell::RefCell::new(VecDeque::new()) };
}

/// Exact content key: register-file shape, constants, and every decoded
/// instruction field. Full content (not a hash) — a collision would
/// silently run the wrong program.
fn prog_key(d: &Decoded) -> Vec<u64> {
    let mut k = Vec::with_capacity(2 + d.consts.len() + 3 * d.insts.len());
    k.push(d.n_vregs as u64);
    k.push(d.consts.len() as u64);
    k.extend_from_slice(&d.consts);
    for i in &d.insts {
        k.push(((i.op as u64) << 32) | ((i.cls as u64) << 16) | i.spill as u64);
        k.push(((i.d as u64) << 32) | i.a as u64);
        k.push(i.b as u64);
    }
    k
}

fn prog_cache_get(key: &[u64]) -> Option<Rc<CachedProg>> {
    PROG_CACHE.with(|c| {
        c.borrow().iter().find(|(k, _)| k.as_slice() == key).map(|(_, p)| p.clone())
    })
}

fn prog_cache_put(key: Vec<u64>, prog: Rc<CachedProg>) {
    PROG_CACHE.with(|c| {
        let mut c = c.borrow_mut();
        if c.len() >= PROG_CACHE_CAP {
            c.pop_front(); // oldest first: a full cache loses one program, not all
        }
        c.push_back((key, prog));
    });
}

fn enc(r: u32, uni: &[bool]) -> u32 {
    if uni[r as usize] {
        r | UB
    } else {
        r
    }
}

fn make_sinst(i: &DInst, uni: &[bool]) -> SInst {
    let scalar = def_of(i).is_some_and(|r| uni[r as usize]);
    let (ra, rb) = reg_reads(i);
    let a = match ra {
        Some(r) => enc(r, uni),
        None => i.a,
    };
    let b = match rb {
        Some(r) => enc(r, uni),
        None => i.b,
    };
    SInst { op: i.op, cls: i.cls, spill: i.spill, scalar, d: i.d, a, b }
}

fn build_one(
    d: &Decoded,
    prof: &ProfileCounters,
    hot: &[bool],
    block_of: &[u32],
    uni: &[bool],
    entry: usize,
    ctrs: &mut LocalCtrs,
) -> Superblock {
    let n = d.insts.len();
    let mut steps = Vec::new();
    // The decoded pc of each step (read for `Seq` steps only).
    let mut pcs = Vec::new();
    let mut pc = entry;
    let mut fused = 1u32;
    loop {
        pcs.push(pc);
        let i = d.insts[pc];
        if i.op == Op::Ret {
            steps.push(Ctl::Ret { cls: i.cls, spill: i.spill });
            break;
        }
        if i.op == Op::Bra {
            let t = i.d as usize;
            if t > pc && t < n && hot[block_of[t] as usize] && fused < MAX_FUSE {
                steps.push(Ctl::Ghost { cls: i.cls, spill: i.spill });
                ctrs.fused_blocks += 1;
                fused += 1;
                pc = t;
                continue;
            }
            steps.push(Ctl::Exit { target: i.d, counted: true, cls: i.cls, spill: i.spill });
            break;
        }
        if is_branch(i.op) {
            let sense = i.op == Op::BraT;
            let taken = i.d;
            let fall = (pc + 1) as u32;
            let cont_taken = prof.taken[pc] * 2 > prof.seen[pc];
            let cont_pc = if cont_taken { taken as usize } else { pc + 1 };
            let pred = enc(i.a, uni);
            if cont_pc > pc && cont_pc < n && hot[block_of[cont_pc] as usize] && fused < MAX_FUSE
            {
                steps.push(Ctl::Br {
                    pred,
                    sense,
                    taken,
                    fall,
                    cont: Some(cont_taken),
                    cls: i.cls,
                    spill: i.spill,
                });
                ctrs.fused_blocks += 1;
                fused += 1;
                pc = cont_pc;
                continue;
            }
            steps.push(Ctl::Br { pred, sense, taken, fall, cont: None, cls: i.cls, spill: i.spill });
            break;
        }
        let si = make_sinst(&i, uni);
        if si.scalar {
            ctrs.hoisted += 1;
        }
        steps.push(Ctl::Seq(si));
        pc += 1;
        if pc >= n {
            steps.push(Ctl::Done);
            break;
        }
        if prof.leader_block[pc] != 0 {
            // Fall-through into a new block: keep fusing while hot.
            if hot[block_of[pc] as usize] && fused < MAX_FUSE {
                ctrs.fused_blocks += 1;
                fused += 1;
                continue;
            }
            steps.push(Ctl::Exit { target: pc as u32, counted: false, cls: 0, spill: 0 });
            break;
        }
    }
    pair_trig(d, &mut steps, &pcs);
    Superblock { steps }
}

/// `(f32 lanes, is sin)` for a lane-vectorized one-operand `sin` or `cos`
/// of f32 or f64 lanes.
fn trig_of(si: &SInst) -> Option<(bool, bool)> {
    if si.scalar || si.b != NO_REG {
        return None;
    }
    match si.op {
        Op::SinF32 => Some((true, true)),
        Op::CosF32 => Some((true, false)),
        Op::SinF64 => Some((false, true)),
        Op::CosF64 => Some((false, false)),
        _ => None,
    }
}

/// Pair each lane-vectorized `sin` (or `cos`) with the nearest later
/// `cos` (or `sin`) of its width and operand register in the same
/// straight run of `Seq` steps, where computing the later one early is
/// invisible (the module docs, step 5). `pcs[k]` is step `k`'s decoded pc.
fn pair_trig(d: &Decoded, steps: &mut [Ctl], pcs: &[usize]) {
    for i in 0..steps.len() {
        let Ctl::Seq(first) = steps[i] else { continue };
        let Some((f32_lanes, first_is_sin)) = trig_of(&first) else {
            continue;
        };
        let x = d.insts[pcs[i]].a;
        if first.d == x {
            continue;
        }
        for j in i + 1..steps.len() {
            let Ctl::Seq(later) = steps[j] else { break };
            if trig_of(&later) == Some((f32_lanes, !first_is_sin)) && later.a == first.a {
                let touched = pcs[i + 1..j].iter().any(|&pc| {
                    let i = &d.insts[pc];
                    let (ra, rb) = reg_reads(i);
                    [def_of(i), ra, rb].contains(&Some(later.d))
                });
                if later.d != x && later.d != first.d && !touched {
                    let (sin, cos) =
                        if first_is_sin { (first.d, later.d) } else { (later.d, first.d) };
                    let (cls, spill) = (first.cls, first.spill);
                    steps[i] = Ctl::Pair { sin, cos, a: first.a, f32_lanes, cls, spill };
                    steps[j] = Ctl::Paired { cls: later.cls, spill: later.spill };
                }
                break;
            }
            if def_of(&d.insts[pcs[j]]) == Some(x) {
                break;
            }
        }
    }
}

fn build(
    d: &Decoded,
    prof: &ProfileCounters,
    block_of: &[u32],
    uni: &[bool],
    ctrs: &mut LocalCtrs,
) -> SbProgram {
    let n = d.insts.len();
    let hot: Vec<bool> = prof.counts.iter().map(|&c| c >= HOT_THRESHOLD).collect();
    ctrs.hot_blocks += hot.iter().filter(|&&h| h).count() as u64;
    let mut prog = SbProgram { sbs: Vec::new(), at: vec![None; n] };
    for pc0 in 0..n {
        let b = prof.leader_block[pc0];
        if b == 0 || !hot[b as usize - 1] {
            continue;
        }
        let sb = build_one(d, prof, &hot, block_of, uni, pc0, ctrs);
        prog.at[pc0] = Some(prog.sbs.len() as u32);
        prog.sbs.push(sb);
    }
    ctrs.superblocks += prog.sbs.len() as u64;
    prog
}

// ---------------------------------------------------------------------
// Lockstep execution

fn counts_of(seed: &ExecSeed) -> LaneCounts {
    LaneCounts {
        simple: seed.cnt[CLS_SIMPLE as usize],
        int64: seed.cnt[CLS_INT64 as usize],
        fp64: seed.cnt[CLS_FP64 as usize],
        sfu: seed.cnt[CLS_SFU as usize],
        spill_touches: seed.spill,
    }
}

/// The lane-major (structure-of-arrays) register file: one 32-lane
/// column per register-file index below `n_vregs`.
type Cols = [[u64; WARP_SIZE]];

const DISJOINT: &str = "distinct in-range register columns";

/// `d[l] = f(a[l])` for the first `lanes` lanes of column `d`, with `a`
/// read where it lives: a uniform `a` is one scalar (so `f` of it is one
/// value), `a == d` reads the destination column itself — lane `l` is
/// read before lane `l` is written — and any other `a` is borrowed
/// shared beside the mutably borrowed `d`.
#[inline(always)]
fn lanes1(v: &mut Cols, u: &[u64], d: u32, a: u32, lanes: usize, f: impl Fn(u64) -> u64) {
    let d = d as usize;
    if a & UB != 0 {
        v[d][..lanes].fill(f(u[(a & !UB) as usize]));
    } else if a as usize == d {
        for o in &mut v[d][..lanes] {
            *o = f(*o);
        }
    } else {
        let [o, x] = v.get_disjoint_mut([d, a as usize]).expect(DISJOINT);
        for (o, &x) in o[..lanes].iter_mut().zip(&x[..lanes]) {
            *o = f(x);
        }
    }
}

/// `d[l] = f(a[l], b[l])` for the first `lanes` lanes of column `d`,
/// operands read in place. A uniform operand, or `a == b`, makes it a
/// one-operand loop ([`lanes1`]; both uniform: one value, filled);
/// otherwise each alias shape — `d == a`, `d == b`, all distinct — has its
/// own loop.
#[inline(always)]
fn lanes2(
    v: &mut Cols,
    u: &[u64],
    d: u32,
    a: u32,
    b: u32,
    lanes: usize,
    f: impl Fn(u64, u64) -> u64,
) {
    let uni = |r: u32| u[(r & !UB) as usize];
    match (a & UB != 0, b & UB != 0) {
        (true, _) => {
            let x = uni(a);
            lanes1(v, u, d, b, lanes, |y| f(x, y));
        }
        (false, true) => {
            let y = uni(b);
            lanes1(v, u, d, a, lanes, |x| f(x, y));
        }
        (false, false) if a == b => lanes1(v, u, d, a, lanes, |x| f(x, x)),
        (false, false) => {
            let (d, a, b) = (d as usize, a as usize, b as usize);
            if d == a {
                let [o, y] = v.get_disjoint_mut([d, b]).expect(DISJOINT);
                for (o, &y) in o[..lanes].iter_mut().zip(&y[..lanes]) {
                    *o = f(*o, y);
                }
            } else if d == b {
                let [o, x] = v.get_disjoint_mut([d, a]).expect(DISJOINT);
                for (o, &x) in o[..lanes].iter_mut().zip(&x[..lanes]) {
                    *o = f(x, *o);
                }
            } else {
                let [o, x, y] = v.get_disjoint_mut([d, a, b]).expect(DISJOINT);
                for ((o, &x), &y) in o[..lanes].iter_mut().zip(&x[..lanes]).zip(&y[..lanes]) {
                    *o = f(x, y);
                }
            }
        }
    }
}

/// `d[l] = op(a[l])` for a unary math op with a column kernel: one
/// [`crate::math::column`] call over the lanes, `a` read where it lives
/// as in [`lanes1`] (a uniform `a` is one scalar evaluation, filled).
fn math_lanes(v: &mut Cols, u: &[u64], d: u32, a: u32, lanes: usize, op: MathOp, ty: VType) {
    let (d, f32_lanes) = (d as usize, ty == VType::F32);
    if a & UB != 0 {
        v[d][..lanes].fill(math(op, ty, u[(a & !UB) as usize], None));
    } else if a as usize == d {
        crate::math::column(op, f32_lanes, &mut v[d][..lanes], None);
    } else {
        let [o, x] = v.get_disjoint_mut([d, a as usize]).expect(DISJOINT);
        crate::math::column(op, f32_lanes, &mut o[..lanes], Some(&x[..lanes]));
    }
}

/// `d_sin[l] = sin(a[l])` and `d_cos[l] = cos(a[l])` for the first
/// `lanes` lanes: one [`crate::math::sincos_column`] call, the operand
/// read where it lives (a uniform `a` is one scalar evaluation, filled
/// into both columns). The pairing rule keeps the three columns distinct.
fn trig_pair(v: &mut Cols, u: &[u64], [d_sin, d_cos, a]: [u32; 3], lanes: usize, f32_lanes: bool) {
    let (d_sin, d_cos) = (d_sin as usize, d_cos as usize);
    if a & UB != 0 {
        let (mut s, mut c) = ([0], [0]);
        crate::math::sincos_column(f32_lanes, &mut s, &mut c, &[u[(a & !UB) as usize]]);
        v[d_sin][..lanes].fill(s[0]);
        v[d_cos][..lanes].fill(c[0]);
    } else {
        let [s, c, x] = v.get_disjoint_mut([d_sin, d_cos, a as usize]).expect(DISJOINT);
        crate::math::sincos_column(f32_lanes, &mut s[..lanes], &mut c[..lanes], &x[..lanes]);
    }
}

/// Execute one superinstruction: once on the scalar file if hoisted,
/// else as a tight lane loop.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn exec_sinst(
    si: &SInst,
    u: &mut [u64],
    v: &mut Cols,
    lanes: usize,
    ids: &[[u32; 6]; WARP_SIZE],
    mem: &mut DeviceMemory,
    warp: &mut WarpMerge,
    stats: &mut KernelStats,
) -> Result<(), SimError> {
    // Copy an encoded operand's whole 32-lane column into a stack array
    // (a broadcast for a uniform one). Only the rare memory shapes below
    // do this; the compute loops read their operands in place.
    macro_rules! fetch {
        ($e:expr) => {{
            let e = $e;
            if e & UB != 0 {
                [u[(e & !UB) as usize]; WARP_SIZE]
            } else {
                v[e as usize]
            }
        }};
    }
    macro_rules! v2 {
        ($f:expr) => {{
            if si.scalar {
                u[si.d as usize] = $f(u[(si.a & !UB) as usize], u[(si.b & !UB) as usize]);
            } else {
                lanes2(v, u, si.d, si.a, si.b, lanes, $f);
            }
        }};
    }
    macro_rules! vun {
        ($f:expr) => {{
            if si.scalar {
                u[si.d as usize] = $f(u[(si.a & !UB) as usize]);
            } else {
                lanes1(v, u, si.d, si.a, lanes, $f);
            }
        }};
    }
    macro_rules! vb {
        ($o:expr, $t:expr) => {
            v2!(|x, y| alu($o, $t, x, y))
        };
    }
    macro_rules! vcmp {
        ($o:expr, $t:expr) => {
            v2!(|x, y| u64::from(compare($o, $t, x, y)))
        };
    }
    macro_rules! vmath {
        ($o:expr, $t:expr) => {{
            if si.b != NO_REG {
                v2!(|x, y| math($o, $t, x, Some(y)))
            } else if si.scalar || !crate::math::has_column($o) {
                vun!(|x| math($o, $t, x, None))
            } else {
                math_lanes(v, u, si.d, si.a, lanes, $o, $t);
            }
        }};
    }
    macro_rules! vid {
        ($k:expr) => {{
            if si.scalar {
                u[si.d as usize] = ids[0][$k] as u64;
            } else {
                for (o, id) in v[si.d as usize][..lanes].iter_mut().zip(&ids[..lanes]) {
                    *o = id[$k] as u64;
                }
            }
        }};
    }
    // Memory superinstructions hand the warp's addresses to the memory
    // port as one access (which touches them in lane order) and then
    // account the warp's transactions once, right here: the addresses
    // are already in one array, and a group formed in lockstep is closed
    // (see the module docs), so nothing is logged per lane.
    macro_rules! vld {
        ($bytes:expr, $ss:expr) => {{
            if si.scalar {
                // Uniform address: one read, and one address accounts for
                // the warp — 32 copies of it touch the same segments.
                let addr = u[(si.a & !UB) as usize];
                u[si.d as usize] = mem.read(addr, $bytes as u32)?;
                warp.account_now($bytes, $ss, &[addr], stats);
            } else if si.a & UB == 0 && si.a != si.d {
                let [o, xa] =
                    v.get_disjoint_mut([si.d as usize, si.a as usize]).expect(DISJOINT);
                mem.read_warp(&xa[..lanes], $bytes as u32, &mut o[..lanes])?;
                warp.account_now($bytes, $ss, &xa[..lanes], stats);
            } else {
                // The addresses go to a stack array first when they are
                // uniform (a broadcast) or the load overwrites them.
                let xa = fetch!(si.a);
                mem.read_warp(&xa[..lanes], $bytes as u32, &mut v[si.d as usize][..lanes])?;
                warp.account_now($bytes, $ss, &xa[..lanes], stats);
            }
        }};
    }
    // A store's lanes: a varying operand's column borrowed in place, a
    // uniform one broadcast into `$tmp`.
    macro_rules! lanes_of {
        ($e:expr, $tmp:ident) => {{
            let e = $e;
            if e & UB != 0 {
                $tmp = [u[(e & !UB) as usize]; WARP_SIZE];
                &$tmp[..lanes]
            } else {
                &v[e as usize][..lanes]
            }
        }};
    }
    macro_rules! vst {
        ($bytes:expr, $ss:expr) => {{
            let (ta, tb);
            let xa = lanes_of!(si.a, ta);
            let xb = lanes_of!(si.b, tb);
            mem.write_warp(xa, $bytes as u32, xb)?;
            warp.account_now($bytes, $ss, xa, stats);
        }};
    }
    macro_rules! vatom {
        ($t:expr) => {{
            let bytes = $t.size_bytes() as u8;
            let xa = fetch!(si.a);
            let xb = fetch!(si.b);
            for l in 0..lanes {
                mem.atom_add($t, xa[l], bytes as u32, xb[l])?;
            }
            let ss = SPACE_GLOBAL | FLAG_STORE | FLAG_ATOMIC;
            warp.account_now(bytes, ss, &xa[..lanes], stats);
        }};
    }
    match si.op {
        Op::Ret | Op::Bra | Op::BraT | Op::BraF => unreachable!("control ops are Ctl steps"),
        Op::Mov => vun!(|x: u64| x),
        Op::Not => vun!(|x: u64| u64::from(x == 0)),
        Op::TidX => vid!(0),
        Op::TidY => vid!(1),
        Op::TidZ => vid!(2),
        Op::CtaX => vid!(3),
        Op::CtaY => vid!(4),
        Op::CtaZ => vid!(5),
        Op::LdG1 => vld!(1, SPACE_GLOBAL),
        Op::LdG4 => vld!(4, SPACE_GLOBAL),
        Op::LdG8 => vld!(8, SPACE_GLOBAL),
        Op::LdRo1 => vld!(1, SPACE_READONLY),
        Op::LdRo4 => vld!(4, SPACE_READONLY),
        Op::LdRo8 => vld!(8, SPACE_READONLY),
        Op::LdLoc1 => vld!(1, SPACE_LOCAL),
        Op::LdLoc4 => vld!(4, SPACE_LOCAL),
        Op::LdLoc8 => vld!(8, SPACE_LOCAL),
        Op::StG1 => vst!(1, SPACE_GLOBAL | FLAG_STORE),
        Op::StG4 => vst!(4, SPACE_GLOBAL | FLAG_STORE),
        Op::StG8 => vst!(8, SPACE_GLOBAL | FLAG_STORE),
        Op::StRo1 => vst!(1, SPACE_READONLY | FLAG_STORE),
        Op::StRo4 => vst!(4, SPACE_READONLY | FLAG_STORE),
        Op::StRo8 => vst!(8, SPACE_READONLY | FLAG_STORE),
        Op::StLoc1 => vst!(1, SPACE_LOCAL | FLAG_STORE),
        Op::StLoc4 => vst!(4, SPACE_LOCAL | FLAG_STORE),
        Op::StLoc8 => vst!(8, SPACE_LOCAL | FLAG_STORE),
        Op::AtomB32 => vatom!(VType::B32),
        Op::AtomB64 => vatom!(VType::B64),
        Op::AtomF32 => vatom!(VType::F32),
        Op::AtomF64 => vatom!(VType::F64),
        Op::AtomPred => vatom!(VType::Pred),
        Op::AddB32 => vb!(AluOp::Add, VType::B32),
        Op::AddB64 => vb!(AluOp::Add, VType::B64),
        Op::AddF32 => vb!(AluOp::Add, VType::F32),
        Op::AddF64 => vb!(AluOp::Add, VType::F64),
        Op::AddPred => vb!(AluOp::Add, VType::Pred),
        Op::SubB32 => vb!(AluOp::Sub, VType::B32),
        Op::SubB64 => vb!(AluOp::Sub, VType::B64),
        Op::SubF32 => vb!(AluOp::Sub, VType::F32),
        Op::SubF64 => vb!(AluOp::Sub, VType::F64),
        Op::SubPred => vb!(AluOp::Sub, VType::Pred),
        Op::MulB32 => vb!(AluOp::Mul, VType::B32),
        Op::MulB64 => vb!(AluOp::Mul, VType::B64),
        Op::MulF32 => vb!(AluOp::Mul, VType::F32),
        Op::MulF64 => vb!(AluOp::Mul, VType::F64),
        Op::MulPred => vb!(AluOp::Mul, VType::Pred),
        Op::DivB32 => vb!(AluOp::Div, VType::B32),
        Op::DivB64 => vb!(AluOp::Div, VType::B64),
        Op::DivF32 => vb!(AluOp::Div, VType::F32),
        Op::DivF64 => vb!(AluOp::Div, VType::F64),
        Op::DivPred => vb!(AluOp::Div, VType::Pred),
        Op::RemB32 => vb!(AluOp::Rem, VType::B32),
        Op::RemB64 => vb!(AluOp::Rem, VType::B64),
        Op::RemF32 => vb!(AluOp::Rem, VType::F32),
        Op::RemF64 => vb!(AluOp::Rem, VType::F64),
        Op::RemPred => vb!(AluOp::Rem, VType::Pred),
        Op::MinB32 => vb!(AluOp::Min, VType::B32),
        Op::MinB64 => vb!(AluOp::Min, VType::B64),
        Op::MinF32 => vb!(AluOp::Min, VType::F32),
        Op::MinF64 => vb!(AluOp::Min, VType::F64),
        Op::MinPred => vb!(AluOp::Min, VType::Pred),
        Op::MaxB32 => vb!(AluOp::Max, VType::B32),
        Op::MaxB64 => vb!(AluOp::Max, VType::B64),
        Op::MaxF32 => vb!(AluOp::Max, VType::F32),
        Op::MaxF64 => vb!(AluOp::Max, VType::F64),
        Op::MaxPred => vb!(AluOp::Max, VType::Pred),
        Op::AndB32 => vb!(AluOp::And, VType::B32),
        Op::AndB64 => vb!(AluOp::And, VType::B64),
        Op::AndF32 => vb!(AluOp::And, VType::F32),
        Op::AndF64 => vb!(AluOp::And, VType::F64),
        Op::AndPred => vb!(AluOp::And, VType::Pred),
        Op::OrB32 => vb!(AluOp::Or, VType::B32),
        Op::OrB64 => vb!(AluOp::Or, VType::B64),
        Op::OrF32 => vb!(AluOp::Or, VType::F32),
        Op::OrF64 => vb!(AluOp::Or, VType::F64),
        Op::OrPred => vb!(AluOp::Or, VType::Pred),
        Op::XorB32 => vb!(AluOp::Xor, VType::B32),
        Op::XorB64 => vb!(AluOp::Xor, VType::B64),
        Op::XorF32 => vb!(AluOp::Xor, VType::F32),
        Op::XorF64 => vb!(AluOp::Xor, VType::F64),
        Op::XorPred => vb!(AluOp::Xor, VType::Pred),
        Op::ShlB32 => vb!(AluOp::Shl, VType::B32),
        Op::ShlB64 => vb!(AluOp::Shl, VType::B64),
        Op::ShlF32 => vb!(AluOp::Shl, VType::F32),
        Op::ShlF64 => vb!(AluOp::Shl, VType::F64),
        Op::ShlPred => vb!(AluOp::Shl, VType::Pred),
        Op::ShrB32 => vb!(AluOp::Shr, VType::B32),
        Op::ShrB64 => vb!(AluOp::Shr, VType::B64),
        Op::ShrF32 => vb!(AluOp::Shr, VType::F32),
        Op::ShrF64 => vb!(AluOp::Shr, VType::F64),
        Op::ShrPred => vb!(AluOp::Shr, VType::Pred),
        Op::NegB32 => vun!(|x| neg(VType::B32, x)),
        Op::NegB64 => vun!(|x| neg(VType::B64, x)),
        Op::NegF32 => vun!(|x| neg(VType::F32, x)),
        Op::NegF64 => vun!(|x| neg(VType::F64, x)),
        Op::NegPred => vun!(|x| neg(VType::Pred, x)),
        Op::SetpLtB32 => vcmp!(CmpOp::Lt, VType::B32),
        Op::SetpLtB64 => vcmp!(CmpOp::Lt, VType::B64),
        Op::SetpLtF32 => vcmp!(CmpOp::Lt, VType::F32),
        Op::SetpLtF64 => vcmp!(CmpOp::Lt, VType::F64),
        Op::SetpLtPred => vcmp!(CmpOp::Lt, VType::Pred),
        Op::SetpLeB32 => vcmp!(CmpOp::Le, VType::B32),
        Op::SetpLeB64 => vcmp!(CmpOp::Le, VType::B64),
        Op::SetpLeF32 => vcmp!(CmpOp::Le, VType::F32),
        Op::SetpLeF64 => vcmp!(CmpOp::Le, VType::F64),
        Op::SetpLePred => vcmp!(CmpOp::Le, VType::Pred),
        Op::SetpGtB32 => vcmp!(CmpOp::Gt, VType::B32),
        Op::SetpGtB64 => vcmp!(CmpOp::Gt, VType::B64),
        Op::SetpGtF32 => vcmp!(CmpOp::Gt, VType::F32),
        Op::SetpGtF64 => vcmp!(CmpOp::Gt, VType::F64),
        Op::SetpGtPred => vcmp!(CmpOp::Gt, VType::Pred),
        Op::SetpGeB32 => vcmp!(CmpOp::Ge, VType::B32),
        Op::SetpGeB64 => vcmp!(CmpOp::Ge, VType::B64),
        Op::SetpGeF32 => vcmp!(CmpOp::Ge, VType::F32),
        Op::SetpGeF64 => vcmp!(CmpOp::Ge, VType::F64),
        Op::SetpGePred => vcmp!(CmpOp::Ge, VType::Pred),
        Op::SetpEqB32 => vcmp!(CmpOp::Eq, VType::B32),
        Op::SetpEqB64 => vcmp!(CmpOp::Eq, VType::B64),
        Op::SetpEqF32 => vcmp!(CmpOp::Eq, VType::F32),
        Op::SetpEqF64 => vcmp!(CmpOp::Eq, VType::F64),
        Op::SetpEqPred => vcmp!(CmpOp::Eq, VType::Pred),
        Op::SetpNeB32 => vcmp!(CmpOp::Ne, VType::B32),
        Op::SetpNeB64 => vcmp!(CmpOp::Ne, VType::B64),
        Op::SetpNeF32 => vcmp!(CmpOp::Ne, VType::F32),
        Op::SetpNeF64 => vcmp!(CmpOp::Ne, VType::F64),
        Op::SetpNePred => vcmp!(CmpOp::Ne, VType::Pred),
        Op::CvtB32B32 => vun!(|x| convert(VType::B32, VType::B32, x)),
        Op::CvtB64B32 => vun!(|x| convert(VType::B64, VType::B32, x)),
        Op::CvtF32B32 => vun!(|x| convert(VType::F32, VType::B32, x)),
        Op::CvtF64B32 => vun!(|x| convert(VType::F64, VType::B32, x)),
        Op::CvtPredB32 => vun!(|x| convert(VType::Pred, VType::B32, x)),
        Op::CvtB32B64 => vun!(|x| convert(VType::B32, VType::B64, x)),
        Op::CvtB64B64 => vun!(|x| convert(VType::B64, VType::B64, x)),
        Op::CvtF32B64 => vun!(|x| convert(VType::F32, VType::B64, x)),
        Op::CvtF64B64 => vun!(|x| convert(VType::F64, VType::B64, x)),
        Op::CvtPredB64 => vun!(|x| convert(VType::Pred, VType::B64, x)),
        Op::CvtB32F32 => vun!(|x| convert(VType::B32, VType::F32, x)),
        Op::CvtB64F32 => vun!(|x| convert(VType::B64, VType::F32, x)),
        Op::CvtF32F32 => vun!(|x| convert(VType::F32, VType::F32, x)),
        Op::CvtF64F32 => vun!(|x| convert(VType::F64, VType::F32, x)),
        Op::CvtPredF32 => vun!(|x| convert(VType::Pred, VType::F32, x)),
        Op::CvtB32F64 => vun!(|x| convert(VType::B32, VType::F64, x)),
        Op::CvtB64F64 => vun!(|x| convert(VType::B64, VType::F64, x)),
        Op::CvtF32F64 => vun!(|x| convert(VType::F32, VType::F64, x)),
        Op::CvtF64F64 => vun!(|x| convert(VType::F64, VType::F64, x)),
        Op::CvtPredF64 => vun!(|x| convert(VType::Pred, VType::F64, x)),
        Op::CvtB32Pred => vun!(|x| convert(VType::B32, VType::Pred, x)),
        Op::CvtB64Pred => vun!(|x| convert(VType::B64, VType::Pred, x)),
        Op::CvtF32Pred => vun!(|x| convert(VType::F32, VType::Pred, x)),
        Op::CvtF64Pred => vun!(|x| convert(VType::F64, VType::Pred, x)),
        Op::CvtPredPred => vun!(|x| convert(VType::Pred, VType::Pred, x)),
        Op::SqrtB32 => vmath!(MathOp::Sqrt, VType::B32),
        Op::SqrtB64 => vmath!(MathOp::Sqrt, VType::B64),
        Op::SqrtF32 => vmath!(MathOp::Sqrt, VType::F32),
        Op::SqrtF64 => vmath!(MathOp::Sqrt, VType::F64),
        Op::SqrtPred => vmath!(MathOp::Sqrt, VType::Pred),
        Op::ExpB32 => vmath!(MathOp::Exp, VType::B32),
        Op::ExpB64 => vmath!(MathOp::Exp, VType::B64),
        Op::ExpF32 => vmath!(MathOp::Exp, VType::F32),
        Op::ExpF64 => vmath!(MathOp::Exp, VType::F64),
        Op::ExpPred => vmath!(MathOp::Exp, VType::Pred),
        Op::LogB32 => vmath!(MathOp::Log, VType::B32),
        Op::LogB64 => vmath!(MathOp::Log, VType::B64),
        Op::LogF32 => vmath!(MathOp::Log, VType::F32),
        Op::LogF64 => vmath!(MathOp::Log, VType::F64),
        Op::LogPred => vmath!(MathOp::Log, VType::Pred),
        Op::SinB32 => vmath!(MathOp::Sin, VType::B32),
        Op::SinB64 => vmath!(MathOp::Sin, VType::B64),
        Op::SinF32 => vmath!(MathOp::Sin, VType::F32),
        Op::SinF64 => vmath!(MathOp::Sin, VType::F64),
        Op::SinPred => vmath!(MathOp::Sin, VType::Pred),
        Op::CosB32 => vmath!(MathOp::Cos, VType::B32),
        Op::CosB64 => vmath!(MathOp::Cos, VType::B64),
        Op::CosF32 => vmath!(MathOp::Cos, VType::F32),
        Op::CosF64 => vmath!(MathOp::Cos, VType::F64),
        Op::CosPred => vmath!(MathOp::Cos, VType::Pred),
        Op::AbsB32 => vmath!(MathOp::Abs, VType::B32),
        Op::AbsB64 => vmath!(MathOp::Abs, VType::B64),
        Op::AbsF32 => vmath!(MathOp::Abs, VType::F32),
        Op::AbsF64 => vmath!(MathOp::Abs, VType::F64),
        Op::AbsPred => vmath!(MathOp::Abs, VType::Pred),
        Op::FloorB32 => vmath!(MathOp::Floor, VType::B32),
        Op::FloorB64 => vmath!(MathOp::Floor, VType::B64),
        Op::FloorF32 => vmath!(MathOp::Floor, VType::F32),
        Op::FloorF64 => vmath!(MathOp::Floor, VType::F64),
        Op::FloorPred => vmath!(MathOp::Floor, VType::Pred),
        Op::PowB32 => vmath!(MathOp::Pow, VType::B32),
        Op::PowB64 => vmath!(MathOp::Pow, VType::B64),
        Op::PowF32 => vmath!(MathOp::Pow, VType::F32),
        Op::PowF64 => vmath!(MathOp::Pow, VType::F64),
        Op::PowPred => vmath!(MathOp::Pow, VType::Pred),
    }
    Ok(())
}

/// Peel lanes `lo..hi` back to lane-major decoded execution: gather each
/// lane's registers (scalar file for uniform classes, the lane's SoA
/// column otherwise) into the dense per-thread file the decoded engine
/// uses, then run each lane (in lane order) from its pc to completion,
/// seeding the counters with the lockstep-common prefix. The dense
/// layout keeps peeled execution at decoded-engine speed instead of
/// striding the lane-major file.
#[allow(clippy::too_many_arguments)]
fn peel(
    d: &Decoded,
    kernel_name: &str,
    ids: &[[u32; 6]; WARP_SIZE],
    lo: usize,
    hi: usize,
    mem: &mut DeviceMemory,
    u: &[u64],
    v: &Cols,
    dense: &mut [u64],
    uni: &[bool],
    warp: &mut WarpMerge,
    lc: &mut [LaneCounts; WARP_SIZE],
    ctrs: &mut LocalCtrs,
    pcs: &[usize; WARP_SIZE],
    seed: ExecSeed,
) -> Result<(), SimError> {
    ctrs.peels += 1;
    for (lane, lcl) in lc.iter_mut().enumerate().take(hi).skip(lo) {
        for r in 0..d.n_vregs {
            dense[r] = if uni[r] { u[r] } else { v[r][lane] };
        }
        *lcl = crate::decode::run_lane::<false>(
            d,
            kernel_name,
            ids[lane],
            mem,
            dense,
            lane,
            warp,
            pcs[lane],
            false,
            seed,
            None,
        )?;
    }
    Ok(())
}

/// Run one warp in lockstep over the superblock program, peeling to
/// lane-major on divergence or on reaching a cold region.
#[allow(clippy::too_many_arguments)]
fn run_warp(
    d: &Decoded,
    prog: &SbProgram,
    kernel_name: &str,
    ids: &[[u32; 6]; WARP_SIZE],
    lanes: usize,
    mem: &mut DeviceMemory,
    u: &mut [u64],
    v: &mut Cols,
    dense: &mut [u64],
    uni: &[bool],
    warp: &mut WarpMerge,
    lc: &mut [LaneCounts; WARP_SIZE],
    ctrs: &mut LocalCtrs,
    stats: &mut KernelStats,
) -> Result<(), SimError> {
    // Cold-start fast path: if the entry block never got hot, the whole
    // warp runs lane-major from scratch — exactly the decoded engine,
    // with no SoA zero-fill or register gathering.
    if prog.at.first().is_none_or(|e| e.is_none()) {
        ctrs.peels += 1;
        for (lane, lcl) in lc.iter_mut().enumerate().take(lanes) {
            *lcl = crate::decode::run_lane::<false>(
                d,
                kernel_name,
                ids[lane],
                mem,
                dense,
                lane,
                warp,
                0,
                true,
                ExecSeed::default(),
                None,
            )?;
        }
        return Ok(());
    }
    v[..d.n_vregs].fill([0; WARP_SIZE]);
    u[..d.n_vregs].fill(0);
    let mut lanes = lanes;
    let mut pc = 0usize;
    let mut seed = ExecSeed::default();
    macro_rules! tally {
        ($cls:expr, $spill:expr) => {{
            seed.executed += 1;
            seed.cnt[($cls & 7) as usize] += 1;
            seed.spill += $spill as u64;
        }};
    }
    'dispatch: loop {
        if pc >= prog.at.len() {
            // Fell off the end: implicit return.
            for lcl in lc.iter_mut().take(lanes) {
                *lcl = counts_of(&seed);
            }
            return Ok(());
        }
        if seed.executed > MAX_INSTS_PER_THREAD {
            return Err(SimError::Runaway { kernel: kernel_name.to_string() });
        }
        let Some(sbi) = prog.at[pc] else {
            // Cold region: peel every active lane here.
            return peel(
                d, kernel_name, ids, 0, lanes, mem, u, v, dense, uni, warp, lc, ctrs,
                &[pc; WARP_SIZE], seed,
            );
        };
        for step in &prog.sbs[sbi as usize].steps {
            match step {
                Ctl::Seq(si) => {
                    tally!(si.cls, si.spill);
                    if si.scalar {
                        ctrs.scalar_execs += 1;
                    } else {
                        ctrs.vector_execs += 1;
                    }
                    exec_sinst(si, u, v, lanes, ids, mem, warp, stats)?;
                }
                Ctl::Pair { sin, cos, a, f32_lanes, cls, spill } => {
                    tally!(*cls, *spill);
                    ctrs.vector_execs += 1;
                    ctrs.trig_pairs += 1;
                    trig_pair(v, u, [*sin, *cos, *a], lanes, *f32_lanes);
                }
                Ctl::Paired { cls, spill } => {
                    tally!(*cls, *spill);
                    ctrs.vector_execs += 1;
                }
                Ctl::Ghost { cls, spill } => tally!(*cls, *spill),
                Ctl::Br { pred, sense, taken, fall, cont, cls, spill } => {
                    tally!(*cls, *spill);
                    let dir;
                    if pred & UB != 0 {
                        dir = (u[(pred & !UB) as usize] != 0) == *sense;
                    } else {
                        let col = &v[*pred as usize];
                        let mut tk = [false; WARP_SIZE];
                        let mut n_taken = 0usize;
                        for (t, &p) in tk.iter_mut().zip(&col[..lanes]) {
                            *t = (p != 0) == *sense;
                            n_taken += *t as usize;
                        }
                        if n_taken != 0 && n_taken != lanes {
                            // Range-guard divergence: when the outcomes
                            // split into a contiguous prefix and suffix
                            // (the classic `i < n` bounds guard against a
                            // partially-full warp), peel only the suffix
                            // lanes to completion and, if they logged no
                            // memory event, keep the prefix in lockstep
                            // with a shortened warp. Decoded runs lanes
                            // independently, so any lane partition
                            // preserves its observable behavior.
                            let mut m = 1;
                            while m < lanes && tk[m] == tk[0] {
                                m += 1;
                            }
                            if tk[m..lanes].iter().all(|&t| t == tk[m]) {
                                let sfx =
                                    if tk[m] { *taken as usize } else { *fall as usize };
                                peel(
                                    d, kernel_name, ids, m, lanes, mem, u, v, dense, uni,
                                    warp, lc, ctrs, &[sfx; WARP_SIZE], seed,
                                )?;
                                let dir = tk[0];
                                if warp.any_logged() {
                                    // The suffix lanes touched memory on
                                    // their way out, so a later access of
                                    // the prefix lanes may belong in one of
                                    // their groups: the prefix goes
                                    // lane-major too and the merge decides.
                                    let pfx = if dir { *taken } else { *fall } as usize;
                                    return peel(
                                        d, kernel_name, ids, 0, m, mem, u, v, dense, uni, warp,
                                        lc, ctrs, &[pfx; WARP_SIZE], seed,
                                    );
                                }
                                // They logged nothing (the bounds-guard
                                // exit): every group accounted so far is
                                // closed, and the shortened warp keeps
                                // accounting per warp.
                                lanes = m;
                                if *cont == Some(dir) {
                                    continue;
                                }
                                pc = if dir { *taken as usize } else { *fall as usize };
                                continue 'dispatch;
                            }
                            // Irregular divergence: peel every lane with
                            // its own continuation pc.
                            let mut pcs = [0usize; WARP_SIZE];
                            for l in 0..lanes {
                                pcs[l] = if tk[l] { *taken as usize } else { *fall as usize };
                            }
                            return peel(
                                d, kernel_name, ids, 0, lanes, mem, u, v, dense, uni, warp, lc,
                                ctrs, &pcs, seed,
                            );
                        }
                        dir = n_taken == lanes;
                    }
                    if *cont == Some(dir) {
                        continue;
                    }
                    pc = if dir { *taken as usize } else { *fall as usize };
                    continue 'dispatch;
                }
                Ctl::Exit { target, counted, cls, spill } => {
                    if *counted {
                        tally!(*cls, *spill);
                    }
                    pc = *target as usize;
                    continue 'dispatch;
                }
                Ctl::Ret { cls, spill } => {
                    tally!(*cls, *spill);
                    for lcl in lc.iter_mut().take(lanes) {
                        *lcl = counts_of(&seed);
                    }
                    return Ok(());
                }
                Ctl::Done => {
                    for lcl in lc.iter_mut().take(lanes) {
                        *lcl = counts_of(&seed);
                    }
                    return Ok(());
                }
            }
        }
        unreachable!("superblock must end with a control step");
    }
}

// ---------------------------------------------------------------------
// Launch

/// Execute a kernel launch on the superblock engine. Public entry is
/// [`crate::interp::launch`] with [`crate::interp::Engine::Superblock`]
/// selected.
pub(crate) fn launch_superblock(
    kernel: &KernelVir,
    config: &LaunchConfig,
    params: &[ParamVal],
    mem: &mut DeviceMemory,
    spilled: &[VReg],
) -> Result<LaunchResult, SimError> {
    let mut ctrs = LocalCtrs { launches: 1, ..LocalCtrs::default() };
    let r = launch_inner(kernel, config, params, mem, spilled, &mut ctrs);
    ctrs.flush();
    r
}

fn launch_inner(
    kernel: &KernelVir,
    config: &LaunchConfig,
    params: &[ParamVal],
    mem: &mut DeviceMemory,
    spilled: &[VReg],
    ctrs: &mut LocalCtrs,
) -> Result<LaunchResult, SimError> {
    if params.len() != kernel.params.len() {
        return Err(SimError::Malformed(format!(
            "kernel `{}` expects {} params, got {}",
            kernel.name,
            kernel.params.len(),
            params.len()
        )));
    }
    let d = decode(kernel, config, params, spilled)?;
    if atomics_in_loops(&d) {
        ctrs.delegated += 1;
        return launch_decoded(kernel, config, params, mem, spilled);
    }

    let n_regs = d.n_vregs + d.consts.len();
    let key = prog_key(&d);
    let mut current: Option<Rc<CachedProg>> = prog_cache_get(&key);
    // Profiling state, materialized only on a cache miss.
    let mut prof_state: Option<(ProfileCounters, Vec<u32>)> = if current.is_none() {
        let (leader_block, block_of, n_blocks) = find_blocks(&d);
        Some((
            ProfileCounters {
                leader_block,
                counts: vec![0; n_blocks],
                taken: vec![0; d.insts.len()],
                seen: vec![0; d.insts.len()],
            },
            block_of,
        ))
    } else {
        None
    };

    let tpb = config.threads_per_block();
    let mut stats = KernelStats::default();
    let mut scratch = SbScratch::new(&d, n_regs);
    let mut profiled = 0u64;

    // Blocks in linear order. Profiling warps execute real lanes that
    // mutate device memory, and `PROFILE_WARPS` may span block
    // boundaries, so whether the program is built is checked per warp —
    // the flip can land mid-block.
    for b in 0..config.total_blocks() {
        let (bx, by, bz) = block_coords(config, b);
        let mut linear = 0u32;
        while linear < tpb {
            let lanes = (tpb - linear).min(WARP_SIZE as u32) as usize;
            scratch.warp.begin_warp();
            for (lane, id) in scratch.ids.iter_mut().enumerate().take(lanes) {
                let t = linear + lane as u32;
                let tx = t % config.block.0;
                let ty = (t / config.block.0) % config.block.1;
                let tz = t / (config.block.0 * config.block.1);
                *id = [tx, ty, tz, bx, by, bz];
            }
            if let Some(cp) = &current {
                run_warp(
                    &d,
                    &cp.prog,
                    &kernel.name,
                    &scratch.ids,
                    lanes,
                    mem,
                    &mut scratch.u,
                    &mut scratch.v,
                    &mut scratch.dense,
                    &cp.uni,
                    &mut scratch.warp,
                    &mut scratch.lane_counts,
                    ctrs,
                    &mut stats,
                )?;
            } else {
                // Profiling phase: instrumented lane-major runs
                // on the dense file (decoded layout + counters).
                let (prof, block_of) = prof_state.as_mut().expect("profiling state");
                for lane in 0..lanes {
                    scratch.lane_counts[lane] = crate::decode::run_lane::<true>(
                        &d,
                        &kernel.name,
                        scratch.ids[lane],
                        mem,
                        &mut scratch.dense,
                        lane,
                        &mut scratch.warp,
                        0,
                        true,
                        ExecSeed::default(),
                        Some(prof),
                    )?;
                }
                profiled += 1;
                if profiled >= PROFILE_WARPS {
                    let uni = classify(&d);
                    let prog = build(&d, prof, block_of, &uni, ctrs);
                    let cp = Rc::new(CachedProg { uni, prog });
                    prog_cache_put(key.clone(), cp.clone());
                    current = Some(cp);
                }
            }
            let mut wc = LaneCounts::default();
            for lcl in &scratch.lane_counts[..lanes] {
                wc.max_with(lcl);
            }
            stats.simple_insts += wc.simple;
            stats.int64_insts += wc.int64;
            stats.fp64_insts += wc.fp64;
            stats.sfu_insts += wc.sfu;
            stats.local_accesses += wc.spill_touches;
            scratch.warp.merge(lanes, &mut stats);
            stats.warps += 1;
            stats.threads += lanes as u64;
            linear += lanes as u32;
        }
    }
    ctrs.add_warp(&scratch.warp);
    Ok(LaunchResult { stats })
}

/// Linear block id (z→y→x nesting order) to grid coordinates.
fn block_coords(config: &LaunchConfig, block: u64) -> (u32, u32, u32) {
    let (gx, gy) = (config.grid.0 as u64, config.grid.1 as u64);
    ((block % gx) as u32, ((block / gx) % gy) as u32, (block / (gx * gy)) as u32)
}

/// Launch execution scratch for the superblock engine: the lane-major
/// (SoA) register file for the lockstep path, the scalar (warp-uniform)
/// file, the dense per-thread file for profile warps and peels (the
/// decoded engine's exact layout), and the warp merge buffers. Constants
/// occupy the scalar/dense tails once.
struct SbScratch {
    v: Vec<[u64; WARP_SIZE]>,
    u: Vec<u64>,
    dense: Vec<u64>,
    warp: WarpMerge,
    lane_counts: [LaneCounts; WARP_SIZE],
    ids: [[u32; 6]; WARP_SIZE],
}

impl SbScratch {
    fn new(d: &Decoded, n_regs: usize) -> Self {
        let v = vec![[0u64; WARP_SIZE]; d.n_vregs];
        let mut u = vec![0u64; n_regs];
        u[d.n_vregs..].copy_from_slice(&d.consts);
        let mut dense = vec![0u64; n_regs];
        dense[d.n_vregs..].copy_from_slice(&d.consts);
        SbScratch {
            v,
            u,
            dense,
            warp: WarpMerge::new(),
            lane_counts: [LaneCounts::default(); WARP_SIZE],
            ids: [[0u32; 6]; WARP_SIZE],
        }
    }
}

/// The lane loops as they ran before they read operands in place: each
/// operand's whole column is copied into a stack array first (a
/// broadcast when uniform), and the loop reads the copies.
#[cfg(test)]
mod reference {
    use super::{Cols, UB, WARP_SIZE};

    fn fetch(v: &Cols, u: &[u64], e: u32) -> [u64; WARP_SIZE] {
        if e & UB != 0 {
            [u[(e & !UB) as usize]; WARP_SIZE]
        } else {
            v[e as usize]
        }
    }

    pub(super) fn lanes1(v: &mut Cols, u: &[u64], d: u32, a: u32, lanes: usize, f: fn(u64) -> u64) {
        let xa = fetch(v, u, a);
        for (o, &x) in v[d as usize][..lanes].iter_mut().zip(&xa[..lanes]) {
            *o = f(x);
        }
    }

    pub(super) fn lanes2(
        v: &mut Cols,
        u: &[u64],
        [d, a, b]: [u32; 3],
        lanes: usize,
        f: fn(u64, u64) -> u64,
    ) {
        let (xa, xb) = (fetch(v, u, a), fetch(v, u, b));
        for ((o, &x), &y) in v[d as usize][..lanes].iter_mut().zip(&xa[..lanes]).zip(&xb[..lanes]) {
            *o = f(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    /// Three varying columns (registers 0–2) and two uniform registers
    /// (3 and 4, on the scalar file) filled with values the ops under test
    /// treat specially: zero (B32 division by 0), small signed integers,
    /// f32 NaNs with payloads of either sign, ordinary f32 and f64 values
    /// and random bits.
    fn register_files(rng: &mut SplitMix64) -> (Vec<u64>, Vec<[u64; WARP_SIZE]>) {
        let mut value = || match rng.gen_index(6) {
            0 => 0,
            1 => rng.gen_range_i64(-9, 9) as u64,
            2 => u64::from(0x7f80_0001 | (rng.next_u32() & 0x803f_ffff)),
            3 => u64::from(rng.gen_range_f32(-4.0, 4.0).to_bits()),
            4 => rng.gen_range_f64(-4.0, 4.0).to_bits(),
            _ => rng.next_u64(),
        };
        let u = (0..5).map(|_| value()).collect();
        let v = (0..3).map(|_| std::array::from_fn(|_| value())).collect();
        (u, v)
    }

    const LANES: [usize; 5] = [1, 5, 16, 31, 32];

    type Unary = fn(u64) -> u64;
    type Binary = fn(u64, u64) -> u64;

    /// Runs one lane-vectorized superinstruction through `exec_sinst`.
    fn exec_vector(op: Op, [d, a, b]: [u32; 3], u: &mut [u64], v: &mut Cols, lanes: usize) {
        let si = SInst { op, cls: 0, spill: 0, scalar: false, d, a, b };
        let (mut mem, mut warp, mut stats) =
            (DeviceMemory::new(), WarpMerge::new(), KernelStats::default());
        exec_sinst(&si, u, v, lanes, &[[0; 6]; WARP_SIZE], &mut mem, &mut warp, &mut stats)
            .expect("a compute superinstruction cannot fault");
    }

    /// Two-operand loops read in place agree with the copy-then-loop form
    /// bit for bit, in every alias shape (`d == a`, `d == b`, `a == b`, all
    /// three equal, all distinct), with either operand uniform or both, at
    /// every warp width — and leave the lanes past `lanes` alone. The ops
    /// are non-commutative, so a swapped operand shows; a commutative
    /// float op would not do here, because for two NaN operands Rust
    /// leaves the result's payload unspecified and LLVM may commute an
    /// `fadd` differently in each form.
    #[test]
    fn two_operand_loops_read_in_place_exactly() {
        let ops: [(Op, Binary); 6] = [
            (Op::SubB32, |x, y| alu(AluOp::Sub, VType::B32, x, y)),
            (Op::SubF32, |x, y| alu(AluOp::Sub, VType::F32, x, y)),
            (Op::DivB32, |x, y| alu(AluOp::Div, VType::B32, x, y)),
            (Op::DivF64, |x, y| alu(AluOp::Div, VType::F64, x, y)),
            (Op::SetpLtF32, |x, y| u64::from(compare(CmpOp::Lt, VType::F32, x, y))),
            (Op::PowF32, |x, y| math(MathOp::Pow, VType::F32, x, Some(y))),
        ];
        let mut rng = SplitMix64::new(0x1a9e_5eed);
        let mut shapes = 0;
        for (op, f) in ops {
            for d in 0..3 {
                for a in [0, 1, 2, 3 | UB] {
                    for b in [0, 1, 2, 4 | UB] {
                        for lanes in LANES {
                            for _ in 0..4 {
                                let (mut u, mut v) = register_files(&mut rng);
                                let (want_u, mut want_v) = (u.clone(), v.clone());
                                reference::lanes2(&mut want_v, &want_u, [d, a, b], lanes, f);
                                exec_vector(op, [d, a, b], &mut u, &mut v, lanes);
                                let at = format!("{op:?} d={d} a={a:#x} b={b:#x} lanes={lanes}");
                                assert_eq!(v, want_v, "{at}");
                                assert_eq!(u, want_u, "{at}");
                            }
                        }
                        shapes += 1;
                    }
                }
            }
        }
        assert_eq!(shapes, 6 * 3 * 4 * 4);
    }

    /// One-operand loops (a convert, a one-operand math op): `d == a`,
    /// `d != a` and a uniform `a`.
    #[test]
    fn one_operand_loops_read_in_place_exactly() {
        let ops: [(Op, Unary); 3] = [
            (Op::CvtF64F32, |x| convert(VType::F64, VType::F32, x)),
            (Op::CvtB32F32, |x| convert(VType::B32, VType::F32, x)),
            (Op::SqrtF32, |x| math(MathOp::Sqrt, VType::F32, x, None)),
        ];
        let mut rng = SplitMix64::new(0x0be_0fe5);
        for (op, f) in ops {
            for d in 0..3 {
                for a in [0, 1, 2, 3 | UB] {
                    for lanes in LANES {
                        for _ in 0..4 {
                            let (mut u, mut v) = register_files(&mut rng);
                            let (want_u, mut want_v) = (u.clone(), v.clone());
                            reference::lanes1(&mut want_v, &want_u, d, a, lanes, f);
                            exec_vector(op, [d, a, NO_REG], &mut u, &mut v, lanes);
                            let at = format!("{op:?} d={d} a={a:#x} lanes={lanes}");
                            assert_eq!(v, want_v, "{at}");
                            assert_eq!(u, want_u, "{at}");
                        }
                    }
                }
            }
        }
    }

    fn inst(op: Op, d: u32, a: u32, b: u32) -> DInst {
        DInst { op, cls: CLS_SFU, spill: 0, d, a, b }
    }

    /// `d = op(a)`.
    fn un(op: Op, d: u32, a: u32) -> DInst {
        inst(op, d, a, NO_REG)
    }

    /// `tid.x` into register 0, so that everything computed from it varies.
    fn tid() -> DInst {
        inst(Op::TidX, 0, 0, 0)
    }

    fn ret() -> DInst {
        inst(Op::Ret, 0, 0, 0)
    }

    /// The `(sin, cos, a)` registers of each pair the entry superblock of
    /// `insts` (over 8 registers) gets, with every block hot and every
    /// conditional branch biased to fall through, and the number of
    /// unpaired `sin` and `cos` steps in it. Each pair's later half is one
    /// `Paired` placeholder.
    fn pairs(insts: Vec<DInst>) -> (Vec<[u32; 3]>, usize) {
        let n = insts.len();
        let d = Decoded { n_vregs: 8, consts: Vec::new(), insts };
        let (leader_block, block_of, n_blocks) = find_blocks(&d);
        let prof = ProfileCounters {
            leader_block,
            counts: vec![HOT_THRESHOLD; n_blocks],
            taken: vec![0; n],
            seen: vec![1; n],
        };
        let prog = build(&d, &prof, &block_of, &classify(&d), &mut LocalCtrs::default());
        let steps = &prog.sbs[prog.at[0].expect("an entry superblock") as usize].steps;
        let placeholders = steps.iter().filter(|s| matches!(s, Ctl::Paired { .. })).count();
        let pairs: Vec<_> = steps
            .iter()
            .filter_map(|s| match s {
                Ctl::Pair { sin, cos, a, .. } => Some([*sin, *cos, *a]),
                _ => None,
            })
            .collect();
        assert_eq!(pairs.len(), placeholders, "a pair without its placeholder");
        let unpaired =
            steps.iter().filter(|s| matches!(s, Ctl::Seq(si) if trig_of(si).is_some())).count();
        (pairs, unpaired)
    }

    /// Adjacent, or apart with a step between that reads the operand and
    /// the first destination: one pair, in either order, its columns by
    /// op rather than by position.
    #[test]
    fn sin_and_cos_of_one_operand_pair() {
        let (s, c) = (Op::SinF32, Op::CosF32);
        assert_eq!(pairs(vec![tid(), un(s, 1, 0), un(c, 2, 0), ret()]), (vec![[1, 2, 0]], 0));
        assert_eq!(pairs(vec![tid(), un(c, 1, 0), un(s, 2, 0), ret()]), (vec![[2, 1, 0]], 0));
        let between = inst(Op::AddF64, 3, 1, 0);
        let (s, c) = (Op::SinF64, Op::CosF64);
        let apart =
            |first, later| pairs(vec![tid(), un(first, 1, 0), between, un(later, 2, 0), ret()]);
        assert_eq!(apart(c, s), (vec![[2, 1, 0]], 0));
        assert_eq!(apart(s, c), (vec![[1, 2, 0]], 0));
    }

    /// Each broken condition leaves both instructions unpaired, in one
    /// superblock.
    #[test]
    fn a_broken_condition_builds_no_pair() {
        let (s, c) = (Op::SinF32, Op::CosF32);
        let cases = [
            ("operand redefined", vec![un(s, 1, 0), inst(Op::AddB32, 0, 0, 0), un(c, 2, 0)]),
            ("later destination read", vec![un(s, 1, 0), un(Op::Mov, 3, 2), un(c, 2, 0)]),
            ("later destination written", vec![un(s, 1, 0), un(Op::Mov, 2, 0), un(c, 2, 0)]),
            ("mixed widths", vec![un(s, 1, 0), un(Op::CosF64, 2, 0)]),
            ("first destination is the operand", vec![un(s, 0, 0), un(c, 2, 0)]),
            ("later destination is the operand", vec![un(s, 1, 0), un(c, 0, 0)]),
            ("one destination", vec![un(s, 1, 0), un(c, 1, 0)]),
            ("another operand", vec![un(Op::Mov, 3, 0), un(s, 1, 0), un(c, 2, 3)]),
            ("two sins", vec![un(s, 1, 0), un(s, 2, 0)]),
            (
                "a conditional branch",
                vec![
                    inst(Op::SetpLtB32, 3, 0, 0),
                    un(s, 1, 0),
                    inst(Op::BraF, 5, 3, 0),
                    un(c, 2, 0),
                ],
            ),
            (
                "a fused-through branch",
                vec![un(s, 1, 0), inst(Op::Bra, 4, 0, 0), ret(), un(c, 2, 0)],
            ),
        ];
        for (what, body) in cases {
            let mut insts = vec![tid()];
            insts.extend(body);
            insts.push(ret());
            assert_eq!(pairs(insts), (vec![], 2), "{what}");
        }
    }

    /// The pair step writes exactly what the two superinstructions write
    /// one after the other, at both widths, from a varying or a uniform
    /// operand, at every warp width, and leaves the lanes past `lanes` and
    /// every other register alone.
    #[test]
    fn a_pair_step_writes_what_its_two_halves_write() {
        let mut rng = SplitMix64::new(0x7219);
        for (sin, cos, f32_lanes) in
            [(Op::SinF32, Op::CosF32, true), (Op::SinF64, Op::CosF64, false)]
        {
            for a in [2, 3 | UB] {
                for lanes in LANES {
                    for _ in 0..8 {
                        let (u, mut v) = register_files(&mut rng);
                        let (want_u, mut want_v) = (u.clone(), v.clone());
                        exec_vector(sin, [0, a, NO_REG], &mut u.clone(), &mut want_v, lanes);
                        exec_vector(cos, [1, a, NO_REG], &mut u.clone(), &mut want_v, lanes);
                        trig_pair(&mut v, &u, [0, 1, a], lanes, f32_lanes);
                        let at = format!("{sin:?} a={a:#x} lanes={lanes}");
                        assert_eq!(v, want_v, "{at}");
                        assert_eq!(u, want_u, "{at}");
                    }
                }
            }
        }
    }

    /// A full program cache evicts its oldest entry, not everything: after
    /// one insertion past the cap, all but the first key still hit.
    #[test]
    fn prog_cache_evicts_oldest_only() {
        let empty = || {
            Rc::new(CachedProg {
                uni: Vec::new(),
                prog: SbProgram { sbs: Vec::new(), at: Vec::new() },
            })
        };
        // Keys no real launch produces (no register file has u64::MAX
        // registers).
        let key = |i: usize| vec![u64::MAX, i as u64];
        for i in 0..=PROG_CACHE_CAP {
            prog_cache_put(key(i), empty());
        }
        assert!(prog_cache_get(&key(0)).is_none());
        for i in 1..=PROG_CACHE_CAP {
            assert!(prog_cache_get(&key(i)).is_some(), "key {i} was evicted");
        }
    }
}
