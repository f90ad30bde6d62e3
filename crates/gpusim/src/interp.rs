//! The functional interpreter: executes VIR kernels over simulated device
//! memory, warp by warp, while collecting the statistics the timing model
//! needs.
//!
//! Each lane (thread) runs to completion independently, logging its memory
//! events; the 32 logs of a warp are then merged to compute *actual*
//! 128-byte transactions from the lanes' addresses. This gives
//! address-accurate coalescing measurements, independent of the compiler's
//! static coalescing analysis (the two are cross-validated in tests).

use crate::memory::{DeviceMemory, MemFault};
use crate::stats::KernelStats;
use crate::vir::*;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};

/// Kernel launch geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Grid dimensions (blocks).
    pub grid: (u32, u32, u32),
    /// Block dimensions (threads).
    pub block: (u32, u32, u32),
}

impl LaunchConfig {
    /// 1-D launch helper.
    pub fn d1(grid: u32, block: u32) -> Self {
        LaunchConfig { grid: (grid, 1, 1), block: (block, 1, 1) }
    }

    /// 2-D launch helper.
    pub fn d2(grid: (u32, u32), block: (u32, u32)) -> Self {
        LaunchConfig { grid: (grid.0, grid.1, 1), block: (block.0, block.1, 1) }
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.0 * self.block.1 * self.block.2
    }

    /// Total blocks in the grid.
    pub fn total_blocks(&self) -> u64 {
        self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.threads_per_block() as u64 * (self.grid.0 as u64 * self.grid.1 as u64 * self.grid.2 as u64)
    }
}

/// Launch-time parameter values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamVal {
    /// 32-bit integer.
    I32(i32),
    /// 64-bit integer.
    I64(i64),
    /// binary32 float.
    F32(f32),
    /// binary64 float.
    F64(f64),
    /// Device pointer (synthetic byte address).
    Ptr(u64),
}

/// By bit pattern, so two NaN payloads are two parameter values.
impl Hash for ParamVal {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(self).hash(h);
        match *self {
            ParamVal::I32(i) => i.hash(h),
            ParamVal::I64(i) => i.hash(h),
            ParamVal::F32(f) => f.to_bits().hash(h),
            ParamVal::F64(f) => f.to_bits().hash(h),
            ParamVal::Ptr(p) => p.hash(h),
        }
    }
}

/// Result of a launch: the gathered statistics (the numerical results are
/// in device memory).
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Aggregated dynamic statistics.
    pub stats: KernelStats,
}

/// Interpreter errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Memory fault from a load/store.
    Fault(MemFault),
    /// A thread exceeded the per-thread instruction budget.
    Runaway {
        /// The kernel that ran away.
        kernel: String,
    },
    /// Malformed kernel (bad label, bad param index, type confusion).
    Malformed(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Fault(m) => write!(f, "{m}"),
            SimError::Runaway { kernel } => {
                write!(f, "kernel `{kernel}` exceeded the instruction budget (infinite loop?)")
            }
            SimError::Malformed(m) => write!(f, "malformed kernel: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemFault> for SimError {
    fn from(m: MemFault) -> Self {
        SimError::Fault(m)
    }
}

/// Per-thread dynamic instruction budget (runaway guard).
pub(crate) const MAX_INSTS_PER_THREAD: u64 = 50_000_000;

/// One logged memory event of a lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemEvent {
    pub(crate) inst: u32,
    pub(crate) addr: u64,
    pub(crate) bytes: u8,
    pub(crate) space_store: u8, // space in low 4 bits, is_store in bit 4, atomic bit 5
}

pub(crate) const SPACE_GLOBAL: u8 = 0;
pub(crate) const SPACE_READONLY: u8 = 1;
pub(crate) const SPACE_LOCAL: u8 = 2;
pub(crate) const FLAG_STORE: u8 = 0x10;
pub(crate) const FLAG_ATOMIC: u8 = 0x20;

/// Per-lane instruction-class counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LaneCounts {
    pub(crate) simple: u64,
    pub(crate) int64: u64,
    pub(crate) fp64: u64,
    pub(crate) sfu: u64,
    pub(crate) spill_touches: u64,
}

impl LaneCounts {
    pub(crate) fn max_with(&mut self, o: &LaneCounts) {
        self.simple = self.simple.max(o.simple);
        self.int64 = self.int64.max(o.int64);
        self.fp64 = self.fp64.max(o.fp64);
        self.sfu = self.sfu.max(o.sfu);
        self.spill_touches = self.spill_touches.max(o.spill_touches);
    }
}

/// Which execution engine [`launch`] dispatches to. All three are
/// stats- and memory-identical (asserted by differential tests); the
/// selection exists so benchmarks can time one against another and so
/// any future regression can be bisected to an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The original lane-at-a-time tree-walking interpreter: the oracle.
    Reference,
    /// The pre-decoded direct-threaded engine: lane-major, one lane at a
    /// time. Also what the superblock engine's profile warps and peeled
    /// lanes run on.
    Decoded,
    /// The profile-guided superblock-fused, lane-vectorized engine (the
    /// default).
    Superblock,
}

impl Engine {
    /// Parse a wire/env engine name (`reference` / `decoded` /
    /// `superblock`).
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "reference" => Some(Engine::Reference),
            "decoded" => Some(Engine::Decoded),
            "superblock" => Some(Engine::Superblock),
            _ => None,
        }
    }

    /// The canonical wire/env name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Reference => "reference",
            Engine::Decoded => "decoded",
            Engine::Superblock => "superblock",
        }
    }
}

/// Execute a kernel launch.
///
/// `spilled` lists virtual registers the register allocator spilled; the
/// interpreter still keeps their values in the (unlimited) virtual file
/// for functional correctness but counts their touches as local-memory
/// traffic, mirroring what PTXAS-inserted reload/spill code would do.
///
/// Dispatches to [`crate::current_engine`] (default: the superblock
/// engine, [`crate::superblock`]).
pub fn launch(
    kernel: &KernelVir,
    config: &LaunchConfig,
    params: &[ParamVal],
    mem: &mut DeviceMemory,
    spilled: &[VReg],
) -> Result<LaunchResult, SimError> {
    match crate::current_engine() {
        Engine::Reference => launch_reference(kernel, config, params, mem, spilled),
        Engine::Decoded => crate::decode::launch_decoded(kernel, config, params, mem, spilled),
        Engine::Superblock => {
            crate::superblock::launch_superblock(kernel, config, params, mem, spilled)
        }
    }
}

/// The original lane-at-a-time interpreter, retained verbatim as the
/// reference semantics the decoded engine is differentially tested
/// against (and as the baseline for wall-clock comparisons).
pub fn launch_reference(
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
    let labels = kernel.label_positions();
    for inst in &kernel.insts {
        if let Inst::Bra { target, .. } = inst {
            if labels.get(target.0 as usize).copied().flatten().is_none() {
                return Err(SimError::Malformed(format!("branch to undefined label L{}", target.0)));
            }
        }
    }
    let spillset: HashSet<u32> = spilled.iter().map(|r| r.0).collect();
    let warp_size = 32u32;
    let tpb = config.threads_per_block();
    let mut stats = KernelStats::default();

    let mut lane_logs: Vec<Vec<MemEvent>> = vec![Vec::new(); warp_size as usize];
    let mut lane_counts = vec![LaneCounts::default(); warp_size as usize];

    for bz in 0..config.grid.2 {
        for by in 0..config.grid.1 {
            for bx in 0..config.grid.0 {
                // Enumerate the block's threads in linear order and chop
                // into warps of 32 (x fastest, as on hardware).
                let mut linear = 0u32;
                while linear < tpb {
                    let lanes_in_warp = (tpb - linear).min(warp_size);
                    for log in lane_logs.iter_mut() {
                        log.clear();
                    }
                    for lc in lane_counts.iter_mut() {
                        *lc = LaneCounts::default();
                    }
                    for lane in 0..lanes_in_warp {
                        let t = linear + lane;
                        let tx = t % config.block.0;
                        let ty = (t / config.block.0) % config.block.1;
                        let tz = t / (config.block.0 * config.block.1);
                        run_lane(
                            kernel,
                            &labels,
                            params,
                            mem,
                            (tx, ty, tz),
                            (bx, by, bz),
                            config,
                            &spillset,
                            &mut lane_logs[lane as usize],
                            &mut lane_counts[lane as usize],
                        )?;
                    }
                    merge_warp(
                        &lane_logs[..lanes_in_warp as usize],
                        &lane_counts[..lanes_in_warp as usize],
                        &mut stats,
                    );
                    stats.warps += 1;
                    stats.threads += lanes_in_warp as u64;
                    linear += lanes_in_warp;
                }
            }
        }
    }
    Ok(LaunchResult { stats })
}

/// Merge one warp's lane logs into transactions and issue counts.
fn merge_warp(logs: &[Vec<MemEvent>], counts: &[LaneCounts], stats: &mut KernelStats) {
    // Instruction issues: per-class max across lanes (exact under uniform
    // control flow).
    let mut warp = LaneCounts::default();
    for c in counts {
        warp.max_with(c);
    }
    stats.simple_insts += warp.simple;
    stats.int64_insts += warp.int64;
    stats.fp64_insts += warp.fp64;
    stats.sfu_insts += warp.sfu;
    stats.local_accesses += warp.spill_touches;

    // Fast path: uniform logs (same length and instruction sequence).
    let uniform = logs.len() > 1
        && logs.windows(2).all(|w| {
            w[0].len() == w[1].len()
                && w[0]
                    .iter()
                    .zip(&w[1])
                    .all(|(a, b)| a.inst == b.inst && a.space_store == b.space_store)
        });
    if logs.len() == 1 || uniform {
        let n = logs[0].len();
        let mut addrs = Vec::with_capacity(logs.len());
        for i in 0..n {
            addrs.clear();
            addrs.extend(logs.iter().map(|l| l[i].addr));
            account_group(logs[0][i], &addrs, stats);
        }
        return;
    }

    merge_divergent(logs, stats);
}

/// Divergent-warp merge: align the lanes' logs by (inst, per-inst
/// occurrence) and account each group. Shared with the decoded engine's
/// fallback path so both engines group identically.
pub(crate) fn merge_divergent(logs: &[Vec<MemEvent>], stats: &mut KernelStats) {
    let mut groups: BTreeMap<(u32, u32), (MemEvent, Vec<u64>)> = BTreeMap::new();
    for log in logs {
        let mut occ: BTreeMap<u32, u32> = BTreeMap::new();
        for ev in log {
            let k = occ.entry(ev.inst).or_insert(0);
            let key = (ev.inst, *k);
            *k += 1;
            groups.entry(key).or_insert_with(|| (*ev, Vec::new())).1.push(ev.addr);
        }
    }
    for (ev, addrs) in groups.values() {
        account_group(*ev, addrs, stats);
    }
}

/// Account one warp-level access group: compute 128-byte transactions
/// from the participating addresses.
pub(crate) fn account_group(ev: MemEvent, addrs: &[u64], stats: &mut KernelStats) {
    account_group_with(ev, addrs, &mut Vec::new(), stats)
}

/// [`account_group`] with a caller-provided segment scratch buffer, so
/// hot merge loops don't allocate per group.
pub(crate) fn account_group_with(
    ev: MemEvent,
    addrs: &[u64],
    segs: &mut Vec<u64>,
    stats: &mut KernelStats,
) {
    let space = ev.space_store & 0x0F;
    let is_store = ev.space_store & FLAG_STORE != 0;
    let is_atomic = ev.space_store & FLAG_ATOMIC != 0;
    if is_atomic {
        // Atomics serialize: one transaction per participating lane.
        stats.atomics += addrs.len() as u64;
        return;
    }
    match space {
        SPACE_LOCAL => {
            stats.local_accesses += 1;
        }
        _ => {
            let txns = transactions(addrs, ev.bytes, segs);
            if space == SPACE_READONLY {
                stats.readonly_requests += 1;
                stats.readonly_transactions += txns;
            } else {
                if is_store {
                    stats.global_st_requests += 1;
                } else {
                    stats.global_ld_requests += 1;
                }
                stats.global_transactions += txns;
            }
        }
    }
}

/// Distinct 128-byte segments touched by `bytes`-wide accesses at
/// `addrs` (an access can straddle a segment boundary). Coalesced
/// accesses arrive in ascending order, so one pass counts segment
/// changes while it checks that they do; a group that does not is
/// collected into `segs`, sorted and deduplicated.
#[inline]
fn transactions(addrs: &[u64], bytes: u8, segs: &mut Vec<u64>) -> u64 {
    let span = |a: u64| [a / 128, (a + bytes as u64 - 1) / 128];
    let Some(&a0) = addrs.first() else { return 0 };
    let mut prev = a0 / 128;
    let mut n = 1u64;
    for &a in addrs {
        let [first, last] = span(a);
        if first < prev {
            segs.clear();
            segs.extend(addrs.iter().flat_map(|&a| span(a)));
            segs.sort_unstable();
            segs.dedup();
            return segs.len() as u64;
        }
        n += u64::from(first != prev) + u64::from(last != first);
        prev = last;
    }
    n
}

/// The sort–dedup segment count the single pass replaced, kept as the
/// oracle the generated-group differential below compares against.
#[cfg(test)]
mod reference {
    pub fn transactions(addrs: &[u64], bytes: u8) -> u64 {
        let mut segs = Vec::new();
        for &a in addrs {
            segs.push(a / 128);
            segs.push((a + bytes as u64 - 1) / 128);
        }
        segs.sort_unstable();
        segs.dedup();
        segs.len() as u64
    }
}

#[allow(clippy::too_many_arguments)]
fn run_lane(
    kernel: &KernelVir,
    labels: &[Option<usize>],
    params: &[ParamVal],
    mem: &mut DeviceMemory,
    tid: (u32, u32, u32),
    ctaid: (u32, u32, u32),
    config: &LaunchConfig,
    spillset: &HashSet<u32>,
    log: &mut Vec<MemEvent>,
    counts: &mut LaneCounts,
) -> Result<(), SimError> {
    let mut regs = vec![0u64; kernel.vregs.len()];
    let mut pc = 0usize;
    let mut executed = 0u64;

    macro_rules! val {
        ($op:expr, $ty:expr) => {
            operand_bits($op, &regs, $ty)
        };
    }

    while pc < kernel.insts.len() {
        executed += 1;
        if executed > MAX_INSTS_PER_THREAD {
            return Err(SimError::Runaway { kernel: kernel.name.clone() });
        }
        let inst = &kernel.insts[pc];
        // Count spill traffic: any executed use/def of a spilled vreg.
        if !spillset.is_empty() {
            let mut touches = 0u64;
            for u in inst.uses() {
                if spillset.contains(&u.0) {
                    touches += 1;
                }
            }
            if let Some(d) = inst.def() {
                if spillset.contains(&d.0) {
                    touches += 1;
                }
            }
            counts.spill_touches += touches;
        }
        match inst {
            Inst::Mov { ty, d, a } => {
                counts.simple += 1;
                regs[d.0 as usize] = val!(a, *ty);
            }
            Inst::Alu { op, ty, d, a, b } => {
                count_class(counts, *ty);
                let (x, y) = (val!(a, *ty), val!(b, *ty));
                regs[d.0 as usize] = alu(*op, *ty, x, y);
            }
            Inst::Neg { ty, d, a } => {
                count_class(counts, *ty);
                let x = val!(a, *ty);
                regs[d.0 as usize] = neg(*ty, x);
            }
            Inst::Not { d, a } => {
                counts.simple += 1;
                regs[d.0 as usize] = u64::from(regs[a.0 as usize] == 0);
            }
            Inst::Cvt { dty, d, aty, a } => {
                count_class(counts, *dty);
                let x = val!(a, *aty);
                regs[d.0 as usize] = convert(*aty, *dty, x);
            }
            Inst::Setp { op, ty, d, a, b } => {
                counts.simple += 1;
                let (x, y) = (val!(a, *ty), val!(b, *ty));
                regs[d.0 as usize] = u64::from(compare(*op, *ty, x, y));
            }
            Inst::Math { op, ty, d, a, b } => {
                counts.sfu += 1;
                let x = val!(a, *ty);
                let y = b.map(|b| val!(&b, *ty));
                regs[d.0 as usize] = math(*op, *ty, x, y);
            }
            Inst::Ld { space, ty, d, addr } => {
                counts.simple += 1;
                let a = regs[addr.0 as usize];
                let bytes = ty.size_bytes();
                let v = mem.read(a, bytes)?;
                regs[d.0 as usize] = v;
                log.push(MemEvent {
                    inst: pc as u32,
                    addr: a,
                    bytes: bytes as u8,
                    space_store: space_code(*space),
                });
            }
            Inst::St { space, ty, addr, a } => {
                counts.simple += 1;
                let ad = regs[addr.0 as usize];
                let bytes = ty.size_bytes();
                let v = val!(a, *ty);
                mem.write(ad, bytes, v)?;
                log.push(MemEvent {
                    inst: pc as u32,
                    addr: ad,
                    bytes: bytes as u8,
                    space_store: space_code(*space) | FLAG_STORE,
                });
            }
            Inst::LdParam { ty, d, index } => {
                counts.simple += 1;
                let p = params
                    .get(*index as usize)
                    .ok_or_else(|| SimError::Malformed(format!("param index {index} out of range")))?;
                regs[d.0 as usize] = param_bits(p, *ty)?;
            }
            Inst::Special { d, r } => {
                counts.simple += 1;
                let v = match r {
                    SpecialReg::Tid(0) => tid.0,
                    SpecialReg::Tid(1) => tid.1,
                    SpecialReg::Tid(_) => tid.2,
                    SpecialReg::CtaId(0) => ctaid.0,
                    SpecialReg::CtaId(1) => ctaid.1,
                    SpecialReg::CtaId(_) => ctaid.2,
                    SpecialReg::NTid(0) => config.block.0,
                    SpecialReg::NTid(1) => config.block.1,
                    SpecialReg::NTid(_) => config.block.2,
                    SpecialReg::NCtaId(0) => config.grid.0,
                    SpecialReg::NCtaId(1) => config.grid.1,
                    SpecialReg::NCtaId(_) => config.grid.2,
                };
                regs[d.0 as usize] = v as u64;
            }
            Inst::Bra { target, pred } => {
                counts.simple += 1;
                let taken = match pred {
                    None => true,
                    Some((p, want)) => (regs[p.0 as usize] != 0) == *want,
                };
                if taken {
                    pc = labels[target.0 as usize].expect("validated above");
                    continue;
                }
            }
            Inst::Mark(_) => {}
            Inst::AtomAdd { ty, addr, a } => {
                counts.simple += 1;
                let ad = regs[addr.0 as usize];
                let bytes = ty.size_bytes();
                mem.atom_add(*ty, ad, bytes, val!(a, *ty))?;
                log.push(MemEvent {
                    inst: pc as u32,
                    addr: ad,
                    bytes: bytes as u8,
                    space_store: SPACE_GLOBAL | FLAG_STORE | FLAG_ATOMIC,
                });
            }
            Inst::Ret => break,
        }
        pc += 1;
    }
    Ok(())
}

#[inline(always)]
pub(crate) fn neg(ty: VType, x: u64) -> u64 {
    match ty {
        VType::B32 => (-(x as u32 as i32)) as u32 as u64,
        VType::B64 => (-(x as i64)) as u64,
        VType::F32 => (-f32::from_bits(x as u32)).to_bits() as u64,
        VType::F64 => (-f64::from_bits(x)).to_bits(),
        VType::Pred => u64::from(x == 0),
    }
}

#[inline(always)]
pub(crate) fn atom_add(ty: VType, old: u64, add: u64) -> u64 {
    match ty {
        VType::F32 => (f32::from_bits(old as u32) + f32::from_bits(add as u32)).to_bits() as u64,
        VType::F64 => (f64::from_bits(old) + f64::from_bits(add)).to_bits(),
        VType::B32 => ((old as u32).wrapping_add(add as u32)) as u64,
        _ => old.wrapping_add(add),
    }
}

pub(crate) fn space_code(s: MemSpace) -> u8 {
    match s {
        MemSpace::Global => SPACE_GLOBAL,
        MemSpace::ReadOnly => SPACE_READONLY,
        MemSpace::Local => SPACE_LOCAL,
    }
}

pub(crate) fn count_class(c: &mut LaneCounts, ty: VType) {
    match ty {
        VType::B64 => c.int64 += 1,
        VType::F64 => c.fp64 += 1,
        _ => c.simple += 1,
    }
}

pub(crate) fn operand_bits(op: &Operand, regs: &[u64], ty: VType) -> u64 {
    match op {
        Operand::Reg(r) => regs[r.0 as usize],
        Operand::ImmI(v) => match ty {
            VType::B32 => (*v as i32) as u32 as u64,
            VType::F32 => (*v as f32).to_bits() as u64,
            VType::F64 => (*v as f64).to_bits(),
            _ => *v as u64,
        },
        Operand::ImmF(v) => match ty {
            VType::F32 => (*v as f32).to_bits() as u64,
            _ => v.to_bits(),
        },
    }
}

pub(crate) fn param_bits(p: &ParamVal, ty: VType) -> Result<u64, SimError> {
    Ok(match (p, ty) {
        (ParamVal::I32(v), VType::B32) => *v as u32 as u64,
        (ParamVal::I32(v), VType::B64) => *v as i64 as u64,
        (ParamVal::I64(v), VType::B64) => *v as u64,
        (ParamVal::F32(v), VType::F32) => v.to_bits() as u64,
        (ParamVal::F64(v), VType::F64) => v.to_bits(),
        (ParamVal::Ptr(v), VType::B64) => *v,
        (p, ty) => {
            return Err(SimError::Malformed(format!("param {p:?} loaded as {ty:?}")));
        }
    })
}

#[inline(always)]
pub(crate) fn alu(op: AluOp, ty: VType, x: u64, y: u64) -> u64 {
    match ty {
        VType::F32 => {
            let (a, b) = (f32::from_bits(x as u32), f32::from_bits(y as u32));
            let r = match op {
                AluOp::Add => a + b,
                AluOp::Sub => a - b,
                AluOp::Mul => a * b,
                AluOp::Div => a / b,
                AluOp::Min => a.min(b),
                AluOp::Max => a.max(b),
                AluOp::Rem => a % b,
                _ => f32::from_bits(int_alu32(op, x as u32, y as u32)),
            };
            r.to_bits() as u64
        }
        VType::F64 => {
            let (a, b) = (f64::from_bits(x), f64::from_bits(y));
            let r = match op {
                AluOp::Add => a + b,
                AluOp::Sub => a - b,
                AluOp::Mul => a * b,
                AluOp::Div => a / b,
                AluOp::Min => a.min(b),
                AluOp::Max => a.max(b),
                AluOp::Rem => a % b,
                _ => return int_alu64(op, x, y),
            };
            r.to_bits()
        }
        VType::B32 => int_alu32(op, x as u32, y as u32) as u64,
        VType::B64 => int_alu64(op, x, y),
        VType::Pred => {
            let (a, b) = (x != 0, y != 0);
            u64::from(match op {
                AluOp::And => a && b,
                AluOp::Or => a || b,
                AluOp::Xor => a ^ b,
                _ => a,
            })
        }
    }
}

fn int_alu32(op: AluOp, x: u32, y: u32) -> u32 {
    let (a, b) = (x as i32, y as i32);
    (match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl(y & 31),
        AluOp::Shr => a.wrapping_shr(y & 31),
    }) as u32
}

fn int_alu64(op: AluOp, x: u64, y: u64) -> u64 {
    let (a, b) = (x as i64, y as i64);
    (match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((y & 63) as u32),
        AluOp::Shr => a.wrapping_shr((y & 63) as u32),
    }) as u64
}

#[inline(always)]
pub(crate) fn compare(op: CmpOp, ty: VType, x: u64, y: u64) -> bool {
    match ty {
        VType::F32 => {
            let (a, b) = (f32::from_bits(x as u32), f32::from_bits(y as u32));
            cmp_f(op, a as f64, b as f64)
        }
        VType::F64 => cmp_f(op, f64::from_bits(x), f64::from_bits(y)),
        VType::B32 => cmp_i(op, x as u32 as i32 as i64, y as u32 as i32 as i64),
        _ => cmp_i(op, x as i64, y as i64),
    }
}

fn cmp_f(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

fn cmp_i(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

#[inline]
pub(crate) fn math(op: MathOp, ty: VType, x: u64, y: Option<u64>) -> u64 {
    match ty {
        VType::F32 => {
            let a = f32::from_bits(x as u32);
            let r = match op {
                MathOp::Sqrt => a.sqrt(),
                MathOp::Exp => a.exp(),
                MathOp::Log => a.ln(),
                MathOp::Sin => a.sin(),
                MathOp::Cos => a.cos(),
                MathOp::Abs => a.abs(),
                MathOp::Floor => a.floor(),
                MathOp::Pow => a.powf(f32::from_bits(y.unwrap_or(0) as u32)),
            };
            r.to_bits() as u64
        }
        _ => {
            let a = f64::from_bits(x);
            let r = match op {
                MathOp::Sqrt => a.sqrt(),
                MathOp::Exp => a.exp(),
                MathOp::Log => a.ln(),
                MathOp::Sin => a.sin(),
                MathOp::Cos => a.cos(),
                MathOp::Abs => a.abs(),
                MathOp::Floor => a.floor(),
                MathOp::Pow => a.powf(f64::from_bits(y.unwrap_or(0))),
            };
            r.to_bits()
        }
    }
}

#[inline(always)]
pub(crate) fn convert(aty: VType, dty: VType, x: u64) -> u64 {
    // Normalize the source to a canonical value first.
    #[derive(Clone, Copy)]
    enum V {
        I(i64),
        F(f64),
    }
    let v = match aty {
        VType::B32 => V::I(x as u32 as i32 as i64),
        VType::B64 => V::I(x as i64),
        VType::F32 => V::F(f32::from_bits(x as u32) as f64),
        VType::F64 => V::F(f64::from_bits(x)),
        VType::Pred => V::I(i64::from(x != 0)),
    };
    match (v, dty) {
        (V::I(i), VType::B32) => i as i32 as u32 as u64,
        (V::I(i), VType::B64) => i as u64,
        (V::I(i), VType::F32) => (i as f32).to_bits() as u64,
        (V::I(i), VType::F64) => (i as f64).to_bits(),
        (V::I(i), VType::Pred) => u64::from(i != 0),
        (V::F(f), VType::B32) => (f as i32) as u32 as u64,
        (V::F(f), VType::B64) => (f as i64) as u64,
        (V::F(f), VType::F32) => (f as f32).to_bits() as u64,
        (V::F(f), VType::F64) => f.to_bits(),
        (V::F(f), VType::Pred) => u64::from(f != 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DeviceMemory;

    /// Build a kernel: out[gid] = in[gid] * 2 + 1 (f32), 1-D.
    fn saxpy_like(space_in: MemSpace) -> KernelVir {
        let mut k = KernelVir { name: "k".into(), params: vec![ParamDecl::Ptr, ParamDecl::Ptr, ParamDecl::Scalar(VType::B32)], ..Default::default() };
        let pin = k.new_vreg(VType::B64);
        let pout = k.new_vreg(VType::B64);
        let n = k.new_vreg(VType::B32);
        let tid = k.new_vreg(VType::B32);
        let bid = k.new_vreg(VType::B32);
        let bdim = k.new_vreg(VType::B32);
        let gid = k.new_vreg(VType::B32);
        let t0 = k.new_vreg(VType::B32);
        let p = k.new_vreg(VType::Pred);
        let off64 = k.new_vreg(VType::B64);
        let addr_in = k.new_vreg(VType::B64);
        let addr_out = k.new_vreg(VType::B64);
        let v = k.new_vreg(VType::F32);
        let v2 = k.new_vreg(VType::F32);
        use Inst::*;
        k.insts = vec![
            LdParam { ty: VType::B64, d: pin, index: 0 },
            LdParam { ty: VType::B64, d: pout, index: 1 },
            LdParam { ty: VType::B32, d: n, index: 2 },
            Special { d: tid, r: SpecialReg::Tid(0) },
            Special { d: bid, r: SpecialReg::CtaId(0) },
            Special { d: bdim, r: SpecialReg::NTid(0) },
            Alu { op: AluOp::Mul, ty: VType::B32, d: t0, a: bid.into(), b: bdim.into() },
            Alu { op: AluOp::Add, ty: VType::B32, d: gid, a: t0.into(), b: tid.into() },
            Setp { op: CmpOp::Ge, ty: VType::B32, d: p, a: gid.into(), b: n.into() },
            Bra { target: Label(0), pred: Some((p, true)) },
            Cvt { dty: VType::B64, d: off64, aty: VType::B32, a: gid.into() },
            Alu { op: AluOp::Mul, ty: VType::B64, d: off64, a: off64.into(), b: Operand::ImmI(4) },
            Alu { op: AluOp::Add, ty: VType::B64, d: addr_in, a: pin.into(), b: off64.into() },
            Alu { op: AluOp::Add, ty: VType::B64, d: addr_out, a: pout.into(), b: off64.into() },
            Ld { space: space_in, ty: VType::F32, d: v, addr: addr_in },
            Alu { op: AluOp::Mul, ty: VType::F32, d: v2, a: v.into(), b: Operand::ImmF(2.0) },
            Alu { op: AluOp::Add, ty: VType::F32, d: v2, a: v2.into(), b: Operand::ImmF(1.0) },
            St { space: MemSpace::Global, ty: VType::F32, addr: addr_out, a: v2.into() },
            Mark(Label(0)),
            Ret,
        ];
        k
    }

    #[test]
    fn functional_result_correct() {
        let k = saxpy_like(MemSpace::Global);
        let mut mem = DeviceMemory::new();
        let n = 100usize;
        let a = mem.alloc(n * 4);
        let b = mem.alloc(n * 4);
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();
        mem.copy_in_f32(a, &input);
        let cfg = LaunchConfig::d1(4, 32); // 128 threads ≥ 100
        let params = [
            ParamVal::Ptr(mem.base_addr(a)),
            ParamVal::Ptr(mem.base_addr(b)),
            ParamVal::I32(n as i32),
        ];
        launch(&k, &cfg, &params, &mut mem, &[]).unwrap();
        let out = mem.copy_out_f32(b);
        for i in 0..n {
            assert_eq!(out[i], input[i] * 2.0 + 1.0, "index {i}");
        }
    }

    #[test]
    fn coalesced_loads_make_one_transaction_per_warp() {
        let k = saxpy_like(MemSpace::Global);
        let mut mem = DeviceMemory::new();
        let n = 128;
        let a = mem.alloc(n * 4);
        let b = mem.alloc(n * 4);
        let cfg = LaunchConfig::d1(4, 32);
        let params = [
            ParamVal::Ptr(mem.base_addr(a)),
            ParamVal::Ptr(mem.base_addr(b)),
            ParamVal::I32(n as i32),
        ];
        let res = launch(&k, &cfg, &params, &mut mem, &[]).unwrap();
        let s = res.stats;
        assert_eq!(s.warps, 4);
        assert_eq!(s.threads, 128);
        // Each warp: one ld request + one st request, 1 txn each
        // (32 lanes × 4 B = 128 B aligned).
        assert_eq!(s.global_ld_requests, 4);
        assert_eq!(s.global_st_requests, 4);
        assert_eq!(s.global_transactions, 8);
    }

    #[test]
    fn readonly_space_counts_separately() {
        let k = saxpy_like(MemSpace::ReadOnly);
        let mut mem = DeviceMemory::new();
        let n = 64;
        let a = mem.alloc(n * 4);
        let b = mem.alloc(n * 4);
        let cfg = LaunchConfig::d1(2, 32);
        let params = [
            ParamVal::Ptr(mem.base_addr(a)),
            ParamVal::Ptr(mem.base_addr(b)),
            ParamVal::I32(n as i32),
        ];
        let res = launch(&k, &cfg, &params, &mut mem, &[]).unwrap();
        assert_eq!(res.stats.readonly_requests, 2);
        assert_eq!(res.stats.readonly_transactions, 2);
        assert_eq!(res.stats.global_ld_requests, 0);
    }

    /// Strided kernel: out[gid*stride] = 1.0 — uncoalesced stores.
    fn strided_store(stride: i64) -> KernelVir {
        let mut k = KernelVir { name: "strided".into(), params: vec![ParamDecl::Ptr], ..Default::default() };
        let pout = k.new_vreg(VType::B64);
        let tid = k.new_vreg(VType::B32);
        let off = k.new_vreg(VType::B64);
        let addr = k.new_vreg(VType::B64);
        use Inst::*;
        k.insts = vec![
            LdParam { ty: VType::B64, d: pout, index: 0 },
            Special { d: tid, r: SpecialReg::Tid(0) },
            Cvt { dty: VType::B64, d: off, aty: VType::B32, a: tid.into() },
            Alu { op: AluOp::Mul, ty: VType::B64, d: off, a: off.into(), b: Operand::ImmI(4 * stride) },
            Alu { op: AluOp::Add, ty: VType::B64, d: addr, a: pout.into(), b: off.into() },
            St { space: MemSpace::Global, ty: VType::F32, addr, a: Operand::ImmF(1.0) },
            Ret,
        ];
        k
    }

    #[test]
    fn strided_stores_explode_transactions() {
        for (stride, expect_txn) in [(1i64, 1u64), (2, 2), (32, 32)] {
            let k = strided_store(stride);
            let mut mem = DeviceMemory::new();
            let buf = mem.alloc(32 * 4 * stride as usize);
            let cfg = LaunchConfig::d1(1, 32);
            let res = launch(&k, &cfg, &[ParamVal::Ptr(mem.base_addr(buf))], &mut mem, &[]).unwrap();
            assert_eq!(
                res.stats.global_transactions, expect_txn,
                "stride {stride}"
            );
        }
    }

    #[test]
    fn broadcast_access_is_single_transaction() {
        let k = strided_store(0);
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4);
        let cfg = LaunchConfig::d1(1, 32);
        let res = launch(&k, &cfg, &[ParamVal::Ptr(mem.base_addr(buf))], &mut mem, &[]).unwrap();
        assert_eq!(res.stats.global_transactions, 1);
    }

    #[test]
    fn divergent_warp_counts_every_path_access() {
        // Odd lanes store, even lanes don't: 16 addresses in the group.
        let mut k = KernelVir { name: "div".into(), params: vec![ParamDecl::Ptr], ..Default::default() };
        let pout = k.new_vreg(VType::B64);
        let tid = k.new_vreg(VType::B32);
        let bit = k.new_vreg(VType::B32);
        let p = k.new_vreg(VType::Pred);
        let off = k.new_vreg(VType::B64);
        let addr = k.new_vreg(VType::B64);
        use Inst::*;
        k.insts = vec![
            LdParam { ty: VType::B64, d: pout, index: 0 },
            Special { d: tid, r: SpecialReg::Tid(0) },
            Alu { op: AluOp::And, ty: VType::B32, d: bit, a: tid.into(), b: Operand::ImmI(1) },
            Setp { op: CmpOp::Eq, ty: VType::B32, d: p, a: bit.into(), b: Operand::ImmI(0) },
            Bra { target: Label(0), pred: Some((p, true)) },
            Cvt { dty: VType::B64, d: off, aty: VType::B32, a: tid.into() },
            Alu { op: AluOp::Mul, ty: VType::B64, d: off, a: off.into(), b: Operand::ImmI(4) },
            Alu { op: AluOp::Add, ty: VType::B64, d: addr, a: pout.into(), b: off.into() },
            St { space: MemSpace::Global, ty: VType::F32, addr, a: Operand::ImmF(3.0) },
            Mark(Label(0)),
            Ret,
        ];
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(32 * 4);
        let cfg = LaunchConfig::d1(1, 32);
        let res = launch(&k, &cfg, &[ParamVal::Ptr(mem.base_addr(buf))], &mut mem, &[]).unwrap();
        assert_eq!(res.stats.global_st_requests, 1);
        // 16 odd lanes × 4 B within one 128-B segment → 1 transaction.
        assert_eq!(res.stats.global_transactions, 1);
        let out = mem.copy_out_f32(buf);
        for (i, v) in out.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(*v, 3.0);
            } else {
                assert_eq!(*v, 0.0);
            }
        }
    }

    #[test]
    fn atomics_serialize_and_accumulate() {
        let mut k = KernelVir { name: "red".into(), params: vec![ParamDecl::Ptr], ..Default::default() };
        let pout = k.new_vreg(VType::B64);
        use Inst::*;
        k.insts = vec![
            LdParam { ty: VType::B64, d: pout, index: 0 },
            AtomAdd { ty: VType::F32, addr: pout, a: Operand::ImmF(1.0) },
            Ret,
        ];
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(4);
        let cfg = LaunchConfig::d1(2, 64);
        let res = launch(&k, &cfg, &[ParamVal::Ptr(mem.base_addr(buf))], &mut mem, &[]).unwrap();
        assert_eq!(mem.copy_out_f32(buf)[0], 128.0);
        assert_eq!(res.stats.atomics, 128);
    }

    #[test]
    fn spilled_registers_count_local_traffic() {
        let k = saxpy_like(MemSpace::Global);
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(32 * 4);
        let b = mem.alloc(32 * 4);
        let cfg = LaunchConfig::d1(1, 32);
        let params = [
            ParamVal::Ptr(mem.base_addr(a)),
            ParamVal::Ptr(mem.base_addr(b)),
            ParamVal::I32(32),
        ];
        let no_spill = launch(&k, &cfg, &params, &mut mem, &[]).unwrap();
        assert_eq!(no_spill.stats.local_accesses, 0);
        // Declare the f32 value register spilled: every use/def now counts.
        let spill = launch(&k, &cfg, &params, &mut mem, &[VReg(13)]).unwrap();
        assert!(spill.stats.local_accesses > 0);
    }

    #[test]
    fn runaway_loop_detected() {
        let mut k = KernelVir { name: "inf".into(), ..Default::default() };
        k.insts = vec![Inst::Mark(Label(0)), Inst::Bra { target: Label(0), pred: None }];
        let mut mem = DeviceMemory::new();
        let cfg = LaunchConfig::d1(1, 1);
        let err = launch(&k, &cfg, &[], &mut mem, &[]).unwrap_err();
        assert!(matches!(err, SimError::Runaway { .. }));
    }

    #[test]
    fn param_count_mismatch_rejected() {
        let k = saxpy_like(MemSpace::Global);
        let mut mem = DeviceMemory::new();
        let cfg = LaunchConfig::d1(1, 1);
        let err = launch(&k, &cfg, &[], &mut mem, &[]).unwrap_err();
        assert!(matches!(err, SimError::Malformed(_)));
    }

    #[test]
    fn branch_to_missing_label_rejected() {
        let mut k = KernelVir { name: "bad".into(), ..Default::default() };
        k.insts = vec![Inst::Bra { target: Label(9), pred: None }];
        let mut mem = DeviceMemory::new();
        let err = launch(&k, &LaunchConfig::d1(1, 1), &[], &mut mem, &[]).unwrap_err();
        assert!(matches!(err, SimError::Malformed(_)));
    }

    #[test]
    fn f64_arithmetic_and_conversion() {
        // out[i] = sqrt((double) i) as double
        let mut k = KernelVir { name: "dbl".into(), params: vec![ParamDecl::Ptr], ..Default::default() };
        let pout = k.new_vreg(VType::B64);
        let tid = k.new_vreg(VType::B32);
        let d = k.new_vreg(VType::F64);
        let r = k.new_vreg(VType::F64);
        let off = k.new_vreg(VType::B64);
        let addr = k.new_vreg(VType::B64);
        use Inst::*;
        k.insts = vec![
            LdParam { ty: VType::B64, d: pout, index: 0 },
            Special { d: tid, r: SpecialReg::Tid(0) },
            Cvt { dty: VType::F64, d, aty: VType::B32, a: tid.into() },
            Math { op: MathOp::Sqrt, ty: VType::F64, d: r, a: d.into(), b: None },
            Cvt { dty: VType::B64, d: off, aty: VType::B32, a: tid.into() },
            Alu { op: AluOp::Mul, ty: VType::B64, d: off, a: off.into(), b: Operand::ImmI(8) },
            Alu { op: AluOp::Add, ty: VType::B64, d: addr, a: pout.into(), b: off.into() },
            St { space: MemSpace::Global, ty: VType::F64, addr, a: r.into() },
            Ret,
        ];
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(8 * 8);
        let res = launch(&k, &LaunchConfig::d1(1, 8), &[ParamVal::Ptr(mem.base_addr(buf))], &mut mem, &[]).unwrap();
        let out = mem.copy_out_f64(buf);
        for (i, v) in out.iter().enumerate() {
            assert!((v - (i as f64).sqrt()).abs() < 1e-12);
        }
        assert!(res.stats.sfu_insts >= 1);
        assert!(res.stats.int64_insts >= 2);
        // 8 lanes × 8 B f64 = 64 B in one segment → 1 txn.
        assert_eq!(res.stats.global_transactions, 1);
    }

    /// The single-pass count equals the sort–dedup count on every shape a
    /// warp's addresses take: ascending (strided, unit and zero stride),
    /// ascending with repeats, straddling segment boundaries, descending,
    /// shuffled, and ascending with one lane out of order — full and
    /// partial warps, at every access width.
    #[test]
    fn single_pass_transactions_match_sort_dedup() {
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(0x5e9);
        let mut segs = Vec::new();
        for trial in 0..6000 {
            let bytes = [1u8, 4, 8][trial % 3];
            let w = bytes as u64;
            let lanes = 1 + rng.gen_index(32);
            // Unaligned bases straddle segment boundaries.
            let base = (1u64 << 40) + rng.gen_index(4096) as u64;
            let stride = [0, w, w, 2 * w, 32 * w, rng.gen_index(300) as u64][rng.gen_index(6)];
            let mut addrs: Vec<u64> = (0..lanes as u64).map(|l| base + l * stride).collect();
            match trial / 3 % 6 {
                0 => {}
                1 => addrs.iter_mut().enumerate().for_each(|(l, a)| *a = base + (l as u64 / 3) * w),
                2 => addrs.iter_mut().for_each(|a| *a = base + rng.gen_index(1024) as u64),
                3 => addrs.reverse(),
                4 => {
                    let l = rng.gen_index(lanes);
                    addrs[l] = addrs[l].saturating_sub(1 + rng.gen_index(256) as u64);
                }
                _ => {
                    for i in (1..lanes).rev() {
                        addrs.swap(i, rng.gen_index(i + 1));
                    }
                }
            }
            assert_eq!(
                transactions(&addrs, bytes, &mut segs),
                reference::transactions(&addrs, bytes),
                "width {bytes}, addrs {addrs:x?}"
            );
        }
        assert_eq!(transactions(&[], 4, &mut segs), 0);
    }
}
