//! Block-parallel launch execution: a scoped worker pool that runs a
//! launch's blocks concurrently while keeping every observable output —
//! result buffers, statistics, error values — bitwise-identical to the
//! serial engines.
//!
//! CUDA's execution model makes blocks within a launch independent: they
//! interact only through global memory and atomics. The simulator
//! exploits exactly that independence. The one hazard is the
//! read-modify-write of `AtomAdd`, whose result depends on execution
//! order; floating-point addition is not associative, so a naive
//! parallel merge would change bits. The scheme here:
//!
//! * every worker sees device memory through a [`WorkerMem`] view:
//!   plain loads and stores go straight to the shared buffers (relaxed
//!   per-byte atomics — blocks of a race-free launch never touch the
//!   same bytes), while `AtomAdd` operands are *recorded* per block and
//!   applied to a private overlay so the block observes its own adds;
//! * after the join, the recorded operand logs are replayed against
//!   real device memory **in block-ID order** — precisely the sequence
//!   the serial interpreter would have produced, so even `f32`
//!   accumulation matches bit-for-bit.
//!
//! Blocks are handed out through a monotonic claim counter, so when a
//! block fails every lower-numbered block has already been claimed and
//! is allowed to finish; returning the lowest-numbered failing block's
//! error therefore reproduces the serial engine's first-error exactly.
//!
//! The guarantee covers launches that are race-free across blocks (all
//! shipped workloads): a kernel that plain-loads bytes plain-stored by a
//! *different* block mid-launch is scheduling-dependent on real
//! hardware, and is out of scope here too.

use crate::interp::{atom_add, SimError};
use crate::memory::{DeviceMemory, MemFault, OFFSET_BITS};
use crate::stats::KernelStats;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

/// Parse a sim-threads setting: `auto` (or empty) means one worker per
/// available CPU, otherwise a positive thread count.
pub(crate) fn parse_sim_threads(s: &str) -> Option<u32> {
    match s.trim() {
        "auto" | "" => Some(0),
        t => t.parse::<u32>().ok().filter(|n| *n >= 1),
    }
}

// ---------------------------------------------------------------------------
// Telemetry: what the last launch on this thread actually did
// ---------------------------------------------------------------------------

std::thread_local! {
    static LAST_PARALLEL: RefCell<Option<ParallelInfo>> = const { RefCell::new(None) };
}

/// How the most recent launch on this thread distributed its blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelInfo {
    /// Workers actually spawned (after clamping to the block count).
    pub threads: u32,
    /// Blocks executed by each worker, indexed by worker.
    pub per_worker_blocks: Vec<u64>,
}

impl ParallelInfo {
    /// Load-imbalance ratio: max per-worker blocks over the ideal even
    /// share. `1.0` is perfectly balanced.
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.per_worker_blocks.iter().sum();
        let max = self.per_worker_blocks.iter().copied().max().unwrap_or(0);
        if total == 0 || self.per_worker_blocks.is_empty() {
            return 1.0;
        }
        max as f64 / (total as f64 / self.per_worker_blocks.len() as f64)
    }
}

/// Worker-pool telemetry of the most recent launch on this thread, or
/// `None` if it ran serially.
pub fn last_parallel_info() -> Option<ParallelInfo> {
    LAST_PARALLEL.with(|c| c.borrow().clone())
}

pub(crate) fn clear_last_parallel_info() {
    LAST_PARALLEL.with(|c| *c.borrow_mut() = None);
}

fn set_last_parallel_info(info: ParallelInfo) {
    LAST_PARALLEL.with(|c| *c.borrow_mut() = Some(info));
}

// ---------------------------------------------------------------------------
// MemAccess: the engines' memory port, generic over serial / worker views
// ---------------------------------------------------------------------------

/// The memory operations an engine needs while executing a block. The
/// serial engines run against [`DeviceMemory`] directly (the impl below
/// monomorphizes to exactly the pre-existing code, and resolves a warp
/// access that stays in one buffer once); parallel workers run against a
/// [`WorkerMem`] view, lane by lane.
pub(crate) trait MemAccess {
    fn read(&mut self, addr: u64, bytes: u32) -> Result<u64, MemFault>;
    fn write(&mut self, addr: u64, bytes: u32, value: u64) -> Result<(), MemFault>;
    /// Atomic read-modify-write add (the only RMW in the ISA).
    fn atom_add(&mut self, ty: crate::vir::VType, addr: u64, bytes: u32, add: u64)
        -> Result<(), MemFault>;

    /// One lockstep load: `read` of each lane's address into `out`, in
    /// lane order, stopping at the first faulting lane.
    fn read_warp(&mut self, addrs: &[u64], bytes: u32, out: &mut [u64]) -> Result<(), MemFault> {
        for (o, &a) in out.iter_mut().zip(addrs) {
            *o = self.read(a, bytes)?;
        }
        Ok(())
    }

    /// One lockstep store: `write` of each lane's value, in lane order,
    /// stopping at the first faulting lane.
    fn write_warp(&mut self, addrs: &[u64], bytes: u32, vals: &[u64]) -> Result<(), MemFault> {
        for (&a, &v) in addrs.iter().zip(vals) {
            self.write(a, bytes, v)?;
        }
        Ok(())
    }
}

impl MemAccess for DeviceMemory {
    #[inline(always)]
    fn read(&mut self, addr: u64, bytes: u32) -> Result<u64, MemFault> {
        DeviceMemory::read(self, addr, bytes)
    }

    #[inline(always)]
    fn write(&mut self, addr: u64, bytes: u32, value: u64) -> Result<(), MemFault> {
        DeviceMemory::write(self, addr, bytes, value)
    }

    #[inline(always)]
    fn read_warp(&mut self, addrs: &[u64], bytes: u32, out: &mut [u64]) -> Result<(), MemFault> {
        DeviceMemory::read_warp(self, addrs, bytes, out)
    }

    #[inline(always)]
    fn write_warp(&mut self, addrs: &[u64], bytes: u32, vals: &[u64]) -> Result<(), MemFault> {
        DeviceMemory::write_warp(self, addrs, bytes, vals)
    }

    #[inline(always)]
    fn atom_add(
        &mut self,
        ty: crate::vir::VType,
        addr: u64,
        bytes: u32,
        add: u64,
    ) -> Result<(), MemFault> {
        // The exact read→add→write sequence the serial engines performed
        // inline before this trait existed.
        let old = DeviceMemory::read(self, addr, bytes)?;
        DeviceMemory::write(self, addr, bytes, atom_add(ty, old, add))
    }
}

// ---------------------------------------------------------------------------
// SharedMem / WorkerMem: the Send-able split of DeviceMemory
// ---------------------------------------------------------------------------

/// Device memory reinterpreted as shared atomic bytes so worker threads
/// can access it concurrently. Construction takes `&mut DeviceMemory`,
/// so no other (non-atomic) access can coexist with the view.
pub(crate) struct SharedMem<'a> {
    bufs: Vec<&'a [AtomicU8]>,
}

fn as_atomic_bytes(s: &mut [u8]) -> &[AtomicU8] {
    // Sound: AtomicU8 has the same size/alignment as u8, and the &mut
    // borrow guarantees exclusive provenance over the region for 'a.
    unsafe { &*(s as *mut [u8] as *const [AtomicU8]) }
}

impl<'a> SharedMem<'a> {
    pub(crate) fn new(mem: &'a mut DeviceMemory) -> Self {
        SharedMem {
            bufs: mem.buffers_mut().map(as_atomic_bytes).collect(),
        }
    }

    /// Address decode with the exact fault messages of
    /// `DeviceMemory::decode`, so parallel faults are byte-identical.
    fn decode(&self, addr: u64, bytes: u32) -> Result<(usize, usize), MemFault> {
        let buf = (addr >> OFFSET_BITS) as usize;
        let off = (addr & ((1u64 << OFFSET_BITS) - 1)) as usize;
        if buf == 0 || buf > self.bufs.len() {
            return Err(MemFault { addr, bytes, message: "unmapped address".into() });
        }
        let b = buf - 1;
        if off + bytes as usize > self.bufs[b].len() {
            return Err(MemFault {
                addr,
                bytes,
                message: format!(
                    "out of bounds: offset {off} + {bytes} > buffer size {}",
                    self.bufs[b].len()
                ),
            });
        }
        Ok((b, off))
    }

    fn load(&self, addr: u64, bytes: u32) -> Result<u64, MemFault> {
        let (b, off) = self.decode(addr, bytes)?;
        let buf = self.bufs[b];
        let mut v = 0u64;
        for i in 0..bytes as usize {
            v |= (buf[off + i].load(Ordering::Relaxed) as u64) << (8 * i);
        }
        Ok(v)
    }

    fn store(&self, addr: u64, bytes: u32, value: u64) -> Result<(), MemFault> {
        let (b, off) = self.decode(addr, bytes)?;
        let buf = self.bufs[b];
        for i in 0..bytes as usize {
            buf[off + i].store((value >> (8 * i)) as u8, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// One deferred read-modify-write (or a plain store ordered after one),
/// recorded during parallel block execution and replayed in block-ID
/// order after the join.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum DeferredOp {
    /// An `AtomAdd` — the *operand* is recorded, not the result, so the
    /// replay compounds across blocks exactly as serial execution did.
    Atom { ty: crate::vir::VType, addr: u64, bytes: u32, add: u64 },
    /// A plain store that touched bytes this block had already
    /// atomically updated; kept in the log to preserve program order.
    Store { addr: u64, bytes: u32, value: u64 },
}

/// One worker's view of device memory: pass-through for plain accesses,
/// a private overlay plus an operand log for atomics.
pub(crate) struct WorkerMem<'a, 'sh> {
    shared: &'sh SharedMem<'a>,
    /// Byte address → this block's pending value for that byte.
    overlay: HashMap<u64, u8>,
    log: Vec<DeferredOp>,
    /// Inclusive address range covered by `overlay` (fast rejection).
    lo: u64,
    hi: u64,
}

impl<'a, 'sh> WorkerMem<'a, 'sh> {
    pub(crate) fn new(shared: &'sh SharedMem<'a>) -> Self {
        WorkerMem { shared, overlay: HashMap::new(), log: Vec::new(), lo: u64::MAX, hi: 0 }
    }

    fn overlay_may_cover(&self, addr: u64, bytes: u32) -> bool {
        !self.overlay.is_empty() && addr <= self.hi && addr + bytes as u64 > self.lo
    }

    fn put_overlay(&mut self, addr: u64, bytes: u32, value: u64) {
        for i in 0..bytes as u64 {
            self.overlay.insert(addr + i, (value >> (8 * i)) as u8);
        }
        self.lo = self.lo.min(addr);
        self.hi = self.hi.max(addr + bytes as u64 - 1);
    }

    /// Drain this block's deferred operations (and reset the overlay)
    /// for the post-join ordered replay.
    pub(crate) fn take_deferred(&mut self) -> Vec<DeferredOp> {
        self.overlay.clear();
        self.lo = u64::MAX;
        self.hi = 0;
        std::mem::take(&mut self.log)
    }
}

impl MemAccess for WorkerMem<'_, '_> {
    fn read(&mut self, addr: u64, bytes: u32) -> Result<u64, MemFault> {
        let mut v = self.shared.load(addr, bytes)?;
        if self.overlay_may_cover(addr, bytes) {
            for i in 0..bytes as u64 {
                if let Some(&b) = self.overlay.get(&(addr + i)) {
                    v = (v & !(0xFFu64 << (8 * i))) | ((b as u64) << (8 * i));
                }
            }
        }
        Ok(v)
    }

    fn write(&mut self, addr: u64, bytes: u32, value: u64) -> Result<(), MemFault> {
        let deferred = self.overlay_may_cover(addr, bytes)
            && (0..bytes as u64).any(|i| self.overlay.contains_key(&(addr + i)));
        if deferred {
            // Ordered after this block's pending atomics on those bytes:
            // keep it in the log so the replay preserves program order.
            self.shared.decode(addr, bytes)?;
            self.log.push(DeferredOp::Store { addr, bytes, value });
            self.put_overlay(addr, bytes, value);
            Ok(())
        } else {
            self.shared.store(addr, bytes, value)
        }
    }

    fn atom_add(
        &mut self,
        ty: crate::vir::VType,
        addr: u64,
        bytes: u32,
        add: u64,
    ) -> Result<(), MemFault> {
        // Apply to the private overlay so the block observes its own
        // adds; record the operand for the ordered replay.
        let old = self.read(addr, bytes)?;
        self.put_overlay(addr, bytes, atom_add(ty, old, add));
        self.log.push(DeferredOp::Atom { ty, addr, bytes, add });
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------------

/// Sets the abort flag if its worker unwinds, so sibling workers stop
/// claiming blocks instead of racing a poisoned launch.
struct AbortOnPanic<'f>(&'f AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

fn apply_deferred(mem: &mut DeviceMemory, op: &DeferredOp) -> Result<(), MemFault> {
    match *op {
        DeferredOp::Atom { ty, addr, bytes, add } => {
            let old = mem.read(addr, bytes)?;
            mem.write(addr, bytes, atom_add(ty, old, add))
        }
        DeferredOp::Store { addr, bytes, value } => mem.write(addr, bytes, value),
    }
}

/// Execute blocks `first_block .. first_block + n_blocks` across a
/// scoped worker pool and perform the deterministic merge.
///
/// `make_state` builds one worker's private scratch (register file, warp
/// merge buffers, counters); `exec` runs one block against a
/// [`WorkerMem`] view and returns the block's stats delta. Returns the
/// summed stats and every worker's final scratch (in worker order, for
/// engine-specific counter flushes).
///
/// Determinism: stats are summed and deferred atomics replayed in
/// block-ID order; on failure the lowest-numbered failing block's error
/// is returned, which the monotonic claim counter makes identical to
/// serial execution's first error.
pub(crate) fn run_blocks_parallel<S, G, E>(
    mem: &mut DeviceMemory,
    first_block: u64,
    n_blocks: u64,
    threads: usize,
    make_state: G,
    exec: E,
) -> Result<(KernelStats, Vec<S>), SimError>
where
    S: Send,
    G: Fn(usize) -> S + Sync,
    E: for<'a, 'sh> Fn(u64, &mut S, &mut WorkerMem<'a, 'sh>) -> Result<KernelStats, SimError>
        + Sync,
{
    type BlockOutcome = (u64, Result<(KernelStats, Vec<DeferredOp>), SimError>);

    let nworkers = threads.min(n_blocks.max(1) as usize).max(1);
    let next = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    let mut outcomes: Vec<BlockOutcome> = Vec::with_capacity(n_blocks as usize);
    let mut states: Vec<(usize, S)> = Vec::with_capacity(nworkers);
    let mut per_worker = vec![0u64; nworkers];
    {
        let shared = SharedMem::new(mem);
        let shared = &shared;
        let joined = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..nworkers)
                .map(|wi| {
                    let (next, abort) = (&next, &abort);
                    let (make_state, exec) = (&make_state, &exec);
                    scope.spawn(move || {
                        let _guard = AbortOnPanic(abort);
                        let mut state = make_state(wi);
                        let mut wm = WorkerMem::new(shared);
                        let mut out: Vec<BlockOutcome> = Vec::new();
                        while !abort.load(Ordering::Relaxed) {
                            // Monotonic claims: when block b fails, every
                            // block below b is already claimed and will
                            // complete — the basis of first-error parity.
                            let b = next.fetch_add(1, Ordering::Relaxed);
                            if b >= n_blocks {
                                break;
                            }
                            match exec(first_block + b, &mut state, &mut wm) {
                                Ok(stats) => {
                                    out.push((first_block + b, Ok((stats, wm.take_deferred()))));
                                }
                                Err(e) => {
                                    wm.take_deferred();
                                    abort.store(true, Ordering::Relaxed);
                                    out.push((first_block + b, Err(e)));
                                    break;
                                }
                            }
                        }
                        (wi, state, out)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        });
        let mut panic_payload = None;
        for j in joined {
            match j {
                Ok((wi, state, out)) => {
                    per_worker[wi] = out.len() as u64;
                    states.push((wi, state));
                    outcomes.extend(out);
                }
                Err(p) => {
                    panic_payload.get_or_insert(p);
                }
            };
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
    }
    set_last_parallel_info(ParallelInfo {
        threads: nworkers as u32,
        per_worker_blocks: per_worker,
    });

    outcomes.sort_by_key(|(b, _)| *b);
    // Lowest failing block wins — the block serial execution would have
    // failed on first. The post-error memory state is unobservable (the
    // pipeline aborts before any download and errors are never cached),
    // so the replay is skipped.
    for (_, r) in &outcomes {
        if let Err(e) = r {
            return Err(e.clone());
        }
    }
    let mut stats = KernelStats::default();
    for (_, r) in outcomes {
        let (block_stats, deferred) = r.expect("errors returned above");
        stats.merge(&block_stats);
        for op in &deferred {
            apply_deferred(mem, op)?;
        }
    }
    states.sort_by_key(|(wi, _)| *wi);
    Ok((stats, states.into_iter().map(|(_, s)| s).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vir::VType;

    fn mem_with_f32(vals: &[f32]) -> (DeviceMemory, u64) {
        let mut mem = DeviceMemory::new();
        let id = mem.alloc(vals.len() * 4);
        mem.copy_in_f32(id, vals);
        let base = mem.base_addr(id);
        (mem, base)
    }

    #[test]
    fn device_memory_atom_matches_read_modify_write() {
        let (mut mem, base) = mem_with_f32(&[1.5]);
        MemAccess::atom_add(&mut mem, VType::F32, base, 4, 2.25f32.to_bits() as u64).unwrap();
        assert_eq!(mem.copy_out_f32(crate::memory::BufferId(0)), vec![3.75]);
    }

    #[test]
    fn worker_mem_observes_its_own_atomics() {
        let (mut mem, base) = mem_with_f32(&[1.0, 10.0]);
        {
            let shared = SharedMem::new(&mut mem);
            let mut wm = WorkerMem::new(&shared);
            wm.atom_add(VType::F32, base, 4, 2.0f32.to_bits() as u64).unwrap();
            wm.atom_add(VType::F32, base, 4, 0.5f32.to_bits() as u64).unwrap();
            // Read-your-own-adds through the overlay...
            assert_eq!(f32::from_bits(wm.read(base, 4).unwrap() as u32), 3.5);
            // ...but the shared bytes still hold the initial value, and a
            // non-overlapping plain store goes straight through.
            wm.write(base + 4, 4, 20.0f32.to_bits() as u64).unwrap();
            assert_eq!(wm.take_deferred().len(), 2);
        }
        assert_eq!(mem.copy_out_f32(crate::memory::BufferId(0)), vec![1.0, 20.0]);
    }

    #[test]
    fn store_after_atom_defers_and_replays_in_order() {
        let (mut mem, base) = mem_with_f32(&[1.0]);
        let ops = {
            let shared = SharedMem::new(&mut mem);
            let mut wm = WorkerMem::new(&shared);
            wm.atom_add(VType::F32, base, 4, 2.0f32.to_bits() as u64).unwrap();
            wm.write(base, 4, 7.0f32.to_bits() as u64).unwrap();
            wm.atom_add(VType::F32, base, 4, 1.0f32.to_bits() as u64).unwrap();
            assert_eq!(f32::from_bits(wm.read(base, 4).unwrap() as u32), 8.0);
            wm.take_deferred()
        };
        assert_eq!(ops.len(), 3);
        for op in &ops {
            apply_deferred(&mut mem, op).unwrap();
        }
        assert_eq!(mem.copy_out_f32(crate::memory::BufferId(0)), vec![8.0]);
    }

    #[test]
    fn worker_mem_faults_match_device_memory() {
        let (mut mem, base) = mem_with_f32(&[0.0; 4]);
        let direct = DeviceMemory::read(&mem, base + 14, 4).unwrap_err();
        let unmapped = DeviceMemory::read(&mem, 0, 4).unwrap_err();
        let shared = SharedMem::new(&mut mem);
        let mut wm = WorkerMem::new(&shared);
        assert_eq!(wm.read(base + 14, 4).unwrap_err(), direct);
        assert_eq!(wm.read(0, 4).unwrap_err(), unmapped);
        assert_eq!(wm.write(base + 14, 4, 0).unwrap_err(), direct);
        assert_eq!(wm.atom_add(VType::B32, base + 14, 4, 1).unwrap_err(), direct);
    }

    /// The heart of the determinism claim: many blocks atomically adding
    /// f32 values merge to exactly the serial left-to-right sum, for any
    /// worker count.
    #[test]
    fn parallel_f32_atomics_replay_bitwise_serial() {
        let n_blocks = 64u64;
        let adds: Vec<f32> = (0..n_blocks).map(|b| 1.0 + (b as f32) * 0.3337).collect();
        // Serial ground truth: strictly ordered accumulation.
        let mut serial = 0.123f32;
        for a in &adds {
            serial += *a;
        }
        for threads in [1usize, 2, 3, 8] {
            let (mut mem, base) = mem_with_f32(&[0.123]);
            let adds = &adds;
            let (stats, _states) = run_blocks_parallel(
                &mut mem,
                0,
                n_blocks,
                threads,
                |_wi| (),
                move |b, _state, wm| {
                    wm.atom_add(VType::F32, base, 4, adds[b as usize].to_bits() as u64)?;
                    Ok(KernelStats { atomics: 1, ..Default::default() })
                },
            )
            .unwrap();
            assert_eq!(stats.atomics, n_blocks);
            let out = mem.copy_out_f32(crate::memory::BufferId(0));
            assert_eq!(
                out[0].to_bits(),
                serial.to_bits(),
                "threads={threads}: parallel atomic merge diverged from serial"
            );
        }
    }

    #[test]
    fn lowest_failing_block_error_wins() {
        let (mut mem, base) = mem_with_f32(&[0.0; 8]);
        let err = run_blocks_parallel(
            &mut mem,
            0,
            16,
            4,
            |_wi| (),
            move |b, _state, wm| {
                if b == 3 || b == 11 {
                    // Out-of-bounds fault; block 3 must win over block 11.
                    wm.read(base + 100 + b, 4)?;
                }
                Ok(KernelStats::default())
            },
        )
        .unwrap_err();
        match err {
            SimError::Fault(f) => assert_eq!(f.addr, base + 103),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let (mut mem, _base) = mem_with_f32(&[0.0]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_blocks_parallel(
                &mut mem,
                0,
                32,
                4,
                |_wi| (),
                |b, _state: &mut (), _wm| {
                    if b == 5 {
                        panic!("injected worker panic");
                    }
                    Ok(KernelStats::default())
                },
            );
        }));
        assert!(r.is_err(), "worker panic must resurface on the launching thread");
        // The pool is fully torn down: a fresh launch over the same
        // memory works.
        let (stats, _) = run_blocks_parallel(
            &mut mem,
            0,
            4,
            2,
            |_wi| (),
            |_b, _state: &mut (), _wm| Ok(KernelStats { threads: 1, ..Default::default() }),
        )
        .unwrap();
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn telemetry_records_threads_and_block_shares() {
        let (mut mem, _base) = mem_with_f32(&[0.0]);
        let (_stats, _) = run_blocks_parallel(
            &mut mem,
            0,
            10,
            3,
            |_wi| (),
            |_b, _state: &mut (), _wm| Ok(KernelStats::default()),
        )
        .unwrap();
        let info = last_parallel_info().expect("parallel launch records info");
        assert_eq!(info.threads, 3);
        assert_eq!(info.per_worker_blocks.iter().sum::<u64>(), 10);
        assert!(info.imbalance() >= 1.0);
    }

    #[test]
    fn sim_threads_parse_and_scopes() {
        use crate::{current_sim_threads, ExecOptions};
        assert_eq!(parse_sim_threads("auto"), Some(0));
        assert_eq!(parse_sim_threads(" 4 "), Some(4));
        assert_eq!(parse_sim_threads("0"), None);
        assert_eq!(parse_sim_threads("lots"), None);
        let outer = current_sim_threads();
        assert!(outer >= 1);
        ExecOptions::inherit().sim_threads(5).scope(|| {
            assert_eq!(current_sim_threads(), 5);
            // The innermost scope wins, and `0` expands to one per CPU.
            ExecOptions::inherit().sim_threads(2).scope(|| assert_eq!(current_sim_threads(), 2));
            ExecOptions::inherit().sim_threads(0).scope(|| {
                let auto = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);
                assert_eq!(current_sim_threads(), auto);
            });
            assert_eq!(current_sim_threads(), 5);
        });
        assert_eq!(current_sim_threads(), outer);
    }
}
