//! Content-hash launch memoization.
//!
//! A kernel launch is a pure function of (VIR, spill set, launch
//! configuration, parameter values, input buffer contents): the
//! interpreter has no hidden state and no randomness. That makes every
//! launch memoizable by *content* — the cache key is a 128-bit
//! [`ContentKey`] over exactly the inputs the interpreter reads, taken
//! field by field and bit by bit (never from how a value prints), so a
//! cached entry can never go stale: change anything the simulation
//! depends on and the key changes with it.
//!
//! Buffer contents enter the launch key through one [`ContentKey`] per
//! buffer, which lives in the buffer's [`SharedBytes`] allocation. A
//! byte is therefore hashed once per allocation, not once per launch
//! that could read it: an entry's snapshots are the very allocations
//! the recording launch left behind, keyed as they are recorded; a
//! replay installs them, keys and all; and host arrays handed in again
//! (a clone of already-run arguments, a server request keyed on
//! arrival) come with their keys. `bytes_hashed` counts it exactly.
//!
//! Nothing here copies a buffer. A miss holds the launch's inputs by
//! handle; a buffer the kernel stores to has taken a copy of its own
//! (see [`crate::memory`]), so "written" is "no longer the same
//! allocation". On a cache hit [`launch_cached`] replays the launch
//! without running the interpreter: it installs the recorded
//! post-launch allocation of every buffer the kernel mutated and
//! returns the recorded [`KernelStats`] — byte-for-byte and
//! count-for-count identical to re-executing. The cache lives in memory
//! and dies with its owner.

use crate::content::{ContentHasher, ContentKey};
use crate::interp::{launch, LaunchConfig, LaunchResult, ParamVal, SimError};
use crate::memory::{BufferId, DeviceMemory};
use crate::shared::SharedBytes;
use crate::stats::KernelStats;
use crate::vir::{KernelVir, VReg};
use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, OnceLock};

/// A kernel as the memo keys it: its VIR, and the content key of that
/// VIR (every instruction, operand and type, field by field).
pub trait MemoKernel {
    /// The instruction stream a launch runs.
    fn vir(&self) -> &KernelVir;
    /// The content key of [`MemoKernel::vir`].
    fn vir_key(&self) -> ContentKey;
}

/// A bare VIR is keyed on the spot, every time.
impl MemoKernel for KernelVir {
    fn vir(&self) -> &KernelVir {
        self
    }

    fn vir_key(&self) -> ContentKey {
        let mut h = ContentHasher::default();
        h.value(self);
        h.key()
    }
}

/// The content key of the VIR it sits beside, hashed at its first
/// memoized launch and read by every launch after — so a compiled
/// kernel's instructions are hashed once, not once per launch, and
/// never at compile time.
///
/// It is no part of what it sits in: every two cells are equal, and a
/// clone starts empty (a copy may yet be edited; it keys itself).
#[derive(Default)]
pub struct VirKeyCell(OnceLock<ContentKey>);

impl VirKeyCell {
    /// The key of `vir`, which must be the VIR this cell sits beside.
    pub fn get(&self, vir: &KernelVir) -> ContentKey {
        *self.0.get_or_init(|| vir.vir_key())
    }
}

impl Clone for VirKeyCell {
    fn clone(&self) -> Self {
        VirKeyCell::default()
    }
}

impl PartialEq for VirKeyCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Compute the content key for one launch.
///
/// Folds the kernel's VIR key ([`MemoKernel::vir_key`]), then hashes
/// the spill set, the launch geometry and the parameter values through
/// their `Hash` impls — floats by bit pattern — and then device memory
/// as the buffer count and each buffer's length and content key. A pure
/// function of the arguments' contents: a key `mem` or the kernel
/// already carries and one hashed here on the spot (which `mem` then
/// carries) are the same value.
pub fn launch_key(
    kernel: &impl MemoKernel,
    config: &LaunchConfig,
    params: &[ParamVal],
    mem: &DeviceMemory,
    spilled: &[VReg],
) -> ContentKey {
    let mut h = ContentHasher::default();
    h.value(&(kernel.vir_key(), spilled, config, params));
    h.word(mem.buffer_count() as u64);
    for i in 0..mem.buffer_count() {
        h.word(mem.buffer_bytes(i).len() as u64);
        h.value(&mem.buffer_key(i));
    }
    h.key()
}

/// The post-launch state of one buffer a kernel wrote: its index, its
/// allocation (shared with the device buffers and host arrays it is
/// installed into), and the content key recorded for it. Nothing writes
/// a shared allocation, so the key stays the key of the bytes.
type Snapshot = (u32, SharedBytes, ContentKey);

/// Recorded outcome of one launch: the stats plus the post-launch
/// contents of every buffer the kernel wrote.
#[derive(Debug, Clone, PartialEq)]
struct CachedLaunch {
    stats: KernelStats,
    /// One snapshot per mutated buffer.
    writes: Vec<Snapshot>,
}

/// Default [`LaunchCache`] entry cap: far above any one benchmark run,
/// but a hard bound so a long-lived process (the server) cannot grow the
/// cache — whose entries hold full buffer snapshots — without limit.
pub const DEFAULT_ENTRY_CAP: usize = 4096;

/// Default [`SharedLaunchCache`] shard count.
pub const DEFAULT_SHARDS: usize = 16;

/// Memoization cache for kernel launches.
///
/// The cache is bounded: once it holds its entry cap
/// ([`LaunchCache::with_entry_cap`]) of entries, inserting a new one
/// evicts the oldest (first-inserted) entry.
#[derive(Debug)]
pub struct LaunchCache {
    entries: HashMap<ContentKey, CachedLaunch>,
    /// Keys in insertion order (front = oldest), for capped eviction.
    order: VecDeque<ContentKey>,
    cap: usize,
    /// Launches answered from the cache.
    pub hits: u64,
    /// Launches that ran the interpreter (and populated the cache).
    pub misses: u64,
    /// Entries dropped by the cap (oldest-first).
    pub evictions: u64,
    /// Buffer bytes fed to content-key hashing by launches through this
    /// cache: each uploaded, seeded or kernel-written byte once, however
    /// many launches follow it.
    pub bytes_hashed: u64,
}

impl Default for LaunchCache {
    fn default() -> Self {
        LaunchCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: DEFAULT_ENTRY_CAP,
            hits: 0,
            misses: 0,
            evictions: 0,
            bytes_hashed: 0,
        }
    }
}

impl LaunchCache {
    /// An empty in-memory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the entry cap (minimum 1). Inserting past the cap evicts the
    /// oldest entry.
    pub fn with_entry_cap(mut self, cap: usize) -> Self {
        self.cap = cap.max(1);
        self.enforce_cap();
        self
    }

    /// Number of cached launches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replay the entry for `key` into `mem`, if present: installs the
    /// recorded post-launch allocations (keys included) and returns the
    /// recorded stats, bumping the hit counter.
    fn replay(&mut self, key: ContentKey, mem: &mut DeviceMemory) -> Option<LaunchResult> {
        let entry = self.entries.get(&key)?;
        for (idx, bytes, _) in &entry.writes {
            mem.install(*idx as usize, bytes.clone());
        }
        self.hits += 1;
        Some(LaunchResult { stats: entry.stats })
    }

    /// Insert (or overwrite) an entry, evicting oldest-first past the cap.
    ///
    /// An overwrite refreshes the key's FIFO position: the entry's
    /// contents are as new as a fresh insert, so leaving it at its old
    /// slot would let the cap evict a just-rewritten entry as "oldest".
    fn insert_entry(&mut self, key: ContentKey, entry: CachedLaunch) {
        if self.entries.insert(key, entry).is_some() {
            if let Some(pos) = self.order.iter().position(|&k| k == key) {
                self.order.remove(pos);
            }
        }
        self.order.push_back(key);
        self.enforce_cap();
    }

    fn enforce_cap(&mut self) {
        while self.entries.len() > self.cap {
            let Some(oldest) = self.order.pop_front() else { break };
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
    }
}

/// [`launch`] with memoization: on a content-hash hit the recorded
/// buffer writes are replayed and the recorded stats returned without
/// running the interpreter; on a miss the interpreter runs and its
/// outcome is recorded.
///
/// Errors are never cached — a faulting launch reaches the interpreter
/// every time.
pub fn launch_cached(
    cache: &mut LaunchCache,
    kernel: &impl MemoKernel,
    config: &LaunchConfig,
    params: &[ParamVal],
    mem: &mut DeviceMemory,
    spilled: &[VReg],
) -> Result<LaunchResult, SimError> {
    let hashed_before = mem.bytes_hashed();
    let inputs = mem.share_all();
    let key = launch_key(kernel, config, params, mem, spilled);
    let result = match cache.replay(key, mem) {
        Some(result) => Ok(result),
        None => {
            cache.misses += 1;
            let ran = run_and_record(kernel.vir(), config, params, mem, spilled, inputs);
            ran.map(|(result, entry)| {
                cache.insert_entry(key, entry);
                result
            })
        }
    };
    cache.bytes_hashed += mem.bytes_hashed() - hashed_before;
    result
}

/// Run the interpreter and capture the outcome as a cache entry (stats
/// plus the post-launch allocation and key of every buffer the kernel
/// mutated). `inputs` are the buffers going in, by handle and keyed by
/// [`launch_key`]. A buffer still holding its input allocation was not
/// stored to; one the kernel stored to but left byte-equal gets its
/// input allocation, and so its key, back.
fn run_and_record(
    kernel: &KernelVir,
    config: &LaunchConfig,
    params: &[ParamVal],
    mem: &mut DeviceMemory,
    spilled: &[VReg],
    inputs: Vec<SharedBytes>,
) -> Result<(LaunchResult, CachedLaunch), SimError> {
    let result = launch(kernel, config, params, mem, spilled)?;
    let mut writes = Vec::new();
    for (i, input) in inputs.into_iter().enumerate() {
        let now = mem.share(BufferId(i as u32));
        if SharedBytes::ptr_eq(&now, &input) {
            continue;
        }
        if now == input {
            mem.install(i, input);
        } else {
            writes.push((i as u32, now, mem.buffer_key(i)));
        }
    }
    let stats = result.stats;
    Ok((result, CachedLaunch { stats, writes }))
}

/// A [`LaunchCache`] shareable between threads, sharded by content-hash
/// so concurrent lookups on different keys rarely contend.
///
/// Each shard is an independent capped `LaunchCache` behind its own
/// mutex. A lookup locks only its shard; on a miss the interpreter runs
/// *outside* the lock (simulation dominates, often by milliseconds), and
/// the result is inserted afterwards. Two threads missing on the same
/// key may both simulate — the launch is pure, so both compute the same
/// entry and both count as misses: `hits() + misses()` always equals the
/// number of launches submitted.
#[derive(Debug)]
pub struct SharedLaunchCache {
    /// Power-of-two shard set; a key's low bits (post-avalanche, so
    /// uniformly spread) select its shard.
    shards: Vec<Mutex<LaunchCache>>,
    mask: u64,
    /// Shard-lock acquisitions that found the lock already held.
    contention: std::sync::atomic::AtomicU64,
}

impl Default for SharedLaunchCache {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl SharedLaunchCache {
    /// A shared cache with `nshards` shards (rounded up to a power of
    /// two) and the default total entry cap.
    pub fn new(nshards: usize) -> Self {
        Self::with_entry_cap(nshards, DEFAULT_ENTRY_CAP)
    }

    /// A shared cache capping *total* entries at roughly `cap`
    /// (distributed evenly across shards, at least one per shard).
    pub fn with_entry_cap(nshards: usize, cap: usize) -> Self {
        let n = nshards.max(1).next_power_of_two();
        let per_shard = (cap / n).max(1);
        SharedLaunchCache {
            shards: (0..n)
                .map(|_| Mutex::new(LaunchCache::new().with_entry_cap(per_shard)))
                .collect(),
            mask: (n - 1) as u64,
            contention: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn shard(&self, key: ContentKey) -> &Mutex<LaunchCache> {
        &self.shards[(key.low() & self.mask) as usize]
    }

    fn lock<'a>(&self, m: &'a Mutex<LaunchCache>) -> std::sync::MutexGuard<'a, LaunchCache> {
        use std::sync::atomic::Ordering;
        // Try-first so contended acquisitions are observable: a failed
        // try_lock means another thread holds this shard right now.
        // A panic while holding the lock leaves a consistent cache (the
        // entry map is only touched through replay/insert), so poisoning
        // is safe to bypass.
        match m.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                m.lock().unwrap_or_else(|p| p.into_inner())
            }
        }
    }

    /// Launches answered from the cache, across all shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| self.lock(s).hits).sum()
    }

    /// Launches that ran the interpreter, across all shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| self.lock(s).misses).sum()
    }

    /// Buffer bytes fed to content-key hashing, across all shards (see
    /// [`LaunchCache::bytes_hashed`]).
    pub fn bytes_hashed(&self) -> u64 {
        self.shards.iter().map(|s| self.lock(s).bytes_hashed).sum()
    }

    /// Entries dropped by the per-shard caps, across all shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| self.lock(s).evictions).sum()
    }

    /// Shard-lock acquisitions that had to wait for another thread.
    pub fn contention(&self) -> u64 {
        self.contention.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total cached launches across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).len()).sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`launch_cached`] against the shared cache. Only the owning shard
    /// is locked, and never while the interpreter runs.
    pub fn launch_cached(
        &self,
        kernel: &impl MemoKernel,
        config: &LaunchConfig,
        params: &[ParamVal],
        mem: &mut DeviceMemory,
        spilled: &[VReg],
    ) -> Result<LaunchResult, SimError> {
        self.launch_cached_info(kernel, config, params, mem, spilled).map(|(r, _)| r)
    }

    /// [`SharedLaunchCache::launch_cached`], also reporting whether the
    /// launch was answered from the cache (`true` = hit) — per-launch
    /// information the aggregate hit/miss counters cannot give a tracer.
    pub fn launch_cached_info(
        &self,
        kernel: &impl MemoKernel,
        config: &LaunchConfig,
        params: &[ParamVal],
        mem: &mut DeviceMemory,
        spilled: &[VReg],
    ) -> Result<(LaunchResult, bool), SimError> {
        let hashed_before = mem.bytes_hashed();
        let inputs = mem.share_all();
        let key = launch_key(kernel, config, params, mem, spilled);
        let shard = self.shard(key);
        {
            let mut c = self.lock(shard);
            if let Some(result) = c.replay(key, mem) {
                c.bytes_hashed += mem.bytes_hashed() - hashed_before;
                return Ok((result, true));
            }
        }
        let ran = run_and_record(kernel.vir(), config, params, mem, spilled, inputs);
        let mut c = self.lock(shard);
        // Errors are never cached, but still count as misses so the
        // counters account for every submitted launch.
        c.misses += 1;
        c.bytes_hashed += mem.bytes_hashed() - hashed_before;
        ran.map(|(result, entry)| {
            c.insert_entry(key, entry);
            (result, false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::bytes_key;
    use crate::vir::{Inst, MemSpace, Operand, ParamDecl, SpecialReg, VType};

    /// out[tid] = a[tid] + 1.0f
    fn add_one_kernel() -> KernelVir {
        use crate::vir::AluOp;
        KernelVir {
            name: "add_one".into(),
            params: vec![ParamDecl::Ptr, ParamDecl::Ptr],
            vregs: vec![VType::B32, VType::B64, VType::B64, VType::F32, VType::B64, VType::F32],
            insts: vec![
                Inst::Special { d: VReg(0), r: SpecialReg::Tid(0) },
                Inst::Cvt { dty: VType::B64, d: VReg(1), aty: VType::B32, a: Operand::Reg(VReg(0)) },
                Inst::Alu {
                    op: AluOp::Mul,
                    ty: VType::B64,
                    d: VReg(1),
                    a: Operand::Reg(VReg(1)),
                    b: Operand::ImmI(4),
                },
                Inst::LdParam { ty: VType::B64, d: VReg(2), index: 0 },
                Inst::Alu {
                    op: AluOp::Add,
                    ty: VType::B64,
                    d: VReg(2),
                    a: Operand::Reg(VReg(2)),
                    b: Operand::Reg(VReg(1)),
                },
                Inst::Ld { space: MemSpace::Global, ty: VType::F32, d: VReg(3), addr: VReg(2) },
                Inst::Alu {
                    op: AluOp::Add,
                    ty: VType::F32,
                    d: VReg(3),
                    a: Operand::Reg(VReg(3)),
                    b: Operand::ImmF(1.0),
                },
                Inst::LdParam { ty: VType::B64, d: VReg(4), index: 1 },
                Inst::Alu {
                    op: AluOp::Add,
                    ty: VType::B64,
                    d: VReg(4),
                    a: Operand::Reg(VReg(4)),
                    b: Operand::Reg(VReg(1)),
                },
                Inst::St { space: MemSpace::Global, ty: VType::F32, addr: VReg(4), a: Operand::Reg(VReg(3)) },
                Inst::Ret,
            ],
        }
    }

    fn setup() -> (DeviceMemory, Vec<ParamVal>, LaunchConfig) {
        let mut mem = DeviceMemory::new();
        let a = mem.alloc(32 * 4);
        let out = mem.alloc(32 * 4);
        let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
        mem.copy_in_f32(a, &data);
        let params = vec![ParamVal::Ptr(mem.base_addr(a)), ParamVal::Ptr(mem.base_addr(out))];
        let config = LaunchConfig::d1(1, 32);
        (mem, params, config)
    }

    #[test]
    fn hit_replays_identical_memory_and_stats() {
        let k = add_one_kernel();
        let mut cache = LaunchCache::new();

        let (mut mem1, params, config) = setup();
        let r1 = launch_cached(&mut cache, &k, &config, &params, &mut mem1, &[]).unwrap();
        assert_eq!((cache.hits, cache.misses), (0, 1));

        let (mut mem2, params2, config2) = setup();
        let r2 = launch_cached(&mut cache, &k, &config2, &params2, &mut mem2, &[]).unwrap();
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert_eq!(r1.stats, r2.stats);
        for i in 0..mem1.buffer_count() {
            assert_eq!(mem1.buffer_bytes(i), mem2.buffer_bytes(i), "buffer {i}");
        }
    }

    #[test]
    fn a_replayed_snapshot_is_never_written_through() {
        // The premise replay rests on: a snapshot is an allocation no one
        // writes. A replay hands it to the memory it replays into, and
        // every way to write that memory — a word, a host copy, a
        // kernel's stores — copies first. So a later replay still
        // installs the first launch's bytes, and every snapshot still
        // hashes to the key it was recorded with.
        let k = add_one_kernel();
        let out = BufferId(1);
        let mut cache = LaunchCache::new();
        let (mut first, params, config) = setup();
        launch_cached(&mut cache, &k, &config, &params, &mut first, &[]).unwrap();
        let want = first.copy_out(out);
        for how in ["write", "copy_in", "launch"] {
            let (mut replayed, ..) = setup();
            launch_cached(&mut cache, &k, &config, &params, &mut replayed, &[]).unwrap();
            match how {
                "write" => replayed.write(replayed.base_addr(out), 4, 7).unwrap(),
                "copy_in" => replayed.copy_in(out, &[0xab; 32 * 4]),
                // out aliases itself: the kernel stores out + 1 over the snapshot.
                _ => {
                    let params = [params[1], params[1]];
                    launch_cached(&mut cache, &k, &config, &params, &mut replayed, &[]).unwrap();
                }
            }
            assert_ne!(replayed.copy_out(out), want, "{how}: the write took");
            let (mut third, ..) = setup();
            launch_cached(&mut cache, &k, &config, &params, &mut third, &[]).unwrap();
            assert_eq!(third.copy_out(out), want, "{how}: a later replay");
            for (_, bytes, key) in cache.entries.values().flat_map(|e| &e.writes) {
                assert_eq!(bytes_key(bytes), *key, "{how}: a snapshot left its key");
            }
        }
        assert_eq!((cache.hits, cache.misses), (6, 2));
        assert_eq!(first.copy_out(out), want, "the recording memory keeps its bytes");
    }

    /// A compiled kernel's shape: a VIR with its key cell beside it.
    struct Compiled {
        vir: KernelVir,
        key: VirKeyCell,
    }

    impl MemoKernel for Compiled {
        fn vir(&self) -> &KernelVir {
            &self.vir
        }

        fn vir_key(&self) -> ContentKey {
            self.key.get(&self.vir)
        }
    }

    #[test]
    fn a_kernel_keyed_at_its_first_memoized_launch_keys_as_its_bare_vir() {
        let k = Compiled { vir: add_one_kernel(), key: VirKeyCell::default() };
        assert_eq!(k.key.0.get(), None, "nothing hashed before a launch asks");
        let (mut mem, params, config) = setup();
        let mut cache = LaunchCache::new();
        let ran = launch_cached(&mut cache, &k, &config, &params, &mut mem, &[]).unwrap();
        assert_eq!(k.key.0.get(), Some(&k.vir.vir_key()), "hashed at the first memoized launch");
        let bare = launch_key(&k.vir, &config, &params, &mem, &[]);
        assert_eq!(launch_key(&k, &config, &params, &mem, &[]), bare);
        let (mut bare_mem, ..) = setup();
        let hit = launch_cached(&mut cache, &k.vir, &config, &params, &mut bare_mem, &[]).unwrap();
        assert_eq!((cache.hits, hit.stats), (1, ran.stats), "a bare VIR hits the keyed entry");
        let copy = k.key.clone();
        assert!(copy.0.get().is_none() && copy == k.key, "a clone starts empty, and equal");
    }

    #[test]
    fn different_inputs_miss() {
        let k = add_one_kernel();
        let mut cache = LaunchCache::new();
        let (mut mem1, params, config) = setup();
        launch_cached(&mut cache, &k, &config, &params, &mut mem1, &[]).unwrap();
        let (mut mem2, params2, config2) = setup();
        mem2.copy_in_f32(crate::memory::BufferId(0), &[99.0]);
        launch_cached(&mut cache, &k, &config2, &params2, &mut mem2, &[]).unwrap();
        assert_eq!((cache.hits, cache.misses), (0, 2));
        assert_eq!(mem2.copy_out_f32(crate::memory::BufferId(1))[0], 100.0);
    }

    #[test]
    fn a_write_between_two_launches_misses() {
        // The second launch runs on the memory the first one left, keys
        // and all. Unwritten it is the first launch over again; with one
        // word of the input changed in between it must not be.
        let k = add_one_kernel();
        for poke in [false, true] {
            let mut cache = LaunchCache::new();
            let (mut mem, params, config) = setup();
            let a = crate::memory::BufferId(0);
            // out aliases a: the launch's own output is its next input.
            let params = [params[0], params[0]];
            launch_cached(&mut cache, &k, &config, &params, &mut mem, &[]).unwrap();
            let (mut again, ..) = setup();
            launch_cached(&mut cache, &k, &config, &params, &mut again, &[]).unwrap();
            assert_eq!((cache.hits, cache.misses), (1, 1), "the same launch replays");
            assert_eq!(mem.copy_out(a), again.copy_out(a));
            if poke {
                again.write(again.base_addr(a), 4, 50.0f32.to_bits() as u64).unwrap();
            } else {
                again.copy_in_f32(a, &(0..32).map(|i| i as f32).collect::<Vec<_>>());
            }
            launch_cached(&mut cache, &k, &config, &params, &mut again, &[]).unwrap();
            let first = again.copy_out_f32(a)[0];
            if poke {
                assert_eq!((cache.hits, cache.misses), (1, 2), "a stale key would have replayed");
                assert_eq!(first, 51.0);
            } else {
                assert_eq!((cache.hits, cache.misses), (2, 1), "rewritten to equal bytes: equal work");
                assert_eq!(first, 1.0);
            }
        }
    }

    #[test]
    fn launch_key_is_a_function_of_content_not_of_what_is_cached() {
        let k = add_one_kernel();
        let (mem, params, config) = setup();
        let fresh = launch_key(&k, &config, &params, &mem, &[]);
        assert_eq!(mem.bytes_hashed(), 2 * 32 * 4, "a first key reads every buffer");
        assert_eq!(launch_key(&k, &config, &params, &mem, &[]), fresh);
        assert_eq!(mem.bytes_hashed(), 2 * 32 * 4, "a second one reads none");
        let (refilled, ..) = setup();
        assert_eq!(launch_key(&k, &config, &params, &refilled, &[]), fresh);

        // After a hit the installed key stands in for the bytes; it is
        // the key a fresh memory with those bytes hashes to.
        let mut cache = LaunchCache::new();
        let (mut ran, ..) = setup();
        launch_cached(&mut cache, &k, &config, &params, &mut ran, &[]).unwrap();
        let (mut replayed, ..) = setup();
        launch_cached(&mut cache, &k, &config, &params, &mut replayed, &[]).unwrap();
        assert_eq!(cache.hits, 1);
        let hashed = replayed.bytes_hashed();
        let after_hit = launch_key(&k, &config, &params, &replayed, &[]);
        assert_eq!(replayed.bytes_hashed(), hashed, "installed with its snapshot, not rehashed");
        let mut copy = DeviceMemory::new();
        for i in 0..replayed.buffer_count() {
            copy.alloc_from(replayed.buffer_bytes(i));
        }
        assert_eq!(launch_key(&k, &config, &params, &copy, &[]), after_hit);
        assert_eq!(launch_key(&k, &config, &params, &ran, &[]), after_hit, "miss ≡ hit");
        assert_ne!(after_hit, fresh);

        // The same bytes split over buffers differently are other work.
        let split = |parts: &[&[u8]]| {
            let mut mem = DeviceMemory::new();
            for part in parts {
                mem.alloc_from(part);
            }
            launch_key(&k, &config, &params, &mem, &[])
        };
        assert_ne!(split(&[b"ab", b"c"]), split(&[b"a", b"bc"]));
        assert_ne!(split(&[b"abc"]), split(&[b"abc", b""]));
    }

    #[test]
    fn each_byte_is_hashed_once_however_many_launches_follow() {
        let k = add_one_kernel();
        for warm in [false, true] {
            let mut cache = LaunchCache::new();
            if warm {
                let (mut mem, params, config) = setup();
                for _ in 0..5 {
                    launch_cached(&mut cache, &k, &config, &params, &mut mem, &[]).unwrap();
                }
                cache.bytes_hashed = 0;
            }
            let (mut mem, params, config) = setup();
            for _ in 0..5 {
                launch_cached(&mut cache, &k, &config, &params, &mut mem, &[]).unwrap();
            }
            // Both buffers once going in; then `out`, the one buffer the
            // kernel writes, once when the first miss records it — and
            // never on a hit. Launch 2 is other work (`out` is no longer
            // zero) whose keys are all in place, and whose run leaves
            // `out` as it found it; launches 3…5 are launch 2 again.
            let expect = if warm { 2 * 128 } else { 2 * 128 + 128 };
            assert_eq!(cache.bytes_hashed, expect, "warm: {warm}");
            assert_eq!((cache.hits, cache.misses), if warm { (8, 2) } else { (3, 2) });
        }
    }

    /// `out[0] = x` for an `f64` scalar parameter `x`.
    fn store_param_kernel() -> KernelVir {
        KernelVir {
            name: "store_param".into(),
            params: vec![ParamDecl::Ptr, ParamDecl::Scalar(VType::F64)],
            vregs: vec![VType::B64, VType::F64],
            insts: vec![
                Inst::LdParam { ty: VType::B64, d: VReg(0), index: 0 },
                Inst::LdParam { ty: VType::F64, d: VReg(1), index: 1 },
                Inst::St { space: MemSpace::Global, ty: VType::F64, addr: VReg(0), a: Operand::Reg(VReg(1)) },
                Inst::Ret,
            ],
        }
    }

    #[test]
    fn nan_payloads_are_distinct_parameter_values() {
        // `Debug` prints every NaN as `NaN`: keyed on that text, the
        // second launch hit the first one's entry and replayed its bytes.
        let k = store_param_kernel();
        let mut cache = LaunchCache::new();
        for (n, bits) in [0x7ff8_0000_0000_0001u64, 0xfff8_0000_0000_0abc].into_iter().enumerate() {
            let mut mem = DeviceMemory::new();
            let out = mem.alloc(8);
            let params = [ParamVal::Ptr(mem.base_addr(out)), ParamVal::F64(f64::from_bits(bits))];
            launch_cached(&mut cache, &k, &LaunchConfig::d1(1, 1), &params, &mut mem, &[]).unwrap();
            assert_eq!((cache.hits, cache.misses), (0, n as u64 + 1), "each payload is its own launch");
            assert_eq!(mem.buffer_bytes(0), bits.to_le_bytes(), "stores its own payload {bits:#x}");
        }
    }

    #[test]
    fn immediates_key_by_type_and_bit_pattern() {
        let (mem, params, config) = setup();
        let imms = [
            Operand::ImmF(0.0),
            Operand::ImmF(-0.0),
            Operand::ImmI(0),
            Operand::ImmF(f64::from_bits(0x7ff8_0000_0000_0001)),
            Operand::ImmF(f64::from_bits(0xfff8_0000_0000_0abc)),
        ];
        let keys = imms.map(|imm| {
            let mut k = add_one_kernel();
            let Inst::Alu { b, .. } = &mut k.insts[6] else { panic!("the f32 add") };
            *b = imm;
            launch_key(&k, &config, &params, &mem, &[])
        });
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{:?} vs {:?}", imms[i], imms[j]);
            }
        }
    }

    /// Distinct-input launches to populate a cache: variant `v` perturbs
    /// the input buffer so every `v` produces a distinct content key.
    fn run_variant(cache: &mut LaunchCache, k: &KernelVir, v: u32) {
        let (mut mem, params, config) = setup();
        mem.copy_in_f32(crate::memory::BufferId(0), &[v as f32 * 10.0 + 1.0]);
        launch_cached(cache, k, &config, &params, &mut mem, &[]).unwrap();
    }

    #[test]
    fn entry_cap_evicts_oldest_first() {
        let k = add_one_kernel();
        let mut cache = LaunchCache::new().with_entry_cap(3);
        for v in 0..5 {
            run_variant(&mut cache, &k, v);
        }
        assert_eq!(cache.len(), 3, "cap holds");
        assert_eq!(cache.misses, 5);
        // The two oldest variants (0, 1) were evicted: running them again
        // misses; the three newest (2, 3, 4) hit.
        for v in [2, 3, 4] {
            run_variant(&mut cache, &k, v);
        }
        assert_eq!((cache.hits, cache.misses), (3, 5));
        for v in [0, 1] {
            run_variant(&mut cache, &k, v);
        }
        assert_eq!(cache.misses, 7, "evicted entries re-simulate");
    }

    /// A synthetic entry, distinguishable by its write payload. Only
    /// reachable in-module: through the public API an overwrite needs
    /// two threads racing a miss on the same key.
    fn synthetic(tag: u8) -> CachedLaunch {
        let writes = vec![(0, SharedBytes::from(vec![tag]), ContentKey(tag as u128))];
        CachedLaunch { stats: KernelStats::default(), writes }
    }

    #[test]
    fn overwrite_refreshes_fifo_position() {
        let mut cache = LaunchCache::new().with_entry_cap(3);
        let key = ContentKey;
        for k in [1, 2, 3] {
            cache.insert_entry(key(k), synthetic(k as u8));
        }
        // Rewrite key 1: it is now the *newest* entry, so pushing past
        // the cap must evict key 2, not the just-rewritten key 1.
        cache.insert_entry(key(1), synthetic(101));
        assert_eq!(cache.len(), 3, "overwrite does not grow the cache");
        cache.insert_entry(key(4), synthetic(4));
        assert!(cache.entries.contains_key(&key(1)), "rewritten entry survives eviction");
        assert!(!cache.entries.contains_key(&key(2)), "true oldest entry was evicted");
        assert_eq!(cache.entries[&key(1)], synthetic(101), "rewrite took effect");
        assert_eq!(cache.evictions, 1);
        assert_eq!(cache.order.len(), cache.entries.len(), "order holds no duplicates");
    }

    #[test]
    fn shared_cache_hits_and_replays_like_exclusive() {
        let k = add_one_kernel();
        let shared = SharedLaunchCache::new(4);

        let (mut mem1, params, config) = setup();
        let r1 = shared.launch_cached(&k, &config, &params, &mut mem1, &[]).unwrap();
        assert_eq!((shared.hits(), shared.misses()), (0, 1));

        let (mut mem2, params2, config2) = setup();
        let r2 = shared.launch_cached(&k, &config2, &params2, &mut mem2, &[]).unwrap();
        assert_eq!((shared.hits(), shared.misses()), (1, 1));
        assert_eq!(r1.stats, r2.stats);
        for i in 0..mem1.buffer_count() {
            assert_eq!(mem1.buffer_bytes(i), mem2.buffer_bytes(i), "buffer {i}");
        }
        assert_eq!(shared.len(), 1);
    }
}
