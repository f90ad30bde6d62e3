//! The PTXAS stand-in: hardware register allocation for VIR kernels.
//!
//! NVIDIA's PTX carries unlimited virtual registers; the closed-source
//! `ptxas` assembler decides how many *hardware* registers a kernel really
//! uses, and `ptxas -v` reports that count — the "static feedback" SAFARA
//! consumes (§III-B.2). This module reproduces the pipeline:
//!
//! 1. instruction-level liveness (backward dataflow to a fixed point,
//!    which handles loops),
//! 2. live-interval construction,
//! 3. linear-scan allocation onto 32-bit physical registers, with 64-bit
//!    values occupying aligned register pairs (GPU registers are 32-bit —
//!    the observation behind the `small` clause, §IV-B),
//! 4. spilling to local memory when demand exceeds the per-thread cap,
//!    reported so the timing model can charge local-memory traffic.
//!
//! Predicate registers live in a separate file (as on real hardware) and
//! do not count against the general-purpose budget.

use crate::vir::{Inst, KernelVir, VReg, VType};

/// Where spilled values live, RegDem-style (arXiv 1907.02894): the
/// default local-memory path pays a global-memory round trip per access;
/// `Shared` places per-thread spill slots in a shared-memory slab instead,
/// trading on-chip capacity (and thus possibly occupancy) for ~10× lower
/// spill latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpillTarget {
    /// Spills go to thread-local memory (the hardware default).
    #[default]
    Local,
    /// Spills go to a per-block shared-memory slab, capacity permitting.
    Shared,
}

/// The allocator's report — the simulated `ptxas -v` output.
#[derive(Debug, Clone, PartialEq)]
pub struct RegAllocReport {
    /// Hardware 32-bit registers actually used (≤ the cap).
    pub regs_used: u32,
    /// Registers the kernel *wants* (high-water mark with no cap); when
    /// this exceeds `regs_used` the difference was covered by spilling.
    pub demand: u32,
    /// Virtual registers spilled to local memory.
    pub spilled: Vec<VReg>,
    /// Spill-slot bytes per thread (local bytes under `Local`; the
    /// per-thread share of the shared slab under `Shared`).
    pub spill_bytes: u32,
    /// Static count of spill reloads inserted (uses of spilled vregs).
    pub static_spill_loads: u32,
    /// Static count of spill stores inserted (defs of spilled vregs).
    pub static_spill_stores: u32,
    /// Where the spill slots were placed. `Shared` only when it was
    /// requested *and* the slab fit the device's shared capacity for the
    /// planned block size — otherwise the allocator falls back to `Local`.
    pub spill_target: SpillTarget,
    /// Shared-memory bytes the spill slab reserves per resident block
    /// (`spill_bytes × threads_per_block`); zero under `Local`.
    pub shared_spill_bytes_per_block: u32,
}

impl RegAllocReport {
    /// True if the kernel fit without spilling.
    pub fn fits(&self) -> bool {
        self.spilled.is_empty()
    }
}

/// Per-vreg live interval over linearized instruction indices.
#[derive(Debug, Clone, Copy)]
struct Interval {
    vreg: VReg,
    start: usize,
    end: usize,
    pair: bool, // needs an aligned 64-bit register pair
    uses: u32,  // static use+def count (spill-cost heuristic)
}

impl Interval {
    /// Hardware registers the value occupies.
    fn width(&self) -> usize {
        if self.pair {
            2
        } else {
            1
        }
    }
}

/// Run register allocation with the given per-thread register cap.
///
/// `max_regs` models the hardware cap (255 on Kepler) or a launch-bound
/// imposed cap; values are clamped to at least 4 so degenerate settings
/// cannot wedge the allocator.
pub fn allocate_registers(kernel: &KernelVir, max_regs: u32) -> RegAllocReport {
    allocate_registers_with(kernel, max_regs, SpillTarget::Local, 0, 0)
}

/// [`allocate_registers`] with an explicit spill target.
///
/// Under [`SpillTarget::Shared`] the spill slab is sized as
/// `spill_bytes × threads_per_block` and checked against
/// `shared_mem_per_sm`: if it would not leave room for even one resident
/// block, the allocator falls back to `Local` (recorded in the report) —
/// shared spilling must never make a kernel unlaunchable.
pub fn allocate_registers_with(
    kernel: &KernelVir,
    max_regs: u32,
    target: SpillTarget,
    threads_per_block: u32,
    shared_mem_per_sm: u32,
) -> RegAllocReport {
    let cap = max_regs.clamp(4, 255) as usize;
    let n = kernel.insts.len();
    let live = liveness(kernel);
    let intervals = build_intervals(kernel, &live);

    // Linear scan (Poletto–Sarkar), intervals sorted by start (then by
    // register, the order they were built in).
    let intervals: Vec<Interval> =
        counting_order(&intervals, n, |iv| iv.start).map(|i| intervals[i]).collect();

    // The first physical register of each interval while it holds one,
    // by position in `intervals`, and the positions of those held in
    // ascending order: the active set (the order breaks ties between
    // spill victims).
    let mut held: Vec<Option<usize>> = vec![None; intervals.len()];
    let mut active: Vec<usize> = Vec::with_capacity(cap);
    let mut in_use = 0usize; // registers the held intervals occupy
    let mut spilled: Vec<Interval> = Vec::new();
    let mut high_water = 0usize;
    // Unbounded demand: every interval that has started and not ended,
    // allocated or not, and the registers they would hold together.
    let mut want = 0usize;
    let mut demand_water = 0usize;
    // Intervals by end: one walk expires each once. An interval that
    // ended before a start began before it, so it was visited already.
    let mut expired = counting_order(&intervals, n, |iv| iv.end).peekable();

    let mut free = FreeRegs::new(cap);
    for (i, iv) in intervals.iter().enumerate() {
        // Expire intervals that ended before this start.
        while let Some(e) = expired.next_if(|&e| intervals[e].end < iv.start) {
            let ended = &intervals[e];
            want -= ended.width();
            if let Some(first) = held[e].take() {
                free.release(first, ended.pair);
                in_use -= ended.width();
                retire(&mut active, e);
            }
        }

        want += iv.width();
        demand_water = demand_water.max(want);

        // Try to allocate.
        let mut slot = free.take(iv.pair);
        if slot.is_none() {
            // Spill the active interval with the furthest end and the
            // fewest uses (cheapest dynamically), or the new interval
            // itself if it ends last.
            let victim = active
                .iter()
                .map(|&j| (j, &intervals[j]))
                .filter(|(_, a)| a.pair == iv.pair || a.pair)
                .max_by_key(|(_, a)| (a.end, u32::MAX - a.uses))
                .filter(|(_, a)| a.end > iv.end);
            if let Some((j, v)) = victim {
                let first = held[j].take().expect("the victim holds registers");
                free.release(first, v.pair);
                in_use -= v.width();
                retire(&mut active, j);
                spilled.push(*v);
                slot = free.take(iv.pair);
            }
        }
        match slot {
            Some(first) => {
                held[i] = Some(first);
                active.push(i);
                in_use += iv.width();
                high_water = high_water.max(in_use);
            }
            None => spilled.push(*iv),
        }
    }

    let spilled_regs: Vec<VReg> = spilled.iter().map(|iv| iv.vreg).collect();
    let spill_bytes: u32 = spilled.iter().map(|iv| 4 * iv.width() as u32).sum();
    let (mut loads, mut stores) = (0u32, 0u32);
    if !spilled.is_empty() {
        let mut is_spilled = vec![false; kernel.vregs.len()];
        for r in &spilled_regs {
            is_spilled[r.0 as usize] = true;
        }
        for inst in &kernel.insts {
            loads += inst.uses().iter().filter(|u| is_spilled[u.0 as usize]).count() as u32;
            stores += u32::from(inst.def().is_some_and(|d| is_spilled[d.0 as usize]));
        }
    }

    // Capacity accounting for shared spilling: the slab must fit at
    // least one block on an SM, or we fall back to local memory.
    let slab = spill_bytes.saturating_mul(threads_per_block);
    let (spill_target, shared_slab) = match target {
        SpillTarget::Shared if spill_bytes > 0 && slab > 0 && slab <= shared_mem_per_sm => {
            (SpillTarget::Shared, slab)
        }
        _ => (SpillTarget::Local, 0),
    };

    RegAllocReport {
        regs_used: high_water.min(cap) as u32,
        demand: demand_water as u32,
        spilled: spilled_regs,
        spill_bytes,
        static_spill_loads: loads,
        static_spill_stores: stores,
        spill_target,
        shared_spill_bytes_per_block: shared_slab,
    }
}

/// Remove interval `j` from the ascending active set.
fn retire(active: &mut Vec<usize>, j: usize) {
    let at = active.binary_search(&j).expect("an active interval");
    active.remove(at);
}

/// The free physical registers `0..cap` (cap ≤ 255), one bit each.
///
/// The policy is part of the model, not an implementation detail: a
/// single takes the **lowest** free register, a pair the **lowest
/// even-aligned** `r` with `r` and `r + 1` both free. Which registers a
/// run of singles leaves behind decides whether a later pair finds a
/// slot, so fragmentation under this policy decides spills — and with
/// them `regs_used`, the number the feedback loop steers by.
struct FreeRegs([u64; 4]);

impl FreeRegs {
    /// Bits at even positions: the candidates for a pair's first half.
    const EVEN: u64 = 0x5555_5555_5555_5555;

    /// The bits a single or a pair occupies, before shifting into place.
    fn mask(pair: bool) -> u64 {
        if pair {
            0b11
        } else {
            0b1
        }
    }

    fn new(cap: usize) -> FreeRegs {
        let mut words = [0u64; 4];
        for (w, word) in words.iter_mut().enumerate() {
            let bits = cap.saturating_sub(w * 64).min(64);
            *word = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        }
        FreeRegs(words)
    }

    /// Take the lowest free single, or the lowest aligned free pair.
    fn take(&mut self, pair: bool) -> Option<usize> {
        for (w, word) in self.0.iter_mut().enumerate() {
            // 64 is even, so a pair never straddles two words.
            let candidates = if pair { *word & (*word >> 1) & Self::EVEN } else { *word };
            if candidates != 0 {
                let bit = candidates.trailing_zeros() as usize;
                *word &= !(Self::mask(pair) << bit);
                return Some(w * 64 + bit);
            }
        }
        None
    }

    fn release(&mut self, first: usize, pair: bool) {
        self.0[first / 64] |= Self::mask(pair) << (first % 64);
    }
}

/// Instruction-level liveness: row `i` of the result is the set of vregs
/// live *into* instruction `i`, one bit per vreg, rows laid end to end.
struct Liveness {
    /// `u64` words per row.
    words: usize,
    bits: Vec<u64>,
}

impl Liveness {
    fn row(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words..(i + 1) * self.words]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.bits[i * self.words..(i + 1) * self.words]
    }
}

/// Backward dataflow to the least fixed point. Successors are resolved
/// once; a sweep visits instructions last to first, so a changed row
/// calls for another sweep only when something at or below it branches
/// back to it — straight-line code settles in one.
fn liveness(kernel: &KernelVir) -> Liveness {
    const NONE: usize = usize::MAX;
    let n = kernel.insts.len();
    let words = kernel.vregs.len().div_ceil(64);
    let labels = kernel.label_positions();

    // Row `n` stays empty: falling off the end keeps nothing alive.
    let mut succs = vec![[NONE; 2]; n];
    let mut back_target = vec![false; n + 1];
    for (i, inst) in kernel.insts.iter().enumerate() {
        succs[i] = match inst {
            Inst::Ret => [NONE, NONE],
            Inst::Bra { target, pred } => {
                let t = labels
                    .get(target.0 as usize)
                    .copied()
                    .flatten()
                    .expect("branch to unknown label");
                if t <= i {
                    back_target[t] = true;
                }
                [if pred.is_some() { i + 1 } else { NONE }, t]
            }
            _ => [i + 1, NONE],
        };
    }

    let mut live = Liveness { words, bits: vec![0u64; (n + 1) * words] };
    let mut out = vec![0u64; words];
    let mut again = true;
    while again {
        again = false;
        for i in (0..n).rev() {
            // live-out = union of successors' live-in. Rows are a few
            // words: whole-row library calls would cost more than the
            // words themselves.
            let word = |s: usize, w: usize| if s == NONE { 0 } else { live.bits[s * words + w] };
            let [a, b] = succs[i];
            for (w, o) in out.iter_mut().enumerate() {
                *o = word(a, w) | word(b, w);
            }
            // live-in = (out - def) ∪ uses.
            if let Some(d) = kernel.insts[i].def() {
                out[d.0 as usize / 64] &= !(1u64 << (d.0 % 64));
            }
            for u in kernel.insts[i].uses() {
                out[u.0 as usize / 64] |= 1u64 << (u.0 % 64);
            }
            let mut changed = false;
            for (r, &o) in live.row_mut(i).iter_mut().zip(&out) {
                changed |= *r != o;
                *r = o;
            }
            again |= changed && back_target[i];
        }
    }
    live
}

/// The indices of `items` ordered by `key`, which is below `keys`; equal
/// keys keep index order (a counting sort).
fn counting_order<T>(
    items: &[T],
    keys: usize,
    key: impl Fn(&T) -> usize,
) -> impl Iterator<Item = usize> {
    let mut at = vec![0usize; keys + 1];
    for item in items {
        at[key(item) + 1] += 1;
    }
    for k in 0..keys {
        at[k + 1] += at[k];
    }
    let mut order = vec![0usize; items.len()];
    for (i, item) in items.iter().enumerate() {
        let k = key(item);
        order[at[k]] = i;
        at[k] += 1;
    }
    order.into_iter()
}

fn build_intervals(kernel: &KernelVir, live: &Liveness) -> Vec<Interval> {
    let nv = kernel.vregs.len();
    let n = kernel.insts.len();
    let mut start = vec![usize::MAX; nv];
    let mut end = vec![0usize; nv];
    let mut uses = vec![0u32; nv];

    // `start == usize::MAX` marks a vreg no instruction touches.
    let touch = |v: usize, i: usize, start: &mut [usize], end: &mut [usize]| {
        start[v] = start[v].min(i);
        end[v] = end[v].max(i);
    };

    // A vreg's live range runs from the first row holding its bit to the
    // last: a word at a time, first rows forwards, then last backwards.
    let mut seen = vec![0u64; live.words];
    let mut first_last = |rows: &mut dyn Iterator<Item = usize>, mark: &mut [usize]| {
        seen.fill(0);
        for i in rows {
            for (w, (&bits, seen)) in live.row(i).iter().zip(seen.iter_mut()).enumerate() {
                let mut new = bits & !*seen;
                *seen |= bits;
                while new != 0 {
                    mark[w * 64 + new.trailing_zeros() as usize] = i;
                    new &= new - 1;
                }
            }
        }
    };
    first_last(&mut (0..n), &mut start);
    first_last(&mut (0..n).rev(), &mut end);
    for (i, inst) in kernel.insts.iter().enumerate() {
        if let Some(d) = inst.def() {
            touch(d.0 as usize, i, &mut start, &mut end);
            uses[d.0 as usize] += 1;
        }
        for u in inst.uses() {
            touch(u.0 as usize, i, &mut start, &mut end);
            uses[u.0 as usize] += 1;
        }
    }

    (0..nv)
        .filter(|&v| start[v] != usize::MAX && kernel.vregs[v] != VType::Pred)
        .map(|v| Interval {
            vreg: VReg(v as u32),
            start: start[v],
            end: end[v],
            pair: kernel.vregs[v].hw_regs() == 2,
            uses: uses[v],
        })
        .collect()
}

/// The allocator as it stood before the flat-bitset liveness and the
/// bitmask free list: `BTreeSet` free registers, one `Vec<u64>` row and
/// one successor `Vec` per instruction per sweep, `active` re-summed for
/// every interval. Kept as the oracle for the generated-kernel
/// differential in the tests below.
#[cfg(test)]
mod reference {
    use super::{Interval, RegAllocReport, SpillTarget};
    use crate::vir::{Inst, KernelVir, VReg, VType};
    use std::collections::BTreeSet;

    pub fn allocate_registers_with(
        kernel: &KernelVir,
        max_regs: u32,
        target: SpillTarget,
        threads_per_block: u32,
        shared_mem_per_sm: u32,
    ) -> RegAllocReport {
        let cap = max_regs.clamp(4, 255) as usize;
        let live = liveness(kernel);
        let mut intervals = build_intervals(kernel, &live);

        // Linear scan (Poletto–Sarkar), intervals sorted by start.
        intervals.sort_by_key(|iv| (iv.start, iv.vreg.0));

        let mut free: BTreeSet<usize> = (0..cap).collect();
        let mut active: Vec<(Interval, usize)> = Vec::new(); // (interval, first phys reg)
        let mut spilled: Vec<Interval> = Vec::new();
        let mut high_water = 0usize;
        let mut demand_water = 0usize;
        let mut demand_active: Vec<Interval> = Vec::new();

        for iv in &intervals {
            // Expire intervals that ended before this start.
            let mut expired: Vec<usize> = Vec::new();
            active.retain(|(a, first)| {
                if a.end < iv.start {
                    expired.push(*first);
                    if a.pair {
                        expired.push(first + 1);
                    }
                    false
                } else {
                    true
                }
            });
            for r in expired {
                free.insert(r);
            }
            demand_active.retain(|a| a.end >= iv.start);

            // Unbounded-demand bookkeeping.
            demand_active.push(*iv);
            let want: usize = demand_active.iter().map(|a| if a.pair { 2 } else { 1 }).sum();
            demand_water = demand_water.max(want);

            // Try to allocate.
            let slot = if iv.pair { take_pair(&mut free) } else { take_single(&mut free) };
            match slot {
                Some(first) => {
                    active.push((*iv, first));
                    let in_use: usize =
                        active.iter().map(|(a, _)| if a.pair { 2 } else { 1 }).sum();
                    high_water = high_water.max(in_use);
                }
                None => {
                    // Spill the active interval with the furthest end and the
                    // fewest uses (cheapest dynamically), or the new interval
                    // itself if it ends last.
                    let victim = active
                        .iter()
                        .enumerate()
                        .filter(|(_, (a, _))| a.pair == iv.pair || a.pair)
                        .max_by_key(|(_, (a, _))| (a.end, u32::MAX - a.uses))
                        .map(|(idx, _)| idx);
                    match victim {
                        Some(idx) if active[idx].0.end > iv.end => {
                            let (v, first) = active.remove(idx);
                            free.insert(first);
                            if v.pair {
                                free.insert(first + 1);
                            }
                            spilled.push(v);
                            let slot2 =
                                if iv.pair { take_pair(&mut free) } else { take_single(&mut free) };
                            match slot2 {
                                Some(first2) => {
                                    active.push((*iv, first2));
                                    let in_use: usize = active
                                        .iter()
                                        .map(|(a, _)| if a.pair { 2 } else { 1 })
                                        .sum();
                                    high_water = high_water.max(in_use);
                                }
                                None => spilled.push(*iv),
                            }
                        }
                        _ => spilled.push(*iv),
                    }
                }
            }
        }

        let mut spill_bytes = 0u32;
        let mut loads = 0u32;
        let mut stores = 0u32;
        let spilled_regs: Vec<VReg> = spilled.iter().map(|iv| iv.vreg).collect();
        for iv in &spilled {
            spill_bytes += if iv.pair { 8 } else { 4 };
        }
        let spillset: BTreeSet<VReg> = spilled_regs.iter().copied().collect();
        for inst in &kernel.insts {
            for u in inst.uses() {
                if spillset.contains(&u) {
                    loads += 1;
                }
            }
            if let Some(d) = inst.def() {
                if spillset.contains(&d) {
                    stores += 1;
                }
            }
        }

        // Capacity accounting for shared spilling: the slab must fit at
        // least one block on an SM, or we fall back to local memory.
        let slab = spill_bytes.saturating_mul(threads_per_block);
        let (spill_target, shared_slab) = match target {
            SpillTarget::Shared if spill_bytes > 0 && slab > 0 && slab <= shared_mem_per_sm => {
                (SpillTarget::Shared, slab)
            }
            _ => (SpillTarget::Local, 0),
        };

        RegAllocReport {
            regs_used: high_water.min(cap) as u32,
            demand: demand_water as u32,
            spilled: spilled_regs,
            spill_bytes,
            static_spill_loads: loads,
            static_spill_stores: stores,
            spill_target,
            shared_spill_bytes_per_block: shared_slab,
        }
    }

    fn take_single(free: &mut BTreeSet<usize>) -> Option<usize> {
        let r = *free.iter().next()?;
        free.remove(&r);
        Some(r)
    }

    fn take_pair(free: &mut BTreeSet<usize>) -> Option<usize> {
        let r = free
            .iter()
            .copied()
            .find(|&r| r % 2 == 0 && free.contains(&(r + 1)))?;
        free.remove(&r);
        free.remove(&(r + 1));
        Some(r)
    }

    /// Instruction-level liveness: `live[i]` is the set of vregs live *into*
    /// instruction `i`, as a bitset.
    fn liveness(kernel: &KernelVir) -> Vec<Vec<u64>> {
        let n = kernel.insts.len();
        let nv = kernel.vregs.len();
        let words = nv.div_ceil(64);
        let labels = kernel.label_positions();
        let mut live_in = vec![vec![0u64; words]; n + 1];

        let succs = |i: usize| -> Vec<usize> {
            match &kernel.insts[i] {
                Inst::Ret => vec![],
                Inst::Bra { target, pred } => {
                    let t = labels
                        .get(target.0 as usize)
                        .copied()
                        .flatten()
                        .expect("branch to unknown label");
                    if pred.is_some() {
                        vec![i + 1, t]
                    } else {
                        vec![t]
                    }
                }
                _ => vec![i + 1],
            }
        };

        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                // live-out = union of successors' live-in.
                let mut out = vec![0u64; words];
                for s in succs(i) {
                    if s <= n {
                        for w in 0..words {
                            out[w] |= live_in[s][w];
                        }
                    }
                }
                // live-in = (out - def) ∪ uses.
                if let Some(d) = kernel.insts[i].def() {
                    out[d.0 as usize / 64] &= !(1u64 << (d.0 % 64));
                }
                for u in kernel.insts[i].uses() {
                    out[u.0 as usize / 64] |= 1u64 << (u.0 % 64);
                }
                if out != live_in[i] {
                    live_in[i] = out;
                    changed = true;
                }
            }
        }
        live_in.truncate(n);
        live_in
    }

    fn build_intervals(kernel: &KernelVir, live_in: &[Vec<u64>]) -> Vec<Interval> {
        let nv = kernel.vregs.len();
        let mut start = vec![usize::MAX; nv];
        let mut end = vec![0usize; nv];
        let mut uses = vec![0u32; nv];
        let mut seen = vec![false; nv];

        let touch = |v: usize, i: usize, start: &mut [usize], end: &mut [usize], seen: &mut [bool]| {
            if !seen[v] {
                seen[v] = true;
                start[v] = i;
            }
            start[v] = start[v].min(i);
            end[v] = end[v].max(i);
        };

        for (i, li) in live_in.iter().enumerate() {
            for (w, &bits) in li.iter().enumerate() {
                let mut b = bits;
                while b != 0 {
                    let bit = b.trailing_zeros() as usize;
                    let v = w * 64 + bit;
                    touch(v, i, &mut start, &mut end, &mut seen);
                    b &= b - 1;
                }
            }
        }
        for (i, inst) in kernel.insts.iter().enumerate() {
            if let Some(d) = inst.def() {
                touch(d.0 as usize, i, &mut start, &mut end, &mut seen);
                uses[d.0 as usize] += 1;
            }
            for u in inst.uses() {
                touch(u.0 as usize, i, &mut start, &mut end, &mut seen);
                uses[u.0 as usize] += 1;
            }
        }

        (0..nv)
            .filter(|&v| seen[v] && kernel.vregs[v] != VType::Pred)
            .map(|v| Interval {
                vreg: VReg(v as u32),
                start: start[v],
                end: end[v],
                pair: kernel.vregs[v].hw_regs() == 2,
                uses: uses[v],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vir::*;

    /// A straight-line kernel with `n` simultaneously-live f32 values.
    fn pressure_kernel(n: usize) -> KernelVir {
        let mut k = KernelVir { name: "pressure".into(), ..Default::default() };
        let regs: Vec<VReg> = (0..n).map(|_| k.new_vreg(VType::F32)).collect();
        // Define all, then use all: all n live at once.
        for (i, &r) in regs.iter().enumerate() {
            k.insts.push(Inst::Mov { ty: VType::F32, d: r, a: Operand::ImmF(i as f64) });
        }
        let acc = k.new_vreg(VType::F32);
        k.insts.push(Inst::Mov { ty: VType::F32, d: acc, a: Operand::ImmF(0.0) });
        for &r in &regs {
            k.insts.push(Inst::Alu {
                op: AluOp::Add,
                ty: VType::F32,
                d: acc,
                a: acc.into(),
                b: r.into(),
            });
        }
        k.insts.push(Inst::Ret);
        k
    }

    #[test]
    fn demand_matches_pressure() {
        let k = pressure_kernel(10);
        let rep = allocate_registers(&k, 255);
        // 10 values + accumulator live simultaneously.
        assert_eq!(rep.demand, 11);
        assert_eq!(rep.regs_used, 11);
        assert!(rep.fits());
    }

    #[test]
    fn cap_forces_spills() {
        let k = pressure_kernel(30);
        let rep = allocate_registers(&k, 16);
        assert!(!rep.fits());
        assert!(rep.regs_used <= 16);
        assert!(rep.demand > 16);
        assert!(rep.spill_bytes > 0);
        assert!(rep.static_spill_loads > 0);
        // Spilled + resident must cover the demand.
        assert!(rep.spilled.len() as u32 >= rep.demand - 16);
    }

    #[test]
    fn pairs_are_aligned_and_cost_two() {
        let mut k = KernelVir { name: "pairs".into(), ..Default::default() };
        let a = k.new_vreg(VType::F64);
        let b = k.new_vreg(VType::F64);
        let c = k.new_vreg(VType::F64);
        for (i, &r) in [a, b, c].iter().enumerate() {
            k.insts.push(Inst::Mov { ty: VType::F64, d: r, a: Operand::ImmF(i as f64) });
        }
        let d = k.new_vreg(VType::F64);
        k.insts.push(Inst::Alu { op: AluOp::Add, ty: VType::F64, d, a: a.into(), b: b.into() });
        k.insts.push(Inst::Alu { op: AluOp::Add, ty: VType::F64, d, a: d.into(), b: c.into() });
        k.insts.push(Inst::Ret);
        let rep = allocate_registers(&k, 255);
        // a, b, c live together (d overlaps c): 4 × 2 = 8 regs at peak...
        // minimally a,b,c + d = 7–8; pairs mean even count ≥ 6.
        assert!(rep.demand >= 6, "demand {}", rep.demand);
        assert_eq!(rep.demand % 2, 0, "pairs must keep demand even");
        assert!(rep.fits());
    }

    #[test]
    fn predicates_do_not_consume_gprs() {
        let mut k = KernelVir { name: "preds".into(), ..Default::default() };
        let x = k.new_vreg(VType::B32);
        k.insts.push(Inst::Mov { ty: VType::B32, d: x, a: Operand::ImmI(1) });
        let mut preds = Vec::new();
        for _ in 0..10 {
            let p = k.new_vreg(VType::Pred);
            k.insts.push(Inst::Setp {
                op: CmpOp::Lt,
                ty: VType::B32,
                d: p,
                a: x.into(),
                b: Operand::ImmI(5),
            });
            preds.push(p);
        }
        k.insts.push(Inst::Ret);
        let rep = allocate_registers(&k, 255);
        assert_eq!(rep.demand, 1); // only x
    }

    #[test]
    fn liveness_extends_across_loop_backedge() {
        // r is defined before the loop and used inside it: it must stay
        // live across the whole loop body, so demand counts it together
        // with the loop-body temp.
        let mut k = KernelVir { name: "loop".into(), ..Default::default() };
        let r = k.new_vreg(VType::F32);
        let i = k.new_vreg(VType::B32);
        let p = k.new_vreg(VType::Pred);
        let t = k.new_vreg(VType::F32);
        k.insts = vec![
            Inst::Mov { ty: VType::F32, d: r, a: Operand::ImmF(1.0) },
            Inst::Mov { ty: VType::B32, d: i, a: Operand::ImmI(0) },
            Inst::Mark(Label(0)),
            Inst::Setp { op: CmpOp::Ge, ty: VType::B32, d: p, a: i.into(), b: Operand::ImmI(10) },
            Inst::Bra { target: Label(1), pred: Some((p, true)) },
            // t = r + 1  (uses r every iteration)
            Inst::Alu { op: AluOp::Add, ty: VType::F32, d: t, a: r.into(), b: Operand::ImmF(1.0) },
            Inst::Alu { op: AluOp::Add, ty: VType::B32, d: i, a: i.into(), b: Operand::ImmI(1) },
            Inst::Bra { target: Label(0), pred: None },
            Inst::Mark(Label(1)),
            Inst::Ret,
        ];
        let rep = allocate_registers(&k, 255);
        // r, i, t all live in the loop (p is a predicate).
        assert_eq!(rep.demand, 3);
    }

    #[test]
    fn report_regs_never_exceed_cap() {
        for cap in [4, 8, 12, 24, 48] {
            let k = pressure_kernel(40);
            let rep = allocate_registers(&k, cap);
            assert!(rep.regs_used <= cap, "cap {cap} → used {}", rep.regs_used);
        }
    }

    #[test]
    fn shared_spill_target_respects_capacity() {
        let k = pressure_kernel(30);
        // Fits: slab = spill_bytes × 128 threads, well under 48 KiB.
        let rep = allocate_registers_with(&k, 16, SpillTarget::Shared, 128, 49_152);
        assert!(!rep.fits());
        assert_eq!(rep.spill_target, SpillTarget::Shared);
        assert_eq!(rep.shared_spill_bytes_per_block, rep.spill_bytes * 128);
        assert!(rep.shared_spill_bytes_per_block <= 49_152);

        // Too big for the SM: falls back to local, never unlaunchable.
        let rep = allocate_registers_with(&k, 16, SpillTarget::Shared, 1024, 1_024);
        assert!(!rep.fits());
        assert_eq!(rep.spill_target, SpillTarget::Local);
        assert_eq!(rep.shared_spill_bytes_per_block, 0);
    }

    #[test]
    fn shared_target_is_inert_without_spills() {
        let k = pressure_kernel(10);
        let rep = allocate_registers_with(&k, 255, SpillTarget::Shared, 256, 49_152);
        assert!(rep.fits());
        assert_eq!(rep.spill_target, SpillTarget::Local);
        assert_eq!(rep.shared_spill_bytes_per_block, 0);
    }

    #[test]
    fn default_allocation_is_the_local_target() {
        let k = pressure_kernel(30);
        let a = allocate_registers(&k, 16);
        let b = allocate_registers_with(&k, 16, SpillTarget::Local, 256, 49_152);
        assert_eq!(a, b);
        assert_eq!(a.spill_target, SpillTarget::Local);
    }

    #[test]
    fn smaller_types_need_fewer_registers_than_pairs() {
        // The `small` clause effect at the allocator level: the same
        // computation in b32 offsets vs b64 offsets.
        let build = |ty: VType| {
            let mut k = KernelVir { name: "offs".into(), ..Default::default() };
            let regs: Vec<VReg> = (0..6).map(|_| k.new_vreg(ty)).collect();
            for &r in &regs {
                k.insts.push(Inst::Mov { ty, d: r, a: Operand::ImmI(1) });
            }
            let s = k.new_vreg(ty);
            for &r in &regs {
                k.insts.push(Inst::Alu { op: AluOp::Add, ty, d: s, a: s.into(), b: r.into() });
            }
            k.insts.push(Inst::Ret);
            allocate_registers(&k, 255).demand
        };
        let d32 = build(VType::B32);
        let d64 = build(VType::B64);
        assert_eq!(d64, 2 * d32, "64-bit offsets must cost double: {d32} vs {d64}");
    }

    /// Generated kernels for the differential below: structured control
    /// flow (counted loops, do-while back-edges, if/else) nested a few
    /// deep over one pool of registers — singles, 64-bit pairs and
    /// predicates mixed — so values stay live across back-edges, pairs
    /// compete with singles for aligned slots, and definitions nobody
    /// reads (dead chains) come out as one-point intervals.
    struct Gen {
        rng: crate::rng::SplitMix64,
        k: KernelVir,
        regs: Vec<VReg>,
        preds: Vec<VReg>,
        next_label: u32,
    }

    impl Gen {
        fn new(seed: u64) -> Gen {
            let mut rng = crate::rng::SplitMix64::new(seed);
            let mut k = KernelVir { name: "gen".into(), ..Default::default() };
            let tys = [VType::B32, VType::F32, VType::B32, VType::B64, VType::F64];
            let regs = (0..3 + rng.gen_index(70)).map(|_| k.new_vreg(tys[rng.gen_index(5)])).collect();
            let preds = (0..1 + rng.gen_index(3)).map(|_| k.new_vreg(VType::Pred)).collect();
            Gen { rng, k, regs, preds, next_label: 0 }
        }

        fn reg(&mut self) -> VReg {
            self.regs[self.rng.gen_index(self.regs.len())]
        }

        fn operand(&mut self) -> Operand {
            if self.rng.gen_index(4) == 0 {
                Operand::ImmI(self.rng.gen_range_i64(0, 9))
            } else {
                self.reg().into()
            }
        }

        fn label(&mut self) -> Label {
            self.next_label += 1;
            Label(self.next_label - 1)
        }

        /// `setp p, ..` and return `p`.
        fn cond(&mut self) -> VReg {
            let p = self.preds[self.rng.gen_index(self.preds.len())];
            let (a, b) = (self.operand(), self.operand());
            self.k.insts.push(Inst::Setp { op: CmpOp::Lt, ty: VType::B32, d: p, a, b });
            p
        }

        fn block(&mut self, depth: u32) {
            for _ in 0..1 + self.rng.gen_index(8) {
                let d = self.reg();
                let ty = self.k.vtype(d);
                match self.rng.gen_index(if depth < 3 { 12 } else { 9 }) {
                    0 | 1 => {
                        let a = self.operand();
                        self.k.insts.push(Inst::Mov { ty, d, a });
                    }
                    2..=5 => {
                        let (a, b) = (self.operand(), self.operand());
                        self.k.insts.push(Inst::Alu { op: AluOp::Add, ty, d, a, b });
                    }
                    6 => {
                        let addr = self.reg();
                        self.k.insts.push(Inst::Ld { space: MemSpace::Global, ty, d, addr });
                    }
                    7 | 8 => {
                        let a = self.operand();
                        self.k.insts.push(Inst::St { space: MemSpace::Global, ty, addr: d, a });
                    }
                    9 => {
                        // while (p) { body }
                        let (top, end) = (self.label(), self.label());
                        self.k.insts.push(Inst::Mark(top));
                        let p = self.cond();
                        self.k.insts.push(Inst::Bra { target: end, pred: Some((p, false)) });
                        self.block(depth + 1);
                        self.k.insts.push(Inst::Bra { target: top, pred: None });
                        self.k.insts.push(Inst::Mark(end));
                    }
                    10 => {
                        // do { body } while (p)
                        let top = self.label();
                        self.k.insts.push(Inst::Mark(top));
                        self.block(depth + 1);
                        let p = self.cond();
                        self.k.insts.push(Inst::Bra { target: top, pred: Some((p, true)) });
                    }
                    _ => {
                        // if (p) { then } else { else }
                        let (l_else, l_end) = (self.label(), self.label());
                        let p = self.cond();
                        self.k.insts.push(Inst::Bra { target: l_else, pred: Some((p, false)) });
                        self.block(depth + 1);
                        self.k.insts.push(Inst::Bra { target: l_end, pred: None });
                        self.k.insts.push(Inst::Mark(l_else));
                        self.block(depth + 1);
                        self.k.insts.push(Inst::Mark(l_end));
                    }
                }
            }
        }
    }

    #[test]
    fn allocator_equals_the_one_it_replaced_on_generated_kernels() {
        // (spilling cases, shared slabs that fit, shared requests that fell back)
        let (mut spilling, mut shared_fit, mut shared_fallback) = (0, 0, 0);
        for case in 0..1500u64 {
            let mut g = Gen::new(0x57A5_0000 + case);
            g.block(0);
            g.k.insts.push(Inst::Ret);
            let caps = [4, 5, 7, 12, 16, 24, 32, 40, 64, 255, 4 + g.rng.gen_index(252) as u32];
            for cap in caps {
                let target = if g.rng.gen_bool() { SpillTarget::Shared } else { SpillTarget::Local };
                let tpb = [0, 32, 128, 1024][g.rng.gen_index(4)];
                let shared = [0, 1024, 49_152][g.rng.gen_index(3)];
                let new = allocate_registers_with(&g.k, cap, target, tpb, shared);
                let old = reference::allocate_registers_with(&g.k, cap, target, tpb, shared);
                assert_eq!(new, old, "case {case} cap {cap}:\n{}", g.k.disassemble());
                spilling += usize::from(!new.fits());
                if target == SpillTarget::Shared && !new.fits() {
                    shared_fit += usize::from(new.spill_target == SpillTarget::Shared);
                    shared_fallback += usize::from(new.spill_target == SpillTarget::Local);
                }
            }
        }
        assert!(
            spilling > 2000 && shared_fit > 100 && shared_fallback > 100,
            "generator went degenerate: {spilling} spilling, {shared_fit} shared, \
             {shared_fallback} fell back"
        );
    }

    #[test]
    fn free_list_hands_out_the_lowest_single_and_the_lowest_aligned_pair() {
        let mut free = FreeRegs::new(70);
        assert_eq!(free.take(false), Some(0));
        // 1 is free but odd: the lowest aligned pair is (2, 3).
        assert_eq!(free.take(true), Some(2));
        assert_eq!(free.take(false), Some(1));
        assert_eq!(free.take(false), Some(4));
        assert_eq!(free.take(true), Some(6));
        free.release(2, true);
        free.release(4, false);
        assert_eq!(free.take(true), Some(2), "a released pair is found again");
        assert_eq!(free.take(false), Some(4));
        // Past the first word, and never past the cap: 68/69 is the last pair.
        for expect in (8..70).step_by(2) {
            assert_eq!(free.take(true), Some(expect));
        }
        assert_eq!(free.take(true), None);
        assert_eq!(free.take(false), Some(5), "a hole too small for a pair still serves a single");
        assert_eq!(free.take(false), None);
    }
}
