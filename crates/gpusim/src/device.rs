//! Device model: a Kepler-class GPU (default: Tesla K20Xm, the paper's
//! evaluation hardware) and the occupancy rules that make register
//! pressure matter.

/// Static device parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors (SMX).
    pub sm_count: u32,
    /// 32-bit registers per SMX.
    pub regs_per_sm: u32,
    /// Maximum registers addressable per thread (255 on Kepler; the
    /// paper's feedback loop uses this as the hardware limit).
    pub max_regs_per_thread: u32,
    /// Register allocation granularity per warp, in registers.
    pub warp_alloc_granularity: u32,
    /// Maximum resident warps per SMX.
    pub max_warps_per_sm: u32,
    /// Maximum resident thread blocks per SMX.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Warp width.
    pub warp_size: u32,
    /// Core clock in MHz (used only to convert cycles to seconds in
    /// reports).
    pub clock_mhz: u32,
    /// Global-memory transaction size in bytes.
    pub transaction_bytes: u32,
    /// Peak global-memory bandwidth in bytes per core clock cycle,
    /// device-wide.
    pub bytes_per_cycle: f64,
    /// Resident warps per SM needed to saturate the memory interface
    /// (Little's law: achievable bandwidth scales with memory-level
    /// parallelism until this point — the reason occupancy matters even
    /// for bandwidth-bound kernels, and thus the reason saving registers
    /// with `small`/`dim` speeds them up).
    pub bw_saturation_warps: u32,
    /// Latencies, cycles: coalesced global load.
    pub lat_global: u32,
    /// Latency of a read-only (texture/LDG path) cached load.
    pub lat_readonly: u32,
    /// Latency of a local (spill) access — local memory is backed by L1
    /// on Kepler but spills still cost a memory round trip when they miss.
    pub lat_local: u32,
    /// Latency of a shared-memory access (bank-conflict-free). This is
    /// what RegDem-style shared spilling buys: ~an order of magnitude
    /// below a local-memory round trip.
    pub lat_shared: u32,
    /// Shared memory per SMX in bytes (48 KiB on Kepler under the
    /// default carveout) — the capacity shared spills are accounted
    /// against.
    pub shared_mem_per_sm: u32,
    /// Extra serialization cycles for each additional transaction an
    /// uncoalesced warp access needs (departure delay).
    pub uncoalesced_penalty: u32,
    /// Warp instruction issue throughput multipliers: cycles per issued
    /// instruction for (int32/fp32), int64, fp64, SFU math.
    pub cpi_simple: f64,
    /// Cycles per issued 64-bit integer instruction.
    pub cpi_int64: f64,
    /// Cycles per issued fp64 instruction (1/3 rate on K20X).
    pub cpi_fp64: f64,
    /// Cycles per issued special-function (sqrt/exp/...) instruction.
    pub cpi_sfu: f64,
    /// Fixed kernel launch overhead in cycles.
    pub launch_overhead: u64,
}

impl DeviceConfig {
    /// The paper's evaluation GPU: Tesla K20Xm (Kepler GK110, sm_35).
    pub fn k20xm() -> Self {
        DeviceConfig {
            name: "Tesla K20Xm (simulated)",
            sm_count: 14,
            regs_per_sm: 65_536,
            max_regs_per_thread: 255,
            warp_alloc_granularity: 256,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            warp_size: 32,
            clock_mhz: 732,
            transaction_bytes: 128,
            // ~250 GB/s at 732 MHz ≈ 341 B/cycle device-wide.
            bytes_per_cycle: 341.0,
            bw_saturation_warps: 48,
            lat_global: 380,
            lat_readonly: 140,
            lat_local: 380,
            lat_shared: 30,
            shared_mem_per_sm: 49_152,
            uncoalesced_penalty: 40,
            cpi_simple: 1.0,
            cpi_int64: 2.0,
            cpi_fp64: 3.0,
            cpi_sfu: 8.0,
            launch_overhead: 4_000,
        }
    }

    /// Occupancy for a kernel using `regs_per_thread` registers launched
    /// with `threads_per_block`.
    pub fn occupancy(&self, regs_per_thread: u32, threads_per_block: u32) -> Occupancy {
        self.occupancy_with_shared(regs_per_thread, threads_per_block, 0)
    }

    /// Occupancy for a kernel that additionally reserves
    /// `shared_bytes_per_block` bytes of shared memory per resident block
    /// (e.g. a RegDem-style shared spill slab). Shared demand adds a
    /// third residency limit alongside registers and the warp/block caps.
    pub fn occupancy_with_shared(
        &self,
        regs_per_thread: u32,
        threads_per_block: u32,
        shared_bytes_per_block: u32,
    ) -> Occupancy {
        let tpb = threads_per_block.clamp(1, self.max_threads_per_block);
        let warps_per_block = tpb.div_ceil(self.warp_size).max(1);
        // Per-warp register allocation, rounded to the granularity.
        let rpt = regs_per_thread.clamp(1, self.max_regs_per_thread);
        let warp_regs =
            (rpt * self.warp_size).div_ceil(self.warp_alloc_granularity) * self.warp_alloc_granularity;
        let warp_limit_regs = self.regs_per_sm / warp_regs.max(1);
        let blocks_by_regs = warp_limit_regs / warps_per_block;
        let blocks_by_warps = self.max_warps_per_sm / warps_per_block;
        let blocks_by_shared = self
            .shared_mem_per_sm
            .checked_div(shared_bytes_per_block)
            .unwrap_or(u32::MAX);
        let blocks = blocks_by_regs
            .min(blocks_by_warps)
            .min(blocks_by_shared)
            .min(self.max_blocks_per_sm);
        let active_warps = blocks * warps_per_block;
        Occupancy {
            blocks_per_sm: blocks,
            active_warps_per_sm: active_warps,
            occupancy: active_warps as f64 / self.max_warps_per_sm as f64,
        }
    }
}

/// The result of an occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Resident blocks per SM.
    pub blocks_per_sm: u32,
    /// Resident warps per SM.
    pub active_warps_per_sm: u32,
    /// Fraction of the maximum warp population.
    pub occupancy: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_register_use_gives_full_occupancy() {
        let d = DeviceConfig::k20xm();
        let o = d.occupancy(32, 256);
        // 32 regs/thread → 1024 regs/warp → 64 warps fit; warp cap 64.
        assert_eq!(o.active_warps_per_sm, 64);
        assert!((o.occupancy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn high_register_use_cuts_occupancy() {
        let d = DeviceConfig::k20xm();
        let o128 = d.occupancy(128, 256);
        let o255 = d.occupancy(255, 256);
        assert!(o128.active_warps_per_sm < 64);
        assert!(o255.active_warps_per_sm < o128.active_warps_per_sm);
        // 255 regs → 8192 regs/warp → 8 warps/SM.
        assert_eq!(o255.active_warps_per_sm, 8);
    }

    #[test]
    fn occupancy_monotone_in_registers() {
        let d = DeviceConfig::k20xm();
        let mut last = u32::MAX;
        for regs in [16, 32, 48, 64, 96, 128, 192, 255] {
            let o = d.occupancy(regs, 128);
            assert!(o.active_warps_per_sm <= last, "regs={regs}");
            last = o.active_warps_per_sm;
        }
    }

    #[test]
    fn block_limit_caps_small_blocks() {
        let d = DeviceConfig::k20xm();
        // 32-thread blocks: 1 warp each; 16-block cap → 16 warps, not 64.
        let o = d.occupancy(16, 32);
        assert_eq!(o.blocks_per_sm, 16);
        assert_eq!(o.active_warps_per_sm, 16);
    }

    #[test]
    fn paper_table1_hot1_effect() {
        // Table I HOT1: 128 regs (base) vs 48 regs (with dim): the whole
        // point of the clauses is the occupancy this buys back.
        let d = DeviceConfig::k20xm();
        let base = d.occupancy(128, 256);
        let opt = d.occupancy(48, 256);
        assert!(opt.active_warps_per_sm >= 2 * base.active_warps_per_sm);
    }

    #[test]
    fn cc35_occupancy_table_rows() {
        // Hand-computed rows of the CUDA occupancy calculator for CC 3.5
        // (64K regs/SM, 256-reg warp granularity, 64 warps/SM, 16
        // blocks/SM): (regs/thread, threads/block) → (blocks, warps).
        let d = DeviceConfig::k20xm();
        let rows: [(u32, u32, u32, u32); 6] = [
            // 32 regs → 1024/warp → reg limit 64 warps; warp cap binds.
            (32, 256, 8, 64),
            // 64 regs → 2048/warp → 32 warps by regs → 4 blocks of 8.
            (64, 256, 4, 32),
            // 40 regs → 1280/warp → 51 warps by regs → 12 blocks of 4.
            (40, 128, 12, 48),
            // 96 regs → 3072/warp → 21 warps by regs → 5 blocks of 4.
            (96, 128, 5, 20),
            // 255 regs → 8160→8192/warp → 8 warps by regs → 1 block of 8.
            (255, 256, 1, 8),
            // 72 regs × 1024 threads = 73728 regs > 64K: cannot launch.
            (72, 1024, 0, 0),
        ];
        for (regs, tpb, blocks, warps) in rows {
            let o = d.occupancy(regs, tpb);
            assert_eq!(o.blocks_per_sm, blocks, "regs={regs} tpb={tpb}");
            assert_eq!(o.active_warps_per_sm, warps, "regs={regs} tpb={tpb}");
        }
    }

    #[test]
    fn shared_memory_limits_residency() {
        let d = DeviceConfig::k20xm();
        // Without shared demand: 8 blocks × 8 warps.
        assert_eq!(d.occupancy_with_shared(32, 256, 0), d.occupancy(32, 256));
        // 24 KiB/block on a 48 KiB SM → 2 resident blocks → 16 warps.
        let o = d.occupancy_with_shared(32, 256, 24_576);
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.active_warps_per_sm, 16);
        // A full-SM slab → 1 block.
        let o = d.occupancy_with_shared(32, 256, 49_152);
        assert_eq!(o.blocks_per_sm, 1);
        // Oversized slab → cannot launch.
        let o = d.occupancy_with_shared(32, 256, 49_153);
        assert_eq!(o.blocks_per_sm, 0);
        assert_eq!(o.active_warps_per_sm, 0);
    }

    #[test]
    fn warp_granularity_rounding() {
        let d = DeviceConfig::k20xm();
        // 33 regs/thread → 1056 → rounds to 1280 regs/warp → 51 warps by
        // regs, but 256-thread blocks (8 warps) → 6 blocks → 48 warps.
        let o = d.occupancy(33, 256);
        assert_eq!(o.blocks_per_sm, 6);
        assert_eq!(o.active_warps_per_sm, 48);
    }
}
