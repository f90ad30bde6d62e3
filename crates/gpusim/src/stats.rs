//! Dynamic execution statistics gathered by the interpreter and consumed
//! by the timing model.

/// Warp-level dynamic counts for one kernel launch.
///
/// Instruction counts are *issued warp instructions* (one per warp per
/// executed instruction under uniform control flow; under divergence the
/// per-class maximum across lanes is used, a standard approximation).
/// Memory counts distinguish *requests* (one per warp access) from
/// *transactions* (128-byte segments actually touched, computed from the
/// 32 lanes' addresses — this is where uncoalesced access patterns show
/// up as 32× traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct KernelStats {
    /// int32 / fp32 / mov / cvt / setp / branch issues.
    pub simple_insts: u64,
    /// 64-bit integer ALU issues (register pairs → half throughput).
    pub int64_insts: u64,
    /// fp64 issues.
    pub fp64_insts: u64,
    /// Special-function (sqrt, exp, sin, ...) issues.
    pub sfu_insts: u64,
    /// Global-memory load requests (warp accesses).
    pub global_ld_requests: u64,
    /// Global-memory store requests.
    pub global_st_requests: u64,
    /// Global-memory 128-byte transactions (loads + stores).
    pub global_transactions: u64,
    /// Read-only-cache load requests.
    pub readonly_requests: u64,
    /// Read-only-cache transactions.
    pub readonly_transactions: u64,
    /// Local-memory (spill) accesses.
    pub local_accesses: u64,
    /// Shared-memory accesses (spills under `SpillTarget::Shared`; zero
    /// for kernels compiled with the default local spill target).
    pub shared_accesses: u64,
    /// Global atomic operations (each serializes to one transaction).
    pub atomics: u64,
    /// Warps executed.
    pub warps: u64,
    /// Threads executed.
    pub threads: u64,
}

impl KernelStats {
    /// Total issued warp instructions of all classes.
    pub fn total_issued(&self) -> u64 {
        self.simple_insts + self.int64_insts + self.fp64_insts + self.sfu_insts
    }

    /// Total memory requests of all spaces.
    pub fn total_mem_requests(&self) -> u64 {
        self.global_ld_requests
            + self.global_st_requests
            + self.readonly_requests
            + self.local_accesses
            + self.shared_accesses
            + self.atomics
    }

    /// Bytes moved over the global-memory interface.
    pub fn global_bytes(&self, transaction_bytes: u32) -> u64 {
        (self.global_transactions + self.readonly_transactions + self.atomics)
            * transaction_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let s = KernelStats {
            simple_insts: 5,
            int64_insts: 1,
            fp64_insts: 2,
            sfu_insts: 3,
            global_ld_requests: 4,
            readonly_requests: 2,
            atomics: 1,
            global_transactions: 9,
            readonly_transactions: 2,
            ..Default::default()
        };
        assert_eq!(s.total_issued(), 11);
        assert_eq!(s.total_mem_requests(), 7);
        assert_eq!(s.global_bytes(128), (9 + 2 + 1) * 128);
    }
}
