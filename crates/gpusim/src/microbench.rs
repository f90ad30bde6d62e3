//! Memory-latency microbenchmarks.
//!
//! The paper parameterizes SAFARA's cost model with memory latencies
//! measured by the microbenchmarks of Wong et al. (ISPASS 2010). We do
//! the same against our device model: tiny probe kernels with known
//! access patterns (coalesced, strided/uncoalesced, broadcast; global vs
//! read-only) are executed on the simulator, and the modelled cycles per
//! access are extracted.
//!
//! The compiler does not read these figures by default: every named
//! profile ranks candidates with the hand-set Kepler-class
//! `LatencyTable::default()` of `safara_analysis::cost`. Only
//! `safara_core::calibrate` builds a cost model from the probes (the
//! paper's §III-B.3 loop); no profile uses it, and the
//! `latency_microbench` binary only prints them.

use crate::device::DeviceConfig;
use crate::interp::{launch, LaunchConfig, ParamVal};
use crate::memory::DeviceMemory;
use crate::timing::estimate_time;
use crate::vir::*;

/// Measured per-access-class latencies (cycles per warp access).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredLatencies {
    /// Coalesced global load.
    pub global_coalesced: f64,
    /// Fully-strided (32-transaction) global load.
    pub global_uncoalesced: f64,
    /// Broadcast global load.
    pub global_broadcast: f64,
    /// Coalesced read-only load.
    pub readonly_coalesced: f64,
    /// Strided read-only load.
    pub readonly_uncoalesced: f64,
}

/// Build a probe kernel: each thread loads `reps` times from
/// `base + (tid * stride_elems) * 4` (f32) in `space` and accumulates, then
/// stores once (so loads are not dead).
fn probe_kernel(space: MemSpace, stride_elems: i64, reps: u32) -> KernelVir {
    let mut k = KernelVir {
        name: format!("probe_{space:?}_{stride_elems}"),
        params: vec![ParamDecl::Ptr, ParamDecl::Ptr],
        ..Default::default()
    };
    let pin = k.new_vreg(VType::B64);
    let pout = k.new_vreg(VType::B64);
    let tid = k.new_vreg(VType::B32);
    let off = k.new_vreg(VType::B64);
    let addr = k.new_vreg(VType::B64);
    let i = k.new_vreg(VType::B32);
    let p = k.new_vreg(VType::Pred);
    let acc = k.new_vreg(VType::F32);
    let v = k.new_vreg(VType::F32);
    let oaddr = k.new_vreg(VType::B64);
    use Inst::*;
    k.insts = vec![
        LdParam { ty: VType::B64, d: pin, index: 0 },
        LdParam { ty: VType::B64, d: pout, index: 1 },
        Special { d: tid, r: SpecialReg::Tid(0) },
        Cvt { dty: VType::B64, d: off, aty: VType::B32, a: tid.into() },
        Alu { op: AluOp::Mul, ty: VType::B64, d: off, a: off.into(), b: Operand::ImmI(4 * stride_elems) },
        Alu { op: AluOp::Add, ty: VType::B64, d: addr, a: pin.into(), b: off.into() },
        Mov { ty: VType::F32, d: acc, a: Operand::ImmF(0.0) },
        Mov { ty: VType::B32, d: i, a: Operand::ImmI(0) },
        Mark(Label(0)),
        Setp { op: CmpOp::Ge, ty: VType::B32, d: p, a: i.into(), b: Operand::ImmI(reps as i64) },
        Bra { target: Label(1), pred: Some((p, true)) },
        Ld { space, ty: VType::F32, d: v, addr },
        Alu { op: AluOp::Add, ty: VType::F32, d: acc, a: acc.into(), b: v.into() },
        Alu { op: AluOp::Add, ty: VType::B32, d: i, a: i.into(), b: Operand::ImmI(1) },
        Bra { target: Label(0), pred: None },
        Mark(Label(1)),
        Cvt { dty: VType::B64, d: off, aty: VType::B32, a: tid.into() },
        Alu { op: AluOp::Mul, ty: VType::B64, d: off, a: off.into(), b: Operand::ImmI(4) },
        Alu { op: AluOp::Add, ty: VType::B64, d: oaddr, a: pout.into(), b: off.into() },
        St { space: MemSpace::Global, ty: VType::F32, addr: oaddr, a: acc.into() },
        Ret,
    ];
    k
}

/// Cycles per warp load for one probe configuration.
fn measure(dev: &DeviceConfig, space: MemSpace, stride: i64) -> f64 {
    let reps = 64u32;
    let k = probe_kernel(space, stride, reps);
    let mut mem = DeviceMemory::new();
    let max_stride = stride.max(1) as usize;
    let input = mem.alloc(32 * 4 * max_stride);
    let out = mem.alloc(32 * 4);
    let cfg = LaunchConfig::d1(1, 32);
    let res = launch(
        &k,
        &cfg,
        &[ParamVal::Ptr(mem.base_addr(input)), ParamVal::Ptr(mem.base_addr(out))],
        &mut mem,
        &[],
    )
    .expect("probe kernel runs");
    // Subtract a no-load baseline: same kernel with zero reps.
    let k0 = probe_kernel(space, stride, 0);
    let res0 = launch(
        &k0,
        &cfg,
        &[ParamVal::Ptr(mem.base_addr(input)), ParamVal::Ptr(mem.base_addr(out))],
        &mut mem,
        &[],
    )
    .expect("baseline kernel runs");
    // Use a single resident warp (regs high enough to disallow more would
    // be artificial; instead we model with one block of one warp, which
    // the occupancy model maps to one active warp... we pass regs=255).
    let t = estimate_time(dev, &res.stats, 255, 32);
    let t0 = estimate_time(dev, &res0.stats, 255, 32);
    (t.total_cycles - t0.total_cycles) / reps as f64
}

/// Run the full probe suite.
pub fn run_probes(dev: &DeviceConfig) -> MeasuredLatencies {
    MeasuredLatencies {
        global_coalesced: measure(dev, MemSpace::Global, 1),
        global_uncoalesced: measure(dev, MemSpace::Global, 32),
        global_broadcast: measure(dev, MemSpace::Global, 0),
        readonly_coalesced: measure(dev, MemSpace::ReadOnly, 1),
        readonly_uncoalesced: measure(dev, MemSpace::ReadOnly, 32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_ordering_matches_hardware_expectations() {
        let dev = DeviceConfig::k20xm();
        let m = run_probes(&dev);
        assert!(
            m.global_uncoalesced > m.global_coalesced,
            "uncoalesced must be slower: {m:?}"
        );
        assert!(
            m.readonly_coalesced < m.global_coalesced,
            "read-only cache must be faster than global: {m:?}"
        );
        assert!(
            m.readonly_uncoalesced > m.readonly_coalesced,
            "striding must hurt the read-only path too: {m:?}"
        );
        // Broadcast ≈ coalesced (one transaction either way).
        assert!((m.global_broadcast - m.global_coalesced).abs() < 1.0);
    }

    #[test]
    fn probes_are_positive_and_finite() {
        let dev = DeviceConfig::k20xm();
        let m = run_probes(&dev);
        for v in [
            m.global_coalesced,
            m.global_uncoalesced,
            m.global_broadcast,
            m.readonly_coalesced,
            m.readonly_uncoalesced,
        ] {
            assert!(v.is_finite() && v > 0.0, "{m:?}");
        }
    }
}
