//! # safara-gpusim — a Kepler-class GPU substrate in software
//!
//! The paper's toolchain compiles OpenACC regions to PTX, asks NVIDIA's
//! closed-source PTXAS assembler how many *hardware* registers a kernel
//! uses (the "static feedback"), and runs on a K20Xm. None of that exists
//! in a portable Rust environment, so this crate rebuilds each piece:
//!
//! * [`vir`] — **VIR**, a PTX-like typed virtual ISA with unlimited
//!   virtual registers (the compiler's code-generation target),
//! * [`ptxas`] — a register allocator (liveness + linear scan onto 32-bit
//!   physical registers, 64-bit values in aligned pairs, spilling to
//!   local memory) whose report plays the role of `ptxas -v` output in
//!   SAFARA's feedback loop,
//! * [`device`] — the device model: SMX/warp geometry, register file and
//!   occupancy rules of a Kepler K20Xm,
//! * [`memory`] — device global memory (buffers with simulated addresses),
//! * [`shared`] — [`SharedBytes`], the copy-on-write, content-keyed bytes
//!   that host arrays, device buffers and memo snapshots share,
//! * [`interp`] — a warp-aware functional interpreter that executes
//!   kernels over real buffers and records per-warp instruction and
//!   memory-transaction statistics, with *address-accurate* coalescing
//!   (transactions are computed from the 32 lanes' actual addresses),
//! * [`math`] — the in-tree `sin`/`cos`/`exp`/`log`/`pow`/`floor` every
//!   engine calls (within 1 ulp, host-independent), a warp column at a
//!   time in the lockstep engine,
//! * [`timing`] — an analytic latency/occupancy/bandwidth overlap model
//!   (in the spirit of Hong & Kim's MWP/CWP model) that converts the
//!   interpreter's counts into estimated cycles,
//! * [`content`] — the one content hash ([`content::ContentKey`]) that
//!   the launch memo and the server's dedup/routing keys are built from,
//! * [`microbench`] — pointer-chase-style probes that recover the memory
//!   latency table from the device model, standing in for the Wong et al.
//!   microbenchmarks the paper's cost model cites.

pub mod content;
pub(crate) mod decode;
pub mod device;
pub mod exec_options;
pub mod interp;
pub mod math;
pub mod memo;
pub mod memory;
pub mod microbench;
pub mod ptxas;
pub mod rng;
pub mod shared;
pub mod stats;
pub mod superblock;
pub mod timing;
pub mod vir;

pub use device::{DeviceConfig, Occupancy};
pub use exec_options::{current_engine, current_sim_threads, ExecOptions};
pub use interp::{launch, Engine, LaunchConfig, LaunchResult};
pub use superblock::{fusion_counters, FusionCounters};
pub use memo::{launch_cached, LaunchCache, SharedLaunchCache};
pub use memory::{BufferId, DeviceMemory};
pub use ptxas::{allocate_registers, allocate_registers_with, RegAllocReport, SpillTarget};
pub use rng::SplitMix64;
pub use shared::SharedBytes;
pub use stats::KernelStats;
pub use timing::{estimate_time, estimate_time_with, TimingBreakdown};
pub use vir::{Inst, KernelVir, VReg, VType};
