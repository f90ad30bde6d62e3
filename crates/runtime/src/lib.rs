//! # safara-runtime — the host-side OpenACC runtime
//!
//! Plays the role of the OpenACC runtime library in the paper's Fig. 2:
//! it owns device memory, marshals kernel parameters according to the
//! [`safara_codegen::abi::KernelAbi`] recipe, computes launch geometry
//! from the mapped-loop specifications, manages reduction buffers, and
//! drives the simulator.
//!
//! A "function run" mirrors OpenACC data semantics at region granularity:
//! all array arguments are uploaded to the device before the first kernel
//! and downloaded after the last (the data clauses of the source are
//! validated but transfers are not further optimized — transfer time is
//! not part of the paper's figures, which report kernel execution).

pub mod args;
pub mod exec;

pub use args::{ArgValue, Args, HostArray};
pub use exec::{run_function, run_function_traced, KernelRun, Memo, RunReport, RuntimeError};
pub use safara_gpusim::memo::{LaunchCache, SharedLaunchCache};
