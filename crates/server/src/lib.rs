//! # safara-server — a concurrent compile-and-simulate service
//!
//! Wraps the whole SAFARA pipeline (ir → analysis → opt → codegen →
//! gpusim) as a long-running service: clients send MiniACC source, a
//! compiler-profile key, and launch arguments; the server compiles,
//! simulates, and replies with register counts, modelled cycles, and
//! output digests (or full bit-exact arrays).
//!
//! The pieces, bottom-up:
//!
//! - [`json`] — a hand-rolled JSON parser/writer (the build is offline;
//!   no serde), careful about float round-trips.
//! - [`protocol`] — the newline-delimited request/response schema and
//!   the lossless `bits` array encoding.
//! - [`queue`] — a bounded MPMC queue: the admission-control point.
//! - [`service`] — the [`Engine`]: a fixed worker pool
//!   sharing one process-wide [`safara_core::SharedLaunchCache`] and a compiled-
//!   program store, with per-request deadlines and live counters.
//! - [`server`] — the TCP transport (`std::net`, nonblocking accept).
//!
//! The `safara-serve` binary fronts both transports; see the README's
//! "Running as a service" section for the wire format.

pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use protocol::{build_run_request, parse_request, Op, Request, RunRequestLine, WireError};
pub use server::{dispatch, serve, ServerHandle};
pub use service::{Engine, EngineConfig, Submit};
