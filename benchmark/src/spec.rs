//! The names the benchmark speaks: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root lists the
//! same names; `tests/names.rs` fails when the two drift apart.

/// Version of the results-record layout (`report::record`).
pub const SCHEMA: i64 = 1;

/// Load-generator connections, and the server's worker count: one per
/// core of the 2-core reference box.
pub const CLIENTS: usize = 2;

/// A workload and why it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "suite_cold",
        why: "fig7 suite, compile+run with no memo: the gpusim engine inner loop does ~95% of the work",
    },
    WorkloadSpec {
        name: "suite_warm",
        why: "same 20 cells replayed from a warm LaunchCache: launch_key hashing, replay and h2d/d2h do all the work",
    },
    WorkloadSpec {
        name: "compile_heavy",
        why: "16 programs x 5 profiles, compile only: ir/analysis/opt/codegen/ptxas and the feedback loop, no engine",
    },
    WorkloadSpec {
        name: "serve_warm",
        why: "steady-state TCP requests, store and memo always hit: wire decode, queue, replay, render and transport",
    },
    WorkloadSpec {
        name: "serve_cold",
        why: "same requests against a fresh server each repetition: every request compiles, simulates and inserts",
    },
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// An end-to-end metric: reported by every workload with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    // everything before the first timed sample (first decile of the set-up repetitions).
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // sum over cells of each cell's time (first decile of its samples; median for a request): one pass over the input set.
    EndToEnd {
        name: "pass_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // geometric mean over cells of each cell's time: every input weighs the same.
    EndToEnd {
        name: "cell_geomean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    // verified operations of one pass / seconds of a pass (closed loop).
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // VmHWM of the workload's process at exit.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload's traced run, 0 where
/// the workload bypasses the layer.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Must repeat bit-for-bit across runs and seeds.
    pub exact: bool,
}

const fn us(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "us",
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn count(name: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better,
        exact: false,
    }
}

/// `_us` metrics are sums per pass, first deciles over passes; counts are per
/// pass too, so they do not depend on how long the run lasted.
pub const PER_LAYER: [PerLayer; 59] = [
    us("ir.parse_us"),
    us("ir.sema_us"),
    exact("ir.src_bytes", "B"),
    us("analysis.reuse_us"),
    exact("analysis.reuse_groups", "count"),
    us("opt.feedback_us"),
    us("opt.saturate_us"),
    exact("opt.feedback_rounds", "count"),
    PerLayer {
        name: "opt.temps_added",
        unit: "count",
        better: Better::Higher,
        exact: true,
    },
    us("codegen.lower_us"),
    exact("codegen.vir_insts", "count"),
    us("gpusim.regalloc_us"),
    exact("gpusim.max_regs", "count"),
    exact("gpusim.spill_bytes", "B"),
    us("core.compile_us"),
    us("core.compile_self_us"),
    us("runtime.run_us"),
    us("runtime.h2d_us"),
    us("runtime.d2h_us"),
    exact("runtime.h2d_bytes", "B"),
    exact("runtime.d2h_bytes", "B"),
    us("gpusim.launch_us"),
    exact("gpusim.warp_insts", "count"),
    PerLayer {
        name: "gpusim.ns_per_warp_inst",
        unit: "ns",
        better: Better::Lower,
        exact: false,
    },
    PerLayer {
        name: "gpusim.mwinst_per_s",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
    us("gpusim.run_us.reference"),
    us("gpusim.run_us.decoded"),
    us("gpusim.run_us.superblock"),
    PerLayer {
        name: "gpusim.sb_fused_blocks",
        unit: "count",
        better: Better::Higher,
        exact: true,
    },
    exact("gpusim.sb_delegated", "count"),
    us("gpusim.launch_key_us"),
    us("gpusim.memo_hit_us"),
    us("gpusim.memo_miss_us"),
    us("gpusim.memo_record_overhead_us"),
    PerLayer {
        name: "gpusim.memo_hits",
        unit: "count",
        better: Better::Higher,
        exact: true,
    },
    exact("gpusim.memo_misses", "count"),
    us("workloads.args_us"),
    us("workloads.check_us"),
    us("server.json_parse_us"),
    us("server.parse_request_us"),
    exact("server.req_bytes", "B"),
    us("server.run_key_us"),
    us("server.render_us"),
    PerLayer {
        name: "server.reply_bytes",
        unit: "B",
        better: Better::Lower,
        exact: false,
    },
    us("server.engine_rtt_us"),
    us("server.tcp_rtt_us"),
    us("server.transport_us"),
    us("server.queue_wait_p50_us"),
    us("server.service_p50_us"),
    us("server.reply_write_p50_us"),
    count("server.cache_hits", Better::Higher),
    count("server.cache_misses", Better::Lower),
    count("server.coalesced", Better::Higher),
    count("server.batches", Better::Lower),
    count("server.programs_cached", Better::Lower),
    us("client.build_request_us"),
    us("client.decode_reply_us"),
    PerLayer {
        name: "obs.trace_overhead_pct",
        unit: "%",
        better: Better::Lower,
        exact: false,
    },
    PerLayer {
        name: "model.speedup_geomean",
        unit: "ratio",
        better: Better::Higher,
        exact: true,
    },
];

pub fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}
