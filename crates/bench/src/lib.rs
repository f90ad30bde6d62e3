//! # safara-bench — the figure/table regeneration harness
//!
//! One binary per table and figure of the paper's evaluation (§V); see
//! DESIGN.md's per-experiment index. The shared machinery here runs every
//! workload under a list of compiler configurations, validates results
//! against the Rust references, and renders speedup / normalized-time
//! tables in the shape of the paper's plots.
//!
//! Everything here is in modelled cycles and deterministic; nothing in
//! this crate reads a clock. Host wallclock is measured by `benchmark/`.
//!
//! Binaries (run with `--release`; results land on stdout):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig7_spec_safara_only`  | Fig. 7 — SPEC speedups, SAFARA only |
//! | `fig9_spec_clauses`      | Fig. 9 — SPEC: small / +dim / +SAFARA |
//! | `fig10_nas`              | Fig. 10 — NAS: small / SAFARA / +small |
//! | `fig11_spec_vs_pgi`      | Fig. 11 — SPEC normalized vs PGI-like |
//! | `fig12_nas_vs_pgi`       | Fig. 12 — NAS normalized vs PGI-like |
//! | `table1_seismic_registers` | Table I — seismic register usage |
//! | `table2_sp_registers`    | Table II — sp register usage |
//! | `latency_microbench`     | §III-B.3 latency table |
//! | `occupancy_report`       | §IV register/occupancy study |
//! | `ablation_cost_model`    | count-only vs latency-aware ranking |
//! | `ablation_feedback`      | feedback loop on/off |
//! | `ablation_carr_kennedy`  | CK sequentialization cost (Fig. 3/4) |
//! | `ablation_register_pressure` | Fig. 7 slowdown mechanism sweep |
//! | `ablation_unroll`        | §VII future work: unrolling + SAFARA |
//! | `ablation_opt_goal`      | feedback goal: register count vs throughput vs RegDem |
//! | `ablation_egraph`        | equality saturation ahead of SAFARA |

use safara_core::gpusim::ExecOptions;
use safara_core::{CompilerConfig, DeviceConfig};
use safara_workloads::{run_workload, Scale, Workload};
use std::fmt::Write as _;

/// The thread count the parallel [`measure`] pool uses: one place for
/// the `available_parallelism()` policy. The worker-pool sizing in
/// `safara-server` follows the same default.
fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-workload modelled kernel time under one configuration.
pub struct Measurement {
    /// Workload name.
    pub workload: &'static str,
    /// Total modelled kernel cycles per configuration, in input order.
    pub cycles: Vec<f64>,
}

/// Run `workloads` under every configuration; panics (with the workload
/// and configuration named) if any run fails validation — figures are only
/// produced from verified-correct executions.
///
/// The workload × configuration matrix runs in parallel: every cell is an
/// independent compile + simulate + validate with its own `DeviceMemory`,
/// so cells are spread over `std::thread::scope` threads and joined back
/// in input order. The output is deterministic and identical to
/// [`measure_serial`] regardless of thread count or scheduling.
pub fn measure(
    workloads: &[Box<dyn Workload>],
    configs: &[CompilerConfig],
    scale: Scale,
) -> Vec<Measurement> {
    let dev = DeviceConfig::k20xm();
    let threads = pool_threads();
    if threads <= 1 || workloads.len() * configs.len() <= 1 {
        return measure_serial(workloads, configs, scale);
    }
    // One scoped thread per matrix cell, throttled by chunking: cell
    // (i, k) lands at flat index i * ncols + k, and each thread walks a
    // strided slice of the flat index space. Results are written into a
    // preallocated slot table, so join order cannot reorder them.
    let ncols = configs.len();
    let ncells = workloads.len() * ncols;
    let nthreads = threads.min(ncells);
    // Exec-knob scopes are per thread: the pool re-enters the caller's.
    let knobs = ExecOptions::current();
    let mut cells: Vec<Option<f64>> = vec![None; ncells];
    let panicked = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(nthreads);
        // Strided assignment: thread t owns flat indices t, t+n, t+2n, …
        // so long-running workloads spread across threads.
        let mut slots: Vec<Vec<(usize, &mut Option<f64>)>> =
            (0..nthreads).map(|_| Vec::new()).collect();
        for (flat, slot) in cells.iter_mut().enumerate() {
            slots[flat % nthreads].push((flat, slot));
        }
        for thread_slots in slots {
            let dev = &dev;
            handles.push(s.spawn(move || {
                knobs.scope(|| {
                    for (flat, slot) in thread_slots {
                        let w = &workloads[flat / ncols];
                        let cfg = &configs[flat % ncols];
                        let (report, _) = run_workload(w.as_ref(), cfg, scale, dev)
                            .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name(), cfg.name));
                        *slot = Some(report.total_cycles());
                    }
                })
            }));
        }
        let mut panicked = None;
        for h in handles {
            if let Err(p) = h.join() {
                panicked.get_or_insert(p);
            }
        }
        panicked
    });
    if let Some(p) = panicked {
        std::panic::resume_unwind(p);
    }
    workloads
        .iter()
        .enumerate()
        .map(|(i, w)| Measurement {
            workload: w.name(),
            cycles: (0..ncols).map(|k| cells[i * ncols + k].expect("cell computed")).collect(),
        })
        .collect()
}

/// The sequential reference implementation of [`measure`]: one cell at a
/// time in row-major input order. Used for determinism A/B tests and as
/// the fallback on single-core machines.
pub fn measure_serial(
    workloads: &[Box<dyn Workload>],
    configs: &[CompilerConfig],
    scale: Scale,
) -> Vec<Measurement> {
    let dev = DeviceConfig::k20xm();
    workloads
        .iter()
        .map(|w| {
            let cycles = configs
                .iter()
                .map(|cfg| {
                    let (report, _) = run_workload(w.as_ref(), cfg, scale, &dev)
                        .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name(), cfg.name));
                    report.total_cycles()
                })
                .collect();
            Measurement { workload: w.name(), cycles }
        })
        .collect()
}

/// Render a speedup table: column `k` shows `cycles[0] / cycles[k]`
/// (baseline = first configuration), plus a geometric-mean "average" row
/// — the shape of the paper's Figs. 7, 9 and 10.
pub fn speedup_table(headers: &[&str], rows: &[Measurement]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut s = String::new();
    write!(s, "{:<16}", "benchmark").unwrap();
    for h in &headers[1..] {
        write!(s, "{h:>24}").unwrap();
    }
    s.push('\n');
    let ncols = headers.len() - 1;
    let mut geo = vec![0.0f64; ncols];
    for m in rows {
        write!(s, "{:<16}", m.workload).unwrap();
        for (g, c) in geo.iter_mut().zip(&m.cycles[1..]) {
            let sp = m.cycles[0] / c;
            *g += sp.ln();
            write!(s, "{sp:>24.3}").unwrap();
        }
        s.push('\n');
    }
    write!(s, "{:<16}", "average").unwrap();
    for g in &geo {
        write!(s, "{:>24.3}", (g / rows.len() as f64).exp()).unwrap();
    }
    s.push('\n');
    s
}

/// Render a normalized-execution-time table in the shape of Figs. 11/12:
/// each cell is `t(config) / max(t(first), t(last))` — the paper
/// normalizes against the slower of OpenUH-base and PGI, so every bar is
/// ≤ 1 and lower is better.
pub fn normalized_table(headers: &[&str], rows: &[Measurement]) -> String {
    let mut s = String::new();
    write!(s, "{:<16}", "benchmark").unwrap();
    for h in headers {
        write!(s, "{h:>28}").unwrap();
    }
    s.push('\n');
    for m in rows {
        let denom = m.cycles.first().unwrap().max(*m.cycles.last().unwrap());
        write!(s, "{:<16}", m.workload).unwrap();
        for c in &m.cycles {
            write!(s, "{:>28.3}", c / denom).unwrap();
        }
        s.push('\n');
    }
    s
}

/// Geometric-mean speedup of column `k` (vs column 0) across rows —
/// convenience for EXPERIMENTS.md reporting and for tests.
pub fn geomean_speedup(rows: &[Measurement], k: usize) -> f64 {
    if rows.is_empty() {
        return 1.0;
    }
    let sum: f64 = rows.iter().map(|m| (m.cycles[0] / m.cycles[k]).ln()).sum();
    (sum / rows.len() as f64).exp()
}

/// Best (maximum) speedup of column `k` across rows, with the workload
/// that achieves it.
pub fn best_speedup(rows: &[Measurement], k: usize) -> (f64, &'static str) {
    rows.iter()
        .map(|m| (m.cycles[0] / m.cycles[k], m.workload))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((1.0, "-"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Measurement> {
        vec![
            Measurement { workload: "a", cycles: vec![100.0, 50.0, 25.0] },
            Measurement { workload: "b", cycles: vec![100.0, 100.0, 200.0] },
        ]
    }

    /// The crate doc's binary table and `src/bin/` name the same set.
    #[test]
    fn crate_doc_lists_exactly_the_bins() {
        let mut listed: Vec<&str> = include_str!("lib.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! | `")?.split('`').next())
            .collect();
        listed.sort_unstable();
        let mut bins: Vec<String> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
            .unwrap()
            .map(|e| e.unwrap().path().file_stem().unwrap().to_str().unwrap().to_owned())
            .collect();
        bins.sort_unstable();
        assert_eq!(listed, bins);
    }

    #[test]
    fn speedup_table_renders_and_geomeans() {
        let t = speedup_table(&["base", "opt1", "opt2"], &rows());
        assert!(t.contains("average"));
        // geo mean of (2, 1) = sqrt(2).
        assert!((geomean_speedup(&rows(), 1) - 2.0f64.sqrt()).abs() < 1e-12);
        // column 2: (4, 0.5) → geo = sqrt(2)
        assert!((geomean_speedup(&rows(), 2) - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn best_speedup_picks_max() {
        let (s, w) = best_speedup(&rows(), 2);
        assert_eq!(w, "a");
        assert!((s - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rows_are_handled() {
        assert_eq!(speedup_table(&["base", "opt"], &[]), "");
        assert_eq!(geomean_speedup(&[], 1), 1.0);
        assert_eq!(best_speedup(&[], 1), (1.0, "-"));
    }

    #[test]
    fn normalized_table_bars_at_most_one() {
        let t = normalized_table(&["base", "mid", "last"], &rows());
        for line in t.lines().skip(1) {
            for cell in line.split_whitespace().skip(1) {
                let v: f64 = cell.parse().unwrap();
                assert!(v <= 1.0 + 1e-9, "{t}");
            }
        }
    }
}
