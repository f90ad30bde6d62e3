//! Per-workload engine timing probe: decoded vs superblock seconds and
//! the fusion-counter deltas each workload induces, followed by an
//! engine × sim-threads sweep over the block-parallel worker pool. A
//! diagnosis tool for the superblock engine's win/loss profile and the
//! parallel scaling curve, not part of the figure set.
//!
//! Usage: `cargo run --release --bin engine_probe`

use safara_core::gpusim::{
    fusion_counters, max_sim_threads_used, reset_max_sim_threads_used, Engine, ExecOptions,
};
use safara_core::{CompilerConfig, DeviceConfig};
use safara_workloads::{run_workload, spec_suite, Scale};
use std::time::Instant;

fn main() {
    let configs = [CompilerConfig::base(), CompilerConfig::safara_only()];
    let dev = DeviceConfig::k20xm();
    println!(
        "{:<14} {:>8} {:>8} {:>6}  {:>6} {:>8} {:>10} {:>10} {:>6}",
        "workload", "dec_s", "sb_s", "ratio", "sbs", "hoisted", "scalar", "vector", "peels"
    );
    for w in spec_suite() {
        let timed = |engine: Engine| {
            let t0 = Instant::now();
            ExecOptions::inherit().engine(engine).scope(|| {
                for cfg in &configs {
                    run_workload(w.as_ref(), cfg, Scale::Bench, &dev).unwrap();
                }
            });
            t0.elapsed().as_secs_f64()
        };
        let t_dec = timed(Engine::Decoded);
        let before = fusion_counters();
        let t_sb = timed(Engine::Superblock);
        let after = fusion_counters();

        println!(
            "{:<14} {:>8.3} {:>8.3} {:>6.2}  {:>6} {:>8} {:>10} {:>10} {:>6}",
            w.name(),
            t_dec,
            t_sb,
            t_dec / t_sb,
            after.superblocks - before.superblocks,
            after.hoisted - before.hoisted,
            after.scalar_execs - before.scalar_execs,
            after.vector_execs - before.vector_execs,
            after.peels - before.peels,
        );
    }

    // Engine × sim-threads sweep: the whole suite under each engine with
    // the block-parallel pool at 1 / 2 / 4 / auto workers. `used` is the
    // per-launch high-water mark (`max_sim_threads_used()`): on a
    // single-core machine `auto` resolves to 1 and the sweep shows a
    // flat (honest) scaling curve.
    println!();
    println!("engine x sim-threads sweep (whole suite, seconds):");
    println!(
        "{:<12} {:>10} {:>6} {:>8} {:>8}",
        "engine", "requested", "used", "secs", "vs_1thr"
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for engine in [Engine::Reference, Engine::Decoded, Engine::Superblock] {
        let mut t_one = 0.0f64;
        for req in [1u32, 2, 4, 0] {
            reset_max_sim_threads_used();
            let t0 = Instant::now();
            ExecOptions::inherit().engine(engine).sim_threads(req).scope(|| {
                for w in spec_suite() {
                    for cfg in &configs {
                        run_workload(w.as_ref(), cfg, Scale::Bench, &dev).unwrap();
                    }
                }
            });
            let secs = t0.elapsed().as_secs_f64();
            let used = max_sim_threads_used();
            if req == 1 {
                t_one = secs;
            }
            let label = if req == 0 { format!("auto({cores})") } else { req.to_string() };
            println!(
                "{:<12} {:>10} {:>6} {:>8.3} {:>8.2}",
                engine.name(),
                label,
                used,
                secs,
                t_one / secs,
            );
        }
    }
}
