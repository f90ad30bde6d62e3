//! Wall-clock benchmark of the simulator engines on the fig7 SPEC suite
//! (workloads × {base, SAFARA-only} at `Scale::Bench`), writing
//! `BENCH_sim.json`.
//!
//! Nine configurations are timed:
//!
//! 1. `seed_reference_serial` — the pre-decoded-engine baseline: the
//!    reference tree-walking interpreter, one cell at a time,
//! 2. `decoded_serial` — the flat-opcode decoded engine, serial,
//! 3. `superblock_serial` — the profile-guided superblock engine, serial,
//!    cold, memoization disabled (the ISSUE-5 acceptance row: must be
//!    ≥ 1.4× over `decoded_serial`),
//! 4. `decoded_memoized_cold` — decoded engine + launch memoization
//!    starting from an empty cache (pays hashing + recording),
//! 5. `decoded_memoized_warm` — the same run again with the populated
//!    cache: every launch replays, no simulation at all,
//! 6. `superblock_memoized_warm` — warm cache under the superblock
//!    engine (memoization composes with engine selection),
//! 7. `parallel_measure` — the parallel `measure()` pool,
//! 8. `parallel_decoded` — the decoded engine with block-parallel
//!    launch execution (scoped worker pool inside gpusim; see
//!    `--sim-threads`, default `auto`),
//! 9. `parallel_superblock` — block-parallel superblock engine.
//!
//! Every row records the engine variant it ran and the thread count it
//! actually used per launch (serial rows: 1; `parallel_measure`:
//! `pool_threads()`; `parallel_*`: the high-water mark reported by
//! `max_sim_threads_used()` — on a single-core machine `auto` resolves
//! to 1 and the parallel rows honestly report serial-equivalent times),
//! and the JSON carries the superblock engine's cumulative fusion/hoist
//! counters. Each row also records the compiler-side `goal` and
//! `spill_target` its suite compiled under (the wallclock rows all use
//! the defaults, `min_registers`/`local`), and an `opt_goal` section
//! reports the modelled-cycle ablation of the three SAFARA policies
//! (count-saturating vs occupancy-aware vs RegDem shared-spill),
//! matching `results/ablation_opt_goal.txt`.
//!
//! Between every pair of configurations the outputs are checked to be
//! identical (each workload's `check` validates results, and stats feed
//! the same figure pipeline), so the speedups below are for
//! *stats-identical* runs. The parallel `measure()` path is timed last;
//! on single-core machines it falls back to serial and reports ~1×.
//!
//! Usage: `cargo run --release --bin bench_wallclock [--trace]
//! [--sim-threads N|auto] [cache-file]`
//! (default cache file: `target/bench_launch_cache.bin`; delete it to
//! re-measure cold). `--sim-threads` sets the worker-pool size for the
//! `parallel_*` rows (`auto` = one worker per available core). With
//! `--trace`, an extra pass runs every workload ×
//! config through the traced pipeline and writes a phase-level profile
//! (parse → sema → analysis → opt → codegen → regalloc → sim, in µs) to
//! `results/TRACE_sim.json`, so the BENCH numbers come with a breakdown
//! of where the time goes.

use safara_bench::{measure, pool_threads};
use safara_core::gpusim::{
    fusion_counters, max_sim_threads_used, parse_sim_threads, reset_max_sim_threads_used, Engine,
    ExecOptions,
};
use safara_core::obs::Tracer;
use safara_core::{compile_traced, run_compiled_traced, CompilerConfig, DeviceConfig, LaunchCache};
use safara_workloads::{run_workload, run_workload_cached, spec_suite, Scale, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// The root phases a traced compile + run records, in pipeline order.
const PHASES: [&str; 7] = ["parse", "sema", "analysis", "opt", "codegen", "regalloc", "sim"];

/// Run every workload × config through the traced pipeline and write
/// `results/TRACE_sim.json`: per-run phase durations plus aggregate
/// per-phase totals.
fn write_trace_profile(suite: &[Box<dyn Workload>], configs: &[CompilerConfig], dev: &DeviceConfig) {
    let mut totals = [0u64; PHASES.len()];
    let mut rows: Vec<String> = Vec::new();
    for w in suite {
        for cfg in configs {
            let mut tracer = Tracer::new();
            let mut args = w.args(Scale::Bench);
            let outcome = compile_traced(&w.source(), cfg, &mut tracer)
                .and_then(|p| run_compiled_traced(&p, w.entry(), &mut args, dev, None, &mut tracer))
                .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name(), cfg.name));
            let spans = tracer.finish();
            let mut phases = String::new();
            for (i, phase) in PHASES.iter().enumerate() {
                let us = spans.iter().find(|s| s.name == *phase).map_or(0, |s| s.dur_us);
                totals[i] += us;
                let _ = write!(phases, "{}\"{phase}\": {us}", if i == 0 { "" } else { ", " });
            }
            rows.push(format!(
                "    {{ \"workload\": \"{}\", \"profile\": \"{}\", \"feedback_rounds\": {}, \"phases_us\": {{ {phases} }} }}",
                w.name(),
                cfg.name,
                outcome.feedback_rounds,
            ));
        }
    }
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"fig7 SPEC suite, workloads x [base, safara_only], Scale::Bench, traced\",");
    let _ = writeln!(json, "  \"phase_totals_us\": {{");
    for (i, phase) in PHASES.iter().enumerate() {
        let comma = if i + 1 == PHASES.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{phase}\": {}{comma}", totals[i]);
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"runs\": [");
    let _ = writeln!(json, "{}", rows.join(",\n"));
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/TRACE_sim.json", &json).expect("write results/TRACE_sim.json");
    eprintln!("wrote results/TRACE_sim.json");
}

fn time_suite(f: &mut dyn FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut trace = false;
    let mut sim_threads_req = 0u32; // 0 = auto: one worker per available core
    let mut cache_path: Option<String> = None;
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if a == "--trace" {
            trace = true;
        } else if a == "--sim-threads" {
            i += 1;
            let v = argv.get(i).expect("--sim-threads needs a value");
            sim_threads_req =
                parse_sim_threads(v).expect("--sim-threads: positive integer or `auto`");
        } else if let Some(v) = a.strip_prefix("--sim-threads=") {
            sim_threads_req =
                parse_sim_threads(v).expect("--sim-threads: positive integer or `auto`");
        } else {
            cache_path = Some(a.clone());
        }
        i += 1;
    }
    let cache_path = cache_path.unwrap_or_else(|| "target/bench_launch_cache.bin".to_string());
    let sim_threads_label =
        if sim_threads_req == 0 { "auto".to_string() } else { sim_threads_req.to_string() };
    let configs = [CompilerConfig::base(), CompilerConfig::safara_only()];
    let suite = spec_suite();
    let dev = DeviceConfig::k20xm();

    let serial = |cached: Option<&mut LaunchCache>| {
        let mut cache = cached;
        for w in &suite {
            for cfg in &configs {
                match cache.as_deref_mut() {
                    Some(c) => run_workload_cached(w.as_ref(), cfg, Scale::Bench, &dev, c),
                    None => run_workload(w.as_ref(), cfg, Scale::Bench, &dev),
                }
                .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name(), cfg.name));
            }
        }
    };

    // Every timed step names its engine, so an ambient `SAFARA_ENGINE`
    // cannot relabel a row.
    let on = |engine: Engine| ExecOptions::inherit().engine(engine);

    eprintln!("[1/9] seed reference interpreter, serial…");
    let t_seed = time_suite(&mut || on(Engine::Reference).scope(|| serial(None)));

    eprintln!("[2/9] decoded engine, serial…");
    let t_decoded = time_suite(&mut || on(Engine::Decoded).scope(|| serial(None)));

    eprintln!("[3/9] superblock engine, serial, cold, memo disabled…");
    let t_superblock = time_suite(&mut || on(Engine::Superblock).scope(|| serial(None)));

    eprintln!("[4/9] decoded + memoization, cold cache…");
    let _ = std::fs::remove_file(&cache_path);
    let mut cache = LaunchCache::with_disk(&cache_path);
    let t_cold = time_suite(&mut || on(Engine::Decoded).scope(|| serial(Some(&mut cache))));
    let (cold_hits, cold_misses) = (cache.hits, cache.misses);
    cache.save().expect("save launch cache");

    eprintln!("[5/9] decoded + memoization, warm cache…");
    let mut cache = LaunchCache::with_disk(&cache_path);
    let t_warm = time_suite(&mut || on(Engine::Decoded).scope(|| serial(Some(&mut cache))));
    let (warm_hits, warm_misses) = (cache.hits, cache.misses);

    eprintln!("[6/9] superblock + memoization, warm cache…");
    let mut cache = LaunchCache::with_disk(&cache_path);
    let t_sb_warm = time_suite(&mut || on(Engine::Superblock).scope(|| serial(Some(&mut cache))));

    eprintln!("[7/9] parallel measure()…");
    let threads = pool_threads();
    let t_parallel = time_suite(&mut || {
        let _ = on(Engine::Decoded).scope(|| measure(&suite, &configs, Scale::Bench));
    });

    eprintln!("[8/9] decoded engine, block-parallel (sim-threads {sim_threads_label})…");
    reset_max_sim_threads_used();
    let t_par_dec = time_suite(&mut || {
        on(Engine::Decoded).sim_threads(sim_threads_req).scope(|| serial(None))
    });
    let used_dec = max_sim_threads_used() as usize;

    eprintln!("[9/9] superblock engine, block-parallel (sim-threads {sim_threads_label})…");
    reset_max_sim_threads_used();
    let t_par_sb = time_suite(&mut || {
        on(Engine::Superblock).sim_threads(sim_threads_req).scope(|| serial(None))
    });
    let used_sb = max_sim_threads_used() as usize;

    eprintln!("[opt-goal] modelled-cycle ablation: count vs throughput vs RegDem…");
    let goal_configs = [
        CompilerConfig::base(),
        CompilerConfig::safara_only(),
        CompilerConfig::safara_throughput(),
        CompilerConfig::safara_regdem(),
    ];
    let goal_rows = measure(&suite, &goal_configs, Scale::Bench);
    let geomean = |k: usize| -> f64 {
        let sum: f64 = goal_rows.iter().map(|m| (m.cycles[0] / m.cycles[k]).ln()).sum();
        (sum / goal_rows.len() as f64).exp()
    };

    eprintln!("[egraph] modelled-cycle ablation: greedy vs saturated extraction…");
    let egraph_configs = [
        CompilerConfig::base(),
        CompilerConfig::safara_only(),
        CompilerConfig::safara_saturated(),
        CompilerConfig::builder()
            .safara(true)
            .saturate(true)
            .goal(safara_core::opt::OptGoal::MaxThroughput)
            .build(),
    ];
    let egraph_rows = measure(&suite, &egraph_configs, Scale::Bench);
    let egraph_geomean = |k: usize| -> f64 {
        let sum: f64 = egraph_rows.iter().map(|m| (m.cycles[0] / m.cycles[k]).ln()).sum();
        (sum / egraph_rows.len() as f64).exp()
    };

    // The `stampede` section is merged into BENCH_sim.json from a
    // `server_bench --zipf` run; regenerating the file must not drop
    // it, so carry any existing section forward verbatim.
    let stampede = std::fs::read_to_string("BENCH_sim.json").ok().and_then(|old| {
        let start = old.find("  \"stampede\": {")?;
        let end = start + old[start..].find("\n  }")? + "\n  }".len();
        Some(old[start..end].to_string())
    });

    let fusion = fusion_counters();
    // (config, engine, memo, threads, seconds) — `threads` is the count
    // actually used per launch, not the one requested.
    let rows: [(&str, &str, &str, usize, f64); 9] = [
        ("seed_reference_serial", "reference", "none", 1, t_seed),
        ("decoded_serial", "decoded", "none", 1, t_decoded),
        ("superblock_serial", "superblock", "none", 1, t_superblock),
        ("decoded_memoized_cold", "decoded", "cold", 1, t_cold),
        ("decoded_memoized_warm", "decoded", "warm", 1, t_warm),
        ("superblock_memoized_warm", "superblock", "warm", 1, t_sb_warm),
        ("parallel_measure", "decoded", "none", threads, t_parallel),
        ("parallel_decoded", "decoded", "none", used_dec, t_par_dec),
        ("parallel_superblock", "superblock", "none", used_sb, t_par_sb),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"fig7 SPEC suite, workloads x [base, safara_only], Scale::Bench\",");
    let _ = writeln!(json, "  \"workloads\": {},", suite.len());
    let _ = writeln!(json, "  \"threads_available\": {threads},");
    let _ = writeln!(json, "  \"sim_threads_requested\": \"{sim_threads_label}\",");
    if threads == 1 {
        let _ = writeln!(
            json,
            "  \"note\": \"single-core host: `auto` resolves to 1 worker, so the parallel_* rows measure pool overhead at serial width; scaling needs a multi-core machine\","
        );
    }
    let _ = writeln!(json, "  \"rows\": [");
    // Every wallclock row runs the [base, safara_only] suite, i.e. the
    // default optimization goal and spill target; the fields make that
    // explicit so rows from future goal-sweeping runs are self-describing.
    for (i, (config, engine, memo, thr, secs)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"config\": \"{config}\", \"engine\": \"{engine}\", \"memo\": \"{memo}\", \"goal\": \"min_registers\", \"spill_target\": \"local\", \"threads\": {thr}, \"seconds\": {secs:.3}, \"speedup_vs_seed\": {:.2} }}{comma}",
            t_seed / secs
        );
    }
    let _ = writeln!(json, "  ],");
    // The opt-goal ablation section: modelled-cycle speedups over base
    // for the three SAFARA policies, matching results/ablation_opt_goal.txt
    // (same deterministic simulation, so the numbers agree exactly).
    let _ = writeln!(json, "  \"opt_goal\": {{");
    let _ = writeln!(
        json,
        "    \"benchmark\": \"fig7 suite, modelled cycles vs base: safara_only (goal=min_registers), safara_throughput (goal=max_throughput), safara_regdem (cap 40, spill_target=shared)\","
    );
    let _ = writeln!(json, "    \"table\": \"results/ablation_opt_goal.txt\",");
    let _ = writeln!(json, "    \"rows\": [");
    for (i, m) in goal_rows.iter().enumerate() {
        let comma = if i + 1 == goal_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{ \"workload\": \"{}\", \"speedup_count\": {:.3}, \"speedup_throughput\": {:.3}, \"speedup_regdem\": {:.3} }}{comma}",
            m.workload,
            m.cycles[0] / m.cycles[1],
            m.cycles[0] / m.cycles[2],
            m.cycles[0] / m.cycles[3]
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(
        json,
        "    \"geomean\": {{ \"count\": {:.3}, \"throughput\": {:.3}, \"regdem\": {:.3} }}",
        geomean(1),
        geomean(2),
        geomean(3)
    );
    let _ = writeln!(json, "  }},");
    // The equality-saturation ablation section: the e-graph phase ahead
    // of SAFARA (default off) vs greedy extraction, matching
    // results/ablation_egraph.txt.
    let _ = writeln!(json, "  \"egraph\": {{");
    let _ = writeln!(
        json,
        "    \"benchmark\": \"fig7 suite, modelled cycles vs base: safara_only (greedy), safara_saturated (e-graph phase, goal=min_registers), saturated+throughput (goal=max_throughput)\","
    );
    let _ = writeln!(json, "    \"table\": \"results/ablation_egraph.txt\",");
    let _ = writeln!(json, "    \"rows\": [");
    for (i, m) in egraph_rows.iter().enumerate() {
        let comma = if i + 1 == egraph_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{ \"workload\": \"{}\", \"speedup_greedy\": {:.3}, \"speedup_saturated\": {:.3}, \"speedup_saturated_throughput\": {:.3} }}{comma}",
            m.workload,
            m.cycles[0] / m.cycles[1],
            m.cycles[0] / m.cycles[2],
            m.cycles[0] / m.cycles[3]
        );
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(
        json,
        "    \"geomean\": {{ \"greedy\": {:.3}, \"saturated\": {:.3}, \"saturated_throughput\": {:.3} }}",
        egraph_geomean(1),
        egraph_geomean(2),
        egraph_geomean(3)
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"speedup_superblock_vs_decoded_serial\": {:.2},", t_decoded / t_superblock);
    let _ = writeln!(json, "  \"speedup_parallel_decoded_vs_serial\": {:.2},", t_decoded / t_par_dec);
    let _ = writeln!(json, "  \"speedup_parallel_superblock_vs_serial\": {:.2},", t_superblock / t_par_sb);
    let _ = writeln!(
        json,
        "  \"fusion\": {{ \"launches\": {}, \"delegated\": {}, \"hot_blocks\": {}, \"superblocks\": {}, \"fused_blocks\": {}, \"hoisted\": {}, \"scalar_execs\": {}, \"vector_execs\": {}, \"peels\": {} }},",
        fusion.launches,
        fusion.delegated,
        fusion.hot_blocks,
        fusion.superblocks,
        fusion.fused_blocks,
        fusion.hoisted,
        fusion.scalar_execs,
        fusion.vector_execs,
        fusion.peels
    );
    let _ = writeln!(
        json,
        "  \"cache\": {{ \"cold_hits\": {cold_hits}, \"cold_misses\": {cold_misses}, \"warm_hits\": {warm_hits}, \"warm_misses\": {warm_misses} }}{}",
        if stampede.is_some() { "," } else { "" }
    );
    if let Some(s) = &stampede {
        let _ = writeln!(json, "{s}");
    }
    json.push_str("}\n");

    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    print!("{json}");
    eprintln!("wrote BENCH_sim.json");

    if trace {
        eprintln!("[trace] phase-level profile…");
        write_trace_profile(&suite, &configs, &dev);
    }
}
