//! Block-parallel differential coverage: the fig7 (SPEC-like) suite
//! must behave *identically* — reports, output buffers (raw bytes, so
//! f32 comparisons are bitwise), checker verdicts and injected-fault
//! errors — at every sim-thread count, under both engines that have a
//! worker pool. The reference engine has none: its serial run is the
//! oracle every cell is compared with.
//!
//! Every knob is set through a thread-local [`ExecOptions::scope`], so
//! these tests are safe under the parallel test runner.

use safara_core::chaos::{FaultPlan, FaultSpec};
use safara_core::gpusim::{last_parallel_info, Engine, ExecOptions, LaunchCache};
use safara_core::obs::Tracer;
use safara_core::{
    compile, compile_with_faults, run_compiled_with, CompilerConfig, DeviceConfig, Memo, RunCtx,
};
use safara_workloads::{run_workload_cached, spec_suite, Scale, Workload};

/// The engines `sim_threads` applies to.
const POOLED: [Engine; 2] = [Engine::Decoded, Engine::Superblock];

/// The knobs one observation runs under.
fn knobs(engine: Engine, sim_threads: u32) -> ExecOptions {
    ExecOptions::inherit().engine(engine).sim_threads(sim_threads)
}

/// Compile + run + check one workload under an engine × thread-count
/// pair, returning everything observable: the run report, the final
/// host arrays, and the checker verdict.
fn observe(
    w: &dyn Workload,
    engine: Engine,
    sim_threads: u32,
) -> (safara_core::RunReport, safara_core::Args, Result<(), String>) {
    knobs(engine, sim_threads).scope(|| {
        let config = CompilerConfig::safara_clauses();
        let dev = DeviceConfig::k20xm();
        let program = compile(&w.source(), &config).expect("compile");
        let mut args = w.args(Scale::Test);
        let report = program.run(w.entry(), &mut args, &dev).expect("run");
        let verdict = w.check(&args, Scale::Test);
        (report, args, verdict)
    })
}

/// The whole suite, both pooled engines, sim-threads 1 / 2 / auto:
/// bitwise the same observables as the reference engine's serial run.
/// The `sim_threads = 1` column also pins that an explicit 1 is the
/// serial path, not a one-worker pool with different behavior.
#[test]
fn fig7_suite_byte_identical_across_sim_threads_and_engines() {
    for w in spec_suite() {
        let (rep0, args0, chk0) = observe(w.as_ref(), Engine::Reference, 1);
        assert!(chk0.is_ok(), "{}: reference checker: {chk0:?}", w.name());
        for engine in POOLED {
            for threads in [1u32, 2, 0 /* auto */] {
                let (rep, args, chk) = observe(w.as_ref(), engine, threads);
                let tag = format!("{} [{engine:?}] sim_threads={threads}", w.name());
                assert_eq!(chk0, chk, "{tag}: checker verdict vs reference");
                assert_eq!(rep0, rep, "{tag}: RunReport vs reference");
                assert_eq!(args0, args, "{tag}: output buffers vs reference");
            }
        }
    }
}

/// The one reference cell: `sim_threads` does not reach the oracle. A
/// multi-block workload under a two-thread scope opens no worker pool
/// and observes what the one-thread run does.
#[test]
fn reference_engine_ignores_sim_threads() {
    let w = &spec_suite()[0];
    let serial = observe(w.as_ref(), Engine::Reference, 1);
    let pooled = observe(w.as_ref(), Engine::Reference, 2);
    assert_eq!(last_parallel_info(), None, "{}: the oracle opened a worker pool", w.name());
    assert_eq!(serial, pooled);
    // The same cell under the decoded engine does pool its last launch,
    // so the `None` above is not a one-block launch's.
    assert_eq!(serial, observe(w.as_ref(), Engine::Decoded, 2));
    assert!(last_parallel_info().is_some(), "{}: nothing here pools", w.name());
}

/// The atomics-heavy workloads (EP and CG both finish with f32 atomic
/// reductions, where merge *order* changes the bits) at deliberately
/// awkward worker counts. This is the test that fails loudly if the
/// ordered deferred-atomic reduction ever regresses to merge-on-arrival.
#[test]
fn atomic_reductions_bitwise_stable_at_any_worker_count() {
    let suite = spec_suite();
    let atomics: Vec<_> =
        suite.iter().filter(|w| ["352.ep", "354.cg"].contains(&w.name())).collect();
    assert_eq!(atomics.len(), 2, "expected the EP and CG reduction workloads in the suite");
    for w in atomics {
        let (rep1, args1, chk1) = observe(w.as_ref(), Engine::Reference, 1);
        assert!(chk1.is_ok(), "{}: reference checker: {chk1:?}", w.name());
        for engine in POOLED {
            for threads in [2u32, 3, 8] {
                let (rep, args, _) = observe(w.as_ref(), engine, threads);
                let tag = format!("{} [{engine:?}] sim_threads={threads}", w.name());
                assert_eq!(
                    args1, args,
                    "{tag}: atomic reduction bits differ from serial — the \
                     block-ordered deferred-atomic replay has regressed"
                );
                assert_eq!(rep1, rep, "{tag}: RunReport vs reference");
            }
        }
    }
}

/// Injected faults inside a (possibly parallel) launch must surface the
/// same typed error at every thread count: a 10-seed sweep with a
/// probabilistic `sim` fault (plus a deterministic one) must produce
/// per-seed outcomes — code/message/retryable or success — identical
/// across sim-threads 1 and 2, for both pooled engines. No deadlocked joins,
/// no poisoned state: the pool must stay usable after each failure.
#[test]
fn chaos_sweep_errors_identical_across_sim_threads() {
    let w = &spec_suite()[0];
    let config = CompilerConfig::safara_clauses();
    let dev = DeviceConfig::k20xm();
    let outcome =
        |engine: Engine, threads: u32, seed: u64, spec: &str| -> Result<(), (String, String, bool)> {
            knobs(engine, threads).scope(|| {
                let plan = FaultPlan::seeded(seed).with_spec(FaultSpec::parse(spec).unwrap());
                let mut args = w.args(Scale::Test);
                let mut tracer = Tracer::disabled();
                compile_with_faults(&w.source(), &config, &mut tracer, &plan)
                    .and_then(|program| {
                        let ctx = RunCtx { memo: Memo::Off, tracer: &mut tracer, faults: &plan };
                        run_compiled_with(&program, w.entry(), &mut args, &dev, ctx)
                    })
                    .map(|_| ())
                    .map_err(|e| (e.code().to_string(), e.to_string(), e.retryable()))
            })
        };
    for engine in POOLED {
        for seed in 1..=10u64 {
            for spec in ["sim:fail:0.5", "sim:fail:1"] {
                let serial = outcome(engine, 1, seed, spec);
                let pooled = outcome(engine, 2, seed, spec);
                assert_eq!(
                    serial, pooled,
                    "[{engine:?}] seed {seed} spec {spec}: serial vs sim_threads=2"
                );
            }
        }
        // The deterministic spec must actually fail, with the typed
        // simulator code, under the pool — and the pool must still run
        // cleanly afterwards (no deadlock, no poisoned cache).
        let (code, _, retryable) =
            outcome(engine, 2, 1, "sim:fail:1").expect_err("sim:fail:1 must fail");
        assert_eq!(code, "sim");
        assert!(retryable);
        outcome(engine, 2, 1, "sim:fail:0").expect("pool must stay usable after a failure");
    }
}

/// The sim-thread count must never leak into the memo content key
/// (`LaunchConfig`, which the launch key hashes field by field, is
/// geometry only): a cache warmed by a serial run replays — pure hits,
/// zero misses — under a parallel run of the same workload.
#[test]
fn memo_content_hash_independent_of_sim_threads() {
    let w = &spec_suite()[0];
    let config = CompilerConfig::safara_clauses();
    let dev = DeviceConfig::k20xm();
    let mut cache = LaunchCache::new();
    ExecOptions::inherit()
        .sim_threads(1)
        .scope(|| run_workload_cached(w.as_ref(), &config, Scale::Test, &dev, &mut cache))
        .expect("serial warm run");
    let (h0, m0) = (cache.hits, cache.misses);
    assert!(m0 > 0, "warm run must have populated the cache");
    ExecOptions::inherit()
        .sim_threads(4)
        .scope(|| run_workload_cached(w.as_ref(), &config, Scale::Test, &dev, &mut cache))
        .expect("parallel cached run");
    assert_eq!(cache.misses, m0, "a parallel run must not re-key any launch");
    assert!(cache.hits > h0, "the parallel run must replay from the serial-warmed cache");
}
