//! Three-way engine differential coverage: the fig7 (SPEC-like) suite
//! must behave *identically* — reports, output buffers, checker verdicts
//! and injected-fault errors — under the reference tree-walker, the
//! decoded engine, and the profile-guided superblock engine.
//!
//! Every knob is set through a thread-local [`ExecOptions::scope`], so
//! these tests are safe under the parallel test runner.

use safara_core::chaos::{FaultPlan, FaultSpec};
use safara_core::gpusim::{fusion_counters, Engine, ExecOptions, SharedBytes};
use safara_core::ir::Ident;
use safara_core::obs::Tracer;
use safara_core::runtime::HostArray;
use safara_core::{
    compile, compile_with_faults, run_compiled_with, Args, CompilerConfig, DeviceConfig,
    LaunchCache, Memo, RunCtx,
};
use safara_workloads::{spec_suite, Scale, Workload};

const ENGINES: [Engine; 3] = [Engine::Reference, Engine::Decoded, Engine::Superblock];

/// The knobs one observation runs under.
fn under(engine: Engine) -> ExecOptions {
    ExecOptions::inherit().engine(engine)
}

/// Compile + run + check one workload, returning everything observable:
/// the run report, the final host arrays, and the checker verdict.
fn observe(
    w: &dyn Workload,
    knobs: ExecOptions,
) -> (safara_core::RunReport, safara_core::Args, Result<(), String>) {
    knobs.scope(|| {
        let config = CompilerConfig::safara_clauses();
        let dev = DeviceConfig::k20xm();
        let program = compile(&w.source(), &config).expect("compile");
        let mut args = w.args(Scale::Test);
        let report = program.run(w.entry(), &mut args, &dev).expect("run");
        let verdict = w.check(&args, Scale::Test);
        (report, args, verdict)
    })
}

#[test]
fn fig7_suite_byte_identical_across_engines() {
    let before = fusion_counters();
    for w in spec_suite() {
        let (rep_ref, args_ref, chk_ref) = observe(w.as_ref(), under(Engine::Reference));
        let (rep_dec, args_dec, chk_dec) = observe(w.as_ref(), under(Engine::Decoded));
        let (rep_sb, args_sb, chk_sb) = observe(w.as_ref(), under(Engine::Superblock));
        assert!(chk_ref.is_ok(), "{}: reference checker: {chk_ref:?}", w.name());
        assert_eq!(chk_ref, chk_dec, "{}: checker verdict ref vs decoded", w.name());
        assert_eq!(chk_ref, chk_sb, "{}: checker verdict ref vs superblock", w.name());
        assert_eq!(rep_ref, rep_dec, "{}: RunReport reference vs decoded", w.name());
        assert_eq!(rep_dec, rep_sb, "{}: RunReport decoded vs superblock", w.name());
        assert_eq!(args_ref, args_dec, "{}: output buffers reference vs decoded", w.name());
        assert_eq!(args_dec, args_sb, "{}: output buffers decoded vs superblock", w.name());
    }
    // The identity above must come from the real fused path, not from
    // wholesale delegation: the sweep must have built superblocks and
    // executed lane-vectorized superinstructions.
    let after = fusion_counters();
    assert!(after.launches > before.launches, "superblock engine never entered");
    assert!(after.superblocks > before.superblocks, "no superblocks were built");
    assert!(after.vector_execs > before.vector_execs, "no lockstep superinstructions ran");
    assert!(after.scalar_execs > before.scalar_execs, "no hoisted superinstructions ran");
}

/// The memo replays what the engines compute: under each engine, a miss
/// and then a hit on clones of one argument set reproduce the plain run's
/// report and arrays, the atomics of 352.ep and 354.cg included, and the
/// three engines agree.
#[test]
fn fig7_suite_memo_hit_equals_miss_under_every_engine() {
    let config = CompilerConfig::safara_clauses();
    let dev = DeviceConfig::k20xm();
    let suite = spec_suite();
    for name in ["352.ep", "354.cg"] {
        assert!(suite.iter().any(|w| w.name() == name), "{name} left the suite");
    }
    for w in suite {
        let program = compile(&w.source(), &config).expect("compile");
        let input = w.args(Scale::Test);
        let mut seen = Vec::new();
        for engine in ENGINES {
            under(engine).scope(|| {
                let mut plain = input.clone();
                let report = program.run(w.entry(), &mut plain, &dev).expect("run");
                let mut cache = LaunchCache::new();
                for pass in ["miss", "hit"] {
                    let hits = cache.hits;
                    let mut args = input.clone();
                    let r = program.run_cached(w.entry(), &mut args, &dev, &mut cache).expect(pass);
                    let what = format!("{}: {pass} under {engine:?}", w.name());
                    assert_eq!(r, report, "{what}: report");
                    assert_eq!(args, plain, "{what}: arrays");
                    if pass == "hit" {
                        assert_eq!(cache.hits - hits, r.kernels.len() as u64, "{what}: replayed");
                    }
                }
                seen.push((report, plain));
            });
        }
        assert!(seen.windows(2).all(|p| p[0] == p[1]), "{}: the engines differ", w.name());
    }
}

/// Two names bound to clones of one array are one allocation. A store
/// through one name copies it; the other keeps its bytes (and its
/// allocation) under every engine, without the memo, on a miss and on a
/// hit.
#[test]
fn aliased_arrays_part_when_one_is_stored_to() {
    let src = r#"
    void twice(int n, const float a[n], float b[n]) {
      #pragma acc kernels
      {
        #pragma acc loop gang vector
        for (int i = 0; i < n; i++) { b[i] = b[i] + a[i]; }
      }
    }"#;
    let program = compile(src, &CompilerConfig::safara_only()).expect("compile");
    let dev = DeviceConfig::k20xm();
    let ramp: Vec<f32> = (0..300).map(|i| i as f32 * 0.5).collect();
    let doubled: Vec<f32> = ramp.iter().map(|v| v + v).collect();
    let one = HostArray::from_f32(&ramp);
    let mut input = Args::new().i32("n", 300);
    input.arrays.insert(Ident::new("a"), one.clone());
    input.arrays.insert(Ident::new("b"), one.clone());
    for engine in ENGINES {
        under(engine).scope(|| {
            let mut cache = LaunchCache::new();
            for pass in ["plain", "miss", "hit"] {
                let mut args = input.clone();
                match pass {
                    "plain" => program.run("twice", &mut args, &dev),
                    _ => program.run_cached("twice", &mut args, &dev, &mut cache),
                }
                .expect(pass);
                let (a, b) = (args.array("a").unwrap(), args.array("b").unwrap());
                let what = format!("{pass} under {engine:?}");
                assert!(SharedBytes::ptr_eq(&a.bytes, &one.bytes), "{what}: `a` was copied");
                assert_eq!(a.as_f32(), ramp, "{what}: `a` was written through `b`");
                assert_eq!(b.as_f32(), doubled, "{what}: `b`");
            }
            assert_eq!((cache.hits, cache.misses), (1, 1), "{engine:?}");
        });
    }
}

/// Shared-memory spilling is a *timing* reinterpretation layered on the
/// same engine-agnostic spill traffic, so the three engines must stay
/// byte-identical under it too: the fig7 suite compiled with the RegDem
/// profile (tight 40-register cap, `SpillTarget::Shared`) must produce
/// identical reports, buffers, and verdicts everywhere — and the tight
/// cap must actually force shared spills somewhere, or the test proves
/// nothing.
#[test]
fn fig7_suite_byte_identical_across_engines_with_shared_spilling() {
    let config = CompilerConfig::safara_regdem();
    let dev = DeviceConfig::k20xm();
    let observe = |w: &dyn Workload, engine: Engine| {
        under(engine).scope(|| {
            let program = compile(&w.source(), &config).expect("compile");
            let mut args = w.args(Scale::Test);
            let report = program.run(w.entry(), &mut args, &dev).expect("run");
            let verdict = w.check(&args, Scale::Test);
            (report, args, verdict)
        })
    };
    let mut shared_spills = 0u64;
    for w in spec_suite() {
        let (rep_ref, args_ref, chk_ref) = observe(w.as_ref(), Engine::Reference);
        let (rep_dec, args_dec, chk_dec) = observe(w.as_ref(), Engine::Decoded);
        let (rep_sb, args_sb, chk_sb) = observe(w.as_ref(), Engine::Superblock);
        assert!(chk_ref.is_ok(), "{}: reference checker: {chk_ref:?}", w.name());
        assert_eq!(chk_ref, chk_dec, "{}: checker verdict ref vs decoded", w.name());
        assert_eq!(chk_ref, chk_sb, "{}: checker verdict ref vs superblock", w.name());
        assert_eq!(rep_ref, rep_dec, "{}: RunReport reference vs decoded", w.name());
        assert_eq!(rep_dec, rep_sb, "{}: RunReport decoded vs superblock", w.name());
        assert_eq!(args_ref, args_dec, "{}: output buffers reference vs decoded", w.name());
        assert_eq!(args_dec, args_sb, "{}: output buffers decoded vs superblock", w.name());
        shared_spills += rep_ref.kernels.iter().map(|k| k.stats.shared_accesses).sum::<u64>();
        // Shared spilling redirects traffic, it never invents local
        // traffic: under this profile compiled kernels report none.
        for k in &rep_ref.kernels {
            assert!(
                k.stats.shared_accesses == 0 || k.stats.local_accesses == 0,
                "{}: kernel `{}` mixes shared and local spill traffic",
                w.name(),
                k.name
            );
        }
    }
    assert!(shared_spills > 0, "the 40-register cap never forced a shared spill");
}

/// Equality saturation only rewrites in the two's-complement integer
/// ring, so the extracted program must be **bitwise identical in
/// simulation output** to the unsaturated one — on every workload of
/// the fig7 suite, under every engine. Two profile pairs are compared:
/// plain SAFARA (factoring/strength-reduction territory) and the
/// all-clauses profile with saturation, which additionally exercises
/// the `small`-guarded narrowing and `dim`-group factoring paths.
#[test]
fn saturated_output_bitwise_identical_to_unsaturated() {
    let dev = DeviceConfig::k20xm();
    let observe = |w: &dyn Workload, config: &CompilerConfig, engine: Engine| {
        under(engine).scope(|| {
            let program = compile(&w.source(), config).expect("compile");
            let mut args = w.args(Scale::Test);
            program.run(w.entry(), &mut args, &dev).expect("run");
            let verdict = w.check(&args, Scale::Test);
            (args, verdict)
        })
    };
    let pairs = [
        (CompilerConfig::safara_only(), CompilerConfig::safara_saturated()),
        (
            CompilerConfig::safara_clauses(),
            CompilerConfig { name: "custom", saturate: true, ..CompilerConfig::safara_clauses() },
        ),
    ];
    for (greedy, saturated) in &pairs {
        for w in spec_suite() {
            let (args_g, chk_g) = observe(w.as_ref(), greedy, Engine::Reference);
            assert!(chk_g.is_ok(), "{}: greedy checker: {chk_g:?}", w.name());
            for engine in [Engine::Reference, Engine::Decoded, Engine::Superblock] {
                let (args_s, chk_s) = observe(w.as_ref(), saturated, engine);
                assert_eq!(chk_g, chk_s, "{}: checker verdict under {engine:?}", w.name());
                assert_eq!(
                    args_g,
                    args_s,
                    "{}: saturated output diverges bitwise under {engine:?}",
                    w.name()
                );
            }
        }
    }
}

/// Injected faults must surface the same typed error no matter which
/// engine is selected: a 10-seed sweep with a probabilistic `sim` fault
/// (plus a deterministic one) must produce per-seed outcomes —
/// code/phase/retryable/message or success — identical across engines.
#[test]
fn chaos_sweep_errors_identical_across_engines() {
    let w = &spec_suite()[0];
    let config = CompilerConfig::safara_clauses();
    let dev = DeviceConfig::k20xm();
    let outcome = |engine: Engine, seed: u64, spec: &str| -> Result<(), (String, String, bool)> {
        under(engine).scope(|| {
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
    for seed in 1..=10u64 {
        for spec in ["sim:fail:0.5", "sim:fail:1"] {
            let r = outcome(Engine::Reference, seed, spec);
            let d = outcome(Engine::Decoded, seed, spec);
            let s = outcome(Engine::Superblock, seed, spec);
            assert_eq!(r, d, "seed {seed} spec {spec}: reference vs decoded");
            assert_eq!(d, s, "seed {seed} spec {spec}: decoded vs superblock");
        }
    }
    // The deterministic spec must actually fail, and with the typed
    // simulator code, on every engine.
    for e in [Engine::Reference, Engine::Decoded, Engine::Superblock] {
        let r = outcome(e, 1, "sim:fail:1");
        let (code, _, retryable) = r.expect_err("sim:fail:1 must fail");
        assert_eq!(code, "sim");
        assert!(retryable);
    }
}
