//! The lockstep engine runs `sin` and `cos` of one operand as one pair
//! step. On the fig7 suite, 314.omriq (`cos(arg); sin(arg)` in f32) and
//! 352.ep (its Box–Muller pair in f64) execute pair steps in every
//! launch, the other eight workloads none, and the decoded and reference
//! engines none at all.
//!
//! This is the only test of its binary on purpose: the fusion counters
//! are process-wide, and the `sb_trig_pairs` span metadata is a delta of
//! them.

use safara_core::chaos::FaultPlan;
use safara_core::gpusim::{fusion_counters, Engine, ExecOptions};
use safara_core::obs::{MetaValue, Span, Tracer};
use safara_core::{compile, run_compiled_with, CompilerConfig, DeviceConfig, Memo, RunCtx};
use safara_workloads::{spec_suite, Scale};

fn launches<'a>(spans: &'a [Span], out: &mut Vec<&'a Span>) {
    for s in spans {
        if s.name == "launch" {
            out.push(s);
        }
        launches(&s.children, out);
    }
}

#[test]
fn pair_steps_run_on_omriq_and_ep_only() {
    let dev = DeviceConfig::k20xm();
    for config in [CompilerConfig::base(), CompilerConfig::safara_only()] {
        for w in spec_suite() {
            let program = compile(&w.source(), &config).expect("compile");
            let paired = matches!(w.name(), "314.omriq" | "352.ep");
            let at = format!("{} under {}", w.name(), config.name);
            for engine in [Engine::Reference, Engine::Decoded] {
                let before = fusion_counters().trig_pairs;
                ExecOptions::inherit().engine(engine).scope(|| {
                    let mut args = w.args(Scale::Test);
                    program.run(w.entry(), &mut args, &dev).expect("run");
                });
                assert_eq!(fusion_counters().trig_pairs, before, "{at}, {}", engine.name());
            }
            let mut tracer = Tracer::new();
            ExecOptions::inherit().engine(Engine::Superblock).scope(|| {
                let mut args = w.args(Scale::Test);
                let plan = FaultPlan::none();
                let ctx = RunCtx { memo: Memo::Off, tracer: &mut tracer, faults: &plan };
                run_compiled_with(&program, w.entry(), &mut args, &dev, ctx).expect("run");
                w.check(&args, Scale::Test).expect("checker");
            });
            let spans = tracer.finish();
            let mut all = Vec::new();
            launches(&spans, &mut all);
            assert!(!all.is_empty(), "{at}: no launch");
            for (k, s) in all.iter().enumerate() {
                let Some(MetaValue::Int(pairs)) = s.meta_get("sb_trig_pairs") else {
                    panic!("{at}: launch {k} has no sb_trig_pairs")
                };
                assert_eq!(*pairs > 0, paired, "{at}: launch {k} ran {pairs} pair steps");
            }
        }
    }
}
