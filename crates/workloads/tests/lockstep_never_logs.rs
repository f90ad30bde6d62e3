//! The superblock engine's lockstep path accounts memory per warp and
//! logs nothing per lane: on 314.omriq — all uniform k-space loads and
//! bounds-guard peels — a launch from a warm program cache must not move
//! `lane_events_logged` at all.
//!
//! This is the only test of its binary on purpose: the fusion counters
//! are process-wide, and any other test that enters the superblock engine
//! (profiling warps log per lane) would move them under this one.

use safara_core::gpusim::{fusion_counters, Engine, ExecOptions};
use safara_core::{compile, CompilerConfig, DeviceConfig};
use safara_workloads::{spec_suite, Scale};

#[test]
fn omriq_from_a_warm_program_cache_logs_no_lane_event() {
    let w = spec_suite().into_iter().find(|w| w.name() == "314.omriq").expect("314.omriq");
    let program = compile(&w.source(), &CompilerConfig::safara_only()).expect("compile");
    let dev = DeviceConfig::k20xm();
    let run = || {
        let mut args = w.args(Scale::Test);
        let report = program.run(w.entry(), &mut args, &dev).expect("run");
        w.check(&args, Scale::Test).expect("checker");
        report
    };
    ExecOptions::inherit().engine(Engine::Superblock).scope(|| {
        let cold = run(); // profiles, builds and caches every kernel's program
        let before = fusion_counters();
        let warm = run();
        let after = fusion_counters();
        assert_eq!(cold, warm, "a cached program changes nothing observable");
        assert!(after.launches > before.launches);
        assert_eq!(after.delegated, before.delegated);
        assert_eq!(after.superblocks, before.superblocks, "the program cache was cold");
        assert!(after.groups_accounted > before.groups_accounted);
        assert_eq!(
            after.lane_events_logged, before.lane_events_logged,
            "the lockstep path logged per lane"
        );
    });
}
