//! The launch memo keys each buffer byte once: a warm `run_cached` of
//! 355.seismic (seven kernels over one set of arrays at test scale) or 354.cg (which
//! also seeds reduction slots) feeds the buffer-key hasher exactly what
//! the run uploaded plus the slots it seeded, however many kernels
//! launch over those buffers. (Hashing all of device memory per launch,
//! it was the sum over launches of every buffer allocated so far.)
//!
//! Keys live in the arrays' shared allocations, so running a clone of
//! arguments that have run before hashes nothing but fresh reduction
//! slots, and its replay hands back the memo's own allocations.

use safara_core::codegen::abi::AbiParam;
use safara_core::gpusim::SharedBytes;
use safara_core::{compile, Args, CompilerConfig, DeviceConfig, LaunchCache, SharedLaunchCache};
use safara_workloads::{spec_suite, Scale};

#[test]
fn a_warm_run_hashes_its_uploaded_and_seeded_bytes_once() {
    keyed_once("355.seismic", false);
    keyed_once("354.cg", true);
}

fn keyed_once(name: &str, seeds_slots: bool) {
    let w = spec_suite().into_iter().find(|w| w.name() == name).expect(name);
    let program = compile(&w.source(), &CompilerConfig::safara_only()).expect("compile");
    let dev = DeviceConfig::k20xm();
    let kernels = &program.function(w.entry()).expect("entry").kernels;
    // Bytes of the reduction slots each launch allocates and seeds.
    let seeded: Vec<u64> = kernels
        .iter()
        .map(|k| {
            k.kernel.abi.params.iter().map(|p| match p {
                AbiParam::ReductionSlot { ty, .. } => ty.size_bytes() as u64,
                _ => 0,
            })
            .sum()
        })
        .collect();
    assert!(kernels.len() >= 2, "the point is several launches over the same buffers");
    assert_eq!(seeded.iter().any(|&b| b > 0), seeds_slots);

    let mut cache = LaunchCache::new();
    let mut cold_args = w.args(Scale::Test);
    let cold = program.run_cached(w.entry(), &mut cold_args, &dev, &mut cache).expect("cold run");
    assert_eq!((cache.hits, cache.misses), (0, kernels.len() as u64));
    let cold_hashed = cache.bytes_hashed;

    let mut args = w.args(Scale::Test);
    let warm = program.run_cached(w.entry(), &mut args, &dev, &mut cache).expect("warm run");
    assert_eq!(cache.hits, kernels.len() as u64, "every launch replayed");
    assert_eq!(warm, cold);
    assert_eq!(args, cold_args, "memo hit ≡ miss");
    let once = warm.h2d_bytes + seeded.iter().sum::<u64>();
    assert_eq!(cache.bytes_hashed - cold_hashed, once, "each byte keyed once");

    // What hashing every buffer on every launch read: launch k sees the
    // uploads and the slots of launches 1..=k.
    let per_launch: u64 = (0..kernels.len())
        .map(|k| warm.h2d_bytes + seeded[..=k].iter().sum::<u64>())
        .sum();
    println!(
        "{name} safara_only, Scale::Test: {} launches, keyed once {once} B, per launch {per_launch} B",
        kernels.len()
    );
    assert!(per_launch >= kernels.len() as u64 * warm.h2d_bytes);

    // A cold run adds the bytes its kernels wrote (each snapshot is
    // keyed as it is recorded), and nothing else.
    assert!(cold_hashed > once && cold_hashed < per_launch, "{cold_hashed}");

    // The shared cache counts the same bytes.
    let shared = SharedLaunchCache::new(4);
    for _ in 0..2 {
        let mut args = w.args(Scale::Test);
        safara_core::run_compiled(&program, w.entry(), &mut args, &dev, Some(&shared)).expect("shared run");
    }
    assert_eq!(shared.bytes_hashed(), cold_hashed + once);
}

#[test]
fn a_clone_of_run_arguments_hashes_nothing_and_copies_nothing() {
    rerun_a_clone("355.seismic", false);
    rerun_a_clone("354.cg", true);
}

fn rerun_a_clone(name: &str, seeds_slots: bool) {
    let w = spec_suite().into_iter().find(|w| w.name() == name).expect(name);
    let program = compile(&w.source(), &CompilerConfig::safara_only()).expect("compile");
    let dev = DeviceConfig::k20xm();
    let kernels = &program.function(w.entry()).expect("entry").kernels;
    let seeded: u64 = kernels
        .iter()
        .flat_map(|k| &k.kernel.abi.params)
        .map(|p| match p {
            AbiParam::ReductionSlot { ty, .. } => ty.size_bytes() as u64,
            _ => 0,
        })
        .sum();
    assert_eq!(seeded > 0, seeds_slots);

    let input = w.args(Scale::Test);
    let mut cache = LaunchCache::new();
    let mut first = input.clone();
    program.run_cached(w.entry(), &mut first, &dev, &mut cache).expect("first run");
    let hashed = cache.bytes_hashed;
    let mut again: Args = input.clone();
    program.run_cached(w.entry(), &mut again, &dev, &mut cache).expect("second run");
    assert_eq!(cache.hits, kernels.len() as u64, "every launch of the second run replayed");
    // Only the reduction slots each launch allocates and seeds are new
    // bytes; every array arrives with the key the first run put in it.
    assert_eq!(cache.bytes_hashed - hashed, seeded, "{name}: bytes hashed by the second run");
    assert_eq!(again, first, "memo hit ≡ miss");
    for (n, a) in &again.arrays {
        assert!(SharedBytes::ptr_eq(&a.bytes, &first.arrays[n].bytes), "{name}: `{n}` was copied");
    }
}
