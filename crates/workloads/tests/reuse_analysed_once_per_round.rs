//! A compile analyses each offload region's reuse once per SAFARA round:
//! the `analysis` phase's pass is round 1's input, and every later round
//! analyses the body the round before it produced. Counted exactly by
//! `reuse_analyses()`, beside `find_reuse_groups`.
//!
//! Each of 355.seismic and 356.sp under `safara_only` is one region and
//! two SAFARA passes: two analyses. (Before the phase fed round 1, each
//! took three: the phase's, then one per pass.)

use safara_core::analysis::reuse::reuse_analyses;
use safara_core::obs::{MetaValue, Span, Tracer};
use safara_core::{compile_traced, CompilerConfig};
use safara_workloads::spec_suite;

fn walk<'a>(spans: &'a [Span], out: &mut Vec<&'a Span>) {
    for s in spans {
        out.push(s);
        walk(&s.children, out);
    }
}

fn int(s: &Span, key: &str) -> Option<i64> {
    match s.meta_get(key) {
        Some(MetaValue::Int(v)) => Some(*v),
        _ => None,
    }
}

#[test]
fn each_region_is_analysed_once_per_round() {
    for (name, regions, rounds) in [("355.seismic", 1, 2), ("356.sp", 1, 2)] {
        let w = spec_suite().into_iter().find(|w| w.name() == name).expect(name);
        let src = w.source();
        let mut tracer = Tracer::new();
        let before = reuse_analyses();
        let program =
            compile_traced(&src, &CompilerConfig::safara_only(), &mut tracer).expect(name);
        let analyses = reuse_analyses() - before;

        let spans = tracer.finish();
        let mut all = Vec::new();
        walk(&spans, &mut all);
        let analysis = all.iter().find(|s| s.name == "analysis").expect("an analysis phase");
        assert_eq!(int(analysis, "regions"), Some(regions), "{name}: regions");
        // A round that ran its SAFARA pass records what the pass added; a
        // round that stopped on a spent budget ran none.
        let passes =
            all.iter().filter(|s| s.name == "round" && int(s, "temps_added").is_some()).count()
                as i64;
        assert_eq!(passes, rounds, "{name}: SAFARA passes");
        assert_eq!(program.functions.len(), 1, "{name}: one function");
        assert_eq!(analyses as i64, regions * passes, "{name}: analyses");
    }
}
