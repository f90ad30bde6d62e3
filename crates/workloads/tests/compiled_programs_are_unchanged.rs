//! Identity gate for the compiler: every workload compiled under every
//! named profile, under `safara_unroll(2)` and under SAFARA with
//! register caps 64 and 32 yields the same `CompiledProgram` and the
//! same transformed source as when the digest below was pinned.
//!
//! Performance work on the compile path (lexer, reuse analysis,
//! feedback rounds, lowering, register allocation) must leave this
//! digest alone. A change that means to alter a compile decision
//! updates [`DIGEST`] and says in its description why the output moved.

use safara_core::gpusim::content::ContentHasher;
use safara_core::{compile, CompilerConfig};
use safara_workloads::all_workloads;

/// `ContentKey` over every compile's `Debug` rendering and transformed
/// source, in workload-then-configuration order.
const DIGEST: u128 = 0x39d5c956bf0a5b53a590ceb617518872;

fn configs() -> Vec<CompilerConfig> {
    let mut configs: Vec<CompilerConfig> = CompilerConfig::PROFILE_KEYS
        .iter()
        .map(|k| CompilerConfig::by_name(k).expect("profile key resolves"))
        .collect();
    configs.push(CompilerConfig::safara_unroll(2));
    for reg_cap in [64, 32] {
        configs.push(CompilerConfig { reg_cap, ..CompilerConfig::safara_only() });
    }
    configs
}

#[test]
fn every_workload_compiles_to_the_pinned_programs() {
    let configs = configs();
    let mut h = ContentHasher::default();
    let mut compiles = 0;
    for w in all_workloads() {
        let src = w.source();
        for config in &configs {
            match compile(&src, config) {
                Ok(program) => {
                    h.bytes(format!("{program:?}").as_bytes());
                    for f in &program.functions {
                        h.bytes(f.transformed_source().as_bytes());
                    }
                }
                Err(e) => h.bytes(format!("{}/{}: {e:?}", w.name(), config.name).as_bytes()),
            }
            compiles += 1;
        }
    }
    assert_eq!(compiles, 16 * configs.len(), "16 workloads × every configuration");
    let got = h.key().0;
    assert_eq!(got, DIGEST, "compiled output moved: digest is now {got:#034x}");
}
