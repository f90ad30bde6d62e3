//! Compiler configurations — the named points of the paper's evaluation.

use safara_analysis::cost::CostModel;
use safara_codegen::CodegenOptions;
use safara_gpusim::{DeviceConfig, SpillTarget};
use safara_opt::OptGoal;

/// Which scalar-replacement strategy runs (and how).
#[derive(Debug, Clone, PartialEq)]
pub enum SrStrategy {
    /// No scalar replacement.
    None,
    /// SAFARA with the iterative feedback loop and the given cost model.
    Safara {
        /// The candidate-ranking model (latency-aware or count-only).
        cost_model: CostModel,
        /// Disable the feedback loop: apply one unbounded round instead
        /// (an ablation of §III-B.2).
        feedback: bool,
    },
    /// Classical Carr–Kennedy: count-only moderation, inter-iteration
    /// reuse harvested on parallel loops (which are then sequentialized).
    CarrKennedy,
}

/// A complete compiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerConfig {
    /// Human-readable name (appears in reports and figures).
    pub name: &'static str,
    /// Back-end options (clause honoring, read-only cache, CSE, DCE).
    pub codegen: CodegenOptions,
    /// Scalar-replacement strategy.
    pub sr: SrStrategy,
    /// Per-thread hardware register cap the feedback loop targets
    /// (255 on Kepler).
    pub reg_cap: u32,
    /// Maximum feedback iterations (the paper's loop terminates when
    /// registers saturate; this is a safety bound).
    pub max_feedback_iters: u32,
    /// Unroll innermost sequential loops by this factor before scalar
    /// replacement (0/1 = off) — the paper's §VII future-work extension.
    pub unroll: u32,
    /// What the SAFARA feedback loop optimizes: the paper's
    /// register-saturating policy, or predicted throughput using the
    /// device occupancy model as a cost oracle.
    pub goal: OptGoal,
    /// Where register spills land (RegDem-style shared memory vs the
    /// hardware-default local memory).
    pub spill_target: SpillTarget,
    /// Run the equality-saturation phase (e-graph CSE / offset
    /// factoring / strength reduction / guarded narrowing) ahead of
    /// scalar replacement. Off by default; the driver re-validates the
    /// extracted program against the ptxas register model (or the
    /// occupancy oracle under [`OptGoal::MaxThroughput`]) and reverts
    /// any non-improvement, so turning it on can never regress.
    pub saturate: bool,
    /// Config-level `launch_bounds(T, B)` override applied to every
    /// kernel, exactly like compiling with `__launch_bounds__`: caps the
    /// register budget so `B` blocks of `T` threads stay resident. A
    /// region's own `launch_bounds` clause takes precedence per kernel.
    pub launch_bounds: Option<(u32, u32)>,
    /// The device whose occupancy rules drive the throughput goal, the
    /// `launch_bounds` cap arithmetic, and shared-spill capacity checks.
    pub device: DeviceConfig,
}

impl CompilerConfig {
    /// OpenUH baseline: competent codegen, clauses ignored, no SR.
    pub fn base() -> Self {
        CompilerConfig {
            name: "OpenUH(base)",
            codegen: CodegenOptions::base(),
            sr: SrStrategy::None,
            reg_cap: 255,
            max_feedback_iters: 8,
            unroll: 0,
            goal: OptGoal::MinRegisters,
            saturate: false,
            spill_target: SpillTarget::Local,
            launch_bounds: None,
            device: DeviceConfig::k20xm(),
        }
    }

    /// Baseline + SAFARA only (the paper's Fig. 7 configuration).
    pub fn safara_only() -> Self {
        CompilerConfig {
            name: "OpenUH(SAFARA)",
            sr: SrStrategy::Safara { cost_model: CostModel::default(), feedback: true },
            ..Self::base()
        }
    }

    /// Baseline honoring only the `small` clause.
    pub fn small() -> Self {
        CompilerConfig {
            name: "OpenUH(+small)",
            codegen: CodegenOptions { honor_small: true, ..CodegenOptions::base() },
            ..Self::base()
        }
    }

    /// Baseline honoring `small` and `dim`.
    pub fn small_dim() -> Self {
        CompilerConfig {
            name: "OpenUH(+small+dim)",
            codegen: CodegenOptions::default(),
            ..Self::base()
        }
    }

    /// The full proposal: `small` + `dim` + SAFARA (Fig. 9's best bars).
    pub fn safara_clauses() -> Self {
        CompilerConfig {
            name: "OpenUH(SAFARA+small+dim)",
            codegen: CodegenOptions::default(),
            sr: SrStrategy::Safara { cost_model: CostModel::default(), feedback: true },
            ..Self::base()
        }
    }

    /// SAFARA + `small` only (the NAS benchmarks have no VLAs, so `dim`
    /// does not apply — §V-C).
    pub fn safara_small() -> Self {
        CompilerConfig {
            name: "OpenUH(SAFARA+small)",
            codegen: CodegenOptions { honor_small: true, ..CodegenOptions::base() },
            sr: SrStrategy::Safara { cost_model: CostModel::default(), feedback: true },
            ..Self::base()
        }
    }

    /// Classical Carr–Kennedy scalar replacement (the foil of §III-A).
    pub fn carr_kennedy() -> Self {
        CompilerConfig {
            name: "CarrKennedy",
            sr: SrStrategy::CarrKennedy,
            ..Self::base()
        }
    }

    /// The simulated PGI-like commercial comparator (see DESIGN.md for
    /// the substitution rationale).
    pub fn pgi_like() -> Self {
        CompilerConfig {
            name: "PGI(simulated)",
            codegen: CodegenOptions::pgi_like(),
            ..Self::base()
        }
    }

    /// Ablation: SAFARA ranking candidates by reference count only
    /// (the Carr–Kennedy CPU metric) instead of `count × latency`.
    pub fn safara_count_only() -> Self {
        CompilerConfig {
            name: "SAFARA(count-only)",
            sr: SrStrategy::Safara { cost_model: CostModel::count_only(), feedback: true },
            ..Self::base()
        }
    }

    /// The §VII future-work extension: unroll innermost sequential loops
    /// before SAFARA, turning inter-iteration reuse into straight-line
    /// reuse.
    pub fn safara_unroll(factor: u32) -> Self {
        CompilerConfig {
            name: "OpenUH(SAFARA+clauses+unroll)",
            unroll: factor,
            ..Self::safara_clauses()
        }
    }

    /// Ablation: SAFARA without the iterative feedback loop (one round,
    /// unbounded budget).
    pub fn safara_no_feedback() -> Self {
        CompilerConfig {
            name: "SAFARA(no-feedback)",
            sr: SrStrategy::Safara { cost_model: CostModel::default(), feedback: false },
            ..Self::base()
        }
    }

    /// The occupancy-aware evaluation point: SAFARA whose feedback loop
    /// admits candidates through the device occupancy oracle instead of
    /// saturating the register count (ROADMAP item 2's tentpole).
    pub fn safara_throughput() -> Self {
        CompilerConfig {
            name: "SAFARA(throughput)",
            goal: OptGoal::MaxThroughput,
            ..Self::safara_only()
        }
    }

    /// The equality-saturation evaluation point: SAFARA preceded by the
    /// e-graph phase, so offset factoring / strength reduction /
    /// narrowing run before scalar replacement sees the region.
    pub fn safara_saturated() -> Self {
        CompilerConfig {
            name: "SAFARA(saturated)",
            saturate: true,
            ..Self::safara_only()
        }
    }

    /// The RegDem evaluation point (arXiv 1907.02894): SAFARA under a
    /// deliberately tight register cap so spilling happens, with the
    /// spills placed in shared memory instead of local. The cap of 40
    /// mirrors the paper's "high occupancy" operating point (40 regs ×
    /// 1280 regs/warp keeps 48+ warps resident at 128-thread blocks).
    pub fn safara_regdem() -> Self {
        CompilerConfig {
            name: "SAFARA(RegDem)",
            reg_cap: 40,
            spill_target: SpillTarget::Shared,
            ..Self::safara_only()
        }
    }

    /// The stable lookup keys services accept, one per named profile —
    /// see [`CompilerConfig::by_name`].
    pub const PROFILE_KEYS: [&'static str; PROFILES.len()] = {
        let mut keys = [""; PROFILES.len()];
        let mut i = 0;
        while i < keys.len() {
            keys[i] = PROFILES[i].0;
            i += 1;
        }
        keys
    };

    /// Resolve a profile by wire-protocol key (case-insensitive, `-`
    /// treated as `_`, surrounding blanks ignored). `None` for unknown
    /// keys.
    pub fn by_name(key: &str) -> Option<CompilerConfig> {
        profile(key).map(|named| named())
    }

    /// The `name` of the profile `key` resolves to, without allocating —
    /// every spelling of one profile gives the same string.
    pub fn canonical_name(key: &str) -> Option<&'static str> {
        profile(key).map(|named| named().name)
    }
}

type Named = fn() -> CompilerConfig;

/// The named evaluation points, one row each: the wire key that
/// resolves to it (lowercase, `_` for `-`) and its constructor.
/// [`CompilerConfig::safara_unroll`] takes a factor and has no key.
const PROFILES: [(&str, Named); 13] = [
    ("base", CompilerConfig::base),
    ("safara_only", CompilerConfig::safara_only),
    ("small", CompilerConfig::small),
    ("small_dim", CompilerConfig::small_dim),
    ("safara_clauses", CompilerConfig::safara_clauses),
    ("safara_small", CompilerConfig::safara_small),
    ("carr_kennedy", CompilerConfig::carr_kennedy),
    ("pgi_like", CompilerConfig::pgi_like),
    ("safara_count_only", CompilerConfig::safara_count_only),
    ("safara_no_feedback", CompilerConfig::safara_no_feedback),
    ("safara_throughput", CompilerConfig::safara_throughput),
    ("safara_regdem", CompilerConfig::safara_regdem),
    ("safara_saturated", CompilerConfig::safara_saturated),
];

/// The table row a wire key names.
fn profile(key: &str) -> Option<Named> {
    let key = key.trim().as_bytes();
    let normal = |b: &u8| if *b == b'-' { b'_' } else { b.to_ascii_lowercase() };
    PROFILES
        .iter()
        .find(|(k, _)| key.iter().map(normal).eq(k.bytes()))
        .map(|&(_, named)| named)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_expected_knobs() {
        assert!(!CompilerConfig::base().codegen.honor_small);
        assert!(CompilerConfig::small().codegen.honor_small);
        assert!(!CompilerConfig::small().codegen.honor_dim);
        assert!(CompilerConfig::small_dim().codegen.honor_dim);
        assert_eq!(CompilerConfig::base().sr, SrStrategy::None);
        assert!(matches!(CompilerConfig::safara_only().sr, SrStrategy::Safara { .. }));
        assert!(matches!(CompilerConfig::carr_kennedy().sr, SrStrategy::CarrKennedy));
        assert!(!CompilerConfig::pgi_like().codegen.use_readonly_cache);
    }

    #[test]
    fn by_name_resolves_every_key_and_rejects_unknown() {
        for key in CompilerConfig::PROFILE_KEYS {
            assert!(CompilerConfig::by_name(key).is_some(), "{key}");
        }
        // Spellings: case, `-` for `_`, surrounding blanks.
        assert_eq!(CompilerConfig::by_name("SAFARA-ONLY").unwrap().name, "OpenUH(SAFARA)");
        assert_eq!(CompilerConfig::by_name("carr-kennedy").unwrap().name, "CarrKennedy");
        assert_eq!(CompilerConfig::by_name(" Base ").unwrap().name, "OpenUH(base)");
        assert!(CompilerConfig::by_name("nvcc").is_none());
        // One key per profile: no second name for any of them.
        for alias in ["openuh", "safara", "safara_small_dim", "ck", "pgi", "regdem", "saturated"] {
            assert!(CompilerConfig::by_name(alias).is_none(), "{alias}");
        }
    }

    #[test]
    fn canonical_name_is_by_name_without_the_config() {
        for (key, named) in PROFILES {
            let shouted = format!(" {} ", key.to_ascii_uppercase().replace('_', "-"));
            assert_eq!(CompilerConfig::canonical_name(key), Some(named().name), "{key}");
            assert_eq!(CompilerConfig::canonical_name(&shouted), Some(named().name), "{shouted}");
        }
        assert_eq!(CompilerConfig::canonical_name("nvcc"), None);
        assert_eq!(CompilerConfig::canonical_name("OpenUH(SAFARA)"), None, "a name is not a key");
    }

    #[test]
    fn new_defaults_are_inert() {
        let cfg = CompilerConfig::base();
        assert_eq!(cfg.goal, OptGoal::MinRegisters);
        assert!(!cfg.saturate);
        assert_eq!(cfg.spill_target, SpillTarget::Local);
        assert_eq!(cfg.launch_bounds, None);
        assert_eq!(cfg.device, DeviceConfig::k20xm());
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            CompilerConfig::base().name,
            CompilerConfig::safara_only().name,
            CompilerConfig::small().name,
            CompilerConfig::small_dim().name,
            CompilerConfig::safara_clauses().name,
            CompilerConfig::safara_small().name,
            CompilerConfig::carr_kennedy().name,
            CompilerConfig::pgi_like().name,
            CompilerConfig::safara_count_only().name,
            CompilerConfig::safara_no_feedback().name,
            CompilerConfig::safara_throughput().name,
            CompilerConfig::safara_regdem().name,
            CompilerConfig::safara_saturated().name,
        ];
        let mut uniq = names.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), names.len());
    }
}
