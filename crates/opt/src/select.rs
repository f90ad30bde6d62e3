//! Candidate selection under a register budget (§III-B.3).
//!
//! Given the reuse groups of a region and the number of registers the
//! feedback loop says are still available, pick the most beneficial
//! groups: sort by `benefit = loads_saved × latency(access class)`
//! descending and take greedily while the temporaries fit.
//!
//! Under [`OptGoal::MaxThroughput`] the greedy admission additionally
//! consults the device occupancy model: a candidate is admitted only if
//! the latency it removes outweighs the latency-hiding lost when its
//! temporaries push the kernel across a warp-allocation boundary
//! (registers/thread × threads/SM ≤ registers/SM). This is the
//! occupancy-aware refinement of the paper's count-saturating loop.

use safara_analysis::coalesce::classify_ref;
use safara_analysis::cost::{AccessClass, CostModel};
use safara_analysis::memspace::ArrayUsage;
use safara_analysis::region::RegionInfo;
use safara_analysis::reuse::ReuseGroup;
use safara_gpusim::DeviceConfig;
use safara_ir::{Ident, ScalarTy};
use std::collections::BTreeMap;

/// What the budgeted selection optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptGoal {
    /// The paper's policy: saturate the register budget — every
    /// above-threshold candidate that fits is admitted.
    #[default]
    MinRegisters,
    /// Occupancy-aware policy: admit a candidate only if the predicted
    /// memory time (latency pool ÷ resident warps) improves, so register
    /// pressure is traded against latency hiding instead of ignored.
    MaxThroughput,
}

/// Device-side facts the `MaxThroughput` admission test needs.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputContext {
    /// The occupancy oracle.
    pub device: DeviceConfig,
    /// Planned threads per block: the block the kernels launch with
    /// (`CompiledKernel::block_shape` in `safara-codegen`).
    pub threads_per_block: u32,
    /// Hardware registers the kernel already uses (ptxas feedback).
    pub regs_in_use: u32,
}

/// Hardware registers each temporary of a 32-bit element costs (64-bit
/// elements cost twice this).
const REGS_PER_TEMP: u32 = 1;

/// Groups whose estimated benefit is below this are never selected
/// (avoids burning registers on reuse that saves nothing).
const MIN_BENEFIT: u64 = 1;

/// Selection policy.
#[derive(Debug, Clone, Default)]
pub struct SelectionConfig {
    /// The cost model (latency-aware by default; count-only for the
    /// Carr–Kennedy ablation).
    pub cost_model: CostModel,
    /// What admission optimizes: `Some` is [`OptGoal::MaxThroughput`]
    /// with its occupancy oracle, `None` the paper's
    /// [`OptGoal::MinRegisters`].
    pub throughput: Option<ThroughputContext>,
}

/// A scored candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The group.
    pub group: ReuseGroup,
    /// Its access class (drives the latency term).
    pub class: AccessClass,
    /// Benefit under the model.
    pub benefit: u64,
    /// Hardware registers its temporaries need.
    pub reg_cost: u32,
}

/// Score and select groups within `budget_regs` hardware registers.
/// Returns the chosen candidates in application order (highest benefit
/// first) — the order the paper's iterative loop would admit them.
pub fn select_candidates(
    groups: &[ReuseGroup],
    info: &RegionInfo,
    usage: &BTreeMap<Ident, ArrayUsage>,
    budget_regs: u32,
    config: &SelectionConfig,
) -> Vec<Candidate> {
    let mut cands: Vec<Candidate> = groups
        .iter()
        .filter_map(|g| {
            let u = usage.get(&g.array)?;
            let coalesce = classify_ref(&g.classes[0].r, info);
            let class = AccessClass::of(u.space, coalesce);
            let benefit = config.cost_model.benefit(g, class);
            let width = if u.ty.elem.size_bytes() == 8 { 2 } else { 1 };
            let reg_cost = g.temps_needed() * REGS_PER_TEMP * width;
            Some(Candidate { group: g.clone(), class, benefit, reg_cost })
        })
        .filter(|c| c.benefit >= MIN_BENEFIT)
        .collect();
    cands.sort_by(|a, b| b.benefit.cmp(&a.benefit).then(a.reg_cost.cmp(&b.reg_cost)));
    match &config.throughput {
        Some(ctx) => select_for_throughput(cands, budget_regs, config, ctx),
        None => {
            let mut used = 0u32;
            let mut out = Vec::new();
            for c in cands {
                if used + c.reg_cost <= budget_regs {
                    used += c.reg_cost;
                    out.push(c);
                }
            }
            out
        }
    }
}

/// Occupancy-aware greedy admission: walk the benefit-sorted candidates
/// tracking an estimated per-thread memory-latency pool `P` and the
/// kernel's register count `r`; admit a candidate (benefit `b`, cost
/// `Δ`) only if `(P − b) / W(r + Δ) < P / W(r)` where `W` is the
/// device's resident-warps function — i.e. only if the removed latency
/// outweighs any latency-hiding lost to reduced occupancy. When the
/// candidate does not cross a warp-allocation boundary `W` is unchanged
/// and the test degenerates to `b > 0`, reproducing `MinRegisters`.
fn select_for_throughput(
    cands: Vec<Candidate>,
    budget_regs: u32,
    config: &SelectionConfig,
    ctx: &ThroughputContext,
) -> Vec<Candidate> {
    let warps = |r: u32| -> u128 {
        ctx.device.occupancy(r.max(1), ctx.threads_per_block).active_warps_per_sm as u128
    };
    // Estimated latency pool: total dynamic reads of every candidate
    // group × its class latency (same latency scale the benefits use).
    // Traffic outside reuse groups is not replaceable and cancels from
    // both sides of the comparison, so it is omitted.
    let lat = |class: AccessClass| -> u64 {
        if config.cost_model.use_latency {
            config.cost_model.latencies.latency(class)
        } else {
            1
        }
    };
    let mut pool: u128 = cands
        .iter()
        .map(|c| {
            let reads: u64 =
                c.group.classes.iter().map(|rc| rc.reads as u64 * rc.weight).sum();
            reads as u128 * lat(c.class) as u128
        })
        .sum::<u128>()
        .max(1);
    let mut regs = ctx.regs_in_use.max(1);
    let mut used = 0u32;
    let mut out = Vec::new();
    for c in cands {
        if used + c.reg_cost > budget_regs {
            continue;
        }
        let w_now = warps(regs);
        let w_after = warps(regs + c.reg_cost);
        if w_now == 0 || w_after == 0 {
            continue;
        }
        let b = (c.benefit as u128).min(pool);
        // time_after < time_now  ⟺  (P − b)·W(r) < P·W(r + Δ)
        if (pool - b) * w_now < pool * w_after {
            used += c.reg_cost;
            regs += c.reg_cost;
            pool -= b;
            out.push(c);
        }
    }
    out
}

/// Element type of a group's array (needed by the transformation).
pub fn group_elem_ty(usage: &BTreeMap<Ident, ArrayUsage>, group: &ReuseGroup) -> ScalarTy {
    usage.get(&group.array).map(|u| u.ty.elem).unwrap_or(ScalarTy::F32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_analysis::memspace::classify_arrays;
    use safara_analysis::reuse::find_reuse_groups;
    use safara_ir::parse_program;

    fn setup(src: &str) -> (Vec<ReuseGroup>, RegionInfo, BTreeMap<Ident, ArrayUsage>) {
        let p = parse_program(src).unwrap();
        let f = &p.functions[0];
        let region = f.regions()[0].clone();
        let info = RegionInfo::analyze(&region);
        let usage = classify_arrays(&f.params, &region);
        let groups = find_reuse_groups(&region, &info);
        (groups, info, usage)
    }

    const FIG5: &str = r#"
    void fig5(int jsize, int isize, float a[260][260], float b[260][260],
              float c[260], float d[260]) {
      #pragma acc kernels
      {
        #pragma acc loop gang vector
        for (int j = 1; j <= jsize; j++) {
          c[j] = b[j][0] + b[j][1];
          d[j] = c[j] * b[j][0];
          #pragma acc loop seq
          for (int i = 1; i <= isize; i++) {
            a[i][j] += a[i - 1][j] + b[j][i - 1] + a[i + 1][j] + b[j][i + 1];
          }
        }
      }
    }"#;

    #[test]
    fn uncoalesced_b_ranks_first() {
        // The paper's §II-A.2 argument: b is uncoalesced (higher latency)
        // so replacing b beats replacing a even though a has more refs.
        let (groups, info, usage) = setup(FIG5);
        let picked = select_candidates(&groups, &info, &usage, 255, &SelectionConfig::default());
        assert!(!picked.is_empty());
        assert_eq!(picked[0].group.array.as_str(), "b");
        assert!(matches!(
            picked[0].class,
            AccessClass::GlobalUncoalesced | AccessClass::ReadOnlyUncoalesced
        ));
    }

    #[test]
    fn budget_limits_selection() {
        let (groups, info, usage) = setup(FIG5);
        let all = select_candidates(&groups, &info, &usage, 255, &SelectionConfig::default());
        let one = select_candidates(&groups, &info, &usage, 3, &SelectionConfig::default());
        assert!(one.len() < all.len());
        let zero = select_candidates(&groups, &info, &usage, 0, &SelectionConfig::default());
        assert!(zero.is_empty());
        // The constrained pick must still be the top-benefit group.
        assert_eq!(one[0].group.array, all[0].group.array);
    }

    #[test]
    fn count_only_model_changes_ranking() {
        let (groups, info, usage) = setup(FIG5);
        let latency_aware =
            select_candidates(&groups, &info, &usage, 255, &SelectionConfig::default());
        let count_only = select_candidates(
            &groups,
            &info,
            &usage,
            255,
            &SelectionConfig { cost_model: CostModel::count_only(), ..Default::default() },
        );
        // Both select something; the orderings need not agree, but the
        // latency-aware one must put an uncoalesced group first.
        assert!(!latency_aware.is_empty() && !count_only.is_empty());
        assert!(matches!(
            latency_aware[0].class,
            AccessClass::GlobalUncoalesced | AccessClass::ReadOnlyUncoalesced
        ));
    }

    #[test]
    fn throughput_goal_matches_min_registers_away_from_boundaries() {
        // regs_in_use = 17 with 128-thread blocks: warp allocation is
        // rounded to 256 regs (8 regs/thread), so the next boundary is at
        // 24 — the candidates' few temporaries never cross it and the
        // occupancy-aware admission must degenerate to the paper's.
        let (groups, info, usage) = setup(FIG5);
        let base = select_candidates(&groups, &info, &usage, 255, &SelectionConfig::default());
        let ctx = ThroughputContext {
            device: DeviceConfig::k20xm(),
            threads_per_block: 128,
            regs_in_use: 17,
        };
        let cfg = SelectionConfig { throughput: Some(ctx), ..Default::default() };
        let thr = select_candidates(&groups, &info, &usage, 255, &cfg);
        let arrays = |v: &[Candidate]| -> Vec<String> {
            v.iter().map(|c| c.group.array.as_str().to_string()).collect()
        };
        assert_eq!(arrays(&base), arrays(&thr));
    }

    #[test]
    fn throughput_goal_stops_at_an_occupancy_cliff() {
        // 1024-thread blocks at 63 regs/thread sit exactly on the edge:
        // 64 regs still fits one resident block, 65 regs fits none. The
        // count-saturating goal happily burns past the cliff; the
        // throughput goal must stop at it.
        let (groups, info, usage) = setup(FIG5);
        let base = select_candidates(&groups, &info, &usage, 255, &SelectionConfig::default());
        let base_cost: u32 = base.iter().map(|c| c.reg_cost).sum();
        assert!(base_cost > 1, "fixture must want more than one register");
        let ctx = ThroughputContext {
            device: DeviceConfig::k20xm(),
            threads_per_block: 1024,
            regs_in_use: 63,
        };
        let cfg = SelectionConfig { throughput: Some(ctx), ..Default::default() };
        let thr = select_candidates(&groups, &info, &usage, 255, &cfg);
        let thr_cost: u32 = thr.iter().map(|c| c.reg_cost).sum();
        assert!(thr_cost <= 1, "must not launch-kill the kernel: cost {thr_cost}");
        assert!(thr_cost < base_cost);
    }

    #[test]
    fn f64_groups_cost_double() {
        let src = r#"
        void f(int n, const double s[n], double a[n][100]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              #pragma acc loop seq
              for (int k = 0; k < 100; k++) {
                a[i][k] = a[i][k] + s[i];
              }
            }
          }
        }"#;
        let (groups, info, usage) = setup(src);
        let picked = select_candidates(&groups, &info, &usage, 255, &SelectionConfig::default());
        let s = picked.iter().find(|c| c.group.array.as_str() == "s").expect("s selected");
        assert_eq!(s.reg_cost, 2);
    }
}
