//! End-to-end scalar-replacement strategies.
//!
//! * [`safara_pass`] — one round of SAFARA's transformation for a given
//!   register budget: analyze the region, select candidates under the
//!   `count × latency` model, apply them. The *iterative feedback* around
//!   this pass (recompile → PTXAS-sim → recompute budget → repeat) lives
//!   in `safara-core`, which owns the back-end.
//! * [`carr_kennedy_pass`] — the classical algorithm the paper uses as
//!   its foil: reuse is harvested across iterations of *any* loop,
//!   including parallelized ones, whose loops are then sequentialized
//!   (Fig. 3 → Fig. 4). Register pressure is moderated by reference
//!   count only.

use crate::select::{group_elem_ty, select_candidates, SelectionConfig, ThroughputContext};
use crate::transform::{apply_group, TempNamer};
use safara_analysis::cost::CostModel;
use safara_analysis::memspace::classify_arrays;
use safara_analysis::region::RegionInfo;
use safara_analysis::reuse::{find_reuse_groups, RegionReuse, ReuseKind};
use safara_ir::*;

/// What a strategy pass did to a region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SrOutcome {
    /// Temporaries introduced.
    pub temps_added: u32,
    /// Groups applied.
    pub groups_applied: usize,
    /// Loops that had to be sequentialized (Carr–Kennedy only).
    pub sequentialized: Vec<Ident>,
    /// Estimated loads saved per thread (sum over applied groups).
    pub est_loads_saved: u64,
}

/// One SAFARA round on `region` (mutates it in place).
///
/// `reuse` is [`RegionReuse::analyze`] of `region` as it stands (a
/// compile's `analysis` phase hands its own to the first feedback
/// round). `budget_regs` is the number of registers the feedback loop
/// computed as available; `cost_model` is latency-aware by default and
/// count-only for the ablation. `throughput` is the goal: `None`
/// saturates the budget (the paper's policy), `Some` admits each
/// candidate through its occupancy oracle (device + planned block size +
/// current register use), as [`crate::OptGoal::MaxThroughput`] asks.
pub fn safara_pass(
    func: &Function,
    region: &mut OffloadRegion,
    reuse: RegionReuse,
    budget_regs: u32,
    cost_model: &CostModel,
    throughput: Option<ThroughputContext>,
    namer: &mut TempNamer,
) -> SrOutcome {
    let RegionReuse { info, groups } = reuse;
    let usage = classify_arrays(&func.params, region);
    let config = SelectionConfig { cost_model: cost_model.clone(), throughput };
    let picked = select_candidates(&groups, &info, &usage, budget_regs, &config);
    let mut outcome = SrOutcome::default();
    for c in &picked {
        let elem = group_elem_ty(&usage, &c.group);
        let added = apply_group(&mut region.body, &c.group, elem, namer, &info);
        if added > 0 {
            outcome.temps_added += added;
            outcome.groups_applied += 1;
            outcome.est_loads_saved += c.group.loads_saved();
        }
    }
    outcome
}

/// The classical Carr–Kennedy pass: pretend every loop is sequential so
/// inter-iteration reuse is harvested everywhere, then mark any
/// parallelized loop that received rotating temporaries as `seq` — the
/// transformation introduced loop-carried dependences, so the loop can no
/// longer be parallelized (§III-A.1).
pub fn carr_kennedy_pass(
    func: &Function,
    region: &mut OffloadRegion,
    budget_regs: u32,
    namer: &mut TempNamer,
) -> SrOutcome {
    // Doctor the region info: everything sequential.
    let real_info = RegionInfo::analyze(region);
    let mut info = real_info.clone();
    for l in &mut info.loops {
        l.mapped = None;
        l.sequential = true;
    }
    let usage = classify_arrays(&func.params, region);
    // The reuse analysis runs against the doctored info.
    let groups = find_reuse_groups(region, &info);
    let config = SelectionConfig { cost_model: CostModel::count_only(), ..Default::default() };
    let picked = select_candidates(&groups, &real_info, &usage, budget_regs, &config);

    let mut outcome = SrOutcome::default();
    for c in &picked {
        let elem = group_elem_ty(&usage, &c.group);
        // Apply with the *doctored* info: the groups' loop-instance ids
        // were assigned under it.
        let added = apply_group(&mut region.body, &c.group, elem, namer, &info);
        if added > 0 {
            outcome.temps_added += added;
            outcome.groups_applied += 1;
            outcome.est_loads_saved += c.group.loads_saved();
            // If the carrying loop was parallelized, it no longer can be.
            if let ReuseKind::Inter { var, .. } = &c.group.kind {
                if real_info.loop_of(var).is_some_and(|l| l.mapped.is_some())
                    && !outcome.sequentialized.contains(var)
                {
                    outcome.sequentialized.push(var.clone());
                }
            }
        }
    }
    for var in &outcome.sequentialized {
        sequentialize(&mut region.body, var);
    }
    outcome
}

fn sequentialize(stmts: &mut [Stmt], var: &Ident) {
    for s in stmts {
        match s {
            Stmt::For(f) => {
                if &f.var == var {
                    f.directive = Some(LoopDirective::seq());
                }
                sequentialize(&mut f.body, var);
            }
            Stmt::If { then_body, else_body, .. } => {
                sequentialize(then_body, var);
                sequentialize(else_body, var);
            }
            Stmt::Block(b) => sequentialize(b, var),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_ir::parse_program;
    use safara_ir::printer::print_function;

    fn run_pass(
        src: &str,
        f: impl FnOnce(&Function, &mut OffloadRegion, &mut TempNamer) -> SrOutcome,
    ) -> (SrOutcome, String) {
        let mut p = parse_program(src).unwrap();
        let func_snapshot = p.functions[0].clone();
        let mut namer = TempNamer::default();
        let mut outcome = SrOutcome::default();
        let mut f = Some(f);
        for s in &mut p.functions[0].body {
            if let Stmt::Region(r) = s {
                if let Some(f) = f.take() {
                    outcome = f(&func_snapshot, r, &mut namer);
                }
            }
        }
        let txt = print_function(&p.functions[0]);
        parse_program(&txt).unwrap_or_else(|e| panic!("invalid output: {e}\n{txt}"));
        (outcome, txt)
    }

    const FIG3: &str = r#"
    void fig3(int n, float a[1026], float b[1026]) {
      #pragma acc kernels
      {
        #pragma acc loop gang vector
        for (int i = 1; i <= n; i++) {
          a[i] = (b[i] + b[i + 1]) / 2.0;
        }
      }
    }"#;

    #[test]
    fn safara_leaves_fig3_parallel() {
        let (outcome, txt) = run_pass(FIG3, |f, r, n| {
            safara_pass(f, r, RegionReuse::analyze(r), 255, &CostModel::default(), None, n)
        });
        assert_eq!(outcome.temps_added, 0);
        assert!(outcome.sequentialized.is_empty());
        assert!(txt.contains("gang vector"), "{txt}");
    }

    #[test]
    fn carr_kennedy_sequentializes_fig3() {
        let (outcome, txt) = run_pass(FIG3, |f, r, n| carr_kennedy_pass(f, r, 255, n));
        // CK harvests b[i]/b[i+1] as inter-iteration reuse and pays with
        // the loop's parallelism — the paper's Fig. 4.
        assert_eq!(outcome.sequentialized.len(), 1);
        assert_eq!(outcome.sequentialized[0].as_str(), "i");
        assert!(outcome.temps_added >= 2);
        assert!(txt.contains("seq"), "{txt}");
        assert!(txt.contains("__sr"), "{txt}");
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
    fn safara_transforms_fig5_keeping_parallelism() {
        let (outcome, txt) = run_pass(FIG5, |f, r, n| {
            safara_pass(f, r, RegionReuse::analyze(r), 255, &CostModel::default(), None, n)
        });
        assert!(outcome.temps_added >= 3, "{outcome:?}");
        assert!(outcome.sequentialized.is_empty());
        assert!(txt.contains("gang vector"), "{txt}");
        assert!(outcome.est_loads_saved > 0);
    }

    #[test]
    fn zero_budget_is_a_no_op() {
        let (outcome, txt) = run_pass(FIG5, |f, r, n| {
            safara_pass(f, r, RegionReuse::analyze(r), 0, &CostModel::default(), None, n)
        });
        assert_eq!(outcome.temps_added, 0);
        assert!(!txt.contains("__sr"));
    }

    #[test]
    fn budget_of_three_picks_only_top_group() {
        let (outcome, _) = run_pass(FIG5, |f, r, n| {
            safara_pass(f, r, RegionReuse::analyze(r), 3, &CostModel::default(), None, n)
        });
        // The b inter group costs exactly 3 temps; nothing else fits.
        assert_eq!(outcome.temps_added, 3);
        assert_eq!(outcome.groups_applied, 1);
    }
}
