//! Liveness-based dead-code elimination on VIR.
//!
//! An instruction is live if it has a side effect (store, atomic, branch,
//! label, return) or defines a register some live instruction reads.
//! Everything else — including loads whose results are never used and
//! `ld.param` of dope scalars a clause made redundant — is removed. This
//! is the pass that turns the `dim`/`small` clauses' *source-level*
//! savings into *register-level* savings the PTXAS-sim can observe.

use safara_gpusim::vir::{Inst, KernelVir};

/// Instructions that are live whatever their results feed.
fn side_effect(i: &Inst) -> bool {
    matches!(
        i,
        Inst::St { .. } | Inst::AtomAdd { .. } | Inst::Bra { .. } | Inst::Mark(_) | Inst::Ret
    )
}

/// Remove dead instructions in place. Returns the number removed.
///
/// "Needed" is flow-insensitive — a register is needed when any live
/// instruction reads it — so the marking has one least fixed point
/// whatever order finds it. A backward sweep meets an instruction after
/// everything below it has marked its reads, which settles straight-line
/// code in one pass; another sweep is due only when a register turned
/// needed *after* the sweep had already passed one of its definitions
/// (a loop-carried value defined below its use).
pub fn eliminate_dead_code(kernel: &mut KernelVir) -> usize {
    let nv = kernel.vregs.len();
    let mut needed = vec![false; nv];
    // Registers with a definition this sweep walked past as dead.
    let mut passed_dead = vec![false; nv];

    let mut again = true;
    while again {
        again = false;
        passed_dead.fill(false);
        for inst in kernel.insts.iter().rev() {
            let def = inst.def().map(|d| d.0 as usize);
            if side_effect(inst) || def.is_some_and(|d| needed[d]) {
                for u in inst.uses() {
                    let u = u.0 as usize;
                    if !needed[u] {
                        needed[u] = true;
                        again |= passed_dead[u];
                    }
                }
            } else if let Some(d) = def {
                passed_dead[d] = true;
            }
        }
    }

    let before = kernel.insts.len();
    kernel.insts.retain(|inst| {
        side_effect(inst) || inst.def().map(|d| needed[d.0 as usize]).unwrap_or(false)
    });
    before - kernel.insts.len()
}

/// The forward marking this pass replaced — one dependence level per
/// sweep — kept as the oracle the generated-kernel differential below
/// compares against.
#[cfg(test)]
mod reference {
    use super::side_effect;
    use safara_gpusim::vir::KernelVir;

    pub fn eliminate_dead_code(kernel: &mut KernelVir) -> usize {
        let mut needed = vec![false; kernel.vregs.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for inst in &kernel.insts {
                let live = side_effect(inst)
                    || inst.def().map(|d| needed[d.0 as usize]).unwrap_or(false);
                if live {
                    for u in inst.uses() {
                        if !needed[u.0 as usize] {
                            needed[u.0 as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        let before = kernel.insts.len();
        kernel.insts.retain(|inst| {
            side_effect(inst) || inst.def().map(|d| needed[d.0 as usize]).unwrap_or(false)
        });
        before - kernel.insts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_gpusim::rng::SplitMix64;
    use safara_gpusim::vir::*;

    #[test]
    fn unused_computation_removed() {
        let mut k = KernelVir { name: "t".into(), params: vec![ParamDecl::Ptr], ..Default::default() };
        let base = k.new_vreg(VType::B64);
        let dead = k.new_vreg(VType::B32);
        let dead2 = k.new_vreg(VType::B32);
        k.insts = vec![
            Inst::LdParam { ty: VType::B64, d: base, index: 0 },
            Inst::Mov { ty: VType::B32, d: dead, a: Operand::ImmI(1) },
            Inst::Alu { op: AluOp::Add, ty: VType::B32, d: dead2, a: dead.into(), b: Operand::ImmI(2) },
            Inst::St { space: MemSpace::Global, ty: VType::B32, addr: base, a: Operand::ImmI(7) },
            Inst::Ret,
        ];
        let removed = eliminate_dead_code(&mut k);
        assert_eq!(removed, 2);
        assert_eq!(k.insts.len(), 3);
    }

    #[test]
    fn live_chain_kept() {
        let mut k = KernelVir { name: "t".into(), params: vec![ParamDecl::Ptr], ..Default::default() };
        let base = k.new_vreg(VType::B64);
        let a = k.new_vreg(VType::B32);
        let b = k.new_vreg(VType::B32);
        k.insts = vec![
            Inst::LdParam { ty: VType::B64, d: base, index: 0 },
            Inst::Mov { ty: VType::B32, d: a, a: Operand::ImmI(1) },
            Inst::Alu { op: AluOp::Add, ty: VType::B32, d: b, a: a.into(), b: Operand::ImmI(2) },
            Inst::St { space: MemSpace::Global, ty: VType::B32, addr: base, a: b.into() },
            Inst::Ret,
        ];
        assert_eq!(eliminate_dead_code(&mut k), 0);
        assert_eq!(k.insts.len(), 5);
    }

    #[test]
    fn dead_load_removed() {
        let mut k = KernelVir { name: "t".into(), params: vec![ParamDecl::Ptr], ..Default::default() };
        let base = k.new_vreg(VType::B64);
        let v = k.new_vreg(VType::F32);
        k.insts = vec![
            Inst::LdParam { ty: VType::B64, d: base, index: 0 },
            Inst::Ld { space: MemSpace::Global, ty: VType::F32, d: v, addr: base },
            Inst::Ret,
        ];
        let removed = eliminate_dead_code(&mut k);
        // Both the load and the now-unused base param load go away.
        assert_eq!(removed, 2);
        assert_eq!(k.insts.len(), 1);
    }

    #[test]
    fn branch_predicates_stay_live() {
        let mut k = KernelVir { name: "t".into(), ..Default::default() };
        let x = k.new_vreg(VType::B32);
        let p = k.new_vreg(VType::Pred);
        k.insts = vec![
            Inst::Mov { ty: VType::B32, d: x, a: Operand::ImmI(1) },
            Inst::Setp { op: CmpOp::Lt, ty: VType::B32, d: p, a: x.into(), b: Operand::ImmI(2) },
            Inst::Mark(Label(0)),
            Inst::Bra { target: Label(0), pred: Some((p, false)) },
            Inst::Ret,
        ];
        assert_eq!(eliminate_dead_code(&mut k), 0);
    }

    /// A random instruction stream over a small register pool: DCE never
    /// looks at control flow, only at who defines and who reads what in
    /// which order — so registers are redefined, read above their
    /// definitions (the loop-carried shape that needs a second sweep) and
    /// chained several dead links deep.
    fn generated(rng: &mut SplitMix64) -> KernelVir {
        let mut k = KernelVir { name: "gen".into(), ..Default::default() };
        let tys = [VType::B32, VType::B64, VType::F32, VType::F64, VType::Pred];
        let regs: Vec<VReg> =
            (0..2 + rng.gen_index(14)).map(|_| k.new_vreg(tys[rng.gen_index(5)])).collect();
        let reg = |rng: &mut SplitMix64| regs[rng.gen_index(regs.len())];
        let operand = |rng: &mut SplitMix64| match rng.gen_index(3) {
            0 => Operand::ImmI(rng.gen_range_i64(-4, 5)),
            _ => Operand::Reg(regs[rng.gen_index(regs.len())]),
        };
        for _ in 0..rng.gen_index(48) {
            let (ty, d) = (VType::B32, reg(rng));
            k.insts.push(match rng.gen_index(12) {
                0 => Inst::St { space: MemSpace::Global, ty, addr: reg(rng), a: operand(rng) },
                1 => Inst::AtomAdd { ty, addr: reg(rng), a: operand(rng) },
                2 => Inst::Bra { target: Label(0), pred: rng.gen_bool().then(|| (reg(rng), true)) },
                3 => Inst::Mark(Label(0)),
                4 => Inst::LdParam { ty, d, index: 0 },
                5 => Inst::Ld { space: MemSpace::Global, ty, d, addr: reg(rng) },
                6 => Inst::Setp { op: CmpOp::Lt, ty, d, a: operand(rng), b: operand(rng) },
                7 | 8 => Inst::Mov { ty, d, a: operand(rng) },
                _ => Inst::Alu { op: AluOp::Add, ty, d, a: operand(rng), b: operand(rng) },
            });
        }
        k.insts.push(Inst::Ret);
        k
    }

    #[test]
    fn backward_sweep_keeps_what_the_forward_marking_kept() {
        let mut mixed = 0;
        for case in 0..4000u64 {
            let k = generated(&mut SplitMix64::new(0xDCE0_0000 + case));
            let (mut new, mut old) = (k.clone(), k.clone());
            let removed = eliminate_dead_code(&mut new);
            assert_eq!(removed, reference::eliminate_dead_code(&mut old), "case {case}");
            assert_eq!(new.insts, old.insts, "case {case}:\n{}", k.disassemble());
            let kept_defs = new.insts.iter().filter(|i| i.def().is_some()).count();
            mixed += usize::from(removed > 0 && kept_defs > 0);
        }
        assert!(mixed > 1000, "most cases should both keep and drop definitions: {mixed}");
    }
}
