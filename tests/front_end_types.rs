//! The front end's two typers — sema's and the e-graph's — must give
//! every expression the type code generation computes it in. When they
//! disagreed, the e-graph took a `(float)` cast around a value codegen
//! computes in `double` for a no-op and dropped it.

use safara_core::{compile, Args, CompilerConfig, DeviceConfig};
use safara_ir::{parse_program, BinOp, Expr, Intrinsic, ScalarTy};
use safara_opt::egraph::{EGraph, TypeEnv};
use std::collections::HashMap;

/// `b` after running `k` of `src` on `args` under `cfg`, as bits.
fn run_bits(src: &str, cfg: &CompilerConfig, args: &Args) -> Vec<u64> {
    let program = compile(src, cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
    let mut args = args.clone();
    program.run("k", &mut args, &DeviceConfig::k20xm()).unwrap();
    args.array("b").unwrap().as_f64_bits()
}

/// Each element of `b` was rounded to `float`, and the saturating
/// profile agrees with `base` bit for bit.
fn float_cast_kept(src: &str, args: &Args) {
    let base = run_bits(src, &CompilerConfig::base(), args);
    let saturated = run_bits(src, &CompilerConfig::safara_saturated(), args);
    for (i, &b) in base.iter().enumerate() {
        let v = f64::from_bits(b);
        assert_eq!(v as f32 as f64, v, "b[{i}] = {b:#018x} is not a float under base");
    }
    assert_eq!(saturated, base, "safara_saturated dropped the (float) cast");
}

#[test]
fn a_float_cast_of_a_math_call_over_an_int_is_kept() {
    let src = r#"
void k(int n, double b[n]) {
  #pragma acc kernels
  {
    #pragma acc loop gang vector
    for (int i = 0; i < n; i++) {
      b[i] = (float) sin(i);
    }
  }
}
"#;
    float_cast_kept(src, &Args::new().i32("n", 4).array_f64("b", &[0.0; 4]));
}

#[test]
fn a_float_cast_of_float_times_long_is_kept() {
    let src = r#"
void k(int m, long n, float x[m], double b[m]) {
  #pragma acc kernels
  {
    #pragma acc loop gang vector
    for (int i = 0; i < m; i++) {
      b[i] = (float)(x[i] * n);
    }
  }
}
"#;
    let args = Args::new()
        .i32("m", 4)
        .i64("n", 16777217)
        .array_f32("x", &[1.0, 3.0, 5.0, 7.0])
        .array_f64("b", &[0.0; 4]);
    float_cast_kept(src, &args);
    let b = run_bits(src, &CompilerConfig::safara_saturated(), &args);
    assert_eq!(b[0], 0x4170000000000000, "16777217 rounded to float is 2^24");
}

/// The type codegen computes `expr` in, for `a: ta` and `b: tb`: the
/// type of the value the kernel's one global store writes, before the
/// conversion to `double` that store may need.
fn codegen_type(ta: ScalarTy, tb: ScalarTy, expr: &str) -> Option<safara_gpusim::VType> {
    use safara_gpusim::vir::{Inst, MemSpace, Operand};
    let src = format!(
        "void k(int n, {ta} a, {tb} b, double r[n]) {{\n  #pragma acc kernels\n  {{\n    \
         #pragma acc loop gang vector\n    for (int i = 0; i < n; i++) {{\n      r[i] = {expr};\n    }}\n  }}\n}}\n"
    );
    let program = parse_program(&src).ok()?;
    let kernels = safara_codegen::lower_function(
        &program.functions[0],
        &safara_codegen::CodegenOptions::base(),
    )
    .unwrap();
    let insts = &kernels[0].vir.insts;
    let (ty, value) = insts
        .iter()
        .find_map(|i| match i {
            Inst::St { space: MemSpace::Global, ty, a, .. } => Some((*ty, *a)),
            _ => None,
        })
        .expect("one global store");
    let Operand::Reg(v) = value else { return Some(ty) };
    let converted_from = insts.iter().find_map(|i| match i {
        Inst::Cvt { d, aty, .. } if *d == v => Some(*aty),
        _ => None,
    });
    Some(converted_from.unwrap_or(ty))
}

#[test]
fn sema_egraph_and_codegen_agree_on_every_operator_and_intrinsic() {
    use ScalarTy::*;
    let binops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::Shl,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::And,
        BinOp::Or,
    ];
    let intrinsics = [
        Intrinsic::Sqrt,
        Intrinsic::Exp,
        Intrinsic::Log,
        Intrinsic::Sin,
        Intrinsic::Cos,
        Intrinsic::Abs,
        Intrinsic::Pow,
        Intrinsic::Min,
        Intrinsic::Max,
        Intrinsic::Floor,
    ];
    let mut exprs: Vec<Expr> =
        binops.iter().map(|&op| Expr::bin(op, Expr::var("a"), Expr::var("b"))).collect();
    for i in intrinsics {
        let args = [Expr::var("a"), Expr::var("b")][..i.arity()].to_vec();
        exprs.push(Expr::Call(i, args));
    }
    let mut checked = 0;
    for ta in [I32, I64, F32, F64] {
        for tb in [I32, I64, F32, F64] {
            for e in &exprs {
                let text = safara_ir::printer::print_expr(e);
                let Some(vt) = codegen_type(ta, tb, &text) else {
                    continue; // sema rejects it (`%` or `<<` on a float)
                };
                let src = format!("void k({ta} a, {tb} b) {{ }}");
                let program = parse_program(&src).unwrap();
                let sema =
                    safara_ir::sema::expr_type(&program.functions[0], &HashMap::new(), e).unwrap();
                let env = TypeEnv {
                    scalars: [("a".into(), ta), ("b".into(), tb)].into_iter().collect(),
                    arrays: HashMap::new(),
                };
                let mut eg = EGraph::new(env);
                let class = eg.add_expr(e);
                let egraph = eg.ty(class);
                let want = safara_codegen::lower::vty(sema);
                assert_eq!(
                    want, vt,
                    "sema types `{text}` ({ta}, {tb}) as {sema}, codegen as {vt:?}"
                );
                assert_eq!(egraph, Some(sema), "e-graph types `{text}` ({ta}, {tb}) as {egraph:?}");
                checked += 1;
            }
        }
    }
    assert!(checked > 300, "only {checked} combinations checked");
}
