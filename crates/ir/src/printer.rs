//! Pretty-printer: emits MiniACC source from an AST.
//!
//! Used to (a) round-trip-test the parser, and (b) show the effect of
//! source-to-source transformations such as scalar replacement — mirroring
//! how the paper presents SAFARA's output (Figs. 4 and 6).

use crate::ast::*;
use crate::directive::*;
use std::fmt::Write;

/// Render a whole program as MiniACC source.
pub fn print_program(p: &Program) -> String {
    let mut s = String::new();
    for f in &p.functions {
        print_function_into(f, &mut s);
        s.push('\n');
    }
    s
}

/// Render a single function as MiniACC source.
pub fn print_function(f: &Function) -> String {
    let mut s = String::new();
    print_function_into(f, &mut s);
    s
}

/// Render an expression.
pub fn print_expr(e: &Expr) -> String {
    let mut s = String::new();
    expr_into(e, 0, &mut s);
    s
}

fn print_function_into(f: &Function, s: &mut String) {
    write!(s, "void {}(", f.name).unwrap();
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match p {
            Param::Scalar { name, ty } => write!(s, "{ty} {name}").unwrap(),
            Param::Array { name, ty, is_const } => {
                if *is_const {
                    s.push_str("const ");
                }
                write!(s, "{} {}", ty.elem, name).unwrap();
                for d in &ty.dims {
                    s.push('[');
                    if let Some(lb) = &d.lower {
                        expr_into(lb, 0, s);
                        s.push(':');
                    }
                    match &d.extent {
                        Extent::Const(c) => write!(s, "{c}").unwrap(),
                        Extent::Dynamic(e) => expr_into(e, 0, s),
                    }
                    s.push(']');
                }
            }
        }
    }
    s.push_str(") {\n");
    for st in &f.body {
        stmt_into(st, 1, s);
    }
    s.push_str("}\n");
}

fn indent(n: usize, s: &mut String) {
    for _ in 0..n {
        s.push_str("  ");
    }
}

fn stmt_into(stmt: &Stmt, lvl: usize, s: &mut String) {
    match stmt {
        Stmt::DeclScalar { name, ty, init } => {
            indent(lvl, s);
            write!(s, "{ty} {name}").unwrap();
            if let Some(e) = init {
                s.push_str(" = ");
                expr_into(e, 0, s);
            }
            s.push_str(";\n");
        }
        Stmt::Assign { lhs, op, rhs } => {
            indent(lvl, s);
            lvalue_into(lhs, s);
            write!(s, " {} ", op.symbol()).unwrap();
            expr_into(rhs, 0, s);
            s.push_str(";\n");
        }
        Stmt::For(f) => {
            if let Some(d) = &f.directive {
                indent(lvl, s);
                s.push_str("#pragma acc loop");
                loop_directive_into(d, s);
                s.push('\n');
            }
            indent(lvl, s);
            write!(s, "for ({}{} = ", if f.declares_var { "int " } else { "" }, f.var).unwrap();
            expr_into(&f.lo, 0, s);
            write!(s, "; {} {} ", f.var, f.cmp.symbol()).unwrap();
            expr_into(&f.bound, 0, s);
            s.push_str("; ");
            match f.step {
                1 => write!(s, "{}++", f.var).unwrap(),
                -1 => write!(s, "{}--", f.var).unwrap(),
                k if k > 0 => write!(s, "{} += {k}", f.var).unwrap(),
                k => write!(s, "{} -= {}", f.var, -k).unwrap(),
            }
            s.push_str(") {\n");
            for st in &f.body {
                stmt_into(st, lvl + 1, s);
            }
            indent(lvl, s);
            s.push_str("}\n");
        }
        Stmt::If { cond, then_body, else_body } => {
            indent(lvl, s);
            s.push_str("if (");
            expr_into(cond, 0, s);
            s.push_str(") {\n");
            for st in then_body {
                stmt_into(st, lvl + 1, s);
            }
            indent(lvl, s);
            s.push('}');
            if !else_body.is_empty() {
                s.push_str(" else {\n");
                for st in else_body {
                    stmt_into(st, lvl + 1, s);
                }
                indent(lvl, s);
                s.push('}');
            }
            s.push('\n');
        }
        Stmt::Block(body) => {
            indent(lvl, s);
            s.push_str("{\n");
            for st in body {
                stmt_into(st, lvl + 1, s);
            }
            indent(lvl, s);
            s.push_str("}\n");
        }
        Stmt::Region(r) => {
            indent(lvl, s);
            write!(s, "#pragma acc {}", r.directive.construct.keyword()).unwrap();
            region_clauses_into(&r.directive.clauses, s);
            s.push('\n');
            indent(lvl, s);
            s.push_str("{\n");
            for st in &r.body {
                stmt_into(st, lvl + 1, s);
            }
            indent(lvl, s);
            s.push_str("}\n");
        }
    }
}

fn region_clauses_into(c: &RegionClauses, s: &mut String) {
    for d in &c.data {
        write!(s, " {}(", d.dir.keyword()).unwrap();
        idents_into(&d.vars, s);
        s.push(')');
    }
    if let Some(e) = &c.num_gangs {
        s.push_str(" num_gangs(");
        expr_into(e, 0, s);
        s.push(')');
    }
    if let Some(e) = &c.vector_length {
        s.push_str(" vector_length(");
        expr_into(e, 0, s);
        s.push(')');
    }
    if let Some(lb) = &c.launch_bounds {
        s.push_str(" launch_bounds(");
        expr_into(&lb.max_threads, 0, s);
        if let Some(b) = &lb.min_blocks {
            s.push_str(", ");
            expr_into(b, 0, s);
        }
        s.push(')');
    }
    if !c.dim_groups.is_empty() {
        s.push_str(" dim(");
        for (i, g) in c.dim_groups.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            if let Some(bounds) = &g.bounds {
                s.push('(');
                for (j, b) in bounds.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    expr_into(&b.lower, 0, s);
                    s.push(':');
                    expr_into(&b.len, 0, s);
                }
                s.push(')');
            }
            s.push('(');
            idents_into(&g.arrays, s);
            s.push(')');
        }
        s.push(')');
    }
    if !c.small.is_empty() {
        s.push_str(" small(");
        idents_into(&c.small, s);
        s.push(')');
    }
}

fn loop_directive_into(d: &LoopDirective, s: &mut String) {
    if let Some(g) = &d.gang {
        s.push_str(" gang");
        if let Some(e) = g {
            s.push('(');
            expr_into(e, 0, s);
            s.push(')');
        }
    }
    if let Some(v) = &d.vector {
        s.push_str(" vector");
        if let Some(e) = v {
            s.push('(');
            expr_into(e, 0, s);
            s.push(')');
        }
    }
    if d.seq {
        s.push_str(" seq");
    }
    if d.independent {
        s.push_str(" independent");
    }
    for r in &d.reductions {
        write!(s, " reduction({}:{})", r.op.symbol(), r.var).unwrap();
    }
}

fn idents_into(ids: &[Ident], s: &mut String) {
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(id.as_str());
    }
}

fn lvalue_into(lv: &LValue, s: &mut String) {
    match lv {
        LValue::Var(v) => s.push_str(v.as_str()),
        LValue::ArrayRef(a) => array_ref_into(a, s),
    }
}

fn array_ref_into(a: &ArrayRef, s: &mut String) {
    s.push_str(a.array.as_str());
    for ix in &a.indices {
        s.push('[');
        expr_into(ix, 0, s);
        s.push(']');
    }
}

/// Binding power for parenthesization (higher binds tighter).
fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Binary(op, ..) => match op {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Shl => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Rem => 6,
        },
        Expr::Unary(..) | Expr::Cast(..) => 7,
        _ => 8,
    }
}

fn expr_into(e: &Expr, min_prec: u8, s: &mut String) {
    let p = prec(e);
    let need_paren = p < min_prec;
    if need_paren {
        s.push('(');
    }
    match e {
        Expr::IntLit(v) => write!(s, "{v}").unwrap(),
        Expr::FloatLit(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(s, "{v:.1}").unwrap();
            } else {
                write!(s, "{v}").unwrap();
            }
        }
        Expr::Var(v) => s.push_str(v.as_str()),
        Expr::ArrayRef(a) => array_ref_into(a, s),
        Expr::Unary(op, inner) => {
            s.push_str(match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
            });
            expr_into(inner, p + 1, s);
        }
        Expr::Binary(op, l, r) => {
            expr_into(l, p, s);
            write!(s, " {} ", op.symbol()).unwrap();
            // Left-associative: right operand needs strictly higher prec.
            expr_into(r, p + 1, s);
        }
        Expr::Call(intr, args) => {
            s.push_str(intr.name());
            s.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                expr_into(a, 0, s);
            }
            s.push(')');
        }
        Expr::Cast(ty, inner) => {
            write!(s, "({ty}) ").unwrap();
            expr_into(inner, p + 1, s);
        }
    }
    if need_paren {
        s.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    /// Round-trip: parse → print → parse → print must be a fixed point.
    /// (We compare printed forms, not ASTs, because spans differ between
    /// the original and printed source.)
    fn roundtrip(src: &str) {
        let p1 = parse_program(src).expect("first parse");
        let printed = print_program(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\nprinted:\n{printed}"));
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "round-trip not a fixed point");
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip("void f(int n, float a[n]) { a[0] = 1.0; }");
    }

    #[test]
    fn roundtrip_full_region() {
        roundtrip(
            r#"
            void stencil(int n, const float in[n][n], float out[n][n]) {
              #pragma acc kernels copyin(in) copyout(out) small(in, out)
              {
                #pragma acc loop gang
                for (int j = 1; j < n - 1; j++) {
                  #pragma acc loop vector
                  for (int i = 1; i < n - 1; i++) {
                    out[j][i] = 0.25 * (in[j - 1][i] + in[j + 1][i] + in[j][i - 1] + in[j][i + 1]);
                  }
                }
              }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_dim_groups_and_bounds() {
        roundtrip(
            r#"
            void f(int nx, int ny, float a[ny][nx], float b[ny][nx], float c[ny][nx]) {
              #pragma acc kernels dim((0:nx, 0:ny)(a, b, c)) small(a, b, c)
              {
                #pragma acc loop gang vector
                for (int i = 0; i < nx; i++) { a[0][i] = b[0][i] + c[0][i]; }
              }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_launch_bounds() {
        roundtrip(
            r#"
            void f(int n, float a[n], float b[n]) {
              #pragma acc kernels launch_bounds(256, 4) copyin(b) copyout(a)
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) { a[i] = b[i]; }
              }
            }
            "#,
        );
        // Single-argument form (min_blocks defaults to 1).
        roundtrip(
            r#"
            void f(int n, float a[n]) {
              #pragma acc parallel launch_bounds(128)
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) { a[i] = 0.0; }
              }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_seq_loop_and_reduction() {
        roundtrip(
            r#"
            void f(int n, float a[n], float s) {
              #pragma acc parallel num_gangs(4) vector_length(128)
              {
                #pragma acc loop gang vector reduction(+:s)
                for (int i = 0; i < n; i++) {
                  #pragma acc loop seq
                  for (int k = 0; k < 8; k++) { s += a[i]; }
                }
              }
            }
            "#,
        );
    }

    #[test]
    fn roundtrip_precedence_preserved() {
        roundtrip("void f(float x, float y) { x = (x + y) * (x - y) / (1.0 + x * y); }");
        roundtrip("void f(int a, int b, int c) { a = b % (c + 1) - -b; }");
        roundtrip("void f(int a, int b) { if (a < b && !(a == 0) || b > 2) { a = 1; } else { a = 2; } }");
    }

    #[test]
    fn roundtrip_casts() {
        roundtrip("void f(int i, double x) { x = (double) i * 2.0 + (double) (i + 1); }");
    }

    #[test]
    fn roundtrip_downward_and_strided_loops() {
        roundtrip("void f(int n, float a[n]) { for (int i = n - 1; i >= 0; i--) { a[i] = 0.0; } }");
        roundtrip("void f(int n, float a[n]) { for (int i = 0; i < n; i += 2) { a[i] = 0.0; } }");
    }
}
