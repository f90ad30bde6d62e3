//! Lightweight AST walkers used by analyses and transformations.

use crate::ast::*;

/// Walk every expression in a statement list (pre-order), including
/// loop bounds and condition expressions.
pub fn walk_exprs<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Expr)) {
    for s in stmts {
        walk_stmt_exprs(s, f);
    }
}

fn walk_stmt_exprs<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match s {
        Stmt::DeclScalar { init, .. } => {
            if let Some(e) = init {
                walk_expr(e, f);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            if let LValue::ArrayRef(a) = lhs {
                for ix in &a.indices {
                    walk_expr(ix, f);
                }
            }
            walk_expr(rhs, f);
        }
        Stmt::For(l) => {
            walk_expr(&l.lo, f);
            walk_expr(&l.bound, f);
            walk_exprs(&l.body, f);
        }
        Stmt::If { cond, then_body, else_body } => {
            walk_expr(cond, f);
            walk_exprs(then_body, f);
            walk_exprs(else_body, f);
        }
        Stmt::Block(b) => walk_exprs(b, f),
        Stmt::Region(r) => walk_exprs(&r.body, f),
    }
}

/// Walk an expression tree pre-order.
pub fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Unary(_, inner) | Expr::Cast(_, inner) => walk_expr(inner, f),
        Expr::Binary(_, l, r) => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        Expr::Call(_, args) => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::ArrayRef(a) => {
            for ix in &a.indices {
                walk_expr(ix, f);
            }
        }
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => {}
    }
}

/// Collect every array reference in a statement list: reads from
/// expressions and writes from assignment targets, with a flag saying
/// whether the occurrence is a write. The references are borrowed.
pub fn collect_array_refs(stmts: &[Stmt]) -> Vec<(&ArrayRef, bool)> {
    let mut out = Vec::new();
    collect_refs_inner(stmts, &mut out);
    out
}

fn collect_refs_inner<'a>(stmts: &'a [Stmt], out: &mut Vec<(&'a ArrayRef, bool)>) {
    for s in stmts {
        match s {
            Stmt::DeclScalar { init, .. } => {
                if let Some(e) = init {
                    collect_expr_refs(e, out);
                }
            }
            Stmt::Assign { lhs, op, rhs } => {
                if let LValue::ArrayRef(a) = lhs {
                    for ix in &a.indices {
                        collect_expr_refs(ix, out);
                    }
                    // A compound assignment reads then writes the element.
                    if op.bin_op().is_some() {
                        out.push((a, false));
                    }
                    out.push((a, true));
                }
                collect_expr_refs(rhs, out);
            }
            Stmt::For(l) => {
                collect_expr_refs(&l.lo, out);
                collect_expr_refs(&l.bound, out);
                collect_refs_inner(&l.body, out);
            }
            Stmt::If { cond, then_body, else_body } => {
                collect_expr_refs(cond, out);
                collect_refs_inner(then_body, out);
                collect_refs_inner(else_body, out);
            }
            Stmt::Block(b) => collect_refs_inner(b, out),
            Stmt::Region(r) => collect_refs_inner(&r.body, out),
        }
    }
}

fn collect_expr_refs<'a>(e: &'a Expr, out: &mut Vec<(&'a ArrayRef, bool)>) {
    walk_expr(e, &mut |e| {
        if let Expr::ArrayRef(a) = e {
            out.push((a, false));
        }
    });
}

/// Rewrite every expression in a statement list bottom-up via `f`.
/// `f` receives each node after its children were rewritten and may
/// return a replacement.
pub fn map_exprs(stmts: &mut [Stmt], f: &mut impl FnMut(Expr) -> Expr) {
    for s in stmts {
        map_stmt_exprs(s, f);
    }
}

fn map_stmt_exprs(s: &mut Stmt, f: &mut impl FnMut(Expr) -> Expr) {
    match s {
        Stmt::DeclScalar { init, .. } => {
            if let Some(e) = init.take() {
                *init = Some(map_expr(e, f));
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            if let LValue::ArrayRef(a) = lhs {
                let idx = std::mem::take(&mut a.indices);
                a.indices = idx.into_iter().map(|ix| map_expr(ix, f)).collect();
            }
            let e = std::mem::replace(rhs, Expr::IntLit(0));
            *rhs = map_expr(e, f);
        }
        Stmt::For(l) => {
            let lo = std::mem::replace(&mut l.lo, Expr::IntLit(0));
            l.lo = map_expr(lo, f);
            let bound = std::mem::replace(&mut l.bound, Expr::IntLit(0));
            l.bound = map_expr(bound, f);
            map_exprs(&mut l.body, f);
        }
        Stmt::If { cond, then_body, else_body } => {
            let c = std::mem::replace(cond, Expr::IntLit(0));
            *cond = map_expr(c, f);
            map_exprs(then_body, f);
            map_exprs(else_body, f);
        }
        Stmt::Block(b) => map_exprs(b, f),
        Stmt::Region(r) => map_exprs(&mut r.body, f),
    }
}

/// Rewrite one expression bottom-up.
pub fn map_expr(e: Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let rebuilt = match e {
        Expr::Unary(op, inner) => Expr::Unary(op, Box::new(map_expr(*inner, f))),
        Expr::Cast(ty, inner) => Expr::Cast(ty, Box::new(map_expr(*inner, f))),
        Expr::Binary(op, l, r) => {
            Expr::Binary(op, Box::new(map_expr(*l, f)), Box::new(map_expr(*r, f)))
        }
        Expr::Call(i, args) => Expr::Call(i, args.into_iter().map(|a| map_expr(a, f)).collect()),
        Expr::ArrayRef(a) => Expr::ArrayRef(ArrayRef {
            array: a.array,
            indices: a.indices.into_iter().map(|ix| map_expr(ix, f)).collect(),
        }),
        leaf => leaf,
    };
    f(rebuilt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn body_of(src: &str) -> Vec<Stmt> {
        parse_program(src).unwrap().functions.remove(0).body
    }

    #[test]
    fn collects_reads_and_writes() {
        let body = body_of("void f(int n, float a[n], float b[n]) { a[0] = b[1] + b[1]; b[2] += a[3]; }");
        let refs = collect_array_refs(&body);
        let writes: Vec<&str> =
            refs.iter().filter(|(_, w)| *w).map(|(r, _)| r.array.as_str()).collect();
        assert_eq!(writes, vec!["a", "b"]);
        // b[2] += ... contributes a read of b[2] and a write of b[2].
        let b2_reads = refs
            .iter()
            .filter(|(r, w)| !w && r.array.as_str() == "b" && r.indices[0].as_const() == Some(2))
            .count();
        assert_eq!(b2_reads, 1);
    }

    #[test]
    fn map_exprs_rewrites_everywhere() {
        let mut body =
            body_of("void f(int n, float a[n]) { for (int i = 0; i < n + 1; i++) { a[i] = 1.0; } }");
        // Rewrite `n` to `m` everywhere.
        map_exprs(&mut body, &mut |e| match e {
            Expr::Var(v) if v.as_str() == "n" => Expr::var("m"),
            other => other,
        });
        let mut reads = Vec::new();
        walk_exprs(&body, &mut |e| {
            if let Expr::Var(v) = e {
                reads.push(v.to_string());
            }
        });
        assert!(reads.iter().any(|v| v == "m"));
        assert!(!reads.iter().any(|v| v == "n"));
    }

    #[test]
    fn walk_exprs_visits_loop_bounds() {
        let body = body_of("void f(int n, float a[n]) { for (int i = n - 2; i < n * 3; i++) { a[i] = 0.0; } }");
        let mut muls = 0;
        walk_exprs(&body, &mut |e| {
            if matches!(e, Expr::Binary(BinOp::Mul, _, _)) {
                muls += 1;
            }
        });
        assert_eq!(muls, 1);
    }
}
