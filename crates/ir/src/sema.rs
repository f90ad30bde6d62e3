//! Semantic analysis: name resolution, type checking, directive checking.
//!
//! Beyond ordinary checks (no undeclared variables, array rank matches the
//! declaration, `%` only on integers, ...), this module validates the
//! paper's proposed clauses:
//!
//! * every array named in `small` / `dim` must be an array parameter;
//! * `dim` groups must contain arrays of equal rank;
//! * if a `dim` group provides explicit bounds, the bound count must match
//!   the arrays' rank;
//! * an array may appear in at most one `dim` group;
//! * reductions must name scalar variables.

use crate::ast::*;
use crate::directive::*;
use std::collections::HashMap;
use std::fmt;

/// Semantic errors.
#[derive(Debug, Clone, PartialEq)]
pub struct SemaError {
    /// Human-readable message.
    pub message: String,
}

impl SemaError {
    fn new(m: impl Into<String>) -> Self {
        SemaError { message: m.into() }
    }
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SemaError {}

/// What a name refers to, borrowed from the function being checked.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Binding<'f> {
    Scalar(ScalarTy),
    Array(&'f ArrayTy),
}

/// Check a whole program.
pub fn check_program(p: &Program) -> Result<(), SemaError> {
    let mut seen = Vec::new();
    for f in &p.functions {
        if seen.contains(&&f.name) {
            return Err(SemaError::new(format!("duplicate function `{}`", f.name)));
        }
        seen.push(&f.name);
        check_function(f)?;
    }
    Ok(())
}

/// Check one function.
pub fn check_function(f: &Function) -> Result<(), SemaError> {
    let mut ck = Checker { scopes: vec![HashMap::new()], func: &f.name };
    for p in &f.params {
        let (name, binding) = match p {
            Param::Scalar { name, ty } => (name, Binding::Scalar(*ty)),
            Param::Array { name, ty, .. } => {
                if ty.dims.is_empty() {
                    return Err(SemaError::new(format!(
                        "array parameter `{name}` must have at least one dimension"
                    )));
                }
                (name, Binding::Array(ty))
            }
        };
        if ck.scopes[0].insert(name, binding).is_some() {
            return Err(SemaError::new(format!("duplicate parameter `{name}` in `{}`", f.name)));
        }
    }
    // Dimension expressions may only use earlier integer scalar params.
    for p in &f.params {
        if let Param::Array { name, ty, .. } = p {
            for d in &ty.dims {
                for e in d.lower.iter().chain(match &d.extent {
                    Extent::Dynamic(e) => Some(e),
                    Extent::Const(_) => None,
                }) {
                    let t = ck.type_of(e)?;
                    if !t.is_int() {
                        return Err(SemaError::new(format!(
                            "dimension of `{name}` must be an integer expression"
                        )));
                    }
                }
            }
        }
    }
    ck.check_stmts(&f.body, false)?;
    Ok(())
}

/// Scopes of names borrowed from the function under check: a check
/// clones no name and no array type.
struct Checker<'f> {
    scopes: Vec<HashMap<&'f Ident, Binding<'f>>>,
    func: &'f Ident,
}

impl<'f> Checker<'f> {
    fn lookup(&self, name: &Ident) -> Option<Binding<'f>> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn declare(&mut self, name: &'f Ident, b: Binding<'f>) -> Result<(), SemaError> {
        let top = self.scopes.last_mut().expect("scope stack never empty");
        if top.insert(name, b).is_some() {
            return Err(SemaError::new(format!(
                "`{name}` redeclared in the same scope in `{}`",
                self.func
            )));
        }
        Ok(())
    }

    fn check_stmts(&mut self, stmts: &'f [Stmt], in_region: bool) -> Result<(), SemaError> {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.check_stmt(s, in_region)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, s: &'f Stmt, in_region: bool) -> Result<(), SemaError> {
        match s {
            Stmt::DeclScalar { name, ty, init } => {
                if let Some(e) = init {
                    self.type_of(e)?;
                }
                self.declare(name, Binding::Scalar(*ty))
            }
            Stmt::Assign { lhs, op, rhs } => {
                let lt = match lhs {
                    LValue::Var(v) => match self.lookup(v) {
                        Some(Binding::Scalar(t)) => t,
                        Some(Binding::Array(_)) => {
                            return Err(SemaError::new(format!(
                                "cannot assign to whole array `{v}`"
                            )))
                        }
                        None => {
                            return Err(SemaError::new(format!("undeclared variable `{v}`")))
                        }
                    },
                    LValue::ArrayRef(a) => self.check_array_ref(a)?,
                };
                let rt = self.type_of(rhs)?;
                if op.bin_op() == Some(BinOp::Div) && lt.is_int() && rt.is_float() {
                    return Err(SemaError::new(
                        "compound `/=` of a float into an integer element".to_string(),
                    ));
                }
                Ok(())
            }
            Stmt::For(l) => {
                self.scopes.push(HashMap::new());
                if l.declares_var {
                    self.declare(&l.var, Binding::Scalar(ScalarTy::I32))?;
                } else {
                    match self.lookup(&l.var) {
                        Some(Binding::Scalar(t)) if t.is_int() => {}
                        Some(_) => {
                            return Err(SemaError::new(format!(
                                "loop variable `{}` must be an integer scalar",
                                l.var
                            )))
                        }
                        None => {
                            return Err(SemaError::new(format!(
                                "loop variable `{}` is not declared (use `for (int {} = ...)`)",
                                l.var, l.var
                            )))
                        }
                    }
                }
                let lot = self.type_of(&l.lo)?;
                let bt = self.type_of(&l.bound)?;
                if !lot.is_int() || !bt.is_int() {
                    return Err(SemaError::new(format!(
                        "bounds of loop over `{}` must be integers",
                        l.var
                    )));
                }
                if let Some(d) = &l.directive {
                    if d.seq && (d.gang.is_some() || d.vector.is_some()) {
                        return Err(SemaError::new(format!(
                            "loop over `{}` cannot be both `seq` and gang/vector",
                            l.var
                        )));
                    }
                    for r in &d.reductions {
                        match self.lookup(&r.var) {
                            Some(Binding::Scalar(_)) => {}
                            _ => {
                                return Err(SemaError::new(format!(
                                    "reduction variable `{}` must be a declared scalar",
                                    r.var
                                )))
                            }
                        }
                    }
                }
                self.check_stmts(&l.body, in_region)?;
                self.scopes.pop();
                Ok(())
            }
            Stmt::If { cond, then_body, else_body } => {
                self.type_of(cond)?;
                self.check_stmts(then_body, in_region)?;
                self.check_stmts(else_body, in_region)
            }
            Stmt::Block(b) => self.check_stmts(b, in_region),
            Stmt::Region(r) => {
                if in_region {
                    return Err(SemaError::new("offload regions cannot nest"));
                }
                self.check_region_clauses(&r.directive.clauses)?;
                self.check_stmts(&r.body, true)
            }
        }
    }

    fn check_region_clauses(&self, c: &RegionClauses) -> Result<(), SemaError> {
        let array_ty = |name: &Ident| -> Result<&ArrayTy, SemaError> {
            match self.lookup(name) {
                Some(Binding::Array(t)) => Ok(t),
                Some(Binding::Scalar(_)) => Err(SemaError::new(format!(
                    "`{name}` in clause must be an array, but is a scalar"
                ))),
                None => Err(SemaError::new(format!("`{name}` in clause is not declared"))),
            }
        };
        for d in &c.data {
            for v in &d.vars {
                array_ty(v)?;
            }
        }
        for v in &c.small {
            array_ty(v)?;
        }
        if let Some(lb) = &c.launch_bounds {
            match lb.max_threads.as_const() {
                Some(t) if t > 0 => {}
                Some(_) => {
                    return Err(SemaError::new(
                        "`launch_bounds` max threads must be a positive constant",
                    ))
                }
                None => {
                    return Err(SemaError::new(
                        "`launch_bounds` max threads must be a compile-time constant",
                    ))
                }
            }
            if let Some(b) = &lb.min_blocks {
                match b.as_const() {
                    Some(n) if n > 0 => {}
                    Some(_) => {
                        return Err(SemaError::new(
                            "`launch_bounds` min blocks must be a positive constant",
                        ))
                    }
                    None => {
                        return Err(SemaError::new(
                            "`launch_bounds` min blocks must be a compile-time constant",
                        ))
                    }
                }
            }
        }
        let mut grouped: Vec<&Ident> = Vec::new();
        for g in &c.dim_groups {
            if g.arrays.len() < 2 {
                return Err(SemaError::new(
                    "a `dim` group must name at least two arrays to be meaningful",
                ));
            }
            let first = array_ty(&g.arrays[0])?;
            for v in &g.arrays {
                let t = array_ty(v)?;
                if t.rank() != first.rank() {
                    return Err(SemaError::new(format!(
                        "`dim` group mixes ranks: `{}` has rank {}, `{v}` has rank {}",
                        g.arrays[0],
                        first.rank(),
                        t.rank()
                    )));
                }
                if grouped.contains(&v) {
                    return Err(SemaError::new(format!(
                        "array `{v}` appears in more than one `dim` group"
                    )));
                }
                grouped.push(v);
            }
            if let Some(bounds) = &g.bounds {
                if bounds.len() != first.rank() {
                    return Err(SemaError::new(format!(
                        "`dim` group bounds count {} does not match array rank {}",
                        bounds.len(),
                        first.rank()
                    )));
                }
            }
        }
        Ok(())
    }

    fn check_array_ref(&self, a: &ArrayRef) -> Result<ScalarTy, SemaError> {
        let ty = match self.lookup(&a.array) {
            Some(Binding::Array(t)) => t,
            Some(Binding::Scalar(_)) => {
                return Err(SemaError::new(format!("`{}` is a scalar, not an array", a.array)))
            }
            None => return Err(SemaError::new(format!("undeclared array `{}`", a.array))),
        };
        if a.indices.len() != ty.rank() {
            return Err(SemaError::new(format!(
                "array `{}` has rank {} but is indexed with {} subscripts",
                a.array,
                ty.rank(),
                a.indices.len()
            )));
        }
        for ix in &a.indices {
            let t = self.type_of(ix)?;
            if !t.is_int() {
                return Err(SemaError::new(format!(
                    "subscript of `{}` must be an integer expression",
                    a.array
                )));
            }
        }
        Ok(ty.elem)
    }

    fn type_of(&self, e: &Expr) -> Result<ScalarTy, SemaError> {
        match e {
            Expr::IntLit(_) => Ok(ScalarTy::I32),
            Expr::FloatLit(_) => Ok(ScalarTy::F64),
            Expr::Var(v) => match self.lookup(v) {
                Some(Binding::Scalar(t)) => Ok(t),
                Some(Binding::Array(_)) => Err(SemaError::new(format!(
                    "array `{v}` used where a scalar value is required"
                ))),
                None => Err(SemaError::new(format!("undeclared variable `{v}`"))),
            },
            Expr::ArrayRef(a) => self.check_array_ref(a),
            Expr::Unary(UnOp::Neg, inner) => self.type_of(inner),
            Expr::Unary(UnOp::Not, inner) => {
                self.type_of(inner)?;
                Ok(ScalarTy::I32)
            }
            Expr::Binary(op, l, r) => {
                let (lt, rt) = (self.type_of(l)?, self.type_of(r)?);
                if *op == BinOp::Rem && (lt.is_float() || rt.is_float()) {
                    return Err(SemaError::new("`%` requires integer operands"));
                }
                if *op == BinOp::Shl && (lt.is_float() || rt.is_float()) {
                    return Err(SemaError::new("`<<` requires integer operands"));
                }
                if op.is_relational() {
                    Ok(ScalarTy::I32)
                } else {
                    Ok(lt.unify(rt))
                }
            }
            Expr::Call(intr, args) => {
                if args.len() != intr.arity() {
                    return Err(SemaError::new(format!(
                        "`{}` takes {} argument(s), got {}",
                        intr.name(),
                        intr.arity(),
                        args.len()
                    )));
                }
                let tys = args.iter().map(|a| self.type_of(a)).collect::<Result<Vec<_>, _>>()?;
                Ok(intr.result_ty(&tys))
            }
            Expr::Cast(ty, inner) => {
                self.type_of(inner)?;
                Ok(*ty)
            }
        }
    }
}

/// Public helper: compute the scalar type of an expression in the context
/// of a function's parameters and the given extra scalar bindings
/// (used by the code generator).
pub fn expr_type(
    f: &Function,
    locals: &HashMap<Ident, ScalarTy>,
    e: &Expr,
) -> Result<ScalarTy, SemaError> {
    let mut ck = Checker { scopes: vec![HashMap::new()], func: &f.name };
    for p in &f.params {
        let (name, binding) = match p {
            Param::Scalar { name, ty } => (name, Binding::Scalar(*ty)),
            Param::Array { name, ty, .. } => (name, Binding::Array(ty)),
        };
        ck.scopes[0].insert(name, binding);
    }
    for (n, t) in locals {
        ck.scopes[0].insert(n, Binding::Scalar(*t));
    }
    ck.type_of(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn err(src: &str) -> String {
        match parse_program(src) {
            Err(crate::CompileError::Sema(e)) => e.message,
            Ok(_) => panic!("expected a semantic error for:\n{src}"),
            Err(other) => panic!("expected sema error, got {other}"),
        }
    }

    #[test]
    fn ok_program_passes() {
        parse_program(
            "void f(int n, float a[n][n]) { for (int i = 0; i < n; i++) { a[i][0] = 1.0; } }",
        )
        .unwrap();
    }

    #[test]
    fn undeclared_variable() {
        assert!(err("void f(int n) { x = 1; }").contains("undeclared"));
    }

    #[test]
    fn rank_mismatch() {
        assert!(err("void f(int n, float a[n][n]) { a[0] = 1.0; }").contains("rank"));
    }

    #[test]
    fn float_subscript_rejected() {
        assert!(err("void f(int n, float a[n], float x) { a[x] = 1.0; }").contains("integer"));
    }

    #[test]
    fn rem_on_floats_rejected() {
        assert!(err("void f(float x, float y) { x = x % y; }").contains("integer"));
    }

    #[test]
    fn launch_bounds_must_be_positive_constants() {
        let tmpl = |args: &str| {
            format!(
                r#"
        void f(int n, float a[n]) {{
          #pragma acc kernels launch_bounds({args})
          {{
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {{ a[i] = 0.0; }} }}
        }}"#
            )
        };
        assert!(err(&tmpl("0")).contains("positive"));
        assert!(err(&tmpl("n")).contains("constant"));
        assert!(err(&tmpl("128, 0")).contains("positive"));
        assert!(err(&tmpl("128, n")).contains("constant"));
        parse_program(&tmpl("128, 2")).unwrap();
        parse_program(&tmpl("256")).unwrap();
    }

    #[test]
    fn dim_group_needs_two_arrays() {
        let src = r#"
        void f(int n, float a[n], float b[n]) {
          #pragma acc kernels dim((a))
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = b[i]; } }
        }"#;
        assert!(err(src).contains("at least two"));
    }

    #[test]
    fn dim_group_rank_mismatch() {
        let src = r#"
        void f(int n, float a[n], float b[n][n]) {
          #pragma acc kernels dim((a, b))
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = b[i][0]; } }
        }"#;
        assert!(err(src).contains("mixes ranks"));
    }

    #[test]
    fn dim_bounds_count_must_match_rank() {
        let src = r#"
        void f(int n, float a[n], float b[n]) {
          #pragma acc kernels dim((0:n, 0:n)(a, b))
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = b[i]; } }
        }"#;
        assert!(err(src).contains("does not match array rank"));
    }

    #[test]
    fn array_in_two_dim_groups_rejected() {
        let src = r#"
        void f(int n, float a[n], float b[n], float c[n]) {
          #pragma acc kernels dim((a, b), (a, c))
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = b[i] + c[i]; } }
        }"#;
        assert!(err(src).contains("more than one"));
    }

    #[test]
    fn small_on_scalar_rejected() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels small(n)
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) { a[i] = 1.0; } }
        }"#;
        assert!(err(src).contains("must be an array"));
    }

    #[test]
    fn seq_and_gang_conflict() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang seq
            for (int i = 0; i < n; i++) { a[i] = 1.0; }
          }
        }"#;
        assert!(err(src).contains("seq"));
    }

    #[test]
    fn nested_regions_rejected() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc parallel
            {
              #pragma acc loop gang vector
              for (int i = 0; i < n; i++) { a[i] = 1.0; }
            }
          }
        }"#;
        assert!(err(src).contains("nest"));
    }

    #[test]
    fn reduction_var_must_be_scalar() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector reduction(+:a)
            for (int i = 0; i < n; i++) { a[i] = 1.0; }
          }
        }"#;
        assert!(err(src).contains("reduction"));
    }

    #[test]
    fn duplicate_param_rejected() {
        assert!(err("void f(int n, int n) { }").contains("duplicate parameter"));
    }

    #[test]
    fn shadowing_in_nested_scope_is_allowed() {
        // The inner block opens a new scope, so re-declaring `i` is fine.
        parse_program(
            "void f(int n, float a[n]) { for (int i = 0; i < n; i++) { { int i = 0; a[i] = 1.0; } } }",
        )
        .unwrap();
    }

    #[test]
    fn redeclaration_in_same_scope_rejected() {
        assert!(err("void f(int n) { int x = 0; int x = 1; }").contains("redeclared"));
    }

    #[test]
    fn expr_type_helper() {
        let p = parse_program("void f(int n, double x, float a[n]) { }").unwrap();
        let f = &p.functions[0];
        let locals = HashMap::new();
        assert_eq!(
            expr_type(f, &locals, &Expr::bin(BinOp::Add, Expr::var("n"), Expr::var("x"))).unwrap(),
            ScalarTy::F64
        );
    }
}
