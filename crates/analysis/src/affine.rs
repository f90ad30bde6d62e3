//! Affine-form extraction for subscript expressions.
//!
//! A subscript expression such as `2*i + j - 1` is represented as a map
//! from variable names to integer coefficients plus a constant term.
//! Expressions that are not affine (e.g. `i*j`, `a[i]`, float-typed terms)
//! are flagged; dependence and coalescing analyses then treat them
//! conservatively.

use safara_ir::{BinOp, Expr, Ident, UnOp};
use std::collections::BTreeMap;

/// An affine expression `Σ coeff(v)·v + konst`, or "not affine".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AffineExpr {
    /// Per-variable coefficients (zero coefficients are never stored).
    pub terms: BTreeMap<Ident, i64>,
    /// Constant term.
    pub konst: i64,
    /// Set when the expression could not be put into affine form.
    pub nonaffine: bool,
}

impl AffineExpr {
    /// The affine constant `k`.
    pub fn constant(k: i64) -> Self {
        AffineExpr { konst: k, ..Default::default() }
    }

    /// The affine variable `v`.
    pub fn variable(v: Ident) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(v, 1);
        AffineExpr { terms, ..Default::default() }
    }

    /// A marker for a non-affine expression.
    pub fn bottom() -> Self {
        AffineExpr { nonaffine: true, ..Default::default() }
    }

    /// Coefficient of `v` (0 if absent).
    pub fn coeff(&self, v: &Ident) -> i64 {
        self.terms.get(v).copied().unwrap_or(0)
    }

    /// True if the expression does not mention `v` (and is affine).
    pub fn is_free_of(&self, v: &Ident) -> bool {
        !self.nonaffine && self.coeff(v) == 0
    }

    /// True if the expression mentions none of `vars`.
    pub fn is_free_of_all<'a>(&self, vars: impl IntoIterator<Item = &'a Ident>) -> bool {
        !self.nonaffine && vars.into_iter().all(|v| self.coeff(v) == 0)
    }

    /// True if affine and entirely constant.
    pub fn is_const(&self) -> bool {
        !self.nonaffine && self.terms.is_empty()
    }

    fn add_term(&mut self, v: Ident, c: i64) {
        use std::collections::btree_map::Entry;
        match self.terms.entry(v) {
            Entry::Occupied(mut o) => {
                *o.get_mut() += c;
                if *o.get() == 0 {
                    o.remove();
                }
            }
            Entry::Vacant(vac) => {
                if c != 0 {
                    vac.insert(c);
                }
            }
        }
    }

    /// `self + other` (bottom-propagating).
    pub fn add(&self, other: &AffineExpr) -> AffineExpr {
        if self.nonaffine || other.nonaffine {
            return AffineExpr::bottom();
        }
        let mut out = self.clone();
        out.konst += other.konst;
        for (v, c) in &other.terms {
            out.add_term(v.clone(), *c);
        }
        out
    }

    /// `self - other` (bottom-propagating).
    pub fn sub(&self, other: &AffineExpr) -> AffineExpr {
        if self.nonaffine || other.nonaffine {
            return AffineExpr::bottom();
        }
        let mut out = self.clone();
        out.konst -= other.konst;
        for (v, c) in &other.terms {
            out.add_term(v.clone(), -c);
        }
        out
    }

    /// `self * k`.
    pub fn scale(&self, k: i64) -> AffineExpr {
        if self.nonaffine {
            return AffineExpr::bottom();
        }
        if k == 0 {
            return AffineExpr::constant(0);
        }
        AffineExpr {
            terms: self.terms.iter().map(|(v, c)| (v.clone(), c * k)).collect(),
            konst: self.konst * k,
            nonaffine: false,
        }
    }
}

/// Extract the affine form of an integer expression. Any sub-expression
/// that is not integer affine (products of variables, divisions that do
/// not fold, float operations, array references, casts, intrinsic calls)
/// makes the result [`AffineExpr::bottom`].
pub fn affine_of(e: &Expr) -> AffineExpr {
    match e {
        Expr::IntLit(v) => AffineExpr::constant(*v),
        Expr::FloatLit(_) => AffineExpr::bottom(),
        Expr::Var(v) => AffineExpr::variable(v.clone()),
        Expr::Unary(UnOp::Neg, inner) => affine_of(inner).scale(-1),
        Expr::Unary(UnOp::Not, _) => AffineExpr::bottom(),
        Expr::Binary(op, l, r) => {
            let (la, ra) = (affine_of(l), affine_of(r));
            match op {
                BinOp::Add => la.add(&ra),
                BinOp::Sub => la.sub(&ra),
                BinOp::Mul => {
                    if la.is_const() {
                        ra.scale(la.konst)
                    } else if ra.is_const() {
                        la.scale(ra.konst)
                    } else {
                        AffineExpr::bottom()
                    }
                }
                BinOp::Shl => {
                    // A shift by an in-range constant is a power-of-two
                    // scale — the strength-reduced form the saturation
                    // phase emits must stay visible to dependence and
                    // coalescing analyses.
                    if ra.is_const() && (0..32).contains(&ra.konst) {
                        la.scale(1i64 << ra.konst)
                    } else {
                        AffineExpr::bottom()
                    }
                }
                BinOp::Div | BinOp::Rem => {
                    // Fold only fully-constant divisions.
                    if la.is_const() && ra.is_const() && ra.konst != 0 {
                        AffineExpr::constant(if *op == BinOp::Div {
                            la.konst / ra.konst
                        } else {
                            la.konst % ra.konst
                        })
                    } else {
                        AffineExpr::bottom()
                    }
                }
                _ => AffineExpr::bottom(),
            }
        }
        Expr::Cast(ty, inner) if ty.is_int() => affine_of(inner),
        _ => AffineExpr::bottom(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_ir::parse_program;

    fn affine(src_expr: &str) -> AffineExpr {
        // Parse inside a dummy function to reuse the expression parser.
        let src = format!("void f(int i, int j, int k, int n, float a[n]) {{ n = {src_expr}; }}");
        let p = parse_program(&src).unwrap();
        match &p.functions[0].body[0] {
            safara_ir::Stmt::Assign { rhs, .. } => affine_of(rhs),
            _ => unreachable!(),
        }
    }

    fn id(s: &str) -> Ident {
        Ident::new(s)
    }

    #[test]
    fn simple_linear_forms() {
        let a = affine("2 * i + j - 1");
        assert_eq!(a.coeff(&id("i")), 2);
        assert_eq!(a.coeff(&id("j")), 1);
        assert_eq!(a.konst, -1);
        assert!(!a.nonaffine);
    }

    #[test]
    fn nested_scaling() {
        let a = affine("3 * (i - 2 * (j + 1))");
        assert_eq!(a.coeff(&id("i")), 3);
        assert_eq!(a.coeff(&id("j")), -6);
        assert_eq!(a.konst, -6);
    }

    #[test]
    fn cancellation_removes_zero_terms() {
        let a = affine("i + j - i");
        assert_eq!(a.coeff(&id("i")), 0);
        assert!(!a.terms.contains_key(&id("i")));
        assert_eq!(a.coeff(&id("j")), 1);
    }

    #[test]
    fn products_of_variables_are_bottom() {
        assert!(affine("i * j").nonaffine);
        assert!(affine("i / j").nonaffine);
        assert!(affine("i % 2").nonaffine); // variable % constant: not affine
    }

    #[test]
    fn constant_folding_in_div() {
        let a = affine("8 / 2 + 7 % 4");
        assert!(a.is_const());
        assert_eq!(a.konst, 7);
    }

    #[test]
    fn array_refs_are_bottom() {
        assert!(affine("i + n * 0 + (int) a[0]").nonaffine);
    }

    #[test]
    fn freeness_queries() {
        let a = affine("2 * i + 3");
        assert!(a.is_free_of(&id("j")));
        assert!(!a.is_free_of(&id("i")));
        assert!(a.is_free_of_all([&id("j"), &id("k")]));
        assert!(!a.is_free_of_all([&id("j"), &id("i")]));
        assert!(!AffineExpr::bottom().is_free_of(&id("j")));
    }

    #[test]
    fn sub_of_equal_is_zero() {
        let a = affine("2 * i + j + 5");
        let d = a.sub(&a);
        assert!(d.is_const());
        assert_eq!(d.konst, 0);
    }
}
