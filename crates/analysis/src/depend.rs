//! Dependence-distance testing between array references.
//!
//! The Carr–Kennedy algorithm (and SAFARA) need *input* and *flow*
//! dependences with **constant distance** on a chosen loop variable: a pair
//! like `b[j][i-1]` / `b[j][i+1]` carries a reuse distance of 2 on `i`.
//!
//! For affine subscripts the distance on loop `v` exists when the two
//! references have identical coefficients for every variable and the
//! subscript difference is confined to the `v` term, i.e.
//! `f(v) - g(v) = d · coeff(v)`. A GCD feasibility test
//! ([`gcd_test`]) additionally rules out pairs that can never access the
//! same element.

use crate::affine::affine_of;
use safara_ir::{ArrayRef, Ident};

/// Result of a distance test between two references to the same array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepDistance {
    /// Subscripts are identical in every dimension.
    Same,
    /// Subscripts differ by a constant number of iterations of the given
    /// loop variable (positive = the first reference reads "later" data).
    Const(i64),
    /// The references can never overlap (provably independent).
    Independent,
    /// Analysis could not decide (non-affine or mixed differences).
    Unknown,
}

/// Compute the dependence distance between `a` and `b` with respect to
/// loop variable `v`. Both must reference the same array (panics
/// otherwise — callers group by array first).
pub fn dep_distance(a: &ArrayRef, b: &ArrayRef, v: &Ident) -> DepDistance {
    assert_eq!(a.array, b.array, "dep_distance requires references to one array");
    if a.indices.len() != b.indices.len() {
        return DepDistance::Unknown;
    }
    let mut distance: Option<i64> = None;
    let mut all_same = true;
    for (ia, ib) in a.indices.iter().zip(&b.indices) {
        let (fa, fb) = (affine_of(ia), affine_of(ib));
        if fa.nonaffine || fb.nonaffine {
            return DepDistance::Unknown;
        }
        let diff = fa.sub(&fb);
        if diff.is_const() && diff.konst == 0 {
            continue; // identical in this dimension
        }
        all_same = false;
        // The difference must be a constant (no variable terms), and the
        // common coefficient of `v` must divide it for an integer distance.
        if !diff.is_const() {
            return DepDistance::Unknown;
        }
        let cv = fa.coeff(v);
        if cv == 0 || cv != fb.coeff(v) {
            // `v` does not drive this dimension identically: if the
            // difference is a nonzero constant and no variable can make up
            // for it, the refs never overlap in this dimension.
            if cv == 0 && fb.coeff(v) == 0 {
                return DepDistance::Independent;
            }
            return DepDistance::Unknown;
        }
        if diff.konst % cv != 0 {
            return DepDistance::Independent; // GCD-style: no integer solution
        }
        let d = diff.konst / cv;
        match distance {
            None => distance = Some(d),
            Some(prev) if prev == d => {}
            Some(_) => return DepDistance::Unknown, // inconsistent dims
        }
    }
    if all_same {
        DepDistance::Same
    } else {
        match distance {
            Some(d) => DepDistance::Const(d),
            None => DepDistance::Unknown,
        }
    }
}

/// Classical GCD feasibility test for a single-dimension pair
/// `a1*i + c1` vs `a2*i' + c2`: a dependence requires
/// `gcd(a1, a2) | (c2 - c1)`.
///
/// Returns `true` when a dependence is *possible*.
pub fn gcd_test(a1: i64, c1: i64, a2: i64, c2: i64) -> bool {
    let g = gcd(a1.unsigned_abs(), a2.unsigned_abs());
    if g == 0 {
        return c1 == c2;
    }
    (c2 - c1).unsigned_abs().is_multiple_of(g)
}

/// Greatest common divisor.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// True when two references *may* access the same element for some
/// iteration values (a conservative may-alias test over all dimensions).
pub fn may_overlap(a: &ArrayRef, b: &ArrayRef) -> bool {
    if a.array != b.array || a.indices.len() != b.indices.len() {
        return false;
    }
    for (ia, ib) in a.indices.iter().zip(&b.indices) {
        let (fa, fb) = (affine_of(ia), affine_of(ib));
        if fa.nonaffine || fb.nonaffine {
            return true; // unknown → may overlap
        }
        let diff = fa.sub(&fb);
        if diff.is_const() && diff.konst != 0 {
            // Constant nonzero difference with identical variable parts:
            // same iteration never overlaps, but different iterations may.
            // For the *whole-space* overlap question used here (can the
            // two refs ever touch the same element), a GCD test over the
            // union of variable coefficients decides it.
            let g = fa
                .terms
                .values()
                .chain(fb.terms.values())
                .fold(0u64, |g, &c| gcd(g, c.unsigned_abs()));
            if g == 0 || diff.konst.unsigned_abs() % g != 0 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_ir::{Expr, Ident};

    fn aref(name: &str, idxs: Vec<Expr>) -> ArrayRef {
        ArrayRef { array: Ident::new(name), indices: idxs }
    }

    fn iv(name: &str) -> Expr {
        Expr::var(name)
    }

    fn plus(e: Expr, k: i64) -> Expr {
        Expr::bin(safara_ir::BinOp::Add, e, Expr::IntLit(k))
    }

    #[test]
    fn identical_refs_are_same() {
        let a = aref("b", vec![iv("j"), iv("i")]);
        let b = aref("b", vec![iv("j"), iv("i")]);
        assert_eq!(dep_distance(&a, &b, &Ident::new("i")), DepDistance::Same);
    }

    #[test]
    fn fig3_distance_one() {
        // b[i] vs b[i+1] — the paper's Fig. 3 example, distance 1 on i.
        let a = aref("b", vec![iv("i")]);
        let b = aref("b", vec![plus(iv("i"), 1)]);
        assert_eq!(dep_distance(&b, &a, &Ident::new("i")), DepDistance::Const(1));
        assert_eq!(dep_distance(&a, &b, &Ident::new("i")), DepDistance::Const(-1));
    }

    #[test]
    fn fig5_inner_loop_distances() {
        // b[j][i-1] vs b[j][i+1]: distance 2 on i; j dimension identical.
        let a = aref("b", vec![iv("j"), plus(iv("i"), -1)]);
        let b = aref("b", vec![iv("j"), plus(iv("i"), 1)]);
        assert_eq!(dep_distance(&b, &a, &Ident::new("i")), DepDistance::Const(2));
    }

    #[test]
    fn strided_subscripts_divide() {
        // a[2i] vs a[2i+4]: distance 2. a[2i] vs a[2i+3]: independent.
        let a = aref("a", vec![Expr::bin(safara_ir::BinOp::Mul, Expr::IntLit(2), iv("i"))]);
        let b = aref(
            "a",
            vec![plus(Expr::bin(safara_ir::BinOp::Mul, Expr::IntLit(2), iv("i")), 4)],
        );
        assert_eq!(dep_distance(&b, &a, &Ident::new("i")), DepDistance::Const(2));
        let c = aref(
            "a",
            vec![plus(Expr::bin(safara_ir::BinOp::Mul, Expr::IntLit(2), iv("i")), 3)],
        );
        assert_eq!(dep_distance(&c, &a, &Ident::new("i")), DepDistance::Independent);
    }

    #[test]
    fn constant_subscripts_independent() {
        let a = aref("a", vec![Expr::IntLit(0)]);
        let b = aref("a", vec![Expr::IntLit(1)]);
        assert_eq!(dep_distance(&a, &b, &Ident::new("i")), DepDistance::Independent);
    }

    #[test]
    fn different_variable_parts_unknown() {
        // a[i] vs a[j]: difference is i - j, not constant → unknown.
        let a = aref("a", vec![iv("i")]);
        let b = aref("a", vec![iv("j")]);
        assert_eq!(dep_distance(&a, &b, &Ident::new("i")), DepDistance::Unknown);
    }

    #[test]
    fn nonaffine_is_unknown() {
        let a = aref("a", vec![Expr::bin(safara_ir::BinOp::Mul, iv("i"), iv("j"))]);
        let b = aref("a", vec![iv("i")]);
        assert_eq!(dep_distance(&a, &b, &Ident::new("i")), DepDistance::Unknown);
    }

    #[test]
    fn gcd_test_basics() {
        assert!(gcd_test(2, 0, 2, 4)); // 2i = 2i' + 4 solvable
        assert!(!gcd_test(2, 0, 2, 3)); // parity mismatch
        assert!(gcd_test(0, 5, 0, 5)); // constants equal
        assert!(!gcd_test(0, 5, 0, 6));
        assert!(gcd_test(3, 1, 6, 4)); // gcd 3 divides 3
    }

    #[test]
    fn may_overlap_respects_constant_gaps() {
        let a = aref("a", vec![iv("i")]);
        let b = aref("a", vec![plus(iv("i"), 1)]);
        assert!(may_overlap(&a, &b)); // across iterations
        let c = aref("a", vec![Expr::IntLit(0)]);
        let d = aref("a", vec![Expr::IntLit(3)]);
        assert!(!may_overlap(&c, &d));
        let e = aref("b", vec![iv("i")]);
        assert!(!may_overlap(&a, &e)); // different arrays
    }

    #[test]
    fn diagonal_offset_is_independent_wrt_inner_var() {
        // b[j+1][i+1] vs b[j][i]: varying only `i` can never make the
        // j-dimension (which differs by the constant 1) agree, so with
        // respect to `i` the pair is independent.
        let a = aref("b", vec![plus(iv("j"), 1), plus(iv("i"), 1)]);
        let b = aref("b", vec![iv("j"), iv("i")]);
        assert_eq!(dep_distance(&a, &b, &Ident::new("i")), DepDistance::Independent);
        // With respect to `j`, the i-dimension difference is the blocker in
        // the same way, so the overall answer is again Independent.
        assert_eq!(dep_distance(&a, &b, &Ident::new("j")), DepDistance::Independent);
    }
}
