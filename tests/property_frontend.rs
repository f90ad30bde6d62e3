//! Randomized property tests of the front-end and the core analyses:
//!
//! * printer round-trips are fixed points (parse → print → parse → print);
//! * `affine_of` recovers coefficients of randomly *constructed* affine
//!   expressions exactly, and the affine form evaluates equal to the
//!   expression at random points;
//! * the GCD dependence test is sound (never reports "independent" when a
//!   brute-force search finds a solution);
//! * the lexer never panics on arbitrary ASCII input.
//!
//! All inputs are drawn from the in-tree [`SplitMix64`] generator (no
//! crates.io dependency); each case is a pure function of its index, so
//! failures reproduce exactly.

use safara_core::analysis::affine::{affine_of, AffineExpr};
use safara_core::analysis::depend::{gcd, gcd_test};
use safara_core::ir::printer::print_program;
use safara_core::ir::{lexer, parse_program, BinOp, Expr, Ident, UnOp};
use safara_core::SplitMix64;
use std::collections::BTreeMap;

const CASES: u64 = 128;

/// Random string over the printable-ASCII + `\n` + `\t` alphabet.
fn ascii_soup(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.gen_index(max_len + 1);
    (0..len)
        .map(|_| match rng.gen_index(96) {
            94 => '\n',
            95 => '\t',
            c => (b' ' + c as u8) as char,
        })
        .collect()
}

// ---------------------------------------------------------------- affine

/// Build a random *known-affine* expression and its expected form.
fn affine_pair(rng: &mut SplitMix64) -> (Expr, AffineExpr) {
    // Terms over variables i, j, k with small coefficients plus constant.
    let ci = rng.gen_range_i64(-5, 6);
    let cj = rng.gen_range_i64(-5, 6);
    let ck = rng.gen_range_i64(-5, 6);
    let c0 = rng.gen_range_i64(-20, 21);
    let shuffle: Vec<usize> = (0..rng.gen_index(4)).map(|_| rng.gen_index(3)).collect();

    let vars = ["i", "j", "k"];
    let coeffs = [ci, cj, ck];
    let mut expr = Expr::IntLit(c0);
    for (v, &c) in vars.iter().zip(&coeffs) {
        // c * v, built a few different ways for syntactic variety.
        let term = Expr::bin(BinOp::Mul, Expr::IntLit(c), Expr::var(*v));
        expr = Expr::bin(BinOp::Add, expr, term);
    }
    // Extra no-op shuffles: add then subtract a variable.
    for s in shuffle {
        let v = Expr::var(vars[s]);
        expr = Expr::bin(BinOp::Sub, Expr::bin(BinOp::Add, expr, v.clone()), v);
    }
    let mut want = AffineExpr::constant(c0);
    for (v, &c) in vars.iter().zip(&coeffs) {
        want = want.add(&AffineExpr::variable(Ident::new(*v)).scale(c));
    }
    (expr, want)
}

fn eval_expr(e: &Expr, env: &BTreeMap<&str, i64>) -> i64 {
    match e {
        Expr::IntLit(v) => *v,
        Expr::Var(v) => env[v.as_str()],
        Expr::Unary(UnOp::Neg, x) => -eval_expr(x, env),
        Expr::Binary(BinOp::Add, l, r) => eval_expr(l, env) + eval_expr(r, env),
        Expr::Binary(BinOp::Sub, l, r) => eval_expr(l, env) - eval_expr(r, env),
        Expr::Binary(BinOp::Mul, l, r) => eval_expr(l, env) * eval_expr(r, env),
        other => panic!("unexpected node {other:?}"),
    }
}

#[test]
fn affine_of_recovers_constructed_coefficients() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xAFF1_0000 + case);
        let (expr, want) = affine_pair(&mut rng);
        let got = affine_of(&expr);
        assert!(!got.nonaffine);
        assert_eq!(got, want, "case {case}, expr: {expr:?}");
    }
}

#[test]
fn affine_form_evaluates_like_the_expression() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xAFF2_0000 + case);
        let (expr, _) = affine_pair(&mut rng);
        let i = rng.gen_range_i64(-10, 10);
        let j = rng.gen_range_i64(-10, 10);
        let k = rng.gen_range_i64(-10, 10);
        let env: BTreeMap<&str, i64> = [("i", i), ("j", j), ("k", k)].into();
        let form = affine_of(&expr);
        let by_form: i64 =
            form.konst + form.terms.iter().map(|(v, c)| c * env[v.as_str()]).sum::<i64>();
        assert_eq!(by_form, eval_expr(&expr, &env), "case {case}");
    }
}

/// GCD-test soundness: if a brute-force search finds `a1·x + c1 ==
/// a2·y + c2`, the test must not have ruled a dependence out.
#[test]
fn gcd_test_is_sound() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x6CD0_0000 + case);
        let a1 = rng.gen_range_i64(-6, 7);
        let c1 = rng.gen_range_i64(-30, 31);
        let a2 = rng.gen_range_i64(-6, 7);
        let c2 = rng.gen_range_i64(-30, 31);
        let mut found = false;
        'outer: for x in -60..=60i64 {
            for y in -60..=60i64 {
                if a1 * x + c1 == a2 * y + c2 {
                    found = true;
                    break 'outer;
                }
            }
        }
        if found {
            assert!(gcd_test(a1, c1, a2, c2), "missed dependence: {a1}x+{c1} == {a2}y+{c2}");
        }
    }
}

#[test]
fn gcd_agrees_with_euclid_properties() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x6CD1_0000 + case);
        let a = rng.gen_range_i64(0, 1000) as u64;
        let b = rng.gen_range_i64(0, 1000) as u64;
        let g = gcd(a, b);
        if a != 0 || b != 0 {
            assert!(g > 0);
            assert_eq!(a % g, 0);
            assert_eq!(b % g, 0);
        } else {
            assert_eq!(g, 0);
        }
    }
}

/// The lexer terminates without panicking on arbitrary ASCII soup.
#[test]
fn lexer_never_panics() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x1E0F_0000 + case);
        let src = ascii_soup(&mut rng, 200);
        let _ = lexer::lex(&src);
    }
}

/// The whole front-end (lex + parse + sema) returns `Err` rather than
/// panicking on arbitrary input.
#[test]
fn frontend_never_panics() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xF404_0000 + case);
        let src = ascii_soup(&mut rng, 300);
        let _ = parse_program(&src);
    }
}

/// Mutated-but-plausible source: splice random punctuation into a
/// valid program; the front-end must still never panic.
#[test]
fn frontend_survives_mutations() {
    const PUNCT: &[u8] = b"(){};:,+*-";
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x3071_0000 + case);
        let base = "void f(int n, float a[n]) {\n  #pragma acc kernels copy(a)\n  {\n    #pragma acc loop gang vector\n    for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }\n  }\n}\n";
        let cut = rng.gen_index(200).min(base.len());
        let punct: String = (0..1 + rng.gen_index(4))
            .map(|_| PUNCT[rng.gen_index(PUNCT.len())] as char)
            .collect();
        // The base is ASCII, so any byte offset is a char boundary.
        let mutated = format!("{}{}{}", &base[..cut], punct, &base[cut..]);
        let _ = parse_program(&mutated);
    }
}

// ------------------------------------------------------------- roundtrip

/// Random-but-valid MiniACC program for printer round-trips, built from
/// string templates (statement bodies come from a tiny grammar).
fn random_program(rng: &mut SplitMix64) -> String {
    const EXPRS: &[&str] = &[
        "a[i]",
        "a[i + 1]",
        "b[i]",
        "s0 * 2.0",
        "(a[i] - s1) / (s0 + 4.0)",
        "min(a[i], b[i]) + fabs(s1)",
        "(float) (i % 7)",
    ];
    let n_stmts = 1 + rng.gen_index(4);
    let mut body = String::new();
    for _ in 0..n_stmts {
        let to_b = rng.gen_bool();
        body.push_str(if to_b { "        b[i] = " } else { "        b[i] += " });
        body.push_str(EXPRS[rng.gen_index(EXPRS.len())]);
        body.push_str(";\n");
    }
    let with_seq = rng.gen_bool();
    let trip = 1 + rng.gen_index(3);
    let seq = if with_seq {
        format!(
            "        #pragma acc loop seq\n        for (int k = 0; k < {trip}; k++) \
             {{ b[i] += a[i] * 0.5; }}\n"
        )
    } else {
        String::new()
    };
    format!(
        "void f(int n, float s0, float s1, const float a[n], float b[n]) {{\n\
         #pragma acc kernels copyin(a) copy(b) small(a, b)\n{{\n\
         #pragma acc loop gang vector\nfor (int i = 0; i < n - 2; i++) {{\n\
         {body}{seq}}}\n}}\n}}\n"
    )
}

#[test]
fn printer_roundtrip_is_fixed_point() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x4074_0000 + case);
        let src = random_program(&mut rng);
        let p1 = parse_program(&src).expect("generated source parses");
        let t1 = print_program(&p1);
        let p2 = parse_program(&t1).expect("printed source parses");
        let t2 = print_program(&p2);
        assert_eq!(t1, t2, "case {case}");
    }
}
