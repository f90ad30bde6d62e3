//! The rewrite rule set and the saturation loop.
//!
//! Every rule is an algebraic identity over two's-complement wrapping
//! integer arithmetic, so it preserves simulated output bit-for-bit;
//! rules never fire on float-typed (or untyped) classes. The families:
//!
//! * **CSE** — free: hash-consing plus congruence closure share every
//!   structurally (or provably) equal subexpression.
//! * **Reassociation** — commutativity and associativity of `+`/`*`,
//!   which let the factoring rule find common factors in any position.
//! * **Constant folding** — mirrors [`Expr::as_const`] exactly
//!   (wrapping; `/`/`%` only with a nonzero divisor; `<<` only with an
//!   in-range count), plus the usual `x+0`, `x-0`, `x*1`, `x*0`,
//!   `x-x`, `x<<0` identities.
//! * **Offset factoring** — `a*c + b*c → (a+b)*c` (and the `-`
//!   variant), the generalization of the `dim` clause's Horner-form
//!   address grouping: expanded offsets regroup so partial products
//!   are shared, which is where the register wins come from.
//! * **Distribution over constants** — `(a±b)*k → a*k ± b*k` for
//!   literal `k` only. This is what strength-reduces induction
//!   increments: `(i+1)*c` exposes `i*c + c`, and `i*c` then shares
//!   with the un-incremented reference.
//! * **Strength reduction** — `x * 2^k → x << k`. Sound for both
//!   operand widths because the engines mask shift counts per width
//!   and `wrapping_mul(1<<k) == wrapping_shl(k)` in two's complement.
//! * **Cast collapse** — `(T) x → x` when `x` is already of type `T`.
//!
//! 32-bit narrowing is *not* an e-graph rule: removing an `(long)`
//! widen changes the class type, which a merge cannot express. It runs
//! as [`narrow_subscripts`], a guarded pre-rewrite applied while
//! populating the graph — see that function for the soundness
//! argument.

use super::{ClassId, EGraph, ENode, TypeEnv};
use safara_ir::{ArrayRef, BinOp, Expr, Ident, ScalarTy, UnOp};
use std::collections::HashSet;

/// Deterministic termination bounds for the saturation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturateConfig {
    /// Maximum rule rounds. Hitting this is benign: extraction from a
    /// partially saturated e-graph is still sound, we just may miss a
    /// cheaper form.
    pub max_rounds: u32,
    /// Maximum distinct e-nodes. Breaching this aborts the phase with
    /// a [`SaturateError`] — the escape hatch for pathological
    /// kernels whose equality space blows up.
    pub max_nodes: usize,
}

impl Default for SaturateConfig {
    fn default() -> Self {
        SaturateConfig { max_rounds: 6, max_nodes: 10_000 }
    }
}

/// Why the saturation loop stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A full round produced no new facts — the e-graph is saturated.
    Saturated,
    /// The round cap was reached first (benign).
    RoundCap,
}

impl StopReason {
    /// Stable lowercase name for traces.
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Saturated => "saturated",
            StopReason::RoundCap => "round_cap",
        }
    }
}

/// Counters for the traced opt span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturateStats {
    /// Rounds actually run.
    pub rounds: u32,
    /// Live e-classes after the final rebuild.
    pub e_classes: usize,
    /// Distinct e-nodes after the final rebuild.
    pub e_nodes: usize,
    /// Why the loop stopped.
    pub stop: StopReason,
}

/// The e-node cap was breached: saturation refused to continue rather
/// than risk unbounded growth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaturateError {
    /// Human-readable description (node count, cap, round).
    pub message: String,
}

impl std::fmt::Display for SaturateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SaturateError {}

/// Run the rule set until saturation or a cap. Deterministic: rules
/// scan canonical class ids ascending and node lists in insertion
/// order, and the loop's stopping condition is a structural version
/// counter, never wall-clock.
pub fn saturate(eg: &mut EGraph, cfg: &SaturateConfig) -> Result<SaturateStats, SaturateError> {
    eg.rebuild();
    let mut rounds = 0u32;
    let stop = loop {
        if rounds >= cfg.max_rounds {
            break StopReason::RoundCap;
        }
        let v0 = eg.version();
        apply_rules(eg, cfg.max_nodes);
        eg.rebuild();
        rounds += 1;
        if eg.n_nodes() > cfg.max_nodes {
            return Err(SaturateError {
                message: format!(
                    "equality saturation exceeded the {}-e-node cap ({} nodes after round {})",
                    cfg.max_nodes,
                    eg.n_nodes(),
                    rounds
                ),
            });
        }
        if eg.version() == v0 {
            break StopReason::Saturated;
        }
    };
    Ok(SaturateStats {
        rounds,
        e_classes: eg.n_classes(),
        e_nodes: eg.n_nodes(),
        stop,
    })
}

/// One rule round: snapshot each class's nodes, then fire every rule
/// on every node. New nodes and unions land immediately (the snapshot
/// keeps iteration well-defined); congruence repair is deferred to the
/// caller's `rebuild`.
///
/// The node cap is enforced *inside* the round, not just between
/// rounds: rules read class lists that grow as earlier rules in the
/// same round fire, so growth within a single round can be
/// exponential on pathological inputs — an end-of-round check alone
/// would never be reached. A breach aborts the round; the caller then
/// surfaces the cap error.
fn apply_rules(eg: &mut EGraph, max_nodes: usize) {
    for id in eg.canonical_ids() {
        if eg.n_nodes() > max_nodes {
            return;
        }
        let id = eg.find(id);
        let nodes = eg.nodes(id).to_vec();
        for node in nodes {
            if eg.n_nodes() > max_nodes {
                return;
            }
            rewrite_node(eg, id, &node);
        }
    }
}

fn is_int_class(eg: &EGraph, id: ClassId) -> bool {
    matches!(eg.ty(id), Some(t) if t.is_int())
}

fn rewrite_node(eg: &mut EGraph, class: ClassId, node: &ENode) {
    // Cast collapse is type-directed, not arithmetic, so it runs even
    // for float-to-float no-op casts.
    if let ENode::Cast(ty, inner) = node {
        if eg.ty(*inner) == Some(*ty) {
            eg.union(class, *inner);
        }
        return;
    }
    // Everything below is integer ring algebra.
    if !is_int_class(eg, class) {
        return;
    }
    match node {
        ENode::Unary(UnOp::Neg, c) => {
            let c = eg.find(*c);
            if let Some(v) = eg.const_of(c) {
                let k = eg.add(ENode::Int(v.wrapping_neg()));
                eg.union(class, k);
            }
            // -(-x) = x
            for n in eg.nodes(c).to_vec() {
                if let ENode::Unary(UnOp::Neg, x) = n {
                    eg.union(class, x);
                }
            }
        }
        ENode::Bin(op, a, b) => {
            let (a, b) = (eg.find(*a), eg.find(*b));
            rewrite_bin(eg, class, *op, a, b);
        }
        _ => {}
    }
}

fn rewrite_bin(eg: &mut EGraph, class: ClassId, op: BinOp, a: ClassId, b: ClassId) {
    let (ca, cb) = (eg.const_of(a), eg.const_of(b));
    // Constant folding, mirroring Expr::as_const exactly.
    if let (Some(x), Some(y)) = (ca, cb) {
        let folded = match op {
            BinOp::Add => Some(x.wrapping_add(y)),
            BinOp::Sub => Some(x.wrapping_sub(y)),
            BinOp::Mul => Some(x.wrapping_mul(y)),
            BinOp::Div if y != 0 => Some(x.wrapping_div(y)),
            BinOp::Rem if y != 0 => Some(x.wrapping_rem(y)),
            BinOp::Shl if (0..32).contains(&y) => Some(x.wrapping_shl(y as u32)),
            _ => None,
        };
        if let Some(v) = folded {
            let k = eg.add(ENode::Int(v));
            eg.union(class, k);
        }
    }
    // Structural rules gain nothing on a class already known to be a
    // constant: extraction will pick the weight-0 literal regardless,
    // and on self-referential constant classes (`0 ≡ i*0` puts a `Mul`
    // into the zero class) associativity/factoring would grind out an
    // endless coset of junk identities (`0 ≡ 0*(i*i)`, ...).
    if eg.const_of(class).is_some() {
        return;
    }
    match op {
        BinOp::Add => {
            // Commutativity.
            let swapped = eg.add(ENode::Bin(BinOp::Add, b, a));
            eg.union(class, swapped);
            // Identity.
            if cb == Some(0) {
                eg.union(class, a);
            }
            if ca == Some(0) {
                eg.union(class, b);
            }
            // Associativity: (x + y) + b = x + (y + b).
            for n in eg.nodes(a).to_vec() {
                if let ENode::Bin(BinOp::Add, x, y) = n {
                    let yb = eg.add(ENode::Bin(BinOp::Add, y, b));
                    let t = eg.add(ENode::Bin(BinOp::Add, x, yb));
                    eg.union(class, t);
                }
            }
            factor(eg, class, BinOp::Add, a, b);
        }
        BinOp::Sub => {
            if cb == Some(0) {
                eg.union(class, a);
            }
            if a == b {
                let z = eg.add(ENode::Int(0));
                eg.union(class, z);
            }
            factor(eg, class, BinOp::Sub, a, b);
        }
        BinOp::Mul => {
            let swapped = eg.add(ENode::Bin(BinOp::Mul, b, a));
            eg.union(class, swapped);
            if cb == Some(1) {
                eg.union(class, a);
            }
            if ca == Some(1) {
                eg.union(class, b);
            }
            if cb == Some(0) || ca == Some(0) {
                let z = eg.add(ENode::Int(0));
                eg.union(class, z);
            }
            // Associativity: (x * y) * b = x * (y * b).
            for n in eg.nodes(a).to_vec() {
                if let ENode::Bin(BinOp::Mul, x, y) = n {
                    let yb = eg.add(ENode::Bin(BinOp::Mul, y, b));
                    let t = eg.add(ENode::Bin(BinOp::Mul, x, yb));
                    eg.union(class, t);
                }
            }
            // Distribution over a literal multiplier: (x ± y) * k =
            // x*k ± y*k. Restricted to constants so it feeds strength
            // reduction and induction-increment sharing without
            // exploding the graph on symbolic products.
            if cb.is_some() {
                for n in eg.nodes(a).to_vec() {
                    if let ENode::Bin(inner_op @ (BinOp::Add | BinOp::Sub), x, y) = n {
                        let xb = eg.add(ENode::Bin(BinOp::Mul, x, b));
                        let yb = eg.add(ENode::Bin(BinOp::Mul, y, b));
                        let t = eg.add(ENode::Bin(inner_op, xb, yb));
                        eg.union(class, t);
                    }
                }
            }
            // Strength reduction: x * 2^k = x << k. The shift count
            // stays < 31 so the identity holds at both operand widths.
            if let Some(k) = cb {
                if k >= 2 && k.count_ones() == 1 {
                    let sh = k.trailing_zeros();
                    if sh < 31 {
                        let shc = eg.add(ENode::Int(sh as i64));
                        let t = eg.add(ENode::Bin(BinOp::Shl, a, shc));
                        eg.union(class, t);
                    }
                }
            }
        }
        BinOp::Shl if cb == Some(0) => {
            eg.union(class, a);
        }
        // Division, remainder, comparisons, logical ops: constant
        // folding only (handled above); no algebraic rules — they are
        // not ring operations and reassociating them is unsound.
        _ => {}
    }
}

/// Factoring: `p*q ± r*s` with `q ≡ s` becomes `(p ± r)*q`. This is
/// the e-graph generalization of the `dim` clause's Horner-form
/// address grouping (`safara_ir::offset::row_major_offset`): an
/// expanded row-major offset `i*e1*e2 + j*e2 + k` refolds into
/// `(i*e1 + j)*e2 + k`, sharing the partial product. Commutativity of
/// `*` lets the common factor sit on either side.
fn factor(eg: &mut EGraph, class: ClassId, op: BinOp, a: ClassId, b: ClassId) {
    for na in eg.nodes(a).to_vec() {
        let ENode::Bin(BinOp::Mul, p, q) = na else { continue };
        for nb in eg.nodes(b).to_vec() {
            let ENode::Bin(BinOp::Mul, r, s) = nb else { continue };
            if eg.find(q) == eg.find(s) {
                let pr = eg.add(ENode::Bin(op, p, r));
                let t = eg.add(ENode::Bin(BinOp::Mul, pr, q));
                eg.union(class, t);
            }
        }
    }
}

/// The `small`-narrowing pre-rewrite: inside subscript indices of
/// arrays whose offsets codegen computes in 32-bit arithmetic
/// (provably-small static arrays, or honored `small`-clause members),
/// strip `(long)` widening casts of 32-bit integer subexpressions.
///
/// Soundness: codegen truncates the finished index to 32 bits for
/// these arrays anyway (`off_ty = B32`), and truncation is a ring
/// homomorphism for `+`, `-`, `*`, `<<` and negation — so computing
/// those operations at 32 bits instead of widening first yields the
/// same low 32 bits. The recursion only descends through exactly
/// those operators; a cast under `/`, `%`, a call, or a float
/// operation is never reached, and arrays *not* in `narrow` are left
/// untouched (the refusal case: without `small`, the widen must
/// stay).
pub fn narrow_subscripts(e: &Expr, env: &TypeEnv, narrow: &HashSet<Ident>) -> Expr {
    match e {
        Expr::ArrayRef(a) => {
            let indices = a
                .indices
                .iter()
                .map(|ix| {
                    let ix = narrow_subscripts(ix, env, narrow);
                    if narrow.contains(&a.array) {
                        strip_widen(&ix, env)
                    } else {
                        ix
                    }
                })
                .collect();
            Expr::ArrayRef(ArrayRef { array: a.array.clone(), indices })
        }
        Expr::Unary(op, inner) => {
            Expr::Unary(*op, Box::new(narrow_subscripts(inner, env, narrow)))
        }
        Expr::Binary(op, l, r) => Expr::bin(
            *op,
            narrow_subscripts(l, env, narrow),
            narrow_subscripts(r, env, narrow),
        ),
        Expr::Call(i, args) => Expr::Call(
            *i,
            args.iter().map(|a| narrow_subscripts(a, env, narrow)).collect(),
        ),
        Expr::Cast(ty, inner) => {
            Expr::Cast(*ty, Box::new(narrow_subscripts(inner, env, narrow)))
        }
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => e.clone(),
    }
}

/// Narrow one subscript index of a covered array: the entry point for
/// index expressions that appear *outside* any enclosing
/// [`Expr::ArrayRef`] (assignment-target subscripts, which the region
/// walker hands out as bare roots).
pub fn narrow_index(e: &Expr, env: &TypeEnv) -> Expr {
    strip_widen(e, env)
}

/// Descend through truncation-homomorphic operators, dropping `(long)`
/// widens of 32-bit subexpressions.
fn strip_widen(e: &Expr, env: &TypeEnv) -> Expr {
    match e {
        Expr::Cast(ScalarTy::I64, inner) if scalar_expr_ty(inner, env) == Some(ScalarTy::I32) => {
            strip_widen(inner, env)
        }
        Expr::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Shl), l, r) => {
            Expr::bin(*op, strip_widen(l, env), strip_widen(r, env))
        }
        Expr::Unary(UnOp::Neg, inner) => Expr::Unary(UnOp::Neg, Box::new(strip_widen(inner, env))),
        _ => e.clone(),
    }
}

/// Type of a scalar expression under `env`, mirroring sema's rules
/// (`None` when a name is unknown — such expressions are never
/// narrowed).
fn scalar_expr_ty(e: &Expr, env: &TypeEnv) -> Option<ScalarTy> {
    match e {
        Expr::IntLit(_) => Some(ScalarTy::I32),
        Expr::FloatLit(_) => Some(ScalarTy::F64),
        Expr::Var(v) => env.scalars.get(v).copied(),
        Expr::ArrayRef(a) => env.arrays.get(&a.array).copied(),
        Expr::Unary(UnOp::Neg, inner) => scalar_expr_ty(inner, env),
        Expr::Unary(UnOp::Not, _) => Some(ScalarTy::I32),
        Expr::Binary(op, l, r) => {
            if op.is_relational() {
                Some(ScalarTy::I32)
            } else {
                Some(scalar_expr_ty(l, env)?.unify(scalar_expr_ty(r, env)?))
            }
        }
        Expr::Call(i, args) => {
            let tys = args.iter().map(|a| scalar_expr_ty(a, env)).collect::<Option<Vec<_>>>()?;
            Some(i.result_ty(&tys))
        }
        Expr::Cast(ty, _) => Some(*ty),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{class_costs, extract_class, saturate_region, EGraph};
    use super::*;
    use safara_ir::{parse_program, printer::print_expr, Ident};
    use std::collections::HashMap;

    /// Saturate a single integer expression over int vars and return
    /// the extracted (cheapest) form, printed.
    fn simplify(src_expr: &str, cfg: &SaturateConfig) -> String {
        let mut env = TypeEnv::default();
        for v in ["i", "j", "k", "n", "m"] {
            env.scalars.insert(Ident::new(v), ScalarTy::I32);
        }
        let src = format!("void f(int i, int j, int k, int n, int m) {{ n = {src_expr}; }}");
        let p = parse_program(&src).unwrap();
        let safara_ir::Stmt::Assign { rhs, .. } = &p.functions[0].body[0] else { unreachable!() };
        let mut eg = EGraph::new(env);
        let root = eg.add_expr(rhs);
        saturate(&mut eg, cfg).expect("within caps");
        let costs = class_costs(&eg);
        let mut memo = HashMap::new();
        print_expr(&extract_class(&eg, &costs, eg.find(root), &mut memo))
    }

    fn simp(src_expr: &str) -> String {
        simplify(src_expr, &SaturateConfig::default())
    }

    #[test]
    fn constant_folding_and_identities() {
        assert_eq!(simp("i + 0"), "i");
        assert_eq!(simp("i * 1"), "i");
        assert_eq!(simp("i * 0"), "0");
        assert_eq!(simp("i - i"), "0");
        assert_eq!(simp("2 * 3 + i - 0"), "6 + i");
        assert_eq!(simp("i - (4 - 2 * 2)"), "i");
    }

    #[test]
    fn cse_is_inherent_and_extraction_is_stable() {
        // Structurally equal subtrees share a class; with nothing to
        // improve, extraction reproduces the input (first-inserted
        // tie-break keeps the original shape).
        assert_eq!(simp("(i + j) * k + (i + j)"), "(i + j) * k + (i + j)");
        assert_eq!(simp("i * j + k"), "i * j + k");
    }

    #[test]
    fn factoring_shares_common_factors() {
        assert_eq!(simp("i * n + j * n"), "(i + j) * n");
        assert_eq!(simp("i * n - j * n"), "(i - j) * n");
        // The factor may sit on either side (commutativity feeds the
        // matcher).
        assert_eq!(simp("n * i + j * n"), "(i + j) * n");
    }

    #[test]
    fn factoring_regroups_row_major_offsets() {
        // The expanded 3-D row-major offset refolds into the Horner
        // form the `dim` clause produces by hand: i*m*n + j*n + k
        // = (i*m + j)*n + k.
        let out = simp("i * m * n + j * n + k");
        assert_eq!(out, "(i * m + j) * n + k");
    }

    #[test]
    fn strength_reduction_rewrites_pow2_multiplies() {
        assert_eq!(simp("i * 8"), "i << 3");
        assert_eq!(simp("2 * i"), "i << 1");
        // Non-powers of two keep the multiply.
        assert_eq!(simp("i * 6"), "i * 6");
        // Distribution over the literal exposes the shared i<<2:
        // (i+1)*4 = i*4 + 4 = (i<<2) + 4.
        assert_eq!(simp("(i + 1) * 4"), "(i << 2) + 4");
    }

    #[test]
    fn float_expressions_are_never_rewritten() {
        let mut env = TypeEnv::default();
        env.scalars.insert(Ident::new("x"), ScalarTy::F32);
        let src = "void f(float x) { x = x * 8.0 + 0.0; }";
        let p = parse_program(src).unwrap();
        let safara_ir::Stmt::Assign { rhs, .. } = &p.functions[0].body[0] else { unreachable!() };
        let mut eg = EGraph::new(env);
        let root = eg.add_expr(rhs);
        saturate(&mut eg, &SaturateConfig::default()).unwrap();
        let costs = class_costs(&eg);
        let mut memo = HashMap::new();
        let out = print_expr(&extract_class(&eg, &costs, eg.find(root), &mut memo));
        assert_eq!(out, "x * 8.0 + 0.0", "float algebra must stay untouched");
    }

    #[test]
    fn node_cap_is_a_typed_error_not_a_hang() {
        let mut env = TypeEnv::default();
        for v in ["i", "j", "k", "n", "m"] {
            env.scalars.insert(Ident::new(v), ScalarTy::I32);
        }
        let src = "void f(int i, int j, int k, int n, int m) { n = (i + j) * (k + m) * (i + m) * (j + k); }";
        let p = parse_program(src).unwrap();
        let safara_ir::Stmt::Assign { rhs, .. } = &p.functions[0].body[0] else { unreachable!() };
        let mut eg = EGraph::new(env);
        eg.add_expr(rhs);
        let err = saturate(&mut eg, &SaturateConfig { max_rounds: 50, max_nodes: 24 })
            .expect_err("a tiny cap must trip");
        assert!(err.message.contains("e-node cap"), "got: {}", err.message);
    }

    #[test]
    fn round_cap_is_a_benign_stop() {
        let mut env = TypeEnv::default();
        env.scalars.insert(Ident::new("i"), ScalarTy::I32);
        let mut eg = EGraph::new(env);
        let e = Expr::bin(BinOp::Mul, Expr::var("i"), Expr::IntLit(8));
        let root = eg.add_expr(&e);
        let stats = saturate(&mut eg, &SaturateConfig { max_rounds: 1, max_nodes: 10_000 })
            .expect("round cap is not an error");
        assert_eq!(stats.stop, StopReason::RoundCap);
        assert_eq!(stats.rounds, 1);
        // One round was enough to discover the shift; extraction uses
        // whatever the graph holds so far.
        let costs = class_costs(&eg);
        let mut memo = HashMap::new();
        let out = print_expr(&extract_class(&eg, &costs, eg.find(root), &mut memo));
        assert_eq!(out, "i << 3");
    }

    /// Region-level fixture for the narrowing tests: a 1-D dynamic
    /// array indexed through a `(long)` widen.
    fn narrowing_fixture(clause: &str) -> String {
        let src = format!(
            "void f(int i, int n, float a[n]) {{\n\
             #pragma acc parallel{clause}\n\
             {{\n\
             #pragma acc loop gang vector\n\
             for (int t = 0; t < n; t++) {{ a[(long) (t + i)] = 1.0; }}\n\
             }}\n\
             }}"
        );
        let mut p = parse_program(&src).unwrap();
        let f = p.functions[0].clone();
        let body = &mut p.functions[0].body;
        let safara_ir::Stmt::Region(region) = &mut body[0] else { unreachable!() };
        saturate_region(&f, region, true, &SaturateConfig::default()).unwrap();
        let safara_ir::Stmt::For(l) = &region.body[0] else { unreachable!() };
        let safara_ir::Stmt::Assign { lhs: safara_ir::LValue::ArrayRef(a), .. } = &l.body[0]
        else {
            unreachable!()
        };
        print_expr(&a.indices[0])
    }

    #[test]
    fn narrowing_strips_widens_under_small() {
        assert_eq!(narrowing_fixture(" small(a)"), "t + i");
    }

    #[test]
    fn narrowing_refuses_without_small_proof() {
        // `a` is dynamic and not covered by `small`: the widen is
        // load-bearing (offsets may exceed 32 bits) and must stay.
        assert_eq!(narrowing_fixture(""), "(long) (t + i)");
    }

    #[test]
    fn narrowing_refuses_under_non_homomorphic_ops() {
        // Truncation does not commute with division, so a widen under
        // `/` keeps its cast even for a `small` array.
        let src = "void f(int i, int n, float a[n]) {\n\
             #pragma acc parallel small(a)\n\
             {\n\
             #pragma acc loop gang vector\n\
             for (int t = 0; t < n; t++) { a[((long) t) / 2] = 1.0; }\n\
             }\n\
             }";
        let mut p = parse_program(src).unwrap();
        let f = p.functions[0].clone();
        let safara_ir::Stmt::Region(region) = &mut p.functions[0].body[0] else { unreachable!() };
        saturate_region(&f, region, true, &SaturateConfig::default()).unwrap();
        let safara_ir::Stmt::For(l) = &region.body[0] else { unreachable!() };
        let safara_ir::Stmt::Assign { lhs: safara_ir::LValue::ArrayRef(a), .. } = &l.body[0]
        else {
            unreachable!()
        };
        assert_eq!(print_expr(&a.indices[0]), "(long) t / 2");
    }
}
