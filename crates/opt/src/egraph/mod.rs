//! # Equality saturation over MiniACC scalar expressions
//!
//! A small in-tree e-graph in the style of ACC Saturator: expressions
//! from a kernel region are hash-consed into equivalence classes, a
//! fixed rule set (commutativity/associativity, constant folding,
//! offset factoring, strength reduction) is applied until saturation
//! or a deterministic cap, and the cheapest representative of each
//! root class is extracted back into the AST.
//!
//! Design constraints, in order:
//!
//! 1. **Bitwise identity.** Every rewrite must preserve the simulated
//!    output bit-for-bit across all three execution engines. Rules
//!    therefore fire only on *integer*-typed classes (two's-complement
//!    wrapping arithmetic is a ring; `-0.0`/NaN make float rewrites
//!    unsound), and 32-bit narrowing is a guarded, subscript-local
//!    pre-rewrite rather than a general e-class merge (see
//!    [`rewrite::narrow_subscripts`]).
//! 2. **Determinism.** `std::collections::HashMap` iterates in a
//!    random per-process order, so the hash-cons memo is used for
//!    *lookup only*. Rule application and extraction iterate class ids
//!    ascending and per-class node lists in insertion order; merges
//!    keep the lower class id as canonical. Same input, same output,
//!    every run.
//! 3. **Termination.** Saturation is bounded by a round cap (benign:
//!    extraction from a partially saturated e-graph is still sound)
//!    and an e-node cap (an error: the pathological-blowup escape
//!    hatch, surfaced as a typed `saturate` compile error upstream).
//!    Extraction terminates because every non-leaf node weight is
//!    ≥ 1, so chosen children always have strictly smaller class cost.
//!
//! The extraction weights are a local proxy for register pressure;
//! the driver re-validates the extracted program against the *real*
//! ptxas register model (and the occupancy oracle under a throughput
//! goal) before accepting it, so the phase can never regress the
//! predicted register count.

pub mod extract;
pub mod rewrite;

pub use extract::{class_costs, expr_cost, extract_class};
pub use rewrite::{
    narrow_index, narrow_subscripts, saturate, SaturateConfig, SaturateError, SaturateStats,
    StopReason,
};

use safara_ir::{
    BinOp, Expr, Function, Ident, Intrinsic, LValue, OffloadRegion, ScalarTy, Stmt, UnOp,
};
use std::collections::{HashMap, HashSet};

/// Index of an equivalence class. Canonical ids are resolved through
/// the union-find with [`EGraph::find`].
pub type ClassId = u32;

/// An expression node whose children are equivalence classes.
///
/// Float literals are stored as IEEE-754 bit patterns so the node is
/// `Eq + Hash` without equating `0.0` and `-0.0` (they behave
/// differently under float ops, which we never rewrite anyway).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ENode {
    /// Integer literal.
    Int(i64),
    /// Float literal, as raw bits.
    Float(u64),
    /// Scalar variable.
    Var(Ident),
    /// Unary operation.
    Unary(UnOp, ClassId),
    /// Binary operation.
    Bin(BinOp, ClassId, ClassId),
    /// Intrinsic call.
    Call(Intrinsic, Vec<ClassId>),
    /// Explicit cast.
    Cast(ScalarTy, ClassId),
    /// Array element read. Two refs are congruent only when the array
    /// and every index class coincide — the e-graph never speculates
    /// about memory.
    Ref(Ident, Vec<ClassId>),
}

impl ENode {
    /// Child classes, in syntactic order.
    pub fn children(&self) -> Vec<ClassId> {
        match self {
            ENode::Int(_) | ENode::Float(_) | ENode::Var(_) => Vec::new(),
            ENode::Unary(_, c) | ENode::Cast(_, c) => vec![*c],
            ENode::Bin(_, a, b) => vec![*a, *b],
            ENode::Call(_, cs) | ENode::Ref(_, cs) => cs.clone(),
        }
    }

    fn map_children(&self, mut f: impl FnMut(ClassId) -> ClassId) -> ENode {
        match self {
            ENode::Int(_) | ENode::Float(_) | ENode::Var(_) => self.clone(),
            ENode::Unary(op, c) => ENode::Unary(*op, f(*c)),
            ENode::Cast(ty, c) => ENode::Cast(*ty, f(*c)),
            ENode::Bin(op, a, b) => ENode::Bin(*op, f(*a), f(*b)),
            ENode::Call(i, cs) => ENode::Call(*i, cs.iter().map(|&c| f(c)).collect()),
            ENode::Ref(a, cs) => ENode::Ref(a.clone(), cs.iter().map(|&c| f(c)).collect()),
        }
    }
}

/// One equivalence class: its nodes in insertion order plus the scalar
/// type shared by every member (or `None` when typing could not be
/// established — such classes are never rewritten, only congruence-
/// closed).
#[derive(Debug, Clone)]
pub struct EClass {
    /// Member nodes, first-inserted first. Extraction's tie-break
    /// prefers earlier nodes, so the original program shape wins ties.
    pub nodes: Vec<ENode>,
    /// Scalar type of every member, when known.
    pub ty: Option<ScalarTy>,
}

/// Scalar/array typing context for the region being saturated,
/// mirroring sema's rules so class types agree with what codegen will
/// see.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    /// Scalar name → type (params, local decls, loop counters).
    pub scalars: HashMap<Ident, ScalarTy>,
    /// Array name → element type.
    pub arrays: HashMap<Ident, ScalarTy>,
}

/// The e-graph: union-find over classes plus a hash-cons memo.
#[derive(Debug, Clone, Default)]
pub struct EGraph {
    /// Typing context used to type new classes at `add` time.
    pub env: TypeEnv,
    classes: Vec<EClass>,
    parent: Vec<ClassId>,
    /// Hash-cons memo — **lookup only**, never iterated (iteration
    /// order would be nondeterministic).
    memo: HashMap<ENode, ClassId>,
    /// Bumped on every structural change (new class or real merge);
    /// the saturation loop compares it across rounds to detect a
    /// fixpoint.
    version: u64,
}

impl EGraph {
    /// An empty e-graph over the given typing context.
    pub fn new(env: TypeEnv) -> Self {
        EGraph { env, ..Default::default() }
    }

    /// Canonical class for `id`.
    pub fn find(&self, mut id: ClassId) -> ClassId {
        while self.parent[id as usize] != id {
            id = self.parent[id as usize];
        }
        id
    }

    /// Total ids ever allocated (canonical or not).
    pub fn num_ids(&self) -> usize {
        self.classes.len()
    }

    /// Number of live (canonical) classes.
    pub fn n_classes(&self) -> usize {
        (0..self.classes.len() as ClassId).filter(|&i| self.find(i) == i).count()
    }

    /// Number of distinct e-nodes (hash-cons entries).
    pub fn n_nodes(&self) -> usize {
        self.memo.len()
    }

    /// Structural version counter (see field doc).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Canonical class ids, ascending — the deterministic iteration
    /// order for rules and extraction.
    pub fn canonical_ids(&self) -> Vec<ClassId> {
        (0..self.classes.len() as ClassId).filter(|&i| self.find(i) == i).collect()
    }

    /// Nodes of class `id` (callers should pass a canonical id; a
    /// merged-away id has an empty list).
    pub fn nodes(&self, id: ClassId) -> &[ENode] {
        &self.classes[id as usize].nodes
    }

    /// Scalar type of class `id`, when established.
    pub fn ty(&self, id: ClassId) -> Option<ScalarTy> {
        self.classes[self.find(id) as usize].ty
    }

    /// The integer constant this class is known to equal, if any
    /// (first `Int` member in insertion order).
    pub fn const_of(&self, id: ClassId) -> Option<i64> {
        self.classes[self.find(id) as usize].nodes.iter().find_map(|n| match n {
            ENode::Int(v) => Some(*v),
            _ => None,
        })
    }

    fn canonicalize(&self, node: &ENode) -> ENode {
        node.map_children(|c| self.find(c))
    }

    fn type_of_node(&self, node: &ENode) -> Option<ScalarTy> {
        match node {
            ENode::Int(_) => Some(ScalarTy::I32),
            ENode::Float(_) => Some(ScalarTy::F64),
            ENode::Var(v) => self.env.scalars.get(v).copied(),
            ENode::Unary(UnOp::Neg, c) => self.ty(*c),
            ENode::Unary(UnOp::Not, _) => Some(ScalarTy::I32),
            ENode::Bin(op, a, b) => {
                if op.is_relational() {
                    Some(ScalarTy::I32)
                } else {
                    Some(self.ty(*a)?.unify(self.ty(*b)?))
                }
            }
            ENode::Call(i, args) => {
                let tys = args.iter().map(|&a| self.ty(a)).collect::<Option<Vec<_>>>()?;
                Some(i.result_ty(&tys))
            }
            ENode::Cast(ty, _) => Some(*ty),
            ENode::Ref(a, _) => self.env.arrays.get(a).copied(),
        }
    }

    /// Hash-cons `node` into the graph, returning its class.
    pub fn add(&mut self, node: ENode) -> ClassId {
        let node = self.canonicalize(&node);
        if let Some(&id) = self.memo.get(&node) {
            return self.find(id);
        }
        let id = self.classes.len() as ClassId;
        let ty = self.type_of_node(&node);
        self.classes.push(EClass { nodes: vec![node.clone()], ty });
        self.parent.push(id);
        self.memo.insert(node, id);
        self.version += 1;
        id
    }

    /// Add a whole expression tree, returning the root class.
    pub fn add_expr(&mut self, e: &Expr) -> ClassId {
        match e {
            Expr::IntLit(v) => self.add(ENode::Int(*v)),
            Expr::FloatLit(v) => self.add(ENode::Float(v.to_bits())),
            Expr::Var(v) => self.add(ENode::Var(v.clone())),
            Expr::Unary(op, inner) => {
                let c = self.add_expr(inner);
                self.add(ENode::Unary(*op, c))
            }
            Expr::Binary(op, l, r) => {
                let a = self.add_expr(l);
                let b = self.add_expr(r);
                self.add(ENode::Bin(*op, a, b))
            }
            Expr::Call(i, args) => {
                let cs = args.iter().map(|a| self.add_expr(a)).collect();
                self.add(ENode::Call(*i, cs))
            }
            Expr::Cast(ty, inner) => {
                let c = self.add_expr(inner);
                self.add(ENode::Cast(*ty, c))
            }
            Expr::ArrayRef(a) => {
                let cs = a.indices.iter().map(|ix| self.add_expr(ix)).collect();
                self.add(ENode::Ref(a.array.clone(), cs))
            }
        }
    }

    /// Merge two classes. The lower canonical id survives (keeps merge
    /// order deterministic and extraction stable).
    pub fn union(&mut self, a: ClassId, b: ClassId) -> ClassId {
        let (a, b) = (self.find(a), self.find(b));
        if a == b {
            return a;
        }
        let (keep, drop) = if a < b { (a, b) } else { (b, a) };
        self.parent[drop as usize] = keep;
        let moved = std::mem::take(&mut self.classes[drop as usize].nodes);
        self.classes[keep as usize].nodes.extend(moved);
        if self.classes[keep as usize].ty.is_none() {
            self.classes[keep as usize].ty = self.classes[drop as usize].ty;
        }
        self.version += 1;
        keep
    }

    /// Restore the congruence invariant: after merges, re-canonicalize
    /// every node and merge classes that now contain identical nodes,
    /// to a fixpoint. Deduplicates node lists (keeping first
    /// occurrence) along the way.
    pub fn rebuild(&mut self) {
        loop {
            let mut unions: Vec<(ClassId, ClassId)> = Vec::new();
            let mut new_memo: HashMap<ENode, ClassId> = HashMap::with_capacity(self.memo.len());
            for id in self.canonical_ids() {
                let nodes = std::mem::take(&mut self.classes[id as usize].nodes);
                let mut kept: Vec<ENode> = Vec::with_capacity(nodes.len());
                for n in nodes {
                    let n = self.canonicalize(&n);
                    if kept.contains(&n) {
                        continue;
                    }
                    match new_memo.get(&n) {
                        Some(&other) if self.find(other) != id => unions.push((id, other)),
                        _ => {
                            new_memo.insert(n.clone(), id);
                        }
                    }
                    kept.push(n);
                }
                self.classes[id as usize].nodes = kept;
            }
            self.memo = new_memo;
            if unions.is_empty() {
                break;
            }
            for (a, b) in unions {
                self.union(a, b);
            }
        }
    }
}

/// Everything the driver wants to know about one region's saturation.
#[derive(Debug, Clone)]
pub struct RegionSaturation {
    /// Rounds run, class/node counts, and why saturation stopped.
    pub stats: SaturateStats,
    /// Summed extraction-weight cost of the original root expressions.
    pub cost_before: u64,
    /// Summed class cost of the extracted roots.
    pub cost_after: u64,
}

impl RegionSaturation {
    /// Fold another region's outcome into this one (per-function
    /// aggregate for the trace span).
    pub fn absorb(&mut self, other: &RegionSaturation) {
        self.stats.rounds = self.stats.rounds.max(other.stats.rounds);
        self.stats.e_classes += other.stats.e_classes;
        self.stats.e_nodes += other.stats.e_nodes;
        if other.stats.stop == StopReason::RoundCap {
            self.stats.stop = StopReason::RoundCap;
        }
        self.cost_before += other.cost_before;
        self.cost_after += other.cost_after;
    }

    /// A zero outcome to aggregate into.
    pub fn empty() -> Self {
        RegionSaturation {
            stats: SaturateStats {
                rounds: 0,
                e_classes: 0,
                e_nodes: 0,
                stop: StopReason::Saturated,
            },
            cost_before: 0,
            cost_after: 0,
        }
    }
}

/// Visit every expression the saturation phase owns, in a fixed order:
/// assignment targets' subscript indices, assignment right-hand sides,
/// and scalar-declaration initializers. Loop headers and `if`
/// conditions are deliberately *not* visited — rewriting them would
/// disturb the loop-mapping analysis for zero register benefit.
///
/// Assignment-target subscripts arrive as bare roots (an `LValue`
/// holds raw index expressions, not an [`Expr::ArrayRef`]), so the
/// callback also receives the owning array for those — the narrowing
/// pre-rewrite needs it.
fn for_each_root(stmts: &mut [Stmt], f: &mut impl FnMut(&mut Expr, Option<&Ident>)) {
    for s in stmts {
        match s {
            Stmt::DeclScalar { init: Some(e), .. } => f(e, None),
            Stmt::DeclScalar { .. } => {}
            Stmt::Assign { lhs, rhs, .. } => {
                if let LValue::ArrayRef(a) = lhs {
                    let owner = a.array.clone();
                    for ix in &mut a.indices {
                        f(ix, Some(&owner));
                    }
                }
                f(rhs, None);
            }
            Stmt::For(l) => for_each_root(&mut l.body, f),
            Stmt::If { then_body, else_body, .. } => {
                for_each_root(then_body, f);
                for_each_root(else_body, f);
            }
            Stmt::Block(b) => for_each_root(b, f),
            Stmt::Region(r) => for_each_root(&mut r.body, f),
        }
    }
}

fn collect_scalar_tys(stmts: &[Stmt], out: &mut HashMap<Ident, ScalarTy>) {
    for s in stmts {
        match s {
            Stmt::DeclScalar { name, ty, .. } => {
                out.insert(name.clone(), *ty);
            }
            Stmt::For(l) => {
                // Induction variables are always `int`.
                out.insert(l.var.clone(), ScalarTy::I32);
                collect_scalar_tys(&l.body, out);
            }
            Stmt::If { then_body, else_body, .. } => {
                collect_scalar_tys(then_body, out);
                collect_scalar_tys(else_body, out);
            }
            Stmt::Block(b) => collect_scalar_tys(b, out),
            Stmt::Region(r) => collect_scalar_tys(&r.body, out),
            Stmt::Assign { .. } => {}
        }
    }
}

/// Build the typing context for a region of `f`, plus the set of
/// arrays whose subscripts may be narrowed to 32-bit arithmetic —
/// exactly the arrays codegen gives a 32-bit offset: provably-small
/// static arrays, and `small`-clause members when the clause is
/// honored.
fn region_env(f: &Function, region: &OffloadRegion, honor_small: bool) -> (TypeEnv, HashSet<Ident>) {
    let mut env = TypeEnv::default();
    let mut narrow = HashSet::new();
    for p in &f.params {
        match p {
            safara_ir::Param::Scalar { name, ty } => {
                env.scalars.insert(name.clone(), *ty);
            }
            safara_ir::Param::Array { name, ty, .. } => {
                env.arrays.insert(name.clone(), ty.elem);
                let statically_small = ty
                    .static_len()
                    .map(|n| {
                        n.checked_mul(ty.elem.size_bytes() as i64).is_some_and(|b| b < (1 << 31))
                    })
                    .unwrap_or(false);
                if statically_small
                    || (honor_small && region.directive.clauses.is_small(name))
                {
                    narrow.insert(name.clone());
                }
            }
        }
    }
    collect_scalar_tys(&f.body, &mut env.scalars);
    (env, narrow)
}

/// Saturate one offload region in place: populate an e-graph from its
/// expressions (after the guarded subscript-narrowing pre-rewrite),
/// run the rule set to saturation or the configured caps, and write
/// the cheapest equivalent form of each expression back into the
/// region body.
///
/// Errors only when the e-node cap is breached (pathological blowup);
/// the round cap is a benign stop recorded in the stats.
pub fn saturate_region(
    f: &Function,
    region: &mut OffloadRegion,
    honor_small: bool,
    cfg: &SaturateConfig,
) -> Result<RegionSaturation, SaturateError> {
    let (env, narrow) = region_env(f, region, honor_small);
    let mut eg = EGraph::new(env.clone());
    let mut roots: Vec<ClassId> = Vec::new();
    let mut cost_before = 0u64;
    for_each_root(&mut region.body, &mut |e, owner| {
        cost_before += expr_cost(e);
        let mut narrowed = narrow_subscripts(e, &env, &narrow);
        if owner.is_some_and(|arr| narrow.contains(arr)) {
            narrowed = rewrite::narrow_index(&narrowed, &env);
        }
        *e = narrowed;
        roots.push(eg.add_expr(e));
    });

    let stats = saturate(&mut eg, cfg)?;

    let costs = class_costs(&eg);
    let mut cost_after = 0u64;
    let mut memo = HashMap::new();
    let mut i = 0usize;
    for_each_root(&mut region.body, &mut |e, _owner| {
        let root = eg.find(roots[i]);
        cost_after += costs[root as usize];
        *e = extract_class(&eg, &costs, root, &mut memo);
        i += 1;
    });

    Ok(RegionSaturation { stats, cost_before, cost_after })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_env(vars: &[&str]) -> TypeEnv {
        let mut env = TypeEnv::default();
        for v in vars {
            env.scalars.insert(Ident::new(v), ScalarTy::I32);
        }
        env
    }

    #[test]
    fn hash_consing_shares_structurally_equal_exprs() {
        let mut eg = EGraph::new(int_env(&["i", "j"]));
        let e = Expr::bin(BinOp::Add, Expr::var("i"), Expr::var("j"));
        let a = eg.add_expr(&e);
        let b = eg.add_expr(&e);
        assert_eq!(a, b, "identical trees must land in the same class");
        // (i + j) * k reuses the i + j class.
        let n_before = eg.n_nodes();
        let e2 = Expr::bin(BinOp::Mul, e.clone(), Expr::var("i"));
        eg.add_expr(&e2);
        assert_eq!(eg.n_nodes(), n_before + 1, "only the Mul node is new");
    }

    #[test]
    fn congruence_closure_merges_parents_after_child_union() {
        // a[i] and a[j] are distinct until i ≡ j, then congruence must
        // merge them during rebuild.
        let mut env = int_env(&["i", "j"]);
        env.arrays.insert(Ident::new("a"), ScalarTy::F32);
        let mut eg = EGraph::new(env);
        let i = eg.add(ENode::Var(Ident::new("i")));
        let j = eg.add(ENode::Var(Ident::new("j")));
        let ai = eg.add(ENode::Ref(Ident::new("a"), vec![i]));
        let aj = eg.add(ENode::Ref(Ident::new("a"), vec![j]));
        assert_ne!(eg.find(ai), eg.find(aj));
        eg.union(i, j);
        eg.rebuild();
        assert_eq!(eg.find(ai), eg.find(aj), "congruent refs must merge");
        // And the merged class deduplicates the now-identical nodes.
        assert_eq!(eg.nodes(eg.find(ai)).len(), 1);
    }

    #[test]
    fn congruence_closure_cascades_transitively() {
        // f(f(i)) vs f(f(j)): one leaf union must cascade two levels.
        let mut eg = EGraph::new(int_env(&["i", "j"]));
        let i = eg.add(ENode::Var(Ident::new("i")));
        let j = eg.add(ENode::Var(Ident::new("j")));
        let ni = eg.add(ENode::Unary(UnOp::Neg, i));
        let nj = eg.add(ENode::Unary(UnOp::Neg, j));
        let nni = eg.add(ENode::Unary(UnOp::Neg, ni));
        let nnj = eg.add(ENode::Unary(UnOp::Neg, nj));
        eg.union(i, j);
        eg.rebuild();
        assert_eq!(eg.find(ni), eg.find(nj));
        assert_eq!(eg.find(nni), eg.find(nnj));
    }

    #[test]
    fn class_types_mirror_sema() {
        let mut env = int_env(&["i"]);
        env.scalars.insert(Ident::new("x"), ScalarTy::F32);
        env.arrays.insert(Ident::new("a"), ScalarTy::F64);
        let mut eg = EGraph::new(env);
        let i = eg.add(ENode::Var(Ident::new("i")));
        let x = eg.add(ENode::Var(Ident::new("x")));
        let k = eg.add(ENode::Int(2));
        assert_eq!(eg.ty(i), Some(ScalarTy::I32));
        let mix = eg.add(ENode::Bin(BinOp::Mul, i, x));
        assert_eq!(eg.ty(mix), Some(ScalarTy::F32), "int*float unifies to float");
        let rel = eg.add(ENode::Bin(BinOp::Lt, x, x));
        assert_eq!(eg.ty(rel), Some(ScalarTy::I32), "relational results are int");
        let wide = eg.add(ENode::Cast(ScalarTy::I64, i));
        assert_eq!(eg.ty(wide), Some(ScalarTy::I64));
        let shifted = eg.add(ENode::Bin(BinOp::Shl, i, k));
        assert_eq!(eg.ty(shifted), Some(ScalarTy::I32));
        let a = eg.add(ENode::Ref(Ident::new("a"), vec![i]));
        assert_eq!(eg.ty(a), Some(ScalarTy::F64));
    }

    #[test]
    fn union_keeps_lower_id_and_merges_nodes() {
        let mut eg = EGraph::new(int_env(&["i"]));
        let i = eg.add(ENode::Var(Ident::new("i")));
        let z = eg.add(ENode::Int(0));
        let sum = eg.add(ENode::Bin(BinOp::Add, i, z));
        let keep = eg.union(sum, i);
        assert_eq!(keep, eg.find(i), "lower id is canonical");
        assert_eq!(eg.find(sum), keep);
        assert!(eg.nodes(keep).iter().any(|n| matches!(n, ENode::Bin(BinOp::Add, _, _))));
        assert_eq!(eg.const_of(z), Some(0));
    }
}
