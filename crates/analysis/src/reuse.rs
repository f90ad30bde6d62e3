//! Data-reuse analysis: find groups of array references that can share a
//! register through scalar replacement.
//!
//! Three kinds of reuse are recognized (§III-B of the paper):
//!
//! * **Intra-iteration** — several textually distinct occurrences of the
//!   *same* subscript vector within one iteration (`b[j][0]` used twice in
//!   Fig. 5). Always safe, even on parallelized loops.
//! * **Invariant** — a reference whose subscripts do not involve the
//!   enclosing sequential loop's variable; it can be loaded once before
//!   the loop (`b[j][0]` w.r.t. the `i` loop in Fig. 5).
//! * **Inter-iteration** — references at constant distances along a
//!   sequential loop (`b[j][i-1]` / `b[j][i+1]`), replaced by rotating
//!   temporaries (Fig. 6). **Only** applied to sequential loops: applying
//!   it to a parallelized loop would create loop-carried dependences and
//!   sequentialize it (the paper's Fig. 3/4 pitfall — limitation 1 of
//!   Carr–Kennedy).
//!
//! References are first deduplicated into *reference classes* (unique
//! affine subscript vectors within one [`ClassScope`]); classes are then
//! linked into groups by dependence distance.
//!
//! A class has a **scope**: a temporary lives in one thread of one
//! kernel, inside the iteration of whichever loops its subscripts name,
//! so two occurrences can share one only when they sit in the same
//! top-level loop nest of the region *and* the innermost enclosing loop
//! instance (parallel or sequential) that binds a variable their
//! subscripts mention is the same instance. `a[j][i]` in two kernels of
//! one region, or in two sibling loops over `i`, is two values that merely
//! spell alike.

use crate::affine::{affine_of, AffineExpr};
use crate::depend::{dep_distance, may_overlap, DepDistance};
use crate::region::RegionInfo;
use safara_ir::{ArrayRef, Expr, Ident, LValue, OffloadRegion, Stmt};
use std::borrow::Borrow;
use std::cell::Cell;

/// How a group's references reuse data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReuseKind {
    /// Identical subscripts within an iteration.
    Intra,
    /// Subscripts invariant w.r.t. the given sequential loop variable.
    Invariant {
        /// The sequential loop the reference is invariant in.
        var: Ident,
    },
    /// Constant distances along the given sequential loop variable.
    Inter {
        /// The sequential loop carrying the reuse.
        var: Ident,
        /// Largest distance between group members (registers needed is
        /// `max_distance + 1`).
        max_distance: u32,
    },
}

/// Where a reference class lives: the loop instances (pre-order ids, as
/// in [`RegionInfo::loops`]) that decide whether two textually equal
/// references name the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassScope {
    /// The top-level loop nest of the region — the kernel — the
    /// reference sits in; `None` outside every loop.
    pub nest: Option<u32>,
    /// The innermost enclosing loop instance, parallel or sequential,
    /// whose variable the subscripts mention; `None` when they mention
    /// no enclosing loop variable.
    pub bind: Option<u32>,
}

impl ClassScope {
    /// The scope of `r` under the loops `enclosing` it, outermost first,
    /// each as `(variable, pre-order id)`.
    pub fn of<V: Borrow<Ident>>(r: &ArrayRef, enclosing: &[(V, u32)]) -> ClassScope {
        let mut bind = None;
        for ix in &r.indices {
            safara_ir::visit::walk_expr(ix, &mut |e| {
                if let Expr::Var(v) = e {
                    let depth = enclosing.iter().rposition(|(var, _)| var.borrow() == v);
                    bind = bind.max(depth);
                }
            });
        }
        ClassScope {
            nest: enclosing.first().map(|(_, id)| *id),
            bind: bind.map(|depth| enclosing[depth].1),
        }
    }
}

/// A deduplicated reference class: one distinct subscript vector in one
/// scope.
#[derive(Debug, Clone, PartialEq)]
pub struct RefClass {
    /// The representative reference.
    pub r: ArrayRef,
    /// Textual read occurrences.
    pub reads: u32,
    /// Textual write occurrences.
    pub writes: u32,
    /// Estimated dynamic executions per thread (product of enclosing
    /// sequential-loop trip estimates).
    pub weight: u64,
    /// Variable of the innermost *sequential* loop enclosing the
    /// reference, if any.
    pub seq_ctx: Option<Ident>,
    /// Unique id of that loop *instance* — two loops over variables with
    /// the same name (e.g. the `i` of a forward and of a backward sweep)
    /// are different contexts and must never share reuse classes.
    pub ctx_id: Option<u32>,
    /// The loop nest and binding loop the class is confined to.
    pub scope: ClassScope,
}

/// A reuse group: one or more reference classes that scalar replacement
/// can serve from registers.
#[derive(Debug, Clone, PartialEq)]
pub struct ReuseGroup {
    /// The array referenced.
    pub array: Ident,
    /// Member classes. For `Inter` groups these are ordered by distance
    /// from the group leader (ascending).
    pub classes: Vec<RefClass>,
    /// For `Inter` groups, the distance of each class from the leader
    /// (parallel to `classes`; leader has distance 0).
    pub distances: Vec<i64>,
    /// Kind of reuse.
    pub kind: ReuseKind,
}

impl ReuseGroup {
    /// Registers a scalar-replacement of this group needs (one per
    /// rotating temporary; 64-bit elements need two hardware registers,
    /// which the caller accounts for via the element type).
    pub fn temps_needed(&self) -> u32 {
        match &self.kind {
            ReuseKind::Intra | ReuseKind::Invariant { .. } => 1,
            ReuseKind::Inter { max_distance, .. } => max_distance + 1,
        }
    }

    /// Estimated memory loads eliminated per thread by replacing this
    /// group (the quantity the cost model multiplies by latency).
    pub fn loads_saved(&self) -> u64 {
        let total_reads: u64 =
            self.classes.iter().map(|c| c.reads as u64 * c.weight).sum();
        match &self.kind {
            // One load survives per iteration of the context.
            ReuseKind::Intra => {
                let w = self.classes.first().map(|c| c.weight).unwrap_or(1);
                total_reads.saturating_sub(w)
            }
            // One load before the loop replaces all in-loop loads.
            ReuseKind::Invariant { .. } => total_reads.saturating_sub(1),
            // One leading-edge load per iteration replaces every class's
            // loads.
            ReuseKind::Inter { .. } => {
                let w = self.classes.first().map(|c| c.weight).unwrap_or(1);
                total_reads.saturating_sub(w)
            }
        }
    }

    /// Total textual read+write occurrences (the `reference_count(R)` of
    /// the paper's cost formula, before dynamic weighting).
    pub fn ref_count(&self) -> u32 {
        self.classes.iter().map(|c| c.reads + c.writes).sum()
    }
}

std::thread_local! {
    static ANALYSES: Cell<u64> = const { Cell::new(0) };
}

/// Calls of [`find_reuse_groups`] on this thread so far (an exact
/// counter: a compile's analyses are a difference of it).
pub fn reuse_analyses() -> u64 {
    ANALYSES.with(Cell::get)
}

/// A region's loop structure and reuse groups, computed together: what a
/// compile's `analysis` phase derives once, and what the first SAFARA
/// round consumes while the body is still the one analysed.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReuse {
    /// [`RegionInfo::analyze`] of the region.
    pub info: RegionInfo,
    /// [`find_reuse_groups`] of the region under `info`.
    pub groups: Vec<ReuseGroup>,
}

impl RegionReuse {
    /// Analyse `region`.
    pub fn analyze(region: &OffloadRegion) -> RegionReuse {
        let info = RegionInfo::analyze(region);
        let groups = find_reuse_groups(region, &info);
        RegionReuse { info, groups }
    }
}

/// Find all reuse groups in an offload region.
///
/// `info` must be the result of [`RegionInfo::analyze`] on the same
/// region. Arrays are assumed non-aliasing (distinct OpenACC device
/// buffers).
pub fn find_reuse_groups(region: &OffloadRegion, info: &RegionInfo) -> Vec<ReuseGroup> {
    ANALYSES.with(|n| n.set(n.get() + 1));
    // 1. Collect references with their sequential-loop context.
    let mut occs = Vec::new();
    let mut stacks = LoopStacks::default();
    collect_occurrences(&region.body, info, &mut stacks, &mut occs);
    let parents = stacks.parents;

    // 2. Deduplicate into classes keyed by (array, seq ctx, scope, affine
    //    form).
    let mut classes: Vec<Class> = Vec::new();
    for (o, occ) in occs.iter().enumerate() {
        let existing = classes.iter_mut().find(|c| {
            let rep = &occs[c.rep];
            rep.r.array == occ.r.array
                && rep.seq_ctx == occ.seq_ctx
                && rep.ctx_id == occ.ctx_id
                && rep.scope == occ.scope
                && rep.forms == occ.forms
        });
        match existing {
            Some(c) if occ.is_write => c.writes += 1,
            Some(c) => c.reads += 1,
            None => classes.push(Class {
                rep: o,
                reads: u32::from(!occ.is_write),
                writes: u32::from(occ.is_write),
            }),
        }
    }
    // Each class's representative occurrence, and the class as a group
    // keeps it.
    let rep = |c: usize| &occs[classes[c].rep];
    let kept = |c: usize| {
        let (class, o) = (&classes[c], rep(c));
        RefClass {
            r: o.r.clone(),
            reads: class.reads,
            writes: class.writes,
            weight: o.weight,
            seq_ctx: o.seq_ctx.cloned(),
            ctx_id: o.ctx_id,
            scope: o.scope,
        }
    };

    // 3. Link classes into inter-iteration groups along their seq loop.
    let mut used = vec![false; classes.len()];
    let mut groups = Vec::new();
    for i in 0..classes.len() {
        if used[i] {
            continue;
        }
        let lead = rep(i);
        let seq_var = match lead.seq_ctx {
            Some(v) => v,
            None => continue,
        };
        // Writes invalidate rotation; only read-only classes join.
        if classes[i].writes > 0 {
            continue;
        }
        // Rotation is only meaningful (and only performed) on unit-stride
        // loops: on a strided loop the dependence distances below are in
        // subscript units, not iterations. Leave the classes free for
        // intra-iteration grouping instead (which is how unrolled loops
        // recover their reuse).
        let unit_stride = lead
            .ctx_id
            .and_then(|id| info.loops.get(id as usize))
            .map(|l| l.step == 1)
            .unwrap_or(false);
        if !unit_stride {
            continue;
        }
        let mut members = vec![i];
        let mut dists = vec![0i64];
        for j in (i + 1)..classes.len() {
            let other = rep(j);
            if used[j]
                || classes[j].writes > 0
                || other.r.array != lead.r.array
                || other.seq_ctx != Some(seq_var)
                || other.ctx_id != lead.ctx_id
            {
                continue;
            }
            if let DepDistance::Const(d) = dep_distance(other.r, lead.r, seq_var) {
                members.push(j);
                dists.push(d);
            }
        }
        if members.len() < 2 {
            continue;
        }
        // The array must not be written at overlapping subscripts inside
        // the carrying loop (or loops nested within it), or rotated values
        // would go stale. Writes in *other* loop nests execute in other
        // kernels/iterations and do not interact with the rotation.
        let group_loop = lead.ctx_id.expect("inter groups have a seq loop");
        let clobbered = occs.iter().any(|o| {
            o.is_write
                && o.r.array == lead.r.array
                && o.within(group_loop, &parents)
                && members.iter().any(|&m| may_overlap(o.r, rep(m).r))
        });
        if clobbered {
            continue;
        }
        // Normalize distances so the leader (distance 0) is the smallest.
        let min_d = *dists.iter().min().expect("nonempty");
        for d in &mut dists {
            *d -= min_d;
        }
        let max_d = *dists.iter().max().expect("nonempty");
        if max_d > 8 {
            continue; // unreasonable register demand; leave to cache
        }
        // Sort members by distance.
        let mut order: Vec<usize> = (0..members.len()).collect();
        order.sort_by_key(|&k| dists[k]);
        let group = ReuseGroup {
            array: lead.r.array.clone(),
            classes: order.iter().map(|&k| kept(members[k])).collect(),
            distances: order.iter().map(|&k| dists[k]).collect(),
            kind: ReuseKind::Inter { var: seq_var.clone(), max_distance: max_d as u32 },
        };
        for &m in &members {
            used[m] = true;
        }
        groups.push(group);
    }

    // 4. Invariant groups: classes inside a seq loop whose subscripts are
    //    free of the loop variable (and still unused by an inter group).
    let mut invariant_covered: Vec<usize> = Vec::new();
    for (i, c) in classes.iter().enumerate() {
        if used[i] {
            continue;
        }
        let class = rep(i);
        let seq_var = match class.seq_ctx {
            Some(v) => v,
            None => continue,
        };
        let free =
            class.forms.iter().all(|f| matches!(f, Form::Affine(a) if a.is_free_of(seq_var)));
        if !free {
            continue;
        }
        // Cannot hoist if another write to the array *inside the carrying
        // loop* may touch this element — or if the very same element is
        // written under a different loop context anywhere in the region
        // (the temporary could then go stale between the hoisted load and
        // a use: e.g. an unrolled main loop updates `c[i]` before the
        // remainder loop's hoisted copy reads it).
        let inv_loop = class.ctx_id.expect("invariant groups have a seq loop");
        let conflict = occs.iter().any(|o| {
            let same = o.forms == class.forms;
            o.is_write
                && o.r.array == class.r.array
                && ((o.within(inv_loop, &parents) && !same && may_overlap(o.r, class.r))
                    || (o.ctx_id != class.ctx_id && same))
        });
        if conflict {
            continue;
        }
        // Only worthwhile if the loop actually repeats the access, i.e.
        // reads + writes ≥ 1 and loop trips > 1 — the trip estimate is in
        // the weight; single-use invariants still save (trip-1) loads.
        if c.reads == 0 {
            continue; // pure writes cannot be hoisted without a mask
        }
        invariant_covered.push(i);
        groups.push(ReuseGroup {
            array: class.r.array.clone(),
            classes: vec![kept(i)],
            distances: vec![0],
            kind: ReuseKind::Invariant { var: seq_var.clone() },
        });
    }

    // 5. Intra groups: remaining classes with ≥ 2 accesses (or a
    //    read-modify-write pair) — one temp per class.
    for (i, c) in classes.iter().enumerate() {
        if used[i] {
            continue;
        }
        let class = rep(i);
        if invariant_covered.iter().any(|&v| rep(v).forms == class.forms) {
            continue;
        }
        if c.reads + c.writes < 2 || c.reads == 0 {
            continue;
        }
        // The same element must not be written under a different loop
        // context: a nested loop's write-through would leave this scope's
        // temporary stale (and vice versa).
        let escapes = occs.iter().any(|o| {
            o.is_write
                && o.r.array == class.r.array
                && o.ctx_id != class.ctx_id
                && o.forms == class.forms
        });
        if escapes {
            continue;
        }
        groups.push(ReuseGroup {
            array: class.r.array.clone(),
            classes: vec![kept(i)],
            distances: vec![0],
            kind: ReuseKind::Intra,
        });
    }

    groups
}

/// A reference class while groups are formed: the occurrence it was
/// formed from and its counts. Only a class a group keeps becomes a
/// [`RefClass`], cloning its reference.
struct Class {
    rep: usize,
    reads: u32,
    writes: u32,
}

/// One subscript in the form equality of subscripts is decided on: its
/// affine form, or the expression itself where it has none.
#[derive(Debug, PartialEq)]
enum Form<'a> {
    Affine(AffineExpr),
    Opaque(&'a Expr),
}

impl<'a> Form<'a> {
    fn of(e: &'a Expr) -> Form<'a> {
        let f = affine_of(e);
        if f.nonaffine {
            Form::Opaque(e)
        } else {
            Form::Affine(f)
        }
    }
}

/// Structural subscript equality modulo affine normalization.
pub fn same_subscripts(a: &ArrayRef, b: &ArrayRef) -> bool {
    a.indices.len() == b.indices.len()
        && a.indices.iter().zip(&b.indices).all(|(x, y)| Form::of(x) == Form::of(y))
}

/// One array reference as the walk met it, borrowed from the region.
struct Occurrence<'a> {
    r: &'a ArrayRef,
    /// The subscripts' forms, computed once.
    forms: Vec<Form<'a>>,
    is_write: bool,
    weight: u64,
    seq_ctx: Option<&'a Ident>,
    ctx_id: Option<u32>,
    scope: ClassScope,
    /// The innermost enclosing loop, parallel or sequential.
    inner: Option<u32>,
}

impl Occurrence<'_> {
    /// Whether the loop instance `id` encloses this reference — what
    /// scopes write-clobber checks to the loop that carries a reuse
    /// group, rather than the whole region.
    fn within(&self, id: u32, parents: &[Option<u32>]) -> bool {
        let mut at = self.inner;
        while let Some(l) = at {
            if l == id {
                return true;
            }
            at = parents[l as usize];
        }
        false
    }
}

/// The loops enclosing the statement being walked, outermost first.
#[derive(Default)]
struct LoopStacks<'a> {
    /// Sequential loops only: `(variable, trip estimate, pre-order id)`.
    seq: Vec<(&'a Ident, u64, u32)>,
    /// Every loop, parallel or sequential: `(variable, pre-order id)`.
    all: Vec<(&'a Ident, u32)>,
    /// The enclosing loop of every loop met so far, by pre-order id.
    parents: Vec<Option<u32>>,
}

impl<'a> LoopStacks<'a> {
    fn occurrence(&self, r: &'a ArrayRef, is_write: bool) -> Occurrence<'a> {
        Occurrence {
            r,
            forms: r.indices.iter().map(Form::of).collect(),
            is_write,
            weight: self.seq.iter().map(|(_, t, _)| t.max(&1)).product::<u64>().max(1),
            seq_ctx: self.seq.last().map(|(v, _, _)| *v),
            ctx_id: self.seq.last().map(|(_, _, id)| *id),
            scope: ClassScope::of(r, &self.all),
            inner: self.all.last().map(|(_, id)| *id),
        }
    }
}

/// Walk pre-order, pairing every `For` with the corresponding entry of
/// `info.loops` (also pre-order) — loops are identified by *instance*,
/// never by variable name, so nests that reuse `i`/`j`/`k` cannot
/// contaminate each other. A loop's id — a sequential loop's context id,
/// and what a [`ClassScope`] names — is its pre-order index, the number
/// of loops met before it.
fn collect_occurrences<'a>(
    stmts: &'a [Stmt],
    info: &RegionInfo,
    stacks: &mut LoopStacks<'a>,
    out: &mut Vec<Occurrence<'a>>,
) {
    for s in stmts {
        match s {
            Stmt::DeclScalar { init, .. } => {
                if let Some(e) = init {
                    for_each_read(e, &mut |r| out.push(stacks.occurrence(r, false)));
                }
            }
            Stmt::Assign { lhs, op, rhs } => {
                if let LValue::ArrayRef(a) = lhs {
                    for ix in &a.indices {
                        for_each_read(ix, &mut |r| out.push(stacks.occurrence(r, false)));
                    }
                    if op.bin_op().is_some() {
                        out.push(stacks.occurrence(a, false));
                    }
                    out.push(stacks.occurrence(a, true));
                }
                for_each_read(rhs, &mut |r| out.push(stacks.occurrence(r, false)));
            }
            Stmt::For(f) => {
                for_each_read(&f.lo, &mut |r| out.push(stacks.occurrence(r, false)));
                for_each_read(&f.bound, &mut |r| out.push(stacks.occurrence(r, false)));
                let id = stacks.parents.len() as u32;
                let li = info.loops.get(id as usize);
                debug_assert!(
                    li.map(|l| l.var == f.var).unwrap_or(true),
                    "loop cursor out of sync with RegionInfo"
                );
                stacks.parents.push(stacks.all.last().map(|(_, id)| *id));
                let is_seq = li.map(|l| l.mapped.is_none()).unwrap_or(true);
                if is_seq {
                    let trip = li.map(|l| l.est_trip).unwrap_or(1);
                    stacks.seq.push((&f.var, trip, id));
                }
                stacks.all.push((&f.var, id));
                collect_occurrences(&f.body, info, stacks, out);
                stacks.all.pop();
                if is_seq {
                    stacks.seq.pop();
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                for_each_read(cond, &mut |r| out.push(stacks.occurrence(r, false)));
                collect_occurrences(then_body, info, stacks, out);
                collect_occurrences(else_body, info, stacks, out);
            }
            Stmt::Block(b) => collect_occurrences(b, info, stacks, out),
            Stmt::Region(_) => {} // regions cannot nest (sema enforces)
        }
    }
}

fn for_each_read<'a>(e: &'a Expr, f: &mut impl FnMut(&'a ArrayRef)) {
    safara_ir::visit::walk_expr(e, &mut |e| {
        if let Expr::ArrayRef(a) = e {
            f(a);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_ir::parse_program;

    fn groups_of(src: &str) -> Vec<ReuseGroup> {
        let p = parse_program(src).unwrap();
        let f = &p.functions[0];
        let region = f.regions()[0];
        let info = RegionInfo::analyze(region);
        find_reuse_groups(region, &info)
    }

    /// The paper's Fig. 5 program.
    const FIG5: &str = r#"
    void fig5(int jsize, int isize, float a[258][258], float b[258][258],
              float c[258], float d[258]) {
      #pragma acc kernels
      {
        #pragma acc loop gang vector
        for (int j = 1; j <= jsize; j++) {
          c[j] = b[j][0] + b[j][1];
          d[j] = c[j] * b[j][0];
          #pragma acc loop seq
          for (int i = 1; i <= isize; i++) {
            a[i][j] += a[i - 1][j] + b[j][i - 1] + a[i + 1][j] + b[j][i + 1];
          }
        }
      }
    }"#;

    #[test]
    fn fig5_finds_inter_group_on_b() {
        let groups = groups_of(FIG5);
        let inter: Vec<&ReuseGroup> = groups
            .iter()
            .filter(|g| matches!(g.kind, ReuseKind::Inter { .. }))
            .collect();
        // b[j][i-1] / b[j][i+1] with distance 2 on i.
        let b = inter.iter().find(|g| g.array.as_str() == "b").expect("b inter group");
        match &b.kind {
            ReuseKind::Inter { var, max_distance } => {
                assert_eq!(var.as_str(), "i");
                assert_eq!(*max_distance, 2);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(b.temps_needed(), 3); // b0, b1, b2 as in Fig. 6
        assert_eq!(b.distances, vec![0, 2]);
    }

    #[test]
    fn fig5_a_refs_not_rotated_because_written() {
        // a is written (a[i][j] +=) at subscripts overlapping a[i±1][j]
        // across iterations, so no inter group on a may form.
        let groups = groups_of(FIG5);
        assert!(
            !groups
                .iter()
                .any(|g| g.array.as_str() == "a" && matches!(g.kind, ReuseKind::Inter { .. })),
            "a must not get an inter-iteration group: it is written in the loop"
        );
    }

    #[test]
    fn intra_reuse_of_identical_refs() {
        // b[j][0] appears twice in one iteration of the parallel loop:
        // intra reuse (no seq context at that nesting level).
        let groups = groups_of(FIG5);
        let intra: Vec<&ReuseGroup> = groups
            .iter()
            .filter(|g| g.kind == ReuseKind::Intra && g.array.as_str() == "b")
            .collect();
        assert_eq!(intra.len(), 1);
        assert_eq!(intra[0].classes[0].reads, 2);
        assert_eq!(intra[0].loads_saved(), 1);
    }

    #[test]
    fn no_inter_groups_on_parallel_loops() {
        // The paper's Fig. 3: b[i] and b[i+1] on a *parallelized* loop must
        // NOT become an inter-iteration group (that would sequentialize).
        let groups = groups_of(
            r#"
            void fig3(int n, float a[1026], float b[1026]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 1; i <= n; i++) {
                  a[i] = (b[i] + b[i + 1]) / 2.0;
                }
              }
            }"#,
        );
        assert!(
            groups.iter().all(|g| !matches!(g.kind, ReuseKind::Inter { .. })),
            "inter-iteration SR on a parallel loop would sequentialize it: {groups:?}"
        );
    }

    #[test]
    fn inter_group_allowed_on_seq_loop() {
        // Same pattern but the loop is seq: rotation is legal (Fig. 4).
        let groups = groups_of(
            r#"
            void f(int n, float a[1026], float b[1026]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int t = 0; t < 4; t++) {
                  #pragma acc loop seq
                  for (int i = 1; i <= n; i++) {
                    a[i] = (b[i] + b[i + 1]) / 2.0;
                  }
                }
              }
            }"#,
        );
        let g = groups
            .iter()
            .find(|g| matches!(g.kind, ReuseKind::Inter { .. }))
            .expect("inter group on seq loop");
        assert_eq!(g.array.as_str(), "b");
        assert_eq!(g.temps_needed(), 2);
    }

    #[test]
    fn invariant_group_detected() {
        let groups = groups_of(
            r#"
            void f(int n, int m, float a[n][m], const float s[n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) {
                  #pragma acc loop seq
                  for (int k = 0; k < 100; k++) {
                    a[i][k] = a[i][k] + s[i];
                  }
                }
              }
            }"#,
        );
        let inv = groups
            .iter()
            .find(|g| matches!(g.kind, ReuseKind::Invariant { .. }))
            .expect("invariant group for s[i]");
        assert_eq!(inv.array.as_str(), "s");
        assert_eq!(inv.temps_needed(), 1);
        // 100 iterations × 1 read − 1 hoisted load = 99 saved.
        assert_eq!(inv.loads_saved(), 99);
    }

    #[test]
    fn rmw_same_subscript_is_intra() {
        let groups = groups_of(
            r#"
            void f(int n, float a[n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) {
                  a[i] += 1.0;
                  a[i] += 2.0;
                }
              }
            }"#,
        );
        let g = groups.iter().find(|g| g.kind == ReuseKind::Intra).expect("intra rmw group");
        assert_eq!(g.classes[0].reads, 2);
        assert_eq!(g.classes[0].writes, 2);
    }

    #[test]
    fn weights_multiply_across_nested_seq_loops() {
        let groups = groups_of(
            r#"
            void f(int n, const float c[n], float a[n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) {
                  #pragma acc loop seq
                  for (int p = 0; p < 10; p++) {
                    #pragma acc loop seq
                    for (int q = 0; q < 5; q++) {
                      a[i] += c[i];
                    }
                  }
                }
              }
            }"#,
        );
        let inv = groups
            .iter()
            .find(|g| g.array.as_str() == "c")
            .expect("invariant c[i] group");
        assert_eq!(inv.classes[0].weight, 50);
    }

    #[test]
    fn two_nests_of_one_region_never_share_a_class() {
        // Two kernels: each thread of each reads its own `a[j][i]` once.
        // The spelling is the same; the `j` and `i` are not.
        let groups = groups_of(
            r#"
            void f(int n, const float a[n][n], float b[n][n], float c[n][n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang
                for (int j = 0; j < n; j++) {
                  #pragma acc loop vector
                  for (int i = 0; i < n; i++) { b[j][i] = a[j][i]; }
                }
                #pragma acc loop gang
                for (int j = 0; j < n; j++) {
                  #pragma acc loop vector
                  for (int i = 0; i < n; i++) { c[j][i] = a[j][i] * 2.0; }
                }
              }
            }"#,
        );
        assert!(groups.is_empty(), "one read per kernel is no reuse: {groups:?}");
    }

    #[test]
    fn sibling_loops_over_one_variable_never_share_a_class() {
        // One nest; the two `i` loops are different instances, so the
        // two `a[j][i]` are different elements.
        let groups = groups_of(
            r#"
            void f(int n, const float a[n][n], float b[n][n], float c[n][n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang
                for (int j = 0; j < n; j++) {
                  #pragma acc loop vector
                  for (int i = 0; i < n; i++) { b[j][i] = a[j][i]; }
                  #pragma acc loop vector
                  for (int i = 0; i < n; i++) { c[j][i] = a[j][i] * 2.0; }
                }
              }
            }"#,
        );
        assert!(groups.is_empty(), "one read per sibling loop is no reuse: {groups:?}");
    }

    #[test]
    fn scope_is_the_binding_loop_not_the_enclosing_one() {
        // Fig. 5's `b[j][0]` is bound by `j` wherever under `j` it is
        // read: twice at `j` level (`intra_reuse_of_identical_refs`), or
        // once there and once inside a nested parallel loop whose
        // variable it does not mention.
        let groups = groups_of(
            r#"
            void f(int n, const float b[n][n], float c[n], float d[n][n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang
                for (int j = 0; j < n; j++) {
                  c[j] = b[j][0];
                  #pragma acc loop vector
                  for (int i = 0; i < n; i++) { d[j][i] = b[j][0]; }
                }
              }
            }"#,
        );
        let intra: Vec<&ReuseGroup> =
            groups.iter().filter(|g| g.kind == ReuseKind::Intra).collect();
        assert_eq!(intra.len(), 1, "{groups:?}");
        assert_eq!(intra[0].array.as_str(), "b");
        assert_eq!(intra[0].classes[0].reads, 2);
        let j = 0; // pre-order id of the `j` loop
        assert_eq!(intra[0].classes[0].scope, ClassScope { nest: Some(j), bind: Some(j) });
    }
}
