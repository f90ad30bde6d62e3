//! The scalar-replacement rewrites.
//!
//! Given a [`ReuseGroup`] from `safara-analysis`, rewrite the region AST
//! so the group's memory references are served from scalar temporaries:
//!
//! * **Intra** — one temporary per reference class, loaded at the first
//!   access and written through on stores;
//! * **Invariant** — the temporary is loaded once *before* the carrying
//!   sequential loop;
//! * **Inter** — `D+1` rotating temporaries (`t0 … tD`), pre-loaded for
//!   the first iteration window and rotated at the bottom of the loop
//!   body — the paper's Fig. 6 shape. The loop (plus pre-loads) is
//!   wrapped in a trip-count guard so a zero-trip loop performs no loads.
//!
//! All rewrites are scope-aware: reads are only replaced at the same
//! sequential-loop nesting context, and inside the same loop nest and
//! binding loop ([`ClassScope`]), the analysis grouped them in.

use safara_analysis::region::RegionInfo;
use safara_analysis::reuse::{same_subscripts, ClassScope, RefClass, ReuseGroup, ReuseKind};
use safara_ir::*;

/// Counter for generating unique temporary names within a region.
#[derive(Debug, Default)]
pub struct TempNamer {
    next: u32,
}

impl TempNamer {
    /// Produce a fresh `__sr<N>` name.
    pub fn fresh(&mut self) -> Ident {
        let id = Ident::new(format!("__sr{}", self.next));
        self.next += 1;
        id
    }
}

/// Apply one reuse group to a region body. Returns the number of
/// temporaries introduced (0 if the group's anchor could not be located,
/// which leaves the body unchanged).
///
/// `info` must be the same [`RegionInfo`] the reuse analysis consumed:
/// the transformation re-derives the analysis's sequential-loop instance
/// ids from it, so each group lands on exactly the loop instance it was
/// discovered in (several loops may share an induction-variable name —
/// and even identical subscripts — across a region's nests).
pub fn apply_group(
    body: &mut Vec<Stmt>,
    group: &ReuseGroup,
    elem_ty: ScalarTy,
    namer: &mut TempNamer,
    info: &RegionInfo,
) -> u32 {
    let mut counter = 0u32;
    match &group.kind {
        ReuseKind::Intra => {
            let mut here = Position { info, seq_id: None, enclosing: Vec::new(), counter: 0 };
            apply_intra(body, &group.classes[0], elem_ty, namer, &mut here)
        }
        ReuseKind::Invariant { var } => apply_invariant(
            body,
            &group.classes[0],
            var,
            elem_ty,
            namer,
            info,
            &mut counter,
        ),
        ReuseKind::Inter { var, max_distance } => {
            apply_inter(body, group, var, *max_distance, elem_ty, namer, info, &mut counter)
        }
    }
}

/// Visit the next loop instance: returns `(pre-order id, is_sequential)`
/// and advances the cursor. Mirrors the reuse analysis exactly: loops are
/// numbered pre-order, and a loop is sequential when the matching
/// `RegionInfo` entry says so (never by variable name).
fn visit_loop(info: &RegionInfo, counter: &mut u32) -> (u32, bool) {
    let id = *counter;
    *counter += 1;
    let seq = info
        .loops
        .get(id as usize)
        .map(|l| l.mapped.is_none())
        .unwrap_or(true);
    (id, seq)
}

// ---------------------------------------------------------------- intra

/// Where [`apply_intra`]'s walk stands: the loops around the statement
/// list in hand, numbered as the analysis numbered them.
struct Position<'a> {
    info: &'a RegionInfo,
    /// Loops met so far (the next loop's pre-order id).
    counter: u32,
    /// The innermost enclosing sequential loop.
    seq_id: Option<u32>,
    /// Every enclosing loop, outermost first.
    enclosing: Vec<(Ident, u32)>,
}

impl Position<'_> {
    /// Whether a class the analysis formed belongs to this list.
    fn holds(&self, class: &RefClass) -> bool {
        class.ctx_id == self.seq_id && class.scope == ClassScope::of(&class.r, &self.enclosing)
    }
}

/// Walk to the statement list whose sequential context and scope match
/// the class's, then rewrite in place.
fn apply_intra(
    stmts: &mut Vec<Stmt>,
    class: &RefClass,
    elem_ty: ScalarTy,
    namer: &mut TempNamer,
    here: &mut Position,
) -> u32 {
    if here.holds(class) {
        // Does this list (not descending into loops) access the class?
        if let Some(first) = stmts.iter().position(|s| stmt_accesses(s, class, false)) {
            let tmp = namer.fresh();
            let init = if first_access_is_pure_write(&stmts[first], class) {
                None
            } else {
                Some(Expr::ArrayRef(class.r.clone()))
            };
            rewrite_same_ctx(stmts, class, &tmp);
            stmts.insert(first, Stmt::DeclScalar { name: tmp, ty: elem_ty, init });
            return 1;
        }
    }
    // Descend (numbering loops exactly as the analysis does).
    for s in stmts.iter_mut() {
        let n = match s {
            Stmt::For(f) => {
                let (id, seq) = visit_loop(here.info, &mut here.counter);
                let outer_seq = here.seq_id;
                if seq {
                    here.seq_id = Some(id);
                }
                here.enclosing.push((f.var.clone(), id));
                let n = apply_intra(&mut f.body, class, elem_ty, namer, here);
                here.enclosing.pop();
                here.seq_id = outer_seq;
                n
            }
            Stmt::If { then_body, else_body, .. } => {
                let a = apply_intra(then_body, class, elem_ty, namer, here);
                if a > 0 {
                    a
                } else {
                    apply_intra(else_body, class, elem_ty, namer, here)
                }
            }
            Stmt::Block(b) => apply_intra(b, class, elem_ty, namer, here),
            _ => 0,
        };
        if n > 0 {
            return n;
        }
    }
    0
}

// ------------------------------------------------------------ invariant

#[allow(clippy::too_many_arguments)]
fn apply_invariant(
    stmts: &mut Vec<Stmt>,
    class: &RefClass,
    var: &Ident,
    elem_ty: ScalarTy,
    namer: &mut TempNamer,
    info: &RegionInfo,
    counter: &mut u32,
) -> u32 {
    // Find the loop *instance* the analysis grouped the class in (by id);
    // hoist the load before it.
    for i in 0..stmts.len() {
        let mut this_id: Option<u32> = None;
        if matches!(&stmts[i], Stmt::For(_)) {
            let (id, seq) = visit_loop(info, counter);
            if seq {
                this_id = Some(id);
            }
        }
        let found = match &mut stmts[i] {
            Stmt::For(f) if &f.var == var && this_id == class.ctx_id => {
                let tmp = namer.fresh();
                rewrite_same_ctx(&mut f.body, class, &tmp);
                Some(tmp)
            }
            _ => None,
        };
        if let Some(tmp) = found {
            stmts.insert(
                i,
                Stmt::DeclScalar {
                    name: tmp,
                    ty: elem_ty,
                    init: Some(Expr::ArrayRef(class.r.clone())),
                },
            );
            return 1;
        }
        // Recurse into structured statements.
        let n = match &mut stmts[i] {
            Stmt::For(f) => apply_invariant(&mut f.body, class, var, elem_ty, namer, info, counter),
            Stmt::If { then_body, else_body, .. } => {
                let a = apply_invariant(then_body, class, var, elem_ty, namer, info, counter);
                if a > 0 {
                    a
                } else {
                    apply_invariant(else_body, class, var, elem_ty, namer, info, counter)
                }
            }
            Stmt::Block(b) => apply_invariant(b, class, var, elem_ty, namer, info, counter),
            _ => 0,
        };
        if n > 0 {
            return n;
        }
    }
    0
}

// ---------------------------------------------------------------- inter

#[allow(clippy::too_many_arguments)]
fn apply_inter(
    stmts: &mut Vec<Stmt>,
    group: &ReuseGroup,
    var: &Ident,
    max_distance: u32,
    elem_ty: ScalarTy,
    namer: &mut TempNamer,
    info: &RegionInfo,
    counter: &mut u32,
) -> u32 {
    for i in 0..stmts.len() {
        let mut this_id: Option<u32> = None;
        if matches!(&stmts[i], Stmt::For(_)) {
            let (id, seq) = visit_loop(info, counter);
            if seq {
                this_id = Some(id);
            }
        }
        // The anchor is the exact loop instance the analysis grouped the
        // references in (by id); rotation further requires unit step.
        let here = match &stmts[i] {
            Stmt::For(f) => {
                &f.var == var && f.step == 1 && this_id == group.classes[0].ctx_id
            }
            _ => false,
        };
        if here {
            let Stmt::For(f) = stmts.remove(i) else { unreachable!() };
            let (guarded, temps) =
                build_rotated_loop(*f, group, var, max_distance, elem_ty, namer);
            stmts.insert(i, guarded);
            return temps;
        }
        let n = match &mut stmts[i] {
            Stmt::For(f) => {
                apply_inter(&mut f.body, group, var, max_distance, elem_ty, namer, info, counter)
            }
            Stmt::If { then_body, else_body, .. } => {
                let a = apply_inter(
                    then_body, group, var, max_distance, elem_ty, namer, info, counter,
                );
                if a > 0 {
                    a
                } else {
                    apply_inter(
                        else_body, group, var, max_distance, elem_ty, namer, info, counter,
                    )
                }
            }
            Stmt::Block(b) => {
                apply_inter(b, group, var, max_distance, elem_ty, namer, info, counter)
            }
            _ => 0,
        };
        if n > 0 {
            return n;
        }
    }
    0
}

/// Rewrite one sequential loop with rotating temporaries (Fig. 6).
fn build_rotated_loop(
    mut f: ForLoop,
    group: &ReuseGroup,
    var: &Ident,
    max_distance: u32,
    elem_ty: ScalarTy,
    namer: &mut TempNamer,
) -> (Stmt, u32) {
    let d = max_distance as usize;
    let temps: Vec<Ident> = (0..=d).map(|_| namer.fresh()).collect();
    let leader = &group.classes[0].r;

    // Replace each class's reads inside the loop body with its temp.
    for (class, dist) in group.classes.iter().zip(&group.distances) {
        let tmp = &temps[*dist as usize];
        replace_reads(&mut f.body, class, tmp);
    }

    // Fresh load of the leading edge at the top of the body:
    // t_D = leader with var := var + D.
    let lead_ref = shift_ref(leader, var, d as i64);
    f.body.insert(
        0,
        Stmt::Assign {
            lhs: LValue::Var(temps[d].clone()),
            op: AssignOp::Assign,
            rhs: Expr::ArrayRef(lead_ref),
        },
    );
    // Rotation at the bottom: t_j = t_{j+1}.
    for j in 0..d {
        f.body.push(Stmt::Assign {
            lhs: LValue::Var(temps[j].clone()),
            op: AssignOp::Assign,
            rhs: Expr::var(temps[j + 1].as_str()),
        });
    }

    // Pre-loads for the first window: t_j = leader with var := lo + j,
    // j in 0..D. Declare t_D uninitialized.
    let mut prologue: Vec<Stmt> = Vec::new();
    for (j, t) in temps.iter().enumerate() {
        let init = if j < d {
            Some(Expr::ArrayRef(shift_to(leader, var, &f.lo, j as i64)))
        } else {
            None
        };
        prologue.push(Stmt::DeclScalar { name: t.clone(), ty: elem_ty, init });
    }

    // Guard so a zero-trip loop performs no pre-loads:
    // if (lo CMP bound) { preloads; loop }.
    let cond = Expr::bin(
        match f.cmp {
            LoopCmp::Lt => BinOp::Lt,
            LoopCmp::Le => BinOp::Le,
            LoopCmp::Gt => BinOp::Gt,
            LoopCmp::Ge => BinOp::Ge,
        },
        f.lo.clone(),
        f.bound.clone(),
    );
    let mut guarded_body = prologue;
    guarded_body.push(Stmt::For(Box::new(f)));
    (
        Stmt::If { cond, then_body: guarded_body, else_body: Vec::new() },
        (d + 1) as u32,
    )
}

/// The leader reference with `var := var + delta` in every subscript.
fn shift_ref(r: &ArrayRef, var: &Ident, delta: i64) -> ArrayRef {
    let mut out = r.clone();
    for ix in &mut out.indices {
        let e = std::mem::replace(ix, Expr::IntLit(0));
        *ix = visit::map_expr(e, &mut |e| match e {
            Expr::Var(v) if &v == var => {
                Expr::bin(BinOp::Add, Expr::Var(v), Expr::IntLit(delta))
            }
            other => other,
        });
    }
    out
}

/// The leader reference with `var := lo + j`.
fn shift_to(r: &ArrayRef, var: &Ident, lo: &Expr, j: i64) -> ArrayRef {
    let mut out = r.clone();
    for ix in &mut out.indices {
        let e = std::mem::replace(ix, Expr::IntLit(0));
        *ix = visit::map_expr(e, &mut |e| match e {
            Expr::Var(v) if &v == var => {
                Expr::bin(BinOp::Add, lo.clone(), Expr::IntLit(j))
            }
            other => other,
        });
    }
    out
}

// ------------------------------------------------------------- plumbing

/// True if the statement (not descending into nested loops) reads or
/// writes the class. With `reads_only`, writes are ignored.
fn stmt_accesses(s: &Stmt, class: &RefClass, reads_only: bool) -> bool {
    let matches_ref =
        |r: &ArrayRef| r.array == class.r.array && same_subscripts(r, &class.r);
    let mut found = false;
    let mut check_expr = |e: &Expr| {
        visit::walk_expr(e, &mut |e| {
            if let Expr::ArrayRef(r) = e {
                if matches_ref(r) {
                    found = true;
                }
            }
        });
    };
    match s {
        Stmt::DeclScalar { init, .. } => {
            if let Some(e) = init {
                check_expr(e);
            }
        }
        Stmt::Assign { lhs, rhs, .. } => {
            check_expr(rhs);
            if let LValue::ArrayRef(r) = lhs {
                for ix in &r.indices {
                    check_expr(ix);
                }
                if !reads_only && matches_ref(r) {
                    found = true;
                }
            }
        }
        Stmt::If { cond, then_body, else_body } => {
            check_expr(cond);
            found |= then_body.iter().any(|s| stmt_accesses(s, class, reads_only))
                || else_body.iter().any(|s| stmt_accesses(s, class, reads_only));
        }
        Stmt::Block(b) => {
            found |= b.iter().any(|s| stmt_accesses(s, class, reads_only));
        }
        Stmt::For(_) | Stmt::Region(_) => {}
    }
    found
}

fn first_access_is_pure_write(s: &Stmt, class: &RefClass) -> bool {
    match s {
        Stmt::Assign { lhs: LValue::ArrayRef(r), op: AssignOp::Assign, rhs } => {
            if !(r.array == class.r.array && same_subscripts(r, &class.r)) {
                return false;
            }
            // A read of the class in the RHS (or subscripts) happens first.
            let mut reads = false;
            visit::walk_expr(rhs, &mut |e| {
                if let Expr::ArrayRef(q) = e {
                    if q.array == class.r.array && same_subscripts(q, &class.r) {
                        reads = true;
                    }
                }
            });
            !reads
        }
        _ => false,
    }
}

/// Replace reads of the class with the temp, and turn writes into
/// write-throughs, within the same sequential context (not descending
/// into nested loops — those have different contexts).
fn rewrite_same_ctx(stmts: &mut Vec<Stmt>, class: &RefClass, tmp: &Ident) {
    let mut i = 0;
    while i < stmts.len() {
        let mut insert_after: Option<Stmt> = None;
        match &mut stmts[i] {
            Stmt::DeclScalar { init, .. } => {
                if let Some(e) = init.take() {
                    *init = Some(replace_in_expr(e, class, tmp));
                }
            }
            Stmt::Assign { lhs, op, rhs } => {
                let r = std::mem::replace(rhs, Expr::IntLit(0));
                *rhs = replace_in_expr(r, class, tmp);
                if let LValue::ArrayRef(ar) = lhs {
                    for ix in &mut ar.indices {
                        let e = std::mem::replace(ix, Expr::IntLit(0));
                        *ix = replace_in_expr(e, class, tmp);
                    }
                    if ar.array == class.r.array && same_subscripts(ar, &class.r) {
                        // Write-through: tmp op= rhs; array = tmp.
                        let store = Stmt::Assign {
                            lhs: LValue::ArrayRef(ar.clone()),
                            op: AssignOp::Assign,
                            rhs: Expr::var(tmp.as_str()),
                        };
                        *lhs = LValue::Var(tmp.clone());
                        let _ = op; // op is preserved on the temp update
                        insert_after = Some(store);
                    }
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                let c = std::mem::replace(cond, Expr::IntLit(0));
                *cond = replace_in_expr(c, class, tmp);
                rewrite_same_ctx(then_body, class, tmp);
                rewrite_same_ctx(else_body, class, tmp);
            }
            Stmt::Block(b) => rewrite_same_ctx(b, class, tmp),
            Stmt::For(_) | Stmt::Region(_) => {}
        }
        if let Some(st) = insert_after {
            stmts.insert(i + 1, st);
            i += 1;
        }
        i += 1;
    }
}

/// Replace only *reads* (no write-through handling) — used inside
/// inter-iteration loop bodies where group classes are read-only by
/// construction.
fn replace_reads(stmts: &mut Vec<Stmt>, class: &RefClass, tmp: &Ident) {
    for s in stmts {
        match s {
            Stmt::DeclScalar { init, .. } => {
                if let Some(e) = init.take() {
                    *init = Some(replace_in_expr(e, class, tmp));
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                let r = std::mem::replace(rhs, Expr::IntLit(0));
                *rhs = replace_in_expr(r, class, tmp);
                if let LValue::ArrayRef(ar) = lhs {
                    for ix in &mut ar.indices {
                        let e = std::mem::replace(ix, Expr::IntLit(0));
                        *ix = replace_in_expr(e, class, tmp);
                    }
                }
            }
            Stmt::If { cond, then_body, else_body } => {
                let c = std::mem::replace(cond, Expr::IntLit(0));
                *cond = replace_in_expr(c, class, tmp);
                replace_reads(then_body, class, tmp);
                replace_reads(else_body, class, tmp);
            }
            Stmt::Block(b) => replace_reads(b, class, tmp),
            Stmt::For(f) => replace_reads(&mut f.body, class, tmp),
            Stmt::Region(_) => {}
        }
    }
}

fn replace_in_expr(e: Expr, class: &RefClass, tmp: &Ident) -> Expr {
    visit::map_expr(e, &mut |e| match e {
        Expr::ArrayRef(r)
            if r.array == class.r.array && same_subscripts(&r, &class.r) =>
        {
            Expr::Var(tmp.clone())
        }
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_analysis::region::RegionInfo;
    use safara_analysis::reuse::find_reuse_groups;
    use safara_ir::printer::print_function;
    use safara_ir::{parse_program, Program};

    fn transformed(src: &str) -> (Program, String) {
        let mut p = parse_program(src).unwrap();
        let f = &mut p.functions[0];
        // Apply every group the analysis finds.
        let mut namer = TempNamer::default();
        let regions_snapshot: Vec<_> = f.regions().into_iter().cloned().collect();
        // Locate the region in the body (assume a single top-level region).
        for s in &mut f.body {
            if let Stmt::Region(r) = s {
                let info = RegionInfo::analyze(&regions_snapshot[0]);
                let groups = find_reuse_groups(&regions_snapshot[0], &info);
                for g in &groups {
                    let elem = match p_elem(&regions_snapshot[0], &g.array) {
                        Some(t) => t,
                        None => ScalarTy::F32,
                    };
                    apply_group(&mut r.body, g, elem, &mut namer, &info);
                }
            }
        }
        let txt = print_function(&p.functions[0]);
        // Must still parse and type-check.
        parse_program(&txt)
            .unwrap_or_else(|e| panic!("transformed source invalid: {e}\n{txt}"));
        (p, txt)
    }

    fn p_elem(_region: &OffloadRegion, _array: &Ident) -> Option<ScalarTy> {
        None // tests use f32 arrays throughout
    }

    const FIG5: &str = r#"
    void fig5(int jsize, int isize, float a[260][260], float b[260][260],
              float c[260], float d[260]) {
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
    fn fig5_gets_rotating_temporaries() {
        let (_, txt) = transformed(FIG5);
        // The inter group on b (distance 2) introduces three temps and a
        // rotation, mirroring the paper's Fig. 6.
        assert!(txt.contains("__sr"), "{txt}");
        // A fresh leading-edge load of b[j][i+1] (leader b[j][i-1]
        // shifted by +2; printed as `i + 2 - 1`).
        assert!(
            txt.contains("b[j][i + 2 - 1]") || txt.contains("b[j][i + 1]"),
            "leading edge load missing:\n{txt}"
        );
        // Rotation assignments temp = temp.
        let rot = txt
            .lines()
            .filter(|l| {
                let l = l.trim();
                l.starts_with("__sr") && l.contains("= __sr") && !l.contains("[")
            })
            .count();
        assert!(rot >= 2, "expected rotation assignments:\n{txt}");
    }

    #[test]
    fn fig5_intra_b_j0_loaded_once() {
        let (_, txt) = transformed(FIG5);
        // b[j][0] was read twice; after SR it is loaded exactly once.
        let occurrences = txt.matches("b[j][0]").count();
        assert_eq!(occurrences, 1, "b[j][0] should remain only in the temp init:\n{txt}");
    }

    #[test]
    fn parallel_loop_not_rotated() {
        let src = r#"
        void fig3(int n, float a[1026], float b[1026]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 1; i <= n; i++) {
              a[i] = (b[i] + b[i + 1]) / 2.0;
            }
          }
        }"#;
        let (_, txt) = transformed(src);
        // No temporaries: nothing is replaceable without sequentializing.
        assert!(!txt.contains("__sr"), "{txt}");
    }

    #[test]
    fn invariant_hoisted_before_loop() {
        let src = r#"
        void f(int n, const float s[n], float a[n][100]) {
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
        }"#;
        let (_, txt) = transformed(src);
        // s[i] appears exactly once (the hoisted init).
        assert_eq!(txt.matches("s[i]").count(), 1, "{txt}");
        // The temp decl comes before the k loop.
        let decl_pos = txt.find("__sr").unwrap();
        let loop_pos = txt.find("for (int k").unwrap();
        assert!(decl_pos < loop_pos, "{txt}");
    }

    #[test]
    fn rmw_write_through_keeps_store() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              a[i] += 1.0;
              a[i] += 2.0;
            }
          }
        }"#;
        let (_, txt) = transformed(src);
        // The temp accumulates; stores to a[i] remain (write-through).
        assert!(txt.contains("__sr0 += 1.0"), "{txt}");
        assert!(txt.contains("a[i] = __sr0"), "{txt}");
        // Only the initial load of a[i] remains on a RHS.
        assert_eq!(txt.matches("= a[i];").count(), 1, "{txt}");
    }

    #[test]
    fn zero_trip_guard_wraps_rotated_loop() {
        let src = r#"
        void f(int n, int m, float a[n][1030], const float b[n][1030]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              #pragma acc loop seq
              for (int k = 1; k < m; k++) {
                a[i][k] = b[i][k - 1] + b[i][k + 1];
              }
            }
          }
        }"#;
        let (_, txt) = transformed(src);
        assert!(txt.contains("if (1 < m)"), "guard missing:\n{txt}");
    }

    #[test]
    fn pure_write_class_gets_no_bogus_load() {
        let src = r#"
        void f(int n, float a[n], const float b[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              a[i] = b[i];
              a[i] = a[i] * 2.0;
            }
          }
        }"#;
        let (_, txt) = transformed(src);
        // First access to a[i] is a pure write: the temp must be declared
        // WITHOUT an initializing load of a[i].
        let decl_line = txt
            .lines()
            .find(|l| l.trim_start().starts_with("float __sr"))
            .unwrap_or_else(|| panic!("no temp declared:\n{txt}"));
        assert!(!decl_line.contains("a[i]"), "bogus load: {decl_line}\n{txt}");
    }

    #[test]
    fn intra_temporary_lands_in_the_nest_that_reuses() {
        // The first kernel reads `a[j][i]` once, the second twice: the
        // class belongs to the second nest, and so does its temporary.
        let src = r#"
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
              for (int i = 0; i < n; i++) { c[j][i] = a[j][i] * a[j][i]; }
            }
          }
        }"#;
        let (_, txt) = transformed(src);
        assert_eq!(txt.matches("__sr0 = a[j][i]").count(), 1, "{txt}");
        assert!(txt.contains("b[j][i] = a[j][i]"), "the first kernel is left alone:\n{txt}");
        assert!(txt.contains("c[j][i] = __sr0 * __sr0"), "{txt}");
        assert!(!txt.contains("__sr1"), "{txt}");
    }
}
