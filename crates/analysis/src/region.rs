//! Offload-region structure analysis.
//!
//! Walks the loop nest of an offload region and determines, for every
//! loop, whether it is distributed across device parallelism and, if so,
//! onto which thread dimension its iterations map. The convention (shared
//! with code generation) follows the paper's Fig. 8 example:
//!
//! * parallelized loops are assigned thread dimensions from the
//!   **innermost outward**: the innermost parallel loop maps to `x`
//!   (so consecutive iterations land on consecutive lanes of a warp),
//!   the next enclosing parallel loop to `y`, then `z`;
//! * `seq` loops (and loops without a parallel scheduling clause) execute
//!   sequentially inside each thread.

use safara_ir::{ForLoop, Ident, OffloadRegion, Stmt};

/// A device thread-grid dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThreadDim {
    /// Fastest-varying: lanes of a warp differ in `x` first.
    X,
    /// Second grid dimension.
    Y,
    /// Third grid dimension.
    Z,
}

impl ThreadDim {
    /// Dimension index (x=0, y=1, z=2).
    pub fn index(self) -> usize {
        match self {
            ThreadDim::X => 0,
            ThreadDim::Y => 1,
            ThreadDim::Z => 2,
        }
    }
}

/// Information about one loop in the region's nest.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// Induction variable.
    pub var: Ident,
    /// Nesting depth from the region root (0 = outermost).
    pub depth: usize,
    /// The thread dimension this loop's iterations are distributed over,
    /// or `None` for a sequential loop.
    pub mapped: Option<ThreadDim>,
    /// Estimated trip count: the constant value when bounds fold,
    /// otherwise a default estimate used only for cost weighting.
    pub est_trip: u64,
    /// True if this loop (or an ancestor) executes sequentially in-thread,
    /// i.e. its body runs `est_trip`-fold per thread.
    pub sequential: bool,
    /// The loop's constant step (sign included).
    pub step: i64,
}

/// Default trip-count estimate for loops whose bounds do not fold; used
/// only to weight reference counts in the cost model.
pub const DEFAULT_TRIP_ESTIMATE: u64 = 64;

/// Structure of one offload region.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegionInfo {
    /// Every loop in the nest, pre-order.
    pub loops: Vec<LoopInfo>,
}

impl RegionInfo {
    /// Analyze `region`.
    pub fn analyze(region: &OffloadRegion) -> RegionInfo {
        RegionInfo::analyze_body(&region.body)
    }

    /// [`RegionInfo::analyze`] over a statement list: a region's body, or
    /// one of its top-level loop nests on its own.
    pub fn analyze_body(body: &[Stmt]) -> RegionInfo {
        // First pass: collect loops pre-order with parallel flags.
        let mut loops = Vec::new();
        collect(body, 0, false, &mut loops);
        // Assign thread dimensions innermost-outward among parallel loops.
        // "Innermost" is the deepest parallel loop in the nest; when several
        // sibling nests exist, each chain gets its own assignment.
        let mut info = RegionInfo { loops };
        info.assign_dims();
        info
    }

    fn assign_dims(&mut self) {
        // During collection `mapped = Some(X)` is a placeholder meaning
        // "parallel". The real dimension of a parallel loop is decided by
        // how many parallel loops are strictly deeper within its subtree
        // (loops are stored pre-order, so a loop's subtree is the
        // contiguous run of following entries with greater depth):
        // 0 deeper → X, 1 deeper → Y, 2+ → Z.
        let n = self.loops.len();
        for i in 0..n {
            if self.loops[i].mapped.is_none() {
                continue;
            }
            let my_depth = self.loops[i].depth;
            // Count parallel descendants (contiguous following entries with
            // depth > my_depth form the subtree).
            let mut deeper = 0usize;
            for j in (i + 1)..n {
                if self.loops[j].depth <= my_depth {
                    break;
                }
                if self.loops[j].mapped.is_some() {
                    deeper += 1;
                }
            }
            self.loops[i].mapped = Some(match deeper {
                0 => ThreadDim::X,
                1 => ThreadDim::Y,
                _ => ThreadDim::Z,
            });
        }
    }

    /// The loop info for variable `v`, if `v` is a loop variable.
    pub fn loop_of(&self, v: &Ident) -> Option<&LoopInfo> {
        self.loops.iter().find(|l| &l.var == v)
    }

    /// The induction variable mapped to thread dimension `d`, if any.
    pub fn var_for_dim(&self, d: ThreadDim) -> Option<&Ident> {
        self.loops.iter().find(|l| l.mapped == Some(d)).map(|l| &l.var)
    }
}

fn collect(stmts: &[Stmt], depth: usize, in_seq: bool, out: &mut Vec<LoopInfo>) {
    for s in stmts {
        match s {
            Stmt::For(f) => {
                let parallel = f.is_parallelized() && !in_seq;
                out.push(LoopInfo {
                    var: f.var.clone(),
                    depth,
                    // placeholder X for "parallel"; fixed by assign_dims
                    mapped: if parallel { Some(ThreadDim::X) } else { None },
                    est_trip: est_trip(f),
                    sequential: !parallel,
                    step: f.step,
                });
                collect(&f.body, depth + 1, in_seq || !parallel, out);
            }
            Stmt::If { then_body, else_body, .. } => {
                collect(then_body, depth, in_seq, out);
                collect(else_body, depth, in_seq, out);
            }
            Stmt::Block(b) => collect(b, depth, in_seq, out),
            _ => {}
        }
    }
}

fn est_trip(f: &ForLoop) -> u64 {
    match (f.lo.as_const(), f.bound.as_const()) {
        (Some(lo), Some(hi)) => {
            let span = match f.cmp {
                safara_ir::LoopCmp::Lt => hi - lo,
                safara_ir::LoopCmp::Le => hi - lo + 1,
                safara_ir::LoopCmp::Gt => lo - hi,
                safara_ir::LoopCmp::Ge => lo - hi + 1,
            };
            let step = f.step.unsigned_abs().max(1);
            if span <= 0 {
                0
            } else {
                (span as u64).div_ceil(step)
            }
        }
        _ => DEFAULT_TRIP_ESTIMATE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_ir::parse_program;

    fn region_info(src: &str) -> RegionInfo {
        let p = parse_program(src).unwrap();
        let f = &p.functions[0];
        let regions = f.regions();
        RegionInfo::analyze(regions[0])
    }

    #[test]
    fn two_level_parallel_nest_maps_inner_to_x() {
        // Mirrors the paper's Fig. 8: outer j gang loop → y, inner i → x.
        let info = region_info(
            r#"
            void f(int nx, int ny, float a[ny][nx]) {
              #pragma acc kernels
              {
                #pragma acc loop gang
                for (int j = 0; j < ny; j++) {
                  #pragma acc loop vector
                  for (int i = 0; i < nx; i++) {
                    a[j][i] = 1.0;
                  }
                }
              }
            }"#,
        );
        assert_eq!(info.loop_of(&Ident::new("j")).unwrap().mapped, Some(ThreadDim::Y));
        assert_eq!(info.loop_of(&Ident::new("i")).unwrap().mapped, Some(ThreadDim::X));
        assert_eq!(info.var_for_dim(ThreadDim::X).unwrap().as_str(), "i");
    }

    #[test]
    fn seq_inner_loop_is_unmapped() {
        let info = region_info(
            r#"
            void f(int n, int nz, float a[n][nz]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) {
                  #pragma acc loop seq
                  for (int k = 2; k < 10; k++) {
                    a[i][k] = a[i][k - 1];
                  }
                }
              }
            }"#,
        );
        assert_eq!(info.loop_of(&Ident::new("i")).unwrap().mapped, Some(ThreadDim::X));
        let k = info.loop_of(&Ident::new("k")).unwrap();
        assert_eq!(k.mapped, None);
        assert!(k.sequential);
        assert_eq!(k.est_trip, 8);
    }

    #[test]
    fn loop_under_seq_is_never_parallel() {
        // A gang/vector clause below a seq loop must not be honored: the
        // whole subtree runs in-thread.
        let info = region_info(
            r#"
            void f(int n, float a[n]) {
              #pragma acc kernels
              {
                #pragma acc loop seq
                for (int k = 0; k < 4; k++) {
                  #pragma acc loop gang vector
                  for (int i = 0; i < n; i++) {
                    a[i] = 1.0;
                  }
                }
              }
            }"#,
        );
        assert_eq!(info.loop_of(&Ident::new("i")).unwrap().mapped, None);
    }

    #[test]
    fn three_level_parallel_maps_xyz() {
        let info = region_info(
            r#"
            void f(int n, float a[n][n][n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang
                for (int z = 0; z < n; z++) {
                  #pragma acc loop gang
                  for (int y = 0; y < n; y++) {
                    #pragma acc loop vector
                    for (int x = 0; x < n; x++) {
                      a[z][y][x] = 0.0;
                    }
                  }
                }
              }
            }"#,
        );
        assert_eq!(info.loop_of(&Ident::new("z")).unwrap().mapped, Some(ThreadDim::Z));
        assert_eq!(info.loop_of(&Ident::new("y")).unwrap().mapped, Some(ThreadDim::Y));
        assert_eq!(info.loop_of(&Ident::new("x")).unwrap().mapped, Some(ThreadDim::X));
    }

    #[test]
    fn trip_estimates() {
        let info = region_info(
            r#"
            void f(int n, float a[n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) {
                  #pragma acc loop seq
                  for (int k = 0; k <= 9; k += 2) { a[i] = a[i] + 1.0; }
                }
              }
            }"#,
        );
        assert_eq!(info.loop_of(&Ident::new("k")).unwrap().est_trip, 5);
        // Non-constant bound → default estimate.
        assert_eq!(
            info.loop_of(&Ident::new("i")).unwrap().est_trip,
            DEFAULT_TRIP_ESTIMATE
        );
    }
}
