//! Static memory-coalescing classification.
//!
//! On NVIDIA hardware a warp's 32 lanes differ (first) in `threadIdx.x`.
//! A global access is *coalesced* when consecutive lanes touch consecutive
//! addresses, which for a row-major array `a[..][..][last]` means:
//!
//! * the **last** subscript depends on the x-mapped loop variable with
//!   coefficient ±1, and
//! * no **other** subscript depends on the x variable.
//!
//! If the x variable appears with a non-unit stride in the last dimension,
//! or in any non-last dimension, lanes are strided across memory and each
//! lane needs its own transaction — *uncoalesced*. If the x variable
//! appears in no subscript, all lanes read the same address — *broadcast*
//! (one transaction serves the warp). This mirrors the analysis the paper
//! adopts from Jang et al. (§III-B.1) and drives the SAFARA cost model:
//! uncoalesced references are the most profitable to scalar-replace.

use crate::affine::affine_of;
use crate::region::{RegionInfo, ThreadDim};
use safara_ir::ArrayRef;

/// Coalescing class of one array reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoalesceClass {
    /// Consecutive lanes → consecutive elements: one (or a few) 128-byte
    /// transactions per warp.
    Coalesced,
    /// Lanes scatter: up to 32 transactions per warp access.
    Uncoalesced,
    /// All lanes read the same address (x-variable-free subscripts).
    Broadcast,
    /// Subscripts too complex to analyze; treated as uncoalesced by the
    /// cost model (conservative for profitability ranking).
    Unknown,
}

/// Classify `r` given the region structure (which loop variable maps to
/// the x thread dimension).
pub fn classify_ref(r: &ArrayRef, region: &RegionInfo) -> CoalesceClass {
    let xvar = match region.var_for_dim(ThreadDim::X) {
        Some(v) => v.clone(),
        // No parallel loop at all: a degenerate region; treat accesses as
        // broadcast since every "thread" is the single sequential thread.
        None => return CoalesceClass::Broadcast,
    };
    let n = r.indices.len();
    let mut x_in_last = 0i64;
    let mut x_elsewhere = false;
    for (k, ix) in r.indices.iter().enumerate() {
        let f = affine_of(ix);
        if f.nonaffine {
            return CoalesceClass::Unknown;
        }
        let c = f.coeff(&xvar);
        if k + 1 == n {
            x_in_last = c;
        } else if c != 0 {
            x_elsewhere = true;
        }
    }
    if x_elsewhere {
        return CoalesceClass::Uncoalesced;
    }
    match x_in_last {
        0 => CoalesceClass::Broadcast,
        1 | -1 => CoalesceClass::Coalesced,
        _ => CoalesceClass::Uncoalesced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::RegionInfo;
    use safara_ir::parse_program;

    /// Parse a function with one region; return (region info, array refs
    /// found in the region, in textual order, reads only).
    fn setup(src: &str) -> (RegionInfo, Vec<ArrayRef>) {
        let p = parse_program(src).unwrap();
        let f = &p.functions[0];
        let regions = f.regions();
        let region = regions[0];
        let info = RegionInfo::analyze(region);
        let refs = safara_ir::visit::collect_array_refs(&region.body)
            .into_iter()
            .map(|(r, _)| r.clone())
            .collect();
        (info, refs)
    }

    #[test]
    fn paper_fig5_classification() {
        // Fig. 5: j is the parallel (x) loop; a[i][j] is coalesced (j is
        // the last subscript), b[j][i] is uncoalesced (j in a non-last
        // dimension drives the stride).
        let src = r#"
        void f(int n, float a[n][n], float b[n][n], float c[n], float d[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int j = 1; j < n; j++) {
              c[j] = b[j][0] + b[j][1];
              d[j] = c[j] * b[j][0];
              #pragma acc loop seq
              for (int i = 1; i < n - 1; i++) {
                a[i][j] += a[i - 1][j] + b[j][i - 1] + a[i + 1][j] + b[j][i + 1];
              }
            }
          }
        }"#;
        let (info, refs) = setup(src);
        let class_of = |name: &str, pick: usize| {
            let r = refs.iter().filter(|r| r.array.as_str() == name).nth(pick).unwrap();
            classify_ref(r, &info)
        };
        // a[i][j]: last subscript is j with coeff 1 → coalesced.
        assert_eq!(class_of("a", 0), CoalesceClass::Coalesced);
        // b[j][i-1]: j in the first dim → uncoalesced.
        let b_inner = refs
            .iter()
            .find(|r| {
                r.array.as_str() == "b" && affine_of(&r.indices[1]).coeff(&"i".into()) != 0
            })
            .unwrap();
        assert_eq!(classify_ref(b_inner, &info), CoalesceClass::Uncoalesced);
        // c[j] (1-D, last = j) → coalesced.
        assert_eq!(class_of("c", 0), CoalesceClass::Coalesced);
    }

    #[test]
    fn broadcast_when_x_free() {
        let src = r#"
        void f(int n, float a[n], float b[n][n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              a[i] = b[0][3] + b[n - 1][0];
            }
          }
        }"#;
        let (info, refs) = setup(src);
        for r in refs.iter().filter(|r| r.array.as_str() == "b") {
            assert_eq!(classify_ref(r, &info), CoalesceClass::Broadcast);
        }
    }

    #[test]
    fn strided_access_uncoalesced() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n / 2; i++) {
              a[2 * i] = 1.0;
            }
          }
        }"#;
        let (info, refs) = setup(src);
        assert_eq!(classify_ref(&refs[0], &info), CoalesceClass::Uncoalesced);
    }

    #[test]
    fn reverse_unit_stride_still_coalesced() {
        let src = r#"
        void f(int n, float a[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              a[n - 1 - i] = 1.0;
            }
          }
        }"#;
        let (info, refs) = setup(src);
        assert_eq!(classify_ref(&refs[0], &info), CoalesceClass::Coalesced);
    }

    #[test]
    fn two_dim_mapping_uses_inner_loop_as_x() {
        // j → y, i → x; a[j][i] coalesced, a[i][j] uncoalesced.
        let src = r#"
        void f(int n, float a[n][n], float b[n][n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang
            for (int j = 0; j < n; j++) {
              #pragma acc loop vector
              for (int i = 0; i < n; i++) {
                a[j][i] = b[i][j];
              }
            }
          }
        }"#;
        let (info, refs) = setup(src);
        let a = refs.iter().find(|r| r.array.as_str() == "a").unwrap();
        let b = refs.iter().find(|r| r.array.as_str() == "b").unwrap();
        assert_eq!(classify_ref(a, &info), CoalesceClass::Coalesced);
        assert_eq!(classify_ref(b, &info), CoalesceClass::Uncoalesced);
    }

    #[test]
    fn nonaffine_subscript_unknown() {
        let src = r#"
        void f(int n, float a[n], int idx[n]) {
          #pragma acc kernels
          {
            #pragma acc loop gang vector
            for (int i = 0; i < n; i++) {
              a[idx[i]] = 1.0;
            }
          }
        }"#;
        let (info, refs) = setup(src);
        let gather = refs.iter().find(|r| matches!(r.indices[0], safara_ir::Expr::ArrayRef(_))).unwrap();
        assert_eq!(classify_ref(gather, &info), CoalesceClass::Unknown);
    }
}
