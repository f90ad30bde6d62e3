//! Memory-space classification of arrays within an offload region.
//!
//! Following §III-B.1 of the paper, array references are classified by the
//! GPU memory space they will live in. Our implementation (like the
//! paper's) considers **read-only** and **read/write global** data: an
//! array that is never written inside the region is eligible for the
//! Kepler read-only data cache (`__ldg` loads), which has markedly lower
//! latency than an L2/global access. A `const` qualifier does not enter
//! into it: what the region writes decides.

use safara_ir::{ArrayTy, Ident, OffloadRegion, Param, Stmt};
use std::collections::BTreeMap;

/// Where an array's accesses are served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArraySpace {
    /// Never written in the region → read-only data cache eligible.
    ReadOnly,
    /// Written (or both read and written) → ordinary global memory.
    Global,
}

/// Per-array facts the rest of the pipeline needs.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayUsage {
    /// The array's declared type.
    pub ty: ArrayTy,
    /// Read anywhere in the region.
    pub read: bool,
    /// Written anywhere in the region.
    pub written: bool,
    /// Resulting space.
    pub space: ArraySpace,
}

/// Classify every array *parameter* used inside `region` of a function
/// with parameter list `params`.
pub fn classify_arrays(
    params: &[Param],
    region: &OffloadRegion,
) -> BTreeMap<Ident, ArrayUsage> {
    classify_arrays_in(params, &region.body)
}

/// [`classify_arrays`] over a statement list — one loop nest of a region
/// is classified by what *it* reads and writes, without being re-wrapped
/// as a region of its own.
pub fn classify_arrays_in(params: &[Param], body: &[Stmt]) -> BTreeMap<Ident, ArrayUsage> {
    // (read, written) per array parameter, in parameter order.
    let arrays: Vec<_> = params
        .iter()
        .filter_map(|p| match p {
            Param::Array { name, ty, .. } => Some((name, ty)),
            Param::Scalar { .. } => None,
        })
        .collect();
    let mut marks = vec![(false, false); arrays.len()];
    for (r, is_write) in safara_ir::visit::collect_array_refs(body) {
        // A later parameter of the same name shadows an earlier one.
        if let Some(at) = arrays.iter().rposition(|(name, _)| **name == r.array) {
            if is_write {
                marks[at].1 = true;
            } else {
                marks[at].0 = true;
            }
        }
    }
    // Arrays the body does not touch are left out; only touched ones
    // clone their type.
    let mut out = BTreeMap::new();
    for (&(name, ty), &(read, written)) in arrays.iter().zip(&marks) {
        if read || written {
            let space = if written { ArraySpace::Global } else { ArraySpace::ReadOnly };
            out.insert(name.clone(), ArrayUsage { ty: ty.clone(), read, written, space });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_ir::parse_program;

    fn classify(src: &str) -> BTreeMap<Ident, ArrayUsage> {
        let p = parse_program(src).unwrap();
        let f = &p.functions[0];
        classify_arrays(&f.params, f.regions()[0])
    }

    #[test]
    fn read_only_vs_global() {
        let m = classify(
            r#"
            void f(int n, const float in[n], float out[n], float tmp[n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) {
                  tmp[i] = in[i];
                  out[i] = tmp[i] * 2.0;
                }
              }
            }"#,
        );
        assert_eq!(m[&Ident::new("in")].space, ArraySpace::ReadOnly);
        assert_eq!(m[&Ident::new("out")].space, ArraySpace::Global);
        assert_eq!(m[&Ident::new("tmp")].space, ArraySpace::Global);
        assert!(m[&Ident::new("tmp")].read && m[&Ident::new("tmp")].written);
    }

    #[test]
    fn compound_assign_counts_as_read_and_write() {
        let m = classify(
            r#"
            void f(int n, float a[n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) { a[i] += 1.0; }
              }
            }"#,
        );
        let a = &m[&Ident::new("a")];
        assert!(a.read && a.written);
        assert_eq!(a.space, ArraySpace::Global);
    }

    #[test]
    fn untouched_arrays_are_dropped() {
        let m = classify(
            r#"
            void f(int n, float a[n], float unused[n]) {
              #pragma acc kernels
              {
                #pragma acc loop gang vector
                for (int i = 0; i < n; i++) { a[i] = 1.0; }
              }
            }"#,
        );
        assert!(m.contains_key(&Ident::new("a")));
        assert!(!m.contains_key(&Ident::new("unused")));
    }
}
