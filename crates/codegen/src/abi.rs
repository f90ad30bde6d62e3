//! Kernel parameter ABI: how the runtime marshals host values into the
//! launch parameter list.
//!
//! The layout is decided by the code generator and read by the runtime:
//!
//! * one entry per *used* function scalar,
//! * one base-pointer entry per *used* array,
//! * one `i32` extent entry per dynamic dimension the subscript lowering
//!   needs (dimensions `1..rank` — the outermost extent never appears in
//!   a row-major offset), plus one `i32` lower-bound entry per dimension
//!   with a non-zero/unknown lower bound,
//! * with `dim` groups, dope entries are owned by the **group** rather
//!   than each member array — this is precisely how the clause removes
//!   scalars,
//! * one trailing pointer per reduction (a one-element buffer the kernel
//!   atomically combines into).

use safara_ir::{Ident, ReduceOp, ScalarTy};

/// Who owns a dope (dimension-info) parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DimOwner {
    /// An individual array's dope vector.
    Array(Ident),
    /// A `dim` group's shared dope vector (index into the region's group
    /// list); values are taken from the group bounds or the first member.
    Group(usize),
}

/// One kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum AbiParam {
    /// A function scalar passed by value.
    Scalar {
        /// Source-level name.
        name: Ident,
        /// Value type.
        ty: ScalarTy,
    },
    /// An array base pointer.
    ArrayBase {
        /// The array's name.
        array: Ident,
    },
    /// The extent of dimension `dim` of `owner`, as `i32`.
    DimExtent {
        /// Owning array or group.
        owner: DimOwner,
        /// Dimension index (0 = outermost).
        dim: usize,
    },
    /// The lower bound of dimension `dim` of `owner`, as `i32`.
    DimLower {
        /// Owning array or group.
        owner: DimOwner,
        /// Dimension index (0 = outermost).
        dim: usize,
    },
    /// Pointer to a one-element reduction buffer.
    ReductionSlot {
        /// The reduced scalar's name.
        var: Ident,
        /// Reduction operator.
        op: ReduceOp,
        /// Element type.
        ty: ScalarTy,
    },
}

/// A kernel's parameter list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelAbi {
    /// Parameters in passing order.
    pub params: Vec<AbiParam>,
}

impl KernelAbi {
    /// Index of an existing parameter equal to `p`, or append it.
    pub fn intern(&mut self, p: AbiParam) -> u32 {
        if let Some(ix) = self.params.iter().position(|q| *q == p) {
            return ix as u32;
        }
        self.params.push(p);
        (self.params.len() - 1) as u32
    }

    /// The reduction slots, in order.
    pub fn reductions(&self) -> impl Iterator<Item = (&Ident, ReduceOp, ScalarTy)> {
        self.params.iter().filter_map(|p| match p {
            AbiParam::ReductionSlot { var, op, ty } => Some((var, *op, *ty)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_deduplicates() {
        let mut abi = KernelAbi::default();
        let a = abi.intern(AbiParam::Scalar { name: Ident::new("n"), ty: ScalarTy::I32 });
        let b = abi.intern(AbiParam::ArrayBase { array: Ident::new("x") });
        let a2 = abi.intern(AbiParam::Scalar { name: Ident::new("n"), ty: ScalarTy::I32 });
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(abi.params.len(), 2);
    }

    #[test]
    fn group_owned_dims_are_distinct_from_array_owned() {
        let mut abi = KernelAbi::default();
        let g = abi.intern(AbiParam::DimExtent { owner: DimOwner::Group(0), dim: 1 });
        let a = abi.intern(AbiParam::DimExtent {
            owner: DimOwner::Array(Ident::new("vz_1")),
            dim: 1,
        });
        assert_ne!(g, a);
        // A second array in the same group reuses the group entry.
        let g2 = abi.intern(AbiParam::DimExtent { owner: DimOwner::Group(0), dim: 1 });
        assert_eq!(g, g2);
    }

    #[test]
    fn reduction_iteration() {
        let mut abi = KernelAbi::default();
        abi.intern(AbiParam::ReductionSlot {
            var: Ident::new("s"),
            op: ReduceOp::Add,
            ty: ScalarTy::F64,
        });
        let reds: Vec<_> = abi.reductions().collect();
        assert_eq!(reds.len(), 1);
        assert_eq!(reds[0].0.as_str(), "s");
    }
}
