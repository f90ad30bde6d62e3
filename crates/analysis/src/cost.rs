//! The SAFARA cost model (§III-B.3): `cost(R) = count(R) × latency(M)`.
//!
//! Latency figures are per-access warp-visible latencies in cycles. The
//! defaults are hand-set Kepler-class values; a table recovered by the
//! simulator's microbenchmark suite (`safara-gpusim::microbench`, playing
//! the role of the Wong et al. microbenchmarks the paper cites) can
//! replace them, so compiler behaviour can be studied under different
//! memory models.

use crate::coalesce::CoalesceClass;
use crate::memspace::ArraySpace;
use crate::reuse::ReuseGroup;

/// The access classes the cost model distinguishes — the cross product of
/// memory space (read-only cached vs global) and coalescing behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Read-only data, coalesced: served by the read-only cache.
    ReadOnlyCoalesced,
    /// Read-only data, scattered lanes.
    ReadOnlyUncoalesced,
    /// Read-only data, all lanes on one address (cache broadcast).
    ReadOnlyBroadcast,
    /// Read/write global, coalesced.
    GlobalCoalesced,
    /// Read/write global, scattered lanes — the most expensive class.
    GlobalUncoalesced,
    /// Read/write global, single address per warp.
    GlobalBroadcast,
}

impl AccessClass {
    /// Combine space and coalescing classifications.
    pub fn of(space: ArraySpace, coalesce: CoalesceClass) -> AccessClass {
        use AccessClass::*;
        match (space, coalesce) {
            (ArraySpace::ReadOnly, CoalesceClass::Coalesced) => ReadOnlyCoalesced,
            (ArraySpace::ReadOnly, CoalesceClass::Broadcast) => ReadOnlyBroadcast,
            (ArraySpace::ReadOnly, _) => ReadOnlyUncoalesced,
            (ArraySpace::Global, CoalesceClass::Coalesced) => GlobalCoalesced,
            (ArraySpace::Global, CoalesceClass::Broadcast) => GlobalBroadcast,
            (ArraySpace::Global, _) => GlobalUncoalesced,
        }
    }

    /// All classes, for table-driven tests and reports.
    pub const ALL: [AccessClass; 6] = [
        AccessClass::ReadOnlyCoalesced,
        AccessClass::ReadOnlyUncoalesced,
        AccessClass::ReadOnlyBroadcast,
        AccessClass::GlobalCoalesced,
        AccessClass::GlobalUncoalesced,
        AccessClass::GlobalBroadcast,
    ];
}

/// Per-class access latencies in cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyTable {
    /// Read-only cache, coalesced.
    pub ro_coalesced: u64,
    /// Read-only cache, uncoalesced (per-lane transactions serialize).
    pub ro_uncoalesced: u64,
    /// Read-only cache broadcast.
    pub ro_broadcast: u64,
    /// Global coalesced.
    pub global_coalesced: u64,
    /// Global uncoalesced.
    pub global_uncoalesced: u64,
    /// Global broadcast.
    pub global_broadcast: u64,
}

impl Default for LatencyTable {
    /// Kepler-class defaults (cycles), in line with published
    /// microbenchmark studies: read-only cache hits ≈ 140 cycles, global
    /// loads ≈ 350–400, and uncoalesced warp accesses pay an
    /// order-of-magnitude serialization penalty.
    fn default() -> Self {
        LatencyTable {
            ro_coalesced: 140,
            ro_uncoalesced: 1600,
            ro_broadcast: 140,
            global_coalesced: 380,
            global_uncoalesced: 4000,
            global_broadcast: 380,
        }
    }
}

impl LatencyTable {
    /// Latency for one access class.
    pub fn latency(&self, class: AccessClass) -> u64 {
        match class {
            AccessClass::ReadOnlyCoalesced => self.ro_coalesced,
            AccessClass::ReadOnlyUncoalesced => self.ro_uncoalesced,
            AccessClass::ReadOnlyBroadcast => self.ro_broadcast,
            AccessClass::GlobalCoalesced => self.global_coalesced,
            AccessClass::GlobalUncoalesced => self.global_uncoalesced,
            AccessClass::GlobalBroadcast => self.global_broadcast,
        }
    }
}

/// The candidate-prioritization model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Latency table (defaults to Kepler-class values).
    pub latencies: LatencyTable,
    /// When false, latency is ignored and candidates are ranked purely by
    /// reference count — the Carr–Kennedy CPU-style metric, kept for the
    /// ablation study of the paper's claim that a latency-aware model
    /// picks better candidates on GPUs.
    pub use_latency: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { latencies: LatencyTable::default(), use_latency: true }
    }
}

impl CostModel {
    /// A Carr–Kennedy-style model that counts references only.
    pub fn count_only() -> Self {
        CostModel { use_latency: false, ..Default::default() }
    }

    /// The paper's static formula: `reference_count(R) × latency(M)`.
    pub fn paper_cost(&self, group: &ReuseGroup, class: AccessClass) -> u64 {
        let l = if self.use_latency { self.latencies.latency(class) } else { 1 };
        group.ref_count() as u64 * l
    }

    /// The benefit estimate used for greedy selection: dynamic loads saved
    /// × latency of the access class. This refines the paper formula with
    /// trip-count weighting so hoisting out of long loops ranks above
    /// single-iteration reuse.
    pub fn benefit(&self, group: &ReuseGroup, class: AccessClass) -> u64 {
        let l = if self.use_latency { self.latencies.latency(class) } else { 1 };
        group.loads_saved() * l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::{RefClass, ReuseKind};
    use safara_ir::{ArrayRef, Expr, Ident};

    fn group(reads: u32, weight: u64, kind: ReuseKind) -> ReuseGroup {
        ReuseGroup {
            array: Ident::new("a"),
            classes: vec![RefClass {
                r: ArrayRef { array: Ident::new("a"), indices: vec![Expr::var("i")] },
                reads,
                writes: 0,
                weight,
                seq_ctx: None,
                ctx_id: None,
                scope: Default::default(),
            }],
            distances: vec![0],
            kind,
        }
    }

    #[test]
    fn uncoalesced_global_dominates() {
        let t = LatencyTable::default();
        assert!(t.global_uncoalesced > t.global_coalesced);
        assert!(t.global_coalesced > t.ro_coalesced);
        assert!(t.ro_uncoalesced > t.ro_coalesced);
    }

    #[test]
    fn paper_cost_scales_with_latency() {
        let m = CostModel::default();
        let g = group(3, 1, ReuseKind::Intra);
        let cheap = m.paper_cost(&g, AccessClass::ReadOnlyCoalesced);
        let costly = m.paper_cost(&g, AccessClass::GlobalUncoalesced);
        assert!(costly > cheap);
        assert_eq!(cheap, 3 * m.latencies.ro_coalesced);
    }

    #[test]
    fn count_only_model_ignores_class() {
        let m = CostModel::count_only();
        let g = group(3, 1, ReuseKind::Intra);
        assert_eq!(
            m.paper_cost(&g, AccessClass::ReadOnlyCoalesced),
            m.paper_cost(&g, AccessClass::GlobalUncoalesced)
        );
    }

    #[test]
    fn benefit_weights_by_trip_count() {
        let m = CostModel::default();
        let hot = group(1, 100, ReuseKind::Invariant { var: Ident::new("k") });
        let cold = group(2, 1, ReuseKind::Intra);
        assert!(
            m.benefit(&hot, AccessClass::GlobalCoalesced)
                > m.benefit(&cold, AccessClass::GlobalCoalesced)
        );
    }

    #[test]
    fn access_class_of_combinations() {
        use crate::coalesce::CoalesceClass as C;
        use crate::memspace::ArraySpace as S;
        assert_eq!(AccessClass::of(S::ReadOnly, C::Coalesced), AccessClass::ReadOnlyCoalesced);
        assert_eq!(AccessClass::of(S::ReadOnly, C::Unknown), AccessClass::ReadOnlyUncoalesced);
        assert_eq!(AccessClass::of(S::Global, C::Broadcast), AccessClass::GlobalBroadcast);
        assert_eq!(AccessClass::of(S::Global, C::Uncoalesced), AccessClass::GlobalUncoalesced);
    }
}
