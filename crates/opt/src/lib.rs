//! # safara-opt — scalar replacement: Carr–Kennedy and SAFARA
//!
//! The paper's contribution is implemented here as source-to-source
//! transformations over offload-region ASTs (the same level OpenUH works
//! at — compare Fig. 5/Fig. 6 in the paper):
//!
//! * [`transform`] — applies a set of reuse groups to a region:
//!   intra-iteration temporaries, loop-invariant hoisting, and
//!   inter-iteration rotating temporaries (Fig. 6's `b0/b1/b2` pattern);
//! * [`select`] — candidate selection under a register budget, ranked by
//!   the cost model `count × latency` (§III-B.3), with a count-only
//!   variant for the Carr–Kennedy ablation;
//! * [`strategy`] — the two end-to-end strategies:
//!   [`strategy::safara_pass`] (intra/invariant everywhere +
//!   inter-iteration only on sequential loops) and
//!   [`strategy::carr_kennedy_pass`] (classical behaviour: inter-iteration
//!   reuse is harvested even on parallelized loops, which then **must be
//!   sequentialized** — the paper's Fig. 3 → Fig. 4 pitfall, reproduced
//!   faithfully so its cost can be measured);
//! * [`egraph`] — an equality-saturation phase run *ahead* of scalar
//!   replacement: kernel expressions are hash-consed into an e-graph,
//!   saturated with integer-ring rewrites (CSE, offset factoring,
//!   strength reduction, guarded 32-bit narrowing), and re-extracted
//!   by predicted register cost.

pub mod egraph;
pub mod select;
pub mod strategy;
pub mod transform;
pub mod unroll;

pub use egraph::{
    saturate_region, RegionSaturation, SaturateConfig, SaturateError, SaturateStats, StopReason,
};
pub use select::{select_candidates, OptGoal, SelectionConfig, ThroughputContext};
pub use strategy::{carr_kennedy_pass, safara_pass, SrOutcome};
pub use transform::apply_group;
pub use unroll::unroll_seq_loops;
