//! §III-B.3 — the memory-latency microbenchmark (our stand-in for the
//! Wong et al. probes the paper's cost model is parameterized with).
//!
//! The probe suite is run once per sim-thread setting (1, 2 and 4
//! block-parallel workers) and rendered with one column per setting:
//! the simulator's determinism guarantee means every column must agree
//! to the last bit, and a divergence here would flag a regression in
//! the parallel engine's ordered merge.

use safara_core::gpusim::device::DeviceConfig;
use safara_core::gpusim::microbench::run_probes;
use safara_core::gpusim::ExecOptions;

fn main() {
    let dev = DeviceConfig::k20xm();
    println!("Memory-latency microbenchmark on {} —", dev.name);
    println!("cycles per warp access recovered from pointer-probe kernels:\n");
    let threads = [1u32, 2, 4];
    let runs: Vec<_> = threads
        .iter()
        .map(|&n| ExecOptions::inherit().sim_threads(n).scope(|| run_probes(&dev)))
        .collect();
    println!("{:<24}{:>10}{:>10}{:>10}", "access class", "thr=1", "thr=2", "thr=4");
    let rows: [(&str, Vec<f64>); 5] = [
        ("global coalesced", runs.iter().map(|m| m.global_coalesced).collect()),
        ("global uncoalesced", runs.iter().map(|m| m.global_uncoalesced).collect()),
        ("global broadcast", runs.iter().map(|m| m.global_broadcast).collect()),
        ("read-only coalesced", runs.iter().map(|m| m.readonly_coalesced).collect()),
        ("read-only uncoalesced", runs.iter().map(|m| m.readonly_uncoalesced).collect()),
    ];
    let mut identical = true;
    for (name, vals) in &rows {
        identical &= vals.windows(2).all(|w| w[0].to_bits() == w[1].to_bits());
        println!("{name:<24}{:>10.1}{:>10.1}{:>10.1}", vals[0], vals[1], vals[2]);
    }
    assert!(identical, "latencies must be bit-identical across sim-thread counts");
    println!("\nAll columns bit-identical across sim-thread counts (deterministic merge).");
    println!("These figures parameterize the SAFARA cost model's latency table.");
}
