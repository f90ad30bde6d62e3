//! §III-B.3 — the memory-latency microbenchmark (our stand-in for the
//! Wong et al. probes the paper's cost model is parameterized with).

use safara_core::gpusim::device::DeviceConfig;
use safara_core::gpusim::microbench::run_probes;

fn main() {
    let dev = DeviceConfig::k20xm();
    println!("Memory-latency microbenchmark on {} —", dev.name);
    println!("cycles per warp access recovered from pointer-probe kernels:\n");
    let m = run_probes(&dev);
    println!("{:<24}{:>10}", "access class", "cycles");
    for (name, cycles) in [
        ("global coalesced", m.global_coalesced),
        ("global uncoalesced", m.global_uncoalesced),
        ("global broadcast", m.global_broadcast),
        ("read-only coalesced", m.readonly_coalesced),
        ("read-only uncoalesced", m.readonly_uncoalesced),
    ] {
        println!("{name:<24}{cycles:>10.1}");
    }
    println!(
        "\nOnly `safara_core::calibrate` reads these figures; every named profile ranks \
         with the hand-set `LatencyTable::default()`."
    );
}
