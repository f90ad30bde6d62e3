//! Ablation — equality saturation ahead of SAFARA: greedy extraction
//! (no e-graph) vs saturated, vs saturated under the throughput goal.
//!
//! Two profile families, matching the paper's figures:
//!
//! * **fig7** (no clauses): `SAFARA` vs `SAFARA(saturated)` vs
//!   `SAFARA(saturated+throughput)` — the rewrites on offer are CSE,
//!   offset factoring, and strength reduction;
//! * **fig9** (all clauses): the same three with `small` + `dim`
//!   honored, which additionally arms the `small`-guarded 32-bit
//!   narrowing and lets the factoring rewrite regroup `dim`-shaped
//!   offsets.
//!
//! The driver re-validates every extraction against the ptxas register
//! model (occupancy oracle under the throughput goal) and reverts
//! non-improvements, so the saturated geomean can match but never trail
//! the greedy one. The mechanism table shows where the wins come from:
//! per-workload `regs_used` under greedy vs saturated SAFARA, plus a
//! bespoke stress kernel whose flat-index arithmetic is written in
//! deliberately un-factored form.

use safara_bench::{geomean_speedup, measure, speedup_table, Measurement};
use safara_core::opt::OptGoal;
use safara_core::{compile, Args, CompilerConfig, DeviceConfig};
use safara_workloads::{spec_suite, Scale};

/// Four differently-spelled but ring-equal flat offsets per point: the
/// greedy pipeline compiles each spelling separately; saturation proves
/// `j*4 + i*4 ≡ (j+i)*4` and `j*4 + i*4 + 4 ≡ (j+i+1)*4`, collapsing
/// them to two shifted offsets and freeing the registers that held the
/// duplicate address arithmetic.
const STRESS_SRC: &str = r#"
void egstress(int n, const float a[8192], const float b[8192], float out[8192]) {
  #pragma acc kernels
  {
    #pragma acc loop gang
    for (int j = 0; j < n; j++) {
      #pragma acc loop vector
      for (int i = 0; i < n; i++) {
        out[j * n + i] = a[(j + i) * 4] + b[j * 4 + i * 4]
                       + a[j * 4 + i * 4 + 4] + b[(j + i + 1) * 4];
      }
    }
  }
}
"#;

fn stress_regs(cfg: &CompilerConfig, dev: &DeviceConfig) -> (u32, f64) {
    let n = 40usize;
    let p = compile(STRESS_SRC, cfg).unwrap_or_else(|e| panic!("egstress under {}: {e}", cfg.name));
    let data: Vec<f32> = (0..8192).map(|i| (i % 11) as f32 * 0.5).collect();
    let mut args = Args::new()
        .i32("n", n as i32)
        .array_f32("a", &data)
        .array_f32("b", &data)
        .array_f32("out", &vec![0.0; 8192]);
    let rep = p.run("egstress", &mut args, dev).expect("egstress runs");
    (p.function("egstress").unwrap().max_regs(), rep.total_cycles())
}

fn family(
    label: &str,
    configs: &[CompilerConfig; 4],
    rows: &[Measurement],
) -> (f64, f64, f64) {
    println!("\n== {label} ==");
    println!("(speedup over OpenUH base; higher is better)\n");
    print!(
        "{}",
        speedup_table(&["base", "greedy", "saturated", "saturated+tp"], rows)
    );
    let (g, s, t) = (
        geomean_speedup(rows, 1),
        geomean_speedup(rows, 2),
        geomean_speedup(rows, 3),
    );
    println!(
        "geomean: greedy {g:.3}x, saturated {s:.3}x, saturated+throughput {t:.3}x"
    );
    let _ = configs;
    (g, s, t)
}

fn main() {
    let throughput = OptGoal::MaxThroughput;
    let clauses_saturated =
        CompilerConfig { name: "custom", saturate: true, ..CompilerConfig::safara_clauses() };
    let fig7: [CompilerConfig; 4] = [
        CompilerConfig::base(),
        CompilerConfig::safara_only(),
        CompilerConfig::safara_saturated(),
        CompilerConfig { name: "custom", goal: throughput, ..CompilerConfig::safara_saturated() },
    ];
    let fig9: [CompilerConfig; 4] = [
        CompilerConfig::base(),
        CompilerConfig::safara_clauses(),
        clauses_saturated.clone(),
        CompilerConfig { goal: throughput, ..clauses_saturated },
    ];
    let suite = spec_suite();

    println!("Ablation — equality saturation ahead of SAFARA (e-graph phase)");

    let rows7 = measure(&suite, &fig7, Scale::Bench);
    let (g7, s7, _) = family("fig7 family (no clauses)", &fig7, &rows7);
    let rows9 = measure(&suite, &fig9, Scale::Bench);
    let (g9, s9, _) = family("fig9 family (small + dim honored)", &fig9, &rows9);

    // Mechanism: per-workload register use, greedy vs saturated, both
    // families. The driver's ptxas guard makes ≤ an invariant; the
    // interesting rows are the strict wins.
    println!("\nregister use (max regs_used over kernels), greedy vs saturated");
    println!(
        "{:<16}{:>16}{:>16}{:>20}{:>20}",
        "benchmark", "fig7 greedy", "fig7 saturated", "fig9 greedy", "fig9 saturated"
    );
    let mut strict_wins: Vec<String> = Vec::new();
    for w in &suite {
        let mut regs = Vec::new();
        for cfg in [&fig7[1], &fig7[2], &fig9[1], &fig9[2]] {
            let p = compile(&w.source(), cfg)
                .unwrap_or_else(|e| panic!("{} under {}: {e}", w.name(), cfg.name));
            regs.push(p.function(w.entry()).unwrap().max_regs());
        }
        if regs[1] < regs[0] || regs[3] < regs[2] {
            strict_wins.push(w.name().to_string());
        }
        println!(
            "{:<16}{:>16}{:>16}{:>20}{:>20}",
            w.name(),
            regs[0],
            regs[1],
            regs[2],
            regs[3]
        );
    }

    // The bespoke stress kernel: un-factored flat-index spellings the
    // rewrites are built for.
    let dev = DeviceConfig::k20xm();
    let (regs_g, cyc_g) = stress_regs(&fig7[1], &dev);
    let (regs_s, cyc_s) = stress_regs(&fig7[2], &dev);
    println!(
        "\negstress (hand-duplicated offset spellings): greedy {regs_g} regs, \
         saturated {regs_s} regs, {:.3}x cycles",
        cyc_g / cyc_s
    );
    if regs_s < regs_g {
        strict_wins.push("egstress".to_string());
    }

    println!(
        "\nkernels where saturation strictly lowers regs_used below greedy SAFARA: {}",
        if strict_wins.is_empty() { "-".to_string() } else { strict_wins.join(", ") }
    );
    println!(
        "geomean check: saturated >= greedy in both families: fig7 {} ({s7:.3} vs {g7:.3}), \
         fig9 {} ({s9:.3} vs {g9:.3})",
        s7 >= g7,
        s9 >= g9
    );
    assert!(s7 >= g7 && s9 >= g9, "the ptxas guard must prevent geomean regressions");
    assert!(
        !strict_wins.is_empty(),
        "at least one kernel must show a strict register win from saturation"
    );
}
