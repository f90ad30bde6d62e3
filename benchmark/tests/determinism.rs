//! The seed decides the order of operations and nothing else: request
//! bytes and every exact counter are the same for any seed.

use safara_benchmark::serve::Inputs;
use safara_benchmark::spec::PER_LAYER;
use safara_core::SplitMix64;
use safara_server::json::Json;
use std::process::Command;

#[test]
fn same_seed_same_order_and_the_request_bytes_never_change() {
    let (a, b) = (Inputs::build().unwrap(), Inputs::build().unwrap());
    assert_eq!(
        a.lines, b.lines,
        "request lines do not depend on when they were built"
    );
    assert!(a
        .lines
        .iter()
        .all(|l| l.ends_with(b"\n") && l.iter().filter(|&&c| c == b'\n').count() == 1));

    let orders = |seed| a.orders(&mut SplitMix64::new(seed));
    assert_eq!(orders(1), orders(1));
    assert_ne!(orders(1), orders(2));
    // Each connection keeps to its own profile, whatever the seed.
    for (k, order) in orders(2).iter().enumerate() {
        assert_eq!(order.len(), a.lines.len() / 2);
        assert!(order.iter().all(|cell| cell % 2 == k));
    }
}

/// The exact per-layer metrics of a quick traced run of the command
/// itself, in a process of its own: the superblock engine keeps fused
/// programs for the life of a process, so a second run in this process
/// would fuse nothing.
fn exact_metrics(workload: &str, seed: &str) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_safara-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            seed,
            "--trace",
            "1",
            "--quick",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = Json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(last.get("failed").and_then(Json::as_i64), Some(0));
    let metrics = last.get("metrics").and_then(Json::as_obj).unwrap();
    PER_LAYER
        .iter()
        .filter(|m| m.exact)
        .map(|m| {
            let value = metrics
                .iter()
                .find(|(k, _)| k == m.name)
                .and_then(|(_, v)| v.get("value"));
            (m.name.to_string(), value.and_then(Json::as_f64).unwrap())
        })
        .collect()
}

#[test]
fn exact_counters_repeat_across_runs_and_seeds() {
    for workload in ["compile_heavy", "suite_cold"] {
        let first = exact_metrics(workload, "1");
        assert_eq!(first, exact_metrics(workload, "1"), "{workload}: same seed");
        assert_eq!(
            first,
            exact_metrics(workload, "2"),
            "{workload}: another seed"
        );
        assert!(
            first.iter().any(|(_, v)| *v > 0.0),
            "{workload} exercises some exact counter"
        );
    }
}
