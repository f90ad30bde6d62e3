//! What a run prints and stores: the human-readable report, the result
//! record (one JSON line per run, appended to `--out`), and the last
//! line of standard output that the driver reads.

use crate::measure::{Outcome, RunOpts};
use crate::spec::{self, Better, CLIENTS, SCHEMA};
use crate::stats::quiet;
use safara_core::gpusim::{current_engine, current_sim_threads};
use safara_server::json::{obj, Json};
use safara_server::EngineConfig;
use std::process::Command;

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(prefix))?;
    Some(
        line.split_once(':')
            .map_or(line, |(_, v)| v)
            .trim()
            .to_string(),
    )
}

/// `nproc`, CPU model and kernel of the machine the numbers come from.
pub fn machine() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    obj(vec![
        ("nproc", Json::Int(nproc as i64)),
        ("cpu", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
    ])
}

/// The commit of the tree under test; `unknown` outside a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// How load was generated and how the server under test was set.
fn load_config() -> Json {
    let defaults = EngineConfig::default();
    obj(vec![
        ("clients", Json::Int(CLIENTS as i64)),
        ("workers", Json::Int(CLIENTS as i64)),
        ("engine", Json::Str(current_engine().name().into())),
        ("sim_threads", Json::Int(current_sim_threads() as i64)),
        ("coalesce", Json::Bool(defaults.coalesce)),
        ("max_batch", Json::Int(defaults.max_batch as i64)),
    ])
}

/// Unit, direction and (end-to-end only) bound of a reported metric.
fn describe(name: &str) -> (&'static str, Better, Option<f64>) {
    match (spec::end_to_end(name), spec::per_layer(name)) {
        (Some(m), _) => (m.unit, m.better, Some(m.bound)),
        (None, Some(m)) => (m.unit, m.better, None),
        (None, None) => panic!("metric {name} is not named in spec.rs"),
    }
}

/// The metrics object: `value` and `unit`, and in a record also what
/// `compare` needs to judge the metric.
fn metrics_json(o: &Outcome, for_record: bool) -> Json {
    let one = |&(name, value): &(&str, f64)| {
        let (unit, better, bound) = describe(name);
        let mut fields = vec![
            ("value", Json::Float(value)),
            ("unit", Json::Str(unit.into())),
        ];
        if for_record {
            fields.push(("better", Json::Str(better.name().into())));
            fields.extend(bound.map(|b| ("bound", Json::Float(b))));
        }
        (name.to_string(), obj(fields))
    };
    Json::Obj(o.metrics.iter().map(one).collect())
}

/// `correct`, `attempted`, `failed` and `metrics`, in that order.
fn verdict_fields(o: &Outcome, for_record: bool) -> Vec<(&'static str, Json)> {
    vec![
        ("correct", Json::Bool(o.verdict.failed == 0)),
        ("attempted", Json::Int(o.verdict.attempted as i64)),
        ("failed", Json::Int(o.verdict.failed as i64)),
        ("metrics", metrics_json(o, for_record)),
    ]
}

/// The record of one run: everything needed to compare it later.
pub fn record(o: &Outcome, opts: &RunOpts) -> Json {
    let cells = o
        .cells
        .iter()
        .map(|(label, ms)| {
            obj(vec![
                ("cell", Json::Str(label.clone())),
                ("ms", Json::Float(*ms)),
            ])
        })
        .collect();
    let floats = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Float(*x)).collect());
    let mut fields = vec![
        ("schema", Json::Int(SCHEMA)),
        ("workload", Json::Str(o.workload.into())),
        ("seed", Json::Str(opts.seed.to_string())),
        ("seconds", Json::Float(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("quick", Json::Bool(opts.quick)),
        ("commit", Json::Str(commit())),
        ("machine", machine()),
        ("load", load_config()),
        ("passes", Json::Int(o.passes as i64)),
        ("samples", Json::Int(o.samples as i64)),
        ("setup_runs_s", floats(&o.setup_runs_s)),
    ];
    fields.extend(verdict_fields(o, true));
    fields.push(("cells", Json::Arr(cells)));
    fields.push(("pass_ms", floats(&o.pass_ms)));
    obj(fields)
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its value and unit.
pub fn final_line(o: &Outcome) -> String {
    obj(verdict_fields(o, false)).dump()
}

/// The human-readable report of one run.
pub fn print(o: &Outcome, opts: &RunOpts) {
    let kind = match (opts.trace, opts.quick) {
        (true, _) => "traced run, per-layer metrics",
        (false, true) => "quick run, end-to-end metrics",
        (false, false) => "end-to-end metrics",
    };
    println!("== {} (seed {}, {kind}) ==", o.workload, opts.seed);
    println!("machine {}  commit {}", machine().dump(), commit());
    println!("load {}", load_config().dump());
    println!(
        "{} passes, {} samples; set-up {:.3} s (first decile of {:?})",
        o.passes,
        o.samples,
        quiet(&o.setup_runs_s),
        o.setup_runs_s
    );
    for &(name, value) in &o.metrics {
        println!("  {name:<34} {value:>16.4} {}", describe(name).0);
    }
    println!(
        "  {:<34} {:>16.4} ratio ({} failed of {} attempted)",
        "fail_share",
        o.verdict.failed as f64 / o.verdict.attempted.max(1) as f64,
        o.verdict.failed,
        o.verdict.attempted
    );
    if !opts.trace {
        println!("  per cell, ms:");
        for (label, ms) in &o.cells {
            println!("    {label:<36} {ms:>12.4}");
        }
    }
    for note in &o.notes {
        println!("  {note}");
    }
    for e in &o.verdict.errors {
        println!("  FAILED: {e}");
    }
}
