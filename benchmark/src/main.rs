//! Command line of the benchmark.
//!
//! ```text
//! safara-benchmark run --workload <name|all> --seed <u64>
//!                      [--seconds <n>] [--trace <0|1>] [--quick] [--out <file>]
//! safara-benchmark compare <a.json> <b.json>
//! ```

use safara_benchmark::measure::RunOpts;
use safara_benchmark::{compare, report, run_workload, spec};
use std::io::Write as _;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: safara-benchmark run --workload <name|all> --seed <u64> \
[--seconds <n>] [--trace <0|1>] [--quick] [--out <file>]\n       \
safara-benchmark compare <a.json> <b.json>";

struct RunArgs {
    workload: String,
    opts: RunOpts,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut out = None;
    let mut opts = RunOpts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--quick" => opts.quick = true,
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        opts,
        out,
    })
}

/// Run one workload in this process: report, record, last line.
fn run_one(args: &RunArgs) -> Result<bool, String> {
    let outcome = run_workload(&args.workload, &args.opts)?;
    report::print(&outcome, &args.opts);
    if let Some(path) = &args.out {
        let line = report::record(&outcome, &args.opts).dump() + "\n";
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report::final_line(&outcome));
    Ok(outcome.verdict.failed == 0)
}

/// `--workload all`: each workload in a process of its own, so that
/// `peak_rss_mb` and allocator state belong to one workload.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for name in spec::workload_names() {
        let mut forwarded = args.to_vec();
        let value = forwarded
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed before")
            + 1;
        forwarded[value] = name.to_string();
        let status = Command::new(&exe)
            .arg("run")
            .args(forwarded)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::load(&text).map_err(|e| format!("{path}: {e}")))
    };
    let worse = compare::compare(&load(a)?, &load(b)?);
    if worse > 0 {
        println!("{worse} end-to-end metric(s) worse than the bound allows");
    }
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|parsed| {
            if parsed.workload == "all" {
                run_all(rest)
            } else {
                run_one(&parsed)
            }
        }),
        Some((cmd, [a, b])) if cmd == "compare" => compare_files(a, b),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("safara-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
