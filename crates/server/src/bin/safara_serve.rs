//! `safara-serve` — front the compile-and-simulate engine over TCP or
//! stdin/stdout.
//!
//! ```text
//! safara-serve [--listen ADDR] [--stdin] [--workers N]
//!              [--queue-depth N] [--timeout-ms N]
//!              [--no-coalesce] [--max-batch N]
//!              [--fault POINT:ACTION[:COUNT][:MS]] [--fault-seed N]
//! ```
//!
//! TCP mode (default) prints the bound address (useful with port 0)
//! and serves until a client sends `{"op":"shutdown"}`. Stdin mode
//! reads one request per line, answers on stdout in *submission*
//! order, and exits at EOF — handy for smoke tests. Either way a line
//! gets the same reply bytes, a malformed one included:
//!
//! ```text
//! echo '{"id":1,"op":"ping"}' | safara-serve --stdin
//! ```
//!
//! `--no-coalesce` disables single-flight dedup (every duplicate runs
//! the pipeline — what a client that resends only after seeing an error
//! gets, and what a resent line needs over stdin, which submits every
//! line up front); `--max-batch` caps how many same-program jobs a
//! worker drains per dequeue (1 disables it).
//!
//! `--fault` (repeatable) installs a deterministic fault-injection
//! plan — e.g. `--fault sim:fail:1` fails the first simulation with a
//! retryable `sim` error, `--fault worker:panic:0.05` panics ~5% of
//! jobs (seeded by `--fault-seed`, so reruns fault identically). See
//! `safara_core::chaos::FaultSpec::parse` for the grammar.

use safara_core::chaos::{FaultPlan, FaultSpec};
use safara_server::protocol::{error_line, Op};
use safara_server::server::decode_line;
use safara_server::service::{Engine, EngineConfig, Submit};
use std::io::{BufRead, Write};
use std::sync::mpsc;

fn main() {
    let mut listen = "127.0.0.1:4860".to_string();
    let mut stdin_mode = false;
    let mut config = EngineConfig::default();
    let mut fault_specs: Vec<FaultSpec> = Vec::new();
    let mut fault_seed: u64 = 0;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--listen" => listen = argv.next().unwrap_or_else(|| die("--listen needs ADDR")),
            "--stdin" => stdin_mode = true,
            "--workers" => config.workers = num(argv.next(), "--workers").max(1),
            "--queue-depth" => config.queue_depth = num(argv.next(), "--queue-depth").max(1),
            "--timeout-ms" => config.default_timeout_ms = num(argv.next(), "--timeout-ms") as u64,
            "--no-coalesce" => config.coalesce = false,
            "--max-batch" => config.max_batch = num(argv.next(), "--max-batch").max(1),
            "--fault" => {
                let spec =
                    argv.next().unwrap_or_else(|| die("--fault needs POINT:ACTION[:COUNT][:MS]"));
                fault_specs
                    .push(FaultSpec::parse(&spec).unwrap_or_else(|e| die(&format!("--fault: {e}"))));
            }
            "--fault-seed" => fault_seed = num(argv.next(), "--fault-seed") as u64,
            "--help" | "-h" => {
                println!(
                    "usage: safara-serve [--listen ADDR] [--stdin] [--workers N] \
                     [--queue-depth N] [--timeout-ms N] \
                     [--no-coalesce] [--max-batch N] \
                     [--fault POINT:ACTION[:COUNT][:MS]]... [--fault-seed N]"
                );
                return;
            }
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    if !fault_specs.is_empty() {
        let mut plan = FaultPlan::seeded(fault_seed);
        for spec in fault_specs {
            plan = plan.with_spec(spec);
        }
        config.fault_plan = std::sync::Arc::new(plan);
    }

    if stdin_mode {
        run_stdin(config);
    } else {
        run_tcp(&listen, config);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("safara-serve: {msg}");
    std::process::exit(2);
}

fn num(v: Option<String>, name: &str) -> usize {
    v.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die(&format!("{name} needs a positive integer")))
}

fn run_tcp(listen: &str, config: EngineConfig) {
    let handle = safara_server::serve(listen, config)
        .unwrap_or_else(|e| die(&format!("cannot bind {listen}: {e}")));
    println!("listening on {}", handle.addr);
    handle.join();
}

/// Batch mode: submit every line, retrying `overloaded` rejections
/// (stdin has no other backpressure channel), then print responses in
/// submission order.
fn run_stdin(config: EngineConfig) {
    let engine = Engine::start(config);
    let stdin = std::io::stdin();
    let mut pending: Vec<mpsc::Receiver<String>> = Vec::new();
    let mut immediate: Vec<(usize, String)> = Vec::new();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (tx, rx) = mpsc::channel();
        match decode_line(line) {
            Err(reply) => immediate.push((pending.len(), reply)),
            Ok(req) if matches!(req.op, Op::Stats) => {
                immediate.push((pending.len(), engine.stats_line(req.id)));
            }
            Ok(mut req) => loop {
                match engine.submit(req, tx.clone()) {
                    Submit::Queued => {
                        pending.push(rx);
                        break;
                    }
                    Submit::Rejected { request, response } => {
                        let shutting_down = response.contains("shutting_down");
                        if shutting_down {
                            immediate.push((pending.len(), response));
                            break;
                        }
                        req = *request;
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                }
            },
        }
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut extra = immediate.into_iter().peekable();
    for (i, rx) in pending.into_iter().enumerate() {
        while extra.peek().is_some_and(|(at, _)| *at == i) {
            let (_, line) = extra.next().expect("peeked");
            let _ = writeln!(out, "{line}");
        }
        let line = rx.recv().unwrap_or_else(|_| error_line(None, "worker dropped the request"));
        let _ = writeln!(out, "{line}");
    }
    for (_, line) in extra {
        let _ = writeln!(out, "{line}");
    }
    let _ = out.flush();
    engine.shutdown();
}
