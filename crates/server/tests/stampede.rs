//! Differential stampede test: the cache-stampede fix, end to end.
//!
//! The bug this pins down: the launch memo cache only helps *after* a
//! simulation completes, so N concurrent identical requests all missed
//! and each ran the full compile+simulate pipeline. With single-flight
//! dedup, a 32-request stampede must collapse to exactly one pipeline
//! execution — one cache insert, one compiled program — with the other
//! 31 counted `coalesced`, and every response must be bitwise equal to
//! what a cold single-threaded server produces (v1 and v2 shapes; v1
//! stays byte-stable per `tests/v1_compat.rs`). Errors stampede too:
//! a failing leader fans its typed error out to every waiter.

use safara_server::json::Json;
use safara_server::protocol::{parse_request, RunRequestLine};
use safara_server::service::{Engine, EngineConfig};
use safara_server::Submit;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SCALE: &str = r#"
void scale(int n, float alpha, float x[n]) {
  #pragma acc kernels copy(x)
  {
    #pragma acc loop gang vector
    for (int i = 0; i < n; i++) { x[i] = x[i] * alpha + 1.0f; }
  }
}"#;

fn scale_args() -> safara_core::Args {
    safara_core::Args::new()
        .i32("n", 64)
        .f32("alpha", 1.5)
        .array_f32("x", &(0..64).map(|i| i as f32 * 0.25).collect::<Vec<_>>())
}

fn submit(engine: &Engine, line: &str, tx: &mpsc::Sender<String>) {
    match engine.submit(parse_request(line).unwrap(), tx.clone()) {
        Submit::Queued => {}
        Submit::Rejected { response, .. } => panic!("rejected: {response}"),
    }
}

/// The reference: one request against a cold single-worker engine.
fn cold_reference(line: &str) -> String {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_depth: 4,
        ..EngineConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    submit(&engine, line, &tx);
    let response = rx.recv_timeout(Duration::from_secs(30)).expect("cold run answers");
    engine.shutdown();
    response
}

/// Stampede `line` 32× (one leader + 31 parked duplicates) against a
/// single-worker engine held busy, so every duplicate deterministically
/// arrives while the leader is in flight.
fn stampede(line: &str) -> (Vec<String>, Arc<safara_server::service::EngineShared>) {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_depth: 64,
        ..EngineConfig::default()
    });
    let (hold_tx, hold_rx) = mpsc::channel();
    submit(&engine, r#"{"id":0,"op":"sleep","ms":300}"#, &hold_tx);
    std::thread::sleep(Duration::from_millis(100)); // worker now asleep
    let channels: Vec<(mpsc::Sender<String>, mpsc::Receiver<String>)> =
        (0..32).map(|_| mpsc::channel()).collect();
    for (tx, _) in &channels {
        submit(&engine, line, tx);
    }
    assert_eq!(
        Json::parse(&hold_rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok"),
        "the hold sleep finished"
    );
    let responses = channels
        .iter()
        .map(|(_, rx)| rx.recv_timeout(Duration::from_secs(30)).expect("fan-out delivers"))
        .collect();
    let shared = Arc::clone(engine.shared());
    engine.shutdown();
    (responses, shared)
}

#[test]
fn a_32_request_stampede_runs_the_pipeline_once_and_fans_out_bitwise() {
    for v in [1u8, 2u8] {
        let args = scale_args();
        let line =
            RunRequestLine { v, ..RunRequestLine::new(7, SCALE, "scale", "base", &args, true) }
                .render();
        let want = cold_reference(&line);
        assert!(want.contains(r#""status":"ok""#), "v{v} reference: {want}");
        let (responses, shared) = stampede(&line);
        for (i, got) in responses.iter().enumerate() {
            assert_eq!(
                got, &want,
                "v{v} response {i} must be bitwise equal to the cold single-threaded run"
            );
        }
        let n = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(n(&shared.coalesced), 31, "v{v}: one leader, 31 parked");
        assert_eq!(shared.cache.misses(), 1, "v{v}: exactly one cache insert");
        assert_eq!(shared.cache.hits(), 0, "v{v}: no duplicate reached the cache");
        assert_eq!(shared.cache.len(), 1, "v{v}: one entry");
        assert_eq!(shared.programs_cached(), 1, "v{v}: one compile");
        assert_eq!(n(&shared.completed), 2, "v{v}: the hold sleep + the leader");
        assert_eq!(n(&shared.replies_dropped), 0, "v{v}");
        // The accounting invariant, exactly.
        assert_eq!(n(&shared.submitted), shared.accounted(), "v{v} accounting");
    }
}

#[test]
fn an_error_stampede_fans_the_leaders_typed_failure_to_every_waiter() {
    // A kernel that fails *simulation-side* would need fault injection;
    // a compile failure is the plain deterministic path: the leader's
    // typed `CompileError` must propagate to all 31 waiters.
    let args = scale_args();
    let line = RunRequestLine {
        v: 2,
        ..RunRequestLine::new(9, "void broken(", "broken", "base", &args, false)
    }
    .render();
    let want = cold_reference(&line);
    assert!(want.contains(r#""status":"error""#), "reference fails: {want}");
    let (responses, shared) = stampede(&line);
    for (i, got) in responses.iter().enumerate() {
        assert_eq!(got, &want, "waiter {i} gets the leader's typed error bitwise");
    }
    let code = Json::parse(&responses[0])
        .unwrap()
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_string);
    assert_eq!(code.as_deref(), Some("parse"));
    assert_eq!(shared.coalesced.load(Ordering::Relaxed), 31);
    assert_eq!(shared.errors.load(Ordering::Relaxed), 1, "one leader error, no waiter errors");
    assert_eq!(shared.errors_by_code.get("parse"), 1);
}
