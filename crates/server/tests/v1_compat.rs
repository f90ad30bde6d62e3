//! Protocol-compat acceptance: requests without `"v"` (or with
//! `"v":1`) keep the exact legacy response shapes — `message` strings
//! on `error`, bare status lines for `timeout`/`overloaded`, no
//! `error` objects, no `v` field — while `"v":2` on the same engine
//! opts into structured errors. Existing v1 clients must never notice
//! this server learned a second dialect.

use safara_server::json::Json;
use safara_server::protocol::{build_run_request, parse_request, RunRequestLine};
use safara_server::service::{Engine, EngineConfig};
use safara_server::Submit;
use std::sync::mpsc;
use std::time::Duration;

fn submit(engine: &Engine, line: &str) -> String {
    let (tx, rx) = mpsc::channel();
    match engine.submit(parse_request(line).expect("request parses"), tx) {
        Submit::Queued => rx.recv_timeout(Duration::from_secs(10)).expect("reply"),
        Submit::Rejected { response, .. } => response,
    }
}

#[test]
fn v1_failures_keep_the_legacy_message_shape() {
    let engine = Engine::start(EngineConfig { workers: 1, queue_depth: 8, ..EngineConfig::default() });

    let v1 = submit(&engine, r#"{"id":1,"op":"compile","source":"void f(","profile":"base"}"#);
    let parsed = Json::parse(&v1).expect("parses");
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("error"));
    assert!(parsed.get("message").and_then(Json::as_str).is_some(), "legacy message: {v1}");
    assert!(parsed.get("error").is_none(), "no structured object in v1: {v1}");
    assert!(parsed.get("v").is_none(), "no version echo in v1: {v1}");

    // The identical request, explicit `"v":1`: byte-identical reply.
    let explicit =
        submit(&engine, r#"{"id":1,"v":1,"op":"compile","source":"void f(","profile":"base"}"#);
    assert_eq!(v1, explicit);

    // And with `"v":2`: the same failure, structured.
    let v2 = submit(&engine, r#"{"id":1,"v":2,"op":"compile","source":"void f(","profile":"base"}"#);
    let parsed = Json::parse(&v2).expect("parses");
    assert_eq!(parsed.get("v").and_then(Json::as_i64), Some(2));
    assert!(parsed.get("message").is_none(), "v2 replaces the bare message: {v2}");
    let err = parsed.get("error").expect("structured error");
    assert_eq!(err.get("code").and_then(Json::as_str), Some("parse"));
    assert_eq!(err.get("retryable").and_then(Json::as_bool), Some(false));
    // Same human-readable text in both dialects.
    assert_eq!(
        err.get("message").and_then(Json::as_str),
        Json::parse(&v1).unwrap().get("message").and_then(Json::as_str).map(|s| s.to_string()).as_deref()
    );

    engine.shutdown();
}

#[test]
fn v1_timeout_and_overload_stay_bare_status_lines() {
    let engine = Engine::start(EngineConfig { workers: 1, queue_depth: 1, ..EngineConfig::default() });
    let (tx, rx) = mpsc::channel();

    // Occupy the worker, fill the queue, then overflow it (v1).
    let hold = parse_request(r#"{"id":1,"op":"sleep","ms":300}"#).unwrap();
    assert!(matches!(engine.submit(hold, tx.clone()), Submit::Queued));
    std::thread::sleep(Duration::from_millis(100));
    let fill = parse_request(r#"{"id":2,"op":"sleep","ms":0,"timeout_ms":50}"#).unwrap();
    assert!(matches!(engine.submit(fill, tx.clone()), Submit::Queued));
    let spill = parse_request(r#"{"id":3,"op":"ping"}"#).unwrap();
    let Submit::Rejected { response, .. } = engine.submit(spill, tx.clone()) else {
        panic!("queue of 1 with a held worker must reject");
    };
    assert_eq!(response, r#"{"id":3,"status":"overloaded"}"#, "legacy overload line");

    // Request 2 expires in the queue while the worker sleeps: the v1
    // timeout is a bare status line too. (Request 1's ok lands first —
    // the expiry is only noticed at dequeue.)
    let replies: Vec<String> =
        (0..2).map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("reply")).collect();
    assert!(replies.contains(&r#"{"id":1,"status":"ok"}"#.to_string()), "{replies:?}");
    assert!(
        replies.contains(&r#"{"id":2,"status":"timeout"}"#.to_string()),
        "legacy timeout line: {replies:?}"
    );

    engine.shutdown();
}

#[test]
fn ok_responses_are_identical_across_protocol_versions() {
    let engine = Engine::start(EngineConfig { workers: 1, queue_depth: 8, ..EngineConfig::default() });
    let args = safara_core::Args::new().i32("n", 8).f32("alpha", 2.0).array_f32(
        "x",
        &(0..8).map(|i| i as f32).collect::<Vec<_>>(),
    );
    let src = "void scale(int n, float alpha, float x[n]) {\
        #pragma acc kernels copy(x)\n{\
        #pragma acc loop gang vector\n\
        for (int i = 0; i < n; i++) { x[i] = x[i] * alpha; } } }";
    let v1 = submit(&engine, &build_run_request(7, src, "scale", "base", &args, true));
    let v2 = RunRequestLine { v: 2, ..RunRequestLine::new(7, src, "scale", "base", &args, true) };
    let v2 = submit(&engine, &v2.render());
    assert!(v1.contains(r#""status":"ok""#), "{v1}");
    assert_eq!(v1, v2, "success shapes are version-independent");
    engine.shutdown();
}
