//! Chaos acceptance tests: the robustness layer under seeded fault
//! injection, end to end.
//!
//! Three setups:
//!
//! 1. a seed sweep (0..30) driving an in-process [`Engine`] through a
//!    probabilistic fault plan — parse failures, simulator faults,
//!    injected delays and bounded hangs, worker panics, dropped
//!    replies — asserting, for **every** seed,
//!    that nothing deadlocks, the accounting invariant `submitted ==
//!    completed + errors + timed_out + timed_out_late + shed + coalesced`
//!    holds exactly, and every `ok` response is byte-identical to the
//!    same request against a fault-free server;
//! 2. 4 TCP connections × 50 requests each against a faulty server,
//!    every failure resent through the typed `retryable` contract until
//!    it succeeds — proving retry-to-success and bit-exact results
//!    under concurrency;
//! 3. pipelining: on one connection a fast request is answered before
//!    a slow one sent ahead of it.
//!
//! The wire tests speak to the server over a plain [`TcpStream`].

use safara_core::chaos::{FaultAction, FaultPlan, Fire, InjectionPoint};
use safara_core::Args;
use safara_server::json::Json;
use safara_server::protocol::{parse_request, RunRequestLine};
use safara_server::service::{Engine, EngineConfig};
use safara_server::Submit;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const SCALE: &str = r#"
void scale(int n, float alpha, float x[n]) {
  #pragma acc kernels copy(x)
  {
    #pragma acc loop gang vector
    for (int i = 0; i < n; i++) { x[i] = x[i] * alpha + 1.0f; }
  }
}"#;

const SUMSQ: &str = r#"
void sumsq(int n, const float x[n], float s) {
  #pragma acc kernels copyin(x)
  {
    #pragma acc loop gang vector reduction(+:s)
    for (int i = 0; i < n; i++) { s += x[i] * x[i]; }
  }
}"#;

struct Combo {
    source: &'static str,
    entry: &'static str,
    profile: &'static str,
    args: Args,
}

fn combos() -> Vec<Combo> {
    vec![
        Combo {
            source: SCALE,
            entry: "scale",
            profile: "base",
            args: Args::new().i32("n", 32).f32("alpha", 1.5).array_f32(
                "x",
                &(0..32).map(|i| i as f32 * 0.25).collect::<Vec<_>>(),
            ),
        },
        Combo {
            source: SCALE,
            entry: "scale",
            profile: "safara_only",
            args: Args::new().i32("n", 32).f32("alpha", -0.5).array_f32(
                "x",
                &(0..32).map(|i| (i as f32 * 0.4).sin()).collect::<Vec<_>>(),
            ),
        },
        Combo {
            source: SUMSQ,
            entry: "sumsq",
            profile: "safara_clauses",
            args: Args::new().i32("n", 48).f32("s", 0.0).array_f32(
                "x",
                &(0..48).map(|i| (i as f32 * 0.125).cos()).collect::<Vec<_>>(),
            ),
        },
    ]
}

/// The per-seed request schedule: the same ids and lines are replayed
/// against a fault-free engine to obtain the expected responses.
fn schedule(combos: &[Combo]) -> Vec<(i64, String)> {
    let mut lines = Vec::new();
    let mut id = 0i64;
    for round in 0..10 {
        for c in combos {
            id += 1;
            let line = RunRequestLine {
                v: 2,
                ..RunRequestLine::new(id, c.source, c.entry, c.profile, &c.args, round % 2 == 0)
            };
            lines.push((id, line.render()));
        }
        id += 1;
        lines.push((id, format!(r#"{{"id":{id},"v":2,"op":"ping"}}"#)));
    }
    lines
}

/// Run the schedule through an engine; `Ok` entries are response
/// lines, `Err(())` marks a reply the server dropped (injected client
/// hangup). A response not arriving within 10 s is a deadlock — fail.
fn drive(engine: &Engine, lines: &[(i64, String)]) -> Vec<Result<String, ()>> {
    let mut rxs = Vec::new();
    for (id, line) in lines {
        let (tx, rx) = mpsc::channel();
        match engine.submit(parse_request(line).unwrap(), tx) {
            Submit::Queued => rxs.push((*id, Err(()), Some(rx))),
            Submit::Rejected { response, .. } => rxs.push((*id, Ok(response), None)),
        }
    }
    rxs.into_iter()
        .map(|(id, immediate, rx)| match rx {
            None => immediate,
            Some(rx) => match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(line) => Ok(line),
                // The sender is held by the engine until the reply is
                // written or dropped; a disconnect IS the drop. A raw
                // timeout with the sender still alive would be a hang.
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(()),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    panic!("request {id} hung: no reply and no hangup within 10s")
                }
            },
        })
        .collect()
}

fn assert_accounting(shared: &safara_server::service::EngineShared) {
    let submitted = shared.submitted.load(Ordering::Relaxed);
    assert_eq!(submitted, shared.accounted(), "accounting invariant");
}

#[test]
fn seed_sweep_keeps_accounting_exact_and_ok_responses_bit_identical() {
    let combos = combos();
    let lines = schedule(&combos);

    // The expected responses: the identical schedule against a
    // fault-free engine. Everything must succeed there.
    let reference = Engine::start(EngineConfig {
        workers: 2,
        queue_depth: 64,
        ..EngineConfig::default()
    });
    let expected: HashMap<i64, String> = lines
        .iter()
        .map(|(id, _)| *id)
        .zip(drive(&reference, &lines))
        .map(|(id, r)| (id, r.expect("fault-free run drops nothing")))
        .collect();
    for line in expected.values() {
        assert!(line.contains(r#""status":"ok""#), "fault-free run all ok: {line}");
    }
    reference.shutdown();

    for seed in 0..31u64 {
        // Register-allocator faults are deliberately absent: a forced
        // spill legitimately changes the winning allocation, so `ok`
        // responses would no longer be byte-comparable. Those points
        // are covered by the core pipeline tests instead.
        let plan = FaultPlan::seeded(seed)
            .with_max_delay_ms(25)
            .with(InjectionPoint::Parse, FaultAction::Fail, Fire::Prob(0.04))
            .with(InjectionPoint::Sim, FaultAction::Fail, Fire::Prob(0.10))
            .with(InjectionPoint::Sim, FaultAction::Delay { ms: 15 }, Fire::Prob(0.08))
            .with(InjectionPoint::Sim, FaultAction::Hang, Fire::Prob(0.02))
            .with(InjectionPoint::WorkerJob, FaultAction::Panic, Fire::Prob(0.04))
            .with(InjectionPoint::Reply, FaultAction::Hangup, Fire::Prob(0.04));
        let engine = Engine::start(EngineConfig {
            workers: 3,
            queue_depth: 64,
            fault_plan: Arc::new(plan),
            ..EngineConfig::default()
        });
        let outcomes = drive(&engine, &lines);

        let mut dropped = 0u64;
        let mut ok = 0u64;
        for ((id, _), outcome) in lines.iter().zip(&outcomes) {
            match outcome {
                Err(()) => dropped += 1,
                Ok(line) if line.contains(r#""status":"ok""#) => {
                    ok += 1;
                    assert_eq!(line, &expected[id], "seed {seed} id {id}: ok response drifted");
                }
                Ok(line) => {
                    // Failures must be v2-structured with a known code.
                    let v = Json::parse(line).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
                    let code = v
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("seed {seed} untyped failure: {line}"));
                    assert!(
                        safara_server::service::ERROR_CODES.contains(&code)
                            || code == "timeout"
                            || code == "shutting_down",
                        "seed {seed} unknown code {code}"
                    );
                }
            }
        }
        let shared = Arc::clone(engine.shared());
        // Joining the (possibly respawned) pool proves no worker hung.
        engine.shutdown();
        assert_accounting(&shared);
        assert_eq!(
            shared.replies_dropped.load(Ordering::Relaxed),
            dropped,
            "seed {seed}: every missing reply is an accounted hangup"
        );
        assert_eq!(
            shared.worker_panics.load(Ordering::Relaxed),
            shared.worker_respawns.load(Ordering::Relaxed),
            "seed {seed}: every panic respawned a worker"
        );
        assert!(ok > 0, "seed {seed}: the plan must not starve the engine entirely");
    }
}

/// One plain TCP connection to the server. Replies are routed by `id`:
/// one that arrives while another is awaited is kept until asked for.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    early: HashMap<i64, Json>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        Conn { writer, reader: BufReader::new(stream), early: HashMap::new() }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("write");
    }

    /// The reply to request `id`; replies to other ids wait in `early`.
    fn recv(&mut self, id: i64) -> Json {
        while !self.early.contains_key(&id) {
            let mut line = String::new();
            assert!(self.reader.read_line(&mut line).expect("read") > 0, "server closed");
            let v = Json::parse(line.trim()).expect("reply parses");
            self.early.insert(v.get("id").and_then(Json::as_i64).expect("id echoed"), v);
        }
        self.early.remove(&id).expect("routed")
    }

    /// Send `line` (request `id`), and resend it unchanged `pause` apart
    /// while the reply says `"retryable":true`, `attempts` times at most.
    fn call_retrying(&mut self, id: i64, line: &str, attempts: u32, pause: Duration) -> Json {
        let mut attempt = 1;
        loop {
            self.send(line);
            let v = self.recv(id);
            let retryable = error_field(&v, "retryable").and_then(Json::as_bool) == Some(true);
            if !retryable || attempt == attempts {
                return v;
            }
            attempt += 1;
            std::thread::sleep(pause);
        }
    }
}

fn status(v: &Json) -> Option<&str> {
    v.get("status").and_then(Json::as_str)
}

fn error_field<'a>(v: &'a Json, field: &str) -> Option<&'a Json> {
    v.get("error").and_then(|e| e.get(field))
}

#[test]
fn four_clients_fifty_requests_each_retry_every_fault_to_success() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 50;
    let combos = combos();

    // Expected digests straight from the core pipeline, no server.
    let dev = safara_core::gpusim::device::DeviceConfig::k20xm();
    let reference: Vec<HashMap<String, String>> = combos
        .iter()
        .map(|c| {
            let config =
                safara_server::protocol::resolve_profile(c.profile).expect("known profile");
            let program = safara_core::compile(c.source, &config).expect("compiles");
            let mut args = c.args.clone();
            safara_core::run_compiled(&program, c.entry, &mut args, &dev, None).expect("runs");
            args.arrays
                .iter()
                .map(|(k, a)| (k.to_string(), safara_server::protocol::digest(a)))
                .collect()
        })
        .collect();

    let plan = FaultPlan::seeded(11)
        .with(InjectionPoint::Sim, FaultAction::Fail, Fire::Prob(0.15))
        .with(InjectionPoint::WorkerJob, FaultAction::Panic, Fire::Prob(0.04));
    let handle = safara_server::serve(
        "127.0.0.1:0",
        EngineConfig {
            workers: 3,
            queue_depth: 256,
            fault_plan: Arc::new(plan),
            ..EngineConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = handle.addr;

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let combos = &combos;
                let reference = &reference;
                s.spawn(move || {
                    let mut conn = Conn::open(addr);
                    for i in 0..PER_CLIENT {
                        let idx = (t + i) % combos.len();
                        let c = &combos[idx];
                        let id = (t * 1000 + i) as i64;
                        let line = RunRequestLine {
                            v: 2,
                            ..RunRequestLine::new(id, c.source, c.entry, c.profile, &c.args, false)
                        };
                        let v =
                            conn.call_retrying(id, &line.render(), 25, Duration::from_millis(2));
                        assert_eq!(status(&v), Some("ok"), "client {t} req {i}: gave up on {v}");
                        let digests = v.get("digests").expect("run response digests");
                        for (name, want) in &reference[idx] {
                            assert_eq!(
                                digests.get(name.as_str()).and_then(Json::as_str),
                                Some(want.as_str()),
                                "client {t} req {i} array `{name}`"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let mut conn = Conn::open(addr);
    conn.send(r#"{"id":9000,"v":2,"op":"stats"}"#);
    let stats = conn.recv(9000);
    let server = stats.get("server").expect("server section");
    let counter = |name: &str| server.get(name).and_then(Json::as_i64).expect(name);
    assert_eq!(
        counter("submitted"),
        counter("completed")
            + counter("errors")
            + counter("timed_out")
            + counter("timed_out_late")
            + counter("shed")
            + counter("coalesced"),
        "{server}"
    );
    // Retries inflate `submitted` past the 200 user-level requests by
    // exactly the number of injected failures.
    assert!(counter("errors") > 0, "the seeded plan fired: {server}");
    // Every user-level request eventually succeeded, each as either a
    // single-flight leader (counted `completed`) or a coalesced waiter
    // that received a leader's `ok`. Waiters that received a leader's
    // *error* retried, so `coalesced` can exceed its ok subset — hence
    // bounds, not equality (stats is answered inline, outside both).
    let wanted = (CLIENTS * PER_CLIENT) as i64;
    assert!(
        counter("completed") <= wanted && counter("completed") + counter("coalesced") >= wanted,
        "{server}"
    );
    assert_eq!(counter("worker_panics"), counter("worker_respawns"), "{server}");
    let by_code = stats.get("errors_by_code").expect("errors_by_code section");
    assert!(by_code.get("sim").and_then(Json::as_i64).unwrap_or(0) > 0, "{by_code}");
    drop(conn);
    handle.stop();
}

#[test]
fn pipelined_requests_resolve_out_of_submission_order() {
    let handle =
        safara_server::serve("127.0.0.1:0", EngineConfig { workers: 2, ..EngineConfig::default() })
            .expect("bind ephemeral port");
    let mut conn = Conn::open(handle.addr);
    // A slow request first, a fast one second on the same connection:
    // the fast reply must not wait for the slow one.
    conn.send(r#"{"id":1,"v":2,"op":"sleep","ms":200}"#);
    conn.send(r#"{"id":2,"v":2,"op":"ping"}"#);
    let t0 = Instant::now();
    assert_eq!(status(&conn.recv(2)), Some("ok"));
    assert!(t0.elapsed() < Duration::from_millis(150), "fast reply waited on slow");
    assert!(conn.early.is_empty(), "the ping is answered first: {:?}", conn.early);
    assert_eq!(status(&conn.recv(1)), Some("ok"));
    drop(conn);
    handle.stop();
}
