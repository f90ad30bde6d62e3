//! Replay the fig7 SPEC suite through `safara-server` and validate
//! every response against the workloads' own `check` functions.
//!
//! Each pass sends every (workload, profile) pair as a `run` request
//! with `return_arrays: true`, rebuilds the post-run arguments from the
//! returned bit patterns, and runs the workload's validator on them —
//! so this exercises the full wire round-trip, not just status codes.
//! Two passes by default: the second must be served from the shared
//! launch cache (warm hits are printed from the server's `stats`).
//!
//! Usage:
//!
//! ```text
//! server_bench [--addr HOST:PORT] [--passes N] [--bench] [--zipf]
//! ```
//!
//! With no `--addr` an in-process server is started on an ephemeral
//! port. `--bench` uses `Scale::Bench` sizes (slow; default is the test
//! scale). `--zipf` instead runs the cache-stampede benchmark: a
//! 10 000-request open-loop burst over 64 distinct keys with
//! zipf-skewed popularity, once with single-flight coalescing on and
//! once with it off, reporting the p50/p95 latency of each.

use safara_core::runtime::{ArgValue, HostArray};
use safara_core::Args;
use safara_server::json::Json;
use safara_server::protocol::{build_run_request, parse_request};
use safara_server::service::{Engine, EngineConfig};
use safara_server::Submit;
use safara_workloads::{spec_suite, Scale};
use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn main() {
    let mut addr: Option<String> = None;
    let mut passes = 2usize;
    let mut scale = Scale::Test;
    let mut zipf = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => addr = Some(argv.next().expect("--addr needs HOST:PORT")),
            "--passes" => {
                passes = argv.next().and_then(|v| v.parse().ok()).expect("--passes needs N")
            }
            "--bench" => scale = Scale::Bench,
            "--zipf" => zipf = true,
            other => {
                eprintln!("server_bench: unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    if zipf {
        run_zipf();
        return;
    }

    // No address: run the server in-process on an ephemeral port.
    let own = match &addr {
        Some(_) => None,
        None => Some(
            safara_server::serve("127.0.0.1:0", EngineConfig::default())
                .expect("start in-process server"),
        ),
    };
    let addr = addr.unwrap_or_else(|| own.as_ref().expect("own server").addr.to_string());
    eprintln!("replaying fig7 suite against {addr} ({passes} passes)");

    let suite = spec_suite();
    let profiles = ["base", "safara_only"];
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut next_id = 1i64;
    // One write per request: the line and its `\n` leave together.
    let mut send = |mut line: String| {
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("send");
    };
    let mut recv_line = String::new();
    let mut recv = move |reader: &mut BufReader<TcpStream>| -> Json {
        recv_line.clear();
        let n = reader.read_line(&mut recv_line).expect("recv");
        assert!(n > 0, "server closed the connection");
        Json::parse(recv_line.trim()).expect("response parses")
    };

    for pass in 1..=passes {
        let t0 = Instant::now();
        let mut ok = 0usize;
        for w in &suite {
            let source = w.source();
            for profile in profiles {
                assert!(safara_server::protocol::resolve_profile(profile).is_ok());
                let request_args = w.args(scale);
                let id = next_id;
                next_id += 1;
                send(build_run_request(id, &source, w.entry(), profile, &request_args, true));
                let v = recv(&mut reader);
                assert_eq!(v.get("id").and_then(Json::as_i64), Some(id));
                let status = v.get("status").and_then(Json::as_str);
                assert_eq!(status, Some("ok"), "{} under {profile}: {v}", w.name());
                let after = rebuild_args(&request_args, &v);
                w.check(&after, scale)
                    .unwrap_or_else(|e| panic!("{} under {profile}: {e}", w.name()));
                ok += 1;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        eprintln!(
            "pass {pass}: {ok} responses ok + validated in {secs:.3} s ({:.1} req/s)",
            ok as f64 / secs
        );
    }

    send(r#"{"id":0,"op":"stats"}"#.into());
    let stats = recv(&mut reader);
    let cache = stats.get("cache").expect("cache stats");
    let hits = cache.get("hits").and_then(Json::as_i64).unwrap_or(0);
    let misses = cache.get("misses").and_then(Json::as_i64).unwrap_or(0);
    println!(
        "cache: {hits} hits / {misses} misses over {} requests",
        (next_id - 1)
    );
    if passes > 1 {
        assert!(hits > 0, "repeat passes must warm the shared cache: {stats}");
    }

    if let Some(own) = own {
        send(r#"{"id":-1,"op":"shutdown"}"#.into());
        let _ = recv(&mut reader);
        own.join();
    }
}

/// SplitMix64 — deterministic, dependency-free PRNG for the zipf draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The cache-stampede benchmark (ISSUE 8): 10 000 requests drawn
/// open-loop from 64 distinct content keys with zipf(s = 1.2) skew —
/// the hot key takes ~28 % of traffic — submitted as one burst into a
/// deep queue. Without single-flight dedup every request rides the
/// queue end to end; with it, duplicates of an in-flight key park and
/// complete the moment their leader does, so tail latency collapses.
///
/// Honest caveat (printed with the numbers): this is a single-process,
/// CPU-simulated pipeline, so the absolute latencies say nothing about
/// GPU hardware — only the on/off *ratio* under identical load is
/// meaningful.
fn run_zipf() {
    const REQUESTS: usize = 10_000;
    const KEYS: usize = 64;
    const SOURCE: &str = r#"
void scale(int n, float alpha, float x[n]) {
  #pragma acc kernels copy(x)
  {
    #pragma acc loop gang vector
    for (int i = 0; i < n; i++) { x[i] = x[i] * alpha + 1.0f; }
  }
}"#;

    // Zipf CDF over key ranks: weight(rank r) = 1 / (r + 1)^1.2.
    let weights: Vec<f64> = (0..KEYS).map(|r| 1.0 / ((r + 1) as f64).powf(1.2)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();

    // Pre-build and pre-parse every request so the submit loop measures
    // admission, not JSON formatting. Same seed for both runs: both see
    // the identical arrival sequence.
    let x: Vec<f32> = (0..256).map(|i| i as f32 * 0.25).collect();
    let mut rng = 0x5AFA_2A5E_u64;
    let requests: Vec<_> = (0..REQUESTS)
        .map(|id| {
            let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
            let key = cdf.partition_point(|c| *c < u).min(KEYS - 1);
            let args = Args::new()
                .i32("n", 256)
                .f32("alpha", 1.0 + key as f32 * 0.125)
                .array_f32("x", &x);
            parse_request(&build_run_request(id as i64, SOURCE, "scale", "base", &args, false))
                .expect("request parses")
        })
        .collect();

    let run = |coalesce: bool| -> (f64, f64, f64, u64, u64) {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_depth: REQUESTS + 8,
            default_timeout_ms: 600_000,
            coalesce,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel::<String>();
        let mut t_submit = vec![Instant::now(); REQUESTS];
        for (id, req) in requests.iter().cloned().enumerate() {
            t_submit[id] = Instant::now();
            match engine.submit(req, tx.clone()) {
                Submit::Queued => {}
                Submit::Rejected { response, .. } => panic!("rejected: {response}"),
            }
        }
        let mut lat_ms = vec![0f64; REQUESTS];
        for _ in 0..REQUESTS {
            let line = rx.recv_timeout(Duration::from_secs(120)).expect("drain");
            let now = Instant::now();
            let v = Json::parse(&line).expect("response parses");
            assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{line}");
            let id = v.get("id").and_then(Json::as_i64).expect("id") as usize;
            lat_ms[id] = now.duration_since(t_submit[id]).as_secs_f64() * 1e3;
        }

        let sh = std::sync::Arc::clone(engine.shared());
        let n = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
        let (submitted, completed, coalesced) =
            (n(&sh.submitted), n(&sh.completed), n(&sh.coalesced));
        assert_eq!(n(&sh.errors) + n(&sh.timed_out) + n(&sh.shed), 0, "clean run");
        assert_eq!(submitted, completed + coalesced, "accounting balances");
        if coalesce {
            // The tentpole claim: one pipeline execution per unique
            // key. Every duplicate either parked on its leader or
            // replayed the cache — never a second execution.
            assert_eq!(sh.cache.misses(), KEYS as u64, "one pipeline execution per key");
            assert!(coalesced > 0, "the burst actually coalesced");
        }
        assert_eq!(sh.programs_cached(), 1, "one compile (all keys share the program)");
        engine.shutdown();

        lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| lat_ms[((REQUESTS - 1) as f64 * p) as usize];
        let mean = lat_ms.iter().sum::<f64>() / REQUESTS as f64;
        (pct(0.50), pct(0.95), mean, coalesced, sh.cache.misses())
    };

    eprintln!("zipf stampede: {REQUESTS} requests over {KEYS} keys, s=1.2, 2 workers");
    let (off_p50, off_p95, off_mean, _, off_misses) = run(false);
    eprintln!("coalesce off: p50 {off_p50:.2} ms  p95 {off_p95:.2} ms  mean {off_mean:.2} ms  misses {off_misses}");
    let (on_p50, on_p95, on_mean, on_coalesced, on_misses) = run(true);
    eprintln!("coalesce on:  p50 {on_p50:.2} ms  p95 {on_p95:.2} ms  mean {on_mean:.2} ms  misses {on_misses}  coalesced {on_coalesced}");
    assert!(
        on_p95 < off_p95,
        "single-flight must improve p95 under zipf load: on {on_p95:.2} ms vs off {off_p95:.2} ms"
    );
    println!(
        "{{\"requests\":{REQUESTS},\"keys\":{KEYS},\"zipf_s\":1.2,\"workers\":2,\
         \"coalesce_off\":{{\"p50_ms\":{off_p50:.3},\"p95_ms\":{off_p95:.3},\"mean_ms\":{off_mean:.3}}},\
         \"coalesce_on\":{{\"p50_ms\":{on_p50:.3},\"p95_ms\":{on_p95:.3},\"mean_ms\":{on_mean:.3},\
         \"coalesced\":{on_coalesced},\"pipeline_execs\":{on_misses}}},\
         \"p95_speedup\":{:.2},\
         \"caveat\":\"single-process CPU simulation; only the on/off ratio is meaningful\"}}",
        off_p95 / on_p95
    );
}

/// Rebuild post-run [`Args`] from a response: request args with every
/// array (and any reduction-updated scalar) replaced by the returned
/// bit-exact values.
fn rebuild_args(request: &Args, response: &Json) -> Args {
    let mut after = request.clone();
    let arrays = response.get("arrays").expect("return_arrays was set");
    for (name, arr) in after.arrays.iter_mut() {
        let payload = arrays.get(name.as_str()).expect("array echoed");
        let bits = payload.get("bits").and_then(Json::as_arr).expect("bits");
        let elem = payload.get("elem").and_then(Json::as_str).expect("elem");
        *arr = match elem {
            "f32" => HostArray::from_f32_bits(
                &bits.iter().map(|b| b.as_i64().expect("bit") as u32).collect::<Vec<_>>(),
            ),
            "f64" => HostArray::from_f64_bits(
                &bits
                    .iter()
                    .map(|b| {
                        let s = b.as_str().expect("hex bits");
                        u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex")
                    })
                    .collect::<Vec<_>>(),
            ),
            _ => HostArray::from_i32(
                &bits.iter().map(|b| b.as_i64().expect("bit") as i32).collect::<Vec<_>>(),
            ),
        };
    }
    if let Some(scalars) = response.get("scalars") {
        for (name, value) in after.scalars.iter_mut() {
            let Some(v) = scalars.get(name.as_str()) else { continue };
            // Decode whatever variant the server replied with (it
            // normalizes request scalars, so this can differ from the
            // variant we sent), then coerce to the variant `check`
            // expects.
            let decoded: ArgValue = match v {
                Json::Int(i) => ArgValue::I64(*i),
                obj => match obj.get("bits") {
                    Some(Json::Int(b)) => ArgValue::F32(f32::from_bits(*b as u32)),
                    Some(Json::Str(s)) => ArgValue::F64(f64::from_bits(
                        u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex"),
                    )),
                    _ => panic!("unrecognized scalar encoding: {obj}"),
                },
            };
            *value = match value {
                ArgValue::I32(_) => ArgValue::I32(decoded.as_i64() as i32),
                ArgValue::I64(_) => ArgValue::I64(decoded.as_i64()),
                ArgValue::F32(_) => ArgValue::F32(decoded.as_f64() as f32),
                ArgValue::F64(_) => ArgValue::F64(decoded.as_f64()),
            };
        }
    }
    after
}
