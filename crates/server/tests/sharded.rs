//! Scale-out smoke: `safara-serve --shards 2` spawns two real server
//! processes, each owning a private cache partition. Requests routed by
//! consistent hash of the content key (`protocol::run_key` +
//! `protocol::shard_for` — the same pair `safara-client` uses) must
//! produce responses byte-identical to a cold single-process run, and
//! a repeated key must land on the same shard and replay its cache.

use safara_server::json::Json;
use safara_server::protocol::{build_run_request, parse_request, run_key, shard_for, Op};
use safara_server::service::{Engine, EngineConfig};
use safara_server::Submit;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::sync::mpsc;
use std::time::Duration;

const SCALE: &str = r#"
void scale(int n, float alpha, float x[n]) {
  #pragma acc kernels copy(x)
  {
    #pragma acc loop gang vector
    for (int i = 0; i < n; i++) { x[i] = x[i] * alpha + 1.0f; }
  }
}"#;

fn request_line(id: i64, seed: f32) -> String {
    let args = safara_core::Args::new()
        .i32("n", 32)
        .f32("alpha", 1.5)
        .array_f32("x", &(0..32).map(|i| seed + i as f32 * 0.5).collect::<Vec<_>>());
    build_run_request(id, SCALE, "scale", "base", &args, true)
}

/// The cold single-process reference for one request line.
fn cold_reference(line: &str) -> String {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_depth: 4,
        ..EngineConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    match engine.submit(parse_request(line).unwrap(), tx) {
        Submit::Queued => {}
        Submit::Rejected { response, .. } => panic!("rejected: {response}"),
    }
    let response = rx.recv_timeout(Duration::from_secs(30)).expect("cold run answers");
    engine.shutdown();
    response
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect shard");
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn { writer: stream, reader }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        self.writer.flush().expect("flush");
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("read");
        assert!(n > 0, "shard closed before answering");
        response.trim_end().to_string()
    }
}

/// Kills the whole shard process group on drop, so a failed assertion
/// mid-test never leaves orphaned `safara-serve` processes listening.
struct ShardGroup(std::process::Child);

impl Drop for ShardGroup {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(Some(_))) {
            return; // clean exit already observed
        }
        let _ = std::process::Command::new("kill")
            .args(["-9", "--", &format!("-{}", self.0.id())])
            .status();
        let _ = self.0.wait();
    }
}

#[test]
fn two_shards_serve_byte_identical_responses_and_partition_the_cache() {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_safara-serve"));
    cmd.args(["--shards", "2", "--workers", "1"])
        .stdout(std::process::Stdio::piped())
        .process_group(0); // parent + shards share a pgid we can kill on failure
    let mut parent = ShardGroup(cmd.spawn().expect("spawn --shards 2"));
    let mut lines = BufReader::new(parent.0.stdout.take().expect("stdout piped")).lines();
    let addrs: Vec<String> = loop {
        let line = lines
            .next()
            .expect("parent printed the summary before exiting")
            .expect("readable stdout");
        if let Some(rest) = line.strip_prefix("shards ") {
            break rest.split(' ').map(str::to_string).collect();
        }
        assert!(line.starts_with("shard "), "unexpected parent output: {line}");
    };
    assert_eq!(addrs.len(), 2, "two shard addresses: {addrs:?}");
    let mut conns: Vec<Conn> = addrs.iter().map(|a| Conn::open(a)).collect();

    // 8 distinct keys, routed like the client routes, each compared
    // bytewise against a cold single-process run.
    let mut routed = [0usize; 2];
    let mut repeat = None;
    for id in 0..8 {
        let line = request_line(id, id as f32);
        let req = parse_request(&line).unwrap();
        let Op::Run(r) = &req.op else { panic!("run request") };
        let shard = shard_for(run_key(r).low(), 2) as usize;
        routed[shard] += 1;
        let got = conns[shard].roundtrip(&line);
        assert_eq!(got, cold_reference(&line), "id {id} on shard {shard}");
        if repeat.is_none() {
            repeat = Some((line, shard));
        }
    }
    assert_eq!(routed[0] + routed[1], 8);
    assert!(routed[0] > 0 && routed[1] > 0, "both shards saw work: {routed:?}");

    // Consistent routing: the same key goes back to the same shard and
    // replays that shard's cache partition.
    let (line, shard) = repeat.expect("at least one request routed");
    let again = conns[shard].roundtrip(&line);
    assert_eq!(again, cold_reference(&line), "replay is byte-identical");
    let stats = Json::parse(&conns[shard].roundtrip(r#"{"id":900,"op":"stats"}"#)).unwrap();
    let cache = stats.get("cache").expect("cache section");
    assert!(
        cache.get("hits").and_then(Json::as_i64).unwrap() >= 1,
        "the repeat hit shard {shard}'s cache: {stats}"
    );
    // The other shard never saw this key (its cache holds only its own
    // partition's entries). Stats ops are answered inline by the
    // dispatcher, so `submitted` counts exactly the routed runs.
    let other = Json::parse(&conns[1 - shard].roundtrip(r#"{"id":901,"op":"stats"}"#)).unwrap();
    let other_runs = other
        .get("server")
        .and_then(|s| s.get("submitted"))
        .and_then(Json::as_i64)
        .unwrap();
    assert_eq!(other_runs, routed[1 - shard] as i64, "only its own routed work");

    // Tear down: each shard exits on its own shutdown op, then the
    // parent reaps them and exits too.
    for conn in &mut conns {
        let bye = conn.roundtrip(r#"{"op":"shutdown"}"#);
        assert!(bye.contains("shutting_down"), "{bye}");
    }
    let status = parent.0.wait().expect("parent exits after its shards");
    assert!(status.success(), "parent exit: {status}");
}
