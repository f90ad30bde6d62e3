//! The shipped binary end to end: `safara-serve` over stdin and TCP,
//! steered only by its flags and environment. Over TCP the test itself
//! is the client: one plain connection, one line out, one line back.

use safara_core::Args;
use safara_server::protocol::RunRequestLine;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const DBL: &str = "void dbl(int n, float x[n]) { #pragma acc kernels copy(x)\n\
    { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }";

/// A `safara_only` run of `entry` over `x = 1..=8` repeated to `n`, arrays returned.
fn run_line(id: i64, v: u8, source: &str, entry: &str, n: usize) -> String {
    let x: Vec<f32> = (0..n).map(|i| (i % 8 + 1) as f32).collect();
    let args = Args::new().i32("n", n as i32).array_f32("x", &x);
    RunRequestLine { v, ..RunRequestLine::new(id, source, entry, "safara_only", &args, true) }.render()
}

/// `safara-serve` with `flags` and no exec knob in its environment.
fn serve(flags: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_safara-serve"));
    cmd.args(flags).env_remove("SAFARA_ENGINE");
    cmd
}

/// Feed `lines` to `cmd` on stdin; its stdout once it exits cleanly.
fn pipe(cmd: &mut Command, lines: &[String]) -> String {
    let mut child = cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).spawn().expect("spawn");
    // The handle drops at the end of the statement: EOF.
    child.stdin.take().unwrap().write_all((lines.join("\n") + "\n").as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{cmd:?}: {}", out.status);
    String::from_utf8(out.stdout).unwrap()
}

/// Kills the server if the test fails before it shuts down.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The same lines, one at a time, over one connection to a TCP
/// `safara-serve`, then `{"op":"shutdown"}`; the replies, one per line.
fn over_tcp(mut cmd: Command, lines: &[String]) -> String {
    let mut server = Server(cmd.args(["--listen", "127.0.0.1:0"]).stdout(Stdio::piped()).spawn().unwrap());
    let mut first = String::new();
    BufReader::new(server.0.stdout.take().unwrap()).read_line(&mut first).unwrap();
    let addr = first.trim().strip_prefix("listening on ").unwrap_or_else(|| panic!("{first}"));
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut roundtrip = |line: &str| {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).unwrap() > 0, "server closed before answering {line}");
        reply
    };
    let replies: String = lines.iter().map(|line| roundtrip(line)).collect();
    roundtrip(r#"{"op":"shutdown"}"#);
    assert!(server.0.wait().unwrap().success(), "server exits cleanly on shutdown");
    replies
}

#[test]
fn stdin_transport_answers_and_traces() {
    let traced = run_line(3, 1, DBL, "dbl", 8).replacen("\"op\"", "\"trace\":true,\"op\"", 1);
    let lines = [r#"{"id":1,"op":"ping"}"#.into(), run_line(2, 1, DBL, "dbl", 8), traced];
    let out = pipe(&mut serve(&["--stdin", "--workers", "2"]), &lines);
    let replies: Vec<&str> = out.lines().collect();
    assert_eq!(replies.len(), 3, "{out}");
    for (id, reply) in (1..).zip(&replies) {
        assert!(reply.starts_with(&format!(r#"{{"id":{id},"status":"ok""#)), "{reply}");
    }
    assert!(replies[1].contains(&16.0f32.to_bits().to_string()), "x[7] = 2 × 8");
    assert!(replies[2].contains(r#""trace":["#) && replies[2].contains(r#""start_us":"#));
    for phase in ["parse", "sema", "analysis", "opt", "codegen", "regalloc", "sim"] {
        assert!(replies[2].contains(&format!(r#""name":"{phase}""#)), "phase {phase} missing");
    }
}

#[test]
fn exec_knob_env_never_changes_a_reply() {
    let grind = "void grind(int n, float x[n]) { #pragma acc kernels copy(x)\n\
        { #pragma acc loop gang vector\n for (int i = 0; i < n; i++) { #pragma acc loop seq\n\
        for (int k = 0; k < 500; k++) { x[i] = x[i] * 1.0001f + 0.5f; } } } }";
    let req = [run_line(4, 1, grind, "grind", 64)];
    let with = |env: &[(&str, &str)]| pipe(serve(&["--stdin", "--workers", "1"]).envs(env.iter().copied()), &req);
    let default = with(&[]);
    assert!(default.starts_with(r#"{"id":4,"status":"ok""#), "{default}");
    assert_eq!(with(&[("SAFARA_ENGINE", "decoded")]), default, "decoded vs unset");
    assert_eq!(with(&[("SAFARA_ENGINE", "superblock")]), default, "superblock vs unset");
}

#[test]
fn an_injected_sim_fault_fails_once_and_the_retry_succeeds() {
    // Stdin submits both lines up front: with single-flight on, the
    // retry would park behind the faulted leader and share its verdict.
    let flags = ["--workers", "1", "--no-coalesce", "--fault", "sim:fail:1", "--fault-seed", "1"];
    let req = [run_line(1, 2, DBL, "dbl", 8), run_line(2, 2, DBL, "dbl", 8)];
    let out = pipe(serve(&flags).arg("--stdin"), &req);
    let replies: Vec<&str> = out.lines().collect();
    assert_eq!(replies.len(), 2, "{out}");
    assert!(replies[0].starts_with(r#"{"id":1,"status":"error""#), "{out}");
    assert!(replies[0].contains(r#""code":"sim""#) && replies[0].contains(r#""retryable":true"#));
    assert!(replies[1].starts_with(r#"{"id":2,"status":"ok""#), "{out}");
    assert_eq!(over_tcp(serve(&flags), &req), out, "stdin and TCP differ");
}

#[test]
fn a_malformed_line_gets_the_same_reply_over_stdin_and_tcp() {
    let bad = [r#"{"id":9,"v":2,"op":"nope"}"#.to_string()];
    let stdin = pipe(&mut serve(&["--stdin"]), &bad);
    assert!(stdin.starts_with(r#"{"id":9,"status":"error""#), "{stdin}");
    assert!(stdin.contains(r#""code":"bad_request""#), "{stdin}");
    assert_eq!(over_tcp(serve(&[]), &bad), stdin);
}

#[test]
fn a_fault_its_point_does_not_act_on_is_refused() {
    // A panic at `sim` would fire, be counted, and change nothing: the flag is an error.
    let out = serve(&["--stdin", "--fault", "sim:panic"]).stdin(Stdio::null()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("`sim` does not act on `panic` (it honours fail, delay, hang)"), "{err}");
}
