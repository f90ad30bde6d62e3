//! `safara-send` — pipe ND-JSON request lines to a sharded
//! `safara-serve` deployment, routing each run to the shard that owns
//! its cache partition.
//!
//! ```text
//! safara-send --shards "ADDR0 ADDR1 ..." [--shutdown] < requests.ndjson
//! ```
//!
//! Reads one request per line on stdin, routes untraced `run` requests
//! by consistent hash of their content key (the same
//! `protocol::run_key` / `protocol::shard_for` pair the server's
//! single-flight table and `ShardedClient` use); everything else —
//! pings, compiles, stats, traced runs, unparseable lines — goes to
//! shard 0. Responses print on stdout in input order. Lines are
//! forwarded verbatim, so request ids and field order survive — byte
//! diffs against a single-shard run stay meaningful.
//!
//! `--shutdown` sends `{"op":"shutdown"}` to every shard at EOF, so a
//! smoke test can tear the whole deployment down in one pipeline.

use safara_server::protocol::{parse_request, run_key, shard_for, Op};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn die(msg: &str) -> ! {
    eprintln!("safara-send: {msg}");
    std::process::exit(2);
}

struct Shard {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Shard {
    fn connect(addr: &str) -> Shard {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| die(&format!("cannot connect to shard {addr}: {e}")));
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(
            stream.try_clone().unwrap_or_else(|e| die(&format!("clone {addr}: {e}"))),
        );
        Shard { writer: stream, reader }
    }

    /// Write one request line and read its one response line.
    fn roundtrip(&mut self, line: &str) -> String {
        // One write per request: the line and its `\n` leave together.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap_or_else(|e| die(&format!("write failed: {e}")));
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => die("shard closed the connection before answering"),
            Ok(_) => response.trim_end().to_string(),
            Err(e) => die(&format!("read failed: {e}")),
        }
    }
}

fn main() {
    let mut addrs: Vec<String> = Vec::new();
    let mut shutdown = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--shards" => {
                let list = argv.next().unwrap_or_else(|| die("--shards needs \"ADDR0 ADDR1 ...\""));
                addrs = list
                    .split([' ', ','])
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                println!("usage: safara-send --shards \"ADDR0 ADDR1 ...\" [--shutdown] < requests");
                return;
            }
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }
    if addrs.is_empty() {
        die("--shards is required");
    }
    let mut shards: Vec<Shard> = addrs.iter().map(|a| Shard::connect(a)).collect();
    let n = shards.len() as u32;

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Untraced runs route by content key; anything else (including
        // lines the server will reject) pins to shard 0 so errors and
        // control ops have a deterministic home.
        let shard = match parse_request(line) {
            Ok(req) => match (&req.op, req.trace) {
                (Op::Run(r), false) => shard_for(run_key(r).low(), n) as usize,
                _ => 0,
            },
            Err(_) => 0,
        };
        let response = shards[shard].roundtrip(line);
        writeln!(out, "{response}").unwrap_or_else(|e| die(&format!("stdout: {e}")));
    }
    if shutdown {
        for shard in &mut shards {
            let _ = shard.roundtrip(r#"{"op":"shutdown"}"#);
        }
    }
    let _ = out.flush();
}
