//! The transport as a naive client meets it: a plain `TcpStream` that
//! sets no socket option and sends one request at a time.
//!
//! Such a client has nothing to piggy-back an ACK on, so it delays the
//! ACK of a reply's first segment by 40 ms; a server that sends the
//! line and its `\n` as two segments on a Nagle socket waits that long
//! before the second leaves — on every request. And a peer that never
//! sends a newline must not grow the server's line buffer without end.

use safara_server::json::Json;
use safara_server::server::MAX_LINE_BYTES;
use safara_server::service::EngineConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn ping(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, id: i64) -> Json {
    stream
        .write_all(format!("{{\"id\":{id},\"op\":\"ping\"}}\n").as_bytes())
        .unwrap();
    let mut reply = String::new();
    assert!(
        reader.read_line(&mut reply).unwrap() > 0,
        "server closed the connection"
    );
    Json::parse(reply.trim_end()).unwrap()
}

#[test]
fn sequential_pings_do_not_wait_for_a_delayed_ack() {
    let server = safara_server::serve("127.0.0.1:0", EngineConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|id| {
            let sent = Instant::now();
            let reply = ping(&mut stream, &mut reader, id);
            assert_eq!(reply.get("id").and_then(Json::as_i64), Some(id));
            assert_eq!(reply.get("status").and_then(Json::as_str), Some("ok"));
            sent.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    // ≈ 41 ms with the stall, well under a millisecond without.
    assert!(
        median < Duration::from_millis(15),
        "median ping round trip {median:?}"
    );
    drop((stream, reader));
    server.stop();
}

#[test]
fn a_line_past_the_cap_is_refused_and_the_connection_closed() {
    let server = safara_server::serve("127.0.0.1:0", EngineConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A v2 run request whose payload never ends: 64 MiB + 1, no newline.
    let head = br#"{"id":41,"v":2,"op":"run","arrays":{"x":{"elem":"i32","bits":["#;
    let mut flood = head.to_vec();
    flood.resize(MAX_LINE_BYTES + 1, b'7');
    stream.write_all(&flood).unwrap();
    drop(flood);

    let mut rest = String::new();
    stream
        .read_to_string(&mut rest)
        .expect("one reply, then a clean close");
    let mut lines = rest.lines();
    let reply = Json::parse(lines.next().expect("a reply before the close")).unwrap();
    assert_eq!(lines.next(), None, "exactly one reply");
    assert_eq!(
        reply.get("id").and_then(Json::as_i64),
        Some(41),
        "id read from the line's head"
    );
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    let error = reply.get("error").expect("v2 error object");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("resource_limit")
    );
    assert_eq!(error.get("retryable").and_then(Json::as_bool), Some(false));
    assert!(error
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains(&MAX_LINE_BYTES.to_string()));

    // A line that says nothing about its version gets the v1 shape —
    // and a peer still sending when the refusal goes out gets to read
    // it: the server drains what follows rather than resetting.
    let mut legacy = TcpStream::connect(server.addr).unwrap();
    legacy
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    legacy
        .write_all(&vec![b' '; MAX_LINE_BYTES + (4 << 20)])
        .unwrap();
    let mut rest = String::new();
    legacy
        .read_to_string(&mut rest)
        .expect("one reply, then a clean close");
    let reply = Json::parse(rest.trim_end()).unwrap();
    assert_eq!(reply.get("id"), Some(&Json::Null));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("error"));
    assert!(reply.get("error").is_none());
    assert!(reply
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("exceeds"));

    // The server itself is unharmed.
    let mut fresh = TcpStream::connect(server.addr).unwrap();
    let mut reader = BufReader::new(fresh.try_clone().unwrap());
    let pong = ping(&mut fresh, &mut reader, 1);
    assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
    drop((fresh, reader));
    server.stop();
}
