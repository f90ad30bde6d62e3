//! The TCP transport: newline-delimited JSON over `std::net`.
//!
//! The accept loop runs nonblocking and polls so it can notice shutdown
//! (a `shutdown` request, or [`ServerHandle::stop`]) promptly. Each
//! connection gets a reader thread (parses lines, submits to the
//! engine) and a writer thread (drains the connection's reply channel);
//! responses stream back as workers finish, so a pipelined client may
//! see them out of submission order and must match on `id`.
//!
//! Every reply leaves as one TCP segment: one `write` of the line with
//! its `\n`, on a socket with `TCP_NODELAY`. Sent as two writes on a
//! Nagle socket the 1-byte second segment waits for the client's ACK of
//! the first, and a closed-loop client, with nothing to send, delays
//! that ACK by 40 ms — on every request.

use crate::protocol::{decode_request, error_line_v, request_meta, Request, WireError};
use crate::service::{Engine, EngineConfig, Submit};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Control handle for a running server.
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl ServerHandle {
    /// Ask the accept loop to wind down and wait for a clean exit:
    /// connections close, the engine drains admitted jobs, workers join.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
    }

    /// Block until the server exits on its own (a `shutdown` request).
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`), start the engine, and serve.
pub fn serve(addr: &str, config: EngineConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let accept = std::thread::Builder::new()
        .name("safara-accept".into())
        .spawn(move || accept_loop(listener, config, &stop_flag))
        .expect("spawn accept loop");
    Ok(ServerHandle { addr, stop, accept })
}

fn accept_loop(listener: TcpListener, config: EngineConfig, stop: &AtomicBool) {
    let engine = Arc::new(Engine::start(config));
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst)
            || engine.shared().shutdown_requested.load(Ordering::SeqCst)
        {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let engine = Arc::clone(&engine);
                let h = std::thread::Builder::new()
                    .name("safara-conn".into())
                    .spawn(move || handle_connection(stream, &engine))
                    .expect("spawn connection handler");
                connections.push(h);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
        connections.retain(|h| !h.is_finished());
    }
    // Drain. Readers poll the flag (100 ms read timeout) and exit; the
    // still-running workers finish each connection's in-flight jobs, so
    // joining a connection waits for its responses to be written. Only
    // then is the engine Arc unique and the pool can be joined.
    engine.shared().shutdown_requested.store(true, Ordering::SeqCst);
    for h in connections {
        let _ = h.join();
    }
    if let Ok(engine) = Arc::try_unwrap(engine) {
        engine.shutdown();
    }
}

/// The longest request line a connection accepts: about nine times
/// the largest line of the fig7 suite. Input that runs past it without
/// a newline is answered `resource_limit` and the connection closes, so
/// a peer cannot grow the line buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 << 20;

fn handle_connection(stream: TcpStream, engine: &Engine) {
    // Short read timeout: the reader must notice shutdown even when the
    // client keeps the connection open but idle.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<String>();
    let shared = Arc::clone(engine.shared());
    let writer = std::thread::Builder::new()
        .name("safara-conn-writer".into())
        .spawn(move || writer_loop(write_half, &rx, &shared))
        .expect("spawn connection writer");

    // Request lines run to megabytes; a 64 KiB buffer takes them in an
    // eighth of the reads the default one would.
    let mut reader = BufReader::with_capacity(64 << 10, stream);
    let mut line: Vec<u8> = Vec::new();
    let mut over_long = false;
    loop {
        if engine.shared().shutdown_requested.load(Ordering::SeqCst) {
            break;
        }
        // `read_until` appends, so a line split across read-timeout
        // ticks accumulates in `line` until its `\n` arrives (a
        // timeout surfaces as `WouldBlock` below with the partial
        // bytes retained). `Ok` with no trailing `\n` means the cap
        // was reached or EOF cut the final line short — the latter is
        // still processed, and the `Ok(0)` that follows exits.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF: client closed
            Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") => {
                let (id, v) = request_meta(&line);
                let err = WireError::resource_limit(format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes; closing the connection"
                ));
                let _ = tx.send(error_line_v(v, id, &err));
                over_long = true;
                break;
            }
            Ok(_) => {
                // Bytes that are not UTF-8 end the connection, as they
                // did when this read into a `String`.
                let Ok(text) = std::str::from_utf8(&line) else { break };
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    dispatch(engine, trimmed, &tx);
                }
                line.clear();
            }
            Err(e)
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                // Idle poll tick; loop to re-check the shutdown flag.
                continue;
            }
            Err(_) => break,
        }
    }
    drop(tx); // writer exits once workers drop their senders too
    let _ = writer.join();
    if over_long {
        linger(reader.get_mut());
    }
}

/// Close after refusing an over-long line without losing the refusal:
/// closing a socket with unread input resets the connection, and a
/// reset can overtake the reply. So send FIN, then discard what the
/// peer is still sending until it stops, closes, or a second passes.
fn linger(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let started = std::time::Instant::now();
    let mut sink = [0u8; 64 << 10];
    while started.elapsed() < Duration::from_secs(1) {
        if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

/// Decode one request line, or render the reply that refuses it. The
/// decoding pass keeps the line's id and version, so even a
/// `bad_request` reply routes. Every transport answers a malformed line
/// through this.
pub fn decode_line(line: &str) -> Result<Request, String> {
    decode_request(line)
        .map_err(|bad| error_line_v(bad.v, bad.id, &WireError::bad_request(&bad.message)))
}

/// Parse one line and submit it; failures answer immediately on `tx`.
pub fn dispatch(engine: &Engine, line: &str, tx: &mpsc::Sender<String>) {
    match decode_line(line) {
        Ok(req) => {
            // Answer `stats` inline: it must reflect queue state even
            // (especially) when the queue is full.
            if matches!(req.op, crate::protocol::Op::Stats) {
                let _ = tx.send(engine.stats_line(req.id));
                return;
            }
            if let Submit::Rejected { response, .. } = engine.submit(req, tx.clone()) {
                let _ = tx.send(response);
            }
        }
        Err(reply) => {
            let _ = tx.send(reply);
        }
    }
}

/// Send one reply line: the line and its `\n` in a single `write`, so
/// they leave as one segment (see the module docs).
fn write_reply(w: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())
}

fn writer_loop(
    mut stream: TcpStream,
    rx: &mpsc::Receiver<String>,
    shared: &crate::service::EngineShared,
) {
    while let Ok(line) = rx.recv() {
        let start = std::time::Instant::now();
        if write_reply(&mut stream, line).is_err() {
            return;
        }
        shared.metrics.reply_write.record(start.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts `write` calls; takes whatever it is given.
    #[derive(Default)]
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_reply_is_one_write_of_the_line_and_its_newline() {
        let mut w = Counting::default();
        write_reply(&mut w, r#"{"id":1,"status":"ok"}"#.to_string()).unwrap();
        assert_eq!(w.writes, 1, "two writes are two segments, and the second waits for an ACK");
        assert_eq!(w.bytes, b"{\"id\":1,\"status\":\"ok\"}\n");
    }
}
