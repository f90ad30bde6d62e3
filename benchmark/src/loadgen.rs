//! The load generator: closed-loop connections, one thread each.
//!
//! A request line is built in set-up with its trailing `\n` and sent
//! with a single `write_all` on a socket with `TCP_NODELAY` set, so the
//! generator adds no stall of its own and whatever floor the transport
//! shows belongs to the server. The reply line is timestamped when it
//! has been read; it is parsed and verified only after the pass, with
//! the clock stopped. The clock starts before the write: sending a
//! multi-megabyte line overlaps the server reading it, and a clock
//! started after the last byte would hide that part of the transport.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// No request of these workloads takes a second; a reply that has not
/// arrived after this long counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One request as the client saw it.
pub struct Reply {
    pub cell: usize,
    pub sent: Instant,
    pub received: Instant,
    /// The reply line, or why there is none.
    pub line: Result<String, String>,
}

impl Reply {
    pub fn ms(&self) -> f64 {
        self.received.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Send one line (already ending in `\n`) and wait for its reply.
    pub fn round_trip(&mut self, cell: usize, line: &[u8]) -> Reply {
        let mut reply = String::new();
        let sent = Instant::now();
        let io = self
            .writer
            .write_all(line)
            .and_then(|()| self.reader.read_line(&mut reply));
        let received = Instant::now();
        let line = match io {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("no reply: {e}")),
        };
        Reply {
            cell,
            sent,
            received,
            line,
        }
    }
}

/// One pass: connection `k` sends the lines of `orders[k]`, each on its
/// own thread, all released together. Returns every reply and the wall
/// seconds from release to the last reply.
pub fn pass(conns: &mut [Conn], lines: &[Vec<u8>], orders: &[Vec<usize>]) -> (Vec<Reply>, f64) {
    let barrier = Barrier::new(conns.len() + 1);
    std::thread::scope(|s| {
        let clients: Vec<_> = conns
            .iter_mut()
            .zip(orders)
            .map(|(conn, order)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    order
                        .iter()
                        .map(|&cell| conn.round_trip(cell, &lines[cell]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let replies: Vec<Reply> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect();
        (replies, start.elapsed().as_secs_f64())
    })
}
