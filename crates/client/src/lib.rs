//! # safara-client — a pipelined ND-JSON client for `safara-serve`
//!
//! Speaks protocol v2 over TCP: one connection, many requests in
//! flight. A background reader thread routes responses to callers by
//! `id`, so requests pipeline freely — [`Client::begin`] returns a
//! [`Pending`] handle immediately and [`Pending::wait`] blocks only
//! that caller.
//!
//! Failure handling is the point of this crate:
//!
//! - every remote failure surfaces as a typed [`ClientError::Remote`]
//!   carrying the server's stable `code`, `phase`, and `retryable`
//!   contract (see `safara_server::protocol::WireError`);
//! - every wait is bounded by a per-request deadline
//!   ([`ClientError::Timeout`] — the server may still answer later;
//!   the late reply is discarded by the reader);
//! - [`Client::retry`] re-sends exactly the errors the server marked
//!   `retryable`, spacing attempts with `safara_chaos::Backoff`
//!   (decorrelated jitter, seeded — reruns back off identically) and
//!   clamping every sleep to the deadline budget, so backoff can never
//!   outlive the deadline the caller asked for.
//!
//! ```no_run
//! use safara_client::{Client, RetryPolicy};
//! let client = Client::connect("127.0.0.1:4860").unwrap();
//! let pong = client.ping().unwrap();
//! assert_eq!(pong.get("status").and_then(safara_server::json::Json::as_str), Some("ok"));
//! let policy = RetryPolicy::default();
//! let v = client.retry(&policy, || client.ping()).unwrap();
//! # let _ = v;
//! ```

use safara_chaos::Backoff;
use safara_core::Args;
use safara_server::json::Json;
use safara_server::protocol::{RunRequestLine, DEFAULT_TIMEOUT_MS};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Protocol version this client speaks. Responses to our requests
/// always carry structured `error` objects.
pub const PROTOCOL_VERSION: u8 = 2;

/// Everything that can go wrong with a request, exactly once.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The transport failed mid-write (connect errors surface from
    /// [`Client::connect`] as `std::io::Error` instead).
    Io(String),
    /// The server answered, but not in a shape this client understands.
    Protocol(String),
    /// The server answered with a failure status. This is the only
    /// variant [`ClientError::retryable`] can mark retryable — the
    /// server owns that contract.
    Remote {
        /// Response `status` (`error`, `timeout`, `overloaded`, ...).
        status: String,
        /// Stable machine-matchable code (`parse`, `sim`, `shed`, ...).
        code: String,
        /// Human-readable description.
        message: String,
        /// Pipeline phase provenance, when the failure had one.
        phase: Option<String>,
        /// Whether resending the identical request can succeed.
        retryable: bool,
    },
    /// The per-request deadline expired with no response. The request
    /// may still complete server-side; its late reply is discarded.
    Timeout,
    /// The connection closed (EOF or reset) before the response
    /// arrived. Subsequent requests on this client fail the same way.
    ServerGone,
}

impl ClientError {
    /// The retry contract: `true` iff the server said resending the
    /// identical request can succeed. Local timeouts and transport
    /// failures are *not* retryable through [`Client::retry`] — the
    /// request may have executed, and this client cannot know.
    pub fn retryable(&self) -> bool {
        matches!(self, ClientError::Remote { retryable: true, .. })
    }

    /// The machine-matchable error code, when the server supplied one.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Remote { code, .. } => Some(code),
            _ => None,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "transport error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Remote { status, code, message, retryable, .. } => write!(
                f,
                "server {status} [{code}{}]: {message}",
                if *retryable { ", retryable" } else { "" }
            ),
            ClientError::Timeout => write!(f, "deadline expired waiting for the response"),
            ClientError::ServerGone => write!(f, "connection closed before the response"),
        }
    }
}

impl std::error::Error for ClientError {}

/// How [`Client::retry`] spaces attempts: decorrelated jitter between
/// `base_ms` and `cap_ms`, at most `attempts` tries total. Seeded —
/// the same policy backs off identically on every run.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` disables retry).
    pub attempts: u32,
    /// Lower bound for every backoff sleep, in milliseconds.
    pub base_ms: u64,
    /// Upper bound the jitter may never exceed, in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { attempts: 4, base_ms: 5, cap_ms: 200, seed: 0 }
    }
}

/// Shared between the caller-facing [`Client`] and its reader thread.
struct Shared {
    writer: Mutex<TcpStream>,
    /// In-flight requests: id → the channel its response routes to.
    routes: Mutex<HashMap<i64, mpsc::Sender<Json>>>,
    /// Set by the reader on EOF/reset; fails fast thereafter.
    gone: AtomicBool,
}

impl Shared {
    /// Mark the connection dead and wake every in-flight waiter by
    /// dropping its sender (their `recv` returns `Disconnected`).
    fn hang_up(&self) {
        self.gone.store(true, Ordering::SeqCst);
        self.routes.lock().expect("routes lock").clear();
    }
}

/// A connected client. All methods take `&self`, so requests from any
/// number of threads pipeline over the single connection.
pub struct Client {
    shared: Arc<Shared>,
    stream: TcpStream,
    next_id: AtomicI64,
    deadline_ms: AtomicU64,
    reader: Option<std::thread::JoinHandle<()>>,
}

/// An in-flight request: the response routes here when it arrives.
pub struct Pending {
    id: i64,
    rx: mpsc::Receiver<Json>,
    deadline: Instant,
    shared: Arc<Shared>,
}

impl Client {
    /// Connect and start the reader thread. The default per-request
    /// deadline matches the server's own
    /// (`protocol::DEFAULT_TIMEOUT_MS`) plus slack for the queue.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let shared = Arc::new(Shared {
            writer: Mutex::new(stream.try_clone()?),
            routes: Mutex::new(HashMap::new()),
            gone: AtomicBool::new(false),
        });
        let reader_stream = stream.try_clone()?;
        let reader_shared = Arc::clone(&shared);
        let reader = std::thread::Builder::new()
            .name("safara-client-reader".into())
            .spawn(move || read_loop(reader_stream, &reader_shared))?;
        Ok(Client {
            shared,
            stream,
            next_id: AtomicI64::new(1),
            deadline_ms: AtomicU64::new(DEFAULT_TIMEOUT_MS + 2_000),
            reader: Some(reader),
        })
    }

    /// Change the default per-request deadline.
    pub fn set_deadline(&self, deadline: Duration) {
        self.deadline_ms.store(deadline.as_millis() as u64, Ordering::Relaxed);
    }

    /// The deadline requests started now will wait under.
    pub fn deadline(&self) -> Duration {
        Duration::from_millis(self.deadline_ms.load(Ordering::Relaxed))
    }

    fn fresh_id(&self) -> i64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Send one already-serialized request line (must carry `reserved`
    /// as its `id`) and hand back the routing receiver. The line gets
    /// its `\n` here and goes out in one write: one segment, not two.
    fn send(&self, reserved: i64, mut line: String) -> Result<Pending, ClientError> {
        line.push('\n');
        if self.shared.gone.load(Ordering::SeqCst) {
            return Err(ClientError::ServerGone);
        }
        let (tx, rx) = mpsc::channel();
        self.shared.routes.lock().expect("routes lock").insert(reserved, tx);
        let write = self.shared.writer.lock().expect("writer lock").write_all(line.as_bytes());
        if let Err(e) = write {
            self.shared.routes.lock().expect("routes lock").remove(&reserved);
            return Err(ClientError::Io(e.to_string()));
        }
        Ok(Pending {
            id: reserved,
            rx,
            deadline: Instant::now() + self.deadline(),
            shared: Arc::clone(&self.shared),
        })
    }

    /// Start a request from its operation fields (everything except
    /// `id` and `v`, which this client owns). Returns immediately;
    /// responses pipeline back by id.
    pub fn begin(&self, op_fields: Vec<(&str, Json)>) -> Result<Pending, ClientError> {
        let id = self.fresh_id();
        let mut fields = vec![
            ("id".to_string(), Json::Int(id)),
            ("v".to_string(), Json::Int(PROTOCOL_VERSION as i64)),
        ];
        fields.extend(op_fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        self.send(id, Json::Obj(fields).dump())
    }

    /// Start a `run` request (lossless `bits` argument encoding).
    pub fn begin_run(
        &self,
        source: &str,
        entry: &str,
        profile: &str,
        args: &Args,
        return_arrays: bool,
    ) -> Result<Pending, ClientError> {
        let id = self.fresh_id();
        let line = RunRequestLine {
            v: PROTOCOL_VERSION,
            ..RunRequestLine::new(id, source, entry, profile, args, return_arrays)
        };
        self.send(id, line.render())
    }

    /// `ping`, blocking.
    pub fn ping(&self) -> Result<Json, ClientError> {
        self.begin(vec![("op", Json::Str("ping".into()))])?.wait()
    }

    /// `stats`, blocking. The response carries the server's counter
    /// sections (`server`, `errors_by_code`, `breaker`, `cache`, ...).
    pub fn stats(&self) -> Result<Json, ClientError> {
        self.begin(vec![("op", Json::Str("stats".into()))])?.wait()
    }

    /// `compile`, blocking.
    pub fn compile(&self, source: &str, profile: &str) -> Result<Json, ClientError> {
        self.begin(vec![
            ("op", Json::Str("compile".into())),
            ("source", Json::Str(source.into())),
            ("profile", Json::Str(profile.into())),
        ])?
        .wait()
    }

    /// `run`, blocking.
    pub fn run(
        &self,
        source: &str,
        entry: &str,
        profile: &str,
        args: &Args,
        return_arrays: bool,
    ) -> Result<Json, ClientError> {
        self.begin_run(source, entry, profile, args, return_arrays)?.wait()
    }

    /// Call `attempt` until it succeeds, fails permanently, or the
    /// policy's attempts run out — re-sending **exactly** the failures
    /// the server marked `retryable`, spaced by seeded decorrelated
    /// jitter. The last error is returned as-is.
    ///
    /// The whole loop runs under one deadline budget (the client's
    /// [`Client::deadline`], started when `retry` is entered): every
    /// backoff sleep is clamped to what remains, and once the budget is
    /// exhausted the last *retryable* error is returned instead of
    /// sleeping on. An unclamped backoff could sleep far past the
    /// caller's deadline and surface as a late local `timeout`, hiding
    /// the server's typed, retryable verdict.
    pub fn retry<T>(
        &self,
        policy: &RetryPolicy,
        mut attempt: impl FnMut() -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut backoff = Backoff::new(policy.base_ms, policy.cap_ms, policy.seed);
        let budget_end = Instant::now() + self.deadline();
        let mut tries = 0;
        loop {
            tries += 1;
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) if e.retryable() && tries < policy.attempts => {
                    let remaining = budget_end.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(backoff.next_ms()).min(remaining));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Unblock the reader (its read_line returns 0/err) and join it.
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Pending {
    /// The request id this handle routes.
    pub fn id(&self) -> i64 {
        self.id
    }

    /// Block until the response arrives or the deadline expires, then
    /// interpret it: `status: ok` is `Ok`, anything else becomes a
    /// typed [`ClientError`].
    pub fn wait(self) -> Result<Json, ClientError> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        match self.rx.recv_timeout(remaining) {
            Ok(v) => interpret(v),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Deregister so the reader discards the late reply.
                self.shared.routes.lock().expect("routes lock").remove(&self.id);
                Err(ClientError::Timeout)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ClientError::ServerGone),
        }
    }
}

/// Route responses by id until the connection closes, then wake every
/// in-flight waiter with [`ClientError::ServerGone`].
fn read_loop(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Ok(v) = Json::parse(trimmed) else { continue };
        let Some(id) = v.get("id").and_then(Json::as_i64) else { continue };
        // Remove the route: one response per id. Ids we no longer know
        // (deadline already fired) are discarded here.
        let tx = shared.routes.lock().expect("routes lock").remove(&id);
        if let Some(tx) = tx {
            let _ = tx.send(v);
        }
    }
    shared.hang_up();
}

/// Turn a response into the caller's `Result`: prefer the v2 `error`
/// object; fall back to the v1 `message`/status shape so this client
/// still types failures from a v1-only peer.
fn interpret(v: Json) -> Result<Json, ClientError> {
    let Some(status) = v.get("status").and_then(Json::as_str) else {
        return Err(ClientError::Protocol(format!("response without a status: {v}")));
    };
    if status == "ok" {
        return Ok(v);
    }
    let status = status.to_string();
    if let Some(e) = v.get("error") {
        let field = |k: &str| e.get(k).and_then(Json::as_str).map(str::to_string);
        return Err(ClientError::Remote {
            code: field("code")
                .ok_or_else(|| ClientError::Protocol(format!("error object without a code: {v}")))?,
            message: field("message").unwrap_or_default(),
            phase: field("phase"),
            retryable: e.get("retryable").and_then(Json::as_bool).unwrap_or(false),
            status,
        });
    }
    // v1 legacy shapes: `message` on `error`, bare status otherwise.
    let (code, retryable) = match status.as_str() {
        "timeout" => ("timeout", true),
        "overloaded" => ("shed", true),
        "shutting_down" => ("shutting_down", false),
        _ => ("internal", false),
    };
    Err(ClientError::Remote {
        code: code.to_string(),
        message: v.get("message").and_then(Json::as_str).unwrap_or("").to_string(),
        phase: None,
        retryable,
        status,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use safara_server::service::EngineConfig;

    const DOUBLE: &str = "void dbl(int n, float x[n]) {\
        #pragma acc kernels copy(x)\n{\
        #pragma acc loop gang vector\n\
        for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }";

    fn serve(config: EngineConfig) -> safara_server::server::ServerHandle {
        safara_server::serve("127.0.0.1:0", config).expect("bind ephemeral port")
    }

    #[test]
    fn ping_run_and_stats_roundtrip() {
        let handle = serve(EngineConfig::default());
        let client = Client::connect(handle.addr).expect("connect");
        assert_eq!(client.ping().unwrap().get("status").and_then(Json::as_str), Some("ok"));
        let args = Args::new().i32("n", 4).array_f32("x", &[1.0, 2.0, 3.0, 4.0]);
        let v = client.run(DOUBLE, "dbl", "base", &args, true).unwrap();
        let bits: Vec<u32> = v
            .get("arrays")
            .and_then(|a| a.get("x"))
            .and_then(|x| x.get("bits"))
            .and_then(Json::as_arr)
            .expect("bits")
            .iter()
            .map(|b| b.as_i64().unwrap() as u32)
            .collect();
        let floats: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        assert_eq!(floats, vec![2.0, 4.0, 6.0, 8.0]);
        let stats = client.stats().unwrap();
        assert_eq!(
            stats.get("server").and_then(|s| s.get("completed")).and_then(Json::as_i64),
            Some(2)
        );
        drop(client);
        handle.stop();
    }

    #[test]
    fn permanent_errors_are_typed_and_not_retried() {
        let handle = serve(EngineConfig::default());
        let client = Client::connect(handle.addr).expect("connect");
        let mut attempts = 0;
        let err = client
            .retry(&RetryPolicy::default(), || {
                attempts += 1;
                client.compile("void broken(", "base")
            })
            .unwrap_err();
        assert_eq!(attempts, 1, "parse errors are permanent");
        match err {
            ClientError::Remote { code, phase, retryable, .. } => {
                assert_eq!(code, "parse");
                assert_eq!(phase.as_deref(), Some("parse"));
                assert!(!retryable);
            }
            other => panic!("expected Remote, got {other:?}"),
        }
        drop(client);
        handle.stop();
    }

    #[test]
    fn pipelined_requests_resolve_out_of_submission_order() {
        let handle = serve(EngineConfig { workers: 2, ..EngineConfig::default() });
        let client = Client::connect(handle.addr).expect("connect");
        // A slow request first, a fast one second: waiting on the fast
        // one must not require the slow one to finish first.
        let slow = client
            .begin(vec![("op", Json::Str("sleep".into())), ("ms", Json::Int(200))])
            .unwrap();
        let fast = client.begin(vec![("op", Json::Str("ping".into()))]).unwrap();
        let t0 = Instant::now();
        assert_eq!(fast.wait().unwrap().get("status").and_then(Json::as_str), Some("ok"));
        assert!(t0.elapsed() < Duration::from_millis(150), "fast reply waited on slow");
        assert_eq!(slow.wait().unwrap().get("status").and_then(Json::as_str), Some("ok"));
        drop(client);
        handle.stop();
    }

    #[test]
    fn client_side_deadline_fires_and_late_reply_is_discarded() {
        let handle = serve(EngineConfig::default());
        let client = Client::connect(handle.addr).expect("connect");
        client.set_deadline(Duration::from_millis(50));
        let pending = client
            .begin(vec![("op", Json::Str("sleep".into())), ("ms", Json::Int(300))])
            .unwrap();
        assert_eq!(pending.wait().unwrap_err(), ClientError::Timeout);
        // The connection stays usable; the late reply routes nowhere.
        client.set_deadline(Duration::from_secs(5));
        assert_eq!(client.ping().unwrap().get("status").and_then(Json::as_str), Some("ok"));
        drop(client);
        handle.stop();
    }

    #[test]
    fn server_gone_fails_in_flight_and_subsequent_requests() {
        let handle = serve(EngineConfig::default());
        let client = Client::connect(handle.addr).expect("connect");
        assert!(client.ping().is_ok());
        // Ask the server to shut down; its goodbye races the close, so
        // accept either shape, then require ServerGone afterwards.
        let bye = client.begin(vec![("op", Json::Str("shutdown".into()))]).unwrap();
        let _ = bye.wait();
        handle.join();
        let err = loop {
            match client.ping() {
                Err(e) => break e,
                // A ping written before the FIN landed can still be
                // answered; keep going until the close is observed.
                Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        assert!(matches!(err, ClientError::ServerGone | ClientError::Io(_)), "got {err:?}");
        assert!(
            matches!(client.ping().unwrap_err(), ClientError::ServerGone | ClientError::Io(_)),
            "fails fast after the first detection"
        );
    }

    #[test]
    fn retry_resends_exactly_retryable_failures_until_success() {
        use safara_core::chaos::{FaultAction, FaultPlan, Fire, InjectionPoint};
        // The first two simulations fail with a retryable `sim` error;
        // the third identical attempt succeeds.
        let plan =
            FaultPlan::seeded(7).with(InjectionPoint::Sim, FaultAction::Fail, Fire::First(2));
        let handle = serve(EngineConfig { fault_plan: Arc::new(plan), ..EngineConfig::default() });
        let client = Client::connect(handle.addr).expect("connect");
        let args = Args::new().i32("n", 4).array_f32("x", &[1.0; 4]);
        let mut attempts = 0;
        let v = client
            .retry(&RetryPolicy { attempts: 5, base_ms: 1, cap_ms: 5, seed: 42 }, || {
                attempts += 1;
                client.run(DOUBLE, "dbl", "base", &args, false)
            })
            .expect("third attempt succeeds");
        assert_eq!(attempts, 3);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        // And the policy gives up: a plan that always fails exhausts
        // its attempts with the typed error intact.
        let always =
            FaultPlan::seeded(7).with(InjectionPoint::Sim, FaultAction::Fail, Fire::Prob(1.0));
        let handle2 =
            serve(EngineConfig { fault_plan: Arc::new(always), ..EngineConfig::default() });
        let client2 = Client::connect(handle2.addr).expect("connect");
        let mut attempts2 = 0;
        let err = client2
            .retry(&RetryPolicy { attempts: 3, base_ms: 1, cap_ms: 5, seed: 42 }, || {
                attempts2 += 1;
                client2.run(DOUBLE, "dbl", "base", &args, false)
            })
            .unwrap_err();
        assert_eq!(attempts2, 3);
        assert_eq!(err.code(), Some("sim"));
        assert!(err.retryable(), "gave up while the error stayed retryable");
        drop(client);
        drop(client2);
        handle.stop();
        handle2.stop();
    }
}
