//! The engine: a fixed worker pool executing requests from a bounded
//! queue against one process-wide shared launch cache.
//!
//! Transports (TCP, stdin) parse lines into [`Request`]s and call
//! [`Engine::submit`]; each job carries an `mpsc::Sender<String>` the
//! worker answers on, so a transport can multiplex many in-flight
//! requests per connection and write responses as they finish.
//! Admission control happens in `submit` (bounded queue, non-blocking
//! push → `overloaded`); deadlines are checked when a worker *dequeues*
//! a job — a request that waited past its timeout is answered `timeout`
//! without touching the pipeline — and re-checked between compile and
//! simulate and after simulate, so a request that *started* in time but
//! ran long is answered `timeout` too (counted `timed_out_late`).
//!
//! Every request feeds the engine's [`Metrics`]: queue-wait,
//! service-time (total and per-op), and reply-write latency histograms,
//! surfaced by the `stats` op.

use crate::protocol::{
    self, error_line_v, failure_line, status_line, Op, Request, WireError, DEFAULT_TIMEOUT_MS,
};
use crate::queue::{Bounded, PushError};
use safara_core::chaos::{FaultAction, FaultPlan, InjectionPoint};
use safara_core::gpusim::device::DeviceConfig;
use safara_core::gpusim::content::ContentKey;
use safara_core::gpusim::memo::DEFAULT_SHARDS;
use safara_core::obs::{Histogram, HistogramSnapshot, Tracer};
use safara_core::{
    run_compiled_with, CompiledProgram, CompilerConfig, Memo, RunCtx, SharedLaunchCache,
};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine sizing and policy.
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Bounded queue depth (≥ 1) — jobs admitted but not yet running.
    pub queue_depth: usize,
    /// Deadline for requests that set no `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Deterministic fault-injection plan threaded through admission,
    /// workers, the compile/run pipeline, and reply delivery.
    /// [`FaultPlan::none`] (the default) is inert.
    pub fault_plan: Arc<FaultPlan>,
    /// Single-flight dedup: an untraced run whose content key
    /// ([`protocol::run_key`]) matches an in-flight request parks as a
    /// waiter and receives the leader's response instead of re-running
    /// the pipeline. On by default; off makes every request a leader
    /// (`safara-serve --no-coalesce`; `server_integration.rs`'s
    /// warm-cache tests, which count one memo hit per request).
    pub coalesce: bool,
    /// Batched admission: a worker drains up to this many queued jobs
    /// sharing one program (source and resolved profile) per dequeue, so a
    /// batch compiles once and simulates many. 1 disables batching.
    pub max_batch: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            queue_depth: 64,
            default_timeout_ms: DEFAULT_TIMEOUT_MS,
            fault_plan: Arc::new(FaultPlan::none()),
            coalesce: true,
            max_batch: 8,
        }
    }
}

/// One admitted unit of work.
pub struct Job {
    /// The parsed request.
    pub request: Request,
    /// When admission control accepted it (queue-wait starts here).
    pub admitted: Instant,
    /// Absolute deadline (admission time + effective timeout).
    pub deadline: Instant,
    /// Where the worker sends the response line.
    pub reply: mpsc::Sender<String>,
    /// Single-flight key: set on untraced runs admitted as leaders.
    /// The worker fans this job's outcome out to every waiter parked
    /// under the key.
    pub flight_key: Option<ContentKey>,
    /// Batch key: the resolved profile name of an untraced run. Jobs
    /// sharing it *and* their source text may be drained together so a
    /// worker compiles once and simulates many.
    pub batch_profile: Option<&'static str>,
}

/// A request parked on an in-flight leader: everything needed to
/// render the leader's outcome as this request's own response.
struct Waiter {
    id: Option<i64>,
    v: u8,
    return_arrays: bool,
    deadline: Instant,
    reply: mpsc::Sender<String>,
}

/// Latency histograms the engine aggregates across all requests.
/// Everything is atomic ([`Histogram`] is lock-free), so workers record
/// without coordination.
pub struct Metrics {
    /// Admission → dequeue.
    pub queue_wait: Histogram,
    /// Dequeue → response line built, all ops.
    pub service: Histogram,
    /// Response handed to the transport → written to the peer.
    pub reply_write: Histogram,
    /// Jobs per dequeue under batched admission (a plain count, not
    /// microseconds — rendered without the `_us` suffix in stats).
    pub batch_size: Histogram,
    per_op: Vec<(&'static str, Histogram)>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            queue_wait: Histogram::new(),
            service: Histogram::new(),
            reply_write: Histogram::new(),
            batch_size: Histogram::new(),
            per_op: ["ping", "stats", "sleep", "compile", "run", "shutdown"]
                .iter()
                .map(|name| (*name, Histogram::new()))
                .collect(),
        }
    }
}

impl Metrics {
    fn op_name(op: &Op) -> &'static str {
        match op {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Sleep { .. } => "sleep",
            Op::Compile(_) => "compile",
            Op::Run(_) => "run",
            Op::Shutdown => "shutdown",
        }
    }

    fn record_service(&self, op: &Op, us: u64) {
        self.service.record(us);
        let name = Self::op_name(op);
        if let Some((_, h)) = self.per_op.iter().find(|(n, _)| *n == name) {
            h.record(us);
        }
    }

    /// Per-op service-time snapshots, ops that saw traffic only.
    pub fn per_op_snapshots(&self) -> Vec<(&'static str, HistogramSnapshot)> {
        self.per_op
            .iter()
            .filter(|(_, h)| h.count() > 0)
            .map(|(n, h)| (*n, h.snapshot()))
            .collect()
    }
}

/// Error codes the engine tallies per response (`stats` →
/// `errors_by_code`): the pipeline codes plus the server-level ones.
pub const ERROR_CODES: [&str; 13] = [
    "parse",
    "sema",
    "analysis",
    "regalloc_spill",
    "budget",
    "launch_bounds",
    "saturate",
    "sim",
    "internal",
    "bad_request",
    "resource_limit",
    "unknown_profile",
    "shed",
];

/// Lock-free per-code error counters (fixed code set, atomic cells).
#[derive(Default)]
pub struct ErrorCodeCounts {
    counts: [AtomicU64; ERROR_CODES.len()],
}

impl ErrorCodeCounts {
    fn record(&self, code: &str) {
        // Unknown codes land in `internal`: losing a count would break
        // the per-code sum ≤ errors invariant silently.
        let i = ERROR_CODES
            .iter()
            .position(|c| *c == code)
            .unwrap_or_else(|| ERROR_CODES.iter().position(|c| *c == "internal").expect("internal"));
        self.counts[i].fetch_add(1, Ordering::Relaxed);
    }

    /// `(code, count)` for every code that saw traffic.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        ERROR_CODES
            .iter()
            .zip(&self.counts)
            .map(|(c, n)| (*c, n.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    /// The count for one code.
    pub fn get(&self, code: &str) -> u64 {
        ERROR_CODES
            .iter()
            .position(|c| *c == code)
            .map(|i| self.counts[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Cap on stored programs, for the same reason the launch cache next
/// to it has `memo::DEFAULT_ENTRY_CAP`: a long-lived server must not
/// grow without limit. Far above any one client's working set.
const PROGRAM_STORE_CAP: usize = 1024;

/// Compiled programs by the resolved (display) name of their profile,
/// then by source text — nested, so a request looks its program up with
/// the `&str`s it holds and copies the source only to insert. Bounded:
/// inserting past [`PROGRAM_STORE_CAP`] evicts the oldest program.
#[derive(Default)]
struct ProgramStore {
    by_profile: HashMap<&'static str, HashMap<Arc<str>, Arc<CompiledProgram>>>,
    /// Keys in insertion order (front = oldest), for capped eviction.
    order: VecDeque<(&'static str, Arc<str>)>,
}

impl ProgramStore {
    fn get(&self, profile: &str, source: &str) -> Option<&Arc<CompiledProgram>> {
        self.by_profile.get(profile)?.get(source)
    }

    /// Store `program` unless a racing worker already stored one for
    /// the same key, evicting oldest-first past the cap.
    fn insert(&mut self, profile: &'static str, source: &str, program: &Arc<CompiledProgram>) {
        let by_source = self.by_profile.entry(profile).or_default();
        if by_source.contains_key(source) {
            return;
        }
        let source: Arc<str> = Arc::from(source);
        by_source.insert(Arc::clone(&source), Arc::clone(program));
        self.order.push_back((profile, source));
        while self.order.len() > PROGRAM_STORE_CAP {
            let Some((profile, source)) = self.order.pop_front() else { break };
            if let Some(by_source) = self.by_profile.get_mut(profile) {
                by_source.remove(&source);
            }
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }
}

/// State shared by workers and transports.
pub struct EngineShared {
    /// Pool size (fixed at start; panics respawn, so it stays the live
    /// worker count).
    pub workers: usize,
    /// The process-wide launch cache all workers memoize through.
    pub cache: SharedLaunchCache,
    /// Compiled programs, keyed by content so two requests share an
    /// entry only when they name the same program.
    programs: Mutex<ProgramStore>,
    /// Every submission attempt, admitted or not.
    pub submitted: AtomicU64,
    /// Requests answered `ok`.
    pub completed: AtomicU64,
    /// Requests refused because the queue was full — the subset of
    /// `shed` answered `overloaded`.
    pub rejected_overload: AtomicU64,
    /// Requests that expired waiting in the queue.
    pub timed_out: AtomicU64,
    /// Requests that started in time but finished past their deadline
    /// (caught by the post-compile / post-simulate re-checks).
    pub timed_out_late: AtomicU64,
    /// Requests answered `error`.
    pub errors: AtomicU64,
    /// Requests refused before queueing: a full queue or shutdown.
    pub shed: AtomicU64,
    /// Requests parked on an in-flight identical request (single-flight
    /// dedup) instead of running the pipeline themselves. A coalesced
    /// request is terminal for accounting (see [`EngineShared::accounted`]).
    pub coalesced: AtomicU64,
    /// Responses that could not be delivered because the client hung up
    /// (the reply channel was closed). Not an outcome: a dropped reply's
    /// request was already counted by how it ended. Includes parked
    /// waiters that hung up before the leader's fan-out.
    pub replies_dropped: AtomicU64,
    /// Errors by wire code (see [`ERROR_CODES`]).
    pub errors_by_code: ErrorCodeCounts,
    /// Worker panics caught and isolated (each also counts one
    /// `internal` error for its job).
    pub worker_panics: AtomicU64,
    /// Replacement workers spawned after a panic.
    pub worker_respawns: AtomicU64,
    /// Latency histograms (queue-wait, service, reply-write, per-op).
    pub metrics: Metrics,
    /// Set by a `shutdown` request; transports watch it.
    pub shutdown_requested: AtomicBool,
    /// Single-flight table: content key → waiters parked on its leader.
    /// An entry exists exactly while the leader's job is queued or
    /// running; fan-out removes it.
    inflight: Mutex<HashMap<ContentKey, Vec<Waiter>>>,
    /// Batch ceiling workers pass to [`Bounded::pop_batch`].
    max_batch: usize,
    faults: Arc<FaultPlan>,
}

impl EngineShared {
    /// The compiled program a request runs against, and the tracer that
    /// follows the request from here on. Untraced requests share
    /// programs through the store and get a disabled tracer; traced
    /// ones bypass it and compile fresh every time — the point is to
    /// observe the pipeline, so the span tree always shows the compile
    /// phases.
    fn program_for(
        &self,
        source: &str,
        profile_key: &str,
        trace: bool,
    ) -> Result<(Arc<CompiledProgram>, Tracer), WireError> {
        let config = protocol::resolve_profile(profile_key)?;
        let mut tracer = if trace { Tracer::new() } else { Tracer::disabled() };
        if !trace {
            let programs = self.programs.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(p) = programs.get(config.name, source) {
                return Ok((Arc::clone(p), tracer));
            }
        }
        // Compile outside the lock: compilation is the expensive half
        // and two workers racing on the same source just do it twice.
        // Injected compile faults surface here as typed errors and are
        // never stored, so a retry compiles clean.
        let program = safara_core::compile_with_faults(source, &config, &mut tracer, &self.faults)
            .map_err(|e| WireError::from_compile(&e))?;
        let program = Arc::new(program);
        if !trace {
            self.programs.lock().unwrap_or_else(|p| p.into_inner()).insert(
                config.name,
                source,
                &program,
            );
        }
        Ok((program, tracer))
    }

    /// Requests that reached an outcome. The accounting invariant: once
    /// no admitted job is queued or running, `submitted == completed +
    /// errors + timed_out + timed_out_late + shed + coalesced`, that is
    /// `submitted == accounted()`. Every submission lands in exactly one
    /// term (a waiter at park time, a leader when it finishes).
    pub fn accounted(&self) -> u64 {
        [
            &self.completed,
            &self.errors,
            &self.timed_out,
            &self.timed_out_late,
            &self.shed,
            &self.coalesced,
        ]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .sum()
    }

    /// Distinct compiled programs currently cached.
    pub fn programs_cached(&self) -> usize {
        self.programs.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The engine's fault plan (inert unless configured for chaos).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    fn record_error(&self, err: &WireError) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        self.errors_by_code.record(err.code);
    }
}

/// What [`Engine::submit`] did with a request.
pub enum Submit {
    /// Admitted; the response will arrive on the job's reply channel.
    Queued,
    /// Shed. The request is handed back (so a transport that *can*
    /// wait, like stdin batch mode, may retry) together with the
    /// ready-made `overloaded`/`shutting_down` response line.
    Rejected {
        /// The request admission control refused (boxed: requests embed
        /// full argument payloads and would dominate the enum's size).
        request: Box<Request>,
        /// The response line to send if the caller does not retry.
        response: String,
    },
}

/// The running service: worker pool + queue + shared state.
pub struct Engine {
    shared: Arc<EngineShared>,
    queue: Arc<Bounded<Job>>,
    /// Live worker handles. A worker that respawns after a panic
    /// registers its replacement here before exiting, so `shutdown` can
    /// always join the whole (possibly regenerated) pool.
    pool: Arc<Mutex<Vec<JoinHandle<()>>>>,
    default_timeout_ms: u64,
    coalesce: bool,
}

fn spawn_worker(
    shared: &Arc<EngineShared>,
    queue: &Arc<Bounded<Job>>,
    pool: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    name: String,
) {
    let shared_w = Arc::clone(shared);
    let queue_w = Arc::clone(queue);
    let pool_w = Arc::clone(pool);
    let h = std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&shared_w, &queue_w, &pool_w))
        .expect("spawn worker");
    // Register on the spawning side, before any exit path: shutdown's
    // join loop must always observe the replacement.
    pool.lock().unwrap_or_else(|p| p.into_inner()).push(h);
}

impl Engine {
    /// Spawn the worker pool.
    pub fn start(config: EngineConfig) -> Engine {
        let shared = Arc::new(EngineShared {
            workers: config.workers.max(1),
            cache: SharedLaunchCache::new(DEFAULT_SHARDS),
            programs: Mutex::default(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            timed_out_late: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            replies_dropped: AtomicU64::new(0),
            errors_by_code: ErrorCodeCounts::default(),
            worker_panics: AtomicU64::new(0),
            worker_respawns: AtomicU64::new(0),
            metrics: Metrics::default(),
            shutdown_requested: AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()),
            max_batch: config.max_batch.max(1),
            faults: Arc::clone(&config.fault_plan),
        });
        let queue = Arc::new(Bounded::new(config.queue_depth));
        let pool = Arc::new(Mutex::new(Vec::new()));
        for i in 0..config.workers.max(1) {
            spawn_worker(&shared, &queue, &pool, format!("safara-worker-{i}"));
        }
        Engine {
            shared,
            queue,
            pool,
            default_timeout_ms: config.default_timeout_ms,
            coalesce: config.coalesce,
        }
    }

    /// The shared state (cache, counters, shutdown flag).
    pub fn shared(&self) -> &Arc<EngineShared> {
        &self.shared
    }

    /// Submit a parsed request. Non-blocking; every attempt counts
    /// toward `submitted`, and a refusal (full queue or shutdown) comes
    /// straight back with its response line.
    pub fn submit(&self, request: Request, reply: mpsc::Sender<String>) -> Submit {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let (id, v) = (request.id, request.v);
        let timeout =
            Duration::from_millis(request.timeout_ms.unwrap_or(self.default_timeout_ms));
        // Untraced runs carry content keys: `flight` for single-flight
        // dedup, `batch_profile` for batched admission.
        let (flight, batch_profile) = match (&request.op, request.trace) {
            (Op::Run(r), false) => (
                if self.coalesce { Some((protocol::run_key(r), r.return_arrays)) } else { None },
                CompilerConfig::canonical_name(&r.profile),
            ),
            _ => (None, None),
        };
        // Single-flight: hold the inflight lock from the duplicate
        // check through the queue push, so two identical requests
        // racing through submit cannot both become leaders. Workers
        // take this lock only on its own (fan-out), so the
        // inflight → queue lock order cannot deadlock.
        let mut inflight = None;
        if let Some((key, return_arrays)) = flight {
            let mut table = self.shared.inflight.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(waiters) = table.get_mut(&key) {
                // A leader is already in flight: park. Deliberately no
                // queue-capacity check: a waiter costs no queue slot and
                // receives the leader's own verdict.
                waiters.push(Waiter {
                    id,
                    v,
                    return_arrays,
                    deadline: Instant::now() + timeout,
                    reply,
                });
                self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
                return Submit::Queued;
            }
            inflight = Some((table, key));
        }
        let admitted = Instant::now();
        let flight_key = inflight.as_ref().map(|(_, key)| *key);
        let job =
            Job { request, admitted, deadline: admitted + timeout, reply, flight_key, batch_profile };
        match self.queue.try_push(job) {
            Ok(()) => {
                // Register the leader only once its job is queued:
                // rejected leaders leave no entry for later duplicates
                // to park on (they would be stranded).
                if let Some((mut table, key)) = inflight {
                    table.insert(key, Vec::new());
                }
                Submit::Queued
            }
            Err(PushError::Full(job)) => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                self.shared.rejected_overload.fetch_add(1, Ordering::Relaxed);
                let err = WireError::shed();
                let response = failure_line(v, job.request.id, "overloaded", &err);
                Submit::Rejected { request: Box::new(job.request), response }
            }
            Err(PushError::Closed(job)) => {
                self.shared.shed.fetch_add(1, Ordering::Relaxed);
                let err = WireError::shutting_down();
                let response = failure_line(v, job.request.id, "shutting_down", &err);
                Submit::Rejected { request: Box::new(job.request), response }
            }
        }
    }

    /// The deadline `submit` applies when a request sets no timeout.
    pub fn default_timeout_ms(&self) -> u64 {
        self.default_timeout_ms
    }

    /// Render the `stats` response (also available as the `stats` op).
    pub fn stats_line(&self, id: Option<i64>) -> String {
        stats_line_for(&self.shared, self.queue.len(), id)
    }

    /// Stop admitting, drain admitted jobs, join the pool (including
    /// any workers respawned after panics).
    pub fn shutdown(self) {
        self.queue.close();
        loop {
            let h = self.pool.lock().unwrap_or_else(|p| p.into_inner()).pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

fn hist_json(snap: HistogramSnapshot) -> crate::json::Json {
    use crate::json::{obj, Json};
    obj(vec![
        ("count", Json::Int(snap.count as i64)),
        ("p50_us", Json::Int(snap.p50_us as i64)),
        ("p95_us", Json::Int(snap.p95_us as i64)),
        ("max_us", Json::Int(snap.max_us as i64)),
        ("mean_us", Json::Int(snap.mean_us as i64)),
    ])
}

fn stats_line_for(shared: &EngineShared, queue_len: usize, id: Option<i64>) -> String {
    use crate::json::{obj, Json};
    let mut base = protocol::response_base(id, "ok");
    let Json::Obj(fields) = &mut base else { unreachable!("response_base builds an object") };
    fields.push(("op".into(), Json::Str("stats".into())));
    fields.push((
        "server".into(),
        obj(vec![
            ("workers", Json::Int(shared.workers as i64)),
            ("queue_len", Json::Int(queue_len as i64)),
            ("submitted", Json::Int(shared.submitted.load(Ordering::Relaxed) as i64)),
            ("completed", Json::Int(shared.completed.load(Ordering::Relaxed) as i64)),
            (
                "rejected_overload",
                Json::Int(shared.rejected_overload.load(Ordering::Relaxed) as i64),
            ),
            ("timed_out", Json::Int(shared.timed_out.load(Ordering::Relaxed) as i64)),
            (
                "timed_out_late",
                Json::Int(shared.timed_out_late.load(Ordering::Relaxed) as i64),
            ),
            ("errors", Json::Int(shared.errors.load(Ordering::Relaxed) as i64)),
            ("shed", Json::Int(shared.shed.load(Ordering::Relaxed) as i64)),
            ("coalesced", Json::Int(shared.coalesced.load(Ordering::Relaxed) as i64)),
            (
                "replies_dropped",
                Json::Int(shared.replies_dropped.load(Ordering::Relaxed) as i64),
            ),
            ("worker_panics", Json::Int(shared.worker_panics.load(Ordering::Relaxed) as i64)),
            (
                "worker_respawns",
                Json::Int(shared.worker_respawns.load(Ordering::Relaxed) as i64),
            ),
            ("programs_cached", Json::Int(shared.programs_cached() as i64)),
        ]),
    ));
    fields.push((
        "errors_by_code".into(),
        Json::Obj(
            shared
                .errors_by_code
                .nonzero()
                .into_iter()
                .map(|(code, n)| (code.to_string(), Json::Int(n as i64)))
                .collect(),
        ),
    ));
    let fc = safara_core::gpusim::fusion_counters();
    fields.push((
        "fusion".into(),
        obj(vec![
            ("launches", Json::Int(fc.launches as i64)),
            ("delegated", Json::Int(fc.delegated as i64)),
            ("hot_blocks", Json::Int(fc.hot_blocks as i64)),
            ("superblocks", Json::Int(fc.superblocks as i64)),
            ("fused_blocks", Json::Int(fc.fused_blocks as i64)),
            ("hoisted", Json::Int(fc.hoisted as i64)),
            ("scalar_execs", Json::Int(fc.scalar_execs as i64)),
            ("vector_execs", Json::Int(fc.vector_execs as i64)),
            ("peels", Json::Int(fc.peels as i64)),
            ("groups_accounted", Json::Int(fc.groups_accounted as i64)),
            ("lane_events_logged", Json::Int(fc.lane_events_logged as i64)),
            ("trig_pairs", Json::Int(fc.trig_pairs as i64)),
        ]),
    ));
    if !shared.faults.is_inert() {
        fields.push((
            "faults".into(),
            obj(vec![
                ("seed", Json::Int(shared.faults.seed() as i64)),
                ("fired", Json::Int(shared.faults.fired_total() as i64)),
            ]),
        ));
    }
    let per_op: Vec<(String, Json)> = shared
        .metrics
        .per_op_snapshots()
        .into_iter()
        .map(|(name, snap)| (name.to_string(), hist_json(snap)))
        .collect();
    fields.push((
        "latency".into(),
        obj(vec![
            ("queue_wait", hist_json(shared.metrics.queue_wait.snapshot())),
            ("service", hist_json(shared.metrics.service.snapshot())),
            ("reply_write", hist_json(shared.metrics.reply_write.snapshot())),
            ("per_op", Json::Obj(per_op)),
        ]),
    ));
    // Batch sizes are plain counts; reuse the histogram but drop the
    // `_us` suffix the latency sections carry.
    let bs = shared.metrics.batch_size.snapshot();
    fields.push((
        "batches".into(),
        obj(vec![
            ("count", Json::Int(bs.count as i64)),
            ("p50", Json::Int(bs.p50_us as i64)),
            ("p95", Json::Int(bs.p95_us as i64)),
            ("max", Json::Int(bs.max_us as i64)),
            ("mean", Json::Int(bs.mean_us as i64)),
        ]),
    ));
    fields.push((
        "cache".into(),
        obj(vec![
            ("hits", Json::Int(shared.cache.hits() as i64)),
            ("misses", Json::Int(shared.cache.misses() as i64)),
            ("entries", Json::Int(shared.cache.len() as i64)),
            ("evictions", Json::Int(shared.cache.evictions() as i64)),
            ("contention", Json::Int(shared.cache.contention() as i64)),
        ]),
    ));
    base.dump()
}

/// What a worker's [`execute`] produced.
enum ExecOutcome {
    /// A complete response line (counted `completed`).
    Reply(String),
    /// An untraced run's structured result — the outcome plus the
    /// post-run arguments, kept unrendered so single-flight fan-out can
    /// serialize one response per waiter with the waiter's own id and
    /// array-return preference (counted `completed`).
    Run(Box<(safara_core::RunOutcome, safara_core::Args)>),
    /// A typed failure (counted `errors` + per-code, answered `error`).
    Fail(WireError),
    /// The pipeline finished past the job's deadline (counted
    /// `timed_out_late`, answered `timeout`).
    DeadlineExceeded,
}

/// Deliver the leader's outcome to every waiter parked under `key`,
/// each rendered with the waiter's own id, protocol version, and
/// array-return preference — byte-for-byte what the waiter would have
/// received had it run alone. A waiter whose deadline passed while
/// parked gets `timeout` instead (it was counted `coalesced` at park
/// time; no other counter moves). Hung-up waiters count
/// `replies_dropped`, same as hung-up leaders.
fn fan_out(shared: &EngineShared, key: ContentKey, outcome: &ExecOutcome) {
    let waiters = shared
        .inflight
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&key)
        .unwrap_or_default();
    let now = Instant::now();
    for w in waiters {
        let line = if now > w.deadline {
            failure_line(w.v, w.id, "timeout", &WireError::timeout())
        } else {
            match outcome {
                ExecOutcome::Run(done) => {
                    protocol::run_response(w.id, &done.0, &done.1, w.return_arrays, None)
                }
                ExecOutcome::Fail(err) => error_line_v(w.v, w.id, err),
                ExecOutcome::DeadlineExceeded => {
                    failure_line(w.v, w.id, "timeout", &WireError::timeout())
                }
                // Leaders that coalesce are always untraced runs, which
                // produce `Run` or `Fail`; answer defensively.
                ExecOutcome::Reply(_) => {
                    error_line_v(w.v, w.id, &WireError::internal("coalesced onto a non-run leader"))
                }
            }
        };
        if w.reply.send(line).is_err() {
            shared.replies_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Do two queued jobs resolve to the same program-store entry — same
/// resolved profile, same source text?
fn same_program(a: &Job, b: &Job) -> bool {
    match (&a.request.op, &b.request.op) {
        (Op::Run(x), Op::Run(y)) => {
            a.batch_profile.is_some()
                && a.batch_profile == b.batch_profile
                && x.source == y.source
        }
        _ => false,
    }
}

fn worker_loop(
    shared: &Arc<EngineShared>,
    queue: &Arc<Bounded<Job>>,
    pool: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    // Batched admission: drain same-program jobs together so the batch
    // resolves one compiled program and then simulates many. Jobs
    // without a batch key (pings, compiles, traced runs) never batch.
    while let Some(batch) = queue.pop_batch(shared.max_batch, same_program) {
        shared.metrics.batch_size.record(batch.len() as u64);
        let mut panicked = false;
        for job in batch {
            panicked |= process_job(shared, queue, job);
        }
        if panicked {
            // A panicking job may leave this thread's stack tainted:
            // finish the batch (done above — every job got its typed
            // answer), then hand over to a replacement.
            shared.worker_respawns.fetch_add(1, Ordering::Relaxed);
            spawn_worker(shared, queue, pool, "safara-worker-respawn".into());
            return;
        }
    }
}

/// Execute one dequeued job end to end: deadline check, pipeline,
/// counters, reply delivery, and single-flight fan-out on every
/// outcome path. Returns true when the job's pipeline panicked (the
/// caller must respawn this worker after finishing its batch).
fn process_job(shared: &Arc<EngineShared>, queue: &Arc<Bounded<Job>>, mut job: Job) -> bool {
    let id = job.request.id;
    let v = job.request.v;
    let dequeued = Instant::now();
    shared
        .metrics
        .queue_wait
        .record(dequeued.duration_since(job.admitted).as_micros() as u64);
    if dequeued > job.deadline {
        shared.timed_out.fetch_add(1, Ordering::Relaxed);
        let line = failure_line(v, id, "timeout", &WireError::timeout());
        if job.reply.send(line).is_err() {
            shared.replies_dropped.fetch_add(1, Ordering::Relaxed);
        }
        // The leader expired in the queue; its waiters expire with it
        // (they parked no earlier than the leader was admitted).
        if let Some(key) = job.flight_key {
            fan_out(shared, key, &ExecOutcome::DeadlineExceeded);
        }
        return false;
    }
    // Panic isolation: a panicking pipeline (or an injected `worker`
    // fault) takes down this job, not the pool. The job still gets a
    // typed, retryable answer, and the worker replaces itself.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        execute(shared, queue, &mut job.request, job.deadline)
    }));
    let (outcome, panicked) = match caught {
        Ok(outcome) => (outcome, false),
        Err(_) => {
            shared.worker_panics.fetch_add(1, Ordering::Relaxed);
            let err = WireError::internal(
                "worker panicked while executing the request; a replacement was spawned",
            );
            (ExecOutcome::Fail(err), true)
        }
    };
    shared
        .metrics
        .record_service(&job.request.op, dequeued.elapsed().as_micros() as u64);
    // Waiters get the leader's verdict before the leader's own reply is
    // rendered: the same typed error (retryability intact) or the same
    // run outcome re-serialized per waiter.
    if let Some(key) = job.flight_key {
        fan_out(shared, key, &outcome);
    }
    let line = match outcome {
        ExecOutcome::Reply(line) => {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            line
        }
        ExecOutcome::Run(done) => {
            shared.completed.fetch_add(1, Ordering::Relaxed);
            let return_arrays = match &job.request.op {
                Op::Run(r) => r.return_arrays,
                _ => false,
            };
            protocol::run_response(id, &done.0, &done.1, return_arrays, None)
        }
        ExecOutcome::Fail(err) => {
            shared.record_error(&err);
            error_line_v(v, id, &err)
        }
        ExecOutcome::DeadlineExceeded => {
            shared.timed_out_late.fetch_add(1, Ordering::Relaxed);
            failure_line(v, id, "timeout", &WireError::timeout())
        }
    };
    // Injected client hangup: the reply is built, then dropped —
    // exactly what a closed connection looks like to the worker.
    if matches!(shared.faults.at(InjectionPoint::Reply), Some(FaultAction::Hangup)) {
        shared.replies_dropped.fetch_add(1, Ordering::Relaxed);
    } else if job.reply.send(line).is_err() {
        // A send error means the client hung up; count the lost reply.
        shared.replies_dropped.fetch_add(1, Ordering::Relaxed);
    }
    panicked
}

/// Run one request. A `run` gives up its arguments: the pipeline works
/// on the request's own arrays (taken, not copied) and they leave in
/// the outcome as the post-run contents.
fn execute(
    shared: &EngineShared,
    queue: &Bounded<Job>,
    request: &mut Request,
    deadline: Instant,
) -> ExecOutcome {
    let id = request.id;
    // Injected worker faults: a `panic` action unwinds into the
    // worker's catch_unwind (exercising isolation + respawn); a `fail`
    // is a plain retryable internal error.
    if let Some(action) = shared.faults.at(InjectionPoint::WorkerJob) {
        match action {
            FaultAction::Panic => panic!("injected worker panic"),
            _ => return ExecOutcome::Fail(WireError::internal("injected worker fault")),
        }
    }
    match &mut request.op {
        Op::Ping => ExecOutcome::Reply(status_line(id, "ok")),
        Op::Stats => ExecOutcome::Reply(stats_line_for(shared, queue.len(), id)),
        Op::Sleep { ms } => {
            // Diagnostic op for exercising admission control: clamp so a
            // stray request cannot wedge a worker for long.
            std::thread::sleep(Duration::from_millis((*ms).min(2_000)));
            if Instant::now() > deadline {
                return ExecOutcome::DeadlineExceeded;
            }
            ExecOutcome::Reply(status_line(id, "ok"))
        }
        Op::Shutdown => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            ExecOutcome::Reply(status_line(id, "shutting_down"))
        }
        Op::Compile(c) => {
            let (program, tracer) = match shared.program_for(&c.source, &c.profile, request.trace) {
                Ok(done) => done,
                Err(e) => return ExecOutcome::Fail(e),
            };
            if Instant::now() > deadline {
                return ExecOutcome::DeadlineExceeded;
            }
            let spans = request.trace.then(|| tracer.finish());
            match protocol::compile_response(id, &program, c.entry.as_deref(), spans.as_deref()) {
                Ok(line) => ExecOutcome::Reply(line),
                Err(e) => ExecOutcome::Fail(e),
            }
        }
        Op::Run(r) => {
            let (program, mut tracer) =
                match shared.program_for(&r.source, &r.profile, request.trace) {
                    Ok(done) => done,
                    Err(e) => return ExecOutcome::Fail(e),
                };
            // Compilation can be slow; a request may start in time and
            // still blow its deadline here. Re-check before simulating.
            if Instant::now() > deadline {
                return ExecOutcome::DeadlineExceeded;
            }
            let mut args = std::mem::take(&mut r.args);
            let ctx = RunCtx {
                memo: Memo::Shared(&shared.cache),
                tracer: &mut tracer,
                faults: &shared.faults,
            };
            let ran = run_compiled_with(&program, &r.entry, &mut args, &DeviceConfig::k20xm(), ctx);
            let outcome = match ran {
                Ok((_, outcome)) => outcome,
                Err(e) => return ExecOutcome::Fail(WireError::from_compile(&e)),
            };
            if Instant::now() > deadline {
                return ExecOutcome::DeadlineExceeded;
            }
            if request.trace {
                let spans = tracer.finish();
                return ExecOutcome::Reply(protocol::run_response(
                    id,
                    &outcome,
                    &args,
                    r.return_arrays,
                    Some(&spans),
                ));
            }
            // Unrendered: the worker serializes one line per recipient
            // (the leader and any coalesced waiters).
            ExecOutcome::Run(Box::new((outcome, args)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::protocol::parse_request;
    use safara_core::chaos::Fire;

    fn status_of(line: &str) -> String {
        Json::parse(line)
            .unwrap()
            .get("status")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    }

    fn submit_line(engine: &Engine, line: &str, tx: &mpsc::Sender<String>) -> Option<String> {
        match engine.submit(parse_request(line).unwrap(), tx.clone()) {
            Submit::Queued => None,
            Submit::Rejected { response, .. } => Some(response),
        }
    }

    #[test]
    fn a_requests_arrays_are_hashed_once_across_run_key_and_launch_key() {
        // `submit` keys the request on this thread; the worker's launch
        // then reads the keys the arrays' allocations carry, and hashes
        // only what the kernel wrote.
        let engine = Engine::start(EngineConfig { workers: 1, ..EngineConfig::default() });
        let src = "void axpy(int n, float alpha, const float x[n], float y[n]) {\
                   #pragma acc kernels copyin(x) copy(y)\n{\
                   #pragma acc loop gang vector\n\
                   for (int i = 0; i < n; i++) { y[i] = y[i] + alpha * x[i]; } } }";
        let args = safara_core::Args::new()
            .i32("n", 16)
            .f32("alpha", 3.0)
            .array_f32("x", &[1.0; 16])
            .array_f32("y", &[0.5; 16]);
        let line = protocol::build_run_request(1, src, "axpy", "safara_only", &args, false);
        let (tx, rx) = mpsc::channel();
        let before = safara_core::gpusim::shared::bytes_keyed();
        assert!(matches!(engine.submit(parse_request(&line).unwrap(), tx), Submit::Queued));
        let by_run_key = safara_core::gpusim::shared::bytes_keyed() - before;
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(status_of(&reply), "ok");
        assert_eq!(by_run_key, 2 * 16 * 4, "run_key hashes `x` and `y`, once each");
        assert_eq!(engine.shared().cache.bytes_hashed(), 16 * 4, "the launch hashes only `y` out");
        engine.shutdown();
    }

    #[test]
    fn a_memo_hit_reply_digests_only_the_arrays_its_request_brought() {
        // The job runs and renders on this thread (not a worker's), where
        // `bytes_digested` counts. The second request hits the memo: its
        // `y` is the entry's allocation, which the first reply digested.
        let engine = Engine::start(EngineConfig { workers: 1, ..EngineConfig::default() });
        let src = "void axpy(int n, float alpha, const float x[n], float y[n]) {\
                   #pragma acc kernels copyin(x) copy(y)\n{\
                   #pragma acc loop gang vector\n\
                   for (int i = 0; i < n; i++) { y[i] = y[i] + alpha * x[i]; } } }";
        let args = safara_core::Args::new()
            .i32("n", 16)
            .f32("alpha", 3.0)
            .array_f32("x", &[1.0; 16])
            .array_f32("y", &[0.5; 16]);
        let line = protocol::build_run_request(1, src, "axpy", "safara_only", &args, false);
        let (mut digested, mut replies) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            let (tx, rx) = mpsc::channel();
            let job = Job {
                request: parse_request(&line).unwrap(),
                admitted: Instant::now(),
                deadline: Instant::now() + Duration::from_secs(30),
                reply: tx,
                flight_key: None,
                batch_profile: None,
            };
            let before = protocol::bytes_digested();
            assert!(!process_job(&engine.shared, &engine.queue, job), "no panic");
            digested.push(protocol::bytes_digested() - before);
            replies.push(rx.recv().unwrap());
        }
        assert_eq!(status_of(&replies[0]), "ok");
        assert_eq!(replies[0], replies[1], "a hit renders the miss's reply");
        assert_eq!(engine.shared().cache.hits(), 1);
        assert_eq!(digested, [2 * 16 * 4, 16 * 4], "the hit digests `x` only");
        engine.shutdown();
    }

    #[test]
    fn ping_compile_and_run_roundtrip() {
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_depth: 8,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let src = "void axpy(int n, float alpha, const float x[n], float y[n]) {\
                   #pragma acc kernels copyin(x) copy(y)\n{\
                   #pragma acc loop gang vector\n\
                   for (int i = 0; i < n; i++) { y[i] = y[i] + alpha * x[i]; } } }";
        let run = protocol::build_run_request(
            2,
            src,
            "axpy",
            "safara_only",
            &safara_core::Args::new()
                .i32("n", 16)
                .f32("alpha", 3.0)
                .array_f32("x", &[1.0; 16])
                .array_f32("y", &[0.5; 16]),
            true,
        );
        for line in [r#"{"id":1,"op":"ping"}"#, run.as_str()] {
            assert!(submit_line(&engine, line, &tx).is_none());
        }
        let mut got = HashMap::new();
        for _ in 0..2 {
            let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            let v = Json::parse(&line).unwrap();
            got.insert(v.get("id").and_then(Json::as_i64).unwrap(), line);
        }
        assert_eq!(status_of(&got[&1]), "ok");
        let run_resp = Json::parse(&got[&2]).unwrap();
        assert_eq!(run_resp.get("status").and_then(Json::as_str), Some("ok"));
        let y_bits = run_resp
            .get("arrays")
            .and_then(|a| a.get("y"))
            .and_then(|y| y.get("bits"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(y_bits.len(), 16);
        assert_eq!(y_bits[0].as_i64().unwrap() as u32, 3.5f32.to_bits());
        assert!(run_resp.get("max_regs").and_then(Json::as_i64).unwrap() > 0);
        engine.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        // One worker held by a sleep + depth-1 queue: the third request
        // must be shed deterministically.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 1,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        assert!(submit_line(&engine, r#"{"id":1,"op":"sleep","ms":300}"#, &tx).is_none());
        // Give the worker time to dequeue job 1 so job 2 occupies the
        // queue slot; then job 3 must bounce.
        std::thread::sleep(Duration::from_millis(100));
        assert!(submit_line(&engine, r#"{"id":2,"op":"ping"}"#, &tx).is_none());
        let rejected = submit_line(&engine, r#"{"id":3,"v":2,"op":"ping"}"#, &tx).unwrap();
        let v = Json::parse(&rejected).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("overloaded"));
        let e = v.get("error").expect("v2 error object");
        assert_eq!(e.get("code").and_then(Json::as_str), Some("shed"));
        assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(true));
        assert_eq!(status_of(&rx.recv_timeout(Duration::from_secs(5)).unwrap()), "ok");
        assert_eq!(status_of(&rx.recv_timeout(Duration::from_secs(5)).unwrap()), "ok");
        let shared = engine.shared();
        assert_eq!(shared.shed.load(Ordering::Relaxed), 1);
        assert_eq!(shared.rejected_overload.load(Ordering::Relaxed), 1);
        counters_balance(shared);
        engine.shutdown();
    }

    #[test]
    fn stale_requests_time_out_at_dequeue() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        assert!(submit_line(&engine, r#"{"id":1,"op":"sleep","ms":300}"#, &tx).is_none());
        // Queued behind the sleep with a 10 ms deadline: expired by the
        // time the worker frees up.
        assert!(
            submit_line(&engine, r#"{"id":2,"op":"ping","timeout_ms":10}"#, &tx).is_none()
        );
        let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(status_of(&first), "ok");
        let second = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(status_of(&second), "timeout");
        assert_eq!(Json::parse(&second).unwrap().get("id").and_then(Json::as_i64), Some(2));
        assert_eq!(engine.shared().timed_out.load(Ordering::Relaxed), 1);
        engine.shutdown();
    }

    #[test]
    fn requests_that_start_in_time_but_finish_late_get_timeout() {
        // A sleep that starts well inside its deadline but finishes past
        // it: the pre-2026 server would answer `ok` because the deadline
        // was only checked at dequeue.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        assert!(
            submit_line(&engine, r#"{"id":1,"op":"sleep","ms":300,"timeout_ms":100}"#, &tx)
                .is_none()
        );
        let line = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(status_of(&line), "timeout");
        assert_eq!(engine.shared().timed_out.load(Ordering::Relaxed), 0, "started in time");
        assert_eq!(engine.shared().timed_out_late.load(Ordering::Relaxed), 1);
        engine.shutdown();
    }

    #[test]
    fn slow_pipeline_work_respects_the_deadline_too() {
        // A real compile+simulate request with a 1 ms budget: whether it
        // expires in the queue or mid-pipeline, the answer must be
        // `timeout` and exactly one timeout counter must move.
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        // 64 lanes × 20k sequential iterations: slow enough that even a
        // release-mode simulator cannot finish inside 1 ms.
        let src = "void grind(int n, float x[n]) {\
                   #pragma acc kernels copy(x)\n{\
                   #pragma acc loop gang vector\n\
                   for (int i = 0; i < n; i++) {\
                   #pragma acc loop seq\n\
                   for (int k = 0; k < 20000; k++) { x[i] = x[i] * 1.0001f + 0.5f; } } } }";
        let mut line = protocol::build_run_request(
            7,
            src,
            "grind",
            "safara_only",
            &safara_core::Args::new().i32("n", 64).array_f32("x", &[1.0; 64]),
            false,
        );
        line = line.replacen("{", r#"{"timeout_ms":1,"#, 1);
        assert!(submit_line(&engine, &line, &tx).is_none());
        let resp = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(status_of(&resp), "timeout");
        let shared = engine.shared();
        let early = shared.timed_out.load(Ordering::Relaxed);
        let late = shared.timed_out_late.load(Ordering::Relaxed);
        assert_eq!(early + late, 1, "one request, one timeout ({early} early, {late} late)");
        assert_eq!(shared.completed.load(Ordering::Relaxed), 0);
        engine.shutdown();
    }

    #[test]
    fn hung_up_clients_count_as_replies_dropped() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        assert!(submit_line(&engine, r#"{"id":1,"op":"ping"}"#, &tx).is_none());
        drop(rx); // client hangs up before the worker answers
        drop(tx);
        let shared = Arc::clone(engine.shared());
        engine.shutdown(); // drains the queue: the send must have failed by now
        assert_eq!(shared.replies_dropped.load(Ordering::Relaxed), 1);
        // The outcome counters still balance: the request completed,
        // only its delivery failed.
        assert_eq!(shared.completed.load(Ordering::Relaxed), 1);
    }

    /// How a run executes belongs to the server process: a v2 run line
    /// that names an engine, a worker count or a hot-block threshold — of
    /// any value and type — is the same request as the line without them,
    /// and is answered with the same bytes.
    #[test]
    fn exec_fields_on_the_wire_are_ignored() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let src = "void axpy(int n, float alpha, const float x[n], float y[n]) {\
                   #pragma acc kernels copyin(x) copy(y)\n{\
                   #pragma acc loop gang vector\n\
                   for (int i = 0; i < n; i++) { y[i] = y[i] + alpha * x[i]; } } }";
        let args = safara_core::Args::new()
            .i32("n", 64)
            .f32("alpha", 2.0)
            .array_f32("x", &[1.5; 64])
            .array_f32("y", &[0.25; 64]);
        let plain = protocol::RunRequestLine {
            v: 2,
            ..protocol::RunRequestLine::new(1, src, "axpy", "safara_only", &args, true)
        }
        .render();
        let stale = format!(
            "{},\"engine\":\"bogus\",\"sim_threads\":true,\"sb_threshold\":\"x\"}}",
            plain.strip_suffix('}').expect("an object")
        );
        assert_eq!(parse_request(&stale), parse_request(&plain));
        let mut replies = Vec::new();
        for line in [&plain, &stale] {
            assert!(submit_line(&engine, line, &tx).is_none());
            replies.push(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        assert_eq!(status_of(&replies[0]), "ok", "{}", replies[0]);
        assert_eq!(replies[1], replies[0]);
        // `stats` reports the process-wide fusion counters, and the run
        // above moved them.
        assert!(submit_line(&engine, r#"{"id":10,"op":"stats"}"#, &tx).is_none());
        let stats = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let v = Json::parse(&stats).unwrap();
        let fusion = v.get("fusion").expect("fusion block");
        assert!(fusion.get("launches").and_then(Json::as_i64).unwrap() >= 1, "{stats}");
        engine.shutdown();
    }

    #[test]
    fn traced_run_response_carries_a_well_formed_span_tree() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let src = "void axpy(int n, float alpha, const float x[n], float y[n]) {\
                   #pragma acc kernels copyin(x) copy(y)\n{\
                   #pragma acc loop gang vector\n\
                   for (int i = 0; i < n; i++) { y[i] = y[i] + alpha * x[i]; } } }";
        let args = safara_core::Args::new()
            .i32("n", 32)
            .f32("alpha", 2.0)
            .array_f32("x", &[1.0; 32])
            .array_f32("y", &[0.0; 32]);
        // Warm the program store first so the test proves traced runs
        // compile fresh (the compile phases must still appear).
        let warm = protocol::build_run_request(1, src, "axpy", "safara_only", &args, false);
        assert!(submit_line(&engine, &warm, &tx).is_none());
        assert_eq!(status_of(&rx.recv_timeout(Duration::from_secs(30)).unwrap()), "ok");

        let mut traced = Json::parse(
            &protocol::build_run_request(2, src, "axpy", "safara_only", &args, false),
        )
        .unwrap();
        let Json::Obj(fields) = &mut traced else { unreachable!() };
        fields.push(("trace".into(), Json::Bool(true)));
        assert!(submit_line(&engine, &traced.dump(), &tx).is_none());
        let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{line}");
        let trace = v.get("trace").and_then(Json::as_arr).expect("trace span array");
        let names: Vec<&str> =
            trace.iter().map(|s| s.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(names, ["parse", "sema", "analysis", "opt", "sim"]);
        // Every build is a `codegen` + `regalloc` pair nested under `opt`.
        assert!(line.contains(r#""name":"codegen""#) && line.contains(r#""name":"regalloc""#));
        for span in trace {
            assert!(span.get("start_us").and_then(Json::as_i64).unwrap() >= 0);
            assert!(span.get("dur_us").and_then(Json::as_i64).unwrap() >= 0);
        }
        // The sim span has the h2d → launch → d2h children.
        let sim = trace.iter().find(|s| s.get("name").and_then(Json::as_str) == Some("sim"));
        let kids = sim.unwrap().get("children").and_then(Json::as_arr).expect("sim children");
        let kid_names: Vec<&str> =
            kids.iter().map(|s| s.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(kid_names, ["h2d", "launch", "d2h"]);

        // Untraced responses carry no trace field.
        let plain = protocol::build_run_request(3, src, "axpy", "safara_only", &args, false);
        assert!(submit_line(&engine, &plain, &tx).is_none());
        let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(Json::parse(&line).unwrap().get("trace").is_none());
        engine.shutdown();
    }

    #[test]
    fn stats_reports_latency_histograms_and_cache_counters() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for i in 0..3 {
            let line = format!(r#"{{"id":{i},"op":"ping"}}"#);
            assert!(submit_line(&engine, &line, &tx).is_none());
        }
        for _ in 0..3 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let stats = Json::parse(&engine.stats_line(Some(99))).unwrap();
        let latency = stats.get("latency").expect("latency section");
        let qw = latency.get("queue_wait").expect("queue_wait");
        assert_eq!(qw.get("count").and_then(Json::as_i64), Some(3));
        assert!(qw.get("p50_us").and_then(Json::as_i64).is_some());
        assert!(qw.get("p95_us").and_then(Json::as_i64).is_some());
        assert!(qw.get("max_us").and_then(Json::as_i64).is_some());
        assert_eq!(latency.get("service").and_then(|s| s.get("count")).and_then(Json::as_i64), Some(3));
        let ping = latency.get("per_op").and_then(|p| p.get("ping")).expect("per-op ping");
        assert_eq!(ping.get("count").and_then(Json::as_i64), Some(3));
        assert!(latency.get("per_op").and_then(|p| p.get("run")).is_none(), "no runs yet");
        let cache = stats.get("cache").expect("cache section");
        assert_eq!(cache.get("evictions").and_then(Json::as_i64), Some(0));
        assert!(cache.get("contention").and_then(Json::as_i64).is_some());
        let server = stats.get("server").expect("server section");
        assert_eq!(server.get("timed_out_late").and_then(Json::as_i64), Some(0));
        assert_eq!(server.get("replies_dropped").and_then(Json::as_i64), Some(0));
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_jobs() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for i in 0..5 {
            let line = format!(r#"{{"id":{i},"op":"ping"}}"#);
            assert!(submit_line(&engine, &line, &tx).is_none());
        }
        engine.shutdown(); // closes the queue, then joins: must drain all 5
        let mut ok = 0;
        while let Ok(line) = rx.try_recv() {
            assert_eq!(status_of(&line), "ok");
            ok += 1;
        }
        assert_eq!(ok, 5);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let bad = r#"{"id":1,"op":"run","source":"void f(","entry":"f","profile":"base"}"#;
        assert!(submit_line(&engine, bad, &tx).is_none());
        let unknown_profile =
            r#"{"id":2,"op":"compile","source":"void f() {}","profile":"gcc"}"#;
        assert!(submit_line(&engine, unknown_profile, &tx).is_none());
        for _ in 0..2 {
            let line = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(status_of(&line), "error");
            assert!(Json::parse(&line).unwrap().get("message").is_some());
        }
        assert_eq!(engine.shared().errors.load(Ordering::Relaxed), 2);
        engine.shutdown();
    }

    fn counters_balance(shared: &EngineShared) {
        let submitted = shared.submitted.load(Ordering::Relaxed);
        assert_eq!(submitted, shared.accounted(), "accounting invariant");
    }

    #[test]
    fn worker_panics_are_isolated_and_respawned() {
        let plan = Arc::new(
            FaultPlan::seeded(1).with(InjectionPoint::WorkerJob, FaultAction::Panic, Fire::First(2)),
        );
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_depth: 16,
            fault_plan: plan,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        for i in 1..=6 {
            let line = format!(r#"{{"id":{i},"v":2,"op":"ping"}}"#);
            assert!(submit_line(&engine, &line, &tx).is_none());
        }
        let mut ok = 0;
        let mut internal = 0;
        for _ in 0..6 {
            let line = rx.recv_timeout(Duration::from_secs(10)).expect("pool must survive");
            match status_of(&line).as_str() {
                "ok" => ok += 1,
                "error" => {
                    let v = Json::parse(&line).unwrap();
                    let e = v.get("error").expect("v2 error object");
                    assert_eq!(e.get("code").and_then(Json::as_str), Some("internal"));
                    assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(true));
                    internal += 1;
                }
                other => panic!("unexpected status {other}: {line}"),
            }
        }
        assert_eq!((ok, internal), (4, 2));
        let shared = Arc::clone(engine.shared());
        counters_balance(&shared);
        // Shutdown joins the regenerated pool — this hanging would mean
        // a respawned worker was never registered.
        engine.shutdown();
        assert_eq!(shared.worker_panics.load(Ordering::Relaxed), 2);
        assert_eq!(shared.worker_respawns.load(Ordering::Relaxed), 2);
        assert_eq!(shared.errors_by_code.get("internal"), 2);
    }

    #[test]
    fn injected_client_hangups_drop_replies_not_accounting() {
        let plan = Arc::new(
            FaultPlan::seeded(3).with(InjectionPoint::Reply, FaultAction::Hangup, Fire::First(1)),
        );
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 8,
            fault_plan: plan,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        assert!(submit_line(&engine, r#"{"id":1,"op":"ping"}"#, &tx).is_none());
        assert!(submit_line(&engine, r#"{"id":2,"op":"ping"}"#, &tx).is_none());
        // Only the second reply arrives; the first was dropped mid-send.
        let line = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(Json::parse(&line).unwrap().get("id").and_then(Json::as_i64), Some(2));
        let shared = Arc::clone(engine.shared());
        engine.shutdown();
        assert!(rx.try_recv().is_err(), "first reply must have been dropped");
        assert_eq!(shared.replies_dropped.load(Ordering::Relaxed), 1);
        assert_eq!(shared.completed.load(Ordering::Relaxed), 2, "work still completed");
        counters_balance(&shared);
    }

    #[test]
    fn v2_requests_get_structured_pipeline_errors() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let bad =
            r#"{"id":1,"v":2,"op":"run","source":"void f(","entry":"f","profile":"base"}"#;
        assert!(submit_line(&engine, bad, &tx).is_none());
        let v = Json::parse(&rx.recv_timeout(Duration::from_secs(10)).unwrap()).unwrap();
        assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(v.get("v").and_then(Json::as_i64), Some(2));
        assert!(v.get("message").is_none(), "v2 replaces the message string");
        let e = v.get("error").expect("error object");
        assert_eq!(e.get("code").and_then(Json::as_str), Some("parse"));
        assert_eq!(e.get("phase").and_then(Json::as_str), Some("parse"));
        assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(false));
        let unknown =
            r#"{"id":2,"v":2,"op":"compile","source":"void f() {}","profile":"gcc"}"#;
        assert!(submit_line(&engine, unknown, &tx).is_none());
        let v = Json::parse(&rx.recv_timeout(Duration::from_secs(10)).unwrap()).unwrap();
        let e = v.get("error").expect("error object");
        assert_eq!(e.get("code").and_then(Json::as_str), Some("unknown_profile"));
        assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(false));
        assert_eq!(engine.shared().errors_by_code.get("unknown_profile"), 1);
        // A `launch_bounds` contract runs under its cap; one the device
        // cannot meet is a permanent error tallied under its own code.
        let bounded = |id: i64, clause: &str| {
            let src = DBL.replacen("kernels", &format!("kernels {clause}"), 1);
            protocol::RunRequestLine {
                v: 2,
                ..protocol::RunRequestLine::new(id, &src, "dbl", "safara_only", &dbl_args(), true)
            }
            .render()
        };
        assert!(submit_line(&engine, &bounded(3, "launch_bounds(256, 4)"), &tx).is_none());
        let v = Json::parse(&rx.recv_timeout(Duration::from_secs(10)).unwrap()).unwrap();
        let bits = v.get("arrays").and_then(|a| a.get("x")).and_then(|x| x.get("bits"));
        assert_eq!(bits, Some(&Json::Arr(vec![Json::Int(3.0f32.to_bits() as i64); 8])), "{v}");
        assert!(submit_line(&engine, &bounded(4, "launch_bounds(2048)"), &tx).is_none());
        let v = Json::parse(&rx.recv_timeout(Duration::from_secs(10)).unwrap()).unwrap();
        let e = v.get("error").expect("error object");
        assert_eq!(e.get("code").and_then(Json::as_str), Some("launch_bounds"));
        assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(false));
        assert_eq!(engine.shared().errors_by_code.get("launch_bounds"), 1);
        assert_eq!(engine.shared().errors_by_code.get("internal"), 0);
        engine.shutdown();

        // Chaos does not exempt traced requests: under `sim:fail` a
        // `"trace":true` run gets the same typed, retryable error as an
        // untraced one.
        let plan = FaultPlan::seeded(5).with(InjectionPoint::Sim, FaultAction::Fail, Fire::First(2));
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            fault_plan: Arc::new(plan),
            ..EngineConfig::default()
        });
        let args = dbl_args();
        let untraced = protocol::RunRequestLine {
            v: 2,
            ..protocol::RunRequestLine::new(3, DBL, "dbl", "base", &args, false)
        }
        .render();
        let traced = untraced.replacen("\"op\"", "\"trace\":true,\"op\"", 1);
        let errors: Vec<String> = [untraced, traced]
            .iter()
            .map(|line| {
                assert!(submit_line(&engine, line, &tx).is_none());
                let v = Json::parse(&rx.recv_timeout(Duration::from_secs(10)).unwrap()).unwrap();
                let e = v.get("error").expect("error object");
                assert_eq!(e.get("code").and_then(Json::as_str), Some("sim"));
                assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(true));
                e.dump()
            })
            .collect();
        assert_eq!(errors[0], errors[1], "traced and untraced failures are the same error");
        engine.shutdown();
    }

    #[test]
    fn a_real_simulation_fault_is_not_retryable() {
        // `a[0]` lies below the array's lower bound of 5: the engine is
        // deterministic, so a resend faults the same way. Only an
        // injected `sim` fault (above) is transient.
        let engine = Engine::start(EngineConfig { workers: 1, ..EngineConfig::default() });
        let (tx, rx) = mpsc::channel();
        let src = "void f(long lo, int n, float a[lo:n]) { #pragma acc kernels\n\
                   { #pragma acc loop gang vector\n\
                   for (int i = 0; i < n; i++) { a[i] = 1.0; } } }";
        let args = safara_core::Args::new().i64("lo", 5).i32("n", 8).array_f32("a", &[0.0; 8]);
        let line = protocol::RunRequestLine {
            v: 2,
            ..protocol::RunRequestLine::new(1, src, "f", "base", &args, false)
        }
        .render();
        assert!(submit_line(&engine, &line, &tx).is_none());
        let v = Json::parse(&rx.recv_timeout(Duration::from_secs(10)).unwrap()).unwrap();
        let e = v.get("error").expect("error object");
        assert_eq!(e.get("code").and_then(Json::as_str), Some("sim"), "{v}");
        assert_eq!(e.get("phase").and_then(Json::as_str), Some("sim"));
        assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(false));
        engine.shutdown();
    }

    const DBL: &str = "void dbl(int n, float x[n]) {\
                       #pragma acc kernels copy(x)\n{\
                       #pragma acc loop gang vector\n\
                       for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }";

    fn dbl_args() -> safara_core::Args {
        safara_core::Args::new().i32("n", 8).array_f32("x", &[1.5; 8])
    }

    /// Hold the single worker with a sleep so subsequently submitted
    /// jobs are deterministically queued (and duplicates parked).
    fn hold_worker(engine: &Engine, tx: &mpsc::Sender<String>, ms: u64) {
        let line = format!(r#"{{"id":0,"op":"sleep","ms":{ms}}}"#);
        assert!(submit_line(engine, &line, tx).is_none());
        std::thread::sleep(Duration::from_millis(100));
    }

    #[test]
    fn duplicate_requests_coalesce_onto_one_leader() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 16,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        hold_worker(&engine, &tx, 300);
        let line = protocol::build_run_request(7, DBL, "dbl", "base", &dbl_args(), true);
        // Leader + 3 duplicates, all parked while the worker sleeps —
        // and a fourth that spells the same profile differently.
        let respelled = protocol::build_run_request(7, DBL, "dbl", " Base ", &dbl_args(), true);
        let mut waiter_rxs = Vec::new();
        assert!(submit_line(&engine, &line, &tx).is_none());
        for dup in [&line, &line, &line, &respelled] {
            let (wtx, wrx) = mpsc::channel();
            assert!(submit_line(&engine, dup, &wtx).is_none());
            waiter_rxs.push(wrx);
        }
        assert_eq!(status_of(&rx.recv_timeout(Duration::from_secs(5)).unwrap()), "ok"); // sleep
        let leader = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(status_of(&leader), "ok");
        // The run worked on the request's own arrays (taken, not
        // copied); what comes back is their post-run content, 1.5 × 2.
        let x = format!(r#""x":{{"elem":"f32","bits":[{}"#, 3.0f32.to_bits());
        assert!(leader.contains(&x), "{leader}");
        for wrx in &waiter_rxs {
            let got = wrx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got, leader, "same id, so fan-out lines are byte-identical");
        }
        let shared = engine.shared();
        assert_eq!(shared.coalesced.load(Ordering::Relaxed), 4);
        assert_eq!(shared.completed.load(Ordering::Relaxed), 2, "sleep + one run");
        assert_eq!(shared.cache.misses(), 1, "exactly one pipeline execution");
        assert_eq!(shared.cache.hits(), 0);
        counters_balance(shared);
        engine.shutdown();
    }

    #[test]
    fn coalesce_off_runs_every_duplicate() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 16,
            coalesce: false,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        hold_worker(&engine, &tx, 200);
        let line = protocol::build_run_request(7, DBL, "dbl", "base", &dbl_args(), false);
        for _ in 0..3 {
            assert!(submit_line(&engine, &line, &tx).is_none());
        }
        for _ in 0..4 {
            assert_eq!(status_of(&rx.recv_timeout(Duration::from_secs(30)).unwrap()), "ok");
        }
        let shared = engine.shared();
        assert_eq!(shared.coalesced.load(Ordering::Relaxed), 0);
        assert_eq!(shared.cache.hits() + shared.cache.misses(), 3, "every duplicate simulated");
        counters_balance(shared);
        engine.shutdown();
    }

    #[test]
    fn parked_waiter_hangup_counts_replies_dropped_not_accounting() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 16,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        hold_worker(&engine, &tx, 300);
        let line = protocol::build_run_request(7, DBL, "dbl", "base", &dbl_args(), false);
        assert!(submit_line(&engine, &line, &tx).is_none()); // leader
        let (wtx, wrx) = mpsc::channel();
        assert!(submit_line(&engine, &line, &wtx).is_none()); // waiter
        drop(wrx); // ...which hangs up while parked
        drop(wtx);
        assert_eq!(status_of(&rx.recv_timeout(Duration::from_secs(5)).unwrap()), "ok"); // sleep
        let leader = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(status_of(&leader), "ok", "leader unaffected by the waiter hangup");
        let shared = Arc::clone(engine.shared());
        engine.shutdown();
        assert_eq!(shared.coalesced.load(Ordering::Relaxed), 1);
        assert_eq!(shared.replies_dropped.load(Ordering::Relaxed), 1);
        assert!(
            shared.inflight.lock().unwrap().is_empty(),
            "fan-out must not leak the waiter-list entry"
        );
        counters_balance(&shared);
    }

    #[test]
    fn coalesced_waiters_get_the_leaders_typed_error() {
        // The leader's simulation fails (injected, retryable): the
        // waiter parked on the leader receives the leader's typed `sim`
        // error with its retryable contract, byte for byte.
        for seed in [1, 7, 42] {
            let plan = Arc::new(
                FaultPlan::seeded(seed).with(InjectionPoint::Sim, FaultAction::Fail, Fire::First(1)),
            );
            let engine = Engine::start(EngineConfig {
                workers: 1,
                queue_depth: 16,
                fault_plan: plan,
                ..EngineConfig::default()
            });
            let (tx, rx) = mpsc::channel();
            hold_worker(&engine, &tx, 300);
            let args = dbl_args();
            let line = protocol::RunRequestLine {
                v: 2,
                ..protocol::RunRequestLine::new(7, DBL, "dbl", "base", &args, false)
            }
            .render();
            assert!(submit_line(&engine, &line, &tx).is_none()); // leader
            let (wtx, wrx) = mpsc::channel();
            assert!(submit_line(&engine, &line, &wtx).is_none()); // waiter
            assert_eq!(status_of(&rx.recv_timeout(Duration::from_secs(5)).unwrap()), "ok");
            let leader = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(status_of(&leader), "error", "seed {seed}: {leader}");
            let waiter = wrx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(waiter, leader, "same id: identical typed error, seed {seed}");
            let e = Json::parse(&waiter).unwrap();
            let e = e.get("error").expect("v2 error object");
            assert_eq!(e.get("code").and_then(Json::as_str), Some("sim"));
            assert_eq!(e.get("retryable").and_then(Json::as_bool), Some(true));
            let shared = engine.shared();
            assert_eq!(shared.coalesced.load(Ordering::Relaxed), 1, "seed {seed}");
            assert_eq!(shared.errors_by_code.get("sim"), 1, "waiter adds no error count");
            counters_balance(shared);
            engine.shutdown();
        }
    }

    #[test]
    fn same_program_jobs_drain_as_one_batch() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 16,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        hold_worker(&engine, &tx, 300);
        // Four distinct-args runs of one program (distinct flight keys,
        // shared program key) with a ping wedged in the middle: the
        // batch gathers the runs past it.
        for i in 0..2 {
            let args = safara_core::Args::new().i32("n", 8).array_f32("x", &[i as f32; 8]);
            let line = protocol::build_run_request(i, DBL, "dbl", "base", &args, false);
            assert!(submit_line(&engine, &line, &tx).is_none());
        }
        assert!(submit_line(&engine, r#"{"id":99,"op":"ping"}"#, &tx).is_none());
        for i in 2..4 {
            let args = safara_core::Args::new().i32("n", 8).array_f32("x", &[i as f32; 8]);
            let line = protocol::build_run_request(i, DBL, "dbl", "base", &args, false);
            assert!(submit_line(&engine, &line, &tx).is_none());
        }
        for _ in 0..6 {
            assert_eq!(status_of(&rx.recv_timeout(Duration::from_secs(30)).unwrap()), "ok");
        }
        let shared = engine.shared();
        let bs = shared.metrics.batch_size.snapshot();
        assert_eq!(bs.max_us, 4, "the four same-program runs drained together");
        assert_eq!(shared.programs_cached(), 1);
        assert_eq!(shared.completed.load(Ordering::Relaxed), 6);
        counters_balance(shared);
        engine.shutdown();
    }

    #[test]
    fn identical_runs_share_the_cache_and_program_store() {
        // Coalescing off: this test is about the launch cache taking
        // warm hits across workers, so every duplicate must reach it.
        let engine = Engine::start(EngineConfig {
            workers: 2,
            queue_depth: 16,
            coalesce: false,
            ..EngineConfig::default()
        });
        let (tx, rx) = mpsc::channel();
        let src = "void dbl(int n, float x[n]) {\
                   #pragma acc kernels copy(x)\n{\
                   #pragma acc loop gang vector\n\
                   for (int i = 0; i < n; i++) { x[i] = x[i] * 2.0f; } } }";
        let args = safara_core::Args::new().i32("n", 8).array_f32("x", &[1.5; 8]);
        let mut digests = Vec::new();
        for i in 0..6 {
            let line = protocol::build_run_request(i, src, "dbl", "base", &args, false);
            assert!(submit_line(&engine, &line, &tx).is_none());
        }
        for _ in 0..6 {
            let line = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            let v = Json::parse(&line).unwrap();
            assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"), "{line}");
            digests.push(
                v.get("digests")
                    .and_then(|d| d.get("x"))
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
        let shared = engine.shared();
        assert_eq!(shared.cache.hits() + shared.cache.misses(), 6);
        assert!(shared.cache.hits() >= 4, "at least n-workers hits");
        assert_eq!(shared.programs_cached(), 1);
        engine.shutdown();
    }

    #[test]
    fn program_store_is_capped_oldest_first() {
        let engine = Engine::start(EngineConfig {
            workers: 1,
            queue_depth: 4,
            ..EngineConfig::default()
        });
        let shared = engine.shared();
        let src = |i: usize| DBL.replace("dbl", &format!("dbl{i}"));
        let fetch = |i: usize| shared.program_for(&src(i), "base", false).unwrap().0;
        let first = fetch(0);
        assert!(Arc::ptr_eq(&first, &fetch(0)), "second lookup is a store hit");
        for i in 1..=PROGRAM_STORE_CAP {
            fetch(i);
        }
        assert_eq!(shared.programs_cached(), PROGRAM_STORE_CAP);
        // Program 0 was the oldest, so it is the one that went: asking
        // for it again compiles afresh (evicting program 1), and the
        // fresh program runs correctly.
        assert!(!Arc::ptr_eq(&first, &fetch(0)), "evicted program recompiles");
        assert_eq!(shared.programs_cached(), PROGRAM_STORE_CAP);
        let (tx, rx) = mpsc::channel();
        let line = protocol::build_run_request(1, &src(0), "dbl0", "base", &dbl_args(), true);
        assert!(submit_line(&engine, &line, &tx).is_none());
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(status_of(&reply), "ok", "{reply}");
        // 1.5f * 2.0f = 3.0f -> bit pattern 0x40400000
        assert!(reply.contains("1077936128"), "{reply}");
        engine.shutdown();
    }
}
