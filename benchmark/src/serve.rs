//! The two server workloads: an in-process `safara_server::serve` over
//! real TCP, driven by the closed-loop load generator. `serve_warm`
//! keeps one server, so the program store and the launch memo always
//! hit; `serve_cold` starts a fresh server for every pass, so every
//! request compiles, simulates and inserts.

use crate::cells::{request_id, CellSet};
use crate::library::FIG7_PROFILES;
use crate::loadgen::{self, Conn, Reply};
use crate::measure::{
    outcome, repeat_setup, us_since, Budget, Layers, Outcome, RunOpts, Samples, Verdict,
};
use crate::spec::CLIENTS;
use crate::stats::shuffle;
use crate::trace::SpanLog;
use safara_core::{run_compiled, DeviceConfig, SharedLaunchCache, SplitMix64};
use safara_server::json::Json;
use safara_server::protocol::{build_run_request, parse_request, run_key, run_response, Op};
use safara_server::{serve, Engine, EngineConfig, Request, ServerHandle, Submit};
use safara_workloads::{spec_suite, Scale};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Warm => "serve_warm",
            Kind::Cold => "serve_cold",
        }
    }
}

/// The server under test: one worker per core, everything else at its
/// default (default engine, serial `sim_threads`, `coalesce` on,
/// `max_batch` 8).
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: CLIENTS,
        ..EngineConfig::default()
    }
}

/// The request lines and the oracle they are checked against.
pub struct Inputs {
    set: CellSet,
    /// One line per cell, ending in `\n`.
    pub lines: Vec<Vec<u8>>,
    build_request_us: f64,
}

impl Inputs {
    pub fn build() -> Result<Inputs, String> {
        let set = CellSet::build(spec_suite(), &FIG7_PROFILES, Scale::Bench)?;
        let t = Instant::now();
        let lines = (0..set.cells.len())
            .map(|cell| {
                let mut line = build_run_request(
                    request_id(cell),
                    set.source(cell),
                    set.entry(cell),
                    set.cells[cell].profile,
                    &set.args[set.cells[cell].program],
                    false,
                );
                line.push('\n');
                line.into_bytes()
            })
            .collect();
        Ok(Inputs {
            set,
            lines,
            build_request_us: us_since(t),
        })
    }

    fn line_str(&self, cell: usize) -> &str {
        let line = &self.lines[cell];
        std::str::from_utf8(&line[..line.len() - 1]).expect("request lines are UTF-8")
    }

    /// Connection `k` sends the cells of profile `k`, so the keys of
    /// the two connections are disjoint and nothing coalesces.
    fn cells_of_connections(&self) -> Vec<Vec<usize>> {
        let cells = 0..self.set.cells.len();
        FIG7_PROFILES
            .iter()
            .map(|p| {
                cells
                    .clone()
                    .filter(|&c| self.set.cells[c].profile == *p)
                    .collect()
            })
            .collect()
    }

    /// The seeded order of one pass.
    pub fn orders(&self, rng: &mut SplitMix64) -> Vec<Vec<usize>> {
        let mut orders = self.cells_of_connections();
        orders.iter_mut().for_each(|order| shuffle(order, rng));
        orders
    }

    /// The warm-up pass sends the largest lines first, on both
    /// connections at once: the server then holds its two largest
    /// requests together during set-up, and the memory high-water mark
    /// does not depend on whether a seed's order makes them meet.
    fn warm_up_orders(&self) -> Vec<Vec<usize>> {
        let mut orders = self.cells_of_connections();
        orders
            .iter_mut()
            .for_each(|order| order.sort_by_key(|&c| std::cmp::Reverse(self.lines[c].len())));
        orders
    }

    /// Verify the replies of one pass (the clock is stopped) and record
    /// their latencies. Returns the µs spent parsing replies and the
    /// bytes they held.
    fn record(
        &self,
        replies: &[Reply],
        wall_s: f64,
        samples: &mut Samples,
        verdict: &mut Verdict,
    ) -> (f64, usize) {
        let (mut decode_us, mut bytes) = (0.0, 0);
        let ops: Vec<(usize, f64)> = replies.iter().map(|r| (r.cell, r.ms())).collect();
        for r in replies {
            verdict.note(r.line.clone().and_then(|line| {
                bytes += line.len();
                let t = Instant::now();
                let parsed = Json::parse(line.trim_end());
                decode_us += us_since(t);
                self.set
                    .check_reply(r.cell, &parsed.map_err(|e| e.to_string())?)
            }));
        }
        samples.push_pass(&ops, Some(wall_s));
        (decode_us, bytes)
    }
}

/// A running server and the load generator's connections to it.
struct Live {
    handle: Option<ServerHandle>,
    conns: Vec<Conn>,
}

impl Live {
    fn start(connections: usize) -> Result<Live, String> {
        let handle = serve("127.0.0.1:0", engine_config()).map_err(|e| format!("serve: {e}"))?;
        let conns = (0..connections)
            .map(|_| Conn::connect(handle.addr))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Live {
            handle: Some(handle),
            conns,
        })
    }

    /// The wire `stats` op, answered inline by the server.
    fn stats(&mut self) -> Result<Json, String> {
        let line = self.conns[0]
            .round_trip(0, b"{\"id\":0,\"op\":\"stats\"}\n")
            .line?;
        Json::parse(line.trim_end()).map_err(|e| e.to_string())
    }
}

impl Drop for Live {
    /// Close the connections first so the server's readers see EOF,
    /// then stop it and wait for its threads.
    fn drop(&mut self) {
        self.conns.clear();
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
    }
}

/// Counters and latency medians of the wire `stats` reply.
struct ServerStats {
    counters: [(&'static str, f64); 4],
    medians: [(&'static str, f64); 3],
    programs_cached: f64,
}

fn server_stats(stats: &Json) -> ServerStats {
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(stats, |v, key| v.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    ServerStats {
        counters: [
            ("server.cache_hits", at(&["cache", "hits"])),
            ("server.cache_misses", at(&["cache", "misses"])),
            ("server.coalesced", at(&["server", "coalesced"])),
            ("server.batches", at(&["batches", "count"])),
        ],
        medians: [
            (
                "server.queue_wait_p50_us",
                at(&["latency", "queue_wait", "p50_us"]),
            ),
            (
                "server.service_p50_us",
                at(&["latency", "service", "p50_us"]),
            ),
            (
                "server.reply_write_p50_us",
                at(&["latency", "reply_write", "p50_us"]),
            ),
        ],
        programs_cached: at(&["server", "programs_cached"]),
    }
}

/// Push the counters gathered between two `stats` replies, per pass.
fn push_stats(
    layers: &mut Layers,
    before: Option<&ServerStats>,
    after: &ServerStats,
    passes: usize,
) {
    for (i, (name, value)) in after.counters.iter().enumerate() {
        let base = before.map_or(0.0, |b| b.counters[i].1);
        layers.push(name, (value - base) / passes as f64);
    }
    for (name, value) in after.medians {
        layers.push(name, value);
    }
    layers.push("server.programs_cached", after.programs_cached);
}

struct Serve {
    kind: Kind,
    inputs: Inputs,
    /// `serve_warm`'s one server; `serve_cold` starts its own per pass.
    live: Option<Live>,
}

impl Serve {
    /// Everything before the first timed sample: request lines, the
    /// oracle, server start and one verified warm-up pass (for
    /// `serve_cold`, against a server that is then thrown away).
    fn setup(kind: Kind) -> Result<Serve, String> {
        let inputs = Inputs::build()?;
        let mut live = Live::start(CLIENTS)?;
        let orders = inputs.warm_up_orders();
        let (replies, wall_s) = loadgen::pass(&mut live.conns, &inputs.lines, &orders);
        let mut verdict = Verdict::default();
        inputs.record(
            &replies,
            wall_s,
            &mut Samples::new(inputs.lines.len(), true),
            &mut verdict,
        );
        if let Some(e) = verdict.errors.first() {
            return Err(format!("warm-up: {e}"));
        }
        let live = (kind == Kind::Warm).then_some(live);
        Ok(Serve { kind, inputs, live })
    }

    /// One pass of both connections; in a traced run every request also
    /// becomes a `request` span and the server's `stats` are read.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &mut self,
        orders: &[Vec<usize>],
        pass: usize,
        log: Option<&mut SpanLog>,
        samples: &mut Samples,
        verdict: &mut Verdict,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let mut fresh = None;
        let live = match self.kind {
            Kind::Warm => self.live.as_mut().expect("serve_warm keeps its server"),
            Kind::Cold => fresh.insert(Live::start(CLIENTS)?),
        };
        let (replies, wall_s) = loadgen::pass(&mut live.conns, &self.inputs.lines, orders);
        let (decode_us, reply_bytes) = self.inputs.record(&replies, wall_s, samples, verdict);
        if let Some(log) = log {
            let cells = self.inputs.lines.len();
            for r in &replies {
                log.record(
                    "request",
                    (pass * cells + r.cell) as u32,
                    r.sent,
                    r.received,
                );
            }
            layers.push("client.decode_reply_us", decode_us);
            layers.push("server.reply_bytes", reply_bytes as f64);
            if self.kind == Kind::Cold {
                push_stats(layers, None, &server_stats(&live.stats()?), 1);
            }
        }
        Ok(())
    }

    /// Direct calls into the server's layers, and one request at a time
    /// through `Engine::submit` and through TCP, so that
    /// `parse_request + engine_rtt + transport = tcp_rtt`.
    fn probes(
        &self,
        opts: &RunOpts,
        layers: &mut Layers,
        verdict: &mut Verdict,
    ) -> Result<(), String> {
        let inputs = &self.inputs;
        let cells = inputs.lines.len();
        let mut requests: Vec<Request> = Vec::new();
        for _ in 0..opts.reps() {
            let t = Instant::now();
            for cell in 0..cells {
                std::hint::black_box(
                    Json::parse(inputs.line_str(cell)).map_err(|e| e.to_string())?,
                );
            }
            layers.push("server.json_parse_us", us_since(t));

            let t = Instant::now();
            requests = (0..cells)
                .map(|c| parse_request(inputs.line_str(c)))
                .collect::<Result<_, _>>()?;
            layers.push("server.parse_request_us", us_since(t));

            let t = Instant::now();
            for request in &requests {
                if let Op::Run(run) = &request.op {
                    std::hint::black_box(run_key(run));
                }
            }
            layers.push("server.run_key_us", us_since(t));
        }

        // `run_response` on the outcome the library gives for each cell.
        let dev = DeviceConfig::k20xm();
        let cache = SharedLaunchCache::new(16);
        let mut outcomes = Vec::new();
        for cell in 0..cells {
            let mut args = inputs.set.fresh_args(cell);
            let program = &inputs.set.expected[cell].compiled;
            let outcome = run_compiled(
                program,
                inputs.set.entry(cell),
                &mut args,
                &dev,
                Some(&cache),
            )
            .map_err(|e| e.to_string())?;
            outcomes.push((outcome, args));
        }
        for _ in 0..opts.reps() {
            let t = Instant::now();
            for (cell, (outcome, args)) in outcomes.iter().enumerate() {
                std::hint::black_box(run_response(
                    Some(request_id(cell)),
                    outcome,
                    args,
                    false,
                    None,
                ));
            }
            layers.push("server.render_us", us_since(t));
        }
        drop(outcomes);

        // A warm path is probed by repeated passes over one warmed engine
        // and server, a cold path by one pass over each of several fresh
        // ones (a second pass over the same one would be warm).
        let (fresh, warm_up, timed) = match self.kind {
            Kind::Warm => (1, 1, opts.reps()),
            Kind::Cold => (opts.reps(), 0, 1),
        };
        for _ in 0..fresh {
            let engine = Engine::start(engine_config());
            let (tx, rx) = mpsc::channel::<String>();
            for rep in 0..warm_up + timed {
                let mut sum_us = 0.0;
                for (cell, request) in requests.iter().enumerate() {
                    let request = request.clone();
                    let t = Instant::now();
                    let line = match engine.submit(request, tx.clone()) {
                        Submit::Queued => rx
                            .recv_timeout(Duration::from_secs(60))
                            .map_err(|e| e.to_string()),
                        Submit::Rejected { response, .. } => Ok(response),
                    };
                    sum_us += us_since(t);
                    verdict.note(line.and_then(|l| {
                        let reply = Json::parse(&l).map_err(|e| e.to_string())?;
                        inputs.set.check_reply(cell, &reply)
                    }));
                }
                if rep >= warm_up {
                    layers.push("server.engine_rtt_us", sum_us);
                }
            }
            engine.shutdown();
        }
        drop(requests);

        let order: Vec<Vec<usize>> = vec![(0..cells).collect()];
        for _ in 0..fresh {
            let mut live = Live::start(1)?;
            for rep in 0..warm_up + timed {
                let (replies, _) = loadgen::pass(&mut live.conns, &inputs.lines, &order);
                let sum_us: f64 = replies.iter().map(|r| r.ms() * 1e3).sum();
                inputs.record(&replies, 0.0, &mut Samples::new(cells, true), verdict);
                if rep >= warm_up {
                    layers.push("server.tcp_rtt_us", sum_us);
                }
            }
        }
        Ok(())
    }
}

pub fn run(kind: Kind, opts: &RunOpts) -> Result<Outcome, String> {
    let (mut srv, setup_runs_s) = repeat_setup(opts, || Serve::setup(kind))?;
    let cells = srv.inputs.lines.len();
    let budget = Budget::start(opts);
    let mut rng = SplitMix64::new(opts.seed);
    let mut verdict = Verdict::default();
    let mut layers = Layers::default();
    let mut log = SpanLog::default();
    let mut notes = Vec::new();
    if opts.trace {
        srv.probes(opts, &mut layers, &mut verdict)?;
    }
    let stats_before = match (opts.trace, srv.live.as_mut()) {
        (true, Some(live)) => Some(server_stats(&live.stats()?)),
        _ => None,
    };

    let (mut plain, mut traced) = (Samples::new(cells, true), Samples::new(cells, true));
    while budget.more(plain.passes()) {
        let pass = plain.passes();
        let orders = srv.inputs.orders(&mut rng);
        srv.pass(&orders, pass, None, &mut plain, &mut verdict, &mut layers)?;
        if opts.trace {
            srv.pass(
                &orders,
                pass,
                Some(&mut log),
                &mut traced,
                &mut verdict,
                &mut layers,
            )?;
        }
    }

    if opts.trace {
        if let Some(live) = srv.live.as_mut() {
            let passes = plain.passes() + traced.passes();
            push_stats(
                &mut layers,
                stats_before.as_ref(),
                &server_stats(&live.stats()?),
                passes,
            );
        }
        let inputs = &srv.inputs;
        layers.set("workloads.args_us", inputs.set.args_us);
        layers.set("workloads.check_us", inputs.set.check_us);
        layers.set("client.build_request_us", inputs.build_request_us);
        layers.set(
            "server.req_bytes",
            inputs.lines.iter().map(|l| (l.len() - 1) as f64).sum(),
        );
        if kind == Kind::Cold {
            inputs.set.push_compile_counters(&mut layers);
        }
        inputs.set.push_run_counters(&mut layers);
        let (tcp, parse, engine) = (
            layers.get("server.tcp_rtt_us"),
            layers.get("server.parse_request_us"),
            layers.get("server.engine_rtt_us"),
        );
        let transport = (tcp - parse - engine).max(0.0);
        layers.set("server.transport_us", transport);
        notes.push(format!(
            "closure: parse_request + engine_rtt + transport cover {:.1}% of tcp_rtt",
            100.0 * (parse + engine + transport) / tcp
        ));
        notes.push(log.write_for(kind.name())?);
    }

    let labels = (0..cells).map(|c| srv.inputs.set.label(c)).collect();
    Ok(outcome(
        kind.name(),
        opts,
        &plain,
        &traced,
        labels,
        setup_runs_s,
        verdict,
        layers,
        notes,
    ))
}
