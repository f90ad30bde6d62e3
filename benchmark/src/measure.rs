//! What every workload shares: run options, the pass budget, the
//! sample store, the failure count and the metric arithmetic.

use crate::spec::PER_LAYER;
use crate::stats::{geomean, median, percentile, quiet, tail_percentile};
use crate::trace::Sums;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct RunOpts {
    pub seed: u64,
    /// How long the passes (and, in a traced run, the probes) last.
    pub seconds: f64,
    /// The separate traced run that produces the per-layer metrics.
    pub trace: bool,
    /// Two passes, one set-up: the smoke mode.
    pub quick: bool,
}

impl RunOpts {
    /// How often each probe is repeated, and set-up at least, so that
    /// one slow page-in does not decide the reported value.
    pub fn reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// Decides when the passes end: after `seconds`, but never before every
/// cell has ten samples.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_passes: usize,
}

impl Budget {
    pub fn start(opts: &RunOpts) -> Budget {
        // A traced run spends part of its time in probes; two passes of
        // each kind are the least it needs.
        let (seconds, min_passes) = match (opts.quick, opts.trace) {
            (true, _) => (0.0, 2),
            (false, true) => (opts.seconds, 2),
            (false, false) => (opts.seconds, 10),
        };
        Budget {
            start: Instant::now(),
            seconds,
            min_passes,
        }
    }

    pub fn more(&self, passes_done: usize) -> bool {
        passes_done < self.min_passes || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Run `build` at least `opts.reps()` times, and a short set-up up to
/// nine times or until two seconds have gone into it, so that a 0.3 s
/// set-up is timed as steadily as a 2 s one. The
/// previous product is torn down with the clock stopped. Returns the
/// last product and every repetition's time.
pub fn repeat_setup<S>(
    opts: &RunOpts,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    loop {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
        let enough = opts.quick || times.iter().sum::<f64>() >= 2.0 || times.len() >= 9;
        if times.len() >= opts.reps() && enough {
            return Ok((last.expect("just built"), times));
        }
    }
}

/// Timed samples of the passes of one kind (untraced or traced).
pub struct Samples {
    /// Milliseconds, per cell.
    pub per_cell: Vec<Vec<f64>>,
    /// Summed timed windows of each pass, ms.
    pub pass_ms: Vec<f64>,
    /// Wall seconds of each pass of concurrent clients; empty for a
    /// library workload, whose operations run one after another.
    pub pass_wall_s: Vec<f64>,
    /// Whether operations ran concurrently with each other.
    concurrent: bool,
}

impl Samples {
    pub fn new(cells: usize, concurrent: bool) -> Samples {
        Samples {
            per_cell: vec![Vec::new(); cells],
            pass_ms: Vec::new(),
            pass_wall_s: Vec::new(),
            concurrent,
        }
    }

    /// The location a timing is reported at. Operations that run one
    /// after another do the same work every time, and whatever slows
    /// them comes from outside: their first decile (see [`quiet`]). An
    /// operation that shares the machine with its neighbours is fastest
    /// when they happen to be idle, which is not the system under load:
    /// its median.
    fn location(&self, values: &[f64]) -> f64 {
        if self.concurrent {
            median(values)
        } else {
            quiet(values)
        }
    }

    /// `ops` holds `(cell, ms)`; `wall_s` is given for concurrent clients.
    pub fn push_pass(&mut self, ops: &[(usize, f64)], wall_s: Option<f64>) {
        let sum: f64 = ops.iter().map(|(_, ms)| ms).sum();
        for &(cell, ms) in ops {
            self.per_cell[cell].push(ms);
        }
        self.pass_ms.push(sum);
        self.pass_wall_s.extend(wall_s);
    }

    pub fn passes(&self) -> usize {
        self.pass_ms.len()
    }

    pub fn all(&self) -> Vec<f64> {
        self.per_cell.iter().flatten().copied().collect()
    }

    /// Each cell's time: the [`Samples::location`] of its samples.
    pub fn cell_times(&self) -> Vec<f64> {
        self.per_cell.iter().map(|c| self.location(c)).collect()
    }
}

/// Operations attempted and failed; a wrong digest, wrong cycles, a
/// refused or failed request are all failures.
#[derive(Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Verdict {
    pub fn note(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// `(metric, span, self time?)`: which span a `_us` metric is read from,
/// and whether it is the span's self time or its whole duration.
const SPAN_METRICS: [(&str, &str, bool); 14] = [
    ("ir.parse_us", "ir.parse", true),
    ("ir.sema_us", "ir.sema", true),
    ("analysis.reuse_us", "analysis.reuse", true),
    ("opt.feedback_us", "opt.feedback", true),
    ("opt.saturate_us", "opt.saturate", true),
    ("codegen.lower_us", "codegen.lower", true),
    ("gpusim.regalloc_us", "gpusim.regalloc", true),
    ("core.compile_us", "core.compile", false),
    ("core.compile_self_us", "core.compile", true),
    ("runtime.run_us", "runtime.run", false),
    ("runtime.h2d_us", "runtime.h2d", true),
    ("runtime.d2h_us", "runtime.d2h", true),
    ("gpusim.launch_us", "gpusim.launch", true),
    ("gpusim.memo_hit_us", "gpusim.memo_hit", true),
];

/// Per-layer values gathered during a traced run: one entry per pass or
/// probe repetition; the reported value is their first decile.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(
            crate::spec::per_layer(name).is_some(),
            "unknown per-layer metric {name}"
        );
        self.0.entry(name).or_default().push(value);
    }

    /// One pass's span sums, as the `_us` metrics read from them.
    pub fn push_spans(&mut self, sums: &BTreeMap<&'static str, Sums>) {
        for (metric, span, self_time) in SPAN_METRICS {
            if let Some(s) = sums.get(span) {
                self.push(metric, if self_time { s.self_us } else { s.dur_us });
            }
        }
    }

    /// Replace whatever was gathered with one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.remove(name);
        self.push(name, value);
    }

    /// First decile of what was gathered; 0 for a layer the workload
    /// bypasses (and for a ratio whose base was 0).
    pub fn get(&self, name: &str) -> f64 {
        let value = self.0.get(name).map_or(0.0, |v| quiet(v));
        if value.is_finite() {
            value
        } else {
            0.0
        }
    }

    /// Every per-layer metric, 0 where the workload bypasses the layer.
    pub fn finish(&self) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a run. `pass_ms` adds up the cells' times:
/// one pass over the input set with every cell at its reported time.
pub fn end_to_end(s: &Samples, setup_s: f64) -> Vec<(&'static str, f64)> {
    let cells = s.cell_times();
    let pass_ms: f64 = cells.iter().sum();
    // One after another, a pass lasts as long as its operations; with
    // concurrent clients it lasts as long as the slower client.
    let pass_s = if s.concurrent {
        s.location(&s.pass_wall_s)
    } else {
        pass_ms / 1e3
    };
    vec![
        ("setup_s", setup_s),
        ("pass_ms", pass_ms),
        ("cell_geomean_ms", geomean(&cells)),
        ("ops_per_s", cells.len() as f64 / pass_s),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// The slowest cell's time, and median and tail of all samples pooled:
/// what a client of the whole mix sees. Printed, not end-to-end metrics
/// of their own: one cell's time is the noisiest number of a run, and
/// with a few kinds of operation a pooled percentile sits on the cliff
/// between two kinds and jumps from run to run.
fn tail_note(s: &Samples) -> String {
    let all = s.all();
    let tail = tail_percentile(all.len(), 99);
    format!(
        "slowest cell {:.4} ms; pooled over {} samples: p50 {:.4} ms, p{tail} {:.4} ms \
         (the highest percentile with 10 samples beyond it)",
        s.cell_times().into_iter().fold(0.0, f64::max),
        all.len(),
        median(&all),
        percentile(&all, tail)
    )
}

/// What a workload hands to the report.
pub struct Outcome {
    pub workload: &'static str,
    pub passes: usize,
    pub samples: usize,
    pub verdict: Verdict,
    pub setup_runs_s: Vec<f64>,
    /// End-to-end metrics of an untraced run, per-layer metrics of a
    /// traced one.
    pub metrics: Vec<(&'static str, f64)>,
    /// `(cell, ms)` rows: each cell's reported time.
    pub cells: Vec<(String, f64)>,
    /// `pass_ms` of every untraced pass, in order.
    pub pass_ms: Vec<f64>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Turn the samples of a run into its [`Outcome`]: the end-to-end
/// metrics of an untraced run, or the per-layer metrics of a traced one
/// with the tracing overhead measured against the untraced passes that
/// alternated with the traced ones.
#[allow(clippy::too_many_arguments)]
pub fn outcome(
    workload: &'static str,
    opts: &RunOpts,
    plain: &Samples,
    traced: &Samples,
    labels: Vec<String>,
    setup_runs_s: Vec<f64>,
    verdict: Verdict,
    mut layers: Layers,
    mut notes: Vec<String>,
) -> Outcome {
    let metrics = if opts.trace {
        let pass_ms = |s: &Samples| s.cell_times().iter().sum::<f64>();
        let overhead = (pass_ms(traced) / pass_ms(plain) - 1.0) * 100.0;
        layers.set("obs.trace_overhead_pct", overhead);
        layers.finish()
    } else {
        notes.push(tail_note(plain));
        end_to_end(plain, quiet(&setup_runs_s))
    };
    Outcome {
        workload,
        passes: plain.passes(),
        samples: plain.all().len(),
        verdict,
        setup_runs_s,
        metrics,
        cells: labels.into_iter().zip(plain.cell_times()).collect(),
        pass_ms: plain.pass_ms.clone(),
        notes,
    }
}
