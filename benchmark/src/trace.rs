//! The benchmark's own spans, recorded around calls into each layer.
//!
//! Spans are kept in memory and written out when the workload ends.
//! Every span has a name (the layer), a start and an end in µs since
//! the log was created, the span that caused it, and an operation id
//! shared by all spans of one cell or request. A layer's self time is
//! its span's duration minus what its child spans cover.

use safara_core::obs::{MetaValue, Span};
use safara_server::json::{obj, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

pub struct SpanRec {
    pub name: &'static str,
    /// Operation id: `pass * cells + cell`.
    pub op: u32,
    pub parent: Option<u32>,
    pub start_us: f64,
    pub end_us: f64,
    /// Integer metadata carried over from a crate's own span.
    pub meta: Vec<(String, i64)>,
}

impl SpanRec {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Total duration and total self time of the spans of one name.
#[derive(Default, Clone, Copy)]
pub struct Sums {
    pub dur_us: f64,
    pub self_us: f64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

/// The layer a span of the crates' own `Tracer` belongs to. Spans with
/// no layer of their own (`round`, `sim`) stay in their parent's self
/// time; their children are still imported.
fn layer_of(crate_span: &str) -> Option<&'static str> {
    Some(match crate_span {
        "parse" => "ir.parse",
        "sema" => "ir.sema",
        "analysis" => "analysis.reuse",
        "opt" => "opt.feedback",
        "saturate" => "opt.saturate",
        "codegen" => "codegen.lower",
        "regalloc" => "gpusim.regalloc",
        "h2d" => "runtime.h2d",
        "launch" => "gpusim.launch",
        "d2h" => "runtime.d2h",
        _ => return None,
    })
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn push(&mut self, name: &'static str, op: u32, start_us: f64, end_us: f64) -> u32 {
        let parent = self.open.last().copied();
        self.spans.push(SpanRec {
            name,
            op,
            parent,
            start_us,
            end_us,
            meta: Vec::new(),
        });
        (self.spans.len() - 1) as u32
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        let start = self.us(Instant::now());
        let id = self.push(name, op, start, start);
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_us = self.us(Instant::now());
        r
    }

    /// Record a span that was timed elsewhere (a client thread).
    pub fn record(&mut self, name: &'static str, op: u32, start: Instant, end: Instant) {
        let (start, end) = (self.us(start), self.us(end));
        self.push(name, op, start, end);
    }

    /// Attach a span tree returned by `compile_traced` or
    /// `run_compiled_traced` under the innermost open span. `epoch` is
    /// when the crate's `Tracer` was created.
    pub fn import(&mut self, op: u32, epoch: Instant, spans: &[Span]) {
        let base = self.us(epoch);
        for s in spans {
            let Some(name) = layer_of(&s.name) else {
                self.import(op, epoch, &s.children);
                continue;
            };
            let start = base + s.start_us as f64;
            let id = self.push(name, op, start, start + s.dur_us as f64);
            self.spans[id as usize].meta = s
                .meta
                .iter()
                .filter_map(|(k, v)| match v {
                    MetaValue::Int(i) => Some((k.clone(), *i)),
                    _ => None,
                })
                .collect();
            self.open.push(id);
            self.import(op, epoch, &s.children);
            self.open.pop();
        }
    }

    /// Position to pass to [`SpanLog::sums_since`] later.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per layer, total duration and total self time of the spans
    /// recorded since `mark`.
    pub fn sums_since(&self, mark: usize) -> BTreeMap<&'static str, Sums> {
        let mut child_us = vec![0.0; self.spans.len() - mark];
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent.filter(|p| *p as usize >= mark) {
                child_us[p as usize - mark] += s.dur_us();
            }
        }
        let mut sums: BTreeMap<&'static str, Sums> = BTreeMap::new();
        for (s, covered) in self.spans[mark..].iter().zip(child_us) {
            let e = sums.entry(s.name).or_default();
            e.dur_us += s.dur_us();
            e.self_us += (s.dur_us() - covered).max(0.0);
        }
        sums
    }

    /// Sum of an integer metadata key over the spans of one layer since
    /// `mark`.
    pub fn meta_sum_since(&self, mark: usize, name: &str, key: &str) -> i64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.meta.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Write every span to `benchmark/target/trace_<workload>.json` as
    /// one JSON document; returns a line for the report.
    pub fn write_for(&self, workload: &str) -> Result<String, String> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj(vec![
                    ("id", Json::Int(id as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("op", Json::Int(s.op as i64)),
                    ("name", Json::Str(s.name.into())),
                    ("start_us", Json::Float(s.start_us)),
                    ("end_us", Json::Float(s.end_us)),
                ])
            })
            .collect();
        let doc = obj(vec![
            ("workload", Json::Str(workload.into())),
            ("spans", Json::Arr(spans)),
        ]);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
        let path = dir.join(format!("trace_{workload}.json"));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, doc.dump() + "\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(format!(
            "{} spans written to {}",
            self.spans.len(),
            path.display()
        ))
    }
}
