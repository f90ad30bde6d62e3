//! `compare <a.json> <b.json>`: one row per (metric, workload) with
//! both medians, quartiles and the bound; exits non-zero on any `worse`.
//!
//! Each file holds one result record per line, as `run --out` appends
//! them; the runs of one workload in a file are that side's sample.

use crate::spec::Better;
use crate::stats::{quartiles, spread};
use safara_server::json::Json;
use std::collections::BTreeMap;

/// The values of one (workload, metric) over the runs of one file.
pub struct Series {
    pub values: Vec<f64>,
    pub unit: String,
    pub better: Better,
    /// Only end-to-end metrics carry one.
    pub bound: Option<f64>,
}

pub type Runs = BTreeMap<(String, String), Series>;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Mark {
    Better,
    Within,
    Worse,
    /// The run-to-run spread is wider than the bound, and the two sides
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Mark {
    pub fn name(self) -> &'static str {
        match self {
            Mark::Better => "better",
            Mark::Within => "within",
            Mark::Worse => "worse",
            Mark::Unresolved => "unresolved",
        }
    }
}

/// Parse a results file: untraced and traced runs both, one per line.
pub fn load(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = Json::parse(line).map_err(|e| e.to_string())?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without `workload`")?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("record without `metrics`")?;
        for (name, m) in metrics {
            let field = |key: &str| m.get(key).ok_or(format!("{name}: no `{key}`"));
            let value = field("value")?
                .as_f64()
                .ok_or(format!("{name}: `value` not a number"))?;
            let better = field("better")?
                .as_str()
                .and_then(Better::parse)
                .ok_or(format!("{name}: bad `better`"))?;
            let series = runs
                .entry((workload.to_string(), name.clone()))
                .or_insert_with(|| Series {
                    values: Vec::new(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    better,
                    bound: m.get("bound").and_then(Json::as_f64),
                });
            series.values.push(value);
        }
    }
    Ok(runs)
}

/// How `b` stands against `a` for one metric. `setup_s` is judged by
/// its medians alone, as the benchmark driver judges it: a set-up is
/// timed a few times per run, not hundreds, and its spread says little.
pub fn judge(metric: &str, a: &Series, b: &Series) -> Mark {
    let (_, a_med, _) = quartiles(&a.values);
    let (_, b_med, _) = quartiles(&b.values);
    // Positive = b is worse, as a share of a's median.
    let sign = if a.better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = if a_med == 0.0 {
        0.0
    } else {
        sign * (b_med - a_med) / a_med.abs()
    };
    let noise = spread(&a.values).max(spread(&b.values));
    let Some(bound) = a.bound else {
        // Per-layer metrics have no bound: only report the direction.
        return match worse_by {
            w if w > noise => Mark::Worse,
            w if w < -noise => Mark::Better,
            _ => Mark::Within,
        };
    };
    let every_b_beats_every_a = a
        .values
        .iter()
        .all(|&x| b.values.iter().all(|&y| sign * (y - x) < 0.0));
    if noise > bound && metric != "setup_s" {
        return if every_b_beats_every_a {
            Mark::Better
        } else {
            Mark::Unresolved
        };
    }
    if worse_by > bound {
        Mark::Worse
    } else if worse_by < -noise {
        Mark::Better
    } else {
        Mark::Within
    }
}

/// Print the table; returns how many end-to-end rows are `worse`.
pub fn compare(a: &Runs, b: &Runs) -> usize {
    println!(
        "{:<14} {:<32} {:>6}  {:>12} {:>24}  {:>12} {:>24}  {:>6}  mark",
        "workload", "metric", "unit", "a median", "a quartiles", "b median", "b quartiles", "bound"
    );
    let mut worse = 0;
    for (key, sa) in a {
        let Some(sb) = b.get(key) else { continue };
        let (a1, a2, a3) = quartiles(&sa.values);
        let (b1, b2, b3) = quartiles(&sb.values);
        let mark = judge(&key.1, sa, sb);
        if mark == Mark::Worse && sa.bound.is_some() {
            worse += 1;
        }
        println!(
            "{:<14} {:<32} {:>6}  {:>12.4} {:>24}  {:>12.4} {:>24}  {:>6}  {}",
            key.0,
            key.1,
            sa.unit,
            a2,
            format!("[{a1:.4}, {a3:.4}]"),
            b2,
            format!("[{b1:.4}, {b3:.4}]"),
            sa.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            mark.name()
        );
    }
    worse
}
