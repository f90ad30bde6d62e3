//! Order statistics and the seeded shuffle.

use safara_core::SplitMix64;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so spreads computed here match the ones the driver takes.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile of an unsorted sample; 0 when empty.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p as usize * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// The first decile: the location every reported timing uses.
///
/// Interference on a shared guest only ever adds time, and it comes in
/// phases longer than a run: over ten-run batches of one binary the
/// median of `suite_cold`'s pass time moved between 838 and 1097 ms
/// while the first decile of the same samples moved by 4-6 %. A low
/// order statistic (not the minimum: a request that happens to skip a
/// stall must not decide the number) looks at the quiet moments that
/// even a disturbed run still has.
pub fn quiet(values: &[f64]) -> f64 {
    percentile(values, 10)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - (p as usize * n).div_ceil(100).clamp(1, n)
}

/// The highest percentile, up to `cap`, that still has at least ten
/// samples beyond it; the median when none has.
pub fn tail_percentile(n: usize, cap: u32) -> u32 {
    [99, 95, 90, 75]
        .into_iter()
        .find(|&p| p <= cap && samples_beyond(n, p) >= 10)
        .unwrap_or(50)
}

/// Geometric mean of positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Fisher–Yates shuffle driven by the run's SplitMix64 stream. The seed
/// decides the order of cells within a pass and nothing else.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}
