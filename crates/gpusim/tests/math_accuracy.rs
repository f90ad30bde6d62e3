//! Accuracy of `safara_gpusim::math` against the host's C library, which
//! serves only as the oracle here: every result must be within 1 ulp of
//! the host f64 function (for f32, the host f64 function of the widened
//! argument, rounded to f32), special values must match exactly, and
//! `floor` must be bit-identical to the host's.
//!
//! The `#[ignore]`d sweep covers every one of the 2^32 f32 inputs of each
//! unary f32 function, and of the sin/cos pair kernel against `sinf` and
//! `cosf`: `cargo test --release -p safara-gpusim --test math_accuracy --
//! --ignored --nocapture`.

use safara_gpusim::math;
use safara_gpusim::rng::SplitMix64;

const SAMPLES: usize = 20_000;

/// Distance in ulps between two f64 results; NaN matches only NaN, and a
/// zero or infinite oracle must be matched bit for bit (sign included).
fn ulps64(got: f64, want: f64) -> u64 {
    if got.is_nan() || want.is_nan() {
        return if got.is_nan() && want.is_nan() { 0 } else { u64::MAX };
    }
    if want == 0.0 || want.is_infinite() || got == 0.0 || got.is_infinite() {
        return if got.to_bits() == want.to_bits() { 0 } else { u64::MAX };
    }
    let ord = |x: f64| {
        let b = x.to_bits() as i64;
        if b < 0 {
            i64::MIN.wrapping_sub(b)
        } else {
            b
        }
    };
    ord(got).abs_diff(ord(want))
}

fn ulps32(got: f32, want: f32) -> u64 {
    if got.is_nan() || want.is_nan() {
        return if got.is_nan() && want.is_nan() { 0 } else { u64::MAX };
    }
    if want == 0.0 || want.is_infinite() || got == 0.0 || got.is_infinite() {
        return if got.to_bits() == want.to_bits() { 0 } else { u64::MAX };
    }
    let ord = |x: f32| {
        let b = x.to_bits() as i32 as i64;
        if b < 0 {
            i32::MIN as i64 - b
        } else {
            b
        }
    };
    ord(got).abs_diff(ord(want))
}

/// A double with a uniformly random exponent in `lo..=hi` (as a power of
/// two), a random mantissa and a random sign.
fn any_f64(rng: &mut SplitMix64, lo: i32, hi: i32) -> f64 {
    let e = rng.gen_range_i32(lo, hi + 1);
    let m = 1.0 + rng.next_f64();
    let sign = if rng.gen_bool() { -1.0 } else { 1.0 };
    sign * m * 2f64.powi(e)
}

/// Values every function is checked at, beyond the samples.
fn special_f64() -> Vec<f64> {
    let mut v = vec![
        0.0,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 3.0,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
        f64::from_bits(0x7ff8_dead_beef_0001), // quiet NaN with a payload
        1.0,
        0.5,
        2.0,
        3.0,
        std::f64::consts::FRAC_PI_2,
        std::f64::consts::PI,
        7.450580596923828e-9, // 2^-27: the trig fast range's floor
        134217728.0,          // 2^27: its ceiling
        134217727.99999999,
        1e22,
        1e300,
        6381956970095103.0 * 2f64.powi(797), // the hardest double for π/2 reduction
        708.0,
        708.5,
        709.782712893384,
        709.79,
        -745.1332191019411,
        -745.14,
        -740.0,
        4503599627370495.5,
        4503599627370496.0,
        0.9999999999999999,
        1.0000000000000002,
    ];
    for k in [1.0, 2.0, 3.0, 4.0, 1e3, 1e6, 1e8] {
        v.push(k * std::f64::consts::FRAC_PI_2);
    }
    let neg: Vec<f64> = v.iter().map(|x| -x).collect();
    v.extend(neg);
    v
}

/// Inputs where the host library is itself off: (function, input bits,
/// correctly rounded result bits from a 3000-bit evaluation). The host's
/// `cos` at the double closest to a multiple of π/2 is ≈ 8 ulps off.
const ORACLE_ERRORS: [(&str, u64, u64); 2] = [
    ("cos", 0x7506ac5b262ca1ff, 0xbc214ae72e6ba22f),
    ("cos", 0xf506ac5b262ca1ff, 0xbc214ae72e6ba22f),
];

fn check_unary64(name: &str, ours: fn(f64) -> f64, host: fn(f64) -> f64, inputs: &[f64]) {
    for &x in inputs {
        let known = ORACLE_ERRORS.iter().find(|(f, b, _)| *f == name && *b == x.to_bits());
        let d = ulps64(ours(x), known.map_or_else(|| host(x), |k| f64::from_bits(k.2)));
        assert!(
            d <= 1,
            "{name}({x:e} = {:#018x}) = {:e}, host {:e}",
            x.to_bits(),
            ours(x),
            host(x)
        );
    }
}

fn check_unary32(name: &str, ours: fn(f32) -> f32, host: fn(f64) -> f64, inputs: &[f32]) {
    for &x in inputs {
        let want = host(x as f64) as f32;
        let d = ulps32(ours(x), want);
        assert!(d <= 1, "{name}({x:e} = {:#010x}) = {:e}, host {want:e}", x.to_bits(), ours(x));
    }
}

fn samples64(seed: u64, lo: i32, hi: i32) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<f64> = (0..SAMPLES).map(|_| any_f64(&mut rng, lo, hi)).collect();
    v.extend(special_f64());
    v
}

/// Random f32 bit patterns (every class: subnormals, NaNs, infinities)
/// and the f64 specials narrowed.
fn samples32(seed: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<f32> = (0..SAMPLES).map(|_| f32::from_bits(rng.next_u32())).collect();
    v.extend((0..SAMPLES).map(|_| rng.gen_range_f32(-100.0, 100.0)));
    v.extend(special_f64().iter().map(|&x| x as f32));
    v
}

#[test]
fn sin_cos_f64_within_one_ulp() {
    let mut inputs = samples64(0x5101, -40, 1023);
    let mut rng = SplitMix64::new(0x5102);
    // 352.ep's arguments: i·78.233 up to ≈ 3.1e7, and 2π·u for u in [0, 1).
    inputs.extend((0..SAMPLES).map(|_| rng.gen_range_f64(0.0, 3.1e7)));
    inputs.extend((0..SAMPLES).map(|_| rng.gen_range_f64(-7.0, 7.0)));
    check_unary64("sin", math::sin, f64::sin, &inputs);
    check_unary64("cos", math::cos, f64::cos, &inputs);
}

#[test]
fn exp_log_floor_f64() {
    let mut rng = SplitMix64::new(0xe4b);
    let mut inputs = samples64(0xe4a, -1074, 10);
    inputs.extend((0..SAMPLES).map(|_| rng.gen_range_f64(-750.0, 750.0)));
    check_unary64("exp", math::exp, f64::exp, &inputs);
    let mut inputs = samples64(0x10a, -1074, 1023);
    inputs.extend((0..SAMPLES).map(|_| f64::from_bits(rng.next_u64())));
    inputs.extend((0..SAMPLES).map(|_| rng.gen_range_f64(0.5, 2.0)));
    check_unary64("log", math::log, f64::ln, &inputs);
    for x in inputs.iter().chain(&samples64(0xf1, -10, 60)) {
        assert_eq!(math::floor(*x).to_bits(), x.floor().to_bits(), "floor({x:e})");
    }
}

#[test]
fn unary_f32_within_one_ulp() {
    let inputs = samples32(0xf32);
    check_unary32("sinf", math::sinf, f64::sin, &inputs);
    check_unary32("cosf", math::cosf, f64::cos, &inputs);
    check_unary32("expf", math::expf, f64::exp, &inputs);
    check_unary32("logf", math::logf, f64::ln, &inputs);
    for x in inputs {
        assert_eq!(math::floorf(x).to_bits(), x.floor().to_bits(), "floorf({x:e})");
    }
}

/// Operand pairs for `pow`: random bases over the whole exponent range
/// with exponents that keep x^y near the finite range, integral
/// exponents for negative bases, bases near 1 with huge exponents, and
/// every pair of the special values.
fn pow_pairs() -> Vec<(f64, f64)> {
    let mut rng = SplitMix64::new(0x90f);
    let mut v = Vec::new();
    for _ in 0..SAMPLES {
        let x = any_f64(&mut rng, -1074, 1023).abs();
        let reach = 1100.0 / x.log2().abs().max(1e-3);
        v.push((x, rng.gen_range_f64(-reach, reach)));
        let n = rng.gen_range_i32(-60, 60) as f64;
        v.push((-rng.gen_range_f64(0.01, 100.0), n));
        v.push((1.0 + rng.gen_range_f64(-1e-9, 1e-9), any_f64(&mut rng, 30, 40)));
        v.push((rng.gen_range_f64(0.0, 10.0), rng.gen_range_f64(-10.0, 10.0)));
    }
    let special = special_f64();
    for &x in &special {
        for &y in special.iter().chain(&[0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 1e10]) {
            v.push((x, y));
        }
    }
    v
}

#[test]
fn pow_within_one_ulp() {
    for (x, y) in pow_pairs() {
        let (got, want) = (math::pow(x, y), x.powf(y));
        assert!(
            ulps64(got, want) <= 1,
            "pow({x:e} = {:#x}, {y:e} = {:#x}) = {got:e}, host {want:e}",
            x.to_bits(),
            y.to_bits()
        );
        let (xf, yf) = (x as f32, y as f32);
        let (got, want) = (math::powf(xf, yf), (xf as f64).powf(yf as f64) as f32);
        assert!(ulps32(got, want) <= 1, "powf({xf:e}, {yf:e}) = {got:e}, host {want:e}");
    }
}

/// Whether rounding the f64 value `r` to f32 can differ from rounding the
/// exact value it approximates: `r` lies within an f64 ulp of the
/// midpoint between two f32 neighbours.
fn double_rounds(r: f64) -> bool {
    let f = r as f32;
    if !r.is_finite() || !f.is_finite() || f == 0.0 {
        return false;
    }
    let next = |g: f32, up: bool| {
        let b = g.to_bits() as i32 + if up == (g > 0.0) { 1 } else { -1 };
        f32::from_bits(b as u32) as f64
    };
    let other = if r > f as f64 { next(f, true) } else { next(f, false) };
    let mid = (f as f64 + other) / 2.0;
    let ulp = f64::from_bits(r.abs().to_bits() + 1) - r.abs();
    (r - mid).abs() <= ulp
}

/// Every f32 input of every unary f32 function. Prints, per function,
/// the inputs where the host oracle itself double-rounds (its f64 result
/// lies within an f64 ulp of an f32 midpoint, so rounding it to f32 may
/// miss the correctly rounded value) and the inputs where ours differs
/// from the oracle, which must be by at most 1 ulp.
#[test]
#[ignore = "2^32 inputs per function: run with --release -- --ignored"]
fn exhaustive_f32_sweep() {
    type Case = (&'static str, fn(f32) -> f32, fn(f64) -> f64);
    let cases: [Case; 5] = [
        ("sinf", math::sinf, f64::sin),
        ("cosf", math::cosf, f64::cos),
        ("expf", math::expf, f64::exp),
        ("logf", math::logf, f64::ln),
        ("floorf", math::floorf, f64::floor),
    ];
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    for (name, ours, host) in cases {
        let start = std::time::Instant::now();
        // Per thread: (inputs that differ, inputs where the oracle double-rounds).
        let results: Vec<(Vec<u32>, Vec<u32>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let (mut differ, mut oracle) = (Vec::new(), Vec::new());
                        let (lo, hi) = ((t << 32) / threads, ((t + 1) << 32) / threads);
                        for b in lo..hi {
                            let x = f32::from_bits(b as u32);
                            let r = host(x as f64);
                            let (got, want) = (ours(x), r as f32);
                            let d = ulps32(got, want);
                            assert!(d <= 1, "{name}({x:e} = {b:#010x}) = {got:e}, host {want:e}");
                            if d == 1 {
                                differ.push(b as u32);
                            }
                            if double_rounds(r) {
                                oracle.push(b as u32);
                            }
                        }
                        (differ, oracle)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let (differ, oracle): (Vec<u32>, Vec<u32>) =
            results.into_iter().fold((Vec::new(), Vec::new()), |(mut d, mut o), (d1, o1)| {
                d.extend(d1);
                o.extend(o1);
                (d, o)
            });
        println!(
            "{name}: the oracle double-rounds at {} inputs; ours differs from it by 1 ulp at {} \
             ({} of them where it double-rounds); {:.1} s",
            oracle.len(),
            differ.len(),
            differ.iter().filter(|b| oracle.contains(b)).count(),
            start.elapsed().as_secs_f64()
        );
        for &b in oracle.iter().chain(&differ).take(40) {
            let x = f32::from_bits(b);
            let r = host(x as f64);
            let tag = if oracle.contains(&b) { "oracle double-rounds" } else { "differs" };
            println!(
                "  {name}({x:e} = {b:#010x}): oracle f64 {r:e} -> {:e}, ours {:e}  [{tag}]",
                r as f32,
                ours(x)
            );
        }
        if name == "floorf" {
            assert!(differ.is_empty(), "floorf must be exact");
        }
    }
    // The sin/cos pair kernel, over columns of 32 consecutive inputs: both
    // of its outputs are exactly `sinf` and `cosf` at every input.
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let (lo, hi) = ((t << 32) / threads, ((t + 1) << 32) / threads);
                let (mut sin, mut cos) = ([0u64; 32], [0u64; 32]);
                for b0 in (lo..hi).step_by(32) {
                    let n = (hi - b0).min(32) as usize;
                    let x: [u64; 32] = std::array::from_fn(|l| (b0 + l as u64) & 0xffff_ffff);
                    math::sincos_column(true, &mut sin[..n], &mut cos[..n], &x[..n]);
                    for l in 0..n {
                        let a = f32::from_bits(x[l] as u32);
                        let want = [math::sinf(a).to_bits() as u64, math::cosf(a).to_bits() as u64];
                        assert_eq!([sin[l], cos[l]], want, "sincos({a:e} = {:#010x})", x[l]);
                    }
                }
            });
        }
    });
    println!(
        "sincos_column: both outputs are sinf and cosf at every input; {:.1} s",
        start.elapsed().as_secs_f64()
    );
}
