//! In-tree transcendentals: the one implementation of `sin`, `cos`,
//! `exp`, `log`, `pow` and `floor` that all three engines call, so a
//! kernel's result bits are a property of this crate, not of the host's
//! C library.
//!
//! **Contract.** Every result is within 1 ulp of the correctly rounded
//! value; `floor` is exact. An f32 function is evaluated in f64 on the
//! (exactly) widened argument and rounded once to f32: it is the f64
//! function, except that f32 `sin` and `cos` reduce |x| < 2^20 with
//! fewer pieces of π/2. So it has the f64 special cases and is off the
//! correctly rounded f32 only where that rounding double-rounds.
//!
//! **Shape.** Each unary function is `if in_range(x) { fast(x) } else {
//! slow(x) }` (`Split`). The fast half is branch-free straight-line
//! arithmetic over a stated range — Cody–Waite reduction plus the
//! fdlibm kernels — so it vectorizes over a warp column. The slow half
//! takes everything else: huge trig arguments (Payne–Hanek), trig
//! arguments below 2^-27 (±0 and subnormals among them), `log` of zero,
//! negatives and subnormals, ±∞ and NaN. [`column`] checks once whether
//! every lane of a column is in range and, if so, runs the fast half over
//! the column; otherwise it runs the whole function per lane. Either way each lane
//! gets exactly the scalar function's bits, so the lockstep engine agrees
//! with the lane-major ones by construction. `sin` and `cos` of one
//! operand share a pair kernel, [`sincos_column`]: the fast trig half
//! already evaluates both fdlibm kernels and picks one by the quadrant,
//! and `cos` is `sin` one quadrant on, so one range check per column and
//! one reduction per lane serve both columns, each selected at its own
//! quadrant. Out of range it calls both scalar functions per lane, so its
//! bits are those of two [`column`] calls. `pow` (two operands, on no
//! hot path) is scalar only: its fast half is the fdlibm core for a
//! positive normal base and a finite exponent, its slow half the C99
//! special cases around that core.
//!
//! No host `libm` call remains here; `sqrt` and `abs` are single
//! instructions and are not routed through this module.

use crate::vir::MathOp;

/// 1.5·2^52: for |v| < 2^51, `v + TOINT - TOINT` rounds `v` to the
/// nearest integer, and the low mantissa bits of `v + TOINT` hold it in
/// two's complement.
const TOINT: f64 = 6755399441055744.0;
const SIGN: u64 = 1 << 63;
/// The NaN an invalid operation (∞ - ∞, 0/0) produces.
const INVALID: f64 = f64::from_bits(0xfff8_0000_0000_0000);
const MANT: u64 = (1 << 52) - 1;

/// One unary function split in two halves, `eval` being the function.
pub(crate) trait Split {
    /// Whether `fast` is valid at `x`.
    fn in_range(x: f64) -> bool;
    /// Branch-free evaluation, exact to the contract inside the range.
    fn fast(x: f64) -> f64;
    /// Everything outside the range.
    fn slow(x: f64) -> f64;
    /// The f32 function's slow half: by default the f64 one on the
    /// widened argument.
    fn slow32(x: f32) -> f32 {
        Self::slow(x as f64) as f32
    }
    #[inline(always)]
    fn eval(x: f64) -> f64 {
        if Self::in_range(x) {
            Self::fast(x)
        } else {
            Self::slow(x)
        }
    }
    /// The f32 function: the fast half on the widened argument, rounded once.
    #[inline(always)]
    fn eval32(x: f32) -> f32 {
        let w = x as f64;
        if Self::in_range(w) {
            Self::fast(w) as f32
        } else {
            Self::slow32(x)
        }
    }
}

/// sin(x) for f64.
pub fn sin(x: f64) -> f64 {
    Sin::eval(x)
}

/// cos(x) for f64.
pub fn cos(x: f64) -> f64 {
    Cos::eval(x)
}

/// e^x for f64.
pub fn exp(x: f64) -> f64 {
    Exp::eval(x)
}

/// The natural logarithm for f64.
pub fn log(x: f64) -> f64 {
    Log::eval(x)
}

/// floor(x) for f64, exact.
pub fn floor(x: f64) -> f64 {
    Floor::eval(x)
}

/// sin(x) for f32.
pub fn sinf(x: f32) -> f32 {
    Sin32::eval32(x)
}

/// cos(x) for f32.
pub fn cosf(x: f32) -> f32 {
    Cos32::eval32(x)
}

/// e^x for f32.
pub fn expf(x: f32) -> f32 {
    Exp::eval32(x)
}

/// The natural logarithm for f32.
pub fn logf(x: f32) -> f32 {
    Log::eval32(x)
}

/// floor(x) for f32, exact.
pub fn floorf(x: f32) -> f32 {
    Floor::eval32(x)
}

/// x^y for f32.
pub fn powf(x: f32, y: f32) -> f32 {
    pow(x as f64, y as f64) as f32
}

/// `out[l] = op(x[l])` over a warp column (`x: None` computes in place),
/// each lane the bits of an f32 (`f32_lanes`) or else of an f64, as
/// [`crate::interp`]'s scalar `math` reads them. `op` is one of those
/// [`has_column`] accepts.
#[inline]
pub(crate) fn column(op: MathOp, f32_lanes: bool, out: &mut [u64], x: Option<&[u64]>) {
    match (op, f32_lanes) {
        (MathOp::Sin, false) => col::<Sin, false>(out, x),
        (MathOp::Sin, true) => col::<Sin32, true>(out, x),
        (MathOp::Cos, false) => col::<Cos, false>(out, x),
        (MathOp::Cos, true) => col::<Cos32, true>(out, x),
        (MathOp::Exp, false) => col::<Exp, false>(out, x),
        (MathOp::Exp, true) => col::<Exp, true>(out, x),
        (MathOp::Log, false) => col::<Log, false>(out, x),
        (MathOp::Log, true) => col::<Log, true>(out, x),
        (MathOp::Floor, false) => col::<Floor, false>(out, x),
        (MathOp::Floor, true) => col::<Floor, true>(out, x),
        (MathOp::Sqrt | MathOp::Abs | MathOp::Pow, _) => {
            unreachable!("{op:?} has no column kernel")
        }
    }
}

/// Whether [`column`] implements `op`.
pub(crate) fn has_column(op: MathOp) -> bool {
    !matches!(op, MathOp::Sqrt | MathOp::Abs | MathOp::Pow)
}

#[inline(never)]
fn col<F: Split, const F32: bool>(out: &mut [u64], x: Option<&[u64]>) {
    let arg = |b: u64| if F32 { f32::from_bits(b as u32) as f64 } else { f64::from_bits(b) };
    let src: &[u64] = match x {
        Some(x) => x,
        None => out,
    };
    let fast = src.iter().fold(true, |ok, &b| ok & F::in_range(arg(b)));
    macro_rules! each {
        ($f:expr) => {
            match x {
                Some(x) => out.iter_mut().zip(x).for_each(|(o, &b)| *o = $f(b)),
                None => out.iter_mut().for_each(|o| *o = $f(*o)),
            }
        };
    }
    if fast {
        each!(|b| if F32 {
            (F::fast(arg(b)) as f32).to_bits() as u64
        } else {
            F::fast(arg(b)).to_bits()
        })
    } else if F32 {
        each!(|b| F::eval32(f32::from_bits(b as u32)).to_bits() as u64)
    } else {
        each!(|b| F::eval(f64::from_bits(b)).to_bits())
    }
}

/// `sin_out[l] = sin(x[l])` and `cos_out[l] = cos(x[l])` over a warp
/// column, each lane the bits of an f32 (`f32_lanes`) or else of an f64:
/// exactly the bits of [`sinf`] and [`cosf`] (or [`sin`] and [`cos`]) in
/// every lane. Both share one range check per column. When every lane is
/// in range, each lane is reduced once, both fdlibm kernels run once, and
/// the two results are selected at quadrants `q` and `q + 1`; otherwise
/// each lane calls the two scalar functions.
pub fn sincos_column(f32_lanes: bool, sin_out: &mut [u64], cos_out: &mut [u64], x: &[u64]) {
    if f32_lanes {
        sincos::<true>(sin_out, cos_out, x)
    } else {
        sincos::<false>(sin_out, cos_out, x)
    }
}

#[inline(never)]
fn sincos<const F32: bool>(sin_out: &mut [u64], cos_out: &mut [u64], x: &[u64]) {
    let arg = |b: u64| if F32 { f32::from_bits(b as u32) as f64 } else { f64::from_bits(b) };
    let bits = |v: f64| if F32 { (v as f32).to_bits() as u64 } else { v.to_bits() };
    let in_range = |w: f64| if F32 { Sin32::in_range(w) } else { Sin::in_range(w) };
    let fast = x.iter().fold(true, |ok, &b| ok & in_range(arg(b)));
    let lanes = sin_out.iter_mut().zip(cos_out.iter_mut()).zip(x);
    if fast {
        for ((s, c), &b) in lanes {
            let (q, hi, lo) = if F32 {
                let (q, r) = reduce32(arg(b));
                (q, r, 0.0)
            } else {
                reduce(arg(b))
            };
            let (ks, kc) = (ksin(hi, lo), kcos(hi, lo));
            *s = bits(quadrant(q, ks, kc));
            *c = bits(quadrant(q.wrapping_add(1), ks, kc));
        }
    } else if F32 {
        for ((s, c), &b) in lanes {
            let a = f32::from_bits(b as u32);
            (*s, *c) = (sinf(a).to_bits() as u64, cosf(a).to_bits() as u64);
        }
    } else {
        for ((s, c), &b) in lanes {
            let a = f64::from_bits(b);
            (*s, *c) = (sin(a).to_bits(), cos(a).to_bits());
        }
    }
}

// ---------------------------------------------------------------- sin, cos

/// The trig fast range: 2^-27 ≤ |x| < 2^27. Below it sin x = x and
/// cos x = 1 to the last bit; above it the quotient n no longer fits the
/// 27 bits that keep each `n·PIO2_k` exact.
const TRIG_MIN: f64 = 7.450580596923828e-9;
const TRIG_MAX: f64 = 134217728.0;

const INV_PIO2: f64 = f64::from_bits(0x3fe45f306dc9c883);
/// π/2 in four 26-bit pieces and a tail (≈ 2^-150 short of π/2).
const PIO2_1: f64 = f64::from_bits(0x3ff921fb50000000);
const PIO2_2: f64 = f64::from_bits(0x3e5110b460000000);
const PIO2_3: f64 = f64::from_bits(0x3c91a62620000000);
const PIO2_4: f64 = f64::from_bits(0x3b13145c00000000);
const PIO2_5: f64 = f64::from_bits(0x397b839a252049c1);
/// π/2 as a double-double, for Payne–Hanek.
const PIO2_HI: f64 = f64::from_bits(0x3ff921fb54442d18);
const PIO2_LO: f64 = f64::from_bits(0x3c91a62633145c07);

const S1: f64 = f64::from_bits(0xbfc5555555555549);
const S2: f64 = f64::from_bits(0x3f8111111110f8a6);
const S3: f64 = f64::from_bits(0xbf2a01a019c161d5);
const S4: f64 = f64::from_bits(0x3ec71de357b1fe7d);
const S5: f64 = f64::from_bits(0xbe5ae5e68a2b9ceb);
const S6: f64 = f64::from_bits(0x3de5d93a5acfd57c);
const C1: f64 = f64::from_bits(0x3fa555555555554c);
const C2: f64 = f64::from_bits(0xbf56c16c16c15177);
const C3: f64 = f64::from_bits(0x3efa01a019cb1590);
const C4: f64 = f64::from_bits(0xbe927e4f809c52ad);
const C5: f64 = f64::from_bits(0x3e21ee9ebdb4b1c4);
const C6: f64 = f64::from_bits(0xbda8fae9be8838d4);

struct Sin;
struct Cos;

impl Split for Sin {
    #[inline(always)]
    fn in_range(x: f64) -> bool {
        (TRIG_MIN..TRIG_MAX).contains(&x.abs())
    }
    #[inline(always)]
    fn fast(x: f64) -> f64 {
        let (q, hi, lo) = reduce(x);
        sin_quadrant(q, hi, lo)
    }
    fn slow(x: f64) -> f64 {
        trig_slow(x, 0, x)
    }
}

impl Split for Cos {
    #[inline(always)]
    fn in_range(x: f64) -> bool {
        Sin::in_range(x)
    }
    #[inline(always)]
    fn fast(x: f64) -> f64 {
        let (q, hi, lo) = reduce(x);
        sin_quadrant(q.wrapping_add(1), hi, lo)
    }
    fn slow(x: f64) -> f64 {
        trig_slow(x, 1, 1.0)
    }
}

/// sin(x + `quarter`·π/2) outside the fast range; `tiny` is its value
/// for |x| < 2^-27.
fn trig_slow(x: f64, quarter: u64, tiny: f64) -> f64 {
    if x.is_nan() {
        x + x
    } else if x.is_infinite() {
        INVALID
    } else if x.abs() < TRIG_MIN {
        tiny
    } else {
        let (q, hi, lo) = reduce_large(x);
        sin_quadrant(q.wrapping_add(quarter), hi, lo)
    }
}

/// `(s, e)` with `s = a + b` rounded and `s + e = a + b` exactly.
#[inline(always)]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// Cody–Waite for |x| < 2^27: `(q, hi, lo)` with x = n·π/2 + hi + lo,
/// q ≡ n (mod 4) and |hi| ≲ π/4. `n·PIO2_k` is exact (26 + 27 bits),
/// `x - n·PIO2_1` is exact, and each later piece is subtracted by an exact
/// TwoSum, so a reduced argument that cancels deep into the 150 bits of
/// π/2 loses nothing; only the last, tiny terms are rounded.
#[inline(always)]
fn reduce(x: f64) -> (u64, f64, f64) {
    let t = x * INV_PIO2 + TOINT;
    let n = t - TOINT;
    let a = x - n * PIO2_1;
    let (s1, e1) = two_sum(a, -(n * PIO2_2));
    let (s2, e2) = two_sum(s1, -(n * PIO2_3));
    let (s3, e3) = two_sum(s2, -(n * PIO2_4));
    let tail = ((e1 + e2) + e3) - n * PIO2_5;
    let hi = s3 + tail;
    (t.to_bits(), hi, (s3 - hi) + tail)
}

/// fdlibm's `__kernel_sin(x, y, 1)`: sin(x + y) for |x| ≲ π/4.
#[inline(always)]
fn ksin(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let v = z * x;
    x - ((z * (0.5 * y - v * r) - y) - v * S1)
}

/// fdlibm's `__kernel_cos(x, y)`: cos(x + y) for |x| ≲ π/4.
#[inline(always)]
fn kcos(x: f64, y: f64) -> f64 {
    let z = x * x;
    let w = z * z;
    let r = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    w + (((1.0 - w) - hz) + (z * r - x * y))
}

/// The f32 trig fast range, on the widened argument: 2^-27 ≤ |x| < 2^20.
/// An f32 result needs much less of the remainder: π/2 in two 33-bit
/// pieces and a tail, each product exact for |n| < 2^20, and only the
/// last subtraction rounded (the exhaustive f32 sweep checks every input).
const TRIG32_MAX: f64 = 1048576.0;
const PIO2_33: [f64; 3] = [
    f64::from_bits(0x3ff921fb54400000),
    f64::from_bits(0x3dd0b4611a600000),
    f64::from_bits(0x3ba3198a2e037073),
];

/// f32 sin and cos: [`Sin`] and [`Cos`] with a cheaper reduction over
/// the f32 fast range, and their f64 functions outside it.
struct Sin32;
struct Cos32;

/// `(q, r)` with x = n·π/2 + r, q ≡ n (mod 4), for |x| < 2^20.
#[inline(always)]
fn reduce32(x: f64) -> (u64, f64) {
    let t = x * INV_PIO2 + TOINT;
    let n = t - TOINT;
    (t.to_bits(), ((x - n * PIO2_33[0]) - n * PIO2_33[1]) - n * PIO2_33[2])
}

impl Split for Sin32 {
    #[inline(always)]
    fn in_range(x: f64) -> bool {
        (TRIG_MIN..TRIG32_MAX).contains(&x.abs())
    }
    #[inline(always)]
    fn fast(x: f64) -> f64 {
        let (q, r) = reduce32(x);
        sin_quadrant(q, r, 0.0)
    }
    fn slow(x: f64) -> f64 {
        Sin::eval(x)
    }
}

impl Split for Cos32 {
    #[inline(always)]
    fn in_range(x: f64) -> bool {
        Sin32::in_range(x)
    }
    #[inline(always)]
    fn fast(x: f64) -> f64 {
        let (q, r) = reduce32(x);
        sin_quadrant(q.wrapping_add(1), r, 0.0)
    }
    fn slow(x: f64) -> f64 {
        Cos::eval(x)
    }
}

/// sin(q·π/2 + hi + lo), from the low two bits of `q`: both kernels run
/// and [`quadrant`] picks one, so lanes never branch apart.
#[inline(always)]
fn sin_quadrant(q: u64, hi: f64, lo: f64) -> f64 {
    quadrant(q, ksin(hi, lo), kcos(hi, lo))
}

/// sin(q·π/2 + r) from `s` = sin r and `c` = cos r: bit masks pick one of
/// them by the low bit of `q` and its sign by the next.
#[inline(always)]
fn quadrant(q: u64, s: f64, c: f64) -> f64 {
    let odd = (q & 1).wrapping_neg();
    let bits = (c.to_bits() & odd) | (s.to_bits() & !odd);
    f64::from_bits(bits ^ ((q & 2) << 62))
}

/// 2/π, bit 1 (weight 1/2) first, to 1280 bits: enough for the largest
/// finite double.
const TWO_OVER_PI: [u64; 20] = [
    0xa2f9836e4e441529,
    0xfc2757d1f534ddc0,
    0xdb6295993c439041,
    0xfe5163abdebbc561,
    0xb7246e3a424dd2e0,
    0x06492eea09d1921c,
    0xfe1deb1cb129a73e,
    0xe88235f52ebb4484,
    0xe99c7026b45f7e41,
    0x3991d639835339f4,
    0x9c845f8bbdf9283b,
    0x1ff897ffde05980f,
    0xef2f118b5a0a6d1f,
    0x6d367ecf27cb09b7,
    0x4f463f669e5fea2d,
    0x7527bac7ebe5f17b,
    0x3d0739f78a5292ea,
    0x6bfb5fb11f8d5d08,
    0x56033046fc7b6bab,
    0xf0cfbc209af4361d,
];

/// The 64 bits of 2/π starting `o` bits after the binary point (`o` may
/// be negative: the bits before the point are zeros).
fn two_over_pi_bits(o: i32) -> u64 {
    let word = |i: i32| if i < 0 { 0 } else { TWO_OVER_PI[i as usize] };
    let (i, sh) = (o.div_euclid(64), o.rem_euclid(64) as u32);
    if sh == 0 {
        word(i)
    } else {
        (word(i) << sh) | (word(i + 1) >> (64 - sh))
    }
}

/// 2^k for a normal result.
fn pow2(k: i32) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// Dekker's exact product without FMA: `p + e = a·b`.
fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let split = |v: f64| {
        let c = 134217729.0 * v;
        let h = c - (c - v);
        (h, v - h)
    };
    let p = a * b;
    let ((ah, al), (bh, bl)) = (split(a), split(b));
    (p, ((ah * bh - p) + ah * bl + al * bh) + al * bl)
}

/// Payne–Hanek for finite |x| ≥ 2^27, same result shape as [`reduce`].
/// With x = m·2^e, the bits of 2/π worth less than 4/(m·2^e) are the only
/// ones that matter mod 4: a 192-bit window of them times the 53-bit `m`
/// gives x·2/π mod 4 with ≥ 130 fraction bits, of which the worst known
/// cancellation (≈ 62 bits) leaves more than a double-double needs.
fn reduce_large(x: f64) -> (u64, f64, f64) {
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i32 - 1075;
    let m = (bits & MANT) | (1 << 52);
    let [c0, c1, c2] = [0, 64, 128].map(|k| two_over_pi_bits(e - 2 + k));
    // The low 192 bits of m·(c0:c1:c2), weighted so the top two bits are
    // x·2/π mod 4 and the other 190 its fraction.
    let p2 = m as u128 * c2 as u128;
    let p1 = m as u128 * c1 as u128 + (p2 >> 64);
    let r0 = m.wrapping_mul(c0).wrapping_add((p1 >> 64) as u64);
    let (r1, r2) = (p1 as u64, p2 as u64);
    let mut q = r0 >> 62;
    let mut f = [(r0 << 2) | (r1 >> 62), (r1 << 2) | (r2 >> 62), r2 << 2];
    // A fraction ≥ 1/2 rounds the quotient up and leaves a negative remainder.
    let neg = f[0] >> 63 == 1;
    if neg {
        q += 1;
        let (l, c) = (!f[2]).overflowing_add(1);
        let (m1, c1) = (!f[1]).overflowing_add(u64::from(c));
        f = [(!f[0]).wrapping_add(u64::from(c1)), m1, l];
    }
    // Normalize: (h, l) are the 128 bits after the `lz` leading zeros, so
    // |fraction| ≈ (h + l·2^-64)·2^(-64-lz); h gives 53 + 11 bits, l 53 more.
    let lz = match f {
        [0, 0, c] => 128 + c.leading_zeros(),
        [0, b, _] => 64 + b.leading_zeros(),
        [a, ..] => a.leading_zeros(),
    };
    if lz == 192 {
        return (q, 0.0, 0.0);
    }
    let words = [f[0], f[1], f[2], 0, 0];
    let (w, b) = ((lz / 64) as usize, lz % 64);
    let shl = |a: u64, c: u64| if b == 0 { a } else { (a << b) | (c >> (64 - b)) };
    let (h, l) = (shl(words[w], words[w + 1]), shl(words[w + 1], words[w + 2]));
    let scale = pow2(-64 - lz as i32);
    let f_hi = ((h >> 11 << 11) as f64) * scale;
    let f_lo = ((h & 0x7ff) as f64 + l as f64 * pow2(-64)) * scale;
    let (p, err) = two_prod(f_hi, PIO2_HI);
    let err = err + (f_hi * PIO2_LO + f_lo * PIO2_HI);
    let (hi, lo) = (p + err, (p - (p + err)) + err);
    let (hi, lo) = if neg { (-hi, -lo) } else { (hi, lo) };
    if x < 0.0 {
        (q.wrapping_neg(), -hi, -lo)
    } else {
        (q, hi, lo)
    }
}

// --------------------------------------------------------------------- exp

const INV_LN2: f64 = f64::from_bits(0x3ff71547652b82fe);
const LN2_HI: f64 = f64::from_bits(0x3fe62e42fee00000);
const LN2_LO: f64 = f64::from_bits(0x3dea39ef35793c76);
const P1: f64 = f64::from_bits(0x3fc555555555553e);
const P2: f64 = f64::from_bits(0xbf66c16c16bebd93);
const P3: f64 = f64::from_bits(0x3f11566aaf25de2c);
const P4: f64 = f64::from_bits(0xbebbbd41c5d26bf1);
const P5: f64 = f64::from_bits(0x3e66376972bea4d0);
/// exp overflows above this and underflows to 0 below `EXP_UNDER`.
const EXP_OVER: f64 = 709.782712893384;
const EXP_UNDER: f64 = -745.1332191019411;

struct Exp;

/// fdlibm's exp core: `(y, t)` with e^x = y·2^k, y ∈ (0.7, 1.42), and k
/// in the low bits of `t` (see [`TOINT`]).
#[inline(always)]
fn exp_core(x: f64) -> (f64, f64) {
    let t = x * INV_LN2 + TOINT;
    let k = t - TOINT;
    let hi = x - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let z = r * r;
    let c = r - z * (P1 + z * (P2 + z * (P3 + z * (P4 + z * P5))));
    (1.0 - ((lo - (r * c) / (2.0 - c)) - hi), t)
}

impl Split for Exp {
    /// |x| ≤ 708: 2^k stays normal, so one multiply scales exactly.
    #[inline(always)]
    fn in_range(x: f64) -> bool {
        x.abs() <= 708.0
    }
    #[inline(always)]
    fn fast(x: f64) -> f64 {
        let (y, t) = exp_core(x);
        y * f64::from_bits(t.to_bits().wrapping_add(1023) << 52)
    }
    fn slow(x: f64) -> f64 {
        if x.is_nan() {
            x + x
        } else if x > EXP_OVER {
            f64::INFINITY
        } else if x < EXP_UNDER {
            0.0
        } else {
            // 2^k is not normal: scale in two steps, the second rounding once.
            let (y, t) = exp_core(x);
            let k = (t - TOINT) as i32;
            if k > 0 {
                y * pow2(k - 1000) * pow2(1000)
            } else {
                y * pow2(k + 1000) * pow2(-1000)
            }
        }
    }
}

// --------------------------------------------------------------------- log

const LG1: f64 = f64::from_bits(0x3fe5555555555593);
const LG2: f64 = f64::from_bits(0x3fd999999997fa04);
const LG3: f64 = f64::from_bits(0x3fd2492494229359);
const LG4: f64 = f64::from_bits(0x3fcc71c51d8e78af);
const LG5: f64 = f64::from_bits(0x3fc7466496cb03de);
const LG6: f64 = f64::from_bits(0x3fc39a09d078c69f);
const LG7: f64 = f64::from_bits(0x3fc2f112df3e5244);

struct Log;

/// fdlibm's log for positive normal bits, minus `bias`·ln 2: x = 2^k·m
/// with √2/2 < m < √2 by integer arithmetic on the bits (k converted
/// exactly through a 2^52 bias), then log m = f - f²/2 + s·(f²/2 + R(s²))
/// with f = m - 1, s = f/(2 + f).
#[inline(always)]
fn log_core(bits: u64, bias: f64) -> f64 {
    let ix = bits.wrapping_add((0x3ff00000 - 0x3fe6a09e) << 32);
    let k = f64::from_bits(0x4330000000000000 | (ix >> 52)) - (4503599627370496.0 + 1023.0) - bias;
    let f = f64::from_bits((ix & MANT) + (0x3fe6a09e << 32)) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6));
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

impl Split for Log {
    /// Positive, normal and finite.
    #[inline(always)]
    fn in_range(x: f64) -> bool {
        x.to_bits().wrapping_sub(f64::MIN_POSITIVE.to_bits()) < 0x7fe0000000000000
    }
    #[inline(always)]
    fn fast(x: f64) -> f64 {
        log_core(x.to_bits(), 0.0)
    }
    fn slow(x: f64) -> f64 {
        if x.is_nan() || x == f64::INFINITY {
            x + x
        } else if x == 0.0 {
            f64::NEG_INFINITY
        } else if x < 0.0 {
            INVALID
        } else {
            log_core((x * pow2(54)).to_bits(), 54.0)
        }
    }
}

// ------------------------------------------------------------------- floor

struct Floor;

impl Split for Floor {
    /// |x| < 2^52: below it a double may have a fraction.
    #[inline(always)]
    fn in_range(x: f64) -> bool {
        x.abs() < 4503599627370496.0
    }
    /// Round to nearest by adding and subtracting ±2^52 (exact), step
    /// down where that rounded up, and keep the sign of a zero.
    #[inline(always)]
    fn fast(x: f64) -> f64 {
        let sign = x.to_bits() & SIGN;
        let big = f64::from_bits(4503599627370496.0f64.to_bits() | sign);
        let r = (x + big) - big;
        let r = r - f64::from_bits(u64::from(r > x).wrapping_neg() & 1.0f64.to_bits());
        f64::from_bits(r.to_bits() | sign)
    }
    /// Integral already, or NaN or ±∞: passed through untouched (a
    /// signalling NaN too, as the host's `floor` does).
    fn slow(x: f64) -> f64 {
        x
    }
    /// Untouched, which widening would not leave a signalling NaN.
    fn slow32(x: f32) -> f32 {
        x
    }
}

// --------------------------------------------------------------------- pow

const BP: [f64; 2] = [1.0, 1.5];
const DP_H: [f64; 2] = [0.0, f64::from_bits(0x3fe2b80340000000)];
const DP_L: [f64; 2] = [0.0, f64::from_bits(0x3e4cfdeb43cfd006)];
const L1: f64 = f64::from_bits(0x3fe3333333333303);
const L2: f64 = f64::from_bits(0x3fdb6db6db6fabff);
const L3: f64 = f64::from_bits(0x3fd55555518f264d);
const L4: f64 = f64::from_bits(0x3fd17460a91d4101);
const L5: f64 = f64::from_bits(0x3fcd864a93c9db65);
const L6: f64 = f64::from_bits(0x3fca7e284a454eef);
const LG2_F: f64 = f64::from_bits(0x3fe62e42fefa39ef);
const LG2_H: f64 = f64::from_bits(0x3fe62e4300000000);
const LG2_L: f64 = f64::from_bits(0xbe205c610ca86c39);
const OVT: f64 = f64::from_bits(0x3c971547652b82fe);
const CP: f64 = f64::from_bits(0x3feec709dc3a03fd);
const CP_H: f64 = f64::from_bits(0x3feec709e0000000);
const CP_L: f64 = f64::from_bits(0xbe3e2fe0145b01f5);
const IVLN2: f64 = INV_LN2;
const IVLN2_H: f64 = f64::from_bits(0x3ff7154760000000);
const IVLN2_L: f64 = f64::from_bits(0x3e54ae0bf85ddf44);
const HUGE: f64 = 1.0e300;
const TINY: f64 = 1.0e-300;

fn hi_word(x: f64) -> i32 {
    (x.to_bits() >> 32) as i32
}

fn lo_word(x: f64) -> u32 {
    x.to_bits() as u32
}

fn with_hi_word(x: f64, hi: i32) -> f64 {
    f64::from_bits(((hi as u32 as u64) << 32) | (x.to_bits() & 0xffff_ffff))
}

/// `x` with its low 32 bits cleared: a head whose products are exact.
fn head(x: f64) -> f64 {
    f64::from_bits(x.to_bits() & 0xffff_ffff_0000_0000)
}

/// x^y for f64 (C99 special cases; fdlibm's core, < 1 ulp).
pub fn pow(x: f64, y: f64) -> f64 {
    if pow_in_range(x, y) {
        pow_core(x, y, 1.0)
    } else {
        pow_slow(x, y)
    }
}

/// A positive normal finite base and 0 < |y| < 2^31.
fn pow_in_range(x: f64, y: f64) -> bool {
    Log::in_range(x) && y != 0.0 && y.abs() < 2147483648.0
}

/// Whether finite `y` is an integer, and whether an odd one.
fn parity(y: f64) -> (bool, bool) {
    let a = y.abs();
    if a >= 9007199254740992.0 {
        return (true, false);
    }
    if a < 1.0 {
        return (a == 0.0, false);
    }
    let frac = 1075 - (a.to_bits() >> 52) as u32; // 0..=52 fraction bits
    let m = (a.to_bits() & MANT) | (1 << 52);
    let integral = m & ((1u64 << frac) - 1) == 0;
    (integral, integral && (m >> frac) & 1 == 1)
}

fn pow_slow(x: f64, y: f64) -> f64 {
    let signalling = |v: f64| v.is_nan() && v.to_bits() & (1 << 51) == 0;
    if signalling(x) || signalling(y) {
        return x + y;
    }
    if y == 0.0 || x == 1.0 {
        return 1.0;
    }
    if x.is_nan() || y.is_nan() {
        return x + y;
    }
    let ax = x.abs();
    if y.is_infinite() {
        return if ax == 1.0 {
            1.0
        } else if (ax > 1.0) == (y > 0.0) {
            f64::INFINITY
        } else {
            0.0
        };
    }
    let (integral, odd) = parity(y);
    let negative = x.to_bits() & SIGN != 0;
    if ax == 0.0 || ax == 1.0 || ax.is_infinite() {
        // ±0, -1 (1 returned above) or ±∞
        if ax == 1.0 && !integral {
            return INVALID;
        }
        let z = if y < 0.0 { 1.0 / ax } else { ax };
        return if negative && odd { -z } else { z };
    }
    if negative && !integral {
        return INVALID;
    }
    let s = if negative && odd { -1.0 } else { 1.0 };
    if y.abs() > 2147483648.0 {
        // |y| > 2^31: over/underflow unless x is within 2^-20 of 1.
        if y.abs() > 18446744073709551616.0 || hi_word(ax) < 0x3fefffff || hi_word(ax) > 0x3ff00000
        {
            return if (ax > 1.0) == (y > 0.0) { s * HUGE * HUGE } else { s * TINY * TINY };
        }
        let t = ax - 1.0;
        let w = (t * t) * (0.5 - t * (1.0 / 3.0 - t * 0.25));
        let u = IVLN2_H * t;
        let v = t * IVLN2_L - w * IVLN2;
        let t1 = head(u + v);
        return pow_exp2(y, t1, v - (t1 - u), s);
    }
    pow_core(ax, y, s)
}

/// s·ax^y for ax > 0 finite and |y| ≤ 2^31: log2(ax) as t1 + t2 to
/// ≈ 2^-64, times y, through 2^.
fn pow_core(ax: f64, y: f64, s: f64) -> f64 {
    let (mut ax, mut n, mut ix) = (ax, 0i32, hi_word(ax));
    if ix < 0x00100000 {
        ax *= 9007199254740992.0;
        n -= 53;
        ix = hi_word(ax);
    }
    n += (ix >> 20) - 0x3ff;
    let j = ix & 0x000fffff;
    ix = j | 0x3ff00000;
    let k = if j <= 0x3988e {
        0 // |x| < √(3/2)
    } else if j < 0xbb67a {
        1 // |x| < √3
    } else {
        n += 1;
        ix -= 0x00100000;
        0
    };
    let ax = with_hi_word(ax, ix);
    // ss = s_h + s_l = (ax - bp)/(ax + bp)
    let u = ax - BP[k];
    let v = 1.0 / (ax + BP[k]);
    let ss = u * v;
    let s_h = head(ss);
    let t_h = f64::from_bits(
        ((((ix >> 1) | 0x20000000) + 0x00080000 + ((k as i32) << 18)) as u32 as u64) << 32,
    );
    let t_l = ax - (t_h - BP[k]);
    let s_l = v * ((u - s_h * t_h) - s_h * t_l);
    // log(ax)
    let s2 = ss * ss;
    let r =
        s2 * s2 * (L1 + s2 * (L2 + s2 * (L3 + s2 * (L4 + s2 * (L5 + s2 * L6))))) + s_l * (s_h + ss);
    let s2 = s_h * s_h;
    let t_h = head(3.0 + s2 + r);
    let t_l = r - ((t_h - 3.0) - s2);
    let u = s_h * t_h;
    let v = s_l * t_h + t_l * ss;
    let p_h = head(u + v);
    let p_l = v - (p_h - u);
    // log2(ax) = n + dp_h + z_h + z_l
    let z_h = CP_H * p_h;
    let z_l = CP_L * p_h + p_l * CP + DP_L[k];
    let t = n as f64;
    let t1 = head(((z_h + z_l) + DP_H[k]) + t);
    let t2 = z_l - (((t1 - t) - DP_H[k]) - z_h);
    pow_exp2(y, t1, t2, s)
}

/// s·2^(y·(t1 + t2)), with y split so that the head product is exact.
fn pow_exp2(y: f64, t1: f64, t2: f64, s: f64) -> f64 {
    let y1 = head(y);
    let p_l = (y - y1) * t1 + y * t2;
    let mut p_h = y1 * t1;
    let z = p_l + p_h;
    let (j, i) = (hi_word(z), lo_word(z));
    if j >= 0x40900000 {
        // z ≥ 1024
        if (j - 0x40900000) as u32 | i != 0 || p_l + OVT > z - p_h {
            return s * HUGE * HUGE;
        }
    } else if (j & 0x7fffffff) >= 0x4090cc00 {
        // z ≤ -1075
        if (j as u32).wrapping_sub(0xc090cc00) | i != 0 || p_l <= z - p_h {
            return s * TINY * TINY;
        }
    }
    let i = j & 0x7fffffff;
    let mut k = (i >> 20) - 0x3ff;
    let mut n = 0;
    if i > 0x3fe00000 {
        // |z| > 1/2: n = [z + 1/2]
        n = j + (0x00100000 >> (k + 1));
        k = ((n & 0x7fffffff) >> 20) - 0x3ff;
        let t = f64::from_bits(((n & !(0x000fffff >> k)) as u32 as u64) << 32);
        n = ((n & 0x000fffff) | 0x00100000) >> (20 - k);
        if j < 0 {
            n = -n;
        }
        p_h -= t;
    }
    let t = head(p_l + p_h);
    let u = t * LG2_H;
    let v = (p_l - (t - p_h)) * LG2_F + t * LG2_L;
    let z = u + v;
    let w = v - (z - u);
    let t = z * z;
    let t1 = z - t * (P1 + t * (P2 + t * (P3 + t * (P4 + t * P5))));
    let r = (z * t1) / (t1 - 2.0) - (w + z * w);
    let z = 1.0 - (r - z);
    let z = if (hi_word(z) + (n << 20)) >> 20 <= 0 {
        z * pow2(n + 1000) * pow2(-1000) // subnormal result
    } else {
        with_hi_word(z, hi_word(z) + (n << 20))
    };
    s * z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    /// Trig arguments outside the fast ranges, as f64 bits: ±0,
    /// subnormals, ±∞, NaN payloads of either sign, |x| below 2^-27, and
    /// |x| at and above 2^27 (and 2^20, the f32 ceiling).
    const SPECIAL: [u64; 16] = [
        0x0000000000000000, // +0
        0x8000000000000000, // -0
        0x0000000000000001, // the least subnormal
        0x800fffffffffffff, // a negative subnormal
        0x7ff0000000000000, // +inf
        0xfff0000000000000, // -inf
        0x7ff8000000000000, // NaN
        0x7ff4000000000123, // signalling NaN with a payload
        0xfff8dead00000000, // negative NaN with a payload
        0x3ddb7cdfd9d7bdbb, // 1e-10
        0x41a0000000000000, // 2^27
        0xc1a0000000000001, // -(2^27 + ulp)
        0x4130000000000000, // 2^20
        0x7e37e43c8800759c, // 1e300
        0xc4b52d02c7e14af6, // -1e23
        0x47efffffe0000000, // f32::MAX
    ];

    /// One lane of `f32_lanes` width: raw SplitMix64 bits, an in-range
    /// value, or a special.
    fn lane(rng: &mut SplitMix64, f32_lanes: bool, in_range_only: bool) -> u64 {
        let x = match if in_range_only { 1 } else { rng.gen_index(3) } {
            0 => return rng.next_u64(),
            1 => {
                let sign = if rng.gen_bool() { -1.0 } else { 1.0 };
                sign * rng.gen_range_f64(1e-6, if f32_lanes { 1e5 } else { 1e8 })
            }
            _ => f64::from_bits(SPECIAL[rng.gen_index(SPECIAL.len())]),
        };
        if f32_lanes {
            (x as f32).to_bits() as u64
        } else {
            x.to_bits()
        }
    }

    /// The pair kernel gives exactly the bits of a `Sin` column and a
    /// `Cos` column, at both widths and partial warps, over columns whose
    /// lanes are all in range (the shared reduction) and columns that mix
    /// in raw bits and specials (the per-lane functions).
    #[test]
    fn sincos_column_is_column_sin_and_column_cos() {
        let mut rng = SplitMix64::new(0x51_c05);
        let mut fast_columns = 0;
        for f32_lanes in [true, false] {
            let arg = |b: u64| {
                if f32_lanes {
                    f32::from_bits(b as u32) as f64
                } else {
                    f64::from_bits(b)
                }
            };
            for lanes in [1, 5, 31, 32] {
                for round in 0..400 {
                    let in_range_only = round % 2 == 0;
                    let x: Vec<u64> =
                        (0..lanes).map(|_| lane(&mut rng, f32_lanes, in_range_only)).collect();
                    let (mut want_s, mut want_c) = (vec![0; lanes], vec![0; lanes]);
                    column(MathOp::Sin, f32_lanes, &mut want_s, Some(&x));
                    column(MathOp::Cos, f32_lanes, &mut want_c, Some(&x));
                    let (mut s, mut c) = (vec![!0; lanes], vec![!0; lanes]);
                    sincos_column(f32_lanes, &mut s, &mut c, &x);
                    let at = format!("f32 {f32_lanes}, {lanes} lanes, round {round}: {x:#x?}");
                    assert_eq!(s, want_s, "sin, {at}");
                    assert_eq!(c, want_c, "cos, {at}");
                    let max = if f32_lanes { TRIG32_MAX } else { TRIG_MAX };
                    fast_columns +=
                        usize::from(x.iter().all(|&b| (TRIG_MIN..max).contains(&arg(b).abs())));
                }
            }
        }
        // Both branches ran: the in-range-only columns took the shared
        // reduction, and some mixed ones the per-lane functions.
        assert!(fast_columns >= 2 * 4 * 200, "{fast_columns} columns in range");
        assert!(fast_columns < 2 * 4 * 400, "no column left the fast range");
    }
}
