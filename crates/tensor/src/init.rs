//! Weight initializers and the one normal sampler.
//!
//! Seeded values are a function of the seed alone. The normal sampler
//! ([`fill_normal`]) is a two-pass Box–Muller built only from `+ − × ÷` and
//! `sqrt`, which IEEE 754 rounds exactly on every host, plus bit
//! manipulation: its `ln` and its quarter-turn `sin`/`cos`
//! ([`cos_sin_turns`]) are in-crate polynomials, not libm's `logf`/`cosf`,
//! whose last bits differ between libm builds. [`tanh`] is built the same
//! way, for the seeded datasets of `summit-dl`.

use std::f32::consts::FRAC_PI_2;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Standard neural-network weight initializers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initializer {
    /// Uniform on `±sqrt(6 / (fan_in + fan_out))` (Glorot/Xavier).
    XavierUniform,
    /// Normal with stddev `sqrt(2 / fan_in)` (He/Kaiming), for ReLU nets.
    HeNormal,
}

impl Initializer {
    /// Fill `out`, a row-major `fan_in × fan_out` weight matrix, in place.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `out` is not
    /// `fan_in · fan_out` long.
    pub fn fill(self, fan_in: usize, fan_out: usize, seed: u64, out: &mut [f32]) {
        assert!(fan_in > 0 && fan_out > 0, "dimensions must be positive");
        assert_eq!(out.len(), fan_in * fan_out, "weight window mismatch");
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Initializer::XavierUniform => {
                let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
                out.iter_mut()
                    .for_each(|v| *v = rng.gen_range(-bound..bound));
            }
            Initializer::HeNormal => fill_normal(&mut rng, (2.0 / fan_in as f32).sqrt(), out),
        }
    }
}

/// Fill `out` with normal samples of mean 0 and stddev `std` from `rng`.
///
/// Pass 1 draws one uniform per element into `out`, in order (and one more
/// if `out.len()` is odd). Pass 2 turns each adjacent pair in place into
/// the two Box–Muller normals `r·cos θ` and `r·sin θ`, with branch-free
/// code the compiler vectorises. Element `i` depends only on the first
/// `i + 2` draws, so a shorter fill from the same stream is a prefix of a
/// longer one.
pub fn fill_normal(rng: &mut StdRng, std: f32, out: &mut [f32]) {
    for v in out.iter_mut() {
        *v = rng.gen();
    }
    let (pairs, odd) = out.as_chunks_mut::<2>();
    for [a, b] in pairs {
        (*a, *b) = box_muller(*a, *b, std);
    }
    if let [last] = odd {
        *last = box_muller(*last, rng.gen(), std).0;
    }
}

/// The two normals of the uniforms `u` (radius) and `v` (angle, in turns),
/// both on the `k · 2⁻²⁴` grid of `[0, 1)` that `rng.gen::<f32>()` draws.
#[inline(always)]
fn box_muller(u: f32, v: f32, std: f32) -> (f32, f32) {
    // `1 − u` is exact and in (0, 1], so the log is finite and `≤ 0`.
    let r = std * (-2.0 * ln(1.0 - u)).sqrt();
    let (c, s) = cos_sin_turns(v);
    (r * c, r * s)
}

/// `ln x` for normal `x > 0`: `x = m · 2ᵉ` with `m` in `[√½, √2)`, then
/// `ln m = 2 atanh s` with `s = (m − 1)/(m + 1)`, `|s| < 0.172`, as an odd
/// series whose first omitted term is below `2⁻²⁵`.
#[inline(always)]
fn ln(x: f32) -> f32 {
    const SQRT_HALF_BITS: u32 = 0x3f35_04f3;
    // ln 2 split so that `e · LN2_HI` is exact for |e| < 2¹⁵.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = (std::f64::consts::LN_2 - 355.0 / 512.0) as f32;
    let ix = x.to_bits() + (0x3f80_0000 - SQRT_HALF_BITS);
    let e = ((ix >> 23) as i32 - 127) as f32;
    let m = f32::from_bits((ix & 0x007f_ffff) + SQRT_HALF_BITS);
    let s = (m - 1.0) / (m + 1.0);
    let z = s * s;
    let series = 1.0 + z * (1.0 / 3.0 + z * (1.0 / 5.0 + z * (1.0 / 7.0 + z * (1.0 / 9.0))));
    e * LN2_HI + (e * LN2_LO + 2.0 * s * series)
}

/// `(cos 2πv, sin 2πv)` for `v` in `[0, 1)`, taken down to the `k · 2⁻²⁴`
/// grid (where `rng.gen::<f32>()` draws): the nearest quarter turn `q` and
/// the rest `x` in `[−π/4, π/4]` come from the integer `k` exactly, Taylor
/// series through `x⁹` and `x¹⁰` (the first omitted terms are below
/// `2⁻²⁸`) give `(cos x, sin x)`, and `q` swaps and negates them. Within
/// `2⁻²¹` of the exact values at the grid point.
#[inline(always)]
pub fn cos_sin_turns(v: f32) -> (f32, f32) {
    let k = (v * 16_777_216.0) as i32;
    let q = (k + (1 << 21)) >> 22;
    let x = (k - (q << 22)) as f32 * (FRAC_PI_2 / 4_194_304.0);
    let z = x * x;
    let s =
        x + x * z * (-1.0 / 6.0 + z * (1.0 / 120.0 + z * (-1.0 / 5040.0 + z * (1.0 / 362_880.0))));
    let c = 1.0
        + z * (-0.5
            + z * (1.0 / 24.0
                + z * (-1.0 / 720.0 + z * (1.0 / 40_320.0 + z * (-1.0 / 3_628_800.0)))));
    let (c, s) = if q & 1 == 0 { (c, s) } else { (s, c) };
    // cos is negative for q in {1, 2}, sin for q in {2, 3} (q = 4 is q = 0).
    let cos_sign = (((q + 1) & 2) as u32) << 30;
    let sin_sign = ((q & 2) as u32) << 30;
    (
        f32::from_bits(c.to_bits() ^ cos_sign),
        f32::from_bits(s.to_bits() ^ sin_sign),
    )
}

/// `eˣ` for `x` in `[−87, 88]`: `x = n·ln 2 + r` with `n` the integer
/// nearest `x / ln 2` and `|r| ≤ ln 2 / 2` (ln 2 split as in [`ln`], so
/// `n · LN2_HI` and the first subtraction are exact), `eʳ` a Taylor
/// polynomial through `r⁷` (the first omitted term is below `2⁻²⁷`), and
/// `2ⁿ` built from its bits. Within `2⁻²⁰` relative.
#[inline(always)]
fn exp(x: f32) -> f32 {
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = (std::f64::consts::LN_2 - 355.0 / 512.0) as f32;
    let n = (x * std::f32::consts::LOG2_E).round();
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let p = 1.0
        + r * (1.0
            + r * (1.0 / 2.0
                + r * (1.0 / 6.0
                    + r * (1.0 / 24.0 + r * (1.0 / 120.0 + r * (1.0 / 720.0 + r / 5040.0))))));
    p * f32::from_bits(((n as i32 + 127) as u32) << 23)
}

/// `tanh x` for finite `x`, as `1 − 2 / (e^{2|x|} + 1)` with the sign of
/// `x` and `|x|` capped at 20 (where `tanh` is 1 in `f32`). From the
/// `2⁻²⁰` bound on [`exp`] and three more roundings, within `2⁻¹⁹`
/// absolute.
pub fn tanh(x: f32) -> f32 {
    let e = exp(2.0 * x.abs().min(20.0));
    (1.0 - 2.0 / (e + 1.0)).copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init(kind: Initializer, fan_in: usize, fan_out: usize, seed: u64) -> Vec<f32> {
        let mut w = vec![0.0; fan_in * fan_out];
        kind.fill(fan_in, fan_out, seed, &mut w);
        w
    }

    #[test]
    fn xavier_within_bound() {
        let w = init(Initializer::XavierUniform, 64, 32, 0);
        let bound = (6.0 / 96.0f32).sqrt();
        assert!(w.iter().all(|v| v.abs() <= bound));
        assert!(w.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn he_normal_has_plausible_std() {
        let w = init(Initializer::HeNormal, 256, 256, 1);
        let n = w.len() as f32;
        let mean: f32 = w.iter().sum::<f32>() / n;
        let var: f32 = w.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n;
        let want = 2.0 / 256.0;
        assert!((var - want).abs() / want < 0.15, "var {var} want {want}");
    }

    #[test]
    fn deterministic_given_seed() {
        for kind in [Initializer::XavierUniform, Initializer::HeNormal] {
            let a = init(kind, 8, 8, 42);
            assert_eq!(a, init(kind, 8, 8, 42));
            assert_ne!(a, init(kind, 8, 8, 43));
        }
    }

    /// Every point of the 2²⁴-point uniform grid (a stride of it in debug
    /// builds) against an f64 reference, the grid also mapped onto
    /// `[−24, 24)` for `exp` and `tanh`. The bounds are set from the
    /// construction, not from a measurement: each result is a handful of
    /// correctly rounded operations, so `ln` stays within 2⁻²¹ relative
    /// (4 half-ulps), `sin`/`cos` within 2⁻²¹ absolute, `exp` within 2⁻²⁰
    /// relative and `tanh` within 2⁻¹⁹ absolute.
    #[test]
    fn polynomials_match_an_f64_reference_on_the_uniform_grid() {
        let stride = if cfg!(debug_assertions) { 61 } else { 1 };
        let mut worst = [0.0f64; 4];
        for k in (0..1u32 << 24).step_by(stride) {
            let (v, x) = (k as f32 / 16_777_216.0, 1.0 - k as f32 / 16_777_216.0);
            let (got, want) = (f64::from(ln(x)), f64::from(x).ln());
            assert!(got <= 0.0 && (want != 0.0 || got == 0.0), "ln({x}) = {got}");
            worst[0] = worst[0].max(((got - want) / want.min(-f64::MIN_POSITIVE)).abs());
            let ((c, s), theta) = (cos_sin_turns(v), std::f64::consts::TAU * f64::from(v));
            let trig = (f64::from(c) - theta.cos())
                .abs()
                .max((f64::from(s) - theta.sin()).abs());
            worst[1] = worst[1].max(trig);
            let y = 48.0 * v - 24.0;
            let want = f64::from(y).exp();
            worst[2] = worst[2].max(((f64::from(exp(y)) - want) / want).abs());
            worst[3] = worst[3].max((f64::from(tanh(y)) - f64::from(y).tanh()).abs());
        }
        eprintln!("ln, sin/cos, exp, tanh error ≤ {worst:?}");
        let bounds = [21, 21, 20, 19].map(|e| 1.0 / f64::from(1u32 << e));
        assert!(worst.iter().zip(bounds).all(|(w, b)| *w <= b));
        assert_eq!(
            (tanh(0.0), tanh(-0.0).to_bits()),
            (0.0, (-0.0f32).to_bits())
        );
    }
}
