//! Gradient compression for communication-bound training.
//!
//! Section VI-B concludes that models beyond BERT-large are
//! communication-bound under data parallelism and remarks that "increasing
//! use of sparsity may make this situation more complicated". This module
//! implements the two standard volume-reduction techniques and quantifies
//! their effect:
//!
//! * [`Fp16`](GradCompression::Fp16) — half-precision gradient messages
//!   (what Kurth et al. and Laanait et al. shipped), emulated exactly with
//!   a software IEEE 754 binary16 round-trip;
//! * [`TopK`](GradCompression::TopK) — magnitude sparsification with
//!   **error feedback** (the residual of dropped coordinates is carried to
//!   the next step), the scheme behind deep-gradient-compression results.
//!
//! Convergence under compression is tested on a real training problem, and
//! the message-volume arithmetic feeds the communication crossover: fp16
//! doubles the communication-bound model size, top-k at 1% multiplies it
//! by ≈50 (index overhead included).

use serde::Serialize;

/// Convert an `f32` to IEEE 754 binary16 bits (round-to-nearest-even),
/// handling subnormals, infinities and NaN.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x7F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        return sign | 0x7C00 | if frac != 0 { 0x0200 } else { 0 };
    }
    // Re-bias: f32 bias 127, f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow → ±inf
    }
    if unbiased >= -14 {
        // Normal half. Round the 23-bit fraction to 10 bits.
        let mut f = frac >> 13;
        let rem = frac & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (f & 1) == 1) {
            f += 1;
        }
        let mut e = (unbiased + 15) as u32;
        if f == 0x400 {
            // Fraction rounding overflowed into the exponent.
            f = 0;
            e += 1;
            if e >= 31 {
                return sign | 0x7C00;
            }
        }
        return sign | ((e as u16) << 10) | (f as u16);
    }
    if unbiased >= -25 {
        // Subnormal half: target fraction = round(mantissa24 · 2^(unbiased+1)),
        // i.e. shift the 24-bit mantissa right by −unbiased−1 ∈ [14, 24]
        // with round-to-nearest-even (unbiased −25 covers values that may
        // round up to the smallest subnormal).
        let shift = (-unbiased - 1) as u32;
        let mantissa = frac | 0x80_0000; // implicit leading 1
        let mut f = if shift >= 24 { 0 } else { mantissa >> shift };
        let rem = mantissa & ((1u32 << shift) - 1);
        let half = 1u32 << (shift - 1);
        if rem > half || (rem == half && (f & 1) == 1) {
            f += 1;
        }
        // f = 0x400 naturally becomes the smallest normal half.
        return sign | (f as u16);
    }
    sign // underflow → ±0
}

/// Convert IEEE 754 binary16 bits back to `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1F;
    let frac = u32::from(h & 0x03FF);
    let bits = match exp {
        0 => {
            if frac == 0 {
                sign
            } else {
                // Subnormal: value = frac · 2^-24 = 1.m · 2^(k−24) where k
                // is the fraction's MSB position.
                let k = 31 - frac.leading_zeros();
                let exp32 = k + 103; // (k − 24) + 127
                let mant = ((frac << (10 - k)) & 0x3FF) << 13;
                sign | (exp32 << 23) | mant
            }
        }
        0x1F => sign | 0x7F80_0000 | (frac << 13),
        _ => sign | ((u32::from(exp) + 127 - 15) << 23) | (frac << 13),
    };
    f32::from_bits(bits)
}

/// Round-trip an `f32` through binary16 (the fp16-gradient emulation).
pub fn quantize_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// A gradient compression scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum GradCompression {
    /// Send full fp32 gradients.
    None,
    /// Quantize gradients to binary16 before the allreduce.
    Fp16,
    /// Keep only the top `fraction` of coordinates by magnitude; dropped
    /// mass is carried in an error-feedback residual.
    TopK {
        /// Fraction of coordinates kept, in (0, 1].
        fraction: f64,
    },
}

impl GradCompression {
    /// Message bytes for a gradient of `n` elements. Top-k messages carry a
    /// 4-byte index plus a 4-byte value per kept coordinate.
    pub fn message_bytes(self, n: usize) -> f64 {
        match self {
            GradCompression::None => 4.0 * n as f64,
            GradCompression::Fp16 => 2.0 * n as f64,
            GradCompression::TopK { fraction } => 8.0 * (n as f64 * fraction).ceil(),
        }
    }

    /// Volume reduction factor vs fp32.
    pub fn reduction_factor(self, n: usize) -> f64 {
        GradCompression::None.message_bytes(n) / self.message_bytes(n)
    }
}

/// Stateful gradient compressor (holds the error-feedback residual).
#[derive(Debug, Clone)]
pub struct Compressor {
    scheme: GradCompression,
    residual: Vec<f32>,
}

impl Compressor {
    /// A compressor for gradients of length `n`.
    ///
    /// # Panics
    /// Panics if a top-k fraction is outside (0, 1].
    pub fn new(scheme: GradCompression, n: usize) -> Self {
        if let GradCompression::TopK { fraction } = scheme {
            assert!(
                fraction > 0.0 && fraction <= 1.0,
                "top-k fraction must be in (0, 1]"
            );
        }
        Compressor {
            scheme,
            residual: vec![0.0; n],
        }
    }

    /// The scheme in use.
    pub fn scheme(&self) -> GradCompression {
        self.scheme
    }

    /// Compress `grads` in place: the returned buffer is what the wire
    /// would carry, reconstructed (zeros in dropped positions, quantized
    /// values otherwise). Error feedback updates the internal residual.
    ///
    /// # Panics
    /// Panics if the length differs from the construction length.
    pub fn compress(&mut self, grads: &mut [f32]) {
        assert_eq!(grads.len(), self.residual.len(), "gradient length changed");
        match self.scheme {
            GradCompression::None => {}
            GradCompression::Fp16 => {
                for g in grads.iter_mut() {
                    *g = quantize_f16(*g);
                }
            }
            GradCompression::TopK { fraction } => {
                // Accumulate the residual, then keep the top-k by magnitude.
                for (g, r) in grads.iter_mut().zip(&mut self.residual) {
                    *g += *r;
                    *r = 0.0;
                }
                let k = ((grads.len() as f64 * fraction).ceil() as usize).clamp(1, grads.len());
                let mut magnitudes: Vec<(usize, f32)> = grads
                    .iter()
                    .enumerate()
                    .map(|(i, g)| (i, g.abs()))
                    .collect();
                magnitudes.select_nth_unstable_by(k - 1, |a, b| b.1.total_cmp(&a.1));
                let keep: std::collections::HashSet<usize> =
                    magnitudes[..k].iter().map(|&(i, _)| i).collect();
                for (i, (g, r)) in grads.iter_mut().zip(&mut self.residual).enumerate() {
                    if !keep.contains(&i) {
                        *r = *g; // dropped mass feeds back next step
                        *g = 0.0;
                    }
                }
            }
        }
    }

    /// L2 norm of the currently-held residual (diagnostics).
    pub fn residual_norm(&self) -> f32 {
        self.residual.iter().map(|r| r * r).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::blobs;
    use crate::model::MlpSpec;
    use crate::optim::{Optimizer, Sgd};
    use crate::schedule::LrSchedule;
    use summit_tensor::ops;

    #[test]
    fn f16_roundtrip_specials() {
        for (x, expect) in [
            (0.0f32, 0.0f32),
            (-0.0, -0.0),
            (1.0, 1.0),
            (-2.5, -2.5),
            (65504.0, 65504.0), // max half
            (f32::INFINITY, f32::INFINITY),
            (f32::NEG_INFINITY, f32::NEG_INFINITY),
        ] {
            let got = quantize_f16(x);
            assert_eq!(got, expect, "{x}");
        }
        assert!(quantize_f16(f32::NAN).is_nan());
        // Overflow saturates to infinity.
        assert_eq!(quantize_f16(1e6), f32::INFINITY);
        // Tiny values become subnormal halves or zero, never garbage.
        let tiny = quantize_f16(1e-7);
        assert!((0.0..1e-6).contains(&tiny));
    }

    #[test]
    fn f16_relative_error_bounded() {
        // Half precision has a 10-bit mantissa: relative error ≤ 2^-11.
        let mut x = 1.0001f32;
        for _ in 0..2000 {
            x *= 1.009;
            if x > 60000.0 {
                break;
            }
            let q = quantize_f16(x);
            assert!(((q - x) / x).abs() <= 1.0 / 2048.0 + 1e-7, "{x} → {q}");
        }
    }

    #[test]
    fn message_sizes() {
        let n = 1000;
        assert_eq!(GradCompression::None.message_bytes(n), 4000.0);
        assert_eq!(GradCompression::Fp16.message_bytes(n), 2000.0);
        let topk = GradCompression::TopK { fraction: 0.01 };
        assert_eq!(topk.message_bytes(n), 80.0);
        assert!((topk.reduction_factor(n) - 50.0).abs() < 1e-9);
        assert!((GradCompression::Fp16.reduction_factor(n) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn topk_keeps_largest_and_feeds_back_rest() {
        let mut c = Compressor::new(GradCompression::TopK { fraction: 0.25 }, 8);
        let mut g = vec![0.1, -5.0, 0.2, 3.0, -0.3, 0.05, 0.0, 0.15];
        c.compress(&mut g);
        // Top 2 by magnitude: -5.0 and 3.0 survive.
        assert_eq!(g[1], -5.0);
        assert_eq!(g[3], 3.0);
        assert!(g
            .iter()
            .enumerate()
            .all(|(i, &v)| v == 0.0 || i == 1 || i == 3));
        // Residual holds the dropped mass.
        assert!(c.residual_norm() > 0.3);
        // Next step: a dropped coordinate keeps accumulating until it wins.
        let mut g2 = vec![0.0f32; 8];
        g2[4] = -0.3; // adds to residual −0.3 → −0.6
        c.compress(&mut g2);
        // −0.6 at index 4 is now among the top-2 (others ≈ 0.1–0.2).
        assert!(g2[4] < -0.5, "error feedback failed: {g2:?}");
    }

    #[test]
    fn fp16_compressor_quantizes_everything() {
        let mut c = Compressor::new(GradCompression::Fp16, 4);
        let mut g = vec![1.0 / 3.0, 1e-30, 1234.567, -0.1];
        let orig = g.clone();
        c.compress(&mut g);
        for (q, o) in g.iter().zip(&orig) {
            assert_eq!(*q, quantize_f16(*o));
        }
    }

    /// Training with compressed gradients still converges — fp16 nearly
    /// exactly, top-k 10% with error feedback within a modest gap.
    #[test]
    fn compressed_training_converges() {
        let task = blobs(256, 6, 3, 0.4, 73);
        let run = |scheme: GradCompression| -> f32 {
            let mut model = MlpSpec::new(6, &[16], 3).build(5);
            let mut opt = Sgd::new(0.1, 0.9, 0.0);
            let mut comp = Compressor::new(scheme, model.param_count());
            let sched = LrSchedule::Constant;
            let mut loss = f32::NAN;
            for step in 0..120 {
                let logits = model.forward(&task.x);
                let (l, d) = ops::softmax_cross_entropy(logits, &task.y);
                loss = l;
                model.zero_grads();
                model.backward(&d);
                let mut flat = model.arena().flat_grads();
                comp.compress(&mut flat);
                model.set_flat_grads(&flat);
                let lr = sched.multiplier(step);
                model.for_each_group(|id, p, g| opt.step_group(id, lr, p, g));
            }
            loss
        };
        let baseline = run(GradCompression::None);
        let fp16 = run(GradCompression::Fp16);
        let topk = run(GradCompression::TopK { fraction: 0.1 });
        assert!(baseline < 0.1, "baseline failed: {baseline}");
        assert!(fp16 < baseline * 1.5 + 0.05, "fp16 {fp16} vs {baseline}");
        assert!(topk < 0.4, "top-k diverged: {topk}");
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn zero_fraction_rejected() {
        let _ = Compressor::new(GradCompression::TopK { fraction: 0.0 }, 4);
    }
}
