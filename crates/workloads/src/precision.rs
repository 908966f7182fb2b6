//! Mixed-precision rate assumptions, anchored to measured kernels.
//!
//! The paper's Section VI-B arithmetic treats mixed precision as a rate
//! multiplier: the V100's tensor cores trade fp16 storage for ~8× the
//! fp32 FLOP rate, and the analytic models in `summit-perf` consume that
//! as a given. This reproduction can do better than quoting the
//! datasheet — its own GEMM kernels have a measured f32 and mixed (bf16
//! storage, f32 accumulation) throughput. The constants below are the
//! 512³ single-core numbers recorded at `e0d90ed` on 2026-08-07 (the
//! frozen `gemm` row in EXPERIMENTS.md; `benchmark/`'s
//! `tensor.matmul_gflops` is the live measurement); [`mixed_speedup`] is
//! the ratio the scaling models should use when they ask "what does mixed
//! precision buy on this implementation" rather than "what does NVIDIA
//! quote".
//!
//! Storage-side constants live on [`crate::GradPrecision`] (bytes per
//! element); these are the *rate* side.

/// Measured 512³ f32 `matmul` throughput (GFLOP/s) of the reproduction's
/// AVX2+FMA kernel on the single-core recording host (metric
/// `matmul_512_f32_gflops`).
pub const MEASURED_GEMM_F32_GFLOPS: f64 = 66.4;

/// Measured 512³ mixed-precision `matmul` throughput (GFLOP/s): bf16
/// storage of the packed operand, f32 accumulation (metric
/// `matmul_512_mixed_gflops`).
pub const MEASURED_GEMM_MIXED_GFLOPS: f64 = 66.0;

/// The measured mixed-over-f32 GEMM rate ratio. On a CPU the only
/// possible win is bandwidth (half the packed-operand bytes), not extra
/// FLOP issue — and on the recording host both paths saturate the FMA
/// roofline, so the ratio is ~1.0×, far below a tensor core's ~8×.
/// That parity **is** the datum: it quantifies exactly the contrast the
/// paper's device-level roofline discussion draws — mixed precision
/// pays off through dedicated mixed-precision issue hardware, not
/// through storage narrowing alone.
pub fn mixed_speedup() -> f64 {
    MEASURED_GEMM_MIXED_GFLOPS / MEASURED_GEMM_F32_GFLOPS
}

/// bf16 unit roundoff: 8 mantissa bits → 2⁻⁸. The GEMM property tests pin
/// the mixed path's per-element storage error to this bound; scaling
/// models can use it to reason about gradient quantization noise.
pub const BF16_UNIT_ROUNDOFF: f64 = 1.0 / 256.0;

#[cfg(test)]
mod tests {
    use super::*;

    // The asserts are on consts by design: the test exists to fail the
    // build if someone re-records the trajectory with implausible numbers.
    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn measured_rates_are_sane() {
        // bf16 storage can only trade bandwidth, and the FLOP path is
        // identical — so the ratio sits near 1× on a compute-bound CPU
        // kernel (conversion overhead may cost a few percent) and far
        // below tensor-core territory in either direction.
        let s = mixed_speedup();
        assert!(s > 0.85, "mixed implausibly slower than f32: {s}");
        assert!(s < 2.0, "CPU bf16 storage cannot buy {s}×");
        // The f32 rate is within the single-core AVX2 roofline
        // (2.1 GHz × 8 lanes × 2 FMA ports × 2 FLOPs = 67.2 GFLOP/s).
        assert!(MEASURED_GEMM_F32_GFLOPS > 24.0, "below the scalar baseline");
        assert!(MEASURED_GEMM_F32_GFLOPS < 67.2, "above the roofline");
    }
}
