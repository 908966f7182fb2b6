//! Device-level roofline analysis (paper Section VI-B, first paragraph).
//!
//! "Since most AI/ML workloads boil down to 3 basic types of operations,
//! i.e., convolution, recurrent operations and matrix multiplication, and
//! can take advantage of mixed precision arithmetic, these applications
//! are typically computational bound at the device level." The roofline
//! model makes that claim checkable: a kernel with arithmetic intensity
//! `I` FLOP/byte on a device with peak `P` FLOP/s and memory bandwidth `B`
//! bytes/s attains `min(P, I·B)`; it is compute-bound iff `I` exceeds the
//! machine balance `P/B`.

use serde::Serialize;
use summit_machine::spec::GpuSpec;

/// A kernel characterized by its arithmetic intensity.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// FLOPs per byte of device-memory traffic.
    pub arithmetic_intensity: f64,
}

impl Kernel {
    /// Dense matmul of square `n×n` tiles in fp16: `2n³` FLOPs over
    /// `3·2·n²` bytes → intensity `n/3`.
    pub fn matmul_fp16(n: u32) -> Kernel {
        Kernel {
            name: "matmul (fp16 tiles)",
            arithmetic_intensity: f64::from(n) / 3.0,
        }
    }

    /// A 3×3 convolution layer at fp16 with good data reuse: intensity
    /// grows with channel count; ≈ `9·C/4` for C input channels.
    pub fn conv3x3_fp16(channels: u32) -> Kernel {
        Kernel {
            name: "conv3x3 (fp16)",
            arithmetic_intensity: 9.0 * f64::from(channels) / 4.0,
        }
    }

    /// A recurrent cell step (GEMV-shaped): every weight byte is used once
    /// per step → intensity ≈ 1 FLOP/byte at fp16 (the memory-bound corner
    /// of the paper's three basic operations).
    pub fn recurrent_gemv_fp16() -> Kernel {
        Kernel {
            name: "recurrent GEMV (fp16)",
            arithmetic_intensity: 1.0,
        }
    }

    /// Element-wise ops (activations, optimizer updates): intensity ≈ 1/8.
    pub fn elementwise_fp32() -> Kernel {
        Kernel {
            name: "elementwise (fp32)",
            arithmetic_intensity: 0.125,
        }
    }

    /// Dense matmul of square `n×n` tiles in f32 — the reproduction's CPU
    /// GEMM: `2n³` FLOPs over `3·4·n²` bytes → intensity `n/6`.
    pub fn matmul_f32(n: u32) -> Kernel {
        Kernel {
            name: "matmul (f32)",
            arithmetic_intensity: f64::from(n) / 6.0,
        }
    }
}

/// Roofline verdict for one kernel on one device.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RooflinePoint {
    /// Kernel under analysis.
    pub kernel: Kernel,
    /// Attainable FLOP/s.
    pub attainable_flops: f64,
    /// Whether the kernel is compute-bound (intensity ≥ machine balance).
    pub compute_bound: bool,
    /// Fraction of device peak attainable.
    pub peak_fraction: f64,
}

/// The roofline of a device at its mixed-precision peak.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Roofline {
    /// Device peak FLOP/s (mixed precision).
    pub peak_flops: f64,
    /// Device memory bandwidth, bytes/s.
    pub mem_bw: f64,
}

impl Roofline {
    /// The roofline of a GPU spec (mixed-precision peak).
    pub fn of_gpu(gpu: &GpuSpec) -> Self {
        Roofline {
            peak_flops: gpu.mixed_flops,
            mem_bw: gpu.hbm_bw,
        }
    }

    /// The roofline of a CPU running SIMD FMA kernels: peak is
    /// `cores × GHz × lanes × fma_units × 2` FLOP/s (two FLOPs per fused
    /// multiply-add per lane per issue port). The gemm bench queries this
    /// to turn measured GFLOP/s into percent-of-roofline: `lanes = 8` for
    /// the AVX2 f32x8 path, `lanes = 1` for the scalar fallback, and
    /// `fma_units` is the core's FMA issue width (2 on every x86-64
    /// server part since Haswell).
    pub fn of_cpu(cores: u32, ghz: f64, lanes: u32, fma_units: u32, mem_bw: f64) -> Self {
        Roofline {
            peak_flops: f64::from(cores)
                * ghz
                * 1e9
                * f64::from(lanes)
                * f64::from(fma_units)
                * 2.0,
            mem_bw,
        }
    }

    /// The machine balance `P/B` in FLOP/byte — the compute/memory
    /// crossover intensity.
    pub fn machine_balance(&self) -> f64 {
        self.peak_flops / self.mem_bw
    }

    /// Evaluate a kernel.
    pub fn evaluate(&self, kernel: Kernel) -> RooflinePoint {
        let attainable = self
            .peak_flops
            .min(kernel.arithmetic_intensity * self.mem_bw);
        RooflinePoint {
            kernel,
            attainable_flops: attainable,
            compute_bound: kernel.arithmetic_intensity >= self.machine_balance(),
            peak_fraction: attainable / self.peak_flops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_machine::spec::GpuSpec;

    fn v100() -> Roofline {
        Roofline::of_gpu(&GpuSpec::v100())
    }

    /// V100 tensor-core balance: 125 TF / 900 GB/s ≈ 139 FLOP/byte.
    #[test]
    fn v100_balance() {
        let b = v100().machine_balance();
        assert!((b - 138.9).abs() < 1.0, "balance {b}");
    }

    /// The paper's claim: large matmuls and convolutions are compute-bound
    /// on the V100 at mixed precision.
    #[test]
    fn matmul_and_conv_are_compute_bound() {
        let r = v100();
        // "High floating point rates for model training requires large
        // matrix sizes": a 512-tile matmul is compute-bound, a 64-tile is
        // not.
        assert!(r.evaluate(Kernel::matmul_fp16(512)).compute_bound);
        assert!(!r.evaluate(Kernel::matmul_fp16(64)).compute_bound);
        // Conv layers with ≥ 64 channels clear the balance.
        assert!(r.evaluate(Kernel::conv3x3_fp16(64)).compute_bound);
    }

    /// Recurrent and element-wise kernels are memory-bound — why RNN-heavy
    /// models do not reach headline FLOP rates.
    #[test]
    fn recurrent_and_elementwise_are_memory_bound() {
        let r = v100();
        let rec = r.evaluate(Kernel::recurrent_gemv_fp16());
        assert!(!rec.compute_bound);
        assert!(
            rec.peak_fraction < 0.01,
            "GEMV near peak? {}",
            rec.peak_fraction
        );
        assert!(!r.evaluate(Kernel::elementwise_fp32()).compute_bound);
    }

    /// The CPU roofline the gemm bench queries: a 1-core 2.1 GHz AVX2 part
    /// with two FMA ports peaks at 2.1 × 8 × 2 × 2 = 67.2 GFLOP/s, and
    /// paper-scale f32 tiles are compute-bound on it.
    #[test]
    fn cpu_roofline_matches_hand_arithmetic() {
        let r = Roofline::of_cpu(1, 2.1, 8, 2, 2.5e10);
        assert!((r.peak_flops - 67.2e9).abs() < 1e6, "{}", r.peak_flops);
        // f32 512³ intensity 512/6 ≈ 85.3 FLOP/byte clears the balance
        // (67.2e9 / 2.5e10 ≈ 2.7), so the ceiling is compute.
        let p = r.evaluate(Kernel::matmul_f32(512));
        assert!(p.compute_bound);
        assert!((p.attainable_flops - r.peak_flops).abs() < 1.0);
        // The scalar fallback roofline is 8× lower.
        let s = Roofline::of_cpu(1, 2.1, 1, 2, 2.5e10);
        assert!((s.peak_flops * 8.0 - r.peak_flops).abs() < 1e3);
        let f = Kernel::matmul_f32(256).arithmetic_intensity;
        assert!((f * 6.0 - 256.0).abs() < 1e-9);
    }

    /// Attainable performance is monotone in intensity and capped at peak.
    #[test]
    fn roofline_shape() {
        let r = v100();
        let mut prev = 0.0;
        for n in [8u32, 32, 128, 512, 2048, 8192] {
            let p = r.evaluate(Kernel::matmul_fp16(n));
            assert!(p.attainable_flops >= prev);
            assert!(p.attainable_flops <= r.peak_flops * (1.0 + 1e-12));
            prev = p.attainable_flops;
        }
        // Far past the balance point, we sit at peak.
        assert!((prev - r.peak_flops).abs() < 1.0);
    }
}
