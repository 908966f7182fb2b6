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
