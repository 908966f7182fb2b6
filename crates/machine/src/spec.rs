//! Machine, node, GPU and storage specifications.
//!
//! All constructors encode published numbers from the paper's Section II-A
//! ("Systems") or the cited CORAL system description. Derived quantities
//! (peak flops, aggregate bandwidths) are computed, never stored, so the
//! specs stay internally consistent.

use serde::Serialize;

use crate::{GB, GIB, TB};

/// Specification of a single GPU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. "NVIDIA Tesla V100".
    pub name: &'static str,
    /// Peak double-precision rate in FLOP/s.
    pub fp64_flops: f64,
    /// Peak single-precision rate in FLOP/s.
    pub fp32_flops: f64,
    /// Peak mixed-precision (Tensor Core or equivalent) rate in FLOP/s.
    pub mixed_flops: f64,
    /// High-bandwidth device memory capacity in bytes.
    pub hbm_bytes: f64,
    /// Device memory bandwidth in bytes/s.
    pub hbm_bw: f64,
}

impl GpuSpec {
    /// NVIDIA Tesla V100 (16 GB SXM2) as deployed in Summit's original nodes.
    ///
    /// 7.8 TF fp64, 15.7 TF fp32, 125 TF mixed-precision Tensor Core peak.
    pub fn v100() -> Self {
        GpuSpec {
            name: "NVIDIA Tesla V100 16GB",
            fp64_flops: 7.8e12,
            fp32_flops: 15.7e12,
            mixed_flops: 125.0e12,
            hbm_bytes: 16.0 * GIB,
            hbm_bw: 900.0 * GB,
        }
    }

    /// V100 32 GB variant used in the 54 high-memory nodes added in 2020
    /// (paper: 192 GB HBM2 per node over six GPUs).
    pub fn v100_32gb() -> Self {
        GpuSpec {
            hbm_bytes: 32.0 * GIB,
            name: "NVIDIA Tesla V100 32GB",
            ..GpuSpec::v100()
        }
    }

    /// NVIDIA K80 as in the Rhea GPU partition.
    pub fn k80() -> Self {
        GpuSpec {
            name: "NVIDIA K80",
            fp64_flops: 2.9e12,
            fp32_flops: 8.7e12,
            // No tensor cores; mixed == fp32.
            mixed_flops: 8.7e12,
            hbm_bytes: 24.0 * GIB,
            hbm_bw: 480.0 * GB,
        }
    }
}

/// Node-local and shared storage characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StorageSpec {
    /// Node-local non-volatile (burst buffer) capacity in bytes; 0 if absent.
    pub nvme_bytes: f64,
    /// Node-local NVMe read bandwidth in bytes/s; 0 if absent.
    pub nvme_read_bw: f64,
    /// Node-local NVMe write bandwidth in bytes/s; 0 if absent.
    pub nvme_write_bw: f64,
    /// Shared (parallel) filesystem aggregate read bandwidth in bytes/s.
    pub shared_fs_read_bw: f64,
    /// Shared filesystem aggregate write bandwidth in bytes/s.
    pub shared_fs_write_bw: f64,
}

impl StorageSpec {
    /// Summit's Alpine GPFS (2.5 TB/s, paper Section VI-B) plus the 1.6 TB
    /// node-local NVMe burst buffer. Per-node NVMe read bandwidth is set so
    /// that the full 4,608-node aggregate slightly exceeds the paper's
    /// "over 27 TB/s" figure: 27 TB/s / 4608 ≈ 5.9 GB/s per node.
    pub fn summit() -> Self {
        StorageSpec {
            nvme_bytes: 1.6 * TB,
            nvme_read_bw: 5.9 * GB,
            nvme_write_bw: 2.1 * GB,
            shared_fs_read_bw: 2.5 * TB,
            shared_fs_write_bw: 2.5 * TB,
        }
    }

    /// High-memory node variant: 6.4 TB NVMe (paper Section II-A).
    pub fn summit_high_mem() -> Self {
        StorageSpec {
            nvme_bytes: 6.4 * TB,
            ..StorageSpec::summit()
        }
    }

    /// Commodity cluster with shared filesystem only.
    pub fn cluster(shared_bw: f64) -> Self {
        StorageSpec {
            nvme_bytes: 0.0,
            nvme_read_bw: 0.0,
            nvme_write_bw: 0.0,
            shared_fs_read_bw: shared_bw,
            shared_fs_write_bw: shared_bw,
        }
    }
}

/// Specification of a single compute node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodeSpec {
    /// CPU sockets per node.
    pub cpu_sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Cores reserved for the system per socket (Summit reserves 1 of 22).
    pub reserved_cores_per_socket: u32,
    /// Host DRAM in bytes.
    pub dram_bytes: f64,
    /// GPUs per node (0 for CPU-only nodes).
    pub gpus_per_node: u32,
    /// GPU specification; meaningful only if `gpus_per_node > 0`.
    pub gpu: GpuSpec,
    /// Intra-node GPU link (NVLink) bandwidth per direction in bytes/s.
    pub nvlink_bw: f64,
    /// Network injection bandwidth per node in bytes/s (dual-rail EDR:
    /// 25 GB/s, paper Section VI-B).
    pub injection_bw: f64,
    /// Network injection latency in seconds.
    pub injection_latency: f64,
}

impl NodeSpec {
    /// An IBM AC922 Summit node: 2×22-core POWER9 (1 core per socket
    /// reserved), 512 GB DDR4, 6 V100s on NVLink, dual-rail EDR.
    pub fn summit() -> Self {
        NodeSpec {
            cpu_sockets: 2,
            cores_per_socket: 22,
            reserved_cores_per_socket: 1,
            dram_bytes: 512.0 * GIB,
            gpus_per_node: 6,
            gpu: GpuSpec::v100(),
            nvlink_bw: crate::link::SUMMIT_NVLINK_BW_BPS,
            injection_bw: crate::link::SUMMIT_INJECTION_BW_BPS,
            injection_latency: crate::link::SUMMIT_INJECTION_LATENCY_S,
        }
    }

    /// A Summit high-memory node: 2 TB DDR4, 32 GB V100s.
    pub fn summit_high_mem() -> Self {
        NodeSpec {
            dram_bytes: 2.0 * TB,
            gpu: GpuSpec::v100_32gb(),
            ..NodeSpec::summit()
        }
    }

    /// A Rhea CPU-partition node: 2×8-core Xeon, 128 GB.
    pub fn rhea_cpu() -> Self {
        NodeSpec {
            cpu_sockets: 2,
            cores_per_socket: 8,
            reserved_cores_per_socket: 0,
            dram_bytes: 128.0 * GIB,
            gpus_per_node: 0,
            gpu: GpuSpec::k80(),
            nvlink_bw: 0.0,
            injection_bw: 7.0 * GB,
            injection_latency: 2.0e-6,
        }
    }

    /// A Rhea GPU-partition node: 2×14-core Xeon, 1 TB, 2 K80s. These nodes
    /// were later folded into Andes (paper Section II-A).
    pub fn rhea_gpu() -> Self {
        NodeSpec {
            cpu_sockets: 2,
            cores_per_socket: 14,
            reserved_cores_per_socket: 0,
            dram_bytes: 1.0 * TB,
            gpus_per_node: 2,
            gpu: GpuSpec::k80(),
            nvlink_bw: 0.0,
            injection_bw: 7.0 * GB,
            injection_latency: 2.0e-6,
        }
    }

    /// An Andes node: 2×16-core AMD EPYC, 256 GB.
    pub fn andes() -> Self {
        NodeSpec {
            cpu_sockets: 2,
            cores_per_socket: 16,
            reserved_cores_per_socket: 0,
            dram_bytes: 256.0 * GIB,
            gpus_per_node: 0,
            gpu: GpuSpec::k80(),
            nvlink_bw: 0.0,
            injection_bw: 12.5 * GB,
            injection_latency: 2.0e-6,
        }
    }

    /// Cores available to user processes per node.
    pub fn user_cores(&self) -> u32 {
        self.cpu_sockets * (self.cores_per_socket - self.reserved_cores_per_socket)
    }

    /// Peak mixed-precision rate of one node in FLOP/s.
    pub fn peak_mixed_precision_flops(&self) -> f64 {
        f64::from(self.gpus_per_node) * self.gpu.mixed_flops
    }

    /// Aggregate GPU HBM per node in bytes.
    pub fn hbm_bytes(&self) -> f64 {
        f64::from(self.gpus_per_node) * self.gpu.hbm_bytes
    }
}

/// A whole machine: a homogeneous set of nodes plus storage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MachineSpec {
    /// Human-readable machine name.
    pub name: &'static str,
    /// Number of compute nodes.
    pub nodes: u32,
    /// Per-node specification.
    pub node: NodeSpec,
    /// Storage specification.
    pub storage: StorageSpec,
}

impl MachineSpec {
    /// Summit as originally deployed: 4,608 AC922 nodes.
    pub fn summit() -> Self {
        MachineSpec {
            name: "Summit",
            nodes: 4608,
            node: NodeSpec::summit(),
            storage: StorageSpec::summit(),
        }
    }

    /// The 54-node high-memory partition added in Summer 2020.
    pub fn summit_high_mem() -> Self {
        MachineSpec {
            name: "Summit high-memory partition",
            nodes: 54,
            node: NodeSpec::summit_high_mem(),
            storage: StorageSpec::summit_high_mem(),
        }
    }

    /// Rhea CPU partition (512 nodes).
    pub fn rhea() -> Self {
        MachineSpec {
            name: "Rhea",
            nodes: 512,
            node: NodeSpec::rhea_cpu(),
            storage: StorageSpec::cluster(200.0 * GB),
        }
    }

    /// Andes (704 nodes, late 2020).
    pub fn andes() -> Self {
        MachineSpec {
            name: "Andes",
            nodes: 704,
            node: NodeSpec::andes(),
            storage: StorageSpec::cluster(200.0 * GB),
        }
    }

    /// A custom machine for sweeps: Summit-like nodes at an arbitrary size.
    pub fn summit_like(nodes: u32) -> Self {
        MachineSpec {
            name: "Summit-like",
            nodes,
            node: NodeSpec::summit(),
            storage: StorageSpec::summit(),
        }
    }

    /// Total GPUs across the machine.
    pub fn total_gpus(&self) -> u64 {
        u64::from(self.nodes) * u64::from(self.node.gpus_per_node)
    }

    /// Peak machine-wide mixed-precision rate in FLOP/s.
    pub fn peak_mixed_precision_flops(&self) -> f64 {
        f64::from(self.nodes) * self.node.peak_mixed_precision_flops()
    }

    /// Aggregate node-local NVMe read bandwidth in bytes/s.
    pub fn aggregate_nvme_read_bw(&self) -> f64 {
        f64::from(self.nodes) * self.storage.nvme_read_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TB;

    #[test]
    fn summit_node_matches_paper() {
        let n = NodeSpec::summit();
        // "One POWER9 core of each processor is reserved for the system,
        // leaving 42 cores per node to run user processes."
        assert_eq!(n.user_cores(), 42);
        assert_eq!(n.gpus_per_node, 6);
        // 96 GB HBM2 aggregate on the GPUs.
        assert!((n.hbm_bytes() / GIB - 96.0).abs() < 1e-9);
        // Dual-rail EDR: 25 GB/s injection.
        assert!((n.injection_bw - 25.0e9).abs() < 1e-3);
    }

    #[test]
    fn summit_machine_matches_paper() {
        let m = MachineSpec::summit();
        assert_eq!(m.nodes, 4608);
        assert_eq!(m.total_gpus(), 27_648);
        // "over 3 AI-ExaOps mixed precision peak performance"
        assert!(m.peak_mixed_precision_flops() > 3.0e18);
        // "node-local NVMe has aggregate read bandwidth over 27 TB/s"
        assert!(m.aggregate_nvme_read_bw() > 27.0 * TB);
        // GPFS read bandwidth "only 2.5 TB/s"
        assert!((m.storage.shared_fs_read_bw - 2.5 * TB).abs() < 1.0);
    }

    #[test]
    fn high_mem_nodes_match_paper() {
        let m = MachineSpec::summit_high_mem();
        assert_eq!(m.nodes, 54);
        // 192 GB HBM2, 2 TB DDR4, 6.4 TB NVMe per node.
        assert!((m.node.hbm_bytes() / GIB - 192.0).abs() < 1e-9);
        assert!((m.node.dram_bytes - 2.0 * TB).abs() < 1.0);
        assert!((m.storage.nvme_bytes - 6.4 * TB).abs() < 1.0);
    }

    #[test]
    fn companion_clusters_match_paper() {
        let rhea = MachineSpec::rhea();
        assert_eq!(rhea.nodes, 512);
        assert_eq!(rhea.node.user_cores(), 16);
        let andes = MachineSpec::andes();
        assert_eq!(andes.nodes, 704);
        assert_eq!(andes.node.user_cores(), 32);
        assert!((andes.node.dram_bytes / GIB - 256.0).abs() < 1e-9);
    }

    #[test]
    fn rhea_gpu_partition_matches_paper() {
        let n = NodeSpec::rhea_gpu();
        assert_eq!(n.gpus_per_node, 2);
        assert!((n.dram_bytes - 1.0 * TB).abs() < 1.0);
        assert_eq!(n.user_cores(), 28);
    }

    #[test]
    fn summit_like_scales_linearly() {
        let half = MachineSpec::summit_like(2304);
        let full = MachineSpec::summit();
        assert!(
            (half.peak_mixed_precision_flops() * 2.0 - full.peak_mixed_precision_flops()).abs()
                < 1.0
        );
    }
}
