//! Storage tiers of a leadership system.

use serde::Serialize;
use summit_machine::MachineSpec;

/// A storage tier as seen by a job running on `nodes` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StorageTier {
    /// Human-readable tier name.
    pub name: &'static str,
    /// Aggregate read bandwidth available to the job, bytes/s.
    pub read_bw: f64,
    /// Aggregate write bandwidth available to the job, bytes/s.
    pub write_bw: f64,
    /// Usable capacity in bytes (aggregate across the job's nodes for
    /// node-local tiers).
    pub capacity: f64,
    /// Whether data on this tier survives across jobs. Node-local NVMe on
    /// Summit is scratch: "data on NVMe is not persistent between jobs".
    pub persistent: bool,
    /// Whether the tier is node-local (each node only sees its own slice).
    pub node_local: bool,
}

impl StorageTier {
    /// The shared parallel filesystem tier for a job on `nodes` nodes of
    /// `machine`. Shared bandwidth is a machine-wide resource; a job cannot
    /// exceed its proportional share only in the worst case, but the paper's
    /// analysis credits a full-machine job with the full 2.5 TB/s, so we
    /// expose the full aggregate regardless of job size (contention is
    /// modelled elsewhere).
    pub fn shared_fs(machine: &MachineSpec) -> Self {
        StorageTier {
            name: "shared parallel FS (GPFS)",
            read_bw: machine.storage.shared_fs_read_bw,
            write_bw: machine.storage.shared_fs_write_bw,
            capacity: f64::INFINITY,
            persistent: true,
            node_local: false,
        }
    }

    /// The node-local NVMe tier for a job on `nodes` nodes.
    ///
    /// # Panics
    /// Panics if `nodes` exceeds the machine size or is zero.
    pub fn node_local_nvme(machine: &MachineSpec, nodes: u32) -> Self {
        assert!(nodes > 0, "a job needs at least one node");
        assert!(nodes <= machine.nodes, "job larger than machine");
        let n = f64::from(nodes);
        StorageTier {
            name: "node-local NVMe",
            read_bw: n * machine.storage.nvme_read_bw,
            write_bw: n * machine.storage.nvme_write_bw,
            capacity: n * machine.storage.nvme_bytes,
            persistent: false,
            node_local: true,
        }
    }

    /// Time in seconds to read `bytes` once at full aggregate bandwidth.
    pub fn read_time(&self, bytes: f64) -> f64 {
        debug_assert!(bytes >= 0.0);
        bytes / self.read_bw
    }

    /// Whether a dataset of `bytes` fits on this tier.
    pub fn fits(&self, bytes: f64) -> bool {
        bytes <= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_tiers_match_paper() {
        let summit = MachineSpec::summit();
        let gpfs = StorageTier::shared_fs(&summit);
        assert!((gpfs.read_bw - 2.5e12).abs() < 1.0);
        assert!(gpfs.persistent);

        let nvme = StorageTier::node_local_nvme(&summit, summit.nodes);
        assert!(nvme.read_bw > 27.0e12, "paper: over 27 TB/s aggregate");
        assert!(!nvme.persistent, "paper: not persistent between jobs");
        // 4608 × 1.6 TB ≈ 7.4 PB aggregate burst buffer.
        assert!((nvme.capacity - 4608.0 * 1.6e12).abs() < 1e6);
    }

    #[test]
    fn nvme_scales_with_job_size() {
        let summit = MachineSpec::summit();
        let small = StorageTier::node_local_nvme(&summit, 100);
        let big = StorageTier::node_local_nvme(&summit, 200);
        assert!((big.read_bw / small.read_bw - 2.0).abs() < 1e-12);
        assert!((big.capacity / small.capacity - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_check() {
        let summit = MachineSpec::summit();
        let one_node = StorageTier::node_local_nvme(&summit, 1);
        assert!(one_node.fits(1.0e12));
        assert!(!one_node.fits(2.0e12)); // 1.6 TB per node
    }

    #[test]
    #[should_panic(expected = "job larger than machine")]
    fn oversized_job_rejected() {
        let summit = MachineSpec::summit();
        let _ = StorageTier::node_local_nvme(&summit, 100_000);
    }

    #[test]
    fn read_write_times() {
        let summit = MachineSpec::summit();
        let gpfs = StorageTier::shared_fs(&summit);
        // Staging 100 TB from GPFS takes 100e12 / 2.5e12 = 40 s at peak.
        assert!((gpfs.read_time(100.0e12) - 40.0).abs() < 1e-9);
    }
}
