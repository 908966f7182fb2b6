//! The Section VI-B aggregate read-bandwidth requirement analysis.
//!
//! "The aggregated read bandwidth needed to sustain full Summit
//! data-parallel training is roughly estimated from single device training
//! throughput on in-memory synthetic data, multiplying by input data size
//! and number of devices. For the standard ResNet50 on ImageNet benchmark, a
//! total of 20 TB/s is required for ideal scaling."

use serde::Serialize;

use crate::tier::StorageTier;

/// The read-bandwidth demand of an ideally-scaled data-parallel training job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ReadDemand {
    /// Single-device training throughput on in-memory data, samples/s.
    pub samples_per_sec_per_device: f64,
    /// Bytes read per training sample.
    pub bytes_per_sample: f64,
    /// Number of devices (GPUs).
    pub devices: u64,
}

impl ReadDemand {
    /// Create a demand description.
    ///
    /// # Panics
    /// Panics on non-positive rates/sizes or zero devices.
    pub fn new(samples_per_sec_per_device: f64, bytes_per_sample: f64, devices: u64) -> Self {
        assert!(
            samples_per_sec_per_device > 0.0,
            "throughput must be positive"
        );
        assert!(bytes_per_sample > 0.0, "sample size must be positive");
        assert!(devices > 0, "need at least one device");
        ReadDemand {
            samples_per_sec_per_device,
            bytes_per_sample,
            devices,
        }
    }

    /// Aggregate read bandwidth (bytes/s) required for ideal scaling.
    pub fn aggregate_read_bw(&self) -> f64 {
        self.samples_per_sec_per_device * self.bytes_per_sample * self.devices as f64
    }

    /// Judge a storage tier against this demand.
    pub fn feasibility(&self, tier: &StorageTier) -> Feasibility {
        let supply = tier.read_bw;
        let demand = self.aggregate_read_bw();
        Feasibility {
            tier_name: tier.name,
            demand_bw: demand,
            supply_bw: supply,
            satisfied: supply >= demand,
            // If the tier cannot keep up, training throughput is capped at
            // supply/demand of ideal.
            achievable_fraction: (supply / demand).min(1.0),
        }
    }
}

/// Verdict of a demand-vs-tier comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Feasibility {
    /// Tier under judgment.
    pub tier_name: &'static str,
    /// Required aggregate bytes/s.
    pub demand_bw: f64,
    /// Available aggregate bytes/s.
    pub supply_bw: f64,
    /// Whether supply meets demand.
    pub satisfied: bool,
    /// Fraction of ideal training throughput achievable (≤ 1).
    pub achievable_fraction: f64,
}

/// ResNet50-on-ImageNet demand at full Summit, with the parameters recorded
/// in DESIGN.md (2,900 samples/s/device synthetic-data throughput, 250 KB
/// per sample, 27,648 V100s → ≈20 TB/s).
pub fn resnet50_full_summit_demand() -> ReadDemand {
    ReadDemand::new(2900.0, 250.0e3, 27_648)
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_machine::MachineSpec;

    #[test]
    fn paper_twenty_tbs_figure() {
        let d = resnet50_full_summit_demand();
        let tbs = d.aggregate_read_bw() / 1e12;
        assert!((tbs - 20.0).abs() / 20.0 < 0.05, "got {tbs} TB/s");
    }

    #[test]
    fn gpfs_cannot_feed_full_summit_but_nvme_can() {
        let summit = MachineSpec::summit();
        let d = resnet50_full_summit_demand();
        let gpfs = d.feasibility(&StorageTier::shared_fs(&summit));
        assert!(
            !gpfs.satisfied,
            "paper: GPFS 2.5 TB/s cannot sustain 20 TB/s"
        );
        // GPFS caps training at ~1/8 of ideal.
        assert!(gpfs.achievable_fraction < 0.15);
        let nvme = d.feasibility(&StorageTier::node_local_nvme(&summit, summit.nodes));
        assert!(nvme.satisfied, "paper: NVMe >27 TB/s satisfies the need");
    }

    #[test]
    fn gpfs_feeds_a_partial_machine() {
        // The crossover: GPFS can feed 2.5/20 of the machine ≈ 3,456 GPUs.
        let summit = MachineSpec::summit();
        let d = resnet50_full_summit_demand();
        let gpfs = d.feasibility(&StorageTier::shared_fs(&summit));
        let max = (gpfs.achievable_fraction * d.devices as f64).floor() as u64;
        assert!(max > 3000 && max < 3600, "got {max}");
    }

    #[test]
    fn demand_linear_in_each_factor() {
        let base = ReadDemand::new(1000.0, 1.0e5, 100);
        let double_rate = ReadDemand::new(2000.0, 1.0e5, 100);
        let double_size = ReadDemand::new(1000.0, 2.0e5, 100);
        let double_dev = ReadDemand::new(1000.0, 1.0e5, 200);
        for d in [double_rate, double_size, double_dev] {
            assert!((d.aggregate_read_bw() / base.aggregate_read_bw() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn achievable_fraction_capped_at_one() {
        let summit = MachineSpec::summit();
        let tiny = ReadDemand::new(10.0, 1.0e3, 6);
        let f = tiny.feasibility(&StorageTier::shared_fs(&summit));
        assert_eq!(f.achievable_fraction, 1.0);
        assert!(f.satisfied);
    }
}
