//! End-to-end training-epoch timelines over the storage hierarchy.
//!
//! Combines the staging, shuffling, and bandwidth models into the quantity
//! a user actually experiences — wall-clock time per epoch and for the
//! whole job — and answers the paper's practical question: when does
//! staging to the burst buffers beat streaming from GPFS, and what does
//! per-epoch global shuffling cost on the fabric?

use serde::Serialize;

use crate::dataset::{DatasetSpec, ShardPlan};
use crate::shuffle::ShuffleStrategy;
use crate::staging::{StagingMode, StagingPlan};
use crate::tier::StorageTier;

/// Where the input pipeline reads from during training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum TrainingSource {
    /// Stream every epoch from the shared filesystem.
    SharedFs,
    /// Stage once to node-local NVMe, then read locally.
    StagedNvme(StagingMode),
}

/// Inputs of an epoch-timeline simulation.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EpochPlan {
    /// The dataset.
    pub dataset: DatasetSpec,
    /// Job size in nodes.
    pub nodes: u32,
    /// Input source.
    pub source: TrainingSource,
    /// Per-epoch shuffle strategy.
    pub shuffle: ShuffleStrategy,
    /// Pure-compute seconds per epoch (dataset size / training throughput).
    pub compute_seconds: f64,
    /// Per-node fabric injection bandwidth, bytes/s (for shuffle traffic).
    pub injection_bw: f64,
}

/// One epoch's cost decomposition.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EpochCost {
    /// Wall seconds for the epoch: `max(compute, read)` + shuffle.
    pub wall_seconds: f64,
    /// Read time demanded from the source tier.
    pub read_seconds: f64,
    /// Cross-node shuffle seconds on the fabric.
    pub shuffle_seconds: f64,
}

/// The whole job's timeline.
#[derive(Debug, Clone, Serialize)]
pub struct EpochTimeline {
    /// One-time staging cost (0 when streaming from the shared FS).
    pub staging_seconds: f64,
    /// Steady-state per-epoch cost.
    pub epoch: EpochCost,
    /// Whether the plan is feasible (data fits the chosen tier).
    pub feasible: bool,
}

impl EpochPlan {
    /// Simulate the timeline on a machine's tiers.
    ///
    /// # Panics
    /// Panics if compute time is not positive.
    pub fn simulate(&self, shared: &StorageTier, nvme: &StorageTier) -> EpochTimeline {
        assert!(self.compute_seconds > 0.0, "compute time must be positive");
        let bytes = self.dataset.total_bytes();
        let (staging_seconds, read_bw, feasible) = match self.source {
            TrainingSource::SharedFs => (0.0, shared.read_bw, true),
            TrainingSource::StagedNvme(mode) => {
                let plan = StagingPlan::new(&self.dataset, self.nodes, shared, nvme, mode);
                (plan.stage_seconds, nvme.read_bw, plan.fits)
            }
        };
        let read_seconds = bytes / read_bw;
        // Shuffle traffic crosses the fabric; aggregate bandwidth is the
        // bisection-ish `nodes × injection / 2`.
        let plan = ShardPlan::partition(&self.dataset, self.nodes);
        let traffic = self.shuffle.epoch_traffic_bytes(&plan);
        let fabric_bw = f64::from(self.nodes) * self.injection_bw / 2.0;
        let shuffle_seconds = traffic / fabric_bw;
        // Reads pipeline under compute; shuffles do not (they reorder the
        // data the next epoch needs).
        let wall = self.compute_seconds.max(read_seconds) + shuffle_seconds;
        EpochTimeline {
            staging_seconds,
            epoch: EpochCost {
                wall_seconds: wall,
                read_seconds,
                shuffle_seconds,
            },
            feasible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_machine::MachineSpec;

    fn plan(
        source: TrainingSource,
        shuffle: ShuffleStrategy,
    ) -> (EpochPlan, StorageTier, StorageTier) {
        let m = MachineSpec::summit();
        let nodes = 4608;
        let p = EpochPlan {
            dataset: DatasetSpec::imagenet(),
            nodes,
            source,
            shuffle,
            // Full Summit consumes ImageNet in ≈16 s at 2900 samples/s/GPU.
            compute_seconds: 1_281_167.0 / (2900.0 * 27_648.0),
            injection_bw: m.node.injection_bw,
        };
        (
            p,
            StorageTier::shared_fs(&m),
            StorageTier::node_local_nvme(&m, nodes),
        )
    }

    /// The paper's bottom line as a timeline: streaming ImageNet from GPFS
    /// makes the epoch I/O-bound; staging to NVMe restores compute-bound
    /// epochs and amortizes in a couple of epochs.
    #[test]
    fn staging_beats_streaming_after_breakeven() {
        let (p_fs, shared, nvme) = plan(TrainingSource::SharedFs, ShuffleStrategy::LocalInShard);
        let t_fs = p_fs.simulate(&shared, &nvme);
        let (p_st, _, _) = plan(
            TrainingSource::StagedNvme(StagingMode::Partitioned),
            ShuffleStrategy::LocalInShard,
        );
        let t_st = p_st.simulate(&shared, &nvme);
        // Streaming is I/O-bound (read > compute); staged is compute-bound.
        assert!(t_fs.epoch.read_seconds > p_fs.compute_seconds);
        assert!(t_st.epoch.read_seconds < p_st.compute_seconds);
        // One epoch: streaming may win (no staging cost); ten epochs: NVMe
        // must win.
        let ten_epochs = |t: &EpochTimeline| t.staging_seconds + 10.0 * t.epoch.wall_seconds;
        assert!(ten_epochs(&t_st) < ten_epochs(&t_fs));
    }

    #[test]
    fn global_reshard_adds_fabric_time() {
        let (p_local, shared, nvme) = plan(
            TrainingSource::StagedNvme(StagingMode::Partitioned),
            ShuffleStrategy::LocalInShard,
        );
        let (p_global, _, _) = plan(
            TrainingSource::StagedNvme(StagingMode::Partitioned),
            ShuffleStrategy::GlobalReshard,
        );
        let local = p_local.simulate(&shared, &nvme);
        let global = p_global.simulate(&shared, &nvme);
        assert_eq!(local.epoch.shuffle_seconds, 0.0);
        assert!(global.epoch.shuffle_seconds > 0.0);
        assert!(global.epoch.wall_seconds > local.epoch.wall_seconds);
    }

    #[test]
    fn epoch_never_faster_than_compute() {
        for (source, shuffle) in [
            (TrainingSource::SharedFs, ShuffleStrategy::None),
            (
                TrainingSource::StagedNvme(StagingMode::Replicated),
                ShuffleStrategy::GlobalReshard,
            ),
        ] {
            let (p, shared, nvme) = plan(source, shuffle);
            let t = p.simulate(&shared, &nvme);
            assert!(t.epoch.wall_seconds >= p.compute_seconds);
        }
    }

    #[test]
    fn infeasible_replication_flagged() {
        let m = MachineSpec::summit();
        let p = EpochPlan {
            dataset: DatasetSpec::climate_extreme_weather(), // 20 TB
            nodes: 1024,
            source: TrainingSource::StagedNvme(StagingMode::Replicated),
            shuffle: ShuffleStrategy::None,
            compute_seconds: 100.0,
            injection_bw: m.node.injection_bw,
        };
        let t = p.simulate(
            &StorageTier::shared_fs(&m),
            &StorageTier::node_local_nvme(&m, 1024),
        );
        assert!(!t.feasible, "20 TB cannot replicate onto 1.6 TB volumes");
    }
}
