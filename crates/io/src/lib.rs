//! Training-I/O models for leadership-scale deep learning.
//!
//! Section VI-B of *Learning to Scale the Summit* analyzes why full-machine
//! data-parallel training stresses the I/O subsystem: the access pattern is
//! "iterative random access" over the training set, the aggregate read
//! bandwidth required for ideal scaling of ResNet50/ImageNet is ≈20 TB/s,
//! the shared GPFS filesystem delivers only 2.5 TB/s, while the node-local
//! NVMe burst buffers aggregate to >27 TB/s — at the cost of data staging at
//! job start and sharding/shuffling complications. This crate implements
//! each of those pieces:
//!
//! * [`tier`] — storage tiers (shared parallel FS, node-local NVMe) with
//!   capacity and bandwidth derived from [`summit_machine::MachineSpec`].
//! * [`dataset`] — dataset descriptions and node-sharding plans.
//! * [`shuffle`] — per-epoch shuffle strategies (none / within-shard /
//!   global reshard) with both a *real* index-level implementation used to
//!   verify epoch invariants and analytic cross-node traffic estimates.
//! * [`staging`] — the cost of staging data from the shared filesystem to
//!   node-local NVMe (partitioned or replicated), and its amortization over
//!   a training job.
//! * [`requirements`] — the Section VI-B aggregate-bandwidth requirement
//!   calculator and per-tier feasibility verdicts.
//!
//! # Example: the paper's ResNet50 feasibility argument
//!
//! ```
//! use summit_io::requirements::ReadDemand;
//! use summit_machine::MachineSpec;
//!
//! let summit = MachineSpec::summit();
//! // ~2,900 samples/s/GPU on in-memory synthetic data, 250 KB per sample.
//! let demand = ReadDemand::new(2900.0, 250.0e3, summit.total_gpus());
//! let tbs = demand.aggregate_read_bw() / 1e12;
//! assert!(tbs > 19.0 && tbs < 21.0); // "roughly 20 TB/s"
//! ```

pub mod checkpoint;
pub mod dataset;
pub mod epoch;
pub mod requirements;
pub mod shuffle;
pub mod staging;
pub mod tier;

pub use checkpoint::CheckpointModel;
pub use dataset::{DatasetSpec, ShardPlan};
pub use epoch::{EpochPlan, EpochTimeline, TrainingSource};
pub use requirements::{Feasibility, ReadDemand};
pub use shuffle::ShuffleStrategy;
pub use staging::{StagingMode, StagingPlan};
pub use tier::StorageTier;
