//! Hardware models of the OLCF Summit system.
//!
//! This crate encodes, as data and small cost models, everything the paper
//! *Learning to Scale the Summit* (Joubert et al., 2022) assumes about the
//! machines it discusses:
//!
//! * [`spec`] — node, CPU, GPU, memory and storage specifications for Summit
//!   (paper Section II-A).
//! * [`topology`] — a two-level non-blocking fat-tree model of Summit's
//!   dual-rail EDR InfiniBand fabric, with hop counting, and an intra-node
//!   NVLink graph.
//! * [`link`] — the α–β (latency–bandwidth) link cost model used by the
//!   communication and scaling analyses.
//!
//! The numbers the paper's Section VI-B analysis depends on — 25 GB/s
//! injection bandwidth per node, 2.5 TB/s shared-filesystem read bandwidth,
//! >27 TB/s aggregate node-local NVMe read bandwidth, 6 V100 GPUs per node
//! > with Tensor Cores — are all encoded here as constants on [`spec::MachineSpec`]
//! > constructors and are unit-tested against the figures quoted in the paper.
//!
//! # Example
//!
//! ```
//! use summit_machine::spec::MachineSpec;
//!
//! let summit = MachineSpec::summit();
//! assert_eq!(summit.nodes, 4608);
//! assert_eq!(summit.node.gpus_per_node, 6);
//! // Peak mixed-precision rate exceeds 3 "AI ExaOps" (paper Section I).
//! assert!(summit.peak_mixed_precision_flops() > 3.0e18);
//! ```

pub mod link;
pub mod simnet;
pub mod spec;
pub mod topology;

pub use link::LinkModel;
pub use simnet::{ClusterModel, FlowNet};
pub use spec::{GpuSpec, MachineSpec, NodeSpec, StorageSpec};
pub use topology::{FatTree, NvLinkGraph};

/// One gibibyte in bytes.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
/// One gigabyte (decimal) in bytes. Network and storage bandwidths in the
/// paper are quoted in decimal units.
pub const GB: f64 = 1.0e9;
/// One terabyte (decimal) in bytes.
pub const TB: f64 = 1.0e12;
