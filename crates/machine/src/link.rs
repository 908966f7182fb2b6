//! The α–β (latency–bandwidth) link cost model.
//!
//! Every network transfer in the analytic models is costed as
//! `t = α + m / β` where `α` is the startup latency in seconds, `β` the
//! bandwidth in bytes/s and `m` the message size in bytes. This is the
//! standard Hockney model and exactly the arithmetic the paper performs in
//! Section VI-B (e.g. a 1.4 GB BERT-large allreduce message over a 12.5 GB/s
//! ring-algorithm bandwidth costing ≈110 ms).

use serde::{Deserialize, Serialize};

use crate::spec::NodeSpec;

/// Summit EDR InfiniBand per-message injection latency (seconds).
///
/// These `SUMMIT_*` constants are the **single source of truth** for the
/// paper's link numbers: `NodeSpec::summit()` builds its injection fields
/// from them, [`NvLinkGraph`](crate::topology::NvLinkGraph) takes its NVLink
/// and X-bus rates from them, and `summit-comm` re-exports [`LinkModel`] so
/// the collective models never restate the figures.
pub const SUMMIT_INJECTION_LATENCY_S: f64 = 1.5e-6;
/// Summit dual-rail EDR injection bandwidth (bytes/s): 2 × 12.5 GB/s.
pub const SUMMIT_INJECTION_BW_BPS: f64 = 25.0e9;
/// NVLink 2.0 per-hop latency on an AC922 node (seconds).
pub const SUMMIT_NVLINK_LATENCY_S: f64 = 0.7e-6;
/// NVLink 2.0 bandwidth between GPUs in one AC922 triplet (bytes/s).
pub const SUMMIT_NVLINK_BW_BPS: f64 = 50.0e9;
/// X-bus bandwidth between the two POWER9 sockets of an AC922 (bytes/s).
pub const SUMMIT_XBUS_BW_BPS: f64 = 64.0e9;

/// A point-to-point link cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Startup latency per message in seconds.
    pub alpha: f64,
    /// Bandwidth in bytes/s.
    pub beta: f64,
}

impl LinkModel {
    /// Create a link model from explicit latency and bandwidth.
    ///
    /// # Panics
    /// Panics if `beta` is not strictly positive or `alpha` is negative.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(beta > 0.0, "bandwidth must be positive");
        assert!(alpha >= 0.0, "latency must be non-negative");
        LinkModel { alpha, beta }
    }

    /// The inter-node InfiniBand link of a given node spec.
    pub fn inter_node(node: &NodeSpec) -> Self {
        LinkModel::new(node.injection_latency, node.injection_bw)
    }

    /// The intra-node NVLink connection of a given node spec.
    ///
    /// # Panics
    /// Panics if the node has no NVLink (CPU-only node).
    pub fn nvlink(node: &NodeSpec) -> Self {
        assert!(node.nvlink_bw > 0.0, "node has no NVLink");
        LinkModel::new(SUMMIT_NVLINK_LATENCY_S, node.nvlink_bw)
    }

    /// Time in seconds to move `bytes` over this link.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        debug_assert!(bytes >= 0.0);
        self.alpha + bytes / self.beta
    }

    /// Effective bandwidth (bytes/s) achieved for a message of `bytes`,
    /// accounting for the latency term. Approaches `beta` for large messages.
    pub fn effective_bandwidth(&self, bytes: f64) -> f64 {
        assert!(bytes > 0.0, "effective bandwidth needs a positive size");
        bytes / self.transfer_time(bytes)
    }

    /// A copy of this link with the latency term dropped (`α = 0`).
    ///
    /// Production collectives pipeline chunks so the serialized latency of
    /// the textbook schedules is largely hidden; the paper's Section VI-B
    /// arithmetic neglects latency entirely. Feeding a `bandwidth_only`
    /// link to a schedule simulation reproduces that arithmetic while still
    /// charging every byte to the critical path.
    pub fn bandwidth_only(&self) -> Self {
        LinkModel {
            alpha: 0.0,
            beta: self.beta,
        }
    }

    /// A derated copy of this link: bandwidth scaled by `factor` in (0, 1].
    ///
    /// Used to model contention (e.g. ring allreduce achieving half the
    /// network bandwidth, paper Section VI-B).
    ///
    /// # Panics
    /// Panics unless `0 < factor <= 1`.
    pub fn derate(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "derate factor must be in (0,1]"
        );
        LinkModel::new(self.alpha, self.beta * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_affine() {
        let l = LinkModel::new(1e-6, 1e9);
        let t1 = l.transfer_time(1e6);
        let t2 = l.transfer_time(2e6);
        assert!((t2 - t1 - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn effective_bandwidth_approaches_beta() {
        let l = LinkModel::new(1e-6, 25e9);
        assert!(l.effective_bandwidth(1e9) / l.beta > 0.99);
        assert!(l.effective_bandwidth(1e3) / l.beta < 0.1);
    }

    #[test]
    fn summit_link_matches_paper_bandwidth() {
        let l = LinkModel::inter_node(&NodeSpec::summit());
        assert!((l.beta - 25.0e9).abs() < 1.0);
        // Ring algorithm bandwidth is half of network bandwidth: 12.5 GB/s.
        assert!((l.derate(0.5).beta - 12.5e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkModel::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "derate factor")]
    fn derate_out_of_range_rejected() {
        let _ = LinkModel::new(0.0, 1.0).derate(1.5);
    }
}
