//! Full-Summit serving capacity, predicted over the routed fabric.
//!
//! The executed plane tops out at a laptop's worth of replicas; the
//! question the paper's operators actually ask is *"what does this model
//! serve at machine scale?"*. This module answers it with the same
//! modeled surface the training side trusts — `comm::sim::simulate_on`
//! routing real collective schedules over `machine::ClusterModel`'s
//! fat tree — rather than a new back-of-envelope:
//!
//! * **Weight distribution**: one [`Collective::BinomialBroadcast`] of
//!   the flat parameter vector across all replica ranks — the cost of
//!   rolling a new checkpoint out to the serving fleet.
//! * **Compute capacity**: `replicas × peak_rps` from the calibrated
//!   [`ServiceModel`] — every replica running saturated micro-batches.
//! * **Ingress bound**: requests enter at a front-end root and fan out;
//!   one [`Collective::Scatter`] of a feature row per replica models a
//!   full round of request distribution, so the root's injection link
//!   caps aggregate throughput at `replicas / scatter_time`.
//!
//! The quoted capacity is `min(compute, ingress)` — at 27,648 replicas
//! a small MLP is ingress-bound (the fan-out link saturates long before
//! the GPUs do), which is exactly the regime the paper's edge-service
//! deployments report.

use summit_comm::engine::Collective;
use summit_comm::sim::simulate_on;
use summit_machine::ClusterModel;

use crate::service::ServiceModel;

/// Modeled serving capacity of a replica fleet on a routed fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummitServing {
    /// Replica ranks in the fleet.
    pub replicas: usize,
    /// Seconds to broadcast the flat parameter vector to every replica
    /// (checkpoint rollout cost).
    pub weight_broadcast_s: f64,
    /// Calibrated peak throughput of one replica, requests/s.
    pub per_replica_peak_rps: f64,
    /// Fleet compute capacity: `replicas × per_replica_peak_rps`.
    pub compute_capacity_rps: f64,
    /// Front-end fan-out bound: `replicas / scatter_time(input_dim)`.
    pub ingress_bound_rps: f64,
    /// The quoted capacity: `min(compute, ingress)`.
    pub capacity_rps: f64,
}

/// Predict serving capacity for `replicas` ranks on `cluster`, given the
/// host-calibrated service model, the batching limit, and the model's
/// parameter and input sizes (f32 elements).
///
/// # Panics
/// Panics if `replicas < 2` (the collectives need a non-trivial world) or
/// any size is zero.
pub fn summit_serving_capacity(
    service: &ServiceModel,
    max_batch: usize,
    param_count: usize,
    input_dim: usize,
    replicas: usize,
    cluster: ClusterModel,
) -> SummitServing {
    assert!(replicas >= 2, "need at least two replicas to model");
    assert!(param_count > 0 && input_dim > 0, "sizes must be positive");
    let weight_broadcast_s = simulate_on(
        Collective::BinomialBroadcast { root: 0 },
        replicas,
        param_count,
        cluster,
    )
    .report
    .time_seconds;
    let scatter_s = simulate_on(
        Collective::Scatter { root: 0 },
        replicas,
        input_dim,
        cluster,
    )
    .report
    .time_seconds;
    let per_replica_peak_rps = service.peak_rps(max_batch);
    let compute_capacity_rps = replicas as f64 * per_replica_peak_rps;
    // One scatter delivers one request to every replica: `replicas`
    // requests per `scatter_s` is the root's sustainable fan-out rate.
    let ingress_bound_rps = replicas as f64 / scatter_s.max(1e-12);
    SummitServing {
        replicas,
        weight_broadcast_s,
        per_replica_peak_rps,
        compute_capacity_rps,
        ingress_bound_rps,
        capacity_rps: compute_capacity_rps.min(ingress_bound_rps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVICE: ServiceModel = ServiceModel {
        base_s: 5.0e-4,
        per_row_s: 2.0e-5,
    };

    #[test]
    fn capacity_is_the_binding_constraint() {
        let c = summit_serving_capacity(&SERVICE, 16, 10_000, 64, 24, ClusterModel::summit_like(4));
        assert_eq!(c.replicas, 24);
        assert!(c.weight_broadcast_s > 0.0);
        assert!(c.per_replica_peak_rps > 0.0);
        assert!((c.compute_capacity_rps - 24.0 * SERVICE.peak_rps(16)).abs() < 1e-9);
        assert_eq!(
            c.capacity_rps,
            c.compute_capacity_rps.min(c.ingress_bound_rps)
        );
    }

    /// Full Summit (27,648 replicas) serving a 256 → [512, 512] → 128 MLP
    /// (459,904 parameters): the fleet has capacity, and rolling a new
    /// checkpoint out to it is a sub-minute broadcast.
    #[test]
    fn full_summit_fleet_has_capacity_and_a_sub_minute_rollout() {
        let c = summit_serving_capacity(&SERVICE, 16, 459_904, 256, 27_648, ClusterModel::summit());
        println!("{c:?}");
        assert!(c.capacity_rps > 0.0, "{c:?}");
        assert!(c.weight_broadcast_s < 60.0, "{c:?}");
    }

    #[test]
    fn more_replicas_never_reduce_capacity_under_compute_bound() {
        let small =
            summit_serving_capacity(&SERVICE, 16, 4_000, 64, 12, ClusterModel::summit_like(2));
        let big =
            summit_serving_capacity(&SERVICE, 16, 4_000, 64, 24, ClusterModel::summit_like(4));
        assert!(big.compute_capacity_rps > small.compute_capacity_rps);
    }

    #[test]
    fn broadcast_time_grows_with_parameters() {
        let cluster = ClusterModel::summit_like(2);
        let small = summit_serving_capacity(&SERVICE, 16, 1_000, 64, 12, cluster);
        let big = summit_serving_capacity(&SERVICE, 16, 1_000_000, 64, 12, cluster);
        assert!(big.weight_broadcast_s > small.weight_broadcast_s);
    }
}
