//! The inference-serving plane.
//!
//! The paper's platform increasingly *serves* trained models — surrogate
//! evaluation, experiment steering, and screening campaigns are
//! throughput/latency problems, not training problems. This crate spends
//! the repo's substrate (packed SIMD GEMM, the thread-rank communicator,
//! the event-driven fabric simulator) on that workload:
//!
//! * [`batch`] — the dynamic micro-batching queue with explicit
//!   latency/throughput knobs and bounded-queue admission control
//!   (shed-or-reject, surfaced to the client). A pure state machine over
//!   virtual time, driven identically by the real server and the
//!   simulator.
//! * [`service`] — the measured service-time model: calibrated from
//!   executed [`ServableModel`] forwards, it captures why micro-batching
//!   wins (one packed GEMM per batch amortizes the per-call overhead that
//!   per-request matvecs pay every time).
//! * [`server`] — the executed plane: replica worker threads pulling
//!   micro-batches from the shared queue, an open-loop paced load
//!   generator, per-request latencies from the wall clock.
//! * [`sim`] — the modeled plane: a deterministic discrete-event
//!   simulator running 10⁵–10⁶ closed-loop clients against the *same*
//!   batcher, producing the latency-vs-throughput curve at scales no
//!   laptop can execute.
//! * [`replica`] — model replicas sharded across `World` ranks: rank 0
//!   broadcasts the weights (binomial tree), every rank serves its
//!   partition, results gather back bit-identically.
//! * [`capacity`] — full-Summit serving capacity predicted over the
//!   routed fat-tree fabric (`comm::sim` + `machine::ClusterModel`):
//!   weight-broadcast time and the compute-vs-ingress capacity bound at
//!   27,648 replicas.
//!
//! The headline results are p50/p99 latency vs achieved throughput
//! across a swept arrival rate (`sim::tests`), the modeled full-machine
//! capacity (`capacity::tests`), and the executed small-scale curve
//! checked against the simulator's prediction (`tests/executed_vs_sim.rs`).

pub mod batch;
pub mod capacity;
pub mod replica;
mod rng;
pub mod server;
pub mod service;
pub mod sim;

pub use batch::{Admission, AdmissionPolicy, BatchConfig, Batcher, BatcherStats, QueuedRequest};
pub use capacity::{summit_serving_capacity, SummitServing};
pub use replica::serve_sharded;
pub use server::{run_executed, ExecutedConfig};
pub use service::{calibrate, CalibrationPoint, ServiceModel};
pub use sim::{simulate, SimConfig};

/// One point of the latency-vs-throughput curve — produced identically by
/// the executed server and the load simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct CurvePoint {
    /// Target (offered) arrival rate, requests/s.
    pub offered_rps: f64,
    /// Completed requests per second of span — the goodput axis.
    pub achieved_rps: f64,
    /// Median end-to-end latency (admission → batch completion), ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
    /// Mean dispatched micro-batch size at this load.
    pub mean_batch: f64,
    /// Requests issued by the generator/clients.
    pub issued: u64,
    /// Requests completed with a response.
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests shed from the queue after admission.
    pub shed: u64,
    /// Span of the run in (virtual or wall) seconds.
    pub span_s: f64,
}

impl CurvePoint {
    /// Assemble a point from raw per-request latencies (seconds; sorted in
    /// place) and the batcher's counters.
    pub fn from_latencies(
        offered_rps: f64,
        issued: u64,
        stats: BatcherStats,
        latencies: &mut [f64],
        span_s: f64,
    ) -> Self {
        latencies.sort_by(f64::total_cmp);
        let completed = latencies.len() as u64;
        let mean = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / completed as f64
        };
        CurvePoint {
            offered_rps,
            achieved_rps: if span_s > 0.0 {
                completed as f64 / span_s
            } else {
                0.0
            },
            p50_ms: percentile(latencies, 0.50) * 1e3,
            p99_ms: percentile(latencies, 0.99) * 1e3,
            mean_ms: mean * 1e3,
            mean_batch: stats.mean_batch(),
            issued,
            completed,
            rejected: stats.rejected,
            shed: stats.shed,
            span_s,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 for empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn curve_point_math() {
        let mut lat = vec![0.002, 0.001, 0.004, 0.003];
        let stats = BatcherStats {
            admitted: 4,
            rejected: 1,
            shed: 0,
            batches: 2,
            dispatched: 4,
        };
        let p = CurvePoint::from_latencies(100.0, 5, stats, &mut lat, 2.0);
        assert_eq!(p.completed, 4);
        assert_eq!(p.achieved_rps, 2.0);
        assert_eq!(p.p50_ms, 2.0);
        assert_eq!(p.p99_ms, 4.0);
        assert_eq!(p.mean_batch, 2.0);
    }
}
