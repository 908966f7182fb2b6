//! Checkpoint I/O and the Young–Daly interval (paper Section VI-B's
//! "runtime components such as I/O … can be performance-critical").
//!
//! Long training jobs on a leadership machine must checkpoint: the machine
//! MTBF shrinks linearly with node count, and the Blanchard case study's
//! I/O overhead is dominated by exactly this traffic. The classic
//! first-order analysis (Young 1974, Daly 2006) gives the optimal interval
//! `τ* = √(2·δ·M)` for checkpoint cost `δ` and MTBF `M`, with expected
//! overhead `δ/τ + τ/(2M)` (checkpoint writes plus expected recomputation).

use serde::Serialize;

use crate::tier::StorageTier;

/// Checkpoint cost model for one job.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CheckpointModel {
    /// Bytes written per checkpoint (model + optimizer state).
    pub state_bytes: f64,
    /// Write bandwidth available to the job, bytes/s.
    pub write_bw: f64,
    /// Mean time between failures for the job's node set, seconds.
    pub mtbf_seconds: f64,
}

impl CheckpointModel {
    /// Build from a storage tier and a per-node MTBF (machine MTBF =
    /// per-node MTBF / nodes).
    ///
    /// # Panics
    /// Panics on non-positive inputs.
    pub fn new(state_bytes: f64, tier: &StorageTier, node_mtbf_seconds: f64, nodes: u32) -> Self {
        assert!(state_bytes > 0.0, "state must be non-empty");
        assert!(
            node_mtbf_seconds > 0.0 && nodes > 0,
            "MTBF inputs must be positive"
        );
        CheckpointModel {
            state_bytes,
            write_bw: tier.write_bw,
            mtbf_seconds: node_mtbf_seconds / f64::from(nodes),
        }
    }

    /// Seconds to write one checkpoint.
    fn checkpoint_seconds(&self) -> f64 {
        self.state_bytes / self.write_bw
    }

    /// Expected overhead fraction at interval `tau`: checkpoint writes
    /// (`δ/τ`) plus expected lost work on failure (`τ/(2M)`).
    ///
    /// # Panics
    /// Panics if `tau` is not positive.
    pub fn overhead_fraction(&self, tau: f64) -> f64 {
        assert!(tau > 0.0, "interval must be positive");
        self.checkpoint_seconds() / tau + tau / (2.0 * self.mtbf_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_machine::MachineSpec;

    /// A 5-year per-node MTBF, typical for leadership hardware.
    const NODE_MTBF: f64 = 5.0 * 365.25 * 24.0 * 3600.0;

    fn model(nodes: u32, state_tb: f64) -> CheckpointModel {
        let summit = MachineSpec::summit();
        CheckpointModel::new(
            state_tb * 1e12,
            &StorageTier::shared_fs(&summit),
            NODE_MTBF,
            nodes,
        )
    }

    /// The Young–Daly interval `τ* = √(2·δ·M)`.
    fn young_daly(m: &CheckpointModel) -> f64 {
        (2.0 * m.checkpoint_seconds() * m.mtbf_seconds).sqrt()
    }

    #[test]
    fn optimum_is_a_minimum() {
        let m = model(4608, 10.0);
        let tau = young_daly(&m);
        let at_opt = m.overhead_fraction(tau);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            assert!(
                m.overhead_fraction(tau * factor) > at_opt,
                "overhead at {factor}×τ* not worse"
            );
        }
        // Closed form: overhead(τ*) = √(2δ/M).
        let closed = (2.0 * m.checkpoint_seconds() / m.mtbf_seconds).sqrt();
        assert!((at_opt - closed).abs() / closed < 1e-9);
    }

    #[test]
    fn full_summit_numbers_plausible() {
        // 10 TB checkpoint at 2.5 TB/s = 4 s; machine MTBF ≈ 9.5 h at 4,608
        // nodes → τ* ≈ 8.8 minutes, overhead ≈ 1.5%.
        let m = model(4608, 10.0);
        assert!((m.checkpoint_seconds() - 4.0).abs() < 1e-9);
        let mtbf_hours = m.mtbf_seconds / 3600.0;
        assert!(mtbf_hours > 8.0 && mtbf_hours < 11.0, "{mtbf_hours}");
        let tau_min = young_daly(&m) / 60.0;
        assert!(tau_min > 5.0 && tau_min < 15.0, "{tau_min}");
        assert!(m.overhead_fraction(young_daly(&m)) < 0.03);
    }

    #[test]
    fn bigger_jobs_checkpoint_more_often() {
        let small = model(64, 10.0);
        let big = model(4608, 10.0);
        assert!(young_daly(&big) < young_daly(&small));
        assert!(
            big.overhead_fraction(young_daly(&big)) > small.overhead_fraction(young_daly(&small))
        );
    }

    #[test]
    fn bigger_state_costs_more() {
        let lean = model(1024, 1.0);
        let fat = model(1024, 100.0);
        assert!(
            fat.overhead_fraction(young_daly(&fat)) > lean.overhead_fraction(young_daly(&lean))
        );
        // Overhead scales as √state: 100× state → 10× overhead.
        let ratio =
            fat.overhead_fraction(young_daly(&fat)) / lean.overhead_fraction(young_daly(&lean));
        assert!((ratio - 10.0).abs() < 1e-6, "{ratio}");
    }
}
