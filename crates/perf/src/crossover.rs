//! The Section VI-B communication-bound crossover.
//!
//! "Thus models larger than BERT-large become communication-bound for the
//! widely used data-parallel training on Summit."
//!
//! The argument formalized: per-GPU batch size is memory-bound, so as the
//! model grows the batch shrinks proportionally and the per-step compute
//! time stays roughly constant, while the allreduce message (and therefore
//! the ring's bandwidth time) grows linearly with the parameter count. The
//! crossover parameter count is where the two curves meet.
//!
//! [`AlgorithmCrossoverStudy`] answers the adjacent question — *which*
//! allreduce algorithm wins at each (message size, world size) cell — from
//! the simulated schedules rather than the closed forms, so fold overheads
//! and uneven splits are priced in. `repro crossover` prints the study.

use serde::Serialize;
use summit_comm::model::{Algorithm, CollectiveModel};
use summit_machine::{LinkModel, NodeSpec};
use summit_workloads::{GradPrecision, Workload};

/// The memory-bound compute / linear-communication crossover model.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CommCrossover {
    /// Per-step forward+backward time, held constant by the memory-bound
    /// batch assumption (seconds). Anchored to BERT-large's ≈110 ms.
    pub step_compute_seconds: f64,
    /// Gradient precision for the allreduce message.
    pub precision: GradPrecision,
    /// Inter-node link.
    pub link: LinkModel,
    /// Rank count for the collective (large-p ring ⇒ barely matters).
    pub ranks: u64,
}

impl CommCrossover {
    /// The paper's setting: BERT-large anchor on full Summit with fp32
    /// gradients.
    pub fn summit_bert_anchor() -> Self {
        CommCrossover {
            step_compute_seconds: Workload::bert_large().step_compute_seconds(),
            precision: GradPrecision::Fp32,
            link: LinkModel::inter_node(&NodeSpec::summit()),
            ranks: 4608,
        }
    }

    /// Allreduce time for a model of `params` parameters (bandwidth term of
    /// the ring, matching the paper's arithmetic).
    pub fn comm_seconds(&self, params: f64) -> f64 {
        let model = CollectiveModel::new(self.link);
        model.bandwidth_term(Algorithm::Ring, self.ranks, params * self.precision.bytes())
    }

    /// Whether a model of `params` parameters is communication-bound
    /// (allreduce time exceeds per-batch compute).
    pub fn comm_bound(&self, params: f64) -> bool {
        self.comm_seconds(params) > self.step_compute_seconds
    }

    /// The crossover parameter count: the model size at which allreduce
    /// time equals compute time. Closed form because both sides are linear:
    /// `params* = t_compute · β / (2 · bytes_per_param · (p−1)/p)`.
    pub fn crossover_params(&self) -> f64 {
        let pf = self.ranks as f64;
        let factor = 2.0 * (pf - 1.0) / pf * self.precision.bytes() / self.link.beta;
        self.step_compute_seconds / factor
    }
}

/// One (world size, message size) cell of the algorithm crossover study:
/// simulated allreduce seconds per algorithm and the winner.
#[derive(Debug, Clone, Serialize)]
pub struct CrossoverCell {
    /// Total GPU ranks participating in the allreduce.
    pub ranks: u64,
    /// Allreduce message per rank, bytes.
    pub message_bytes: f64,
    /// Flat ring over all ranks.
    pub ring_seconds: f64,
    /// Recursive doubling (non-power-of-two worlds fold).
    pub recursive_doubling_seconds: f64,
    /// Rabenseifner (falls back to its closed form when the message does
    /// not divide by the power-of-two core — no schedule exists there).
    pub rabenseifner_seconds: f64,
    /// NVLink ring inside each node + fabric ring across node leaders —
    /// the same GPU count as the flat variants, restructured.
    pub hierarchical_seconds: f64,
    /// Name of the fastest entry.
    pub winner: &'static str,
}

/// Ring vs recursive doubling vs Rabenseifner vs hierarchical, swept over
/// message size × world size, every time taken from the event-driven
/// schedule simulation (full α–β: the latency terms decide the
/// small-message end of the crossover, the bandwidth terms the large end).
///
/// The flat algorithms place all `p` GPU ranks on the fabric; hierarchical
/// restructures the *same* `p` ranks as a NVLink ring inside each node
/// plus a fabric ring across the `p / gpus_per_node` leaders, so every
/// cell compares equal-sized machines.
#[derive(Debug, Clone, Serialize)]
pub struct AlgorithmCrossoverStudy {
    /// Inter-node link.
    pub link: LinkModel,
    /// Intra-node link for the hierarchical variant.
    pub nvlink: LinkModel,
    /// GPUs per node for the hierarchical variant.
    pub gpus_per_node: u64,
    /// Total GPU rank counts to sweep (multiples of `gpus_per_node`).
    pub world_sizes: Vec<u64>,
    /// Message sizes to sweep, bytes per rank.
    pub message_sizes: Vec<f64>,
}

impl AlgorithmCrossoverStudy {
    /// Summit's links and a sweep spanning the latency-bound to
    /// bandwidth-bound regimes: 1 KB – 32 MB across 24 – 6144 GPUs
    /// (4 – 1024 nodes).
    pub fn summit() -> Self {
        let node = NodeSpec::summit();
        AlgorithmCrossoverStudy {
            link: LinkModel::inter_node(&node),
            nvlink: LinkModel::nvlink(&node),
            gpus_per_node: u64::from(node.gpus_per_node),
            world_sizes: vec![24, 96, 768, 6144],
            message_sizes: vec![1024.0, 32.0 * 1024.0, 1024.0 * 1024.0, 32.0e6],
        }
    }

    fn algo_seconds(&self, alg: Algorithm, p: u64, bytes: f64) -> f64 {
        let m = CollectiveModel::new(self.link);
        m.simulated_allreduce_time(alg, p, bytes)
            .unwrap_or_else(|| m.allreduce_time(alg, p, bytes))
    }

    /// Simulated seconds for one cell of the sweep.
    ///
    /// # Panics
    /// Panics unless `gpus_per_node` divides `ranks`.
    pub fn cell(&self, ranks: u64, message_bytes: f64) -> CrossoverCell {
        assert!(
            ranks.is_multiple_of(self.gpus_per_node),
            "world must fill whole nodes"
        );
        let ring = self.algo_seconds(Algorithm::Ring, ranks, message_bytes);
        let rd = self.algo_seconds(Algorithm::RecursiveDoubling, ranks, message_bytes);
        let rab = self.algo_seconds(Algorithm::Rabenseifner, ranks, message_bytes);
        // Hierarchical: NVLink ring across the node's GPUs, then the
        // fabric ring across node leaders — the HierarchicalModel
        // decomposition, each stage simulated.
        let intra = CollectiveModel::new(self.nvlink)
            .simulated_allreduce_time(Algorithm::Ring, self.gpus_per_node, message_bytes)
            .expect("ring simulates at any p");
        let inter = self.algo_seconds(Algorithm::Ring, ranks / self.gpus_per_node, message_bytes);
        let hier = intra + inter;
        let entries = [
            ("ring", ring),
            ("recursive-doubling", rd),
            ("rabenseifner", rab),
            ("hierarchical", hier),
        ];
        let winner = entries
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty")
            .0;
        CrossoverCell {
            ranks,
            message_bytes,
            ring_seconds: ring,
            recursive_doubling_seconds: rd,
            rabenseifner_seconds: rab,
            hierarchical_seconds: hier,
            winner,
        }
    }

    /// The full sweep, row-major over `world_sizes` × `message_sizes`.
    pub fn run(&self) -> Vec<CrossoverCell> {
        let mut cells = Vec::with_capacity(self.world_sizes.len() * self.message_sizes.len());
        for &p in &self.world_sizes {
            for &bytes in &self.message_sizes {
                cells.push(self.cell(p, bytes));
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_lands_at_bert_large() {
        // The paper's qualitative claim, quantitatively: the crossover is at
        // ≈345 M parameters — BERT-large.
        let x = CommCrossover::summit_bert_anchor();
        let params = x.crossover_params();
        assert!(
            (params - 345.0e6).abs() / 345.0e6 < 0.05,
            "crossover at {params} params"
        );
    }

    #[test]
    fn resnet_below_bert_above() {
        let x = CommCrossover::summit_bert_anchor();
        assert!(!x.comm_bound(Workload::resnet50().params));
        // A model 2× BERT-large is communication-bound.
        assert!(x.comm_bound(2.0 * Workload::bert_large().params));
    }

    #[test]
    fn fp16_doubles_the_crossover() {
        let fp32 = CommCrossover::summit_bert_anchor();
        let fp16 = CommCrossover {
            precision: GradPrecision::Fp16,
            ..fp32
        };
        let ratio = fp16.crossover_params() / fp32.crossover_params();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn faster_network_moves_crossover_up() {
        let summit = CommCrossover::summit_bert_anchor();
        let faster = CommCrossover {
            link: LinkModel::new(summit.link.alpha, 4.0 * summit.link.beta),
            ..summit
        };
        assert!((faster.crossover_params() / summit.crossover_params() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn comm_seconds_matches_paper_examples() {
        let x = CommCrossover::summit_bert_anchor();
        // ResNet50: ~8 ms; BERT-large: ~110 ms.
        assert!((x.comm_seconds(25.6e6) - 8.0e-3).abs() / 8.0e-3 < 0.05);
        assert!((x.comm_seconds(345.0e6) - 110.0e-3).abs() / 110.0e-3 < 0.05);
    }

    #[test]
    fn boundary_consistency() {
        let x = CommCrossover::summit_bert_anchor();
        let p = x.crossover_params();
        assert!(!x.comm_bound(p * 0.999));
        assert!(x.comm_bound(p * 1.001));
    }

    /// Down-scaled algorithm crossover: the textbook regimes emerge from
    /// the simulated schedules. Latency-dominated cells go to a
    /// logarithmic-step algorithm, bandwidth-dominated cells to a
    /// bandwidth-optimal one.
    #[test]
    fn algorithm_crossover_shows_both_regimes() {
        let study = AlgorithmCrossoverStudy {
            world_sizes: vec![24, 96],
            message_sizes: vec![64.0, 1024.0 * 1024.0],
            ..AlgorithmCrossoverStudy::summit()
        };
        let cells = study.run();
        assert_eq!(cells.len(), 4);
        for cell in &cells {
            let best = [
                cell.ring_seconds,
                cell.recursive_doubling_seconds,
                cell.rabenseifner_seconds,
                cell.hierarchical_seconds,
            ]
            .into_iter()
            .fold(f64::INFINITY, f64::min);
            assert!(best > 0.0);
            // The winner label matches the minimum.
            let named = match cell.winner {
                "ring" => cell.ring_seconds,
                "recursive-doubling" => cell.recursive_doubling_seconds,
                "rabenseifner" => cell.rabenseifner_seconds,
                "hierarchical" => cell.hierarchical_seconds,
                other => panic!("unknown winner {other}"),
            };
            assert_eq!(named, best, "winner mislabeled in {cell:?}");
        }
        // 64 B across 96 ranks: pure latency — a log-step algorithm wins.
        let tiny = &cells[2];
        assert!(
            matches!(tiny.winner, "recursive-doubling" | "rabenseifner"),
            "latency regime picked {}",
            tiny.winner
        );
        assert!(tiny.recursive_doubling_seconds < tiny.ring_seconds);
        // 1 MB across 96 ranks: bandwidth — the flat ring's 2(p−1) latency
        // terms are amortized and a bandwidth-optimal variant wins.
        let big = &cells[3];
        assert!(
            matches!(big.winner, "ring" | "rabenseifner" | "hierarchical"),
            "bandwidth regime picked {}",
            big.winner
        );
    }

    /// Hierarchical beats the flat ring once the world is large and the
    /// message sizable: 2(p−1) fabric latency terms shrink to
    /// 2(p/g−1) and most bandwidth moves to NVLink.
    #[test]
    fn hierarchical_wins_at_scale() {
        let study = AlgorithmCrossoverStudy::summit();
        let cell = study.cell(768, 1024.0 * 1024.0);
        assert!(
            cell.hierarchical_seconds < cell.ring_seconds,
            "hierarchical {} vs flat ring {}",
            cell.hierarchical_seconds,
            cell.ring_seconds
        );
    }
}
