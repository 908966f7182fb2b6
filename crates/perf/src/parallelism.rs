//! Model parallelism and GPU memory capacity (paper Section VI-B outlook).
//!
//! The paper closes its communication analysis with: "models larger than
//! BERT-large become communication-bound for the widely used data-parallel
//! training on Summit. High-performance interconnect and/or **generic model
//! parallelization is essential** for good scaling efficiency on future
//! platforms," and notes that commercial transformers had already "scaled
//! past the trillion parameter mark". This module makes that outlook
//! quantitative:
//!
//! * [`MemoryModel`] — per-GPU memory demand of training (parameters,
//!   gradients, optimizer state, activations) and whether a strategy fits
//!   the V100's HBM;
//! * [`ParallelStrategy`] — a (data, tensor, pipeline) decomposition with
//!   its communication costs: tensor-parallel activation allreduces per
//!   layer (NVLink inside the node, InfiniBand across), the pipeline bubble
//!   `(pp−1)/(mb+pp−1)`, and the data-parallel gradient ring over a
//!   `1/(tp·pp)`-sized message;
//! * [`HybridPlanner`] — exhaustive search over feasible strategies for a
//!   model/GPU budget, maximizing modelled throughput.
//!
//! Tested headlines: BERT-large still fits pure data parallelism; a
//! 10 B-parameter transformer does not fit one V100 and the planner
//! selects model parallelism; at the trillion-parameter mark even one full
//! Summit node cannot hold the weights, so pipeline depth is forced.

use serde::Serialize;
use summit_machine::spec::NodeSpec;
use summit_workloads::Workload;

/// Bytes of optimizer state per parameter (fp32 master copies included).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum OptimizerFootprint {
    /// Plain SGD: parameter + gradient only.
    Sgd,
    /// Momentum SGD (LARS/LARC): + 4 bytes velocity.
    Momentum,
    /// Adam/LAMB: + 8 bytes (m, v).
    Adam,
}

impl OptimizerFootprint {
    /// Bytes per parameter including the fp32 parameter and gradient.
    pub fn bytes_per_param(self) -> f64 {
        match self {
            OptimizerFootprint::Sgd => 8.0,
            OptimizerFootprint::Momentum => 12.0,
            OptimizerFootprint::Adam => 16.0,
        }
    }
}

/// Per-GPU training memory demand.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MemoryModel {
    /// Model parameter count.
    pub params: f64,
    /// Activation bytes per sample held for the backward pass. The default
    /// heuristic (see [`MemoryModel::for_workload`]) is
    /// `flops_per_sample / 2000` — activation *checkpointing* is assumed
    /// (standard practice at scale: only layer-boundary activations are
    /// stored and the rest recomputed), which keeps roughly one byte per
    /// two thousand training FLOPs resident.
    pub activation_bytes_per_sample: f64,
    /// Optimizer footprint.
    pub optimizer: OptimizerFootprint,
}

impl MemoryModel {
    /// Memory model of a zoo workload (Adam-class optimizer, heuristic
    /// activation size).
    pub fn for_workload(w: &Workload) -> Self {
        MemoryModel {
            params: w.params,
            activation_bytes_per_sample: w.flops_per_sample / 2000.0,
            optimizer: OptimizerFootprint::Adam,
        }
    }

    /// Bytes per GPU under a strategy with micro-batch `batch`.
    ///
    /// Weights/gradients/optimizer state shard over tensor × pipeline ways;
    /// activations shard over tensor ways only (each pipeline stage holds
    /// its own stage's activations, which the per-stage parameter share
    /// already accounts for).
    pub fn bytes_per_gpu(&self, strategy: &ParallelStrategy, batch: u32) -> f64 {
        let model_ways = f64::from(strategy.tensor * strategy.pipeline);
        let state = self.params * self.optimizer.bytes_per_param() / model_ways;
        let acts = self.activation_bytes_per_sample * f64::from(batch)
            / f64::from(strategy.tensor)
            / f64::from(strategy.pipeline);
        state + acts
    }

    /// Whether the strategy fits a GPU with `hbm_bytes` of device memory at
    /// micro-batch `batch`.
    pub fn fits(&self, strategy: &ParallelStrategy, batch: u32, hbm_bytes: f64) -> bool {
        self.bytes_per_gpu(strategy, batch) <= hbm_bytes
    }

    /// The largest micro-batch that fits, if any.
    fn max_micro_batch(&self, strategy: &ParallelStrategy, hbm_bytes: f64) -> Option<u32> {
        if !self.fits(strategy, 1, hbm_bytes) {
            return None;
        }
        let model_ways = f64::from(strategy.tensor * strategy.pipeline);
        let state = self.params * self.optimizer.bytes_per_param() / model_ways;
        let per_sample = self.activation_bytes_per_sample
            / f64::from(strategy.tensor)
            / f64::from(strategy.pipeline);
        Some(((hbm_bytes - state) / per_sample).floor().max(1.0) as u32)
    }
}

/// A (data, tensor, pipeline) parallel decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ParallelStrategy {
    /// Data-parallel replicas.
    pub data: u32,
    /// Tensor-parallel ways (≤ GPUs per node to stay on NVLink).
    pub tensor: u32,
    /// Pipeline stages.
    pub pipeline: u32,
    /// Micro-batches in flight per pipeline flush.
    pub micro_batches: u32,
}

impl ParallelStrategy {
    /// Pure data parallelism over `gpus` GPUs.
    pub fn pure_data(gpus: u32) -> Self {
        ParallelStrategy {
            data: gpus,
            tensor: 1,
            pipeline: 1,
            micro_batches: 1,
        }
    }

    /// Total GPUs used.
    pub fn gpus(&self) -> u32 {
        self.data * self.tensor * self.pipeline
    }

    /// The pipeline bubble fraction `(pp−1)/(mb+pp−1)` (GPipe schedule).
    fn bubble_fraction(&self) -> f64 {
        if self.pipeline <= 1 {
            return 0.0;
        }
        let pp = f64::from(self.pipeline);
        let mb = f64::from(self.micro_batches.max(1));
        (pp - 1.0) / (mb + pp - 1.0)
    }
}

/// Throughput estimate of a strategy for one workload on Summit-like nodes.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StrategyEstimate {
    /// The strategy evaluated.
    pub strategy: ParallelStrategy,
    /// Micro-batch per GPU that fits memory.
    pub micro_batch: u32,
    /// Global samples/s.
    pub throughput: f64,
    /// Fraction of step time lost to exposed communication + bubble.
    pub overhead_fraction: f64,
}

/// Exhaustive planner over feasible (data, tensor, pipeline) splits.
#[derive(Debug, Clone, Copy)]
pub struct HybridPlanner {
    /// Node type (for HBM size, NVLink and injection bandwidths).
    pub node: NodeSpec,
    /// Total GPUs available.
    pub gpus: u32,
    /// Single-GPU sustained training rate, FLOP/s (shared by all shards).
    pub sustained_flops_per_gpu: f64,
}

impl HybridPlanner {
    /// A planner for `nodes` Summit nodes at a given sustained rate.
    pub fn summit(nodes: u32, sustained_flops_per_gpu: f64) -> Self {
        let node = NodeSpec::summit();
        HybridPlanner {
            node,
            gpus: nodes * node.gpus_per_node,
            sustained_flops_per_gpu,
        }
    }

    /// Estimate a strategy for a workload, or `None` if it does not fit
    /// memory or exceeds the GPU budget.
    pub fn estimate(&self, w: &Workload, strategy: ParallelStrategy) -> Option<StrategyEstimate> {
        if strategy.gpus() > self.gpus || strategy.gpus() == 0 {
            return None;
        }
        if strategy.tensor > self.node.gpus_per_node {
            return None; // tensor parallelism must stay on NVLink
        }
        let mem = MemoryModel::for_workload(w);
        let micro_batch = mem.max_micro_batch(&strategy, self.node.gpu.hbm_bytes)?;
        // Cap the micro-batch at the workload's reference batch: growing it
        // further does not speed up a fixed-epoch budget.
        let micro_batch = micro_batch.min(w.per_gpu_batch.max(1));

        // Compute time per micro-batch on one model shard.
        let shard_flops = w.flops_per_sample / f64::from(strategy.tensor * strategy.pipeline);
        let t_compute = f64::from(micro_batch) * shard_flops / self.sustained_flops_per_gpu;

        // Tensor-parallel activation allreduce per micro-batch: two
        // allreduces of the activations per (conceptual) layer group,
        // modelled as one aggregate exchange of the activation volume over
        // NVLink.
        let t_tp = if strategy.tensor > 1 {
            let act_bytes = mem.activation_bytes_per_sample * f64::from(micro_batch)
                / f64::from(strategy.tensor);
            let tp = f64::from(strategy.tensor);
            2.0 * (tp - 1.0) / tp * act_bytes / self.node.nvlink_bw
        } else {
            0.0
        };

        // Pipeline bubble stretches the step.
        let mb = f64::from(strategy.micro_batches.max(1));
        let t_stage = (t_compute + t_tp) * mb;
        let t_pipeline = t_stage / (1.0 - strategy.bubble_fraction());

        // Data-parallel gradient allreduce over the sharded message.
        let t_dp = if strategy.data > 1 {
            let msg = w.gradient_message_bytes() / f64::from(strategy.tensor * strategy.pipeline);
            let d = f64::from(strategy.data);
            2.0 * (d - 1.0) / d * msg / self.node.injection_bw
        } else {
            0.0
        };

        let t_step = t_pipeline + t_dp;
        let samples_per_step = f64::from(micro_batch) * mb * f64::from(strategy.data);
        let ideal = f64::from(micro_batch) * mb * f64::from(strategy.data) / (t_compute * mb);
        let throughput = samples_per_step / t_step;
        Some(StrategyEstimate {
            strategy,
            micro_batch,
            throughput,
            overhead_fraction: 1.0 - (throughput / ideal).min(1.0),
        })
    }

    /// Search all feasible strategies and return the best by throughput.
    /// Tensor ways are drawn from the divisors of a node (1, 2, 3, 6);
    /// pipeline depths are powers of two up to 64; micro-batch count is
    /// fixed at 8 per flush.
    pub fn best(&self, w: &Workload) -> Option<StrategyEstimate> {
        let mut best: Option<StrategyEstimate> = None;
        for &tensor in &[1u32, 2, 3, 6] {
            for pipeline in [1u32, 2, 4, 8, 16, 32, 64] {
                let ways = tensor * pipeline;
                if ways > self.gpus {
                    continue;
                }
                let data = self.gpus / ways;
                if data == 0 {
                    continue;
                }
                let strategy = ParallelStrategy {
                    data,
                    tensor,
                    pipeline,
                    micro_batches: 8,
                };
                if let Some(est) = self.estimate(w, strategy) {
                    if best.is_none_or(|b| est.throughput > b.throughput) {
                        best = Some(est);
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_workloads::zoo::Workload;

    fn planner(nodes: u32) -> HybridPlanner {
        HybridPlanner::summit(nodes, 30.0e12)
    }

    #[test]
    fn bert_large_fits_pure_data_parallel() {
        let w = Workload::bert_large();
        let p = planner(64);
        let est = p
            .estimate(&w, ParallelStrategy::pure_data(p.gpus))
            .expect("BERT-large fits one V100 with Adam state");
        assert!(est.micro_batch >= 1);
        // And the planner agrees pure DP (or near) is fine at this size.
        let best = p.best(&w).expect("feasible");
        assert!(best.throughput >= est.throughput);
    }

    #[test]
    fn ten_billion_params_need_model_parallelism() {
        let w = Workload::transformer_lm("GPT-10B", 10.0e9);
        let p = planner(256);
        // Pure data parallelism cannot hold 10B × 16 B = 160 GB on 16 GB.
        assert!(p
            .estimate(&w, ParallelStrategy::pure_data(p.gpus))
            .is_none());
        let best = p.best(&w).expect("hybrid strategy exists");
        // 10B × 16 B/param = 160 GB of state needs ≥10 model-parallel ways
        // on 16 GB V100s.
        assert!(
            best.strategy.tensor * best.strategy.pipeline >= 10,
            "model ways {}x{}",
            best.strategy.tensor,
            best.strategy.pipeline
        );
    }

    #[test]
    fn trillion_params_force_deep_pipelines() {
        // "transformer-based language models have scaled past the trillion
        // parameter mark and require tightly integrated HPC systems of
        // similar scale" — on V100s, 1T params (16 TB of state) needs ≥1000
        // model-parallel ways; with tensor ≤ 6 that forces pipeline > 64,
        // beyond our planner's range on Summit-class nodes.
        let w = Workload::transformer_lm("GPT-1T", 1.0e12);
        let p = planner(4608);
        // Even a full node (6-way tensor parallel) cannot hold a shard
        // without a deep pipeline:
        let node_only = ParallelStrategy {
            data: 1,
            tensor: 6,
            pipeline: 1,
            micro_batches: 1,
        };
        let mem = MemoryModel::for_workload(&w);
        assert!(!mem.fits(&node_only, 1, p.node.gpu.hbm_bytes));
        // A 6 × 256 decomposition (1536 model ways) does fit.
        let deep = ParallelStrategy {
            data: 1,
            tensor: 6,
            pipeline: 256,
            micro_batches: 8,
        };
        assert!(mem.fits(&deep, 1, p.node.gpu.hbm_bytes));
    }

    #[test]
    fn bubble_fraction_shrinks_with_micro_batches() {
        let mut s = ParallelStrategy {
            data: 1,
            tensor: 1,
            pipeline: 8,
            micro_batches: 1,
        };
        let b1 = s.bubble_fraction();
        s.micro_batches = 32;
        let b32 = s.bubble_fraction();
        assert!(b1 > 0.8 && b32 < 0.2, "{b1} vs {b32}");
        s.pipeline = 1;
        assert_eq!(s.bubble_fraction(), 0.0);
    }

    #[test]
    fn memory_shards_with_model_ways() {
        let w = Workload::bert_large();
        let mem = MemoryModel::for_workload(&w);
        let pure = ParallelStrategy::pure_data(8);
        let sharded = ParallelStrategy {
            data: 2,
            tensor: 2,
            pipeline: 2,
            micro_batches: 4,
        };
        assert!(mem.bytes_per_gpu(&sharded, 1) < mem.bytes_per_gpu(&pure, 1));
        // 4× model ways → ~4× less state.
        let ratio = mem.bytes_per_gpu(&pure, 1) / mem.bytes_per_gpu(&sharded, 1);
        assert!(ratio > 3.0 && ratio <= 4.001, "ratio {ratio}");
    }

    #[test]
    fn planner_respects_gpu_budget() {
        let w = Workload::resnet50();
        let p = planner(4);
        let best = p.best(&w).expect("feasible");
        assert!(best.strategy.gpus() <= p.gpus);
    }

    #[test]
    fn hybrid_beats_infeasible_but_also_helps_throughput() {
        // For a model right at the memory edge, sharding state frees room
        // for larger micro-batches and can win on throughput too.
        let w = Workload::transformer_lm("GPT-3B", 3.0e9);
        let p = planner(128);
        let best = p.best(&w).expect("feasible");
        let pure = p.estimate(&w, ParallelStrategy::pure_data(p.gpus));
        match pure {
            None => assert!(best.strategy.tensor * best.strategy.pipeline > 1),
            Some(pure) => assert!(best.throughput >= pure.throughput),
        }
    }

    #[test]
    fn optimizer_footprints_ordered() {
        assert!(
            OptimizerFootprint::Sgd.bytes_per_param()
                < OptimizerFootprint::Momentum.bytes_per_param()
        );
        assert!(
            OptimizerFootprint::Momentum.bytes_per_param()
                < OptimizerFootprint::Adam.bytes_per_param()
        );
    }
}
