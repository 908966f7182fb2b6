//! The model zoo.

use serde::Serialize;
use summit_io::DatasetSpec;

use crate::GradPrecision;

/// A deep-learning training workload, described quantitatively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Workload {
    /// Model/workload name.
    pub name: &'static str,
    /// Trainable parameter count.
    pub params: f64,
    /// Training FLOPs per sample (forward + backward).
    pub flops_per_sample: f64,
    /// Bytes read per training sample.
    pub sample_bytes: f64,
    /// Per-GPU micro-batch size.
    pub per_gpu_batch: u32,
    /// Sustained single-GPU training throughput on in-memory data,
    /// samples/s (the quantity the paper's VI-B estimate starts from).
    pub samples_per_sec_per_gpu: f64,
    /// Gradient allreduce precision.
    pub grad_precision: GradPrecision,
    /// The training dataset.
    pub dataset: DatasetSpec,
}

impl Workload {
    /// Every workload in the zoo, for sweeps.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload::resnet50(),
            Workload::bert_large(),
            Workload::deeplabv3plus(),
            Workload::tiramisu(),
            Workload::fc_densenet(),
            Workload::pi_gan(),
            Workload::wavenet_gw(),
            Workload::bert_smiles(),
            Workload::deepmd(),
        ]
    }

    /// ResNet50 on ImageNet — Section VI-B's reference CNN. 25.6 M params
    /// (≈100 MB fp32 gradient message). Throughput 2,900 samples/s/GPU is
    /// the synthetic-data upper bound chosen so the full-Summit demand is
    /// the paper's ≈20 TB/s (see DESIGN.md fidelity notes); production
    /// throughput is roughly half that.
    pub fn resnet50() -> Self {
        Workload {
            name: "ResNet50/ImageNet",
            params: 25.6e6,
            flops_per_sample: 2.34e10, // ≈3× the 7.8 GF forward pass
            sample_bytes: 250.0e3,
            per_gpu_batch: 192,
            samples_per_sec_per_gpu: 2900.0,
            grad_precision: GradPrecision::Fp32,
            dataset: DatasetSpec::imagenet(),
        }
    }

    /// BERT-large pretraining — Section VI-B's reference transformer.
    /// 345 M params (≈1.4 GB fp32 gradient message). The per-GPU batch and
    /// rate are set so one batch's forward+backward takes ≈110 ms, which the
    /// paper says matches the allreduce time ("hard to hide").
    pub fn bert_large() -> Self {
        Workload {
            name: "BERT-large",
            params: 345.0e6,
            flops_per_sample: 4.6e11, // seq len 512
            sample_bytes: 2.0e3,      // tokenized 512-token record
            per_gpu_batch: 8,
            samples_per_sec_per_gpu: 72.0,
            grad_precision: GradPrecision::Fp32,
            dataset: DatasetSpec::new("wiki+books corpus", 40_000_000, 2.0e3),
        }
    }

    /// Modified DeepLabv3+ climate segmentation (Kurth et al., GB/2018).
    /// 1.13 EF peak at 4,560 nodes → ≈41 TF/GPU achieved; single-GPU rate
    /// back-derived using the reported 90.7% parallel efficiency. fp16
    /// gradients with LARC and gradient lag.
    pub fn deeplabv3plus() -> Self {
        Workload {
            name: "DeepLabv3+ climate",
            params: 43.6e6,
            flops_per_sample: 2.0e12,     // 1152×768×16-channel segmentation
            sample_bytes: 317.0e6 / 22.0, // dataset bytes per cropped sample
            per_gpu_batch: 2,
            samples_per_sec_per_gpu: 22.8, // 45.5 TF/GPU single-GPU rate
            grad_precision: GradPrecision::Fp16,
            dataset: DatasetSpec::climate_extreme_weather(),
        }
    }

    /// Modified Tiramisu climate segmentation (Kurth et al.'s second
    /// network) — smaller and denser than DeepLabv3+.
    fn tiramisu() -> Self {
        Workload {
            name: "Tiramisu climate",
            params: 9.4e6,
            flops_per_sample: 1.1e12,
            sample_bytes: 317.0e6 / 22.0,
            per_gpu_batch: 2,
            samples_per_sec_per_gpu: 35.0,
            grad_precision: GradPrecision::Fp16,
            dataset: DatasetSpec::climate_extreme_weather(),
        }
    }

    /// FC-DenseNet for electron-microscopy inverse problems (Laanait et
    /// al.): 2.15 EF peak at 4,600 nodes → ≈78 TF/GPU; global batch 27,600
    /// = 1 sample per GPU; very large samples, heavy gradient-reduction
    /// optimizations (fp16 gradients).
    pub fn fc_densenet() -> Self {
        Workload {
            name: "FC-DenseNet microscopy",
            params: 220.0e6,
            flops_per_sample: 7.8e12,
            sample_bytes: 25.0e6,
            per_gpu_batch: 1,
            samples_per_sec_per_gpu: 10.4, // ≈81 TF/GPU single-GPU
            grad_precision: GradPrecision::Fp16,
            dataset: DatasetSpec::microscopy_diffraction(),
        }
    }

    /// Physics-informed GAN for stochastic PDEs (Yang et al.): >1.2 EF on
    /// 4,584 nodes at 93% efficiency; small network, huge sample rate, and
    /// a model-parallel scheme that keeps the data-parallel message small.
    pub fn pi_gan() -> Self {
        Workload {
            name: "PI-GAN subsurface",
            params: 5.6e6,
            flops_per_sample: 4.5e9,
            sample_bytes: 8.0e3,
            per_gpu_batch: 1024,
            samples_per_sec_per_gpu: 10600.0, // ≈47 TF/GPU single-GPU
            grad_precision: GradPrecision::Fp16,
            dataset: DatasetSpec::new("stochastic PDE realizations", 120_000_000, 8.0e3),
        }
    }

    /// Modified WaveNet for gravitational-wave parameter inference (Khan et
    /// al.): LAMB optimizer, 80% scaling efficiency from 8 to 1,024 nodes.
    pub fn wavenet_gw() -> Self {
        Workload {
            name: "WaveNet black-hole mergers",
            params: 23.0e6,
            flops_per_sample: 1.2e10,
            sample_bytes: 32.0e3, // 1-second strain series
            per_gpu_batch: 64,
            samples_per_sec_per_gpu: 2600.0,
            grad_precision: GradPrecision::Fp32,
            dataset: DatasetSpec::new("simulated BBH waveforms", 12_000_000, 32.0e3),
        }
    }

    /// BERT pretrained on SMILES compounds (Blanchard et al., GB/2021
    /// COVID): 603 PF at 4,032 nodes → ≈25 TF/GPU achieved; LAMB with
    /// gradient accumulation to a 5.8 M global batch; 68% scaling 1→4,032
    /// nodes (83.3% without I/O).
    pub fn bert_smiles() -> Self {
        Workload {
            name: "BERT-SMILES drug LM",
            params: 340.0e6,
            flops_per_sample: 1.3e11, // short SMILES sequences
            sample_bytes: 60.0,
            per_gpu_batch: 240,
            samples_per_sec_per_gpu: 230.0, // ≈30 TF/GPU single-GPU
            grad_precision: GradPrecision::Fp32,
            dataset: DatasetSpec::smiles_compounds(),
        }
    }

    /// DeePMD machine-learned molecular-dynamics potential (Jia et al.,
    /// GB/2020 winner): a tiny network evaluated at enormous rate inside an
    /// MD loop; training is small-scale, inference dominates.
    fn deepmd() -> Self {
        Workload {
            name: "DeePMD water/copper potential",
            params: 840.0e3,
            flops_per_sample: 4.0e7, // per-atom descriptor + net
            sample_bytes: 1.2e3,
            per_gpu_batch: 4096,
            samples_per_sec_per_gpu: 450_000.0,
            grad_precision: GradPrecision::Fp32,
            dataset: DatasetSpec::new("DFT training configurations", 30_000_000, 1.2e3),
        }
    }

    /// A generic decoder-style transformer language model of `params`
    /// parameters at sequence length 1,024 — the "growing the model size to
    /// improve accuracy" trajectory the paper expects to continue (Section
    /// IV-B and its reference 35). Training FLOPs follow the 6·params·tokens rule;
    /// sustained rate is a V100-realistic 30 TF/GPU; used by the model-
    /// parallelism planner for beyond-BERT what-if analyses.
    ///
    /// # Panics
    /// Panics if `params` is not positive.
    pub fn transformer_lm(name: &'static str, params: f64) -> Self {
        assert!(params > 0.0, "parameter count must be positive");
        let tokens_per_sample = 1024.0;
        let flops_per_sample = 6.0 * params * tokens_per_sample;
        let sustained = 30.0e12;
        Workload {
            name,
            params,
            flops_per_sample,
            sample_bytes: 4.0 * tokens_per_sample,
            per_gpu_batch: 8,
            samples_per_sec_per_gpu: sustained / flops_per_sample,
            grad_precision: GradPrecision::Fp32,
            dataset: DatasetSpec::new("generic LM corpus", 1_000_000_000, 4.0 * 1024.0),
        }
    }

    /// Bytes of the per-device gradient allreduce message.
    pub fn gradient_message_bytes(&self) -> f64 {
        self.params * self.grad_precision.bytes()
    }

    /// Sustained single-GPU training rate in FLOP/s.
    pub fn sustained_flops_per_gpu(&self) -> f64 {
        self.samples_per_sec_per_gpu * self.flops_per_sample
    }

    /// Time for one micro-batch forward+backward on one GPU, seconds.
    pub fn step_compute_seconds(&self) -> f64 {
        f64::from(self.per_gpu_batch) / self.samples_per_sec_per_gpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gradient_message_sizes() {
        // "the per device allreduce message size for the ResNet50 and
        // BERT-large models is about 100MB and 1.4 GB, respectively"
        let resnet = Workload::resnet50().gradient_message_bytes();
        assert!((resnet - 100.0e6).abs() / 100.0e6 < 0.05, "got {resnet}");
        let bert = Workload::bert_large().gradient_message_bytes();
        assert!((bert - 1.4e9).abs() / 1.4e9 < 0.05, "got {bert}");
    }

    #[test]
    fn bert_step_time_matches_paper_comm_comparison() {
        // Paper: the 110 ms BERT-large allreduce "is close to the time of
        // per-batch forward and backward propagation".
        let t = Workload::bert_large().step_compute_seconds();
        assert!((t - 0.110).abs() / 0.110 < 0.05, "got {t}");
    }

    #[test]
    fn resnet50_demand_matches_io_crate() {
        let w = Workload::resnet50();
        // 2900 samples/s × 250 KB = 725 MB/s per GPU; × 27,648 ≈ 20 TB/s.
        let total = w.samples_per_sec_per_gpu * w.sample_bytes * 27_648.0;
        assert!((total - 20.0e12).abs() / 20.0e12 < 0.05, "got {total}");
    }

    #[test]
    fn sustained_rates_below_v100_peak() {
        // No workload may claim more than the V100's 125 TF mixed peak.
        for w in Workload::all() {
            let rate = w.sustained_flops_per_gpu();
            assert!(
                rate < 125.0e12,
                "{} claims {rate} FLOP/s > V100 peak",
                w.name
            );
            assert!(rate > 1.0e11, "{} implausibly slow: {rate}", w.name);
        }
    }

    #[test]
    fn laanait_and_kurth_rates_match_reported_aggregates() {
        // Laanait: 2.15 EF over 4,600 nodes × 6 GPUs ≈ 78 TF/GPU achieved;
        // our single-GPU rate must be ≥ that (efficiency ≤ 1).
        let fcd = Workload::fc_densenet().sustained_flops_per_gpu();
        assert!(fcd >= 2.15e18 / (4600.0 * 6.0));
        // Kurth: 1.13 EF over 4,560 × 6 ≈ 41.3 TF/GPU achieved at 90.7%
        // efficiency → single GPU ≈ 45.5 TF.
        let dlv3 = Workload::deeplabv3plus().sustained_flops_per_gpu();
        let achieved = 1.13e18 / (4560.0 * 6.0);
        assert!(dlv3 >= achieved && dlv3 <= achieved / 0.85);
    }

    #[test]
    fn zoo_names_unique() {
        let all = Workload::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn blanchard_global_batch_reachable_by_accumulation() {
        // 5.8 M global batch at 4,032 nodes × 6 GPUs × 240 per-GPU ≈ 5.8 M.
        let w = Workload::bert_smiles();
        let per_step = 4032.0 * 6.0 * f64::from(w.per_gpu_batch);
        assert!((per_step - 5.8e6).abs() / 5.8e6 < 0.01, "got {per_step}");
    }

    #[test]
    fn fp16_halves_message() {
        let k = Workload::deeplabv3plus();
        assert!((k.gradient_message_bytes() - k.params * 2.0).abs() < 1.0);
    }
}
