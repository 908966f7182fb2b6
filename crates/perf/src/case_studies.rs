//! The paper's Section IV-B extreme-scale case studies, calibrated.
//!
//! Each case study pairs a workload from the zoo with a [`ScalingModel`]
//! whose free parameters (communication overlap, per-step software and I/O
//! overhead coefficients) are **fixed constants chosen once** to reproduce
//! the numbers the paper reports, with the physical terms (compute time,
//! allreduce bandwidth, filesystem bandwidth) coming straight from the
//! workload and machine models. The constants and the sentence they
//! calibrate against are documented on each constructor; regression tests
//! pin the predictions to the reported values.

use serde::Serialize;
use summit_workloads::Workload;

use crate::model::{IoMode, ScalingModel};

/// Compute/communication overlap fraction measured on this repo's own
/// data-parallel trainer: `1 − exposed_overlap / comm_serial` from the
/// serial-vs-overlapped trainer sweep PR 2 recorded (MlpSpec(64,[256;4],4),
/// ~0.97 MB of fp32 gradients, p = 4 thread ranks, 256 KB fusion buckets,
/// best of 3 trials; `benchmark/`'s `comm.exposed_share` is the live
/// measurement). The overlapped trainer launches each fusion bucket's
/// nonblocking ring allreduce as backpropagation finishes the bucket's
/// layers, so this is executed overlap, not a model parameter.
///
/// It anchors the Laanait calibration below: their "novel optimizations for
/// gradient reduction" are modelled as `overlap: 0.5`, and a generic
/// bucket-overlap implementation with no workload tuning already hides
/// ~0.19 of communication — the calibrated value sits plausibly above what
/// the naive mechanism achieves, rather than being a free fudge factor.
pub const MEASURED_TRAINER_OVERLAP: f64 = 0.19;

/// One Section IV-B case study.
#[derive(Debug, Clone, Serialize)]
pub struct CaseStudy {
    /// Project name as cited in the paper.
    pub name: &'static str,
    /// The paper sentence(s) this case reproduces.
    pub reference: &'static str,
    /// Calibrated scaling model.
    pub model: ScalingModel,
    /// Node count of the reported run.
    pub nodes: u32,
    /// Base node count the reported efficiency is relative to.
    pub base_nodes: u32,
    /// Reported parallel efficiency, if the paper gives one.
    pub reported_efficiency: Option<f64>,
    /// Reported sustained/peak FLOP rate, if the paper gives one.
    pub reported_flops: Option<f64>,
}

/// Model prediction next to the reported figure.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CaseStudyResult {
    /// Case study name.
    pub name: &'static str,
    /// Nodes evaluated.
    pub nodes: u32,
    /// Predicted parallel efficiency.
    pub predicted_efficiency: f64,
    /// Reported efficiency (if any).
    pub reported_efficiency: Option<f64>,
    /// Predicted sustained FLOP rate.
    pub predicted_flops: f64,
    /// Reported FLOP rate (if any).
    pub reported_flops: Option<f64>,
}

impl CaseStudy {
    /// Kurth et al. (GB/2018): climate segmentation with modified
    /// DeepLabv3+, LARC, gradient lag, fp16 gradients, NVMe-staged input.
    /// Paper: "Scaling to 4560 nodes results in peak 1.13 mixed precision
    /// Exaflops and parallel efficiency of 90.7%."
    ///
    /// Calibration: overlap 0 (gradient lag already accounted in the
    /// bandwidth-only comm term), software overhead 0.277 ms·ln(n).
    pub fn kurth() -> Self {
        CaseStudy {
            name: "Kurth et al. climate (DeepLabv3+)",
            reference: "4,560 nodes, 1.13 EF peak, 90.7% parallel efficiency",
            model: ScalingModel {
                overlap: 0.0,
                overhead_per_ln_node: 2.77e-4,
                io: IoMode::LocalNvme,
                ..ScalingModel::summit_defaults(Workload::deeplabv3plus())
            },
            nodes: 4560,
            base_nodes: 1,
            reported_efficiency: Some(0.907),
            reported_flops: Some(1.13e18),
        }
    }

    /// Yang et al.: physics-informed GAN for stochastic PDEs.
    /// Paper: "over 1.2 mixed precision Exaflops performance on 4584 Summit
    /// nodes at 93% efficiency."
    ///
    /// Calibration: the GAN's model-parallel coordination appears as a
    /// 0.76 ms·ln(n) per-step overhead.
    pub fn yang() -> Self {
        CaseStudy {
            name: "Yang et al. PI-GAN (subsurface flow)",
            reference: "4,584 nodes, >1.2 EF, 93% efficiency",
            model: ScalingModel {
                overlap: 0.0,
                overhead_per_ln_node: 7.6e-4,
                ..ScalingModel::summit_defaults(Workload::pi_gan())
            },
            nodes: 4584,
            base_nodes: 1,
            reported_efficiency: Some(0.93),
            reported_flops: Some(1.2e18),
        }
    }

    /// Laanait et al.: FC-DenseNet for electron-microscopy inversion.
    /// Paper: "global batch size 27,600 ... scalability to 4600 nodes and
    /// peak 2.15 mixed precision ExaFlops."
    ///
    /// Calibration: their "novel optimizations for gradient reduction" are
    /// modelled as 50% compute/communication overlap.
    pub fn laanait() -> Self {
        CaseStudy {
            name: "Laanait et al. microscopy (FC-DenseNet)",
            reference: "4,600 nodes, 2.15 EF peak, global batch 27,600",
            model: ScalingModel {
                overlap: 0.5,
                ..ScalingModel::summit_defaults(Workload::fc_densenet())
            },
            nodes: 4600,
            base_nodes: 1,
            reported_efficiency: None,
            reported_flops: Some(2.15e18),
        }
    }

    /// Khan et al.: WaveNet for black-hole merger parameters with LAMB.
    /// Paper: "achieving 80% scaling efficiency from 8 to 1024 nodes."
    ///
    /// Calibration: full α–β model (latency exposed at scale) plus
    /// 1.056 ms·ln(n) software overhead (LAMB bookkeeping, input pipeline).
    pub fn khan() -> Self {
        CaseStudy {
            name: "Khan et al. black holes (WaveNet)",
            reference: "80% scaling efficiency from 8 to 1,024 nodes (LAMB)",
            model: ScalingModel {
                overlap: 0.0,
                include_latency: true,
                overhead_per_ln_node: 1.056e-3,
                ..ScalingModel::summit_defaults(Workload::wavenet_gw())
            },
            nodes: 1024,
            base_nodes: 8,
            reported_efficiency: Some(0.80),
            reported_flops: None,
        }
    }

    /// Blanchard et al. (GB/2021 COVID): BERT on SMILES with LAMB, gradient
    /// accumulation, global batch 5.8 M. Paper: "Parallel scaling from 1 to
    /// 4032 nodes is 68%; without I/O costs the figure is 83.3%. Peak
    /// performance is 603 mixed precision PF at 4032 nodes."
    ///
    /// Calibration: 13.19 ms·ln(n) software overhead and 35.4 ms·ln(n) I/O
    /// overhead (tokenized-shard loading and checkpointing; the raw SMILES
    /// byte demand itself is tiny).
    pub fn blanchard() -> Self {
        CaseStudy {
            name: "Blanchard et al. drug LM (BERT-SMILES)",
            reference: "1→4,032 nodes 68% (83.3% w/o I/O), 603 PF peak",
            model: ScalingModel {
                overlap: 0.0,
                overhead_per_ln_node: 1.319e-2,
                io: IoMode::SharedFs,
                io_overhead_per_ln_node: 3.543e-2,
                ..ScalingModel::summit_defaults(Workload::bert_smiles())
            },
            nodes: 4032,
            base_nodes: 1,
            reported_efficiency: Some(0.68),
            reported_flops: Some(603.0e15),
        }
    }

    /// The Blanchard case with I/O costs removed — the paper's "without I/O
    /// costs the figure is 83.3%".
    pub fn blanchard_no_io() -> Self {
        let mut cs = CaseStudy::blanchard();
        cs.name = "Blanchard et al. drug LM (no I/O)";
        cs.reference = "1→4,032 nodes, 83.3% without I/O costs";
        cs.model.io = IoMode::InMemory;
        cs.model.io_overhead_per_ln_node = 0.0;
        cs.reported_efficiency = Some(0.833);
        cs.reported_flops = None;
        cs
    }

    /// All five case studies (plus the Blanchard no-I/O variant).
    pub fn all() -> Vec<CaseStudy> {
        vec![
            CaseStudy::kurth(),
            CaseStudy::yang(),
            CaseStudy::laanait(),
            CaseStudy::khan(),
            CaseStudy::blanchard(),
            CaseStudy::blanchard_no_io(),
        ]
    }

    /// Evaluate the model at the reported scale.
    pub fn evaluate(&self) -> CaseStudyResult {
        CaseStudyResult {
            name: self.name,
            nodes: self.nodes,
            predicted_efficiency: self.model.efficiency(self.nodes, self.base_nodes),
            reported_efficiency: self.reported_efficiency,
            predicted_flops: self.model.sustained_flops(self.nodes),
            reported_flops: self.reported_flops,
        }
    }

    /// Efficiency curve over a node sweep (powers of two up to the case's
    /// node count, then the exact reported count).
    pub fn efficiency_curve(&self) -> Vec<(u32, f64)> {
        let mut nodes = Vec::new();
        let mut n = self.base_nodes;
        while n < self.nodes {
            nodes.push(n);
            n = n.saturating_mul(2);
        }
        nodes.push(self.nodes);
        nodes
            .into_iter()
            .map(|n| (n, self.model.efficiency(n, self.base_nodes)))
            .collect()
    }
}

/// Render all case studies as an aligned ASCII table (the Section IV-B
/// reproduction artifact printed by the `repro` binary).
pub fn render_table(results: &[CaseStudyResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<42} {:>6} {:>10} {:>10} {:>12} {:>12}\n",
        "case study", "nodes", "eff(pred)", "eff(paper)", "PF(pred)", "PF(paper)"
    ));
    for r in results {
        let eff_rep = r
            .reported_efficiency
            .map_or("-".to_string(), |e| format!("{:.1}%", e * 100.0));
        let f_rep = r
            .reported_flops
            .map_or("-".to_string(), |f| format!("{:.0}", f / 1e15));
        out.push_str(&format!(
            "{:<42} {:>6} {:>9.1}% {:>10} {:>12.0} {:>12}\n",
            r.name,
            r.nodes,
            r.predicted_efficiency * 100.0,
            eff_rep,
            r.predicted_flops / 1e15,
            f_rep
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64, rel_tol: f64, what: &str) {
        assert!(
            (got - want).abs() / want.abs() < rel_tol,
            "{what}: got {got}, want {want} (tol {rel_tol})"
        );
    }

    #[test]
    fn kurth_matches_paper() {
        let r = CaseStudy::kurth().evaluate();
        assert_close(r.predicted_efficiency, 0.907, 0.02, "Kurth efficiency");
        assert_close(r.predicted_flops, 1.13e18, 0.10, "Kurth sustained EF");
    }

    #[test]
    fn yang_matches_paper() {
        let r = CaseStudy::yang().evaluate();
        assert_close(r.predicted_efficiency, 0.93, 0.02, "Yang efficiency");
        assert!(
            r.predicted_flops > 1.15e18,
            "Yang should exceed ~1.2 EF, got {}",
            r.predicted_flops
        );
    }

    #[test]
    fn laanait_matches_paper() {
        let r = CaseStudy::laanait().evaluate();
        assert_close(r.predicted_flops, 2.15e18, 0.08, "Laanait peak EF");
        // Global batch is 1 per GPU × 27,600 GPUs.
        let cs = CaseStudy::laanait();
        let global = u64::from(cs.model.workload.per_gpu_batch) * cs.model.gpus(cs.nodes);
        assert_eq!(global, 27_600);
    }

    #[test]
    fn khan_matches_paper() {
        let r = CaseStudy::khan().evaluate();
        assert_close(r.predicted_efficiency, 0.80, 0.03, "Khan efficiency");
    }

    #[test]
    fn blanchard_matches_paper() {
        let with_io = CaseStudy::blanchard().evaluate();
        assert_close(
            with_io.predicted_efficiency,
            0.68,
            0.03,
            "Blanchard eff w/ I/O",
        );
        let no_io = CaseStudy::blanchard_no_io().evaluate();
        assert_close(
            no_io.predicted_efficiency,
            0.833,
            0.03,
            "Blanchard eff w/o I/O",
        );
        assert_close(with_io.predicted_flops, 603.0e15, 0.25, "Blanchard PF");
        // Global batch 5.8 M.
        let cs = CaseStudy::blanchard();
        let global = u64::from(cs.model.workload.per_gpu_batch) * cs.model.gpus(cs.nodes);
        assert_close(global as f64, 5.8e6, 0.01, "Blanchard global batch");
    }

    #[test]
    fn io_costs_explain_the_gap() {
        // The whole point of the with/without-I/O pair: removing I/O must
        // recover the efficiency gap the paper attributes to it.
        let with_io = CaseStudy::blanchard().evaluate().predicted_efficiency;
        let no_io = CaseStudy::blanchard_no_io().evaluate().predicted_efficiency;
        assert!(
            no_io - with_io > 0.10,
            "I/O gap too small: {with_io} vs {no_io}"
        );
    }

    #[test]
    fn efficiency_curves_monotone_nonincreasing() {
        for cs in CaseStudy::all() {
            let curve = cs.efficiency_curve();
            for w in curve.windows(2) {
                assert!(
                    w[1].1 <= w[0].1 + 1e-9,
                    "{}: efficiency rose from {:?} to {:?}",
                    cs.name,
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn table_renders_every_case() {
        let results: Vec<CaseStudyResult> =
            CaseStudy::all().iter().map(CaseStudy::evaluate).collect();
        let table = render_table(&results);
        for cs in CaseStudy::all() {
            assert!(table.contains(cs.name.split(' ').next().unwrap()));
        }
        assert!(table.contains("eff(pred)"));
    }

    #[test]
    fn measured_overlap_anchors_laanait_calibration() {
        // The trainer's executed overlap is real (> 0) and below the 0.5
        // calibrated for Laanait's hand-tuned gradient-reduction pipeline:
        // the calibration claims more overlap than the generic mechanism,
        // never less.
        let laanait = CaseStudy::laanait();
        assert!(
            MEASURED_TRAINER_OVERLAP > 0.0 && MEASURED_TRAINER_OVERLAP < laanait.model.overlap,
            "calibrated overlap {} must exceed the measured generic overlap {}",
            laanait.model.overlap,
            MEASURED_TRAINER_OVERLAP
        );
    }

    #[test]
    fn calibration_is_physical() {
        // Calibrated overheads must stay small relative to compute: they are
        // corrections, not the dominant term.
        for cs in CaseStudy::all() {
            let s = cs.model.step(cs.nodes);
            assert!(
                s.overhead < 0.5 * s.compute,
                "{}: overhead {} vs compute {}",
                cs.name,
                s.overhead,
                s.compute
            );
        }
    }
}
