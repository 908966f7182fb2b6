//! The paper-reproduction report generator.
//!
//! One function per table/figure/analysis of the paper, each returning the
//! rendered artifact as text, plus [`full_report`] which assembles them all
//! in paper order. The `repro` binary (`src/bin/repro.rs`) is a thin CLI
//! over this module (`repro fig1`, `repro case-studies`, `repro all`, …).
//! [`ablations`] and [`crossover`] go beyond the paper: the design-choice
//! tables of EXPERIMENTS.md and the simulated allreduce-algorithm study.

use summit_comm::model::{Algorithm, CollectiveModel};
use summit_dl::compression::GradCompression;
use summit_dl::optim::{Adam, Lamb, Larc, Lars, Optimizer, Sgd};
use summit_dl::{data::blobs, model::MlpSpec, schedule::LrSchedule, trainer::Trainer};
use summit_io::dataset::{DatasetSpec, ShardPlan};
use summit_io::requirements::resnet50_full_summit_demand;
use summit_io::shuffle::ShuffleStrategy;
use summit_io::staging::{StagingMode, StagingPlan};
use summit_io::tier::StorageTier;
use summit_machine::spec::{MachineSpec, NodeSpec};
use summit_machine::LinkModel;
use summit_modsim::submodel::ReactionSurrogate;
use summit_perf::case_studies::{render_table, CaseStudy, CaseStudyResult};
use summit_perf::crossover::{AlgorithmCrossoverStudy, CommCrossover};
use summit_perf::model::ScalingModel;
use summit_perf::parallelism::{HybridPlanner, ParallelStrategy};
use summit_perf::roofline::{Kernel, Roofline};
use summit_survey::{analytics, gordon_bell, portfolio, taxonomy::Motif};
use summit_workflow::campaign::{run_campaign, CampaignConfig, CompoundLibrary};
use summit_workloads::{GradPrecision, Workload};

/// Table I: the AI motif taxonomy.
pub fn table1() -> String {
    let mut out = String::from("TABLE I. SCIENCE APPLICATION AI MOTIFS\n");
    for m in Motif::table1_rows() {
        out.push_str(&format!(
            "* {:<18} {}\n  e.g. {}\n",
            m.name(),
            m.definition(),
            m.example()
        ));
    }
    out
}

/// Table II: science domains and subdomains.
pub fn table2() -> String {
    let mut out = String::from("TABLE II. SCIENCE DOMAINS AND SUBDOMAINS\n");
    for d in summit_survey::taxonomy::Domain::ALL {
        out.push_str(&format!("{:<18} {}\n", d.name(), d.subdomains().join(", ")));
    }
    out
}

/// Table III: Gordon Bell finalist counts.
pub fn table3() -> String {
    let mut out = String::from("TABLE III. GORDON BELL AWARD FINALIST PROJECT COUNTS\n");
    out.push_str(&gordon_bell::render_table3());
    out.push_str("\nAI/ML finalist catalog (Section IV-A):\n");
    for f in gordon_bell::ai_finalists() {
        out.push_str(&format!(
            "  {} [{}] — {} (to {} nodes)\n",
            f.citation,
            f.motif.name(),
            f.summary,
            f.max_nodes
        ));
    }
    out
}

/// Figure 1: overall AI/ML usage.
pub fn fig1() -> String {
    let records = portfolio::build();
    analytics::render_fig1(&analytics::overall_usage(&records))
}

/// Figure 2: usage by program and year.
pub fn fig2() -> String {
    let records = portfolio::build();
    analytics::render_fig2(&analytics::usage_by_program_year(&records))
}

/// Figure 3: usage by ML method.
pub fn fig3() -> String {
    let records = portfolio::build();
    analytics::render_fig3(&analytics::usage_by_method(&records))
}

/// Figure 4: usage by science domain.
pub fn fig4() -> String {
    let records = portfolio::build();
    analytics::render_fig4(&analytics::usage_by_domain(&records))
}

/// Figure 5: usage by AI motif.
pub fn fig5() -> String {
    let records = portfolio::build();
    analytics::render_fig5(&analytics::usage_by_motif(&records))
}

/// Figure 6: motif × domain cross-tabulation.
pub fn fig6() -> String {
    let records = portfolio::build();
    analytics::render_fig6(&analytics::motif_by_domain(&records))
}

/// Section IV-B: the extreme-scale case-study table (model vs paper).
pub fn case_studies() -> String {
    let results: Vec<CaseStudyResult> = CaseStudy::all().iter().map(CaseStudy::evaluate).collect();
    let mut out = String::from("SECTION IV-B. AI/ML METHODS AT EXTREME SCALE\n");
    out.push_str(&render_table(&results));
    out.push_str("\nEfficiency curves (nodes: efficiency):\n");
    for cs in CaseStudy::all() {
        out.push_str(&format!("  {}\n   ", cs.name));
        for (n, e) in cs.efficiency_curve() {
            out.push_str(&format!(" {n}:{:.1}%", e * 100.0));
        }
        out.push('\n');
    }
    out
}

/// Section VI-B: the I/O requirement analysis.
pub fn io_analysis() -> String {
    let summit = MachineSpec::summit();
    let demand = resnet50_full_summit_demand();
    let gpfs = demand.feasibility(&StorageTier::shared_fs(&summit));
    let nvme = demand.feasibility(&StorageTier::node_local_nvme(&summit, summit.nodes));
    let mut out =
        String::from("SECTION VI-B. I/O CONSIDERATIONS (ResNet50/ImageNet, full Summit)\n");
    out.push_str(&format!(
        "required aggregate read bandwidth : {:6.1} TB/s (paper: ~20 TB/s)\n",
        demand.aggregate_read_bw() / 1e12
    ));
    for f in [gpfs, nvme] {
        out.push_str(&format!(
            "{:<34}: {:6.1} TB/s -> {} ({:.0}% of ideal throughput)\n",
            f.tier_name,
            f.supply_bw / 1e12,
            if f.satisfied {
                "satisfies demand"
            } else {
                "CANNOT sustain demand"
            },
            f.achievable_fraction * 100.0
        ));
    }
    out
}

/// Section VI-B: the communication analysis and crossover.
pub fn comm_analysis() -> String {
    let link = LinkModel::inter_node(&NodeSpec::summit());
    let model = CollectiveModel::new(link);
    let p = 4608;
    let mut out = String::from("SECTION VI-B. COMMUNICATION CONSIDERATIONS (ring allreduce)\n");
    out.push_str(&format!(
        "network bandwidth {:.1} GB/s; ring algorithm bandwidth {:.1} GB/s\n",
        link.beta / 1e9,
        link.beta / 2e9
    ));
    for w in [Workload::resnet50(), Workload::bert_large()] {
        let msg = w.gradient_message_bytes();
        let t = model.bandwidth_term(Algorithm::Ring, p, msg);
        out.push_str(&format!(
            "{:<18} message {:7.2} MB -> allreduce {:6.1} ms (compute/batch {:6.1} ms)\n",
            w.name,
            msg / 1e6,
            t * 1e3,
            w.step_compute_seconds() * 1e3
        ));
    }
    let x = CommCrossover::summit_bert_anchor();
    out.push_str(&format!(
        "communication-bound crossover: {:.0} M parameters (BERT-large is 345 M)\n",
        x.crossover_params() / 1e6
    ));
    out
}

/// Section VI-B outlook: "generic model parallelization is essential" —
/// the hybrid planner's verdicts for the beyond-BERT model series.
pub fn parallelism_analysis() -> String {
    let mut out = String::from(
        "SECTION VI-B OUTLOOK. MODEL PARALLELISM BEYOND BERT-LARGE
",
    );
    out.push_str(&format!(
        "{:<12} {:>14} {:>10} {:>22} {:>14}
",
        "model", "params", "fits DP?", "best (dp x tp x pp)", "samples/s"
    ));
    let planner = HybridPlanner::summit(256, 30.0e12);
    for (name, params) in [
        ("BERT-large", 0.345e9),
        ("GPT-1.5B", 1.5e9),
        ("GPT-10B", 10.0e9),
        ("GPT-100B", 100.0e9),
    ] {
        let w = Workload::transformer_lm(name, params);
        let pure = planner.estimate(&w, ParallelStrategy::pure_data(planner.gpus));
        let best = planner.best(&w);
        let (plan, tput) = match &best {
            Some(b) => (
                format!(
                    "{}x{}x{}",
                    b.strategy.data, b.strategy.tensor, b.strategy.pipeline
                ),
                format!("{:.0}", b.throughput),
            ),
            None => ("infeasible".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<12} {:>12.1}M {:>10} {:>22} {:>14}
",
            name,
            params / 1e6,
            if pure.is_some() { "yes" } else { "NO" },
            plan,
            tput
        ));
    }
    out.push_str(
        "(256 Summit nodes, 16 GB V100s, Adam state, activation checkpointing)
",
    );
    out
}

/// Section VI-B ¶1: the device-level roofline — why "these applications
/// are typically computational bound at the device level" and when not.
pub fn roofline_analysis() -> String {
    let gpu = summit_machine::spec::GpuSpec::v100();
    let r = Roofline::of_gpu(&gpu);
    let mut out = String::from(
        "SECTION VI-B. DEVICE-LEVEL ROOFLINE (V100, mixed precision)
",
    );
    out.push_str(&format!(
        "peak {:.0} TF/s, HBM {:.0} GB/s -> machine balance {:.0} FLOP/byte
",
        r.peak_flops / 1e12,
        r.mem_bw / 1e9,
        r.machine_balance()
    ));
    for kernel in [
        Kernel::matmul_fp16(64),
        Kernel::matmul_fp16(512),
        Kernel::conv3x3_fp16(64),
        Kernel::recurrent_gemv_fp16(),
        Kernel::elementwise_fp32(),
    ] {
        let p = r.evaluate(kernel);
        out.push_str(&format!(
            "{:<24} I = {:>7.1} FLOP/B -> {:>6.1} TF/s ({:>4.0}% of peak, {})
",
            p.kernel.name,
            p.kernel.arithmetic_intensity,
            p.attainable_flops / 1e12,
            p.peak_fraction * 100.0,
            if p.compute_bound {
                "compute-bound"
            } else {
                "MEMORY-bound"
            }
        ));
    }
    out.push_str(
        "(\"High floating point rates for model training requires large matrix sizes\")\n",
    );
    out
}

/// The design-choice ablations 1–8 of EXPERIMENTS.md plus experiments X3
/// and X5: every number is computed (models, simulated traffic, seeded
/// training runs), none is a wall-clock timing.
pub fn ablations() -> String {
    let mut out = String::from("ABLATIONS (EXPERIMENTS.md; computed, not timed)\n");

    out.push_str("[1] allreduce algorithm times at p=4608 (ms):\n");
    out.push_str(&format!(
        "{:>12} {:>10} {:>10} {:>10} {:>10}\n",
        "bytes", "ring", "rec-dbl", "rabenseif", "binom-tree"
    ));
    let model = CollectiveModel::new(LinkModel::inter_node(&NodeSpec::summit()));
    // 4 KB to BERT-large's 1.4 GB gradient.
    for m in [4.0e3, 1.0e6, 25.0e6, 100.0e6, 400.0e6, 1.4e9] {
        out.push_str(&format!("{m:>12.0}"));
        for a in Algorithm::ALL {
            out.push_str(&format!(
                " {:>10.3}",
                model.allreduce_time(a, 4608, m) * 1e3
            ));
        }
        out.push('\n');
    }

    out.push_str("[2] gradient precision vs comm-bound crossover:\n");
    for precision in [GradPrecision::Fp32, GradPrecision::Fp16] {
        let x = CommCrossover {
            precision,
            ..CommCrossover::summit_bert_anchor()
        };
        out.push_str(&format!(
            "  {precision:?}: crossover at {:.0} M parameters\n",
            x.crossover_params() / 1e6
        ));
    }

    out.push_str("[3] overlap fraction vs ResNet50 efficiency at 4608 nodes:\n");
    for overlap in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let m = ScalingModel {
            overlap,
            ..ScalingModel::summit_defaults(Workload::resnet50())
        };
        out.push_str(&format!(
            "  overlap {overlap:.2} -> {:.1}%\n",
            m.efficiency(4608, 1) * 100.0
        ));
    }

    out.push_str("[4] per-epoch cross-node traffic (climate dataset, 1024 nodes):\n");
    let climate = DatasetSpec::climate_extreme_weather();
    let plan = ShardPlan::partition(&climate, 1024);
    for s in ShuffleStrategy::ALL {
        out.push_str(&format!(
            "  {:<16} {:>8.2} TB/epoch\n",
            s.name(),
            s.epoch_traffic_bytes(&plan) / 1e12
        ));
    }

    out.push_str("[5] loss after 10 epochs, optimizer x batch size:\n");
    let optimizers = || -> [Box<dyn Optimizer>; 5] {
        [
            Box::new(Sgd::new(0.05, 0.9, 0.0)),
            Box::new(Adam::new(0.005, 0.0)),
            Box::new(Lars::new(1.0, 0.9, 1e-4, 0.02)),
            Box::new(Larc::new(0.5, 0.9, 1e-4, 0.02)),
            Box::new(Lamb::new(0.02, 1e-4)),
        ]
    };
    out.push_str(&format!("{:>8}", "batch"));
    for optimizer in optimizers() {
        out.push_str(&format!("{:>9}", optimizer.name()));
    }
    out.push('\n');
    let task = blobs(1024, 8, 3, 0.5, 5);
    for batch in [16usize, 128, 1024] {
        out.push_str(&format!("{batch:>8}"));
        for optimizer in optimizers() {
            let mut t = Trainer::new(
                MlpSpec::new(8, &[32], 3).build(1),
                optimizer,
                LrSchedule::LinearWarmup { warmup_steps: 10 },
            );
            let mut loss = f32::NAN;
            for _ in 0..10 {
                loss = t.train_epoch(&task.x, &task.y, batch).loss;
            }
            out.push_str(&format!("{loss:>9.3}"));
        }
        out.push('\n');
    }

    out.push_str("[6] gradient compression on a 25.6M-param message:\n");
    for (name, scheme) in [
        ("none", GradCompression::None),
        ("fp16", GradCompression::Fp16),
        ("top10%", GradCompression::TopK { fraction: 0.1 }),
        ("top1%", GradCompression::TopK { fraction: 0.01 }),
    ] {
        out.push_str(&format!(
            "  {name:<7} {:>9.1} MB/message ({:>5.1}x reduction)\n",
            scheme.message_bytes(25_600_000) / 1e6,
            scheme.reduction_factor(25_600_000)
        ));
    }

    out.push_str("[7] hybrid parallelism plans — ");
    out.push_str(&parallelism_analysis());

    let surrogate = ReactionSurrogate::train(2.0, 64, 3);
    out.push_str(&format!(
        "[8] reaction submodel: max fit error {:.4} after {} expensive calls\n",
        surrogate.max_error(2.0),
        surrogate.training_evaluations
    ));

    out.push_str("[X3] screening policies on a 2000-compound library:\n");
    let library = CompoundLibrary::generate(2000, 8, 11);
    let funnel = |batch_per_round, rounds| CampaignConfig {
        batch_per_round,
        rounds,
        k: 50,
        seed: 7,
        fit_iters: 300,
    };
    for (policy, config) in [
        ("BruteForce", funnel(library.len(), 0)),
        ("Random", funnel(400, 0)),
        ("Surrogate", funnel(200, 1)),
    ] {
        let run = run_campaign(&library, &config);
        let last = run.rounds.last().expect("round 0 always runs");
        out.push_str(&format!(
            "  {policy:<11} {:>5} expensive evals, recall@{} = {:.0}%\n",
            last.docked,
            config.k,
            last.recall_at_k * 100.0
        ));
    }

    out.push_str("[X5] staging break-even epochs by dataset (4608 nodes):\n");
    let summit = MachineSpec::summit();
    let shared = StorageTier::shared_fs(&summit);
    let nvme = StorageTier::node_local_nvme(&summit, 4608);
    for dataset in [
        DatasetSpec::imagenet(),
        climate,
        DatasetSpec::microscopy_diffraction(),
    ] {
        let plan = StagingPlan::new(&dataset, 4608, &shared, &nvme, StagingMode::Partitioned);
        out.push_str(&format!(
            "  {:<34} stage {:>7.1}s, break-even at {:?} epochs\n",
            dataset.name,
            plan.stage_seconds,
            plan.break_even_epochs(&dataset, &shared, &nvme)
        ));
    }
    out
}

/// Which allreduce algorithm wins at each (world size, message size) cell,
/// every cell simulated on Summit's links
/// ([`AlgorithmCrossoverStudy::summit`]).
pub fn crossover() -> String {
    let mut out = String::from("ALLREDUCE ALGORITHM CROSSOVER (simulated schedules, seconds)\n");
    out.push_str(&format!(
        "{:>6} {:>10} {:>11} {:>11} {:>11} {:>11}  winner\n",
        "ranks", "bytes", "ring", "rec-dbl", "rabenseif", "hierarch"
    ));
    for c in AlgorithmCrossoverStudy::summit().run() {
        out.push_str(&format!(
            "{:>6} {:>10.0} {:>11.3e} {:>11.3e} {:>11.3e} {:>11.3e}  {}\n",
            c.ranks,
            c.message_bytes,
            c.ring_seconds,
            c.recursive_doubling_seconds,
            c.rabenseifner_seconds,
            c.hierarchical_seconds,
            c.winner
        ));
    }
    out
}

/// The full paper reproduction, in paper order.
pub fn full_report() -> String {
    let sections: [(&str, String); 14] = [
        ("Table I", table1()),
        ("Table II", table2()),
        ("Figure 1", fig1()),
        ("Figure 2", fig2()),
        ("Figure 3", fig3()),
        ("Figure 4", fig4()),
        ("Figure 5", fig5()),
        ("Figure 6", fig6()),
        ("Table III", table3()),
        ("Case studies", case_studies()),
        ("I/O analysis", io_analysis()),
        ("Comm analysis", comm_analysis()),
        ("Roofline", roofline_analysis()),
        ("Parallelism outlook", parallelism_analysis()),
    ];
    let mut out = String::from(
        "================================================================\n\
         Learning to Scale the Summit — reproduction report (summit-ai)\n\
         ================================================================\n\n",
    );
    for (name, body) in sections {
        out.push_str(&format!("---- {name} ----\n{body}\n"));
    }
    out
}

/// A named artifact generator: `(artifact id, generator)`.
pub type Artifact = (&'static str, fn() -> String);

/// Artifact ids accepted by the `repro` CLI, with their generators.
pub fn artifacts() -> Vec<Artifact> {
    vec![
        ("table1", table1 as fn() -> String),
        ("table2", table2),
        ("table3", table3),
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("case-studies", case_studies),
        ("io-analysis", io_analysis),
        ("comm-analysis", comm_analysis),
        ("roofline", roofline_analysis),
        ("parallelism", parallelism_analysis),
        ("all", full_report),
        ("ablations", ablations),
        ("crossover", crossover),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_renders() {
        // Last first: `crossover` and `ablations` (~10 s each in debug) share
        // nothing with the paper's artifacts, which the full-report test on
        // the other thread is meanwhile putting into the simulator's memo.
        for (id, gen) in artifacts().into_iter().rev() {
            let text = gen();
            assert!(!text.is_empty(), "{id} rendered empty");
        }
    }

    #[test]
    fn full_report_contains_all_sections() {
        let r = full_report();
        for needle in [
            "TABLE I.",
            "TABLE II.",
            "TABLE III.",
            "Fig 1.",
            "Fig 2.",
            "Fig 3.",
            "Fig 4.",
            "Fig 5.",
            "Fig 6.",
            "EXTREME SCALE",
            "I/O CONSIDERATIONS",
            "COMMUNICATION CONSIDERATIONS",
            "MODEL PARALLELISM",
            "ROOFLINE",
        ] {
            assert!(r.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn io_analysis_states_the_verdicts() {
        let r = io_analysis();
        assert!(r.contains("CANNOT sustain demand"), "GPFS verdict missing");
        assert!(r.contains("satisfies demand"), "NVMe verdict missing");
    }

    #[test]
    fn comm_analysis_reports_crossover_at_bert() {
        // The crossover must land within a few percent of BERT-large's
        // 345 M parameters; parse the rendered number.
        let r = comm_analysis();
        let line = r
            .lines()
            .find(|l| l.contains("crossover"))
            .expect("crossover line present");
        let millions: f64 = line
            .split("crossover: ")
            .nth(1)
            .and_then(|s| s.split(" M").next())
            .and_then(|s| s.trim().parse().ok())
            .expect("parsable crossover value");
        assert!((millions - 345.0).abs() / 345.0 < 0.05, "{line}");
    }
}
