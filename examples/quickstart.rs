//! Quickstart: a guided tour of the summit-ai reproduction.
//!
//! Run with `cargo run --example quickstart`.
//!
//! Walks through the paper's three core quantitative stories — the machine,
//! the Section VI-B communication/I-O arithmetic, and a real data-parallel
//! training run with gradient allreduce over threads.

use summit_core::prelude::*;

fn main() {
    // ---- 1. The machine (paper Section II-A) -------------------------
    let summit = MachineSpec::summit();
    println!("== {} ==", summit.name);
    println!(
        "{} nodes x {} V100s = {} GPUs; {:.1} AI-ExaOps mixed-precision peak",
        summit.nodes,
        summit.node.gpus_per_node,
        summit.total_gpus(),
        summit.peak_mixed_precision_flops() / 1e18
    );

    // ---- 2. Section VI-B in four lines -------------------------------
    let bert = Workload::bert_large();
    let model = CollectiveModel::new(LinkModel::inter_node(&summit.node));
    let t = model.bandwidth_term(Algorithm::Ring, 4608, bert.gradient_message_bytes());
    println!(
        "\nBERT-large gradient allreduce on full Summit: {:.0} ms \
         (per-batch compute: {:.0} ms) -> at the communication-bound edge",
        t * 1e3,
        bert.step_compute_seconds() * 1e3
    );
    let demand = ReadDemand::new(2900.0, 250.0e3, summit.total_gpus());
    println!(
        "ResNet50 full-Summit read demand: {:.1} TB/s (GPFS supplies 2.5, NVMe 27.2)",
        demand.aggregate_read_bw() / 1e12
    );

    // ---- 3. Real data-parallel training over threads ------------------
    println!("\nTraining a classifier data-parallel over 4 thread-ranks…");
    let task = blobs(512, 8, 3, 0.5, 42);
    let dp = DataParallelTrainer::new(4, 16);
    let spec = MlpSpec::new(8, &[32], 3);
    let outcome = dp.run(
        || spec.build(7),
        || Box::new(Lamb::new(0.02, 1e-4)) as Box<dyn Optimizer>,
        LrSchedule::LinearWarmup { warmup_steps: 5 },
        &task.x,
        &task.y,
        20,
    );
    println!(
        "  {} steps, final mean loss {:.3}, replica divergence {:.2e} (synchronous SGD keeps \
         replicas identical)",
        outcome.steps, outcome.loss, outcome.max_divergence
    );

    // ---- 4. One scaling prediction ------------------------------------
    // BERT-large with no overlap: the communication-bound regime the paper
    // warns about (ResNet50's small message hides entirely under compute).
    let scaling = summit_perf::model::ScalingModel {
        overlap: 0.0,
        include_latency: true,
        ..ScalingModel::summit_defaults(Workload::bert_large())
    };
    println!("\nBERT-large data-parallel efficiency without overlap (model prediction):");
    for nodes in [1u32, 64, 512, 4608] {
        println!(
            "  {:>5} nodes: {:5.1}% efficiency, {:7.1} PF sustained",
            nodes,
            scaling.efficiency(nodes, 1) * 100.0,
            scaling.sustained_flops(nodes) / 1e15
        );
    }
    println!("\nSee `repro all` (summit-core) for the full paper reproduction.");
}
