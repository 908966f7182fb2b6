//! Integration tests for the extension features: routed-fabric
//! cross-validation, compressed data-parallel training, and
//! checkpoint/restore mid-training.

use summit_comm::{
    collectives::{run, ReduceOp},
    model::{Algorithm, CollectiveModel},
    sim::simulate_on,
    world::World,
    Collective,
};
use summit_dl::{
    compression::{Compressor, GradCompression},
    data::blobs,
    model::{Mlp, MlpSpec},
    optim::{Adam, Optimizer, Sgd},
    schedule::LrSchedule,
    trainer::slice_rows,
    ElasticCheckpoint, Params, SequenceClassifier,
};
use summit_machine::{spec::NodeSpec, ClusterModel, LinkModel};
use summit_tensor::{ops, Matrix};

/// The routed fabric (one rank per node over the fat tree's NIC and
/// uplink reservations) and the α–β model agree on the ring allreduce
/// within the per-hop-latency budget, across sizes and scales.
#[test]
fn simnet_cross_validates_analytic_ring() {
    let model = CollectiveModel::new(LinkModel::inter_node(&NodeSpec::summit()));
    for nodes in [8u32, 36, 144] {
        for bytes in [1.0e6, 144.0e6] {
            let (p, elems) = (nodes as usize, (bytes / 4.0) as usize);
            let cluster = ClusterModel::summit_nodes(nodes);
            let sim = simulate_on(Collective::RING, p, elems, cluster)
                .report
                .time_seconds;
            let analytic = model.allreduce_time(Algorithm::Ring, u64::from(nodes), bytes);
            // The simulator adds switch-hop latency the model folds into α;
            // both must agree within 50% and the bandwidth-dominated cases
            // within 10%.
            let rel = (sim - analytic).abs() / analytic;
            assert!(
                rel < 0.5,
                "nodes={nodes} bytes={bytes}: sim {sim} vs model {analytic}"
            );
            if bytes > 1.0e8 {
                assert!(rel < 0.1, "bandwidth regime disagrees: {rel}");
            }
        }
    }
}

/// Compressed synchronous data parallelism: quantizing before a real ring
/// allreduce on every rank still converges, and replicas stay in sync
/// (everyone applies the same compressed averages).
#[test]
fn compressed_data_parallel_training_converges() {
    let task = blobs(256, 6, 2, 0.4, 55);
    let ranks = 4usize;
    let per_rank = 16usize;
    let spec = MlpSpec::new(6, &[12], 2);

    let results = World::new(ranks).execute(|rank| {
        let mut model = spec.build(3);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let mut comp = Compressor::new(GradCompression::Fp16, model.param_count());
        let sched = LrSchedule::Constant;
        let steps = 256 / (ranks * per_rank);
        let mut loss = 0.0f32;
        for epoch in 0..20 {
            for s in 0..steps {
                let base = s * ranks * per_rank;
                let start = base + rank.id() * per_rank;
                let bx = summit_dl::trainer::slice_rows(&task.x, start, start + per_rank);
                let logits = model.forward(&bx);
                let (l, d) = ops::softmax_cross_entropy(logits, &task.y[start..start + per_rank]);
                loss = l;
                model.zero_grads();
                model.backward(&d);
                let mut flat = model.arena().flat_grads();
                comp.compress(&mut flat);
                run(rank, Collective::RING, &mut flat, ReduceOp::Sum);
                let inv = 1.0 / ranks as f32;
                flat.iter_mut().for_each(|g| *g *= inv);
                model.set_flat_grads(&flat);
                let lr = sched.multiplier((epoch * steps + s) as u32);
                model.for_each_group(|id, p, g| opt.step_group(id, lr, p, g));
            }
        }
        (model.flat_params(), loss)
    });

    // Replicas identical (compression is deterministic and pre-allreduce).
    let reference = &results[0].0;
    for (params, _) in &results[1..] {
        for (a, b) in params.iter().zip(reference) {
            assert!((a - b).abs() < 1e-6, "replicas diverged under compression");
        }
    }
    // And training actually converged.
    assert!(results[0].1 < 0.35, "loss {}", results[0].1);
}

/// Train `first` rounds, checkpoint through the encoded word stream, and
/// train `second` more; a fresh model and optimizer restored from the
/// stream and trained the same `second` rounds land on the same bits.
fn resume_reproduces<M>(
    build: impl Fn() -> (M, Box<dyn Optimizer>),
    arena: fn(&mut M) -> &mut Params,
    round: impl Fn(usize, &mut M, &mut dyn Optimizer),
    (first, second): (usize, usize),
) {
    let (mut model, mut opt) = build();
    for r in 0..first {
        round(r, &mut model, opt.as_mut());
    }
    let ckpt = ElasticCheckpoint::capture(first as u32, arena(&mut model), opt.as_ref());
    assert!(
        !ckpt.opt.slots.is_empty(),
        "optimizer state must be captured"
    );
    let ckpt = ElasticCheckpoint::decode(&ckpt.encode()).expect("valid stream");
    for r in first..first + second {
        round(r, &mut model, opt.as_mut());
    }

    let (mut resumed, mut resumed_opt) = build();
    ckpt.restore(arena(&mut resumed), resumed_opt.as_mut())
        .expect("valid checkpoint");
    assert_eq!(arena(&mut resumed).params(), ckpt.params);
    for r in first..first + second {
        round(r, &mut resumed, resumed_opt.as_mut());
    }
    let bits = |m: &mut M| -> Vec<u32> { arena(m).params().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&mut model), bits(&mut resumed), "resume diverged");
}

/// Checkpoint/restore mid-training: restoring a checkpoint — parameters
/// *and* optimizer state — and replaying the same batches reproduces the
/// original trajectory bit for bit, for an MLP under SGD momentum and for
/// a transformer classifier under Adam.
#[test]
fn checkpoint_resume_reproduces_trajectory() {
    let task = blobs(128, 4, 2, 0.4, 66);
    let spec = MlpSpec::new(4, &[8], 2);
    let build =
        || -> (Mlp, Box<dyn Optimizer>) { (spec.build(9), Box::new(Sgd::new(0.05, 0.9, 0.0))) };
    // One pass over the dataset in order, one SGD step per 32 rows at the
    // base learning rate (multiplier 1).
    let epoch = |_: usize, model: &mut Mlp, opt: &mut dyn Optimizer| {
        for start in (0..task.x.rows()).step_by(32) {
            let bx = slice_rows(&task.x, start, start + 32);
            let logits = model.forward(&bx);
            let (_, dlogits) = ops::softmax_cross_entropy(logits, &task.y[start..start + 32]);
            model.zero_grads();
            model.backward(&dlogits);
            model.for_each_group(|id, params, grads| opt.step_group(id, 1.0, params, grads));
            opt.advance();
        }
    };
    resume_reproduces(build, Mlp::arena_mut, epoch, (5, 5));

    // One sequence per step: 9 tokens of 6 features, class = the third of
    // the sequence holding a marker.
    let build = || -> (SequenceClassifier, Box<dyn Optimizer>) {
        (
            SequenceClassifier::new(6, 3, 5),
            Box::new(Adam::new(0.01, 0.0)),
        )
    };
    let step = |i: usize, model: &mut SequenceClassifier, opt: &mut dyn Optimizer| {
        let mut x = Matrix::from_vec(
            9,
            6,
            (0..54).map(|k| ((i * 54 + k) as f32).sin() * 0.1).collect(),
        );
        x.set(3 * (i % 3) + i % 2, 0, 3.0);
        model.train_step(&x, i % 3, opt);
    };
    resume_reproduces(build, SequenceClassifier::arena_mut, step, (10, 10));
}

/// Hierarchical allreduce (NVLink-style groups of 3 over 4 "nodes")
/// produces the same averages as the flat ring inside a training step.
#[test]
fn hierarchical_allreduce_in_training_step() {
    let task = blobs(96, 4, 2, 0.3, 77);
    let spec = MlpSpec::new(4, &[6], 2);
    let grads_with = |hierarchical: bool| -> Vec<Vec<f32>> {
        World::new(12).execute(|rank| {
            let mut model = spec.build(4);
            let start = rank.id() * 8;
            let bx = summit_dl::trainer::slice_rows(&task.x, start, start + 8);
            let logits = model.forward(&bx);
            let (_, d) = ops::softmax_cross_entropy(logits, &task.y[start..start + 8]);
            model.zero_grads();
            model.backward(&d);
            let mut flat = model.arena().flat_grads();
            let c = if hierarchical {
                Collective::HierarchicalAllreduce { group_size: 3 }
            } else {
                Collective::RING
            };
            run(rank, c, &mut flat, ReduceOp::Sum);
            flat
        })
    };
    let flat = grads_with(false);
    let hier = grads_with(true);
    for (a, b) in flat.iter().flatten().zip(hier.iter().flatten()) {
        assert!((a - b).abs() < 1e-3 * a.abs().max(1.0));
    }
}
