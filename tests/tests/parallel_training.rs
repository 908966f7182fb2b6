//! Integration: real data-parallel training over the comm substrate
//! (experiment X2) with the large-batch optimizers of Section IV-B.

use std::sync::Arc;

use summit_comm::{FaultPlan, World};
use summit_dl::{
    data::blobs,
    model::MlpSpec,
    optim::{Adam, Lamb, Larc, Lars, Optimizer, Sgd},
    recovery::{RecoveryConfig, Remediation},
    schedule::LrSchedule,
    trainer::{slice_rows, DataParallelTrainer, FusionConfig, OverlapConfig, Trainer},
};

/// LAMB data-parallel run equals LAMB single-process large-batch run —
/// gradient averaging over the ring allreduce is exact.
#[test]
fn lamb_data_parallel_equals_large_batch() {
    let task = blobs(256, 6, 2, 0.4, 77);
    let spec = MlpSpec::new(6, &[12], 2);
    let schedule = LrSchedule::LinearWarmup { warmup_steps: 4 };

    let mut single = Trainer::new(spec.build(3), Box::new(Lamb::new(0.02, 1e-4)), schedule);
    for s in 0..(256 / 32) {
        let bx = slice_rows(&task.x, s * 32, (s + 1) * 32);
        single.train_batch(&bx, &task.y[s * 32..(s + 1) * 32]);
    }

    let dp = DataParallelTrainer::new(8, 4);
    let out = dp.run(
        || spec.build(3),
        || Box::new(Lamb::new(0.02, 1e-4)) as Box<dyn Optimizer>,
        schedule,
        &task.x,
        &task.y,
        1,
    );
    assert!(out.max_divergence < 1e-6);
    for (a, b) in single.model.flat_params().iter().zip(&out.params) {
        assert!((a - b).abs() < 2e-4, "{a} vs {b}");
    }
}

/// Scaling the rank count at fixed global batch does not change the
/// trajectory (2 ranks × 16 == 4 ranks × 8 == 8 ranks × 4).
#[test]
fn rank_count_invariance_at_fixed_global_batch() {
    let task = blobs(128, 4, 2, 0.4, 99);
    let spec = MlpSpec::new(4, &[8], 2);
    let mut finals: Vec<Vec<f32>> = Vec::new();
    for (ranks, per_rank) in [(2usize, 16usize), (4, 8), (8, 4)] {
        let dp = DataParallelTrainer::new(ranks, per_rank);
        let out = dp.run(
            || spec.build(5),
            || Box::new(Sgd::new(0.05, 0.9, 0.0)) as Box<dyn Optimizer>,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            2,
        );
        finals.push(out.params);
    }
    for other in &finals[1..] {
        for (a, b) in finals[0].iter().zip(other) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}

/// A LARC data-parallel run converges on a real task (loss drops well
/// below the random baseline).
#[test]
fn larc_data_parallel_converges() {
    let task = blobs(512, 8, 4, 0.5, 13);
    let dp = DataParallelTrainer::new(4, 32);
    let spec = MlpSpec::new(8, &[32], 4);
    let out = dp.run(
        || spec.build(11),
        || Box::new(Larc::new(0.5, 0.9, 1e-4, 0.02)) as Box<dyn Optimizer>,
        LrSchedule::LinearWarmup { warmup_steps: 8 },
        &task.x,
        &task.y,
        30,
    );
    let baseline = (4.0f32).ln();
    assert!(
        out.loss < baseline * 0.5,
        "LARC loss {} vs baseline {baseline}",
        out.loss
    );
}

/// The sharded commit — reduce-scatter, each rank updating only the chunk
/// it owns, parameter allgather — lands on the bits of the replicated one.
/// `run_in` shards for the elementwise optimizers and `run_fault_tolerant`
/// (here with [`Remediation::Rollback`]) never does, so under an empty
/// fault plan the two agree bitwise: SGD
/// without and with momentum (both with weight decay) and Adam, at p = 2,
/// 3 and 4, with and without overlap, for a bucket that straddles chunk and
/// group boundaries, the default bucket, and one larger than the model.
/// LARS and LAMB commit replicated on both sides.
#[test]
fn sharded_step_is_bitwise_the_replicated_step() {
    type Build = fn() -> Box<dyn Optimizer>;
    // Groups end at 60, 70, 140, 147, 168 and 171; 40-element buckets cut
    // across several of them and across every chunk boundary but p = 3's
    // first (57).
    let spec = MlpSpec::new(6, &[10, 7], 3);
    let task = blobs(192, 6, 3, 0.4, 5);
    let check = |name: &str, build: Build, ranks: usize, overlap: bool, bucket_bytes: usize| {
        let dp = DataParallelTrainer::new(ranks, 4)
            .with_fusion(FusionConfig { bucket_bytes })
            .with_overlap(OverlapConfig { enabled: overlap });
        let schedule = LrSchedule::LinearWarmup { warmup_steps: 4 };
        let (x, y) = (&task.x, &task.y);
        let sharded = dp.run_in(
            &mut World::new(ranks),
            || spec.build(9),
            build,
            schedule,
            x,
            y,
            1,
        );
        let plan = Arc::new(FaultPlan::empty());
        let cfg = RecoveryConfig {
            remediation: Remediation::Rollback,
            ..RecoveryConfig::default()
        };
        let steps = sharded.steps;
        let replicated = dp.run_fault_tolerant(
            || spec.build(9),
            build,
            schedule,
            x,
            y,
            steps,
            None,
            plan,
            cfg,
        );
        let case = format!("{name} p={ranks} overlap={overlap} bucket={bucket_bytes}B");
        assert_eq!(replicated.recoveries, 0, "{case}");
        assert_eq!(sharded.max_divergence, 0.0, "{case}");
        assert_eq!(sharded.steps, replicated.steps, "{case}");
        for (i, (a, b)) in sharded.params.iter().zip(&replicated.params).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{case} param {i}: {a} vs {b}");
        }
    };
    let elementwise: [(&str, Build); 3] = [
        ("sgd", || Box::new(Sgd::new(0.05, 0.0, 1e-3))),
        ("sgd-momentum", || Box::new(Sgd::new(0.05, 0.9, 1e-3))),
        ("adam", || Box::new(Adam::new(0.01, 1e-3))),
    ];
    let buckets = [160, FusionConfig::default().bucket_bytes, usize::MAX / 8];
    for (name, build) in elementwise {
        for ranks in [2, 3, 4] {
            for overlap in [false, true] {
                for bucket_bytes in buckets {
                    check(name, build, ranks, overlap, bucket_bytes);
                }
            }
        }
    }
    check(
        "lars",
        || Box::new(Lars::new(0.5, 0.9, 1e-4, 0.01)),
        3,
        true,
        160,
    );
    check("lamb", || Box::new(Lamb::new(0.02, 1e-4)), 3, true, 160);
}
