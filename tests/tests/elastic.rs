//! Elastic training matrix: shrink/grow worlds instead of rollback-and-replay,
//! proven bit-exact.
//!
//! The contract under test:
//!
//! * **Shrink**: a p=4 run that loses a rank at step `k` (killed before,
//!   during, or after the gradient allreduce) shrinks to p=3 and continues on
//!   **exactly** the trajectory a fresh p=3 run produces from the same step-`k`
//!   checkpoint — bit for bit, on both comm paths, for all five optimizers.
//! * **Grow**: an evicted rank hot-joins at a later step boundary and the run
//!   finishes bit-identical to a composed baseline (p=3 to the join step, then
//!   p=4 to the end).
//! * **Re-partition**: data and checkpoint shards re-derive from
//!   [`chunk_range`], covering every sample/word exactly once at every size.
//! * **Size-agnostic state**: a checkpoint exported at any world size restores
//!   bit-exactly at any other.
//! * **Economics**: on the simulated fat tree, shrinking costs fewer
//!   rank-seconds than requeue-and-replay at every scale up to p = 27,648.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use summit_comm::{elastic_shrink_study, ElasticStudy, FaultPlan, WorldView};
use summit_dl::{
    data::blobs,
    model::{Mlp, MlpSpec},
    optim::{Adam, Lamb, Larc, Lars, Optimizer, Sgd},
    recovery::{fault_clock, RecoveryConfig, Remediation, SUB_COMM, SUB_PRE, SUB_VOTE},
    trainer::{DataParallelTrainer, FusionConfig, OverlapConfig},
    ElasticCheckpoint, LrSchedule,
};
use summit_machine::{ClusterModel, MachineSpec};
use summit_pool::chunk_range;
use summit_sched::facility::measured_requeue_wait_hours;

fn build_opt(name: &str) -> Box<dyn Optimizer> {
    match name {
        "sgd" => Box::new(Sgd::new(0.05, 0.9, 0.0)),
        "adam" => Box::new(Adam::new(0.01, 0.0)),
        "lars" => Box::new(Lars::new(0.05, 0.9, 1e-4, 0.001)),
        "larc" => Box::new(Larc::new(0.05, 0.9, 1e-4, 0.002)),
        "lamb" => Box::new(Lamb::new(0.01, 1e-4)),
        other => panic!("unknown optimizer {other}"),
    }
}

fn ecfg() -> RecoveryConfig {
    RecoveryConfig {
        step_timeout: Duration::from_millis(400),
        checkpoint_interval: 2,
        max_recoveries: 4,
        remediation: Remediation::Shrink { rejoin_at: None },
    }
}

fn bitwise_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: elem {i}: {x} vs {y}");
    }
}

/// The spans `(start, end, total)` must tile `[0, total)` exactly.
fn assert_spans_tile(spans: &[(usize, usize, usize)]) {
    assert!(!spans.is_empty());
    let total = spans[0].2;
    let mut pos = 0;
    for &(start, end, t) in spans {
        assert_eq!(t, total, "spans disagree on the stream length");
        assert_eq!(start, pos, "gap or overlap at word {pos}");
        assert!(end >= start);
        pos = end;
    }
    assert_eq!(pos, total, "spans do not cover the stream");
}

/// The headline pin, for one optimizer: elastic p=4 → 3 at step `k` is
/// bit-identical to fresh p=3 from the same step-`k` checkpoint, for
/// serial and overlapped comm and for a kill aimed before, during, and
/// after the gradient allreduce.
fn shrink_matrix_for(opt_name: &'static str) {
    let task = blobs(48, 4, 2, 0.3, 41);
    let spec = MlpSpec::new(4, &[8], 2);
    const K: u32 = 3;
    const T: u32 = 8;
    let build_model = move || -> Mlp { spec.build(17) };
    for overlap in [false, true] {
        let dp4 = DataParallelTrainer::new(4, 4)
            .with_fusion(FusionConfig { bucket_bytes: 64 })
            .with_overlap(OverlapConfig { enabled: overlap });
        let dp3 = DataParallelTrainer::new(3, 4)
            .with_fusion(FusionConfig { bucket_bytes: 64 })
            .with_overlap(OverlapConfig { enabled: overlap });

        // Checkpoint at the kill step, from a clean full-world run.
        let ck = dp4
            .run_fault_tolerant(
                &build_model,
                || build_opt(opt_name),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                K,
                None,
                Arc::new(FaultPlan::empty()),
                ecfg(),
            )
            .checkpoint;
        assert_eq!(ck.step, K);

        // Ground truth: a fresh 3-rank world continuing from that state.
        let fresh = dp3.run_fault_tolerant(
            &build_model,
            || build_opt(opt_name),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            T,
            Some(&ck),
            Arc::new(FaultPlan::empty()),
            ecfg(),
        );
        assert_eq!(fresh.steps, T);
        assert_eq!(fresh.shrinks, 0);
        assert_eq!(fresh.max_divergence, 0.0);

        for sub in [SUB_PRE, SUB_COMM, SUB_VOTE] {
            let label = format!("{opt_name} overlap={overlap} substep={sub}");
            let plan = Arc::new(FaultPlan::empty().kill_rank(2, fault_clock(0, K, sub)));
            let el = dp4.run_fault_tolerant(
                &build_model,
                || build_opt(opt_name),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                T,
                None,
                plan,
                ecfg(),
            );
            assert_eq!(el.steps, T, "{label}");
            assert_eq!(el.shrinks, 1, "{label}");
            assert_eq!(el.joins, 0, "{label}");
            assert_eq!(el.final_world, 3, "{label}");
            assert_eq!(el.final_members, vec![0, 1, 3], "{label}");
            assert_eq!(el.final_epoch, 1, "{label}");
            assert_eq!(el.max_divergence, 0.0, "{label}");
            assert!(el.faults_injected >= 1, "{label}: kill never fired");
            assert_eq!(
                el.membership_log.last().unwrap(),
                &(K, 1, vec![0, 1, 3]),
                "{label}"
            );
            bitwise_eq(&el.params, &fresh.params, &label);
            assert_spans_tile(&el.shard_spans);
        }
    }
}

#[test]
fn elastic_shrink_is_bit_identical_sgd() {
    shrink_matrix_for("sgd");
}

#[test]
fn elastic_shrink_is_bit_identical_adam() {
    shrink_matrix_for("adam");
}

#[test]
fn elastic_shrink_is_bit_identical_lars() {
    shrink_matrix_for("lars");
}

#[test]
fn elastic_shrink_is_bit_identical_larc() {
    shrink_matrix_for("larc");
}

#[test]
fn elastic_shrink_is_bit_identical_lamb() {
    shrink_matrix_for("lamb");
}

/// Hot join: a rank evicted at step 3 rejoins at step 6 and the run ends
/// bit-identical to the composed baseline (fresh p=3 over steps 3..6, then
/// fresh p=4 over steps 6..10) — the rejoined world resumes the original
/// full-world partition.
#[test]
fn elastic_hot_join_is_bit_identical_to_composed_baseline() {
    let task = blobs(48, 4, 2, 0.3, 43);
    let spec = MlpSpec::new(4, &[8], 2);
    const K: u32 = 3;
    const R: u32 = 6;
    const T: u32 = 10;
    let build_model = move || -> Mlp { spec.build(19) };
    for overlap in [false, true] {
        let label = format!("hot-join overlap={overlap}");
        let dp4 = DataParallelTrainer::new(4, 4)
            .with_fusion(FusionConfig { bucket_bytes: 64 })
            .with_overlap(OverlapConfig { enabled: overlap });
        let dp3 = DataParallelTrainer::new(3, 4)
            .with_fusion(FusionConfig { bucket_bytes: 64 })
            .with_overlap(OverlapConfig { enabled: overlap });
        let run4 = |total, from: Option<&ElasticCheckpoint>, plan, cfg| {
            dp4.run_fault_tolerant(
                &build_model,
                || build_opt("adam"),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                total,
                from,
                plan,
                cfg,
            )
        };

        // Elastic run: kill rank 2 at step K, re-admit it at step R.
        let plan = Arc::new(FaultPlan::empty().kill_rank(2, fault_clock(0, K, SUB_COMM)));
        let el = run4(
            T,
            None,
            plan,
            RecoveryConfig {
                remediation: Remediation::Shrink { rejoin_at: Some(R) },
                ..ecfg()
            },
        );
        assert_eq!(el.steps, T, "{label}");
        assert_eq!(el.shrinks, 1, "{label}");
        assert_eq!(el.joins, 1, "{label}");
        assert_eq!(el.final_world, 4, "{label}");
        assert_eq!(el.final_members, vec![0, 1, 2, 3], "{label}");
        assert_eq!(el.final_epoch, 2, "{label}");
        assert_eq!(el.max_divergence, 0.0, "{label}: rejoined rank diverged");
        assert_eq!(
            el.membership_log,
            vec![
                (0, 0, vec![0, 1, 2, 3]),
                (K, 1, vec![0, 1, 3]),
                (R, 2, vec![0, 1, 2, 3]),
            ],
            "{label}"
        );
        assert_spans_tile(&el.shard_spans);
        assert_eq!(el.shard_spans.len(), 4, "{label}");

        // Composed baseline: p=4 to K, p=3 over K..R, p=4 over R..T.
        let ck_k = run4(K, None, Arc::new(FaultPlan::empty()), ecfg()).checkpoint;
        let ck_r = dp3
            .run_fault_tolerant(
                &build_model,
                || build_opt("adam"),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                R,
                Some(&ck_k),
                Arc::new(FaultPlan::empty()),
                ecfg(),
            )
            .checkpoint;
        assert_eq!(ck_r.step, R);
        let composed = run4(T, Some(&ck_r), Arc::new(FaultPlan::empty()), ecfg());
        assert_eq!(composed.steps, T);
        bitwise_eq(&el.params, &composed.params, &label);
        bitwise_eq(
            &el.checkpoint.encode(),
            &composed.checkpoint.encode(),
            &format!("{label}: full state (params + optimizer)"),
        );
    }
}

/// Satellite: a checkpoint captured at one world size restores bit-exactly
/// through the sharded export/import at every other size, at the run
/// level: a p=4 checkpoint continues cleanly on worlds of 2, 3, 4, and 8
/// ranks.
#[test]
fn checkpoint_is_size_agnostic_across_world_sizes() {
    let task = blobs(48, 4, 2, 0.3, 47);
    let spec = MlpSpec::new(4, &[8], 2);
    let model_spec = spec.clone();
    let build_model = move || -> Mlp { model_spec.build(23) };
    let dp4 = DataParallelTrainer::new(4, 2).with_overlap(OverlapConfig { enabled: false });
    let ck = dp4
        .run_fault_tolerant(
            &build_model,
            || build_opt("lamb"),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            4,
            None,
            Arc::new(FaultPlan::empty()),
            ecfg(),
        )
        .checkpoint;

    // Format level: shard the encoded stream at every size; every
    // reassembly restores bit-identical params and optimizer state.
    let words = ck.encode();
    for parts in [1usize, 2, 3, 4, 8] {
        let shards = ck.export_shards(parts);
        assert_eq!(shards.len(), parts);
        let reassembled = ElasticCheckpoint::import_shards(&shards).unwrap();
        bitwise_eq(&reassembled.encode(), &words, "reassembled stream");
        let mut model = spec.build(99);
        let mut opt = build_opt("lamb");
        reassembled
            .restore(model.arena_mut(), opt.as_mut())
            .unwrap();
        bitwise_eq(&model.flat_params(), &ck.params, "restored params");
        let state = opt.export_state();
        assert_eq!(state.step, ck.opt.step);
        for ((na, ga, va), (nb, gb, vb)) in state.slots.iter().zip(&ck.opt.slots) {
            assert_eq!(na, nb);
            assert_eq!(ga, gb);
            bitwise_eq(va, vb, &format!("slot {na}/{ga}"));
        }
    }

    // Run level: the p=4 checkpoint drives worlds of every size.
    for ranks in [2usize, 3, 4, 8] {
        let dp = DataParallelTrainer::new(ranks, 2).with_overlap(OverlapConfig { enabled: false });
        let out = dp.run_fault_tolerant(
            &build_model,
            || build_opt("lamb"),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            8,
            Some(&ck),
            Arc::new(FaultPlan::empty()),
            ecfg(),
        );
        assert_eq!(out.steps, 8, "world of {ranks}");
        assert_eq!(out.final_world, ranks);
        assert_eq!(out.max_divergence, 0.0, "world of {ranks}");
        assert_spans_tile(&out.shard_spans);
    }
}

/// Check that the per-member `chunk_range` partitions of `n` samples tile
/// `[0, n)` exactly, returning the spans.
fn cover(n: usize, view: &WorldView) -> Result<Vec<(usize, usize)>, TestCaseError> {
    let spans: Vec<_> = (0..view.size())
        .map(|d| {
            let r = chunk_range(n, view.size(), d);
            (r.start, r.end)
        })
        .collect();
    let mut pos = 0;
    for &(start, end) in &spans {
        prop_assert_eq!(start, pos, "gap or overlap at sample {}", pos);
        pos = end;
    }
    prop_assert_eq!(pos, n, "partition does not cover all samples");
    Ok(spans)
}

proptest! {
    /// Satellite: for arbitrary (n, p, kill set), the chunk_range
    /// re-partition covers every sample exactly once at the original size,
    /// again after the shrink, and the grow inverse restores the original
    /// partition.
    #[test]
    fn repartition_covers_every_sample_exactly_once(
        n in 1usize..4096,
        p in 1usize..9,
        kills in 0u64..256,
    ) {
        let full = WorldView::assemble((0..p).collect(), 0, 0);
        let original = cover(n, &full)?;

        // Kill set from the sampled bitmask; rank 0 always survives.
        let mask: Vec<bool> = (0..p).map(|i| i == 0 || kills & (1 << i) == 0).collect();
        let shrunk = full.shrink_to(&mask);
        prop_assert_eq!(shrunk.epoch(), 1);
        prop_assert!(shrunk.size() >= 1 && shrunk.size() <= p);
        cover(n, &shrunk)?;

        // Grow back: the full-size partition is restored exactly.
        let regrown = shrunk.grow_full(p);
        prop_assert_eq!(regrown.epoch(), 2);
        prop_assert_eq!(regrown.members(), full.members());
        let restored = cover(n, &regrown)?;
        prop_assert_eq!(restored, original);
    }
}

/// Full machine: 4,608 nodes × 6 GPUs.
const SUMMIT_RANKS: usize = 27_648;
/// The paper's Section VI-B payload: 100 MB of f32 gradients.
const SUMMIT_GRAD_ELEMS: usize = 25_000_000;
/// Steps the rollback path replays after its requeue stall.
const REPLAY_STEPS: usize = 10;

/// One rank dies at world size `p`: elastic shrink (survivor vote, two
/// quiesce barriers, first step at p − 1) against rollback (requeue stall,
/// then [`REPLAY_STEPS`] replayed steps at p), both costed on the routed
/// fabric. The stall is measured, not assumed: the mean queue wait of a
/// 2-node requeue probe at six points of a seeded background trace. Checks
/// the study's composition identities bit-exactly before returning it.
fn shrink_study(p: usize, elems: usize, cluster: ClusterModel) -> ElasticStudy {
    let stall_s = measured_requeue_wait_hours(&MachineSpec::summit(), 90, 6) * 3600.0;
    let s = elastic_shrink_study(p, elems, REPLAY_STEPS, stall_s, cluster);
    assert_eq!(
        s.elastic_total_s,
        s.shrink_protocol_s + s.step_after_shrink_s
    );
    assert_eq!(
        s.replay_total_s,
        stall_s + REPLAY_STEPS as f64 * s.step_before_shrink_s
    );
    println!(
        "p = {p:<5} stall {stall_s:.0} s, protocol {:.6} s, step {:.6} s: elastic {:.3e} vs \
         replay {:.3e} rank-seconds, advantage {:.1}x",
        s.shrink_protocol_s,
        s.step_before_shrink_s,
        s.elastic_rank_seconds,
        s.replay_rank_seconds,
        s.advantage
    );
    s
}

#[test]
fn elastic_shrink_beats_replay_across_scales() {
    for nodes in [8u32, 64, 512] {
        let p = nodes as usize * 6;
        let elems = SUMMIT_GRAD_ELEMS * p / SUMMIT_RANKS;
        let s = shrink_study(p, elems, ClusterModel::summit_like(nodes));
        assert!(s.advantage > 1.0, "p = {p}: {s:?}");
    }
}

/// At full scale the shrink protocol is control-plane only (the vote and
/// the barriers carry one element each), so it must stay sub-second, and
/// the elastic path must win by at least 10×.
#[test]
#[cfg_attr(debug_assertions, ignore = "3e9 events: run under --release")]
fn elastic_shrink_economics_at_full_summit() {
    let s = shrink_study(SUMMIT_RANKS, SUMMIT_GRAD_ELEMS, ClusterModel::summit());
    assert!(
        s.shrink_protocol_s > 0.0 && s.shrink_protocol_s < 1.0,
        "{s:?}"
    );
    assert!(s.advantage >= 10.0, "{s:?}");
}
