//! Chaos suite: deterministic fault injection against the real communicator
//! and the checkpointed fault-tolerant trainer.
//!
//! The contract under test (paper Table I, row 1 — detect → signal →
//! remediate):
//!
//! * Every checked collective either completes with the **bitwise** fault-free
//!   result or fails loudly with a [`CommError`] within its timeout — never a
//!   hang, never a silently wrong answer.
//! * End-to-end data-parallel training under injected drops, delays,
//!   corruption, and rank kills recovers — via vote, drain, and in-memory
//!   checkpoint rollback — to **exactly** the fault-free final parameters;
//!   the faults that kill nobody also recover through the shrinking
//!   remediation's retry-at-the-same-size arm, to the same parameters.
//!
//! Scenario seeds come from the fixed matrix in CI (`CHAOS_SEED`); a failing
//! randomized case archives its [`FaultPlan`] JSON under `target/chaos/` so
//! the exact schedule can be replayed.

use std::sync::Arc;
use std::time::Duration;

use summit_comm::{
    collectives::{run, try_run, ReduceOp},
    elastic::{try_ring_allreduce_view, view_barrier},
    nonblocking::{ring_allreduce_start, RingAllreduceHandle},
    world::{World, WorldView},
    Collective, FaultPlan, FaultRates, RingPhase, TagClass,
};
use summit_dl::{
    data::blobs,
    model::MlpSpec,
    optim::{Adam, Optimizer, Sgd},
    recovery::{fault_clock, RecoveryConfig, Remediation, SUB_COMM},
    trainer::{DataParallelTrainer, FusionConfig, OverlapConfig},
    LrSchedule,
};
use summit_workflow::fault::{telemetry_from_step_seconds, threshold_detector, FaultDetector};

/// Base seed for the randomized cases; CI runs a fixed matrix of values.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Archive a failing plan for replay and return the human-readable pointer.
fn archive_plan(plan: &FaultPlan, label: &str) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .map(|t| t.join("chaos"))
        .unwrap_or_else(|| std::path::PathBuf::from("target/chaos"));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{label}.json"));
    match std::fs::write(&path, plan.to_json()) {
        Ok(()) => format!("fault plan archived at {}", path.display()),
        Err(e) => format!(
            "failed to archive fault plan ({e}); JSON: {}",
            plan.to_json()
        ),
    }
}

/// Aggressive rates so short runs see real action from every fault class.
fn hot_rates() -> FaultRates {
    FaultRates {
        drop: 0.08,
        delay: 0.12,
        delay_ms: 2,
        corrupt: 0.08,
        kill: 0.02,
    }
}

// ---------------------------------------------------------------------------
// Collectives: complete correctly or fail loudly, never hang.
// ---------------------------------------------------------------------------

/// Randomized plans against the checked blocking allreduce: each rank either
/// finishes with the bit-exact fault-free reduction or surfaces a
/// `CommError` before the deadline. The test completing at all is the
/// no-hang proof — every receive is deadline-bounded.
#[test]
fn chaos_collectives_complete_or_fail_loudly() {
    let base = chaos_seed();
    for case in 0..12u64 {
        let seed = base.wrapping_mul(1_000_003).wrapping_add(case);
        let p = 2 + (seed % 3) as usize; // 2..=4 ranks
        let n = 16 + (seed % 23) as usize;
        let bucket = 1 + (seed % 7) as usize;
        let steps = 4u64;
        let plan = Arc::new(FaultPlan::seeded(seed, p, steps, &hot_rates()));
        let reference: Vec<Vec<f32>> = (0..p)
            .map(|r| (0..n).map(|i| ((r * n + i) as f32).sin()).collect())
            .collect();
        // The ring's per-element fold order depends on the chunk schedule,
        // so the bitwise reference is a fault-free execution, not an
        // analytic sum.
        let fault_free = World::new(p).execute(|rank| {
            let mut buf = reference[rank.id()].clone();
            let ring = Collective::RingAllreduce {
                bucket_elems: bucket,
            };
            run(rank, ring, &mut buf, ReduceOp::Sum);
            buf
        });
        let plan_run = Arc::clone(&plan);
        let out = World::new(p).execute_with_faults(plan_run, move |rank| {
            let mut results = Vec::new();
            for step in 0..steps {
                rank.set_fault_step(step);
                let mut buf = reference[rank.id()].clone();
                let ring = Collective::RingAllreduce {
                    bucket_elems: bucket,
                };
                let res = try_run(
                    rank,
                    ring,
                    &mut buf,
                    ReduceOp::Sum,
                    Duration::from_millis(250),
                );
                results.push((res, buf));
                // Quiesce between steps so one step's stale traffic cannot
                // satisfy the next step's receives.
                rank.barrier();
                rank.drain_all();
                rank.barrier();
            }
            results
        });
        for (r, rank_results) in out.iter().enumerate() {
            for (step, (res, buf)) in rank_results.iter().enumerate() {
                if res.is_ok() {
                    for (i, (got, want)) in buf.iter().zip(&fault_free[r]).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "seed {seed} rank {r} step {step} element {i}: completed \
                             collective must be bit-exact ({got} vs {want}); {}",
                            archive_plan(&plan, &format!("collective-seed-{seed}"))
                        );
                    }
                }
                // Err is the loud-failure outcome: acceptable by contract.
            }
        }
    }
}

/// Abandoning unfinished nonblocking collectives mid-flight must neither
/// deadlock the world nor leak pooled buffers once the fabric is drained
/// (satellite: `RingAllreduceHandle` teardown hygiene).
#[test]
fn abandoned_ring_handles_drain_without_leaks() {
    let p = 3;
    let n = 48;
    let bucket = 16;
    let out = World::new(p).execute(|rank| {
        let mut buf = vec![rank.id() as f32 + 0.5; n];
        {
            let mut handles: Vec<RingAllreduceHandle> = buf
                .chunks_mut(bucket)
                .enumerate()
                .map(|(b, w)| {
                    ring_allreduce_start(
                        rank,
                        None,
                        w,
                        ReduceOp::Sum,
                        b as u64,
                        n,
                        b * bucket,
                        RingPhase::Allreduce,
                    )
                })
                .collect();
            // Make partial progress so some payloads are genuinely in
            // flight, then abandon every handle.
            for h in handles.iter_mut() {
                h.progress();
            }
        }
        // All ranks have abandoned; drain the half-finished traffic.
        rank.barrier();
        rank.drain_all();
        rank.barrier();
        rank.pool_stats().outstanding
    });
    // Buffers migrate between per-rank pools under ring circulation, so the
    // balance invariant is on the world-wide sum.
    assert_eq!(
        out.iter().sum::<i64>(),
        0,
        "abandoned handles leaked pooled buffers: {out:?}"
    );
}

/// Hierarchical allreduce under the targeted chaos matrix: a drop and a
/// corruption injected into every phase of the engine schedule (member→
/// leader reduce tag 13, leader ring reduce-scatter 14, leader ring
/// allgather 15, leader→member broadcast 16). Each world must surface at
/// least one loud `CommError`, and any rank that does complete must hold
/// the bitwise fault-free reduction.
#[test]
fn chaos_hierarchical_allreduce_drop_and_corrupt_matrix() {
    let p = 4usize;
    let group = 2usize;
    let n = 24usize;
    let reference: Vec<Vec<f32>> = (0..p)
        .map(|r| (0..n).map(|i| ((r * n + i) as f32).cos()).collect())
        .collect();
    let hierarchical = Collective::HierarchicalAllreduce { group_size: group };
    let fault_free = World::new(p).execute(|rank| {
        let mut buf = reference[rank.id()].clone();
        run(rank, hierarchical, &mut buf, ReduceOp::Sum);
        buf
    });
    // (phase tag, src, dst) covering every message class of the p=4, g=2
    // schedule: up-reduce within each group, both leader-ring directions,
    // down-broadcast within each group.
    let matrix: &[(u64, usize, usize)] = &[
        (13, 1, 0),
        (13, 3, 2),
        (14, 0, 2),
        (14, 2, 0),
        (15, 0, 2),
        (15, 2, 0),
        (16, 0, 1),
        (16, 2, 3),
    ];
    for &(phase, src, dst) in matrix {
        for corrupt in [false, true] {
            let plan = if corrupt {
                FaultPlan::empty().corrupt_message(src, dst, TagClass::Blocking(phase), 0)
            } else {
                FaultPlan::empty().drop_message(src, dst, TagClass::Blocking(phase), 0)
            };
            let plan = Arc::new(plan);
            let reference = reference.clone();
            let out = World::new(p).execute_with_faults(Arc::clone(&plan), move |rank| {
                rank.set_fault_step(0);
                let mut buf = reference[rank.id()].clone();
                let res = try_run(
                    rank,
                    hierarchical,
                    &mut buf,
                    ReduceOp::Sum,
                    Duration::from_millis(250),
                );
                // Quiesce so a rank that erred out does not tear down its
                // receiver while peers are still draining the schedule.
                rank.barrier();
                rank.drain_all();
                rank.barrier();
                (res, buf)
            });
            let label = format!(
                "phase {phase} {src}->{dst} {}",
                if corrupt { "corrupt" } else { "drop" }
            );
            assert!(
                plan.fired_count() > 0,
                "{label}: injected fault never matched a message"
            );
            assert!(
                out.iter().any(|(res, _)| res.is_err()),
                "{label}: no rank surfaced the fault"
            );
            for (r, (res, buf)) in out.iter().enumerate() {
                if res.is_ok() {
                    for (i, (got, want)) in buf.iter().zip(&fault_free[r]).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{label} rank {r} element {i}: completed ranks must be bit-exact"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// End-to-end training: each fault class recovers to the bitwise
// fault-free final state.
// ---------------------------------------------------------------------------

struct Scenario {
    label: &'static str,
    /// The fault, scheduled at the fault-clock value it is given.
    plan: fn(u64) -> FaultPlan,
    /// Training step the fault hits.
    step: u32,
    overlap: bool,
    min_recoveries: u32,
    /// Also drive the fault through [`Remediation::Shrink`], where a fault
    /// that kills nobody must be retried at the same size (kills shrink
    /// instead; the elastic suites cover those).
    transient: bool,
}

fn run_scenario(s: Scenario) {
    let task = blobs(256, 4, 2, 0.3, 77);
    let spec = MlpSpec::new(4, &[16, 8], 2);
    let build_opt = || -> Box<dyn Optimizer> { Box::new(Sgd::new(0.05, 0.9, 0.0)) };
    let dp = DataParallelTrainer::new(2, 8)
        .with_fusion(FusionConfig { bucket_bytes: 128 })
        .with_overlap(OverlapConfig { enabled: s.overlap });
    let plain = dp.run(
        || spec.build(9),
        build_opt,
        LrSchedule::Constant,
        &task.x,
        &task.y,
        1,
    );
    let legs = [
        ("rollback", Remediation::Rollback),
        ("shrink", Remediation::Shrink { rejoin_at: None }),
    ];
    for &(leg, remediation) in &legs[..if s.transient { 2 } else { 1 }] {
        // One fault clock for both legs: the fault fires inside the step's
        // gradient collective.
        let plan = Arc::new((s.plan)(fault_clock(0, s.step, SUB_COMM)));
        let out = dp.run_fault_tolerant(
            || spec.build(9),
            build_opt,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            plain.steps,
            None,
            Arc::clone(&plan),
            RecoveryConfig {
                checkpoint_interval: 3,
                step_timeout: Duration::from_millis(400),
                max_recoveries: 16,
                remediation,
            },
        );
        let label = format!("{} ({leg})", s.label);
        let on_fail = || archive_plan(&plan, &format!("scenario-{}-{leg}", s.label));
        assert_eq!(out.steps, plain.steps, "{label}: {}", on_fail());
        assert!(
            out.recoveries >= s.min_recoveries,
            "{label}: expected >= {} recoveries, saw {}; {}",
            s.min_recoveries,
            out.recoveries,
            on_fail()
        );
        assert!(
            out.faults_injected >= u64::from(s.min_recoveries),
            "{label}: plan never fired; {}",
            on_fail()
        );
        assert_eq!(
            (out.shrinks, out.final_world),
            (0, 2),
            "{label}: this fault must not shrink the world; {}",
            on_fail()
        );
        assert_eq!(out.max_divergence, 0.0, "{label}: {}", on_fail());
        for (i, (a, b)) in out.params.iter().zip(&plain.params).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label} param {i}: {a} vs {b} — recovery must be bit-exact; {}",
                on_fail()
            );
        }
    }
}

/// Scenario 1 — message drop on the blocking reduce-scatter phase.
#[test]
fn chaos_training_recovers_from_drop() {
    run_scenario(Scenario {
        label: "drop",
        plan: |at| FaultPlan::empty().drop_message(0, 1, TagClass::Blocking(0), at),
        step: 6,
        overlap: false,
        min_recoveries: 1,
        transient: true,
    });
}

/// Scenario 2 — a delivery delay longer than the step deadline: the
/// receiver times out, and the late-arriving message becomes exactly the
/// stale fabric traffic the recovery drain exists to clear.
#[test]
fn chaos_training_recovers_from_long_delay() {
    run_scenario(Scenario {
        label: "delay",
        plan: |at| FaultPlan::empty().delay_message(1, 0, TagClass::Any, at, 600),
        step: 4,
        overlap: false,
        min_recoveries: 1,
        transient: true,
    });
}

/// Scenario 3 — payload corruption (post-checksum bit flip) on the
/// overlapped nonblocking path, detected by the transport checksum.
#[test]
fn chaos_training_recovers_from_corruption() {
    run_scenario(Scenario {
        label: "corrupt",
        plan: |at| FaultPlan::empty().corrupt_message(0, 1, TagClass::Any, at),
        step: 9,
        overlap: true,
        min_recoveries: 1,
        transient: true,
    });
}

/// Scenario 4 — a scheduled rank kill mid-epoch on the overlapped path.
#[test]
fn chaos_training_recovers_from_rank_kill() {
    run_scenario(Scenario {
        label: "kill",
        plan: |at| FaultPlan::empty().kill_rank(1, at),
        step: 11,
        overlap: true,
        min_recoveries: 1,
        transient: false,
    });
}

/// Randomized end-to-end chaos: seeded multi-fault plans (all four classes
/// possible, both comm paths) still land on the bitwise fault-free
/// trajectory.
#[test]
fn chaos_training_randomized_plans_recover_bitwise() {
    let base = chaos_seed();
    let task = blobs(128, 4, 2, 0.3, 55);
    let spec = MlpSpec::new(4, &[8, 8], 2);
    let build_opt = || -> Box<dyn Optimizer> { Box::new(Adam::new(0.01, 0.0)) };
    for case in 0..3u64 {
        let seed = base.wrapping_mul(7_777_777).wrapping_add(case);
        let overlap = case % 2 == 0;
        let dp = DataParallelTrainer::new(2, 8)
            .with_fusion(FusionConfig { bucket_bytes: 96 })
            .with_overlap(OverlapConfig { enabled: overlap });
        let plain = dp.run(
            || spec.build(13),
            build_opt,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            2,
        );
        let plan = Arc::new(FaultPlan::seeded(seed, 2, 16, &hot_rates()));
        let budget = plan.events().len() as u32 + 4;
        let ft = dp.run_fault_tolerant(
            || spec.build(13),
            build_opt,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            plain.steps,
            None,
            Arc::clone(&plan),
            RecoveryConfig {
                checkpoint_interval: 4,
                step_timeout: Duration::from_millis(300),
                max_recoveries: budget,
                remediation: Remediation::Rollback,
            },
        );
        assert_eq!(ft.steps, plain.steps);
        for (i, (a, b)) in ft.params.iter().zip(&plain.params).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "seed {seed} (overlap={overlap}) param {i}: {a} vs {b}; {}",
                archive_plan(&plan, &format!("training-seed-{seed}"))
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry closure: injected faults feed the workflow fault detector.
// ---------------------------------------------------------------------------

/// The full Table I row 1 loop on *real* telemetry: step wall-times from a
/// faulted fault-tolerant run — not a synthetic residual model — are mapped
/// through the telemetry bridge, and both the ML detector (trained purely
/// on simulated fleets) and the threshold rule flag the run; a fault-free
/// run stays clean under the threshold rule.
#[test]
fn injected_fault_telemetry_drives_detector() {
    let task = blobs(256, 4, 2, 0.3, 91);
    let spec = MlpSpec::new(4, &[16], 2);
    let build_opt = || -> Box<dyn Optimizer> { Box::new(Sgd::new(0.05, 0.9, 0.0)) };
    let dp = DataParallelTrainer::new(2, 8).with_overlap(OverlapConfig { enabled: false });
    let cfg = RecoveryConfig {
        checkpoint_interval: 4,
        step_timeout: Duration::from_millis(500),
        max_recoveries: 8,
        remediation: Remediation::Rollback,
    };
    let run = |plan: FaultPlan| {
        dp.run_fault_tolerant(
            || spec.build(3),
            build_opt,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            32,
            None,
            Arc::new(plan),
            cfg,
        )
    };
    // A drop mid-run burns a full 500 ms timeout against ~millisecond
    // healthy steps: a huge latency spike in the attempt telemetry.
    let faulted = run(FaultPlan::empty().drop_message(0, 1, TagClass::Blocking(0), 20));
    assert!(faulted.recoveries >= 1);

    let faulted_run = telemetry_from_step_seconds(&faulted.step_seconds, true);

    // ML detector trained on the *simulated* fleet transfers to the real
    // injected-fault telemetry.
    let mut detector = FaultDetector::train(&summit_workflow::fault::fleet(200, 32, 10), 5);
    assert!(
        detector.is_faulty(&faulted_run),
        "ML detector must flag the injected-fault run"
    );
    // The threshold rule sees the timeout spike too (ln(500ms / ~ms) >> 2.5).
    assert!(threshold_detector(&faulted_run, 2.5));
    // A fault-free run stays clean under the threshold rule: its only noise
    // is scheduler jitter, normally far below e^2.5 ≈ 12× the ~millisecond
    // median step time. A preempted step on a busy host can exceed that, so
    // allow a bounded retry — transient OS jitter clears on re-run, whereas
    // a real fault (a 500 ms timeout burn, ~1000× the median) would trip
    // every attempt.
    let healthy_clean = (0..3).any(|_| {
        let healthy = run(FaultPlan::empty());
        assert_eq!(healthy.recoveries, 0);
        let healthy_run = telemetry_from_step_seconds(&healthy.step_seconds, false);
        !threshold_detector(&healthy_run, 2.5)
    });
    assert!(
        healthy_clean,
        "threshold rule flagged three consecutive fault-free runs"
    );
}

// ---------------------------------------------------------------------------
// Elastic shrink chaos: kills aimed at the shrink protocol itself.
// ---------------------------------------------------------------------------

/// Kills aimed at every phase of the elastic shrink protocol — the vote,
/// the quiesce drain, the re-partition, and the first post-shrink
/// collective at the new epoch. A first kill triggers the shrink at step
/// `K`; the second lands inside it. Every run must complete at the
/// doubly-shrunk size on the exact fresh-world trajectory, or fail loudly
/// — never hang.
#[test]
fn chaos_kills_in_every_shrink_phase_complete_or_fail_loudly() {
    use summit_dl::recovery::{SUB_DRAIN, SUB_REPART, SUB_VOTE};

    let task = blobs(48, 4, 2, 0.3, 59);
    let spec = MlpSpec::new(4, &[8], 2);
    let model_spec = spec.clone();
    let build_model = move || model_spec.build(29);
    let build_opt = || -> Box<dyn Optimizer> { Box::new(Adam::new(0.01, 0.0)) };
    const K: u32 = 3;
    const T: u32 = 8;
    let ecfg = RecoveryConfig {
        step_timeout: Duration::from_millis(400),
        checkpoint_interval: 2,
        max_recoveries: 4,
        remediation: Remediation::Shrink { rejoin_at: None },
    };
    let dp4 = DataParallelTrainer::new(4, 4).with_overlap(OverlapConfig { enabled: false });
    let dp2 = DataParallelTrainer::new(2, 4).with_overlap(OverlapConfig { enabled: false });

    let ck = dp4
        .run_fault_tolerant(
            &build_model,
            build_opt,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            K,
            None,
            Arc::new(FaultPlan::empty()),
            ecfg,
        )
        .checkpoint;
    // Ground truth: both kills land, so the run ends as a fresh 2-rank
    // world (members {0, 3}) continuing from the step-K state.
    let fresh = dp2.run_fault_tolerant(
        &build_model,
        build_opt,
        LrSchedule::Constant,
        &task.x,
        &task.y,
        T,
        Some(&ck),
        Arc::new(FaultPlan::empty()),
        ecfg,
    );

    for (label, second_kill) in [
        ("vote", fault_clock(0, K, SUB_VOTE)),
        ("quiesce drain", fault_clock(0, K, SUB_DRAIN)),
        ("re-partition", fault_clock(1, K, SUB_REPART)),
        ("first post-shrink collective", fault_clock(1, K, SUB_COMM)),
    ] {
        let plan = Arc::new(
            FaultPlan::empty()
                .kill_rank(2, fault_clock(0, K, SUB_COMM))
                .kill_rank(1, second_kill),
        );
        let el = dp4.run_fault_tolerant(
            &build_model,
            build_opt,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            T,
            None,
            Arc::clone(&plan),
            ecfg,
        );
        assert_eq!(el.steps, T, "kill at {label}");
        assert_eq!(el.final_world, 2, "kill at {label}");
        assert_eq!(el.final_members, vec![0, 3], "kill at {label}");
        assert_eq!(el.max_divergence, 0.0, "kill at {label}");
        assert!(
            el.shrinks == 1 || el.shrinks == 2,
            "kill at {label}: {} shrinks",
            el.shrinks
        );
        assert_eq!(el.faults_injected, 2, "kill at {label}: a kill never fired");
        for (i, (a, b)) in el.params.iter().zip(&fresh.params).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "kill at {label} param {i}: {a} vs {b}; {}",
                archive_plan(&plan, &format!("shrink-phase-{}", label.replace(' ', "-")))
            );
        }
    }
}

/// Randomized shrink leg for the CI seed matrix: the victim, kill step,
/// and kill substep all derive from `CHAOS_SEED`; the shrunk run must be
/// bit-identical to a fresh 3-rank world from the same checkpoint. A
/// failing case archives its fault plan under `target/chaos/`.
#[test]
fn chaos_training_randomized_kill_shrinks_bitwise() {
    use summit_dl::recovery::{SUB_PRE, SUB_VOTE};

    let base = chaos_seed();
    let task = blobs(48, 4, 2, 0.3, 61);
    let spec = MlpSpec::new(4, &[8], 2);
    let model_spec = spec.clone();
    let build_model = move || model_spec.build(31);
    let build_opt = || -> Box<dyn Optimizer> { Box::new(Sgd::new(0.05, 0.9, 0.0)) };
    let ecfg = RecoveryConfig {
        step_timeout: Duration::from_millis(400),
        checkpoint_interval: 2,
        max_recoveries: 4,
        remediation: Remediation::Shrink { rejoin_at: None },
    };
    for case in 0..3u64 {
        let seed = base.wrapping_mul(424_243).wrapping_add(case);
        let victim = 1 + (seed % 3) as usize;
        let k = 2 + (seed / 3 % 4) as u32;
        let sub = [SUB_PRE, SUB_COMM, SUB_VOTE][(seed / 12 % 3) as usize];
        let overlap = seed % 2 == 0;
        let dp4 = DataParallelTrainer::new(4, 4)
            .with_fusion(FusionConfig { bucket_bytes: 64 })
            .with_overlap(OverlapConfig { enabled: overlap });
        let dp3 = DataParallelTrainer::new(3, 4)
            .with_fusion(FusionConfig { bucket_bytes: 64 })
            .with_overlap(OverlapConfig { enabled: overlap });
        let ck = dp4
            .run_fault_tolerant(
                &build_model,
                build_opt,
                LrSchedule::Constant,
                &task.x,
                &task.y,
                k,
                None,
                Arc::new(FaultPlan::empty()),
                ecfg,
            )
            .checkpoint;
        let fresh = dp3.run_fault_tolerant(
            &build_model,
            build_opt,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            8,
            Some(&ck),
            Arc::new(FaultPlan::empty()),
            ecfg,
        );
        let plan = Arc::new(FaultPlan::empty().kill_rank(victim, fault_clock(0, k, sub)));
        let el = dp4.run_fault_tolerant(
            &build_model,
            build_opt,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            8,
            None,
            Arc::clone(&plan),
            ecfg,
        );
        let label = format!("seed {seed} victim {victim} step {k} substep {sub}");
        assert_eq!(el.steps, 8, "{label}");
        assert_eq!(el.shrinks, 1, "{label}");
        assert_eq!(el.final_world, 3, "{label}");
        assert!(!el.final_members.contains(&victim), "{label}");
        assert_eq!(el.max_divergence, 0.0, "{label}");
        for (i, (a, b)) in el.params.iter().zip(&fresh.params).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label} param {i}: {a} vs {b}; {}",
                archive_plan(&plan, &format!("shrink-seed-{seed}"))
            );
        }
    }
}

/// Regression (satellite): an abandoned, *still-alive*
/// `RingAllreduceHandle` across an elastic shrink quiesce. The view-based
/// quiesce (barrier → fixpoint drain → barrier) must sweep the handle's
/// parked nonblocking-tag traffic without eating control-plane tokens,
/// the post-shrink epoch-1 collective must produce the fresh-world
/// result, and the world-wide pool balance must return to zero.
#[test]
fn abandoned_handle_alive_across_shrink_quiesce() {
    let p = 4;
    let n = 32;
    let out = World::new(p).execute(|rank| {
        let mut buf = vec![rank.id() as f32 + 1.0; n];
        let mut handle = ring_allreduce_start(
            rank,
            None,
            &mut buf,
            ReduceOp::Sum,
            7,
            n,
            0,
            RingPhase::Allreduce,
        );
        // Land real traffic in peers' queues, then abandon the collective
        // mid-flight — the handle stays alive across the whole quiesce.
        handle.progress();
        let view = WorldView::full(rank);
        view_barrier(rank, &view, 1);
        let drained = rank.drain_all();
        view_barrier(rank, &view, 2);
        handle.cancel();

        // The survivors' first epoch-1 collective must be unaffected.
        let shrunk = view.shrink_to(&[true, false, true, true]);
        if shrunk.my_index().is_some() {
            let mut data = vec![rank.id() as f32; 8];
            try_ring_allreduce_view(
                rank,
                &shrunk,
                &mut data,
                ReduceOp::Sum,
                4,
                Duration::from_secs(5),
            )
            .unwrap();
            for v in &data {
                assert_eq!(*v, 5.0, "post-shrink collective corrupted");
            }
        }
        (drained, rank.pool_stats().outstanding)
    });
    let drained: usize = out.iter().map(|(d, _)| d).sum();
    assert!(drained > 0, "the abandoned collective left no traffic?");
    assert_eq!(
        out.iter().map(|(_, o)| o).sum::<i64>(),
        0,
        "live abandoned handle leaked pooled buffers across the quiesce: {out:?}"
    );
}
