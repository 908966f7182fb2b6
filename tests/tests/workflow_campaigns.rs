//! Integration X3/X4: the AI-coordinated workflow campaigns through the
//! public API, and the cross-facility scheduling of Section V-B.

use std::collections::HashMap;

use summit_workflow::{
    campaign::{run_campaign, CampaignConfig, CompoundLibrary},
    engine::{simulate_schedule, Facility, WorkflowBuilder},
    materials::MaterialsLoop,
    steering::{Policy, SteeringConfig, SteeringLoop},
};

/// X3: the screening funnel (one surrogate round after a random seed set)
/// dominates random selection at equal budget and costs a fraction of brute
/// force.
#[test]
fn screening_funnel_dominates() {
    let library = CompoundLibrary::generate(1500, 8, 23);
    let screen = |batch_per_round, rounds| {
        let config = CampaignConfig {
            batch_per_round,
            rounds,
            k: 40,
            seed: 5,
            fit_iters: 300,
        };
        *run_campaign(&library, &config).rounds.last().unwrap()
    };
    let surrogate = screen(150, 1);
    let random = screen(300, 0);
    assert!(surrogate.recall_at_k > random.recall_at_k);
    assert!(surrogate.docked * 5 <= library.len());
}

/// X4: the materials active-learning loop reduces surrogate error.
#[test]
fn materials_loop_learns() {
    let outcome = MaterialsLoop {
        iterations: 4,
        sweeps_per_iteration: 20,
        ..MaterialsLoop::default()
    }
    .run();
    let first = outcome.rmse_per_iteration[0];
    let last = *outcome.rmse_per_iteration.last().unwrap();
    assert!(last < first, "RMSE {first} → {last}");
}

/// Steering reaches rare states faster than uniform sampling (the
/// DeepDriveMD claim).
#[test]
fn steering_outperforms_uniform() {
    let campaign = SteeringLoop::new(SteeringConfig {
        rounds: 10,
        ..SteeringConfig::default()
    });
    let steered = campaign.run(Policy::MlSteered);
    let random = campaign.run(Policy::Random);
    assert!(steered.best_distance < random.best_distance);
}

/// Section V-B's multi-facility campaign shape: FFEA on ThetaGPU, AAMD on
/// Perlmutter, CVAE training on Summit, coupled through consistency tasks.
/// The simulated schedule must overlap facilities and respect coupling.
#[test]
fn multi_facility_campaign_schedules() {
    let mut wf: WorkflowBuilder<u32> = WorkflowBuilder::new();
    let cryo = wf.task("cryo-EM input", Facility::Andes, 100.0, vec![], |_| 0);
    let ffea = wf.task(
        "FFEA mesoscale",
        Facility::ThetaGpu,
        500.0,
        vec![cryo],
        |_| 1,
    );
    let aamd = wf.task(
        "AAMD (NAMD)",
        Facility::Perlmutter,
        800.0,
        vec![cryo],
        |_| 2,
    );
    let anca = wf.task("ANCA-AE", Facility::ThetaGpu, 150.0, vec![ffea], |_| 3);
    let cvae = wf.task("CVAE training", Facility::Summit, 400.0, vec![aamd], |_| 4);
    let gno = wf.task(
        "GNO coupling",
        Facility::ThetaGpu,
        200.0,
        vec![anca, cvae],
        |_| 5,
    );

    // Real execution completes and respects dependencies.
    let specs = wf.specs();
    let outputs = wf.run(4);
    assert_eq!(*outputs[gno], 5);

    // Simulated schedule: FFEA and AAMD overlap across facilities; the GNO
    // coupling waits for both branches.
    let caps = HashMap::from([
        (Facility::Andes, 1),
        (Facility::ThetaGpu, 2),
        (Facility::Perlmutter, 1),
        (Facility::Summit, 1),
    ]);
    let (placements, makespan) = simulate_schedule(&specs, &caps);
    assert_eq!(placements[ffea].start, 100.0);
    assert_eq!(placements[aamd].start, 100.0, "branches overlap");
    // Critical path: cryo 100 → AAMD 800 → CVAE 400 → GNO 200 = 1500.
    assert_eq!(makespan, 1500.0);
    assert!(placements[gno].start >= placements[anca].end);
    assert!(placements[gno].start >= placements[cvae].end);
}
