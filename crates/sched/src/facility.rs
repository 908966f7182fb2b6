//! Run the facility, not just one job: execute a whole schedule's worth of
//! worlds concurrently in one process.
//!
//! The batch simulator decides placement; this module actually *runs* the
//! placed jobs. Jobs execute in waves of [`FacilityConfig::wave_size`]
//! concurrent worlds. Every world in a wave rendezvouses at a shared
//! barrier from **inside** its execution — i.e. while it holds its core
//! lease from the [`summit_pool::arbiter`] — so a wave of `W` worlds
//! provably has `W` live leases at one instant; the report records the
//! arbiter sample taken in that window and checks the conservation
//! invariant (leased lanes ≤ machine capacity).
//!
//! The kernels themselves (training / stencil / MD, real message passing)
//! then run on the same worlds in a second phase, one kernel per arbiter
//! lane: `capacity` workers take the wave's jobs in input order, each
//! under its own execution's lease, so jobs start as lanes free, as the
//! batch scheduler places them, rather than all at once.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use serde::Serialize;
use summit_comm::world::World;
use summit_machine::MachineSpec;

use crate::scheduler::{ScheduleMetrics, Scheduler, SchedulingPolicy};
use crate::trace::{generate, MixedJob, TraceConfig};
use crate::Job;
use crate::Program;

/// Knobs for the facility executor.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FacilityConfig {
    /// Worlds live at once per wave. Hundreds are fine: worlds are small
    /// (1–4 ranks) and construction is lazy.
    pub wave_size: usize,
    /// Scheduling policy used for the placement metrics.
    pub policy: SchedulingPolicy,
}

impl Default for FacilityConfig {
    fn default() -> Self {
        FacilityConfig {
            wave_size: 200,
            policy: SchedulingPolicy::FifoEasy,
        }
    }
}

/// What one execution of a facility scenario produced.
#[derive(Debug, Clone, Serialize)]
pub struct FacilityReport {
    /// Jobs actually executed (== input length).
    pub jobs_run: usize,
    /// Largest number of simultaneously live world leases observed at a
    /// wave rendezvous.
    pub peak_live_worlds: usize,
    /// Largest number of arbiter lanes booked at any sample.
    pub peak_leased_lanes: usize,
    /// The arbiter's lane capacity (machine parallelism).
    pub lane_capacity: usize,
    /// Whether leased ≤ capacity held at every sample (the conservation
    /// invariant; a violation means worlds oversubscribed the machine).
    pub conserved: bool,
    /// Per-job kernel objectives, in input order. Bit-stable: the same
    /// trace reproduces the same vector whether run solo or in waves.
    pub objectives: Vec<f64>,
    /// Total point-to-point messages across all worlds.
    pub messages: u64,
    /// Total payload bytes across all worlds.
    pub bytes: u64,
    /// Placement metrics of the batch schedule for the same jobs.
    pub schedule: ScheduleMetrics,
}

/// Schedule `jobs` on `machine`, then execute every job's workload in
/// waves of concurrent worlds. See the module docs for the concurrency
/// proof obligations encoded in the report.
///
/// # Panics
/// Panics if `jobs` is empty or `config.wave_size == 0`. If kernels
/// panic, the rest of their wave still runs; then the panic of the wave's
/// lowest-index failing job is resumed (a rank's panic names its world
/// and rank).
pub fn run_facility(
    machine: &MachineSpec,
    jobs: &[MixedJob],
    config: &FacilityConfig,
) -> FacilityReport {
    assert!(!jobs.is_empty(), "facility scenario needs jobs");
    assert!(config.wave_size > 0, "wave size must be positive");

    let batch: Vec<Job> = jobs.iter().map(|m| m.job).collect();
    let scheduler = Scheduler::new(machine.nodes);
    let placements = scheduler.schedule_with_policy(&batch, config.policy);
    let schedule = scheduler.metrics(&placements);

    let arbiter = summit_pool::arbiter();
    let mut objectives = vec![0.0f64; jobs.len()];
    let (mut messages, mut bytes) = (0u64, 0u64);
    let conserved = AtomicBool::new(true);
    let peak_live = AtomicUsize::new(0);
    let peak_leased = AtomicUsize::new(0);

    for (wave_start, wave) in jobs
        .chunks(config.wave_size)
        .enumerate()
        .map(|(i, w)| (i * config.wave_size, w))
    {
        // The wave's worlds outlive both phases: each job's kernel runs on
        // the world that rendezvoused for it.
        let worlds: Vec<Mutex<World>> = wave
            .iter()
            .map(|mixed| Mutex::new(World::new(mixed.workload.ranks)))
            .collect();

        // Rendezvous: every world's rank 0 plus the sampler. `arrived`
        // then `released` bracket a window in which all wave worlds hold
        // live leases; the sampler reads the arbiter inside that window.
        let arrived = Barrier::new(wave.len() + 1);
        let released = Barrier::new(wave.len() + 1);

        // Index 0 (this thread) is the sampler; index `1 + k` holds world
        // `k`'s lease across the rendezvous on a rank runner.
        let rendezvous = summit_pool::run_parked(wave.len() + 1, |i| {
            let Some(world) = i.checked_sub(1).map(|k| &worlds[k]) else {
                arrived.wait();
                let sample = arbiter.stats();
                conserved.fetch_and(sample.leased <= sample.capacity, Ordering::Relaxed);
                peak_live.fetch_max(sample.live_leases, Ordering::Relaxed);
                peak_leased.fetch_max(sample.leased, Ordering::Relaxed);
                released.wait();
                return;
            };
            let mut world = world.lock().expect("world lock poisoned");
            world.execute(|rank| {
                if rank.id() == 0 {
                    arrived.wait();
                    released.wait();
                }
            });
        });
        for outcome in rendezvous {
            outcome.unwrap_or_else(|payload| resume_unwind(payload));
        }

        // Kernels: one worker per arbiter lane takes the wave's jobs in
        // input order, so jobs start as lanes free instead of all at once.
        let next = AtomicUsize::new(0);
        let lanes = summit_pool::run_parked(arbiter.capacity().min(wave.len()), |_| {
            let mut done = Vec::new();
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(mixed) = wave.get(k) else {
                    return done;
                };
                let mut world = worlds[k].lock().expect("world lock poisoned");
                let outcome =
                    catch_unwind(AssertUnwindSafe(|| mixed.workload.execute_in(&mut world)));
                done.push((k, outcome));
            }
        });
        let mut outcomes: Vec<_> = lanes
            .into_iter()
            .flat_map(|lane| lane.expect("kernels run under catch_unwind"))
            .collect();
        outcomes.sort_unstable_by_key(|&(k, _)| k);
        for (k, outcome) in outcomes {
            let result = outcome.unwrap_or_else(|payload| resume_unwind(payload));
            objectives[wave_start + k] = result.objective;
            messages += result.messages;
            bytes += result.bytes;
        }
    }

    FacilityReport {
        jobs_run: jobs.len(),
        peak_live_worlds: peak_live.into_inner(),
        peak_leased_lanes: peak_leased.into_inner(),
        lane_capacity: arbiter.capacity(),
        conserved: conserved.into_inner(),
        objectives,
        messages,
        bytes,
        schedule,
    }
}

/// Measure the requeue wait a preempted elastic job actually experiences
/// in the batch queue, instead of assuming a constant.
///
/// A shrunken job that must requeue re-enters the queue as a small,
/// short job amid the normal background mix; EASY backfill usually slots
/// it into a draining hole quickly, so the measured wait is far below a
/// naive FIFO estimate. Returns the mean wait in hours over `samples`
/// requeue probes injected at distinct points of a seeded background
/// trace.
///
/// # Panics
/// Panics if `samples == 0`.
pub fn measured_requeue_wait_hours(machine: &MachineSpec, seed: u64, samples: usize) -> f64 {
    assert!(samples > 0, "need at least one requeue probe");
    // A leadership queue is never idle: capability-heavy background at
    // ≈93% utilization, so the probe actually contends for nodes instead
    // of backfilling into an empty machine.
    const WINDOW_HOURS: f64 = 48.0;
    let background = generate(
        machine,
        &TraceConfig {
            jobs: 400,
            window_hours: WINDOW_HOURS,
            max_fraction: 1.0,
        },
        seed,
    );
    let scheduler = Scheduler::new(machine.nodes);
    let mut total_wait = 0.0f64;
    for i in 0..samples {
        // The requeue probe: tiny node count (the replacement resource
        // set), short remaining walltime, submitted mid-window.
        let probe = Job {
            program: Program::DirectorsDiscretionary,
            nodes: 2,
            walltime_hours: 0.25,
            submit_hours: WINDOW_HOURS * 0.1 + WINDOW_HOURS * 0.8 * (i as f64) / (samples as f64),
        };
        let mut jobs = background.clone();
        jobs.push(probe);
        let placements = scheduler.schedule(&jobs);
        let placed = placements
            .iter()
            .find(|p| p.job == probe)
            .expect("probe job was scheduled");
        total_wait += placed.wait_hours();
    }
    total_wait / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate_mixed, PortfolioMix};
    use crate::{Workload, WorkloadKind};

    #[test]
    fn small_facility_runs_and_conserves() {
        let m = MachineSpec::summit();
        let jobs = generate_mixed(
            &m,
            &TraceConfig {
                jobs: 24,
                window_hours: 24.0,
                max_fraction: 0.25,
            },
            &PortfolioMix::uniform(),
            3,
        );
        let report = run_facility(
            &m,
            &jobs,
            &FacilityConfig {
                wave_size: 12,
                policy: SchedulingPolicy::FifoEasy,
            },
        );
        assert_eq!(report.jobs_run, 24);
        assert_eq!(report.objectives.len(), 24);
        assert!(report.conserved, "lease conservation violated");
        // The sample reads the process-wide arbiter, which sibling tests in
        // this binary lease from too: the rendezvous guarantees the wave's
        // own 12, anything above that is somebody else's world.
        assert!(
            report.peak_live_worlds >= 12,
            "rendezvous must see the wave, saw {}",
            report.peak_live_worlds
        );
        assert!(report.peak_leased_lanes <= report.lane_capacity);
        assert!(report.messages > 0, "no world communicated");
        assert!(report.objectives.iter().all(|o| o.is_finite()));
    }

    #[test]
    fn facility_objectives_match_solo_runs() {
        let m = MachineSpec::summit();
        // One wave of 10; then 30 jobs in waves of 12, 12 and 6, each wave
        // longer than the arbiter has lanes.
        for (jobs, window_hours, wave_size) in [(10, 8.0, 200), (30, 24.0, 12)] {
            let jobs = generate_mixed(
                &m,
                &TraceConfig {
                    jobs,
                    window_hours,
                    max_fraction: 0.1,
                },
                &PortfolioMix::uniform(),
                5,
            );
            let config = FacilityConfig {
                wave_size,
                ..FacilityConfig::default()
            };
            let report = run_facility(&m, &jobs, &config);
            let (mut messages, mut bytes) = (0, 0);
            for (mixed, got) in jobs.iter().zip(&report.objectives) {
                let solo = mixed.workload.execute();
                assert_eq!(
                    solo.objective.to_bits(),
                    got.to_bits(),
                    "objective of {mixed:?} drifted under concurrency"
                );
                messages += solo.messages;
                bytes += solo.bytes;
            }
            assert_eq!((report.messages, report.bytes), (messages, bytes));
        }
    }

    #[test]
    fn a_panicking_kernel_is_resumed_and_leaves_the_facility_usable() {
        let m = MachineSpec::summit();
        let mut jobs = generate_mixed(
            &m,
            &TraceConfig {
                jobs: 8,
                window_hours: 8.0,
                max_fraction: 0.1,
            },
            &PortfolioMix::uniform(),
            7,
        );
        // 12 stencil rows do not divide over 5 ranks: `Workload::new`
        // would clamp this, the literal does not.
        jobs[3].workload = Workload {
            kind: WorkloadKind::Stencil,
            ranks: 5,
            seed: 1,
        };
        let config = FacilityConfig::default();
        let payload = std::panic::catch_unwind(|| run_facility(&m, &jobs, &config))
            .expect_err("a 5-rank stencil must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the assertion formats its message");
        assert!(
            msg.contains("rows (12) must divide over ranks (5)"),
            "{msg}"
        );

        jobs[3].workload = Workload::new(WorkloadKind::Stencil, 5, 1);
        let report = run_facility(&m, &jobs, &config);
        assert_eq!(report.jobs_run, jobs.len());
        for (mixed, got) in jobs.iter().zip(&report.objectives) {
            assert_eq!(mixed.workload.execute().objective.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn requeue_wait_is_measured_and_plausible() {
        let m = MachineSpec::summit();
        let wait = measured_requeue_wait_hours(&m, 90, 6);
        assert!(wait.is_finite() && wait >= 0.0);
        // The probe contends with a ≈93%-utilized background, but EASY
        // backfill still slots a 2-node 15-minute job far faster than its
        // FIFO turn: minutes-to-hours, never a queue-drain timescale.
        assert!(wait < 12.0, "requeue probe waited {wait} h");
        assert!(wait > 0.0, "probe never waited — background not busy");
    }
}
