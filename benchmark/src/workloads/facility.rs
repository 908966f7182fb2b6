//! `facility_wave`: hundreds of tiny concurrent worlds per wave — the
//! opposite use of `comm::world` and the core arbiter from the one
//! long-lived world of the training workloads.

use summit_comm::World;
use summit_machine::MachineSpec;
use summit_sched::facility::{run_facility, FacilityConfig, FacilityReport};
use summit_sched::trace::{generate_mixed, MixedJob, TraceConfig};
use summit_sched::{Job, Scheduler, WorkloadKind};
use summit_survey::{build_portfolio, job_mix};

use super::{run_units, time_median, Budget, Gate, Layers, Measured, Unit, Workload};
use crate::trace::Tracer;

/// Seed of the job trace itself (`sched_gate`'s). The benchmark seed only
/// re-seeds each job's kernel data: which kernels run, and on how many
/// ranks, stays the same from seed to seed, so a wave is the same amount
/// of work.
const TRACE_SEED: u64 = 90;
/// Largest world `generate_mixed` asks for.
const MAX_RANKS: usize = 4;

pub struct Sizes {
    jobs: usize,
    /// Fewest simultaneously live worlds a wave must show.
    min_live_worlds: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Self {
        if quick {
            return Sizes {
                jobs: 12,
                min_live_worlds: 12,
            };
        }
        Sizes {
            jobs: 220,
            min_live_worlds: 200,
        }
    }
}

pub struct Facility {
    sizes: Sizes,
    machine: MachineSpec,
    jobs: Vec<MixedJob>,
    config: FacilityConfig,
    /// The first wave's report: every later wave must reproduce its
    /// objective vector bit for bit.
    first: FacilityReport,
}

impl Facility {
    pub fn setup(sizes: Sizes, seed: u64) -> Self {
        let machine = MachineSpec::summit();
        let trace = TraceConfig {
            jobs: sizes.jobs,
            window_hours: 48.0,
            max_fraction: 0.5,
        };
        let mut jobs = generate_mixed(&machine, &trace, &job_mix(&build_portfolio()), TRACE_SEED);
        for (i, mixed) in jobs.iter_mut().enumerate() {
            mixed.workload.seed = seed.wrapping_mul(1009).wrapping_add(i as u64);
        }
        let config = FacilityConfig::default();
        let first = run_facility(&machine, &jobs, &config);
        Facility {
            sizes,
            machine,
            jobs,
            config,
            first,
        }
    }
}

fn objective_bits(report: &FacilityReport) -> impl Iterator<Item = u64> + '_ {
    report.objectives.iter().map(|o| o.to_bits())
}

impl Workload for Facility {
    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Measured {
        let jobs = self.jobs.len();
        let mut all_ran = true;
        let mut conserved = true;
        let mut reproducible = true;
        let mut min_live = usize::MAX;
        let mut non_finite = 0u64;
        let units = run_units(budget, || {
            tracer.next_repeat();
            let (report, seconds) = tracer.time("sched", "run_facility", || {
                run_facility(&self.machine, &self.jobs, &self.config)
            });
            all_ran &= report.jobs_run == jobs;
            conserved &= report.conserved && report.peak_leased_lanes <= report.lane_capacity;
            reproducible &= objective_bits(&report).eq(objective_bits(&self.first));
            min_live = min_live.min(report.peak_live_worlds);
            non_finite += report.objectives.iter().filter(|o| !o.is_finite()).count() as u64;
            Unit {
                work: jobs as f64,
                seconds,
            }
        });
        let waves = units.len();
        let need = self.sizes.min_live_worlds;
        Measured {
            units,
            attempted: (jobs * waves) as u64,
            failed: non_finite,
            gates: vec![
                Gate::new(
                    "facility.all_jobs_ran",
                    all_ran,
                    format!("jobs_run == {jobs} on every wave"),
                ),
                Gate::new(
                    "facility.lanes_conserved",
                    conserved,
                    "leased lanes never exceeded the arbiter's capacity",
                ),
                Gate::new(
                    "facility.live_worlds",
                    min_live >= need,
                    format!("{min_live} worlds live at the rendezvous (need ≥ {need})"),
                ),
                Gate::new(
                    "facility.objectives_bit_equal",
                    reproducible,
                    format!("objective vector bit-identical on all {waves} waves"),
                ),
            ],
        }
    }

    fn verify(&mut self) -> Vec<Gate> {
        Vec::new()
    }

    fn probe(&mut self, tracer: &Tracer, measured: &Measured, layers: &mut Layers) {
        let wave_s = measured.unit_seconds();
        let cores = summit_pool::machine_parallelism() as f64;
        layers.set("sched.peak_live_worlds", self.first.peak_live_worlds as f64);
        layers.set("sched.messages", self.first.messages as f64);
        layers.set("sched.bytes", self.first.bytes as f64);

        // What every job pays before its kernel starts.
        let arbiter = summit_pool::arbiter();
        let (lease_s, _) = tracer.time("pool", "CoreArbiter::lease", || {
            time_median(10_000, || drop(std::hint::black_box(arbiter.lease(2))))
        });
        layers.set("pool.lease_ns", lease_s * 1e9);
        let mut spawn_s = [0.0f64; MAX_RANKS + 1];
        for (p, name) in [
            (1, "comm.world_spawn_us.p1"),
            (2, "comm.world_spawn_us.p2"),
            (3, "comm.world_spawn_us.p3"),
            (4, "comm.world_spawn_us.p4"),
        ] {
            let (s, _) = tracer.time("comm", "World::new+execute(no-op)", || {
                time_median(200, || {
                    World::new(p).execute(|_| ());
                })
            });
            spawn_s[p] = s;
            layers.set(name, s * 1e6);
        }
        // `run_facility` executes each world twice: the rendezvous, then
        // the kernel.
        let spawn_total: f64 = self
            .jobs
            .iter()
            .map(|j| 2.0 * spawn_s[j.workload.ranks])
            .sum();
        layers.set("sched.spawn_share", spawn_total / (wave_s * cores));

        let batch: Vec<Job> = self.jobs.iter().map(|m| m.job).collect();
        let scheduler = Scheduler::new(self.machine.nodes);
        let (s, _) = tracer.time("sched", "schedule_with_policy", || {
            time_median(20, || {
                std::hint::black_box(scheduler.schedule_with_policy(&batch, self.config.policy));
            })
        });
        layers.set("sched.schedule_ms", s * 1e3);

        // Every kernel solo, on a reused world of its size.
        let mut worlds: Vec<World> = (1..=MAX_RANKS).map(World::new).collect();
        let mut by_kind: [Vec<f64>; 3] = Default::default();
        tracer.time("sched", "Workload::execute_in(solo, all jobs)", || {
            for mixed in &self.jobs {
                let world = &mut worlds[mixed.workload.ranks - 1];
                let (_, s) = tracer.time("sched", "Workload::execute_in", || {
                    mixed.workload.execute_in(world)
                });
                by_kind[mixed.workload.kind as usize].push(s);
            }
        });
        for (kind, name) in [
            (WorkloadKind::Training, "sched.kernel_ms.training"),
            (WorkloadKind::Stencil, "sched.kernel_ms.stencil"),
            (WorkloadKind::Md, "sched.kernel_ms.md"),
        ] {
            let walls = &by_kind[kind as usize];
            if !walls.is_empty() {
                layers.set(name, walls.iter().sum::<f64>() / walls.len() as f64 * 1e3);
            }
        }
        let useful: f64 = by_kind.iter().flatten().sum();
        layers.set("sched.useful_share", useful / (wave_s * cores));
    }
}
