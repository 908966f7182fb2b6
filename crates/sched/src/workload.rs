//! Real kernels behind dispatched jobs: the scheduler's execution backend.
//!
//! The batch simulator decides *when* a job runs; this module is *what*
//! runs. Each [`Workload`] launches a small [`World`] (threads-as-ranks,
//! real message passing, core budget leased from the
//! [`summit_pool::arbiter`]) and executes a miniature of one survey
//! portfolio kernel:
//!
//! - [`WorkloadKind::Training`] — a synchronous data-parallel training
//!   step on Gaussian blobs ([`summit_dl::DataParallelTrainer`]); the
//!   objective is the final loss.
//! - [`WorkloadKind::Stencil`] — a strip-decomposed diffusion solve with
//!   real halo exchange ([`summit_modsim::ParallelSolver`]); the objective
//!   is the field's sum of squares (total mass is conserved, so the
//!   L2 decay is the interesting scalar).
//! - [`WorkloadKind::Md`] — per-rank Lennard-Jones lattices integrated
//!   with velocity Verlet, final energies combined with a real
//!   ring allreduce; the objective is the mean total energy.
//!
//! Everything is seeded and thread-count independent, so a workload's
//! objective is bit-identical whether its world runs alone or among
//! hundreds of concurrent worlds — the multi-world stress tests pin this.

use serde::Serialize;
use summit_comm::collectives::run;
use summit_comm::world::World;
use summit_comm::{Collective, ReduceOp};
use summit_dl::data::blobs;
use summit_dl::{Adam, DataParallelTrainer, LrSchedule, MlpSpec, Optimizer};
use summit_md::{LennardJones, System};
use summit_modsim::{Field, ParallelSolver};

/// Which survey-portfolio kernel a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum WorkloadKind {
    /// Data-parallel MLP training (Learning motifs: surrogates, submodels).
    Training,
    /// Halo-exchange diffusion stencil (grid-based modsim codes).
    Stencil,
    /// Lennard-Jones molecular dynamics (MD potentials / sampling).
    Md,
}

impl WorkloadKind {
    /// All kinds, in portfolio order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Training,
        WorkloadKind::Stencil,
        WorkloadKind::Md,
    ];
}

/// A fully specified unit of work: kind, world size, and seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Workload {
    /// Kernel to run.
    pub kind: WorkloadKind,
    /// Ranks in the world this workload launches (small on purpose: the
    /// facility scenario runs hundreds of these concurrently).
    pub ranks: usize,
    /// Seed controlling the kernel's data; also a tunable "simulation
    /// parameter" the steering loop optimizes over (for MD it sets the
    /// initial velocity scale).
    pub seed: u64,
}

/// What came back from running a workload.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WorkloadResult {
    /// The kernel's scalar objective (loss / L2 norm / mean energy).
    /// Deterministic for a given [`Workload`].
    pub objective: f64,
    /// Point-to-point messages the world's ranks exchanged.
    pub messages: u64,
    /// Payload bytes those messages carried.
    pub bytes: u64,
    /// Lazily created channel links in the world's fabric.
    pub links: u64,
}

impl Workload {
    /// Create a workload, clamping `ranks` to the kernel's legal range.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn new(kind: WorkloadKind, ranks: usize, seed: u64) -> Self {
        assert!(ranks > 0, "a workload needs at least one rank");
        // The stencil strip-decomposes STENCIL_ROWS rows; keep ranks a
        // divisor so every spec is runnable as-is.
        let ranks = match kind {
            WorkloadKind::Stencil => match ranks {
                1 | 2 | 3 | 4 | 6 => ranks,
                5 => 4,
                _ => 6,
            },
            _ => ranks.min(8),
        };
        Workload { kind, ranks, seed }
    }

    /// Run the kernel in a fresh world. Convenience for
    /// [`Workload::execute_in`].
    pub fn execute(&self) -> WorkloadResult {
        self.execute_in(&mut World::new(self.ranks))
    }

    /// Run the kernel on a caller-provided world (`world.size()` must equal
    /// `self.ranks`). The world leases its core budget from the global
    /// arbiter for the duration and is reusable afterwards.
    ///
    /// # Panics
    /// Panics if the world size does not match.
    pub fn execute_in(&self, world: &mut World) -> WorkloadResult {
        assert_eq!(world.size(), self.ranks, "world sized for another job");
        let objective = match self.kind {
            WorkloadKind::Training => self.run_training(world),
            WorkloadKind::Stencil => self.run_stencil(world),
            WorkloadKind::Md => self.run_md(world),
        };
        let traffic = world.last_traffic();
        WorkloadResult {
            objective,
            messages: traffic.messages_sent,
            bytes: traffic.bytes_sent,
            links: world.links_created(),
        }
    }

    fn run_training(&self, world: &mut World) -> f64 {
        let ranks = self.ranks;
        // One global batch per step, two steps: enough to move the loss,
        // small enough to run hundreds of replicas concurrently.
        let per_rank_batch = 8;
        let task = blobs(per_rank_batch * ranks * 2, 4, 3, 0.4, self.seed);
        let trainer = DataParallelTrainer::new(ranks, per_rank_batch);
        let seed = self.seed;
        let outcome = trainer.run_in(
            world,
            || MlpSpec::new(4, &[8], 3).build(seed),
            || Box::new(Adam::new(0.05, 0.0)) as Box<dyn Optimizer>,
            LrSchedule::Constant,
            &task.x,
            &task.y,
            1,
        );
        f64::from(outcome.loss)
    }

    fn run_stencil(&self, world: &mut World) -> f64 {
        const STENCIL_ROWS: usize = 12; // divisible by 1,2,3,4,6
        let mut init = Field::new(STENCIL_ROWS, 8);
        init.fill_test_pattern();
        // Perturb the initial condition by the seed so distinct jobs are
        // distinct problems (deterministically).
        let bump = (self.seed % 97) as f32 / 97.0;
        init.set_interior(0, 0, init.get(0, 0) + bump);
        let solver = ParallelSolver {
            alpha: 0.2,
            dt: 0.05,
            reaction: None,
        };
        let out = solver.run_in(world, &init, 10);
        let mut l2 = 0.0f64;
        for r in 0..out.ny() {
            for c in 0..out.nx() {
                let v = f64::from(out.get(r as isize, c as isize));
                l2 += v * v;
            }
        }
        l2
    }

    fn run_md(&self, world: &mut World) -> f64 {
        let seed = self.seed;
        let energies = world.execute(move |rank| {
            // Each rank integrates its own small LJ lattice; the seed
            // doubles as the physical knob (initial velocity scale) the
            // steering loop tunes.
            let v_scale = 0.5 + (seed % 16) as f64 / 16.0;
            let mut system = System::lattice(4, 6.0, v_scale, seed + rank.id() as u64);
            let lj = LennardJones::standard();
            system.run(&lj, 20, 0.002);
            let mut e = [system.total_energy(&lj) as f32];
            if rank.size() > 1 {
                run(rank, Collective::RING, &mut e, ReduceOp::Sum);
            }
            f64::from(e[0]) / rank.size() as f64
        });
        // All ranks hold the same reduced mean; take rank 0's copy.
        energies[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_runs_and_is_deterministic() {
        for kind in WorkloadKind::ALL {
            let w = Workload::new(kind, 2, 11);
            let a = w.execute();
            let b = w.execute();
            assert_eq!(
                a.objective.to_bits(),
                b.objective.to_bits(),
                "{kind:?} not bit-stable"
            );
            assert!(a.objective.is_finite(), "{kind:?} objective not finite");
        }
    }

    #[test]
    fn multirank_workloads_really_communicate() {
        for kind in WorkloadKind::ALL {
            let w = Workload::new(kind, 3, 5);
            let r = w.execute();
            assert!(r.messages > 0, "{kind:?} exchanged no messages");
            assert!(r.bytes > 0, "{kind:?} moved no bytes");
            assert!(r.links > 0, "{kind:?} opened no links");
        }
    }

    #[test]
    fn reusing_one_world_matches_fresh_worlds() {
        let w = Workload::new(WorkloadKind::Md, 2, 42);
        let fresh = w.execute();
        let mut world = World::new(2);
        let first = w.execute_in(&mut world);
        let second = w.execute_in(&mut world);
        assert_eq!(fresh.objective.to_bits(), first.objective.to_bits());
        assert_eq!(first.objective.to_bits(), second.objective.to_bits());
    }

    #[test]
    fn stencil_ranks_are_clamped_to_divisors() {
        assert_eq!(Workload::new(WorkloadKind::Stencil, 5, 0).ranks, 4);
        assert_eq!(Workload::new(WorkloadKind::Stencil, 7, 0).ranks, 6);
        assert_eq!(Workload::new(WorkloadKind::Stencil, 3, 0).ranks, 3);
    }

    #[test]
    fn seed_moves_the_objective() {
        let a = Workload::new(WorkloadKind::Md, 1, 1).execute();
        let b = Workload::new(WorkloadKind::Md, 1, 9).execute();
        assert_ne!(a.objective.to_bits(), b.objective.to_bits());
    }
}
