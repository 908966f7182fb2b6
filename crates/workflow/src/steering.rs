//! A DeepDriveMD-style steering loop (paper Sections IV-A and V-C).
//!
//! Casalino et al. and Amaro et al. steer molecular-dynamics sampling with
//! an ML model (a CVAE / adversarial autoencoder) that identifies which
//! conformations are worth simulating next. We reproduce the pattern on a
//! synthetic landscape: simulations are random walks in a 2D
//! "conformational space", the rare event is reaching a small target
//! region far from the starting basin, and an MLP learns to predict a
//! sample's progress and selects the seeds for the next round of
//! simulations. The claim exercised (and tested): ML steering reaches the
//! rare region with far fewer simulations than uniform seed selection.

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;
use summit_dl::{optim::Adam, trainer::Trainer};
use summit_tensor::Matrix;

use crate::engine::{Facility, WorkflowBuilder};

/// Seed-selection policy for each simulation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Policy {
    /// An MLP trained on observed progress picks the most promising seeds.
    MlSteered,
    /// Seeds drawn uniformly from past samples (the unsteered baseline).
    Random,
}

/// Configuration of the steering campaign.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SteeringConfig {
    /// Simulation rounds.
    pub rounds: u32,
    /// Parallel simulations per round.
    pub sims_per_round: u32,
    /// Random-walk steps per simulation.
    pub steps_per_sim: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SteeringConfig {
    fn default() -> Self {
        SteeringConfig {
            rounds: 12,
            sims_per_round: 8,
            steps_per_sim: 15,
            seed: 42,
        }
    }
}

/// Result of a steering campaign.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SteeringOutcome {
    /// Samples that landed in the rare target region.
    pub rare_hits: u32,
    /// Total samples generated.
    pub total_samples: u32,
    /// Closest approach to the target center.
    pub best_distance: f32,
    /// Simulations executed.
    pub simulations: u32,
}

/// Target region: a disc of radius 0.6 at (3, 3); walks start near the
/// origin, so unsteered exploration rarely gets there.
const TARGET: (f32, f32) = (3.0, 3.0);
const TARGET_RADIUS: f32 = 0.6;

fn distance_to_target(x: f32, y: f32) -> f32 {
    ((x - TARGET.0).powi(2) + (y - TARGET.1).powi(2)).sqrt()
}

/// One "MD" trajectory: an unbiased random walk from a seed point.
/// Returns `(x, y, progress)` samples, `progress = −distance` (the
/// observable the ML model learns to predict).
fn simulate(seed_point: (f32, f32), steps: u32, rng_seed: u64) -> Vec<(f32, f32, f32)> {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut out = Vec::with_capacity(steps as usize);
    let (mut x, mut y) = seed_point;
    for _ in 0..steps {
        x += rng.gen_range(-0.35f32..0.35);
        y += rng.gen_range(-0.35f32..0.35);
        out.push((x, y, -distance_to_target(x, y)));
    }
    out
}

/// The archive as a surrogate data set: positions (`n × 2`) and progress
/// (`n × 1`).
fn training_set(archive: &[(f32, f32, f32)]) -> (Matrix, Matrix) {
    let n = archive.len();
    let x = archive.iter().flat_map(|&(px, py, _)| [px, py]).collect();
    let y = archive.iter().map(|s| s.2).collect();
    (Matrix::from_vec(n, 2, x), Matrix::from_vec(n, 1, y))
}

/// The steering campaign driver.
#[derive(Debug)]
pub struct SteeringLoop {
    config: SteeringConfig,
}

impl SteeringLoop {
    /// Create a campaign.
    pub fn new(config: SteeringConfig) -> Self {
        SteeringLoop { config }
    }

    /// Run the campaign under a policy. Simulations within a round execute
    /// concurrently through the workflow engine (they are the "MD tasks");
    /// the training/selection step is the coordination point, exactly as in
    /// DeepDriveMD.
    pub fn run(&self, policy: Policy) -> SteeringOutcome {
        let cfg = self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // All samples observed so far: (x, y, progress).
        let mut archive: Vec<(f32, f32, f32)> = vec![(0.0, 0.0, -distance_to_target(0.0, 0.0))];
        let mut model = Trainer::regressor(2, &[16], Adam::new(0.01, 0.0), cfg.seed);
        let mut simulations = 0u32;

        for round in 0..cfg.rounds {
            // Select seeds for this round.
            let seeds: Vec<(f32, f32)> = match policy {
                Policy::Random => (0..cfg.sims_per_round)
                    .map(|_| {
                        let (x, y, _) = archive[rng.gen_range(0..archive.len())];
                        (x, y)
                    })
                    .collect(),
                Policy::MlSteered => {
                    // Predict progress for every archived sample and take
                    // the most promising ones.
                    let (x, _) = training_set(&archive);
                    model
                        .rank(&x, true)
                        .into_iter()
                        .take(cfg.sims_per_round as usize)
                        .map(|i| (archive[i].0, archive[i].1))
                        .collect()
                }
            };

            // Run the round's simulations as a parallel workflow stage.
            let mut wf: WorkflowBuilder<Vec<(f32, f32, f32)>> = WorkflowBuilder::new();
            for (k, &seed_point) in seeds.iter().enumerate() {
                let task_seed = cfg
                    .seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add(u64::from(round) * 1000 + k as u64);
                let steps = cfg.steps_per_sim;
                wf.task(
                    format!("md-r{round}-{k}"),
                    Facility::Summit,
                    600.0,
                    vec![],
                    move |_| simulate(seed_point, steps, task_seed),
                );
            }
            let outputs = wf.run(4);
            simulations += seeds.len() as u32;
            for out in outputs {
                archive.extend(out.iter().copied());
            }

            // Train the progress model on everything observed (the "CVAE
            // training on Summit" step).
            if policy == Policy::MlSteered {
                let (x, y) = training_set(&archive);
                model.fit(&x, &y, 30);
            }
        }

        let rare_hits = archive
            .iter()
            .filter(|&&(x, y, _)| distance_to_target(x, y) <= TARGET_RADIUS)
            .count() as u32;
        let best_distance = archive
            .iter()
            .map(|&(x, y, _)| distance_to_target(x, y))
            .fold(f32::INFINITY, f32::min);
        SteeringOutcome {
            rare_hits,
            total_samples: archive.len() as u32,
            best_distance,
            simulations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steering_beats_random_sampling() {
        let campaign = SteeringLoop::new(SteeringConfig::default());
        let steered = campaign.run(Policy::MlSteered);
        let random = campaign.run(Policy::Random);
        assert!(
            steered.best_distance < random.best_distance,
            "steered {} vs random {}",
            steered.best_distance,
            random.best_distance
        );
        assert!(
            steered.rare_hits > random.rare_hits,
            "steered {} hits vs random {}",
            steered.rare_hits,
            random.rare_hits
        );
    }

    #[test]
    fn steering_reaches_the_rare_region() {
        let outcome = SteeringLoop::new(SteeringConfig::default()).run(Policy::MlSteered);
        assert!(outcome.rare_hits > 0, "never reached the target region");
    }

    #[test]
    fn budgets_accounted() {
        let cfg = SteeringConfig::default();
        let outcome = SteeringLoop::new(cfg).run(Policy::Random);
        assert_eq!(outcome.simulations, cfg.rounds * cfg.sims_per_round);
        assert_eq!(
            outcome.total_samples,
            1 + cfg.rounds * cfg.sims_per_round * cfg.steps_per_sim
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let campaign = SteeringLoop::new(SteeringConfig::default());
        let a = campaign.run(Policy::MlSteered);
        let b = campaign.run(Policy::MlSteered);
        assert_eq!(a.rare_hits, b.rare_hits);
        assert_eq!(a.best_distance, b.best_distance);
    }
}
