//! The materials ML + Monte-Carlo active-learning loop (paper Section V-A).
//!
//! Liu et al. couple a Monte-Carlo sampler of alloy configurations to an ML
//! energy model trained on first-principles (DFT) data, retraining the
//! model with configurations visited during sampling, to predict
//! order–disorder transitions in high-entropy alloys. We reproduce the
//! loop on the canonical order–disorder system — a 2D Ising lattice:
//!
//! * the "first-principles" energy is the exact Ising Hamiltonian
//!   (expensive in the real campaign, exact here);
//! * the surrogate is an MLP over global lattice descriptors (bond
//!   alignment, magnetization, magnetization²);
//! * Metropolis sampling is driven by the **surrogate**;
//! * each active-learning iteration evaluates the true energy on a batch
//!   of visited configurations and retrains.
//!
//! Tested claims: surrogate error on freshly-visited states drops across
//! iterations (the active-learning payoff, cf. Zhang et al.'s uniformly
//! accurate potentials), and the surrogate-driven sampler reproduces the
//! order–disorder transition (high |magnetization| below T_c ≈ 2.27 J/k_B,
//! low above).

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;
use summit_dl::{optim::Adam, trainer::Trainer};
use summit_tensor::Matrix;

/// A periodic 2D Ising lattice of ±1 spins.
#[derive(Debug, Clone)]
pub struct AlloyLattice {
    size: usize,
    spins: Vec<i8>,
}

impl AlloyLattice {
    /// A random lattice of `size × size` spins.
    ///
    /// # Panics
    /// Panics if `size < 2`.
    pub fn random(size: usize, seed: u64) -> Self {
        assert!(size >= 2, "lattice too small");
        let mut rng = StdRng::seed_from_u64(seed);
        let spins = (0..size * size)
            .map(|_| if rng.gen_bool(0.5) { 1i8 } else { -1i8 })
            .collect();
        AlloyLattice { size, spins }
    }

    /// Lattice edge length.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of sites.
    pub fn sites(&self) -> usize {
        self.size * self.size
    }

    fn idx(&self, r: usize, c: usize) -> usize {
        (r % self.size) * self.size + (c % self.size)
    }

    /// Sum of spins.
    fn spin_sum(&self) -> i64 {
        self.spins.iter().map(|&s| i64::from(s)).sum()
    }

    /// Sum of nearest-neighbor products over all bonds (each bond once).
    fn bond_sum(&self) -> i64 {
        let mut acc = 0i64;
        for r in 0..self.size {
            for c in 0..self.size {
                let s = i64::from(self.spins[self.idx(r, c)]);
                acc += s * i64::from(self.spins[self.idx(r + 1, c)]);
                acc += s * i64::from(self.spins[self.idx(r, c + 1)]);
            }
        }
        acc
    }

    /// Exact ("first-principles") energy per site with J = 1:
    /// `E/N = −bond_sum / N`.
    fn true_energy_per_site(&self) -> f32 {
        -(self.bond_sum() as f32) / self.sites() as f32
    }

    /// Magnetization per site in [−1, 1].
    pub fn magnetization(&self) -> f32 {
        self.spin_sum() as f32 / self.sites() as f32
    }

    /// Global descriptors for the surrogate: bond alignment fraction,
    /// magnetization, magnetization².
    pub fn descriptors(&self) -> [f32; 3] {
        let n_bonds = (2 * self.sites()) as f32;
        let b = self.bond_sum() as f32 / n_bonds;
        let m = self.magnetization();
        [b, m, m * m]
    }

    /// Descriptors after flipping site (r, c), without flipping it: the
    /// flip's bond and spin deltas are O(1), but the bond and spin sums
    /// they apply to are recomputed in O(N).
    fn descriptors_after_flip(&self, r: usize, c: usize) -> [f32; 3] {
        let s = i64::from(self.spins[self.idx(r, c)]);
        let nn = i64::from(self.spins[self.idx(r + 1, c)])
            + i64::from(self.spins[self.idx(r + self.size - 1, c)])
            + i64::from(self.spins[self.idx(r, c + 1)])
            + i64::from(self.spins[self.idx(r, c + self.size - 1)]);
        let new_bond = self.bond_sum() - 2 * s * nn;
        let new_spin = self.spin_sum() - 2 * s;
        let n_bonds = (2 * self.sites()) as f32;
        let m = new_spin as f32 / self.sites() as f32;
        [new_bond as f32 / n_bonds, m, m * m]
    }

    fn flip(&mut self, r: usize, c: usize) {
        let i = self.idx(r, c);
        self.spins[i] = -self.spins[i];
    }
}

/// The active-learning campaign.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct MaterialsLoop {
    /// Lattice edge length.
    pub lattice_size: usize,
    /// Active-learning iterations (MC → label → retrain).
    pub iterations: u32,
    /// Metropolis sweeps per iteration.
    pub sweeps_per_iteration: u32,
    /// Configurations labeled with the true energy per iteration.
    pub labels_per_iteration: usize,
    /// Sampling temperature for the training loop (J/k_B units).
    pub temperature: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MaterialsLoop {
    fn default() -> Self {
        MaterialsLoop {
            lattice_size: 10,
            iterations: 5,
            sweeps_per_iteration: 30,
            labels_per_iteration: 60,
            temperature: 2.5,
            seed: 17,
        }
    }
}

/// Result of the campaign: surrogate error per iteration and the final
/// model packaged for temperature sweeps.
pub struct MaterialsOutcome {
    /// RMSE of the surrogate on freshly-visited configurations, one entry
    /// per active-learning iteration (should decrease).
    pub rmse_per_iteration: Vec<f32>,
    /// The trained surrogate.
    pub surrogate: Trainer,
    /// Total true-energy ("DFT") evaluations spent.
    pub dft_evaluations: usize,
}

impl MaterialsLoop {
    fn surrogate_energy(model: &mut Trainer, desc: [f32; 3], sites: usize) -> f32 {
        let x = Matrix::from_vec(1, 3, desc.to_vec());
        model.predict(&x).get(0, 0) * sites as f32
    }

    /// Metropolis sweeps driven by the surrogate energy. Collects the
    /// lattice descriptors (and clones for labeling) along the way.
    fn mc_sweeps(
        lattice: &mut AlloyLattice,
        model: &mut Trainer,
        sweeps: u32,
        temperature: f32,
        rng: &mut StdRng,
        visited: &mut Vec<([f32; 3], f32)>,
    ) {
        let size = lattice.size();
        for _ in 0..sweeps {
            for _ in 0..lattice.sites() {
                let r = rng.gen_range(0..size);
                let c = rng.gen_range(0..size);
                let e_old = Self::surrogate_energy(model, lattice.descriptors(), lattice.sites());
                let e_new = Self::surrogate_energy(
                    model,
                    lattice.descriptors_after_flip(r, c),
                    lattice.sites(),
                );
                let de = e_new - e_old;
                if de <= 0.0 || rng.gen::<f32>() < (-de / temperature).exp() {
                    lattice.flip(r, c);
                }
            }
            visited.push((lattice.descriptors(), lattice.true_energy_per_site()));
        }
    }

    /// Run the active-learning loop.
    pub fn run(&self) -> MaterialsOutcome {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut lattice = AlloyLattice::random(self.lattice_size, self.seed);
        let mut surrogate = Trainer::regressor(3, &[16], Adam::new(0.01, 0.0), self.seed);
        // Seed the training set with reference structures of known energy
        // (the ordered ground states and the fully anti-aligned lattice) —
        // real alloy campaigns anchor their models with such references,
        // and it pins the surrogate's extrapolation to the ordered phase.
        let mut training: Vec<([f32; 3], f32)> = Vec::new();
        {
            let mut reference = AlloyLattice::random(self.lattice_size, 0);
            reference.spins.iter_mut().for_each(|s| *s = 1);
            training.push((reference.descriptors(), reference.true_energy_per_site()));
            reference.spins.iter_mut().for_each(|s| *s = -1);
            training.push((reference.descriptors(), reference.true_energy_per_site()));
            for (i, s) in reference.spins.iter_mut().enumerate() {
                let (r, c) = (i / self.lattice_size, i % self.lattice_size);
                *s = if (r + c) % 2 == 0 { 1 } else { -1 };
            }
            training.push((reference.descriptors(), reference.true_energy_per_site()));
        }
        let mut rmse_per_iteration = Vec::with_capacity(self.iterations as usize);
        let mut dft_evaluations = 0usize;

        for _ in 0..self.iterations {
            // Sample with the current (possibly poor) surrogate.
            let mut visited = Vec::new();
            Self::mc_sweeps(
                &mut lattice,
                &mut surrogate,
                self.sweeps_per_iteration,
                self.temperature,
                &mut rng,
                &mut visited,
            );
            // Measure surrogate quality on the fresh states BEFORE training
            // on them (honest generalization estimate).
            let rmse = {
                let mut se = 0.0f32;
                for &(desc, truth) in &visited {
                    let pred = Self::surrogate_energy(&mut surrogate, desc, lattice.sites())
                        / lattice.sites() as f32;
                    se += (pred - truth).powi(2);
                }
                (se / visited.len() as f32).sqrt()
            };
            rmse_per_iteration.push(rmse);
            // "DFT"-label a batch of visited configurations and retrain.
            let take = visited.len().min(self.labels_per_iteration);
            training.extend(visited.iter().take(take).copied());
            dft_evaluations += take;
            let mut x = Matrix::zeros(training.len(), 3);
            let mut y = Matrix::zeros(training.len(), 1);
            for (i, &(desc, e)) in training.iter().enumerate() {
                x.row_mut(i).copy_from_slice(&desc);
                y.set(i, 0, e);
            }
            surrogate.fit(&x, &y, 150);
        }

        MaterialsOutcome {
            rmse_per_iteration,
            surrogate,
            dft_evaluations,
        }
    }

    /// Temperature sweep with the trained surrogate driving Metropolis:
    /// returns `(temperature, |magnetization|)` pairs. The order–disorder
    /// transition appears as |m| falling from ≈1 to ≈0 near T_c ≈ 2.27.
    pub fn magnetization_sweep(
        &self,
        surrogate: &mut Trainer,
        temperatures: &[f32],
        sweeps: u32,
    ) -> Vec<(f32, f32)> {
        let mut out = Vec::with_capacity(temperatures.len());
        for (i, &t) in temperatures.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(1000 + i as u64));
            // Start ordered so low temperatures stay in the ordered basin
            // within a short equilibration (standard practice).
            let mut lattice = AlloyLattice::random(self.lattice_size, 0);
            lattice.spins.iter_mut().for_each(|s| *s = 1);
            let mut visited = Vec::new();
            Self::mc_sweeps(&mut lattice, surrogate, sweeps, t, &mut rng, &mut visited);
            // Average |m| over the second half of the trajectory.
            let half = visited.len() / 2;
            let mean_abs_m: f32 = visited[half..]
                .iter()
                .map(|(desc, _)| desc[1].abs())
                .sum::<f32>()
                / (visited.len() - half) as f32;
            out.push((t, mean_abs_m));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_descriptors_consistent_with_flip() {
        let mut l = AlloyLattice::random(6, 3);
        let predicted = l.descriptors_after_flip(2, 4);
        l.flip(2, 4);
        let actual = l.descriptors();
        for (p, a) in predicted.iter().zip(actual.iter()) {
            assert!((p - a).abs() < 1e-6, "{predicted:?} vs {actual:?}");
        }
    }

    #[test]
    fn ground_state_energy_is_minus_two() {
        // All-up lattice: every bond aligned → E/N = −2 (two bonds/site).
        let mut l = AlloyLattice::random(8, 0);
        l.spins.iter_mut().for_each(|s| *s = 1);
        assert!((l.true_energy_per_site() + 2.0).abs() < 1e-6);
        assert_eq!(l.magnetization(), 1.0);
    }

    #[test]
    fn active_learning_reduces_surrogate_error() {
        let cfg = MaterialsLoop::default();
        let outcome = cfg.run();
        let first = outcome.rmse_per_iteration[0];
        let last = *outcome.rmse_per_iteration.last().expect("non-empty");
        assert!(
            last < first * 0.5,
            "RMSE did not halve: {:?}",
            outcome.rmse_per_iteration
        );
        assert_eq!(
            outcome.dft_evaluations,
            cfg.iterations as usize
                * (cfg.sweeps_per_iteration as usize).min(cfg.labels_per_iteration)
        );
    }

    #[test]
    fn surrogate_driven_mc_shows_order_disorder_transition() {
        let campaign = MaterialsLoop::default();
        let mut outcome = campaign.run();
        let sweep = campaign.magnetization_sweep(&mut outcome.surrogate, &[1.2, 4.0], 40);
        let (low_t, high_t) = (sweep[0].1, sweep[1].1);
        assert!(low_t > 0.8, "ordered phase |m| = {low_t}");
        assert!(high_t < 0.45, "disordered phase |m| = {high_t}");
    }

    #[test]
    fn deterministic() {
        let a = MaterialsLoop::default().run();
        let b = MaterialsLoop::default().run();
        assert_eq!(a.rmse_per_iteration, b.rmse_per_iteration);
    }
}
