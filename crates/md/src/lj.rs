//! The Lennard-Jones ground truth (this substrate's "first principles").

use serde::Serialize;

use crate::system::{Potential, System};

/// Truncated-and-shifted Lennard-Jones 12-6 potential.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LennardJones {
    /// Well depth ε.
    pub epsilon: f64,
    /// Length scale σ.
    pub sigma: f64,
    /// Cutoff radius (in absolute units).
    pub cutoff: f64,
}

impl LennardJones {
    /// Reduced units: ε = σ = 1, cutoff 2.5σ.
    pub fn standard() -> Self {
        LennardJones {
            epsilon: 1.0,
            sigma: 1.0,
            cutoff: 2.5,
        }
    }

    /// The pair energy at separation `r` (shifted to zero at the cutoff).
    pub fn pair_energy(&self, r: f64) -> f64 {
        if r >= self.cutoff {
            return 0.0;
        }
        let lj = |rr: f64| {
            let sr6 = (self.sigma / rr).powi(6);
            4.0 * self.epsilon * (sr6 * sr6 - sr6)
        };
        lj(r) - lj(self.cutoff)
    }

    /// Magnitude of the pair force `−dU/dr` (positive = repulsive).
    fn pair_force(&self, r: f64) -> f64 {
        if r >= self.cutoff {
            return 0.0;
        }
        let sr6 = (self.sigma / r).powi(6);
        24.0 * self.epsilon * (2.0 * sr6 * sr6 - sr6) / r
    }
}

impl Potential for LennardJones {
    fn energy_and_forces(&self, system: &System) -> (f64, Vec<(f64, f64)>) {
        let mut energy = 0.0;
        let mut forces = vec![(0.0f64, 0.0f64); system.len()];
        for (i, j, r) in system.pairs_cell_list(self.cutoff) {
            energy += self.pair_energy(r);
            let f = self.pair_force(r);
            let (dx, dy) = system.displacement(i, j);
            // Unit vector from i to j; repulsive force pushes i away from j.
            let (ux, uy) = (dx / r, dy / r);
            forces[i].0 -= f * ux;
            forces[i].1 -= f * uy;
            forces[j].0 += f * ux;
            forces[j].1 += f * uy;
        }
        (energy, forces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_at_two_to_the_sixth() {
        let lj = LennardJones::standard();
        let r_min = 2.0f64.powf(1.0 / 6.0);
        assert!(lj.pair_force(r_min).abs() < 1e-9, "force at minimum");
        assert!(lj.pair_energy(r_min) < lj.pair_energy(1.5));
        assert!(lj.pair_energy(r_min) < lj.pair_energy(1.0));
    }

    #[test]
    fn force_is_minus_energy_gradient() {
        let lj = LennardJones::standard();
        let eps = 1e-6;
        for r in [0.95f64, 1.05, 1.2, 1.5, 2.0, 2.4] {
            let fd = -(lj.pair_energy(r + eps) - lj.pair_energy(r - eps)) / (2.0 * eps);
            let f = lj.pair_force(r);
            assert!(
                (fd - f).abs() < 1e-4 * f.abs().max(1.0),
                "r={r}: {fd} vs {f}"
            );
        }
    }

    #[test]
    fn cutoff_is_smooth_in_energy() {
        let lj = LennardJones::standard();
        assert!(lj.pair_energy(2.4999).abs() < 1e-4);
        assert_eq!(lj.pair_energy(2.5), 0.0);
        assert_eq!(lj.pair_force(2.6), 0.0);
    }

    #[test]
    fn forces_sum_to_zero() {
        let sys = crate::system::System::lattice(25, 6.0, 0.2, 5);
        let (_, forces) = LennardJones::standard().energy_and_forces(&sys);
        let (fx, fy) = forces
            .iter()
            .fold((0.0, 0.0), |(ax, ay), &(x, y)| (ax + x, ay + y));
        assert!(
            fx.abs() < 1e-9 && fy.abs() < 1e-9,
            "Newton's third law violated"
        );
    }

    #[test]
    fn system_forces_match_numeric_gradient() {
        // Finite-difference the total energy w.r.t. one atom's coordinates.
        let lj = LennardJones::standard();
        let sys = crate::system::System::lattice(16, 5.2, 0.0, 9);
        let (_, forces) = lj.energy_and_forces(&sys);
        let eps = 1e-6;
        for atom in [0usize, 7, 15] {
            for dim in 0..2 {
                let mut plus = sys.clone();
                let mut minus = sys.clone();
                if dim == 0 {
                    plus.positions[atom].0 += eps;
                    minus.positions[atom].0 -= eps;
                } else {
                    plus.positions[atom].1 += eps;
                    minus.positions[atom].1 -= eps;
                }
                let fd =
                    -(lj.energy_and_forces(&plus).0 - lj.energy_and_forces(&minus).0) / (2.0 * eps);
                let analytic = if dim == 0 {
                    forces[atom].0
                } else {
                    forces[atom].1
                };
                assert!(
                    (fd - analytic).abs() < 1e-4 * analytic.abs().max(1.0),
                    "atom {atom} dim {dim}: {fd} vs {analytic}"
                );
            }
        }
    }
}
