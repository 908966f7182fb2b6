//! The ML submodel of the reaction term — the paper's dominant motif,
//! executable.

use summit_dl::{model::MlpSpec, optim::Adam, schedule::LrSchedule, trainer::Trainer};
use summit_tensor::Matrix;

use crate::solver::Reaction;

/// A trained MLP surrogate of the reaction kinetics `u ↦ R(u)`.
pub struct ReactionSurrogate {
    model: std::cell::RefCell<Trainer>,
    /// Expensive kinetics calls spent building the training set.
    pub training_evaluations: u32,
}

impl ReactionSurrogate {
    /// Train a surrogate of the cubic-autocatalysis kinetics with rate `k`
    /// from `samples` exact evaluations spread over `u ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `samples < 8`.
    pub fn train(k: f32, samples: u32, seed: u64) -> Self {
        assert!(samples >= 8, "need a training set");
        let mut x = Matrix::zeros(samples as usize, 1);
        let mut y = Matrix::zeros(samples as usize, 1);
        for i in 0..samples {
            let u = f32::from(i as u16) / f32::from((samples - 1) as u16);
            x.set(i as usize, 0, u);
            y.set(i as usize, 0, Reaction::exact_value(k, u));
        }
        let mut trainer = Trainer::new(
            MlpSpec::new(1, &[32, 32], 1).build(seed),
            Box::new(Adam::new(0.01, 0.0)),
            LrSchedule::WarmupCosine {
                warmup_steps: 100,
                total_steps: 5000,
            },
        );
        trainer.fit(&x, &y, 5000);
        ReactionSurrogate {
            model: std::cell::RefCell::new(trainer),
            training_evaluations: samples,
        }
    }

    /// Batched inference over a `n × 1` input matrix.
    pub fn predict(&self, x: &Matrix) -> Matrix {
        self.model.borrow_mut().predict(x)
    }

    /// Maximum absolute error against the exact kinetics over a dense grid.
    pub fn max_error(&self, k: f32) -> f32 {
        let n = 256;
        let mut x = Matrix::zeros(n, 1);
        for i in 0..n {
            x.set(i, 0, i as f32 / (n - 1) as f32);
        }
        let pred = self.predict(&x);
        let mut worst = 0.0f32;
        for i in 0..n {
            let u = x.get(i, 0);
            worst = worst.max((pred.get(i, 0) - Reaction::exact_value(k, u)).abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Field;
    use crate::solver::Solver;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn surrogate_fits_the_kinetics() {
        let s = ReactionSurrogate::train(2.0, 64, 3);
        let err = s.max_error(2.0);
        // Peak of R is k·4/27 ≈ 0.296; demand a few percent of that. The
        // exact figure depends on the init stream, so leave headroom.
        assert!(err < 0.012, "surrogate max error {err}");
    }

    /// The submodel motif, quantified: replacing the kinetics by the
    /// surrogate keeps the simulated field within a small tolerance of the
    /// exact run while spending only the fixed training budget of expensive
    /// calls (instead of one call per cell per step).
    #[test]
    fn submodel_simulation_tracks_exact_simulation() {
        let k = 2.0;
        let steps = 60u32;
        let mut init = Field::new(20, 20);
        init.fill_test_pattern();

        let calls = Rc::new(Cell::new(0u64));
        let mut exact = Solver::new(
            init.clone(),
            0.15,
            0.05,
            crate::solver::Reaction::ExactKinetics {
                k,
                calls: Rc::clone(&calls),
            },
        );
        exact.step(steps);
        let exact_calls = calls.get();

        let surrogate = ReactionSurrogate::train(k, 64, 3);
        let training_budget = surrogate.training_evaluations;
        let mut ml = Solver::new(
            init,
            0.15,
            0.05,
            crate::solver::Reaction::Surrogate(surrogate),
        );
        ml.step(steps);

        let err = ml.field().max_abs_diff(exact.field());
        assert!(err < 0.02, "submodel trajectory error {err}");
        // 60 steps × 400 cells = 24,000 expensive calls replaced by 64.
        assert_eq!(exact_calls, u64::from(steps) * 400);
        assert!(u64::from(training_budget) * 100 < exact_calls);
    }
}
