//! Property-based tests for the training framework.

use proptest::prelude::*;
use summit_dl::{
    model::MlpSpec,
    optim::{Lamb, Lars, Optimizer, Sgd},
    schedule::LrSchedule,
};
use summit_tensor::{l2_norm, ops::softmax_cross_entropy, Matrix};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat param/grad round trips are exact for arbitrary architectures.
    #[test]
    fn flat_roundtrip_any_architecture(inputs in 1usize..6, h1 in 0usize..8,
                                       h2 in 0usize..8, outputs in 1usize..5,
                                       seed in 0u64..1000) {
        let mut hidden = Vec::new();
        if h1 > 0 { hidden.push(h1); }
        if h2 > 0 { hidden.push(h2); }
        let mut m = MlpSpec::new(inputs, &hidden, outputs).build(seed);
        let p = m.flat_params();
        prop_assert_eq!(p.len(), m.param_count());
        let shifted: Vec<f32> = p.iter().map(|v| v + 1.0).collect();
        m.arena_mut().set_flat_params(&shifted);
        prop_assert_eq!(m.flat_params(), shifted);
    }

    /// Gradient of the loss w.r.t. logits has rows summing to ~0, and
    /// backward propagates finite values for any bounded input.
    #[test]
    fn backward_finite(batch in 1usize..8, seed in 0u64..1000) {
        let mut m = MlpSpec::new(4, &[6], 3).build(seed);
        let x = Matrix::from_vec(batch, 4,
            (0..batch * 4).map(|i| ((i as f32) * 0.37 + seed as f32 * 0.11).sin()).collect());
        let labels: Vec<usize> = (0..batch).map(|i| i % 3).collect();
        let logits = m.forward(&x);
        let (loss, d) = softmax_cross_entropy(logits, &labels);
        prop_assert!(loss.is_finite());
        m.zero_grads();
        m.backward(&d);
        prop_assert!(m.arena().flat_grads().iter().all(|g| g.is_finite()));
    }

    /// LARS first-step update norm equals lr·η·‖w‖ for any gradient (no
    /// weight decay): the scale-invariance that makes large batches work.
    #[test]
    fn lars_scale_invariance(gscale in 1e-3f32..1e6, seed in 1u64..1000) {
        let mut opt = Lars::new(1.0, 0.0, 0.0, 0.02);
        let mut w: Vec<f32> = (0..16).map(|i| ((i as u64 + seed) % 7) as f32 - 3.0).collect();
        prop_assume!(l2_norm(&w) > 0.1);
        let w_norm = l2_norm(&w);
        let g: Vec<f32> = (0..16).map(|i| gscale * (((i + 3) % 5) as f32 - 2.0)).collect();
        prop_assume!(l2_norm(&g) > 0.0);
        let before = w.clone();
        opt.step_group(0, 1.0, &mut w, &g);
        let update: f32 = before.iter().zip(&w).map(|(a, b)| (a - b).powi(2)).sum::<f32>().sqrt();
        let want = 0.02 * w_norm;
        prop_assert!((update - want).abs() / want < 1e-3,
                     "update {update}, want {want}");
    }

    /// LAMB first-step update norm equals lr·‖w‖ regardless of gradient.
    #[test]
    fn lamb_scale_invariance(gscale in 1e-3f32..1e5, seed in 1u64..1000) {
        let mut opt = Lamb::new(0.01, 0.0);
        let mut w: Vec<f32> = (0..16).map(|i| ((i as u64 + seed) % 9) as f32 - 4.0).collect();
        prop_assume!(l2_norm(&w) > 0.1);
        let w_norm = l2_norm(&w);
        let g: Vec<f32> = (0..16).map(|i| gscale * (((i + 1) % 4) as f32 - 1.5)).collect();
        let before = w.clone();
        opt.step_group(0, 1.0, &mut w, &g);
        let update: f32 = before.iter().zip(&w).map(|(a, b)| (a - b).powi(2)).sum::<f32>().sqrt();
        let want = 0.01 * w_norm;
        prop_assert!((update - want).abs() / want < 1e-2,
                     "update {update}, want {want}");
    }

    /// SGD with zero gradient and zero weight decay is a no-op.
    #[test]
    fn sgd_zero_grad_noop(n in 1usize..32, lr in 1e-4f32..10.0) {
        let mut opt = Sgd::new(lr, 0.9, 0.0);
        let mut w: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let before = w.clone();
        let g = vec![0.0f32; n];
        opt.step_group(0, 1.0, &mut w, &g);
        prop_assert_eq!(w, before);
    }

    /// Schedule multipliers are always in [0, 1].
    #[test]
    fn schedules_bounded(step in 0u32..10_000, warm in 0u32..500, total in 1u32..5000,
                         power in 1u32..4) {
        let scheds = [
            LrSchedule::Constant,
            LrSchedule::LinearWarmup { warmup_steps: warm },
            LrSchedule::WarmupCosine { warmup_steps: warm, total_steps: total },
            LrSchedule::WarmupPolynomial { warmup_steps: warm, total_steps: total, power },
        ];
        for s in scheds {
            let m = s.multiplier(step);
            prop_assert!((0.0..=1.0).contains(&m), "{s:?} at {step}: {m}");
        }
    }
}
