//! The optimizers used by the paper's full-Summit training codes.
//!
//! Layer-wise adaptive methods are the enabling trick for extreme-scale
//! data parallelism: they bound each layer's update relative to its weight
//! norm, which keeps training stable when the global batch (and therefore
//! the linearly-scaled learning rate) grows by three orders of magnitude.
//!
//! * [`Sgd`] — plain/momentum SGD with decoupled weight decay.
//! * [`Adam`] — Adam (Kingma & Ba) with decoupled weight decay.
//! * [`Lars`] — layer-wise adaptive rate scaling (You et al. 2017), used by
//!   Laanait et al. ("LARS/Adam optimizer").
//! * [`Larc`] — the clipping variant of LARS ("LARC learning rate control",
//!   Kurth et al.).
//! * [`Lamb`] — layer-wise Adam (You et al. 2019), used by Khan et al. and
//!   Blanchard et al. for million-sample batches.

use std::collections::HashMap;

use summit_tensor::{axpy, l2_norm};

/// A snapshot of an optimizer's internal state (moments, velocities, step
/// counters), used by in-memory checkpointing for fault recovery: rolling
/// back parameters alone is not enough, because momentum/Adam moments from
/// the faulted step would make the replayed update diverge bitwise from
/// the fault-free run.
///
/// Slots are stored sorted by `(name, group)` so the snapshot — and
/// therefore the recovery replay — is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptimizerState {
    /// The optimizer's step counter (Adam/LAMB bias correction).
    pub step: u32,
    /// `(slot name, group id, values)` triples, sorted.
    pub slots: Vec<(&'static str, usize, Vec<f32>)>,
}

fn export_map(
    name: &'static str,
    map: &HashMap<usize, Vec<f32>>,
    out: &mut Vec<(&'static str, usize, Vec<f32>)>,
) {
    let mut groups: Vec<_> = map.iter().collect();
    groups.sort_by_key(|(g, _)| **g);
    for (g, v) in groups {
        out.push((name, *g, v.clone()));
    }
}

fn import_map(
    name: &str,
    slots: &[(&'static str, usize, Vec<f32>)],
    map: &mut HashMap<usize, Vec<f32>>,
) {
    map.clear();
    for (n, g, v) in slots {
        if *n == name {
            map.insert(*g, v.clone());
        }
    }
}

/// A stateful optimizer applied per parameter group (one group per layer
/// weight matrix or bias vector, as the layer-wise methods require).
pub trait Optimizer: Send {
    /// Apply one update to a parameter group from the gradient
    /// `scale · grads`, scaling each element in the same sweep that
    /// updates it (one multiply, so bitwise a separate scaling pass). `lr`
    /// is the scheduled global learning rate for this step; `scale` is
    /// the `1/world` average of a data-parallel step or the `1/k` of
    /// gradient accumulation.
    fn step_scaled(&mut self, id: usize, lr: f32, scale: f32, params: &mut [f32], grads: &[f32]);

    /// [`step_scaled`](Optimizer::step_scaled) at gradient scale 1.
    fn step_group(&mut self, group: usize, lr: f32, params: &mut [f32], grads: &[f32]) {
        self.step_scaled(group, lr, 1.0, params, grads);
    }

    /// Whether each element's update reads only that element's parameter,
    /// gradient and state (and the step counter), so that a group updated
    /// piece by piece — each piece on the rank that owns it — lands on the
    /// bits of one whole-group update. The trust-ratio optimizers read
    /// whole-group norms and are not.
    fn elementwise(&self) -> bool {
        false
    }

    /// Advance the step counter (call once per optimizer step, after all
    /// groups).
    fn advance(&mut self) {}

    /// Snapshot the internal state for checkpointing. Stateless optimizers
    /// return the default empty snapshot.
    fn export_state(&self) -> OptimizerState {
        OptimizerState::default()
    }

    /// Restore internal state from a snapshot taken by
    /// [`export_state`](Optimizer::export_state). Restoring a snapshot and
    /// replaying the same gradients must reproduce the original trajectory
    /// bit for bit.
    fn import_state(&mut self, _state: &OptimizerState) {}

    /// Optimizer display name.
    fn name(&self) -> &'static str;
}

/// Group `group`'s state slot, zeros on first use. A slot imported for
/// another length panics here rather than update a prefix of the group.
fn state(map: &mut HashMap<usize, Vec<f32>>, group: usize, len: usize) -> &mut Vec<f32> {
    let slot = map.entry(group).or_insert_with(|| vec![0.0; len]);
    assert_eq!(slot.len(), len, "group {group} state misfits");
    slot
}

/// SGD with momentum and decoupled weight decay.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<usize, Vec<f32>>,
}

impl Sgd {
    /// Create SGD. `lr` is the base learning rate multiplied by the
    /// schedule factor at each step.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step_scaled(&mut self, id: usize, lr: f32, scale: f32, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "group shape mismatch");
        let eff = self.lr * lr;
        let v = state(&mut self.velocity, id, params.len());
        for ((p, &g), vi) in params.iter_mut().zip(grads).zip(v.iter_mut()) {
            let g = g * scale + self.weight_decay * *p;
            *vi = self.momentum * *vi + g;
            *p -= eff * *vi;
        }
    }

    fn elementwise(&self) -> bool {
        true
    }

    fn export_state(&self) -> OptimizerState {
        let mut slots = Vec::new();
        export_map("velocity", &self.velocity, &mut slots);
        OptimizerState { step: 0, slots }
    }

    fn import_state(&mut self, state: &OptimizerState) {
        import_map("velocity", &state.slots, &mut self.velocity);
    }

    fn name(&self) -> &'static str {
        "sgd"
    }
}

/// Adam with decoupled weight decay (AdamW-style).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    step: u32,
    m: HashMap<usize, Vec<f32>>,
    v: HashMap<usize, Vec<f32>>,
    /// The direction of the group being stepped, reused across groups.
    dir: Vec<f32>,
}

impl Adam {
    /// Create Adam with the standard betas.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Adam::with_betas(lr, 0.9, 0.999, 1e-8, weight_decay)
    }

    /// Create Adam with explicit hyperparameters.
    pub fn with_betas(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Adam {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            step: 0,
            m: HashMap::new(),
            v: HashMap::new(),
            dir: Vec::new(),
        }
    }

    /// The bias-corrected Adam direction for a group's gradient
    /// `scale · grads`, written into `self.dir`.
    fn direction(&mut self, group: usize, scale: f32, grads: &[f32]) {
        let t = (self.step + 1) as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        let m = state(&mut self.m, group, grads.len());
        let v = state(&mut self.v, group, grads.len());
        let out = &mut self.dir;
        out.clear();
        out.reserve(grads.len());
        for ((mi, vi), &g) in m.iter_mut().zip(v.iter_mut()).zip(grads) {
            let g = g * scale;
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            out.push(m_hat / (v_hat.sqrt() + self.eps));
        }
    }
}

impl Optimizer for Adam {
    fn step_scaled(&mut self, id: usize, lr: f32, scale: f32, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "group shape mismatch");
        let eff = self.lr * lr;
        self.direction(id, scale, grads);
        for (d, &p) in self.dir.iter_mut().zip(params.iter()) {
            *d += self.weight_decay * p;
        }
        axpy(-eff, &self.dir, params);
    }

    fn elementwise(&self) -> bool {
        true
    }

    fn advance(&mut self) {
        self.step += 1;
    }

    fn export_state(&self) -> OptimizerState {
        let mut slots = Vec::new();
        export_map("m", &self.m, &mut slots);
        export_map("v", &self.v, &mut slots);
        OptimizerState {
            step: self.step,
            slots,
        }
    }

    fn import_state(&mut self, state: &OptimizerState) {
        self.step = state.step;
        import_map("m", &state.slots, &mut self.m);
        import_map("v", &state.slots, &mut self.v);
    }

    fn name(&self) -> &'static str {
        "adam"
    }
}

/// LARS: SGD-momentum with a per-layer trust ratio
/// `η‖w‖ / (‖g‖ + λ‖w‖ + ε)` scaling the learning rate.
#[derive(Debug)]
pub struct Lars {
    inner: Sgd,
    /// Trust coefficient η (You et al. use 0.001).
    pub eta: f32,
    weight_decay: f32,
    eps: f32,
    /// The regularized gradient of the group being stepped.
    reg: Vec<f32>,
}

impl Lars {
    /// Create LARS over momentum-SGD.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32, eta: f32) -> Self {
        assert!(eta > 0.0, "trust coefficient must be positive");
        Lars {
            inner: Sgd::new(lr, momentum, 0.0),
            eta,
            weight_decay,
            eps: 1e-9,
            reg: Vec::new(),
        }
    }

    /// The layer trust ratio for given weight and gradient norms.
    pub fn trust_ratio(&self, w_norm: f32, g_norm: f32) -> f32 {
        if w_norm == 0.0 || g_norm == 0.0 {
            1.0
        } else {
            self.eta * w_norm / (g_norm + self.weight_decay * w_norm + self.eps)
        }
    }
}

impl Optimizer for Lars {
    fn step_scaled(&mut self, id: usize, lr: f32, scale: f32, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "group shape mismatch");
        self.reg.clear();
        self.reg.extend(grads.iter().map(|g| g * scale));
        let trust = self.trust_ratio(l2_norm(params), l2_norm(&self.reg));
        // Regularized gradient, scaled by the trust ratio, fed to SGD.
        for (r, &p) in self.reg.iter_mut().zip(params.iter()) {
            *r = trust * (*r + self.weight_decay * p);
        }
        self.inner.step_group(id, lr, params, &self.reg);
    }

    fn export_state(&self) -> OptimizerState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &OptimizerState) {
        self.inner.import_state(state);
    }

    fn name(&self) -> &'static str {
        "lars"
    }
}

/// LARC: the clipping variant of LARS — the local rate is
/// `min(η‖w‖/‖g‖, 1)`, so LARC never *amplifies* the scheduled rate.
#[derive(Debug)]
pub struct Larc {
    inner: Sgd,
    /// Trust coefficient η.
    pub eta: f32,
    weight_decay: f32,
    eps: f32,
    /// The regularized gradient of the group being stepped.
    reg: Vec<f32>,
}

impl Larc {
    /// Create LARC over momentum-SGD.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32, eta: f32) -> Self {
        assert!(eta > 0.0, "trust coefficient must be positive");
        Larc {
            inner: Sgd::new(lr, momentum, 0.0),
            eta,
            weight_decay,
            eps: 1e-9,
            reg: Vec::new(),
        }
    }

    /// The clipped local rate multiplier.
    pub fn local_rate(&self, w_norm: f32, g_norm: f32) -> f32 {
        if w_norm == 0.0 || g_norm == 0.0 {
            1.0
        } else {
            (self.eta * w_norm / (g_norm + self.weight_decay * w_norm + self.eps)).min(1.0)
        }
    }
}

impl Optimizer for Larc {
    fn step_scaled(&mut self, id: usize, lr: f32, scale: f32, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "group shape mismatch");
        self.reg.clear();
        self.reg.extend(grads.iter().map(|g| g * scale));
        let rate = self.local_rate(l2_norm(params), l2_norm(&self.reg));
        for (r, &p) in self.reg.iter_mut().zip(params.iter()) {
            *r = rate * (*r + self.weight_decay * p);
        }
        self.inner.step_group(id, lr, params, &self.reg);
    }

    fn export_state(&self) -> OptimizerState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &OptimizerState) {
        self.inner.import_state(state);
    }

    fn name(&self) -> &'static str {
        "larc"
    }
}

/// LAMB: Adam direction with a per-layer trust ratio `‖w‖/‖u‖`.
#[derive(Debug)]
pub struct Lamb {
    inner: Adam,
    weight_decay: f32,
}

impl Lamb {
    /// Create LAMB with standard Adam betas.
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Lamb {
            inner: Adam::with_betas(lr, 0.9, 0.999, 1e-6, 0.0),
            weight_decay,
        }
    }
}

impl Optimizer for Lamb {
    fn step_scaled(&mut self, id: usize, lr: f32, scale: f32, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "group shape mismatch");
        self.inner.direction(id, scale, grads);
        let update = &mut self.inner.dir;
        for (u, &p) in update.iter_mut().zip(params.iter()) {
            *u += self.weight_decay * p;
        }
        let w_norm = l2_norm(params);
        let u_norm = l2_norm(update);
        let trust = if w_norm == 0.0 || u_norm == 0.0 {
            1.0
        } else {
            w_norm / u_norm
        };
        let eff = self.inner.lr * lr * trust;
        axpy(-eff, update, params);
    }

    fn advance(&mut self) {
        self.inner.advance();
    }

    fn export_state(&self) -> OptimizerState {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: &OptimizerState) {
        self.inner.import_state(state);
    }

    fn name(&self) -> &'static str {
        "lamb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_step(opt: &mut dyn Optimizer, steps: usize, start: f32) -> f32 {
        // Minimize f(w) = 0.5 w² (gradient = w), scalar group.
        let mut w = vec![start];
        for _ in 0..steps {
            let g = vec![w[0]];
            opt.step_group(0, 1.0, &mut w, &g);
            opt.advance();
        }
        w[0]
    }

    #[test]
    fn all_optimizers_descend_a_quadratic() {
        let mut opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(Sgd::new(0.1, 0.0, 0.0)),
            Box::new(Adam::new(0.1, 0.0)),
            Box::new(Lars::new(1.0, 0.0, 0.0, 0.1)),
            Box::new(Larc::new(0.5, 0.0, 0.0, 0.5)),
            Box::new(Lamb::new(0.05, 0.0)),
        ];
        for opt in &mut opts {
            let end = quadratic_step(opt.as_mut(), 50, 10.0);
            assert!(
                end.abs() < 10.0 * 0.9,
                "{} did not descend: ended at {end}",
                opt.name()
            );
        }
    }

    #[test]
    fn sgd_momentum_accumulates_velocity() {
        let mut plain = Sgd::new(0.1, 0.0, 0.0);
        let mut momentum = Sgd::new(0.1, 0.9, 0.0);
        // Constant gradient: momentum moves further after a few steps.
        let (mut wp, mut wm) = (vec![0.0f32], vec![0.0f32]);
        for _ in 0..5 {
            plain.step_group(0, 1.0, &mut wp, &[1.0]);
            momentum.step_group(0, 1.0, &mut wm, &[1.0]);
        }
        assert!(wm[0] < wp[0], "momentum should overshoot plain SGD");
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        let mut w = vec![1.0f32];
        opt.step_group(0, 1.0, &mut w, &[0.0]);
        assert!((w[0] - 0.95).abs() < 1e-6);
    }

    /// The defining LARS property: the (first-step) update norm is bounded
    /// by `lr · η · ‖w‖ / (1 - λ‖w‖/stuff)` — concretely, with no weight
    /// decay it is exactly `lr · η · ‖w‖` regardless of gradient scale.
    #[test]
    fn lars_update_norm_independent_of_gradient_scale() {
        for scale in [1.0f32, 1e3, 1e6] {
            let mut opt = Lars::new(1.0, 0.0, 0.0, 0.01);
            let mut w = vec![3.0, 4.0]; // ‖w‖ = 5
            let g = vec![scale, scale];
            let before = w.clone();
            opt.step_group(0, 1.0, &mut w, &g);
            let update = ((w[0] - before[0]).powi(2) + (w[1] - before[1]).powi(2)).sqrt();
            let want = 1.0 * 0.01 * 5.0;
            assert!(
                (update - want).abs() / want < 1e-4,
                "scale {scale}: update norm {update}, want {want}"
            );
        }
    }

    /// LARC clips: with a tiny gradient the local rate saturates at 1 and
    /// LARC behaves exactly like SGD.
    #[test]
    fn larc_clips_to_sgd() {
        let mut larc = Larc::new(0.1, 0.0, 0.0, 0.001);
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        let (mut wl, mut ws) = (vec![100.0f32], vec![100.0f32]);
        let g = vec![1e-6f32];
        larc.step_group(0, 1.0, &mut wl, &g);
        sgd.step_group(0, 1.0, &mut ws, &g);
        assert!((wl[0] - ws[0]).abs() < 1e-9);
        // And with a huge gradient LARC's step is much smaller than SGD's.
        let g = vec![1e6f32];
        let (before_l, before_s) = (wl[0], ws[0]);
        larc.step_group(0, 1.0, &mut wl, &g);
        sgd.step_group(0, 1.0, &mut ws, &g);
        assert!((wl[0] - before_l).abs() < (ws[0] - before_s).abs() / 100.0);
    }

    /// The defining LAMB property: the update norm equals lr·‖w‖ no matter
    /// how large the gradient is (trust ratio normalizes the Adam step).
    #[test]
    fn lamb_update_norm_tracks_weight_norm() {
        for scale in [1.0f32, 1e4] {
            let mut opt = Lamb::new(0.01, 0.0);
            let mut w = vec![3.0, 4.0];
            let before = w.clone();
            opt.step_group(0, 1.0, &mut w, &[scale, scale]);
            let update = ((w[0] - before[0]).powi(2) + (w[1] - before[1]).powi(2)).sqrt();
            let want = 0.01 * 5.0;
            assert!(
                (update - want).abs() / want < 1e-3,
                "scale {scale}: update {update} want {want}"
            );
        }
    }

    #[test]
    fn adam_direction_is_sign_like_for_constant_gradient() {
        let mut opt = Adam::new(0.1, 0.0);
        let mut w = vec![0.0f32, 0.0];
        // Very different gradient magnitudes, same sign: Adam's step should
        // be nearly equal for both coordinates after bias correction.
        for _ in 0..50 {
            opt.step_group(0, 1.0, &mut w, &[1.0, 100.0]);
            opt.advance();
        }
        assert!(
            (w[0] - w[1]).abs() < 0.05 * w[0].abs(),
            "adam steps not magnitude-invariant: {w:?}"
        );
    }

    /// Rollback cornerstone: snapshot mid-run, keep stepping, restore, and
    /// replay the same gradients — the trajectories must agree bit for bit.
    #[test]
    #[allow(clippy::type_complexity, clippy::needless_range_loop)]
    fn state_roundtrip_replays_bit_identically() {
        let make: Vec<(&str, fn() -> Box<dyn Optimizer>)> = vec![
            ("sgd", || Box::new(Sgd::new(0.1, 0.9, 0.01))),
            ("adam", || Box::new(Adam::new(0.1, 0.01))),
            ("lars", || Box::new(Lars::new(0.5, 0.9, 0.01, 0.01))),
            ("larc", || Box::new(Larc::new(0.5, 0.9, 0.01, 0.5))),
            ("lamb", || Box::new(Lamb::new(0.05, 0.01))),
        ];
        for (name, ctor) in make {
            let mut opt = ctor();
            let mut w = vec![vec![1.0f32, -2.0], vec![0.5f32]];
            let grad = |s: usize, g: usize, i: usize| (s * 7 + g * 3 + i + 1) as f32 * 0.01;
            for s in 0..3 {
                for g in 0..2 {
                    let gr: Vec<f32> = (0..w[g].len()).map(|i| grad(s, g, i)).collect();
                    opt.step_group(g, 1.0, &mut w[g], &gr);
                }
                opt.advance();
            }
            let snap_state = opt.export_state();
            let snap_w = w.clone();
            // Continue 2 more steps (the "faulted" trajectory)...
            for s in 3..5 {
                for g in 0..2 {
                    let gr: Vec<f32> = (0..w[g].len()).map(|i| grad(s, g, i)).collect();
                    opt.step_group(g, 1.0, &mut w[g], &gr);
                }
                opt.advance();
            }
            let first_run = w.clone();
            // ...then roll back and replay.
            opt.import_state(&snap_state);
            let mut w = snap_w;
            for s in 3..5 {
                for g in 0..2 {
                    let gr: Vec<f32> = (0..w[g].len()).map(|i| grad(s, g, i)).collect();
                    opt.step_group(g, 1.0, &mut w[g], &gr);
                }
                opt.advance();
            }
            for (a, b) in first_run.iter().flatten().zip(w.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{name} replay diverged");
            }
        }
    }

    /// The fused entry is a scaling sweep followed by the step, bit for
    /// bit, on every optimizer: the data-parallel average and gradient
    /// accumulation's `1/k` lose nothing by moving into the update.
    #[test]
    fn fused_scale_is_a_separate_scaling_pass() {
        let make: [fn() -> Box<dyn Optimizer>; 5] = [
            || Box::new(Sgd::new(0.1, 0.9, 0.01)),
            || Box::new(Adam::new(0.1, 0.01)),
            || Box::new(Lars::new(0.5, 0.9, 0.01, 0.01)),
            || Box::new(Larc::new(0.5, 0.9, 0.01, 0.5)),
            || Box::new(Lamb::new(0.05, 0.01)),
        ];
        let scale = 1.0 / 3.0;
        for ctor in make {
            let (mut fused, mut swept) = (ctor(), ctor());
            let (mut wf, mut ws) = (vec![1.0f32, -2.0, 0.3], vec![1.0f32, -2.0, 0.3]);
            for s in 0..4 {
                let grads: Vec<f32> = (0..3).map(|i| (s * 5 + i) as f32 * 0.37 - 1.1).collect();
                fused.step_scaled(0, 1.0, scale, &mut wf, &grads);
                let mut scaled = grads.clone();
                summit_tensor::scale(&mut scaled, scale);
                swept.step_group(0, 1.0, &mut ws, &scaled);
                fused.advance();
                swept.advance();
            }
            let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&wf), bits(&ws), "{}", fused.name());
        }
    }

    #[test]
    fn independent_groups_have_independent_state() {
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32];
        opt.step_group(0, 1.0, &mut a, &[1.0]);
        opt.step_group(1, 1.0, &mut b, &[1.0]);
        opt.step_group(0, 1.0, &mut a, &[0.0]);
        // Group 0's velocity moved `a`, group 1 untouched by it.
        assert!((a[0] - (-0.1 - 0.09)).abs() < 1e-6);
        assert!((b[0] + 0.1).abs() < 1e-6);
    }
}
