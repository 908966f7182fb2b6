//! Multi-layer perceptrons with explicit backprop.
//!
//! An [`Mlp`] keeps its parameters and gradients in one [`Params`] arena
//! (layer-major, weights then bias, each its own group). A `Linear` layer
//! holds only its shape and its cached input; its GEMMs read
//! the weights as a borrowed view of the parameter arena ([`MatRef`]).
//! Backward writes each layer's `Xᵀ·dY` straight into its gradient window,
//! and a data-parallel step reduces gradient windows in place
//! ([`Mlp::backward_with`]): nothing is produced, reduced, updated or
//! gathered anywhere but where it lies.

use crate::inference::{dense_forward_into, ServableModel};
use crate::params::Params;
use summit_tensor::{ops, Initializer, MatRef, Matrix};

/// A fully-connected layer `in_dim → out_dim`. Its parameters and gradient
/// live in caller-provided `[weights, bias]` windows of an [`Mlp`]'s arena.
#[derive(Debug, Clone)]
struct Linear {
    in_dim: usize,
    out_dim: usize,
    /// Input cached by the last forward pass, consumed by backward.
    input: Option<Matrix>,
}

impl Linear {
    /// The weight matrix inside this layer's parameter window.
    fn weights<'a>(&self, params: &'a [f32]) -> MatRef<'a> {
        let w = &params[..self.in_dim * self.out_dim];
        MatRef::new(self.in_dim, self.out_dim, w)
    }

    /// Forward: `y = x·W + b` over this layer's parameter window, caching
    /// `x` for backward. Runs the same shared routine the forward-only
    /// serving path uses ([`crate::inference::ServableModel`]), so served
    /// activations are bitwise the trained ones.
    fn forward(&mut self, params: &[f32], x: Matrix) -> Matrix {
        let mut y = Matrix::zeros(x.rows(), self.out_dim);
        let bias = &params[self.in_dim * self.out_dim..];
        dense_forward_into(&x, self.weights(params), bias, &mut y);
        self.input = Some(x);
        y
    }

    /// `gW = xᵀ·dy`, `gb = Σrows dy` into `grads` (this layer's `[weights,
    /// bias]` window) — stored when `overwrite`, added otherwise. No
    /// product-sized temporary, and no read of `grads` when `overwrite`.
    ///
    /// # Panics
    /// Panics if called before `forward` or if `grads` is not
    /// `in_dim·out_dim + out_dim` long.
    fn param_grads(&self, dy: &Matrix, grads: &mut [f32], overwrite: bool) {
        let x = self.input.as_ref().expect("backward called before forward");
        assert_eq!(grads.len(), self.param_count(), "gradient window mismatch");
        let (gw, gb) = grads.split_at_mut(self.in_dim * self.out_dim);
        x.matmul_at_b_into_slice(dy, gw, !overwrite);
        if overwrite {
            gb.fill(0.0);
        }
        for (g, s) in gb.iter_mut().zip(ops::column_sums(dy)) {
            *g += s;
        }
    }

    /// `dx = dy·Wᵀ` over this layer's parameter window.
    fn input_grad(&self, params: &[f32], dy: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(dy.rows(), self.in_dim);
        dy.matmul_a_bt_into(self.weights(params), &mut dx);
        dx
    }

    fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }
}

/// Architecture description of an MLP classifier/regressor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    /// Input feature count.
    pub inputs: usize,
    /// Hidden layer widths (ReLU between all layers).
    pub hidden: Vec<usize>,
    /// Output dimension (class count for classification).
    pub outputs: usize,
}

impl MlpSpec {
    /// Describe an MLP.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(inputs: usize, hidden: &[usize], outputs: usize) -> Self {
        assert!(inputs > 0 && outputs > 0, "dimensions must be positive");
        assert!(
            hidden.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
        MlpSpec {
            inputs,
            hidden: hidden.to_vec(),
            outputs,
        }
    }

    /// Layer widths, input to output.
    pub(crate) fn dims(&self) -> Vec<usize> {
        [&[self.inputs][..], &self.hidden, &[self.outputs]].concat()
    }

    /// Materialize the model with deterministic weights.
    pub fn build(&self, seed: u64) -> Mlp {
        let dims = self.dims();
        let depth = dims.len() - 1;
        let total: usize = dims.windows(2).map(|d| d[0] * d[1] + d[1]).sum();
        let (mut layers, mut arena) = (Vec::with_capacity(depth), Params::with_capacity(total));
        for (i, d) in dims.windows(2).enumerate() {
            let (in_dim, out_dim) = (d[0], d[1]);
            let seed = seed.wrapping_add(i as u64 * 7919);
            arena.push(in_dim * out_dim, |w| {
                Initializer::HeNormal.fill(in_dim, out_dim, seed, w)
            });
            arena.push(out_dim, |_| {});
            layers.push(Linear {
                in_dim,
                out_dim,
                input: None,
            });
        }
        Mlp { layers, arena }
    }
}

/// Layer `i`'s `[weights, bias]` window of an [`Mlp`]'s parameter arena:
/// groups `2i` and `2i + 1`.
fn layer_params(arena: &Params, i: usize) -> &[f32] {
    &arena.params()[arena.range(2 * i).start..arena.range(2 * i + 1).end]
}

/// An MLP with ReLU activations between layers and linear (logit) output.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    arena: Params,
}

impl Mlp {
    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.arena.param_count()
    }

    /// The parameter and gradient arena.
    pub fn arena(&self) -> &Params {
        &self.arena
    }

    /// The parameter and gradient arena, mutably.
    pub fn arena_mut(&mut self) -> &mut Params {
        &mut self.arena
    }

    /// The arena, moved out, for a caller done with the model.
    pub(crate) fn into_arena(self) -> Params {
        self.arena
    }

    /// Forward pass: returns logits for a `batch × inputs` matrix. Each
    /// hidden activation is kept once, as the next layer's cached input
    /// (which is also the ReLU mask backward needs).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for i in 0..self.layers.len() {
            if i > 0 {
                ops::relu_inplace(&mut h);
            }
            h = self.layers[i].forward(layer_params(&self.arena, i), h);
        }
        h
    }

    /// Backward pass from the loss gradient w.r.t. the logits. Gradients
    /// accumulate (call [`Mlp::zero_grads`] between optimizer steps).
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dlogits: &Matrix) {
        let _ = self.backward_with(dlogits, |_, _| {});
    }

    /// Backward pass that also returns the gradient with respect to the
    /// *input* batch — needed when the network's input is itself a
    /// differentiable function of other quantities (e.g. machine-learned
    /// force fields, where forces are −∂E/∂descriptors·∂descriptors/∂r).
    /// This is one GEMM (`dY₀·W₀ᵀ`) more than [`Mlp::backward`].
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward_input(&mut self, dlogits: &Matrix) -> Matrix {
        let dy0 = self.backward_with(dlogits, |_, _| {});
        self.layers[0].input_grad(layer_params(&self.arena, 0), &dy0)
    }

    /// Backward pass with a per-layer gradient-readiness callback — the
    /// hook the overlap scheme hangs on. Layers complete in reverse order
    /// (`depth-1` down to `0`); immediately after layer `i`'s gradient is
    /// final, `on_layer_ready(i, pending)` runs, while the backward
    /// computation for earlier layers is still pending.
    ///
    /// `pending` is the prefix of the gradient arena nobody has claimed
    /// yet, initially all of it. The arena is layer-major, so reverse-order
    /// completion makes the final region a suffix growing toward offset
    /// zero: once layer `i` is ready, everything at or above
    /// [`Mlp::layer_param_sizes`]`[..i].sum()` is final. The callback may
    /// split any part of that final suffix off the tail of `*pending`
    /// (`split_at_mut`, leaving the head behind) and keep it for `'a` — a
    /// data-parallel trainer hands such a window to a nonblocking
    /// collective, which then reduces the gradient where it lies while
    /// earlier layers are still being computed into the head. Gradients of
    /// layers not yet reported must stay in `*pending`.
    ///
    /// Returns the gradient with respect to the first layer's *output* —
    /// the last quantity the parameter gradients need. No trainer reads the
    /// input gradient, so it is not computed here; [`Mlp::backward_input`]
    /// spends that GEMM.
    ///
    /// # Panics
    /// Panics if called before `forward`, or if the callback took a window
    /// reaching into a layer that had not been reported yet.
    pub fn backward_with<'a>(
        &'a mut self,
        dlogits: &Matrix,
        mut on_layer_ready: impl FnMut(usize, &mut &'a mut [f32]),
    ) -> Matrix {
        let (params, mut pending, overwrite) = self.arena.split_for_backward();
        let mut grad = dlogits.clone();
        let mut end = params.len();
        for (i, layer) in self.layers.iter().enumerate().rev() {
            let window = end - layer.param_count()..end;
            end = window.start;
            layer.param_grads(&grad, &mut pending[window.clone()], overwrite);
            on_layer_ready(i, &mut pending);
            if i > 0 {
                grad = layer.input_grad(&params[window], &grad);
                let mask = layer.input.as_ref().expect("checked by param_grads");
                ops::relu_backward(mask, &mut grad);
            }
        }
        grad
    }

    /// Per-layer scalar parameter counts, in flat-gradient order (layer
    /// `i`'s `[weights, bias]` region is `sizes[i]` elements). The bucket
    /// schedule of the overlap scheme is built from these.
    pub fn layer_param_sizes(&self) -> Vec<usize> {
        self.layers.iter().map(Linear::param_count).collect()
    }

    /// [`Params::zero_grads`].
    pub fn zero_grads(&mut self) {
        self.arena.zero_grads();
    }

    /// [`Params::flat_grads_into`].
    pub fn flat_grads_into(&self, out: &mut Vec<f32>) {
        self.arena.flat_grads_into(out);
    }

    /// [`Params::set_flat_grads`].
    pub fn set_flat_grads(&mut self, flat: &[f32]) {
        self.arena.set_flat_grads(flat);
    }

    /// A copy of the parameter arena.
    pub fn flat_params(&self) -> Vec<f32> {
        self.arena.params().to_vec()
    }

    /// Snapshot the forward-only serving state of this model: weights,
    /// biases — none of the gradient buffers or cached activations. The snapshot is what a serving replica holds
    /// and what a weight broadcast ships.
    pub fn servable(&self) -> ServableModel {
        let shapes = self.layers.iter().map(|l| (l.in_dim, l.out_dim));
        ServableModel::from_shapes_params(shapes, self.arena.params())
    }

    /// [`Params::for_each_group`]: per-layer weights and biases separately,
    /// as LARS/LAMB prescribe.
    pub fn for_each_group(&mut self, f: impl FnMut(usize, &mut [f32], &[f32])) {
        self.arena.for_each_group(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Optimizer, Sgd};
    use summit_tensor::ops::softmax_cross_entropy;

    #[test]
    fn param_count_matches_architecture() {
        let m = MlpSpec::new(4, &[8, 8], 3).build(0);
        // 4*8+8 + 8*8+8 + 8*3+3 = 40 + 72 + 27 = 139
        assert_eq!(m.param_count(), 139);
        assert_eq!(m.depth(), 3);
    }

    #[test]
    fn flat_roundtrip() {
        let mut m = MlpSpec::new(3, &[5], 2).build(1);
        let p = m.flat_params();
        let mut p2 = p.clone();
        p2[0] += 1.0;
        m.arena_mut().set_flat_params(&p2);
        assert_eq!(m.flat_params(), p2);
        m.arena_mut().set_flat_params(&p);
        assert_eq!(m.flat_params(), p);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut m = MlpSpec::new(3, &[4], 2).build(3);
        let x = Matrix::from_rows(&[&[0.5, -0.3, 0.8], &[-0.1, 0.9, 0.2]]);
        let labels = [1usize, 0];

        let logits = m.forward(&x);
        let (_, dlogits) = softmax_cross_entropy(logits, &labels);
        m.zero_grads();
        m.backward(&dlogits);
        let analytic = m.arena().flat_grads();

        let base = m.flat_params();
        let eps = 1e-3f32;
        for idx in (0..base.len()).step_by(5) {
            let mut plus = base.clone();
            plus[idx] += eps;
            m.arena_mut().set_flat_params(&plus);
            let (lp, _) = softmax_cross_entropy(m.forward(&x), &labels);
            let mut minus = base.clone();
            minus[idx] -= eps;
            m.arena_mut().set_flat_params(&minus);
            let (lm, _) = softmax_cross_entropy(m.forward(&x), &labels);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[idx]).abs() < 2e-2,
                "param {idx}: fd {fd} vs analytic {}",
                analytic[idx]
            );
        }
    }

    /// `backward_input` is the layer-by-layer chain (every layer's
    /// parameter and input gradients, accumulating into really-zeroed
    /// windows, ReLU masks between) bit for bit, and `zero_grads` →
    /// `backward` — the
    /// overwrite-first path, which skips layer 0's `dX` — leaves the same
    /// parameter gradients.
    #[test]
    fn backward_input_is_the_full_layerwise_chain() {
        let mut m = MlpSpec::new(5, &[7, 6], 3).build(9);
        let x = Matrix::from_vec(4, 5, (0..20).map(|i| (i as f32 * 0.37).sin()).collect());
        let (_, dlogits) = softmax_cross_entropy(m.forward(&x), &[2, 0, 1, 1]);
        // Stale contents an overwriting backward must never read.
        m.set_flat_grads(&vec![f32::NAN; m.param_count()]);
        m.zero_grads();

        let chain = m.clone();
        let mut chain_grads = vec![0.0f32; chain.param_count()];
        let mut dx = dlogits.clone();
        for i in (0..chain.layers.len()).rev() {
            let window = chain.arena.range(2 * i).start..chain.arena.range(2 * i + 1).end;
            chain.layers[i].param_grads(&dx, &mut chain_grads[window], false);
            dx = chain.layers[i].input_grad(layer_params(&chain.arena, i), &dx);
            if i > 0 {
                let mask = chain.layers[i].input.as_ref().unwrap();
                ops::relu_backward(mask, &mut dx);
            }
        }

        let mut params_only = m.clone();
        params_only.backward(&dlogits);
        let dy0 = m.clone().backward_with(&dlogits, |_, _| {});
        let got = m.backward_input(&dlogits);

        assert_eq!((got.rows(), got.cols()), (4, 5));
        assert_eq!(got.as_slice(), dx.as_slice());
        assert_eq!(m.arena().flat_grads(), chain_grads);
        assert_eq!(params_only.arena().flat_grads(), chain_grads);
        // `backward_with` stops one GEMM short: dL/d(layer-0 output).
        assert_eq!((dy0.rows(), dy0.cols()), (4, 7));
    }

    /// After `zero_grads` every reader sees exact zeros — whatever the
    /// arena held — without a backward in between, and `set_flat_grads` →
    /// `flat_grads` round-trips.
    #[test]
    fn zeroed_arena_reads_as_zeros_through_every_reader() {
        let mut m = MlpSpec::new(3, &[4, 5], 2).build(2);
        let n = m.param_count();
        let stale: Vec<f32> = (0..n).map(|i| i as f32 - 7.5).collect();
        m.set_flat_grads(&stale);
        assert_eq!(m.arena().flat_grads(), stale);
        let zeros = vec![0.0f32.to_bits(); n];
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();

        m.zero_grads();
        assert_eq!(bits(&m.arena().flat_grads()), zeros);
        let mut into = vec![1.0; 3];
        m.flat_grads_into(&mut into);
        assert_eq!(bits(&into), zeros);

        let mut visited = Vec::new();
        m.clone()
            .for_each_group(|_, _, g| visited.extend_from_slice(g));
        assert_eq!(bits(&visited), zeros);

        // The fused optimizer entry reads the clean arena as zeros: a
        // scaled plain-SGD step moves no parameter.
        let mut sgd = Sgd::new(1.0, 0.0, 0.0);
        let mut stepped = m.clone();
        stepped.for_each_group(|id, p, g| sgd.step_scaled(id, 1.0, 3.0, p, g));
        assert_eq!(bits(&stepped.flat_params()), bits(&m.flat_params()));
        assert_eq!(bits(m.clone().arena_mut().grads_mut()), zeros);

        // Writing gradients ends the clean state, and the entry reads them
        // scaled: one multiply per element, as a separate sweep would.
        m.set_flat_grads(&stale);
        let params = m.flat_params();
        let want: Vec<f32> = params
            .iter()
            .zip(&stale)
            .map(|(p, g)| p - g * 2.0)
            .collect();
        m.for_each_group(|id, p, g| sgd.step_scaled(id, 1.0, 2.0, p, g));
        assert_eq!(bits(&m.flat_params()), bits(&want));
    }

    #[test]
    fn backward_accumulates_until_zeroed() {
        let mut m = MlpSpec::new(2, &[], 2).build(5);
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let logits = m.forward(&x);
        let (_, d) = softmax_cross_entropy(logits, &[0]);
        m.zero_grads();
        m.backward(&d);
        let once = m.arena().flat_grads();
        // Second backward without zeroing doubles the gradients.
        let logits = m.forward(&x);
        let (_, d) = softmax_cross_entropy(logits, &[0]);
        m.backward(&d);
        let twice = m.arena().flat_grads();
        for (a, b) in once.iter().zip(&twice) {
            assert!((2.0 * a - b).abs() < 1e-5);
        }
        m.zero_grads();
        assert!(m.arena().flat_grads().iter().all(|&g| g == 0.0));
    }

    /// A confident sample's softmax underflows; the flushed loss gradient
    /// keeps every subnormal out of the backward pass. The output layer is
    /// scaled so that one sample's margin for its own label is 95, which
    /// puts `e⁻⁹⁵ ≈ 5.5e-42`, a subnormal, among the unflushed
    /// probabilities and the output gradient.
    #[test]
    fn a_confident_sample_leaves_no_subnormal_gradient() {
        let task = crate::data::blobs(2, 16, 2, 0.1, 6);
        let mut m = MlpSpec::new(16, &[32, 32], 2).build(7);
        let logits = m.forward(&task.x);
        let margins = [0, 1].map(|r| logits.get(r, task.y[r]) - logits.get(r, 1 - task.y[r]));
        let widest = margins[(margins[1].abs() > margins[0].abs()) as usize];
        let output_layer = 2 * (m.depth() - 1);
        m.for_each_group(|id, p, _| {
            if id >= output_layer {
                p.iter_mut().for_each(|v| *v *= 95.0 / widest);
            }
        });
        m.zero_grads();
        let logits = m.forward(&task.x);
        let mut probs = logits.clone();
        summit_tensor::ops::softmax_inplace(&mut probs);
        assert!(
            probs.as_slice().iter().any(|&p| p < f32::MIN_POSITIVE),
            "no sample is confident"
        );
        let (_, dlogits) = softmax_cross_entropy(logits, &task.y);
        m.backward(&dlogits);
        let grads = m.arena().flat_grads();
        assert!(grads.iter().all(|g| !g.is_subnormal()));
    }

    #[test]
    fn deterministic_build() {
        let a = MlpSpec::new(4, &[8], 2).build(9);
        let b = MlpSpec::new(4, &[8], 2).build(9);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    /// `(element, group id)` for every element a visit of `range`
    /// reaches, in visit order, on an arena whose parameters are their own
    /// indices.
    fn visit(arena: &mut Params, range: std::ops::Range<usize>) -> Vec<(usize, usize)> {
        let mut seen = Vec::new();
        arena.for_each_group_in(range, |id, p, g| {
            assert_eq!(p.len(), g.len());
            seen.extend(p.iter().map(|&i| (i as usize, id)));
        });
        seen
    }

    #[test]
    fn group_visit_covers_all_params() {
        let mut m = MlpSpec::new(3, &[4, 5], 2).build(2);
        let mut seen = 0usize;
        let mut ids = Vec::new();
        m.for_each_group(|id, p, g| {
            assert_eq!(p.len(), g.len());
            seen += p.len();
            ids.push(id);
        });
        assert_eq!(seen, m.param_count());
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);

        // On the MLP's, the transformer's and the LM's arenas, the chunks
        // of every partition visit each element exactly once, in its own
        // window, under the id the whole-arena visit reports.
        let arenas = [
            m.into_arena(),
            crate::SequenceClassifier::new(4, 3, 1).arena().clone(),
            crate::TinyLm::new(5, 4, 2, 1).arena().clone(),
        ];
        for mut arena in arenas {
            let n = arena.param_count();
            arena.set_flat_params(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
            let whole = visit(&mut arena, 0..n);
            assert!(whole.iter().map(|&(i, _)| i).eq(0..n));
            assert!(whole.iter().all(|&(i, id)| arena.range(id).contains(&i)));
            assert_eq!(
                whole.last().map(|&(_, id)| id + 1),
                Some(arena.group_count())
            );
            for parts in 1..=4 {
                let chunks: Vec<_> = (0..parts)
                    .flat_map(|c| visit(&mut arena, summit_pool::chunk_range(n, parts, c)))
                    .collect();
                assert_eq!(chunks, whole, "{parts} parts");
            }
        }
    }
}
