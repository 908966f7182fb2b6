//! Forward-only model state, split out of the trainer for serving.
//!
//! Training needs gradient buffers, cached activations, and `&mut`
//! forward passes; serving needs none of that. A [`ServableModel`] is the
//! immutable half of an [`Mlp`](crate::model::Mlp): weights and biases,
//! with a `&self` forward pass so any number of worker threads can run
//! inference against one replica concurrently.
//!
//! Two entry points matter to the serving plane:
//!
//! * [`ServableModel::forward_batch`] — **one packed SIMD GEMM per layer
//!   per micro-batch**. This is the serving hot path: batching B requests
//!   turns B matvecs (each of which re-packs the weight panels) into one
//!   matrix product that amortizes the packing and keeps the microkernel's
//!   register tiles full.
//! * [`ServableModel::forward_one`] — the sequential per-request path the
//!   batched path is measured against. Both run the same kernels, and the
//!   per-row accumulation chains of the packed GEMM depend only on the
//!   shared dimension — so row `i` of a batched forward is **bit-identical**
//!   to the single-request forward of row `i` (pinned by
//!   `summit-serve`'s identity tests).
//!
//! The training and serving forwards share one routine
//! ([`dense_forward_into`]), so a served logit is bitwise the logit the
//! trainer would have computed.

use crate::model::MlpSpec;
use summit_tensor::{ops, MatRef, Matrix};

/// Shared dense-layer forward: `out = x·W + b`. Both the trainer's layers
/// (whose `W` is a view of the model's parameter arena) and
/// [`ServableModel`] call this, so training-time and serving-time
/// activations are bitwise identical.
pub(crate) fn dense_forward_into(x: &Matrix, w: MatRef<'_>, b: &[f32], out: &mut Matrix) {
    x.matmul_into(w, out);
    ops::add_bias(out, b);
}

/// One forward-only dense layer: weights, bias, no gradient state.
#[derive(Debug, Clone)]
struct ServableLayer {
    w: Matrix,
    b: Vec<f32>,
}

/// An immutable, forward-only MLP replica.
///
/// Construction is by value copy from a trained model (or a flat parameter
/// vector fresh off a binomial broadcast), after which the model is
/// `Send + Sync` and every forward is `&self`.
#[derive(Debug, Clone)]
pub struct ServableModel {
    layers: Vec<ServableLayer>,
}

impl ServableModel {
    /// Materialize a servable replica from an architecture and a flat
    /// parameter vector (the layout of
    /// [`Mlp::flat_params`](crate::model::Mlp::flat_params) — exactly what
    /// a weight broadcast delivers).
    ///
    /// # Panics
    /// Panics if `flat.len()` does not match the spec's parameter count.
    pub fn from_spec_params(spec: &MlpSpec, flat: &[f32]) -> Self {
        let dims = spec.dims();
        Self::from_shapes_params(dims.windows(2).map(|d| (d[0], d[1])), flat)
    }

    /// A replica of layers shaped `(in, out)` in turn over a flat parameter
    /// vector in that layout — the path [`Mlp::servable`](crate::model::Mlp)
    /// takes from its parameter arena.
    ///
    /// # Panics
    /// Panics if `flat.len()` does not match the shapes' parameter count.
    pub(crate) fn from_shapes_params(
        shapes: impl Iterator<Item = (usize, usize)> + Clone,
        flat: &[f32],
    ) -> Self {
        let expected: usize = shapes.clone().map(|(i, o)| i * o + o).sum();
        assert_eq!(flat.len(), expected, "flat parameter length mismatch");
        let mut rest = flat;
        let layers = shapes
            .map(|(rows, cols)| {
                let (w, tail) = rest.split_at(rows * cols);
                let (b, tail) = tail.split_at(cols);
                rest = tail;
                let w = Matrix::from_vec(rows, cols, w.to_vec());
                ServableLayer { w, b: b.to_vec() }
            })
            .collect();
        ServableModel { layers }
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.w.rows())
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.as_slice().len() + l.b.len())
            .sum()
    }

    /// Copy all parameters into one flat vector (the
    /// [`Mlp::flat_params`](crate::model::Mlp::flat_params) layout) — what a
    /// root rank hands to the weight broadcast.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            out.extend_from_slice(l.w.as_slice());
            out.extend_from_slice(&l.b);
        }
        out
    }

    /// Batched forward: logits for a `batch × inputs` matrix, one packed
    /// GEMM per layer. `&self` — replicas serve concurrently.
    ///
    /// # Panics
    /// Panics if `x.cols() != self.input_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        let depth = self.layers.len();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut y = Matrix::zeros(h.rows(), layer.w.cols());
            dense_forward_into(&h, (&layer.w).into(), &layer.b, &mut y);
            if i + 1 < depth {
                ops::relu_inplace(&mut y);
            }
            h = y;
        }
        h
    }

    /// Sequential single-request forward — the per-request matvec path the
    /// micro-batcher replaces. Runs the identical kernels on a 1-row
    /// matrix, so its output is bitwise row `i` of a batched forward that
    /// includes this request.
    ///
    /// # Panics
    /// Panics if `x.len() != self.input_dim()`.
    pub fn forward_one(&self, x: &[f32]) -> Vec<f32> {
        let row = Matrix::from_vec(1, x.len(), x.to_vec());
        self.forward_batch(&row).as_slice().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MlpSpec;

    fn input(rows: usize, cols: usize, seed: u64) -> Matrix {
        let data = (0..rows * cols)
            .map(|i| ((i as u64).wrapping_mul(seed.wrapping_add(0x9e3779b9)) % 997) as f32 * 0.01)
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn servable_matches_training_forward_bitwise() {
        let spec = MlpSpec::new(6, &[16, 8], 4);
        let mut mlp = spec.build(42);
        let servable = mlp.servable();
        let x = input(5, 6, 3);
        let trained = mlp.forward(&x);
        let served = servable.forward_batch(&x);
        assert_eq!(trained.as_slice(), served.as_slice());
    }

    #[test]
    fn flat_params_round_trip() {
        let spec = MlpSpec::new(4, &[7], 3);
        let mlp = spec.build(9);
        let flat = mlp.flat_params();
        let servable = ServableModel::from_spec_params(&spec, &flat);
        assert_eq!(servable.flat_params(), flat);
        assert_eq!(servable.param_count(), mlp.param_count());
        assert_eq!(servable.input_dim(), 4);
        assert_eq!(servable.depth(), 2);
    }

    #[test]
    fn forward_one_is_a_batched_row() {
        let spec = MlpSpec::new(8, &[12], 5);
        let servable = ServableModel::from_spec_params(&spec, &spec.build(7).flat_params());
        let x = input(3, 8, 11);
        let batched = servable.forward_batch(&x);
        for r in 0..3 {
            let one = servable.forward_one(x.row(r));
            assert_eq!(one.as_slice(), batched.row(r));
        }
    }

    #[test]
    #[should_panic(expected = "flat parameter length mismatch")]
    fn wrong_param_length_panics() {
        let spec = MlpSpec::new(4, &[], 2);
        let _ = ServableModel::from_spec_params(&spec, &[0.0; 3]);
    }
}
