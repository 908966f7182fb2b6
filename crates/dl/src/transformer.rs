//! A real transformer block with exact backpropagation.
//!
//! The paper's communication analysis is anchored on transformers
//! (BERT-large, the Blanchard SMILES model, the "past the trillion
//! parameter mark" outlook). This module implements the transformer's
//! computational core for real at laptop scale — multi-head
//! scaled-dot-product self-attention (one implementation, shared with the
//! causal LM in `lm`), layer normalization, and the residual feed-forward
//! block — with hand-derived backward passes that are verified against
//! finite differences. [`SequenceClassifier`] wraps a block with mean
//! pooling and a linear head and demonstrably learns order-sensitive
//! sequence tasks a bag-of-tokens model cannot.
//!
//! A model's parameters live in its one [`Params`] arena, as `Mlp`'s do:
//! each sub-module appends its groups when built and keeps only its shape,
//! its group ids and its forward cache. So a model trains under any
//! [`Optimizer`] and checkpoints like any other.

use summit_tensor::{ops, Initializer, Matrix};

use crate::optim::Optimizer;
use crate::params::Params;

/// `x · W` for group `w` of `arena`, a matrix `cols` columns wide.
pub(crate) fn mul(arena: &Params, x: &Matrix, w: usize, cols: usize) -> Matrix {
    let mut y = Matrix::zeros(x.rows(), cols);
    x.matmul_into(arena.view(w, cols), &mut y);
    y
}

/// `dy · Wᵀ` for group `w` of `arena`, a matrix `cols` columns wide.
pub(crate) fn mul_t(arena: &Params, dy: &Matrix, w: usize, cols: usize) -> Matrix {
    let mut dx = Matrix::zeros(dy.rows(), arena.range(w).len() / cols);
    dy.matmul_a_bt_into(arena.view(w, cols), &mut dx);
    dx
}

/// `gW += xᵀ · dy` into group `w`'s gradient window.
pub(crate) fn add_weight_grad(arena: &mut Params, x: &Matrix, dy: &Matrix, w: usize) {
    x.matmul_at_b_into_slice(dy, arena.grad_mut(w), true);
}

/// Append a Xavier-initialized `rows × cols` weight group to `arena`.
pub(crate) fn push_xavier(arena: &mut Params, rows: usize, cols: usize, seed: u64) -> usize {
    arena.push(rows * cols, |w| {
        Initializer::XavierUniform.fill(rows, cols, seed, w)
    })
}

/// Row-wise layer normalization with learnable scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Group ids of γ and β.
    gamma: usize,
    beta: usize,
    /// Cached normalized input and per-row inverse stddev from forward.
    cache: Option<(Matrix, Vec<f32>)>,
}

/// The variance floor of [`LayerNorm`].
const LN_EPS: f32 = 1e-5;

impl LayerNorm {
    /// Identity-initialized layer norm over `dim` features; γ and β are
    /// appended to `arena`.
    pub fn new(dim: usize, arena: &mut Params) -> Self {
        assert!(dim > 0, "dimension must be positive");
        LayerNorm {
            gamma: arena.push(dim, |g| g.fill(1.0)),
            beta: arena.push(dim, |_| {}),
            cache: None,
        }
    }

    /// Forward: normalize each row to zero mean / unit variance, then scale
    /// and shift.
    #[allow(clippy::needless_range_loop)] // parallel indexing of x, xhat, y
    pub fn forward(&mut self, arena: &Params, x: &Matrix) -> Matrix {
        let (gamma, beta) = (arena.group(self.gamma), arena.group(self.beta));
        assert_eq!(x.cols(), gamma.len(), "feature dimension mismatch");
        let d = x.cols() as f32;
        let mut xhat = Matrix::zeros(x.rows(), x.cols());
        let mut inv_std = Vec::with_capacity(x.rows());
        let mut y = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean: f32 = row.iter().sum::<f32>() / d;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d;
            let istd = 1.0 / (var + LN_EPS).sqrt();
            inv_std.push(istd);
            for c in 0..x.cols() {
                let xh = (row[c] - mean) * istd;
                xhat.set(r, c, xh);
                y.set(r, c, gamma[c] * xh + beta[c]);
            }
        }
        self.cache = Some((xhat, inv_std));
        y
    }

    /// Backward: accumulate γ/β gradients, return dx.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    #[allow(clippy::needless_range_loop)] // parallel indexing of dy, xhat, dx
    pub fn backward(&mut self, arena: &mut Params, dy: &Matrix) -> Matrix {
        let (xhat, inv_std) = self.cache.as_ref().expect("backward before forward");
        let d = dy.cols() as f32;
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());
        let gamma = arena.group(self.gamma);
        for r in 0..dy.rows() {
            let (dyr, xhr) = (dy.row(r), xhat.row(r));
            // dx = (γ·dy − mean(γ·dy) − x̂ · mean(γ·dy ⊙ x̂)) · inv_std
            let gdy: Vec<f32> = (0..dy.cols()).map(|c| gamma[c] * dyr[c]).collect();
            let m1: f32 = gdy.iter().sum::<f32>() / d;
            let m2: f32 = gdy.iter().zip(xhr).map(|(a, b)| a * b).sum::<f32>() / d;
            for c in 0..dy.cols() {
                dx.set(r, c, (gdy[c] - m1 - xhr[c] * m2) * inv_std[r]);
            }
        }
        let grads = arena.grad_mut(self.gamma);
        for r in 0..dy.rows() {
            for ((g, a), b) in grads.iter_mut().zip(dy.row(r)).zip(xhat.row(r)) {
                *g += a * b;
            }
        }
        let grads = arena.grad_mut(self.beta);
        for (g, s) in grads.iter_mut().zip(ops::column_sums(dy)) {
            *g += s;
        }
        dx
    }
}

/// Per-head forward cache: (Q, K, V, attention probabilities).
type HeadCache = (Matrix, Matrix, Matrix, Matrix);

/// Multi-head self-attention over one sequence (`seq × dim` matrices):
/// `heads` independent scaled-dot-product heads of width `dim / heads`,
/// concatenated and mixed by an output projection. With `causal` a
/// lower-triangular mask makes it autoregressive; one non-causal head is
/// the classic `Y = softmax(QKᵀ/√d) V · Wo`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    heads: usize,
    head_dim: usize,
    /// Group ids of the `dim × dim` query, key, value and output
    /// projections.
    wq: usize,
    wk: usize,
    wv: usize,
    wo: usize,
    /// Caches per forward: input X, per-head (Q, K, V, P), concat context.
    cache: Option<(Matrix, Vec<HeadCache>, Matrix)>,
    causal: bool,
}

impl MultiHeadAttention {
    /// Create with `heads` heads over `dim` features; the four projections
    /// are appended to `arena`.
    ///
    /// # Panics
    /// Panics unless `heads` divides `dim`.
    pub fn new(dim: usize, heads: usize, causal: bool, seed: u64, arena: &mut Params) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "heads must divide dim"
        );
        let mut init = |salt: u64| push_xavier(arena, dim, dim, seed.wrapping_add(salt));
        MultiHeadAttention {
            heads,
            head_dim: dim / heads,
            wq: init(1),
            wk: init(2),
            wv: init(3),
            wo: init(4),
            cache: None,
            causal,
        }
    }

    fn slice_head(m: &Matrix, head: usize, head_dim: usize) -> Matrix {
        let mut out = Matrix::zeros(m.rows(), head_dim);
        for r in 0..m.rows() {
            out.row_mut(r)
                .copy_from_slice(&m.row(r)[head * head_dim..][..head_dim]);
        }
        out
    }

    fn write_head(dst: &mut Matrix, src: &Matrix, head: usize, head_dim: usize) {
        for r in 0..src.rows() {
            dst.row_mut(r)[head * head_dim..][..head_dim].copy_from_slice(src.row(r));
        }
    }

    /// Forward over a `seq × dim` input.
    pub fn forward(&mut self, arena: &Params, x: &Matrix) -> Matrix {
        let (seq, dim) = (x.rows(), self.heads * self.head_dim);
        let q_all = mul(arena, x, self.wq, dim);
        let k_all = mul(arena, x, self.wk, dim);
        let v_all = mul(arena, x, self.wv, dim);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut concat = Matrix::zeros(seq, dim);
        let mut head_caches = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let q = Self::slice_head(&q_all, h, self.head_dim);
            let k = Self::slice_head(&k_all, h, self.head_dim);
            let v = Self::slice_head(&v_all, h, self.head_dim);
            let mut p = q.matmul_a_bt(&k);
            p.map_inplace(|s| s * scale);
            if self.causal {
                for r in 0..seq {
                    for c in (r + 1)..seq {
                        p.set(r, c, f32::NEG_INFINITY);
                    }
                }
            }
            ops::softmax_inplace(&mut p);
            let o = p.matmul(&v);
            Self::write_head(&mut concat, &o, h, self.head_dim);
            head_caches.push((q, k, v, p));
        }
        let y = mul(arena, &concat, self.wo, dim);
        self.cache = Some((x.clone(), head_caches, concat));
        y
    }

    /// Backward; accumulates weight gradients, returns dX.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, arena: &mut Params, dy: &Matrix) -> Matrix {
        let (x, head_caches, concat) = self.cache.as_ref().expect("backward before forward");
        let (seq, dim) = (x.rows(), self.heads * self.head_dim);
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        add_weight_grad(arena, concat, dy, self.wo);
        let d_concat = mul_t(arena, dy, self.wo, dim);

        let mut d_q_all = Matrix::zeros(seq, dim);
        let mut d_k_all = Matrix::zeros(seq, dim);
        let mut d_v_all = Matrix::zeros(seq, dim);
        for (h, (q, k, v, p)) in head_caches.iter().enumerate() {
            let d_o = Self::slice_head(&d_concat, h, self.head_dim);
            let mut d_p = d_o.matmul_a_bt(v);
            let d_v = p.matmul_at_b(&d_o);
            // Softmax backward (rows; masked entries have p = 0 so their
            // gradient contribution vanishes automatically).
            for r in 0..seq {
                let dot: f32 = d_p.row(r).iter().zip(p.row(r)).map(|(a, b)| a * b).sum();
                for c in 0..seq {
                    let val = p.get(r, c) * (d_p.get(r, c) - dot);
                    d_p.set(r, c, val);
                }
            }
            d_p.map_inplace(|s| s * scale);
            let d_q = d_p.matmul(k);
            let d_k = d_p.matmul_at_b(q);
            Self::write_head(&mut d_q_all, &d_q, h, self.head_dim);
            Self::write_head(&mut d_k_all, &d_k, h, self.head_dim);
            Self::write_head(&mut d_v_all, &d_v, h, self.head_dim);
        }

        add_weight_grad(arena, x, &d_q_all, self.wq);
        add_weight_grad(arena, x, &d_k_all, self.wk);
        add_weight_grad(arena, x, &d_v_all, self.wv);
        let mut dx = mul_t(arena, &d_q_all, self.wq, dim);
        dx.add_assign(&mul_t(arena, &d_k_all, self.wk, dim));
        dx.add_assign(&mul_t(arena, &d_v_all, self.wv, dim));
        dx
    }
}

/// A pre-norm transformer block: `x + Attn(LN(x))` then `x + FF(LN(x))`
/// with a ReLU feed-forward of width `4·dim`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    dim: usize,
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    /// Group ids of the `dim × 4·dim` and `4·dim × dim` feed-forward
    /// weights.
    ff1: usize,
    ff2: usize,
    /// Caches: LN2 output and the post-ReLU hidden activation.
    ff_cache: Option<(Matrix, Matrix)>,
}

impl TransformerBlock {
    /// A block over `dim` features; its ten parameter groups are appended
    /// to `arena` (LN1 γ, β; Wq, Wk, Wv, Wo; LN2 γ, β; FF1; FF2).
    pub fn new(dim: usize, seed: u64, arena: &mut Params) -> Self {
        TransformerBlock {
            dim,
            ln1: LayerNorm::new(dim, arena),
            attn: MultiHeadAttention::new(dim, 1, false, seed, arena),
            ln2: LayerNorm::new(dim, arena),
            ff1: push_xavier(arena, dim, 4 * dim, seed.wrapping_add(10)),
            ff2: push_xavier(arena, 4 * dim, dim, seed.wrapping_add(11)),
            ff_cache: None,
        }
    }

    /// Forward over one `seq × dim` sequence.
    pub fn forward(&mut self, arena: &Params, x: &Matrix) -> Matrix {
        // Attention sub-layer with residual.
        let normed = self.ln1.forward(arena, x);
        let attn_out = self.attn.forward(arena, &normed);
        let mut h = x.clone();
        h.add_assign(&attn_out);
        // Feed-forward sub-layer with residual.
        let normed2 = self.ln2.forward(arena, &h);
        let mut hidden = mul(arena, &normed2, self.ff1, 4 * self.dim);
        ops::relu_inplace(&mut hidden);
        h.add_assign(&mul(arena, &hidden, self.ff2, self.dim));
        self.ff_cache = Some((normed2, hidden));
        h
    }

    /// Backward; returns dX and accumulates all parameter gradients.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, arena: &mut Params, dy: &Matrix) -> Matrix {
        let (normed2, hidden) = self.ff_cache.as_ref().expect("backward before forward");
        // y = h + FF(LN2(h)); dy flows to both branches.
        add_weight_grad(arena, hidden, dy, self.ff2);
        let mut d_hidden = mul_t(arena, dy, self.ff2, self.dim);
        ops::relu_backward(hidden, &mut d_hidden);
        add_weight_grad(arena, normed2, &d_hidden, self.ff1);
        let d_normed2 = mul_t(arena, &d_hidden, self.ff1, 4 * self.dim);
        let mut dh = self.ln2.backward(arena, &d_normed2);
        dh.add_assign(dy); // residual path

        // h = x + Attn(LN1(x)); dh flows to both branches.
        let d_attn = self.attn.backward(arena, &dh);
        let mut dx = self.ln1.backward(arena, &d_attn);
        dx.add_assign(&dh); // residual path
        dx
    }
}

/// Sinusoidal positional encoding matrix (`seq × dim`). Self-attention
/// with mean pooling is permutation-invariant, so position-sensitive tasks
/// require adding these to the token features (Vaswani et al.).
pub fn positional_encoding(seq: usize, dim: usize) -> Matrix {
    let mut pe = Matrix::zeros(seq, dim);
    for r in 0..seq {
        for c in 0..dim {
            let angle = r as f32 / 10_000f32.powf((2 * (c / 2)) as f32 / dim as f32);
            pe.set(r, c, if c % 2 == 0 { angle.sin() } else { angle.cos() });
        }
    }
    pe
}

/// A sequence classifier: positional encoding → transformer block → mean
/// pooling → linear head, over one arena.
#[derive(Debug, Clone)]
pub struct SequenceClassifier {
    arena: Params,
    block: TransformerBlock,
    /// Group id of the `dim × classes` head.
    head: usize,
    classes: usize,
    cache: Option<(usize, Matrix)>,
}

impl SequenceClassifier {
    /// A classifier over `dim`-feature tokens into `classes` classes.
    pub fn new(dim: usize, classes: usize, seed: u64) -> Self {
        let mut arena = Params::default();
        let block = TransformerBlock::new(dim, seed, &mut arena);
        let head = push_xavier(&mut arena, dim, classes, seed.wrapping_add(20));
        SequenceClassifier {
            arena,
            block,
            head,
            classes,
            cache: None,
        }
    }

    /// The parameter and gradient arena.
    pub fn arena(&self) -> &Params {
        &self.arena
    }

    /// The parameter and gradient arena, mutably.
    pub fn arena_mut(&mut self) -> &mut Params {
        &mut self.arena
    }

    /// Logits for one `seq × dim` sequence (a `1 × classes` matrix).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        // Inject position information; the encoding is constant, so the
        // backward pass is unchanged.
        let mut x_pe = x.clone();
        x_pe.add_assign(&positional_encoding(x.rows(), x.cols()));
        let y = self.block.forward(&self.arena, &x_pe);
        // Mean-pool over sequence positions.
        let seq = y.rows();
        let mut pooled = Matrix::zeros(1, y.cols());
        for r in 0..seq {
            for (p, v) in pooled.row_mut(0).iter_mut().zip(y.row(r)) {
                *p += v / seq as f32;
            }
        }
        let logits = mul(&self.arena, &pooled, self.head, self.classes);
        self.cache = Some((seq, pooled));
        logits
    }

    /// Backward from the logits gradient.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dlogits: &Matrix) {
        let (seq, pooled) = self.cache.as_ref().expect("backward before forward");
        add_weight_grad(&mut self.arena, pooled, dlogits, self.head);
        let d_pooled = mul_t(&self.arena, dlogits, self.head, self.classes);
        // Un-pool: every position receives d_pooled / seq.
        let mut dy = Matrix::zeros(*seq, d_pooled.cols());
        for r in 0..*seq {
            for (d, p) in dy.row_mut(r).iter_mut().zip(d_pooled.row(0)) {
                *d = p / *seq as f32;
            }
        }
        self.block.backward(&mut self.arena, &dy);
    }

    /// One training step on a single sequence under `optimizer`, group by
    /// group at the base learning rate; returns the loss.
    pub fn train_step(&mut self, x: &Matrix, label: usize, optimizer: &mut dyn Optimizer) -> f32 {
        let logits = self.forward(x);
        let (loss, dlogits) = ops::softmax_cross_entropy(logits, &[label]);
        self.arena.zero_grads();
        self.backward(&dlogits);
        self.arena
            .for_each_group(|id, p, g| optimizer.step_group(id, 1.0, p, g));
        optimizer.advance();
        loss
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::optim::Sgd;

    pub(crate) fn seq_input(seq: usize, dim: usize, seed: u64) -> Matrix {
        let mut m = Matrix::zeros(seq, dim);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        m.map_inplace(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / 2.0f32.powi(31)) - 0.5
        });
        m
    }

    /// Generic finite-difference gradient check driven through a scalar
    /// loss `L = Σ y ⊙ w_loss` so dL/dy is a known constant matrix: the
    /// input gradient at three entries, and one parameter per group of
    /// `arena`, perturbed where it lies.
    pub(crate) fn grad_check<M>(
        model: &mut M,
        arena: &mut Params,
        forward: fn(&mut M, &Params, &Matrix) -> Matrix,
        backward: fn(&mut M, &mut Params, &Matrix) -> Matrix,
        x: &Matrix,
    ) {
        let y0 = forward(model, arena, x);
        // Fixed loss weights.
        let weights = (1..=y0.as_slice().len()).map(|k| (k as f32 * 0.37).sin());
        let w_loss = Matrix::from_vec(y0.rows(), y0.cols(), weights.collect());
        let loss = |y: &Matrix| summit_tensor::dot(y.as_slice(), w_loss.as_slice());
        arena.zero_grads();
        let _ = forward(model, arena, x);
        let dx = backward(model, arena, &w_loss);

        // Check input gradient at a few entries.
        let eps = 1e-2f32;
        for idx in [0usize, x.as_slice().len() / 2, x.as_slice().len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&forward(model, arena, &xp));
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lm = loss(&forward(model, arena, &xm));
            let fd = (lp - lm) / (2.0 * eps);
            let an = dx.as_slice()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "input grad {idx}: fd {fd} vs analytic {an}"
            );
        }

        // Check the middle parameter of every group.
        let analytic = arena.flat_grads();
        for id in 0..arena.group_count() {
            let range = arena.range(id);
            let i = range.start + range.len() / 2;
            arena.params_mut()[i] += eps;
            let lp = loss(&forward(model, arena, x));
            arena.params_mut()[i] -= 2.0 * eps;
            let lm = loss(&forward(model, arena, x));
            arena.params_mut()[i] += eps;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic[i]).abs() < 3e-2 * (1.0 + fd.abs()),
                "group {id} param grad: fd {fd} vs analytic {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn layernorm_rows_are_normalized() {
        let mut arena = Params::default();
        let mut ln = LayerNorm::new(8, &mut arena);
        let x = seq_input(4, 8, 3);
        let y = ln.forward(&arena, &x);
        for r in 0..4 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_gradients_check() {
        let mut arena = Params::default();
        let mut ln = LayerNorm::new(6, &mut arena);
        let x = seq_input(3, 6, 7);
        let (fwd, bwd) = (LayerNorm::forward, LayerNorm::backward);
        grad_check(&mut ln, &mut arena, fwd, bwd, &x);
    }

    #[test]
    fn attention_gradients_check() {
        let mut arena = Params::default();
        let mut attn = MultiHeadAttention::new(6, 1, false, 11, &mut arena);
        let x = seq_input(4, 6, 13);
        let (fwd, bwd) = (MultiHeadAttention::forward, MultiHeadAttention::backward);
        grad_check(&mut attn, &mut arena, fwd, bwd, &x);
    }

    #[test]
    fn transformer_block_gradients_check() {
        let mut arena = Params::default();
        let mut block = TransformerBlock::new(4, 17, &mut arena);
        let x = seq_input(5, 4, 19);
        let (fwd, bwd) = (TransformerBlock::forward, TransformerBlock::backward);
        grad_check(&mut block, &mut arena, fwd, bwd, &x);
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut arena = Params::default();
        let mut attn = MultiHeadAttention::new(8, 1, false, 5, &mut arena);
        let x = seq_input(6, 8, 23);
        let _ = attn.forward(&arena, &x);
        let (_, heads, _) = attn.cache.as_ref().unwrap();
        let (_, _, _, p) = &heads[0];
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn block_preserves_shape_and_param_count() {
        let mut arena = Params::default();
        let mut block = TransformerBlock::new(8, 1, &mut arena);
        let x = seq_input(10, 8, 2);
        let y = block.forward(&arena, &x);
        assert_eq!((y.rows(), y.cols()), (10, 8));
        // 2 LN (2·8 each) + 4 attention (64 each) + FF (8·32 + 32·8).
        assert_eq!(arena.param_count(), 2 * 16 + 4 * 64 + 2 * 256);
        assert_eq!(arena.group_count(), 10);
    }

    /// Without positional encodings the block is permutation-equivariant:
    /// swapping two input rows swaps the corresponding output rows. This is
    /// why `SequenceClassifier` injects positional encodings.
    #[test]
    fn block_is_permutation_equivariant() {
        let mut arena = Params::default();
        let mut block = TransformerBlock::new(6, 31, &mut arena);
        let x = seq_input(5, 6, 37);
        let y = block.forward(&arena, &x);
        // Swap rows 1 and 3 of the input.
        let mut xs = x.clone();
        xs.row_mut(1).copy_from_slice(x.row(3));
        xs.row_mut(3).copy_from_slice(x.row(1));
        let ys = block.forward(&arena, &xs);
        for c in 0..6 {
            assert!((y.get(1, c) - ys.get(3, c)).abs() < 1e-5);
            assert!((y.get(3, c) - ys.get(1, c)).abs() < 1e-5);
            assert!((y.get(0, c) - ys.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn positional_encoding_distinguishes_positions() {
        let pe = positional_encoding(16, 8);
        for r in 1..16 {
            let diff: f32 = (0..8).map(|c| (pe.get(r, c) - pe.get(0, c)).abs()).sum();
            assert!(diff > 1e-3, "positions 0 and {r} indistinguishable");
        }
        assert!(pe.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    /// The classifier learns "which third of the sequence holds the peak
    /// token" — a task that needs cross-position information flow.
    #[test]
    fn sequence_classifier_learns_peak_position_task() {
        let dim = 8;
        let seq = 9;
        let make_example = |i: usize| -> (Matrix, usize) {
            let mut x = seq_input(seq, dim, 1000 + i as u64);
            x.map_inplace(|v| v * 0.1);
            let class = i % 3;
            let peak_pos = class * 3 + (i / 3) % 3;
            x.set(peak_pos, 0, 3.0); // a large marker in channel 0
            (x, class)
        };
        let train_n = 120;
        let mut model = SequenceClassifier::new(dim, 3, 2026);
        let mut sgd = Sgd::new(0.1, 0.0, 0.0);
        let mut last_losses = Vec::new();
        for epoch in 0..120 {
            let mut epoch_loss = 0.0;
            for i in 0..train_n {
                let (x, label) = make_example(i);
                epoch_loss += model.train_step(&x, label, &mut sgd);
            }
            if epoch >= 115 {
                last_losses.push(epoch_loss / train_n as f32);
            }
        }
        let final_loss = last_losses.iter().sum::<f32>() / last_losses.len() as f32;
        assert!(
            final_loss < 0.3,
            "classifier failed to learn: loss {final_loss}"
        );
        // And it generalizes to unseen background noise.
        let mut correct = 0;
        for i in train_n..train_n + 30 {
            let (x, label) = make_example(i);
            let logits = model.forward(&x);
            if ops::accuracy(&logits, &[label]) == 1.0 {
                correct += 1;
            }
        }
        assert!(correct >= 24, "generalization {correct}/30");
    }
}
