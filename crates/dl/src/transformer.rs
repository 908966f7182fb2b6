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

use summit_tensor::{ops, Initializer, Matrix};

/// Row-wise layer normalization with learnable scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    g_gamma: Vec<f32>,
    g_beta: Vec<f32>,
    /// Cached normalized input and per-row inverse stddev from forward.
    cache: Option<(Matrix, Vec<f32>)>,
    eps: f32,
}

impl LayerNorm {
    /// Identity-initialized layer norm over `dim` features.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        LayerNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            g_gamma: vec![0.0; dim],
            g_beta: vec![0.0; dim],
            cache: None,
            eps: 1e-5,
        }
    }

    /// Forward: normalize each row to zero mean / unit variance, then scale
    /// and shift.
    #[allow(clippy::needless_range_loop)] // parallel indexing of x, xhat, y
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.gamma.len(), "feature dimension mismatch");
        let d = x.cols() as f32;
        let mut xhat = Matrix::zeros(x.rows(), x.cols());
        let mut inv_std = Vec::with_capacity(x.rows());
        let mut y = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean: f32 = row.iter().sum::<f32>() / d;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.push(istd);
            for c in 0..x.cols() {
                let xh = (row[c] - mean) * istd;
                xhat.set(r, c, xh);
                y.set(r, c, self.gamma[c] * xh + self.beta[c]);
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
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (xhat, inv_std) = self.cache.as_ref().expect("backward before forward");
        let d = dy.cols() as f32;
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());
        for r in 0..dy.rows() {
            let dyr = dy.row(r);
            let xhr = xhat.row(r);
            // Parameter gradients.
            for c in 0..dy.cols() {
                self.g_gamma[c] += dyr[c] * xhr[c];
                self.g_beta[c] += dyr[c];
            }
            // dx = (γ·dy − mean(γ·dy) − x̂ · mean(γ·dy ⊙ x̂)) · inv_std
            let gdy: Vec<f32> = (0..dy.cols()).map(|c| self.gamma[c] * dyr[c]).collect();
            let m1: f32 = gdy.iter().sum::<f32>() / d;
            let m2: f32 = gdy.iter().zip(xhr).map(|(a, b)| a * b).sum::<f32>() / d;
            for c in 0..dy.cols() {
                dx.set(r, c, (gdy[c] - m1 - xhr[c] * m2) * inv_std[r]);
            }
        }
        dx
    }

    /// Visit (params, grads) pairs: γ then β.
    pub fn for_each_group(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        f(&mut self.gamma, &self.g_gamma);
        f(&mut self.beta, &self.g_beta);
    }

    /// Zero the γ/β gradient buffers.
    pub fn zero_grads(&mut self) {
        self.g_gamma.iter_mut().for_each(|g| *g = 0.0);
        self.g_beta.iter_mut().for_each(|g| *g = 0.0);
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
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    g_wq: Matrix,
    g_wk: Matrix,
    g_wv: Matrix,
    g_wo: Matrix,
    /// Caches per forward: input X, per-head (Q, K, V, P), concat context.
    cache: Option<(Matrix, Vec<HeadCache>, Matrix)>,
    causal: bool,
}

impl MultiHeadAttention {
    /// Create with `heads` heads over `dim` features.
    ///
    /// # Panics
    /// Panics unless `heads` divides `dim`.
    pub fn new(dim: usize, heads: usize, causal: bool, seed: u64) -> Self {
        assert!(
            heads > 0 && dim.is_multiple_of(heads),
            "heads must divide dim"
        );
        let init = |salt: u64| Initializer::XavierUniform.init(dim, dim, seed.wrapping_add(salt));
        MultiHeadAttention {
            heads,
            head_dim: dim / heads,
            wq: init(1),
            wk: init(2),
            wv: init(3),
            wo: init(4),
            g_wq: Matrix::zeros(dim, dim),
            g_wk: Matrix::zeros(dim, dim),
            g_wv: Matrix::zeros(dim, dim),
            g_wo: Matrix::zeros(dim, dim),
            cache: None,
            causal,
        }
    }

    fn slice_head(m: &Matrix, head: usize, head_dim: usize) -> Matrix {
        let mut out = Matrix::zeros(m.rows(), head_dim);
        for r in 0..m.rows() {
            for c in 0..head_dim {
                out.set(r, c, m.get(r, head * head_dim + c));
            }
        }
        out
    }

    fn write_head(dst: &mut Matrix, src: &Matrix, head: usize, head_dim: usize) {
        for r in 0..src.rows() {
            for c in 0..head_dim {
                dst.set(r, head * head_dim + c, src.get(r, c));
            }
        }
    }

    /// Forward over a `seq × dim` input.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let seq = x.rows();
        let q_all = x.matmul(&self.wq);
        let k_all = x.matmul(&self.wk);
        let v_all = x.matmul(&self.wv);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut concat = Matrix::zeros(seq, self.heads * self.head_dim);
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
        let y = concat.matmul(&self.wo);
        self.cache = Some((x.clone(), head_caches, concat));
        y
    }

    /// Backward; accumulates weight gradients, returns dX.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (x, head_caches, concat) = self.cache.as_ref().expect("backward before forward");
        let seq = x.rows();
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        self.g_wo.add_assign(&concat.matmul_at_b(dy));
        let d_concat = dy.matmul_a_bt(&self.wo);

        let dim = self.heads * self.head_dim;
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

        self.g_wq.add_assign(&x.matmul_at_b(&d_q_all));
        self.g_wk.add_assign(&x.matmul_at_b(&d_k_all));
        self.g_wv.add_assign(&x.matmul_at_b(&d_v_all));
        let mut dx = d_q_all.matmul_a_bt(&self.wq);
        dx.add_assign(&d_k_all.matmul_a_bt(&self.wk));
        dx.add_assign(&d_v_all.matmul_a_bt(&self.wv));
        dx
    }

    /// Visit (params, grads) pairs.
    pub fn for_each_group(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        f(self.wq.as_mut_slice(), self.g_wq.as_slice());
        f(self.wk.as_mut_slice(), self.g_wk.as_slice());
        f(self.wv.as_mut_slice(), self.g_wv.as_slice());
        f(self.wo.as_mut_slice(), self.g_wo.as_slice());
    }

    pub(crate) fn zero_grads(&mut self) {
        self.g_wq.map_inplace(|_| 0.0);
        self.g_wk.map_inplace(|_| 0.0);
        self.g_wv.map_inplace(|_| 0.0);
        self.g_wo.map_inplace(|_| 0.0);
    }
}

/// A pre-norm transformer block: `x + Attn(LN(x))` then `x + FF(LN(x))`
/// with a ReLU feed-forward of width `4·dim`.
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    w_ff1: Matrix,
    w_ff2: Matrix,
    g_ff1: Matrix,
    g_ff2: Matrix,
    /// Caches: LN2 output and the post-ReLU hidden activation.
    ff_cache: Option<(Matrix, Matrix)>,
}

impl TransformerBlock {
    /// A block over `dim` features.
    pub fn new(dim: usize, seed: u64) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, 1, false, seed),
            ln2: LayerNorm::new(dim),
            w_ff1: Initializer::XavierUniform.init(dim, 4 * dim, seed.wrapping_add(10)),
            w_ff2: Initializer::XavierUniform.init(4 * dim, dim, seed.wrapping_add(11)),
            g_ff1: Matrix::zeros(dim, 4 * dim),
            g_ff2: Matrix::zeros(4 * dim, dim),
            ff_cache: None,
        }
    }

    /// Forward over one `seq × dim` sequence.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        // Attention sub-layer with residual.
        let normed = self.ln1.forward(x);
        let attn_out = self.attn.forward(&normed);
        let mut h = x.clone();
        h.add_assign(&attn_out);
        // Feed-forward sub-layer with residual.
        let normed2 = self.ln2.forward(&h);
        let mut hidden = normed2.matmul(&self.w_ff1);
        ops::relu_inplace(&mut hidden);
        let ff_out = hidden.matmul(&self.w_ff2);
        self.ff_cache = Some((normed2, hidden));
        let mut y = h;
        y.add_assign(&ff_out);
        y
    }

    /// Backward; returns dX and accumulates all parameter gradients.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        self.backward_with(dy, |_, _| {})
    }

    /// Backward with a per-group gradient-readiness callback, the
    /// transformer's half of the overlap hook (see [`Mlp::backward_with`]).
    /// Group indices follow [`TransformerBlock::for_each_group`] order
    /// (0 = LN1 γ … 9 = FF2), and because backpropagation walks the block
    /// back to front, groups become ready in strictly descending index
    /// order — the growing-suffix property a bucket schedule needs.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    ///
    /// [`Mlp::backward_with`]: crate::model::Mlp::backward_with
    pub fn backward_with(
        &mut self,
        dy: &Matrix,
        mut on_group_ready: impl FnMut(usize, &[f32]),
    ) -> Matrix {
        let (normed2, hidden) = self.ff_cache.as_ref().expect("backward before forward");
        // y = h + FF(LN2(h)); dy flows to both branches.
        self.g_ff2.add_assign(&hidden.matmul_at_b(dy));
        on_group_ready(9, self.g_ff2.as_slice());
        let mut d_hidden = dy.matmul_a_bt(&self.w_ff2);
        ops::relu_backward(hidden, &mut d_hidden);
        self.g_ff1.add_assign(&normed2.matmul_at_b(&d_hidden));
        on_group_ready(8, self.g_ff1.as_slice());
        let d_normed2 = d_hidden.matmul_a_bt(&self.w_ff1);
        let mut dh = self.ln2.backward(&d_normed2);
        on_group_ready(7, &self.ln2.g_beta);
        on_group_ready(6, &self.ln2.g_gamma);
        dh.add_assign(dy); // residual path

        // h = x + Attn(LN1(x)); dh flows to both branches.
        let d_attn = self.attn.backward(&dh);
        on_group_ready(5, self.attn.g_wo.as_slice());
        on_group_ready(4, self.attn.g_wv.as_slice());
        on_group_ready(3, self.attn.g_wk.as_slice());
        on_group_ready(2, self.attn.g_wq.as_slice());
        let mut dx = self.ln1.backward(&d_attn);
        on_group_ready(1, &self.ln1.g_beta);
        on_group_ready(0, &self.ln1.g_gamma);
        dx.add_assign(&dh); // residual path
        dx
    }

    /// Per-group scalar parameter counts in [`TransformerBlock::for_each_group`]
    /// order — the bucket-schedule input for a transformer replica.
    pub fn group_param_sizes(&mut self) -> Vec<usize> {
        let mut sizes = Vec::new();
        self.for_each_group(|p, _| sizes.push(p.len()));
        sizes
    }

    /// Visit every (params, grads) pair in the block.
    pub fn for_each_group(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        self.ln1.for_each_group(&mut f);
        self.attn.for_each_group(&mut f);
        self.ln2.for_each_group(&mut f);
        f(self.w_ff1.as_mut_slice(), self.g_ff1.as_slice());
        f(self.w_ff2.as_mut_slice(), self.g_ff2.as_slice());
    }

    /// Zero all gradient buffers.
    pub fn zero_grads(&mut self) {
        self.ln1.zero_grads();
        self.attn.zero_grads();
        self.ln2.zero_grads();
        self.g_ff1.map_inplace(|_| 0.0);
        self.g_ff2.map_inplace(|_| 0.0);
    }

    /// Total parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.for_each_group(|p, _| n += p.len());
        n
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
/// pooling → linear head.
#[derive(Debug, Clone)]
pub struct SequenceClassifier {
    block: TransformerBlock,
    head: Matrix,
    g_head: Matrix,
    cache: Option<(usize, Matrix)>,
}

impl SequenceClassifier {
    /// A classifier over `dim`-feature tokens into `classes` classes.
    pub fn new(dim: usize, classes: usize, seed: u64) -> Self {
        SequenceClassifier {
            block: TransformerBlock::new(dim, seed),
            head: Initializer::XavierUniform.init(dim, classes, seed.wrapping_add(20)),
            g_head: Matrix::zeros(dim, classes),
            cache: None,
        }
    }

    /// Logits for one `seq × dim` sequence (a `1 × classes` matrix).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        // Inject position information; the encoding is constant, so the
        // backward pass is unchanged.
        let mut x_pe = x.clone();
        x_pe.add_assign(&positional_encoding(x.rows(), x.cols()));
        let y = self.block.forward(&x_pe);
        // Mean-pool over sequence positions.
        let seq = y.rows();
        let mut pooled = Matrix::zeros(1, y.cols());
        for r in 0..seq {
            for c in 0..y.cols() {
                let v = pooled.get(0, c) + y.get(r, c) / seq as f32;
                pooled.set(0, c, v);
            }
        }
        self.cache = Some((seq, pooled.clone()));
        pooled.matmul(&self.head)
    }

    /// Backward from the logits gradient.
    ///
    /// # Panics
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dlogits: &Matrix) {
        let (seq, pooled) = self.cache.as_ref().expect("backward before forward");
        self.g_head.add_assign(&pooled.matmul_at_b(dlogits));
        let d_pooled = dlogits.matmul_a_bt(&self.head);
        // Un-pool: every position receives d_pooled / seq.
        let mut dy = Matrix::zeros(*seq, d_pooled.cols());
        for r in 0..*seq {
            for c in 0..d_pooled.cols() {
                dy.set(r, c, d_pooled.get(0, c) / *seq as f32);
            }
        }
        self.block.backward(&dy);
    }

    /// Zero all gradients.
    pub fn zero_grads(&mut self) {
        self.block.zero_grads();
        self.g_head.map_inplace(|_| 0.0);
    }

    /// Visit every (params, grads) pair.
    pub fn for_each_group(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        self.block.for_each_group(&mut f);
        f(self.head.as_mut_slice(), self.g_head.as_slice());
    }

    /// One plain-SGD training step on a single sequence; returns the loss.
    pub fn train_step(&mut self, x: &Matrix, label: usize, lr: f32) -> f32 {
        let logits = self.forward(x);
        let (loss, dlogits) = ops::softmax_cross_entropy(logits, &[label]);
        self.zero_grads();
        self.backward(&dlogits);
        self.for_each_group(|params, grads| {
            for (p, g) in params.iter_mut().zip(grads) {
                *p -= lr * g;
            }
        });
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_input(seq: usize, dim: usize, seed: u64) -> Matrix {
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
    /// loss `L = Σ y ⊙ w_loss` so dL/dy is a known constant matrix.
    fn grad_check<M>(
        model: &mut M,
        forward: impl Fn(&mut M, &Matrix) -> Matrix,
        backward: impl Fn(&mut M, &Matrix) -> Matrix,
        zero: impl Fn(&mut M),
        groups: impl Fn(&mut M, &mut dyn FnMut(&mut [f32], &[f32])),
        x: &Matrix,
    ) {
        let y0 = forward(model, x);
        // Fixed loss weights.
        let mut w_loss = y0.clone();
        let mut k = 0.0f32;
        w_loss.map_inplace(|_| {
            k += 1.0;
            (k * 0.37).sin()
        });
        let loss = |y: &Matrix| -> f32 {
            y.as_slice()
                .iter()
                .zip(w_loss.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        zero(model);
        let _ = forward(model, x);
        let dx = backward(model, &w_loss);

        // Check input gradient at a few entries.
        let eps = 1e-2f32;
        for idx in [0usize, x.as_slice().len() / 2, x.as_slice().len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&forward(model, &xp));
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lm = loss(&forward(model, &xm));
            let fd = (lp - lm) / (2.0 * eps);
            let an = dx.as_slice()[idx];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "input grad {idx}: fd {fd} vs analytic {an}"
            );
        }

        // Check a few parameter gradients per group.
        // Snapshot analytic grads first.
        let mut analytic: Vec<Vec<f32>> = Vec::new();
        groups(model, &mut |_, g| analytic.push(g.to_vec()));
        let n_groups = analytic.len();
        #[allow(clippy::needless_range_loop)] // gi drives closure dispatch
        for gi in 0..n_groups {
            let probe = analytic[gi].len() / 2;
            let an = analytic[gi][probe];
            // Perturb +eps.
            groups(model, &mut {
                let mut seen = 0;
                move |p, _| {
                    if seen == gi {
                        p[probe] += eps;
                    }
                    seen += 1;
                }
            });
            let lp = loss(&forward(model, x));
            groups(model, &mut {
                let mut seen = 0;
                move |p, _| {
                    if seen == gi {
                        p[probe] -= 2.0 * eps;
                    }
                    seen += 1;
                }
            });
            let lm = loss(&forward(model, x));
            groups(model, &mut {
                let mut seen = 0;
                move |p, _| {
                    if seen == gi {
                        p[probe] += eps;
                    }
                    seen += 1;
                }
            });
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - an).abs() < 3e-2 * (1.0 + fd.abs()),
                "group {gi} param grad: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn layernorm_rows_are_normalized() {
        let mut ln = LayerNorm::new(8);
        let x = seq_input(4, 8, 3);
        let y = ln.forward(&x);
        for r in 0..4 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y.row(r).iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_gradients_check() {
        let mut ln = LayerNorm::new(6);
        let x = seq_input(3, 6, 7);
        grad_check(
            &mut ln,
            |m, x| m.forward(x),
            |m, dy| m.backward(dy),
            |m| m.zero_grads(),
            |m, f| m.for_each_group(f),
            &x,
        );
    }

    #[test]
    fn attention_gradients_check() {
        let mut attn = MultiHeadAttention::new(6, 1, false, 11);
        let x = seq_input(4, 6, 13);
        grad_check(
            &mut attn,
            |m, x| m.forward(x),
            |m, dy| m.backward(dy),
            |m| m.zero_grads(),
            |m, f| m.for_each_group(f),
            &x,
        );
    }

    #[test]
    fn transformer_block_gradients_check() {
        let mut block = TransformerBlock::new(4, 17);
        let x = seq_input(5, 4, 19);
        grad_check(
            &mut block,
            |m, x| m.forward(x),
            |m, dy| m.backward(dy),
            |m| m.zero_grads(),
            |m, f| m.for_each_group(f),
            &x,
        );
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut attn = MultiHeadAttention::new(8, 1, false, 5);
        let x = seq_input(6, 8, 23);
        let _ = attn.forward(&x);
        let (_, heads, _) = attn.cache.as_ref().unwrap();
        let (_, _, _, p) = &heads[0];
        for r in 0..p.rows() {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn block_preserves_shape_and_param_count() {
        let mut block = TransformerBlock::new(8, 1);
        let x = seq_input(10, 8, 2);
        let y = block.forward(&x);
        assert_eq!((y.rows(), y.cols()), (10, 8));
        // 2 LN (2·8 each) + 4 attention (64 each) + FF (8·32 + 32·8).
        assert_eq!(block.param_count(), 2 * 16 + 4 * 64 + 2 * 256);
    }

    /// Without positional encodings the block is permutation-equivariant:
    /// swapping two input rows swaps the corresponding output rows. This is
    /// why `SequenceClassifier` injects positional encodings.
    #[test]
    fn block_is_permutation_equivariant() {
        let mut block = TransformerBlock::new(6, 31);
        let x = seq_input(5, 6, 37);
        let y = block.forward(&x);
        // Swap rows 1 and 3 of the input.
        let mut xs = x.clone();
        for c in 0..6 {
            let (a, b) = (x.get(1, c), x.get(3, c));
            xs.set(1, c, b);
            xs.set(3, c, a);
        }
        let ys = block.forward(&xs);
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

    /// `backward_with` must report every parameter group exactly once, in
    /// strictly descending flat-layout order, with the group's *final*
    /// gradient values — the contract the overlap bucket schedule builds on.
    #[test]
    fn backward_with_reports_groups_in_reverse_layout_order() {
        let mut block = TransformerBlock::new(4, 23);
        let x = seq_input(5, 4, 29);
        let _ = block.forward(&x);
        block.zero_grads();
        let dy = seq_input(5, 4, 31);
        let mut order = Vec::new();
        let mut reported: Vec<Vec<f32>> = Vec::new();
        let _ = block.backward_with(&dy, |g, grads| {
            order.push(g);
            reported.push(grads.to_vec());
        });
        assert_eq!(order, (0..10).rev().collect::<Vec<_>>());
        // The gradients visible at readiness time are the final ones.
        let mut finals: Vec<Vec<f32>> = Vec::new();
        block.for_each_group(|_, g| finals.push(g.to_vec()));
        finals.reverse();
        assert_eq!(reported, finals);
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
        let mut last_losses = Vec::new();
        for epoch in 0..120 {
            let mut epoch_loss = 0.0;
            for i in 0..train_n {
                let (x, label) = make_example(i);
                epoch_loss += model.train_step(&x, label, 0.1);
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
