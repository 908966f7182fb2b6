//! A tiny causal language model — token embeddings, the transformer
//! module's multi-head attention under a causal mask, and next-token
//! training.
//!
//! The paper's forward-looking sections are about exactly this model
//! family: "transformer-based language models have scaled past the
//! trillion parameter mark", Blanchard et al. pretrain a BERT on SMILES
//! strings. This module provides the executable miniature: a causal
//! multi-head transformer LM over a small vocabulary that demonstrably
//! learns synthetic grammars, with every gradient path verified by finite
//! differences in the underlying modules.

use summit_tensor::{ops, Initializer, Matrix};

use crate::transformer::{positional_encoding, LayerNorm, MultiHeadAttention};

/// A tiny causal LM: embedding + positional encoding → pre-norm multi-head
/// attention block with residual → layer norm → tied-free output head.
pub struct TinyLm {
    vocab: usize,
    dim: usize,
    embedding: Matrix,
    g_embedding: Matrix,
    ln: LayerNorm,
    attn: MultiHeadAttention,
    head: Matrix,
    g_head: Matrix,
    /// Caches: token ids and the post-attention hidden states.
    cache: Option<(Vec<usize>, Matrix)>,
}

impl TinyLm {
    /// Create an LM over `vocab` tokens with width `dim` and `heads` heads.
    pub fn new(vocab: usize, dim: usize, heads: usize, seed: u64) -> Self {
        TinyLm {
            vocab,
            dim,
            embedding: Initializer::XavierUniform.init(vocab, dim, seed),
            g_embedding: Matrix::zeros(vocab, dim),
            ln: LayerNorm::new(dim),
            attn: MultiHeadAttention::new(dim, heads, true, seed.wrapping_add(5)),
            head: Initializer::XavierUniform.init(dim, vocab, seed.wrapping_add(9)),
            g_head: Matrix::zeros(dim, vocab),
            cache: None,
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Logits (`seq × vocab`) for a token sequence: position `t` predicts
    /// token `t + 1`.
    ///
    /// # Panics
    /// Panics on empty input or out-of-range tokens.
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        assert!(!tokens.is_empty(), "need tokens");
        let seq = tokens.len();
        let mut x = Matrix::zeros(seq, self.dim);
        for (t, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.vocab, "token out of range");
            for d in 0..self.dim {
                x.set(t, d, self.embedding.get(tok, d));
            }
        }
        x.add_assign(&positional_encoding(seq, self.dim));
        let normed = self.ln.forward(&x);
        let attn_out = self.attn.forward(&normed);
        let mut h = x;
        h.add_assign(&attn_out);
        let logits = h.matmul(&self.head);
        self.cache = Some((tokens.to_vec(), h));
        logits
    }

    /// One training step on a sequence: next-token cross-entropy over all
    /// positions. Returns the mean loss.
    ///
    /// # Panics
    /// Panics on sequences shorter than 2 tokens.
    pub fn train_step(&mut self, tokens: &[usize], lr: f32) -> f32 {
        assert!(tokens.len() >= 2, "need at least two tokens");
        let inputs = &tokens[..tokens.len() - 1];
        let targets = &tokens[1..];
        let logits = self.forward(inputs);
        let (loss, dlogits) = ops::softmax_cross_entropy(logits, targets);

        // Zero grads.
        self.g_embedding.map_inplace(|_| 0.0);
        self.g_head.map_inplace(|_| 0.0);
        self.ln.zero_grads();
        self.attn.zero_grads();
        let (cached_tokens, h) = self.cache.take().expect("forward cached");

        // Head.
        self.g_head.add_assign(&h.matmul_at_b(&dlogits));
        let dh = dlogits.matmul_a_bt(&self.head);
        // Residual: dh flows to attention branch and to the embedding sum.
        let d_attn = self.attn.backward(&dh);
        let mut dx = self.ln.backward(&d_attn);
        dx.add_assign(&dh);
        // Embedding gradient: scatter-add rows.
        for (t, &tok) in cached_tokens.iter().enumerate() {
            for d in 0..self.dim {
                let v = self.g_embedding.get(tok, d) + dx.get(t, d);
                self.g_embedding.set(tok, d, v);
            }
        }

        // Plain SGD update over every group.
        let mut apply = |p: &mut [f32], g: &[f32]| {
            for (pi, gi) in p.iter_mut().zip(g) {
                *pi -= lr * gi;
            }
        };
        let g_emb = self.g_embedding.as_slice().to_vec();
        apply(self.embedding.as_mut_slice(), &g_emb);
        self.ln.for_each_group(&mut apply);
        self.attn.for_each_group(&mut apply);
        let g_head = self.g_head.as_slice().to_vec();
        apply(self.head.as_mut_slice(), &g_head);
        loss
    }

    /// Greedy next-token prediction after a prefix.
    pub fn predict_next(&mut self, prefix: &[usize]) -> usize {
        let logits = self.forward(prefix);
        let last = logits.rows() - 1;
        logits
            .row(last)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty vocab")
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

    /// Attention input gradients match finite differences (the same
    /// harness as the transformer block), for two heads and for the one
    /// non-causal head the block runs.
    #[test]
    fn multihead_gradients_check() {
        // (dim, heads, seed, seq, input seed, probed input entries)
        let cases = [
            (8, 2, 3, 5, 7, [0usize, 17, 39]),
            (6, 1, 11, 4, 13, [0, 12, 23]),
        ];
        for (dim, heads, seed, seq, x_seed, probes) in cases {
            let mut attn = MultiHeadAttention::new(dim, heads, false, seed);
            let x = seq_input(seq, dim, x_seed);
            let y0 = attn.forward(&x);
            let mut w_loss = y0.clone();
            let mut k = 0.0f32;
            w_loss.map_inplace(|_| {
                k += 1.0;
                (k * 0.31).sin()
            });
            let loss = |y: &Matrix| -> f32 {
                y.as_slice()
                    .iter()
                    .zip(w_loss.as_slice())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            attn.zero_grads();
            let _ = attn.forward(&x);
            let dx = attn.backward(&w_loss);
            let eps = 1e-2f32;
            for idx in probes {
                let mut xp = x.clone();
                xp.as_mut_slice()[idx] += eps;
                let lp = loss(&attn.forward(&xp));
                let mut xm = x.clone();
                xm.as_mut_slice()[idx] -= eps;
                let lm = loss(&attn.forward(&xm));
                let fd = (lp - lm) / (2.0 * eps);
                let an = dx.as_slice()[idx];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                    "{heads} head(s), input grad {idx}: fd {fd} vs {an}"
                );
            }
        }
    }

    /// Causality: position t's output must not depend on tokens after t.
    #[test]
    fn causal_mask_blocks_the_future() {
        let mut attn = MultiHeadAttention::new(8, 2, true, 11);
        let x = seq_input(6, 8, 13);
        let y = attn.forward(&x);
        let mut x2 = x.clone();
        // Perturb the LAST row only.
        for c in 0..8 {
            x2.set(5, c, x2.get(5, c) + 1.0);
        }
        let y2 = attn.forward(&x2);
        for r in 0..5 {
            for c in 0..8 {
                assert!(
                    (y.get(r, c) - y2.get(r, c)).abs() < 1e-6,
                    "position {r} saw the future"
                );
            }
        }
        // The last row must change (it attends to itself).
        let moved: f32 = (0..8).map(|c| (y.get(5, c) - y2.get(5, c)).abs()).sum();
        assert!(moved > 1e-4);
    }

    /// Non-causal attention differs from causal on the same input.
    #[test]
    fn causal_flag_matters() {
        let x = seq_input(4, 8, 17);
        let mut causal = MultiHeadAttention::new(8, 2, true, 19);
        let mut full = MultiHeadAttention::new(8, 2, false, 19);
        let yc = causal.forward(&x);
        let yf = full.forward(&x);
        let diff: f32 = yc
            .as_slice()
            .iter()
            .zip(yf.as_slice())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3);
    }

    /// The LM learns a deterministic cyclic grammar: token t+1 = (t + 3) mod 7.
    #[test]
    fn lm_learns_a_cyclic_grammar() {
        let vocab = 7usize;
        let stride = 3usize;
        let mut lm = TinyLm::new(vocab, 16, 2, 2026);
        let make_seq = |start: usize| -> Vec<usize> {
            (0..12).map(|i| (start + i * stride) % vocab).collect()
        };
        let mut loss = f32::NAN;
        for epoch in 0..400 {
            for start in 0..vocab {
                loss = lm.train_step(&make_seq(start + epoch % 2), 0.01);
            }
        }
        assert!(loss < 0.2, "LM failed to learn the grammar: loss {loss}");
        // Greedy generation follows the rule from any prefix.
        for start in 0..vocab {
            let prefix = make_seq(start)[..4].to_vec();
            let next = lm.predict_next(&prefix);
            let want = (prefix[3] + stride) % vocab;
            assert_eq!(next, want, "prefix {prefix:?}");
        }
    }

    #[test]
    #[should_panic(expected = "heads must divide dim")]
    fn bad_head_count_rejected() {
        let _ = MultiHeadAttention::new(8, 3, true, 0);
    }
}
