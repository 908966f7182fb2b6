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
//! differences in the underlying modules. Its parameters — embedding,
//! layer norm, attention and head — are groups of one [`Params`] arena, so
//! it trains under any [`Optimizer`].

use summit_tensor::{ops, Matrix};

use crate::optim::Optimizer;
use crate::params::Params;
use crate::transformer::{
    add_weight_grad, mul, mul_t, positional_encoding, push_xavier, LayerNorm, MultiHeadAttention,
};

/// A tiny causal LM: embedding + positional encoding → pre-norm multi-head
/// attention block with residual → layer norm → tied-free output head.
pub struct TinyLm {
    vocab: usize,
    dim: usize,
    arena: Params,
    /// Group ids of the `vocab × dim` embedding and the `dim × vocab` head.
    embedding: usize,
    head: usize,
    ln: LayerNorm,
    attn: MultiHeadAttention,
    /// Caches: token ids and the post-attention hidden states.
    cache: Option<(Vec<usize>, Matrix)>,
}

impl TinyLm {
    /// Create an LM over `vocab` tokens with width `dim` and `heads` heads.
    pub fn new(vocab: usize, dim: usize, heads: usize, seed: u64) -> Self {
        let mut arena = Params::default();
        let embedding = push_xavier(&mut arena, vocab, dim, seed);
        let ln = LayerNorm::new(dim, &mut arena);
        let attn = MultiHeadAttention::new(dim, heads, true, seed.wrapping_add(5), &mut arena);
        let head = push_xavier(&mut arena, dim, vocab, seed.wrapping_add(9));
        TinyLm {
            vocab,
            dim,
            arena,
            embedding,
            head,
            ln,
            attn,
            cache: None,
        }
    }

    /// The parameter and gradient arena.
    pub fn arena(&self) -> &Params {
        &self.arena
    }

    /// Logits (`seq × vocab`) for a token sequence: position `t` predicts
    /// token `t + 1`.
    ///
    /// # Panics
    /// Panics on empty input or out-of-range tokens.
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        assert!(!tokens.is_empty(), "need tokens");
        let (seq, dim) = (tokens.len(), self.dim);
        let embedding = self.arena.group(self.embedding);
        let mut x = Matrix::zeros(seq, dim);
        for (t, &tok) in tokens.iter().enumerate() {
            assert!(tok < self.vocab, "token out of range");
            x.row_mut(t)
                .copy_from_slice(&embedding[tok * dim..(tok + 1) * dim]);
        }
        x.add_assign(&positional_encoding(seq, dim));
        let normed = self.ln.forward(&self.arena, &x);
        let attn_out = self.attn.forward(&self.arena, &normed);
        let mut h = x;
        h.add_assign(&attn_out);
        let logits = mul(&self.arena, &h, self.head, self.vocab);
        self.cache = Some((tokens.to_vec(), h));
        logits
    }

    /// One training step on a sequence under `optimizer`, group by group at
    /// the base learning rate: next-token cross-entropy over all positions.
    /// Returns the mean loss.
    ///
    /// # Panics
    /// Panics on sequences shorter than 2 tokens.
    pub fn train_step(&mut self, tokens: &[usize], optimizer: &mut dyn Optimizer) -> f32 {
        assert!(tokens.len() >= 2, "need at least two tokens");
        let inputs = &tokens[..tokens.len() - 1];
        let targets = &tokens[1..];
        let logits = self.forward(inputs);
        let (loss, dlogits) = ops::softmax_cross_entropy(logits, targets);
        self.arena.zero_grads();
        let (cached_tokens, h) = self.cache.take().expect("forward cached");

        // Head.
        add_weight_grad(&mut self.arena, &h, &dlogits, self.head);
        let dh = mul_t(&self.arena, &dlogits, self.head, self.vocab);
        // Residual: dh flows to attention branch and to the embedding sum.
        let d_attn = self.attn.backward(&mut self.arena, &dh);
        let mut dx = self.ln.backward(&mut self.arena, &d_attn);
        dx.add_assign(&dh);
        // Embedding gradient: scatter-add rows.
        let (dim, grads) = (self.dim, self.arena.grad_mut(self.embedding));
        for (t, &tok) in cached_tokens.iter().enumerate() {
            let row = &mut grads[tok * dim..(tok + 1) * dim];
            for (g, d) in row.iter_mut().zip(dx.row(t)) {
                *g += d;
            }
        }

        self.arena
            .for_each_group(|id, p, g| optimizer.step_group(id, 1.0, p, g));
        optimizer.advance();
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use crate::transformer::tests::{grad_check, seq_input};

    /// Two-head attention gradients, input and parameters, match finite
    /// differences through the transformer block's harness, with and
    /// without the causal mask (one head: `attention_gradients_check`).
    #[test]
    fn multihead_gradients_check() {
        for causal in [false, true] {
            let mut arena = Params::default();
            let mut attn = MultiHeadAttention::new(8, 2, causal, 3, &mut arena);
            let (fwd, bwd) = (MultiHeadAttention::forward, MultiHeadAttention::backward);
            grad_check(&mut attn, &mut arena, fwd, bwd, &seq_input(5, 8, 7));
        }
    }

    /// Causality: position t's output must not depend on tokens after t.
    #[test]
    fn causal_mask_blocks_the_future() {
        let mut arena = Params::default();
        let mut attn = MultiHeadAttention::new(8, 2, true, 11, &mut arena);
        let x = seq_input(6, 8, 13);
        let y = attn.forward(&arena, &x);
        let mut x2 = x.clone();
        // Perturb the LAST row only.
        x2.row_mut(5).iter_mut().for_each(|v| *v += 1.0);
        let y2 = attn.forward(&arena, &x2);
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
        let (mut arena_c, mut arena_f) = (Params::default(), Params::default());
        let mut causal = MultiHeadAttention::new(8, 2, true, 19, &mut arena_c);
        let mut full = MultiHeadAttention::new(8, 2, false, 19, &mut arena_f);
        let yc = causal.forward(&arena_c, &x);
        let yf = full.forward(&arena_f, &x);
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
        let mut sgd = Sgd::new(0.01, 0.0, 0.0);
        let make_seq = |start: usize| -> Vec<usize> {
            (0..12).map(|i| (start + i * stride) % vocab).collect()
        };
        let mut loss = f32::NAN;
        for epoch in 0..400 {
            for start in 0..vocab {
                loss = lm.train_step(&make_seq(start + epoch % 2), &mut sgd);
            }
        }
        assert!(loss < 0.2, "LM failed to learn the grammar: loss {loss}");
        // Greedy generation follows the rule from any prefix.
        for start in 0..vocab {
            let prefix = make_seq(start)[..4].to_vec();
            let logits = lm.forward(&prefix);
            let last = logits.row(logits.rows() - 1);
            let next = (0..vocab)
                .max_by(|&a, &b| last[a].total_cmp(&last[b]))
                .unwrap();
            let want = (prefix[3] + stride) % vocab;
            assert_eq!(next, want, "prefix {prefix:?}");
        }
    }

    #[test]
    #[should_panic(expected = "heads must divide dim")]
    fn bad_head_count_rejected() {
        let _ = MultiHeadAttention::new(8, 3, true, 0, &mut Params::default());
    }
}
