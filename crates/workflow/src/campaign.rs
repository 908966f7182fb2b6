//! The IMPECCABLE drug-discovery campaign (paper Section V-C).
//!
//! Saadi et al. put a cheap ML surrogate between a compound library and
//! the expensive docking/MD evaluations, in "an iterative loop infused with
//! AI/ML methods": each round docks the surrogate's best candidates and the
//! new labels retrain it. Here compounds are feature vectors, affinity is a
//! hidden nonlinear teacher that "docking" evaluates exactly at unit cost,
//! and the surrogate is an MLP regressor. Round 0 docks a random batch, so
//! the screening funnel and its baselines are configs of the one loop:
//! brute force and random downselection are `rounds: 0` (a batch of the
//! whole library, of the whole budget), the surrogate funnel is
//! `rounds: 1` (a random seed set, then a shortlist of the same size).
//! Tested: the funnel recovers most of the true top-K at a fraction of the
//! brute-force cost, beats random at equal budget, and recall rises round
//! over round. One round's task graph is scheduled on the engine for the
//! simulated round makespan.

use std::collections::HashMap;

use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use serde::Serialize;
use summit_dl::{optim::Adam, trainer::Trainer};
use summit_tensor::Matrix;

use crate::engine::{simulate_schedule, Facility, WorkflowBuilder};

/// A synthetic compound library with a hidden affinity function.
#[derive(Debug, Clone)]
pub struct CompoundLibrary {
    features: Matrix,
    true_affinity: Vec<f32>,
}

impl CompoundLibrary {
    /// Generate `n` compounds with `dim`-dimensional descriptors. The true
    /// affinity is a smooth nonlinear function of the descriptors (tanh of
    /// a random linear form plus an interaction term).
    ///
    /// # Panics
    /// Panics if `n` or `dim` is zero.
    #[allow(clippy::needless_range_loop)] // indexing two parallel structures
    pub fn generate(n: usize, dim: usize, seed: u64) -> Self {
        assert!(n > 0 && dim > 0, "library must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut features = Matrix::zeros(n, dim);
        let mut true_affinity = Vec::with_capacity(n);
        for i in 0..n {
            let mut lin = 0.0f32;
            for d in 0..dim {
                let v: f32 = rng.gen_range(-1.0f32..1.0);
                features.set(i, d, v);
                lin += w[d] * v;
            }
            let interaction = features.get(i, 0) * features.get(i, dim - 1);
            true_affinity.push(lin.tanh() + 0.3 * interaction);
        }
        CompoundLibrary {
            features,
            true_affinity,
        }
    }

    /// Library size.
    pub fn len(&self) -> usize {
        self.true_affinity.len()
    }

    /// Whether the library is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.true_affinity.is_empty()
    }

    /// The expensive "docking/MD" evaluation of one compound.
    pub fn dock(&self, idx: usize) -> f32 {
        self.true_affinity[idx]
    }

    /// Indices of the true top-`k` compounds (ground truth for recall).
    pub fn true_top_k(&self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| self.true_affinity[b].total_cmp(&self.true_affinity[a]));
        order.truncate(k);
        order
    }
}

/// Configuration of the iterative campaign.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CampaignConfig {
    /// Compounds docked per round.
    pub batch_per_round: usize,
    /// Surrogate-guided rounds after the random round 0.
    pub rounds: u32,
    /// Top-K recall target.
    pub k: usize,
    /// RNG seed (the round-0 shuffle and the surrogate's init).
    pub seed: u64,
    /// Full-batch surrogate fit steps per round.
    pub fit_iters: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            batch_per_round: 100,
            rounds: 5,
            k: 50,
            seed: 3,
            fit_iters: 150,
        }
    }
}

/// Per-round progress.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RoundReport {
    /// Round index (0 = random seed round).
    pub round: u32,
    /// Cumulative expensive evaluations.
    pub docked: usize,
    /// Cumulative recall of the true top-K among docked compounds.
    pub recall_at_k: f64,
}

/// Outcome of the campaign.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignOutcome {
    /// Progress per round.
    pub rounds: Vec<RoundReport>,
    /// The docked compounds, in docking order.
    pub docked: Vec<usize>,
    /// Simulated makespan of one round's task graph, seconds.
    pub round_makespan_seconds: f64,
}

/// Run the iterative active-learning screening campaign.
///
/// # Panics
/// Panics if the total docking budget or `k` exceeds the library.
pub fn run_campaign(library: &CompoundLibrary, config: &CampaignConfig) -> CampaignOutcome {
    let n = library.len();
    let total_budget = config.batch_per_round * (config.rounds as usize + 1);
    assert!(total_budget <= n, "budget exceeds library");
    assert!(config.k <= n, "k exceeds library");
    let truth = library.true_top_k(config.k);
    let (features, dim) = (&library.features, library.features.cols());

    // Round 0: a random batch.
    let mut docked: Vec<usize> = (0..n).collect();
    docked.shuffle(&mut StdRng::seed_from_u64(config.seed));
    docked.truncate(config.batch_per_round);
    let mut rounds = vec![report(0, &docked, &truth, config.k)];

    let mut surrogate = Trainer::regressor(dim, &[32, 16], Adam::new(0.01, 1e-5), config.seed);
    for round in 1..=config.rounds {
        // Retrain on everything docked so far, then dock the surrogate's
        // best undocked batch.
        let mut x = Matrix::zeros(docked.len(), dim);
        let mut y = Matrix::zeros(docked.len(), 1);
        for (row, &i) in docked.iter().enumerate() {
            x.row_mut(row).copy_from_slice(features.row(i));
            y.set(row, 0, library.dock(i));
        }
        surrogate.fit(&x, &y, config.fit_iters);
        let best: Vec<usize> = surrogate
            .rank(features, true)
            .into_iter()
            .filter(|i| !docked.contains(i))
            .take(config.batch_per_round)
            .collect();
        docked.extend(best);
        rounds.push(report(round, &docked, &truth, config.k));
    }

    // Schedule one round's task graph: parallel docking tasks on Summit,
    // surrogate training on Andes, selection locally.
    let mut wf: WorkflowBuilder<u32> = WorkflowBuilder::new();
    let dock_tasks: Vec<_> = (0..config.batch_per_round.min(32))
        .map(|i| wf.task(format!("dock-{i}"), Facility::Summit, 1800.0, vec![], |_| 0))
        .collect();
    let train = wf.task(
        "retrain surrogate",
        Facility::Andes,
        900.0,
        dock_tasks.clone(),
        |_| 1,
    );
    let _select = wf.task(
        "select next batch",
        Facility::Andes,
        60.0,
        vec![train],
        |_| 2,
    );
    let caps = HashMap::from([(Facility::Summit, 16), (Facility::Andes, 1)]);
    let (_, round_makespan_seconds) = simulate_schedule(&wf.specs(), &caps);

    CampaignOutcome {
        rounds,
        docked,
        round_makespan_seconds,
    }
}

fn report(round: u32, docked: &[usize], truth: &[usize], k: usize) -> RoundReport {
    let hits = truth.iter().filter(|t| docked.contains(t)).count();
    RoundReport {
        round,
        docked: docked.len(),
        recall_at_k: hits as f64 / k as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recall_improves_monotonically_and_beats_random() {
        let library = CompoundLibrary::generate(1500, 8, 11);
        let config = CampaignConfig::default();
        let outcome = run_campaign(&library, &config);
        assert_eq!(outcome.rounds.len(), 6);
        // Recall never decreases (docked set only grows).
        for w in outcome.rounds.windows(2) {
            assert!(w[1].recall_at_k >= w[0].recall_at_k);
        }
        // The final recall must far exceed the random expectation for the
        // same budget (600/1500 = 40%).
        let final_recall = outcome.rounds.last().unwrap().recall_at_k;
        assert!(final_recall > 0.7, "final recall {final_recall}");
        // And active learning must have improved on the random round 0.
        assert!(final_recall > outcome.rounds[0].recall_at_k + 0.3);
    }

    #[test]
    fn round_makespan_reflects_capacity() {
        let library = CompoundLibrary::generate(800, 8, 2);
        let outcome = run_campaign(
            &library,
            &CampaignConfig {
                batch_per_round: 64,
                rounds: 1,
                k: 20,
                seed: 5,
                fit_iters: 150,
            },
        );
        // 32 docking tasks on 16 slots = 2 waves of 1800 s, then 900 + 60.
        assert!((outcome.round_makespan_seconds - (2.0 * 1800.0 + 900.0 + 60.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "budget exceeds library")]
    fn oversubscribed_campaign_rejected() {
        let library = CompoundLibrary::generate(100, 4, 0);
        run_campaign(
            &library,
            &CampaignConfig {
                batch_per_round: 30,
                rounds: 4,
                ..funnel(0, 0)
            },
        );
    }

    // The screening funnel: brute force, random downselection and the
    // surrogate funnel, as configs of the loop on a 2000-compound library.

    fn library() -> CompoundLibrary {
        CompoundLibrary::generate(2000, 8, 11)
    }

    fn funnel(batch_per_round: usize, rounds: u32) -> CampaignConfig {
        CampaignConfig {
            batch_per_round,
            rounds,
            k: 50,
            seed: 7,
            fit_iters: 300,
        }
    }

    /// The last round's cumulative evaluations and recall.
    fn screen(batch_per_round: usize, rounds: u32) -> RoundReport {
        let outcome = run_campaign(&library(), &funnel(batch_per_round, rounds));
        *outcome.rounds.last().expect("round 0 always runs")
    }

    #[test]
    fn brute_force_has_perfect_recall_at_full_cost() {
        let out = screen(2000, 0);
        assert_eq!(out.recall_at_k, 1.0);
        assert_eq!(out.docked, 2000);
    }

    #[test]
    fn surrogate_funnel_cheap_and_effective() {
        let out = screen(200, 1);
        // ≤ 20% of brute-force cost…
        assert!(out.docked <= 2000 / 5);
        // …while recovering most of the true top-50.
        assert!(out.recall_at_k >= 0.6, "recall {}", out.recall_at_k);
    }

    #[test]
    fn surrogate_beats_random_at_equal_budget() {
        let (surrogate, random) = (screen(200, 1), screen(400, 0));
        assert_eq!(surrogate.docked, random.docked);
        assert!(
            surrogate.recall_at_k > random.recall_at_k + 0.2,
            "surrogate {} vs random {}",
            surrogate.recall_at_k,
            random.recall_at_k
        );
    }

    #[test]
    fn random_recall_matches_expectation() {
        // Random downselection of b of n compounds recovers ≈ b/n of top-K.
        let out = screen(400, 0);
        let expect = out.docked as f64 / 2000.0;
        assert!(
            (out.recall_at_k - expect).abs() < 0.12,
            "{} vs {}",
            out.recall_at_k,
            expect
        );
    }

    #[test]
    fn deterministic() {
        let run = || run_campaign(&library(), &funnel(200, 1)).docked;
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "budget exceeds library")]
    fn oversized_budget_rejected() {
        run_campaign(&CompoundLibrary::generate(100, 4, 0), &funnel(80, 1));
    }

    #[test]
    #[should_panic(expected = "k exceeds library")]
    fn oversized_k_rejected() {
        run_campaign(&CompoundLibrary::generate(40, 4, 0), &funnel(10, 0));
    }
}
