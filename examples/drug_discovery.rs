//! The IMPECCABLE-style drug-discovery funnel (paper Section V-C).
//!
//! Run with `cargo run --example drug_discovery`.
//!
//! A compound library is screened three ways — brute force, random
//! downselection, and the paper's surrogate-model funnel — and the
//! recall-vs-cost trade-off is printed. This is the "surrogate model
//! computes docking scores to downselect the set of compounds to evaluate
//! by the more precise but more expensive MD simulations" workflow.

use summit_core::prelude::*;

fn main() {
    let library = CompoundLibrary::generate(4000, 8, 2026);
    println!(
        "Screening a library of {} compounds for the true top-50…\n",
        library.len()
    );
    println!(
        "{:<12} {:>18} {:>12} {:>14}",
        "policy", "expensive evals", "recall@50", "cost vs brute"
    );

    // Brute force and random downselection are the campaign's random
    // round 0 alone; the funnel adds one surrogate round of equal size.
    let funnel = |batch_per_round, rounds| CampaignConfig {
        batch_per_round,
        rounds,
        k: 50,
        seed: 9,
        fit_iters: 300,
    };
    for (policy, config) in [
        ("BruteForce", funnel(library.len(), 0)),
        ("Random", funnel(600, 0)),
        ("Surrogate", funnel(300, 1)),
    ] {
        let out = run_campaign(&library, &config);
        let last = out.rounds.last().expect("round 0 always runs");
        println!(
            "{policy:<12} {:>18} {:>11.0}% {:>13.1}%",
            last.docked,
            last.recall_at_k * 100.0,
            last.docked as f64 / library.len() as f64 * 100.0
        );
    }

    println!(
        "\nThe surrogate funnel recovers most of the true leads at a fraction \
         of the docking/MD budget — the quantitative story behind Glaser et \
         al. (GB/2020) and Saadi et al. (IMPECCABLE)."
    );

    // Show the steering component too (DeepDriveMD within the same loop).
    println!("\nDeepDriveMD-style steering of sampling toward a rare state:");
    let campaign = SteeringLoop::new(SteeringConfig::default());
    for policy in [SteeringPolicy::Random, SteeringPolicy::MlSteered] {
        let out = campaign.run(policy);
        println!(
            "  {:<10} {:>4} simulations -> {:>3} rare-state samples (closest approach {:.2})",
            format!("{policy:?}"),
            out.simulations,
            out.rare_hits,
            out.best_distance
        );
    }
}
