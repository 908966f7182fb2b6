//! Per-epoch shuffle strategies and their cross-node traffic.
//!
//! The paper notes that partitioned NVMe data "can be expensive if per-epoch
//! data shuffling is enforced": a global reshuffle moves most samples to a
//! different node every epoch. This module provides
//!
//! * a **real** index-level shuffler used to verify epoch invariants (every
//!   sample visited exactly once per epoch; global shuffles change node
//!   ownership, local shuffles do not), and
//! * **analytic** traffic estimates: the expected fraction of samples that
//!   must cross the network under a global reshard is `(n-1)/n` for `n`
//!   nodes.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;

use crate::dataset::ShardPlan;

/// How training data is reordered between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ShuffleStrategy {
    /// No shuffling: samples are visited in shard order every epoch.
    None,
    /// Shuffle within each node's shard only; no network traffic.
    LocalInShard,
    /// Globally reshuffle sample-to-node assignment every epoch.
    GlobalReshard,
}

impl ShuffleStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [ShuffleStrategy; 3] = [
        ShuffleStrategy::None,
        ShuffleStrategy::LocalInShard,
        ShuffleStrategy::GlobalReshard,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ShuffleStrategy::None => "none",
            ShuffleStrategy::LocalInShard => "local-in-shard",
            ShuffleStrategy::GlobalReshard => "global-reshard",
        }
    }

    /// Expected fraction of stored bytes that must cross the network per
    /// epoch under this strategy on `nodes` nodes.
    pub fn cross_node_fraction(self, nodes: u32) -> f64 {
        match self {
            ShuffleStrategy::None | ShuffleStrategy::LocalInShard => 0.0,
            ShuffleStrategy::GlobalReshard => {
                let n = f64::from(nodes.max(1));
                (n - 1.0) / n
            }
        }
    }

    /// Expected bytes crossing the network per epoch for a shard plan.
    pub fn epoch_traffic_bytes(self, plan: &ShardPlan) -> f64 {
        self.cross_node_fraction(plan.nodes) * plan.total_bytes()
    }
}

/// The node assignment and visit order of every sample for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOrder {
    /// `owner[s]` = node that reads sample `s` this epoch.
    pub owner: Vec<u32>,
    /// Per-node visit order: `order[node]` lists sample ids in read order.
    pub order: Vec<Vec<u64>>,
}

/// Deterministic shuffler over sample indices (the real implementation used
/// by tests and the workflow examples; actual sample payloads never move —
/// this is the metadata layer a data loader would consult).
#[derive(Debug)]
pub struct Shuffler {
    rng: StdRng,
    samples: u64,
    nodes: u32,
    /// Current owner of each sample.
    owner: Vec<u32>,
}

impl Shuffler {
    /// Create a shuffler for `samples` samples over `nodes` nodes with the
    /// initial contiguous partition.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or `samples == 0`.
    pub fn new(samples: u64, nodes: u32, seed: u64) -> Self {
        assert!(nodes > 0 && samples > 0, "need samples and nodes");
        let n = u64::from(nodes);
        let base = samples / n;
        let extra = samples % n;
        let mut owner = Vec::with_capacity(samples as usize);
        for node in 0..n {
            let count = base + u64::from(node < extra);
            owner.extend(std::iter::repeat_n(node as u32, count as usize));
        }
        Shuffler {
            rng: StdRng::seed_from_u64(seed),
            samples,
            nodes,
            owner,
        }
    }

    /// Produce the next epoch's order under `strategy`, updating internal
    /// ownership for `GlobalReshard`.
    pub fn next_epoch(&mut self, strategy: ShuffleStrategy) -> EpochOrder {
        if strategy == ShuffleStrategy::GlobalReshard {
            // Reassign owners by shuffling the owner multiset.
            self.owner.shuffle(&mut self.rng);
        }
        let mut order: Vec<Vec<u64>> = vec![Vec::new(); self.nodes as usize];
        for s in 0..self.samples {
            order[self.owner[s as usize] as usize].push(s);
        }
        if matches!(
            strategy,
            ShuffleStrategy::LocalInShard | ShuffleStrategy::GlobalReshard
        ) {
            for o in &mut order {
                o.shuffle(&mut self.rng);
            }
        }
        EpochOrder {
            owner: self.owner.clone(),
            order,
        }
    }

    /// Measured fraction of samples whose owner changed between two epochs.
    pub fn moved_fraction(before: &EpochOrder, after: &EpochOrder) -> f64 {
        assert_eq!(before.owner.len(), after.owner.len());
        let moved = before
            .owner
            .iter()
            .zip(&after.owner)
            .filter(|(a, b)| a != b)
            .count();
        moved as f64 / before.owner.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;

    fn epoch_covers_all(order: &EpochOrder, samples: u64) -> bool {
        let mut seen = vec![false; samples as usize];
        for node_order in &order.order {
            for &s in node_order {
                if seen[s as usize] {
                    return false; // duplicate
                }
                seen[s as usize] = true;
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn every_strategy_visits_every_sample_once() {
        for strategy in ShuffleStrategy::ALL {
            let mut sh = Shuffler::new(1000, 7, 42);
            for _ in 0..3 {
                let epoch = sh.next_epoch(strategy);
                assert!(epoch_covers_all(&epoch, 1000), "{strategy:?}");
            }
        }
    }

    #[test]
    fn local_shuffle_never_moves_samples() {
        let mut sh = Shuffler::new(500, 5, 1);
        let e1 = sh.next_epoch(ShuffleStrategy::LocalInShard);
        let e2 = sh.next_epoch(ShuffleStrategy::LocalInShard);
        assert_eq!(Shuffler::moved_fraction(&e1, &e2), 0.0);
    }

    #[test]
    fn local_shuffle_changes_order() {
        let mut sh = Shuffler::new(500, 2, 1);
        let e1 = sh.next_epoch(ShuffleStrategy::LocalInShard);
        let e2 = sh.next_epoch(ShuffleStrategy::LocalInShard);
        assert_ne!(e1.order, e2.order);
    }

    #[test]
    fn global_reshard_moves_about_n_minus_1_over_n() {
        let nodes = 8u32;
        let mut sh = Shuffler::new(20_000, nodes, 7);
        let e1 = sh.next_epoch(ShuffleStrategy::GlobalReshard);
        let e2 = sh.next_epoch(ShuffleStrategy::GlobalReshard);
        let measured = Shuffler::moved_fraction(&e1, &e2);
        let expected = ShuffleStrategy::GlobalReshard.cross_node_fraction(nodes);
        assert!(
            (measured - expected).abs() < 0.02,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn traffic_estimates() {
        let d = DatasetSpec::new("t", 1000, 1.0e6);
        let plan = ShardPlan::partition(&d, 10);
        assert_eq!(ShuffleStrategy::None.epoch_traffic_bytes(&plan), 0.0);
        assert_eq!(
            ShuffleStrategy::LocalInShard.epoch_traffic_bytes(&plan),
            0.0
        );
        let global = ShuffleStrategy::GlobalReshard.epoch_traffic_bytes(&plan);
        assert!((global - 0.9 * 1.0e9).abs() < 1.0);
    }

    #[test]
    fn shuffled_order_balanced() {
        let mut sh = Shuffler::new(997, 4, 3);
        let epoch = sh.next_epoch(ShuffleStrategy::GlobalReshard);
        let counts: Vec<usize> = epoch.order.iter().map(Vec::len).collect();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "ownership multiset preserved: {counts:?}");
    }
}
