//! α–β cost models of the collective algorithms.
//!
//! These predict collective completion time for arbitrary rank counts and
//! message sizes, using the standard literature formulas (Thakur et al.;
//! Chan et al.). The paper's Section VI-B reasons with exactly the ring
//! model's large-p limit: algorithm bandwidth = β/2, so a message of `m`
//! bytes takes ≈ `2m/β` — 8 ms for ResNet50's 100 MB and 110 ms for
//! BERT-large's 1.4 GB on Summit's 25 GB/s injection links. Those two
//! figures are regression-tested here.

use serde::Serialize;
use summit_machine::LinkModel;

use crate::engine::Collective;

/// Which collective algorithm to cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Algorithm {
    /// Ring reduce-scatter + ring allgather.
    Ring,
    /// Recursive doubling (full-buffer exchanges).
    RecursiveDoubling,
    /// Rabenseifner: recursive-halving reduce-scatter + recursive-doubling
    /// allgather.
    Rabenseifner,
    /// Binomial reduce to a root followed by binomial broadcast.
    BinomialTree,
}

impl Algorithm {
    /// All algorithms, for sweeps.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Ring,
        Algorithm::RecursiveDoubling,
        Algorithm::Rabenseifner,
        Algorithm::BinomialTree,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ring => "ring",
            Algorithm::RecursiveDoubling => "recursive-doubling",
            Algorithm::Rabenseifner => "rabenseifner",
            Algorithm::BinomialTree => "binomial-tree",
        }
    }
}

/// Memo table for [`CollectiveModel::simulated_allreduce_time`]: the perf
/// models call it repeatedly with identical (algorithm, world, size, link)
/// tuples while sweeping other parameters, and a full-machine simulation is
/// the expensive leg. Keyed on the link's exact bit patterns so distinct
/// fabrics never collide.
type SimMemoKey = (u8, u64, u64, u64, u64);
type SimMemo = std::sync::Mutex<std::collections::HashMap<SimMemoKey, f64>>;
static SIM_MEMO: std::sync::OnceLock<SimMemo> = std::sync::OnceLock::new();

/// Cost model for collectives over a homogeneous link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CollectiveModel {
    /// The point-to-point link between adjacent ranks.
    pub link: LinkModel,
}

impl CollectiveModel {
    /// Build a model over a link.
    pub fn new(link: LinkModel) -> Self {
        CollectiveModel { link }
    }

    /// Predicted allreduce time in seconds for `p` ranks and a message of
    /// `bytes` per rank.
    ///
    /// # Panics
    /// Panics if `p == 0`.
    pub fn allreduce_time(&self, alg: Algorithm, p: u64, bytes: f64) -> f64 {
        assert!(p > 0, "rank count must be positive");
        if p == 1 {
            return 0.0;
        }
        let pf = p as f64;
        let a = self.link.alpha;
        let inv_b = 1.0 / self.link.beta;
        let lg = (pf).log2();
        match alg {
            // 2(p-1) steps, each moving m/p: 2(p-1)α + 2 (p-1)/p · m/β.
            Algorithm::Ring => 2.0 * (pf - 1.0) * a + 2.0 * (pf - 1.0) / pf * bytes * inv_b,
            // log p steps of the full message.
            Algorithm::RecursiveDoubling => lg * (a + bytes * inv_b),
            // 2 log p latency terms, ring-like bandwidth term.
            Algorithm::Rabenseifner => 2.0 * lg * a + 2.0 * (pf - 1.0) / pf * bytes * inv_b,
            // Reduce + broadcast, each log p steps of the full message.
            Algorithm::BinomialTree => 2.0 * lg * (a + bytes * inv_b),
        }
    }

    /// The bandwidth-only component of [`Self::allreduce_time`] — i.e. the
    /// time with all α (latency) terms dropped.
    ///
    /// Production collectives (NCCL) pipeline chunks so the serialized
    /// latency term of the textbook model is largely hidden; the paper's
    /// Section VI-B arithmetic accordingly neglects latency entirely. Use
    /// this for large-message, large-p predictions and the full model when
    /// latency matters (small messages).
    pub fn bandwidth_term(&self, alg: Algorithm, p: u64, bytes: f64) -> f64 {
        assert!(p > 0, "rank count must be positive");
        if p == 1 {
            return 0.0;
        }
        let pf = p as f64;
        let inv_b = 1.0 / self.link.beta;
        match alg {
            Algorithm::Ring | Algorithm::Rabenseifner => 2.0 * (pf - 1.0) / pf * bytes * inv_b,
            Algorithm::RecursiveDoubling => pf.log2() * bytes * inv_b,
            Algorithm::BinomialTree => 2.0 * pf.log2() * bytes * inv_b,
        }
    }

    /// Allreduce time predicted by driving the **executable schedule** of
    /// `alg` against per-rank virtual clocks ([`crate::sim::simulate`])
    /// instead of a closed form.
    ///
    /// The simulation runs the exact per-step schedule the executed
    /// collective runs — uneven chunk splits, empty tail segments and the
    /// reduce→gather handoff included — so it refines the closed forms
    /// where they idealize (`m/p` divisibility). The event-driven engine
    /// simulates any world size, full-Summit (p = 27,648) included; there
    /// is no rank-count gate. It returns `None` only when the schedule
    /// cannot be instantiated: Rabenseifner with a message not divisible
    /// by the power-of-two core of `p` (its halving phase has no schedule
    /// for such splits).
    ///
    /// `bytes` is rounded to whole f32 elements, matching the executed
    /// collectives' payloads. Results are memoized process-wide — the perf
    /// models re-ask identical questions across sweeps.
    pub fn simulated_allreduce_time(&self, alg: Algorithm, p: u64, bytes: f64) -> Option<f64> {
        assert!(p > 0, "rank count must be positive");
        assert!(bytes >= 0.0, "message size cannot be negative");
        if p == 1 {
            return Some(0.0);
        }
        let pu = p as usize;
        let elems = (bytes / 4.0).round() as usize;
        let collective = match alg {
            Algorithm::Ring => Collective::RingAllreduce {
                bucket_elems: usize::MAX,
            },
            Algorithm::RecursiveDoubling => Collective::RecursiveDoubling,
            Algorithm::Rabenseifner => {
                if !elems.is_multiple_of(crate::engine::pow2_core(pu)) {
                    return None;
                }
                Collective::Rabenseifner
            }
            Algorithm::BinomialTree => Collective::TreeAllreduce,
        };
        let key = (
            alg as u8,
            p,
            elems as u64,
            self.link.alpha.to_bits(),
            self.link.beta.to_bits(),
        );
        let memo = SIM_MEMO.get_or_init(Default::default);
        if let Some(&t) = memo.lock().expect("sim memo poisoned").get(&key) {
            return Some(t);
        }
        let t = crate::sim::simulate(collective, pu, elems, self.link).time_seconds;
        memo.lock().expect("sim memo poisoned").insert(key, t);
        Some(t)
    }

    /// The fastest algorithm and its time for the given size.
    pub fn best_allreduce(&self, p: u64, bytes: f64) -> (Algorithm, f64) {
        Algorithm::ALL
            .iter()
            .map(|&alg| (alg, self.allreduce_time(alg, p, bytes)))
            .min_by(|x, y| x.1.total_cmp(&y.1))
            .expect("ALL is non-empty")
    }

    /// Broadcast time (binomial tree).
    pub fn broadcast_time(&self, p: u64, bytes: f64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64).log2().ceil() * self.link.transfer_time(bytes)
    }

    /// Barrier time: a dissemination barrier costs ⌈log2 p⌉ rounds of α.
    pub fn barrier_time(&self, p: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        (p as f64).log2().ceil() * self.link.alpha
    }
}

/// Two-level (hierarchical) allreduce: intra-node reduction over NVLink,
/// inter-node ring allreduce over the fabric on one "leader" GPU per node,
/// then intra-node broadcast. This is how Horovod/NCCL structure Summit
/// allreduces and what the scaling models in `summit-perf` use.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HierarchicalModel {
    /// Intra-node link (NVLink).
    pub intra: LinkModel,
    /// Inter-node link (InfiniBand injection).
    pub inter: LinkModel,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Inter-node algorithm.
    pub inter_algorithm: Algorithm,
}

impl HierarchicalModel {
    /// Predicted allreduce time across `nodes` nodes of `gpus_per_node` GPUs
    /// each, message of `bytes` per GPU.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or the model has zero GPUs per node.
    pub fn allreduce_time(&self, nodes: u64, bytes: f64) -> f64 {
        assert!(nodes > 0, "node count must be positive");
        assert!(self.gpus_per_node > 0, "need at least one GPU per node");
        let g = u64::from(self.gpus_per_node);
        // Intra-node ring reduce-scatter + allgather across g GPUs, twice
        // (reduce before, broadcast after). Model each as half a ring
        // allreduce.
        let intra_model = CollectiveModel::new(self.intra);
        let intra = intra_model.allreduce_time(Algorithm::Ring, g, bytes);
        let inter_model = CollectiveModel::new(self.inter);
        let inter = inter_model.allreduce_time(self.inter_algorithm, nodes, bytes);
        intra + inter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use summit_machine::spec::NodeSpec;

    fn summit_model() -> CollectiveModel {
        CollectiveModel::new(LinkModel::inter_node(&NodeSpec::summit()))
    }

    /// Paper, Section VI-B: "the per device allreduce message size for the
    /// ResNet50 and BERT-large models is about 100MB and 1.4 GB ...
    /// communication time is roughly 8 ms and 110 ms."
    #[test]
    fn paper_resnet50_and_bert_times() {
        let m = summit_model();
        let p = 4608; // full-Summit data-parallel job, one ring over nodes
                      // The paper's arithmetic is bandwidth-only (pipelined collectives
                      // hide the ring's latency term).
        let t_resnet = m.bandwidth_term(Algorithm::Ring, p, 100.0e6);
        let t_bert = m.bandwidth_term(Algorithm::Ring, p, 1.4e9);
        assert!((t_resnet - 8.0e-3).abs() / 8.0e-3 < 0.05, "got {t_resnet}");
        assert!((t_bert - 110.0e-3).abs() / 110.0e-3 < 0.05, "got {t_bert}");
    }

    /// The ring's algorithm bandwidth approaches half the link bandwidth —
    /// the paper's 12.5 GB/s figure.
    #[test]
    fn ring_algorithm_bandwidth_halves_link() {
        let m = summit_model();
        let bw = 1.0e9 / m.bandwidth_term(Algorithm::Ring, 4608, 1.0e9);
        assert!((bw - 12.5e9).abs() / 12.5e9 < 0.01, "got {bw}");
    }

    #[test]
    fn single_rank_is_free() {
        let m = summit_model();
        for alg in Algorithm::ALL {
            assert_eq!(m.allreduce_time(alg, 1, 1e9), 0.0);
        }
    }

    #[test]
    fn small_messages_favor_low_latency_algorithms() {
        let m = summit_model();
        let (best, _) = m.best_allreduce(1024, 8.0);
        assert!(
            matches!(best, Algorithm::RecursiveDoubling | Algorithm::Rabenseifner),
            "tiny message picked {best:?}"
        );
    }

    #[test]
    fn large_messages_favor_bandwidth_optimal_algorithms() {
        let m = summit_model();
        let (best, _) = m.best_allreduce(1024, 1.0e9);
        assert!(
            matches!(best, Algorithm::Ring | Algorithm::Rabenseifner),
            "large message picked {best:?}"
        );
    }

    #[test]
    fn ring_time_flat_in_p_for_large_messages() {
        // The bandwidth term (p-1)/p saturates; doubling p barely changes t.
        let m = summit_model();
        let t1 = m.allreduce_time(Algorithm::Ring, 1024, 1.0e9);
        let t2 = m.allreduce_time(Algorithm::Ring, 2048, 1.0e9);
        assert!((t2 - t1) / t1 < 0.05);
    }

    #[test]
    fn hierarchical_adds_intra_and_inter() {
        let node = NodeSpec::summit();
        let h = HierarchicalModel {
            intra: LinkModel::nvlink(&node),
            inter: LinkModel::inter_node(&node),
            gpus_per_node: 6,
            inter_algorithm: Algorithm::Ring,
        };
        let t = h.allreduce_time(4608, 100.0e6);
        let inter_only = summit_model().allreduce_time(Algorithm::Ring, 4608, 100.0e6);
        assert!(t > inter_only);
        // NVLink is fast; the hierarchy should cost < 2x the inter-node part.
        assert!(t < 2.0 * inter_only);
    }

    /// On even splits (p | elems, power-of-two p) the schedule simulation
    /// reproduces every closed form exactly — same algorithm, two
    /// derivations.
    #[test]
    fn simulation_matches_closed_forms_on_even_splits() {
        let m = summit_model();
        for p in [2u64, 4, 8, 16, 64, 128] {
            let bytes = (p * 1024 * 4) as f64; // p | elems, whole f32s
            for alg in Algorithm::ALL {
                let closed = m.allreduce_time(alg, p, bytes);
                let sim = m
                    .simulated_allreduce_time(alg, p, bytes)
                    .expect("simulable: pow2 p, p | elems");
                assert!(
                    (sim - closed).abs() <= 1e-9 * closed.max(1e-12),
                    "{} p={p}: sim {sim} vs closed {closed}",
                    alg.name()
                );
            }
        }
    }

    /// Uneven chunk splits are where simulation refines the closed form:
    /// the ring's critical path carries ceil(n/p) chunks, so the simulated
    /// time is never below the idealized m/p arithmetic.
    #[test]
    fn simulation_refines_uneven_ring_splits() {
        let m = summit_model();
        let bytes = (4 * 1001) as f64; // 1001 elems across 4 ranks: uneven
        let closed = m.allreduce_time(Algorithm::Ring, 4, bytes);
        let sim = m
            .simulated_allreduce_time(Algorithm::Ring, 4, bytes)
            .unwrap();
        assert!(sim >= closed - 1e-15, "sim {sim} below closed {closed}");
        assert!(sim <= closed * 1.01, "sim {sim} far from closed {closed}");
    }

    /// The old 128-rank simulation gate is gone: every algorithm simulates
    /// at any world size, including beyond the former `MAX_SIM_RANKS`, and
    /// the simulated value agrees with the closed form it converges to.
    /// The only remaining `None` is Rabenseifner's divisibility condition.
    #[test]
    fn simulation_has_no_rank_gate() {
        let m = summit_model();
        assert_eq!(
            m.simulated_allreduce_time(Algorithm::Ring, 1, 4096.0),
            Some(0.0)
        );
        // 129 and 4608 ranks — both rejected by the retired gate.
        let t129 = m
            .simulated_allreduce_time(Algorithm::Ring, 129, 129.0 * 4096.0)
            .expect("no gate");
        let closed129 = m.allreduce_time(Algorithm::Ring, 129, 129.0 * 4096.0);
        assert!((t129 - closed129).abs() <= 1e-9 * closed129, "got {t129}");
        assert!(m
            .simulated_allreduce_time(Algorithm::Ring, 4608, 4096.0)
            .is_some());
        // Non-power-of-two worlds fold into a power-of-two core.
        let t6 = m
            .simulated_allreduce_time(Algorithm::RecursiveDoubling, 6, 4096.0)
            .expect("folded schedule");
        // The fold adds a pre-reduce and post-broadcast step on top of the
        // pow2-core exchange, so the non-pow2 time exceeds the p=4 time.
        let t4 = m
            .simulated_allreduce_time(Algorithm::RecursiveDoubling, 4, 4096.0)
            .unwrap();
        assert!(t6 > t4, "fold overhead missing: {t6} vs {t4}");
        assert!(m
            .simulated_allreduce_time(Algorithm::Rabenseifner, 6, 4096.0)
            .is_some());
        // Rabenseifner still needs pow2_core(p) | elems: 9 elems on a
        // p=8 world has no halving schedule.
        assert!(m
            .simulated_allreduce_time(Algorithm::Rabenseifner, 8, 4.0 * 9.0)
            .is_none());
        assert!(m
            .simulated_allreduce_time(Algorithm::BinomialTree, 8, 4096.0)
            .is_some());
    }

    #[test]
    fn broadcast_and_barrier_scale_logarithmically() {
        let m = summit_model();
        let b256 = m.barrier_time(256);
        let b512 = m.barrier_time(512);
        assert!((b512 - b256 - m.link.alpha).abs() < 1e-12);
        assert!(m.broadcast_time(2, 1e6) < m.broadcast_time(1024, 1e6));
    }
}
