//! Integration X2: the event-driven simulator is a drop-in replacement for
//! the retired per-step polling simulator.
//!
//! [`summit_comm::sim::simulate`] (worklist engine, O(events)) and
//! [`summit_comm::engine::simulate_reference`] (per-step polling oracle,
//! O(p · steps)) drive the same schedules under the same α–β cost rules,
//! so they must agree **bit for bit**: identical `f64` virtual clocks per
//! rank — not approximately, exactly — and identical per-rank message and
//! byte counts, for every collective, world size, and payload shape.

use proptest::prelude::*;
use summit_comm::{
    engine::simulate_reference,
    sim::{simulate, simulate_on},
    Collective,
};
use summit_machine::{ClusterModel, LinkModel};

const LINK: LinkModel = LinkModel {
    alpha: 1.5e-6,
    beta: 10.0e9,
};

/// Largest power of two ≤ p.
fn pow2_core(p: usize) -> usize {
    1 << (usize::BITS - 1 - p.leading_zeros())
}

/// Every modeled collective, with parameters legal for world size `p` and
/// payload `elems` (Rabenseifner included only when its divisibility
/// condition holds).
fn all_collectives(p: usize, elems: usize) -> Vec<Collective> {
    let mut v = vec![
        Collective::RingAllreduce {
            bucket_elems: usize::MAX,
        },
        Collective::RingAllreduce { bucket_elems: 5 },
        Collective::ReduceScatter,
        Collective::RingAllgather,
        Collective::RecursiveDoubling,
        Collective::TreeAllreduce,
        Collective::Alltoall,
    ];
    if elems.is_multiple_of(pow2_core(p)) {
        v.push(Collective::Rabenseifner);
    }
    // The rooted collectives from the first, a middle and the last rank.
    let mut roots = vec![0, p / 2, p - 1];
    roots.dedup();
    for root in roots {
        v.extend([
            Collective::Gather { root },
            Collective::Scatter { root },
            Collective::BinomialReduce { root },
            Collective::BinomialBroadcast { root },
        ]);
    }
    // Every group size that tiles the world.
    for g in (1..=p).filter(|g| p.is_multiple_of(*g)) {
        v.push(Collective::HierarchicalAllreduce { group_size: g });
    }
    v
}

fn assert_bit_equal(c: Collective, p: usize, elems: usize) {
    let fast = simulate(c, p, elems, LINK);
    let slow = simulate_reference(c, p, elems, LINK);
    assert_eq!(
        fast.per_rank_messages, slow.per_rank_messages,
        "{c:?} p={p} n={elems}: message counts"
    );
    assert_eq!(
        fast.per_rank_bytes, slow.per_rank_bytes,
        "{c:?} p={p} n={elems}: byte counts"
    );
    // Exact f64 equality — same additions in the same order, no tolerance.
    assert_eq!(
        fast.per_rank_seconds, slow.per_rank_seconds,
        "{c:?} p={p} n={elems}: virtual clocks"
    );
    assert_eq!(fast.time_seconds, slow.time_seconds);
}

/// The pinned matrix from `model_vs_execution`, against the oracle: all
/// 12 collectives × p ∈ {2, 3, 4, 8} × even/uneven payloads.
#[test]
fn event_engine_matches_per_step_oracle_on_pinned_matrix() {
    for p in [2usize, 3, 4, 8] {
        for elems in [24usize, 13] {
            for c in all_collectives(p, elems) {
                assert_bit_equal(c, p, elems);
            }
        }
    }
}

/// Degenerate shapes the worklist engine must not mishandle: one rank
/// (nothing to do), empty payloads (zero-length messages still count),
/// payloads smaller than the world (empty chunks / sparse fast-forward).
#[test]
fn event_engine_matches_oracle_on_degenerate_shapes() {
    for p in [1usize, 2, 3, 5, 8] {
        for elems in [0usize, 1, p.saturating_sub(1)] {
            for c in all_collectives(p, elems) {
                assert_bit_equal(c, p, elems);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized sweep over world size, payload, and collective.
    #[test]
    fn event_engine_matches_oracle(
        p in 2usize..=9,
        raw_elems in 0usize..=64,
        pick in 0usize..64,
    ) {
        // Round the payload so Rabenseifner stays in the mix when drawn.
        let elems = raw_elems - raw_elems % pow2_core(p);
        let cases = all_collectives(p, elems);
        let c = cases[pick % cases.len()];
        assert_bit_equal(c, p, elems);
    }
}

/// Routing over the fat tree never reports *less* time than uniform
/// independent links with the same injection α–β (contention and NVLink
/// latency only add), and traffic counts are fabric-independent.
#[test]
fn routed_times_dominate_uniform_times_across_nodes() {
    let cluster = ClusterModel::summit_nodes(9); // 1 GPU per node: all inter-node
    let link = cluster.tree.injection;
    for p in [2usize, 4, 9] {
        for elems in [16usize, 64] {
            for c in all_collectives(p, elems) {
                let uniform = simulate(c, p, elems, link);
                let routed = simulate_on(c, p, elems, cluster);
                assert_eq!(uniform.per_rank_messages, routed.report.per_rank_messages);
                assert_eq!(uniform.per_rank_bytes, routed.report.per_rank_bytes);
                assert!(
                    routed.report.time_seconds >= uniform.time_seconds - 1e-15,
                    "{c:?} p={p}: routed {} < uniform {}",
                    routed.report.time_seconds,
                    uniform.time_seconds
                );
            }
        }
    }
}

/// Contention pin at the collective level: a gather funnels every rank's
/// payload into one NIC, so the routed time is at least the serialized
/// drain of p−1 messages through that link — far above the uniform model,
/// which lets all senders land concurrently.
#[test]
fn gather_serializes_on_the_root_nic() {
    let mut cluster = ClusterModel::summit_nodes(16);
    cluster.tree.injection.alpha = 0.0;
    cluster.tree.hop_latency = 0.0;
    let p = 16usize;
    let elems = 1 << 14;
    let bytes = (elems * 4) as f64;
    let routed = simulate_on(Collective::Gather { root: 0 }, p, elems, cluster);
    let serialized = (p - 1) as f64 * bytes / cluster.tree.injection.beta;
    assert!(
        (routed.report.time_seconds - serialized).abs() <= 1e-12 * serialized,
        "gather should drain the root NIC serially: got {}, want {serialized}",
        routed.report.time_seconds
    );
    // 16 nodes fit under one 18-port leaf: everything is leaf-local.
    assert_eq!(routed.intra_leaf_messages, (p - 1) as u64);
    assert_eq!(routed.spine_messages, 0);
}

/// On the routed fabric the order ranks run in is part of the result
/// (links serve transfers first come, first served), and the uniform-link
/// oracle cannot see it: full-machine virtual seconds are pinned to bits
/// captured at commit `4909879`, so an engine change that reorders wake-ups
/// fails here. Every case also pins its total message count to the
/// collective's closed form at p = 27,648; the cases without a golden are
/// pinned by count only.
#[test]
fn full_machine_routed_times_match_their_goldens() {
    let cluster = ClusterModel::summit_like(4608);
    let p = 27_648u64;
    let core = pow2_core(p as usize) as u64;
    let lg = u64::from(core.ilog2());
    let fold = 2 * (p - core); // one pre-reduce and one post-broadcast send per folded-out rank
    let hierarchical = |g: u64| 2 * (p - p / g) + (p / g) * 2 * (p / g - 1);
    let flat = Collective::RingAllreduce {
        bucket_elems: usize::MAX,
    };
    let bucketed = Collective::RingAllreduce { bucket_elems: 256 };
    let cases = [
        (
            flat,
            128,
            Some(0x3fa8_1e82_280c_129a_u64),
            2 * (p - 1) * 128,
        ),
        (
            Collective::HierarchicalAllreduce { group_size: 6 },
            4608,
            Some(0x3f8e_6a63_e1ff_bf4f),
            hierarchical(6),
        ),
        (
            Collective::HierarchicalAllreduce { group_size: 64 },
            4608,
            Some(0x3f96_0e47_2091_f242),
            hierarchical(64),
        ),
        (
            Collective::Rabenseifner,
            16_384,
            Some(0x3fac_a259_3577_9d32),
            2 * core * lg + fold,
        ),
        (
            Collective::RecursiveDoubling,
            16_384,
            Some(0x3fc2_2d19_a5b7_033e),
            core * lg + fold,
        ),
        // 4-byte blocks sit under the Bruck threshold: ⌈lg p⌉ = 15
        // combined messages per rank.
        (Collective::Alltoall, 1, Some(0x3fe5_8995_acfc_3080), p * 15),
        (
            Collective::Gather { root: 0 },
            16_384,
            Some(0x3fb2_8cfa_3730_d54c),
            p - 1,
        ),
        (
            Collective::BinomialBroadcast { root: 0 },
            16_384,
            Some(0x3f0f_336a_4450_3ec0),
            p - 1,
        ),
        (bucketed, 128, None, 2 * (p - 1) * 128),
        (Collective::ReduceScatter, 128, None, (p - 1) * 128),
        (Collective::RingAllgather, 128, None, (p - 1) * 128),
        (Collective::BinomialReduce { root: 0 }, 16_384, None, p - 1),
        (Collective::TreeAllreduce, 16_384, None, 2 * (p - 1)),
        (Collective::Scatter { root: 0 }, 16_384, None, p - 1),
    ];
    for (collective, elems, golden, events) in cases {
        let out = simulate_on(collective, p as usize, elems, cluster);
        assert_eq!(out.events, events, "{collective:?} n={elems}: event count");
        if let Some(bits) = golden {
            assert_eq!(
                out.report.time_seconds.to_bits(),
                bits,
                "{collective:?} n={elems}: {:016x}",
                out.report.time_seconds.to_bits()
            );
        }
    }
}

/// Section VI-B from the simulated fat tree. The paper's arithmetic is
/// bandwidth-only (pipelined collectives hide latency), so the latency terms
/// are zeroed and the fabric supplies the bandwidth: a 100 MB ring allreduce
/// across 4,608 nodes takes ≈ 8 ms at ≈ 12.5 GB/s ring bandwidth.
#[test]
fn section_vi_b_ring_allreduce_from_the_simulated_fabric() {
    let mut cluster = ClusterModel::summit_nodes(4608);
    cluster.tree.injection.alpha = 0.0;
    cluster.tree.hop_latency = 0.0;
    cluster.nvlink_latency = 0.0;
    let bytes = 100.0e6;
    let flat = Collective::RingAllreduce {
        bucket_elems: usize::MAX,
    };
    let t = simulate_on(flat, 4608, (bytes / 4.0) as usize, cluster)
        .report
        .time_seconds;
    assert!((t - 8.0e-3).abs() / 8.0e-3 <= 0.05, "{:.3} ms", t * 1e3);
    let ring_bw = bytes / t;
    assert!(
        (ring_bw - 12.5e9).abs() / 12.5e9 <= 0.05,
        "{:.2} GB/s",
        ring_bw / 1e9
    );
}
