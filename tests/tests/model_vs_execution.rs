//! Integration X1: the executed collectives and the analytic cost models
//! agree on the quantities both can observe — transferred bytes and
//! message (step) counts.
//!
//! The exact half of the pin is `model_transport_counts_match_execution`:
//! the model transport drives the *same* engine schedule the channel
//! transport drives, so its per-rank message and byte counters must equal
//! the executed collective's per-rank [`summit_comm::TrafficStats`] to the message —
//! every algorithm, even and uneven chunk splits, p ∈ {2, 3, 4, 8}.

use summit_comm::{
    collectives::{run, ReduceOp},
    extended::run_slots,
    sim::simulate,
    world::World,
    Collective, TrafficStats,
};
use summit_machine::LinkModel;

/// Ring allreduce moves exactly 2(p−1)/p · n elements per rank — the byte
/// term the analytic ring model charges to the link.
#[test]
fn ring_traffic_matches_model_bandwidth_term() {
    for p in [2usize, 3, 5, 8] {
        for n in [16usize, 100, 1024] {
            let mut world = World::new(p);
            world.execute(|rank| {
                let mut buf = vec![1.0f32; n];
                run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
            });
            let stats = world.last_traffic();
            // Total across ranks: p · 2(p−1)/p · n elements × 4 bytes,
            // except chunk rounding: with exact chunking the total is
            // exactly 2(p−1)·n elements.
            assert_eq!(stats.bytes_sent, (8 * (p - 1) * n) as u64, "p={p} n={n}");
            // 2(p−1) steps per rank.
            assert_eq!(stats.messages_sent, (2 * (p - 1) * p) as u64);
        }
    }
}

/// Recursive doubling sends log2(p) full buffers per rank — the model's
/// byte term.
#[test]
fn recursive_doubling_traffic_matches_model() {
    for logp in 1u32..4 {
        let p = 1usize << logp;
        let n = 64usize;
        let mut world = World::new(p);
        world.execute(|rank| {
            let mut buf = vec![1.0f32; n];
            run(rank, Collective::RecursiveDoubling, &mut buf, ReduceOp::Sum);
        });
        let stats = world.last_traffic();
        assert_eq!(stats.bytes_sent, (p * logp as usize * n * 4) as u64);
        assert_eq!(stats.messages_sent, (p * logp as usize) as u64);
    }
}

/// Run `c` on a live world — through the same generic entries every
/// caller uses, so the schedule is the one `simulate` builds — and return
/// every rank's transport counters, after checking that they sum to the
/// world's.
fn executed_traffic(c: Collective, p: usize, elems: usize) -> Vec<TrafficStats> {
    let mut world = World::new(p);
    let per_rank = world.execute(move |rank| {
        let me = rank.id();
        if c.personalized() {
            // Every slot populated: the ones a pattern does not send are
            // simply handed back.
            let slots = (0..p).map(|d| vec![(me * p + d) as f32; elems]).collect();
            let _ = run_slots(rank, c, slots);
        } else {
            let mut buf: Vec<f32> = (0..elems).map(|i| (me * elems + i) as f32).collect();
            run(rank, c, &mut buf, ReduceOp::Sum);
        }
        rank.traffic()
    });
    let summed = per_rank
        .iter()
        .fold(TrafficStats::default(), |a, t| TrafficStats {
            bytes_sent: a.bytes_sent + t.bytes_sent,
            messages_sent: a.messages_sent + t.messages_sent,
            messages_parked: a.messages_parked + t.messages_parked,
            faults_injected: a.faults_injected + t.faults_injected,
        });
    assert_eq!(
        summed,
        world.last_traffic(),
        "{c:?} p={p} n={elems}: rank sums"
    );
    per_rank
}

/// Every collective the engine models, executed and simulated over the
/// same schedule: per-rank message counts and byte volumes must agree
/// **exactly** — not in aggregate, rank by rank. Both sides build their
/// schedule in `engine::schedule`, so this holds by construction; the
/// table witnesses it (block lengths on both sides of the Bruck cutoff).
#[test]
fn model_transport_counts_match_execution_exactly() {
    let link = LinkModel::new(1.5e-6, 10.0e9);
    for p in [2usize, 3, 4, 8] {
        // 24 divides evenly by every p here; 13 exercises uneven chunks
        // and empty tail segments; 72 puts alltoall on the pairwise path.
        for elems in [24usize, 13, 72] {
            let mut cases = vec![
                Collective::RING,
                Collective::RingAllreduce { bucket_elems: 5 },
                Collective::ReduceScatter,
                Collective::RingAllgather,
                Collective::BinomialBroadcast { root: p - 1 },
                Collective::BinomialReduce { root: 0 },
                Collective::TreeAllreduce,
                Collective::Alltoall,
                Collective::Scatter { root: 0 },
                Collective::Gather { root: p - 1 },
            ];
            // Recursive doubling folds non-power-of-two worlds into a
            // power-of-two core; Rabenseifner does too but needs the
            // buffer divisible by that core.
            cases.push(Collective::RecursiveDoubling);
            let core = 1usize << (usize::BITS - 1 - p.leading_zeros());
            if elems % core == 0 {
                cases.push(Collective::Rabenseifner);
            }
            for g in [1usize, 2, p] {
                if p % g == 0 {
                    cases.push(Collective::HierarchicalAllreduce { group_size: g });
                }
            }
            cases.dedup();
            for c in cases {
                let predicted = simulate(c, p, elems, link);
                let executed = executed_traffic(c, p, elems);
                for (r, traffic) in executed.iter().enumerate() {
                    assert_eq!(
                        traffic.messages_sent, predicted.per_rank_messages[r],
                        "{c:?} p={p} n={elems} rank {r}: message count"
                    );
                    assert_eq!(
                        traffic.bytes_sent, predicted.per_rank_bytes[r],
                        "{c:?} p={p} n={elems} rank {r}: byte volume"
                    );
                }
            }
        }
    }
}

/// The executed ring's per-rank traffic is independent of p for large p
/// (the saturation behind the paper's "12.5 GB/s algorithm bandwidth").
#[test]
fn ring_per_rank_traffic_saturates() {
    let n = 840usize; // divisible by all p below: exact chunks
    let mut per_rank: Vec<f64> = Vec::new();
    for p in [2usize, 4, 8] {
        let mut world = World::new(p);
        world.execute(|rank| {
            let mut buf = vec![0.5f32; n];
            run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
        });
        let stats = world.last_traffic();
        per_rank.push(stats.bytes_sent as f64 / p as f64);
    }
    // 2(p-1)/p · n · 4: p=2 → 1·n·4; p=8 → 1.75·n·4. Ratio < 2 and
    // monotonically approaching 2n·4.
    assert!(per_rank.windows(2).all(|w| w[1] > w[0]));
    assert!(per_rank[2] < 2.0 * 840.0 * 4.0);
}
