//! Property-based tests cross-validating executed collectives against each
//! other and against the analytic cost models.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use summit_comm::{
    collectives::{chunk_bounds, run, ReduceOp},
    model::{Algorithm, CollectiveModel},
    world::World,
    Collective,
};
use summit_machine::LinkModel;

fn random_input(seed: u64, rank: usize, n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(rank as u64));
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn run_allreduce(c: Collective, p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    World::new(p).execute(|rank| {
        let mut buf = random_input(seed, rank.id(), n);
        run(rank, c, &mut buf, ReduceOp::Sum);
        buf
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All ranks agree after a ring allreduce, and the value matches the
    /// sequential reduction.
    #[test]
    fn ring_allreduce_correct(p in 1usize..9, n in 1usize..64, seed in 0u64..1000) {
        let out = run_allreduce(Collective::RING, p, n, seed);
        let mut want = vec![0.0f32; n];
        for r in 0..p {
            for (w, x) in want.iter_mut().zip(random_input(seed, r, n)) {
                *w += x;
            }
        }
        for got in &out {
            for (g, w) in got.iter().zip(&want) {
                prop_assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0));
            }
        }
    }

    /// All four allreduce algorithms agree with each other (power-of-two
    /// worlds, length divisible by p for rabenseifner).
    #[test]
    fn algorithms_agree(logp in 0u32..4, chunks in 1usize..8, seed in 0u64..1000) {
        let p = 1usize << logp;
        let n = chunks * p;
        let ring = run_allreduce(Collective::RING, p, n, seed);
        let rd = run_allreduce(Collective::RecursiveDoubling, p, n, seed);
        let rab = run_allreduce(Collective::Rabenseifner, p, n, seed);
        let tree = run_allreduce(Collective::TreeAllreduce, p, n, seed);
        for r in 0..p {
            for i in 0..n {
                let a = ring[r][i];
                for other in [&rd[r][i], &rab[r][i], &tree[r][i]] {
                    prop_assert!((a - other).abs() <= 1e-4 * a.abs().max(1.0));
                }
            }
        }
    }

    /// Max/Min allreduce returns a value that is attained by some rank and
    /// bounds all ranks.
    #[test]
    fn max_is_attained(p in 1usize..8, n in 1usize..16, seed in 0u64..1000) {
        let out = World::new(p).execute(|rank| {
            let mut buf = random_input(seed, rank.id(), n);
            run(rank, Collective::RING, &mut buf, ReduceOp::Max);
            buf
        });
        for i in 0..n {
            let want = (0..p)
                .map(|r| random_input(seed, r, n)[i])
                .fold(f32::NEG_INFINITY, f32::max);
            for got in &out {
                prop_assert_eq!(got[i], want);
            }
        }
    }

    /// Broadcast delivers the root's exact payload to everyone.
    #[test]
    fn broadcast_correct(p in 1usize..10, root_seed in 0usize..100,
                         n in 0usize..32, seed in 0u64..1000) {
        let root = root_seed % p;
        let payload = random_input(seed, root, n);
        let expect = payload.clone();
        let out = World::new(p).execute(|rank| {
            let mut buf = if rank.id() == root { payload.clone() } else { vec![0.0; n] };
            run(rank, Collective::BinomialBroadcast { root }, &mut buf, ReduceOp::Sum);
            buf
        });
        for got in out {
            prop_assert_eq!(&got, &expect);
        }
    }

    /// The canonical partition helper covers `0..n` with `p` disjoint,
    /// contiguous, ascending chunks whose sizes differ by at most one —
    /// and agrees with the legacy closed-form split every call site used
    /// before deduplication.
    #[test]
    fn chunk_bounds_partitions_exactly(n in 0usize..512, p in 1usize..32) {
        let mut cursor = 0usize;
        for chunk in 0..p {
            let (start, end) = chunk_bounds(n, p, chunk);
            prop_assert_eq!(start, cursor);
            prop_assert!(end >= start);
            let len = end - start;
            prop_assert!(len == n / p || len == n / p + 1);
            // Legacy formula, verbatim from the pre-refactor call sites.
            let base = n / p;
            let extra = n % p;
            let legacy_start = chunk * base + chunk.min(extra);
            let legacy_end = legacy_start + base + usize::from(chunk < extra);
            prop_assert_eq!((start, end), (legacy_start, legacy_end));
            let range = summit_pool::chunk_range(n, p, chunk);
            prop_assert_eq!((range.start, range.end), (start, end));
            cursor = end;
        }
        prop_assert_eq!(cursor, n);
    }

    /// Model sanity: allreduce time is monotone in message size and never
    /// negative; bandwidth term is bounded by the full model.
    #[test]
    fn model_monotone(p in 2u64..100_000, a in 0.0f64..1e-4,
                      b in 1e8f64..1e11, m1 in 1.0f64..1e10, m2 in 1.0f64..1e10) {
        let model = CollectiveModel::new(LinkModel::new(a, b));
        let (lo, hi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        for alg in Algorithm::ALL {
            let t_lo = model.allreduce_time(alg, p, lo);
            let t_hi = model.allreduce_time(alg, p, hi);
            prop_assert!(t_lo >= 0.0 && t_lo <= t_hi);
            prop_assert!(model.bandwidth_term(alg, p, lo) <= t_lo + 1e-15);
        }
    }

    /// Executed ring allreduce traffic equals the model's byte count
    /// assumption: 2(p-1)·n elements sent in total.
    #[test]
    fn ring_traffic_matches_model(p in 2usize..8, n in 1usize..64) {
        let mut world = World::new(p);
        world.execute(|rank| {
            let mut buf = vec![1.0f32; n];
            run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
        });
        prop_assert_eq!(world.last_traffic().bytes_sent, (4 * 2 * (p - 1) * n) as u64);
    }
}
