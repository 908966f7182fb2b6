//! Executable window collectives over a [`Rank`]: [`run`] and [`try_run`]
//! take a [`Collective`] value and drive its schedule on the live
//! transport.
//!
//! Every algorithm is the real chunked message pattern an MPI/NCCL
//! implementation uses, not a shortcut through shared memory — the ring
//! allreduce (`2(p-1)` steps, `2(p-1)/p · n` elements moved per rank) is
//! the one whose bandwidth term the paper halves to get 12.5 GB/s. Each is
//! written **once**, as a schedule state machine in [`crate::engine`], and
//! reached through the one [`Collective`] → schedule mapping the
//! simulators ([`crate::sim::simulate`]) also use; [`run`] drives it on the
//! infallible pooled primitives, [`try_run`] under deadline-bounded checked
//! receives, and the nonblocking handles ([`crate::nonblocking`]) one op
//! at a time.
//!
//! Both entries must be called by **every** rank of the world collectively,
//! with the same `Collective` and equal buffer lengths, like their MPI
//! counterparts. The personalized collectives (alltoall, scatter, gather)
//! move owned vectors instead and live in [`crate::extended`].

use std::time::{Duration, Instant};

use crate::engine::{self, drive_blocking, drive_checked, AnySchedule, Collective};
use crate::faults::CommError;
use crate::world::Rank;

/// Element-wise reduction operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise maximum.
    Max,
    /// Element-wise minimum.
    Min,
}

impl ReduceOp {
    /// Fold `src` into `dst` element-wise.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn fold(self, dst: &mut [f32], src: &[f32]) {
        assert_eq!(dst.len(), src.len(), "reduction length mismatch");
        match self {
            ReduceOp::Sum => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += *s;
                }
            }
            ReduceOp::Max => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = d.max(*s);
                }
            }
            ReduceOp::Min => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = d.min(*s);
                }
            }
        }
    }

    /// Fold `local` into `payload` with the same operand order as
    /// [`ReduceOp::fold`] (`local ⊕ incoming`), so a partial carried in the
    /// circulating message is bit-identical to one accumulated in place.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn fold_into_payload(self, payload: &mut [f32], local: &[f32]) {
        assert_eq!(payload.len(), local.len(), "reduction length mismatch");
        match self {
            ReduceOp::Sum => {
                // `local + incoming`, matching `fold`'s operand order
                // (bit-identical even for signed zeros).
                #[allow(clippy::assign_op_pattern)]
                for (pd, l) in payload.iter_mut().zip(local) {
                    *pd = *l + *pd;
                }
            }
            ReduceOp::Max => {
                for (pd, l) in payload.iter_mut().zip(local) {
                    *pd = l.max(*pd);
                }
            }
            ReduceOp::Min => {
                for (pd, l) in payload.iter_mut().zip(local) {
                    *pd = l.min(*pd);
                }
            }
        }
    }
}

/// Chunk boundaries that partition `n` elements into `p` nearly equal chunks
/// (first `n % p` chunks get one extra element).
///
/// This is the **global partition** every surface shares: the blocking and
/// fallible collectives, the nonblocking windowed handles (which intersect
/// it with per-bucket windows so overlapped per-bucket allreduces keep the
/// serial fold order), and the model transport. Delegates to
/// [`summit_pool::chunk_range`] — the workspace's one canonical "first
/// `n % p` chunks get one extra element" rule, shared with the compute
/// pool's row partitioner. (The issue suggested hoisting it into
/// `summit-core`, but `summit-core` sits *above* this crate in the layering;
/// `summit-pool` is the common dependency both crates already share.)
///
/// # Panics
/// Panics if `p == 0` or `chunk >= p`.
pub fn chunk_bounds(n: usize, p: usize, chunk: usize) -> (usize, usize) {
    let r = summit_pool::chunk_range(n, p, chunk);
    (r.start, r.end)
}

/// This rank's schedule for the window collective `c` over `n` elements.
fn window_schedule(rank: &Rank, c: Collective, n: usize) -> AnySchedule {
    assert!(
        !c.personalized(),
        "{c:?} moves owned vectors: use extended::run_slots"
    );
    engine::schedule(c, rank.size(), rank.id(), n)
}

/// Run the window collective `c` over `buf`, blocking until this rank's
/// part completes. `op` is the fold of the reducing collectives (the pure
/// data movers ignore it). Runs on the pooled communicator primitives: in
/// steady state (pools warm) the call performs no heap allocation.
///
/// # Panics
/// Panics if `c` is personalized, on `c`'s own world-shape requirements,
/// or if buffer lengths differ across ranks (detected as message-length
/// mismatch).
pub fn run(rank: &Rank, c: Collective, buf: &mut [f32], op: ReduceOp) {
    let mut sched = window_schedule(rank, c, buf.len());
    drive_blocking(rank, buf, &mut [], op, &mut sched);
}

/// Timeout-aware [`run`]: completes with the exact bitwise result of the
/// infallible path, or fails loudly with a [`CommError`] within roughly
/// `timeout` (one deadline shared by every phase of `c`) when the fault
/// plane drops, corrupts, or kills something. On error, `buf` is left in
/// an unspecified partially reduced state — callers are expected to roll
/// back to a checkpoint.
///
/// # Errors
/// Any [`CommError`] surfaced by the checked receives or the kill polls
/// (one leads the call, even in a single-rank world).
///
/// # Panics
/// Panics on the conditions of [`run`].
pub fn try_run(
    rank: &Rank,
    c: Collective,
    buf: &mut [f32],
    op: ReduceOp,
    timeout: Duration,
) -> Result<(), CommError> {
    rank.poll_fault_kill()?;
    let deadline = Some(Instant::now() + timeout);
    let mut sched = window_schedule(rank, c, buf.len());
    drive_checked(rank, buf, &mut [], op, &mut sched, deadline)
}

/// Ring allreduce with each chunk transfer split into messages of at most
/// `bucket_elems` elements (the gradient-fusion bucket) — [`run`] on
/// [`Collective::RingAllreduce`].
///
/// Bucketing only changes message segmentation, never the chunk partition
/// or the per-element fold order, so the result is bit-identical to the
/// flat [`Collective::RING`] for every bucket size; `bucket_elems >= n`
/// degenerates to exactly the flat path.
pub fn ring_allreduce_bucketed(rank: &Rank, buf: &mut [f32], op: ReduceOp, bucket_elems: usize) {
    run(rank, Collective::RingAllreduce { bucket_elems }, buf, op);
}

/// [`run`] on [`Collective::ReduceScatter`], returning the (start, end)
/// element range of the fully reduced chunk this rank owns afterwards.
pub fn reduce_scatter(rank: &Rank, buf: &mut [f32], op: ReduceOp) -> (usize, usize) {
    run(rank, Collective::ReduceScatter, buf, op);
    chunk_bounds(buf.len(), rank.size(), (rank.id() + 1) % rank.size())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::all_collectives;
    use crate::extended::{run_slots, try_run_slots};
    use crate::faults::{FaultPlan, TagClass};
    use crate::world::World;
    use std::sync::Arc;

    fn input(rank: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| (rank * n + i) as f32 * 0.5).collect()
    }

    fn expected_sum(p: usize, n: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; n];
        for r in 0..p {
            for (a, b) in acc.iter_mut().zip(input(r, n)) {
                *a += b;
            }
        }
        acc
    }

    fn check_allreduce(c: Collective, p: usize, n: usize) {
        let out = World::new(p).execute(|rank| {
            let mut buf = input(rank.id(), n);
            run(rank, c, &mut buf, ReduceOp::Sum);
            buf
        });
        let want = expected_sum(p, n);
        for (r, got) in out.iter().enumerate() {
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-3 * w.abs().max(1.0),
                    "{c:?} rank {r} element {i}: got {g}, want {w}"
                );
            }
        }
    }

    #[test]
    fn ring_allreduce_small_worlds() {
        for p in 1..=8 {
            for n in [1usize, 2, 7, 16, 33] {
                check_allreduce(Collective::RING, p, n);
            }
        }
    }

    #[test]
    fn recursive_doubling_power_of_two() {
        for p in [1usize, 2, 4, 8] {
            check_allreduce(Collective::RecursiveDoubling, p, 24);
        }
    }

    /// Non-power-of-two worlds reduce through the fold: surplus ranks
    /// pre-combine into the power-of-two core and still end with the sum.
    #[test]
    fn recursive_doubling_folds_any_world() {
        for p in [3usize, 5, 6, 7, 9] {
            for n in [1usize, 13, 24] {
                check_allreduce(Collective::RecursiveDoubling, p, n);
            }
        }
    }

    #[test]
    fn rabenseifner_power_of_two() {
        for p in [1usize, 2, 4, 8] {
            check_allreduce(Collective::Rabenseifner, p, 32);
        }
    }

    /// The fold lifts Rabenseifner's world-shape restriction to "buffer
    /// divisible by the power-of-two core".
    #[test]
    fn rabenseifner_folds_any_world() {
        for p in [3usize, 5, 6, 7, 9] {
            // core = 2, 4, 4, 4, 8 → 32 is divisible by all of them.
            check_allreduce(Collective::Rabenseifner, p, 32);
        }
    }

    #[test]
    fn tree_allreduce_any_world() {
        for p in 1..=9 {
            check_allreduce(Collective::TreeAllreduce, p, 13);
        }
    }

    #[test]
    fn max_and_min_ops() {
        let out = World::new(5).execute(|rank| {
            let mut hi = vec![rank.id() as f32];
            run(rank, Collective::RING, &mut hi, ReduceOp::Max);
            let mut lo = vec![rank.id() as f32];
            run(rank, Collective::RING, &mut lo, ReduceOp::Min);
            (hi[0], lo[0])
        });
        assert!(out.iter().all(|&(hi, lo)| hi == 4.0 && lo == 0.0));
    }

    #[test]
    fn broadcast_into_from_every_root() {
        for p in 1..=8 {
            for root in 0..p {
                let out = World::new(p).execute(|rank| {
                    let mut buf = if rank.id() == root {
                        vec![42.0, 7.0]
                    } else {
                        vec![0.0, 0.0]
                    };
                    let c = Collective::BinomialBroadcast { root };
                    run(rank, c, &mut buf, ReduceOp::Sum);
                    buf
                });
                for (r, v) in out.iter().enumerate() {
                    assert_eq!(v, &vec![42.0, 7.0], "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    fn reduce_to_every_root() {
        for p in 1..=8 {
            for root in 0..p {
                let out = World::new(p).execute(|rank| {
                    let mut buf = vec![1.0f32; 4];
                    let c = Collective::BinomialReduce { root };
                    run(rank, c, &mut buf, ReduceOp::Sum);
                    buf
                });
                assert_eq!(out[root], vec![p as f32; 4], "p={p} root={root}");
            }
        }
    }

    #[test]
    fn reduce_scatter_owned_chunk_reduced() {
        let p = 4;
        let n = 16;
        let out = World::new(p).execute(|rank| {
            let mut buf = input(rank.id(), n);
            let (s, e) = reduce_scatter(rank, &mut buf, ReduceOp::Sum);
            (s, e, buf[s..e].to_vec())
        });
        let want = expected_sum(p, n);
        let mut covered = vec![false; n];
        for (s, e, chunk) in out {
            for (i, v) in (s..e).zip(chunk) {
                assert!((v - want[i]).abs() < 1e-3);
                covered[i] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "chunks must partition the buffer"
        );
    }

    #[test]
    fn ring_allreduce_message_volume_matches_theory() {
        // Each rank sends 2(p-1)/p * n elements; total bytes = 4 * 2(p-1) * n.
        let (p, n) = (6usize, 36usize);
        let mut world = World::new(p);
        world.execute(|rank| {
            let mut buf = vec![1.0f32; n];
            run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
        });
        let stats = world.last_traffic();
        assert_eq!(stats.bytes_sent, (4 * 2 * (p - 1) * n) as u64);
        assert_eq!(stats.messages_sent, (2 * (p - 1) * p) as u64);
    }

    /// In every ring step the p ranks send p distinct chunks that partition
    /// the buffer, so total traffic is exactly 4 * 2(p-1) * n bytes even
    /// when p does not divide n — and bucketing must not change a byte.
    #[test]
    fn executed_ring_traffic_is_exact_for_uneven_chunks() {
        for p in [2usize, 3, 4, 8] {
            for n in [1usize, 5, 37, 96] {
                for bucket in [usize::MAX, 7, 1] {
                    let mut world = World::new(p);
                    world.execute(|rank| {
                        let mut buf = vec![1.0f32; n];
                        ring_allreduce_bucketed(rank, &mut buf, ReduceOp::Sum, bucket);
                    });
                    let stats = world.last_traffic();
                    assert_eq!(
                        stats.bytes_sent,
                        (4 * 2 * (p - 1) * n) as u64,
                        "p={p} n={n} bucket={bucket}"
                    );
                    if n >= p && bucket == usize::MAX {
                        // Flat path, all chunks non-empty: one message per
                        // rank per step.
                        assert_eq!(stats.messages_sent, (2 * (p - 1) * p) as u64);
                    }
                }
            }
        }
    }

    /// Run `c` on this rank over deterministic inputs — blocking, or
    /// fallible when `timeout` is set — and return everything the rank
    /// holds afterwards, as bit patterns.
    fn run_any(
        rank: &Rank,
        c: Collective,
        elems: usize,
        timeout: Option<Duration>,
    ) -> Result<Vec<Vec<u32>>, CommError> {
        let (p, me) = (rank.size(), rank.id());
        let held = if c.personalized() {
            let slots = (0..p).map(|d| input(me * p + d, elems)).collect();
            match timeout {
                None => run_slots(rank, c, slots),
                Some(t) => try_run_slots(rank, c, slots, t)?,
            }
        } else {
            let mut buf = input(me, elems);
            match timeout {
                None => run(rank, c, &mut buf, ReduceOp::Sum),
                Some(t) => try_run(rank, c, &mut buf, ReduceOp::Sum, t)?,
            }
            vec![buf]
        };
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect();
        Ok(held.into_iter().map(bits).collect())
    }

    /// Block lengths on both sides of the Bruck cutoff, each both divisible
    /// by every world size below (and its power-of-two core) and not.
    const TABLE_ELEMS: [usize; 4] = [24, 13, 96, 67];

    /// The fallible entry runs the identical schedule, so a fault-free
    /// checked run is bit-identical to the blocking one — every variant,
    /// even and uneven lengths.
    #[test]
    fn try_twins_match_blocking_bitwise() {
        let t = Duration::from_secs(5);
        for p in [2usize, 3, 4, 8] {
            for elems in TABLE_ELEMS {
                for c in all_collectives(p, elems) {
                    let plain = World::new(p).execute(|rank| run_any(rank, c, elems, None));
                    let checked = World::new(p).execute(|rank| run_any(rank, c, elems, Some(t)));
                    assert!(plain[0].is_ok(), "{c:?} p={p} n={elems}");
                    assert_eq!(plain, checked, "{c:?} p={p} n={elems}");
                }
            }
        }
    }

    /// Every variant's fallible surface fails loudly: with the first
    /// message a sending rank posts to each peer dropped, at least one rank
    /// returns an error, and every rank returns within its deadline — no
    /// rank hangs, so the barrier is reachable.
    #[test]
    fn every_variant_fails_loudly_on_a_dropped_message() {
        let link = crate::LinkModel::new(1.0e-6, 1.0e9);
        let p = 4;
        for elems in [8usize, 72] {
            for c in all_collectives(p, elems) {
                let sent = crate::sim::simulate(c, p, elems, link).per_rank_messages;
                let src = sent.iter().position(|&m| m > 0).expect("someone sends");
                let plan = (0..p)
                    .filter(|&dst| dst != src)
                    .fold(FaultPlan::empty(), |plan, dst| {
                        plan.drop_message(src, dst, TagClass::Any, 0)
                    });
                let out = World::new(p).execute_with_faults(Arc::new(plan), |rank| {
                    let res = run_any(rank, c, elems, Some(Duration::from_millis(100)));
                    rank.barrier();
                    res.is_err()
                });
                assert!(out.iter().any(|&e| e), "{c:?} n={elems}: drop went unseen");
            }
        }
    }

    /// A scheduled kill surfaces from the leading poll — also in a
    /// single-rank world, where the schedule itself is empty.
    #[test]
    fn try_ring_allreduce_surfaces_kill() {
        for (p, victim) in [(2usize, 1usize), (1, 0)] {
            let plan = Arc::new(FaultPlan::empty().kill_rank(victim, 0));
            let out = World::new(p).execute_with_faults(plan, |rank| {
                let mut buf = vec![1.0f32; 4];
                let t = Duration::from_millis(200);
                let res = try_run(rank, Collective::RING, &mut buf, ReduceOp::Sum, t);
                rank.barrier();
                res
            });
            assert_eq!(out[victim], Err(CommError::RankKilled { rank: victim }));
        }
    }

    proptest::proptest! {
        /// Bucketing is pure message segmentation: for any world size,
        /// buffer, and bucket size (one element up to larger than the whole
        /// buffer), the bucketed allreduce is bit-identical to the flat one.
        #[test]
        fn bucketed_allreduce_bit_identical_to_flat(
            p in 2usize..=8,
            n in 1usize..=48,
            bucket in 1usize..=64,
            seed in 0u64..1000,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let inputs: Vec<Vec<f32>> = (0..p)
                .map(|_| (0..n).map(|_| rng.gen_range(-1e3f32..1e3)).collect())
                .collect();
            let flat = World::new(p).execute(|rank| {
                let mut buf = inputs[rank.id()].clone();
                run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
                buf
            });
            let bucketed = World::new(p).execute(|rank| {
                let mut buf = inputs[rank.id()].clone();
                ring_allreduce_bucketed(rank, &mut buf, ReduceOp::Sum, bucket);
                buf
            });
            for (r, (f, b)) in flat.iter().zip(&bucketed).enumerate() {
                for (i, (x, y)) in f.iter().zip(b).enumerate() {
                    proptest::prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "rank {} element {}: {} vs {}", r, i, x, y
                    );
                }
            }
        }
    }
}
