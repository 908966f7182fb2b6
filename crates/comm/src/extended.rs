//! The personalized collectives — all-to-all, scatter, gather — which move
//! whole caller-owned vectors ("slots") instead of windows of one buffer.
//!
//! Like the window set in [`crate::collectives`], each pattern is defined
//! once as an engine schedule ([`crate::engine`]) and reached through the
//! same [`Collective`] → schedule mapping the simulators use, so
//! [`run_slots`] and its deadline-bounded twin [`try_run_slots`] get
//! `FaultPlan` coverage and modeled ([`crate::sim::simulate`]) twins for
//! free.
//!
//! Both take and return **one slot per rank, indexed by peer**:
//!
//! * [`Collective::Alltoall`] — slot `j` goes to rank `j`; slot `j` of the
//!   result came from rank `j`.
//! * [`Collective::Scatter`] — the root's slot `j` goes to rank `j`; every
//!   rank finds its chunk in slot `me` of the result.
//! * [`Collective::Gather`] — every rank's slot `me` goes to the root,
//!   whose result holds rank `j`'s contribution in slot `j`.
//!
//! Slots the pattern does not send come back as they were.

use std::time::{Duration, Instant};

use crate::collectives::ReduceOp;
use crate::engine::{self, drive_blocking, drive_checked, AnySchedule, Collective};
use crate::faults::CommError;
use crate::world::Rank;

/// This rank's schedule for the personalized collective `c` over `slots`.
/// Ragged all-to-all blocks cannot ride Bruck's evenly split combined
/// messages, so they schedule as oversized ones: pairwise.
fn slot_schedule(rank: &Rank, c: Collective, slots: &[Vec<f32>]) -> AnySchedule {
    assert!(
        c.personalized(),
        "{c:?} reduces one buffer: use collectives::run"
    );
    assert_eq!(slots.len(), rank.size(), "{c:?} needs one slot per rank");
    let n = slots.first().map_or(0, Vec::len);
    let uniform = slots.iter().all(|b| b.len() == n);
    let elems = if uniform { n } else { usize::MAX };
    engine::schedule(c, rank.size(), rank.id(), elems)
}

/// Run the personalized collective `c` over `slots` (see the module docs
/// for each pattern's slot contract), blocking until this rank's part
/// completes.
///
/// # Panics
/// Panics if `c` is a window collective or `slots.len() != world size`.
pub fn run_slots(rank: &Rank, c: Collective, slots: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    let mut sched = slot_schedule(rank, c, &slots);
    let mut slots = engine::lay_out(&sched, rank.id(), slots);
    drive_blocking(rank, &mut [], &mut slots, ReduceOp::Sum, &mut sched);
    engine::collect(&sched, rank.id(), slots)
}

/// Timeout-aware [`run_slots`]. On error the exchange is torn mid-flight
/// and the slots are lost with it.
///
/// # Errors
/// Any [`CommError`] surfaced by the checked receives or the kill polls
/// (one leads the call, even in a single-rank world).
///
/// # Panics
/// Panics on the conditions of [`run_slots`].
pub fn try_run_slots(
    rank: &Rank,
    c: Collective,
    slots: Vec<Vec<f32>>,
    timeout: Duration,
) -> Result<Vec<Vec<f32>>, CommError> {
    let mut sched = slot_schedule(rank, c, &slots);
    rank.poll_fault_kill()?;
    let deadline = Some(Instant::now() + timeout);
    let mut slots = engine::lay_out(&sched, rank.id(), slots);
    drive_checked(
        rank,
        &mut [],
        &mut slots,
        ReduceOp::Sum,
        &mut sched,
        deadline,
    )?;
    Ok(engine::collect(&sched, rank.id(), slots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::run;
    use crate::engine::BRUCK_MAX_BYTES;
    use crate::world::World;

    /// `p` empty slots with `data` in slot `at`.
    fn one_slot(p: usize, at: usize, data: Vec<f32>) -> Vec<Vec<f32>> {
        let mut slots = vec![Vec::new(); p];
        slots[at] = data;
        slots
    }

    /// All-to-all where rank i sends `block(i·p + j)` to rank j, checked
    /// against what each rank must then hold.
    fn check_alltoall(p: usize, block: impl Fn(usize, usize) -> Vec<f32> + Sync) {
        let out = World::new(p).execute(|rank| {
            let send = (0..p).map(|j| block(rank.id(), j)).collect();
            run_slots(rank, Collective::Alltoall, send)
        });
        for (i, recv) in out.iter().enumerate() {
            for (j, buf) in recv.iter().enumerate() {
                assert_eq!(buf, &block(j, i), "p={p} rank {i} from {j}");
            }
        }
    }

    #[test]
    fn alltoall_power_of_two_and_odd() {
        for p in [2usize, 4, 8, 3, 5, 7] {
            check_alltoall(p, |i, j| vec![(i * p + j) as f32]);
        }
    }

    /// Blocks above the Bruck threshold exercise the direct pairwise
    /// schedule (the small-block test above lands on Bruck).
    #[test]
    fn alltoall_large_blocks_take_the_pairwise_path() {
        let n = BRUCK_MAX_BYTES / 4 + 1;
        for p in [4usize, 5] {
            check_alltoall(p, |i, j| vec![(i * p + j) as f32; n]);
        }
    }

    /// Ragged block lengths are ineligible for Bruck (its combined
    /// messages split evenly) and must stay on the pairwise schedule.
    #[test]
    fn alltoall_ragged_blocks_stay_pairwise() {
        check_alltoall(4, |i, j| vec![(i * 4 + j) as f32; j + 1]);
    }

    #[test]
    fn scatter_distributes_chunks() {
        for root in 0..4 {
            let out = World::new(4).execute(|rank| {
                let chunks = if rank.id() == root {
                    (0..4).map(|i| vec![i as f32, (i * i) as f32]).collect()
                } else {
                    vec![Vec::new(); 4]
                };
                let mut got = run_slots(rank, Collective::Scatter { root }, chunks);
                got.swap_remove(rank.id())
            });
            for (i, chunk) in out.iter().enumerate() {
                assert_eq!(chunk, &vec![i as f32, (i * i) as f32]);
            }
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let root = 2;
        let out = World::new(5).execute(|rank| {
            let mine = one_slot(5, rank.id(), vec![rank.id() as f32; rank.id() + 1]);
            run_slots(rank, Collective::Gather { root }, mine)
        });
        for (i, g) in out[root].iter().enumerate() {
            assert_eq!(g, &vec![i as f32; i + 1]);
        }
        assert!(out[0].iter().all(Vec::is_empty));
    }

    fn hierarchical(rank: &Rank, buf: &mut [f32], op: ReduceOp, group_size: usize) {
        run(
            rank,
            Collective::HierarchicalAllreduce { group_size },
            buf,
            op,
        );
    }

    #[test]
    fn hierarchical_equals_flat_allreduce() {
        for (p, g) in [(6usize, 3usize), (8, 2), (12, 6), (4, 4), (9, 3)] {
            let out = World::new(p).execute(|rank| {
                let mut buf: Vec<f32> = (0..10).map(|i| (rank.id() * 10 + i) as f32).collect();
                hierarchical(rank, &mut buf, ReduceOp::Sum, g);
                buf
            });
            // Flat reference.
            let mut want = vec![0.0f32; 10];
            for r in 0..p {
                for (w, i) in want.iter_mut().zip(0..10) {
                    *w += (r * 10 + i) as f32;
                }
            }
            for (r, got) in out.iter().enumerate() {
                for (a, b) in got.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-3, "p={p} g={g} rank={r}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn hierarchical_max_and_min() {
        let out = World::new(6).execute(|rank| {
            let mut buf = vec![rank.id() as f32];
            hierarchical(rank, &mut buf, ReduceOp::Max, 3);
            buf[0]
        });
        assert!(out.iter().all(|&v| v == 5.0));
    }

    #[test]
    #[should_panic(expected = "a rank panicked")]
    fn hierarchical_requires_tiling() {
        World::new(5).execute(|rank| {
            let mut buf = vec![0.0f32; 4];
            hierarchical(rank, &mut buf, ReduceOp::Sum, 3);
        });
    }
}
