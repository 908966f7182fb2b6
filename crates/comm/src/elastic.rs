//! The recovery control plane: votes, barriers, and collectives over a
//! [`WorldView`]. Rollback-and-replay runs them over the full view; elastic
//! recovery runs them over whatever membership survives, which is what lets
//! a world shrink past a dead rank (or grow one back in) instead of
//! replaying.
//!
//! The protocol is deliberately small. All of it rides on control-plane
//! tags ([`CONTROL_BIT`]), which the fault plane never drops, delays, or
//! corrupts (a production transport would carry these over a reliable
//! out-of-band channel). Three primitives:
//!
//! * [`vote_members`] — every member learns every member's health bit, so
//!   all survivors compute the *same* survivor mask from the same inputs.
//! * [`view_barrier`] — a gather-then-release rendezvous among the view's
//!   members only. Recovery never touches the world's physical
//!   [`Rank::barrier`], which is sized for the full world and would
//!   deadlock (or worse, mis-release) once spectators stop participating.
//! * [`try_ring_allreduce_view`] — the data-plane collective: the exact
//!   ring schedule of the classic path, re-derived at the view's size over
//!   dense ids and remapped to physical ranks on the wire, in the view's
//!   epoch tag namespace.

use std::time::{Duration, Instant};

use crate::collectives::ReduceOp;
use crate::engine::{self, RemapSchedule, RingSchedule};
use crate::faults::{CommError, CONTROL_BIT};
use crate::world::{Rank, WorldView};

/// Control-message kinds, carried in bits 32..40 of the tag. Kind 0 is
/// left to bare `CONTROL_BIT | round` tags, so ad hoc control traffic can
/// never collide with the protocol's.
const K_VOTE: u64 = 1;
const K_GATHER: u64 = 2;
const K_RELEASE: u64 = 3;
const K_JOIN: u64 = 4;
const K_STATE: u64 = 5;

/// Compose a control tag: kind, membership epoch, and a per-use round.
fn ctl_tag(kind: u64, epoch: u64, round: u64) -> u64 {
    CONTROL_BIT | (kind << 32) | ((epoch & 0xfff) << 16) | (round & 0xffff)
}

/// Tag of the hot-join signal a member sends a waiting spectator at step
/// boundary `step`. Epoch-free: the spectator left the membership before
/// the current epoch existed, so the tag is keyed on the agreed rejoin
/// step instead (the signal payload carries the epoch to adopt).
pub fn join_tag(step: u64) -> u64 {
    ctl_tag(K_JOIN, 0, step)
}

/// Tag of the state transfer (encoded size-agnostic checkpoint) that
/// follows a [`join_tag`] signal.
pub fn state_tag(step: u64) -> u64 {
    ctl_tag(K_STATE, 0, step)
}

/// All-to-all health vote among the view's members: returns the mask of
/// members (dense-indexed) that reported `healthy`. Control traffic is
/// reliable, so every member computes the identical mask — this is the
/// agreement step that lets survivors adopt the same shrunk view without
/// a leader.
///
/// `round` must be unique per (epoch, call site); the elastic runner keys
/// it on the training step.
///
/// # Panics
/// Panics if this rank is not a member of `view`.
pub fn vote_members(rank: &Rank, view: &WorldView, healthy: bool, round: u64) -> Vec<bool> {
    let me = view.my_index().expect("only members vote");
    let tag = ctl_tag(K_VOTE, view.epoch(), round);
    let vote = [if healthy { 1.0f32 } else { 0.0 }];
    for (dense, &peer) in view.members().iter().enumerate() {
        if dense != me {
            rank.send_from(peer, tag, &vote);
        }
    }
    let mut mask = vec![false; view.size()];
    mask[me] = healthy;
    for (dense, &peer) in view.members().iter().enumerate() {
        if dense != me {
            rank.recv_with(peer, tag, |payload| mask[dense] = payload[0] != 0.0);
        }
    }
    mask
}

/// Rendezvous among the view's members: dense rank 0 collects a token from
/// every other member, then releases them all. No member passes the
/// barrier until every member has reached it — the property the quiesce
/// protocol (barrier → drain → barrier) needs so that all pre-barrier data
/// traffic is already in the receive queues when the drain sweeps them.
///
/// # Panics
/// Panics if this rank is not a member of `view`.
pub fn view_barrier(rank: &Rank, view: &WorldView, round: u64) {
    let me = view.my_index().expect("only members synchronize");
    if view.size() == 1 {
        return;
    }
    let gather = ctl_tag(K_GATHER, view.epoch(), round);
    let release = ctl_tag(K_RELEASE, view.epoch(), round);
    let leader = view.physical(0);
    if me == 0 {
        for &peer in &view.members()[1..] {
            rank.recv_with(peer, gather, |_| ());
        }
        for &peer in &view.members()[1..] {
            rank.send_from(peer, release, &[1.0]);
        }
    } else {
        rank.send_from(leader, gather, &[1.0]);
        rank.recv_with(leader, release, |_| ());
    }
}

/// Fallible bucketed ring allreduce over a [`WorldView`]: the schedule is
/// derived at `(view.size(), dense id)` — exactly the classic schedule at
/// that size — and remapped to physical ranks on the wire, tagged in the
/// view's epoch namespace. At full membership and epoch 0 this is wire-
/// and bit-identical to [`try_run`](crate::collectives::try_run) on
/// [`Collective::RingAllreduce`](crate::Collective::RingAllreduce).
///
/// # Errors
/// Any [`CommError`] from the checked receives or the kill poll.
///
/// # Panics
/// Panics if this rank is not a member of `view`.
pub fn try_ring_allreduce_view(
    rank: &Rank,
    view: &WorldView,
    buf: &mut [f32],
    op: ReduceOp,
    bucket_elems: usize,
    timeout: Duration,
) -> Result<(), CommError> {
    let me = view.my_index().expect("only members join collectives");
    rank.poll_fault_kill()?;
    if view.size() == 1 {
        return Ok(());
    }
    let ring =
        RingSchedule::allreduce_ns(view.size(), me, buf.len(), bucket_elems, view.blocking_ns());
    let mut sched = RemapSchedule::new(ring, Some(view.members()));
    let deadline = Some(Instant::now() + timeout);
    engine::drive_checked(rank, buf, &mut [], op, &mut sched, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{ring_allreduce_bucketed, try_run};
    use crate::engine::RingPhase;
    use crate::nonblocking::ring_allreduce_start;
    use crate::world::World;
    use crate::Collective;
    use std::time::Duration;

    /// The full view at epoch 0 is the classic world: the blocking
    /// collective and the windowed nonblocking start (two buckets, the
    /// path rollback takes in overlap mode) are both bit-identical to
    /// their classic twins.
    #[test]
    fn full_view_allreduce_matches_classic() {
        let results = World::new(4).execute(|rank| {
            let view = WorldView::full(rank);
            let input: Vec<f32> = (0..32)
                .map(|i| (rank.id() * 32 + i) as f32 * 0.37)
                .collect();
            let windowed = |over_view: bool| {
                let mut buf = input.clone();
                let mut handles: Vec<_> = buf
                    .chunks_mut(16)
                    .enumerate()
                    .map(|(b, w)| {
                        let view = over_view.then_some(&view);
                        let (op, phase) = (ReduceOp::Sum, RingPhase::Allreduce);
                        ring_allreduce_start(rank, view, w, op, b as u64, 32, b * 16, phase)
                    })
                    .collect();
                handles.iter_mut().for_each(|h| h.wait());
                drop(handles);
                buf
            };
            assert_eq!(windowed(true), windowed(false), "windowed start diverged");

            let mut elastic = input.clone();
            let mut classic = input;
            try_ring_allreduce_view(
                rank,
                &view,
                &mut elastic,
                ReduceOp::Sum,
                8,
                Duration::from_secs(5),
            )
            .unwrap();
            let ring = Collective::RingAllreduce { bucket_elems: 8 };
            try_run(
                rank,
                ring,
                &mut classic,
                ReduceOp::Sum,
                Duration::from_secs(5),
            )
            .unwrap();
            (elastic, classic)
        });
        for (elastic, classic) in results {
            assert_eq!(elastic, classic);
        }
    }

    #[test]
    fn shrunk_view_matches_fresh_small_world() {
        // 4-rank world, member set {0, 2, 3} at epoch 1: the survivors'
        // allreduce must be bit-identical to a fresh 3-rank world's.
        let big = World::new(4).execute(|rank| {
            let view = WorldView::full(rank).shrink_to(&[true, false, true, true]);
            let Some(dense) = view.my_index() else {
                return None; // rank 1 is a spectator
            };
            let mut buf: Vec<f32> = (0..10).map(|i| (dense * 10 + i) as f32 * 0.5).collect();
            try_ring_allreduce_view(
                rank,
                &view,
                &mut buf,
                ReduceOp::Sum,
                4,
                Duration::from_secs(5),
            )
            .unwrap();
            Some(buf)
        });
        let small = World::new(3).execute(|rank| {
            let mut buf: Vec<f32> = (0..10).map(|i| (rank.id() * 10 + i) as f32 * 0.5).collect();
            ring_allreduce_bucketed(rank, &mut buf, ReduceOp::Sum, 4);
            buf
        });
        let survivors: Vec<_> = big.into_iter().flatten().collect();
        assert_eq!(survivors.len(), 3);
        for (s, f) in survivors.iter().zip(&small) {
            assert_eq!(s, f, "shrunk-view collective diverged from fresh world");
        }
    }

    #[test]
    fn view_barrier_and_vote_exclude_spectators() {
        let results = World::new(4).execute(|rank| {
            let view = WorldView::full(rank).shrink_to(&[true, true, false, true]);
            if view.my_index().is_none() {
                return vec![];
            }
            view_barrier(rank, &view, 7);
            let healthy = rank.id() != 3;
            let mask = vote_members(rank, &view, healthy, 9);
            view_barrier(rank, &view, 8);
            mask
        });
        for (id, mask) in results.iter().enumerate() {
            if id == 2 {
                assert!(mask.is_empty());
            } else {
                // Members are {0, 1, 3}; dense index 2 (physical 3) voted no.
                assert_eq!(mask, &vec![true, true, false]);
            }
        }
    }

    /// Every member computes the same mask, so the conjunction every
    /// recovery driver commits on is the same everywhere — with no
    /// dissenter, a dissenting lead, and a dissenting last rank.
    #[test]
    fn votes_conjoin_across_ranks() {
        for dissenter in [None, Some(0usize), Some(2)] {
            let out = World::new(3).execute(|r| {
                let ok = Some(r.id()) != dissenter;
                vote_members(r, &WorldView::full(r), ok, 0)
                    .iter()
                    .all(|&v| v)
            });
            let want = dissenter.is_none();
            assert!(out.iter().all(|&v| v == want), "dissenter {dissenter:?}");
        }
    }

    #[test]
    fn repeated_votes_stay_consistent() {
        let out = World::new(4).execute(|r| {
            let view = WorldView::full(r);
            (0..8u64)
                .map(|round| {
                    let ok = !(round == 3 && r.id() == 2);
                    vote_members(r, &view, ok, round).iter().all(|&v| v)
                })
                .collect::<Vec<bool>>()
        });
        for votes in out {
            for (round, v) in votes.iter().enumerate() {
                assert_eq!(*v, round != 3, "round {round}");
            }
        }
    }
}
