//! Proof that the pooled communicator hot path is allocation-free in
//! steady state: a counting global allocator brackets a window in which
//! every rank runs collectives, and no rank's allocation count may move.
//!
//! Each thread counts its own allocations. A process-wide counter also
//! sees the test harness: right after it spawns a test's thread, its main
//! thread records the running test (four small allocations), and on a
//! loaded host that bookkeeping can land inside a window that opened on
//! the test thread meanwhile. Every rank reads its own thread's count, so
//! the verdict covers exactly the ranks' threads, whatever the host's
//! timing, and sibling tests cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use summit_comm::collectives::{ring_allreduce_bucketed, run, ReduceOp};
use summit_comm::world::World;
use summit_comm::Collective;

struct CountingAllocator;

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// This thread's allocations so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Steady-state ring allreduce performs zero heap allocations.
///
/// Warm-up rounds fill each rank's buffer pool and let the channel queues
/// reach their peak depth; after a barrier, every rank runs many more
/// allreduces while its allocation counter is watched. Any allocation on
/// any rank during that window fails the test, so the proof covers the
/// collectives, the pooled primitives, and the transport queues at once.
#[test]
fn steady_state_ring_allreduce_does_not_allocate() {
    let p = 4;
    let n = 4096;
    let warmup = 4;
    let rounds = 32;

    let stats = World::new(p).execute(|rank| {
        let mut buf = vec![rank.id() as f32; n];
        for _ in 0..warmup {
            run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
        }
        rank.barrier();
        let before = allocations();
        let pool_before = rank.pool_stats();
        for _ in 0..rounds {
            run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
        }
        rank.barrier();
        let after = allocations();
        let pool_after = rank.pool_stats();
        (before, after, pool_before, pool_after)
    });

    for (rank_id, (before, after, pool_before, pool_after)) in stats.iter().enumerate() {
        assert_eq!(
            after,
            before,
            "rank {rank_id}: {} allocations during steady-state allreduces",
            after - before
        );
        assert_eq!(
            pool_after.misses, pool_before.misses,
            "rank {rank_id}: pool missed during steady state"
        );
        // Only the reduce-scatter priming send touches the pool: every
        // other step forwards the received payload as-is, and the final
        // reduce hop hands its payload to the allgather phase directly.
        assert_eq!(
            pool_after.hits - pool_before.hits,
            rounds as u64,
            "rank {rank_id}: unexpected pool hit count"
        );
        // Every round each rank acquires one priming buffer and retires one
        // circulating payload, so the outstanding count must return to its
        // warm-state value once the barrier has drained the ring.
        assert_eq!(
            pool_after.outstanding, pool_before.outstanding,
            "rank {rank_id}: pool outstanding count drifted during steady state"
        );
    }

    // The bucketed variant shares the same pooled path: after its own
    // warm-up it must also run allocation-free.
    let bucket = 256;
    let ok = World::new(p).execute(|rank| {
        let mut buf = vec![rank.id() as f32; n];
        for _ in 0..warmup {
            ring_allreduce_bucketed(rank, &mut buf, ReduceOp::Sum, bucket);
        }
        rank.barrier();
        let before = allocations();
        for _ in 0..rounds {
            ring_allreduce_bucketed(rank, &mut buf, ReduceOp::Sum, bucket);
        }
        rank.barrier();
        allocations() == before
    });
    assert!(ok.iter().all(|&v| v), "bucketed steady state allocated");
}

/// A message that arrives before the receive it matches is parked in the
/// receiver's per-source queue; once warm-up has parked one, a steady
/// state that parks one per round allocates nothing. Each rank sends a
/// round's two messages to its peer in the opposite order to the one it
/// receives them in, so every round parks exactly one message per rank, on
/// any timing, and each rank's buffer pool gets back what it lent.
#[test]
fn parking_an_early_arrival_does_not_allocate_in_steady_state() {
    let (first, second) = (7u64, 8u64);
    let (warmup, rounds) = (2, 32);
    let got = World::new(2).execute(|rank| {
        let (peer, payload) = (1 - rank.id(), [rank.id() as f32; 64]);
        let round = || {
            rank.send_from(peer, second, &payload);
            rank.send_from(peer, first, &payload);
            // The channel holds `second` ahead of `first`: this receive
            // parks it, the next one takes it from the queue.
            for tag in [first, second] {
                let msg = rank.recv(peer, tag);
                rank.release_payload(msg);
            }
            rank.barrier();
        };
        (0..warmup).for_each(|_| round());
        let (before, parked_before) = (allocations(), rank.traffic().messages_parked);
        (0..rounds).for_each(|_| round());
        let parked = rank.traffic().messages_parked - parked_before;
        (allocations() - before, parked)
    });
    for (rank_id, got) in got.into_iter().enumerate() {
        assert_eq!(
            got,
            (0, rounds),
            "rank {rank_id}: (allocations, parked messages)"
        );
    }
}
