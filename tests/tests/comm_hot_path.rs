//! Proof that the pooled communicator hot path is allocation-free in
//! steady state: a counting global allocator brackets a window in which
//! every rank runs ring allreduces, and the allocation count must not move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use summit_comm::collectives::{ring_allreduce_bucketed, run, ReduceOp};
use summit_comm::world::World;
use summit_comm::Collective;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
/// allreduces while the global allocation counter is watched. Any
/// allocation anywhere in the process during that window fails the test,
/// so the proof covers the collectives, the pooled primitives, and the
/// transport queues at once.
///
/// This file intentionally holds only this test: a sibling test running
/// concurrently in the same binary would pollute the counter.
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
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let pool_before = rank.pool_stats();
        for _ in 0..rounds {
            run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
        }
        rank.barrier();
        let after = ALLOCATIONS.load(Ordering::SeqCst);
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
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..rounds {
            ring_allreduce_bucketed(rank, &mut buf, ReduceOp::Sum, bucket);
        }
        rank.barrier();
        ALLOCATIONS.load(Ordering::SeqCst) == before
    });
    assert!(ok.iter().all(|&v| v), "bucketed steady state allocated");
}
