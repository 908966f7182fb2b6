//! Proof that the **mixed-precision** pooled matmul hot path is
//! allocation-free in steady state, mirroring `gemm_alloc.rs` for the bf16
//! storage variants: once the bf16 packing scratch is warm, pooled
//! `*_into_prec(.., Precision::Mixed)` products through all three variants
//! must not allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use summit_tensor::{Matrix, Precision};

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

/// Steady-state pooled mixed-precision matmuls perform zero heap
/// allocations.
///
/// Warm-up rounds spawn the pool's workers and size this thread's bf16
/// packing scratch (and the f32 scratch, which the warmup f32 product
/// touches so a later precision switch cannot masquerade as steady
/// state); afterwards many more mixed products run through all three
/// variants into caller-owned outputs while the global allocation counter
/// is watched.
///
/// This file intentionally holds only this test: a sibling test running
/// concurrently in the same binary would pollute the counter.
#[test]
fn steady_state_mixed_matmul_does_not_allocate() {
    let m = 256;
    let k = 256;
    let n = 256;
    let warmup = 3;
    let rounds = 8;

    let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect());
    let b = Matrix::from_vec(k, n, (0..k * n).map(|i| (i % 7) as f32 * 0.25).collect());
    let bt = Matrix::from_vec(n, k, (0..n * k).map(|i| (i % 9) as f32 - 4.0).collect());
    let g = Matrix::from_vec(m, n, (0..m * n).map(|i| (i % 11) as f32 * 0.5).collect());
    let mut out_mm = Matrix::zeros(m, n);
    let mut out_atb = Matrix::zeros(k, n);
    let mut out_abt = Matrix::zeros(m, n);

    // A budget of 4 forces real pool dispatch regardless of host cores.
    summit_pool::with_core_budget(4, || {
        for _ in 0..warmup {
            a.matmul_into(&b, &mut out_mm);
            a.matmul_into_prec(&b, &mut out_mm, Precision::Mixed);
            a.matmul_at_b_into_prec(&g, &mut out_atb, Precision::Mixed);
            a.matmul_a_bt_into_prec(&bt, &mut out_abt, Precision::Mixed);
        }

        let stats_before = summit_pool::global().stats();
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..rounds {
            a.matmul_into_prec(&b, &mut out_mm, Precision::Mixed);
            a.matmul_at_b_into_prec(&g, &mut out_atb, Precision::Mixed);
            a.matmul_a_bt_into_prec(&bt, &mut out_abt, Precision::Mixed);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        let stats_after = summit_pool::global().stats();

        assert_eq!(
            after,
            before,
            "{} allocations during steady-state mixed pooled matmuls",
            after - before
        );
        // The window must actually have exercised the pool: three variants
        // × 4 sub-tasks per round.
        assert_eq!(
            stats_after.tasks_dispatched - stats_before.tasks_dispatched,
            (rounds * 3 * 4) as u64,
            "pooled dispatch did not engage during the measured window"
        );
    });

    // The results must still be right after all that: pooled mixed equals
    // serial mixed bitwise (the pool-invariance contract at bf16 storage).
    let mut serial = Matrix::zeros(m, n);
    use summit_tensor::matrix::Backend;
    a.matmul_into_parts_backend(&b, &mut serial, 1, Precision::Mixed, Backend::Auto);
    assert_eq!(out_mm, serial);
}
