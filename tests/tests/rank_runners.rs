//! Rank runners: `World::execute` leases its rank threads from
//! `summit_pool::run_parked` instead of spawning them.
//!
//! 1. **Reuse** — once warm, executions spawn no thread at all, and a burst
//!    leaves at most `MAX_WORKERS` runners parked.
//! 2. **Deadlock freedom beyond the cap** — runners grow on demand, so
//!    hundreds of ranks blocked on each other all get a thread.
//! 3. **Thread-local hygiene** — a runner outlives its execution, so the
//!    core budget it ran under must not leak into the next one, nor into
//!    the caller that ran rank 0.
//! 4. **Failure attribution** — a panic on the caller's rank 0 or on a
//!    runner names world and rank, and leaves no runner stuck.
//!
//! The spawn counter is process-wide: every test here holds [`SERIAL`] so
//! no sibling test leases runners while another counts them.

use std::sync::{Barrier, Mutex, MutexGuard};

use summit_comm::world::World;
use summit_pool::{core_budget, rank_budget_from_env, run_parked, runner_stats, MAX_WORKERS};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed sibling test poisons the lock; the runners it used are
    // still parked, so the state it guards is intact.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run one `p`-rank world whose ranks are all live at once, so that `p − 1`
/// distinct runners serve it. (A no-op rank can finish and be handed the
/// next index before its caller is done dispatching.)
fn warm(p: usize) {
    World::new(p).execute(|rank| rank.barrier());
}

#[test]
fn warm_executions_spawn_no_runner() {
    let _serial = serial();
    warm(4);
    let before = runner_stats();
    assert!(
        before.idle >= 3,
        "warm execution parks its runners: {before:?}"
    );
    for _ in 0..100 {
        World::new(4).execute(|_| ());
    }
    assert_eq!(
        runner_stats().spawned,
        before.spawned,
        "100 warm 4-rank executions spawned runners"
    );
}

#[test]
fn three_hundred_worlds_on_one_barrier_all_complete() {
    let _serial = serial();
    const WORLDS: usize = 300;
    const RANKS: usize = 4;
    // Every rank of every world meets here, so all 1,200 ranks are live at
    // once: far above MAX_WORKERS, and none can finish before the last one
    // has a thread.
    let barrier = Barrier::new(WORLDS * RANKS);
    let before = runner_stats();
    let done = run_parked(WORLDS, |w| {
        let ids = World::new(RANKS).execute(|rank| {
            barrier.wait();
            rank.id()
        });
        (w, ids)
    });
    for (w, outcome) in done.into_iter().enumerate() {
        let (world, ids) = outcome.expect("world completed");
        assert_eq!((world, ids), (w, vec![0, 1, 2, 3]));
    }
    let after = runner_stats();
    // Every blocked rank but the caller's needed its own runner.
    assert!(
        after.spawned - before.spawned + before.idle as u64 >= (WORLDS * RANKS - 1) as u64,
        "runners did not grow past the cap: {before:?} → {after:?}"
    );
    assert!(
        after.idle <= MAX_WORKERS,
        "{} runners parked after the burst",
        after.idle
    );
}

#[test]
fn budgets_follow_the_lease_and_never_leak() {
    let _serial = serial();
    // The caller's own setting survives an execution, normal or panicking
    // on rank 0 — which runs on the caller.
    summit_pool::with_core_budget(MAX_WORKERS - 1, || {
        World::new(4).execute(|_| ());
        assert_eq!(core_budget(), MAX_WORKERS - 1, "after a normal execute");
        let caught = std::panic::catch_unwind(|| {
            World::new(4).execute(|rank| assert_ne!(rank.id(), 0, "rank 0 fails"));
        });
        assert!(caught.is_err());
        assert_eq!(core_budget(), MAX_WORKERS - 1, "after a rank-0 panic");
    });

    // Runners warmed by an 8-rank world report each later world's own
    // lease budget (the solo even share: no sibling test holds a lease).
    warm(8);
    let spawned = runner_stats().spawned;
    for p in [2, 3, 1, 4, 8] {
        let budgets = World::new(p).execute(|_| core_budget());
        assert_eq!(budgets, vec![rank_budget_from_env(p); p], "world of {p}");
    }
    assert_eq!(runner_stats().spawned, spawned, "worlds reused the runners");

    // And once back in the idle list, a runner carries no budget at all.
    let default = std::thread::spawn(core_budget)
        .join()
        .expect("probe thread");
    let seen: Vec<usize> = run_parked(8, |_| core_budget())
        .into_iter()
        .map(|b| b.expect("budget probe"))
        .collect();
    assert_eq!(seen, vec![default; 8]);
}

/// Run a 3-rank world in which `panicking` fails, and return the panic
/// message `execute` raised.
fn failure_message(world: &mut World, panicking: usize) -> String {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        world.execute(|rank| {
            if rank.id() == panicking {
                panic!("injected at rank {panicking}");
            }
            // Peers wait on the failing rank 0: only its exit sweep, run
            // on the caller before the index finishes, can release them.
            if panicking == 0 {
                let _ = rank.recv(0, 1);
            }
        })
    }));
    *caught
        .expect_err("execute must fail")
        .downcast::<String>()
        .expect("attributed panics are strings")
}

#[test]
fn rank_panics_are_attributed_and_leave_no_runner_stuck() {
    let _serial = serial();
    warm(3);
    let spawned = runner_stats().spawned;
    for panicking in [0, 2] {
        let mut world = World::new(3);
        let id = world.id();
        let msg = failure_message(&mut world, panicking);
        let want = format!(
            "world {id}: a rank panicked (rank {panicking} of 3): injected at rank {panicking}"
        );
        assert!(msg.contains(&want), "{msg:?} lacks {want:?}");
        // The same world executes again, on the same runners.
        let ids = world.execute(|rank| {
            rank.barrier();
            rank.id()
        });
        assert_eq!(ids, vec![0, 1, 2]);
    }
    assert_eq!(
        runner_stats().spawned,
        spawned,
        "a failed execution left a runner stuck"
    );
}
