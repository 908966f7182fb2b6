//! Multi-world stress: many mixed-size worlds live in one process.
//!
//! The refactor's load-bearing claims, checked under real contention:
//!
//! 1. **Budget conservation** — however many worlds are live, the core
//!    arbiter never books more lanes than the machine has.
//! 2. **Stat isolation** — each world's `TrafficStats` counts exactly its
//!    own messages, even with dozens of worlds exchanging traffic
//!    concurrently.
//! 3. **Bit identity** — a kernel's result is the same bits whether its
//!    world runs alone or among many.
//! 4. **Failure attribution** — a panic in one world of many names that
//!    world and rank, and neighbors complete unaffected.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use summit_comm::collectives::run;
use summit_comm::world::World;
use summit_comm::{Collective, ReduceOp};
use summit_sched::workload::{Workload, WorkloadKind};

/// The reference kernel: a ring allreduce over per-world data. Returns
/// rank 0's reduced buffer.
fn allreduce_kernel(world: &mut World, world_idx: usize) -> (Vec<f32>, u64, u64) {
    let p = world.size();
    let results = world.execute(|rank| {
        let mut buf: Vec<f32> = (0..64)
            .map(|i| ((world_idx * 1000 + rank.id() * 10 + i) as f32).sin())
            .collect();
        run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
        buf
    });
    // Every rank must hold identical bits after the allreduce.
    for r in 1..p {
        assert_eq!(results[0], results[r], "ranks disagree inside a world");
    }
    let stats = world.last_traffic();
    (results[0].clone(), stats.messages_sent, stats.bytes_sent)
}

#[test]
fn concurrent_worlds_conserve_budget_isolate_stats_and_match_solo() {
    const WORLDS: usize = 48;
    let sizes: Vec<usize> = (0..WORLDS).map(|i| 1 + i % 4).collect();

    // Solo reference: each world run by itself.
    let solo: Vec<(Vec<f32>, u64, u64)> = sizes
        .iter()
        .enumerate()
        .map(|(i, &p)| allreduce_kernel(&mut World::new(p), i))
        .collect();

    // Concurrent run: all worlds rendezvous before their allreduces so the
    // traffic genuinely overlaps, then a sampler checks conservation while
    // everything is live.
    let start = Barrier::new(WORLDS + 1);
    let finished = AtomicUsize::new(0);
    let concurrent: Vec<(Vec<f32>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let start = &start;
                let finished = &finished;
                scope.spawn(move || {
                    let mut world = World::new(p);
                    start.wait();
                    let out = allreduce_kernel(&mut world, i);
                    finished.fetch_add(1, Ordering::Release);
                    out
                })
            })
            .collect();
        start.wait();
        // Poll the arbiter while worlds run: leased lanes may never exceed
        // capacity, whatever mixture of worlds holds leases.
        let arbiter = summit_pool::arbiter();
        while finished.load(Ordering::Acquire) < WORLDS {
            let s = arbiter.stats();
            assert!(
                s.leased <= s.capacity,
                "arbiter oversubscribed: {} lanes of {}",
                s.leased,
                s.capacity
            );
            std::thread::yield_now();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("world thread panicked"))
            .collect()
    });

    for (i, (s, c)) in solo.iter().zip(&concurrent).enumerate() {
        // Bit identity: concurrency must not perturb any world's result.
        assert_eq!(s.0, c.0, "world {i} result drifted under concurrency");
        // Stat isolation: the same kernel sends the same messages/bytes
        // whether or not 47 other worlds are talking at the same time.
        assert_eq!(s.1, c.1, "world {i} message count leaked");
        assert_eq!(s.2, c.2, "world {i} byte count leaked");
        // And the counts are exactly the analytic ring traffic:
        // 2·(p−1) messages per rank for reduce-scatter + allgather.
        let p = sizes[i] as u64;
        if p > 1 {
            assert_eq!(s.1, p * 2 * (p - 1), "world {i} ring message count");
        } else {
            assert_eq!(s.1, 0);
        }
    }
}

#[test]
fn two_hundred_worlds_hold_leases_at_once() {
    const WORLDS: usize = 200;
    let gate = Barrier::new(WORLDS + 1);
    let release = Barrier::new(WORLDS + 1);
    std::thread::scope(|scope| {
        for i in 0..WORLDS {
            let gate = &gate;
            let release = &release;
            scope.spawn(move || {
                let mut world = World::new(1 + i % 3);
                // Rendezvous from inside the execution: the lease is live.
                world.execute(|rank| {
                    if rank.id() == 0 {
                        gate.wait();
                        release.wait();
                    }
                });
            });
        }
        gate.wait();
        let s = summit_pool::arbiter().stats();
        assert!(
            s.live_leases >= WORLDS,
            "only {} live leases at the rendezvous",
            s.live_leases
        );
        assert!(s.leased <= s.capacity, "conservation violated at peak");
        release.wait();
    });
}

#[test]
fn worlds_survive_a_neighbors_failure() {
    let ok = Barrier::new(2);
    let (good, bad) = std::thread::scope(|scope| {
        let ok = &ok;
        let good = scope.spawn(move || {
            let mut world = World::new(2);
            let out = world.execute(|rank| {
                if rank.id() == 0 {
                    ok.wait(); // overlap with the failing world
                }
                rank.barrier();
                rank.id()
            });
            out.iter().sum::<usize>()
        });
        let bad = scope.spawn(move || {
            let mut world = World::new(3);
            let id = world.id();
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                world.execute(|rank| {
                    if rank.id() == 0 {
                        ok.wait();
                    }
                    if rank.id() == 2 {
                        panic!("injected failure");
                    }
                    // Other ranks exit normally; the lazy fabric's depart
                    // sweep keeps nobody blocked forever.
                })
            }));
            let msg = match caught {
                Ok(_) => panic!("world should have failed"),
                Err(payload) => *payload
                    .downcast::<String>()
                    .expect("attributed panics are strings"),
            };
            (id, msg)
        });
        (
            good.join().expect("healthy world must complete"),
            bad.join().expect("failure must be caught, not crash"),
        )
    });
    assert_eq!(good, 1, "healthy world's result corrupted");
    let (id, msg) = bad;
    assert!(
        msg.contains(&format!("world {id}: a rank panicked (rank 2 of 3)")),
        "attribution missing from: {msg}"
    );
    assert!(msg.contains("injected failure"), "payload lost: {msg}");
}

#[test]
fn mixed_kernels_stay_bit_identical_under_concurrency() {
    // One workload of each kind run solo…
    let workloads: Vec<Workload> = WorkloadKind::ALL
        .iter()
        .enumerate()
        .map(|(i, &k)| Workload::new(k, 2 + i % 2, 77 + i as u64))
        .collect();
    let solo: Vec<f64> = workloads.iter().map(|w| w.execute().objective).collect();

    // …then all kinds three times each, concurrently.
    let concurrent: Vec<(usize, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..9)
            .map(|j| {
                let w = workloads[j % 3];
                scope.spawn(move || (j % 3, w.execute().objective))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workload panicked"))
            .collect()
    });
    for (idx, objective) in concurrent {
        assert_eq!(
            solo[idx].to_bits(),
            objective.to_bits(),
            "{:?} drifted under concurrency",
            workloads[idx].kind
        );
    }
}
