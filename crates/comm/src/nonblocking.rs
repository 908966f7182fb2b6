//! Nonblocking point-to-point handles and a progress-driven ring allreduce.
//!
//! MPI hides communication behind computation with `MPI_Isend`/`MPI_Irecv`
//! plus `MPI_Test`/`MPI_Wait`; NCCL does it with streams. This module is the
//! threads-as-ranks analogue: [`Rank::isend`]/[`Rank::irecv`] return handles,
//! and [`RingAllreduceHandle`] advances a full bucketed ring allreduce one
//! message at a time from explicit [`progress`](RingAllreduceHandle::progress)
//! calls, so a trainer can interleave collective steps with backpropagation
//! (the PyTorch-DDP / Horovod bucket-overlap discipline).
//!
//! # Why a polled state machine, not a background thread
//!
//! A [`Rank`] is deliberately `!Sync` — its pending queues and buffer pool
//! are single-threaded by design, mirroring how an MPI rank owns its own
//! endpoint. A background progress thread would need to share the endpoint
//! and reintroduce the locks the hot path just shed. Instead every handle is
//! a state machine over the same pooled primitives the blocking collectives
//! use: `progress()` makes all the steps whose messages have already
//! arrived, `wait()` blocks for the rest. Steady state stays
//! allocation-free: each handle performs exactly one pooled acquire (its
//! priming send) and one pooled release (its final hop), the same traffic
//! as the serial [`ring_allreduce_bucketed`] path.
//!
//! # Bit-identical overlap via global-partition windows
//!
//! The overlap scheme runs one independent collective per fusion bucket so
//! buckets can start as soon as backpropagation has produced their
//! gradients. Naive per-bucket ring allreduces would change the answer: the
//! per-element reduction order of a ring depends on which *global* chunk the
//! element falls in, so re-partitioning each bucket into its own p chunks
//! reorders the floating-point sums. [`ring_allreduce_start`]
//! instead intersects the **whole-buffer** chunk partition with the bucket's
//! window: every element keeps exactly the chunk index — and therefore
//! exactly the fold order and operand order — it has under the serial
//! [`ring_allreduce_bucketed`], so the overlapped result is bit-identical by
//! construction while buckets still progress and complete independently.
//!
//!
//! # Split halves for a sharded optimizer step
//!
//! The same handle runs either half of the ring alone ([`RingPhase`]): a
//! reduce-scatter that leaves each rank owning one fully reduced chunk, and
//! an allgather that starts from those owners. A trainer that updates only
//! the chunk it owns reduce-scatters the gradient, steps, and allgathers
//! the *parameters* in the same windows; the two halves send exactly the
//! messages and bytes of one fused allreduce.
//!
//! [`ring_allreduce_bucketed`]: crate::collectives::ring_allreduce_bucketed

use std::convert::Infallible;
use std::time::Instant;

use crate::collectives::ReduceOp;
use crate::engine::{self, RemapSchedule, RingPhase, RingSchedule, Schedule};
use crate::faults::CommError;
use crate::world::{Rank, WorldView};

impl Rank {
    /// Nonblocking send: enqueue a copy of `src` for rank `to` and return a
    /// completion handle. The payload is drawn from this rank's
    /// [`BufferPool`](crate::world::BufferPool); because the transport is an
    /// unbounded channel the send buffers eagerly and the handle is already
    /// complete — it exists so call sites keep MPI's request discipline.
    ///
    /// # Panics
    /// Panics if `to` is out of range or equals this rank.
    #[must_use = "isend returns a completion handle; call wait() or drop it knowingly"]
    pub fn isend(&self, to: usize, tag: u64, src: &[f32]) -> SendHandle {
        self.send_from(to, tag, src);
        SendHandle { _priv: () }
    }

    /// Nonblocking receive: return a handle that will match the next message
    /// from rank `from` carrying `tag`. Nothing is consumed until
    /// [`RecvHandle::test`] or [`RecvHandle::wait`] runs.
    ///
    /// # Panics
    /// `test`/`wait` panic if `from` is out of range, equals this rank, or
    /// the sender disconnected.
    pub fn irecv(&self, from: usize, tag: u64) -> RecvHandle<'_> {
        RecvHandle {
            rank: self,
            from,
            tag,
            payload: None,
        }
    }
}

/// Completion handle for [`Rank::isend`].
///
/// Sends over the unbounded channel transport complete at post time, so
/// `test` is always true and `wait` returns immediately; the type keeps the
/// isend/wait pairing explicit at call sites.
#[derive(Debug)]
pub struct SendHandle {
    _priv: (),
}

impl SendHandle {
    /// Whether the send has completed (always true on this transport).
    pub fn test(&self) -> bool {
        true
    }

    /// Block until the send has completed (returns immediately).
    pub fn wait(self) {}
}

/// In-flight receive started by [`Rank::irecv`].
pub struct RecvHandle<'a> {
    rank: &'a Rank,
    from: usize,
    tag: u64,
    payload: Option<Vec<f32>>,
}

impl RecvHandle<'_> {
    /// Poll for the matching message; returns whether it has arrived. Once
    /// true, `wait`/`wait_into` will not block.
    pub fn test(&mut self) -> bool {
        if self.payload.is_none() {
            self.payload = self.rank.try_recv(self.from, self.tag);
        }
        self.payload.is_some()
    }

    /// Block until the message arrives and take its payload. The caller
    /// owns the buffer; recycling it is the caller's choice.
    pub fn wait(mut self) -> Vec<f32> {
        match self.payload.take() {
            Some(p) => p,
            None => self.rank.recv(self.from, self.tag),
        }
    }

    /// Block until the message arrives, copy it into `dst`, and recycle the
    /// transport buffer into the rank's pool (the zero-allocation receive).
    ///
    /// # Panics
    /// Panics if the payload length differs from `dst.len()`.
    pub fn wait_into(mut self, dst: &mut [f32]) {
        let payload = match self.payload.take() {
            Some(p) => p,
            None => self.rank.recv(self.from, self.tag),
        };
        assert_eq!(
            payload.len(),
            dst.len(),
            "wait_into: payload length mismatch"
        );
        dst.copy_from_slice(&payload);
        self.rank.release_payload(payload);
    }
}

impl Drop for RecvHandle<'_> {
    fn drop(&mut self) {
        // A handle abandoned after `test` fetched its message still owns a
        // pooled payload; recycle it so `PoolStats::outstanding` stays
        // balanced across teardown.
        if let Some(p) = self.payload.take() {
            self.rank.release_payload(p);
        }
    }
}

/// An in-flight ring allreduce advanced by [`progress`] / [`wait`].
///
/// Started by [`ring_allreduce_start`] over one window of a gradient (or
/// all of it). Every rank must start the same set of collectives with the
/// same `collective` ids; ids only need to be unique among handles that are
/// simultaneously in flight between the same ranks — per-(source, tag) FIFO
/// order makes reusing ids across iterations safe, exactly as the blocking
/// collectives reuse theirs.
///
/// Dropping an incomplete handle leaves the collective half-finished and the
/// peer ranks blocked; `Drop` deliberately does not wait (it could deadlock
/// during a panic unwind). Always drive handles to completion.
///
/// [`progress`]: RingAllreduceHandle::progress
/// [`wait`]: RingAllreduceHandle::wait
pub struct RingAllreduceHandle<'a> {
    rank: &'a Rank,
    buf: &'a mut [f32],
    op: ReduceOp,
    /// The engine schedule — the *same* [`RingSchedule`] state machine the
    /// blocking and modeled surfaces run, under nonblocking tags — with its
    /// dense ids mapped to the physical members of the [`WorldView`] the
    /// handle runs over (the identity on the classic full-world path).
    sched: RemapSchedule<'a, RingSchedule>,
}

/// Begin a nonblocking ring allreduce over one window of a larger buffer —
/// the per-fusion-bucket collective of the overlap scheme.
///
/// `buf` is the window `[window_start, window_start + buf.len())` of a
/// conceptual `total_len`-element gradient (pass `buf.len()` and `0` for
/// the whole buffer). The collective reduces only this window, but chunks
/// it by intersecting the **global** `total_len` chunk partition with the
/// window, so when every window of the gradient has been reduced (by
/// independent handles, in any interleaving) the combined result is
/// bit-identical to one serial
/// [`ring_allreduce_bucketed`](crate::collectives::ring_allreduce_bucketed)
/// over the whole gradient.
///
/// `phase` picks what the handle runs: the whole allreduce, or one half of
/// it ([`RingPhase`]). A [`RingPhase::ReduceScatter`] handle and then a
/// [`RingPhase::Allgather`] handle over the same window (same id, total
/// length and offset) leave the bits of one [`RingPhase::Allreduce`], with
/// the same messages and bytes on the wire — and between the two, each
/// rank may rewrite the chunk it owns.
///
/// With `view: None` the ring spans the whole world on the classic tags.
/// Over an elastic [`WorldView`] the schedule is derived at
/// `(view.size(), dense id)` and its endpoints are remapped to physical
/// ranks on the wire, with the view's epoch folded into the collective's
/// tag namespace; at full membership and epoch 0 that is wire-identical to
/// `None`.
///
/// Returns immediately; drive the handle with
/// [`RingAllreduceHandle::progress`] and finish with
/// [`RingAllreduceHandle::wait`].
///
/// # Panics
/// Panics if the window overruns `total_len`, if this rank is not a member
/// of `view`, or if `collective >= 2^20` under a view (the epoch namespace
/// occupies the bits above; `2^50` without one).
#[allow(clippy::too_many_arguments)] // one entry point for every window and phase
pub fn ring_allreduce_start<'a>(
    rank: &'a Rank,
    view: Option<&'a WorldView>,
    buf: &'a mut [f32],
    op: ReduceOp,
    collective: u64,
    total_len: usize,
    window_start: usize,
    phase: RingPhase,
) -> RingAllreduceHandle<'a> {
    let (p, me, members, collective) = match view {
        None => {
            assert!(collective < 1 << 50, "collective id out of tag range");
            (rank.size(), rank.id(), None, collective)
        }
        Some(view) => {
            let me = view.my_index().expect("only members join collectives");
            assert!(collective < 1 << 20, "collective id out of epoch-tag range");
            let members = Some(view.members());
            (view.size(), me, members, view.nb_ns() | collective)
        }
    };
    assert!(
        window_start + buf.len() <= total_len,
        "window [{}, {}) overruns total length {}",
        window_start,
        window_start + buf.len(),
        total_len
    );
    let ring = RingSchedule::windowed(p, me, total_len, window_start, buf.len(), collective, phase);
    let mut handle = RingAllreduceHandle {
        rank,
        buf,
        op,
        sched: RemapSchedule::new(ring, members),
    };
    // Prime the ring: step with a receive that never has anything, which
    // executes exactly the schedule's leading sends (this rank's own chunk
    // window; empty windows produce no send ops, on every rank
    // consistently) so peers can progress before our first `progress`.
    while let Ok(true) = handle.step(|_, _| Ok::<_, Infallible>(None)) {}
    handle
}

impl RingAllreduceHandle<'_> {
    /// One engine step with `recv` as the receive primitive. The schedule,
    /// fold order, and operand order are the engine's — identical to the
    /// blocking path — so a fault-free run stays bit-identical to it.
    fn step<E>(
        &mut self,
        recv: impl FnOnce(usize, u64) -> Result<Option<Vec<f32>>, E>,
    ) -> Result<bool, E> {
        engine::step(self.rank, self.buf, self.op, &mut self.sched, recv)
    }

    /// Block (until `deadline`, when set) for every remaining step, on
    /// checked receives.
    fn wait_until(&mut self, deadline: Option<Instant>) -> Result<(), CommError> {
        let rank = self.rank;
        while self.step(|from, tag| rank.recv_checked(from, tag, deadline).map(Some))? {}
        debug_assert!(self.is_complete());
        Ok(())
    }

    /// Abort the collective: the schedule jumps to its terminal state and
    /// never emits another op, so later `progress`/`wait` calls are no-ops
    /// and — critically — cannot inject sends into a fabric that elastic
    /// recovery has already quiesced. Messages already in flight toward
    /// this rank stay in its queues until `drain_all` recycles them.
    pub fn cancel(&mut self) {
        self.sched.inner.cancel();
    }

    /// Drive every step whose message has already arrived, without
    /// blocking. Returns [`is_complete`](Self::is_complete).
    pub fn progress(&mut self) -> bool {
        self.progress_checked()
            .expect("communication failure in infallible nonblocking path")
    }

    /// Fallible [`progress`](Self::progress) for chaos runs: checksum
    /// failures and scheduled rank kills surface as [`CommError`] instead
    /// of panicking. Returns [`is_complete`](Self::is_complete) on success.
    ///
    /// # Errors
    /// [`CommError::Corrupt`] or [`CommError::RankKilled`].
    pub fn progress_checked(&mut self) -> Result<bool, CommError> {
        let rank = self.rank;
        while self.step(|from, tag| rank.try_recv_checked(from, tag))? {}
        Ok(self.is_complete())
    }

    /// Block until the collective completes. `buf` then holds what its
    /// [`RingPhase`] leaves: for a whole allreduce, the reduction of every
    /// rank's window contents.
    pub fn wait(&mut self) {
        self.wait_until(None)
            .expect("communication failure in infallible nonblocking path");
    }

    /// Fallible, bounded [`wait`](Self::wait): block until the collective
    /// completes or `deadline` passes. On error the collective is left
    /// half-finished; recovery must drain the fabric and roll back.
    ///
    /// # Errors
    /// Any [`CommError`], notably [`CommError::Timeout`] once the deadline
    /// passes.
    pub fn wait_deadline(&mut self, deadline: Instant) -> Result<(), CommError> {
        self.wait_until(Some(deadline))
    }

    /// Whether the collective has completed.
    pub fn is_complete(&self) -> bool {
        self.sched.current().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{ring_allreduce_bucketed, run};
    use crate::engine::Collective;
    use crate::world::World;
    use std::time::Duration;

    /// Start a handle over all of `buf` on the whole world.
    fn start_whole<'a>(
        r: &'a Rank,
        buf: &'a mut [f32],
        op: ReduceOp,
        collective: u64,
    ) -> RingAllreduceHandle<'a> {
        let n = buf.len();
        ring_allreduce_start(r, None, buf, op, collective, n, 0, RingPhase::Allreduce)
    }

    /// Run `phase` over `buf` as one handle per `bucket`-element window:
    /// round-robin progress, then wait the stragglers in reverse order — an
    /// adversarial interleaving relative to launch order.
    fn run_windows(r: &Rank, buf: &mut [f32], bucket: usize, phase: RingPhase) {
        let n = buf.len();
        let mut handles: Vec<RingAllreduceHandle> = buf
            .chunks_mut(bucket)
            .enumerate()
            .map(|(b, w)| {
                ring_allreduce_start(r, None, w, ReduceOp::Sum, b as u64, n, b * bucket, phase)
            })
            .collect();
        for _ in 0..3 {
            for h in handles.iter_mut() {
                h.progress();
            }
        }
        for h in handles.iter_mut().rev() {
            h.wait();
        }
    }

    fn inputs(p: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| (0..n).map(|_| rng.gen_range(-1e3f32..1e3)).collect())
            .collect()
    }

    #[test]
    fn isend_irecv_roundtrip() {
        let out = World::new(2).execute(|r| {
            if r.id() == 0 {
                let s = r.isend(1, 5, &[1.0, 2.0, 3.0]);
                assert!(s.test());
                s.wait();
                r.irecv(1, 6).wait()
            } else {
                let mut h = r.irecv(0, 5);
                // Drain until it lands; unbounded channels make this finite.
                while !h.test() {
                    std::hint::spin_loop();
                }
                let got = h.wait();
                r.isend(0, 6, &got).wait();
                vec![]
            }
        });
        assert_eq!(out[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn irecv_wait_into_recycles_buffer() {
        let out = World::new(2).execute(|r| {
            if r.id() == 0 {
                r.isend(1, 0, &[4.0; 8]).wait();
                let _ = r.recv(1, 1);
                0
            } else {
                let mut dst = [0.0f32; 8];
                r.irecv(0, 0).wait_into(&mut dst);
                assert_eq!(dst, [4.0; 8]);
                // The transport buffer must now sit in the pool: the next
                // pooled send reuses it.
                let before = r.pool_stats();
                r.isend(0, 1, &[0.0; 8]).wait();
                (r.pool_stats().hits - before.hits) as i32
            }
        });
        assert_eq!(out[1], 1, "recycled payload not reused");
    }

    #[test]
    fn nonblocking_allreduce_matches_blocking_bitwise() {
        for p in [1usize, 2, 3, 4, 7] {
            for n in [1usize, 5, 16, 33] {
                let ins = inputs(p, n, (p * 100 + n) as u64);
                let blocking = World::new(p).execute(|r| {
                    let mut buf = ins[r.id()].clone();
                    run(r, Collective::RING, &mut buf, ReduceOp::Sum);
                    buf
                });
                let nonblocking = World::new(p).execute(|r| {
                    let mut buf = ins[r.id()].clone();
                    let mut h = start_whole(r, &mut buf, ReduceOp::Sum, 0);
                    h.wait();
                    buf
                });
                for (r, (b, nb)) in blocking.iter().zip(&nonblocking).enumerate() {
                    for (i, (x, y)) in b.iter().zip(nb).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "p={p} n={n} rank {r} element {i}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn progress_alone_eventually_completes() {
        // Pure polling (no blocking wait) must finish: every message a rank
        // needs is eventually produced by its neighbours' own progress
        // calls, with no circular wait.
        let p = 4;
        let n = 64;
        let ins = inputs(p, n, 9);
        let out = World::new(p).execute(|r| {
            let mut buf = ins[r.id()].clone();
            let mut h = start_whole(r, &mut buf, ReduceOp::Sum, 3);
            while !h.progress() {
                std::hint::spin_loop();
            }
            buf
        });
        let want = World::new(p).execute(|r| {
            let mut buf = ins[r.id()].clone();
            run(r, Collective::RING, &mut buf, ReduceOp::Sum);
            buf
        });
        assert_eq!(out, want);
    }

    /// The overlap cornerstone: independent windowed handles — one per
    /// fusion bucket, progressed in an arbitrary interleaving — reproduce
    /// the serial bucketed allreduce bit for bit, because each window chunks
    /// against the global partition. So do the split halves: a
    /// reduce-scatter handle per window, then a gather-from-owner handle per
    /// window.
    #[test]
    fn windowed_handles_bit_identical_to_serial_bucketed() {
        for p in [2usize, 3, 4, 8] {
            for n in [7usize, 16, 37, 96] {
                for bucket in [3usize, 8, 32, 96, 128] {
                    let ins = inputs(p, n, (p * 1000 + n * 10 + bucket) as u64);
                    let serial = World::new(p).execute(|r| {
                        let mut buf = ins[r.id()].clone();
                        ring_allreduce_bucketed(r, &mut buf, ReduceOp::Sum, bucket);
                        buf
                    });
                    let overlapped = World::new(p).execute(|r| {
                        let mut buf = ins[r.id()].clone();
                        run_windows(r, &mut buf, bucket, RingPhase::Allreduce);
                        buf
                    });
                    let split = World::new(p).execute(|r| {
                        let mut buf = ins[r.id()].clone();
                        run_windows(r, &mut buf, bucket, RingPhase::ReduceScatter);
                        run_windows(r, &mut buf, bucket, RingPhase::Allgather);
                        buf
                    });
                    for (what, got) in [("overlapped", &overlapped), ("split", &split)] {
                        for (r, (s, o)) in serial.iter().zip(got).enumerate() {
                            for (i, (x, y)) in s.iter().zip(o).enumerate() {
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "{what} p={p} n={n} bucket={bucket} rank {r} \
                                     element {i}: {x} vs {y}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Windowed handles move exactly the bytes the serial bucketed path
    /// moves: the union of window messages per chunk is the chunk itself.
    /// The split halves send the fused handles' messages and bytes exactly,
    /// with fewer elements than ranks and with a ragged partition.
    #[test]
    fn windowed_traffic_matches_serial() {
        let bucket = 8usize;
        for p in [2usize, 3, 4, 8] {
            for n in [5usize, 37] {
                let mut world = World::new(p);
                world.execute(|r| {
                    let mut buf = vec![1.0f32; n];
                    ring_allreduce_bucketed(r, &mut buf, ReduceOp::Sum, bucket);
                });
                let serial = world.last_traffic();
                world.execute(|r| {
                    run_windows(r, &mut vec![1.0f32; n], bucket, RingPhase::Allreduce);
                });
                let windowed = world.last_traffic();
                world.execute(|r| {
                    let mut buf = vec![1.0f32; n];
                    run_windows(r, &mut buf, bucket, RingPhase::ReduceScatter);
                    run_windows(r, &mut buf, bucket, RingPhase::Allgather);
                });
                let split = world.last_traffic();
                assert_eq!(serial.bytes_sent, windowed.bytes_sent, "p={p} n={n}");
                assert_eq!(serial.bytes_sent, (4 * 2 * (p - 1) * n) as u64);
                assert_eq!(
                    (split.bytes_sent, split.messages_sent),
                    (windowed.bytes_sent, windowed.messages_sent),
                    "p={p} n={n}"
                );
            }
        }
    }

    /// Handles coexist with blocking collectives on the same ranks: the
    /// NB tag bit keeps the namespaces disjoint.
    #[test]
    fn handles_coexist_with_blocking_collectives() {
        let p = 4;
        let n = 24;
        let out = World::new(p).execute(|r| {
            let mut a = vec![r.id() as f32; n];
            let mut b = vec![1.0f32; n];
            let mut h = start_whole(r, &mut a, ReduceOp::Sum, 7);
            // A full blocking collective runs between start and wait.
            run(r, Collective::RING, &mut b, ReduceOp::Sum);
            h.wait();
            (a[0], b[0])
        });
        let sum: f32 = (0..p).map(|i| i as f32).sum();
        assert!(out.iter().all(|&(a, b)| a == sum && b == p as f32));
    }

    #[test]
    fn checked_wait_matches_infallible_bitwise() {
        let p = 4;
        let n = 37;
        let ins = inputs(p, n, 17);
        let plain = World::new(p).execute(|r| {
            let mut buf = ins[r.id()].clone();
            start_whole(r, &mut buf, ReduceOp::Sum, 0).wait();
            buf
        });
        let checked = World::new(p).execute(|r| {
            let mut buf = ins[r.id()].clone();
            start_whole(r, &mut buf, ReduceOp::Sum, 0)
                .wait_deadline(Instant::now() + Duration::from_secs(5))
                .expect("fault-free run must succeed");
            buf
        });
        for (a, b) in plain.iter().zip(&checked) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn checked_wait_times_out_on_dropped_message() {
        use crate::faults::{FaultPlan, TagClass};
        use std::sync::Arc;
        // Drop one reduce-scatter message of NB collective 0.
        let plan = Arc::new(FaultPlan::empty().drop_message(0, 1, TagClass::Nonblocking(0), 0));
        let out = World::new(3).execute_with_faults(plan, |r| {
            let mut buf = vec![r.id() as f32; 12];
            let deadline = Instant::now() + Duration::from_millis(200);
            let res = start_whole(r, &mut buf, ReduceOp::Sum, 0).wait_deadline(deadline);
            r.barrier();
            res.is_err()
        });
        assert!(
            out.iter().any(|&e| e),
            "a dropped handle message must surface as an error, not a hang"
        );
    }

    #[test]
    fn abandoned_recv_handle_releases_its_payload() {
        let out = World::new(2).execute(|r| {
            if r.id() == 0 {
                r.isend(1, 0, &[2.0; 16]).wait();
            } else {
                r.barrier();
                let mut h = r.irecv(0, 0);
                assert!(h.test(), "message already delivered");
                // Dropped here while holding the fetched payload.
            }
            if r.id() == 0 {
                r.barrier();
            }
            r.barrier();
            r.pool_stats().outstanding
        });
        // The buffer migrated pools (acquired on rank 0, released on rank
        // 1), so only the world-wide sum is balanced.
        assert_eq!(
            out.iter().sum::<i64>(),
            0,
            "dropped RecvHandle leaked a pooled buffer: {out:?}"
        );
    }

    proptest::proptest! {
        /// Property form of the cornerstone: arbitrary world size, length,
        /// bucket size, and data — overlapped windows == serial bucketed,
        /// bitwise.
        #[test]
        fn prop_windowed_bit_identical(
            p in 2usize..=6,
            n in 1usize..=48,
            bucket in 1usize..=64,
            seed in 0u64..500,
        ) {
            let ins = inputs(p, n, seed);
            let serial = World::new(p).execute(|r| {
                let mut buf = ins[r.id()].clone();
                ring_allreduce_bucketed(r, &mut buf, ReduceOp::Sum, bucket);
                buf
            });
            let overlapped = World::new(p).execute(|r| {
                let mut buf = ins[r.id()].clone();
                let mut handles: Vec<RingAllreduceHandle> = buf
                    .chunks_mut(bucket)
                    .enumerate()
                    .map(|(b, w)| ring_allreduce_start(
                        r, None, w, ReduceOp::Sum, b as u64, n, b * bucket, RingPhase::Allreduce,
                    ))
                    .collect();
                for h in handles.iter_mut() {
                    h.progress();
                }
                for h in handles.iter_mut() {
                    h.wait();
                }
                buf
            });
            for (r, (s, o)) in serial.iter().zip(&overlapped).enumerate() {
                for (i, (x, y)) in s.iter().zip(o).enumerate() {
                    proptest::prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "rank {} element {}: {} vs {}", r, i, x, y
                    );
                }
            }
        }
    }
}
