//! The unified collective engine: every collective algorithm written once
//! as a polled schedule, executed by one op interpreter.
//!
//! A collective is described by a [`Schedule`]: a state machine whose
//! [`current`](Schedule::current) method names the single next transport
//! operation ([`Op`]) — send a window, or receive a window and fold/copy it —
//! and whose [`advance`](Schedule::advance) method moves to the next one.
//! `current` is pure arithmetic over `chunk_bounds` windows; all mutation
//! lives in `advance`.
//!
//! [`schedule`] is the one mapping from a [`Collective`] value to its
//! schedule. The executed entries ([`crate::collectives::run`],
//! [`crate::extended::run_slots`] and their `try_` twins), the event-driven
//! simulator ([`crate::sim`]) and the oracle ([`simulate_reference`]) all
//! call it, so the executed transport's message/byte counters equal the
//! modeled ones **by construction** (same schedule, same ops).
//!
//! [`execute`] is the one place an [`Op`] touches a [`Rank`]. Three thin
//! loops wrap it, differing only in the receive primitive they pass:
//!
//! * [`drive_blocking`] — the infallible pooled `recv` (the allocation-free
//!   hot path; no checksum verify, no kill poll);
//! * [`drive_checked`] — deadline-bounded checked receives and a kill poll
//!   before every op, surfacing faults as [`CommError`] instead of hanging;
//! * [`step`] — at most one op, polled or blocking, which
//!   `RingAllreduceHandle` wraps into the `progress()`/`wait()` API.
//!
//! The schedules reproduce the historical per-algorithm implementations
//! message for message: identical tags, identical fold operand order
//! (`local ⊕ incoming`), identical empty-window semantics (the ring skips
//! empty chunks; the dissemination-style algorithms send empty messages
//! unconditionally), so results are bit-identical to the pre-engine code
//! and the fault plane's `TagClass` targeting keeps working unchanged.

use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::time::Instant;

use summit_machine::LinkModel;

use crate::collectives::{chunk_bounds, ReduceOp};
use crate::faults::CommError;
use crate::world::Rank;

/// Tag-space separator: nonblocking tags set the top bit, which no blocking
/// collective tag (`collective id << 32`, ids < 2^7) can reach, so handles
/// and blocking collectives coexist on one wire without collisions.
pub(crate) const NB_BIT: u64 = 1 << 63;

/// Tag for one segment of a bucketed chunk transfer: `(collective id,
/// step, segment)` packed so that the flat path (`segment == 0`) produces
/// the same tags as the historical unsegmented collectives. The 15-bit
/// step field covers ring steps on full-Summit worlds (p − 2 = 27,646 at
/// p = 27,648), and `RingSchedule::new` refuses a ring whose steps would
/// not fit; the collective id stays at bit 32, which
/// [`TagClass`](crate::faults::TagClass) decoding relies on.
pub(crate) fn tag_seg(collective: u64, step: usize, seg: usize) -> u64 {
    debug_assert!(step < 1 << 15, "step out of tag range");
    assert!(seg < 1 << 17, "segment index out of tag range");
    (collective << 32) | ((seg as u64) << 15) | step as u64
}

/// What a receive does with the payload relative to the schedule's buffer
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecvAct {
    /// `window ⊕= payload` (the final in-place fold).
    FoldIntoBuf,
    /// `payload = window ⊕ payload` — the circulating-partial fold of an
    /// intermediate ring hop; `buf` is untouched.
    FoldForward,
    /// `payload = window ⊕ payload`, then land it: `window = payload`.
    /// The final reduce hop that hands its finished chunk to the allgather.
    FoldLand,
    /// `window = payload` (allgather / broadcast data).
    Copy,
}

/// What happens to the payload buffer after the receive action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Disposal {
    /// Recycle it into this rank's pool.
    Release,
    /// Forward it as-is to `to` under `tag` (the ring's zero-copy relay).
    Forward { to: usize, tag: u64 },
}

/// One transport operation of a schedule.
///
/// `win` indexes the schedule's buffer; `slot` indexes its owned-vector
/// slot array (the personalized collectives — alltoall/scatter/gather —
/// move whole caller-owned vectors instead of windows of one buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// Send `buf[win.0..win.1]` to `to` (pooled copy via `send_from`).
    Send {
        to: usize,
        tag: u64,
        win: (usize, usize),
    },
    /// Receive from `from`, apply `act` against `buf[win.0..win.1]`, then
    /// dispose of the payload per `then`.
    Recv {
        from: usize,
        tag: u64,
        win: (usize, usize),
        act: RecvAct,
        then: Disposal,
    },
    /// Send the owned vector `slots[slot]` to `to` (moves it; no copy).
    SendSlot { to: usize, tag: u64, slot: usize },
    /// Receive from `from` into `slots[slot]` (takes payload ownership).
    RecvSlot { from: usize, tag: u64, slot: usize },
    /// Bruck round: send the concatenation of every `slots[i]` whose index
    /// has `bit` set, ascending, as one wire message.
    SendGather { to: usize, tag: u64, bit: u32 },
    /// Bruck round: split the payload from `from` evenly across the slots
    /// whose index has `bit` set, ascending.
    RecvScatter { from: usize, tag: u64, bit: u32 },
}

/// Number of slot indices in `0..p` with `bit` set — a Bruck round's block
/// count, closed-form so the simulators never scan `p` slots per message.
pub(crate) fn bruck_count(p: usize, bit: u32) -> usize {
    let half = 1usize << bit;
    (p >> (bit + 1)) * half + (p & (2 * half - 1)).saturating_sub(half)
}

/// Concatenate the slots a Bruck round sends (ascending index order).
fn bruck_gather(slots: &[Vec<f32>], bit: u32) -> Vec<f32> {
    let mut out = Vec::with_capacity(
        (0..slots.len())
            .filter(|i| i >> bit & 1 == 1)
            .map(|i| slots[i].len())
            .sum(),
    );
    for (i, slot) in slots.iter().enumerate() {
        if i >> bit & 1 == 1 {
            out.extend_from_slice(slot);
        }
    }
    out
}

/// Scatter a received Bruck payload back into the bit-selected slots.
fn bruck_scatter(slots: &mut [Vec<f32>], bit: u32, payload: &[f32]) {
    let count = bruck_count(slots.len(), bit);
    if count == 0 {
        assert!(payload.is_empty(), "Bruck payload for an empty round");
        return;
    }
    assert_eq!(
        payload.len() % count,
        0,
        "Bruck payload not block-divisible"
    );
    let each = payload.len() / count;
    let mut off = 0;
    for (i, slot) in slots.iter_mut().enumerate() {
        if i >> bit & 1 == 1 {
            slot.clear();
            slot.extend_from_slice(&payload[off..off + each]);
            off += each;
        }
    }
}

/// A collective as a polled sequence of transport operations.
///
/// `current` returns the next op without side effects (`None` when the
/// collective is complete); `advance` commits it. Drivers call them in
/// strict pairs, except the nonblocking driver, which may observe the same
/// `current` repeatedly while polling for its message.
pub(crate) trait Schedule {
    fn current(&self) -> Option<Op>;
    fn advance(&mut self);
}

/// Execute one transport op on `rank` — the only place an [`Op`] touches a
/// [`Rank`]. `recv` is the driver's receive primitive; when it reports
/// `None` (a poll that found nothing) nothing has been consumed, the result
/// is `Ok(false)`, and the caller must not advance the schedule.
///
/// # Errors
/// Whatever `recv` returns.
fn execute<E>(
    rank: &Rank,
    buf: &mut [f32],
    slots: &mut [Vec<f32>],
    op: ReduceOp,
    step: Op,
    recv: impl FnOnce(usize, u64) -> Result<Option<Vec<f32>>, E>,
) -> Result<bool, E> {
    match step {
        Op::Send { to, tag, win } => rank.send_from(to, tag, &buf[win.0..win.1]),
        Op::Recv {
            from,
            tag,
            win,
            act,
            then,
        } => {
            let Some(mut payload) = recv(from, tag)? else {
                return Ok(false);
            };
            let window = &mut buf[win.0..win.1];
            match act {
                RecvAct::FoldIntoBuf => op.fold(window, &payload),
                RecvAct::FoldForward => op.fold_into_payload(&mut payload, window),
                RecvAct::FoldLand => {
                    op.fold_into_payload(&mut payload, window);
                    window.copy_from_slice(&payload);
                }
                RecvAct::Copy => {
                    assert_eq!(payload.len(), window.len(), "payload length mismatch");
                    window.copy_from_slice(&payload);
                }
            }
            match then {
                Disposal::Release => rank.release_payload(payload),
                Disposal::Forward { to, tag } => rank.send(to, tag, payload),
            }
        }
        Op::SendSlot { to, tag, slot } => rank.send(to, tag, std::mem::take(&mut slots[slot])),
        Op::RecvSlot { from, tag, slot } => {
            let Some(payload) = recv(from, tag)? else {
                return Ok(false);
            };
            slots[slot] = payload;
        }
        Op::SendGather { to, tag, bit } => rank.send(to, tag, bruck_gather(slots, bit)),
        Op::RecvScatter { from, tag, bit } => {
            let Some(payload) = recv(from, tag)? else {
                return Ok(false);
            };
            bruck_scatter(slots, bit, &payload);
            rank.release_payload(payload);
        }
    }
    Ok(true)
}

/// Drive a schedule to completion on the infallible pooled `recv` — the
/// blocking surface. Receives carry no checksum verification or kill
/// polls, so the allocation-free hot path pays nothing for the fault plane
/// (and a scheduled kill stays unclaimed for the next fallible call).
pub(crate) fn drive_blocking<S: Schedule>(
    rank: &Rank,
    buf: &mut [f32],
    slots: &mut [Vec<f32>],
    op: ReduceOp,
    sched: &mut S,
) {
    while let Some(step) = sched.current() {
        let recv = |from, tag| Ok::<_, Infallible>(Some(rank.recv(from, tag)));
        let Ok(_) = execute(rank, buf, slots, op, step, recv);
        sched.advance();
    }
}

/// Drive a schedule to completion with checked receives bounded by one
/// shared `deadline` and a kill poll before every op — the fallible
/// surface. The op sequence, fold order, and operand order are those of
/// [`drive_blocking`], so a fault-free run is bit-identical to it.
///
/// # Errors
/// Any [`CommError`] from the checked receives or the kill poll.
pub(crate) fn drive_checked<S: Schedule>(
    rank: &Rank,
    buf: &mut [f32],
    slots: &mut [Vec<f32>],
    op: ReduceOp,
    sched: &mut S,
    deadline: Option<Instant>,
) -> Result<(), CommError> {
    while let Some(step) = sched.current() {
        rank.poll_fault_kill()?;
        let recv = |from, tag| rank.recv_checked(from, tag, deadline).map(Some);
        execute(rank, buf, slots, op, step, recv)?;
        sched.advance();
    }
    Ok(())
}

/// Execute at most one op of a window schedule — the nonblocking surface's
/// stepper. Returns whether the schedule advanced: `Ok(false)` means it is
/// complete, or `recv` polled and the awaited message has not arrived.
///
/// # Errors
/// Whatever `recv` returns.
pub(crate) fn step<S: Schedule, E>(
    rank: &Rank,
    buf: &mut [f32],
    op: ReduceOp,
    sched: &mut S,
    recv: impl FnOnce(usize, u64) -> Result<Option<Vec<f32>>, E>,
) -> Result<bool, E> {
    let Some(next) = sched.current() else {
        return Ok(false);
    };
    let advanced = execute(rank, buf, &mut [], op, next, recv)?;
    if advanced {
        sched.advance();
    }
    Ok(advanced)
}

/// A schedule adapter that rewrites *dense* member indices into *physical*
/// rank ids through a membership table — the elastic surface. With no
/// table (`None`, the classic full world) it is the identity.
///
/// Every schedule in this module is a pure function of `(p, me)` over dense
/// ids `0..p`. An elastic view re-derives the same schedule at the
/// surviving size and threads it through this adapter, which maps each
/// op's endpoints (`to`, `from`, and the zero-copy `Forward` relay) through
/// `members[dense]` on the way out. Ops are rewritten, never reordered, so
/// the fold order — and with it bit-identity — is untouched.
pub(crate) struct RemapSchedule<'a, S> {
    pub(crate) inner: S,
    members: Option<&'a [usize]>,
}

impl<'a, S> RemapSchedule<'a, S> {
    pub(crate) fn new(inner: S, members: Option<&'a [usize]>) -> Self {
        Self { inner, members }
    }
}

impl<S: Schedule> Schedule for RemapSchedule<'_, S> {
    fn current(&self) -> Option<Op> {
        let Some(m) = self.members else {
            return self.inner.current();
        };
        self.inner.current().map(|op| match op {
            Op::Send { to, tag, win } => Op::Send {
                to: m[to],
                tag,
                win,
            },
            Op::Recv {
                from,
                tag,
                win,
                act,
                then,
            } => Op::Recv {
                from: m[from],
                tag,
                win,
                act,
                then: match then {
                    Disposal::Release => Disposal::Release,
                    Disposal::Forward { to, tag } => Disposal::Forward { to: m[to], tag },
                },
            },
            Op::SendSlot { to, tag, slot } => Op::SendSlot {
                to: m[to],
                tag,
                slot,
            },
            Op::RecvSlot { from, tag, slot } => Op::RecvSlot {
                from: m[from],
                tag,
                slot,
            },
            Op::SendGather { to, tag, bit } => Op::SendGather {
                to: m[to],
                tag,
                bit,
            },
            Op::RecvScatter { from, tag, bit } => Op::RecvScatter {
                from: m[from],
                tag,
                bit,
            },
        })
    }

    fn advance(&mut self) {
        self.inner.advance();
    }
}

/// Which ring phase a tag belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Reduce,
    Gather,
}

/// How a ring schedule maps `(phase, step, segment)` to wire tags: the
/// blocking namespace (`collective id << 32`) or the nonblocking one
/// (`NB_BIT | id << 13 | phase << 12 | step`). Both layouts are exactly the
/// historical ones, so `TagClass` fault targeting decodes them unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TagScheme {
    Blocking { reduce_id: u64, gather_id: u64 },
    Nonblocking { collective: u64 },
}

impl TagScheme {
    fn tag(self, phase: Phase, step: usize, seg: usize) -> u64 {
        match self {
            TagScheme::Blocking {
                reduce_id,
                gather_id,
            } => {
                let id = match phase {
                    Phase::Reduce => reduce_id,
                    Phase::Gather => gather_id,
                };
                tag_seg(id, step, seg)
            }
            TagScheme::Nonblocking { collective } => {
                debug_assert_eq!(seg, 0, "nonblocking tags carry no segment");
                let ph = match phase {
                    Phase::Reduce => 0u64,
                    Phase::Gather => 1u64,
                };
                NB_BIT | (collective << 13) | (ph << 12) | step as u64
            }
        }
    }
}

/// Stage cursor of a [`RingSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RingStage {
    /// Sending segment `seg` of this rank's own chunk (step 0).
    Prime {
        seg: usize,
    },
    /// Reduce-scatter step `step`, segment `seg`.
    Reduce {
        step: usize,
        seg: usize,
    },
    /// Allgather step `step`, segment `seg`.
    Gather {
        step: usize,
        seg: usize,
    },
    Done,
}

/// The half (or both) of a ring allreduce that a windowed collective runs
/// ([`ring_allreduce_start`](crate::nonblocking::ring_allreduce_start)).
/// The ring is reduce-scatter then allgather, and between the two every
/// rank owns exactly one fully reduced chunk of the global partition — the
/// point where a sharded optimizer step splits it, updating that chunk
/// before the gather. The two halves together send exactly the messages
/// and bytes of [`RingPhase::Allreduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingPhase {
    /// Reduce-scatter then allgather, with the zero-copy hand-off between.
    Allreduce,
    /// Reduce-scatter only: rank `i` ends holding the reduced chunk
    /// `(i + 1) mod p` of the global partition (intersected with its
    /// window); the rest of the window holds partial sums.
    ReduceScatter,
    /// Allgather from owner: rank `i` sends its chunk `(i + 1) mod p` —
    /// the one [`RingPhase::ReduceScatter`] left it — and receives every
    /// other chunk of the window.
    Allgather,
}

/// The ring family as one schedule: allreduce (reduce-scatter + allgather
/// with the zero-copy handoff between them), standalone reduce-scatter,
/// standalone allgather, bucketed segmentation, and the windowed variants
/// the nonblocking overlap path uses (chunks computed against the *global*
/// `total_len` partition and intersected with this buffer's window, so
/// per-bucket collectives keep the serial fold order bit for bit), one per
/// [`RingPhase`].
///
/// Empty windows/segments produce no ops — consistently on every rank —
/// matching both the historical blocking ring (`chunks()` over an empty
/// slice) and the nonblocking handle's pure state transitions.
pub(crate) struct RingSchedule {
    p: usize,
    me: usize,
    total_len: usize,
    win_start: usize,
    win_len: usize,
    bucket: usize,
    tags: TagScheme,
    do_reduce: bool,
    do_gather: bool,
    /// The allgather starts from each rank's chunk `(me + 1) mod p` — the
    /// one a reduce-scatter left it — rather than its own index `me` (the
    /// standalone allgather).
    shifted: bool,
    stage: RingStage,
    /// `total_len / p` — the base chunk size, precomputed so the per-op
    /// chunk arithmetic is division-free (the event-driven simulator runs
    /// these cursors ~10⁸ times per full-machine collective).
    base: usize,
    /// `total_len % p` — the first `rem` chunks carry one extra element.
    rem: usize,
}

impl RingSchedule {
    #[allow(clippy::too_many_arguments)] // internal constructor behind the named entry points
    fn new(
        p: usize,
        me: usize,
        total_len: usize,
        win_start: usize,
        win_len: usize,
        bucket: usize,
        tags: TagScheme,
        phase: RingPhase,
        shifted: bool,
    ) -> Self {
        assert!(bucket > 0, "bucket must hold at least one element");
        debug_assert!(win_start + win_len <= total_len);
        // Steps run 0..=p − 2 and must fit the tag's step field; checked
        // once here so the per-op tag packing stays unchecked in release.
        let step_bits = match tags {
            TagScheme::Blocking { .. } => 15,
            TagScheme::Nonblocking { .. } => 12,
        };
        assert!(
            p <= (1 << step_bits) + 1,
            "a {p}-rank ring overflows the {step_bits}-bit tag step field"
        );
        let mut s = RingSchedule {
            p,
            me,
            total_len,
            win_start,
            win_len,
            bucket,
            tags,
            do_reduce: phase != RingPhase::Allgather,
            do_gather: phase != RingPhase::ReduceScatter,
            shifted,
            stage: if p == 1 {
                RingStage::Done
            } else {
                RingStage::Prime { seg: 0 }
            },
            base: total_len / p,
            rem: total_len % p,
        };
        s.normalize();
        s
    }

    /// Blocking allreduce over all of an `n`-element buffer, segmented into
    /// messages of at most `bucket` elements (ids 0/1 — the historical
    /// `ring_allreduce_bucketed` wire schedule).
    pub(crate) fn allreduce(p: usize, me: usize, n: usize, bucket: usize) -> Self {
        Self::new(
            p,
            me,
            n,
            0,
            n,
            bucket,
            TagScheme::Blocking {
                reduce_id: 0,
                gather_id: 1,
            },
            RingPhase::Allreduce,
            true,
        )
    }

    /// Nonblocking `phase` of an allreduce over the window
    /// `[win_start, win_start + win_len)` of a `total_len`-element buffer
    /// (the overlap path's per-bucket collective).
    pub(crate) fn windowed(
        p: usize,
        me: usize,
        total_len: usize,
        win_start: usize,
        win_len: usize,
        collective: u64,
        phase: RingPhase,
    ) -> Self {
        Self::new(
            p,
            me,
            total_len,
            win_start,
            win_len,
            usize::MAX,
            TagScheme::Nonblocking { collective },
            phase,
            true,
        )
    }

    /// Blocking allreduce in an explicit tag namespace `ns` (an elastic
    /// view's epoch namespace): collective ids `ns` / `ns | 1`. Namespace 0
    /// is exactly [`RingSchedule::allreduce`], so a full-membership view at
    /// epoch 0 is wire-identical to the classic path.
    pub(crate) fn allreduce_ns(p: usize, me: usize, n: usize, bucket: usize, ns: u64) -> Self {
        Self::new(
            p,
            me,
            n,
            0,
            n,
            bucket,
            TagScheme::Blocking {
                reduce_id: ns,
                gather_id: ns | 1,
            },
            RingPhase::Allreduce,
            true,
        )
    }

    /// Abort the collective: jump the cursor straight to `Done` so no
    /// further ops are emitted. The elastic path cancels in-flight
    /// schedules before quiescing, so a stale handle poked after the drain
    /// cannot inject traffic from a dead membership epoch.
    pub(crate) fn cancel(&mut self) {
        self.stage = RingStage::Done;
    }

    /// Standalone reduce-scatter (id 2): after completion rank `i` holds
    /// the fully reduced chunk `(i + 1) mod p`.
    pub(crate) fn reduce_scatter(p: usize, me: usize, n: usize) -> Self {
        Self::new(
            p,
            me,
            n,
            0,
            n,
            n.max(1),
            TagScheme::Blocking {
                reduce_id: 2,
                gather_id: 2,
            },
            RingPhase::ReduceScatter,
            true,
        )
    }

    /// Standalone ring allgather (id 3): each rank contributes its own
    /// `chunk_bounds` chunk and receives everyone else's.
    pub(crate) fn allgather(p: usize, me: usize, n: usize) -> Self {
        Self::new(
            p,
            me,
            n,
            0,
            n,
            n.max(1),
            TagScheme::Blocking {
                reduce_id: 3,
                gather_id: 3,
            },
            RingPhase::Allgather,
            false,
        )
    }

    /// This schedule's window of global chunk `c`, in buffer-local
    /// coordinates (`(0, 0)` when the chunk misses the window).
    fn window(&self, c: usize) -> (usize, usize) {
        // Division-free `chunk_bounds(self.total_len, self.p, c)`: the
        // first `rem` chunks get `base + 1` elements, the rest `base`.
        let cs = c * self.base + c.min(self.rem);
        let ce = cs + self.base + usize::from(c < self.rem);
        debug_assert_eq!((cs, ce), chunk_bounds(self.total_len, self.p, c));
        let lo = cs.max(self.win_start);
        let hi = ce.min(self.win_start + self.win_len);
        if lo < hi {
            (lo - self.win_start, hi - self.win_start)
        } else {
            (0, 0)
        }
    }

    /// Number of bucket segments in chunk `c`'s window.
    fn segs(&self, c: usize) -> usize {
        let (ws, we) = self.window(c);
        (we - ws).div_ceil(self.bucket)
    }

    /// Bounds of segment `seg` within chunk `c`'s window.
    fn seg_win(&self, c: usize, seg: usize) -> (usize, usize) {
        let (ws, we) = self.window(c);
        let start = ws + seg.saturating_mul(self.bucket);
        (start, we.min(start.saturating_add(self.bucket)))
    }

    /// The global chunk a stage operates on. The gather offset is one
    /// wherever the gather starts from the chunks a reduce-scatter left
    /// (the fused allreduce's handoff, or the gather-from-owner prime),
    /// zero for the standalone allgather (whose step 0 consumes its own
    /// prime) — exactly the historical `offset` parameter.
    fn stage_chunk(&self, stage: RingStage) -> usize {
        let (p, me, shift) = (self.p, self.me, usize::from(self.shifted));
        // `x mod p` for `x < 2p`, division-free (step < p − 1 always).
        let wrap = |x: usize| if x >= p { x - p } else { x };
        match stage {
            RingStage::Prime { .. } if self.do_reduce => me,
            RingStage::Prime { .. } => wrap(me + shift),
            RingStage::Reduce { step, .. } => wrap(me + p - step - 1),
            RingStage::Gather { step, .. } => wrap(me + p - step - 1 + shift),
            RingStage::Done => unreachable!("Done has no chunk"),
        }
    }

    /// Whether the sparse fast-forward applies: a flat (full-window)
    /// schedule over fewer elements than ranks, so chunks `rem..p` are all
    /// empty and the stage cursor can jump over the empty run in O(1)
    /// instead of visiting every empty step.
    fn sparse(&self) -> bool {
        self.base == 0 && self.win_start == 0 && self.win_len == self.total_len
    }

    /// From an empty chunk `c` at `step`, the step at which the next
    /// non-empty chunk appears (capped at the stage's last step
    /// `p − 2`). The stage chunk decreases by one per step, and the
    /// non-empty chunks are exactly `0..rem`, so the cursor next meets a
    /// non-empty chunk at `rem − 1`.
    fn sparse_jump(&self, step: usize, c: usize) -> usize {
        debug_assert!(self.sparse() && c >= self.rem);
        if self.rem == 0 {
            self.p - 2 // zero-length buffer: every chunk is empty
        } else {
            (step + (c + 1 - self.rem)).min(self.p - 2)
        }
    }

    /// Skip exhausted segment cursors and empty windows until the stage
    /// cursor rests on a real op (or `Done`).
    fn normalize(&mut self) {
        loop {
            let seg = match self.stage {
                RingStage::Prime { seg }
                | RingStage::Reduce { seg, .. }
                | RingStage::Gather { seg, .. } => seg,
                RingStage::Done => return,
            };
            let chunk = self.stage_chunk(self.stage);
            if seg < self.segs(chunk) {
                return;
            }
            // An exhausted cursor on an *empty* chunk (seg == 0) under a
            // sparse flat schedule means every chunk until `rem − 1`
            // reappears is also empty — jump the whole run at once instead
            // of iterating p − rem empty steps (O(p²) across ranks, fatal
            // at p = 27,648).
            let skip = seg == 0 && self.sparse();
            self.stage = match self.stage {
                RingStage::Prime { .. } => {
                    if self.do_reduce {
                        RingStage::Reduce { step: 0, seg: 0 }
                    } else {
                        RingStage::Gather { step: 0, seg: 0 }
                    }
                }
                RingStage::Reduce { step, .. } => {
                    if step < self.p - 2 {
                        RingStage::Reduce {
                            step: if skip {
                                self.sparse_jump(step, chunk)
                            } else {
                                step + 1
                            },
                            seg: 0,
                        }
                    } else if self.do_gather {
                        RingStage::Gather { step: 0, seg: 0 }
                    } else {
                        RingStage::Done
                    }
                }
                RingStage::Gather { step, .. } => {
                    if step < self.p - 2 {
                        RingStage::Gather {
                            step: if skip {
                                self.sparse_jump(step, chunk)
                            } else {
                                step + 1
                            },
                            seg: 0,
                        }
                    } else {
                        RingStage::Done
                    }
                }
                RingStage::Done => return,
            };
        }
    }
}

impl Schedule for RingSchedule {
    fn current(&self) -> Option<Op> {
        let right = if self.me + 1 == self.p {
            0
        } else {
            self.me + 1
        };
        let left = if self.me == 0 {
            self.p - 1
        } else {
            self.me - 1
        };
        let last = |step: usize| step == self.p - 2;
        match self.stage {
            RingStage::Done => None,
            RingStage::Prime { seg } => {
                let phase = if self.do_reduce {
                    Phase::Reduce
                } else {
                    Phase::Gather
                };
                Some(Op::Send {
                    to: right,
                    tag: self.tags.tag(phase, 0, seg),
                    win: self.seg_win(self.stage_chunk(self.stage), seg),
                })
            }
            RingStage::Reduce { step, seg } => {
                let (act, then) = if !last(step) {
                    (
                        RecvAct::FoldForward,
                        Disposal::Forward {
                            to: right,
                            tag: self.tags.tag(Phase::Reduce, step + 1, seg),
                        },
                    )
                } else if self.do_gather {
                    // The handoff: finish the chunk in the payload, land it,
                    // and forward it as the allgather's priming message.
                    (
                        RecvAct::FoldLand,
                        Disposal::Forward {
                            to: right,
                            tag: self.tags.tag(Phase::Gather, 0, seg),
                        },
                    )
                } else {
                    (RecvAct::FoldIntoBuf, Disposal::Release)
                };
                Some(Op::Recv {
                    from: left,
                    tag: self.tags.tag(Phase::Reduce, step, seg),
                    win: self.seg_win(self.stage_chunk(self.stage), seg),
                    act,
                    then,
                })
            }
            RingStage::Gather { step, seg } => {
                let then = if last(step) {
                    Disposal::Release
                } else {
                    Disposal::Forward {
                        to: right,
                        tag: self.tags.tag(Phase::Gather, step + 1, seg),
                    }
                };
                Some(Op::Recv {
                    from: left,
                    tag: self.tags.tag(Phase::Gather, step, seg),
                    win: self.seg_win(self.stage_chunk(self.stage), seg),
                    act: RecvAct::Copy,
                    then,
                })
            }
        }
    }

    fn advance(&mut self) {
        self.stage = match self.stage {
            RingStage::Prime { seg } => RingStage::Prime { seg: seg + 1 },
            RingStage::Reduce { step, seg } => RingStage::Reduce { step, seg: seg + 1 },
            RingStage::Gather { step, seg } => RingStage::Gather { step, seg: seg + 1 },
            RingStage::Done => RingStage::Done,
        };
        self.normalize();
    }
}

/// The largest power of two not exceeding `p`.
pub(crate) fn pow2_core(p: usize) -> usize {
    assert!(p > 0, "world size must be positive");
    1 << (usize::BITS - 1 - p.leading_zeros())
}

/// Virtual step ids of the non-power-of-two fold phases. They live far
/// outside the `0..log2(core)` range the core exchange steps occupy (and
/// under `tag_seg`'s 2¹² step cap), so fold tags never collide with core
/// tags.
const FOLD_PRE_STEP: usize = 0xE00;
const FOLD_POST_STEP: usize = 0xE01;

/// Cursor of the MPICH-style non-power-of-two fold wrapped around a
/// power-of-two core exchange (recursive doubling and Rabenseifner).
///
/// With `core = 2^⌊log2 p⌋` and `rem = p − core`, the first `2·rem` ranks
/// pair up: each even rank sends its buffer to its odd neighbour
/// (`PreSend`/`PreRecv`) and then sits out the core, receiving the final
/// result afterwards (`PostRecv`/`PostSend`). The `core` surviving ranks —
/// the odd halves of the pairs plus every rank ≥ `2·rem` — run the
/// power-of-two exchange under *virtual* ranks. For power-of-two worlds
/// `rem == 0` and every rank starts (and ends) in `Core`, byte-identical to
/// the historical schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldState {
    PreSend,
    PreRecv,
    Core,
    PostSend,
    PostRecv,
    Done,
}

/// Initial fold state and virtual rank of `me` in a `p`-rank world with a
/// `core`-rank power-of-two kernel. Folded-out ranks get a dummy vrank.
fn fold_entry(p: usize, me: usize, core: usize) -> (FoldState, usize) {
    let rem = p - core;
    if me < 2 * rem {
        if me.is_multiple_of(2) {
            (FoldState::PreSend, usize::MAX)
        } else {
            (FoldState::PreRecv, me / 2)
        }
    } else {
        (FoldState::Core, me - rem)
    }
}

/// The real rank holding virtual rank `v` (inverse of [`fold_entry`]).
fn fold_real_rank(rem: usize, v: usize) -> usize {
    if v < rem {
        2 * v + 1
    } else {
        v + rem
    }
}

/// Recursive-doubling allreduce (id 4): `log2 core` full-buffer exchanges,
/// send-then-receive per step, wrapped in the [`FoldState`] pre/post fold
/// for non-power-of-two worlds. Sends even empty buffers unconditionally,
/// like the historical implementation.
pub(crate) struct RdSchedule {
    me: usize,
    n: usize,
    core: usize,
    rem: usize,
    vrank: usize,
    dist: usize,
    step: usize,
    recv_pending: bool,
    state: FoldState,
}

impl RdSchedule {
    pub(crate) fn new(p: usize, me: usize, n: usize) -> Self {
        let core = pow2_core(p);
        let (state, vrank) = fold_entry(p, me, core);
        RdSchedule {
            me,
            n,
            core,
            rem: p - core,
            vrank,
            dist: 1,
            step: 0,
            recv_pending: false,
            state,
        }
    }
}

impl Schedule for RdSchedule {
    fn current(&self) -> Option<Op> {
        let win = (0, self.n);
        match self.state {
            FoldState::Done => None,
            FoldState::PreSend => Some(Op::Send {
                to: self.me + 1,
                tag: tag_seg(4, FOLD_PRE_STEP, 0),
                win,
            }),
            FoldState::PreRecv => Some(Op::Recv {
                from: self.me - 1,
                tag: tag_seg(4, FOLD_PRE_STEP, 0),
                win,
                act: RecvAct::FoldIntoBuf,
                then: Disposal::Release,
            }),
            FoldState::PostSend => Some(Op::Send {
                to: self.me - 1,
                tag: tag_seg(4, FOLD_POST_STEP, 0),
                win,
            }),
            FoldState::PostRecv => Some(Op::Recv {
                from: self.me + 1,
                tag: tag_seg(4, FOLD_POST_STEP, 0),
                win,
                act: RecvAct::Copy,
                then: Disposal::Release,
            }),
            FoldState::Core => {
                if self.dist >= self.core {
                    return None; // p == 1 only; larger cores exit via advance
                }
                let peer = fold_real_rank(self.rem, self.vrank ^ self.dist);
                let t = tag_seg(4, self.step, 0);
                Some(if self.recv_pending {
                    Op::Recv {
                        from: peer,
                        tag: t,
                        win,
                        act: RecvAct::FoldIntoBuf,
                        then: Disposal::Release,
                    }
                } else {
                    Op::Send {
                        to: peer,
                        tag: t,
                        win,
                    }
                })
            }
        }
    }

    fn advance(&mut self) {
        match self.state {
            FoldState::PreSend => self.state = FoldState::PostRecv,
            FoldState::PreRecv => self.state = FoldState::Core,
            FoldState::PostSend | FoldState::PostRecv | FoldState::Done => {
                self.state = FoldState::Done;
            }
            FoldState::Core => {
                if self.recv_pending {
                    self.recv_pending = false;
                    self.dist <<= 1;
                    self.step += 1;
                    if self.dist >= self.core {
                        self.state = if self.me < 2 * self.rem {
                            FoldState::PostSend
                        } else {
                            FoldState::Done
                        };
                    }
                } else {
                    self.recv_pending = true;
                }
            }
        }
    }
}

/// Rabenseifner allreduce: recursive-halving reduce-scatter (id 5) then
/// recursive-doubling allgather (id 6) across the power-of-two core, with
/// the [`FoldState`] pre/post fold absorbing the `p − core` extra ranks of
/// non-power-of-two worlds. The step counter runs continuously across the
/// phase boundary — the doubling phase's first tag is `tag(6, log2 core)` —
/// exactly as the historical implementation numbered it.
pub(crate) struct RabenseifnerSchedule {
    me: usize,
    n: usize,
    core: usize,
    rem: usize,
    vrank: usize,
    lo: usize,
    hi: usize,
    dist: usize,
    step: usize,
    halving: bool,
    recv_pending: bool,
    state: FoldState,
}

impl RabenseifnerSchedule {
    pub(crate) fn new(p: usize, me: usize, n: usize) -> Self {
        let core = pow2_core(p);
        assert!(
            n.is_multiple_of(core),
            "buffer length must be divisible by the power-of-two core of the world size"
        );
        let (state, vrank) = fold_entry(p, me, core);
        RabenseifnerSchedule {
            me,
            n,
            core,
            rem: p - core,
            vrank,
            lo: 0,
            hi: n,
            // core == 1 starts (and therefore ends) in the doubling phase.
            dist: if core == 1 { 1 } else { core / 2 },
            step: 0,
            halving: core > 1,
            recv_pending: false,
            state,
        }
    }

    /// The halving step's window split: `(keep, send)` halves of `[lo, hi)`.
    fn halves(&self) -> ((usize, usize), (usize, usize)) {
        let mid = self.lo + (self.hi - self.lo) / 2;
        if self.vrank & self.dist == 0 {
            ((self.lo, mid), (mid, self.hi))
        } else {
            ((mid, self.hi), (self.lo, mid))
        }
    }

    /// The doubling step's peer window (the mirror of ours at this level).
    fn peer_window(&self) -> (usize, usize) {
        let window = self.hi - self.lo;
        if self.vrank & self.dist == 0 {
            (self.lo + window, self.hi + window)
        } else {
            (self.lo - window, self.hi - window)
        }
    }
}

impl Schedule for RabenseifnerSchedule {
    fn current(&self) -> Option<Op> {
        match self.state {
            FoldState::Done => return None,
            FoldState::PreSend => {
                return Some(Op::Send {
                    to: self.me + 1,
                    tag: tag_seg(5, FOLD_PRE_STEP, 0),
                    win: (0, self.n),
                });
            }
            FoldState::PreRecv => {
                return Some(Op::Recv {
                    from: self.me - 1,
                    tag: tag_seg(5, FOLD_PRE_STEP, 0),
                    win: (0, self.n),
                    act: RecvAct::FoldIntoBuf,
                    then: Disposal::Release,
                });
            }
            FoldState::PostSend => {
                return Some(Op::Send {
                    to: self.me - 1,
                    tag: tag_seg(6, FOLD_POST_STEP, 0),
                    win: (0, self.n),
                });
            }
            FoldState::PostRecv => {
                return Some(Op::Recv {
                    from: self.me + 1,
                    tag: tag_seg(6, FOLD_POST_STEP, 0),
                    win: (0, self.n),
                    act: RecvAct::Copy,
                    then: Disposal::Release,
                });
            }
            FoldState::Core => {}
        }
        if self.halving {
            let peer = fold_real_rank(self.rem, self.vrank ^ self.dist);
            let t = tag_seg(5, self.step, 0);
            let (keep, send) = self.halves();
            Some(if self.recv_pending {
                Op::Recv {
                    from: peer,
                    tag: t,
                    win: keep,
                    act: RecvAct::FoldIntoBuf,
                    then: Disposal::Release,
                }
            } else {
                Op::Send {
                    to: peer,
                    tag: t,
                    win: send,
                }
            })
        } else {
            if self.dist >= self.core {
                return None; // p == 1 only; larger cores exit via advance
            }
            let peer = fold_real_rank(self.rem, self.vrank ^ self.dist);
            let t = tag_seg(6, self.step, 0);
            Some(if self.recv_pending {
                Op::Recv {
                    from: peer,
                    tag: t,
                    win: self.peer_window(),
                    act: RecvAct::Copy,
                    then: Disposal::Release,
                }
            } else {
                Op::Send {
                    to: peer,
                    tag: t,
                    win: (self.lo, self.hi),
                }
            })
        }
    }

    fn advance(&mut self) {
        match self.state {
            FoldState::PreSend => {
                self.state = FoldState::PostRecv;
                return;
            }
            FoldState::PreRecv => {
                self.state = FoldState::Core;
                return;
            }
            FoldState::PostSend | FoldState::PostRecv | FoldState::Done => {
                self.state = FoldState::Done;
                return;
            }
            FoldState::Core => {}
        }
        if !self.recv_pending {
            self.recv_pending = true;
            return;
        }
        self.recv_pending = false;
        self.step += 1;
        if self.halving {
            let (keep, _) = self.halves();
            (self.lo, self.hi) = keep;
            self.dist /= 2;
            if self.dist == 0 {
                self.halving = false;
                self.dist = 1;
            }
        } else {
            let (plo, phi) = self.peer_window();
            self.lo = self.lo.min(plo);
            self.hi = self.hi.max(phi);
            self.dist <<= 1;
            if self.dist >= self.core {
                self.state = if self.me < 2 * self.rem {
                    FoldState::PostSend
                } else {
                    FoldState::Done
                };
            }
        }
    }
}

/// Cursor of a [`BroadcastSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BcastState {
    /// Waiting for the parent's message at tree edge `mask`.
    Recv {
        mask: usize,
    },
    /// Sending to the child at tree edge `mask` (descending masks).
    Send {
        mask: usize,
    },
    Done,
}

/// Binomial-tree broadcast over a fixed-size buffer (id 9; the tree
/// allreduce's second phase is this same schedule from root 0). A rank
/// receives at its lowest set (virtual-rank) bit, then forwards to children
/// at all smaller masks.
pub(crate) struct BroadcastSchedule {
    p: usize,
    root: usize,
    vrank: usize,
    n: usize,
    state: BcastState,
}

impl BroadcastSchedule {
    pub(crate) fn new(p: usize, me: usize, n: usize, root: usize) -> Self {
        let vrank = (me + p - root) % p;
        let state = if p == 1 {
            BcastState::Done
        } else if vrank == 0 {
            // Root: start sending at the largest tree edge below p.
            let mut mask = 1usize;
            while mask < p {
                mask <<= 1;
            }
            BcastState::Send { mask: mask >> 1 }
        } else {
            BcastState::Recv {
                mask: vrank & vrank.wrapping_neg(), // lowest set bit
            }
        };
        let mut s = BroadcastSchedule {
            p,
            root,
            vrank,
            n,
            state,
        };
        s.normalize();
        s
    }

    /// Skip send edges whose child falls outside the world.
    fn normalize(&mut self) {
        while let BcastState::Send { mask } = self.state {
            if mask == 0 {
                self.state = BcastState::Done;
            } else if self.vrank + mask < self.p {
                return;
            } else {
                self.state = BcastState::Send { mask: mask >> 1 };
            }
        }
    }
}

impl Schedule for BroadcastSchedule {
    fn current(&self) -> Option<Op> {
        // Tree edge `mask` carries the same tag in both directions.
        let tag = |mask: usize| tag_seg(9, mask.trailing_zeros() as usize, 0);
        match self.state {
            BcastState::Done => None,
            BcastState::Recv { mask } => Some(Op::Recv {
                from: (self.vrank - mask + self.root) % self.p,
                tag: tag(mask),
                win: (0, self.n),
                act: RecvAct::Copy,
                then: Disposal::Release,
            }),
            BcastState::Send { mask } => Some(Op::Send {
                to: (self.vrank + mask + self.root) % self.p,
                tag: tag(mask),
                win: (0, self.n),
            }),
        }
    }

    fn advance(&mut self) {
        self.state = match self.state {
            BcastState::Recv { mask } | BcastState::Send { mask } => {
                BcastState::Send { mask: mask >> 1 }
            }
            BcastState::Done => BcastState::Done,
        };
        self.normalize();
    }
}

/// Cursor of a [`ReduceSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RedState {
    /// Receiving from the child at tree edge `mask` (ascending masks).
    Recv {
        mask: usize,
    },
    /// Sending the partial to the parent at tree edge `mask`, then done.
    SendParent {
        mask: usize,
    },
    Done,
}

/// Binomial-tree reduce to `root` (id 8): ascending masks; a rank folds in
/// its children's partials, then sends its own to its parent and exits.
pub(crate) struct ReduceSchedule {
    p: usize,
    root: usize,
    vrank: usize,
    n: usize,
    state: RedState,
}

impl ReduceSchedule {
    pub(crate) fn new(p: usize, me: usize, n: usize, root: usize) -> Self {
        let vrank = (me + p - root) % p;
        let mut s = ReduceSchedule {
            p,
            root,
            vrank,
            n,
            state: if p == 1 {
                RedState::Done
            } else {
                RedState::Recv { mask: 1 }
            },
        };
        s.normalize();
        s
    }

    /// Settle the cursor on the next real op: the parent send at this
    /// rank's set bit, a child receive at a smaller mask, or done.
    fn normalize(&mut self) {
        while let RedState::Recv { mask } = self.state {
            if mask >= self.p {
                self.state = RedState::Done;
            } else if self.vrank & mask != 0 {
                self.state = RedState::SendParent { mask };
            } else if self.vrank + mask < self.p {
                return;
            } else {
                self.state = RedState::Recv { mask: mask << 1 };
            }
        }
    }
}

impl Schedule for ReduceSchedule {
    fn current(&self) -> Option<Op> {
        match self.state {
            RedState::Done => None,
            RedState::Recv { mask } => {
                let child = (self.vrank + mask + self.root) % self.p;
                Some(Op::Recv {
                    from: child,
                    tag: tag_seg(8, mask.trailing_zeros() as usize, 0),
                    win: (0, self.n),
                    act: RecvAct::FoldIntoBuf,
                    then: Disposal::Release,
                })
            }
            RedState::SendParent { mask } => {
                let parent = ((self.vrank & !mask) + self.root) % self.p;
                Some(Op::Send {
                    to: parent,
                    tag: tag_seg(8, mask.trailing_zeros() as usize, 0),
                    win: (0, self.n),
                })
            }
        }
    }

    fn advance(&mut self) {
        self.state = match self.state {
            RedState::Recv { mask } => RedState::Recv { mask: mask << 1 },
            RedState::SendParent { .. } | RedState::Done => RedState::Done,
        };
        self.normalize();
    }
}

/// Cursor of a [`HierarchicalSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HState {
    /// Member: send the local buffer up to the group leader.
    SendUp,
    /// Member: receive the result back from the leader.
    RecvDown,
    /// Leader: fold in lane `l`'s contribution.
    RecvUp {
        l: usize,
    },
    /// Leader ring reduce-scatter step `s` (send half, then recv half).
    Rs {
        s: usize,
        recv: bool,
    },
    /// Leader ring allgather step `s`.
    Ag {
        s: usize,
        recv: bool,
    },
    /// Leader: broadcast the result down to lane `l`.
    SendDown {
        l: usize,
    },
    Done,
}

/// Two-level allreduce (ids 13–16) mirroring Summit's NVLink-inside,
/// InfiniBand-between structure: linear reduce to each group leader, ring
/// reduce-scatter + allgather over the leaders (chunked by group id), then
/// linear broadcast back into each group. All ops are unconditional — empty
/// chunk windows still send empty messages, like the historical code.
pub(crate) struct HierarchicalSchedule {
    n: usize,
    group_size: usize,
    groups: usize,
    gid: usize,
    leader: usize,
    lane: usize,
    right_leader: usize,
    left_leader: usize,
    state: HState,
}

impl HierarchicalSchedule {
    pub(crate) fn new(p: usize, me: usize, n: usize, group_size: usize) -> Self {
        assert!(
            group_size > 0 && p.is_multiple_of(group_size),
            "world must tile into groups"
        );
        let leader = me - me % group_size;
        let lane = me - leader;
        let groups = p / group_size;
        let gid = me / group_size;
        let mut s = HierarchicalSchedule {
            n,
            group_size,
            groups,
            gid,
            leader,
            lane,
            right_leader: ((gid + 1) % groups) * group_size,
            left_leader: ((gid + groups - 1) % groups) * group_size,
            state: if lane == 0 {
                HState::RecvUp { l: 1 }
            } else {
                HState::SendUp
            },
        };
        s.normalize();
        s
    }

    /// Leader-ring chunk bounds: the buffer partitioned over the *groups*.
    fn gbounds(&self, chunk: usize) -> (usize, usize) {
        chunk_bounds(self.n, self.groups, chunk)
    }

    /// Settle the cursor on the next real op, skipping phases this rank
    /// does not participate in (single-member groups, single-group worlds).
    fn normalize(&mut self) {
        loop {
            match self.state {
                HState::RecvUp { l } if l >= self.group_size => {
                    self.state = if self.groups > 1 {
                        HState::Rs { s: 0, recv: false }
                    } else {
                        HState::SendDown { l: 1 }
                    };
                }
                HState::Rs { s, .. } if s >= self.groups - 1 => {
                    self.state = HState::Ag { s: 0, recv: false };
                }
                HState::Ag { s, .. } if s >= self.groups - 1 => {
                    self.state = HState::SendDown { l: 1 };
                }
                HState::SendDown { l } if l >= self.group_size => {
                    self.state = HState::Done;
                }
                _ => return,
            }
        }
    }
}

impl Schedule for HierarchicalSchedule {
    fn current(&self) -> Option<Op> {
        let full = (0, self.n);
        match self.state {
            HState::Done => None,
            HState::SendUp => Some(Op::Send {
                to: self.leader,
                tag: tag_seg(13, self.lane, 0),
                win: full,
            }),
            HState::RecvDown => Some(Op::Recv {
                from: self.leader,
                tag: tag_seg(16, self.lane, 0),
                win: full,
                act: RecvAct::Copy,
                then: Disposal::Release,
            }),
            HState::RecvUp { l } => Some(Op::Recv {
                from: self.leader + l,
                tag: tag_seg(13, l, 0),
                win: full,
                act: RecvAct::FoldIntoBuf,
                then: Disposal::Release,
            }),
            HState::Rs { s, recv: false } => Some(Op::Send {
                to: self.right_leader,
                tag: tag_seg(14, s, 0),
                win: self.gbounds((self.gid + self.groups - s) % self.groups),
            }),
            HState::Rs { s, recv: true } => Some(Op::Recv {
                from: self.left_leader,
                tag: tag_seg(14, s, 0),
                win: self.gbounds((self.gid + self.groups - s - 1) % self.groups),
                act: RecvAct::FoldIntoBuf,
                then: Disposal::Release,
            }),
            HState::Ag { s, recv: false } => Some(Op::Send {
                to: self.right_leader,
                tag: tag_seg(15, s, 0),
                win: self.gbounds((self.gid + 1 + self.groups - s) % self.groups),
            }),
            HState::Ag { s, recv: true } => Some(Op::Recv {
                from: self.left_leader,
                tag: tag_seg(15, s, 0),
                win: self.gbounds((self.gid + self.groups - s) % self.groups),
                act: RecvAct::Copy,
                then: Disposal::Release,
            }),
            HState::SendDown { l } => Some(Op::Send {
                to: self.leader + l,
                tag: tag_seg(16, l, 0),
                win: full,
            }),
        }
    }

    fn advance(&mut self) {
        self.state = match self.state {
            HState::SendUp => HState::RecvDown,
            HState::RecvDown => HState::Done,
            HState::RecvUp { l } => HState::RecvUp { l: l + 1 },
            HState::Rs { s, recv: false } => HState::Rs { s, recv: true },
            HState::Rs { s, recv: true } => HState::Rs {
                s: s + 1,
                recv: false,
            },
            HState::Ag { s, recv: false } => HState::Ag { s, recv: true },
            HState::Ag { s, recv: true } => HState::Ag {
                s: s + 1,
                recv: false,
            },
            HState::SendDown { l } => HState::SendDown { l: l + 1 },
            HState::Done => HState::Done,
        };
        self.normalize();
    }
}

/// Personalized all-to-all (id 10) over owned slot vectors: pairwise
/// exchange (`peer = me ^ s`) for power-of-two worlds, the shifted-ring
/// schedule (`send to me+s, recv from me-s`) otherwise.
///
/// Uses a `2p`-entry slot array: sends draw from `slots[0..p]` (the
/// outgoing buffers) and receives land in `slots[p..2p]`, because on the
/// shifted-ring schedule step `p - s` sends to the rank step `s` received
/// from — in-place slots would send received data instead of this rank's
/// contribution. Slot `me` is left for the wrapper to move across.
pub(crate) struct AlltoallSchedule {
    p: usize,
    me: usize,
    s: usize,
    recv_pending: bool,
}

impl AlltoallSchedule {
    pub(crate) fn new(p: usize, me: usize) -> Self {
        AlltoallSchedule {
            p,
            me,
            s: 1,
            recv_pending: false,
        }
    }
}

impl Schedule for AlltoallSchedule {
    fn current(&self) -> Option<Op> {
        if self.s >= self.p {
            return None;
        }
        let t = tag_seg(10, self.s, 0);
        Some(if self.p.is_power_of_two() {
            let peer = self.me ^ self.s;
            if self.recv_pending {
                Op::RecvSlot {
                    from: peer,
                    tag: t,
                    slot: self.p + peer,
                }
            } else {
                Op::SendSlot {
                    to: peer,
                    tag: t,
                    slot: peer,
                }
            }
        } else if self.recv_pending {
            let from = (self.me + self.p - self.s) % self.p;
            Op::RecvSlot {
                from,
                tag: t,
                slot: self.p + from,
            }
        } else {
            let to = (self.me + self.s) % self.p;
            Op::SendSlot {
                to,
                tag: t,
                slot: to,
            }
        })
    }

    fn advance(&mut self) {
        if self.recv_pending {
            self.recv_pending = false;
            self.s += 1;
        } else {
            self.recv_pending = true;
        }
    }
}

/// Small-message payloads at or below this many bytes per block route
/// [`Collective::Alltoall`] through the Bruck log-p schedule instead of the
/// pairwise exchange — the MPICH small-message switch. Pairwise moves each
/// block once but costs `p − 1` messages per rank (7.6×10⁸ total at full
/// Summit); Bruck sends each block `⌈lg p⌉` times but only `⌈lg p⌉`
/// messages per rank, which is what makes the full machine simulable and
/// is the latency-optimal choice for real small-block exchanges.
pub(crate) const BRUCK_MAX_BYTES: usize = 256;

/// Bruck all-to-all (id 10, segment 1 tags): `⌈lg p⌉` rounds over the
/// `p`-entry work array (`slots[i]` starts as the block for rank
/// `(me + i) mod p` — the caller's local rotation). Round `k` ships every
/// slot whose index has bit `k` set to rank `me + 2^k` as one combined
/// message and refills the same positions from rank `me − 2^k`; after the
/// last round `slots[i]` holds the block *from* rank `(me − i) mod p` and
/// the caller un-rotates. Works for any `p`, power of two or not.
pub(crate) struct BruckAlltoallSchedule {
    p: usize,
    me: usize,
    k: u32,
    recv_pending: bool,
}

impl BruckAlltoallSchedule {
    pub(crate) fn new(p: usize, me: usize) -> Self {
        BruckAlltoallSchedule {
            p,
            me,
            k: 0,
            recv_pending: false,
        }
    }
}

impl Schedule for BruckAlltoallSchedule {
    fn current(&self) -> Option<Op> {
        let d = 1usize << self.k;
        if d >= self.p {
            return None;
        }
        let t = tag_seg(10, self.k as usize, 1);
        Some(if self.recv_pending {
            Op::RecvScatter {
                from: (self.me + self.p - d) % self.p,
                tag: t,
                bit: self.k,
            }
        } else {
            Op::SendGather {
                to: (self.me + d) % self.p,
                tag: t,
                bit: self.k,
            }
        })
    }

    fn advance(&mut self) {
        if self.recv_pending {
            self.recv_pending = false;
            self.k += 1;
        } else {
            self.recv_pending = true;
        }
    }
}

/// Scatter from `root` (id 11): the root sends slot `dst` to each rank in
/// ascending order; every other rank receives its own slot.
pub(crate) struct ScatterSchedule {
    p: usize,
    me: usize,
    root: usize,
    /// Root: next destination; non-root: 0 = pending receive, `p` = done.
    cursor: usize,
}

impl ScatterSchedule {
    pub(crate) fn new(p: usize, me: usize, root: usize) -> Self {
        let mut s = ScatterSchedule {
            p,
            me,
            root,
            cursor: 0,
        };
        s.skip_root();
        s
    }

    fn skip_root(&mut self) {
        if self.me == self.root && self.cursor == self.root {
            self.cursor += 1;
        }
    }
}

impl Schedule for ScatterSchedule {
    fn current(&self) -> Option<Op> {
        if self.me == self.root {
            (self.cursor < self.p).then_some(Op::SendSlot {
                to: self.cursor,
                tag: tag_seg(11, self.cursor, 0),
                slot: self.cursor,
            })
        } else {
            (self.cursor == 0).then_some(Op::RecvSlot {
                from: self.root,
                tag: tag_seg(11, self.me, 0),
                slot: self.me,
            })
        }
    }

    fn advance(&mut self) {
        self.cursor = if self.me == self.root {
            self.cursor + 1
        } else {
            self.p
        };
        self.skip_root();
    }
}

/// Gather to `root` (id 12): every rank sends its slot to the root, which
/// receives them in ascending source order.
pub(crate) struct GatherSchedule {
    p: usize,
    me: usize,
    root: usize,
    /// Root: next source; non-root: 0 = pending send, `p` = done.
    cursor: usize,
}

impl GatherSchedule {
    pub(crate) fn new(p: usize, me: usize, root: usize) -> Self {
        let mut s = GatherSchedule {
            p,
            me,
            root,
            cursor: 0,
        };
        s.skip_root();
        s
    }

    fn skip_root(&mut self) {
        if self.me == self.root && self.cursor == self.root {
            self.cursor += 1;
        }
    }
}

impl Schedule for GatherSchedule {
    fn current(&self) -> Option<Op> {
        if self.me == self.root {
            (self.cursor < self.p).then_some(Op::RecvSlot {
                from: self.cursor,
                tag: tag_seg(12, self.cursor, 0),
                slot: self.cursor,
            })
        } else {
            (self.cursor == 0).then_some(Op::SendSlot {
                to: self.root,
                tag: tag_seg(12, self.me, 0),
                slot: self.me,
            })
        }
    }

    fn advance(&mut self) {
        self.cursor = if self.me == self.root {
            self.cursor + 1
        } else {
            self.p
        };
        self.skip_root();
    }
}

// ---------------------------------------------------------------------------
// The collective vocabulary and its one mapping to schedules.

/// Which collective to run — on the live transport
/// ([`run`](crate::collectives::run) / [`run_slots`](crate::extended::run_slots)
/// and their `try_` twins) or on the modeled one
/// ([`simulate`](crate::sim::simulate)). `elems` in the simulators plays
/// the role the executed buffer length plays (per-slot length for the
/// personalized collectives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Ring allreduce (reduce-scatter ring then allgather ring) with each
    /// chunk transfer split into messages of at most `bucket_elems`
    /// elements; see [`Collective::RING`] for the flat path.
    RingAllreduce { bucket_elems: usize },
    /// Ring reduce-scatter: afterwards rank `i` holds the fully reduced
    /// chunk `(i + 1) mod p`; other chunks are unspecified.
    ReduceScatter,
    /// Ring allgather: each rank contributes its own `chunk_bounds` chunk
    /// and receives everyone else's.
    RingAllgather,
    /// Recursive doubling: `log2 p` full-buffer exchanges (non-power-of-two
    /// worlds fold into a power-of-two core, MPICH style).
    RecursiveDoubling,
    /// Rabenseifner: recursive-halving reduce-scatter then
    /// recursive-doubling allgather (requires `pow2_core(p) | elems`).
    Rabenseifner,
    /// Binomial-tree broadcast of `root`'s buffer into every rank's.
    BinomialBroadcast { root: usize },
    /// Binomial-tree reduce: `root`'s buffer ends holding the reduction,
    /// the others intermediate partials.
    BinomialReduce { root: usize },
    /// Binomial reduce to rank 0, then binomial broadcast from it.
    TreeAllreduce,
    /// Two-level allreduce mirroring Summit's hierarchy: linear reduce to
    /// each `group_size`-rank group's leader, ring over the leaders, linear
    /// broadcast back (the world must tile into groups).
    HierarchicalAllreduce { group_size: usize },
    /// Personalized all-to-all with `elems` elements per destination
    /// (uniform blocks at or below [`BRUCK_MAX_BYTES`] take the Bruck log-p
    /// schedule, larger or ragged ones the direct pairwise exchange).
    Alltoall,
    /// `root` sends slot `i` to rank `i` (`elems` elements per chunk).
    Scatter { root: usize },
    /// Every rank sends its own slot to `root` (`elems` elements per rank).
    Gather { root: usize },
}

impl Collective {
    /// The flat ring allreduce: one message per chunk.
    pub const RING: Collective = Collective::RingAllreduce {
        bucket_elems: usize::MAX,
    };

    /// Whether this collective moves whole caller-owned vectors
    /// ([`run_slots`](crate::extended::run_slots)) rather than windows of
    /// one buffer ([`run`](crate::collectives::run)).
    pub fn personalized(self) -> bool {
        matches!(
            self,
            Collective::Alltoall | Collective::Scatter { .. } | Collective::Gather { .. }
        )
    }
}

/// Result of a modeled run: per-rank counters and virtual completion times.
///
/// `per_rank_messages` / `per_rank_bytes` count exactly what each rank's
/// executed twin would send (including zero-length messages and forwarded
/// ring payloads), so they can be compared for strict equality against
/// [`Rank::traffic`](crate::world::Rank::traffic) counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Messages sent by each rank.
    pub per_rank_messages: Vec<u64>,
    /// Payload bytes sent by each rank (4 bytes per f32 element).
    pub per_rank_bytes: Vec<u64>,
    /// Virtual clock of each rank at its last operation, in seconds.
    pub per_rank_seconds: Vec<f64>,
    /// Predicted collective completion time: the maximum per-rank clock.
    pub time_seconds: f64,
}

impl ModelReport {
    /// Total messages across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.per_rank_messages.iter().sum()
    }

    /// Total payload bytes across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank_bytes.iter().sum()
    }
}

/// A concrete schedule behind enum dispatch. The simulators drive ~10⁸
/// cursor reads per full-machine collective; a `match` on a concrete enum
/// inlines where `Box<dyn Schedule>` virtual calls cannot. Held by value —
/// one per simulated rank, none on the heap — so it must stay no larger
/// than its largest member.
pub(crate) enum AnySchedule {
    Ring(RingSchedule),
    Rd(RdSchedule),
    Rab(RabenseifnerSchedule),
    Bcast(BroadcastSchedule),
    Reduce(ReduceSchedule),
    /// Reduce to rank 0, then broadcast from it, back to back.
    Tree(ReduceSchedule, BroadcastSchedule),
    Hier(HierarchicalSchedule),
    A2a(AlltoallSchedule),
    Bruck(BruckAlltoallSchedule),
    Scatter(ScatterSchedule),
    Gather(GatherSchedule),
}

const _: () = assert!(
    std::mem::size_of::<AnySchedule>() <= std::mem::size_of::<RingSchedule>() + 8,
    "a two-phase variant outgrew the ring cursor: per-rank simulator storage would grow"
);

impl Schedule for AnySchedule {
    #[inline]
    fn current(&self) -> Option<Op> {
        match self {
            AnySchedule::Ring(s) => s.current(),
            AnySchedule::Rd(s) => s.current(),
            AnySchedule::Rab(s) => s.current(),
            AnySchedule::Bcast(s) => s.current(),
            AnySchedule::Reduce(s) => s.current(),
            AnySchedule::Tree(r, b) => r.current().or_else(|| b.current()),
            AnySchedule::Hier(s) => s.current(),
            AnySchedule::A2a(s) => s.current(),
            AnySchedule::Bruck(s) => s.current(),
            AnySchedule::Scatter(s) => s.current(),
            AnySchedule::Gather(s) => s.current(),
        }
    }

    #[inline]
    fn advance(&mut self) {
        match self {
            AnySchedule::Ring(s) => s.advance(),
            AnySchedule::Rd(s) => s.advance(),
            AnySchedule::Rab(s) => s.advance(),
            AnySchedule::Bcast(s) => s.advance(),
            AnySchedule::Reduce(s) => s.advance(),
            AnySchedule::Tree(r, b) => {
                if r.current().is_some() {
                    r.advance();
                } else {
                    b.advance();
                }
            }
            AnySchedule::Hier(s) => s.advance(),
            AnySchedule::A2a(s) => s.advance(),
            AnySchedule::Bruck(s) => s.advance(),
            AnySchedule::Scatter(s) => s.advance(),
            AnySchedule::Gather(s) => s.advance(),
        }
    }
}

/// Rank `me`'s schedule for collective `c` in a `p`-rank world over
/// `elems` elements — the **one** mapping from the vocabulary to the
/// algorithms. Every surface (executed blocking and fallible, simulated,
/// oracle) builds its schedule here, which is what makes their traffic
/// equal by construction.
pub(crate) fn schedule(c: Collective, p: usize, me: usize, elems: usize) -> AnySchedule {
    match c {
        Collective::RingAllreduce { bucket_elems } => {
            AnySchedule::Ring(RingSchedule::allreduce(p, me, elems, bucket_elems.max(1)))
        }
        Collective::ReduceScatter => AnySchedule::Ring(RingSchedule::reduce_scatter(p, me, elems)),
        Collective::RingAllgather => AnySchedule::Ring(RingSchedule::allgather(p, me, elems)),
        Collective::RecursiveDoubling => AnySchedule::Rd(RdSchedule::new(p, me, elems)),
        Collective::Rabenseifner => AnySchedule::Rab(RabenseifnerSchedule::new(p, me, elems)),
        Collective::BinomialBroadcast { root } => {
            AnySchedule::Bcast(BroadcastSchedule::new(p, me, elems, root))
        }
        Collective::BinomialReduce { root } => {
            AnySchedule::Reduce(ReduceSchedule::new(p, me, elems, root))
        }
        Collective::TreeAllreduce => AnySchedule::Tree(
            ReduceSchedule::new(p, me, elems, 0),
            BroadcastSchedule::new(p, me, elems, 0),
        ),
        Collective::HierarchicalAllreduce { group_size } => {
            AnySchedule::Hier(HierarchicalSchedule::new(p, me, elems, group_size))
        }
        Collective::Alltoall if elems <= BRUCK_MAX_BYTES / 4 => {
            AnySchedule::Bruck(BruckAlltoallSchedule::new(p, me))
        }
        Collective::Alltoall => AnySchedule::A2a(AlltoallSchedule::new(p, me)),
        Collective::Scatter { root } => AnySchedule::Scatter(ScatterSchedule::new(p, me, root)),
        Collective::Gather { root } => AnySchedule::Gather(GatherSchedule::new(p, me, root)),
    }
}

/// Arrange rank `me`'s `p` caller-side entries (indexed by peer rank) into
/// the slot array `sched` runs over. Generic in the entry so the executed
/// surface lays out payload vectors and the oracle their lengths with the
/// same code.
pub(crate) fn lay_out<T: Default>(sched: &AnySchedule, me: usize, mut slots: Vec<T>) -> Vec<T> {
    let p = slots.len();
    match sched {
        // Bruck's local rotation: `work[i]` holds the block destined for
        // rank `(me + i) mod p`.
        AnySchedule::Bruck(_) => slots.rotate_left(me),
        // Sends draw from `0..p`, receives land in `p..2p` (see
        // `AlltoallSchedule`); this rank's own block moves straight across.
        AnySchedule::A2a(_) => {
            slots.resize_with(2 * p, T::default);
            slots.swap(me, p + me);
        }
        _ => {}
    }
    slots
}

/// Inverse of [`lay_out`] once the schedule has run: the results, indexed
/// by source rank.
pub(crate) fn collect<T: Default>(sched: &AnySchedule, me: usize, mut slots: Vec<T>) -> Vec<T> {
    match sched {
        // After the rounds `work[i]` holds the block *from* rank
        // `(me − i) mod p`.
        AnySchedule::Bruck(_) => {
            let p = slots.len();
            (0..p)
                .map(|src| std::mem::take(&mut slots[(me + p - src) % p]))
                .collect()
        }
        AnySchedule::A2a(_) => slots.split_off(slots.len() / 2),
        _ => slots,
    }
}

/// Initial slot lengths of rank `me` for the personalized collectives
/// (empty for the windowed ones): what [`lay_out`] makes of the lengths a
/// caller of [`run_slots`](crate::extended::run_slots) would pass.
pub(crate) fn slots_for(c: Collective, p: usize, me: usize, elems: usize) -> Vec<usize> {
    let lens = match c {
        Collective::Alltoall => vec![elems; p],
        Collective::Scatter { root } => vec![if me == root { elems } else { 0 }; p],
        Collective::Gather { .. } => {
            let mut v = vec![0; p];
            v[me] = elems;
            v
        }
        _ => return Vec::new(),
    };
    lay_out(&schedule(c, p, me, elems), me, lens)
}

/// Every [`Collective`] variant that is valid in a `p`-rank world over
/// `elems` elements (the ring both flat and bucketed, the hierarchy at each
/// group size that tiles) — the row set of the crate's test tables.
#[cfg(test)]
pub(crate) fn all_collectives(p: usize, elems: usize) -> Vec<Collective> {
    let mut v = vec![
        Collective::RING,
        Collective::RingAllreduce { bucket_elems: 5 },
        Collective::ReduceScatter,
        Collective::RingAllgather,
        Collective::RecursiveDoubling,
        Collective::BinomialBroadcast { root: p - 1 },
        Collective::BinomialReduce { root: 0 },
        Collective::TreeAllreduce,
        Collective::Alltoall,
        Collective::Scatter { root: 0 },
        Collective::Gather { root: p - 1 },
    ];
    if elems.is_multiple_of(pow2_core(p)) {
        v.push(Collective::Rabenseifner);
    }
    for g in [1, 2, p] {
        if p.is_multiple_of(g) {
            v.push(Collective::HierarchicalAllreduce { group_size: g });
        }
    }
    v.dedup();
    v
}

/// In-flight modeled messages keyed `(from, to, tag)`, each a FIFO of
/// `(payload elements, ready time)` pairs.
type InFlight = HashMap<(usize, usize, u64), VecDeque<(usize, f64)>>;

/// The retired per-step polling simulator, kept as the **oracle** for the
/// event-driven engine in [`crate::sim`]: every rank is scanned every
/// iteration (O(p) per step), so it only scales to small worlds, but its
/// semantics — fire-and-forget sends becoming receivable at
/// `clock + α + m/β`, receives completing at `max(local clock, ready)`,
/// per-`(src, dst, tag)` FIFO — define what the fast engine must reproduce
/// *bit-for-bit*. The `sim_equivalence` suite pins `sim::simulate` against
/// this function (identical `f64` virtual times, identical per-rank
/// message/byte counts) for all 12 collectives.
///
/// # Panics
/// Panics if `p == 0`, on each algorithm's own world-shape requirements,
/// or if the schedules deadlock (a schedule bug, not a data condition).
pub fn simulate_reference(
    collective: Collective,
    p: usize,
    elems: usize,
    link: LinkModel,
) -> ModelReport {
    assert!(p > 0, "world size must be positive");
    let mut scheds: Vec<AnySchedule> = (0..p)
        .map(|me| schedule(collective, p, me, elems))
        .collect();
    let mut slot_len: Vec<Vec<usize>> = (0..p)
        .map(|me| slots_for(collective, p, me, elems))
        .collect();
    let mut clock = vec![0.0f64; p];
    let mut messages = vec![0u64; p];
    let mut bytes = vec![0u64; p];
    // In-flight messages keyed (from, to, tag); per-key FIFO order matches
    // the channel transport's per-(source, tag) ordering guarantee.
    let mut in_flight: InFlight = HashMap::new();

    // A send is fire-and-forget: the sender's clock does not advance (the
    // textbook α–β models charge the transfer to the critical path through
    // the receiver), the message becomes receivable at `clock + α + m/β`.
    let post = |me: usize,
                to: usize,
                tag: u64,
                len: usize,
                clock: &[f64],
                messages: &mut [u64],
                bytes: &mut [u64],
                in_flight: &mut InFlight| {
        let ready = clock[me] + link.transfer_time((len * 4) as f64);
        in_flight
            .entry((me, to, tag))
            .or_default()
            .push_back((len, ready));
        messages[me] += 1;
        bytes[me] += (len * 4) as u64;
    };

    loop {
        let mut progressed = false;
        let mut all_done = true;
        for me in 0..p {
            while let Some(op) = scheds[me].current() {
                match op {
                    Op::Send { to, tag, win } => {
                        post(
                            me,
                            to,
                            tag,
                            win.1 - win.0,
                            &clock,
                            &mut messages,
                            &mut bytes,
                            &mut in_flight,
                        );
                    }
                    Op::SendSlot { to, tag, slot } => {
                        let len = std::mem::take(&mut slot_len[me][slot]);
                        post(
                            me,
                            to,
                            tag,
                            len,
                            &clock,
                            &mut messages,
                            &mut bytes,
                            &mut in_flight,
                        );
                    }
                    Op::Recv {
                        from, tag, then, ..
                    } => {
                        let Some((len, ready)) = in_flight
                            .get_mut(&(from, me, tag))
                            .and_then(VecDeque::pop_front)
                        else {
                            break; // blocked on a message not yet posted
                        };
                        clock[me] = clock[me].max(ready);
                        if let Disposal::Forward { to, tag } = then {
                            post(
                                me,
                                to,
                                tag,
                                len,
                                &clock,
                                &mut messages,
                                &mut bytes,
                                &mut in_flight,
                            );
                        }
                    }
                    Op::RecvSlot { from, tag, slot } => {
                        let Some((len, ready)) = in_flight
                            .get_mut(&(from, me, tag))
                            .and_then(VecDeque::pop_front)
                        else {
                            break;
                        };
                        clock[me] = clock[me].max(ready);
                        slot_len[me][slot] = len;
                    }
                    // Bruck rounds keep every slot at `elems`; the combined
                    // message length is the closed-form block count.
                    Op::SendGather { to, tag, bit } => {
                        post(
                            me,
                            to,
                            tag,
                            bruck_count(p, bit) * elems,
                            &clock,
                            &mut messages,
                            &mut bytes,
                            &mut in_flight,
                        );
                    }
                    Op::RecvScatter { from, tag, .. } => {
                        let Some((_, ready)) = in_flight
                            .get_mut(&(from, me, tag))
                            .and_then(VecDeque::pop_front)
                        else {
                            break;
                        };
                        clock[me] = clock[me].max(ready);
                    }
                }
                scheds[me].advance();
                progressed = true;
            }
            if scheds[me].current().is_some() {
                all_done = false;
            }
        }
        if all_done {
            break;
        }
        assert!(
            progressed,
            "model transport deadlock: schedules stalled with ranks unfinished"
        );
    }

    let time_seconds = clock.iter().copied().fold(0.0, f64::max);
    ModelReport {
        per_rank_messages: messages,
        per_rank_bytes: bytes,
        per_rank_seconds: clock,
        time_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::simulate_reference as simulate;
    use super::*;
    use crate::model::{Algorithm, CollectiveModel};

    fn link() -> LinkModel {
        LinkModel::new(2.0e-6, 12.5e9)
    }

    /// The modeled run reproduces the closed-form α–β allreduce times
    /// exactly for the uniform cases the closed forms describe (power-of-two
    /// worlds, chunk-divisible buffers).
    #[test]
    fn simulated_times_match_closed_forms() {
        let link = link();
        let model = CollectiveModel::new(link);
        let cases = [
            (
                Collective::RingAllreduce {
                    bucket_elems: usize::MAX,
                },
                Algorithm::Ring,
            ),
            (Collective::RecursiveDoubling, Algorithm::RecursiveDoubling),
            (Collective::Rabenseifner, Algorithm::Rabenseifner),
            (Collective::TreeAllreduce, Algorithm::BinomialTree),
        ];
        for p in [2usize, 4, 8] {
            // Divisible by every p and by 2^log2(p) halvings.
            let elems = 64usize;
            for (collective, alg) in cases {
                let sim = simulate(collective, p, elems, link).time_seconds;
                let closed = model.allreduce_time(alg, p as u64, (elems * 4) as f64);
                assert!(
                    (sim - closed).abs() <= 1e-9 * closed.max(1e-12),
                    "{alg:?} p={p}: simulated {sim} vs closed form {closed}"
                );
            }
        }
    }

    /// The largest ring whose steps fit the 15-bit field builds; one rank
    /// more is refused where the schedule is built, not aliased in release.
    #[test]
    #[should_panic(expected = "a 32770-rank ring overflows the 15-bit tag step field")]
    fn ring_beyond_tag_step_field_is_refused() {
        let _ = RingSchedule::allreduce((1 << 15) + 1, 0, 1, 1);
        let _ = RingSchedule::allreduce((1 << 15) + 2, 0, 1, 1);
    }

    /// Ring traffic is exact even for uneven chunks: 2(p-1) · n elements
    /// moved in total, one message per rank per step when no chunk is empty.
    #[test]
    fn simulated_ring_traffic_is_exact() {
        let link = link();
        for p in [2usize, 3, 4, 8] {
            for n in [1usize, 5, 37, 96] {
                let r = simulate(
                    Collective::RingAllreduce {
                        bucket_elems: usize::MAX,
                    },
                    p,
                    n,
                    link,
                );
                assert_eq!(r.total_bytes(), (4 * 2 * (p - 1) * n) as u64, "p={p} n={n}");
                if n >= p {
                    assert_eq!(r.total_messages(), (2 * (p - 1) * p) as u64);
                }
            }
        }
    }

    /// Bucketing changes message counts but never byte volume.
    #[test]
    fn simulated_bucketing_preserves_bytes() {
        let link = link();
        let (p, n) = (4usize, 37usize);
        let flat = simulate(
            Collective::RingAllreduce {
                bucket_elems: usize::MAX,
            },
            p,
            n,
            link,
        );
        for bucket in [1usize, 3, 8] {
            let b = simulate(
                Collective::RingAllreduce {
                    bucket_elems: bucket,
                },
                p,
                n,
                link,
            );
            assert_eq!(b.total_bytes(), flat.total_bytes(), "bucket={bucket}");
            assert!(b.total_messages() >= flat.total_messages());
        }
    }

    /// A binomial broadcast sends exactly p - 1 messages of the full buffer.
    #[test]
    fn simulated_broadcast_counts() {
        let link = link();
        for p in [2usize, 3, 4, 7, 8] {
            let r = simulate(Collective::BinomialBroadcast { root: 0 }, p, 10, link);
            assert_eq!(r.total_messages(), (p - 1) as u64, "p={p}");
            assert_eq!(r.total_bytes(), (4 * 10 * (p - 1)) as u64, "p={p}");
        }
    }

    /// Every personalized collective moves the volume its pattern implies.
    /// `n = 128` keeps alltoall above the Bruck threshold, pinning the
    /// direct pairwise exchange: one block once per (source, destination).
    #[test]
    fn simulated_personalized_counts() {
        let link = link();
        let n = 128;
        for p in [2usize, 3, 4, 8] {
            let a2a = simulate(Collective::Alltoall, p, n, link);
            assert_eq!(a2a.total_messages(), (p * (p - 1)) as u64, "alltoall p={p}");
            assert_eq!(a2a.total_bytes(), (4 * n * p * (p - 1)) as u64);
            let sc = simulate(Collective::Scatter { root: 1 % p }, p, n, link);
            assert_eq!(sc.total_messages(), (p - 1) as u64, "scatter p={p}");
            let ga = simulate(Collective::Gather { root: 1 % p }, p, n, link);
            assert_eq!(ga.total_messages(), (p - 1) as u64, "gather p={p}");
            assert_eq!(ga.total_bytes(), (4 * n * (p - 1)) as u64);
        }
    }

    /// Small blocks route alltoall through Bruck: `⌈lg p⌉` messages per
    /// rank, and each block rides `popcount(distance)` combined messages —
    /// total bytes `4 n p Σ_{i<p} popcount(i)`.
    #[test]
    fn simulated_bruck_alltoall_counts() {
        let link = link();
        let n = 6;
        for p in [2usize, 3, 4, 5, 8] {
            let rounds = usize::BITS - (p - 1).leading_zeros();
            let popcounts: u32 = (0..p as u32).map(u32::count_ones).sum();
            let r = simulate(Collective::Alltoall, p, n, link);
            assert_eq!(r.total_messages(), (p as u32 * rounds) as u64, "p={p}");
            assert_eq!(
                r.total_bytes(),
                (4 * n * p) as u64 * u64::from(popcounts),
                "p={p}"
            );
        }
    }

    /// A single-rank world is free on every collective.
    #[test]
    fn single_rank_world_is_free() {
        let link = link();
        for c in all_collectives(1, 16) {
            let r = simulate(c, 1, 16, link);
            assert_eq!(r.total_messages(), 0, "{c:?}");
            assert_eq!(r.total_bytes(), 0, "{c:?}");
            assert_eq!(r.time_seconds, 0.0, "{c:?}");
        }
    }

    /// The hierarchical model's leaders exchange chunked windows; total
    /// bytes are the two linear phases plus the leader ring.
    #[test]
    fn simulated_hierarchical_counts() {
        let link = link();
        let (p, g, n) = (6usize, 3usize, 12usize);
        let r = simulate(
            Collective::HierarchicalAllreduce { group_size: g },
            p,
            n,
            link,
        );
        let groups = p / g;
        // Linear up + down: 2 (g - 1) full-buffer messages per group.
        let linear = (2 * (g - 1) * groups * n) as u64;
        // Leader ring: 2 (groups - 1) steps moving n / groups each, per leader.
        let ring = (2 * (groups - 1) * groups * (n / groups)) as u64;
        assert_eq!(r.total_bytes(), 4 * (linear + ring));
    }
}
