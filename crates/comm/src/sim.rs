//! The event-driven modeled transport: full-machine collective simulation.
//!
//! [`engine::simulate_reference`](crate::engine::simulate_reference) scans
//! every rank every iteration — O(p) busy work per delivered message, which
//! is why the modeled surface used to be gated at 128 ranks. This module
//! replaces the polling loop with a **dependency-driven** engine: a worklist
//! of runnable ranks, each run until it blocks on a message that has not
//! been posted yet, and woken exactly once when that message arrives. Every
//! schedule cursor advances only when one of its events fires and in-flight
//! messages wait in per-receiver FIFO mailboxes (no hashing; see
//! `Mailboxes`), so the cost is O(events), and all 12 [`Collective`]
//! variants simulate at Summit's full 27,648 GPUs in seconds.
//!
//! Two fabrics sit under the same engine:
//!
//! * [`simulate`] charges every transfer to a uniform α–β [`LinkModel`] —
//!   **bit-equal** to the retired polling simulator (same `f64` virtual
//!   times, same per-rank message/byte counts; pinned by the
//!   `sim_equivalence` suite). Equality holds by construction: sends are
//!   fire-and-forget (a sender's clock never depends on scheduling order),
//!   each message's ready time is fixed at post time, and per-(src, dst,
//!   tag) FIFO is preserved — so rank clocks are independent of the order
//!   in which the worklist happens to run ranks.
//! * [`simulate_on`] routes every transfer over a
//!   [`ClusterModel`](summit_machine::ClusterModel) — intra-node hops at
//!   NVLink/X-bus rates, inter-node hops through the fat tree's NIC and
//!   leaf-uplink reservations ([`FlowNet`]) — so concurrent transfers
//!   sharing a link serialize instead of enjoying the independent-link
//!   fiction. Resources serve transfers FCFS in (deterministic) simulator
//!   arrival order, which tracks virtual time.

use summit_machine::{ClusterModel, FlowNet, LinkModel};

use crate::engine::{
    schedule, slots_for, AnySchedule, Collective, Disposal, ModelReport, Op, Schedule,
};

/// Cost model a simulated transfer is charged against: returns the virtual
/// time at which a message of `bytes` posted by `src` at `start` becomes
/// receivable at `dst`.
trait Fabric {
    fn transfer(&mut self, src: usize, dst: usize, bytes: f64, start: f64) -> f64;
}

/// Uniform independent α–β links — the reference simulator's cost model.
struct Uniform(LinkModel);

impl Fabric for Uniform {
    #[inline]
    fn transfer(&mut self, _src: usize, _dst: usize, bytes: f64, start: f64) -> f64 {
        // Exactly `clock + link.transfer_time(bytes)` as the reference
        // computes it, so uniform-fabric times stay bit-equal.
        start + self.0.transfer_time(bytes)
    }
}

impl Fabric for FlowNet {
    #[inline]
    fn transfer(&mut self, src: usize, dst: usize, bytes: f64, start: f64) -> f64 {
        FlowNet::transfer(self, src, dst, bytes, start)
    }
}

/// Nil link of the message slab.
const NIL: u32 = u32::MAX;

/// One in-flight message: a node of the [`Mailboxes`] slab.
#[derive(Clone, Copy)]
struct Msg {
    src: u32,
    /// Next message of the same run, or next free node; `NIL` ends both.
    next: u32,
    /// Run heads only: head of the receiver's next run.
    skip: u32,
    /// Run heads only: last message of this run.
    run_tail: u32,
    tag: u64,
    len: usize,
    ready: f64,
}

/// The engine's one message store: a slab of [`Msg`] nodes threaded into a
/// FIFO mailbox per receiver. Freed nodes are recycled LIFO, so the slab
/// never outgrows the peak in-flight count (128 nodes for a sparse ring at
/// full machine, one per rank at worst in the modeled collectives).
///
/// A mailbox is a list of **runs** — maximal stretches of consecutive
/// arrivals from one source — not of messages: a group leader's fan-in
/// receives then step over its ring neighbour's backlog in one hop instead
/// of one hop per message. Draining a run may leave two runs of one source
/// adjacent; they stay apart (oldest first), which is all FIFO needs.
struct Mailboxes {
    slab: Vec<Msg>,
    free: u32,
    /// Per receiver: heads of its first and last run (`NIL` when empty).
    ends: Vec<(u32, u32)>,
    in_flight: usize,
}

impl Mailboxes {
    fn new(p: usize) -> Self {
        Mailboxes {
            slab: Vec::new(),
            free: NIL,
            ends: vec![(NIL, NIL); p],
            in_flight: 0,
        }
    }

    /// Append a message to `dst`'s mailbox: onto the last run if `src` sent
    /// that too, else as a new run.
    fn push(&mut self, src: usize, dst: usize, tag: u64, len: usize, ready: f64) {
        let msg = Msg {
            src: src as u32,
            next: NIL,
            skip: NIL,
            run_tail: NIL,
            tag,
            len,
            ready,
        };
        let id = match self.free {
            NIL => {
                self.slab.push(msg);
                (self.slab.len() - 1) as u32
            }
            id => {
                self.free = std::mem::replace(&mut self.slab[id as usize], msg).next;
                id
            }
        };
        assert!(id != NIL, "model transport: slab outgrew its u32 links");
        let (first, last) = &mut self.ends[dst];
        if *last != NIL && self.slab[*last as usize].src == msg.src {
            let tail = std::mem::replace(&mut self.slab[*last as usize].run_tail, id);
            self.slab[tail as usize].next = id;
        } else {
            if *last == NIL {
                *first = id;
            } else {
                self.slab[*last as usize].skip = id;
            }
            self.slab[id as usize].run_tail = id;
            *last = id;
        }
        self.in_flight += 1;
    }

    /// Remove and return `(len, ready)` of the oldest message `src` sent
    /// `dst` under `tag`: walk the run heads, and each run of `src` (whose
    /// first message is the hit in every modeled collective).
    fn take(&mut self, src: usize, dst: usize, tag: u64) -> Option<(usize, f64)> {
        let (mut prev_run, mut run) = (NIL, self.ends[dst].0);
        while run != NIL {
            let head = &self.slab[run as usize];
            let skip = head.skip;
            if head.src == src as u32 {
                let (mut prev, mut at) = (NIL, run);
                while at != NIL {
                    #[cfg(test)]
                    tests::count_lookup_step();
                    let msg = &self.slab[at as usize];
                    if msg.tag == tag {
                        let found = (msg.len, msg.ready);
                        self.unlink(dst, prev_run, run, prev, at);
                        self.slab[at as usize].next = std::mem::replace(&mut self.free, at);
                        self.in_flight -= 1;
                        return Some(found);
                    }
                    (prev, at) = (at, msg.next);
                }
            } else {
                // Another source's run is stepped over whole.
                #[cfg(test)]
                tests::count_lookup_step();
            }
            (prev_run, run) = (run, skip);
        }
        None
    }

    /// Unlink message `at` (after `prev`) of the run headed by `run` (after
    /// the run headed by `prev_run`) from `dst`'s mailbox.
    fn unlink(&mut self, dst: usize, prev_run: u32, run: u32, prev: u32, at: u32) {
        let gone = self.slab[at as usize];
        if at != run {
            self.slab[prev as usize].next = gone.next;
            let head = &mut self.slab[run as usize];
            if head.run_tail == at {
                head.run_tail = prev;
            }
            return;
        }
        // A run head: its successor inherits the run, or the run is gone.
        let heir = if gone.next == NIL {
            gone.skip
        } else {
            let heir = &mut self.slab[gone.next as usize];
            (heir.skip, heir.run_tail) = (gone.skip, gone.run_tail);
            gone.next
        };
        let (first, last) = &mut self.ends[dst];
        if prev_run == NIL {
            *first = heir;
        } else {
            self.slab[prev_run as usize].skip = heir;
        }
        if *last == run {
            *last = if gone.next == NIL { prev_run } else { heir };
        }
    }
}

struct Engine<'f, F: Fabric> {
    fabric: &'f mut F,
    /// Per-destination slot payload length. Every `SendSlot` in the current
    /// schedules moves a slot that still holds its *initial* `elems`-element
    /// payload (received slots are never re-sent), so the simulators charge
    /// `elems` per slot send without materializing the p² slot table the
    /// reference keeps — 12 GB at p = 27,648 for alltoall.
    elems: usize,
    /// One schedule per rank, held by value.
    scheds: Vec<AnySchedule>,
    clock: Vec<f64>,
    messages: Vec<u64>,
    bytes: Vec<u64>,
    /// `waiting[r] = Some((src, tag))` while rank `r` is blocked on that
    /// channel, so the matching post requeues `r` without a lookup.
    waiting: Vec<Option<(usize, u64)>>,
    /// Every posted, not yet received message.
    mail: Mailboxes,
    runnable: Vec<usize>,
    /// Ranks whose schedules have not finished.
    live: usize,
}

impl<F: Fabric> Engine<'_, F> {
    /// Fire-and-forget send: the sender's clock does not advance; the
    /// message becomes receivable at the fabric's completion time. If the
    /// receiver is blocked on exactly this channel, requeue it.
    fn post(&mut self, me: usize, to: usize, tag: u64, len: usize) {
        let ready = self
            .fabric
            .transfer(me, to, (len * 4) as f64, self.clock[me]);
        self.messages[me] += 1;
        self.bytes[me] += (len * 4) as u64;
        self.mail.push(me, to, tag, len, ready);
        if self.waiting[to] == Some((me, tag)) {
            self.waiting[to] = None;
            self.runnable.push(to);
        }
    }

    /// Run rank `me` until it blocks on an unposted message or finishes.
    fn run_rank(&mut self, me: usize) {
        loop {
            let Some(op) = self.scheds[me].current() else {
                self.live -= 1;
                return;
            };
            match op {
                Op::Send { to, tag, win } => self.post(me, to, tag, win.1 - win.0),
                Op::SendSlot { to, tag, .. } => self.post(me, to, tag, self.elems),
                Op::Recv {
                    from, tag, then, ..
                } => {
                    let Some((len, ready)) = self.mail.take(from, me, tag) else {
                        self.waiting[me] = Some((from, tag));
                        return;
                    };
                    if ready > self.clock[me] {
                        self.clock[me] = ready;
                    }
                    if let Disposal::Forward { to, tag } = then {
                        self.post(me, to, tag, len);
                    }
                }
                Op::RecvSlot { from, tag, .. } | Op::RecvScatter { from, tag, .. } => {
                    let Some((_len, ready)) = self.mail.take(from, me, tag) else {
                        self.waiting[me] = Some((from, tag));
                        return;
                    };
                    if ready > self.clock[me] {
                        self.clock[me] = ready;
                    }
                }
                // A Bruck round's combined message: closed-form block count
                // (all slots stay at their initial `elems` length).
                Op::SendGather { to, tag, bit } => {
                    let len = crate::engine::bruck_count(self.clock.len(), bit) * self.elems;
                    self.post(me, to, tag, len);
                }
            }
            self.scheds[me].advance();
        }
    }

    fn run(mut self) -> ModelReport {
        while let Some(me) = self.runnable.pop() {
            self.run_rank(me);
        }
        assert!(
            self.live == 0,
            "model transport deadlock: schedules stalled with ranks unfinished"
        );
        assert!(
            self.mail.in_flight == 0,
            "model transport leak: {} messages posted and never received",
            self.mail.in_flight
        );
        let time_seconds = self.clock.iter().copied().fold(0.0, f64::max);
        ModelReport {
            per_rank_messages: self.messages,
            per_rank_bytes: self.bytes,
            per_rank_seconds: self.clock,
            time_seconds,
        }
    }
}

fn run_engine<F: Fabric>(
    collective: Collective,
    p: usize,
    elems: usize,
    fabric: &mut F,
) -> ModelReport {
    assert!(p > 0, "world size must be positive");
    // The message store links ranks and slab nodes through `u32`s.
    assert!(
        p < u32::MAX as usize,
        "world size {p} exceeds the simulator's u32 rank index"
    );
    // Sanity-check the slot invariant the engine relies on (see
    // `Engine::elems`): every initially populated slot holds `elems`.
    debug_assert!((0..p.min(4)).all(|me| slots_for(collective, p, me, elems)
        .iter()
        .all(|&l| l == 0 || l == elems)));
    let scheds = (0..p)
        .map(|me| schedule(collective, p, me, elems))
        .collect();
    Engine {
        fabric,
        elems,
        scheds,
        clock: vec![0.0; p],
        messages: vec![0u64; p],
        bytes: vec![0u64; p],
        waiting: vec![None; p],
        mail: Mailboxes::new(p),
        // Seed in reverse so rank 0 runs first — matches the reference
        // loop's 0..p scan order (irrelevant for uniform fabrics, fixes
        // the deterministic FCFS order for routed ones).
        runnable: (0..p).rev().collect(),
        live: p,
    }
    .run()
}

/// Run a collective's schedule against the model transport: no bytes move;
/// each rank advances a virtual clock under the α–β `link` cost
/// (`transfer_time = α + bytes/β` per message, fire-and-forget sends,
/// receives completing at `max(local clock, message ready time)`).
///
/// Because the model executes the *same* [`Schedule`] the real transport
/// executes, the reported per-rank message and byte counters equal the
/// executed collective's counters exactly — the property
/// `model_vs_execution` pins — and the predicted times reproduce the
/// closed-form α–β collective models for the uniform cases they cover.
/// Event-driven: a send is O(1) and a receive walks the runs queued ahead
/// of its message (under two per event across the full-machine gate), so
/// full-Summit worlds (p = 27,648) simulate in seconds.
///
/// # Panics
/// Panics if `p == 0` or `p ≥ u32::MAX`, on each algorithm's own
/// world-shape requirements, or if the schedules deadlock or leave a
/// message unreceived (schedule bugs, not data conditions).
pub fn simulate(collective: Collective, p: usize, elems: usize, link: LinkModel) -> ModelReport {
    run_engine(collective, p, elems, &mut Uniform(link))
}

/// A [`ModelReport`] extended with the routed fabric's traffic breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// The engine's per-rank accounting (counts identical to the uniform
    /// simulator's — the fabric changes *times*, never traffic).
    pub report: ModelReport,
    /// Simulated events processed (== total messages posted).
    pub events: u64,
    /// Transfers that stayed on intra-node NVLink/X-bus.
    pub nvlink_messages: u64,
    /// Inter-node transfers that stayed under one leaf switch.
    pub intra_leaf_messages: u64,
    /// Transfers that crossed the spine.
    pub spine_messages: u64,
}

/// Simulate a collective with every transfer routed over `cluster`'s fat
/// tree and NVLink graph instead of uniform independent links: intra-node
/// hops run at NVLink/X-bus rates, inter-node hops reserve the source NIC,
/// destination NIC, and (when crossing the spine) both leaf uplink bundles,
/// so concurrent transfers sharing a link serialize — contention the α–β
/// closed forms cannot see.
///
/// Rank placement is block-wise (`rank / gpus_per_node`), matching the
/// grouping `hierarchical_allreduce` assumes.
///
/// # Panics
/// Panics if `p` exceeds the cluster capacity, plus [`simulate`]'s own
/// conditions.
pub fn simulate_on(
    collective: Collective,
    p: usize,
    elems: usize,
    cluster: ClusterModel,
) -> FabricReport {
    let mut net = FlowNet::new(cluster, p);
    let report = run_engine(collective, p, elems, &mut net);
    FabricReport {
        events: report.total_messages(),
        nvlink_messages: net.nvlink_messages,
        intra_leaf_messages: net.intra_leaf_messages,
        spine_messages: net.spine_messages,
        report,
    }
}

/// Simulated cost of one elastic shrink event versus rollback-and-replay,
/// at a given world size — the node-hours argument for elasticity.
///
/// Both paths are modeled on the routed fabric ([`simulate_on`]), so the
/// numbers carry the fat-tree contention the α–β closed forms miss. The
/// model is communication-only: the compute time of the replayed steps is
/// *excluded*, so the reported advantage of the elastic path is a lower
/// bound — real replayed steps also redo their forward/backward work.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticStudy {
    /// World size before the kill.
    pub p: usize,
    /// Gradient elements per allreduce step.
    pub elems: usize,
    /// Control-plane time of the shrink protocol: the survivor vote
    /// (all-to-all health bits) plus two quiesce barriers (token gather +
    /// release fan-out each), in seconds. The drain itself is local.
    pub shrink_protocol_s: f64,
    /// One allreduce step at p − 1 — the first post-shrink step.
    pub step_after_shrink_s: f64,
    /// One allreduce step at p — what the rollback path replays.
    pub step_before_shrink_s: f64,
    /// Elastic path: protocol + the first step at p − 1.
    pub elastic_total_s: f64,
    /// Rollback path: reallocation stall + `replay_steps` steps at p.
    pub replay_total_s: f64,
    /// Steps the rollback path replays (checkpoint interval / 2 on
    /// average).
    pub replay_steps: usize,
    /// Scheduler requeue stall the rollback path waits out for a
    /// replacement rank, in seconds.
    pub realloc_stall_s: f64,
    /// Rank-seconds lost by the elastic path (p − 1 survivors stalled for
    /// the shrink).
    pub elastic_rank_seconds: f64,
    /// Rank-seconds lost by the replay path (all p ranks stalled and
    /// replaying).
    pub replay_rank_seconds: f64,
    /// `replay_rank_seconds / elastic_rank_seconds`.
    pub advantage: f64,
}

/// Model one shrink event at world size `p` against rollback-and-replay
/// with `replay_steps` lost steps and a `realloc_stall_s` scheduler
/// requeue, over `cluster`'s routed fabric.
///
/// # Panics
/// Panics if `p < 2` or `p` exceeds the cluster capacity.
pub fn elastic_shrink_study(
    p: usize,
    elems: usize,
    replay_steps: usize,
    realloc_stall_s: f64,
    cluster: ClusterModel,
) -> ElasticStudy {
    assert!(p >= 2, "a shrink needs at least two ranks");
    let time = |collective, ranks, n| {
        simulate_on(collective, ranks, n, cluster)
            .report
            .time_seconds
    };
    // The vote is an all-to-all of 1-element health bits among the old
    // members; each quiesce barrier is a token gather to the leader plus a
    // release fan-out (modeled as a 1-element scatter).
    let vote_s = time(Collective::Alltoall, p, 1);
    let barrier_s =
        time(Collective::Gather { root: 0 }, p, 1) + time(Collective::Scatter { root: 0 }, p, 1);
    let shrink_protocol_s = vote_s + 2.0 * barrier_s;
    let ring = Collective::RingAllreduce {
        bucket_elems: usize::MAX,
    };
    let step_after_shrink_s = time(ring, p - 1, elems);
    let step_before_shrink_s = time(ring, p, elems);
    let elastic_total_s = shrink_protocol_s + step_after_shrink_s;
    let replay_total_s = realloc_stall_s + replay_steps as f64 * step_before_shrink_s;
    let elastic_rank_seconds = elastic_total_s * (p - 1) as f64;
    let replay_rank_seconds = replay_total_s * p as f64;
    ElasticStudy {
        p,
        elems,
        shrink_protocol_s,
        step_after_shrink_s,
        step_before_shrink_s,
        elastic_total_s,
        replay_total_s,
        replay_steps,
        realloc_stall_s,
        elastic_rank_seconds,
        replay_rank_seconds,
        advantage: replay_rank_seconds / elastic_rank_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{all_collectives, simulate_reference};
    use proptest::prelude::*;
    use std::collections::{HashMap, VecDeque};

    const LINK: LinkModel = LinkModel {
        alpha: 2.0e-6,
        beta: 12.5e9,
    };

    thread_local! {
        /// Messages `Mailboxes::take` has examined on this thread.
        static LOOKUP_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn count_lookup_step() {
        LOOKUP_STEPS.with(|s| s.set(s.get() + 1));
    }

    /// `dst`'s mailbox in list order as `(src, tag, len)`, checking the
    /// links on the way: one source per run, `run_tail` on the run's last
    /// message, `ends` on the first and last run heads.
    fn contents(mail: &Mailboxes, dst: usize) -> Vec<(usize, u64, usize)> {
        let (first, last) = mail.ends[dst];
        let mut out = Vec::new();
        let (mut prev_run, mut run) = (NIL, first);
        while run != NIL {
            let head = mail.slab[run as usize];
            let mut at = run;
            loop {
                let msg = mail.slab[at as usize];
                assert_eq!(msg.src, head.src, "a run has one source");
                out.push((msg.src as usize, msg.tag, msg.len));
                if msg.next == NIL {
                    break;
                }
                at = msg.next;
            }
            assert_eq!(head.run_tail, at, "run_tail is the run's last message");
            (prev_run, run) = (run, head.skip);
        }
        assert_eq!(last, prev_run, "ends holds the last run's head");
        out
    }

    /// Take every listed message (each must be the oldest of its channel
    /// when its turn comes) and check the store ends up empty.
    fn drain(mail: &mut Mailboxes, dst: usize, order: &[(usize, u64, usize)]) {
        for &(src, tag, len) in order {
            assert_eq!(mail.take(src, dst, tag).map(|m| m.0), Some(len));
            contents(mail, dst);
        }
        assert_eq!(mail.in_flight, 0);
        assert_eq!(mail.ends[dst], (NIL, NIL));
    }

    /// Messages of one (src, tag) leave in arrival order however other
    /// sources and tags interleave with them; `len` numbers the arrivals.
    #[test]
    fn mailbox_is_fifo_per_source_and_tag() {
        let arrivals = [
            (1usize, 7u64),
            (2, 7),
            (1, 7),
            (1, 8),
            (2, 7),
            (3, 7),
            (1, 8),
            (2, 9),
            (1, 7),
        ];
        let mut mail = Mailboxes::new(2);
        for (seq, &(src, tag)) in arrivals.iter().enumerate() {
            mail.push(src, 0, tag, seq, seq as f64);
        }
        assert_eq!(contents(&mail, 0).len(), arrivals.len());
        assert!(contents(&mail, 1).is_empty());
        for channel in [(2, 7), (1, 8), (3, 7), (1, 7), (2, 9)] {
            for (seq, _) in arrivals.iter().enumerate().filter(|(_, &a)| a == channel) {
                assert_eq!(mail.take(channel.0, 0, channel.1), Some((seq, seq as f64)));
                contents(&mail, 0);
            }
            assert_eq!(mail.take(channel.0, 0, channel.1), None);
        }
        drain(&mut mail, 0, &[]);
    }

    /// Three runs of three messages: taking the head, middle or tail of the
    /// first, middle or last run leaves the other eight in arrival order
    /// and a mailbox that still appends and drains correctly.
    #[test]
    fn take_unlinks_any_position_of_any_run() {
        let src_of = |seq: usize| if seq < 9 { 1 + seq / 3 } else { seq - 8 };
        for victim in 0..9usize {
            let mut mail = Mailboxes::new(1);
            // The tag is the arrival number, so every message is addressable.
            for seq in 0..9 {
                mail.push(src_of(seq), 0, seq as u64, seq, 0.0);
            }
            assert_eq!(mail.take(src_of(victim), 0, 77), None);
            assert_eq!(
                mail.take(src_of(victim), 0, victim as u64),
                Some((victim, 0.0))
            );
            // Source 1 opens a fourth run, source 2 a fifth.
            mail.push(src_of(9), 0, 9, 9, 0.0);
            mail.push(src_of(10), 0, 10, 10, 0.0);
            let mut rest: Vec<_> = (0..11)
                .filter(|&seq| seq != victim)
                .map(|seq| (src_of(seq), seq as u64, seq))
                .collect();
            assert_eq!(contents(&mail, 0), rest);
            if victim % 2 == 1 {
                rest.reverse(); // drain from the tails instead of the heads
            }
            drain(&mut mail, 0, &rest);
            assert_eq!(mail.slab.len(), 10, "peak in flight");
        }
    }

    /// Draining a middle run leaves two runs of one source adjacent and
    /// unmerged; lookups still meet the older one first, and an append
    /// extends the younger.
    #[test]
    fn adjacent_runs_of_one_source_stay_oldest_first() {
        let mut mail = Mailboxes::new(1);
        for (seq, src) in [1, 1, 2, 1].into_iter().enumerate() {
            mail.push(src, 0, 5, seq, 0.0);
        }
        assert_eq!(mail.take(2, 0, 5), Some((2, 0.0)));
        mail.push(1, 0, 5, 4, 0.0);
        let rest = [(1, 5, 0), (1, 5, 1), (1, 5, 3), (1, 5, 4)];
        assert_eq!(contents(&mail, 0), rest);
        drain(&mut mail, 0, &rest);
    }

    /// Freed nodes are reused before the slab grows: 10⁵ push/take pairs
    /// on top of five parked messages never need a seventh node.
    #[test]
    fn slab_never_outgrows_peak_in_flight() {
        let mut mail = Mailboxes::new(4);
        for seq in 0..5 {
            mail.push(seq % 3, 3, 0, seq, 0.0);
        }
        for seq in 0..100_000usize {
            let (src, dst) = (seq % 4, (seq / 4) % 4);
            mail.push(src, dst, 1 + seq as u64, seq, 0.0);
            assert_eq!(mail.take(src, dst, 1 + seq as u64), Some((seq, 0.0)));
        }
        assert_eq!(mail.in_flight, 5);
        assert_eq!(mail.slab.len(), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pushes and takes against the structure the mailboxes
        /// replaced, a map of per-(src, dst, tag) queues: every take returns
        /// what the map's queue would, and the slab stays at the peak.
        #[test]
        fn mailboxes_match_a_map_of_channel_queues(
            ops in proptest::collection::vec((0usize..5, 0usize..4, 0usize..3, 0u64..3), 1..400),
        ) {
            let mut mail = Mailboxes::new(3);
            let mut model: HashMap<(usize, usize, u64), VecDeque<(usize, f64)>> = HashMap::new();
            let mut peak = 0;
            for (seq, &(kind, src, dst, tag)) in ops.iter().enumerate() {
                let queue = model.entry((src, dst, tag)).or_default();
                if kind < 2 {
                    mail.push(src, dst, tag, seq, seq as f64);
                    queue.push_back((seq, seq as f64));
                } else {
                    prop_assert_eq!(mail.take(src, dst, tag), queue.pop_front());
                }
                peak = peak.max(mail.in_flight);
                prop_assert_eq!(contents(&mail, dst).len(), model.iter()
                    .filter(|(k, _)| k.1 == dst).map(|(_, q)| q.len()).sum::<usize>());
            }
            for (&(src, dst, tag), queue) in &mut model {
                while let Some(msg) = queue.pop_front() {
                    prop_assert_eq!(mail.take(src, dst, tag), Some(msg));
                }
                prop_assert_eq!(mail.take(src, dst, tag), None);
            }
            prop_assert_eq!(mail.in_flight, 0);
            prop_assert_eq!(mail.slab.len(), peak);
        }
    }

    /// A rank index the store's `u32` links cannot hold is refused before
    /// anything is allocated for it.
    #[test]
    #[should_panic(expected = "exceeds the simulator's u32 rank index")]
    fn world_size_beyond_u32_is_refused() {
        simulate(Collective::ReduceScatter, u32::MAX as usize, 1, LINK);
    }

    /// A schedule whose message nobody receives fails the run instead of
    /// being dropped with the store: a scatter root beside a rank that
    /// never posts its receive.
    #[test]
    #[should_panic(expected = "model transport leak: 1 messages posted and never received")]
    fn orphaned_message_fails_the_run() {
        // Rank 0 scatters to a rank 1 whose own schedule is already done.
        let scheds =
            [(2, 0), (1, 0)].map(|(p, me)| schedule(Collective::Scatter { root: 0 }, p, me, 1));
        Engine {
            fabric: &mut Uniform(LINK),
            elems: 1,
            scheds: scheds.into(),
            clock: vec![0.0; 2],
            messages: vec![0; 2],
            bytes: vec![0; 2],
            waiting: vec![None; 2],
            mail: Mailboxes::new(2),
            runnable: vec![1, 0],
            live: 2,
        }
        .run();
    }

    /// The event-driven engine is bit-equal to the polling reference:
    /// identical virtual times (exact f64 equality) and identical traffic.
    #[test]
    fn event_engine_matches_reference_bit_for_bit() {
        for p in [1usize, 2, 3, 4, 5, 8] {
            for elems in [0usize, 1, 13, 24, 64] {
                for c in all_collectives(p, elems) {
                    let fast = simulate(c, p, elems, LINK);
                    let slow = simulate_reference(c, p, elems, LINK);
                    assert_eq!(
                        fast.per_rank_messages, slow.per_rank_messages,
                        "{c:?} p={p}"
                    );
                    assert_eq!(fast.per_rank_bytes, slow.per_rank_bytes, "{c:?} p={p}");
                    assert_eq!(
                        fast.per_rank_seconds, slow.per_rank_seconds,
                        "{c:?} p={p} n={elems}"
                    );
                }
            }
        }
    }

    /// Routing over the cluster keeps traffic counts identical to the
    /// uniform fabric — only the times change.
    #[test]
    fn routed_fabric_preserves_traffic_counts() {
        let cluster = ClusterModel::summit_like(4);
        for c in all_collectives(12, 24) {
            let uniform = simulate(c, 12, 24, LINK);
            let routed = simulate_on(c, 12, 24, cluster);
            assert_eq!(uniform.per_rank_messages, routed.report.per_rank_messages);
            assert_eq!(uniform.per_rank_bytes, routed.report.per_rank_bytes);
            assert_eq!(routed.events, routed.report.total_messages());
            assert_eq!(
                routed.events,
                routed.nvlink_messages + routed.intra_leaf_messages + routed.spine_messages,
                "every message is classified once: {c:?}"
            );
        }
    }

    /// A hierarchical allreduce on the block placement keeps its intra-group
    /// phases on NVLink: only the leader ring crosses the fabric.
    #[test]
    fn hierarchical_traffic_lands_on_nvlink() {
        let cluster = ClusterModel::summit_like(4);
        let out = simulate_on(
            Collective::HierarchicalAllreduce { group_size: 6 },
            24,
            48,
            cluster,
        );
        // Up/down fan traffic (intra-node) must be NVLink; the 4-leader
        // ring crosses nodes.
        assert!(out.nvlink_messages > 0);
        assert!(out.intra_leaf_messages + out.spine_messages > 0);
        // 20 members send up + 20 receive down = 40 NVLink messages.
        assert_eq!(out.nvlink_messages, 40);
    }

    /// Full-machine smoke: a sparse ring allreduce at p = 27,648 completes
    /// (the sparse fast-forward keeps empty chunks O(1)) and matches the
    /// exact sparse traffic formula 2(p−1)·elems messages... of which the
    /// elems non-empty chunks each travel 2(p−1) hops.
    #[test]
    fn full_summit_sparse_ring_traffic_is_exact() {
        let p = 27_648usize;
        let elems = 16usize;
        let out = simulate(
            Collective::RingAllreduce {
                bucket_elems: usize::MAX,
            },
            p,
            elems,
            LINK,
        );
        // Sparse ring: only chunks 0..elems are non-empty; each non-empty
        // chunk moves p−1 times in each phase, 4 bytes per element.
        assert_eq!(out.total_bytes() as usize, 4 * 2 * (p - 1) * elems);
    }

    /// Lookup steps (messages `take` examined) per simulated event of one
    /// full-machine collective on the routed Summit fabric.
    fn full_machine_steps_per_event(collective: Collective, elems: usize) -> f64 {
        let before = LOOKUP_STEPS.get();
        let out = simulate_on(collective, 27_648, elems, ClusterModel::summit_like(4608));
        let steps = LOOKUP_STEPS.get() - before;
        println!(
            "{collective:?}: {steps} lookup steps for {} events",
            out.events
        );
        steps as f64 / out.events as f64
    }

    /// A receive finds its message within a few links at full machine: the
    /// 13 cases of the `sim_fullmachine` benchmark workload, plus a 64-rank
    /// group whose leaders fan in 63 members past their ring neighbour's
    /// backlog (one list per receiver instead of runs: 28 steps per event).
    #[test]
    fn full_machine_lookups_stay_within_eight_steps_per_event() {
        let flat = Collective::RingAllreduce {
            bucket_elems: usize::MAX,
        };
        let cases = [
            (flat, 128),
            (Collective::RingAllreduce { bucket_elems: 256 }, 128),
            (Collective::ReduceScatter, 128),
            (Collective::RingAllgather, 128),
            (Collective::RecursiveDoubling, 16_384),
            (Collective::Rabenseifner, 16_384),
            (Collective::BinomialBroadcast { root: 0 }, 16_384),
            (Collective::BinomialReduce { root: 0 }, 16_384),
            (Collective::TreeAllreduce, 16_384),
            (Collective::HierarchicalAllreduce { group_size: 6 }, 4608),
            (Collective::Alltoall, 1),
            (Collective::Scatter { root: 0 }, 16_384),
            (Collective::Gather { root: 0 }, 16_384),
            (Collective::HierarchicalAllreduce { group_size: 64 }, 4608),
        ];
        for (collective, elems) in cases {
            let per_event = full_machine_steps_per_event(collective, elems);
            assert!(per_event <= 8.0, "{collective:?}: {per_event} steps/event");
        }
    }

    /// The same bound with every rank its own group: a dense 27,648-rank
    /// leader ring, 1.5 × 10⁹ events.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "1.5e9 events: run under --release")]
    fn dense_full_machine_ring_lookups_stay_within_eight_steps_per_event() {
        let ring = Collective::HierarchicalAllreduce { group_size: 1 };
        assert!(full_machine_steps_per_event(ring, 128) <= 8.0);
    }

    /// The elastic study's accounting is internally consistent, and with
    /// any nonzero reallocation stall the shrink protocol (microseconds of
    /// control traffic) beats rollback-and-replay on rank-seconds.
    #[test]
    fn elastic_shrink_study_is_consistent() {
        let study = elastic_shrink_study(48, 1 << 16, 10, 30.0, ClusterModel::summit_like(8));
        assert!(study.shrink_protocol_s > 0.0);
        assert!(study.step_after_shrink_s > 0.0 && study.step_before_shrink_s > 0.0);
        assert_eq!(
            study.elastic_total_s,
            study.shrink_protocol_s + study.step_after_shrink_s
        );
        assert_eq!(
            study.replay_total_s,
            study.realloc_stall_s + 10.0 * study.step_before_shrink_s
        );
        assert!(
            study.advantage > 1.0,
            "elastic must beat replay under a stall: {study:?}"
        );
    }
}
