//! Deterministic fault-injection plane for the communicator.
//!
//! The paper's Table I leads with the fault-detection motif ("detect
//! algorithmic or other failure in execution, send signal for automatic or
//! manual remediation"); at 27,648-GPU scale transient link and rank
//! failures are the norm. This module gives the threads-as-ranks
//! communicator a **seeded, replayable failure model** so the rest of the
//! stack can be chaos-tested:
//!
//! * [`FaultPlan`] — an immutable schedule of [`FaultEvent`]s keyed by
//!   `(src, dst, tag class, step)`. Plans are built explicitly or sampled
//!   from a seed ([`FaultPlan::seeded`]), serialize to JSON
//!   ([`FaultPlan::to_json`]) so a failing chaos case can be archived and
//!   replayed, and fire each event **exactly once** (atomic fired flags), so
//!   a recovery retry of the same step re-executes cleanly.
//! * [`FaultKind`] — the taxonomy: message **drop** (link loss), message
//!   **delay** (congestion), payload **corruption** (bit flip, detected by a
//!   transport checksum), and **rank kill** (node failure; the rank aborts
//!   its current step and must restart from a checkpoint).
//! * [`CommError`] — what the timeout-aware primitives
//!   ([`Rank::recv_checked`], `collectives::try_run`,
//!   `RingAllreduceHandle::wait_deadline`) surface instead of hanging.
//! * [`CONTROL_BIT`] — the control plane recovery is built on: fault
//!   injection **never** touches tags carrying it, mirroring real systems'
//!   reliable out-of-band control network (the paper's "send signal for
//!   remediation" path must survive the fault itself). The votes and
//!   barriers that ride on it live in [`crate::elastic`].
//!
//! The plane is zero-cost when disabled: a world run by [`World::execute`]
//! carries no plan, and every hook is one `Option` test on a field that is
//! `None` — the hot-path counting-allocator test pins that steady-state
//! collectives still allocate nothing.
//!
//! [`Rank::recv_checked`]: crate::world::Rank::recv_checked
//! [`World::execute`]: crate::world::World::execute

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tag bit reserved for control-plane traffic (votes, recovery
/// coordination). The fault plane never drops, delays, or corrupts a
/// message whose tag carries this bit, and transport checksums are not
/// attached to it either. Blocking collective tags (`collective << 32`,
/// small ids) and nonblocking tags (`1 << 63 | collective << 13`, bucket-
/// scale ids) never reach it.
pub const CONTROL_BIT: u64 = 1 << 62;

/// Errors surfaced by the timeout-aware communicator primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived before the deadline.
    Timeout {
        /// Rank the receive was posted against.
        from: usize,
        /// Tag the receive was posted against.
        tag: u64,
    },
    /// A payload arrived whose transport checksum does not match — the
    /// message was corrupted in flight.
    Corrupt {
        /// Sending rank.
        from: usize,
        /// Message tag.
        tag: u64,
    },
    /// This rank was killed by the fault plan: it must abandon the step
    /// and restart from its last checkpoint.
    RankKilled {
        /// The killed rank (always the caller).
        rank: usize,
    },
    /// A peer rank disconnected (its thread exited) while a receive was
    /// posted against it.
    Disconnected {
        /// The vanished rank.
        from: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { from, tag } => {
                write!(f, "timed out waiting for rank {from} tag {tag:#x}")
            }
            CommError::Corrupt { from, tag } => {
                write!(f, "corrupt payload from rank {from} tag {tag:#x}")
            }
            CommError::RankKilled { rank } => write!(f, "rank {rank} killed by fault plan"),
            CommError::Disconnected { from } => write!(f, "rank {from} disconnected"),
        }
    }
}

impl std::error::Error for CommError {}

/// Which tag namespace an event applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagClass {
    /// Any data-plane tag (blocking or nonblocking). Control-plane tags are
    /// exempt regardless.
    Any,
    /// Blocking-collective tags with the given collective id (the
    /// `collective << 32` namespace of `collectives::tag_seg`).
    Blocking(u64),
    /// Nonblocking-handle tags with the given collective id (the
    /// `NB_BIT | id << 13` namespace of `RingAllreduceHandle`).
    Nonblocking(u64),
}

impl TagClass {
    /// Whether a concrete wire tag falls in this class. Control-plane tags
    /// never match any class.
    pub fn matches(self, tag: u64) -> bool {
        if tag & CONTROL_BIT != 0 {
            return false;
        }
        const NB_BIT: u64 = 1 << 63;
        match self {
            TagClass::Any => true,
            TagClass::Blocking(id) => tag & NB_BIT == 0 && tag >> 32 == id,
            TagClass::Nonblocking(id) => tag & NB_BIT != 0 && ((tag & !NB_BIT) >> 13) == id,
        }
    }

    fn json(self) -> String {
        match self {
            TagClass::Any => "{\"class\":\"any\"}".to_string(),
            TagClass::Blocking(id) => format!("{{\"class\":\"blocking\",\"id\":{id}}}"),
            TagClass::Nonblocking(id) => format!("{{\"class\":\"nonblocking\",\"id\":{id}}}"),
        }
    }
}

/// The fault taxonomy (paper Table I, row 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message is silently discarded; the receiver's timeout fires.
    Drop,
    /// Delivery is delayed by the given number of milliseconds (the sender
    /// stalls, modeling congestion on the egress link).
    Delay(u64),
    /// One payload element has a mantissa bit flipped after the transport
    /// checksum is computed, so the receiver detects the corruption.
    Corrupt,
    /// The rank abandons its current step at its next data-plane
    /// operation, as if the node died and restarted from a checkpoint.
    Kill,
}

impl FaultKind {
    fn json(self) -> String {
        match self {
            FaultKind::Drop => "{\"kind\":\"drop\"}".to_string(),
            FaultKind::Delay(ms) => format!("{{\"kind\":\"delay\",\"ms\":{ms}}}"),
            FaultKind::Corrupt => "{\"kind\":\"corrupt\"}".to_string(),
            FaultKind::Kill => "{\"kind\":\"kill\"}".to_string(),
        }
    }
}

/// One scheduled fault: fire `kind` on messages `src → dst` in `tag_class`
/// at application step `step`, exactly once.
///
/// For [`FaultKind::Kill`] only `src` (the killed rank) and `step` are
/// consulted.
#[derive(Debug)]
pub struct FaultEvent {
    /// Sending rank (or the killed rank for [`FaultKind::Kill`]).
    pub src: usize,
    /// Destination rank (ignored for kills).
    pub dst: usize,
    /// Tag namespace the event applies to (ignored for kills).
    pub tag_class: TagClass,
    /// Application step (see [`Rank::set_fault_step`](crate::world::Rank::set_fault_step))
    /// the event fires at.
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
    fired: AtomicBool,
}

impl FaultEvent {
    fn new(src: usize, dst: usize, tag_class: TagClass, step: u64, kind: FaultKind) -> Self {
        FaultEvent {
            src,
            dst,
            tag_class,
            step,
            kind,
            fired: AtomicBool::new(false),
        }
    }

    /// Whether the event has already fired (events are one-shot so a
    /// recovery retry of the same step runs clean).
    fn has_fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// Atomically claim the event; true exactly once.
    fn claim(&self) -> bool {
        !self.fired.swap(true, Ordering::Relaxed)
    }

    fn json(&self) -> String {
        format!(
            "{{\"src\":{},\"dst\":{},\"tag_class\":{},\"step\":{},\"fault\":{}}}",
            self.src,
            self.dst,
            self.tag_class.json(),
            self.step,
            self.kind.json()
        )
    }
}

/// Event rates for [`FaultPlan::seeded`], per (step, directed rank pair).
#[derive(Debug, Clone, Copy)]
pub struct FaultRates {
    /// Probability of a message drop.
    pub drop: f64,
    /// Probability of a delivery delay.
    pub delay: f64,
    /// Delay magnitude in milliseconds when a delay is sampled.
    pub delay_ms: u64,
    /// Probability of a payload corruption.
    pub corrupt: f64,
    /// Probability (per step, per rank) of a rank kill.
    pub kill: f64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            drop: 0.02,
            delay: 0.05,
            delay_ms: 2,
            corrupt: 0.02,
            kill: 0.005,
        }
    }
}

/// A deterministic, seeded schedule of communication faults.
///
/// Immutable once built; shared by every rank of a world via
/// [`World::execute_with_faults`](crate::world::World::execute_with_faults). Event
/// firing state is the only mutability (atomic one-shot flags), so the same
/// plan value drives an identical fault sequence every run.
#[derive(Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// The seed the plan was sampled from, if any (recorded for the JSON
    /// artifact so failures are replayable).
    seed: Option<u64>,
}

impl FaultPlan {
    /// An empty plan (all hooks enabled, nothing ever fires) — used to
    /// measure the cost of the enabled-but-idle fault plane.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Schedule a message drop.
    #[must_use]
    pub fn drop_message(mut self, src: usize, dst: usize, tag_class: TagClass, step: u64) -> Self {
        self.events
            .push(FaultEvent::new(src, dst, tag_class, step, FaultKind::Drop));
        self
    }

    /// Schedule a delivery delay of `ms` milliseconds.
    #[must_use]
    pub fn delay_message(
        mut self,
        src: usize,
        dst: usize,
        tag_class: TagClass,
        step: u64,
        ms: u64,
    ) -> Self {
        self.events.push(FaultEvent::new(
            src,
            dst,
            tag_class,
            step,
            FaultKind::Delay(ms),
        ));
        self
    }

    /// Schedule a payload corruption.
    #[must_use]
    pub fn corrupt_message(
        mut self,
        src: usize,
        dst: usize,
        tag_class: TagClass,
        step: u64,
    ) -> Self {
        self.events.push(FaultEvent::new(
            src,
            dst,
            tag_class,
            step,
            FaultKind::Corrupt,
        ));
        self
    }

    /// Schedule a rank kill at `step`.
    #[must_use]
    pub fn kill_rank(mut self, rank: usize, step: u64) -> Self {
        self.events.push(FaultEvent::new(
            rank,
            rank,
            TagClass::Any,
            step,
            FaultKind::Kill,
        ));
        self
    }

    /// Sample a random plan: for each of `steps` steps and each directed
    /// rank pair of a `p`-rank world, draw drop/delay/corrupt events at the
    /// given rates (and kills per rank). Deterministic in `seed`.
    pub fn seeded(seed: u64, p: usize, steps: u64, rates: &FaultRates) -> Self {
        // SplitMix64: tiny, deterministic, and dependency-free, so plans
        // re-sample identically even if the vendored rand stub evolves.
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next_unit = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        let mut plan = FaultPlan {
            events: Vec::new(),
            seed: Some(seed),
        };
        for step in 0..steps {
            for src in 0..p {
                for dst in 0..p {
                    if src == dst {
                        continue;
                    }
                    if next_unit() < rates.drop {
                        plan = plan.drop_message(src, dst, TagClass::Any, step);
                    }
                    if next_unit() < rates.delay {
                        plan = plan.delay_message(src, dst, TagClass::Any, step, rates.delay_ms);
                    }
                    if next_unit() < rates.corrupt {
                        plan = plan.corrupt_message(src, dst, TagClass::Any, step);
                    }
                }
                if next_unit() < rates.kill {
                    plan = plan.kill_rank(src, step);
                }
            }
        }
        plan
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// How many events have fired so far.
    pub fn fired_count(&self) -> usize {
        self.events.iter().filter(|e| e.has_fired()).count()
    }

    /// Serialize the plan to JSON (hand-rolled: the vendored serde is a
    /// marker-only stub). This is the artifact a failing chaos test
    /// archives so the exact fault schedule can be replayed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        match self.seed {
            Some(s) => out.push_str(&format!("\"seed\":{s},")),
            None => out.push_str("\"seed\":null,"),
        }
        out.push_str("\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&e.json());
        }
        out.push_str("]}");
        out
    }

    fn find(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        step: u64,
        want_kill: bool,
    ) -> Option<&FaultEvent> {
        self.events.iter().find(|e| {
            let is_kill = e.kind == FaultKind::Kill;
            is_kill == want_kill
                && e.step == step
                && e.src == src
                && !e.has_fired()
                && (is_kill || (e.dst == dst && e.tag_class.matches(tag)))
        })
    }
}

/// What a send-side fault hook decided about one outgoing message.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SendVerdict {
    /// Deliver unchanged.
    Deliver,
    /// Discard the message.
    Drop,
    /// Sleep `Duration`, then deliver.
    DelayThenDeliver(Duration),
    /// Deliver with the payload corrupted after checksumming.
    CorruptThenDeliver,
}

/// Per-rank handle on the shared [`FaultPlan`]: the rank's id and its
/// current application step. Owned by one rank thread (Cell-based); the
/// plan itself is shared and atomic. The rank counts what fires in its own
/// traffic counters, from the verdicts returned here.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: Arc<FaultPlan>,
    rank: usize,
    step: std::cell::Cell<u64>,
}

impl FaultState {
    pub(crate) fn new(plan: Arc<FaultPlan>, rank: usize) -> Self {
        FaultState {
            plan,
            rank,
            step: std::cell::Cell::new(0),
        }
    }

    pub(crate) fn set_step(&self, step: u64) {
        self.step.set(step);
    }

    /// Consult the plan for an outgoing message. Claims (fires) at most one
    /// matching event.
    pub(crate) fn on_send(&self, dst: usize, tag: u64) -> SendVerdict {
        if tag & CONTROL_BIT != 0 {
            return SendVerdict::Deliver;
        }
        let step = self.step.get();
        if let Some(e) = self.plan.find(self.rank, dst, tag, step, false) {
            if e.claim() {
                return match e.kind {
                    FaultKind::Drop => SendVerdict::Drop,
                    FaultKind::Delay(ms) => {
                        SendVerdict::DelayThenDeliver(Duration::from_millis(ms))
                    }
                    FaultKind::Corrupt => SendVerdict::CorruptThenDeliver,
                    FaultKind::Kill => unreachable!("kills are matched separately"),
                };
            }
        }
        SendVerdict::Deliver
    }

    /// Whether this rank is scheduled to die at its current step. Claims
    /// the kill event (one-shot: after recovery the "restarted" rank lives).
    pub(crate) fn poll_kill(&self) -> Result<(), CommError> {
        let step = self.step.get();
        if let Some(e) = self.plan.find(self.rank, self.rank, 0, step, true) {
            if e.claim() {
                return Err(CommError::RankKilled { rank: self.rank });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_classes_partition_the_namespace() {
        let blocking = 3u64 << 32 | 17; // collective 3, step 17
        let nb = (1u64 << 63) | (9 << 13) | 4; // NB collective 9
        let control = CONTROL_BIT | 5;
        assert!(TagClass::Any.matches(blocking));
        assert!(TagClass::Any.matches(nb));
        assert!(!TagClass::Any.matches(control));
        assert!(TagClass::Blocking(3).matches(blocking));
        assert!(!TagClass::Blocking(4).matches(blocking));
        assert!(!TagClass::Blocking(3).matches(nb));
        assert!(TagClass::Nonblocking(9).matches(nb));
        assert!(!TagClass::Nonblocking(8).matches(nb));
        assert!(!TagClass::Nonblocking(9).matches(blocking));
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let rates = FaultRates::default();
        let a = FaultPlan::seeded(42, 4, 10, &rates);
        let b = FaultPlan::seeded(42, 4, 10, &rates);
        assert_eq!(a.to_json(), b.to_json());
        let c = FaultPlan::seeded(43, 4, 10, &rates);
        assert_ne!(a.to_json(), c.to_json());
    }

    #[test]
    fn events_fire_exactly_once() {
        let plan = FaultPlan::empty().drop_message(0, 1, TagClass::Any, 7);
        let state = FaultState::new(Arc::new(plan), 0);
        state.set_step(7);
        assert_eq!(state.on_send(1, 0), SendVerdict::Drop);
        // One-shot: the retry of the same step delivers.
        assert_eq!(state.on_send(1, 0), SendVerdict::Deliver);
    }

    #[test]
    fn events_respect_step_and_pair_keys() {
        let plan = Arc::new(FaultPlan::empty().drop_message(0, 1, TagClass::Blocking(2), 3));
        let state = FaultState::new(Arc::clone(&plan), 0);
        // Wrong step.
        state.set_step(2);
        assert_eq!(state.on_send(1, 2 << 32), SendVerdict::Deliver);
        state.set_step(3);
        // Wrong destination.
        assert_eq!(state.on_send(2, 2 << 32), SendVerdict::Deliver);
        // Wrong collective id.
        assert_eq!(state.on_send(1, 5 << 32), SendVerdict::Deliver);
        // Control tags are always exempt.
        assert_eq!(
            state.on_send(1, CONTROL_BIT | 2 << 32),
            SendVerdict::Deliver
        );
        // Exact match fires.
        assert_eq!(state.on_send(1, 2 << 32), SendVerdict::Drop);
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn kill_is_one_shot_per_plan() {
        let state = FaultState::new(Arc::new(FaultPlan::empty().kill_rank(1, 5)), 1);
        state.set_step(4);
        assert!(state.poll_kill().is_ok());
        state.set_step(5);
        assert_eq!(state.poll_kill(), Err(CommError::RankKilled { rank: 1 }));
        // The "restarted" rank replays step 5 without dying again.
        assert!(state.poll_kill().is_ok());
    }

    #[test]
    fn json_roundtrips_the_schedule_shape() {
        let plan = FaultPlan::seeded(7, 3, 4, &FaultRates::default());
        let json = plan.to_json();
        assert!(json.starts_with("{\"seed\":7,"));
        assert_eq!(
            json.matches("{\"src\":").count(),
            plan.events().len(),
            "{json}"
        );
        let built = FaultPlan::empty()
            .drop_message(0, 1, TagClass::Any, 2)
            .delay_message(1, 0, TagClass::Blocking(4), 3, 10)
            .corrupt_message(2, 1, TagClass::Nonblocking(6), 1)
            .kill_rank(2, 9);
        let j = built.to_json();
        assert!(j.contains("\"seed\":null"));
        assert!(j.contains("\"kind\":\"drop\""));
        assert!(j.contains("\"kind\":\"delay\",\"ms\":10"));
        assert!(j.contains("\"kind\":\"corrupt\""));
        assert!(j.contains("\"kind\":\"kill\""));
    }
}
