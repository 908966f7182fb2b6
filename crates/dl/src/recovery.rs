//! Fault-tolerant data-parallel training: one step, one control plane, one
//! recovery loop with two remediations.
//!
//! The paper's fault motif (Table I, row 1) is *detect → signal →
//! remediate*. [`DataParallelTrainer::run_fault_tolerant`] runs that loop
//! once, and the [`Remediation`] in its [`RecoveryConfig`] is the last verb:
//!
//! 1. **Detect** — every attempt is the shared data-parallel step
//!    (`crate::step`) on its checked surface: the gradient collectives run
//!    over a [`WorldView`] on the deadline-bounded, checksummed drivers, so
//!    drops, corruption, delays past the deadline, and scheduled rank kills
//!    surface as [`CommError`] instead of hangs.
//! 2. **Signal** — after every attempt the view's members exchange health
//!    bits with [`vote_members`] on
//!    [`CONTROL_BIT`](summit_comm::CONTROL_BIT) tags, which the fault plane
//!    never touches: the reliable out-of-band control network. A step
//!    commits only if every member's collective finished clean; otherwise
//!    the members quiesce (view barrier → [`Rank::drain_all`] → view
//!    barrier), sweeping the half-finished traffic off the data fabric.
//! 3. **Remediate** — the one place the loop reads its policy.
//!    [`Remediation::Rollback`] keeps the membership (the full view at
//!    epoch 0, all run): every rank restores the last whole in-memory
//!    [`ElasticCheckpoint`] and replays from its step.
//!    [`Remediation::Shrink`] keeps the step: the survivors adopt the vote's
//!    mask as a smaller view, re-derive the collective schedules and the data
//!    sharding at `p-1`, and retry — and can later re-admit the evicted ranks
//!    at a step boundary (hot join).
//!
//! Both are **bit-exact**: sharding is a pure function of `(step, view)`,
//! fault events are one-shot (a retried step re-executes clean), and the
//! checked collectives drive the *same* schedule objects as the infallible
//! path, sharing fold and operand order by construction. A rolled-back run
//! lands on exactly the fault-free trajectory, and a shrunk continuation on
//! that of a fresh `p-1`-rank run from the same checkpoint; the chaos and
//! elastic suites in `tests/` pin both.

use std::sync::Arc;
use std::time::{Duration, Instant};

use summit_comm::{
    elastic::{join_tag, state_tag, view_barrier, vote_members},
    world::{Rank, World, WorldView},
    CommError, FaultPlan,
};
use summit_pool::chunk_range;
use summit_tensor::Matrix;

use crate::checkpoint::ElasticCheckpoint;
use crate::model::Mlp;
use crate::optim::Optimizer;
use crate::schedule::LrSchedule;
use crate::step::{lead_params, shard_range, Replica};
use crate::trainer::DataParallelTrainer;

/// What a failed commit vote does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Remediation {
    /// Keep the membership: every rank, a killed one included (a kill is
    /// one-shot, so it restarts), restores the last whole checkpoint and
    /// replays from its step.
    Rollback,
    /// Keep the step: retry it at the same size if every member is still
    /// alive, otherwise shrink to the survivors and retry at the new size.
    Shrink {
        /// If set, evicted ranks wait as spectators and the surviving
        /// members re-admit *all* of them at this step boundary (hot join),
        /// restoring the full world.
        rejoin_at: Option<u32>,
    },
}

/// Recovery policy for [`DataParallelTrainer::run_fault_tolerant`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Deadline for one step's gradient communication; a step that cannot
    /// finish within this budget is declared failed and triggers a vote.
    pub step_timeout: Duration,
    /// Take an in-memory checkpoint every this many committed steps (one is
    /// always taken at entry, so rollback is always possible).
    pub checkpoint_interval: u32,
    /// Abort (panic loudly) after this many failed votes — a guard against
    /// a fault plan that makes progress impossible.
    pub max_recoveries: u32,
    /// What a failed vote does.
    pub remediation: Remediation,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            step_timeout: Duration::from_secs(2),
            checkpoint_interval: 4,
            max_recoveries: 64,
            remediation: Remediation::Rollback,
        }
    }
}

/// Result of a fault-tolerant run.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Final flat parameters (lowest-id active rank's copy).
    pub params: Vec<f32>,
    /// Mean loss per step committed by this run, from the lead rank.
    pub loss: f32,
    /// Maximum final parameter divergence across active ranks (must be 0).
    pub max_divergence: f32,
    /// Final global step (absolute — includes steps from `start_from`).
    pub steps: u32,
    /// Failed votes, each answered by one remediation (identical on every
    /// member: the vote is global).
    pub recoveries: u32,
    /// Membership shrinks this run performed.
    pub shrinks: u32,
    /// Hot joins this run performed.
    pub joins: u32,
    /// Final member count.
    pub final_world: usize,
    /// Final member physical ids, sorted.
    pub final_members: Vec<usize>,
    /// Final membership epoch.
    pub final_epoch: u64,
    /// Stale messages drained during quiesces, summed over all ranks.
    pub drained_messages: usize,
    /// Faults the plan actually injected, from
    /// [`TrafficStats`](summit_comm::world::TrafficStats).
    pub faults_injected: u64,
    /// Size-agnostic checkpoint of the final state, from the lead rank —
    /// feed it to another `run_fault_tolerant` (at any world size) to
    /// continue.
    pub checkpoint: ElasticCheckpoint,
    /// `(step, epoch, members)` at entry and after every membership change.
    pub membership_log: Vec<(u32, u64, Vec<usize>)>,
    /// Each active rank's [`chunk_range`] span `(start, end, total)` of its
    /// final checkpoint's encoded words — the spans must tile `[0, total)`
    /// exactly.
    pub shard_spans: Vec<(usize, usize, usize)>,
    /// The lead rank's wall-clock seconds for every step *attempt* (failed
    /// attempts included) — the raw telemetry the `summit-workflow` fault
    /// detector consumes: a faulted attempt shows up as a latency spike.
    pub step_seconds: Vec<f64>,
}

/// Substep of the fault clock: during the gradient collective. It is 0, so
/// a plan keyed on the plain step fires inside that step's collective.
pub const SUB_COMM: u64 = 0;
/// Substep of the fault clock: before any step work.
pub const SUB_PRE: u64 = 1;
/// Substep of the fault clock: after the collective, at the vote.
pub const SUB_VOTE: u64 = 2;
/// Substep of the fault clock: during the quiesce drain of a shrink.
pub const SUB_DRAIN: u64 = 3;
/// Substep of the fault clock: during shard re-partitioning.
pub const SUB_REPART: u64 = 4;

/// The fault clock: `(epoch, step, substep)` packed into the single `u64`
/// step counter the fault plane keys on, with
/// `fault_clock(0, s, SUB_COMM) == s`. A [`FaultPlan::kill_rank`] at
/// `fault_clock(e, k, s)` kills the rank the first time it polls inside
/// that exact phase — so tests can aim a kill *before* the allreduce
/// ([`SUB_PRE`]), *during* it ([`SUB_COMM`]), *after* it ([`SUB_VOTE`]),
/// or at the shrink protocol itself ([`SUB_DRAIN`], [`SUB_REPART`], or the
/// first post-shrink collective at the next epoch's [`SUB_COMM`]).
pub fn fault_clock(epoch: u64, step: u32, substep: u64) -> u64 {
    (epoch << 40) | (substep << 32) | u64::from(step)
}

/// Control-plane round of exchange `slot` within training step `step`. A
/// completed exchange consumes all its messages, so a retried or replayed
/// step reuses its rounds safely.
fn round(step: u32, slot: u64) -> u64 {
    ((step as u64) << 3) | slot
}
/// Round slot of the aliveness vote (the survivor mask).
const ROUND_ALIVE: u64 = 0;
/// First of the two round slots of a post-failure [`quiesce`].
const ROUND_QUIESCE: u64 = 1;
/// First of the two round slots of the hot-join [`quiesce`].
const ROUND_JOIN: u64 = 4;
/// Round slot of the commit vote (did every member's collective finish).
const ROUND_COMMIT: u64 = 6;

/// Quiesce the view's members: view barrier → [`Rank::drain_all`] → view
/// barrier, on control rounds `round` and `round + 1`. Every checked path
/// is deadline-bounded, so all members arrive; the drain between the
/// barriers then sweeps every half-finished collective message off the
/// data fabric. Returns how many it drained.
fn quiesce(rank: &Rank, view: &WorldView, round: u64) -> usize {
    view_barrier(rank, view, round);
    let drained = rank.drain_all();
    view_barrier(rank, view, round + 1);
    drained
}

/// Spectator side of the hot join: poll every peer for the join signal
/// scheduled at step `rejoin`, returning the sender and the membership
/// epoch to adopt. Panics (loudly, never hangs) if no signal arrives.
fn wait_for_join(rank: &Rank, rejoin: u32) -> (usize, u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for peer in 0..rank.size() {
            if peer == rank.id() {
                continue;
            }
            if let Some(payload) = rank.try_recv(peer, join_tag(rejoin as u64)) {
                let epoch = payload[0] as u64;
                rank.release_payload(payload);
                return (peer, epoch);
            }
        }
        assert!(
            Instant::now() < deadline,
            "rank {}: hot-join signal for step {rejoin} never arrived",
            rank.id()
        );
        std::thread::yield_now();
    }
}

impl DataParallelTrainer {
    /// [`run`](DataParallelTrainer::run) under a fault plan: train to the
    /// absolute step `total_steps`, answering every failed step with
    /// `cfg.remediation`.
    ///
    /// Each step runs on the current [`WorldView`]: sharding, gradient
    /// averaging, and the collective schedules are all pure functions of
    /// `(step, view)`, and each step's gradient collective is
    /// deadline-bounded and checked. After each attempt the members vote
    /// twice on the out-of-band control plane — aliveness (the survivor
    /// mask) and commit (did *every* member's collective finish clean). A
    /// failed commit vote quiesces the members and then:
    ///
    /// * [`Remediation::Rollback`] restores every rank to the last
    ///   in-memory checkpoint and replays. Because sharding is step-indexed
    ///   and fault events are one-shot, the final parameters are
    ///   bit-identical to a fault-free run.
    /// * [`Remediation::Shrink`] retries the step at the same size if every
    ///   member is alive. Otherwise the survivors adopt the aliveness mask
    ///   as a smaller view in a fresh tag epoch, re-derive the data
    ///   sharding from it, and retry there: nothing is replayed, and a run
    ///   that shrinks from `p` to `p-1` at step `k` continues on **exactly**
    ///   the trajectory a fresh `p-1`-rank run would produce from the same
    ///   step-`k` checkpoint. With `rejoin_at`, evicted ranks wait as
    ///   spectators and hot-join at that step boundary: dense rank 0
    ///   transfers the current state as an encoded [`ElasticCheckpoint`],
    ///   the full view is adopted at a fresh epoch, and training continues
    ///   at full size.
    ///
    /// With `start_from`, training resumes at the checkpoint's step
    /// (captured at any world size — the state is size-agnostic).
    ///
    /// # Panics
    /// Panics if the dataset is smaller than one full-world global batch,
    /// if `total_steps` is 8192 or more, if more than
    /// [`RecoveryConfig::max_recoveries`] votes fail, if the whole world
    /// votes itself dead, or if a scheduled hot join never completes.
    #[allow(clippy::too_many_arguments)]
    pub fn run_fault_tolerant(
        &self,
        build_model: impl Fn() -> Mlp + Sync,
        build_optimizer: impl Fn() -> Box<dyn Optimizer> + Sync,
        schedule: LrSchedule,
        x: &Matrix,
        labels: &[usize],
        total_steps: u32,
        start_from: Option<&ElasticCheckpoint>,
        plan: Arc<FaultPlan>,
        cfg: RecoveryConfig,
    ) -> RecoveryOutcome {
        assert!(
            cfg.checkpoint_interval > 0,
            "checkpoint interval must be positive"
        );
        assert!(
            total_steps < (1 << 13),
            "the control-round encoding supports at most 8191 steps"
        );
        // Only the size check: steps per epoch re-derive from each view.
        self.steps_per_epoch(x.rows());

        let mut world = World::new(self.ranks);
        let results = world.execute_with_faults(plan, |rank| {
            let mut replica = Replica::new(self, &build_model, &build_optimizer, false);
            let mut step = 0u32;
            if let Some(ck) = start_from {
                replica.restore(ck).expect("starting checkpoint rejected");
                step = ck.step;
            }

            let mut view = WorldView::full(rank);
            let mut loss_sum = 0.0f32;
            let mut committed = 0u32;
            let mut recoveries = 0u32;
            let mut shrinks = 0u32;
            let mut joins = 0u32;
            let mut drained = 0usize;
            let mut step_seconds: Vec<f64> = Vec::new();
            // A kill claimed outside the collective (pre/vote/drain/repart
            // polls). A poisoned rank stops computing and votes itself dead.
            let mut poisoned = false;
            let mut active = true;
            let mut membership_log: Vec<(u32, u64, Vec<usize>)> =
                vec![(step, view.epoch(), view.members().to_vec())];
            // The rollback target (always one: taken at entry), with the
            // loss and commit count accumulated up to it.
            let mut ckpt = (replica.checkpoint(step), loss_sum, committed);

            while active && step < total_steps {
                // Hot-join boundary: re-admit every spectator before
                // attempting this step.
                let join_here = Remediation::Shrink {
                    rejoin_at: Some(step),
                };
                if view.size() < rank.size() && cfg.remediation == join_here {
                    let new_epoch = view.epoch() + 1;
                    if view.my_index() == Some(0) {
                        let words = replica.checkpoint(step).encode();
                        for peer in 0..rank.size() {
                            if !view.is_member(peer) {
                                rank.send_from(peer, join_tag(step as u64), &[new_epoch as f32]);
                                rank.send_from(peer, state_tag(step as u64), &words);
                            }
                        }
                    }
                    view = view.grow_full(rank.size());
                    joins += 1;
                    drained += quiesce(rank, &view, round(step, ROUND_JOIN));
                    membership_log.push((step, view.epoch(), view.members().to_vec()));
                    continue;
                }

                let me = view.my_index().expect("active ranks are members");
                rank.set_fault_step(fault_clock(view.epoch(), step, SUB_PRE));
                poisoned |= rank.poll_fault_kill().is_err();
                let t0 = Instant::now();
                let deadline = t0 + cfg.step_timeout;

                let mut loss = 0.0f32;
                let (comm_ok, i_am_dead) = if poisoned {
                    // A dead rank computes and sends nothing; the
                    // survivors' collective times out — the detection path.
                    (false, true)
                } else {
                    // Rows for (step, view): re-derived at the view's size.
                    let shard = shard_range(step, x.rows(), view.size(), me, self.per_rank_batch);
                    let (l, dlogits) = replica.forward_loss(x, labels, shard);
                    loss = l;
                    rank.set_fault_step(fault_clock(view.epoch(), step, SUB_COMM));
                    match replica.backward_and_sync(rank, Some((&view, deadline)), &dlogits) {
                        Ok(_) => (true, false),
                        // My own scheduled death.
                        Err(CommError::RankKilled { .. }) => (false, true),
                        // Someone else's fault surfaced here (timeout
                        // waiting on a dead peer, drop, corruption): I am
                        // still a healthy member.
                        Err(_) => (false, false),
                    }
                };

                rank.set_fault_step(fault_clock(view.epoch(), step, SUB_VOTE));
                poisoned |= rank.poll_fault_kill().is_err();
                // A completed vote consumes all its messages, so a retried
                // or replayed step can reuse the same rounds safely.
                let alive = !(i_am_dead || poisoned);
                let votes = vote_members(rank, &view, alive, round(step, ROUND_ALIVE));
                let comm_votes =
                    vote_members(rank, &view, comm_ok && !poisoned, round(step, ROUND_COMMIT));

                if comm_votes.iter().all(|&v| v) {
                    replica.commit(rank, view.size(), schedule.multiplier(step));
                    step += 1;
                    committed += 1;
                    loss_sum += loss;
                    if step < total_steps && step.is_multiple_of(cfg.checkpoint_interval) {
                        ckpt = (replica.checkpoint(step), loss_sum, committed);
                    }
                } else {
                    recoveries += 1;
                    assert!(
                        recoveries <= cfg.max_recoveries,
                        "rank {}: recovery limit exceeded ({} failed votes)",
                        rank.id(),
                        cfg.max_recoveries
                    );
                    match cfg.remediation {
                        Remediation::Rollback => {
                            drained += quiesce(rank, &view, round(step, ROUND_QUIESCE));
                            replica
                                .restore(&ckpt.0)
                                .expect("a replica's own checkpoint always fits it");
                            (step, loss_sum, committed) = (ckpt.0.step, ckpt.1, ckpt.2);
                            // The kill was one-shot: a killed rank restarts.
                            poisoned = false;
                        }
                        // Transient fault (drop/corrupt/delay), nobody dead:
                        // retry the step at the same size. Nothing was
                        // committed, so nothing is replayed.
                        Remediation::Shrink { .. } if votes.iter().all(|&v| v) => {
                            drained += quiesce(rank, &view, round(step, ROUND_QUIESCE));
                        }
                        // Shrink: quiesce the old membership, adopt the
                        // survivor mask, retry at the new size.
                        Remediation::Shrink { rejoin_at } => {
                            shrinks += 1;
                            rank.set_fault_step(fault_clock(view.epoch(), step, SUB_DRAIN));
                            poisoned |= rank.poll_fault_kill().is_err();
                            drained += quiesce(rank, &view, round(step, ROUND_QUIESCE));
                            let next = view.shrink_to(&votes);
                            if next.is_member(rank.id()) {
                                view = next;
                                rank.set_fault_step(fault_clock(view.epoch(), step, SUB_REPART));
                                // A kill claimed here surfaces at the retry's
                                // vote.
                                poisoned |= rank.poll_fault_kill().is_err();
                                membership_log.push((step, view.epoch(), view.members().to_vec()));
                            } else {
                                // Evicted. Wait for a hot join if one is
                                // scheduled at a step the members will
                                // actually reach.
                                active = false;
                                if let Some(r) = rejoin_at {
                                    if r >= step && r < total_steps {
                                        let (peer, epoch) = wait_for_join(rank, r);
                                        let ck = rank
                                            .recv_with(
                                                peer,
                                                state_tag(r as u64),
                                                ElasticCheckpoint::decode,
                                            )
                                            .expect("hot-join state transfer rejected");
                                        replica
                                            .restore(&ck)
                                            .expect("hot-join state restore failed");
                                        step = ck.step;
                                        view = WorldView::assemble(
                                            (0..rank.size()).collect(),
                                            rank.id(),
                                            epoch,
                                        );
                                        joins += 1;
                                        active = true;
                                        poisoned = false;
                                        drained += quiesce(rank, &view, round(step, ROUND_JOIN));
                                        membership_log.push((
                                            step,
                                            view.epoch(),
                                            view.members().to_vec(),
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
                step_seconds.push(t0.elapsed().as_secs_f64());
            }

            // This rank's view of the outcome; the world-wide fields are
            // folded into the lead's copy below.
            let checkpoint = replica.checkpoint(step);
            let outcome = RecoveryOutcome {
                params: replica.model.into_arena().into_params(),
                loss: loss_sum / committed.max(1) as f32,
                max_divergence: 0.0,
                steps: step,
                recoveries,
                shrinks,
                joins,
                final_world: view.size(),
                final_members: view.members().to_vec(),
                final_epoch: view.epoch(),
                drained_messages: drained,
                faults_injected: 0,
                checkpoint,
                membership_log,
                shard_spans: Vec::new(),
                step_seconds,
            };
            (active, outcome)
        });

        let drained_messages = results.iter().map(|(_, o)| o.drained_messages).sum();
        // `results` is ordered by physical rank id, so the first active
        // rank is the lead, and the i-th active rank is dense member i.
        let mut actives: Vec<RecoveryOutcome> = results
            .into_iter()
            .filter_map(|(active, outcome)| active.then_some(outcome))
            .collect();
        let shard_spans = actives
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let total = o.checkpoint.encode().len();
                let r = chunk_range(total, o.final_world, i);
                (r.start, r.end, total)
            })
            .collect();
        let (params, max_divergence) =
            lead_params(actives.iter_mut().map(|o| std::mem::take(&mut o.params)));
        RecoveryOutcome {
            params,
            max_divergence,
            drained_messages,
            faults_injected: world.last_traffic().faults_injected,
            shard_spans,
            ..actives.swap_remove(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::blobs;
    use crate::model::MlpSpec;
    use crate::optim::{Adam, Sgd};
    use crate::trainer::{FusionConfig, OverlapConfig};
    use summit_comm::TagClass;

    fn bitwise_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "param {i}: {x} vs {y}");
        }
    }

    fn cfg() -> RecoveryConfig {
        RecoveryConfig {
            checkpoint_interval: 2,
            step_timeout: Duration::from_millis(400),
            max_recoveries: 16,
            remediation: Remediation::Rollback,
        }
    }

    /// With an empty plan, the fault-tolerant runner is the plain runner:
    /// same trajectory, bit for bit, on both comm paths.
    #[test]
    fn fault_free_ft_run_matches_plain_run_bitwise() {
        let task = blobs(128, 4, 2, 0.3, 19);
        let spec = MlpSpec::new(4, &[8, 8], 2);
        for overlap in [false, true] {
            let dp = DataParallelTrainer::new(2, 8)
                .with_fusion(FusionConfig { bucket_bytes: 64 })
                .with_overlap(OverlapConfig { enabled: overlap });
            let plain = dp.run(
                || spec.build(5),
                || Box::new(Sgd::new(0.05, 0.9, 0.0)),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                2,
            );
            let ft = dp.run_fault_tolerant(
                || spec.build(5),
                || Box::new(Sgd::new(0.05, 0.9, 0.0)),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                plain.steps,
                None,
                Arc::new(FaultPlan::empty()),
                cfg(),
            );
            assert_eq!(ft.steps, plain.steps);
            assert_eq!(ft.recoveries, 0);
            assert_eq!(ft.faults_injected, 0);
            assert_eq!(ft.max_divergence, 0.0);
            bitwise_eq(&ft.params, &plain.params);
        }
    }

    /// A dropped allreduce message forces one rollback, after which the run
    /// converges to the exact fault-free parameters.
    #[test]
    fn recovers_bitwise_from_dropped_message() {
        let task = blobs(128, 4, 2, 0.3, 23);
        let spec = MlpSpec::new(4, &[8], 2);
        let dp = DataParallelTrainer::new(2, 8).with_overlap(OverlapConfig { enabled: false });
        let plain = dp.run(
            || spec.build(3),
            || Box::new(Adam::new(0.01, 0.0)),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            1,
        );
        // Drop a reduce-scatter message (blocking collective id 0) at step 5.
        let plan = Arc::new(FaultPlan::empty().drop_message(0, 1, TagClass::Blocking(0), 5));
        let ft = dp.run_fault_tolerant(
            || spec.build(3),
            || Box::new(Adam::new(0.01, 0.0)),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            plain.steps,
            None,
            plan,
            cfg(),
        );
        assert_eq!(ft.steps, plain.steps);
        assert_eq!(
            ft.recoveries, 1,
            "the drop must trigger exactly one rollback"
        );
        assert_eq!(ft.faults_injected, 1);
        assert_eq!(ft.max_divergence, 0.0);
        bitwise_eq(&ft.params, &plain.params);
        assert_eq!(
            ft.step_seconds.len() as u32,
            ft.steps + ft.recoveries * (5 % cfg().checkpoint_interval + 1),
            "each rollback replays the steps since the last checkpoint"
        );
    }

    fn ecfg() -> RecoveryConfig {
        RecoveryConfig {
            step_timeout: Duration::from_millis(300),
            checkpoint_interval: 2,
            max_recoveries: 4,
            remediation: Remediation::Shrink { rejoin_at: None },
        }
    }

    /// With an empty plan, the shrinking runner is the plain runner: same
    /// trajectory, bit for bit, on both comm paths.
    #[test]
    fn fault_free_elastic_run_matches_plain_run_bitwise() {
        let task = blobs(128, 4, 2, 0.3, 31);
        let spec = MlpSpec::new(4, &[8, 8], 2);
        for overlap in [false, true] {
            let dp = DataParallelTrainer::new(2, 8)
                .with_fusion(FusionConfig { bucket_bytes: 64 })
                .with_overlap(OverlapConfig { enabled: overlap });
            let plain = dp.run(
                || spec.build(11),
                || Box::new(Sgd::new(0.05, 0.9, 0.0)),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                2,
            );
            let el = dp.run_fault_tolerant(
                || spec.build(11),
                || Box::new(Sgd::new(0.05, 0.9, 0.0)),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                plain.steps,
                None,
                Arc::new(FaultPlan::empty()),
                ecfg(),
            );
            assert_eq!(el.steps, plain.steps);
            assert_eq!(el.shrinks, 0);
            assert_eq!(el.joins, 0);
            assert_eq!(el.final_world, 2);
            assert_eq!(el.final_epoch, 0);
            assert_eq!(el.max_divergence, 0.0);
            bitwise_eq(&el.params, &plain.params);
            // Both ranks hold a shard; the spans tile the word stream.
            let total = el.shard_spans[0].2;
            assert_eq!(el.shard_spans[0].0, 0);
            assert_eq!(el.shard_spans[0].1, el.shard_spans[1].0);
            assert_eq!(el.shard_spans[1].1, total);
        }
    }

    /// `with_threads` reaches the recovery driver under both remediations:
    /// the shared per-rank prologue pins the budget before `build_model`
    /// runs.
    #[test]
    fn recovery_drivers_honor_with_threads() {
        let task = blobs(64, 4, 2, 0.3, 41);
        let spec = MlpSpec::new(4, &[8], 2);
        // One above the default share, so on any host the pin reads
        // differently from the lease it overrides.
        let pinned = summit_pool::rank_budget_from_env(2) + 1;
        let dp = DataParallelTrainer::new(2, 8).with_threads(pinned);
        let observed = std::sync::Mutex::new(Vec::new());
        let build_model = || {
            observed.lock().unwrap().push(summit_pool::core_budget());
            spec.build(3)
        };
        dp.run_fault_tolerant(
            build_model,
            || Box::new(Sgd::new(0.05, 0.9, 0.0)),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            4,
            None,
            Arc::new(FaultPlan::empty()),
            cfg(),
        );
        dp.run_fault_tolerant(
            build_model,
            || Box::new(Sgd::new(0.05, 0.9, 0.0)),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            2,
            None,
            Arc::new(FaultPlan::empty()),
            ecfg(),
        );
        assert_eq!(*observed.lock().unwrap(), vec![pinned; 4]);
    }

    /// A mid-run kill shrinks 3 → 2 and training continues to the target
    /// step without replaying; the checkpoint resumes a second run.
    #[test]
    fn elastic_run_shrinks_past_a_kill_and_continues() {
        let task = blobs(192, 4, 2, 0.3, 37);
        let spec = MlpSpec::new(4, &[8], 2);
        let dp = DataParallelTrainer::new(3, 4).with_overlap(OverlapConfig { enabled: false });
        let plan = Arc::new(FaultPlan::empty().kill_rank(1, fault_clock(0, 3, SUB_COMM)));
        let el = dp.run_fault_tolerant(
            || spec.build(13),
            || Box::new(Adam::new(0.01, 0.0)),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            8,
            None,
            plan,
            ecfg(),
        );
        assert_eq!(el.steps, 8);
        assert_eq!(el.shrinks, 1);
        assert_eq!(el.final_world, 2);
        assert_eq!(el.final_members, vec![0, 2]);
        assert_eq!(el.final_epoch, 1);
        assert_eq!(el.max_divergence, 0.0);
        assert!(el.faults_injected >= 1);
        assert_eq!(el.membership_log.len(), 2);
        assert_eq!(el.membership_log[1], (3, 1, vec![0, 2]));
        // The outcome checkpoint continues the run at a different size.
        let dp2 = DataParallelTrainer::new(2, 4).with_overlap(OverlapConfig { enabled: false });
        let cont = dp2.run_fault_tolerant(
            || spec.build(13),
            || Box::new(Adam::new(0.01, 0.0)),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            10,
            Some(&el.checkpoint),
            Arc::new(FaultPlan::empty()),
            ecfg(),
        );
        assert_eq!(cont.steps, 10);
        assert_eq!(cont.max_divergence, 0.0);
    }

    /// A scheduled rank kill on the overlapped path: the killed rank
    /// errors, the vote fails, and replay (the kill is one-shot) lands on
    /// the fault-free trajectory.
    #[test]
    fn recovers_bitwise_from_rank_kill_with_overlap() {
        let task = blobs(128, 4, 2, 0.3, 29);
        let spec = MlpSpec::new(4, &[8, 8], 2);
        let dp = DataParallelTrainer::new(2, 8)
            .with_fusion(FusionConfig { bucket_bytes: 64 })
            .with_overlap(OverlapConfig { enabled: true });
        let plain = dp.run(
            || spec.build(7),
            || Box::new(Sgd::new(0.05, 0.9, 0.0)),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            1,
        );
        let plan = Arc::new(FaultPlan::empty().kill_rank(1, 3));
        let ft = dp.run_fault_tolerant(
            || spec.build(7),
            || Box::new(Sgd::new(0.05, 0.9, 0.0)),
            LrSchedule::Constant,
            &task.x,
            &task.y,
            plain.steps,
            None,
            plan,
            cfg(),
        );
        assert_eq!(ft.steps, plain.steps);
        assert!(ft.recoveries >= 1);
        assert_eq!(ft.max_divergence, 0.0);
        bitwise_eq(&ft.params, &plain.params);
    }

    proptest::proptest! {
        /// The fault clock never maps two phases to one value, and a plan
        /// keyed on the plain step fires inside that step's collective.
        #[test]
        fn fault_clock_is_injective_and_plain_steps_hit_the_collective(
            a in (0u64..1 << 12, 0u32..1 << 13, 0u64..=SUB_REPART),
            b in (0u64..1 << 12, 0u32..1 << 13, 0u64..=SUB_REPART),
        ) {
            // `b` whole and in each single coordinate, so equal and
            // one-off phases are both drawn often.
            let clock = |(epoch, step, sub): (u64, u32, u64)| fault_clock(epoch, step, sub);
            for c in [a, (b.0, a.1, a.2), (a.0, b.1, a.2), (a.0, a.1, b.2), b] {
                proptest::prop_assert_eq!(clock(c) == clock(a), c == a, "{:?} vs {:?}", c, a);
            }
            proptest::prop_assert_eq!(fault_clock(0, a.1, SUB_COMM), u64::from(a.1));
        }
    }
}
