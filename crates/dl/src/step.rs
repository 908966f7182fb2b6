//! The one synchronous data-parallel step.
//!
//! [`DataParallelTrainer::run_in`] and `run_fault_tolerant` are policy
//! loops around the same step: pick this rank's rows ([`shard_range`]),
//! forward + loss, backward with the gradient collective overlapped or
//! fused ([`Replica::backward_and_sync`]), then commit
//! ([`Replica::commit`]). The step exists here once; what a driver adds is
//! what happens *between* steps — nothing, or a remediation (rollback or a
//! membership change).
//!
//! The step never moves its gradient. The model's gradient arena
//! ([`Mlp::backward_with`]) is the fusion buffer: backward writes each
//! layer's gradient into it (overwriting — `zero_grads` only marks it
//! clean), the overlapped path splits every newly-ready bucket off the
//! arena's tail as a disjoint `&mut` window ([`split_tail`]) that the
//! bucket's nonblocking collective reduces in place while earlier layers are
//! still being written into the head, and the optimizer reads the same
//! memory. Windows chunk against the global partition, so this is
//! bit-identical to one allreduce over the whole arena, which is what the
//! serial path runs.
//!
//! # Two commits
//!
//! *Replicated*: the windows run whole allreduces, and every rank takes the
//! same optimizer step over every parameter. *Sharded*: the ring is
//! reduce-scatter then allgather, and between the halves rank `i` owns the
//! fully reduced chunk `(i + 1) mod p` of the global partition
//! ([`chunk_range`]). So the windows run only the reduce-scatter, each rank
//! updates only the chunk it owns (cut at parameter-group boundaries, by
//! the arena's `for_each_group_in`), and then allgathers the *parameters* —
//! the model's parameter arena — in the same bucket windows. The two halves
//! send exactly the messages and bytes of one allreduce; optimizer work and
//! optimizer state per rank fall by `p`. Either commit folds the `1/world`
//! average into the optimizer's own sweep ([`Optimizer::step_scaled`]), and
//! each element is updated by the same arithmetic on the same reduced sum,
//! so both commits land on the same bits.
//!
//! [`DataParallelTrainer::run_in`] commits sharded whenever the optimizer
//! is [elementwise](Optimizer::elementwise) (at `p = 1` that is the
//! replicated step). The recovery driver and the trust-ratio optimizers
//! commit replicated: a shrink must continue from optimizer state only the
//! dead rank held, and LARS/LARC/LAMB need whole-group norms.
//!
//! The collective runs on one of two surfaces, chosen by what the caller
//! holds rather than by a knob. Without a fault plane there is no
//! membership to track and nothing to detect, so the infallible classic
//! collectives run (no checksums, no kill polls, no deadline). With one,
//! the caller holds a [`WorldView`] and a deadline, and the same schedules
//! run view-remapped on the checked drivers — at full membership and epoch
//! 0 that is wire- and bit-identical to the classic path.

use std::ops::Range;
use std::time::Instant;

use summit_comm::{
    collectives::{ring_allreduce_bucketed, ReduceOp},
    elastic::try_ring_allreduce_view,
    nonblocking::{ring_allreduce_start, RingAllreduceHandle},
    world::{Rank, WorldView},
    CommError, RingPhase,
};
use summit_pool::chunk_range;
use summit_tensor::{ops, Matrix};

use crate::checkpoint::{CheckpointError, ElasticCheckpoint};
use crate::model::Mlp;
use crate::optim::Optimizer;
use crate::trainer::{slice_rows, BucketSchedule, DataParallelTrainer};

/// Rows of the dataset that member `me` of a `world`-member step reads at
/// global step `step`: the global batch `world · per_rank` walks the
/// dataset in order, wrapping every `rows / global` steps, and member `me`
/// takes the `me`-th `per_rank` slice of it. A pure function of its
/// arguments, so a replayed step and an elastic continuation at a new
/// `world` both read exactly the rows a fresh run of that size would.
pub(crate) fn shard_range(
    step: u32,
    rows: usize,
    world: usize,
    me: usize,
    per_rank: usize,
) -> Range<usize> {
    let global = world * per_rank;
    let start = step as usize % (rows / global) * global + me * per_rank;
    start..start + per_rank
}

/// Split `[at, pending.len())` off the tail of `*pending`, leaving the head
/// behind. Buckets launch in descending order, so cutting at each one's
/// start offset in turn tiles the gradient arena with disjoint windows.
fn split_tail<'a>(pending: &mut &'a mut [f32], at: usize) -> &'a mut [f32] {
    let (head, tail) = std::mem::take(pending).split_at_mut(at);
    *pending = head;
    tail
}

/// The lead (first) replica's parameters and the largest `|a − b|` of any
/// other replica against them — synchronous SGD keeps it at exactly zero.
/// Bit-equal elements count as 0 (so do equal infinities and NaNs); any
/// other NaN difference makes the divergence NaN, which no bound passes.
/// A replica bit-equal to the lead, the outcome synchronous SGD always
/// produces, is recognised by one vectorised sweep and skips the fold.
///
/// # Panics
/// Panics if `replicas` is empty.
pub(crate) fn lead_params(mut replicas: impl Iterator<Item = Vec<f32>>) -> (Vec<f32>, f32) {
    let lead = replicas.next().expect("no active rank finished the run");
    let differing = replicas.filter(|params| !bit_equal(params, &lead));
    let divergence = differing.fold(0.0f32, |d, params| {
        params.iter().zip(&lead).fold(d, |d, (a, b)| {
            let diff = if a.to_bits() == b.to_bits() {
                0.0
            } else {
                (a - b).abs()
            };
            // `f32::max` would drop a NaN on either side.
            if diff > d || diff.is_nan() {
                diff
            } else {
                d
            }
        })
    });
    (lead, divergence)
}

/// Whether `a` and `b` hold the same bits: an OR of XORs over 64-element
/// blocks, branch-free inside each block.
fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.chunks(64).zip(b.chunks(64)).all(|(x, y)| {
            x.iter()
                .zip(y)
                .fold(0, |acc, (p, q)| acc | (p.to_bits() ^ q.to_bits()))
                == 0
        })
}

/// One rank's model replica. The model's gradient arena is the fusion
/// buffer: backward writes it, the collectives reduce it in place and the
/// optimizer reads it, so a step holds the gradient exactly once.
pub(crate) struct Replica {
    pub(crate) model: Mlp,
    pub(crate) optimizer: Box<dyn Optimizer>,
    layer_sizes: Vec<usize>,
    bucket_elems: usize,
    overlap: bool,
    /// Commit sharded (see the module doc) rather than replicated.
    sharded: bool,
}

impl Replica {
    /// The per-rank prologue every driver shares. The world's execution
    /// already leased this rank a machine share; an explicit
    /// [`DataParallelTrainer::with_threads`] budget overrides it *before*
    /// the model is built, so `build_model` observes what the rank's
    /// kernels will actually use. `shard` asks for the sharded commit,
    /// which the replica takes if its optimizer is elementwise.
    pub(crate) fn new(
        cfg: &DataParallelTrainer,
        build_model: &impl Fn() -> Mlp,
        build_optimizer: &impl Fn() -> Box<dyn Optimizer>,
        shard: bool,
    ) -> Self {
        if let Some(t) = cfg.threads {
            summit_pool::set_core_budget(t);
        }
        let model = build_model();
        let optimizer = build_optimizer();
        Replica {
            layer_sizes: model.layer_param_sizes(),
            model,
            sharded: shard && optimizer.elementwise(),
            optimizer,
            bucket_elems: cfg.fusion.bucket_elems(),
            overlap: cfg.overlap.enabled,
        }
    }

    /// Snapshot parameters and optimizer state at `step`.
    pub(crate) fn checkpoint(&self, step: u32) -> ElasticCheckpoint {
        ElasticCheckpoint::capture(step, self.model.arena(), self.optimizer.as_ref())
    }

    /// Write a snapshot back into this replica.
    ///
    /// # Errors
    /// [`CheckpointError::ShapeMismatch`] if it was taken from another model.
    pub(crate) fn restore(&mut self, ck: &ElasticCheckpoint) -> Result<(), CheckpointError> {
        ck.restore(self.model.arena_mut(), self.optimizer.as_mut())
    }

    /// Forward pass and loss on rows `shard` of `(x, labels)`, leaving the
    /// gradients marked clean so the backward pass overwrites them. Returns
    /// `(loss, dlogits)`.
    pub(crate) fn forward_loss(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        shard: Range<usize>,
    ) -> (f32, Matrix) {
        let bx = slice_rows(x, shard.start, shard.end);
        let logits = self.model.forward(&bx);
        let out = ops::softmax_cross_entropy(logits, &labels[shard]);
        self.model.zero_grads();
        out
    }

    /// Backpropagate `dlogits` and sum the gradient across the world, in
    /// place in the model's gradient arena — all of it for the replicated
    /// commit, the chunk this rank owns for the sharded one. Returns
    /// rank-local `(comm, exposed)` seconds: everything spent launching,
    /// progressing and waiting, and the part of it not hidden behind
    /// backpropagation.
    ///
    /// `checked` selects the surface (see the module doc): `None` is the
    /// infallible classic path and never returns `Err` short of a peer
    /// disconnecting; `Some((view, deadline))` runs over `view` on the
    /// checked, deadline-bounded drivers.
    ///
    /// # Errors
    /// The first [`CommError`] any collective surfaced. Every live handle
    /// is cancelled first, so a failed attempt leaves no schedule still
    /// emitting sends while the caller quiesces the fabric.
    pub(crate) fn backward_and_sync(
        &mut self,
        rank: &Rank,
        checked: Option<(&WorldView, Instant)>,
        dlogits: &Matrix,
    ) -> Result<(f64, f64), CommError> {
        let (m, overlap, sharded) = (self.bucket_elems, self.overlap, self.sharded);
        let Replica {
            model, layer_sizes, ..
        } = self;
        let n = model.param_count();
        let world = checked.map_or(rank.size(), |(view, _)| view.size());
        if world > 1 && (overlap || sharded) {
            // Windowed path: split each bucket's window off the tail of the
            // arena and launch its collective on it — the moment the last
            // layer contributing to it has written its gradient when
            // overlapping (progressing every in-flight collective between
            // layer backwards), or once backward is done. Windows chunk
            // against the global partition, so the result is bit-identical
            // to the serial path.
            let phase = if sharded {
                RingPhase::ReduceScatter
            } else {
                RingPhase::Allreduce
            };
            let view = checked.map(|(view, _)| view);
            let mut sched = BucketSchedule::new(layer_sizes, m);
            let n_buckets = sched.n_buckets();
            let mut handles: Vec<RingAllreduceHandle> = Vec::with_capacity(n_buckets);
            let mut err: Option<CommError> = None;
            let mut launch_s = 0.0f64;
            model.backward_with(dlogits, |layer, pending| {
                let t0 = Instant::now();
                let ready = sched.on_layer_ready(layer);
                let launch = match (overlap, layer) {
                    (true, _) => ready,
                    (false, 0) => 0..n_buckets,
                    (false, _) => 0..0,
                };
                for b in launch.rev() {
                    let (id, at) = (b as u64, b * m);
                    let window = split_tail(pending, at);
                    let op = ReduceOp::Sum;
                    handles.push(ring_allreduce_start(
                        rank, view, window, op, id, n, at, phase,
                    ));
                }
                if err.is_none() {
                    err = handles.iter_mut().find_map(|h| h.progress_checked().err());
                }
                launch_s += t0.elapsed().as_secs_f64();
            });
            // Whatever is still in flight is the exposed communication
            // tail; without overlap, all of it is exposed.
            let t0 = Instant::now();
            for h in handles.iter_mut() {
                if err.is_none() {
                    err = match checked {
                        None => {
                            h.wait();
                            None
                        }
                        Some((_, deadline)) => h.wait_deadline(deadline).err(),
                    };
                }
                if err.is_some() {
                    h.cancel();
                }
            }
            let tail = t0.elapsed().as_secs_f64();
            let exposed = if overlap { tail } else { launch_s + tail };
            err.map_or(Ok((launch_s + tail, exposed)), Err)
        } else {
            // Serial fused path: full backward, then one bucketed
            // allreduce over the whole arena.
            model.backward(dlogits);
            let flat = model.arena_mut().grads_mut();
            let t0 = Instant::now();
            match checked {
                None => ring_allreduce_bucketed(rank, flat, ReduceOp::Sum, m),
                Some((view, deadline)) => {
                    let timeout = deadline.saturating_duration_since(t0);
                    try_ring_allreduce_view(rank, view, flat, ReduceOp::Sum, m, timeout)?;
                }
            }
            let elapsed = t0.elapsed().as_secs_f64();
            Ok((elapsed, elapsed))
        }
    }

    /// Commit the step at learning-rate multiplier `lr`: one optimizer
    /// step on the gradient summed over the `world` members that
    /// contributed to it, averaged inside the optimizer's sweep. The
    /// replicated commit updates every parameter. The sharded one updates
    /// the chunk this rank's reduce-scatter left it, then allgathers the
    /// parameter arena in the bucket windows; it returns the seconds that
    /// allgather took (0 for the replicated commit), all of them exposed.
    /// The optimizer's step counter advances last, once the step's
    /// parameters are final on every rank.
    pub(crate) fn commit(&mut self, rank: &Rank, world: usize, lr: f32) -> f64 {
        let n = self.model.param_count();
        let owned = if self.sharded {
            debug_assert_eq!(world, rank.size(), "the sharded commit spans the world");
            chunk_range(n, world, (rank.id() + 1) % world)
        } else {
            0..n
        };
        let (opt, scale) = (&mut self.optimizer, 1.0 / world as f32);
        self.model
            .arena_mut()
            .for_each_group_in(owned, |id, params, grads| {
                opt.step_scaled(id, lr, scale, params, grads)
            });
        let gather_s = if self.sharded && world > 1 {
            let (t0, m) = (Instant::now(), self.bucket_elems);
            let mut handles: Vec<RingAllreduceHandle> =
                (self.model.arena_mut().params_mut().chunks_mut(m))
                    .enumerate()
                    .map(|(b, window)| {
                        let (op, phase) = (ReduceOp::Sum, RingPhase::Allgather);
                        ring_allreduce_start(rank, None, window, op, b as u64, n, b * m, phase)
                    })
                    .collect();
            handles.iter_mut().for_each(RingAllreduceHandle::wait);
            t0.elapsed().as_secs_f64()
        } else {
            0.0
        };
        self.optimizer.advance();
        gather_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MlpSpec;

    /// A replica that went NaN shows as a NaN divergence, not a zero one;
    /// bit-equal replicas, NaNs included, show as zero.
    #[test]
    fn lead_params_reports_a_nan_replica() {
        let div = |other: Vec<f32>| lead_params([vec![1.0, 2.0], other].into_iter()).1;
        assert!(div(vec![1.0, f32::NAN]).is_nan());
        assert!(
            lead_params([vec![f32::NAN], vec![0.0], vec![5.0]].into_iter())
                .1
                .is_nan()
        );
        assert_eq!(div(vec![1.0, 2.0]), 0.0);
        assert_eq!(div(vec![1.0, 3.5]), 1.5);
        let nan = vec![f32::NAN, f32::INFINITY];
        assert_eq!(lead_params([nan.clone(), nan].into_iter()).1, 0.0);
    }

    /// At the `train_compute` model's size (2,378,768 parameters), a
    /// replica that differs from the lead in one element — first, middle or
    /// last, by a value or only by a NaN payload — reports that element's
    /// divergence, as the fold alone does; equal replicas report zero.
    #[test]
    fn lead_params_finds_a_single_differing_element() {
        let base: Vec<f32> = (0..2_378_768).map(|i| (i % 1000) as f32 * 1e-3).collect();
        let div = |at: usize, (a, b): (f32, f32)| {
            let (mut lead, mut other) = (base.clone(), base.clone());
            (lead[at], other[at]) = (a, b);
            lead_params([lead.clone(), lead, other].into_iter()).1
        };
        assert_eq!(lead_params([base.clone(), base.clone()].into_iter()).1, 0.0);
        let payload = f32::from_bits(f32::NAN.to_bits() | 1);
        for at in [0, base.len() / 2, base.len() - 1] {
            assert_eq!(div(at, (0.5, 0.75)), 0.25, "element {at}");
            assert!(div(at, (f32::NAN, payload)).is_nan(), "element {at}");
        }
    }

    /// Driving a real backward the way [`Replica::backward_and_sync`] does,
    /// the windows split off the tail are the fusion buckets — descending,
    /// each already holding its final gradient when it is cut — and tile
    /// `[0, n)` exactly once, for buckets of one element, buckets that
    /// straddle layer boundaries with a partial last one, a bucket that is
    /// the whole arena, and one larger than it.
    #[test]
    fn bucket_windows_tile_the_arena_exactly_once() {
        // Layer regions [0, 42), [42, 90), [90, 111).
        let mut model = MlpSpec::new(5, &[7, 6], 3).build(9);
        let x = Matrix::from_vec(4, 5, (0..20).map(|i| (i as f32 * 0.37).sin()).collect());
        let (_, dlogits) = ops::softmax_cross_entropy(model.forward(&x), &[2, 0, 1, 1]);
        let mut reference = model.clone();
        reference.zero_grads();
        reference.backward(&dlogits);
        let want = reference.arena().flat_grads();
        let n = want.len();
        assert_eq!(n, 111);

        for m in [1usize, 4, 10, 37, 111, 500] {
            let mut model = model.clone();
            model.zero_grads();
            let mut sched = BucketSchedule::new(&model.layer_param_sizes(), m);
            let mut windows: Vec<(usize, &mut [f32])> = Vec::new();
            model.backward_with(&dlogits, |layer, pending| {
                for b in sched.on_layer_ready(layer).rev() {
                    let window = split_tail(pending, b * m);
                    assert_eq!(window, &want[b * m..b * m + window.len()], "bucket {b}");
                    windows.push((b * m, window));
                }
            });
            assert_eq!(windows.len(), n.div_ceil(m), "bucket {m}");
            let mut end = n;
            for (at, window) in &windows {
                assert_eq!(at + window.len(), end, "bucket {m}: gap or overlap at {at}");
                assert_eq!(window.len(), m.min(n - at));
                assert_eq!(**window, want[*at..end]);
                end = *at;
            }
            assert_eq!(end, 0, "bucket {m}: windows stop short of offset 0");
        }
    }
}
