//! Single-process and data-parallel trainers.
//!
//! [`DataParallelTrainer`] is the heart of the reproduction: it runs one
//! model replica per `summit-comm` rank, computes real gradients on each
//! rank's shard of the batch, **ring-reduces the model's flat gradient
//! arena in place**, and commits one optimizer step — the exact synchronous
//! data-parallel scheme (Horovod-style) that every Section IV-B project
//! used on Summit. With an elementwise optimizer the step is sharded
//! (ZeRO-style): each rank updates the chunk of the parameters its
//! reduce-scatter left it and allgathers the rest, on the same bits as the
//! replicated step (see `crate::step`). A test asserts that `R` ranks with
//! per-rank batch `B/R` follow the same parameter trajectory as one process
//! with batch `B`.
//!
//! Both comm paths — the serial `ring_allreduce_bucketed` and the
//! overlapped windowed handles — are drivers over the *same*
//! `summit_comm::engine` ring schedule, which is what makes serial,
//! bucketed, and overlapped training bit-identical by construction.

use summit_comm::world::World;
use summit_tensor::{ops, Matrix};

use crate::model::{Mlp, MlpSpec};
use crate::optim::{Adam, Optimizer};
use crate::schedule::LrSchedule;
use crate::step::{lead_params, shard_range, Replica};

/// Metrics from one epoch (or one evaluation pass).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMetrics {
    /// Mean per-batch loss.
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f32,
    /// Optimizer steps taken.
    pub steps: u32,
}

/// A single-process trainer with optional gradient accumulation.
pub struct Trainer {
    /// The model being trained.
    pub model: Mlp,
    optimizer: Box<dyn Optimizer>,
    schedule: LrSchedule,
    step: u32,
}

impl Trainer {
    /// Create a trainer.
    pub fn new(model: Mlp, optimizer: Box<dyn Optimizer>, schedule: LrSchedule) -> Self {
        Trainer {
            model,
            optimizer,
            schedule,
            step: 0,
        }
    }

    /// Global step counter.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// One optimizer step on a single batch. Returns (loss, accuracy).
    ///
    /// # Panics
    /// Panics if `x.rows() != labels.len()`.
    pub fn train_batch(&mut self, x: &Matrix, labels: &[usize]) -> (f32, f32) {
        assert_eq!(x.rows(), labels.len(), "batch shape mismatch");
        let logits = self.model.forward(x);
        let acc = ops::accuracy(&logits, labels);
        let (loss, dlogits) = ops::softmax_cross_entropy(logits, labels);
        self.model.zero_grads();
        self.model.backward(&dlogits);
        self.apply_step();
        (loss, acc)
    }

    /// One pass over the dataset in order, stepping every `batch_size` rows.
    ///
    /// # Panics
    /// Panics if `batch_size == 0` or shapes mismatch.
    pub fn train_epoch(&mut self, x: &Matrix, labels: &[usize], batch_size: usize) -> EpochMetrics {
        assert!(batch_size > 0, "batch size must be positive");
        assert_eq!(x.rows(), labels.len(), "dataset shape mismatch");
        let mut losses = 0.0f32;
        let mut accs = 0.0f32;
        let mut steps = 0u32;
        let mut start = 0;
        while start < x.rows() {
            let end = (start + batch_size).min(x.rows());
            let bx = slice_rows(x, start, end);
            let (loss, acc) = self.train_batch(&bx, &labels[start..end]);
            losses += loss;
            accs += acc;
            steps += 1;
            start = end;
        }
        EpochMetrics {
            loss: losses / steps as f32,
            accuracy: accs / steps as f32,
            steps,
        }
    }

    /// One optimizer step of mean-squared-error regression. Returns the
    /// batch MSE.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    fn train_regression_batch(&mut self, x: &Matrix, targets: &Matrix) -> f32 {
        assert_eq!(x.rows(), targets.rows(), "batch shape mismatch");
        let pred = self.model.forward(x);
        let (loss, grad) = ops::mse(&pred, targets);
        self.model.zero_grads();
        self.model.backward(&grad);
        self.apply_step();
        loss
    }

    /// The steering loops' surrogate: a scalar regression MLP `inputs →
    /// hidden → 1` built from `seed`, trained by `adam` at a constant rate.
    pub fn regressor(inputs: usize, hidden: &[usize], adam: Adam, seed: u64) -> Self {
        Trainer::new(
            MlpSpec::new(inputs, hidden, 1).build(seed),
            Box::new(adam),
            LrSchedule::Constant,
        )
    }

    /// `iters` full-batch regression steps on `(x, targets)`.
    pub fn fit(&mut self, x: &Matrix, targets: &Matrix, iters: u32) {
        for _ in 0..iters {
            self.train_regression_batch(x, targets);
        }
    }

    /// Score every row of `candidates` (output column 0) and return the row
    /// indices best-first: highest score first if `maximise`, lowest first
    /// otherwise. Rows with equal scores keep their input order (scores
    /// compare by [`f32::total_cmp`], so −0.0 sits below +0.0).
    ///
    /// # Panics
    /// Panics, at the calling loop's location, if any row scores NaN.
    #[track_caller]
    pub fn rank(&mut self, candidates: &Matrix, maximise: bool) -> Vec<usize> {
        let pred = self.predict(candidates);
        let score = |i: usize| pred.get(i, 0);
        if let Some(i) = (0..pred.rows()).find(|&i| score(i).is_nan()) {
            panic!("surrogate scored candidate {i} NaN");
        }
        let mut order: Vec<usize> = (0..pred.rows()).collect();
        order.sort_by(|&a, &b| {
            let (lo, hi) = if maximise { (b, a) } else { (a, b) };
            score(lo).total_cmp(&score(hi))
        });
        order
    }

    /// Model predictions for a batch (regression or logits).
    pub fn predict(&mut self, x: &Matrix) -> Matrix {
        self.model.forward(x)
    }

    /// Snapshot the forward-only serving state of the model being trained
    /// — what a serving plane deploys at a step boundary (weights and biases; no
    /// optimizer state, gradients, or cached activations).
    pub fn servable(&self) -> crate::inference::ServableModel {
        self.model.servable()
    }

    /// Evaluate loss and accuracy without updating.
    pub fn evaluate(&mut self, x: &Matrix, labels: &[usize]) -> EpochMetrics {
        let logits = self.model.forward(x);
        let acc = ops::accuracy(&logits, labels);
        let (loss, _) = ops::softmax_cross_entropy(logits, labels);
        EpochMetrics {
            loss,
            accuracy: acc,
            steps: 0,
        }
    }

    /// One optimizer step from the gradient arena.
    fn apply_step(&mut self) {
        let lr = self.schedule.multiplier(self.step);
        let opt = &mut self.optimizer;
        self.model
            .for_each_group(|id, params, grads| opt.step_group(id, lr, params, grads));
        self.optimizer.advance();
        self.step += 1;
    }
}

/// Copy rows `[start, end)` of `x` into a new matrix.
pub fn slice_rows(x: &Matrix, start: usize, end: usize) -> Matrix {
    assert!(start < end && end <= x.rows(), "row range out of bounds");
    let mut out = Matrix::zeros(end - start, x.cols());
    for (o, r) in (start..end).enumerate() {
        out.row_mut(o).copy_from_slice(x.row(r));
    }
    out
}

/// Gradient-fusion configuration: the bucket size used to segment the
/// fused flat-gradient allreduce (Horovod's "tensor fusion" knob).
///
/// Bucketing only changes message segmentation inside the ring allreduce,
/// never the arithmetic, so training trajectories are bit-identical for
/// every bucket size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionConfig {
    /// Fusion bucket size in bytes (gradients are f32: 4 bytes/element).
    pub bucket_bytes: usize,
}

impl Default for FusionConfig {
    fn default() -> Self {
        // 256 KB: in a bucket-size sweep on a ~1 MB-gradient MLP at 4 ranks
        // this was the fastest trainer epoch (129.5 ms vs 133.0 ms at 4 KB
        // and 131.0 ms flat), and per-message overhead is amortized well
        // before this point.
        FusionConfig {
            bucket_bytes: 256 * 1024,
        }
    }
}

impl FusionConfig {
    /// The bucket size in f32 elements (at least one).
    pub fn bucket_elems(&self) -> usize {
        (self.bucket_bytes / 4).max(1)
    }
}

/// Backward/communication overlap configuration.
///
/// When enabled (the default), each fusion bucket's allreduce launches as a
/// nonblocking windowed collective the moment backpropagation has produced
/// the last gradient contributing to it, and in-flight collectives are
/// progressed after every subsequent layer's backward — the
/// PyTorch-DDP/Horovod overlap discipline. The windowed collectives chunk
/// against the global partition, so the training trajectory is bit-identical
/// to the serial fused path (`enabled: false`), which remains available as
/// the fallback and as the baseline the overlap benches compare against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapConfig {
    /// Launch bucket allreduces during backward instead of after it.
    pub enabled: bool,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig { enabled: true }
    }
}

/// Maps reverse-order layer-gradient readiness to fusion-bucket launches.
///
/// The flat gradient is cut into `ceil(n / bucket_elems)` fixed buckets.
/// Because the flat layout is layer-major and backward completes layers in
/// reverse, the ready region is a suffix growing toward offset zero; bucket
/// `b` becomes launchable when the ready suffix reaches its start offset,
/// i.e. when the *lowest-offset* layer overlapping it has produced its
/// gradient. [`BucketSchedule::on_layer_ready`] returns each bucket exactly
/// once (the property test below pins this for arbitrary layer shapes and
/// bucket sizes, including buckets straddling layer boundaries and a final
/// partial bucket).
#[derive(Debug, Clone)]
pub struct BucketSchedule {
    bucket_elems: usize,
    /// Start offset of each layer's `[weights, bias]` region in the flat
    /// gradient; `layer_starts[depth] == total`.
    layer_starts: Vec<usize>,
    /// Lowest bucket index already returned; buckets `[fired_from, n)` are
    /// in flight or done.
    fired_from: usize,
    /// The layer expected to finish next (depth-first countdown).
    expect: usize,
}

impl BucketSchedule {
    /// Build a schedule for layers of the given flat sizes (in layout
    /// order) and a fusion bucket of `bucket_elems` elements.
    ///
    /// # Panics
    /// Panics if `bucket_elems == 0` or `layer_sizes` is empty.
    pub fn new(layer_sizes: &[usize], bucket_elems: usize) -> Self {
        assert!(bucket_elems > 0, "bucket must hold at least one element");
        assert!(!layer_sizes.is_empty(), "need at least one layer");
        let mut layer_starts = Vec::with_capacity(layer_sizes.len() + 1);
        let mut off = 0;
        for s in layer_sizes {
            layer_starts.push(off);
            off += s;
        }
        layer_starts.push(off);
        let n_buckets = off.div_ceil(bucket_elems);
        BucketSchedule {
            bucket_elems,
            layer_starts,
            fired_from: n_buckets,
            expect: layer_sizes.len(),
        }
    }

    /// Total flat gradient length.
    fn total_elems(&self) -> usize {
        *self.layer_starts.last().expect("always one entry")
    }

    /// Number of fusion buckets.
    pub fn n_buckets(&self) -> usize {
        self.total_elems().div_ceil(self.bucket_elems)
    }

    /// Record that layer `layer`'s gradient is final and return the newly
    /// launchable buckets as a range of bucket indices. Launch them in
    /// `.rev()` order: the highest-offset bucket completed first.
    ///
    /// # Panics
    /// Panics if layers are reported out of reverse order.
    pub fn on_layer_ready(&mut self, layer: usize) -> std::ops::Range<usize> {
        assert_eq!(
            layer + 1,
            self.expect,
            "layers must be reported in reverse order"
        );
        self.expect = layer;
        // Every element at or above this offset is now final.
        let ready_from = self.layer_starts[layer];
        // Bucket b spans [b·m, (b+1)·m); it is ready iff ready_from ≤ b·m.
        let lo = ready_from.div_ceil(self.bucket_elems);
        let newly = lo..self.fired_from;
        self.fired_from = self.fired_from.min(lo);
        newly
    }
}

/// Configuration for a data-parallel training run.
pub struct DataParallelTrainer {
    /// Number of ranks (model replicas).
    pub ranks: usize,
    /// Per-rank micro-batch size.
    pub per_rank_batch: usize,
    /// Gradient-fusion bucketing for the per-step allreduce.
    pub fusion: FusionConfig,
    /// Backward/communication overlap of the per-bucket allreduces.
    pub overlap: OverlapConfig,
    /// Explicit per-rank compute-thread budget. `None` keeps what the
    /// [`World`] execution leased this rank from the process-wide
    /// [`summit_pool::arbiter`]: the even machine share when this is the
    /// only live world, less (down to the rank's own thread) when other
    /// worlds already hold lanes — so ranks never oversubscribe the host.
    /// A `SUMMIT_THREADS` pin bypasses the arbiter.
    pub threads: Option<usize>,
}

/// Per-epoch result of a data-parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Final flat parameters (identical across ranks; rank 0's copy).
    pub params: Vec<f32>,
    /// Mean loss per step, from rank 0.
    pub loss: f32,
    /// Maximum parameter divergence observed across ranks at the end
    /// (should be ~0: synchronous SGD keeps replicas identical).
    pub max_divergence: f32,
    /// Optimizer steps taken.
    pub steps: u32,
    /// Rank 0's cumulative wall-clock seconds spent in the step's
    /// collectives: the gradient reduction (launch + progress + wait for
    /// the overlapped path; all of it for the serial path) — under the
    /// sharded commit, both halves: the gradient reduce-scatter and the
    /// parameter allgather.
    pub comm_seconds: f64,
    /// The part of `comm_seconds` *not* hidden behind backpropagation: the
    /// post-backward wait tail of the gradient reduction for the overlapped
    /// path (all of it for the serial path), plus the whole parameter
    /// allgather, which runs after the update. `1 − exposed/serial` across
    /// two runs is the measured overlap fraction the benches report.
    pub exposed_comm_seconds: f64,
    /// Compute-pool activity during this run (tasks dispatched/stolen,
    /// parks, busy seconds), windowed between snapshots before and after
    /// the ranks execute — the compute-side counterpart of the
    /// communicator's `PoolStats`. The pool and its counters are
    /// **process-wide**: any concurrent pool activity from other threads in
    /// the same process (another trainer, parallel tests) lands in this
    /// window too, so treat the numbers as "pool activity while this run
    /// executed", not an exact per-run attribution.
    pub compute: summit_pool::ComputeStats,
}

impl DataParallelTrainer {
    /// Create a configuration.
    ///
    /// # Panics
    /// Panics if either field is zero.
    pub fn new(ranks: usize, per_rank_batch: usize) -> Self {
        assert!(ranks > 0 && per_rank_batch > 0, "config must be positive");
        DataParallelTrainer {
            ranks,
            per_rank_batch,
            fusion: FusionConfig::default(),
            overlap: OverlapConfig::default(),
            threads: None,
        }
    }

    /// Override the gradient-fusion bucket size.
    #[must_use]
    pub fn with_fusion(mut self, fusion: FusionConfig) -> Self {
        self.fusion = fusion;
        self
    }

    /// Override the backward/communication overlap setting.
    #[must_use]
    pub fn with_overlap(mut self, overlap: OverlapConfig) -> Self {
        self.overlap = overlap;
        self
    }

    /// Pin every rank's compute-thread budget to `per_rank` instead of the
    /// arbiter's lease, in every driver (`run`, `run_fault_tolerant`). Use
    /// this to deliberately over- or under-subscribe (e.g. scaling studies);
    /// the default never oversubscribes.
    ///
    /// # Panics
    /// Panics if `per_rank` is zero.
    #[must_use]
    pub fn with_threads(mut self, per_rank: usize) -> Self {
        assert!(per_rank > 0, "per-rank thread budget must be positive");
        self.threads = Some(per_rank);
        self
    }

    /// Run `epochs` of synchronous data-parallel training. Every rank builds
    /// the model from `build_model()` (so replicas start identical), takes
    /// its round-robin shard of `(x, labels)`, and reduces gradients every
    /// step. The optimizer is constructed per rank by `build_optimizer()`;
    /// an [elementwise](Optimizer::elementwise) one commits sharded (each
    /// rank steps and keeps state for its own chunk of the parameters,
    /// then allgathers them), any other replicated, in lockstep because
    /// inputs are identical.
    ///
    /// # Panics
    /// Panics if the dataset is smaller than one global batch.
    pub fn run(
        &self,
        build_model: impl Fn() -> Mlp + Sync,
        build_optimizer: impl Fn() -> Box<dyn Optimizer> + Sync,
        schedule: LrSchedule,
        x: &Matrix,
        labels: &[usize],
        epochs: u32,
    ) -> ParallelOutcome {
        let mut world = World::new(self.ranks);
        self.run_in(
            &mut world,
            build_model,
            build_optimizer,
            schedule,
            x,
            labels,
            epochs,
        )
    }

    /// Like [`DataParallelTrainer::run`] but executing on a caller-provided
    /// [`World`] — the multi-world plumbing the scheduler's execution
    /// backend uses to run training jobs inside its own leased worlds. The
    /// world is reusable afterwards.
    ///
    /// # Panics
    /// Panics if `world.size() != self.ranks` or the dataset is smaller
    /// than one global batch.
    #[allow(clippy::too_many_arguments)]
    pub fn run_in(
        &self,
        world: &mut World,
        build_model: impl Fn() -> Mlp + Sync,
        build_optimizer: impl Fn() -> Box<dyn Optimizer> + Sync,
        schedule: LrSchedule,
        x: &Matrix,
        labels: &[usize],
        epochs: u32,
    ) -> ParallelOutcome {
        assert_eq!(
            world.size(),
            self.ranks,
            "world size must match the trainer's rank count"
        );
        let total_steps = epochs * self.steps_per_epoch(x.rows());

        let stats_before = summit_pool::global().stats();
        let results = world.execute(|rank| {
            let mut replica = Replica::new(self, &build_model, &build_optimizer, true);
            let mut loss_sum = 0.0f32;
            let mut comm_seconds = 0.0f64;
            let mut exposed_seconds = 0.0f64;
            for step in 0..total_steps {
                let shard = shard_range(step, x.rows(), self.ranks, rank.id(), self.per_rank_batch);
                let (loss, dlogits) = replica.forward_loss(x, labels, shard);
                // No fault plane, so no view and no deadline: the classic
                // infallible collectives.
                let (comm, exposed) = replica
                    .backward_and_sync(rank, None, &dlogits)
                    .expect("communication failure in infallible training step");
                let gather = replica.commit(rank, self.ranks, schedule.multiplier(step));
                comm_seconds += comm + gather;
                exposed_seconds += exposed + gather;
                loss_sum += loss;
            }
            (
                replica.model.into_arena().into_params(),
                (
                    loss_sum / total_steps.max(1) as f32,
                    comm_seconds,
                    exposed_seconds,
                ),
            )
        });

        let compute = summit_pool::global().stats().since(&stats_before);
        let (loss, comm_seconds, exposed_comm_seconds) = results[0].1;
        let (params, max_divergence) = lead_params(results.into_iter().map(|r| r.0));
        ParallelOutcome {
            params,
            loss,
            max_divergence,
            steps: total_steps,
            comm_seconds,
            exposed_comm_seconds,
            compute,
        }
    }

    /// Optimizer steps in one pass over `rows` samples at the full world
    /// size.
    ///
    /// # Panics
    /// Panics if `rows` is smaller than one global batch.
    pub(crate) fn steps_per_epoch(&self, rows: usize) -> u32 {
        let global_batch = self.ranks * self.per_rank_batch;
        assert!(
            rows >= global_batch,
            "dataset smaller than one global batch"
        );
        (rows / global_batch) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{blobs, spirals};
    use crate::model::MlpSpec;
    use crate::optim::{Adam, Lamb, Larc, Lars, Sgd};

    #[test]
    fn trainer_learns_blobs() {
        let task = blobs(300, 4, 3, 0.4, 11);
        let mut t = Trainer::new(
            MlpSpec::new(4, &[16], 3).build(1),
            Box::new(Sgd::new(0.05, 0.9, 0.0)),
            LrSchedule::Constant,
        );
        for _ in 0..30 {
            t.train_epoch(&task.x, &task.y, 32);
        }
        let m = t.evaluate(&task.x, &task.y);
        assert!(m.accuracy > 0.95, "accuracy {}", m.accuracy);
    }

    #[test]
    fn mlp_solves_spirals_where_linear_cannot() {
        let task = spirals(400, 0.02, 5);
        // Linear model (no hidden layer).
        let mut linear = Trainer::new(
            MlpSpec::new(2, &[], 2).build(2),
            Box::new(Adam::new(0.01, 0.0)),
            LrSchedule::Constant,
        );
        // Nonlinear MLP.
        let mut mlp = Trainer::new(
            MlpSpec::new(2, &[32, 32], 2).build(2),
            Box::new(Adam::new(0.01, 0.0)),
            LrSchedule::Constant,
        );
        for _ in 0..150 {
            linear.train_epoch(&task.x, &task.y, 64);
            mlp.train_epoch(&task.x, &task.y, 64);
        }
        let lin = linear.evaluate(&task.x, &task.y).accuracy;
        let non = mlp.evaluate(&task.x, &task.y).accuracy;
        assert!(lin < 0.8, "linear model should struggle, got {lin}");
        assert!(non > 0.9, "MLP should solve spirals, got {non}");
    }

    #[test]
    fn data_parallel_matches_single_process() {
        let task = blobs(256, 4, 2, 0.3, 31);
        let spec = MlpSpec::new(4, &[8], 2);
        let schedule = LrSchedule::Constant;

        // Single process, global batch 32.
        let mut single = Trainer::new(spec.build(7), Box::new(Sgd::new(0.05, 0.9, 0.0)), schedule);
        let steps = 256 / 32;
        for s in 0..steps {
            let bx = slice_rows(&task.x, s * 32, (s + 1) * 32);
            single.train_batch(&bx, &task.y[s * 32..(s + 1) * 32]);
        }

        // 4 ranks × per-rank batch 8 = global 32.
        let dp = DataParallelTrainer::new(4, 8);
        let out = dp.run(
            || spec.build(7),
            || Box::new(Sgd::new(0.05, 0.9, 0.0)),
            schedule,
            &task.x,
            &task.y,
            1,
        );
        assert_eq!(out.steps, steps as u32);
        assert!(
            out.max_divergence < 1e-6,
            "replicas diverged: {}",
            out.max_divergence
        );
        for (a, b) in single.model.flat_params().iter().zip(&out.params) {
            assert!(
                (a - b).abs() < 1e-4,
                "data-parallel trajectory diverged: {a} vs {b}"
            );
        }
    }

    /// Trainer ranks must not oversubscribe the machine: by default every
    /// rank computes under an even share of the host
    /// (`available_parallelism / ranks`), and `with_threads` pins an
    /// explicit per-rank budget instead. `build_model` runs on the rank
    /// thread after the budget is set, so it observes what the rank's
    /// kernels will actually use.
    #[test]
    fn ranks_compute_under_disjoint_budgets() {
        let task = blobs(128, 4, 2, 0.3, 23);
        let spec = MlpSpec::new(4, &[8], 2);
        let observed = std::sync::Mutex::new(Vec::new());
        let run = |dp: DataParallelTrainer| {
            observed.lock().unwrap().clear();
            dp.run(
                || {
                    observed.lock().unwrap().push(summit_pool::core_budget());
                    spec.build(7)
                },
                || Box::new(Sgd::new(0.05, 0.9, 0.0)),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                1,
            )
        };

        run(DataParallelTrainer::new(4, 8));
        let budgets = observed.lock().unwrap().clone();
        let share = summit_pool::rank_budget_from_env(4);
        assert_eq!(budgets, vec![share; 4], "default is the even share");
        if std::env::var_os("SUMMIT_THREADS").is_none() {
            assert!(
                4 * share <= summit_pool::machine_parallelism().max(4),
                "default budgets oversubscribe: 4 × {share}"
            );
        }

        run(DataParallelTrainer::new(4, 8).with_threads(2));
        let budgets = observed.lock().unwrap().clone();
        assert_eq!(budgets, vec![2; 4], "with_threads pins the budget");
    }

    /// Gradient fusion must not change arithmetic: the bucketed allreduce
    /// is message segmentation only, so the whole training trajectory is
    /// bit-identical for every bucket size — one element per message, an
    /// odd size that straddles layer boundaries, the default, and a bucket
    /// larger than the model (the flat path).
    #[test]
    fn fused_buckets_train_bit_identically() {
        let task = blobs(128, 4, 2, 0.3, 17);
        let spec = MlpSpec::new(4, &[8, 8], 2);
        let run_with = |bucket_bytes: usize| {
            DataParallelTrainer::new(4, 8)
                .with_fusion(FusionConfig { bucket_bytes })
                .run(
                    || spec.build(5),
                    || Box::new(Sgd::new(0.05, 0.9, 0.0)),
                    LrSchedule::Constant,
                    &task.x,
                    &task.y,
                    2,
                )
        };
        let reference = run_with(usize::MAX / 8); // bucket >> model: flat path
        assert_eq!(reference.max_divergence, 0.0);
        for bucket_bytes in [4usize, 52, FusionConfig::default().bucket_bytes] {
            let fused = run_with(bucket_bytes);
            assert_eq!(fused.steps, reference.steps);
            for (i, (a, b)) in fused.params.iter().zip(&reference.params).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "bucket {bucket_bytes}B param {i}: {a} vs {b}"
                );
            }
        }
    }

    /// The acceptance bar for the overlap scheme: launching per-bucket
    /// windowed allreduces *during* backward follows the exact same
    /// parameter trajectory as the serial fused path — bitwise — for
    /// several bucket sizes (straddling layers, partial final bucket, flat)
    /// at both 2 and 4 ranks.
    #[test]
    fn overlapped_training_bit_identical_to_serial() {
        let task = blobs(128, 4, 2, 0.3, 27);
        let spec = MlpSpec::new(4, &[8, 8], 2);
        let run_with = |ranks: usize, bucket_bytes: usize, enabled: bool| {
            DataParallelTrainer::new(ranks, 8)
                .with_fusion(FusionConfig { bucket_bytes })
                .with_overlap(OverlapConfig { enabled })
                .run(
                    || spec.build(5),
                    || Box::new(Sgd::new(0.05, 0.9, 0.0)),
                    LrSchedule::Constant,
                    &task.x,
                    &task.y,
                    2,
                )
        };
        for ranks in [2usize, 4] {
            for bucket_bytes in [16usize, 100, 256, usize::MAX / 8] {
                let serial = run_with(ranks, bucket_bytes, false);
                let overlapped = run_with(ranks, bucket_bytes, true);
                assert_eq!(overlapped.steps, serial.steps);
                assert_eq!(overlapped.max_divergence, 0.0);
                for (i, (a, b)) in overlapped.params.iter().zip(&serial.params).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "ranks={ranks} bucket={bucket_bytes}B param {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    /// Overlap on a single rank degenerates to the serial path without
    /// communication and must still train.
    #[test]
    fn overlap_single_rank_works() {
        let task = blobs(64, 4, 2, 0.3, 33);
        let out = DataParallelTrainer::new(1, 16)
            .with_overlap(OverlapConfig { enabled: true })
            .run(
                || MlpSpec::new(4, &[8], 2).build(3),
                || Box::new(Sgd::new(0.05, 0.9, 0.0)),
                LrSchedule::Constant,
                &task.x,
                &task.y,
                1,
            );
        assert_eq!(out.steps, 4);
        assert!(out.loss.is_finite());
    }

    #[test]
    fn bucket_schedule_fires_suffix_buckets() {
        // 3 layers of 10/7/5 elements, bucket 4 → total 22, 6 buckets
        // (last one partial: [20, 22)). Layer starts: 0, 10, 17.
        let mut sched = BucketSchedule::new(&[10, 7, 5], 4);
        assert_eq!(sched.n_buckets(), 6);
        assert_eq!(sched.total_elems(), 22);
        // Layer 2 ready → suffix [17, 22): buckets 5 and the straddler 4
        // (spans [16, 20), still waiting on element 16 of layer 1).
        assert_eq!(sched.on_layer_ready(2), 5..6);
        // Layer 1 ready → suffix [10, 17): buckets 3, 4 ready; bucket 2
        // ([8, 12)) straddles into layer 0.
        assert_eq!(sched.on_layer_ready(1), 3..5);
        // Layer 0 → everything else.
        assert_eq!(sched.on_layer_ready(0), 0..3);
    }

    #[test]
    #[should_panic(expected = "reverse order")]
    fn bucket_schedule_rejects_out_of_order_layers() {
        let mut sched = BucketSchedule::new(&[4, 4], 2);
        let _ = sched.on_layer_ready(0);
    }

    proptest::proptest! {
        /// For arbitrary layer shapes and bucket sizes — buckets straddling
        /// layer boundaries, a partial final bucket, buckets larger than
        /// the model — reverse-order readiness fires every bucket exactly
        /// once, never before all its elements are final, and in globally
        /// descending order.
        #[test]
        fn prop_bucket_schedule_fires_each_bucket_exactly_once(
            layer_sizes in proptest::collection::vec(1usize..=64, 1..9),
            bucket_elems in 1usize..=96,
        ) {
            let mut sched = BucketSchedule::new(&layer_sizes, bucket_elems);
            let total: usize = layer_sizes.iter().sum();
            let n_buckets = sched.n_buckets();
            proptest::prop_assert_eq!(n_buckets, total.div_ceil(bucket_elems));

            let mut fired: Vec<usize> = Vec::new();
            for layer in (0..layer_sizes.len()).rev() {
                let ready_from: usize = layer_sizes[..layer].iter().sum();
                for b in sched.on_layer_ready(layer).rev() {
                    // A bucket only fires once its lowest element is final.
                    proptest::prop_assert!(
                        b * bucket_elems >= ready_from,
                        "bucket {} fired before its data was ready", b
                    );
                    fired.push(b);
                }
            }
            // Launch order is strictly descending …
            proptest::prop_assert!(fired.windows(2).all(|w| w[0] > w[1]));
            // … and covers every bucket exactly once.
            proptest::prop_assert_eq!(fired.len(), n_buckets);
            proptest::prop_assert_eq!(fired.first().copied(), n_buckets.checked_sub(1));
            proptest::prop_assert_eq!(fired.last().copied(), (n_buckets > 0).then_some(0));
        }
    }

    /// Large-batch stability (paper Section IV-B): with an aggressive
    /// linearly-scaled learning rate, plain SGD blows up while the
    /// layer-wise methods (LARS/LARC/LAMB) keep the loss finite and
    /// decreasing.
    #[test]
    fn layerwise_optimizers_survive_large_batch_lr() {
        // Ill-conditioned inputs (one feature scaled 50×) plus the
        // linearly-scaled learning rate of a large-batch recipe: the regime
        // where plain SGD explodes and the layer-wise trust-ratio methods
        // (the paper's LARC/LARS/LAMB runs) stay stable.
        let mut task = blobs(512, 8, 2, 0.5, 41);
        for r in 0..task.x.rows() {
            let v = task.x.get(r, 0);
            task.x.set(r, 0, v * 50.0);
        }
        let spec = MlpSpec::new(8, &[32], 2);
        let big_lr = 5.0f32;

        // At this learning rate the layer-wise methods oscillate between
        // near-zero and moderate loss, so judge convergence by the best
        // epoch rather than the (noisy) final one: a diverged run never
        // dips below the random baseline at any epoch.
        let run = |opt: Box<dyn Optimizer>| -> f32 {
            let mut t = Trainer::new(spec.build(9), opt, LrSchedule::Constant);
            let mut best = f32::INFINITY;
            for _ in 0..40 {
                let m = t.train_epoch(&task.x, &task.y, 128);
                if m.loss.is_finite() {
                    best = best.min(m.loss);
                } else {
                    return m.loss;
                }
            }
            best
        };

        let sgd_loss = run(Box::new(Sgd::new(big_lr, 0.9, 0.0)));
        let lars_loss = run(Box::new(Lars::new(big_lr, 0.9, 1e-4, 0.01)));
        let larc_loss = run(Box::new(Larc::new(big_lr, 0.9, 1e-4, 0.01)));
        let lamb_loss = run(Box::new(Lamb::new(0.05, 1e-4)));

        let initial_loss = (2.0f32).ln(); // 2-class random baseline
        assert!(
            !sgd_loss.is_finite() || sgd_loss > initial_loss,
            "SGD at lr={big_lr} should diverge, got loss {sgd_loss}"
        );
        for (name, loss) in [
            ("lars", lars_loss),
            ("larc", larc_loss),
            ("lamb", lamb_loss),
        ] {
            assert!(
                loss.is_finite() && loss < initial_loss,
                "{name} should stay convergent, got {loss}"
            );
        }
    }

    #[test]
    fn regression_fits_teacher() {
        let task = crate::data::teacher_regression(400, 6, 61);
        let mut t = Trainer::regressor(6, &[24], Adam::new(0.01, 0.0), 4);
        let before = ops::mse(&t.predict(&task.x), &task.y).0;
        t.fit(&task.x, &task.y, 200);
        let after = ops::mse(&t.predict(&task.x), &task.y).0;
        assert!(after < before / 10.0, "MSE {before} → {after}");
    }

    /// A ranker whose score is its input: the identity model `x ↦ 1·x + 0`.
    fn identity_ranker() -> Trainer {
        let mut t = Trainer::regressor(1, &[], Adam::new(0.01, 0.0), 0);
        t.model.arena_mut().set_flat_params(&[1.0, 0.0]);
        t
    }

    /// Best-first maximises for the workflow loops (predicted affinity,
    /// progress) and minimises for the facility campaign (predicted energy);
    /// either way, equal scores keep their input order.
    #[test]
    fn rank_maximises_or_minimises_keeping_input_order_among_ties() {
        let x = Matrix::from_vec(6, 1, vec![0.5, 2.0, 0.5, -1.0, 2.0, 0.5]);
        let mut t = identity_ranker();
        assert_eq!(t.rank(&x, true), [1, 4, 0, 2, 5, 3]);
        assert_eq!(t.rank(&x, false), [3, 0, 2, 5, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "surrogate scored candidate 1 NaN")]
    fn rank_refuses_a_nan_score() {
        let x = Matrix::from_vec(3, 1, vec![1.0, f32::NAN, 0.0]);
        identity_ranker().rank(&x, true);
    }

    #[test]
    fn warmup_reduces_early_step_sizes() {
        let task = blobs(64, 4, 2, 0.3, 51);
        let run_first_step_norm = |schedule: LrSchedule| -> f32 {
            let mut t = Trainer::new(
                MlpSpec::new(4, &[8], 2).build(3),
                Box::new(Sgd::new(0.5, 0.0, 0.0)),
                schedule,
            );
            let before = t.model.flat_params();
            t.train_batch(&task.x, &task.y);
            let after = t.model.flat_params();
            before
                .iter()
                .zip(&after)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f32>()
                .sqrt()
        };
        let cold = run_first_step_norm(LrSchedule::Constant);
        let warm = run_first_step_norm(LrSchedule::LinearWarmup { warmup_steps: 100 });
        assert!(warm < cold / 10.0, "warmup step {warm} vs cold {cold}");
    }
}
