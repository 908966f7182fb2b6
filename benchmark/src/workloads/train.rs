//! `train_compute` and `train_sync`: the same data-parallel MLP trainer at
//! two per-rank batch sizes, so that GEMM dominates one and gradient
//! bookkeeping plus the ring allreduce dominate the other.

use std::time::Instant;

use summit_comm::collectives::ring_allreduce_bucketed;
use summit_comm::{ReduceOp, World};
use summit_dl::data::{blobs, ClassificationTask};
use summit_dl::trainer::{slice_rows, ParallelOutcome};
use summit_dl::{
    DataParallelTrainer, FusionConfig, LrSchedule, MlpSpec, Optimizer, OverlapConfig, Sgd,
};
use summit_pool::ComputeStats;
use summit_tensor::{ops, Matrix};

use super::{bits_equal, run_units, time_median, Budget, Gate, Layers, Measured, Unit, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// Data-parallel ranks of the measured run (the reference host has two
/// cores; the single-rank baseline is the probe's).
const RANKS: usize = 2;
const LEARNING_RATE: f32 = 0.01;
const MOMENTUM: f32 = 0.9;

pub struct Sizes {
    features: usize,
    hidden: &'static [usize],
    classes: usize,
    per_rank_batch: usize,
    /// Optimizer steps per repeat (one `run_in` call).
    steps: usize,
    warmup_steps: usize,
}

impl Sizes {
    /// MLP 256→[1024,1024,1024]→16 (2.36 M parameters) at per-rank batch
    /// 64: about 135 ms per step on the reference host, nearly all GEMM.
    pub fn compute(quick: bool) -> Self {
        if quick {
            return Sizes {
                features: 16,
                hidden: &[32, 32],
                classes: 4,
                per_rank_batch: 8,
                steps: 3,
                warmup_steps: 1,
            };
        }
        Sizes {
            features: 256,
            hidden: &[1024, 1024, 1024],
            classes: 16,
            per_rank_batch: 64,
            steps: 12,
            warmup_steps: 2,
        }
    }

    /// The same model at per-rank batch 2: about 14 ms per step, of which
    /// GEMM (M = 2) is little.
    pub fn sync(quick: bool) -> Self {
        if quick {
            return Sizes {
                per_rank_batch: 2,
                steps: 5,
                ..Sizes::compute(true)
            };
        }
        Sizes {
            per_rank_batch: 2,
            steps: 100,
            warmup_steps: 16,
            ..Sizes::compute(false)
        }
    }
}

/// Counters the trainer returned, summed over the repeats of one phase.
#[derive(Default)]
struct Counters {
    steps: u64,
    wall: f64,
    comm_seconds: f64,
    exposed_seconds: f64,
    compute: ComputeStats,
    messages: u64,
    bytes: u64,
}

/// The seeded inputs of every run: data, model shape, model seed.
struct Inputs {
    sizes: Sizes,
    seed: u64,
    spec: MlpSpec,
    task: ClassificationTask,
}

impl Inputs {
    /// One `run_in` over the first `x.rows()` samples: every rank builds
    /// the same seeded model and a fresh SGD-momentum optimizer.
    fn run(&self, trainer: &DataParallelTrainer, world: &mut World, x: &Matrix) -> ParallelOutcome {
        let model_seed = self.model_seed();
        trainer.run_in(
            world,
            || self.spec.build(model_seed),
            || Box::new(Sgd::new(LEARNING_RATE, MOMENTUM, 0.0)) as Box<dyn Optimizer>,
            LrSchedule::Constant,
            x,
            &self.task.y[..x.rows()],
            1,
        )
    }

    fn model_seed(&self) -> u64 {
        self.seed.wrapping_add(1)
    }
}

pub struct Train {
    inputs: Inputs,
    /// The one long-lived world every measured repeat runs on.
    world: World,
    /// Final parameters of the first overlapped repeat: every later repeat
    /// runs the same seed and must reproduce them bit for bit.
    reference: Option<Vec<f32>>,
    counters: Counters,
}

impl Train {
    pub fn setup(sizes: Sizes, seed: u64) -> Self {
        let rows = sizes.steps * RANKS * sizes.per_rank_batch;
        let task = blobs(rows, sizes.features, sizes.classes, 0.5, seed);
        let spec = MlpSpec::new(sizes.features, sizes.hidden, sizes.classes);
        let inputs = Inputs {
            sizes,
            seed,
            spec,
            task,
        };
        let mut world = World::new(RANKS);
        let warm_rows = inputs.sizes.warmup_steps * RANKS * inputs.sizes.per_rank_batch;
        let x = slice_rows(&inputs.task.x, 0, warm_rows);
        let trainer = DataParallelTrainer::new(RANKS, inputs.sizes.per_rank_batch);
        let warm = inputs.run(&trainer, &mut world, &x);
        assert!(warm.loss.is_finite(), "warm-up loss is not finite");
        Train {
            inputs,
            world,
            reference: None,
            counters: Counters::default(),
        }
    }

    /// One repeat: `steps` optimizer steps at p = [`RANKS`] on the
    /// workload's long-lived world.
    fn repeat(&mut self, overlap: bool) -> ParallelOutcome {
        let trainer = DataParallelTrainer::new(RANKS, self.inputs.sizes.per_rank_batch)
            .with_overlap(OverlapConfig { enabled: overlap });
        self.inputs
            .run(&trainer, &mut self.world, &self.inputs.task.x)
    }

    /// Median wall seconds of one step of the p = 1, one-thread baseline.
    fn baseline_step_seconds(&self, tracer: &Tracer, repeats: usize) -> f64 {
        let sizes = &self.inputs.sizes;
        let x = slice_rows(&self.inputs.task.x, 0, sizes.steps * sizes.per_rank_batch);
        let trainer = DataParallelTrainer::new(1, sizes.per_rank_batch).with_threads(1);
        let mut world = World::new(1);
        let walls: Vec<f64> = (0..repeats)
            .map(|_| {
                tracer.next_repeat();
                let (out, wall) = tracer.time("dl", "DataParallelTrainer::run_in(p=1)", || {
                    self.inputs.run(&trainer, &mut world, &x)
                });
                assert!(out.loss.is_finite(), "baseline loss is not finite");
                wall
            })
            .collect();
        median(&walls) / sizes.steps as f64
    }
}

impl Workload for Train {
    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Measured {
        let mut counters = Counters::default();
        let mut finite = true;
        let mut converged = true;
        let mut reproducible = true;
        let mut failed_steps = 0u64;
        let samples = (self.inputs.sizes.steps * RANKS * self.inputs.sizes.per_rank_batch) as f64;
        let units = run_units(budget, || {
            tracer.next_repeat();
            let (out, seconds) =
                tracer.time("dl", "DataParallelTrainer::run_in", || self.repeat(true));
            let traffic = self.world.last_traffic();
            counters.steps += u64::from(out.steps);
            counters.wall += seconds;
            counters.comm_seconds += out.comm_seconds;
            counters.exposed_seconds += out.exposed_comm_seconds;
            counters.compute.tasks_dispatched += out.compute.tasks_dispatched;
            counters.compute.parks += out.compute.parks;
            counters.compute.busy_nanos += out.compute.busy_nanos;
            counters.messages += traffic.messages_sent;
            counters.bytes += traffic.bytes_sent;
            let (is_finite, in_sync) = (out.loss.is_finite(), out.max_divergence == 0.0);
            finite &= is_finite;
            converged &= in_sync;
            if !(is_finite && in_sync) {
                failed_steps += u64::from(out.steps);
            }
            match &self.reference {
                Some(reference) => reproducible &= bits_equal(reference, &out.params),
                None => self.reference = Some(out.params),
            }
            Unit {
                work: samples,
                seconds,
            }
        });
        let repeats = units.len();
        let measured = Measured {
            units,
            attempted: counters.steps,
            failed: failed_steps,
            gates: vec![
                Gate::new(
                    "train.finite_loss",
                    finite,
                    "every repeat's mean loss is finite",
                ),
                Gate::new(
                    "train.max_divergence_zero",
                    converged,
                    "rank replicas end every repeat with identical parameters",
                ),
                Gate::new(
                    "train.same_seed_bit_equal",
                    reproducible,
                    format!("{repeats} repeats at one seed end on bit-identical parameters"),
                ),
            ],
        };
        self.counters = counters;
        measured
    }

    fn verify(&mut self) -> Vec<Gate> {
        let serial = self.repeat(false);
        let reference = self.reference.as_ref().expect("verify runs after measure");
        vec![Gate::new(
            "train.overlap_equals_serial",
            bits_equal(reference, &serial.params),
            "overlapped parameters are bit-identical to the serial fused path",
        )]
    }

    fn probe(&mut self, tracer: &Tracer, measured: &Measured, layers: &mut Layers) {
        let sizes = &self.inputs.sizes;
        let c = &self.counters;
        let steps = c.steps as f64;
        let step_ms = measured.unit_seconds() / sizes.steps as f64 * 1e3;
        let machine = summit_pool::machine_parallelism() as f64;

        // Counters the trainer and the world already return.
        layers.set(
            "pool.tasks_per_step",
            c.compute.tasks_dispatched as f64 / steps,
        );
        layers.set("pool.parks_per_step", c.compute.parks as f64 / steps);
        layers.set(
            "pool.busy_share",
            c.compute.busy_seconds() / (c.wall * machine),
        );
        layers.set("comm.comm_share", c.comm_seconds / c.wall);
        layers.set("comm.exposed_share", c.exposed_seconds / c.wall);
        layers.set("comm.messages_per_step", c.messages as f64 / steps);
        layers.set("comm.bytes_per_step", c.bytes as f64 / steps);

        // Weak scaling against the single-rank, single-thread baseline.
        let rate_p1 = sizes.per_rank_batch as f64 / self.baseline_step_seconds(tracer, 2);
        layers.set(
            "dl.weak_scaling_eff",
            measured.throughput_per_s() / (RANKS as f64 * rate_p1),
        );

        // The layer calls of one step, under the compute budget a rank of
        // the measured world runs with.
        let budget = summit_pool::arbiter().lease(RANKS).per_rank_budget();
        summit_pool::with_core_budget(budget, || {
            let accounted_ms = self.inputs.probe_step(tracer, layers);
            // The rest — two ranks sharing one memory system, the rank
            // threads' spawn, batch slicing — is the residual.
            layers.set("dl.step_residual_share", (step_ms - accounted_ms) / step_ms);
            let gemm_ms = self.inputs.probe_kernels(tracer, layers);
            layers.set("tensor.gemm_share", gemm_ms / step_ms);
        });

        // Pool dispatch: a two-part no-op from the driver thread, which
        // holds the whole machine's budget.
        let mut rows = vec![0.0f32; 2 * 16];
        let pool = summit_pool::global();
        let (dispatch_s, _) = tracer.time("pool", "run_rows(no-op)", || {
            time_median(2_000, || pool.run_rows(&mut rows, 16, 2, |_, _| {}))
        });
        layers.set("pool.dispatch_us", dispatch_s * 1e6);
    }
}

impl Inputs {
    /// One step decomposed into the trainer's own calls, then the step's
    /// ring allreduce alone on a p = 2 world. Returns the milliseconds of a
    /// step these probes account for, including the step's share of the
    /// model every `run_in` builds.
    fn probe_step(&self, tracer: &Tracer, layers: &mut Layers) -> f64 {
        let batch = self.sizes.per_rank_batch;
        let (mut model, build_s) = tracer.time("dl", "MlpSpec::build", || {
            self.spec.build(self.model_seed())
        });
        layers.set("dl.model_build_ms", build_s * 1e3);
        let mut optimizer = Sgd::new(LEARNING_RATE, MOMENTUM, 0.0);
        let mut flat: Vec<f32> = Vec::new();
        let mut parts: [Vec<f64>; 5] = Default::default();
        for s in 0..self.sizes.steps.min(8) {
            tracer.next_repeat();
            tracer.time("bench", "probe_step", || {
                let start = s * RANKS * batch;
                let bx = slice_rows(&self.task.x, start, start + batch);
                let labels = &self.task.y[start..start + batch];
                let (logits, t) = tracer.time("dl", "Mlp::forward", || model.forward(&bx));
                parts[0].push(t);
                let ((_, dlogits), t) = tracer.time("dl", "softmax_cross_entropy", || {
                    ops::softmax_cross_entropy(logits, labels)
                });
                parts[1].push(t);
                let ((), t) = tracer.time("dl", "Mlp::backward", || {
                    model.zero_grads();
                    model.backward(&dlogits);
                });
                parts[2].push(t);
                let ((), t) = tracer.time("dl", "flat_grads_into+set_flat_grads", || {
                    model.flat_grads_into(&mut flat);
                    let inv = 1.0 / RANKS as f32;
                    flat.iter_mut().for_each(|g| *g *= inv);
                    model.set_flat_grads(&flat);
                });
                parts[3].push(t);
                let ((), t) = tracer.time("dl", "Optimizer::step_group", || {
                    model.for_each_group(|id, params, grads| {
                        optimizer.step_group(id, 1.0, params, grads);
                    });
                    optimizer.advance();
                });
                parts[4].push(t);
            });
        }
        let [forward, loss, backward, flatten, optimize] = parts.map(|p| median(&p) * 1e3);
        layers.set("dl.forward_ms", forward);
        layers.set("dl.loss_ms", loss);
        layers.set("dl.backward_ms", backward);
        layers.set("dl.grad_flatten_ms", flatten);
        layers.set("dl.optimizer_ms", optimize);

        let n = model.param_count();
        let bucket = FusionConfig::default().bucket_elems();
        let (per_rank, _) = tracer.time("comm", "ring_allreduce_bucketed", || {
            World::new(RANKS).execute(|rank| {
                let mut buf = vec![1.0f32; n];
                (0..6)
                    .map(|_| {
                        rank.barrier();
                        let t0 = Instant::now();
                        ring_allreduce_bucketed(rank, &mut buf, ReduceOp::Sum, bucket);
                        t0.elapsed().as_secs_f64()
                    })
                    .collect::<Vec<f64>>()
            })
        });
        // Rank 0's view, first (cold) round dropped.
        let allreduce_s = median(&per_rank[0][1..]);
        layers.set("comm.allreduce_ms", allreduce_s * 1e3);
        layers.set("comm.allreduce_gbps", (n * 4) as f64 / allreduce_s / 1e9);

        forward
            + loss
            + backward
            + flatten
            + optimize
            + allreduce_s * 1e3
            + build_s * 1e3 / self.sizes.steps as f64
    }

    /// The three GEMM variants and the elementwise kernels at every
    /// layer's shape; the GEMM rates are quoted for the widest hidden
    /// layer. Returns the GEMM milliseconds of one step.
    fn probe_kernels(&self, tracer: &Tracer, layers: &mut Layers) -> f64 {
        let sizes = &self.sizes;
        let batch = sizes.per_rank_batch;
        let mut dims = vec![sizes.features];
        dims.extend_from_slice(sizes.hidden);
        dims.push(sizes.classes);
        let widest = *sizes.hidden.iter().max().expect("hidden layers");
        let mut gemm_s = 0.0;
        let mut elementwise_s = 0.0;
        for pair in dims.windows(2) {
            let (fan_in, fan_out) = (pair[0], pair[1]);
            let x = filled(batch, fan_in, 1);
            let w = filled(fan_in, fan_out, 2);
            let dy = filled(batch, fan_out, 3);
            let mut y = Matrix::zeros(batch, fan_out);
            let mut gw = Matrix::zeros(fan_in, fan_out);
            let mut dx = Matrix::zeros(batch, fan_in);
            let (ab, _) = tracer.time("tensor", "matmul", || {
                time_median(5, || x.matmul_into(&w, &mut y))
            });
            let (atb, _) = tracer.time("tensor", "matmul_at_b", || {
                time_median(5, || x.matmul_at_b_into(&dy, &mut gw))
            });
            let (abt, _) = tracer.time("tensor", "matmul_a_bt", || {
                time_median(5, || dy.matmul_a_bt_into(&w, &mut dx))
            });
            gemm_s += ab + atb + abt;
            if fan_in == widest && fan_out == widest {
                let gflop = 2.0 * (batch * fan_in * fan_out) as f64 / 1e9;
                layers.set("tensor.matmul_gflops", gflop / ab);
                layers.set("tensor.matmul_at_b_gflops", gflop / atb);
                layers.set("tensor.matmul_a_bt_gflops", gflop / abt);
            }
            let bias = vec![0.01f32; fan_out];
            elementwise_s += time_median(5, || ops::add_bias(&mut y, &bias));
            elementwise_s += time_median(5, || {
                std::hint::black_box(ops::column_sums(&dy));
            });
            if fan_out != sizes.classes {
                elementwise_s += time_median(5, || ops::relu_inplace(&mut y));
                let mut grad = dy.clone();
                elementwise_s += time_median(5, || ops::relu_backward(&y, &mut grad));
            }
        }
        let logits = filled(batch, sizes.classes, 4);
        let labels = &self.task.y[..batch];
        elementwise_s += time_median(5, || {
            std::hint::black_box(ops::softmax_cross_entropy(logits.clone(), labels));
        });
        layers.set("tensor.elementwise_ms", elementwise_s * 1e3);
        gemm_s * 1e3
    }
}

/// A `rows × cols` matrix of small deterministic values.
fn filled(rows: usize, cols: usize, salt: u32) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| {
            ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) >> 8) as f32
                / (1u32 << 24) as f32
                - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}
