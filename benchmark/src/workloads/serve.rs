//! `serve_open`: the executed serving plane under an open-loop generator,
//! well past capacity (goodput); a few windows below the knee check that
//! nothing is refused there and give the traced run its latencies.

use summit_dl::{MlpSpec, ServableModel};
use summit_serve::service::{batch_matrix, feature_pool};
use summit_serve::{
    run_executed, simulate, BatchConfig, Batcher, CurvePoint, ExecutedConfig, QueuedRequest,
    ServiceModel, SimConfig,
};
use summit_tensor::Matrix;

use super::{bits_equal, run_units, time_median, Budget, Gate, Layers, Measured, Unit, Workload};
use crate::stats::median;
use crate::trace::Tracer;

/// The p99 limit of `serve.slo_rate_rps`.
const SLO_P99_MS: f64 = 10.0;
/// Offered rate below the knee. Low enough that the default 1,024-deep
/// queue rides out a quarter-second host stall without refusing.
const LIGHT_RPS: f64 = 4_000.0;
/// The other rates of the traced run's latency-vs-rate ladder.
const LADDER: [(&str, f64); 3] = [
    ("serve.p50_ms.r2000", 2_000.0),
    ("serve.p50_ms.r8000", 8_000.0),
    ("serve.p50_ms.r16000", 16_000.0),
];

pub struct Sizes {
    features: usize,
    hidden: &'static [usize],
    outputs: usize,
    /// Seconds of offered load in one window. Short, so that a run holds
    /// dozens and its median shrugs off the ones a host stall hit.
    window_s: f64,
    /// Windows below the knee that `verify` runs.
    light_windows: usize,
    /// Offered rate above the knee (`RejectNew` refuses the excess).
    overload_rps: f64,
    sim_clients: u64,
}

impl Sizes {
    pub fn new(quick: bool) -> Self {
        if quick {
            return Sizes {
                features: 16,
                hidden: &[32],
                outputs: 8,
                window_s: 0.02,
                light_windows: 2,
                overload_rps: 400_000.0,
                sim_clients: 1_000,
            };
        }
        Sizes {
            features: 256,
            hidden: &[512, 512],
            outputs: 128,
            window_s: 0.5,
            light_windows: 4,
            overload_rps: 48_000.0,
            sim_clients: 100_000,
        }
    }
}

pub struct Serve {
    sizes: Sizes,
    seed: u64,
    model: ServableModel,
    /// Windows issued so far; each takes the next arrival-gap seed.
    windows: u64,
    /// The below-the-knee windows `verify` ran.
    light: Vec<CurvePoint>,
}

impl Serve {
    pub fn setup(sizes: Sizes, seed: u64) -> Self {
        let spec = MlpSpec::new(sizes.features, sizes.hidden, sizes.outputs);
        let model = ServableModel::from_spec_params(&spec, &spec.build(seed).flat_params());
        let mut this = Serve {
            sizes,
            seed,
            model,
            windows: 0,
            light: Vec::new(),
        };
        // A short warm-up: the generator paces it, so a long one would
        // bury the model build in sleep and hide work moved into set-up.
        let warm = this.window_of(LIGHT_RPS, this.sizes.window_s / 5.0);
        assert!(warm.completed > 0, "warm-up window completed nothing");
        this
    }

    /// One open-loop window of the standard length.
    fn window(&mut self, rate_rps: f64) -> CurvePoint {
        self.window_of(rate_rps, self.sizes.window_s)
    }

    /// `rate × seconds` requests on one replica with the default batching
    /// knobs.
    fn window_of(&mut self, rate_rps: f64, seconds: f64) -> CurvePoint {
        self.windows += 1;
        run_executed(
            &self.model,
            &ExecutedConfig {
                rate_rps,
                requests: (rate_rps * seconds).ceil() as usize,
                replicas: 1,
                batch: BatchConfig::default(),
                seed: self.seed.wrapping_add(self.windows),
            },
        )
    }
}

fn refused(p: &CurvePoint) -> u64 {
    p.rejected + p.shed
}

fn accounted(p: &CurvePoint) -> bool {
    p.issued == p.completed + p.rejected + p.shed
}

impl Workload for Serve {
    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Measured {
        let overload_rps = self.sizes.overload_rps;
        let mut windows = Vec::new();
        let units = run_units(budget, || {
            tracer.next_repeat();
            let (p, _) = tracer.time("serve", "run_executed(overload)", || {
                self.window(overload_rps)
            });
            let unit = Unit {
                work: p.completed as f64,
                seconds: p.span_s,
            };
            windows.push(p);
            unit
        });
        Measured {
            units,
            attempted: windows.iter().map(|p| p.issued).sum(),
            // Refusals are the admission gate doing its job at this load;
            // a request neither answered nor refused is lost.
            failed: windows
                .iter()
                .map(|p| p.issued.saturating_sub(p.completed + refused(p)))
                .sum(),
            gates: vec![Gate::new(
                "serve.requests_accounted",
                windows.iter().all(accounted),
                "issued == completed + rejected + shed in every overloaded window",
            )],
        }
    }

    fn verify(&mut self) -> Vec<Gate> {
        self.light = (0..self.sizes.light_windows)
            .map(|_| self.window(LIGHT_RPS))
            .collect();
        let pool = feature_pool(self.sizes.features, 16, self.seed);
        let ids: Vec<u64> = (0..16).collect();
        let batched = self.model.forward_batch(&batch_matrix(&pool, &ids));
        let rows_match = pool
            .iter()
            .enumerate()
            .all(|(r, x)| bits_equal(batched.row(r), &self.model.forward_one(x)));
        vec![
            Gate::new(
                "serve.no_refusal_below_knee",
                self.light.iter().all(|p| accounted(p) && refused(p) == 0),
                format!(
                    "every request of {} windows at {LIGHT_RPS} rps answered",
                    self.light.len()
                ),
            ),
            Gate::new(
                "serve.batched_equals_single",
                rows_match,
                "forward_batch rows are bit-identical to forward_one",
            ),
        ]
    }

    fn probe(&mut self, tracer: &Tracer, _measured: &Measured, layers: &mut Layers) {
        let light_of =
            |f: fn(&CurvePoint) -> f64| median(&self.light.iter().map(f).collect::<Vec<_>>());
        layers.set("serve.p50_ms.r4000", light_of(|p| p.p50_ms));
        layers.set("serve.mean_batch", light_of(|p| p.mean_batch));
        layers.set("serve.mean_ms", light_of(|p| p.mean_ms));
        layers.set("serve.p99_ms", light_of(|p| p.p99_ms));
        // Generator lateness, seen from outside: how far the window's span
        // overran the schedule it was asked to keep.
        layers.set(
            "serve.span_overrun_share",
            light_of(|p| p.span_s / (p.issued as f64 / p.offered_rps) - 1.0),
        );

        // Latency at the other rates of the ladder, and the highest rate
        // that meets the p99 limit without refusing anything.
        let meets_slo = |p: &CurvePoint| p.p99_ms <= SLO_P99_MS && refused(p) == 0;
        let mut slo_rate = 0.0f64;
        if self.light.iter().all(meets_slo) {
            slo_rate = LIGHT_RPS;
        }
        for (name, rate) in LADDER {
            let points: Vec<CurvePoint> = (0..3)
                .map(|_| {
                    tracer.next_repeat();
                    tracer
                        .time("serve", "run_executed(ladder)", || self.window(rate))
                        .0
                })
                .collect();
            layers.set(
                name,
                median(&points.iter().map(|p| p.p50_ms).collect::<Vec<_>>()),
            );
            if points.iter().all(meets_slo) {
                slo_rate = slo_rate.max(rate);
            }
        }
        layers.set("serve.slo_rate_rps", slo_rate);

        // Forward-only compute at the two batch sizes that bracket the
        // batcher's range, and the skinny GEMM underneath it.
        let pool = feature_pool(self.sizes.features, 64, self.seed);
        let width = *self.sizes.hidden.iter().max().expect("hidden layers");
        let w = Matrix::from_vec(width, width, vec![0.01; width * width]);
        let shapes = [
            (1, "dl.forward_batch_us.b1", "tensor.matmul_skinny_us.m1"),
            (16, "dl.forward_batch_us.b16", "tensor.matmul_skinny_us.m16"),
        ];
        // (batch, seconds) of each forward: the simulator's service model.
        let mut forwards: Vec<(usize, f64)> = Vec::new();
        for (b, forward_name, gemm_name) in shapes {
            let ids: Vec<u64> = (0..b as u64).collect();
            let x = batch_matrix(&pool, &ids);
            let (s, _) = tracer.time("dl", "ServableModel::forward_batch", || {
                time_median(200, || {
                    std::hint::black_box(self.model.forward_batch(&x));
                })
            });
            forwards.push((b, s));
            layers.set(forward_name, s * 1e6);
            let a = Matrix::from_vec(b, width, vec![0.5; b * width]);
            let mut out = Matrix::zeros(b, width);
            let (s, _) = tracer.time("tensor", "matmul(skinny)", || {
                time_median(200, || a.matmul_into(&w, &mut out))
            });
            layers.set(gemm_name, s * 1e6);
        }
        let ids: Vec<u64> = (0..16).collect();
        let (s, _) = tracer.time("serve", "batch_matrix", || {
            time_median(200, || {
                std::hint::black_box(batch_matrix(&pool, &ids));
            })
        });
        layers.set("serve.batch_matrix_us", s * 1e6);

        // The batcher alone, on virtual time: admit sixteen, dispatch one
        // batch; reported per request.
        let mut batcher = Batcher::new(BatchConfig::default());
        let mut next_id = 0u64;
        let (s, _) = tracer.time("serve", "Batcher::offer+take_batch", || {
            time_median(2_000, || {
                let now = next_id as f64 * 1e-6;
                for _ in 0..16 {
                    let _ = batcher.offer(QueuedRequest {
                        id: next_id,
                        client: next_id % 1024,
                        arrival_s: now,
                    });
                    next_id += 1;
                }
                std::hint::black_box(batcher.take_batch(now));
            })
        });
        layers.set("serve.batcher_op_ns", s * 1e9 / 16.0);

        // The load simulator's host speed, on a service model fitted to
        // the two forward timings above.
        let service = ServiceModel::fit(&forwards);
        let cfg = SimConfig {
            clients: self.sizes.sim_clients,
            duration_s: 1.0,
            target_rate_rps: LIGHT_RPS,
            replicas: 1,
            seed: self.seed,
        };
        let (point, s) = tracer.time("serve", "simulate", || {
            simulate(&service, BatchConfig::default(), &cfg)
        });
        layers.set("serve.sim_requests_per_s", point.issued as f64 / s);
    }
}
