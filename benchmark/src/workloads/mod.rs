//! The five workloads and the shape they share.
//!
//! A workload owns its seeded inputs and the program objects it drives
//! (model, world, job list). `measure` runs whole units of work — a
//! training repeat, a serving window, a simulator pass, a facility wave —
//! until its time budget is spent; `verify` runs the correctness checks
//! that need an extra, untimed run; `probe` times the benchmark's own
//! calls into each layer at the shapes the workload uses.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::metrics;
use crate::trace::Tracer;

mod facility;
mod serve;
mod sim;
mod train;

/// One correctness check. A failed gate fails the command.
#[derive(Debug, Clone)]
pub struct Gate {
    pub name: &'static str,
    pub pass: bool,
    pub detail: String,
}

impl Gate {
    pub fn new(name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        Gate {
            name,
            pass,
            detail: detail.into(),
        }
    }
}

/// One unit of work: a training repeat, a serving window, a simulator
/// pass, a facility wave.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Samples trained, requests completed, events simulated, jobs run.
    pub work: f64,
    /// Wall seconds the unit took.
    pub seconds: f64,
}

/// What one measured phase produced. The report quotes medians over the
/// units, which a unit that a host stall hit does not move.
pub struct Measured {
    pub units: Vec<Unit>,
    /// Operations attempted and, of those, failed or refused.
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
}

/// Per-layer values a probe produced, checked against the declared names.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// # Panics
    /// Panics on a name [`metrics::PER_LAYER`] does not declare — a typo
    /// here would otherwise silently report as "layer not exercised".
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            metrics::PER_LAYER.iter().any(|m| m.name == name),
            "undeclared per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// How long a measured phase may run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    /// Fewest units of work the phase runs, however short its seconds.
    pub min_units: usize,
}

pub trait Workload {
    fn measure(&mut self, budget: Budget, tracer: &Tracer) -> Measured;
    fn verify(&mut self) -> Vec<Gate>;
    /// `measured` is the traced phase that just ran; the counters the
    /// program returned during it are the workload's own state.
    fn probe(&mut self, tracer: &Tracer, measured: &Measured, layers: &mut Layers);
}

/// The identity of a workload: its name, why it exists, and what its
/// throughput counts.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// What `throughput_per_s` counts here.
    pub throughput_of: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "train_compute",
        why: "p=2 data-parallel MLP steps at per-rank batch 64: the three GEMM variants do most of the work, gradient sync little",
        throughput_of: "train_samples_per_s: samples trained per second at p = 2",
    },
    WorkloadDef {
        name: "train_sync",
        why: "same model at per-rank batch 2: gradient flattening, the optimizer sweep and the 9.4 MB ring allreduce dominate, GEMM is M=2",
        throughput_of: "train_samples_per_s: samples trained per second at p = 2",
    },
    WorkloadDef {
        name: "serve_open",
        why: "open-loop serving below and above the knee: skinny forward-only matmul, the batcher and the condvar hand-off, no World",
        throughput_of: "serve_goodput_rps: requests completed per second at 48 000 rps offered (well past capacity)",
    },
    WorkloadDef {
        name: "sim_fullmachine",
        why: "13 collectives simulated at p=27648 on the Summit fat tree: host speed of the sequential event engine and FlowNet::transfer",
        throughput_of: "sim_events_per_s: simulated events per host second",
    },
    WorkloadDef {
        name: "facility_wave",
        why: "220 concurrent tiny worlds per wave: pays World::new, execute thread spawn and an arbiter lease 220 times around small kernels",
        throughput_of: "facility_jobs_per_s: jobs executed per second",
    },
];

/// Build a workload's inputs and program objects from `seed` and run its
/// warm-up. `quick` shrinks every size to a toy that finishes in well
/// under a second, with all gates still on.
///
/// # Panics
/// Panics on a name that is not one of [`WORKLOADS`].
pub fn setup(name: &str, seed: u64, quick: bool) -> Box<dyn Workload> {
    match name {
        "train_compute" => Box::new(train::Train::setup(train::Sizes::compute(quick), seed)),
        "train_sync" => Box::new(train::Train::setup(train::Sizes::sync(quick), seed)),
        "serve_open" => Box::new(serve::Serve::setup(serve::Sizes::new(quick), seed)),
        "sim_fullmachine" => Box::new(sim::Sim::setup(sim::Sizes::new(quick), seed)),
        "facility_wave" => Box::new(facility::Facility::setup(facility::Sizes::new(quick), seed)),
        other => panic!("unknown workload {other}"),
    }
}

/// Run `unit` while another one is likelier than not to end within the
/// budget's seconds, and at least `min_units` times.
fn run_units(budget: Budget, mut unit: impl FnMut() -> Unit) -> Vec<Unit> {
    let t0 = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    while units.len() < budget.min_units.max(1)
        || t0.elapsed().as_secs_f64() + 0.5 * units[units.len() - 1].seconds < budget.seconds
    {
        units.push(unit());
    }
    units
}

/// Median wall seconds of `reps` calls of `f` (after one untimed call).
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&walls)
}

impl Measured {
    /// Work per second, unit by unit.
    pub fn rates(&self) -> Vec<f64> {
        self.units.iter().map(|u| u.work / u.seconds).collect()
    }

    pub fn throughput_per_s(&self) -> f64 {
        crate::stats::median(&self.rates())
    }

    /// Median wall seconds of one unit.
    pub fn unit_seconds(&self) -> f64 {
        crate::stats::median(&self.units.iter().map(|u| u.seconds).collect::<Vec<_>>())
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
