//! AI-coordinated science discovery workflows (paper Section V).
//!
//! The paper's Section V case studies all share one architecture: a
//! workflow system (Balsam, RAPTOR) orchestrates simulation tasks and ML
//! components, with the ML model *making decisions* — which conformations
//! to sample next (DeepDriveMD steering), which compounds deserve expensive
//! evaluation (the IMPECCABLE funnel and campaign), when a
//! statistical-mechanics surrogate needs retraining (the Liu et al.
//! high-entropy-alloy loop). This crate implements all five pieces for
//! real, with simulated physics; the steering loops share one surrogate,
//! `summit_dl::trainer::Trainer::{regressor, fit, rank}`:
//!
//! * [`engine`] — a multi-threaded DAG workflow engine with per-facility
//!   concurrency limits and a simulated-time scheduler (the Balsam/RAPTOR
//!   stand-in). Tasks run on worker threads; dependencies and facility
//!   capacities are honored (tested).
//! * [`steering`] — a DeepDriveMD-style active-sampling loop: an MLP
//!   "CVAE" scores simulated conformations and steers the next round of
//!   sampling toward rare states; finds rare events with far fewer
//!   simulations than uniform sampling (tested).
//! * [`campaign`] — the IMPECCABLE loop: a surrogate ranks a compound
//!   library so only a small fraction needs expensive "docking/MD". Its
//!   first round is the screening funnel, which beats brute force on cost
//!   and random downselection on recall; later rounds raise recall (tested).
//! * [`materials`] — the Liu et al. ML+Monte-Carlo loop: a surrogate
//!   Hamiltonian drives Metropolis sampling of a 2D alloy lattice, active
//!   learning retrains it on "first-principles" energies of visited
//!   states, and the order–disorder transition emerges from the
//!   magnetization–temperature sweep (tested).
//! * [`fault`] — the fault-detection motif: an MLP classifier over
//!   residual-norm telemetry flags faulty solver runs and beats a naive
//!   threshold rule on F1 (tested).
//!
//! # Example: run a three-task pipeline
//!
//! ```
//! use summit_workflow::engine::{Facility, WorkflowBuilder};
//!
//! let mut wf = WorkflowBuilder::new();
//! let sim = wf.task("simulate", Facility::Summit, 100.0, vec![], |_| 21.0f64);
//! let train = wf.task("train", Facility::Summit, 50.0, vec![sim], |deps| *deps[0] * 2.0);
//! let outputs = wf.run(2);
//! assert_eq!(*outputs[train], 42.0);
//! ```

pub mod campaign;
pub mod engine;
pub mod fault;
pub mod materials;
pub mod steering;

pub use campaign::{run_campaign, CampaignConfig, CampaignOutcome, CompoundLibrary};
pub use engine::{Facility, TaskId, WorkflowBuilder};
pub use fault::{FaultDetector, FaultKind};
pub use materials::{AlloyLattice, MaterialsLoop, MaterialsOutcome};
pub use steering::{Policy as SteeringPolicy, SteeringConfig, SteeringLoop, SteeringOutcome};
