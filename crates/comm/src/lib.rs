//! An MPI-like communication substrate with ranks as OS threads.
//!
//! The paper's full-Summit training codes all lean on one collective —
//! allreduce — and reason about it with bandwidth arithmetic (Section VI-B:
//! ring-algorithm bandwidth is half the 25 GB/s network bandwidth, so a
//! 100 MB ResNet50 gradient costs ≈8 ms and a 1.4 GB BERT-large gradient
//! ≈110 ms). This crate provides both halves of that story:
//!
//! * [`world`] + [`collectives`] — a **real, executable** communicator whose
//!   ranks are threads exchanging messages over channels: a [`World`] runs
//!   one way ([`World::execute`], with a fault plan or without), and every
//!   collective — a sub-communicator's too, over a subset [`WorldView`] —
//!   is an engine schedule. A [`Collective`]
//!   value names the algorithm — ring allreduce, reduce-scatter + allgather
//!   (Rabenseifner), recursive doubling, binomial-tree broadcast/reduce,
//!   ring allgather, the two-level hierarchy, all-to-all — each implemented
//!   chunk-by-chunk exactly as an MPI library would, and
//!   [`collectives::run`] / [`extended::run_slots`] (and their fallible
//!   `try_` twins) execute it. The same value handed to [`sim::simulate`]
//!   runs the *same schedule* on a modeled transport, so executed and
//!   simulated traffic agree by construction. These run at thread scale
//!   (p ≲ 64) and are the correctness anchor.
//! * [`model`] — α–β **cost models** of the same algorithms for arbitrary
//!   rank counts and message sizes, including a hierarchical
//!   (NVLink-within-node, InfiniBand-between-nodes) variant. These are the
//!   at-scale prediction tool and reproduce the paper's numbers.
//!
//! The executed collectives and the cost models share algorithm definitions
//! ([`model::Algorithm`]), so tests can cross-validate shapes: executed step
//! counts match the models' α terms, and transferred byte counts match the
//! models' β terms.
//!
//! # Example: a real 8-rank ring allreduce
//!
//! ```
//! use summit_comm::{collectives, sim, Collective, LinkModel, ReduceOp, World};
//!
//! let mut world = World::new(8);
//! let results = world.execute(|rank| {
//!     let mut buf = vec![rank.id() as f32; 16];
//!     collectives::run(rank, Collective::RING, &mut buf, ReduceOp::Sum);
//!     buf[0]
//! });
//! // 0 + 1 + ... + 7 = 28 on every rank.
//! assert!(results.iter().all(|&x| x == 28.0));
//! // The modeled twin moves exactly the bytes the executed one did.
//! let model = sim::simulate(Collective::RING, 8, 16, LinkModel::new(2e-6, 12.5e9));
//! assert_eq!(model.total_bytes(), world.last_traffic().bytes_sent);
//! ```

pub mod collectives;
pub mod elastic;
pub mod engine;
pub mod extended;
pub mod faults;
pub mod model;
pub mod nonblocking;
pub mod sim;
pub mod world;

pub use collectives::ReduceOp;
pub use elastic::{try_ring_allreduce_view, view_barrier, vote_members};
pub use engine::{simulate_reference, Collective, ModelReport, RingPhase};
pub use faults::{CommError, FaultKind, FaultPlan, FaultRates, TagClass, CONTROL_BIT};
pub use model::{Algorithm, CollectiveModel};
pub use nonblocking::{ring_allreduce_start, RingAllreduceHandle};
pub use sim::{elastic_shrink_study, simulate, simulate_on, ElasticStudy, FabricReport};
pub use summit_machine::LinkModel;
pub use world::{Rank, TrafficStats, World, WorldView};
