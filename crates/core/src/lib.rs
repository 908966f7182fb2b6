//! `summit-core` — umbrella crate for the **summit-ai** reproduction of
//! *Learning to Scale the Summit: AI for Science on a Leadership
//! Supercomputer* (Joubert et al., ORNL, 2022).
//!
//! The reproduction is organized as a workspace of substrate crates, each
//! re-exported here:
//!
//! | crate | contents |
//! |---|---|
//! | [`machine`] | Summit/Rhea/Andes hardware models, fat-tree topology, α–β links |
//! | [`comm`] | threaded communicator, executable collectives, cost models |
//! | [`io`] | storage tiers, sharding/shuffling/staging, bandwidth requirements |
//! | [`tensor`] | dense f32 kernels for the trainer |
//! | [`dl`] | real MLP training: SGD/Adam/LARS/LARC/LAMB, data parallelism |
//! | [`workloads`] | the paper's model zoo as quantitative cost descriptions |
//! | [`perf`] | scaling models, Section IV-B case studies, the comm crossover |
//! | [`sched`] | allocation programs, batch scheduler simulator |
//! | [`survey`] | taxonomies, portfolio, Figures 1–6 and Tables I–III |
//! | [`workflow`] | DAG engine, steering / screening / materials loops |
//!
//! [`report`] assembles every table and figure of the paper into one text
//! report (printed by this crate's `repro` binary), and
//! [`prelude`] offers one-line access to the common types.
//!
//! # Quickstart
//!
//! ```
//! use summit_core::prelude::*;
//!
//! // The machine the paper describes…
//! let summit = MachineSpec::summit();
//! assert_eq!(summit.total_gpus(), 27_648);
//!
//! // …the analysis it performs…
//! let bert = Workload::bert_large();
//! assert!(bert.gradient_message_bytes() > 1.3e9);
//!
//! // …and the survey it reports.
//! let records = summit_core::survey::portfolio::build();
//! assert_eq!(records.len(), 662);
//! ```

pub use summit_comm as comm;
pub use summit_dl as dl;
pub use summit_io as io;
pub use summit_machine as machine;
pub use summit_perf as perf;
pub use summit_sched as sched;
pub use summit_survey as survey;
pub use summit_tensor as tensor;
pub use summit_workflow as workflow;
pub use summit_workloads as workloads;

pub mod report;

/// Common types, one `use` away.
pub mod prelude {
    pub use summit_comm::{
        collectives::{self, ReduceOp},
        model::{Algorithm, CollectiveModel},
        world::World,
        Collective,
    };
    pub use summit_dl::{
        data::{blobs, spirals},
        model::MlpSpec,
        optim::{Adam, Lamb, Larc, Lars, Optimizer, Sgd},
        schedule::LrSchedule,
        trainer::{DataParallelTrainer, FusionConfig, Trainer},
    };
    pub use summit_io::{
        dataset::{DatasetSpec, ShardPlan},
        requirements::ReadDemand,
        shuffle::ShuffleStrategy,
        staging::{StagingMode, StagingPlan},
        tier::StorageTier,
    };
    pub use summit_machine::{spec::MachineSpec, topology::FatTree, LinkModel};
    pub use summit_perf::{case_studies::CaseStudy, crossover::CommCrossover, model::ScalingModel};
    pub use summit_sched::{program::Program, scheduler::Scheduler};
    pub use summit_survey::{
        analytics, portfolio,
        taxonomy::{Domain, MlMethod, Motif, UsageStatus},
    };
    pub use summit_workflow::{
        campaign::{run_campaign, CampaignConfig, CompoundLibrary},
        engine::{Facility, WorkflowBuilder},
        materials::MaterialsLoop,
        steering::{Policy as SteeringPolicy, SteeringConfig, SteeringLoop},
    };
    pub use summit_workloads::Workload;
}
