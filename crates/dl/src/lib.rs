//! A small, real deep-learning training framework.
//!
//! The paper's full-Summit training runs (Section IV-B) all share one
//! algorithmic core: synchronous data-parallel SGD with layer-wise adaptive
//! optimizers that keep very large global batches convergent — LARC for the
//! climate network of Kurth et al., LARS/Adam for Laanait et al., LAMB for
//! Khan et al. and for the 5.8-million-sample batches of Blanchard et al.
//! This crate implements that core for real, at CPU/laptop scale:
//!
//! * [`model`] — multi-layer perceptrons with explicit forward/backward
//!   passes over [`summit_tensor::Matrix`] batches; [`transformer`] and
//!   [`lm`] — attention models with exact backprop.
//! * [`params`] — the one parameter/gradient arena every model keeps:
//!   flat views for allreduce and checkpoints, and parameter groups for the
//!   layer-wise optimizers.
//! * [`optim`] — SGD (+momentum, +weight decay), Adam, LARS, LARC and LAMB,
//!   all sharing the [`optim::Optimizer`] trait; the trust-ratio math
//!   follows You et al. (LARS/LAMB) and the LARC clipping variant.
//! * [`schedule`] — constant / linear-warmup / cosine / polynomial-decay
//!   learning-rate schedules (warmup-then-decay is what every Section IV-B
//!   project used).
//! * [`data`] — deterministic synthetic classification/regression tasks, so
//!   convergence tests are reproducible.
//! * [`trainer`] — a single-process trainer, and
//!   [`trainer::DataParallelTrainer`] which replicates the model over
//!   `summit-comm` ranks, allreduces real gradients every step, and is
//!   bit-for-bit equivalent to large-batch single-process training (tested).
//!
//! # Example: train a classifier
//!
//! ```
//! use summit_dl::{data::blobs, model::MlpSpec, optim::Sgd, schedule::LrSchedule,
//!                 trainer::Trainer};
//!
//! let task = blobs(200, 4, 3, 0.5, 42);
//! let spec = MlpSpec::new(4, &[16], 3);
//! let mut trainer = Trainer::new(
//!     spec.build(7),
//!     Box::new(Sgd::new(0.1, 0.9, 0.0)),
//!     LrSchedule::Constant,
//! );
//! let first = trainer.train_epoch(&task.x, &task.y, 32);
//! for _ in 0..20 { trainer.train_epoch(&task.x, &task.y, 32); }
//! let last = trainer.train_epoch(&task.x, &task.y, 32);
//! assert!(last.loss < first.loss);
//! ```

pub mod checkpoint;
pub mod compression;
pub mod data;
pub mod inference;
pub mod lm;
pub mod model;
pub mod optim;
pub mod params;
pub mod recovery;
pub mod schedule;
mod step;
pub mod trainer;
pub mod transformer;

pub use checkpoint::{CheckpointError, ElasticCheckpoint};
pub use compression::{Compressor, GradCompression};
pub use inference::ServableModel;
pub use lm::TinyLm;
pub use model::{Mlp, MlpSpec};
pub use optim::{Adam, Lamb, Larc, Lars, Optimizer, OptimizerState, Sgd};
pub use params::Params;
pub use recovery::{
    fault_clock, RecoveryConfig, RecoveryOutcome, Remediation, SUB_COMM, SUB_DRAIN, SUB_PRE,
    SUB_REPART, SUB_VOTE,
};
pub use schedule::LrSchedule;
pub use trainer::{
    BucketSchedule, DataParallelTrainer, EpochMetrics, FusionConfig, OverlapConfig, Trainer,
};
pub use transformer::{LayerNorm, MultiHeadAttention, SequenceClassifier, TransformerBlock};
