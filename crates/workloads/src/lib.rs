//! The paper's deep-learning workloads as quantitative cost descriptions.
//!
//! Section IV-B of *Learning to Scale the Summit* reviews five deep-learning
//! codes scaled to (nearly) full Summit, and Section VI-B reasons about two
//! reference models (ResNet50, BERT-large). This crate encodes each as a
//! [`Workload`]: parameter count, per-sample training FLOPs, input record
//! size, per-GPU batch size, and the sustained single-GPU training rate —
//! everything the analytic scaling models in `summit-perf` and the I/O
//! models in `summit-io` need.
//!
//! Numbers are taken from the paper where it states them (gradient message
//! sizes of 100 MB / 1.4 GB; per-GPU sustained rates back-derived from the
//! reported aggregate FLOP rates and node counts) and from the cited
//! primary sources otherwise; each constructor documents its provenance.
//!
//! # Example
//!
//! ```
//! use summit_workloads::Workload;
//!
//! let bert = Workload::bert_large();
//! // Paper: "per device allreduce message size ... about 1.4 GB".
//! let gb = bert.gradient_message_bytes() / 1e9;
//! assert!(gb > 1.3 && gb < 1.5);
//! ```

pub mod zoo;

pub use zoo::Workload;

/// Gradient element precision used for allreduce messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum GradPrecision {
    /// 32-bit gradients (4 bytes/param) — the paper's Section VI-B
    /// arithmetic (100 MB for ResNet50's 25.6 M params).
    Fp32,
    /// 16-bit gradients (2 bytes/param).
    Fp16,
}

impl GradPrecision {
    /// Bytes per gradient element.
    pub fn bytes(self) -> f64 {
        match self {
            GradPrecision::Fp32 => 4.0,
            GradPrecision::Fp16 => 2.0,
        }
    }
}
