//! The paper's AI/ML usage survey, reproduced.
//!
//! *Learning to Scale the Summit* classifies 662 Summit project-years by
//! allocation program, science domain, AI/ML usage status, ML method, and
//! "AI motif" (Tables I–II), then reports the aggregations of Figures 1–6
//! and the Gordon Bell finalist counts of Table III. This crate contains
//!
//! * [`taxonomy`] — the motif, domain/subdomain, usage-status and ML-method
//!   classifications, with the full Table I definition/example text;
//! * [`gordon_bell`] — Table III and the ten AI/ML finalist projects of
//!   Section IV-A as structured data;
//! * [`portfolio`] — a deterministic synthetic portfolio whose marginals
//!   match every number the paper reports (see the module docs for the full
//!   constraint list);
//! * [`analytics`] — the aggregation functions that regenerate Figures 1–6
//!   from the portfolio, plus ASCII renderers used by the `repro` binary.
//!
//! # Example
//!
//! ```
//! use summit_survey::{analytics, portfolio};
//!
//! let records = portfolio::build();
//! let fig1 = analytics::overall_usage(&records);
//! // Paper: one third of projects actively used AI/ML.
//! assert!((fig1.active_pct() - 0.33).abs() < 0.01);
//! ```

pub mod analytics;
pub mod gordon_bell;
pub mod mix;
pub mod portfolio;
pub mod taxonomy;

pub use analytics::UsageCounts;
pub use gordon_bell::{ai_finalists, table3, GbFinalist};
pub use mix::{job_mix, kind_for_motif};
pub use portfolio::{build as build_portfolio, ProjectRecord};
pub use taxonomy::{Domain, MlMethod, Motif, UsageStatus};
