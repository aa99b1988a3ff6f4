//! **DeepMorph** — diagnosing deep-model defects from internal data-flow
//! footprints.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (*"Detecting Deep Neural Network Defects with Data Flow Analysis"*,
//! DSN 2021). Given a badly-performing classifier, its training set, and
//! the misclassified test inputs (the *faulty cases*), DeepMorph attributes
//! the bad performance to one of three root causes — Insufficient Training
//! Data (ITD), Unreliable Training Data (UTD), or a Structure Defect (SD) —
//! by analyzing how inputs flow through the hidden layers.
//!
//! The pipeline mirrors the paper's Figure 1:
//!
//! 1. [`instrument`] — build the *softmax-instrumented model*: one
//!    auxiliary softmax probe per hidden stage, trained on the training set
//!    with the backbone frozen.
//! 2. [`pattern`] — learn each target class's *execution pattern*: the
//!    per-layer mean probe distribution of its training cases.
//! 3. [`footprint`] — extract each faulty case's *data flow footprint*:
//!    its per-layer probe-distribution trajectory.
//! 4. [`specifics`] + [`classify`] — compare footprints to patterns layer
//!    by layer, score the three defect signatures, and aggregate into the
//!    per-defect ratios of [`report::DefectReport`].
//!
//! [`pipeline`] writes each step after probe fitting once and runs them
//! live ([`pipeline::DiagnosisSession`]); [`stage`] runs the same steps
//! behind cached stages, and [`scenario`] adds the end-to-end experiment
//! driver (generate data → inject defect → train → diagnose) used by the
//! examples and the Table I harness.
//!
//! # Quickstart
//!
//! ```no_run
//! use deepmorph::prelude::*;
//!
//! # fn main() -> Result<(), DeepMorphError> {
//! let scenario = Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
//!     .seed(7)
//!     .inject(DefectSpec::insufficient_training_data(vec![0, 1, 2], 0.9))
//!     .build()?;
//! let outcome = scenario.run()?;
//! println!("{}", outcome.report);
//! assert_eq!(outcome.report.dominant(), Some(DefectKind::InsufficientTrainingData));
//! # Ok(())
//! # }
//! ```

pub mod artifact;
pub mod classify;
mod error;
pub mod explain;
pub mod footprint;
pub mod instrument;
pub mod pattern;
pub mod pipeline;
pub mod repair;
pub mod report;
pub mod scenario;
pub mod specifics;
pub mod stage;
pub mod sweep;

pub use error::DeepMorphError;

/// Result alias used across this crate.
pub type Result<T> = std::result::Result<T, DeepMorphError>;

/// Convenience re-exports (includes the types from the substrate crates
/// that appear in this crate's public API).
pub mod prelude {
    pub use crate::artifact::{content_fingerprint, ArtifactStore, Fingerprint, StoreStats};
    pub use crate::explain::{explain_case, explain_report};
    pub use crate::footprint::{Footprint, FootprintSet};
    pub use crate::instrument::{InstrumentedModel, ProbeTrainingConfig, TrainedProbe};
    pub use crate::pattern::ClassPatterns;
    pub use crate::pipeline::{DeepMorph, DeepMorphConfig, DiagnosisSession, FaultyCases};
    pub use crate::repair::{recommend, RepairPlan};
    pub use crate::report::{CaseDiagnosis, DefectRatios, DefectReport};
    pub use crate::scenario::{RepairOutcome, Scenario, ScenarioBuilder, ScenarioOutcome};
    pub use crate::specifics::FootprintSpecifics;
    pub use crate::stage::{
        FootprintArtifact, InstrumentedArtifact, RepairedModelArtifact, StagedEngine,
        TrainedModelArtifact,
    };
    pub use crate::sweep::{CellReport, ExperimentPlan, SweepReport, SweepRunner};
    pub use crate::{DeepMorphError, Result as DeepMorphResult};
    pub use deepmorph_data::prelude::*;
    pub use deepmorph_defects::prelude::*;
    pub use deepmorph_models::prelude::*;
    pub use deepmorph_nn::prelude::*;
    pub use deepmorph_tensor::prelude::*;
}
