//! Concurrent experiment sweeps over the staged engine.
//!
//! An [`ExperimentPlan`] is a grid of [`Scenario`] cells (typically one
//! base configuration × many defect severities). A [`SweepRunner`]
//! executes the grid:
//!
//! * **Shared base stages first.** Each cell's *healthy twin* (the same
//!   scenario with [`DefectSpec::Healthy`]) is severity-invariant, so its
//!   training stage is fingerprint-shared across the whole sweep. The
//!   runner computes every distinct twin once, serially, before fanning
//!   out — concurrent cells then *load* the base artifact instead of
//!   racing to retrain it. The per-cell baseline accuracy this yields is
//!   what turns a sweep into a dose-response curve (accuracy drop vs.
//!   severity).
//! * **Cells run concurrently** on the `deepmorph-parallel` pool
//!   (scenario-level parallelism; the kernel-level pool inside each cell
//!   stays serial on worker threads). Every cell is seeded from its own
//!   scenario configuration, so results are bitwise independent of the
//!   schedule: a sweep report equals running each scenario alone,
//!   serially, cell for cell.
//! * **Artifacts are shared through the store**, so re-running a sweep
//!   with a warm [`ArtifactStore`] recomputes nothing, and a sweep that
//!   adds severity points only trains the new cells.

use deepmorph_defects::DefectSpec;
use deepmorph_json::Json;

use crate::artifact::{ArtifactStore, Fingerprint, StoreStats};
use crate::scenario::{RepairOutcome, Scenario, ScenarioBuilder, ScenarioOutcome};
use crate::stage::StagedEngine;
use crate::{DeepMorphError, Result};

/// A grid of scenarios to execute as one sweep.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    cells: Vec<Scenario>,
    baseline: bool,
    repair: bool,
}

impl ExperimentPlan {
    /// An empty plan (baseline sharing on, repair off).
    pub fn new() -> Self {
        ExperimentPlan {
            cells: Vec::new(),
            baseline: true,
            repair: false,
        }
    }

    /// Builds a plan from one base configuration and a list of defects —
    /// the severity-sweep constructor.
    ///
    /// # Errors
    ///
    /// Propagates [`ScenarioBuilder::build`] validation errors.
    pub fn from_defects(
        base: ScenarioBuilder,
        defects: impl IntoIterator<Item = DefectSpec>,
    ) -> Result<Self> {
        let mut plan = ExperimentPlan::new();
        for defect in defects {
            plan.cells.push(base.clone().inject(defect).build()?);
        }
        Ok(plan)
    }

    /// Appends a cell.
    pub fn with_cell(mut self, scenario: Scenario) -> Self {
        self.cells.push(scenario);
        self
    }

    /// Enables or disables the shared healthy-baseline stage (on by
    /// default). With it on, every cell report carries the healthy twin's
    /// test accuracy; the twin is trained once per sweep and loaded from
    /// the store everywhere else.
    pub fn with_baseline(mut self, on: bool) -> Self {
        self.baseline = on;
        self
    }

    /// Enables the repair evaluation per cell (diagnose → apply the
    /// recommended repair → retrain → measure).
    pub fn with_repair(mut self, on: bool) -> Self {
        self.repair = on;
        self
    }

    /// The cells, in plan order.
    pub fn cells(&self) -> &[Scenario] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the plan holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

impl Default for ExperimentPlan {
    fn default() -> Self {
        ExperimentPlan::new()
    }
}

/// The result of one sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's subject line.
    pub subject: String,
    /// The injected defect.
    pub defect: DefectSpec,
    /// Full scenario fingerprint (the report-stage store key).
    pub fingerprint: Fingerprint,
    /// The scenario outcome, or the per-cell error (a perfect model
    /// surfaces as [`DeepMorphError::NoFaultyCases`], not a sweep
    /// failure).
    pub outcome: std::result::Result<ScenarioOutcome, DeepMorphError>,
    /// The repair evaluation, when the plan enabled it and the cell
    /// succeeded.
    pub repair: Option<RepairOutcome>,
    /// Clean-test accuracy of the cell's healthy twin, when baseline
    /// sharing was enabled.
    pub baseline_test_accuracy: Option<f32>,
}

impl CellReport {
    /// Accuracy lost to the defect relative to the healthy baseline.
    pub fn accuracy_drop(&self) -> Option<f32> {
        match (&self.outcome, self.baseline_test_accuracy) {
            (Ok(outcome), Some(base)) => Some(base - outcome.test_accuracy),
            _ => None,
        }
    }
}

/// All cell reports of a finished sweep plus the store-counter deltas it
/// produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-cell results, in plan order.
    pub cells: Vec<CellReport>,
    /// Store hit/miss/write deltas attributable to this sweep.
    pub store: StoreStats,
}

impl SweepReport {
    /// Number of cells that produced a diagnosis.
    pub fn succeeded(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// The report as a [`Json`] value (for `--json` output and the CI
    /// smoke).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            (
                "store",
                Json::obj([
                    ("hits", Json::usize(self.store.hits as usize)),
                    ("misses", Json::usize(self.store.misses as usize)),
                    ("writes", Json::usize(self.store.writes as usize)),
                ]),
            ),
            (
                "cells",
                Json::arr(self.cells.iter().map(|c| {
                    let mut fields = vec![
                        ("subject".to_string(), Json::str(c.subject.clone())),
                        ("defect".to_string(), Json::str(c.defect.describe())),
                        ("fingerprint".to_string(), Json::str(c.fingerprint.as_hex())),
                    ];
                    match &c.outcome {
                        Ok(outcome) => {
                            fields.push(("ok".into(), Json::Bool(true)));
                            fields.push(("report".into(), outcome.report.to_json_value()));
                            fields.push((
                                "test_accuracy".into(),
                                Json::num(f64::from(outcome.test_accuracy)),
                            ));
                            fields.push((
                                "train_accuracy".into(),
                                Json::num(f64::from(outcome.train_accuracy)),
                            ));
                            fields.push(("faulty_count".into(), Json::usize(outcome.faulty_count)));
                        }
                        Err(e) => {
                            fields.push(("ok".into(), Json::Bool(false)));
                            fields.push(("error".into(), Json::str(e.to_string())));
                        }
                    }
                    if let Some(base) = c.baseline_test_accuracy {
                        fields.push(("baseline_test_accuracy".into(), Json::num(f64::from(base))));
                    }
                    if let Some(drop) = c.accuracy_drop() {
                        fields.push(("accuracy_drop".into(), Json::num(f64::from(drop))));
                    }
                    if let Some(repair) = &c.repair {
                        fields.push((
                            "repair".into(),
                            Json::obj([
                                ("plan", Json::str(repair.plan.to_string())),
                                (
                                    "accuracy_before",
                                    Json::num(f64::from(repair.accuracy_before)),
                                ),
                                (
                                    "accuracy_after",
                                    Json::num(f64::from(repair.accuracy_after)),
                                ),
                                (
                                    "repaired_train_size",
                                    Json::usize(repair.repaired_train_size),
                                ),
                            ]),
                        ));
                    }
                    Json::Obj(fields)
                })),
            ),
        ])
    }
}

/// Executes [`ExperimentPlan`]s against a shared [`ArtifactStore`].
#[derive(Debug)]
pub struct SweepRunner {
    engine: StagedEngine,
}

impl SweepRunner {
    /// A runner over the given store.
    pub fn new(store: ArtifactStore) -> Self {
        SweepRunner {
            engine: StagedEngine::new(store),
        }
    }

    /// The underlying engine (and through it, the store counters).
    pub fn engine(&self) -> &StagedEngine {
        &self.engine
    }

    /// Runs every cell of the plan and aggregates the reports.
    ///
    /// Cell-level failures are captured in the per-cell
    /// [`CellReport::outcome`]; the sweep itself always completes.
    pub fn run(&self, plan: &ExperimentPlan) -> SweepReport {
        let before = self.engine.store().stats();

        // Compute each distinct shared base stage once, serially, before
        // the fan-out: concurrent cells then hit the store instead of
        // training the same healthy twin in parallel. With a disabled
        // store nothing can be shared, so the baseline is skipped rather
        // than retrained per cell.
        let share_baseline = plan.baseline && self.engine.store().is_enabled();
        let mut ready_twins = std::collections::HashSet::new();
        if share_baseline {
            let mut attempted = std::collections::HashSet::new();
            for cell in &plan.cells {
                let twin = cell.healthy_twin();
                let key = StagedEngine::trained_fingerprint(&twin).as_hex();
                // One training attempt per distinct twin. A twin that
                // fails simply yields no baseline column; the defective
                // cells still run — and skip the lookup entirely, so N
                // cells never re-run a failing base training concurrently.
                if attempted.insert(key.clone()) && self.engine.trained(&twin).is_ok() {
                    ready_twins.insert(key);
                }
            }
        }

        let run_cell = |i: usize| -> CellReport {
            let scenario = &plan.cells[i];
            let twin = scenario.healthy_twin();
            let baseline_test_accuracy = if share_baseline
                && ready_twins.contains(&StagedEngine::trained_fingerprint(&twin).as_hex())
            {
                self.engine.trained(&twin).ok().map(|a| a.test_accuracy)
            } else {
                None
            };
            let (outcome, repair) = if plan.repair {
                match self.engine.run_with_repair(scenario) {
                    Ok((outcome, repair)) => (Ok(outcome), Some(repair)),
                    Err(e) => (Err(e), None),
                }
            } else {
                (self.engine.run(scenario), None)
            };
            CellReport {
                subject: scenario.subject(),
                defect: scenario.defect().clone(),
                fingerprint: scenario.fingerprint(),
                outcome,
                repair,
                baseline_test_accuracy,
            }
        };

        #[cfg(feature = "parallel")]
        let cells = deepmorph_parallel::par_map(plan.cells.len(), run_cell);
        #[cfg(not(feature = "parallel"))]
        let cells = (0..plan.cells.len()).map(run_cell).collect();

        SweepReport {
            cells,
            store: self.engine.store().stats().since(&before),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_data::DatasetKind;
    use deepmorph_models::ModelFamily;

    #[test]
    fn plan_builders_compose() {
        let base = Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
            .seed(1)
            .train_per_class(5)
            .test_per_class(2);
        let plan = ExperimentPlan::from_defects(
            base.clone(),
            [0.2f32, 0.5].map(|f| DefectSpec::unreliable_training_data(3, 5, f)),
        )
        .unwrap()
        .with_cell(base.build().unwrap())
        .with_repair(true)
        .with_baseline(false);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert!(matches!(plan.cells()[2].defect(), DefectSpec::Healthy));
    }

    // Sweep execution tests train real models and live in `tests/sweep.rs`.
}
