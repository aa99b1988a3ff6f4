//! Table I regeneration.
//!
//! Paper protocol (Section IV): for each DL model (LeNet, AlexNet on the
//! MNIST-like dataset; ResNet, DenseNet on the CIFAR-like dataset) and each
//! injected defect (ITD, UTD, SD), train the defective model, feed the
//! faulty test cases to DeepMorph, and report the ratio of each defect
//! type. The injected defect should receive the largest ratio in every
//! cell (diagonal dominance).

use deepmorph::prelude::*;
use deepmorph_json::Json;

/// Experiment scale knobs for the Table I sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Config {
    /// Model scale (width/depth).
    pub scale: ModelScale,
    /// Training samples generated per class (before injection).
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Backbone training epochs.
    pub epochs: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            scale: ModelScale::Tiny,
            train_per_class: 120,
            test_per_class: 40,
            epochs: 8,
            seed: 7,
        }
    }
}

impl Table1Config {
    /// Per-family training epochs: AlexNet's deeper/pooled stack
    /// undertrains at the shared budget, so it gets extra epochs (the
    /// paper likewise trains each model to its own convergence).
    pub fn epochs_for(&self, family: ModelFamily) -> usize {
        match family {
            ModelFamily::AlexNet => self.epochs + 4,
            _ => self.epochs,
        }
    }
}

/// The three injected defects used for the sweep, in the paper's row order.
///
/// * ITD: remove 98% of the training data of classes 0–2 — severe enough
///   that the starved classes' test inputs are genuinely out of the
///   learned distribution (the synthetic datasets are easier than
///   MNIST/CIFAR, so a 90% cut would still be learnable).
/// * UTD: mislabel 40% of class 3 as class 5.
/// * SD: remove 6 conv units (saturates at each family's maximum).
pub fn default_defects() -> [DefectSpec; 3] {
    [
        DefectSpec::insufficient_training_data(vec![0, 1, 2], 0.98),
        DefectSpec::unreliable_training_data(3, 5, 0.5),
        DefectSpec::structure_defect(6),
    ]
}

/// One (model, injected-defect) cell of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Model family name.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Injected defect abbreviation (row).
    pub injected: String,
    /// Reported `[ITD, UTD, SD]` ratios.
    pub ratios: [f32; 3],
    /// Defect with the largest ratio.
    pub reported: String,
    /// Whether the injected defect was identified (diagonal win).
    pub correct: bool,
    /// Clean-test accuracy of the defective model.
    pub test_accuracy: f32,
    /// Number of faulty cases diagnosed.
    pub faulty_cases: usize,
    /// Model health as seen by DeepMorph.
    pub model_health: f32,
}

/// The full Table I result set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableResult {
    /// All cells, row-major (defect-major, model-minor).
    pub cells: Vec<CellResult>,
}

impl TableResult {
    /// Number of cells where the injected defect won.
    pub fn cells_won(&self) -> usize {
        self.cells.iter().filter(|c| c.correct).count()
    }

    /// Fraction of cells where the injected defect won.
    pub fn diagonal_accuracy(&self) -> f32 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells_won() as f32 / self.cells.len() as f32
    }

    /// The result set as a [`Json`] value (for `--json` output).
    pub fn to_json_value(&self) -> Json {
        Json::obj([
            (
                "diagonal_accuracy",
                Json::num(f64::from(self.diagonal_accuracy())),
            ),
            (
                "cells",
                Json::arr(self.cells.iter().map(|c| {
                    Json::obj([
                        ("model", Json::str(c.model.clone())),
                        ("dataset", Json::str(c.dataset.clone())),
                        ("injected", Json::str(c.injected.clone())),
                        (
                            "ratios",
                            Json::arr(c.ratios.iter().map(|&v| Json::num(f64::from(v)))),
                        ),
                        ("reported", Json::str(c.reported.clone())),
                        ("correct", Json::Bool(c.correct)),
                        ("test_accuracy", Json::num(f64::from(c.test_accuracy))),
                        ("faulty_cases", Json::num(c.faulty_cases as f64)),
                        ("model_health", Json::num(f64::from(c.model_health))),
                    ])
                })),
            ),
        ])
    }
}

/// The dataset each model family is evaluated on (paper Section IV).
pub fn dataset_for(family: ModelFamily) -> DatasetKind {
    match family {
        ModelFamily::LeNet | ModelFamily::AlexNet => DatasetKind::Digits,
        ModelFamily::ResNet | ModelFamily::DenseNet => DatasetKind::Objects,
    }
}

/// Builds the scenario of one table cell at a given retry attempt.
fn cell_scenario(
    family: ModelFamily,
    defect: &DefectSpec,
    config: &Table1Config,
    attempt: u64,
) -> Result<Scenario, DeepMorphError> {
    Scenario::builder(family, dataset_for(family))
        .seed(config.seed + attempt * 1000)
        .scale(config.scale)
        .train_per_class(config.train_per_class)
        .test_per_class(config.test_per_class)
        .train_config(TrainConfig {
            epochs: config.epochs_for(family),
            batch_size: 32,
            learning_rate: 0.05,
            lr_decay: 0.9,
            ..TrainConfig::default()
        })
        .inject(defect.clone())
        .build()
}

/// Converts one sweep outcome into a table cell.
fn cell_result(family: ModelFamily, defect: &DefectSpec, outcome: &ScenarioOutcome) -> CellResult {
    let injected = defect.kind().map(|k| k.abbrev()).unwrap_or("none");
    let reported = outcome
        .report
        .dominant()
        .map(|k| k.abbrev().to_string())
        .unwrap_or_else(|| "none".into());
    CellResult {
        model: family.name().to_string(),
        dataset: dataset_for(family).name().to_string(),
        injected: injected.to_string(),
        ratios: outcome.report.ratios.as_array(),
        correct: reported == injected,
        reported,
        test_accuracy: outcome.test_accuracy,
        faulty_cases: outcome.faulty_count,
        model_health: outcome.report.model_health,
    }
}

/// Runs the full 3×4 sweep (3 defects × 4 models) through the staged
/// engine: all cells of a retry round execute **concurrently** on the
/// `deepmorph-parallel` pool, and every stage is persisted in (and
/// reloaded from) `store` — a rerun against a warm store recomputes
/// nothing, and [`ArtifactStore::disabled`] computes everything fresh.
///
/// A mild defect occasionally leaves the model perfect on the small test
/// set; such cells retry with a shifted seed (up to 3 rounds), mirroring
/// the paper's implicit requirement that faulty cases exist.
///
/// `progress` is called after each cell with the finished result.
///
/// # Errors
///
/// Propagates the first non-retryable cell error;
/// [`DeepMorphError::NoFaultyCases`] if a cell stayed perfect through
/// every retry.
pub fn run_table(
    config: &Table1Config,
    store: ArtifactStore,
    progress: impl FnMut(&CellResult),
) -> Result<TableResult, DeepMorphError> {
    run_table_on(&SweepRunner::new(store), config, progress)
}

/// [`run_table`] against an existing runner, so several table runs
/// (e.g. the multi-seed sweep) can share one store.
fn run_table_on(
    runner: &SweepRunner,
    config: &Table1Config,
    mut progress: impl FnMut(&CellResult),
) -> Result<TableResult, DeepMorphError> {
    let grid: Vec<(DefectSpec, ModelFamily)> = default_defects()
        .into_iter()
        .flat_map(|defect| ModelFamily::all().map(|family| (defect.clone(), family)))
        .collect();
    let mut results: Vec<Option<CellResult>> = vec![None; grid.len()];
    let mut pending: Vec<usize> = (0..grid.len()).collect();

    for attempt in 0..3u64 {
        if pending.is_empty() {
            break;
        }
        let mut plan = ExperimentPlan::new().with_baseline(false);
        for &i in &pending {
            plan = plan.with_cell(cell_scenario(grid[i].1, &grid[i].0, config, attempt)?);
        }
        let sweep = runner.run(&plan);
        let mut still_pending = Vec::new();
        for (&i, cell) in pending.iter().zip(&sweep.cells) {
            match &cell.outcome {
                Ok(outcome) => {
                    let result = cell_result(grid[i].1, &grid[i].0, outcome);
                    progress(&result);
                    results[i] = Some(result);
                }
                Err(DeepMorphError::NoFaultyCases) => still_pending.push(i),
                Err(e) => return Err(e.clone()),
            }
        }
        pending = still_pending;
    }
    if !pending.is_empty() {
        return Err(DeepMorphError::NoFaultyCases);
    }
    Ok(TableResult {
        cells: results
            .into_iter()
            .map(|c| c.expect("every non-pending cell resolved"))
            .collect(),
    })
}

/// Runs the sweep at each of `seeds` and returns one table per seed —
/// the robustness check behind the single-seed table;
/// [`aggregate_tables`] averages them. Every per-seed table shares
/// `store`, so rerunning the multi-seed sweep (or extending its seed
/// list) reloads every already-computed cell.
///
/// # Errors
///
/// Propagates the first cell error.
pub fn run_table_seeds(
    config: &Table1Config,
    seeds: &[u64],
    store: ArtifactStore,
    mut progress: impl FnMut(u64, &CellResult),
) -> Result<Vec<TableResult>, DeepMorphError> {
    let runner = SweepRunner::new(store);
    seeds
        .iter()
        .map(|&seed| {
            let cfg = Table1Config { seed, ..*config };
            run_table_on(&runner, &cfg, |cell| progress(seed, cell))
        })
        .collect()
}

/// Averages matching cells across per-seed tables.
///
/// The aggregated cell's `correct` flag reflects the *mean* ratios (does
/// the diagonal win on average), so it can hide a seed's miss that
/// [`TableResult::cells_won`] on the per-seed tables counts;
/// accuracy/faulty-count fields are means.
pub fn aggregate_tables(tables: &[TableResult]) -> TableResult {
    let Some(first) = tables.first() else {
        return TableResult::default();
    };
    let mut cells = Vec::new();
    for proto in &first.cells {
        let matching: Vec<&CellResult> = tables
            .iter()
            .filter_map(|t| {
                t.cells
                    .iter()
                    .find(|c| c.model == proto.model && c.injected == proto.injected)
            })
            .collect();
        let n = matching.len() as f32;
        let mut ratios = [0.0f32; 3];
        let mut test_accuracy = 0.0;
        let mut faulty = 0.0;
        let mut health = 0.0;
        for c in &matching {
            for (acc, v) in ratios.iter_mut().zip(&c.ratios) {
                *acc += v / n;
            }
            test_accuracy += c.test_accuracy / n;
            faulty += c.faulty_cases as f32 / n;
            health += c.model_health / n;
        }
        let reported_idx = ratios
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("ratios are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let reported = ["ITD", "UTD", "SD"][reported_idx].to_string();
        cells.push(CellResult {
            model: proto.model.clone(),
            dataset: proto.dataset.clone(),
            injected: proto.injected.clone(),
            ratios,
            correct: reported == proto.injected,
            reported,
            test_accuracy,
            faulty_cases: faulty.round() as usize,
            model_health: health,
        });
    }
    TableResult { cells }
}

/// Formats results in the paper's layout: rows = injected defect, columns
/// = (model × reported ratio).
pub fn render_table(result: &TableResult) -> String {
    let mut out = String::new();
    out.push_str("RESULTS ON DL MODELS WITH INJECTED DEFECTS (reproduction of Table I)\n");
    out.push_str("                 |        synth-digits         |        synth-objects        \n");
    out.push_str("Injected         |    LeNet     |   AlexNet    |    ResNet    |   DenseNet   \n");
    out.push_str("                 | ITD  UTD  SD | ITD  UTD  SD | ITD  UTD  SD | ITD  UTD  SD \n");
    out.push_str(&"-".repeat(78));
    out.push('\n');
    for injected in ["ITD", "UTD", "SD"] {
        let mut row = format!("{injected:<17}|");
        for model in ["LeNet", "AlexNet", "ResNet", "DenseNet"] {
            let cell = result
                .cells
                .iter()
                .find(|c| c.injected == injected && c.model == model);
            match cell {
                Some(c) => {
                    row.push_str(&format!(
                        " {:.2} {:.2} {:.2}{}|",
                        c.ratios[0],
                        c.ratios[1],
                        c.ratios[2],
                        if c.correct { " " } else { "!" }
                    ));
                }
                None => row.push_str("      (missing)     |"),
            }
        }
        out.push_str(&row);
        out.push('\n');
    }
    out.push_str(&format!(
        "diagonal accuracy: {:.0}% ({} of {} cells; '!' marks misses)\n",
        result.diagonal_accuracy() * 100.0,
        result.cells_won(),
        result.cells.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_all_three_defects() {
        let kinds: Vec<_> = default_defects()
            .iter()
            .map(|d| d.kind().unwrap().abbrev())
            .collect();
        assert_eq!(kinds, vec!["ITD", "UTD", "SD"]);
    }

    #[test]
    fn dataset_assignment_matches_paper() {
        assert_eq!(dataset_for(ModelFamily::LeNet), DatasetKind::Digits);
        assert_eq!(dataset_for(ModelFamily::AlexNet), DatasetKind::Digits);
        assert_eq!(dataset_for(ModelFamily::ResNet), DatasetKind::Objects);
        assert_eq!(dataset_for(ModelFamily::DenseNet), DatasetKind::Objects);
    }

    #[test]
    fn render_handles_missing_cells() {
        let table = TableResult { cells: vec![] };
        let s = render_table(&table);
        assert!(s.contains("missing"));
        assert_eq!(table.diagonal_accuracy(), 0.0);
    }

    fn lenet_itd(ratios: [f32; 3], reported: &str) -> CellResult {
        CellResult {
            model: "LeNet".into(),
            dataset: "synth-digits".into(),
            injected: "ITD".into(),
            ratios,
            reported: reported.into(),
            correct: reported == "ITD",
            test_accuracy: 0.8,
            faulty_cases: 50,
            model_health: 0.9,
        }
    }

    #[test]
    fn render_formats_cells() {
        let table = TableResult {
            cells: vec![lenet_itd([0.7, 0.2, 0.1], "ITD")],
        };
        let s = render_table(&table);
        assert!(s.contains("0.70 0.20 0.10"));
        assert!(s.contains("diagonal accuracy"));
    }

    #[test]
    fn mean_ratios_can_win_a_cell_that_a_seed_missed() {
        let seeds = [
            TableResult {
                cells: vec![lenet_itd([0.9, 0.05, 0.05], "ITD")],
            },
            TableResult {
                cells: vec![lenet_itd([0.4, 0.5, 0.1], "UTD")],
            },
        ];
        let mean = aggregate_tables(&seeds);
        assert_eq!(mean.cells_won(), 1);
        assert_eq!(seeds.iter().map(TableResult::cells_won).sum::<usize>(), 1);
    }
}
