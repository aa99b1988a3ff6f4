//! End-to-end experiment scenarios.
//!
//! A [`Scenario`] packages the paper's Section IV protocol: generate a
//! dataset, inject a defect, train the (possibly defective) model, collect
//! the faulty cases from the clean test set, and run DeepMorph. Execution
//! goes through the staged engine ([`crate::stage::StagedEngine`]): a
//! plain [`Scenario::run`] drives the stages with a disabled artifact
//! store, while sweeps ([`crate::sweep::SweepRunner`]) share a real store
//! so unchanged stages are loaded instead of recomputed. The examples and
//! the Table I harness are thin wrappers around this type.

use deepmorph_data::{DataGenerator, Dataset, DatasetKind, SynthDigits, SynthObjects};
use deepmorph_defects::DefectSpec;
use deepmorph_models::{build_model, ModelFamily, ModelScale, ModelSpec};
use deepmorph_nn::prelude::{TrainConfig, Trainer};
use deepmorph_tensor::init::stream_rng;

use crate::artifact::Fingerprint;
use crate::pipeline::DeepMorphConfig;
use crate::repair::RepairPlan;
use crate::report::DefectReport;
use crate::stage::StagedEngine;
use crate::{DeepMorphError, Result};

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    pub(crate) family: ModelFamily,
    pub(crate) dataset: DatasetKind,
    pub(crate) seed: u64,
    pub(crate) scale: ModelScale,
    pub(crate) defect: DefectSpec,
    pub(crate) train_per_class: usize,
    pub(crate) test_per_class: usize,
    pub(crate) train_config: TrainConfig,
    pub(crate) deepmorph: DeepMorphConfig,
}

impl ScenarioBuilder {
    fn new(family: ModelFamily, dataset: DatasetKind) -> Self {
        ScenarioBuilder {
            family,
            dataset,
            seed: 0,
            scale: ModelScale::Tiny,
            defect: DefectSpec::Healthy,
            train_per_class: 100,
            test_per_class: 30,
            train_config: TrainConfig {
                epochs: 4,
                batch_size: 32,
                learning_rate: 0.05,
                ..TrainConfig::default()
            },
            deepmorph: DeepMorphConfig {
                max_faulty_cases: 200,
                ..DeepMorphConfig::default()
            },
        }
    }

    /// Sets the base seed controlling data, weights, and injection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the model scale.
    pub fn scale(mut self, scale: ModelScale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the defect to inject.
    pub fn inject(mut self, defect: DefectSpec) -> Self {
        self.defect = defect;
        self
    }

    /// Sets training samples generated per class (before injection).
    pub fn train_per_class(mut self, n: usize) -> Self {
        self.train_per_class = n;
        self
    }

    /// Sets test samples generated per class.
    pub fn test_per_class(mut self, n: usize) -> Self {
        self.test_per_class = n;
        self
    }

    /// Overrides the backbone training configuration.
    pub fn train_config(mut self, config: TrainConfig) -> Self {
        self.train_config = config;
        self
    }

    /// Overrides the DeepMorph configuration.
    pub fn deepmorph_config(mut self, config: DeepMorphConfig) -> Self {
        self.deepmorph = config;
        self
    }

    /// Validates and finalizes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::InvalidScenario`] if `train_per_class` or
    /// `test_per_class` is zero. The model's input shape is taken from the
    /// dataset kind, so the two cannot disagree.
    pub fn build(self) -> Result<Scenario> {
        if self.train_per_class == 0 || self.test_per_class == 0 {
            return Err(DeepMorphError::InvalidScenario {
                reason: "train_per_class and test_per_class must be positive".into(),
            });
        }
        Ok(Scenario { cfg: self })
    }
}

/// A fully-specified experiment: dataset × model × defect × seeds.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) cfg: ScenarioBuilder,
}

/// Everything a finished scenario produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The DeepMorph diagnosis.
    pub report: DefectReport,
    /// Accuracy of the trained (defective) model on the clean test set.
    pub test_accuracy: f32,
    /// Accuracy on its own (injected) training set.
    pub train_accuracy: f32,
    /// Number of faulty cases found on the test set (before capping).
    pub faulty_count: usize,
    /// The injected defect.
    pub defect: DefectSpec,
    /// Human-readable subject line ("LeNet on synth-digits, ITD(…)").
    pub subject: String,
}

impl Scenario {
    /// Starts building a scenario for a model family on a dataset kind.
    pub fn builder(family: ModelFamily, dataset: DatasetKind) -> ScenarioBuilder {
        ScenarioBuilder::new(family, dataset)
    }

    /// The configured defect.
    pub fn defect(&self) -> &DefectSpec {
        &self.cfg.defect
    }

    /// The model family under test.
    pub fn family(&self) -> ModelFamily {
        self.cfg.family
    }

    /// The dataset kind under test.
    pub fn dataset(&self) -> DatasetKind {
        self.cfg.dataset
    }

    /// The base seed.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Training samples generated per class (before injection).
    pub fn train_per_class(&self) -> usize {
        self.cfg.train_per_class
    }

    /// Test samples generated per class.
    pub fn test_per_class(&self) -> usize {
        self.cfg.test_per_class
    }

    /// The backbone training configuration.
    pub fn train_config(&self) -> &TrainConfig {
        &self.cfg.train_config
    }

    /// Human-readable subject line used in reports.
    pub fn subject(&self) -> String {
        let cfg = &self.cfg;
        format!(
            "{} on {}, defect {}",
            cfg.family,
            cfg.dataset,
            cfg.defect.describe()
        )
    }

    /// The same scenario with the defect replaced by
    /// [`DefectSpec::Healthy`] — the shared "base" cell of a severity
    /// sweep. Every severity point of a sweep has the same healthy twin,
    /// so its training stage is fingerprint-shared across the whole sweep.
    pub fn healthy_twin(&self) -> Scenario {
        let mut cfg = self.cfg.clone();
        cfg.defect = DefectSpec::Healthy;
        Scenario { cfg }
    }

    /// Content fingerprint of *all* scenario inputs (family, scale,
    /// dataset, seeds, defect spec, training and DeepMorph configuration).
    /// Scenarios with equal fingerprints produce bitwise-identical
    /// reports; this is the identity the artifact store caches under.
    pub fn fingerprint(&self) -> Fingerprint {
        StagedEngine::report_fingerprint(self)
    }

    /// Generates the train/test datasets (pre-injection). Exposed so
    /// benches can reuse the data without rerunning training.
    pub fn generate_data(&self) -> (Dataset, Dataset) {
        let cfg = &self.cfg;
        let mut data_rng = stream_rng(cfg.seed, "scenario-data");
        match cfg.dataset {
            DatasetKind::Digits => {
                let gen = SynthDigits::new();
                let train = gen.generate(cfg.train_per_class, &mut data_rng);
                let test = gen.generate(cfg.test_per_class, &mut data_rng);
                (train, test)
            }
            DatasetKind::Objects => {
                let gen = SynthObjects::new();
                let train = gen.generate(cfg.train_per_class, &mut data_rng);
                let test = gen.generate(cfg.test_per_class, &mut data_rng);
                (train, test)
            }
        }
    }

    /// Generates the datasets and applies the data-side injection:
    /// `(injected_train, clean_test)`. The injected train set is the
    /// model's *actual* training data — what live diagnosis learns
    /// patterns from and what a repair modifies; the clean test set
    /// doubles as the held-out set repair gating evaluates on.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::InvalidScenario`] if injection removed
    /// the entire training set.
    pub fn injected_data(&self) -> Result<(Dataset, Dataset)> {
        let cfg = &self.cfg;
        let (clean_train, test) = self.generate_data();
        let mut inject_rng = stream_rng(cfg.seed, "scenario-inject");
        let train = cfg.defect.apply_to_dataset(&clean_train, &mut inject_rng)?;
        if train.is_empty() {
            return Err(DeepMorphError::InvalidScenario {
                reason: "injection removed the entire training set".into(),
            });
        }
        Ok((train, test))
    }

    /// Builds and trains a fresh model on `train`, optionally overriding
    /// the structure-defect severity, using seed streams suffixed with
    /// `stream` so repair retraining is independent of the original run.
    pub(crate) fn train_fresh(
        &self,
        train: &Dataset,
        removed_convs: usize,
        stream: &str,
    ) -> Result<(deepmorph_models::ModelHandle, f32)> {
        let cfg = &self.cfg;
        let input_shape = [
            cfg.dataset.channels(),
            cfg.dataset.side(),
            cfg.dataset.side(),
        ];
        let spec = ModelSpec::new(
            cfg.family,
            cfg.scale,
            input_shape,
            cfg.dataset.num_classes(),
        )
        .with_removed_convs(removed_convs);
        let mut model_rng = stream_rng(cfg.seed, &format!("scenario-model{stream}"));
        let mut model = build_model(&spec, &mut model_rng)?;
        let mut train_rng = stream_rng(cfg.seed, &format!("scenario-train{stream}"));
        let mut trainer = Trainer::new(cfg.train_config.clone());
        let report = trainer.fit(
            &mut model.graph,
            train.images(),
            train.labels(),
            &mut train_rng,
        )?;
        Ok((model, report.final_train_accuracy))
    }

    /// Runs the full protocol: generate → inject → train → collect faulty
    /// cases → diagnose.
    ///
    /// Equivalent to driving the staged engine with a disabled artifact
    /// store; use [`StagedEngine::run`] with a real store to cache and
    /// reuse stages across scenarios.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::NoFaultyCases`] if the trained model is
    /// perfect on the test set (pick a harder defect or fewer epochs), and
    /// propagates all pipeline errors.
    pub fn run(&self) -> Result<ScenarioOutcome> {
        StagedEngine::ephemeral().run(self)
    }

    /// Runs the protocol, then applies DeepMorph's recommended repair and
    /// retrains, measuring the accuracy improvement — the paper's
    /// "modify the models accordingly" evaluation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::run`], plus
    /// [`DeepMorphError::InvalidScenario`] when no repair can be derived
    /// from the report.
    pub fn run_with_repair(&self) -> Result<(ScenarioOutcome, RepairOutcome)> {
        StagedEngine::ephemeral().run_with_repair(self)
    }

    /// Generates `per_class` fresh samples for each class in `classes`.
    pub(crate) fn generate_for_classes(
        &self,
        classes: &[usize],
        per_class: usize,
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> Dataset {
        let k = self.cfg.dataset.num_classes();
        let [c, h, w] = [
            self.cfg.dataset.channels(),
            self.cfg.dataset.side(),
            self.cfg.dataset.side(),
        ];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for &class in classes {
            for _ in 0..per_class {
                let img = match self.cfg.dataset {
                    DatasetKind::Digits => SynthDigits::new().sample(class, rng),
                    DatasetKind::Objects => SynthObjects::new().sample(class, rng),
                };
                data.extend_from_slice(img.data());
                labels.push(class);
            }
        }
        let n = labels.len();
        Dataset::new(
            deepmorph_tensor::Tensor::from_vec(data, &[n, c, h, w])
                .expect("generator shape consistent"),
            labels,
            k,
        )
        .expect("labels consistent")
    }
}

/// The effect of applying DeepMorph's recommended repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The repair that was applied.
    pub plan: RepairPlan,
    /// Clean-test accuracy of the defective model.
    pub accuracy_before: f32,
    /// Clean-test accuracy after the repair + retraining.
    pub accuracy_after: f32,
    /// Training-set size after the repair.
    pub repaired_train_size: usize,
}

impl RepairOutcome {
    /// Absolute accuracy improvement from the repair.
    pub fn improvement(&self) -> f32 {
        self.accuracy_after - self.accuracy_before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates() {
        assert!(Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
            .train_per_class(0)
            .build()
            .is_err());
        assert!(Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
            .build()
            .is_ok());
    }

    #[test]
    fn generate_data_shapes_match_kind() {
        let s = Scenario::builder(ModelFamily::ResNet, DatasetKind::Objects)
            .train_per_class(2)
            .test_per_class(1)
            .build()
            .unwrap();
        let (train, test) = s.generate_data();
        assert_eq!(train.image_shape(), [3, 16, 16]);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
    }

    #[test]
    fn fingerprint_tracks_every_input() {
        let base = || {
            Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
                .seed(3)
                .train_per_class(10)
                .test_per_class(5)
        };
        let a = base().build().unwrap();
        assert_eq!(a.fingerprint(), base().build().unwrap().fingerprint());
        assert_ne!(
            a.fingerprint(),
            base().seed(4).build().unwrap().fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            base()
                .inject(DefectSpec::structure_defect(1))
                .build()
                .unwrap()
                .fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            base().train_per_class(11).build().unwrap().fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            base()
                .scale(ModelScale::Small)
                .build()
                .unwrap()
                .fingerprint()
        );
    }

    #[test]
    fn healthy_twin_is_severity_invariant() {
        let mk = |fraction| {
            Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
                .seed(5)
                .inject(DefectSpec::unreliable_training_data(3, 5, fraction))
                .build()
                .unwrap()
        };
        let a = mk(0.2);
        let b = mk(0.8);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.healthy_twin().fingerprint(),
            b.healthy_twin().fingerprint()
        );
        assert!(matches!(a.healthy_twin().defect(), DefectSpec::Healthy));
    }

    // Full end-to-end runs live in tests/ (they train real models and are
    // too slow for unit tests).
}
