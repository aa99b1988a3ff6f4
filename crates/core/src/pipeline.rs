//! The DeepMorph diagnosis steps, each written once: the fit/holdout
//! split, class-pattern learning, and the classification of faulty
//! footprints into a [`DefectReport`]. [`DiagnosisSession`] runs them
//! against a live instrumented model (what the server does);
//! [`crate::stage::StagedEngine`] runs them from stored artifacts.

use deepmorph_tensor::init::stream_rng;
use deepmorph_tensor::{workspace, Tensor};

use deepmorph_data::Dataset;
use deepmorph_models::ModelHandle;
use deepmorph_nn::train::{gather_batch, predict_all};

use crate::classify::{ClassifierConfig, DefectClassifier};
use crate::footprint::FootprintSet;
use crate::instrument::{InstrumentedModel, ProbeTrainingConfig};
use crate::pattern::ClassPatterns;
use crate::report::{CaseDiagnosis, DefectRatios, DefectReport};
use crate::specifics::FootprintSpecifics;
use crate::{DeepMorphError, Result};

/// Configuration of a DeepMorph run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeepMorphConfig {
    /// Auxiliary-probe training hyper-parameters.
    pub probe: ProbeTrainingConfig,
    /// Defect-classifier configuration.
    pub classifier: ClassifierConfig,
    /// Cap on the number of faulty cases analyzed (0 = no cap). Footprint
    /// extraction is linear in this; 200 is plenty for stable ratios.
    pub max_faulty_cases: usize,
}

/// The misclassified test inputs handed to DeepMorph, with their labels
/// and the model's predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyCases {
    /// The misclassified inputs, `[n, c, h, w]`.
    pub images: Tensor,
    /// Ground-truth labels.
    pub true_labels: Vec<usize>,
    /// The model's (wrong) predictions.
    pub predicted: Vec<usize>,
}

impl FaultyCases {
    /// Runs `model` over `test` and collects the misclassified samples,
    /// keeping only the first `max` of them (`0` = no cap). The cap is
    /// applied to the *index list*, before any image is gathered, so a
    /// capped run never materializes the full faulty batch only to
    /// truncate it. Returns the capped cases together with the total
    /// (pre-cap) faulty count.
    ///
    /// The kept cases are the prefix of the test-order faulty list —
    /// identical to an uncapped collection followed by
    /// [`FaultyCases::truncate`], bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates network errors.
    pub fn collect_capped(
        model: &mut ModelHandle,
        test: &Dataset,
        max: usize,
    ) -> Result<(Self, usize)> {
        let preds = predict_all(&mut model.graph, test.images(), 64)?;
        let mut faulty: Vec<usize> = preds
            .iter()
            .zip(test.labels())
            .enumerate()
            .filter(|(_, (p, l))| p != l)
            .map(|(i, _)| i)
            .collect();
        let total = faulty.len();
        if max > 0 {
            faulty.truncate(max);
        }
        let images = gather_batch(test.images(), &faulty)?;
        Ok((
            FaultyCases {
                images,
                true_labels: faulty.iter().map(|&i| test.labels()[i]).collect(),
                predicted: faulty.iter().map(|&i| preds[i]).collect(),
            },
            total,
        ))
    }

    /// Number of faulty cases.
    pub fn len(&self) -> usize {
        self.true_labels.len()
    }

    /// `true` if the model made no mistakes on the test set.
    pub fn is_empty(&self) -> bool {
        self.true_labels.is_empty()
    }

    /// Keeps only the first `max` cases (no-op if `max == 0` or already
    /// smaller).
    ///
    /// # Errors
    ///
    /// Propagates tensor errors.
    pub fn truncate(&mut self, max: usize) -> Result<()> {
        if max == 0 || self.len() <= max {
            return Ok(());
        }
        let keep: Vec<usize> = (0..max).collect();
        let trimmed = gather_batch(&self.images, &keep)?;
        workspace::recycle_tensor(std::mem::replace(&mut self.images, trimmed));
        self.true_labels.truncate(max);
        self.predicted.truncate(max);
        Ok(())
    }
}

/// The DeepMorph tool: instruments a model, learns execution patterns, and
/// attributes faulty cases to defect types.
#[derive(Debug, Clone, Default)]
pub struct DeepMorph {
    config: DeepMorphConfig,
}

impl DeepMorph {
    /// Creates the tool with the given configuration.
    pub fn new(config: DeepMorphConfig) -> Self {
        DeepMorph { config }
    }

    /// The expensive, faulty-case-independent half of diagnosis: builds
    /// the softmax-instrumented model and learns the class execution
    /// patterns from the training set. The returned [`DiagnosisSession`]
    /// can then diagnose any number of faulty-case sets against the same
    /// model cheaply — this is what lets a serving process instrument a
    /// deployed model once and re-diagnose fresh traffic on every request.
    ///
    /// # Errors
    ///
    /// Propagates instrumentation/network errors.
    pub fn prepare(&self, model: ModelHandle, train: &Dataset) -> Result<DiagnosisSession> {
        let split = FitSplit::new(train, &self.config.probe);
        let mut instrumented = split.instrument(model, &self.config.probe)?;
        let (fit_fps, holdout_fps) = split.footprints(&mut instrumented)?;
        let patterns = split.learn_patterns(
            &fit_fps,
            holdout_fps.as_ref(),
            instrumented.probe_accuracies(),
        )?;
        Ok(DiagnosisSession {
            instrumented,
            patterns,
            config: self.config,
        })
    }
}

/// A prepared diagnosis: an instrumented model plus its learned class
/// patterns. Created by [`DeepMorph::prepare`]; each
/// [`DiagnosisSession::diagnose`] call then only extracts the faulty
/// cases' footprints and classifies them — orders of magnitude cheaper
/// than re-training probes, which is what makes repeated live diagnosis
/// of the same deployed model practical.
#[derive(Debug)]
pub struct DiagnosisSession {
    instrumented: InstrumentedModel,
    patterns: ClassPatterns,
    config: DeepMorphConfig,
}

impl DiagnosisSession {
    /// Diagnoses one set of faulty cases against the prepared patterns.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::NoFaultyCases`] if `faulty` is empty, and
    /// propagates network errors.
    pub fn diagnose(&mut self, faulty: &FaultyCases, subject: &str) -> Result<DefectReport> {
        if faulty.is_empty() {
            return Err(DeepMorphError::NoFaultyCases);
        }
        let mut faulty = faulty.clone();
        faulty.truncate(self.config.max_faulty_cases)?;
        let faulty_fps = self.instrumented.footprints(&faulty.images)?;
        Ok(classify(
            &faulty,
            &faulty_fps,
            &self.patterns,
            self.config.classifier,
            self.instrumented.probe_accuracies(),
            subject,
        ))
    }

    /// The instrumented model (e.g. for UTD label-cleaning footprints).
    pub fn instrumented_mut(&mut self) -> &mut InstrumentedModel {
        &mut self.instrumented
    }
}

/// The training set divided for diagnosis: probes and class patterns are
/// fitted on `fit`, label-noise statistics come from `holdout` so backbone
/// memorization cannot erase the UTD fingerprint (see
/// [`ClassPatterns::learn_with_holdout`]). A stratified 85/15 split from
/// the probe seed; under 10 samples per class, `fit` is the whole set.
pub(crate) struct FitSplit {
    fit: Dataset,
    holdout: Option<Dataset>,
}

impl FitSplit {
    pub(crate) fn new(train: &Dataset, probe: &ProbeTrainingConfig) -> Self {
        if train.len() < 10 * train.num_classes() {
            return FitSplit {
                fit: train.clone(),
                holdout: None,
            };
        }
        let (fit, holdout) =
            train.split_stratified(0.85, &mut stream_rng(probe.seed, "holdout-split"));
        FitSplit {
            fit,
            holdout: Some(holdout),
        }
    }

    /// Fits the auxiliary softmax probes on the fit split.
    pub(crate) fn instrument(
        &self,
        model: ModelHandle,
        probe: &ProbeTrainingConfig,
    ) -> Result<InstrumentedModel> {
        let fit = &self.fit;
        InstrumentedModel::build(model, fit.images(), fit.labels(), fit.num_classes(), probe)
    }

    /// Footprints of the fit split, and of the holdout if there is one.
    pub(crate) fn footprints(
        &self,
        instrumented: &mut InstrumentedModel,
    ) -> Result<(FootprintSet, Option<FootprintSet>)> {
        let fit = instrumented.footprints(self.fit.images())?;
        let holdout = self
            .holdout
            .as_ref()
            .map(|h| instrumented.footprints(h.images()))
            .transpose()?;
        Ok((fit, holdout))
    }

    /// Learns the class execution patterns from the footprints
    /// [`FitSplit::footprints`] extracted (or their stored copies).
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Artifact`] if the split has a holdout but
    /// `holdout_fps` is `None`, and propagates pattern-learning errors.
    pub(crate) fn learn_patterns(
        &self,
        fit_fps: &FootprintSet,
        holdout_fps: Option<&FootprintSet>,
        probe_accuracies: Vec<f32>,
    ) -> Result<ClassPatterns> {
        let Some(holdout) = &self.holdout else {
            return ClassPatterns::learn(fit_fps, self.fit.labels(), probe_accuracies);
        };
        let holdout_fps = holdout_fps.ok_or_else(|| DeepMorphError::Artifact {
            reason: "footprint artifact lacks the holdout split".into(),
        })?;
        ClassPatterns::learn_with_holdout(
            fit_fps,
            self.fit.labels(),
            holdout_fps,
            holdout.labels(),
            probe_accuracies,
        )
    }
}

/// Classifies faulty cases: footprints (one per case of `faulty`) →
/// [`FootprintSpecifics`] → [`DefectClassifier`] → [`DefectReport`].
pub(crate) fn classify(
    faulty: &FaultyCases,
    faulty_fps: &FootprintSet,
    patterns: &ClassPatterns,
    config: ClassifierConfig,
    probe_accuracies: Vec<f32>,
    subject: &str,
) -> DefectReport {
    let specifics: Vec<FootprintSpecifics> = faulty_fps
        .iter()
        .zip(faulty.true_labels.iter().zip(&faulty.predicted))
        .map(|(fp, (&t, &p))| FootprintSpecifics::compute(fp, t, p, patterns, config.metric))
        .collect();
    let (scores, ratios) = DefectClassifier::new(config).classify(&specifics, patterns);
    let cases = scores
        .iter()
        .enumerate()
        .map(|(i, s)| CaseDiagnosis {
            case_index: i,
            true_label: faulty.true_labels[i],
            predicted: faulty.predicted[i],
            assigned: s.assigned().abbrev().to_string(),
            score_distribution: s.distribution(),
        })
        .collect();
    DefectReport {
        ratios: DefectRatios::new(ratios),
        num_cases: specifics.len(),
        probe_labels: faulty_fps.probe_labels().to_vec(),
        probe_accuracies,
        model_health: patterns.health(),
        cases,
        subject: subject.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_models::{build_model, ModelFamily, ModelScale, ModelSpec};

    fn toy_dataset(per_class: usize) -> Dataset {
        // Class-dependent constant images: trivially learnable by probes.
        let k = 4;
        let n = per_class * k;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for s in 0..per_class {
                let level = c as f32 / k as f32 + (s % 3) as f32 * 0.01;
                data.extend(std::iter::repeat_n(level, 256));
                labels.push(c);
            }
        }
        Dataset::new(Tensor::from_vec(data, &[n, 1, 16, 16]).unwrap(), labels, k).unwrap()
    }

    #[test]
    fn collect_finds_misclassifications() {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 4);
        let mut rng = stream_rng(1, "pipeline");
        let mut model = build_model(&spec, &mut rng).unwrap();
        let test = toy_dataset(5);
        // Untrained model: most predictions are wrong.
        let faulty = FaultyCases::collect_capped(&mut model, &test, 0).unwrap().0;
        assert!(!faulty.is_empty());
        assert_eq!(faulty.images.shape()[0], faulty.len());
        for (t, p) in faulty.true_labels.iter().zip(&faulty.predicted) {
            assert_ne!(t, p);
        }
    }

    #[test]
    fn truncate_caps_cases() {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 4);
        let mut rng = stream_rng(2, "pipeline");
        let mut model = build_model(&spec, &mut rng).unwrap();
        let test = toy_dataset(5);
        let mut faulty = FaultyCases::collect_capped(&mut model, &test, 0).unwrap().0;
        faulty.truncate(3).unwrap();
        assert!(faulty.len() <= 3);
        assert_eq!(faulty.images.shape()[0], faulty.len());
    }

    #[test]
    fn diagnose_produces_wellformed_report() {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 4);
        let mut rng = stream_rng(3, "pipeline");
        let mut model = build_model(&spec, &mut rng).unwrap();
        let train = toy_dataset(10);
        let test = toy_dataset(4);
        let faulty = FaultyCases::collect_capped(&mut model, &test, 0).unwrap().0;
        assert!(!faulty.is_empty());

        let tool = DeepMorph::new(DeepMorphConfig {
            probe: ProbeTrainingConfig {
                epochs: 5,
                ..Default::default()
            },
            max_faulty_cases: 10,
            ..Default::default()
        });
        let mut session = tool.prepare(model, &train).unwrap();
        let report = session.diagnose(&faulty, "LeNet toy").unwrap();
        assert!(report.num_cases > 0 && report.num_cases <= 10);
        let sum: f32 = report.ratios.as_array().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert_eq!(report.cases.len(), report.num_cases);
        assert_eq!(report.probe_labels.len(), report.probe_accuracies.len());
    }

    #[test]
    fn diagnose_rejects_empty_faulty_set() {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 4);
        let mut rng = stream_rng(4, "pipeline");
        let model = build_model(&spec, &mut rng).unwrap();
        let train = toy_dataset(4);
        let faulty = FaultyCases {
            images: Tensor::zeros(&[0, 1, 16, 16]),
            true_labels: vec![],
            predicted: vec![],
        };
        let mut session = DeepMorph::default().prepare(model, &train).unwrap();
        assert!(matches!(
            session.diagnose(&faulty, "x").unwrap_err(),
            DeepMorphError::NoFaultyCases
        ));
    }
}
