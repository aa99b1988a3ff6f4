//! The staged scenario engine.
//!
//! [`Scenario::run`] drives a scenario through four explicit stages with
//! typed, serializable artifacts:
//!
//! 1. **Train** → [`TrainedModelArtifact`]: inject the defect, build and
//!    train the backbone, evaluate it, and collect the (capped) faulty
//!    cases from the clean test set.
//! 2. **Instrument** → [`InstrumentedArtifact`]: fit one auxiliary softmax
//!    probe per stage on the fit split of the training set.
//! 3. **Footprints** → [`FootprintArtifact`]: extract the data-flow
//!    footprints of the fit split, the holdout split, and the faulty
//!    cases.
//! 4. **Report** → [`DefectReport`]: learn class patterns, score the
//!    defect signatures, and assemble the diagnosis.
//!
//! The steps inside the stages are the ones [`crate::pipeline`] shares
//! with its live `DiagnosisSession`; this module adds the cache
//! boundaries.
//!
//! Each stage is keyed by a content [`Fingerprint`] of everything that
//! influences it (scenario inputs plus the upstream stage's fingerprint)
//! and persisted through an [`ArtifactStore`]. A sweep that varies only
//! the defect severity therefore recomputes only the stages whose
//! fingerprints changed — and the severity-invariant *base* stages (e.g.
//! the healthy twin every severity point shares) are trained once and
//! loaded everywhere else. Cached and fresh paths are bitwise identical:
//! artifacts serialize `f32` payloads exactly, and models are rebuilt from
//! their spec before the stored state is imported.
//!
//! Datasets are *not* artifacts: the synthetic generators are
//! deterministic and cheap, so stages regenerate data from the seed
//! instead of storing megabytes of images.

use deepmorph_data::Dataset;
use deepmorph_defects::DefectSpec;
use deepmorph_models::{decode_model, encode_model, ModelHandle, ProbePoint};
use deepmorph_nn::metrics::accuracy;
use deepmorph_nn::train::{evaluate_accuracy, predict_all, OptimizerKind};
use deepmorph_tensor::io::{
    open_container, read_tensor, seal_container, write_tensor, ByteReader, ByteWriter, CodecError,
    CodecResult,
};
use deepmorph_tensor::Tensor;

use crate::artifact::{content_fingerprint, ArtifactStore, Fingerprint, Fingerprinter};
use crate::classify::WEIGHTS;
use crate::footprint::{Footprint, FootprintSet};
use crate::instrument::{InstrumentedModel, ProbeTrainingConfig, TrainedProbe};
use crate::pattern::ClassPatterns;
use crate::pipeline::{classify, FaultyCases, FitSplit};
use crate::repair::{recommend, RepairPlan};
use crate::report::DefectReport;
use crate::scenario::{RepairOutcome, Scenario, ScenarioOutcome};
use crate::{DeepMorphError, Result};

const TRAINED_MAGIC: [u8; 4] = *b"DMS1";
const INSTRUMENTED_MAGIC: [u8; 4] = *b"DMS2";
const FOOTPRINT_MAGIC: [u8; 4] = *b"DMS3";
const REPORT_MAGIC: [u8; 4] = *b"DMS4";
const REPAIRED_MAGIC: [u8; 4] = *b"DMS5";

// ---------------------------------------------------------------------
// Stage 1: trained model
// ---------------------------------------------------------------------

/// Output of the training stage: the trained backbone (as serialized
/// spec + state), its accuracies, and the capped faulty cases.
#[derive(Debug, Clone)]
pub struct TrainedModelArtifact {
    /// The model as a `deepmorph-models` container (spec + topology +
    /// state dict).
    model_bytes: Vec<u8>,
    /// Final accuracy on the (injected) training set.
    pub train_accuracy: f32,
    /// Accuracy on the clean test set.
    pub test_accuracy: f32,
    /// Misclassified test cases, capped at the scenario's
    /// `max_faulty_cases`.
    pub faulty: FaultyCases,
    /// Total faulty count before capping.
    pub total_faulty: usize,
}

impl TrainedModelArtifact {
    /// Rebuilds the live model: spec → architecture, then exact state
    /// import. The result's eval-mode behavior is bitwise identical to
    /// the model that was trained.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Artifact`] if the stored bytes no longer
    /// decode against the current architecture code.
    pub fn instantiate(&self) -> Result<ModelHandle> {
        decode_model(&self.model_bytes).map_err(|e| DeepMorphError::Artifact {
            reason: format!("trained-model artifact: {e}"),
        })
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.model_bytes.len() as u64);
        w.put_bytes(&self.model_bytes);
        w.put_f32(self.train_accuracy);
        w.put_f32(self.test_accuracy);
        write_tensor(&mut w, &self.faulty.images);
        w.put_usizes(&self.faulty.true_labels);
        w.put_usizes(&self.faulty.predicted);
        w.put_u64(self.total_faulty as u64);
        seal_container(TRAINED_MAGIC, w.as_slice())
    }

    fn decode(bytes: &[u8]) -> CodecResult<Self> {
        let payload = open_container(TRAINED_MAGIC, bytes)?;
        let mut r = ByteReader::new(payload);
        let model_len = r.get_len("model bytes")?;
        let model_bytes = r.get_bytes(model_len, "model bytes")?.to_vec();
        let train_accuracy = r.get_f32("train accuracy")?;
        let test_accuracy = r.get_f32("test accuracy")?;
        let images = read_tensor(&mut r)?;
        let true_labels = r.get_usizes("faulty labels")?;
        let predicted = r.get_usizes("faulty predictions")?;
        let total_faulty = r.get_len("total faulty")?;
        if images.ndim() != 4
            || images.shape()[0] != true_labels.len()
            || true_labels.len() != predicted.len()
        {
            return Err(CodecError::Invalid {
                context: "faulty cases disagree on case count".into(),
            });
        }
        Ok(TrainedModelArtifact {
            model_bytes,
            train_accuracy,
            test_accuracy,
            faulty: FaultyCases {
                images,
                true_labels,
                predicted,
            },
            total_faulty,
        })
    }
}

// ---------------------------------------------------------------------
// Stage 2: instrumented model (probes)
// ---------------------------------------------------------------------

/// One serialized probe of an [`InstrumentedArtifact`].
#[derive(Debug, Clone)]
struct StoredProbe {
    node: u64,
    label: String,
    features: usize,
    spatial: bool,
    weight: Tensor,
    bias: Tensor,
    train_accuracy: f32,
}

/// Output of the instrumentation stage: the trained auxiliary softmax
/// probes (the backbone itself lives in the upstream
/// [`TrainedModelArtifact`]).
#[derive(Debug, Clone)]
pub struct InstrumentedArtifact {
    num_classes: usize,
    probes: Vec<StoredProbe>,
}

impl InstrumentedArtifact {
    fn from_model(inst: &InstrumentedModel) -> Self {
        InstrumentedArtifact {
            num_classes: inst.num_classes(),
            probes: inst
                .probes()
                .iter()
                .map(|p| StoredProbe {
                    node: p.point().node.index() as u64,
                    label: p.point().label.clone(),
                    features: p.point().features,
                    spatial: p.point().spatial,
                    weight: p.weight().clone(),
                    bias: p.bias().clone(),
                    train_accuracy: p.train_accuracy,
                })
                .collect(),
        }
    }

    /// Per-probe training accuracies, input → output order.
    pub fn probe_accuracies(&self) -> Vec<f32> {
        self.probes.iter().map(|p| p.train_accuracy).collect()
    }

    /// Reattaches the stored probes to a live backbone, reproducing the
    /// original [`InstrumentedModel`] exactly.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Instrumentation`] if the probes disagree
    /// with the model's probe points.
    pub fn instantiate(&self, model: ModelHandle) -> Result<InstrumentedModel> {
        if self.probes.len() != model.probes.len() {
            return Err(DeepMorphError::Instrumentation {
                reason: format!(
                    "{} stored probes for a model exposing {}",
                    self.probes.len(),
                    model.probes.len()
                ),
            });
        }
        let probes: Vec<TrainedProbe> = self
            .probes
            .iter()
            .zip(&model.probes)
            .map(|(stored, point)| {
                if stored.node != point.node.index() as u64 || stored.label != point.label {
                    return Err(DeepMorphError::Instrumentation {
                        reason: format!(
                            "stored probe `{}`@{} disagrees with model point `{}`@{}",
                            stored.label,
                            stored.node,
                            point.label,
                            point.node.index()
                        ),
                    });
                }
                TrainedProbe::from_parts(
                    ProbePoint {
                        node: point.node,
                        label: stored.label.clone(),
                        features: stored.features,
                        spatial: stored.spatial,
                    },
                    stored.weight.clone(),
                    stored.bias.clone(),
                    stored.train_accuracy,
                )
            })
            .collect::<Result<_>>()?;
        InstrumentedModel::from_parts(model, probes, self.num_classes)
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.num_classes as u64);
        w.put_u64(self.probes.len() as u64);
        for p in &self.probes {
            w.put_u64(p.node);
            w.put_str(&p.label);
            w.put_u64(p.features as u64);
            w.put_u8(u8::from(p.spatial));
            write_tensor(&mut w, &p.weight);
            write_tensor(&mut w, &p.bias);
            w.put_f32(p.train_accuracy);
        }
        seal_container(INSTRUMENTED_MAGIC, w.as_slice())
    }

    fn decode(bytes: &[u8]) -> CodecResult<Self> {
        let payload = open_container(INSTRUMENTED_MAGIC, bytes)?;
        let mut r = ByteReader::new(payload);
        let num_classes = r.get_len("num classes")?;
        let n = r.get_len("probe count")?;
        let mut probes = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            probes.push(StoredProbe {
                node: r.get_u64("probe node")?,
                label: r.get_str("probe label")?,
                features: r.get_len("probe features")?,
                spatial: r.get_u8("probe spatial")? != 0,
                weight: read_tensor(&mut r)?,
                bias: read_tensor(&mut r)?,
                train_accuracy: r.get_f32("probe accuracy")?,
            });
        }
        Ok(InstrumentedArtifact {
            num_classes,
            probes,
        })
    }
}

// ---------------------------------------------------------------------
// Stage 3: footprints
// ---------------------------------------------------------------------

/// Output of the footprint stage: per-case probe-distribution
/// trajectories for the fit split, the holdout split (if used), and the
/// faulty cases.
#[derive(Debug, Clone)]
pub struct FootprintArtifact {
    /// Footprints of the fit split (patterns are learned from these).
    pub fit: FootprintSet,
    /// Footprints of the held-out split (label-noise statistics), when
    /// the training set was large enough to split.
    pub holdout: Option<FootprintSet>,
    /// Footprints of the (capped) faulty cases.
    pub faulty: FootprintSet,
}

fn write_footprint_set(w: &mut ByteWriter, set: &FootprintSet) {
    w.put_u64(set.num_classes() as u64);
    w.put_u64(set.probe_labels().len() as u64);
    for label in set.probe_labels() {
        w.put_str(label);
    }
    w.put_u64(set.len() as u64);
    for fp in set.iter() {
        for l in 0..fp.depth() {
            for &v in fp.layer(l) {
                w.put_f32(v);
            }
        }
    }
}

fn read_footprint_set(r: &mut ByteReader<'_>) -> CodecResult<FootprintSet> {
    let num_classes = r.get_len("footprint classes")?;
    let depth = r.get_len("footprint depth")?;
    let mut labels = Vec::with_capacity(depth.min(64));
    for _ in 0..depth {
        labels.push(r.get_str("footprint label")?);
    }
    let n = r.get_len("footprint count")?;
    // Real sets have a probe and classes; without them a footprint takes
    // no bytes, and the size check below could not bound `n`.
    if n > 0 && (depth == 0 || num_classes == 0) {
        return Err(CodecError::Invalid {
            context: format!("{n} footprints of depth {depth} over {num_classes} classes"),
        });
    }
    if r.remaining()
        < n.saturating_mul(depth)
            .saturating_mul(num_classes)
            .saturating_mul(4)
    {
        return Err(CodecError::Truncated {
            context: "footprint data",
        });
    }
    let mut footprints = Vec::with_capacity(n);
    for _ in 0..n {
        let mut layers = Vec::with_capacity(depth);
        for _ in 0..depth {
            let mut dist = Vec::with_capacity(num_classes);
            for _ in 0..num_classes {
                dist.push(r.get_f32("footprint data")?);
            }
            layers.push(dist);
        }
        footprints.push(Footprint::new(layers));
    }
    Ok(FootprintSet::new(footprints, labels, num_classes))
}

impl FootprintArtifact {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_footprint_set(&mut w, &self.fit);
        w.put_u8(u8::from(self.holdout.is_some()));
        if let Some(holdout) = &self.holdout {
            write_footprint_set(&mut w, holdout);
        }
        write_footprint_set(&mut w, &self.faulty);
        seal_container(FOOTPRINT_MAGIC, w.as_slice())
    }

    fn decode(bytes: &[u8]) -> CodecResult<Self> {
        let payload = open_container(FOOTPRINT_MAGIC, bytes)?;
        let mut r = ByteReader::new(payload);
        let fit = read_footprint_set(&mut r)?;
        let holdout = if r.get_u8("holdout flag")? != 0 {
            Some(read_footprint_set(&mut r)?)
        } else {
            None
        };
        let faulty = read_footprint_set(&mut r)?;
        Ok(FootprintArtifact {
            fit,
            holdout,
            faulty,
        })
    }
}

// ---------------------------------------------------------------------
// Stage 4: report
// ---------------------------------------------------------------------

/// Decodes a report artifact: the report's JSON, sealed.
fn decode_report(bytes: &[u8]) -> CodecResult<DefectReport> {
    let payload = open_container(REPORT_MAGIC, bytes)?;
    let text = std::str::from_utf8(payload).map_err(|_| CodecError::Invalid {
        context: "report payload is not UTF-8".into(),
    })?;
    DefectReport::from_json(text).map_err(|e| CodecError::Invalid {
        context: format!("report json: {e}"),
    })
}

// ---------------------------------------------------------------------
// Stage 5 (on demand): repaired model
// ---------------------------------------------------------------------

/// Output of executing a [`RepairPlan`]: the retrained model and how it
/// fared on the clean test set. Keyed by the scenario, the *content
/// fingerprint of the model being repaired*, and the plan — so repairing
/// the same model the same way twice retrains nothing, while a repaired
/// (hence different) model never aliases its ancestor's cache entry.
#[derive(Debug, Clone)]
pub struct RepairedModelArtifact {
    /// The repaired model as a `deepmorph-models` container.
    model_bytes: Vec<u8>,
    /// Clean-test accuracy of the repaired model.
    pub accuracy_after: f32,
    /// Training-set size after the repair.
    pub repaired_train_size: usize,
}

impl RepairedModelArtifact {
    /// Rebuilds the live repaired model (spec → architecture, exact state
    /// import; eval behavior is bitwise identical to the retrained model).
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Artifact`] if the stored bytes no longer
    /// decode against the current architecture code.
    pub fn instantiate(&self) -> Result<ModelHandle> {
        decode_model(&self.model_bytes).map_err(|e| DeepMorphError::Artifact {
            reason: format!("repaired-model artifact: {e}"),
        })
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.model_bytes.len() as u64);
        w.put_bytes(&self.model_bytes);
        w.put_f32(self.accuracy_after);
        w.put_u64(self.repaired_train_size as u64);
        seal_container(REPAIRED_MAGIC, w.as_slice())
    }

    fn decode(bytes: &[u8]) -> CodecResult<Self> {
        let payload = open_container(REPAIRED_MAGIC, bytes)?;
        let mut r = ByteReader::new(payload);
        let model_len = r.get_len("repaired model bytes")?;
        let model_bytes = r.get_bytes(model_len, "repaired model bytes")?.to_vec();
        let accuracy_after = r.get_f32("repaired accuracy")?;
        let repaired_train_size = r.get_len("repaired train size")?;
        Ok(RepairedModelArtifact {
            model_bytes,
            accuracy_after,
            repaired_train_size,
        })
    }
}

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

/// Drives a [`Scenario`] through the four stages, loading every stage
/// whose fingerprint is already in the [`ArtifactStore`] and computing
/// (then persisting) the rest.
#[derive(Debug)]
pub struct StagedEngine {
    store: ArtifactStore,
}

impl StagedEngine {
    /// An engine over the given store.
    pub fn new(store: ArtifactStore) -> Self {
        StagedEngine { store }
    }

    /// An engine with a disabled store: every stage is computed fresh.
    /// This is what [`Scenario::run`] uses.
    pub fn ephemeral() -> Self {
        StagedEngine::new(ArtifactStore::disabled())
    }

    /// The underlying artifact store (hit/miss counters live here).
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    // -- fingerprints --------------------------------------------------

    fn push_defect(fp: &mut Fingerprinter, defect: &DefectSpec) {
        match defect {
            DefectSpec::Healthy => fp.push_u64(0),
            DefectSpec::Itd { classes, fraction } => {
                fp.push_u64(1);
                fp.push_usize(classes.len());
                for &c in classes {
                    fp.push_usize(c);
                }
                fp.push_f32(*fraction);
            }
            DefectSpec::Utd {
                source_class,
                target_class,
                fraction,
            } => {
                fp.push_u64(2);
                fp.push_usize(*source_class);
                fp.push_usize(*target_class);
                fp.push_f32(*fraction);
            }
            DefectSpec::Sd { removed_convs } => {
                fp.push_u64(3);
                fp.push_usize(*removed_convs);
            }
        }
    }

    fn push_probe_config(fp: &mut Fingerprinter, cfg: &ProbeTrainingConfig) {
        fp.push_usize(cfg.epochs);
        fp.push_usize(cfg.batch_size);
        fp.push_f32(cfg.learning_rate);
        fp.push_usize(cfg.max_samples);
        fp.push_u64(cfg.seed);
    }

    /// The classifier's identity in the report key: alignment-metric tag
    /// `0` (Jensen–Shannon), population evidence `true`, then the 11
    /// signature weights. The tag and the flag are constants, but they stay
    /// hashed so that report keys, and the artifact stores warmed under
    /// them, stay valid.
    fn push_classifier(fp: &mut Fingerprinter) {
        fp.push_u64(0);
        fp.push_bool(true);
        let w = &WEIGHTS;
        for v in [
            w.itd_starvation,
            w.itd_entropy,
            w.itd_scatter,
            w.itd_novelty,
            w.utd_contamination,
            w.utd_noise_concentration,
            w.utd_confidence,
            w.utd_pair_concentration,
            w.sd_probe_disagreement,
            w.sd_unhealth,
            w.sd_early_flatness,
        ] {
            fp.push_f32(v);
        }
    }

    /// Fingerprint of the training stage: every input that shapes the
    /// trained model and its faulty-case set.
    pub fn trained_fingerprint(scenario: &Scenario) -> Fingerprint {
        let cfg = &scenario.cfg;
        let mut fp = Fingerprinter::new("deepmorph/stage/trained/v1");
        fp.push_str(cfg.family.name());
        fp.push_u64(match cfg.scale {
            deepmorph_models::ModelScale::Tiny => 0,
            deepmorph_models::ModelScale::Small => 1,
            deepmorph_models::ModelScale::Paper => 2,
        });
        fp.push_str(cfg.dataset.name());
        fp.push_u64(cfg.seed);
        fp.push_usize(cfg.train_per_class);
        fp.push_usize(cfg.test_per_class);
        let tc = &cfg.train_config;
        fp.push_usize(tc.epochs);
        fp.push_usize(tc.batch_size);
        fp.push_f32(tc.learning_rate);
        fp.push_f32(tc.lr_decay);
        match tc.optimizer {
            OptimizerKind::Sgd {
                momentum,
                weight_decay,
            } => {
                fp.push_u64(0);
                fp.push_f32(momentum);
                fp.push_f32(weight_decay);
            }
            OptimizerKind::Adam => fp.push_u64(1),
        }
        fp.push_bool(tc.shuffle);
        match tc.clip_grad_norm {
            Some(clip) => {
                fp.push_bool(true);
                fp.push_f32(clip);
            }
            None => fp.push_bool(false),
        }
        Self::push_defect(&mut fp, &cfg.defect);
        fp.push_usize(cfg.deepmorph.max_faulty_cases);
        fp.finish()
    }

    /// Fingerprint of the instrumentation stage.
    pub fn instrumented_fingerprint(scenario: &Scenario) -> Fingerprint {
        let mut fp = Fingerprinter::new("deepmorph/stage/instrumented/v1");
        fp.push_fingerprint(&Self::trained_fingerprint(scenario));
        Self::push_probe_config(&mut fp, &scenario.cfg.deepmorph.probe);
        fp.finish()
    }

    /// Fingerprint of the footprint stage.
    pub fn footprint_fingerprint(scenario: &Scenario) -> Fingerprint {
        let mut fp = Fingerprinter::new("deepmorph/stage/footprints/v1");
        fp.push_fingerprint(&Self::instrumented_fingerprint(scenario));
        fp.finish()
    }

    /// Fingerprint of the report stage — the full scenario identity.
    pub fn report_fingerprint(scenario: &Scenario) -> Fingerprint {
        let mut fp = Fingerprinter::new("deepmorph/stage/report/v1");
        fp.push_fingerprint(&Self::footprint_fingerprint(scenario));
        Self::push_classifier(&mut fp);
        fp.finish()
    }

    fn push_plan(fp: &mut Fingerprinter, plan: &RepairPlan) {
        match plan {
            RepairPlan::CollectMoreData { classes } => {
                fp.push_u64(1);
                fp.push_usize(classes.len());
                for &c in classes {
                    fp.push_usize(c);
                }
            }
            RepairPlan::CleanLabels {
                suspect_label,
                executes_as,
            } => {
                fp.push_u64(2);
                fp.push_usize(*suspect_label);
                fp.push_usize(*executes_as);
            }
            RepairPlan::StrengthenStructure => fp.push_u64(3),
        }
    }

    /// Fingerprint of a repair execution: the full scenario identity
    /// (data, training and DeepMorph configuration), the content
    /// fingerprint of the model being repaired, and the plan. The model
    /// fingerprint matters because UTD label cleaning relabels by the
    /// *model's* footprints — two different models repaired under the same
    /// scenario and plan can produce different repaired training sets.
    pub fn repair_fingerprint(
        scenario: &Scenario,
        model_fingerprint: &str,
        plan: &RepairPlan,
    ) -> Fingerprint {
        let mut fp = Fingerprinter::new("deepmorph/stage/repaired/v1");
        fp.push_fingerprint(&Self::report_fingerprint(scenario));
        fp.push_str(model_fingerprint);
        Self::push_plan(&mut fp, plan);
        fp.finish()
    }

    // -- stage execution -----------------------------------------------

    /// Persists an artifact, encoding it only for a store that keeps it:
    /// a disabled store would drop the bytes unread.
    fn persist(&self, key: &Fingerprint, encode: impl FnOnce() -> Vec<u8>) {
        if self.store.is_enabled() {
            self.store.put(key, &encode());
        }
    }

    /// Fetches + decodes an artifact, treating decode failures as misses.
    fn cached<T>(&self, key: &Fingerprint, decode: impl Fn(&[u8]) -> CodecResult<T>) -> Option<T> {
        let bytes = self.store.get(key)?;
        match decode(&bytes) {
            Ok(artifact) => Some(artifact),
            Err(_) => {
                // Corrupt or stale entry: recompute and overwrite.
                self.store.demote_hit();
                None
            }
        }
    }

    /// Stage 1: train (or load) the defective model and its faulty cases.
    ///
    /// # Errors
    ///
    /// Propagates scenario and training errors.
    pub fn trained(&self, scenario: &Scenario) -> Result<TrainedModelArtifact> {
        let key = Self::trained_fingerprint(scenario);
        if let Some(artifact) = self.cached(&key, TrainedModelArtifact::decode) {
            return Ok(artifact);
        }
        let (train, test) = scenario.injected_data()?;
        let removed = match &scenario.cfg.defect {
            DefectSpec::Sd { removed_convs } => *removed_convs,
            _ => 0,
        };
        let (mut model, train_accuracy) = scenario.train_fresh(&train, removed, "")?;
        // One pass over the test set scores the model and finds its
        // faulty cases.
        let preds = predict_all(&mut model.graph, test.images(), 64)?;
        let test_accuracy = accuracy(&preds, test.labels());
        let (faulty, total_faulty) =
            FaultyCases::from_predictions(&preds, &test, scenario.cfg.deepmorph.max_faulty_cases)?;
        let artifact = TrainedModelArtifact {
            model_bytes: encode_model(&mut model),
            train_accuracy,
            test_accuracy,
            faulty,
            total_faulty,
        };
        self.persist(&key, || artifact.encode());
        Ok(artifact)
    }

    /// Stage 2: fit (or load) the auxiliary softmax probes.
    ///
    /// # Errors
    ///
    /// Propagates instrumentation errors.
    pub fn instrumented(
        &self,
        scenario: &Scenario,
        trained: &TrainedModelArtifact,
    ) -> Result<InstrumentedArtifact> {
        let key = Self::instrumented_fingerprint(scenario);
        if let Some(artifact) = self.cached(&key, InstrumentedArtifact::decode) {
            return Ok(artifact);
        }
        let model = trained.instantiate()?;
        let (train, _test) = scenario.injected_data()?;
        let probe = &scenario.cfg.deepmorph.probe;
        let inst = FitSplit::new(&train, probe).instrument(model, probe)?;
        let artifact = InstrumentedArtifact::from_model(&inst);
        self.persist(&key, || artifact.encode());
        Ok(artifact)
    }

    /// Stage 3: extract (or load) fit/holdout/faulty footprints.
    ///
    /// # Errors
    ///
    /// Propagates network errors.
    pub fn footprints(
        &self,
        scenario: &Scenario,
        trained: &TrainedModelArtifact,
        instrumented: &InstrumentedArtifact,
    ) -> Result<FootprintArtifact> {
        let key = Self::footprint_fingerprint(scenario);
        if let Some(artifact) = self.cached(&key, FootprintArtifact::decode) {
            return Ok(artifact);
        }
        let model = trained.instantiate()?;
        let mut inst = instrumented.instantiate(model)?;
        let (train, _test) = scenario.injected_data()?;
        let (fit, holdout) =
            FitSplit::new(&train, &scenario.cfg.deepmorph.probe).footprints(&mut inst)?;
        let faulty = inst.footprints(&trained.faulty.images)?;
        let artifact = FootprintArtifact {
            fit,
            holdout,
            faulty,
        };
        self.persist(&key, || artifact.encode());
        Ok(artifact)
    }

    /// Stage 4: learn patterns, classify (the step
    /// `DiagnosisSession::diagnose` also runs), and assemble (or load) the
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates pattern-learning errors.
    pub fn report(
        &self,
        scenario: &Scenario,
        trained: &TrainedModelArtifact,
        instrumented: &InstrumentedArtifact,
        footprints: &FootprintArtifact,
    ) -> Result<DefectReport> {
        let key = Self::report_fingerprint(scenario);
        if let Some(report) = self.cached(&key, decode_report) {
            return Ok(report);
        }
        let patterns = self.patterns(scenario, instrumented, footprints)?;
        let report = classify(
            &trained.faulty,
            &footprints.faulty,
            &patterns,
            instrumented.probe_accuracies(),
            &scenario.subject(),
        );
        self.persist(&key, || {
            seal_container(REPORT_MAGIC, report.to_json().as_bytes())
        });
        Ok(report)
    }

    /// Stage 4's first step, not cached: learns the class execution
    /// patterns from the stored footprints, for tools that compare single
    /// footprints against them.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Artifact`] if `footprints` lacks the
    /// holdout split, and propagates data and pattern-learning errors.
    pub fn patterns(
        &self,
        scenario: &Scenario,
        instrumented: &InstrumentedArtifact,
        footprints: &FootprintArtifact,
    ) -> Result<ClassPatterns> {
        let (train, _test) = scenario.injected_data()?;
        FitSplit::new(&train, &scenario.cfg.deepmorph.probe).learn_patterns(
            &footprints.fit,
            footprints.holdout.as_ref(),
            instrumented.probe_accuracies(),
        )
    }

    /// Drives all four stages and assembles the outcome, returning the
    /// intermediate artifacts the repair path also needs.
    fn run_stages(
        &self,
        scenario: &Scenario,
    ) -> Result<(ScenarioOutcome, TrainedModelArtifact, InstrumentedArtifact)> {
        let trained = self.trained(scenario)?;
        if trained.faulty.is_empty() {
            return Err(DeepMorphError::NoFaultyCases);
        }
        let instrumented = self.instrumented(scenario, &trained)?;
        let footprints = self.footprints(scenario, &trained, &instrumented)?;
        let report = self.report(scenario, &trained, &instrumented, &footprints)?;
        let outcome = ScenarioOutcome {
            report,
            test_accuracy: trained.test_accuracy,
            train_accuracy: trained.train_accuracy,
            faulty_count: trained.total_faulty,
            defect: scenario.cfg.defect.clone(),
            subject: scenario.subject(),
        };
        Ok((outcome, trained, instrumented))
    }

    /// Runs all four stages and assembles the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::NoFaultyCases`] if the trained model is
    /// perfect on the test set, and propagates stage errors.
    pub fn run(&self, scenario: &Scenario) -> Result<ScenarioOutcome> {
        Ok(self.run_stages(scenario)?.0)
    }

    /// Executes a repair plan against a concrete model: applies the plan
    /// to the scenario's (injected) training set, retrains from scratch,
    /// and evaluates the result on the clean test set. Cached in the
    /// store under [`StagedEngine::repair_fingerprint`], so re-repairing
    /// an unchanged model with an unchanged plan loads instead of
    /// retraining. `instrumented` must wrap the model identified by
    /// `model_fingerprint`; only UTD label cleaning consults it (relabels
    /// samples whose last-probe class executes as the clean pair's class).
    ///
    /// # Errors
    ///
    /// Propagates data, training, and network errors.
    pub fn repaired(
        &self,
        scenario: &Scenario,
        model_fingerprint: &str,
        plan: &RepairPlan,
        instrumented: &mut InstrumentedModel,
    ) -> Result<RepairedModelArtifact> {
        let key = Self::repair_fingerprint(scenario, model_fingerprint, plan);
        if let Some(artifact) = self.cached(&key, RepairedModelArtifact::decode) {
            return Ok(artifact);
        }
        let (train, test) = scenario.injected_data()?;
        let repaired_train: Dataset = match plan {
            RepairPlan::CollectMoreData { classes } => {
                // Simulate collecting more data: draw fresh samples of the
                // starved classes from the generator.
                let mut rng =
                    deepmorph_tensor::init::stream_rng(scenario.cfg.seed, "scenario-repair-data");
                let extra =
                    scenario.generate_for_classes(classes, scenario.cfg.train_per_class, &mut rng);
                train.concat(&extra)?
            }
            RepairPlan::CleanLabels {
                suspect_label,
                executes_as,
            } => {
                // Relabel training samples that carry the suspect label but
                // execute as the other class of the pair.
                let fps = instrumented.footprints(train.images())?;
                let mut cleaned = train.clone();
                for (i, fp) in fps.iter().enumerate() {
                    if cleaned.labels()[i] == *suspect_label {
                        let probe_class = deepmorph_tensor::stats::argmax(fp.last());
                        if probe_class == *executes_as {
                            cleaned.set_label(i, *executes_as);
                        }
                    }
                }
                cleaned
            }
            RepairPlan::StrengthenStructure => train.clone(),
        };

        let (mut repaired_model, _) = scenario.train_fresh(&repaired_train, 0, "-repair")?;
        let accuracy_after =
            evaluate_accuracy(&mut repaired_model.graph, test.images(), test.labels(), 64)?;
        let artifact = RepairedModelArtifact {
            model_bytes: encode_model(&mut repaired_model),
            accuracy_after,
            repaired_train_size: repaired_train.len(),
        };
        self.persist(&key, || artifact.encode());
        Ok(artifact)
    }

    /// Runs the staged pipeline, then applies DeepMorph's recommended
    /// repair and retrains, measuring the improvement.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StagedEngine::run`], plus
    /// [`DeepMorphError::InvalidScenario`] when no repair can be derived
    /// from the report.
    pub fn run_with_repair(&self, scenario: &Scenario) -> Result<(ScenarioOutcome, RepairOutcome)> {
        let (outcome, trained, instrumented) = self.run_stages(scenario)?;

        let plan = recommend(&outcome.report).ok_or_else(|| DeepMorphError::InvalidScenario {
            reason: "no repair plan can be derived from the report".into(),
        })?;
        let mut inst = instrumented.instantiate(trained.instantiate()?)?;
        let repaired = self.repaired(
            scenario,
            &content_fingerprint(&trained.model_bytes),
            &plan,
            &mut inst,
        )?;
        let repair = RepairOutcome {
            plan,
            accuracy_before: outcome.test_accuracy,
            accuracy_after: repaired.accuracy_after,
            repaired_train_size: repaired.repaired_train_size,
        };
        Ok((outcome, repair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_data::DatasetKind;
    use deepmorph_models::ModelFamily;

    fn tiny_scenario() -> Scenario {
        Scenario::builder(ModelFamily::LeNet, DatasetKind::Digits)
            .seed(42)
            .train_per_class(12)
            .test_per_class(4)
            .train_config(deepmorph_nn::prelude::TrainConfig {
                epochs: 1,
                batch_size: 16,
                ..Default::default()
            })
            .inject(DefectSpec::insufficient_training_data(vec![0, 1, 2], 0.98))
            .build()
            .unwrap()
    }

    #[test]
    fn trained_test_accuracy_equals_a_separate_evaluation() {
        let s = tiny_scenario();
        let trained = StagedEngine::ephemeral().trained(&s).unwrap();
        let (_, test) = s.injected_data().unwrap();
        let mut model = trained.instantiate().unwrap();
        let evaluated =
            evaluate_accuracy(&mut model.graph, test.images(), test.labels(), 64).unwrap();
        assert_eq!(trained.test_accuracy.to_bits(), evaluated.to_bits());
        assert!(
            trained.total_faulty > 0,
            "the tiny ITD model makes mistakes"
        );
    }

    #[test]
    fn stage_fingerprints_chain() {
        let s = tiny_scenario();
        // Stage fingerprints must all differ (domain separation).
        let fps = [
            StagedEngine::trained_fingerprint(&s),
            StagedEngine::instrumented_fingerprint(&s),
            StagedEngine::footprint_fingerprint(&s),
            StagedEngine::report_fingerprint(&s),
        ];
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j]);
            }
        }
        // The report key hashes the classifier's identity; a change to
        // those bytes would silently invalidate every warm artifact store.
        assert_eq!(fps[3].as_hex(), "afdbb7ffd0ee3803d6ceaef37cd3bb60");
    }

    #[test]
    fn repaired_stage_caches_by_model_and_plan() {
        let s = tiny_scenario();
        let engine = StagedEngine::new(ArtifactStore::in_memory());
        let trained = engine.trained(&s).unwrap();
        let instrumented = engine.instrumented(&s, &trained).unwrap();
        let model_fp = content_fingerprint(&trained.model_bytes);
        let plan = RepairPlan::CollectMoreData {
            classes: vec![0, 1],
        };

        let mut inst = instrumented
            .instantiate(trained.instantiate().unwrap())
            .unwrap();
        let before = engine.store().stats();
        let first = engine.repaired(&s, &model_fp, &plan, &mut inst).unwrap();
        let mid = engine.store().stats();
        assert_eq!(mid.since(&before).writes, 1);

        // The second identical repair loads instead of retraining, and the
        // cached artifact is bitwise identical to the computed one.
        let second = engine.repaired(&s, &model_fp, &plan, &mut inst).unwrap();
        let after = engine.store().stats();
        assert_eq!(after.since(&mid).hits, 1);
        assert_eq!(after.since(&mid).writes, 0);
        assert_eq!(second.model_bytes, first.model_bytes);
        assert_eq!(
            second.accuracy_after.to_bits(),
            first.accuracy_after.to_bits()
        );
        assert_eq!(second.repaired_train_size, first.repaired_train_size);

        // A different plan or a different model never aliases the cache.
        let key = StagedEngine::repair_fingerprint(&s, &model_fp, &plan);
        assert_ne!(
            key,
            StagedEngine::repair_fingerprint(&s, &model_fp, &RepairPlan::StrengthenStructure)
        );
        assert_ne!(
            key,
            StagedEngine::repair_fingerprint(&s, "another-model-fp", &plan)
        );

        // The artifact codec round-trips and rejects corruption.
        let bytes = first.encode();
        let back = RepairedModelArtifact::decode(&bytes).unwrap();
        assert_eq!(back.model_bytes, first.model_bytes);
        assert!(RepairedModelArtifact::decode(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn trained_artifact_round_trips() {
        let s = tiny_scenario();
        let engine = StagedEngine::ephemeral();
        let artifact = engine.trained(&s).unwrap();
        let bytes = artifact.encode();
        let back = TrainedModelArtifact::decode(&bytes).unwrap();
        assert_eq!(back.train_accuracy, artifact.train_accuracy);
        assert_eq!(back.test_accuracy, artifact.test_accuracy);
        assert_eq!(back.total_faulty, artifact.total_faulty);
        assert_eq!(back.faulty, artifact.faulty);
        // The reinstantiated model must predict identically.
        let mut a = artifact.instantiate().unwrap();
        let mut b = back.instantiate().unwrap();
        let (_, test) = s.injected_data().unwrap();
        let pa = deepmorph_nn::train::predict_all(&mut a.graph, test.images(), 64).unwrap();
        let pb = deepmorph_nn::train::predict_all(&mut b.graph, test.images(), 64).unwrap();
        assert_eq!(pa, pb);
    }

    /// A footprint of no probes or no classes takes no bytes, so the size
    /// check alone cannot bound the count a corrupt artifact claims.
    #[test]
    fn footprint_count_needs_probes_and_classes() {
        let set = |w: &mut ByteWriter, classes: u64, labels: &[&str], count: u64| {
            w.put_u64(classes);
            w.put_u64(labels.len() as u64);
            for label in labels {
                w.put_str(label);
            }
            w.put_u64(count);
        };
        for count in [1 << 20, (1 << 63) - 1] {
            for (classes, labels) in [(10, &[][..]), (0, &["conv1"][..])] {
                let mut w = ByteWriter::new();
                set(&mut w, classes, labels, count);
                w.put_u8(0); // no holdout
                set(&mut w, classes, labels, 0);
                let bytes = seal_container(FOOTPRINT_MAGIC, w.as_slice());
                let err = FootprintArtifact::decode(&bytes).unwrap_err();
                assert!(
                    matches!(err, CodecError::Invalid { .. }),
                    "{count} footprints, {classes} classes, {labels:?}: {err:?}"
                );
            }
        }
    }

    /// An encoded artifact with its magic, and whether its decoder
    /// accepts a given container.
    type Encoded = ([u8; 4], Vec<u8>, fn(&[u8]) -> bool);

    /// One encoded artifact of every stage, built once for the property
    /// below.
    fn encoded_artifacts() -> &'static [Encoded] {
        static ARTIFACTS: std::sync::OnceLock<Vec<Encoded>> = std::sync::OnceLock::new();
        ARTIFACTS.get_or_init(|| {
            let s = tiny_scenario();
            let engine = StagedEngine::ephemeral();
            let trained = engine.trained(&s).unwrap();
            let instrumented = engine.instrumented(&s, &trained).unwrap();
            let footprints = engine.footprints(&s, &trained, &instrumented).unwrap();
            let report = engine
                .report(&s, &trained, &instrumented, &footprints)
                .unwrap();
            let repaired = RepairedModelArtifact {
                model_bytes: trained.model_bytes.clone(),
                accuracy_after: 0.5,
                repaired_train_size: 120,
            };
            vec![
                (TRAINED_MAGIC, trained.encode(), |b| {
                    TrainedModelArtifact::decode(b).is_ok()
                }),
                (INSTRUMENTED_MAGIC, instrumented.encode(), |b| {
                    InstrumentedArtifact::decode(b).is_ok()
                }),
                (FOOTPRINT_MAGIC, footprints.encode(), |b| {
                    FootprintArtifact::decode(b).is_ok()
                }),
                (
                    REPORT_MAGIC,
                    seal_container(REPORT_MAGIC, report.to_json().as_bytes()),
                    |b| decode_report(b).is_ok(),
                ),
                (REPAIRED_MAGIC, repaired.encode(), |b| {
                    RepairedModelArtifact::decode(b).is_ok()
                }),
            ]
        })
    }

    proptest::proptest! {
        /// Artifacts are read back from disk: a valid artifact of every
        /// stage, with up to 16 payload bytes overwritten at arbitrary
        /// offsets and optionally cut short, is resealed so the checksum
        /// passes; its decoder then returns a value or a typed error.
        #[test]
        fn corrupted_artifacts_never_panic_the_decoders(
            pick in 0usize..5,
            edits in proptest::collection::vec((0usize..1 << 24, 0u8..=255), 0..17),
            cut in proptest::collection::vec(0usize..1 << 24, 0..2),
        ) {
            let (magic, bytes, decode) = &encoded_artifacts()[pick];
            let mut payload = open_container(*magic, bytes).unwrap().to_vec();
            for (offset, byte) in edits {
                let at = offset % payload.len();
                payload[at] = byte;
            }
            if let Some(len) = cut.first() {
                payload.truncate(len % payload.len());
            }
            decode(&seal_container(*magic, &payload));
        }
    }

    #[test]
    fn corrupt_artifacts_decode_to_typed_errors() {
        let s = tiny_scenario();
        let engine = StagedEngine::ephemeral();
        let artifact = engine.trained(&s).unwrap();
        let mut bytes = artifact.encode();
        assert!(TrainedModelArtifact::decode(&bytes[..10]).is_err());
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            TrainedModelArtifact::decode(&bytes).unwrap_err(),
            CodecError::ChecksumMismatch { .. }
        ));
    }
}
