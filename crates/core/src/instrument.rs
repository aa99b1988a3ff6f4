//! The softmax-instrumented model.
//!
//! DeepMorph's first step (paper Fig. 1) augments the target model with one
//! *auxiliary softmax layer* per hidden stage. The backbone stays frozen;
//! each probe is a softmax regression trained on the stage's activations
//! (spatial feature maps are summarized by global average pooling first).
//! Probes are trained on the *training set*, so their outputs express each
//! layer's features in the vocabulary of target classes — which is what
//! makes footprints comparable across layers.

use deepmorph_nn::layer::Mode;
use deepmorph_nn::prelude::NodeId;
use deepmorph_tensor::backend::ComputeCtx;
use deepmorph_tensor::conv::global_avg_pool;
use deepmorph_tensor::init::{stream_rng, Init};
use deepmorph_tensor::{workspace, Tensor};
use rand::seq::SliceRandom;

use deepmorph_models::{ModelHandle, ProbePoint};

use crate::footprint::{Footprint, FootprintSet};
use crate::{DeepMorphError, Result};

/// Hyper-parameters for auxiliary-probe training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeTrainingConfig {
    /// Gradient-descent epochs per probe.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Cap on the number of training samples used for probe fitting (the
    /// full training set is subsampled beyond this, keeping class balance
    /// approximately via shuffling).
    pub max_samples: usize,
    /// Base seed for probe weight init and subsampling.
    pub seed: u64,
}

impl Default for ProbeTrainingConfig {
    fn default() -> Self {
        ProbeTrainingConfig {
            epochs: 40,
            batch_size: 128,
            learning_rate: 0.3,
            max_samples: 1500,
            seed: 0xD33F,
        }
    }
}

/// Batch size used for probe-feature extraction and footprint batching.
/// Fixed (not configurable) so cached artifacts and fresh runs always
/// batch identically.
pub(crate) const PROBE_BATCH: usize = 64;

/// One trained auxiliary softmax layer.
#[derive(Debug, Clone)]
pub struct TrainedProbe {
    point: ProbePoint,
    /// `[classes, features]` softmax-regression weights.
    weight: Tensor,
    /// `[classes]` bias.
    bias: Tensor,
    /// Training-set accuracy of this probe (how well this stage's features
    /// already separate the classes).
    pub train_accuracy: f32,
}

impl TrainedProbe {
    /// Reassembles a probe from stored parts (artifact deserialization).
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Instrumentation`] if the tensors disagree
    /// with the probe point's feature count.
    pub fn from_parts(
        point: ProbePoint,
        weight: Tensor,
        bias: Tensor,
        train_accuracy: f32,
    ) -> Result<Self> {
        if weight.ndim() != 2 || weight.shape()[1] != point.features {
            return Err(DeepMorphError::Instrumentation {
                reason: format!(
                    "probe `{}` weight shape {:?} disagrees with {} features",
                    point.label,
                    weight.shape(),
                    point.features
                ),
            });
        }
        if bias.shape() != [weight.shape()[0]] {
            return Err(DeepMorphError::Instrumentation {
                reason: format!(
                    "probe `{}` bias shape {:?} disagrees with weight {:?}",
                    point.label,
                    bias.shape(),
                    weight.shape()
                ),
            });
        }
        Ok(TrainedProbe {
            point,
            weight,
            bias,
            train_accuracy,
        })
    }

    /// The probe's attachment point metadata.
    pub fn point(&self) -> &ProbePoint {
        &self.point
    }

    /// The `[classes, features]` softmax-regression weights.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The `[classes]` bias.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Class-probability rows for a feature matrix `[n, features]`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `features` disagrees with the probe.
    pub fn predict_probs(&self, features: &Tensor) -> Result<Tensor> {
        let mut logits = ComputeCtx::default().matmul_nt(features, &self.weight)?;
        logits.add_row_broadcast(&self.bias)?;
        Ok(logits.softmax_rows()?)
    }
}

/// A frozen backbone plus its trained probes — the paper's
/// *softmax-instrumented model*.
#[derive(Debug)]
pub struct InstrumentedModel {
    model: ModelHandle,
    probes: Vec<TrainedProbe>,
    num_classes: usize,
    batch_size: usize,
}

impl InstrumentedModel {
    /// Builds the instrumented model: extracts stage activations for the
    /// training set and fits one softmax probe per stage.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Instrumentation`] if the model exposes no
    /// probe points, and propagates network errors.
    pub fn build(
        mut model: ModelHandle,
        train_images: &Tensor,
        train_labels: &[usize],
        num_classes: usize,
        config: &ProbeTrainingConfig,
    ) -> Result<Self> {
        if model.probes.is_empty() {
            return Err(DeepMorphError::Instrumentation {
                reason: "model exposes no probe points".into(),
            });
        }
        let n = train_images.shape()[0];
        if n == 0 || train_labels.len() != n {
            return Err(DeepMorphError::Instrumentation {
                reason: format!(
                    "probe training needs labeled samples ({n} images, {} labels)",
                    train_labels.len()
                ),
            });
        }
        let mut rng = stream_rng(config.seed, "probe-subsample");
        // Subsample (shuffled, so approximately stratified for balanced
        // inputs) to bound probe-fitting cost.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        order.truncate(config.max_samples.max(1));
        let sub_images = deepmorph_nn::train::gather_batch(train_images, &order)?;
        let sub_labels: Vec<usize> = order.iter().map(|&i| train_labels[i]).collect();

        let batch_size = PROBE_BATCH;
        let feature_mats = extract_probe_features(&mut model, &sub_images, batch_size)?;

        let probes = fit_probes(
            model.probes.clone(),
            &feature_mats,
            &sub_labels,
            num_classes,
            config,
        )?;
        Ok(InstrumentedModel {
            model,
            probes,
            num_classes,
            batch_size,
        })
    }

    /// Reassembles an instrumented model from a backbone and its stored
    /// probes (artifact deserialization). The probes must match the
    /// model's probe points one-to-one, in order.
    ///
    /// # Errors
    ///
    /// Returns [`DeepMorphError::Instrumentation`] on any probe/point
    /// disagreement.
    pub fn from_parts(
        model: ModelHandle,
        probes: Vec<TrainedProbe>,
        num_classes: usize,
    ) -> Result<Self> {
        if probes.len() != model.probes.len() {
            return Err(DeepMorphError::Instrumentation {
                reason: format!(
                    "{} stored probes for a model with {} probe points",
                    probes.len(),
                    model.probes.len()
                ),
            });
        }
        for (probe, point) in probes.iter().zip(&model.probes) {
            if probe.point != *point {
                return Err(DeepMorphError::Instrumentation {
                    reason: format!(
                        "stored probe `{}` disagrees with model probe point `{}`",
                        probe.point.label, point.label
                    ),
                });
            }
        }
        Ok(InstrumentedModel {
            model,
            probes,
            num_classes,
            batch_size: PROBE_BATCH,
        })
    }

    /// The trained probes, input → output order.
    pub fn probes(&self) -> &[TrainedProbe] {
        &self.probes
    }

    /// Number of target classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Extracts the data-flow footprints of `images`.
    ///
    /// # Errors
    ///
    /// Propagates network errors.
    pub fn footprints(&mut self, images: &Tensor) -> Result<FootprintSet> {
        let n = images.shape()[0];
        let depth = self.probes.len();
        let mut per_case: Vec<Vec<Vec<f32>>> = vec![Vec::with_capacity(depth); n];

        let feature_mats = extract_probe_features(&mut self.model, images, self.batch_size)?;
        for (probe, feats) in self.probes.iter().zip(&feature_mats) {
            let probs = probe.predict_probs(feats)?;
            for (i, case) in per_case.iter_mut().enumerate() {
                case.push(probs.row(i)?.to_vec());
            }
            workspace::recycle_tensor(probs);
        }
        let footprints = per_case.into_iter().map(Footprint::new).collect();
        let labels = self.probes.iter().map(|p| p.point.label.clone()).collect();
        Ok(FootprintSet::new(footprints, labels, self.num_classes))
    }

    /// Per-probe training accuracies — the layer-wise "how far have the
    /// features come" curve, also used as the model-health signal by the
    /// defect classifier.
    pub fn probe_accuracies(&self) -> Vec<f32> {
        self.probes.iter().map(|p| p.train_accuracy).collect()
    }
}

/// Runs the backbone over `images` in batches and returns, per probe
/// point, the probe-input feature matrix `[n, features]` (GAP for spatial
/// stages, identity for flat ones).
fn extract_probe_features(
    model: &mut ModelHandle,
    images: &Tensor,
    batch_size: usize,
) -> Result<Vec<Tensor>> {
    let probe_nodes: Vec<NodeId> = model.probes.iter().map(|p| p.node).collect();
    let n = images.shape()[0];
    let mut parts: Vec<Vec<Tensor>> = vec![Vec::new(); probe_nodes.len()];
    let mut idx: Vec<usize> = Vec::with_capacity(batch_size);
    let mut start = 0;
    while start < n {
        let end = (start + batch_size).min(n);
        idx.clear();
        idx.extend(start..end);
        let batch = deepmorph_nn::train::gather_batch(images, &idx)?;
        let (out, collected) = model
            .graph
            .forward_collect(&batch, Mode::Eval, &probe_nodes)?;
        workspace::recycle_tensor(batch);
        workspace::recycle_tensor(out);
        for (slot, activation) in parts.iter_mut().zip(collected) {
            let feats = if activation.ndim() == 4 {
                let pooled = global_avg_pool(&activation)?;
                workspace::recycle_tensor(activation);
                pooled
            } else {
                activation
            };
            slot.push(feats);
        }
        start = end;
    }
    parts
        .into_iter()
        .map(|chunks| {
            let refs: Vec<&Tensor> = chunks.iter().collect();
            Tensor::concat_rows(&refs).map_err(Into::into)
        })
        .collect()
}

/// Fits every probe. Each probe derives its own RNG stream from its label
/// and trains on its own feature matrix, so probes are fully independent:
/// with the `parallel` feature they train on worker threads (one result
/// slot per probe, order preserved — output is identical to the serial
/// loop).
fn fit_probes(
    points: Vec<ProbePoint>,
    feature_mats: &[Tensor],
    labels: &[usize],
    num_classes: usize,
    config: &ProbeTrainingConfig,
) -> Result<Vec<TrainedProbe>> {
    #[cfg(feature = "parallel")]
    if points.len() > 1 && deepmorph_parallel::max_threads() > 1 {
        return deepmorph_parallel::par_map(points.len(), |i| {
            fit_probe(
                points[i].clone(),
                &feature_mats[i],
                labels,
                num_classes,
                config,
            )
        })
        .into_iter()
        .collect();
    }
    points
        .into_iter()
        .zip(feature_mats)
        .map(|(point, feats)| fit_probe(point, feats, labels, num_classes, config))
        .collect()
}

/// Fits one softmax regression probe on a fixed feature matrix.
fn fit_probe(
    point: ProbePoint,
    features: &Tensor,
    labels: &[usize],
    num_classes: usize,
    config: &ProbeTrainingConfig,
) -> Result<TrainedProbe> {
    let (n, f) = (features.shape()[0], features.shape()[1]);
    let mut rng = stream_rng(config.seed, &format!("probe-{}", point.label));
    let mut weight = Init::XavierUniform.materialize(&[num_classes, f], f, num_classes, &mut rng);
    let mut bias = Tensor::zeros(&[num_classes]);
    // Standardize features per dimension for conditioning; fold the
    // statistics into the stored weights afterwards so prediction needs no
    // extra state.
    let (mean, inv_std) = feature_stats(features);
    let x = standardized(features, &mean, &inv_std)?;

    let mut order: Vec<usize> = (0..n).collect();
    let loss = deepmorph_nn::loss::SoftmaxCrossEntropy::new();
    // Per-batch label scratch; all tensor scratch cycles through the
    // thread's workspace arena, so after the first epoch warms it the
    // probe-training loop performs no heap allocations.
    let mut by: Vec<usize> = Vec::with_capacity(config.batch_size.max(1));
    let ctx = ComputeCtx::default();
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        for chunk in order.chunks(config.batch_size.max(1)) {
            let bx = deepmorph_nn::train::gather_batch(&x, chunk)?;
            by.clear();
            by.extend(chunk.iter().map(|&i| labels[i]));
            let mut logits = ctx.matmul_nt(&bx, &weight)?;
            logits.add_row_broadcast(&bias)?;
            let (_, grad) = loss.compute(&logits, &by)?;
            workspace::recycle_tensor(logits);
            // dW = grad^T X, db = column sums.
            let dw = ctx.matmul_tn(&grad, &bx)?;
            workspace::recycle_tensor(bx);
            weight.axpy(-config.learning_rate, &dw)?;
            workspace::recycle_tensor(dw);
            let db = grad.sum_axis0()?;
            bias.axpy(-config.learning_rate, &db)?;
            workspace::recycle_tensor(db);
            workspace::recycle_tensor(grad);
        }
    }

    // Fold standardization into (weight, bias):
    //   w'_cj = w_cj * inv_std_j ;  b'_c = b_c - Σ_j w_cj * inv_std_j * mean_j
    let mut folded_w = weight.clone();
    let mut folded_b = bias.clone();
    for c in 0..num_classes {
        let row = folded_w.row_mut(c)?;
        let mut shift = 0.0;
        for j in 0..f {
            row[j] *= inv_std[j];
            shift += row[j] * mean[j];
        }
        folded_b.data_mut()[c] -= shift;
    }

    workspace::recycle_tensor(x);
    let probe = TrainedProbe {
        point,
        weight: folded_w,
        bias: folded_b,
        train_accuracy: 0.0,
    };
    let probs = probe.predict_probs(features)?;
    let preds = probs.argmax_rows()?;
    workspace::recycle_tensor(probs);
    let acc = deepmorph_nn::metrics::accuracy(&preds, labels);
    Ok(TrainedProbe {
        train_accuracy: acc,
        ..probe
    })
}

fn feature_stats(features: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (n, f) = (features.shape()[0], features.shape()[1]);
    let mut mean = vec![0.0f32; f];
    for i in 0..n {
        let row = &features.data()[i * f..(i + 1) * f];
        for (m, &v) in mean.iter_mut().zip(row) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n.max(1) as f32;
    }
    let mut var = vec![0.0f32; f];
    for i in 0..n {
        for j in 0..f {
            let d = features.data()[i * f + j] - mean[j];
            var[j] += d * d;
        }
    }
    let inv_std: Vec<f32> = var
        .into_iter()
        .map(|v| 1.0 / (v / n.max(1) as f32).sqrt().max(1e-4))
        .collect();
    (mean, inv_std)
}

fn standardized(features: &Tensor, mean: &[f32], inv_std: &[f32]) -> Result<Tensor> {
    let (n, f) = (features.shape()[0], features.shape()[1]);
    let mut out = features.pooled_clone();
    for i in 0..n {
        let row = out.row_mut(i)?;
        for j in 0..f {
            row[j] = (row[j] - mean[j]) * inv_std[j];
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_models::{build_model, ModelFamily, ModelScale, ModelSpec};
    use deepmorph_tensor::init::{gaussian, stream_rng};
    use rand::Rng;

    fn synthetic_features(
        n_per_class: usize,
        classes: usize,
        rng: &mut impl Rng,
    ) -> (Tensor, Vec<usize>) {
        // Linearly separable blobs in `classes` dimensions.
        let f = classes + 2;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..classes {
            for _ in 0..n_per_class {
                for j in 0..f {
                    let center = if j == c { 2.0 } else { 0.0 };
                    data.push(center + gaussian(rng) * 0.4);
                }
                labels.push(c);
            }
        }
        (
            Tensor::from_vec(data, &[n_per_class * classes, f]).unwrap(),
            labels,
        )
    }

    #[test]
    fn fit_probe_learns_separable_features() {
        let mut rng = stream_rng(1, "probe-test");
        let (x, y) = synthetic_features(30, 4, &mut rng);
        let point = ProbePoint {
            node: NodeId::SOURCE,
            label: "test".into(),
            features: x.shape()[1],
            spatial: false,
        };
        let probe = fit_probe(point, &x, &y, 4, &ProbeTrainingConfig::default()).unwrap();
        assert!(
            probe.train_accuracy > 0.95,
            "probe accuracy {}",
            probe.train_accuracy
        );
        // Probabilities are well-formed.
        let probs = probe.predict_probs(&x).unwrap();
        let s: f32 = probs.row(0).unwrap().iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn instrumented_model_builds_and_extracts_footprints() {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
        let mut rng = stream_rng(2, "probe-test");
        let model = build_model(&spec, &mut rng).unwrap();
        // Random images + random labels: probes won't be accurate, but the
        // machinery must produce well-formed footprints.
        let n = 40;
        let images = Tensor::from_vec(
            (0..n * 256)
                .map(|i| ((i * 31) % 97) as f32 / 97.0)
                .collect(),
            &[n, 1, 16, 16],
        )
        .unwrap();
        let labels: Vec<usize> = (0..n).map(|i| i % 10).collect();
        let config = ProbeTrainingConfig {
            epochs: 3,
            ..ProbeTrainingConfig::default()
        };
        let mut inst = InstrumentedModel::build(model, &images, &labels, 10, &config).unwrap();
        assert_eq!(inst.probes().len(), 4); // LeNet probes
        let fps = inst.footprints(&images).unwrap();
        assert_eq!(fps.len(), n);
        assert_eq!(fps.depth(), 4);
        for fp in fps.iter() {
            for l in 0..fp.depth() {
                let s: f32 = fp.layer(l).iter().sum();
                assert!((s - 1.0).abs() < 1e-3);
            }
        }
        let accs = inst.probe_accuracies();
        assert_eq!(accs.len(), 4);
        assert!(accs.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn build_rejects_empty_labels() {
        let spec = ModelSpec::new(ModelFamily::LeNet, ModelScale::Tiny, [1, 16, 16], 10);
        let mut rng = stream_rng(3, "probe-test");
        let model = build_model(&spec, &mut rng).unwrap();
        let images = Tensor::zeros(&[0, 1, 16, 16]);
        let err =
            InstrumentedModel::build(model, &images, &[], 10, &Default::default()).unwrap_err();
        assert!(matches!(err, DeepMorphError::Instrumentation { .. }));
    }
}
