//! Mini-batch training loop.

use deepmorph_tensor::{workspace, Tensor, MAX_RANK};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::Graph;
use crate::layer::Mode;
use crate::loss::SoftmaxCrossEntropy;
use crate::metrics::accuracy;
use crate::optim::{Adam, Optimizer, Sgd};
use crate::{NnError, Result};

/// Which optimizer the trainer instantiates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// SGD with the given momentum and weight decay.
    Sgd {
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
    /// Adam with standard betas.
    Adam,
}

/// Configuration for [`Trainer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the final batch of an epoch may be smaller).
    pub batch_size: usize,
    /// Initial learning rate.
    pub learning_rate: f32,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Optimizer selection.
    pub optimizer: OptimizerKind,
    /// Shuffle the training set each epoch.
    pub shuffle: bool,
    /// Global gradient-norm clip applied before each optimizer step
    /// (`None` = no clipping). Deep models with label noise can diverge at
    /// constant learning rates; a clip of ~5 keeps them stable.
    pub clip_grad_norm: Option<f32>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            learning_rate: 0.05,
            lr_decay: 1.0,
            optimizer: OptimizerKind::Sgd {
                momentum: 0.9,
                weight_decay: 1e-4,
            },
            shuffle: true,
            clip_grad_norm: Some(5.0),
        }
    }
}

/// Rescales all parameter gradients so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
pub fn clip_gradients(graph: &mut Graph, max_norm: f32) -> f32 {
    let mut norm_sq = 0.0f32;
    graph.visit_params(&mut |p| norm_sq += p.grad.norm_sq());
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        graph.visit_params(&mut |p| p.grad.scale(scale));
    }
    norm
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Training-set accuracy measured after the final epoch.
    pub final_train_accuracy: f32,
}

impl TrainReport {
    /// Loss of the final epoch (NaN if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(f32::NAN)
    }
}

/// Gathers the rows/images of `x` selected by `indices` into a batch
/// tensor drawn from the thread's workspace arena (works for any rank ≥ 1;
/// axis 0 is the sample axis). Recycle the batch after use to keep the
/// training loop allocation-free.
///
/// # Errors
///
/// Returns an error if any index is out of range.
pub fn gather_batch(x: &Tensor, indices: &[usize]) -> Result<Tensor> {
    let n = x.shape()[0];
    let sample_len: usize = x.shape()[1..].iter().product();
    if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
        return Err(NnError::InvalidLabels {
            reason: format!("sample index {bad} out of range for {n}"),
        });
    }
    let mut shape = [0usize; MAX_RANK];
    shape[0] = indices.len();
    shape[1..x.ndim()].copy_from_slice(&x.shape()[1..]);
    let mut out = workspace::tensor_raw(&shape[..x.ndim()]);
    if sample_len > 0 {
        for (dst, &i) in out.data_mut().chunks_mut(sample_len).zip(indices) {
            dst.copy_from_slice(&x.data()[i * sample_len..(i + 1) * sample_len]);
        }
    }
    Ok(out)
}

/// Mini-batch trainer driving a [`Graph`] with softmax cross-entropy.
#[derive(Debug)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer from a configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Trains `graph` on `(x, labels)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidTrainConfig`] for an empty dataset or zero
    /// batch size / epochs mismatch, [`NnError::InvalidLabels`] when labels
    /// disagree with the data, and propagates layer errors.
    pub fn fit(
        &mut self,
        graph: &mut Graph,
        x: &Tensor,
        labels: &[usize],
        rng: &mut impl Rng,
    ) -> Result<TrainReport> {
        let n = x.shape()[0];
        if n == 0 {
            return Err(NnError::InvalidTrainConfig {
                reason: "empty training set".into(),
            });
        }
        if self.config.batch_size == 0 {
            return Err(NnError::InvalidTrainConfig {
                reason: "batch_size must be positive".into(),
            });
        }
        if labels.len() != n {
            return Err(NnError::InvalidLabels {
                reason: format!("{} labels for {n} samples", labels.len()),
            });
        }
        let mut optimizer: Box<dyn Optimizer> = match self.config.optimizer {
            OptimizerKind::Sgd {
                momentum,
                weight_decay,
            } => Box::new(Sgd::with_momentum(
                self.config.learning_rate,
                momentum,
                weight_decay,
            )),
            OptimizerKind::Adam => Box::new(Adam::new(self.config.learning_rate)),
        };
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut order: Vec<usize> = (0..n).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);

        // Per-batch label scratch, reused across the whole run.
        let mut by: Vec<usize> = Vec::with_capacity(self.config.batch_size);
        for _epoch in 0..self.config.epochs {
            if self.config.shuffle {
                order.shuffle(rng);
            }
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(self.config.batch_size) {
                let bx = gather_batch(x, chunk)?;
                by.clear();
                by.extend(chunk.iter().map(|&i| labels[i]));
                let logits = graph.forward(&bx, Mode::Train)?;
                workspace::recycle_tensor(bx);
                let (loss, grad) = loss_fn.compute(&logits, &by)?;
                workspace::recycle_tensor(logits);
                graph.zero_grad();
                graph.backward(&grad)?;
                workspace::recycle_tensor(grad);
                if let Some(max_norm) = self.config.clip_grad_norm {
                    clip_gradients(graph, max_norm);
                }
                optimizer.step(graph)?;
                epoch_loss += loss;
                batches += 1;
            }
            epoch_losses.push(epoch_loss / batches.max(1) as f32);
            let lr = optimizer.learning_rate() * self.config.lr_decay;
            optimizer.set_learning_rate(lr);
        }
        graph.clear_caches();

        let final_train_accuracy =
            evaluate_accuracy(graph, x, labels, self.config.batch_size.max(1))?;
        Ok(TrainReport {
            epoch_losses,
            final_train_accuracy,
        })
    }
}

/// Eval-mode accuracy of `graph` on `(x, labels)`, processed in batches.
///
/// # Errors
///
/// Propagates layer errors; `labels` must match `x`'s sample count.
pub fn evaluate_accuracy(
    graph: &mut Graph,
    x: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f32> {
    let preds = predict_all(graph, x, batch_size)?;
    Ok(accuracy(&preds, labels))
}

/// Eval-mode predictions for every sample, processed in batches to bound
/// memory.
///
/// # Errors
///
/// Propagates layer errors.
pub fn predict_all(graph: &mut Graph, x: &Tensor, batch_size: usize) -> Result<Vec<usize>> {
    let n = x.shape()[0];
    let mut preds = Vec::with_capacity(n);
    let mut indices: Vec<usize> = Vec::with_capacity(batch_size.max(1));
    let mut start = 0;
    while start < n {
        let end = (start + batch_size.max(1)).min(n);
        indices.clear();
        indices.extend(start..end);
        let bx = gather_batch(x, &indices)?;
        preds.extend(graph.predict(&bx)?);
        workspace::recycle_tensor(bx);
        start = end;
    }
    Ok(preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ReLU;
    use crate::dense::Dense;
    use crate::graph::GraphBuilder;
    use deepmorph_tensor::init::stream_rng;

    fn two_blob_data(n_per_class: usize, rng: &mut impl Rng) -> (Tensor, Vec<usize>) {
        // Two Gaussian blobs in 2D.
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2 {
            let cx = if class == 0 { -1.0 } else { 1.0 };
            for _ in 0..n_per_class {
                data.push(cx + deepmorph_tensor::init::gaussian(rng) * 0.3);
                data.push(cx + deepmorph_tensor::init::gaussian(rng) * 0.3);
                labels.push(class);
            }
        }
        (
            Tensor::from_vec(data, &[n_per_class * 2, 2]).unwrap(),
            labels,
        )
    }

    fn mlp(seed: u64) -> Graph {
        let mut rng = stream_rng(seed, "train");
        let mut gb = GraphBuilder::new();
        let x = gb.input();
        let h = gb.add_layer(Dense::new(2, 16, &mut rng), &[x]).unwrap();
        let r = gb.add_layer(ReLU::new(), &[h]).unwrap();
        let o = gb.add_layer(Dense::new(16, 2, &mut rng), &[r]).unwrap();
        gb.build(o).unwrap()
    }

    #[test]
    fn training_learns_separable_blobs() {
        let mut rng = stream_rng(7, "data");
        let (x, y) = two_blob_data(50, &mut rng);
        let mut graph = mlp(1);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 20,
            batch_size: 16,
            learning_rate: 0.1,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut graph, &x, &y, &mut rng).unwrap();
        assert!(report.final_train_accuracy > 0.95, "{report:?}");
        // Losses should trend down.
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn adam_also_learns() {
        let mut rng = stream_rng(8, "data");
        let (x, y) = two_blob_data(40, &mut rng);
        let mut graph = mlp(2);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 15,
            batch_size: 16,
            learning_rate: 0.01,
            optimizer: OptimizerKind::Adam,
            ..TrainConfig::default()
        });
        let report = trainer.fit(&mut graph, &x, &y, &mut rng).unwrap();
        assert!(report.final_train_accuracy > 0.9, "{report:?}");
    }

    #[test]
    fn rejects_empty_dataset() {
        let mut rng = stream_rng(9, "data");
        let mut graph = mlp(3);
        let x = Tensor::zeros(&[0, 2]);
        let mut trainer = Trainer::new(TrainConfig::default());
        assert!(matches!(
            trainer.fit(&mut graph, &x, &[], &mut rng).unwrap_err(),
            NnError::InvalidTrainConfig { .. }
        ));
    }

    #[test]
    fn rejects_label_mismatch() {
        let mut rng = stream_rng(10, "data");
        let mut graph = mlp(4);
        let x = Tensor::zeros(&[4, 2]);
        let mut trainer = Trainer::new(TrainConfig::default());
        assert!(matches!(
            trainer.fit(&mut graph, &x, &[0, 1], &mut rng).unwrap_err(),
            NnError::InvalidLabels { .. }
        ));
    }

    #[test]
    fn gather_batch_selects_rows() {
        let x = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[3, 4]).unwrap();
        let b = gather_batch(&x, &[2, 0]).unwrap();
        assert_eq!(b.shape(), &[2, 4]);
        assert_eq!(b.row(0).unwrap(), &[8.0, 9.0, 10.0, 11.0]);
        assert_eq!(b.row(1).unwrap(), &[0.0, 1.0, 2.0, 3.0]);
        assert!(gather_batch(&x, &[5]).is_err());
    }

    #[test]
    fn gather_batch_works_for_4d() {
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let b = gather_batch(&x, &[1]).unwrap();
        assert_eq!(b.shape(), &[1, 3, 2, 2]);
        assert_eq!(b.data()[0], 12.0);
    }

    #[test]
    fn clip_gradients_bounds_global_norm() {
        let mut graph = mlp(6);
        let x = Tensor::ones(&[4, 2]);
        let logits = graph.forward(&x, Mode::Train).unwrap();
        let (_, grad) = crate::loss::SoftmaxCrossEntropy::new()
            .compute(&logits, &[0, 1, 0, 1])
            .unwrap();
        graph.zero_grad();
        graph.backward(&grad.scaled(100.0)).unwrap();
        let before = clip_gradients(&mut graph, 1.0);
        assert!(before > 1.0, "pre-clip norm {before}");
        let mut after_sq = 0.0;
        graph.visit_params(&mut |p| after_sq += p.grad.norm_sq());
        assert!((after_sq.sqrt() - 1.0).abs() < 1e-3, "post-clip {after_sq}");
    }

    #[test]
    fn clip_is_identity_below_threshold() {
        let mut graph = mlp(7);
        let x = Tensor::ones(&[2, 2]);
        let logits = graph.forward(&x, Mode::Train).unwrap();
        let (_, grad) = crate::loss::SoftmaxCrossEntropy::new()
            .compute(&logits, &[0, 1])
            .unwrap();
        graph.zero_grad();
        graph.backward(&grad).unwrap();
        let mut before = Vec::new();
        graph.visit_params(&mut |p| before.push(p.grad.clone()));
        clip_gradients(&mut graph, 1e9);
        let mut i = 0;
        graph.visit_params(&mut |p| {
            assert_eq!(p.grad, before[i]);
            i += 1;
        });
    }

    #[test]
    fn predict_all_covers_ragged_batches() {
        let mut graph = mlp(5);
        let x = Tensor::zeros(&[7, 2]);
        let preds = predict_all(&mut graph, &x, 3).unwrap();
        assert_eq!(preds.len(), 7);
    }
}
