//! Batch normalization.

use deepmorph_tensor::chunks::{
    for_chunks2_mut, for_chunks_mut, grain_by_work, PAR_GRAIN_MAP_ELEMS,
};
use deepmorph_tensor::{workspace, Tensor};

use crate::dense::single_input;
use crate::layer::{Grads, Layer, Mode, Param};
use crate::{NnError, Result};

/// Per-channel batch normalization for NCHW tensors.
///
/// Training mode normalizes with batch statistics and updates exponential
/// running averages; evaluation mode uses the running averages, so
/// inference is deterministic.
///
/// Once a batch holds [`PAR_GRAIN_MAP_ELEMS`] elements, each training pass
/// fans out over the worker pool: a channel's batch reductions (mean and
/// variance forward, the four gradient sums backward) stay one chain each,
/// in sample-then-position order, on one thread, while the channels spread
/// over threads; the elementwise writes (`x̂`, the output, `dx`) then
/// spread the samples over threads and go one (sample, channel) plane at
/// a time. The evaluation pass, one multiply-add per element, runs on the
/// calling thread. Results are bitwise independent of the thread count.
#[derive(Debug)]
pub struct BatchNorm2d {
    name: String,
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    /// Normalized activations of the last training forward (workspace
    /// buffer, recycled on replacement).
    cached_x_hat: Option<Tensor>,
    /// Per-channel `1/σ` of the last training forward (persistent buffer).
    inv_std: Vec<f32>,
    /// Per-channel reductions: `[mean, var]` pairs forward, the four
    /// backward sums per channel (persistent buffer).
    sums: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer with γ=1, β=0.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            name: format!("batchnorm[{channels}]"),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cached_x_hat: None,
            inv_std: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Channel count this layer normalizes.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn check_input(&self, x: &Tensor) -> Result<(usize, usize, usize)> {
        x.expect_rank(4, "batchnorm")?;
        if x.shape()[1] != self.channels {
            return Err(NnError::Tensor(
                deepmorph_tensor::TensorError::ShapeMismatch {
                    lhs: x.shape().to_vec(),
                    rhs: vec![0, self.channels, 0, 0],
                    op: "batchnorm channels",
                },
            ));
        }
        Ok((x.shape()[0], x.shape()[2], x.shape()[3]))
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, &self.name)?;
        let (n, h, w) = self.check_input(x)?;
        let c = self.channels;
        let plane = h * w;
        let m = (n * plane) as f32;
        let src = x.data();
        // Every element of `out` (and, in training, `x_hat`) is written
        // below, so both are raw workspace checkouts.
        let mut out = workspace::tensor_raw(x.shape());
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());

        match mode {
            Mode::Train => {
                // Every training pass fans out by the batch's size, the
                // per-channel ones too.
                let grain = grain_by_work(x.len(), PAR_GRAIN_MAP_ELEMS);
                // Batch mean and variance over (n, h, w), one chain per
                // channel.
                self.sums.resize(2 * c, 0.0);
                for_chunks_mut(&mut self.sums, 2, grain, |ch, stats| {
                    let mut mean = 0.0;
                    for i in 0..n {
                        let base = (i * c + ch) * plane;
                        for p in 0..plane {
                            mean += src[base + p];
                        }
                    }
                    mean /= m;
                    let mut var = 0.0;
                    for i in 0..n {
                        let base = (i * c + ch) * plane;
                        for p in 0..plane {
                            let d = src[base + p] - mean;
                            var += d * d;
                        }
                    }
                    stats[0] = mean;
                    stats[1] = var / m;
                });
                self.inv_std.resize(c, 0.0);
                for (ch, istd) in self.inv_std.iter_mut().enumerate() {
                    let (mean, var) = (self.sums[2 * ch], self.sums[2 * ch + 1]);
                    *istd = 1.0 / (var + self.eps).sqrt();
                    self.running_mean[ch] =
                        (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                    self.running_var[ch] =
                        (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                }
                let mut x_hat = workspace::tensor_raw(x.shape());
                let (sums, inv_std) = (&self.sums, &self.inv_std);
                for_chunks2_mut(
                    x_hat.data_mut(),
                    c * plane,
                    out.data_mut(),
                    c * plane,
                    grain,
                    |i, x_hat, out| {
                        let planes = x_hat.chunks_mut(plane).zip(out.chunks_mut(plane));
                        for (ch, ((x_hat, out), src)) in
                            planes.zip(sample_planes(src, i, c, plane)).enumerate()
                        {
                            let (mean, istd) = (sums[2 * ch], inv_std[ch]);
                            let (g, b) = (gamma[ch], beta[ch]);
                            for ((xh, o), &v) in x_hat.iter_mut().zip(out).zip(src) {
                                let d = v - mean;
                                *xh = d * istd;
                                *o = g * *xh + b;
                            }
                        }
                    },
                );
                workspace::recycle_opt(self.cached_x_hat.replace(x_hat));
            }
            Mode::Eval => {
                for ch in 0..c {
                    let istd = 1.0 / (self.running_var[ch] + self.eps).sqrt();
                    let mean = self.running_mean[ch];
                    let (g, b) = (gamma[ch], beta[ch]);
                    for i in 0..n {
                        let base = (i * c + ch) * plane;
                        for p in 0..plane {
                            out.data_mut()[base + p] = g * (src[base + p] - mean) * istd + b;
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        let x_hat = self
            .cached_x_hat
            .as_ref()
            .ok_or_else(|| NnError::MissingActivation {
                layer: self.name.clone(),
            })?;
        let (n, h, w) = self.check_input(grad)?;
        let c = self.channels;
        if self.inv_std.len() != c || x_hat.len() != grad.len() {
            return Err(NnError::MissingActivation {
                layer: self.name.clone(),
            });
        }
        let plane = h * w;
        let m = (n * plane) as f32;
        let grain = grain_by_work(grad.len(), PAR_GRAIN_MAP_ELEMS);
        let (dy, xh) = (grad.data(), x_hat.data());
        let gamma = self.gamma.value.data();

        // Per channel: dgamma, dbeta, and the two reduction terms the dx
        // formula needs.
        self.sums.resize(4 * c, 0.0);
        for_chunks_mut(&mut self.sums, 4, grain, |ch, sums| {
            let g = gamma[ch];
            let mut dgamma = 0.0;
            let mut dbeta = 0.0;
            let mut sum_dxhat = 0.0;
            let mut sum_dxhat_xhat = 0.0;
            for i in 0..n {
                let base = (i * c + ch) * plane;
                for p in 0..plane {
                    let dy = dy[base + p];
                    let xh = xh[base + p];
                    dgamma += dy * xh;
                    dbeta += dy;
                    let dxhat = dy * g;
                    sum_dxhat += dxhat;
                    sum_dxhat_xhat += dxhat * xh;
                }
            }
            sums.copy_from_slice(&[dgamma, dbeta, sum_dxhat, sum_dxhat_xhat]);
        });
        for ch in 0..c {
            self.gamma.grad.data_mut()[ch] += self.sums[4 * ch];
            self.beta.grad.data_mut()[ch] += self.sums[4 * ch + 1];
        }
        // dx = (istd / m) * (m*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
        // Every element of `dx` is written below.
        let mut dx = workspace::tensor_raw(grad.shape());
        let (sums, inv_std) = (&self.sums, &self.inv_std);
        for_chunks_mut(dx.data_mut(), c * plane, grain, |i, dx| {
            let planes = dx
                .chunks_mut(plane)
                .zip(sample_planes(dy, i, c, plane))
                .zip(sample_planes(xh, i, c, plane));
            for (ch, ((dx, dy), xh)) in planes.enumerate() {
                let (g, istd) = (gamma[ch], inv_std[ch]);
                let (sum_dxhat, sum_dxhat_xhat) = (sums[4 * ch + 2], sums[4 * ch + 3]);
                for ((d, &dy), &xh) in dx.iter_mut().zip(dy).zip(xh) {
                    let dxhat = dy * g;
                    *d = (istd / m) * (m * dxhat - sum_dxhat - xh * sum_dxhat_xhat);
                }
            }
        });
        Ok(Grads::one(dx))
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
    }

    fn clear_cache(&mut self) {
        workspace::recycle_opt(self.cached_x_hat.take());
        self.inv_std = Vec::new();
        self.sums = Vec::new();
    }

    fn export_state(&self) -> Vec<(String, Vec<f32>)> {
        vec![
            ("running_mean".to_string(), self.running_mean.clone()),
            ("running_var".to_string(), self.running_var.clone()),
        ]
    }

    fn import_state(&mut self, entries: &[(String, Vec<f32>)]) -> Result<()> {
        let mismatch = |reason: String| NnError::StateMismatch { reason };
        if entries.len() != 2 {
            return Err(mismatch(format!(
                "`{}` expects 2 state buffers, got {}",
                self.name,
                entries.len()
            )));
        }
        for (entry, expected) in entries.iter().zip(["running_mean", "running_var"]) {
            if entry.0 != expected {
                return Err(mismatch(format!(
                    "`{}` expected buffer `{expected}`, got `{}`",
                    self.name, entry.0
                )));
            }
            if entry.1.len() != self.channels {
                return Err(mismatch(format!(
                    "`{}` buffer `{expected}` has {} values for {} channels",
                    self.name,
                    entry.1.len(),
                    self.channels
                )));
            }
        }
        self.running_mean.copy_from_slice(&entries[0].1);
        self.running_var.copy_from_slice(&entries[1].1);
        Ok(())
    }
}

/// The `c` channel planes of sample `i` in an NCHW buffer.
fn sample_planes(data: &[f32], i: usize, c: usize, plane: usize) -> std::slice::Chunks<'_, f32> {
    data[i * c * plane..(i + 1) * c * plane].chunks(plane)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input() -> Tensor {
        Tensor::from_vec(
            (0..24)
                .map(|v| ((v * 13) % 17) as f32 * 0.3 - 2.0)
                .collect(),
            &[2, 2, 2, 3],
        )
        .unwrap()
    }

    #[test]
    fn train_output_is_standardized() {
        let mut bn = BatchNorm2d::new(2);
        let x = sample_input();
        let y = bn.forward(&[&x], Mode::Train).unwrap();
        // Per-channel mean ≈ 0, var ≈ 1 (γ=1, β=0).
        for ch in 0..2 {
            let mut vals = Vec::new();
            for i in 0..2 {
                for p in 0..6 {
                    vals.push(y.data()[(i * 2 + ch) * 6 + p]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(2);
        let x = sample_input();
        // Before any training step, running stats are (0, 1): eval ≈ identity.
        let y = bn.forward(&[&x], Mode::Eval).unwrap();
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-3);
        }
        // After many train passes running stats converge to batch stats.
        for _ in 0..200 {
            let _ = bn.forward(&[&x], Mode::Train).unwrap();
        }
        let y2 = bn.forward(&[&x], Mode::Eval).unwrap();
        let y_train = bn.forward(&[&x], Mode::Train).unwrap();
        for (a, b) in y2.data().iter().zip(y_train.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(
            vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.1, 0.0, 0.9],
            &[2, 1, 2, 2],
        )
        .unwrap();
        let _ = bn.forward(&[&x], Mode::Train).unwrap();
        // Weighted loss so the gradient isn't trivially zero (sum of a
        // standardized batch is 0 regardless of input).
        let wts: Vec<f32> = (0..8).map(|i| (i as f32 * 0.7).sin() + 0.2).collect();
        let gout = Tensor::from_vec(wts.clone(), &[2, 1, 2, 2]).unwrap();
        let gin = bn.backward(&gout).unwrap().into_first();

        let eps = 1e-2;
        for i in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let loss = |bn: &mut BatchNorm2d, t: &Tensor| {
                let y = bn.forward(&[t], Mode::Train).unwrap();
                y.data().iter().zip(&wts).map(|(a, b)| a * b).sum::<f32>()
            };
            let mut bn2 = BatchNorm2d::new(1);
            let num = (loss(&mut bn2, &xp) - loss(&mut bn2, &xm)) / (2.0 * eps);
            assert!(
                (num - gin.data()[i]).abs() < 0.02,
                "grad {i}: numeric {num} analytic {}",
                gin.data()[i]
            );
        }
    }

    #[test]
    fn gamma_beta_grads_accumulate() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let _ = bn.forward(&[&x], Mode::Train).unwrap();
        let _ = bn.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        // dbeta = sum(dy) = 4
        assert!((bn.beta.grad.data()[0] - 4.0).abs() < 1e-5);
        // dgamma = sum(dy*xhat) = sum(xhat) ≈ 0 for a standardized batch
        assert!(bn.gamma.grad.data()[0].abs() < 1e-4);
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut bn = BatchNorm2d::new(3);
        let x = Tensor::zeros(&[1, 2, 2, 2]);
        assert!(bn.forward(&[&x], Mode::Train).is_err());
    }
}
