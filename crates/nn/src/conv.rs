//! 2-D convolution layer (im2col-lowered).

use deepmorph_tensor::backend::{ComputeCtx, PackedNt};
use deepmorph_tensor::conv::{col2im_mapped_into, im2col_mapped_into, Conv2dGeometry, Im2colMap};
use deepmorph_tensor::{init::Init, workspace, Tensor};
use rand::Rng;

use crate::dense::{product_nt, single_input};
use crate::layer::{Grads, Layer, Mode, Param};
use crate::{NnError, Result};

/// 2-D convolution over NCHW inputs.
///
/// Weights are stored flattened as `[out_channels, in_channels*kh*kw]` so
/// the forward pass is a single `patches @ W^T` product on the `im2col`
/// patch matrix. The geometry and its im2col gather table are computed once
/// per layer instance; per-batch buffers are drawn from (and recycled to)
/// the thread's workspace arena, so a warm train step performs no heap
/// allocations. [`Layer::prepare_serving`] packs the weight a serving
/// replica's eval-mode forward reads, as on [`crate::dense::Dense`].
#[derive(Debug)]
pub struct Conv2d {
    name: String,
    geo: Conv2dGeometry,
    map: Im2colMap,
    weight: Param,
    bias: Param,
    cached_cols: Option<Tensor>,
    cached_batch: usize,
    ctx: ComputeCtx,
    serving: Option<PackedNt>,
}

impl Conv2d {
    /// Creates a convolution with He-normal weights.
    ///
    /// The full input geometry must be known up front (all models in this
    /// workspace have static shapes), which lets the constructor validate
    /// once — and precompute the im2col index table once — instead of on
    /// every batch.
    ///
    /// # Errors
    ///
    /// Returns a geometry error if the kernel/stride/padding combination is
    /// inconsistent with the input size.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let geo = Conv2dGeometry::new(
            in_channels,
            out_channels,
            in_h,
            in_w,
            kernel,
            kernel,
            stride,
            padding,
        )?;
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        let weight = Param::new(Init::HeNormal.materialize(
            &[out_channels, geo.patch_len()],
            fan_in,
            fan_out,
            rng,
        ));
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        Ok(Conv2d {
            name: format!(
                "conv[{in_channels}->{out_channels} k{kernel} s{stride} p{padding} @{in_h}x{in_w}]"
            ),
            map: Im2colMap::new(&geo),
            geo,
            weight,
            bias,
            cached_cols: None,
            cached_batch: 0,
            ctx: ComputeCtx::default(),
            serving: None,
        })
    }

    /// The validated convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    /// Output shape `[c, h, w]` (excluding batch).
    pub fn out_shape(&self) -> [usize; 3] {
        [self.geo.out_channels, self.geo.out_h, self.geo.out_w]
    }

    /// The packed serving weight, if any.
    #[cfg(test)]
    pub(crate) fn serving(&self) -> Option<&PackedNt> {
        self.serving.as_ref()
    }

    /// Permutes `[n*positions, out_c]` to NCHW `[n, out_c, oh, ow]`,
    /// adding each channel's bias on the way.
    ///
    /// Per-sample permutation plus one add per element, so the batch loop
    /// splits over threads (bitwise exact) via
    /// [`deepmorph_tensor::chunks`]. Every output element is written, so
    /// the buffer is a raw workspace checkout.
    fn cols_to_nchw(&self, y: &Tensor, n: usize) -> Tensor {
        let (oc, positions) = (self.geo.out_channels, self.geo.out_positions());
        let mut out = workspace::tensor_raw(&[n, oc, self.geo.out_h, self.geo.out_w]);
        let (src, bias) = (y.data(), self.bias.value.data());
        deepmorph_tensor::chunks::for_chunks_mut(
            out.data_mut(),
            oc * positions,
            deepmorph_tensor::chunks::PAR_GRAIN_ELEMS,
            |i, img| {
                for p in 0..positions {
                    let row = &src[(i * positions + p) * oc..(i * positions + p + 1) * oc];
                    for (ch, (&v, &b)) in row.iter().zip(bias).enumerate() {
                        img[ch * positions + p] = v + b;
                    }
                }
            },
        );
        out
    }

    /// Accumulates the weight and bias gradients of `grad` (w.r.t. the
    /// last training forward's output) and returns `grad` in its
    /// `[n*positions, out_c]` column form, which the data gradient needs.
    fn accumulate_param_grads(&mut self, grad: &Tensor) -> Result<Tensor> {
        let cols = self
            .cached_cols
            .as_ref()
            .ok_or_else(|| NnError::MissingActivation {
                layer: self.name.clone(),
            })?;
        let g_cols = self.nchw_to_cols(grad, self.cached_batch); // [n*pos, out_c]

        // dW = g_cols^T @ cols : [out_c, patch]
        let dw = self.ctx.matmul_tn(&g_cols, cols)?;
        self.weight.grad.add_assign_tensor(&dw)?;
        workspace::recycle_tensor(dw);
        let db = g_cols.sum_axis0()?;
        self.bias.grad.add_assign_tensor(&db)?;
        workspace::recycle_tensor(db);
        Ok(g_cols)
    }

    /// Permutes NCHW gradients back to `[n*positions, out_c]` (the inverse
    /// of [`Conv2d::cols_to_nchw`], parallel over samples the same way).
    fn nchw_to_cols(&self, g: &Tensor, n: usize) -> Tensor {
        let (oc, positions) = (self.geo.out_channels, self.geo.out_positions());
        let mut out = workspace::tensor_raw(&[n * positions, oc]);
        let src = g.data();
        deepmorph_tensor::chunks::for_chunks_mut(
            out.data_mut(),
            positions * oc,
            deepmorph_tensor::chunks::PAR_GRAIN_ELEMS,
            |i, img| {
                for ch in 0..oc {
                    for p in 0..positions {
                        img[p * oc + ch] = src[(i * oc + ch) * positions + p];
                    }
                }
            },
        );
        out
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, inputs: &[&Tensor], mode: Mode) -> Result<Tensor> {
        let x = single_input(inputs, &self.name)?;
        x.expect_rank(4, "conv2d forward")?;
        let n = x.shape()[0];
        let mut cols = workspace::tensor_raw(&[n * self.geo.out_positions(), self.geo.patch_len()]);
        im2col_mapped_into(x, &self.map, cols.data_mut())?;
        // [n*positions, patch] @ [out_c, patch]^T -> [n*positions, out_c]
        let y = product_nt(
            &self.ctx,
            &cols,
            &self.weight.value,
            self.serving.as_ref(),
            mode,
        )?;
        let out = self.cols_to_nchw(&y, n);
        workspace::recycle_tensor(y);
        if mode == Mode::Train {
            workspace::recycle_opt(self.cached_cols.replace(cols));
            self.cached_batch = n;
        } else {
            workspace::recycle_tensor(cols);
        }
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Grads> {
        let g_cols = self.accumulate_param_grads(grad)?;
        // d_cols = g_cols @ W : [n*pos, patch]
        let d_cols = self.ctx.matmul(&g_cols, &self.weight.value)?;
        workspace::recycle_tensor(g_cols);
        let n = self.cached_batch;
        let mut dx =
            workspace::tensor_raw(&[n, self.geo.in_channels, self.geo.in_h, self.geo.in_w]);
        col2im_mapped_into(&d_cols, &self.map, n, dx.data_mut())?;
        workspace::recycle_tensor(d_cols);
        Ok(Grads::one(dx))
    }

    fn backward_params(&mut self, grad: &Tensor) -> Result<()> {
        let g_cols = self.accumulate_param_grads(grad)?;
        workspace::recycle_tensor(g_cols);
        Ok(())
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        // The visitor may rewrite the weight the serving form was built from.
        self.serving = None;
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn clear_cache(&mut self) {
        workspace::recycle_opt(self.cached_cols.take());
    }

    fn prepare_serving(&mut self) -> Result<()> {
        self.serving = Some(self.ctx.pack_nt(&self.weight.value)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepmorph_tensor::init::stream_rng;

    #[test]
    fn forward_shape() {
        let mut rng = stream_rng(1, "conv");
        let mut layer = Conv2d::new(3, 8, 16, 16, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let y = layer.forward(&[&x], Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[2, 8, 16, 16]);
    }

    #[test]
    fn strided_forward_shape() {
        let mut rng = stream_rng(1, "conv");
        let mut layer = Conv2d::new(4, 8, 16, 16, 3, 2, 1, &mut rng).unwrap();
        let x = Tensor::zeros(&[1, 4, 16, 16]);
        let y = layer.forward(&[&x], Mode::Eval).unwrap();
        assert_eq!(y.shape(), &[1, 8, 8, 8]);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 conv with identity weights on 1 channel.
        let mut rng = stream_rng(2, "conv");
        let mut layer = Conv2d::new(1, 1, 4, 4, 1, 1, 0, &mut rng).unwrap();
        layer.weight.value = Tensor::ones(&[1, 1]);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = layer.forward(&[&x], Mode::Eval).unwrap();
        assert_eq!(y.data(), x.data());
    }

    /// Central-difference derivative of `sum(layer(x))` w.r.t. `buf[i]`,
    /// perturbing in place and restoring — no full-tensor clones per
    /// checked element.
    fn numeric_grad(
        layer: &mut Conv2d,
        x: &mut Tensor,
        i: usize,
        eps: f32,
        perturb_weight: bool,
    ) -> f32 {
        let read = |layer: &mut Conv2d, x: &Tensor| layer.forward(&[x], Mode::Eval).unwrap().sum();
        let bump = |layer: &mut Conv2d, x: &mut Tensor, delta: f32| {
            let buf = if perturb_weight {
                layer.weight.value.data_mut()
            } else {
                x.data_mut()
            };
            buf[i] += delta;
        };
        bump(layer, x, eps);
        let yp = read(layer, x);
        bump(layer, x, -2.0 * eps);
        let ym = read(layer, x);
        bump(layer, x, eps); // restore
        (yp - ym) / (2.0 * eps)
    }

    #[test]
    fn gradient_check_small() {
        let mut rng = stream_rng(3, "conv");
        let mut layer = Conv2d::new(2, 3, 5, 5, 3, 1, 1, &mut rng).unwrap();
        let mut x = Tensor::from_vec(
            (0..50).map(|v| ((v * 7) % 11) as f32 * 0.1 - 0.5).collect(),
            &[1, 2, 5, 5],
        )
        .unwrap();
        let _ = layer.forward(&[&x], Mode::Train).unwrap();
        let gout = Tensor::ones(&[1, 3, 5, 5]);
        let gin = layer.backward(&gout).unwrap().into_first();

        let eps = 1e-2;
        for i in (0..x.len()).step_by(7) {
            let num = numeric_grad(&mut layer, &mut x, i, eps, false);
            let ana = gin.data()[i];
            assert!(
                (num - ana).abs() < 0.05,
                "input grad {i}: numeric {num} analytic {ana}"
            );
        }
    }

    #[test]
    fn weight_gradient_check_small() {
        let mut rng = stream_rng(4, "conv");
        let mut layer = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut rng).unwrap();
        let mut x = Tensor::from_vec(
            (0..16).map(|v| (v as f32 * 0.13).sin()).collect(),
            &[1, 1, 4, 4],
        )
        .unwrap();
        let _ = layer.forward(&[&x], Mode::Train).unwrap();
        let gout = Tensor::ones(&[1, 2, 4, 4]);
        let _ = layer.backward(&gout).unwrap();
        let analytic = layer.weight.grad.clone();

        let eps = 1e-2;
        for i in 0..layer.weight.value.len() {
            let num = numeric_grad(&mut layer, &mut x, i, eps, true);
            assert!(
                (num - analytic.data()[i]).abs() < 0.05,
                "weight grad {i}: numeric {num} analytic {}",
                analytic.data()[i]
            );
        }
    }

    #[test]
    fn backward_params_matches_backward_bitwise() {
        let mut rng = stream_rng(6, "conv");
        let mut layer = Conv2d::new(2, 3, 5, 5, 3, 1, 1, &mut rng).unwrap();
        layer.bias.value = Tensor::from_slice(&[0.1, -0.2, 0.3]);
        let wave = |len: usize, f: f32| (0..len).map(|i| (i as f32 * f).sin()).collect();
        let x = Tensor::from_vec(wave(100, 0.7), &[2, 2, 5, 5]).unwrap();
        let gout = Tensor::from_vec(wave(150, 0.3), &[2, 3, 5, 5]).unwrap();
        let _ = layer.forward(&[&x], Mode::Train).unwrap();
        let _ = layer.backward(&gout).unwrap();
        let full = (layer.weight.grad.clone(), layer.bias.grad.clone());
        layer.weight.zero_grad();
        layer.bias.zero_grad();
        layer.backward_params(&gout).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(full.0.data().iter().any(|&v| v != 0.0));
        assert_eq!(bits(&layer.weight.grad), bits(&full.0));
        assert_eq!(bits(&layer.bias.grad), bits(&full.1));
    }

    #[test]
    fn bias_shifts_all_outputs() {
        let mut rng = stream_rng(5, "conv");
        let mut layer = Conv2d::new(1, 1, 3, 3, 1, 1, 0, &mut rng).unwrap();
        layer.weight.value = Tensor::zeros(&[1, 1]);
        layer.bias.value = Tensor::from_slice(&[2.5]);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = layer.forward(&[&x], Mode::Eval).unwrap();
        assert!(y.data().iter().all(|&v| (v - 2.5).abs() < 1e-6));
    }
}
